"""Flat-region utilities: point-set distance, overlap volumes, strip thickening.

Three groups of tools live here:

* Hausdorff distance between finite point clouds in ``R^l``.
* Monte-Carlo volume of a convex polytope and of its union with an
  isometric copy, with deterministic per-sample randomness.
* Exact planar construction of a long thin box inside the union of two
  nearly parallel strips, with the guaranteed cross-section gain.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from .rng import sample_streams

__all__ = [
    "PointCloud",
    "Isometry",
    "ConvexBody",
    "FramedStrip2D",
    "FlatBox2D",
    "UnionVolumeReport",
    "DegenerateBodyError",
    "ParallelStripsError",
    "hausdorff_distance",
    "hausdorff_distances",
    "union_volume",
    "thicken_strips",
    "DEFAULT_SAMPLES",
]

DEFAULT_SAMPLES = 10**6

# Fixed Monte-Carlo chunk: sample i always lives in chunk i // _CHUNK and is
# drawn from the stream keyed by (seed, chunk start), so estimates do not
# depend on how the samples are grouped.  Membership is tested per
# _SUB_BLOCK rows of a chunk, whose temporaries then stay in cache.
_CHUNK = 1 << 16
_SUB_BLOCK = 1 << 14

_SUPPORTED_DIMS = (1, 2, 3)

_ORTHOGONALITY_TOL = 1e-10
_FIXED_SPACE_TOL = 1e-9
_MEMBERSHIP_TOL = 1e-12
# most point pairs in one block of the Hausdorff kernel
_PAIR_BLOCK = 1 << 16


class DegenerateBodyError(ValueError):
    """Raised when a vertex list spans zero volume in its ambient dimension."""


class ParallelStripsError(ValueError):
    """Raised when two strips have (numerically) parallel directions."""


def _as_points(values, dimension: int | None = None) -> np.ndarray:
    pts = np.asarray(values, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if dimension == 1 or dimension is None else pts[None, :]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("expected a nonempty 2-d array of row points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    if dimension is not None and pts.shape[1] != dimension:
        raise ValueError(
            f"points have dimension {pts.shape[1]}, expected {dimension}"
        )
    return pts


@dataclass(eq=False)
class PointCloud:
    """Finite nonempty set of points in ``R^l``, stored as rows."""

    points: np.ndarray

    def __post_init__(self) -> None:
        self.points = _as_points(self.points)

    @property
    def dimension(self) -> int:
        return self.points.shape[1]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @classmethod
    def from_csv(cls, path: str | os.PathLike) -> "PointCloud":
        """Read one point per line, comma-separated coordinates."""
        return cls(np.loadtxt(path, delimiter=",", ndmin=2))


def hausdorff_distance(first: PointCloud, second: PointCloud) -> float:
    """Hausdorff distance of two point clouds: :func:`hausdorff_distances`
    on stacks of one.  Raises ``ValueError`` when the dimensions differ."""
    if first.dimension != second.dimension:
        raise ValueError(f"dimension mismatch: {first.dimension} versus "
                         f"{second.dimension}")
    return float(hausdorff_distances([first.points], [second.points])[0])


def hausdorff_distances(firsts, seconds) -> np.ndarray:
    """Hausdorff distance, the larger directed distance, of each pair in two
    stacks of point clouds shaped (B, n, l) and (B, m, l).  Raises
    ``ValueError`` when the batch sizes or dimensions differ, or a stack or
    cloud is empty or holds a point that is not finite.

    One pass, in blocks of at most 2^16 point pairs across pairs, rows and
    columns, so memory stays bounded: running minima of the squared
    distances over the rows give one direction and over the columns the
    other.  Every min and max is exact and the squares of x - y and y - x
    are equal bit for bit, so this is what two directed passes would give.
    """
    firsts, seconds = np.asarray(firsts, float), np.asarray(seconds, float)
    if not firsts.ndim == seconds.ndim == 3 or len(firsts) != len(seconds):
        raise ValueError(f"mismatched stacks {firsts.shape}, {seconds.shape}")
    (batch, n, dim), m = firsts.shape, seconds.shape[1]
    for stack in (firsts, seconds):  # nonempty, finite, of one dimension
        _as_points(stack.reshape(-1, stack.shape[2]), dim)
    near_first, near_second = (np.full((batch, k), np.inf) for k in (n, m))
    cols = min(m, _PAIR_BLOCK)
    rows = min(n, _PAIR_BLOCK // cols)
    pairs = _PAIR_BLOCK // (rows * cols)
    for b in range(0, batch, pairs):
        for i in range(0, n, rows):
            for j in range(0, m, cols):
                first = firsts[b:b + pairs, i:i + rows, None]
                second = seconds[b:b + pairs, None, j:j + cols]
                # a row of one coordinate broadcasts faster than l of them
                diff = np.empty((*first.shape[:2], second.shape[2], dim))
                for k in range(dim):
                    np.subtract(first[..., k], second[..., k], out=diff[..., k])
                sq = np.einsum("bijk,bijk->bij", diff, diff)
                block = near_first[b:b + pairs, i:i + rows]
                np.minimum(block, sq.min(axis=2), out=block)
                block = near_second[b:b + pairs, j:j + cols]
                np.minimum(block, sq.min(axis=1), out=block)
    return np.sqrt(np.maximum(near_first.max(axis=1), near_second.max(axis=1)))


@dataclass(eq=False)
class Isometry:
    """Rigid motion ``x -> Q x + t`` of ``R^l`` with orthogonal ``Q``."""

    matrix: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float).reshape(-1)
        l = self.translation.shape[0]
        if self.matrix.shape != (l, l):
            raise ValueError("matrix and translation dimensions disagree")
        defect = self.matrix.T @ self.matrix - np.eye(l)
        if float(np.abs(defect).max()) > _ORTHOGONALITY_TOL:
            raise ValueError("matrix is not orthogonal")

    @property
    def dimension(self) -> int:
        return self.translation.shape[0]

    @classmethod
    def translation_by(cls, vector) -> "Isometry":
        vec = np.asarray(vector, dtype=float).reshape(-1)
        return cls(np.eye(vec.shape[0]), vec)

    @classmethod
    def rotation_2d(cls, angle: float, center=None) -> "Isometry":
        """Planar rotation by ``angle`` about ``center`` (default: origin)."""
        c, s = math.cos(angle), math.sin(angle)
        q = np.array([[c, -s], [s, c]])
        if center is None:
            t = np.zeros(2)
        else:
            ctr = np.asarray(center, dtype=float).reshape(2)
            t = ctr - q @ ctr
        return cls(q, t)

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return pts @ self.matrix.T + self.translation

    def translational_part(self) -> float:
        """Norm of the translation component invisible to the rotation.

        This is the projection of ``t`` onto the fixed space of ``Q`` —
        equivalently the minimum displacement ``min_x |A(x) - x|``.  It
        vanishes exactly when the motion has a fixed point (for example a
        rotation about any center), and equals ``|t|`` for a pure
        translation.
        """
        _, singular, v_rows = np.linalg.svd(self.matrix - np.eye(self.dimension))
        fixed_rows = v_rows[singular <= _FIXED_SPACE_TOL]
        if fixed_rows.shape[0] == 0:
            return 0.0
        return float(np.linalg.norm(fixed_rows @ self.translation))


@dataclass(eq=False)
class ConvexBody:
    """Convex polytope in ``R^l`` (``l`` in {1, 2, 3}) given by its vertices.

    The body is the convex hull of the vertex rows.  Construction rejects
    vertex lists that span zero ``l``-volume.
    """

    vertices: np.ndarray
    _facet_normals: np.ndarray = field(init=False, repr=False)
    _facet_offsets: np.ndarray = field(init=False, repr=False)
    _volume: float = field(init=False, repr=False)
    _center: np.ndarray | None = field(init=False, repr=False)
    _inner_sq: float = field(init=False, repr=False)
    _outer: float = field(init=False, repr=False)
    _stretch: float = field(init=False, repr=False)
    _delta: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.vertices = _as_points(self.vertices)
        l = self.dimension
        if l not in _SUPPORTED_DIMS:
            raise ValueError(f"dimension must be one of {_SUPPORTED_DIMS}, got {l}")
        if l == 1:
            lo = float(self.vertices.min())
            hi = float(self.vertices.max())
            if not hi > lo:
                raise DegenerateBodyError("vertices span a single point")
            self._facet_normals = np.array([[1.0], [-1.0]])
            self._facet_offsets = np.array([-hi, lo])
            self._volume = hi - lo
        else:
            # scipy.spatial is imported here, not at start-up: a CLI run
            # that builds no body does not pay for it
            from scipy.spatial import ConvexHull, QhullError

            try:
                hull = ConvexHull(self.vertices)
            except QhullError as exc:
                raise DegenerateBodyError(
                    "vertices span zero volume in their ambient dimension"
                ) from exc
            if not hull.volume > 0.0:
                raise DegenerateBodyError("vertex hull has zero volume")
            # Facet form: normals @ x + offsets <= 0 on the body.
            self._facet_normals = hull.equations[:, :-1].copy()
            self._facet_offsets = hull.equations[:, -1].copy()
            self._volume = float(hull.volume)
        self._set_balls()

    def _set_balls(self) -> None:
        """Centre, inradius and outradius of the ball test in ``contains``.

        The centre c is the vertex mean, inside every full-dimensional hull;
        r_in = min_j -(n_j.c + o_j)/|n_j| and R_out = max_i |v_i - c|.
        With u = 2^-53, S = |c| + R_out and d = |p - c|, for l <= 3 the
        computed slack n.p + o is off by at most 4.01u(2S + d), d^2 by
        5.01u d^2, r_in by 12uS and R_out by 3u R_out.  So:

        * accepting d <= r_in - delta leaves an exact slack below
          -delta + 16uS and a computed one below -delta + 29uS;
        * rejecting d >= R_out + (R_out/r_in)(tol (1 + 2^-16) + delta)
          leaves an exact slack of at least tol + (1 - 2^-16) delta - 9uS
          - xi, where xi is how far the corners of the stored planes lie
          outside the ball of radius R_out, and a computed one above tol
          once delta > xi + 30uS (the rounding of the slack grows with d
          as 4.01u d, slower than the slack's own r_in/R_out > 2^-32).

        delta = 2^-32 S = 2^21 uS.  Past the rounding it is the allowance
        for xi: Qhull's planes miss their vertices by a few uS, which moves
        the corner of two planes meeting at angle theta by about
        uS/sin(theta).  Requiring r_in > delta keeps R_out/r_in known to
        12uS/r_in < 2^-17 relative, which the 2^-16 on tol covers.  A body
        thinner than that runs the facet test alone.
        """
        center = self.vertices.mean(axis=0)
        norms = np.sqrt(np.einsum("ij,ij->i", self._facet_normals,
                                  self._facet_normals))
        depth = -(self._facet_normals @ center + self._facet_offsets) / norms
        r_in = float(depth.min())
        spokes = self.vertices - center
        self._outer = math.sqrt(float(np.einsum("ij,ij->i", spokes,
                                                spokes).max()))
        self._delta = 2.0**-32 * (float(np.linalg.norm(center)) + self._outer)
        if r_in > self._delta:
            self._center = center
            self._inner_sq = (r_in - self._delta) ** 2
            self._stretch = self._outer / r_in
        else:
            self._center = None

    @property
    def dimension(self) -> int:
        return self.vertices.shape[1]

    @property
    def volume(self) -> float:
        """Exact hull volume (length / area / volume for l = 1 / 2 / 3)."""
        return self._volume

    @classmethod
    def from_csv(cls, path: str | os.PathLike) -> "ConvexBody":
        """Read one vertex per line, comma-separated coordinates."""
        return cls(np.loadtxt(path, delimiter=",", ndmin=2))

    def transformed(self, motion: Isometry) -> "ConvexBody":
        if motion.dimension != self.dimension:
            raise ValueError("isometry dimension does not match the body")
        return ConvexBody(motion.apply(self.vertices))

    def contains(self, points: np.ndarray, tol: float = _MEMBERSHIP_TOL):
        """Boolean mask: which row points lie in the body (within ``tol``).

        The rule is the facet test: every slack n_j.p + o_j is at most
        ``tol``.  A ball test about the vertex mean c settles most points
        first, exactly as the facet test would: a point with
        |p - c| <= r_in - delta is inside the inscribed ball, so every
        slack is negative; a point with
        |p - c| >= R_out + (R_out/r_in)(tol + delta) is outside, because
        the ray from c leaves the body through some facet j at a point q
        with |q - c| <= R_out, so slack_j(p) >= (|p - c| - R_out)
        r_in/R_out.  delta covers the rounding of both tests (see
        ``_set_balls``), and only the points between the two radii go
        through the facet test.  A negative ``tol``, or a body too thin
        for the margins, takes the facet test alone.
        """
        pts = _as_points(points, self.dimension)
        if self._center is None or not tol >= 0.0:
            return self._facet_test(pts, tol)
        spokes = pts - self._center
        dist_sq = np.einsum("ij,ij->i", spokes, spokes)
        outer = self._outer + self._stretch * (tol * (1.0 + 2.0**-16)
                                               + self._delta)
        inside = dist_sq <= self._inner_sq
        unsure = np.flatnonzero(~inside & (dist_sq < outer * outer))
        if unsure.size:
            inside[unsure] = self._facet_test(pts[unsure], tol)
        return inside

    def _facet_test(self, pts: np.ndarray, tol: float) -> np.ndarray:
        # BLAS takes a lone row through gemv, whose rounding can differ from
        # gemm's by an ulp; as a pair it gets the slack any batch gives it
        if pts.shape[0] == 1:
            return self._facet_test(np.concatenate([pts, pts]), tol)[:1]
        slack = pts @ self._facet_normals.T + self._facet_offsets
        # one facet per contiguous row: np.all along axis 1 is ~15x slower
        return np.logical_and.reduce(np.ascontiguousarray((slack <= tol).T))

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        return self.vertices.min(axis=0), self.vertices.max(axis=0)


@dataclass(eq=False)
class UnionVolumeReport:
    """Monte-Carlo volume estimates for a body and its union with a copy.

    ``body_volume`` and ``union_volume`` are the hit-fraction estimates over
    a common bounding box; the errors are one-standard-deviation binomial
    estimates.  Identical (seed, samples, geometry) inputs reproduce the
    report bit for bit.
    """

    body_volume: float
    union_volume: float
    body_error: float
    union_error: float
    samples: int
    seed: int
    box_volume: float

    @property
    def gain(self) -> float:
        return self.union_volume - self.body_volume


def _count_chunk(
    pts: np.ndarray, body: ConvexBody, moved: ConvexBody
) -> tuple[int, int]:
    """(samples in the body, samples in the union) among the rows pts."""
    outside = np.flatnonzero(~body.contains(pts))
    body_hits = pts.shape[0] - outside.size
    # the moved body only decides the samples outside the body; a motion
    # that maps the body onto itself can leave none
    if not outside.size:
        return body_hits, body_hits
    return body_hits, body_hits + int(
        np.count_nonzero(moved.contains(pts[outside])))


def union_volume(
    body: ConvexBody,
    motion: Isometry,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> UnionVolumeReport:
    """Estimate vol(Y) and vol(Y ∪ A(Y)) by common-sample Monte Carlo.

    Samples are uniform in the joint bounding box of the body and its image.
    Sample ``i`` is a pure function of ``(seed, i)``: chunks of fixed size
    are keyed by their first sample index, so the result is reproducible
    bit for bit.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    moved = body.transformed(motion)
    lo = np.minimum(body.bounding_box()[0], moved.bounding_box()[0])
    hi = np.maximum(body.bounding_box()[1], moved.bounding_box()[1])
    span = hi - lo
    box_volume = float(np.prod(span))

    at = sample_streams(seed)
    # one buffer for every chunk, scaled and shifted in place: u * span + lo
    # has the bits of lo + u * span
    buffer = np.empty((min(_CHUNK, samples), body.dimension))
    body_hits = union_hits = 0
    for start in range(0, samples, _CHUNK):
        pts = buffer[: min(_CHUNK, samples - start)]
        at(start).random(out=pts)
        pts *= span
        pts += lo
        for row in range(0, pts.shape[0], _SUB_BLOCK):
            hits = _count_chunk(pts[row : row + _SUB_BLOCK], body, moved)
            body_hits += hits[0]
            union_hits += hits[1]

    def _estimate(hits: int) -> tuple[float, float]:
        p = hits / samples
        return box_volume * p, box_volume * math.sqrt(p * (1.0 - p) / samples)

    body_vol, body_err = _estimate(body_hits)
    union_vol, union_err = _estimate(union_hits)
    return UnionVolumeReport(
        body_volume=body_vol,
        union_volume=union_vol,
        body_error=body_err,
        union_error=union_err,
        samples=samples,
        seed=seed,
        box_volume=box_volume,
    )


@dataclass(eq=False)
class FramedStrip2D:
    """Infinite planar strip: points within ``half_width`` of a center line.

    The center line passes through ``offset`` with direction angle
    ``angle``; the strip is the set of points whose distance to that line is
    at most ``half_width``.
    """

    angle: float
    half_width: float
    offset: np.ndarray

    def __post_init__(self) -> None:
        self.offset = np.asarray(self.offset, dtype=float).reshape(2)
        if not self.half_width > 0.0:
            raise ValueError("half_width must be positive")

    @property
    def direction(self) -> np.ndarray:
        return np.array([math.cos(self.angle), math.sin(self.angle)])

    @property
    def normal(self) -> np.ndarray:
        return np.array([-math.sin(self.angle), math.cos(self.angle)])

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float).reshape(-1, 2)
        return (pts - self.offset) @ self.normal

    def contains(self, points: np.ndarray, tol: float = 0.0):
        return np.abs(self.signed_distance(points)) <= self.half_width + tol


@dataclass(eq=False)
class FlatBox2D:
    """Solid rectangle: ``center`` plus extents along an axis and across it.

    ``length`` is the full extent along the axis at ``angle``;
    ``cross_section`` is the full extent across it.
    """

    center: np.ndarray
    angle: float
    length: float
    cross_section: float

    def __post_init__(self) -> None:
        self.center = np.asarray(self.center, dtype=float).reshape(2)
        if not (self.length > 0.0 and self.cross_section > 0.0):
            raise ValueError("length and cross_section must be positive")

    @property
    def axis(self) -> np.ndarray:
        return np.array([math.cos(self.angle), math.sin(self.angle)])

    @property
    def cross_axis(self) -> np.ndarray:
        return np.array([-math.sin(self.angle), math.cos(self.angle)])

    def corners(self) -> np.ndarray:
        half_l = 0.5 * self.length * self.axis
        half_w = 0.5 * self.cross_section * self.cross_axis
        return np.array(
            [
                self.center + half_l + half_w,
                self.center + half_l - half_w,
                self.center - half_l - half_w,
                self.center - half_l + half_w,
            ]
        )

    def grid_points(self, along: int = 100, across: int = 100) -> np.ndarray:
        """Regular grid filling the box, corners included — for membership checks."""
        s = np.linspace(-0.5, 0.5, along)
        t = np.linspace(-0.5, 0.5, across)
        ss, tt = np.meshgrid(s, t, indexing="ij")
        flat = np.stack([ss.ravel(), tt.ravel()], axis=1)
        return (
            self.center
            + flat[:, :1] * self.length * self.axis
            + flat[:, 1:] * self.cross_section * self.cross_axis
        )

    def contains(self, points: np.ndarray, tol: float = 0.0):
        pts = np.asarray(points, dtype=float).reshape(-1, 2) - self.center
        u = pts @ self.axis
        w = pts @ self.cross_axis
        return (np.abs(u) <= 0.5 * self.length + tol) & (
            np.abs(w) <= 0.5 * self.cross_section + tol
        )


def _signed_line_angle(first: float, second: float) -> float:
    """Signed angle in [-pi/2, pi/2] from one undirected line direction to
    another; its absolute value is the angle between the lines."""
    raw = math.fmod(second - first, math.pi)
    if raw < -0.5 * math.pi:
        raw += math.pi
    elif raw > 0.5 * math.pi:
        raw -= math.pi
    return raw


def thicken_strips(first: FramedStrip2D, second: FramedStrip2D) -> FlatBox2D:
    """Long box inside the union of two strips crossing at a small angle.

    Requires ``0 < theta < min(half_width)``, where ``theta`` is the angle
    between the two center lines; parallel strips are rejected.  The box
    is aligned with the first strip and placed past the crossing point so
    that the slab protruding beyond the first strip lies inside the second.
    Its cross-section is ``2*d1 + d/4`` with ``d = min(d1, d2)`` — the
    first strip's cross-section plus a quarter of the smaller half-width —
    and its length grows without bound as ``theta`` decreases.
    """
    delta_1 = first.half_width
    delta_2 = second.half_width
    delta = min(delta_1, delta_2)
    signed = _signed_line_angle(first.angle, second.angle)
    theta = abs(signed)
    if theta == 0.0:
        raise ParallelStripsError("strip directions are parallel")
    if not theta < delta:
        raise ValueError(
            f"crossing angle {theta} must be smaller than the half-width {delta}"
        )

    # Crossing point of the two center lines.
    u1 = first.direction
    u2 = second.direction
    cross_dirs = u1[0] * u2[1] - u1[1] * u2[0]
    gap = second.offset - first.offset
    t_along = (gap[0] * u2[1] - gap[1] * u2[0]) / cross_dirs
    crossing = first.offset + t_along * u1

    # Work in the frame (crossing; u1, mirror * n1) in which the second
    # strip's center line has positive slope tan(theta).
    mirror = 1.0 if signed >= 0.0 else -1.0
    up = mirror * first.normal

    # The box spans y in [-d1, d1 + g] (frame coordinates): the part with
    # |y| <= d1 lies in the first strip; the slab above must lie in the
    # second, i.e. |y cos(theta) - x sin(theta)| <= d2 on all of it.  The
    # corner constraints allow any length up to (2 d2 - g cos(theta)) /
    # sin(theta) about the center below; (2 d2 - g) / tan(theta) is within
    # that bound (cos(theta) <= 1) and scales superlinearly in 1/theta.
    gain = 0.25 * delta
    sin_t = math.sin(theta)
    cos_t = math.cos(theta)
    half_length = (2.0 * delta_2 - gain) / (2.0 * math.tan(theta))
    x_center = (delta_1 + 0.5 * gain) * cos_t / sin_t
    center = crossing + x_center * u1 + 0.5 * gain * up
    return FlatBox2D(
        center=center,
        angle=first.angle,
        length=2.0 * half_length,
        cross_section=2.0 * delta_1 + gain,
    )
