"""Twisted cylinders: screw-motion quotients of the warped product spaces.

A twisted cylinder is the quotient of a warped space by the cyclic group
generated by one screw motion: rotate the transverse block by a fixed
block-diagonal element of SO(2n) and translate the axis coordinate by a
fixed positive length.  This module builds that quotient combinatorially
(the deck map acts literally on Cartesian coordinates), measures holonomy
around the core loop with the transport machinery from :mod:`fatflat.flow`,
and runs the scans that decide whether off-core orbits can close up:

* ``eigen_obstruction`` - how far each power of the rotation is from having
  a fixed normal direction;
* ``closing_scan`` - the return distance of a flat-tube orbit after each
  number of windings;
* ``singular_membership`` - whether an orbit stays inside the exactly flat
  tube for its whole run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import flow
from .flow import ChartExitError, PhaseState
from .geometry import CARTESIAN, MetricChart, max_plane_curvature
from .profiles import WarpingProfile

__all__ = [
    "RotationBlock",
    "TwistedCylinder",
    "ObstructionReport",
    "ClosingReport",
    "SingularReport",
    "DEFAULT_CLOSE_TOL",
    "DEFAULT_S_MAX",
    "FLAT_CURVATURE_TOL",
    "apply_deck",
    "core_holonomy",
    "eigen_obstruction",
    "closing_scan",
    "singular_membership",
]

DEFAULT_CLOSE_TOL = 1e-6
DEFAULT_S_MAX = 10 ** 4
FLAT_CURVATURE_TOL = 1e-10

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RotationBlock:
    """Block-diagonal element of SO(2n): a rotation angle per 2x2 block."""

    angles: Tuple[float, ...]

    def __init__(self, angles: Sequence[float]):
        object.__setattr__(self, "angles",
                           tuple(float(a) for a in angles))
        if not self.angles:
            raise ValueError("at least one rotation block is required")

    @property
    def n(self) -> int:
        return len(self.angles)

    @property
    def dimension(self) -> int:
        return 2 * len(self.angles)

    def matrix(self, power: float = 1.0) -> np.ndarray:
        """Matrix of the rotation (or of a real power of it)."""
        d = self.dimension
        out = np.zeros((d, d))
        for j, alpha in enumerate(self.angles):
            a = power * alpha
            c, s = math.cos(a), math.sin(a)
            out[2 * j, 2 * j] = c
            out[2 * j, 2 * j + 1] = -s
            out[2 * j + 1, 2 * j] = s
            out[2 * j + 1, 2 * j + 1] = c
        return out

    def apply(self, x: np.ndarray, power: float = 1.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        for j, alpha in enumerate(self.angles):
            a = power * alpha
            c, s = math.cos(a), math.sin(a)
            u, v = x[2 * j], x[2 * j + 1]
            out[2 * j] = c * u - s * v
            out[2 * j + 1] = s * u + c * v
        return out


@dataclass(frozen=True)
class TwistedCylinder:
    """Screw-motion quotient: identify (x, z) with (rho x, z + length)."""

    n: int
    length: float
    rho: RotationBlock
    profile: WarpingProfile

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be a positive integer")
        if self.length <= 0.0:
            raise ValueError("period length must be positive")
        if self.rho.n != self.n:
            raise ValueError(
                f"rotation has {self.rho.n} blocks, cylinder needs {self.n}")

    @property
    def dim(self) -> int:
        return 2 * self.n + 1

    @property
    def tube_radius(self) -> float:
        """Radius of the exactly flat tube around the core (may be 0 or inf)."""
        if self.profile.variant == "interpolated":
            return self.profile.tube_radius
        if self.profile.variant == "flat":
            return math.inf
        return 0.0

    def cartesian_chart(self) -> MetricChart:
        return MetricChart.cartesian(self.profile, self.n)


def apply_deck(cyl: TwistedCylinder, point, s: int) -> np.ndarray:
    """Image of a Cartesian-chart point under the s-th power of the deck map.

    (x, z) -> (rho^s x, z + s * length); an isometry of the warped metric
    because the metric depends on x only through |x|.  Only the tests read
    it: ``TestApplyDeck`` and ``TestClosingScan`` in
    ``tests/test_cylinder.py`` check the deck map's metric invariance and
    the closing scan's distances against it.
    """
    coords = np.asarray(point, dtype=float)
    if coords.shape != (cyl.dim,):
        raise ValueError(f"expected {cyl.dim} Cartesian coordinates")
    if float(s) != int(s):
        raise ValueError("deck power must be an integer")
    out = np.empty_like(coords)
    out[:-1] = cyl.rho.apply(coords[:-1], power=float(s))
    out[-1] = coords[-1] + s * cyl.length
    return out


def core_holonomy(cyl: TwistedCylinder, step: float = flow.DEFAULT_STEP
                  ) -> np.ndarray:
    """Holonomy of the core loop acting on the normal space of the core.

    Parallel-transports the standard transverse frame along the core
    geodesic over one period, then closes the loop through the deck
    identification: the loop map is (deck differential) composed with the
    inverse transport, which reduces to the twist rotation itself whenever
    transport along the core is the identity.  The core is the exact line
    x = 0, run at unit speed along z.
    """
    chart = cyl.cartesian_chart()
    d = cyl.dim
    ez = np.eye(d)[d - 1]
    path = flow.GeodesicPath(chart, step, np.array([0.0, cyl.length]),
                             np.array([0.0 * ez, cyl.length * ez]),
                             np.array([ez, ez]))
    transported = flow.parallel_transport(path, np.eye(d)[:d - 1])
    p_block = transported.vectors[:, :-1].T
    return cyl.rho.matrix() @ np.linalg.inv(p_block)


@dataclass
class ObstructionReport:
    """Distance of each rotation power from having a fixed normal vector."""

    s_max: int
    tol: float
    distances: np.ndarray  # entry s-1: min_j dist(s * alpha_j, 2 pi Z)
    flagged: List[int]     # powers whose distance drops below tol
    min_distance: float
    argmin_s: int


def eigen_obstruction(rho: RotationBlock, s_max: int = DEFAULT_S_MAX,
                      tol: float = 1e-9) -> ObstructionReport:
    """Scan rotation powers for an eigenvalue-one direction.

    A power with min_j |s * alpha_j mod 2 pi| == 0 fixes a transverse
    direction, which is exactly what lets an off-core flat-tube orbit close
    up after s windings; the report gives that distance for every s.
    """
    if s_max < 1:
        raise ValueError("s_max must be at least 1")
    s = np.arange(1, s_max + 1, dtype=float)
    dist = np.full(s_max, np.inf)
    for alpha in rho.angles:
        frac = np.mod(s * alpha + math.pi, _TWO_PI) - math.pi
        np.minimum(dist, np.abs(frac), out=dist)
    flagged = [int(i) + 1 for i in np.nonzero(dist < tol)[0]]
    argmin = int(np.argmin(dist))
    return ObstructionReport(s_max, tol, dist, flagged,
                             float(dist[argmin]), argmin + 1)


@dataclass
class ClosingReport:
    """Return distances of a flat-tube orbit after each winding count."""

    r0: float
    s_max: int
    close_tol: float
    distances: np.ndarray  # entry s-1: quotient return distance after s windings
    min_distance: float
    argmin_s: int
    closed_powers: List[int]
    first_closed: Optional[int]

    @property
    def ever_closes(self) -> bool:
        return self.first_closed is not None


def closing_scan(cyl: TwistedCylinder, r0: float,
                 s_max: int = DEFAULT_S_MAX,
                 close_tol: float = DEFAULT_CLOSE_TOL) -> ClosingReport:
    """Return distance in the quotient of the axis-parallel flat-tube orbit.

    The orbit starting at transverse radius r0 (split evenly across the
    rotation blocks) with axis-parallel unit velocity is a straight line in
    the flat tube; after s windings its quotient return distance is the
    root-sum-square over blocks of 2 * r_block * |sin(s * alpha_j / 2)|.
    The start point itself returns exactly for r0 = 0 at every power.
    """
    if s_max < 1:
        raise ValueError("s_max must be at least 1")
    if r0 < 0.0:
        raise ValueError("start radius must be nonnegative")
    if r0 >= cyl.tube_radius:
        raise ValueError(
            f"start radius {r0} is not inside the flat tube "
            f"(radius {cyl.tube_radius}); the straight-line return "
            "formula only holds there")
    r_block = r0 / math.sqrt(cyl.n)
    s = np.arange(1, s_max + 1, dtype=float)
    total = np.zeros(s_max)
    for alpha in cyl.rho.angles:
        disp = 2.0 * r_block * np.abs(np.sin(0.5 * s * alpha))
        total += disp * disp
    distances = np.sqrt(total)
    closed = [int(i) + 1 for i in np.nonzero(distances < close_tol)[0]]
    argmin = int(np.argmin(distances))
    return ClosingReport(r0, s_max, close_tol, distances,
                         float(distances[argmin]), argmin + 1,
                         closed, closed[0] if closed else None)


@dataclass
class SingularReport:
    """Outcome of the stays-in-the-flat-tube test for one orbit."""

    member: bool
    max_curvature: float
    max_radius: float
    exit_time: Optional[float]  # first sampled time with radius beyond the tube
    duration: float


_CHUNK_TIME = 0.5  # chart choice is re-examined this often


def _integrate_radius_profile(cyl: TwistedCylinder, state: PhaseState,
                              duration: float, step: float
                              ) -> Tuple[np.ndarray, np.ndarray]:
    """Times and radii sampled at every node, switching charts as needed.

    The orbit is integrated in chunks; before each chunk the chart is
    re-chosen by current radius (Cartesian near the axis where the diagonal
    charts degenerate, diagonal away from it where the Cartesian assembly
    of huge warp factors loses accuracy).  Escapes from a diagonal chart
    inside a chunk land back in the Cartesian chart.  The axis coordinate
    never matters here because radius and curvature are invariant under the
    deck map.
    """
    cart = cyl.cartesian_chart()
    polar = MetricChart.polar(cyl.profile, cyl.n)
    chart = cart
    cur = state.copy()
    t_done = 0.0
    all_t: List[np.ndarray] = []
    all_r: List[np.ndarray] = []
    switches = 0
    while duration - t_done > 0.5 * step:
        radius = chart.radius_of(cur.position)
        wanted = cart if radius < 2.0 * flow.POLAR_EXIT_RADIUS else polar
        if wanted.kind != chart.kind:
            cur = flow.switch_chart(chart, cur, wanted)
            chart = wanted
        chunk = min(_CHUNK_TIME, duration - t_done)
        try:
            path = flow.integrate_geodesic(chart, cur, chunk, step,
                                           record_every=1)
            all_t.append(path.times + t_done)
            all_r.append(path.radii())
            t_done += path.duration
            cur = path.state()
        except ChartExitError as exc:
            if chart.kind == CARTESIAN:
                raise
            part = exc.partial
            all_t.append(part.times + t_done)
            all_r.append(part.radii())
            t_done += exc.time
            cur = flow.switch_chart(chart, exc.state, cart)
            chart = cart
            switches += 1
            if switches > 10000:
                raise RuntimeError("too many chart switches") from exc
    return np.concatenate(all_t), np.concatenate(all_r)


def singular_membership(cyl: TwistedCylinder, state: PhaseState,
                        duration: float, step: float = flow.DEFAULT_STEP
                        ) -> SingularReport:
    """Does the orbit stay in the flat tube with zero curvature throughout?

    Integrates the orbit (given in the cylinder's Cartesian chart) for the
    requested time, samples the transverse radius at every node, and
    evaluates the largest sectional-curvature value attainable at each
    sampled radius.  Membership requires the radius to stay within the flat
    tube and the sampled curvature maximum to stay at most 1e-10.
    """
    coords = np.asarray(state.position, dtype=float)
    if coords.shape != (cyl.dim,):
        raise ValueError(f"expected a state with {cyl.dim} coordinates")
    chart = cyl.cartesian_chart()
    speed = flow.kinetic_energy(chart, state.position, state.velocity)
    if abs(speed - 1.0) > 1e-6:
        raise ValueError(f"state must be unit speed, got g(v,v) = {speed}")
    times, radii = _integrate_radius_profile(cyl, state, duration, step)
    max_radius = float(np.max(radii))
    beyond = np.nonzero(radii > cyl.tube_radius)[0]
    exit_time = float(times[beyond[0]]) if len(beyond) else None
    max_curv = -math.inf
    for r in np.unique(np.round(radii, 12)):
        max_curv = max(max_curv, max_plane_curvature(cyl.profile, float(r)))
    member = exit_time is None and max_curv <= FLAT_CURVATURE_TOL
    return SingularReport(member, max_curv, max_radius, exit_time, duration)
