"""Geodesic flow, parallel transport, and radial comparison operators.

Everything here integrates ordinary differential equations along curves in
one of the charts from :mod:`fatflat.geometry` with a fixed-step classical
fourth-order Runge-Kutta scheme.  A fixed step keeps runs exactly
reproducible: the sample grid, and therefore every downstream reduction, is
a pure function of (chart, initial state, duration, step).

Geodesics, parallel frames and the comparison operator all run through one
RK4 driver over one flat state of Python floats (position, velocity, frame
rows, then the m x m entries of the comparison operator U).  Each stage
evaluates the chart's connection jet once; one bilinear form per chart
kind, called on one vector at a time, gives the acceleration -Gamma(v, v)
and every frame vector's transport rate -Gamma(v, w).  The Cartesian jet
is :func:`fatflat.geometry.axis_coefficient_jets`; on the profile's flat
piece the chart is Euclidean, its connection vanishes, that jet is the one
object ``_FLAT_COEFFS``, and a stage there returns zero rates without
calling the form.  The comparison operator's curvature term M is built in
closed form and in plain floats from one radial jet per stage by one
curvature form per chart kind: the profile's four principal ratios times
Gram matrices of the frame's adapted components, by
:func:`fatflat.geometry.curvature_numerator` itself, which the scans call
too (polar n = 1 writes the same sum out).  U U is summed in plain floats
too, so no step of a Riccati stage goes through numpy.

Every metric inner product g(a, b) is :func:`fatflat.geometry._dot`, from
0.0 left to right, of the adapted parts of a and b from
:func:`fatflat.geometry.adapted_components_raw` in the frame that
:func:`_adapted_parts` picks, with sigma and tau from the scalar radial
jet: no metric matrix is formed, and no BLAS kernel rounds an inner
product.

Chart policy: the Cartesian chart is regular across the axis and is the
right place to integrate whenever an orbit may approach radius zero; the
diagonal charts are cheaper and better conditioned at large radius.  The
integrator raises :class:`ChartExitError` when a trajectory leaves the
region where its chart is trustworthy so the caller can switch charts and
resume (see :func:`switch_chart`), and when its state stops being finite.
The policy in use is ``fatflat.cylinder._integrate_radius_profile``'s: a
diagonal chart hands over to the Cartesian one on such an exit, below
``POLAR_EXIT_RADIUS``, and an orbit goes back to the diagonal chart only
once it is past twice that radius.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import chain, repeat
from operator import add
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import (
    CARTESIAN,
    POLAR,
    R_MIN,
    ChartDomainError,
    MetricChart,
    NonFiniteRadiusError,
    _FLAT_COEFFS,
    _dot,
    _overflow_error,
    adapted_components_raw,
    axis_coefficient_jets,
    axis_jet_ratios,
    cartesian_to_polar,
    christoffel,
    curvature_numerator,
    polar_to_cartesian,
)

__all__ = [
    "PhaseState",
    "GeodesicPath",
    "TransportResult",
    "RiccatiResult",
    "ChartExitError",
    "RiccatiBlowupError",
    "DEFAULT_STEP",
    "POLAR_EXIT_RADIUS",
    "ANGLE_EXIT_MARGIN",
    "RICCATI_RECORD_EVERY",
    "integrate_geodesic",
    "parallel_transport",
    "riccati_expansion",
    "kinetic_energy",
    "normalize_velocity",
    "switch_chart",
]

DEFAULT_STEP = 1e-3

# Diagonal charts are abandoned before their coordinate singularities start
# to poison the integrator: Christoffel entries grow like 1/r near the axis
# and like cot(theta) near the angular poles.
POLAR_EXIT_RADIUS = 1e-2
ANGLE_EXIT_MARGIN = 1e-3

# riccati_expansion records the trace of U every this many steps
RICCATI_RECORD_EVERY = 100


class ChartExitError(RuntimeError):
    """A trajectory left the valid region of its chart.

    Carries the last in-chart sample (and, for plain geodesic runs, the
    partial path recorded so far) so the caller can transform the state to
    another chart and resume integration there.
    """

    def __init__(self, message: str, time: float, state: "PhaseState",
                 partial: Optional["GeodesicPath"] = None):
        super().__init__(message)
        self.time = time
        self.state = state
        self.partial = partial


class RiccatiBlowupError(RuntimeError):
    """The comparison operator left the resolvable range of the step size."""

    def __init__(self, message: str, time: float):
        super().__init__(message)
        self.time = time


@dataclass
class PhaseState:
    """Position and velocity in a single chart's coordinates."""

    position: np.ndarray
    velocity: np.ndarray

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).copy()
        self.velocity = np.asarray(self.velocity, dtype=float).copy()
        if self.position.shape != self.velocity.shape:
            raise ValueError("position and velocity must have equal shapes")

    def copy(self) -> "PhaseState":
        return PhaseState(self.position, self.velocity)

    def reversed(self) -> "PhaseState":
        return PhaseState(self.position, -self.velocity)


@dataclass
class GeodesicPath:
    """Recorded samples of one geodesic integration run."""

    chart: MetricChart
    step: float
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray

    @property
    def duration(self) -> float:
        return float(self.times[-1])

    @property
    def samples(self) -> List[Tuple[float, PhaseState]]:
        return [
            (float(t), PhaseState(p, v))
            for t, p, v in zip(self.times, self.positions, self.velocities)
        ]

    def state(self, index: int = -1) -> PhaseState:
        return PhaseState(self.positions[index], self.velocities[index])

    def radii(self) -> np.ndarray:
        return self.chart.radius_of(self.positions)

    def energies(self) -> np.ndarray:
        """g(v, v) at every recorded sample (constant along true geodesics)."""
        return _gram(self.chart, self.positions,
                     self.velocities[:, None])[:, 0, 0]


@dataclass
class TransportResult:
    """Parallel transport of a frame along a geodesic."""

    vectors: np.ndarray  # rows are the transported vectors at the endpoint
    end_state: PhaseState
    orthogonality_defect: float  # max |Gram(end) - Gram(start)| entrywise


@dataclass
class RiccatiResult:
    """Radial comparison operator U(t) integrated along a geodesic."""

    u_final: np.ndarray
    times: np.ndarray
    traces: np.ndarray
    end_state: PhaseState


# ---------------------------------------------------------------------------
# metric evaluation helpers


def _scales(chart: MetricChart, pos) -> Tuple[float, float, float]:
    """(r, sigma, tau) at pos[:dim] from one radial jet."""
    r = (math.sqrt(_dot(x := pos[:chart.block_dim], x))
         if chart.kind == CARTESIAN else pos[0])
    try:
        jet, _ = chart.profile.jet_ratios(r)
        return r, jet[0], jet[3]
    except OverflowError:  # sinh, cosh past r ~ 710
        raise _overflow_error(r) from None


def _gram(chart: MetricChart, positions, vectors) -> np.ndarray:
    """Gram matrices g(v_i, v_j) of the stacks ``vectors`` (N, m, dim) at
    ``positions`` (N, dim): dot products of the vectors' adapted parts (one
    scalar radial jet per point), each a (warp * rate) product squared only
    afterwards, so that a large warp factor times a small rate stays an
    ordinary number.  Raises :class:`ChartDomainError` at the first point
    whose Gram is not finite."""
    vectors = np.asarray(vectors, dtype=float)
    n, m, dim = vectors.shape
    parts_of, grams = _adapted_parts(chart, m), []
    for y in np.hstack([positions, vectors.reshape(n, m * dim)]).tolist():
        r, sigma, tau = _scales(chart, y)
        parts = parts_of(y, r, sigma, tau)
        grams += [_dot(a, b) for a in parts for b in parts]
        if not all(map(math.isfinite, grams[-m * m:])):
            raise _overflow_error(r)
    return np.array(grams).reshape(n, m, m)


def kinetic_energy(chart: MetricChart, position, velocity) -> float:
    """g(v, v) at a single phase-space point."""
    return float(_gram(chart, [position], [[velocity]])[0, 0, 0])


def normalize_velocity(chart: MetricChart, position, velocity) -> np.ndarray:
    """Scale a velocity to unit metric speed."""
    vel = np.asarray(velocity, dtype=float)
    e = kinetic_energy(chart, position, vel)
    if e <= 0.0:
        raise ValueError("cannot normalize a zero velocity")
    return vel / math.sqrt(e)


# ---------------------------------------------------------------------------
# connection forms
#
# The integrators carry one flat state of Python floats: the position, the
# velocity, then the rows of a frame.  jet(pos, v) holds what a stage's rates
# share, and rates(jet, pos, v, w) = -Gamma(v, w) is bilinear in v and one
# vector w; pos may be the whole flat state, as both read only pos[:dim].
# The geodesic acceleration is rates(v, v), each term grouped so that it
# rounds as the quadratic form does (at w = v, the sum -(l*vr)*wt - (l*wr)*vt
# is -2*l*vr*vt bit for bit).  The diagonal chart's form is the
# warped-product connection (O'Neill, Semi-Riemannian Geometry, Prop. 7.35).


def _connection(chart: MetricChart) -> Tuple[Callable, Callable]:
    """(jet, rates) with transport rates rates(jet(pos, v), pos, v, w)."""
    profile = chart.profile
    if chart.kind == CARTESIAN:
        d = chart.block_dim

        def jet(pos, v):
            x = pos[:d]
            return axis_coefficient_jets(profile, math.sqrt(_dot(x, x)))

        def rates(coeffs, pos, v, w):
            a, b, apr, bpr, tau2, tpr, _, _, _ = coeffs
            x, vb, wb, vz, wz = pos[:d], v[:d], w[:d], v[d], w[d]
            sv, sw, q = _dot(vb, x), _dot(wb, x), _dot(wb, vb)
            c = bpr * sv * sw + 2.0 * b * q - apr * q - tpr * vz * wz
            asv, asw = apr * sv, apr * sw
            u = [asv * s + asw * t + c * e for s, t, e in zip(wb, vb, x)]
            bxu, a2 = b * _dot(u, x), 2.0 * a
            return [*(-(s - bxu * e) / a2 for s, e in zip(u, x)),
                    -((tpr * sv) * wz + (tpr * sw) * vz) / (2.0 * tau2)]

        return jet, rates
    if chart.kind == POLAR and chart.block_dim == 2:
        def rates(st, pos, v, w):
            sg, dsg, _, tu, dtu, _ = st
            (vr, vt, vz), (wr, wt, wz) = v, w
            ls, lt = dsg / sg, dtu / tu
            # grouped as (warp * rate) products: the factors overflow/underflow
            # separately at large radius while the products stay ordinary
            return ((sg * vt) * (dsg * wt) + (tu * vz) * (dtu * wz),
                    -(ls * vr) * wt - (ls * wr) * vt,
                    -(lt * vr) * wz - (lt * wr) * vz)

        sigma_tau = profile.sigma_tau  # bound once per integrator call
        def jet(pos, v):
            try:
                return sigma_tau(pos[0])
            except OverflowError:  # sinh, cosh past r ~ 710
                raise _overflow_error(pos[0]) from None

        return jet, rates

    def jet(pos, v):
        # -Gamma contracted with v once per stage: row i dotted with w is
        # the i-th rate of w
        try:
            gamma = christoffel(chart.point(pos[:chart.dim]))
        except OverflowError:  # sinh, cosh past r ~ 710
            raise _overflow_error(pos[0]) from None
        if not np.isfinite(gamma).all():  # sigma^2 past r ~ 355
            raise _overflow_error(pos[0])
        return (-(np.asarray(v) @ gamma)).tolist()

    return jet, lambda rows, pos, v, w: [_dot(row, w) for row in rows]


def _flat_rates(chart: MetricChart, rows: int = 0) -> Callable:
    """rhs(y, jet=None): rates of the flat state y = (position, velocity,
    ``rows`` frame rows, ...) from one connection jet, ``jet`` if given.

    A Cartesian stage on the flat piece, where the connection vanishes and
    :func:`fatflat.geometry.axis_coefficient_jets` returns the one object
    ``_FLAT_COEFFS``, calls no form and returns -0.0 rates: the form's own
    zeros there but on the axis, where it gives +0.0 when both its terms
    are -0.0.  A zero rate leaves a nonzero or +0.0 coordinate as it is, so
    only an axis coordinate that is already -0.0 can differ."""
    connection_jet, rates = _connection(chart)
    dim = chart.dim
    starts = range(2 * dim, (2 + rows) * dim, dim)
    zeros = [-0.0] * ((1 + rows) * dim)

    def rhs(y, jet=None):
        vel = y[dim:2 * dim]  # the forms read the position from y[:dim]
        if jet is None:
            jet = connection_jet(y, vel)
        if jet is _FLAT_COEFFS:
            return vel + zeros
        out = [*vel, *rates(jet, y, vel, vel)]
        for k in starts:
            out += rates(jet, y, vel, y[k:k + dim])
        return out

    return rhs


def _exit_guard(chart: MetricChart, h: float,
                partial: Optional[Callable] = None) -> Callable:
    """guard(i, pos, vel, finite=False, stage=True) raises
    :class:`ChartExitError` at node ``i`` when the orbit must leave ``chart``
    or its state (known finite if ``finite``) or, if not ``stage``, a stage
    of the step from it is not finite; ``partial()`` builds the path so far."""
    diagonal = chart.kind != CARTESIAN
    # diagonal charts also carry polar angles with poles at 0, pi
    n_angles = chart.block_dim - 2 if diagonal else 0

    def guard(i, pos, vel, finite=False, stage=True):
        # "not inside" tests, so that NaN coordinates fail them too
        if not (stage and (finite or _finite(pos, vel))):
            why = "non-finite state"
        elif diagonal and not pos[0] >= POLAR_EXIT_RADIUS:
            why = "radius below the diagonal-chart floor"
        elif n_angles and not all(
                ANGLE_EXIT_MARGIN <= th <= math.pi - ANGLE_EXIT_MARGIN
                for th in pos[1:1 + n_angles]):
            why = "polar angle reached a coordinate pole"
        else:
            return
        raise ChartExitError(why, i * h, PhaseState(pos, vel),
                             partial() if partial else None)

    return guard


def _finite(pos, vel) -> bool:
    return all(map(math.isfinite, pos)) and all(map(math.isfinite, vel))


def _step_count(duration: float, step: float) -> Tuple[int, float]:
    if duration <= 0.0:
        raise ValueError("duration must be positive")
    if step <= 0.0:
        raise ValueError("step must be positive")
    n = max(1, int(round(duration / step)))
    return n, duration / n


def _rk4(rhs: Callable, y: list, n_steps: int, h: float, before: Callable,
         after: Callable) -> list:
    """Classical RK4 over a state held as a list of Python floats;
    ``rhs(y)`` returns the list of their rates.

    ``before(i, y)`` sees node i ahead of step i and may raise; ``before(i,
    y, False)`` must raise: a stage of step i reached a non-finite radius.
    ``after(i, y)`` sees node i + 1 and may raise or replace components.
    """
    half = 0.5 * h
    sixth = h / 6.0
    for i in range(n_steps):
        before(i, y)
        try:
            k1 = rhs(y)
            k2 = rhs([c + half * k for c, k in zip(y, k1)])
            k3 = rhs([c + half * k for c, k in zip(y, k2)])
            k4 = rhs([c + h * k for c, k in zip(y, k3)])
        except NonFiniteRadiusError:
            before(i, y, False)
            raise
        y = [c + sixth * (a + 2.0 * (b + e) + d)
             for c, a, b, e, d in zip(y, k1, k2, k3, k4)]
        after(i, y)
    return y


# ---------------------------------------------------------------------------
# geodesic integration


def integrate_geodesic(chart: MetricChart, state: PhaseState, duration: float,
                       step: float = DEFAULT_STEP,
                       record_every: int = 1) -> GeodesicPath:
    """Integrate the geodesic equation with classical RK4 at a fixed step.

    Records every ``record_every``-th node (plus the final node).  Raises
    :class:`ChartExitError` when the orbit leaves the chart's trusted
    region, with the last good sample attached.
    """
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    chart.point(state.position)  # validates chart membership
    n_steps, h = _step_count(duration, step)
    dim = chart.dim
    y = state.position.tolist() + state.velocity.tolist()
    times, positions, velocities = [0.0], [y[:dim]], [y[dim:]]

    def path():
        return GeodesicPath(chart, h, np.array(times), np.array(positions),
                            np.array(velocities))

    guard = _exit_guard(chart, h, path)

    def before(i, y, stage=True):
        # after(i - 1) has checked that node i is finite
        guard(i, y[:dim], y[dim:], i > 0, stage)

    def after(i, y):
        pos, vel = y[:dim], y[dim:]
        if not _finite(pos, vel):
            raise ChartExitError("non-finite state", (i + 1) * h,
                                 PhaseState(positions[-1], velocities[-1]),
                                 path())
        if (i + 1) % record_every == 0 or i + 1 == n_steps:
            times.append((i + 1) * h)
            positions.append(pos)
            velocities.append(vel)

    before(n_steps, _rk4(_flat_rates(chart), y, n_steps, h, before, after))
    return path()


def switch_chart(chart: MetricChart, state: PhaseState,
                 target: MetricChart) -> PhaseState:
    """Express a phase-space state in another chart of the same metric."""
    if (chart.profile is not target.profile
            or chart.block_dim != target.block_dim):
        raise ValueError("charts describe different spaces")
    if chart.kind == target.kind:
        return state.copy()
    if chart.kind == POLAR and target.kind == CARTESIAN:
        pt, vel = polar_to_cartesian(chart.point(state.position),
                                     state.velocity)
        return PhaseState(pt.coords, vel)
    if chart.kind == CARTESIAN and target.kind == POLAR:
        pt, vel = cartesian_to_polar(chart.point(state.position),
                                     state.velocity)
        return PhaseState(pt.coords, vel)
    raise ValueError("unsupported chart switch "
                     f"{chart.kind!r} -> {target.kind!r}")


# ---------------------------------------------------------------------------
# parallel transport


def parallel_transport(path: GeodesicPath,
                       frame: Sequence[np.ndarray]) -> TransportResult:
    """Parallel-transport ``frame`` (based at the path start) to its end.

    The frame rides along the same RK4 stages as the base geodesic, which
    is re-integrated from the path's initial sample on the path's own grid.
    The state is one flat list of floats (position, velocity, frame rows);
    each stage evaluates the chart's connection jet once and calls its
    bilinear rates form -Gamma(v, .) on the velocity, for the geodesic
    acceleration, and on each frame vector, except on the flat piece of the
    Cartesian chart, where every rate is zero.
    """
    chart = path.chart
    state = path.state(0)
    chart.point(state.position)
    n_steps, h = _step_count(path.duration, path.step)
    guard = _exit_guard(chart, h)
    dim = chart.dim

    w0 = np.array([np.asarray(w, dtype=float) for w in frame])
    if w0.ndim != 2 or w0.shape[1] != dim:
        raise ValueError("frame must be a list of tangent vectors")
    gram0 = _gram(chart, [state.position], [w0])[0]

    y = _rk4(_flat_rates(chart, len(w0)), state.position.tolist()
             + state.velocity.tolist() + w0.ravel().tolist(), n_steps, h,
             lambda i, y, s=True: guard(i, y[:dim], y[dim:2 * dim], False, s),
             lambda i, y: None)
    pos, vel, *w = np.array(y).reshape(-1, dim)
    guard(n_steps, pos, vel)
    defect = float(np.max(np.abs(_gram(chart, [pos], [w])[0] - gram0)))
    return TransportResult(np.array(w), PhaseState(pos, vel), defect)


# ---------------------------------------------------------------------------
# radial comparison (Riccati) operator


def _normal_frame(chart: MetricChart, position: np.ndarray,
                  velocity: np.ndarray) -> np.ndarray:
    """Metric-orthonormal basis of the normal space of ``velocity``:
    Gram-Schmidt in plain floats of the coordinate basis, each vector beside
    its adapted parts (g as :func:`_gram` forms it), each candidate scaled
    by its largest part, so that no squared warp factor is formed."""
    dim = chart.dim
    y = np.concatenate([position, velocity, np.eye(dim).ravel()]).tolist()
    r, sigma, tau = _scales(chart, y)
    parts = _adapted_parts(chart, dim + 1)(y, r, sigma, tau)
    if not all(map(math.isfinite, chain(*parts))):
        raise _overflow_error(r)
    rows = [y[k:k + dim] + p for k, p in zip(range(dim, len(y), dim), parts)]
    # a velocity too fast for g(v, v) is left to the integrators' checks
    if not (vnorm := _dot(parts[0], parts[0])) > 0.0:
        raise ValueError("velocity must be nonzero")
    basis = [[e / math.sqrt(vnorm) for e in rows[0]]]
    for cand in rows[1:]:
        if (big := max(map(abs, cand[dim:]))) == 0.0:  # no parts: sigma = 0
            continue
        cand = [e / big for e in cand]
        # relative: a candidate in the span leaves about |parts|^2 eps^2
        floor = 1e-12 * _dot(cand[dim:], cand[dim:])
        for b in basis:
            s = _dot(cand[dim:], b[dim:])
            cand = [c - s * e for c, e in zip(cand, b)]
        if (nrm := _dot(cand[dim:], cand[dim:])) > floor:
            basis.append([e / math.sqrt(nrm) for e in cand])
        if len(basis) == dim:
            break
    if len(basis) != dim:
        raise ChartDomainError(f"no normal frame at r = {r:.17g}: the "
                               "coordinate basis does not resolve it there")
    return np.array([b[:dim] for b in basis[1:]])


def _adapted_parts(chart: MetricChart, rows: int) -> Callable:
    """parts(y, r, sigma, tau): the adapted parts (radial, sphere, axis) of
    the ``rows`` vectors after the position in the flat state y, in plain
    floats, from :func:`geometry.adapted_components_raw` in the frame
    chosen here."""
    d, dim = chart.block_dim, chart.dim
    starts = range(dim, (1 + rows) * dim, dim)
    cartesian, axis = chart.kind == CARTESIAN, [1.0] + [0.0] * (d - 1)

    def parts(y, r, sigma, tau):
        if not cartesian:
            frame, scale = [math.sin(a) for a in y[1:d - 1]], sigma
        # the Cartesian metric is isotropic within R_MIN of the axis: there
        # any unit radial direction with sigma/r = 1 gives its inner products
        elif r < R_MIN:
            frame, scale = axis, 1.0
        else:
            frame, scale = [e / r for e in y[:d]], sigma / r
        return adapted_components_raw(chart, frame, scale, tau,
                                      [y[k:k + dim] for k in starts])

    return parts


def _curvature(chart: MetricChart, m: int) -> Callable:
    """curvature(y, r, jet, ratios): M[i, j] = R(w_i, v, w_j, v), row-major,
    for the velocity v and the ``m`` frame rows w_i after the position in
    the flat state y, in plain floats: :func:`geometry.curvature_numerator`
    of their adapted parts.  On polar n = 1 each of its dot products has
    one term, and the same sum is written out in scalars, bit for bit: the
    0.0 start stays where it turns a -0.0 product into +0.0, and a square,
    never -0.0, goes without it."""
    if chart.kind == POLAR and chart.block_dim == 2:
        def curvature(y, r, jet, ratios):
            k1, k2, k3, k4 = ratios
            sigma, tau = jet[0], jet[3]
            vr, vs, vz = y[3], y[4] * sigma, y[5] * tau
            ar, as_, az = y[6], y[7] * sigma, y[8] * tau
            br, bs, bz = y[9], y[10] * sigma, y[11] * tau
            pa, pb = ar * vs - vr * as_, br * vs - vr * bs
            ca, cb = 0.0 + as_ * vs, 0.0 + bs * vs
            qa, qb = ar * vz - vr * az, br * vz - vr * bz
            sa, sb = az * vs - vz * as_, bz * vs - vz * bs
            vv = vs * vs
            ab = (k1 * (0.0 + pa * pb) + k2 * (vv * (0.0 + as_ * bs) - ca * cb)
                  + k3 * (qa * qb) + k4 * (0.0 + sa * sb))
            return [k1 * (pa * pa) + k2 * (vv * (as_ * as_) - ca * ca)
                    + k3 * (qa * qa) + k4 * (sa * sa), ab, ab,
                    k1 * (pb * pb) + k2 * (vv * (bs * bs) - cb * cb)
                    + k3 * (qb * qb) + k4 * (sb * sb)]

        return curvature

    adapted_parts = _adapted_parts(chart, m + 1)

    def curvature(y, r, jet, ratios):
        v, *ws = adapted_parts(y, r, jet[0], jet[3])
        return [*chain(*curvature_numerator(ratios, ws, v))]

    return curvature


def _square(u: Sequence[float], m: int) -> list:
    """U U of the m x m matrix ``u`` held row-major, in plain floats, each
    entry a left-to-right sum from 0.0; a 2 x 2 ``u`` is written out."""
    if m == 2:
        a, b, c, d = u
        return [a * a + b * c, 0.0 + a * b + b * d,
                0.0 + c * a + d * c, c * b + d * d]
    return [_dot(u[i:i + m], u[j::m]) for i in range(0, m * m, m)
            for j in range(m)]


def riccati_expansion(path: GeodesicPath, c0: float = 1.0) -> RiccatiResult:
    """Integrate U' + U^2 + M(t) = 0 with U(0) = c0 * I along a geodesic.

    The geodesic is re-integrated from the path's initial sample on the
    path's own grid, and the trace of U is recorded every
    ``RICCATI_RECORD_EVERY`` steps and at the end.  M(t) is the curvature
    operator w -> R(w, v, w, v) restricted to a parallel orthonormal frame
    of the velocity's normal space, built in closed form at each stage from
    one radial jet: each principal curvature ratio times the Gram matrix of
    the frame's shadows on its coordinate 2-plane.  U rides in the flat
    float state after the frame rows, and U U is summed in plain floats:
    no step of a stage goes through numpy, so no BLAS kernel rounds M or
    U U.  Raises :class:`RiccatiBlowupError` as soon as an eigenvalue of U
    exceeds the reciprocal step, after which the fixed-step scheme cannot
    resolve the solution any further, and :class:`ChartExitError` when the
    orbit leaves its chart or stops being finite.
    """
    chart = path.chart
    state = path.state(0)
    chart.point(state.position)
    if c0 <= 0.0:
        raise ValueError("c0 must be positive")
    n_steps, h = _step_count(path.duration, path.step)
    guard = _exit_guard(chart, h)
    profile = chart.profile
    dim, d = chart.dim, chart.block_dim
    cartesian = chart.kind == CARTESIAN
    frame = _normal_frame(chart, state.position, state.velocity)
    m = len(frame)
    mm = m * m
    diag = range(0, mm, m + 1)
    flat_rates = _flat_rates(chart, m)
    curvature_of = _curvature(chart, m)
    u = (c0 * np.eye(m)).ravel().tolist()
    jet_ratios = profile.jet_ratios

    def rhs(y):
        r = math.sqrt(_dot(x := y[:d], x)) if cartesian else y[0]
        try:
            # one rho_jet per stage: on the Cartesian chart it gives the
            # connection's axis coefficients too, and on polar n = 1 the
            # connection's jet is the radial jet itself
            if cartesian:
                connection, jet, ratios = axis_jet_ratios(profile, r)
            else:
                jet, ratios = jet_ratios(r)
                connection = jet[:6] if d == 2 else None
        except OverflowError:
            raise _overflow_error(r) from None
        curvature = repeat(0.0)  # M vanishes wherever every ratio does
        if any(ratios):
            curvature = curvature_of(y, r, jet, ratios)
        return flat_rates(y, connection) + [
            -s - c for s, c in zip(_square(y[-mm:], m), curvature)]

    max_eig_allowed = 1.0 / h
    rec_times = [0.0]
    rec_traces = [reduce(add, (u[k] for k in diag), 0.0)]

    def before(i, y, stage=True):
        guard(i, y[:dim], y[dim:2 * dim], stage=stage)
        u = y[-mm:]
        # Gershgorin's bound diag + sum|row| - |diag| on the largest
        # eigenvalue, each sum from 0.0 left to right as numpy sums a few
        # entries; the exact eigvalsh only runs when it crosses 1/step
        if any(u[k] + (reduce(add, map(abs, u[row:row + m]), 0.0) - abs(u[k]))
               > max_eig_allowed for k, row in zip(diag, range(0, mm, m))):
            exact = float(np.max(np.linalg.eigvalsh(
                np.array(u).reshape(m, m))))
            if exact > max_eig_allowed:
                raise RiccatiBlowupError(
                    "comparison operator eigenvalue exceeded 1/step", i * h)

    def after(i, y):
        u = y[-mm:]
        y[-mm:] = u = [0.5 * (u[p * m + q] + u[q * m + p])
                       for p in range(m) for q in range(m)]
        if not all(map(math.isfinite, u)):
            raise RiccatiBlowupError("comparison operator became non-finite",
                                     (i + 1) * h)
        if (i + 1) % RICCATI_RECORD_EVERY == 0 or i + 1 == n_steps:
            rec_times.append((i + 1) * h)
            rec_traces.append(reduce(add, (u[k] for k in diag), 0.0))

    # a stage's U that is not finite (its curvature term overflowed) is
    # reported by a later stage's radius or by after()
    y = _rk4(rhs, state.position.tolist() + state.velocity.tolist()
             + frame.ravel().tolist() + u, n_steps, h, before, after)
    pos, vel = y[:dim], y[dim:2 * dim]
    guard(n_steps, pos, vel)
    return RiccatiResult(np.array(y[-mm:]).reshape(m, m), np.array(rec_times),
                         np.array(rec_traces), PhaseState(pos, vel))
