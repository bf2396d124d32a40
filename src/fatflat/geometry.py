"""Coordinate charts for axially warped metrics and their curvature.

Two chart kinds cover the model space R^d x R of the metric
dr^2 + sigma(r)^2 g_sphere + tau(r)^2 dz^2 over a transverse block of any
dimension d >= 2: a polar chart built on hyperspherical sphere coordinates,
and an axis-regular Cartesian chart that stays smooth through r = 0.  The
model space R^(2n+1) has d = 2n; its 4-dimensional reduction (r, theta,
phi, z), used for plane-by-plane curvature work, is the polar chart on a
block of dimension 3.  Every chart evaluates the metric tensor, Christoffel
symbols, the lowered Riemann tensor and sectional curvatures, and the
module provides randomized nonpositivity scans over coordinate boxes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .profiles import (
    WarpingProfile,
    _piece_ratios,
    _ramp_blend,
    _ramp_ratios,
    _step_jet,
    cosh_minus_one,
    sinh_minus_linear,
    sinh_minus_linear_over_r3,
)
from .rng import sample_streams

POLAR = "polar"
CARTESIAN = "cartesian"

R_MIN = 1e-8
_PLANE_TOL = 1e-14


class ChartDomainError(ValueError):
    """Raised for coordinates outside a chart's valid region."""


class NonFiniteRadiusError(ChartDomainError):
    """Raised where a radius that is not finite reaches a chart's terms."""


class DegeneratePlaneError(ValueError):
    """Raised when two vectors do not span a 2-plane."""


# ---------------------------------------------------------------------------
# charts and points
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricChart:
    """A coordinate chart carrying the warped metric on a transverse block
    of dimension ``block_dim`` times the z-axis.

    kind 'polar': coordinates (r, a_1..a_{block_dim-1}, z) with
    hyperspherical angles on the sphere factor, a_1..a_{block_dim-2} in
    (0, pi); valid for r >= R_MIN.  On a 3-dimensional block this is the
    4-dimensional reduction chart (r, theta, phi, z) for plane curvature.
    kind 'cartesian': coordinates (x_1..x_{block_dim}, z); valid everywhere,
    including the axis x = 0.
    """

    kind: str
    block_dim: int
    profile: WarpingProfile

    def __post_init__(self):
        if self.kind not in (POLAR, CARTESIAN):
            raise ValueError(f"unknown chart kind {self.kind!r}")
        if self.block_dim < 2:
            raise ValueError("block_dim must be >= 2")

    @classmethod
    def polar(cls, profile: WarpingProfile, n: int = 1) -> "MetricChart":
        return cls(POLAR, 2 * n, profile)

    @classmethod
    def cartesian(cls, profile: WarpingProfile, n: int = 1) -> "MetricChart":
        return cls(CARTESIAN, 2 * n, profile)

    @classmethod
    def four_d_model(cls, profile: WarpingProfile) -> "MetricChart":
        return cls(POLAR, 3, profile)

    @property
    def dim(self) -> int:
        return self.block_dim + 1

    def radius_of(self, coords: np.ndarray) -> float | np.ndarray:
        """Distance from the axis encoded by the coordinates: a float for
        one point, a new array over the leading axes of a batch."""
        coords = np.asarray(coords, dtype=float)
        if self.kind == CARTESIAN:
            x = coords[..., : self.block_dim]
            r = np.sqrt(np.vecdot(x, x))
        else:
            r = coords[..., 0].copy()
        return float(r) if r.ndim == 0 else r

    def contains(self, coords) -> bool:
        coords = np.asarray(coords, dtype=float)
        if coords.shape != (self.dim,) or not np.all(np.isfinite(coords)):
            return False
        if self.kind == CARTESIAN:
            return True
        # polar: all hyperspherical angles except the last live in (0, pi)
        return bool(coords[0] >= R_MIN) and all(
            0.0 < a < math.pi for a in coords[1:self.block_dim - 1])

    def point(self, coords) -> "ChartPoint":
        coords = np.asarray(coords, dtype=float)
        if not self.contains(coords):
            raise ChartDomainError(
                f"coordinates {coords!r} invalid for {self.kind} chart "
                f"(dim {self.dim})")
        return ChartPoint(coords, self)


@dataclass(frozen=True)
class ChartPoint:
    coords: np.ndarray
    chart: MetricChart

    @property
    def radius(self) -> float:
        return self.chart.radius_of(self.coords)


@dataclass(frozen=True)
class TangentPlane:
    """A 2-plane spanned by two tangent vectors at a chart point."""

    point: ChartPoint
    u: np.ndarray
    v: np.ndarray


# ---------------------------------------------------------------------------
# axis-regular coefficients for the Cartesian chart
#
# On the transverse block the metric is A(r) I + B(r) x x^T with
# A = (sigma/r)^2 and B = (r^2 - sigma^2)/r^4, so A + B r^2 = 1 identically.
# A, B, A'/r, B'/r and 2 tau tau'/r all extend smoothly through r = 0 and are
# evaluated in cancellation-free form below.
# ---------------------------------------------------------------------------

def _mu_ds(r: float) -> float:
    """d/ds of (sinh r - r)/r^3 viewed as a function of s = r^2."""
    if r < 0.75:
        s = r * r
        return (1.0 / 120.0 + s * (1.0 / 2520.0 + s * (1.0 / 120960.0
                + s * (1.0 / 9979200.0 + s / 1245404160.0))))
    m = sinh_minus_linear(r)
    c1 = cosh_minus_one(r)
    return (r * c1 - 3.0 * m) / (2.0 * r ** 5)


def _mu_ds2(r: float) -> float:
    """Second s-derivative of (sinh r - r)/r^3, s = r^2."""
    if r < 0.75:
        s = r * r
        return (1.0 / 2520.0 + s * (1.0 / 60480.0 + s * (1.0 / 3326400.0
                + s / 311351040.0)))
    m = sinh_minus_linear(r)
    c1 = cosh_minus_one(r)
    n_val = r * c1 - 3.0 * m
    np_val = r * (m + r) - 2.0 * c1          # d/dr of n_val; sinh = m + r
    return (np_val * r - 5.0 * n_val) / (4.0 * r ** 7)


def _axis_coeffs_hyperbolic(r: float):
    s = r * r
    mu = sinh_minus_linear_over_r3(r)
    mup = _mu_ds(r)
    mupp = _mu_ds2(r)
    mu2 = sinh_minus_linear_over_r3(2.0 * r)
    smu = s * mu
    a_val = (1.0 + smu) ** 2
    b_val = -(2.0 * mu + smu * mu)
    apr = 4.0 * (1.0 + smu) * (mu + s * mup)
    bpr = -(4.0 * mup + 2.0 * mu * mu + 4.0 * smu * mup)
    apr2 = 8.0 * ((mu + s * mup) ** 2
                  + (1.0 + smu) * (2.0 * mup + s * mupp))
    bpr2 = -8.0 * (mupp + 2.0 * mu * mup + s * mup * mup + smu * mupp)
    ch = math.cosh(r)
    tau2 = ch * ch
    tpr = 2.0 + 8.0 * s * mu2
    tpr2 = 16.0 * mu2 + 64.0 * s * _mu_ds(2.0 * r)
    return a_val, b_val, apr, bpr, tau2, tpr, apr2, bpr2, tpr2


_FLAT_COEFFS = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0)


def axis_coefficient_jets(profile: WarpingProfile, r: float):
    """(A, B, A'/r, B'/r, tau^2, 2 tau tau'/r, (A'/r)'/r, (B'/r)'/r,
    (2 tau tau'/r)'/r) at radius r >= 0.

    These nine functions determine the Cartesian metric and its first and
    second coordinate derivatives; all are smooth even functions of r,
    evaluated in cancellation-free form.  On the profile's flat piece, where
    the Cartesian connection vanishes, they are the one object
    ``_FLAT_COEFFS``, so that a stage can tell it is there.  Where one
    overflows (from r ~ 351.9 on the hyperbolic piece) raises
    :class:`ChartDomainError`; finite is not exact, as the chart's rates
    cancel A = (sigma/r)^2 against B r^2 terms.
    """
    return _checked_axis_jets(r, profile.rho_jet(r))


def axis_jet_ratios(profile: WarpingProfile, r: float):
    """(axis_coefficient_jets(profile, r), *profile.jet_ratios(r)) from one
    rho evaluation, as a Riccati stage on the Cartesian chart needs them;
    the radial jet raises OverflowError past r ~ 710 as jet_ratios does."""
    step = profile.rho_jet(r)
    jet = _step_jet(r, *step)
    return (_checked_axis_jets(r, step), jet,
            _piece_ratios(*step) or _ramp_ratios(jet))


def _checked_axis_jets(r: float, step):
    try:
        jets = _axis_coefficient_jets(r, step)
        if all(map(math.isfinite, jets)):
            return jets
    except OverflowError:
        pass
    if not math.isfinite(r):
        raise NonFiniteRadiusError(f"radius {r} is not finite")
    raise ChartDomainError(
        f"Cartesian metric coefficients overflow at r = {r:.17g}: the chart "
        "is exact only where all of them are finite")


def _axis_coefficient_jets(r: float, step):
    p, p1, p2 = step
    if p1 == 0.0 and p2 == 0.0 and p in (0.0, 1.0):
        return _FLAT_COEFFS if p == 0.0 else _axis_coeffs_hyperbolic(r)
    # ramp region: r >= 1/k, so plain powers of r are harmless while every
    # difference below stays an explicit multiple of the step function
    m = sinh_minus_linear(r)
    c1 = cosh_minus_one(r)
    sigma, _, sigma_pp, tau, tau_p, tau_pp, bump = _ramp_blend(
        r, p, p1, p2, m + r, 1.0 + c1, m, c1)   # bump = sigma' - 1
    pm = p * m                                  # sigma - r
    r2 = r * r
    r4 = r2 * r2
    e_val = pm / r                              # sigma/r - 1
    a_val = (1.0 + e_val) ** 2
    b_val = -e_val * (2.0 + e_val) / r2
    apr = 2.0 * sigma * (r * bump - pm) / r4
    r_minus_ss = -(pm + r * bump + pm * bump)   # r - sigma sigma'
    bpr = 2.0 * r_minus_ss / (r4 * r) - 4.0 * b_val / r2
    tau2 = tau * tau
    tpr = 2.0 * tau * tau_p / r
    # second radial derivatives: (A'/r)'/r = (A'' - A'/r)/r^2 etc., with the
    # flat parts cancelled symbolically so only step-scaled terms remain
    apr2 = ((6.0 * (e_val - bump) + 2.0 * bump * bump
             - 10.0 * e_val * bump + 8.0 * e_val * e_val) / r4
            + 2.0 * (1.0 + e_val) * sigma_pp / (r2 * r))
    phi = 2.0 * e_val + e_val * e_val
    e_p = (bump - e_val) / r
    e_pp = (sigma_pp - 2.0 * e_p) / r
    phi_p = 2.0 * e_p * (1.0 + e_val)
    phi_pp = 2.0 * e_pp * (1.0 + e_val) + 2.0 * e_p * e_p
    bpr2 = (-phi_pp * r2 + 5.0 * phi_p * r - 8.0 * phi) / (r4 * r2)
    tpr2 = (2.0 * (tau_p * tau_p + tau * tau_pp) - tpr) / r2
    return a_val, b_val, apr, bpr, tau2, tpr, apr2, bpr2, tpr2


# ---------------------------------------------------------------------------
# metric jets
# ---------------------------------------------------------------------------

def _diag_factors(chart: MetricChart):
    """Per-diagonal-entry factor lists for the polar chart.

    Each metric diagonal entry is a product of single-variable factors;
    a factor is ('s2',) for sigma(r)^2, ('t2',) for tau(r)^2, or
    ('sin2', j) for sin^2 of coordinate j.  Variable of the warp factors
    is coordinate 0 (= r).
    """
    entries = [[]]
    for i in range(chart.block_dim - 1):
        entries.append([("s2",)] + [("sin2", 1 + j) for j in range(i)])
    entries.append([("t2",)])
    return entries


def _factor_jet(factor, coords, warp):
    """(variable index, value, d/dx, d2/dx2) of one metric factor."""
    sg, sgp, sgpp, tu, tup, tupp = warp
    if factor[0] == "s2":
        return 0, sg * sg, 2.0 * sg * sgp, 2.0 * (sgp * sgp + sg * sgpp)
    if factor[0] == "t2":
        return 0, tu * tu, 2.0 * tu * tup, 2.0 * (tup * tup + tu * tupp)
    j = factor[1]
    sn, cs = math.sin(coords[j]), math.cos(coords[j])
    return j, sn * sn, 2.0 * sn * cs, 2.0 * (cs * cs - sn * sn)


def _diag_metric_jets(chart: MetricChart, coords: np.ndarray, order: int):
    """Metric, and optionally its first/second coordinate derivatives.

    Returns (g,), (g, dg) or (g, dg, d2g) according to order in {0, 1, 2},
    with dg[k, i, j] = d_k g_ij and d2g[l, k, i, j] = d_l d_k g_ij.
    """
    dim = chart.dim
    warp = chart.profile.sigma_tau(float(coords[0]))
    g = np.zeros((dim, dim))
    dg = np.zeros((dim, dim, dim)) if order >= 1 else None
    d2g = np.zeros((dim, dim, dim, dim)) if order >= 2 else None
    g[0, 0] = 1.0
    for i, factors in enumerate(_diag_factors(chart)):
        if not factors:
            continue
        jets = [_factor_jet(f, coords, warp) for f in factors]
        vals = [j[1] for j in jets]
        g[i, i] = math.prod(vals)
        if order == 0:
            continue
        for a, (ka, va, d1a, d2a) in enumerate(jets):
            rest_a = math.prod(vals[b] for b in range(len(vals)) if b != a)
            dg[ka, i, i] += rest_a * d1a
            if order < 2:
                continue
            d2g[ka, ka, i, i] += rest_a * d2a
            for b in range(a + 1, len(jets)):
                kb, vb, d1b, _ = jets[b]
                rest_ab = math.prod(vals[c] for c in range(len(vals))
                                    if c not in (a, b))
                d2g[ka, kb, i, i] += rest_ab * d1a * d1b
                d2g[kb, ka, i, i] += rest_ab * d1a * d1b
    out = [g]
    if order >= 1:
        out.append(dg)
    if order >= 2:
        out.append(d2g)
    return tuple(out)


def _cartesian_metric_jets(chart: MetricChart, coords: np.ndarray,
                           order: int):
    dim, d = chart.dim, chart.block_dim
    x = coords[:d]
    r = chart.radius_of(coords)
    (a_val, b_val, apr, bpr, tau2, tpr,
     apr2, bpr2, tpr2) = axis_coefficient_jets(chart.profile, r)
    g = np.zeros((dim, dim))
    g[:d, :d] = a_val * np.eye(d) + b_val * np.outer(x, x)
    g[d, d] = tau2
    if order == 0:
        return (g,)
    dg = np.zeros((dim, dim, dim))
    eye = np.eye(d)
    xx = np.outer(x, x)
    for k in range(d):
        blk = apr * x[k] * eye + bpr * x[k] * xx
        blk += b_val * (np.outer(eye[k], x) + np.outer(x, eye[k]))
        dg[k, :d, :d] = blk
        dg[k, d, d] = tpr * x[k]
    if order == 1:
        return g, dg
    d2g = np.zeros((dim, dim, dim, dim))
    for ell in range(d):
        for k in range(d):
            blk = apr2 * x[ell] * x[k] * eye + bpr2 * x[ell] * x[k] * xx
            blk += bpr * (x[k] * (np.outer(eye[ell], x)
                                  + np.outer(x, eye[ell]))
                          + x[ell] * (np.outer(eye[k], x)
                                      + np.outer(x, eye[k])))
            blk += b_val * (np.outer(eye[k], eye[ell])
                            + np.outer(eye[ell], eye[k]))
            if ell == k:
                blk += apr * eye + bpr * xx
            d2g[ell, k, :d, :d] = blk
            d2g[ell, k, d, d] = tpr2 * x[ell] * x[k]
            if ell == k:
                d2g[ell, k, d, d] += tpr
    return g, dg, d2g


def _metric_jets(chart: MetricChart, coords: np.ndarray, order: int):
    if chart.kind == CARTESIAN:
        return _cartesian_metric_jets(chart, coords, order)
    return _diag_metric_jets(chart, coords, order)


def _metric_inverse_raw(chart: MetricChart, coords: np.ndarray,
                        g: np.ndarray) -> np.ndarray:
    if chart.kind == CARTESIAN:
        d = chart.block_dim
        x = coords[:d]
        r = chart.radius_of(coords)
        a_val, b_val, _, _, tau2 = axis_coefficient_jets(chart.profile, r)[:5]
        ginv = np.zeros((chart.dim, chart.dim))
        # (A I + B x x^T)^-1 = (I - B x x^T)/A since A + B r^2 = 1
        ginv[:d, :d] = (np.eye(d) - b_val * np.outer(x, x)) / a_val
        ginv[d, d] = 1.0 / tau2
        return ginv
    return np.diag(1.0 / np.diag(g))


def metric_tensor(point: ChartPoint) -> np.ndarray:
    """The metric as a symmetric positive-definite matrix at the point."""
    return _metric_jets(point.chart, point.coords, 0)[0]


def _gamma_from_jets(dg: np.ndarray, ginv: np.ndarray):
    # (Gamma, C) with C[m, j, k] = d_j g_mk + d_k g_mj - d_m g_jk
    c = (np.einsum("jmk->mjk", dg) + np.einsum("kmj->mjk", dg) - dg)
    return 0.5 * np.einsum("im,mjk->ijk", ginv, c), c


def christoffel(point: ChartPoint) -> np.ndarray:
    """Connection coefficients Gamma[i, j, k] = Gamma^i_jk at the point."""
    chart = point.chart
    g, dg = _metric_jets(chart, point.coords, 1)
    return _gamma_from_jets(dg, _metric_inverse_raw(chart, point.coords, g))[0]


def _dgamma_analytic(chart: MetricChart, coords: np.ndarray):
    """(g, Gamma, dGamma) with dGamma[l, i, j, k] = d_l Gamma^i_jk, from
    closed-form metric jets to second order."""
    g, dg, d2g = _metric_jets(chart, coords, 2)
    ginv = _metric_inverse_raw(chart, coords, g)
    gamma, c = _gamma_from_jets(dg, ginv)
    dginv = -np.einsum("ia,lab,bj->lij", ginv, dg, ginv)
    dc = (np.einsum("ljmk->lmjk", d2g) + np.einsum("lkmj->lmjk", d2g)
          - np.einsum("lmjk->lmjk", d2g))
    dgamma = 0.5 * (np.einsum("lim,mjk->lijk", dginv, c)
                    + np.einsum("im,lmjk->lijk", ginv, dc))
    return g, gamma, dgamma


def _dgamma_stencil(chart: MetricChart, coords: np.ndarray, h: float):
    """(Gamma, dGamma) by fourth-order central differences of Gamma."""
    dim = chart.dim
    gamma = christoffel(ChartPoint(coords, chart))
    dgamma = np.zeros((dim, dim, dim, dim))

    def gamma_at(c):
        return christoffel(ChartPoint(c, chart))

    for ell in range(dim):
        step = np.zeros(dim)
        step[ell] = h
        gm2 = gamma_at(coords - 2.0 * step)
        gm1 = gamma_at(coords - step)
        gp1 = gamma_at(coords + step)
        gp2 = gamma_at(coords + 2.0 * step)
        dgamma[ell] = (gm2 - 8.0 * gm1 + 8.0 * gp1 - gp2) / (12.0 * h)
    return gamma, dgamma


def _riemann_from_gamma(g: np.ndarray, gamma: np.ndarray,
                        dgamma: np.ndarray) -> np.ndarray:
    # R^i_jkl = d_k Gamma^i_lj - d_l Gamma^i_kj
    #           + Gamma^i_km Gamma^m_lj - Gamma^i_lm Gamma^m_kj
    rup = (np.einsum("kilj->ijkl", dgamma) - np.einsum("likj->ijkl", dgamma)
           + np.einsum("ikm,mlj->ijkl", gamma, gamma)
           - np.einsum("ilm,mkj->ijkl", gamma, gamma))
    return np.einsum("im,mjkl->ijkl", g, rup)


def riemann(point: ChartPoint) -> np.ndarray:
    """Lowered curvature tensor R[i, j, k, l] = R_ijkl at the point,
    assembled from closed-form metric jets in every chart kind."""
    g, gamma, dgamma = _dgamma_analytic(point.chart, point.coords)
    return _riemann_from_gamma(g, gamma, dgamma)


def riemann_fd(point: ChartPoint) -> np.ndarray:
    """Cross-check variant of riemann: the derivatives of Gamma come from a
    fourth-order central stencil with the fixed step h = 1e-5 * max(1, r)
    in every coordinate instead of the closed-form metric jets."""
    h = 1e-5 * max(1.0, point.radius)
    gamma, dgamma = _dgamma_stencil(point.chart, point.coords, h)
    return _riemann_from_gamma(metric_tensor(point), gamma, dgamma)


# ---------------------------------------------------------------------------
# sectional curvature
# ---------------------------------------------------------------------------

def plane(point: ChartPoint, u, v) -> TangentPlane:
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != (point.chart.dim,) or v.shape != (point.chart.dim,):
        raise DegeneratePlaneError("vector dimension does not match chart")
    return TangentPlane(point, u, v)


def _gram_determinant(g: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    uu = float(u @ g @ u)
    vv = float(v @ g @ v)
    uv = float(u @ g @ v)
    return uu * vv - uv * uv


def sectional_curvature(pl: TangentPlane,
                        rie: np.ndarray | None = None) -> float:
    """K = R(u, v, u, v) / (|u|^2 |v|^2 - <u, v>^2).

    Every chart kind uses the principal-ratio expansion by default: the
    vectors are split into radial/sphere/axis parts in a frame adapted to
    the warped splitting, and R(u, v, u, v) is a combination of the four
    principal ratios weighted by the plane's shadows.  This is the
    one-sample case of the route :func:`scan_nonpositive` takes; it is
    exact wherever the metric scales sigma^2 and tau^2 are finite and raises
    :class:`ChartDomainError` beyond.  Passing a precomputed Riemann tensor
    contracts it instead: the independent cross-check, whose raw components
    overflow once sigma^4 leaves double range (r ~ 177 on the hyperbolic
    piece).
    """
    if rie is None:
        chart = pl.point.chart
        a, ratios, radii, finite = _adapted_vectors(
            chart, pl.point.coords[None], np.stack([pl.u, pl.v])[None])
        if not finite[0]:
            raise _overflow_error(radii[0])
        k, denom = _plane_curvatures(a, ratios)
        if not denom[0] > _PLANE_TOL:
            raise _parallel_error(denom[0])
        return float(k[0])
    g = metric_tensor(pl.point)
    nu = pl.u / math.sqrt(float(pl.u @ g @ pl.u))
    nv = pl.v / math.sqrt(float(pl.v @ g @ pl.v))
    denom = _gram_determinant(g, nu, nv)
    if not denom > _PLANE_TOL:
        raise _parallel_error(denom)
    num = float(np.einsum("ijkl,i,j,k,l", rie, nu, nv, nu, nv))
    return num / denom


def _parallel_error(denom: float) -> DegeneratePlaneError:
    return DegeneratePlaneError(
        f"vectors are parallel to within tolerance (gram {denom:g})")


def _overflow_error(r: float) -> ChartDomainError:
    return ChartDomainError(
        f"warped metric terms overflow at r = {r:.17g}: the chart and its "
        "curvature are exact only where the warp factors and the terms built "
        "from them are finite")


def _adapted_vectors(chart: MetricChart, coords: np.ndarray,
                     vecs: np.ndarray):
    """Adapted parts of a batch of vector stacks, one radial jet per point.

    coords is (N, dim) and vecs (N, m, dim).  Returns (a, ratios, radii,
    finite): a[p, i] holds the adapted parts of vecs[p, i], so metric inner
    products are plain dot products of its rows; ratios[p] holds the four
    principal ratios, all equal at isotropic points; finite marks the
    points whose metric scales, and the squared lengths of whose vectors,
    are finite.
    """
    radii = chart.radius_of(coords)
    jets = np.array([_scales_and_ratios(chart.profile, r)
                     for r in radii.tolist()])
    sigma, tau, ratios = jets[:, 0], jets[:, 1], jets[:, 2:]
    if chart.kind == CARTESIAN:  # every plane near the axis reads k1
        ratios[radii < R_MIN] = ratios[radii < R_MIN, :1]
    with np.errstate(over="ignore", invalid="ignore"):
        a = adapted_components_raw(chart, coords, vecs, sigma, tau)
        finite = (np.isfinite(sigma * sigma) & np.isfinite(tau * tau)
                  & np.all(np.isfinite(np.vecdot(a, a)), axis=-1))
    return a, ratios, radii, finite


def _scales_and_ratios(profile: WarpingProfile, r: float):
    """(sigma, tau, k1, k2, k3, k4) at radius r; the scales read infinite
    past r ~ 710, where sinh and cosh leave double range."""
    try:
        jet, ratios = profile.jet_ratios(r)
    except OverflowError:
        return (math.inf, math.inf) + (math.nan,) * 4
    return (jet[0], jet[3], *ratios)


def _plane_curvatures(a: np.ndarray, ratios: np.ndarray):
    """(K, Gram determinant) of the planes spanned by a[p, 0] and a[p, 1],
    adapted vectors as from :func:`_adapted_vectors`; both vectors are
    normalized first."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a = a / np.sqrt(np.vecdot(a, a))[..., None]
        gram = a @ a.mT
        denom = gram[:, 0, 0] * gram[:, 1, 1] - gram[:, 0, 1] * gram[:, 0, 1]
        num = curvature_numerator(ratios.T[..., None, None], a[:, :1],
                                  a[:, 1])[:, 0, 0]
        # where the four ratios agree (the flat tube, the hyperbolic piece,
        # the axis) every plane has that curvature
        isotropic = np.all(ratios == ratios[:, :1], axis=1)
        k = np.where(isotropic, ratios[:, 0], num / denom)
    return k, denom


# ---------------------------------------------------------------------------
# closed-form curvature components of the 4d model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurvatureComponents:
    """The six independent curvature components of the 4d model chart,
    indexed by coordinate pairs: R_(theta r theta r), R_(phi r phi r),
    R_(z r z r), R_(phi theta phi theta), R_(theta z theta z),
    R_(phi z phi z)."""

    theta_r: float
    phi_r: float
    z_r: float
    phi_theta: float
    theta_z: float
    phi_z: float

    def as_tuple(self):
        return (self.theta_r, self.phi_r, self.z_r,
                self.phi_theta, self.theta_z, self.phi_z)

    @property
    def max_value(self) -> float:
        return max(self.as_tuple())


def curvature_components_closed_form(profile: WarpingProfile, r: float,
                                     theta: float) -> CurvatureComponents:
    """Evaluate the six nonzero components from profile derivatives:

        R_(theta r theta r) = -sigma sigma''
        R_(phi r phi r)     = -sigma sigma'' sin^2(theta)
        R_(z r z r)         = -tau tau''
        R_(phi theta phi theta) = (1 - sigma'^2) sigma^2 sin^2(theta)
        R_(theta z theta z) = -sigma sigma' tau tau'
        R_(phi z phi z)     = -sigma sigma' tau tau' sin^2(theta)

    Exact while sigma^4 is finite; past that (r ~ 178 on the hyperbolic
    piece) raises :class:`ChartDomainError` naming the radius.
    """
    if r <= 0.0:
        raise ValueError("r must be positive")
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie in (0, pi)")
    st2 = math.sin(theta) ** 2
    try:
        (sg, sgp, sgpp, tu, tup, tupp, _), (_, k2, _, _) = \
            profile.jet_ratios(r)
        # (1 - sigma'^2) sigma^2 via the cancellation-free ratio k2
        phi_theta = k2 * sg ** 4 * st2
        theta_r = -sg * sgpp
        z_r = -tu * tupp
        theta_z = -sg * sgp * tu * tup
    except OverflowError:
        phi_theta = theta_r = z_r = theta_z = math.inf
    if not all(map(math.isfinite, (phi_theta, theta_r, z_r, theta_z))):
        raise ChartDomainError(
            f"curvature components overflow at r = {r:.17g}: sigma^4 is "
            "finite only up to r ~ 178")
    return CurvatureComponents(
        theta_r=theta_r,
        phi_r=theta_r * st2,
        z_r=z_r,
        phi_theta=phi_theta,
        theta_z=theta_z,
        phi_z=theta_z * st2,
    )


def max_plane_curvature(profile: WarpingProfile, r: float) -> float:
    """Largest sectional curvature over all tangent 2-planes at radius r.

    Every plane's curvature is a convex combination of the four principal
    ratios, so the maximum over planes equals the largest ratio.
    """
    return max(profile.curvature_ratios(r))


def adapted_components_raw(chart: MetricChart, coords: np.ndarray,
                           vecs: np.ndarray, sigma, tau) -> np.ndarray:
    """Adapted parts of the rows of ``vecs`` in an orthonormal frame adapted
    to the warped splitting, given sigma and tau at the point: along the
    last axis the radial part, the sphere part, then the axis part.  Only
    inner products of sphere parts are frame-independent.  Leading axes of
    coords, sigma and tau, and of vecs before its row axis, index a batch of
    points.  This is the one metric inner product: g(a, b) is the dot
    product of the parts of a and b."""
    vecs = np.asarray(vecs, dtype=float)
    sigma = np.asarray(sigma)[..., None]
    tau = np.asarray(tau)[..., None]
    d = chart.block_dim
    if chart.kind == CARTESIAN:
        r = np.asarray(chart.radius_of(coords))[..., None]
        # the metric is isotropic within R_MIN of the axis: there any unit
        # radial direction with sigma/r = 1 gives its inner products
        axis = r < R_MIN
        r = np.where(axis, 1.0, r)
        xhat = np.where(axis, np.eye(d)[0], coords[..., :d] / r)
        ratio = np.where(axis, 1.0, sigma / r)
        vr = (vecs[..., :d] @ xhat[..., None])[..., 0]
        a_s = ratio[..., None] * (vecs[..., :d]
                                  - vr[..., None] * xhat[..., None, :])
    else:
        vr = vecs[..., 0]
        sines = [np.sin(coords[..., j:j + 1]) for j in range(1, d - 1)]
        a_s = np.empty(vecs.shape[:-1] + (d - 1,))
        for i in range(d - 1):
            # the part along a_(i+1) is (v_(i+1) sigma) sin a_1 ... sin a_i,
            # multiplied left to right
            part = vecs[..., 1 + i] * sigma
            for sine in sines[:i]:
                part = part * sine
            a_s[..., i] = part
    az = vecs[..., d] * tau
    return np.concatenate([vr[..., None], a_s, az[..., None]], axis=-1)


def curvature_numerator(ratios, w, v) -> np.ndarray:
    """M[i, j] = R(w_i, v, w_j, v) from the adapted parts (as from
    :func:`adapted_components_raw`) of a stack of vectors w_i and of one
    vector v; R(u, v, u, v) is the 1 x 1 case.  Leading axes of w and v
    index a batch, and then each ratio broadcasts against M (shape
    (..., 1, 1)).

    Each principal ratio multiplies the Gram matrix of the planes' shadows
    on its coordinate 2-plane: rows w_r[i] v_s - v_r w_s[i] (k1), sphere
    areas |v_s|^2 W_s W_s^T - a a^T with a = W_s v_s (k2), entries
    w_r[i] v_z - v_r w_z[i] (k3) and rows w_z[i] v_s - v_z w_s[i] (k4).
    """
    k1, k2, k3, k4 = ratios
    wr, ws, wz = w[..., 0], w[..., 1:-1], w[..., -1]
    vr, vs, vz = v[..., :1], v[..., 1:-1], v[..., -1:]
    p1 = wr[..., :, None] * vs[..., None, :] - vr[..., None] * ws
    a = (ws @ vs[..., :, None])[..., 0]
    p3 = wr * vz - vr * wz
    p4 = wz[..., :, None] * vs[..., None, :] - vz[..., None] * ws
    vv = np.vecdot(vs, vs)[..., None, None]
    return (k1 * (p1 @ p1.mT)
            + k2 * (vv * (ws @ ws.mT) - a[..., :, None] * a[..., None, :])
            + k3 * (p3[..., :, None] * p3[..., None, :])
            + k4 * (p4 @ p4.mT))


# ---------------------------------------------------------------------------
# chart transforms
# ---------------------------------------------------------------------------

def _polar_map(coords: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cartesian coordinates of the polar coordinates (r, a_1..a_(d-1), z),
    x_i = r sin a_1 ... sin a_(i-1) cos a_i on the block, and the map's
    Jacobian.  Each column multiplies its derivative through the same
    prefixes r sin a_1 ... sin a_i, left to right, as the map does."""
    d = len(coords) - 1
    r, *angles = coords[:d].tolist()
    sines = [math.sin(a) for a in angles]
    cosines = [math.cos(a) for a in angles]
    prefix = [r]  # prefix[i] = r sin a_1 ... sin a_i
    for sn in sines:
        prefix.append(prefix[-1] * sn)
    jac = np.eye(d + 1)
    for k in range(d):
        if k == 0:  # d/dr: the prefixes with r replaced by 1
            dot = 1.0
        else:
            jac[k - 1, k] = prefix[k - 1] * -sines[k - 1]
            dot = prefix[k - 1] * cosines[k - 1]
        for i in range(k, d - 1):
            jac[i, k] = dot * cosines[i]
            dot = dot * sines[i]
        jac[d - 1, k] = dot
    x = [p * cs for p, cs in zip(prefix, cosines)] + [prefix[-1], coords[d]]
    return np.array(x), jac


def polar_to_cartesian(point: ChartPoint, velocity: np.ndarray | None = None):
    """Convert a polar-chart point (and optional velocity) to the Cartesian
    chart of the same warped space."""
    chart = point.chart
    if chart.kind != POLAR:
        raise ChartDomainError("polar_to_cartesian needs a polar point")
    target = MetricChart(CARTESIAN, chart.block_dim, chart.profile)
    x, jac = _polar_map(point.coords)
    new_point = ChartPoint(x, target)
    if velocity is None:
        return new_point
    return new_point, jac @ np.asarray(velocity, dtype=float)


def cartesian_to_polar(point: ChartPoint, velocity: np.ndarray | None = None):
    """Convert a Cartesian-chart point (and optional velocity) to polar."""
    chart = point.chart
    if chart.kind != CARTESIAN:
        raise ChartDomainError("cartesian_to_polar needs a cartesian point")
    target = MetricChart(POLAR, chart.block_dim, chart.profile)
    d = chart.block_dim
    x = point.coords[:d]
    r = point.radius
    if r < R_MIN:
        raise ChartDomainError("point too close to the axis for polar")
    angles = []
    for i in range(d - 1):
        tail = float(np.linalg.norm(x[i + 1:]))
        angles.append(math.atan2(tail, float(x[i])) if i < d - 2
                      else math.atan2(float(x[i + 1]), float(x[i])))
    coords = np.array([r] + angles + [point.coords[d]])
    new_point = target.point(coords)
    if velocity is None:
        return new_point
    jac = _polar_map(coords)[1]
    vel = np.linalg.solve(jac, np.asarray(velocity, dtype=float))
    return new_point, vel


# ---------------------------------------------------------------------------
# randomized nonpositivity scans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("box bounds must have equal length")
        if any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError("box has lo > hi")


@dataclass(frozen=True)
class ScanReport:
    samples: int
    seed: int
    max_curvature: float
    max_coords: tuple
    min_curvature: float
    min_coords: tuple


def default_region(chart: MetricChart, r_max: float | None = None) -> Box:
    """A sampling box respecting the chart's valid region."""
    if r_max is None:
        if chart.profile.variant == "interpolated":
            r_max = chart.profile.matching_radius + 6.0
        else:
            r_max = 5.0
    if chart.kind == CARTESIAN:
        half = r_max / math.sqrt(chart.block_dim)
        lo = [-half] * chart.block_dim + [-2.0]
        hi = [half] * chart.block_dim + [2.0]
        return Box(tuple(lo), tuple(hi))
    pad = 0.05
    lo, hi = [1e-3], [r_max]
    n_angles = chart.block_dim - 1
    for i in range(n_angles):
        last = i == n_angles - 1
        lo.append(0.0 if last else pad)
        hi.append(2.0 * math.pi if last else math.pi - pad)
    lo.append(-2.0)
    hi.append(2.0)
    return Box(tuple(lo), tuple(hi))


_SCAN_BLOCK = 4096       # sample indices evaluated per batch
_DRAW_ATTEMPTS = 64


def _scan_block(chart: MetricChart, region: Box, seed: int, start: int,
                stop: int):
    """(K, coords, errors) of the scan samples start..stop-1.

    Index i draws from its own (seed, i) Philox stream, reached by re-keying
    the block's one bit generator: a point uniform in the box, then two
    standard-normal vectors, orthonormalized in the metric; an attempt whose
    second vector keeps under 1e-14 of its squared length once projected
    off the first draws again from the same stream (attempt k re-keys and
    skips k draws).  K[j] is NaN where sample start + j raised; coords[j]
    is its last attempt's point and errors[j] the exception it raised.
    """
    lo = np.asarray(region.lo, dtype=float)
    hi = np.asarray(region.hi, dtype=float)
    at = sample_streams(seed)
    draws = np.empty((stop - start, 3, chart.dim))
    ks = np.full(stop - start, math.nan)
    errors: dict[int, ValueError] = {}
    todo = np.arange(stop - start)
    for attempt in range(_DRAW_ATTEMPTS):
        for j in todo.tolist():
            rng, row = at(start + j), draws[j]
            for _ in range(attempt + 1):
                rng.random(out=row[0])
                rng.standard_normal(out=row[1:])
        picked = draws[todo]
        points = lo + picked[:, 0] * (hi - lo)
        a, ratios, radii, finite = _adapted_vectors(chart, points,
                                                    picked[:, 1:])
        for j in np.flatnonzero(~finite):
            errors[int(todo[j])] = _overflow_error(radii[j])
        with np.errstate(over="ignore", invalid="ignore"):
            u = a[:, 0] / np.sqrt(np.vecdot(a[:, 0], a[:, 0]))[:, None]
            v = a[:, 1] - np.vecdot(u, a[:, 1])[:, None] * u
            vnorm2 = np.vecdot(v, v)
            # relative to the squared length of the second vector: rounding
            # left over from a v parallel to u scales with it
            redraw = finite & (vnorm2 < _PLANE_TOL
                               * np.vecdot(a[:, 1], a[:, 1]))
        done = np.flatnonzero(finite & ~redraw)
        planes = np.stack([u[done], v[done] / np.sqrt(vnorm2[done])[:, None]],
                          axis=1)
        k, denom = _plane_curvatures(planes, ratios[done])
        flat = ~(denom > _PLANE_TOL)
        for j, dj in zip(todo[done][flat], denom[flat]):
            errors[int(j)] = _parallel_error(dj)
        ks[todo[done]] = np.where(flat, math.nan, k)
        todo = todo[redraw]
        if not todo.size:
            break
    for j in todo:
        errors[int(j)] = DegeneratePlaneError(
            "could not draw an independent plane")
    return ks, lo + draws[:, 0] * (hi - lo), errors


def scan_nonpositive(chart: MetricChart, samples: int, seed: int,
                     region: Box | None = None) -> ScanReport:
    """Sample random (point, plane) pairs and report curvature extremes.

    Points are uniform in the region box; planes come from two
    standard-normal tangent vectors orthonormalized in the metric.  Each
    sample index has its own (seed, index) Philox stream, reached by
    re-keying one bit generator per block, so the report is a pure function
    of the seed.  Samples are evaluated in blocks through the
    principal-ratio expansion of :func:`sectional_curvature`, one radial
    jet per sample, and their outcomes are taken in index order: the
    first sample that raises (:class:`ChartDomainError` where the metric
    scales overflow, :class:`DegeneratePlaneError` for a plane that cannot
    be drawn) raises, and the first non-finite sample ends the scan with
    both extremes NaN at its coordinates.  Ties go to the lowest index.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if region is None:
        region = default_region(chart)
    if len(region.lo) != chart.dim:
        raise ValueError("region dimension does not match chart")

    best_max = (-math.inf, None)
    best_min = (math.inf, None)
    for start in range(0, samples, _SCAN_BLOCK):
        ks, coords, errors = _scan_block(chart, region, seed, start,
                                         min(start + _SCAN_BLOCK, samples))
        bad = np.flatnonzero(~np.isfinite(ks))
        if bad.size:
            j = int(bad[0])
            if j in errors:
                raise errors[j]
            # a NaN or infinite sample makes both extremes NaN at its
            # coordinates, so that no "<= tol" check can pass the scan
            where = tuple(coords[j].tolist())
            return ScanReport(samples=samples, seed=seed,
                              max_curvature=math.nan, max_coords=where,
                              min_curvature=math.nan, min_coords=where)
        i_max, i_min = int(np.argmax(ks)), int(np.argmin(ks))
        if ks[i_max] > best_max[0]:
            best_max = (float(ks[i_max]), tuple(coords[i_max].tolist()))
        if ks[i_min] < best_min[0]:
            best_min = (float(ks[i_min]), tuple(coords[i_min].tolist()))
    return ScanReport(samples=samples, seed=seed,
                      max_curvature=best_max[0], max_coords=best_max[1],
                      min_curvature=best_min[0], min_coords=best_min[1])
