"""Warping profiles: compactly supported bump, its integral, and the
sigma/tau pair interpolating between a flat tube and a hyperbolic cone.

The interpolated profile glues sigma(r) = r near the axis to
sigma(r) = sinh(r) outside a matching radius, through a smoothed step
built from the integral of a C-infinity bump.  That integral is read from
a table built once per bump width: one Taylor polynomial per panel, so a
query evaluates no exp for it, and the scalar and array paths agree bit
for bit.  All order and convexity properties required for nonpositive
curvature are checked numerically on a grid by verify_profile.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class BumpSpec:
    """Parameters of the bump exp(-k^2/(k^2 - x^2)) on (-k, k).  Its
    derivative divides by u^2 with u = k^2 - x^2 <= k^2, so k runs from 1
    to about 1.158e77, where k^4 leaves the double range."""

    k: float

    def __post_init__(self):
        k = float(self.k)
        if not (k >= 1.0 and math.isfinite((k * k) * (k * k))):
            raise ValueError(
                f"bump width k must be >= 1 with k^4 finite, got {self.k}")


def _bump_jet_many(k: float, xs: np.ndarray):
    """(bump values, derivatives) at xs from one exp."""
    u = k * k - xs * xs
    inside = u > 0.0
    f = np.zeros_like(xs)
    df = np.zeros_like(xs)
    ui = u[inside]
    fi = np.exp(-k * k / ui)
    f[inside] = fi
    df[inside] = fi * (-2.0 * k * k * xs[inside] / (ui * ui))
    return f, df


# ---------------------------------------------------------------------------
# fast evaluation path: one polynomial per panel
#
# Scans and flow integration evaluate F(x), the bump's integral from -k,
# at millions of points.  The table cuts [-k, 0] into panels and keeps,
# per panel [a, b], the Taylor polynomial at a of the integral over
# [a, x] (from the series of g = -k^2/((k - t)(k + t)) and the recurrence
# for exp g), and the mass before a as a double-double (cum, lo).  So
# F(x) = cum + (lo + s Q(s)) with s = (x - a)/unit: no exp, and exactly
# cum + lo at the left edge.  cum and lo of the next panel are the two-sum
# of cum and the part at x = b, so F is continuous across every edge in
# floats, and the masses are summed without rounding error.  The bump is
# even, so F(x) = total - F(-x) on (0, k].
#
# The panels are k/2048 wide, but narrower near -k, where log f = g rises
# steeply: there they are spaced evenly in k/(t + k), so that g rises by
# at most _RISE across each, and the first of the _TERMS Taylor terms left
# out is below 5e-17 of the panel's part.  The first panel, below
# t + k = k/_W_MAX, has zero mass in doubles (exp(g) < 1e-325 there) and
# zero coefficients.  The scalar path is one closure per profile (_radial_jet),
# built once per (variant, k): it binds Python-list copies of the table, so
# that no numpy scalar and no cache lookup reaches the radial jet.  The
# array path (_F_fast_many, rho_many) evaluates the same coefficients with
# numpy's elementwise * and + in the same order, one column at a time, so
# that the two paths agree bit for bit, no BLAS routine runs, and the
# working memory is a few arrays of the batch's length.

_N_UNIFORM = 2048
_RISE = 0.5
_TERMS = 14
_W_MAX = 1500.0


@lru_cache(maxsize=8)
def _bump_table(k: float):
    """(edges, cum, coef, unit) of the panel table over [-k, 0]: per panel,
    the mass before it (cum, with the final mass F(0) last) and the
    coefficient columns (lo, q_0, ..., q_13) of lo + s Q(s), s in units of
    unit, the power of two at or above k/2048 (so that the terms stay in
    range for every k, and s/unit is exact).  The edges: t + k = k/w for
    w = _W_MAX, ... down in steps of 2 _RISE, up to the first multiple of
    k/2048 past which a k/2048 panel keeps g's rise below _RISE."""
    first = math.ceil(math.sqrt(_N_UNIFORM / (2.0 * _RISE)))
    w = np.arange(_N_UNIFORM / first + 2.0 * _RISE, _W_MAX, 2.0 * _RISE)
    edges = k * np.concatenate([[0.0], 1.0 / w[::-1], np.arange(
        first, _N_UNIFORM + 1) / _N_UNIFORM]) - k
    unit = math.ldexp(1.0, math.frexp(k / _N_UNIFORM)[1])
    a, width = edges[1:-1], np.diff(edges[1:])
    # g's Taylor terms at a, times width^j: -(kp/2)(pw)^j - (kq/2)(-qw)^j
    # with p = 1/(k - a), q = 1/(k + a); and those of exp(g - g(a))
    kp, kq = k / (k - a), k / (k + a)
    pw, qw = width / (k - a), -width / (k + a)
    h = width / unit
    left, right, g = -0.5 * kp, -0.5 * kq, [None]
    for _ in range(1, _TERMS):
        left, right = left * pw, right * qw
        g.append(left + right)
    e = [np.ones_like(a)]
    for m in range(1, _TERMS):
        acc = g[1] * e[m - 1]
        for j in range(2, m + 1):
            acc = acc + j * g[j] * e[m - j]
        e.append(acc / m)
    coef = np.zeros((_TERMS + 1, len(a) + 1))
    scale = np.exp(-kp * kq) * unit
    for m in range(_TERMS):
        coef[m + 1, 1:] = scale * e[m] / (m + 1)
        scale = scale / h
    acc = coef[_TERMS, 1:]
    for c in coef[_TERMS - 1:0:-1]:
        acc = acc * h + c[1:]
    cum, lo, hi, low = [0.0, 0.0], [0.0, 0.0], 0.0, 0.0
    for v in (acc * h).tolist():
        part = v + low
        s = hi + part
        b = s - hi
        low = (hi - (s - b)) + (part - b)
        hi = s
        cum.append(hi)
        lo.append(low)
    coef[0] = lo[:-1]
    return edges, np.array(cum), coef, unit


def _F_fast_many(k: float, xs: np.ndarray) -> np.ndarray:
    """F at xs, as _radial_jet's F computes it, bit for bit."""
    edges, cum, coef, unit = _bump_table(k)
    xs = np.asarray(xs, dtype=float)
    z = np.clip(-np.abs(xs), -k, 0.0)
    idx = np.searchsorted(edges[:-1], z, side="right") - 1
    s = (z - edges[idx]) / unit
    acc = coef[-1][idx]
    for c in coef[-2:0:-1]:
        acc *= s
        acc += c[idx]
    acc *= s
    acc += coef[0][idx]
    acc += cum[idx]
    return np.where(xs > 0.0, 2.0 * cum[-1] - acc, acc)


def rho_many(spec: BumpSpec, rs: np.ndarray):
    """(rho, rho', rho'') at the radii rs, an array each; rho is the scalar
    jet's bit for bit."""
    k = spec.k
    y = np.asarray(rs, dtype=float) - (k + 1.0 / k)
    total = 2.0 * _bump_table(k)[1][-1]
    f, df = _bump_jet_many(k, y)
    return _F_fast_many(k, y) / total, f / total, df / total


# ---------------------------------------------------------------------------
# stable small-r combinations of sinh/cosh used by profile and metric code

# sum_{m>=1} r^(2m+1)/(2m+1)! = r^3 * sum_m _SERIES[m-1] * (r^2)^(m-1)
_SERIES = (1 / 6, 1 / 120, 1 / 5040, 1 / 362880, 1 / 39916800,
           1 / 6227020800, 1 / 1307674368000, 1 / 355687428096000,
           1 / 121645100408832000)


def _series_over_r3(u):
    """(sinh(r) - r)/r^3 as a Horner sum in u = r^2, accurate for r < 0.75;
    plain floats and arrays alike."""
    acc = _SERIES[-1]
    for c in reversed(_SERIES[:-1]):
        acc = acc * u + c
    return acc


def sinh_minus_linear(r: float) -> float:
    """sinh(r) - r without cancellation at small r."""
    if r < 0.75:
        u = r * r
        return _series_over_r3(u) * u * r
    return math.sinh(r) - r


def cosh_minus_one(r: float) -> float:
    s = math.sinh(0.5 * r)
    return 2.0 * s * s


def sinh_minus_linear_over_r3(r: float) -> float:
    """(sinh(r) - r)/r^3, finite limit 1/6 at r = 0."""
    if r == 0.0:
        return 1.0 / 6.0
    if r < 0.75:
        return _series_over_r3(r * r)
    return (math.sinh(r) - r) / (r * r * r)


def _ramp_blend(r, p, p1, p2, sh, ch, sml, cm1):
    """The radial jet (sigma, sigma', sigma'', tau, tau', tau'', sigma' - 1)
    of sigma = r + rho (sinh r - r), tau = 1 + rho (cosh r - 1).

    Takes the step jet (p, p1, p2) = (rho, rho', rho''), sh = sinh r,
    ch = cosh r, sml = sinh r - r and cm1 = cosh r - 1 as the caller
    computed them, for plain floats and arrays alike; sigma' - 1 carries
    no cancellation.
    """
    return (r + p * sml,
            1.0 + p1 * sml + p * cm1,
            p2 * sml + 2.0 * p1 * cm1 + p * sh,
            1.0 + p * cm1,
            p1 * cm1 + p * sh,
            p2 * cm1 + 2.0 * p1 * sh + p * ch,
            p1 * sml + p * cm1)


def _ramp_ratios(jet):
    """Principal curvature ratios from a ramp jet (see curvature_ratios)."""
    sigma, _, sigma_pp, tau, tau_p, tau_pp, sigma_p_m1 = jet
    # sigma' rebuilt from sigma' - 1: the jet's own sigma' is summed in
    # another order and may differ in the last bit
    sigma_p = 1.0 + sigma_p_m1
    return (-sigma_pp / sigma,
            -sigma_p_m1 * (sigma_p + 1.0) / (sigma * sigma),
            -tau_pp / tau,
            -sigma_p * tau_p / (sigma * tau))


# exact principal ratios of the flat (rho = 0) and hyperbolic (rho = 1) pieces
_PIECE_RATIOS = {0.0: (0.0, 0.0, 0.0, 0.0), 1.0: (-1.0, -1.0, -1.0, -1.0)}


def _piece_ratios(p, p1, _):
    """The exact ratios when the step jet puts r on the flat or hyperbolic
    piece, else None."""
    return _PIECE_RATIOS.get(p) if p1 == 0.0 else None


def _flat_jet(r):
    return r, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0


def _hyperbolic_jet(r):
    sh, ch, s = math.sinh(r), math.cosh(r), math.sinh(0.5 * r)
    return sh, ch, sh, ch, sh, ch, 2.0 * s * s


def _step_jet(r, p, p1, p2):
    """The radial jet at r from the step jet (p, p1, p2) there: a piece jet
    where the step is flat or hyperbolic, else the ramp blend (one sinh r)."""
    if p1 == 0.0 and p in (0.0, 1.0):
        return (_hyperbolic_jet if p else _flat_jet)(r)
    sh, s = math.sinh(r), math.sinh(0.5 * r)
    sml = sh - r if r >= 0.75 else _series_over_r3(r * r) * (r * r) * r
    return _ramp_blend(r, p, p1, p2, sh, math.cosh(r), sml, 2.0 * s * s)


@lru_cache(maxsize=8)
def _radial_jet(variant: str, k: float | None):
    """(F, radial) of one profile: radial(r, jet=True) is the step jet
    (rho, rho', rho'') at r >= 0 and the radial jet (WarpingProfile.jet), or
    False and no sinh if ``jet`` is false; F is the table's bump integral."""
    if variant != "interpolated":
        step, piece = (((0.0, 0.0, 0.0), _flat_jet) if variant == "flat"
                       else ((1.0, 0.0, 0.0), _hyperbolic_jet))

        def radial(r, jet=True):
            if r < 0.0:
                raise ValueError(f"radius must be nonnegative, got {r}")
            return step, jet and piece(r)

        return None, radial
    edges, cum, coef, unit = _bump_table(k)
    n, edges, cum, rows = len(edges) - 1, edges.tolist(), cum.tolist(), \
        coef.T.tolist()
    total, kk, dkk, shift = 2.0 * cum[-1], k * k, -2.0 * k * k, k + 1.0 / k
    exp = math.exp

    def F(x):
        z = -x if x > 0.0 else x
        if z <= -k:
            v = 0.0
        else:
            i = bisect_right(edges, z, 0, n) - 1  # NaN: the last panel
            s = (z - edges[i]) / unit
            lo, c0, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, c12, c13 = \
                rows[i]
            v = cum[i] + (lo + s * (c0 + s * (c1 + s * (c2 + s * (c3 + s * (
                c4 + s * (c5 + s * (c6 + s * (c7 + s * (c8 + s * (c9 + s * (
                    c10 + s * (c11 + s * (c12 + s * c13))))))))))))))
        return total - v if x > 0.0 else v

    def radial(r, jet=True):
        if r < 0.0:
            raise ValueError(f"radius must be nonnegative, got {r}")
        y = r - shift
        if y <= -k:
            return (0.0, 0.0, 0.0), jet and _flat_jet(r)
        if y >= k:
            return (1.0, 0.0, 0.0), jet and _hyperbolic_jet(r)
        u = kk - y * y  # the bump and its derivative from one exp
        f = 0.0 if u <= 0.0 else exp(-kk / u)
        p, p1 = F(y) / total, f / total
        p2 = (0.0 if u <= 0.0 else f * (dkk * y / (u * u))) / total
        return (p, p1, p2), jet and _step_jet(r, p, p1, p2)

    return F, radial


# ---------------------------------------------------------------------------

_VARIANTS = ("flat", "hyperbolic", "interpolated")


@dataclass(frozen=True)
class WarpingProfile:
    """A (sigma, tau) warping pair.

    variant 'flat' is sigma = r, tau = 1; 'hyperbolic' is sinh/cosh;
    'interpolated' blends the two through the smoothed step of a BumpSpec.
    Convexity of the blend is only guaranteed for k >= 18; smaller k is
    allowed so that the failure mode itself can be measured.
    """

    variant: str
    bump: BumpSpec | None = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown profile variant {self.variant!r}")
        if self.variant == "interpolated" and self.bump is None:
            raise ValueError("interpolated profile needs a BumpSpec")

    def _radial(self, r, jet=True):
        # the first call binds the profile's radial jet in this method's place
        radial = _radial_jet(self.variant, getattr(self.bump, "k", None))[1]
        object.__setattr__(self, "_radial", radial)
        return radial(r, jet)

    def __reduce__(self):  # from the fields: the bound jet does not pickle
        return type(self), (self.variant, self.bump)

    @classmethod
    def flat(cls) -> "WarpingProfile":
        return cls("flat")

    @classmethod
    def hyperbolic(cls) -> "WarpingProfile":
        return cls("hyperbolic")

    @classmethod
    def interpolated(cls, k: float = 19.0) -> "WarpingProfile":
        return cls("interpolated", BumpSpec(k))

    @property
    def matching_radius(self) -> float:
        """Radius beyond which the profile is exactly hyperbolic."""
        if self.variant != "interpolated":
            raise ValueError("matching radius only defined for interpolated")
        return 2.0 * self.bump.k + 1.0

    @property
    def tube_radius(self) -> float:
        """Radius below which the metric is exactly flat (1/matching_radius)."""
        return 1.0 / self.matching_radius

    def rho_jet(self, r: float) -> tuple[float, float, float]:
        """(rho, rho', rho'') at r >= 0, 0 before the window [1/k, 2k + 1/k]
        and 1 after it; evaluates no sinh."""
        return self._radial(r, False)[0]

    def jet(self, r: float):
        """(sigma, sigma', sigma'', tau, tau', tau'', sigma' - 1) at radius
        r >= 0, from one call of the profile's radial jet; like every scalar
        jet here, Python floats on every piece and for any real r."""
        return self._radial(float(r))[1]

    def jet_ratios(self, r: float):
        """(jet(r), curvature_ratios(r)) from one radial jet."""
        step, jet = self._radial(float(r))
        return jet, _piece_ratios(*step) or _ramp_ratios(jet)

    def sigma_tau(self, r: float):
        """(sigma, sigma', sigma'', tau, tau', tau'') at radius r >= 0."""
        return self._radial(float(r))[1][:6]

    def _jet_many(self, rs: np.ndarray):
        """(step jet, sigma_tau jet) as arrays at every radius of a 1-d
        rs >= 0, from one step; elementwise as rho_many is, so the bits do
        not depend on the BLAS thread count and the working memory is a few
        arrays of len(rs)."""
        one, zero = np.ones_like(rs), np.zeros_like(rs)
        if self.variant == "flat":
            return (zero, zero, zero), (rs.copy(), one, zero, one.copy(),
                                        zero.copy(), zero.copy())
        sh, ch = np.sinh(rs), np.cosh(rs)
        if self.variant == "hyperbolic":
            return (one, zero, zero), (sh, ch, sh.copy(), ch.copy(),
                                       sh.copy(), ch.copy())
        step = p, p1, p2 = rho_many(self.bump, rs)
        sml = sh - rs
        small = rs < 0.75
        u = rs[small] * rs[small]
        sml[small] = _series_over_r3(u) * u * rs[small]
        cm1 = 2.0 * np.sinh(0.5 * rs) ** 2
        return step, _ramp_blend(rs, p, p1, p2, sh, ch, sml, cm1)[:6]

    def curvature_ratios(self, r: float) -> tuple[float, float, float, float]:
        """Principal sectional curvatures at radius r > 0.

        Returns (sphere-radial, sphere-sphere, z-radial, sphere-z), i.e.
        (-sigma''/sigma, (1 - sigma'^2)/sigma^2, -tau''/tau,
        -sigma' tau'/(sigma tau)).  All four are <= 0 for a convex profile.
        """
        step = self._radial(r := float(r), False)[0]
        # no jet on the pure pieces, whose sinh overflows past r = 710
        return _piece_ratios(*step) or _ramp_ratios(_step_jet(r, *step))


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProfileCheck:
    name: str
    passed: bool
    worst_value: float
    worst_location: float


@dataclass(frozen=True)
class PropertyReport:
    variant: str
    k: float | None
    grid_min: float
    grid_max: float
    grid_step: float
    slack: float
    checks: tuple[ProfileCheck, ...] = field(default_factory=tuple)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _first_overflow(profile: WarpingProfile, rs: np.ndarray) -> float | None:
    """The first radius of the ascending rs where the scalar jet overflows
    (its sinh or cosh past r = 710.47...), or None."""
    def overflows(r):
        try:
            profile.sigma_tau(r)
        except OverflowError:
            return True
        return False

    i = bisect_left(rs, True, key=overflows)
    return float(rs[i]) if i < len(rs) else None


def verify_profile(profile: WarpingProfile, grid_max: float = 60.0,
                   grid_step: float = 1e-3,
                   slack: float = -1e-10) -> PropertyReport:
    """Check the seven order/convexity properties of a profile on a grid.

    Each check passes when its defining quantity stays >= slack at every
    grid point; the report records the worst value and where it occurred.
    A grid past the profile's range, where the scalar jet's sinh or cosh
    overflows (r > 710.47...), raises ValueError naming its first radius
    there, before the array jet turns those radii into inf and NaN.
    """
    if grid_max <= 0 or grid_step <= 0:
        raise ValueError("grid bounds must be positive")
    n = int(round(grid_max / grid_step))
    rs = np.linspace(0.0, n * grid_step, n + 1)
    if (r := _first_overflow(profile, rs)) is not None:
        raise ValueError(f"grid radius r = {r!r} is past the profile's "
                         "range: sinh or cosh overflows there")
    (p, _, p2), jet = profile._jet_many(rs)
    sigma, sigma_p, sigma_pp, tau, tau_p, tau_pp = jet

    quantities = (
        ("sigma_nonneg", sigma),
        ("tau_nonneg", tau),
        ("sigma_slope_ge_one", sigma_p - 1.0),
        ("tau_slope_nonneg", tau_p),
        ("sigma_convex", sigma_pp),
        ("tau_convex", tau_pp),
        ("step_convexity_margin", p2 + p),
    )
    checks = []
    for name, q in quantities:
        i = int(np.argmin(q))
        worst = float(q[i])
        checks.append(ProfileCheck(name, worst >= slack, worst, float(rs[i])))
    k = profile.bump.k if profile.bump is not None else None
    return PropertyReport(profile.variant, k, 0.0, float(rs[-1]), grid_step,
                          slack, tuple(checks))
