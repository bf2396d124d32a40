"""Warping profiles: compactly supported bump, its integral, and the
sigma/tau pair interpolating between a flat tube and a hyperbolic cone.

The interpolated profile glues sigma(r) = r near the axis to
sigma(r) = sinh(r) outside a matching radius, through a smoothed step
built from the integral of a C-infinity bump.  All order and convexity
properties required for nonpositive curvature are checked numerically on
a grid by verify_profile.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


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


def bump_f(spec: BumpSpec, x: float) -> float:
    """Bump value at x; zero outside [-k, k], maximum exp(-1) at 0."""
    k = spec.k
    u = k * k - x * x
    if u <= 0.0:
        return 0.0
    return math.exp(-k * k / u)


def bump_f_prime(spec: BumpSpec, x: float) -> float:
    k = spec.k
    u = k * k - x * x
    return 0.0 if u <= 0.0 else bump_f(spec, x) * (-2.0 * k * k * x / (u * u))


def bump_f_many(spec: BumpSpec, xs: np.ndarray) -> np.ndarray:
    k = spec.k
    xs = np.asarray(xs, dtype=float)
    u = k * k - xs * xs
    inside = u > 0.0
    out = np.zeros_like(xs)
    # evaluate only strictly inside the support to avoid 1/0 warnings
    ui = u[inside]
    out[inside] = np.exp(-k * k / ui)
    return out


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
# fast evaluation path: cumulative fixed-order panels
#
# Scans and flow integration evaluate F at millions of points; adaptive
# quadrature per call is far too slow there.  A cumulative table of
# 12-node Gauss panels gives machine-accurate values in O(1) per query and
# is cross-checked against an adaptive-Simpson oracle in the tests.  The
# scalar path is one closure per profile (_radial_jet), built once per
# (variant, k): it binds Python-list copies of the table, Python-float nodes
# and math.exp, so that no numpy scalar and no cache lookup reaches the
# radial jet; the array path (_F_fast_many, rho_many) reads the arrays.
#
# The array path evaluates and weights its panels only in _panel_sums, per
# fixed block of 4096 rows counted from row 0, on the calling thread: the
# block's (rows x 12) nodes, their bump values and one BLAS product, so
# that working memory is bounded by the block, not the batch.  One product
# over a long batch would let BLAS split the rows across worker threads:
# the split changes the last bit of some sums with the thread count, and a
# woken worker spins on for tens of milliseconds after it.  A lone final
# row joins the block before it, as a one-row product takes another BLAS
# routine and rounds differently.

_GL_NODES, _GL_WEIGHTS = leggauss(12)
_GL_PAIRS = tuple(zip(_GL_NODES.tolist(), _GL_WEIGHTS.tolist()))
_N_PANELS = 4096
_PANEL_BLOCK = 4096


def _panel_sums(values, mid=None, half=None) -> np.ndarray:
    """values @ _GL_WEIGHTS for the (n, 12) node values of n panels, summed
    in row blocks [0, 4096), [4096, 8192), ... with a lone last row merged
    into the block before it, so that the bits depend only on the rows.

    Given the panel midpoints mid and half-widths half (one, or one per
    panel), values is instead the function that gives the node values at
    given points: the nodes mid + half * _GL_NODES are then built and
    evaluated one block at a time, and no (n, 12) array exists."""
    if mid is None:
        n, block = len(values), values.__getitem__
    else:
        n, half = len(mid), np.broadcast_to(half, mid.shape)

        def block(rows):
            return values(mid[rows, None] + half[rows, None] * _GL_NODES)

    out = np.empty(n)
    bounds = [0, *range(_PANEL_BLOCK, n - 1, _PANEL_BLOCK), n]
    for a, b in zip(bounds, bounds[1:]):
        out[a:b] = block(slice(a, b)) @ _GL_WEIGHTS
    return out


@lru_cache(maxsize=8)
def _bump_table(k: float):
    """(edges, cum, edges as a list, cum as a list) of the panel table."""
    edges = np.linspace(-k, k, _N_PANELS + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    spec = BumpSpec(k)
    panel = _panel_sums(lambda pts: half * bump_f_many(spec, pts), mid, half)
    cum = np.concatenate([[0.0], np.cumsum(panel)])
    return edges, cum, edges.tolist(), cum.tolist()


def _F_fast_many(k: float, xs: np.ndarray) -> np.ndarray:
    edges, cum = _bump_table(k)[:2]
    xs = np.asarray(xs, dtype=float)
    xc = np.clip(xs, -k, k)
    idx = np.clip(np.searchsorted(edges, xc, side="right") - 1, 0,
                  _N_PANELS - 1)
    a = edges[idx]
    halfw = 0.5 * (xc - a)
    spec = BumpSpec(k)
    sums = _panel_sums(lambda pts: bump_f_many(spec, pts), a + halfw, halfw)
    return cum[idx] + halfw * sums


def rho_many(spec: BumpSpec, rs: np.ndarray):
    """(rho, rho', rho'') at the radii rs, an array each.  The panel nodes
    are evaluated and summed in fixed 4096-row blocks on the calling thread
    (_panel_sums), so the bits do not depend on the BLAS thread count and
    the working memory beyond a few arrays of len(rs) is one block."""
    k = spec.k
    y = np.asarray(rs, dtype=float) - (k + 1.0 / k)
    total = _bump_table(k)[1][-1]
    val = _F_fast_many(k, y) / total
    val[y >= k] = 1.0
    f, df = _bump_jet_many(k, y)
    return val, f / total, df / total


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
    edges, cum = _bump_table(k)[2:]
    total, kk, dkk, shift = cum[-1], k * k, -2.0 * k * k, k + 1.0 / k
    exp = math.exp

    def F(x):
        if x <= -k:
            return 0.0
        if x >= k:
            return total
        i = bisect_right(edges, x) - 1  # below the last edge, k
        a = edges[i]
        halfw = 0.5 * (x - a)
        midp = a + halfw
        acc = 0.0
        for node, w in _GL_PAIRS:
            t = midp + halfw * node
            u = kk - t * t
            if u > 0.0:
                acc += w * exp(-kk / u)
        return cum[i] + halfw * acc

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
        rs >= 0, from one step; blocked as rho_many is, so the bits do not
        depend on the BLAS thread count and the working memory is bounded."""
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
