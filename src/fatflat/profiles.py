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
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class BumpSpec:
    """Parameters of the bump exp(-k^2/(k^2 - x^2)) on (-k, k)."""

    k: float

    def __post_init__(self):
        if not self.k >= 1.0:
            raise ValueError(f"bump width k must be >= 1, got {self.k}")


def bump_f(spec: BumpSpec, x: float) -> float:
    """Bump value at x; zero outside [-k, k], maximum exp(-1) at 0."""
    k = spec.k
    u = k * k - x * x
    if u <= 0.0:
        return 0.0
    return math.exp(-k * k / u)


def _bump_jet(k: float, x: float) -> tuple[float, float]:
    """(bump value, bump derivative) at x from one exp."""
    u = k * k - x * x
    if u <= 0.0:
        return 0.0, 0.0
    f = math.exp(-k * k / u)
    return f, f * (-2.0 * k * k * x / (u * u))


def bump_f_prime(spec: BumpSpec, x: float) -> float:
    return _bump_jet(spec.k, x)[1]


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
    """Array twin of :func:`_bump_jet`: (values, derivatives) from one exp."""
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
# is cross-checked against an adaptive-Simpson oracle in the tests.  The scalar path
# (_F_fast, rho) reads Python-list copies of the table and Python-float
# nodes, so that no numpy scalar reaches the radial jet; the array path
# (_F_fast_many, rho_many) reads the arrays.

_GL_NODES, _GL_WEIGHTS = leggauss(12)
_GL_PAIRS = tuple(zip(_GL_NODES.tolist(), _GL_WEIGHTS.tolist()))
_N_PANELS = 4096


@lru_cache(maxsize=8)
def _bump_table(k: float):
    """(edges, cum, edges as a list, cum as a list) of the panel table."""
    edges = np.linspace(-k, k, _N_PANELS + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    spec = BumpSpec(k)
    pts = mid[:, None] + half * _GL_NODES[None, :]
    vals = bump_f_many(spec, pts.ravel()).reshape(pts.shape)
    panel = half * vals @ _GL_WEIGHTS
    cum = np.concatenate([[0.0], np.cumsum(panel)])
    return edges, cum, edges.tolist(), cum.tolist()


def _F_fast(k: float, x: float) -> float:
    if x <= -k:
        return 0.0
    edges, cum = _bump_table(k)[2:]
    if x >= k:
        return cum[-1]
    i = min(bisect_right(edges, x) - 1, _N_PANELS - 1)
    a = edges[i]
    halfw = 0.5 * (x - a)
    midp = a + halfw
    kk = k * k
    acc = 0.0
    for node, w in _GL_PAIRS:
        t = midp + halfw * node
        u = kk - t * t
        if u > 0.0:
            acc += w * math.exp(-kk / u)
    return cum[i] + halfw * acc


def _F_fast_many(k: float, xs: np.ndarray) -> np.ndarray:
    edges, cum = _bump_table(k)[:2]
    xs = np.asarray(xs, dtype=float)
    xc = np.clip(xs, -k, k)
    idx = np.clip(np.searchsorted(edges, xc, side="right") - 1, 0,
                  _N_PANELS - 1)
    a = edges[idx]
    halfw = 0.5 * (xc - a)
    pts = (a + halfw)[:, None] + halfw[:, None] * _GL_NODES[None, :]
    vals = bump_f_many(BumpSpec(k), pts.ravel()).reshape(pts.shape)
    return cum[idx] + halfw * (vals @ _GL_WEIGHTS)


def rho(spec: BumpSpec, r: float) -> tuple[float, float, float]:
    """Smoothed step (value, first, second derivative) at radius r.

    rho ramps from 0 to 1 as r crosses the window
    [1/k, 2k + 1/k]; it is identically 0 and 1 outside.
    """
    k = spec.k
    shift = k + 1.0 / k
    y = r - shift
    if y <= -k:
        return 0.0, 0.0, 0.0
    if y >= k:
        return 1.0, 0.0, 0.0
    total = _bump_table(k)[3][-1]
    f, f1 = _bump_jet(k, y)
    return _F_fast(k, y) / total, f / total, f1 / total


def rho_many(spec: BumpSpec, rs: np.ndarray):
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
        """(rho, rho', rho'') at radius r >= 0."""
        if r < 0.0:
            raise ValueError(f"radius must be nonnegative, got {r}")
        if self.variant == "flat":
            return 0.0, 0.0, 0.0
        if self.variant == "hyperbolic":
            return 1.0, 0.0, 0.0
        return rho(self.bump, r)

    @staticmethod
    def _jet(r: float, p: float, p1: float, p2: float):
        if p1 == 0.0 and p == 0.0:
            return r, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0
        sh, ch = math.sinh(r), math.cosh(r)
        if p1 == 0.0 and p == 1.0:
            return sh, ch, sh, ch, sh, ch, cosh_minus_one(r)
        return _ramp_blend(r, p, p1, p2, sh, ch, sinh_minus_linear(r),
                           cosh_minus_one(r))

    def jet(self, r: float):
        """(sigma, sigma', sigma'', tau, tau', tau'', sigma' - 1) at radius
        r >= 0, from one rho evaluation; like every scalar jet here, Python
        floats on every piece and for any real r."""
        r = float(r)
        return self._jet(r, *self.rho_jet(r))

    def jet_ratios(self, r: float):
        """(jet(r), curvature_ratios(r)) from one rho evaluation."""
        r = float(r)
        return self._jet_ratios(r, self.rho_jet(r))

    @staticmethod
    def _jet_ratios(r: float, step):
        """jet_ratios(r) from the step jet ``step`` = rho_jet(r)."""
        jet = WarpingProfile._jet(r, *step)
        return jet, _piece_ratios(*step) or _ramp_ratios(jet)

    def sigma_tau(self, r: float):
        """(sigma, sigma', sigma'', tau, tau', tau'') at radius r >= 0."""
        r = float(r)
        return self._jet(r, *self.rho_jet(r))[:6]

    def sigma_tau_many(self, rs: np.ndarray):
        rs = np.asarray(rs, dtype=float)
        if rs.ndim == 0:  # as a batch of one, then 0-d arrays like the input
            return tuple(c.reshape(()) for c in self.sigma_tau_many(rs[None]))
        if np.any(rs < 0.0):
            raise ValueError("radii must be nonnegative")
        if self.variant == "flat":
            one = np.ones_like(rs)
            zero = np.zeros_like(rs)
            return rs.copy(), one, zero, one.copy(), zero.copy(), zero.copy()
        sh, ch = np.sinh(rs), np.cosh(rs)
        if self.variant == "hyperbolic":
            return sh, ch, sh.copy(), ch.copy(), sh.copy(), ch.copy()
        p, p1, p2 = rho_many(self.bump, rs)
        sml = sh - rs
        small = rs < 0.75
        u = rs[small] * rs[small]
        sml[small] = _series_over_r3(u) * u * rs[small]
        cm1 = 2.0 * np.sinh(0.5 * rs) ** 2
        return _ramp_blend(rs, p, p1, p2, sh, ch, sml, cm1)[:6]

    def curvature_ratios(self, r: float) -> tuple[float, float, float, float]:
        """Principal sectional curvatures at radius r > 0.

        Returns (sphere-radial, sphere-sphere, z-radial, sphere-z), i.e.
        (-sigma''/sigma, (1 - sigma'^2)/sigma^2, -tau''/tau,
        -sigma' tau'/(sigma tau)).  All four are <= 0 for a convex profile.
        """
        r = float(r)
        step = self.rho_jet(r)
        # no jet on the pure pieces, whose sinh overflows past r = 710
        return _piece_ratios(*step) or _ramp_ratios(self._jet(r, *step))


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


def verify_profile(profile: WarpingProfile, grid_max: float = 60.0,
                   grid_step: float = 1e-3,
                   slack: float = -1e-10) -> PropertyReport:
    """Check the seven order/convexity properties of a profile on a grid.

    Each check passes when its defining quantity stays >= slack at every
    grid point; the report records the worst value and where it occurred.
    """
    if grid_max <= 0 or grid_step <= 0:
        raise ValueError("grid bounds must be positive")
    n = int(round(grid_max / grid_step))
    rs = np.linspace(0.0, n * grid_step, n + 1)
    sigma, sigma_p, sigma_pp, tau, tau_p, tau_pp = profile.sigma_tau_many(rs)
    if profile.variant == "interpolated":
        p, _, p2 = rho_many(profile.bump, rs)
    else:
        p = np.full_like(rs, 1.0 if profile.variant == "hyperbolic" else 0.0)
        p2 = np.zeros_like(rs)

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
