"""Warping-profile tests: bump function, cumulative mass, ramp, grid checks.

Regression constants below are frozen from an independent quadrature oracle
(composite Gauss-Legendre with compensated summation, re-run in-test) and
from dense brute-force scans at a 1e-6 grid; the adaptive-Simpson oracle
below must agree with them independently, and the package's panel table
with it.  A 40-digit mpmath integral is the oracle for the table's last
bits.
"""

import ast
import copy
import dataclasses
import functools
import hashlib
import inspect
import math
import os
import pickle
import subprocess
import sys
import threading
import time
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.optimize import minimize_scalar

from fatflat import geometry, profiles
from fatflat.profiles import BumpSpec, WarpingProfile

from conftest import assert_close, largest_bump_width

# total bump mass, frozen from gauss_total_mass(k) (10^4 panels, 12 nodes);
# bitwise-identical to a 50-digit tanh-sinh quadrature rounded to double
FROZEN_TOTAL_MASS = {
    1.0: 0.4439938161680794,
    2.0: 0.8879876323361588,
    18.0: 7.99188869102543,
    19.0: 8.43588250719351,
}

# minimum of (ramp'' + ramp) for k=1 on np.arange(1.0, 3.0, 1e-6),
# and its parabolic refinement (minimize_scalar, xatol 1e-12)
UNIT_RAMP_MIN_GRID = -0.8124639048799284
UNIT_RAMP_ARGMIN_GRID = 2.756643999855487
UNIT_RAMP_MIN_REFINED = -0.8124639048848018
UNIT_RAMP_ARGMIN_REFINED = 2.7566436111799684
# worst value reported by verify_profile(k=1) on grid [0, 20], step 1e-4
UNIT_RAMP_MIN_COARSE = -0.8124638435465542


def bump_f(spec: BumpSpec, x: float) -> float:
    """Oracle: the bump at x; zero outside [-k, k], maximum exp(-1) at 0."""
    k = spec.k
    u = k * k - x * x
    if u <= 0.0:
        return 0.0
    return math.exp(-k * k / u)


def bump_f_prime(spec: BumpSpec, x: float) -> float:
    """Oracle: the bump's derivative at x."""
    k = spec.k
    u = k * k - x * x
    return 0.0 if u <= 0.0 else bump_f(spec, x) * (-2.0 * k * k * x / (u * u))


def gauss_total_mass(k: float, panels: int = 10_000, nodes: int = 12) -> float:
    """Independent oracle: composite fixed-order quadrature of the bump."""
    x, w = leggauss(nodes)
    edges = np.linspace(-k, k, panels + 1)
    terms = []
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        pts = mid + half * x
        vals = np.exp(-k * k / (k * k - pts * pts))
        terms.extend((half * w * vals).tolist())
    return math.fsum(terms)


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


def _adaptive_simpson(f, a: float, b: float, tol: float,
                      max_depth: int = 48) -> float:
    """Classic adaptive Simpson with Richardson correction."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    m = 0.5 * (a + b)
    stack = [(a, b, f(a), f(m), f(b), simpson(a, b, f(a), f(m), f(b)), tol, 0)]
    total = 0.0
    while stack:
        x0, x2, f0, f1, f2, whole, tol_i, depth = stack.pop()
        xm = 0.5 * (x0 + x2)
        lm = 0.5 * (x0 + xm)
        rm = 0.5 * (xm + x2)
        fl = f(lm)
        fr = f(rm)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        err = left + right - whole
        if abs(err) <= 15.0 * tol_i:
            total += left + right + err / 15.0
        elif depth >= max_depth:
            raise QuadratureError(
                f"tolerance {tol_i:g} unreachable at depth {depth} on "
                f"[{x0:g}, {x2:g}]")
        else:
            half_tol = 0.5 * tol_i
            stack.append((x0, xm, f0, fl, f1, left, half_tol, depth + 1))
            stack.append((xm, x2, f1, fr, f2, right, half_tol, depth + 1))
    return total


_TOTAL_MEMO: dict[tuple[float, float], float] = {}


def bump_integral_F(spec: BumpSpec, x: float, tol: float = 1e-12) -> float:
    """Oracle: integral of the bump from -k to x, by adaptive Simpson
    quadrature to ``tol``.

    The full mass F(k) is memoized per (k, tol) after the first evaluation.
    Raises QuadratureError when the tolerance cannot be met in double
    precision.
    """
    if not 0.0 < tol:
        raise ValueError("quadrature tolerance must be positive")
    k = spec.k
    if not math.isfinite(x):
        raise ValueError(f"integration endpoint must be finite, got {x}")
    if x <= -k:
        return 0.0
    key = (k, tol)
    if x >= k:
        if key not in _TOTAL_MEMO:
            _TOTAL_MEMO[key] = _adaptive_simpson(
                lambda t: bump_f(spec, t), -k, k, tol)
        return _TOTAL_MEMO[key]
    return _adaptive_simpson(lambda t: bump_f(spec, t), -k, x, tol)


# ---------------------------------------------------------------------------
# bump function
# ---------------------------------------------------------------------------

class TestBumpFunction:
    def test_center_value(self):
        assert bump18(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_support_boundary_is_zero(self):
        assert bump18(18.0) == 0.0
        assert bump18(-18.0) == 0.0
        assert bump18(18.0001) == 0.0
        assert bump18(-50.0) == 0.0

    def test_interior_value_two_thirds_out(self):
        # exponent -324/(324-81) = -4/3 exactly
        assert bump18(9.0) == pytest.approx(math.exp(-4.0 / 3.0), rel=1e-15)

    def test_even_symmetry(self):
        for x in (0.3, 5.0, 11.7, 17.9):
            assert bump18(x) == bump18(-x)

    def test_derivative_matches_finite_difference(self):
        spec = BumpSpec(18.0)
        h = 1e-6
        xs = [-15.0, -6.0, 0.5, 7.0, 13.0, 17.0]
        derivatives = profiles._bump_jet_many(18.0, np.array(xs))[1]
        for x, an in zip(xs, derivatives.tolist()):
            fd = (bump_f(spec, x + h) - bump_f(spec, x - h)) / (2 * h)
            assert an == pytest.approx(fd, rel=1e-7, abs=1e-12)

    def test_derivative_zero_outside_support(self):
        f, df = profiles._bump_jet_many(18.0, np.array([18.0, 25.0]))
        assert f.tolist() == [0.0, 0.0]
        assert df.tolist() == [0.0, 0.0]

    def test_vectorized_matches_scalar(self):
        spec = BumpSpec(19.0)
        xs = np.linspace(-20.0, 20.0, 401)
        for x, v, d in zip(xs.tolist(),
                           *profiles._bump_jet_many(19.0, xs)):
            assert v == pytest.approx(bump_f(spec, x), rel=1e-15)
            assert d == pytest.approx(bump_f_prime(spec, x), rel=1e-15)

    def test_width_below_one_rejected(self):
        with pytest.raises(ValueError):
            BumpSpec(0.5)

    @pytest.mark.parametrize("k", [
        math.nextafter(largest_bump_width(), math.inf), 9.5e153, 1e155,
        1e300, math.inf, math.nan])
    def test_width_whose_fourth_power_overflows_rejected(self, k):
        with pytest.raises(ValueError, match="bump width k"):
            BumpSpec(k)

    def test_largest_width_keeps_every_bump_term_finite(self):
        # u^2 in the derivative reaches k^4 at the window's centre; at the
        # largest accepted k the step jet across the window is finite and
        # scales like the k = 1e6 one: p ~ 1, p' ~ 1/k, p'' ~ 1/k^2
        k = largest_bump_width()
        assert 1.1579e77 < k < 1.158e77
        wide, ref = (WarpingProfile.interpolated(w) for w in (k, 1e6))
        for s in np.linspace(0.05, 1.95, 20).tolist():
            p, p1, p2 = wide.rho_jet(k * s)
            q, q1, q2 = ref.rho_jet(1e6 * s)
            assert p == pytest.approx(q, rel=1e-9)
            assert p1 * k == pytest.approx(q1 * 1e6, rel=1e-9)
            assert p2 * (k * k) == pytest.approx(q2 * 1e12, rel=1e-9), s
            assert p2 != 0.0 and (p2 > 0.0) == (s < 1.0)
        steps = profiles.rho_many(wide.bump, k * np.linspace(0.05, 1.95, 20))
        assert all(np.isfinite(c).all() for c in steps)

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            bump_integral_F(BumpSpec(2.0), 1.0, tol=0.0)


def bump18(x: float) -> float:
    return bump_f(BumpSpec(18.0), x)


# ---------------------------------------------------------------------------
# cumulative mass
# ---------------------------------------------------------------------------

def fast_F(x: float) -> float:
    """F(x) of the k = 19 profile from the scalar panel-table path."""
    return profiles._radial_jet("interpolated", 19.0)[0](x)


def fast_total(k: float) -> float:
    """The table's total mass of the width-k bump, F(k)."""
    return profiles._radial_jet("interpolated", k)[0](k)


class TestCumulativeMass:
    def test_zero_below_support(self):
        spec = BumpSpec(18.0)
        assert bump_integral_F(spec, -18.0) == 0.0
        assert bump_integral_F(spec, -30.0) == 0.0

    def test_half_mass_at_center(self):
        spec = BumpSpec(18.0)
        total = bump_integral_F(spec, 18.0)
        half = bump_integral_F(spec, 0.0)
        assert half == pytest.approx(total / 2.0, abs=1e-11)

    @pytest.mark.parametrize("k", sorted(FROZEN_TOTAL_MASS))
    def test_total_mass_frozen(self, k):
        spec = BumpSpec(k)
        assert bump_integral_F(spec, k) == pytest.approx(
            FROZEN_TOTAL_MASS[k], abs=5e-12)

    @pytest.mark.parametrize("k", [1.0, 18.0])
    def test_total_mass_oracle_rerun(self, k):
        assert gauss_total_mass(k) == pytest.approx(
            FROZEN_TOTAL_MASS[k], abs=1e-14)

    @pytest.mark.parametrize("k", [2.0, 18.0, 19.0])
    def test_total_mass_scales_linearly_in_width(self, k):
        # substituting s = k*u maps the width-k bump onto the width-1 bump
        assert FROZEN_TOTAL_MASS[k] == pytest.approx(
            k * FROZEN_TOTAL_MASS[1.0], rel=1e-12)

    def test_constant_above_support(self):
        spec = BumpSpec(18.0)
        total = bump_integral_F(spec, 18.0)
        assert bump_integral_F(spec, 25.0) == total
        assert bump_integral_F(spec, 1e6) == total

    def test_nondecreasing(self):
        spec = BumpSpec(2.0)
        xs = np.linspace(-2.5, 2.5, 301)
        vals = [bump_integral_F(spec, float(x)) for x in xs]
        for lo, hi in zip(vals[:-1], vals[1:]):
            assert lo <= hi + 1e-12

    def test_fast_table_matches_adaptive(self):
        spec = BumpSpec(19.0)
        for x in (-18.0, -7.3, 0.0, 4.1, 12.9, 18.999):
            table = fast_F(x)
            adaptive = bump_integral_F(spec, x)
            assert table == pytest.approx(adaptive, abs=5e-12)

    def test_fast_table_frozen_bit_for_bit(self):
        # float.hex() of the table's F(x) at k = 19, frozen: the scalar path
        # must reproduce every bit, at an exact panel edge and at the float
        # just above it too; each value is within 2.5 ulp of a 40-digit
        # mpmath integral, and all but F(-18) within 0.9 ulp
        edge = -9.72265625  # -k + 1000 k/2048, an edge of the table
        frozen = {
            -18.0: "0x1.569ebe8ce8d4ap-18",
            -7.3: "0x1.abad51098466ap+0",
            0.0: "0x1.0df2bfdf296d7p+2",
            4.1: "0x1.6cf5d6f1ac7dcp+2",
            12.9: "0x1.0408eb8dc883fp+3",
            18.999: "0x1.0df2bfdf296d7p+3",
            edge: "0x1.f562219e54e10p-1",
            math.nextafter(edge, math.inf): "0x1.f562219e54e14p-1",
            19.0: "0x1.0df2bfdf296d7p+3",
            -19.0: "0x0.0p+0",
        }
        assert edge in profiles._bump_table(19.0)[0]
        for x, value in frozen.items():
            assert fast_F(x).hex() == value, x

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(QuadratureError):
            bump_integral_F(BumpSpec(3.0), 1.0, tol=1e-30)

    def test_nonfinite_endpoint_rejected(self):
        with pytest.raises(ValueError):
            bump_integral_F(BumpSpec(2.0), float("nan"))


# ---------------------------------------------------------------------------
# array path: the scalar path's arithmetic, elementwise, on the calling thread
# ---------------------------------------------------------------------------

BLAS_SIZES = (4097, 40374, 65537, 100001)


def rho_digests(sizes, batches=4):
    """{n: sha256 of rho_many's three arrays at k = 19} over ``batches``
    seeded draws of n radii in (0.1, 0.4): there the partial panel
    outweighs the panels before it, so that a last-bit change in one
    panel's part reaches rho."""
    digests = {}
    for n in sizes:
        digest = hashlib.sha256()
        for batch in range(batches):
            rs = np.random.default_rng([n, batch]).uniform(0.1, 0.4, n)
            for column in profiles.rho_many(BumpSpec(19.0), rs):
                digest.update(column.tobytes())
        digests[n] = digest.hexdigest()
    return digests


def table_digests(widths):
    """{k: sha256 of the panel table's edges, masses and coefficients}."""
    return {k: hashlib.sha256(b"".join(
        np.asarray(part).tobytes() for part in profiles._bump_table(k))
    ).hexdigest() for k in widths}


def one_blas_thread(function, *args):
    """function(*args) in a child interpreter with OpenBLAS and OpenMP set
    to one thread; the function goes over by its source, its literal result
    comes back."""
    child = "\n".join((
        "import hashlib, sys",
        f"sys.path.insert(0, {str(Path(profiles.__file__).parents[1])!r})",
        "import numpy as np",
        "from fatflat import profiles",
        "from fatflat.profiles import BumpSpec",
        inspect.getsource(function),
        f"print({function.__name__}(*{args!r}))"))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", child], env=env,
                         capture_output=True, text=True, check=True).stdout
    return ast.literal_eval(out)


def other_threads_cpu_s():
    """CPU seconds used so far by this process's threads other than the
    calling one, from /proc/self/task/*/schedstat."""
    me, total = threading.get_native_id(), 0
    for task in Path("/proc/self/task").iterdir():
        if int(task.name) != me:
            try:
                total += int((task / "schedstat").read_text().split()[0])
            except (FileNotFoundError, ProcessLookupError):
                pass  # the thread ended meanwhile
    return total * 1e-9


class TestPanelSums:
    def test_array_jet_bits_do_not_depend_on_blas_threads(self):
        # one BLAS product over a long batch would split its rows across
        # worker threads, and the split moves the last bit of some sums
        here = rho_digests(BLAS_SIZES)
        one_thread = one_blas_thread(rho_digests, BLAS_SIZES)
        same = {n: here[n] == one_thread[n] for n in BLAS_SIZES}
        assert same == dict.fromkeys(BLAS_SIZES, True)

    def test_coefficient_table_bits_do_not_depend_on_blas_threads(self):
        # the table is built from elementwise sums and products, with no
        # matrix product that BLAS could split across its threads
        widths = (1.0, 19.0, 40.0)
        assert table_digests(widths) == one_blas_thread(table_digests, widths)

    def test_verify_profile_leaves_blas_workers_idle(self, ramp19):
        me = Path(f"/proc/self/task/{threading.get_native_id()}/schedstat")
        if not os.access(me, os.R_OK):
            pytest.skip("per-thread CPU times are not readable here")
        # let a worker woken by an earlier product stop spinning
        deadline = time.monotonic() + 2.0
        settled = other_threads_cpu_s()
        while time.monotonic() < deadline:
            time.sleep(0.05)
            before, settled = settled, other_threads_cpu_s()
            if settled - before < 1e-3:
                break
        profiles.verify_profile(ramp19)
        end = time.perf_counter() + 0.15
        while time.perf_counter() < end:
            pass
        assert other_threads_cpu_s() - settled < 0.02

    def test_empty_and_single_radius_batches(self, ramp19):
        assert profiles._F_fast_many(19.0, np.empty(0)).shape == (0,)
        assert all(c.shape == (0,) for c in ramp19._jet_many(np.empty(0))[1])
        one = profiles._F_fast_many(19.0, np.array([-7.3]))
        assert one.shape == (1,)
        assert one[0].hex() == "0x1.abad51098466ap+0"
        frozen = {
            12.0: ("0x1.0791f2f48dda1p+14", "0x1.36aff79d37e51p+14",
                   "0x1.686cc2dc7f041p+14", "0x1.076f1085a1984p+14",
                   "0x1.36ae6e6bb983fp+14", "0x1.686d24fcca1e1p+14"),
            0.5: ("0x1.00000000000cbp-1", "0x1.00000000016dep+0",
                  "0x1.3341935052ab9p-34", "0x1.0000000000265p+0",
                  "0x1.0b3d0e8010a1ep-37", "0x1.afe6093e3c857p-32"),
        }
        for r, values in frozen.items():
            jet = ramp19._jet_many(np.array([r]))[1]
            assert all(c.shape == (1,) for c in jet)
            assert tuple(c[0].hex() for c in jet) == values, r


@functools.lru_cache(maxsize=4)
def table_lists(k: float):
    """The panel table of width k as Python lists, and its unit."""
    return tuple(np.asarray(part).tolist() for part in profiles._bump_table(k))


def table_F(k: float, x: float, fused: bool = False) -> float:
    """F(x) from the panel table by its steps, each on its own: the
    reflection of x > 0, the panel lookup, and Horner's rule on the panel's
    coefficients, each product and each sum rounded on its own or, if
    ``fused``, each product and the sum after it rounded once, as a fused
    multiply-add rounds them."""
    edges, cum, coef, unit = table_lists(k)

    def mul_add(a, b, c):
        if fused:
            return float(Fraction(a) * Fraction(b) + Fraction(c))
        return a * b + c

    z = -x if x > 0.0 else x
    v = 0.0
    if z > -k or z != z:
        i = bisect_right(edges, z, 0, len(edges) - 1) - 1
        s = (z - edges[i]) / unit
        lo, *q = (c[i] for c in coef)
        acc = q.pop()
        while q:
            acc = mul_add(acc, s, q.pop())
        v = cum[i] + mul_add(acc, s, lo)
    return 2.0 * cum[-1] - v if x > 0.0 else v


def edge_points(k: float) -> list[float]:
    """Every panel edge of F on [-k, k], the mirrored ones included, with
    the floats on either side of it, in ascending order."""
    edges = profiles._bump_table(k)[0].tolist()
    return sorted(p for e in edges + [-e for e in edges[:-1]]
                  for p in (math.nextafter(e, -math.inf), e,
                            math.nextafter(e, math.inf)))


class TestBlockedNodes:
    @pytest.mark.parametrize("k", [1.0, 2.0, 19.0])
    def test_array_F_equals_scalar_F_bit_for_bit(self, k):
        F = profiles._radial_jet("interpolated", k)[0]
        for n in (0, 1, 2, 4097, 100001):
            xs = np.random.default_rng([n, int(k)]).uniform(-1.1 * k,
                                                             1.1 * k, n)
            assert (profiles._F_fast_many(k, xs).tobytes()
                    == np.array([F(x) for x in xs.tolist()]).tobytes()), n
        xs = [*edge_points(k), -k, k, 0.0, -0.0, -math.inf, math.inf]
        assert (profiles._F_fast_many(k, np.array(xs)).tobytes()
                == np.array([F(x) for x in xs]).tobytes())
        assert np.isnan(profiles._F_fast_many(k, np.array([math.nan]))[0])
        assert math.isnan(F(math.nan))

    def test_scalar_rho_equals_rho_many_bit_for_bit(self, ramp19):
        rs = np.random.default_rng(5).uniform(0.0, 45.0, 20_000)
        scalar = [ramp19.rho_jet(r)[0] for r in rs.tolist()]
        assert (profiles.rho_many(ramp19.bump, rs)[0].tobytes()
                == np.array(scalar).tobytes())

    def test_horner_rounds_each_product_and_sum(self):
        # both paths round each product and each sum on their own: they
        # equal the step-by-step reference, and a fused multiply-add, which
        # would round them once, reads otherwise at some of these points
        xs = np.random.default_rng(9).uniform(-19.0, -18.6, 400).tolist()
        F = profiles._radial_jet("interpolated", 19.0)[0]
        plain = [table_F(19.0, x) for x in xs]
        assert [F(x) for x in xs] == plain
        assert profiles._F_fast_many(19.0, np.array(xs)).tolist() == plain
        assert [table_F(19.0, x, fused=True) for x in xs] != plain

    @pytest.mark.parametrize("route", ["rho_many", "_jet_many"])
    def test_working_memory_is_bounded_by_the_block(self, ramp19, route):
        # whole (n, 12) node arrays once peaked at 628 (rho_many) and 660
        # (_jet_many) bytes per radius; Horner's rule one coefficient column
        # at a time holds a few arrays of the batch's length
        jet = {"rho_many": lambda rs: profiles.rho_many(ramp19.bump, rs),
               "_jet_many": ramp19._jet_many}[route]
        rs = np.linspace(0.0, 45.0, 10 ** 6)
        jet(rs[:10])  # the panel table is built once per k, not per call
        tracemalloc.start()
        try:
            jet(rs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200 * len(rs)


# ---------------------------------------------------------------------------
# ramp
# ---------------------------------------------------------------------------

def ramp_step(spec, r):
    """(rho, rho', rho'') of the interpolated profile with bump ``spec``."""
    return WarpingProfile("interpolated", spec).rho_jet(r)


class TestRamp:
    def test_zero_before_onset(self):
        spec = BumpSpec(18.0)
        assert ramp_step(spec, 0.05) == (0.0, 0.0, 0.0)
        assert ramp_step(spec, 1.0 / 18.0) == (0.0, 0.0, 0.0)
        assert ramp_step(spec, 0.0) == (0.0, 0.0, 0.0)

    def test_half_at_midpoint(self):
        spec = BumpSpec(18.0)
        value, _, _ = ramp_step(spec, 18.0 + 1.0 / 18.0)
        assert value == pytest.approx(0.5, abs=1e-12)

    def test_one_after_completion(self):
        spec = BumpSpec(18.0)
        assert ramp_step(spec, 40.0) == (1.0, 0.0, 0.0)
        assert ramp_step(spec, 2 * 18.0 + 1.0 / 18.0) == (1.0, 0.0, 0.0)

    def test_range_and_monotonicity(self):
        spec = BumpSpec(19.0)
        rs = np.linspace(0.0, 45.0, 4001)
        value, slope, _ = profiles.rho_many(spec, rs)
        assert np.all(value >= 0.0)
        assert np.all(value <= 1.0)
        assert np.all(np.diff(value) >= -1e-15)
        assert np.all(slope >= 0.0)

    def test_derivatives_match_finite_differences(self):
        spec = BumpSpec(19.0)
        h = 1e-5
        for r in np.linspace(0.2, 40.0, 57):
            v_m, d_m, _ = ramp_step(spec, float(r) - h)
            v_p, d_p, _ = ramp_step(spec, float(r) + h)
            _, d, dd = ramp_step(spec, float(r))
            assert d == pytest.approx((v_p - v_m) / (2 * h),
                                      rel=1e-5, abs=1e-9)
            assert dd == pytest.approx((d_p - d_m) / (2 * h),
                                       rel=1e-5, abs=1e-9)

    def test_vectorized_matches_scalar(self):
        spec = BumpSpec(2.0)
        rs = np.linspace(0.0, 6.0, 601)
        v, d, dd = profiles.rho_many(spec, rs)
        for i, r in enumerate(rs):
            sv, sd, sdd = ramp_step(spec, float(r))
            assert v[i] == pytest.approx(sv, rel=1e-13, abs=1e-15)
            assert d[i] == pytest.approx(sd, rel=1e-13, abs=1e-15)
            assert dd[i] == pytest.approx(sdd, rel=1e-13, abs=1e-15)


# ---------------------------------------------------------------------------
# the step's sign and order at the window's ends, and its last bits
# ---------------------------------------------------------------------------

WIDTHS = (1.0, 2.0, 19.0, 40.0)

# rho at np.random.default_rng(12).uniform(1/19, 38 + 1/19, 12) on k = 19
# from the table of 12-node Gauss panels that the polynomial table replaced:
# 3.8 to 20.8 ulp off the mpmath value, and 560 ulp at r = 0.16
GAUSS_PANEL_RHO = (
    "0x1.fbb08d5295dccp-4", "0x1.ffddb65d50cd2p-1", "0x1.e8944dafd042fp-5",
    "0x1.a26d5c3908c91p-5", "0x1.0923d6e392733p-2", "0x1.9c6f125c0c445p-4",
    "0x1.8ad02b35cad1ep-1", "0x1.832065e6a8713p-7", "0x1.fbf833728a9ecp-1",
    "0x1.f35431fd6d893p-1", "0x1.337fe1988b599p-141", "0x1.2319f08409875p-1")


def mp_bump_integral(k: float, y: float):
    """Oracle: the bump's integral from -k to y <= 0, at the working
    precision.  With t = -k + k/w it is
    k exp(-w_y/2) int_0^inf exp(w_y/2 + g)/w^2 dv, w = w_y + v and
    g = -w^2/(2w - 1), an integrand of order one that mpmath integrates
    piece by piece; one quadrature of the bump over [-k, y] is 1.2e-3 off
    at y = -18.95."""
    wy = k / (mpmath.mpf(y) + k)

    def integrand(v):
        w = wy + v
        return mpmath.exp(wy / 2 - w * w / (2 * w - 1)) / (w * w)

    return k * mpmath.exp(-wy / 2) * mpmath.quad(
        integrand, [0, 1, 10, 100, mpmath.inf])


def ulps_off(value: float, exact) -> float:
    return float(abs(mpmath.mpf(value) - exact) / math.ulp(float(exact)))


class TestStepOrder:
    @pytest.mark.parametrize("k", WIDTHS)
    def test_ratios_nonpositive_where_the_ramp_starts(self, k):
        # rho is below 1e-59 over much of these radii, where the bump rises
        # by up to e^15 across one k/2048 panel: a step that dips below 0
        # there reads as a positive curvature
        profile = WarpingProfile.interpolated(k)
        rs = np.linspace(1.0 / k, 1.0 / k + 0.1 * k / 19.0, 20_001)
        positive = [r for r in rs.tolist()
                    if max(profile.curvature_ratios(r)) > 0.0]
        assert positive == []

    @pytest.mark.parametrize("k", WIDTHS)
    def test_rho_in_unit_interval_and_nondecreasing(self, k):
        total = fast_total(k)
        for lo, hi, n in ((-k, k, 400_001), (-k, -18.9 / 19.0 * k, 200_001),
                          (18.5 / 19.0 * k, k, 200_001)):
            rho = profiles._F_fast_many(k, np.linspace(lo, hi, n)) / total
            assert 0.0 <= rho.min() and rho.max() <= 1.0, (lo, hi)
            assert (np.diff(rho) >= 0.0).all(), (lo, hi)

    @pytest.mark.parametrize("k", WIDTHS)
    def test_rho_nondecreasing_across_panel_edges(self, k):
        F, total = profiles._radial_jet("interpolated", k)[0], fast_total(k)
        rho = [F(x) / total for x in edge_points(k)]
        assert all(a <= b for a, b in zip(rho, rho[1:]))


class TestAgainstMpmath:
    def test_total_mass_is_correctly_rounded(self):
        with mpmath.workdps(40):
            exact = 2 * mp_bump_integral(19.0, 0.0)
            assert abs(exact - mpmath.mpf(
                "8.43588250719350931863792950224")) < 1e-28
            # the Gauss-panel table's total was 5.2 ulp (1.10e-15) off
            assert ulps_off(fast_total(19.0), exact) <= 0.5

    def test_rho_no_further_off_than_the_gauss_panels(self, ramp19):
        rs = np.random.default_rng(12).uniform(1 / 19, 38 + 1 / 19, 12)
        with mpmath.workdps(40):
            total = 2 * mp_bump_integral(19.0, 0.0)
            for r, gauss in zip(rs.tolist(), GAUSS_PANEL_RHO):
                y = r - (19.0 + 1.0 / 19.0)
                exact = (total - mp_bump_integral(19.0, -y) if y > 0.0
                         else mp_bump_integral(19.0, y)) / total
                assert (ulps_off(ramp19.rho_jet(r)[0], exact)
                        <= ulps_off(float.fromhex(gauss), exact)), r


# ---------------------------------------------------------------------------
# warping functions
# ---------------------------------------------------------------------------

class TestWarpingFunctions:
    def test_hyperbolic_values(self, hyperbolic_profile):
        s, sp, spp, t, tp, tpp = hyperbolic_profile.sigma_tau(1.0)
        assert s == pytest.approx(math.sinh(1.0), rel=1e-15)
        assert sp == pytest.approx(math.cosh(1.0), rel=1e-15)
        assert spp == pytest.approx(math.sinh(1.0), rel=1e-15)
        assert t == pytest.approx(math.cosh(1.0), rel=1e-15)
        assert tp == pytest.approx(math.sinh(1.0), rel=1e-15)
        assert tpp == pytest.approx(math.cosh(1.0), rel=1e-15)

    def test_flat_values(self, flat_profile):
        assert flat_profile.sigma_tau(2.3) == (2.3, 1.0, 0.0, 1.0, 0.0, 0.0)

    def test_inner_region_is_euclidean_tube(self, ramp19):
        s, sp, spp, t, tp, tpp = ramp19.sigma_tau(0.02)
        assert s == pytest.approx(0.02, abs=1e-12)
        assert sp == pytest.approx(1.0, abs=1e-12)
        assert spp == pytest.approx(0.0, abs=1e-12)
        assert t == pytest.approx(1.0, abs=1e-12)
        assert tp == pytest.approx(0.0, abs=1e-12)
        assert tpp == pytest.approx(0.0, abs=1e-12)

    def test_outer_region_is_hyperbolic(self, ramp19):
        s, sp, _, t, tp, _ = ramp19.sigma_tau(40.0)
        assert s == pytest.approx(math.sinh(40.0), rel=1e-12)
        assert sp == pytest.approx(math.cosh(40.0), rel=1e-12)
        assert t == pytest.approx(math.cosh(40.0), rel=1e-12)
        assert tp == pytest.approx(math.sinh(40.0), rel=1e-12)

    def test_matching_radii(self, ramp19):
        assert ramp19.matching_radius == 39.0
        assert ramp19.tube_radius == pytest.approx(1.0 / 39.0, rel=1e-15)

    def test_boundary_matching_on_grid(self, ramp19):
        rs = np.arange(0.0, 60.0, 1e-3)
        sig, _, _, tau, _, _ = ramp19._jet_many(rs)[1]
        inner = rs <= 1.0 / 39.0
        outer = rs >= 39.0
        assert_close(sig[inner], rs[inner], abs_tol=1e-12)
        assert_close(tau[inner], np.ones(inner.sum()), abs_tol=1e-12)
        assert_close(sig[outer], np.sinh(rs[outer]), rel=1e-12)
        assert_close(tau[outer], np.cosh(rs[outer]), rel=1e-12)

    def test_derivatives_match_finite_differences(self, ramp19):
        h = 1e-5
        for r in np.linspace(1.0 / 78.0, 78.0, 113):
            r = float(r)
            jm = ramp19.sigma_tau(r - h)
            jp = ramp19.sigma_tau(r + h)
            j = ramp19.sigma_tau(r)
            for val_idx, der_idx in ((0, 1), (1, 2), (3, 4), (4, 5)):
                fd = (jp[val_idx] - jm[val_idx]) / (2 * h)
                scale = max(1.0, abs(j[der_idx]))
                assert abs(j[der_idx] - fd) <= 1e-5 * scale

    def test_array_jet_matches_scalar_jet(self, ramp19):
        # radii through the series branch (r < 0.75), the flat tube
        # (r <= 1/19), the ramp and the hyperbolic piece (r >= 38.05);
        # np.sinh and math.sinh may differ by an ulp, so the two routes
        # agree to rounding rather than bit for bit
        rs = np.concatenate([np.linspace(0.0, 0.8, 401),
                             np.linspace(0.8, 60.0, 2001)])
        many = np.array(ramp19._jet_many(rs)[1])
        one = np.array([ramp19.sigma_tau(float(r)) for r in rs]).T
        assert np.all(np.abs(many - one) <= 4e-15 * np.abs(one))

    def test_jet_views_agree(self, ramp19):
        for r in (0.0, 0.03, 0.5, 2.0, 19.0, 45.0):
            jet, ratios = ramp19.jet_ratios(r)
            assert jet == ramp19.jet(r)
            assert jet[:6] == ramp19.sigma_tau(r)
            assert ratios == ramp19.curvature_ratios(r)
            if r >= 2.0:
                assert jet[6] == pytest.approx(jet[1] - 1.0, rel=1e-12)

    def test_scalar_jets_are_python_floats(self, ramp19):
        # flat tube, ramp and hyperbolic piece; a numpy-scalar radius too
        for r in (0.01, 20.0, 45.0):
            jet, ratios = ramp19.jet_ratios(r)
            values = (*ramp19.rho_jet(r), *ramp19.jet(r), *jet, *ratios,
                      *ramp19.sigma_tau(r),
                      *geometry.axis_coefficient_jets(ramp19, r))
            assert all(type(v) is float for v in values), r
        r = np.float64(20.0)
        jet, ratios = ramp19.jet_ratios(r)
        values = (*ramp19.sigma_tau(r), *jet, *ratios)
        assert all(type(v) is float for v in values)

    def test_negative_radius_rejected(self, ramp19, hyperbolic_profile):
        for prof in (ramp19, hyperbolic_profile):
            with pytest.raises(ValueError):
                prof.sigma_tau(-0.1)


# ---------------------------------------------------------------------------
# the scalar radial jet against the composition of its separate steps
# ---------------------------------------------------------------------------

def reference_step(k: float, r: float):
    """(rho, rho', rho'') at r by the steps the per-profile jet fuses, each
    on its own: the window test, F from the panel table (table_F), and the
    bump and its derivative from one exp."""
    shift = k + 1.0 / k
    y = r - shift
    if y <= -k:
        return 0.0, 0.0, 0.0
    if y >= k:
        return 1.0, 0.0, 0.0
    total = 2.0 * table_lists(k)[1][-1]
    u = k * k - y * y
    f = math.exp(-k * k / u) if u > 0.0 else 0.0
    f1 = f * (-2.0 * k * k * y / (u * u)) if u > 0.0 else 0.0
    return table_F(k, y) / total, f / total, f1 / total


def reference_jet(profile: WarpingProfile, r: float):
    """(step, jet, ratios) at r: the step jet, then the piece jet or the
    ramp blend of it with math.sinh and math.cosh, then the ratios."""
    if profile.variant == "interpolated":
        step = reference_step(profile.bump.k, r)
    else:
        step = (1.0 if profile.variant == "hyperbolic" else 0.0, 0.0, 0.0)
    p, p1, p2 = step
    if p1 == 0.0 and p == 0.0:
        return step, (r, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0), (0.0,) * 4
    sh, ch, cm1 = math.sinh(r), math.cosh(r), profiles.cosh_minus_one(r)
    if p1 == 0.0 and p == 1.0:
        return step, (sh, ch, sh, ch, sh, ch, cm1), (-1.0,) * 4
    jet = profiles._ramp_blend(r, p, p1, p2, sh, ch,
                               profiles.sinh_minus_linear(r), cm1)
    return step, jet, profiles._ramp_ratios(jet)


def hexes(values):
    """float.hex of each value, which must be a Python float."""
    assert all(type(v) is float for v in values), values
    return [v.hex() for v in values]


def special_radii(k: float) -> list[float]:
    """r = 0, 1/k, the window edges y = -k, k and their float neighbours,
    both sides of r = 0.75, and the underflow tails inside the window."""
    shift = k + 1.0 / k
    radii = [0.0, 1.0 / k, 0.75, math.nextafter(0.75, 0.0),
             math.nextafter(0.75, 1.0)]
    for edge in (shift - k, shift + k):
        radii += [edge, math.nextafter(edge, 0.0),
                  math.nextafter(edge, math.inf)]
    for e in range(8, 64):
        d = 10.0 ** (-e / 4)
        radii += [shift - k + d, shift + k - d]
    return radii


class TestRadialJet:
    @pytest.mark.parametrize("k", [19.0, 18.0, 2.0])
    def test_bit_for_bit_at_special_radii(self, k):
        profile = WarpingProfile.interpolated(k)
        radii = special_radii(k)
        steps = [reference_step(k, r) for r in radii]
        shift = k + 1.0 / k
        # both underflow tails are hit: r inside the window with the step
        # exactly flat or exactly hyperbolic
        assert any(s == (0.0, 0.0, 0.0) and -k < r - shift < k
                   for r, s in zip(radii, steps))
        assert any(s[:2] == (1.0, 0.0) and -k < r - shift < k
                   for r, s in zip(radii, steps))
        self.assert_matches(profile, radii)

    def test_bit_for_bit_at_seeded_radii(self, ramp19):
        radii = np.random.default_rng(17).uniform(0.0, 45.0, 10_000).tolist()
        self.assert_matches(ramp19, radii)

    @pytest.mark.parametrize("variant", ["flat_profile",
                                         "hyperbolic_profile"])
    def test_bit_for_bit_on_the_pure_variants(self, request, variant):
        profile = request.getfixturevalue(variant)
        self.assert_matches(profile, [0.0, 1e-300, 0.01, 0.75, 3.0, 45.0,
                                      700.0])

    @staticmethod
    def assert_matches(profile, radii):
        for r in radii:
            step, jet, ratios = reference_jet(profile, r)
            got_jet, got_ratios = profile.jet_ratios(r)
            assert hexes(got_jet) == hexes(jet), r
            assert hexes(got_ratios) == hexes(ratios), r
            assert hexes(profile.jet(r)) == hexes(jet), r
            assert hexes(profile.sigma_tau(r)) == hexes(jet[:6]), r
            assert hexes(profile.rho_jet(r)) == hexes(step), r
            assert hexes(profile.curvature_ratios(r)) == hexes(ratios), r

    @pytest.mark.parametrize("variant", ["flat_profile", "hyperbolic_profile",
                                         "ramp19"])
    def test_negative_radius_raises_everywhere(self, request, variant):
        profile = request.getfixturevalue(variant)
        for r in (-0.1, -1e-300, -math.inf):
            for method in (profile.sigma_tau, profile.jet, profile.jet_ratios,
                           profile.rho_jet, profile.curvature_ratios):
                with pytest.raises(ValueError):
                    method(r)

    @pytest.mark.parametrize("variant", ["hyperbolic_profile", "ramp19"])
    def test_overflow_past_710_only_where_sinh_is_needed(self, request,
                                                         variant):
        profile = request.getfixturevalue(variant)
        for r in (711.0, 1e6):
            for method in (profile.sigma_tau, profile.jet,
                           profile.jet_ratios):
                with pytest.raises(OverflowError):
                    method(r)
            assert profile.rho_jet(r) == (1.0, 0.0, 0.0)
            assert profile.curvature_ratios(r) == (-1.0,) * 4

    def test_step_and_pure_piece_ratios_evaluate_no_sinh(self, monkeypatch,
                                                         flat_profile,
                                                         hyperbolic_profile,
                                                         ramp19):
        def poisoned(_):
            raise AssertionError("sinh or cosh evaluated")

        monkeypatch.setattr(math, "sinh", poisoned)
        monkeypatch.setattr(math, "cosh", poisoned)
        for profile in (flat_profile, hyperbolic_profile, ramp19):
            for r in (0.0, 0.01, 12.0, 45.0, 1e6):
                profile.rho_jet(r)
        assert flat_profile.curvature_ratios(3.0) == (0.0,) * 4
        assert ramp19.curvature_ratios(0.01) == (0.0,) * 4
        for profile in (hyperbolic_profile, ramp19):
            assert profile.curvature_ratios(45.0) == (-1.0,) * 4

    @pytest.mark.parametrize("r", [12, np.float64(12.0), np.float32(0.01),
                                   np.float64(45.0)])
    def test_python_floats_for_any_real_radius(self, ramp19, r):
        jet, ratios = ramp19.jet_ratios(r)
        hexes((*jet, *ratios, *ramp19.jet(r), *ramp19.sigma_tau(r),
               *ramp19.curvature_ratios(r)))

    @pytest.mark.parametrize("profile", [
        WarpingProfile.flat(), WarpingProfile.hyperbolic(),
        WarpingProfile.interpolated(19.0), WarpingProfile.interpolated(2.5)])
    def test_frozen_hashable_and_picklable(self, profile):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(profile, protocol))
            assert back == profile
            assert hash(back) == hash(profile)
            assert back.jet_ratios(12.0) == profile.jet_ratios(12.0)
        assert copy.deepcopy(profile) == profile
        assert {profile: 1}[dataclasses.replace(profile)] == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            profile.variant = "flat"


# ---------------------------------------------------------------------------
# grid verification
# ---------------------------------------------------------------------------

CHECK_NAMES = {
    "sigma_nonneg", "tau_nonneg", "sigma_slope_ge_one", "tau_slope_nonneg",
    "sigma_convex", "tau_convex", "step_convexity_margin",
}


class TestGridVerification:
    def test_default_ramp_passes_all_checks(self, ramp19):
        report = profiles.verify_profile(ramp19, 60.0, 1e-3)
        assert {c.name for c in report.checks} == CHECK_NAMES
        assert report.all_passed
        for check in report.checks:
            assert check.worst_value >= -1e-10

    def test_hyperbolic_passes_all_checks(self, hyperbolic_profile):
        report = profiles.verify_profile(hyperbolic_profile, 60.0, 1e-3)
        assert {c.name for c in report.checks} == CHECK_NAMES
        assert report.all_passed

    def test_small_ramp_convexity_margin_is_zero(self):
        # dense brute-force oracle over the ramp support of k=2
        spec = BumpSpec(2.0)
        grid = np.arange(0.4, 5.0, 1e-6)
        value, _, curv = profiles.rho_many(spec, grid)
        margin = curv + value
        assert float(margin.min()) == 0.0
        assert not (margin < 0.0).any()

        report = profiles.verify_profile(
            WarpingProfile.interpolated(2.0), 20.0, 1e-4)
        check = _check(report, "step_convexity_margin")
        assert check.passed
        assert check.worst_value == 0.0

    def test_unit_ramp_fails_convexity_margin(self):
        report = profiles.verify_profile(
            WarpingProfile.interpolated(1.0), 20.0, 1e-4)
        assert not report.all_passed
        check = _check(report, "step_convexity_margin")
        assert not check.passed
        assert check.worst_value == pytest.approx(
            UNIT_RAMP_MIN_COARSE, rel=1e-12)
        assert check.worst_value == pytest.approx(
            UNIT_RAMP_MIN_GRID, abs=5e-7)
        assert check.worst_location == pytest.approx(
            UNIT_RAMP_ARGMIN_GRID, abs=1e-3)
        # other checks are unaffected by the convexity failure
        assert _check(report, "sigma_nonneg").passed
        assert _check(report, "tau_nonneg").passed

    def test_unit_ramp_dense_scan_frozen(self):
        spec = BumpSpec(1.0)
        grid = np.arange(1.0, 3.0, 1e-6)
        value, _, curv = profiles.rho_many(spec, grid)
        margin = curv + value
        i = int(np.argmin(margin))
        assert float(margin[i]) == pytest.approx(UNIT_RAMP_MIN_GRID,
                                                 rel=1e-12)
        assert float(grid[i]) == pytest.approx(UNIT_RAMP_ARGMIN_GRID,
                                               abs=1e-9)

        refined = minimize_scalar(
            lambda r: sum(ramp_step(spec, r)[::2]),
            bounds=(float(grid[i]) - 2e-6, float(grid[i]) + 2e-6),
            method="bounded", options={"xatol": 1e-12})
        assert float(refined.fun) == pytest.approx(UNIT_RAMP_MIN_REFINED,
                                                   abs=1e-10)
        assert float(refined.x) == pytest.approx(UNIT_RAMP_ARGMIN_REFINED,
                                                 abs=1e-6)

    @pytest.mark.parametrize("variant", ["flat_profile", "hyperbolic_profile",
                                         "ramp19"])
    def test_step_evaluated_once(self, request, monkeypatch, variant):
        profile = request.getfixturevalue(variant)
        rho_many = profiles.rho_many
        calls = []

        def counted(spec, rs):
            calls.append(len(rs))
            return rho_many(spec, rs)

        monkeypatch.setattr(profiles, "rho_many", counted)
        report = profiles.verify_profile(profile, 45.0, 1e-2)
        assert calls == ([4501] if profile.bump is not None else [])
        monkeypatch.undo()
        assert report == profiles.verify_profile(profile, 45.0, 1e-2)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", ["hyperbolic_profile", "ramp19"])
    def test_grid_past_the_profile_range_raises(self, request, variant):
        # the first grid radius where sinh or cosh overflows, as the scalar
        # jet finds it: 710.476 on the 1e-3 grid, 710.5 on the 0.5 grid
        profile = request.getfixturevalue(variant)
        for grid_max, step, first in ((800.0, 1e-3, "710.476"),
                                      (720.0, 0.5, "710.5")):
            with pytest.raises(ValueError, match=f"r = {first} is past"):
                profiles.verify_profile(profile, grid_max, step)
            with pytest.raises(OverflowError):
                profile.sigma_tau(float(first))
        assert profiles.verify_profile(profile, 710.475, 1e-3).all_passed

    def test_report_metadata(self, ramp19):
        report = profiles.verify_profile(ramp19, 60.0, 1e-3)
        assert report.k == 19.0
        assert report.grid_max == 60.0
        assert report.grid_step == 1e-3
        assert report.slack == -1e-10


def _check(report, name):
    matches = [c for c in report.checks if c.name == name]
    assert len(matches) == 1
    return matches[0]


# ---------------------------------------------------------------------------
# curvature ratios (cancellation-free building blocks used downstream)
# ---------------------------------------------------------------------------

class TestCurvatureRatios:
    def test_flat_ratios_vanish(self, flat_profile):
        assert flat_profile.curvature_ratios(0.7) == (0.0, 0.0, 0.0, 0.0)

    def test_hyperbolic_ratios_are_minus_one(self, hyperbolic_profile):
        for r in (0.3, 1.0, 5.0, 20.0):
            assert_close(hyperbolic_profile.curvature_ratios(r),
                         [-1.0, -1.0, -1.0, -1.0], rel=1e-12)

    def test_ramp_ratios_match_direct_quotients(self, ramp19):
        for r in (0.5, 2.0, 19.0, 35.0):
            s, sp, spp, t, tp, tpp = ramp19.sigma_tau(r)
            direct = (-spp / s, -(sp * sp - 1.0) / (s * s),
                      -tpp / t, -sp * tp / (s * t))
            assert_close(ramp19.curvature_ratios(r), direct,
                         rel=1e-9, abs_tol=1e-12)

    def test_ratios_nonpositive_everywhere(self, ramp19):
        for r in np.geomspace(1e-4, 60.0, 200):
            ratios = ramp19.curvature_ratios(float(r))
            assert max(ratios) <= 1e-12
