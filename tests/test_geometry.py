"""Metric, Christoffel, curvature-tensor, and curvature-scan tests.

Frozen constants come from the analytic closed forms after confirmation
against a finite-difference route re-run in-test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatflat import geometry
from fatflat.geometry import (ChartDomainError, DegeneratePlaneError,
                              MetricChart)

from conftest import assert_close, sample_stream


def metric_inverse(point):
    """Oracle: the inverse metric at the point as the Christoffel route
    forms it from the metric."""
    g = geometry._metric_jets(point.chart, point.coords, 0)[0]
    return geometry._metric_inverse_raw(point.chart, point.coords, g)

# six curvature components at (r=19.5, theta=0.7) for the k=19 profile,
# in field order (theta_r, phi_r, z_r, phi_theta, theta_z, phi_z)
FROZEN_COMPONENTS_19_5 = (
    -6821718899073327.0,
    -2831125414064628.0,
    -6821718112258368.0,
    -1.6643768463576918e+31,
    -4.0103874084254634e+31,
    -1.6643766593461426e+31,
)

# sectional curvature of the radial/axis coordinate plane at r=19, k=19
FROZEN_RADIAL_AXIS_SECTIONAL = -1.1752641574406042

# extremes of a 2000-sample four_d_model scan (k=19, seed 42) and their
# coordinates, bit for bit as the chart gave them when it was a chart kind
# of its own; the minimum is the one it reads with rho rounded from a
# 40-digit mpmath integral at its radius (-0x1.abdad50c79dcep+0 with the
# Gauss-panel table)
FROZEN_FOUR_D_SCAN_MAX = ("0x0.0p+0", [
    "0x1.38d4c65945d8ap-6", "0x1.4a1cb7c2beef7p+1", "0x1.041a4f4512b77p+1",
    "-0x1.059602828c584p-1"])
FROZEN_FOUR_D_SCAN_MIN = ("-0x1.abdad50c79dd2p+0", [
    "0x1.f7c1f47de7e7dp+2", "0x1.8aae0dba3afd4p+1", "0x1.0bf062b45cc27p+1",
    "-0x1.b14f7c08362acp-1"])

# lowered-index positions of the six distinguished components in the
# four-coordinate chart (r, theta, phi, z)
COMPONENT_INDEX = {
    "theta_r": (1, 0, 1, 0),
    "phi_r": (2, 0, 2, 0),
    "z_r": (3, 0, 3, 0),
    "phi_theta": (2, 1, 2, 1),
    "theta_z": (1, 3, 1, 3),
    "phi_z": (2, 3, 2, 3),
}
FIELD_ORDER = ("theta_r", "phi_r", "z_r", "phi_theta", "theta_z", "phi_z")


def polar_jacobian_2d(r, theta):
    """d(x1, x2, z)/d(r, theta, z) for the 2-dimensional block."""
    return np.array([
        [math.cos(theta), -r * math.sin(theta), 0.0],
        [math.sin(theta), r * math.cos(theta), 0.0],
        [0.0, 0.0, 1.0],
    ])


# ---------------------------------------------------------------------------
# metric tensor
# ---------------------------------------------------------------------------

class TestMetricTensor:
    def test_flat_cartesian_is_identity(self, flat_profile):
        for n in (1, 2):
            chart = MetricChart.cartesian(flat_profile, n)
            coords = np.linspace(-0.7, 0.9, chart.dim)
            g = geometry.metric_tensor(chart.point(coords))
            assert_close(g, np.eye(chart.dim), abs_tol=1e-15)

    def test_hyperbolic_polar_diagonal(self, hyperbolic_profile):
        chart = MetricChart.polar(hyperbolic_profile, 1)
        g = geometry.metric_tensor(chart.point([1.0, 0.3, -0.2]))
        expected = np.diag([1.0, math.sinh(1.0) ** 2, math.cosh(1.0) ** 2])
        assert_close(g, expected, rel=1e-14, abs_tol=1e-15)

    @pytest.mark.parametrize("r,theta", [
        (0.5, 0.0), (0.5, 2.1), (1.0, 0.8), (19.3, 4.0), (40.0, 1.2),
    ])
    def test_cartesian_matches_polar_pullback(self, ramp19, r, theta):
        polar = MetricChart.polar(ramp19, 1)
        cart = MetricChart.cartesian(ramp19, 1)
        z = 0.4
        x = np.array([r * math.cos(theta), r * math.sin(theta), z])
        g_cart = geometry.metric_tensor(cart.point(x))
        g_polar = geometry.metric_tensor(polar.point([r, theta, z]))
        jac = polar_jacobian_2d(r, theta)
        pulled_back = jac.T @ g_cart @ jac
        scale = float(np.max(np.abs(g_polar)))
        assert_close(pulled_back, g_polar, abs_tol=1e-12 * scale)

    def test_positive_definite_at_samples(self, ramp19, hyperbolic_profile):
        rng = np.random.default_rng(11)
        charts = [
            MetricChart.polar(ramp19, 1),
            MetricChart.cartesian(ramp19, 2),
            MetricChart.four_d_model(ramp19),
            MetricChart.cartesian(hyperbolic_profile, 1),
        ]
        for chart in charts:
            region = geometry.default_region(chart, r_max=8.0)
            for _ in range(5):
                coords = rng.uniform(region.lo, region.hi)
                g = geometry.metric_tensor(chart.point(coords))
                assert_close(g, g.T, abs_tol=1e-14 * max(1.0, np.max(np.abs(g))))
                assert np.linalg.eigvalsh(g).min() > 0.0

    def test_cartesian_axis_point_is_smooth(self, ramp19,
                                            hyperbolic_profile):
        for prof in (ramp19, hyperbolic_profile):
            chart = MetricChart.cartesian(prof, 1)
            g0 = geometry.metric_tensor(chart.point([0.0, 0.0, 0.0]))
            assert_close(g0, np.eye(3), abs_tol=1e-12)

    def test_cartesian_series_joins_direct_formula(self, hyperbolic_profile):
        chart = MetricChart.cartesian(hyperbolic_profile, 1)
        r_lo, r_hi = 0.99e-6, 1.01e-6
        g_lo = geometry.metric_tensor(chart.point([r_lo, 0.0, 0.0]))
        g_hi = geometry.metric_tensor(chart.point([r_hi, 0.0, 0.0]))
        assert_close(g_lo, g_hi, abs_tol=1e-12)
        # sphere-block entry follows (sinh r / r)^2 = 1 + r^2/3 + ...
        g = geometry.metric_tensor(chart.point([1e-5, 0.0, 0.0]))
        assert g[1, 1] == pytest.approx(1.0 + 1e-10 / 3.0, abs=1e-14)

    @pytest.mark.parametrize("variant", ["flat_profile", "hyperbolic_profile",
                                         "ramp19"])
    def test_cartesian_adapted_parts_on_axis(self, request, variant):
        # within R_MIN of the axis the adapted frame takes x-hat = e_0 and
        # sigma/r = 1; the dot products of the parts are the metric there
        profile = request.getfixturevalue(variant)
        rng = np.random.default_rng(21)
        for n in (1, 2):
            chart = MetricChart.cartesian(profile, n)
            for r in (0.0, 1e-12, 3e-9, 0.99e-8):
                direction = rng.standard_normal(chart.block_dim)
                x = np.array([*(r / np.linalg.norm(direction) * direction),
                              0.3])
                vecs = rng.standard_normal((3, chart.dim))
                st = profile.sigma_tau(chart.radius_of(x))
                a = geometry.adapted_components_raw(chart, x, vecs, st[0],
                                                    st[3])
                g = geometry.metric_tensor(chart.point(x))
                assert_close(a @ a.T, vecs @ g @ vecs.T, abs_tol=1e-14)

    def test_cartesian_coefficients_declare_their_range(self,
                                                        hyperbolic_profile):
        # the nine axis coefficients are finite up to r ~ 351.9; beyond,
        # a typed error naming the radius instead of inf, NaN or a bare
        # OverflowError (sinh leaves double range from r ~ 355.5)
        jets = geometry.axis_coefficient_jets(hyperbolic_profile, 300.0)
        assert all(map(math.isfinite, jets))
        for r in (354.0, 400.0):
            with pytest.raises(ChartDomainError, match=rf"r = {r:.0f}\b"):
                geometry.axis_coefficient_jets(hyperbolic_profile, r)
        chart = MetricChart.cartesian(hyperbolic_profile, 1)
        with pytest.raises(ChartDomainError, match=r"r = 400\b"):
            geometry.metric_tensor(chart.point([240.0, 320.0, 0.0]))

    def test_empty_block_rejected(self, ramp19):
        for build in (MetricChart.polar, MetricChart.cartesian):
            with pytest.raises(ValueError):
                build(ramp19, 0)

    def test_polar_rejects_axis(self, ramp19):
        chart = MetricChart.polar(ramp19, 1)
        with pytest.raises(ChartDomainError):
            chart.point([0.0, 0.0, 0.0])

    def test_inverse_is_matrix_inverse(self, ramp19):
        chart = MetricChart.four_d_model(ramp19)
        point = chart.point([2.7, 1.1, 0.4, -0.6])
        g = geometry.metric_tensor(point)
        ginv = metric_inverse(point)
        assert_close(g @ ginv, np.eye(4), abs_tol=1e-12)


# ---------------------------------------------------------------------------
# Christoffel symbols
# ---------------------------------------------------------------------------

class TestChristoffel:
    def test_flat_cartesian_vanishes(self, flat_profile):
        chart = MetricChart.cartesian(flat_profile, 1)
        gamma = geometry.christoffel(chart.point([0.4, -0.9, 1.7]))
        assert np.max(np.abs(gamma)) == 0.0

    def test_hyperbolic_radial_angular_entry(self, hyperbolic_profile):
        chart = MetricChart.polar(hyperbolic_profile, 1)
        gamma = geometry.christoffel(chart.point([1.0, 0.2, 0.0]))
        assert gamma[0, 1, 1] == pytest.approx(
            -math.sinh(1.0) * math.cosh(1.0), rel=1e-12)
        assert_close(gamma, np.swapaxes(gamma, 1, 2), abs_tol=1e-14)

    @pytest.mark.parametrize("coords", [
        (19.0, 1.1, 0.3), (2.0, 0.6, -0.5), (0.07, 2.9, 0.0),
    ])
    def test_matches_finite_difference_of_metric(self, ramp19, coords):
        chart = MetricChart.polar(ramp19, 1)
        point = chart.point(list(coords))
        gamma = geometry.christoffel(point)

        h = 1e-5
        dim = chart.dim
        dg = np.zeros((dim, dim, dim))
        for a in range(dim):
            up = np.array(coords, dtype=float)
            dn_ = np.array(coords, dtype=float)
            up[a] += h
            dn_[a] -= h
            dg[a] = (geometry.metric_tensor(chart.point(up))
                     - geometry.metric_tensor(chart.point(dn_))) / (2 * h)
        ginv = metric_inverse(point)
        # assemble 1/2 g^{il} (d_j g_lk + d_k g_lj - d_l g_jk); dg[a] holds
        # the a-derivative of the metric matrix
        fd_gamma = 0.5 * np.einsum("il,jkl->ijk", ginv,
                                   np.einsum("jlk->jkl", dg)
                                   + np.einsum("klj->jkl", dg)
                                   - np.einsum("ljk->jkl", dg))
        scale = max(1.0, float(np.max(np.abs(gamma))))
        assert_close(fd_gamma, gamma, abs_tol=1e-6 * scale)


# ---------------------------------------------------------------------------
# curvature tensor
# ---------------------------------------------------------------------------

class TestRiemannTensor:
    def test_flat_vanishes(self, flat_profile):
        chart = MetricChart.cartesian(flat_profile, 1)
        rie = geometry.riemann(chart.point([0.3, 0.8, -1.1]))
        assert np.max(np.abs(rie)) <= 1e-12

    def test_hyperbolic_component(self, hyperbolic_profile):
        chart = MetricChart.four_d_model(hyperbolic_profile)
        rie = geometry.riemann(chart.point([1.0, math.pi / 2, 0.7, 0.0]))
        assert rie[1, 0, 1, 0] == pytest.approx(-math.sinh(1.0) ** 2,
                                                rel=1e-9)

    def test_matches_closed_form_components(self, ramp19, four_d_19):
        point = four_d_19.point([19.0, 1.0, 0.5, 0.2])
        rie = geometry.riemann(point)
        closed = geometry.curvature_components_closed_form(ramp19, 19.0, 1.0)
        for name, idx in COMPONENT_INDEX.items():
            expected = getattr(closed, name)
            assert rie[idx] == pytest.approx(expected, rel=1e-8), name

    def test_finite_difference_route_agrees(self, ramp19, four_d_19):
        point = four_d_19.point([19.0, 1.0, 0.5, 0.2])
        rie_fd = geometry.riemann_fd(point)
        closed = geometry.curvature_components_closed_form(ramp19, 19.0, 1.0)
        for name, idx in COMPONENT_INDEX.items():
            expected = getattr(closed, name)
            assert rie_fd[idx] == pytest.approx(expected, rel=1e-5), name

    @pytest.mark.parametrize("builder,coords", [
        ("four_d_ramp", (2.0, 0.9, 1.3, 0.4)),
        ("four_d_ramp", (19.5, 0.7, 2.0, -0.3)),
        ("polar2_hyp", (1.3, 1.0, 0.8, 2.2, 0.1)),
        ("cartesian_ramp", (1.2, -0.4, 0.3)),
    ])
    def test_symmetries_and_cyclic_identity(self, ramp19,
                                            hyperbolic_profile,
                                            builder, coords):
        chart = {
            "four_d_ramp": lambda: MetricChart.four_d_model(ramp19),
            "polar2_hyp": lambda: MetricChart.polar(hyperbolic_profile, 2),
            "cartesian_ramp": lambda: MetricChart.cartesian(ramp19, 1),
        }[builder]()
        rie = geometry.riemann(chart.point(list(coords)))
        scale = max(1.0, float(np.max(np.abs(rie))))
        tol = 1e-9 * scale
        assert np.max(np.abs(rie + np.swapaxes(rie, 0, 1))) <= tol
        assert np.max(np.abs(rie + np.swapaxes(rie, 2, 3))) <= tol
        assert np.max(np.abs(rie - rie.transpose(2, 3, 0, 1))) <= tol
        cyclic = rie + rie.transpose(0, 2, 3, 1) + rie.transpose(0, 3, 1, 2)
        assert np.max(np.abs(cyclic)) <= tol


# ---------------------------------------------------------------------------
# closed-form components
# ---------------------------------------------------------------------------

class TestClosedFormComponents:
    def test_flat_all_zero(self, flat_profile):
        comps = geometry.curvature_components_closed_form(flat_profile,
                                                          2.0, 1.0)
        assert comps.as_tuple() == (0.0,) * 6

    def test_hyperbolic_unit_sectional_everywhere(self, hyperbolic_profile):
        r, theta = 1.0, math.pi / 2
        comps = geometry.curvature_components_closed_form(
            hyperbolic_profile, r, theta)
        sh2 = math.sinh(r) ** 2
        ch2 = math.cosh(r) ** 2
        sin2 = math.sin(theta) ** 2
        gram = {
            "theta_r": sh2,
            "phi_r": sh2 * sin2,
            "z_r": ch2,
            "phi_theta": sh2 * sh2 * sin2,
            "theta_z": sh2 * ch2,
            "phi_z": sh2 * sin2 * ch2,
        }
        for name in FIELD_ORDER:
            k = getattr(comps, name) / gram[name]
            assert k == pytest.approx(-1.0, rel=1e-12), name

    def test_frozen_values(self, ramp19):
        comps = geometry.curvature_components_closed_form(ramp19, 19.5, 0.7)
        assert_close(comps.as_tuple(), FROZEN_COMPONENTS_19_5, rel=1e-12)

    def test_nonpositive_on_grid(self, ramp19):
        rs = np.geomspace(1e-3, 45.0, 40)
        thetas = np.linspace(0.05, math.pi - 0.05, 25)
        for r in rs:
            for theta in thetas:
                comps = geometry.curvature_components_closed_form(
                    ramp19, float(r), float(theta))
                assert comps.max_value <= 1e-12

    def test_past_sigma4_range_raises_typed_error(self, ramp19,
                                                   hyperbolic_profile):
        # sigma^4 ~ e^(4r)/16 leaves double range at r ~ 178: a typed error
        # naming the radius, not a bare OverflowError
        for profile in (ramp19, hyperbolic_profile):
            with pytest.raises(ChartDomainError, match=r"r = 200\b"):
                geometry.curvature_components_closed_form(profile, 200.0,
                                                          1.0)
        with pytest.raises(ChartDomainError, match=r"r = 800\b"):
            geometry.curvature_components_closed_form(ramp19, 800.0, 1.0)
        below = geometry.curvature_components_closed_form(ramp19, 178.0, 1.0)
        assert all(map(math.isfinite, below.as_tuple()))

    def test_domain_validation(self, ramp19):
        with pytest.raises(ValueError):
            geometry.curvature_components_closed_form(ramp19, 0.0, 1.0)
        with pytest.raises(ValueError):
            geometry.curvature_components_closed_form(ramp19, 1.0, 0.0)


# ---------------------------------------------------------------------------
# curvature operator M[i, j] = R(w_i, v, w_j, v)
# ---------------------------------------------------------------------------

def polarized_operator(ratios, w, v):
    """M by polarization of the scalar shadow-area numerator R(w, v, w, v):
    the route the closed form in curvature_numerator replaced."""
    k1, k2, k3, k4 = ratios
    vr, vs, vz = v[0], v[1:-1], v[-1]

    def q(ur, us, uz):
        return (k1 * np.sum((ur * vs - vr * us) ** 2)
                + k2 * (np.sum(us * us) * np.sum(vs * vs)
                        - np.sum(us * vs) ** 2)
                + k3 * (ur * vz - vr * uz) ** 2
                + k4 * np.sum((uz * vs - vz * us) ** 2))

    wr, ws, wz = w[:, 0], w[:, 1:-1], w[:, -1]
    m = len(wr)
    out = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            out[i, j] = 0.25 * (q(wr[i] + wr[j], ws[i] + ws[j], wz[i] + wz[j])
                                - q(wr[i] - wr[j], ws[i] - ws[j],
                                    wz[i] - wz[j]))
    return out


def operator_point(profile, kind, r, rng):
    """A chart of ``kind`` and coordinates at radius r, angles drawn away
    from the coordinate poles."""
    z = rng.uniform(-1.0, 1.0)
    if kind == "cartesian":
        phi = rng.uniform(0.0, 2 * math.pi)
        return (MetricChart.cartesian(profile, 1),
                np.array([r * math.cos(phi), r * math.sin(phi), z]))
    if kind == "four_d":
        return (MetricChart.four_d_model(profile),
                np.array([r, rng.uniform(0.1, math.pi - 0.1),
                          rng.uniform(0.0, 2 * math.pi), z]))
    n = 1 if kind == "polar1" else 2
    chart = MetricChart.polar(profile, n)
    inner = rng.uniform(0.1, math.pi - 0.1, chart.block_dim - 2)
    return chart, np.array([r, *inner, rng.uniform(0.0, 2 * math.pi), z])


def closed_form_operator(chart, coords, v, w_rows):
    jet, ratios = chart.profile.jet_ratios(chart.radius_of(coords))
    a = geometry.adapted_components_raw(
        chart, coords, np.vstack([v, w_rows]), jet[0], jet[3])
    return (geometry.curvature_numerator(ratios, a[1:], a[0]),
            polarized_operator(ratios, a[1:], a[0]))


OPERATOR_CHARTS = ("polar1", "polar2", "four_d", "cartesian")


class TestCurvatureOperator:
    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(OPERATOR_CHARTS),
           # flat tube (r <= 1/19), ramp, hyperbolic piece (r >= 38.05)
           r=st.one_of(st.floats(0.01, 0.05), st.floats(0.06, 38.0),
                       st.floats(38.1, 60.0)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_closed_form_matches_polarization(self, ramp19, kind, r, seed):
        rng = np.random.default_rng(seed)
        chart, coords = operator_point(ramp19, kind, r, rng)
        v = rng.standard_normal(chart.dim)
        w_rows = rng.standard_normal((chart.dim - 1, chart.dim))
        closed, polarized = closed_form_operator(chart, coords, v, w_rows)
        assert closed.shape == (chart.dim - 1, chart.dim - 1)
        scale = max(1.0, float(np.max(np.abs(closed))))
        assert np.max(np.abs(closed - polarized)) <= 1e-12 * scale

    @pytest.mark.parametrize("kind", OPERATOR_CHARTS)
    def test_diagonal_matches_tensor_contraction(self, ramp19, kind):
        # an independent route: R(w, v, w, v) contracted from the Riemann
        # tensor of the chart's closed-form metric jets
        rng = np.random.default_rng(11)
        for r in (0.5, 3.0, 12.0):
            chart, coords = operator_point(ramp19, kind, r, rng)
            v = rng.standard_normal(chart.dim)
            w_rows = rng.standard_normal((chart.dim - 1, chart.dim))
            closed, _ = closed_form_operator(chart, coords, v, w_rows)
            rie = geometry.riemann(chart.point(coords))
            tensor = np.einsum("ijkl,ai,j,bk,l->ab", rie, w_rows, v, w_rows,
                               v)
            scale = max(1.0, float(np.max(np.abs(tensor))))
            assert np.max(np.abs(closed - tensor)) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# sectional curvature
# ---------------------------------------------------------------------------

class TestSectionalCurvature:
    def test_hyperbolic_minus_one_random_planes(self, hyperbolic_profile):
        rng = np.random.default_rng(5)
        charts = [MetricChart.four_d_model(hyperbolic_profile),
                  MetricChart.polar(hyperbolic_profile, 2)]
        for chart in charts:
            region = geometry.default_region(chart)
            for _ in range(40):
                coords = rng.uniform(region.lo, region.hi)
                point = chart.point(coords)
                u = rng.standard_normal(chart.dim)
                v = rng.standard_normal(chart.dim)
                k = geometry.sectional_curvature(geometry.plane(point, u, v))
                assert k == pytest.approx(-1.0, abs=1e-8)

    def test_flat_zero_random_planes(self, flat_profile):
        rng = np.random.default_rng(6)
        chart = MetricChart.cartesian(flat_profile, 1)
        for _ in range(40):
            coords = rng.uniform(-2.0, 2.0, chart.dim)
            point = chart.point(coords)
            u = rng.standard_normal(chart.dim)
            v = rng.standard_normal(chart.dim)
            k = geometry.sectional_curvature(geometry.plane(point, u, v))
            assert abs(k) <= 1e-12

    @pytest.mark.parametrize("variant,expected", [("ramp19", 0.0),
                                                  ("hyperbolic_profile", -1.0)])
    def test_cartesian_axis_is_isotropic(self, request, variant, expected):
        # within R_MIN of the axis every plane reads the common principal
        # ratio
        chart = MetricChart.cartesian(request.getfixturevalue(variant), 2)
        rng = np.random.default_rng(8)
        for x0 in (0.0, 3e-9):
            point = chart.point([x0, 0.0, 0.0, 0.0, 0.4])
            u = rng.standard_normal(chart.dim)
            v = rng.standard_normal(chart.dim)
            k = geometry.sectional_curvature(geometry.plane(point, u, v))
            assert k == expected

    def test_basis_invariance(self, four_d_19):
        rng = np.random.default_rng(7)
        point = four_d_19.point([19.0, 1.0, 1.0, 0.0])
        u = rng.standard_normal(4)
        v = rng.standard_normal(4)
        k0 = geometry.sectional_curvature(geometry.plane(point, u, v))
        for _ in range(10):
            a, b, c, d = rng.uniform(-2.0, 2.0, 4)
            if abs(a * d - b * c) < 0.1:
                continue
            k1 = geometry.sectional_curvature(
                geometry.plane(point, a * u + b * v, c * u + d * v))
            assert k1 == pytest.approx(k0, rel=1e-9)

    def test_frozen_radial_axis_plane(self, ramp19, four_d_19):
        point = four_d_19.point([19.0, 1.0, 1.0, 0.0])
        u = np.array([1.0, 0.0, 0.0, 0.0])
        v = np.array([0.0, 0.0, 0.0, 1.0])
        k = geometry.sectional_curvature(geometry.plane(point, u, v))
        assert k == pytest.approx(FROZEN_RADIAL_AXIS_SECTIONAL, rel=1e-12)

        # dual route: distinguished component over its coordinate areas
        comps = geometry.curvature_components_closed_form(ramp19, 19.0, 1.0)
        g = geometry.metric_tensor(point)
        assert comps.z_r / (g[0, 0] * g[3, 3]) == pytest.approx(k, rel=1e-12)

        # and the direct profile quotient for the same plane
        _, _, _, tau, _, tau_pp = ramp19.sigma_tau(19.0)
        assert -tau_pp / tau == pytest.approx(k, rel=1e-12)

    def test_coordinate_plane_curvatures_match_components(self, ramp19,
                                                          four_d_19):
        pair_of = {
            "theta_r": (1, 0), "phi_r": (2, 0), "z_r": (3, 0),
            "phi_theta": (2, 1), "theta_z": (1, 3), "phi_z": (2, 3),
        }
        for r, theta in ((0.7, 1.2), (5.0, 0.4), (19.5, 0.7), (41.0, 2.0)):
            point = four_d_19.point([r, theta, 1.0, 0.0])
            g = geometry.metric_tensor(point)
            comps = geometry.curvature_components_closed_form(ramp19, r,
                                                              theta)
            for name, (i, j) in pair_of.items():
                u = np.zeros(4)
                v = np.zeros(4)
                u[i] = 1.0
                v[j] = 1.0
                k = geometry.sectional_curvature(geometry.plane(point, u, v))
                expected = getattr(comps, name) / (g[i, i] * g[j, j])
                assert k == pytest.approx(expected, rel=1e-9, abs=1e-14), name

    @pytest.mark.parametrize("r", [1e-3, 0.02, 0.7, 5.0, 19.0, 38.0, 44.0])
    def test_chart_independence(self, ramp19, r):
        rng = np.random.default_rng(int(r * 1000) + 3)
        polar = MetricChart.polar(ramp19, 1)
        point = polar.point([r, 0.9, 0.1])
        for _ in range(3):
            u = rng.standard_normal(3)
            v = rng.standard_normal(3)
            k_polar = geometry.sectional_curvature(
                geometry.plane(point, u, v))
            cart_point, u_c = geometry.polar_to_cartesian(point, u)
            _, v_c = geometry.polar_to_cartesian(point, v)
            k_cart = geometry.sectional_curvature(
                geometry.plane(cart_point, u_c, v_c))
            assert k_cart == pytest.approx(k_polar, rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("kind", ["four_d", "polar1", "polar2"])
    def test_ratio_route_matches_tensor_route(self, ramp19, kind):
        # the Riemann-tensor contraction is the independent cross-check of
        # the principal-ratio route: flat-tube, ramp and hyperbolic radii
        rng = np.random.default_rng(17)
        for r in (0.01, 0.04, 0.3, 2.0, 9.0, 25.0, 37.0, 45.0, 70.0, 100.0):
            chart, coords = operator_point(ramp19, kind, r, rng)
            point = chart.point(coords)
            rie = geometry.riemann(point)
            for _ in range(4):
                pl = geometry.plane(point, rng.standard_normal(chart.dim),
                                    rng.standard_normal(chart.dim))
                k_ratio = geometry.sectional_curvature(pl)
                k_tensor = geometry.sectional_curvature(pl, rie)
                assert type(k_ratio) is float and type(k_tensor) is float
                assert abs(k_ratio - k_tensor) <= 1e-8 * max(1.0,
                                                            abs(k_tensor))

    def test_degenerate_plane_rejected(self, four_d_19):
        point = four_d_19.point([2.0, 1.0, 1.0, 0.0])
        u = np.array([1.0, 0.5, 0.0, 0.0])
        with pytest.raises(DegeneratePlaneError):
            geometry.sectional_curvature(geometry.plane(point, u, 2.0 * u))
        with pytest.raises(DegeneratePlaneError):
            geometry.plane(point, u[:3], u[:3])


# ---------------------------------------------------------------------------
# chart maps
# ---------------------------------------------------------------------------

class TestChartMaps:
    @pytest.mark.parametrize("block_dim", [2, 3, 4, 6])
    def test_jacobian_is_the_derivative_of_the_map(self, block_dim):
        # central differences of the polar -> Cartesian map, and orthogonal
        # columns of norms 1, r, r sin a_1, ..., r sin a_1 ... sin a_(d-2)
        # for (r, a_1, ..., a_(d-1)), then 1 for z
        rng = np.random.default_rng(block_dim)
        h = 1e-6
        for _ in range(5):
            r = rng.uniform(0.1, 20.0)
            angles = [*rng.uniform(0.2, math.pi - 0.2, block_dim - 2),
                      rng.uniform(0.0, 2 * math.pi)]
            coords = np.array([r, *angles, rng.uniform(-1.0, 1.0)])
            _, jac = geometry._polar_map(coords)
            fd = np.empty_like(jac)
            for k, step in enumerate(h * np.eye(len(coords))):
                fd[:, k] = (geometry._polar_map(coords + step)[0]
                            - geometry._polar_map(coords - step)[0]) / (2 * h)
            assert_close(jac, fd, abs_tol=1e-8 * r)
            norms = [1.0] + [r * math.prod(np.sin(angles[:j]))
                             for j in range(block_dim - 1)] + [1.0]
            assert_close(jac.T @ jac, np.diag(np.square(norms)),
                         abs_tol=1e-13 * r * r)


# ---------------------------------------------------------------------------
# nonpositivity scans
# ---------------------------------------------------------------------------

class TestScans:
    def test_ramp_scan_nonpositive(self, four_d_19):
        report = geometry.scan_nonpositive(four_d_19, 2000, seed=42)
        assert report.samples == 2000
        assert report.max_curvature <= 1e-9
        for value, coords, frozen in (
                (report.max_curvature, report.max_coords,
                 FROZEN_FOUR_D_SCAN_MAX),
                (report.min_curvature, report.min_coords,
                 FROZEN_FOUR_D_SCAN_MIN)):
            assert (value.hex(), [c.hex() for c in coords]) == frozen

    def test_hyperbolic_scan_pinned_at_minus_one(self, hyperbolic_profile):
        for chart in (MetricChart.four_d_model(hyperbolic_profile),
                      MetricChart.polar(hyperbolic_profile, 2)):
            report = geometry.scan_nonpositive(chart, 1000, seed=7)
            assert report.max_curvature == pytest.approx(-1.0, abs=1e-8)
            assert report.min_curvature == pytest.approx(-1.0, abs=1e-8)

    def test_flat_scan_pinned_at_zero(self, flat_profile):
        chart = MetricChart.cartesian(flat_profile, 1)
        report = geometry.scan_nonpositive(chart, 1000, seed=1)
        assert abs(report.max_curvature) <= 1e-12
        assert abs(report.min_curvature) <= 1e-12

    def test_scan_deterministic_and_thread_independent(self, four_d_19):
        first = geometry.scan_nonpositive(four_d_19, 500, seed=9)
        second = geometry.scan_nonpositive(four_d_19, 500, seed=9)
        assert first.max_curvature == second.max_curvature
        assert first.max_coords == second.max_coords
        assert first.min_curvature == second.min_curvature
        assert first.min_coords == second.min_coords

    def test_non_finite_samples_fail_the_scan(self, hyperbolic_profile,
                                              monkeypatch):
        # one sample whose ratios are NaN: the extremes must be NaN at that
        # sample's coordinates, whatever the other samples read
        chart = MetricChart.four_d_model(hyperbolic_profile)
        region = geometry.Box((249.0, 0.05, 0.0, -2.0),
                              (250.0, math.pi - 0.05, 2 * math.pi, 2.0))
        lo, hi = np.array(region.lo), np.array(region.hi)
        bad_r = float(lo[0] + sample_stream(0, 7).random(4)[0]
                      * (hi[0] - lo[0]))
        jet_ratios = type(hyperbolic_profile).jet_ratios

        def poisoned(self, r):
            jet, ratios = jet_ratios(self, r)
            return jet, ((math.nan,) * 4 if r == bad_r else ratios)

        monkeypatch.setattr(type(hyperbolic_profile), "jet_ratios", poisoned)
        report = geometry.scan_nonpositive(chart, 20, seed=0, region=region)
        assert math.isnan(report.max_curvature)
        assert math.isnan(report.min_curvature)
        assert report.max_coords is not None
        assert report.max_coords == report.min_coords
        assert 249.0 <= report.max_coords[0] <= 250.0
        assert not report.max_curvature <= 0.0
        assert report.max_coords[0] == bad_r

    @pytest.mark.parametrize("kind", ["four_d", "polar3"])
    def test_scan_exact_past_tensor_overflow(self, hyperbolic_profile, kind):
        # sigma^4 ~ e^(4r) has left double range at r = 249, where the
        # tensor route overflows; the principal-ratio route stays exact
        if kind == "four_d":
            chart = MetricChart.four_d_model(hyperbolic_profile)
            region = geometry.Box((249.0, 0.05, 0.0, -2.0),
                                  (250.0, math.pi - 0.05, 2 * math.pi, 2.0))
        else:
            chart = MetricChart.polar(hyperbolic_profile, 1)
            region = geometry.Box((249.0, 0.0, -2.0),
                                  (250.0, 2 * math.pi, 2.0))
        report = geometry.scan_nonpositive(chart, 20, seed=0, region=region)
        assert report.max_curvature == pytest.approx(-1.0, abs=1e-8)
        assert report.min_curvature == pytest.approx(-1.0, abs=1e-8)

    def test_scan_past_metric_range_raises(self, hyperbolic_profile):
        # sigma^2 ~ e^(2r)/4 overflows from r ~ 355: a typed error naming
        # the radius, not a degenerate plane
        chart = MetricChart.four_d_model(hyperbolic_profile)
        region = geometry.Box((400.0, 0.05, 0.0, -2.0),
                              (401.0, math.pi - 0.05, 2 * math.pi, 2.0))
        with pytest.raises(ChartDomainError, match=r"r = 40[01]\."):
            geometry.scan_nonpositive(chart, 20, seed=0, region=region)
        far = geometry.Box((800.0, 0.05, 0.0, -2.0),
                           (801.0, math.pi - 0.05, 2 * math.pi, 2.0))
        with pytest.raises(ChartDomainError, match=r"r = 80[01]\."):
            geometry.scan_nonpositive(chart, 20, seed=0, region=far)
        point = chart.point([400.5, 1.0, 1.0, 0.0])
        with pytest.raises(ChartDomainError, match=r"r = 400\.5"):
            geometry.sectional_curvature(
                geometry.plane(point, [1.0, 0, 0, 0], [0, 1.0, 0, 0]))

    def test_report_extremes_are_floats(self, four_d_19):
        report = geometry.scan_nonpositive(four_d_19, 50, seed=4)
        assert type(report.max_curvature) is float
        assert type(report.min_curvature) is float
        assert all(type(c) is float for c in report.max_coords)

    def test_scan_respects_region(self, four_d_19):
        region = geometry.Box((5.0, 0.4, 0.0, -1.0), (6.0, 0.5, 6.2, 1.0))
        report = geometry.scan_nonpositive(four_d_19, 200, seed=3,
                                           region=region)
        r = report.max_coords[0]
        assert 5.0 <= r <= 6.0

    def test_region_validation(self):
        with pytest.raises(ValueError):
            geometry.Box((1.0, 0.0), (0.5, 1.0))
        with pytest.raises(ValueError):
            geometry.Box((1.0,), (2.0, 3.0))


# ---------------------------------------------------------------------------
# the batched scan against the sequential sampler it replaced
# ---------------------------------------------------------------------------

def sequential_sample(chart, region, seed, index, stream=sample_stream):
    """One scan sample drawn and orthonormalized one index at a time in
    chart coordinates with the metric tensor, then evaluated by the
    single-plane route: the sampler the batched scan replaced.  Each index
    draws from a fresh ``stream(seed, index)``."""
    rng = stream(seed, index)
    lo = np.asarray(region.lo)
    hi = np.asarray(region.hi)
    dim = chart.dim
    for _ in range(64):
        coords = lo + rng.random(dim) * (hi - lo)
        point = geometry.ChartPoint(coords, chart)
        g = geometry.metric_tensor(point)
        u = rng.standard_normal(dim)
        v = rng.standard_normal(dim)
        u = u / math.sqrt(float(u @ g @ u))
        v_len2 = float(v @ g @ v)
        v = v - float(u @ g @ v) * u
        vnorm2 = float(v @ g @ v)
        if vnorm2 < 1e-14 * v_len2:
            continue
        v = v / math.sqrt(vnorm2)
        k_val = geometry.sectional_curvature(geometry.plane(point, u, v))
        return k_val, tuple(coords)
    raise DegeneratePlaneError("could not draw an independent plane")


def sequential_scan(chart, samples, seed, region):
    """(max, max coords, min, min coords) by a strict-comparison loop."""
    best_max = (-math.inf, None)
    best_min = (math.inf, None)
    for i in range(samples):
        k_val, coords = sequential_sample(chart, region, seed, i)
        if k_val > best_max[0]:
            best_max = (k_val, coords)
        if k_val < best_min[0]:
            best_min = (k_val, coords)
    return best_max + best_min


def scan_chart(profile, kind):
    if kind == "cartesian":
        return MetricChart.cartesian(profile, 1)
    if kind == "four_d":
        return MetricChart.four_d_model(profile)
    return MetricChart.polar(profile, 1 if kind == "polar1" else 2)


class TestBatchedScanOracle:
    @pytest.mark.parametrize("kind", OPERATOR_CHARTS)
    @pytest.mark.parametrize("variant", ["flat", "hyperbolic", "ramp19"])
    @pytest.mark.parametrize("seed", [0, 2024])
    def test_matches_sequential_sampler(self, request, kind, variant, seed):
        profile = request.getfixturevalue(
            {"flat": "flat_profile", "hyperbolic": "hyperbolic_profile",
             "ramp19": "ramp19"}[variant])
        chart = scan_chart(profile, kind)
        region = geometry.default_region(chart)
        samples = 150
        ks, coords, errors = geometry._scan_block(chart, region, seed, 0,
                                                  samples)
        assert not errors
        for i in range(samples):
            k_ref, coords_ref = sequential_sample(chart, region, seed, i)
            assert abs(ks[i] - k_ref) <= 1e-13 * max(1.0, abs(k_ref))
            assert tuple(coords[i]) == coords_ref
        report = geometry.scan_nonpositive(chart, samples, seed, region)
        k_max, at_max, k_min, at_min = sequential_scan(chart, samples, seed,
                                                       region)
        assert abs(report.max_curvature - k_max) <= 1e-13 * max(1.0,
                                                                abs(k_max))
        assert abs(report.min_curvature - k_min) <= 1e-13 * max(1.0,
                                                                abs(k_min))
        assert report.max_coords == at_max
        assert report.min_coords == at_min

    def test_first_failing_index_decides(self, hyperbolic_profile):
        # radii on both sides of the metric's range: the lowest index past
        # it names the radius, as in the sequential loop
        chart = MetricChart.four_d_model(hyperbolic_profile)
        region = geometry.Box((300.0, 0.05, 0.0, -2.0),
                              (420.0, math.pi - 0.05, 2 * math.pi, 2.0))
        with pytest.raises(ChartDomainError) as batched:
            geometry.scan_nonpositive(chart, 50, 3, region)
        with pytest.raises(ChartDomainError) as sequential, \
                np.errstate(over="ignore", invalid="ignore"):
            sequential_scan(chart, 50, 3, region)
        assert str(batched.value) == str(sequential.value)

    def test_blocks_do_not_change_the_report(self, four_d_19, monkeypatch):
        whole = geometry.scan_nonpositive(four_d_19, 300, seed=5)
        monkeypatch.setattr(geometry, "_SCAN_BLOCK", 7)
        assert geometry.scan_nonpositive(four_d_19, 300, seed=5) == whole

    @pytest.mark.parametrize("kind", OPERATOR_CHARTS)
    def test_redraw_consumes_the_same_stream(self, ramp19, monkeypatch,
                                             kind):
        # index 3's first v is parallel to its u, so both routes must reject
        # that attempt and take the second one from index 3's own stream,
        # on radii up to 2 and on the default box, which reaches r = 45:
        # there sigma is large and the rounding left over from parallel
        # vectors is far above 1e-14, so the redraw test has to be relative
        # to the length of v.  The batched route re-keys index 3 for its
        # second attempt and skips the first draw, so the first draw after
        # each keying gets the parallel v.
        real_streams = geometry.sample_streams
        chart = scan_chart(ramp19, kind)
        draws = []

        class ParallelFirst:
            def __init__(self, rng):
                self.rng = rng
                self.normals = []

            def random(self, size=None, out=None):
                draws.append("random")
                return self.rng.random(size, out=out)

            def standard_normal(self, size=None, out=None):
                draws.append("normal")
                x = self.rng.standard_normal(size, out=out)
                for row in x.reshape(-1, chart.dim):
                    if len(self.normals) == 1:
                        row[:] = 2.0 * self.normals[0]
                    self.normals.append(row.copy())
                return x

        def streams(seed):
            at = real_streams(seed)

            def keyed(index):
                rng = at(index)
                return ParallelFirst(rng) if index == 3 else rng

            return keyed

        def stream(seed, index):
            rng = sample_stream(seed, index)
            return ParallelFirst(rng) if index == 3 else rng

        monkeypatch.setattr(geometry, "sample_streams", streams)
        for r_max in (2.0, None):
            region = geometry.default_region(chart, r_max=r_max)
            draws.clear()
            ks, coords, errors = geometry._scan_block(chart, region, 1, 0, 6)
            batched = list(draws)
            draws.clear()
            k_ref, coords_ref = sequential_sample(chart, region, 1, 3, stream)
            assert not errors
            # one draw, then the re-keyed second attempt: a skipped draw
            # and the accepted one, each u and v in one call
            assert batched == ["random", "normal"] * 3
            assert draws == ["random", "normal", "normal"] * 2
            assert abs(ks[3] - k_ref) <= 1e-13 * max(1.0, abs(k_ref))
            assert tuple(coords[3]) == coords_ref
            first = (np.asarray(region.lo)
                     + sample_stream(1, 3).random(chart.dim)
                     * (np.asarray(region.hi) - np.asarray(region.lo)))
            assert tuple(first) != coords_ref
