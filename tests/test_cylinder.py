"""Tests for screw-motion quotients: deck maps, holonomy, closing scans."""

import math

import numpy as np
import pytest

from fatflat import cylinder, flow, geometry
from fatflat.cylinder import (
    RotationBlock,
    TwistedCylinder,
    apply_deck,
    closing_scan,
    core_holonomy,
    deck_jacobian,
    eigen_obstruction,
    singular_membership,
    translation_length_root,
)
from fatflat.flow import PhaseState
from fatflat.profiles import WarpingProfile

from conftest import assert_close

# Minimum over s <= 10^4 of the distance from s * 1.0 rad to the nearest
# multiple of 2*pi, found by exhaustive scan with math.remainder; the same
# scan pins the minimizing power.
FROZEN_EIGEN_MIN_ANGLE_ONE = 6.0288706745126319e-05
FROZEN_EIGEN_ARGMIN_ANGLE_ONE = 710

# Minimum over s <= 10^4 of 2 * 0.01 * |sin(s / 2)| (return distance of the
# radius-0.01 tube orbit under a 1-radian twist), by exhaustive brute force.
FROZEN_CLOSING_MIN_ANGLE_ONE = 6.02887067189769e-07
FROZEN_CLOSING_ARGMIN_ANGLE_ONE = 710

TWO_PI = 2.0 * math.pi


def make_cylinder(profile, angles=(1.0,), length=1.0):
    block = RotationBlock(angles)
    return TwistedCylinder(block.n, length, block, profile)


def rotation_matrix(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


class TestTranslationLengthRoot:
    def test_length_two_gives_e(self):
        assert translation_length_root(2.0) == pytest.approx(math.e,
                                                             rel=1e-15)

    def test_length_one_gives_sqrt_e(self):
        assert translation_length_root(1.0) == pytest.approx(
            math.sqrt(math.e), rel=1e-15)

    @pytest.mark.parametrize("length", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0])
    def test_root_satisfies_quadratic(self, length):
        lam = translation_length_root(length)
        residual = lam * lam - 2.0 * math.cosh(0.5 * length) * lam + 1.0
        assert abs(residual) <= 1e-12 * max(1.0, lam * lam)

    @pytest.mark.parametrize("length", [0.1, 1.0, 7.0])
    def test_root_exceeds_one_and_pairs_with_reciprocal(self, length):
        lam = translation_length_root(length)
        assert lam > 1.0
        assert lam + 1.0 / lam == pytest.approx(2.0 * math.cosh(0.5 * length),
                                                rel=1e-14)

    @pytest.mark.parametrize("length", [0.0, -1.0])
    def test_nonpositive_length_rejected(self, length):
        with pytest.raises(ValueError):
            translation_length_root(length)


class TestRotationBlock:
    @pytest.mark.parametrize("angles", [(0.3,), (1.0, math.sqrt(2.0)),
                                        (0.1, 2.5, -0.7)])
    def test_matrix_is_special_orthogonal(self, angles):
        m = RotationBlock(angles).matrix()
        d = 2 * len(angles)
        assert np.linalg.norm(m.T @ m - np.eye(d)) <= 1e-14 * d
        assert np.linalg.det(m) == pytest.approx(1.0, rel=1e-12)

    def test_apply_matches_matrix_action(self):
        block = RotationBlock((0.9, -1.3))
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rng.normal(size=4)
            assert_close(block.apply(x, power=3.0),
                         block.matrix(power=3.0) @ x,
                         rel=1e-13, abs_tol=1e-15)

    def test_integer_power_matches_repeated_product(self):
        block = RotationBlock((0.7,))
        direct = block.matrix(power=5.0)
        repeated = np.linalg.matrix_power(block.matrix(), 5)
        assert_close(direct, repeated, abs_tol=1e-13)

    def test_block_count_and_dimension(self):
        block = RotationBlock((0.1, 0.2, 0.3))
        assert block.n == 3
        assert block.dimension == 6

    def test_empty_angle_list_rejected(self):
        with pytest.raises(ValueError):
            RotationBlock(())


class TestTwistedCylinderValidation:
    def test_block_count_mismatch_rejected(self, ramp19):
        with pytest.raises(ValueError):
            TwistedCylinder(2, 1.0, RotationBlock((1.0,)), ramp19)

    def test_nonpositive_length_rejected(self, ramp19):
        with pytest.raises(ValueError):
            TwistedCylinder(1, 0.0, RotationBlock((1.0,)), ramp19)

    def test_nonpositive_block_count_rejected(self, ramp19):
        with pytest.raises(ValueError):
            TwistedCylinder(0, 1.0, RotationBlock((1.0,)), ramp19)

    def test_dimension_counts_axis_coordinate(self, ramp19):
        assert make_cylinder(ramp19, angles=(1.0, 2.0)).dim == 5

    def test_tube_radius_follows_profile(self, ramp19, flat_profile,
                                         hyperbolic_profile):
        assert make_cylinder(ramp19).tube_radius == ramp19.tube_radius
        assert make_cylinder(flat_profile).tube_radius == math.inf
        assert make_cylinder(hyperbolic_profile).tube_radius == 0.0


class TestApplyDeck:
    def test_quarter_turn_fourth_power_restores_transverse_point(self,
                                                                 ramp19):
        cyl = make_cylinder(ramp19, angles=(math.pi / 2,))
        image = apply_deck(cyl, [0.01, 0.0, 0.0], 4)
        assert_close(image, [0.01, 0.0, 4.0], abs_tol=1e-12)

    def test_zeroth_power_is_identity_bitwise(self, ramp19):
        cyl = make_cylinder(ramp19)
        point = np.array([0.3, -0.2, 1.7])
        assert np.array_equal(apply_deck(cyl, point, 0), point)

    def test_unit_angle_first_power(self, ramp19):
        cyl = make_cylinder(ramp19)
        image = apply_deck(cyl, [1.0, 0.0, 0.0], 1)
        assert_close(image, [math.cos(1.0), math.sin(1.0), 1.0],
                     abs_tol=1e-15)

    def test_inverse_power_round_trips(self, ramp19):
        cyl = make_cylinder(ramp19, angles=(0.9, 2.2), length=1.5)
        point = np.array([0.2, 0.1, -0.3, 0.4, 2.0])
        back = apply_deck(cyl, apply_deck(cyl, point, 3), -3)
        assert_close(back, point, abs_tol=1e-14)

    def test_axis_coordinate_shifts_by_multiples_of_length(self, ramp19):
        cyl = make_cylinder(ramp19, length=0.75)
        for s in (1, 2, -4):
            image = apply_deck(cyl, [0.01, 0.0, 0.5], s)
            assert image[-1] == pytest.approx(0.5 + 0.75 * s, rel=1e-15)

    def test_wrong_coordinate_count_rejected(self, ramp19):
        cyl = make_cylinder(ramp19)
        with pytest.raises(ValueError):
            apply_deck(cyl, [0.1, 0.0], 1)

    def test_fractional_power_rejected(self, ramp19):
        cyl = make_cylinder(ramp19)
        with pytest.raises(ValueError):
            apply_deck(cyl, [0.1, 0.0, 0.0], 1.5)

    @pytest.mark.parametrize("angles", [(1.0,), (0.8, math.sqrt(3.0))])
    def test_deck_map_preserves_metric(self, ramp19, angles):
        cyl = make_cylinder(ramp19, angles=angles, length=1.3)
        chart = cyl.cartesian_chart()
        rng = np.random.default_rng(11)
        for power in (1, 2, 5, -3):
            jac = deck_jacobian(cyl, power)
            for _ in range(5):
                point = rng.uniform(-1.5, 1.5, size=cyl.dim)
                g_here = geometry.metric_tensor(chart.point(point))
                image = apply_deck(cyl, point, power)
                g_image = geometry.metric_tensor(chart.point(image))
                pulled_back = jac.T @ g_image @ jac
                scale = np.max(np.abs(g_here))
                assert_close(pulled_back, g_here, abs_tol=1e-12 * scale)

    def test_deck_jacobian_is_constant_differential(self, ramp19):
        cyl = make_cylinder(ramp19, angles=(0.6, 1.9))
        jac = deck_jacobian(cyl, 7)
        rng = np.random.default_rng(2)
        point = rng.normal(size=cyl.dim)
        shift = rng.normal(size=cyl.dim)
        moved = apply_deck(cyl, point + shift, 7)
        linear = apply_deck(cyl, point, 7) + jac @ shift
        assert_close(moved, linear, abs_tol=1e-13)


class TestCoreHolonomy:
    def test_unit_twist_returns_unit_rotation(self, ramp19):
        cyl = make_cylinder(ramp19, angles=(1.0,), length=1.0)
        hol = core_holonomy(cyl)
        assert np.linalg.norm(hol - rotation_matrix(1.0)) <= 1e-8

    def test_untwisted_quotient_has_identity_holonomy(self, ramp19):
        cyl = make_cylinder(ramp19, angles=(0.0,), length=1.0)
        assert np.linalg.norm(core_holonomy(cyl) - np.eye(2)) <= 1e-10

    def test_two_block_twist_returns_block_rotation(self, ramp19):
        cyl = make_cylinder(ramp19, angles=(1.0, math.sqrt(2.0)), length=2.0)
        hol = core_holonomy(cyl)
        expected = np.zeros((4, 4))
        expected[:2, :2] = rotation_matrix(1.0)
        expected[2:, 2:] = rotation_matrix(math.sqrt(2.0))
        assert np.linalg.norm(hol - expected) <= 1e-8

    def test_holonomy_is_special_orthogonal(self, ramp19):
        hol = core_holonomy(make_cylinder(ramp19, angles=(0.7,)))
        assert np.linalg.norm(hol.T @ hol - np.eye(2)) <= 1e-8
        assert np.linalg.det(hol) == pytest.approx(1.0, abs=1e-8)

    def test_power_of_holonomy_matches_unrolled_loop(self, ramp19):
        base = make_cylinder(ramp19, angles=(0.7,), length=1.0)
        unrolled = make_cylinder(ramp19, angles=(3 * 0.7,), length=3.0)
        cubed = np.linalg.matrix_power(core_holonomy(base), 3)
        assert np.linalg.norm(cubed - core_holonomy(unrolled)) <= 1e-7

    @pytest.mark.parametrize("angles", [(1.0,), (0.0,), (0.5, 2.0)])
    @pytest.mark.parametrize("k", [19.0, 40.0, None], ids=["k19", "k40",
                                                         "flat"])
    def test_flat_core_gives_the_twist_exactly(self, angles, k):
        # the core runs in the flat tube (or the flat profile), where the
        # transported frame comes back unchanged
        profile = (WarpingProfile.interpolated(k) if k
                   else WarpingProfile.flat())
        cyl = make_cylinder(profile, angles)
        assert np.array_equal(core_holonomy(cyl), cyl.rho.matrix())

    @pytest.mark.parametrize("angles, length, step", [
        ((1.0,), 1.0, flow.DEFAULT_STEP),
        ((0.7,), 1.0, 3e-3),
        ((1.0, math.sqrt(2.0)), 2.0, flow.DEFAULT_STEP)])
    @pytest.mark.parametrize("variant", ["hyperbolic_profile", "ramp19"])
    def test_exact_core_line_matches_an_integrated_core(
            self, request, variant, angles, length, step):
        # the transport re-integrates the core from its first sample, so an
        # integrated core geodesic and the exact line give the same loop
        cyl = make_cylinder(request.getfixturevalue(variant), angles, length)
        d = cyl.dim
        start = PhaseState(np.zeros(d), np.eye(d)[d - 1])
        path = flow.integrate_geodesic(cyl.cartesian_chart(), start,
                                       cyl.length, step, record_every=10 ** 9)
        transported = flow.parallel_transport(path, np.eye(d)[:d - 1])
        p_block = transported.vectors[:, :-1].T
        integrated = cyl.rho.matrix() @ np.linalg.inv(p_block)
        assert np.array_equal(core_holonomy(cyl, step), integrated)


class TestEigenObstruction:
    def test_quarter_turn_flags_powers_four_and_eight(self):
        report = eigen_obstruction(RotationBlock((math.pi / 2,)),
                                   s_max=10, tol=1e-9)
        assert report.flagged == [4, 8]
        assert report.distances[3] < 1e-9
        assert report.min_distance < 1e-9
        assert report.argmin_s in (4, 8)

    def test_third_turn_flags_multiples_of_three(self):
        report = eigen_obstruction(RotationBlock((2.0 * math.pi / 3.0,)),
                                   s_max=10, tol=1e-9)
        assert report.flagged == [3, 6, 9]

    def test_unit_angle_never_flags_and_minimum_is_frozen(self):
        report = eigen_obstruction(RotationBlock((1.0,)), s_max=10 ** 4,
                                   tol=1e-9)
        assert report.flagged == []
        assert report.min_distance == pytest.approx(
            FROZEN_EIGEN_MIN_ANGLE_ONE, rel=1e-12)
        assert report.argmin_s == FROZEN_EIGEN_ARGMIN_ANGLE_ONE
        assert report.min_distance > 1e-5

    def test_distances_match_remainder_scan(self):
        report = eigen_obstruction(RotationBlock((1.0,)), s_max=10 ** 4)
        brute = np.array([abs(math.remainder(s * 1.0, TWO_PI))
                          for s in range(1, 10 ** 4 + 1)])
        assert_close(report.distances, brute, abs_tol=5e-12)
        assert report.min_distance == report.distances.min()
        assert report.argmin_s == int(np.argmin(report.distances)) + 1

    def test_multi_block_takes_min_over_blocks(self):
        single = eigen_obstruction(RotationBlock((math.pi / 2,)), s_max=12,
                                   tol=1e-9)
        double = eigen_obstruction(RotationBlock((math.pi / 2, 1.0)),
                                   s_max=12, tol=1e-9)
        assert double.flagged == single.flagged
        assert np.all(double.distances <= single.distances + 1e-15)

    def test_empty_scan_rejected(self):
        with pytest.raises(ValueError):
            eigen_obstruction(RotationBlock((1.0,)), s_max=0)


class TestClosingScan:
    def test_quarter_turn_orbit_closes_at_power_four(self, ramp19):
        cyl = make_cylinder(ramp19, angles=(math.pi / 2,))
        report = closing_scan(cyl, 0.01, s_max=10)
        assert report.first_closed == 4
        assert report.closed_powers == [4, 8]
        assert report.ever_closes
        assert report.distances[3] < 1e-10
        assert report.distances[0] == pytest.approx(
            0.02 * math.sin(math.pi / 4), rel=1e-12)

    def test_unit_twist_never_closes_at_tight_tolerance(self, ramp19):
        cyl = make_cylinder(ramp19, angles=(1.0,))
        report = closing_scan(cyl, 0.01, s_max=10 ** 4, close_tol=1e-9)
        assert not report.ever_closes
        assert report.first_closed is None
        assert report.closed_powers == []
        assert report.min_distance > 0.0
        assert report.min_distance == pytest.approx(
            FROZEN_CLOSING_MIN_ANGLE_ONE, rel=1e-12)
        assert report.argmin_s == FROZEN_CLOSING_ARGMIN_ANGLE_ONE

    def test_unit_twist_distances_match_brute_force_bitwise(self, ramp19):
        cyl = make_cylinder(ramp19, angles=(1.0,))
        report = closing_scan(cyl, 0.01, s_max=10 ** 4, close_tol=1e-9)
        s = np.arange(1, 10 ** 4 + 1, dtype=float)
        brute = 2.0 * 0.01 * np.abs(np.sin(0.5 * s))
        assert np.array_equal(report.distances, brute)

    def test_default_tolerance_flags_the_near_return(self, ramp19):
        # The deepest near-miss of the 1-radian twist (6.03e-7 at s=710)
        # sits below the default closing tolerance of 1e-6, so the default
        # scan reports it as closed; a 1e-9 tolerance keeps it open.
        cyl = make_cylinder(ramp19, angles=(1.0,))
        report = closing_scan(cyl, 0.01, s_max=10 ** 4)
        assert report.close_tol == cylinder.DEFAULT_CLOSE_TOL
        assert report.first_closed == FROZEN_CLOSING_ARGMIN_ANGLE_ONE

    def test_core_start_returns_at_every_power(self, ramp19):
        report = closing_scan(make_cylinder(ramp19), 0.0, s_max=50)
        assert np.all(report.distances == 0.0)
        assert report.first_closed == 1
        assert report.closed_powers == list(range(1, 51))

    def test_distances_match_deck_displacements(self, ramp19):
        angles = (1.0, math.sqrt(2.0))
        cyl = make_cylinder(ramp19, angles=angles)
        r0 = 0.01
        report = closing_scan(cyl, r0, s_max=200)
        r_block = r0 / math.sqrt(2.0)
        start = np.array([r_block, 0.0, r_block, 0.0, 0.0])
        for s in (1, 2, 7, 50, 199):
            image = apply_deck(cyl, start, s)
            displacement = np.linalg.norm(image[:-1] - start[:-1])
            assert report.distances[s - 1] == pytest.approx(displacement,
                                                            abs=1e-12)

    def test_start_radius_outside_tube_rejected(self, ramp19):
        cyl = make_cylinder(ramp19)
        for bad in (ramp19.tube_radius, 0.5):
            with pytest.raises(ValueError):
                closing_scan(cyl, bad, s_max=10)
        with pytest.raises(ValueError):
            closing_scan(cyl, -0.001, s_max=10)

    def test_empty_scan_rejected(self, ramp19):
        with pytest.raises(ValueError):
            closing_scan(make_cylinder(ramp19), 0.01, s_max=0)

    def test_rational_angles_flag_same_powers_as_eigen_scan(self, ramp19):
        for q in range(2, 21):
            numerators = [1] + ([3] if q % 3 != 0 else [])
            for p in numerators:
                angle = p * math.pi / q
                block = RotationBlock((angle,))
                cyl = make_cylinder(ramp19, angles=(angle,))
                eig = eigen_obstruction(block, s_max=100, tol=1e-9)
                close = closing_scan(cyl, 0.01, s_max=100, close_tol=1e-9)
                assert eig.flagged == close.closed_powers, (
                    f"flag mismatch for angle {p}*pi/{q}")
                assert eig.flagged  # every rational case closes within 100


class TestSingularMembership:
    def test_axis_parallel_tube_orbit_is_member(self, ramp19):
        cyl = make_cylinder(ramp19)
        state = PhaseState(np.array([0.005, 0.0, 0.0]),
                           np.array([0.0, 0.0, 1.0]))
        report = singular_membership(cyl, state, duration=100.0)
        assert report.member
        assert report.exit_time is None
        assert report.max_curvature <= 1e-10
        assert report.max_radius == pytest.approx(0.005, abs=1e-14)
        assert report.duration == 100.0

    def test_outward_orbit_in_curved_region_is_not_member(self, ramp19):
        cyl = make_cylinder(ramp19)
        state = PhaseState(np.array([5.0, 0.0, 0.0]),
                           np.array([1.0, 0.0, 0.0]))
        report = singular_membership(cyl, state, duration=10.0)
        assert not report.member
        assert report.exit_time == 0.0
        assert report.max_radius == pytest.approx(15.0, abs=1e-6)
        assert report.max_curvature < -1e-6
        radii = 5.0 + np.arange(0, 10001) * 1e-3
        oracle = max(geometry.max_plane_curvature(ramp19, float(r))
                     for r in radii)
        assert report.max_curvature == pytest.approx(oracle, abs=1e-9)

    def test_tilted_orbit_exits_tube_at_euclidean_time(self, ramp19):
        cyl = make_cylinder(ramp19)
        tilt = 0.1
        state = PhaseState(np.array([0.005, 0.0, 0.0]),
                           np.array([math.sin(tilt), 0.0, math.cos(tilt)]))
        report = singular_membership(cyl, state, duration=5.0)
        assert not report.member
        predicted = (ramp19.tube_radius - 0.005) / math.sin(tilt)
        assert report.exit_time == pytest.approx(predicted, abs=2e-3)
        assert report.max_radius > ramp19.tube_radius
        assert report.max_radius == pytest.approx(
            0.005 + 5.0 * math.sin(tilt), abs=5e-3)

    def test_polar_chunk_falling_below_the_floor_hands_over(
            self, ramp19, monkeypatch):
        # the first chunk starts in the polar chart (r0 >= 2 * the floor)
        # and falls below POLAR_EXIT_RADIUS at t ~ 0.37, inside the chunk;
        # the rest of the orbit crosses the axis in the Cartesian chart
        cyl = make_cylinder(ramp19)
        x0, vr = 0.021, -0.03
        state = PhaseState(np.array([x0, 0.0, 0.0]),
                           np.array([vr, 0.0, math.sqrt(1.0 - vr * vr)]))
        exits = []
        integrate = flow.integrate_geodesic

        def spy(chart, *args, **kwargs):
            try:
                return integrate(chart, *args, **kwargs)
            except flow.ChartExitError as exc:
                exits.append((chart.kind, exc.time))
                raise

        monkeypatch.setattr(flow, "integrate_geodesic", spy)
        times, radii = cylinder._integrate_radius_profile(
            cyl, state, 1.5, flow.DEFAULT_STEP)
        assert [kind for kind, _ in exits] == [geometry.POLAR]
        assert 0.36 < exits[0][1] < 0.37
        assert times[-1] == pytest.approx(1.5, abs=1e-12)
        assert_close(radii, np.abs(x0 + vr * times), abs_tol=1e-9)
        report = singular_membership(cyl, state, duration=1.5)
        assert report.member
        assert report.max_radius == pytest.approx(0.024, abs=1e-9)

    def test_non_unit_speed_rejected(self, ramp19):
        cyl = make_cylinder(ramp19)
        state = PhaseState(np.array([0.005, 0.0, 0.0]),
                           np.array([0.0, 0.0, 2.0]))
        with pytest.raises(ValueError):
            singular_membership(cyl, state, duration=1.0)

    def test_wrong_dimension_rejected(self, ramp19):
        cyl = make_cylinder(ramp19)
        state = PhaseState(np.array([0.005, 0.0, 0.0, 0.0, 0.0]),
                           np.array([0.0, 0.0, 0.0, 0.0, 1.0]))
        with pytest.raises(ValueError):
            singular_membership(cyl, state, duration=1.0)
