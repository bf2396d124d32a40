"""Geodesic integration, parallel transport, and comparison-operator tests.

Frozen constants are generated by step-refinement self-convergence (the
half-step rerun is repeated in-test) or matched against closed forms.
"""

import contextlib
import io
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fatflat import cli, flow, geometry
from fatflat.flow import ChartExitError, PhaseState
from fatflat.geometry import MetricChart
from fatflat.profiles import WarpingProfile

from conftest import assert_close, batch_parts

# rotation picked up by a frame carried once around the angular circle at
# radius 2 (k=19 profile); matches -2*pi*sigma'(2) modulo full turns
FROZEN_LOOP_ROTATION = -0.010620102017513707

# trace of the comparison operator after T=20 along the inward radial
# orbit started at r=36 (k=19 profile, unit c0, step 1e-3)
FROZEN_CROSSING_TRACE = 2.211653496683519

# U(T) and its recorded traces along a unit-speed ramp orbit (k=19 profile,
# polar n = 1, start r = 12, T = 0.5, step 1e-3, unit c0), bit for bit with
# every sigma and tau read from the scalar radial jet, the start velocity's
# and the start frame's included; the same run with rho rounded from a
# 40-digit mpmath integral reads each diagonal entry 1 ulp from these and
# the off-diagonal ones 2,920 ulp (1.0e-17) from them, and 11,018 ulp from
# the Gauss-panel table's
FROZEN_RAMP_U = ["0x1.1d021d8cc7344p+0", "0x1.9d822c99b43f7p-16",
                 "0x1.9d822c99b43f7p-16", "0x1.1e7dcba6c2facp+0"]
FROZEN_RAMP_TRACES = ["0x1.0000000000000p+1", "0x1.08c86647f9dc8p+1",
                      "0x1.0fe7a1be7bd46p+1", "0x1.159fdaa2211f4p+1",
                      "0x1.1a2c197f2dcd8p+1", "0x1.1dbff499c5178p+1"]

# end state of a unit-speed four_d_model geodesic (k=19 profile, start
# (12, 1.1, 0.7, 0.3), direction (0.3, -0.2, 0.5, 0.1), T = 0.5, step 1e-3),
# bit for bit with the start speed from the scalar radial jet; the same run
# with rho rounded from a 40-digit mpmath integral reads the position
# bit for bit and the velocity 2, 1, 2 and 1 ulp from these (0, 9, 13 and
# 6 ulp from the Gauss-panel table's)
FROZEN_FOUR_D_END_POSITION = ["0x1.8476c037a75b8p+3", "0x1.1998e660a14e0p+0",
                              "0x1.6669e68797bf5p-1", "0x1.333499a1e6ce9p-2"]
FROZEN_FOUR_D_END_VELOCITY = ["0x1.0ee7b76ff475bp-1", "-0x1.1f48f5b735d1bp-16",
                              "0x1.671eae4c990d7p-15", "0x1.1f3fd00aca0a8p-17"]

# a frame carried inside the flat tube of the k=19 profile (r <= 0.017 <
# 1/39) on the Cartesian chart with n = 2: start (0.012, -0.007, 0.004,
# 0.002, 0.3), velocity (0.004, 0.003, -0.002, 0.001, 1), T = 1, step
# 1e-3; the frame comes back unchanged, its -0.0 entry included
FLAT_TUBE_FRAME = [[0.6, -0.0, 0.8, 0.0, 0.1],
                   [-0.3, 0.7, 0.2, -0.5, 0.25],
                   [0.1, 0.2, -0.4, 0.9, -0.6]]
FROZEN_FLAT_TUBE_END_POSITION = [
    "0x1.0624dd2f1aa95p-6", "-0x1.0624dd2f1a831p-8", "0x1.0624dd2f1ab52p-9",
    "0x1.89374bc6a802cp-9", "0x1.4cccccccccc3ap+0"]
FROZEN_FLAT_TUBE_END_VELOCITY = [
    "0x1.0624dd2f1a9fcp-8", "0x1.89374bc6a7efap-9", "-0x1.0624dd2f1a9fcp-9",
    "0x1.0624dd2f1a9fcp-10", "0x1.0000000000000p+0"]
# the exact defect is 0: the tube is Euclidean and the frame comes back
# unchanged; its Gram summed from 0.0 left to right reads 2^-53 off, and
# through numpy read 0x1.1p-53 with Haswell's BLAS kernel and 0x1.0p-51
# with Nehalem's
FROZEN_FLAT_TUBE_DEFECT = "0x1.0000000000000p-53"

# the orbits benchmark's parallel_transport operation at seed 0: a
# metric-orthonormal frame carried along a unit-speed geodesic of the k=19
# ramp on polar n = 1 for T = 1, step 1e-3; through numpy its defect read
# 0x1.64p-46 with Haswell's BLAS kernel and 0x1.68p-46 with Nehalem's
RAMP_TRANSPORT_POSITION = ["0x1.6d4fbcbfc52e6p+2", "0x1.eeec0cf0049e8p+1",
                           "0x0.0p+0"]
RAMP_TRANSPORT_VELOCITY = ["0x1.90c80405bb5d2p-3", "-0x1.863369eb256a8p-4",
                           "0x1.9c639d557fbd3p-5"]
RAMP_TRANSPORT_FRAME = [
    ["0x1.5c0eca0ce53a3p-7", "-0x1.581407d7cf462p-4", "-0x1.aa8ee19d3ee86p-4"],
    ["-0x1.5182992ce6322p-4", "0x1.c9142b644c531p-5", "-0x1.3eb9b62ab4de9p-3"],
    ["-0x1.fe3ad97ceab88p-1", "-0x1.6907c9633377ep-8", "0x1.814ae59e35325p-7"]]
FROZEN_RAMP_TRANSPORT_DEFECT = "0x1.6800000000000p-46"

# U(T) and its traces along the axis of the k=19 Cartesian chart (n = 1,
# unit speed, T = 0.25, step 1e-3, unit c0)
FROZEN_AXIS_U = ["0x1.99999999999c4p-1", "0x0.0p+0", "0x0.0p+0",
                 "0x1.99999999999c4p-1"]
FROZEN_AXIS_TRACES = ["0x1.0000000000000p+1", "0x1.d1745d1745d30p+0",
                      "0x1.aaaaaaaaaaacep+0", "0x1.99999999999c4p+0"]
FROZEN_AXIS_END_HEIGHT = "0x1.0000000000003p-2"


def unit_state(chart, position, velocity) -> PhaseState:
    position = np.asarray(position, dtype=float)
    velocity = flow.normalize_velocity(chart, position, velocity)
    return PhaseState(position, velocity)


def random_safe_orbits(chart, rng, count):
    """Unit-speed starts that keep a conserved angular momentum, so the
    orbit cannot reach the chart's axis floor."""
    states = []
    while len(states) < count:
        r0 = rng.uniform(5.0, 30.0)
        direction = rng.standard_normal(3)
        direction[1] = math.copysign(max(abs(direction[1]), 0.3),
                                     direction[1])
        position = np.array([r0, rng.uniform(0.0, 2 * math.pi), 0.0])
        states.append(unit_state(chart, position, direction))
    return states


# ---------------------------------------------------------------------------
# geodesics
# ---------------------------------------------------------------------------

class TestGeodesics:
    def test_flat_straight_line(self, flat_profile):
        chart = MetricChart.cartesian(flat_profile, 1)
        state = PhaseState(np.array([0.1, 0.0, 0.0]),
                           np.array([0.0, 0.0, 1.0]))
        path = flow.integrate_geodesic(chart, state, 10.0, record_every=100)
        end = path.state()
        # the acceleration vanishes identically; only the time-grid rounding
        # of ~10^4 step additions separates the samples from the exact line
        assert_close(end.position, [0.1, 0.0, 10.0], abs_tol=1e-11)
        assert_close(end.velocity, [0.0, 0.0, 1.0], abs_tol=1e-12)
        for t, s in path.samples:
            assert_close(s.position, [0.1, 0.0, t], abs_tol=1e-11)

    def test_axis_is_a_geodesic(self, hyperbolic_profile, ramp19):
        for prof in (hyperbolic_profile, ramp19):
            chart = MetricChart.cartesian(prof, 1)
            state = PhaseState(np.zeros(3), np.array([0.0, 0.0, 1.0]))
            path = flow.integrate_geodesic(chart, state, 5.0,
                                           record_every=100)
            assert_close(path.state().position, [0.0, 0.0, 5.0],
                         abs_tol=1e-12)

    def test_flat_tube_orbit_keeps_radius_exactly(self, ramp19):
        chart = MetricChart.cartesian(ramp19, 1)
        state = PhaseState(np.array([0.01, 0.0, 0.0]),
                           np.array([0.0, 0.0, 1.0]))
        path = flow.integrate_geodesic(chart, state, 100.0, record_every=50)
        radii = path.radii()
        assert np.all(radii == 0.01)
        assert path.state().position[2] == pytest.approx(100.0, rel=1e-11)

    def test_energy_conserved_on_random_orbits(self, polar_19):
        rng = np.random.default_rng(20)
        duration = 20.0
        for state in random_safe_orbits(polar_19, rng, 5):
            path = flow.integrate_geodesic(polar_19, state, duration,
                                           record_every=25)
            energies = path.energies()
            drift = float(np.max(np.abs(energies - energies[0])))
            assert drift <= 1e-8 * (1.0 + duration)

    def test_reversibility(self, polar_19):
        rng = np.random.default_rng(21)
        for state in random_safe_orbits(polar_19, rng, 3):
            forward = flow.integrate_geodesic(polar_19, state, 10.0,
                                              record_every=10 ** 9)
            back = flow.integrate_geodesic(polar_19,
                                           forward.state().reversed(),
                                           10.0, record_every=10 ** 9)
            returned = back.state()
            assert_close(returned.position, state.position, abs_tol=1e-6)
            assert_close(-returned.velocity, state.velocity, abs_tol=1e-6)

    def test_step_halving_fourth_order(self, hyperbolic_profile):
        chart = MetricChart.polar(hyperbolic_profile, 1)
        state = unit_state(chart, [2.0, 0.3, 0.0], [0.4, 0.25, 0.55])

        def endpoint(step):
            path = flow.integrate_geodesic(chart, state, 1.0, step=step,
                                           record_every=10 ** 9)
            return np.concatenate([path.state().position,
                                   path.state().velocity])

        reference = endpoint(2.5e-4)
        err_coarse = np.linalg.norm(endpoint(4e-3) - reference)
        err_fine = np.linalg.norm(endpoint(2e-3) - reference)
        assert err_coarse / err_fine >= 8.0

    def test_record_every_thins_samples(self, polar_19):
        state = unit_state(polar_19, [5.0, 0.2, 0.0], [0.1, 0.5, 0.8])
        path = flow.integrate_geodesic(polar_19, state, 1.0, record_every=10)
        assert len(path.samples) == 101
        times = [t for t, _ in path.samples]
        assert times == pytest.approx(np.arange(101) * 0.01, abs=1e-12)

    def test_chart_exit_reports_partial_path(self, polar_19, cartesian_19):
        state = PhaseState(np.array([0.5, 0.0, 0.0]),
                           np.array([-1.0, 0.0, 0.0]))
        with pytest.raises(ChartExitError) as err:
            flow.integrate_geodesic(polar_19, state, 1.0, record_every=10)
        exc = err.value
        assert exc.time == pytest.approx(0.49, abs=2e-3)
        assert exc.state.position[0] == pytest.approx(
            flow.POLAR_EXIT_RADIUS, abs=2e-3)
        assert exc.partial is not None
        assert exc.partial.duration <= exc.time + 1e-12

        # continue across the axis in the regular chart: the inward radial
        # line runs straight through to the antipodal ray
        switched = flow.switch_chart(polar_19, exc.state, cartesian_19)
        e_before = flow.kinetic_energy(polar_19, exc.state.position,
                                       exc.state.velocity)
        e_after = flow.kinetic_energy(cartesian_19, switched.position,
                                      switched.velocity)
        assert e_after == pytest.approx(e_before, rel=1e-10)
        rest = flow.integrate_geodesic(cartesian_19, switched,
                                       1.0 - exc.time, record_every=10 ** 9)
        final = rest.state()
        assert final.position[0] == pytest.approx(-0.5, abs=1e-6)
        assert abs(final.position[1]) <= 1e-6
        assert final.velocity[0] == pytest.approx(-1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("run", ["geodesic", "transport", "riccati"])
    def test_chart_exit_in_every_integrator(self, ramp19, n, run):
        # polar n = 1 reads the radial jet, n = 2 the Christoffel symbols
        chart = MetricChart.polar(ramp19, n)
        start = np.zeros(chart.dim)
        start[0] = 0.5
        start[1:chart.block_dim - 1] = math.pi / 2
        inward = np.zeros(chart.dim)
        inward[0] = -1.0
        path = flow.GeodesicPath(chart, 1e-3, np.array([0.0, 1.0]),
                                 np.array([start, start]),
                                 np.array([inward, inward]))
        calls = {
            "geodesic": lambda: flow.integrate_geodesic(
                chart, PhaseState(start, inward), 1.0),
            "transport": lambda: flow.parallel_transport(
                path, np.eye(chart.dim)),
            "riccati": lambda: flow.riccati_expansion(path),
        }
        with pytest.raises(ChartExitError) as err:
            calls[run]()
        assert err.value.time == pytest.approx(0.49, abs=2e-3)
        assert err.value.state.position[0] == pytest.approx(
            flow.POLAR_EXIT_RADIUS, abs=2e-3)
        assert (err.value.partial is not None) == (run == "geodesic")

    @pytest.mark.parametrize("run", ["transport", "riccati"])
    def test_non_finite_state_raises(self, flat_profile, run):
        # velocities of 1e200 overflow the first RK4 stage; both
        # integrators must stop there instead of returning NaN states
        chart = MetricChart.polar(flat_profile, 1)
        start = np.full(3, 1.2)
        fast = np.full(3, 1e200)
        path = flow.GeodesicPath(chart, 1e-3, np.array([0.0, 1.0]),
                                 np.array([start, start]),
                                 np.array([fast, fast]))
        calls = {
            "transport": lambda: flow.parallel_transport(path, np.eye(3)),
            "riccati": lambda: flow.riccati_expansion(path),
        }
        with pytest.raises(ChartExitError, match="non-finite state"):
            calls[run]()

    @pytest.mark.parametrize("record_every", [1, 5])
    def test_overflowing_step_stops_at_the_last_recorded_sample(
            self, flat_profile, record_every):
        # r' = 1e307 on the flat profile: r overflows in the step from
        # t = 17 to t = 18, after every earlier node was finite
        chart = MetricChart.polar(flat_profile, 1)
        state = PhaseState(np.array([1.0, 0.0, 0.0]),
                           np.array([1e307, 0.0, 0.0]))
        with pytest.raises(ChartExitError, match="non-finite state") as err:
            flow.integrate_geodesic(chart, state, 30.0, 1.0,
                                    record_every=record_every)
        exc = err.value
        partial = exc.partial
        assert exc.time == 18.0
        assert partial.times.tolist() == list(range(0, 18, record_every))
        assert np.isfinite(partial.positions).all()
        assert np.isfinite(partial.velocities).all()
        assert exc.state.position.tolist() == partial.positions[-1].tolist()
        assert exc.state.velocity.tolist() == partial.velocities[-1].tolist()

    def test_immediate_exit_raises_at_time_zero(self, polar_19):
        state = PhaseState(np.array([0.005, 0.0, 0.0]),
                           np.array([0.0, 0.0, 1.0]))
        with pytest.raises(ChartExitError) as err:
            flow.integrate_geodesic(polar_19, state, 1.0)
        assert err.value.time == 0.0

    def test_normalize_velocity(self, polar_19):
        position = [3.0, 1.0, 0.2]
        v = flow.normalize_velocity(polar_19, position, [0.2, 0.01, 0.5])
        assert flow.kinetic_energy(polar_19, position, v) == pytest.approx(
            1.0, abs=1e-12)
        with pytest.raises(ValueError):
            flow.normalize_velocity(polar_19, position, [0.0, 0.0, 0.0])

    def test_nonpositive_step_rejected(self, polar_19):
        state = unit_state(polar_19, [5.0, 0.2, 0.0], [1.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            flow.integrate_geodesic(polar_19, state, 1.0, step=0.0)

    @pytest.mark.parametrize("n", [1, 2, "four_d"])
    @pytest.mark.parametrize("run", ["geodesic", "transport", "riccati"])
    def test_overflow_past_the_profile_range_is_a_typed_error(
            self, hyperbolic_profile, n, run):
        # an outward radial orbit from r = 700 on the hyperbolic piece: the
        # metric scales overflow from r ~ 355 and sinh, cosh from r ~ 710
        chart = (MetricChart.four_d_model(hyperbolic_profile) if n == "four_d"
                 else MetricChart.polar(hyperbolic_profile, n))
        start = np.zeros(chart.dim)
        start[0] = 700.0
        start[1:chart.block_dim] = 1.0
        start[chart.block_dim - 1] = 0.3
        outward = np.zeros(chart.dim)
        outward[0] = 1.0
        path = flow.GeodesicPath(chart, 1e-3, np.array([0.0, 20.0]),
                                 np.array([start, start]),
                                 np.array([outward, outward]))
        calls = {
            "geodesic": lambda: flow.integrate_geodesic(
                chart, PhaseState(start, outward), 20.0),
            "transport": lambda: flow.parallel_transport(path, [outward]),
            "riccati": lambda: flow.riccati_expansion(path),
        }
        with pytest.raises(geometry.ChartDomainError,
                           match=r"at r = \d") as err:
            calls[run]()
        radius = float(re.search(r"at r = ([\d.]+)", str(err.value))[1])
        assert 700.0 <= radius < 711.0

    @pytest.mark.filterwarnings("error")
    def test_overflowing_gram_is_a_typed_error(self, hyperbolic_profile):
        # at r = 711 sinh and cosh leave double range: a purely radial
        # velocity still meets 0 * inf in its sphere parts, so the Gram is
        # NaN; no numpy warning may come out before the error
        chart = MetricChart.polar(hyperbolic_profile, 2)
        start = np.array([711.0, 1.0, 1.0, 0.3, 0.0])
        radial = np.eye(5)[0]
        path = flow.GeodesicPath(chart, 1e-3, np.array([0.0, 1.0]),
                                 np.array([start, start]),
                                 np.array([radial, radial]))
        with pytest.raises(geometry.ChartDomainError, match="at r = 711:"):
            flow.kinetic_energy(chart, start, radial)
        with pytest.raises(geometry.ChartDomainError, match="at r = 711:"):
            flow.parallel_transport(path, np.eye(5))

    def test_four_d_model_geodesic_bit_for_bit(self, four_d_19):
        state = unit_state(four_d_19, [12.0, 1.1, 0.7, 0.3],
                           [0.3, -0.2, 0.5, 0.1])
        end = flow.integrate_geodesic(four_d_19, state, 0.5,
                                      record_every=10 ** 9).state()
        assert [float(c).hex() for c in end.position] == \
            FROZEN_FOUR_D_END_POSITION
        assert [float(c).hex() for c in end.velocity] == \
            FROZEN_FOUR_D_END_VELOCITY

    def test_four_d_model_switches_to_its_cartesian_partner(self, ramp19,
                                                            four_d_19):
        cartesian = MetricChart(geometry.CARTESIAN, 3, ramp19)
        state = unit_state(four_d_19, [2.5, 1.1, 0.7, 0.3],
                           [0.2, -0.4, 0.9, 0.5])
        there = flow.switch_chart(four_d_19, state, cartesian)
        assert cartesian.radius_of(there.position) == pytest.approx(
            2.5, rel=1e-15)
        assert flow.kinetic_energy(cartesian, there.position,
                                   there.velocity) == pytest.approx(
            1.0, abs=1e-13)
        back = flow.switch_chart(cartesian, there, four_d_19)
        assert_close(back.position, state.position, abs_tol=1e-14)
        assert_close(back.velocity, state.velocity, abs_tol=1e-14)

        # the same geodesic run in both charts ends at the same point
        polar_end = flow.integrate_geodesic(four_d_19, state, 1.0,
                                            record_every=10 ** 9).state()
        cartesian_end = flow.switch_chart(cartesian, flow.integrate_geodesic(
            cartesian, there, 1.0, record_every=10 ** 9).state(), four_d_19)
        assert_close(cartesian_end.position, polar_end.position,
                     abs_tol=1e-10)
        assert_close(cartesian_end.velocity, polar_end.velocity,
                     abs_tol=1e-10)

    @pytest.mark.parametrize("x0", [0.1, 3.0])
    def test_non_finite_stage_radius_is_a_non_finite_state(self, x0):
        # v.v overflows in the first stage's rates, so the second stage's
        # position and radius are NaN: a non-finite state at node 0, not an
        # overflow of the chart's coefficients
        chart = MetricChart.cartesian(WarpingProfile.interpolated(19.0), 1)
        start = PhaseState([x0, 0.0, 0.0], [1e160, 0.0, 1.0])
        with pytest.raises(ChartExitError, match="non-finite state") as err:
            flow.integrate_geodesic(chart, start, 1e-170, step=1e-171)
        exc = err.value
        assert exc.time == 0.0
        assert exc.state.position.tolist() == [x0, 0.0, 0.0]
        assert exc.state.velocity.tolist() == [1e160, 0.0, 1.0]
        assert exc.partial.times.tolist() == [0.0]
        path = flow.GeodesicPath(chart, 1e-171, np.array([0.0, 1e-170]),
                                 np.array([start.position] * 2),
                                 np.array([start.velocity] * 2))
        with pytest.raises(ChartExitError, match="non-finite state") as err:
            flow.parallel_transport(path, np.eye(3))
        assert err.value.time == 0.0
        assert err.value.state.position.tolist() == [x0, 0.0, 0.0]
        # the curvature term overflows with |v| too, so the second stage's
        # U is not finite: still the same exit, with no numpy warning
        with pytest.raises(ChartExitError, match="non-finite state") as err:
            flow.riccati_expansion(path)
        assert err.value.time == 0.0
        assert err.value.state.position.tolist() == [x0, 0.0, 0.0]
        assert err.value.state.velocity.tolist() == [1e160, 0.0, 1.0]

    def test_non_finite_radius_is_a_chart_domain_error(self):
        # a radius that is not finite is the state's fault, not the chart's
        # coefficients', yet still outside the chart's valid region
        assert issubclass(geometry.NonFiniteRadiusError,
                          geometry.ChartDomainError)
        profile = WarpingProfile.interpolated(19.0)
        for r in (math.nan, math.inf):
            with pytest.raises(geometry.NonFiniteRadiusError):
                geometry.axis_coefficient_jets(profile, r)

    def test_cartesian_overflow_is_a_typed_error(self, hyperbolic_profile):
        # this orbit's RK4 stages reach r ~ 1e9, far past the radius where
        # the Cartesian coefficients overflow
        chart = MetricChart.cartesian(hyperbolic_profile, 1)
        state = unit_state(chart, [18.0, 24.0, 0.2], [0.3, -0.2, 0.5])
        with pytest.raises(geometry.ChartDomainError, match=r"at r = \d"):
            flow.integrate_geodesic(chart, state, 1.0)


# ---------------------------------------------------------------------------
# metric inner products
# ---------------------------------------------------------------------------

def metric_point(chart, r, rng):
    """Coordinates at radius r with random angles and height."""
    z = rng.uniform(-1.0, 1.0)
    if chart.kind == geometry.CARTESIAN:
        direction = rng.standard_normal(chart.block_dim)
        return np.array([*(r / np.linalg.norm(direction) * direction), z])
    inner = rng.uniform(0.1, math.pi - 0.1, chart.block_dim - 2)
    return np.array([r, *inner, rng.uniform(0.0, 2 * math.pi), z])


class TestMetricInnerProduct:
    @pytest.mark.parametrize("variant", ["flat_profile", "hyperbolic_profile",
                                         "ramp19"])
    def test_gram_matches_metric_tensor(self, request, variant):
        # the adapted-parts route against v_i . g . v_j, entry by entry on
        # the scale sqrt(g(v_i, v_i) g(v_j, v_j)) of each entry
        profile = request.getfixturevalue(variant)
        rng = np.random.default_rng(31)
        charts = [MetricChart.polar(profile, 1), MetricChart.polar(profile, 2),
                  MetricChart.cartesian(profile, 1),
                  MetricChart.cartesian(profile, 2),
                  MetricChart.four_d_model(profile)]
        for chart in charts:
            radii = np.exp(rng.uniform(math.log(1e-3), math.log(40.0), 40))
            points = np.array([metric_point(chart, r, rng) for r in radii])
            vecs = rng.standard_normal((len(points), 4, chart.dim))
            gram = flow._gram(chart, points, vecs)
            for x, v, got in zip(points, vecs, gram):
                want = v @ geometry.metric_tensor(chart.point(x)) @ v.T
                scale = np.sqrt(np.outer(np.diag(want), np.diag(want)))
                assert_close(got, want, abs_tol=1e-13 * np.maximum(1.0, scale))

    def test_normal_frame_is_metric_orthonormal(self, polar_19):
        # ramp starts with sigma^2 up to ~1e25, where polarization of the
        # energy left frames orthonormal only to ~5e-3
        for state in random_safe_orbits(polar_19, np.random.default_rng(0),
                                        200):
            pos, vel = state.position, state.velocity
            frame = flow._normal_frame(polar_19, pos, vel)
            g = geometry.metric_tensor(polar_19.point(pos))
            assert_close(frame @ g @ frame.T, np.eye(2), abs_tol=1e-11)
            assert_close(frame @ g @ vel, np.zeros(2), abs_tol=1e-11)

    @pytest.mark.parametrize("variant", ["hyperbolic_profile", "ramp19"])
    @pytest.mark.parametrize("r", [40.0, 60.0, 150.0, 200.0, 300.0])
    def test_normal_frame_at_large_warp(self, request, variant, r):
        # with v along (1, 1/sigma, 0) or e_theta, Gram-Schmidt leaves e_theta
        # a rounding residual of g-norm ~ sigma^2 eps^2, far above any fixed
        # absolute floor: taken as a basis vector it left G(v, frame) off I
        # by 0.71-1.0, and e_z unreached
        profile = request.getfixturevalue(variant)
        chart = MetricChart.polar(profile, 1)
        pos = np.array([r, 0.3, 0.0])
        sigma = profile.sigma_tau(r)[0]
        for direction in ([1.0, 1.0 / sigma, 0.0], [0.0, 1.0 / sigma, 0.0]):
            vel = flow.normalize_velocity(chart, pos, np.array(direction))
            frame = flow._normal_frame(chart, pos, vel)
            gram = flow._gram(chart, [pos], [np.vstack([vel, frame])])[0]
            assert np.max(np.abs(gram - np.eye(3))) <= 1e-12, direction

    def test_cartesian_normal_frame_far_from_the_axis(self,
                                                      hyperbolic_profile):
        # at r = 25, sigma/r ~ 1.4e9: v.G.v of the coordinate metric matrix
        # cancelled a unit radial velocity to 0.  On adapted parts a radial
        # velocity gets its frame; an angular one leaves the radial direction
        # below the coordinate basis's resolution there, a typed error
        polar = MetricChart.polar(hyperbolic_profile, 1)
        chart = MetricChart.cartesian(hyperbolic_profile, 1)

        def unit_at_25(direction):
            there = flow.switch_chart(
                polar, PhaseState([25.0, 1.0, 0.1], direction), chart)
            return unit_state(chart, there.position, there.velocity)

        radial = unit_at_25([1.0, 0.0, 0.0])
        angular = unit_at_25([0.0, 1.0, 0.0])
        frame = flow._normal_frame(chart, radial.position, radial.velocity)
        gram = flow._gram(chart, [radial.position],
                          [np.vstack([radial.velocity, frame])])[0]
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
        with pytest.raises(geometry.ChartDomainError, match="at r = 25:"):
            flow._normal_frame(chart, angular.position, angular.velocity)

    def test_energy_of_tiny_rates_at_large_radius(self, hyperbolic_profile):
        # sigma ~ 1e173 times rates 1e-160: each (warp * rate) product is
        # ordinary, while a squared rate alone would be subnormal
        chart = MetricChart.polar(hyperbolic_profile, 1)
        rate = 1e-160
        energy = flow.kinetic_energy(chart, [400.0, 1.0, 0.0],
                                     [0.0, rate, rate])
        exact = ((math.sinh(400.0) * rate) ** 2
                 + (math.cosh(400.0) * rate) ** 2)
        assert energy == pytest.approx(exact, rel=1e-15, abs=0.0)


class TestConnection:
    @pytest.mark.parametrize("variant", ["flat_profile", "hyperbolic_profile",
                                         "ramp19"])
    def test_rates_match_christoffel_oracle(self, request, variant):
        # the bilinear rates of one vector w per call, in plain floats,
        # against -Gamma(v, w) contracted from the Christoffel symbols,
        # entry by entry on the Cauchy-Schwarz scale sum |Gamma| |v| |w| of
        # each entry, plus the smallest normal float for entries that
        # underflow; the acceleration is the w = v case
        profile = request.getfixturevalue(variant)
        rng = np.random.default_rng(37)
        charts = [MetricChart.polar(profile, 1), MetricChart.polar(profile, 2),
                  MetricChart.cartesian(profile, 1),
                  MetricChart.cartesian(profile, 2),
                  MetricChart.four_d_model(profile)]
        for chart in charts:
            jet, rates = flow._connection(chart)
            radii = np.exp(rng.uniform(math.log(1e-3), math.log(40.0), 20))
            for r in radii:
                pos = metric_point(chart, r, rng)
                # rows of unlike lengths, as a unit-speed velocity at large
                # warp against an order-one frame vector
                v = rng.standard_normal(chart.dim) * 10.0 ** rng.uniform(-4, 4)
                w = (rng.standard_normal((4, chart.dim))
                     * 10.0 ** rng.uniform(-4, 4, (4, 1)))
                rows = np.vstack([v, w])
                gamma = geometry.christoffel(chart.point(pos))
                want = -np.einsum("ijk,j,...k->...i", gamma, v, rows)
                scale = np.einsum("ijk,j,...k->...i", np.abs(gamma),
                                  np.abs(v), np.abs(rows))
                pos, v = pos.tolist(), v.tolist()
                at = jet(pos, v)
                got = [rates(at, pos, v, row) for row in rows.tolist()]
                assert all(type(c) is float for row in got for c in row)
                assert_close(got, want,
                             abs_tol=1e-13 * scale + np.finfo(float).tiny)


def hexes(values):
    return [float(c).hex() for c in np.ravel(values)]


def counting_rates(monkeypatch):
    """Count the calls of every chart's general rates form from now on."""
    calls = []
    connection = flow._connection

    def counted(chart):
        jet, rates = connection(chart)

        def rates_counted(*args):
            calls.append(chart.kind)
            return rates(*args)

        return jet, rates_counted

    monkeypatch.setattr(flow, "_connection", counted)
    return calls


# coordinates of a point of the k=19 flat tube, |x| < 0.024 < 1/39 in a
# block of dimension 4, and of the vectors there, zeros of both signs
# included
TUBE_COORD = st.floats(-0.012, 0.012)
VECTOR_ENTRY = st.one_of(st.sampled_from([0.0, -0.0]),
                         st.floats(-1e3, 1e3, allow_subnormal=False))


def flat_tube_start(profile):
    """The Cartesian chart with n = 2 and FLAT_TUBE_FRAME's start state."""
    return (MetricChart.cartesian(profile, 2),
            PhaseState(np.array([0.012, -0.007, 0.004, 0.002, 0.3]),
                       np.array([0.004, 0.003, -0.002, 0.001, 1.0])))


def transport_defects():
    """float.hex of the orthogonality defects of the flat-tube transport
    and of the ramp transport."""
    ramp = WarpingProfile.interpolated(19.0)
    tube = flow.parallel_transport(flow.integrate_geodesic(
        *flat_tube_start(ramp), 1.0, record_every=10 ** 9), FLAT_TUBE_FRAME)
    start = PhaseState(*(list(map(float.fromhex, xs)) for xs in (
        RAMP_TRANSPORT_POSITION, RAMP_TRANSPORT_VELOCITY)))
    frame = [list(map(float.fromhex, row)) for row in RAMP_TRANSPORT_FRAME]
    orbit = flow.parallel_transport(flow.integrate_geodesic(
        MetricChart.polar(ramp, 1), start, 1.0, record_every=10 ** 9), frame)
    return (tube.orthogonality_defect.hex(),
            orbit.orthogonality_defect.hex())


def report_all(seed):
    """What ``fatflat report-all --seed seed`` writes to stdout, run in
    this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        cli.run(["report-all", "--seed", str(seed)])
    return out.getvalue()


def test_transport_defects_do_not_depend_on_the_blas_kernel():
    # OpenBLAS picks its kernel for the CPU at load time, and
    # OPENBLAS_CORETYPE overrides the pick: Haswell's kernel and later ones
    # round a sum of products through fused multiply-adds, Nehalem's does
    # not.  flow's Gram matrices and the scans' adapted parts and curvature
    # numerators take plain float sums, so a child process on Nehalem's
    # kernel reads the same bits, and writes report-all --seed 1 (whose
    # four_d scan worst value once moved with the kernel) byte for byte;
    # where numpy's BLAS is not OpenBLAS the variable changes nothing and
    # both sides agree anyway
    here = transport_defects()
    assert here == (FROZEN_FLAT_TUBE_DEFECT, FROZEN_RAMP_TRANSPORT_DEFECT)
    report = report_all(1)
    tests = Path(__file__).resolve().parent
    package_root = Path(flow.__file__).resolve().parents[1]
    env = {**os.environ, "OPENBLAS_CORETYPE": "Nehalem",
           "PYTHONPATH": os.pathsep.join(map(str, (package_root, tests)))}
    child = subprocess.run(
        [sys.executable, "-c",
         "import test_flow; print(*test_flow.transport_defects()); "
         "print(test_flow.report_all(1), end='')"],
        env=env, capture_output=True, text=True, timeout=300, check=True)
    defects, text = child.stdout.split("\n", 1)
    assert tuple(defects.split()) == here
    assert text.encode() == report.encode()


class TestFlatPiece:
    @settings(max_examples=150, deadline=None)
    @given(n=st.sampled_from([1, 2]), rows=st.integers(0, 4),
           data=st.data())
    def test_stage_equals_the_rates_form_at_the_flat_coefficients(
            self, ramp19, n, rows, data):
        # the whole stage at a flat-tube point, jet decided from the radial
        # jet there, against the general form at a copy of the flat
        # coefficients: equal value for value, and sign for sign on the
        # block, where the form's zeros are -0.0
        chart = MetricChart.cartesian(ramp19, n)
        d, dim = chart.block_dim, chart.dim
        x = data.draw(st.lists(TUBE_COORD, min_size=d, max_size=d))
        y = x + data.draw(st.lists(VECTOR_ENTRY, min_size=(1 + rows) * dim + 1,
                                   max_size=(1 + rows) * dim + 1))
        _, rates = flow._connection(chart)
        coeffs = tuple([*geometry._FLAT_COEFFS])
        assert coeffs == geometry._FLAT_COEFFS
        assert coeffs is not geometry._FLAT_COEFFS
        vel = y[dim:2 * dim]
        want = [*vel, *(c for k in range(dim, (2 + rows) * dim, dim)
                        for c in rates(coeffs, y, vel, y[k:k + dim]))]
        got = flow._flat_rates(chart, rows)(y)
        assert got == want
        block = [i for i in range(dim, len(got)) if i % dim != d]
        assert [math.copysign(1.0, got[i]) for i in block] == [
            math.copysign(1.0, want[i]) for i in block]

    @pytest.mark.parametrize("n", [1, 2])
    def test_stage_calls_no_rates_form(self, ramp19, n, monkeypatch):
        chart = MetricChart.cartesian(ramp19, n)
        dim = chart.dim
        calls = counting_rates(monkeypatch)
        inside = [0.01] + [0.0] * (dim - 1)
        rhs = flow._flat_rates(chart, 2)
        rhs(inside + [0.3] * (3 * dim))
        assert calls == []
        # past the tube (r = 0.1, on the ramp) every row takes the form
        rhs([0.1] + inside[1:] + [0.3] * (3 * dim))
        assert calls == [geometry.CARTESIAN] * 3

    def test_tube_runs_call_no_rates_form(self, ramp19, cartesian_19,
                                          monkeypatch):
        calls = counting_rates(monkeypatch)
        path = flow.integrate_geodesic(*flat_tube_start(ramp19), 0.1,
                                       record_every=10 ** 9)
        flow.parallel_transport(path, FLAT_TUBE_FRAME)
        axis = PhaseState(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        flow.riccati_expansion(flow.integrate_geodesic(
            cartesian_19, axis, 0.1, record_every=10 ** 9))
        assert calls == []

    def test_tube_transport_bit_for_bit(self, ramp19):
        path = flow.integrate_geodesic(*flat_tube_start(ramp19), 1.0,
                                       record_every=10 ** 9)
        result = flow.parallel_transport(path, FLAT_TUBE_FRAME)
        assert hexes(result.vectors) == hexes(FLAT_TUBE_FRAME)
        assert hexes(result.end_state.position) == \
            FROZEN_FLAT_TUBE_END_POSITION
        assert hexes(result.end_state.velocity) == \
            FROZEN_FLAT_TUBE_END_VELOCITY
        assert result.orthogonality_defect.hex() == FROZEN_FLAT_TUBE_DEFECT

    def test_axis_riccati_bit_for_bit(self, cartesian_19):
        axis = PhaseState(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        result = flow.riccati_expansion(flow.integrate_geodesic(
            cartesian_19, axis, 0.25, record_every=10 ** 9))
        assert hexes(result.u_final) == FROZEN_AXIS_U
        assert hexes(result.traces) == FROZEN_AXIS_TRACES
        assert hexes(result.end_state.position) == [
            "0x0.0p+0", "0x0.0p+0", FROZEN_AXIS_END_HEIGHT]
        assert hexes(result.end_state.velocity) == [
            "0x0.0p+0", "0x0.0p+0", "0x1.0000000000000p+0"]


class TestCurvatureTerm:
    @pytest.mark.parametrize("variant", ["flat_profile", "hyperbolic_profile",
                                         "ramp19"])
    def test_float_term_matches_curvature_numerator(self, request, variant):
        # the Riccati stage's plain-float M, from each chart's curvature
        # form, against geometry.curvature_numerator on the scans' batch
        # route (numpy columns, np.sin and np.where frames): bit for bit and
        # sign for sign on every chart, the written-out polar n = 1 form too
        profile = request.getfixturevalue(variant)
        rng = np.random.default_rng(41)
        charts = [MetricChart.polar(profile, 1),
                  MetricChart.four_d_model(profile),
                  MetricChart.polar(profile, 2),
                  MetricChart.cartesian(profile, 1),
                  MetricChart.cartesian(profile, 2)]
        for chart in charts:
            d, m = chart.block_dim, chart.dim - 1
            polar = chart.kind == geometry.POLAR
            curvature = flow._curvature(chart, m)
            radii = np.exp(rng.uniform(math.log(1e-3), math.log(40.0), 100))
            # the Cartesian chart's axis and its isotropic R_MIN ball too
            for r in [*radii] if polar else [0.0, 5e-9, *radii]:
                pos = metric_point(chart, r, rng)
                vecs = (rng.standard_normal((m + 1, chart.dim))
                        * 10.0 ** rng.uniform(-4, 4, (m + 1, 1)))
                y = pos.tolist() + vecs.ravel().tolist()
                r = y[0] if polar else math.sqrt(geometry._dot(y[:d], y[:d]))
                jet, ratios = profile.jet_ratios(r)
                got = curvature(y, r, jet, ratios)
                a = batch_parts(chart, pos, vecs)
                want = np.ravel(geometry.curvature_numerator(ratios, a[1:],
                                                             a[0]))
                assert got == want.tolist()
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_polar_form_keeps_the_zero_sign_of_an_underflowed_cross_term(
            self, hyperbolic_profile):
        # every ratio is -1 and every term of M[0, 1] is a zero, so the
        # entry's sign is the k2 term's: w_1's sphere part times v's
        # underflows to -0.0, which the 0.0 start of a = w . v turns into
        # +0.0, and vv (a * b) underflows to -0.0
        chart = MetricChart.polar(hyperbolic_profile, 1)
        jet, ratios = hyperbolic_profile.jet_ratios(3.0)
        assert ratios == (-1.0, -1.0, -1.0, -1.0)
        y = [3.0, 0.5, 0.1]
        for sphere in (1e-200, -1e-200, 1e100):
            y += [0.0, sphere / jet[0], 0.0]
        a = batch_parts(chart, y[:3], np.reshape(y[3:], (3, 3)))
        want = np.ravel(geometry.curvature_numerator(ratios, a[1:], a[0]))
        got = flow._curvature(chart, 2)(y, 3.0, jet, ratios)
        assert got == want.tolist()
        assert hexes(got[:3]) == hexes(want[:3]) == [
            "-0x0.0p+0", "0x0.0p+0", "0x0.0p+0"]

    @pytest.mark.parametrize("m", [2, 3])
    def test_square_is_the_left_to_right_sums(self, m):
        # U U entry by entry as sum_k u[i, k] u[k, j] from 0.0, on a
        # non-symmetric matrix; the 2 x 2 one has off-diagonal products
        # that are both -0.0, which the 0.0 start turns into +0.0
        u = np.random.default_rng(43).standard_normal((m, m))
        if m == 2:
            u = np.array([[-0.0, 1.5], [2.25, -0.0]])
        want = []
        for i in range(m):
            for j in range(m):
                s = 0.0
                for k in range(m):
                    s += float(u[i, k]) * float(u[k, j])
                want.append(s)
        got = flow._square(u.ravel().tolist(), m)
        assert hexes(got) == hexes(want)
        if m == 2:
            assert hexes(got) == ["0x1.b000000000000p+1", "0x0.0p+0",
                                  "0x0.0p+0", "0x1.b000000000000p+1"]


# ---------------------------------------------------------------------------
# parallel transport
# ---------------------------------------------------------------------------

class TestParallelTransport:
    def test_flat_frame_unchanged(self, flat_profile):
        chart = MetricChart.cartesian(flat_profile, 1)
        state = PhaseState(np.array([0.2, -0.4, 0.0]),
                           np.array([0.6, 0.0, 0.8]))
        path = flow.integrate_geodesic(chart, state, 3.0,
                                       record_every=10 ** 9)
        result = flow.parallel_transport(path, np.eye(3))
        assert_close(result.vectors, np.eye(3), abs_tol=1e-12)
        assert result.orthogonality_defect <= 1e-12

    def test_axis_transport_is_vertical_translation(self, hyperbolic_profile):
        chart = MetricChart.cartesian(hyperbolic_profile, 1)
        state = PhaseState(np.zeros(3), np.array([0.0, 0.0, 1.0]))
        path = flow.integrate_geodesic(chart, state, 1.0,
                                       record_every=10 ** 9)
        frame = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])]
        result = flow.parallel_transport(path, frame)
        assert_close(result.vectors, frame, abs_tol=1e-8)
        assert result.orthogonality_defect <= 1e-8

    def test_gram_matrix_preserved_on_curved_orbits(self, polar_19, ramp19):
        rng = np.random.default_rng(23)
        runs = [(polar_19, state, 5.0)
                for state in random_safe_orbits(polar_19, rng, 3)]
        # the other chart kinds at r = 12, where the k=19 warp is ~1.7e4
        other = np.random.default_rng(29)
        angle = other.uniform(0.0, 2 * math.pi)
        for chart, position in (
                (MetricChart.polar(ramp19, 2), [12.0, 1.1, 0.7, 2.0, 0.3]),
                (MetricChart.cartesian(ramp19, 1),
                 [12.0 * math.cos(angle), 12.0 * math.sin(angle), 0.3]),
                (MetricChart.four_d_model(ramp19), [12.0, 1.1, 0.7, 0.3])):
            velocity = other.standard_normal(chart.dim)
            runs.append((chart, unit_state(chart, position, velocity), 2.0))

        for chart, state, duration in runs:
            def gram(position, rows):
                if chart.kind == geometry.CARTESIAN:
                    # the matrix A I + B x x^T has A ~ 2e6 here, and its
                    # quadratic form cancels to ~u A; the adapted parts
                    # (checked against it in TestMetricInnerProduct) do not
                    return flow._gram(chart, [position], [rows])[0]
                g = geometry.metric_tensor(chart.point(position))
                return rows @ g @ rows.T

            def inner(a, b):
                return float(gram(state.position, np.array([a, b]))[0, 1])

            path = flow.integrate_geodesic(chart, state, duration,
                                           record_every=10 ** 9)
            # orthonormalize a random frame in the metric at the start so
            # inner products are order-one quantities; the metric entries
            # span ~19 orders of magnitude here, so a single elimination
            # pass leaves 1e-6-level residuals -- run the projection twice
            dim = chart.dim
            frame = []
            for row in rng.standard_normal((dim, dim)):
                for _ in range(2):
                    for prev in frame:
                        row = row - inner(prev, row) * prev
                frame.append(row / math.sqrt(inner(row, row)))
            frame = np.array(frame)

            result = flow.parallel_transport(path, frame)
            assert result.orthogonality_defect <= 1e-8
            assert_close(gram(state.position, frame), np.eye(dim),
                         abs_tol=1e-12)
            end = gram(result.end_state.position, result.vectors)
            assert_close(end, np.eye(dim), abs_tol=1e-8)

    @pytest.mark.parametrize("kind, block_dim", [
        (geometry.POLAR, 2), (geometry.CARTESIAN, 2), (geometry.CARTESIAN, 4),
        (geometry.POLAR, 3)],
        ids=["polar-1", "cartesian-1", "cartesian-2", "four_d_model-1"])
    @pytest.mark.parametrize("r", [1.0, 3.0, 6.0])
    def test_matches_array_rk4_oracle(self, ramp19, kind, block_dim, r):
        # the flat-float transport against an array RK4 over the stack of
        # position, velocity and frame with rates -Gamma(v, w) contracted
        # from the Christoffel symbols, on the same step grid; at r = 12 the
        # Cartesian Christoffel symbols inherit the ~u A cancellation of
        # A I + B x x^T (A ~ 2e6), and there the oracle is the less
        # accurate side
        chart = MetricChart(kind, block_dim, ramp19)
        rng = np.random.default_rng(41)
        state = unit_state(chart, metric_point(chart, r, rng),
                           rng.standard_normal(chart.dim))
        frame = rng.standard_normal((3, chart.dim))
        n_steps, h = flow._step_count(0.2, 1e-3)

        def rhs(y):
            gamma = geometry.christoffel(chart.point(y[0]))
            return np.vstack([y[1],
                              -np.einsum("ijk,j,mk->mi", gamma, y[1], y[1:])])

        want = np.vstack([state.position, state.velocity, frame])
        for _ in range(n_steps):
            k1 = rhs(want)
            k2 = rhs(want + 0.5 * h * k1)
            k3 = rhs(want + 0.5 * h * k2)
            k4 = rhs(want + h * k3)
            want = want + h / 6.0 * (k1 + 2.0 * (k2 + k3) + k4)

        path = flow.integrate_geodesic(chart, state, 0.2,
                                       record_every=10 ** 9)
        result = flow.parallel_transport(path, frame)
        got = np.vstack([result.end_state.position, result.end_state.velocity,
                         result.vectors])
        assert_close(got, want, abs_tol=1e-12 * np.maximum(1.0, np.abs(want)))

    def test_velocity_transports_to_itself(self, polar_19):
        state = unit_state(polar_19, [7.0, 0.5, 0.0], [0.3, 0.2, 0.6])
        path = flow.integrate_geodesic(polar_19, state, 4.0,
                                       record_every=10 ** 9)
        result = flow.parallel_transport(path, [state.velocity])
        assert_close(result.vectors[0], result.end_state.velocity,
                     abs_tol=1e-8)


class TestLoopRotation:
    """Carrying a frame once around an angular circle rotates it within the
    radial/angular plane; the angle must match the classical cone formula
    -2*pi*sigma'(r) up to whole turns."""

    @staticmethod
    def transport_around_circle(profile, radius, steps):
        chart = MetricChart.polar(profile, 1)
        h = 2 * math.pi / steps

        def rhs(theta, w):
            point = chart.point(
                np.array([radius, theta % (2 * math.pi), 0.0]))
            gamma = geometry.christoffel(point)
            circle_velocity = np.array([0.0, 1.0, 0.0])
            return -np.einsum("ijk,j,k->i", gamma, circle_velocity, w)

        vectors = [np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])]
        out = []
        for w in vectors:
            w = w.copy()
            t = 0.0
            for _ in range(steps):
                k1 = rhs(t, w)
                k2 = rhs(t + h / 2, w + h / 2 * k1)
                k3 = rhs(t + h / 2, w + h / 2 * k2)
                k4 = rhs(t + h, w + h * k3)
                w = w + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                t += h
            out.append(w)
        return out

    def test_rotation_angle_frozen_and_matches_cone_formula(self, ramp19):
        sigma, sigma_p = ramp19.sigma_tau(2.0)[:2]
        radial, axial = self.transport_around_circle(ramp19, 2.0, 8000)

        # orthonormal components of the transported radial vector
        comp_r = radial[0]
        comp_t = radial[1] * sigma
        assert math.hypot(comp_r, comp_t) == pytest.approx(1.0, abs=1e-9)
        angle = math.atan2(comp_t, comp_r)
        assert angle == pytest.approx(FROZEN_LOOP_ROTATION, abs=1e-10)
        cone = math.remainder(-2 * math.pi * sigma_p, 2 * math.pi)
        assert angle == pytest.approx(cone, abs=1e-9)

        # the axis direction is fixed by the reflection symmetry
        assert_close(axial, [0.0, 0.0, 1.0], abs_tol=1e-10)

    def test_angle_converges_under_step_refinement(self, ramp19):
        sigma = ramp19.sigma_tau(2.0)[0]
        angles = []
        for steps in (4000, 8000):
            radial, _ = self.transport_around_circle(ramp19, 2.0, steps)
            angles.append(math.atan2(radial[1] * sigma, radial[0]))
        assert angles[0] == pytest.approx(angles[1], abs=1e-11)

    def test_flat_tube_loop_rotates_a_full_turn_net_zero(self, ramp19):
        # inside the Euclidean tube sigma'(r) = 1: the frame returns exactly
        radial, _ = self.transport_around_circle(ramp19, 0.02, 2000)
        sigma = ramp19.sigma_tau(0.02)[0]
        angle = math.atan2(radial[1] * sigma, radial[0])
        assert angle == pytest.approx(0.0, abs=1e-10)


# ---------------------------------------------------------------------------
# comparison operator
# ---------------------------------------------------------------------------

class TestComparisonOperator:
    def test_flat_tube_orbit_decays_like_inverse_time(self, ramp19):
        chart = MetricChart.cartesian(ramp19, 1)
        state = PhaseState(np.array([0.01, 0.0, 0.0]),
                           np.array([0.0, 0.0, 1.0]))
        path = flow.integrate_geodesic(chart, state, 99.0, step=5e-3,
                                       record_every=10 ** 9)
        result = flow.riccati_expansion(path, c0=1.0)
        assert_close(result.u_final, np.eye(2) / 100.0, abs_tol=1e-6)

    def test_hyperbolic_orbit_reaches_fixed_point(self, hyperbolic_profile):
        chart = MetricChart.polar(hyperbolic_profile, 1)
        state = PhaseState(np.array([2.0, 0.4, 0.0]),
                           np.array([1.0, 0.0, 0.0]))
        path = flow.integrate_geodesic(chart, state, 20.0, step=5e-3,
                                       record_every=10 ** 9)
        result = flow.riccati_expansion(path, c0=1.0)
        assert_close(result.u_final, np.eye(2), abs_tol=1e-6)

    @pytest.mark.parametrize("chart_name", ["polar_19", "cartesian_19"])
    def test_stage_builds_no_array(self, request, monkeypatch, chart_name):
        # the stage runs in plain floats: numpy arrays are built only once
        # per call, for the start frame and the result, so 50 and 500 steps
        # build the same number of them
        chart = request.getfixturevalue(chart_name)
        start = [2.0, 0.3, 0.1]
        if chart.kind == geometry.CARTESIAN:
            start = [2.0 * math.cos(0.3), 2.0 * math.sin(0.3), 0.1]
        state = unit_state(chart, start, [0.4, 0.25, 0.55])
        paths = [flow.integrate_geodesic(chart, state, steps * 1e-3,
                                         record_every=10 ** 9)
                 for steps in (50, 500)]
        counts = []
        for path in paths:
            calls = []
            array = flow.np.array

            def counting(*args, **kwargs):
                calls.append(1)
                return array(*args, **kwargs)

            monkeypatch.setattr(flow.np, "array", counting)
            flow.riccati_expansion(path)
            monkeypatch.undo()
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_crossing_orbit_trace_frozen(self, polar_19):
        state = PhaseState(np.array([36.0, 0.0, 0.0]),
                           np.array([-1.0, 0.0, 0.0]))
        path = flow.integrate_geodesic(polar_19, state, 20.0,
                                       record_every=10 ** 9)
        result = flow.riccati_expansion(path, c0=1.0)
        trace = float(np.trace(result.u_final))
        assert trace == pytest.approx(FROZEN_CROSSING_TRACE, abs=1e-8)

        coarse = flow.riccati_expansion(
            flow.integrate_geodesic(polar_19, state, 20.0, step=2e-3,
                                    record_every=10 ** 9), c0=1.0)
        assert float(np.trace(coarse.u_final)) == pytest.approx(trace,
                                                                abs=5e-9)

    def test_ramp_orbit_bit_for_bit_from_one_jet_per_stage(self, polar_19,
                                                          monkeypatch):
        # on polar n = 1 one jet_ratios call per stage serves the rates and
        # the curvature term, after one for the start frame; the scalar
        # sigma_tau is never called
        state = unit_state(polar_19, [12.0, 0.3, 0.0], [0.4, 0.25, 0.55])
        path = flow.integrate_geodesic(polar_19, state, 0.5,
                                       record_every=10 ** 9)
        calls = []
        for name in ("sigma_tau", "jet_ratios"):
            def counted(profile, r, name=name,
                        jet=getattr(WarpingProfile, name)):
                calls.append((name, r))
                return jet(profile, r)

            monkeypatch.setattr(WarpingProfile, name, counted)
        result = flow.riccati_expansion(path)
        assert calls[0] == ("jet_ratios", 12.0)
        assert {name for name, _ in calls} == {"jet_ratios"}
        assert len(calls) == 1 + 4 * 500
        assert result.u_final.ravel().tolist() == [
            float.fromhex(x) for x in FROZEN_RAMP_U]
        assert result.traces.tolist() == [
            float.fromhex(x) for x in FROZEN_RAMP_TRACES]

    @pytest.mark.parametrize("r", [400.0, 700.0])
    def test_starts_wherever_the_radial_jet_is_finite(self,
                                                      hyperbolic_profile, r):
        # the start frame once read sigma^2 off the coordinate metric, which
        # overflows past r ~ 355; on curvature -1 U = I solves the equation
        chart = MetricChart.polar(hyperbolic_profile, 1)
        state = PhaseState(np.array([r, 1.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        path = flow.integrate_geodesic(chart, state, 0.1,
                                       record_every=10 ** 9)
        result = flow.riccati_expansion(path, c0=1.0)
        assert_close(result.u_final, np.eye(2), abs_tol=1e-12)

    def test_cartesian_stage_evaluates_the_profile_once(self, polar_19,
                                                        cartesian_19,
                                                        monkeypatch):
        # on the Cartesian chart one rho_jet call per stage serves the
        # connection's axis coefficients and the curvature term, each as
        # its own call at that radius gives it
        state = flow.switch_chart(polar_19, unit_state(
            polar_19, [12.0, 0.3, 0.0], [0.4, 0.25, 0.55]), cartesian_19)
        path = flow.integrate_geodesic(cartesian_19, state, 0.05,
                                       record_every=10 ** 9)
        profile = cartesian_19.profile
        rho_jet = WarpingProfile.rho_jet
        radii = []

        def counted(profile, r):
            radii.append(r)
            return rho_jet(profile, r)

        monkeypatch.setattr(WarpingProfile, "rho_jet", counted)
        flow.riccati_expansion(path)
        assert len(radii) == 4 * 50
        monkeypatch.undo()
        for r in radii[::7]:
            assert geometry.axis_jet_ratios(profile, r) == (
                geometry.axis_coefficient_jets(profile, r),
                *profile.jet_ratios(r))

    def test_traces_recorded_monotone_time(self, polar_19):
        state = PhaseState(np.array([10.0, 0.0, 0.0]),
                           np.array([1.0, 0.0, 0.0]))
        path = flow.integrate_geodesic(polar_19, state, 2.0,
                                       record_every=10 ** 9)
        result = flow.riccati_expansion(path, c0=1.0)
        assert np.all(np.diff(result.times) > 0)
        assert len(result.times) == len(result.traces)

    def test_large_c0_blows_up_at_the_first_node(self, polar_19):
        # U(0) = 2000 I already exceeds 1/step = 1000
        state = PhaseState(np.array([10.0, 0.0, 0.0]),
                           np.array([1.0, 0.0, 0.0]))
        path = flow.integrate_geodesic(polar_19, state, 1.0, step=1e-3,
                                       record_every=10 ** 9)
        with pytest.raises(flow.RiccatiBlowupError) as err:
            flow.riccati_expansion(path, c0=2000.0)
        assert err.value.time == 0.0

    def test_nonpositive_c0_rejected(self, polar_19):
        state = PhaseState(np.array([10.0, 0.0, 0.0]),
                           np.array([1.0, 0.0, 0.0]))
        path = flow.integrate_geodesic(polar_19, state, 1.0,
                                       record_every=10 ** 9)
        with pytest.raises(ValueError):
            flow.riccati_expansion(path, c0=0.0)
