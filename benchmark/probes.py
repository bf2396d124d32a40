"""Layer probes: the time of single calls into one public function.

These are the per-layer rows of the ROADMAP's baseline table (profile jet,
RK4 step per chart, transport and Riccati steps, Riemann tensor both ways,
one scan sample, Monte-Carlo union volume per 10^6 samples of the unit
square shifted by (0.5, 0), the flats-translation defaults).  Each probe
reports the median over several repeats, and runs with no wrappers
installed.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import oracles
from fatflat import flats, flow, geometry
from fatflat.flow import PhaseState
from fatflat.geometry import MetricChart
from fatflat.profiles import WarpingProfile


def _per_call(fn, number: int, repeat: int = 5) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return statistics.median(times)


def run_probes() -> dict[str, float]:
    ramp = WarpingProfile.interpolated(19.0)
    polar = MetricChart.polar(ramp, 1)
    cart = MetricChart.cartesian(ramp, 1)
    four = MetricChart.four_d_model(ramp)
    start = np.array([12.0, 0.3, 0.0])
    state = PhaseState(start, flow.normalize_velocity(
        polar, start, np.array([0.4, 0.25, 0.55])))
    cart_state = flow.switch_chart(polar, state, cart)
    steps, h = 50, 1e-3
    path = flow.integrate_geodesic(polar, state, steps * h, record_every=10 ** 9)
    frame = oracles.metric_orthonormal(
        geometry.metric_tensor(polar.point(start)), np.eye(3))
    point = four.point([12.0, 1.0, 0.5, 0.0])
    scan_region = geometry.default_region(four, r_max=45.0)
    square = flats.ConvexBody([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    shift = flats.Isometry.translation_by([0.5, 0.0])

    us = 1e6
    return {
        "profiles.sigma_tau_flat_us": us * _per_call(
            lambda: ramp.sigma_tau(0.01), 5000),
        "profiles.sigma_tau_ramp_us": us * _per_call(
            lambda: ramp.sigma_tau(20.0), 500),
        "profiles.sigma_tau_hyp_us": us * _per_call(
            lambda: ramp.sigma_tau(45.0), 5000),
        "flow.rk4_step_polar3_us": us / steps * _per_call(
            lambda: flow.integrate_geodesic(polar, state, steps * h,
                                            record_every=10 ** 9), 2),
        "flow.rk4_step_cartesian_us": us / steps * _per_call(
            lambda: flow.integrate_geodesic(cart, cart_state, steps * h,
                                            record_every=10 ** 9), 2),
        "flow.transport_step_us": us / steps * _per_call(
            lambda: flow.parallel_transport(path, frame), 1),
        "flow.riccati_step_us": us / steps * _per_call(
            lambda: flow.riccati_expansion(path), 1),
        "geometry.riemann_us": us * _per_call(
            lambda: geometry.riemann(point), 50),
        "geometry.riemann_fd_us": us * _per_call(
            lambda: geometry.riemann_fd(point), 10),
        "geometry.scan_sample_us": us / 200 * _per_call(
            lambda: geometry.scan_nonpositive(four, 200, 0, scan_region), 1),
        "flats.union_volume_1e6_s": _per_call(
            lambda: flats.union_volume(square, shift, 10 ** 6, 0), 1, repeat=3),
    }
