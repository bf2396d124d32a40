"""Top-level acceptance checks, one test per numbered criterion.

Each test states its pinned tolerances inline and reads as a pass/fail
line under ``pytest -v``.  Oracles are independent of the code under
test wherever a value could be wrong in the same way twice.
"""

import json
import math
import time

import numpy as np

from fatflat import cylinder, flow, geometry
from fatflat.cli import run
from fatflat.cylinder import RotationBlock, TwistedCylinder
from fatflat.flow import PhaseState
from fatflat.geometry import MetricChart
from fatflat.profiles import verify_profile
from fatflat import arith
from fatflat import flats

from conftest import assert_close


def unit_state(chart, position, velocity):
    position = np.asarray(position, dtype=float)
    velocity = flow.normalize_velocity(chart, position,
                                       np.asarray(velocity, dtype=float))
    return PhaseState(position, velocity)


def random_safe_orbits(chart, rng, count):
    states = []
    while len(states) < count:
        r0 = rng.uniform(5.0, 30.0)
        direction = rng.standard_normal(3)
        direction[1] = math.copysign(max(abs(direction[1]), 0.3),
                                     direction[1])
        position = np.array([r0, rng.uniform(0.0, 2 * math.pi), 0.0])
        states.append(unit_state(chart, position, direction))
    return states


def test_criterion_01_profile_inequalities_and_boundary_matching(ramp19):
    started = time.perf_counter()
    report = verify_profile(ramp19, grid_max=60.0, grid_step=1e-3,
                            slack=-1e-10)
    assert len(report.checks) == 7
    assert report.all_passed, [c.name for c in report.checks if not c.passed]

    inner = np.linspace(0.0, ramp19.tube_radius, 200)
    for r in inner:
        sigma = ramp19.sigma_tau(float(r))[0]
        assert abs(sigma - r) <= 1e-12
    outer = np.linspace(ramp19.matching_radius, 60.0, 200)
    for r in outer:
        sigma = ramp19.sigma_tau(float(r))[0]
        assert abs(sigma - math.sinh(r)) <= 1e-12 * math.sinh(r)

    assert time.perf_counter() - started < 10.0


def test_criterion_02_hyperbolic_sections_all_minus_one(hyperbolic_profile):
    started = time.perf_counter()
    charts = (MetricChart.four_d_model(hyperbolic_profile),
              MetricChart.polar(hyperbolic_profile, 2))
    for chart in charts:
        region = geometry.default_region(chart)
        scan = geometry.scan_nonpositive(chart, samples=1000, seed=7,
                                         region=region)
        assert scan.max_curvature <= -1.0 + 1e-8
        assert scan.min_curvature >= -1.0 - 1e-8
    assert time.perf_counter() - started < 30.0


def test_criterion_03_interpolated_metric_is_nonpositively_curved(ramp19):
    started = time.perf_counter()
    chart = MetricChart.four_d_model(ramp19)
    region = geometry.default_region(chart, r_max=45.0)
    scan = geometry.scan_nonpositive(chart, samples=10 ** 4, seed=42,
                                     region=region)
    assert scan.max_curvature <= 1e-9

    radii = np.geomspace(1e-3, 45.0, 40)
    thetas = np.linspace(0.05, math.pi - 0.05, 25)
    worst = -math.inf
    for r in radii:
        for th in thetas:
            comps = geometry.curvature_components_closed_form(
                ramp19, float(r), float(th))
            worst = max(worst, comps.max_value)
    assert worst <= 1e-12

    rng = np.random.default_rng(5)
    names = ("theta_r", "phi_r", "z_r", "phi_theta", "theta_z", "phi_z")
    indices = ((1, 0, 1, 0), (2, 0, 2, 0), (3, 0, 3, 0),
               (2, 1, 2, 1), (1, 3, 1, 3), (2, 3, 2, 3))
    for _ in range(10):
        r = float(np.exp(rng.uniform(np.log(0.4), np.log(45.0))))
        th = float(rng.uniform(0.3, math.pi - 0.3))
        coords = np.array([r, th, float(rng.uniform(0.0, 2 * math.pi)),
                           float(rng.uniform(-1.0, 1.0))])
        fd = geometry.riemann_fd(chart.point(coords))
        comps = geometry.curvature_components_closed_form(ramp19, r, th)
        values = dict(zip(names, comps.as_tuple()))
        scale = max(1.0, max(abs(v) for v in comps.as_tuple()))
        for name, idx in zip(names, indices):
            assert abs(float(fd[idx]) - values[name]) / scale <= 1e-5

    assert time.perf_counter() - started < 120.0


def test_criterion_04_flow_conservation_transport_and_order(polar_19):
    rng = np.random.default_rng(40)
    duration = 100.0
    for state in random_safe_orbits(polar_19, rng, 20):
        path = flow.integrate_geodesic(polar_19, state, duration,
                                       record_every=25)
        energies = path.energies()
        drift = float(np.max(np.abs(energies - energies[0])))
        assert drift <= 1e-8 * (1.0 + duration)

    for state in random_safe_orbits(rng=rng, chart=polar_19, count=3):
        path = flow.integrate_geodesic(polar_19, state, 20.0,
                                       record_every=10 ** 9)
        raw = rng.standard_normal((3, 3))
        g0 = geometry.metric_tensor(polar_19.point(state.position))
        frame = []
        for row in raw:
            for _ in range(2):
                for prev in frame:
                    row = row - float(prev @ g0 @ row) * prev
            frame.append(row / math.sqrt(float(row @ g0 @ row)))
        frame = np.array(frame)
        result = flow.parallel_transport(path, frame)
        assert result.orthogonality_defect <= 1e-8
        g_end = geometry.metric_tensor(
            polar_19.point(result.end_state.position))
        end_gram = result.vectors @ g_end @ result.vectors.T
        assert_close(end_gram, np.eye(3), abs_tol=1e-8)

    for state in random_safe_orbits(rng=rng, chart=polar_19, count=3):
        forward = flow.integrate_geodesic(polar_19, state, 20.0,
                                          record_every=10 ** 9)
        back = flow.integrate_geodesic(polar_19, forward.state().reversed(),
                                       20.0, record_every=10 ** 9)
        returned = back.state()
        assert_close(returned.position, state.position, abs_tol=1e-6)
        assert_close(-returned.velocity, state.velocity, abs_tol=1e-6)

    state = unit_state(polar_19, [12.0, 0.3, 0.0], [0.4, 0.25, 0.55])

    def endpoint(step):
        path = flow.integrate_geodesic(polar_19, state, 1.0, step=step,
                                       record_every=10 ** 9)
        return np.concatenate([path.state().position,
                               path.state().velocity])

    reference = endpoint(2.5e-4)
    err_coarse = np.linalg.norm(endpoint(4e-3) - reference)
    err_fine = np.linalg.norm(endpoint(2e-3) - reference)
    assert err_coarse / err_fine >= 8.0


def test_criterion_05_core_holonomy_reproduces_the_twist(ramp19):
    twisted = TwistedCylinder(1, 1.0, RotationBlock((1.0,)), ramp19)
    hol = cylinder.core_holonomy(twisted)
    c, s = math.cos(1.0), math.sin(1.0)
    assert np.linalg.norm(hol - np.array([[c, -s], [s, c]])) <= 1e-8

    untwisted = TwistedCylinder(1, 1.0, RotationBlock((0.0,)), ramp19)
    assert np.linalg.norm(cylinder.core_holonomy(untwisted)
                          - np.eye(2)) <= 1e-10


def test_criterion_06_closing_scans_and_eigen_agreement(ramp19):
    quarter = TwistedCylinder(1, 1.0, RotationBlock((math.pi / 2,)), ramp19)
    report = cylinder.closing_scan(quarter, 0.01, s_max=10)
    assert report.first_closed == 4
    assert report.distances[3] < 1e-10

    unit = TwistedCylinder(1, 1.0, RotationBlock((1.0,)), ramp19)
    scan = cylinder.closing_scan(unit, 0.01, s_max=10 ** 4, close_tol=1e-9)
    assert not scan.ever_closes
    s = np.arange(1, 10 ** 4 + 1, dtype=float)
    brute = 2.0 * 0.01 * np.abs(np.sin(0.5 * s))
    assert abs(scan.min_distance - float(brute.min())) <= 1e-10
    assert scan.argmin_s == int(np.argmin(brute)) + 1
    assert scan.min_distance > 0.0

    for q in range(1, 21):
        for p in range(1, 2 * q + 1):
            angle = p * math.pi / q
            block = RotationBlock((angle,))
            cyl = TwistedCylinder(1, 1.0, block, ramp19)
            eig = cylinder.eigen_obstruction(block, s_max=100, tol=1e-9)
            close = cylinder.closing_scan(cyl, 0.01, s_max=100,
                                          close_tol=1e-9)
            assert eig.flagged == close.closed_powers, (
                f"flag mismatch for angle {p}*pi/{q}")


def test_criterion_07_singular_membership_and_riccati_proxy(
        ramp19, hyperbolic_profile):
    cyl = TwistedCylinder(1, 1.0, RotationBlock((1.0,)), ramp19)
    state = PhaseState(np.array([0.005, 0.0, 0.0]),
                       np.array([0.0, 0.0, 1.0]))
    membership = cylinder.singular_membership(cyl, state, duration=100.0)
    assert membership.member
    assert membership.max_curvature <= 1e-10

    chart = MetricChart.cartesian(ramp19, 1)
    tube_orbit = flow.integrate_geodesic(
        chart, PhaseState(np.array([0.005, 0.0, 0.0]),
                          np.array([0.0, 0.0, 1.0])),
        99.0, step=5e-3, record_every=10 ** 9)
    flat_result = flow.riccati_expansion(tube_orbit, c0=1.0)
    assert_close(flat_result.u_final, np.eye(2) / 100.0, abs_tol=1e-6)

    hyper_chart = MetricChart.polar(hyperbolic_profile, 1)
    hyper_orbit = flow.integrate_geodesic(
        hyper_chart, PhaseState(np.array([2.0, 0.4, 0.0]),
                                np.array([1.0, 0.0, 0.0])),
        20.0, step=5e-3, record_every=10 ** 9)
    hyper_result = flow.riccati_expansion(hyper_orbit, c0=1.0)
    assert_close(hyper_result.u_final, np.eye(2), abs_tol=1e-6)


def test_criterion_08_finite_field_orders_multisets_and_reductions():
    started = time.perf_counter()
    for q in (3, 5, 7, 11, 13, 17, 19, 23):
        hyper = arith.so_block_element(arith.form_hyperbolic_plane(q), q)
        assert arith.element_order(hyper) == q - 1
        aniso = arith.so_block_element(arith.form_anisotropic(q), q)
        assert arith.element_order(aniso) == q + 1

        gen = arith.find_generator(q)
        gen_inv = pow(gen, -1, q)
        _, norm_one = arith.norm_one_generator(q)
        for variant in (arith.ODD_DIM, arith.EVEN_PLUS, arith.EVEN_MINUS):
            for n in (1, 2, 3):
                _, cert = arith.assemble_holonomy_element(variant, n, q)
                assert cert.verified

                pairs = n if variant != arith.EVEN_MINUS else n - 1
                expected: dict = {}
                for root in (gen, gen_inv):
                    expected[root] = expected.get(root, 0) + pairs
                if variant == arith.ODD_DIM:
                    expected[1] = expected.get(1, 0) + 1
                expected = {r: m for r, m in expected.items() if m}
                actual: dict = {}
                for root, mult in cert.linear_roots:
                    actual[root] = actual.get(root, 0) + mult
                assert actual == expected
                if variant == arith.EVEN_MINUS:
                    components = {(x.a, x.b) for x in cert.quad_roots}
                    inv = norm_one.inverse()
                    assert components == {(norm_one.a, norm_one.b),
                                          (inv.a, inv.b)}
                else:
                    assert cert.quad_factor is None

                product = [1]
                factors = [[(-root) % q, 1]
                           for root, mult in cert.linear_roots
                           for _ in range(mult)]
                if cert.quad_factor is not None:
                    factors.append(list(cert.quad_factor))
                for factor in factors:
                    new = [0] * (len(product) + len(factor) - 1)
                    for i, c in enumerate(product):
                        for j, d in enumerate(factor):
                            new[i + j] = (new[i + j] + c * d) % q
                    product = new
                assert product == list(cert.charpoly)

    for p in (5, 7, 11, 13):
        rng = np.random.default_rng(p)
        for _ in range(10 ** 3):
            matrix = rng.integers(-9, 10, size=(4, 4))
            equal, _, _ = arith.charpoly_reduction_check(matrix, p)
            assert equal
    assert time.perf_counter() - started < 30.0


def test_criterion_09_flats_axioms_translation_gain_and_thickening():
    rng = np.random.default_rng(90)
    for _ in range(10 ** 3):
        x = flats.PointCloud(rng.normal(size=(8, 2)))
        y = flats.PointCloud(rng.normal(size=(8, 2)))
        z = flats.PointCloud(rng.normal(size=(8, 2)))
        d_xy = flats.hausdorff_distance(x, y)
        assert d_xy == flats.hausdorff_distance(y, x)
        assert flats.hausdorff_distance(x, x) == 0.0
        assert (flats.hausdorff_distance(x, z)
                <= d_xy + flats.hausdorff_distance(y, z) + 1e-12)

    square = flats.ConvexBody([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                               [0.0, 1.0]])
    report = flats.union_volume(square,
                                flats.Isometry.translation_by([0.5, 0.0]),
                                samples=10 ** 6, seed=0)
    sigma = math.hypot(report.body_error, report.union_error)
    assert report.gain > 3.0 * sigma

    angles = 2.0 * math.pi * np.arange(256) / 256
    disk = flats.ConvexBody(np.stack([np.cos(angles), np.sin(angles)],
                                     axis=1))
    report = flats.union_volume(disk,
                                flats.Isometry.translation_by([0.0, 0.01]),
                                samples=10 ** 6, seed=0)
    sigma = math.hypot(report.body_error, report.union_error)
    assert report.gain > 3.0 * sigma

    first = flats.FramedStrip2D(angle=0.0, half_width=1.0,
                                offset=np.zeros(2))
    lengths = []
    for theta in (0.1, 0.05, 0.02, 0.01, 0.005):
        second = flats.FramedStrip2D(angle=theta, half_width=1.0,
                                     offset=np.zeros(2))
        box = flats.thicken_strips(first, second)
        assert box.cross_section >= 2.0 * 1.0 + 0.25 * 1.0
        lengths.append(box.length)
    assert all(a < b for a, b in zip(lengths, lengths[1:]))


def test_criterion_10_report_all_is_byte_identical_across_runs(tmp_path):
    first = tmp_path / "first.json"
    second = tmp_path / "second.json"
    assert run(["report-all", "--seed", "0", "--out", str(first)]) == 0
    assert run(["report-all", "--seed", "0", "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    report = json.loads(first.read_text())
    assert report["wall_time"] is None
    assert all(c["passed"] for c in report["checks"])
