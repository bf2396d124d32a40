"""The benchmark's own checks: each accepts the right value and rejects a
deliberately wrong one; the tracer wraps and unwraps; the metric tables
match BENCHMARK.json.  Run with ``PYTHONPATH=src python -m pytest benchmark``."""

import json
import math
from pathlib import Path

import numpy as np

import oracles
import run
import tracer
from fatflat import flow, geometry
from fatflat.profiles import WarpingProfile


def test_holonomy_check_rejects_a_perturbed_holonomy():
    assert oracles.check_holonomy(oracles.rotation(1.0), 1.0) is None
    assert oracles.check_holonomy(oracles.rotation(1.0 + 1e-7), 1.0)
    bumped = oracles.rotation(1.0)
    bumped[0, 1] += 2e-8
    assert oracles.check_holonomy(bumped, 1.0)


def test_riccati_checks_reject_a_solution_off_by_1e_5():
    exact = np.eye(2) / 1.25
    assert oracles.check_riccati(exact, exact) is None
    assert oracles.check_riccati(exact + 1e-5 * np.eye(2), exact)
    assert oracles.check_riccati_comparison(exact, 0.25) is None
    assert oracles.check_riccati_comparison(exact - 1e-5 * np.eye(2), 0.25)
    assert oracles.check_riccati_comparison(np.full((2, 2), np.nan), 0.25)


def test_union_check_rejects_a_256_gon_with_a_wrong_vertex():
    good = oracles.disk_vertices(256)
    area = oracles.shoelace_area(good)
    assert abs(area - 128 * math.sin(2 * math.pi / 256)) < 1e-13
    assert oracles.check_union_estimate(good, (0.0, 0.01), 10 ** 6, 1e-3,
                                        area) is None
    wrong = good.copy()
    wrong[17] *= 1.01
    assert oracles.check_union_estimate(wrong, (0.0, 0.01), 10 ** 6, 1e-3,
                                        area)
    # an estimate 4 sigma away (sigma ~ 1.7e-3 here) is rejected too
    assert oracles.check_union_estimate(good, (0.0, 0.01), 10 ** 6, 7e-3,
                                        area)


def test_section_check_rejects_minus_inf_and_nan():
    assert oracles.check_sections(-1.0, -1.0 - 1e-9, -1.0, 1e-8) is None
    assert oracles.check_sections(-math.inf, -math.inf, -1.0, 1e-8)
    assert oracles.check_sections(math.nan, -1.0, -1.0, 1e-8)
    assert oracles.within("x", math.nan, 1.0)


def test_flow_checks_reject_wrong_values():
    assert oracles.check_energy_drift(np.array([1.0, 1.0 + 1e-9]), 2.0) is None
    assert oracles.check_energy_drift(np.array([1.0, 1.0 + 1e-7]), 2.0)
    start = np.array([10.0, 0.5, 0.0])
    vel = np.array([0.1, 0.01, 0.3])
    assert oracles.check_return(start, vel, start, -vel) is None
    assert oracles.check_return(start, vel, start + 1e-5, -vel)
    g = np.diag([1.0, 4.0, 9.0])
    frame = oracles.metric_orthonormal(g, np.eye(3))
    assert oracles.check_gram_identity(frame, g) is None
    assert oracles.check_gram_identity(frame * (1 + 1e-7), g)
    assert oracles.check_rk4_order(15.9) is None
    assert oracles.check_rk4_order(4.0)


def test_reference_profile_matches_the_program_jets():
    ref = oracles.RefProfile(19.0)
    prog = WarpingProfile.interpolated(19.0)
    for r in (1e-3, 0.03, 0.5, 3.0, 12.0, 20.0, 33.0, 38.9, 45.0):
        (mine, _), theirs = ref.jets(r), prog.sigma_tau(r)
        for a, b in zip(mine, theirs):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b)), (r, mine, theirs)


def test_tracer_wraps_imported_names_and_restores_them():
    original = geometry.christoffel
    assert flow.christoffel is original and not hasattr(original,
                                                        "__wrapped__")
    t = tracer.Tracer()
    t.install()
    try:
        assert flow.christoffel is geometry.christoffel
        assert flow.christoffel.__wrapped__ is original
        WarpingProfile.interpolated(19.0).sigma_tau(20.0)
        totals = t.snapshot()
        assert totals["profiles.WarpingProfile.sigma_tau.calls"] == 1
        assert totals["profiles.WarpingProfile.sigma_tau.self_s"] > 0.0
    finally:
        t.uninstall()
    assert flow.christoffel is original and geometry.christoffel is original


def test_metric_tables_match_benchmark_json():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, unit, _ in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(run.SETUP)
