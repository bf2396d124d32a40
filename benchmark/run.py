"""fatflat benchmark: one workload, end-to-end or traced, as one JSON line.

    python3 benchmark/run.py --workload orbits --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/`` without being installed.  The workload's fixed list of operations
is repeated in whole rounds (at least one) for as long as another round is
expected to end within ``--seconds``, and every result is checked.
``--trace 0`` reports the end-to-end metrics (medians over rounds);
``--trace 1`` wraps the package's functions with counting timers and
reports the per-layer metrics instead, writing the spans to
``benchmark/out/``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import MODULES, SUBSUITES, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# First-use set-up of each workload, timed in a fresh interpreter.
_RAMP = ("from fatflat.profiles import WarpingProfile\n"
         "WarpingProfile.interpolated(19.0).sigma_tau(20.0)\n")
SETUP = {
    "orbits": "import fatflat.cylinder\n" + _RAMP,
    "curvature-scan": "import fatflat.geometry\n" + _RAMP,
    "cli-suite": "import fatflat.cli\nimport scipy.spatial\n" + _RAMP,
}
SETUP_REPEATS = 5
_CHILD = ("import sys, time\n"
          "t0 = time.perf_counter()\n"
          "sys.path.insert(0, sys.argv[1])\n"
          "{setup}"
          "print(time.perf_counter() - t0)\n")

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

# (metric, unit, source): the source is a traced total ("<span>.calls",
# ".self_s", ".s"), a counter, a probe or a line count; None means the
# metric's own name.
PER_LAYER = [
    ("profiles.sigma_tau.calls", "count",
     "profiles.WarpingProfile.sigma_tau.calls"),
    ("profiles.sigma_tau.self_s", "s",
     "profiles.WarpingProfile.sigma_tau.self_s"),
    ("profiles.sigma_tau_ramp_us", "us", None),
    ("profiles.sigma_tau_flat_us", "us", None),
    ("profiles.sigma_tau_hyp_us", "us", None),
    ("profiles.curvature_ratios.calls", "count",
     "profiles.WarpingProfile.curvature_ratios.calls"),
    ("profiles.sigma_tau_many.calls", "count",
     "profiles.WarpingProfile.sigma_tau_many.calls"),
    ("profiles.sigma_tau_many.self_s", "s",
     "profiles.WarpingProfile.sigma_tau_many.self_s"),
    ("geometry.scan_nonpositive.self_s", "s", None),
    ("geometry.sectional_curvature.calls", "count", None),
    ("geometry.metric_tensor.calls", "count", None),
    ("geometry.christoffel.calls", "count", None),
    ("geometry.riemann.calls", "count", None),
    ("geometry.scan_sample_us", "us", None),
    ("geometry.riemann_fd.self_s", "s", None),
    ("geometry.curvature_components_closed_form.self_s", "s", None),
    ("geometry.riemann_us", "us", None),
    ("geometry.riemann_fd_us", "us", None),
    ("geometry.curvature_numerator.calls", "count", None),
    ("geometry.adapted_components_raw.calls", "count", None),
    ("flow.integrate_geodesic.self_s", "s", None),
    ("flow.parallel_transport.self_s", "s", None),
    ("flow.riccati_expansion.self_s", "s", None),
    ("flow.kinetic_energy.calls", "count", None),
    ("flow.switch_chart.calls", "count", None),
    ("flow.eigvalsh_fallbacks", "count", None),
    ("flow.rk4_steps", "count", None),
    ("flow.rk4_step_polar3_us", "us", None),
    ("flow.rk4_step_cartesian_us", "us", None),
    ("flow.transport_step_us", "us", None),
    ("flow.riccati_step_us", "us", None),
    ("cylinder.singular_membership.self_s", "s", None),
    ("cylinder.max_plane_curvature.calls", "count",
     "geometry.max_plane_curvature.calls"),
    ("cylinder.core_holonomy.self_s", "s", None),
    ("cylinder.closing_scan.self_s", "s", None),
    ("arith.charpoly_reduction_check.self_s", "s", None),
    ("arith.element_order.self_s", "s", None),
    ("arith.assemble_holonomy_element.self_s", "s", None),
    ("flats.union_volume.self_s", "s", None),
    ("flats.union_volume.samples", "count", None),
    ("flats.contains.calls", "count", "flats.ConvexBody.contains.calls"),
    ("flats.contains.self_s", "s", "flats.ConvexBody.contains.self_s"),
    ("flats.hausdorff_distance.self_s", "s", None),
    ("flats.union_volume_1e6_s", "s", None),
    ("rng.sample_stream.calls", "count", None),
    *((f"cli.{sub}.s", "s", None) for sub in SUBSUITES),
    ("cli.canonical_json.self_s", "s", None),
    *((f"{m}.sloc", "lines", None) for m in MODULES),
    ("bench.traced_wall_s", "s", None),
]


def measure_setup(workload: str) -> float:
    """Median, over fresh interpreters, of import plus first-use set-up."""
    code = _CHILD.format(setup=SETUP[workload])
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def sloc(module: str) -> int:
    """Lines that are neither blank nor comments only."""
    lines = (SRC / "fatflat" / f"{module}.py").read_text().splitlines()
    return sum(1 for ln in lines if ln.strip() and not ln.lstrip().startswith("#"))


def run_round(calls, ops):
    """Time each operation's call (not its check); returns wall, cpu and
    the (operation, reason) pairs of those that failed.  An operation
    whose call or check raises counts as failed, with its traceback."""
    wall = cpu = 0.0
    failures = []
    for call, op in zip(calls, ops):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            result = call()
        except Exception:
            result, problem = None, traceback.format_exc()
        else:
            problem = None
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        if problem is None:
            try:
                problem = op.check(result)
            except Exception:
                problem = "check raised " + traceback.format_exc()
        if problem:
            failures.append((op, problem))
    return wall, cpu, failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(SETUP))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "fatflat").is_dir():
        print(f"error: no fatflat sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import workloads  # imports fatflat from SRC

    setup_s = None if args.trace else measure_setup(args.workload)
    ops = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    values: dict[str, float] = {}
    calls = [op.call for op in ops]
    if args.trace:
        import probes

        values.update(probes.run_probes())
        values.update({f"{m}.sloc": sloc(m) for m in MODULES})
        tracer = Tracer()
        tracer.install()
        calls = [tracer.timed(f"bench.{op.name}", op.call) for op in ops]

    walls, cpus, deltas = [], [], []
    attempted = failed = 0
    correct = True
    reported = set()
    started = time.perf_counter()
    while True:
        before = tracer.snapshot() if tracer else {}
        wall, cpu, failures = run_round(calls, ops)
        if tracer:
            after = tracer.snapshot()
            deltas.append({k: v - before.get(k, 0.0) for k, v in after.items()})
        walls.append(wall)
        cpus.append(cpu)
        attempted += len(ops)
        failed += len(failures)
        for op, problem in failures:
            correct = correct and op.known_fault
            if op.name not in reported:
                reported.add(op.name)
                kind = "known fault" if op.known_fault else "FAILED"
                print(f"{kind}: {op.name}: {problem}", file=sys.stderr)
        # stop unless one more round of the mean length ends in time
        elapsed = time.perf_counter() - started
        if elapsed * (len(walls) + 1) / len(walls) > args.seconds:
            break

    if tracer:
        tracer.uninstall()
        out_dir = ROOT / "benchmark" / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}-{args.seed}.jsonl")
        for key in {k for d in deltas for k in d}:
            values[key] = statistics.median(d.get(key, 0.0) for d in deltas)
        values["bench.traced_wall_s"] = statistics.median(walls)
        metrics = {name: {"value": float(values.get(src or name, 0.0)),
                          "unit": unit} for name, unit, src in PER_LAYER}
    else:
        measured = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": measured[name], "unit": unit}
                   for name, unit in END_TO_END}
    print(f"rounds: {len(walls)}, operations per round: {len(ops)}",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
