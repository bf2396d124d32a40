"""Command-line entry point with deterministic report serialization.

Every subcommand runs a set of named checks against one module and emits a
JSON ``VerificationReport`` (or, for ``geodesic``, a CSV trajectory) to
``--out`` (default: stdout).  Exit code 0 means every check passed, 1 means
a check failed, 2 means a usage or input error.

Reports are byte-identical for identical (command, flags, seed, version):
floating-point values are serialized with 17 significant digits, keys are
sorted, and the measured wall time is reported on stderr rather than inside
the JSON document.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, replace
from importlib import metadata
from typing import Callable, Mapping, Sequence

import numpy as np

from . import arith, cylinder, flats, flow, geometry
from .geometry import MetricChart
from .profiles import WarpingProfile, verify_profile
from .rng import sample_streams

__all__ = ["CheckResult", "VerificationReport", "run", "main"]


def _package_version() -> str:
    try:
        return metadata.version("fatflat")
    except metadata.PackageNotFoundError:
        return "0.0.0"


# ---------------------------------------------------------------------------
# report types and canonical serialization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One named invariant check: worst observed value and where it occurred."""

    name: str
    passed: bool
    worst_value: float
    location: str


@dataclass(frozen=True)
class VerificationReport:
    command: str
    parameters: Mapping[str, str]
    seed: int
    version: str
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def payload(self) -> dict:
        if not self.checks:
            raise ValueError("a verification report needs at least one check")
        return {
            "command": self.command,
            "parameters": dict(self.parameters),
            "seed": self.seed,
            "version": self.version,
            "checks": [
                {
                    "name": c.name,
                    "passed": c.passed,
                    "worst_value": c.worst_value,
                    "location": c.location,
                }
                for c in self.checks
            ],
            # Measured wall time goes to stderr so that identical
            # (command, flags, seed, version) runs stay byte-identical.
            "wall_time": None,
        }


def _format_float(value: float) -> str:
    if math.isnan(value) or math.isinf(value):
        return json.dumps(repr(value))
    text = format(float(value), ".17g")
    return text


def canonical_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        parts = [
            f"{inner}{json.dumps(str(k))}: {canonical_json(obj[k], indent + 1)}"
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = list(obj)
        if not items:
            return "[]"
        parts = [f"{inner}{canonical_json(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


# ---------------------------------------------------------------------------
# option tables and configuration precedence
# ---------------------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _float(text: str) -> float:
    """float(text), finite: nan and inf parse but are never valid input."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text.strip()!r}")
    return value


def _parse_list(parse: Callable[[str], object], what: str):
    def parse_list(text: str) -> tuple:
        items = [p for p in text.split(",") if p.strip() != ""]
        if not items:
            raise ValueError(f"expected a comma-separated list of {what}")
        return tuple(parse(p) for p in items)
    return parse_list


def _count(text: str) -> int:
    """int(text), at least 1: a check over no samples has no evidence."""
    value = int(text)
    if value < 1:
        raise ValueError(f"expected an integer >= 1, got {text.strip()!r}")
    return value


_parse_floats = _parse_list(_float, "numbers")
_parse_ints = _parse_list(int, "integers")


def _canonical(value) -> str:
    """Stable string form of an effective flag value for the report."""
    if isinstance(value, float):
        return _format_float(value)
    if isinstance(value, tuple):
        return ",".join(_canonical(v) for v in value)
    return str(value)


@dataclass(frozen=True)
class Option:
    name: str
    parse: Callable[[str], object]
    default: object
    help: str = ""


_COMMON = (
    Option("seed", int, 0, "seed for every randomized check"),
    Option("out", str, "", "output path (empty: stdout)"),
    Option("config", str, "", "flat key=value configuration file"),
)


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(
                    f"{path}:{lineno}: expected key=value, got {line!r}"
                )
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def _merge_config(options: Sequence[Option],
                  cli_values: Mapping[str, str | None]) -> dict[str, object]:
    """Apply precedence: command-line flags > config file > defaults."""
    table = {opt.name: opt for opt in options}
    file_values: dict[str, str] = {}
    config_path = cli_values.get("config") or ""
    if config_path:
        file_values = _load_config_file(config_path)
        unknown = set(file_values) - set(table)
        if unknown:
            raise ValueError(
                f"unknown configuration keys: {', '.join(sorted(unknown))}"
            )
    merged: dict[str, object] = {}
    for opt in options:
        raw = cli_values.get(opt.name)
        if raw is None:
            raw = file_values.get(opt.name)
        try:
            merged[opt.name] = opt.default if raw is None else opt.parse(raw)
        except ValueError as exc:
            raise ValueError(f"--{opt.name}: {exc}") from None
    merged["config"] = config_path
    return merged


# ---------------------------------------------------------------------------
# subcommand runners (each returns a list of CheckResult, or CSV text)
# ---------------------------------------------------------------------------


def _profile_from(cfg: Mapping[str, object]) -> WarpingProfile:
    variant = cfg.get("variant", "interpolated")
    if variant == "interpolated":
        return WarpingProfile.interpolated(float(cfg["k"]))
    if variant == "hyperbolic":
        return WarpingProfile.hyperbolic()
    if variant == "flat":
        return WarpingProfile.flat()
    raise ValueError(f"unknown profile variant {variant!r}")


_VERIFY_PROFILE_OPTS = _COMMON + (
    Option("variant", str, "interpolated", "profile family"),
    Option("k", _float, 19.0, "interpolation sharpness"),
    Option("grid-max", _float, 60.0, "largest grid radius"),
    Option("grid-step", _float, 1e-3, "grid spacing"),
    Option("slack", _float, 1e-10, "allowed negativity in the inequalities"),
)


def _run_verify_profile(cfg: Mapping[str, object]) -> list[CheckResult]:
    profile = _profile_from(cfg)
    report = verify_profile(
        profile,
        grid_max=float(cfg["grid-max"]),
        grid_step=float(cfg["grid-step"]),
        slack=-abs(float(cfg["slack"])),
    )
    return [
        CheckResult(
            name=f"profiles.{c.name}",
            passed=c.passed,
            worst_value=c.worst_value,
            location=f"r={_format_float(c.worst_location)}",
        )
        for c in report.checks
    ]


_VERIFY_CURVATURE_OPTS = _COMMON + (
    Option("k", _float, 19.0, "interpolation sharpness"),
    Option("samples", int, 10000, "random (point, plane) samples per chart"),
    Option("r-max", _float, 45.0, "largest sampled radius"),
    Option("grid", int, 1000, "(r, theta) grid size for closed forms"),
    Option("fd-samples", _count, 25, "finite-difference comparison points"),
    Option("scan-tol", _float, 1e-9, "allowed positive curvature in scans"),
    Option("component-tol", _float, 1e-12, "allowed positive closed-form value"),
    Option("fd-tol", _float, 1e-5, "relative finite-difference tolerance"),
)

# CurvatureComponents fields -> covariant index quadruples in the
# (r, theta, phi, z) reduction chart.
_COMPONENT_INDICES = (
    ("theta_r", (1, 0, 1, 0)),
    ("phi_r", (2, 0, 2, 0)),
    ("z_r", (3, 0, 3, 0)),
    ("phi_theta", (2, 1, 2, 1)),
    ("theta_z", (1, 3, 1, 3)),
    ("phi_z", (2, 3, 2, 3)),
)


def _run_verify_curvature(cfg: Mapping[str, object]) -> list[CheckResult]:
    profile = WarpingProfile.interpolated(float(cfg["k"]))
    seed = int(cfg["seed"])
    samples = int(cfg["samples"])
    r_max = float(cfg["r-max"])
    checks: list[CheckResult] = []

    for label, chart in (
        ("four_d", MetricChart.four_d_model(profile)),
        ("polar3", MetricChart.polar(profile, 1)),
    ):
        region = geometry.default_region(chart, r_max=r_max)
        scan = geometry.scan_nonpositive(chart, samples, seed, region)
        checks.append(
            CheckResult(
                name=f"geometry.nonpositive_scan_{label}",
                passed=scan.max_curvature <= float(cfg["scan-tol"]),
                worst_value=scan.max_curvature,
                location="coords=(" + ",".join(
                    _format_float(c) for c in scan.max_coords) + ")",
            )
        )

    grid = max(int(cfg["grid"]), 4)
    n_r = max(int(round(math.sqrt(grid) * 1.6)), 2)
    n_t = max(grid // n_r, 2)
    radii = np.geomspace(1e-3, r_max, n_r)
    thetas = np.linspace(0.05, math.pi - 0.05, n_t)
    worst = -math.inf
    worst_at = (radii[0], thetas[0])
    for r in radii:
        for th in thetas:
            comps = geometry.curvature_components_closed_form(
                profile, float(r), float(th))
            value = comps.max_value
            if value > worst:
                worst, worst_at = value, (float(r), float(th))
    checks.append(
        CheckResult(
            name="geometry.closed_form_components_nonpositive",
            passed=worst <= float(cfg["component-tol"]),
            worst_value=worst,
            location=(f"r={_format_float(worst_at[0])},"
                      f"theta={_format_float(worst_at[1])}"),
        )
    )

    chart4 = MetricChart.four_d_model(profile)
    gen = sample_streams(0)(seed)
    worst_rel = 0.0
    worst_loc = ""
    for _ in range(int(cfg["fd-samples"])):
        r = float(math.exp(gen.uniform(math.log(0.4), math.log(r_max))))
        th = float(gen.uniform(0.3, math.pi - 0.3))
        coords = np.array([r, th, float(gen.uniform(0.0, 2 * math.pi)),
                           float(gen.uniform(-1.0, 1.0))])
        point = chart4.point(coords)
        fd = geometry.riemann_fd(point)
        comps = geometry.curvature_components_closed_form(profile, r, th)
        scale = max(1.0, max(abs(v) for v in comps.as_tuple()))
        for name, idx in _COMPONENT_INDICES:
            rel = abs(float(fd[idx]) - getattr(comps, name)) / scale
            if rel > worst_rel:
                worst_rel = rel
                worst_loc = (f"{name}@r={_format_float(r)},"
                             f"theta={_format_float(th)}")
    checks.append(
        CheckResult(
            name="geometry.closed_form_matches_finite_difference",
            passed=worst_rel <= float(cfg["fd-tol"]),
            worst_value=worst_rel,
            location=worst_loc or "none",
        )
    )
    return checks


_GEODESIC_OPTS = _COMMON + (
    Option("variant", str, "interpolated", "profile family"),
    Option("k", _float, 19.0, "interpolation sharpness"),
    Option("chart", str, "polar", "integration chart: polar or cartesian"),
    Option("position", _parse_floats, (0.05, 0.0, 0.0), "start coordinates"),
    Option("velocity", _parse_floats, (0.1, 0.2, 1.0), "start velocity"),
    Option("duration", _float, 10.0, "integration time"),
    Option("step", _float, flow.DEFAULT_STEP, "integrator step"),
    Option("record-every", int, 10, "sample recording stride"),
    Option("normalize", _parse_bool, True, "rescale start velocity to unit speed"),
)


def _coordinate_names(chart: MetricChart) -> list[str]:
    if chart.kind == geometry.POLAR:
        return (["r"] + [f"a{i}" for i in range(1, chart.block_dim)] + ["z"])
    return [f"x{i}" for i in range(1, chart.block_dim + 1)] + ["z"]


def _run_geodesic(cfg: Mapping[str, object]) -> str:
    position = np.asarray(cfg["position"], dtype=float)
    velocity = np.asarray(cfg["velocity"], dtype=float)
    if velocity.shape != position.shape:
        raise ValueError(
            "position and velocity need the same number of components")
    chart = MetricChart(str(cfg["chart"]), position.size - 1,
                        _profile_from(cfg))
    if bool(cfg["normalize"]):
        velocity = flow.normalize_velocity(chart, position, velocity)
    state = flow.PhaseState(position, velocity)
    try:
        path = flow.integrate_geodesic(
            chart, state, float(cfg["duration"]), float(cfg["step"]),
            record_every=int(cfg["record-every"]))
    except flow.ChartExitError as exc:
        if exc.partial is None or exc.partial.duration <= 0.0:
            raise ValueError(
                f"geodesic left the {chart.kind} chart immediately ({exc}); "
                "try the cartesian chart for near-axis starts")
        print(f"note: chart exit at t={exc.time:.6g}; trajectory truncated",
              file=sys.stderr)
        path = exc.partial

    names = _coordinate_names(chart)
    header = ["t"] + names + [f"v_{c}" for c in names] + ["energy"]
    energies = path.energies()
    lines = [",".join(header)]
    for i, t in enumerate(path.times):
        row = [t, *path.positions[i], *path.velocities[i], energies[i]]
        lines.append(",".join(_format_float(v) for v in row))
    return "\n".join(lines) + "\n"


_HOLONOMY_OPTS = _COMMON + (
    Option("k", _float, 19.0, "interpolation sharpness"),
    Option("length", _float, 1.0, "translation length of the screw motion"),
    Option("angles", _parse_floats, (1.0,), "rotation angles per block"),
    Option("step", _float, flow.DEFAULT_STEP, "transport integrator step"),
    Option("tol", _float, 1e-8, "allowed Frobenius distance"),
)


def _cylinder_from(cfg: Mapping[str, object]) -> cylinder.TwistedCylinder:
    angles = tuple(float(a) for a in cfg["angles"])
    return cylinder.TwistedCylinder(
        n=len(angles),
        length=float(cfg["length"]),
        rho=cylinder.RotationBlock(angles),
        profile=WarpingProfile.interpolated(float(cfg["k"])),
    )


def _run_holonomy(cfg: Mapping[str, object]) -> list[CheckResult]:
    cyl = _cylinder_from(cfg)
    hol = cylinder.core_holonomy(cyl, step=float(cfg["step"]))
    expected = cyl.rho.matrix()
    diff = float(np.linalg.norm(hol - expected))
    defect = float(np.linalg.norm(hol.T @ hol - np.eye(hol.shape[0])))
    angle_text = ",".join(_format_float(a) for a in cyl.rho.angles)
    return [
        CheckResult(
            name="cylinder.core_holonomy_matches_twist",
            passed=diff <= float(cfg["tol"]),
            worst_value=diff,
            location=f"angles=({angle_text})",
        ),
        CheckResult(
            name="cylinder.core_holonomy_orthogonal",
            passed=defect <= float(cfg["tol"]),
            worst_value=defect,
            location=f"angles=({angle_text})",
        ),
    ]


_CLOSING_OPTS = _COMMON + (
    Option("k", _float, 19.0, "interpolation sharpness"),
    Option("length", _float, 1.0, "translation length of the screw motion"),
    Option("angles", _parse_floats, (0.0,), "rotation angles per block"),
    Option("radius", _float, 0.01, "start radius inside the flat tube"),
    Option("periods", int, 10, "largest winding count scanned"),
    Option("close-tol", _float, cylinder.DEFAULT_CLOSE_TOL,
           "return distance counted as closed"),
)


def _deck_power_distances(rho: cylinder.RotationBlock, r0: float, n: int,
                          s_max: int) -> np.ndarray:
    """Return distances via explicit deck powers (independent route)."""
    r_block = r0 / math.sqrt(n)
    x0 = np.zeros(2 * n)
    for j in range(n):
        x0[2 * j] = r_block
    rot = rho.matrix()
    out = np.empty(s_max)
    x = x0.copy()
    for s in range(1, s_max + 1):
        x = rot @ x
        d = x - x0
        out[s - 1] = math.sqrt(d.dot(d))  # np.linalg.norm's 1-D formula
    return out


def _run_closing_scan(cfg: Mapping[str, object]) -> list[CheckResult]:
    cyl = _cylinder_from(cfg)
    r0 = float(cfg["radius"])
    s_max = int(cfg["periods"])
    close_tol = float(cfg["close-tol"])
    report = cylinder.closing_scan(cyl, r0, s_max=s_max, close_tol=close_tol)

    direct = _deck_power_distances(cyl.rho, r0, cyl.n, s_max)
    route_gap = float(np.max(np.abs(direct - report.distances)))
    if report.ever_closes:
        closed_at = f"first_closed=s={report.first_closed}"
    else:
        closed_at = "never_closed"
    checks = [
        CheckResult(
            name="cylinder.closing_matches_deck_powers",
            passed=route_gap <= 1e-10,
            worst_value=route_gap,
            location=f"s_max={s_max}",
        ),
        CheckResult(
            name="cylinder.closing_minimum_reported",
            passed=report.min_distance == float(np.min(report.distances)),
            worst_value=report.min_distance,
            location=f"{closed_at},argmin=s={report.argmin_s}",
        ),
    ]
    if r0 > 0.0:
        r_block = r0 / math.sqrt(cyl.n)
        ratio = min(1.0, close_tol / (2.0 * r_block))
        angle_tol = 2.0 * math.asin(ratio)
        obstruction = cylinder.eigen_obstruction(
            cyl.rho, s_max=s_max, tol=angle_tol)
        closed = set(report.closed_powers)
        flagged = set(obstruction.flagged)
        if cyl.n == 1:
            mismatch = closed.symmetric_difference(flagged)
        else:
            mismatch = closed - flagged
        checks.append(
            CheckResult(
                name="cylinder.closing_consistent_with_eigen_obstruction",
                passed=not mismatch,
                worst_value=float(len(mismatch)),
                location=("agree" if not mismatch
                          else f"first_mismatch=s={min(mismatch)}"),
            )
        )
    return checks


_EIGEN_OPTS = _COMMON + (
    Option("angles", _parse_floats, (1.0,), "rotation angles per block"),
    Option("periods", int, cylinder.DEFAULT_S_MAX,
           "largest winding count scanned"),
    Option("tol", _float, 1e-9, "angular distance counted as a fixed direction"),
)


def _run_eigen_obstruction(cfg: Mapping[str, object]) -> list[CheckResult]:
    rho = cylinder.RotationBlock(tuple(float(a) for a in cfg["angles"]))
    s_max = int(cfg["periods"])
    report = cylinder.eigen_obstruction(rho, s_max=s_max,
                                        tol=float(cfg["tol"]))
    bounded = float(np.max(report.distances))
    spot = min(s_max, 1000)
    worst_gap = 0.0
    for s in range(1, spot + 1):
        best = math.inf
        for alpha in rho.angles:
            best = min(best, abs(math.remainder(s * alpha, 2.0 * math.pi)))
        worst_gap = max(worst_gap, abs(best - float(report.distances[s - 1])))
    if report.flagged:
        flag_text = "flagged=s=" + ",".join(str(s) for s in report.flagged[:8])
    else:
        flag_text = "flagged=none"
    return [
        CheckResult(
            name="cylinder.obstruction_distances_bounded",
            passed=0.0 <= bounded <= math.pi + 1e-12,
            worst_value=bounded,
            location=f"s_max={s_max}",
        ),
        CheckResult(
            name="cylinder.obstruction_matches_remainder_route",
            passed=worst_gap <= 1e-12,
            worst_value=worst_gap,
            location=f"checked=s<={spot}",
        ),
        CheckResult(
            name="cylinder.obstruction_minimum_reported",
            passed=report.min_distance == float(np.min(report.distances)),
            worst_value=report.min_distance,
            location=f"argmin=s={report.argmin_s},{flag_text}",
        ),
    ]


_FF_OPTS = _COMMON + (
    Option("q", int, 5, "odd prime modulus"),
    Option("sizes", _parse_ints, (1, 2, 3), "block counts n to assemble"),
    Option("reduction-samples", _count, 200, "matrices per reduction check"),
    Option("matrix-size", _count, 4, "size of random reduction matrices"),
)


def _run_ff_lemma(cfg: Mapping[str, object]) -> list[CheckResult]:
    q = int(cfg["q"])
    if q < 3 or not arith.is_prime(q):
        raise ValueError(f"modulus must be an odd prime, got {q}")
    checks: list[CheckResult] = []

    hyper = arith.so_block_element(arith.form_hyperbolic_plane(q), q)
    order_h = arith.element_order(hyper)
    checks.append(
        CheckResult(
            name="arith.hyperbolic_block_order",
            passed=order_h == q - 1,
            worst_value=float(order_h - (q - 1)),
            location=f"q={q},order={order_h}",
        )
    )
    aniso = arith.so_block_element(arith.form_anisotropic(q), q)
    order_a = arith.element_order(aniso)
    checks.append(
        CheckResult(
            name="arith.anisotropic_block_order",
            passed=order_a == q + 1,
            worst_value=float(order_a - (q + 1)),
            location=f"q={q},order={order_a}",
        )
    )

    for variant in (arith.ODD_DIM, arith.EVEN_PLUS, arith.EVEN_MINUS):
        for n in cfg["sizes"]:
            _, cert = arith.assemble_holonomy_element(variant, int(n), q)
            checks.append(
                CheckResult(
                    name="arith.assembly_eigenvalue_certificate",
                    passed=cert.verified,
                    worst_value=0.0 if cert.verified else 1.0,
                    location=f"variant={variant},n={int(n)},q={q}",
                )
            )

    gen = sample_streams(0)(int(cfg["seed"]))
    size = int(cfg["matrix-size"])
    mismatches = 0
    first_bad = ""
    count = int(cfg["reduction-samples"])
    for i in range(count):
        mat = gen.integers(-9, 10, size=(size, size))
        equal, _, _ = arith.charpoly_reduction_check(mat, q)
        if not equal:
            mismatches += 1
            if not first_bad:
                first_bad = f"sample={i}"
    checks.append(
        CheckResult(
            name="arith.charpoly_reduction_agreement",
            passed=mismatches == 0,
            worst_value=float(mismatches),
            location=first_bad or f"samples={count},q={q}",
        )
    )
    return checks


_HAUSDORFF_OPTS = _COMMON + (
    Option("first", str, "", "CSV point cloud (with --second: compute mode)"),
    Option("second", str, "", "CSV point cloud"),
    Option("triples", _count, 1000, "random metric-axiom triples"),
    Option("cloud-size", _count, 40, "points per random cloud"),
    Option("dim", _count, 3, "ambient dimension of random clouds"),
    Option("triangle-tol", _float, 1e-12,
           "allowed triangle-inequality defect"),
)


def _run_flats_hausdorff(cfg: Mapping[str, object]) -> list[CheckResult]:
    first_path = str(cfg["first"])
    second_path = str(cfg["second"])
    if bool(first_path) != bool(second_path):
        raise ValueError("--first and --second must be given together")
    if first_path:
        x = flats.PointCloud.from_csv(first_path)
        y = flats.PointCloud.from_csv(second_path)
        d_xy = flats.hausdorff_distance(x, y)
        d_yx = flats.hausdorff_distance(y, x)
        d_xx = flats.hausdorff_distance(x, x)
        d_yy = flats.hausdorff_distance(y, y)
        return [
            CheckResult(
                name="flats.hausdorff_symmetry",
                passed=d_xy == d_yx,
                worst_value=abs(d_xy - d_yx),
                location=f"distance={_format_float(d_xy)}",
            ),
            CheckResult(
                name="flats.hausdorff_identity",
                passed=d_xx == 0.0 and d_yy == 0.0,
                worst_value=max(d_xx, d_yy),
                location="self-distance",
            ),
        ]

    size, dim = int(cfg["cloud-size"]), int(cfg["dim"])
    at = sample_streams(int(cfg["seed"]))
    x, y, z = np.stack([[
        flats.PointCloud(gen.random((size, dim)) * 2.0 - 1.0).points
        for _ in range(3)] for gen in map(at, range(int(cfg["triples"])))], 1)
    d_xy, d_yx, d_yz, d_xz, d_xx = (flats.hausdorff_distances(*pair) for pair
                                    in ((x, y), (y, x), (y, z), (x, z), (x, x)))
    worst_identity = float(d_xx.max())
    worst_symmetry = float(np.abs(d_xy - d_yx).max())
    defects = d_xz - (d_xy + d_yz)
    worst = int(defects.argmax())  # the first triple with the largest defect
    return [
        CheckResult(
            name="flats.hausdorff_identity",
            passed=worst_identity == 0.0,
            worst_value=worst_identity,
            location="self-distance",
        ),
        CheckResult(
            name="flats.hausdorff_symmetry",
            passed=worst_symmetry == 0.0,
            worst_value=worst_symmetry,
            location=f"triples={int(cfg['triples'])}",
        ),
        CheckResult(
            name="flats.hausdorff_triangle_inequality",
            passed=float(defects[worst]) <= float(cfg["triangle-tol"]),
            worst_value=float(defects[worst]),
            location=f"triple={worst}",
        ),
    ]


_TRANSLATION_OPTS = _COMMON + (
    Option("body", str, "square", "square, disk256, or a CSV vertex file"),
    Option("shift", _parse_floats, (0.5, 0.0), "translation vector"),
    Option("rotate", _float, 0.0, "extra rotation about the body centroid"),
    Option("samples", int, flats.DEFAULT_SAMPLES, "Monte-Carlo samples"),
    Option("threshold", _float, 1e-2,
           "translational part above which strict increase is demanded"),
)


def _builtin_body(name: str) -> flats.ConvexBody:
    if name == "square":
        return flats.ConvexBody([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    if name == "disk256":
        ang = np.linspace(0.0, 2.0 * math.pi, 256, endpoint=False)
        return flats.ConvexBody(np.stack([np.cos(ang), np.sin(ang)], axis=1))
    return flats.ConvexBody.from_csv(name)


def _run_flats_translation(cfg: Mapping[str, object]) -> list[CheckResult]:
    body = _builtin_body(str(cfg["body"]))
    shift = np.asarray(cfg["shift"], dtype=float)
    if shift.shape != (body.dimension,):
        raise ValueError(
            f"shift needs {body.dimension} components, got {shift.shape[0]}")
    rotate = float(cfg["rotate"])
    if rotate != 0.0:
        if body.dimension != 2:
            raise ValueError("rotation is only supported for planar bodies")
        centroid = body.vertices.mean(axis=0)
        base = flats.Isometry.rotation_2d(rotate, center=centroid)
        motion = flats.Isometry(base.matrix, base.translation + shift)
    else:
        motion = flats.Isometry.translation_by(shift)

    report = flats.union_volume(body, motion, samples=int(cfg["samples"]),
                                seed=int(cfg["seed"]))
    part = motion.translational_part()
    checks = [
        CheckResult(
            name="flats.union_dominates_body",
            passed=report.union_volume >= report.body_volume,
            worst_value=report.gain,
            location=f"samples={report.samples}",
        ),
        CheckResult(
            name="flats.body_volume_within_3_sigma",
            passed=abs(report.body_volume - body.volume)
            <= 3.0 * report.body_error + 1e-15,
            worst_value=abs(report.body_volume - body.volume),
            location=f"exact={_format_float(body.volume)}",
        ),
    ]
    sigma = math.hypot(report.body_error, report.union_error)
    required = part >= float(cfg["threshold"])
    checks.append(
        CheckResult(
            name="flats.translation_strict_increase",
            passed=not required or report.gain > 3.0 * sigma,
            worst_value=report.gain,
            location=("" if required else "not_required:")
            + f"translational_part={_format_float(part)}",
        )
    )
    return checks


_THICKEN_OPTS = _COMMON + (
    Option("delta", _float, 1.0, "half-width of the first strip"),
    Option("delta2", _float, 0.0, "half-width of the second strip (0: same)"),
    Option("theta", _float, 0.01, "crossing angle for the main construction"),
    Option("thetas", _parse_floats, (0.1, 0.05, 0.02, 0.01, 0.005),
           "angles for the length-monotonicity sweep"),
    Option("grid", int, 100, "grid resolution per box side"),
    Option("membership-tol", _float, 1e-9, "strip membership tolerance"),
)


def _run_flats_thicken(cfg: Mapping[str, object]) -> list[CheckResult]:
    delta1 = float(cfg["delta"])
    delta2 = float(cfg["delta2"]) or delta1
    theta = float(cfg["theta"])
    first = flats.FramedStrip2D(angle=0.0, half_width=delta1,
                                offset=np.zeros(2))
    second = flats.FramedStrip2D(angle=theta, half_width=delta2,
                                 offset=np.zeros(2))
    box = flats.thicken_strips(first, second)
    delta = min(delta1, delta2)
    bound = 2.0 * delta1 + 0.25 * delta

    grid = max(int(cfg["grid"]), 2)
    pts = box.grid_points(grid, grid)
    excess = np.minimum(
        np.abs(first.signed_distance(pts)) - delta1,
        np.abs(second.signed_distance(pts)) - delta2,
    )
    worst_excess = float(excess.max())

    lengths = []
    for t in cfg["thetas"]:
        strip = flats.FramedStrip2D(angle=float(t), half_width=delta2,
                                    offset=np.zeros(2))
        lengths.append(flats.thicken_strips(first, strip).length)
    diffs = [b - a for a, b in zip(lengths, lengths[1:])]
    worst_diff = min(diffs) if diffs else math.inf
    ordered = sorted(cfg["thetas"], reverse=True)

    return [
        CheckResult(
            name="flats.thicken_cross_section_gain",
            passed=box.cross_section >= bound - 1e-12,
            worst_value=box.cross_section - bound,
            location=f"theta={_format_float(theta)}",
        ),
        CheckResult(
            name="flats.thicken_box_inside_union",
            passed=worst_excess <= float(cfg["membership-tol"]),
            worst_value=worst_excess,
            location=f"grid={grid}x{grid}",
        ),
        CheckResult(
            name="flats.thicken_length_increases_as_angle_shrinks",
            passed=bool(list(cfg["thetas"]) == ordered and worst_diff > 0.0),
            worst_value=worst_diff if diffs else 0.0,
            location="thetas=" + ",".join(
                _format_float(t) for t in cfg["thetas"]),
        ),
        CheckResult(
            name="flats.thicken_length_reported",
            passed=box.length > 0.0,
            worst_value=box.length,
            location=f"R_len={_format_float(box.length)}",
        ),
    ]


_REPORT_ALL_OPTS = _COMMON


def _run_report_all(cfg: Mapping[str, object]) -> list[CheckResult]:
    seed = int(cfg["seed"])
    # the sub-suites in report order, each with its option overrides
    suite: list[tuple[str, dict[str, object]]] = [
        ("verify-profile", {}),
        ("verify-curvature", {"samples": 2000, "grid": 300, "fd-samples": 8}),
        ("holonomy", {}),
        ("closing-scan", {"angles": (0.5 * math.pi,), "periods": 10 ** 4}),
        ("eigen-obstruction", {}),
        ("ff-lemma", {"q": 7, "reduction-samples": 100}),
        ("flats-hausdorff", {"triples": 300}),
        ("flats-translation", {}),
        ("flats-thicken", {}),
    ]
    checks: list[CheckResult] = []
    for name, overrides in suite:
        command = _COMMANDS[name]
        sub_cfg = {opt.name: opt.default for opt in command.options}
        sub_cfg.update(overrides)
        sub_cfg["seed"] = seed
        checks += [replace(result, name=f"{name}:{result.name}")
                   for result in command.runner(sub_cfg)]
    return checks


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Command:
    name: str
    options: Sequence[Option]
    runner: Callable[[Mapping[str, object]], object]
    help: str


_COMMANDS = {
    cmd.name: cmd
    for cmd in (
        _Command("verify-profile", _VERIFY_PROFILE_OPTS, _run_verify_profile,
                 "grid checks of the warping-profile inequalities"),
        _Command("verify-curvature", _VERIFY_CURVATURE_OPTS,
                 _run_verify_curvature,
                 "random-plane curvature scan and closed-form cross-checks"),
        _Command("geodesic", _GEODESIC_OPTS, _run_geodesic,
                 "integrate one geodesic and emit a CSV trajectory"),
        _Command("holonomy", _HOLONOMY_OPTS, _run_holonomy,
                 "parallel-transport holonomy of the core loop"),
        _Command("closing-scan", _CLOSING_OPTS, _run_closing_scan,
                 "return distances of a flat-tube orbit over deck powers"),
        _Command("eigen-obstruction", _EIGEN_OPTS, _run_eigen_obstruction,
                 "fixed-direction distances of rotation powers"),
        _Command("ff-lemma", _FF_OPTS, _run_ff_lemma,
                 "finite-field block orders and eigenvalue certificates"),
        _Command("flats-hausdorff", _HAUSDORFF_OPTS, _run_flats_hausdorff,
                 "Hausdorff distance computation and metric axioms"),
        _Command("flats-translation", _TRANSLATION_OPTS,
                 _run_flats_translation,
                 "Monte-Carlo union volume under an isometry"),
        _Command("flats-thicken", _THICKEN_OPTS, _run_flats_thicken,
                 "long flat box inside two crossing strips"),
        _Command("report-all", _REPORT_ALL_OPTS, _run_report_all,
                 "run the whole desk-scale verification suite"),
    )
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fatflat",
        description="verification and trajectory tools for the warped model",
    )
    subparsers = parser.add_subparsers(dest="command", metavar="command")
    for cmd in _COMMANDS.values():
        # no prefix matching: a removed flag must not turn into another one
        sub = subparsers.add_parser(cmd.name, help=cmd.help,
                                    allow_abbrev=False)
        for opt in cmd.options:
            sub.add_argument(f"--{opt.name}", dest=opt.name, default=None,
                             metavar="V", help=opt.help)
    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Execute one subcommand; returns the process exit code (0/1/2)."""
    parser = _build_parser()
    args = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value that starts with a minus sign as a flag unless
    # it is one number, so glue it to its flag: "--shift=-0.5,0"
    for i in range(len(args) - 1, 0, -1):
        if (args[i][:1] == "-" and args[i][:2] != "--"
                and args[i - 1][:2] == "--" and "=" not in args[i - 1]):
            args[i - 1:i + 1] = [f"{args[i - 1]}={args[i]}"]
    try:
        namespace = parser.parse_args(args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    if namespace.command is None:
        parser.print_usage(sys.stderr)
        return 2
    command = _COMMANDS[namespace.command]

    try:
        cfg = _merge_config(command.options, vars(namespace))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    out_path = str(cfg.get("out") or "")
    started = time.perf_counter()
    try:
        # ChartDomainError, DegenerateBodyError, and ParallelStripsError are
        # ValueError subclasses: all input-validation failures land here.
        outcome = command.runner(cfg)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        # inputs whose numbers leave the float range, such as huge radii
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # inputs too large to hold, such as a 10^12-period scan; numpy's
        # subclass of MemoryError has a private name
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return 2
    wall = time.perf_counter() - started

    if isinstance(outcome, str):
        _write_output(outcome, out_path)
        print(f"wall_time: {wall:.6f}s", file=sys.stderr)
        return 0

    report = VerificationReport(
        command=command.name,
        parameters={opt.name: _canonical(cfg[opt.name])
                    for opt in command.options
                    if opt.name not in ("out", "config")},
        seed=int(cfg.get("seed", 0)),
        version=_package_version(),
        checks=tuple(outcome),
    )
    _write_output(canonical_json(report.payload()) + "\n", out_path)
    print(f"wall_time: {wall:.6f}s", file=sys.stderr)
    return 0 if report.all_passed else 1


def _write_output(text: str, out_path: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
