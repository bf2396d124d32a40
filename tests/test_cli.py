"""End-to-end tests of the command-line interface and its serialization."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from fatflat import cli, flow
from fatflat.cli import CheckResult, VerificationReport, canonical_json, run
from fatflat.geometry import MetricChart
from fatflat.profiles import WarpingProfile

from conftest import largest_bump_width


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, out


def load_report(path):
    return json.loads(path.read_text())


class TestExitCodes:
    def test_passing_profile_verification_returns_zero(self, tmp_path):
        code, _ = run_to_file(tmp_path, "ok.json",
                              ["verify-profile", "--k", "19",
                               "--grid-max", "5"])
        assert code == 0

    def test_failing_profile_verification_returns_one(self, tmp_path):
        code, out = run_to_file(tmp_path, "fail.json",
                                ["verify-profile", "--k", "1",
                                 "--grid-max", "5"])
        assert code == 1
        report = load_report(out)
        failed = {c["name"] for c in report["checks"] if not c["passed"]}
        assert "profiles.step_convexity_margin" in failed

    def test_non_prime_modulus_returns_two(self, capsys):
        assert run(["ff-lemma", "--q", "4"]) == 2
        assert "odd prime" in capsys.readouterr().err

    def test_unknown_command_returns_two(self):
        assert run(["no-such-command"]) == 2

    def test_missing_command_returns_two(self):
        assert run([]) == 2

    def test_help_returns_zero(self, capsys):
        assert run(["--help"]) == 0
        assert "verify-profile" in capsys.readouterr().out

    def test_unparsable_flag_value_returns_two(self, capsys):
        assert run(["verify-profile", "--k", "abc"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command,flag", [
        (cmd.name, opt.name) for cmd in cli._COMMANDS.values()
        for opt in cmd.options
        if opt.parse in (cli._float, cli._parse_floats)])
    def test_non_finite_float_flag_returns_two(self, capsys, command, flag,
                                               value):
        # nan and inf parse as floats but must never reach a runner; "=" so
        # that argparse does not read -inf as a flag
        text = f"1,{value},0" if flag in ("position", "velocity") else value
        assert run([command, f"--{flag}={text}"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --{flag}: expected a finite number, got " \
                      f"'{value}'\n"

    @pytest.mark.parametrize("argv,flag,value", [
        (["flats-translation", "--samples", "20000"], "shift", "-0.5,0"),
        (["geodesic", "--chart", "cartesian", "--duration", "0.1"],
         "position", "-0.01,0,0"),
    ])
    def test_list_value_with_a_leading_minus_sign(self, capsys, argv, flag,
                                                  value):
        # after a space, the value reads as it does in the "=" form
        assert run(argv + [f"--{flag}={value}"]) == 0
        joined = capsys.readouterr().out
        assert run(argv + [f"--{flag}", value]) == 0
        assert capsys.readouterr().out == joined
        assert f"{value.split(',')[0]}," in joined

    @pytest.mark.parametrize("argv,code,message", [
        (["flats-translation", "--shift", "-0.0001,0", "--threshold", "1e-5",
          "--samples", "1000"], 1, ""),
        (["flats-translation", "--shift", "-0.5"], 2,
         "error: shift needs 2 components, got 1\n"),
        (["flats-translation", "--shift", "-x,0"], 2,
         "error: --shift: could not convert string to float: '-x'\n"),
        (["geodesic", "--position", "-1,-inf,0"], 2,
         "error: --position: expected a finite number, got '-inf'\n"),
        (["geodesic", "--position", "-0.01,0,0", "-0.5"], 2, "unrecognized"),
    ])
    def test_leading_minus_sign_keeps_the_exit_contract(self, capsys, argv,
                                                        code, message):
        assert run(argv) == code
        assert message in capsys.readouterr().err

    def test_non_finite_config_value_returns_two(self, tmp_path, capsys):
        config = tmp_path / "cfg.txt"
        config.write_text("k = nan\n")
        assert run(["verify-profile", "--config", str(config)]) == 2
        assert "--k: expected a finite number" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("k", [
        math.nextafter(largest_bump_width(), math.inf), 1e154, 1e300])
    def test_bump_width_past_double_range_returns_two(self, capsys, k):
        assert run(["verify-profile", "--k", repr(k)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: bump width k must be >= 1 with k^4 finite, " \
                      f"got {k!r}\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", ["interpolated", "hyperbolic"])
    def test_grid_past_the_profile_range_returns_two(self, capsys, variant):
        argv = ["verify-profile", "--variant", variant, "--grid-max", "800"]
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            "error: grid radius r = 710.476 is past the profile's range: "
            "sinh or cosh overflows there\n")

    @pytest.mark.filterwarnings("error")
    def test_flat_grid_past_710_runs(self, capsys):
        argv = ["verify-profile", "--variant", "flat", "--grid-max", "800"]
        assert run(argv) == 0
        assert capsys.readouterr().err.startswith("wall_time: ")

    @pytest.mark.filterwarnings("error")
    def test_largest_bump_width_runs_clean(self, capsys):
        assert run(["verify-profile", "--k", repr(largest_bump_width())]) == 0
        assert capsys.readouterr().err.startswith("wall_time: ")

    @pytest.mark.parametrize("command", ["holonomy", "geodesic"])
    def test_block_count_flag_is_gone(self, capsys, command):
        # the angles and the position fix the block count
        assert run([command, "--n", "1"]) == 2
        assert "unrecognized arguments: --n 1" in capsys.readouterr().err

    def test_overflowing_input_returns_two(self, capsys):
        assert run(["verify-curvature", "--r-max", "300",
                    "--samples", "200"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


    def test_closed_form_past_its_range_returns_two(self, capsys):
        # the closed-form grid reaches r = 200, where sigma^4 overflows
        assert run(["verify-curvature", "--r-max", "200",
                    "--samples", "50"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "curvature components overflow at r = 200" in err
        assert "OverflowError" not in err

    def test_past_metric_range_returns_two(self, capsys):
        assert run(["verify-curvature", "--r-max", "400"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow at r = " in err

class TestReportSchema:
    def test_verify_profile_report_fields(self, tmp_path, capsys):
        code, out = run_to_file(tmp_path, "report.json",
                                ["verify-profile", "--k", "19",
                                 "--grid-max", "5"])
        assert code == 0
        report = load_report(out)
        assert set(report) == {"command", "parameters", "seed", "version",
                               "checks", "wall_time"}
        assert report["command"] == "verify-profile"
        assert report["wall_time"] is None
        assert report["seed"] == 0
        assert report["parameters"]["k"] == "19"
        assert len(report["checks"]) == 7
        for check in report["checks"]:
            assert set(check) == {"name", "passed", "worst_value", "location"}
            assert check["passed"] is True
            assert check["name"].startswith("profiles.")
        err = capsys.readouterr().err
        assert "wall_time:" in err

    def test_out_flag_leaves_stdout_empty(self, tmp_path, capsys):
        code, out = run_to_file(tmp_path, "quiet.json",
                                ["eigen-obstruction", "--angles", "1.0",
                                 "--periods", "100"])
        assert code == 0
        assert out.exists()
        assert capsys.readouterr().out == ""

    def test_stdout_report_when_no_out_given(self, capsys):
        code = run(["eigen-obstruction", "--angles", "1.0",
                    "--periods", "100"])
        captured = capsys.readouterr()
        assert code == 0
        report = json.loads(captured.out)
        assert report["command"] == "eigen-obstruction"


class TestDeterminism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        argv = ["eigen-obstruction", "--angles", "1.0",
                "--periods", "5000"]
        _, first = run_to_file(tmp_path, "a.json", argv)
        _, second = run_to_file(tmp_path, "b.json", argv)
        assert first.read_bytes() == second.read_bytes()

    def test_profile_reports_are_byte_identical(self, tmp_path):
        argv = ["verify-profile", "--k", "19", "--grid-max", "5"]
        _, first = run_to_file(tmp_path, "a.json", argv)
        _, second = run_to_file(tmp_path, "b.json", argv)
        assert first.read_bytes() == second.read_bytes()

    def test_seed_changes_randomized_checks(self, tmp_path):
        base = ["flats-hausdorff", "--triples", "20", "--cloud-size", "10"]
        code1, first = run_to_file(tmp_path, "s1.json", base + ["--seed", "1"])
        code2, second = run_to_file(tmp_path, "s2.json",
                                    base + ["--seed", "2"])
        assert code1 == code2 == 0
        assert first.read_bytes() != second.read_bytes()
        assert load_report(first)["seed"] == 1


class TestConfigPrecedence:
    def test_flag_overrides_config_file(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("k = 1\ngrid-max = 5\n")
        code = run(["verify-profile", "--config", str(config),
                    "--k", "19", "--out", str(tmp_path / "o.json")])
        assert code == 0

    def test_config_value_used_when_flag_absent(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("k = 1\ngrid-max = 5\n")
        code = run(["verify-profile", "--config", str(config),
                    "--out", str(tmp_path / "o.json")])
        assert code == 1

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("bogus = 3\n")
        assert run(["verify-profile", "--config", str(config)]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_missing_config_file_rejected(self, tmp_path):
        assert run(["verify-profile", "--config",
                    str(tmp_path / "absent.cfg")]) == 2

    def test_malformed_config_line_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("this line has no equals sign\n")
        assert run(["verify-profile", "--config", str(config)]) == 2
        assert "key=value" in capsys.readouterr().err

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("# sharpness\n\nk = 19\ngrid-max = 5\n")
        code = run(["verify-profile", "--config", str(config),
                    "--out", str(tmp_path / "o.json")])
        assert code == 0


class TestClosingScanCommand:
    def test_untwisted_cylinder_closes_at_first_power(self, tmp_path):
        code, out = run_to_file(tmp_path, "closing.json",
                                ["closing-scan", "--angles", "0.0",
                                 "--radius", "0.01", "--periods", "10"])
        assert code == 0
        report = load_report(out)
        by_name = {c["name"]: c for c in report["checks"]}
        minimum = by_name["cylinder.closing_minimum_reported"]
        assert "first_closed=s=1" in minimum["location"]
        assert by_name["cylinder.closing_matches_deck_powers"]["passed"]

    def test_twisted_scan_agrees_with_eigen_obstruction(self, tmp_path):
        code, out = run_to_file(tmp_path, "twisted.json",
                                ["closing-scan", "--angles",
                                 str(math.pi / 2), "--radius", "0.01",
                                 "--periods", "100"])
        assert code == 0
        report = load_report(out)
        by_name = {c["name"]: c for c in report["checks"]}
        agree = by_name["cylinder.closing_consistent_with_eigen_obstruction"]
        assert agree["passed"]
        assert agree["location"] == "agree"


class TestGeodesicCommand:
    def test_csv_header_and_row_count(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "orbit.csv",
            ["geodesic", "--position", "5.0,0.0,0.0",
             "--velocity", "0.1,0.2,1.0", "--duration", "2.0",
             "--record-every", "10"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,r,a1,z,v_r,v_a1,v_z,energy"
        assert len(lines) == 202
        first = [float(v) for v in lines[1].split(",")]
        assert len(first) == 8
        assert first[0] == 0.0
        assert first[-1] == pytest.approx(1.0, abs=1e-9)
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == pytest.approx(2.0, abs=1e-12)
        assert last[-1] == pytest.approx(1.0, abs=1e-8)

    def test_cartesian_chart_header(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "axis.csv",
            ["geodesic", "--chart", "cartesian",
             "--position", "0.005,0.0,0.0", "--velocity", "0.0,0.0,1.0",
             "--duration", "1.0"])
        assert code == 0
        assert out.read_text().splitlines()[0] == (
            "t,x1,x2,z,v_x1,v_x2,v_z,energy")

    def test_near_axis_polar_start_suggests_cartesian_chart(self, capsys):
        code = run(["geodesic", "--position", "0.005,0.0,0.0",
                    "--velocity=-1.0,0.0,0.0"])
        assert code == 2
        assert "cartesian" in capsys.readouterr().err

    def test_inward_orbit_truncates_with_note(self, tmp_path, capsys):
        code, out = run_to_file(
            tmp_path, "trunc.csv",
            ["geodesic", "--position", "0.05,0.0,0.0",
             "--velocity=-1.0,0.0,0.0", "--duration", "1.0"])
        assert code == 0
        assert "chart exit at t=" in capsys.readouterr().err
        lines = out.read_text().splitlines()
        assert 2 < len(lines) < 60

    def test_cartesian_past_its_range_returns_two(self, capsys):
        code = run(["geodesic", "--variant", "hyperbolic", "--chart",
                    "cartesian", "--position", "18,24,0.2",
                    "--velocity", "0.3,-0.2,0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow at r = " in err
        assert "OverflowError" not in err

    def test_polar_past_the_profile_range_returns_two(self, capsys):
        code = run(["geodesic", "--variant", "hyperbolic", "--position",
                    "700,0.3,0", "--velocity", "1,0,0", "--duration", "20"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow at r = 710." in err
        assert "OverflowError" not in err

    @pytest.mark.filterwarnings("error")
    def test_overflowing_start_returns_two(self, capsys):
        # far from the axis: the metric at the start overflows, so the
        # error names that radius rather than a near-axis chart exit
        code = run(["geodesic", "--variant", "hyperbolic", "--position",
                    "711,0.3,0", "--velocity", "1,0,0"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "overflow at r = 711:" in err

    def test_unknown_chart_rejected(self, capsys):
        assert run(["geodesic", "--chart", "spherical"]) == 2
        assert "unknown chart kind 'spherical'" in capsys.readouterr().err

    @pytest.mark.parametrize("chart,position,names", [
        ("polar", "12,0.3,0.2,0.1,0", "r,a1,a2,a3,z"),
        ("cartesian", "12,0.3,0.2,0.1,0", "x1,x2,x3,x4,z"),
        ("polar", "12,1.2,0.3,0", "r,a1,a2,z")])
    def test_block_dimension_from_the_position(self, tmp_path, chart,
                                               position, names):
        # the block dimension is the position's length minus one (for z)
        velocity = ",".join(["0.1"] * position.count(",") + ["0.5"])
        code, out = run_to_file(
            tmp_path, "orbit.csv",
            ["geodesic", "--chart", chart, "--position", position,
             "--velocity", velocity, "--duration", "0.5"])
        assert code == 0
        lines = out.read_text().splitlines()
        v_names = ",".join(f"v_{c}" for c in names.split(","))
        assert lines[0] == f"t,{names},{v_names},energy"
        assert len(lines) == 52
        energies = [float(line.split(",")[-1]) for line in lines[1:]]
        assert energies == pytest.approx([1.0] * 51, abs=1e-9)

    @pytest.mark.parametrize("stride", ["0", "-5"])
    def test_nonpositive_record_stride_returns_two(self, capsys, stride):
        code = run(["geodesic", "--duration", "0.1",
                    "--record-every", stride])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: record_every must be >= 1\n"

    def test_unnormalized_velocity_keeps_its_energy(self, tmp_path):
        # --normalize false: the energy column is g(v, v) of the velocity
        # as given, here about 1.02 at r = 5 on k = 19
        position, velocity = [5.0, 0.0, 0.0], [0.1, 0.2, 1.0]
        code, out = run_to_file(
            tmp_path, "raw.csv",
            ["geodesic", "--position", "5,0,0", "--velocity", "0.1,0.2,1.0",
             "--duration", "0.5", "--normalize", "false"])
        assert code == 0
        rows = [[float(v) for v in line.split(",")]
                for line in out.read_text().splitlines()[1:]]
        chart = MetricChart.polar(WarpingProfile.interpolated(19.0), 1)
        energy = flow.kinetic_energy(chart, position, velocity)
        assert abs(energy - 1.0) > 1e-3
        assert rows[0][4:7] == velocity
        assert rows[0][-1] == pytest.approx(energy, rel=1e-15)
        assert [r[-1] for r in rows] == pytest.approx(
            [energy] * len(rows), rel=1e-9)

    def test_non_boolean_normalize_returns_two(self, capsys):
        assert run(["geodesic", "--normalize", "maybe"]) == 2
        assert capsys.readouterr().err == \
            "error: --normalize: expected a boolean, got 'maybe'\n"

    def test_wrong_component_count_rejected(self, capsys):
        assert run(["geodesic", "--position", "1.0,0.0"]) == 2
        assert "components" in capsys.readouterr().err


class TestHolonomyCommand:
    def test_block_count_is_the_number_of_angles(self, tmp_path):
        code, out = run_to_file(tmp_path, "hol.json",
                                ["holonomy", "--angles", "1.0,2.0"])
        assert code == 0
        report = load_report(out)
        assert "n" not in report["parameters"]
        assert report["parameters"]["angles"] == "1,2"
        for check in report["checks"]:
            assert check["passed"]
            assert check["location"] == "angles=(1,2)"
        assert cli._cylinder_from({"angles": (1.0, 2.0), "length": 1.0,
                                   "k": 19.0}).n == 2


class TestFiniteFieldCommand:
    def test_prime_modulus_passes_all_checks(self, tmp_path):
        code, out = run_to_file(tmp_path, "ff.json",
                                ["ff-lemma", "--q", "7",
                                 "--reduction-samples", "50"])
        assert code == 0
        report = load_report(out)
        names = [c["name"] for c in report["checks"]]
        assert "arith.hyperbolic_block_order" in names
        assert "arith.anisotropic_block_order" in names
        assert names.count("arith.assembly_eigenvalue_certificate") == 9
        assert all(c["passed"] for c in report["checks"])


class TestFlatsCommands:
    def test_hausdorff_random_axioms(self, tmp_path):
        code, out = run_to_file(tmp_path, "haus.json",
                                ["flats-hausdorff", "--triples", "20",
                                 "--cloud-size", "10"])
        assert code == 0
        report = load_report(out)
        names = {c["name"] for c in report["checks"]}
        assert names == {"flats.hausdorff_identity",
                         "flats.hausdorff_symmetry",
                         "flats.hausdorff_triangle_inequality"}

    def test_hausdorff_compute_mode_from_csv(self, tmp_path):
        first = tmp_path / "x.csv"
        second = tmp_path / "y.csv"
        first.write_text("0.0,0.0\n")
        second.write_text("3.0,4.0\n")
        code, out = run_to_file(tmp_path, "pair.json",
                                ["flats-hausdorff", "--first", str(first),
                                 "--second", str(second)])
        assert code == 0
        report = load_report(out)
        symmetry = next(c for c in report["checks"]
                        if c["name"] == "flats.hausdorff_symmetry")
        assert "distance=5" in symmetry["location"]

    def test_hausdorff_requires_both_files(self, tmp_path):
        first = tmp_path / "x.csv"
        first.write_text("0.0,0.0\n")
        assert run(["flats-hausdorff", "--first", str(first)]) == 2

    def test_translation_strict_increase_for_shifted_square(self, tmp_path):
        code, out = run_to_file(tmp_path, "shift.json",
                                ["flats-translation", "--samples", "200000"])
        assert code == 0
        report = load_report(out)
        increase = next(c for c in report["checks"]
                        if c["name"] == "flats.translation_strict_increase")
        assert increase["passed"]
        assert "translational_part=0.5" in increase["location"]

    def test_rotation_about_centroid_waives_strict_increase(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "rot.json",
            ["flats-translation", "--shift", "0.0,0.0",
             "--rotate", str(math.pi / 2), "--samples", "100000"])
        assert code == 0
        report = load_report(out)
        increase = next(c for c in report["checks"]
                        if c["name"] == "flats.translation_strict_increase")
        assert increase["passed"]
        assert "not_required" in increase["location"]

    def test_translated_polygon_gains_area(self, tmp_path):
        code, out = run_to_file(
            tmp_path, "disk.json",
            ["flats-translation", "--body", "disk256",
             "--shift", "0.0,0.01", "--samples", "400000"])
        assert code == 0
        assert all(c["passed"] for c in load_report(out)["checks"])

    def test_missing_body_file_rejected(self, tmp_path):
        assert run(["flats-translation", "--body",
                    str(tmp_path / "nope.csv")]) == 2

    def test_thicken_defaults_pass(self, tmp_path):
        code, out = run_to_file(tmp_path, "thicken.json", ["flats-thicken"])
        assert code == 0
        report = load_report(out)
        assert len(report["checks"]) == 4
        assert all(c["passed"] for c in report["checks"])


class TestReportAll:
    def test_full_suite_passes_with_41_checks(self, tmp_path):
        code, out = run_to_file(tmp_path, "all.json", ["report-all"])
        assert code == 0
        report = load_report(out)
        assert len(report["checks"]) == 41
        assert all(c["passed"] for c in report["checks"])
        prefixes = {c["name"].split(":")[0] for c in report["checks"]}
        assert prefixes == {"verify-profile", "verify-curvature", "holonomy",
                            "closing-scan", "eigen-obstruction", "ff-lemma",
                            "flats-hausdorff", "flats-translation",
                            "flats-thicken"}


class TestCanonicalJson:
    def test_sorted_keys_and_seventeen_digit_floats(self):
        text = canonical_json({"b": 1.0 / 3.0, "a": 1})
        assert text.index('"a"') < text.index('"b"')
        assert "0.33333333333333331" in text

    def test_numpy_scalars_and_arrays(self):
        text = canonical_json({"flag": np.bool_(True),
                               "count": np.int64(3),
                               "values": np.array([1.5, 2.5])})
        data = json.loads(text)
        assert data == {"flag": True, "count": 3, "values": [1.5, 2.5]}

    def test_non_finite_floats_become_strings(self):
        assert canonical_json(math.nan) == '"nan"'
        assert canonical_json(math.inf) == '"inf"'

    def test_null_and_empty_containers(self):
        assert canonical_json(None) == "null"
        assert canonical_json({}) == "{}"
        assert canonical_json([]) == "[]"

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_json(object())


class TestReportObjects:
    def test_empty_check_list_rejected(self):
        report = VerificationReport(command="x", parameters={}, seed=0,
                                    version="0", checks=())
        with pytest.raises(ValueError):
            report.payload()

    def test_all_passed_property(self):
        good = CheckResult("a", True, 0.0, "here")
        bad = CheckResult("b", False, 1.0, "there")
        assert VerificationReport("x", {}, 0, "0", (good,)).all_passed
        assert not VerificationReport("x", {}, 0, "0",
                                      (good, bad)).all_passed


class TestConsoleScript:
    def test_installed_entry_point_help(self):
        proc = subprocess.run([sys.executable, "-m", "pytest",
                               "--version"], capture_output=True)
        assert proc.returncode == 0  # interpreter sanity for the next call
        proc = subprocess.run(["fatflat", "--help"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        assert "verify-profile" in proc.stdout

    def test_main_exits_with_run_code(self, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["fatflat", "--help"])
        with pytest.raises(SystemExit) as excinfo:
            cli.main()
        assert excinfo.value.code == 0
