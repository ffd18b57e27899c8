import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
from functools import cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import secantplane
from secantplane import (DEFAULT_DEGENERACY_FLOOR, Point2, ProbeConfig, SequenceKind,
                         Verdict, default_sequence_specs, probe)
from secantplane.cli import _CE_SUMMARY, _PAIRINGS, _csv, _g17, _json_block, build_parser, main
from secantplane.expr import as_function, parse

GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_square_sum_unit_axes(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--function", "x^2+y^2",
                               "--point", "0,0", "--a", "1,0", "--b", "0,1",
                               "--format", "json")
        assert code == 0
        fields = json.loads(out)
        assert fields["alpha"] == 1.0
        assert fields["beta"] == 1.0

    def test_affine_exactness(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--function", "3*x-2*y+5",
                               "--point", "0,0", "--a", "1,0", "--b", "0,1",
                               "--format", "json")
        assert code == 0
        fields = json.loads(out)
        assert fields["alpha"] == 3.0
        assert fields["beta"] == -2.0

    def test_parallel_basis_exits_3(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--function", "x",
                               "--point", "0,0", "--a", "1,0", "--b", "2,0")
        assert code == 3
        assert "error" in err

    def test_basis_with_overflowing_norms_exits_0(self, capsys):
        # The basis is orthogonal, though hypot of each column overflows.
        code, out, err = run_cli(capsys, "estimate", "--function", "0*x", "--point", "0,0",
                                 "--a", "1.7e308,1.7e308", "--b=-1.7e308,1.7e308",
                                 "--format", "json")
        assert (code, err) == (0, "")
        assert abs(json.loads(out)["sin_theta"] - 1.0) <= 2 * math.ulp(1.0)

    def test_bad_expression_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "estimate", "--function", "x +",
                               "--point", "0,0", "--a", "1,0", "--b", "0,1")
        assert code == 2
        assert "error" in err

    def test_duplicate_point_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "estimate", "--function", "x",
                             "--point", "0,0", "--a", "0,0", "--b", "0,1")
        assert code == 2

    @pytest.mark.parametrize("argv,last_line", [
        (["estimate", "--function", "x", "--point", "zero", "--a", "1,0", "--b", "0,1"],
         "secantplane estimate: error: argument --point: expected 'x,y', got 'zero'"),
        (["probe", "--function", "x", "--point", "1,inf"],
         "secantplane probe: error: argument --point: y must be finite, got inf"),
    ])
    def test_malformed_point_exits_2(self, capsys, argv, last_line):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines()[-1] == last_line

    def test_csv_round_trip_bit_exact(self, capsys):
        code, out, _ = run_cli(capsys, "estimate", "--function", "sin(x)*cos(y)",
                               "--point", "0.3,0.7", "--a", "0.31,0.7",
                               "--b", "0.3,0.71", "--format", "csv")
        assert code == 0
        header, row = list(csv.reader(io.StringIO(out)))
        fields = dict(zip(header, (float(v) for v in row)))
        f = as_function(parse("sin(x)*cos(y)"))
        from secantplane import sample_function, secant_coefficients
        coeffs = secant_coefficients(sample_function(
            f, Point2(0.3, 0.7), Point2(0.31, 0.7), Point2(0.3, 0.71)))
        assert fields["alpha"] == coeffs.alpha
        assert fields["beta"] == coeffs.beta


class TestProbe:
    def test_square_sum_origin_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "--function", "x^2+y^2",
                               "--point", "0,0", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        est = payload["summary"]["jacobian_estimate"]
        assert abs(est[0]) <= 1e-6 and abs(est[1]) <= 1e-6

    def test_radial_direction_with_overflowing_norm(self, capsys):
        def direction(seqs):
            code, out, _ = run_cli(capsys, "probe", "--function", "x^2+y^2", "--point",
                                   "0,0", "--seqs", seqs, "--format", "json")
            assert code == 0
            return json.loads(out)["config"]["sequence_specs"][0]["direction"]

        want = direction("radial:1,1;radial:0,1")
        got = direction("radial:1.7e308,1.7e308;radial:0,1")
        assert all(abs(g - w) <= math.ulp(w) for g, w in zip(got, want))

    def test_estimate_whose_limits_sum_past_the_largest_float_exits_0(self, capsys):
        code, out, err = run_cli(capsys, "probe", "--function", "1e308*x",
                                 "--point", "0,0", "--format", "json")
        assert (code, err) == (0, "")
        summary = json.loads(out)["summary"]
        assert summary["verdict"] == "consistent-with-differentiable"
        assert summary["jacobian_estimate"] == [1e308, 0.0]

    def test_absolute_value_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, "probe", "--function", "abs(x)",
                             "--point", "0,0")
        assert code == 4

    def test_square_sum_off_origin_estimate(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "--function", "x^2+y^2",
                               "--point", "1,2", "--format", "json")
        assert code == 0
        est = json.loads(out)["summary"]["jacobian_estimate"]
        assert abs(est[0] - 2.0) <= 1e-5
        assert abs(est[1] - 4.0) <= 1e-5

    def test_counterexample_seqs_inconclusive_then_contradicted(self, capsys):
        code, _, _ = run_cli(capsys, "probe", "--function", "x^2+y^2",
                             "--point", "0,0",
                             "--seqs", "counterexample:ab;counterexample:ac")
        assert code == 5
        code, _, _ = run_cli(capsys, "probe", "--function", "x^2+y^2",
                             "--point", "0,0", "--steps", "2000",
                             "--seqs", "counterexample:ab;counterexample:ac")
        assert code == 4

    def test_pairing_names_match_in_any_case(self, capsys):
        argv = ["probe", "--function", "x^2+y^2", "--point", "0,0", "--format", "json",
                "--seqs"]
        lower = run_cli(capsys, *argv, "counterexample:ab;counterexample:ac")
        assert run_cli(capsys, *argv, "counterexample:AB;counterexample:Ac") == lower
        assert lower[0] == 5

    def test_repeated_seqs_flags(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "--function", "x^2+y^2",
                               "--point", "0,0", "--seqs", "radial:1,0",
                               "--seqs", "radial:0,1", "--format", "json")
        assert code == 0
        kinds = [t["kind"] for t in json.loads(out)["trajectories"]]
        assert kinds == ["radial", "radial"]

    def test_radial_direction_is_normalized(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "--function", "x^2+y^2",
                               "--point", "0,0", "--seqs", "radial:3,4",
                               "--seqs", "radial:-4,3", "--format", "json")
        assert code == 0
        d = json.loads(out)["config"]["sequence_specs"][0]["direction"]
        assert d == [0.6, 0.8]

    def test_unknown_seq_kind_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "probe", "--function", "x",
                               "--point", "0,0", "--seqs", "spiral:1")
        assert code == 2
        assert "error" in err

    def test_bad_expression_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "probe", "--function", "2x", "--point", "0,0")
        assert code == 2

    def test_json_matches_in_process_report_bit_exactly(self, capsys):
        code, out, _ = run_cli(capsys, "probe", "--function", "sin(x)*cos(y)",
                               "--point", "0.5,0.2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        base = Point2(0.5, 0.2)
        f = as_function(parse("sin(x)*cos(y)"))
        report = probe(f, base, ProbeConfig(sequence_specs=default_sequence_specs(base)))
        est = payload["summary"]["jacobian_estimate"]
        assert tuple(est) == report.jacobian_estimate
        assert payload["summary"]["max_disagreement"] == report.max_disagreement
        for traj_json, traj in zip(payload["trajectories"], report.trajectories):
            for step_json, step in zip(traj_json["steps"], traj.steps):
                assert step_json["alpha"] == step.alpha
                assert step_json["beta"] == step.beta
                assert step_json["radius"] == step.radius
                assert step_json["sin_theta"] == step.sin_theta

    def test_csv_round_trip_bit_exact(self, capsys):
        base = Point2(0.5, 0.2)
        f = as_function(parse("sin(x)*cos(y)"))
        report = probe(f, base, ProbeConfig(sequence_specs=default_sequence_specs(base)))
        code, out, _ = run_cli(capsys, "probe", "--function", "sin(x)*cos(y)",
                               "--point", "0.5,0.2", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        steps = [s for t in report.trajectories for s in t.steps]
        assert len(rows) == len(steps)
        for row, step in zip(rows, steps):
            assert float(row["alpha"]) == step.alpha
            assert float(row["beta"]) == step.beta
            assert float(row["radius"]) == step.radius
            assert float(row["estimate_alpha"]) == report.jacobian_estimate[0]

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "probe", "--function", "x^2+y^2",
                               "--point", "0,0", "--format", "json",
                               "--out", str(target))
        assert code == 0
        assert out == ""
        payload = json.loads(target.read_text())
        assert payload["summary"]["verdict"] == "consistent-with-differentiable"

    def test_unwritable_out_file_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "probe", "--function", "x^2+y^2",
                                 "--point", "0,0", "--format", "json",
                                 "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err
        assert not target.parent.exists()

    def test_out_directory_is_checked_before_the_function_runs(self, capsys, tmp_path):
        # sqrt(x) leaves its domain at (0,0): the path must be reported first.
        target = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(capsys, "probe", "--function", "sqrt(x)",
                                 "--point", "0,0", "--out", str(target))
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and str(target) in err and "sqrt" not in err

    def test_failed_command_leaves_out_file_untouched(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        target.write_text("kept\n")
        code, _, _ = run_cli(capsys, "probe", "--function", "x +", "--point", "0,0",
                             "--out", str(target))
        assert code == 2
        assert target.read_text() == "kept\n"
        code, _, _ = run_cli(capsys, "probe", "--function", "sqrt(x)", "--point", "0,0",
                             "--out", str(tmp_path / "new.json"))
        assert code == 2
        assert not (tmp_path / "new.json").exists()


class TestCounterexample:
    def test_first_row_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--kmax", "5",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        first_ab = next(r for r in payload["rows"]
                        if r["pairing"] == "ab" and r["k"] == 1)
        assert abs(first_ab["alpha"] - 0.8414709848) <= 1e-9
        assert abs(first_ab["beta"] - 1.4596976941) <= 1e-9
        assert abs(first_ab["alpha_check"]) < 1e-12
        assert abs(first_ab["beta_check"]) < 1e-12

    def test_summary_planes(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--kmax", "2",
                               "--format", "json")
        assert code == 0
        summary = {row["plane"]: (row["alpha"], row["beta"])
                   for row in json.loads(out)["summary"]}
        assert summary["ab-limit"] == (0.0, 1.0)
        assert summary["ac-limit"] == (0.0, 2.0)
        assert summary["tangent"] == (0.0, 0.0)

    def test_csv_has_check_columns(self, capsys):
        code, out, _ = run_cli(capsys, "counterexample", "--kmax", "3",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        data_rows = [r for r in rows if r["pairing"] in ("ab", "ac")]
        assert len(data_rows) == 6
        for row in data_rows:
            assert abs(float(row["alpha_check"])) < 1e-12
            assert abs(float(row["beta_check"])) < 1e-12

    def test_bad_kmax_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "counterexample", "--kmax", "0")
        assert code == 2

    @pytest.mark.parametrize("kmax", [1, 9, 10, 11, 12])
    def test_rows_match_the_probe_steps_of_the_collapsing_pairings(self, capsys, kmax):
        # The rows are the first kmax steps of both pairings' trajectories on
        # x^2+y^2, k-major with ab first, also below the probe's least step
        # count of 10; each must equal the probe's step bit for bit.
        code, out, _ = run_cli(capsys, "counterexample", "--kmax", str(kmax), "--format", "json")
        assert code == 0
        rows = json.loads(out)["rows"]
        code, out, _ = run_cli(capsys, "probe", "--function", "x^2+y^2", "--point", "0,0",
                               "--seqs", "counterexample:ab;counterexample:ac",
                               "--steps", str(max(kmax, 10)), "--format", "json")
        assert code == 5
        trajectories = {t["kind"]: t["steps"] for t in json.loads(out)["trajectories"]}
        assert [(row["k"], row["pairing"]) for row in rows] == [
            (k, pairing) for k in range(1, kmax + 1) for pairing in ("ab", "ac")]
        for row in rows:
            step = trajectories["counterexample-" + row["pairing"]][row["k"] - 1]
            assert step["k"] == row["k"]
            for key in ("alpha", "beta"):
                assert float.hex(step[key]) == float.hex(row[key]), (row, key)

    def test_table_footer_gives_each_pairing_its_summary_limit(self, capsys):
        # The footer is written out by hand; it must name every pairing with
        # the slope of z = beta*y that the JSON and CSV summary give it.
        code, out, _ = run_cli(capsys, "counterexample", "--kmax", "1")
        assert code == 0
        footer = out.splitlines()[-1]
        slopes = {name: (alpha, beta) for name, alpha, beta in _CE_SUMMARY}
        for pairing in _PAIRINGS:
            alpha, beta = slopes[f"{pairing}-limit"]
            assert alpha == 0.0
            assert f"{pairing} -> z = {'y' if beta == 1.0 else f'{beta:g}y'};" in footer
        assert slopes["tangent"] == (0.0, 0.0)
        assert footer.endswith("; tangent plane -> z = 0")


MISSING_DIR = "{tmp}/missing/report.json"

# Every error route of the CLI: (argv, exit code, the one stderr line).
ERROR_ROUTES = {
    "estimate-bad-expression": (
        ["estimate", "--function", "x +", "--point", "0,0", "--a", "1,0", "--b", "0,1"],
        2, "error: parse error at offset 3: expected an expression"),
    # Too deep for the parser (parentheses, function calls) or for compiling (a long sum).
    "estimate-200-nested-parentheses": (
        ["estimate", "--function", "(" * 200 + "x" + ")" * 200, "--point", "0,0",
         "--a", "1,0", "--b", "0,1"],
        2, "error: parse error at offset 0: expected an expression nested less deeply"),
    "estimate-3000-term-sum": (
        ["estimate", "--function", "+".join(["x"] * 3000), "--point", "0,0",
         "--a", "1,0", "--b", "0,1"],
        2, "error: expression nested too deeply to evaluate"),
    "probe-300-nested-sin": (
        ["probe", "--function", "sin(" * 300 + "x" + ")" * 300, "--point", "0,0"],
        2, "error: parse error at offset 0: expected an expression nested less deeply"),
    "estimate-duplicate-point": (
        ["estimate", "--function", "x", "--point", "0,0", "--a", "0,0", "--b", "0,1"],
        2, "error: companion a coincides with the base point"),
    "estimate-parallel-basis": (
        ["estimate", "--function", "x", "--point", "0,0", "--a", "1,0", "--b", "2,0"],
        3, "error: secant basis sin(theta)=0.000000e+00 is below the floor 1.000000e-08"),
    "estimate-zero-floor": (
        ["estimate", "--function", "x", "--point", "0,0", "--a", "1,0", "--b", "0,1",
         "--floor", "0"],
        2, "error: degeneracy_floor must be positive and finite"),
    "probe-bad-seqs": (
        ["probe", "--function", "x", "--point", "0,0", "--seqs", "spiral:1"],
        2, "error: unknown sequence kind 'spiral' in 'spiral:1'"),
    "probe-radial-without-direction": (
        ["probe", "--function", "x", "--point", "0,0", "--seqs", "radial:1"],
        2, "error: radial entry needs a direction 'radial:DX,DY', got 'radial:1'"),
    "probe-radial-zero-direction": (
        ["probe", "--function", "x", "--point", "0,0", "--seqs", "radial:0,0"],
        2, "error: radial direction must be nonzero"),
    "probe-random-unknown-parameter": (
        ["probe", "--function", "x", "--point", "0,0", "--seqs", "random:foo=1"],
        2, "error: unknown random parameter 'foo' in 'random:foo=1'"),
    "probe-random-parameter-twice": (
        ["probe", "--function", "x", "--point", "0,0",
         "--seqs", "random:seed=1,seed=2;radial:0,1"],
        2, "error: random parameter 'seed' given twice in 'random:seed=1,seed=2'"),
    "probe-counterexample-bad-pairing": (
        ["probe", "--function", "x", "--point", "0,0", "--seqs", "counterexample:xy"],
        2, "error: counterexample entry needs ':ab' or ':ac', got 'counterexample:xy'"),
    "probe-unwritable-out": (
        ["probe", "--function", "x^2+y^2", "--point", "0,0", "--out", MISSING_DIR],
        2, f"error: cannot write '{MISSING_DIR}': its directory is missing or not writable"),
    # sqrt(x) leaves its domain at (0,0): the directory must be reported first.
    "probe-out-is-directory": (
        ["probe", "--function", "sqrt(x)", "--point", "0,0", "--out", "{tmp}"],
        2, "error: cannot write '{tmp}': it is a directory"),
    "probe-out-empty": (
        ["probe", "--function", "sqrt(x)", "--point", "0,0", "--out", ""],
        2, "error: cannot write '': the path is empty"),
    "probe-out-under-a-file": (
        ["probe", "--function", "sqrt(x)", "--point", "0,0", "--out", "{tmp}/file/r.json"],
        2, "error: cannot write '{tmp}/file/r.json': its directory is missing or not writable"),
    # DegenerateBasis from the probe is a validation error: exit 2, not 3.
    "probe-floor-violation": (
        ["probe", "--function", "x+y", "--point", "1e9,0.5", "--p", "0.99",
         "--seqs", "radial:1,0.3;radial:0,1"],
        2, "error: spec radial violated the angle floor at step 20"),
    "probe-steps-below-twice-tail-window": (
        ["probe", "--function", "x", "--point", "0,0", "--steps", "9"],
        2, "error: max_steps must be at least 2*tail_window = 10, got 9"),
    "probe-steps-below-eight": (
        ["probe", "--function", "x", "--point", "0,0", "--steps", "7"],
        2, "error: max_steps must be at least 2*tail_window = 10, got 7"),
    "counterexample-kmax-0": (
        ["counterexample", "--kmax", "0"],
        2, "error: --kmax must be >= 1"),
    # Past the pairings' last step, k = 9,999,999: refused before any row is built.
    "counterexample-kmax-beyond-last-step": (
        ["counterexample", "--kmax", "10000000"],
        2, "error: counterexample radius sin(1/10000000) is below 1e-07"),
}


class TestErrorRoutes:
    @pytest.mark.parametrize("route", sorted(ERROR_ROUTES))
    def test_exit_code_empty_stdout_one_error_line(self, capsys, tmp_path, route):
        argv, want_code, want_err = ERROR_ROUTES[route]
        (tmp_path / "file").write_text("kept\n")
        code, out, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
        assert code == want_code
        assert out == ""
        assert err == want_err.format(tmp=tmp_path) + "\n"
        assert not (tmp_path / "missing").exists()
        assert (tmp_path / "file").read_text() == "kept\n"


class TestParserReuse:
    """One parser serves every call in a process; no call sees another's flags."""

    def test_build_parser_returns_one_shared_parser(self):
        assert build_parser() is build_parser()

    def test_repeated_seqs_do_not_leak_into_the_next_call(self, capsys):
        argv = ["probe", "--function", "x^2+y^2", "--point", "0,0", "--format", "json"]
        code, out, _ = run_cli(capsys, *argv, "--seqs", "radial:1,0", "--seqs", "radial:0,1")
        assert code == 0
        assert len(json.loads(out)["config"]["sequence_specs"]) == 2
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        kinds = [s["kind"] for s in json.loads(out)["config"]["sequence_specs"]]
        assert kinds == [s.kind.value for s in default_sequence_specs(Point2(0.0, 0.0))]
        assert len(kinds) == 3

    def test_degenerate_exit_is_set_again_on_every_parse(self, capsys):
        # estimate maps a degenerate basis to 3; the probe's floor violation stays 2.
        for route in ("estimate-parallel-basis", "probe-floor-violation",
                      "estimate-parallel-basis"):
            argv, want_code, want_err = ERROR_ROUTES[route]
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (want_code, "", want_err + "\n")

    def test_commands_are_looked_up_on_every_call(self, capsys, monkeypatch):
        # A wrapper installed after the parser was built, as a tracer does, is called.
        build_parser()
        calls = []
        real = secantplane.cli.cmd_counterexample
        monkeypatch.setattr(secantplane.cli, "cmd_counterexample",
                            lambda args: calls.append(args.kmax) or real(args))
        code, _, _ = run_cli(capsys, "counterexample", "--kmax", "2")
        assert code == 0 and calls == [2]

    def test_bad_flag_then_good_call_gives_golden_bytes(self, capsys):
        code, out, err = run_cli(capsys, "probe", "--function", "x^2+y^2", "--point", "1,2",
                                 "--nope")
        assert code == 2 and out == "" and "--nope" in err
        code, out, _ = run_cli(capsys, "probe", "--function", "x^2+y^2", "--point", "1,2",
                               "--format", "json")
        assert code == 0
        assert out.encode() == (GOLDEN / "probe-square-12-json.out").read_bytes()


# Values of every type the JSON writer takes, nested; strings without escapes.
_plain_text = st.text("abc-_ 019", max_size=6)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _plain_text,
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(_plain_text, children, max_size=3)),
    max_leaves=12)


class TestJsonWriter:
    @settings(max_examples=300, deadline=None)
    @given(_json_values, st.integers(min_value=0, max_value=4))
    def test_block_is_json_dumps_indent_2_at_any_depth(self, value, depth):
        want = json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)
        assert _json_block(value, depth) == want

    def test_json_output_loads_no_json_module(self):
        src = str(Path(secantplane.__file__).resolve().parent.parent)
        script = (
            "import io, sys; sys.path.insert(0, sys.argv[1]); from secantplane.cli import main\n"
            "out, sys.stdout = sys.stdout, io.StringIO()\n"
            "codes = [main(['probe', '--function', 'x^2+y^2', '--point', '1,2', '--format', 'json']),\n"
            "         main(['estimate', '--function', 'x^2+y^2', '--point', '0,0',\n"
            "               '--a', '1,0', '--b', '0,1', '--format', 'json']),\n"
            "         main(['counterexample', '--kmax', '3', '--format', 'json'])]\n"
            "sys.stdout = out\n"
            "print(codes, 'json' in sys.modules)\n")
        proc = subprocess.run([sys.executable, "-I", "-c", script, src],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[0, 0, 0] False\n"

    def test_strings_written_unescaped_need_no_escaping(self):
        names = ([kind.value for kind in SequenceKind] + [v.value for v in Verdict]
                 + [name for name, _, _ in _CE_SUMMARY])
        for name in names:
            assert name.isascii() and name.isprintable(), name
            assert '"' not in name and "\\" not in name, name
        # CSV fields are written unquoted. The first check shows that the spy
        # saw the headers and rows.
        assert {"spec_index", "estimate_alpha", "pairing", "ab", "ac"} <= set(_csv_strings())
        for text in _csv_strings():
            assert text.isascii() and text.isprintable(), text
            assert not set(text) & set(',"\r\n'), text


CSV_COMMANDS = (
    ["estimate", "--function", "x^2+y^2", "--point", "0,0", "--a", "1,0", "--b", "0,1",
     "--format", "csv"],
    ["probe", "--function", "x^2+y^2", "--point", "1,2", "--format", "csv"],
    ["probe", "--function", "x^2+y^2", "--point", "0,0",
     "--seqs", "counterexample:ab;counterexample:ac", "--format", "csv"],
    ["counterexample", "--kmax", "2", "--format", "csv"],
)


@cache
def _csv_strings() -> tuple[str, ...]:
    """Every string that can reach ``_csv``: the string fields of the headers
    and rows that the CSV commands hand it, and every enum value and summary
    name, whether or not those commands write it."""
    seen = {kind.value for kind in SequenceKind} | {v.value for v in Verdict}
    seen |= {name for name, _, _ in _CE_SUMMARY}

    def spy(header, rows):
        seen.update(field for row in (header, *rows) for field in row
                    if isinstance(field, str))
        return ""
    with mock.patch.object(secantplane.cli, "_csv", spy), \
            contextlib.redirect_stdout(io.StringIO()):
        for argv in CSV_COMMANDS:
            assert main(argv) in (0, 5)
    return tuple(sorted(seen))


def _csv_writer_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


_csv_names = st.deferred(lambda: st.sampled_from(_csv_strings()))
_csv_fields = _csv_names | st.floats().map(_g17) | st.integers() | st.just("")


@st.composite
def _csv_tables(draw):
    # Every CSV row the CLI writes has at least six fields. csv.writer quotes
    # a row made of one empty field, which the CLI never writes.
    width = draw(st.integers(min_value=2, max_value=12))
    header = draw(st.lists(_csv_names, min_size=width, max_size=width))
    rows = draw(st.lists(st.lists(_csv_fields, min_size=width, max_size=width), max_size=4))
    return header, rows


class TestCsvWriter:
    @settings(max_examples=300, deadline=None)
    @given(_csv_tables())
    def test_csv_is_csv_writer_output(self, table):
        assert _csv(*table) == _csv_writer_text(*table)


class TestEntryPoints:
    @pytest.mark.parametrize("command, shown", [
        ("estimate", [f"sin(theta) (default {DEFAULT_DEGENERACY_FLOOR:g})"]),
        ("probe", [f"p in (0,1) (default {ProbeConfig.angle_floor:g})",
                   f"max steps per sequence (default {ProbeConfig.max_steps:g}), at least 10"]),
        ("counterexample", ["--kmax"]),
    ])
    def test_help_shows_library_defaults(self, capsys, command, shown):
        code, out, err = run_cli(capsys, command, "--help")
        assert code == 0 and err == ""
        text = " ".join(out.split())
        for phrase in shown:
            assert phrase in text

    def test_import_loads_neither_json_nor_csv(self):
        src = str(Path(secantplane.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-I", "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); import secantplane.cli; "
             "print(sorted({'json', 'csv'} & set(sys.modules)))", src],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_pyproject_names_the_package_version_and_cli(self):
        # Tier-1 runs src/, not the installed console script (CI runs that in a
        # separate step), so this checks what pyproject.toml names.
        tomllib = pytest.importorskip("tomllib")   # Python 3.11+
        with open(Path(__file__).resolve().parent.parent / "pyproject.toml", "rb") as handle:
            project = tomllib.load(handle)["project"]
        assert project["version"] == secantplane.__version__
        assert project["scripts"]["secantplane"] == "secantplane.cli:main"

    def test_missing_subcommand_exits_2(self, capsys):
        assert main([]) == 2

    def test_unknown_flag_exits_2(self, capsys):
        assert main(["estimate", "--nope"]) == 2

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "secantplane", "estimate", "--function",
             "x^2+y^2", "--point", "0,0", "--a", "1,0", "--b", "0,1",
             "--format", "json"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["alpha"] == 1.0

    @pytest.mark.parametrize("argv", [
        ["probe", "--function", "sin(x)*cos(y)", "--point", "0.5,0.2", "--format", "json"],
        ["probe", "--function", "x^2+y^2", "--point", "0,0", "--seqs",
         "counterexample:ab;counterexample:ac", "--steps", "2000", "--format", "json"],
    ], ids=["default-specs", "collapsing"])
    def test_output_is_identical_across_hash_seeds(self, capsys, argv):
        code = main(argv)
        in_process = capsys.readouterr().out.encode()
        src = str(Path(secantplane.__file__).resolve().parent.parent)
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            proc = subprocess.run([sys.executable, "-m", "secantplane", *argv],
                                  capture_output=True, env=env)
            assert proc.returncode == code
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == in_process

    def test_module_invocation_exit_codes(self):
        proc = subprocess.run(
            [sys.executable, "-m", "secantplane", "probe", "--function",
             "abs(x)", "--point", "0,0"],
            capture_output=True, text=True)
        assert proc.returncode == 4
