"""Command-line interface: exit codes, output format, trace workflow."""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from cubeq import cli, diagnostics
from cubeq.cli import (EXIT_BAD_TRACE, EXIT_CONFIG, EXIT_UNKNOWN_PROBLEM,
                       EXIT_VIOLATIONS, main)
from cubeq.diagnostics import Violation
from cubeq.driver import SolverConfig
from helpers import decode_vector, encode_vector

# A maratos run in format version 1, its vectors written as lists of numbers.
_V1_TRACE = Path(__file__).parent / "data" / "maratos_v1.trace"
_VECTORS = ("x", "lam", "v_c", "v", "u", "w")


def _run(*args):
    return CliRunner().invoke(main, list(args))


def _edited_trace(tmp_path, index, change, version=2):
    """A maratos trace whose line ``index`` (a JSON object) went through
    ``change``: a fresh run's, or in version 1 the one in tests/data."""
    trace = tmp_path / "run.trace"
    if version == 1:
        trace.write_text(_V1_TRACE.read_text())
    else:
        _run("solve", "--problem", "maratos", "--trace", str(trace))
    lines = trace.read_text().splitlines()
    obj = json.loads(lines[index])
    change(obj)
    lines[index] = json.dumps(obj)
    trace.write_text("\n".join(lines) + "\n")
    return trace


def _replace(obj, new):
    obj.clear()
    obj.update(new)


class TestSolve:
    def test_converged_run(self):
        result = _run("solve", "--problem", "circle_quadratic")
        assert result.exit_code == 0
        assert "status=converged_sosp" in result.output
        assert "problem=circle_quadratic" in result.output

    def test_unknown_problem(self):
        result = _run("solve", "--problem", "no_such_model")
        assert result.exit_code == EXIT_UNKNOWN_PROBLEM

    def test_explicit_start_point(self):
        result = _run("solve", "--problem", "circle_quadratic",
                      "--x0", "0.3,0.9")
        assert result.exit_code == 0

    def test_wrong_start_length(self):
        result = _run("solve", "--problem", "circle_quadratic",
                      "--x0", "1,2,3")
        assert result.exit_code == EXIT_CONFIG

    def test_bad_override_key(self):
        result = _run("solve", "--problem", "circle_quadratic",
                      "--set", "not_a_field=1")
        assert result.exit_code == EXIT_CONFIG

    def test_bad_override_value(self):
        result = _run("solve", "--problem", "circle_quadratic",
                      "--set", "eta1=0.0")
        assert result.exit_code == EXIT_CONFIG

    def test_override_without_equals(self):
        result = _run("solve", "--problem", "circle_quadratic", "--set", "eta1")
        assert result.exit_code == EXIT_CONFIG
        assert "KEY=VALUE" in result.output

    def test_non_numeric_start_point(self):
        result = _run("solve", "--problem", "circle_quadratic", "--x0", "1,a")
        assert result.exit_code == EXIT_CONFIG
        assert "comma-separated float list" in result.output

    @pytest.mark.parametrize("command", [["solve"]])
    @pytest.mark.parametrize("x0", ["nan,0", "inf,0", "0,-inf"])
    def test_non_finite_start_exits_before_the_solve(self, command, x0):
        result = _run(*command, "--problem", "circle_quadratic", "--x0", x0)
        assert result.exit_code == EXIT_CONFIG
        assert isinstance(result.exception, SystemExit)  # no other exception escaped
        assert result.output.splitlines() == [f"error: --x0 must be finite, got {x0!r}"]

    def test_unwritable_trace_exits_before_the_solve(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "solve", lambda *args: pytest.fail("the solve ran"))
        path = tmp_path / "missing" / "run.trace"
        result = _run("solve", "--problem", "maratos", "--trace", str(path))
        assert result.exit_code == EXIT_CONFIG
        assert isinstance(result.exception, SystemExit)  # no other exception escaped
        assert result.output.splitlines() == [
            f"error: cannot write --trace {path}: no writable directory"]

    def test_failed_trace_write_after_the_solve(self, tmp_path, monkeypatch):
        def refuse(path, *args):
            raise PermissionError(13, "Permission denied", str(path))
        monkeypatch.setattr(cli.trace_io, "write_trace", refuse)
        path = tmp_path / "run.trace"
        result = _run("solve", "--problem", "maratos", "--trace", str(path))
        assert result.exit_code == EXIT_CONFIG
        assert isinstance(result.exception, SystemExit)  # no other exception escaped
        assert result.output.splitlines() == [
            f"error: cannot write --trace {path}: Permission denied"]

    def test_budget_exhaustion_exit_code(self):
        result = _run("solve", "--problem", "rosenbrock_sphere",
                      "--set", "max_iter=2")
        assert result.exit_code == 11
        assert "status=max_iterations" in result.output

    def test_live_audit_clean(self):
        result = _run("solve", "--problem", "circle_quadratic", "--audit")
        assert result.exit_code == 0

    def test_audit_violation_exits_16(self, monkeypatch):
        violation = Violation(code="sigma_update", message="synthetic", value=2.0,
                              bound=1.0, k=0)
        monkeypatch.setattr(diagnostics, "audit_run",
                            lambda problem, records, config: [violation])
        result = _run("solve", "--problem", "circle_quadratic", "--audit")
        assert result.exit_code == EXIT_VIOLATIONS
        assert "status=converged_sosp" in result.output
        assert ("violation k=0 sigma_update: value=2 bound=1 (synthetic)"
                in result.output.splitlines())


class TestConfigFlags:
    """The configuration a run used, read back from its trace header."""

    def _config(self, tmp_path, *flags):
        trace = tmp_path / "run.trace"
        _run("solve", "--problem", "circle_quadratic", "--trace", str(trace), *flags)
        return json.loads(trace.read_text().splitlines()[0])["config"]

    def test_eps_then_one_tolerance(self, tmp_path):
        config = self._config(tmp_path, "--eps", "1e-3", "--set", "eps_g=1e-6")
        assert (config["eps_g"], config["eps_c"], config["eps_h"]) == (1e-6, 1e-3, 1e-3)

    def test_set_int_comes_last(self, tmp_path):
        config = self._config(tmp_path, "--set", "max_iter=5", "--set", "max_iter=3")
        assert config["max_iter"] == 3 and isinstance(config["max_iter"], int)

    @pytest.mark.parametrize("flags", [("--eps", "inf"), ("--set", "sigma0=inf")])
    def test_infinite_setting_exits_before_the_solve(self, flags):
        result = _run("solve", "--problem", "rosenbrock_sphere", *flags)
        assert result.exit_code == EXIT_CONFIG
        assert result.output.startswith("error: ") and "status=" not in result.output

    def test_every_field_is_a_number_that_parses_back(self):
        """--set parses a value with its field's type, and every field is a float
        or an int: a boolean field would read any nonempty word, "off" too, as True."""
        fields = dataclasses.fields(SolverConfig)
        assert {type(field.default) for field in fields} == {float, int}
        items = [f"{field.name}={field.default}" for field in fields]
        assert cli._build_config(items, None) == SolverConfig()

    def test_unparsable_float_and_int(self):
        for item in ("eta1=abc", "max_iter=3.5"):
            result = _run("solve", "--problem", "circle_quadratic", "--set", item)
            assert result.exit_code == EXIT_CONFIG
            assert "cannot parse" in result.output


@pytest.mark.parametrize("command, options", [
    ("solve", ["--problem", "--x0", "--eps", "--audit", "--set", "--trace"]),
])
def test_options_are_one_way_in(command, options):
    """Every SolverConfig field is reached through --set; --eps is solve's one shorthand."""
    result = _run(command, "--help")
    listed = [line.split()[0] for line in result.output.splitlines()
              if line.startswith("  --")]
    assert listed == options + ["--help"]


def test_commands_are_solve_and_audit():
    output = _run("--help").output.splitlines()
    listed = output[output.index("Commands:") + 1:]
    assert [line.split()[0] for line in listed] == ["audit", "solve"]


class TestTraceWorkflow:
    def test_solve_then_audit(self, tmp_path):
        trace = tmp_path / "run.trace"
        solve_result = _run("solve", "--problem", "rosenbrock_sphere",
                            "--trace", str(trace))
        assert solve_result.exit_code == 0
        assert trace.exists()
        audit_result = _run("audit", str(trace))
        assert audit_result.exit_code == 0
        assert "0 violations" in audit_result.output

    def test_audit_missing_file(self, tmp_path):
        result = _run("audit", str(tmp_path / "nope.trace"))
        assert result.exit_code == EXIT_BAD_TRACE

    def test_audit_corrupt_file(self, tmp_path):
        path = tmp_path / "garbage.trace"
        path.write_text("this is not json\n")
        result = _run("audit", str(path))
        assert result.exit_code == EXIT_BAD_TRACE

    def test_audit_flags_tampered_trace(self, tmp_path):
        trace = tmp_path / "run.trace"
        _run("solve", "--problem", "linear_eq_quadratic",
             "--trace", str(trace))
        lines = trace.read_text().splitlines()
        # scale the stored tangential step on the second iteration
        rec = json.loads(lines[2])
        assert rec["kind"] == "iteration" and rec["k"] == 1
        rec["u"] = encode_vector([1.1 * value for value in decode_vector(rec["u"])])
        lines[2] = json.dumps(rec)
        trace.write_text("\n".join(lines) + "\n")
        result = _run("audit", str(trace))
        assert result.exit_code == EXIT_VIOLATIONS
        assert "or2_model_gradient" in result.output

    @pytest.mark.parametrize("index, change, version", [
        (2, lambda rec: rec.pop("u"), 2),
        (2, lambda rec: rec.update(x="abc"), 1),
        (0, lambda header: header.pop("problem"), 2),
        (2, lambda rec: _replace(rec, {"kind": "violation"}), 2),
        (2, lambda rec: _replace(rec, {"kind": "violation", "code": 5, "k": "x"}), 2),
        (0, lambda header: header.update(version=99), 2),
        (0, lambda header: header.update(version="1"), 2),
        (0, lambda header: header.pop("version"), 2),
        (0, lambda header: header.update(x0="abc"), 1),
        (0, lambda header: header["config"].pop("gamma3"), 2),
        (0, lambda header: _replace(header, {"kind": "violation", "code": "beta_interval",
                                             "message": "m", "value": 0.5, "bound": 1.0,
                                             "k": 0}), 2),
        (5, lambda footer: footer.update(status="bogus"), 2),
        (2, lambda rec: rec.update(norm_v="anything", accepted=[1, 2]), 2),
        (0, lambda header: header["config"].update(audit=False), 2),
        (5, lambda footer: footer.update(iterations=99), 2),
        (5, lambda footer: footer.update(counts={"bogus": "x"}), 2),
        (5, lambda footer: footer["counts"].update(corrections=0), 2),
        (5, lambda footer: footer.update(final_report={"bogus": 1}), 2),
        (5, lambda footer: footer["final_report"].update(grad_lagrangian_norm="x"), 2),
    ], ids=["record_without_u", "non_numeric_x", "header_without_problem",
            "violation_without_fields", "violation_of_wrong_types", "version_99",
            "version_string", "header_without_version", "non_numeric_x0",
            "config_without_gamma3", "violation_before_header", "footer_status_bogus",
            "v2_record_with_v1_keys", "v2_config_with_audit", "footer_iterations_99",
            "footer_counts_bogus", "footer_counts_mistallied", "footer_final_report_bogus",
            "footer_final_report_string_norm"])
    def test_audit_malformed_trace(self, tmp_path, index, change, version):
        result = _run("audit", str(_edited_trace(tmp_path, index, change, version)))
        assert result.exit_code == EXIT_BAD_TRACE
        assert isinstance(result.exception, SystemExit)  # no other exception escaped
        assert result.output.startswith(f"error: line {index + 1}: ")

    def test_audit_budget_status_short_of_its_records(self, tmp_path):
        """A max_iterations footer comes with max_iter records: one that lost
        its last record is refused, also with iterations and counts mended."""
        trace = tmp_path / "run.trace"
        solved = _run("solve", "--problem", "maratos", "--set", "max_iter=2",
                      "--trace", str(trace))
        assert "status=max_iterations" in solved.output
        header, first, _, footer = map(json.loads, trace.read_text().splitlines())
        assert footer["counts"] == {"successful": 0, "very_successful": 2,
                                    "unsuccessful": 0, "corrections": 2}
        footer.update(iterations=1, counts={"successful": 0, "very_successful": 1,
                                            "unsuccessful": 0, "corrections": 1})
        trace.write_text("\n".join(map(json.dumps, [header, first, footer])) + "\n")
        result = _run("audit", str(trace))
        assert result.exit_code == EXIT_BAD_TRACE
        assert result.output == ("error: line 3: footer field iterations must be 2 (max_iter) "
                                 "for status max_iterations, got 1\n")

    def test_audit_version_1_trace(self):
        """Version 1 records carry keys their other fields determine, and the
        header config an audit flag and the retired corrections_enabled:
        read_trace drops them there."""
        result = _run("audit", str(_V1_TRACE))
        assert result.exit_code == 0
        assert result.output == "audited 4 iterations: 0 violations\n"

    def test_audit_header_missing_a_set_config_key(self, tmp_path):
        """A header config that lost a key is malformed, not read with the key's
        default: a run with gamma3 = 0.25 would otherwise audit against 0.5."""
        trace = tmp_path / "run.trace"
        solved = _run("solve", "--problem", "rosenbrock_sphere", "--set", "gamma3=0.25",
                      "--trace", str(trace))
        assert solved.exit_code == 0
        lines = trace.read_text().splitlines()
        header = json.loads(lines[0])
        del header["config"]["gamma3"]
        trace.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        result = _run("audit", str(trace))
        assert result.exit_code == EXIT_BAD_TRACE
        assert result.output == "error: line 1: header config has no 'gamma3' field\n"

    def test_audit_trace_that_is_not_utf8(self, tmp_path):
        trace = tmp_path / "run.trace"
        _run("solve", "--problem", "maratos", "--trace", str(trace))
        trace.write_bytes(b"\xff\xfe" + trace.read_bytes())
        result = _run("audit", str(trace))
        assert result.exit_code == EXIT_BAD_TRACE
        assert isinstance(result.exception, SystemExit)  # no other exception escaped
        assert result.output == "error: line 1: not UTF-8 text (invalid start byte)\n"

    @pytest.mark.parametrize("index, key, value", [
        (0, "eta1", "abc"), (0, "rank_tol", None), (0, "max_iter", "3"),
        (0, "corrections_enabled", "no"), (2, "sigma", "abc"), (2, "beta", None),
        (2, "classification", "bogus"), (2, "k", "x"), (2, "rho_corr", "x"),
        (2, "x", ["0.5", "0.5"]), (2, "lam", ["1.0"]), (2, "w", ["0", "0"]),
        (2, "u", [True, False]), (2, "x", [1.0, None]), (2, "x", [True, 0.3]), (2, "k", 7),
    ])
    def test_audit_wrongly_typed_field(self, tmp_path, index, key, value):
        """A header config or record value of the wrong JSON type, or a record
        numbered other than by its position, is a malformed trace, named by its
        line and key; a vector, as a list, in version 1."""
        def change(obj):
            (obj["config"] if index == 0 else obj)[key] = value
        version = 1 if key in _VECTORS else 2
        result = _run("audit", str(_edited_trace(tmp_path, index, change, version)))
        assert result.exit_code == EXIT_BAD_TRACE
        assert isinstance(result.exception, SystemExit)  # no other exception escaped
        assert result.output.startswith(f"error: line {index + 1}: ")
        assert f" {key} must be " in result.output

    @pytest.mark.parametrize("key, value", [
        ("x", [0.5, 0.5]), ("lam", 1.0), ("u", "not base64!"), ("v_c", "QUJD"),
        ("v", encode_vector([1.0, 2.0])[:-4]), ("x", None),
    ], ids=["list", "number", "not_base64", "length_3", "length_12", "null"])
    def test_audit_malformed_vector(self, tmp_path, key, value):
        """In version 2 a vector is a base64 string of whole float64s; anything
        else is one error line naming the record's line and the key."""
        trace = _edited_trace(tmp_path, 2, lambda rec: rec.update({key: value}))
        result = _run("audit", str(trace))
        assert result.exit_code == EXIT_BAD_TRACE
        assert isinstance(result.exception, SystemExit)  # no other exception escaped
        assert result.output == (f"error: line 3: iteration record field {key} must be "
                                 f"a base64 string of float64 bytes, got {value!r}\n")

    @pytest.mark.parametrize("appended", [
        lambda lines: lines[2],
        lambda lines: json.dumps({**json.loads(lines[-1]), "status": "max_iterations"}),
    ], ids=["repeated_record", "second_footer"])
    def test_audit_line_after_footer(self, tmp_path, appended):
        """Nothing may follow the footer: a copy of a record or a second footer
        there is a malformed trace, named by its line."""
        trace = tmp_path / "run.trace"
        _run("solve", "--problem", "maratos", "--trace", str(trace))
        lines = trace.read_text().splitlines()
        trace.write_text("\n".join(lines + [appended(lines)]) + "\n")
        result = _run("audit", str(trace))
        assert result.exit_code == EXIT_BAD_TRACE
        assert isinstance(result.exception, SystemExit)  # no other exception escaped
        assert result.output.startswith(f"error: line {len(lines) + 1}: ")

    def test_audit_unknown_problem(self, tmp_path):
        trace = _edited_trace(tmp_path, 0, lambda header: header.update(problem="no_such_model"))
        result = _run("audit", str(trace))
        assert result.exit_code == EXIT_UNKNOWN_PROBLEM
        assert "no_such_model" in result.output

    def test_audit_invalid_config(self, tmp_path):
        trace = _edited_trace(tmp_path, 0, lambda header: header["config"].update(eta1=5))
        result = _run("audit", str(trace))
        assert result.exit_code == EXIT_CONFIG
        assert "eta1" in result.output

    def test_audit_error_at_one_record(self, tmp_path):
        """A record the audit cannot rebuild is one violation; the rest are audited."""
        trace = tmp_path / "run.trace"
        _run("solve", "--problem", "maratos", "--trace", str(trace))
        lines = trace.read_text().splitlines()
        rec = json.loads(lines[2])
        lam = decode_vector(rec["lam"])
        assert rec["kind"] == "iteration" and rec["k"] == 1 and len(lam) == 1
        rec["lam"] = encode_vector(np.tile(lam, 2))
        lines[2] = json.dumps(rec)
        trace.write_text("\n".join(lines) + "\n")
        result = _run("audit", str(trace))
        assert result.exit_code == EXIT_VIOLATIONS
        flagged = [line for line in result.output.splitlines()
                   if line.startswith("violation")]
        assert len(flagged) == 1
        assert flagged[0].startswith("violation k=1 audit_error:")
        assert "audited 4 iterations: 1 violations" in result.output
