"""Command-line interface: exit codes, output format, trace workflow."""

import json

import pytest
from click.testing import CliRunner

from cubeq import diagnostics
from cubeq.cli import (EXIT_BAD_TRACE, EXIT_CONFIG, EXIT_UNKNOWN_PROBLEM,
                       EXIT_VIOLATIONS, main)
from cubeq.diagnostics import Violation


def _run(*args):
    return CliRunner().invoke(main, list(args))


def _edited_trace(tmp_path, index, change):
    """A maratos trace whose line ``index`` (a JSON object) went through ``change``."""
    trace = tmp_path / "run.trace"
    _run("solve", "--problem", "maratos", "--trace", str(trace))
    lines = trace.read_text().splitlines()
    obj = json.loads(lines[index])
    change(obj)
    lines[index] = json.dumps(obj)
    trace.write_text("\n".join(lines) + "\n")
    return trace


class TestSolve:
    def test_converged_run(self):
        result = _run("solve", "--problem", "circle_quadratic")
        assert result.exit_code == 0
        assert "status=converged_sosp" in result.output
        assert "problem=circle_quadratic" in result.output

    def test_unknown_problem(self):
        result = _run("solve", "--problem", "no_such_model")
        assert result.exit_code == EXIT_UNKNOWN_PROBLEM

    def test_corrections_flag_plumbed(self):
        with_corr = _run("solve", "--problem", "maratos")
        without = _run("solve", "--problem", "maratos", "--set", "corrections_enabled=off")
        assert "corrections=3" in with_corr.output
        assert "corrections=0" in without.output

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

    def test_set_bool(self, tmp_path):
        assert self._config(tmp_path)["corrections_enabled"] is True
        config = self._config(tmp_path, "--set", "corrections_enabled=off")
        assert config["corrections_enabled"] is False

    def test_set_int_comes_last(self, tmp_path):
        config = self._config(tmp_path, "--set", "max_iter=5", "--set", "max_iter=3")
        assert config["max_iter"] == 3 and isinstance(config["max_iter"], int)

    @pytest.mark.parametrize("flags", [("--eps", "inf"), ("--set", "sigma0=inf")])
    def test_infinite_setting_exits_before_the_solve(self, flags):
        result = _run("solve", "--problem", "rosenbrock_sphere", *flags)
        assert result.exit_code == EXIT_CONFIG
        assert result.output.startswith("error: ") and "status=" not in result.output

    def test_unparsable_bool_and_int(self):
        for item in ("corrections_enabled=maybe", "max_iter=3.5"):
            result = _run("solve", "--problem", "circle_quadratic", "--set", item)
            assert result.exit_code == EXIT_CONFIG
            assert "cannot parse" in result.output


@pytest.mark.parametrize("command, options", [
    ("solve", ["--problem", "--x0", "--eps", "--audit", "--set", "--trace"]),
    ("sweep", ["--problem", "--sweep", "--x0", "--audit", "--set"]),
])
def test_options_are_one_way_in(command, options):
    """Every SolverConfig field is reached through --set; --eps is solve's one shorthand."""
    result = _run(command, "--help")
    listed = [line.split()[0] for line in result.output.splitlines()
              if line.startswith("  --")]
    assert listed == options + ["--help"]


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
        rec["u"] = [1.1 * value for value in rec["u"]]
        lines[2] = json.dumps(rec)
        trace.write_text("\n".join(lines) + "\n")
        result = _run("audit", str(trace))
        assert result.exit_code == EXIT_VIOLATIONS
        assert "or2_model_gradient" in result.output

    @pytest.mark.parametrize("index, change", [
        (2, lambda rec: rec.pop("u")),
        (2, lambda rec: rec.update(x="abc")),
        (0, lambda header: header.pop("problem")),
    ], ids=["record_without_u", "non_numeric_x", "header_without_problem"])
    def test_audit_malformed_trace(self, tmp_path, index, change):
        result = _run("audit", str(_edited_trace(tmp_path, index, change)))
        assert result.exit_code == EXIT_BAD_TRACE
        assert isinstance(result.exception, SystemExit)  # no other exception escaped
        assert result.output.startswith(f"error: line {index + 1}: ")

    @pytest.mark.parametrize("index, key, value", [
        (0, "eta1", "abc"), (0, "rank_tol", None), (0, "max_iter", "3"),
        (0, "corrections_enabled", "no"), (2, "sigma", "abc"), (2, "beta", None),
        (2, "classification", "bogus"), (2, "k", "x"), (2, "rho_corr", "x"),
        (2, "x", ["0.5", "0.5"]), (2, "lam", ["1.0"]), (2, "w", ["0", "0"]),
        (2, "u", [True, False]), (2, "x", [1.0, None]),
    ])
    def test_audit_wrongly_typed_field(self, tmp_path, index, key, value):
        """A header config or record value of the wrong JSON type is a malformed
        trace, named by its line and key."""
        def change(obj):
            (obj["config"] if index == 0 else obj)[key] = value
        result = _run("audit", str(_edited_trace(tmp_path, index, change)))
        assert result.exit_code == EXIT_BAD_TRACE
        assert isinstance(result.exception, SystemExit)  # no other exception escaped
        assert result.output.startswith(f"error: line {index + 1}: ")
        assert f" {key} must be " in result.output

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
        assert rec["kind"] == "iteration" and rec["k"] == 1 and len(rec["lam"]) == 1
        rec["lam"] = rec["lam"] * 2
        lines[2] = json.dumps(rec)
        trace.write_text("\n".join(lines) + "\n")
        result = _run("audit", str(trace))
        assert result.exit_code == EXIT_VIOLATIONS
        flagged = [line for line in result.output.splitlines()
                   if line.startswith("violation")]
        assert len(flagged) == 1
        assert flagged[0].startswith("violation k=1 audit_error:")
        assert "audited 4 iterations: 1 violations" in result.output


class TestSweep:
    def test_csv_and_slope(self):
        result = _run("sweep", "--problem", "rosenbrock_sphere",
                      "--sweep", "1e-2,1e-4")
        assert result.exit_code == 0
        lines = result.output.splitlines()
        assert lines[0] == "eps,successful,total,max_sigma,final_mu,status"
        assert len([l for l in lines if l.startswith("0.01")]) == 1
        assert lines[-1].startswith("slope=")
        assert "undefined" not in lines[-1]

    def test_single_value_has_no_slope(self):
        result = _run("sweep", "--problem", "circle_quadratic",
                      "--sweep", "1e-4")
        assert result.exit_code == 0
        assert result.output.splitlines()[-1] == "slope=undefined"

    def test_unknown_problem(self):
        result = _run("sweep", "--problem", "no_such_model",
                      "--sweep", "1e-2")
        assert result.exit_code == EXIT_UNKNOWN_PROBLEM

    def test_clean_audit_changes_nothing(self):
        args = ("sweep", "--problem", "maratos", "--sweep", "1e-2,1e-4")
        plain, audited = _run(*args), _run(*args, "--audit")
        assert audited.exit_code == plain.exit_code == 0
        assert audited.output == plain.output

    def test_audit_violation_exits_16(self, monkeypatch):
        violation = Violation(code="sigma_update", message="synthetic", value=2.0,
                              bound=1.0, k=0)
        monkeypatch.setattr(diagnostics, "audit_run",
                            lambda problem, records, config: [violation])
        result = _run("sweep", "--problem", "circle_quadratic", "--sweep", "1e-4",
                      "--audit")
        assert result.exit_code == EXIT_VIOLATIONS
        assert ("violation k=0 sigma_update: value=2 bound=1 (synthetic)"
                in result.output.splitlines())

    def test_unparsable_sweep_list(self):
        result = _run("sweep", "--problem", "circle_quadratic",
                      "--sweep", "1e-2,banana")
        assert result.exit_code == EXIT_CONFIG

    @pytest.mark.parametrize("values", ["0,1e-3", "nan", "1e-3,-1"])
    def test_bad_tolerance_exits_before_any_solve(self, values):
        result = _run("sweep", "--problem", "maratos", "--sweep", values)
        assert result.exit_code == EXIT_CONFIG
        assert isinstance(result.exception, SystemExit)  # no other exception escaped
        assert result.output == "error: tolerances must be positive\n"

    @pytest.mark.parametrize("key", ["eps_g", "eps_c", "eps_h"])
    def test_tolerance_override_exits_before_any_solve(self, key):
        """Each --sweep value sets all three tolerances, so a --set of one would be ignored."""
        result = _run("sweep", "--problem", "maratos", "--sweep", "1e-3", "--set", f"{key}=0.5")
        assert result.exit_code == EXIT_CONFIG
        assert isinstance(result.exception, SystemExit)  # no other exception escaped
        assert result.output.splitlines() == [
            f"error: each --sweep value sets eps_g, eps_c and eps_h; drop --set {key}=0.5"]

    def test_empty_sweep_list(self):
        result = _run("sweep", "--problem", "circle_quadratic", "--sweep", ",")
        assert result.exit_code == EXIT_CONFIG
        assert "at least one tolerance" in result.output
