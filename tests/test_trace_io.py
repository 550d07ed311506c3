"""Run trace files: bit-faithful round trips and strict parsing."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubeq.diagnostics import Violation, audit_run
from cubeq.driver import MAX_ITERATIONS, SolverConfig, SolveResult, solve
from cubeq.errors import ConfigError, TraceError
from cubeq.problems import builtin_problem
from cubeq.trace_io import dump_line, read_trace, record_to_dict, write_trace

_ARRAY_FIELDS = ("x", "lam", "v_c", "v", "u", "w")
# Record keys of earlier traces that the other fields of the record determine.
_DERIVED_KEYS = ("norm_v", "norm_u", "norm_d", "norm_w", "accepted", "correction_computed")
# A maratos run written by the earlier emitter, every float with %.17g.
_V1_17G_TRACE = Path(__file__).parent / "data" / "maratos_v1.trace"


def _kinds(default):
    """Right- and wrong-kind values around a config field's default: Python and
    numpy ints and floats, bools, strings and None."""
    if isinstance(default, bool):
        return [default, not default, np.bool_(default), int(default), "yes", None]
    return [default, int(default), np.int64(default), np.float64(default),
            np.float32(default), float(default), 10**400, True, False, str(default), None]


_CONFIG_OVERRIDES = st.lists(st.one_of([
    st.tuples(st.just(f.name), st.sampled_from(_kinds(f.default)))
    for f in dataclasses.fields(SolverConfig)]), max_size=3).map(dict)


def _write_run(tmp_path, name="circle_quadratic", config=None):
    config = config or SolverConfig()
    problem = builtin_problem(name)
    result = solve(problem, config=config)
    path = tmp_path / f"{name}.trace"
    write_trace(path, name, problem.default_start, config, result)
    return path, result, config


class TestRoundTrip:
    def test_records_survive_bit_for_bit(self, tmp_path):
        path, result, config = _write_run(tmp_path)
        data = read_trace(path)
        assert data.problem_name == "circle_quadratic"
        assert data.config == config
        assert len(data.records) == len(result.history)
        for loaded, original in zip(data.records, result.history):
            for field in dataclasses.fields(original):
                a = getattr(loaded, field.name)
                b = getattr(original, field.name)
                if field.name in _ARRAY_FIELDS:
                    if b is None:
                        assert a is None
                    else:
                        assert np.array_equal(a, b), field.name
                else:
                    assert a == b, field.name

    @settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @given(_CONFIG_OVERRIDES)
    def test_a_config_is_refused_or_read_back_equal(self, tmp_path_factory, overrides):
        """Any field values either make no config at all or one that a trace
        carries through unchanged."""
        try:
            config = SolverConfig(**overrides)
        except ConfigError:
            return
        path = tmp_path_factory.getbasetemp() / "config.trace"
        write_trace(path, "circle_quadratic", np.zeros(2), config,
                    SolveResult(MAX_ITERATIONS, np.zeros(2), None, [], None))
        assert read_trace(path).config == config

    def test_footer_reflects_result(self, tmp_path):
        path, result, _ = _write_run(tmp_path, name="maratos")
        footer = read_trace(path).footer
        assert footer["status"] == result.status
        assert footer["iterations"] == result.iterations
        np.testing.assert_array_equal(np.asarray(footer["x_final"]),
                                      result.x_final)
        assert footer["counts"]["corrections"] == result.counts.corrections
        assert footer["final_report"]["sosp"] is True

    def test_replay_from_disk_audits_clean(self, tmp_path):
        path, _, config = _write_run(tmp_path, name="rosenbrock_sphere")
        data = read_trace(path)
        problem = builtin_problem(data.problem_name)
        assert audit_run(problem, data.records, data.config) == []
        assert data.config == config

    def test_violations_round_trip(self, tmp_path):
        config = SolverConfig()
        problem = builtin_problem("circle_quadratic")
        result = solve(problem, config=config)
        violations = [Violation(code="beta_interval", message="synthetic", value=0.5,
                                bound=1.0, k=3)]
        path = tmp_path / "tampered.trace"
        write_trace(path, "circle_quadratic", problem.default_start, config,
                    result, violations)
        data = read_trace(path)
        assert len(data.violations) == 1
        v = data.violations[0]
        assert v["code"] == "beta_interval"
        assert v["value"] == 0.5 and v["bound"] == 1.0 and v["k"] == 3

    def test_nonconverged_runs_are_writable(self, tmp_path):
        config = SolverConfig(max_iter=2)
        path, result, _ = _write_run(tmp_path, name="rosenbrock_sphere",
                                     config=config)
        footer = read_trace(path).footer
        assert footer["status"] == result.status == "max_iterations"

    def test_non_finite_floats_round_trip(self):
        values = [math.inf, -math.inf, 0.1, np.float64(1.0 / 3.0), 5e-324]
        line = dump_line({"kind": "x", "v": values, "a": np.array(values),
                          "nan": np.nan, "flag": np.bool_(True), "k": np.int64(7)})
        back = json.loads(line)
        assert back["v"] == back["a"] == [float(v) for v in values]
        assert math.isnan(back["nan"])
        assert back["flag"] is True and back["k"] == 7

    def test_earlier_17_digit_traces_read_back(self, tmp_path):
        data = read_trace(_V1_17G_TRACE)
        assert data.problem_name == "maratos"
        assert data.footer["status"] == "converged_sosp"
        assert len(data.records) == data.footer["iterations"] == 4
        assert sum(r.correction_computed for r in data.records) == 3
        assert data.records[0].x.tolist() == [0.9, 0.3]
        assert audit_run(builtin_problem("maratos"), data.records, data.config) == []
        # rewritten with the current writer, every record reads back unchanged
        lines = [dump_line(data.header)]
        lines += [dump_line(record_to_dict(r)) for r in data.records]
        lines.append(dump_line(data.footer))
        path = tmp_path / "rewritten.trace"
        path.write_text("\n".join(lines) + "\n")
        for again, first in zip(read_trace(path).records, data.records):
            for field in dataclasses.fields(first):
                a, b = getattr(again, field.name), getattr(first, field.name)
                if field.name in _ARRAY_FIELDS and b is not None:
                    assert np.array_equal(a, b), field.name
                else:
                    assert a == b, field.name


    def test_earlier_derived_keys_agree_with_the_records(self, tmp_path):
        """Earlier writers also stored each record's step norms and its
        `accepted` and `correction_computed` flags; read_trace drops them, and
        each equals the value the record's other fields determine."""
        stored = [json.loads(line) for line in _V1_17G_TRACE.read_text().splitlines()]
        stored = [obj for obj in stored if obj["kind"] == "iteration"]
        data = read_trace(_V1_17G_TRACE)
        for obj, rec in zip(stored, data.records, strict=True):
            assert set(_DERIVED_KEYS) <= obj.keys()
            assert obj["norm_v"] == np.linalg.norm(rec.v)
            assert obj["norm_u"] == np.linalg.norm(rec.u)
            assert obj["norm_d"] == np.linalg.norm(rec.v + rec.u)
            assert obj["norm_w"] == (0.0 if rec.w is None else np.linalg.norm(rec.w))
            assert obj["accepted"] is rec.accepted
            assert obj["correction_computed"] is rec.correction_computed
        # the current writer stores none of them
        path = tmp_path / "rewritten.trace"
        write_trace(path, data.problem_name, data.header["x0"], data.config,
                    solve(builtin_problem("maratos"), data.header["x0"], data.config))
        for line in path.read_text().splitlines():
            obj = json.loads(line)
            if obj["kind"] == "iteration":
                assert obj.keys().isdisjoint(_DERIVED_KEYS)
                assert obj.keys() == {"kind"} | {f.name for f in dataclasses.fields(rec)}


class TestStrictParsing:
    def _lines(self, path):
        return path.read_text().splitlines()

    def test_missing_footer(self, tmp_path):
        path, _, _ = _write_run(tmp_path)
        lines = self._lines(path)
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(TraceError, match="footer"):
            read_trace(path)

    def test_missing_header(self, tmp_path):
        path, _, _ = _write_run(tmp_path)
        lines = self._lines(path)
        path.write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(TraceError):
            read_trace(path)

    def test_no_header_at_all(self, tmp_path):
        path, _, _ = _write_run(tmp_path)
        path.write_text(self._lines(path)[-1] + "\n")  # the footer alone
        with pytest.raises(TraceError, match="no header"):
            read_trace(path)

    def test_line_that_is_not_an_object(self, tmp_path):
        path, _, _ = _write_run(tmp_path)
        lines = self._lines(path)
        lines.insert(1, "[1, 2]")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="line 2: expected an object"):
            read_trace(path)

    def test_duplicate_header(self, tmp_path):
        path, _, _ = _write_run(tmp_path)
        lines = self._lines(path)
        path.write_text("\n".join([lines[0]] + lines) + "\n")
        with pytest.raises(TraceError, match="header"):
            read_trace(path)

    def test_corrupt_json_line(self, tmp_path):
        path, _, _ = _write_run(tmp_path)
        lines = self._lines(path)
        lines[2] = lines[2][:-10]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="line 3"):
            read_trace(path)

    def test_wrong_format_name(self, tmp_path):
        path, _, _ = _write_run(tmp_path)
        lines = self._lines(path)
        header = json.loads(lines[0])
        header["format"] = "something-else"
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="not a cubeq-trace file"):
            read_trace(path)

    def test_unknown_record_kind(self, tmp_path):
        path, _, _ = _write_run(tmp_path)
        lines = self._lines(path)
        lines.insert(1, json.dumps({"kind": "mystery"}))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="kind"):
            read_trace(path)

    def test_unknown_config_key(self, tmp_path):
        path, _, _ = _write_run(tmp_path)
        lines = self._lines(path)
        header = json.loads(lines[0])
        header["config"]["not_a_field"] = 1
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError, match="header config invalid"):
            read_trace(path)

    def test_iteration_with_missing_fields(self, tmp_path):
        path, _, _ = _write_run(tmp_path)
        lines = self._lines(path)
        rec = json.loads(lines[1])
        del rec["sigma"]
        lines[1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceError):
            read_trace(path)

    def _edit_line(self, path, index, change):
        lines = self._lines(path)
        obj = json.loads(lines[index])
        change(obj)
        lines[index] = json.dumps(obj)
        path.write_text("\n".join(lines) + "\n")

    def test_iteration_without_an_array_field(self, tmp_path):
        path, _, _ = _write_run(tmp_path)
        self._edit_line(path, 1, lambda rec: rec.pop("u"))
        with pytest.raises(TraceError, match="line 2: iteration record has no 'u' field"):
            read_trace(path)

    def test_iteration_with_a_non_numeric_array_field(self, tmp_path):
        path, _, _ = _write_run(tmp_path)
        self._edit_line(path, 2, lambda rec: rec.update(x="abc"))
        with pytest.raises(TraceError, match="line 3: iteration record has wrong fields"):
            read_trace(path)

    def test_iteration_with_a_null_array_field(self, tmp_path):
        path, _, _ = _write_run(tmp_path)
        self._edit_line(path, 1, lambda rec: rec.update(v=None))
        with pytest.raises(TraceError, match="line 2: iteration record has wrong fields"):
            read_trace(path)

    def test_header_without_problem(self, tmp_path):
        path, _, _ = _write_run(tmp_path)
        self._edit_line(path, 0, lambda header: header.pop("problem"))
        with pytest.raises(TraceError, match="line 1: header has no problem name"):
            read_trace(path)
