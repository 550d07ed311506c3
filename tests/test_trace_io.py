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
from cubeq.driver import NUMERICAL_ERROR, SolverConfig, SolveResult, solve
from cubeq.errors import ConfigError, TraceError
from cubeq.problems import builtin_problem
from cubeq.trace_io import (FORMAT_VERSION, _encode, dump_line, read_trace, record_to_dict,
                            write_trace)
from helpers import decode_vector, encode_vector

_ARRAY_FIELDS = ("x", "lam", "v_c", "v", "u", "w")
# Record keys of earlier traces that the other fields of the record determine.
_DERIVED_KEYS = ("norm_v", "norm_u", "norm_d", "norm_w", "accepted", "correction_computed")
# A maratos run written by the earlier emitter, every float with %.17g.
_V1_17G_TRACE = Path(__file__).parent / "data" / "maratos_v1.trace"
# A version 2 maratos run written while corrections could still be switched off, with
# corrections_enabled = false in its header config.
_V2_NO_CORRECTIONS_TRACE = Path(__file__).parent / "data" / "maratos_no_corrections_v2.trace"


def _kinds(default):
    """Right- and wrong-kind values around a config field's default: Python and
    numpy ints and floats, bools, strings and None."""
    return [default, int(default), np.int64(default), np.float64(default),
            np.float32(default), float(default), 10**400, True, False, str(default), None]


_CONFIG_OVERRIDES = st.lists(st.one_of([
    st.tuples(st.just(f.name), st.sampled_from(_kinds(f.default)))
    for f in dataclasses.fields(SolverConfig)]), max_size=3).map(dict)


# Bit patterns of float64s a decimal writer loses or mangles: -0.0, the least
# subnormal and the greatest, the infinities, and NaNs with payloads and signs.
_SPECIAL_BITS = (0x8000000000000000, 0x0000000000000001, 0x000FFFFFFFFFFFFF,
                 0x7FF0000000000000, 0xFFF0000000000000, 0x7FF0000000000001,
                 0x7FF8000000000000, 0xFFF800000000BEEF, 0x7FFFFFFFFFFFFFFF)
_VECTOR = st.lists(st.one_of(st.sampled_from(_SPECIAL_BITS), st.integers(0, 2**64 - 1)),
                   max_size=5).map(lambda bits: np.array(bits, dtype=np.uint64).view(float))


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
                    SolveResult(NUMERICAL_ERROR, np.zeros(2), None, [], None))
        assert read_trace(path).config == config

    @settings(max_examples=100, derandomize=True, deadline=None, database=None)
    @given(st.lists(_VECTOR, min_size=8, max_size=8), st.booleans(), st.booleans())
    def test_vectors_read_back_bit_for_bit(self, tmp_path_factory, vectors, no_w, no_lambda):
        """Every float array of a trace reads back with its bits, as a writable
        float array: -0.0, subnormals, infinities and NaN payloads included; and
        an absent correction w or final lambda_final as None."""
        vectors[5] = None if no_w else vectors[5]
        vectors[7] = None if no_lambda else vectors[7]
        x, lam, v_c, v, u, w, x_final, lambda_final = vectors
        record = dataclasses.replace(read_trace(_V1_17G_TRACE).records[0],
                                     x=x, lam=lam, v_c=v_c, v=v, u=u, w=w)
        path = tmp_path_factory.getbasetemp() / "bits.trace"
        write_trace(path, "maratos", x_final, SolverConfig(),
                    SolveResult(NUMERICAL_ERROR, x_final, lambda_final, [record], None))
        data = read_trace(path)
        (back,) = data.records
        read = [back.x, back.lam, back.v_c, back.v, back.u, back.w, data.header["x0"],
                data.footer["x_final"], data.footer["lambda_final"]]
        for loaded, original in zip(read, [*vectors[:6], x_final, *vectors[6:]], strict=True):
            if original is None:
                assert loaded is None
                continue
            assert loaded.dtype == float and loaded.flags.writeable
            assert loaded.tobytes() == original.tobytes()

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
        (v,) = read_trace(path).violations
        assert v == violations[0]
        assert v.code == "beta_interval"
        assert v.value == 0.5 and v.bound == 1.0 and v.k == 3

    def test_audit_error_violations_read_back(self, tmp_path):
        """An ``audit_error`` is written with NaN magnitudes, which read back as NaN."""
        problem = builtin_problem("maratos")
        result = solve(problem)
        violation = Violation("audit_error", "ValueError: synthetic", math.nan, math.nan, 1)
        path = tmp_path / "errored.trace"
        write_trace(path, "maratos", problem.default_start, SolverConfig(), result, [violation])
        (back,) = read_trace(path).violations
        assert isinstance(back, Violation)
        assert back.code == "audit_error" and back.k == 1
        assert math.isnan(back.value) and math.isnan(back.bound)

    def test_blank_lines_are_skipped(self, tmp_path):
        path, result, _ = _write_run(tmp_path)
        lines = path.read_text().splitlines()
        path.write_text("\n\n".join(lines) + "\n\n  \n")  # between records, after the footer
        data = read_trace(path)
        assert len(data.records) == len(result.history)
        assert data.footer["status"] == result.status

    def test_unserializable_value_is_a_type_error(self, tmp_path):
        problem = builtin_problem("circle_quadratic")
        path = tmp_path / "never.trace"
        with pytest.raises(TypeError, match=r"cannot serialize \w*Path into a trace"):
            write_trace(path, Path("circle_quadratic"), problem.default_start, SolverConfig(),
                        solve(problem))
        assert not path.exists()

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
        assert back["v"] == decode_vector(back["a"]).tolist() == [float(v) for v in values]
        assert decode_vector(back["a"]).tobytes() == np.array(values).tobytes()
        assert math.isnan(back["nan"])
        assert back["flag"] is True and back["k"] == 7

    def test_earlier_17_digit_traces_read_back(self, tmp_path):
        record = json.loads(_V1_17G_TRACE.read_text().splitlines()[1])
        assert list(record)[:4] == ["kind", "k", "x", "f"]  # an array before the scalars
        data = read_trace(_V1_17G_TRACE)
        assert data.problem_name == "maratos"
        assert data.footer["status"] == "converged_sosp"
        assert len(data.records) == data.footer["iterations"] == 4
        assert sum(r.correction_computed for r in data.records) == 3
        assert data.records[0].x.tolist() == [0.9, 0.3]
        assert audit_run(builtin_problem("maratos"), data.records, data.config) == []
        # rewritten with the current writer, every record reads back unchanged
        lines = [dump_line({**data.header, "version": FORMAT_VERSION,
                            "config": dataclasses.asdict(data.config)})]
        lines += [dump_line(record_to_dict(r)) for r in data.records]
        lines.append(dump_line(data.footer))
        path = tmp_path / "rewritten.trace"
        path.write_text("\n".join(lines) + "\n")
        rewritten = read_trace(path)
        for name in ("x_final", "lambda_final"):  # read as float arrays in either version
            assert data.footer[name].dtype == float
            assert rewritten.footer[name].tobytes() == data.footer[name].tobytes()
        for again, first in zip(rewritten.records, data.records, strict=True):
            for field in dataclasses.fields(first):
                a, b = getattr(again, field.name), getattr(first, field.name)
                if field.name in _ARRAY_FIELDS and b is not None:
                    assert np.array_equal(a, b), field.name
                else:
                    assert a == b, field.name

    def test_earlier_trace_without_corrections_reads_and_audits(self):
        """The retired corrections_enabled is read as a boolean and dropped; the
        run it switched off holds no correction and still audits clean."""
        header, record = map(json.loads, _V2_NO_CORRECTIONS_TRACE.read_text().splitlines()[:2])
        assert header["version"] == 2 and header["config"]["corrections_enabled"] is False
        assert list(header)[:6] == ["kind", "format", "version", "problem", "x0", "config"]
        assert list(record)[:4] == ["kind", "k", "x", "f"]  # arrays before the scalars
        data = read_trace(_V2_NO_CORRECTIONS_TRACE)
        assert data.config == SolverConfig() and not hasattr(data.config, "corrections_enabled")
        assert data.footer["status"] == "converged_sosp"
        assert len(data.records) == 6 and data.footer["counts"]["corrections"] == 0
        assert audit_run(builtin_problem("maratos"), data.records, data.config) == []

    def test_arrays_follow_the_scalars_on_every_line(self, tmp_path):
        """Header, records with and without a correction, a violation and a
        footer with and without lambda_final: on each line every field that
        is not a float array comes before the first that is."""
        arrays = {*_ARRAY_FIELDS, "x0", "x_final", "lambda_final"}
        problem = builtin_problem("maratos")
        result = solve(problem)
        violation = Violation("beta_interval", "synthetic", 0.5, 1.0, 1)
        lines = []
        for name, run in (("run", result), ("unsolved", dataclasses.replace(
                result, status=NUMERICAL_ERROR, lambda_final=None, final_report=None))):
            path = tmp_path / f"{name}.trace"
            write_trace(path, "maratos", problem.default_start, SolverConfig(), run, [violation])
            lines += [json.loads(line) for line in path.read_text().splitlines()]
        assert [obj["w"] is None for obj in lines if obj["kind"] == "iteration"] == [
            False, False, False, True] * 2
        assert [obj["lambda_final"] is None for obj in lines if obj["kind"] == "footer"] == [
            False, True]
        for obj in lines:
            kinds = [key in arrays and value is not None for key, value in obj.items()]
            assert kinds == sorted(kinds), obj["kind"]
            assert any(kinds) == (obj["kind"] != "violation")

    def test_lines_of_arrays_alone_and_arrays_in_objects(self):
        """A line whose values are all float arrays, and one with arrays inside an
        object, are the text json.dumps writes with the top-level arrays last,
        and read back; an unknown type inside an object is still refused."""
        a, b = np.array([-0.0, np.nan, 1.5]), np.arange(300.0)
        for obj, order in (({"a": a, "b": b}, ["a", "b"]),
                           ({"a": a, "nested": {"b": b, "k": np.int64(2)}, "k": 1},
                            ["nested", "k", "a"]),
                           ({}, [])):
            line = dump_line(obj)
            assert line == json.dumps({key: obj[key] for key in order}, default=_encode)
            assert list(json.loads(line)) == order
        back = json.loads(dump_line({"a": a, "nested": {"b": b}}))
        assert decode_vector(back["a"]).tobytes() == a.tobytes()
        assert decode_vector(back["nested"]["b"]).tobytes() == b.tobytes()
        with pytest.raises(TypeError, match=r"cannot serialize \w*Path into a trace"):
            dump_line({"a": a, "nested": {"p": Path("x")}})

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

    def _v1_trace(self, tmp_path):
        """A copy of the version 1 maratos trace, whose vectors are lists."""
        path = tmp_path / "v1.trace"
        path.write_text(_V1_17G_TRACE.read_text())
        return path

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
        with pytest.raises(TraceError,
                           match="line 1: header config has an unknown 'not_a_field' field"):
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
        path = self._v1_trace(tmp_path)
        self._edit_line(path, 2, lambda rec: rec.update(x="abc"))
        with pytest.raises(TraceError, match="line 3: iteration record field x must be "
                                             "a list of numbers, got 'abc'"):
            read_trace(path)

    def test_iteration_with_a_null_array_field(self, tmp_path):
        path = self._v1_trace(tmp_path)
        self._edit_line(path, 1, lambda rec: rec.update(v=None))
        with pytest.raises(TraceError, match="line 2: iteration record field v must be "
                                             "a list of numbers, got None"):
            read_trace(path)

    @pytest.mark.parametrize("version, key, value, rule", [
        (1, "u", [True, 0.3], "a list of numbers"),
        (1, "w", [[0.0], [1.0]], "a list of numbers or null"),
        (1, "lam", "AAAAAAAA8D8=", "a list of numbers"),
        (2, "x", [0.5, 0.5], "a base64 string of float64 bytes"),
        (2, "lam", 1.0, "a base64 string of float64 bytes"),
        (2, "u", "not base64!", "a base64 string of float64 bytes"),
        (2, "v_c", "AAAAAAAA8D8", "a base64 string of float64 bytes"),
        (2, "v", encode_vector([1.0, 2.0])[:-4], "a base64 string of float64 bytes"),
        (2, "w", "AAAAAAAA8D8=AAAAAAAA8D8=", "a base64 string of float64 bytes or null"),
        (2, "x", "AAAAAAAA8D8=\n", "a base64 string of float64 bytes"),
    ], ids=["v1_boolean_in_a_list", "v1_nested_list", "v1_base64", "v2_list", "v2_number",
            "v2_not_base64", "v2_unpadded", "v2_length_12", "v2_data_after_padding",
            "v2_newline"])
    def test_iteration_with_a_malformed_vector(self, tmp_path, version, key, value, rule):
        """A vector is read by the rule of the header's version: a list of
        numbers in version 1, base64 of whole float64s in version 2."""
        path = self._v1_trace(tmp_path) if version == 1 else _write_run(tmp_path)[0]
        self._edit_line(path, 2, lambda rec: rec.update({key: value}))
        with pytest.raises(TraceError) as caught:
            read_trace(path)
        assert str(caught.value) == f"line 3: iteration record field {key} must be {rule}, " \
                                    f"got {value!r}"

    @pytest.mark.parametrize("change, message", [
        (lambda f: f.update(status="bogus"), "line 6: footer field status must be one of "
                                             "converged_sosp, converged_fosp, max_iterations, "
                                             "licq_failure, numerical_error, got 'bogus'"),
        (lambda f: f.update(iterations="4"), "line 6: footer field iterations must be an integer"),
        (lambda f: f.update(message=None), "line 6: footer field message must be a string"),
        (lambda f: f.update(x_final=[1.0, 1.0]), "line 6: footer field x_final must be a base64 "
                                                 "string of float64 bytes, got \\[1.0, 1.0\\]"),
        (lambda f: f.update(x_final=None), "line 6: footer field x_final must be a base64 "),
        (lambda f: f.update(lambda_final="abc"), "line 6: footer field lambda_final must be a "
                                                 "base64 string of float64 bytes or null"),
        (lambda f: f.update(counts=[]), "line 6: footer field counts must be an object, got"),
        (lambda f: f.update(final_report=5), "line 6: footer field final_report must be an "
                                             "object or null, got 5"),
        (lambda f: f.pop("counts"), "line 6: footer has no 'counts' field"),
        (lambda f: f.update(step=1), "line 6: footer has an unknown 'step' field"),
        (lambda f: f.update(iterations=99), "line 6: footer field iterations must be 4 to "
                                            "match the records, got 99"),
        (lambda f: f.update(counts={"bogus": "x"}), "line 6: footer counts has an unknown "
                                                    "'bogus' field"),
        (lambda f: f["counts"].update(corrections=True), "line 6: footer counts field "
                                                         "corrections must be an integer"),
        (lambda f: f["counts"].update(corrections=0), "line 6: footer field counts must be "
                                                      "\\{'successful': 1, 'very_successful': 3, "
                                                      "'unsuccessful': 0, 'corrections': 3\\} "
                                                      "to match the records, got"),
        (lambda f: f.update(final_report={"bogus": 1}), "line 6: footer final_report has an "
                                                        "unknown 'bogus' field"),
        (lambda f: f["final_report"].update(grad_lagrangian_norm="x"),
         "line 6: footer final_report field grad_lagrangian_norm must be a number, got 'x'"),
        (lambda f: f["final_report"].pop("sosp"), "line 6: footer final_report has no 'sosp'"),
    ], ids=["status_bogus", "string_iterations", "null_message", "list_x_final", "null_x_final",
            "lambda_final_not_base64", "counts_not_an_object", "final_report_number",
            "no_counts", "unknown_key", "iterations_not_the_records", "unknown_count",
            "boolean_count", "counts_not_the_tally", "final_report_bogus",
            "final_report_string_norm", "final_report_without_sosp"])
    def test_footer_with_wrong_fields(self, tmp_path, change, message):
        path, _, _ = _write_run(tmp_path, name="maratos")
        assert len(self._lines(path)) == 6
        self._edit_line(path, 5, change)
        with pytest.raises(TraceError, match=message):
            read_trace(path)

    def test_footer_without_a_final_report(self, tmp_path):
        """A run that fails at its start has no final report: null reads."""
        path, _, _ = _write_run(tmp_path, name="maratos")
        self._edit_line(path, 5, lambda f: f.update(final_report=None))
        assert read_trace(path).footer["final_report"] is None

    @pytest.mark.parametrize("max_iter, status, kept, message", [
        (2, "max_iterations", 1, "must be 2 \\(max_iter\\) for status max_iterations, got 1"),
        (2, "converged_fosp", 1, "must be 2 \\(max_iter\\) for status converged_fosp, got 1"),
        (2, "converged_sosp", 2, None),
        (3, "converged_sosp", 4, "must be at most 3 \\(max_iter\\) for status converged_sosp, "
                                 "got 4"),
        (4, "converged_sosp", 4, None),
    ], ids=["max_iterations_short", "converged_fosp_short", "sosp_within_budget",
            "sosp_over_budget", "sosp_at_budget"])
    def test_records_against_the_budget(self, tmp_path, max_iter, status, kept, message):
        """A budget status comes with exactly max_iter records, any status with
        at most max_iter: the header config's, against the records kept of a
        maratos run (4 iterations), the footer agreeing with them."""
        path, result, _ = _write_run(tmp_path, name="maratos")
        lines = self._lines(path)
        header, footer = json.loads(lines[0]), json.loads(lines[-1])
        header["config"]["max_iter"] = max_iter
        footer.update(status=status, iterations=kept,
                      counts=dataclasses.asdict(SolveResult(
                          status, None, None, result.history[:kept], None).counts))
        path.write_text("\n".join([json.dumps(header), *lines[1:1 + kept],
                                   json.dumps(footer)]) + "\n")
        if message is None:
            assert len(read_trace(path).records) == kept
        else:
            with pytest.raises(TraceError, match=f"line {kept + 2}: footer field iterations "
                                                 + message):
                read_trace(path)

    @pytest.mark.parametrize("change, message", [
        (lambda v: v.pop("k"), "line 2: violation has no 'k' field"),
        (lambda v: v.update(step=1), "line 2: violation has an unknown 'step' field"),
        (lambda v: v.update(value="0.5"), "line 2: violation field value must be a number"),
        (lambda v: v.update(message=None), "line 2: violation field message must be a string"),
    ], ids=["missing_k", "unknown_key", "string_value", "null_message"])
    def test_violation_with_wrong_fields(self, tmp_path, change, message):
        path, _, _ = _write_run(tmp_path)
        lines = self._lines(path)
        violation = {"kind": "violation", **dataclasses.asdict(
            Violation("beta_interval", "synthetic", 0.5, 1.0, 0))}
        change(violation)
        path.write_text("\n".join([lines[0], json.dumps(violation), *lines[1:]]) + "\n")
        with pytest.raises(TraceError, match=message):
            read_trace(path)

    @pytest.mark.parametrize("version, change, message", [
        (2, lambda h: h.update(version=99), "line 1: header field version must be the integer "
                                            "1 or 2, got 99"),
        (2, lambda h: h.update(version="1"), "line 1: header field version must be the integer "
                                             "1 or 2, got '1'"),
        (2, lambda h: h.update(version=True), "line 1: header field version must be the "
                                              "integer 1"),
        (2, lambda h: h.pop("version"), "line 1: header has no 'version' field"),
        (1, lambda h: h.update(x0="abc"), "line 1: header field x0 must be a list of numbers, "
                                          "got 'abc'"),
        (1, lambda h: h.update(x0=[[0.0], [0.0, 1.0]]), "line 1: header field x0 must be a list"),
        (2, lambda h: h.update(step=1), "line 1: header has an unknown 'step' field"),
        (2, lambda h: h.update(config=[]), "line 1: header field config must be an object"),
        (2, lambda h: h["config"].pop("gamma3"), "line 1: header config has no 'gamma3' field"),
        (2, lambda h: h["config"].update(audit=False), "line 1: header config has an unknown "
                                                       "'audit' field"),
        (2, lambda h: h["config"].update(eta1="abc"), "line 1: header config field eta1 must "
                                                      "be a number, got 'abc'"),
        (1, lambda h: h["config"].update(corrections_enabled=0), "line 1: header config field "
                                                                 "corrections_enabled must be a "
                                                                 "boolean, got 0"),
        (2, lambda h: h.update(x0=[0.0, 1.0]), "line 1: header field x0 must be a base64 string "
                                               "of float64 bytes, got \\[0.0, 1.0\\]"),
        (2, lambda h: h.update(x0=0.5), "line 1: header field x0 must be a base64 string"),
        (2, lambda h: h.update(x0="x0!"), "line 1: header field x0 must be a base64 string"),
        (2, lambda h: h.update(x0="QUJD"), "line 1: header field x0 must be a base64 string"),
        (1, lambda h: h.update(version=2), "line 1: header field x0 must be a base64 string "
                                           "of float64 bytes, got \\[0.9, 0.3\\]"),
        (2, lambda h: h.update(version=1), "line 1: header field x0 must be a list of numbers"),
    ], ids=["version_99", "version_string", "version_true", "no_version", "string_x0",
            "ragged_x0", "unknown_key", "config_not_an_object", "config_without_gamma3",
            "v2_config_with_audit",
            "string_config_value", "v1_numeric_corrections_enabled", "v2_list_x0",
            "v2_number_x0", "v2_non_base64_x0",
            "v2_x0_of_3_bytes", "v1_read_as_v2", "v2_read_as_v1"])
    def test_header_with_wrong_fields(self, tmp_path, version, change, message):
        path = self._v1_trace(tmp_path) if version == 1 else _write_run(tmp_path)[0]
        self._edit_line(path, 0, change)
        with pytest.raises(TraceError, match=message):
            read_trace(path)

    def test_header_reads_exactly_its_keys(self, tmp_path):
        path, _, config = _write_run(tmp_path)
        header = read_trace(path).header
        assert header.keys() == {"kind", "format", "version", "problem", "x0", "config"}
        assert header["x0"].dtype == float and header["config"] == dataclasses.asdict(config)

    @pytest.mark.parametrize("kind", ["iteration", "violation", "footer"])
    def test_line_before_the_header(self, tmp_path, kind):
        """One check refuses a line of any kind ahead of the header."""
        path, result, config = _write_run(tmp_path)
        write_trace(path, "circle_quadratic", np.zeros(2), config, result,
                    [Violation("beta_interval", "synthetic", 0.5, 1.0, 0)])
        lines = self._lines(path)
        first = next(line for line in lines if json.loads(line)["kind"] == kind)
        path.write_text("\n".join([first, *lines]) + "\n")
        with pytest.raises(TraceError, match=f"line 1: no header before this '{kind}' line"):
            read_trace(path)

    def test_text_that_is_not_utf8(self, tmp_path):
        path, _, _ = _write_run(tmp_path)
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join([*lines[:2], b"\xff" + lines[2], *lines[3:]]))
        with pytest.raises(TraceError, match=r"line 3: not UTF-8 text \(invalid start byte\)"):
            read_trace(path)

    def test_header_without_problem(self, tmp_path):
        path, _, _ = _write_run(tmp_path)
        self._edit_line(path, 0, lambda header: header.pop("problem"))
        with pytest.raises(TraceError, match="line 1: header has no problem name"):
            read_trace(path)
