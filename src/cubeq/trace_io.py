"""Line-delimited JSON traces of solver runs.

A trace file holds one JSON object per line: a header (problem name, start
point, full configuration), one record per iteration with every field of
:class:`IterationRecord` as a named key, any audit violations, and, last, a
footer with the final status.  Records written by earlier versions also carry
the step norms and the ``correction_computed`` and ``accepted`` flags, which
the other fields determine; they are dropped on reading.  ``json.dumps`` writes
every float in its shortest round-tripping form, so a replayed audit sees
bit-identical values; files written with 17 significant digits by earlier
versions read back the same.
Non-finite floats use the Python dialect tokens (``Infinity``, ``NaN``)
that ``json.loads`` accepts back.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

import numpy as np

from .driver import (CONFIG_RULES, SUCCESSFUL, UNSUCCESSFUL, VERY_SUCCESSFUL,
                     IterationRecord, SolverConfig, field_rules)
from .errors import TraceError

FORMAT_NAME = "cubeq-trace"
FORMAT_VERSION = 1
# Record keys of earlier versions that other fields of the record determine.
_DERIVED_KEYS = ("norm_v", "norm_u", "norm_d", "norm_w", "correction_computed", "accepted")
_CLASSIFICATIONS = (VERY_SUCCESSFUL, SUCCESSFUL, UNSUCCESSFUL)
_RECORD_RULES = {**field_rules(IterationRecord), "classification": (
    f"one of {', '.join(_CLASSIFICATIONS)}", _CLASSIFICATIONS.__contains__)}
_VECTORS = ("x", "lam", "v_c", "v", "u", "w")  # record fields read as float arrays; w may be null


def _check_fields(data: dict, rules: dict, lineno: int, what: str) -> None:
    """A TraceError, naming the line and the key, for a value of the wrong type."""
    for key, value in data.items():
        rule = rules.get(key)
        if rule is not None and not rule[1](value):
            raise TraceError(f"line {lineno}: {what} {key} must be {rule[0]}, got {value!r}")


def _plain(value):
    """numpy values as the Python lists and scalars ``json`` writes."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__} into a trace")


def dump_line(obj: dict) -> str:
    return json.dumps(obj, default=_plain)


def record_to_dict(record: IterationRecord) -> dict:
    return {"kind": "iteration", **vars(record)}


def _vector(key: str, value) -> np.ndarray:
    """The list of JSON numbers ``value`` as a float array; nothing else converts."""
    out = np.array(value)
    if out.ndim != 1 or out.dtype.kind not in "iuf":
        raise ValueError(f"{key} must be a list of numbers, got {value!r}")
    return out.astype(float, copy=False)


def record_from_dict(data: dict, lineno: int) -> IterationRecord:
    """The record on trace line ``lineno``; a malformed one is a TraceError."""
    data = {k: v for k, v in data.items() if k != "kind" and k not in _DERIVED_KEYS}
    _check_fields(data, _RECORD_RULES, lineno, "iteration record field")
    try:
        for key in _VECTORS:
            if key != "w" or data[key] is not None:
                data[key] = _vector(key, data[key])
        return IterationRecord(**data)
    except KeyError as exc:
        raise TraceError(f"line {lineno}: iteration record has no {exc} field") from None
    except (TypeError, ValueError) as exc:
        raise TraceError(f"line {lineno}: iteration record has wrong fields: {exc}") from None


def write_trace(path, problem_name: str, x0, config: SolverConfig, result,
                violations=()) -> None:
    """Write a finished run (any status) and its audit's violations as a trace file."""
    lines = [dump_line({
        "kind": "header",
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "problem": problem_name,
        "x0": np.asarray(x0, dtype=float),
        "config": dataclasses.asdict(config),
    })]
    lines.extend(dump_line(record_to_dict(r)) for r in result.history)
    lines.extend(dump_line({"kind": "violation", **dataclasses.asdict(v)}) for v in violations)
    report = result.final_report
    lines.append(dump_line({
        "kind": "footer",
        "status": result.status,
        "message": result.message,
        "iterations": result.iterations,
        "x_final": result.x_final,
        "lambda_final": result.lambda_final,
        "counts": dataclasses.asdict(result.counts),
        "final_report": None if report is None else dataclasses.asdict(report),
    }))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class TraceData:
    header: dict
    config: SolverConfig
    records: list
    violations: list  # violation dicts as written
    footer: dict

    @property
    def problem_name(self) -> str:
        return self.header["problem"]


def _header_config(header: dict, lineno: int) -> SolverConfig:
    """The run's configuration, from the checked header on line ``lineno``: a
    wrongly typed field is a TraceError, an out-of-range one a ConfigError."""
    if header.get("format") != FORMAT_NAME:
        raise TraceError(f"line {lineno}: not a {FORMAT_NAME} file")
    if not isinstance(header.get("problem"), str):
        raise TraceError(f"line {lineno}: header has no problem name")
    try:
        settings = dict(header["config"])
        settings.pop("audit", None)  # a config field in traces of earlier versions
        _check_fields(settings, CONFIG_RULES, lineno, "header config")
        return SolverConfig(**settings)
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceError(f"line {lineno}: header config invalid: {exc}") from None


def read_trace(path) -> TraceData:
    header = None
    footer = None
    records: list = []
    violations: list = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            if footer is not None:
                raise TraceError(f"line {lineno}: a line after the footer")
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"line {lineno}: invalid JSON ({exc.msg})") from None
            if not isinstance(obj, dict) or "kind" not in obj:
                raise TraceError(f"line {lineno}: expected an object with a 'kind'")
            kind = obj["kind"]
            if kind == "header":
                if header is not None:
                    raise TraceError(f"line {lineno}: duplicate header")
                header = obj
                config = _header_config(obj, lineno)
            elif kind == "iteration":
                if header is None:
                    raise TraceError(f"line {lineno}: iteration before header")
                records.append(record_from_dict(obj, lineno))
            elif kind == "violation":
                violations.append(obj)
            elif kind == "footer":
                footer = obj
            else:
                raise TraceError(f"line {lineno}: unknown record kind {kind!r}")
    if header is None:
        raise TraceError("trace has no header line")
    if footer is None:
        raise TraceError("trace has no footer line (truncated?)")
    return TraceData(header=header, config=config, records=records,
                     violations=violations, footer=footer)
