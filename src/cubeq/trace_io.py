"""Line-delimited JSON traces of solver runs.

A trace file holds one JSON object per line: a header (problem name, start
point, full configuration), one record per iteration with every field of
:class:`IterationRecord` as a named key, any audit violations, and, last, a
footer with the final status.  The header, its config, each record and each
violation are read by one function against one table of field rules.  Records
written by earlier versions also carry the step norms and the
``correction_computed`` and ``accepted`` flags, which the other fields
determine, and their header config an ``audit`` key; these are dropped on
reading.  ``json.dumps`` writes every float in its shortest round-tripping
form, so a replayed audit sees bit-identical values; files written with 17
significant digits by earlier versions read back the same.
Non-finite floats use the Python dialect tokens (``Infinity``, ``NaN``)
that ``json.loads`` accepts back.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Optional, get_type_hints

import numpy as np

from .diagnostics import Violation
from .driver import (FIELD_RULES, SUCCESSFUL, UNSUCCESSFUL, VERY_SUCCESSFUL,
                     IterationRecord, SolverConfig)
from .errors import TraceError

FORMAT_NAME = "cubeq-trace"
FORMAT_VERSION = 1
_ARRAY = "a list of numbers"
# Annotation -> (what a value of a field so annotated must be, the test); a test
# of None marks a float array, read from a list of numbers, and null if Optional.
_RULES = FIELD_RULES | {np.ndarray: (_ARRAY, None),
                        Optional[np.ndarray]: (f"{_ARRAY} or null", None)}
# Record keys of earlier versions that other fields of the record determine.
_DERIVED_KEYS = ("norm_v", "norm_u", "norm_d", "norm_w", "correction_computed", "accepted")
_CLASSIFICATIONS = (VERY_SUCCESSFUL, SUCCESSFUL, UNSUCCESSFUL)
_FIELDS = {  # what _read reads -> (the rule of each key, the keys it drops unread)
    cls: ({name: _RULES[hint] for name, hint in get_type_hints(cls).items()}, dropped)
    for cls, dropped in ((SolverConfig, {"audit"}),  # a config key of earlier versions
                         (IterationRecord, {"kind", *_DERIVED_KEYS}), (Violation, {"kind"}))}
_FIELDS[IterationRecord][0]["classification"] = (
    f"one of {', '.join(_CLASSIFICATIONS)}", _CLASSIFICATIONS.__contains__)
_FIELDS[dict] = ({  # the header, read as a plain dict
    "kind": _RULES[str], "format": _RULES[str], "problem": _RULES[str], "x0": _RULES[np.ndarray],
    "version": (f"the integer {FORMAT_VERSION}",
                lambda value: type(value) is int and value == FORMAT_VERSION),
    "config": ("an object", lambda value: isinstance(value, dict))}, set())


def _read(cls, data: dict, lineno: int, what: str):
    """The ``cls`` from ``data``, the ``what`` on trace line ``lineno``: exactly
    its keys, apart from those dropped, each passing its rule, or a TraceError
    naming the line and the key."""
    rules, dropped = _FIELDS[cls]
    keys = data.keys() - dropped
    if keys != rules.keys():
        key = min(keys ^ rules.keys())
        has = "an unknown" if key in keys else "no"
        raise TraceError(f"line {lineno}: {what} has {has} {key!r} field")
    values = {}
    for key, (rule, test) in rules.items():
        value = data[key]
        try:
            if test is None and (value is not None or rule == _ARRAY):
                value = np.array(value)  # a ragged list raises ValueError
                if value.ndim != 1 or value.dtype.kind not in "iuf":
                    raise ValueError
                value = value.astype(float, copy=False)
            elif test is not None and not test(value):
                raise ValueError
        except ValueError:
            raise TraceError(f"line {lineno}: {what} field {key} must be {rule}, "
                             f"got {data[key]!r}") from None
        values[key] = value
    return cls(**values)


def _plain(value):
    """numpy values as the Python lists and scalars ``json`` writes."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__} into a trace")


def dump_line(obj: dict) -> str:
    return json.dumps(obj, default=_plain)


def record_to_dict(record: IterationRecord) -> dict:
    return {"kind": "iteration", **vars(record)}


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
    header: dict  # as written, with x0 read as a float array
    config: SolverConfig
    records: list
    violations: list  # the Violations as written
    footer: dict

    @property
    def problem_name(self) -> str:
        return self.header["problem"]


def read_trace(path) -> TraceData:
    header = None
    footer = None
    records: list = []
    violations: list = []
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line = line.decode().strip()
            except UnicodeDecodeError as exc:
                raise TraceError(f"line {lineno}: not UTF-8 text ({exc.reason})") from None
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
            if header is None and kind != "header":
                raise TraceError(f"line {lineno}: no header before this {kind!r} line")
            if kind == "header":
                if header is not None:
                    raise TraceError(f"line {lineno}: duplicate header")
                if obj.get("format") != FORMAT_NAME:
                    raise TraceError(f"line {lineno}: not a {FORMAT_NAME} file")
                if not isinstance(obj.get("problem"), str):
                    raise TraceError(f"line {lineno}: header has no problem name")
                header = _read(dict, obj, lineno, "header")
                config = _read(SolverConfig, header["config"], lineno, "header config")
            elif kind == "iteration":
                records.append(_read(IterationRecord, obj, lineno, "iteration record"))
            elif kind == "violation":
                violations.append(_read(Violation, obj, lineno, "violation"))
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
