"""Line-delimited JSON traces of solver runs.

A trace file holds one JSON object per line: a header (problem name, start
point, full configuration), one record per iteration with every field of
:class:`IterationRecord` as a named key, any audit violations, and, last, a
footer with the final state.  Each line is read by one function against one
table of field rules.  Scalars are JSON, non-finite floats the tokens
``Infinity`` and ``NaN`` that ``json.loads`` accepts back.  In format version 2
each float array is one string, the base64 of its little-endian float64 bytes,
so it reads back bit for bit, NaN payloads included.  A line's float arrays
follow its other values, each appended as it is, since base64 holds nothing
``json`` would escape; key order is not part of the format, and traces whose
arrays come first read the same.  Version 1 wrote lists of numbers, shortest
round-tripping or with 17 digits, and is still read: the header's version
decides how.  Records of earlier writers also carry the step
norms and the ``correction_computed`` and ``accepted`` flags, which the other
fields determine, and their header config an ``audit`` key; a version 1 trace
drops these, and a version 2 trace refuses them.  Both drop a config's retired
``corrections_enabled``, a boolean.  Record k is the k-th, from 0.  The footer's
``iterations`` and ``counts`` must match the records, which number at most
``max_iter``, and exactly that for a budget status; its final report, if any, is
a full report.
"""

from __future__ import annotations

import binascii
import json
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Optional, get_type_hints

import numpy as np

from .diagnostics import Violation
from .driver import (CONVERGED_FOSP, CONVERGED_SOSP, FIELD_RULES, LICQ_FAILURE, MAX_ITERATIONS,
                     NUMERICAL_ERROR, SUCCESSFUL, UNSUCCESSFUL, VERY_SUCCESSFUL, Counts,
                     IterationRecord, SolverConfig, StationarityReport, tally)
from .errors import TraceError

FORMAT_NAME = "cubeq-trace"
FORMAT_VERSION = 2


def _from_list(value) -> np.ndarray:
    if type(value) is not list or not all(map(FIELD_RULES[float][1], value)):
        raise ValueError  # numpy would read a boolean as a number
    return np.array(value, dtype=float)


# Format version -> (what a float array must be, how it is read).  Only a string
# is base64 (TypeError), and frombuffer takes whole float64s only (ValueError).
_VECTORS = {1: ("a list of numbers", _from_list),
            2: ("a base64 string of float64 bytes", lambda value: np.frombuffer(
                binascii.a2b_base64(value, strict_mode=True), "<f8").astype(float))}
# Annotation -> (what a value of a field so annotated must be, the test); a test
# of None marks a float array, read by the trace's version, and null if Optional.
_RULES = FIELD_RULES | {np.ndarray: ("{}", None), Optional[np.ndarray]: ("{} or null", None)}
_CLASSIFICATIONS = (VERY_SUCCESSFUL, SUCCESSFUL, UNSUCCESSFUL)
_STATUSES = (CONVERGED_SOSP, CONVERGED_FOSP, MAX_ITERATIONS, LICQ_FAILURE, NUMERICAL_ERROR)
_OBJECT = ("an object", lambda value: isinstance(value, dict))
_FIELDS = {  # what _read reads -> (the rule of each key, the keys it drops unread)
    cls: ({name: _RULES[hint] for name, hint in get_type_hints(cls).items()}, dropped)
    for cls, dropped in ((SolverConfig, set()), (IterationRecord, {"kind"}),
                         (Violation, {"kind"}), (Counts, set()), (StationarityReport, set()))}
# Retired key -> (the last version whose writers added it, the rule it passes before _read
# drops it): version 1's audit flag in a config and a record's step norms and flags,
# which its other fields determine, pass unread; the switch for corrections is a boolean.
_ANY = ("anything", lambda value: True)
_RETIRED = {SolverConfig: {"audit": (1, _ANY), "corrections_enabled": (2, _RULES[bool])},
            IterationRecord: dict.fromkeys(("norm_v", "norm_u", "norm_d", "norm_w",
                                            "correction_computed", "accepted"), (1, _ANY))}
_FIELDS[IterationRecord][0]["classification"] = (
    f"one of {', '.join(_CLASSIFICATIONS)}", _CLASSIFICATIONS.__contains__)
_FIELDS["header"] = ({  # the version first: it decides how x0 is read
    "kind": _RULES[str], "format": _RULES[str],
    "version": (f"the integer {' or '.join(map(str, _VECTORS))}",
                lambda value: type(value) is int and value in _VECTORS),
    "problem": _RULES[str], "x0": _RULES[np.ndarray], "config": _OBJECT}, set())
_FIELDS["footer"] = ({
    "kind": _RULES[str], "status": (f"one of {', '.join(_STATUSES)}", _STATUSES.__contains__),
    "message": _RULES[str], "iterations": _RULES[int], "x_final": _RULES[np.ndarray],
    "lambda_final": _RULES[Optional[np.ndarray]], "counts": _OBJECT, "final_report": (
        "an object or null", lambda value: value is None or isinstance(value, dict))}, set())


def _read(cls, data: dict, lineno: int, what: str, version: int = FORMAT_VERSION):
    """The ``cls`` (a dict for a header or footer) from ``data``, the ``what`` on
    line ``lineno`` of a trace of format ``version``: exactly its keys, apart from
    those dropped, each passing its rule, or a TraceError naming the line and key."""
    rules, dropped = _FIELDS[cls]
    retired = {key: rule for key, (last, rule) in _RETIRED.get(cls, {}).items()
               if version <= last and key in data}
    keys = data.keys() - dropped - retired.keys()
    if keys != rules.keys():
        key = min(keys ^ rules.keys())
        has = "an unknown" if key in keys else "no"
        raise TraceError(f"line {lineno}: {what} has {has} {key!r} field")
    values = {}
    for key, (rule, test) in (rules | retired).items():
        value = data[key]
        try:
            if test is None:
                array, decode = _VECTORS[version]
                rule = rule.format(array)
                if value is not None or rule == array:
                    value = decode(value)
            elif not test(value):
                raise ValueError
        except (TypeError, ValueError):
            raise TraceError(f"line {lineno}: {what} field {key} must be {rule}, "
                             f"got {data[key]!r}") from None
        values[key] = value
    return cls(**{key: values[key] for key in rules}) if isinstance(cls, type) else values


def _base64(array: np.ndarray) -> str:
    """The base64 of the array's little-endian float64 bytes."""
    return binascii.b2a_base64(array.astype("<f8", copy=False).tobytes(), newline=False).decode()


def _encode(value):
    """A numpy array as its ``_base64``, and a numpy scalar as the Python scalar
    ``json`` writes."""
    if isinstance(value, np.ndarray):
        return _base64(value)
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"cannot serialize {type(value).__name__} into a trace")


def dump_line(obj: dict) -> str:
    """``obj`` as one JSON object: its other values through ``json.dumps``, then
    each top-level float array as ``"key": "<base64>"``, the text ``json.dumps``
    writes for it, without its scan for characters to escape (base64 has none)."""
    rest, arrays = {}, []
    for key, value in obj.items():
        if type(value) is np.ndarray:
            arrays.append(f'{encode_basestring_ascii(key)}: "{_base64(value)}"')
        else:
            rest[key] = value
    text = json.dumps(rest, default=_encode)
    if not arrays:
        return text
    return f"{text[:-1]}{', ' if rest else ''}{', '.join(arrays)}}}"


def record_to_dict(record: IterationRecord) -> dict:
    return {"kind": "iteration", **vars(record)}


def write_trace(path, problem_name: str, x0, config: SolverConfig, result,
                violations=()) -> None:
    """Write a finished run (any status) and its audit's violations as a trace
    file, the header first, then one line at a time."""
    report = result.final_report
    body = [*map(record_to_dict, result.history),
            *({"kind": "violation", **vars(v)} for v in violations),
            {"kind": "footer", "status": result.status, "message": result.message,
             "iterations": result.iterations, "x_final": result.x_final,
             "lambda_final": result.lambda_final, "counts": vars(result.counts),
             "final_report": None if report is None else vars(report)}]
    header = dump_line({  # before the file is opened: a header it cannot write leaves none
        "kind": "header", "format": FORMAT_NAME, "version": FORMAT_VERSION,
        "problem": problem_name, "x0": np.asarray(x0, dtype=float),
        "config": vars(config)})
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for obj in body:
            fh.write(dump_line(obj) + "\n")


@dataclass
class TraceData:
    header: dict  # as written, with x0 read as a float array
    config: SolverConfig
    records: list
    violations: list  # the Violations as written
    footer: dict  # as written, with x_final and lambda_final read as float arrays

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
                header = _read("header", obj, lineno, "header", version := obj.get("version"))
                config = _read(SolverConfig, header["config"], lineno, "header config", version)
            elif kind == "iteration":
                records.append(_read(IterationRecord, obj, lineno, "iteration record", version))
                if records[-1].k != len(records) - 1:
                    raise TraceError(f"line {lineno}: iteration record field k must be "
                                     f"{len(records) - 1} (its position), got {records[-1].k}")
            elif kind == "violation":
                violations.append(_read(Violation, obj, lineno, "violation"))
            elif kind == "footer":
                footer = _read("footer", obj, lineno, "footer", version)
                _read(Counts, footer["counts"], lineno, "footer counts")
                if footer["final_report"] is not None:
                    _read(StationarityReport, footer["final_report"], lineno,
                          "footer final_report")
                for key, want in (("iterations", len(records)),
                                  ("counts", vars(tally(records)))):
                    if footer[key] != want:
                        raise TraceError(f"line {lineno}: footer field {key} must be {want} "
                                         f"to match the records, got {footer[key]!r}")
                budget = footer["status"] in (MAX_ITERATIONS, CONVERGED_FOSP)
                if len(records) > config.max_iter or budget and len(records) < config.max_iter:
                    raise TraceError(f"line {lineno}: footer field iterations must be "
                                     f"{'' if budget else 'at most '}{config.max_iter} (max_iter) "
                                     f"for status {footer['status']}, got {len(records)}")
            else:
                raise TraceError(f"line {lineno}: unknown record kind {kind!r}")
    if header is None:
        raise TraceError("trace has no header line")
    if footer is None:
        raise TraceError("trace has no footer line (truncated?)")
    return TraceData(header=header, config=config, records=records,
                     violations=violations, footer=footer)
