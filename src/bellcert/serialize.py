"""File formats: strategies, correlation records, certification reports.

Everything is JSON with an explicit ``schema_version``.  Complex entries are
stored as ``[re, im]`` pairs in row-major order; floats are written as their
shortest round-trip repr and parsed correctly rounded, so numeric payloads
survive serialize/deserialize bit-exactly.

orjson is the one JSON codec: ``dumps`` writes strict JSON (NaN and the
infinities become ``null``) and ``parse_json`` parses with it.  A file
that orjson rejects is parsed again with the stdlib ``json`` module, which
accepts the ``NaN``/``Infinity`` literals and integers beyond 64 bits, so the
set of accepted files and the error messages stay those of the stdlib parser.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import orjson

from .certify import CertificationReport, CheckResult
from .quantum import Interaction, QuantumState
from .scenario import CorrelationRecord, Strategy

__all__ = [
    "SCHEMA_VERSION",
    "SerializationError",
    "dumps",
    "write_json",
    "matrix_payload",
    "matrix_from_payload",
    "strategy_to_dict",
    "strategy_from_dict",
    "save_strategy",
    "read_input",
    "parse_json",
    "declared_dims",
    "record_to_dict",
    "report_to_dict",
]

SCHEMA_VERSION = "1"


class SerializationError(ValueError):
    """Malformed or inconsistent file content; the message names the field."""


def dumps(data) -> bytes:
    """Strict JSON as UTF-8 bytes, on one line.

    numpy scalars are written as numbers and numpy arrays as lists.  orjson
    refuses integers beyond 64 bits and non-string keys (a huge ``--seed`` in
    ``meta``, a caller's ``meta``); those documents go through the stdlib
    encoder instead, which turns each array into a list first.
    """
    try:
        return orjson.dumps(data, option=orjson.OPT_SERIALIZE_NUMPY)
    except orjson.JSONEncodeError:
        return json.dumps(data, allow_nan=False, default=np.ndarray.tolist).encode()


def write_json(data, path) -> None:
    """Write ``data`` as the line the CLI prints for it in machine mode:
    ``dumps`` and a newline."""
    Path(path).write_bytes(dumps(data) + b"\n")


def matrix_payload(m: np.ndarray) -> dict:
    m = np.ascontiguousarray(m, dtype=complex)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": m.view(float).reshape(-1, 2).tolist(),
    }


def _count(value) -> bool:
    """A JSON integer >= 0: not a bool, a float or a string."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def matrix_from_payload(obj, path: str) -> np.ndarray:
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (KeyError, TypeError) as exc:
        raise SerializationError(f"{path}: missing or invalid rows/cols/entries") from exc
    if not (_count(rows) and _count(cols) and isinstance(entries, list)):
        raise SerializationError(f"{path}: missing or invalid rows/cols/entries")
    if len(entries) != rows * cols:
        raise SerializationError(
            f"{path}.entries: expected {rows * cols} [re, im] pairs, got {len(entries)}"
        )
    try:
        flat = np.array([complex(re, im) for re, im in entries], dtype=complex)
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"{path}.entries: entries must be [re, im] pairs") from exc
    except OverflowError as exc:  # an integer beyond float range
        raise SerializationError(f"{path}.entries: {exc}") from exc
    bad = np.flatnonzero(~np.isfinite(flat))
    if bad.size:
        raise SerializationError(f"{path}.entries[{bad[0]}]: non-finite entry {flat[bad[0]]}")
    return flat.reshape(rows, cols)


def declared_dims(data) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``dims.t1`` and ``dims.t2`` of a strategy document: lists of JSON
    integers >= 0 (``_count``); the error names the first field that is not."""
    dims = data.get("dims") if isinstance(data, dict) else None
    out = [dims.get(t) if isinstance(dims, dict) else None for t in ("t1", "t2")]
    for t, values in zip(("t1", "t2"), out):
        if not isinstance(values, list):
            raise SerializationError(f"dims.{t}: expected a list of integers, got {values!r}")
        for i, d in enumerate(values):
            if not _count(d):
                raise SerializationError(f"dims.{t}[{i}]: expected an integer >= 0, got {d!r}")
    return tuple(out[0]), tuple(out[1])


def _bits(t) -> str:
    return "".join(str(int(b)) for b in t)


def strategy_to_dict(strategy: Strategy, meta: dict | None = None) -> dict:
    matrices = [{"role": "source_state", **matrix_payload(strategy.source_state.density)}]
    for time_slice, obs in ((1, strategy.observables_t1), (2, strategy.observables_t2)):
        for party, pair in enumerate(obs):
            for setting, o in enumerate(pair):
                matrices.append(
                    {
                        "role": "observable",
                        "party": party,
                        "setting": setting,
                        "time_slice": time_slice,
                        **matrix_payload(o),
                    }
                )
    matrices.append({"role": "interaction", **matrix_payload(strategy.interaction.matrix)})
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "strategy",
        "parties": strategy.parties,
        "dims": {
            "t1": list(strategy.source_state.dims),
            "t2": list(strategy.interaction.dims_out),
        },
        "matrices": matrices,
        "meta": meta or {},
    }


def strategy_from_dict(data: dict) -> Strategy:
    if not isinstance(data, dict):
        raise SerializationError("top level: expected a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise SerializationError(
            f"schema_version: expected {SCHEMA_VERSION!r}, got {data.get('schema_version')!r}"
        )
    if data.get("kind") != "strategy":
        raise SerializationError(f"kind: expected 'strategy', got {data.get('kind')!r}")
    parties = data.get("parties")
    if not _count(parties):
        raise SerializationError(f"parties: expected an integer >= 0, got {parties!r}")
    dims_t1, dims_t2 = declared_dims(data)
    if len(dims_t1) != parties or len(dims_t2) != parties:
        raise SerializationError("dims: need one dimension per party and round")

    # Each matrix by its key: the role, and for an observable its (party,
    # setting, time_slice), each in its range; a key may occur once.
    ranges = (
        ("party", range(parties), f"below parties = {parties}"),
        ("setting", range(2), "below 2"),
        ("time_slice", range(1, 3), "1 or 2"),
    )
    found: dict[tuple, tuple[int, np.ndarray]] = {}
    matrices = data.get("matrices", [])
    if not isinstance(matrices, list):
        raise SerializationError("matrices: expected a list")
    for i, entry in enumerate(matrices):
        path = f"matrices[{i}]"
        if not isinstance(entry, dict):
            raise SerializationError(f"{path}: expected an object, got {type(entry).__name__}")
        role = entry.get("role")
        if role == "observable":
            index = tuple(entry.get(name) for name, _, _ in ranges)
            for (name, allowed, rule), value in zip(ranges, index):
                if not _count(value):
                    raise SerializationError(f"{path}.{name}: expected an integer >= 0, got {value!r}")
                if value not in allowed:
                    raise SerializationError(f"{path}.{name}: {value} is not {rule}")
            label = "observable party={} setting={} time_slice={}".format(*index)
        elif role in ("source_state", "interaction"):
            index, label = (), role
        else:
            raise SerializationError(f"{path}.role: unknown role {role!r}")
        key = (role, *index)
        if key in found:
            raise SerializationError(f"{path}: duplicate {label}, first at matrices[{found[key][0]}]")
        found[key] = (i, matrix_from_payload(entry, path))
    for role in ("source_state", "interaction"):
        if (role,) not in found:
            raise SerializationError(f"matrices: no {role} entry")

    def pairs(time_slice):
        out = []
        for party in range(parties):
            for setting in (0, 1):
                if ("observable", party, setting, time_slice) not in found:
                    raise SerializationError(
                        f"matrices: missing observable party={party} setting={setting} "
                        f"time_slice={time_slice}"
                    )
            out.append(tuple(found[("observable", party, s, time_slice)][1] for s in (0, 1)))
        return out

    try:
        return Strategy(
            source_state=QuantumState(found[("source_state",)][1], dims_t1),
            observables_t1=pairs(1),
            observables_t2=pairs(2),
            interaction=Interaction(found[("interaction",)][1], dims_t1, dims_t2),
        )
    except ValueError as exc:
        raise SerializationError(f"strategy validation: {exc}") from exc


def save_strategy(strategy: Strategy, path, meta: dict | None = None) -> dict:
    data = strategy_to_dict(strategy, meta)
    write_json(data, path)
    return data


def read_input(path) -> bytes:
    """The bytes of an input file; an unreadable file is a ``SerializationError``."""
    p = Path(path)
    try:
        return p.read_bytes()
    except OSError as exc:
        raise SerializationError(f"{p}: {exc}") from exc


def parse_json(raw: bytes, path):
    """The document in ``raw``, parsed with orjson, or with the stdlib
    ``json`` module if orjson rejects it; ``path`` names the file in the
    error."""
    try:
        return orjson.loads(raw)
    except orjson.JSONDecodeError:
        try:
            return json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SerializationError(f"{Path(path)}: {exc}") from exc


def record_to_dict(record: CorrelationRecord, p2: np.ndarray) -> dict:
    """``record`` and its tables ``p2`` (``scenario.second_round_tables``).
    Each table is a flat view of the record's arrays, which ``dumps``
    encodes as it is, with no Python float per entry."""
    def event_key(event):
        x, a = event
        return f"x={_bits(x)}|a={_bits(a)}"

    def by_setting(tables):
        return {_bits(x): tables[x].ravel() for x in np.ndindex((2,) * record.parties)}

    extra = None
    if record.extra_stats is not None:
        extra = {"entries": [list(entry) for entry in record.extra_stats]}
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "correlation_record",
        "parties": record.parties,
        "t1_bell_value": record.t1_bell_value,
        "t2_bell_values": {_bits(a): v for a, v in record.t2_bell_values.items()},
        "extra_stats": extra,
        "p1": by_setting(record.p1),
        "p2": {event_key(event): by_setting(p) for event, p in zip(record.events, p2)},
        "event_probabilities": {event_key(e): p for e, p in record.event_probabilities.items()},
    }


def _check_dict(c: CheckResult) -> dict:
    return {"name": c.name, "value": c.value, "tolerance": c.tolerance, "passed": c.passed}


def report_to_dict(report: CertificationReport, provenance: dict | None = None) -> dict:
    inter = None
    if report.interaction is not None:
        ic = report.interaction
        inter = {
            "residual": ic.residual,
            "proportionality_error": ic.proportionality_error,
            "unitarity_defect": ic.unitarity_defect,
            "aux_unitary": matrix_payload(ic.aux_unitary),
            "failures": list(ic.failures),
            "tolerances": {"certification": report.tolerances.get("certification")},
        }
    state = None
    if report.state is not None:
        state = {
            "residual": report.state.residual,
            "aux_dims": list(report.state.aux_dims),
            "min_eigenvalue": report.state.min_eigenvalue,
            "trace": report.state.trace,
            "aux_state": matrix_payload(report.state.aux_state),
        }
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "certification_report",
        "verdict": report.verdict,
        "parties": report.parties,
        "tolerances": dict(report.tolerances),
        "checks": {
            "bell": [_check_dict(c) for c in report.bell_checks],
            "extra_statistics": [_check_dict(c) for c in report.extra_stat_checks],
            "projectivity": [_check_dict(c) for c in report.projectivity_checks],
            "anticommutation": [_check_dict(c) for c in report.anticommutation_checks],
            "frame": [_check_dict(c) for c in report.frame_checks],
        },
        "state": state,
        "state_residual": None if report.state_residual is None else _check_dict(report.state_residual),
        "xi_min_eigenvalue": None if report.state is None else report.state.min_eigenvalue,
        "interaction": inter,
        "frames": [
            {
                "party": f.party,
                "time_slice": f.time_slice,
                "aux_dim": f.aux_dim,
                "support_dim": f.support_dim,
                "matrix": matrix_payload(f.matrix),
            }
            for f in report.frames
        ],
        "failures": list(report.failures),
        "provenance": provenance or {},
    }
