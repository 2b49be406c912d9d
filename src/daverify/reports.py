"""Deterministic report serialization.

Reports are JSON with sorted keys and a fixed schema version; identical
configurations must produce byte-identical files, so nothing time- or
path-dependent belongs in them. Exact rationals are serialized as "p/q".
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from .exact import QComplex, format_rational

SCHEMA_VERSION = "1.0.0"


def report_schema_version() -> str:
    return SCHEMA_VERSION


def jsonable(value):
    """Recursively convert report values to plain JSON types.

    Fractions become "p/q" strings, complex numbers become {"re", "im"}
    objects, numpy scalars and arrays become Python scalars and lists.
    """
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, QComplex):
        return value.to_json()
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(f"cannot serialize {type(value).__name__} into a report")


def finite_or_null(key: str, value: float, reason: str) -> dict:
    """{key: value} for a finite value; otherwise {key: None, key_reason:
    reason}, since canonical JSON has no inf or nan."""
    if math.isfinite(value):
        return {key: value}
    return {key: None, f"{key}_reason": reason}


def make_report(command: str, config: dict, results: list[dict]) -> dict:
    """Assemble the standard report envelope.

    `results` is a list of check rows, each with at least {"check": str,
    "pass": bool}; the overall "pass" is their conjunction.
    """
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": jsonable(config),
        "results": jsonable(results),
        "pass": all(bool(row.get("pass", False)) for row in results),
    }


def dump_report(report: dict, path: str | Path) -> None:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_report(path: str | Path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_csv(path: str | Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
