"""Parameter-file I/O.

A system is stored as a JSON document with decimal fields::

    {"n": 3, "a": [...], "c": [...], "d": [...], "beta": [...]}

Floats are written with Python's shortest round-trip representation, so a
read/write cycle is value-preserving (17 significant digits suffice).
"""

from __future__ import annotations

import json
from pathlib import Path

from .errors import LengthMismatch, SelfSimError
from .params import FIELDS, SimilaritySystem, validate


def system_to_dict(system: SimilaritySystem) -> dict:
    return {"n": system.n, **{name: list(getattr(system, name)) for name in FIELDS}}


def system_from_dict(doc: dict) -> SimilaritySystem:
    try:
        system = SimilaritySystem(a=doc["a"], c=doc["c"], d=doc["d"], beta=doc["beta"])
    except (KeyError, TypeError) as exc:
        raise SelfSimError(f"malformed parameter document: {exc}") from exc
    if "n" in doc and int(doc["n"]) != system.n:
        raise LengthMismatch(f"declared n={doc['n']} but sequences have length {system.n}")
    return system


def write_system(system: SimilaritySystem, path) -> None:
    validate(system)
    Path(path).write_text(json.dumps(system_to_dict(system), indent=2) + "\n")


def read_system(path) -> SimilaritySystem:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SelfSimError(f"invalid parameter file {path}: {exc}") from exc
    return system_from_dict(doc)
