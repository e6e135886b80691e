"""Threshold knowledge base: default tolerances per (task, constraint kind).

Stored as a flat key-value text file, one `task.kind = value unit` per line.
Lookups are total: a missing entry falls back to the per-kind default, and
an unknown kind falls back to the generic 0.03 m point tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from importlib import resources

from camlab.conlang.ast import UNITS

__all__ = ["ThresholdKB", "kb_lookup", "load_default_kb", "key_value_lines", "KIND_FALLBACKS"]

# documented per-kind defaults (SI)
KIND_FALLBACKS = {
    "level_surface": math.radians(15.0),
    "point_coincidence": 0.03,
    "verticality": math.radians(10.0),
    "hold": 0.08,
    "grasp_hold": 0.04,
    "still": 0.03,
    "align_xy": 0.04,
    "orient_still": math.radians(12.0),
    "pour_min": math.radians(30.0),
}

_GENERIC_FALLBACK = 0.03  # meters


def key_value_lines(text: str, what: str, form: str):
    """Yield (line number, key, value) for each `key = value` line of text,
    both stripped; `#` starts a comment. A line without `=` or with a key
    seen before raises ValueError naming `what` (the file kind) and the
    line; `form` is the line shape the first message asks for."""
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{what} line {lineno}: expected '{form}'")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in seen:
            raise ValueError(f"{what} line {lineno}: duplicate key '{key}'")
        seen.add(key)
        yield lineno, key, value


@dataclass
class ThresholdKB:
    entries: dict = field(default_factory=dict)  # (task, kind) -> (value SI, dim)

    @classmethod
    def loads(cls, text: str) -> "ThresholdKB":
        entries = {}
        form = "task.kind = value unit"
        for lineno, key, value in key_value_lines(text, "KB", form):
            try:
                task, kind = key.split(".", 1)
                num, unit = value.split()
            except ValueError as err:
                raise ValueError(f"KB line {lineno}: expected '{form}'") from err
            if unit not in UNITS:
                raise ValueError(f"KB line {lineno}: unknown unit '{unit}'")
            dim, factor = UNITS[unit]
            entries[(task.strip(), kind.strip())] = (float(num) * factor, dim)
        return cls(entries)


def kb_lookup(kb: ThresholdKB, task: str, kind: str) -> float:
    """Tolerance (SI) for a task/kind pair; falls back per kind, then to the
    generic point tolerance, so the lookup never fails."""
    entry = kb.entries.get((task, kind))
    if entry is not None:
        return entry[0]
    return KIND_FALLBACKS.get(kind, _GENERIC_FALLBACK)


@lru_cache(maxsize=1)
def load_default_kb() -> ThresholdKB:
    text = resources.files("camlab").joinpath("data/thresholds.kb").read_text(encoding="utf-8")
    return ThresholdKB.loads(text)
