"""Threshold knowledge base: the tolerance per (task, constraint kind).

Stored as a flat key-value text file, one `task.kind = value unit` per line.
The file is the whole table: the planner asks only for pairs it holds, so a
missing pair is a KeyError, a programming error.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from camlab.conlang.ast import UNITS

__all__ = ["loads_kb", "load_default_kb", "key_value_lines"]


def key_value_lines(text: str, what: str, form: str, segments: int | None = None):
    """Yield (line number, key, value) for each `key = value` line of text,
    both stripped; `#` starts a comment. With `segments`, the key is split
    at `.` into exactly that many stripped segments and yielded as a tuple.
    A line without `=`, a key with another number of segments or an empty
    one, or a key (after stripping) seen before raises ValueError naming
    `what` (the file kind) and the line; `form` is the line shape that the
    first two messages ask for."""
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{what} line {lineno}: expected '{form}'")
        key, value = (s.strip() for s in line.split("=", 1))
        if segments is not None:
            key = tuple(s.strip() for s in key.split("."))
            if len(key) != segments or "" in key:
                raise ValueError(f"{what} line {lineno}: expected '{form}'")
        if key in seen:
            shown = ".".join(key) if segments is not None else key
            raise ValueError(f"{what} line {lineno}: duplicate key '{shown}'")
        seen.add(key)
        yield lineno, key, value


def loads_kb(text: str) -> dict:
    """The KB text as a {(task, kind): tolerance in SI units} dict."""
    kb = {}
    form = "task.kind = value unit"
    for lineno, key, value in key_value_lines(text, "KB", form, segments=2):
        try:
            num, unit = value.split()
        except ValueError as err:
            raise ValueError(f"KB line {lineno}: expected '{form}'") from err
        if unit not in UNITS:
            raise ValueError(f"KB line {lineno}: unknown unit '{unit}'")
        kb[key] = float(num) * UNITS[unit][1]
    return kb


@lru_cache(maxsize=1)
def load_default_kb() -> dict:
    text = resources.files("camlab").joinpath("data/thresholds.kb").read_text(encoding="utf-8")
    return loads_kb(text)
