"""Shared exception types.

Geometry errors are raised eagerly; the monitor catches them at tick time and
converts them into fail-safe violations rather than letting a tick go silent.
"""


class CamlabError(Exception):
    """Base class for all package errors."""


class DegenerateGeometry(CamlabError):
    """Input geometry does not determine the requested fit (collinear,
    coincident, or zero-length)."""


class EmptyPointSet(CamlabError):
    """An operation that needs at least one point received none."""


class DimensionMismatch(CamlabError):
    """Image/array shapes disagree with the camera model."""

    def __init__(self, what: str, expected, got):
        super().__init__(f"{what}: expected {expected}, got {got}")
        self.what = what
        self.expected = expected
        self.got = got


class IrreducibleCloud(CamlabError):
    """The element pipeline cannot produce the required number of
    representative points from the given cloud."""


class TrackError(CamlabError):
    """Tracker was asked about an element it does not know."""


class TruncatedLog(CamlabError):
    """A JSONL run log is missing its end-of-file marker or holds a line that
    cannot be decoded (a write cut off mid-line)."""


class LogChecksumError(CamlabError):
    """A JSONL run log failed its per-line checksum chain."""
