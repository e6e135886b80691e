"""CLI and experiment harness.

    camctl run <spec> [--out DIR]     run an experiment grid, write JSONL log
                                      + machine report, print a summary table
    camctl replay <log>               recompute the report from the log only
    camctl validate <file> [--task T] load a DSL file as the episode loop
                                      does, against a scene snapshot
    camctl bench                      monitor_tick latency benchmark

Spec files are flat `key = value` text; comma-separated values of modes /
drop_p / place_noise_cm / disturbances form the experiment grid (cartesian
product). Episode seeds are seed_base + episode index, cell-local, so cell
results are independent of execution order. The CAM_SEED environment
variable overrides seed_base.

The run log is line-delimited JSON with a per-line chained checksum; replay
verifies the chain and must reproduce the report byte for byte. A line's
checksum covers the line's own bytes less its checksum member, so a line
re-serialised to equal but differently written JSON fails it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import sys
import time
from dataclasses import dataclass

import numpy as np

from camlab.conlang.kb import key_value_lines
from camlab.errors import CamlabError, LogChecksumError, TruncatedLog
from camlab.monitor import DebouncePolicy, RealTimeMonitor, SimTracker, TrackerConfig, latency_report
from camlab.simlab import TICK_HZ, EpisodeConfig, run_episode
from camlab.simlab.disturb import standard_disturbances
from camlab.simlab.episode import BUDGET_TICKS
from camlab.simlab.scenes import TEMPLATES
from camlab.taskgen import MAX_RETRIES

__all__ = [
    "ExperimentSpec",
    "run_spec",
    "replay_log",
    "JsonlLogWriter",
    "read_log",
    "main",
]

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# experiment spec


# One row per spec field: text key (also its dotted path in as_dict()) ->
# (ExperimentSpec attribute path, value type). A tuple type such as (float,)
# is a comma-separated list in text and a JSON list in as_dict().
_FIELDS = {
    "task": ("task", str),
    "episodes": ("episodes", int),
    "seed_base": ("seed_base", int),
    "modes": ("modes", (str,)),
    "drop_p": ("drop_p", (float,)),
    "place_noise_cm": ("place_noise_cm", (float,)),
    "disturbances": ("disturbances", (str,)),
    "budget_ticks": ("budget_ticks", int),
    "tracker.sigma": ("tracker.sigma", float),
    "tracker.dropout": ("tracker.dropout", float),
    "tracker.resync": ("tracker.resync_interval", int),
    "debounce.k": ("debounce.k", int),
    "debounce.h": ("debounce.h", int),
    "max_retries": ("max_retries", int),
}


def _from_text(kind, text: str):
    if isinstance(kind, tuple):
        return tuple(kind[0](v.strip()) for v in text.split(","))
    return kind(text)


def _from_json(key: str, kind, value):
    if isinstance(kind, tuple):
        if not isinstance(value, list):
            raise ValueError(f"spec field '{key}' must be a list, got {value!r}")
        return tuple(_from_json(key, kind[0], v) for v in value)
    allowed = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, allowed):
        raise ValueError(f"spec field '{key}' must be {kind.__name__}, got {value!r}")
    return value


def _flatten(d: dict, prefix: str = "") -> dict:
    out = {}
    for k, v in d.items():
        if isinstance(v, dict):
            out.update(_flatten(v, f"{prefix}{k}."))
        else:
            out[prefix + k] = v
    return out


@dataclass(frozen=True)
class ExperimentSpec:
    task: str
    episodes: int = 20
    seed_base: int = 0
    modes: tuple = ("off", "full")
    drop_p: tuple = (0.0,)
    place_noise_cm: tuple = (0.0,)
    disturbances: tuple = ("none",)
    budget_ticks: int = BUDGET_TICKS
    tracker: TrackerConfig = TrackerConfig()
    debounce: DebouncePolicy = DebouncePolicy()
    max_retries: int = MAX_RETRIES

    def __post_init__(self):
        if self.task not in TEMPLATES:
            raise ValueError(f"spec needs task = one of {TEMPLATES}, got {self.task!r}")
        if self.episodes < 1:
            raise ValueError("episodes must be >= 1")
        for axis in ("modes", "drop_p", "place_noise_cm", "disturbances"):
            values = getattr(self, axis)
            for i, value in enumerate(values):
                if value in values[:i]:  # by value: 0.3 and 0.30 are one entry
                    raise ValueError(f"spec field '{axis}' repeats {value!r}: two cells would share one key")
        for cell in self.cells():  # every cell must make a valid episode
            _episode_config(self, cell, self.seed_base)

    @classmethod
    def _build(cls, values: dict) -> "ExperimentSpec":
        """Spec from {text key: typed value}; absent keys keep their defaults."""
        kwargs: dict = {}
        nested: dict = {"tracker": {}, "debounce": {}}
        for key, value in values.items():
            owner, _, name = _FIELDS[key][0].rpartition(".")
            (nested[owner] if owner else kwargs)[name] = value
        return cls(**kwargs, tracker=TrackerConfig(**nested["tracker"]), debounce=DebouncePolicy(**nested["debounce"]))

    @classmethod
    def loads(cls, text: str) -> "ExperimentSpec":
        """Parse flat `key = value` text; CAM_SEED overrides seed_base."""
        kv = {key: value for _, key, value in key_value_lines(text, "spec", "key = value")}
        unknown = sorted(set(kv) - set(_FIELDS))
        if unknown:
            raise ValueError(f"unknown spec keys: {unknown}")
        if "task" not in kv:
            raise ValueError(f"spec needs task = one of {TEMPLATES}")
        values = {key: _from_text(_FIELDS[key][1], text) for key, text in kv.items()}
        seed_env = os.environ.get("CAM_SEED")
        if seed_env is not None:
            values["seed_base"] = int(seed_env)
        return cls._build(values)

    @classmethod
    def from_dict(cls, d) -> "ExperimentSpec":
        """Inverse of as_dict (CAM_SEED does not apply). Raises ValueError
        unless `d` holds exactly the as_dict fields, each of its type."""
        flat = _flatten(d) if isinstance(d, dict) else {}
        if flat.keys() != _FIELDS.keys():
            raise ValueError(f"spec dict: missing or unknown fields {sorted(flat.keys() ^ _FIELDS.keys())}")
        return cls._build({key: _from_json(key, _FIELDS[key][1], flat[key]) for key in _FIELDS})

    @classmethod
    def load(cls, path) -> "ExperimentSpec":
        with open(path, encoding="utf-8") as fh:
            return cls.loads(fh.read())

    def cells(self) -> list:
        out = []
        for mode in self.modes:
            for p in self.drop_p:
                for q in self.place_noise_cm:
                    for sel in self.disturbances:
                        out.append({"mode": mode, "drop_p": p, "place_noise_cm": q, "disturbances": sel})
        return out

    def as_dict(self) -> dict:
        out: dict = {}
        for key, (attr, _) in _FIELDS.items():
            value = self
            for name in attr.split("."):
                value = getattr(value, name)
            *groups, name = key.split(".")
            node = out
            for group in groups:
                node = node.setdefault(group, {})
            node[name] = list(value) if isinstance(value, tuple) else value
        return out


# ---------------------------------------------------------------------------
# JSONL log with a chained per-line checksum


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class JsonlLogWriter:
    def __init__(self, path):
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self._prev = ""
        self.lines = 0

    def write(self, record: dict):
        if "checksum" in record:
            raise ValueError("a log record may not carry the reserved key 'checksum'")
        core = _jsonable(record)
        chk = hashlib.sha256((self._prev + _canonical(core)).encode()).hexdigest()[:16]
        core["checksum"] = chk
        self._fh.write(_canonical(core) + "\n")
        self._prev = chk
        self.lines += 1

    def close(self):
        """Write the end-of-log marker and close: the log is complete."""
        self.write({"kind": "eof", "lines": self.lines})
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self._fh.close()  # no eof marker: the log must not verify as complete


def read_log(path) -> list:
    """Read and verify a JSONL run log; returns the records (without the eof
    marker). Raises LogChecksumError, or TruncatedLog for a missing eof
    marker or a line that cannot be decoded (a log cut off mid-line, or
    nesting too deep for the decoder).

    Each line's checksum covers the previous line's checksum and the line's
    own bytes with its `"checksum":"..."` member and one separating comma
    cut out, which is the canonical text the writer hashed. A line
    re-serialised to equal but differently written JSON (spaces, key
    order, `1.0e0`) fails. Any other match of that text, a nested member
    or a key that ends in an escaped `"checksum`, would hold the line's
    checksum inside the text the checksum is taken over, so the first
    match is the top-level member."""
    records = []
    prev = ""
    # invalid UTF-8 decodes to U+FFFD and then fails its checksum
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except (ValueError, RecursionError) as err:
                raise TruncatedLog(f"{path}:{lineno}: undecodable line ({err})") from None
            if not isinstance(rec, dict):
                raise LogChecksumError(f"{path}:{lineno}: not a log record")
            chk = rec.pop("checksum", None)
            head, member, tail = line.partition(f'"checksum":"{chk}"')
            if not member or not isinstance(chk, str):
                raise LogChecksumError(f"{path}:{lineno}: checksum mismatch")
            if head.endswith(","):
                head = head[:-1]
            else:
                tail = tail.removeprefix(",")
            want = hashlib.sha256((prev + head + tail).encode()).hexdigest()[:16]
            if chk != want:
                raise LogChecksumError(f"{path}:{lineno}: checksum mismatch")
            prev = chk
            records.append(rec)
    if not records or records[-1].get("kind") != "eof":
        raise TruncatedLog(f"{path}: missing end-of-log marker")
    eof = records.pop()
    if eof.get("lines") != len(records):
        raise TruncatedLog(f"{path}: line count mismatch")
    return records


# ---------------------------------------------------------------------------
# metrics


def _ci95(successes: int, n: int):
    """Wilson score interval (Wilson 1927) at z = 1.96. Unlike the Wald
    interval it does not collapse to a point at 0 or n successes."""
    z = 1.96
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return [max(center - half, 0.0), min(center + half, 1.0)]


def _metrics_from_events(episode_rows: list) -> list:
    """Per-cell metrics; episode_rows[cell idx] is the cell's list of
    per-episode event lists. Raises CamlabError for an episode without
    episode_end."""
    cells = []
    for idx, runs in enumerate(episode_rows):
        n = len(runs)
        successes = 0
        ticks = []
        ticks_success = []
        latencies = []
        false_pos = 0
        verdict_hist: dict = {}
        for j, events in enumerate(runs):
            end = next((e for e in events if e["kind"] == "episode_end"), None)
            if end is None:
                raise CamlabError(f"cell {idx} episode {j} has no episode_end")
            ok = bool(end["payload"]["success"])
            successes += ok
            ticks.append(end["payload"]["ticks"])
            if ok:
                ticks_success.append(end["payload"]["ticks"])
            rep = latency_report(events)
            latencies.extend(rep.latencies)
            false_pos += rep.false_positives
            for e in events:
                if e["kind"] == "verdict":
                    key = e["payload"]["outcome"]
                    verdict_hist[key] = verdict_hist.get(key, 0) + 1
        cells.append(
            {
                "cell": idx,
                "episodes": n,
                "successes": successes,
                "success_rate": successes / n,
                "ci95": _ci95(successes, n),
                "mean_ticks": sum(ticks) / n,
                "mean_seconds": sum(ticks) / n / TICK_HZ,
                "mean_ticks_success": (sum(ticks_success) / len(ticks_success)) if ticks_success else None,
                "mean_detection_latency": (sum(latencies) / len(latencies)) if latencies else None,
                "false_positives": false_pos,
                "verdicts": dict(sorted(verdict_hist.items())),
            }
        )
    return cells


def _report(spec_dict: dict, cells: list, episode_rows: list) -> dict:
    cell_metrics = _metrics_from_events(episode_rows)
    for metrics, key in zip(cell_metrics, cells):
        metrics["key"] = key
    return {"schema": SCHEMA_VERSION, "spec": spec_dict, "cells": cell_metrics}


def report_bytes(report: dict) -> bytes:
    return (json.dumps(_jsonable(report), sort_keys=True, indent=2) + "\n").encode()


# ---------------------------------------------------------------------------
# running


def _episode_config(spec: ExperimentSpec, cell: dict, seed: int) -> EpisodeConfig:
    dist = standard_disturbances(
        spec.task, cell["disturbances"], p=cell["drop_p"], q_cm=cell["place_noise_cm"]
    )
    return EpisodeConfig(
        template=spec.task,
        monitor_mode=cell["mode"],
        disturbances=dist,
        seed=seed,
        budget_ticks=spec.budget_ticks,
        tracker=spec.tracker,
        debounce=spec.debounce,
        max_retries=spec.max_retries,
    )


def run_spec(spec: ExperimentSpec, log_writer: JsonlLogWriter | None = None, progress=None) -> dict:
    """Execute the grid; returns the metrics report dict."""
    spec_dict = spec.as_dict()
    if log_writer is not None:
        log_writer.write({"kind": "meta", "schema": SCHEMA_VERSION, "spec": spec_dict})
    episode_rows: list = []
    cells = spec.cells()
    for idx, cell in enumerate(cells):
        runs = []
        for j in range(spec.episodes):
            seed = spec.seed_base + j
            result = run_episode(_episode_config(spec, cell, seed))
            events = [_jsonable(e) for e in result.events]
            runs.append(events)
            if log_writer is not None:
                for e in events:
                    log_writer.write({"cell": idx, "episode": j, **e})
            if progress is not None and (j + 1) % 20 == 0:
                progress(f"cell {idx + 1}/{len(cells)} episode {j + 1}/{spec.episodes}")
        episode_rows.append(runs)
    return _report(spec_dict, cells, episode_rows)


# The record fields that replay reads, each with its exact type: the envelope
# of every record after the meta header, then the payload fields of the
# kinds the report reads. Replay reads no other field of a record.
_RECORD_FIELDS = {"cell": int, "episode": int, "kind": str, "tick": int, "payload": dict}
_PAYLOAD_FIELDS = {"episode_end": {"success": bool, "ticks": int}, "verdict": {"outcome": str}}


def _bad_field(d: dict, types: dict) -> str | None:
    """'no tick', 'a non-int tick', ...: the first field of d that is missing
    or not exactly of its type, else None."""
    for k, t in types.items():
        if type(d.get(k)) is not t:
            return f"no {k}" if k not in d else f"a non-{t.__name__} {k}"
    return None


def replay_log(path) -> dict:
    """Recompute the metrics report from a run log (no re-simulation).

    Raises CamlabError unless the log's meta spec is readable, every record
    after it has the fields of _RECORD_FIELDS and, for its kind,
    _PAYLOAD_FIELDS, each exactly of its type, and the log holds, for every
    cell of the spec, exactly its episodes, each with an episode_end."""
    records = read_log(path)
    if not records or records[0].get("kind") != "meta":
        raise CamlabError(f"{path}: missing meta header")
    meta = records[0]
    schema = meta.get("schema")
    if type(schema) is not int or schema != SCHEMA_VERSION:  # True and 1.0 equal 1
        raise CamlabError(f"{path}: log schema {schema!r} != {SCHEMA_VERSION}")
    try:
        spec = ExperimentSpec.from_dict(meta.get("spec"))
    except ValueError as err:
        raise CamlabError(f"{path}: bad meta spec: {err}") from None
    cells = spec.cells()
    runs: list = [{} for _ in cells]  # per cell: episode -> its records
    for rec in records[1:]:
        bad = _bad_field(rec, _RECORD_FIELDS)
        if bad is not None:
            raise CamlabError(f"{path}: a record of cell {rec.get('cell')!r} episode {rec.get('episode')!r} has {bad}")
        cell, episode, kind = rec["cell"], rec["episode"], rec["kind"]
        fields = _PAYLOAD_FIELDS.get(kind)
        if fields is not None:
            bad = _bad_field(rec["payload"], fields)
            if bad is not None:
                raise CamlabError(
                    f"{path}: the {kind} of cell {cell} episode {episode} lacks {' or '.join(fields)}, it has {bad}"
                )
        if not (0 <= cell < len(cells) and 0 <= episode < spec.episodes):
            raise CamlabError(
                f"{path}: a record of cell {cell} episode {episode} is outside the spec's "
                f"{len(cells)} cells x {spec.episodes} episodes"
            )
        runs[cell].setdefault(episode, []).append(rec)
    for idx, eps in enumerate(runs):
        if len(eps) != spec.episodes:
            raise CamlabError(f"{path}: cell {idx} has {len(eps)} episodes, the spec has {spec.episodes}")
    return _report(meta["spec"], cells, [[eps[j] for j in range(spec.episodes)] for eps in runs])


def _print_table(report: dict):
    print(f"task: {report['spec']['task']}  episodes/cell: {report['spec']['episodes']}")
    hdr = f"{'cell':<40} {'succ':>6} {'rate':>7} {'ci95':>17} {'ticks':>7} {'lat':>6} {'fp':>4}"
    print(hdr)
    print("-" * len(hdr))
    for c in report["cells"]:
        key = c["key"]
        name = f"{key['mode']} p={key['drop_p']} q={key['place_noise_cm']} d={key['disturbances']}"
        lat = c["mean_detection_latency"]
        lat_s = "-" if lat is None else f"{lat:.1f}"
        print(
            f"{name:<40} {c['successes']:>3}/{c['episodes']:<3} {c['success_rate']:>6.1%} "
            f"[{c['ci95'][0]:.2f}, {c['ci95'][1]:.2f}]   {c['mean_ticks']:>7.0f} "
            f"{lat_s:>6} {c['false_positives']:>4}"
        )


# ---------------------------------------------------------------------------
# validate + bench


def validate_dsl(path, task: str = "stack_in_order") -> list:
    """Load a DSL source file as the episode loop does (load_program).

    Binds e(0) to the end-effector and e(1..) to the task's first-subgoal
    elements, extracted from a seed-0 scene as the episode loop extracts
    them. Returns [] when the program loads, else [the text a
    validation_failure event would carry]."""
    from camlab.monitor import PointRing
    from camlab.simlab import build_scene, extract_elements, scene_summary
    from camlab.simlab.episode import load_program
    from camlab.taskgen import Planner

    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    state, scene = build_scene(task, np.random.default_rng(0))
    sg = Planner(task, scene.meta).plan_next(scene_summary(state, scene))
    elements, _ = extract_elements(sg, state, scene)
    try:
        load_program(source, None, PointRing(elements, state.tick))
    except CamlabError as err:
        return [str(err)]
    return []


def bench_monitor(n_ticks: int = 10000, n_elements: int = 16, n_programs: int = 8) -> dict:
    """monitor_tick latency benchmark (median/p95 over n_ticks)."""
    from camlab.elementizer import end_effector_element, make_element_set
    from camlab.simlab.episode import load_program

    rng = np.random.default_rng(0)
    protos = [end_effector_element([(0.0, 0.0, 0.1)])]
    for i in range(n_elements - 1):
        protos.append(end_effector_element(rng.uniform(-0.2, 0.2, size=(1, 3)), entity=f"obj{i}"))
    elements = make_element_set(protos)
    tracker = SimTracker(TrackerConfig(sigma=0.001, dropout=0.01), 1, elements, 0)
    programs = []
    for i in range(n_programs):
        a = i % n_elements
        b = (i + 1) % n_elements
        src = (
            f'constraint "c{i}" mode during tol lim = 10 m '
            f"{{ dist(centroid(e({a})), centroid(e({b}))) <= lim and displacement(e({a}), 8) <= lim }} "
            f'fail "r"'
        )
        programs.append(load_program(src, f"c{i}", tracker.ring))
    mon = RealTimeMonitor(programs, DebouncePolicy())
    truth = tracker.ring.pack({e.eid: e.points for e in elements})
    samples = []
    for t in range(1, n_ticks + 1):
        tracker.step(truth, t)
        t0 = time.perf_counter()
        mon.monitor_tick(t)
        samples.append(time.perf_counter() - t0)
    samples.sort()
    return {
        "ticks": n_ticks,
        "elements": n_elements,
        "programs": n_programs,
        "median_ms": 1000 * statistics.median(samples),
        "p95_ms": 1000 * samples[int(0.95 * len(samples))],
        "max_ms": 1000 * samples[-1],
    }


# ---------------------------------------------------------------------------
# CLI


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="camctl", description="experiment harness")
    sub = ap.add_subparsers(dest="cmd", required=True)

    run_p = sub.add_parser("run", help="run an experiment spec")
    run_p.add_argument("spec")
    run_p.add_argument("--out", default="camctl_out")

    rep_p = sub.add_parser("replay", help="recompute metrics from a run log")
    rep_p.add_argument("log")
    rep_p.add_argument("--report", default=None, help="compare against this report file")

    val_p = sub.add_parser("validate", help="validate a DSL monitor file")
    val_p.add_argument("file")
    val_p.add_argument("--task", default="stack_in_order", choices=TEMPLATES)

    ben_p = sub.add_parser("bench", help="monitor_tick latency benchmark")
    ben_p.add_argument("--ticks", type=int, default=10000)

    args = ap.parse_args(argv)

    if args.cmd == "run":
        try:
            spec = ExperimentSpec.load(args.spec)
        except (OSError, ValueError) as err:
            print(f"camctl: bad spec: {err}", file=sys.stderr)
            return 2
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as err:
            print(f"camctl: cannot create output directory {args.out}: {err}", file=sys.stderr)
            return 2
        log_path = os.path.join(args.out, "run.jsonl")
        report_path = os.path.join(args.out, "report.json")
        try:
            with JsonlLogWriter(log_path) as w:
                report = run_spec(spec, w, progress=lambda s: print(s, file=sys.stderr))
        except CamlabError as err:
            print(f"camctl: internal error: {err}", file=sys.stderr)
            return 3
        with open(report_path, "wb") as fh:
            fh.write(report_bytes(report))
        _print_table(report)
        print(f"log: {log_path}\nreport: {report_path}", file=sys.stderr)
        return 0

    if args.cmd == "replay":
        try:
            report = replay_log(args.log)
            original = None
            if args.report:
                with open(args.report, "rb") as fh:
                    original = fh.read()
        except (OSError, CamlabError) as err:
            print(f"camctl: {err}", file=sys.stderr)
            return 2
        _print_table(report)
        if original is not None:
            if original != report_bytes(report):
                print("camctl: replayed report differs from the original", file=sys.stderr)
                return 3
            print("replay matches the original report", file=sys.stderr)
        return 0

    if args.cmd == "validate":
        try:
            problems = validate_dsl(args.file, args.task)
        except (OSError, UnicodeDecodeError, CamlabError) as err:
            print(f"camctl: {err}", file=sys.stderr)
            return 2
        if problems:
            for p in problems:
                print(p)
            return 2
        print("ok")
        return 0

    if args.cmd == "bench":
        if args.ticks < 1:
            print(f"camctl: --ticks must be >= 1, got {args.ticks}", file=sys.stderr)
            return 2
        stats = bench_monitor(n_ticks=args.ticks)
        for k, v in stats.items():
            print(f"{k}: {v:.4f}" if isinstance(v, float) else f"{k}: {v}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
