"""Wrappers the benchmark installs around camlab's layer boundaries.

camlab modules bind imported names at import time (``from camlab.conlang
import evaluate``), so a wrapper replaces the name in every *calling* module,
and methods are replaced on their class. Nothing here writes into
``SimState.events``: timings stay in the objects below.

Two probes:

* ``StepClock`` is always on. It records the interval between successive
  ``Simulation.step`` entries, split into ticks (same subgoal) and switches
  (a ``Simulation.set_policy`` call, or the episode start, lies between).
  Given a ``hostspeed.Timeline``, it samples the host at a step entry when
  one is due; the next interval starts after the sample.
* ``Tracer`` is on only in the traced run. It records one span per call at
  every layer boundary: name, start, end, parent span and episode number.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

now = time.perf_counter_ns


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr: str, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, old = self._saved.pop()
            setattr(owner, attr, old)


def pairs(flat):
    """(start, end) pairs of a flat start, end, start, end, ... array."""
    return zip(flat[::2], flat[1::2])


class StepClock:
    """Tick and switch intervals, plus the EpisodeResults of the current
    loop unit. Intervals are stored flat as start_ns, end_ns, ... in int64
    arrays, so their memory stays small next to camlab's in peak_rss_mb."""

    def __init__(self, timeline=None):
        self.timeline = timeline
        self.ticks = array("q")
        self.switches = array("q")
        self.results: list = []
        self._last = None
        self._switched = False

    def episode(self, fn):
        def run_episode(cfg):
            self._last = now()
            self._switched = True
            result = fn(cfg)
            self._last = None
            self.results.append(result)
            return result

        return run_episode

    def step(self, fn):
        def step(sim, *args, **kwargs):
            t = now()
            if self._last is not None:
                (self.switches if self._switched else self.ticks).extend((self._last, t))
            if self.timeline is not None and self.timeline.due(t):
                self.timeline.sample()
                t = now()
            self._last = t
            self._switched = False
            return fn(sim, *args, **kwargs)

        return step

    def set_policy(self, fn):
        def set_policy(sim, script):
            self._switched = True
            return fn(sim, script)

        return set_policy


class Tracer:
    """In-memory spans ``[name, start_ns, end_ns, parent_index, episode]``.

    Parents are appended before their children, so one forward pass over
    ``spans`` sees every parent first. ``counts`` holds work sizes recorded
    at the same boundaries (points, errors)."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.episode = -1
        self._stack: list = []

    def wrap(self, name: str, fn, size=None, errors=()):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            if size is not None:
                counts[name + ".points"] += size(args)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.episode]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = now()
            try:
                return fn(*args, **kwargs)
            except errors:
                counts[name + ".errors"] += 1
                raise
            finally:
                rec[2] = now()
                stack.pop()

        return traced

    def count(self, name: str, fn, size):
        """Count work without a span (the call stays in its caller's self time)."""
        counts = self.counts

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[name] += size(out)
            return out

        return counted

    def episode_scope(self, fn):
        def run_episode(cfg):
            self.episode += 1
            return fn(cfg)

        return run_episode

    def _child_ns(self) -> list:
        """Per span, the time its direct children cover (they never overlap)."""
        child = [0] * len(self.spans)
        for _, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        return child

    def summary(self) -> dict:
        """name -> {calls, incl_ns, self_ns}; self = duration minus children."""
        child = self._child_ns()
        out: dict = {}
        for i, (name, t0, t1, _, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "incl_ns": 0, "self_ns": 0})
            agg["calls"] += 1
            agg["incl_ns"] += t1 - t0
            agg["self_ns"] += t1 - t0 - child[i]
        return out

    def root_ns(self) -> int:
        return sum(t1 - t0 for _, t0, t1, parent, _ in self.spans if parent < 0)

    def phase_ns(self, phases: dict) -> Counter:
        """Self time summed by phase. A span takes the phase of its nearest
        ancestor (itself included) whose name ``phases`` maps."""
        child = self._child_ns()
        phase = [None] * len(self.spans)
        out: Counter = Counter()
        for i, (name, t0, t1, parent, _) in enumerate(self.spans):
            p = phase[parent] if parent >= 0 else None
            phase[i] = p if p is not None else phases.get(name)
            if phase[i] is not None:
                out[phase[i]] += t1 - t0 - child[i]
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# name start_ns end_ns parent episode\n")
            for name, t0, t1, parent, ep in self.spans:
                fh.write(f"{name} {t0} {t1} {parent} {ep}\n")


def install_clock(patches: Patches, clock: StepClock):
    """Hooks needed for the end-to-end metrics (always installed)."""
    import camlab.camctl as camctl
    import camlab.simlab.episode as episode
    from camlab.simlab.world import Simulation

    patches.set(Simulation, "step", clock.step(Simulation.step))
    patches.set(Simulation, "set_policy", clock.set_policy(Simulation.set_policy))
    wrapped = clock.episode(episode.run_episode)
    patches.set(episode, "run_episode", wrapped)
    patches.set(camctl, "run_episode", wrapped)


def install_tracer(patches: Patches, tr: Tracer):
    """Span wrappers at every layer boundary, installed over the clock hooks."""
    import camlab.camctl as camctl
    import camlab.conlang.check as check
    import camlab.conlang.evaluator as evaluator
    import camlab.elementizer as elementizer
    import camlab.monitor as monitor
    import camlab.simlab.episode as episode
    import camlab.simlab.scenes as scenes
    import camlab.taskgen as taskgen
    from camlab.conlang import EvalError
    from camlab.geom3d.core import Pose
    from camlab.simlab.world import Simulation

    def span(owner, attr, name, **kw):
        patches.set(owner, attr, tr.wrap(name, owner.__dict__[attr], **kw))

    ep = tr.episode_scope(tr.wrap("simlab.episode", episode.run_episode))
    patches.set(episode, "run_episode", ep)
    patches.set(camctl, "run_episode", ep)
    span(Simulation, "step", "simlab.step")
    span(episode, "render", "simlab.render")
    span(scenes, "raycast_depth", "geom3d.raycast")
    span(episode, "extract_element", "elementizer.extract")
    patches.set(elementizer, "fuse_views", tr.count("elementizer.cloud_points", elementizer.fuse_views, len))
    span(elementizer, "dbscan", "geom3d.dbscan", size=lambda a: len(a[0]))
    span(Pose, "apply", "geom3d.pose_apply")
    for mod in (elementizer, evaluator):
        span(mod, "fit_plane", "geom3d.fit")
        span(mod, "fit_line", "geom3d.fit")
    span(episode, "parse", "conlang.parse")
    span(episode, "typecheck", "conlang.typecheck")
    span(episode, "whitebox_validate", "conlang.validate")
    for mod in (monitor, episode, check):
        span(mod, "evaluate", "conlang.evaluate", errors=EvalError)
    span(monitor.SimTracker, "step", "monitor.tracker_step", size=lambda a: sum(len(p) for p in a[1].values()))
    span(monitor.RealTimeMonitor, "monitor_tick", "monitor.monitor_tick")
    span(monitor.RealTimeMonitor, "check_completion", "monitor.check_completion")
    span(taskgen.Planner, "plan_next", "taskgen.plan_next")
    span(taskgen.Planner, "rebuild_relaxed", "taskgen.rebuild_relaxed")
    span(camctl.JsonlLogWriter, "write", "camctl.log_write")
    span(camctl, "read_log", "camctl.read_log")
    span(camctl, "run_spec", "camctl.run_spec")
    span(camctl, "replay_log", "camctl.replay_log")
