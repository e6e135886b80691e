"""The three workloads: closed loop, one client, one episode after another.

Every workload turns the benchmark seed into a base episode seed and draws
consecutive episode seeds from it, so the same seed gives the same episodes.

* sweep_tick      sweep_half, full mode, no disturbances: ~390 ticks per
                  episode over many tracked elements and one subgoal bind,
                  so per-tick layers dominate.
* disturbed_bind  slot_pen / stow_book / pour_tea interleaved by seed, full
                  mode, disturbances "abc": every disturbance forces a
                  violation, a replan and a new bind, so render, extraction
                  and validation dominate.
* stack_grid      camctl.run_spec on stack_in_order, modes off+full,
                  drop_p 0.3, logged through JsonlLogWriter and replayed with
                  replay_log: the user-facing experiment path.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import camlab.camctl as camctl
import camlab.simlab.episode as episode
from camlab.monitor import latency_report
from camlab.simlab import EpisodeConfig
from camlab.simlab.disturb import standard_disturbances

from hooks import now

# runs with different --seed never share an episode seed
SEED_STRIDE = 100_000

EPISODE_TEMPLATES = {
    "sweep_tick": (("sweep_half", "none"),),
    "disturbed_bind": (("slot_pen", "abc"), ("stow_book", "abc"), ("pour_tea", "abc")),
}

# stack_grid: episodes per cell and run_spec call (each call runs 2x this)
GRID_EPISODES = 3
GRID_DROP_P = 0.3


def base_seed(seed: int) -> int:
    return seed * SEED_STRIDE


def _canon(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serialisable: {type(obj).__name__}")


def episode_digest(events) -> str:
    text = json.dumps(events, sort_keys=True, separators=(",", ":"), default=_canon)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Outcome:
    """What one measured phase produced, in episode order."""

    episodes: int = 0
    ticks: int = 0
    successes: int = 0
    raised: int = 0  # episodes that raised
    failed: int = 0  # raised episodes plus replays and digests that disagree
    replays: int = 0
    replay_passes: list = field(default_factory=list)  # (log lines, start ns, end ns) per replay_log call
    digests: list = field(default_factory=list)
    waste: Counter = field(default_factory=Counter)  # see waste_counts
    units: int = 0  # loop iterations (episodes, or run_spec calls for stack_grid)
    unit_log: list = field(default_factory=list)  # (start ns, end ns, episodes, ticks) per unit
    busy_ns: int = 0  # time in the units themselves
    wall_ns: int = 0  # busy_ns plus the log round trips and host samples between units

    def add(self, result):
        self.episodes += 1
        self.ticks += result.ticks
        self.successes += bool(result.success)
        self.digests.append(episode_digest(result.events))
        self.waste.update(waste_counts(result.events))

    @property
    def attempted(self) -> int:
        return self.episodes + self.raised + self.replays

    def combined_digest(self) -> str:
        return hashlib.sha256("".join(self.digests).encode()).hexdigest()

    def block_rates(self, block: int, duration=lambda a, b: b - a) -> tuple:
        """(episodes/s, ticks/s) of every run of `block` consecutive units,
        timing each unit with duration(start, end); a short block at the end
        is dropped unless it is the only one."""
        spans = [self.unit_log[i:i + block] for i in range(0, len(self.unit_log), block)]
        spans = [b for b in spans if len(b) == block] or spans
        eps, tps = [], []
        for b in spans:
            sec = sum(duration(u[0], u[1]) for u in b) / 1e9
            eps.append(sum(u[2] for u in b) / sec)
            tps.append(sum(u[3] for u in b) / sec)
        return eps, tps


def _config(workload: str, base: int, k: int) -> EpisodeConfig:
    pairs = EPISODE_TEMPLATES[workload]
    template, selector = pairs[k % len(pairs)]
    return EpisodeConfig(
        template=template,
        monitor_mode="full",
        disturbances=standard_disturbances(template, selector),
        seed=base + k,
    )


def _grid_spec(base: int, i: int, episodes: int = GRID_EPISODES) -> camctl.ExperimentSpec:
    return camctl.ExperimentSpec(
        task="stack_in_order",
        episodes=episodes,
        seed_base=base + i * episodes,
        modes=("off", "full"),
        drop_p=(GRID_DROP_P,),
    )


def _report(msg: str):
    print(msg, file=sys.stderr)


def _run_unit(workload, base, i, clock, out: Outcome, log_path):
    """Run loop iteration i: one episode, or one run_spec + replay_log.
    The finished episodes are left in clock.results."""
    clock.results.clear()
    if workload != "stack_grid":
        try:
            episode.run_episode(_config(workload, base, i))
        except Exception:  # one failed episode must not end the run
            _report(traceback.format_exc())
            out.raised += 1
            out.failed += 1
        return
    spec = _grid_spec(base, i)
    try:
        with camctl.JsonlLogWriter(log_path) as writer:
            report = camctl.run_spec(spec, writer)
    except Exception:
        _report(traceback.format_exc())
        n = 2 * spec.episodes - len(clock.results)
        out.raised += n
        out.failed += n
        return
    out.replays += 1
    t0 = now()
    try:
        replayed = camctl.replay_log(log_path)
    except Exception:
        _report(traceback.format_exc())
        out.failed += 1
        return
    out.replay_passes.append((writer.lines, t0, now()))  # lines include the eof marker
    if camctl.report_bytes(replayed) != camctl.report_bytes(report):
        _report(f"stack_grid: replayed report differs from run_spec's (unit {i})")
        out.failed += 1
    successes = sum(c["successes"] for c in report["cells"])
    mine = sum(r.success for r in clock.results)
    if successes != mine:
        _report(f"stack_grid: report counts {successes} successes, episodes say {mine}")
        out.failed += 1


def run_loop(workload, base, clock, log_path, seconds=None, units=None, warm=None, first=0, out=None) -> Outcome:
    """Closed loop: run units first, first+1, ... until `seconds` of wall
    time have passed or `units` ran, adding to `out` if given. For
    sweep_tick / disturbed_bind, each unit is followed by a log round trip
    of the `warm` episodes (see log_round_trip), which is left out of
    busy_ns. With a clock.timeline, the host is also sampled before the
    first unit and after every iteration."""
    out = Outcome() if out is None else out
    timeline = clock.timeline
    t0 = now()
    limit = None if seconds is None else int(seconds * 1e9)
    i = first
    if timeline is not None:
        timeline.sample()
    while (units is None or i < first + units) and (limit is None or now() - t0 < limit):
        t = now()
        _run_unit(workload, base, i, clock, out, log_path)
        t1 = now()
        out.busy_ns += t1 - t
        out.unit_log.append((t, t1, len(clock.results), sum(r.ticks for r in clock.results)))
        for result in clock.results:
            out.add(result)
        if warm:
            log_round_trip(workload, base, warm, os.path.dirname(log_path), out)
        if timeline is not None:
            timeline.sample()
        i += 1
    out.units += i - first
    out.wall_ns += now() - t0
    return out


def warmup(workload, base, clock, log_path) -> list:
    """One untimed episode per template, on the seeds the timed loop starts
    with. Returns their EpisodeResults in loop order."""
    clock.results.clear()
    if workload == "stack_grid":
        with camctl.JsonlLogWriter(log_path) as writer:
            camctl.run_spec(_grid_spec(base, 0, episodes=1), writer)
        camctl.replay_log(log_path)
        return list(clock.results)
    n = len(EPISODE_TEMPLATES[workload])
    return [episode.run_episode(_config(workload, base, k)) for k in range(n)]


def block_units(workload) -> int:
    """Units per rate block: one episode of each template, or one run_spec."""
    return len(EPISODE_TEMPLATES[workload]) if workload in EPISODE_TEMPLATES else 1


def warmup_positions(workload) -> list:
    """Loop-order index of each warm-up episode among the timed episodes."""
    if workload == "stack_grid":
        return [0, GRID_EPISODES]  # episode 0 of the off cell and of the full cell
    return list(range(len(EPISODE_TEMPLATES[workload])))


def log_round_trip(workload, base, warm, log_dir, out: Outcome) -> None:
    """sweep_tick / disturbed_bind: write each warm-up episode to a log the
    way `camctl run` does, replay it with replay_log and check the replayed
    report against the episode. Only replay_log is timed. The passes are
    spread over the run, so replay_lines_per_s sees the same host as the
    episodes; they are kept out of the episode metrics."""
    for t, ((template, selector), result) in enumerate(zip(EPISODE_TEMPLATES[workload], warm)):
        spec = camctl.ExperimentSpec(
            task=template, episodes=1, seed_base=base + t, modes=("full",), disturbances=(selector,)
        )
        path = os.path.join(log_dir, f"{workload}-{template}.jsonl")
        with camctl.JsonlLogWriter(path) as writer:
            writer.write({"kind": "meta", "schema": camctl.SCHEMA_VERSION, "spec": spec.as_dict()})
            for e in result.events:
                writer.write({"cell": 0, "episode": 0, **e})
        out.replays += 1
        t0 = now()
        try:
            report = camctl.replay_log(path)
        except Exception:
            _report(traceback.format_exc())
            out.failed += 1
            continue
        out.replay_passes.append((writer.lines, t0, now()))
        cell = report["cells"][0]
        if cell["episodes"] != 1 or cell["successes"] != int(result.success):
            _report(f"{workload}: replay of {path} disagrees with its episode")
            out.failed += 1


def waste_counts(events) -> Counter:
    """One episode's counts for the waste ratios, from its public events
    only. Counted as episodes finish, so a run keeps no events."""
    if events[0]["payload"]["mode"] == "off":
        return Counter()
    failures = sum(e["kind"] == "validation_failure" for e in events)
    rep = latency_report(events)
    return Counter(
        binds=sum(e["kind"] == "subgoal_start" for e in events) + failures,
        validation_failures=failures,
        violations=len(rep.pairs) + rep.false_positives,
        paired=len(rep.pairs),
    )
