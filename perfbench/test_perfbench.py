"""The benchmark's own checks: same seed gives the same events, tracing
changes no event, host-speed scaling leaves sample time out, and span self
time excludes child spans.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import hooks  # noqa: E402
import hostspeed  # noqa: E402
import workloads as wl  # noqa: E402


def _run(workload, seed, units, log_path, traced=False, warm=None):
    patches, clock = hooks.Patches(), hooks.StepClock()
    hooks.install_clock(patches, clock)
    tracer = hooks.Tracer()
    if traced:
        hooks.install_tracer(patches, tracer)
    try:
        out = wl.run_loop(workload, wl.base_seed(seed), clock, str(log_path), units=units, warm=warm)
    finally:
        patches.undo()
    assert out.failed == 0
    return out, tracer


@pytest.mark.parametrize("workload,units", [("sweep_tick", 1), ("disturbed_bind", 3), ("stack_grid", 1)])
def test_same_seed_same_events_digest(workload, units, tmp_path):
    first, _ = _run(workload, 7, units, tmp_path / "a.jsonl")
    second, _ = _run(workload, 7, units, tmp_path / "b.jsonl")
    assert first.episodes == second.episodes > 0
    assert first.combined_digest() == second.combined_digest()


def test_other_seed_other_events_digest(tmp_path):
    a, _ = _run("disturbed_bind", 7, 1, tmp_path / "a.jsonl")
    b, _ = _run("disturbed_bind", 8, 1, tmp_path / "b.jsonl")
    assert a.combined_digest() != b.combined_digest()


def test_tracing_leaves_events_unchanged(tmp_path):
    plain, _ = _run("disturbed_bind", 5, 1, tmp_path / "a.jsonl")
    traced, tracer = _run("disturbed_bind", 5, 1, tmp_path / "b.jsonl", traced=True)
    assert traced.digests == plain.digests
    names = {s[0] for s in tracer.spans}
    assert {"simlab.episode", "simlab.step", "simlab.render", "elementizer.extract", "geom3d.dbscan",
            "conlang.evaluate", "monitor.tracker_step", "taskgen.plan_next"} <= names


def test_log_round_trip_after_every_unit(tmp_path):
    warm = wl.warmup("disturbed_bind", wl.base_seed(5), hooks.StepClock(), str(tmp_path / "a.jsonl"))
    out, _ = _run("disturbed_bind", 5, 2, tmp_path / "b.jsonl", warm=warm)
    assert out.replays == 2 * 3 and out.failed == 0
    lines = [n for n, _, _ in out.replay_passes]
    assert lines == 2 * [len(r.events) + 2 for r in warm]  # + meta and eof
    assert out.wall_ns > out.busy_ns > 0
    eps, _ = out.block_rates(wl.block_units("disturbed_bind"))
    assert len(eps) == 1 and eps[0] > 0  # two units, one short block


def test_timeline_scales_stretches_and_skips_samples():
    tl = hostspeed.Timeline()
    assert tl.scaled(0, 50) == 50  # no samples: unscaled
    tl.samples = [(0, 10, 1.0), (110, 120, 4.0)]
    assert tl.scaled(20, 100) == 80 / 2  # geometric mean of the two samples
    assert tl.scaled(0, 120) == 100 / 2  # the samples' own time is left out
    assert tl.scaled(-10, 5) == 10  # before the first sample: its slowdown
    assert tl.scaled(130, 150) == 20 / 4  # after the last: its slowdown
    assert tl.scaled(100, 130) == 10 / 2 + 10 / 4


def test_self_time_excludes_children():
    tr = hooks.Tracer()
    tr.spans = [
        ["outer", 0, 100, -1, 0],
        ["inner", 10, 40, 0, 0],
        ["leaf", 15, 25, 1, 0],
        ["inner", 50, 70, 0, 0],
    ]
    agg = tr.summary()
    assert agg["outer"] == {"calls": 1, "incl_ns": 100, "self_ns": 50}
    assert agg["inner"] == {"calls": 2, "incl_ns": 50, "self_ns": 40}
    assert agg["leaf"]["self_ns"] == 10
    assert tr.root_ns() == 100
    assert tr.phase_ns({"inner": "p"}) == {"p": 50}
