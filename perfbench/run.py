"""camlab closed-loop episode benchmark.

    python3 perfbench/run.py --workload {sweep_tick,disturbed_bind,stack_grid}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; camlab is imported from ./src. One client runs
episodes back to back (a closed loop) for S seconds. The last stdout line is
one JSON object {"correct", "attempted", "failed", "metrics"}:

  --trace 0  end-to-end metrics, every layer wrapped only by the step clock;
             times are scaled to nominal host speed (see hostspeed.py)
  --trace 1  per-layer metrics: for S seconds, each loop unit runs untraced
             and then again with spans at every layer boundary; the time
             difference is the tracing overhead. Spans go to
             .perfbench_out/spans-<workload>.txt

Exit status: 0 when every output checked out, 1 on any correctness failure,
2 when the camlab sources are missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOADS = ("sweep_tick", "disturbed_bind", "stack_grid")
SETUP_REPEATS = 5  # fresh processes timed for setup_s; the median is reported
HOST_SAMPLE_PERIOD_NS = 250_000_000  # host samples inside episodes, at step entries
SYNTHETIC_TICKS = 3000  # camctl.bench_monitor ticks in the traced run

# per-layer phases for the workload-purpose shares (a span inherits the phase
# of its nearest named ancestor, so geom3d work under render counts as bind)
PER_TICK = ("simlab.step", "monitor.tracker_step", "monitor.monitor_tick", "monitor.check_completion",
            "conlang.evaluate", "geom3d.pose_apply", "geom3d.fit")
RENDER_EXTRACT = ("simlab.render", "elementizer.extract")
VALIDATE = ("conlang.parse", "conlang.typecheck", "conlang.validate")


def _pct(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_values) - 1, int(-(-q * len(sorted_values) // 1)) - 1))
    return sorted_values[k]


def _import_camlab():
    if not (SRC / "camlab" / "__init__.py").is_file():
        print(f"perfbench: no camlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    # one BLAS thread, set before numpy loads: OpenBLAS otherwise starts a
    # pool per process (setup subprocesses inherit the setting)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    import camlab

    if Path(camlab.__file__).resolve().parent != SRC / "camlab":
        print(f"perfbench: imported camlab from {camlab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def setup(workload: str, seed: int, timeline=None):
    """Everything before the timed loop: imports, hooks, one warm-up episode
    per template. Returns (patches, clock, warm-up results, log path)."""
    import hooks
    import workloads as wl

    OUT_DIR.mkdir(exist_ok=True)
    patches, clock = hooks.Patches(), hooks.StepClock(timeline)
    hooks.install_clock(patches, clock)
    log_path = str(OUT_DIR / f"{workload}.jsonl")
    warm = wl.warmup(workload, wl.base_seed(seed), clock, log_path)
    del clock.ticks[:], clock.switches[:]
    return patches, clock, warm, log_path


def measure_setup(args, timeline) -> list:
    """Seconds at nominal host speed of fresh processes that import and warm
    up, then exit; the host is sampled before and after each."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    samples = []
    timeline.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter_ns()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        t1 = time.perf_counter_ns()
        if proc.returncode != 0:
            raise RuntimeError(f"setup process exited with {proc.returncode}")
        timeline.sample()
        samples.append((t0, t1))
    return [timeline.scaled(t0, t1) / 1e9 for t0, t1 in samples]


def _logged(workload, warm):
    """Episodes that sweep_tick / disturbed_bind log and replay between units;
    stack_grid logs and replays its own run_spec output instead."""
    return None if workload == "stack_grid" else warm


def check_warm(workload, out, warm) -> int:
    """The warm-up ran the loop's first episodes: their events must match."""
    import workloads as wl

    bad = 0
    for pos, result in zip(wl.warmup_positions(workload), warm):
        if pos < len(out.digests) and out.digests[pos] != wl.episode_digest(result.events):
            print(f"perfbench: episode {pos} differs from its warm-up run", file=sys.stderr)
            bad += 1
    return bad


def end_to_end(args) -> tuple:
    import hooks
    import hostspeed
    import workloads as wl

    timeline = hostspeed.Timeline(HOST_SAMPLE_PERIOD_NS)
    patches, clock, warm, log_path = setup(args.workload, args.seed, timeline)
    setup_samples = measure_setup(args, timeline)
    base = wl.base_seed(args.seed)
    out = wl.run_loop(args.workload, base, clock, log_path, seconds=args.seconds, warm=_logged(args.workload, warm))
    out.failed += check_warm(args.workload, out, warm)
    patches.undo()

    scaled = timeline.scaled
    ticks = sorted(scaled(a, b) for a, b in hooks.pairs(clock.ticks))
    switches = sorted(scaled(a, b) for a, b in hooks.pairs(clock.switches))
    eps, tps = out.block_rates(wl.block_units(args.workload), scaled)
    replay_rates = [lines / scaled(a, b) * 1e9 for lines, a, b in out.replay_passes]
    slowdowns = [s for _, _, s in timeline.samples]
    metrics = {
        "episodes_per_s": (statistics.median(eps), "1/s"),
        "ticks_per_s": (statistics.median(tps), "1/s"),
        "tick_ms_p50": (_pct(ticks, 0.50) / 1e6, "ms"),
        "tick_ms_p99": (_pct(ticks, 0.99) / 1e6, "ms"),
        "switch_ms_p50": (_pct(switches, 0.50) / 1e6, "ms"),
        "switch_ms_p90": (_pct(switches, 0.90) / 1e6, "ms"),
        "replay_lines_per_s": (statistics.median(replay_rates), "1/s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_rate": (out.successes / max(out.episodes, 1), "ratio"),
    }
    info = [
        f"workload {args.workload} seed {args.seed}: {out.episodes} episodes, {out.ticks} ticks "
        f"in {out.busy_ns / 1e9:.2f} s ({out.units} loop iterations)",
        f"samples: {len(eps)} rate blocks, {len(ticks)} tick intervals, {len(switches)} switch intervals, "
        f"{len(replay_rates)} replays, setup runs {[round(s, 3) for s in setup_samples]}",
        f"host slowdown: {len(slowdowns)} samples, median {statistics.median(slowdowns):.3f}, range "
        f"{min(slowdowns):.3f}-{max(slowdowns):.3f}; unscaled: tick_ms_p50 "
        f"{_pct(sorted(b - a for a, b in hooks.pairs(clock.ticks)), 0.5) / 1e6:.4f}, "
        f"episodes_per_s {out.episodes / (out.busy_ns / 1e9):.4f}",
        f"events_digest {out.combined_digest()} over {out.episodes} episodes",
        f"failed_frac {out.failed / max(out.attempted, 1)} ({out.failed} of {out.attempted}; "
        f"{out.raised} episodes raised)",
    ]
    return out.attempted, out.failed, metrics, info


def per_layer(args) -> tuple:
    import hooks
    import workloads as wl
    from camlab.camctl import bench_monitor

    patches, clock, warm, log_path = setup(args.workload, args.seed)
    base = wl.base_seed(args.seed)
    logged = _logged(args.workload, warm)
    # each unit runs untraced, then again traced: the pairs see the same host
    # state, so their time difference is the tracing overhead
    plain, out, tracer = wl.Outcome(), wl.Outcome(), hooks.Tracer()
    t0, i = time.perf_counter(), 0
    while time.perf_counter() - t0 < args.seconds:
        wl.run_loop(args.workload, base, clock, log_path, units=1, warm=logged, first=i, out=plain)
        trace_patches = hooks.Patches()
        hooks.install_tracer(trace_patches, tracer)
        wl.run_loop(args.workload, base, clock, log_path, units=1, warm=logged, first=i, out=out)
        trace_patches.undo()
        i += 1
    patches.undo()
    plain.failed += check_warm(args.workload, plain, warm)
    if out.digests != plain.digests:
        print("perfbench: traced episodes differ from the untraced ones", file=sys.stderr)
        out.failed += 1
    tracer.write(OUT_DIR / f"spans-{args.workload}.txt")

    phases = tracer.phase_ns({**{n: "tick" for n in PER_TICK}, **{n: "render_extract" for n in RENDER_EXTRACT},
                            **{n: "validate" for n in VALIDATE}})
    agg = tracer.summary()
    n_ep = max(out.episodes, 1)

    def calls(name):
        return agg.get(name, {}).get("calls", 0)

    def self_per_call(name, unit_ns):
        a = agg.get(name)
        return a["self_ns"] / a["calls"] / unit_ns if a else 0.0

    def per_call(count_name, name):
        return tracer.counts[count_name] / calls(name) if calls(name) else 0.0

    us, ms = 1e3, 1e6
    waste = out.waste
    eval_calls = calls("conlang.evaluate")
    plain_eps = plain.episodes / (plain.busy_ns / 1e9)
    traced_eps = out.episodes / (out.busy_ns / 1e9)
    synthetic = bench_monitor(n_ticks=SYNTHETIC_TICKS)
    m = {
        "simlab.step.calls": (calls("simlab.step") / n_ep, "count"),
        "simlab.step.us": (self_per_call("simlab.step", us), "us"),
        "simlab.render.calls": (calls("simlab.render") / n_ep, "count"),
        "simlab.render.self_ms": (self_per_call("simlab.render", ms), "ms"),
        "simlab.episode.self_ms": (self_per_call("simlab.episode", ms), "ms"),
        "geom3d.raycast.ms": (self_per_call("geom3d.raycast", ms), "ms"),
        "geom3d.dbscan.calls": (calls("geom3d.dbscan") / n_ep, "count"),
        "geom3d.dbscan.ms": (self_per_call("geom3d.dbscan", ms), "ms"),
        "geom3d.dbscan.points": (per_call("geom3d.dbscan.points", "geom3d.dbscan"), "count"),
        "geom3d.pose_apply.calls": (calls("geom3d.pose_apply") / n_ep, "count"),
        "geom3d.pose_apply.us": (self_per_call("geom3d.pose_apply", us), "us"),
        "geom3d.fit.us": (self_per_call("geom3d.fit", us), "us"),
        "elementizer.extract.calls": (calls("elementizer.extract") / n_ep, "count"),
        "elementizer.extract.self_ms": (self_per_call("elementizer.extract", ms), "ms"),
        "elementizer.cloud_points": (per_call("elementizer.cloud_points", "elementizer.extract"), "count"),
        "conlang.parse.us": (self_per_call("conlang.parse", us), "us"),
        "conlang.typecheck.us": (self_per_call("conlang.typecheck", us), "us"),
        "conlang.validate.us": (self_per_call("conlang.validate", us), "us"),
        "conlang.evaluate.calls": (eval_calls / n_ep, "count"),
        "conlang.evaluate.us": (self_per_call("conlang.evaluate", us), "us"),
        "conlang.eval_error_ratio": (tracer.counts["conlang.evaluate.errors"] / max(eval_calls, 1), "ratio"),
        "conlang.validation_retry_ratio": (waste["validation_failures"] / max(waste["binds"], 1), "ratio"),
        "monitor.tracker_step.us": (self_per_call("monitor.tracker_step", us), "us"),
        "monitor.tracker_step.points": (per_call("monitor.tracker_step.points", "monitor.tracker_step"), "count"),
        "monitor.monitor_tick.self_us": (self_per_call("monitor.monitor_tick", us), "us"),
        "monitor.check_completion.self_us": (self_per_call("monitor.check_completion", us), "us"),
        "monitor.violation_match_ratio": (waste["paired"] / max(waste["violations"], 1), "ratio"),
        "monitor.synthetic_tick_ms_p50": (synthetic["median_ms"], "ms"),
        "taskgen.plan_next.us": (self_per_call("taskgen.plan_next", us), "us"),
        "taskgen.rebuild_relaxed.calls": (calls("taskgen.rebuild_relaxed") / n_ep, "count"),
        "camctl.log_write.calls": (calls("camctl.log_write") / n_ep, "count"),
        "camctl.log_write.us": (self_per_call("camctl.log_write", us), "us"),
        "camctl.read_log.ms": (self_per_call("camctl.read_log", ms), "ms"),
        "share.per_tick": (phases["tick"] / out.wall_ns, "ratio"),
        "share.render_extract": (phases["render_extract"] / out.wall_ns, "ratio"),
        "share.validate": (phases["validate"] / out.wall_ns, "ratio"),
        "trace.coverage": (tracer.root_ns() / out.wall_ns, "ratio"),
        "trace.overhead_episodes_per_s": (plain_eps - traced_eps, "1/s"),
        "trace.overhead_frac": (out.busy_ns / plain.busy_ns - 1, "ratio"),
    }
    info = [
        f"workload {args.workload} seed {args.seed}: untraced {plain.episodes} episodes in "
        f"{plain.busy_ns / 1e9:.2f} s ({plain_eps:.3f}/s), traced {out.episodes} in {out.busy_ns / 1e9:.2f} s "
        f"({traced_eps:.3f}/s), {len(tracer.spans)} spans",
        f"waste: {dict(waste)}, evaluate errors {tracer.counts['conlang.evaluate.errors']} of {eval_calls}",
        f"{'span':<28} {'calls/ep':>10} {'self ms/ep':>11} {'incl ms/ep':>11}",
    ]
    for name in sorted(agg, key=lambda n: -agg[n]["self_ns"]):
        a = agg[name]
        info.append(f"{name:<28} {a['calls'] / n_ep:>10.1f} {a['self_ns'] / 1e6 / n_ep:>11.2f} "
                    f"{a['incl_ns'] / 1e6 / n_ep:>11.2f}")
    return plain.attempted + out.attempted, plain.failed + out.failed, m, info


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    _import_camlab()
    if args.setup_only:
        setup(args.workload, args.seed)
        return 0
    attempted, failed, metrics, info = (per_layer if args.trace else end_to_end)(args)
    for line in info:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name:<36} {value:>16.6g} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
