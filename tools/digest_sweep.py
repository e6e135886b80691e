"""Print one events digest per episode of a fixed sweep, then one report
digest per fixed experiment grid, to prove that a change keeps every event
log and every report byte-identical.

    python3 tools/digest_sweep.py > after.txt

Run it in two checkouts (it imports camlab from the checkout's own src/) and
`diff` the outputs. tools/digest_sweep.txt holds the expected output, and CI
diffs a fresh run against it:

    python3 tools/digest_sweep.py | diff tools/digest_sweep.txt -

A change that alters a random stream or a log on purpose regenerates that
file and says so. The file was written with numpy 2.4 on x86-64; another
numpy or BLAS build may round a kernel differently and move a digest.

Each episode line is `template mode disturbances seed events_digest`, the
digest being the sha256 of the episode's events as canonical JSON (sorted
keys, compact separators). The sweep is seeds 0-9 x the four monitor modes
x every template with no disturbances, the three catalog tasks also with
disturbances "abc", and stack_in_order also with drop probability 0.3 and
2 cm placement noise: 360 episodes.

Then come five lines `report name report_digest`, the sha256 of
`report_bytes(run_spec(spec))` for each grid in GRIDS: all five tasks, 2-3
episodes per cell, mixing monitor modes, drop probability, placement noise
and disturbances (53 more episodes).
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from camlab.camctl import ExperimentSpec, report_bytes, run_spec  # noqa: E402
from camlab.simlab import MONITOR_MODES, EpisodeConfig, run_episode  # noqa: E402
from camlab.simlab.disturb import standard_disturbances  # noqa: E402

SEEDS = range(10)
# (template, label, standard_disturbances keyword arguments)
CONFIGS = (
    ("stack_in_order", "none", {}),
    ("stack_in_order", "drop0.3+noise2cm", {"p": 0.3, "q_cm": 2.0}),
    ("sweep_half", "none", {}),
    ("slot_pen", "none", {}),
    ("slot_pen", "abc", {"selector": "abc"}),
    ("stow_book", "none", {}),
    ("stow_book", "abc", {"selector": "abc"}),
    ("pour_tea", "none", {}),
    ("pour_tea", "abc", {"selector": "abc"}),
)

# (name, ExperimentSpec keyword arguments)
GRIDS = (
    ("stack", dict(task="stack_in_order", episodes=3, drop_p=(0.0, 0.3), place_noise_cm=(0.0, 2.0))),
    ("sweep", dict(task="sweep_half", episodes=2, seed_base=3, modes=("off", "reactive_only", "full"))),
    ("slot", dict(task="slot_pen", episodes=2, modes=("proactive_only", "full"), disturbances=("none", "abc"))),
    ("stow", dict(task="stow_book", episodes=3, seed_base=5, modes=("reactive_only",), disturbances=("abc",))),
    ("pour", dict(task="pour_tea", episodes=2, modes=("off", "proactive_only", "full"), disturbances=("a", "abc"))),
)


def _canon(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serialisable: {type(obj).__name__}")


def events_digest(events) -> str:
    text = json.dumps(events, sort_keys=True, separators=(",", ":"), default=_canon)
    return hashlib.sha256(text.encode()).hexdigest()


def main():
    for template, label, kwargs in CONFIGS:
        disturbances = standard_disturbances(template, **kwargs)
        for mode in MONITOR_MODES:
            for seed in SEEDS:
                cfg = EpisodeConfig(template=template, monitor_mode=mode, disturbances=disturbances, seed=seed)
                digest = events_digest(run_episode(cfg).events)
                print(template, mode, label, seed, digest, flush=True)
    for name, kwargs in GRIDS:
        report = run_spec(ExperimentSpec(**kwargs))
        print("report", name, hashlib.sha256(report_bytes(report)).hexdigest(), flush=True)


if __name__ == "__main__":
    main()
