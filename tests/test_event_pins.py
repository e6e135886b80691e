"""Pinned event-log digests: fixed seeds must keep giving the same bytes.

Each pin is the sha256 of the canonical JSON events (sorted keys, compact
separators) of seed 0 of one template in one monitor mode: every template
in full mode, with the template's disturbances "abc" where it has a
catalog; sweep_half in reactive_only (the halt-on-completion entry without
during programs); pour_tea and stow_book in proactive_only (subgoals
complete at motion end). REPORT_PIN is the sha256 of the report bytes of a
small stack_in_order grid. A change that alters a random stream, an event
or the report on purpose updates these values and says so in CHANGES.md;
any other change must leave them alone.
"""

import hashlib
import json

import numpy as np
import pytest

from camlab.camctl import ExperimentSpec, report_bytes, run_spec
from camlab.simlab import EpisodeConfig, run_episode
from camlab.simlab.disturb import standard_disturbances

PINS = {
    ("stack_in_order", "none", "full"): "a5fb346958c681a4cd3e6aa233a1cce1ac91a4f30bff58ebc5dbcac1875778ce",
    ("sweep_half", "none", "full"): "8bb4d0d8b640dff560f8edad8cfcf136fdad94c6a12adecf07af33d7d77d4e3a",
    ("slot_pen", "abc", "full"): "59490da6bb204ae9978892c87d03f673a73c3abe5158f85f4528b874d4c3e0b4",
    ("stow_book", "abc", "full"): "6495bf7efa9ec39b233c3b84067f78a46081d101ace31d490235cb12538d8170",
    ("pour_tea", "abc", "full"): "0d7f841e91ce8944f9a4d1435f252ba028592eaeb91c90de2b0d91e9f1856a3c",
    ("sweep_half", "none", "reactive_only"): "1663b651f0e2ca55bd0043b6eb1e958ac0e4c95ffaa98c15ae8b2ee30e8f95fb",
    ("pour_tea", "abc", "proactive_only"): "42b8e3f6451929e252a72dfeae8bba879da968869899b929b9c274b39259956a",
    ("stow_book", "abc", "proactive_only"): "a4c570aca348b32dad021a300e42b3c7bee5be8fc2db38ac01cdf934eb42953c",
}

REPORT_PIN = "370e5b2a92d550c27041e7593a99d902ce0df79d60e1766816c3b453b9e06140"


def _canon(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serialisable: {type(obj).__name__}")


def _pin_id(key):
    template, selector, mode = key
    return f"{template}-{selector}" if mode == "full" else f"{template}-{selector}-{mode}"


@pytest.mark.parametrize("template, selector, mode", sorted(PINS), ids=[_pin_id(k) for k in sorted(PINS)])
def test_event_digest_pinned(template, selector, mode):
    cfg = EpisodeConfig(
        template=template, monitor_mode=mode, disturbances=standard_disturbances(template, selector), seed=0
    )
    events = run_episode(cfg).events
    text = json.dumps(events, sort_keys=True, separators=(",", ":"), default=_canon)
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[(template, selector, mode)]


def test_report_bytes_pinned():
    spec = ExperimentSpec(task="stack_in_order", episodes=2, modes=("off", "full"), drop_p=(0.3,))
    assert hashlib.sha256(report_bytes(run_spec(spec))).hexdigest() == REPORT_PIN
