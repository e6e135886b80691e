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
    ("slot_pen", "abc", "full"): "abf5a824046ed758518728894e7151bcc5e4802940c649cd173ba11516ad3b01",
    ("stow_book", "abc", "full"): "dcf171f33f12496931b22bd4b6651b1663857788d5cf30eea3c344d0dab4bf68",
    ("pour_tea", "abc", "full"): "0d7f841e91ce8944f9a4d1435f252ba028592eaeb91c90de2b0d91e9f1856a3c",
    ("sweep_half", "none", "reactive_only"): "1663b651f0e2ca55bd0043b6eb1e958ac0e4c95ffaa98c15ae8b2ee30e8f95fb",
    ("pour_tea", "abc", "proactive_only"): "0aa443e73ba6dc3a61fe64616156d7f9b833d54fe2f2a0e20a7a18768c2cd7f8",
    ("stow_book", "abc", "proactive_only"): "d68894e258b2928e14e6e7cbacf83dc29fbac663ab553d17aa480a7ce295b062",
}

REPORT_PIN = "7f851c499cec6c2034ad62c64b70a29a706dba3de06fe0fa2ad03c3ce2d8847e"


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
