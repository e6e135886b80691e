"""Pinned event-log digests: fixed seeds must keep giving the same bytes.

Each pin is the sha256 of the canonical JSON events (sorted keys, compact
separators) of seed 0 of one template in full mode, with the template's
disturbances "abc" where it has a catalog. A change that alters a random
stream or an event on purpose updates these values and says so in
CHANGES.md; any other change must leave them alone.
"""

import hashlib
import json

import numpy as np
import pytest

from camlab.simlab import EpisodeConfig, run_episode
from camlab.simlab.disturb import standard_disturbances

PINS = {
    ("stack_in_order", "none"): "a5fb346958c681a4cd3e6aa233a1cce1ac91a4f30bff58ebc5dbcac1875778ce",
    ("sweep_half", "none"): "8bb4d0d8b640dff560f8edad8cfcf136fdad94c6a12adecf07af33d7d77d4e3a",
    ("slot_pen", "abc"): "59490da6bb204ae9978892c87d03f673a73c3abe5158f85f4528b874d4c3e0b4",
    ("stow_book", "abc"): "6495bf7efa9ec39b233c3b84067f78a46081d101ace31d490235cb12538d8170",
    ("pour_tea", "abc"): "0d7f841e91ce8944f9a4d1435f252ba028592eaeb91c90de2b0d91e9f1856a3c",
}


def _canon(obj):
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serialisable: {type(obj).__name__}")


@pytest.mark.parametrize("template, selector", sorted(PINS))
def test_event_digest_pinned(template, selector):
    cfg = EpisodeConfig(
        template=template, monitor_mode="full", disturbances=standard_disturbances(template, selector), seed=0
    )
    events = run_episode(cfg).events
    text = json.dumps(events, sort_keys=True, separators=(",", ":"), default=_canon)
    assert hashlib.sha256(text.encode()).hexdigest() == PINS[(template, selector)]
