"""Ground-truth cache and Pose immutability.

_Bound.truth reuses an element's world points while its object keeps the
same Pose object. These tests pin the two things that makes safe: a Pose
cannot be changed in place, and on every tick of disturbed episodes the
cached points equal a fresh pose.apply(local).
"""

import numpy as np
import pytest

import camlab.simlab.episode as episode
from camlab.geom3d import Pose
from camlab.simlab import EpisodeConfig
from camlab.simlab.disturb import standard_disturbances


def test_pose_arrays_are_private_and_read_only():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    t = np.array([0.1, 0.2, 0.3])
    pose = Pose(q, t)
    t[0] = 9.0  # the caller's array is not shared
    assert pose.t[0] == 0.1
    for arr in (pose.q, pose.t):
        with pytest.raises(ValueError):
            arr[0] = 2.0


@pytest.mark.parametrize(
    "template, disturbances, needed",
    [
        # tilts, a re-level (orient_held) and refresh_attached on held objects
        ("pour_tea", standard_disturbances("pour_tea", "abc"), {"grasp", "tilt_held", "relevel_held"}),
        # random drops tumble a held block and settle it on its support
        ("stack_in_order", standard_disturbances("stack_in_order", p=0.5, q_cm=2.0), {"grasp", "drop", "settled"}),
    ],
)
def test_cached_truth_equals_fresh_pose_apply(monkeypatch, template, disturbances, needed):
    checked = []
    original = episode._Bound.truth

    def checked_truth(bound, sim):
        out = original(bound, sim)
        for eid, oid, local in bound.truth_specs:
            if oid is None:
                want = sim.state.ee_pose.t.reshape(1, 3)
            else:
                want = sim.state.objects[oid].pose.apply(local)
            assert out[eid].tobytes() == want.tobytes(), (sim.state.tick, eid, oid)
        checked.append(sim.state.tick)
        return out

    monkeypatch.setattr(episode._Bound, "truth", checked_truth)
    result = episode.run_episode(EpisodeConfig(template=template, disturbances=disturbances, seed=1))
    seen = {e["kind"] for e in result.events}
    seen |= {e["payload"]["kind"] for e in result.events if e["kind"] == "injection"}
    assert needed <= seen, needed - seen
    assert len(checked) > 100
