"""Deterministic tick-based toy simulator: worlds, policies, disturbances,
rendering, and the closed-loop episode runner."""

from camlab.simlab.disturb import CARRY_REF_TICKS, Disturbance, DisturbanceInjector
from camlab.simlab.episode import MONITOR_MODES, EpisodeConfig, EpisodeResult, extract_elements, run_episode
from camlab.simlab.policy import build_script
from camlab.simlab.scenes import (
    TEMPLATES,
    Scene,
    TaskBookkeeper,
    build_scene,
    default_cameras,
    mask_bundle,
    oracle_success,
    render,
    scene_summary,
)
from camlab.simlab.world import (
    DT,
    TICK_HZ,
    PolicyRuntime,
    Simulation,
    SimObject,
    SimState,
    Waypoint,
)

__all__ = [
    "CARRY_REF_TICKS",
    "DT",
    "MONITOR_MODES",
    "TEMPLATES",
    "TICK_HZ",
    "Disturbance",
    "DisturbanceInjector",
    "EpisodeConfig",
    "EpisodeResult",
    "PolicyRuntime",
    "Scene",
    "SimObject",
    "SimState",
    "Simulation",
    "TaskBookkeeper",
    "Waypoint",
    "build_scene",
    "build_script",
    "default_cameras",
    "extract_elements",
    "mask_bundle",
    "oracle_success",
    "render",
    "run_episode",
    "scene_summary",
]
