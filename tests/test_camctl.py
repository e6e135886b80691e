import contextlib
import hashlib
import io
import json
import math
import operator
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from camlab.camctl import (
    _FIELDS,
    ExperimentSpec,
    JsonlLogWriter,
    _canonical,
    _ci95,
    bench_monitor,
    main,
    read_log,
    replay_log,
    report_bytes,
    run_spec,
    validate_dsl,
)
from camlab.conlang import MAX_NESTING, DslSyntaxError, ValidationFailure
from camlab.errors import CamlabError, LogChecksumError, TruncatedLog
from camlab.monitor import DebouncePolicy, PointRing, TrackerConfig
from camlab.simlab import MONITOR_MODES, TEMPLATES, build_scene, extract_elements, scene_summary
from camlab.simlab.episode import load_program
from camlab.taskgen import Planner
from oracles import read_log_reference

SPEC_TEXT = """
task = stack_in_order
episodes = 2
seed_base = 3
modes = off, full
drop_p = 0.3
budget_ticks = 1400
"""


# ---------------------------------------------------------------------------
# spec parsing


def test_spec_parse_grid():
    spec = ExperimentSpec.loads(SPEC_TEXT)
    assert spec.task == "stack_in_order"
    assert spec.episodes == 2
    assert spec.modes == ("off", "full")
    assert [c["mode"] for c in spec.cells()] == ["off", "full"]


def test_spec_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ExperimentSpec.loads(SPEC_TEXT + "bogus = 1\n")


def test_spec_rejects_unknown_task():
    with pytest.raises(ValueError):
        ExperimentSpec.loads("task = juggle\n")


def test_cam_seed_env_override(monkeypatch):
    monkeypatch.setenv("CAM_SEED", "777")
    spec = ExperimentSpec.loads(SPEC_TEXT)
    assert spec.seed_base == 777
    d = spec.as_dict()
    d["seed_base"] = 3
    assert ExperimentSpec.from_dict(d).seed_base == 3  # from_dict reads the dict as it is


@pytest.mark.parametrize(
    "line, attr, want",
    [
        ("episodes = 3", "episodes", 3),
        ("seed_base = 9", "seed_base", 9),
        ("modes = off, reactive_only", "modes", ("off", "reactive_only")),
        ("drop_p = 0.1, 0.25", "drop_p", (0.1, 0.25)),
        ("place_noise_cm = 2", "place_noise_cm", (2.0,)),
        ("disturbances = none, abc", "disturbances", ("none", "abc")),
        ("budget_ticks = 300", "budget_ticks", 300),
        ("tracker.sigma = 0.004", "tracker.sigma", 0.004),
        ("tracker.dropout = 0.05", "tracker.dropout", 0.05),
        ("tracker.resync = 7", "tracker.resync_interval", 7),
        ("debounce.k = 4", "debounce.k", 4),
        ("debounce.h = 6", "debounce.h", 6),
        ("max_retries = 2", "max_retries", 2),
    ],
)
def test_spec_accepts_every_key(line, attr, want):
    spec = ExperimentSpec.loads(f"task = pour_tea\n{line}\n")
    assert operator.attrgetter(attr)(spec) == want
    assert ExperimentSpec.from_dict(spec.as_dict()) == spec


@pytest.mark.parametrize(
    "text", ["episodes = 0\n", "task = stack_in_order\nepisodes = 0\n", "task = stack_in_order\nepisodes = two\n"]
)
def test_spec_rejects_bad_values(text):
    with pytest.raises(ValueError):
        ExperimentSpec.loads(text)


_floats = st.floats(0.0, 1.0, allow_nan=False)
# only the catalog tasks take disturbance letters (simlab.disturb)
_selectors = {task: ["none", "a", "bc", "abc"] if task in ("slot_pen", "stow_book", "pour_tea") else ["none"]
              for task in TEMPLATES}
_specs = st.sampled_from(TEMPLATES).flatmap(lambda task: st.builds(
    ExperimentSpec,
    task=st.just(task),
    episodes=st.integers(1, 500),
    seed_base=st.integers(0, 2**31),
    # a grid axis lists each value once (a repeat is a bad spec)
    modes=st.lists(st.sampled_from(MONITOR_MODES), min_size=1, max_size=4, unique=True).map(tuple),
    drop_p=st.lists(_floats, min_size=1, max_size=3, unique=True).map(tuple),
    place_noise_cm=st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=3, unique=True).map(tuple),
    disturbances=st.lists(st.sampled_from(_selectors[task]), min_size=1, max_size=3, unique=True).map(tuple),
    budget_ticks=st.integers(1, 5000),
    tracker=st.builds(
        TrackerConfig, sigma=_floats, dropout=st.floats(0.0, 0.99), resync_interval=st.integers(1, 100)
    ),
    debounce=st.builds(DebouncePolicy, k=st.integers(1, 10), h=st.integers(1, 10)),
    max_retries=st.integers(0, 10),
))


@settings(max_examples=200, deadline=None)
@given(_specs)
def test_spec_dict_round_trip(spec):
    assert ExperimentSpec.from_dict(spec.as_dict()) == spec
    assert ExperimentSpec.from_dict(json.loads(json.dumps(spec.as_dict()))) == spec


# spec text values: non-finite and overflowing numbers, zeros of both signs,
# one value written two ways, modes, selectors and the empty entry
_TOKENS = ["nan", "inf", "-inf", "1e309", "0", "-0.0", "0.3", "0.30", "1", "2", "full", "off", "a", "ab", "none", ""]
_SPEC_KEYS = sorted(set(_FIELDS) - {"task"})


@st.composite
def spec_texts(draw):
    """A task line and 1-4 other fields, each a list of 0-4 tokens (repeats
    allowed), so grid axes get empty lists, repeats and bad numbers."""
    lines = [f"task = {draw(st.sampled_from(TEMPLATES))}"]
    for key in draw(st.lists(st.sampled_from(_SPEC_KEYS), min_size=1, max_size=4, unique=True)):
        lines.append(f"{key} = {', '.join(draw(st.lists(st.sampled_from(_TOKENS), max_size=4)))}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(spec_texts())
def test_spec_fuzz_loads_only_raises_value_error_and_cells_have_distinct_keys(text):
    try:
        spec = ExperimentSpec.loads(text)
    except ValueError:
        return
    cells = spec.cells()
    assert len({tuple(sorted(c.items())) for c in cells}) == len(cells)
    assert ExperimentSpec.from_dict(spec.as_dict()) == spec
    assert ExperimentSpec.from_dict(json.loads(json.dumps(spec.as_dict()))) == spec


# ---------------------------------------------------------------------------
# run + replay


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("camctl")
    spec = ExperimentSpec.loads(
        "task = stack_in_order\nepisodes = 2\nseed_base = 3\nmodes = off, full\ndrop_p = 0.0\n"
    )
    log_path = out / "run.jsonl"
    with JsonlLogWriter(log_path) as w:
        report = run_spec(spec, w)
    (out / "report.json").write_bytes(report_bytes(report))
    return out, report


def test_nominal_stack_success_rate_one(run_dir):
    _, report = run_dir
    for cell in report["cells"]:
        assert cell["success_rate"] == 1.0


def test_replay_reproduces_report_bytes(run_dir):
    out, report = run_dir
    replayed = replay_log(out / "run.jsonl")
    assert report_bytes(replayed) == (out / "report.json").read_bytes()


def test_log_checksums_verify(run_dir):
    out, _ = run_dir
    records = read_log(out / "run.jsonl")
    assert records[0]["kind"] == "meta"


def test_truncated_log_detected(run_dir, tmp_path):
    out, _ = run_dir
    lines = (out / "run.jsonl").read_text().splitlines()
    trunc = tmp_path / "trunc.jsonl"
    trunc.write_text("\n".join(lines[:-1]) + "\n")  # drop the eof marker
    with pytest.raises(TruncatedLog):
        read_log(trunc)


def test_cut_off_line_is_truncated_log(run_dir, tmp_path, capsys):
    out, _ = run_dir
    text = (out / "run.jsonl").read_text()
    cut = tmp_path / "cut.jsonl"
    cut.write_text(text[: len(text) - len(text.splitlines()[-1]) // 2 - 1])  # half of the eof line
    with pytest.raises(TruncatedLog):
        read_log(cut)
    assert main(["replay", str(cut)]) == 2
    assert "undecodable line" in capsys.readouterr().err


def test_too_deeply_nested_line_is_truncated_log(tmp_path, capsys):
    deep = tmp_path / "deep.jsonl"
    deep.write_text("[" * 200000 + "\n")
    with pytest.raises(TruncatedLog):
        read_log(deep)
    assert main(["replay", str(deep)]) == 2
    assert "undecodable line" in capsys.readouterr().err


def test_garbled_bytes_fail_checksum(run_dir, tmp_path):
    out, _ = run_dir
    raw = (out / "run.jsonl").read_bytes()
    bad = tmp_path / "garbled.jsonl"
    bad.write_bytes(raw.replace(b'"kind"', b'"k\xff\xfend"', 1))
    with pytest.raises(LogChecksumError):
        read_log(bad)
    assert main(["replay", str(bad)]) == 2


def test_crashed_run_leaves_incomplete_log(tmp_path, monkeypatch):
    import camlab.camctl as camctl

    real = camctl.run_episode
    calls = []

    def crash_on_second(cfg):
        calls.append(cfg.seed)
        if len(calls) == 2:
            raise RuntimeError("simulated crash")
        return real(cfg)

    monkeypatch.setattr(camctl, "run_episode", crash_on_second)
    spec = ExperimentSpec.loads("task = stack_in_order\nepisodes = 2\nseed_base = 3\nmodes = off\n")
    log_path = tmp_path / "run.jsonl"
    with pytest.raises(RuntimeError):
        with JsonlLogWriter(log_path) as w:
            run_spec(spec, w)
    assert log_path.read_text().count("\n") > 1  # the first episode was written
    with pytest.raises(TruncatedLog):
        read_log(log_path)
    assert main(["replay", str(log_path)]) == 2


def _drop_tracker(records):
    del records[0]["spec"]["tracker"]


def _one_cell_spec(records):
    records[0]["spec"]["modes"] = ["off"]  # the log still holds cell 1


def _drop_episode(records):
    records[:] = [r for r in records if (r.get("cell"), r.get("episode")) != (0, 1)]


def _drop_episode_end(records):
    records[:] = [r for r in records if (r.get("cell"), r.get("episode"), r["kind"]) != (0, 0, "episode_end")]


def _huge_episode_count(records):
    records[0]["spec"]["episodes"] = 10**30  # replay must not walk range(episodes)


@pytest.mark.parametrize(
    "damage, message",
    [
        (_drop_tracker, "bad meta spec"),
        (_one_cell_spec, "outside the spec"),
        (_drop_episode, "cell 0 has 1 episodes, the spec has 2"),
        (_drop_episode_end, "cell 0 episode 0 has no episode_end"),
        (_huge_episode_count, f"cell 0 has 2 episodes, the spec has {10**30}"),
    ],
)
def test_replay_rejects_log_that_disagrees_with_its_spec(run_dir, tmp_path, capsys, damage, message):
    out, _ = run_dir
    _assert_replay_rejects(read_log(out / "run.jsonl"), damage, message, tmp_path, capsys)


@pytest.mark.parametrize("schema", [True, 1.0, "1", None])
def test_replay_rejects_a_schema_that_is_not_the_int_1(run_dir, tmp_path, capsys, schema):
    # True == 1 and 1.0 == 1, so a check by value alone lets both through
    out, _ = run_dir

    def damage(records):
        records[0]["schema"] = schema

    _assert_replay_rejects(read_log(out / "run.jsonl"), damage, f"log schema {schema!r} != 1", tmp_path, capsys)


def _assert_replay_rejects(records, damage, message, tmp_path, capsys):
    damage(records)
    bad = tmp_path / "bad.jsonl"
    with JsonlLogWriter(bad) as w:  # correctly checksummed
        for rec in records:
            w.write(rec)
    with pytest.raises(CamlabError, match=message):
        replay_log(bad)
    assert main(["replay", str(bad)]) == 2
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def one_episode_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("camctl") / "run.jsonl"
    with JsonlLogWriter(path) as w:  # monitored, one disturbance: the log holds verdicts and an injection
        run_spec(ExperimentSpec(task="pour_tea", episodes=1, modes=("full",), disturbances=("a",)), w)
    return path


def _end_payload(records):
    return next(r for r in records if r.get("kind") == "episode_end")["payload"]


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda records: records[1].pop("kind"), "cell 0 episode 0 has no kind"),
        (lambda records: next(r for r in records if r.get("kind") == "injection").pop("tick"), "has no tick"),
        (lambda records: _end_payload(records).pop("ticks"), "episode_end of cell 0 episode 0 lacks success or ticks"),
        (lambda records: _end_payload(records).pop("success"), "episode_end of cell 0 episode 0 lacks success or ticks"),
        # counted under "?" before the record table
        (lambda records: _first(records, "verdict")["payload"].pop("outcome"), "verdict of cell 0 episode 0 lacks outcome"),
    ],
    ids=["kind", "tick", "ticks", "success", "outcome"],
)
def test_replay_rejects_record_missing_a_field(one_episode_log, tmp_path, capsys, damage, message):
    _assert_replay_rejects(read_log(one_episode_log), damage, message, tmp_path, capsys)


def _first(records, kind):
    return next(r for r in records if r.get("kind") == kind)


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda records: records[1].update(kind=7), "cell 0 episode 0 has a non-str kind"),
        (lambda records: _first(records, "injection").update(tick="x"), "has a non-int tick"),
        (lambda records: _first(records, "verdict").update(payload=["violation"]), "has a non-dict payload"),
        (lambda records: _end_payload(records).update(ticks="many"), "lacks success or ticks, it has a non-int ticks"),
        (lambda records: _end_payload(records).update(success="yes"), "it has a non-bool success"),
        (lambda records: _first(records, "verdict")["payload"].update(outcome=["violation"]), "has a non-str outcome"),
        (lambda records: _first(records, "verdict")["payload"].update(outcome={"v": 1}), "has a non-str outcome"),
        # unhashable: checked before the records are grouped by cell and episode
        (lambda records: records[1].update(cell=[0]), "has a non-int cell"),
        (lambda records: records[1].update(episode={"a": 1}), "has a non-int episode"),
    ],
    ids=["kind", "tick", "payload", "ticks", "success", "outcome-list", "outcome-dict", "cell-list", "episode-dict"],
)
def test_replay_rejects_ill_typed_field(one_episode_log, tmp_path, capsys, damage, message):
    _assert_replay_rejects(read_log(one_episode_log), damage, message, tmp_path, capsys)


_DELETE = object()
_REPLACEMENTS = [_DELETE, None, True, False, 0, -1, 1.5, math.nan, "x", [], [0], {}, {"a": 1}, 10**30]


def _field_paths(d: dict, prefix=()) -> list:
    """The key path of every field of d, into nested dicts too."""
    out = []
    for k, v in d.items():
        out.append(prefix + (k,))
        if isinstance(v, dict):
            out.extend(_field_paths(v, prefix + (k,)))
    return out


_READ_PAYLOAD = {"episode_end": ("success", "ticks"), "verdict": ("outcome",)}


def _read_fields(rec: dict) -> set:
    """The paths of a record after the meta header that the report reads:
    the envelope and, for its kind, the payload fields of _READ_PAYLOAD."""
    read = {("cell",), ("episode",), ("kind",), ("tick",), ("payload",)}
    return read | {("payload", k) for k in _READ_PAYLOAD.get(rec.get("kind"), ())}


@pytest.fixture(scope="module")
def two_episode_log(tmp_path_factory):
    out = tmp_path_factory.mktemp("camctl")
    with JsonlLogWriter(out / "run.jsonl") as w:
        report = run_spec(ExperimentSpec(task="pour_tea", episodes=2, modes=("full",), disturbances=("a",)), w)
    (out / "report.json").write_bytes(report_bytes(report))
    return out


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_replay_of_any_single_field_mutant_never_raises(two_episode_log, data):
    # exit 0 or 2; or 3, a replay whose report differs from the original
    # because the mutant changed a value the report reads
    records = read_log(two_episode_log / "run.jsonl")
    i = data.draw(st.integers(0, len(records) - 1), label="record")
    path = data.draw(st.sampled_from(_field_paths(records[i])), label="field")
    value = data.draw(st.sampled_from(_REPLACEMENTS), label="value")
    unread = i > 0 and path not in _read_fields(records[i])
    node = records[i]
    for k in path[:-1]:
        node = node[k]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    mutant = two_episode_log / "mutant.jsonl"
    with JsonlLogWriter(mutant) as w:
        for rec in records:
            w.write(rec)
    rc = main(["replay", str(mutant), "--report", str(two_episode_log / "report.json")])
    assert rc in (0, 2, 3)
    if unread:
        assert rc == 0  # replay reads no field outside the table


def test_tampered_log_detected(run_dir, tmp_path):
    out, _ = run_dir
    lines = (out / "run.jsonl").read_text().splitlines()
    rec = json.loads(lines[3])
    rec["tick"] = 99999
    lines[3] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(LogChecksumError):
        read_log(bad)


def test_inserted_event_detected(run_dir, tmp_path):
    out, _ = run_dir
    lines = (out / "run.jsonl").read_text().splitlines()
    lines.insert(4, lines[3])  # duplicate a line
    bad = tmp_path / "inserted.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises((LogChecksumError, TruncatedLog)):
        read_log(bad)


def test_reserialised_line_fails_checksum(run_dir, tmp_path, capsys):
    # equal records, written with spaces: the old re-serialising check let it
    # through, because its checksum is the one taken over the canonical text
    out, _ = run_dir
    lines = (out / "run.jsonl").read_text().splitlines()
    prev = json.loads(lines[2])["checksum"]
    rec = json.loads(lines[3])
    rec.pop("checksum")
    rec["checksum"] = hashlib.sha256((prev + _canonical(rec)).encode()).hexdigest()[:16]
    lines[3] = json.dumps(rec)
    bad = tmp_path / "spaced.jsonl"
    bad.write_text("\n".join(lines) + "\n")
    assert len(read_log_reference(bad)) == len(lines) - 1
    with pytest.raises(LogChecksumError, match=":4: checksum mismatch"):
        read_log(bad)
    assert main(["replay", str(bad)]) == 2
    assert "checksum mismatch" in capsys.readouterr().err


def test_writer_refuses_a_record_with_its_own_checksum_key(tmp_path):
    path = tmp_path / "run.jsonl"
    with JsonlLogWriter(path) as w:
        w.write({"kind": "meta"})
        with pytest.raises(ValueError, match="'checksum'"):
            w.write({"kind": "meta", "checksum": "x"})
    assert path.read_text().count("\n") == 2  # the first record and the eof marker
    assert read_log(path) == [{"kind": "meta"}]


# ---------------------------------------------------------------------------
# the log contract, against the re-serialising reader (oracles.read_log_reference)

_TRICKY_TEXT = ['"', "\\", '\\"', "é", "雪", "\U0001f600", '"checksum":"0123456789abcdef"', "0123456789abcdef"]
_json_scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**63, -(2**63) - 1, 10**30])
    | st.floats()
    | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 1e308, 5e-324])
    | st.text(max_size=6)
    | st.sampled_from(_TRICKY_TEXT)
)
# nested keys include checksum itself and a key that ends in an escaped "checksum
_nested_keys = st.sampled_from(["checksum", 'x"checksum', "a", "zz"]) | st.text(max_size=4)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_nested_keys, inner, max_size=3),
    max_leaves=12,
)
# top-level keys that sort before and after checksum
_log_records = st.dictionaries(
    st.sampled_from(["aaa", "cell", "chair", "checksumz", "zzz", "kind"]), _json_values, max_size=6
)


def _damage(data, raw: bytes) -> tuple:
    """(kind, damaged bytes): a flipped or deleted byte, two lines swapped,
    the eof line dropped, or a line re-encoded as equal JSON."""
    lines = raw.splitlines(keepends=True)
    kinds = ["flip", "delete", "drop_eof", "reencode"] + (["swap"] if len(lines) > 1 else [])
    kind = data.draw(st.sampled_from(kinds), label="damage")
    if kind == "flip":
        i = data.draw(st.integers(0, len(raw) - 1), label="byte")
        return kind, raw[:i] + bytes([raw[i] ^ data.draw(st.integers(1, 255), label="xor")]) + raw[i + 1:]
    if kind == "delete":
        i = data.draw(st.integers(0, len(raw) - 1), label="byte")
        return kind, raw[:i] + raw[i + 1:]
    if kind == "swap":
        i, j = data.draw(st.lists(st.integers(0, len(lines) - 1), min_size=2, max_size=2, unique=True), label="lines")
        lines[i], lines[j] = lines[j], lines[i]
    elif kind == "drop_eof":
        lines.pop()
    else:  # equal JSON, written with json.dumps defaults; the checksum is kept
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        lines[i] = json.dumps(json.loads(lines[i])).encode() + b"\n"
    return kind, b"".join(lines)


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("contract")


@settings(max_examples=400, deadline=None)
@given(records=st.lists(_log_records, max_size=4), data=st.data())
def test_read_log_agrees_with_the_reserialising_reference(contract_dir, records, data):
    path = contract_dir / "run.jsonl"
    with JsonlLogWriter(path) as w:
        for rec in records:
            w.write(rec)
    got = read_log(path)
    assert _canonical(got) == _canonical(read_log_reference(path)) == _canonical(records)
    kind, damaged = _damage(data, path.read_bytes())
    bad = contract_dir / "damaged.jsonl"
    bad.write_bytes(damaged)
    try:
        want = read_log_reference(bad)
    except (LogChecksumError, TruncatedLog) as err:
        with pytest.raises(type(err)):
            read_log(bad)
        return
    if kind == "reencode":  # the checksum covers the bytes, not the value
        with pytest.raises(LogChecksumError):
            read_log(bad)
        return
    try:
        got = read_log(bad)
    except LogChecksumError:
        return  # stricter: the damage wrote a value another way, as 1e308 for 1e+308
    assert _canonical(got) == _canonical(want)


def test_log_completeness(run_dir):
    # every verdict / injection / subgoal transition / extraction appears
    # exactly once in the log
    out, _ = run_dir
    records = read_log(out / "run.jsonl")
    body = [r for r in records if r.get("kind") not in ("meta",)]
    per_episode = {}
    for r in body:
        per_episode.setdefault((r["cell"], r["episode"]), []).append(r["kind"])
    for key, kinds in per_episode.items():
        assert kinds.count("episode_start") == 1, key
        assert kinds.count("episode_end") == 1, key
        n_subgoals = kinds.count("subgoal_start")
        assert n_subgoals >= 1
        mode = "full" if key[0] == 1 else "off"
        if mode == "full":
            assert kinds.count("element_extract") == n_subgoals


def test_grid_independence_cell_order():
    a = ExperimentSpec.loads("task = stack_in_order\nepisodes = 2\nseed_base = 9\nmodes = off, full\n")
    b = ExperimentSpec.loads("task = stack_in_order\nepisodes = 2\nseed_base = 9\nmodes = full, off\n")
    ra = run_spec(a)
    rb = run_spec(b)
    by_mode_a = {c["key"]["mode"]: c for c in ra["cells"]}
    by_mode_b = {c["key"]["mode"]: c for c in rb["cells"]}
    for mode in ("off", "full"):
        ca = {k: v for k, v in by_mode_a[mode].items() if k != "cell"}
        cb = {k: v for k, v in by_mode_b[mode].items() if k != "cell"}
        assert ca == cb


def test_rerun_identical_report():
    spec = ExperimentSpec.loads("task = slot_pen\nepisodes = 2\nseed_base = 4\nmodes = full\ndisturbances = a\n")
    r1 = run_spec(spec)
    r2 = run_spec(spec)
    assert report_bytes(r1) == report_bytes(r2)


@pytest.mark.parametrize("k, n", [(3, 3), (0, 3), (5, 8)])
def test_ci95_is_the_wilson_interval(k, n):
    # closed form of the Wilson (1927) score interval: (2k + z^2 -/+ z sqrt(z^2 + 4k(n-k)/n)) / (2(n + z^2))
    z = 1.96
    root = z * math.sqrt(z * z + 4 * k * (n - k) / n)
    want = [(2 * k + z * z - root) / (2 * (n + z * z)), (2 * k + z * z + root) / (2 * (n + z * z))]
    lo, hi = _ci95(k, n)
    assert [lo, hi] == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert 0.0 <= lo < hi <= 1.0  # never a point, even at 0 or n successes
    if (k, n) == (3, 3):
        assert lo == pytest.approx(0.4385, abs=1e-4)  # the Wald interval gave [1.0, 1.0]


# ---------------------------------------------------------------------------
# CLI surface


def test_main_bad_spec_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("task = nope\n")
    assert main(["run", str(bad)]) == 2


@pytest.mark.parametrize(
    "line, field, value",
    [
        ("modes = bogus", "modes", ["bogus"]),
        ("drop_p = 1.5", "drop_p", [1.5]),
        ("place_noise_cm = -1", "place_noise_cm", [-1.0]),
        ("disturbances = z", "disturbances", ["z"]),
        # a repeated letter would inject its disturbance twice
        ("disturbances = aa", "disturbances", ["aa"]),
        # an empty selector is not "none": only "none" means no disturbances
        ("disturbances = a,", "disturbances", ["a", ""]),
        # every comparison with NaN is false, so a `< 0` check alone lets it through
        ("tracker.sigma = nan", "tracker.sigma", math.nan),
        ("tracker.sigma = inf", "tracker.sigma", math.inf),
        ("tracker.dropout = nan", "tracker.dropout", math.nan),
        ("budget_ticks = 0", "budget_ticks", 0),
        ("budget_ticks = -5", "budget_ticks", -5),
        ("max_retries = -1", "max_retries", -1),
        # np.random.SeedSequence takes only non-negative seeds
        ("seed_base = -3", "seed_base", -3),
        # an infinite bound would reach rng.uniform(0, inf) at the first placement
        ("place_noise_cm = inf", "place_noise_cm", [math.inf]),
        # a repeated grid entry makes cells that share one key; values compare,
        # not their text
        ("modes = full, full", "modes", ["full", "full"]),
        ("drop_p = 0.3, 0.30", "drop_p", [0.3, 0.3]),
        ("drop_p = 0, -0.0", "drop_p", [0.0, -0.0]),
        ("place_noise_cm = 0.3, 0.3", "place_noise_cm", [0.3, 0.3]),
        ("disturbances = a, a", "disturbances", ["a", "a"]),
    ],
)
def test_out_of_range_spec_value_is_a_bad_spec(tmp_path, capsys, line, field, value):
    spec = tmp_path / "spec.txt"
    spec.write_text(f"task = slot_pen\nepisodes = 1\n{line}\n")
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 2
    assert "camctl: bad spec" in capsys.readouterr().err
    assert not (out / "run.jsonl").exists()
    # a log whose meta spec holds the value is refused by replay
    d = ExperimentSpec.loads("task = slot_pen\nepisodes = 1\n").as_dict()
    *groups, name = field.split(".")
    node = d
    for group in groups:
        node = node[group]
    node[name] = value
    with pytest.raises(ValueError):
        ExperimentSpec.from_dict(d)
    log = tmp_path / "bad.jsonl"
    with JsonlLogWriter(log) as w:
        w.write({"kind": "meta", "schema": 1, "spec": d})
    assert main(["replay", str(log)]) == 2
    assert "bad meta spec" in capsys.readouterr().err


def test_duplicate_spec_key_is_a_bad_spec(tmp_path, capsys):
    spec = tmp_path / "spec.txt"
    spec.write_text("task = pour_tea\nepisodes = 1\ntask = slot_pen\n")
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 2
    assert "camctl: bad spec: spec line 3: duplicate key 'task'" in capsys.readouterr().err
    assert not (out / "run.jsonl").exists()


def test_negative_cam_seed_is_a_bad_spec(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("CAM_SEED", "-1")
    spec = tmp_path / "spec.txt"
    spec.write_text("task = slot_pen\nepisodes = 1\n")
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 2
    assert "camctl: bad spec" in capsys.readouterr().err
    assert not (out / "run.jsonl").exists()


@pytest.mark.parametrize("under_file", [False, True])
def test_unusable_out_exits_2_before_any_episode(tmp_path, capsys, monkeypatch, under_file):
    import camlab.camctl as camctl

    spec = tmp_path / "spec.txt"
    spec.write_text("task = pour_tea\nepisodes = 1\n")
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    out = blocker / "out" if under_file else blocker
    monkeypatch.setattr(camctl, "run_episode", lambda cfg: pytest.fail("an episode ran"))
    assert main(["run", str(spec), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"camctl: cannot create output directory {out}: ")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("case", ["replay-missing-log", "replay-missing-report", "validate-not-utf8"])
def test_main_io_error_exits_2(run_dir, tmp_path, capsys, case):
    out, _ = run_dir
    bad_utf8 = tmp_path / "latin1.cam"
    bad_utf8.write_bytes(b'constraint "caf\xe9" mode during { 1 < 2 } fail "r"\n')
    argv = {
        "replay-missing-log": ["replay", str(tmp_path / "missing.jsonl")],
        "replay-missing-report": ["replay", str(out / "run.jsonl"), "--report", str(tmp_path / "missing.json")],
        "validate-not-utf8": ["validate", str(bad_utf8)],
    }[case]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("camctl: ")


def test_replay_table_follows_the_current_stdout(run_dir):
    out, _ = run_dir
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(["replay", str(out / "run.jsonl")]) == 0
    assert buf.getvalue().startswith("task: stack_in_order")


def test_replay_reproduces_report_bytes_on_every_template(tmp_path):
    kinds = set()
    for task in TEMPLATES:
        # monitored, with the task's catalog disturbance a where it has a catalog
        dist = "none" if task in ("stack_in_order", "sweep_half") else "a"
        spec = ExperimentSpec(task=task, episodes=1, modes=("full",), disturbances=(dist,))
        log = tmp_path / f"{task}.jsonl"
        with JsonlLogWriter(log) as w:
            report = run_spec(spec, w)
        assert report_bytes(replay_log(log)) == report_bytes(report), task
        kinds.update(r["kind"] for r in read_log(log))
    assert {"verdict", "injection", "halt", "replan"} <= kinds


def test_main_run_and_replay(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("task = stack_in_order\nepisodes = 1\nseed_base = 2\nmodes = off\n")
    out = tmp_path / "out"
    assert main(["run", str(spec), "--out", str(out)]) == 0
    assert main(["replay", str(out / "run.jsonl"), "--report", str(out / "report.json")]) == 0


def test_validate_good_program(tmp_path):
    f = tmp_path / "ok.cam"
    f.write_text(
        'constraint "near" mode on_completion\n'
        "tol near = 20 cm\n"
        "{ dist(centroid(e(1)), centroid(e(0))) <= near }\n"
        'fail "too far ({dist} m)"\n'
    )
    assert validate_dsl(f, "stack_in_order") == []


@pytest.mark.parametrize("task", TEMPLATES)
def test_validate_accepts_generated_first_subgoal_programs(task, tmp_path):
    state, scene = build_scene(task, np.random.default_rng(0))  # the scene validate_dsl binds against
    sg = Planner(task, scene.meta).plan_next(scene_summary(state, scene))
    for ps in sg.during + sg.completion:
        f = tmp_path / f"{ps.cid}.cam"
        f.write_text(ps.source)
        assert validate_dsl(f, task) == [], ps.source


def _deep_layer(form, n, text, height, atomic):
    """text (of that height; atomic if it needs no parentheses as an
    operand) under n repeats of form: (text, height, atomic) afterwards,
    with the height counted as parser.MAX_NESTING counts it."""
    if not atomic and form in ("not", "neg", "and", "or", "plus"):
        text, height = f"({text})", height + 1
    if form == "paren":
        return "(" * n + text + ")" * n, height + n, True
    if form in ("not", "neg"):
        return ("not " if form == "not" else "-") * n + text, height + n, form == "neg"
    if form == "at":
        return "at(" * n + text + ", 1)" * n, height + n, True
    if form == "proj_xy":
        return "proj_xy(" * n + text + ")" * n, height + n, True
    if form == "if":
        return "if 1 < 2 then " * n + text + " else 1 < 2" * n, max(height, 2) + n, False
    op = {"and": " and ", "or": " or ", "plus": " + "}[form]
    return op.join([text] * n), height + n - 1, n == 1


@st.composite
def deep_programs(draw):
    """(source, height) of programs nested or chained up to well past the
    limit: a vector, scalar and boolean part, each under up to two layers."""
    sizes = st.one_of(st.integers(1, 40), st.integers(1, 1200))
    text, height, atomic = "centroid(e(1))", 2, True
    for _ in range(draw(st.integers(0, 1))):
        text, height, atomic = _deep_layer("proj_xy", draw(sizes), text, height, atomic)
    text, height, atomic = f"dist({text}, centroid(e(0)))", max(height, 2) + 1, True
    if draw(st.booleans()):
        text, height, atomic = "1", 1, True
    for form in draw(st.lists(st.sampled_from(["paren", "neg", "plus", "at"]), max_size=2)):
        n = min(draw(sizes), max(1, 50_000 // len(text)))
        text, height, atomic = _deep_layer(form, n, text, height, atomic)
    text, height, atomic = f"{text} > 0", height + 1, False
    for form in draw(st.lists(st.sampled_from(["paren", "not", "and", "or", "if"]), max_size=2)):
        n = min(draw(sizes), max(1, 50_000 // len(text)))
        text, height, atomic = _deep_layer(form, n, text, height, atomic)
    return f'constraint "deep" mode on_completion\n{{ {text} }}\nfail "r"\n', height


@pytest.fixture(scope="module")
def validate_ring():
    """The ring camctl validate binds programs to."""
    state, scene = build_scene("stack_in_order", np.random.default_rng(0))
    sg = Planner("stack_in_order", scene.meta).plan_next(scene_summary(state, scene))
    es, _ = extract_elements(sg, state, scene)
    return PointRing(es, state.tick)


@settings(max_examples=150, deadline=None)
@given(deep_programs())
def test_deep_and_long_programs_raise_only_parse_and_validation_errors(validate_ring, tmp_path_factory, program):
    """Past MAX_NESTING a program is a DslSyntaxError; within it, loading
    raises at most a ValidationFailure; never a RecursionError. camctl
    validate exits 2 on every program past the limit."""
    source, height = program
    try:
        load_program(source, None, validate_ring)
    except DslSyntaxError as err:
        assert height > MAX_NESTING and f"nested at most {MAX_NESTING} deep" in str(err)
    except ValidationFailure:
        assert height <= MAX_NESTING
    else:
        assert height <= MAX_NESTING
    f = tmp_path_factory.mktemp("deep") / "deep.cam"
    f.write_text(source)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["validate", str(f)])
    assert rc == 2 if height > MAX_NESTING else rc in (0, 2)


# a value past the float range turns a vector infinite, so its measurements
# are NaN: each program must fail validation, not hold on every tick
_NAN_PROGRAMS = {
    "angle": "tol big = 1e308 m\ntol lmax = 0.1 rad\n{ angle(vec(big * 10, 0, 0), axis_z) <= lmax }\n",
    "not_dist": "tol big = 1e308 m\ntol lim = 0.1 m\n{ not (dist(vec(big * 10, 0, 0), vec(big * 10, 0, 0)) > lim) }\n",
    "not_within": "tol big = 1e308 m\ntol lim = 0.1 m\n{ not (vec(big * 10, 0, 0) within lim of vec(big * 10, 0, 0)) }\n",
    # inf - inf is NaN, which compares outside a box and below a height
    "not_inside": "tol big = 1e308 m\n{ not inside(vec(big * 10 - big * 10, 0, 0), box(-1, -1, -1, 1, 1, 1)) }\n",
    "not_above": "tol big = 1e308 m\n{ not above(vec(0, 0, big * 10 - big * 10), vec(0, 0, 0), 0 m) }\n",
    # and a NaN box corner leaves every centroid outside the box
    "count_within": (
        "tol big = 1e308 m\ntol band = 0.5 count\n"
        "{ count_within([e(1)], box(big * 10 - big * 10, -1, -1, 1, 1, 1)) within band of 0 }\n"
    ),
}


@pytest.mark.parametrize("name", sorted(_NAN_PROGRAMS))
def test_validate_rejects_a_program_that_measures_nan(tmp_path, name):
    f = tmp_path / f"{name}.cam"
    f.write_text(f'constraint "{name}" mode during\n{_NAN_PROGRAMS[name]}fail "r"\n')
    with contextlib.redirect_stdout(io.StringIO()), np.errstate(all="ignore"):
        assert main(["validate", str(f)]) == 2


def test_overflowing_tracker_noise_fails_safe_and_replays(tmp_path):
    """Noise of sigma 1e308 overflows the tracked points to inf: the fits
    on them are degenerate geometry, so the monitor gives violation
    verdicts, and the run completes and replays to the same report."""
    spec = ExperimentSpec.loads("task = stow_book\nepisodes = 1\nmodes = full\ntracker.sigma = 1e308\n")
    log = tmp_path / "run.jsonl"
    with JsonlLogWriter(log) as w, np.errstate(all="ignore"):
        report = run_spec(spec, w)
    assert report_bytes(replay_log(log)) == report_bytes(report)
    assert any(r["kind"] == "verdict" for r in read_log(log))


def test_validate_bad_element(tmp_path):
    f = tmp_path / "bad.cam"
    f.write_text(
        'constraint "x" mode on_completion\n{ dist(centroid(e(9)), centroid(e(0))) <= 1 }\nfail "r"\n'
    )
    problems = validate_dsl(f, "stack_in_order")
    assert any("e(9)" in p for p in problems)


def test_bench_returns_stats():
    stats = bench_monitor(n_ticks=500)
    assert stats["median_ms"] < 1.0
    assert stats["ticks"] == 500


@pytest.mark.parametrize("ticks", ["0", "-3"])
def test_bench_rejects_fewer_than_one_tick(capsys, ticks):
    assert main(["bench", "--ticks", ticks]) == 2
    assert "--ticks must be >= 1" in capsys.readouterr().err
