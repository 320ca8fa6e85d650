"""Command-line behavior: outputs, exit codes, and inspection commands."""

from pathlib import Path

import pytest

from sidelinksim.cli import _parse_seeds, main
from sidelinksim.metrics import MetricsReport

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
BASELINE = str(SCENARIO_DIR / "baseline.yaml")

TINY = """
name: tiny
seed: 5
duration_slots: 60
ues:
  - {id: 1, position: [0, 0], role: gnss_visible}
  - {id: 2, position: [40, 0]}
traffic:
  - {src: 1, dst: 2, period_slots: 50, rri_ms: 100}
"""


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(TINY)
    return str(path)


def test_parse_seeds_forms():
    assert _parse_seeds("3") == [3]
    assert _parse_seeds("1,4,9") == [1, 4, 9]
    assert list(_parse_seeds("1:4")) == [1, 2, 3, 4]


def test_a_seed_range_is_not_built_before_it_is_used():
    seeds = _parse_seeds(f"0:{(1 << 64) - 1}")
    assert (seeds[0], seeds[-1]) == (0, (1 << 64) - 1)


@pytest.mark.parametrize("seeds", ["1:x", "a,b", ":", "3:1", ","])
def test_malformed_seeds_is_exit_1(tiny, capsys, seeds):
    assert main(["batch", tiny, "--seeds", seeds]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: --seeds ")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("args", [
    ["run", "--seed", "-1"], ["run", "--seed", str(1 << 64)],
    ["batch", "--seeds=-2:-1"], ["batch", "--seeds", f"1,{1 << 64}"],
    ["batch", "--seeds", f"0:{1 << 64}"],
])
def test_seed_outside_the_scenario_range_is_exit_1(tiny, capsys, args):
    assert main([args[0], tiny, *args[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage error: {args[1].split('=')[0]} ")
    assert captured.err.rstrip().endswith("a seed must be an integer in [0, 2^64)")


def test_largest_seed_runs(tiny, capsys):
    assert main(["run", tiny, "--seed", str((1 << 64) - 1)]) == 0
    assert f"seed,{(1 << 64) - 1}" in capsys.readouterr().out


def test_run_writes_outputs_and_prints_csv(tiny, tmp_path, capsys):
    out = tmp_path / "results"
    assert main(["run", tiny, "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("schema,sidelinksim-metrics,")
    on_disk = (out / "metrics.csv").read_text()
    assert on_disk == printed
    events = (out / "events.jsonl").read_text().splitlines()
    assert events and all(line.startswith("{") for line in events)
    report = MetricsReport.from_csv(on_disk)
    assert report.scenario == "tiny" and report.seed == 5


def test_run_seed_override(tiny, tmp_path, capsys):
    assert main(["run", tiny, "--seed", "77"]) == 0
    assert "seed,77" in capsys.readouterr().out


def test_batch_per_seed_directories(tiny, tmp_path, capsys):
    out = tmp_path / "batch"
    assert main(["batch", tiny, "--seeds", "1:3", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3 and lines[0].startswith("seed 1:")
    for seed in (1, 2, 3):
        assert (out / f"seed-{seed}" / "metrics.csv").exists()
        assert (out / f"seed-{seed}" / "events.jsonl").exists()


def test_compare_two_runs(tiny, tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", tiny, "--out", str(a)])
    main(["run", tiny, "--seed", "9", "--out", str(b)])
    capsys.readouterr()
    assert main(["compare", str(a / "metrics.csv"), str(b / "metrics.csv")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("metric,delta,relative")
    assert "slots_run,0," in out


def test_compare_malformed_metrics_is_exit_1(tiny, tmp_path, capsys):
    good = tmp_path / "good"
    main(["run", tiny, "--out", str(good)])
    text = (good / "metrics.csv").read_text()
    short = tmp_path / "short.csv"
    short.write_text(text.replace("slots_run,60\n", "slots_run\n"))
    unknown = tmp_path / "unknown.csv"
    unknown.write_text(text.replace("slots_run,", "slots_walked,"))
    capsys.readouterr()
    for bad, message in ((short, "line 6: 'slots_run' has no value"),
                         (unknown, "line 6: unknown metric 'slots_walked'")):
        assert main(["compare", str(good / "metrics.csv"), str(bad)]) == 1
        err = capsys.readouterr().err
        assert str(bad) in err and message in err


def test_validate_accepts_catalog(capsys):
    assert main(["validate", BASELINE]) == 0
    assert capsys.readouterr().out.startswith("ok: baseline")


def test_validate_reports_problems(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("duration_slots: -1\nues: []\n")
    assert main(["validate", str(bad)]) == 1
    err = capsys.readouterr().err
    assert "scenario error" in err
    assert "scenario.duration_slots" in err


def test_a_second_tracker_fails_validation(tmp_path, capsys):
    # tracking_weak with a far tracker placed before its own: the run would
    # score only the far one, which hears no id
    text = (SCENARIO_DIR / "tracking_weak.yaml").read_text()
    tracker = "  - kind: l2_tracking\n    window: [0, 2000]\n"
    assert text.count(tracker) == 1
    far = tracker + "    capability: {position: [10000, 10000]}\n"
    bad = tmp_path / "two_trackers.yaml"
    bad.write_text(text.replace(tracker, far + tracker))
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "scenario error:",
        "  - scenario.attacks[1].kind: a second l2_tracking attack; a run scores one "
        "tracker, the one at scenario.attacks[0]"]


def test_each_problem_is_printed_once(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("duration_slots: -1\nues: []\n")
    assert main(["validate", str(bad)]) == 1
    lines = capsys.readouterr().err.splitlines()
    problems = [line for line in lines if "scenario.duration_slots" in line or "scenario.ues" in line]
    assert len(problems) == 2 and len(set(problems)) == 2
    assert lines == ["scenario error:", *problems]


def test_a_multi_line_problem_stays_under_its_bullet(tmp_path, capsys):
    # libyaml reports an undecodable byte on two lines: the error, then its position
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"a: \xff")
    assert main(["validate", str(bad)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "scenario error:" and len(lines) > 2
    assert lines[1].startswith("  - ") and "unacceptable character" in lines[1]
    assert all(line.startswith("    ") for line in lines[2:])
    assert any("position 3" in line for line in lines[2:])


@pytest.mark.parametrize("text", [
    TINY + "channel: {shadowing_sigma_db: x}\n",
    TINY.replace("period_slots: 50", "period_slots: abc"),
    TINY.replace("name: tiny", "name: 5"),
    # YAML 1.1 would read it as the octal 48; this loader reads a string
    TINY.replace("duration_slots: 60", "duration_slots: 060"),
], ids=["channel", "traffic", "name", "octal_duration"])
def test_wrongly_typed_value_is_exit_1_for_validate_and_run(tmp_path, capsys, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    for command in ("validate", "run"):
        assert main([command, str(bad)]) == 1
        assert "scenario error" in capsys.readouterr().err


OUT_OF_RANGE = {
    "rri_ms": "{kind: resource_blocking, window: [0, 60], params: {rri_ms: 37}}",
    "claim_fraction": "{kind: resource_blocking, window: [0, 60], params: {claim_fraction: 1.5}}",
    "timing_precision_slots": ("{kind: false_sync_injection, window: [0, 60],"
                               " capability: {timing_precision_slots: -2}}"),
}


@pytest.mark.parametrize("text", [
    *(TINY + f"attacks:\n  - {attack}\n" for attack in OUT_OF_RANGE.values()),
    TINY + "channel: {shadowing_sigma_db: -4.0}\n",
    # selection backs off 3 dB at a time up to the strongest claim, so an
    # unbounded level was a run without end; this one runs in milliseconds
    # where the bound is missing, so the row fails rather than hangs
    TINY + ("attacks:\n  - {kind: resource_blocking, window: [0, 60],"
            " capability: {tx_power_dbm: 61.0}}\n"),
    TINY + "channel: {shadowing_sigma_db: 21.0}\n",
    TINY.replace("name: tiny", 'name: "a\\nb"'),
    # a flow on a period of 0 or less never got past its first grant
    TINY.replace("rri_ms: 100", "rri_ms: 0") + "pool: {period_list_ms: [0, 1000]}\n",
    TINY.replace("rri_ms: 100", "rri_ms: -100") + "pool: {period_list_ms: [-100, 1000]}\n",
    TINY + "links:\n  - {initiator: 1, responder: 2, start_slot: -1}\n",
], ids=[*OUT_OF_RANGE, "shadowing_sigma_db_negative", "attacker_tx_power_dbm_61",
        "shadowing_sigma_db_21", "name_line_break", "period_list_ms_zero", "period_list_ms_negative",
        "link_start_slot_negative"])
def test_out_of_range_value_is_exit_1_for_validate_and_run(tmp_path, capsys, text):
    bad = tmp_path / "bad.yaml"
    # signed beacons make the sync injector sign what it sends
    bad.write_text(text + "defenses: {signed_ssb: {enabled: true}}\n")
    for command in ("validate", "run"):
        assert main([command, str(bad)]) == 1
        assert "scenario error" in capsys.readouterr().err


@pytest.mark.parametrize("setting, code", [
    ("num_subchannels: 27", 0),
    ("num_subchannels: 28", 1),
    ("slots_per_selection_window: 1000", 0),
    ("slots_per_selection_window: 1001", 1),
])
def test_a_pool_size_past_its_bound_is_exit_1_for_validate_and_run(tmp_path, capsys, setting,
                                                                     code):
    # unbounded, a large size passed `validate` and ran out of memory in `run`
    path = tmp_path / "pool.yaml"
    path.write_text(TINY + f"pool: {{{setting}}}\n")
    for command in ("validate", "run"):
        assert main([command, str(path)]) == code
        err = capsys.readouterr().err
        assert ("scenario error" in err) == bool(code)


# each place a fixed value's key sat, with `@` for its `key: value`
KEY_PLACES = {
    "pool": TINY + "pool: {@}\n",
    "channel": TINY + "channel: {@}\n",
    "sync": TINY + "sync: {@}\n",
    "ues[1]": TINY.replace("[40, 0]}", "[40, 0], @}"),
    "traffic[0]": TINY.replace("rri_ms: 100}", "rri_ms: 100, @}"),
    "attacks[0].capability": (TINY + "attacks:\n"
                              "  - {kind: resource_blocking, window: [0, 60], capability: {@}}\n"),
    "defenses.replay_guard": TINY + "defenses: {replay_guard: {enabled: true, @}}\n",
}
# the attack at index i, with the params at `@`, follows those of the kinds before it
PLACED_KINDS = ("resource_blocking", "false_sync_injection", "harq_spoof_ack",
                "harq_spoof_nack", "l2_tracking")
KEY_PLACES |= {f"attacks[{i}].params": TINY + "attacks:\n" + "".join(
    f"  - {{kind: {kind}, window: [0, 60]{', params: {@}' if j == i else ''}}}\n"
    for j, kind in enumerate(PLACED_KINDS[:i + 1])) for i in range(len(PLACED_KINDS))}


@pytest.mark.parametrize("section, setting", [
    ("pool", "threshold_step_db: 3.0"),
    ("pool", "rsrp_exclusion_threshold_dbm: -100.0"),
    ("pool", "sensing_window_slots: 1100"),
    ("pool", "min_candidate_ratio: 0.2"),
    ("pool", "slot_duration_ms: 1.0"),
    ("channel", "reference_loss_db: 46.7"),
    ("channel", "path_loss_exponent: 2.7"),
    ("channel", "noise_floor_dbm: -110.0"),
    ("channel", "capture_threshold_db: 3.0"),
    ("sync", "min_hyst_db: 0.0"),
    ("sync", "diff_hyst_db: 3.0"),
    ("sync", "tx_thresh_ooc_dbm: -110.0"),
    ("sync", "selection_rsrp_threshold_dbm: -105.0"),
    ("sync", "ssb_period_slots: 16"),
    ("ues[1]", "network_sync_ref: false"),
    ("traffic[0]", "priority: 3"),
    ("attacks[0].capability", "knows_pool_config: true"),
    ("attacks[0].capability", "knows_harq_params: true"),
    ("attacks[0].params", "priority: 1"),
    ("attacks[0].params", "pool_discovery_slots: 100"),
    ("attacks[1].params", "tdd_config: 0"),
    ("ues[1]", "tx_power_dbm: 23.0"),
    ("attacks[1].params", "slss_id: 0"),
    ("attacks[2].params", "target_src_l2: 1"),
    ("attacks[2].params", "target_dst_l2: 2"),
    ("attacks[3].params", "target_src_l2: 1"),
    ("attacks[3].params", "target_dst_l2: 2"),
    ("attacks[4].params", "linkage_window_slots: 50"),
    ("attacks[4].params", "rsrp_similarity_db: 3.0"),
    ("defenses.replay_guard", "timestamp_skew_slots: 16"),
])
def test_a_fixed_physical_value_is_an_unknown_key_for_validate_and_run(tmp_path, capsys, section,
                                                                     setting):
    # each at the value it is fixed to (a spoof target, which had no fixed
    # value, at an arbitrary id), so a file that could still set it runs in
    # milliseconds and fails here rather than hangs
    bad = tmp_path / "bad.yaml"
    bad.write_text(KEY_PLACES[section].replace("@", setting))
    name = setting.split(":")[0]
    for command in ("validate", "run"):
        assert main([command, str(bad)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "scenario error:",
            f"  - scenario.{section}.{name}: unknown key",
        ]


@pytest.mark.parametrize("section, setting", [
    ("harq_anomaly_check", "power_tolerance_db: -4.0"),
    ("harq_anomaly_check", "min_samples: -2"),
])
def test_negative_defense_setting_is_exit_1_for_validate_and_run(tmp_path, capsys, section,
                                                                  setting):
    bad = tmp_path / "bad.yaml"
    bad.write_text(TINY + f"defenses: {{{section}: {{enabled: true, {setting}}}}}\n")
    name, value = setting.split(": ")
    for command in ("validate", "run"):
        assert main([command, str(bad)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "scenario error:",
            f"  - scenario.defenses.{section}: {name} {value} below 0",
        ]


@pytest.mark.parametrize("text", [
    TINY.replace("rri_ms: 100", "rri_ms: 0") + "pool: {period_list_ms: [0, 1000]}\n",
    TINY + "pool: {period_list_ms: [0, 1000]}\n"
    + "attacks:\n  - {kind: resource_blocking, window: [0, 60], params: {rri_ms: 0}}\n",
], ids=["flow_rri_ms", "attack_rri_ms"])
def test_a_refused_pool_prints_only_its_own_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    assert main(["validate", str(bad)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "scenario error:",
        "  - scenario.pool: period_list_ms holds 0; every period must be positive",
    ]


@pytest.mark.parametrize("text", [
    TINY + "defenses: {privacy_randomizer: {enabled: true, timer_ms: .inf}}\n",
    TINY + "defenses: {privacy_randomizer: {enabled: true, timer_ms: .nan}}\n",
    TINY + ("attacks:\n  - {kind: harq_spoof_nack, window: [0, 60],"
            " capability: {tx_power_dbm: .inf}}\n"),
    TINY + "channel: {shadowing_sigma_db: .nan}\n",
], ids=["timer_ms_inf", "timer_ms_nan", "tx_power_dbm_inf", "shadowing_sigma_db_nan"])
def test_a_non_finite_float_is_exit_1_for_validate_and_run(tmp_path, capsys, text):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    for command in ("validate", "run"):
        assert main([command, str(bad)]) == 1
        assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("timer_ms", ["0", "-1", "0.3", "0.5"])
def test_a_privacy_timer_under_one_slot_is_exit_1_for_validate_and_run(tmp_path, capsys,
                                                                       timer_ms):
    bad = tmp_path / "bad.yaml"
    bad.write_text(TINY + "defenses: {privacy_randomizer: {enabled: true, timer_ms: %s}}\n"
                   % timer_ms)
    for command in ("validate", "run"):
        assert main([command, str(bad)]) == 1
        assert "scenario.defenses.privacy_randomizer.timer_ms: " in capsys.readouterr().err


def test_missing_file_is_exit_1(capsys):
    assert main(["run", "no_such_scenario.yaml"]) == 1
    assert "not found" in capsys.readouterr().err


def test_non_utf8_file_is_exit_1_for_validate_and_run(tmp_path, capsys):
    bad = tmp_path / "latin1.yaml"
    bad.write_bytes(b"a: \xff\n")
    for command in ("validate", "run"):
        assert main([command, str(bad)]) == 1
        err = capsys.readouterr().err
        assert "scenario error" in err and str(bad) in err


def test_directory_path_is_exit_1_for_validate_and_run(tmp_path, capsys):
    for command in ("validate", "run"):
        assert main([command, str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("cannot access: ") and str(tmp_path) in err
        assert len(err.splitlines()) == 1


def test_list_attacks_prints_catalog(capsys):
    assert main(["list-attacks"]) == 0
    out = capsys.readouterr().out
    for kind in ("false_sync_injection", "resource_blocking", "harq_spoof_ack",
                 "pc5_forged_reject", "pc5_replay", "l2_tracking"):
        assert kind in out
    assert "claim_fraction" in out and "default" in out


def test_list_attacks_prints_param_bounds(capsys):
    assert main(["list-attacks"]) == 0
    out = capsys.readouterr().out
    assert "claim_fraction (default 0.75, 0..1)" in out
    assert "replay_delay_slots (default 40, 0..)" in out
