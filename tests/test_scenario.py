"""Scenario parsing: strict keys and types, collected errors, YAML loading."""

import math
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, strategies as st

from sidelinksim.adversary import AttackKind
from sidelinksim.metrics import MetricsReport
from sidelinksim.pc5 import PolicyLevel
from sidelinksim.radio import ChannelModel
from sidelinksim.resources import ResourcePool
from sidelinksim.scenario import (
    ATTACKER_ID_BASE,
    Scenario,
    YAML_LOADER,
    ScenarioError,
    load_scenario,
    parse_scenario,
)
from sidelinksim.simulation import World
from sidelinksim.sync import SyncConfig

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def minimal(**over):
    base = {
        "name": "demo",
        "seed": 7,
        "duration_slots": 100,
        "ues": [
            {"id": 1, "position": [0, 0]},
            {"id": 2, "position": [40, 0]},
        ],
    }
    base.update(over)
    return base


def with_value(dotted, value):
    """A valid scenario with every section present, and `value` set at `dotted`."""
    raw = minimal(
        traffic=[{"src": 1, "dst": 2, "period_slots": 100}],
        links=[{"initiator": 1, "responder": 2}],
        attacks=[{"kind": "harq_spoof_nack", "window": [10, 90]}],
    )
    keys = [int(k[1:-1]) if k.startswith("[") else k
            for k in re.findall(r"\[\d+\]|\w+", dotted)]
    node = raw
    for key in keys[:-1]:
        node = node[key] if isinstance(key, int) else node.setdefault(key, {})
    node[keys[-1]] = value
    return raw


def test_minimal_scenario_parses_with_defaults():
    sc = parse_scenario(minimal())
    assert isinstance(sc, Scenario)
    assert sc.name == "demo" and sc.seed == 7
    assert sc.pool.num_subchannels == 4
    assert sc.sync.ssb_period_slots == 16
    assert sc.ues[0].policy.ciphering == PolicyLevel.REQUIRED
    assert sc.traffic == () and sc.attacks == ()
    assert not sc.defenses.signed_ssb.enabled


def test_full_sections_parse():
    sc = parse_scenario(minimal(
        channel={"shadowing_sigma_db": 2.0, "tb_error_rate": 0.1},
        pool={"num_subchannels": 10, "slots_per_selection_window": 20,
              "period_list_ms": [20, 50, 100, 1000]},
        sync={"ssb_period_slots": 32},
        traffic=[{"src": 1, "dst": 2, "period_slots": 100}],
        links=[{"initiator": 1, "responder": 2, "start_slot": 5}],
        attacks=[{
            "kind": "harq_spoof_nack",
            "window": [10, 90],
            "capability": {"tx_power_dbm": 33.0, "position": [5, 5]},
            "params": {"target_src_l2": None},
        }],
        defenses={"replay_guard": {"enabled": True, "timestamp_skew_slots": 8}},
    ))
    assert sc.pool.period_list_ms == (20, 50, 100, 1000)
    assert sc.channel.tb_error_rate == 0.1
    assert sc.traffic[0].harq is True
    assert sc.links[0].start_slot == 5
    atk = sc.attacks[0]
    assert atk.plan.kind == AttackKind.HARQ_SPOOF_NACK
    assert atk.plan.window == (10, 90)
    assert atk.capability.position == (5.0, 5.0)
    assert sc.defenses.replay_guard.enabled
    assert sc.defenses.replay_guard.timestamp_skew_slots == 8


def test_unknown_keys_are_errors_with_paths():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(minimal(extra_section=1,
                               pool={"subchannels": 4}))
    text = str(err.value)
    assert "scenario.extra_section" in text
    assert "scenario.pool.subchannels" in text


@pytest.mark.parametrize("section", [
    "channel", "pool", "sync", "ues[0]", "ues[0].policy", "traffic[0]",
    "links[0]", "attacks[0]", "attacks[0].capability", "defenses",
    "defenses.signed_ssb", "defenses.harq_anomaly_check", "defenses.replay_guard",
    "defenses.policy_enforcer", "defenses.privacy_randomizer", "defenses.incident_log",
])
def test_unknown_key_in_every_section(section):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(with_value(f"{section}.bogus", 1))
    assert err.value.problems == [f"scenario.{section}.bogus: unknown key"]


def test_the_fixed_sci1a_widths_and_physical_values_are_no_keys():
    channel_keys = ("reference_loss_db", "path_loss_exponent", "noise_floor_dbm",
                    "capture_threshold_db")
    pool_keys = ("dmrs_patterns", "additional_mcs_tables", "psfch_period", "num_reserved_bits",
                 "sl_max_num_per_reserve", "sensing_window_slots",
                 "rsrp_exclusion_threshold_dbm", "min_candidate_ratio", "threshold_step_db",
                 "slot_duration_ms")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(minimal(channel=dict.fromkeys(channel_keys, 1),
                               pool=dict.fromkeys(pool_keys, 1)))
    assert err.value.problems == [*(f"scenario.channel.{key}: unknown key" for key in channel_keys),
                                  *(f"scenario.pool.{key}: unknown key" for key in pool_keys)]


@pytest.mark.parametrize("key, largest", [("num_subchannels", 27),
                                          ("slots_per_selection_window", 1000)])
def test_the_largest_pool_size_parses(key, largest):
    assert getattr(parse_scenario(minimal(pool={key: largest})).pool, key) == largest


@pytest.mark.parametrize("dotted,value", [
    ("channel.shadowing_sigma_db", "x"),
    ("attacks[0].capability.timing_precision_slots", "x"),
    ("attacks[0].params.slot_offset", "x"),
    ("traffic[0].period_slots", "abc"),
    ("ues[0].tx_power_dbm", "loud"),
    ("links[0].start_slot", "x"),
    ("traffic", 5),
    ("traffic[0].dst", [1]),
    ("pool.period_list_ms", 5),
    ("name", 5),
    ("name", None),
    ("seed", True),
    ("duration_slots", True),
    ("attacks[0].window", [False, True]),
])
def test_wrongly_typed_value_is_an_error_at_its_path(dotted, value):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(with_value(dotted, value))
    assert any(p.startswith(f"scenario.{dotted}: ") for p in err.value.problems)


@pytest.mark.parametrize("kind,dotted,value", [
    ("resource_blocking", "attacks[0].params.rri_ms", 37),
    ("resource_blocking", "attacks[0].params.priority", 99),
    ("harq_spoof_nack", "attacks[0].params.target_src_l2", 2**30),
    ("harq_spoof_nack", "attacks[0].params.target_src_l2", -1),
    ("harq_spoof_nack", "attacks[0].capability.timing_precision_slots", -2),
    ("false_sync_injection", "attacks[0].params.slss_id", 99999),
    ("false_sync_injection", "attacks[0].params.tdd_config", 5000),
    ("harq_spoof_nack", "channel.shadowing_sigma_db", -4.0),
    # selection backs off 3 dB at a time up to the strongest claim, so what
    # sets a received level is bounded
    ("harq_spoof_nack", "channel.shadowing_sigma_db", 21.0),
    ("harq_spoof_nack", "ues[0].tx_power_dbm", 61.0),
    ("harq_spoof_nack", "attacks[0].capability.tx_power_dbm", 61.0),
    ("harq_spoof_nack", "pool.period_list_ms", [0, 1000]),
    ("harq_spoof_nack", "pool.period_list_ms", [-100, 1000]),
    # TS 38.331 sl-NumSubchannel is 1..27; a window runs at most 1000 ms
    ("harq_spoof_nack", "pool.num_subchannels", 28),
    ("harq_spoof_nack", "pool.num_subchannels", 10**7),
    ("harq_spoof_nack", "pool.slots_per_selection_window", 1001),
    ("harq_spoof_nack", "pool.slots_per_selection_window", 2**31),
    ("harq_spoof_nack", "links[0].start_slot", -1),
    ("harq_spoof_nack", "defenses.harq_anomaly_check.power_tolerance_db", -4.0),
    ("harq_spoof_nack", "defenses.harq_anomaly_check.min_samples", -2),
    ("harq_spoof_nack", "defenses.replay_guard.timestamp_skew_slots", -5),
])
def test_out_of_range_value_is_an_error(kind, dotted, value):
    raw = with_value(dotted, value)
    raw["attacks"][0]["kind"] = kind
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    section, name = dotted.rsplit(".", 1)
    assert any(p.startswith(f"scenario.{section}") and name in p for p in err.value.problems)


@pytest.mark.parametrize("dotted, largest", [("ues[0].tx_power_dbm", 60.0),
                                             ("attacks[0].capability.tx_power_dbm", 60.0),
                                             ("channel.shadowing_sigma_db", 20.0)])
def test_the_largest_level_settings_parse(dotted, largest):
    sc = parse_scenario(with_value(dotted, largest))
    assert largest in (sc.ues[0].tx_power_dbm, sc.attacks[0].capability.tx_power_dbm,
                       sc.channel.shadowing_sigma_db)


POOL_ZERO = "scenario.pool: period_list_ms holds 0; every period must be positive"


@pytest.mark.parametrize("pool,flow_rri,attack_rri,problems", [
    # a refused pool is not the file's pool, so nothing is checked against it
    ([0, 1000], 0, 100, [POOL_ZERO]),
    ([0, 1000], 100, 0, [POOL_ZERO]),
    ([0, 1000], 0, 0, [POOL_ZERO]),
    # a parsed pool still is
    ([20, 1000], 100, 100, ["scenario.traffic[0].rri_ms: 100 not in pool period list (20, 1000)",
                            "scenario.attacks[0].params.rri_ms: 100 not in pool period list "
                            "(20, 1000)"]),
])
def test_rri_ms_is_checked_only_against_a_pool_that_parsed(pool, flow_rri, attack_rri,
                                                           problems):
    raw = minimal(pool={"period_list_ms": pool},
                  traffic=[{"src": 1, "dst": 2, "period_slots": 100, "rri_ms": flow_rri}],
                  attacks=[{"kind": "resource_blocking", "window": [10, 90],
                            "params": {"rri_ms": attack_rri}}])
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert err.value.problems == problems


@pytest.mark.parametrize("kind,dotted,value", [
    ("harq_spoof_nack", "defenses.privacy_randomizer.timer_ms", math.inf),
    ("harq_spoof_nack", "defenses.privacy_randomizer.timer_ms", math.nan),
    ("harq_spoof_nack", "attacks[0].capability.tx_power_dbm", math.inf),
    ("harq_spoof_nack", "attacks[0].capability.position", [0.0, math.nan]),
    ("harq_spoof_nack", "channel.shadowing_sigma_db", -math.inf),
    ("harq_spoof_nack", "ues[0].tx_power_dbm", math.nan),
    ("harq_spoof_nack", "ues[0].position", [math.inf, 0.0]),
    ("resource_blocking", "attacks[0].params.claim_fraction", math.inf),
])
def test_a_non_finite_float_is_an_error_at_its_path(kind, dotted, value):
    # section fields, the `_number` cast and attack params alike; such a
    # value would stop a run (timer_ms) or write Infinity/NaN into events.jsonl
    raw = with_value(dotted, value)
    raw["attacks"][0]["kind"] = kind
    with pytest.raises(ScenarioError) as err:
        parse_scenario(raw)
    assert any(p.startswith(f"scenario.{dotted}: must be finite, got ")
               for p in err.value.problems)


def privacy(timer_ms):
    return minimal(defenses={"privacy_randomizer": {"enabled": True, "timer_ms": timer_ms,
                                                    "mode": "weak"}})


@pytest.mark.parametrize("timer_ms", [0, -1, 0.3, 0.5])
def test_an_enabled_privacy_timer_under_one_slot_is_an_error(timer_ms):
    # it rounds to no whole slot (round() takes 0.5 to 0), so no
    # identifier would ever be refreshed
    with pytest.raises(ScenarioError) as err:
        parse_scenario(privacy(timer_ms))
    (problem,) = err.value.problems
    assert problem.startswith("scenario.defenses.privacy_randomizer.timer_ms: ")


@pytest.mark.parametrize("timer_ms", [1.0, 1.4])
def test_a_one_slot_privacy_timer_refreshes_every_slot(timer_ms):
    world = World(parse_scenario(privacy(timer_ms)))
    world.run()
    # two legit UEs, refreshed in every slot but the first
    assert world.metrics.totals["identifier_refreshes"] == 2 * (100 - 1)


@given(st.text(max_size=8))
@example("a\nb")
@example("a\x85b")
@example("a\u2028b")
@example(" a, b – é ")
def test_a_name_is_refused_or_reads_back_from_metrics_csv(name):
    # every character str.splitlines breaks on is refused, so metrics.csv
    # keeps the name on its one row
    try:
        sc = parse_scenario(minimal(name=name))
    except ScenarioError as err:
        assert [p for p in err.problems if p.startswith("scenario.name: ")]
        assert not name.isprintable()
    else:
        assert MetricsReport.from_csv(MetricsReport(sc.name, sc.seed).to_csv()).scenario == name


def test_attack_param_bounds_are_inclusive():
    for kind, params in [("false_sync_injection", {"slss_id": 671, "tdd_config": 4095}),
                         ("resource_blocking", {"priority": 7, "rri_ms": 100,
                                                "claim_fraction": 1.0}),
                         ("harq_spoof_nack", {"target_src_l2": 2**24 - 1,
                                              "target_dst_l2": 0}),
                         ("pc5_replay", {"replay_delay_slots": 0})]:
        sc = parse_scenario(minimal(attacks=[{"kind": kind, "window": [0, 10],
                                              "params": params}]))
        assert sc.attacks[0].plan.params == params


def test_values_are_type_checked_not_converted():
    sc = parse_scenario(with_value("channel.shadowing_sigma_db", 2))
    assert type(sc.channel.shadowing_sigma_db) is int
    sc = parse_scenario(with_value("attacks[0].params.target_src_l2", 5))
    assert sc.attacks[0].plan.params == {"target_src_l2": 5}
    for dotted, value in (("sync.ssb_period_slots", True),
                          ("channel.tb_error_rate", False),
                          ("defenses.replay_guard.enabled", 1),
                          ("attacks[0].params.slot_offset", 1.5),
                          ("ues[0].policy.allow_null_cipher", "no"),
                          ("ues[0].network_sync_ref", "false"),
                          ("ues[0].tx_power_dbm", True),
                          ("ues[0].position", ["1", 2]),
                          ("pool.period_list_ms", [0.5]),
                          ("traffic[0].period_slots", 2.5),
                          ("traffic[0].harq", "false"),
                          ("links[0].start_slot", 2.9)):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(with_value(dotted, value))
        assert err.value.problems[0].startswith(f"scenario.{dotted}: expected ")


def test_bad_policy_axis_lists_the_valid_levels():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(with_value("ues[0].policy.ciphering", "SOMETIMES"))
    assert err.value.problems == [
        "scenario.ues[0].policy.ciphering: "
        "must be one of ['REQUIRED', 'PREFERRED', 'NOT_NEEDED']"]


def test_errors_are_collected_not_first_fail():
    bad = minimal(
        duration_slots=-5,
        traffic=[{"src": 1, "dst": 1, "period_slots": 0, "rri_ms": 37}],
        links=[{"initiator": 1, "responder": 1}],
        attacks=[{"kind": "nonexistent", "window": [0, 10]}],
    )
    with pytest.raises(ScenarioError) as err:
        parse_scenario(bad)
    problems = err.value.problems
    joined = "\n".join(problems)
    assert len(problems) >= 5
    assert "scenario.duration_slots" in joined
    assert "scenario.traffic[0].dst" in joined
    assert "scenario.traffic[0].period_slots" in joined
    assert "scenario.traffic[0].rri_ms" in joined
    assert "scenario.links[0]" in joined
    assert "scenario.attacks[0].kind" in joined


def test_ue_id_rules():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(minimal(ues=[
            {"id": 1}, {"id": 1}, {"id": ATTACKER_ID_BASE},
        ]))
    joined = str(err.value)
    assert "duplicate UE id" in joined
    assert f"[0, {ATTACKER_ID_BASE})" in joined
    with pytest.raises(ScenarioError):
        parse_scenario(minimal(ues=[]))


def test_broadcast_flow_cannot_request_feedback():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(minimal(traffic=[
            {"src": 1, "dst": "broadcast", "period_slots": 50, "harq": True},
        ]))
    assert "broadcast flows cannot request feedback" in str(err.value)
    sc = parse_scenario(minimal(traffic=[
        {"src": 1, "dst": "broadcast", "period_slots": 50, "harq": False},
    ]))
    assert sc.traffic[0].dst == "broadcast"


def test_attack_param_and_window_validation():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(minimal(attacks=[
            {"kind": "pc5_replay", "window": [50, 10]},
            {"kind": "false_sync_injection", "window": [0, 10],
             "params": {"loudness": 9}},
        ]))
    joined = str(err.value)
    assert "scenario.attacks[0].window" in joined
    assert "scenario.attacks[1].params.loudness" in joined


def test_defense_section_validation():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(minimal(defenses={
            "signed_ssb": {"enabled": True, "tag_bits": 24},
            "privacy_randomizer": {"mode": "rotating"},
            "jammers": {},
        }))
    joined = str(err.value)
    assert "scenario.defenses.signed_ssb" in joined
    assert "scenario.defenses.privacy_randomizer" in joined
    assert "scenario.defenses.jammers" in joined


def test_load_scenario_from_yaml(tmp_path):
    path = tmp_path / "tiny.yaml"
    path.write_text(
        "seed: 3\n"
        "duration_slots: 10\n"
        "ues:\n"
        "  - {id: 1, position: [0, 0]}\n"
    )
    sc = load_scenario(path)
    assert sc.name == "tiny"  # falls back to the file stem
    assert sc.seed == 3

    broken = tmp_path / "broken.yaml"
    broken.write_text("ues: [::")
    with pytest.raises(ScenarioError):
        load_scenario(broken)


def test_shipped_catalog_parses():
    files = sorted(SCENARIO_DIR.glob("*.yaml"))
    assert len(files) >= 16
    for f in files:
        sc = load_scenario(f)
        assert sc.duration_slots > 0
        assert sc.ues


def test_the_readme_example_parses_and_runs():
    readme = (SCENARIO_DIR.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```yaml\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) == 1
    sc = parse_scenario(yaml.load(blocks[0], Loader=YAML_LOADER))
    totals = World(sc).run().totals
    assert totals["slots_run"] == sc.duration_slots == 2000
    assert totals["receiver_delivered"] > 0 and totals["links_established"] > 0
    assert totals["feedback_spoofed"] > 0 and totals["feedback_flagged"] > 0


# -- one-value mutations of the catalog ----------------------------------------

MUTATIONS = (0, -1, 2**31, 2**64, 10**7, 1e-320, 5e-324, 1e308, 0.3, True, "x", None, [], {})
DEFAULTED = {"pool": ResourcePool, "channel": ChannelModel, "sync": SyncConfig}
# together these hold every section, defense and attack kind the catalog holds
MUTATED = ("harq_false_ack", "harq_false_nack_guarded", "pc5_forged_reject_guarded",
           "pc5_replay", "resource_blocking", "sync_false_injection_signed",
           "sync_impersonation", "tracking_weak")


def catalog_raw(stem):
    return yaml.load((SCENARIO_DIR / f"{stem}.yaml").read_bytes(), Loader=YAML_LOADER)


def kinds_and_sections(raws):
    return ({attack["kind"] for raw in raws for attack in raw.get("attacks", ())},
            {key for raw in raws for key in raw}
            | {key for raw in raws for key in raw.get("defenses", {})})


def leaf_paths(node, path=()):
    """The key path of each scalar, empty list and empty mapping in `node`."""
    for key, value in node.items() if isinstance(node, dict) else enumerate(node):
        if isinstance(value, (dict, list)) and value:
            yield from leaf_paths(value, path + (key,))
        else:
            yield path + (key,)


def test_the_mutated_files_cover_the_catalog():
    every = kinds_and_sections(map(catalog_raw, (p.stem for p in SCENARIO_DIR.glob("*.yaml"))))
    assert kinds_and_sections(map(catalog_raw, MUTATED)) == every


@pytest.mark.parametrize("stem", MUTATED)
def test_a_one_value_mutation_of_the_catalog_parses_or_is_a_scenario_error(stem):
    """Each leaf of a catalog file, with its pool, channel and sync
    defaults written out, replaced by each extreme or mistyped value in
    turn. Parse only: an accepted extreme could allocate or loop without
    end in a run."""
    raw = catalog_raw(stem)
    for key, section in DEFAULTED.items():
        defaults = {k: list(v) if isinstance(v, tuple) else v for k, v in vars(section()).items()}
        raw[key] = {**defaults, **(raw.get(key) or {})}
    parse_scenario(raw)
    for *where, last in leaf_paths(raw):
        node = raw
        for key in where:
            node = node[key]
        kept = node[last]
        for value in MUTATIONS:
            node[last] = value
            try:
                parse_scenario(raw)
            except ScenarioError:
                pass
        node[last] = kept


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_loader_matches_pure_python_safe_loader(path):
    # SafeLoader is the fallback where pyyaml lacks libyaml, and the reference here.
    # repr also tells 1 from 1.0 from True and checks key order.
    data = path.read_bytes()
    reference = yaml.load(data, Loader=yaml.SafeLoader)
    assert repr(yaml.load(data, Loader=YAML_LOADER)) == repr(reference)
