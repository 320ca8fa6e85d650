"""Metrics accounting, CSV round-trip, run comparison and event lines."""

import importlib.util
import json
from pathlib import Path

import pytest

from sidelinksim.metrics import (
    GAUGE_METRICS,
    METRIC_ORDER,
    MetricsReport,
    compare,
    event_line,
    format_compare,
    write_events,
)
from sidelinksim.scenario import load_scenario, parse_scenario
from sidelinksim.simulation import run_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

_spec = importlib.util.spec_from_file_location("bench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def dumps(event):
    """The reference rendering that event_line must reproduce byte for byte."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def test_all_metrics_initialized():
    r = MetricsReport("demo", 1)
    assert set(r.totals) == set(METRIC_ORDER)
    for g in GAUGE_METRICS:
        assert r.totals[g] is None
    assert r.totals["tb_sent"] == 0


def test_bump_and_series_buckets():
    r = MetricsReport("demo", 1, bucket_slots=100)
    r.bump("collision_count", slot=5)
    r.bump("collision_count", slot=250)
    r.bump("collision_count", amount=3, slot=250)
    assert r.totals["collision_count"] == 5
    assert r.series["collision_count"] == [1, 0, 4]
    r.check_fold()
    r.bump("tb_sent")  # no series for this one
    assert "tb_sent" not in r.series


def test_bump_rejects_unknown_and_gauge_names():
    r = MetricsReport("demo", 1)
    with pytest.raises(KeyError):
        r.bump("made_up_counter")
    with pytest.raises(KeyError):
        r.bump("tracking_f1")
    with pytest.raises(KeyError):
        r.gauge("tb_sent", 1.0)


def test_fold_check_catches_drift():
    r = MetricsReport("demo", 1)
    r.bump("retransmissions", slot=0)
    r.totals["retransmissions"] = 7  # tamper
    with pytest.raises(AssertionError):
        r.check_fold()


def test_csv_round_trip_and_stability():
    r = MetricsReport("demo", 42, bucket_slots=50)
    r.bump("tb_sent", 10)
    r.bump("collision_count", 2, slot=75)
    r.gauge("candidate_set_ratio", 0.8125)
    r.gauge("tracking_f1", None)
    text = r.to_csv()
    assert text == r.to_csv()  # emission is deterministic
    back = MetricsReport.from_csv(text)
    assert back.scenario == "demo" and back.seed == 42
    assert back.totals == r.totals
    assert back.series == r.series
    assert "candidate_set_ratio,0.8125" in text
    assert "tracking_f1,na" in text


def test_from_csv_rejects_foreign_files():
    with pytest.raises(ValueError):
        MetricsReport.from_csv("schema,other-tool,1\n")
    with pytest.raises(ValueError):
        MetricsReport.from_csv("schema,sidelinksim-metrics,999\nscenario,x\nseed,0\nbucket_slots,100\nmetric,value\n")


def test_from_csv_names_the_malformed_line():
    lines = MetricsReport("demo", 1).to_csv().splitlines()
    cases = {
        "slots_run": "line 6: 'slots_run' has no value",
        "not_a_metric,3": "line 6: unknown metric 'not_a_metric'",
        "series,not_a_metric,1:2": "line 6: unknown series metric 'not_a_metric'",
        "series": "line 6: 'series' has no value",
    }
    for row, message in cases.items():
        text = "\n".join(lines[:5] + [row] + lines[6:]) + "\n"
        with pytest.raises(ValueError) as err:
            MetricsReport.from_csv(text)
        assert str(err.value) == message


def test_compare_reports_deltas():
    a = MetricsReport("demo", 1)
    b = MetricsReport("demo", 2)
    a.bump("tb_sent", 10)
    b.bump("tb_sent", 15)
    b.bump("collision_count", 4)
    deltas = compare(a, b)
    assert deltas["tb_sent"] == (5, 0.5)
    assert deltas["collision_count"] == (4, None)  # baseline zero: no ratio
    assert deltas["tracking_f1"] == (None, None)
    text = format_compare(deltas)
    assert "tb_sent,5,0.5" in text

    b.totals["extra"] = 1
    with pytest.raises(ValueError):
        compare(a, b)


def test_event_line_is_compact_and_key_sorted():
    line = event_line({"slot": 3, "event": "collision", "a": 1})
    assert line == '{"a":1,"event":"collision","slot":3}'


@pytest.mark.parametrize("label", [*sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml")),
                                   "dense_broadcast-1", "unicast_harq-1"])
def test_event_line_matches_json_dumps_on_every_event_of_a_run(label):
    name, _, seed = label.partition("-")
    scenario = (parse_scenario(getattr(workloads, name)(int(seed)), default_name=name) if seed
                else load_scenario(SCENARIO_DIR / f"{name}.yaml"))
    events = run_scenario(scenario)[2].events
    assert events
    for event in events:
        assert event_line(event) == dumps(event)


EDGE_VALUES = [
    "héllo wörld ✓ 𝄞 \u2028",
    "\x00\x01\x1f\x7f\t\n\r\"\\/",
    float("inf"), float("-inf"), float("nan"),
    -0.0, 1e-300, 0.1, 123456789012345678901234567890, -(10**29),
    None, True, False,
    [3, [None, "x"], {"b": 1, "a": 2}],
    {"zeta": 1, "alpha": {"y": 2, "x": [1.5]}, "Mid": None},
]


def test_event_line_matches_json_dumps_on_edge_values():
    for value in EDGE_VALUES:
        assert event_line({"value": value, "slot": 1}) == dumps({"value": value, "slot": 1})
    event = {f"k{i:02d}": v for i, v in reversed(list(enumerate(EDGE_VALUES)))}
    assert event_line(event) == dumps(event)


@pytest.mark.parametrize("value", [object(), {1, 2}, b"bytes", 1j])
def test_event_line_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError) as ours:
        event_line({"value": value})
    with pytest.raises(TypeError) as reference:
        dumps({"value": value})
    assert str(ours.value) == str(reference.value)


def test_write_events_writes_one_event_line_per_event(tmp_path):
    events = [{"value": v, "slot": i} for i, v in enumerate(EDGE_VALUES)]
    path = tmp_path / "events.jsonl"
    write_events(path, events)
    assert path.read_bytes().decode() == "".join(event_line(e) + "\n" for e in events)
