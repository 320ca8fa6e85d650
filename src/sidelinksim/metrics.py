"""Run metrics and their on-disk forms.

The CSV layout is versioned and row-ordered so two runs of the same
(scenario, seed) diff byte-for-byte. Counter metrics optionally keep a
bucketed series whose fold must equal the total.

Event lines are rendered by one C JSON encoder built at import: the
same bytes as `json.dumps(event, sort_keys=True, separators=(",", ":"))`
without building a new encoder for every event. It makes no
circular-reference check, since events are flat dicts of scalars.
"""

from __future__ import annotations

import json.encoder
from dataclasses import dataclass, field

SCHEMA_VERSION = 1

# fixed emission order: appending here is a schema change
METRIC_ORDER = [
    "slots_run",
    "ssb_sent",
    "ssb_rejected",
    "sync_switches",
    "sync_victims",
    "candidate_positions",
    "candidate_set_ratio",
    "selections",
    "reselections",
    "collision_count",
    "tb_sent",
    "retransmissions",
    "sender_delivered",
    "receiver_delivered",
    "harq_failures",
    "feedback_sent",
    "feedback_spoofed",
    "feedback_candidates_legit",
    "feedback_flagged",
    "feedback_flagged_legit",
    "links_established",
    "link_failures",
    "replay_rejects",
    "duplicate_sessions",
    "security_discards",
    "policy_mismatches",
    "identifier_refreshes",
    "tracking_precision",
    "tracking_recall",
    "tracking_f1",
    "airtime_overhead_bits",
    "attack_frames_sent",
    "incidents",
]

# counters that also keep a per-bucket series
SERIES_METRICS = (
    "collision_count",
    "retransmissions",
    "sender_delivered",
    "receiver_delivered",
    "link_failures",
    "replay_rejects",
)

# gauges may be absent ("na"); counters default to 0
GAUGE_METRICS = (
    "candidate_set_ratio",
    "tracking_precision",
    "tracking_recall",
    "tracking_f1",
)

# names `bump` accepts
COUNTER_METRICS = frozenset(METRIC_ORDER).difference(GAUGE_METRICS)


def _fmt(value) -> str:
    if value is None:
        return "na"
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


@dataclass
class MetricsReport:
    scenario: str
    seed: int
    bucket_slots: int = 100
    totals: dict = field(default_factory=dict)
    series: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in METRIC_ORDER:
            if name in GAUGE_METRICS:
                self.totals.setdefault(name, None)
            else:
                self.totals.setdefault(name, 0)
        for name in SERIES_METRICS:
            self.series.setdefault(name, [])

    def bump(self, name: str, amount: int = 1, slot: int = 0):
        if name not in COUNTER_METRICS:
            raise KeyError(f"unknown counter metric {name!r}")
        self.totals[name] += amount
        buckets = self.series.get(name)
        if buckets is not None:
            bucket = slot // self.bucket_slots
            while len(buckets) <= bucket:
                buckets.append(0)
            buckets[bucket] += amount

    def gauge(self, name: str, value: float | None):
        if name not in GAUGE_METRICS:
            raise KeyError(f"unknown gauge metric {name!r}")
        self.totals[name] = value

    def check_fold(self):
        """Series totals must fold to the scalar totals."""
        for name, buckets in self.series.items():
            if sum(buckets) != self.totals[name]:
                raise AssertionError(
                    f"{name}: series folds to {sum(buckets)}, total {self.totals[name]}"
                )

    # -- serialization -----------------------------------------------------

    def to_csv(self) -> str:
        self.check_fold()
        lines = [
            f"schema,sidelinksim-metrics,{SCHEMA_VERSION}",
            f"scenario,{self.scenario}",
            f"seed,{self.seed}",
            f"bucket_slots,{self.bucket_slots}",
            "metric,value",
        ]
        for name in METRIC_ORDER:
            lines.append(f"{name},{_fmt(self.totals[name])}")
        for name in SERIES_METRICS:
            joined = ":".join(_fmt(v) for v in self.series[name])
            lines.append(f"series,{name},{joined}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "MetricsReport":
        """Parse to_csv output; a malformed row raises ValueError naming its line."""
        lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln]
        header = lines[0][1].split(",") if lines else []
        if header[:2] != ["schema", "sidelinksim-metrics"] or len(lines) < 5:
            raise ValueError("not a metrics file")
        if header[2:] != [str(SCHEMA_VERSION)]:
            raise ValueError(f"unsupported schema version {','.join(header[2:])!r}")
        scenario, seed, bucket = (_row(n, ln, maxsplit=1)[1] for n, ln in lines[1:4])
        report = cls(scenario, int(seed), int(bucket))
        for n, line in lines[5:]:
            parts = _row(n, line)
            if parts[0] == "series":
                name, joined = parts[1], parts[2] if len(parts) > 2 else ""
                if name not in SERIES_METRICS:
                    raise ValueError(f"line {n}: unknown series metric {name!r}")
                report.series[name] = [_parse(v) for v in joined.split(":") if v != ""]
            elif parts[0] in METRIC_ORDER:
                report.totals[parts[0]] = _parse(parts[1])
            else:
                raise ValueError(f"line {n}: unknown metric {parts[0]!r}")
        return report


def _row(n: int, line: str, maxsplit: int = -1) -> list[str]:
    parts = line.split(",", maxsplit)
    if len(parts) < 2:
        raise ValueError(f"line {n}: {line!r} has no value")
    return parts


def _parse(token: str):
    if token == "na":
        return None
    try:
        return int(token)
    except ValueError:
        return float(token)


def compare(baseline: MetricsReport, other: MetricsReport) -> dict:
    """Per-metric absolute and relative deltas (other minus baseline)."""
    if set(baseline.totals) != set(other.totals):
        raise ValueError("metric sets differ; reports are not comparable")
    deltas = {}
    for name in METRIC_ORDER:
        a, b = baseline.totals[name], other.totals[name]
        if a is None or b is None:
            deltas[name] = (None, None)
            continue
        abs_delta = b - a
        rel = abs_delta / a if a != 0 else None
        deltas[name] = (abs_delta, rel)
    return deltas


def format_compare(deltas: dict) -> str:
    lines = ["metric,delta,relative"]
    for name in METRIC_ORDER:
        abs_delta, rel = deltas[name]
        lines.append(f"{name},{_fmt(abs_delta)},{_fmt(rel)}")
    return "\n".join(lines) + "\n"


if json.encoder.c_make_encoder is None:
    raise ImportError("sidelinksim.metrics needs the C accelerator of the json module (_json)")

# the encoder `json.dumps(event, sort_keys=True, separators=(",", ":"))`
# builds on every call: markers, default, string encoder, indent, key and
# item separators, sort_keys, skipkeys, allow_nan
_ENCODE = json.encoder.c_make_encoder(
    None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii, None,
    ":", ",", True, False, True)


def event_line(event: dict) -> str:
    """One event log line: compact, key-sorted, reproducible.

    The same bytes as `json.dumps(event, sort_keys=True, separators=(",",
    ":"))`, from one prebuilt encoder of the same type and settings; an
    unserializable value raises TypeError as there. Unlike `json.dumps`,
    it does not check for circular references (markers is None), so an
    event that contains itself recurses until RecursionError.
    """
    return "".join(_ENCODE(event, 0))


def write_events(path, events: list[dict]):
    with open(path, "w") as fh:
        fh.writelines(event_line(event) + "\n" for event in events)
