"""Scenario files: schema, strict validation, loading.

A scenario is a YAML mapping with sections for the channel, the
resource pool, sync parameters, UEs, traffic flows, unicast links,
attacks and defense toggles. Each section's keys, value types and
defaults are the fields of the dataclass it builds. Unknown keys and
wrongly typed values anywhere are errors; all problems are collected
and reported together with their paths.
"""

from __future__ import annotations

import functools
import math
import re
import types
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import EnumMeta
from pathlib import Path

import yaml

from .adversary import ATTACK_REGISTRY, AttackKind, AttackerCapability, AttackPlan
from .defense import DefenseConfig
from .pc5 import SecurityPolicy
from .radio import MAX_TX_POWER_DBM, ChannelModel
from .resources import ResourcePool
from .sync import SyncConfig

MAX_SEED = (1 << 64) - 1
ATTACKER_ID_BASE = 9000
UE_ROLES = ("legit", "gnode_b", "gnss_visible")
# libyaml's C loader where pyyaml was built with it. It shares SafeLoader's
# constructor and resolver, so both build the same objects from a file.
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioError(ValueError):
    def __init__(self, problems: list[str]):
        super().__init__("\n".join(problems))
        self.problems = problems


@dataclass(frozen=True)
class UeSpec:
    id: int
    position: tuple[float, float] = (0.0, 0.0)
    velocity: tuple[float, float] = (0.0, 0.0)
    role: str = "legit"
    network_sync_ref: bool = False
    tx_power_dbm: float = 23.0
    policy: SecurityPolicy = field(default_factory=SecurityPolicy)


@dataclass(frozen=True)
class TrafficFlow:
    src: int
    dst: int | str  # ue id or "broadcast"
    period_slots: int
    size_bytes: int = 300
    start_slot: int = 0
    rri_ms: int = 100
    harq: bool = True
    priority: int = 3


@dataclass(frozen=True)
class LinkSpec:
    initiator: int
    responder: int
    start_slot: int = 0


@dataclass(frozen=True)
class AttackSpec:
    plan: AttackPlan
    capability: AttackerCapability


@dataclass(frozen=True)
class Scenario:
    name: str
    seed: int
    duration_slots: int
    channel: ChannelModel
    pool: ResourcePool
    sync: SyncConfig
    ues: tuple[UeSpec, ...]
    traffic: tuple[TrafficFlow, ...] = ()
    links: tuple[LinkSpec, ...] = ()
    attacks: tuple[AttackSpec, ...] = ()
    defenses: DefenseConfig = field(default_factory=DefenseConfig)


# ---------------------------------------------------------------------------
# validation machinery


class _Errors:
    def __init__(self):
        self.items: list[str] = []

    def add(self, path: str, msg: str):
        self.items.append(f"{path}: {msg}")

    def raise_if_any(self):
        if self.items:
            raise ScenarioError(self.items)


def _mapping(raw, path: str, errs: _Errors) -> dict:
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        errs.add(path, f"expected a mapping, got {type(raw).__name__}")
        return {}
    return raw


def _list(raw, path: str, errs: _Errors) -> list:
    if raw is None:
        return []
    if not isinstance(raw, list):
        errs.add(path, f"expected a list, got {type(raw).__name__}")
        return []
    return raw


def _number(value) -> float:
    """`value` as a float; it must already be an int or a float."""
    if (problem := _type_error(value, float)) is not None:
        raise TypeError(problem)
    return float(value)


def _pair(raw) -> tuple[float, float]:
    if raw is None:
        return 0.0, 0.0
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ValueError("expected a pair [x, y]")
    return _number(raw[0]), _number(raw[1])


def _ints(raw) -> tuple[int, ...]:
    if not isinstance(raw, (list, tuple)) or any(_type_error(v, int) for v in raw):
        raise TypeError("expected a list of integers")
    return tuple(raw)


@functools.cache
def _schema(cls) -> tuple[dict[str, object], frozenset[str], tuple[str, ...]]:
    """Per dataclass `cls`: the resolved annotation of each field, the fields
    that are nested sections or enums, and the fields with no default."""
    hints = typing.get_type_hints(cls)
    hints = {f.name: hints[f.name] for f in fields(cls)}
    nested = frozenset(name for name, hint in hints.items()
                       if is_dataclass(hint) or isinstance(hint, EnumMeta))
    required = tuple(f.name for f in fields(cls)
                     if f.default is MISSING and f.default_factory is MISSING)
    return hints, nested, required


@functools.cache
def _accepted(hint) -> tuple[type, ...]:
    """Runtime types a value annotated `hint` may have; a float also takes an int."""
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    out: list[type] = []
    for arg in typing.get_args(hint) if union else (hint,):
        out.extend((int, float) if arg is float else (arg,))
    return tuple(out)


def _type_error(value, hint) -> str | None:
    """Why `value` does not fit annotation `hint`, or None if it does.

    Values are never converted. The value's own type must be one the hint
    names (or int for float), so a bool fits only where bool is named. A
    float must be finite: nothing downstream takes an infinity or a NaN.
    """
    if type(value) not in _accepted(hint):
        return f"expected {getattr(hint, '__name__', hint)}, got {type(value).__name__}"
    if type(value) is float and not math.isfinite(value):
        return f"must be finite, got {value}"
    return None


def _section(cls, raw, path: str, errs: _Errors, casts: dict | None = None):
    """Build dataclass `cls` from mapping `raw`, or record why not and return None.

    Keys are the field names; an absent key keeps its field default. A field
    that is itself a dataclass is parsed as a nested section, an enum field
    takes one of the enum's values, and a key in `casts` is checked and
    converted by its cast. Any other value must already have the field's
    annotated type. A bad key or value is recorded and left out, so the rest
    of the section is still checked.
    """
    raw = _mapping(raw, path, errs)
    hints, nested, required = _schema(cls)
    kwargs = {}
    for key, value in raw.items():
        at = f"{path}.{key}"
        hint = hints.get(key)
        if hint is None:
            errs.add(at, "unknown key")
        elif casts and key in casts:
            try:
                kwargs[key] = casts[key](value)
            except (TypeError, ValueError) as exc:
                errs.add(at, str(exc))
        elif key not in nested:
            if (problem := _type_error(value, hint)) is None:
                kwargs[key] = value
            else:
                errs.add(at, problem)
        elif is_dataclass(hint):
            kwargs[key] = _section(hint, value, at, errs) or hint()
        else:
            try:
                kwargs[key] = hint(value)
            except ValueError:
                errs.add(at, f"must be one of {[m.value for m in hint]}")
    missing = [name for name in required if name not in kwargs]
    for name in missing:
        if name not in raw:
            errs.add(f"{path}.{name}", "required")
    if missing:
        return None
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        errs.add(path, str(exc))
        return None


# ---------------------------------------------------------------------------
# section parsers


_POOL_CASTS = {"period_list_ms": _ints}

_UE_CASTS = {"position": _pair, "velocity": _pair, "tx_power_dbm": _number}

_ATTACK_KEYS = {"kind", "window", "capability", "params"}


def _parse_ue(raw, path: str, errs: _Errors) -> UeSpec | None:
    ue = _section(UeSpec, raw, path, errs, _UE_CASTS)
    if ue is None:
        return None
    if not 0 <= ue.id < ATTACKER_ID_BASE:
        errs.add(f"{path}.id", f"must lie in [0, {ATTACKER_ID_BASE})")
    if ue.role not in UE_ROLES:
        errs.add(f"{path}.role", f"must be one of {UE_ROLES}")
    if ue.tx_power_dbm > MAX_TX_POWER_DBM:
        errs.add(f"{path}.tx_power_dbm", f"{ue.tx_power_dbm} above {MAX_TX_POWER_DBM}")
    return ue


def _parse_traffic(raw, path: str, errs: _Errors, ue_ids: set[int],
                   pool: ResourcePool | None) -> TrafficFlow | None:
    flow = _section(TrafficFlow, raw, path, errs)
    if flow is None:
        return None
    if flow.src not in ue_ids:
        errs.add(f"{path}.src", f"unknown UE id {flow.src}")
    if flow.dst != "broadcast" and flow.dst not in ue_ids:
        errs.add(f"{path}.dst", f"unknown UE id {flow.dst}")
    if flow.src == flow.dst:
        errs.add(f"{path}.dst", "flow source and destination must differ")
    if flow.period_slots < 1:
        errs.add(f"{path}.period_slots", "must be positive")
    if pool is not None and flow.rri_ms not in pool.period_list_ms:
        errs.add(f"{path}.rri_ms",
                 f"{flow.rri_ms} not in pool period list {pool.period_list_ms}")
    if not 0 <= flow.priority <= 7:
        errs.add(f"{path}.priority", "must lie in [0, 7]")
    if flow.dst == "broadcast" and flow.harq:
        errs.add(f"{path}.harq", "broadcast flows cannot request feedback")
    return flow


def _parse_attack(raw, path: str, errs: _Errors, pool: ResourcePool | None) -> AttackSpec | None:
    raw = _mapping(raw, path, errs)
    for key in raw:
        if key not in _ATTACK_KEYS:
            errs.add(f"{path}.{key}", "unknown key")
    if "kind" not in raw:
        errs.add(f"{path}.kind", "required")
        return None
    try:
        kind = AttackKind(raw["kind"])
    except ValueError:
        errs.add(f"{path}.kind",
                 f"unknown attack {raw['kind']!r}; see list-attacks")
        return None
    window_raw = raw.get("window")
    if (not isinstance(window_raw, (list, tuple)) or len(window_raw) != 2
            or any(_type_error(v, int) for v in window_raw)):
        errs.add(f"{path}.window", "required pair of integer slots [start, end)")
        return None
    capability = _section(AttackerCapability, raw.get("capability"),
                          f"{path}.capability", errs,
                          {"position": _pair}) or AttackerCapability()
    params = _mapping(raw.get("params"), f"{path}.params", errs)
    _, param_spec = ATTACK_REGISTRY[kind]
    for key, value in params.items():
        if key not in param_spec:
            errs.add(f"{path}.params.{key}",
                     f"unknown parameter for {kind.value}")
            continue
        # a parameter takes the type of its default (a None default takes an
        # int) and lies within its bounds
        spec = param_spec[key]
        problem = (_type_error(value, int | None if spec.default is None else type(spec.default))
                   or spec.range_error(value))
        if (problem is None and key == "rri_ms" and pool is not None
                and value not in pool.period_list_ms):
            problem = f"{value} not in pool period list {pool.period_list_ms}"
        if problem is not None:
            errs.add(f"{path}.params.{key}", problem)
    try:
        plan = AttackPlan(kind, tuple(window_raw), dict(params))
    except ValueError as exc:
        errs.add(f"{path}.window", str(exc))
        return None
    return AttackSpec(plan=plan, capability=capability)


# ---------------------------------------------------------------------------
# top level


# the control characters (Unicode category Cc) and the line and paragraph
# separators: every character str.splitlines breaks on is among them, so a
# name without them stays on its one metrics.csv row
_NAME_BREAKS = re.compile(r"[\x00-\x1f\x7f-\x9f\u2028\u2029]")


def parse_scenario(raw: dict, default_name: str = "scenario") -> Scenario:
    errs = _Errors()
    raw = _mapping(raw, "scenario", errs)
    top_keys, _, _ = _schema(Scenario)
    for key in raw:
        if key not in top_keys:
            errs.add(f"scenario.{key}", "unknown key")

    name = raw.get("name", default_name)
    if (problem := _type_error(name, str)) is not None:
        errs.add("scenario.name", problem)
        name = default_name
    elif _NAME_BREAKS.search(name):
        errs.add("scenario.name", f"{name!r} holds a line break or control character")
    seed = raw.get("seed", 0)
    if _type_error(seed, int) or not 0 <= seed <= MAX_SEED:
        errs.add("scenario.seed", "must be an integer in [0, 2^64)")
        seed = 0
    duration = raw.get("duration_slots")
    if _type_error(duration, int) or duration <= 0:
        errs.add("scenario.duration_slots", "required positive integer")
        duration = 1

    channel = _section(ChannelModel, raw.get("channel"), "scenario.channel",
                       errs) or ChannelModel()
    # a refused pool section is None here: no rri_ms is checked against it
    parsed_pool = _section(ResourcePool, raw.get("pool"), "scenario.pool", errs, _POOL_CASTS)
    pool = parsed_pool or ResourcePool()
    sync = _section(SyncConfig, raw.get("sync"), "scenario.sync", errs) or SyncConfig()

    ues: list[UeSpec] = []
    seen_ids: set[int] = set()
    raw_ues = _list(raw.get("ues"), "scenario.ues", errs)
    if not raw_ues:
        errs.add("scenario.ues", "at least one UE is required")
    for i, entry in enumerate(raw_ues):
        ue = _parse_ue(entry, f"scenario.ues[{i}]", errs)
        if ue is None:
            continue
        if ue.id in seen_ids:
            errs.add(f"scenario.ues[{i}].id", f"duplicate UE id {ue.id}")
            continue
        seen_ids.add(ue.id)
        ues.append(ue)

    traffic: list[TrafficFlow] = []
    for i, entry in enumerate(_list(raw.get("traffic"), "scenario.traffic", errs)):
        flow = _parse_traffic(entry, f"scenario.traffic[{i}]", errs, seen_ids, parsed_pool)
        if flow is not None:
            traffic.append(flow)

    links: list[LinkSpec] = []
    for i, entry in enumerate(_list(raw.get("links"), "scenario.links", errs)):
        path = f"scenario.links[{i}]"
        link = _section(LinkSpec, entry, path, errs)
        if link is None:
            continue
        for side in ("initiator", "responder"):
            if getattr(link, side) not in seen_ids:
                errs.add(f"{path}.{side}", f"unknown UE id {getattr(link, side)}")
        if link.initiator == link.responder:
            errs.add(path, "link endpoints must differ")
        if link.start_slot < 0:
            errs.add(f"{path}.start_slot", "must not be negative")
        links.append(link)

    attacks: list[AttackSpec] = []
    trackers = []  # the paths of the l2_tracking attacks
    for i, entry in enumerate(_list(raw.get("attacks"), "scenario.attacks", errs)):
        path = f"scenario.attacks[{i}]"
        spec = _parse_attack(entry, path, errs, parsed_pool)
        if spec is not None:
            attacks.append(spec)
            if spec.plan.kind is AttackKind.L2_TRACKING:
                trackers.append(path)
    for path in trackers[1:]:  # metrics.csv has one set of tracking gauges
        errs.add(f"{path}.kind", "a second l2_tracking attack; a run scores one "
                                 f"tracker, the one at {trackers[0]}")

    defenses = _section(DefenseConfig, raw.get("defenses"), "scenario.defenses",
                        errs) or DefenseConfig()
    privacy = defenses.privacy_randomizer
    if privacy.enabled and round(privacy.timer_ms) < 1:
        # the world refreshes identifiers every that many 1 ms slots
        errs.add("scenario.defenses.privacy_randomizer.timer_ms",
                 f"{privacy.timer_ms} ms rounds to no whole 1 ms slot; "
                 "an enabled randomizer needs at least one")

    errs.raise_if_any()
    return Scenario(
        name=name,
        seed=seed,
        duration_slots=duration,
        channel=channel,
        pool=pool,
        sync=sync,
        ues=tuple(ues),
        traffic=tuple(traffic),
        links=tuple(links),
        attacks=tuple(attacks),
        defenses=defenses,
    )


def load_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file.

    The loader decodes the bytes itself, so a file that is not UTF-8 is a
    ScenarioError like any other malformed YAML. OSError from reading the
    file propagates.
    """
    path = Path(path)
    try:
        raw = yaml.load(path.read_bytes(), Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ScenarioError([f"{path}: {exc}"]) from exc
    return parse_scenario(raw, default_name=path.stem)
