"""Attacker agents: sync-layer spoofing, resource-claim flooding, HARQ
feedback forgery, PC5 signalling exploits and passive id tracking.

Agents interact with the world only through the shared radio path:
they receive what their radio hears of the payload kinds they act on
(`AttackerAgent.hears`) and hand transmissions back for delivery.
The capability sets power, position, timing and key material: timing
jitter draws from the agent's seeded source within the configured
bound, and only an insider holds the beacon key.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum

from .defense import sign_ssb
from .frames import (
    MibSl,
    Pc5Message,
    Pc5MessageKind as K,
    Sci2A,
    SlssIdentity,
    decode_once,
)
from .harq import FEEDBACK_DELAY_SLOTS, DataBurst, FeedbackBurst
from .pc5 import weak_successor
from .radio import MAX_TX_POWER_DBM, Transmission
from .resources import ControlBurst, ResourcePool, announce
from .sync import SSB_PERIOD_SLOTS, SsbBurst

# the SCI 1-A priority of the blocker's claims; no decision reads it
BLOCKER_PRIORITY = 1
# the identity the sync injector claims: GNSS-direct, the top tier
GNSS_DIRECT = SlssIdentity(0, in_coverage=True)


class AttackKind(Enum):
    SYNC_IMPERSONATION = "sync_impersonation"
    FALSE_SYNC_INJECTION = "false_sync_injection"
    RESOURCE_BLOCKING = "resource_blocking"
    HARQ_SPOOF_ACK = "harq_spoof_ack"
    HARQ_SPOOF_NACK = "harq_spoof_nack"
    PC5_FORGED_REJECT = "pc5_forged_reject"
    PC5_AUTH_DISRUPT = "pc5_auth_disrupt"
    PC5_REPLAY = "pc5_replay"
    L2_TRACKING = "l2_tracking"


@dataclass(frozen=True)
class AttackerCapability:
    tx_power_dbm: float = 33.0
    timing_precision_slots: int = 0  # jitter bound; 0 = perfect timing
    has_key: bool = False  # insider: provisioned with the scenario key
    position: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self):
        if self.timing_precision_slots < 0:
            raise ValueError(f"timing_precision_slots {self.timing_precision_slots} below 0")
        if self.tx_power_dbm > MAX_TX_POWER_DBM:
            raise ValueError(f"tx_power_dbm {self.tx_power_dbm} above {MAX_TX_POWER_DBM}")


@dataclass(frozen=True)
class AttackPlan:
    kind: AttackKind
    window: tuple[int, int]  # [start, end) in slots
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        start, end = self.window
        if start < 0 or end < start:
            raise ValueError(f"bad active window {self.window}")


@dataclass
class AttackAction:
    """One injected frame, for the per-attacker action log."""

    slot: int
    kind: str
    power_dbm: float
    outcome: str


class AttackerAgent:
    """Base: window gating, jitter draws, deferred frames, the action log.

    `params` is the plan's parameters over the registry defaults for its
    kind. The world's pool and beacon tag length are public configuration,
    and the beacon period is fixed; the beacon key reaches only an insider.

    `hears` names the payload classes a subclass acts on. Such a subclass
    defines `on_receptions(receptions, slot)`, and the world calls it with
    each slot's non-empty list of `radio.Reception` pairs heard, each of a
    kind in `hears`: no reception of another kind is built for the agent.
    An agent that hears nothing is never a reader, so it has no
    `on_receptions`. Everything an agent later forges it must hear there.
    """

    hears: tuple[type, ...] = ()

    def __init__(self, attacker_id: int, capability: AttackerCapability, plan: AttackPlan,
                 rng: random.Random, pool: ResourcePool, ssb_key: bytes, tag_bits: int):
        self.id = attacker_id
        self.cap = capability
        self.plan = plan
        self.kind = plan.kind
        self.params = {
            name: spec.default for name, spec in ATTACK_REGISTRY[plan.kind][1].items()
        } | plan.params
        self.rng = rng
        self.pool = pool
        self.ssb_key = ssb_key if capability.has_key else None
        self.tag_bits = tag_bits
        self.actions: list[AttackAction] = []
        # emit slot -> payloads due then; None marks a frame whose slot
        # had already passed when it was scheduled
        self._queue: dict[int, list[object | None]] = {}

    def active(self, slot: int) -> bool:
        start, end = self.plan.window
        return start <= slot < end

    def jitter(self) -> int:
        bound = self.cap.timing_precision_slots
        return self.rng.randint(-bound, bound) if bound else 0

    def _log(self, slot: int, outcome: str):
        self.actions.append(AttackAction(slot, self.kind.value, self.cap.tx_power_dbm, outcome))

    def _tx(self, slot: int, payload) -> Transmission:
        self._log(slot, "sent")
        return Transmission(self.id, self.cap.tx_power_dbm, payload)

    def _schedule(self, slot: int, emit: int, payload):
        """Queue a frame for `emit`. Scheduling happens after this slot's
        transmissions, so a frame due now or earlier has missed its window,
        and the next slot logs it as missed."""
        if emit <= slot:
            emit, payload = slot + 1, None
        self._queue.setdefault(emit, []).append(payload)

    def _ssb(self, slot: int, slss: SlssIdentity, tdd_config: int,
             in_coverage: bool) -> SsbBurst:
        """A beacon for `slot`, its tag of the configured length valid only from an insider."""
        mib = MibSl.at(slot, tdd_config, in_coverage)
        if self.ssb_key is not None:
            tag = sign_ssb(self.ssb_key, slss.slss_id, mib.encode(), self.tag_bits)
        else:
            tag = self.rng.getrandbits(self.tag_bits).to_bytes(self.tag_bits // 8, "big").hex()
        return SsbBurst(slss=slss, mib=mib, auth_tag=tag)

    # hooks ---------------------------------------------------------------

    def transmissions(self, slot: int) -> list[Transmission]:
        out = []
        for payload in self._queue.pop(slot, ()):
            if payload is None:
                self._log(slot, "missed_window")
            else:
                out.append(self._tx(slot, payload))
        return out

    def next_due(self, after: int) -> int | float:
        """First slot from `after` on in which `transmissions` does anything
        (sends, logs or draws), until a reception adds work; math.inf for
        none. The world calls `transmissions` for every slot it visits, so
        no queued slot is ever left behind."""
        return min(self._queue, default=math.inf)


# ---------------------------------------------------------------------------
# synchronization attacks


class SyncImpersonationAgent(AttackerAgent):
    """Clones the strongest legitimate SyncRef it has heard and rebroadcasts
    that identity louder, on the victim's burst phase."""

    hears = (SsbBurst,)

    def __init__(self, *args):
        super().__init__(*args)
        self._best: tuple[float, SsbBurst, int] | None = None  # (rsrp, burst, slot)

    def on_receptions(self, receptions, slot):
        for tx, rsrp in receptions:
            if self._best is None or rsrp > self._best[0]:
                self._best = (rsrp, tx.payload, slot)

    def transmissions(self, slot):
        if not self.active(slot) or self._best is None:
            return []
        _, burst, heard_slot = self._best
        if slot % SSB_PERIOD_SLOTS != heard_slot % SSB_PERIOD_SLOTS:
            return []
        clone = self._ssb(slot, burst.slss, burst.mib.tdd_config, burst.mib.in_coverage)
        return [self._tx(slot, clone)]

    def next_due(self, after):
        """The heard burst's phase inside the window, once one is heard."""
        if self._best is None:
            return math.inf
        start, end = self.plan.window
        slot = max(after, start)
        slot += (self._best[2] - slot) % SSB_PERIOD_SLOTS
        return slot if slot < end else math.inf


class FalseSyncInjectionAgent(AttackerAgent):
    """Fabricates the top-tier sync identity, the GNSS-direct id 0 with the
    coverage indicator raised, and beacons it at high power."""

    def transmissions(self, slot):
        if not self.active(slot):
            return []
        planned = slot + self.jitter()
        if planned % SSB_PERIOD_SLOTS != 0 or planned < 0:
            return []
        # TDD pattern 0, as every UE sends: no receiver reads the field
        burst = self._ssb(slot, GNSS_DIRECT, 0, in_coverage=True)
        return [self._tx(slot, burst)]

    def next_due(self, after):
        """Every slot of the window under jitter, which is drawn in each;
        with perfect timing only the beacon slots."""
        start, end = self.plan.window
        slot = max(after, start)
        if not self.cap.timing_precision_slots:
            slot += -slot % SSB_PERIOD_SLOTS
        return slot if slot < end else math.inf


# ---------------------------------------------------------------------------
# resource blocking


class ResourceBlockingAgent(AttackerAgent):
    """Floods control signalling that reserves a configured fraction of the
    pool at the maximum reservation interval, refreshing each interval so
    victims keep sensing the cells as taken. Control-only: the frames carry
    no data payload and occupy no subchannel physically."""

    def __init__(self, *args):
        super().__init__(*args)
        # [next refresh slot, encoded claim] per claimed cell, built at the first claim slot
        self._cells: list[list] | None = None
        self._next_due: int | float = math.inf  # the earliest refresh slot

    def transmissions(self, slot):
        if not self.active(slot):
            return []
        pool = self.pool
        rri_ms = self.params["rri_ms"]
        if self._cells is None:
            n, period = pool.num_subchannels, pool.slots_per_selection_window
            take = round(self.params["claim_fraction"] * period * n)
            self._cells = [
                [slot + (i // n - slot) % period,
                 announce(pool, i % n, 1, rri_ms, BLOCKER_PRIORITY).encode(pool)]
                for i in range(take)
            ]
            self._next_due = min((due for due, _ in self._cells), default=math.inf)
        if slot < self._next_due:
            return []
        out = []
        for cell in self._cells:
            if slot < cell[0]:
                continue
            cell[0] += rri_ms
            if self.jitter():
                # jitter pushed the frame off its intended slot; it would
                # claim the wrong pool position, so the injection is wasted
                self._log(slot, "missed_window")
            else:
                out.append(self._tx(slot, ControlBurst(sci1_bits=cell[1])))
        self._next_due = min(due for due, _ in self._cells)
        return out

    def next_due(self, after):
        """The window's first slot, where the cells are laid out; then the
        earliest refresh."""
        slot = max(after, self.plan.window[0] if self._cells is None else self._next_due)
        return slot if slot < self.plan.window[1] else math.inf


# ---------------------------------------------------------------------------
# HARQ feedback spoofing


class HarqSpoofAgent(AttackerAgent):
    """Watches data-channel control stages for HARQ process ids, then races
    the legitimate receiver's feedback with a louder forgery: an ACK or a
    NACK, by the plan's kind, for every HARQ TB it hears in its window."""

    hears = (DataBurst,)

    def __init__(self, *args):
        super().__init__(*args)
        self._sci2a: dict = {}  # SCI 2-A payloads heard, each decoded once

    def on_receptions(self, receptions, slot):
        if not self.active(slot):
            return
        for tx, _ in receptions:
            burst = tx.payload
            sci2 = decode_once(self._sci2a, Sci2A.decode, burst.sci2_bits)
            if sci2 is None or not sci2.harq_enabled:
                continue
            offset = self.params["slot_offset"]
            emit = slot + FEEDBACK_DELAY_SLOTS + offset + self.jitter()
            forged = FeedbackBurst(
                ack=self.kind == AttackKind.HARQ_SPOOF_ACK,
                harq_process_id=sci2.harq_process_id,
                src_l2=burst.mac_dst_l2,  # claims to be the true receiver
                dst_l2=burst.mac_src_l2,
                spoofed=True,
            )
            self._schedule(slot, emit, forged)


# ---------------------------------------------------------------------------
# PC5 signalling exploits


class _ReactiveForger(AttackerAgent):
    """Forge an unprotected abort at whoever just took a handshake step.

    The forger works from headers alone (kind, source, destination); it
    never reads message bodies, so it cannot echo a victim's nonce.
    """

    hears = (Pc5Message,)

    watch_kind: K
    forge_kind: K
    cause: str
    # which side gets hit: "requester" forges toward the observed source,
    # "responder" toward the observed destination
    target_side: str

    def on_receptions(self, receptions, slot):
        if not self.active(slot):
            return
        for tx, _ in receptions:
            msg = tx.payload
            if msg.kind != self.watch_kind:
                continue
            if self.target_side == "requester":
                victim, impersonated = msg.src_l2, msg.dst_l2
            else:
                victim, impersonated = msg.dst_l2, msg.src_l2
            emit = slot + 1 + max(self.jitter(), 0)
            forged = Pc5Message(self.forge_kind, impersonated, victim, counter=0,
                                body={"cause": self.cause, "ts": emit})
            self._schedule(slot, emit, forged)

    def transmissions(self, slot):
        # the real nonce was in a body this agent does not parse, so it
        # guesses, drawing the guess as the frame goes out
        for forged in self._queue.get(slot, ()):
            if forged is not None:
                forged.body["echo_nonce"] = self.rng.randbytes(16).hex()
        return super().transmissions(slot)


class Pc5ForgedRejectAgent(_ReactiveForger):
    watch_kind = K.ESTABLISHMENT_REQUEST
    forge_kind = K.ESTABLISHMENT_REJECT
    cause = "congestion"
    target_side = "requester"


class Pc5AuthDisruptAgent(_ReactiveForger):
    watch_kind = K.AUTHENTICATION_REQUEST
    forge_kind = K.AUTHENTICATION_REJECT
    cause = "auth_disrupt"
    target_side = "responder"  # the challenged initiator is the dst of the challenge


class Pc5ReplayAgent(AttackerAgent):
    """Captures establishment requests and re-emits them verbatim later,
    without interpreting them. A replay due outside the active window, or
    already past when captured, is dropped."""

    hears = (Pc5Message,)

    def on_receptions(self, receptions, slot):
        if not self.active(slot):
            return
        delay = self.params["replay_delay_slots"]
        for tx, _ in receptions:
            msg = tx.payload
            if msg.kind != K.ESTABLISHMENT_REQUEST:
                continue
            emit = slot + delay + self.jitter()
            if emit > slot and self.active(emit):
                self._schedule(slot, emit, msg)


# ---------------------------------------------------------------------------
# passive layer-2 tracking


RSRP_QUANTUM_DB = 0.5
# the power fallback links an id to one that vanished at most this many
# slots before it appeared, at a mean power at most this far from its own
LINKAGE_WINDOW_SLOTS = 50
RSRP_SIMILARITY_DB = 3.0


@dataclass
class _IdTrace:
    first_seen: int
    last_seen: int
    rsrp_sum: float = 0.0
    samples: int = 0

    @property
    def mean_rsrp(self) -> float:
        raw = self.rsrp_sum / self.samples
        return round(raw / RSRP_QUANTUM_DB) * RSRP_QUANTUM_DB


class TrackerAgent(AttackerAgent):
    """Passive capture of cleartext MAC source ids; links an id to the
    earlier id it is the predictable increment of, however long apart,
    and otherwise to one that disappeared within the window at similar
    power."""

    hears = (DataBurst, Pc5Message)

    def __init__(self, *args):
        super().__init__(*args)
        self.traces: dict[int, _IdTrace] = {}

    def on_receptions(self, receptions, slot):
        if not self.active(slot):
            return
        for tx, rsrp in receptions:
            burst = tx.payload
            src = burst.mac_src_l2 if type(burst) is DataBurst else burst.src_l2
            t = self.traces.get(src)
            if t is None:
                t = self.traces[src] = _IdTrace(slot, slot)
            t.last_seen = max(t.last_seen, slot)
            t.rsrp_sum += rsrp
            t.samples += 1

    def link(self) -> list[set[int]]:
        """Cluster observed ids into per-UE hypotheses."""
        parent = {i: i for i in self.traces}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            parent[find(a)] = find(b)

        by_first = sorted(self.traces.items(), key=lambda kv: (kv[1].first_seen, kv[0]))
        for new_id, new_trace in by_first:
            earlier = [(old_id, old_trace) for old_id, old_trace in self.traces.items()
                       if old_trace.last_seen < new_trace.first_seen]
            # a +1 id links whatever the gap: the weak scheme names its predecessor
            increment = [o for o, _ in earlier if weak_successor(o) == new_id]
            if increment:
                union(new_id, increment[0])
                continue
            near = [
                (abs(t.mean_rsrp - new_trace.mean_rsrp), -t.last_seen, o)
                for o, t in earlier
                if new_trace.first_seen - t.last_seen <= LINKAGE_WINDOW_SLOTS
                and abs(t.mean_rsrp - new_trace.mean_rsrp) <= RSRP_SIMILARITY_DB
            ]
            if near:
                near.sort()
                union(new_id, near[0][2])
        clusters: dict[int, set[int]] = {}
        for i in self.traces:
            clusters.setdefault(find(i), set()).add(i)
        return list(clusters.values())

    def report(self, truth: dict[int, int]) -> dict[str, float]:
        """Precision/recall/F1 of same-UE id pairs against ground truth.

        truth maps each observed id to the stable UE that used it.
        """
        predicted = pairs_from_clusters(self.link())
        actual = pairs_from_truth(truth)
        return precision_recall_f1(predicted, actual)


def pairs_from_clusters(clusters: list[set[int]]) -> set[tuple[int, int]]:
    out = set()
    for cluster in clusters:
        members = sorted(cluster)
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                out.add((a, b))
    return out


def pairs_from_truth(truth: dict[int, int]) -> set[tuple[int, int]]:
    by_ue: dict[int, list[int]] = {}
    for observed_id, ue in truth.items():
        by_ue.setdefault(ue, []).append(observed_id)
    clusters = [set(ids) for ids in by_ue.values()]
    return pairs_from_clusters(clusters)


def precision_recall_f1(predicted: set, actual: set) -> dict[str, float]:
    if not predicted and not actual:
        return {"precision": 1.0, "recall": 1.0, "f1": 1.0}
    hits = len(predicted & actual)
    precision = hits / len(predicted) if predicted else 1.0
    recall = hits / len(actual) if actual else 1.0
    if precision + recall == 0:
        return {"precision": 0.0, "recall": 0.0, "f1": 0.0}
    return {
        "precision": precision,
        "recall": recall,
        "f1": 2 * precision * recall / (precision + recall),
    }


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class ParamSpec:
    default: object
    help: str
    lo: float | None = None  # inclusive bounds; None leaves that side open
    hi: float | None = None

    def bounds(self) -> str:
        """`lo..hi` with an open side left blank; empty when unbounded."""
        if self.lo is None and self.hi is None:
            return ""
        return f"{'' if self.lo is None else self.lo}..{'' if self.hi is None else self.hi}"

    def range_error(self, value) -> str | None:
        """Why `value` (already of the right type) is out of bounds, or None."""
        if (self.lo is None or value >= self.lo) and (self.hi is None or value <= self.hi):
            return None
        return f"{value} outside {self.bounds()}"


_HARQ_SPOOF_PARAMS = {
    "slot_offset": ParamSpec(0, "extra slots past the feedback deadline"),
}

ATTACK_REGISTRY: dict[AttackKind, tuple[type[AttackerAgent], dict[str, ParamSpec]]] = {
    AttackKind.SYNC_IMPERSONATION: (SyncImpersonationAgent, {}),
    AttackKind.FALSE_SYNC_INJECTION: (FalseSyncInjectionAgent, {}),
    AttackKind.RESOURCE_BLOCKING: (ResourceBlockingAgent, {
        "claim_fraction": ParamSpec(0.75, "fraction of pool cells to claim", 0, 1),
        "rri_ms": ParamSpec(1000, "reservation interval advertised on each claim, "
                                  "one of pool.period_list_ms"),
    }),
    AttackKind.HARQ_SPOOF_ACK: (HarqSpoofAgent, _HARQ_SPOOF_PARAMS),
    AttackKind.HARQ_SPOOF_NACK: (HarqSpoofAgent, _HARQ_SPOOF_PARAMS),
    AttackKind.PC5_FORGED_REJECT: (Pc5ForgedRejectAgent, {}),
    AttackKind.PC5_AUTH_DISRUPT: (Pc5AuthDisruptAgent, {}),
    AttackKind.PC5_REPLAY: (Pc5ReplayAgent, {
        "replay_delay_slots": ParamSpec(40, "slots between capture and re-emission", 0),
    }),
    AttackKind.L2_TRACKING: (TrackerAgent, {}),
}


def build_attacker(attacker_id: int, capability: AttackerCapability, plan: AttackPlan,
                   rng: random.Random, *, pool: ResourcePool, ssb_key: bytes,
                   tag_bits: int) -> AttackerAgent:
    cls, param_spec = ATTACK_REGISTRY[plan.kind]
    unknown = set(plan.params) - set(param_spec)
    if unknown:
        raise ValueError(f"unknown parameters for {plan.kind.value}: {sorted(unknown)}")
    return cls(attacker_id, capability, plan, rng, pool, ssb_key, tag_bits)
