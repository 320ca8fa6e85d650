"""World assembly and the per-slot simulation loop.

Slot phases, in order: identifier-privacy epochs, UE actions
(sync bursts, sync evaluation, PC5 signalling, traffic), attacker
actions, radio delivery, reception dispatch, feedback closure.
Every random draw comes from a child generator derived from the run
seed and a fixed label, so a (scenario, seed) pair replays exactly.

Idle UEs are skipped. Each UE keeps two due slots: `sync_at`, the next
slot in which its sync step (prune, rank, S-SSB) has work
(`UeAgent.sync_due`), and `wake`, the next slot with any other work
(`UeAgent.next_wake`). The loop calls `act` and `close_feedback` for a
UE whose wake has come; `act` runs the sync step first, but only if
sync_at has come too, and the PC5 step only while the UE has a link or
a link start pending. A UE whose sync_at alone has come runs just its
sync step, in the same agent order. A sync step ranks the SyncRef
candidates only after the buffer changed, and once more after a first
lock under an entry margin (`UeAgent._rank_sync_ref`); an S-SSB that
repeats the entry it refreshes (same identity, power and sender) is no
change (`CandidateBuffer.note`). At the end of the slot each due slot
that has come is recomputed. A reception that adds work pulls a due slot
forward: a changed sync buffer the sync_at; an outbox entry, a feedback
candidate or a handled PC5 message the wake. Identifier-privacy epochs
run only in epoch slots. A slot with nothing on air skips delivery, and
only moving nodes get their positions recomputed.

Idle slots are skipped too. A slot in which no UE stepped and nothing
went on air changed nothing, so the loop jumps from it straight to the
next due slot (`World._next_due`): the earliest UE wake or sync_at,
privacy epoch slot and attacker `next_due`. Every other slot goes on to
the next one, so the minimum is taken only where it can skip something.

Reception costs one cached path-loss row per sender: the world keeps
the rows `deliver` builds and drops them all in any slot in which a
node moves. `deliver` works a slot in three passes: a row of levels per
transmission, the capture contest (found once per slot, not per
receiver) on those rows, then the receptions, read from the rows. Each
slot draws the shadowing uniforms of every (transmission, receiver)
pair in one go, in pair order, so the channel stream does not depend on
who reads; a lazy row computes a level only when it is read. A
reception is a plain `(transmission, rsrp_dbm)` pair, built only for a
node that acts on it, and an attacker is a reader only of the kinds it
hears (`AttackerAgent.hears`, `World.hearers`). Addressed data, PSFCH
feedback and PC5 messages go to the UEs holding the destination layer-2
id and the attackers that hear the kind (`World.l2_readers`, one map per
kind, rebuilt after identifiers change); on a lossy channel broadcast
data goes to every UE, each drawing its own CRC, and the data hearers.
Control, lossless broadcast data and S-SSBs go to the attackers that
hear the kind alone. Every UE reads an S-SSB from its row instead:
S-SSBs are rowed, so `deliver` returns each burst's levels as a dict,
and `World._note_ssb` notes each UE's candidate from it in `positions`
order, checking a signed burst's tag once.

Sensing is kept once per world: for each SCI-bearing transmission
`deliver` returns a row, read through `row.get(node)` (the level the
node kept, or None), and the world logs `(slot, shape, row)` for each
one whose SCI 1-A decodes into a claim shape. A row is a dict when its
levels were computed anyway (lossy broadcast data, which is rowed, or
a transmission in a capture contest); otherwise it is a
`radio.LazyRow`, which computes a level when `get` asks for it, so the
levels no reselection reads are never computed. Delivery is kept once
per world too, in one ledger, `World.delivered`: TB id -> bitmask of
the UEs that have it. A TB counts once per UE, the first time the UE
gets it: from its row for lossless broadcast data, and from
`_receive_data` otherwise; every run ends by checking that the ledger's
bits sum to `receiver_delivered`. For a lazy row the mask of the UEs surely
above the noise floor, whatever their draw, is kept with the path-loss
row (`LazyRow.kept_bits`), and only the UEs near the floor are computed. A
reselection reads its own column of the log, cut to the sensing window
and to `World.sensing_reach` (the largest `ClaimShape.lifetime` decoded
so far) before the selection window. Each slot on air cuts it too: the
reach only grows, and an entry's claim lifetime is at most the reach
when it was heard, so a cut entry is dead to later windows.

A TB's control costs scale with distinct claims and headers, not with
transmissions or grants: SCI 1-A is encoded once per distinct grant
claim (span, rri and priority, `World.sci1a_bits`), SCI 2-A once per
distinct header, and each distinct SCI 1-A payload is decoded once per
world. An SCI 1-A payload decodes straight into the `ClaimShape` it
claims (`World.sci1a_cache`), which the sensing log holds and `sense`
projects, so a reselection decodes no claim. A header the world encodes
is filed under its bits in `World.sci2a_cache` too, so no receiver
decodes it; every addressed receiver of an SCI 2-A payload shares its
frozen header.

Every sent TB gets one `TbOutcome` in `World.tb_log`: a TB without
feedback ("sent") when it goes out, a HARQ TB when it is done or failed.
Every run ends by checking that `tb_sent` equals the outcomes plus the
HARQ TBs still in flight.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import reduce
from operator import add, itemgetter, or_

from .adversary import AttackerAgent, TrackerAgent, build_attacker
from .bits import BitString
from .defense import (
    FeedbackProfile,
    IncidentLog,
    ReplayGuard,
    enforce_policy,
    harq_anomaly_check,
    sign_ssb,
    verify_ssb,
)
from .frames import CastType, MibSl, Pc5Message, Sci2A, SlssIdentity, decode_once
from .harq import (
    FEEDBACK_DELAY_SLOTS,
    MAX_PROCESSES,
    Action,
    DataBurst,
    FeedbackBurst,
    HarqProcess,
    TbState,
    arbitrate_feedback,
    feedback_for_tb,
)
from .metrics import MetricsReport
from .pc5 import BROADCAST_L2, Pc5Endpoint, refresh_identifier
from .radio import LazyRow, PathLossRow, Reception, SensedRow, Transmission, child_rng, deliver
from .resources import (
    SENSING_WINDOW_SLOTS,
    ClaimShape,
    ControlBurst,
    Selection,
    announce,
    decode_shape,
    draw_reselection_counter,
    select_resources,
    sense,
)
from .scenario import ATTACKER_ID_BASE, Scenario, TrafficFlow, UeSpec
from .sync import (
    CandidateBuffer,
    SsbBurst,
    SyncCandidate,
    SyncSourceKind,
    SyncState,
    derive_own_slss,
    select_sync_ref,
    should_transmit_ssb,
)

# sync sources that pick a SyncRef from the candidate buffer
SELECTING = (SyncSourceKind.SYNC_REF_UE, SyncSourceKind.INTERNAL_CLOCK)
# the payload kinds sent to one layer-2 id
ADDRESSED = (DataBurst, FeedbackBurst, Pc5Message)


def demand_subchannels(flow: TrafficFlow, num_subchannels: int) -> int:
    """Subchannels a TB of this size occupies (300-byte granularity)."""
    return max(1, min(math.ceil(flow.size_bytes / 300), num_subchannels))


@dataclass
class GrantState:
    next_slot: int
    remaining: int
    span: tuple[int, int]  # (subchannel start, length)
    sci1_bits: BitString  # the grant's SCI 1-A, the same for each of its TBs


@dataclass
class FlowRuntime:
    flow: TrafficFlow
    process: HarqProcess
    demand: int
    next_gen_slot: int
    grant: GrantState | None = None
    # the current TB: the slot of its first transmission, the slot its
    # feedback is due (None while none is awaited) and the spoofed
    # feedback candidates heard for it so far
    first_slot: int = 0
    feedback_slot: int | None = None
    spoof_hits: int = 0


@dataclass(slots=True)
class TbOutcome:
    """Ground-truth record of one finished transport block: a HARQ TB
    once it is done or failed, any other TB ("sent") when it goes out."""

    ue_id: int
    tb_id: int
    first_tx_slot: int
    attempts: int
    state: str
    spoof_candidates: int


@dataclass
class SelectionRecord:
    ue_id: int
    decided_slot: int
    selection: Selection


class UeAgent:
    """One legitimate participant: sync, sensing, flows, PC5 endpoint."""

    def __init__(self, spec: UeSpec, world: "World"):
        self.spec = spec
        self.world = world
        self.rng = child_rng(world.seed, f"ue:{spec.id}")
        l2_id = world.take_l2()
        world.identity_truth[l2_id] = spec.id
        self.retired_l2: set[int] = set()  # layer-2 ids this UE held before

        cfg = world.sc.sync
        if spec.role == "gnss_visible":
            self.state = SyncState(SyncSourceKind.GNSS, None, SlssIdentity(0, True), True)
        elif spec.role == "gnode_b":
            own = derive_own_slss(SyncSourceKind.GNODE_B, None, self.rng)
            self.state = SyncState(SyncSourceKind.GNODE_B, None, own, True)
        else:
            own = derive_own_slss(SyncSourceKind.INTERNAL_CLOCK, None, self.rng)
            self.state = SyncState(SyncSourceKind.INTERNAL_CLOCK, None, own,
                                   spec.network_sync_ref)
        self.buffer = CandidateBuffer(retention_slots=2 * cfg.ssb_period_slots)
        # buffer.changes at the last ranking (an empty buffer needs none);
        # None forces the next one
        self._ranked_at: int | None = self.buffer.changes
        # start slot -> responders of the links this UE initiates, in link order
        self.link_starts: dict[int, list[int]] = {}
        for link in world.sc.links:
            if link.initiator == spec.id:
                self.link_starts.setdefault(link.start_slot, []).append(link.responder)

        policy = spec.policy
        if world.sc.defenses.policy_enforcer.enabled:
            policy = enforce_policy(policy)
        self.endpoint = Pc5Endpoint(l2_id, world.psk, policy,
                                    child_rng(world.seed, f"pc5:{spec.id}"))
        guard_cfg = world.sc.defenses.replay_guard
        self.guard = ReplayGuard(guard_cfg.timestamp_skew_slots) if guard_cfg.enabled else None
        self.profile = FeedbackProfile()

        self.flows: list[FlowRuntime] = []
        # the (shape, rsrp, slot) entries `sense` got at the last reselection
        self.sensing: list[tuple[ClaimShape, float, int]] = []
        self.feedback_inbox: list[tuple[FeedbackBurst, float]] = []  # (burst, rsrp)
        self.outbox: dict[int, list[object]] = {}  # slot -> payloads to send
        self.tb_counter = 0
        # next slot with work due besides the sync step, and next slot in
        # which the sync step has work; math.inf for none
        self.wake: int | float = 0
        self.sync_at: int | float = 0

    # -- wake on work ------------------------------------------------------

    def next_wake(self, after: int) -> int | float:
        """First slot from `after` on in which this UE has work due
        besides its sync step (`sync_due` covers that).

        Work is due at a link start and a PC5 timer deadline; at each
        flow's next TB; at a loaded TB's grant occurrence, or at once to
        reselect or realign the grant; at each outbox slot and each
        feedback slot. math.inf: nothing is scheduled until a reception
        adds work (`_wake`).
        """
        due = min(self.outbox) if self.outbox else math.inf
        if self.link_starts:  # `_pc5_step` pops each start it has used
            due = min(due, *self.link_starts)
        deadline = self.endpoint.deadline
        if deadline is not None and deadline < due:
            due = deadline
        for rt in self.flows:
            if rt.next_gen_slot < due:
                due = rt.next_gen_slot
            if rt.feedback_slot is not None and rt.feedback_slot < due:
                due = rt.feedback_slot
            proc, g = rt.process, rt.grant
            if proc.state is TbState.IDLE and proc.tb_id is not None:
                if g is None or g.remaining <= 0 or g.next_slot < after:
                    return after
                if g.next_slot < due:
                    due = g.next_slot
        return due if due > after else after

    def sync_due(self, after: int) -> int | float:
        """First slot from `after` on in which `_sync_step` has work.

        While this UE selects a SyncRef: at once if its candidate buffer
        changed since the last ranking, else when the oldest entry ages
        out. In its S-SSB phase while it would send one. math.inf:
        nothing until a heard S-SSB changes the buffer (`World._note_ssb`).
        """
        due = math.inf
        if self.state.source in SELECTING:
            if self.buffer.changes != self._ranked_at:
                return after
            expiry = self.buffer.expiry()
            if expiry is not None:
                due = expiry
        if self._sends_ssb():
            period = self.world.sc.sync.ssb_period_slots
            phase = after + (self.spec.id - after) % period
            if phase < due:
                due = phase
        return due if due > after else after

    def _wake(self, slot: int):
        if slot < self.wake:
            self.wake = slot

    def queue_tx(self, slot: int, payload):
        """Send `payload` in `slot` (this one or later) and wake for it."""
        self.outbox.setdefault(slot, []).append(payload)
        self._wake(slot)

    # -- per-slot action ---------------------------------------------------

    def act(self, slot: int) -> list[Transmission]:
        out = [Transmission(self.spec.id, self.spec.tx_power_dbm, payload)
               for payload in self.outbox.pop(slot, ())]
        if self.sync_at <= slot:  # before it, a sync step has no work
            self._sync_step(slot, out)
        if self.link_starts or self.endpoint.links:
            self._pc5_step(slot, out)
        for rt in self.flows:
            self._flow_step(rt, slot, out)
        return out

    def _sync_step(self, slot: int, out: list[Transmission]):
        cfg = self.world.sc.sync
        if self.state.source in SELECTING:
            self.buffer.prune(slot)
            # The same candidates and the same reference give the same
            # decision, and re-applying a keep changes nothing; so rank
            # only after the buffer changed or when `_rank_sync_ref` forced it.
            if self.buffer.changes != self._ranked_at:
                self._rank_sync_ref(slot)

        if slot % cfg.ssb_period_slots != self.spec.id % cfg.ssb_period_slots:
            return
        if not self._sends_ssb():
            return
        mib = MibSl.at(slot, 0, self.state.own_slss.in_coverage)
        signed = self.world.ssb_signing
        tag = None
        if signed is not None:
            tag = sign_ssb(self.world.ssb_key, self.state.own_slss.slss_id,
                           mib.encode(), signed.tag_bits)
            self.world.metrics.bump("airtime_overhead_bits", signed.tag_bits)
        out.append(Transmission(self.spec.id, self.spec.tx_power_dbm,
                                SsbBurst(self.state.own_slss, mib, tag)))
        self.world.metrics.bump("ssb_sent")

    def _sends_ssb(self) -> bool:
        ref = self.state.reference
        return should_transmit_ssb(self.state, ref.rsrp_dbm if ref else None,
                                   self.world.sc.sync)

    def _rank_sync_ref(self, slot: int):
        entries = self.buffer.entries  # SLSS id -> candidate
        first_lock = self.state.reference is None
        decision = select_sync_ref(self.state.reference, entries.values(), self.world.sc.sync)
        self._ranked_at = self.buffer.changes
        if decision.action == "switch":
            self.state.source = SyncSourceKind.SYNC_REF_UE
            self.state.reference = decision.candidate
            self.state.own_slss = derive_own_slss(
                SyncSourceKind.SYNC_REF_UE, decision.candidate.slss, self.rng, set(entries)
            )
            # Re-ranking this buffer would keep the candidate just chosen (and
            # after a lapse find nothing usable again); only a first lock under
            # an entry margin ranked at a floor that a held reference lowers.
            if first_lock and self.world.sc.sync.min_hyst_db > 0:
                self._ranked_at = None
            self.world.metrics.bump("sync_switches")
            self.world.event(slot, "sync_switch", ue=self.spec.id,
                             slss=decision.candidate.slss.slss_id,
                             sender=decision.candidate.sender_id)
        elif decision.action == "keep" and decision.candidate is not None:
            self.state.reference = decision.candidate
        elif decision.action == "internal_clock" and self.state.reference is not None:
            self.state.source = SyncSourceKind.INTERNAL_CLOCK
            self.state.reference = None
            self.world.event(slot, "sync_lapse", ue=self.spec.id)

    def _pc5_step(self, slot: int, out: list[Transmission]):
        for responder in self.link_starts.pop(slot, ()):
            for msg in self.endpoint.initiate(self.world.l2_of(responder), slot):
                out.append(self._pc5_tx(msg))
        msgs, events = self.endpoint.tick(slot)
        for msg in msgs:
            out.append(self._pc5_tx(msg))
        for ev in events:
            self.world.security_event(self, ev)

    def _pc5_tx(self, msg) -> Transmission:
        return Transmission(self.spec.id, self.spec.tx_power_dbm, msg)

    def _flow_step(self, rt: FlowRuntime, slot: int, out: list[Transmission]):
        flow, proc = rt.flow, rt.process
        if slot >= rt.next_gen_slot:
            if proc.tb_id is None or proc.state in (TbState.DONE, TbState.FAILED):
                self.tb_counter += 1
                proc.start_tb(self.spec.id * 1_000_000 + self.tb_counter)
            rt.next_gen_slot = slot + flow.period_slots
        # a loaded TB in IDLE is due: its first transmission or a retransmission
        if proc.state != TbState.IDLE or proc.tb_id is None:
            return
        if rt.grant is None or rt.grant.remaining <= 0:
            self._reselect(rt, slot)
            return
        g = rt.grant
        if slot != g.next_slot:
            # Grant occurrences that passed while no TB was pending went
            # unused; a TB generated after them realigns to the next one.
            while g.next_slot < slot:
                g.next_slot += rt.flow.rri_ms
                g.remaining -= 1
            return
        self._emit_tb(rt, slot, out)

    def _reselect(self, rt: FlowRuntime, slot: int):
        world = self.world
        pool = world.sc.pool
        window_start = slot + 1
        uid = self.spec.id
        self.sensing = [(shape, rsrp, heard) for heard, shape, row in world.live_sensing(slot)
                        if (rsrp := row.get(uid)) is not None]
        occ = sense(self.sensing, pool, window_start)
        sel = select_resources(pool, occ, rt.demand, self.rng)
        counter = draw_reselection_counter(self.rng)
        had_grant = rt.grant is not None
        flow = rt.flow
        # `announce`'s arguments, in its order
        claim = (sel.subchannel_start, sel.subchannel_len, flow.rri_ms, flow.priority)
        sci1_bits = world.sci1a_bits.get(claim)
        if sci1_bits is None:
            sci1_bits = world.sci1a_bits[claim] = announce(pool, *claim).encode(pool)
        rt.grant = GrantState(
            next_slot=sel.slot,
            remaining=counter,
            span=(sel.subchannel_start, sel.subchannel_len),
            sci1_bits=sci1_bits,
        )
        self.world.metrics.bump("selections")
        if had_grant:
            self.world.metrics.bump("reselections")
        self.world.metrics.bump("candidate_positions", sel.candidate_count)
        self.world.selection_log.append(SelectionRecord(self.spec.id, slot, sel))
        self.world.event(slot, "selection", ue=self.spec.id, tx_slot=sel.slot,
                         candidates=sel.candidate_count, total=sel.total_positions,
                         threshold=sel.threshold_dbm)

    def _emit_tb(self, rt: FlowRuntime, slot: int, out: list[Transmission]):
        flow, proc, g = rt.flow, rt.process, rt.grant
        ndi, rv = proc.record_transmission()
        dst_l2 = self.world.l2_of(flow.dst)
        cast = CastType.BROADCAST if flow.dst == "broadcast" else CastType.UNICAST
        # Sci2A.for_tb's arguments, in its order
        header = (proc.process_id, ndi, rv, self.endpoint.l2_id, dst_l2, flow.harq, cast)
        sci2_bits = self.world.sci2a_bits.get(header)
        if sci2_bits is None:
            sci2 = Sci2A.for_tb(*header)
            sci2_bits = self.world.sci2a_bits[header] = sci2.encode()
            self.world.sci2a_cache[sci2_bits.data, sci2_bits.bit_length] = sci2
        burst = DataBurst(
            sci1_bits=g.sci1_bits,
            sci2_bits=sci2_bits,
            mac_src_l2=self.endpoint.l2_id,
            mac_dst_l2=dst_l2,
            tb_id=proc.tb_id,
            size_bytes=flow.size_bytes,
        )
        out.append(Transmission(self.spec.id, self.spec.tx_power_dbm, burst, g.span))
        if proc.attempts == 1:
            self.world.metrics.bump("tb_sent")
            rt.first_slot, rt.spoof_hits = slot, 0
        else:
            self.world.metrics.bump("retransmissions", slot=slot)
        g.next_slot += flow.rri_ms
        g.remaining -= 1
        if flow.harq and cast == CastType.UNICAST:
            rt.feedback_slot = slot + FEEDBACK_DELAY_SLOTS
        else:
            proc.state = TbState.DONE  # blind transmission, nothing to wait for
            self.world.tb_log.append(TbOutcome(self.spec.id, proc.tb_id, slot,
                                               proc.attempts, "sent", 0))

    # -- reception ----------------------------------------------------------

    def receive(self, recs: list[Reception], slot: int) -> int:
        """Handle what this UE heard in `slot` and acts on (the module
        docstring lists it), in emission order; returns the number of
        TBs newly delivered to this UE."""
        delivered = 0
        for tx, rsrp in recs:
            payload = tx.payload
            kind = type(payload)
            if kind is DataBurst:
                delivered += self._receive_data(payload, slot)
            elif kind is FeedbackBurst:
                self.feedback_inbox.append((payload, rsrp))
                self._wake(slot)  # closed, or dropped, at the end of this slot
            elif kind is Pc5Message:
                self._receive_pc5(payload, slot)
        return delivered

    def _receive_data(self, burst: DataBurst, slot: int) -> bool:
        """Data addressed to this UE, or broadcast on a lossy channel;
        True if it newly delivers a TB."""
        # crc_rng feeds nothing else, so an error-free channel skips the draw
        error_rate = self.world.sc.channel.tb_error_rate
        crc_ok = error_rate == 0 or self.world.crc_rng.random() >= error_rate
        ledger = self.world.delivered
        seen = ledger.get(burst.tb_id, 0)
        bit = self.world.ue_bits[self.spec.id]
        new = crc_ok and not seen & bit
        if new:
            ledger[burst.tb_id] = seen | bit
        if burst.mac_dst_l2 != self.endpoint.l2_id:
            return new
        sci2 = decode_once(self.world.sci2a_cache, Sci2A.decode, burst.sci2_bits)
        if sci2 is None:
            return new
        fb = feedback_for_tb(crc_ok, sci2.harq_enabled, sci2.harq_process_id,
                             self.endpoint.l2_id, burst.mac_src_l2)
        if fb is not None:
            self.queue_tx(slot + FEEDBACK_DELAY_SLOTS, fb)
            self.world.metrics.bump("feedback_sent")
        return new

    def _receive_pc5(self, msg: Pc5Message, slot: int):
        replies, events = self.endpoint.handle(msg, slot, self.guard)
        for reply in replies:
            self.queue_tx(slot + 1, reply)
        for ev in events:
            self.world.security_event(self, ev)
        self._wake(slot)  # the step may have moved a PC5 timer

    # -- feedback closure ------------------------------------------------------

    def close_feedback(self, slot: int):
        """Resolve each flow whose feedback is due in this slot, in flow
        order, from the feedback heard in this slot; the rest of it
        answers nothing and is dropped."""
        inbox = self.feedback_inbox
        for rt in self.flows:
            if rt.feedback_slot == slot:
                rt.feedback_slot = None
                pid = rt.process.process_id
                matched = [entry for entry in inbox if entry[0].harq_process_id == pid]
                inbox = [entry for entry in inbox if entry[0].harq_process_id != pid]
                self._resolve(rt, matched, slot)
        self.feedback_inbox.clear()

    def _resolve(self, rt: FlowRuntime, candidates, slot: int):
        anomaly = self.world.sc.defenses.harq_anomaly_check
        accepted = []
        for heard in candidates:
            burst = heard[0]
            if burst.spoofed:
                self.world.metrics.bump("feedback_spoofed")
                rt.spoof_hits += 1
            else:
                self.world.metrics.bump("feedback_candidates_legit")
            if anomaly.enabled:
                reason = harq_anomaly_check(self.profile, heard, anomaly)
                if reason is not None:
                    self.world.metrics.bump("feedback_flagged")
                    if not burst.spoofed:
                        self.world.metrics.bump("feedback_flagged_legit")
                    self.world.incidents.record(slot, "harq_anomaly", burst.src_l2, reason)
                    continue
            accepted.append(heard)
        winner = arbitrate_feedback(accepted)
        if winner is not None and anomaly.enabled:
            self.profile.learn(winner[0].src_l2, winner[1])
        proc = rt.process
        action = proc.on_feedback(winner[0].ack if winner else None)
        if action == Action.RETRANSMIT:
            return  # the process is IDLE again, so the next grant resends
        if action == Action.COMPLETE:
            self.world.metrics.bump("sender_delivered", slot=slot)
        else:
            self.world.metrics.bump("harq_failures")
            self.world.event(slot, "harq_fail", ue=self.spec.id, tb=proc.tb_id,
                             attempts=proc.attempts)
        self.world.tb_log.append(TbOutcome(self.spec.id, proc.tb_id, rt.first_slot,
                                           proc.attempts, proc.state.value, rt.spoof_hits))


class World:
    """Everything one run owns; `run()` executes the slot loop."""

    def __init__(self, scenario: Scenario, seed: int | None = None):
        self.sc = scenario
        self.seed = scenario.seed if seed is None else seed
        self.metrics = MetricsReport(scenario.name, self.seed)
        self.events: list[dict] = []
        self.incidents = IncidentLog(enabled=scenario.defenses.incident_log.enabled)

        self.crc_rng = child_rng(self.seed, "crc")
        self.channel_rng = child_rng(self.seed, "channel")
        self.privacy_rng = child_rng(self.seed, "privacy")
        self._l2_rng = child_rng(self.seed, "l2init")
        self.psk = child_rng(self.seed, "psk").randbytes(32)
        self.ssb_key = child_rng(self.seed, "ssbkey").randbytes(32)
        # the signed-SSB settings, None while signing is off
        signed = scenario.defenses.signed_ssb
        self.ssb_signing = signed if signed.enabled else None

        self.identity_truth: dict[int, int] = {}
        self.selection_log: list[SelectionRecord] = []
        self.tb_log: list[TbOutcome] = []
        # (slot, claim shape, `deliver` row) per decodable SCI 1-A sent, in order
        self.sensing_log: list[tuple[int, ClaimShape, SensedRow]] = []
        # SCI 1-A bits, as (data, bit_length), -> the `ClaimShape` they claim, None
        # for a payload that does not decode or claims outside the pool. A claim
        # depends only on its bits and the pool, and only its RSRP on the receiver
        # (TS 38.214 8.1.4), so each distinct payload sent is decoded once per world
        # and every sensing entry shares the (frozen) shape. The tuple key compares
        # like BitString equality but hashes in C.
        self.sci1a_cache: dict[tuple[bytes, int], ClaimShape | None] = {}
        # the largest `ClaimShape.lifetime` in sci1a_cache: a sensing entry
        # heard longer ago than that before a selection window holds no live
        # occurrence in it
        self.sensing_reach = 0
        # the same for SCI 2-A, read by addressed receivers; `_emit_tb` files
        # each header it encodes here too, so a receiver decodes only a
        # payload the world did not encode
        self.sci2a_cache: dict[tuple[bytes, int], Sci2A | None] = {}
        # Sci2A.for_tb arguments -> the encoded header; a sender's header
        # repeats for every TB of a process, so each is encoded once
        self.sci2a_bits: dict[tuple, BitString] = {}
        # `announce` arguments after the pool -> the encoded grant claim;
        # grants repeat their span, rri and priority, so each is encoded once
        self.sci1a_bits: dict[tuple, BitString] = {}
        # sender -> its path-loss row (`radio.path_loss_row`), built on
        # the sender's first transmission and dropped when any node moves;
        # it also keeps the sender's lossless-broadcast masks (`kept_bits`)
        self.path_loss: dict[int, PathLossRow] = {}
        # TB id -> bitmask of the UEs that have it (bit i: self.agents[i]);
        # `receiver_delivered` counts each bit the first time it is set
        self.delivered: dict[int, int] = {}

        self.agents: list[UeAgent] = [UeAgent(spec, self) for spec in scenario.ues]
        self.by_id = {a.spec.id: a for a in self.agents}
        for flow in scenario.traffic:
            agent = self.by_id[flow.src]
            idx = len(agent.flows)
            agent.flows.append(FlowRuntime(
                flow=flow,
                process=HarqProcess(process_id=idx % MAX_PROCESSES),
                demand=demand_subchannels(flow, scenario.pool.num_subchannels),
                next_gen_slot=flow.start_slot,
            ))

        self.attackers: list[AttackerAgent] = []
        for i, spec in enumerate(scenario.attacks):
            agent = build_attacker(
                ATTACKER_ID_BASE + i,
                spec.capability,
                spec.plan,
                child_rng(self.seed, f"attacker:{i}"),
                pool=scenario.pool,
                ssb_period=scenario.sync.ssb_period_slots,
                ssb_key=self.ssb_key,
                tag_bits=scenario.defenses.signed_ssb.tag_bits,
            )
            self.attackers.append(agent)
        # node id -> its bit in `delivered`; an attacker has none
        self.ue_bits = dict.fromkeys((attacker.id for attacker in self.attackers), 0)
        self.ue_bits.update((agent.spec.id, 1 << i) for i, agent in enumerate(self.agents))

        # static nodes keep their slot-0 place; only moving UEs are recomputed
        self.positions: dict[int, tuple[float, float]] = {}
        self.moving = [agent for agent in self.agents if any(agent.spec.velocity)]
        self._place(self.agents, 0)
        for attacker in self.attackers:
            self.positions[attacker.id] = attacker.cap.position
        # payload kind -> the attackers that hear it (`AttackerAgent.hears`)
        self.hearers = {kind: frozenset(a.id for a in self.attackers if kind in a.hears)
                        for kind in (SsbBurst, ControlBurst, *ADDRESSED)}
        # addressed kind -> held layer-2 id -> the nodes that read that kind
        # addressed to it; None until a slot needs it, and again after ids change
        self.l2_readers: dict[type, dict[int, frozenset[int]]] | None = None

    # -- shared helpers ------------------------------------------------------

    def take_l2(self) -> int:
        """A fresh layer-2 id: not broadcast, and held by no UE yet."""
        while True:
            candidate = self._l2_rng.getrandbits(24)
            if candidate != BROADCAST_L2 and candidate not in self.identity_truth:
                return candidate

    def _index_l2(self) -> dict[type, dict[int, frozenset[int]]]:
        """`l2_readers`: per addressed kind, the UEs holding each layer-2 id
        and the attackers that hear the kind. On a lossy channel every UE
        reads broadcast data too."""
        holders: dict[int, set[int]] = {}
        for agent in self.agents:
            holders.setdefault(agent.endpoint.l2_id, set()).add(agent.spec.id)
        self.l2_readers = {kind: {l2: self.hearers[kind].union(ids) for l2, ids in holders.items()}
                           for kind in ADDRESSED}
        if self.sc.channel.tb_error_rate > 0:
            self.l2_readers[DataBurst][BROADCAST_L2] = self.hearers[DataBurst].union(self.by_id)
        return self.l2_readers

    def live_sensing(self, slot: int) -> list[tuple[int, ClaimShape, SensedRow]]:
        """`sensing_log` cut to what a reselection in `slot` may read: the
        sensing window and `sensing_reach` slots before the selection window."""
        log = self.sensing_log
        cut = max(slot - SENSING_WINDOW_SLOTS, slot + 1 - self.sensing_reach)
        if log and log[0][0] < cut:
            del log[:bisect_left(log, cut, key=itemgetter(0))]
        return log

    def l2_of(self, ue_id) -> int:
        if ue_id == "broadcast":
            return BROADCAST_L2
        return self.by_id[ue_id].endpoint.l2_id

    def event(self, slot: int, event_type: str, **fields):
        # `event_line` sorts the keys, so the dict is kept as given
        fields["slot"] = slot
        fields["type"] = event_type
        self.events.append(fields)

    def security_event(self, agent: UeAgent, ev):
        detail = {("msg_kind" if k == "kind" else k): v for k, v in ev.detail.items()}
        self.event(ev.slot, "pc5", ue=agent.spec.id, kind=ev.kind,
                   peer=ev.peer_l2, **detail)
        bump = self.metrics.bump
        if ev.kind == "established":
            bump("links_established")
        elif ev.kind in ("link_failure", "auth_fail"):
            bump("link_failures", slot=ev.slot)
        elif ev.kind == "replay_reject":
            bump("replay_rejects", slot=ev.slot)
            self.incidents.record(ev.slot, "replay_guard", ev.peer_l2,
                                  detail.get("reason", ""))
        elif ev.kind == "duplicate_session":
            bump("duplicate_sessions")
        elif ev.kind in ("discard_bad_tag", "discard_unbound", "replay"):
            bump("security_discards")
            self.incidents.record(ev.slot, "pdu_protection", ev.peer_l2, ev.kind)
        elif ev.kind == "policy_mismatch":
            bump("policy_mismatches")

    # -- slot phases -----------------------------------------------------------

    def _place(self, agents: list[UeAgent], slot: int):
        t_s = slot / 1000.0  # a slot is 1 ms
        for agent in agents:
            x0, y0 = agent.spec.position
            vx, vy = agent.spec.velocity
            self.positions[agent.spec.id] = (x0 + vx * t_s, y0 + vy * t_s)

    def _privacy_epoch(self, slot: int):
        """Give every legit UE a fresh layer-2 id; `run` calls it first in
        each epoch slot but slot 0."""
        cfg = self.sc.defenses.privacy_randomizer
        live = {a.endpoint.l2_id for a in self.agents}
        for agent in self.agents:
            if agent.spec.role != "legit":
                continue
            old = agent.endpoint.l2_id
            new = refresh_identifier(old, agent.retired_l2, self.privacy_rng, cfg.mode, live)
            live.discard(old)
            live.add(new)
            for msg in agent.endpoint.begin_identifier_update(
                    new, self.privacy_rng.getrandbits(32)):
                agent.queue_tx(slot, msg)
            self.identity_truth[new] = agent.spec.id
            self.metrics.bump("identifier_refreshes")
            self.event(slot, "identifier_refresh", ue=agent.spec.id)
        self.l2_readers = None

    def _deliver_and_dispatch(self, transmissions: list[Transmission], slot: int):
        l2_readers = self.l2_readers or self._index_l2()
        hearers = self.hearers
        lossless = self.sc.channel.tb_error_rate == 0
        # per transmission its readers; SCI-bearing ones; S-SSBs; lossy broadcast data
        readers, sensed, bursts, lossy = [], [], [], []
        for k, tx in enumerate(transmissions):
            payload = tx.payload
            kind = type(payload)
            if kind is DataBurst:
                sensed.append(k)
                dst = payload.mac_dst_l2
                if dst == BROADCAST_L2 and not lossless:
                    lossy.append(k)
                readers.append(l2_readers[kind].get(dst, hearers[kind]))
            elif kind is ControlBurst:
                sensed.append(k)
                readers.append(hearers[kind])
            elif kind is SsbBurst:
                bursts.append(k)
                readers.append(hearers[kind])
            else:  # FeedbackBurst or Pc5Message
                readers.append(l2_readers[kind].get(payload.dst_l2, hearers[kind]))
        recs_by_receiver, collisions, rows = deliver(
            transmissions, self.positions, self.sc.channel, self.channel_rng,
            self.path_loss, readers, sensed, bursts + lossy,
        )
        for record in collisions:
            self.event(slot, "collision", receiver=record.receiver_id,
                       destroyed=len(record.destroyed))
        if collisions:
            self.metrics.bump("collision_count", sum(len(r.destroyed) for r in collisions),
                              slot=slot)
        for k in bursts:
            self._note_ssb(transmissions[k], rows[k], slot)
        delivered = 0
        cache, pool = self.sci1a_cache, self.sc.pool
        ledger, ue_bits = self.delivered, self.ue_bits
        self.live_sensing(slot)  # drop what no later reselection reads
        for k in sensed:
            row = rows[k]
            payload = transmissions[k].payload
            bits = payload.sci1_bits
            shape = decode_once(cache, decode_shape, pool, bits)
            if shape is not None:
                if shape.lifetime > self.sensing_reach:
                    self.sensing_reach = shape.lifetime
                self.sensing_log.append((slot, shape, row))
            if lossless and type(payload) is DataBurst and payload.mac_dst_l2 == BROADCAST_L2:
                seen = ledger.get(payload.tb_id, 0)
                new = (row.kept_bits(ue_bits) if row.__class__ is LazyRow
                       else reduce(or_, map(ue_bits.__getitem__, row), 0)) & ~seen
                if new:
                    ledger[payload.tb_id] = seen | new
                    delivered += new.bit_count()
        for agent in self.agents:
            recs = recs_by_receiver[agent.spec.id]
            if recs:
                delivered += agent.receive(recs, slot)
        if delivered:
            self.metrics.bump("receiver_delivered", delivered, slot=slot)
        for attacker in self.attackers:
            recs = recs_by_receiver[attacker.id]
            if recs:
                attacker.on_receptions(recs, slot)

    def _note_ssb(self, tx: Transmission, row: dict[int, float], slot: int):
        """Each UE in S-SSB `tx`'s row notes it, in `positions` order. The tag
        does not depend on the receiver, so it is checked once."""
        burst, sender, by_id, signed = tx.payload, tx.sender_id, self.by_id, self.ssb_signing
        slss = burst.slss
        if signed is not None and not verify_ssb(self.ssb_key, slss.slss_id, burst.mib.encode(),
                                                 burst.auth_tag, signed.tag_bits):
            for uid in row:
                if uid in by_id:
                    self.metrics.bump("ssb_rejected")
                    self.incidents.record(slot, "signed_ssb", sender, "bad_tag")
            return
        for uid, rsrp in row.items():
            agent = by_id.get(uid)
            if (agent is not None
                    and agent.buffer.note(SyncCandidate(slss, rsrp, slot, sender))
                    and agent.state.source in SELECTING and slot + 1 < agent.sync_at):
                agent.sync_at = slot + 1  # rank the changed buffer

    def run(self) -> MetricsReport:
        """Step the slots that have work, from slot 0 to the end. A slot in
        which no UE stepped and nothing went on air changed nothing, so the
        loop jumps from it to the next due slot (`_next_due`); any other
        slot goes on to the next one."""
        agents = self.agents
        privacy = self.sc.defenses.privacy_randomizer
        # slots per identifier-privacy epoch; 0: identifiers never change
        epoch = round(privacy.timer_ms) if privacy.enabled and privacy.mode != "static" else 0
        slot, end = 0, self.sc.duration_slots
        while slot < end:
            if self.moving:
                self._place(self.moving, slot)
                self.path_loss.clear()
            if epoch > 0 and slot and slot % epoch == 0:
                self._privacy_epoch(slot)
            transmissions: list[Transmission] = []
            stepped = False
            for agent in agents:
                if agent.wake <= slot:
                    transmissions.extend(agent.act(slot))
                    stepped = True
                elif agent.sync_at <= slot:
                    agent._sync_step(slot, transmissions)
                    stepped = True
            for attacker in self.attackers:
                injected = attacker.transmissions(slot)
                if injected:
                    self.metrics.bump("attack_frames_sent", len(injected))
                transmissions.extend(injected)
            if transmissions:
                self._deliver_and_dispatch(transmissions, slot)
            elif not stepped:
                slot = self._next_due(slot + 1, epoch)
                continue
            # every UE that stepped is still due; receptions may add more.
            # A sync step before its sync_at has no work, so a UE whose
            # sync_at has not come keeps it.
            for agent in agents:
                if agent.wake <= slot:
                    agent.close_feedback(slot)
                    agent.wake = agent.next_wake(slot + 1)
                if agent.sync_at <= slot:
                    agent.sync_at = agent.sync_due(slot + 1)
            slot += 1
        if self.moving:  # where the run leaves them: their place in its last slot
            self._place(self.moving, end - 1)
        self._finalize()
        return self.metrics

    def _next_due(self, after: int, epoch: int) -> int:
        """First slot from `after` on in which a UE, an attacker or the
        privacy epoch has work; the end of the run if none has."""
        due = self.sc.duration_slots
        if epoch > 0:
            due = min(due, after + -after % epoch)
        for agent in self.agents:
            if agent.wake < due:
                due = agent.wake
            if agent.sync_at < due:
                due = agent.sync_at
        for attacker in self.attackers:
            at = attacker.next_due(after)
            if at < due:
                due = at
        return due

    def _finalize(self):
        self.metrics.bump("slots_run", self.sc.duration_slots)
        victims = sum(
            1 for a in self.agents
            if a.spec.role == "legit"
            and a.state.source == SyncSourceKind.SYNC_REF_UE
            and a.state.reference is not None
            and a.state.reference.sender_id >= ATTACKER_ID_BASE
        )
        if victims:
            self.metrics.bump("sync_victims", victims)
        ratios = [
            rec.selection.candidate_ratio for rec in self.selection_log
            if self.by_id[rec.ue_id].spec.role == "legit"
        ]
        if ratios:
            # left to right: from Python 3.12 the built-in sum compensates float
            # rounding, which would make the output bytes depend on the version
            mean = reduce(add, ratios, 0.0) / len(ratios)
            self.metrics.gauge("candidate_set_ratio", mean)
        for attacker in self.attackers:
            if isinstance(attacker, TrackerAgent):  # `parse_scenario` allows one
                # a tracker that saw no id has no score: its gauges stay "na"
                if attacker.traces:
                    truth = {
                        observed: self.identity_truth[observed]
                        for observed in attacker.traces
                        if observed in self.identity_truth
                    }
                    scores = attacker.report(truth)
                    self.metrics.gauge("tracking_precision", scores["precision"])
                    self.metrics.gauge("tracking_recall", scores["recall"])
                    self.metrics.gauge("tracking_f1", scores["f1"])
                break
        if self.incidents.enabled:
            self.metrics.bump("incidents", self.incidents.count())
        for attacker in self.attackers:
            for action in attacker.actions:
                self.event(action.slot, "attack", attacker=attacker.id,
                           kind=action.kind, power=action.power_dbm,
                           outcome=action.outcome)
        self.events.sort(key=lambda e: (e["slot"], 0 if e["type"] != "attack" else 1))
        self.metrics.check_fold()
        # each (TB, UE) delivery sets one ledger bit and counts once
        held = sum(mask.bit_count() for mask in self.delivered.values())
        counted = self.metrics.totals["receiver_delivered"]
        if held != counted:
            raise AssertionError(f"delivery ledger holds {held}, receiver_delivered {counted}")
        # every sent TB has one outcome, or is a HARQ TB still in flight
        in_flight = sum(1 for agent in self.agents for rt in agent.flows if rt.process.attempts
                        and rt.process.state not in (TbState.DONE, TbState.FAILED))
        sent = self.metrics.totals["tb_sent"]
        if sent != len(self.tb_log) + in_flight:
            raise AssertionError(f"{sent} TBs sent, {len(self.tb_log)} outcomes "
                                 f"and {in_flight} in flight")


def run_scenario(scenario: Scenario,
                 seed: int | None = None) -> tuple[MetricsReport, list[dict], World]:
    world = World(scenario, seed=seed)
    report = world.run()
    return report, world.events, world
