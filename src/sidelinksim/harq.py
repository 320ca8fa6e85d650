"""HARQ process state, feedback timing, and feedback arbitration.

attempts counts transmissions of the pending TB, so the initial send is
attempt 1. A NACK triggers a retransmission while attempts has not
passed MAX_RETRANSMISSIONS; a NACK arriving with attempts already at
MAX_RETRANSMISSIONS + 1 fails the process. The feedback for a TB sent
in slot t is heard in slot t + FEEDBACK_DELAY_SLOTS and nowhere else,
and missing feedback in that slot counts as a NACK. Arbitration among
the feedback bursts heard in that slot, as (burst, rsrp_dbm) pairs, is
by received power, which is what makes overpowering spoofs meaningful
and underpowered ones useless.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

RV_SEQUENCE = (0, 2, 3, 1)  # redundancy version by attempt, cycling
MAX_PROCESSES = 16  # HARQ processes per UE, ids 0..MAX_PROCESSES - 1
MAX_RETRANSMISSIONS = 3  # retransmissions a TB may take before a NACK fails it
FEEDBACK_DELAY_SLOTS = 2  # TB slot to the slot that carries its feedback


class TbState(Enum):
    IDLE = "idle"
    AWAITING_FEEDBACK = "awaiting_feedback"
    DONE = "done"
    FAILED = "failed"


@dataclass
class FeedbackBurst:
    """PSFCH payload: one bit of feedback plus addressing context."""

    ack: bool
    harq_process_id: int
    src_l2: int  # claimed feedback sender (the TB receiver)
    dst_l2: int  # TB sender being answered
    spoofed: bool = False  # ground truth for metrics, invisible to logic


@dataclass
class DataBurst:
    """PSSCH payload: a transport block with its piggybacked control."""

    sci1_bits: object  # BitString for the pool's SCI 1-A layout
    sci2_bits: object  # BitString, 35-bit SCI 2-A
    mac_src_l2: int
    mac_dst_l2: int  # 2^24-1 for broadcast
    tb_id: int
    size_bytes: int


class Action(Enum):
    COMPLETE = "complete"
    RETRANSMIT = "retransmit"
    FAIL = "fail"


@dataclass
class HarqProcess:
    process_id: int
    ndi: int = 0
    state: TbState = TbState.IDLE
    attempts: int = 0
    tb_id: int | None = None

    def __post_init__(self):
        if not 0 <= self.process_id < MAX_PROCESSES:
            raise ValueError(
                f"process id {self.process_id} outside 0..{MAX_PROCESSES - 1}")

    @property
    def rv(self) -> int:
        if self.attempts == 0:
            return RV_SEQUENCE[0]
        return RV_SEQUENCE[(self.attempts - 1) % len(RV_SEQUENCE)]

    def start_tb(self, tb_id: int):
        if self.state == TbState.AWAITING_FEEDBACK:
            raise ValueError(f"process {self.process_id} still has a TB in flight")
        self.ndi ^= 1
        self.attempts = 0
        self.tb_id = tb_id
        self.state = TbState.IDLE

    def record_transmission(self) -> tuple[int, int]:
        """Count one (re)transmission; returns (ndi, rv) for the SCI."""
        if self.tb_id is None:
            raise ValueError("no TB loaded")
        self.attempts += 1
        if self.attempts > MAX_RETRANSMISSIONS + 1:
            raise AssertionError("transmitted beyond the retransmission bound")
        self.state = TbState.AWAITING_FEEDBACK
        return self.ndi, self.rv

    def on_feedback(self, ack: bool | None) -> Action:
        """Resolve the feedback slot; None (nothing arrived) is a NACK."""
        if self.state != TbState.AWAITING_FEEDBACK:
            raise ValueError(f"process {self.process_id} not awaiting feedback")
        if ack:
            self.state = TbState.DONE
            return Action.COMPLETE
        if self.attempts <= MAX_RETRANSMISSIONS:
            self.state = TbState.IDLE  # ready for the next occurrence
            return Action.RETRANSMIT
        self.state = TbState.FAILED
        return Action.FAIL


def feedback_for_tb(crc_ok: bool, harq_enabled: bool, process_id: int,
                    receiver_l2: int, sender_l2: int) -> FeedbackBurst | None:
    """Receiver-side feedback decision for an addressed TB."""
    if not harq_enabled:
        return None
    return FeedbackBurst(
        ack=crc_ok,
        harq_process_id=process_id,
        src_l2=receiver_l2,
        dst_l2=sender_l2,
    )


def arbitrate_feedback(
    candidates: list[tuple[FeedbackBurst, float]],
) -> tuple[FeedbackBurst, float] | None:
    """Pick the winning feedback heard in a TB's feedback slot, from
    `(burst, rsrp_dbm)` pairs.

    Stronger received power wins; a power tie goes to ACK over NACK, and
    a full tie to the first candidate.
    """
    return min(candidates, default=None, key=lambda c: (-c[1], not c[0].ack))
