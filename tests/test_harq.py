"""Stop-and-wait retransmission state machine and feedback arbitration."""

import pytest

from sidelinksim.harq import (
    Action,
    FeedbackBurst,
    HarqProcess,
    TbState,
    arbitrate_feedback,
    feedback_for_tb,
)


def fb(ack, rsrp, pid=0, src=2):
    return FeedbackBurst(ack, pid, src_l2=src, dst_l2=1), rsrp


def test_process_id_bounds():
    HarqProcess(15)
    with pytest.raises(ValueError):
        HarqProcess(16)


def test_rv_cycles_0_2_3_1():
    p = HarqProcess(0)
    p.start_tb(1)
    rvs = []
    for _ in range(4):
        rvs.append(p.record_transmission()[1])
        p.on_feedback(False)
    assert rvs == [0, 2, 3, 1]


def test_nack_drives_attempts_to_max_plus_one_then_fail():
    p = HarqProcess(3)
    p.start_tb(1)
    actions = []
    while True:
        p.record_transmission()
        act = p.on_feedback(False)
        actions.append(act)
        if act != Action.RETRANSMIT:
            break
    assert actions == [Action.RETRANSMIT] * 3 + [Action.FAIL]
    assert p.attempts == 4
    assert p.state == TbState.FAILED


def test_ack_completes_immediately():
    p = HarqProcess(0)
    p.start_tb(5)
    ndi0 = p.record_transmission()[0]
    assert p.on_feedback(True) == Action.COMPLETE
    assert p.state == TbState.DONE
    # next TB toggles NDI
    p.start_tb(6)
    assert p.ndi == ndi0 ^ 1


def test_start_tb_refuses_while_awaiting():
    p = HarqProcess(0)
    p.start_tb(1)
    p.record_transmission()
    with pytest.raises(ValueError):
        p.start_tb(2)
    p.on_feedback(True)
    p.start_tb(2)  # fine once resolved
    assert p.tb_id == 2 and p.attempts == 0


def test_feedback_requires_awaiting_state():
    p = HarqProcess(0)
    with pytest.raises(ValueError):
        p.on_feedback(True)
    with pytest.raises(ValueError):
        p.record_transmission()  # no TB loaded


def test_missing_feedback_policy():
    p = HarqProcess(0)
    p.start_tb(1)
    p.record_transmission()
    assert p.on_feedback(None) == Action.RETRANSMIT  # missing -> NACK


def test_feedback_for_tb_matrix():
    out = feedback_for_tb(True, True, 4, receiver_l2=0xBEEF, sender_l2=0xCAFE)
    assert out.ack and out.harq_process_id == 4
    assert out.src_l2 == 0xBEEF and out.dst_l2 == 0xCAFE
    assert feedback_for_tb(False, True, 4, 1, 2).ack is False
    assert feedback_for_tb(True, False, 4, 1, 2) is None


def test_arbitration_power_then_ack_then_first():
    strong_nack = fb(False, -60.0)
    weak_ack = fb(True, -80.0)
    assert arbitrate_feedback([weak_ack, strong_nack]) is strong_nack

    ack = fb(True, -70.0)
    nack = fb(False, -70.0)
    assert arbitrate_feedback([nack, ack]) is ack

    first = fb(False, -70.0, src=3)
    second = fb(False, -70.0, src=4)
    assert arbitrate_feedback([first, second]) is first
    assert arbitrate_feedback([second, first]) is second

    assert arbitrate_feedback([]) is None
