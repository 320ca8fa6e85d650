"""Unicast link establishment, key schedule, PDU protection, privacy."""

import copy
import hashlib
import hmac
import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sidelinksim.defense import TIMESTAMP_SKEW_SLOTS, ReplayGuard, enforce_policy
from sidelinksim.frames import Pc5Message, Pc5MessageKind as K
from sidelinksim.pc5 import (
    BROADCAST_L2,
    CIPHER_ALG,
    INTEG_ALG,
    KEEPALIVE_PERIOD_SLOTS,
    L2_SPACE,
    PC5_TIMEOUT_SLOTS,
    KeyHierarchy,
    LinkPhase,
    LinkSecurityContext,
    Negotiation,
    Pc5Endpoint,
    PolicyLevel,
    SecurityPolicy,
    UnprotectError,
    derive_session,
    negotiate_policy,
    prf,
    protect_pdu,
    refresh_identifier,
    unprotect_pdu,
)

PSK = b"\x11" * 32
R, P, N = PolicyLevel.REQUIRED, PolicyLevel.PREFERRED, PolicyLevel.NOT_NEEDED


def endpoint(ue_id, l2, policy=None, seed=0):
    return Pc5Endpoint(l2, PSK, policy or SecurityPolicy(),
                       random.Random(f"pc5test:{seed}:{ue_id}"))


def pump(a, b, first_msgs, slot=10, guard_a=None, guard_b=None, max_rounds=10):
    """Shuttle messages between two endpoints until both sides go quiet;
    returns (receiver's l2 id, event) pairs."""
    events = []
    inbound = [(b, a, m) for m in first_msgs]
    for _ in range(max_rounds):
        if not inbound:
            break
        nxt = []
        for receiver, sender, msg in inbound:
            guard = guard_a if receiver is a else guard_b
            replies, evs = receiver.handle(msg, slot, guard)
            events.extend((receiver.l2_id, e) for e in evs)
            nxt.extend((sender, receiver, m) for m in replies)
        inbound = nxt
        slot += 1
    return events


# -- negotiation -------------------------------------------------------------


NEGOTIATION_TABLE = {
    # (a_cipher, b_cipher) -> cipher_on, with integrity pinned NOT_NEEDED/NOT_NEEDED
    (R, R): True, (R, P): True, (P, R): True,
    (P, P): True,  # both prefer and null is not allowed
    (P, N): False, (N, P): False, (N, N): False,
    (R, N): None, (N, R): None,  # irreconcilable
}


def test_negotiation_matrix_cipher_axis():
    for (a_lvl, b_lvl), want in NEGOTIATION_TABLE.items():
        a = SecurityPolicy(ciphering=a_lvl, integrity=N)
        b = SecurityPolicy(ciphering=b_lvl, integrity=N)
        got = negotiate_policy(a, b)
        if want is None:
            assert got is None, (a_lvl, b_lvl)
        else:
            assert got == Negotiation(want, False), (a_lvl, b_lvl)


def test_negotiation_preferred_pair_with_null_allowed():
    a = SecurityPolicy(ciphering=P, integrity=N, allow_null_cipher=True)
    b = SecurityPolicy(ciphering=P, integrity=N, allow_null_cipher=True)
    assert negotiate_policy(a, b) == Negotiation(False, False)
    # one side refusing null keeps the cipher on
    c = SecurityPolicy(ciphering=P, integrity=N, allow_null_cipher=False)
    assert negotiate_policy(a, c).cipher_on


def test_negotiation_axes_are_independent():
    a = SecurityPolicy(ciphering=N, integrity=R)
    b = SecurityPolicy(ciphering=N, integrity=P)
    got = negotiate_policy(a, b)
    assert got == Negotiation(False, True)
    assert got.cipher_alg == "null" and got.integrity_alg != "null"


# -- key schedule ------------------------------------------------------------


def test_key_schedule_known_answer():
    kh = KeyHierarchy(PSK).with_knrp(0xDEADBEEF)
    expected_knrp = hmac.new(PSK, b"knrp|" + (0xDEADBEEF).to_bytes(4, "big"),
                             hashlib.sha256).digest()
    assert kh.k_nrp == expected_knrp

    ni, nr = b"\x01" * 16, b"\x02" * 16
    sess = derive_session(kh, ni, nr, "xor-hmac-stream", "hmac-sha256-32")
    expected_sess = hmac.new(expected_knrp, b"sess|" + ni + nr, hashlib.sha256).digest()
    assert sess.k_nrp_sess == expected_sess
    assert sess.k_nrp_sess_id == (0x01 << 8) | 0x02
    assert sess.nrpek == hmac.new(expected_sess, b"nrpek|xor-hmac-stream",
                                  hashlib.sha256).digest()[:16]
    assert sess.nrpik == hmac.new(expected_sess, b"nrpik|hmac-sha256-32",
                                  hashlib.sha256).digest()[:16]


def test_fresh_nonces_refresh_all_session_keys():
    kh = KeyHierarchy(PSK).with_knrp(1)
    s1 = derive_session(kh, b"\x01" * 16, b"\x02" * 16, "c", "i")
    s2 = derive_session(kh, b"\x03" * 16, b"\x02" * 16, "c", "i")
    assert s1.k_nrp_sess != s2.k_nrp_sess
    assert s1.nrpek != s2.nrpek and s1.nrpik != s2.nrpik
    with pytest.raises(ValueError):
        derive_session(KeyHierarchy(PSK), b"", b"", "c", "i")


# -- PDU protection ----------------------------------------------------------


def make_ctx(cipher=True, integ=True):
    kh = derive_session(KeyHierarchy(PSK).with_knrp(7), b"\x0a" * 16, b"\x0b" * 16,
                        "c" if cipher else "null", "i" if integ else "null")
    return LinkSecurityContext(kh, cipher, integ)


def test_protect_round_trip_ciphered_and_signed():
    # KEEPALIVE_REQUEST carries full protection on a live link
    tx, rx = make_ctx(), make_ctx()
    msg = Pc5Message(K.KEEPALIVE_REQUEST, 0x111111, 0x222222, 1, {"n": 3})
    wire = protect_pdu(tx, msg)
    assert wire.cipher_blob is not None and wire.auth_tag is not None
    assert wire.body == {}
    assert unprotect_pdu(rx, wire) == {"n": 3}


def test_protect_skips_unprotected_kinds():
    ctx = make_ctx()
    msg = Pc5Message(K.ESTABLISHMENT_REQUEST, 1, 2, 1, {"nonce": "aa"})
    wire = protect_pdu(ctx, msg)
    assert wire is msg  # direct-request kinds ride in the clear


def test_tampered_blob_tag_or_header_is_rejected():
    tx = make_ctx()
    msg = Pc5Message(K.KEEPALIVE_REQUEST, 1, 2, 1, {"n": 3})
    wire = protect_pdu(tx, msg)

    from dataclasses import replace
    flipped_blob = replace(wire, cipher_blob="00" + wire.cipher_blob[2:])
    with pytest.raises(UnprotectError) as err:
        unprotect_pdu(make_ctx(), flipped_blob)
    assert err.value.reason == "bad_tag"

    flipped_tag = replace(wire, auth_tag="0" * len(wire.auth_tag))
    with pytest.raises(UnprotectError) as err:
        unprotect_pdu(make_ctx(), flipped_tag)
    assert err.value.reason == "bad_tag"

    stripped = replace(wire, auth_tag=None)
    with pytest.raises(UnprotectError) as err:
        unprotect_pdu(make_ctx(), stripped)
    assert err.value.reason == "missing_tag"

    rerouted = replace(wire, dst_l2=0x333333)  # header feeds the MAC
    with pytest.raises(UnprotectError):
        unprotect_pdu(make_ctx(), rerouted)


def test_counter_replay_is_rejected_after_verify():
    tx, rx = make_ctx(), make_ctx()
    first = protect_pdu(tx, Pc5Message(K.KEEPALIVE_REQUEST, 1, 2, 1, {"n": 0}))
    second = protect_pdu(tx, Pc5Message(K.KEEPALIVE_REQUEST, 1, 2, 2, {"n": 1}))
    assert (first.counter, second.counter) == (0, 1)
    unprotect_pdu(rx, first)
    unprotect_pdu(rx, second)
    with pytest.raises(UnprotectError) as err:
        unprotect_pdu(rx, first)
    assert err.value.reason == "replay"


def test_forged_tags_never_verify():
    rx = make_ctx()
    rng = random.Random(99)
    msg = Pc5Message(K.KEEPALIVE_REQUEST, 1, 2, 1, {})
    for i in range(300):
        from dataclasses import replace
        forged = replace(msg, counter=i,
                         cipher_blob=rng.randbytes(8).hex(),
                         auth_tag=rng.randbytes(4).hex())
        with pytest.raises(UnprotectError):
            unprotect_pdu(rx, forged)


# -- handshakes --------------------------------------------------------------


def test_handshake_no_auth_establishes_with_context():
    a, b = endpoint(1, 0x000101), endpoint(2, 0x000202)
    events = pump(a, b, a.initiate(0x000202, 10))
    kinds = [e.kind for _, e in events]
    assert kinds.count("established") == 2
    assert a.links[0x000202].phase == LinkPhase.ESTABLISHED
    assert b.links[0x000101].phase == LinkPhase.ESTABLISHED
    assert a.links[0x000202].ctx.keys.nrpek == b.links[0x000101].ctx.keys.nrpek
    assert list(a.links) == [0x000202]


def test_handshake_with_mutual_auth():
    pol = SecurityPolicy(auth_mandatory=True)
    a, b = endpoint(1, 0x000101, pol), endpoint(2, 0x000202, pol)
    events = pump(a, b, a.initiate(0x000202, 10))
    assert [e.kind for _, e in events].count("established") == 2
    assert a.links[0x000202].phase == LinkPhase.ESTABLISHED


def test_handshake_null_security_short_path():
    pol = SecurityPolicy(ciphering=N, integrity=N)
    a, b = endpoint(1, 0x000101, pol), endpoint(2, 0x000202, pol)
    events = pump(a, b, a.initiate(0x000202, 10))
    assert [e.kind for _, e in events].count("established") == 2
    assert a.links[0x000202].negotiation == Negotiation(False, False)
    assert a.links[0x000202].ctx is None


def test_handshake_policy_mismatch_rejects():
    a = endpoint(1, 0x000101, SecurityPolicy(ciphering=R, integrity=R))
    b = endpoint(2, 0x000202, SecurityPolicy(ciphering=N, integrity=N))
    events = pump(a, b, a.initiate(0x000202, 10))
    kinds = [e.kind for _, e in events]
    assert "policy_mismatch" in kinds
    assert "link_failure" in kinds  # the echoed reject tears down the attempt
    assert "established" not in kinds
    assert 0x000202 not in a.links and 0x000101 not in b.links


def test_wrong_psk_fails_authentication():
    pol = SecurityPolicy(auth_mandatory=True)
    a = Pc5Endpoint(0x000101, b"\x22" * 32, pol, random.Random(1))
    b = endpoint(2, 0x000202, pol)
    events = pump(a, b, a.initiate(0x000202, 10))
    kinds = [e.kind for _, e in events]
    assert "auth_fail" in kinds
    assert "established" not in kinds


def test_duplicate_request_against_live_link_is_stateless():
    a, b = endpoint(1, 0x000101), endpoint(2, 0x000202)
    first_request = a.initiate(0x000202, 10)[0]
    pump(a, b, [first_request])
    rx_ctx_before = b.links[0x000101].ctx
    water_before = rx_ctx_before.rx_high_water
    replies, events = b.handle(first_request, 200, None)
    assert [e.kind for e in events] == ["duplicate_session"]
    assert replies and replies[0].kind == K.SECURITY_MODE_COMMAND
    assert b.links[0x000101].phase == LinkPhase.ESTABLISHED
    assert b.links[0x000101].ctx is rx_ctx_before
    assert rx_ctx_before.rx_high_water == water_before


def test_replay_guard_blocks_duplicate_and_stale_requests():
    a, b = endpoint(1, 0x000101), endpoint(2, 0x000202)
    guard = ReplayGuard()
    req = a.initiate(0x000202, 10)[0]
    replies, events = b.handle(req, 12, guard)
    assert replies  # fresh request sails through
    again, events = b.handle(req, 14, guard)
    assert again == [] and events[0].kind == "replay_reject"
    assert events[0].detail["reason"] == "duplicate_nonce"

    c = endpoint(3, 0x000303)
    stale = c.initiate(0x000202, 10)[0]
    _, events = b.handle(stale, 10 + TIMESTAMP_SKEW_SLOTS + 1, guard)
    assert events[0].detail["reason"] == "stale_timestamp"
    d = endpoint(4, 0x000404)
    replies, _ = b.handle(d.initiate(0x000202, 10)[0], 10 + TIMESTAMP_SKEW_SLOTS, guard)
    assert replies  # a timestamp right at the skew is still fresh


def test_forged_reject_aborts_pending_link_without_guard():
    a, b = endpoint(1, 0x000101), endpoint(2, 0x000202)
    a.initiate(0x000202, 10)
    forged = Pc5Message(K.ESTABLISHMENT_REJECT, 0x000202, 0x000101, 1,
                        {"cause": "congestion", "echo_nonce": "ff" * 16, "ts": 10})
    _, events = a.handle(forged, 11, None)
    assert [e.kind for e in events] == ["link_failure"]
    assert 0x000202 not in a.links


def test_forged_reject_blocked_by_echo_binding():
    a, b = endpoint(1, 0x000101), endpoint(2, 0x000202)
    guard = ReplayGuard()
    a.initiate(0x000202, 10)
    forged = Pc5Message(K.ESTABLISHMENT_REJECT, 0x000202, 0x000101, 1,
                        {"cause": "congestion", "echo_nonce": "ff" * 16, "ts": 10})
    _, events = a.handle(forged, 11, guard)
    assert events[0].kind == "replay_reject"
    assert events[0].detail["reason"] == "unbound_response"
    assert a.links[0x000202].phase == LinkPhase.REQUEST_SENT

    # a genuine reject echoing the real nonce still goes through
    real = Pc5Message(K.ESTABLISHMENT_REJECT, 0x000202, 0x000101, 2,
                      {"cause": "policy_mismatch",
                       "echo_nonce": a.links[0x000202].nonce_i, "ts": 11})
    _, events = a.handle(real, 12, guard)
    assert events[0].kind == "link_failure"


@pytest.mark.parametrize("cipher, integ, concludes", [
    (R, R, False), (N, R, False), (R, N, False), (N, N, True), (P, N, True),
])
def test_forged_bare_accept_concludes_only_a_policy_with_no_required_axis(
        cipher, integ, concludes):
    a = endpoint(1, 0x000101, SecurityPolicy(ciphering=cipher, integrity=integ))
    a.initiate(0x000202, 10)
    forged = Pc5Message(K.ESTABLISHMENT_ACCEPT, 0x000202, 0x000101, 1, {})
    replies, events = a.handle(forged, 11, None)
    link = a.links[0x000202]
    assert replies == []
    if concludes:
        assert [e.kind for e in events] == ["established"]
        assert link.phase == LinkPhase.ESTABLISHED
        assert link.negotiation == Negotiation(False, False)
    else:
        assert [e.kind for e in events] == ["unexpected_message"]
        assert link.phase == LinkPhase.REQUEST_SENT


def established_slot(events, l2):
    """Slot of the `established` event `pump` recorded for endpoint `l2`."""
    (slot,) = [e.slot for who, e in events if who == l2 and e.kind == "established"]
    return slot


@pytest.mark.parametrize("cipher, integ, allow_null", [
    (R, R, False), (N, R, False), (R, N, False), (N, N, False), (P, P, False),
    (N, N, True),
])
def test_null_smc_is_refused_under_every_policy(cipher, integ, allow_null):
    # a responder answers a both-off negotiation with a bare accept, so
    # a Security Mode Command naming null for both algorithms is forged
    a = endpoint(1, 0x000101, SecurityPolicy(ciphering=cipher, integrity=integ,
                                             allow_null_cipher=allow_null))
    (request,) = a.initiate(0x000202, 10)
    # the request carries the initiator's nonce in the clear, so a forger can echo it
    forged = Pc5Message(K.SECURITY_MODE_COMMAND, 0x000202, 0x000101, 0,
                        {"nonce": "ee" * 16, "echo_nonce": request.body["nonce"],
                         "cipher_alg": "null", "integ_alg": "null", "ts": 11})
    replies, events = a.handle(forged, 11, None)
    link = a.links[0x000202]
    assert replies == [] and [e.kind for e in events] == ["unexpected_message"]
    assert link.phase == LinkPhase.REQUEST_SENT and link.ctx is None
    # a bare accept after it can no longer report an unprotected link as protected
    accept = Pc5Message(K.ESTABLISHMENT_ACCEPT, 0x000202, 0x000101, 1, {})
    _, events = a.handle(accept, 12, None)
    assert all(e.detail.get("security") != "context" for e in events)


def test_pending_link_times_out():
    a = endpoint(1, 0x000101)
    assert a.deadline is None
    a.initiate(0x000202, 10)
    assert a.deadline == 10 + PC5_TIMEOUT_SLOTS
    out, events = a.tick(10 + PC5_TIMEOUT_SLOTS - 1)
    assert events == []
    assert a.deadline == 10 + PC5_TIMEOUT_SLOTS
    out, events = a.tick(10 + PC5_TIMEOUT_SLOTS)
    assert [e.kind for e in events] == ["link_failure"]
    assert events[0].detail["cause"] == "timeout"
    assert a.links == {}
    assert a.deadline is None


def test_keepalive_misses_release_the_link():
    a, b = endpoint(1, 0x000101), endpoint(2, 0x000202)
    events = pump(a, b, a.initiate(0x000202, 10))
    established = established_slot(events, a.l2_id)
    assert a.deadline == established + KEEPALIVE_PERIOD_SLOTS
    # the responder's established link runs no timer
    assert b.links[0x000101].phase == LinkPhase.ESTABLISHED
    assert b.deadline is None
    # peer never answers: two probes then failure
    out1, ev1 = a.tick(established + KEEPALIVE_PERIOD_SLOTS)
    assert [m.kind for m in out1] == [K.KEEPALIVE_REQUEST] and ev1 == []
    assert a.deadline == established + 2 * KEEPALIVE_PERIOD_SLOTS
    out2, ev2 = a.tick(established + 2 * KEEPALIVE_PERIOD_SLOTS)
    assert [m.kind for m in out2] == [K.KEEPALIVE_REQUEST] and ev2 == []
    assert a.deadline == established + 3 * KEEPALIVE_PERIOD_SLOTS
    out3, ev3 = a.tick(established + 3 * KEEPALIVE_PERIOD_SLOTS)
    assert out3 == [] and [e.kind for e in ev3] == ["link_failure"]
    assert ev3[0].detail["cause"] == "keepalive"
    assert a.links[0x000202].phase == LinkPhase.RELEASED
    assert a.deadline is None


def test_keepalive_answered_resets_misses():
    a, b = endpoint(1, 0x000101), endpoint(2, 0x000202)
    established = established_slot(pump(a, b, a.initiate(0x000202, 10)), a.l2_id)
    out, _ = a.tick(established + KEEPALIVE_PERIOD_SLOTS)
    pump(a, b, out, slot=established + KEEPALIVE_PERIOD_SLOTS + 1)
    assert a.links[0x000202].keepalive_misses == 0


def test_identifier_update_rebinds_peer():
    a, b = endpoint(1, 0x000101), endpoint(2, 0x000202)
    pump(a, b, a.initiate(0x000202, 10))
    msgs = a.begin_identifier_update(0x000999, new_knrp_id=77)
    assert [m.src_l2 for m in msgs] == [0x000101]  # sent under the old id
    assert a.l2_id == 0x000999
    events = pump(a, b, msgs, slot=30)
    assert any(e.kind == "identifier_update" for _, e in events)
    assert 0x000999 in b.links and 0x000101 not in b.links
    assert b.links[0x000999].peer_l2 == 0x000999


def earliest_link_deadline(ep):
    return min((link.deadline for link in ep.links.values() if link.deadline is not None),
               default=None)


POLICIES = [SecurityPolicy(), SecurityPolicy(auth_mandatory=True), SecurityPolicy(N, N),
            enforce_policy(SecurityPolicy())]
STEPS = st.tuples(
    st.sampled_from(["initiate", "deliver", "deliver", "deliver", "forge", "replay",
                     "update", "tick"]),
    st.integers(0, 1),  # the endpoint that acts
    st.integers(0, 2100),  # slots a tick moves on, or which message is taken
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(policies=st.tuples(st.sampled_from(POLICIES), st.sampled_from(POLICIES)),
       steps=st.lists(STEPS, max_size=40))
def test_deadline_is_the_earliest_link_deadline(policies, steps):
    """Two endpoints driven through random link starts, deliveries,
    forged rejects, replays, identifier updates and ticks: after every
    call `deadline` is the earliest link deadline, and a tick before it
    returns nothing and leaves every link as it was."""
    eps = [endpoint(1, 0x000101, policies[0]), endpoint(2, 0x000202, policies[1])]
    on_air, handled = [], []  # sent and not yet handled; handled
    slot = 0
    for step, who, n in steps:
        ep, peer = eps[who], eps[1 - who]
        msg = None
        if step == "initiate":
            on_air += ep.initiate(peer.l2_id, slot)
        elif step == "update":
            on_air += ep.begin_identifier_update(ep.l2_id + 0x1000, n)
        elif step == "tick":
            slot += n
            if ep.deadline is None or slot < ep.deadline:
                links = copy.deepcopy(ep.links)
                assert ep.tick(slot) == ([], [])
                assert ep.links == links
            else:
                on_air += ep.tick(slot)[0]
        elif step == "forge":
            msg = Pc5Message(K.ESTABLISHMENT_REJECT, peer.l2_id, ep.l2_id, 0,
                             {"cause": "congestion", "echo_nonce": "00" * 16, "ts": slot})
        elif step == "replay" and handled:
            msg = handled[n % len(handled)]
        elif step == "deliver" and on_air:
            msg = on_air.pop(n % len(on_air))
            handled.append(msg)
        receiver = next((e for e in eps if msg is not None and e.l2_id == msg.dst_l2), None)
        if receiver is not None:
            on_air += receiver.handle(msg, slot)[0]
            slot += 1
        for e in eps:
            assert e.deadline == earliest_link_deadline(e)


# -- receive-path characterization -------------------------------------------
#
# Every message kind against every link state the receiver can hold: no
# link, and each phase on each side. Each case is run without and with a
# ReplayGuard, in three variants: "clear" is unprotected and echoes the
# nonce the pending step is bound to, "unbound" is unprotected with a
# wrong echo, and "sealed" is protected under the link's keys the way the
# genuine peer would send it. A row records the reply kinds, the event
# kinds with their detail keys, and the link's phase afterwards (or the
# exception). pc5_receive_rows.txt holds the rows; a deliberate change to
# the receive path re-records them with `"\n".join(receive_rows()) + "\n"`.

ME, PEER = 0x000101, 0x000202
RECEIVE_ROWS_FILE = Path(__file__).resolve().parent / "pc5_receive_rows.txt"


def _receiver_at(phase, initiator):
    """Endpoint ME holding a link to PEER in `phase`, and the slot after.

    Real handshake steps take the link there when they can; the other
    states (idle, released, a responder in request_sent) overwrite the
    phase of an established link.
    """
    pol = SecurityPolicy(auth_mandatory=phase == LinkPhase.AUTHENTICATING)
    me, peer = endpoint(1, ME, pol), endpoint(2, PEER, pol)
    a, b = (me, peer) if initiator else (peer, me)
    slot = 10
    queue = [(b, a, m) for m in a.initiate(b.l2_id, slot)]
    while queue and getattr(me.links.get(PEER), "phase", None) != phase:
        receiver, sender, msg = queue.pop(0)
        slot += 1
        replies, _ = receiver.handle(msg, slot, None)
        queue += [(sender, receiver, r) for r in replies]
    me.links[PEER].phase = phase
    return me, slot + 1


def _case_message(kind, link, variant, slot):
    bound = link.binding_nonce() if link is not None else None
    body = {
        "nonce": "ab" * 16, "ts": slot, "knrp_id": 7, "cipher": "REQUIRED",
        "integ": "REQUIRED", "allow_null": 0, "auth_req": 0, "challenge": "cd" * 16,
        "proof": "00" * 32, "cipher_alg": CIPHER_ALG, "integ_alg": INTEG_ALG, "n": 0,
        "new_l2": 0x000999, "new_knrp_id": 9, "cause": "test",
        "echo_nonce": "ff" * 16 if variant == "unbound" or bound is None else bound,
    }
    msg = Pc5Message(kind, PEER, ME, 1, body)
    if variant != "sealed" or link is None:
        return msg
    if link.challenge is not None:
        body["proof"] = prf(PSK, bytes.fromhex(link.challenge)).hex()
    if link.ctx is not None:
        ctx = LinkSecurityContext(link.ctx.keys, link.ctx.cipher_on, link.ctx.integrity_on,
                                  tx_count=link.ctx.rx_high_water + 1)
    else:
        keys = derive_session(link.keys, bytes.fromhex(link.nonce_i),
                              bytes.fromhex(body["nonce"]), CIPHER_ALG, INTEG_ALG)
        ctx = LinkSecurityContext(keys, True, True)
    return protect_pdu(ctx, msg)


def _receive_case(phase, initiator, kind, variant, guarded):
    if phase is None:
        me, slot = endpoint(1, ME), 20
    else:
        me, slot = _receiver_at(phase, initiator)
    msg = _case_message(kind, me.links.get(PEER), variant, slot)
    try:
        replies, events = me.handle(msg, slot, ReplayGuard() if guarded else None)
    except Exception as exc:  # recorded, so a changed failure shows too
        return f"raises {type(exc).__name__}"
    link = me.links.get(PEER)
    return "replies=[{}] events=[{}] phase={}".format(
        " ".join(r.kind.name for r in replies),
        " ".join(f"{e.kind}({','.join(sorted(e.detail))})" for e in events),
        link.phase.value if link is not None else "-",
    )


def receive_rows():
    states = [(None, None)] + [(p, i) for p in LinkPhase for i in (True, False)]
    rows = []
    for phase, initiator in states:
        state = "none" if phase is None else f"{phase.value}/{'i' if initiator else 'r'}"
        for kind in K:
            for variant in ("clear", "unbound", "sealed"):
                plain = _receive_case(phase, initiator, kind, variant, False)
                guarded = _receive_case(phase, initiator, kind, variant, True)
                row = f"{state} {kind.name} {variant}: {plain}"
                rows.append(row if guarded == plain else f"{row} || guard: {guarded}")
    return rows


def test_receive_path_matches_recorded_rows():
    assert receive_rows() == RECEIVE_ROWS_FILE.read_text().splitlines()


def test_replayed_counter_is_a_replay_from_security_mode_on():
    # a verified PDU advances the high-water mark even when its echo is wrong
    me, slot = _receiver_at(LinkPhase.SECURITY_MODE, False)
    ctx = me.links[PEER].ctx
    sender = LinkSecurityContext(ctx.keys, ctx.cipher_on, ctx.integrity_on)
    wire = protect_pdu(sender, Pc5Message(K.SECURITY_MODE_COMPLETE, PEER, ME, 1,
                                          {"echo_nonce": "ff" * 16}))
    _, events = me.handle(wire, slot)
    assert [e.kind for e in events] == ["discard_unbound"]
    _, events = me.handle(wire, slot + 1)
    assert [(e.kind, e.detail["reason"]) for e in events] == [("replay", "replay")]


# -- identifier privacy ------------------------------------------------------


def test_refresh_identifier_weak_is_predictable():
    for current, expected in [
        (0x000500, 0x000501),
        (L2_SPACE - 3, L2_SPACE - 2),
        (L2_SPACE - 2, 0),  # steps past the broadcast id
    ]:
        retired = set()
        new = refresh_identifier(current, retired, random.Random(0), "weak", set())
        assert new == expected
        assert retired == {current}


def test_refresh_identifier_secure_avoids_history_and_live_ids():
    rng = random.Random(12)
    current, retired = 0x000500, set()
    live = {rng.getrandbits(24) for _ in range(64)}
    seen = {current}
    for _ in range(39):
        current = refresh_identifier(current, retired, rng, "secure", live)
        assert current != BROADCAST_L2
        assert current not in live and current not in seen
        seen.add(current)
    assert retired | {current} == seen
    with pytest.raises(ValueError):
        refresh_identifier(current, retired, rng, "sometimes", set())


def test_enforce_policy_hardens_everything():
    weak = SecurityPolicy(ciphering=N, integrity=P, allow_null_cipher=True)
    hard = enforce_policy(weak)
    assert hard.ciphering == R and hard.integrity == P
    assert not hard.allow_null_cipher and hard.auth_mandatory
