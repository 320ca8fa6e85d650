"""PC5 unicast link state machine, security negotiation and key schedule.

The handshake grammar: Establishment Request, optional authentication
round trip, Security Mode Command/Complete, Establishment Accept.
Reject kinds abort a pending link in any pre-established phase; that is
deliberate, it is the surface the forged-reject attack needs.

Key schedule (PRF = HMAC-SHA256 throughout):

    k_nrp      = PRF(k_long_term, "knrp" | knrp_id)     knrp_id: 32-bit
    k_nrp_sess = PRF(k_nrp, nonce_initiator | nonce_responder)
    nrpek      = PRF(k_nrp_sess, "nrpek" | cipher_alg)[:16]
    nrpik      = PRF(k_nrp_sess, "nrpik" | integ_alg)[:16]

The 16-bit session id takes its high byte from the initiator's nonce
and its low byte from the responder's. Protected PDUs carry a 32-bit
truncated MAC over header plus wire payload and a monotonically
increasing counter; the receiver rejects any counter at or below its
high-water mark.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import random
from dataclasses import dataclass, field, replace
from enum import Enum

from .frames import (
    Pc5Message,
    Pc5MessageKind as K,
    PROTECTION,
    SecurityPhase,
)

TAG_BYTES = 4
NONCE_BYTES = 16
PC5_TIMEOUT_SLOTS = 64
KEEPALIVE_PERIOD_SLOTS = 2000
KEEPALIVE_MAX_MISSES = 2
CIPHER_ALG = "xor-hmac-stream"
INTEG_ALG = "hmac-sha256-32"
NULL_ALG = "null"


def prf(key: bytes, data: bytes) -> bytes:
    return hmac.new(key, data, hashlib.sha256).digest()


# ---------------------------------------------------------------------------
# policy negotiation


class PolicyLevel(Enum):
    REQUIRED = "REQUIRED"
    PREFERRED = "PREFERRED"
    NOT_NEEDED = "NOT_NEEDED"


@dataclass(frozen=True)
class SecurityPolicy:
    ciphering: PolicyLevel = PolicyLevel.REQUIRED
    integrity: PolicyLevel = PolicyLevel.REQUIRED
    allow_null_cipher: bool = False
    auth_mandatory: bool = False


@dataclass(frozen=True)
class Negotiation:
    """Agreed protection per axis; both off is an unprotected link."""

    cipher_on: bool
    integrity_on: bool

    @property
    def cipher_alg(self) -> str:
        return CIPHER_ALG if self.cipher_on else NULL_ALG

    @property
    def integrity_alg(self) -> str:
        return INTEG_ALG if self.integrity_on else NULL_ALG


def _axis(a: PolicyLevel, b: PolicyLevel, null_ok: bool) -> bool | None:
    """One protection axis; None marks an irreconcilable pair."""
    pair = {a, b}
    if PolicyLevel.REQUIRED in pair and PolicyLevel.NOT_NEEDED in pair:
        return None
    if PolicyLevel.REQUIRED in pair:
        return True
    if a == b == PolicyLevel.PREFERRED:
        return not null_ok
    return False  # NOT_NEEDED with NOT_NEEDED or PREFERRED


def negotiate_policy(a: SecurityPolicy, b: SecurityPolicy) -> Negotiation | None:
    """The agreed protection, or None for a mismatch."""
    both_null_ok = a.allow_null_cipher and b.allow_null_cipher
    cipher = _axis(a.ciphering, b.ciphering, both_null_ok)
    integ = _axis(a.integrity, b.integrity, False)
    if cipher is None or integ is None:
        return None
    return Negotiation(cipher, integ)


# ---------------------------------------------------------------------------
# key hierarchy


@dataclass
class KeyHierarchy:
    k_long_term: bytes
    knrp_id: int | None = None
    k_nrp: bytes | None = None
    k_nrp_sess: bytes | None = None
    k_nrp_sess_id: int | None = None
    nrpek: bytes | None = None
    nrpik: bytes | None = None

    def with_knrp(self, knrp_id: int) -> "KeyHierarchy":
        k_nrp = prf(self.k_long_term, b"knrp|" + knrp_id.to_bytes(4, "big"))
        return replace(self, knrp_id=knrp_id, k_nrp=k_nrp)


def derive_session(kh: KeyHierarchy, nonce_initiator: bytes, nonce_responder: bytes,
                   cipher_alg: str, integ_alg: str) -> KeyHierarchy:
    """Session keys from the nonce exchange; new nonces refresh everything."""
    if kh.k_nrp is None:
        raise ValueError("no link key established yet")
    sess = prf(kh.k_nrp, b"sess|" + nonce_initiator + nonce_responder)
    return replace(
        kh,
        k_nrp_sess=sess,
        k_nrp_sess_id=(nonce_initiator[0] << 8) | nonce_responder[0],
        nrpek=prf(sess, b"nrpek|" + cipher_alg.encode())[:16],
        nrpik=prf(sess, b"nrpik|" + integ_alg.encode())[:16],
    )


# ---------------------------------------------------------------------------
# PDU protection


@dataclass
class LinkSecurityContext:
    keys: KeyHierarchy
    cipher_on: bool
    integrity_on: bool
    tx_count: int = 0
    rx_high_water: int = -1


class UnprotectError(Exception):
    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


def _keystream(key: bytes, header: bytes, length: int) -> bytes:
    out = bytearray()
    block = 0
    while len(out) < length:
        out.extend(prf(key, header + b"|ks|" + block.to_bytes(4, "big")))
        block += 1
    return bytes(out[:length])


def _wants(kind: K, ctx: LinkSecurityContext | None) -> tuple[bool, bool]:
    """(cipher, integrity) actually applied for this kind on this link."""
    prof = PROTECTION[kind]
    if ctx is None:
        return False, False
    return prof.ciphered and ctx.cipher_on, prof.integrity and ctx.integrity_on


def protect_pdu(ctx: LinkSecurityContext | None, msg: Pc5Message) -> Pc5Message:
    """Apply the link's protection to an outbound PDU."""
    cipher, integ = _wants(msg.kind, ctx)
    if not cipher and not integ:
        return msg
    assert ctx is not None
    out = replace(msg, counter=ctx.tx_count)
    ctx.tx_count += 1
    if cipher:
        clear = out.body_bytes()
        ks = _keystream(ctx.keys.nrpek, out.header_bytes(), len(clear))
        out = replace(out, body={}, cipher_blob=bytes(
            c ^ k for c, k in zip(clear, ks)
        ).hex())
    if integ:
        out = replace(out, auth_tag=prf(ctx.keys.nrpik, out.mac_input())[:TAG_BYTES].hex())
    return out


def unprotect_pdu(ctx: LinkSecurityContext | None, msg: Pc5Message) -> dict:
    """Verify and strip protection; returns the clear body fields.

    Raises UnprotectError("bad_tag" | "replay" | "missing_tag") and
    advances the replay high-water mark only after the tag verifies.
    """
    cipher, integ = _wants(msg.kind, ctx)
    if not cipher and not integ:
        return dict(msg.body)
    assert ctx is not None
    if integ:
        if msg.auth_tag is None:
            raise UnprotectError("missing_tag")
        expected = prf(ctx.keys.nrpik, msg.mac_input())[:TAG_BYTES].hex()
        if not hmac.compare_digest(expected, msg.auth_tag):
            raise UnprotectError("bad_tag")
        if msg.counter <= ctx.rx_high_water:
            raise UnprotectError("replay")
        ctx.rx_high_water = msg.counter
    if cipher:
        if msg.cipher_blob is None:
            raise UnprotectError("bad_tag")
        blob = bytes.fromhex(msg.cipher_blob)
        ks = _keystream(ctx.keys.nrpek, msg.header_bytes(), len(blob))
        clear = bytes(c ^ k for c, k in zip(blob, ks))
        try:
            return dict(json.loads(clear.decode()))
        except (ValueError, UnicodeDecodeError) as exc:
            raise UnprotectError("bad_tag") from exc
    return dict(msg.body)


# ---------------------------------------------------------------------------
# identifier privacy


L2_SPACE = 1 << 24
BROADCAST_L2 = L2_SPACE - 1


def weak_successor(l2_id: int) -> int:
    """The weak scheme's next id after `l2_id`: +1, stepping past BROADCAST_L2 to 0."""
    return (l2_id + 1) % BROADCAST_L2


def refresh_identifier(current: int, retired: set[int], rng: random.Random, mode: str,
                       live_ids: set[int]) -> int:
    """Roll the layer-2 id `current`, adding it to `retired`; returns the new value.

    weak mode is the predictable `weak_successor` scheme kept for the
    tracking experiment. secure mode redraws on any clash with an id this
    UE held before or one currently live in the run.
    """
    if mode not in ("weak", "secure"):
        raise ValueError(f"unknown randomization mode {mode!r}")
    retired.add(current)
    if mode == "weak":
        return weak_successor(current)
    while True:
        new = rng.getrandbits(24)
        if new != BROADCAST_L2 and new not in retired and new not in live_ids:
            return new


# ---------------------------------------------------------------------------
# link state machine


class LinkPhase(Enum):
    IDLE = "idle"
    REQUEST_SENT = "request_sent"
    AUTHENTICATING = "authenticating"
    SECURITY_MODE = "security_mode"
    ESTABLISHED = "established"
    RELEASED = "released"


PRE_ESTABLISHED = (
    LinkPhase.REQUEST_SENT,
    LinkPhase.AUTHENTICATING,
    LinkPhase.SECURITY_MODE,
)


@dataclass
class LinkState:
    peer_l2: int
    is_initiator: bool
    phase: LinkPhase = LinkPhase.IDLE
    # the slot in which `tick` next acts: a pending link's timeout or an
    # initiator's keepalive; None while no timer runs
    deadline: int | None = None
    negotiation: Negotiation | None = None
    ctx: LinkSecurityContext | None = None
    keys: KeyHierarchy | None = None
    nonce_i: str | None = None  # initiator nonce (hex)
    nonce_r: str | None = None  # responder nonce (hex)
    challenge: str | None = None
    keepalive_misses: int = 0

    def binding_nonce(self) -> str | None:
        """Nonce a legitimate response to our pending step must echo."""
        if self.phase == LinkPhase.REQUEST_SENT:
            return self.nonce_i
        if self.phase == LinkPhase.AUTHENTICATING:
            return self.nonce_i if self.is_initiator else self.challenge
        if self.phase == LinkPhase.SECURITY_MODE:
            return self.nonce_i if self.is_initiator else self.nonce_r
        return None


@dataclass
class SecurityEvent:
    slot: int
    kind: str
    peer_l2: int
    detail: dict = field(default_factory=dict)


def _policy_body(policy: SecurityPolicy) -> dict:
    return {
        "cipher": policy.ciphering.value,
        "integ": policy.integrity.value,
        "allow_null": int(policy.allow_null_cipher),
        "auth_req": int(policy.auth_mandatory),
    }


def _policy_from_body(body: dict) -> SecurityPolicy:
    return SecurityPolicy(
        ciphering=PolicyLevel(body["cipher"]),
        integrity=PolicyLevel(body["integ"]),
        allow_null_cipher=bool(body["allow_null"]),
        auth_mandatory=bool(body["auth_req"]),
    )


def _unexpected(msg: Pc5Message, slot: int) -> tuple[list, list[SecurityEvent]]:
    return [], [SecurityEvent(slot, "unexpected_message", msg.src_l2, {"kind": int(msg.kind)})]


class Pc5Endpoint:
    """One UE's PC5 signalling side: links, keys, timers."""

    def __init__(self, l2_id: int, k_long_term: bytes, policy: SecurityPolicy,
                 rng: random.Random):
        self.l2_id = l2_id  # this UE's layer-2 id
        self.k_long_term = k_long_term
        self.policy = policy
        self.rng = rng
        self.links: dict[int, LinkState] = {}
        # the earliest link deadline: the first slot in which `tick` acts;
        # None while no timer runs. Only `initiate`, `handle` and `tick` add,
        # drop, rename or re-time a link, and each recomputes it on its way out.
        self.deadline: int | None = None

    # -- helpers ---------------------------------------------------------

    def _nonce(self) -> str:
        return self.rng.randbytes(NONCE_BYTES).hex()

    def _msg(self, kind: K, dst: int, body: dict, link: LinkState | None) -> Pc5Message:
        msg = Pc5Message(kind, self.l2_id, dst, 0, body)
        ctx = link.ctx if link else None
        return protect_pdu(ctx, msg)

    def _below_policy(self, neg: Negotiation) -> bool:
        """True if `neg` leaves off an axis this UE's policy REQUIRES."""
        return ((self.policy.ciphering == PolicyLevel.REQUIRED and not neg.cipher_on)
                or (self.policy.integrity == PolicyLevel.REQUIRED and not neg.integrity_on))

    @staticmethod
    def _establish(link: LinkState, slot: int, security: str) -> SecurityEvent:
        link.phase = LinkPhase.ESTABLISHED
        link.deadline = slot + KEEPALIVE_PERIOD_SLOTS if link.is_initiator else None
        return SecurityEvent(slot, "established", link.peer_l2, {"security": security})

    # -- initiator side --------------------------------------------------

    def initiate(self, peer_l2: int, slot: int) -> list[Pc5Message]:
        link = LinkState(peer_l2, True, LinkPhase.REQUEST_SENT,
                         deadline=slot + PC5_TIMEOUT_SLOTS)
        link.nonce_i = self._nonce()
        link.keys = KeyHierarchy(self.k_long_term).with_knrp(self.rng.getrandbits(32))
        self.links[peer_l2] = link
        self._retime()
        body = {
            "nonce": link.nonce_i,
            "ts": slot,
            "knrp_id": link.keys.knrp_id,
            **_policy_body(self.policy),
        }
        return [self._msg(K.ESTABLISHMENT_REQUEST, peer_l2, body, None)]

    def begin_identifier_update(self, new_l2: int, new_knrp_id: int) -> list[Pc5Message]:
        """Messages announcing an id change on every established link.

        Sent under the old source id; this endpoint takes `new_l2` once
        they are built.
        """
        out = []
        for peer, link in self.links.items():
            if link.phase == LinkPhase.ESTABLISHED and link.ctx is not None:
                body = {"new_l2": new_l2, "new_knrp_id": new_knrp_id}
                out.append(self._msg(K.IDENTIFIER_UPDATE_REQUEST, peer, body, link))
                link.keys = link.keys.with_knrp(new_knrp_id)
        self.l2_id = new_l2
        return out

    # -- timers ----------------------------------------------------------

    def _retime(self):
        self.deadline = min((link.deadline for link in self.links.values()
                             if link.deadline is not None), default=None)

    def tick(self, slot: int) -> tuple[list[Pc5Message], list[SecurityEvent]]:
        """Fire the link timers due by `slot`: a pending link times out, an
        established initiator sends a keepalive or, after too many
        unanswered, releases the link. Nothing is due before `deadline`."""
        if self.deadline is None or slot < self.deadline:
            return [], []
        out: list[Pc5Message] = []
        events: list[SecurityEvent] = []
        for peer, link in list(self.links.items()):
            if link.deadline is None or slot < link.deadline:
                continue
            if link.phase in PRE_ESTABLISHED:
                events.append(SecurityEvent(slot, "link_failure", peer, {"cause": "timeout"}))
                del self.links[peer]
            elif link.keepalive_misses >= KEEPALIVE_MAX_MISSES:
                events.append(SecurityEvent(slot, "link_failure", peer, {"cause": "keepalive"}))
                link.phase = LinkPhase.RELEASED
                link.deadline = None
            else:
                out.append(self._msg(K.KEEPALIVE_REQUEST, peer, {"n": link.keepalive_misses}, link))
                link.keepalive_misses += 1
                link.deadline += KEEPALIVE_PERIOD_SLOTS
        self._retime()
        return out, events

    # -- receive path ----------------------------------------------------

    def handle(self, msg: Pc5Message, slot: int, guard=None) -> tuple[list[Pc5Message], list[SecurityEvent]]:
        """Process one addressed PDU; returns (outbound, security events).

        _RECEIVE says on which side and in which phases a link accepts
        each kind; anything else is an unexpected message. From the
        security-mode phase on, an accepted PDU is unprotected under the
        link's context before anything reads it, and a handshake kind
        (one sent before the context is in force) must echo the nonce
        its pending step is bound to.
        """
        result = self._route(msg, slot, guard)
        self._retime()
        return result

    def _route(self, msg: Pc5Message, slot: int,
               guard) -> tuple[list[Pc5Message], list[SecurityEvent]]:
        link = self.links.get(msg.src_l2)
        if msg.kind == K.ESTABLISHMENT_REQUEST:
            return self._on_request(link, msg, slot, guard)
        side, phases, step = _RECEIVE.get(msg.kind, _UNHANDLED)
        if link is None or link.phase not in phases or side not in (None, link.is_initiator):
            return _unexpected(msg, slot)
        if msg.kind in _ABORT_KINDS:
            return self._abort(link, msg, slot, guard)
        body = msg.body
        if link.phase in (LinkPhase.SECURITY_MODE, LinkPhase.ESTABLISHED):
            try:
                body = unprotect_pdu(link.ctx, msg)
            except UnprotectError as err:
                kind = "replay" if err.reason == "replay" else "discard_bad_tag"
                return [], [SecurityEvent(slot, kind, msg.src_l2,
                                          {"kind": int(msg.kind), "reason": err.reason})]
        if (PROTECTION[msg.kind].phase != SecurityPhase.AFTER
                and body.get("echo_nonce") != link.binding_nonce()):
            return [], [SecurityEvent(slot, "discard_unbound", msg.src_l2, {})]
        return step(self, link, msg, body, slot) if step else ([], [])

    def _abort(self, link: LinkState, msg: Pc5Message, slot: int, guard):
        """Reject/failure kinds: abort a pending link (the attack surface)."""
        if guard is not None:
            verdict = guard.check_response(msg, slot, link.binding_nonce())
            if verdict is not None:
                return [], [SecurityEvent(slot, "replay_reject", msg.src_l2,
                                          {"reason": verdict, "kind": int(msg.kind)})]
        cause = msg.body.get("cause", "unspecified")
        del self.links[msg.src_l2]
        return [], [SecurityEvent(slot, "link_failure", msg.src_l2,
                                  {"cause": cause, "kind": int(msg.kind)})]

    # -- establishment ---------------------------------------------------

    def _on_request(self, link, msg, slot, guard):
        events: list[SecurityEvent] = []
        if guard is not None:
            verdict = guard.check_request(msg, slot, live=link is not None and link.phase == LinkPhase.ESTABLISHED)
            if verdict is not None:
                return [], [SecurityEvent(slot, "replay_reject", msg.src_l2, {"reason": verdict})]
        if link is not None and link.phase == LinkPhase.ESTABLISHED:
            # replayed or duplicate establishment against a live link:
            # answered statelessly, never touching the standing context
            events.append(SecurityEvent(slot, "duplicate_session", msg.src_l2, {}))
            keys = KeyHierarchy(self.k_long_term).with_knrp(msg.body["knrp_id"])
            smc, _ = self._smc(keys, msg.body["nonce"], Negotiation(True, True), msg.src_l2, slot)
            return [smc], events
        peer_policy = _policy_from_body(msg.body)
        negotiation = negotiate_policy(self.policy, peer_policy)
        if negotiation is None:
            events.append(SecurityEvent(slot, "policy_mismatch", msg.src_l2, {}))
            body = {"cause": "policy_mismatch", "echo_nonce": msg.body["nonce"], "ts": slot}
            return [self._msg(K.ESTABLISHMENT_REJECT, msg.src_l2, body, None)], events
        new = LinkState(msg.src_l2, False, deadline=slot + PC5_TIMEOUT_SLOTS)
        new.nonce_i = msg.body["nonce"]
        new.negotiation = negotiation
        new.keys = KeyHierarchy(self.k_long_term).with_knrp(msg.body["knrp_id"])
        self.links[msg.src_l2] = new
        if not (negotiation.cipher_on or negotiation.integrity_on):
            events.append(self._establish(new, slot, "none"))
            return [self._msg(K.ESTABLISHMENT_ACCEPT, msg.src_l2, {"sess_id": 0}, new)], events
        if self.policy.auth_mandatory or peer_policy.auth_mandatory:
            new.phase = LinkPhase.AUTHENTICATING
            new.challenge = self._nonce()
            body = {"challenge": new.challenge, "echo_nonce": new.nonce_i, "ts": slot}
            return [self._msg(K.AUTHENTICATION_REQUEST, msg.src_l2, body, None)], events
        return self._send_smc(new, slot), events

    def _send_smc(self, link: LinkState, slot: int) -> list[Pc5Message]:
        link.phase = LinkPhase.SECURITY_MODE
        smc, link.ctx = self._smc(link.keys, link.nonce_i, link.negotiation, link.peer_l2, slot)
        link.keys = link.ctx.keys
        link.nonce_r = smc.body["nonce"]  # a command is never ciphered
        return [smc]

    def _smc(self, keys: KeyHierarchy, nonce_i: str, neg: Negotiation, dst: int,
             slot: int) -> tuple[Pc5Message, LinkSecurityContext]:
        """A Security Mode Command under fresh session keys, and the
        context those keys start."""
        nonce_r = self._nonce()
        keys = derive_session(keys, bytes.fromhex(nonce_i), bytes.fromhex(nonce_r),
                              neg.cipher_alg, neg.integrity_alg)
        ctx = LinkSecurityContext(keys, neg.cipher_on, neg.integrity_on)
        body = {
            "nonce": nonce_r,
            "echo_nonce": nonce_i,
            "cipher_alg": neg.cipher_alg,
            "integ_alg": neg.integrity_alg,
            "ts": slot,
        }
        return protect_pdu(ctx, Pc5Message(K.SECURITY_MODE_COMMAND, self.l2_id, dst, 0, body)), ctx

    # Each step below runs only for a kind its link accepts (see handle);
    # body is the clear, echo-checked message body.

    def _on_auth_request(self, link, msg, body, slot):
        link.phase = LinkPhase.AUTHENTICATING
        proof = prf(self.k_long_term, bytes.fromhex(body["challenge"])).hex()
        reply = {"proof": proof, "echo_nonce": body["challenge"], "ts": slot}
        return [self._msg(K.AUTHENTICATION_RESPONSE, msg.src_l2, reply, None)], []

    def _on_auth_response(self, link, msg, body, slot):
        expected = prf(self.k_long_term, bytes.fromhex(link.challenge)).hex()
        if body.get("proof") != expected:
            del self.links[msg.src_l2]
            reject = {"cause": "bad_proof", "echo_nonce": link.nonce_i, "ts": slot}
            return (
                [self._msg(K.AUTHENTICATION_REJECT, msg.src_l2, reject, None)],
                [SecurityEvent(slot, "auth_fail", msg.src_l2, {})],
            )
        return self._send_smc(link, slot), []

    def _on_smc(self, link, msg, body, slot):
        neg = Negotiation(body["cipher_alg"] != NULL_ALG, body["integ_alg"] != NULL_ALG)
        # a both-off negotiation is concluded by a bare accept, so a
        # command with neither algorithm on is forged
        if not (neg.cipher_on or neg.integrity_on) or self._below_policy(neg):
            return _unexpected(msg, slot)
        keys = derive_session(
            link.keys,
            bytes.fromhex(link.nonce_i),
            bytes.fromhex(body["nonce"]),
            body["cipher_alg"],
            body["integ_alg"],
        )
        ctx = LinkSecurityContext(keys, neg.cipher_on, neg.integrity_on)
        try:
            unprotect_pdu(ctx, msg)
        except UnprotectError as err:
            return [], [SecurityEvent(slot, "discard_bad_tag", msg.src_l2,
                                      {"kind": int(msg.kind), "reason": err.reason})]
        link.negotiation = neg
        link.keys = keys
        link.ctx = ctx
        link.nonce_r = body["nonce"]
        link.phase = LinkPhase.SECURITY_MODE
        reply = {"echo_nonce": link.nonce_r}
        return [self._msg(K.SECURITY_MODE_COMPLETE, msg.src_l2, reply, link)], []

    def _on_sm_complete(self, link, msg, body, slot):
        event = self._establish(link, slot, "context")
        reply = {"sess_id": link.keys.k_nrp_sess_id}
        return [self._msg(K.ESTABLISHMENT_ACCEPT, msg.src_l2, reply, link)], [event]

    def _on_accept(self, link, msg, body, slot):
        if link.phase == LinkPhase.REQUEST_SENT:
            # null-security path: a bare accept concludes it, but only a
            # policy with no REQUIRED axis can negotiate an unprotected link
            unprotected = Negotiation(False, False)
            if self._below_policy(unprotected):
                return _unexpected(msg, slot)
            link.negotiation = unprotected
            return [], [self._establish(link, slot, "none")]
        return [], [self._establish(link, slot, "context")]

    # -- established-phase procedures -------------------------------------

    def _on_keepalive_request(self, link, msg, body, slot):
        return [self._msg(K.KEEPALIVE_RESPONSE, msg.src_l2, {"n": body["n"]}, link)], []

    def _on_keepalive_response(self, link, msg, body, slot):
        link.keepalive_misses = 0
        return [], []

    def _on_id_update_request(self, link, msg, body, slot):
        old, new_l2 = msg.src_l2, body["new_l2"]
        out = [self._msg(K.IDENTIFIER_UPDATE_ACCEPT, old, {"echo_l2": new_l2}, link)]
        self.links[new_l2] = self.links.pop(old)
        link.peer_l2 = new_l2
        link.keys = link.keys.with_knrp(body["new_knrp_id"])
        return out, [SecurityEvent(slot, "identifier_update", new_l2, {"old": old})]

    def _on_id_update_accept(self, link, msg, body, slot):
        return [self._msg(K.IDENTIFIER_UPDATE_ACK, msg.src_l2, {}, link)], []


# Reject and failure kinds abort a link in any pending phase, on either side.
_ABORT_KINDS = frozenset({
    K.ESTABLISHMENT_REJECT,
    K.AUTHENTICATION_REJECT,
    K.AUTHENTICATION_FAILURE,
    K.SECURITY_MODE_REJECT,
})

_LIVE = (LinkPhase.ESTABLISHED,)

# kind -> (side that accepts it: True initiator, False responder, None
# either; link phases that accept it; step run on the clear body). The
# _ABORT_KINDS have no step: handle passes them to _abort. A kind with no
# entry is unprotected on a live link and dropped.
_RECEIVE = {
    K.AUTHENTICATION_REQUEST: (True, (LinkPhase.REQUEST_SENT,), Pc5Endpoint._on_auth_request),
    K.AUTHENTICATION_RESPONSE: (False, (LinkPhase.AUTHENTICATING,), Pc5Endpoint._on_auth_response),
    K.SECURITY_MODE_COMMAND: (True, (LinkPhase.REQUEST_SENT, LinkPhase.AUTHENTICATING),
                              Pc5Endpoint._on_smc),
    K.SECURITY_MODE_COMPLETE: (False, (LinkPhase.SECURITY_MODE,), Pc5Endpoint._on_sm_complete),
    K.ESTABLISHMENT_ACCEPT: (True, (LinkPhase.REQUEST_SENT, LinkPhase.SECURITY_MODE),
                             Pc5Endpoint._on_accept),
    **dict.fromkeys(_ABORT_KINDS, (None, PRE_ESTABLISHED, None)),
    K.KEEPALIVE_REQUEST: (None, _LIVE, Pc5Endpoint._on_keepalive_request),
    K.KEEPALIVE_RESPONSE: (None, _LIVE, Pc5Endpoint._on_keepalive_response),
    K.IDENTIFIER_UPDATE_REQUEST: (None, _LIVE, Pc5Endpoint._on_id_update_request),
    K.IDENTIFIER_UPDATE_ACCEPT: (None, _LIVE, Pc5Endpoint._on_id_update_accept),
}
_UNHANDLED = (None, _LIVE, None)
