"""Toggleable countermeasures: signed sync bursts, feedback anomaly
screening, pre-security replay guard, policy hardening, id privacy.

Every mechanism here is off by default; a disabled defense must leave
run output bit-identical to the baseline.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass, field

from .bits import BitString
from .frames import Pc5Message
from .harq import FeedbackBurst

VALID_TAG_BITS = (16, 32)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SignedSsbConfig:
    enabled: bool = False
    tag_bits: int = 32

    def __post_init__(self):
        if self.tag_bits not in VALID_TAG_BITS:
            raise ValueError(f"tag_bits must be one of {VALID_TAG_BITS}")


@dataclass(frozen=True)
class AnomalyCheckConfig:
    enabled: bool = False
    power_tolerance_db: float = 3.0
    min_samples: int = 3

    def __post_init__(self):
        # a negative tolerance flags feedback below the learned mean
        _refuse_negative(self, "power_tolerance_db", "min_samples")


@dataclass(frozen=True)
class ReplayGuardConfig:
    enabled: bool = False
    timestamp_skew_slots: int = 16

    def __post_init__(self):
        # a negative skew makes every timestamp stale
        _refuse_negative(self, "timestamp_skew_slots")


def _refuse_negative(config, *names: str):
    for name in names:
        value = getattr(config, name)
        if value < 0:
            raise ValueError(f"{name} {value} below 0")


@dataclass(frozen=True)
class PolicyEnforcerConfig:
    enabled: bool = False


@dataclass(frozen=True)
class PrivacyConfig:
    enabled: bool = False
    timer_ms: float = 500.0
    mode: str = "static"  # static | weak | secure

    def __post_init__(self):
        if self.mode not in ("static", "weak", "secure"):
            raise ValueError(f"unknown privacy mode {self.mode!r}")


@dataclass(frozen=True)
class IncidentLogConfig:
    enabled: bool = False


@dataclass(frozen=True)
class DefenseConfig:
    signed_ssb: SignedSsbConfig = field(default_factory=SignedSsbConfig)
    harq_anomaly_check: AnomalyCheckConfig = field(default_factory=AnomalyCheckConfig)
    replay_guard: ReplayGuardConfig = field(default_factory=ReplayGuardConfig)
    policy_enforcer: PolicyEnforcerConfig = field(default_factory=PolicyEnforcerConfig)
    privacy_randomizer: PrivacyConfig = field(default_factory=PrivacyConfig)
    incident_log: IncidentLogConfig = field(default_factory=IncidentLogConfig)


# ---------------------------------------------------------------------------
# signed sync bursts


def sign_ssb(key: bytes, slss_id: int, mib: BitString, tag_bits: int) -> str:
    """Truncated MAC over the sync identity and its payload, hex-encoded."""
    if tag_bits not in VALID_TAG_BITS:
        raise ValueError(f"tag_bits must be one of {VALID_TAG_BITS}")
    data = slss_id.to_bytes(2, "big") + mib.data
    return hmac.new(key, data, hashlib.sha256).digest()[: tag_bits // 8].hex()


def verify_ssb(key: bytes, slss_id: int, mib: BitString, tag: str | None,
               tag_bits: int) -> bool:
    if tag is None:
        return False
    expected = sign_ssb(key, slss_id, mib, tag_bits)
    return hmac.compare_digest(expected, tag)


# ---------------------------------------------------------------------------
# HARQ feedback anomaly screening


@dataclass
class FeedbackProfile:
    """Running per-source receive-power profile, learned from accepted
    feedback only. Flags a sample when it lands above the learned mean
    by more than the tolerance.

    The check is one-sided on purpose: the threat it screens for is a
    spoofer outpowering the victim, and a two-sided band at the same
    tolerance would breach the false-positive budget under 2 dB
    shadowing.
    """

    sums: dict[int, float] = field(default_factory=dict)
    counts: dict[int, int] = field(default_factory=dict)

    def sample_count(self, source_l2: int) -> int:
        return self.counts.get(source_l2, 0)

    def mean(self, source_l2: int) -> float | None:
        n = self.counts.get(source_l2, 0)
        if n == 0:
            return None
        return self.sums[source_l2] / n

    def learn(self, source_l2: int, rsrp_dbm: float):
        self.sums[source_l2] = self.sums.get(source_l2, 0.0) + rsrp_dbm
        self.counts[source_l2] = self.counts.get(source_l2, 0) + 1


def harq_anomaly_check(
    profile: FeedbackProfile,
    heard: tuple[FeedbackBurst, float],
    cfg: AnomalyCheckConfig,
) -> str | None:
    """Screens one heard `(burst, rsrp_dbm)` pair against the profile of
    the source it claims; returns a flag reason, or None to accept.

    Accepted samples are the caller's to feed back into the profile;
    flagged ones must stay out of both arbitration and learning.
    """
    burst, rsrp = heard
    mean = profile.mean(burst.src_l2)
    if mean is None or profile.sample_count(burst.src_l2) < cfg.min_samples:
        return None  # cold start: accept and learn
    if rsrp > mean + cfg.power_tolerance_db:
        return "power_anomaly"
    return None


# ---------------------------------------------------------------------------
# pre-security replay guard


def _nonce_of(msg: Pc5Message) -> str:
    body = msg.body
    return str(body.get("nonce") or body.get("echo_nonce") or body.get("challenge") or "")


class ReplayGuard:
    """Screens unprotected PC5 PDUs: slot timestamps within a skew,
    nonce freshness per (source, kind), and response-to-request echo
    binding. State is per-endpoint."""

    def __init__(self, timestamp_skew_slots: int = 16):
        self.skew = timestamp_skew_slots
        self.seen: set[tuple[int, int, str]] = set()

    def _stale(self, msg: Pc5Message, slot: int) -> bool:
        ts = msg.body.get("ts")
        return ts is None or abs(slot - int(ts)) > self.skew

    def _duplicate(self, msg: Pc5Message) -> bool:
        return (msg.src_l2, int(msg.kind), _nonce_of(msg)) in self.seen

    def _record(self, msg: Pc5Message):
        self.seen.add((msg.src_l2, int(msg.kind), _nonce_of(msg)))

    def check_request(self, msg: Pc5Message, slot: int, live: bool) -> str | None:
        """Establishment requests: returns a rejection reason or None."""
        if self._stale(msg, slot):
            return "stale_timestamp"
        if self._duplicate(msg):
            return "duplicate_nonce"
        if live:
            return "conflicting_request"
        self._record(msg)
        return None

    def check_response(self, msg: Pc5Message, slot: int,
                       binding_nonce: str | None) -> str | None:
        """Unprotected responses (rejects, failures) against a pending step."""
        if self._stale(msg, slot):
            return "stale_timestamp"
        if self._duplicate(msg):
            return "duplicate_nonce"
        if binding_nonce is None or msg.body.get("echo_nonce") != binding_nonce:
            return "unbound_response"
        self._record(msg)
        return None


# ---------------------------------------------------------------------------
# policy hardening


def enforce_policy(policy):
    """Hardened copy: null ciphers off, auth mandatory, NOT_NEEDED raised."""
    from .pc5 import PolicyLevel, SecurityPolicy

    def raise_level(level: PolicyLevel) -> PolicyLevel:
        return PolicyLevel.REQUIRED if level == PolicyLevel.NOT_NEEDED else level

    return SecurityPolicy(
        ciphering=raise_level(policy.ciphering),
        integrity=raise_level(policy.integrity),
        allow_null_cipher=False,
        auth_mandatory=True,
    )


# ---------------------------------------------------------------------------
# incident log


@dataclass
class Incident:
    slot: int
    detector: str
    source: int
    reason: str


@dataclass
class IncidentLog:
    enabled: bool = False
    entries: list[Incident] = field(default_factory=list)

    def record(self, slot: int, detector: str, source: int, reason: str):
        if self.enabled:
            self.entries.append(Incident(slot, detector, source, reason))

    def count(self, detector: str | None = None) -> int:
        if detector is None:
            return len(self.entries)
        return sum(1 for e in self.entries if e.detector == detector)
