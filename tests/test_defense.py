"""Countermeasure primitives: signed sync, anomaly screen, incident log."""

import random

import pytest

from sidelinksim.bits import BitString
from sidelinksim.defense import (
    AnomalyCheckConfig,
    FeedbackProfile,
    IncidentLog,
    PrivacyConfig,
    SignedSsbConfig,
    harq_anomaly_check,
    sign_ssb,
    verify_ssb,
)
from sidelinksim.frames import MibSl
from sidelinksim.harq import FeedbackBurst

KEY = b"\x42" * 32
MIB = MibSl(0, True, 100, 3).encode()


def fb(rsrp, src=0x0222):
    return FeedbackBurst(False, 0, src_l2=src, dst_l2=0x0111), rsrp


def test_config_validation():
    with pytest.raises(ValueError):
        SignedSsbConfig(tag_bits=24)
    SignedSsbConfig(tag_bits=16)
    with pytest.raises(ValueError):
        PrivacyConfig(mode="rotating")


def test_sign_verify_round_trip_and_lengths():
    tag32 = sign_ssb(KEY, 407, MIB, 32)
    tag16 = sign_ssb(KEY, 407, MIB, 16)
    assert len(tag32) == 8 and len(tag16) == 4  # hex chars
    assert tag16 == tag32[:4]  # truncation of the same MAC
    assert verify_ssb(KEY, 407, MIB, tag32, 32)
    assert verify_ssb(KEY, 407, MIB, tag16, 16)
    with pytest.raises(ValueError):
        sign_ssb(KEY, 407, MIB, 8)


def test_verify_rejects_tampering():
    tag = sign_ssb(KEY, 407, MIB, 32)
    assert not verify_ssb(KEY, 407, MIB, None, 32)        # untagged burst
    assert not verify_ssb(KEY, 408, MIB, tag, 32)          # different identity
    assert not verify_ssb(b"\x43" * 32, 407, MIB, tag, 32)  # wrong key
    other_mib = MibSl(0, True, 101, 3).encode()
    assert not verify_ssb(KEY, 407, other_mib, tag, 32)    # payload swap
    forged = ("0" * 8) if tag[0] != "0" else ("f" * 8)
    assert not verify_ssb(KEY, 407, MIB, forged, 32)


def test_anomaly_check_cold_start_accepts():
    cfg = AnomalyCheckConfig(enabled=True, min_samples=3)
    prof = FeedbackProfile()
    assert harq_anomaly_check(prof, fb(-50.0), cfg) is None
    prof.learn(0x0222, -80.0)
    prof.learn(0x0222, -80.0)
    # still under min_samples: even a hot sample passes
    assert harq_anomaly_check(prof, fb(-40.0), cfg) is None


def test_anomaly_check_flags_overpowered_sample():
    cfg = AnomalyCheckConfig(enabled=True, power_tolerance_db=3.0, min_samples=3)
    prof = FeedbackProfile()
    for _ in range(3):
        prof.learn(0x0222, -80.0)
    assert harq_anomaly_check(prof, fb(-76.9), cfg) == "power_anomaly"
    assert harq_anomaly_check(prof, fb(-77.0), cfg) is None  # exactly at bound
    # one-sided: unusually weak feedback is not the screened threat
    assert harq_anomaly_check(prof, fb(-120.0), cfg) is None
    # a different source has its own profile
    assert harq_anomaly_check(prof, fb(-40.0, src=0x0333), cfg) is None


def test_profile_mean_tracks_accepted_samples():
    prof = FeedbackProfile()
    assert prof.mean(1) is None
    samples = [-82.0, -78.0, -80.0]
    for s in samples:
        prof.learn(1, s)
    assert prof.mean(1) == pytest.approx(sum(samples) / 3)
    assert prof.sample_count(1) == 3


def test_incident_log_gating_and_counts():
    off = IncidentLog(enabled=False)
    off.record(1, "replay_guard", 9000, "duplicate_nonce")
    assert off.count() == 0

    log = IncidentLog(enabled=True)
    log.record(1, "replay_guard", 9000, "duplicate_nonce")
    log.record(2, "anomaly_check", 9000, "power_anomaly")
    log.record(3, "anomaly_check", 9001, "late_feedback")
    assert log.count() == 3
    assert log.count("anomaly_check") == 2
    assert log.entries[0].reason == "duplicate_nonce"
