"""Deterministic slot-stepped simulator for sidelink radio security.

Models direct device-to-device links: synchronization beacons,
sensing-based autonomous resource selection, feedback-driven
retransmission, and secured unicast link establishment — plus a set of
scripted attackers and the countermeasures that blunt them.
"""

from .adversary import (
    ATTACK_REGISTRY,
    AttackerCapability,
    AttackKind,
    AttackPlan,
    build_attacker,
)
from .defense import DefenseConfig
from .frames import MibSl, Pc5Message, Pc5MessageKind, Sci1A, Sci2A, SlssIdentity
from .harq import HarqProcess
from .metrics import MetricsReport, compare
from .pc5 import Pc5Endpoint, SecurityPolicy, negotiate_policy
from .radio import ChannelModel, child_rng, deliver
from .resources import OccupancyMap, ResourcePool, select_resources, sense
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario
from .simulation import World, run_scenario
from .sync import SyncConfig, select_sync_ref

__version__ = "0.1.0"

__all__ = [
    "ATTACK_REGISTRY",
    "AttackKind",
    "AttackPlan",
    "AttackerCapability",
    "ChannelModel",
    "DefenseConfig",
    "HarqProcess",
    "MetricsReport",
    "MibSl",
    "OccupancyMap",
    "Pc5Endpoint",
    "Pc5Message",
    "Pc5MessageKind",
    "ResourcePool",
    "Scenario",
    "ScenarioError",
    "Sci1A",
    "Sci2A",
    "SecurityPolicy",
    "SlssIdentity",
    "SyncConfig",
    "World",
    "build_attacker",
    "child_rng",
    "compare",
    "deliver",
    "load_scenario",
    "negotiate_policy",
    "parse_scenario",
    "run_scenario",
    "select_resources",
    "select_sync_ref",
    "sense",
]
