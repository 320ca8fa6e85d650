"""Wake on work: skipping idle UEs and idle slots changes no output byte.

The oracle run (`every_slot`) makes every UE due in every slot, for its
sync step too, and ranks its SyncRef candidates at every sync step, so
`act`, `_sync_step`, the ranking and `close_feedback` run for each UE in
each slot, and the world visits every slot and asks every attacker for
its transmissions in each, as a loop without due slots would. Both runs
must write the same metrics.csv and events.jsonl.
"""

import hashlib
import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

import pytest

from sidelinksim.frames import Pc5Message, Pc5MessageKind as K
from sidelinksim.metrics import event_line
from sidelinksim.pc5 import KEEPALIVE_PERIOD_SLOTS, PC5_TIMEOUT_SLOTS, LinkPhase
from sidelinksim.radio import Reception, Transmission
from sidelinksim.scenario import load_scenario, parse_scenario
from sidelinksim.simulation import UeAgent, World
from test_attack_effects import ROWS, counterpart, resource_squat, sync_capture

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

_spec = importlib.util.spec_from_file_location("bench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def moving_ues():
    """Four UEs driving through a static pair at up to 30 m/s, with
    shadowing: received power, and so sync ranking, sensing and
    feedback, changes as they move."""
    ues = [{"id": 1, "position": [0, 0], "role": "gnss_visible"},
           {"id": 2, "position": [60, 0]},
           {"id": 3, "position": [-400, 20], "velocity": [30, 0]},
           {"id": 4, "position": [400, -20], "velocity": [-25, 5]},
           {"id": 5, "position": [0, 300], "velocity": [0, -20]},
           {"id": 6, "position": [-200, -200], "velocity": [12.5, 12.5]}]
    return parse_scenario({
        "name": "moving", "seed": 8, "duration_slots": 1500, "ues": ues,
        "channel": {"shadowing_sigma_db": 3.0, "tb_error_rate": 0.1},
        "pool": {"period_list_ms": [20, 100, 1000]},
        "traffic": [
            {"src": 3, "dst": 2, "period_slots": 50, "rri_ms": 100},
            {"src": 4, "dst": "broadcast", "period_slots": 100, "rri_ms": 100, "harq": False},
            {"src": 5, "dst": 6, "period_slots": 40, "start_slot": 7, "rri_ms": 20},
            {"src": 2, "dst": 4, "period_slots": 30, "start_slot": 3, "rri_ms": 20},
        ],
        "links": [{"initiator": 3, "responder": 2, "start_slot": 5}],
    })


def early_spoof():
    """Spoofed NACKs land a slot before the feedback slot, when the TB
    sender has nothing else due: they must be dropped, not kept for the
    closure a slot later."""
    raw = workloads.unicast_harq(1, pairs=3, duration_slots=700)
    raw["attacks"][0]["params"] = {"slot_offset": -1}
    return parse_scenario(raw)


def pc5_timers():
    """One link that establishes and reaches its first keepalive, and
    one whose responder is out of range, so its request times out."""
    return parse_scenario({
        "name": "pc5_timers", "seed": 4, "duration_slots": 2100,
        "ues": [{"id": 1, "position": [0, 0]}, {"id": 2, "position": [50, 0]},
                {"id": 3, "position": [20000, 0]}],
        "links": [{"initiator": 1, "responder": 2, "start_slot": 10},
                  {"initiator": 1, "responder": 3, "start_slot": 30}],
    })


def jittered_injection():
    """A false-sync beacon drawn off its slot by up to 3 slots: the
    attacker draws jitter in every slot of its window."""
    raw = sync_capture("false_sync_injection")
    raw["attacks"][0]["capability"]["timing_precision_slots"] = 3
    return parse_scenario(raw)


def late_blocking():
    """Resource blocking whose window opens 100 slots into the run, after
    the flows have made their first selections."""
    raw = resource_squat()
    raw["attacks"][0]["window"][0] = 100
    return parse_scenario(raw)


CASES = {
    **{f"catalog:{p.stem}": (lambda p=p: load_scenario(p))
       for p in sorted(SCENARIO_DIR.glob("*.yaml"))},
    **{f"dense_broadcast:{seed}": (lambda seed=seed: parse_scenario(
        workloads.dense_broadcast(seed, num_ues=16, duration_slots=300)))
       for seed in (1, 2, 3)},
    **{f"unicast_harq:{seed}": (lambda seed=seed: parse_scenario(
        workloads.unicast_harq(seed, pairs=3, duration_slots=700)))
       for seed in (1, 2, 3)},
    "unicast_harq:early_spoof": early_spoof,
    "moving": moving_ues,
    "pc5_timers": pc5_timers,
    # every registered attack kind, attacked and defended (or unattacked)
    **{f"attack:{kind.value}": (lambda row=row: parse_scenario(row.scenario))
       for kind, row in ROWS.items()},
    **{f"attack:{kind.value}:counterpart": (lambda row=row: parse_scenario(counterpart(row)))
       for kind, row in ROWS.items()},
    "attack:false_sync_injection:jittered": jittered_injection,
    "attack:resource_blocking:late": late_blocking,
}


def run_bytes(world: World) -> str:
    report = world.run()
    return report.to_csv() + "".join(event_line(e) + "\n" for e in world.events)


def every_slot(m: pytest.MonkeyPatch):
    """Make every UE due in every slot, for its sync step as well, and
    rank the SyncRef candidates at every sync step. No slot is then idle,
    so this also makes the world visit every slot."""
    m.setattr(UeAgent, "next_wake", lambda self, after: after)
    m.setattr(UeAgent, "sync_due", lambda self, after: after)
    step = UeAgent._sync_step

    def ranking_step(self, slot, out):
        self._ranked_at = None
        step(self, slot, out)
    m.setattr(UeAgent, "_sync_step", ranking_step)


@pytest.mark.parametrize("name", sorted(CASES))
def test_skipping_idle_ues_matches_every_slot(monkeypatch, name):
    woken = run_bytes(World(CASES[name]()))
    with monkeypatch.context() as m:
        every_slot(m)
        oracle = run_bytes(World(CASES[name]()))
    assert woken == oracle


@pytest.mark.parametrize("workload", ["dense_broadcast", "unicast_harq"])
def test_full_size_workloads_write_their_digest_woken_and_every_slot(monkeypatch, workload):
    """The benchmark's seed-0 workloads at full size, where most steps
    are sync-only: both runs write the bytes perfbench/golden.json pins."""
    golden = json.loads((ROOT / "perfbench" / "golden.json").read_text())
    (label, raw, seed), = workloads.build(workload, ROOT, workloads.DEFAULT_SEED)
    scenario = parse_scenario(raw, default_name=label)
    calls = Counter()
    act, step = UeAgent.act, UeAgent._sync_step
    in_act = []

    def counting_act(self, slot):
        in_act.append(slot)
        try:
            return act(self, slot)
        finally:
            in_act.pop()

    def counting_step(self, slot, out):
        calls["sync in act" if in_act else "sync only"] += 1
        return step(self, slot, out)

    with monkeypatch.context() as m:
        m.setattr(UeAgent, "act", counting_act)
        m.setattr(UeAgent, "_sync_step", counting_step)
        woken = run_bytes(World(scenario, seed))
    # so the oracle covers sync-only steps
    assert calls["sync only"] > calls["sync in act"]
    with monkeypatch.context() as m:
        every_slot(m)
        oracle = run_bytes(World(scenario, seed))
    for out in (woken, oracle):
        assert hashlib.sha256(out.encode()).hexdigest() == golden[workload][label]


def test_pc5_timers_fire_while_idle_ues_sleep(monkeypatch):
    acts = []
    act = UeAgent.act
    monkeypatch.setattr(UeAgent, "act", lambda self, slot: acts.append(slot) or act(self, slot))
    world = World(pc5_timers())
    world.run()
    links = world.by_id[1].endpoint.links
    (link,) = links.values()  # the unreachable one timed out and is gone
    assert link.phase == LinkPhase.ESTABLISHED
    (established,) = [e["slot"] for e in world.events
                      if e.get("kind") == "established" and e["ue"] == 1]
    assert link.deadline == established + 2 * KEEPALIVE_PERIOD_SLOTS
    assert link.keepalive_misses == 0  # the probe was answered
    timeouts = [e for e in world.events if e.get("cause") == "timeout"]
    assert [e["slot"] for e in timeouts] == [30 + 64]
    # three UEs for 2100 slots: the wake skips nearly all of them
    assert len(acts) < 3 * 2100 / 4


def test_only_moving_nodes_change_place():
    world = World(moving_ues())
    before = dict(world.positions)
    world.run()
    t_s = (world.sc.duration_slots - 1) / 1000.0  # 1 ms slots
    for agent in world.agents:
        (x0, y0), (vx, vy) = agent.spec.position, agent.spec.velocity
        assert world.positions[agent.spec.id] == (x0 + vx * t_s, y0 + vy * t_s)
        moved = world.positions[agent.spec.id] != before[agent.spec.id]
        assert moved == (agent in world.moving) == any(agent.spec.velocity)


def test_a_handled_pc5_message_wakes_the_ue():
    world = World(pc5_timers())
    ue, peer = world.by_id[1], world.l2_of(2)
    ue.endpoint.initiate(peer, 5)
    assert ue.endpoint.deadline == 5 + PC5_TIMEOUT_SLOTS
    ue.wake = math.inf
    reject = Pc5Message(K.ESTABLISHMENT_REJECT, peer, ue.endpoint.l2_id, 1, {"cause": "congestion"})
    heard: Reception = (Transmission(2, 23.0, reject), -60.0)
    ue.receive([heard], 7)
    assert ue.endpoint.links == {} and ue.endpoint.deadline is None
    assert ue.wake == 7  # its timers are recomputed at the end of this slot


def test_an_idle_slot_jumps_to_the_next_due_slot(monkeypatch):
    """The catalog's quiet baseline: five UEs, flows every 100 or 200 slots
    and S-SSBs every 16, without shadowing. The world visits fewer than a
    quarter of its 2 000 slots."""
    jumps = []
    next_due = World._next_due

    def counting(self, after, epoch):
        due = next_due(self, after, epoch)
        jumps.append(due - after)
        return due
    monkeypatch.setattr(World, "_next_due", counting)
    world = World(load_scenario(SCENARIO_DIR / "baseline.yaml"))
    world.run()
    visited = world.sc.duration_slots - sum(jumps)
    assert world.sc.duration_slots == 2000 and visited < 2000 / 4, visited
