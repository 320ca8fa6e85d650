"""Outside-in tracer: wraps the simulator's public functions from outside.

Each wrapper replaces the attribute its caller looks up (for example
`sidelinksim.simulation.deliver`, which the world loop calls, rather
than `sidelinksim.radio.deliver`), records one span per call and
restores the original on `restore()`. Nothing under `src/` changes.

A span is (name, start, end, parent span, slot). Spans live in flat
arrays while the run goes and are written out once at the end. Self
time is a span's duration minus the time its wrapped children cover;
it is accumulated as calls return, so the report needs no second pass.
"""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

from sidelinksim import adversary, frames, metrics, pc5, resources, scenario, simulation

# Counts that repeat exactly for a given (workload, seed) and that later
# optimisations name in advance; two traced runs must agree on them.
PREREGISTERED = (
    "frames.sci1a_decode.per_tx",
    "sync.select_sync_ref.calls",
    "simulation.sensing_entries",
    "simulation.feedback_inbox_entries",
    "radio.pairs",
    "resources.candidate_positions.calls",
)


def _attacker_classes() -> list[type]:
    out, todo = [], [adversary.AttackerAgent]
    while todo:
        cls = todo.pop()
        if cls not in out:
            out.append(cls)
            todo.extend(cls.__subclasses__())
    return out


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_slot = array("i")
        self._stack: list[int] = []
        self._child: list[float] = []  # time covered by children, per open span
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.raised: list[int] = []
        self.counts = dict.fromkeys(
            ("sensing_entries", "feedback_inbox_entries", "pairs", "receptions",
             "sci_tx", "sync_changes", "sense_entries", "flagged"), 0)
        self.slot = -1
        self._slot_mark = 0.0
        self.slot_ms: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name: str, slot_arg: int | None, before, after):
        nid = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.raised.append(0)
        stack, child = self._stack, self._child
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_slot = self.span_parent, self.span_slot

        def traced(*args, **kwargs):
            if slot_arg is not None:
                self._see_slot(args[slot_arg])
            if before is not None:
                before(args)
            idx = len(span_name)
            span_name.append(nid)
            span_parent.append(stack[-1] if stack else -1)
            span_slot.append(self.slot)
            stack.append(idx)
            child.append(0.0)
            t0 = perf_counter()
            span_start.append(t0)
            span_end.append(t0)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[nid] += 1
                raise
            finally:
                t1 = perf_counter()
                span_end[idx] = t1
                stack.pop()
                covered = child.pop()
                if child:
                    child[-1] += t1 - t0
                self.calls[nid] += 1
                self.self_s[nid] += t1 - t0 - covered
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, slot_arg: int | None = None,
              before=None, after=None):
        """Replace owner.attr by a traced wrapper, keeping its descriptor kind."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, (classmethod, staticmethod)):
            new = type(raw)(self._wrap(raw.__func__, name, slot_arg, before, after))
        else:
            new = self._wrap(raw, name, slot_arg, before, after)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, new)

    def restore(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def _see_slot(self, slot: int):
        if slot == self.slot:
            return
        now = perf_counter()
        if self.slot >= 0 and slot == self.slot + 1:
            self.slot_ms.append((now - self._slot_mark) * 1000.0)
        self.slot = slot
        self._slot_mark = now

    def new_world(self):
        """Spans until the first slot of the next world carry slot -1."""
        self.slot = -1

    # -- the simulator's layer boundaries ------------------------------------

    def install(self):
        c = self.counts

        def count(key, amount):
            c[key] += amount

        def on_deliver(args):
            txs, positions = args[0], args[1]
            count("pairs", len(txs) * (len(positions) - 1))
            count("sci_tx", sum(1 for tx in txs
                                if getattr(tx.payload, "sci1_bits", None) is not None))

        def after_sync(args, decision):
            lapse = decision.action == "internal_clock" and args[0] is not None
            if decision.action == "switch" or lapse:
                count("sync_changes", 1)

        agent = simulation.UeAgent
        self.patch(agent, "act", "simulation.act", slot_arg=1,
                   before=lambda a: count("sensing_entries", len(a[0].sensing)))
        self.patch(agent, "receive", "simulation.dispatch", slot_arg=2)
        self.patch(agent, "close_feedback", "simulation.close_feedback", slot_arg=1,
                   before=lambda a: count("feedback_inbox_entries", len(a[0].feedback_inbox)))
        self.patch(simulation, "deliver", "radio.deliver", before=on_deliver,
                   after=lambda a, r: count("receptions", sum(map(len, r[0].values()))))
        self.patch(frames.Sci1A, "decode", "frames.sci1a_decode")
        self.patch(frames.Sci1A, "encode", "frames.sci1a_encode")
        self.patch(frames.Sci1A, "field_widths", "frames.field_widths")
        self.patch(frames.Sci2A, "decode", "frames.sci2a_decode")
        self.patch(simulation, "select_sync_ref", "sync.select_sync_ref", after=after_sync)
        self.patch(simulation, "sense", "resources.sense",
                   before=lambda a: count("sense_entries", len(a[0])))
        self.patch(simulation, "select_resources", "resources.select_resources")
        self.patch(resources, "candidate_positions", "resources.candidate_positions")
        self.patch(simulation, "arbitrate_feedback", "harq.arbitrate_feedback")
        self.patch(simulation, "harq_anomaly_check", "defense.harq_anomaly_check",
                   after=lambda a, r: count("flagged", r is not None))
        self.patch(simulation, "verify_ssb", "defense.verify_ssb")
        self.patch(pc5.Pc5Endpoint, "handle", "pc5.handle", slot_arg=2)
        self.patch(pc5.Pc5Endpoint, "tick", "pc5.tick", slot_arg=1)
        self.patch(pc5, "unprotect_pdu", "pc5.unprotect_pdu")
        for cls in _attacker_classes():
            if "transmissions" in cls.__dict__:
                self.patch(cls, "transmissions", "adversary.transmissions", slot_arg=1)
            if "on_receptions" in cls.__dict__:
                self.patch(cls, "on_receptions", "adversary.on_receptions", slot_arg=2)
        self.patch(metrics.MetricsReport, "bump", "metrics.bump")
        self.patch(scenario, "parse_scenario", "scenario.parse_scenario")

    # -- results -----------------------------------------------------------------

    def totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, int]]:
        """Calls, self seconds and raised exceptions, summed per span name."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        raised: dict[str, int] = {}
        for nid, name in enumerate(self.names):
            calls[name] = calls.get(name, 0) + self.calls[nid]
            self_s[name] = self_s.get(name, 0.0) + self.self_s[nid]
            raised[name] = raised.get(name, 0) + self.raised[nid]
        return calls, self_s, raised

    def write(self, stem: Path):
        """Spans as five columns in `<stem>.bin`, described by `<stem>.json`."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = (("name", self.span_name), ("start", self.span_start),
                   ("end", self.span_end), ("parent", self.span_parent),
                   ("slot", self.span_slot))
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        stem.with_suffix(".json").write_text(json.dumps({
            "spans": len(self.span_name),
            "names": self.names,
            "columns": [[key, col.typecode, col.itemsize] for key, col in columns],
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter seconds",
        }, indent=1))
