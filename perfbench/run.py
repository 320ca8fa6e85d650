"""sidelinksim benchmark: host time and memory of whole runs, and per layer.

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 35 --trace 0

Drives the simulator only through its public entry points:
load_scenario / parse_scenario -> World(...) -> World.run() ->
MetricsReport.to_csv() plus metrics.event_line. Runs in one process on
one thread. The last line of stdout is one JSON object
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the provenance. `--trace 0` reports the end-to-end metrics, `--trace 1`
the per-layer ones from runs under the outside-in tracer.

Every run of a scenario is checked: the sha256 of its metrics.csv plus
events.jsonl must equal the recorded digest at the default seed, and
must repeat exactly across the repetitions of a run at any other seed.
A mismatch or an exception counts as a failed run; it never stops the
rest. `--record-golden` rewrites the recorded digests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import socket
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
GOLDEN = BENCH / "golden.json"
OUT = BENCH / "out"

SETUP_ROUNDS = 3  # set-up-only rounds before each timed pass, for setup_s
RENDER_S = 0.05  # render each output at least this long and this often, for serialize
MIN_RENDERS = 5
MIN_REPS = 2  # a non-default seed needs two runs to compare bytes

# name -> (unit, better); the order is the print order
END_TO_END = {
    "slots_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "serialize_s_per_mb": ("s/MB", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_frac": ("frac", "higher"),
}

PER_LAYER = {
    "simulation.act.calls": ("count", "lower"),
    "simulation.act.self_s": ("s", "lower"),
    "simulation.sensing_entries": ("count", "lower"),
    "simulation.dispatch.calls": ("count", "lower"),
    "simulation.dispatch.self_s": ("s", "lower"),
    "simulation.close_feedback.calls": ("count", "lower"),
    "simulation.close_feedback.self_s": ("s", "lower"),
    "simulation.feedback_inbox_entries": ("count", "lower"),
    "simulation.world_init_s": ("s", "lower"),
    "simulation.slot_ms.p50": ("ms", "lower"),
    "simulation.slot_ms.p99": ("ms", "lower"),
    "radio.deliver.calls": ("count", "lower"),
    "radio.deliver.self_s": ("s", "lower"),
    "radio.pairs": ("count", "lower"),
    "radio.receptions": ("count", "lower"),
    "radio.kept_frac": ("frac", "higher"),
    "frames.sci1a_decode.calls": ("count", "lower"),
    "frames.sci1a_decode.self_s": ("s", "lower"),
    "frames.sci1a_decode.failed": ("count", "lower"),
    "frames.sci1a_decode.per_tx": ("ratio", "lower"),
    "frames.sci1a_encode.self_s": ("s", "lower"),
    "frames.field_widths.calls": ("count", "lower"),
    "frames.sci2a_decode.self_s": ("s", "lower"),
    "sync.select_sync_ref.calls": ("count", "lower"),
    "sync.select_sync_ref.self_s": ("s", "lower"),
    "sync.select_sync_ref.change_frac": ("frac", "higher"),
    "resources.sense.calls": ("count", "lower"),
    "resources.sense.self_s": ("s", "lower"),
    "resources.sense.entries": ("count", "lower"),
    "resources.select_resources.calls": ("count", "lower"),
    "resources.select_resources.self_s": ("s", "lower"),
    "resources.candidate_positions.calls": ("count", "lower"),
    "resources.candidate_positions.self_s": ("s", "lower"),
    "harq.arbitrate_feedback.calls": ("count", "lower"),
    "harq.arbitrate_feedback.self_s": ("s", "lower"),
    "defense.harq_anomaly_check.calls": ("count", "lower"),
    "defense.harq_anomaly_check.self_s": ("s", "lower"),
    "defense.flagged_frac": ("frac", "higher"),
    "defense.verify_ssb.self_s": ("s", "lower"),
    "pc5.handle.calls": ("count", "lower"),
    "pc5.handle.self_s": ("s", "lower"),
    "pc5.tick.self_s": ("s", "lower"),
    "pc5.unprotect_pdu.calls": ("count", "lower"),
    "adversary.transmissions.self_s": ("s", "lower"),
    "adversary.on_receptions.self_s": ("s", "lower"),
    "metrics.bump.calls": ("count", "lower"),
    "metrics.bump.self_s": ("s", "lower"),
    "scenario.parse_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.untraced_slots_per_s": ("1/s", "higher"),
    "trace.traced_slots_per_s": ("1/s", "higher"),
    "trace.overhead_x": ("ratio", "lower"),
}

# spans whose calls and self time are reported as "<span>.calls" / "<span>.self_s"
SPANS = sorted({name.rsplit(".", 1)[0] for name in PER_LAYER
                if name.endswith((".calls", ".self_s"))})


# ---------------------------------------------------------------------------
# one scenario: set up, run, serialize


def load(item):
    from sidelinksim import scenario

    label, source, _ = item
    if isinstance(source, Path):
        return scenario.load_scenario(source)
    return scenario.parse_scenario(source, default_name=label)


def setup(item):
    from sidelinksim.simulation import World

    return World(load(item), seed=item[2])


def serialize(world, report) -> str:
    from sidelinksim.metrics import event_line

    return report.to_csv() + "".join(event_line(e) + "\n" for e in world.events)


class Checker:
    """Compares each run's output digest with the expected one."""

    def __init__(self, expected: dict[str, str] | None):
        self.expected = dict(expected) if expected is not None else {}
        self.fixed = expected is not None  # default seed: digests are recorded
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, output: bytes):
        self.attempted += 1
        digest = hashlib.sha256(output).hexdigest()
        want = self.expected.setdefault(label, None if self.fixed else digest)
        if digest != want:
            self.failed += 1
            print(f"output mismatch: {label} sha256 {digest}, expected {want}",
                  file=sys.stderr)

    def error(self, label: str):
        self.attempted += 1
        self.failed += 1
        print(f"run failed: {label}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def run_pass(items, checker: Checker, tracer=None, clock=perf_counter,
             render: bool = False) -> dict:
    """Set up, run and serialize every scenario of the workload once.

    With `render`, each output is rendered again until MIN_RENDERS
    renders and RENDER_S seconds are reached, and the median render
    counts, so serialize_s, far shorter than a run, gets samples of its own.
    """
    from sidelinksim.simulation import World

    gc.collect()
    totals = {"setup_s": 0.0, "world_init_s": 0.0, "run_s": 0.0, "serialize_s": 0.0,
              "slots": 0, "output_mb": 0.0}
    for item in items:
        label = item[0]
        if tracer is not None:
            tracer.new_world()
        try:
            t0 = clock()
            sc = load(item)
            ti = clock()
            world = World(sc, seed=item[2])
            t1 = clock()
            report = world.run()
            t2 = clock()
            output = serialize(world, report).encode()
            render_s = [clock() - t2]
            while render and (len(render_s) < MIN_RENDERS or sum(render_s) < RENDER_S):
                t3 = clock()
                serialize(world, report)
                render_s.append(clock() - t3)
        except Exception:
            checker.error(label)
            continue
        totals["setup_s"] += t1 - t0
        totals["world_init_s"] += t1 - ti
        totals["run_s"] += t2 - t1
        totals["serialize_s"] += statistics.median(render_s)
        totals["slots"] += world.sc.duration_slots
        totals["output_mb"] += len(output) / 1e6
        checker.check(label, output)
        del world, report
    return totals


def rate(totals: dict) -> float:
    """Simulated slots per host second of World.run() in one pass."""
    return totals["slots"] / totals["run_s"] if totals["run_s"] else 0.0


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(items, checker: Checker, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics with tracing off; returns (metrics, raw samples).

    Passes repeat until the next one would end after `seconds`. Before
    each pass come set-up-only rounds, so that set-up samples, like run
    samples, spread over the whole run. Each pass's times are scaled to
    the reference host speed by the speed probe sampled during it, and
    every figure is a median over the scaled samples.
    """
    from speed import SpeedProbe

    deadline = perf_counter() + seconds
    setups, passes, slowdown = [], [], []
    with SpeedProbe() as probe:
        while True:
            t_pass = perf_counter()
            rounds = []
            for _ in range(SETUP_ROUNDS):
                gc.collect()
                t0 = probe.clock()
                worlds = [setup(item) for item in items]
                rounds.append(probe.clock() - t0)
                del worlds
            p = run_pass(items, checker, clock=probe.clock, render=True)
            setups.append(rounds + [p["setup_s"]])
            passes.append(p)
            slowdown.append(probe.slowdown())
            now = perf_counter()
            if len(passes) >= MIN_REPS and now + (now - t_pass) > deadline:
                break
    samples = {
        "slowdown": slowdown,
        "wall_slots_per_s": [rate(p) for p in passes],
        "wall_setup_s": setups,
        "wall_serialize_s": [p["serialize_s"] for p in passes],
        "output_mb": [p["output_mb"] for p in passes],
    }
    slots_per_s = [v * f for v, f in zip(samples["wall_slots_per_s"], slowdown)]
    setup_s = [t / f for ts, f in zip(setups, slowdown) for t in ts]
    # per MB: the output's size changes with the seed, the cost per byte should not
    serialize_s_per_mb = [p["serialize_s"] / p["output_mb"] / f
                          for p, f in zip(passes, slowdown) if p["output_mb"]]
    values = {
        "slots_per_s": statistics.median(slots_per_s),
        "setup_s": statistics.median(setup_s),
        "serialize_s_per_mb": statistics.median(serialize_s_per_mb or [0.0]),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "ok_frac": (checker.attempted - checker.failed) / checker.attempted,
    }
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}, samples


def measure_traced(items, checker: Checker, seconds: float, spans_stem: Path) -> tuple[dict, dict]:
    """Per-layer metrics: alternate untraced and traced passes of the workload.

    Counts come from the first traced pass and must repeat exactly in
    every later one; times are medians over the traced passes. Traced
    output bytes must equal untraced ones, so the checker sees both.
    """
    from tracer import PREREGISTERED, Tracer

    deadline = perf_counter() + seconds
    untraced, traced, layers = [], [], []
    while True:
        t_pair = perf_counter()
        untraced.append(rate(run_pass(items, checker)))
        tracer = Tracer()
        tracer.install()
        try:
            p = run_pass(items, checker, tracer)
        finally:
            tracer.restore()
        traced.append(rate(p))
        layers.append(layer_metrics(tracer, p))
        if len(layers) > 1:
            for name in PREREGISTERED:
                if layers[-1][name] != layers[0][name]:
                    checker.attempted += 1
                    checker.failed += 1
                    print(f"count {name} did not repeat: {layers[0][name]} then "
                          f"{layers[-1][name]}", file=sys.stderr)
        now = perf_counter()
        if now + (now - t_pair) > deadline:
            break
    tracer.write(spans_stem)
    values = dict(layers[0])
    for name, (unit, _) in PER_LAYER.items():
        if unit in ("s", "ms"):
            values[name] = statistics.median(layer[name] for layer in layers)
    values["trace.untraced_slots_per_s"] = statistics.median(untraced)
    values["trace.traced_slots_per_s"] = statistics.median(traced)
    values["trace.overhead_x"] = (values["trace.untraced_slots_per_s"]
                                  / (values["trace.traced_slots_per_s"] or 1.0))
    samples = {"untraced_slots_per_s": untraced, "traced_slots_per_s": traced}
    return {k: {"value": values[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}, samples


def layer_metrics(tracer, totals: dict) -> dict:
    calls, self_s, raised = tracer.totals()
    c = tracer.counts
    out = {}
    for span in SPANS:
        out[f"{span}.calls"] = calls.get(span, 0)
        out[f"{span}.self_s"] = self_s.get(span, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    slot_ms = sorted(tracer.slot_ms) or [0.0]
    q = statistics.quantiles(slot_ms, n=100) if len(slot_ms) > 1 else slot_ms * 99
    out.update({
        "simulation.sensing_entries": c["sensing_entries"],
        "simulation.feedback_inbox_entries": c["feedback_inbox_entries"],
        "simulation.world_init_s": totals["world_init_s"],
        "simulation.slot_ms.p50": statistics.median(slot_ms),
        "simulation.slot_ms.p99": q[98],
        "radio.pairs": c["pairs"],
        "radio.receptions": c["receptions"],
        "radio.kept_frac": ratio(c["receptions"], c["pairs"]),
        "frames.sci1a_decode.failed": raised.get("frames.sci1a_decode", 0),
        "frames.sci1a_decode.per_tx": ratio(calls.get("frames.sci1a_decode", 0), c["sci_tx"]),
        "sync.select_sync_ref.change_frac": ratio(c["sync_changes"],
                                                  calls.get("sync.select_sync_ref", 0)),
        "resources.sense.entries": c["sense_entries"],
        "defense.flagged_frac": ratio(c["flagged"], calls.get("defense.harq_anomaly_check", 0)),
        "scenario.parse_s": self_s.get("scenario.parse_scenario", 0.0),
        "trace.spans": len(tracer.span_name),
    })
    return out


# ---------------------------------------------------------------------------
# provenance, golden digests, entry point


def provenance(workload: str, seed: int, seconds: int, trace: int, items) -> dict:
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "scenarios").glob("*.yaml")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    params = {"scenarios": [item[0] for item in items], "seed_override": items[0][2]}
    if workload == "dense_broadcast":
        params.update(ues=workloads.DENSE_UES, area_m=workloads.DENSE_AREA_M,
                      slots=workloads.DENSE_SLOTS)
    elif workload == "unicast_harq":
        params.update(pairs=workloads.UNICAST_PAIRS, area_m=workloads.UNICAST_AREA_M,
                      slots=workloads.UNICAST_SLOTS)
    return {
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "git_rev": rev,
        "source_sha256": source.hexdigest(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params,
    }


def record_golden() -> int:
    """Write the digests of every workload at the default seed to golden.json."""
    golden = {}
    for name in workloads.WORKLOADS:
        checker = Checker(None)
        run_pass(workloads.build(name, ROOT, workloads.DEFAULT_SEED), checker)
        if checker.failed:
            return 1
        golden[name] = checker.expected
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 keeps the catalog's own seeds and the golden digests")
    parser.add_argument("--seconds", type=int, default=35, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from traced runs")
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from this tree and exit")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sidelinksim" / "__init__.py").is_file() \
            or not (ROOT / "scenarios").is_dir():
        print(f"no simulator sources under {ROOT}: expected src/sidelinksim and scenarios/",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")

    items = workloads.build(args.workload, ROOT, args.seed)
    expected = None
    if args.seed == workloads.DEFAULT_SEED:
        expected = json.loads(GOLDEN.read_text()).get(args.workload, {})
    checker = Checker(expected)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        # one span file per workload, overwritten by the next traced run
        metrics, samples = measure_traced(items, checker, args.seconds,
                                          OUT / f"spans-{args.workload}")
    else:
        metrics, samples = measure(items, checker, args.seconds)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    prov = provenance(args.workload, args.seed, args.seconds, args.trace, items)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{tag}.json").write_text(json.dumps(
        {"provenance": prov, "samples": samples, "result": result}, indent=1) + "\n")
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
