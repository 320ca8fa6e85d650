"""Self-test of the benchmark itself; exits 1 on the first failed check.

    python3 perfbench/selftest.py

Checks that the generators are deterministic per seed and pass
`parse_scenario` without the dict being changed, that two traced runs
give identical counts and the same output bytes as an untraced run,
that the tracer restores what it wrapped, and that BENCHMARK.json and
golden.json agree with what run.py emits and runs.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from sidelinksim import frames, pc5, resources, scenario, simulation  # noqa: E402
from tracer import PREREGISTERED, Tracer  # noqa: E402


def check(ok: bool, what: str):
    if not ok:
        print(f"FAIL {what}")
        raise SystemExit(1)
    print(f"ok   {what}")


def small_items() -> list:
    """Cut-down inputs that still reach every traced layer."""
    return [
        ("dense_small", workloads.dense_broadcast(3, num_ues=12, duration_slots=150), None),
        ("unicast_small", workloads.unicast_harq(3, pairs=3, duration_slots=600), None),
    ] + [item for item in workloads.catalog(ROOT, 5)
         if item[0] in ("pc5_replay_guarded", "sync_false_injection_signed",
                        "resource_blocking")]


def traced_pass(items) -> tuple[dict, run.Checker]:
    checker = run.Checker(None)
    tracer = Tracer()
    tracer.install()
    try:
        totals = run.run_pass(items, checker, tracer)
    finally:
        tracer.restore()
    return run.layer_metrics(tracer, totals), checker


def main() -> int:
    for gen in (workloads.dense_broadcast, workloads.unicast_harq):
        name = gen.__name__
        check(gen(7) == gen(7) and gen(7) != gen(8), f"{name}: same seed, same input")
        for seed in (0, 1, 7):
            raw = gen(seed)
            kept = copy.deepcopy(raw)
            parsed = scenario.parse_scenario(raw)
            check(raw == kept and parsed.seed == seed, f"{name} seed {seed}: parses, dict untouched")
    catalog = workloads.catalog(ROOT, workloads.DEFAULT_SEED)
    golden = json.loads(run.GOLDEN.read_text())
    check(sorted(golden["catalog"]) == [label for label, _, _ in catalog],
          "golden.json holds one digest per catalog scenario")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    check({m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == run.END_TO_END,
          "BENCHMARK.json end_to_end matches run.py")
    check({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == run.PER_LAYER,
          "BENCHMARK.json per_layer matches run.py")

    wrapped = [(frames.Sci1A, "decode"), (frames.Sci1A, "field_widths"),
               (simulation.UeAgent, "act"), (pc5.Pc5Endpoint, "handle")]
    before = [owner.__dict__[attr] for owner, attr in wrapped]
    modules = (simulation.deliver, resources.candidate_positions, scenario.parse_scenario)

    tracer = Tracer()
    tracer.install()
    try:
        decode = frames.Sci1A.__dict__["decode"]
        check(isinstance(decode, classmethod) and hasattr(decode.__func__, "__wrapped__"),
              "Sci1A.decode stays a classmethod while traced")
    finally:
        tracer.restore()

    items = small_items()
    plain = run.Checker(None)
    run.run_pass(items, plain)
    first, checker_a = traced_pass(items)
    second, checker_b = traced_pass(items)
    check(checker_a.expected == plain.expected == checker_b.expected and not checker_a.failed,
          "traced runs write the same bytes as an untraced run")
    for name in PREREGISTERED:
        check(first[name] == second[name] and first[name] > 0,
              f"{name} repeats exactly ({first[name]})")
    counts = [name for name, (unit, _) in run.PER_LAYER.items() if unit == "count"]
    check(all(first[name] == second[name] for name in counts), "every per-layer count repeats")
    for name in ("harq.arbitrate_feedback.calls", "pc5.handle.calls", "defense.verify_ssb.self_s",
                 "adversary.on_receptions.self_s", "resources.candidate_positions.calls"):
        check(first[name] > 0, f"{name} reached")
    check(isinstance(frames.Sci1A.__dict__["decode"], classmethod)
          and [owner.__dict__[attr] for owner, attr in wrapped] == before
          and (simulation.deliver, resources.candidate_positions, scenario.parse_scenario) == modules,
          "tracer restores every wrapped attribute")
    return 0


if __name__ == "__main__":
    sys.exit(main())
