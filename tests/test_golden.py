"""Output bytes locked against committed digests.

Each line of golden/catalog.sha256 is the sha256 of a scenario's
metrics.csv followed by its events.jsonl, run at the scenario's own
seed. golden/workloads.sha256 holds the same digest for the
`dense_broadcast` and `unicast_harq` benchmark generators at seeds 1 to
3 (`<workload>-<seed>`), which reach draw orders and timings that the
catalog and the benchmark's seed 0 may not. A change that alters any
output byte fails here; a deliberate change re-records the files (and
perfbench/golden.json, which holds the same catalog digests).
"""

import hashlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

from sidelinksim.metrics import event_line
from sidelinksim.scenario import load_scenario, parse_scenario
from sidelinksim.simulation import run_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("bench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


def _golden(name: str) -> dict[str, str]:
    out = {}
    for line in (GOLDEN_DIR / name).read_text().splitlines():
        digest, label = line.split()
        out[label] = digest
    return out


GOLDEN = _golden("catalog.sha256")
WORKLOAD_GOLDEN = _golden("workloads.sha256")


def digest_of(scenario) -> str:
    report, _, world = run_scenario(scenario)
    text = report.to_csv() + "".join(event_line(e) + "\n" for e in world.events)
    return hashlib.sha256(text.encode()).hexdigest()


def output_digest(path: Path) -> str:
    return digest_of(load_scenario(path))


def test_golden_covers_the_catalog():
    assert sorted(GOLDEN) == sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml"))


def test_golden_matches_benchmark_digests():
    bench = json.loads((ROOT / "perfbench" / "golden.json").read_text())["catalog"]
    assert bench == GOLDEN


def test_benchmark_selftest_passes():
    """The benchmark's tracer wraps src attributes by name (`simulation.sense`,
    `resources.candidate_positions`, `UeAgent.sensing`, ...), so a src rename
    that breaks one fails here, not in a benchmark run."""
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "selftest.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_catalog_output_matches_golden(name):
    assert output_digest(SCENARIO_DIR / f"{name}.yaml") == GOLDEN[name]


def test_workload_golden_covers_both_generators_at_three_seeds():
    assert sorted(WORKLOAD_GOLDEN) == [f"{name}-{seed}"
                                       for name in ("dense_broadcast", "unicast_harq")
                                       for seed in (1, 2, 3)]


@pytest.mark.parametrize("label", sorted(WORKLOAD_GOLDEN))
def test_workload_output_matches_golden(label):
    name, seed = label.rsplit("-", 1)
    raw = getattr(workloads, name)(int(seed))
    assert digest_of(parse_scenario(raw, default_name=name)) == WORKLOAD_GOLDEN[label]
