"""Catalog output bytes locked against committed digests.

Each line of golden/catalog.sha256 is the sha256 of a scenario's
metrics.csv followed by its events.jsonl, run at the scenario's own
seed. A change that alters any output byte fails here; a deliberate
change re-records the file (and perfbench/golden.json, which holds the
same catalog digests).
"""

import hashlib
import json
from pathlib import Path

import pytest

from sidelinksim.metrics import event_line
from sidelinksim.scenario import load_scenario
from sidelinksim.simulation import run_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
GOLDEN_FILE = Path(__file__).resolve().parent / "golden" / "catalog.sha256"


def _golden() -> dict[str, str]:
    out = {}
    for line in GOLDEN_FILE.read_text().splitlines():
        digest, name = line.split()
        out[name] = digest
    return out


GOLDEN = _golden()


def output_digest(path: Path) -> str:
    report, _, world = run_scenario(load_scenario(path))
    text = report.to_csv() + "".join(event_line(e) + "\n" for e in world.events)
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_covers_the_catalog():
    assert sorted(GOLDEN) == sorted(p.stem for p in SCENARIO_DIR.glob("*.yaml"))


def test_golden_matches_benchmark_digests():
    bench = json.loads((ROOT / "perfbench" / "golden.json").read_text())["catalog"]
    assert bench == GOLDEN


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_catalog_output_matches_golden(name):
    assert output_digest(SCENARIO_DIR / f"{name}.yaml") == GOLDEN[name]
