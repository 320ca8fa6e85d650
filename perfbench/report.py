"""Print every benchmark metric, by name and with its unit, for every workload.

    python3 perfbench/report.py                 # end-to-end metrics
    python3 perfbench/report.py --trace         # per-layer metrics too

Each workload runs in its own process (`run.py`), one after another, so
that peak_rss_mb is that workload's own. `failed_frac` is derived from
the `failed` and `attempted` fields of each result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run.py exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", action="store_true", help="also print per-layer metrics")
    args = parser.parse_args()
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            result = run(workload, args.seed, args.seconds, trace)
            if not result["correct"]:
                status = 1
            print(f"{workload}  seed {args.seed}  trace {trace}  correct {result['correct']}"
                  f"  attempted {result['attempted']}  failed {result['failed']}")
            if trace == 0:
                print(f"  {'failed_frac':40s} {result['failed'] / result['attempted']:>16.6g}  frac")
            for name, metric in result["metrics"].items():
                print(f"  {name:40s} {metric['value']:>16.6g}  {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
