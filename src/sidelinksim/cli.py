"""Command-line front end.

    slsim run scenario.yaml --out results/
    slsim batch scenario.yaml --seeds 1:10 --out results/
    slsim compare baseline/metrics.csv attacked/metrics.csv
    slsim validate scenario.yaml
    slsim list-attacks

Exit codes: 0 success, 1 scenario/usage problem, 2 runtime failure. A
scenario file that is missing, unreadable (a directory, say) or not UTF-8
is a scenario/usage problem, and so are an --out path that cannot be
written, a malformed --seeds value and a seed outside [0, 2^64), the
range a scenario file's seed must lie in.
Set SLSIM_LOG=debug (or info/warning) for progress logging on stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from collections.abc import Sequence
from pathlib import Path

from .adversary import ATTACK_REGISTRY
from .metrics import MetricsReport, compare, format_compare, write_events
from .scenario import MAX_SEED, ScenarioError, load_scenario
from .simulation import run_scenario

log = logging.getLogger("sidelinksim")


def _setup_logging():
    level = os.environ.get("SLSIM_LOG", "warning").upper()
    logging.basicConfig(stream=sys.stderr, level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


class UsageError(ValueError):
    """A malformed command-line value (exit 1)."""


def _parse_seeds(text: str) -> Sequence[int]:
    """Accept "3", "1,4,9", or an inclusive range "1:10", kept a `range`:
    its ends are checked before any seed is made."""
    try:
        if ":" in text:
            lo, hi = map(int, text.split(":", 1))
            seeds = range(lo, hi + 1)
        else:
            seeds = [int(part) for part in text.split(",") if part]
            lo, hi = min(seeds, default=0), max(seeds, default=0)
    except ValueError:
        raise UsageError(f'--seeds {text!r}: expected "3", "1,4,9" or "1:10"') from None
    if not seeds:
        raise UsageError(f"--seeds {text!r}: no seeds given")
    if lo < 0 or hi > MAX_SEED:
        raise UsageError(f"--seeds {text!r}: a seed must be an integer in [0, 2^64)")
    return seeds


def _write_outputs(out_dir: Path, report: MetricsReport, events: list[dict]):
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "metrics.csv").write_text(report.to_csv())
    write_events(out_dir / "events.jsonl", events)


def cmd_run(args) -> int:
    if args.seed is not None and not 0 <= args.seed <= MAX_SEED:
        raise UsageError(f"--seed {args.seed}: a seed must be an integer in [0, 2^64)")
    scenario = load_scenario(args.scenario)
    report, events, _ = run_scenario(scenario, seed=args.seed)
    if args.out:
        _write_outputs(Path(args.out), report, events)
        log.info("wrote %s", args.out)
    print(report.to_csv(), end="")
    return 0


def cmd_batch(args) -> int:
    seeds = _parse_seeds(args.seeds)
    scenario = load_scenario(args.scenario)
    for seed in seeds:
        report, events, _ = run_scenario(scenario, seed=seed)
        if args.out:
            _write_outputs(Path(args.out) / f"seed-{seed}", report, events)
        summary = ", ".join(
            f"{name}={report.totals[name]}"
            for name in ("tb_sent", "sender_delivered", "links_established")
        )
        print(f"seed {seed}: {summary}")
    return 0


def cmd_compare(args) -> int:
    reports = []
    for path in (args.baseline, args.other):
        try:
            reports.append(MetricsReport.from_csv(Path(path).read_text()))
        except ValueError as err:
            print(f"bad metrics file {path}: {err}", file=sys.stderr)
            return 1
    print(format_compare(compare(*reports)))
    return 0


def cmd_validate(args) -> int:
    scenario = load_scenario(args.scenario)
    print(f"ok: {scenario.name} ({len(scenario.ues)} ues, "
          f"{len(scenario.attacks)} attacks, {scenario.duration_slots} slots)")
    return 0


def cmd_list_attacks(args) -> int:
    for kind, (cls, params) in sorted(ATTACK_REGISTRY.items(), key=lambda kv: kv[0].value):
        print(f"{kind.value}  ({cls.__name__})")
        for name, spec in sorted(params.items()):
            bounds = f", {spec.bounds()}" if spec.bounds() else ""
            print(f"    {name} (default {spec.default!r}{bounds}): {spec.help}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slsim",
                                     description="Sidelink security simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one scenario")
    p.add_argument("scenario", help="scenario YAML file")
    p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p.add_argument("--out", default=None, help="directory for metrics.csv / events.jsonl")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("batch", help="run one scenario over several seeds")
    p.add_argument("scenario")
    p.add_argument("--seeds", required=True, help='"3", "1,4,9", or "1:10"')
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("compare", help="diff two metrics.csv files")
    p.add_argument("baseline")
    p.add_argument("other")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("validate", help="check a scenario file without running it")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("list-attacks", help="show attack kinds and their parameters")
    p.set_defaults(func=cmd_list_attacks)
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as err:
        print("scenario error:", file=sys.stderr)
        for problem in err.problems:
            # continuation lines (libyaml's "  in ..." position) stay under the bullet
            print("  - " + str(problem).replace("\n", "\n    "), file=sys.stderr)
        return 1
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"not found: {err.filename}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"cannot access: {err}", file=sys.stderr)
        return 1
    except Exception as err:  # pragma: no cover - last-resort diagnostics
        log.exception("run failed")
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
