"""Reachability gate: every function in src is entered by the catalog, the
two benchmark workload generators or the CLI commands, or it is on the
allowlist below with the reason nothing there enters it. Every name a
src module imports is used there. And every field of a src dataclass is
read there, as an attribute or named by a string, or it is on the field
allowlist with the reason only tests read it.

The probe runs in a fresh interpreter whose function-entry tracer is set
before `sidelinksim` is imported, so a function called only at import
time, or only behind a cache that another test has filled, still counts
as entered. Run as a script, this file is that probe:

    PYTHONPATH=src python tests/test_reach.py OUT_DIR

It prints the (file name, first line, name) of each src function entered.
"""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sidelinksim"

# qualified name -> why no catalog run, workload or CLI command enters it
ALLOWED = {
    # No catalog file runs pc5_auth_disrupt against the policy enforcer, which
    # would reach the next three (its row in tests/test_attack_effects.py
    # does). A new scenarios/*.yaml file changes the scenario set of the
    # benchmark's `catalog` workload, which perfbench/golden.json and
    # perfbench/selftest.py pin, so that file waits for a change to the
    # benchmark.
    "enforce_policy": "only the policy enforcer calls it, and no catalog file enables it",
    "Pc5Endpoint._on_auth_request": "authentication runs only with policy_enforcer or "
                                    "auth_mandatory, and no catalog file sets either",
    "Pc5Endpoint._on_auth_response": "as _on_auth_request",
    "Pc5Endpoint._on_keepalive_request": "no link stays idle long enough to send a "
                                         "keepalive (ROADMAP item 5)",
    "Pc5Endpoint._on_keepalive_response": "as _on_keepalive_request",
    "Pc5Endpoint._on_id_update_request": "identifier updates go to the peer's retired id "
                                         "and never arrive (ROADMAP item 5)",
    "Pc5Endpoint._on_id_update_accept": "as _on_id_update_request",
    "UnprotectError.__init__": "no catalog or workload PDU fails to unprotect",
    "ScenarioError.__init__": "invalid input only; tests/test_scenario.py and "
                              "tests/test_cli.py reach it",
    "_Errors.add": "invalid input only, as ScenarioError",
}


# Class.field -> why no src code reads it
FIELDS_ALLOWED = {
    "KeyHierarchy.k_nrp_sess": "derived for the key ladder; tests/test_pc5.py's known-answer "
                               "tests pin it",
    "SelectionRecord.decided_slot": "ground truth: criterion 4 in tests/test_acceptance.py "
                                    "windows the selections by it",
    "TbOutcome.first_tx_slot": "ground truth: criterion 5 in tests/test_acceptance.py and "
                               "the multi-flow digests in tests/test_simulation.py read it",
    "TbOutcome.spoof_candidates": "ground truth: the multi-flow digests in "
                                  "tests/test_simulation.py read it",
}


def defined_functions() -> dict[tuple[str, int, str], str]:
    """(file name, first line, name) -> qualified name of every `def` in
    src, nested ones included; lambdas and comprehensions are left out."""
    found = {}

    def walk(code, prefix, name):
        for const in code.co_consts:
            if not isinstance(const, types.CodeType) or const.co_name.startswith("<"):
                continue
            qualname = prefix + const.co_name
            if const.co_flags & inspect.CO_NEWLOCALS:  # a function, not a class body
                found[name, const.co_firstlineno, const.co_name] = qualname
                walk(const, qualname + ".<locals>.", name)
            else:
                walk(const, qualname + ".", name)

    for path in sorted(SRC.glob("*.py")):
        walk(compile(path.read_text(), str(path), "exec"), "", path.name)
    return found


def probe(out: Path):
    # what sidelinksim imports is loaded before tracing starts, so that only
    # sidelinksim's own import pays for the tracer
    import argparse, contextlib, hashlib, hmac, io, logging, random, yaml  # noqa: E401, F401

    entered = set()

    def trace(frame, event, arg):
        entered.add(frame.f_code)

    sys.settrace(trace)
    from sidelinksim.cli import main
    from sidelinksim.scenario import parse_scenario
    from sidelinksim.simulation import World

    spec = importlib.util.spec_from_file_location("bench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    catalog = sorted((ROOT / "scenarios").glob("*.yaml"))
    small = str(ROOT / "scenarios" / "pc5_policy_mismatch.yaml")
    commands = [["list-attacks"], ["validate", small],
                ["batch", small, "--seeds", "1:2", "--out", str(out / "batch")]]
    commands += [["run", str(path), "--out", str(out / path.stem)] for path in catalog]
    commands.append(["compare", str(out / catalog[0].stem / "metrics.csv"),
                     str(out / catalog[-1].stem / "metrics.csv")])
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in commands:
            assert main(argv) == 0, argv
    World(parse_scenario(workloads.dense_broadcast(0, num_ues=16, duration_slots=300))).run()
    World(parse_scenario(workloads.unicast_harq(0, pairs=2, duration_slots=400))).run()
    sys.settrace(None)
    print(json.dumps(sorted({(Path(code.co_filename).name, code.co_firstlineno, code.co_name)
                             for code in entered if code.co_flags & inspect.CO_NEWLOCALS
                             and Path(code.co_filename).resolve().parent == SRC})))


def test_every_src_function_is_reached_or_allowed(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, __file__, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    entered = {tuple(row) for row in json.loads(done.stdout) if not row[2].startswith("<")}
    defined = defined_functions()
    assert entered <= set(defined), "the probe entered a function this test cannot name"
    unreached = sorted(defined[key] for key in set(defined) - entered)
    # a nested function of an unreached one needs no row of its own
    outer = [name for name in unreached
             if not any(name.startswith(other + ".") for other in unreached)]
    assert sorted(set(outer) - set(ALLOWED)) == [], "unreached and not on the allowlist"
    assert sorted(set(ALLOWED) - set(unreached)) == [], "on the allowlist but reached or gone"


def test_every_src_import_is_used():
    """A name a src module imports and never uses is a leftover. Exempt:
    `__init__.py`, whose imports are the package's exports, and `from
    __future__` imports, which are compiler directives."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in names if name not in used]
    assert unused == []


def test_every_dataclass_field_is_read_or_allowed():
    """A dataclass field that src never reads is a leftover, or ground
    truth for the tests (the allowlist). A read is an attribute load of
    the field's name or a string constant equal to it: the codec width
    tables name their fields and read them through `attrgetter`. The
    match is by name alone, so a field whose name some other object's
    attribute shares passes unread (a sync candidate's MIB did, while
    `burst.mib` was read)."""
    declared, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(d := getattr(deco, "func", deco), ast.Name) and d.id == "dataclass"
                    for deco in node.decorator_list):
                declared += [(node.name, stmt.target.id) for stmt in node.body
                             if isinstance(stmt, ast.AnnAssign)
                             and isinstance(stmt.target, ast.Name)]
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = sorted(f"{cls}.{name}" for cls, name in declared if name not in read)
    assert sorted(set(unread) - set(FIELDS_ALLOWED)) == [], "unread and not on the allowlist"
    assert sorted(set(FIELDS_ALLOWED) - set(unread)) == [], "on the allowlist but read or gone"


if __name__ == "__main__":
    probe(Path(sys.argv[1]))
