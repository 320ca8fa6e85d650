"""Every scenario key earns its place.

The keys the schema accepts are derived from the section dataclasses,
nested ones included, and from each attack kind's `ParamSpec`s; the
spoof parameters count once per HARQ spoof kind. A key is varied when a
pinned input sets it to anything but its default: a catalog file, a
benchmark generator at its default seed, or the README's yaml example. A
key with no default is set by every input that has its section.

`config_keys.txt` gives each key that no pinned input varies one row
with why it stays (its header lists the two forms). A key with no row
fails, and so does a row that names no such key, so a new knob needs a
reason in review.
"""

import importlib.util
import re
import typing
from dataclasses import MISSING, fields, is_dataclass
from pathlib import Path

import yaml

from sidelinksim.adversary import ATTACK_REGISTRY, AttackerCapability
from sidelinksim.scenario import (
    YAML_LOADER,
    LinkSpec,
    Scenario,
    TrafficFlow,
    UeSpec,
    parse_scenario,
)

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests"
KEYS_FILE = TESTS / "config_keys.txt"

_spec = importlib.util.spec_from_file_location("bench_workloads",
                                               ROOT / "perfbench" / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# the sections that are one mapping, and those that are a list of them
SECTIONS = ("channel", "pool", "sync", "defenses")
LISTS = {"ues": UeSpec, "traffic": TrafficFlow, "links": LinkSpec}
DISPOSITION = re.compile(r"constant next: item \d+"
                         r"|varied by (?P<file>test_\w+\.py)::(?P<test>\w+), effect: \S.*")


def leaf_fields(cls, prefix):
    """(key, field) per field of dataclass `cls`, nested sections walked."""
    hints = typing.get_type_hints(cls)
    for f in fields(cls):
        if is_dataclass(hints[f.name]):
            yield from leaf_fields(hints[f.name], f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f


def leaf_values(obj, prefix):
    """(key, value) per field of dataclass instance `obj`, nested sections walked."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from leaf_values(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, value


def section_classes() -> dict[str, type]:
    """Key prefix -> the dataclass whose fields are the keys under it."""
    hints = typing.get_type_hints(Scenario)
    return ({f"{name}.": hints[name] for name in SECTIONS}
            | {f"{name}[].": cls for name, cls in LISTS.items()}
            | {"attacks[].capability.": AttackerCapability})


def schema() -> dict[str, object]:
    """Every key -> its default; MISSING for a key with none."""
    keys = {}
    for prefix, cls in section_classes().items():
        for key, f in leaf_fields(cls, prefix):
            keys[key] = (f.default if f.default is not MISSING
                         else f.default_factory() if f.default_factory is not MISSING
                         else MISSING)
    for kind, (_, specs) in ATTACK_REGISTRY.items():
        keys.update((f"attacks[{kind.value}].params.{name}", spec.default)
                    for name, spec in specs.items())
    return keys


def pinned_inputs() -> list[dict]:
    """The catalog, the generators at their default seed, the README example."""
    raws = []
    for name in workloads.WORKLOADS:
        for _, source, _ in workloads.build(name, ROOT, workloads.DEFAULT_SEED):
            raws.append(yaml.load(source.read_bytes(), Loader=YAML_LOADER)
                        if isinstance(source, Path) else source)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    raws += [yaml.load(block, Loader=YAML_LOADER)
             for block in re.findall(r"^```yaml\n(.*?)^```$", readme, re.M | re.S)]
    return raws


def set_values(raw: dict):
    """(key, value) of every key of the parsed scenario `raw`, defaults included."""
    sc = parse_scenario(raw)
    objects = [(f"{name}.", getattr(sc, name)) for name in SECTIONS]
    objects += [(f"{name}[].", item) for name in LISTS for item in getattr(sc, name)]
    objects += [("attacks[].capability.", attack.capability) for attack in sc.attacks]
    for prefix, obj in objects:
        yield from leaf_values(obj, prefix)
    for attack in sc.attacks:
        kind = attack.plan.kind
        params = {name: spec.default for name, spec in ATTACK_REGISTRY[kind][1].items()}
        for name, value in (params | attack.plan.params).items():
            yield f"attacks[{kind.value}].params.{name}", value


def unvaried_keys() -> set[str]:
    keys = schema()
    varied = {key for raw in pinned_inputs() for key, value in set_values(raw)
              if value != keys[key]}
    return set(keys) - varied


def rows() -> dict[str, str]:
    """config_keys.txt: key -> disposition."""
    found = {}
    for line in KEYS_FILE.read_text().splitlines():
        if line and not line.startswith("#"):
            key, disposition = line.split(None, 1)
            assert key not in found, f"two rows for {key}"
            found[key] = disposition
    return found


def test_every_unvaried_key_has_a_row_and_every_row_a_key():
    unvaried, listed = unvaried_keys(), set(rows())
    assert sorted(unvaried - listed) == [], "set by no pinned input and given no row"
    assert sorted(listed - unvaried) == [], "a row for a key that is gone or varied"


def test_every_row_gives_a_disposition_in_one_of_the_two_forms():
    for key, disposition in rows().items():
        match = DISPOSITION.fullmatch(disposition)
        assert match, f"{key}: {disposition}"
        if match["file"]:
            test_file = TESTS / match["file"]
            defined = re.findall(r"^def (\w+)", test_file.read_text(), re.M)
            assert match["test"] in defined, f"{key}: {match['file']} has no {match['test']}"

