"""Benchmark inputs: the bundled designs, seeded renaming and draw order.

The program only ever sees generated VASS text.  The workload seed
fixes two things: the order in which designs are drawn (rounds of a
seeded permutation, so every design keeps a fixed share of the ops)
and a seeded suffix on each source's entity name, which makes every
source content-distinct so stage caches only hit where a workload
resubmits a source on purpose.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

HERE = Path(__file__).resolve().parent

#: the six bundled designs: the five Table-1 apps and the biquad
DESIGNS = (
    "receiver",
    "power_meter",
    "missile_solver",
    "iterative_solver",
    "function_generator",
    "biquad_filter",
)

#: a design of the Section-6 verification bench; not bundled in repro.apps
SQUARER_SOURCE = """
ENTITY squarer IS
PORT (QUANTITY u : IN real; QUANTITY y : OUT real);
END ENTITY;
ARCHITECTURE a OF squarer IS
BEGIN
  y == 0.5 * u * u + 0.1;
END ARCHITECTURE;
"""

#: designs checked by verify_spec: those whose verdict the repo already
#: asserts (tests/test_verify.py, benchmarks/test_bench_verification.py)
VERIFY_DESIGNS = ("receiver", "biquad_filter", "squarer")

_ENTITY = re.compile(r"\bENTITY\s+(\w+)\s+IS\b", re.IGNORECASE)


def bundled_sources() -> Dict[str, str]:
    """Design name -> VASS text, as the program bundles it."""
    from repro.apps import ALL_APPLICATIONS, EXTRA_APPLICATIONS

    modules = dict(ALL_APPLICATIONS, **EXTRA_APPLICATIONS)
    sources = {name: modules[name].VASS_SOURCE for name in DESIGNS}
    sources["squarer"] = SQUARER_SOURCE
    return sources


def entity_name(source: str) -> str:
    match = _ENTITY.search(source)
    if match is None:
        raise ValueError("source declares no entity")
    return match.group(1)


def rename_entity(source: str, suffix: str) -> str:
    """``source`` with every use of its entity name given ``suffix``."""
    name = entity_name(source)
    pattern = re.compile(rf"\b{re.escape(name)}\b", re.IGNORECASE)
    return pattern.sub(f"{name}_{suffix}", source)


@dataclass(frozen=True)
class Op:
    """One generated input: which design, and its renamed source."""

    design: str
    source: str


def draw(names: Sequence[str], rng: random.Random) -> Iterator[str]:
    """Endless rounds, each a seeded permutation of ``names``."""
    while True:
        order = list(names)
        rng.shuffle(order)
        yield from order


def op_stream(
    sources: Dict[str, str], names: Sequence[str], key: str
) -> Iterator[Op]:
    """The endless, seed-determined op sequence named by ``key``.

    ``key`` folds the workload, the seed and the purpose (timed ops,
    warm-up, a client index) into one string, so distinct purposes
    never share a source.
    """
    rng = random.Random(key)
    for name in draw(names, rng):
        suffix = f"s{rng.getrandbits(40):010x}"
        yield Op(name, rename_entity(sources[name], suffix))


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as handle:
        return json.load(handle)


def parse_summary(summary: str) -> Dict[str, int]:
    """``"2 amplif., 1 zero-cross det."`` -> ``{"amplif.": 2, ...}``."""
    counts: Dict[str, int] = {}
    for part in summary.strip().split(", "):
        if not part:
            continue
        number, _, category = part.partition(" ")
        counts[category] = int(number)
    return counts


def class_mismatch(design: str, counts: Dict[str, int],
                   expected: dict) -> List[str]:
    """Differences between measured and expected component classes."""
    want = expected["classes"][design]
    return [
        f"{design}: {category} x{counts.get(category, 0)}, expected x{n}"
        for category, n in want.items()
        if counts.get(category, 0) != n
    ]


def verify_case(design: str) -> dict:
    """Stimuli and settings of the repo's own verification bench."""
    from repro.spice import sin_wave

    if design == "receiver":
        return dict(
            inputs={"line": sin_wave(0.8, 1e3), "local": lambda t: 0.1},
            t_end=2e-3, tolerance=0.10,
        )
    if design == "biquad_filter":
        return dict(inputs={"vin": sin_wave(0.5, 200.0)}, t_end=10e-3,
                    dt=5e-6)
    if design == "squarer":
        return dict(inputs={"u": sin_wave(0.8, 1e3)}, t_end=2e-3)
    raise KeyError(design)
