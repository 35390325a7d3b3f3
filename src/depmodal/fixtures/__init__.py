"""Bundled example models and the formula claims they are documented to satisfy.

Each valid fixture ships with a claim list: a formula in concrete syntax, the
world it is claimed at (or ``None`` for "at every world"), and the expected
truth value.  The CLI ``examples`` command replays these claims; the test
suite asserts them.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..model import KripkeModel, load_model


@dataclass(frozen=True)
class Claim:
    formula: str
    world: str | None       # None: the claim holds at every world
    expect: bool


FIXTURES: dict[str, tuple[str, tuple[Claim, ...]]] = {
    "open_door": ("open_door.edl", (
        Claim("K Dg({bar_p};{bar_r})", "s", True),
        Claim("K !Dl({bar_p};{bar_r})", "s", True),
    )),
    "experiment_2runs": ("experiment_2runs.edl", (
        Claim("K Dg({x};{z})", None, False),
    )),
    "experiment_3runs": ("experiment_3runs.edl", (
        Claim("K Dg({x};{z})", None, True),
    )),
    "judging_case_1": ("judging_case_1.edl", (
        Claim("K Dl({bar_a,bar_b};{bar_c}) & K (Dl({bar_a};{bar_c}) | Dl({bar_b};{bar_c}))",
              "s", True),
    )),
    "judging_case_2": ("judging_case_2.edl", (
        Claim("K Dl({bar_a,bar_b};{bar_c})", "s", True),
        Claim("K (!Dl({bar_a};{bar_c}) & !Dl({bar_b};{bar_c}))", "s", True),
        Claim("K A (p_a -> p_b)", "s", True),
        Claim("A ((p_b -> p_c) & (p_c -> p_b))", None, True),
    )),
    "dl_strictness_witness": ("dl_strictness_witness.edl", (
        Claim("Dl({y};{y})", "a", False),
        Claim("Dl({y};{y})", "b", True),
        Claim("Dg({y};{y})", None, True),
    )),
}

#: deliberately invalid documents, for exercising validation diagnostics
INVALID_FIXTURES: dict[str, str] = {
    "broken_partition": "broken_partition.edl",
    "missing_assignment": "missing_assignment.edl",
    "mirror_violation": "mirror_violation.edl",
}


def fixture_names() -> list[str]:
    return sorted(FIXTURES)


def fixture_text(name: str) -> str:
    """Raw document text of a bundled fixture (valid or invalid)."""
    with open(fixture_path(name), encoding="utf-8") as fh:
        return fh.read()


def fixture_path(name: str) -> str:
    """Filesystem path of a bundled fixture; the package ships as plain files."""
    filename = (FIXTURES[name][0] if name in FIXTURES
                else INVALID_FIXTURES[name])
    return os.path.join(os.path.dirname(__file__), filename)


def load_fixture(name: str) -> KripkeModel:
    if name not in FIXTURES:
        raise KeyError(f"unknown fixture {name!r}; known: {', '.join(fixture_names())}")
    return load_model(fixture_text(name))


def fixture_claims(name: str) -> tuple[Claim, ...]:
    return FIXTURES[name][1]
