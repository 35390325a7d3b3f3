"""The benchmark's tracer keeps working on the package as it is.

``perfbench/tracing.py`` wraps every public function of the package and
reads some arguments and results in its counter hooks (for example the
``.support`` of the family passed to ``generative_family``).  A package
change that breaks one of those reads passes every untraced test and fails
only the traced benchmark run.  This test runs one op of each command the
workloads use, untraced and traced, and reads the tracer's figures; it only
imports the tracer, never changes it."""

import contextlib
import io
import random
import re
import sys
from pathlib import Path

import pytest

from depmodal import cli
from depmodal.fixtures import fixture_path
from depmodal.harness import GenParams, draw_instances, instantiate, random_model

from oracles import collect_dep_atoms

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import tracing  # noqa: E402

# the bisim pair is not bisimilar, so the op numbers the families' cores and
# builds a distinguishing formula
OPS = {
    "bisim": ("bisim", fixture_path("dl_strictness_witness"), "a",
              fixture_path("dl_strictness_witness"), "b"),
    "check": ("check", fixture_path("open_door"), "s", "K Dg({bar_p};{bar_r})"),
    "generative": ("generative", fixture_path("open_door"), "s", "{bar_p,bar_r}",
                   "--kind", "g"),
    "axioms": ("axioms", "--trials", "1"),
}


def _run(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        # looked up at call time, so a traced run goes through the wrapper
        code = cli.main(list(argv))
    # the axioms summary reports its own wall time
    return code, re.sub(r"elapsed=\S+", "elapsed=", out.getvalue())


@pytest.fixture(scope="module")
def tracer():
    t = tracing.Tracer()
    yield t
    t.restore()


def _atom_anchors(seed: int) -> int:
    """How many (atom, anchor) pairs the suite's trial ``seed`` asks about."""
    m = random_model(GenParams(seed=seed))
    rng = random.Random(seed ^ 0x9E3779B9)
    atoms = set().union(*(collect_dep_atoms(instantiate(inst))
                          for inst in draw_instances(rng, m)))
    return sum(len({m._anchor(s, kind) for s in m.worlds}) for kind, _, _ in atoms)


@pytest.mark.parametrize("name", list(OPS))
def test_traced_op_matches_untraced(tracer, name):
    plain = _run(OPS[name])
    # the tracer's counts add up over the module's ops
    before = {q: stats[0] for q, stats in tracer.stats.items()}
    tracer.install()
    try:
        traced = _run(OPS[name])
    finally:
        tracer.restore()
    assert tracer.leaked() == []
    assert traced == plain
    assert plain[0] == 0
    if name == "bisim":
        assert plain[1].startswith("not bisimilar")
    if name == "axioms":
        # the suite asks the direct route once per atom and anchor, and
        # reads the evidence route off the difference families
        calls = {q: stats[0] - before.get(q, 0) for q, stats in tracer.stats.items()}
        assert calls["dependency.dep_holds_by_evidence"] == 0
        assert calls["semantics.dep_holds_direct"] == _atom_anchors(0)


def test_metrics_and_probes(tracer):
    tracer.install()
    try:
        for argv in OPS.values():
            _run(argv)
    finally:
        tracer.restore()
    metrics = tracer.metrics()
    assert metrics["dependency.generative_family.calls"][0] > 0
    assert metrics["bisim.formula_depth"][0] >= 0
    probes = tracing.run_probes()
    assert set(probes) >= {"probe.ring.ratio", "probe.uniform_bisim.ratio"}
