"""What a command imports: each command loads only the modules it runs.

``check`` and the other evaluation commands start without the soundness
harness and the bisimulation; ``axioms`` and ``bisim`` import theirs when
they run.  Each case is a fresh interpreter that runs one command through
``cli.main`` and reports ``sys.modules``, so the guard is a set of module
names and does not drift with the host's speed.  The package's public names
keep resolving to the objects of their defining modules, the two lazily
loaded modules included."""

import json
import subprocess
import sys

import pytest

import depmodal
from depmodal import harness
from depmodal.fixtures import fixture_path

COMMAND = """
import contextlib, io, json, sys
from depmodal import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(sys.modules)]))
"""

#: defining module -> every name the package exports, eagerly or lazily
EXPORTS = {
    "errors": ["EvalError", "ModelError", "ParseError"],
    "syntax": ["BOT", "GLOBAL", "KINDS", "LOCAL", "TOP", "All", "And", "DepG",
               "DepL", "Formula", "Know", "Not", "Prop", "Top", "VarSet",
               "conj_all", "dep_atom", "disj", "disj_all", "iff", "implies",
               "mutual_dependence", "parse_formula", "parse_varset",
               "proper_subsets", "render_formula", "render_varset"],
    "model": ["KripkeModel", "load_model", "load_model_path"],
    "semantics": ["check_names", "dep_holds_direct", "evaluate", "extension"],
    "dependency": ["EvidenceFamily", "atom_holds_from_family",
                   "dep_holds_by_evidence", "family", "generative_family",
                   "is_evidence", "is_generative", "p_family", "sigma"],
    "bisim": ["find_distinguishing_formula", "greatest_bisimulation"],
    "harness": ["Counterexample", "GenParams", "SchemaInstance",
                "SoundnessReport", "draw_instances", "instantiate",
                "random_formula", "random_model", "schema_names",
                "soundness_suite"],
}

IMPORT = f"""
import importlib, json, sys
import depmodal
before = sorted(sys.modules)
exports = {EXPORTS!r}
# the package's attribute first, so the lazy lookup is what resolves it
same = [getattr(depmodal, name) is getattr(
            importlib.import_module(f"depmodal.{{mod}}"), name)
        for mod, names in exports.items() for name in names]
stored = sorted(set(vars(depmodal)) & set(exports["bisim"] + exports["harness"]))
submodules = [depmodal.bisim is sys.modules["depmodal.bisim"],
              depmodal.harness is sys.modules["depmodal.harness"]]
print(json.dumps([before, same, stored, submodules]))
"""


def _fresh(env: dict, script: str, *args: str):
    """The JSON that ``script`` prints in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


DOOR = fixture_path("open_door")
WITNESS = fixture_path("dl_strictness_witness")
HARNESS, BISIM = "depmodal.harness", "depmodal.bisim"


#: a command's arguments, and which of the two lazily loaded modules it loads
COMMANDS = [
    (["check", DOOR, "s", "K Dg({bar_p};{bar_r})"], set()),
    (["extension", DOOR, "K Dg({bar_p};{bar_r})"], set()),
    (["generative", DOOR, "s", "{bar_p,bar_r}", "--kind", "g"], set()),
    (["validate", DOOR], set()),
    (["examples", "open_door"], set()),
    (["axioms", "--trials", "1"], {HARNESS}),
    (["bisim", WITNESS, "a", WITNESS, "b"], {BISIM}),
]


@pytest.mark.parametrize("argv, loaded", COMMANDS, ids=[a[0] for a, _ in COMMANDS])
def test_command_imports_only_what_it_runs(package_env, argv, loaded):
    code, modules = _fresh(package_env, COMMAND, json.dumps(argv))
    assert code == 0
    assert {HARNESS, BISIM} & set(modules) == loaded


def test_cli_import_loads_no_resource_reader(package_env):
    # without ``site``, which may preload them, so only the package's own
    # imports count
    script = "import json, sys; import depmodal.cli; print(json.dumps(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-S", "-c", script], env=package_env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert not {"importlib.resources", "pathlib"} & set(json.loads(proc.stdout))


def test_public_names_resolve_after_plain_import(package_env):
    before, same, stored, submodules = _fresh(package_env, IMPORT)
    assert not {HARNESS, BISIM} & set(before)
    assert all(same)
    assert stored == []
    assert all(submodules)


def test_lazy_name_follows_its_module(monkeypatch):
    def stand_in(*args):
        raise AssertionError("not called")

    monkeypatch.setattr(harness, "soundness_suite", stand_in)
    assert depmodal.soundness_suite is stand_in
    monkeypatch.undo()
    assert depmodal.soundness_suite is harness.soundness_suite
    assert "soundness_suite" not in vars(depmodal)


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        depmodal.no_such_name
