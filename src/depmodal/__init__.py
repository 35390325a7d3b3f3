"""Toolkit for an epistemic modal logic with partial-dependency atoms over
finite two-relation Kripke models: parsing, model checking by two independent
routes, evidence/generative-set computation, bisimilarity with distinguishing
formulas, and a semantic soundness harness for the axiom schemas.

The bisimulation and soundness-harness names (the keys of ``_LAZY``) and the
``bisim`` and ``harness`` submodules load on first use through the module
``__getattr__`` (PEP 562), so that a command that runs neither, such as
``check``, does not import them.  A lazy name is looked up in its defining
module on every access and never stored here: a value stored here would stop
following that module's attribute, which callers may rebind, for example to
wrap a function for tracing.  ``from depmodal import *`` binds only the
eagerly imported names."""

import importlib

from .errors import EvalError, ModelError, ParseError
from .syntax import (BOT, GLOBAL, KINDS, LOCAL, TOP, All, And, DepG, DepL,
                     Formula, Know, Not, Prop, Top, VarSet, conj_all, dep_atom,
                     disj, disj_all, iff, implies, mutual_dependence,
                     parse_formula, parse_varset, proper_subsets,
                     render_formula, render_varset)
from .model import KripkeModel, load_model, load_model_path
from .semantics import check_names, dep_holds_direct, evaluate, extension
from .dependency import (EvidenceFamily, atom_holds_from_family,
                         dep_holds_by_evidence, family, generative_family,
                         is_evidence, is_generative, p_family, sigma)

__version__ = "0.1.0"

#: name -> the submodule that defines it
_LAZY = {
    **dict.fromkeys(("find_distinguishing_formula", "greatest_bisimulation"),
                    "bisim"),
    **dict.fromkeys(("Counterexample", "GenParams", "SchemaInstance",
                     "SoundnessReport", "draw_instances", "instantiate",
                     "random_formula", "random_model", "schema_names",
                     "soundness_suite"), "harness"),
}


def __getattr__(name: str):
    if name in ("bisim", "harness"):
        # importing a submodule binds it here, as a plain import would
        return importlib.import_module(f"{__name__}.{name}")
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
