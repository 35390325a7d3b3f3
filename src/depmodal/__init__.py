"""Toolkit for an epistemic modal logic with partial-dependency atoms over
finite two-relation Kripke models: parsing, model checking by two independent
routes, evidence/generative-set computation, bisimilarity with distinguishing
formulas, and a semantic soundness harness for the axiom schemas."""

from .errors import EvalError, ModelError, ParseError
from .syntax import (BOT, GLOBAL, KINDS, LOCAL, TOP, All, And, DepG, DepL,
                     Formula, Know, Not, Prop, Top, VarSet, conj_all, dep_atom,
                     disj, disj_all, iff, implies, mutual_dependence,
                     parse_formula, parse_varset, proper_subsets,
                     render_formula, render_varset)
from .model import KripkeModel, load_model, load_model_path
from .semantics import (check_names, dep_holds_direct, evaluate,
                        evaluate_by_evidence, extension, extension_by_evidence)
from .dependency import (EvidenceFamily, atom_holds_from_family,
                         dep_holds_by_evidence, family, generative_family,
                         is_evidence, is_generative, p_family, sigma)
from .bisim import find_distinguishing_formula, greatest_bisimulation
from .harness import (Counterexample, GenParams, SchemaInstance,
                      SoundnessReport, draw_instances, instantiate,
                      random_formula, random_model, schema_names,
                      soundness_suite)

__version__ = "0.1.0"
