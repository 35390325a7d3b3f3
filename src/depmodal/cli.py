"""Command-line front door.

Commands take their arguments positionally or through flags (``-m/--model``,
``-w/--world``, ``-f/--formula``); the flag form wins when both are given.
Exit status: 0 for a completed command (a "false" answer is still 0),
1 when ``examples`` finds a fixture claim that does not hold, 2 for usage
or malformed input text, 3 for model load/validation errors, 4 for
evaluation errors such as unknown worlds, undeclared names, hidden variables
named in a formula or candidate, or a distinguishing formula nested too
deeply, 5 for an internal error: the two evaluation routes disagree on a
dependency atom the evaluation asks (the message names the world it was
asked at), or any other unexpected exception, and 141 (128 + SIGPIPE, as a
shell reports for a writer whose reader left) when standard output is closed
before the output is written, with nothing on stderr.

The argument parser is built once per process and reused by every ``main``
call; argparse keeps no state between ``parse_args`` calls.

``cmd_bisim`` and ``cmd_axioms`` import the bisimulation and the soundness
harness inside the function, so that the other commands start without
importing either module.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import asdict

from . import fixtures
from .dependency import (METHODS, generative_family, is_generative, p_family,
                         sigma)
from .errors import EvalError, ModelError, ParseError
from .model import KripkeModel, load_model_path
from .semantics import evaluate, extension
from .syntax import (GLOBAL, LOCAL, modal_depth, parse_formula, parse_varset,
                     render_formula, render_varset)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MODEL = 3
EXIT_EVAL = 4
EXIT_INTERNAL = 5
EXIT_PIPE = 141

_KIND = {"g": GLOBAL, "l": LOCAL}


class _UsageError(Exception):
    pass


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after."""
    parser = argparse.ArgumentParser(
        prog="depmodal",
        description="Check dependency-epistemic formulas on finite two-relation "
                    "Kripke models.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, model=True, world=False, formula=False):
        if model:
            p.add_argument("model_pos", nargs="?", metavar="MODEL", help="model file")
            p.add_argument("-m", "--model", dest="model_flag")
        if world:
            p.add_argument("world_pos", nargs="?", metavar="WORLD")
            p.add_argument("-w", "--world", dest="world_flag")
        if formula:
            p.add_argument("formula_pos", nargs="?", metavar="FORMULA")
            p.add_argument("-f", "--formula", dest="formula_flag")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("check", help="truth of a formula at a world, both routes")
    add_common(p, world=True, formula=True)

    p = sub.add_parser("extension", help="worlds satisfying a formula")
    add_common(p, formula=True)

    p = sub.add_parser("generative", help="difference family, generative family, "
                                          "and verdicts for one candidate set")
    add_common(p, world=True)
    p.add_argument("varset_pos", nargs="?", metavar="VARSET",
                   help="candidate set, e.g. '{x,y}'")
    p.add_argument("--kind", choices=sorted(_KIND), required=True,
                   help="g: global, l: local")

    p = sub.add_parser("bisim", help="decide bisimilarity of two pointed models")
    add_common(p, world=True)
    p.add_argument("model2_pos", nargs="?", metavar="MODEL2")
    p.add_argument("world2_pos", nargs="?", metavar="WORLD2")
    p.add_argument("--model2", dest="model2_flag")
    p.add_argument("--world2", dest="world2_flag")
    p.add_argument("--depth", type=int, default=None,
                   help="search depth for a distinguishing formula")

    p = sub.add_parser("axioms", help="run the schema soundness suite")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("validate", help="load a model file and report diagnostics")
    add_common(p)

    p = sub.add_parser("examples", help="replay a bundled fixture's claims")
    p.add_argument("name", nargs="?",
                   help=f"one of: {', '.join(fixtures.fixture_names())}")
    p.add_argument("--json", action="store_true")

    return parser


def _pick(pos, flag, what: str) -> str:
    value = flag if flag is not None else pos
    if value is None:
        raise _UsageError(f"missing {what}")
    return value


def _require_world(m: KripkeModel, w: str) -> str:
    m._world_index(w)
    return w


def _too_deep() -> ParseError:
    # a formula can parse and still exhaust the stack when evaluated or rendered
    return ParseError("formula nested too deeply", 0)


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _fmt_family(members) -> str:
    ordered = sorted(members, key=lambda s: (len(s), sorted(s)))
    return " ".join(render_varset(m) for m in ordered) if ordered else "(empty)"


def cmd_check(args) -> int:
    m = load_model_path(_pick(args.model_pos, args.model_flag, "model path"))
    w = _require_world(m, _pick(args.world_pos, args.world_flag, "world"))
    f = parse_formula(_pick(args.formula_pos, args.formula_flag, "formula"))
    try:
        value = evaluate(m, w, f)
        shown = render_formula(f)
    except RecursionError:
        raise _too_deep() from None
    _emit(args, {"command": "check", "world": w, "formula": shown,
                 "value": value, "routes": {"direct": value, "evidence": value}},
          "true" if value else "false")
    return EXIT_OK


def cmd_extension(args) -> int:
    m = load_model_path(_pick(args.model_pos, args.model_flag, "model path"))
    f = parse_formula(_pick(args.formula_pos, args.formula_flag, "formula"))
    try:
        holding = extension(m, f)
        sat = [s for s in m.worlds if s in holding]
        shown = render_formula(f)
    except RecursionError:
        raise _too_deep() from None
    _emit(args, {"command": "extension", "formula": shown, "worlds": sat},
          "\n".join(sat) if sat else "(no worlds)")
    return EXIT_OK


def cmd_generative(args) -> int:
    m = load_model_path(_pick(args.model_pos, args.model_flag, "model path"))
    w = _require_world(m, _pick(args.world_pos, args.world_flag, "world"))
    kind = _KIND[args.kind]
    fam = p_family(m, w, kind)
    gen = generative_family(fam)
    lines = [f"family: {_fmt_family(fam)}"]
    payload: dict = {"command": "generative", "world": w, "kind": kind,
                     "family": sorted(sorted(s) for s in fam),
                     "generative_family": sorted(sorted(s) for s in gen)}
    if args.varset_pos is not None:
        candidate = parse_varset(args.varset_pos)
        if not candidate:
            raise _UsageError("candidate set must be nonempty")
        m._check_named(candidate)
        sig = sigma(fam, candidate)
        verdicts = {method: is_generative(fam, candidate, method)
                    for method in METHODS}
        lines.append(f"sigma({render_varset(candidate)}): {_fmt_family(sig)}")
        lines.append("generative: " + " ".join(
            f"{k}={str(v).lower()}" for k, v in verdicts.items()))
        payload["candidate"] = sorted(candidate)
        payload["sigma"] = sorted(sorted(s) for s in sig)
        payload["verdicts"] = verdicts
    lines.append(f"generative family: {_fmt_family(gen)}")
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def cmd_bisim(args) -> int:
    from .bisim import find_distinguishing_formula

    if args.depth is not None and args.depth < 0:
        raise ValueError("depth must be >= 0")
    m = load_model_path(_pick(args.model_pos, args.model_flag, "model path"))
    w = _require_world(m, _pick(args.world_pos, args.world_flag, "world"))
    m2 = load_model_path(_pick(args.model2_pos, args.model2_flag, "second model path"))
    w2 = _require_world(m2, _pick(args.world2_pos, args.world2_flag, "second world"))
    try:
        # a formula exists exactly when the points are not bisimilar, and its
        # modal depth is their split level
        f = find_distinguishing_formula(m, w, m2, w2)
        verdict = f is None
        if not verdict and args.depth is not None and modal_depth(f) > args.depth:
            f = None
        shown = None if f is None else render_formula(f)
    except RecursionError:
        raise EvalError("distinguishing formula nested too deeply") from None
    payload: dict = {"command": "bisim", "bisimilar": verdict}
    if verdict:
        _emit(args, payload, "bisimilar")
        return EXIT_OK
    payload["distinguishing"] = shown
    if shown is None:
        _emit(args, payload,
              "not bisimilar\nno distinguishing formula within the given depth")
    else:
        _emit(args, payload, f"not bisimilar\ndistinguishing: {shown}")
    return EXIT_OK


def cmd_axioms(args) -> int:
    from .harness import GenParams, soundness_suite

    if args.trials < 1:
        raise _UsageError("--trials must be >= 1")
    report = soundness_suite(GenParams(seed=args.seed), args.trials)
    if args.json:
        print(json.dumps(asdict(report), sort_keys=True))
    else:
        print(report.summary())
    return EXIT_OK


def cmd_validate(args) -> int:
    m = load_model_path(_pick(args.model_pos, args.model_flag, "model path"))
    text = "\n".join([
        f"worlds: {len(m.worlds)}",
        f"propositions: {len(m.propositions)}",
        f"variables: {len(m.named_variables)} named, {len(m.hidden_variables)} hidden",
        f"epistemic partition: {len(m.epistemic_partition)} cells",
        f"nomic partition: {len(m.nomic_partition)} cells",
        f"mirrors: {len(m.mirrors)}",
        "ok",
    ])
    _emit(args, {"command": "validate", "ok": True,
                 "worlds": len(m.worlds),
                 "propositions": len(m.propositions),
                 "named_variables": len(m.named_variables),
                 "hidden_variables": len(m.hidden_variables)}, text)
    return EXIT_OK


def cmd_examples(args) -> int:
    if args.name is None:
        raise _UsageError("missing fixture name")
    try:
        m = fixtures.load_fixture(args.name)
    except KeyError as e:
        raise _UsageError(str(e.args[0])) from None
    results = []
    for claim in fixtures.fixture_claims(args.name):
        f = parse_formula(claim.formula)
        if claim.world is not None:
            got_at = {claim.world: evaluate(m, claim.world, f)}
        else:
            sat = extension(m, f)
            got_at = {w: w in sat for w in m.worlds}
        for w, got in got_at.items():
            results.append({"world": w, "formula": claim.formula,
                            "expected": claim.expect, "got": got,
                            "ok": got == claim.expect})
    all_ok = all(r["ok"] for r in results)
    lines = [f"{'PASS' if r['ok'] else 'FAIL'} world={r['world']} "
             f"{r['formula']} = {str(r['got']).lower()}" for r in results]
    lines.append(f"{sum(r['ok'] for r in results)}/{len(results)} claims hold")
    _emit(args, {"command": "examples", "name": args.name,
                 "results": results, "ok": all_ok}, "\n".join(lines))
    return EXIT_OK if all_ok else 1


_HANDLERS = {
    "check": cmd_check,
    "extension": cmd_extension,
    "generative": cmd_generative,
    "bisim": cmd_bisim,
    "axioms": cmd_axioms,
    "validate": cmd_validate,
    "examples": cmd_examples,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return _HANDLERS[args.command](args)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ParseError as e:
        print(f"syntax error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as e:
        print(f"invalid argument: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ModelError as e:
        print(f"model error: {e}", file=sys.stderr)
        return EXIT_MODEL
    except EvalError as e:
        print(f"evaluation error: {e}", file=sys.stderr)
        return EXIT_EVAL
    except BrokenPipeError:
        # the reader stopped early, which is not a fault of the command
        return EXIT_PIPE
    except Exception as e:
        # route disagreements and bugs alike: no traceback, a documented code
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_PIPE
    if code == EXIT_PIPE:
        # what stdout still buffers can never be delivered; writing it to
        # devnull keeps the interpreter's final flush from reporting it
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entry()
