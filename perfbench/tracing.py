"""Per-layer tracing from outside the program, and the scaling probes.

``Tracer.install`` wraps every public function of the seven layer modules and
rebinds the wrapper wherever the package had bound the original by name (for
example ``cli.evaluate`` and ``bisim.p_family``), so calls made through
``from .x import f`` are traced too.  ``Tracer.restore`` puts every original
back.  Nothing in the package itself changes.

Every wrapped call takes the clock four times: on entering the wrapper, just
before and just after the wrapped function, and after its bookkeeping and
counter hook.  The wrapped function's duration minus the whole wrapper time
of the wrapped calls it made is its self time, booked to its layer.  The
wrapper's own time (the whole interval minus the duration) is booked to the
``trace`` pseudo-layer, so the layers' self times hold the program's time and
the tracer's cost shows apart.  What remains of the tracer inside the layers
is the Python call into a wrapper and the two inner clock reads, a few tenths
of a microsecond per call; ``trace.layer_sum_ratio`` shows its size.  Each
op's root is the ``cli.main`` wrapper, so per op the layers' and ``trace``'s
self times add up to the root's whole interval.

Calls to the hot leaves in ``FOLDED`` and to the syntax helpers are folded
into counts and summed times; other calls are kept as spans for the first
``SPAN_OPS`` ops and written out by the caller.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import statistics
import time
import weakref
from collections import defaultdict

PACKAGE = "depmodal"
LAYERS = ("cli", "syntax", "model", "semantics", "dependency", "bisim", "harness")
#: pseudo-layer that holds the wrappers' own time
TRACE = "trace"
ROOT = "cli.main"
SPAN_OPS = 20
CALIBRATION_CALLS = 20000
CALIBRATION_REPEATS = 7
FOLDED = {"semantics.dep_holds_direct", "semantics.check_names",
          "dependency.dep_holds_by_evidence", "dependency.p_family",
          "dependency.atom_holds_from_family", "dependency.is_evidence",
          "dependency.generative_sets", "harness.random_formula",
          "harness.random_varset"}


def _ast_nodes(f) -> int:
    count, stack = 0, [f]
    while stack:
        g = stack.pop()
        count += 1
        if dataclasses.is_dataclass(g):
            stack.extend(v for v in (getattr(g, fl.name) for fl in dataclasses.fields(g))
                         if dataclasses.is_dataclass(v))
    return count


def _ast_depth(f) -> int:
    if not dataclasses.is_dataclass(f):
        return 0
    children = [getattr(f, fl.name) for fl in dataclasses.fields(f)]
    below = max((_ast_depth(c) for c in children), default=0)
    return below + (type(f).__name__ in ("Know", "All"))


class Tracer:
    """Wraps the package's public functions and aggregates their timings."""

    def __init__(self):
        self.modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                        for layer in LAYERS}
        self.bindings = [importlib.import_module(PACKAGE),
                         importlib.import_module(f"{PACKAGE}.fixtures"),
                         *self.modules.values()]
        self.local_kind = self.modules["syntax"].LOCAL
        self.stack: list[list] = []
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.layer_self: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.depths: list[int] = []
        self.support_max = 0
        #: per op: the root's whole interval, and the layers' and the
        #: tracer's share of it
        self.op_times: list[float] = []
        self.op_parts: list[tuple[float, float]] = []
        self.spans: list[tuple] = []
        self._direct_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._op_self = 0.0
        self._op_trace = 0.0
        self._next_span = 0
        self._patches: list[tuple] = []
        self._wrappers: dict[int, object] | None = None
        self.residual = 0.0
        self._hooks = {
            "syntax.parse_formula": self._on_parse,
            "model.load_model": self._on_load,
            "semantics.dep_holds_direct": self._on_direct,
            "dependency.p_family": self._on_family,
            "dependency.generative_family": self._on_generative,
            "bisim.greatest_bisimulation": self._on_bisimulation,
            "bisim.find_distinguishing_formula": self._on_distinguishing,
            "harness.soundness_suite": self._on_suite,
        }

    # -- installation ---------------------------------------------------------

    def originals(self) -> dict[str, object]:
        out = {}
        for layer, mod in self.modules.items():
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    out[f"{layer}.{name}"] = obj
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        if self._wrappers is None:
            self._wrappers = {id(fn): self._wrap(qual, fn)
                              for qual, fn in self.originals().items()}
        for mod in self.bindings:
            for name, obj in list(vars(mod).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrapper)

    def restore(self) -> None:
        for mod, name, obj in reversed(self._patches):
            setattr(mod, name, obj)
        self._patches.clear()

    def leaked(self) -> list[str]:
        """Bindings that still hold a wrapper; empty after ``restore``."""
        return [f"{mod.__name__}.{name}" for mod in self.bindings
                for name, obj in vars(mod).items()
                if getattr(obj, "__wrapped_by_tracer__", False)]

    def _wrap(self, qual: str, fn):
        layer = qual.split(".", 1)[0]
        folded = (qual in FOLDED or layer == "calibration"
                  or (layer == "syntax" and qual != "syntax.parse_formula"))
        root = qual == ROOT
        hook = self._hooks.get(qual)
        stats = self.stats[qual]
        layer_self = self.layer_self
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entry = clock()
            frame = [0.0, self._next_span]
            self._next_span += 1
            parent = stack[-1][1] if stack else None
            stack.append(frame)
            returned = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                own = duration - frame[0]
                stats[0] += 1
                stats[1] += duration
                stats[2] += own
                layer_self[layer] += own
                self._op_self += own
                if not folded and len(self.op_times) < SPAN_OPS:
                    self.spans.append((len(self.op_times), frame[1], parent,
                                       qual, t0, t1))
                if returned and hook is not None:
                    hook(args, result)
                # the caller is charged the whole wrapper interval plus the
                # calibrated cost that falls outside it; the root has no caller
                extra = self.residual if stack else 0.0
                spent = clock() - entry
                if stack:
                    stack[-1][0] += spent + extra
                layer_self[TRACE] += spent - duration + extra
                self._op_trace += spent - duration + extra
                if root:
                    self._end_op(spent)
            return result

        wrapper.__wrapped_by_tracer__ = True
        return wrapper

    def calibrate(self) -> None:
        """Set ``residual``: the wrapper cost per call that falls outside the
        wrapper's own clock reads (the call into the wrapper, argument
        packing and the two inner clock reads), as the median of
        ``CALIBRATION_REPEATS`` comparisons of a loop of wrapped and of plain
        calls to a five-argument no-op."""
        clock = time.perf_counter

        def leaf(a, b, c, d, e):
            return None

        def loop(f, n):
            for _ in range(n):
                f(1, 2, 3, 4, 5)

        wrapped_leaf = self._wrap("calibration.leaf", leaf)
        wrapped_loop = self._wrap("calibration.loop", loop)
        self.residual = 0.0
        samples = []
        for _ in range(CALIBRATION_REPEATS):
            t0 = clock()
            loop(leaf, CALIBRATION_CALLS)
            plain = clock() - t0
            before = self.layer_self["calibration"]
            wrapped_loop(wrapped_leaf, CALIBRATION_CALLS)
            booked = self.layer_self["calibration"] - before
            samples.append((booked - plain) / CALIBRATION_CALLS)
        for qual in ("calibration.leaf", "calibration.loop"):
            del self.stats[qual]
        for layer in ("calibration", TRACE):
            self.layer_self.pop(layer, None)
        self._op_self = self._op_trace = 0.0
        self._next_span = 0
        self.residual = max(0.0, statistics.median(samples))

    def _end_op(self, spent: float) -> None:
        self.op_times.append(spent)
        self.op_parts.append((self._op_self, self._op_trace))
        self._op_self = self._op_trace = 0.0

    # -- counters computed from arguments and results -------------------------

    def _on_parse(self, args, f) -> None:
        self.counters["formula_nodes"] += _ast_nodes(f)

    def _on_load(self, args, m) -> None:
        self.counters["worlds_loaded"] += len(m.worlds)

    def _on_direct(self, args, result) -> None:
        m, s, kind, x, y = args
        anchor = s if kind == self.local_kind else m.nomic_class(s)
        seen = self._direct_keys.setdefault(m, set())
        key = (kind, x, y, anchor)
        if key in seen:
            self.counters["direct_repeats"] += 1
        seen.add(key)

    def _on_family(self, args, fam) -> None:
        self.counters["family_members"] += len(fam)

    def _on_generative(self, args, fam) -> None:
        self.counters["generative_members"] += len(fam)
        self.support_max = max(self.support_max, len(args[0].support))

    def _on_bisimulation(self, args, rel) -> None:
        self.counters["pairs_kept"] += len(rel)

    def _on_distinguishing(self, args, f) -> None:
        if f is not None:
            self.depths.append(_ast_depth(f))

    def _on_suite(self, args, report) -> None:
        self.counters["atoms_checked"] += report.atoms_checked

    # -- metrics --------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-op means of the traced ops, keyed by metric name."""
        ops = len(self.op_times)
        if not ops:
            raise ValueError("no traced op completed")

        def calls(q):
            return self.stats[q][0] / ops

        def incl(q):
            return self.stats[q][1] / ops

        def own(q):
            return self.stats[q][2] / ops

        def per_op(c):
            return self.counters[c] / ops

        direct_calls = self.stats["semantics.dep_holds_direct"][0]
        out = {
            "op.traced_s": (statistics.fmean(self.op_times), "s"),
            "cli.main.self_s": (self.layer_self["cli"] / ops, "s"),
            "syntax.parse_formula.calls": (calls("syntax.parse_formula"), "calls"),
            "syntax.parse_formula.s": (incl("syntax.parse_formula"), "s"),
            "syntax.formula_nodes": (per_op("formula_nodes"), "count"),
            "model.load_model.calls": (calls("model.load_model"), "calls"),
            "model.load_model.s": (incl("model.load_model"), "s"),
            "model.worlds_loaded": (per_op("worlds_loaded"), "count"),
            "semantics.evaluate.self_s": (own("semantics.evaluate"), "s"),
            "semantics.evaluate_by_evidence.self_s":
                (own("semantics.evaluate_by_evidence"), "s"),
            "semantics.check_names.s": (incl("semantics.check_names"), "s"),
            "semantics.dep_holds_direct.calls": (calls("semantics.dep_holds_direct"), "calls"),
            "semantics.dep_holds_direct.s": (incl("semantics.dep_holds_direct"), "s"),
            "semantics.atom_reuse":
                (self.counters["direct_repeats"] / direct_calls if direct_calls else 0.0,
                 "fraction"),
            "dependency.dep_holds_by_evidence.calls":
                (calls("dependency.dep_holds_by_evidence"), "calls"),
            "dependency.dep_holds_by_evidence.s":
                (incl("dependency.dep_holds_by_evidence"), "s"),
            "dependency.p_family.calls": (calls("dependency.p_family"), "calls"),
            "dependency.p_family.s": (incl("dependency.p_family"), "s"),
            "dependency.family_members": (per_op("family_members"), "count"),
            "dependency.generative_family.calls":
                (calls("dependency.generative_family"), "calls"),
            "dependency.generative_family.s": (incl("dependency.generative_family"), "s"),
            "dependency.generative_members": (per_op("generative_members"), "count"),
            "dependency.support_max": (float(self.support_max), "count"),
            "bisim.are_bisimilar.s": (incl("bisim.are_bisimilar"), "s"),
            "bisim.pairs_kept": (per_op("pairs_kept"), "count"),
            "bisim.find_distinguishing_formula.s":
                (incl("bisim.find_distinguishing_formula"), "s"),
            "bisim.formula_depth":
                (statistics.fmean(self.depths) if self.depths else 0.0, "count"),
            "harness.random_model.s": (incl("harness.random_model"), "s"),
            "harness.instantiate.s": (incl("harness.instantiate"), "s"),
            "harness.atoms_checked": (per_op("atoms_checked"), "count"),
        }
        for layer in LAYERS[1:] + (TRACE,):
            out[f"{layer}.self_s"] = (self.layer_self[layer] / ops, "s")
        return out


# -- scaling probes ----------------------------------------------------------------

PROBE_REPEATS = 3


def _median_time(build, run, check) -> float:
    """Median wall time of ``run(build())`` over fresh inputs; ``check``
    validates every answer."""
    times = []
    for _ in range(PROBE_REPEATS):
        arg = build()
        t0 = time.perf_counter()
        answer = run(arg)
        times.append(time.perf_counter() - t0)
        check(arg, answer)
    return statistics.median(times)


def _single_cell_doc(n: int, props: dict, vals: dict) -> dict:
    worlds = [f"w{i}" for i in range(n)]
    return {"propositions": list(props),
            "variables": [{"name": x, "hidden": False} for x in vals],
            "worlds": [{"id": w, "props": dict(props), "vals": dict(vals)}
                       for w in worlds],
            "epistemic_partition": [worlds],
            "nomic_partition": [worlds]}


def run_probes() -> dict[str, tuple[float, str]]:
    """ROADMAP's adversarial cases at two sizes each, timed untraced."""
    syntax = importlib.import_module(f"{PACKAGE}.syntax")
    model = importlib.import_module(f"{PACKAGE}.model")
    semantics = importlib.import_module(f"{PACKAGE}.semantics")
    dependency = importlib.import_module(f"{PACKAGE}.dependency")
    bisim = importlib.import_module(f"{PACKAGE}.bisim")

    def expect(ok: bool, what: str) -> None:
        if not ok:
            raise AssertionError(f"probe answer wrong: {what}")

    def k_depth(boxes: int) -> float:
        f = syntax.Prop("p")
        for _ in range(boxes):
            f = syntax.Know(f)
        return _median_time(
            lambda: model.load_model(_single_cell_doc(30, {"p": 1}, {"x": 0})),
            lambda m: semantics.extension(m, f),
            lambda m, ext: expect(ext == set(m.worlds), f"K^{boxes} p"))

    def ring(k: int) -> float:
        names = [f"v{i}" for i in range(k)]
        return _median_time(
            lambda: dependency.family(frozenset((names[i], names[(i + 1) % k]))
                                      for i in range(k)),
            dependency.generative_family,
            lambda p, gen: expect(len(gen) == k * (k - 2) + 1, f"ring {k}"))

    def uniform(n: int) -> float:
        return _median_time(
            lambda: model.load_model(_single_cell_doc(n, {"p": 0}, {"x": 0})),
            lambda m: bisim.greatest_bisimulation(m, m),
            lambda m, rel: expect(len(rel) == n * n, f"uniform {n}"))

    out = {}
    for name, fn, small, large in (("k_depth", k_depth, 2, 3),
                                   ("ring", ring, 10, 12),
                                   ("uniform_bisim", uniform, 40, 60)):
        t_small, t_large = fn(small), fn(large)
        out[f"probe.{name}.small_s"] = (t_small, "s")
        out[f"probe.{name}.large_s"] = (t_large, "s")
        out[f"probe.{name}.ratio"] = (t_large / t_small, "ratio")
    return out
