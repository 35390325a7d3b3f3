"""Benchmark for the depmodal command line.

    python3 perfbench/run.py --workload {axioms,check,bisim,all} --seed N \\
        --seconds S --trace {0,1}

Run from a checkout holding ``src/depmodal``.  One client, one thread, closed
loop: each op is one ``depmodal.cli.main([...])`` call in this process, so it
reloads its input files and starts with cold model caches, as a command-line
user does.  Inputs are generated from ``--seed`` into a scratch directory
under ``perfbench/_work`` and every verdict is checked against a known answer
(see ``workloads.py``).

``--trace 0`` times the ops untraced for ``--seconds`` of op time (at least
``MIN_OPS`` ops) and reports the end-to-end metrics.  ``--trace 1`` runs a
prefix of the same op sequence untraced and then traced, and reports the
per-layer metrics (see ``tracing.py``), the tracing overhead and the scaling
probes.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs the three workloads one after another, each in its
own process, and prints their metrics as a table.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import reference as ref  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("axioms", "check", "bisim")
MIN_OPS = 100
SETUP_REPEATS = 11
#: the timed loop stops here even below MIN_OPS, so a run ends within 180 s
DEADLINE_S = 150.0
#: share of --seconds a traced run spends on untraced ops; each is also run
#: traced, so the whole run takes about (1 + overhead) times this
TRACE_SHARE = 0.4
#: how much of a traced op's wall time may lie outside its root span: the
#: call into the cli.main wrapper and the return from it
UNACCOUNTED_MAX_S = 1e-3
WARMUP = ("examples", "open_door", "--json")
#: the program's work depends on set iteration order, which follows string
#: hashing; a fixed hash seed keeps that order, and so the work, the same
#: from run to run
HASH_SEED = "0"


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def setup_seconds() -> float:
    """Package import plus one warm-up op, timed in a fresh interpreter."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), SRC],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout)


def fixture_inputs() -> dict[str, tuple[ref.RefModel, list]]:
    """Reference model and (formula, world, truth) claims of every bundled
    fixture, after checking that the reference evaluator reproduces each
    hand-written claim."""
    from depmodal import fixtures
    out = {}
    for name in fixtures.fixture_names():
        model = ref.RefModel(json.loads(fixtures.fixture_text(name)))
        claims = [(c.formula, c.world, c.expect) for c in fixtures.fixture_claims(name)]
        for text, world, expect in claims:
            for w in [world] if world is not None else sorted(model.worlds):
                if model.holds(w, ref.parse(text)) != expect:
                    fail(f"reference evaluator contradicts fixture claim "
                         f"{name}: {text} at {w}", 1)
        out[name] = (model, claims)
    return out


def make_ops(workload: str, seed: int, workdir: str, fixtures: dict) -> list[wl.Op]:
    """Generate the inputs in a child process, so that its memory stays out
    of this process's peak."""
    proc = subprocess.run([sys.executable, os.path.join(HERE, "workloads.py"),
                           workload, str(seed), workdir, *fixtures],
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        fail(f"input generation failed: {proc.stderr.strip()}", 1)
    return wl.load_ops(workdir)


def run_op(main, op: wl.Op) -> tuple[float, int | str, str]:
    """Seconds taken, exit code (or the exception raised) and output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            rc = main(list(op.argv))
        except Exception as e:  # a crashing op is a failed op, not a crash
            rc = f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - t0
    return elapsed, rc, buf.getvalue()


class Loop:
    """Runs ops in order, cycling, and checks each verdict outside the timing."""

    def __init__(self, ops: list[wl.Op], fixtures: dict, keep_outputs: bool = False,
                 verify: bool = True):
        self.ops = ops
        self.fixtures = fixtures
        self.verify = verify
        self.total = 0.0
        self.times: list[float] = []
        self.outputs: list[str] | None = [] if keep_outputs else None
        self.failed = 0
        self.errors: list[str] = []

    def run(self, main, done, deadline: float) -> None:
        """Run ops, continuing the cycle, until ``done(ops run, op seconds)``
        or the deadline."""
        while not done(len(self.times), self.total) and time.monotonic() < deadline:
            op = self.ops[len(self.times) % len(self.ops)]
            elapsed, rc, out = run_op(main, op)
            problem = None
            try:
                if self.verify:
                    problem = wl.verify(op, rc, out, self.fixtures)
            except (ValueError, KeyError, TypeError) as e:
                problem = f"unreadable output: {type(e).__name__}: {e}"
            self.times.append(elapsed)
            if self.outputs is not None:
                self.outputs.append(out)
            self.total += elapsed
            if problem is not None:
                self.failed += 1
                if len(self.errors) < 5:
                    self.errors.append(f"{' '.join(op.argv)}: {problem}")


def comparable(output: str) -> str:
    """Op output without the fields that legitimately differ between runs."""
    try:
        payload = json.loads(output)
    except ValueError:
        return output
    if isinstance(payload, dict):
        payload.pop("elapsed", None)
    return json.dumps(payload, sort_keys=True)


def end_to_end(cli, ops: list[wl.Op], fixtures: dict, args,
               deadline: float) -> tuple[Loop, dict]:
    seconds = args.seconds
    loop = Loop(ops, fixtures)
    # set-up is sampled between stretches of ops, so its median spans the
    # run rather than one moment of it
    setups = []
    for k in range(1, SETUP_REPEATS + 1):
        setups.append(setup_seconds())
        share = seconds * k / SETUP_REPEATS
        loop.run(cli.main, lambda n, t: t >= share and (k < SETUP_REPEATS or n >= MIN_OPS),
                 deadline)
    times = loop.times
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(times) / sum(times), "ops/s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return loop, metrics


def traced(cli, ops: list[wl.Op], fixtures: dict, args,
           deadline: float) -> tuple[Loop, dict]:
    import tracing
    tracer = tracing.Tracer()
    tracer.calibrate()
    plain = Loop(ops, fixtures, keep_outputs=True)
    # the traced outputs are compared with the verified untraced ones below;
    # verifying them inside the traced window would trace the verification
    loop = Loop(ops, fixtures, keep_outputs=True, verify=False)
    # each op runs untraced and traced, in alternating order, so that
    # neither side gains from running second
    while plain.total < args.seconds * TRACE_SHARE and time.monotonic() < deadline:
        n = len(plain.times) + 1
        for traced_now in (n % 2 == 0, n % 2 == 1):
            if traced_now:
                tracer.install()
            try:
                # cli.main is looked up after install, so it is the wrapper
                (loop if traced_now else plain).run(cli.main, lambda k, t: k >= n, math.inf)
            finally:
                tracer.restore()
        # the layers' and the tracer's self times add up to the root span by
        # construction; this checks that the root span covers the op's wall
        # time as run_op measured it
        layers, wrappers = tracer.op_parts[-1]
        gap = loop.times[-1] - (layers + wrappers)
        if not -1e-6 <= gap <= UNACCOUNTED_MAX_S:
            fail(f"self times account for {layers + wrappers:.6f}s of an op that "
                 f"took {loop.times[-1]:.6f}s: {ops[(n - 1) % len(ops)].argv}", 1)
    if tracer.leaked():
        fail(f"tracing wrappers not restored: {tracer.leaked()}", 1)
    for i, (a, b) in enumerate(zip(plain.outputs, loop.outputs)):
        if comparable(a) != comparable(b):
            fail(f"traced and untraced outputs differ for {ops[i % len(ops)].argv}", 1)
    loop.failed += plain.failed
    loop.errors += plain.errors
    metrics = tracer.metrics()
    metrics["trace.residual_us"] = (tracer.residual * 1e6, "us")
    metrics["trace.overhead_ratio"] = (loop.total / plain.total, "ratio")
    metrics["trace.layer_sum_ratio"] = (
        sum(layers for layers, _ in tracer.op_parts) / plain.total, "ratio")
    metrics.update(tracing.run_probes())
    with open(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.json"), "w") as fh:
        json.dump({"fields": ["op", "span", "parent", "name", "start", "end"],
                   "spans": tracer.spans}, fh)
    return loop, metrics


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "depmodal", "__init__.py")):
        fail(f"no depmodal package under {SRC}")
    sys.path.insert(0, SRC)
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        fixtures = fixture_inputs()
        ops = make_ops(args.workload, args.seed, workdir, fixtures)
        from depmodal import cli
        run_op(cli.main, wl.Op("examples", WARMUP))
        measure = traced if args.trace else end_to_end
        loop, metrics = measure(cli, ops, fixtures, args, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    attempted = len(loop.times)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:40s} {value:14.6g} {unit}")
    print(f"{args.workload:8s} {'failed_frac':40s} {loop.failed / attempted:14.6g} fraction")
    for e in loop.errors:
        print(f"perfbench: wrong verdict: {e}", file=sys.stderr)
    correct = loop.failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": loop.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=300)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEED))
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
