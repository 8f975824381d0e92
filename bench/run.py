"""addcomb benchmark: one workload, one single-threaded process, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory. The process builds the workload's instance list from
the seed, warms each group's lazy tables, then runs passes over the list
(the next instance starts only after the previous one returns) until
another pass would overrun ``--seconds``, with at least two passes so every
output can be compared with the previous pass. The last line on stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: setup_s (median
of cold set-ups in fresh interpreters, spread between the passes), wall_s
and headline_s (medians over passes) and peak_rss_mb. --trace 1 installs the
span tracer and prints the per-layer metrics instead, medians over passes;
the spans themselves go to .bench_traces/ in the checkout. trace.absent
counts the traced functions and counters the library no longer offers, so a
dropped counter cannot read as a gain; their names go to stderr.

An operation fails when it raises, when a verdict the CLI gates on is false,
when its canonical bytes differ from the previous pass, or when a
seed-independent instance misses the digest recorded in digests.json.
``correct`` is false for any failure except a false verdict, which is the
program reporting on itself.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One thread per process; must precede the first numpy import.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Cold set-ups per untraced run, spread in time over the run's passes so
#: they meet the same machine phases; setup_s is their median.
SETUP_REPEATS = 16

#: Every run makes at least this many passes, so each output has a repeat.
MIN_PASSES = 2


def import_library() -> None:
    """Put the checkout's src/ first on the path and import addcomb from it."""
    init = SRC / "addcomb" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no addcomb sources under {SRC}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import addcomb

    if Path(addcomb.__file__).resolve() != init.resolve():
        raise SystemExit(f"error: addcomb imported from {addcomb.__file__}, not {init}")


def set_up(workload: str, seed: int) -> list:
    """Build the instance list and warm the lazy tables of every group in it."""
    import workloads

    instances = workloads.WORKLOADS[workload](seed)
    for inst in instances:
        for g in inst.tables:
            g.coords_table()
            g.negation_permutation()
    return instances


def setup_probe(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set_up."""
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1]) - t0


class Accounting:
    """Attempted and failed operations, with the first failure of each kind."""

    def __init__(self, digests: dict):
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.previous: dict[str, bytes] = {}
        self.problems: dict[str, str] = {}

    def record_error(self, inst, exc: BaseException) -> None:
        self.attempted += inst.ops
        self.failed += inst.ops
        self.correct = False
        self.problems.setdefault(inst.name, "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)).rstrip())

    def record(self, inst, ops) -> None:
        for op in ops:
            self.attempted += 1
            problems = list(op.problems)
            previous = self.previous.get(op.op_id)
            if previous is not None and previous != op.canonical:
                problems.append("canonical bytes differ from the previous pass")
                self.correct = False
            self.previous[op.op_id] = op.canonical
            if inst.fixed and op.digest != self.digests.get(op.op_id):
                problems.append(f"digest {op.digest} != recorded "
                                f"{self.digests.get(op.op_id)}")
                self.correct = False
            if problems:
                self.failed += 1
                self.problems.setdefault(op.op_id, "; ".join(problems))


def run_pass(instances, acct: Accounting, tracer=None, label: str = "") -> tuple[float, float]:
    """One closed-loop pass; returns (pass seconds, headline seconds)."""
    total = headline = 0.0
    for inst in instances:
        if tracer is not None:
            tracer.instance = f"{label}{inst.name}"
        t0 = time.perf_counter()
        try:
            result = inst.call()
        except Exception as exc:  # an operation that raises is a failure, not a crash
            total += time.perf_counter() - t0
            acct.record_error(inst, exc)
            continue
        dt = time.perf_counter() - t0
        total += dt
        if inst.headline:
            headline = dt
        try:
            ops = inst.check(result)
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            acct.record_error(inst, exc)
            continue
        acct.record(inst, ops)
    return total, headline


def measure(instances, seconds: float, tracer=None, trace_file=None, probe=None):
    """Closed-loop passes until another typical pass, with the probes after
    it, would overrun ``seconds``.

    With ``probe`` (a callable that times one cold set-up), SETUP_REPEATS
    probes run in the gaps between passes, as many after each pass as keeps
    their count in step with the share of ``seconds`` used so far.

    Returns the accounting, pass seconds, headline seconds, set-up seconds
    and, when traced, the per-layer figures of each pass.
    """
    acct = Accounting(json.loads((BENCH_DIR / "digests.json").read_text()))
    pass_s, headline_s, setup_s, layers, cycle_s = [], [], [], [], []
    start = time.perf_counter()
    deadline = start + seconds
    while (len(pass_s) < MIN_PASSES
           or time.perf_counter() + statistics.median(cycle_s) <= deadline):
        cycle_start = time.perf_counter()
        gc.collect()
        total, head = run_pass(instances, acct, tracer, label=f"pass {len(pass_s)}: ")
        pass_s.append(total)
        headline_s.append(head)
        if tracer is not None:
            from tracer import aggregate

            layer = aggregate(tracer.spans)
            layer["trace.wall_s"] = total
            layer["trace.spans"] = len(tracer.spans)
            layers.append(layer)
            tracer.drain(trace_file)
        if probe is not None:
            while len(setup_s) < SETUP_REPEATS * min(
                    1.0, (time.perf_counter() - start) / max(seconds, 1e-9)):
                setup_s.append(probe())
        cycle_s.append(time.perf_counter() - cycle_start)
    if probe is not None:
        setup_s += [probe() for _ in range(SETUP_REPEATS - len(setup_s))]
    return acct, pass_s, headline_s, setup_s, layers


def _function_of(metric: str) -> str:
    parts = metric.split(".")[:-1]
    return ".".join(parts[:2] if parts[:2] == ["sets", "sumset"] else parts)


def traced_run(workload: str, seed: int, seconds: float, per_layer: list):
    """Set up and measure under the tracer; per-layer medians over passes."""
    from tracer import Tracer, aggregate

    tracer = Tracer().install()
    try:
        tracer.absent.update({_function_of(m["name"]) for m in per_layer}
                             - tracer.traced - {"trace"})
        out_dir = ROOT / ".bench_traces"
        out_dir.mkdir(exist_ok=True)
        with gzip.open(out_dir / f"{workload}-seed{seed}.jsonl.gz", "wt",
                       compresslevel=1) as fh:
            tracer.instance = "setup"
            instances = set_up(workload, seed)
            setup = aggregate(tracer.spans)
            tracer.drain(fh)
            acct, pass_s, _, _, layers = measure(instances, seconds, tracer, fh)
            fh.write(json.dumps({"absent": sorted(tracer.absent)}) + "\n")
    finally:
        tracer.uninstall()
    absent = sorted(tracer.absent)
    # an absent function or failed hook leaves its metrics at 0 here, so
    # trace.absent counts them in the result line
    values = {m["name"]: statistics.median(layer.get(m["name"], 0) for layer in layers)
              for m in per_layer}
    values["trace.absent"] = len(absent)
    # table building is paid in set-up, so the set-up share is added in
    values["groups.tables.s"] += setup.get("groups.tables.s", 0.0)
    return acct, pass_s, values, absent


def untraced_run(workload: str, seed: int, seconds: float):
    """Closed-loop passes with tracing off, cold set-ups timed between them."""
    instances = set_up(workload, seed)
    acct, pass_s, headline_s, setup_s, _ = measure(
        instances, seconds, probe=lambda: setup_probe(workload, seed))
    values = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(pass_s),
        "headline_s": statistics.median(headline_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return acct, pass_s, values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: set up once, print the monotonic clock, exit")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_library()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; pick one of {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        set_up(args.workload, args.seed)
        print(time.monotonic())
        return 0

    absent = []
    if args.trace:
        acct, pass_s, values, absent = traced_run(args.workload, args.seed, args.seconds,
                                                  spec["per_layer"])
        wanted = spec["per_layer"]
    else:
        acct, pass_s, values = untraced_run(args.workload, args.seed, args.seconds)
        wanted = spec["end_to_end"]

    print(f"{args.workload} seed={args.seed}: {len(pass_s)} passes, pass s "
          f"{[round(t, 3) for t in pass_s]}, fail ratio {acct.failed}/{acct.attempted}",
          file=sys.stderr)
    for op_id, problem in acct.problems.items():
        print(f"  failed: {op_id}: {problem}", file=sys.stderr)
    if absent:
        print(f"  absent (functions or counters): {', '.join(absent)}", file=sys.stderr)
    print(json.dumps({
        "correct": acct.correct,
        "attempted": acct.attempted,
        "failed": acct.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
