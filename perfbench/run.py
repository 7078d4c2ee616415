"""anyon1d benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

Builds the workload's operation list from the seed, lets lazy set-up
finish, then runs whole passes over the list, one operation at a time,
until --seconds have passed and at least the workload's minimum number
of passes is done.  Every output is checked outside the timed region.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0,
the per-layer metrics of one traced pass with --trace 1.  See README.md
beside this file for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import decimal
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

# Passes a run always completes.  The tail percentile is fixed from it,
# so it does not move when a faster program fits more passes in a run.
# The counts put the tail rank inside the latency samples of one
# operation rather than at the edge between two.
MIN_PASSES = {"verify": 8, "sample_grid": 4, "oracle_solve": 4}
TAIL_BEYOND = 10          # samples that must lie beyond the tail percentile
MAX_MEASURE_S = 140.0     # no new pass starts after this, whatever MIN_PASSES says
SETUP_REPEATS = 9        # set-up samples per run, spread between its passes
SETUP_CODE = ("import time; t = time.perf_counter(); import anyon1d.cli as cli; "
              "cli.build_parser(); print(time.perf_counter() - t)")
# Seconds the reference computation takes on a quiet host (the 2 GHz Xeon
# vCPU the benchmark was defined on); timings are reported at this speed.
REFERENCE_QUIET_S = 0.020


def reference_work():
    """A fixed computation with the program's mix of work, not its code:
    scalar float and integer loops, numpy array arithmetic, float
    formatting and 60-digit decimals."""
    acc, term = 0.0, 1.0
    for k in range(15_000):
        term = term * 0.999 + 1e-3 * k / (k + 1.0)
        acc += term
    s = 0
    for i in range(200_000):
        s += i * i
    x = np.linspace(0.0, 40.0, 50_000)
    y = np.exp(-0.5 * x * x) * (2.0 * x * x - 1.0)
    text = "\n".join(repr(v) for v in y[:4000].tolist())
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        d = decimal.Decimal(1)
        for k in range(400):
            d = d * (k + 1) / (decimal.Decimal(k) + decimal.Decimal("2.5"))
    return acc, s, len(text), d


def host_factor() -> float:
    """How much slower than quiet the host runs right now (1.0 = quiet)."""
    start = time.perf_counter()
    reference_work()
    return (time.perf_counter() - start) / REFERENCE_QUIET_S


def tail_percentile(ops_per_pass: int, min_passes: int) -> float:
    """Highest percentile with TAIL_BEYOND latency samples beyond it in a
    run of min_passes passes."""
    return 100.0 * (1.0 - TAIL_BEYOND / (ops_per_pass * min_passes))


def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def setup_sample() -> float:
    """Seconds a fresh interpreter takes to import anyon1d.cli and build its
    parser, at quiet-host speed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    before = host_factor()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=HERE.parent,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout.split()[-1]) / (0.5 * (before + host_factor()))


def execute(op: dict):
    """Run one operation; return (seconds, outcome) with only the call timed."""
    start = time.perf_counter()
    try:
        if op["kind"] == "cli":
            code, out = workloads.run_cli(op["argv"])
            return time.perf_counter() - start, ("cli", code, out)
        result = workloads.run_solver(op)
        return time.perf_counter() - start, ("solver", result)
    except Exception as exc:     # a failed operation is counted, never fatal
        return time.perf_counter() - start, ("error", f"{type(exc).__name__}: {exc}")


def make_checker(workload: str, op: dict):
    """Callable taking an outcome and returning None or a failure reason."""
    grid = checks.GridChecker(op) if workload == "sample_grid" else None

    def check(outcome) -> str | None:
        if outcome[0] == "error":
            return outcome[1]
        if workload == "verify":
            return checks.check_verify(op, *outcome[1:])
        if grid is not None:
            return grid.check(*outcome[1:])
        return checks.check_solver(op, outcome[1])
    return check


class Passes:
    """Latencies and outcomes of whole passes over one operation list.

    Every latency is divided by the host factor measured around the
    operation, which puts it at quiet-host speed: on the shared host the
    benchmark was defined on, the CPU ran up to 1.8 times slower for a
    minute or more at a time.
    """

    def __init__(self, ops: list[dict], checkers: list):
        self.ops = ops
        self.checkers = checkers
        self.latencies = [[] for _ in ops]
        self.pass_s = []
        self.wall_pass_s = []     # the same passes without the host factor
        self.attempted = 0
        self.failures = []        # (op index, reason)

    def run(self, seconds: float, min_passes: int, max_passes: int | None = None,
            tracer=None, after_pass=None) -> None:
        start = time.perf_counter()
        done = 0
        while max_passes is None or done < max_passes:
            elapsed = time.perf_counter() - start
            if done >= min_passes and elapsed >= seconds:
                break
            if done and elapsed >= MAX_MEASURE_S:
                break
            # The host factor is measured before the first operation and
            # after each one; an operation's latency is divided by the mean
            # of the two factors that bracket it.
            factors = [host_factor()]
            walls = []
            for i, op in enumerate(self.ops):
                gc.collect()      # each operation starts from a clean heap
                if tracer is not None:
                    tracer.op = i
                seconds_i, outcome = execute(op)
                walls.append(seconds_i)
                self.attempted += 1
                reason = self.checkers[i](outcome)
                del outcome       # not held while the next operation runs
                if reason:
                    self.failures.append((i, reason))
                factors.append(host_factor())
            adjusted = [w / (0.5 * (a + b)) for w, a, b in zip(walls, factors, factors[1:])]
            for lat, seconds_i in zip(self.latencies, adjusted):
                lat.append(seconds_i)
            self.pass_s.append(sum(adjusted))
            self.wall_pass_s.append(sum(walls))
            done += 1
            if after_pass is not None:
                after_pass()

    def op_latencies(self) -> list[float]:
        """One latency per operation: the median of its repetitions."""
        return [statistics.median(lat) for lat in self.latencies if lat]

    def samples(self) -> list[float]:
        """Every latency of every operation in every pass."""
        return [seconds for lat in self.latencies for seconds in lat]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "anyon1d" / "cli.py").is_file():
        print(f"error: no anyon1d sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("ANYON_DEFAULT_TOL", None)   # no run may loosen a tolerance

    ops = workloads.build(args.workload, args.seed)
    for op in workloads.warmup(args.workload):
        execute(op)
    passes = Passes(ops, [make_checker(args.workload, op) for op in ops])
    min_passes = MIN_PASSES[args.workload]

    if args.trace:
        passes.run(0.5 * args.seconds, min_passes=1)
        untraced = statistics.median(passes.pass_s)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            passes.run(0.0, min_passes=1, max_passes=1, tracer=tracer)
        finally:
            tracer.remove()
        metrics = tracer.layer_metrics()
        # Spans hold raw wall time, so trace.pass_s stays raw to add up with
        # them; the overhead compares host-adjusted pass times, as pass_s does.
        metrics["trace.pass_s"] = passes.wall_pass_s[-1]
        metrics["trace.overhead_s"] = passes.pass_s[-1] - untraced
        units = tracing.layer_metric_units()
        out_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(out_file)
        print(f"spans written to {out_file.relative_to(HERE.parent)}")
    else:
        # The first set-up run may compile the bytecode cache and is not
        # kept; the rest are spread over the run, one after each pass, so
        # a short burst of load on the host does not hit them all.
        setup_sample()
        setup = [setup_sample()]
        passes.run(args.seconds, min_passes=min_passes,
                   after_pass=lambda: setup.append(setup_sample()))
        while len(setup) < SETUP_REPEATS:
            setup.append(setup_sample())
        samples = passes.samples()
        tail_pct = tail_percentile(len(ops), min_passes)
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.median(passes.pass_s),
            "op_p50_s": statistics.median(passes.op_latencies()),
            "op_tail_s": nearest_rank(samples, tail_pct),
            "ok_ratio": 1.0 - len(passes.failures) / passes.attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {"setup_s": "s", "pass_s": "s", "op_p50_s": "s", "op_tail_s": "s",
                 "ok_ratio": "1", "peak_rss_mb": "MB"}
        print(f"{args.workload} seed {args.seed}: {len(passes.pass_s)} passes of "
              f"{len(ops)} operations; op_tail_s is p{tail_pct:.2f} of "
              f"{len(samples)} latency samples; median pass wall time {statistics.median(passes.wall_pass_s):.4f} s")

    unexpected = [(i, r) for i, r in passes.failures
                  if not checks.is_known_defect(ops[i], r)]
    for i, reason in sorted(set(passes.failures))[:20]:
        print(f"failed op {i}: {reason}: {' '.join(map(str, ops[i].get('argv', [ops[i]])))}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not unexpected,
        "attempted": passes.attempted,
        "failed": len(passes.failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
