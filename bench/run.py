#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for lineaut.

    python3 bench/run.py                                  # all four workloads
    python3 bench/run.py --workload far_orbit --seed 3 --seconds 55 --trace 0

Run from the repository root; the library is imported from ``src/``.  Each
workload runs in its own single-threaded process.  With ``--trace 0`` the
last line of output is one JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics: span times from the
benchmark's own calls into each layer, and exact counts from a counting pass
that is run twice and must repeat exactly.  Every reported time is scaled
to a reference host speed, probed between operations (hostspeed.py).  See
bench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from hostspeed import Scaler

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("conjugacy", "equations", "far_orbit", "algebra")
SETUPS = 9  # set-up is repeated and its median reported
SETUP_ROUNDS = 2  # rounds of inputs built per set-up


def load_lineaut():
    """Import lineaut from this checkout's src/, and from nowhere else."""
    if not (SRC / "lineaut" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'lineaut'} not found; run from a lineaut checkout")
    sys.path.insert(0, str(SRC))
    import lineaut

    if Path(lineaut.__file__).resolve().parent != SRC / "lineaut":
        sys.exit(f"error: imported lineaut from {lineaut.__file__}, not from {SRC}")
    return lineaut


def import_seconds() -> float:
    """Time to execute lineaut's modules afresh.  The loaded modules are put
    back afterwards, so every object in this process keeps one version."""
    loaded = {k: v for k, v in sys.modules.items() if k.split(".")[0] == "lineaut"}
    for name in loaded:
        del sys.modules[name]
    try:
        start = time.perf_counter()
        importlib.import_module("lineaut.cli")
        importlib.import_module("lineaut.samples")
        return time.perf_counter() - start
    finally:
        for name in [k for k in sys.modules if k.split(".")[0] == "lineaut"]:
            del sys.modules[name]
        sys.modules.update(loaded)


def setup(workload: str, seed: int):
    """One set-up: a fresh import of lineaut plus building and warming the
    inputs of the first rounds.  Returns (seconds, rounds)."""
    from workloads import ROUNDS

    spent = import_seconds()
    start = time.perf_counter()
    rounds = [ROUNDS[workload](seed, r) for r in range(SETUP_ROUNDS)]
    return spent + time.perf_counter() - start, rounds


class Stats:
    def __init__(self):
        self.op_seconds = []
        self.raw_seconds = 0.0
        self.eval_points = 0
        self.eval_seconds = 0.0
        self.attempted = 0
        self.failed = 0
        self.wrong = []
        self.by_kind = {}
        self.factors = {}  # operation id -> host speed factor
        self.scaler = Scaler()

    def run_round(self, ops, tr, cli):
        from workloads import CheckError

        for kind, op in ops:
            tr.op += 1
            self.attempted += 1
            result = None
            start = time.perf_counter()
            try:
                result = op(tr, cli)
            except CheckError as exc:
                self.wrong.append(f"{kind}: {exc}")
            except Exception:  # a fault of the program: count it, keep measuring
                self.failed += 1
                print(f"operation {kind} failed:\n{traceback.format_exc()}", file=sys.stderr)
            raw = time.perf_counter() - start
            factor = self.factors[tr.op] = self.scaler.factor()
            if result is None:
                continue
            points, seconds = result
            spent = raw * factor
            self.raw_seconds += raw
            self.op_seconds.append(spent)
            self.by_kind.setdefault(kind, []).append(spent)
            self.eval_points += points
            self.eval_seconds += seconds * factor

    def end_to_end(self, setup_s: float) -> dict:
        ops = sorted(self.op_seconds)
        if len(ops) < 10 or not self.eval_points:
            raise RuntimeError("too few operations to report percentiles")
        deciles = statistics.quantiles(ops, n=10)
        values = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(ops) / sum(ops), "1/s"),
            "op_ms_p50": (statistics.median(ops) * 1e3, "ms"),
            "op_ms_p90": (deciles[8] * 1e3, "ms"),
            "eval_points_per_s": (self.eval_points / self.eval_seconds, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}

    def host(self) -> str:
        """Raw throughput and the mean host speed factor, for the log."""
        raw = len(self.op_seconds) / self.raw_seconds
        return f"raw ops_per_s {raw:.4g} 1/s, host speed factor {sum(self.op_seconds) / self.raw_seconds:.3f}"

    def kinds(self) -> str:
        return ", ".join(f"{k} {len(v)} x {statistics.median(v) * 1e3:.3g} "
                         f"(max {max(v) * 1e3:.3g}) ms" for k, v in sorted(self.by_kind.items()))


def run_workload(args) -> int:
    lineaut = load_lineaut()
    sys.path.insert(0, str(HERE))
    import spans as tracing
    from workloads import ROUNDS, CheckError, Cli, counting_pass, coverage_round

    setups = []
    scaler = Scaler()
    for _ in range(SETUPS):
        seconds, prebuilt = setup(args.workload, args.seed)
        setups.append(seconds * scaler.factor())
    tr = tracing.Tracer() if args.trace else tracing.NULL
    stats = Stats()
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        cli = Cli(workdir)
        start = time.perf_counter()
        r = 0
        while r == 0 or time.perf_counter() - start < args.seconds:
            ops = prebuilt[r] if r < len(prebuilt) else ROUNDS[args.workload](args.seed, r)
            stats.run_round(ops, tr, cli)
            r += 1
        measured = time.perf_counter() - start
        metrics = stats.end_to_end(statistics.median(setups))
        backend = getattr(lineaut, "KERNEL_BACKEND", "n/a")
        print(f"{args.workload} seed {args.seed}: {r} rounds in {measured:.1f} s, "
              f"kernel backend {backend}, traced {bool(args.trace)}")
        print("  operations: " + stats.kinds())
        print("  host: " + stats.host())
        print("  end to end: " + ", ".join(f"{k} {v['value']:.4g} {v['unit']}"
                                           for k, v in metrics.items()))
        if args.trace:
            for other in WORKLOADS:  # every layer appears in every traced run
                stats.run_round(coverage_round(other, args.seed), tr, cli)
            tr.op += 1  # the counting passes are one operation for scaling
            try:
                first = counting_pass(args.seed, tr)
                second = counting_pass(args.seed, tracing.NULL)
            except CheckError as exc:
                stats.wrong.append(f"counting pass: {exc}")
                first = second = {}
            stats.factors[tr.op] = stats.scaler.factor()
            if first != second:
                stats.wrong.append(f"counting pass did not repeat: {first} != {second}")
            metrics = tracing.layer_times(tr.spans, stats.factors)
            metrics.update({k: {"value": v, "unit": "count"} for k, v in first.items()})
            print(f"  spans: {len(tr.spans)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in stats.wrong:
        print(f"WRONG OUTPUT {line}", file=sys.stderr)
    print(json.dumps({"correct": not stats.wrong, "attempted": stats.attempted,
                      "failed": stats.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{workload}: exit code {done.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print("\n".join(lines[:-1]))
        print(f"  attempted {result['attempted']}, failed {result['failed']}, "
              f"correct {result['correct']}")
        for name, metric in result["metrics"].items():
            print(f"    {name:34s} {metric['value']:14.6g} {metric['unit']}")
            summary["metrics"][f"{workload}.{name}"] = metric
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
