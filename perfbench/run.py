"""Benchmark of the convexotonic package: four seeded workloads, closed loop.

    python3 perfbench/run.py --workload {transport,algebra,probe,cli} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from `src/`. One
caller sends one op at a time in a single process (for `cli`, one child
process at a time), with BLAS pinned to one thread through the package's own
CONVEXOTONIC_NUM_THREADS=1, also in every CLI child.

Workloads (see workloads.py for the exact mix of each cycle):

- transport: one properness sample per op, on type IV (g=2, d=2) at levels
  32/128/256 and the closed upper-triangular 3x3 algebra (g=6) at 16/64.
  Map evaluation at large levels dominates; ops share two tuples.
- algebra: a fresh tuple per op (upper-triangular pairs d=3..6, full pairs
  d=5..7, strictly upper-triangular triples d=6/8), run through closure,
  structure constants, map construction, the transfer identity at level 2
  and the necessary conditions. Span solves, the per-matrix SVD loop and the
  nilpotency word tree dominate. The full pairs at d=6/7 fail at the commit
  that defined the benchmark: their closure is reported "not convexotonic".
- probe: one sv_probe per op on generic pairs (certified), scalar-multiple
  pairs (inconclusive at 200 trials) and two nilpotent tuples (rejected).
  Level-1 pencils and the subset search dominate.
- cli: one `python -m convexotonic` request per op (eval and member at level
  128, xi --closure at d=5, sv-probe, examples); the parsed stdout is compared
  with the in-process result. Import and JSON I/O dominate.

A run executes whole cycles until --seconds have passed. With --trace 0 it
reports the end-to-end metrics. With --trace 1 it runs a fixed number of
cycles twice on the same inputs, first plain and then with spans around the
benchmark's calls into each package layer and with numpy.linalg calls
counted, and reports the per-layer metrics; the spans go to
perfbench/out/trace-<workload>-seed<seed>.json.

Standard output: one line `{"report": ...}` with all six end-to-end metrics
(ops_per_s, op_p50_ms, op_tail_ms, fail_ratio, setup_s, peak_rss_mb), the
tail percentile and its sample count, per-op records and machine info; then
the result line, whose metrics are the bounded subset GATED. An op fails when
the package raises or when its check fails; `correct` is false only when a
returned result contradicts its check. op_tail_ms is the latency with ten
verified ops beyond it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from tracing import FACTOR_FUNCS, Tracer, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import convexotonic; "
    "print(time.perf_counter() - t)"
)

END_TO_END = (
    ("ops_per_s", "op/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("fail_ratio", "1"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
# The subset on the result line and in BENCHMARK.json, each with a bound.
# The host this was tuned on flips between a fast and a ~1.5x slower state
# every few seconds; a median or tail order statistic then jumps between the
# two levels with the share of a run spent slow, while ops_per_s (a sum over
# all ops) moves only in proportion. fail_ratio is 0 on three workloads.
GATED = ("ops_per_s", "setup_s", "peak_rss_mb")

TRACED_CALLS = (
    "linalg.pencil_eval",
    "linalg.operator_norm",
    "domains.boundary_scale",
    "domains.ball_membership",
    "domains.spec_membership",
    "algebras.algebra_closure",
    "algebras.structure_constants",
    "maps.ConvexotonicMap",
    "maps.call",
    "maps.transfer_residual",
    "genericity.necessary_conditions",
    "genericity.sv_probe",
    "verify.example_catalog",
    "jsonio.load_document",
    "jsonio.obj_to_tuple",
    "jsonio.tuple_to_obj",
    "jsonio.dumps",
    "cli.run",
)
D_SPLITS = ("d3", "d4", "d5", "d6", "d7", "d8")
SPLITS = {
    "maps.call": ("n16", "n32", "n64", "n128", "n256"),
    "algebras.algebra_closure": D_SPLITS,
    "algebras.structure_constants": D_SPLITS,
    "maps.ConvexotonicMap": D_SPLITS,
    "maps.transfer_residual": D_SPLITS,
    "genericity.necessary_conditions": D_SPLITS,
    "genericity.sv_probe": ("certified", "inconclusive", "rejected"),
}
COUNTS = (
    ("algebras.algebra_closure.appended", "count"),
    ("algebras.algebra_closure.orthonormalized", "count"),
    ("genericity.sv_probe.trials", "count"),
    ("jsonio.bytes_in", "B"),
    ("jsonio.bytes_out", "B"),
) + tuple((f"factor.{name}.calls", "count") for name in FACTOR_FUNCS)
LAYERS = ("linalg", "domains", "algebras", "maps", "genericity", "verify", "jsonio", "cli", "op")

# ROADMAP baseline rows the traced run measures: (row, span name, op label)
ROADMAP_ROWS = (
    ("map eval, type IV, n=32", "maps.call", "iv-n32"),
    ("map eval, type IV, n=256", "maps.call", "iv-n256"),
    ("algebra_closure, two random 6x6 -> M_6", "algebras.algebra_closure", "full-d6"),
    ("sv_probe, non-generic (scalar multiples), 200 trials, d=4", "genericity.sv_probe", "scalar-d4"),
)
ROADMAP_LEFT_OUT = (
    ("is_nilpotent, strictly upper-triangular g=3, d=10 / 12",
     "1.7 s / 6.9 s per call (exponential word tree); the algebra workload stops at d=8"),
    ("sv_probe, non-generic, 200 trials, d=5", "63 s per call; the probe workload stops at d=4"),
    ("pencil_eval d=16, n=32, g=4",
     "no workload op evaluates a d=16 pencil; the closest is maps.call on transport"),
)


def per_layer_names() -> list[tuple[str, str]]:
    names = []
    for call in TRACED_CALLS:
        names += [(f"{call}.calls", "count"), (f"{call}.busy_s", "s"), (f"{call}.failed", "count")]
    for call, splits in SPLITS.items():
        names += [(f"{call}.{split}.busy_s", "s") for split in splits]
    names += list(COUNTS)
    names += [("cli.import.busy_s", "s"), ("trace.overhead_ratio", "1")]
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    return names


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("transport", "algebra", "probe", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_threads() -> None:
    """Pin BLAS to one thread through the package's own setting.

    Competing variables are dropped so the package's setting takes effect;
    numpy must not be imported before this runs.
    """
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.pop(var, None)
    os.environ["CONVEXOTONIC_NUM_THREADS"] = "1"


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine_info(np) -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "threads": {
            var: os.environ.get(var)
            for var in ("CONVEXOTONIC_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def import_seconds(env) -> float:
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, env=env,
        timeout=120, check=True,
    )
    return float(proc.stdout)


class Tally:
    """The ops of one phase: (label, start_s, latency_s, verified) each."""

    def __init__(self):
        self.log: list[tuple[str, float, float, bool]] = []
        self.incorrect = 0
        self.errors: Counter = Counter()
        self.examples: dict[str, str] = {}
        self.cycles = 0
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return len(self.log)

    @property
    def verified(self) -> list[tuple[str, float]]:
        return [(label, latency) for label, _, latency, ok in self.log if ok]


def run_cycles(workload, api, op_ids, stop) -> Tally:
    """Run whole cycles of ops, one at a time, until stop(tally, elapsed)."""
    from workloads import CheckFailed

    tally = Tally()
    tracer = api.tracer
    start = time.perf_counter()
    while True:
        for op in workload.cycle(tally.cycles):
            error = None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    op.run(api)
                else:
                    with tracer.op_span(next(op_ids), op.label, op.split):
                        op.run(api)
            except Exception as err:  # the op boundary: record and go on
                error = err
            tally.log.append((op.label, t0 - start, time.perf_counter() - t0, error is None))
            if error is not None:
                tally.incorrect += isinstance(error, CheckFailed)
                key = f"{op.label}: {type(error).__name__}"
                tally.errors[key] += 1
                tally.examples.setdefault(key, str(error)[:200])
        tally.cycles += 1
        if stop(tally, time.perf_counter() - start):
            break
    tally.wall = time.perf_counter() - start
    return tally


def latency_stats(tally: Tally) -> dict:
    verified = tally.verified
    lat = sorted(latency for _, latency in verified)
    n = len(lat)
    if n == 0:
        return {"op_p50_ms": None, "op_tail_ms": None, "tail_percentile": None, "samples": 0}
    # the highest percentile with TAIL_BEYOND samples above it
    rank = max(n - TAIL_BEYOND - 1, 0)
    by_label: dict[str, list[float]] = {}
    for label, latency in verified:
        by_label.setdefault(label, []).append(latency)
    return {
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": lat[rank] * 1e3,
        "tail_percentile": 100.0 * (rank + 1) / n,
        "samples": n,
        "p50_ms_by_label": {k: statistics.median(v) * 1e3 for k, v in sorted(by_label.items())},
    }


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> tuple[dict, dict]:
    busy: Counter = Counter()
    calls: Counter = Counter()
    failed: Counter = Counter()
    by_split: Counter = Counter()
    by_label: Counter = Counter()
    label_calls: Counter = Counter()
    layer_self: Counter = Counter()
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        _, name, label, split, start, end, _, _, did_fail = span
        layer_self[name.split(".", 1)[0]] += own
        busy[name] += end - start
        calls[name] += 1
        failed[name] += did_fail
        by_split[name, split] += end - start
        by_label[name, label] += end - start
        label_calls[name, label] += 1
    values = {}
    for call in TRACED_CALLS:
        values[f"{call}.calls"] = calls[call]
        values[f"{call}.busy_s"] = busy[call]
        values[f"{call}.failed"] = failed[call]
    for call, splits in SPLITS.items():
        for split in splits:
            values[f"{call}.{split}.busy_s"] = by_split[call, split]
    for name, _ in COUNTS:
        values[name] = tracer.counts[name]
    values["cli.import.busy_s"] = busy["cli.import"]
    values["trace.overhead_ratio"] = overhead_ratio
    for layer in LAYERS:
        values[f"{layer}.self_s"] = layer_self[layer]
    rows = {
        row: {"calls": label_calls[name, label],
              "mean_s": by_label[name, label] / label_calls[name, label]}
        for row, name, label in ROADMAP_ROWS
        if label_calls[name, label]
    }
    return values, rows


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "convexotonic" / "__init__.py").is_file():
        sys.stderr.write(f"error: package source not found under {SRC}; "
                         "run from the root of a checkout\n")
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    import convexotonic  # noqa: F401  first numpy import, after the pin
    import numpy as np

    from workloads import WORKLOADS, Api, child_env

    env = child_env()
    machine = machine_info(np)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    plain = Api()
    try:
        # set-up, repeated: cold package import (in a child) plus input
        # generation and warm-up (in this process)
        imports, builds = [], []
        for _ in range(SETUP_REPEATS):
            imports.append(import_seconds(env))
            t0 = time.perf_counter()
            workload = WORKLOADS[args.workload](args.seed, workdir)
            workload.warmup(plain)
            builds.append(time.perf_counter() - t0)
        setup_s = statistics.median(imports) + statistics.median(builds)

        op_ids = itertools.count()
        if args.trace:
            cycles = max(1, round(args.seconds / (2 * workload.nominal_cycle_s)))
            tally = run_cycles(workload, plain, op_ids, lambda t, e: t.cycles >= cycles)
            tracer = Tracer()
            restore = tracer.patch_factor()
            try:
                traced = run_cycles(workload, Api(tracer), op_ids,
                                    lambda t, e: t.cycles >= cycles)
            finally:
                restore()
        else:
            tally = run_cycles(workload, plain, op_ids, lambda t, e: e >= args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    stats = latency_stats(tally)
    ops_per_s = len(tally.verified) / tally.wall
    end_to_end = {
        "ops_per_s": ops_per_s,
        "op_p50_ms": stats["op_p50_ms"],
        "op_tail_ms": stats["op_tail_ms"],
        "fail_ratio": (tally.attempted - len(tally.verified)) / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    runs = [tally]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "why": workload.why,
        "loop": "closed, one caller, one op at a time",
        "cycles": tally.cycles,
        "wall_s": tally.wall,
        "end_to_end": {name: {"value": end_to_end[name], "unit": unit}
                       for name, unit in END_TO_END},
        "tail_percentile": stats["tail_percentile"],
        "latency_samples": stats["samples"],
        "p50_ms_by_label": stats.get("p50_ms_by_label", {}),
        "setup": {"import_s": imports, "generate_and_warmup_s": builds},
        "ops": [[label, start, latency * 1e3, ok] for label, start, latency, ok in tally.log],
        "machine": machine,
    }
    if args.trace:
        runs.append(traced)
        traced_ops_per_s = len(traced.verified) / traced.wall
        overhead = ops_per_s / traced_ops_per_s if traced_ops_per_s else 0.0
        values, rows = layer_metrics(tracer, overhead)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_names()}
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload,
            "seed": args.seed,
            "cycles_per_phase": cycles,
            "span_fields": ["id", "name", "label", "split", "start", "end",
                            "parent", "op", "failed"],
            "spans": tracer.spans,
            "per_layer": values,
            "roadmap_rows": rows,
            "roadmap_rows_left_out": [
                {"row": row, "reason": why} for row, why in ROADMAP_LEFT_OUT
            ],
            "machine": machine,
        }))
        report["trace_file"] = str(trace_file.relative_to(ROOT))
        report["roadmap_rows"] = rows
    else:
        metrics = {name: report["end_to_end"][name] for name in GATED}

    report["attempted"] = sum(r.attempted for r in runs)
    report["failed"] = report["attempted"] - sum(len(r.verified) for r in runs)
    errors = sum((r.errors for r in runs), Counter())
    examples = {k: v for r in runs for k, v in r.examples.items()}
    report["errors"] = {k: {"count": v, "example": examples[k]} for k, v in errors.items()}
    correct = all(r.incorrect == 0 and r.verified for r in runs)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
