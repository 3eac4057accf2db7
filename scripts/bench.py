#!/usr/bin/env python3
"""Kernel-layer timings at fixed seeds and sizes, written to a BENCH_*.json file.

    python scripts/bench.py --out FILE [--src DIR] [--label NAME] [--skip REGEX]

cases() is the list of cases. Each times one public call of a layer of
ROADMAP item 1, one verification harness, or one CLI request end to end
(`python -m convexotonic` in a child process, import and JSON I/O
included, on input files written once to a temporary directory), on inputs
drawn there once at fixed seeds. The sizes are those a perfbench workload or a CLI default uses,
so a case shows where an end-to-end op spends its time, plus larger ones
where a layer's cost grows fastest (nilpotency at d=32, the constants of
g=64, g=100 and g=144 closures). The inputs are chosen to reach each layer's
distinct paths: block-triangular and lower-triangular pencils, closures
whose maps go through the d n x d n pencil, the exact convexotonic residual
where no associativity bound exists, and sv-probes that certify, run out of
trials, or never see a simple top singular value.

Certificates are stored per tuple object, so the certifying cases (structure
constants, residual, transfer, pipeline) get a fresh copy of their tuple on
every call: they time the computation, not a stored result. A map-call case
calls one map; a closure's map reads its image off the pencil of J with
coordinates fixed when its constants were solved.

Each case reports the median and the minimum of REPEAT calls made after one
untimed warm-up call, or of fewer (at least MIN_REPEAT) once a case has run
for BUDGET_S seconds. The map-call, boundary-scale and operator-norm cases
at levels 128 and 256 and the structure-constant cases (the names TRACED
matches) also report the peak of the memory one more call allocates
through Python and numpy, traced by tracemalloc after the timed calls
(LAPACK's work arrays are not traced);
cases whose names match --skip are left out (the
exponential nilpotency test of older commits cannot finish d=16, and their
word-span chain takes seconds a call at d=32). The package
is imported from --src (default: the src directory of this checkout), so one
script can time two checkouts; each invocation writes the cases it timed into
the run named --label in --out (replacing only those cases) and keeps
everything else, so a parent commit and a change sit side by side in one
file, and the two can alternate case by case: time one case (--skip all the
others) for each checkout in turn. BLAS runs on one thread
(CONVEXOTONIC_NUM_THREADS=1) unless that variable is set.

This is a measurement, not a test: nothing asserts on a timing. The tier-1
suite only builds the cases and calls each map-call case, the stacked map
call with a singular item, the two necessary-condition cases,
sv_probe.generic.d3 and sv_probe.mix once, so a
change that breaks the script fails there; it spawns no CLI case.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPEAT = 15
MIN_REPEAT = 3
BUDGET_S = 30.0
TRACED = re.compile(
    r"^((map_call|boundary_scale|operator_norm)\..*\.n(128|256)|structure_constants\..*)$"
)


def gaussian(rng, *shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / 2**0.5


def pair(cx, np, kind, d):
    data = gaussian(np.random.default_rng([d, 2]), 2, d, d)
    return cx.MatrixTuple(np.triu(data) if kind == "ut" else data)


def pipeline(cx, J, X):
    """The algebra workload's sequence on one tuple: constants, the map, and
    the transfer identity with both signs."""
    cx.ConvexotonicMap(cx.structure_constants(J).xi, cx.MapSign.PLUS)
    for sign in (cx.MapSign.PLUS, cx.MapSign.MINUS):
        cx.transfer_residual(J, X, sign)


def map_call(cx, np, J, n):
    """A call of the plus-sign map of J's constants at a level-n point where
    ||pencil_J(X)|| = 1/2; closures have g > d, so it inverts the d n x d n
    pencil of J."""
    cmap = cx.ConvexotonicMap(cx.structure_constants(J).xi, cx.MapSign.PLUS)
    x = cx.MatrixTuple(gaussian(np.random.default_rng([J.rows, n, 7]), J.g, n, n))
    X = cx.MatrixTuple(0.5 * x.data / np.linalg.norm(cx.pencil_eval(J, x), 2))
    return lambda: cmap(X)


def theorem(cx, data):
    """verify_theorem at 20 samples on fresh copies of the tuples of data."""
    e, b = cx.MatrixTuple(data.ball_tuple.data), cx.MatrixTuple(data.target_tuple.data)
    return cx.verify_theorem(cx.TheoremData(e, b, data.twist, data.change_of_basis), samples=20)


def cli_cases(cx, np):
    """The perfbench cli workload's requests at fixed seeds: eval and member at
    level 128 on type IV, xi --closure of an upper-triangular 5x5 pair, the
    sv-probe of type IV and the examples catalog. The input directory lives as
    long as one of the cases does."""
    from convexotonic import jsonio

    tmp = tempfile.TemporaryDirectory(prefix="convexotonic-bench-")
    root = Path(tmp.name)
    rng = np.random.default_rng([128, 33])
    J = cx.type_iv_tuple()
    x = cx.MatrixTuple(gaussian(rng, 2, 128, 128))
    point = cx.MatrixTuple(0.5 * cx.boundary_scale(cx.Spectrahedron(J), x) * x.data)
    upper5 = cx.MatrixTuple(np.triu(gaussian(rng, 2, 5, 5)))
    files = {"J": J, "xi": cx.structure_constants(J).xi, "point": point, "upper5": upper5}
    for key, t in files.items():
        (root / f"{key}.json").write_text(jsonio.dumps(jsonio.tuple_to_obj(t)))
    path = {key: str(root / f"{key}.json") for key in files}
    requests = {
        "eval.n128": ["eval", "--xi", path["xi"], "--sign", "plus", "--point", path["point"]],
        "member.spec.n128": ["member", "--kind", "spec", "--tuple", path["J"],
                             "--point", path["point"]],
        "xi.closure.ut5": ["xi", "--tuple", path["upper5"], "--closure"],
        "sv_probe.type_iv": ["sv-probe", "--tuple", path["J"], "--seed", "42"],
        "examples.seed42": ["examples", "--seed", "42"],
    }
    env = {**os.environ, "PYTHONPATH": str(Path(cx.__file__).resolve().parents[1])}

    def spawn(argv, inputs=tmp):
        cmd = [sys.executable, "-m", "convexotonic", *argv]
        subprocess.run(cmd, env=env, capture_output=True, check=True)

    return {f"cli.{name}": partial(spawn, argv) for name, argv in requests.items()}


def cases(cx, np):
    """Map case name -> zero-argument callable; inputs are drawn here, once."""
    from conftest import planted_theorem  # tier-1's builder; it runs on the package cx
    from convexotonic import jsonio
    from convexotonic.sampling import complex_gaussian, random_unitary

    out = {}
    for g, d, n in ((2, 2, 256), (6, 3, 64), (4, 16, 32)):
        rng = np.random.default_rng([g, d, n])
        coeffs = cx.MatrixTuple(gaussian(rng, g, d, d))
        point = cx.MatrixTuple(gaussian(rng, g, n, n))
        out[f"pencil_eval.g{g}.d{d}.n{n}"] = lambda c=coeffs, p=point: cx.pencil_eval(c, p)

    # type IV has xi = (I, E12), whose pencil is block upper triangular; with
    # its elements swapped, xi = (E21, I) is lower triangular
    swapped = cx.MatrixTuple(cx.type_iv_tuple().data[::-1])
    for name, J, levels in (("type_iv", cx.type_iv_tuple(), (2, 16, 20, 32, 128, 256)),
                            ("type_iv_swapped", swapped, (128,))):
        xi = cx.structure_constants(J).xi
        q = cx.ConvexotonicMap(xi, cx.MapSign.PLUS)
        for n in levels:
            rng = np.random.default_rng(n)
            x = gaussian(rng, 2, n, n)
            # ||pencil_xi(X)|| = 1/2 keeps the point well inside the map's domain
            norm = np.linalg.norm(cx.pencil_eval(xi, cx.MatrixTuple(x)), 2)
            X = cx.MatrixTuple(0.5 * x / norm)
            out[f"map_call.{name}.n{n}"] = lambda q=q, X=X: q(X)
    # a stack of 75 level-3 points with (-I, 0), a pole of type IV's plus-sign
    # map, in the middle: LAPACK refuses the stack, so each item is inverted alone
    q = cx.ConvexotonicMap(cx.structure_constants(cx.type_iv_tuple()).xi, cx.MapSign.PLUS)
    x = gaussian(np.random.default_rng([3, 75]), 75, 2, 3, 3)
    x *= 0.5 / cx.operator_norm(cx.pencil_eval(q.xi, x))[:, None, None, None]
    x[37] = [-np.eye(3), np.zeros((3, 3))]
    out["map_stack.type_iv.singular_item.n3.s75"] = lambda q=q, x=x: q(x)
    # the transport workload's other level-n kernels, at its ray directions
    E = cx.type_iv_tuple()
    for n in (128, 256):
        x = gaussian(np.random.default_rng([n, 8]), 2, n, n)
        X = cx.MatrixTuple(x / np.abs(x).max())
        for domain in (cx.Spectrahedron, cx.Spectraball):
            name = f"boundary_scale.{domain.__name__.lower()}.type_iv.n{n}"
            out[name] = lambda D=domain(E), X=X: cx.boundary_scale(D, X)
        out[f"operator_norm.type_iv.n{n}"] = lambda E=E, X=X: cx.operator_norm(cx.pencil_eval(E, X))
    closures = (("ut", 3, 2), ("ut", 3, 64), ("ut", 3, 128), ("ut", 6, 16), ("full", 7, 4),
                ("full", 7, 16))
    for kind, d, n in closures:
        J = cx.algebra_closure(pair(cx, np, kind, d)).extended
        out[f"map_call.{kind}{d}.g{J.g}.n{n}"] = map_call(cx, np, J, n)

    rng = np.random.default_rng(3)
    J = cx.algebra_closure(cx.MatrixTuple(np.triu(gaussian(rng, 2, 3, 3)))).extended
    x = gaussian(rng, J.g, 2, 2)
    # ||pencil_J(X)|| <= sum ||J_j|| ||X_j|| = 1/4
    bound = sum(np.linalg.norm(J[j]) * np.linalg.norm(x[j]) for j in range(J.g))
    X = cx.MatrixTuple(x / (4 * bound))
    out[f"transfer_residual.ut3.g{J.g}.n2"] = lambda J=J, X=X: cx.transfer_residual(
        cx.MatrixTuple(J.data), X, cx.MapSign.PLUS
    )

    spec = cx.Spectrahedron(cx.type_iv_tuple())
    x = cx.MatrixTuple(gaussian(np.random.default_rng([128, 6]), 2, 128, 128))
    # half way to the boundary, as in the cli workload's member request
    X = cx.MatrixTuple(0.5 * cx.boundary_scale(spec, x) * x.data)
    out["spec_membership.type_iv.n128"] = lambda X=X: cx.spec_membership(spec, X)

    rng = np.random.default_rng(128)
    t = cx.MatrixTuple(gaussian(rng, 2, 128, 128))
    doc = json.loads(jsonio.dumps(jsonio.tuple_to_obj(t)))
    out["json.emit.g2.n128"] = lambda: jsonio.tuple_to_obj(t)
    out["json.parse.g2.n128"] = lambda: jsonio.obj_to_tuple(doc)

    for kind, d in (("full", 6), ("full", 7), ("full", 8), ("ut", 6)):
        A = pair(cx, np, kind, d)
        out[f"algebra_closure.{kind}.d{d}"] = lambda A=A: cx.algebra_closure(A)
    # the algebra workload's most frequent closure: a strictly upper-triangular triple
    A = cx.MatrixTuple(np.triu(gaussian(np.random.default_rng([8, 3]), 3, 8, 8), 1))
    out["algebra_closure.nil.g3.d8"] = lambda A=A: cx.algebra_closure(A)
    B = cx.algebra_closure(A).extended
    # its map reads d^2 = 64 blocks of the pencil for g = 24 coordinates
    out[f"map_call.nil8.g{B.g}.n32"] = map_call(cx, np, B, 32)
    out["structure_constants.nil.g3.d8"] = lambda B=B: cx.structure_constants(
        cx.MatrixTuple(B.data)
    )

    for kind, d in (("ut", 6), ("full", 7)):
        B = cx.algebra_closure(pair(cx, np, kind, d)).extended
        name = f"{kind}.d{d}.g{B.g}"
        out[f"is_linearly_independent.{name}"] = lambda B=B: cx.is_linearly_independent(B)
        out[f"structure_constants.{name}"] = lambda B=B: cx.structure_constants(
            cx.MatrixTuple(B.data)
        )
        y = gaussian(np.random.default_rng([d, 5]), B.g, 2, 2)
        bound = sum(np.linalg.norm(B[j]) * np.linalg.norm(y[j]) for j in range(B.g))
        Y = cx.MatrixTuple(y / (4 * bound))
        out[f"pipeline.{name}"] = lambda B=B, Y=Y: pipeline(cx, cx.MatrixTuple(B.data), Y)
        A = pair(cx, np, kind, d)
        out[f"closure_constants.{name}"] = lambda A=A: cx.structure_constants(
            cx.algebra_closure(A).extended
        )

    for d in (8, 10, 12):
        B = cx.algebra_closure(pair(cx, np, "full", d)).extended
        out[f"structure_constants.full.d{d}.g{B.g}"] = lambda B=B: cx.structure_constants(
            cx.MatrixTuple(B.data)
        )

    for d in (8, 10, 12, 16, 32):  # d=8 is the triple of algebra_closure.nil.g3.d8
        B = cx.MatrixTuple(np.triu(gaussian(np.random.default_rng([d, 3]), 3, d, d), 1))
        out[f"is_nilpotent.strict.g3.d{d}"] = lambda B=B: cx.is_nilpotent(B)
    G = cx.MatrixTuple(gaussian(np.random.default_rng([8, 2]), 2, 8, 8))
    out["is_nilpotent.generic.g2.d8"] = lambda: cx.is_nilpotent(G)
    # a generic pair has no joint kernel, so the flag is not run; the strict
    # triple of is_nilpotent.strict.g3.d8 runs all three conditions
    G3 = cx.MatrixTuple(gaussian(np.random.default_rng([3, 2]), 2, 3, 3))
    out["necessary_conditions.generic.d3"] = lambda: cx.necessary_conditions(G3)
    strict = cx.MatrixTuple(np.triu(gaussian(np.random.default_rng([8, 3]), 3, 8, 8), 1))
    out["necessary_conditions.strict.g3.d8"] = lambda: cx.necessary_conditions(strict)

    # sv_probe at 200 trials: scalar multiples and direct sums pass every
    # necessary condition but have no certificate; the d=4 multiples also run
    # at the CLI default of 10,000 trials
    for d in (3, 4):
        M = gaussian(np.random.default_rng([d, 4]), d, d)
        A = cx.MatrixTuple(np.array([M, 2 * M]))
        out[f"sv_probe.scalar.d{d}"] = lambda A=A: cx.sv_probe(A, trials=200, seed=42)
    out["sv_probe.scalar.d4.t10000"] = lambda A=A: cx.sv_probe(A, trials=10_000, seed=42)
    for m in (1, 2):
        rng = np.random.default_rng([m, 2, 4])
        A = cx.MatrixTuple(gaussian(rng, 2, m, m)).direct_sum(cx.MatrixTuple(gaussian(rng, 2, 2, 2)))
        out[f"sv_probe.direct_sum.{m}+2"] = lambda A=A: cx.sv_probe(A, trials=200, seed=42)
    for d in (3, 5):
        G = cx.MatrixTuple(gaussian(np.random.default_rng([d, 4]), 2, d, d))
        out[f"sv_probe.generic.d{d}"] = lambda G=G: cx.sv_probe(G, trials=200, seed=42)
    # one cycle of the probe workload's mix: Gaussian pairs that certify, 26
    # scalar multiples at d=3 and one at d=4 that end inconclusive, and two
    # each of the nilpotent pair and the type IV ball embedding, rejected
    rng = np.random.default_rng(28)
    mix = [cx.MatrixTuple(gaussian(rng, 2, d, d)) for d in (2, 3, 4, 5)]
    for d, count in ((3, 26), (4, 1)):
        mix += [cx.MatrixTuple(np.array([M, 2 * M])) for M in gaussian(rng, count, d, d)]
    shift = np.eye(3, k=1, dtype=complex)
    mix += 2 * [cx.MatrixTuple(np.array([shift, shift @ shift]))]
    mix += 2 * [cx.ball_to_spectrahedron(cx.Spectraball(cx.type_iv_tuple())).coeffs]
    seeds = [int(s) for s in rng.integers(1 << 30, size=len(mix))]
    out["sv_probe.mix"] = lambda: [
        cx.sv_probe(A, trials=200, seed=s) for A, s in zip(mix, seeds)
    ]
    # the top singular value of eye(2) and of (U, 2U) is never simple, so every
    # draw is rejected; (I, 1e-7 G) rejects a positive share of its draws
    U = random_unitary(np.random.default_rng(1), 3)
    for name, A in (
        ("eye2", cx.MatrixTuple.from_matrices([np.eye(2)])),
        ("u2u.d3", cx.MatrixTuple.from_matrices([U, 2 * U])),
    ):
        out[f"sv_probe.never_simple.{name}"] = lambda A=A: cx.sv_probe(A, trials=200, seed=42)
    noise = 1e-7 * complex_gaussian(np.random.default_rng(5), 3, 3)
    A = cx.MatrixTuple.from_matrices([np.eye(3), noise])
    out["sv_probe.near_degenerate.d3"] = lambda A=A: cx.sv_probe(A, trials=2000, seed=42)
    eye2 = cx.MatrixTuple.from_matrices([np.eye(2)])
    out["sv_probe.never_simple.eye2.t10000"] = lambda: cx.sv_probe(eye2, trials=10_000, seed=42)
    E = cx.type_iv_tuple()
    out["sv_probe.type_iv"] = lambda E=E: cx.sv_probe(E, seed=42)
    for d in (3, 8):
        vectors = complex_gaussian(np.random.default_rng([d, 9]), d + 1, d)
        out[f"hyperbasis_margin.d{d}"] = lambda v=vectors: cx.hyperbasis_margin(v)

    # an orthonormal basis of M_7 spans an algebra whatever the closure code does;
    # a copy of its constants has no associativity bound, so this times the exact path
    basis = np.linalg.qr(gaussian(np.random.default_rng(49), 49, 49))[0]
    xi = cx.structure_constants(cx.MatrixTuple(basis.T.reshape(49, 7, 7))).xi
    out["convexotonic_residual.m7.g49"] = lambda: cx.convexotonic_residual(
        cx.MatrixTuple(xi.data)
    )

    out["verify.example_catalog.seed42"] = lambda: cx.example_catalog(seed=42)
    E = cx.type_iv_tuple()
    out["verify.properness.type_iv.s25"] = lambda: cx.verify_properness(E, samples=25)
    shift = cx.MatrixTuple.from_matrices([cx.type_i_tuple()[0]])
    out["verify.corollary.shift3.s25"] = lambda: cx.verify_corollary(shift, samples=25)
    for kind, d in (("ut", 6), ("full", 6), ("full", 8)):
        data = planted_theorem(kind, d, seed=d)
        out[f"theorem.planted.{kind}.d{d}"] = lambda data=data: theorem(cx, data)
    out.update(cli_cases(cx, np))
    return out


def git(src: Path, *args) -> str:
    try:
        done = subprocess.run(["git", "-C", str(src), *args], capture_output=True, text=True)
    except OSError:
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def machine(np) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy before 1.25 prints instead of returning
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "blas": blas,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "CONVEXOTONIC_NUM_THREADS": os.environ.get("CONVEXOTONIC_NUM_THREADS"),
        # unset, a fresh interpreter reads cached bytecode instead of compiling
        # the package, which moves its import time
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--src", type=Path, default=ROOT / "src", help="package source to time")
    parser.add_argument("--label", default="working-tree", help="name of this run in --out")
    parser.add_argument("--out", type=Path, required=True, help="BENCH_*.json file to update")
    parser.add_argument("--skip", help="leave out the cases whose names match this regex")
    args = parser.parse_args()

    os.environ.setdefault("CONVEXOTONIC_NUM_THREADS", "1")
    src = args.src.resolve()
    sys.path.insert(0, str(src))
    # the package first: it maps the thread cap onto BLAS before numpy loads
    import convexotonic as cx
    import numpy as np

    sys.path.append(str(ROOT / "tests"))  # conftest imports the package already loaded

    results = {}
    for name, call in cases(cx, np).items():
        if args.skip and re.search(args.skip, name):
            continue
        call()
        times = []
        while len(times) < REPEAT and (len(times) < MIN_REPEAT or sum(times) < BUDGET_S):
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        results[name] = {
            "median_s": statistics.median(times), "min_s": min(times), "repeat": len(times)
        }
        peak = ""
        if TRACED.match(name):
            tracemalloc.start()
            try:
                call()
                results[name]["traced_peak_mib"] = tracemalloc.get_traced_memory()[1] / 2**20
            finally:
                tracemalloc.stop()
            peak = f"  peak {results[name]['traced_peak_mib']:6.2f} MiB"
        print(f"{name:<40} median {results[name]['median_s'] * 1e3:9.3f} ms"
              f"  min {results[name]['min_s'] * 1e3:9.3f} ms{peak}", file=sys.stderr)

    doc = json.loads(args.out.read_text()) if args.out.exists() else {"runs": {}}
    run = doc["runs"].setdefault(args.label, {"cases": {}})
    run.update(
        git_sha=git(src, "rev-parse", "HEAD") or "unknown",
        git_dirty=bool(git(src, "status", "--porcelain", "--untracked-files=no", ".")),
        repeat=REPEAT,
        machine=machine(np),
    )
    run["cases"].update(results)
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
