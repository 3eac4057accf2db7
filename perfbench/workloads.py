"""The four benchmark workloads: transport, algebra, probe and cli.

Every workload runs in cycles. A cycle is a fixed mix of ops, and the inputs
of cycle i come from the generator seeded with (seed, i), so a given seed
always yields the same inputs. The package receives only those inputs.

Each op calls the package through `api`, an object holding the public
functions of each layer (wrapped in spans during a traced run), and checks
the result against an invariant or a verdict known by construction. A check
that does not hold raises CheckFailed.

A cycle is long enough that, at the commit that defined the benchmark, one
cycle outlasts a 12-second run even in the fastest state of the shared 2-core
host it was tuned on (whose speed drifts by about 1.65x over minutes). A run
is then exactly one cycle: every run does the same work in the same order,
and host drift cannot change how many cycles fit. Within a cycle the mix is
weighted so that the median and the tail order statistic (the 11th-largest
latency) each fall inside one size class rather than on the edge between two.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import convexotonic as cx
from convexotonic import jsonio

# captured before a traced run patches numpy.linalg, so the benchmark's own
# checks are not counted in the `factor` layer
_svd = np.linalg.svd

TRANSPORT_BOUNDARY_TOL = 1e-6
ROUNDTRIP_TOL = 1e-9
TRANSFER_TOL = 1e-8
PROBE_TRIALS = 200
CLI_TIMEOUT_S = 120


class CheckFailed(Exception):
    """An op returned a result that contradicts its invariant or verdict."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def gaussian(rng, *shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def direction(rng, g: int, n: int) -> cx.MatrixTuple:
    t = gaussian(rng, g, n, n)
    return cx.MatrixTuple(t / np.max(np.abs(t)))


def frobenius(m) -> float:
    return float(np.sqrt(np.sum(np.abs(m) ** 2)))


def rank(rows: np.ndarray, tol: float = 1e-8) -> int:
    s = _svd(rows, compute_uv=False)
    return int(np.count_nonzero(s > tol * s[0])) if s.size and s[0] > 0 else 0


def type_iv() -> cx.MatrixTuple:
    """Identity plus the nilpotent Jordan cell: the g=2, d=2 unital algebra."""
    return cx.MatrixTuple(np.array([np.eye(2), [[0, 1], [0, 0]]], dtype=complex))


def nilpotent_pair() -> cx.MatrixTuple:
    """The 3x3 shift and its square."""
    shift = np.eye(3, k=1, dtype=complex)
    return cx.MatrixTuple(np.array([shift, shift @ shift]))


def child_env() -> dict:
    """Environment for child interpreters: this process's thread pin plus
    the package source on PYTHONPATH."""
    src = str(Path(cx.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _call(cmap, X):
    return cmap(X)


# the public calls the benchmark makes, by `<layer>.<function>`
LAYER_CALLS = {
    "linalg.pencil_eval": cx.pencil_eval,
    "linalg.operator_norm": cx.operator_norm,
    "domains.boundary_scale": cx.boundary_scale,
    "domains.ball_membership": cx.ball_membership,
    "algebras.algebra_closure": cx.algebra_closure,
    "algebras.structure_constants": cx.structure_constants,
    "maps.ConvexotonicMap": cx.ConvexotonicMap,
    "maps.call": _call,
    "maps.transfer_residual": cx.transfer_residual,
    "genericity.necessary_conditions": cx.necessary_conditions,
    "genericity.sv_probe": cx.sv_probe,
    "jsonio.obj_to_tuple": jsonio.obj_to_tuple,
}


class Api:
    """Package calls, plain or wrapped in spans of `tracer`."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        for name, fn in LAYER_CALLS.items():
            attr = name.split(".", 1)[1]
            setattr(self, attr, tracer.wrap(name, fn) if tracer else fn)

    def count(self, key: str, n: int = 1) -> None:
        if self.tracer is not None:
            self.tracer.counts[key] += n


class Op:
    """One op: `label` names its input class, `split` its size class."""

    __slots__ = ("label", "split", "run")

    def __init__(self, label: str, split: str, run):
        self.label, self.split, self.run = label, split, run


def interleave(groups: list[list]) -> list:
    """Spread the items of each group evenly over one sequence.

    Interleaving makes every class of ops see the same mix of fast and slow
    periods of a shared machine, instead of one class absorbing a slow stretch.
    """
    keyed = [((k + 0.5) / len(g), i, x) for i, g in enumerate(groups) for k, x in enumerate(g)]
    return [x for _, _, x in sorted(keyed, key=lambda t: t[:2])]


class Workload:
    name = ""
    why = ""
    # (*spec, ops per cycle) for each class of op; make_op(*spec, rng) builds one
    MIX: tuple = ()
    # seconds one cycle took at median host speed when the benchmark was
    # defined (2 cores, OpenBLAS 0.3.31 at one thread); only sets the traced
    # run's cycle count
    nominal_cycle_s = 1.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def cycle(self, index: int):
        """Yield the ops of cycle `index` in interleaved order.

        Each op's inputs are drawn just before it runs, so only one op's
        inputs are held at a time and they stay out of peak memory.
        """
        rng = np.random.default_rng([self.seed, index])
        for spec in interleave([[entry[:-1]] * entry[-1] for entry in self.MIX]):
            yield self.make_op(*spec, rng)

    def make_op(self, *spec_and_rng) -> Op:
        raise NotImplementedError

    def warmup(self, api: Api) -> None:
        """Run one op of each code path at its smallest size, untimed."""
        raise NotImplementedError


# ---------------------------------------------------------------------------


class Transport(Workload):
    name = "transport"
    why = "properness samples of the plus-sign map at levels 16-256 on two shared tuples"
    nominal_cycle_s = 17.6
    # (tuple, level, ops per cycle); the median falls on n=128, the tail on n=64
    MIX = (("iv", 32, 15), ("ut3", 16, 15), ("iv", 128, 42), ("ut3", 64, 26), ("iv", 256, 4))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        rng = np.random.default_rng([seed, 0xA1])
        upper = cx.algebra_closure(cx.MatrixTuple(np.triu(gaussian(rng, 2, 3, 3))))
        check(upper.extended.g == 6, "upper-triangular 3x3 closure must have g=6")
        self.tuples = {}
        for key, J in (("iv", type_iv()), ("ut3", upper.extended)):
            q = cx.ConvexotonicMap(cx.structure_constants(J).xi, cx.MapSign.PLUS)
            self.tuples[key] = (J, cx.Spectrahedron(J), cx.Spectraball(J), q, q.inverse())

    def make_op(self, key: str, n: int, rng) -> Op:
        J, spec, ball, q, p = self.tuples[key]
        X = direction(rng, J.g, n)

        def run(api):
            s = api.boundary_scale(spec, X)
            check(math.isfinite(s) and s > 0, f"ray has no finite boundary point ({s})")
            image = api.call(q, cx.MatrixTuple(s * X.data))
            defect = abs(1.0 - api.operator_norm(api.pencil_eval(J, image)))
            check(defect < TRANSPORT_BOUNDARY_TOL, f"boundary image off the ball boundary ({defect:.3e})")
            inside = cx.MatrixTuple(0.9 * s * X.data)
            image = api.call(q, inside)
            verdict = api.ball_membership(ball, image)
            check(verdict.location is cx.Location.INTERIOR, f"interior image is {verdict.location.value}")
            back = api.call(p, image)
            rt = max(frobenius(back[j] - inside[j]) for j in range(J.g))
            check(rt < ROUNDTRIP_TOL, f"round trip residual {rt:.3e}")

        return Op(f"{key}-n{n}", f"n{n}", run)

    def warmup(self, api):
        rng = np.random.default_rng([self.seed, 0xB1])
        for key, n in (("iv", 32), ("ut3", 16)):
            self.make_op(key, n, rng).run(api)


# ---------------------------------------------------------------------------


class Algebra(Workload):
    name = "algebra"
    why = "fresh tuples closed, constant-extracted, mapped at level 2 and screened; no sharing"
    nominal_cycle_s = 18.9
    # (kind, d, ops per cycle). The closure defect makes full pairs fail
    # depending on the draw: d=5 sometimes, d=6 more often than not, d=7 in
    # every draw seen. The median falls on ut d=6, the tail on nil d=8.
    MIX = (
        ("ut", 3, 4), ("ut", 4, 4), ("ut", 5, 3), ("ut", 6, 5),
        ("full", 5, 1), ("full", 6, 1), ("full", 7, 1),
        ("nil", 6, 3), ("nil", 8, 14),
    )

    @staticmethod
    def generators(kind: str, d: int, rng) -> cx.MatrixTuple:
        if kind == "ut":
            return cx.MatrixTuple(np.triu(gaussian(rng, 2, d, d)))
        if kind == "full":
            return cx.MatrixTuple(gaussian(rng, 2, d, d))
        return cx.MatrixTuple(np.triu(gaussian(rng, 3, d, d), 1))

    def make_op(self, kind: str, d: int, rng) -> Op:
        A = self.generators(kind, d, rng)
        X = gaussian(rng, d * d, 2, 2)  # a level-2 point, cut to the closure's g

        def run(api):
            closure = api.algebra_closure(A)
            api.count("algebras.algebra_closure.appended", closure.appended_count)
            api.count("algebras.algebra_closure.orthonormalized", sum(closure.orthonormalized))
            J = closure.extended
            scale = J.max_abs()
            check(np.array_equal(J.data[: A.g], A.data), "closure changed the generators")
            check(rank(J.flatten()) == J.g, "closure is not linearly independent")
            if kind == "ut":  # two generic generators give every upper-triangular matrix
                check(J.g == d * (d + 1) // 2, f"closure dimension {J.g}")
                off = np.abs(np.tril(J.data, -1)).max()
            elif kind == "full":  # and every matrix when unstructured
                check(J.g == d * d, f"closure dimension {J.g}")
                off = 0.0
            else:  # the generated algebra lies inside the strictly upper triangle
                check(J.g <= d * (d - 1) // 2, f"closure dimension {J.g}")
                off = np.abs(np.tril(J.data)).max()
            check(off <= 1e-10 * scale, f"closure leaves the triangular algebra ({off:.3e})")

            sc = api.structure_constants(J)
            api.ConvexotonicMap(sc.xi, cx.MapSign.PLUS)
            # scale so that ||pencil_J(X)|| <= sum ||J_j|| ||X_j|| = 1/4
            bound = sum(frobenius(J[j]) * frobenius(X[j]) for j in range(J.g))
            point = cx.MatrixTuple(X[: J.g] / (4.0 * bound))
            for sign in (cx.MapSign.PLUS, cx.MapSign.MINUS):
                res = api.transfer_residual(J, point, sign)
                check(res <= TRANSFER_TOL, f"transfer residual {res:.3e} ({sign.value})")

            verdict = api.necessary_conditions(A)
            if kind == "nil":
                want = {"joint-kernel", "joint-cokernel", "nilpotent"}
                check(want <= set(verdict.reasons), f"nilpotent tuple not rejected: {verdict.reasons}")
            else:
                check(verdict.passed, f"generic tuple rejected: {verdict.reasons}")

        return Op(f"{kind}-d{d}", f"d{d}", run)

    def warmup(self, api):
        rng = np.random.default_rng([self.seed, 0xB2])
        for kind, d in (("ut", 3), ("nil", 6)):
            self.make_op(kind, d, rng).run(api)


# ---------------------------------------------------------------------------


class Probe(Workload):
    name = "probe"
    why = "sv_probe on tuples with known verdicts: level-1 pencils and the subset search"
    nominal_cycle_s = 18.1
    # (kind, d, ops per cycle). The median and the tail both fall on scalar
    # d=3, the subset search that takes most of the time; millisecond ops
    # make a median that moves with host load far more than the search does.
    MIX = (
        ("generic", 2, 1), ("generic", 3, 1), ("generic", 4, 1), ("generic", 5, 1),
        ("scalar", 3, 26), ("scalar", 4, 1),
        ("nilpotent-pair", 3, 2), ("ball-embedding", 4, 2),
    )
    STATUS = {"generic": "certified", "scalar": "inconclusive"}

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.embedding = cx.ball_to_spectrahedron(cx.Spectraball(type_iv())).coeffs

    def tuple_for(self, kind: str, d: int, rng) -> cx.MatrixTuple:
        if kind == "generic":
            return cx.MatrixTuple(gaussian(rng, 2, d, d))
        if kind == "scalar":
            M = gaussian(rng, d, d)
            return cx.MatrixTuple(np.array([M, 2 * M]))
        return nilpotent_pair() if kind == "nilpotent-pair" else self.embedding

    def make_op(self, kind: str, d: int, rng) -> Op:
        A = self.tuple_for(kind, d, rng)
        probe_seed = int(rng.integers(1 << 30))
        status = self.STATUS.get(kind, "rejected")

        def run(api):
            result = api.sv_probe(A, trials=PROBE_TRIALS, seed=probe_seed)
            api.count("genericity.sv_probe.trials", result.trials_used)
            check(result.status == status, f"status {result.status}, expected {status}")
            if status == "certified":
                cert = result.certificate
                check(len(cert.alphas) == d + 1 and len(cert.betas) == d, "certificate size")
                vectors = np.array([kp.kernel_vector for kp in cert.alphas])
                margin = min(
                    _svd(np.delete(vectors, i, axis=0), compute_uv=False)[-1]
                    for i in range(d + 1)
                )
                check(margin > 1e-8, f"alphas are not a hyperbasis (margin {margin:.3e})")
            elif status == "inconclusive":
                check(result.trials_used == PROBE_TRIALS, "inconclusive before the trial budget")
            else:
                check("nilpotent" in result.conditions.reasons, f"reasons {result.conditions.reasons}")

        label = f"{kind}-d{d}" if kind in self.STATUS else kind
        return Op(label, status, run)

    def warmup(self, api):
        rng = np.random.default_rng([self.seed, 0xB3])
        for kind, d in (("generic", 2), ("nilpotent-pair", 3)):
            self.make_op(kind, d, rng).run(api)


# ---------------------------------------------------------------------------


class Cli(Workload):
    name = "cli"
    why = "python -m convexotonic per request: package import and JSON emit/parse dominate"
    nominal_cycle_s = 18.5
    # the median falls on member, the tail on eval and examples
    MIX = (("sv-probe", 9), ("member", 10), ("xi", 9), ("eval", 9), ("examples", 9))
    LEVEL = 128

    CHILD_SHIM = Path(__file__).resolve().parent / "cli_child.py"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.env = child_env()
        workdir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng([seed, 0xA4])
        J = type_iv()
        X = direction(rng, 2, self.LEVEL)
        point = cx.MatrixTuple(0.5 * cx.boundary_scale(cx.Spectrahedron(J), X) * X.data)
        files = {
            "J": J,
            "xi": cx.structure_constants(J).xi,
            "point": point,
            "upper5": cx.MatrixTuple(np.triu(gaussian(rng, 2, 5, 5))),
        }
        for key, t in files.items():
            (workdir / f"{key}.json").write_text(jsonio.dumps(jsonio.tuple_to_obj(t)))
        # the package sees exactly what the child parses
        loaded = {
            key: jsonio.obj_to_tuple(json.loads((workdir / f"{key}.json").read_text()))
            for key in files
        }
        probe_seed = int(rng.integers(1 << 30))
        example_seed = int(rng.integers(1 << 30))
        path = {key: str(workdir / f"{key}.json") for key in files}
        self.requests = {
            "eval": ["eval", "--xi", path["xi"], "--sign", "plus", "--point", path["point"]],
            "member": ["member", "--kind", "spec", "--tuple", path["J"], "--point", path["point"]],
            "xi": ["xi", "--tuple", path["upper5"], "--closure"],
            "sv-probe": ["sv-probe", "--tuple", path["J"], "--seed", str(probe_seed)],
            "examples": ["examples", "--seed", str(example_seed)],
        }
        inputs = {"eval": ("xi", "point"), "member": ("J", "point"), "xi": ("upper5",),
                  "sv-probe": ("J",), "examples": ()}
        self.bytes_in = {
            k: sum((workdir / f"{f}.json").stat().st_size for f in v) for k, v in inputs.items()
        }
        closure = cx.algebra_closure(loaded["upper5"])
        self.expected = {
            "eval": cx.ConvexotonicMap(loaded["xi"], cx.MapSign.PLUS)(loaded["point"]),
            "member": cx.spec_membership(cx.Spectrahedron(loaded["J"]), loaded["point"]),
            "xi": (closure, cx.structure_constants(closure.extended)),
            "sv-probe": cx.sv_probe(loaded["J"], seed=probe_seed),
            "examples": cx.example_catalog(seed=example_seed).to_dict(),
        }
        check(self.expected["sv-probe"].status == "certified", "type IV must be certified")

    def _spawn(self, api, request: str):
        argv = self.requests[request]
        tracer = api.tracer
        if tracer is None:
            cmd = [sys.executable, "-m", "convexotonic", *argv]
        else:
            trace_file = self.workdir / "child-trace.json"
            trace_file.unlink(missing_ok=True)
            cmd = [sys.executable, str(self.CHILD_SHIM), str(trace_file), *argv]
        proc = subprocess.run(
            cmd, capture_output=True, env=self.env, timeout=CLI_TIMEOUT_S, check=False
        )
        if tracer is not None:
            child = json.loads(trace_file.read_text())
            tracer.merge(child["spans"], child["counts"], tracer.current)
            api.count("jsonio.bytes_in", self.bytes_in[request])
            api.count("jsonio.bytes_out", len(proc.stdout))
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        check(proc.returncode == 0, f"{request}: exit {proc.returncode} {tail}")
        return json.loads(proc.stdout)

    def make_op(self, request: str, rng=None) -> Op:
        expected = self.expected[request]

        def run(api):
            out = self._spawn(api, request)
            if request == "eval":
                image = api.obj_to_tuple(out["image"])
                gap = float(np.max(np.abs(image.data - expected.data)))
                check(gap <= 1e-12 * max(1.0, expected.max_abs()), f"eval image differs ({gap:.3e})")
            elif request == "member":
                check(out["location"] == expected.location.value, f"location {out['location']}")
                check(abs(out["margin"] - expected.margin) <= 1e-12, "membership margin differs")
            elif request == "xi":
                closure, sc = expected
                check(out["closure"]["appended_count"] == closure.appended_count, "closure size")
                xi = api.obj_to_tuple(out["xi"])
                gap = float(np.max(np.abs(xi.data - sc.xi.data)))
                check(gap <= 1e-10 * max(1.0, sc.xi.max_abs()), f"xi differs ({gap:.3e})")
            elif request == "sv-probe":
                cert = expected.certificate
                check(out["result"] == "certified", f"sv-probe result {out['result']}")
                got = out["certificate"]
                check(got["trials_used"] == cert.trials_used, "certificate trial count")
                check(abs(got["hyperbasis_margin"] - cert.hyperbasis_margin) <= 1e-12, "margin")
            else:
                check(out["passed"] and expected["passed"], "example catalog failed")
                got = [(c["name"], c["passed"], c["samples"]) for c in out["checks"]]
                want = [(c["name"], c["passed"], c["samples"]) for c in expected["checks"]]
                check(got == want, "example catalog checks differ")
                worst = max(
                    abs(a["residual"] - b["residual"])
                    for a, b in zip(out["checks"], expected["checks"])
                )
                check(worst <= 1e-9, f"example residuals differ ({worst:.3e})")

        return Op(request, request, run)

    def warmup(self, api):
        self.make_op("member").run(api)


WORKLOADS = {w.name: w for w in (Transport, Algebra, Probe, Cli)}
