import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from convexotonic import MatrixTuple, type_i_tuple, type_iv_tuple
from convexotonic.cli import run
from convexotonic import jsonio, linalg
from convexotonic.jsonio import (
    JsonFormatError, matrix_to_obj, obj_to_matrix, obj_to_tuple, tuple_to_obj
)
from convexotonic.sampling import random_tuple


def write_tuple(path, t):
    path.write_text(json.dumps(tuple_to_obj(t)))
    return str(path)


def write_matrix(path, m):
    path.write_text(json.dumps(matrix_to_obj(np.asarray(m, dtype=complex))))
    return str(path)


def scalar_point(*values):
    return MatrixTuple.scalar(list(values))


@pytest.fixture(autouse=True)
def emitted_bytes_are_those_of_the_checked_encoder(monkeypatch):
    # dumps skips json's circularity check; every payload these tests emit in
    # process has the bytes the check-on call gives
    dumps = jsonio.dumps

    def compared(payload):
        text = dumps(payload)
        assert text == json.dumps(payload, sort_keys=True, separators=(",", ": "), allow_nan=False)
        return text

    monkeypatch.setattr(jsonio, "dumps", compared)


@pytest.fixture
def files(tmp_path):
    return {
        "f": write_tuple(tmp_path / "f.json", type_i_tuple()),
        "e": write_tuple(tmp_path / "e.json", type_iv_tuple()),
        "p11": write_tuple(tmp_path / "p11.json", scalar_point(1, 1)),
        "m11": write_tuple(tmp_path / "m11.json", scalar_point(-1, -1)),
        "small": write_tuple(tmp_path / "small.json", scalar_point(0.2, 0.3)),
        "eye": write_matrix(tmp_path / "eye.json", np.eye(2)),
        "g": write_tuple(tmp_path / "g.json", random_tuple(np.random.default_rng(0), 2, 3)),
        "tmp": tmp_path,
    }


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr()
    docs = [line for line in out.out.splitlines() if line.strip()]
    assert len(docs) <= 1
    return code, json.loads(docs[0]) if docs else None, out.err


# --- member ------------------------------------------------------------------

def test_member_boundary(files, capsys):
    code, doc, _ = run_json(
        capsys,
        ["member", "--kind", "spec", "--tuple", files["f"], "--point", files["p11"]],
    )
    assert code == 0
    assert doc["location"] == "boundary"
    assert abs(doc["margin"]) < 1e-10


def test_member_exterior_exit_code(files, capsys):
    code, doc, _ = run_json(
        capsys,
        ["member", "--kind", "spec", "--tuple", files["f"], "--point", files["m11"]],
    )
    assert code == 2
    assert doc["location"] == "exterior"


def test_member_spec_rectangular_point_usage_error(files, capsys, tmp_path):
    rect = write_tuple(tmp_path / "rect.json", MatrixTuple(np.ones((2, 2, 3))))
    code, doc, err = run_json(
        capsys, ["member", "--kind", "spec", "--tuple", files["f"], "--point", rect]
    )
    assert code == 1
    assert doc is None
    assert "NotSquare" in err


def test_member_ball(files, capsys):
    code, doc, _ = run_json(
        capsys,
        ["member", "--kind", "ball", "--tuple", files["e"], "--point", files["small"]],
    )
    assert code == 0
    assert doc["location"] == "interior"


# --- structure constants --------------------------------------------------------

def test_xi_nilpotent_pair(files, capsys):
    code, doc, _ = run_json(capsys, ["xi", "--tuple", files["f"]])
    assert code == 0
    assert doc["residual"] < 1e-14
    assert doc["convexotonic_residual"] < 1e-14
    xi = obj_to_tuple(doc["xi"])
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 1] = 1.0
    assert np.allclose(xi.data, expected)


def test_xi_span_violation_structured_error(files, capsys, tmp_path):
    corner = MatrixTuple.from_matrices(
        [np.array([[0, 1], [0, 0]]), np.array([[0, 0], [1, 0]])]
    )
    path = write_tuple(tmp_path / "corner.json", corner)
    code, doc, _ = run_json(capsys, ["xi", "--tuple", path])
    assert code == 2
    assert doc["error"]["type"] == "SpanViolation"
    assert "residual" in doc["error"]


def test_xi_closure(files, capsys, tmp_path):
    single = MatrixTuple.from_matrices([type_i_tuple()[0]])
    path = write_tuple(tmp_path / "single.json", single)
    code, doc, _ = run_json(capsys, ["xi", "--tuple", path, "--closure"])
    assert code == 0
    assert doc["closure"]["appended_count"] == 1


def test_pencil_xi(files, capsys):
    code, doc, _ = run_json(
        capsys, ["pencil-xi", "--tuple", files["e"], "--middle", files["eye"]]
    )
    assert code == 0
    xi = obj_to_tuple(doc["xi"])
    assert np.allclose(xi.data, type_iv_tuple().data)


# --- map evaluation ----------------------------------------------------------------

def test_eval_and_inverse_check(files, capsys):
    code, doc, _ = run_json(
        capsys,
        ["eval", "--xi", files["e"], "--sign", "plus", "--point", files["small"]],
    )
    assert code == 0
    image = obj_to_tuple(doc["image"])
    t, s = 0.2, 0.3
    assert abs(image[0][0, 0] - t / (1 + t)) < 1e-12
    assert abs(image[1][0, 0] - s / (1 + t) ** 2) < 1e-12

    code, doc, _ = run_json(
        capsys, ["inverse-check", "--xi", files["e"], "--point", files["small"]]
    )
    assert code == 0
    assert doc["round_trip_residual"] < 1e-10


def test_eval_domain_breach(files, capsys, tmp_path):
    bad = write_tuple(tmp_path / "bad.json", scalar_point(-1, 0))
    code, doc, _ = run_json(
        capsys, ["eval", "--xi", files["e"], "--sign", "plus", "--point", bad]
    )
    assert code == 2
    assert doc["error"]["type"] == "DomainBreach"


@pytest.mark.parametrize("v", [1e308, -1e308])
def test_eval_where_the_pencil_norm_overflows_is_one_json_error(tmp_path, v):
    # a subprocess, to see its whole stderr: numpy's overflow warning reached
    # it, and the error read "defining pencil is numerically singular (cond inf)"
    xi = write_tuple(tmp_path / "xi.json", type_iv_tuple())
    point = write_tuple(tmp_path / "p.json", MatrixTuple(np.full((2, 2, 2), v)))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = ["eval", "--xi", xi, "--sign", "plus", "--point", point]
    done = subprocess.run(
        [sys.executable, "-m", "convexotonic", *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == 2 and done.stderr == ""
    assert done.stdout.count("\n") == 1
    error = json.loads(done.stdout)["error"]
    assert error == {"type": "DomainBreach", "message": "the pencil overflows at this point"}


def overflowing_member(kind):
    """Coefficients and a point whose pencil overflows: entries near 1e200,
    (spec-sum) a level-1 pencil lam = 1.5e308 whose Hermitian sum
    lam + lam* does, or finite type IV pencils whose norm (ball-norm) or
    smallest eigenvalue (spec-eigenvalue) does."""
    if kind == "spec-sum":
        return "spec", MatrixTuple(np.diag([1e154, 0.0])[None]), MatrixTuple.scalar([1.5e154])
    if kind == "ball-norm":
        return "ball", type_iv_tuple(), MatrixTuple(np.full((2, 2, 2), 1e308))
    if kind == "spec-eigenvalue":
        at = np.array([-0.8e308 * np.ones((2, 2)), np.zeros((2, 2))])
        return "spec", type_iv_tuple(), MatrixTuple(at)
    rng = np.random.default_rng(0)
    coeffs = MatrixTuple(1e200 * rng.standard_normal((2, 3, 3)))
    return kind, coeffs, MatrixTuple(1e200 * rng.standard_normal((2, 2, 2)))


@pytest.mark.parametrize("case", ["ball", "spec", "spec-sum", "ball-norm", "spec-eigenvalue"])
def test_member_on_an_overflowing_pencil_is_one_json_error(tmp_path, case):
    # a subprocess: LAPACK writes its complaints to the process's stdout, past capsys
    kind, data, at = overflowing_member(case)
    coeffs = write_tuple(tmp_path / "t.json", data)
    point = write_tuple(tmp_path / "p.json", at)
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = ["member", "--kind", kind, "--tuple", coeffs, "--point", point]
    done = subprocess.run(
        [sys.executable, "-m", "convexotonic", *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == 2
    assert done.stdout.count("\n") == 1 and "DLASCL" not in done.stdout
    error = json.loads(done.stdout)["error"]
    assert error == {"type": "DomainBreach", "message": "the pencil overflows at this point"}


def test_eval_rectangular_point_usage_error(files, capsys, tmp_path):
    rect = write_tuple(tmp_path / "rect.json", MatrixTuple(np.zeros((2, 2, 3))))
    code, doc, err = run_json(
        capsys, ["eval", "--xi", files["e"], "--sign", "plus", "--point", rect]
    )
    assert code == 1
    assert doc is None
    assert "NotSquare: maps are evaluated at square matrix tuples" in err


# --- probes and harnesses ------------------------------------------------------------

def test_sv_probe_certified(files, capsys):
    code, doc, _ = run_json(
        capsys, ["sv-probe", "--tuple", files["e"], "--trials", "500", "--seed", "42"]
    )
    assert code == 0
    assert doc["result"] == "certified"
    assert len(doc["certificate"]["alphas"]) == 3


def test_sv_probe_rejected(files, capsys):
    code, doc, _ = run_json(
        capsys, ["sv-probe", "--tuple", files["f"], "--trials", "10", "--seed", "42"]
    )
    assert code == 2
    assert doc["result"] == "rejected"
    assert "nilpotent" in doc["reasons"]


@pytest.mark.parametrize("v", [1e308, 1.7e308, 1e-310])
def test_sv_probe_on_a_tuple_out_of_float_range_is_one_json_error(tmp_path, v):
    # two invertible matrices: at 1e308 their stacked singular values
    # overflow, at 1.7e308 their norms too, and at 1e-310 the probe's points
    # gamma / s0, which no JSON document can hold
    pair = MatrixTuple(np.array([[[v, v], [v, -v]], [[v, 0], [v, v]]]))
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    argv = ["sv-probe", "--tuple", write_tuple(tmp_path / "t.json", pair), "--seed", "42"]
    done = subprocess.run(
        [sys.executable, "-m", "convexotonic", *argv], capture_output=True, text=True, env=env
    )
    assert done.returncode == 2
    assert done.stdout.count("\n") == 1
    assert json.loads(done.stdout)["error"]["type"] == "DomainBreach"


def test_sv_probe_inconclusive_exit_code(capsys, tmp_path):
    identity_only = MatrixTuple.from_matrices([np.eye(2)])
    path = write_tuple(tmp_path / "identity.json", identity_only)
    code, doc, _ = run_json(
        capsys, ["sv-probe", "--tuple", path, "--trials", "10", "--seed", "42"]
    )
    assert code == 3
    assert doc == {"result": "inconclusive", "reason": "never-simple"}


def test_verify_theorem_pass_and_fail(files, capsys, tmp_path):
    code, doc, _ = run_json(
        capsys,
        [
            "verify-theorem",
            "--e", files["e"], "--b", files["e"],
            "--z", files["eye"], "--m", files["eye"],
            "--samples", "5", "--seed", "1",
        ],
    )
    assert code == 0
    assert doc["passed"] is True

    swap = write_matrix(tmp_path / "swap.json", np.array([[0, 1], [1, 0]]))
    code, doc, _ = run_json(
        capsys,
        [
            "verify-theorem",
            "--e", files["e"], "--b", files["e"],
            "--z", swap, "--m", files["eye"],
            "--samples", "5", "--seed", "1",
        ],
    )
    assert code == 2
    assert doc["passed"] is False


def test_verify_theorem_tol_governs_map_acceptance(files, capsys, tmp_path):
    # constants of a perturbed type IV tuple have a convexotonic residual
    # (3.2e-7) inside the bound of tol = 1e-4 but outside that of 1e-8
    e = type_iv_tuple()
    noise = 1e-6 * np.random.default_rng(0).standard_normal(e.data.shape)
    path = write_tuple(tmp_path / "ep.json", MatrixTuple(e.data + noise))
    code, doc, _ = run_json(
        capsys,
        [
            "verify-theorem",
            "--e", path, "--b", path,
            "--z", files["eye"], "--m", files["eye"],
            "--samples", "5", "--tol", "1e-4",
        ],
    )
    assert code in (0, 2)
    assert doc["passed"] is (code == 0)


THEOREM_DEFECTS = {
    # the file given in place of one of (E, B, Z, M), and the stderr line's start
    "b-shorter": ("--b", "e1", "error: TupleLengthMismatch: "),
    "b-3x3": ("--b", "g", "error: ShapeMismatch: "),
    "z-3x3": ("--z", "eye3", "error: ShapeMismatch: "),
    "z-not-unitary": ("--z", "twice", "error: ValueError: twist is not unitary"),
}


@pytest.mark.parametrize(
    "flag, name, start", THEOREM_DEFECTS.values(), ids=THEOREM_DEFECTS.keys()
)
def test_verify_theorem_malformed_data_is_a_usage_error(
    files, capsys, tmp_path, flag, name, start
):
    paths = {
        "e1": write_tuple(tmp_path / "e1.json", MatrixTuple(type_iv_tuple().data[:1])),
        "eye3": write_matrix(tmp_path / "eye3.json", np.eye(3)),
        "twice": write_matrix(tmp_path / "twice.json", 2 * np.eye(2)),
    }
    argv = {"--e": files["e"], "--b": files["e"], "--z": files["eye"], "--m": files["eye"]}
    argv[flag] = paths.get(name) or files[name]
    code = run(["verify-theorem", *[word for pair in argv.items() for word in pair]])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.count("\n") == 1 and out.err.startswith(start)
    assert "Traceback" not in out.err


def test_examples_catalog(files, capsys):
    code, doc, err = run_json(capsys, ["examples", "--seed", "42", "--samples", "10"])
    assert code == 0
    assert doc["passed"] is True
    assert doc["warnings"]
    assert "warning:" in err


def test_examples_refusing_a_sampled_point_is_one_json_error(capsys, monkeypatch):
    # a COND_LIMIT of 1 makes the first oracle check's map refuse every point
    monkeypatch.setattr(linalg, "COND_LIMIT", 1.0)
    code, doc, err = run_json(capsys, ["examples", "--seed", "42", "--samples", "3"])
    assert code == 2 and err == ""
    assert doc == {"error": {
        "type": "DomainBreach",
        "message": "type-i/map-equals-quadratic-shift: the map refuses a sampled point",
    }}


# --- I/O discipline -----------------------------------------------------------------

def test_malformed_json_line_numbered(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"g": 2,\n  "rows": }')
    code, doc, err = run_json(
        capsys,
        ["member", "--kind", "ball", "--tuple", str(bad), "--point", files["small"]],
    )
    assert code == 1
    assert doc is None
    assert f"{bad}:2:" in err


def test_ragged_payload_rejected(files, capsys, tmp_path):
    bad = tmp_path / "ragged.json"
    bad.write_text(
        json.dumps(
            {"g": 1, "rows": 2, "cols": 2, "matrices": [[[[1, 0]], [[0, 0], [1, 0]]]]}
        )
    )
    code, doc, err = run_json(
        capsys,
        ["member", "--kind", "ball", "--tuple", str(bad), "--point", files["small"]],
    )
    assert code == 1
    assert "row" in err


def test_nonfinite_rejected(files, capsys, tmp_path):
    bad = tmp_path / "inf.json"
    bad.write_text(
        json.dumps({"g": 1, "rows": 1, "cols": 1, "matrices": [[[[1e999, 0]]]]})
    )
    code, doc, err = run_json(
        capsys,
        ["member", "--kind", "ball", "--tuple", str(bad), "--point", files["small"]],
    )
    assert code == 1
    assert "non-finite" in err


def test_integer_beyond_float_range_rejected(files, capsys, tmp_path):
    bad = tmp_path / "huge.json"
    bad.write_text(
        '{"g": 1, "rows": 1, "cols": 1, "matrices": [[[[1' + "0" * 400 + ', 0]]]]}'
    )
    code = run(["member", "--kind", "ball", "--tuple", str(bad), "--point", files["small"]])
    out = capsys.readouterr()
    assert code == 1
    assert out.out == ""
    assert out.err.count("\n") == 1
    assert out.err.startswith("error: ")
    assert "matrices[0]" in out.err


def test_missing_file(files, capsys):
    # a directory used to escape as an IsADirectoryError traceback
    for path in ("nope.json", str(files["tmp"])):
        code, doc, err = run_json(
            capsys, ["member", "--kind", "ball", "--tuple", path, "--point", files["small"]]
        )
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["member", "--kind", "nonsense", "--tuple", "a", "--point", "b"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sv-probe", "--tuple", "e", "--trials", "-5"],
        ["sv-probe", "--tuple", "e", "--trials", "0"],
        ["verify-theorem", "--e", "e", "--b", "e", "--z", "eye", "--m", "eye",
         "--samples", "0"],
        ["examples", "--samples", "0"],
        ["examples", "--samples", "-1"],
        ["examples", "--samples", "two"],
    ],
)
def test_counts_below_one_are_usage_errors(files, capsys, argv):
    argv = [files.get(arg, arg) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    out = capsys.readouterr()
    assert exc.value.code == 1
    assert out.out == ""
    assert "usage:" in out.err


@pytest.mark.parametrize(
    "argv",
    [
        ["sv-probe", "--tuple", "f", "--seed", "-1"],
        ["verify-theorem", "--e", "e", "--b", "e", "--z", "eye", "--m", "eye", "--seed", "-1"],
        ["examples", "--seed", "-1"],
        ["examples", "--seed", "one"],
    ],
)
def test_bad_seeds_are_usage_errors(files, capsys, argv):
    # the nilpotent f would be rejected (exit 2) if the seed reached the probe
    argv = [files.get(arg, arg) for arg in argv]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    out = capsys.readouterr()
    assert exc.value.code == 1
    assert out.out == ""
    assert "usage:" in out.err


TOL_COMMANDS = [
    ["member", "--kind", "ball", "--tuple", "e", "--point", "small"],
    ["xi", "--tuple", "e"],
    ["pencil-xi", "--tuple", "e", "--middle", "eye"],
    ["sv-probe", "--tuple", "g", "--trials", "10"],
    ["verify-theorem", "--e", "e", "--b", "e", "--z", "eye", "--m", "eye", "--samples", "1"],
]


@pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
@pytest.mark.parametrize("argv", TOL_COMMANDS, ids=[argv[0] for argv in TOL_COMMANDS])
def test_bad_tolerances_are_usage_errors(files, capsys, argv, tol):
    # parsed as a float, nan rejected a Gaussian 3x3 pair as nilpotent and inf
    # gave every necessary-condition reason
    argv = [files.get(arg, arg) for arg in argv] + ["--tol", tol]
    with pytest.raises(SystemExit) as exc:
        run(argv)
    out = capsys.readouterr()
    assert exc.value.code == 1
    assert out.out == ""
    assert "usage:" in out.err
    assert f"--tol: must be finite and at least 0, got {tol}" in out.err


@pytest.mark.parametrize("argv", TOL_COMMANDS, ids=[argv[0] for argv in TOL_COMMANDS])
def test_zero_tolerance_is_accepted(files, capsys, argv):
    code, doc, _ = run_json(capsys, [files.get(arg, arg) for arg in argv] + ["--tol", "0"])
    assert doc is not None and code in (0, 2, 3)


def test_no_command_usage(capsys):
    assert run([]) == 1


def test_schema_flag(capsys):
    code = run(["--schema"])
    out = capsys.readouterr().out
    assert code == 0
    schema = json.loads(out)
    assert "tuplePayload" in schema["$defs"]


def test_round_trip_bit_exact():
    rng = np.random.default_rng(31)
    t = MatrixTuple((rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))))
    through = obj_to_tuple(json.loads(json.dumps(tuple_to_obj(t))))
    assert np.array_equal(through.data, t.data)


def per_entry_pairs(m):
    """Reference emitter: one [re, im] pair per entry, built in Python."""
    return [[[float(complex(v).real), float(complex(v).imag)] for v in row] for row in m]


def test_emit_matches_per_entry_emitter():
    rng = np.random.default_rng(37)
    data = rng.standard_normal((2, 128, 128)) + 1j * rng.standard_normal((2, 128, 128))
    data[0, 0, 0] = complex(-0.0, 0.0)
    data[1, 5, 7] = complex(1.5, -0.0)
    t = MatrixTuple(data)
    old = {"g": 2, "rows": 128, "cols": 128, "matrices": [per_entry_pairs(m) for m in t]}
    assert jsonio.dumps(tuple_to_obj(t)) == jsonio.dumps(old)
    old = {"rows": 128, "cols": 128, "entries": per_entry_pairs(t[0])}
    assert jsonio.dumps(matrix_to_obj(t[0])) == jsonio.dumps(old)
    assert "-0.0" in jsonio.dumps(tuple_to_obj(t))


@pytest.mark.parametrize("bad", [True, False, "1.5", None])
def test_non_number_entries_rejected(bad):
    payload = {"g": 1, "rows": 1, "cols": 2, "matrices": [[[[0.5, 0], [bad, 1.0]]]]}
    with pytest.raises(JsonFormatError, match=r"\[0\]\[1\]: complex entries must be"):
        obj_to_tuple(payload)


JSON_DEFECTS = {
    "matrix-not-object": (obj_to_matrix, [[[1, 0]]], "matrix: expected an object"),
    "tuple-not-object": (obj_to_tuple, [[[[1, 0]]]], "tuple: expected an object"),
    "g-zero": (obj_to_tuple, {"g": 0, "rows": 1, "cols": 1, "matrices": []}, "'g' must be"),
    "rows-bool": (obj_to_matrix, {"rows": True, "cols": 1, "entries": [[[0, 0]]]}, "'rows' must"),
    "cols-missing": (obj_to_matrix, {"rows": 1, "entries": [[[0, 0]]]}, "'cols' must be"),
    "matrices-short": (
        obj_to_tuple, {"g": 2, "rows": 1, "cols": 1, "matrices": [[[[0, 0]]]]}, "exactly g=2"
    ),
    "entries-not-list": (obj_to_matrix, {"rows": 1, "cols": 1, "entries": "0"}, "expected 1 rows"),
    "row-not-list": (obj_to_matrix, {"rows": 1, "cols": 1, "entries": [5]}, "row 0 must have"),
    "entry-not-pair": (
        obj_to_matrix, {"rows": 1, "cols": 1, "entries": [[[1, 2, 3]]]}, r"\[0\]\[0\]: complex"
    ),
    "entry-a-number": (
        obj_to_matrix, {"rows": 1, "cols": 1, "entries": [[5]]}, r"\[0\]\[0\]: complex"
    ),
    # a huge declared shape used to be allocated before any row was checked
    "matrix-cols-huge": (
        obj_to_matrix, {"rows": 1, "cols": 10**12, "entries": [[[1, 0]]]}, "row 0 must have"
    ),
    "tuple-cols-huge": (
        obj_to_tuple,
        {"g": 1, "rows": 1, "cols": 10**12, "matrices": [[[[1, 0]]]]},
        "row 0 must have",
    ),
}


@pytest.mark.parametrize("parse, payload, message", JSON_DEFECTS.values(), ids=JSON_DEFECTS.keys())
def test_payload_defects_are_named(parse, payload, message):
    with pytest.raises(JsonFormatError, match=message):
        parse(payload)


def test_float64_entries_take_the_entry_walk():
    # the fast parse accepts only int and float, so np.float64 entries are read one by one
    entries = [[[np.float64(0.5), 0], [1, np.float64(-2.0)]]]
    assert jsonio._well_formed(1, 2, entries) is None
    parsed = obj_to_matrix({"rows": 1, "cols": 2, "entries": entries})
    assert np.array_equal(parsed, np.array([[0.5, 1 - 2j]]))


def refuse_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


@pytest.mark.parametrize("command", ["xi", "xi-closure", "pencil-xi", "verify-theorem"])
def test_overflowing_constants_print_standard_json(files, capsys, tmp_path, command):
    # 1e100 * type IV: the residuals of its squares overflowed to Infinity on stdout
    big = write_tuple(tmp_path / "big.json", MatrixTuple(1e100 * type_iv_tuple().data))
    eye = files["eye"]
    argv = {
        "xi": ["xi", "--tuple", big],
        "xi-closure": ["xi", "--tuple", big, "--closure"],
        "pencil-xi": ["pencil-xi", "--tuple", big, "--middle", eye],
        "verify-theorem": ["verify-theorem", "--e", big, "--b", big, "--z", eye, "--m", eye],
    }[command]
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 2 and out.count("\n") == 1
    doc = json.loads(out, parse_constant=refuse_constant)
    if command != "verify-theorem":
        assert doc["error"]["type"] == "DomainBreach" and "residual" not in doc["error"]
    assert "the products overflow" in out


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_dumps_refuses_non_finite_numbers(value):
    with pytest.raises(ValueError):
        jsonio.dumps({"residual": value})


def test_stdout_byte_determinism(files, capsys):
    argv = ["xi", "--tuple", files["f"]]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second
