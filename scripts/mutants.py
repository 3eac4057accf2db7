#!/usr/bin/env python3
"""Replay a table of named source mutations against the tests meant to kill them.

    python scripts/mutants.py WORKDIR [NAME ...]

Each entry of MUTANTS names one file under src/, an exact old text that must
occur there exactly once, the new text that replaces it, and the node ids of
the tests that should fail on the mutant. For each entry (or only the NAMEs
given), the script copies src/, tests/ and pyproject.toml of this checkout
into a fresh directory under WORKDIR, applies the one replacement there, runs
only that entry's tests with pytest, and removes the copy. The checkout itself
is never written.

It prints one JSON line per mutation, with "status":
- "killed": a listed test failed;
- "survived": every listed test passed. An entry with a "note" is a known
  survivor, and the note says why no test tells it apart;
- "stale": the old text no longer occurs exactly once, or pytest could not
  run the listed tests (a renamed test, say). Mend the entry.

The tests of every entry run once on an unmutated copy first; if they fail
there, nothing is replayed and the script exits 1. It exits 0 when every
entry was killed or is a known survivor, and 1 otherwise.

The tier-1 suite does not run the mutants; it only checks that every old text
occurs exactly once, so the table cannot go stale silently.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

ADD_ROWS_TEST = "tests/test_linalg.py::test_add_rows_is_one_add_per_row_bit_for_bit"
KERNEL_FLAGS_TEST = "tests/test_genericity.py::test_kernel_flags_match_kernel_basis"
NILPOTENT_KERNEL_TEST = "tests/test_linalg.py::test_a_nilpotent_tuple_has_a_joint_kernel"
BLOCK_RESOLVENT_TEST = "tests/test_linalg.py::test_block_resolvent_matches_the_dense_inverse"
EQUAL_BLOCKS_TEST = "tests/test_linalg.py::test_equal_diagonal_blocks_are_inverted_once"
STACKED_RESOLVENT_TEST = "tests/test_stacks.py::test_stacked_resolvent_certifies_each_item"
STACKED_MAP_TEST = "tests/test_stacks.py::test_stacked_map_call_is_one_point_calls"
STACKED_BREACHES_TEST = "tests/test_stacks.py::test_some_rays_of_a_stack_breach_as_in_the_loop"
STACKED_PROPERNESS_TEST = "tests/test_stacks.py::test_properness_reports_what_the_loop_reports"
STACKED_THEOREM_TEST = "tests/test_stacks.py::test_theorem_transport_reports_what_the_loop_reports"
STACKED_REFUSAL_TEST = (
    "tests/test_stacks.py::test_a_refused_point_of_either_map_is_one_breach_as_in_the_loop"
)
SINGULAR_ITEM_TEST = (
    "tests/test_stacks.py::test_an_exactly_singular_item_leaves_the_rest_of_its_stack"
)
SCALING_TEST = (
    "tests/test_genericity.py::test_a_power_of_two_scaling_keeps_the_verdicts_or_is_refused"
)
FLOAT_RANGE_CLI_TEST = (
    "tests/test_cli.py::test_sv_probe_on_a_tuple_out_of_float_range_is_one_json_error"
)

MUTANTS = [
    # the sv-probe's chunk screen (OrthonormalSpan.add_rows)
    {
        "name": "add-rows-floor-doubled",
        "file": "src/convexotonic/linalg.py",
        "old": "if screened < floor / 2 or",
        "new": "if screened < floor * 2 or",
        "tests": [
            ADD_ROWS_TEST,
            "tests/test_linalg.py::test_add_rows_keeps_a_row_between_half_and_twice_the_floor",
        ],
    },
    {
        "name": "add-rows-stops-a-row-early",
        "file": "src/convexotonic/linalg.py",
        "old": "if len(self.q) == len(row):",
        "new": "if len(self.q) == len(row) - 1:",
        "tests": [ADD_ROWS_TEST],
    },
    {
        "name": "add-rows-unconjugated-update",
        "file": "src/convexotonic/linalg.py",
        "old": "after -= (after @ unit.conj())[:, None] * unit",
        "new": "after -= (after @ unit)[:, None] * unit",
        "tests": [ADD_ROWS_TEST],
        "note": "it only weakens the screen: a row it keeps still goes through add",
    },
    {
        "name": "beta-pool-one-more",
        "file": "src/convexotonic/genericity.py",
        "old": "max(0, POOL_FACTOR * d - pooled)",
        "new": "max(0, POOL_FACTOR * d + 1 - pooled)",
        "tests": ["tests/test_genericity.py::test_chunked_probe_is_bit_identical_to_the_sequential_loop"],
        "note": "no input found tells a pool of 4d + 1 left candidates from one of 4d",
    },
    # the necessary conditions
    {
        "name": "nilpotency-flag-without-joint-kernel",
        "file": "src/convexotonic/genericity.py",
        "old": "if kernel and is_nilpotent(A, tol):",
        "new": "if is_nilpotent(A, tol):",
        "tests": [KERNEL_FLAGS_TEST, NILPOTENT_KERNEL_TEST],
        "note": "equivalent: a nilpotent algebra kills a common vector (Levitzki)",
    },
    {
        "name": "kernel-rule-strict",
        "file": "src/convexotonic/genericity.py",
        "old": "s[:, -1] <= tol * s[:, 0]",
        "new": "s[:, -1] < tol * s[:, 0]",
        "tests": [KERNEL_FLAGS_TEST],
    },
    {
        "name": "conditions-without-check-tol",
        "file": "src/convexotonic/genericity.py",
        "old": "    check_tol(tol)\n    stacks = ",
        "new": "    stacks = ",
        "tests": ["tests/test_genericity.py::test_tol_must_be_finite_and_non_negative"],
    },
    {
        "name": "adjoint-stack-untransposed",
        "file": "src/convexotonic/genericity.py",
        "old": "A.data.conj().transpose(0, 2, 1)",
        "new": "A.data.conj()",
        "tests": [KERNEL_FLAGS_TEST],
    },
    {
        "name": "adjoint-stack-unconjugated",
        "file": "src/convexotonic/genericity.py",
        "old": "A.data.conj().transpose(0, 2, 1)",
        "new": "A.data.transpose(0, 2, 1)",
        "tests": [KERNEL_FLAGS_TEST],
        "note": "equivalent: conjugation leaves the singular values unchanged",
    },
    # refusals at the ends of the float range
    {
        "name": "conditions-accept-overflowing-singular-values",
        "file": "src/convexotonic/genericity.py",
        "old": "    if not np.isfinite(s).all():\n"
        '        raise DomainBreach("the singular values of the tuple overflow")\n',
        "new": "",
        "tests": [SCALING_TEST, FLOAT_RANGE_CLI_TEST],
    },
    {
        "name": "nilpotency-accepts-overflowing-norms",
        "file": "src/convexotonic/linalg.py",
        "old": "    if not (np.isfinite(norms).all() and np.isfinite(gens).all()):\n"
        '        raise DomainBreach("the tuple overflows when scaled to unit norm")\n',
        "new": "",
        "tests": [SCALING_TEST],
    },
    {
        "name": "probe-accepts-overflowing-points",
        "file": "src/convexotonic/genericity.py",
        "old": "        if not np.isfinite(points).all():\n"
        '            raise DomainBreach("the probe\'s points overflow")\n',
        "new": "",
        "tests": [SCALING_TEST, FLOAT_RANGE_CLI_TEST],
    },
    # the pencil kernel
    {
        "name": "pencil-without-overflow-check",
        "file": "src/convexotonic/linalg.py",
        "old": "    lam = _pencil(coeffs, point)\n"
        "    if not np.isfinite(lam).all():\n"
        '        raise DomainBreach("the pencil overflows at this point")\n',
        "new": "    lam = _pencil(coeffs, point)\n",
        "tests": ["tests/test_domains.py::test_an_overflowing_pencil_is_refused_by_name"],
    },
    # the block inverse written into the pencil's own buffer
    {
        "name": "diagonal-blocks-compared-against-views",
        "file": "src/convexotonic/linalg.py",
        "old": "known.append((block.copy(), block_inv))",
        "new": "known.append((block, block_inv))",
        "tests": [
            EQUAL_BLOCKS_TEST, "tests/test_maps.py::test_type_iv_inverts_one_block_per_resolvent"
        ],
    },
    {
        "name": "norm-read-after-the-overwrite",
        "file": "src/convexotonic/linalg.py",
        "old": "cond = m_norm * np.abs(inv)",
        "new": "cond = np.abs(m).sum(axis=-2).max(axis=-1) * np.abs(inv)",
        "tests": ["tests/test_linalg.py::test_block_path_certifies_the_assembled_inverse"],
    },
    {
        "name": "diagonal-block-written-before-the-update",
        "file": "src/convexotonic/linalg.py",
        "old": "            if b < k:\n"
        "                rest = m[..., a:b, b:] @ inv[..., b:, b:]\n"
        "                inv[..., a:b, b:] = block_inv @ np.negative(rest, out=rest)\n"
        "            inv[..., a:b, a:b] = block_inv\n",
        "new": "            inv[..., a:b, a:b] = block_inv\n"
        "            if b < k:\n"
        "                rest = m[..., a:b, b:] @ inv[..., b:, b:]\n"
        "                inv[..., a:b, b:] = block_inv @ np.negative(rest, out=rest)\n",
        "tests": [BLOCK_RESOLVENT_TEST, EQUAL_BLOCKS_TEST],
        "note": "equivalent: the update reads block row a of m right of the diagonal block "
        "and the inverse's rows below it, never the diagonal block",
    },
    {
        "name": "monic-pencil-keeps-negative-zeros",
        "file": "src/convexotonic/linalg.py",
        "old": "    m += 0.0  # -0.0 + 0.0 is 0.0, as adding the identity's zeros made it\n",
        "new": "",
        "tests": [BLOCK_RESOLVENT_TEST],
    },
    {
        "name": "hermitian-pencil-keeps-negative-zeros",
        "file": "src/convexotonic/linalg.py",
        "old": "        lam += 0.0  # -0.0 + 0.0 is 0.0, as adding the identity's zeros made it\n",
        "new": "        pass\n",
        "tests": ["tests/test_linalg.py::test_adjoint_sums_have_the_bits_of_the_whole_matrix_sums"],
    },
    {
        "name": "block-rows-inverted-from-the-top",
        "file": "src/convexotonic/linalg.py",
        "old": "for a, b in reversed(list(zip(cuts[:-1], cuts[1:]))):",
        "new": "for a, b in zip(cuts[:-1], cuts[1:]):",
        "tests": [BLOCK_RESOLVENT_TEST],
    },
    # the one refusal of an inverse (resolvent) and the callers that read it off a stack
    {
        "name": "resolvent-refusal-dropped",
        "file": "src/convexotonic/linalg.py",
        "old": "elif refused:",
        "new": "elif False:",
        "tests": [
            "tests/test_linalg.py::test_resolvent_refusals",
            "tests/test_linalg.py::test_block_path_refuses_an_exactly_singular_pencil",
        ],
    },
    {
        "name": "jacobian-accepts-refused-points",
        "file": "src/convexotonic/maps.py",
        "old": "        if np.isnan(images).any():\n"
        '            raise DomainBreach(f"the map refuses a difference point at step {h:g}")\n',
        "new": "",
        "tests": ["tests/test_maps.py::test_derivative_at_zero_refuses_a_pole_at_a_step"],
    },
    {
        "name": "oracle-check-accepts-refused-points",
        "file": "src/convexotonic/verify.py",
        "old": "        if not _defined(image).all():\n"
        '            raise DomainBreach(f"{name}: the map refuses a sampled point")\n',
        "new": "",
        "tests": [
            "tests/test_verify.py::test_an_oracle_check_refuses_a_point_the_map_refuses",
            "tests/test_cli.py::test_examples_refusing_a_sampled_point_is_one_json_error",
        ],
    },
    # stacked evaluation: one certificate and one breach per point
    {
        "name": "nan-condition-number-not-read-as-infinite",
        "file": "src/convexotonic/linalg.py",
        "old": "return inv, np.where(np.isnan(cond), np.inf, cond)",
        "new": "return inv, cond",
        "tests": [
            SINGULAR_ITEM_TEST, "tests/test_linalg.py::test_block_path_refuses_an_exactly_singular_pencil"
        ],
    },
    {
        "name": "singular-stack-inverted-as-all-nan",
        "file": "src/convexotonic/linalg.py",
        "old": "return np.array([_inverse(item) for item in m]) if m.ndim > 2 else np.full_like(",
        "new": "return np.full_like(",
        "tests": [SINGULAR_ITEM_TEST],
    },
    {
        "name": "certificate-over-the-whole-stack",
        "file": "src/convexotonic/linalg.py",
        "old": "np.abs(inv).sum(axis=-2).max(axis=-1)",
        "new": "np.abs(inv).sum(axis=-2).max()",
        "tests": [STACKED_RESOLVENT_TEST, STACKED_MAP_TEST],
    },
    {
        "name": "breaching-stack-counted-once",
        "file": "src/convexotonic/verify.py",
        "old": "breaches += len(x) - len(inside)",
        "new": "breaches += min(1, len(x) - len(inside))",
        "tests": [STACKED_BREACHES_TEST, STACKED_PROPERNESS_TEST],
    },
    {
        "name": "round-trip-breach-dropped",
        "file": "src/convexotonic/verify.py",
        "old": "kept = _defined(returned)",
        "new": "kept = np.ones(len(returned), dtype=bool)",
        "tests": [STACKED_REFUSAL_TEST],
    },
    {
        "name": "theorem-breach-dropped",
        "file": "src/convexotonic/verify.py",
        "old": "breaches = used - len(margins)",
        "new": "breaches = 0",
        "tests": [STACKED_BREACHES_TEST, STACKED_THEOREM_TEST],
    },
    # the certificate record of a tuple (algebras._Record)
    {
        "name": "route-holds-j-itself",
        "file": "src/convexotonic/algebras.py",
        "old": "record.route = (MatrixTuple(left), r_inv_t @ span.q.conj())",
        "new": "record.route = (basis, r_inv_t @ span.q.conj())",
        "tests": ["tests/test_maps.py::test_algebra_route_outlives_the_algebra_tuple"],
    },
    {
        "name": "closure-span-reused-at-a-looser-tol",
        "file": "src/convexotonic/algebras.py",
        "old": "span = span if tol <= span_tol else",
        "new": "span = span if span is not None else",
        "tests": ["tests/test_algebras.py::test_a_closure_span_is_reused_only_at_its_tol_or_below"],
    },
    {
        "name": "constants-accept-a-nan-residual",
        "file": "src/convexotonic/algebras.py",
        "old": "if not math.isfinite(largest := float(np.max(residuals))):",
        "new": "if math.isinf(largest := float(np.max(residuals))):",
        "tests": ["tests/test_algebras.py::test_a_nan_residual_is_refused"],
    },
]


def _copy(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest)


def _pytest(dest: Path, tests) -> int:
    env = {**os.environ, "PYTHONPATH": str(dest / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=dest, env=env, capture_output=True).returncode


def replay(mutant, workdir: Path) -> dict:
    """Apply one mutant to a fresh copy under workdir and run its tests."""
    line = {"name": mutant["name"], "file": mutant["file"], "tests": mutant["tests"]}
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        dest = Path(tmp)
        _copy(dest)
        path = dest / mutant["file"]
        text = path.read_text()
        if text.count(mutant["old"]) != 1:
            return {**line, "status": "stale", "why": "the old text does not occur exactly once"}
        path.write_text(text.replace(mutant["old"], mutant["new"]))
        code = _pytest(dest, mutant["tests"])
    if code not in (0, 1):  # 1: tests failed; any other code: pytest could not run them
        return {**line, "status": "stale", "why": f"pytest exited {code}"}
    if code == 1:
        return {**line, "status": "killed"}
    return {**line, "status": "survived", **({"note": mutant["note"]} if "note" in mutant else {})}


def main(argv) -> int:
    if not argv or argv[0].startswith("-"):
        sys.stderr.write(__doc__)
        return 2
    workdir = Path(argv[0]).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    chosen = [m for m in MUTANTS if len(argv) == 1 or m["name"] in argv[1:]]
    unknown = set(argv[1:]) - {m["name"] for m in MUTANTS}
    if unknown:
        sys.stderr.write(f"unknown mutants: {sorted(unknown)}\n")
        return 2
    tests = sorted({t for m in chosen for t in m["tests"]})
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        _copy(Path(tmp))
        if _pytest(Path(tmp), tests) != 0:
            sys.stderr.write("the listed tests fail without any mutation\n")
            return 1
    clean = True
    for mutant in chosen:
        result = replay(mutant, workdir)
        print(json.dumps(result), flush=True)
        clean &= result["status"] == "killed" or "note" in result
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
