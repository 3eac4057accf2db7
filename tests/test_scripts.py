import importlib.util
from pathlib import Path

import numpy as np

import convexotonic

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "scripts" / "bench.py"


def test_bench_builds_its_cases_and_runs_every_map_call():
    # the bench is not run in the suite; this keeps a route change or an API
    # deletion from breaking it unnoticed
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    cases = bench.cases(convexotonic, np)
    calls = {name: call for name, call in cases.items() if name.startswith("map_call.")}
    assert {"map_call.ut3.g6.n128", "map_call.nil8.g24.n32"} <= calls.keys()
    for call in calls.values():
        assert isinstance(call(), convexotonic.MatrixTuple)
    # the stacked call whose item 37 is a pole: NaN there, and only there
    stack = cases["map_stack.type_iv.singular_item.n3.s75"]()
    assert np.isnan(stack[37]).all() and not np.isnan(np.delete(stack, 37, axis=0)).any()
    # the cases this file's probe and necessary-condition timings come from
    assert cases["necessary_conditions.generic.d3"]().passed
    assert cases["necessary_conditions.strict.g3.d8"]().reasons == (
        "joint-kernel", "joint-cokernel", "nilpotent"
    )
    assert cases["sv_probe.generic.d3"]().status == "certified"
    statuses = [result.status for result in cases["sv_probe.mix"]()]
    assert statuses == ["certified"] * 4 + ["inconclusive"] * 27 + ["rejected"] * 4
    # the level-n kernel and span-solve cases whose memory is traced
    traced = {name for name in cases if bench.TRACED.match(name)}
    assert {"map_call.type_iv.n256", "boundary_scale.spectrahedron.type_iv.n256",
            "boundary_scale.spectraball.type_iv.n128", "operator_norm.type_iv.n256"} <= traced
    assert {name for name in cases if name.startswith("structure_constants.")} == {
        "structure_constants.nil.g3.d8", "structure_constants.ut.d6.g21",
        "structure_constants.full.d7.g49", "structure_constants.full.d8.g64",
        "structure_constants.full.d10.g100", "structure_constants.full.d12.g144",
    } <= traced
    # the end-to-end cases are built with their inputs but not spawned here
    cli = {"eval.n128", "member.spec.n128", "xi.closure.ut5", "sv_probe.type_iv", "examples.seed42"}
    assert {f"cli.{name}" for name in cli} <= cases.keys()
    planted = {"ut.d6", "full.d6", "full.d8"}
    assert {f"theorem.planted.{name}" for name in planted} <= cases.keys()


def test_every_mutant_names_one_place_in_src_and_existing_tests():
    # the mutants are replayed outside the suite; this keeps the table from going stale
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    names = [m["name"] for m in mutants.MUTANTS]
    assert len(set(names)) == len(names) >= 17
    # the stacked kernels and harnesses have their own mutants
    assert {"certificate-over-the-whole-stack", "breaching-stack-counted-once"} <= set(names)
    for mutant in mutants.MUTANTS:
        assert mutant["file"].startswith("src/convexotonic/")
        assert (ROOT / mutant["file"]).read_text().count(mutant["old"]) == 1, mutant["name"]
        assert mutant["old"] != mutant["new"] and mutant["tests"]
        for node in mutant["tests"]:
            path, test = node.split("::")
            assert f"def {test}(" in (ROOT / path).read_text(), node
