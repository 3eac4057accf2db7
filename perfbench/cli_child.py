"""Traced stand-in for `python -m convexotonic`, used by the cli workload's traced run.

    python3 perfbench/cli_child.py TRACE_FILE <convexotonic arguments...>

Times the cold package import, wraps the JSON I/O functions and the compute
calls the CLI makes, counts numpy.linalg calls, runs the CLI, and writes the
spans and counts to TRACE_FILE. Standard output and the exit code are the
CLI's own.
"""

import json
import sys
from pathlib import Path

from tracing import Tracer

JSONIO_CALLS = ("load_document", "obj_to_tuple", "tuple_to_obj", "dumps")
CLI_CALLS = {
    "spec_membership": "domains.spec_membership",
    "ball_membership": "domains.ball_membership",
    "algebra_closure": "algebras.algebra_closure",
    "structure_constants": "algebras.structure_constants",
    "sv_probe": "genericity.sv_probe",
    "example_catalog": "verify.example_catalog",
}


def main() -> int:
    trace_file = Path(sys.argv[1])
    tracer = Tracer()
    with tracer.span("cli.import"):
        import convexotonic.cli as cli
    from convexotonic import jsonio
    from convexotonic.maps import ConvexotonicMap

    for name in JSONIO_CALLS:
        setattr(jsonio, name, tracer.wrap(f"jsonio.{name}", getattr(jsonio, name)))
    for attr, name in CLI_CALLS.items():
        setattr(cli, attr, tracer.wrap(name, getattr(cli, attr)))

    class TracedMap(ConvexotonicMap):
        __call__ = tracer.wrap("maps.call", ConvexotonicMap.__call__)

    cli.ConvexotonicMap = tracer.wrap("maps.ConvexotonicMap", TracedMap)
    restore = tracer.patch_factor()
    try:
        with tracer.span("cli.run"):
            code = cli.run(sys.argv[2:])
    finally:
        restore()
        trace_file.write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))
    return code


if __name__ == "__main__":
    sys.exit(main())
