#!/usr/bin/env python3
"""Boundedness evidence for the catalog spectrahedra.

The probe is a heuristic: a finite maximum scale is only evidence of
boundedness, while an infinite ray is a genuine unboundedness witness.
"""

import argparse
import sys

from convexotonic import (
    Spectraball,
    Spectrahedron,
    ball_to_spectrahedron,
    boundedness_probe,
    type_i_tuple,
    type_ii_tuple,
    type_iii_tuple,
    type_iv_tuple,
)
from convexotonic.cli import _at_least


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=_at_least(0), default=100)  # 0: skew directions only
    parser.add_argument("--levels", type=_at_least(1), nargs="+", default=[1, 2, 3])
    parser.add_argument("--seed", type=_at_least(0), default=42)
    args = parser.parse_args()

    cases = {
        "nilpotent-pair": Spectrahedron(type_i_tuple()),
        "corner-pair": Spectrahedron(type_ii_tuple()),
        "lower-corner-pair": Spectrahedron(type_iii_tuple()),
        "unit-jordan": Spectrahedron(type_iv_tuple()),
        "unit-jordan-ball": ball_to_spectrahedron(Spectraball(type_iv_tuple())),
    }
    for name, spec in cases.items():
        ev = boundedness_probe(spec, levels=args.levels, trials=args.trials, seed=args.seed)
        if ev.unbounded:
            print(f"{name}: UNBOUNDED at level {ev.witness_level}")
            print(f"  witness direction:\n{ev.witness.data}")
        else:
            print(
                f"{name}: no infinite ray in {ev.directions_tested} directions "
                f"(max scale {ev.max_scale:.4f})"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
