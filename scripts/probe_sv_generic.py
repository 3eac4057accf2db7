#!/usr/bin/env python3
"""Probe named or random tuples for sv-genericity across seeds.

Shows how quickly certificates appear for the catalog tuples and how the
necessary conditions reject the nilpotent ones.
"""

import argparse
import sys

import numpy as np

from convexotonic import (
    MatrixTuple,
    Spectraball,
    ball_to_spectrahedron,
    sv_probe,
    type_i_tuple,
    type_ii_tuple,
    type_iv_tuple,
)
from convexotonic.sampling import complex_gaussian

NAMED = {
    "unit-jordan": type_iv_tuple,
    "nilpotent-pair": type_i_tuple,
    "corner-pair": type_ii_tuple,
    "ball-embedding": lambda: ball_to_spectrahedron(
        Spectraball(type_iv_tuple())
    ).coeffs,
}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--which", choices=sorted(NAMED) + ["random"], default="unit-jordan")
    parser.add_argument("--size", type=int, default=3, help="d for random tuples")
    parser.add_argument("--length", type=int, default=2, help="g for random tuples")
    parser.add_argument("--trials", type=int, default=10_000)
    parser.add_argument("--seeds", type=int, nargs="+", default=[42, 43, 44])
    args = parser.parse_args()

    for seed in args.seeds:
        if args.which == "random":
            rng = np.random.default_rng(seed)
            tup = MatrixTuple(complex_gaussian(rng, args.length, args.size, args.size))
        else:
            tup = NAMED[args.which]()
        result = sv_probe(tup, trials=args.trials, seed=seed)
        line = f"seed {seed}: {result.status} after {result.trials_used} trials"
        if result.status == "rejected":
            line += f" (reasons: {', '.join(result.conditions.reasons)})"
        elif result.status == "inconclusive":
            line += f" ({result.reason})"
        elif result.certificate is not None:
            line += (
                f" (hyperbasis margin {result.certificate.hyperbasis_margin:.3e},"
                f" basis margin {result.certificate.basis_margin:.3e})"
            )
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
