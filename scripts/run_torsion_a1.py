#!/usr/bin/env python3
"""Exact vs numeric A_1 torsion across basis sizes and split points.

Shows how the numeric renormalized-zeta pipeline converges to the closed
form (2 tau)^{-1/12} e^{-zeta'(-1)} as the Galerkin spectrum grows, and that
the Mellin split point does not matter.
"""

import argparse
import sys

from singspect.poly import parse
from singspect.spectral import (
    GalerkinConfig,
    ar_data,
    eigensolve,
    renormalize_and_torsion,
    torsion_exact_a1,
)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--bases", default="30,45,60,80")
    ap.add_argument("--splits", default="0.5,1,2")
    args = ap.parse_args()

    f = parse("(1/2)*z1^2", 1)
    exact = torsion_exact_a1(0.5)
    print(f"exact: log T2 = {exact.log_torsion:.10f}   T2 = {exact.torsion:.10f}")

    for basis in (int(b) for b in args.bases.split(",")):
        spec = eigensolve(GalerkinConfig(f, basis_size=basis,
                                         sector_cutoff=basis + 10))
        line = [f"basis {basis:3d} (levels {spec.values.size:3d}):"]
        for split in (float(s) for s in args.splits.split(",")):
            res = renormalize_and_torsion(spec, ar_data(f), split=split)
            line.append(f"split {split:g}: dlog {res.log_torsion - exact.log_torsion:+.2e}")
        print("  ".join(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
