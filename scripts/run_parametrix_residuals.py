#!/usr/bin/env python3
"""Residual order of the heat parametrix for a few singularities.

Builds the exact parametrix at several truncation orders and fits the
leading small-t exponent of the divided remainder; the exponent should
track the truncation order k.
"""

import argparse
import sys

import numpy as np

from singspect.parametrix import build_U, residual_order_check
from singspect.poly import infer_variable_count, parse


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--poly", action="append", default=None)
    ap.add_argument("--orders", default="2,3,4")
    ap.add_argument("--samples", type=int, default=6)
    args = ap.parse_args()

    cases = args.poly or ["(1/2)*z1^2", "z1^3"]
    orders = [int(k) for k in args.orders.split(",")]
    for text in cases:
        f = parse(text, infer_variable_count(text))
        # per sample: Re z, Im z, Re w, Im w
        x = np.random.default_rng(0).normal(scale=0.7, size=(args.samples, 4, f.n))
        z, w = x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]
        print(f"\n{text}")
        for k in orders:
            bundle = build_U(f, k)
            rep = residual_order_check(bundle, z, w)
            exps = ", ".join(f"{e:.3f}" for e in rep.fitted_exponents)
            print(f"  k = {k}: fitted t-exponents [{exps}]  (min {rep.min_exponent:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
