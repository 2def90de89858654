#!/usr/bin/env python3
"""Index-integral constancy study.

Sweeps the Gaussian index integral of one or more singularities over a
t-grid and prints a table plus optional CSV, illustrating that the estimate
is flat in t and rounds to the Milnor number.

    python scripts/run_index_study.py --samples 400000 --csv out.csv
"""

import argparse
import csv
import math
import sys

from singspect.cli import _seed
from singspect.index_integral import compute_index
from singspect.poly import infer_variable_count, parse
from singspect.weights import milnor_oracle, nondegeneracy_check, solve_weights

DEFAULT_CASES = ["(1/2)*z1^2", "z1^3", "z1^4", "z1^3 + z2^3"]


def _samples(text: str) -> int:
    """The type of `--samples`: at least one sample per estimate."""
    samples = int(text)
    if samples < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {samples}")
    return samples


def _t_grid(text: str) -> list:
    """The type of `--t`: comma-separated times, each positive and finite."""
    grid = [float(x) for x in text.split(",")]
    for t in grid:
        if not 0 < t < math.inf:
            raise argparse.ArgumentTypeError(f"must be positive and finite, not {t}")
    return grid


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--poly", action="append", default=None,
                    help="polynomial text (repeatable); defaults to a small suite")
    ap.add_argument("--t", type=_t_grid, default="0.25,0.5,1,2,4")
    ap.add_argument("--samples", type=_samples, default=400000)
    ap.add_argument("--seed", type=_seed, default=0)
    ap.add_argument("--csv", default=None)
    args = ap.parse_args()

    cases = args.poly or DEFAULT_CASES
    t_grid = args.t
    rows = []
    for text in cases:
        f = parse(text, infer_variable_count(text))
        wv = solve_weights(f)
        nondegeneracy_check(f, wv)
        mu = milnor_oracle(wv)
        print(f"\n{text}   mu = {mu}")
        for i, t in enumerate(t_grid):
            est = compute_index(f, t, budget=args.samples, seed=args.seed, point=i)
            z = abs(est.estimate - mu) / max(est.std_error, 1e-12)
            print(f"  t = {t:6.3f}  estimate = {est.estimate:9.5f} "
                  f"+- {est.std_error:.5f}   z(mu) = {z:5.2f}")
            rows.append([text, t, est.estimate, est.std_error, mu])
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["polynomial", "t", "estimate", "stderr", "mu"])
            w.writerows(rows)
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
