"""Command-line orchestration: weights, index, torsion and verify commands.

Every report is a single JSON object on stdout with the shape

    {"schema": "1", "manifest": {...}, "result": {...}, "timing": {...}}

where the manifest captures command, polynomial, seed and budgets; identical
manifests produce byte-identical reports apart from the separate timing
field.  `main` is the one driver: it parses the polynomial, times the
command, writes the report, and turns an exception into a structured JSON
error on stderr with the exit code of the first matching row of
`_EXIT_CODES`:

  0  success;
  1  a parse error, of the polynomial or of a `--t` value that is not a
     number; both carry an offset;
  2  degenerate input;
  3  McKean-Singer constancy violated;
  4  any other rejected input:
     - a usage error argparse reports, such as an unknown command,
       `--samples abc` or a negative `--seed`;
     - a polynomial outside the weight system, such as one with a
       conjugate variable;
     - a t that is not finite or is below the smallest normal float;
     - `index --samples` below 2;
     - a rejected quadrature node count;
     - an index estimate that is not positive and finite (0 when no sample
       or node carried the integrand), or an error that is not finite, by
       either method;
     - a Monte Carlo proposal variance that is not a normal float;
     - a `--basis` or `--sectors` the Galerkin solver rejects;
     - a float overflow, in the Galerkin matrices or from a coefficient
       that a numeric layer cannot convert to a normal float;
  5  a failed `verify` check (its report is still written).

`weights` is exact, so it exits 0 or 2 at any coefficient scale.

The variable count n is the largest k of a `zk` in the polynomial's text.
`torsion --sectors` defaults to 70, or to the Galerkin solver's floor
2r + 2 for f = c z^(r+1) when that is larger; `torsion --exact` uses and
records neither `--basis` nor `--sectors`.  `--seed` is read only by the
Monte Carlo `index` and the `verify` suites; `weights`, `torsion` and
`index --method quadrature` accept it and record it in the manifest.

This module imports only the exact, numpy-free layers (poly, weights).  Each
command imports the modules it computes with when it runs, listed in
`_MODULES`; `main` imports them right after parsing the command line and
leaves that import out of the report's timer, so `timing` times the command
and not its imports.  `index` loads numpy but not the spectral layer,
`torsion` loads the spectral layer but not the index integral, and
`weights`, `torsion --exact` (the A_1 closed form in `zeta`) and the exact
suites `verify clifford-identities` and `verify parametrix-identities` load
no numpy at all.

A CLI process runs one BLAS thread: importing this module sets
OPENBLAS_NUM_THREADS=1 unless OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS is already set.  numpy's bundled OpenBLAS otherwise starts
a pool of worker threads at `import numpy` that busy-wait on other cores,
and the matrices here (a few hundred rows at most) are too small for them
to pay.  OpenBLAS reads the variable when numpy is first imported, so the
default takes effect only where this module is imported before numpy, as in
`singspect` and `python -m singspect.cli`; the library modules leave the
BLAS of a program that imports numpy first as it is.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import time
from fractions import Fraction

# one BLAS thread unless the user chose a count (see the module docstring):
# with OpenBLAS's idle pool, a bare `import numpy` (numpy 2.4.6, OpenBLAS
# 0.3.31, 2 vCPUs of a Xeon) took 0.35 s CPU in 0.22 s wall, and 0.22 s CPU
# with one thread
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

from . import __version__
from .poly import MixedPolynomial, ParseError, infer_variable_count, parse
from .weights import (
    BRUTE_FORCE_MAX_MU,
    BilinearMonomialPresent,
    ConstancyViolated,
    DegenerateSingularity,
    has_bilinear_monomial,
    milnor_brute_force,
    milnor_oracle,
    nondegeneracy_check,
    solve_weights,
    tameness_report,
)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DEGENERATE = 2
EXIT_CONSTANCY = 3
EXIT_UNSUPPORTED = 4
EXIT_VERIFY = 5

# the first row whose class the exception is an instance of picks the exit code;
# ParseError and the degeneracy errors are ValueErrors, so the order matters
_EXIT_CODES = (
    (ParseError, EXIT_PARSE),
    (DegenerateSingularity, EXIT_DEGENERATE),
    (ConstancyViolated, EXIT_CONSTANCY),
    (ValueError, EXIT_UNSUPPORTED),
    (OverflowError, EXIT_UNSUPPORTED),
)


def _exact(value) -> dict:
    return {"value": value, "tag": "exact"}


def _with_err(value: float, err: float) -> dict:
    return {"value": value, "stderr": err}


def _emit(report: dict) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")


def _emit_error(exc: Exception, code: int) -> int:
    payload = {"schema": "1", "error": {"type": type(exc).__name__, "message": str(exc)}}
    if isinstance(exc, ParseError):
        payload["error"]["offset"] = exc.offset
    sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
    return code


def _t_grid(text: str) -> list:
    grid, offset = [], 0
    for item in text.split(","):
        try:
            grid.append(float(item))
        except ValueError:
            raise ParseError(f"--t value {item!r} is not a number", offset) from None
        offset += len(item) + 1
    return grid


def _weight_system(f: MixedPolynomial):
    """Weights, non-degeneracy report and Milnor number: the front end of `weights` and `index`.

    The bilinear check runs before `solve_weights`, so a z_i*z_j term is
    reported as such rather than as a rank-deficient weight system.
    """
    if has_bilinear_monomial(f):
        raise BilinearMonomialPresent("f contains a z_i*z_j monomial with i != j")
    wv = solve_weights(f)
    nd = nondegeneracy_check(f, wv)
    return wv, nd, milnor_oracle(wv)


# -- commands: each returns (budgets, result) or raises -------------------------


def cmd_weights(args, f: MixedPolynomial):
    wv, nd, mu = _weight_system(f)
    result = {
        "q": [str(qi) for qi in wv.q],
        "d": wv.d,
        "k": list(wv.k),
        "mu": _exact(mu),
    }
    result.update(tameness_report(wv).to_json_dict())
    result.update(nd.to_json_dict())
    if mu <= BRUTE_FORCE_MAX_MU:
        result["mu_brute_force"] = _exact(milnor_brute_force(f, wv))
    return {}, result


def cmd_index(args, f: MixedPolynomial):
    from .index_integral import mckean_singer_check

    t_grid = _t_grid(args.t)
    _, _, mu_oracle = _weight_system(f)
    budget = args.samples if args.method == "mc" else args.nodes
    res = mckean_singer_check(f, t_grid, budget=budget, seed=args.seed, method=args.method)
    result = {
        "estimates": [
            {"t": e.t, "estimate": _with_err(e.estimate, e.std_error)}
            for e in res.estimates
        ],
        "mu_pooled": _with_err(res.mu_pooled,
                               max(e.std_error for e in res.estimates)),
        "mu_rounded": _exact(res.mu_rounded),
        "mu_oracle": _exact(mu_oracle),
        "pass": bool(res.mu_rounded == mu_oracle),
        "method": res.method,
    }
    return {"budget": budget, "t_grid": t_grid, "method": args.method}, result


def cmd_torsion(args, f: MixedPolynomial):
    from .zeta import UnsupportedSingularity, ar_data, torsion_exact_a1

    data = ar_data(f)
    result: dict = {"r": data.r}
    exact_res = None
    if data.r == 1:
        exact_res = torsion_exact_a1(data.tau_effective)
        result["tau"] = data.tau_effective
    if args.exact:  # the closed form reads neither --basis nor --sectors
        if exact_res is None:
            raise UnsupportedSingularity("closed form exists for A_1 only")
        result["path"] = "exact"
        result["T2"] = _exact(exact_res.torsion)
        result["log_T2"] = _exact(exact_res.log_torsion)
        return {"exact": True}, result
    from .spectral import GalerkinConfig, eigensolve, renormalize_and_torsion

    sectors = max(70, 2 * data.r + 2) if args.sectors is None else args.sectors
    spec = eigensolve(GalerkinConfig(f, basis_size=args.basis, sector_cutoff=sectors))
    numeric = renormalize_and_torsion(spec, data)
    result["path"] = "numeric" if exact_res is None else "both"
    result["T2"] = _with_err(numeric.torsion, numeric.error_bar * numeric.torsion)
    result["log_T2"] = _with_err(numeric.log_torsion, numeric.error_bar)
    result["log_T2_splits"] = list(numeric.log_torsion_splits)
    result["spectrum_levels"] = spec.values.size
    result["fit_exponents"] = list(numeric.exponents)
    result["fit_condition"] = numeric.fit_condition
    result["fit_unstable"] = numeric.fit_unstable
    if exact_res is not None:
        result["T2_exact"] = _exact(exact_res.torsion)
        result["log_T2_exact"] = _exact(exact_res.log_torsion)
        result["log_difference"] = abs(numeric.log_torsion - exact_res.log_torsion)
    return {"basis": args.basis, "sectors": sectors, "exact": False}, result


# -- verify suites ----------------------------------------------------------------


def _suite_clifford(seed: int) -> list:
    import itertools
    import random

    from .clifford import (
        ExteriorOperator, build_Lf, c, c_bar, c_bar_hat, c_hat,
        full_clifford_monomial, number_operator, number_operator_clifford,
    )
    from .gaussian_rational import GaussianRational

    checks = []
    rng = random.Random(seed)
    for n in (1, 2):
        I = ExteriorOperator.identity(n)
        gens = [g(i, n) for i in range(1, n + 1) for g in (c, c_hat, c_bar, c_bar_hat)]
        sqs = [(-1, 1, -1, 1)[j % 4] for j in range(len(gens))]
        ok = all((g @ g) == I.scale(s) for g, s in zip(gens, sqs))
        ok &= all((a @ b + b @ a).is_zero()
                  for a, b in itertools.combinations(gens, 2))
        checks.append((f"generator relations n={n}", ok))
        checks.append((f"number operator n={n}",
                       number_operator(n) == number_operator_clifford(n)))
        checks.append((f"full monomial supertrace n={n}",
                       full_clifford_monomial(n).supertrace() == GaussianRational(4 ** n)))
    H = [[GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
          for _ in range(2)] for _ in range(2)]
    H[1][0] = H[0][1]
    L = build_Lf(H)
    det = H[0][0] * H[1][1] - H[0][1] * H[1][0]
    checks.append(("str L^4 identity",
                   L.power(4).supertrace() == GaussianRational(det.abs2() * 384)))
    checks.append(("str L^m vanishing",
                   all(L.power(m).supertrace() == GaussianRational(0) for m in (1, 2, 3))))
    return checks


def _suite_parametrix(seed: int) -> list:
    from .parametrix import build_U, recursion_residual

    checks = []
    for text, n in (("(1/2)*z1^2", 1), ("z1^3", 1)):
        f = parse(text, n)
        b = build_U(f, 2 * n + 2)
        checks.append((f"recursion identities {text}",
                       all(recursion_residual(b, j).is_zero() for j in range(b.k))))
        checks.append((f"str U_1 vanishes {text}",
                       b.U[1].diagonal_supertrace().is_zero()))
        strL2 = (b.B @ b.B).diagonal_supertrace()
        checks.append((f"str U_2 matches L^2 {text}",
                       (b.U[2].diagonal_supertrace() * 2 - strL2).is_zero()))
    return checks


def _suite_oscillator(seed: int) -> list:
    from .oscillator import (
        OscillatorSpec, convolve_0form_kernel, heat_trace_0forms,
        heat_trace_k_forms, kernel_functions, spectrum_k_forms,
    )

    checks = []
    spec = OscillatorSpec(0.5, 1.0)
    ok = True
    for k in (0, 1, 2):
        sp = spectrum_k_forms(spec, k, 200)
        ok &= abs(sp.heat_sum(1.0) - heat_trace_k_forms(spec, k)) < 1e-10
    checks.append(("eigenvalue sums reproduce traces", ok))
    conv = convolve_0form_kernel(0.5, 0.3 + 0.2j, -0.1 + 0.5j, 0.4, 0.7)
    ref = kernel_functions(OscillatorSpec(0.5, 1.1), 0.3 + 0.2j, -0.1 + 0.5j).zero_form
    checks.append(("semigroup property (tau = 1/2)", abs(conv - ref) < 1e-6))
    checks.append(("trace value t=1",
                   abs(heat_trace_0forms(spec) - 0.9206735942077923) < 1e-12))
    return checks


def _suite_index(seed: int) -> list:
    from .index_integral import mckean_singer_check

    f = parse("z1^3", 1)
    _, _, mu = _weight_system(f)
    try:
        res = mckean_singer_check(f, (0.5, 1.0, 2.0), budget=200000, seed=seed)
    except ConstancyViolated:  # a failed check here, not an exit code
        res = None
    return [("McKean-Singer constancy z1^3", res is not None),
            ("index rounds to mu", res is not None and res.mu_rounded == mu)]


def _suite_spectral(seed: int) -> list:
    import numpy as np

    from .spectral import (
        GalerkinConfig, ar_data, eigensolve, renormalize_and_torsion, torsion_exact_a1,
    )

    checks = []
    f = parse("(1/2)*z1^2", 1)
    spec = eigensolve(GalerkinConfig(f, basis_size=40))
    lam = spec.eigenvalues[:10]
    ref = np.array([1, 2, 2, 3, 3, 3, 4, 4, 4, 4], dtype=float)
    checks.append(("A_1 eigenvalues", bool(np.max(np.abs(lam - ref)) < 1e-6)))
    exact = torsion_exact_a1(0.5)
    checks.append(("A_1 exact torsion",
                   abs(exact.torsion - math.exp(0.16542114370045092)) < 1e-10))
    big = eigensolve(GalerkinConfig(f, basis_size=60, sector_cutoff=70))
    numeric = renormalize_and_torsion(big, ar_data(f))
    checks.append(("numeric path within 1e-3",
                   abs(numeric.log_torsion - exact.log_torsion) < 1e-3))
    return checks


_SUITES = {
    "clifford-identities": _suite_clifford,
    "parametrix-identities": _suite_parametrix,
    "oscillator-consistency": _suite_oscillator,
    "index-mckean-singer": _suite_index,
    "spectral-a1": _suite_spectral,
}


def _suite_names(suite: str) -> list:
    return list(_SUITES) if suite == "all" else [suite]


def cmd_verify(args, _f):
    names = _suite_names(args.suite)
    if any(name not in _SUITES for name in names):
        raise ValueError(f"unknown suite {args.suite!r}; choose from {sorted(_SUITES)} or 'all'")
    all_checks = []
    for name in names:
        for label, ok in _SUITES[name](args.seed):
            all_checks.append({"suite": name, "check": label, "passed": bool(ok)})
    return {}, {"checks": all_checks, "pass": all(c["passed"] for c in all_checks)}


# -- entry point --------------------------------------------------------------------


# the modules a command (for verify, a suite; torsion --exact has its own
# row) computes with beyond poly and weights, which this module imports; main
# imports them outside the report's timer, and no command imports another's
_MODULES = {
    "index": ("singspect.index_integral",),
    "torsion": ("singspect.spectral",),
    "torsion --exact": ("singspect.zeta",),
    "clifford-identities": ("singspect.clifford",),
    "parametrix-identities": ("singspect.parametrix",),
    "oscillator-consistency": ("singspect.oscillator",),
    "index-mckean-singer": ("singspect.index_integral",),
    "spectral-a1": ("singspect.spectral",),
}


def _import_modules(args) -> None:
    if args.command == "verify":
        keys = _suite_names(args.suite)
    elif args.command == "torsion" and args.exact:
        keys = ["torsion --exact"]
    else:
        keys = [args.command]
    for key in keys:
        for name in _MODULES.get(key, ()):  # an unknown suite: cmd_verify rejects it
            importlib.import_module(name)


class UsageError(ValueError):
    """A command line argparse rejects: unknown command, missing or ill-typed value."""


def _seed(text: str) -> int:
    """The type of `--seed`: a non-negative int, the seeds numpy's generators take."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {seed}")
    return seed


class _ArgParser(argparse.ArgumentParser):
    """Raises UsageError instead of exiting 2; takes no abbreviation (subparsers inherit both).

    Without abbreviations, `index --n 1` is a usage error, not `--nodes 1`.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    ap = _ArgParser(
        prog="singspect",
        description="Spectral invariants of quasi-homogeneous singularities.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weights", help="weight system, tameness and Milnor number")
    w.add_argument("polynomial")
    w.add_argument("--seed", type=_seed, default=0)
    w.set_defaults(func=cmd_weights)

    ix = sub.add_parser("index", help="Gaussian index integral across a t-grid")
    ix.add_argument("polynomial")
    ix.add_argument("--t", default="0.5,1,2")
    ix.add_argument("--samples", type=int, default=10 ** 6)
    ix.add_argument("--nodes", type=int, default=128)
    ix.add_argument("--seed", type=_seed, default=0)
    ix.add_argument("--method", choices=("mc", "quadrature"), default="mc")
    ix.set_defaults(func=cmd_index)

    tr = sub.add_parser("torsion", help="torsion invariant of a 1-variable singularity")
    tr.add_argument("polynomial")
    tr.add_argument("--exact", action="store_true")
    tr.add_argument("--basis", type=int, default=60)
    tr.add_argument("--sectors", type=int, default=None)
    tr.add_argument("--seed", type=_seed, default=0)
    tr.set_defaults(func=cmd_torsion)

    vf = sub.add_parser("verify", help="run an invariant suite")
    vf.add_argument("suite")
    vf.add_argument("--seed", type=_seed, default=0)
    vf.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    started = time.perf_counter()
    f = None
    try:
        args = build_parser().parse_args(argv)
        importing = time.perf_counter()
        _import_modules(args)
        started += time.perf_counter() - importing  # the timer leaves the imports out
        if args.command != "verify":
            f = parse(args.polynomial, infer_variable_count(args.polynomial))
        budgets, result = args.func(args, f)
    except tuple(cls for cls, _ in _EXIT_CODES) as exc:
        return _emit_error(exc, next(code for cls, code in _EXIT_CODES if isinstance(exc, cls)))
    _emit({
        "schema": "1",
        "manifest": {
            "command": args.command,
            "polynomial": args.suite if f is None else args.polynomial,
            "n": 0 if f is None else f.n,
            "seed": args.seed,
            "budgets": budgets,
            "version": __version__,
        },
        "result": result,
        "timing": {"wall_clock_s": time.perf_counter() - started},
    })
    if args.command == "verify" and not result["pass"]:
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
