"""Command-line orchestration: weights, index, torsion and verify commands.

Every report is a single JSON object on stdout with the shape

    {"schema": "1", "manifest": {...}, "result": {...}, "timing": {...}}

where the manifest captures command, polynomial, seed and budgets; identical
manifests produce byte-identical reports apart from the separate timing
field.  Errors render as structured JSON on stderr.  Exit codes: 0 success,
1 parse error (of the polynomial or of a `--t` value), 2 degenerate input,
3 McKean-Singer constancy violated, 4 unsupported request (a t that is not
positive and finite, `index` or `weights` `--samples` below 1, a rejected
quadrature node count, or a `--basis` or `--sectors` the Galerkin solver
rejects), 5 a `verify` check failed (the report is still written to stdout).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from fractions import Fraction
from typing import Optional

from . import __version__
from .index_integral import ConstancyViolated, mckean_singer_check
from .poly import MixedPolynomial, ParseError, infer_variable_count, parse
from .spectral import (
    GalerkinConfig,
    UnsupportedSingularity,
    ar_data,
    eigensolve,
    renormalize_and_torsion,
    torsion_exact_a1,
)
from .weights import (
    BilinearMonomialPresent,
    GradientVanishesAwayFromOrigin,
    NonIntegerMilnor,
    NotQuasiHomogeneous,
    WeightOutOfRange,
    WeightsNotUnique,
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

_DEGENERACY_ERRORS = (
    NotQuasiHomogeneous,
    WeightsNotUnique,
    WeightOutOfRange,
    BilinearMonomialPresent,
    GradientVanishesAwayFromOrigin,
    NonIntegerMilnor,
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


def _manifest(command: str, text: str, n: int, seed: int, budgets: dict) -> dict:
    return {
        "command": command,
        "polynomial": text,
        "n": n,
        "seed": seed,
        "budgets": budgets,
        "version": __version__,
    }


def _parse_poly(text: str, n: Optional[int]) -> MixedPolynomial:
    if n is None:
        n = infer_variable_count(text)
    return parse(text, n)


# -- commands -------------------------------------------------------------------


def cmd_weights(args) -> int:
    try:
        f = _parse_poly(args.polynomial, args.n)
    except ParseError as exc:
        return _emit_error(exc, EXIT_PARSE)
    if args.samples < 1:
        return _emit_error(ValueError(f"--samples must be at least 1, not {args.samples}"),
                           EXIT_UNSUPPORTED)
    started = time.perf_counter()
    try:
        if has_bilinear_monomial(f):
            raise BilinearMonomialPresent("f contains a z_i*z_j monomial with i != j")
        wv = solve_weights(f)
        nd = nondegeneracy_check(f, wv, samples_per_radius=args.samples // 3 + 1,
                                 seed=args.seed)
        report = tameness_report(wv, nd)
        mu = milnor_oracle(wv)
    except _DEGENERACY_ERRORS as exc:
        return _emit_error(exc, EXIT_DEGENERATE)
    result = {
        "q": [str(qi) for qi in wv.q],
        "d": wv.d,
        "k": list(wv.k),
        "mu": _exact(mu),
    }
    result.update(report.to_json_dict())
    if f.n <= 2 and f.total_degree() <= 6:
        result["mu_brute_force"] = _exact(milnor_brute_force(f, wv))
    _emit({
        "schema": "1",
        "manifest": _manifest("weights", args.polynomial, f.n, args.seed,
                              {"witness_samples": nd.samples}),
        "result": result,
        "timing": {"wall_clock_s": time.perf_counter() - started},
    })
    return EXIT_OK


def cmd_index(args) -> int:
    try:
        f = _parse_poly(args.polynomial, args.n)
    except ParseError as exc:
        return _emit_error(exc, EXIT_PARSE)
    started = time.perf_counter()
    try:
        t_grid = [float(x) for x in args.t.split(",")]
    except ValueError as exc:
        return _emit_error(exc, EXIT_PARSE)
    try:
        wv = solve_weights(f)
        nd = nondegeneracy_check(f, wv, seed=args.seed)
        mu_oracle = milnor_oracle(wv)
    except _DEGENERACY_ERRORS as exc:
        return _emit_error(exc, EXIT_DEGENERATE)
    budget = args.samples if args.method == "mc" else args.nodes
    try:
        res = mckean_singer_check(f, t_grid, budget=budget, seed=args.seed,
                                  method=args.method, report=nd)
    except ConstancyViolated as exc:
        return _emit_error(exc, EXIT_CONSTANCY)
    except ValueError as exc:  # a t, sample budget or node count the integral rejects
        return _emit_error(exc, EXIT_UNSUPPORTED)
    passed = res.mu_rounded == mu_oracle
    result = {
        "estimates": [
            {"t": e.t, "estimate": _with_err(e.estimate, e.std_error)}
            for e in res.estimates
        ],
        "mu_pooled": _with_err(res.mu_pooled,
                               max(e.std_error for e in res.estimates)),
        "mu_rounded": _exact(res.mu_rounded),
        "mu_oracle": _exact(mu_oracle),
        "pass": bool(passed),
        "method": res.method,
    }
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(res.to_csv())
        result["csv"] = args.csv
    _emit({
        "schema": "1",
        "manifest": _manifest("index", args.polynomial, f.n, args.seed,
                              {"budget": budget, "t_grid": t_grid,
                               "method": args.method}),
        "result": result,
        "timing": {"wall_clock_s": time.perf_counter() - started},
    })
    return EXIT_OK


def cmd_torsion(args) -> int:
    try:
        f = _parse_poly(args.polynomial, args.n)
    except ParseError as exc:
        return _emit_error(exc, EXIT_PARSE)
    started = time.perf_counter()
    try:
        data = ar_data(f)
    except UnsupportedSingularity as exc:
        return _emit_error(exc, EXIT_UNSUPPORTED)

    result: dict = {"r": data.r}
    exact_res = None
    if data.r == 1:
        exact_res = torsion_exact_a1(data.tau_effective)
        result["tau"] = data.tau_effective
    if args.exact:
        if exact_res is None:
            return _emit_error(
                UnsupportedSingularity("closed form exists for A_1 only"),
                EXIT_UNSUPPORTED,
            )
        result["path"] = "exact"
        result["T2"] = _exact(exact_res.torsion)
        result["log_T2"] = _exact(exact_res.log_torsion)
    else:
        try:
            cfg = GalerkinConfig(f, basis_size=args.basis, sector_cutoff=args.sectors)
        except ValueError as exc:
            return _emit_error(exc, EXIT_UNSUPPORTED)
        spec = eigensolve(cfg)
        numeric = renormalize_and_torsion(spec, data)
        result["path"] = "numeric" if exact_res is None else "both"
        result["T2"] = _with_err(numeric.torsion, numeric.error_bar * numeric.torsion)
        result["log_T2"] = _with_err(numeric.log_torsion, numeric.error_bar)
        result["spectrum_levels"] = len(spec.levels)
        result["fit_exponents"] = list(numeric.exponents)
        result["fit_condition"] = numeric.fit_condition
        result["fit_unstable"] = numeric.fit_unstable
        if exact_res is not None:
            result["T2_exact"] = _exact(exact_res.torsion)
            result["log_T2_exact"] = _exact(exact_res.log_torsion)
            result["log_difference"] = abs(numeric.log_torsion - exact_res.log_torsion)
    _emit({
        "schema": "1",
        "manifest": _manifest("torsion", args.polynomial, f.n, args.seed,
                              {"basis": args.basis, "sectors": args.sectors,
                               "exact": bool(args.exact)}),
        "result": result,
        "timing": {"wall_clock_s": time.perf_counter() - started},
    })
    return EXIT_OK


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
    from .parametrix import build_bundle, recursion_residual

    checks = []
    for text, n in (("(1/2)*z1^2", 1), ("z1^3", 1)):
        f = parse(text, n)
        b = build_bundle(f)
        checks.append((f"recursion identities {text}",
                       all(recursion_residual(b, j).is_zero() for j in range(1, b.k))))
        checks.append((f"str U_1 vanishes {text}",
                       b.U[1].diagonal_supertrace().is_zero()))
        strL2 = (b.B @ b.B).supertrace().at_u_zero()
        checks.append((f"str U_2 matches L^2 {text}",
                       (b.U[2].diagonal_supertrace() * 2 - strL2).is_zero()))
    return checks


def _suite_oscillator(seed: int) -> list:
    import numpy as np

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
    checks = []
    f = parse("z1^3", 1)
    wv = solve_weights(f)
    nd = nondegeneracy_check(f, wv, seed=seed)
    res = mckean_singer_check(f, (0.5, 1.0, 2.0), budget=200000, seed=seed, report=nd)
    checks.append(("McKean-Singer constancy z1^3", True))
    checks.append(("index rounds to mu", res.mu_rounded == milnor_oracle(wv)))
    return checks


def _suite_spectral(seed: int) -> list:
    import numpy as np

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


def cmd_verify(args) -> int:
    started = time.perf_counter()
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    if any(name not in _SUITES for name in names):
        return _emit_error(
            ValueError(f"unknown suite {args.suite!r}; choose from {sorted(_SUITES)} or 'all'"),
            EXIT_UNSUPPORTED,
        )
    all_checks = []
    for name in names:
        try:
            for label, ok in _SUITES[name](args.seed):
                all_checks.append({"suite": name, "check": label, "passed": bool(ok)})
        except ConstancyViolated as exc:
            all_checks.append({"suite": name, "check": str(exc), "passed": False})
    passed = all(c["passed"] for c in all_checks)
    _emit({
        "schema": "1",
        "manifest": _manifest("verify", args.suite, 0, args.seed, {}),
        "result": {"checks": all_checks, "pass": passed},
        "timing": {"wall_clock_s": time.perf_counter() - started},
    })
    return EXIT_OK if passed else EXIT_VERIFY


# -- entry point --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="singspect",
        description="Spectral invariants of quasi-homogeneous singularities.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    w = sub.add_parser("weights", help="weight system, tameness and Milnor number")
    w.add_argument("polynomial")
    w.add_argument("--n", type=int, default=None)
    w.add_argument("--seed", type=int, default=0)
    w.add_argument("--samples", type=int, default=12000)
    w.set_defaults(func=cmd_weights)

    ix = sub.add_parser("index", help="Gaussian index integral across a t-grid")
    ix.add_argument("polynomial")
    ix.add_argument("--n", type=int, default=None)
    ix.add_argument("--t", default="0.5,1,2")
    ix.add_argument("--samples", type=int, default=10 ** 6)
    ix.add_argument("--nodes", type=int, default=128)
    ix.add_argument("--seed", type=int, default=0)
    ix.add_argument("--method", choices=("mc", "quadrature"), default="mc")
    ix.add_argument("--csv", default=None)
    ix.set_defaults(func=cmd_index)

    tr = sub.add_parser("torsion", help="torsion invariant of a 1-variable singularity")
    tr.add_argument("polynomial")
    tr.add_argument("--n", type=int, default=None)
    tr.add_argument("--exact", action="store_true")
    tr.add_argument("--basis", type=int, default=60)
    tr.add_argument("--sectors", type=int, default=70)
    tr.add_argument("--seed", type=int, default=0)
    tr.set_defaults(func=cmd_torsion)

    vf = sub.add_parser("verify", help="run an invariant suite")
    vf.add_argument("suite")
    vf.add_argument("--seed", type=int, default=0)
    vf.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
