"""One benchmark job, run in a fresh interpreter.

    python3 perfbench/child.py [--spans PATH | --count PATH] cli ARG...
    python3 perfbench/child.py [--spans PATH | --count PATH] build_U POLY N K
    python3 perfbench/child.py helper REQUESTS_JSON

`cli` runs `singspect.cli.main(ARG...)`, which prints its JSON report.
`build_U` is the library job of scripts/run_parametrix_residuals.py: it
builds the exact parametrix U_0..U_K and prints a report of the same shape
(`result` with the symbol count of each U_j, `timing.wall_clock_s`).

Untraced CLI jobs do not come here: the benchmark runs them as
`python3 -m singspect.cli`.  With `--spans` the child wraps the package's
public functions (see spans.py) and writes the spans to PATH at exit; with
`--count` it counts GaussianRational operations instead.

`helper` is the benchmark's long-lived side process.  It computes the exact
oracles and the library versions once (first stdout line), then times
`calibration_s()` once per line read from stdin.  Keeping numpy and the
package out of the benchmark process keeps that process smaller than every
job: a child's max RSS as the kernel reports it includes the RSS of the
parent that spawned it.
"""

from __future__ import annotations

import json
import sys
import time

# the benchmark reports times in "reference seconds": measured seconds x
# CALIBRATION_REF_S / calibration_s().  The constant is about the duration of
# calibration_s() on an unloaded 2-core Intel Xeon (Python 3.11, numpy 2.4);
# comparisons between runs do not depend on it.
CALIBRATION_REF_S = 0.06


def calibration_s() -> float:
    """Time a fixed mix of Fraction, numpy and small dense linear-algebra work.

    The machine this benchmark was built on (2 vCPUs of a shared host)
    drifts in speed by 15-30% over seconds to minutes, as other tenants load
    its cores and its cache, and a 20 s run cannot average that out.  The
    benchmark times this fixed work before and after every job and reports
    times scaled by CALIBRATION_REF_S / calibration.  In a loaded period
    this cut the spread (IQR / median over 5 seeds) of wall_s from 0.14 to
    0.09 on index-quadrature, and an earlier variant without the 16 MB array
    cut it from 0.18 to 0.05 on torsion.  The 16 MB complex array stands in
    for the index jobs, whose arrays do not fit in a core's cache.
    """
    import numpy as np
    from fractions import Fraction

    started = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 3000):
        acc += Fraction(k % 7 + 1, k % 11 + 1) * Fraction(3, k % 5 + 2)
    z = np.linspace(0.0, 1.0, 1_000_000) * (1 + 1j)
    for _ in range(4):
        z = np.exp(-np.abs(z) ** 2) * z + 0.5j
    m = np.eye(60) + np.full((60, 60), 1e-3)
    for _ in range(60):
        np.linalg.eigvalsh(np.linalg.matrix_power(m, 3))
    return time.perf_counter() - started


def helper(requests: list) -> int:
    import numpy
    import scipy

    from jobs import compute_oracles

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    calibration_s()
    print(json.dumps({
        "oracles": compute_oracles(requests),
        "versions": {"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas},
    }), flush=True)
    for _ in sys.stdin:
        print(calibration_s(), flush=True)
    return 0


def build_U_job(text: str, n: int, k: int) -> int:
    from singspect.parametrix import build_U
    from singspect.poly import parse

    started = time.perf_counter()
    bundle = build_U(parse(text, n), k)
    wall = time.perf_counter() - started
    sys.stdout.write(json.dumps({
        "result": {"k": bundle.k, "symbols": [len(u.parts) for u in bundle.U]},
        "timing": {"wall_clock_s": wall},
    }, sort_keys=True) + "\n")
    return 0


def main(argv) -> int:
    mode, out_path = None, None
    if argv and argv[0] in ("--spans", "--count"):
        mode, out_path, argv = argv[0], argv[1], argv[2:]
    kind, args = argv[0], argv[1:]
    if kind == "helper":
        return helper(json.loads(args[0]))
    if mode is None:
        return build_U_job(args[0], int(args[1]), int(args[2]))

    import spans

    rec = spans.Recorder()
    started = time.perf_counter()
    import singspect.cli  # noqa: F401  (timed: the import a CLI user pays)
    import_s = time.perf_counter() - started
    if mode == "--spans":
        spans.install_spans(rec)
    else:
        spans.install_counters(rec)
    from singspect import cli, parametrix

    code = 1
    try:
        if kind == "cli":
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        else:
            code = build_U_job(args[0], int(args[1]), int(args[2]))
    finally:
        with open(out_path, "w") as fh:
            json.dump({"import_s": import_s, "spans": rec.spans, "counters": rec.counters,
                       "matmul_cache_entries": len(parametrix._matmul_cache)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
