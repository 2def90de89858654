import json
import os
import subprocess
import sys
import warnings

import pytest


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "singspect.cli", *args],
        capture_output=True, text=True,
    )
    return proc


def test_weights_command_report():
    proc = run_cli("weights", "z1^2 + z1*z2^3 + z2*z3^3", "--seed", "7")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["schema"] == "1"
    res = report["result"]
    assert res["q"] == ["1/2", "1/6", "5/18"]
    assert res["condition_13"] is False
    assert res["mu"] == {"tag": "exact", "value": 13}
    assert report["manifest"]["command"] == "weights"


def test_weights_single_variable():
    proc = run_cli("weights", "z1^2")
    assert proc.returncode == 0
    res = json.loads(proc.stdout)["result"]
    assert res["q"] == ["1/2"] and res["mu"]["value"] == 1
    assert res["mu_brute_force"]["value"] == 1


@pytest.mark.parametrize("name", ["NotQuasiHomogeneous", "WeightsNotUnique", "WeightOutOfRange",
                                  "BilinearMonomialPresent", "GradientVanishesAwayFromOrigin",
                                  "NonIntegerMilnor"])
def test_every_degeneracy_error_exits_2(name):
    from singspect import cli, weights

    cls = getattr(weights, name)
    assert issubclass(cls, weights.DegenerateSingularity)
    assert next(code for c, code in cli._EXIT_CODES if issubclass(cls, c)) == 2


def test_degenerate_weights_keep_their_type_name(capsys):
    from singspect import cli

    assert cli.main(["weights", "z1^3 + z1^2"]) == 2  # 3 q = 1 and 2 q = 1
    assert json.loads(capsys.readouterr().err)["error"]["type"] == "NotQuasiHomogeneous"


def test_weights_bilinear_exit_code():
    # both commands check for a bilinear monomial before solving for weights
    for command in ("weights", "index"):
        proc = run_cli(command, "z1*z2")
        assert proc.returncode == 2
        assert proc.stdout == ""
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "BilinearMonomialPresent"


def test_parse_error_exit_code():
    for args, offset in ((["weights", "z1 + % z2"], 5), (["index", "z1^3", "--t", "1,,2"], 2),
                         (["weights", ""], 0), (["weights", " "], 1), (["weights", "("], 1)):
        proc = run_cli(*args)
        assert proc.returncode == 1
        assert proc.stdout == ""
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "ParseError"
        assert err["error"]["offset"] == offset


def test_weights_of_a_high_degree_a_r(capsys):
    from singspect import cli

    assert cli.main(["weights", "z1^13"]) == 0
    assert json.loads(capsys.readouterr().out)["result"]["mu"]["value"] == 12


def test_weights_brute_force_is_bounded_by_mu_not_by_n(capsys):
    # one rule for every n: the graded count runs for mu <= BRUTE_FORCE_MAX_MU
    from singspect import cli
    from singspect.weights import BRUTE_FORCE_MAX_MU

    assert cli.main(["weights", "z1^2 + z1*z2^3 + z2*z3^3"]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["mu_brute_force"] == res["mu"] == {"tag": "exact", "value": 13}
    assert res["isolated_witness"]["heuristic"] is False
    assert cli.main(["weights", "z1^40*z2 + z2^41"]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["mu"]["value"] == 1600 > BRUTE_FORCE_MAX_MU
    assert "mu_brute_force" not in res


def reject_constant(constant):
    raise ValueError(f"{constant} is not JSON")


def test_weights_of_a_large_coefficient_is_strict_json():
    # |grad f|^2 of 10^152 z1^3 overflows a float at radius 10; the Monte
    # Carlo proposal's scale follows the coefficient, so the index finds mu = 2
    proc = run_cli("weights", "10^150*z1^3")
    assert proc.returncode == 0
    assert proc.stderr == ""
    json.loads(proc.stdout, parse_constant=reject_constant)
    for polynomial in ("10^150*z1^3", "10^152*z1^3"):
        proc = run_cli("index", polynomial, "--t", "0.5,1,2", "--samples", "100000")
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout, parse_constant=reject_constant)["result"]["pass"] is True


@pytest.mark.parametrize("polynomial,mu", [
    ("10^400*z1^2", 1), ("10^200*z1^3", 2), ("10^152*z1^3", 2), ("(1/10^200)*z1^3", 2),
    ("(1/10^160)*(z1^3+z2^4)", 6),
], ids=["coefficient-above-float-range", "gradient-above-float-range",
        "gradient-above-float-range-at-radius-10", "gradient-below-float-range",
        "hessian-determinant-subnormal"])
def test_weights_is_exact_at_any_coefficient_scale(polynomial, mu, capsys):
    # weights computes nothing in floats, so no coefficient is outside its range
    from singspect import cli

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["weights", polynomial]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    res = json.loads(out, parse_constant=reject_constant)["result"]
    assert res["mu"] == res["mu_brute_force"] == {"tag": "exact", "value": mu}


def test_index_constancy_violation_exit_code(monkeypatch, capsys):
    from singspect import cli, index_integral
    from singspect.index_integral import ConstancyViolated

    def violated(*args, **kwargs):
        raise ConstancyViolated(0.5, 1.0, 4.2)

    monkeypatch.setattr(index_integral, "mckean_singer_check", violated)
    assert cli.main(["index", "z1^3", "--t", "0.5,1"]) == cli.EXIT_CONSTANCY == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"]["type"] == "ConstancyViolated"


def test_index_command():
    proc = run_cli("index", "z1^3", "--t", "0.5,1,2", "--samples", "100000",
                   "--seed", "7")
    assert proc.returncode == 0
    res = json.loads(proc.stdout)["result"]
    assert res["mu_oracle"]["value"] == 2
    assert res["mu_rounded"]["value"] == 2
    assert res["pass"] is True
    assert len(res["estimates"]) == 3
    for entry in res["estimates"]:
        assert "stderr" in entry["estimate"]


def test_index_quadrature_product():
    proc = run_cli("index", "z1^3 + z2^3", "--t", "1", "--method", "quadrature",
                   "--nodes", "48")
    assert proc.returncode == 0
    res = json.loads(proc.stdout)["result"]
    assert res["mu_rounded"]["value"] == 4 and res["pass"] is True
    assert len(res["estimates"]) == 1


def test_index_quadrature_with_unequal_weights():
    # E7: the t-grid check compares three radial windows, each within its bar
    proc = run_cli("index", "z1^3 + z1*z2^3", "--t", "0.5,1,2", "--method", "quadrature",
                   "--nodes", "32")
    assert proc.returncode == 0
    res = json.loads(proc.stdout)["result"]
    assert res["mu_rounded"]["value"] == 7 and res["pass"] is True
    assert [e["t"] for e in res["estimates"]] == [0.5, 1.0, 2.0]
    for e in res["estimates"]:
        assert abs(e["estimate"]["value"] - 7) <= e["estimate"]["stderr"]


def test_index_quadrature_rejects_node_counts():
    # 20000 and 400 nodes exceed the point cap; 1 node has no half-node rule,
    # and below 8 nodes the half-node error bar falls short of the error
    for nodes in ("20000", "400", "1", "2", "3", "4", "5", "6", "7"):
        proc = run_cli("index", "z1^3 + z2^3", "--t", "1", "--method", "quadrature",
                       "--nodes", nodes)
        assert proc.returncode == 4
        assert proc.stdout == ""
        err = json.loads(proc.stderr)
        assert err["error"]["type"] == "UnsupportedNodeCount"


def test_index_single_t_gaussian_normalization():
    proc = run_cli("index", "(1/2)*z1^2", "--t", "1", "--samples", "100000",
                   "--seed", "2")
    assert proc.returncode == 0
    res = json.loads(proc.stdout)["result"]
    assert abs(res["mu_pooled"]["value"] - 1.0) < 0.01
    assert res["mu_pooled"] == res["estimates"][0]["estimate"]


@pytest.mark.parametrize("args,code", [
    (["index", "z1^3", "--t", ""], 1),
    (["index", "z1^3", "--t", "a"], 1),
    (["index", "z1^3", "--t", "1,,2"], 1),
    (["index", "z1^3", "--t", "0"], 4),
    (["index", "z1^3", "--t", "-1"], 4),
    (["index", "z1^3", "--t", "nan"], 4),
    (["index", "z1^3", "--t", "inf"], 4),
    (["index", "z1^3", "--t", "1", "--samples", "0"], 4),
    (["index", "z1^3", "--t", "1", "--samples", "-5"], 4),
    (["index", "z1^3", "--t", "1", "--samples", "1"], 4),  # no standard error from one sample
    (["torsion", "z1^3", "--basis", "4"], 4),
    (["torsion", "z1^3", "--sectors", "2"], 4),
    (["torsion", "z1^3", "--basis", "100000"], 4),
    (["torsion", "z1^3", "--sectors", "4097"], 4),  # one above _MAX_SECTOR_CUTOFF
    (["torsion", "z1^110", "--sectors", "222"], 4),  # the oscillator scale overflows
    (["weights", "z1^3", "--samples", "-5"], 4),  # weights takes no --samples
    (["weights", "z1^3", "--samples", "0"], 4),
    (["weights", "conj(z1)^3"], 4),  # outside the weight system: not holomorphic
    (["index", "z1^3 + z1*conj(z1)"], 4),
    (["index", "z1^3", "--samples", "abc"], 4),  # argparse usage errors
    (["index", "z1^3", "--t"], 4),
    (["nope"], 4),
    (["index", "z1^3", "--n", "1"], 4),  # n comes from the text, and --n is not --nodes
    # coefficients outside the float range of the numeric layers
    (["index", "10^400*z1^2"], 4),  # the proposal variance underflows
    (["torsion", "10^400*z1^2"], 4),
    (["torsion", "10^200*z1^3"], 4),
    (["torsion", "(1/10^200)*z1^2"], 4),
    # a Monte Carlo estimate that is not finite, and a proposal variance that overflows
    (["index", "z1^13 + 10^150*z2^2", "--t", "1", "--samples", "20000"], 4),
    (["index", "(1/10^300)*z1^2 + z2^2", "--t", "1", "--samples", "20000"], 4),
    (["index", "z1^3 + z2^4", "--t", "1e-300", "--samples", "2000"], 4),
    # a subnormal t, for either method, before any estimate
    (["index", "z1^3", "--t", "1e-310", "--samples", "2000"], 4),
    (["index", "z1^3", "--t", "1e-310", "--method", "quadrature"], 4),
    (["index", "z1^3", "--t", "1e-320", "--samples", "2000"], 4),
    # an estimate of 0: no sample or node carried the integrand
    (["index", "(1/10^300)*z1^2 + z2^2", "--t", "1", "--method", "quadrature"], 4),
    # a degenerate f is degenerate at any coefficient scale
    (["weights", "(1/10^154)*(z1+z2)^3"], 2),
    (["weights", "(1/10^155)*(z1+z2)^3"], 2),
    # a seed numpy's generators reject, also where no generator reads it
    (["weights", "z1^3", "--seed", "-1"], 4),
    (["index", "z1^3", "--t", "1", "--samples", "1000", "--seed", "-1"], 4),
    (["index", "z1^3", "--t", "1", "--method", "quadrature", "--seed", "-1"], 4),
    (["torsion", "z1^3", "--seed", "-1"], 4),
    (["verify", "all", "--seed", "-1"], 4),
    (["verify", "clifford-identities", "--seed", "-1"], 4),
    # the quadrature rule is not finite
    (["index", "10^100*(z1^3 + z1*z2^3)", "--t", "1", "--method", "quadrature",
      "--nodes", "8"], 4),
    (["index", "(1/10^100)*(z1^3 + z1*z2^3)", "--t", "1", "--method", "quadrature",
      "--nodes", "8"], 4),
    (["index", "10^120*(z1^3+z2^4)", "--t", "1", "--method", "quadrature", "--nodes", "8"], 4),
], ids=["t-empty", "t-text", "t-gap", "t-zero", "t-negative", "t-nan", "t-inf",
        "samples-zero", "samples-negative", "samples-one", "basis-4", "sectors-2", "basis-100000",
        "sectors-4097", "torsion-overflow", "weights-samples-negative", "weights-samples-zero",
        "weights-conjugate", "index-conjugate", "usage-samples-text",
        "usage-t-missing", "usage-unknown-command", "usage-n", "index-coefficient-overflow",
        "torsion-coefficient-overflow", "torsion-scale-overflow", "torsion-scale-underflow",
        "index-mc-not-finite-large", "index-mc-variance-overflow", "index-mc-not-finite-small-t",
        "index-mc-subnormal-t", "quadrature-subnormal-t", "index-mc-subnormal-t-1e-320",
        "quadrature-zero",
        "weights-degenerate-small-154", "weights-degenerate-small-155", "weights-seed-negative",
        "index-seed-negative", "quadrature-seed-negative", "torsion-seed-negative",
        "verify-all-seed-negative", "verify-clifford-seed-negative", "quadrature-nan-large",
        "quadrature-nan-small", "quadrature-nan-anisotropic"])
def test_bad_numeric_arguments_are_structured_errors(args, code, capsys):
    from singspect import cli

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # stderr holds only the JSON error
        assert cli.main(args) == code
    out, err = capsys.readouterr()
    assert out == ""
    payload = json.loads(err)
    assert payload["schema"] == "1" and payload["error"]["message"]


def test_help_still_exits_zero(capsys):
    from singspect import cli

    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_torsion_exact():
    proc = run_cli("torsion", "(1/2)*z1^2", "--exact")
    assert proc.returncode == 0
    res = json.loads(proc.stdout)["result"]
    assert res["path"] == "exact"
    assert abs(res["T2"]["value"] - 1.1798899172981459) < 1e-12


def test_torsion_exact_report_ignores_basis_and_sectors(capsys):
    from singspect import cli

    reports = []
    for extra in ([], ["--basis", "20", "--sectors", "30"], ["--basis", "200", "--sectors", "2"]):
        assert cli.main(["torsion", "(1/2)*z1^2", "--exact", *extra]) == 0
        report = json.loads(capsys.readouterr().out)
        report.pop("timing")
        reports.append(report)
    assert reports[0]["manifest"]["budgets"] == {"exact": True}
    assert reports[1] == reports[0] and reports[2] == reports[0]


def test_torsion_numeric_close_to_exact(capsys):
    from singspect import cli
    from singspect.poly import parse
    from singspect.spectral import GalerkinConfig, ar_data, eigensolve, renormalize_and_torsion

    assert cli.main(["torsion", "(1/2)*z1^2", "--basis", "60", "--sectors", "70"]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["path"] == "both"
    assert res["log_difference"] < 1e-3
    # log T2 at splits 0.5, 1 and 2: the value is the middle one, the bar their spread
    splits = res["log_T2_splits"]
    assert len(splits) == 3
    assert splits[1] == res["log_T2"]["value"]
    assert max(splits) - min(splits) == res["log_T2"]["stderr"]
    f = parse("(1/2)*z1^2", 1)
    spec = eigensolve(GalerkinConfig(f, basis_size=60, sector_cutoff=70))
    outer = [renormalize_and_torsion(spec, ar_data(f), split=s).log_torsion for s in (0.5, 2.0)]
    assert [splits[0], splits[2]] == outer


@pytest.mark.parametrize("poly,unstable", [("z1^4", False), ("(1/2)*z1^2", False)])
def test_torsion_reports_fit_diagnostics(poly, unstable, capsys):
    from singspect import cli

    assert cli.main(["torsion", poly, "--basis", "60", "--sectors", "70"]) == 0
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["fit_unstable"] is unstable
    assert res["fit_condition"] > 0


def test_torsion_default_sectors_meet_the_solver_floor(capsys):
    # 70 sectors by default, or the solver's floor 2r + 2 when that is larger
    from singspect import cli

    for poly, basis, sectors in (("z1^3", "20", 70), ("z1^40", "200", 80)):
        assert cli.main(["torsion", poly, "--basis", basis]) == 0
        assert json.loads(capsys.readouterr().out)["manifest"]["budgets"]["sectors"] == sectors
    assert cli.main(["torsion", "z1^40", "--basis", "200", "--sectors", "70"]) == 4
    assert (json.loads(capsys.readouterr().err)["error"]["message"]
            == "sector_cutoff must be from 80 to 4096, not 70")


def test_torsion_unsupported_n2():
    proc = run_cli("torsion", "z1^3 + z2^3")
    assert proc.returncode == 4


def test_torsion_exact_requires_a1():
    proc = run_cli("torsion", "z1^3", "--exact")
    assert proc.returncode == 4


def test_report_determinism():
    a = run_cli("index", "z1^3", "--t", "0.5,1", "--samples", "20000", "--seed", "3")
    b = run_cli("index", "z1^3", "--t", "0.5,1", "--samples", "20000", "--seed", "3")
    da, db = json.loads(a.stdout), json.loads(b.stdout)
    da.pop("timing"), db.pop("timing")
    assert json.dumps(da, sort_keys=True) == json.dumps(db, sort_keys=True)


def test_verify_suites():
    proc = run_cli("verify", "clifford-identities", "--seed", "7")
    assert proc.returncode == 0
    res = json.loads(proc.stdout)["result"]
    assert res["pass"] is True
    proc2 = run_cli("verify", "not-a-suite")
    assert proc2.returncode == 4


def test_verify_failure_exit_code(monkeypatch, capsys):
    from singspect import cli

    monkeypatch.setitem(cli._SUITES, "clifford-identities", lambda seed: [("stub", False)])
    assert cli.main(["verify", "clifford-identities"]) == cli.EXIT_VERIFY == 5
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["pass"] is False


def test_constancy_violation_fails_its_own_verify_check(monkeypatch, capsys):
    from singspect import cli, index_integral
    from singspect.index_integral import ConstancyViolated

    def violated(*args, **kwargs):
        raise ConstancyViolated(0.5, 1.0, 4.2)

    monkeypatch.setattr(index_integral, "mckean_singer_check", violated)
    assert cli.main(["verify", "index-mckean-singer"]) == cli.EXIT_VERIFY == 5
    res = json.loads(capsys.readouterr().out)["result"]
    assert res["checks"] == [
        {"suite": "index-mckean-singer", "check": "McKean-Singer constancy z1^3", "passed": False},
        {"suite": "index-mckean-singer", "check": "index rounds to mu", "passed": False},
    ]
    assert res["pass"] is False


def test_cli_import_leaves_scipy_special_unloaded():
    # scipy.special would cost about half of the CLI's import time
    code = "import sys, singspect.cli; print('scipy.special' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def _env_without_blas_threads(**extra):
    # importing singspect.cli in this process has set OPENBLAS_NUM_THREADS here
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    return {**env, **extra}


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
@pytest.mark.parametrize("extra,threads", [({}, 1), ({"OPENBLAS_NUM_THREADS": "2"}, 2)],
                         ids=["default", "user-set"])
def test_cli_runs_one_blas_thread_unless_the_user_chose(extra, threads):
    # OpenBLAS caps its pool at the CPUs it may use, so 2 threads need 2 CPUs
    if threads > len(os.sched_getaffinity(0)):
        pytest.skip("needs 2 CPUs")
    code = "import os, singspect.cli, numpy; print(len(os.listdir('/proc/self/task')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_env_without_blas_threads(**extra))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == str(threads)


@pytest.mark.parametrize("args", [
    ("torsion", "z1^3", "--basis", "60", "--sectors", "70"),
    ("index", "z1^3 + z2^4", "--method", "quadrature", "--t", "1", "--nodes", "64"),
], ids=["torsion", "index-quadrature"])
def test_blas_thread_count_leaves_reports_unchanged(args):
    reports = []
    for extra in ({}, {"OPENBLAS_NUM_THREADS": "2"}):
        proc = subprocess.run([sys.executable, "-m", "singspect.cli", *args],
                              capture_output=True, text=True,
                              env=_env_without_blas_threads(**extra))
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout)
        del report["timing"]
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


@pytest.mark.parametrize("call,unloaded", [
    ("cli.main(['verify', 'clifford-identities'])", "numpy"),
    ("cli.main(['verify', 'parametrix-identities'])", "numpy"),
    ("build_U(parse('z1^3', 1), 4) and 0", "numpy"),
    ("cli.main(['weights', 'z1^3 + z2^4'])", "singspect.spectral"),
    ("cli.main(['weights', 'z1^3 + z2^4'])", "numpy"),
    ("cli.main(['index', 'z1^3', '--t', '1', '--samples', '1000'])", "singspect.spectral"),
    ("cli.main(['torsion', 'z1^3', '--basis', '20', '--sectors', '24'])",
     "singspect.index_integral"),
    ("cli.main(['torsion', '(1/2)*z1^2', '--exact'])", "singspect.index_integral"),
    ("cli.main(['torsion', '(1/2)*z1^2', '--exact'])", "numpy"),
], ids=["verify-clifford", "verify-parametrix", "build_U", "weights", "weights-numpy", "index",
        "torsion", "torsion-exact", "torsion-exact-numpy"])
def test_each_command_imports_only_what_it_runs(call, unloaded):
    # a module-level numpy import in an exact module would undo the saving
    code = ("import contextlib, io, sys\n"
            "from singspect import cli\n"
            "from singspect.parametrix import build_U\n"
            "from singspect.poly import parse\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = {call}\n"
            f"print(code, {unloaded!r} in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


# one run per command and per row of cli._MODULES, and whether it is numpy-free
_STARTUP_RUNS = {
    "weights": (["weights", "z1^3 + z2^4"], True),
    "index": (["index", "z1^3", "--t", "1", "--samples", "1000"], False),
    "torsion": (["torsion", "z1^3", "--basis", "20", "--sectors", "24"], False),
    "torsion --exact": (["torsion", "(1/2)*z1^2", "--exact"], True),
    "clifford-identities": (["verify", "clifford-identities"], True),
    "parametrix-identities": (["verify", "parametrix-identities"], True),
    "oscillator-consistency": (["verify", "oscillator-consistency"], False),
    "index-mckean-singer": (["verify", "index-mckean-singer"], False),
    "spectral-a1": (["verify", "spectral-a1"], False),
}


@pytest.mark.parametrize("command", list(_STARTUP_RUNS))
def test_no_command_imports_dataclasses(command):
    # dataclasses (with inspect, ast and dis) costs about 8 ms of every process's
    # start-up; pytest loads it, so each command runs in a fresh interpreter
    from singspect import cli

    assert set(_STARTUP_RUNS) == {"weights", *cli._MODULES}
    argv, numpy_free = _STARTUP_RUNS[command]
    code = ("import contextlib, io, sys\n"
            "from singspect import cli, parametrix\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    code = cli.main({argv!r})\n"
            "print(code, *(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert loaded[0] == "0" and "dataclasses" not in loaded
    if numpy_free:
        assert loaded == ["0"]


def test_numeric_torsion_leaves_scipy_integrate_unloaded():
    # the Weyl tail's upper Mellin integral is closed-form, so no quadrature
    code = ("import sys, singspect.cli; "
            "code = singspect.cli.main(['torsion', 'z1^3', '--basis', '20', '--sectors', '24']); "
            "print(code, 'scipy.integrate' in sys.modules, file=sys.stderr)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.strip() == "0 False"
    assert json.loads(proc.stdout)["result"]["path"] == "numeric"


def test_every_command_runs_without_scipy():
    # the package needs numpy only; the test extra installs scipy, so hide it
    from test_benchmark_hooks import COMMANDS

    runs = COMMANDS + [
        ["torsion", "(1/2)*z1^2", "--exact"],
        ["index", "z1^3 + z2^3", "--t", "1", "--method", "quadrature", "--nodes", "16"],
        ["verify", "all", "--seed", "7"],
    ]
    code = f"""
import contextlib, io, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from singspect import cli, spectral
for args in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        print(cli.main(args), file=sys.stderr)
print(spectral.torsion_sum_check(0.5, 0.5).passed, file=sys.stderr)
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["0"] * len(runs) + ["True"]
