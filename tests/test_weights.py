import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from singspect.gaussian_rational import GaussianRational
from singspect.poly import gradient, infer_variable_count, parse
from singspect.weights import (
    BRUTE_FORCE_MAX_MU,
    BilinearMonomialPresent,
    GradientVanishesAwayFromOrigin,
    NonIntegerMilnor,
    NotQuasiHomogeneous,
    WeightOutOfRange,
    WeightVector,
    WeightsNotUnique,
    _rref,
    milnor_brute_force,
    milnor_oracle,
    nondegeneracy_check,
    solve_weights,
    tameness_report,
    weight_residuals,
)


def test_known_weight_systems():
    wv = solve_weights(parse("z1^2 + z1*z2^3 + z2*z3^3", 3))
    assert wv.q == (Fraction(1, 2), Fraction(1, 6), Fraction(5, 18))
    wv2 = solve_weights(parse("z1^2 + z1*z2^2 + z2*z3^4", 3))
    assert wv2.q == (Fraction(1, 2), Fraction(1, 4), Fraction(3, 16))
    for r in (1, 2, 3, 4):
        wv_r = solve_weights(parse(f"z1^{r + 1}", 1))
        assert wv_r.q == (Fraction(1, r + 1),)


def test_weight_errors():
    with pytest.raises(WeightsNotUnique):
        solve_weights(parse("z1*z2", 2))
    with pytest.raises(NotQuasiHomogeneous):
        solve_weights(parse("z1^2 + z1^3", 1))
    with pytest.raises(NotQuasiHomogeneous):
        solve_weights(parse("1 + z1^2", 1))
    with pytest.raises(WeightOutOfRange):
        solve_weights(parse("z1^2 + z2", 2))  # linear term forces q2 = 1
    with pytest.raises(ValueError):
        solve_weights(parse("z1*conj(z1)", 1))


def test_reduced_weight_representation():
    wv = solve_weights(parse("z1^2 + z1*z2^3 + z2*z3^3", 3))
    assert wv.d == 18 and wv.k == (9, 3, 5)
    import math
    assert math.gcd(wv.d, *wv.k) == 1


def test_solved_weights_satisfy_system_exactly():
    for text, n in (("z1^2 + z1*z2^3 + z2*z3^3", 3), ("z1^3 + z2^3", 2),
                    ("z1^2 + z2^6", 2), ("z1^3 + z1*z2^4", 2)):
        f = parse(text, n)
        wv = solve_weights(f)
        assert all(r == 0 for r in weight_residuals(f, wv))


def test_tameness_examples():
    wv = solve_weights(parse("z1^2 + z1*z2^3 + z2*z3^3", 3))
    rep = tameness_report(wv)
    assert rep.gap == Fraction(1, 3) and rep.condition_13 is False
    assert rep.delta == 0

    rep2 = tameness_report(WeightVector((Fraction(1, 2), Fraction(1, 2))))
    assert rep2.gap == 0 and rep2.condition_13 is True
    assert rep2.delta == Fraction(2, 3)

    rep3 = tameness_report(WeightVector((Fraction(1, 3),)))
    assert rep3.delta == Fraction(1, 2)
    assert rep3.delta2 == Fraction(3, 4) and rep3.delta3 == Fraction(3, 4)


def test_delta_positive_iff_condition():
    for q in [(Fraction(1,2), Fraction(1,6), Fraction(5,18)),
              (Fraction(1,2), Fraction(1,2)), (Fraction(1,3), Fraction(1,4)),
              (Fraction(1,2), Fraction(1,4), Fraction(3,16))]:
        rep = tameness_report(WeightVector(q))
        assert (rep.delta > 0) == rep.condition_13


@settings(max_examples=80, deadline=None)
@given(st.fractions(min_value=Fraction(1, 30), max_value=Fraction(1, 2)),
       st.fractions(min_value=0, max_value=Fraction(1, 3)))
def test_tameness_monotone_in_gap(qM, shrink):
    # shrinking the gap never flips condition_13 from True to False
    qm = qM - min(shrink, qM - Fraction(1, 60))
    if not (0 < qm <= qM <= Fraction(1, 2)):
        return
    wide = tameness_report(WeightVector((qM, qm)))
    qm2 = qm + (qM - qm) / 2
    narrow = tameness_report(WeightVector((qM, qm2)))
    if wide.condition_13:
        assert narrow.condition_13


def test_milnor_oracle_examples():
    for n in (1, 2, 3):
        assert milnor_oracle(WeightVector((Fraction(1, 2),) * n)) == 1
    assert milnor_oracle(WeightVector((Fraction(1, 3),))) == 2
    assert milnor_oracle(WeightVector((Fraction(1, 3), Fraction(1, 3)))) == 4
    assert milnor_oracle(solve_weights(parse("z1^2 + z1*z2^3 + z2*z3^3", 3))) == 13
    with pytest.raises(NonIntegerMilnor):
        milnor_oracle(WeightVector((Fraction(2, 5), Fraction(1, 2))))


def test_milnor_brute_force_agreement():
    cases = [
        ("z1^3", 1), ("z1^4", 1), ("z1^5", 1), ("z1^6", 1),
        ("z1^3 + z2^3", 2), ("z1^2 + z2^4", 2), ("z1^3 + z2^4", 2),
        ("z1^3 + z1*z2^3", 2), ("z1^4 + z2^4", 2), ("z1^2 + z2^6", 2),
        ("z1^5 + z2^3", 2), ("z1^4 + z1*z2^3", 2),
    ]
    for text, n in cases:
        f = parse(text, n)
        wv = solve_weights(f)
        assert milnor_brute_force(f, wv) == milnor_oracle(wv), text


def assert_certificate(exc, f, wv):
    # an exact certificate: a monomial of the stated weighted degree, above
    # the top degree sum_i (1 - 2 q_i), that no combination of the products
    # m * d_j f of that degree reaches, by a dense reference elimination
    def deg(e):
        return sum(ei * qi for ei, qi in zip(e, wv.q))

    assert exc.degree > sum(1 - 2 * qi for qi in wv.q)
    assert deg(exc.monomial) == exc.degree
    exps = list(itertools.product(*(range(int(exc.degree / qi) + 1) for qi in wv.q)))
    products = [{tuple(x + y for x, y in zip(a, m)): c for (a, _b), c in g.terms.items()}
                for g, qj in zip(gradient(f), wv.q) for m in exps
                if deg(m) == exc.degree - (1 - qj)]
    cols = sorted({e for p in products for e in p} | {exc.monomial})
    rows = [[p.get(e, GaussianRational(0)) for e in cols] for p in products]
    mono = [GaussianRational(int(e == exc.monomial)) for e in cols]
    assert len(_rref(rows + [mono])[1]) == len(_rref(rows)[1]) + 1


@pytest.mark.parametrize("text", [
    "z1^2", "z1^3", "z1^13", "z1^3 + z2^4", "z1^7 + z2^13", "z1^3 + z2^3 + z3^3",
    "z1^2 + z2^3 + z3^5 + z4^7", "z1^10 + z1*z2^9 + z2*z3^9", "z1^2 + z1*z2^3 + z2*z3^3",
    "z1^2*z2 + z2^2*z3 + z3^2*z1", "z1^3 + z1*z2^3", "z1^2*z2 + z2^4", "z1^40*z2 + z2^41",
    "(1/10^12)*(z1^7 + z2^13)", "10^12*(z1^3 + z1*z2^3)", "(1/10^100)*z1^80",
    "(3/7)*(z1^2*z2 + z2^2*z3 + z3^2*z1)"])
def test_exact_verdict_accepts_isolated_singularities(text):
    f = parse(text, infer_variable_count(text))
    wv = solve_weights(f)
    js = nondegeneracy_check(f, wv).to_json_dict()
    assert js["isolated_witness"]["passed"] and js["isolated_witness"]["heuristic"] is False
    if milnor_oracle(wv) <= BRUTE_FORCE_MAX_MU:
        assert milnor_brute_force(f, wv) == milnor_oracle(wv)


@pytest.mark.parametrize("text", ["(z1+z2)^3", "(z1+z2)^5", "(z1+z2)^7", "(z1-2*z2)^7",
                                  "(z1^3+z2^5)^2", "(z1+z2)^5 + z3^5", "(z1+z2)^20 + z3^3"])
def test_exact_verdict_rejects_with_a_certificate(text):
    f = parse(text, infer_variable_count(text))
    wv = solve_weights(f)
    with pytest.raises(GradientVanishesAwayFromOrigin) as err:
        nondegeneracy_check(f, wv)
    assert_certificate(err.value, f, wv)


def test_nondegeneracy_check_paths():
    with pytest.raises(BilinearMonomialPresent):
        nondegeneracy_check(parse("z1*z2", 2), WeightVector((Fraction(1, 2),) * 2))
    f = parse("z1^2", 1)
    rep = nondegeneracy_check(f, solve_weights(f))
    # a returned report is a pass: the check raises on every failed condition
    js = rep.to_json_dict()
    assert js["no_bilinear"] and js["isolated_witness"]["passed"]
    assert rep.samples == 0  # the check is exact: it draws no points
    # z1^2 z2 has critical points all along z1 = 0
    g, wv = parse("z1^2*z2", 2), WeightVector((Fraction(1, 4), Fraction(1, 2)))
    with pytest.raises(GradientVanishesAwayFromOrigin) as err:
        nondegeneracy_check(g, wv)
    assert_certificate(err.value, g, wv)
    # (2 z1 z2, z1^2) holds every monomial of degree 3/4 and all but z2^2 of degree 1
    assert (err.value.degree, err.value.monomial) == (1, (0, 2))


@pytest.mark.parametrize("text,n", [("z1^13", 1), ("z1^20", 1), ("z1^40", 1),
                                    ("z1^7 + z2^13", 2), ("z1^13 + z2^2", 2),
                                    ("(1/10^12)*z1^3", 1), ("10^12*z1^3", 1),
                                    ("(1/10^12)*(z1^7 + z2^13)", 2),
                                    ("10^12*(z1^7 + z2^13)", 2), ("(1/10^100)*z1^80", 1)])
def test_witness_accepts_isolated_high_degree_singularities(text, n):
    # |grad f| is tiny near the origin of a high-degree f, and c f has the
    # Jacobian ideal of f, so neither a high degree nor a small c may fail
    # the check.  The float-range bounds are on the mean of |grad f|^2 over
    # a torus, so a |grad f| that underflows near the origin fails nothing
    f = parse(text, n)
    assert nondegeneracy_check(f, solve_weights(f)).to_json_dict()["isolated_witness"]["passed"]


@pytest.mark.parametrize("text,n", [("(z1+z2)^3", 2), ("(z1+z2)^5", 2), ("(z1+z2)^7", 2),
                                    ("(z1-2*z2)^7", 2), ("(z1+z2)^5 + z3^3", 3),
                                    ("(z1^3+z2^5)^2", 2), ("(1/10^12)*(z1+z2)^3", 2),
                                    ("10^12*(z1+z2)^5", 2), ("10^12*(z1+z2)^7", 2),
                                    ("(1/10^12)*(z1^3+z2^5)^2", 2),
                                    ("10^12*(z1^3+z2^5)^2", 2),
                                    ("10^100*(z1+z2)^3", 2), ("(1/10^100)*(z1+z2)^3", 2)])
@pytest.mark.parametrize("seed", [0, 7])
def test_witness_rejects_non_isolated_singularities_of_any_degree(text, n, seed, capsys):
    # a critical curve such as z1 = -z2 of (z1+z2)^d fails the check at any
    # degree and any scale of f; `weights --seed` is accepted and read by
    # nothing, so the command fails alike at every seed
    from singspect import cli

    f = parse(text, n)
    with pytest.raises(GradientVanishesAwayFromOrigin):
        nondegeneracy_check(f, solve_weights(f))
    assert cli.main(["weights", text, "--seed", str(seed)]) == cli.EXIT_DEGENERATE
    out, err = capsys.readouterr()
    assert out == "" and '"GradientVanishesAwayFromOrigin"' in err


def test_witness_is_plain_complex_on_the_weighted_unit_sphere():
    # the witness of a degenerate f is an exact monomial
    f = parse("(z1+z2)^3", 2)  # critical along z1 = -z2, weights (1/3, 1/3)
    wv = solve_weights(f)
    with pytest.raises(GradientVanishesAwayFromOrigin) as err:
        nondegeneracy_check(f, wv)
    assert_certificate(err.value, f, wv)
    assert "np." not in str(err.value)
