import pytest
from fractions import Fraction
from hypothesis import given, settings
import hypothesis.strategies as st

from singspect.poly import parse
from singspect.weights import (
    BilinearMonomialPresent,
    GradientVanishesAwayFromOrigin,
    NonIntegerMilnor,
    NotQuasiHomogeneous,
    WeightOutOfRange,
    WeightVector,
    WeightsNotUnique,
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


def test_nondegeneracy_check_paths():
    with pytest.raises(BilinearMonomialPresent):
        nondegeneracy_check(parse("z1*z2", 2), WeightVector((Fraction(1, 2),) * 2))
    f = parse("z1^2", 1)
    rep = nondegeneracy_check(f, solve_weights(f), seed=3)
    # a returned report is a pass: the check raises on every failed condition
    js = rep.to_json_dict()
    assert js["no_bilinear"] and js["isolated_witness"]["passed"]
    assert rep.samples >= 10 ** 4
    assert rep.fitted_C > 0
    # z1^2 z2 has critical points all along z1 = 0
    with pytest.raises(GradientVanishesAwayFromOrigin) as err:
        nondegeneracy_check(parse("z1^2*z2", 2),
                            WeightVector((Fraction(1, 4), Fraction(1, 2))), seed=3)
    w = err.value.witness
    g = parse("z1^2*z2", 2)
    assert sum(abs(g.wirtinger(i).evaluate_many([w])[0]) ** 2 for i in (1, 2)) < 1e-12


@pytest.mark.parametrize("text,n", [("z1^13", 1), ("z1^20", 1), ("z1^40", 1),
                                    ("z1^7 + z2^13", 2), ("z1^13 + z2^2", 2),
                                    ("(1/10^12)*z1^3", 1), ("10^12*z1^3", 1),
                                    ("(1/10^12)*(z1^7 + z2^13)", 2),
                                    ("10^12*(z1^7 + z2^13)", 2), ("(1/10^100)*z1^80", 1)])
def test_witness_accepts_isolated_high_degree_singularities(text, n):
    # |grad f| is tiny near the origin of a high-degree f, so a descent that
    # creeps towards the origin must not count as an off-origin critical point;
    # c f has the critical points of f, so neither may a small c.  The report
    # says passed even where min_grad_norm, over the raw samples, underflows
    f = parse(text, n)
    assert nondegeneracy_check(f, solve_weights(f)).to_json_dict()["isolated_witness"]["passed"]


def test_batched_descent_matches_one_row_at_a_time():
    # each row keeps its own step and stopping rule, so batching changes no row
    import numpy as np
    from singspect.poly import gradient, hessian
    from singspect.weights import _descend_to_critical, _to_weighted_sphere

    f = parse("z1^2*z2 + z2^5", 2)
    grads, hess = gradient(f), hessian(f)
    q = np.array([float(qi) for qi in solve_weights(f).q])
    rng = np.random.default_rng(4)
    Z = _to_weighted_sphere(rng.normal(size=(6, 2)) + 1j * rng.normal(size=(6, 2)), q)
    batch = _descend_to_critical(grads, hess, q, Z, 1.0)
    for i in range(len(Z)):
        assert np.array_equal(batch[i:i + 1],
                              _descend_to_critical(grads, hess, q, Z[i:i + 1], 1.0))


def test_joint_descent_equals_a_per_polynomial_reference(monkeypatch):
    # the gradient and Hessian rows come from one table of column powers; each
    # evaluated on its own gives the same descent to the bit
    import numpy as np
    from singspect import poly, weights
    from singspect.poly import gradient, hessian
    from singspect.weights import _descend_to_critical, _to_weighted_sphere

    f = parse("z1^2*z2 + z2^5 + z3^3", 3)
    grads, hess = gradient(f), hessian(f)
    q = np.array([float(qi) for qi in solve_weights(f).q])
    rng = np.random.default_rng(4)
    Z = _to_weighted_sphere(rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3)), q)
    joint = _descend_to_critical(grads, hess, q, Z, 1.0)
    joint_evaluator = poly.evaluate_joint

    def alone(polys, Z):
        return [next(joint_evaluator([p], Z)) for p in polys]

    monkeypatch.setattr(weights, "evaluate_joint", alone)
    monkeypatch.setattr(poly, "evaluate_joint", alone)  # inside gradient_square
    assert np.array_equal(joint, _descend_to_critical(grads, hess, q, Z, 1.0))


@pytest.mark.parametrize("text,n", [("(z1+z2)^3", 2), ("(z1+z2)^5", 2), ("(z1+z2)^7", 2),
                                    ("(z1-2*z2)^7", 2), ("(z1+z2)^5 + z3^3", 3),
                                    ("(z1^3+z2^5)^2", 2), ("(1/10^12)*(z1+z2)^3", 2),
                                    ("10^12*(z1+z2)^5", 2), ("10^12*(z1+z2)^7", 2),
                                    ("(1/10^12)*(z1^3+z2^5)^2", 2),
                                    ("10^12*(z1^3+z2^5)^2", 2),
                                    ("10^100*(z1+z2)^3", 2), ("(1/10^100)*(z1+z2)^3", 2)])
@pytest.mark.parametrize("seed", [0, 7])
def test_witness_rejects_non_isolated_singularities_of_any_degree(text, n, seed):
    # near a critical curve such as z1 = -z2 of (z1+z2)^d, |grad f|^2 falls
    # like |z1 + z2|^(2d - 2): a descent that stops on an absolute flatness
    # (one that ignores the scale of f), measures h off the weighted unit
    # sphere or takes a norm that overflows or underflows at the scale of f
    # can miss it
    f = parse(text, n)
    with pytest.raises(GradientVanishesAwayFromOrigin):
        nondegeneracy_check(f, solve_weights(f), seed=seed)


def test_witness_is_plain_complex_on_the_weighted_unit_sphere():
    f = parse("(z1+z2)^3", 2)  # critical along z1 = -z2, weights (1/3, 1/3)
    with pytest.raises(GradientVanishesAwayFromOrigin) as err:
        nondegeneracy_check(f, solve_weights(f))
    w = err.value.witness
    assert all(type(v) is complex for v in w)
    assert "np." not in str(err.value)
    assert max(abs(v) ** 3 for v in w) == pytest.approx(1.0)
    assert sum(abs(f.wirtinger(i).evaluate_many([w])[0]) ** 2 for i in (1, 2)) < 1e-12


@pytest.mark.parametrize("samples", [1, 2, 12000, 12001])
def test_witness_budget_is_the_budget_passed(samples):
    f = parse("z1^3 + z2^4", 2)
    assert nondegeneracy_check(f, solve_weights(f), samples=samples).samples == samples


def test_fitted_constant_bounds_growth_floor():
    # |grad f|^2 >= |z|^2 / C - 1 must hold on fresh sample points
    import numpy as np
    f = parse("(1/2)*z1^2", 1)
    rep = nondegeneracy_check(f, solve_weights(f), seed=5)
    rng = np.random.default_rng(123)
    Z = rng.normal(scale=4.0, size=(500, 1)) + 1j * rng.normal(scale=4.0, size=(500, 1))
    grad_sq = np.abs(f.wirtinger(1).evaluate_many(Z)) ** 2
    floor = (np.abs(Z[:, 0]) ** 2) / rep.fitted_C - 1
    assert np.all(grad_sq >= floor - 1e-9)
