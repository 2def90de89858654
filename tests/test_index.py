import math

import numpy as np
import pytest

from singspect import index_integral
from singspect.index_integral import (
    ConstancyViolated,
    IndexEstimate,
    compute_index,
    integrand,
    mckean_singer_check,
)
from singspect.poly import evaluate_joint, gradient, parse
from singspect.weights import milnor_oracle, nondegeneracy_check, solve_weights


def prepared(text, n):
    f = parse(text, n)
    wv = solve_weights(f)
    nondegeneracy_check(f, wv)
    return f, wv


def test_integrand_examples():
    f = parse("(1/2)*z1^2", 1)
    for z in (0.3 + 0.1j, 1.0, -0.7j):
        got = integrand(f, [[z]], 1.0)[0]
        assert abs(got - math.exp(-abs(z) ** 2) / math.pi) < 1e-14
    f3 = parse("z1^3", 1)
    assert integrand(f3, [[0.0]], 1.0)[0] == 0.0  # Hessian 6z vanishes at 0
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            integrand(f, [[0.3]], bad)
    z = 0.4 - 0.2j
    expected = (1 / math.pi) * math.exp(-9 * abs(z) ** 4) * 36 * abs(z) ** 2
    assert abs(integrand(f3, [[z]], 1.0)[0] - expected) < 1e-14


def test_integrand_nonnegative():
    rng = np.random.default_rng(2)
    f = parse("z1^3 + z2^3", 2)
    Z = rng.normal(size=(200, 2)) + 1j * rng.normal(size=(200, 2))
    assert np.all(integrand(f, Z, 0.7) >= 0)


def test_compute_index_known_values():
    f, wv = prepared("(1/2)*z1^2", 1)
    est = compute_index(f, 1.0, budget=200000, seed=5)
    assert abs(est.estimate - 1.0) < 4 * est.std_error + 1e-3
    f3, wv3 = prepared("z1^3", 1)
    est3 = compute_index(f3, 1.0, budget=200000, seed=5)
    assert abs(est3.estimate - 2.0) < 4 * est3.std_error + 2e-3


def test_quadrature_path_is_sharp():
    f, wv = prepared("(1/2)*z1^2", 1)
    est = compute_index(f, 1.0, budget=128, method="quadrature")
    assert abs(est.estimate - 1.0) < 1e-10
    f3, _ = prepared("z1^3", 1)
    est3 = compute_index(f3, 1.0, budget=128, method="quadrature")
    assert abs(est3.estimate - 2.0) < 1e-8
    f33, _ = prepared("z1^3 + z2^3", 2)
    est33 = compute_index(f33, 1.0, budget=48, method="quadrature")
    assert abs(est33.estimate - 4.0) < 1e-4
    f222, _ = prepared("(1/2)*z1^2 + (1/2)*z2^2 + (1/2)*z3^2", 3)
    est222 = compute_index(f222, 1.0, budget=12, method="quadrature")
    assert abs(est222.estimate - 1.0) <= 1e-4


def test_quadrature_blocks_do_not_change_the_estimate(monkeypatch):
    # 10^4 and 8^4 grid rows per radial node, in blocks of 4096 rows and in
    # ragged blocks of 97 rows
    f, _ = prepared("z1^3 + z2^3 + z3^3", 3)
    default = compute_index(f, 1.0, budget=10, method="quadrature")
    monkeypatch.setattr(index_integral, "_BLOCK_ROWS", 97)
    blocked = compute_index(f, 1.0, budget=10, method="quadrature")
    assert blocked.estimate == pytest.approx(default.estimate, rel=1e-12)
    assert blocked.std_error == pytest.approx(default.std_error, rel=1e-12)
    assert default.std_error > 0


def test_quadrature_error_at_eight_nodes():
    # the reference rule must differ from the 8-node rule it checks
    f, _ = prepared("z1^3 + z2^3", 2)
    est = compute_index(f, 1.0, budget=8, method="quadrature")
    assert est.std_error > 0
    assert abs(est.estimate - 4.0) <= est.std_error


def test_quadrature_rejects_unsupported_node_counts():
    f, _ = prepared("z1^3", 1)
    with pytest.raises(ValueError):
        compute_index(f, 1.0, budget=10 ** 6, method="quadrature")
    # above the point cap, no half-node rule to compare, and a half-node rule
    # too coarse for the bar to cover the error
    for nodes in (646, 1, 2, 3, 4, 5, 6, 7):
        with pytest.raises(ValueError):
            compute_index(f, 1.0, budget=nodes, method="quadrature")
    f33, _ = prepared("z1^3 + z2^3", 2)
    with pytest.raises(ValueError):
        compute_index(f33, 1.0, budget=10 ** 6, method="quadrature")


def test_quadrature_node_cap_precedes_any_rule_build(monkeypatch):
    # the cap counts sphere points times radial nodes, or nodes^3 for the
    # dense Legendre eigensolve; the largest counts under it, and the floor
    # of 8 nodes, reach the builder
    def build(nodes):
        raise AssertionError(f"built a {nodes}-node rule")

    monkeypatch.setattr(index_integral, "_polar_rule", build)
    polys = {1: prepared("z1^3", 1), 2: prepared("z1^3 + z2^3", 2),
             3: prepared("z1^3 + z2^3 + z3^3", 3)}
    below_floor = [(nodes, n) for nodes in range(2, 8) for n in (1, 2, 3)]
    for nodes, n in [(646, 1), (16384, 1), (323, 2), (28, 3), (1, 1), (0, 2)] + below_floor:
        f, _ = polys[n]
        with pytest.raises(index_integral.UnsupportedNodeCount):
            compute_index(f, 1.0, budget=nodes, method="quadrature")
    for nodes, n in ((645, 1), (322, 2), (27, 3), (8, 1), (8, 2), (8, 3)):
        f, _ = polys[n]
        with pytest.raises(AssertionError, match=f"built a {nodes}-node rule"):
            compute_index(f, 1.0, budget=nodes, method="quadrature")


# (1/10^6)*(...) and 10^6*(...) take the rule far from |c| = 1
COVERAGE_POLYS = ("z1^3", "z1^5", "z1^3 + z2^3", "z1^3 + z2^4", "z1^4 + z2^5",
                  "z1^2*z2 + z2^3", "z1^2*z2 + z2^4", "z1^3 + z1*z2^3",
                  "(1/10^6)*(z1^3 + z2^4)", "10^6*(z1^2*z2 + z2^4)", "z1^3 + z2^3 + z3^4")


@pytest.mark.parametrize("text", COVERAGE_POLYS)
def test_quadrature_error_bar_covers_the_error(text):
    n = 3 if "z3" in text else 2 if "z2" in text else 1
    f, wv = prepared(text, n)
    mu = milnor_oracle(wv)
    # at 128 nodes one variable is converged at both rules, so the floor of the bar counts
    for nodes in {1: (8, 16, 32, 64, 128), 2: (8, 16, 32, 64), 3: (12,)}[n]:
        for t in (0.5, 1.0, 2.0):
            est = compute_index(f, t, budget=nodes, method="quadrature")
            assert abs(est.estimate - mu) <= est.std_error, (nodes, t, est)


def test_quadrature_depends_on_t_and_scale_only_through_the_radial_window():
    # equal weights: the rule is t-independent to rounding, although 16 nodes
    # are 4e-4 from mu; a factor c of f is the time t |c|^2 for any weights
    f, _ = prepared("z1^3 + z2^3", 2)
    ests = [compute_index(f, t, budget=16, method="quadrature").estimate
            for t in (0.5, 1.0, 2.0)]
    assert abs(ests[0] - 4.0) > 1e-4
    assert max(ests) - min(ests) <= 1e-13
    f5, _ = prepared("z1^2*z2 + z2^4", 2)
    c5, _ = prepared("10^3*(z1^2*z2 + z2^4)", 2)
    scaled = compute_index(c5, 1.0, budget=16, method="quadrature")
    slow = compute_index(f5, 1e6, budget=16, method="quadrature")
    assert scaled.estimate == pytest.approx(slow.estimate, rel=1e-12)
    assert scaled.std_error == pytest.approx(slow.std_error, rel=1e-9)


def test_t_grid_is_validated_before_any_estimate(monkeypatch):
    f, _ = prepared("z1^3", 1)

    def estimate(*args, **kwargs):
        raise AssertionError("an estimate ran before the grid was checked")

    monkeypatch.setattr(index_integral, "compute_index", estimate)
    for grid in ((0.5, 0.0), (1.0, 2.0, float("nan")), (1.0, -1.0), (0.5, float("inf")),
                 (1.0, 1e-310)):
        with pytest.raises(ValueError, match="positive and finite"):
            mckean_singer_check(f, grid)


def test_determinism_same_seed():
    f, wv = prepared("z1^3", 1)
    a = compute_index(f, 1.0, budget=50000, seed=42)
    b = compute_index(f, 1.0, budget=50000, seed=42)
    assert a.estimate == b.estimate and a.std_error == b.std_error
    c = compute_index(f, 1.0, budget=50000, seed=43)
    assert c.estimate != a.estimate


def test_mckean_singer_check():
    f, wv = prepared("(1/2)*z1^2 + (1/2)*z2^2", 2)
    res = mckean_singer_check(f, (1.0, 4.0), budget=150000, seed=9)
    assert res.mu_rounded == 1 == milnor_oracle(wv)
    f3, wv3 = prepared("z1^3", 1)
    res3 = mckean_singer_check(f3, (0.5, 1.0, 2.0), budget=150000, seed=9)
    assert res3.mu_rounded == 2
    assert len(res3.estimates) == 3
    one = mckean_singer_check(f3, (1.0,), budget=20000, seed=9)
    assert one.mu_pooled == one.estimates[0].estimate  # no pairs, weight exactly 1


def test_default_budget_follows_the_method():
    # budget=None is 128 nodes for the quadrature, whose rule at the Monte
    # Carlo default of 10^6 would be far too large to run
    f, wv = prepared("z1^3", 1)
    est = compute_index(f, 1.0, method="quadrature")
    assert est.budget == 128 and abs(est.estimate - 2.0) <= est.std_error + 1e-9
    res = mckean_singer_check(f, method="quadrature")
    assert [e.budget for e in res.estimates] == [128] * 3 and res.mu_rounded == 2


def test_index_with_off_diagonal_hessian():
    # D4: det d^2 f = 12 z2^2 - 4 z1^2 comes from the off-diagonal entries 2 z1
    f, wv = prepared("z1^2*z2 + z2^3", 2)
    assert milnor_oracle(wv) == 4
    mc = compute_index(f, 1.0, budget=400000, seed=3)
    assert abs(mc.estimate - 4.0) <= 4 * mc.std_error
    quad = compute_index(f, 1.0, budget=48, method="quadrature")
    assert 0 < abs(quad.estimate - 4.0) <= quad.std_error


def test_constancy_violation_detected(monkeypatch):
    # honest estimates of one constant rarely disagree beyond 3 sigma, so the
    # exception wiring is checked with stubbed estimates at a set z-score
    f, wv = prepared("z1^3", 1)

    def stub(offset_sigmas):
        def fake(f, t, budget, seed, method, point):
            est = 2.0 + (offset_sigmas if t > 1 else 0.0) * math.sqrt(2) * 0.01
            return IndexEstimate(t=t, estimate=est, std_error=0.01, method=method,
                                 budget=budget)
        return fake

    monkeypatch.setattr(index_integral, "compute_index", stub(10.0))
    with pytest.raises(ConstancyViolated):
        mckean_singer_check(f, (1.0, 2.0))
    monkeypatch.setattr(index_integral, "compute_index", stub(1.0))
    res = mckean_singer_check(f, (1.0, 2.0))
    assert res.mu_rounded == 2


def test_homogeneity_scaling_identity():
    # |d_i f|^2(z) = t^{-2 dM (1 - q_i)} |d_i f|^2(z_t), z_t,i = t^{dM q_i} z_i
    rng = np.random.default_rng(7)
    for text, n in (("z1^3", 1), ("z1^2 + z1*z2^3", 2), ("z1^3 + z2^3", 2)):
        f = parse(text, n)
        wv = solve_weights(f)
        dM = 1 / (2 * (1 - float(wv.q_max)))
        grads = gradient(f)
        for t in (0.3, 2.0):
            Z = rng.normal(size=(20, n)) + 1j * rng.normal(size=(20, n))
            Zt = Z * np.array([t ** (dM * float(qi)) for qi in wv.q])
            for i, g in enumerate(grads):
                lhs = np.abs(g.evaluate_many(Z)) ** 2
                rhs = t ** (-2 * dM * (1 - float(wv.q[i]))) \
                    * np.abs(g.evaluate_many(Zt)) ** 2
                assert np.allclose(lhs, rhs, rtol=1e-9)


def test_scaled_coordinate_quadrature_invariance():
    # evaluate the index integral in scaled coordinates z = diag(s^{q_i}) z'
    # and compare with the direct quadrature: the Jacobian exactly cancels
    # the homogeneity factors, so both must agree
    f, wv = prepared("z1^3", 1)
    t = 1.0
    direct = compute_index(f, t, budget=128, method="quadrature").estimate

    s = 3.0
    q = float(wv.q[0])
    # substitute z = s^{-q} z'; dvol picks up s^{-2q}; |f'(z)|^2 = s^{-2(1-q)}|f'(z')|^2
    x, wts = np.polynomial.hermite.hermgauss(160)
    # widen nodes to the scaled frame
    sigma = index_integral._compile(f).sigma(t)[0] * s ** q
    xs = sigma * x
    ws = sigma * wts * np.exp(x * x)
    Z = (xs[:, None] + 1j * xs[None, :]).ravel()[:, None]
    W = (ws[:, None] * ws[None, :]).ravel()
    g = f.wirtinger(1)
    h = g.wirtinger(1)
    grad_sq = np.abs(g.evaluate_many(Z * s ** (-q))) ** 2
    det_sq = np.abs(h.evaluate_many(Z * s ** (-q))) ** 2
    vals = (t / math.pi) * np.exp(-t * grad_sq) * det_sq * s ** (-2 * q)
    scaled = float((vals * W).sum())
    assert abs(scaled - direct) < 1e-6


def test_mc_coverage_of_exact_value():
    # polar closed form gives exactly 2 for the cubic; 3 sigma coverage
    f, wv = prepared("z1^3", 1)
    hits = 0
    runs = 40
    for s in range(runs):
        est = compute_index(f, 1.0, budget=20000, seed=1000 + s)
        if abs(est.estimate - 2.0) <= 3 * est.std_error:
            hits += 1
    assert hits >= int(0.9 * runs)


def _angle_columns(f):
    """The pivot columns of f's exponent-difference matrix, from floating-point
    ranks: column c is a pivot when it raises the rank of the columns before it."""
    from singspect.poly import hessian_determinant

    rows = []
    for p in gradient(f) + [hessian_determinant(f)]:
        diffs = [np.subtract(a, b) for a, b in p.terms]
        rows += [d - diffs[0] for d in diffs[1:]]
    M = np.array(rows, dtype=float).reshape(-1, f.n)

    def rank(k):
        return np.linalg.matrix_rank(M[:, :k]) if k and len(M) else 0

    return [c for c in range(f.n) if rank(c + 1) > rank(c)]


def _reference_mc(f, t, budget, seed, sigma):
    """_mc_estimate as one unblocked evaluation: the draws of every 4096-row
    block of one stream, exponential |z_j|^2 and a uniform phase e^{i theta}
    on each angle column, the others real."""
    from singspect.poly import hessian_determinant

    n = f.n
    angles = _angle_columns(f)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    E, theta = [], []
    for lo in range(0, budget, 4096):
        m = min(4096, budget - lo)
        E.append(rng.standard_exponential(size=(n, m)))
        theta.append(2 * math.pi * rng.random(size=(len(angles), m)))
    E, theta = np.hstack(E), np.hstack(theta)
    var = np.array(sigma) ** 2
    Z = np.sqrt(E.T * var).astype(complex)
    Z[:, angles] *= np.exp(1j * theta.T)
    log_p = -E.sum(axis=0) - np.log(math.pi * var).sum()
    grad_sq = sum(np.abs(g.evaluate_many(Z)) ** 2 for g in gradient(f))
    det_sq = np.abs(hessian_determinant(f).evaluate_many(Z)) ** 2
    w = (t / math.pi) ** n * np.exp(-t * grad_sq) * det_sq / np.exp(log_p)
    mean = float(w.sum()) / budget
    return mean, math.sqrt(max(float((w * w).sum()) / budget - mean * mean, 0.0) / budget)


# the edges of the 4096-row block: one short block, one full block, a full
# block and one row, and several blocks and a short one; 63, 64 and
# 64 * 4097 + 5 are short and long budgets away from the edges
MC_BUDGETS = [2, 63, 64, 4095, 4096, 4097, 3 * 4096 + 5, 64 * 4097 + 5]


@pytest.mark.parametrize("budget", MC_BUDGETS)
def test_blocked_mc_matches_an_unblocked_reference(budget):
    assert index_integral._BLOCK_ROWS == 4096
    f, _ = prepared("z1^3 + z2^4", 2)
    est = compute_index(f, 0.7, budget=budget, seed=5)
    ref, ref_err = _reference_mc(f, 0.7, budget, 5, index_integral._compile(f).sigma(0.7))
    assert est.estimate == pytest.approx(ref, rel=1e-12)
    assert est.std_error == pytest.approx(ref_err, rel=1e-12, abs=1e-12 * abs(ref))


@pytest.mark.parametrize("text,n", [("z1^3 + z1*z2^3", 2), ("z1^2 + z1*z2^3 + z2*z3^3", 3)])
def test_drawn_phases_match_an_unblocked_reference(text, n):
    # one and two drawn phases, built from tan(theta / 2) by _mc_estimate and
    # as exp(i theta) by the reference
    f, _ = prepared(text, n)
    budget = 3 * 4096 + 5
    est = compute_index(f, 0.7, budget=budget, seed=5)
    ref, ref_err = _reference_mc(f, 0.7, budget, 5, index_integral._compile(f).sigma(0.7))
    assert est.estimate == pytest.approx(ref, rel=1e-12)
    assert est.std_error == pytest.approx(ref_err, rel=1e-12)


def test_mc_estimate_keeps_no_block_arrays_alive():
    # temporaries are freed by reference counting alone: with the cyclic
    # collector off, a reference cycle holding a block's arrays would keep
    # all 245 blocks alive and the traced peak would grow with the budget
    import gc
    import tracemalloc

    f, _ = prepared("z1^3 + z2^4", 2)
    gc.disable()
    tracemalloc.start()
    try:
        compute_index(f, 1.0, budget=10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak < 8 * 2 ** 20


def _per_polynomial_mc(f, t, budget, seed, sigma):
    """_mc_estimate with each derivative of f evaluated on its own, as one
    evaluate_many call per polynomial, on row-major blocks of 4096 points of
    one stream: the same arithmetic in the same order, so the result must be
    equal to the bit."""
    from singspect.poly import hessian_determinant

    n, rows = f.n, 4096
    grads, det = gradient(f), hessian_determinant(f)
    angles = _angle_columns(f)
    scale = [s * s for s in sigma]
    log_norm = sum(math.log(math.pi * v) for v in scale)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    total = total_sq = 0.0
    for lo in range(0, budget, rows):
        m = min(rows, budget - lo)
        e = rng.standard_exponential(size=(n, m))
        u = rng.random(size=(len(angles), m)) * math.pi
        Z = np.zeros((m, n), dtype=complex)
        for j in range(n):
            Z[:, j].real = np.sqrt(e[j] * scale[j])
        for a, j in enumerate(angles):
            h = np.tan(u[a])
            c = 2 / (1 + h * h)
            Z[:, j].imag = Z[:, j].real * (h * c)
            Z[:, j].real *= c - 1
        arg = 0.0
        for g in grads:
            v = g.evaluate_many(Z)
            arg = arg + (v.real * v.real + v.imag * v.imag)
        arg *= -t
        arg += n * math.log(t / math.pi)
        neg_log_p = e[0] + log_norm
        for j in range(1, n):
            neg_log_p += e[j]
        arg += neg_log_p
        np.exp(arg, out=arg)
        d = det.evaluate_many(Z)
        w = arg * (d.real * d.real + d.imag * d.imag)
        total += float(w.sum())
        total_sq += float((w * w).sum())
    mean = total / budget
    return mean, math.sqrt(max(total_sq / budget - mean * mean, 0.0) / budget)


@pytest.mark.parametrize("text,n", [("z1^3", 1), ("z1^3 + z2^4", 2),
                                    ("z1^2*z2 + z2^3 + z3^4", 3),
                                    ("(3/5 + (4/5)*i)*z1^3 + z2^4", 2)])
@pytest.mark.parametrize("budget", MC_BUDGETS)
def test_joint_mc_equals_a_per_polynomial_reference(text, n, budget):
    f, _ = prepared(text, n)
    comp = index_integral._Compiled(f)
    got = index_integral._mc_estimate(comp, 0.7, budget, 5, comp.sigma(0.7))
    assert got == _per_polynomial_mc(f, 0.7, budget, 5, comp.sigma(0.7))


@pytest.mark.parametrize("text,n,points", [("z1^3", 1, "float64"), ("z1^3 + z2^4", 2, "float64"),
                                           ("z1^3 + z1*z2^3", 2, "complex128")])
def test_mc_evaluates_phase_free_samples_in_float64(monkeypatch, text, n, points):
    # no phase is drawn for n = 1 or a Brieskorn-Pham f, so its samples are
    # real; E7 draws one phase, so its samples are complex
    f, _ = prepared(text, n)
    seen = []

    def spy(polys, Z):
        seen.append(Z.dtype)
        return evaluate_joint(polys, Z)

    monkeypatch.setattr(index_integral, "evaluate_joint", spy)
    compute_index(f, 1.0, budget=4097, seed=1)
    assert seen == [np.dtype(points)] * 2


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_mc_ignores_a_unit_phase_on_a_brieskorn_pham_term(t):
    # a unit factor of one term of a Brieskorn-Pham f multiplies d_j f and
    # det d^2 f by itself, so no |d_j f| or |det d^2 f| changes beyond
    # rounding and no phase is drawn: at one seed the estimate is that of
    # z1^3 + z2^4, from the same real samples
    base = compute_index(parse("z1^3 + z2^4", 2), t, budget=200000, seed=7)
    for text in ("(3/5 + (4/5)*i)*z1^3 + z2^4", "z1^3 + (3/5 + (4/5)*i)*z2^4"):
        est = compute_index(parse(text, 2), t, budget=200000, seed=7)
        assert est.estimate == pytest.approx(base.estimate, rel=1e-12)
        assert est.std_error == pytest.approx(base.std_error, rel=1e-12)


@pytest.mark.parametrize("text,n,nodes", [("z1^3", 1, 128), ("z1^3 + z2^4", 2, 64)])
def test_joint_quadrature_equals_a_per_polynomial_reference(monkeypatch, text, n, nodes):
    f, _ = prepared(text, n)
    joint = compute_index(f, 1.0, budget=nodes, method="quadrature")
    monkeypatch.setattr(index_integral, "evaluate_joint",
                        lambda polys, Z: [p.evaluate_many(Z) for p in polys])
    alone = compute_index(f, 1.0, budget=nodes, method="quadrature")
    assert (joint.estimate, joint.std_error) == (alone.estimate, alone.std_error)


@pytest.mark.parametrize("text,n", [("(1/2)*z1^2", 1), ("5*z1^2 + (1/3)*z2^2", 2)])
def test_a1_proposal_is_the_integrand(text, n):
    # for A_1 in any n the proposal is the normalized integrand: every weight
    # is 1, so the estimate is mu = 1 with no variance at every t
    f, _ = prepared(text, n)
    for t in (0.3, 1.0, 7.0):
        est = compute_index(f, t, budget=20000, seed=2)
        assert est.estimate == pytest.approx(1.0, rel=1e-12)
        assert est.std_error <= 1e-12


@pytest.mark.parametrize("base,c,t", [("z1^2*z2 + z2^4", "10^3", 1e6),
                                      ("z1^3 + z2^4", "(1/10^6)", 1e-12)])
def test_mc_depends_on_a_factor_of_f_only_through_t(base, c, t):
    # c f at time 1 is f at time |c|^2, at one seed, to rounding: the scale
    # sigma solves for sqrt(t) |c| and the density sees t |c|^2
    f, _ = prepared(base, 2)
    cf, _ = prepared(f"{c}*({base})", 2)
    scaled = compute_index(cf, 1.0, budget=20000, seed=3)
    slow = compute_index(f, t, budget=20000, seed=3)
    assert scaled.estimate == pytest.approx(slow.estimate, rel=1e-12)
    assert scaled.std_error == pytest.approx(slow.std_error, rel=1e-12)


def test_proposal_scale_reads_no_seed_and_is_built_once_per_f(monkeypatch):
    # the proposal scale is a function of f and t alone: every seed's estimate
    # uses the same one, numpy's global state does not move it, and a t-grid
    # builds it once
    f, _ = prepared("z1^3 + z2^4", 2)
    index_integral._compile.cache_clear()
    builds, sigmas = [], []
    log_scale, mc_estimate = index_integral._log_scale, index_integral._mc_estimate

    def build(grads):
        builds.append(grads)
        return log_scale(grads)

    def spy(comp, t, budget, seed, sigma, point):
        sigmas.append((t, sigma))
        return mc_estimate(comp, t, budget, seed, sigma, point)

    monkeypatch.setattr(index_integral, "_log_scale", build)
    monkeypatch.setattr(index_integral, "_mc_estimate", spy)
    mckean_singer_check(f, (0.5, 1.0, 2.0), budget=2000, seed=3)
    np.random.seed(5)
    compute_index(f, 1.0, budget=2000, seed=7)
    assert len(builds) == 1
    assert [t for t, _ in sigmas] == [0.5, 1.0, 2.0, 1.0]
    assert sigmas[1][1] == sigmas[3][1]


# Brieskorn-Pham, E7, D5, the README chain and the n = 3 loop
SYMMETRY_POLYS = ("z1^3", "z1^5", "z1^3 + z2^4", "z1^3 + z2^3 + z3^4", "z1^3 + z1*z2^3",
                  "z1^2*z2 + z2^4", "z1^2 + z1*z2^3 + z2*z3^3", "z1^2*z2 + z2^2*z3 + z3^2*z1")


@pytest.mark.parametrize("text", SYMMETRY_POLYS)
def test_free_phases_are_exact_symmetries_of_the_density(text):
    # each free column of the phase rows spans, with the pivots it fixes, a
    # phase vector phi under which z_j -> e^{i phi_j} z_j leaves the density
    # unchanged; the circle action q is among them
    from fractions import Fraction
    from singspect.weights import _rref

    n = 3 if "z3" in text else 2 if "z2" in text else 1
    f, wv = prepared(text, n)
    comp = index_integral._Compiled(f)
    rows = index_integral._phase_rows(comp.derivatives)
    mat, pivots = _rref(rows)
    assert comp.angles == pivots == _angle_columns(f)
    if n == 1 or text.count("*") == 0:
        assert comp.angles == []
    if text in ("z1^3 + z1*z2^3", "z1^2*z2 + z2^4"):
        assert comp.angles == [0]
    assert all(sum(r * q for r, q in zip(row, wv.q)) == 0 for row in rows)
    null_space = []
    for c in range(n):
        if c not in pivots:
            phi = [Fraction(0)] * n
            phi[c] = Fraction(1)
            for row, p in zip(mat, pivots):
                phi[p] = -row[c]
            null_space.append(phi)
    assert len(null_space) == n - len(pivots) >= 1
    rng = np.random.default_rng(11)
    Z = 0.6 * (rng.normal(size=(200, n)) + 1j * rng.normal(size=(200, n)))
    before = comp.density(Z, 0.7)
    assert np.count_nonzero(before) >= 190  # a few far points underflow to 0
    for phi in null_space + [list(wv.q)]:
        for turn in (1.0, -0.37, 2.9):
            rotated = Z * np.exp(2j * math.pi * turn * np.array([float(x) for x in phi]))
            after = comp.density(rotated, 0.7)
            assert np.all(np.abs(after - before) <= 1e-12 * before), (phi, turn)


# no phase and one phase drawn; high degrees; coefficient scales far from 1,
# per variable and for the whole of f
@pytest.mark.parametrize("text", ["z1^3 + z2^4", "z1^3 + z1*z2^3", "z1^8", "z1^13",
                                  "(1/10^6)*z1^3 + z2^4", "10^6*(z1^2*z2 + z2^4)"])
def test_mc_error_bars_are_calibrated_across_seeds(text):
    # over 200 seeds the z-scores (estimate - mu) / stderr must have mean
    # about 0 and sd about 1
    f, wv = prepared(text, 2 if "z2" in text else 1)
    mu = milnor_oracle(wv)
    z = np.array([(e.estimate - mu) / e.std_error
                  for e in (compute_index(f, 1.0, budget=20000, seed=s) for s in range(200))])
    assert abs(z.mean()) <= 0.25
    assert 0.8 <= z.std(ddof=1) <= 1.2


def test_point_streams_never_collide():
    # seed 977 at point 0 was seed 0 at point 1, and SeedSequence([0, 0]) is
    # SeedSequence(0), the stream of default_rng(0)
    states = [tuple(index_integral._point_seed(seed, point).generate_state(4))
              for seed in (0, 1, 977) for point in range(5)]
    assert len(set(states)) == len(states) == 3 * 5
    assert tuple(np.random.SeedSequence(0).generate_state(4)) not in states
    assert np.random.SeedSequence(0).generate_state(4).tolist() == \
        np.random.SeedSequence([0, 0]).generate_state(4).tolist()


def test_grid_points_draw_their_own_streams(monkeypatch):
    # point i of a grid is compute_index at point=i; a standalone estimate is point 0
    f, _ = prepared("z1^3", 1)
    res = mckean_singer_check(f, (1.0, 1.0, 1.0), budget=5000, seed=977)
    alone = [compute_index(f, 1.0, budget=5000, seed=977, point=i) for i in range(3)]
    assert [e.estimate for e in res.estimates] == [e.estimate for e in alone]
    assert len({e.estimate for e in alone}) == 3
    assert compute_index(f, 1.0, budget=5000, seed=977).estimate == alone[0].estimate
    assert compute_index(f, 1.0, budget=5000, seed=0, point=1).estimate != alone[0].estimate


def test_compiled_derivatives_are_built_once_per_f():
    compile_ = index_integral._compile
    compile_.cache_clear()
    f, _ = prepared("z1^3 + z1*z2^3", 2)
    mckean_singer_check(f, (0.5, 1.0, 2.0), budget=2000, seed=1)
    assert compile_.cache_info().misses == 1
    g, _ = prepared("z1^3 + z2^3", 2)
    mckean_singer_check(g, (0.5, 1.0, 2.0), method="quadrature", budget=8)
    assert compile_.cache_info().misses == 2


def test_each_estimate_draws_one_stream(monkeypatch):
    # one generator per t-grid point, whatever the budget: a standalone
    # estimate builds one, a 3-point grid three, keyed on (seed, point)
    f, _ = prepared("z1^3 + z2^4", 2)
    keys = []
    point_seed = index_integral._point_seed

    def spy(seed, point):
        keys.append((seed, point))
        return point_seed(seed, point)

    monkeypatch.setattr(index_integral, "_point_seed", spy)
    compute_index(f, 1.0, budget=3 * 4096 + 5, seed=4)
    assert keys == [(4, 0)]
    keys.clear()
    mckean_singer_check(f, (0.5, 1.0, 2.0), budget=20000, seed=9)
    assert keys == [(9, 0), (9, 1), (9, 2)]
