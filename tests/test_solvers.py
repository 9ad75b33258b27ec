import numpy as np
import pytest

from predcorr import (
    BlockVector,
    BoxIndicator,
    L1Penalty,
    MultiBlockSpec,
    QuadraticCost,
    SaddleSpec,
    SolverState,
    SubproblemError,
    TwoBlockSpec,
    certify,
    make_multiblock_quadratic,
    make_saddle_quadratic,
    make_two_block_quadratic,
    solve_prediction_inclusion,
)


# ---------------------------------------------------------------------------
# unified subproblem


def test_inclusion_quadratic_path():
    S = np.array([[3.0, 1.0], [1.0, 2.0]])
    c = np.array([1.0, -1.0])
    f = QuadraticCost(S, c)
    q = np.array([0.5, 0.5])
    xb, xt = solve_prediction_inclusion(f, 2.0, q)
    assert xb is xt or np.allclose(xb, xt)
    # 0 = S x + W x + q - c
    np.testing.assert_allclose(S @ xt + 2.0 * xt + q - c, 0.0, atol=1e-13)

    # tau < 1 ties the two outputs through the anchor
    anchor = np.array([1.0, 2.0])
    xb, xt = solve_prediction_inclusion(f, 2.0, q, tau=0.25, anchor=anchor)
    np.testing.assert_allclose(xb, 0.25 * xt + 0.75 * anchor, rtol=1e-13)
    # defining inclusion: grad f at x_breve plus W x_tilde + q vanishes
    np.testing.assert_allclose(f.grad(xb) + 2.0 * xt + q, 0.0, atol=1e-12)


def test_inclusion_matrix_weight():
    S = np.eye(2)
    f = QuadraticCost(S, np.zeros(2))
    W = np.array([[2.0, 0.5], [0.5, 2.0]])
    q = np.array([1.0, 0.0])
    _, xt = solve_prediction_inclusion(f, W, q)
    np.testing.assert_allclose((S + W) @ xt, -q, atol=1e-13)


def test_inclusion_prox_path():
    f = L1Penalty(0.5)
    q = np.array([-2.0, 0.1])
    xb, xt = solve_prediction_inclusion(f, 1.0, q)
    # 0 in df(x) + x + q  =>  x = soft_threshold(-q, 0.5)
    np.testing.assert_allclose(xb, [1.5, 0.0])
    np.testing.assert_allclose(xt, xb)

    anchor = np.array([1.0, 1.0])
    xb, xt = solve_prediction_inclusion(f, 1.0, q, tau=0.5, anchor=anchor)
    np.testing.assert_allclose(xb, 0.5 * xt + 0.5 * anchor, rtol=1e-13)
    # subgradient check at x_breve
    g = -(1.0 * xt + q)  # element of mu * sign(x_breve)
    for xi, gi in zip(xb, g):
        if xi != 0.0:
            assert gi == pytest.approx(0.5 * np.sign(xi), abs=1e-12)
        else:
            assert abs(gi) <= 0.5 + 1e-12


def test_inclusion_validation():
    f = L1Penalty(0.5)
    q = np.zeros(2)
    with pytest.raises(ValueError):
        solve_prediction_inclusion(f, 1.0, q, tau=0.0)
    with pytest.raises(ValueError):
        solve_prediction_inclusion(f, 1.0, q, tau=1.5)
    with pytest.raises(ValueError):
        solve_prediction_inclusion(f, 1.0, q, tau=0.5)  # anchor missing
    with pytest.raises(SubproblemError):
        solve_prediction_inclusion(f, 0.0, q)  # weight must be positive
    with pytest.raises(SubproblemError):
        solve_prediction_inclusion(f, np.array([[1.0, 0.5], [0.5, 1.0]]), q)
    with pytest.raises(SubproblemError):
        # indefinite quadratic subproblem
        solve_prediction_inclusion(
            QuadraticCost(np.zeros((1, 1)), np.zeros(1)), -1.0, np.zeros(1))


# ---------------------------------------------------------------------------
# two-block scheme


def scalar_two_block():
    # f1 = f2 = x^2/2, A1 = A2 = [1], b = 1, beta = 1, r = s = 1/2, P = 0
    one = np.array([[1.0]])
    return TwoBlockSpec(
        prox_f1=QuadraticCost(one, np.zeros(1)),
        prox_f2=QuadraticCost(one, np.zeros(1)),
        A1=one, A2=one, b=np.array([1.0]),
        beta=1.0, r=0.5, s=0.5, P=np.zeros((1, 1)),
    )


def test_two_block_hand_sweep():
    # from w = 0:
    #   q1 = -1, W1 = 1, so x1 solves 2 x - 1 = 0        -> 1/2
    #   slack = 1/2 - 1 = -1/2, lam_tilde = 1/2, lam_half = 1/4
    #   q2 = -1/4 + (1/2 - 1) = -3/4, W2 = 1             -> 3/8
    spec = scalar_two_block()
    state = SolverState(v_curr=np.zeros(3), w_curr=spec.initial_point())
    _, tilde = spec.predict(state, 1.0)
    np.testing.assert_allclose(tilde["x1"], [0.5], rtol=1e-14)
    np.testing.assert_allclose(tilde["x2"], [0.375], rtol=1e-14)
    np.testing.assert_allclose(tilde["lam"], [0.5], rtol=1e-14)

    # correction with M rows [1,0,0], [0,1,0], [0, -s*beta*A2, r+s]:
    # new lam = 0 - (-1/2*3/8 + 1*1/2 - 0) reversed => M @ tilde = 5/16
    M = spec.correction_spec().M
    v1 = state.v_curr - M @ (state.v_curr - spec.image(tilde))
    np.testing.assert_allclose(v1, [0.5, 0.375, 0.3125], rtol=1e-14)


def test_two_block_default_p_and_region():
    spec = scalar_two_block()
    assert spec.in_certified_region()
    assert not TwoBlockSpec(
        prox_f1=spec.prox_f1, prox_f2=spec.prox_f2, A1=spec.A1, A2=spec.A2,
        b=spec.b, beta=1.0, r=-0.5, s=0.5).in_certified_region()  # r + s = 0

    # default P = 1.01 * beta * rho(A1'A1) I - beta * A1'A1
    got = TwoBlockSpec(
        prox_f1=spec.prox_f1, prox_f2=spec.prox_f2, A1=2.0 * np.eye(1),
        A2=spec.A2, b=spec.b, beta=3.0, r=0.5, s=0.5)
    np.testing.assert_allclose(got.P, [[1.01 * 3.0 * 4.0 - 3.0 * 4.0]], rtol=1e-12)

    with pytest.raises(ValueError):
        TwoBlockSpec(prox_f1=spec.prox_f1, prox_f2=spec.prox_f2,
                     A1=spec.A1, A2=spec.A2, b=spec.b, beta=-1.0, r=0.5, s=0.5)
    with pytest.raises(Exception):
        # P must be symmetric PSD
        TwoBlockSpec(prox_f1=spec.prox_f1, prox_f2=spec.prox_f2,
                     A1=spec.A1, A2=spec.A2, b=spec.b, beta=1.0, r=0.5, s=0.5,
                     P=-np.eye(1))


def test_two_block_fixed_point():
    inst = make_two_block_quadratic(0, 2, 2, 3)
    w_star = inst.w_star
    state = SolverState(v_curr=inst.spec.image(w_star), w_curr=w_star)
    _, tilde = inst.spec.predict(state, 1.0)
    assert (tilde - w_star).norm() <= 1e-10 * (1.0 + w_star.norm())

    # accelerated step anchored at the oracle stays there too
    state.breve_prev = w_star
    breve, tilde = inst.spec.predict(state, 0.25)
    assert (breve - w_star).norm() <= 1e-10 * (1.0 + w_star.norm())
    assert (tilde - w_star).norm() <= 1e-10 * (1.0 + w_star.norm())


def test_two_block_tau_one_reduces_to_baseline():
    inst = make_two_block_quadratic(4, 2, 2, 3)
    rng = np.random.default_rng(7)
    w = BlockVector(inst.spec.block_names(),
                    tuple(rng.normal(size=d) for d in inst.spec.block_dims()))
    plain = SolverState(v_curr=inst.spec.image(w), w_curr=w)
    _, base = inst.spec.predict(plain, 1.0)
    # tau = 1 ignores the anchor and returns one point as both outputs
    anchored = SolverState(v_curr=inst.spec.image(w), w_curr=w, breve_prev=-1.0 * w)
    breve, tilde = inst.spec.predict(anchored, 1.0)
    assert breve is tilde
    assert (tilde - base).norm() <= 1e-14 * (1.0 + base.norm())
    assert (breve - base).norm() <= 1e-14 * (1.0 + base.norm())


# ---------------------------------------------------------------------------
# prediction inclusions checked against the operator form


def two_block_L(spec):
    return np.eye(spec.n1 + spec.n2 + spec.n_constraints)


def multiblock_L(spec):
    l = spec.n_constraints
    dims = spec.block_dims()[:-1]
    n_total = sum(dims) + l
    L = np.zeros((spec.m * l + l, n_total))
    col = 0
    root = np.sqrt(spec.beta)
    for i, (A, n) in enumerate(zip(spec.A_i, dims)):
        L[i * l:(i + 1) * l, col:col + n] = root * A
        col += n
    L[spec.m * l:, col:] = np.eye(l) / root
    return L


def grad_blocks(w, fs):
    return np.concatenate([f.grad(w[i]) for i, f in enumerate(fs)])


def tb_gradF(spec, w_grad, w_skew):
    # gradient part at one point, skew part at another (the accelerated
    # inclusion evaluates them at breve and tilde respectively)
    g = np.concatenate([
        spec.prox_f1.grad(w_grad["x1"]), spec.prox_f2.grad(w_grad["x2"]),
        np.zeros(spec.n_constraints)])
    x1, x2, lam = w_skew["x1"], w_skew["x2"], w_skew["lam"]
    skew = np.concatenate([
        -spec.A1.T @ lam, -spec.A2.T @ lam,
        spec.A1 @ x1 + spec.A2 @ x2 - spec.b])
    return g + skew


def mb_gradF(spec, w_grad, w_skew):
    g = np.concatenate(
        [f.grad(w_grad[i]) for i, f in enumerate(spec.prox_f_i)]
        + [np.zeros(spec.n_constraints)])
    lam = w_skew["lam"]
    parts = [-A.T @ lam for A in spec.A_i]
    feas = sum(A @ w_skew[i] for i, A in enumerate(spec.A_i)) - spec.b
    return g + np.concatenate(parts + [feas])


def sd_gradF(spec, w_grad, w_skew):
    g = np.concatenate([spec.prox_f.grad(w_grad["x"]),
                        spec.prox_g.grad(w_grad["y"])])
    skew = np.concatenate([-spec.A.T @ w_skew["y"], spec.A @ w_skew["x"]])
    return g + skew


@pytest.mark.parametrize("family", ["two-block", "multi-block", "saddle"])
def test_prediction_satisfies_inclusion(family):
    # baseline: 0 = T(wt) + L'Q(L wt - v)
    # faster:   0 = (T - F)(wb) + F(wt) + L'Q(L wt - v)
    rng = np.random.default_rng(11)
    if family == "two-block":
        inst = make_two_block_quadratic(0, 2, 2, 3)
        L, op = two_block_L(inst.spec), tb_gradF
    elif family == "multi-block":
        inst = make_multiblock_quadratic(1, 3, 2, 3)
        L, op = multiblock_L(inst.spec), mb_gradF
    else:
        inst = make_saddle_quadratic(2, 3, 2)
        L, op = np.eye(5), sd_gradF
    spec = inst.spec
    Q = spec.correction_spec().Q

    w = BlockVector(spec.block_names(),
                    tuple(rng.normal(size=d) for d in spec.block_dims()))
    v = spec.image(w)
    state = SolverState(v_curr=v, w_curr=w, breve_prev=w)

    _, tilde = spec.predict(state, 1.0)
    res = op(spec, tilde, tilde) + L.T @ Q @ (L @ tilde.concat() - v)
    assert np.max(np.abs(res)) <= 1e-10 * (1.0 + w.norm())

    breve, tilde = spec.predict(state, 0.3)
    res = op(spec, breve, tilde) + L.T @ Q @ (L @ tilde.concat() - v)
    assert np.max(np.abs(res)) <= 1e-10 * (1.0 + w.norm())
    # extrapolation identity ties breve to tilde and the previous breve
    lhs = tilde.concat()
    rhs = (1.0 / 0.3) * breve.concat() - (0.7 / 0.3) * w.concat()
    np.testing.assert_allclose(lhs, rhs, atol=1e-10)


# ---------------------------------------------------------------------------
# multi-block scheme


def test_multiblock_single_block_oracle():
    # m = 1, f = ||x - a||^2/2, A = I, from v = 0:
    # x solves (I + beta A'A) x = a, lam = -beta(Ax - b)
    a = np.array([1.0, -2.0])
    b = np.array([0.5, 0.5])
    beta = 2.0
    spec = MultiBlockSpec(
        prox_f_i=(QuadraticCost(np.eye(2), a),),
        A_i=(np.eye(2),), b=b, beta=beta, alpha=0.5)
    state = SolverState(v_curr=np.zeros(4), w_curr=spec.initial_point())
    _, tilde = spec.predict(state, 1.0)
    want_x = a / (1.0 + beta)
    np.testing.assert_allclose(tilde["x1"], want_x, rtol=1e-14)
    np.testing.assert_allclose(tilde["lam"], -beta * (want_x - b), rtol=1e-14)


def test_multiblock_image_round_trip():
    inst = make_multiblock_quadratic(3, 3, 2, 3)
    spec = inst.spec
    assert spec.point_from_image(np.zeros(spec.correction_spec().L.shape[0])) is None

    w = inst.w_star
    v = spec.image(w)
    # the predictor reads the image state alone; w_curr is not needed
    state = SolverState(v_curr=v, w_curr=None, breve_prev=w)
    _, tilde = spec.predict(state, 1.0)
    v_tilde = spec.image(tilde)
    assert v_tilde.shape == v.shape
    np.testing.assert_allclose(v_tilde, v, atol=1e-9 * (1 + np.linalg.norm(v)))

    vb, vt = (spec.image(p) for p in spec.predict(state, 0.5))
    np.testing.assert_allclose(vb, v, atol=1e-9 * (1 + np.linalg.norm(v)))
    np.testing.assert_allclose(vt, v, atol=1e-9 * (1 + np.linalg.norm(v)))


def test_multiblock_certified_region():
    inst = make_multiblock_quadratic(0, 2, 2, 2, alpha=0.5)
    assert inst.spec.in_certified_region()
    cert = certify(inst.spec.correction_spec())
    assert cert.satisfied
    for alpha in (0.0, 1.0, 1.5):
        spec = MultiBlockSpec(prox_f_i=inst.spec.prox_f_i, A_i=inst.spec.A_i,
                              b=inst.spec.b, beta=inst.spec.beta, alpha=alpha)
        assert not spec.in_certified_region()


# ---------------------------------------------------------------------------
# saddle scheme


def test_saddle_box_game_hand_step():
    # f, g both box indicators on [0,1], A = [1], r = s = 1, alpha = 1/2.
    # From (x, y) = (1, 1): x maximizes toward 2 then clips to 1;
    # x_push = 1; y gets prox at y - A x_push / s = 0, stays 0.
    spec = SaddleSpec(prox_f=BoxIndicator(0.0, 1.0), prox_g=BoxIndicator(0.0, 1.0),
                      A=np.array([[1.0]]), r=1.0, s=1.0, alpha=0.5)
    w = BlockVector(("x", "y"), (np.array([1.0]), np.array([1.0])))
    state = SolverState(v_curr=spec.image(w), w_curr=w)
    _, tilde = spec.predict(state, 1.0)
    np.testing.assert_allclose(tilde["x"], [1.0])
    np.testing.assert_allclose(tilde["y"], [0.0])


def test_saddle_fixed_point_and_tau_one():
    inst = make_saddle_quadratic(5, 3, 2)
    w_star = inst.w_star
    state = SolverState(v_curr=inst.spec.image(w_star), w_curr=w_star,
                        breve_prev=w_star)
    _, tilde = inst.spec.predict(state, 1.0)
    assert (tilde - w_star).norm() <= 1e-10 * (1.0 + w_star.norm())

    rng = np.random.default_rng(3)
    w = BlockVector(inst.spec.block_names(),
                    tuple(rng.normal(size=d) for d in inst.spec.block_dims()))
    plain = SolverState(v_curr=inst.spec.image(w), w_curr=w)
    _, base = inst.spec.predict(plain, 1.0)
    anchored = SolverState(v_curr=inst.spec.image(w), w_curr=w, breve_prev=-1.0 * w)
    breve, tilde2 = inst.spec.predict(anchored, 1.0)
    assert breve is tilde2
    assert (tilde2 - base).norm() <= 1e-14 * (1.0 + base.norm())
    assert (breve - base).norm() <= 1e-14 * (1.0 + base.norm())


def test_saddle_region_matches_certificate():
    # alpha = 1/2 threshold is 0.75 * rho(A'A)
    A = np.array([[1.0]])
    good = SaddleSpec(prox_f=BoxIndicator(0.0, 1.0), prox_g=BoxIndicator(0.0, 1.0),
                      A=A, r=1.0, s=0.8, alpha=0.5)
    assert good.in_certified_region()  # 0.8 > 0.75
    assert certify(good.correction_spec()).satisfied

    bad = SaddleSpec(prox_f=BoxIndicator(0.0, 1.0), prox_g=BoxIndicator(0.0, 1.0),
                     A=A, r=1.0, s=0.7, alpha=0.5)
    assert not bad.in_certified_region()  # 0.7 < 0.75
    assert not certify(bad.correction_spec()).satisfied

    with pytest.raises(ValueError):
        SaddleSpec(prox_f=BoxIndicator(0.0, 1.0), prox_g=BoxIndicator(0.0, 1.0),
                   A=A, r=-1.0, s=1.0, alpha=0.5)
