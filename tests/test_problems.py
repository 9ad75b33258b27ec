import numpy as np
import pytest

from predcorr import (
    BlockVector,
    FOperator,
    SplitMix64,
    certify,
    gap_at,
    instance_from_document,
    instance_to_document,
    kkt_oracle,
    make_matrix_game,
    make_multiblock_quadratic,
    make_saddle_quadratic,
    make_two_block_l1,
    make_two_block_quadratic,
)


# ---------------------------------------------------------------------------
# deterministic randomness


def test_splitmix64_reference_vector():
    # first output for seed 0 in the reference implementation
    rng = SplitMix64(0)
    assert rng.next_uint64() == 0xE220A8397B1DCDAF


def test_splitmix64_determinism_and_range():
    a = SplitMix64(42)
    b = SplitMix64(42)
    va = a.vector(50)
    vb = b.vector(50)
    np.testing.assert_array_equal(va, vb)
    assert np.all(va >= -1.0) and np.all(va < 1.0)
    assert SplitMix64(43).vector(50)[0] != va[0]

    # matrix fills row-major, matching a reshaped vector draw
    m = SplitMix64(7).matrix(3, 4)
    np.testing.assert_array_equal(m, SplitMix64(7).vector(12).reshape(3, 4))


# ---------------------------------------------------------------------------
# generators and their oracles


def test_l1_instance_oracle():
    # min mu |x1|_1 + ||x2 - a||^2/2  s.t. x1 = x2, so x* is the
    # soft threshold of a and the multiplier is the leftover a - x*
    inst = make_two_block_l1(0, 2, 0.5)
    a = inst.spec.prox_f2.c
    x_star = np.sign(a) * np.maximum(np.abs(a) - 0.5, 0.0)
    np.testing.assert_allclose(inst.w_star["x1"], x_star, rtol=1e-12)
    np.testing.assert_allclose(inst.w_star["x2"], x_star, rtol=1e-12)
    np.testing.assert_allclose(inst.w_star["lam"], a - x_star, rtol=1e-12)
    assert inst.feasibility(inst.w_star) <= 1e-12
    assert inst.spec.in_certified_region()

    with pytest.raises(ValueError):
        make_two_block_l1(0, 2, -0.5)


def test_quadratic_two_block_oracle_is_kkt_point():
    for seed in range(3):
        inst = make_two_block_quadratic(seed, 2, 2, 3)
        w = inst.w_star
        # stationarity per block and primal feasibility
        r1 = inst.spec.prox_f1.grad(w["x1"]) - inst.spec.A1.T @ w["lam"]
        r2 = inst.spec.prox_f2.grad(w["x2"]) - inst.spec.A2.T @ w["lam"]
        assert np.max(np.abs(r1)) <= 1e-9
        assert np.max(np.abs(r2)) <= 1e-9
        assert inst.feasibility(w) <= 1e-9
        # matches the direct affine solve
        assert (kkt_oracle(inst) - w).norm() <= 1e-9


def test_generator_determinism():
    a = make_two_block_quadratic(5, 2, 2, 3)
    b = make_two_block_quadratic(5, 2, 2, 3)
    np.testing.assert_array_equal(a.spec.A1, b.spec.A1)
    np.testing.assert_array_equal(a.w_star.concat(), b.w_star.concat())
    c = make_two_block_quadratic(6, 2, 2, 3)
    assert not np.array_equal(a.spec.A1, c.spec.A1)


def test_generator_validation():
    with pytest.raises(ValueError):
        make_two_block_quadratic(0, 2, 4, 3)  # n2 > l breaks full column rank
    with pytest.raises(ValueError):
        make_two_block_quadratic(0, 0, 1, 1)
    with pytest.raises(ValueError):
        make_multiblock_quadratic(0, 0, 2, 2)


def test_kkt_oracle_identity_case():
    # f = ||x||^2/2, A = I: stationarity x = lam, feasibility x = b,
    # so both solution blocks equal b
    b = [0.3, -0.7]
    doc = {
        "family": "multi-block", "seed": None, "m": 1,
        "A": [[[1.0, 0.0], [0.0, 1.0]]], "b": b, "beta": 1.0,
        "r": None, "s": None, "alpha": 0.5, "P": None,
        "objective": [{"kind": "quadratic",
                       "S": [[1.0, 0.0], [0.0, 1.0]],
                       "c": [0.0, 0.0], "const": 0.0}],
        "w_star": None,
    }
    inst = instance_from_document(doc)
    assert inst.w_star is None
    w = kkt_oracle(inst)
    np.testing.assert_allclose(w["x1"], b, rtol=1e-14)
    np.testing.assert_allclose(w["lam"], b, rtol=1e-14)


def test_kkt_oracle_rejects_nonsmooth():
    inst = make_two_block_l1(0, 2, 0.5)
    with pytest.raises(ValueError):
        kkt_oracle(inst)


def test_multiblock_oracle_beats_feasible_probes():
    inst = make_multiblock_quadratic(4, 3, 2, 3)
    w = inst.w_star
    assert inst.feasibility(w) <= 1e-9
    base = inst.objective(w)
    # perturb along the constraint null space: stacked [A_1 ... A_m]
    stacked = np.hstack(inst.spec.A_i)
    _, sv, vt = np.linalg.svd(stacked)
    null = vt[len(sv):]
    assert null.shape[0] > 0
    rng = np.random.default_rng(0)
    dims = inst.spec.block_dims()[:-1]
    for _ in range(10):
        step = null.T @ rng.normal(size=null.shape[0])
        parts, at = [], 0
        for d in dims:
            parts.append(w[len(parts)] + step[at:at + d])
            at += d
        probe = BlockVector(inst.spec.block_names(), (*parts, w["lam"]))
        assert inst.feasibility(probe) <= 1e-8
        assert inst.objective(probe) >= base - 1e-10


def test_matrix_game_star_policies():
    # 1x1 game: both simplices are the single point 1
    inst = make_matrix_game(np.array([[0.3]]))
    np.testing.assert_allclose(inst.w_star["x"], [1.0])
    np.testing.assert_allclose(inst.w_star["y"], [1.0])

    # antisymmetric 2x2 game has the uniform equilibrium
    inst = make_matrix_game(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    np.testing.assert_allclose(inst.w_star["x"], [0.5, 0.5])
    np.testing.assert_allclose(inst.w_star["y"], [0.5, 0.5])
    assert inst.spec.in_certified_region()
    assert certify(inst.spec.correction_spec()).satisfied

    # no equilibrium oracle when uniform play is not optimal
    inst = make_matrix_game(np.array([[1.0, 0.0], [0.0, 0.5]]))
    assert inst.w_star is None
    with pytest.raises(ValueError):
        inst.gap_to_star(inst.spec.initial_point())


def test_matrix_game_explicit_step_sizes():
    inst = make_matrix_game(np.array([[1.0, -1.0], [-1.0, 1.0]]),
                            r=2.0, s=2.0, alpha=0.5)
    assert inst.spec.r == 2.0 and inst.spec.s == 2.0
    with pytest.raises(ValueError):
        make_matrix_game(np.eye(2), r=2.0)  # r and s come together


def test_saddle_quadratic_oracle():
    inst = make_saddle_quadratic(1, 3, 2)
    w = inst.w_star
    # saddle stationarity: grad f(x) = A'y, grad g(y) = -A x
    gx = inst.spec.prox_f.grad(w["x"]) - inst.spec.A.T @ w["y"]
    gy = inst.spec.prox_g.grad(w["y"]) + inst.spec.A @ w["x"]
    assert np.max(np.abs(gx)) <= 1e-9
    assert np.max(np.abs(gy)) <= 1e-9
    assert inst.spec.in_certified_region()


# ---------------------------------------------------------------------------
# gap machinery


def test_gap_is_lagrangian_difference_two_block():
    inst = make_two_block_quadratic(2, 2, 2, 3)
    spec = inst.spec
    rng = np.random.default_rng(1)
    names, dims = spec.block_names(), spec.block_dims()
    for _ in range(5):
        w_hat = BlockVector(names, tuple(rng.normal(size=d) for d in dims))
        w_ref = BlockVector(names, tuple(rng.normal(size=d) for d in dims))

        def lagr(x1, x2, lam):
            feas = spec.A1 @ x1 + spec.A2 @ x2 - spec.b
            return (spec.prox_f1.value(x1) + spec.prox_f2.value(x2)
                    - lam @ feas)

        want = (lagr(w_hat["x1"], w_hat["x2"], w_ref["lam"])
                - lagr(w_ref["x1"], w_ref["x2"], w_hat["lam"]))
        got = gap_at(w_hat, w_ref, inst)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_gap_is_saddle_difference():
    inst = make_saddle_quadratic(3, 2, 2)
    spec = inst.spec
    rng = np.random.default_rng(2)
    names, dims = spec.block_names(), spec.block_dims()

    def phi(x, y):
        return spec.prox_f.value(x) - y @ (spec.A @ x) - spec.prox_g.value(y)

    for _ in range(5):
        w_hat = BlockVector(names, tuple(rng.normal(size=d) for d in dims))
        w_ref = BlockVector(names, tuple(rng.normal(size=d) for d in dims))
        want = phi(w_hat["x"], w_ref["y"]) - phi(w_ref["x"], w_hat["y"])
        got = gap_at(w_hat, w_ref, inst)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_gap_nonnegative_at_oracle():
    inst = make_two_block_quadratic(0, 2, 2, 3)
    rng = np.random.default_rng(5)
    names, dims = inst.spec.block_names(), inst.spec.block_dims()
    for _ in range(20):
        w = BlockVector(names, tuple(rng.normal(size=d) for d in dims))
        assert inst.gap_to_star(w) >= -1e-12


def test_f_operator_rejects_non_skew():
    with pytest.raises(ValueError):
        FOperator(np.array([[0.0, 1.0], [1.0, 0.0]]), np.zeros(2))
    op = FOperator(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.array([1.0, 0.0]))
    np.testing.assert_allclose(op(np.array([2.0, 3.0])), [4.0, -2.0])


# ---------------------------------------------------------------------------
# serialization


@pytest.mark.parametrize("build", [
    lambda: make_two_block_quadratic(1, 2, 2, 3),
    lambda: make_two_block_l1(2, 3, 0.4),
    lambda: make_multiblock_quadratic(3, 3, 2, 3),
    lambda: make_saddle_quadratic(4, 2, 2),
    lambda: make_matrix_game(np.array([[1.0, -1.0], [-1.0, 1.0]])),
])
def test_document_round_trip(build):
    inst = build()
    doc = instance_to_document(inst)
    back = instance_from_document(doc)
    assert back.family == inst.family
    if inst.w_star is None:
        assert back.w_star is None
    else:
        assert (back.w_star - inst.w_star).norm() == 0.0
    # the rebuilt spec drives identical predictions
    from predcorr import SolverState
    w0 = inst.spec.initial_point()
    s1 = SolverState(v_curr=inst.spec.image(w0), w_curr=w0)
    s2 = SolverState(v_curr=back.spec.image(w0), w_curr=w0)
    _, p1 = inst.spec.predict(s1, 1.0)
    _, p2 = back.spec.predict(s2, 1.0)
    assert (p1 - p2).norm() == 0.0
    # documents survive the JSON text layer unchanged
    import json
    assert instance_to_document(back) == json.loads(json.dumps(doc))
