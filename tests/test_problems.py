import hashlib
import json

import numpy as np
import pytest

from predcorr import (
    BlockVector,
    BoxIndicator,
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


def _splitmix64_words(seed, n):
    """The reference stream, one Python-int word at a time."""
    mask, state, out = (1 << 64) - 1, seed & ((1 << 64) - 1), []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2, 2 ** 63 + 12345, 2 ** 64 - 1])
def test_splitmix64_draws_match_the_one_word_reference(seed):
    # vector draws many words at once (counter-based); the stream, the
    # mapping into [-1, 1] and the state carried between calls are the
    # word-at-a-time reference's, bit for bit
    words = _splitmix64_words(seed, 60)
    want = np.array([2.0 * ((z >> 11) * 2.0 ** -53) - 1.0 for z in words])
    rng = SplitMix64(seed)
    got = np.concatenate([rng.vector(7), [rng.uniform()], rng.matrix(4, 5).ravel(),
                          rng.vector(0), rng.vector(31)])
    assert got.tobytes() == want[:59].tobytes()
    assert rng.next_uint64() == words[59]


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


def test_multiblock_redraws_when_the_oracle_is_refused():
    # the first 3x3 draw of this seed is ill-conditioned (cond 2.2e3) and its
    # KKT point misses the 1e-10 feasibility check; a later draw is used
    inst = make_multiblock_quadratic(1860084314, 1, 3, 3)
    assert inst.feasibility(inst.w_star) <= 1e-10
    first = SplitMix64(1860084314).matrix(3, 3)
    assert not np.array_equal(inst.spec.A_i[0], first)


# sha256 of the instance document without w_star, from the first draw, at
# the multiblock-small benchmark size; w_star is the KKT solve of that data
MULTIBLOCK_BENCH_DATA = [
    "52c0acc94e2145b7c097a20e87afbe9aa33f952600e3f6f9aa177755bd16ba9e",
    "d505a307c94d9e9b0c1b0b75db978f35cd970283fdc32e98b352fd0daf4f7558",
    "7846000894029dfe242e999fefbd1e21cdba2acdb06d9920f570e121246c9594",
]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_multiblock_first_draws_unchanged(seed):
    doc = instance_to_document(make_multiblock_quadratic(seed, 8, 8, 16))
    assert doc.pop("w_star") is not None
    digest = hashlib.sha256(json.dumps(doc).encode()).hexdigest()
    assert digest == MULTIBLOCK_BENCH_DATA[seed]


def test_generator_validation():
    with pytest.raises(ValueError):
        make_two_block_quadratic(0, 2, 4, 3)  # n2 > l breaks full column rank
    with pytest.raises(ValueError):
        make_two_block_quadratic(0, 0, 1, 1)
    with pytest.raises(ValueError):
        make_multiblock_quadratic(0, 0, 2, 2)


def test_empty_matrix_game_rejected():
    # a game with no strategies on one side has no simplex to project onto
    for A in (np.zeros((1, 0)), np.zeros((0, 2))):
        with pytest.raises(ValueError, match=r"shape \(\d, \d\)"):
            make_matrix_game(A)


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
        inst.gap_to_star(BlockVector.zeros(inst.spec.block_names(), inst.spec.block_dims()))


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


def test_f_matches_dense_skew_form():
    # F applied block by block equals K w + h, K holding -A_i' above the
    # last block and A_i beside it, h = -b on the last block (0 without b)
    rng = np.random.default_rng(9)
    for inst in (make_two_block_quadratic(1, 3, 2, 4),
                 make_two_block_l1(2, 4, 0.3),
                 make_multiblock_quadratic(3, 3, 2, 3),
                 make_saddle_quadratic(4, 3, 2),
                 make_matrix_game(np.array([[0.3, -0.2, 0.5], [0.1, 0.4, -0.6]]))):
        As, b = inst.spec.coupling
        A = np.hstack(As)
        l, n = A.shape
        K = np.block([[np.zeros((n, n)), -A.T], [A, np.zeros((l, l))]])
        h = np.concatenate([np.zeros(n), np.zeros(l) if b is None else -b])
        names, dims = inst.spec.block_names(), inst.spec.block_dims()
        for _ in range(10):
            w = BlockVector(names, tuple(rng.normal(size=d) for d in dims))
            want = K @ w.concat() + h
            np.testing.assert_allclose(inst.F(w), want, rtol=1e-14,
                                       atol=1e-14 * np.max(np.abs(want)))


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
    w0 = BlockVector.zeros(inst.spec.block_names(), inst.spec.block_dims())
    _, p1 = inst.spec.predict(inst.spec.image(w0), None, 1.0)
    _, p2 = back.spec.predict(back.spec.image(w0), None, 1.0)
    assert (p1 - p2).norm() == 0.0
    # and the rebuilt instance runs the same: every CSV column and the
    # H-distance to the oracle agree record for record
    from predcorr import run
    rec1 = run(inst, "faster", 20).records
    rec2 = run(back, "faster", 20).records
    assert len(rec1) == len(rec2) == 20
    for r1, r2 in zip(rec1, rec2):
        assert r1.csv_fields() == r2.csv_fields()
        assert r1.vdist_sq_h == r2.vdist_sq_h
    # documents survive the JSON text layer unchanged
    import json
    assert instance_to_document(back) == json.loads(json.dumps(doc))


def test_read_back_document_takes_the_diagonal_path():
    # the document holds dense arrays, and the held forms are decided from
    # their entries, so the consensus split reads back as diagonals
    from predcorr.linalg import _Diagonal
    back = instance_from_document(instance_to_document(make_two_block_l1(2, 3, 0.4)))
    for name in ("_A1", "_A2", "_P", "_W2"):
        assert isinstance(getattr(back.spec, name), _Diagonal), name
    assert isinstance(back.spec.prox_f2._S, _Diagonal)



def test_instance_applies_the_coupling_its_spec_holds():
    # the diagonal path is decided once, where a spec takes its matrices;
    # the instance's F and residual reuse those held forms
    from predcorr.linalg import _Diagonal
    for inst in (make_two_block_l1(0, 4, 0.5), make_two_block_quadratic(0, 4, 3, 5),
                 make_multiblock_quadratic(0, 3, 2, 3), make_saddle_quadratic(0, 6, 4)):
        assert inst._coupling is inst.spec._coupling
    As, _ = make_two_block_l1(0, 4, 0.5)._coupling
    assert all(isinstance(A, _Diagonal) for A in As)


HELD = ("A1", "A2", "b", "P", "_W2", "A_i", "multi-block b", "A", "S", "c", "V", "d",
        "_F_star", "lo", "hi", "Q block", "M block", "diagonal P", "diagonal _W2",
        "diagonal pencil s", "diagonal pencil w", "diagonal pencil d")


def _held_array(name):
    # one array of each kind that a spec, a ProxOp or an instance holds
    from predcorr.linalg import SPDPencil, _Diagonal
    two = make_two_block_quadratic(0, 4, 3, 5).spec
    multi = make_multiblock_quadratic(0, 3, 2, 3).spec
    saddle = make_saddle_quadratic(0, 6, 4)
    pencil = SPDPencil(np.eye(2), np.eye(2))
    diagonal = SPDPencil(_Diagonal(np.ones(2)), _Diagonal(np.full(2, 0.5)))
    l1 = make_two_block_l1(0, 3, 0.5).spec  # held as diagonals
    box = BoxIndicator(np.zeros(3), np.ones(3))
    cspec = two.correction_spec()
    return {"A1": two.A1, "A2": two.A2, "b": two.b, "P": two.P, "_W2": two._W2,
            "A_i": multi.A_i[0], "multi-block b": multi.b, "A": saddle.spec.A,
            "S": saddle.spec.prox_f.S, "c": saddle.spec.prox_f.c, "V": pencil.V,
            "d": pencil.d, "_F_star": saddle._F_star, "lo": box.lo, "hi": box.hi,
            "Q block": cspec.Q.blocks[0], "M block": cspec.M.blocks[0],
            "diagonal P": l1._P.d, "diagonal _W2": l1._W2.d, "diagonal pencil s": diagonal.s,
            "diagonal pencil w": diagonal.w, "diagonal pencil d": diagonal.d}[name]


@pytest.mark.parametrize("name", HELD)
def test_problem_data_is_read_only(name):
    # a write would leave what was derived from the data (prepared solves,
    # theta(u*), F(w*)) stale; every held array refuses it
    with pytest.raises(ValueError, match="read-only"):
        _held_array(name)[...] = 2.0
