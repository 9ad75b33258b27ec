import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from predcorr import linalg
from predcorr import (
    AsymmetryError,
    BlockVector,
    CorrectionSpec,
    L1Penalty,
    SaddleSpec,
    SingularCorrectionError,
    UncertifiedSpecError,
    VariationalInstance,
    certify,
    cholesky_pd_check,
    make_matrix_game,
    make_multiblock_quadratic,
    make_saddle_quadratic,
    make_two_block_l1,
    make_two_block_quadratic,
    run,
    spectral_radius_gram,
    tau_at,
)


def cp_spec(a, r=1.0, s=1.0, alpha=0.5):
    # scalar primal-dual correction triple; certified iff r*s exceeds
    # (1 - alpha + alpha^2) * a^2
    Q = np.array([[r, a], [alpha * a, s]])
    M = np.array([[1.0, 0.0], [-(1.0 - alpha) / s * a, 1.0]])
    return CorrectionSpec(Q=Q, M=M)


def test_certify_pass_and_fail():
    # alpha=1/2, r=s=1: threshold is 0.75 * a^2
    good = certify(cp_spec(0.5))  # 0.1875 < 1
    assert good.satisfied
    assert good.h_min_pivot > 0 and good.g_min_pivot > 0
    np.testing.assert_allclose(good.H.dense(), good.H.dense().T)

    bad = certify(cp_spec(1.5))  # 1.6875 > 1
    assert not bad.satisfied
    assert min(bad.h_min_pivot, bad.g_min_pivot) < 0


def test_certify_h_oracle():
    # a=0.5: M^-1 = [[1,0],[0.25,1]], H = Q M^-1 = [[1.125,0.5],[0.5,1]]
    cert = certify(cp_spec(0.5))
    np.testing.assert_allclose(cert.H.dense(), [[1.125, 0.5], [0.5, 1.0]], rtol=1e-14)


def test_certify_singular_m():
    spec = CorrectionSpec(Q=np.eye(2), M=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularCorrectionError):
        certify(spec)


def test_certify_asymmetric_h():
    # M = I so H = Q, asymmetric by construction
    spec = CorrectionSpec(Q=np.array([[1.0, 1.0], [0.0, 1.0]]), M=np.eye(2))
    with pytest.raises(AsymmetryError):
        certify(spec)


def test_correction_spec_validation():
    with pytest.raises(ValueError):
        CorrectionSpec(Q=np.eye(3), M=np.eye(2))


def test_correction_spec_from_blocks():
    # dims (2, 1, 2): a dense block, a scalar block (c I), a diagonal block
    # and an absent (zero) block give the matrix they stand for
    Q = {(0, 0): [[2.0, 1.0], [1.0, 3.0]], (1, 1): 4.0, (2, 2): [5.0, 6.0],
         (0, 2): 0.5, (2, 0): 0.5}
    spec = CorrectionSpec(Q, {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0}, (2, 1, 2))
    want = np.array([[2.0, 1.0, 0.0, 0.5, 0.0], [1.0, 3.0, 0.0, 0.0, 0.5],
                     [0.0, 0.0, 4.0, 0.0, 0.0], [0.5, 0.0, 0.0, 5.0, 0.0],
                     [0.0, 0.5, 0.0, 0.0, 6.0]])
    np.testing.assert_array_equal(spec.Q.dense(), want)
    np.testing.assert_array_equal(spec.M.dense(), np.eye(5))
    assert spec.Q.shape == (5, 5)
    assert [idx.tolist() for idx in spec.Q.stacks] == [[[2]], [[0, 1, 3, 4]]]
    dense = certify(CorrectionSpec(want, np.eye(5)))
    np.testing.assert_array_equal(certify(spec).H.dense(), dense.H.dense())


@pytest.mark.parametrize("Q, error", [
    ({(0, 2): np.eye(2)}, ValueError),  # no block 2
    ({(0, 1): 1.0}, ValueError),  # a scalar block must be square
    ({(1, 1): [1.0, 2.0]}, ValueError),  # a diagonal of the wrong size
    ({(0, 0): np.ones((2, 3))}, ValueError),  # a dense block of the wrong shape
    ({(0, 0): np.inf}, ValueError),
    ({(0, 1): [[np.nan], [1.0]]}, ValueError),
    (np.eye(3), TypeError),  # with dims, blocks come as a dict
], ids=["index", "scalar-shape", "diagonal-shape", "dense-shape", "inf", "nan", "array"])
def test_correction_spec_rejects_bad_blocks(Q, error):
    with pytest.raises(error):
        CorrectionSpec(Q, {(0, 0): 1.0, (1, 1): 1.0}, (2, 1))


def dense_certificate(Q, M):
    # the definition: H = Q M^-1 by a dense solve, G = Q^T + Q - M^T H M
    h = np.linalg.solve(M.T, Q.T).T
    H = 0.5 * (h + h.T)
    G = Q.T + Q - M.T @ H @ M
    return H, cholesky_pd_check(H), cholesky_pd_check(0.5 * (G + G.T))


def pivot_of(result):
    if result.positive_definite:
        return float(np.min(np.diagonal(result.factor)) ** 2)
    return result.pivot_value


def assert_matches_dense(spec):
    cert = certify(spec)
    H, h_ref, g_ref = dense_certificate(spec.Q.dense(), spec.M.dense())
    np.testing.assert_allclose(cert.H.dense(), H, rtol=0, atol=1e-12 * np.abs(H).max())
    assert cert.h_min_pivot == pytest.approx(pivot_of(h_ref), rel=1e-12)
    assert cert.g_min_pivot == pytest.approx(pivot_of(g_ref), rel=1e-12)
    assert cert.satisfied == (h_ref.positive_definite and g_ref.positive_definite)
    assert cholesky_pd_check(cert.H.dense()).pivot_index == h_ref.pivot_index
    assert cholesky_pd_check(cert.G.dense()).pivot_index == g_ref.pivot_index
    return cert


def count_solves(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


@settings(max_examples=300, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 7),
       shift=st.floats(-1.0, 3.0), density=st.floats(0.2, 1.0))
def test_certify_closed_form_matches_dense(seed, dim, shift, density):
    # M = D + N whose off-diagonal rows and columns are disjoint, D not the
    # identity; Q = H0 M for a symmetric H0 whose shift makes some specs
    # pass and some fail
    rng = np.random.default_rng(seed)
    role = rng.integers(0, 3, dim)  # 0: a row of N, 1: a column of N, 2: neither
    mask = (role[:, None] == 0) & (role[None, :] == 1) & (rng.random((dim, dim)) < density)
    M = np.diag(rng.choice([-1.0, 1.0], dim) * rng.uniform(0.5, 2.0, dim))
    M[mask] = rng.normal(size=mask.sum())
    B = rng.normal(size=(dim, dim))
    H0 = B @ B.T / dim + shift * np.eye(dim)
    assert_matches_dense(CorrectionSpec(Q=H0 @ M, M=M))


@pytest.mark.parametrize("make", [
    lambda: make_two_block_quadratic(0, 4, 3, 5),
    lambda: make_two_block_quadratic(1, 3, 2, 4, r=0.5, s=1.5),
    lambda: make_two_block_l1(0, 5, 0.5),
    lambda: make_saddle_quadratic(0, 5, 4),
    lambda: make_saddle_quadratic(0, 5, 4, r=0.1, s=0.1),
    lambda: make_matrix_game(np.array([[1.0, 2.0], [3.0, 4.0]])),
], ids=["two-block", "two-block-fails", "l1", "saddle", "saddle-fails", "game"])
def test_certify_shipped_closed_form_schemes(make, monkeypatch):
    # every two-block and saddle scheme takes the closed form: no dense solve
    calls = count_solves(monkeypatch)
    spec = make().spec.correction_spec()
    calls.clear()
    assert_matches_dense(spec)
    assert calls == [1]  # dense_certificate's own solve


def test_certify_overlapping_pattern_takes_the_dense_path(monkeypatch):
    # index 1 is both a row and a column of N; so is every multi-block M
    M = np.array([[2.0, 0.5, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 1.5]])
    H0 = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])
    multi = make_multiblock_quadratic(0, 3, 2, 3).spec.correction_spec()
    calls = count_solves(monkeypatch)
    for spec in (CorrectionSpec(Q=H0 @ M, M=M), multi):
        calls.clear()
        assert_matches_dense(spec)
        assert calls == [1, 1]


@pytest.mark.parametrize("M", [[[0.0, 0.0], [1.0, 1.0]], [[2.0, 3.0], [0.0, 0.0]],
                               [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [4.0, 0.0, 2.0]]])
def test_certify_zero_diagonal_is_singular(M):
    # with disjoint rows and columns a zero d_k leaves row or column k zero
    with pytest.raises(SingularCorrectionError):
        certify(CorrectionSpec(Q=np.eye(len(M)), M=np.array(M)))


def _connected_block(rng, size, closed):
    # an M block and a symmetric H0 block with dense Q = H0 M; closed blocks
    # are D + N with disjoint off-diagonal rows and columns, the rest dense
    if closed:
        role = rng.integers(0, 3, size)
        mask = (role[:, None] == 0) & (role[None, :] == 1)
        M = np.diag(rng.uniform(0.5, 1.5, size))
        M[mask] = 0.3 * rng.normal(size=mask.sum())
    else:
        M = np.eye(size) + 0.3 * rng.normal(size=(size, size))
    B = rng.normal(size=(size, size))
    return M, B @ B.T / size


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), shift=st.floats(-1.0, 3.0),
       groups=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 2)),
                       min_size=1, max_size=3))
def test_certify_split_matches_dense(seed, shift, groups):
    assert_matches_dense(CorrectionSpec(*_split_matrices(seed, shift, groups)))


def _split_matrices(seed, shift, groups):
    # (Q, M) block diagonal under a random permutation: 1-6 components of
    # sizes 1-5, sizes repeated so that components stack, closed-form and
    # dense M blocks mixed; the shift makes some specs pass and some fail
    # at H or at G
    rng = np.random.default_rng(seed)
    sizes = [size for size, repeat in groups for _ in range(repeat)]
    dim = sum(sizes)
    perm = rng.permutation(dim)
    Q, M = np.zeros((dim, dim)), np.zeros((dim, dim))
    start = 0
    for size in sizes:
        idx = np.ix_(perm[start:start + size], perm[start:start + size])
        M[idx], H0 = _connected_block(rng, size, rng.random() < 0.5)
        Q[idx] = (H0 + shift * np.eye(size)) @ M[idx]
        start += size
    assume(np.linalg.cond(M) < 1e8)
    return Q, M


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), shift=st.floats(-1.0, 3.0),
       groups=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 2)),
                       min_size=1, max_size=3))
def test_block_operator_matches_its_dense_matrix(seed, shift, groups):
    # the split specs above with every multi-component operator held as
    # stacks of blocks (they are all smaller than the dense size rule)
    Q, M = _split_matrices(seed, shift, groups)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_DENSE_DIM", 0)
        spec = CorrectionSpec(Q=Q, M=M)
        cert = certify(spec)
        ops = (cert.H, cert.G, spec.M)
    np.testing.assert_array_equal(ops[2].dense(), M)  # zero between components
    x = np.random.default_rng(seed).normal(size=spec.Q.shape[0])
    for op in ops:
        want = op.dense() @ x
        np.testing.assert_allclose(op @ x, want, rtol=0, atol=1e-13 * np.abs(want).max())


def _ldl(d):
    # L diag(d) L^T for a unit lower-triangular L without zeros: one
    # component whose Cholesky pivots are d
    n = len(d)
    L = np.eye(n) + np.tril(np.full((n, n), 0.5), -1)
    return L @ np.diag(d) @ L.T


@pytest.mark.parametrize("a_idx, b_idx, b_pivots, want", [
    ([0, 1, 2], [3, 4, 5], [-2.0, 1.0, 1.0], -0.5),
    ([0, 2, 3], [1, 4, 5], [1.0, -2.0, 1.0], -0.5),
    ([0, 3, 4], [1, 2, 5], [1.0, -2.0, 1.0], -2.0),
], ids=["apart-a-first", "interleaved-a-first", "interleaved-b-first"])
def test_certify_reports_the_smallest_global_failing_index(a_idx, b_idx, b_pivots, want):
    # M = I, so H = G = Q. Component A fails at its local pivot 2, B at a
    # smaller local pivot; the whole-matrix loop meets first the failing
    # pivot with the smaller global index, and so must certify
    Q = np.zeros((6, 6))
    Q[np.ix_(a_idx, a_idx)] = _ldl([1.0, 2.0, -0.5])
    Q[np.ix_(b_idx, b_idx)] = _ldl(b_pivots)
    cert = assert_matches_dense(CorrectionSpec(Q=Q, M=np.eye(6)))
    assert not cert.satisfied
    assert cert.h_min_pivot == pytest.approx(want, rel=1e-12)
    assert cert.g_min_pivot == pytest.approx(want, rel=1e-12)


def test_certify_singular_component_raises():
    # M's second component [[1, 2], [2, 4]] is singular; the first is not
    M = np.zeros((4, 4))
    M[:2, :2] = [[2.0, 0.5], [0.0, 1.0]]
    M[2:, 2:] = [[1.0, 2.0], [2.0, 4.0]]
    with pytest.raises(SingularCorrectionError):
        certify(CorrectionSpec(Q=np.eye(4) + np.eye(4, k=1) * [1, 0, 1, 0], M=M))


def test_certify_asymmetric_component_raises():
    # M = I so H = Q: one symmetric component and one asymmetric one
    Q = np.zeros((4, 4))
    Q[:2, :2] = [[2.0, 1.0], [1.0, 2.0]]
    Q[2:, 2:] = [[1.0, 1.0], [0.0, 1.0]]
    with pytest.raises(AsymmetryError):
        certify(CorrectionSpec(Q=Q, M=np.eye(4)))


def test_certify_holds_few_dense_temporaries():
    # beside the spec's Q and M: H, G and one Cholesky factor or one
    # dim x dim temporary at a time; split into many small components, no
    # dim x dim array at all (the spec labelled them, H and G stay blocks)
    for name, inst, bound in (
            ("one component", make_saddle_quadratic(0, 120, 90), 4),
            ("dense-solve stacks", make_multiblock_quadratic(0, 8, 8, 16), 4),
            ("many components", make_two_block_l1(0, 200, 0.5), 0.05)):
        spec = inst.spec.correction_spec()
        dim = spec.Q.shape[0]
        tracemalloc.start()
        try:
            certify(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 8 * dim * dim, name


def test_run_baseline_trace_shape():
    inst = make_two_block_l1(0, 2, 0.5)
    trace = run(inst, "baseline", 25)
    assert len(trace.records) == 25
    assert [r.k for r in trace.records] == list(range(25))
    assert all(r.tau == 1.0 for r in trace.records)
    assert trace.failure is None
    assert trace.final_v is not None
    # gap and residual are finite and eventually tiny on this instance
    assert trace.records[-1].pointwise_residual < 1e-12


def test_run_faster_tau_column():
    inst = make_two_block_l1(0, 2, 0.5)
    trace = run(inst, "faster", 10, tau_init=0.5)
    got = [r.tau for r in trace.records]
    want = [tau_at(0.5, k) for k in range(10)]
    np.testing.assert_allclose(got, want, rtol=1e-15)
    assert trace.final_breve is not None


def test_run_rejects_bad_args():
    inst = make_two_block_l1(0, 2, 0.5)
    with pytest.raises(ValueError):
        run(inst, "fastest", 10)
    with pytest.raises(ValueError):
        run(inst, "baseline", -1)
    for bad in (0.0, 1.0, 5e-324):  # tau_init is checked even at budget 0
        with pytest.raises(ValueError):
            run(inst, "faster", 0, tau_init=bad)
    trace = run(inst, "baseline", 0)
    assert len(trace.records) == 0


def test_run_uncertified_guard():
    inst = make_two_block_l1(0, 2, 0.5, r=-0.9, s=0.5)  # outside the region
    assert not inst.spec.in_certified_region()
    with pytest.raises(UncertifiedSpecError):
        run(inst, "baseline", 5)
    trace = run(inst, "baseline", 5, override_uncertified=True)
    assert trace.uncertified
    assert len(trace.records) == 5


def test_run_stopping_rule():
    inst = make_two_block_l1(0, 2, 0.5)
    full = run(inst, "baseline", 200)
    stopped = run(inst, "baseline", 200, residual_floor=1e-12)
    assert 0 < len(stopped.records) < len(full.records)
    assert stopped.records[-1].pointwise_residual <= 1e-12


def test_run_gap_decreases_on_l1():
    # the accelerated gap decays like 1/k^2, so 60 steps buy ~3-4 digits
    inst = make_two_block_l1(3, 4, 0.3)
    trace = run(inst, "faster", 60, tau_init=0.5)
    gaps = [r.gap_at_star for r in trace.records]
    assert gaps[-1] <= 1e-3 * (1.0 + abs(gaps[0]))
    assert all(g >= -1e-12 for g in gaps)  # gap at the oracle is nonnegative


@pytest.mark.parametrize("make", [
    lambda: make_two_block_l1(1, 3, 0.5),
    lambda: make_multiblock_quadratic(2, 3, 2, 3),
    lambda: make_saddle_quadratic(3, 3, 2),
], ids=["two-block", "multi-block", "saddle"])
def test_run_first_residual(make):
    # record 0 is ||M (v0 - v~0)||_H^2 in baseline and ||M (v^0 - v0)||_H^2
    # in faster, with v = spec.image(w), built here from the certificate and
    # one prediction
    inst = make()
    spec = inst.spec
    cspec = spec.correction_spec()
    H, M = certify(cspec).H.dense(), cspec.M
    rng = np.random.default_rng(5)
    w0 = BlockVector(spec.block_names(),
                     tuple(rng.normal(size=d) for d in spec.block_dims()))
    v0 = spec.image(w0)

    _, tilde = spec.predict(v0, w0, 1.0)
    d = M @ (v0 - spec.image(tilde))
    got = run(inst, "baseline", 1, w0=w0).records[0].pointwise_residual
    assert got == pytest.approx(d @ H @ d, rel=1e-12)

    breve, _ = spec.predict(v0, w0, tau_at(0.5, 0))
    d = M @ (spec.image(breve) - v0)
    got = run(inst, "faster", 1, w0=w0, tau_init=0.5).records[0].pointwise_residual
    assert got == pytest.approx(d @ H @ d, rel=1e-12)


class DocumentedSpec:
    """A spec exposing only the custom-spec protocol the README documents."""

    def __init__(self, inner):
        self._inner = inner
        self.family = inner.family
        self.objectives = inner.objectives
        self.coupling = inner.coupling

    def predict(self, v, breve_prev, tau):
        return self._inner.predict(v, breve_prev, tau)

    def correction_spec(self):
        return self._inner.correction_spec()

    def image(self, w):
        return self._inner.image(w)

    def block_names(self):
        return self._inner.block_names()

    def block_dims(self):
        return self._inner.block_dims()


@pytest.mark.parametrize("mode", ["baseline", "faster"])
def test_run_needs_only_the_documented_spec_protocol(mode):
    inst = make_saddle_quadratic(3, 3, 2)
    custom = VariationalInstance(DocumentedSpec(inst.spec), inst.w_star, inst.seed)
    want = [r.csv_fields() for r in run(inst, mode, 30, tau_init=0.5).records]
    got = [r.csv_fields() for r in run(custom, mode, 30, tau_init=0.5).records]
    assert len(got) == 30
    assert got == want


class PreparedCorrection(DocumentedSpec):
    """A documented spec whose correction_spec() is built once, up front."""

    def __init__(self, inner):
        super().__init__(inner)
        self._cspec = inner.correction_spec()

    def correction_spec(self):
        return self._cspec


def test_run_loop_holds_no_dense_matrix():
    # Q and M are built before tracing starts, so past certify a run's
    # allocations are blocks and vectors; a densified H or M in the loop
    # would add a whole dim x dim array to a budget-20 run's peak
    inst = make_two_block_l1(0, 200, 0.5)
    inst = VariationalInstance(PreparedCorrection(inst.spec), inst.w_star, inst.seed)
    dim = inst.spec.correction_spec().Q.shape[0]
    peaks = []
    for budget in (0, 20):
        tracemalloc.start()
        try:
            assert len(run(inst, "faster", budget).records) == budget
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 0.05 * 8 * dim * dim


@pytest.mark.parametrize("mode", ["baseline", "faster"])
def test_diagonal_consensus_run_holds_no_dense_matrix(mode):
    # A1 = I, A2 = -I, P and S = I are held as diagonals, so neither the
    # correction spec built inside run, its certificate, the pencils nor
    # the loop's products form an n x n array
    inst = make_two_block_l1(0, 400, 0.5)
    dim = sum(inst.spec.block_dims())
    tracemalloc.start()
    try:
        assert len(run(inst, mode, 20).records) == 20
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * 8 * dim * dim


@pytest.mark.parametrize("build", [
    lambda: make_two_block_l1(0, 5, 0.5),
    lambda: make_multiblock_quadratic(0, 3, 2, 3),
    lambda: make_saddle_quadratic(0, 4, 3),
], ids=["two-block", "multi-block", "saddle"])
def test_correction_spec_is_built_once(build):
    spec = build().spec
    assert spec.correction_spec() is spec.correction_spec()


@pytest.mark.parametrize("mode", ["baseline", "faster"])
def test_run_divergence_ends_in_failure(mode):
    # steps far outside the certified region blow the iterates up; the run
    # stops at the first overflow and keeps every finite row before it
    inst = make_saddle_quadratic(0, 5, 4, r=0.05, s=0.05)
    trace = run(inst, mode, 1000, override_uncertified=True)
    assert 0 < len(trace.records) < 1000
    assert trace.failure.startswith(f"diverged at k={len(trace.records)}: ")
    for rec in trace.records:
        assert np.all(np.isfinite(rec.csv_fields()))
    assert np.all(np.isfinite(trace.final_v))


def test_run_subproblem_failure_is_one_line():
    # a non-scalar P leaves the l1 step without a closed-form prox
    inst = make_two_block_l1(0, 3, 0.5)
    inst = replace(inst, spec=replace(inst.spec, P=np.diag([1.0, 2.0, 3.0])))
    trace = run(inst, "baseline", 5)
    assert len(trace.records) == 0
    assert "\n" not in trace.failure
    assert "shape (3, 3)" in trace.failure


class FaultyL1(L1Penalty):
    """0.1 ||x||_1 whose sixth prox raises or returns NaN, or whose sixth value is inf."""

    def __init__(self, fault=None):
        super().__init__(0.1)
        self.fault, self.proxes, self.values = fault, 0, 0

    def prox(self, z, rho):
        self.proxes += 1
        if self.proxes == 6 and self.fault == "raise":
            raise ZeroDivisionError("division by zero")
        if self.proxes == 6 and self.fault == "nan":
            return np.full_like(z, np.nan)
        return super().prox(z, rho)

    def value(self, x):
        self.values += 1
        return np.inf if self.values == 6 and self.fault == "inf" else super().value(x)


def _faulty_saddle(fault=None):
    # certified: r s = 4 > (1 - alpha + alpha^2) rho(A'A) = 0.75 * 1.25
    A = np.array([[1.0, 0.5], [-0.5, 1.0]])
    return VariationalInstance(SaddleSpec(FaultyL1(fault), L1Penalty(0.1), A, 2.0, 2.0, 0.5))


@pytest.mark.parametrize("mode", ["baseline", "faster"])
@pytest.mark.parametrize("fault, failure", [
    ("raise", "ZeroDivisionError in predict at k=5: division by zero"),
    ("nan", "ValueError in predict at k=5: "),
    ("inf", "non-finite value at k=5"),
], ids=["prox-raises", "prox-nan", "value-inf"])
def test_run_custom_component_fault_ends_in_failure(mode, fault, failure):
    # a fault in a custom ProxOp at iteration 5 ends the run there, with
    # the five rows before it as a clean run has them
    clean = run(_faulty_saddle(), mode, 20)
    assert clean.failure is None and len(clean.records) == 20
    trace = run(_faulty_saddle(fault), mode, 20)
    assert trace.failure.startswith(failure)
    assert [r.csv_fields() for r in trace.records] == [r.csv_fields() for r in clean.records[:5]]
    assert np.all(np.isfinite(trace.final_v))


class NaNImageSpec(DocumentedSpec):
    """A documented spec whose seventh image, a few iterations in, is NaN."""

    def __init__(self, inner):
        super().__init__(inner)
        self.images = 0

    def image(self, w):
        self.images += 1
        v = self._inner.image(w)
        return np.full_like(v, np.nan) if self.images == 7 else v


@pytest.mark.parametrize("mode", ["baseline", "faster"])
def test_run_non_finite_state_ends_in_failure(mode):
    # a NaN passes through every floating-point operation without raising
    inst = make_saddle_quadratic(3, 3, 2)
    custom = VariationalInstance(NaNImageSpec(inst.spec), inst.w_star, inst.seed)
    trace = run(custom, mode, 20)
    assert trace.failure.startswith("non-finite value at k=")
    assert 0 < len(trace.records) < 20
    assert np.all(np.isfinite(trace.final_v))


class FaultyImageSpec(DocumentedSpec):
    """A documented spec whose fifth image call raises."""

    def __init__(self, inner):
        super().__init__(inner)
        self.images = 0

    def image(self, w):
        self.images += 1
        if self.images == 5:
            raise ZeroDivisionError("division by zero")
        return self._inner.image(w)


@pytest.mark.parametrize("mode", ["baseline", "faster"])
def test_run_image_fault_ends_in_failure(mode):
    # two image calls come before the loop (start and oracle), then one per
    # baseline iteration and two per faster one: the fifth is in k=2 or k=1
    inst = make_saddle_quadratic(3, 3, 2)
    clean = run(inst, mode, 20)
    custom = VariationalInstance(FaultyImageSpec(inst.spec), inst.w_star, inst.seed)
    trace = run(custom, mode, 20)
    k = 2 if mode == "baseline" else 1
    assert trace.failure == f"ZeroDivisionError in image at k={k}: division by zero"
    assert [r.csv_fields() for r in trace.records] == [r.csv_fields() for r in clean.records[:k]]
    assert np.all(np.isfinite(trace.final_v))


class WrongBlocksSpec(DocumentedSpec):
    """A documented spec whose predict renames a block or drops an entry."""

    def __init__(self, inner, fault):
        super().__init__(inner)
        self.fault = fault

    def predict(self, v, breve_prev, tau):
        out = []
        for w in self._inner.predict(v, breve_prev, tau):
            if self.fault == "name":
                w = BlockVector(("u",) + w.names[1:], w.blocks)
            else:
                w = BlockVector(w.names, (w[0][:-1],) + w.blocks[1:])
            out.append(w)
        return tuple(out)


@pytest.mark.parametrize("mode", ["baseline", "faster"])
@pytest.mark.parametrize("fault", ["name", "size"])
def test_run_checks_the_first_prediction_structure(mode, fault):
    inst = make_saddle_quadratic(3, 3, 2)
    custom = VariationalInstance(WrongBlocksSpec(inst.spec, fault), inst.w_star, inst.seed)
    with pytest.raises(ValueError, match="predict's output does not match"):
        run(custom, mode, 5)


@pytest.mark.parametrize("mode", ["baseline", "faster"])
def test_run_set_up_holds_no_dense_matrix(mode):
    # a budget-0 run builds (Q, M) from the family's blocks and certifies
    # them on 2n small components: no dim x dim array at any point
    inst = make_two_block_l1(0, 200, 0.5)
    dim = sum(inst.spec.block_dims())
    tracemalloc.start()
    try:
        run(inst, mode, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 8 * dim * dim


def _small_instance(family, seed, n, m):
    if family == "two-block-quadratic":
        return make_two_block_quadratic(seed, n, m, n + m)
    if family == "two-block-l1":
        return make_two_block_l1(seed, n, 0.5)
    if family == "multi-block-quadratic":
        return make_multiblock_quadratic(seed, m, n, n)
    if family == "saddle-quadratic":
        return make_saddle_quadratic(seed, n, m)
    return make_matrix_game(np.random.default_rng(seed).normal(size=(m, n)))


@pytest.mark.parametrize("family", ["two-block-quadratic", "two-block-l1",
                                    "multi-block-quadratic", "saddle-quadratic",
                                    "matrix-game"])
def test_run_factors_nothing_in_the_loop(family, monkeypatch):
    # the subproblems are prepared when the spec is built; every PD check
    # (certify's stacks and each cholesky_pd_check) runs _cholesky_stack, and
    # a run's only ones are certify's, as many at budget 20 as at budget 0
    from predcorr import framework, linalg
    inst = _small_instance(family, 0, 3, 2)
    calls = []
    check = linalg._cholesky_stack

    def counted(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    for module in (framework, linalg):
        monkeypatch.setattr(module, "_cholesky_stack", counted)
    run(inst, "faster", 0)
    at_budget_0 = len(calls)
    calls.clear()
    trace = run(inst, "faster", 20)
    assert trace.failure is None and len(trace.records) == 20
    assert at_budget_0 >= 2 and len(calls) == at_budget_0


@pytest.mark.parametrize("mode", ["baseline", "faster"])
@pytest.mark.parametrize("family", ["two-block-quadratic", "two-block-l1",
                                    "multi-block-quadratic", "saddle-quadratic",
                                    "matrix-game"])
def test_run_evaluates_the_objective_once_per_iteration(family, mode, monkeypatch):
    # the gap and the objective column share one theta(measured)
    if family == "matrix-game":  # rock-paper-scissors, whose oracle is uniform play
        inst = make_matrix_game(np.array([[0.0, 1.0, -1.0], [-1.0, 0.0, 1.0],
                                          [1.0, -1.0, 0.0]]))
    else:
        inst = _small_instance(family, 0, 3, 2)
    assert inst.w_star is not None
    calls = []
    objective = VariationalInstance.objective

    def counted(self, w):
        calls.append(1)
        return objective(self, w)

    monkeypatch.setattr(VariationalInstance, "objective", counted)
    trace = run(inst, mode, 20)
    assert trace.failure is None and len(trace.records) == 20
    assert len(calls) == 20


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(["two-block-quadratic", "two-block-l1",
                               "multi-block-quadratic", "saddle-quadratic",
                               "matrix-game"]),
       seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4), m=st.integers(1, 4),
       budget=st.integers(1, 25),
       # seeds whose reciprocal overflows are rejected on entry
       # (test_run_rejects_bad_args); the smallest normal float is above them
       tau_init=st.floats(np.finfo(float).tiny, 1.0, exclude_max=True))
def test_run_faster_never_raises_on_certified_instances(family, seed, n, m, budget,
                                                        tau_init):
    inst = _small_instance(family, seed, n, m)
    assume(certify(inst.spec.correction_spec()).satisfied)
    trace = run(inst, "faster", budget, tau_init=tau_init)
    if tau_init >= 1e-150:
        assert len(trace.records) == budget
        assert trace.failure is None
    else:
        # from the zero start, outside the matrix game's simplices, the first
        # tilde point is O(1/tau_init) and its squared H-norm overflows
        assert trace.failure is None or trace.failure.startswith("diverged at k=")


# ---------------------------------------------------------------------------
# the paper's sufficient conditions imply the certificate

REGION_MARGIN = 1e-6
region_settings = settings(max_examples=200, deadline=None, derandomize=True)
sizes = dict(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4), m=st.integers(1, 4))


@region_settings
@given(l1=st.booleans(), beta=st.floats(1e-2, 1e2), r=st.floats(-1.0, 1.0),
       s=st.floats(0.0, 1.0), **sizes)
def test_two_block_region_is_certified(l1, beta, r, s, seed, n, m):
    if l1:
        inst = make_two_block_l1(seed, n, 0.5, beta=beta, r=r, s=s)
    else:
        inst = make_two_block_quadratic(seed, n, m, n + m, beta=beta, r=r, s=s)
    assume(inst.spec.in_certified_region(REGION_MARGIN))
    assert certify(inst.spec.correction_spec()).satisfied


@region_settings
@given(beta=st.floats(1e-2, 1e2), alpha=st.floats(0.0, 1.0), **sizes)
def test_multi_block_region_is_certified(beta, alpha, seed, n, m):
    inst = make_multiblock_quadratic(seed, m, n, n, beta=beta, alpha=alpha)
    assume(inst.spec.in_certified_region(REGION_MARGIN))
    assert certify(inst.spec.correction_spec()).satisfied


@region_settings
@given(game=st.booleans(), alpha=st.floats(0.0, 1.0), split=st.floats(-2.0, 2.0),
       scale=st.floats(0.5, 10.0), **sizes)
def test_saddle_region_is_certified(game, alpha, split, scale, seed, n, m):
    # r*s = scale * (1 - alpha + alpha^2) rho(A'A), split between r and s by
    # the factor 10**split; a scale near or below 1 may fall outside the region
    inst = _small_instance("matrix-game" if game else "saddle-quadratic", seed, n, m)
    rs = scale * (1.0 - alpha + alpha ** 2) * spectral_radius_gram(inst.spec.A)
    r = 10.0 ** split * np.sqrt(rs)
    spec = replace(inst.spec, r=r, s=rs / r, alpha=alpha)
    assume(spec.in_certified_region(REGION_MARGIN))
    assert certify(spec.correction_spec()).satisfied
