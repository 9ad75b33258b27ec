from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from predcorr import (
    AsymmetryError,
    BlockVector,
    CorrectionSpec,
    SingularCorrectionError,
    SolverState,
    UncertifiedSpecError,
    certify,
    make_matrix_game,
    make_multiblock_quadratic,
    make_saddle_quadratic,
    make_two_block_l1,
    make_two_block_quadratic,
    run,
    tau_at,
)


def cp_spec(a, r=1.0, s=1.0, alpha=0.5):
    # scalar primal-dual correction triple; certified iff r*s exceeds
    # (1 - alpha + alpha^2) * a^2
    Q = np.array([[r, a], [alpha * a, s]])
    M = np.array([[1.0, 0.0], [-(1.0 - alpha) / s * a, 1.0]])
    return CorrectionSpec(L=np.eye(2), Q=Q, M=M)


def test_certify_pass_and_fail():
    # alpha=1/2, r=s=1: threshold is 0.75 * a^2
    good = certify(cp_spec(0.5))  # 0.1875 < 1
    assert good.satisfied
    assert good.h_min_pivot > 0 and good.g_min_pivot > 0
    np.testing.assert_allclose(good.H, good.H.T)

    bad = certify(cp_spec(1.5))  # 1.6875 > 1
    assert not bad.satisfied
    assert min(bad.h_min_pivot, bad.g_min_pivot) < 0


def test_certify_h_oracle():
    # a=0.5: M^-1 = [[1,0],[0.25,1]], H = Q M^-1 = [[1.125,0.5],[0.5,1]]
    cert = certify(cp_spec(0.5))
    np.testing.assert_allclose(cert.H, [[1.125, 0.5], [0.5, 1.0]], rtol=1e-14)


def test_certify_singular_m():
    spec = CorrectionSpec(L=np.eye(2), Q=np.eye(2),
                          M=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(SingularCorrectionError):
        certify(spec)


def test_certify_asymmetric_h():
    # M = I so H = Q, asymmetric by construction
    spec = CorrectionSpec(L=np.eye(2),
                          Q=np.array([[1.0, 1.0], [0.0, 1.0]]), M=np.eye(2))
    with pytest.raises(AsymmetryError):
        certify(spec)


def test_correction_spec_validation():
    with pytest.raises(ValueError):
        CorrectionSpec(L=np.eye(2), Q=np.eye(3), M=np.eye(2))


def test_run_baseline_trace_shape():
    inst = make_two_block_l1(0, 2, 0.5)
    trace = run(inst, "baseline", 25)
    assert len(trace.records) == 25
    assert [r.k for r in trace.records] == list(range(25))
    assert all(r.tau == 1.0 for r in trace.records)
    assert trace.failure is None
    assert trace.final_w is not None
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
    # record 0 is ||M (v0 - v~0)||_H^2 in baseline and ||M (v^0 - L w0)||_H^2
    # in faster, built here from the certificate and one prediction
    inst = make()
    spec = inst.spec
    cspec = spec.correction_spec()
    H, L, M = certify(cspec).H, cspec.L, cspec.M
    rng = np.random.default_rng(5)
    w0 = BlockVector(spec.block_names(),
                     tuple(rng.normal(size=d) for d in spec.block_dims()))
    v0 = L @ w0.concat()
    state = SolverState(v_curr=v0, w_curr=w0, breve_prev=w0)

    _, tilde = spec.predict(state, 1.0)
    d = M @ (v0 - L @ tilde.concat())
    got = run(inst, "baseline", 1, w0=w0).records[0].pointwise_residual
    assert got == pytest.approx(d @ H @ d, rel=1e-12)

    breve, _ = spec.predict(state, tau_at(0.5, 0))
    d = M @ (L @ breve.concat() - v0)
    got = run(inst, "faster", 1, w0=w0, tau_init=0.5).records[0].pointwise_residual
    assert got == pytest.approx(d @ H @ d, rel=1e-12)


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
