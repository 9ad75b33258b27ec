"""Runs are equivariant: a problem in rotated coordinates has the same trace.

Each case builds an instance and a copy of it in transformed coordinates:
orthogonal maps for blocks whose objective is a squared distance (or any
quadratic), signed permutations for l1 blocks, and permutations for the
simplex blocks of a matrix game; constraint rows are rotated too. Every
trace column is a coordinate-free quantity (gap, constraint residual,
H-norms, objective), so both modes' traces must agree to roundoff, under
the seed gate's rule. The transformed copies also reach the code by other
paths: a rotated two-block-l1 instance has dense A1 and A2 and two
components of (Q, M) where the original has 2n, so the two are certified
and run through different stacks of blocks.
"""
import numpy as np
import pytest

import predcorr as pc
from predcorr.problems import _saddle_steps
from record_seed_corpus import COLUMNS
from test_seed_corpus import RTOL, _drift

BUDGET = 100
MODES = ("baseline", "faster")


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _signed_permutation(rng, n):
    return np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)


def _permutation(rng, n):
    return np.eye(n)[rng.permutation(n)]


def _moved(f, U):
    """The objective f(U y) of y, for U orthogonal (a quadratic) or a signed permutation."""
    if isinstance(f, pc.QuadraticCost):
        return pc.QuadraticCost(U.T @ f.S @ U, U.T @ f.c, f.const)
    return f  # l1 and the simplex are invariant under the maps they are given


def _with_oracle(spec, inst, maps):
    """The transformed instance; its oracle is inst's, block i mapped by maps[i]^T."""
    w_star = None
    if inst.w_star is not None:
        w_star = pc.BlockVector(spec.block_names(),
                                tuple(T.T @ blk for T, blk in zip(maps, inst.w_star.blocks)))
    return pc.VariationalInstance(spec, w_star, inst.seed)


def _two_block(inst, rng):
    spec = inst.spec
    l1 = isinstance(spec.prox_f1, pc.L1Penalty)
    U1 = (_signed_permutation if l1 else _orthogonal)(rng, spec.n1)
    U2, V = _orthogonal(rng, spec.n2), _orthogonal(rng, spec.n_constraints)
    moved = pc.TwoBlockSpec(_moved(spec.prox_f1, U1), _moved(spec.prox_f2, U2),
                            V @ spec.A1 @ U1, V @ spec.A2 @ U2, V @ spec.b,
                            spec.beta, spec.r, spec.s)
    return _with_oracle(moved, inst, (U1, U2, V.T))


def _multi_block(inst, rng):
    spec = inst.spec
    Us = [_orthogonal(rng, A.shape[1]) for A in spec.A_i]
    V = _orthogonal(rng, spec.n_constraints)
    moved = pc.MultiBlockSpec(tuple(_moved(f, U) for f, U in zip(spec.prox_f_i, Us)),
                              tuple(V @ A @ U for A, U in zip(spec.A_i, Us)), V @ spec.b,
                              spec.beta, spec.alpha)
    return _with_oracle(moved, inst, (*Us, V.T))


def _saddle(inst, rng):
    spec = inst.spec
    U, V = _orthogonal(rng, spec.n_primal), _orthogonal(rng, spec.n_dual)
    A = V.T @ spec.A @ U
    r, s = _saddle_steps(A, spec.alpha, None, None)  # recomputed from the moved data
    moved = pc.SaddleSpec(_moved(spec.prox_f, U), _moved(spec.prox_g, V), A, r, s, spec.alpha)
    return _with_oracle(moved, inst, (U, V))


def _game(inst, rng):
    spec = inst.spec
    U, V = _permutation(rng, spec.n_primal), _permutation(rng, spec.n_dual)
    return pc.make_matrix_game(V.T @ spec.A @ U, alpha=spec.alpha)


CASES = [
    *((f"two-block-quadratic/{s}", lambda s=s: pc.make_two_block_quadratic(s, 4, 3, 5),
       _two_block) for s in range(3)),
    *((f"two-block-l1/{s}", lambda s=s: pc.make_two_block_l1(s, 6, 0.5), _two_block)
      for s in range(3)),
    ("two-block-l1/n=30", lambda: pc.make_two_block_l1(0, 30, 0.5), _two_block),
    ("two-block-l1/n=120", lambda: pc.make_two_block_l1(0, 120, 0.5), _two_block),
    *((f"multi-block-quadratic/{s}", lambda s=s: pc.make_multiblock_quadratic(s, 4, 3, 6),
       _multi_block) for s in range(3)),
    *((f"saddle-quadratic/{s}", lambda s=s: pc.make_saddle_quadratic(s, 5, 4), _saddle)
      for s in range(3)),
    *((f"matrix-game/{s}",
       lambda s=s: pc.make_matrix_game(2.0 * pc.SplitMix64(s).matrix(3, 4) - 1.0), _game)
      for s in range(3)),
]


def _columns(inst):
    traces = {mode: pc.run(inst, mode, BUDGET) for mode in MODES}
    for trace in traces.values():
        assert trace.failure is None and len(trace.records) == BUDGET
    return {c: {mode: [getattr(r, c) for r in t.records] for mode, t in traces.items()}
            for c in COLUMNS}


@pytest.mark.parametrize("make, transform", [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_traces_are_equivariant(make, transform):
    inst = make()
    moved = transform(inst, np.random.default_rng(7))
    want, got = _columns(inst), _columns(moved)
    off = []
    for column, by_mode in want.items():
        w = [x for mode in MODES for x in by_mode[mode]]
        if None in w:  # no oracle
            assert got[column] == by_mode, column
            continue
        scale = max(map(abs, w))
        off += [(column, mode, k, a, b) for mode in MODES
                for k, (a, b) in enumerate(zip(got[column][mode], by_mode[mode]))
                if _drift(a, b, scale) > RTOL]
    assert off == []


def test_rotated_consensus_has_two_components():
    # the original's (Q, M) falls apart into 2n components, the rotated copy's
    # into the x1 block and the (x2, lam) block
    inst = pc.make_two_block_l1(0, 120, 0.5)
    moved = _two_block(inst, np.random.default_rng(7))
    sizes = [idx.shape for idx in inst.spec.correction_spec().Q.stacks]
    assert sizes == [(120, 1), (120, 2)]
    assert [idx.shape for idx in moved.spec.correction_spec().Q.stacks] == [(1, 120), (1, 240)]
