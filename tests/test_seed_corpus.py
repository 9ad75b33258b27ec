"""The library's traces against the seed commit's, recorded in seed_corpus.json.

Every perf change is checked against its parent; this gate checks against
the seed, so small drifts cannot add up unseen. record_seed_corpus.py
recorded the corpus and says when to re-record it.
"""
import json

import pytest

import predcorr as pc
import record_seed_corpus as corpus

RTOL = 1e-10
# Below this share of a column's largest magnitude, over both modes of the
# case, an entry is compared against that floor instead of its own size, as
# in the benchmark's reference check: a quantity that has reached roundoff
# (vdist_sq_h of rock-paper-scissors after one baseline step) keeps no digits.
FLOOR = 1e-3
MODES = ("baseline", "faster")
RERUN = ("multi-block-quadratic/0", "consensus-l1")  # the dense and the stacked path


@pytest.fixture(scope="module")
def head_runs():
    return {name: corpus.run_case(pc, *case) for name, *case in corpus.CASES}


def _drift(got: float, want: float, scale: float) -> float:
    return abs(got - want) / max(abs(want), FLOOR * scale, 1e-300)


def test_traces_match_the_seed_corpus(head_runs):
    ref = json.loads(corpus.CORPUS.read_text())["cases"]
    assert list(ref) == list(head_runs)
    off = []
    for name, traces in head_runs.items():
        got, want = corpus.checkpoint_doc(traces), ref[name]
        for i, pivot in enumerate(("h_min_pivot", "g_min_pivot")):
            if _drift(got["pivots"][i], want["pivots"][i], 0.0) > RTOL:
                off.append((name, pivot, got["pivots"][i], want["pivots"][i]))
        for key in ("rows", "failure"):
            off += [(name, mode, key) for mode in MODES if got[mode][key] != want[mode][key]]
        for column in corpus.COLUMNS:
            w = [x for mode in MODES for x in want[mode][column]]
            if None in w:  # no oracle
                off += [(name, mode, column) for mode in MODES
                        if got[mode][column] != want[mode][column]]
                continue
            scale = max(map(abs, w))
            off += [(name, mode, column, k, a, b) for mode in MODES
                    for k, a, b in zip(corpus.CHECKPOINTS, got[mode][column], want[mode][column])
                    if _drift(a, b, scale) > RTOL]
    assert off == []


def test_reruns_are_byte_identical(head_runs):
    cases = {name: case for name, *case in corpus.CASES}

    def rows(trace):
        cert = trace.certificate
        return repr([(cert.h_min_pivot, cert.g_min_pivot)]
                    + [r.csv_fields() + (r.vdist_sq_h,) for r in trace.records])

    for name in RERUN:
        first = head_runs[name]
        for mode, trace in corpus.run_case(pc, *cases[name]).items():
            assert rows(trace) == rows(first[mode]), (name, mode)
