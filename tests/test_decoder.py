import itertools
import math

import numpy as np
import pytest

from convpolar.codespec import CodeSpec
from convpolar.cvpt import encode
from convpolar.decoder import (
    forced_path_tables,
    leaf_probabilities,
    ml_decode_bruteforce,
    sc_decode,
    scl_decode,
    scl_decode_batch,
    subchannel_prob_bruteforce,
)


def rate1(n):
    return CodeSpec(n=n, k=n, seed=0, frozen=())


def random_code(rng, n, k, dynamic=True):
    info = sorted(rng.choice(n, size=k, replace=False).tolist())
    frozen = []
    for i in range(n):
        if i in info:
            continue
        prev = [j for j in info if j < i]
        parts = ()
        if dynamic and prev and rng.random() < 0.7:
            parts = tuple(j for j in prev if rng.random() < 0.5)
        frozen.append((i, parts))
    return CodeSpec(n=n, k=k, seed=0, frozen=tuple(frozen))


def subchannel_logprobs(soft, forced_u):
    """log W(u_0..u_{t-1}, c | y) for both c at every phase t, shape (n, 2)."""
    values, exps = forced_path_tables(soft, forced_u)
    with np.errstate(divide="ignore"):
        out = np.log(values[0])
    return out + exps[0][:, None] * math.log(2.0)


def test_leaf_probabilities():
    probs = leaf_probabilities(np.array([0.0, np.inf, -np.inf, 2.0]))
    assert probs[0].tolist() == [0.5, 0.5]
    assert probs[1].tolist() == [1.0, 0.0]
    assert probs[2].tolist() == [0.0, 1.0]
    assert abs(probs[3].sum() - 1.0) < 1e-15
    assert probs[3, 0] > probs[3, 1]


def test_soft_input_validation():
    code = rate1(2)
    with pytest.raises(ValueError):
        scl_decode(code, np.array([1.0, np.nan]), 1)
    with pytest.raises(ValueError):
        scl_decode(code, np.zeros((2, 2)), 1)  # a batch goes to scl_decode_batch
    # nor do the brute-force oracles read row 0 of a batch
    with pytest.raises(ValueError, match="one llr vector"):
        subchannel_prob_bruteforce(2, 0, [0], np.zeros((1, 2)))
    with pytest.raises(ValueError, match="one llr vector"):
        ml_decode_bruteforce(code, np.zeros((1, 2)))
    paths, metrics = scl_decode(code, np.zeros(2), 1)
    assert paths.shape == (1, 2) and paths.dtype == np.uint8
    assert metrics.shape == (1,)


def test_hand_computed_pair():
    # W(0|y0) = 0.9, W(0|y1) = 0.8: the first subchannel sees 0.74 vs 0.26
    llr = np.log(np.array([0.9, 0.8]) / np.array([0.1, 0.2]))
    assert abs(subchannel_prob_bruteforce(2, 0, (0,), llr) - 0.74) < 1e-12
    assert abs(subchannel_prob_bruteforce(2, 0, (1,), llr) - 0.26) < 1e-12
    logs = subchannel_logprobs(llr, np.array([0, 0], dtype=np.uint8))
    assert abs(math.exp(logs[0, 0]) - 0.74) < 1e-12
    assert abs(math.exp(logs[1, 0]) - 0.72) < 1e-12
    assert abs(math.exp(logs[1, 1]) - 0.02) < 1e-12


def test_bruteforce_marginalization():
    # summing the next symbol's pair gives the current prefix probability
    rng = np.random.default_rng(0)
    llr = rng.normal(0, 2, 8)
    for phi in range(1, 8):
        prefix = rng.integers(0, 2, phi).astype(np.uint8)
        whole = subchannel_prob_bruteforce(8, phi - 1, prefix, llr)
        parts = sum(
            subchannel_prob_bruteforce(8, phi, np.append(prefix, c), llr)
            for c in (0, 1)
        )
        assert abs(whole - parts) < 1e-12 * max(whole, 1e-300)


def test_engine_matches_bruteforce_small():
    rng = np.random.default_rng(1)
    for n in (4, 8):
        for _ in range(5):
            llr = rng.normal(0, 2, n)
            u = rng.integers(0, 2, n).astype(np.uint8)
            logs = subchannel_logprobs(llr, u)
            for t in range(n):
                for c in (0, 1):
                    ref = subchannel_prob_bruteforce(
                        n, t, np.append(u[:t], c), llr
                    )
                    assert abs(math.exp(logs[t, c]) - ref) <= 1e-11 * ref


def test_engine_handles_hard_and_erased_symbols():
    rng = np.random.default_rng(2)
    n = 16
    u = rng.integers(0, 2, n).astype(np.uint8)
    cw = encode(u)
    llr = np.where(cw == 0, np.inf, -np.inf)
    llr[3] = 0.0
    llr[10] = 0.0
    logs = subchannel_logprobs(llr, u)
    for t in range(n):
        ref = subchannel_prob_bruteforce(n, t, u[: t + 1], llr)
        assert abs(math.exp(logs[t, u[t]]) - ref) <= 1e-12 * max(ref, 1e-300)


def test_metrics_monotone_along_path():
    rng = np.random.default_rng(3)
    llr = rng.normal(0, 1.5, 32)
    u = rng.integers(0, 2, 32).astype(np.uint8)
    logs = subchannel_logprobs(llr, u)
    joint = [logs[t, u[t]] for t in range(32)]
    assert all(joint[t] <= joint[t - 1] + 1e-12 for t in range(1, 32))


def test_noiseless_roundtrip_with_dynamic_frozen():
    rng = np.random.default_rng(4)
    for m in (2, 4, 6, 8, 10):
        n = 1 << m
        code = random_code(rng, n, n // 2)
        msg = rng.integers(0, 2, n // 2).astype(np.uint8)
        u = code.assemble(msg)
        llr = np.where(encode(u) == 0, 30.0, -30.0)
        assert tuple(sc_decode(code, llr)) == tuple(int(b) for b in u)


def test_sc_equals_list_one():
    rng = np.random.default_rng(5)
    code = random_code(rng, 16, 8)
    for _ in range(50):
        llr = rng.normal(0, 1, 16)
        paths, _ = scl_decode(code, llr, 1)
        assert np.array_equal(sc_decode(code, llr), paths[0])


def test_full_list_equals_exhaustive_enumeration():
    rng = np.random.default_rng(6)
    code = random_code(rng, 8, 4)
    for _ in range(10):
        llr = rng.normal(0, 1.5, 8)
        paths, metrics = scl_decode(code, llr, 16)
        assert paths.shape == (16, 8) and metrics.shape == (16,)
        probs = leaf_probabilities(llr)
        ref = []
        for msg in itertools.product((0, 1), repeat=4):
            u = code.assemble(np.array(msg, dtype=np.uint8))
            lp = float(np.log(probs[np.arange(8), encode(u)]).sum())
            ref.append((tuple(int(b) for b in u), lp))
        ref.sort(key=lambda r: -r[1])
        for gm, (_, rm) in zip(metrics, ref):
            assert abs(gm - rm) < 1e-9
        assert tuple(paths[0]) == ref[0][0]


def test_list_metrics_sorted_and_bounded_by_ml():
    # Greedy pruning means a larger list is not guaranteed a better best
    # metric, but every returned metric is a true codeword log-probability,
    # so the exhaustive ML metric is an upper bound for all of them.
    rng = np.random.default_rng(7)
    code = random_code(rng, 16, 8)
    llr = rng.normal(0, 1, 16)
    _, ml_metric = ml_decode_bruteforce(code, llr)
    for lsz in (1, 2, 4, 8):
        _, metrics = scl_decode(code, llr, lsz)
        assert metrics.tolist() == sorted(metrics, reverse=True)
        assert metrics[0] <= ml_metric + 1e-9
    _, full = scl_decode(code, llr, 256)
    assert abs(full[0] - ml_metric) < 1e-9


def test_ml_bruteforce_tie_order():
    code = CodeSpec(n=4, k=2, seed=0, frozen=((0, ()), (1, ())))
    llr = np.zeros(4)  # every codeword equally likely
    u, metric = ml_decode_bruteforce(code, llr)
    assert u.tolist() == [0, 0, 0, 0]
    assert abs(metric - 4 * math.log(0.5)) < 1e-12


def test_batch_matches_single():
    rng = np.random.default_rng(8)
    code = random_code(rng, 16, 8)
    llrs = rng.normal(0, 1, (6, 16))
    paths, metrics = scl_decode_batch(code, llrs, 4)
    for b in range(6):
        single_paths, single_metrics = scl_decode(code, llrs[b], 4)
        assert np.array_equal(paths[b], single_paths)
        assert abs(metrics[b, 0] - single_metrics[0]) < 1e-12


def test_reference_tracking():
    rng = np.random.default_rng(9)
    code = random_code(rng, 16, 8)
    msg = rng.integers(0, 2, 8).astype(np.uint8)
    u = code.assemble(msg)
    llr = np.where(encode(u) == 0, 3.0, -3.0) + rng.normal(0, 1, 16)
    (paths, _), diag = scl_decode(code, llr, 256, track_reference=u)
    assert diag["in_final_list"]
    assert 0 <= diag["max_rank"] < 256
    assert (paths == u).all(axis=1).any()


def test_reference_tracking_reports_pruned_reference():
    rng = np.random.default_rng(10)
    code = random_code(rng, 16, 8)
    u = code.assemble(rng.integers(0, 2, 8).astype(np.uint8))
    # noise strong enough that a list of two loses the sent path somewhere
    pruned = 0
    for _ in range(40):
        llr = np.where(encode(u) == 0, 0.5, -0.5) + rng.normal(0, 1.5, 16)
        (paths, _), diag = scl_decode(code, llr, 2, track_reference=u)
        sent_listed = bool((paths == u).all(axis=1).any())
        assert diag["in_final_list"] == sent_listed
        if not sent_listed:
            pruned += 1
            assert diag["max_rank"] >= 2
    assert pruned


def test_decode_rejects_mismatched_length():
    code = rate1(8)
    with pytest.raises(ValueError):
        scl_decode(code, np.zeros(4), 1)


@pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan])
def test_non_binary_decisions_rejected(bad):
    code = random_code(np.random.default_rng(11), 16, 8)
    u = np.zeros(16)
    u[::3] = bad
    with pytest.raises(ValueError, match="0 or 1"):
        forced_path_tables(np.ones(16), u)
    with pytest.raises(ValueError, match="0 or 1"):
        scl_decode(code, np.ones(16), 4, track_reference=u)


def test_empty_batches_shaped_like_one_row():
    code = random_code(np.random.default_rng(12), 16, 3)
    for list_size in (1, 4, 32):
        one = scl_decode_batch(code, np.zeros((1, 16)), list_size)
        none = scl_decode_batch(code, np.zeros((0, 16)), list_size)
        for got, row in zip(none, one):
            assert got.shape == (0,) + row.shape[1:] and got.dtype == row.dtype
    values, exps = forced_path_tables(np.zeros((0, 16)), np.zeros((0, 16)))
    assert values.shape == (0, 16, 2) and values.dtype == np.float64
    assert exps.shape == (0, 16) and exps.dtype == np.int64
