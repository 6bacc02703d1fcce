import functools
import itertools
import math
import operator
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convpolar.codespec import CodeSpec
from convpolar.distance import compute_weights, min_distance_bound
from convpolar.erasure import (
    _chi3_table,
    _min_weight,
    coset_min_weight,
    cross_check_coset_weights,
    cross_check_delta_tables,
    cross_check_tau,
    exhaustive_min_distance,
    min_erasures,
    pattern_preimage,
    recoverable_patterns,
)
from convpolar.subspaces import Subspace


def span2(*vecs):
    return Subspace.from_vectors(2, vecs)


def static_code(n, info):
    frozen = tuple((i, ()) for i in range(n) if i not in info)
    return CodeSpec(n=n, k=len(info), seed=0, frozen=frozen)


def test_recoverable_patterns_n2():
    assert recoverable_patterns(2, 0, 2, frozenset()).mask == 15
    assert recoverable_patterns(2, 0, 2, {0}) == span2((0, 1))
    assert recoverable_patterns(2, 0, 2, {1}) == span2((1, 1))
    assert recoverable_patterns(2, 0, 2, {0, 1}) == span2()


def test_recoverable_patterns_n4_example():
    assert recoverable_patterns(4, 2, 2, {1, 2}) == span2((0, 1))


def test_pattern_preimage_n2_all_five():
    # full chi map at n=2, phase 0: {} -> full, {0} -> <01>, {1} -> <11>,
    # {0,1} -> trivial; so each subspace's preimage is short and explicit
    assert pattern_preimage(2, 0, 2, span2((1, 0))) == ()
    assert pattern_preimage(2, 0, 2, span2((1, 1))) == (frozenset({1}),)
    assert pattern_preimage(2, 0, 2, span2((0, 1))) == (frozenset({0}),)
    assert pattern_preimage(2, 0, 2, span2((1, 0), (0, 1))) == (frozenset(),)
    assert pattern_preimage(2, 0, 2, span2()) == (frozenset({0, 1}),)


def test_pattern_preimage_n4_example():
    got = pattern_preimage(4, 2, 2, span2((0, 1)))
    assert set(got) == {frozenset({1, 2}), frozenset({0, 1, 2}), frozenset({1, 2, 3})}
    # ordered by size then lexicographically
    assert got[0] == frozenset({1, 2})


def test_min_erasures_examples():
    assert min_erasures(1, 0, 1, Subspace.from_vectors(1, ())) == 1
    assert min_erasures(1, 0, 1, Subspace.from_vectors(1, ((1,),))) == 0
    s = Subspace.from_vectors(3, ((1, 1, 0), (0, 0, 1)))
    assert min_erasures(2, 0, 3, s) == 1
    assert min_erasures(2, 0, 2, span2((1, 0))) == math.inf


def test_prefix_restriction_identity():
    # the width-j table is the width-3 table cut down to its leading coords
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.choice([2, 4, 8]))
        phi = int(rng.integers(0, n))
        erased = frozenset(
            int(i) for i in np.flatnonzero(rng.random(n) < 0.4)
        )
        s3 = recoverable_patterns(n, phi, 3, erased)
        for j in (1, 2):
            sj = recoverable_patterns(n, phi, j, erased)
            assert sj.mask == s3.mask & ((1 << (1 << j)) - 1)


def test_coset_min_weight_examples():
    assert coset_min_weight(4, 3, (1,)) == 4
    assert coset_min_weight(4, 1, (1,)) == 2
    assert coset_min_weight(2, 0, (1, 0, 0)) == 1


def test_coset_window_reach():
    # the window runs forward from the phase; support past the block end
    # cannot be satisfied
    assert coset_min_weight(2, 0, (0, 1, 0)) == 1
    assert coset_min_weight(2, 0, (0, 0, 1)) == math.inf
    assert coset_min_weight(2, 1, (0, 1, 0)) == math.inf


def test_exhaustive_min_distance():
    assert exhaustive_min_distance(static_code(4, {3})) == 4
    assert exhaustive_min_distance(static_code(4, {2, 3})) == 2
    assert exhaustive_min_distance(static_code(4, {0, 1, 2, 3})) == 1


def test_cross_checks_small():
    assert cross_check_delta_tables(1).ok
    assert cross_check_delta_tables(2).ok
    rep = cross_check_coset_weights(4)
    assert rep.ok and rep.checked > 0


def test_cross_check_tau_reports_no_mismatch():
    rep = cross_check_tau()
    assert rep.mismatches == []
    # every phase and erasure set of n = 2, 4, 8
    assert rep.checked == 2 * 4 + 4 * 16 + 8 * 256


def test_distance_bound_is_a_lower_bound():
    """Minimum over information-set weights never exceeds the true distance."""
    rng = np.random.default_rng(9)
    for m in (2, 3, 4):
        n = 1 << m
        w = compute_weights(m)
        for _ in range(25):
            k = int(rng.integers(1, min(n, 12) + 1))
            info = sorted(rng.choice(n, size=k, replace=False).tolist())
            code = static_code(n, set(info))
            assert exhaustive_min_distance(code) >= min_distance_bound(w, info)


def test_dynamic_frozen_codes_keep_the_bound():
    """Dynamic constraints can only grow coset leaders, never shrink below
    the static bound of the same information set."""
    rng = np.random.default_rng(10)
    w = compute_weights(4)
    for _ in range(25):
        info = sorted(rng.choice(16, size=8, replace=False).tolist())
        frozen = []
        for i in range(16):
            if i in info:
                continue
            prev = [j for j in info if j < i]
            take = [j for j in prev if rng.random() < 0.5]
            frozen.append((i, tuple(take)))
        code = CodeSpec(n=16, k=8, seed=0, frozen=tuple(frozen))
        assert exhaustive_min_distance(code) >= min_distance_bound(w, info)


def test_chi3_table_matches_pointwise_oracle():
    # the bulk table (duality) and the single-set column elimination must
    # agree on every erasure set, including both boundary phases
    for n in (1, 2, 4, 8):
        for phi in range(-2, n):
            table = _chi3_table(n, phi)
            bad = [
                emask
                for emask in range(1 << n)
                if table[emask] != recoverable_patterns(
                    n, phi, 3, [i for i in range(n) if (emask >> i) & 1]
                ).mask
            ]
            assert bad == [], (n, phi, bad)


def test_guards():
    with pytest.raises(ValueError):
        recoverable_patterns(4, 4, 2, frozenset())
    with pytest.raises(ValueError):
        recoverable_patterns(4, 0, 7, frozenset())
    with pytest.raises(ValueError, match="nonzero bit tuple"):
        coset_min_weight(4, 0, (0, 0))
    with pytest.raises(ValueError, match="power of two"):
        coset_min_weight(6, 0, (1,))
    with pytest.raises(ValueError, match="out of range"):
        coset_min_weight(4, 4, (1,))
    with pytest.raises(ValueError, match="power of two <= 64"):
        coset_min_weight(128, 120, (1,))  # rows wider than one 64-bit word
    with pytest.raises(ValueError):
        min_erasures(64, 0, 3, Subspace.from_vectors(3, ()))
    for n in (0, -4):  # an empty sweep must not pass as a verified theorem
        with pytest.raises(ValueError, match="power of two <= 64"):
            cross_check_coset_weights(n)
        with pytest.raises(ValueError, match="power of two <= 64"):
            cross_check_coset_weights(n, js=())


def test_min_weight_equals_subset_brute_force():
    # Python ints over itertools subsets; 0..18 rows straddle the 16-row split
    rnd = random.Random(12)
    for nrows in range(19):
        for width in (1, 5, 16, 33, 64):
            if nrows > 14 and width not in (33, 64):
                continue  # keep the 2^nrows brute force to a few seconds
            rows = [rnd.getrandbits(width) for _ in range(nrows)]
            start = rnd.getrandbits(width)
            nonempty = min(
                (
                    functools.reduce(operator.xor, combo, start).bit_count()
                    for r in range(1, nrows + 1)
                    for combo in itertools.combinations(rows, r)
                ),
                default=math.inf,
            )
            with_start = min(nonempty, start.bit_count())
            assert _min_weight(rows, start, True) == with_start, (nrows, width)
            assert _min_weight(rows, start, False) == nonempty, (nrows, width)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_weights_equal_coset_enumeration(data):
    m = data.draw(st.integers(0, 6))
    n = 1 << m
    phi = data.draw(st.integers(max(0, n - 21), n - 1))  # n - phi - 1 <= 20
    assert compute_weights(m).d[phi] == coset_min_weight(n, phi, (1,))
