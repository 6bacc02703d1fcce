import math
import time

import numpy as np
import pytest

from convpolar.distance import (
    SubchannelWeights,
    compute_delta_tables,
    compute_weights,
    min_distance_bound,
)
from convpolar.subspaces import Subspace, enumerate_subspaces, subspace_index


def by_mask(row, mask):
    return float(row[subspace_index(3)[mask]])


def test_small_weight_tables():
    assert compute_weights(1).d.tolist() == [1, 2]
    assert compute_weights(2).d.tolist() == [1, 2, 2, 4]
    assert compute_weights(3).d.tolist() == [1, 2, 2, 2, 4, 4, 4, 8]


def test_delta_tables_n2_hand_values():
    minus1, t0, t1 = compute_delta_tables(1)  # rows are phases -1, 0, 1

    expect0 = {255: 0, 85: 1, 153: 1, 17: 2}
    for s in enumerate_subspaces(3):
        want = expect0.get(s.mask, math.inf)
        assert by_mask(t0, s.mask) == want, s

    expect1 = {255: 0, 85: 2}
    for s in enumerate_subspaces(3):
        assert by_mask(t1, s.mask) == expect1.get(s.mask, math.inf), s

    expect_b = {1: 2, 17: 1, 65: 1, 85: 0}
    for s in enumerate_subspaces(3):
        assert by_mask(minus1, s.mask) == expect_b.get(s.mask, math.inf), s


def test_table_count_and_phases():
    tables = compute_delta_tables(3)
    assert tables.shape == (9, 16)  # phases -1 .. 7
    # from phase 0 on, nothing erased leaves the full space at cost 0
    assert np.all(tables[1:, subspace_index(3)[255]] == 0)


def test_subchannel_weights_validation():
    with pytest.raises(ValueError):
        SubchannelWeights(1, np.array([2, 2]))  # first weight must be 1
    with pytest.raises(ValueError):
        SubchannelWeights(25, np.ones(1))  # beyond the recursion's level cap
    assert SubchannelWeights(1, [1, 2]).d.dtype == np.int32


def test_min_distance_bound():
    w = compute_weights(2)
    assert min_distance_bound(w, (3,)) == 4
    assert min_distance_bound(w, (2, 3)) == 2
    assert min_distance_bound(w, (0, 1, 2, 3)) == 1
    with pytest.raises(ValueError):
        min_distance_bound(w, ())


def test_weights_profile_shape():
    w = compute_weights(6)
    assert w.n == 64
    assert w.d[0] == 1 and w.d[-1] == 64
    assert np.all(w.d >= 1)
    # weights never exceed the rate-1 row weight of the last phase
    assert np.all(w.d <= 64)


def test_recursion_speed_is_practical():
    start = time.perf_counter()
    compute_weights(14)
    assert time.perf_counter() - start < 5.0
