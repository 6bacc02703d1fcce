"""GF(2) elimination on int bitsets, as used by the pointwise erasure oracle."""

import numpy as np

from convpolar.erasure import Span


def pack(bits):
    return sum(int(b) << i for i, b in enumerate(bits))


def test_rank_and_column_space():
    rows = [[1, 0, 1], [0, 1, 1], [1, 1, 0]]
    assert Span(pack(r) for r in rows).dim == 2  # third row is the sum of the first two
    columns = Span(pack(c) for c in zip(*rows))
    assert pack([1, 0, 1]) in columns
    assert pack([1, 1, 0]) in columns
    assert pack([1, 0, 0]) not in columns


def test_rank_random_matches_gaussian_elimination():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a = rng.integers(0, 2, (6, 6)).astype(np.uint8)
        # reference rank over GF(2) by elimination on a copy
        ref = 0
        work = a.copy()
        for c in range(6):
            piv = next((r for r in range(ref, 6) if work[r, c]), None)
            if piv is None:
                continue
            work[[ref, piv]] = work[[piv, ref]]
            for r in range(6):
                if r != ref and work[r, c]:
                    work[r] ^= work[ref]
            ref += 1
        assert Span(pack(row) for row in a).dim == ref


def test_span():
    s = Span()
    assert s.add(0b101)
    assert s.add(0b011)
    assert not s.add(0b110)  # dependent
    assert s.dim == 2
    assert 0b110 in s and 0b101 in s and 0 in s
    assert 0b100 not in s
    assert s.reduce(0b101) == 0
