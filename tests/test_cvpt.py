import itertools

import numpy as np
import pytest

from convpolar.cvpt import encode, layer_split, transform_row_ints


def ref_n2(u):
    return [(u[0] + u[1]) % 2, u[1]]


def ref_n4(u):
    return [
        (u[0] + u[1] + u[3]) % 2,
        (u[2] + u[3]) % 2,
        (u[1] + u[2] + u[3]) % 2,
        u[3],
    ]


def test_known_transform_n2_all_inputs():
    for u in itertools.product((0, 1), repeat=2):
        assert encode(np.array(u, dtype=np.uint8)).tolist() == ref_n2(u)


def test_known_transform_n4_all_inputs():
    for u in itertools.product((0, 1), repeat=4):
        assert encode(np.array(u, dtype=np.uint8)).tolist() == ref_n4(u)


def test_worked_codeword():
    assert encode(np.array([0, 0, 1, 1], dtype=np.uint8)).tolist() == [1, 0, 0, 1]


def test_layer_split_componentwise():
    rng = np.random.default_rng(0)
    for n in (2, 4, 16, 64):
        u = rng.integers(0, 2, n).astype(np.uint8)
        x, z = layer_split(u)
        padded = np.concatenate([u, [0, 0]])
        for j in range(n // 2):
            assert x[j] == (padded[2 * j] ^ padded[2 * j + 1] ^ padded[2 * j + 2])
            assert z[j] == (padded[2 * j + 1] ^ padded[2 * j + 2])


def test_encode_linear_and_batched():
    rng = np.random.default_rng(1)
    for n in (8, 32):
        a = rng.integers(0, 2, n).astype(np.uint8)
        b = rng.integers(0, 2, n).astype(np.uint8)
        assert np.array_equal(encode(a ^ b), encode(a) ^ encode(b))
        batch = rng.integers(0, 2, (5, n)).astype(np.uint8)
        stacked = np.stack([encode(row) for row in batch])
        assert np.array_equal(encode(batch), stacked)


def test_matrix_agrees_with_encode():
    rng = np.random.default_rng(2)
    for n in (2, 4, 8, 16):
        rows = transform_row_ints(n)
        q = np.array(
            [[(row >> c) & 1 for c in range(n)] for row in rows], dtype=np.uint8
        )
        for _ in range(10):
            u = rng.integers(0, 2, n).astype(np.uint8)
            assert np.array_equal((u @ q) % 2, encode(u))


def test_encode_rejects_bad_input():
    with pytest.raises(ValueError):
        encode(np.array([0, 1, 1], dtype=np.uint8))  # not a power of two
    assert encode(np.array([1], dtype=np.uint8)).tolist() == [1]
