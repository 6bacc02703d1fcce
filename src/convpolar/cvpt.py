"""Convolutional polarizing transform.

The length-n transform maps an input block u to a codeword by recursively
splitting each block into two half-length blocks through a pair of sliding
window maps and concatenating the transformed halves:

    x[j] = u[2j] + u[2j+1] + u[2j+2]      (window of three)
    z[j] = u[2j+1] + u[2j+2]              (window of two, shifted)

with out-of-range input symbols read as 0.  There is no index permutation
between levels; output position order follows the recursion directly.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["layer_split", "encode", "transform_row_ints"]


def _as_bits(u) -> np.ndarray:
    arr = np.asarray(u, dtype=np.uint8)
    if arr.ndim == 0:
        raise ValueError("input must have at least one axis")
    if not np.all(arr <= 1):
        raise ValueError("entries must be bits")
    return arr


def layer_split(u) -> tuple[np.ndarray, np.ndarray]:
    """One level of the transform: block u -> (x, z) halves.

    Accepts a trailing axis of even length n >= 2; leading axes are batch.
    """
    arr = _as_bits(u)
    n = arr.shape[-1]
    if n < 2 or n % 2:
        raise ValueError(f"block length must be even and >= 2, got {n}")
    x = arr[..., 0::2] ^ arr[..., 1::2]
    z = arr[..., 1::2].copy()
    if n > 2:
        x[..., :-1] ^= arr[..., 2::2]
        z[..., :-1] ^= arr[..., 2::2]
    return x, z


def encode(u) -> np.ndarray:
    """Apply the full transform along the last axis (length a power of two).

    Works on batches: an array of shape (..., n) is encoded rowwise.
    """
    arr = _as_bits(u)
    n = arr.shape[-1]
    if n & (n - 1):
        raise ValueError(f"block length must be a power of two, got {n}")
    if n == 1:
        return arr.copy()
    lead = arr.shape[:-1]
    blocks = arr.reshape(-1, 1, n)
    while blocks.shape[-1] > 1:
        x, z = layer_split(blocks)
        half = blocks.shape[-1] // 2
        nb = blocks.shape[1]
        nxt = np.empty((blocks.shape[0], 2 * nb, half), dtype=np.uint8)
        nxt[:, 0::2] = x
        nxt[:, 1::2] = z
        blocks = nxt
    return blocks.reshape(*lead, n)


@functools.lru_cache(maxsize=16)
def transform_row_ints(n: int) -> tuple[int, ...]:
    """Transform rows as ints, bit c of row i = output coordinate c of e_i.

    Cached per n; every caller shares the same immutable tuple.
    """
    rows = encode(np.eye(n, dtype=np.uint8))
    weights = 1 << np.arange(n, dtype=object)
    return tuple(int((r.astype(object) * weights).sum()) for r in rows)
