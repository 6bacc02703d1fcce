"""Subchannel weight tables and minimum-distance lower bounds.

For each decoding phase i of the length-n transform, d[i] is the minimum
Hamming weight over codewords whose first i input symbols are zero and whose
symbol i equals one, computed exactly in O(n) table updates rather than by
coset enumeration.  The recursion tracks, per phase, a 16-entry table over
the lattice of subspaces of F_2^3: entry s is the minimum number of erased
codeword coordinates after which the still-recoverable window patterns are
exactly s.  Tables at consecutive levels combine through the pairwise
composition tables of :mod:`convpolar.subspaces`, plus a shifted boundary
table standing in for the phase before zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .subspaces import (
    build_tau_tables,
    enumerate_subspaces,
    left_edge_shift,
    right_edge_lift,
    subspace_index,
)

__all__ = [
    "DeltaTable",
    "SubchannelWeights",
    "compute_delta_tables",
    "compute_weights",
    "min_distance_bound",
]

_MAX_LEVELS = 24
# Tables are int32 with _INF for "unrecoverable": weights are at most
# 2**_MAX_LEVELS, so finite sums stay below _INF and two _INF still fit.
_INF = np.int32(1 << 28)
_CHUNK_ROWS = 1 << 9

_LATTICE = enumerate_subspaces(3)
_FULL_IDX = subspace_index(3)[(1 << 8) - 1]
# canonical indices of subspaces not containing (1, 0, 0), i.e. key 1
_DECIDABLE_COLS = np.array(
    [i for i, s in enumerate(_LATTICE) if not s.contains_key(1)], dtype=np.intp
)


@dataclass(frozen=True, eq=False)
class DeltaTable:
    """Minimum-erasure table over the canonical 16-subspace order."""

    phi: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=np.float64)
        if e.shape != (16,):
            raise ValueError(f"expected 16 entries, got shape {e.shape}")
        if np.any(e < 0) or np.any(np.isnan(e)):
            raise ValueError("entries must be nonnegative (inf allowed)")
        if not np.isfinite(e).any():
            raise ValueError("table must have at least one finite entry")
        if self.phi >= 0:
            if e[_FULL_IDX] != e.min():
                raise ValueError("full-space entry must be the table minimum")
        else:
            # boundary patterns have a forced leading zero, so only subspaces
            # of the trailing-free space are realizable
            shifted_range = subspace_index(3)[85]
            bad = [
                i
                for i in range(16)
                if np.isfinite(e[i]) and (_LATTICE[i].mask | 85) != 85
            ]
            if bad or not np.isfinite(e[shifted_range]):
                raise ValueError("boundary table entries outside the shifted range")
        object.__setattr__(self, "entries", e)


@dataclass(frozen=True, eq=False)
class SubchannelWeights:
    """Exact per-phase minimum weights for the length 2**m transform.

    ``d`` is stored as int32: every weight is at most n = 2**m <= 2**24.
    """

    m: int
    d: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if not 0 <= self.m <= _MAX_LEVELS:
            raise ValueError(f"m must be in 0..{_MAX_LEVELS}, got {self.m}")
        d = np.asarray(self.d, dtype=np.int64)
        n = 1 << self.m
        if d.shape != (n,):
            raise ValueError(f"expected {n} weights, got shape {d.shape}")
        if d[0] != 1 or np.any(d < 1) or np.any(d > n):
            raise ValueError("weights out of range")
        object.__setattr__(self, "d", d.astype(np.int32))

    @property
    def n(self) -> int:
        return 1 << self.m


def _base_table() -> np.ndarray:
    """Length-1 block table over S_3, lifted from the 1-dimensional lattice.

    A single coordinate is recoverable at cost 0 if nothing is erased and
    unrecoverable after its only coordinate is erased, giving {full: 0,
    trailing-free: 1} after lifting the two spare window coordinates.
    """
    idx = subspace_index(3)
    one = enumerate_subspaces(1)
    t = np.full(16, _INF)
    for s1, cost in ((one[1], 0), (one[0], 1)):
        t[idx[right_edge_lift(s1, 2).mask]] = cost
    return t


@lru_cache(maxsize=None)
def _shift_index() -> np.ndarray:
    idx = subspace_index(3)
    return np.array([idx[left_edge_shift(s).mask] for s in _LATTICE], dtype=np.intp)


def _left_edge(table: np.ndarray) -> np.ndarray:
    """Boundary table for the virtual phase -1 from the phase-0 table."""
    out = np.full(16, _INF)
    np.minimum.at(out, _shift_index(), table)
    return out


def _to_float(table: np.ndarray) -> np.ndarray:
    return np.where(table < _INF, table, np.inf)


@lru_cache(maxsize=None)
def _parity_reducer(parity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Left and right table indices of the 256 pairs, sorted by tau target,
    and the start of each target's segment."""
    tau = build_tau_tables()
    flat = (tau.odd if parity else tau.even).ravel().astype(np.intp)
    order = np.argsort(flat, kind="stable")
    tgt = flat[order]
    starts = np.flatnonzero(np.r_[True, tgt[1:] != tgt[:-1]])
    assert np.array_equal(tgt[starts], np.arange(16))
    return order // 16, order % 16, starts


def _combine(prev: np.ndarray, parity: int, out: np.ndarray) -> None:
    """Pairwise-sum the entries of each column of (16, rows) tables and
    minimize the sums into ``out`` by tau target."""
    left, right, starts = _parity_reducer(parity)
    for lo in range(0, prev.shape[1], _CHUNK_ROWS):
        block = prev[:, lo : lo + _CHUNK_ROWS]
        sums = block[left]
        sums += block[right]
        np.minimum.reduceat(sums, starts, axis=0, out=out[:, lo : lo + _CHUNK_ROWS])


def _advance(tables: np.ndarray) -> np.ndarray:
    count = tables.shape[1] - 1
    new = np.empty((16, 2 * count + 1), dtype=np.int32)
    _combine(tables[:, :count], 0, new[:, 1::2])
    _combine(tables[:, 1:], 1, new[:, 2::2])
    np.minimum(new, _INF, out=new)
    new[:, 0] = _left_edge(new[:, 1])
    return new


def _run_levels(m: int) -> np.ndarray:
    """Tables of phases -1 .. 2**m - 1 as int32 columns, _INF if unreachable."""
    if not 0 <= m <= _MAX_LEVELS:
        raise ValueError(f"m must be in 0..{_MAX_LEVELS}, got {m}")
    phase0 = _base_table()
    tables = np.stack([_left_edge(phase0), phase0], axis=1)
    for _ in range(m):
        tables = _advance(tables)
    assert np.all(tables[_FULL_IDX, 1:] == tables[:, 1:].min(axis=0))
    return tables


def compute_delta_tables(m: int) -> tuple[DeltaTable, ...]:
    """All minimum-erasure tables for n = 2**m, phases -1 .. n-1 in order."""
    tables = _to_float(_run_levels(m).T)
    return tuple(DeltaTable(phi, row) for phi, row in enumerate(tables, start=-1))


def compute_weights(m: int) -> SubchannelWeights:
    """Exact subchannel weights d[0..n-1] for the length 2**m transform."""
    tables = _run_levels(m)[:, 1:]
    d = tables[_DECIDABLE_COLS[0]].copy()
    for col in _DECIDABLE_COLS[1:]:
        np.minimum(d, tables[col], out=d)
    assert np.all(d < _INF) and d[0] == 1
    return SubchannelWeights(m, d)


def min_distance_bound(weights: SubchannelWeights, info_set) -> int:
    """Code distance lower bound: the smallest weight over unfrozen phases."""
    info = np.asarray(list(info_set), dtype=np.int64)
    if info.size == 0:
        raise ValueError("info set is empty")
    if info.min() < 0 or info.max() >= weights.n:
        raise ValueError("info set index out of range")
    return int(weights.d[info].min())

