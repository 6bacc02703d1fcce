"""Exhaustive erasure-channel oracles for small block lengths.

Ground-truth machinery: which window patterns stay recoverable after a given
erasure set, which erasure sets produce a given pattern subspace, minimum
coset weights by direct enumeration, and exhaustive code minimum distance.
Everything here trades time for certainty; the fast recursions elsewhere in
the package are certified against these.

An erasure configuration is any iterable of erased codeword positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from .codespec import CodeSpec
from .cvpt import transform_row_ints
from .subspaces import Subspace, build_tau_tables, enumerate_subspaces, subspace_index

__all__ = [
    "CrossCheckReport",
    "Span",
    "recoverable_patterns",
    "pattern_preimage",
    "min_erasures",
    "coset_min_weight",
    "exhaustive_min_distance",
    "cross_check_coset_weights",
    "cross_check_delta_tables",
    "cross_check_tau",
]

_MAX_N_WORD = 64
_MAX_N_ENUM = 16
_MAX_FREE_BITS = 32
_SPLIT = 16


@dataclass
class CrossCheckReport:
    """Outcome of an oracle-vs-recursion sweep."""

    checked: int = 0
    skipped: int = 0
    mismatches: list[tuple] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


class Span:
    """Incremental row span over GF(2), kept in reduced echelon form.

    Vectors are int bitsets.  The pointwise oracle uses this elimination and
    the bulk table (_chi3_table) the dual route, so the two can check each other.
    """

    def __init__(self, vectors: Iterable[int] = ()) -> None:
        self._pivots: dict[int, int] = {}
        for v in vectors:
            self.add(v)

    def reduce(self, v: int) -> int:
        """Reduce ``v`` against the span; the result is 0 iff v is in it."""
        for lead in sorted(self._pivots, reverse=True):
            if (v >> lead) & 1:
                v ^= self._pivots[lead]
        return v

    def add(self, v: int) -> bool:
        """Insert ``v``; returns True if it enlarged the span."""
        v = self.reduce(v)
        if v == 0:
            return False
        lead = v.bit_length() - 1
        for key in list(self._pivots):
            if (self._pivots[key] >> lead) & 1:
                self._pivots[key] ^= v
        self._pivots[lead] = v
        return True

    def __contains__(self, v: int) -> bool:
        return self.reduce(v) == 0

    @property
    def dim(self) -> int:
        return len(self._pivots)


def _erasure_mask(n: int, erased: Iterable[int]) -> int:
    mask = 0
    for e in erased:
        if not 0 <= int(e) < n:
            raise ValueError(f"erased position {e} outside [0, {n})")
        mask |= 1 << int(e)
    return mask


def _check_sizes(n: int, phi: int, j: int, max_n: int) -> None:
    if n < 1 or n & (n - 1) or n > max_n:
        raise ValueError(f"n must be a power of two <= {max_n}, got {n}")
    if not 1 <= j <= 3:
        raise ValueError(f"window width must be 1..3, got {j}")
    if not -(j - 1) <= phi < n:
        raise ValueError(f"phase {phi} out of range for width {j}")


def recoverable_patterns(n: int, phi: int, j: int, erased: Iterable[int]) -> Subspace:
    """Subspace of width-j patterns still decidable after the erasures.

    A pattern p is recoverable when the parity p . (u_phi, .., u_{phi+j-1})
    is determined by the surviving codeword positions for every input with
    known symbols before phi.  Patterns touching symbols past the block end
    are trivially recoverable (those symbols are zero), and a negative phase
    means the leading pattern coordinates address symbols that are never
    recoverable.
    """
    _check_sizes(n, phi, j, _MAX_N_WORD)
    emask = _erasure_mask(n, erased)
    if phi < 0:
        lead = -phi
        inner = recoverable_patterns(n, 0, j - lead, erased)
        mask = 0
        for key in inner.keys():
            mask |= 1 << (key << lead)
        return Subspace(j, mask)
    jc = min(j, n - phi)
    rows = transform_row_ints(n)[phi:]
    # surviving columns as bitsets over rows phi.. (bit r = row phi + r)
    span = Span(
        sum(((row >> c) & 1) << r for r, row in enumerate(rows))
        for c in range(n)
        if not (emask >> c) & 1
    )
    mask = 1
    for key in range(1, 1 << jc):
        if key in span:
            mask |= 1 << key
    if jc < j:
        lifted = 0
        for q in range(1 << (j - jc)):
            lifted |= mask << (q << jc)
        mask = lifted
    return Subspace(j, mask)


def _xor_span(rows: Sequence[int], start: int = 0) -> np.ndarray:
    """start XOR every combination of rows; bit r of the index selects rows[r]."""
    span = np.array([start], dtype=np.uint64)
    for row in rows:
        span = np.concatenate([span, span ^ np.uint64(row)])
    return span


@lru_cache(maxsize=None)
def _annihilators() -> np.ndarray:
    """Entry v: mask of the width-3 keys orthogonal to every key in set v."""
    keys = np.arange(8)
    odd = np.bitwise_count(keys[:, None] & keys) & 1
    members = (np.arange(256)[:, None] >> keys) & 1
    return (((members @ odd) == 0) << keys).sum(axis=1).astype(np.uint8)


@lru_cache(maxsize=64)
def _chi3_table(n: int, phi: int) -> np.ndarray:
    """Width-3 recoverable-pattern masks for every erasure set of [n].

    Entry at index emask is the 8-bit subspace mask.  Built by duality: a
    pattern p is recoverable after erasure set E iff p is orthogonal to the
    window (u_phi, u_phi+1, u_phi+2) of every input with zero prefix whose
    codeword lies inside E.  Symbols before 0 enter as rows of zeros (their
    unit inputs always lie inside E, so patterns touching them are never
    recoverable) and symbols past the block end have no row (patterns there
    are free).  The route never eliminates surviving columns, so it stays
    independent of recoverable_patterns' Span; their equality on every
    erasure set is part of the test suite.
    """
    _check_sizes(n, phi, 3, _MAX_N_ENUM)
    rows = (0,) * -min(phi, 0) + transform_row_ints(n)[max(phi, 0):]
    # codeword support of every input; bit r of the index is symbol phi + r
    support = _xor_span(rows)
    window = np.arange(support.size) & 7
    inside = np.zeros(1 << n, dtype=np.uint8)
    np.bitwise_or.at(inside, support, (1 << window).astype(np.uint8))
    for c in range(n):  # close over supersets: E inherits every subset's keys
        halves = inside.reshape(-1, 2, 1 << c)
        halves[:, 1] |= halves[:, 0]
    out = _annihilators()[inside]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=64)
def _fewest_erasures(n: int, phi: int) -> np.ndarray:
    """Entry mask: fewest erasures whose width-3 table entry is mask, or inf."""
    fewest = np.full(256, math.inf)
    np.minimum.at(fewest, _chi3_table(n, phi), np.bitwise_count(np.arange(1 << n)))
    fewest.setflags(write=False)
    return fewest


def _fewest_where(n: int, phi: int, keep: Callable) -> int | float:
    """Fewest erasures over the table masks m (all 256 at once) with keep(m)."""
    best = _fewest_erasures(n, phi)[keep(np.arange(256))].min(initial=math.inf)
    return int(best) if math.isfinite(best) else math.inf


def _width_prefix(j: int) -> int:
    return (1 << (1 << j)) - 1


def pattern_preimage(
    n: int, phi: int, j: int, s: Subspace
) -> tuple[frozenset[int], ...]:
    """All erasure sets whose recoverable-pattern subspace is exactly s.

    Full 2^n enumeration; results ordered by cardinality then by sorted
    position tuple.
    """
    _check_sizes(n, phi, j, _MAX_N_ENUM)
    if s.j != j:
        raise ValueError(f"subspace dimension {s.j} != width {j}")
    table = _chi3_table(n, phi)
    pref = _width_prefix(j)
    hits = np.flatnonzero((table & pref) == s.mask)
    configs = [
        frozenset(c for c in range(n) if (int(e) >> c) & 1) for e in hits
    ]
    return tuple(sorted(configs, key=lambda f: (len(f), sorted(f))))


def min_erasures(n: int, phi: int, j: int, s: Subspace) -> int | float:
    """Minimum erasure count with recoverable-pattern subspace exactly s.

    Full 2^n enumeration; +inf when no configuration produces s.
    """
    _check_sizes(n, phi, j, _MAX_N_ENUM)
    if s.j != j:
        raise ValueError(f"subspace dimension {s.j} != width {j}")
    return _fewest_where(n, phi, lambda m: (m & _width_prefix(j)) == s.mask)


def _min_weight(
    rows: Sequence[int], start: int, include_start: bool
) -> int | float:
    """Minimum popcount over {start XOR any combination of rows}.

    Meet in the middle: one table holds the combinations of the first _SPLIT
    rows, and each combination of the rest is one XOR against it.
    """
    if len(rows) > _MAX_FREE_BITS:
        raise ValueError(f"{len(rows)} free symbols exceed the enumeration guard")
    low = _xor_span(rows[:_SPLIT])
    best = start.bit_count() if include_start else math.inf
    for i, high in enumerate(_xor_span(rows[_SPLIT:], start)):
        words = low if i else low[1:]  # low[0] ^ start is start itself
        if words.size:
            best = min(best, int(np.bitwise_count(words ^ high).min()))
    return best


def coset_min_weight(n: int, phi: int, p: Sequence[int]) -> int | float:
    """Minimum codeword weight over inputs with zero prefix and p-window 1.

    The coset fixes u_0..u_{phi-1} = 0 and requires the parity of the window
    (u_phi, ..) selected by p to equal one; pattern coordinates beyond the
    block end read zero, so the coset is empty (weight +inf) when p has no
    in-range support.
    """
    if n < 1 or n & (n - 1) or n > _MAX_N_WORD:
        raise ValueError(f"n must be a power of two <= {_MAX_N_WORD}, got {n}")
    if not 0 <= phi < n:
        raise ValueError(f"phase {phi} out of range")
    p = tuple(int(b) for b in p)
    if not p or any(b not in (0, 1) for b in p) or not any(p):
        raise ValueError("p must be a nonzero bit tuple")
    support = [t for t, b in enumerate(p) if b and phi + t < n]
    if not support:
        return math.inf
    if n - phi - 1 > _MAX_FREE_BITS:
        raise ValueError(f"n - phi = {n - phi} exceeds the enumeration guard")
    rows = transform_row_ints(n)
    pivot = phi + support[0]
    adjusted = []
    for f in range(phi, n):
        if f == pivot:
            continue
        r = rows[f]
        if f - phi < len(p) and p[f - phi]:
            r ^= rows[pivot]
        adjusted.append(r)
    return _min_weight(adjusted, rows[pivot], include_start=True)


def exhaustive_min_distance(code: CodeSpec) -> int:
    """Exact minimum distance by enumerating all 2^k - 1 nonzero codewords."""
    if code.k > 26:
        raise ValueError(f"k = {code.k} exceeds the enumeration guard")
    if code.n > _MAX_N_WORD:
        raise ValueError(f"n = {code.n} exceeds word width")
    from .cvpt import encode  # local import keeps module load light

    gen = encode(code.assemble(np.eye(code.k, dtype=np.uint8)))
    weights = 1 << np.arange(code.n, dtype=object)
    rows = [int((g.astype(object) * weights).sum()) for g in gen]
    d = _min_weight(rows, 0, include_start=False)
    assert isinstance(d, int) and d >= 1
    return d


def cross_check_coset_weights(
    n: int, js: Sequence[int] = (1, 2, 3)
) -> CrossCheckReport:
    """Sweep every phase, width and nonzero pattern of a block length."""
    report = CrossCheckReport()
    for phi in range(n):
        for j in js:
            for key in range(1, 1 << j):
                p = tuple((key >> t) & 1 for t in range(j))
                lhs = coset_min_weight(n, phi, p)
                # fewest erasures whose surviving patterns exclude p
                rhs = _fewest_where(n, phi, lambda m: (m >> key) & 1 == 0)
                if math.isinf(lhs) and math.isinf(rhs):
                    report.skipped += 1
                elif lhs == rhs:
                    report.checked += 1
                else:
                    report.mismatches.append((phi, j, p, lhs, rhs))
    return report


def cross_check_delta_tables(m: int) -> CrossCheckReport:
    """Compare the fast table recursion with the oracle at every phase.

    Covers phases -1 .. n-1 and all 16 subspaces each, for n = 2^m <= 8.
    """
    if not 1 <= m <= 3:
        raise ValueError(f"m must be 1..3 for the exhaustive check, got {m}")
    from .distance import compute_delta_tables

    report = CrossCheckReport()
    for phi, row in enumerate(compute_delta_tables(m), start=-1):
        for s, fast in zip(enumerate_subspaces(3), row.tolist()):
            oracle = _fewest_where(1 << m, phi, lambda k: k == s.mask)
            if oracle == fast:
                report.checked += 1
            else:
                report.mismatches.append((phi, s.mask, fast, oracle))
    return report


def cross_check_tau() -> CrossCheckReport:
    """Check the composition tables against the oracle for n = 2, 4, 8.

    For every phase and erasure set, composing the recoverable-pattern
    subspaces of the two half-blocks must give the whole block's subspace.
    Mismatches are (n, phi, sorted erased positions).
    """
    tables = build_tau_tables()
    lattice = enumerate_subspaces(3)
    index = subspace_index(3)
    report = CrossCheckReport()
    for n in (2, 4, 8):
        half = n // 2
        for phi in range(n):
            tab = tables.for_phase(phi)
            psi = (phi + 1) // 2 - 1
            for emask in range(1 << n):
                e = [i for i in range(n) if (emask >> i) & 1]
                sx = recoverable_patterns(half, psi, 3, [i for i in e if i < half])
                sz = recoverable_patterns(
                    half, psi, 3, [i - half for i in e if i >= half]
                )
                whole = recoverable_patterns(n, phi, 3, e)
                if lattice[tab[index[sx.mask], index[sz.mask]]] == whole:
                    report.checked += 1
                else:
                    report.mismatches.append((n, phi, e))
    return report
