"""Successive-cancellation and list decoding with dynamic frozen symbols.

The recursion tree splits a block into its two transformed half-blocks.  For
every tree node of length l the decoder keeps a probability table, indexed by
the last three input symbols of that node, valid at the node's current phase;
tables of the two children combine into the parent table in O(1) table
operations.  Earlier node symbols enter only through short XOR windows of
recently committed values, so each node stores a five-slot ring of commits
instead of its whole history.  Every (node, phase) pair is built exactly
once, giving O(n log n) work per decode.

Probabilities are stored in the linear domain as float64 and rescaled by an
exact power of two after every build (the scale is chosen per trial, so every
path sees the same factor and rankings are preserved bit-exactly); the
accumulated binary exponent per depth turns the surviving values back into
log-probabilities at the end.

Everything is batched: a decode processes B independent trials times up to L
list paths in one set of numpy arrays.
"""

from __future__ import annotations

import math

import numpy as np

from .codespec import CodeSpec
from .cvpt import encode

__all__ = [
    "leaf_probabilities",
    "subchannel_prob_bruteforce",
    "ml_decode_bruteforce",
    "sc_decode",
    "scl_decode",
    "scl_decode_batch",
    "forced_path_tables",
    "subchannel_logprobs",
]

_LN2 = math.log(2.0)


def _as_llr_batch(llrs) -> np.ndarray:
    """LLRs ln(W(0|y)/W(1|y)) as a (B, n) batch.

    +inf marks a known 0, -inf a known 1, 0 an erasure.  NaN is rejected.
    """
    arr = np.asarray(llrs, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"expected llr vector or batch, got shape {arr.shape}")
    if np.isnan(arr).any():
        raise ValueError("llr contains NaN")
    return arr


def leaf_probabilities(llr) -> np.ndarray:
    """Stack (W(0|y), W(1|y)) per symbol from LLRs, shape (..., 2).

    Computed through a two-branch sigmoid so signed infinities give exact
    0/1 and no overflow occurs.
    """
    x = np.asarray(llr, dtype=np.float64)
    pos = x >= 0
    with np.errstate(over="ignore"):
        en = np.exp(np.where(pos, -x, x))
    w0 = np.where(pos, 1.0 / (1.0 + en), en / (1.0 + en))
    w1 = np.where(pos, en / (1.0 + en), 1.0 / (1.0 + en))
    return np.stack([w0, w1], axis=-1)


def subchannel_prob_bruteforce(n: int, phi: int, u_prefix, soft) -> float:
    """Exact joint probability of a decision prefix by summing all suffixes.

    Returns W(u_0..u_phi | y) = sum over the 2^(n-phi-1) completions of the
    product of per-symbol probabilities of the resulting codeword.
    """
    if n < 1 or n & (n - 1) or n > 16:
        raise ValueError(f"n must be a power of two <= 16, got {n}")
    prefix = np.asarray(u_prefix, dtype=np.uint8)
    if not 0 <= phi < n or prefix.shape != (phi + 1,):
        raise ValueError(f"prefix length {prefix.size} does not match phase {phi}")
    llr = _as_llr_batch(soft)[0]
    if llr.size != n:
        raise ValueError(f"llr length {llr.size} != n {n}")
    nsuf = n - phi - 1
    u = np.empty((1 << nsuf, n), dtype=np.uint8)
    u[:, : phi + 1] = prefix
    if nsuf:
        suffixes = (
            np.arange(1 << nsuf, dtype=np.uint32)[:, None]
            >> np.arange(nsuf, dtype=np.uint32)
        ) & 1
        u[:, phi + 1 :] = suffixes.astype(np.uint8)
    cw = encode(u)
    probs = leaf_probabilities(llr)
    per_symbol = np.take_along_axis(
        np.broadcast_to(probs, (u.shape[0], n, 2)), cw[..., None].astype(np.intp), 2
    )[..., 0]
    return float(per_symbol.prod(axis=1).sum())


def ml_decode_bruteforce(code: CodeSpec, soft) -> tuple[np.ndarray, float]:
    """Exhaustive maximum-likelihood decoding over all 2^k messages.

    Returns (input block u, log-probability of its codeword).  Ties go to
    the smallest message in information-bit counter order, matching the list
    decoder's lexicographic rule.
    """
    if code.k > 20:
        raise ValueError(f"k = {code.k} too large for exhaustive decoding")
    llr = _as_llr_batch(soft)[0]
    if llr.size != code.n:
        raise ValueError("llr length mismatch")
    msgs = (
        np.arange(1 << code.k, dtype=np.uint32)[:, None]
        >> np.arange(code.k - 1, -1, -1, dtype=np.uint32)
    ) & 1
    u = code.assemble(msgs.astype(np.uint8))
    cw = encode(u)
    probs = leaf_probabilities(llr)
    per_symbol = np.take_along_axis(
        np.broadcast_to(probs, cw.shape + (2,)), cw[..., None].astype(np.intp), 2
    )[..., 0]
    with np.errstate(divide="ignore"):
        logs = np.log(per_symbol).sum(axis=1)
    best = int(np.argmax(logs))
    return u[best], float(logs[best])


class _TreeDecoder:
    """Batched recursion-tree workspace for one block length and list size."""

    def __init__(self, llrs: np.ndarray, list_size: int) -> None:
        b, n = llrs.shape
        if n < 2 or n & (n - 1):
            raise ValueError(f"block length must be a power of two >= 2, got {n}")
        if list_size < 1:
            raise ValueError(f"list size must be >= 1, got {list_size}")
        self.B, self.n, self.L = b, n, list_size
        self.m = n.bit_length() - 1
        self.leaf = leaf_probabilities(llrs)[:, None]  # (B, 1, n, 2)
        self.tbl = [
            np.empty((b, list_size, 1 << d, 2, 2, 2)) for d in range(self.m)
        ]
        self.exp = [np.zeros(b, dtype=np.int64) for _ in range(self.m)]
        self.bits = [
            np.zeros((b, list_size, 1 << d, 5), dtype=np.uint8)
            for d in range(max(self.m - 1, 0))
        ]
        self.anc = [
            np.tile(np.arange(list_size, dtype=np.intp), (b, 1))
            for _ in range(self.m)
        ]
        self.anc_dirty = [False] * self.m
        self.U = np.zeros((b, list_size, n), dtype=np.uint8)
        self.metric = np.ones((b, list_size))
        self.active = 1
        self._t = 0
        self._bidx = np.arange(b)[:, None]

    # -- building ---------------------------------------------------------

    def _events(self, t: int) -> list[tuple[int, int]]:
        if t == 0:
            return [(d, 0) for d in range(self.m - 1, -1, -1)]
        ev = [(0, t)]
        for d in range(1, self.m):
            if (t - 1) & ((1 << d) - 1):
                break
            p = ((t - 1) >> d) + 1
            if p > (self.n >> d) - 1:
                break
            ev.append((d, p))
        ev.reverse()
        return ev

    def _commit_window(self, d: int, p: int, back: int) -> np.ndarray:
        """Committed symbol v_{p-3-back} of every depth-d node, as 0/1."""
        if d >= self.m - 1:
            a = self.active
            return np.zeros((self.B, a, 1 << d), dtype=np.uint8)
        lag = 2 if d == 0 else 1 if d == 1 else 0
        return self.bits[d][:, : self.active, :, 4 - lag - back]

    def _children(self, d: int) -> tuple[np.ndarray, np.ndarray, bool]:
        if d == self.m - 1:
            return self.leaf[:, :, 0::2], self.leaf[:, :, 1::2], True
        ct = self.tbl[d + 1]
        if self.anc_dirty[d + 1]:
            cg = ct[self._bidx, self.anc[d + 1][:, : self.active]]
        else:
            cg = ct[:, : self.active]
        return cg[:, :, 0::2], cg[:, :, 1::2], False

    @staticmethod
    def _flip0(t: np.ndarray, s: np.ndarray) -> np.ndarray:
        """Rebase a table's leading open axis by per-element offset bits."""
        cond = s.astype(bool)[..., None, None, None]
        return np.where(cond, t[..., ::-1, :, :], t)

    def _build(self, d: int, p: int) -> None:
        b, a = self.B, self.active
        nodes = 1 << d
        l = self.n >> d
        at, bt, leaves = self._children(d)
        out = np.empty((b, a, nodes, 2, 2, 2))
        if p == 0:
            a0 = at if leaves else at[..., 0, 0, :]
            b0 = bt if leaves else bt[..., 0, 0, :]
            t0 = a0[..., 0] * b0[..., 0] + a0[..., 1] * b0[..., 1]
            t1 = a0[..., 1] * b0[..., 0] + a0[..., 0] * b0[..., 1]
            out[..., 0] = t0[..., None, None]
            out[..., 1] = t1[..., None, None]
        elif p == l - 1 and l == 2:
            for bb in range(2):
                for cc in range(2):
                    val = at[..., bb ^ cc] * bt[..., cc]
                    out[:, :, :, :, bb, cc] = val[..., None]
        else:
            s1 = self._commit_window(d, p, 0)
            if p == l - 1:
                s2 = self._commit_window(d, p, 1)
                s3 = self._commit_window(d, p, 2)
                a2 = self._flip0(at, s1 ^ s2 ^ s3)[..., 0, :, :]
                flip = s1.astype(bool)[..., None, None]
                a3 = np.where(flip, a2[..., ::-1, :], a2)
                b2 = self._flip0(bt, s1 ^ s2)[..., 0, :, :]
                for aa in range(2):
                    for bb in range(2):
                        for cc in range(2):
                            out[:, :, :, aa, bb, cc] = (
                                a3[..., aa ^ bb, bb ^ cc] * b2[..., aa ^ bb, cc]
                            )
            elif p % 2:
                af = self._flip0(at, s1)
                for aa in range(2):
                    for bb in range(2):
                        i1 = aa ^ bb
                        for cc in range(2):
                            acc = None
                            for dd in range(2):
                                term = (
                                    af[..., i1, bb ^ cc ^ dd, dd]
                                    * bt[..., i1, cc ^ dd, 0]
                                    + af[..., i1, bb ^ cc ^ dd, dd ^ 1]
                                    * bt[..., i1, cc ^ dd, 1]
                                )
                                acc = term if acc is None else acc + term
                            out[:, :, :, aa, bb, cc] = acc
            else:
                s2 = self._commit_window(d, p, 1)
                af = self._flip0(at, s1 ^ s2)
                bf = self._flip0(bt, s1)
                for aa in range(2):
                    for bb in range(2):
                        for cc in range(2):
                            out[:, :, :, aa, bb, cc] = (
                                af[..., aa, aa ^ bb ^ cc, cc]
                                * bf[..., aa, bb ^ cc, 0]
                                + af[..., aa, aa ^ bb ^ cc, cc ^ 1]
                                * bf[..., aa, bb ^ cc, 1]
                            )
        mx = out.max(axis=(1, 2, 3, 4, 5))
        e = np.frexp(mx)[1].astype(np.int64)
        out = np.ldexp(out, (1 - e)[:, None, None, None, None, None])
        child_exp = self.exp[d + 1] if d + 1 < self.m else 0
        self.exp[d] = 2 * child_exp + (e - 1)
        self.tbl[d][:, :a] = out
        if d >= 1:
            self.anc[d][:, :a] = np.arange(a, dtype=np.intp)
            self.anc_dirty[d] = False

    # -- per-phase pieces ---------------------------------------------------

    def build_phase(self, t: int) -> None:
        for d, p in self._events(t):
            self._build(d, p)

    def extract(self) -> np.ndarray:
        """Candidate values (B, active, 2) at the current phase."""
        a = self.active
        flat = self.tbl[0][:, :a, 0].reshape(self.B, a, 8)
        if self.m >= 2:
            ring = self.bits[0][:, :a, 0]
            lin = (ring[..., 3].astype(np.intp) << 2) | (
                ring[..., 4].astype(np.intp) << 1
            )
        else:
            lin = np.zeros((self.B, a), dtype=np.intp)
            hist = self.U[:, :a]
            if self._t >= 1:
                lin |= hist[..., self._t - 1].astype(np.intp) << 1
            if self._t >= 2:
                lin |= hist[..., self._t - 2].astype(np.intp) << 2
        idx = np.stack([lin, lin + 1], axis=-1)
        return np.take_along_axis(flat, idx, axis=2)

    def commit(self, t: int, newbits: np.ndarray) -> None:
        cur = newbits[:, :, None]
        d, idx = 0, t
        while d <= self.m - 2:
            ring = self.bits[d][:, : self.active]
            cascade = idx >= 2 and idx % 2 == 0 and d + 1 <= self.m - 2
            if cascade:
                c1 = ring[..., 4].copy()
                c2 = ring[..., 3].copy()
            ring[..., :4] = ring[..., 1:].copy()
            ring[..., 4] = cur
            if not cascade:
                return
            nxt = np.empty(
                (self.B, self.active, 1 << (d + 1)), dtype=np.uint8
            )
            nxt[..., 0::2] = c2 ^ c1 ^ cur
            nxt[..., 1::2] = c1 ^ cur
            cur = nxt
            idx = (idx - 2) // 2
            d += 1

    def prune(self, t: int, keep: np.ndarray, scores: np.ndarray) -> None:
        """Gather state onto the kept candidates (sorted candidate ids)."""
        nkeep = keep.shape[1]
        parent = (keep >> 1).astype(np.intp)
        bit = (keep & 1).astype(np.uint8)
        bidx = self._bidx
        self.U[:, :nkeep] = self.U[bidx, parent]
        self.U[:, :nkeep, t] = bit
        self.metric[:, :nkeep] = np.take_along_axis(scores, keep, axis=1)
        for d in range(len(self.bits)):
            self.bits[d][:, :nkeep] = self.bits[d][bidx, parent]
        for d in range(1, self.m):
            self.anc[d][:, :nkeep] = self.anc[d][bidx, parent]
            self.anc_dirty[d] = True
        self.active = nkeep
        self.commit(t, bit)


def _forced_bits(code: CodeSpec, u_hist: np.ndarray, parts: tuple[int, ...]):
    if not parts:
        return np.zeros(u_hist.shape[:2], dtype=np.uint8)
    return np.bitwise_xor.reduce(u_hist[:, :, list(parts)], axis=-1)


def _run_list_decode(
    code: CodeSpec,
    llrs: np.ndarray,
    list_size: int,
    track: np.ndarray | None = None,
):
    """Core SCL loop over a batch. Returns the workspace plus diagnostics."""
    eng = _TreeDecoder(llrs, list_size)
    n, b = eng.n, eng.B
    if code.n != n:
        raise ValueError(f"code length {code.n} != input length {n}")
    frozen = dict(code.frozen)
    ref_slot = np.zeros(b, dtype=np.intp) if track is not None else None
    ref_alive = np.ones(b, dtype=bool) if track is not None else None
    ref_rank_max = np.zeros(b, dtype=np.int64) if track is not None else None
    for t in range(n):
        eng._t = t
        eng.build_phase(t)
        vals = eng.extract()
        a = eng.active
        if t in frozen:
            bit = _forced_bits(code, eng.U[:, :a], frozen[t])
            eng.U[:, :a, t] = bit
            eng.metric[:, :a] = np.take_along_axis(
                vals, bit[..., None].astype(np.intp), axis=2
            )[..., 0]
            eng.commit(t, bit)
            continue
        scores = vals.reshape(b, 2 * a)
        if 2 * a <= list_size:
            keep = np.tile(np.arange(2 * a, dtype=np.intp), (b, 1))
        else:
            order = np.argsort(-scores, axis=1, kind="stable")
            keep = np.sort(order[:, :list_size], axis=1)
        if track is not None:
            cand = 2 * ref_slot + int(track[t])
            order_full = np.argsort(-scores, axis=1, kind="stable")
            inv = np.empty_like(order_full)
            np.put_along_axis(
                inv, order_full, np.arange(2 * a)[None, :].repeat(b, 0), axis=1
            )
            rank = inv[np.arange(b), cand]
            ref_rank_max = np.where(
                ref_alive, np.maximum(ref_rank_max, rank), ref_rank_max
            )
            pos = np.array(
                [np.searchsorted(keep[i], cand[i]) for i in range(b)]
            )
            pos = np.minimum(pos, keep.shape[1] - 1)
            found = keep[np.arange(b), pos] == cand
            ref_alive &= found
            ref_slot = np.where(found, pos, 0)
        eng.prune(t, keep, scores)
    order = np.argsort(-eng.metric[:, : eng.active], axis=1, kind="stable")
    paths = eng.U[eng._bidx, order]
    with np.errstate(divide="ignore"):
        metrics = np.log(np.take_along_axis(eng.metric, order, axis=1))
    metrics += eng.exp[0][:, None] * _LN2
    diags = None
    if track is not None:
        diags = (ref_rank_max, ref_alive)
    return paths, metrics[:, : eng.active], diags


def scl_decode_batch(
    code: CodeSpec, llrs, list_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Batched list decode: (paths (B, L', n), metrics (B, L')), best first."""
    batch = _as_llr_batch(llrs)
    paths, metrics, _ = _run_list_decode(code, batch, list_size)
    return paths, metrics


def scl_decode(code: CodeSpec, soft, list_size: int, track_reference=None):
    """List decode one LLR vector: row 0 of :func:`scl_decode_batch`.

    Returns (paths (L', n) uint8, metrics (L',)), best first.  With
    ``track_reference`` set to a full decision vector, returns that pair plus
    a diagnostics dict with the reference path's worst pre-prune rank and
    whether it survived to the final list.
    """
    llr = np.asarray(soft, dtype=np.float64)
    if llr.ndim != 1:
        raise ValueError(f"expected one llr vector, got shape {llr.shape}")
    track = None
    if track_reference is not None:
        track = np.asarray(track_reference, dtype=np.uint8)
        if track.shape != (code.n,):
            raise ValueError("reference path must be a full decision vector")
    paths, metrics, diags = _run_list_decode(
        code, _as_llr_batch(llr), list_size, track
    )
    if track is None:
        return paths[0], metrics[0]
    return (paths[0], metrics[0]), {
        "max_rank": int(diags[0][0]),
        "in_final_list": bool(diags[1][0]),
    }


def sc_decode(code: CodeSpec, soft) -> np.ndarray:
    """Successive cancellation: the list decoder's path at list size one."""
    return scl_decode(code, soft, 1)[0][0]


def forced_path_tables(llrs, forced_u) -> tuple[np.ndarray, np.ndarray]:
    """Per-phase candidate pair values along fixed decision vectors.

    Returns (values (B, n, 2) linear, exponents (B, n) int64): entry [b, t]
    holds the two phase-t candidate probabilities given the first t symbols
    of forced_u[b], scaled by 2**exponents[b, t].
    """
    batch = _as_llr_batch(llrs)
    forced = np.asarray(forced_u, dtype=np.uint8)
    if forced.ndim == 1:
        forced = forced[None, :]
    if forced.shape != batch.shape:
        raise ValueError("decision array shape must match llr batch")
    eng = _TreeDecoder(batch, 1)
    n, b = eng.n, eng.B
    values = np.empty((b, n, 2))
    exps = np.empty((b, n), dtype=np.int64)
    for t in range(n):
        eng._t = t
        eng.build_phase(t)
        values[:, t] = eng.extract()[:, 0]
        exps[:, t] = eng.exp[0]
        bit = forced[:, t : t + 1]
        eng.U[:, :1, t] = bit
        eng.commit(t, bit)
    return values, exps


def subchannel_logprobs(soft, forced_u) -> np.ndarray:
    """log W(u_0..u_{t-1}, c | y) for both c at every phase t, shape (n, 2)."""
    values, exps = forced_path_tables(soft, forced_u)
    with np.errstate(divide="ignore"):
        out = np.log(values[0])
    return out + exps[0][:, None] * _LN2
