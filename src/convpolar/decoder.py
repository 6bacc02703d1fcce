"""Successive-cancellation and list decoding with dynamic frozen symbols.

The recursion tree splits a block into its two transformed half-blocks.  For
every tree node of length l the decoder keeps a probability table, indexed by
the last three input symbols of that node, valid at the node's current phase;
tables of the two children combine into the parent table in O(1) table
operations.  Earlier node symbols enter only through short XOR windows of
recently committed values, so each node stores a five-slot ring of commits
instead of its whole history.  Every (node, phase) pair is built at most
once, giving O(n log n) work per decode.

A table carries no state from one phase to the next; only the rings do, and
every phase commits its symbol to them.  The root table is read only at the
phases that decide: information phases and the last phase (frozen phases,
static or dynamic, take their symbol without it).  The depth-d build of
phase p at time t is read by root phases [t, stop): stop = 1 at t = 0, n
at the depth's last phase p = (n >> d) - 1, whose table is never rebuilt,
and t + 2**d otherwise.  A build runs only if one of those phases decides,
the convolutional analogue of skipping rate-0 nodes.

Tables are node-major: depth d holds one float64 array (8, 2**d, L, B),
entry 4a + 2b + c first, then node, path slot and trial.  Nodes sit in
bit-reversed order, so the children of the depth-d nodes are the two halves
of depth d + 1, each one contiguous block per entry.  A depth is built in
blocks of nodes whose (node, path, trial) slabs hold about _BLOCK doubles, so
that a block's children, scratch and output stay in cache.  Children whose
paths moved are gathered into one workspace the decoder owns; committed
symbols rebase children into that workspace, or in place there, by swapping
entries e and e ^ (entries / 2) with a masked XOR of their bit patterns,
exact for every value and with no branch on the symbols.

Probabilities are stored in the linear domain and rescaled by an exact power
of two after every build (the scale is chosen per trial, so every path sees
the same factor and rankings are preserved bit-exactly); the accumulated
binary exponent per depth turns the surviving values back into
log-probabilities at the end.

Path state is lazy: a prune only updates, per depth, the map from each path
slot to the slot its table and rings were written for, and they are gathered
when next used.  The list decoder backtracks per-phase decision and parent
columns at the end, and takes dynamic frozen symbols from per-path running
parities.  Everything is batched over B trials times up to L paths, in row
chunks whose tables fit TABLE_BUDGET_BYTES.  At most min(L, 2**k) paths are
ever active, so that is the number of path slots allocated.
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
]

_LN2 = math.log(2.0)
# Decoder tables take rows * slots * (n - 1) * 64 bytes; batch decodes split
# their rows so that one chunk stays within this budget, and a list whose one
# row exceeds it is rejected.
TABLE_BUDGET_BYTES = 256 << 20
# A depth is built in blocks of nodes whose entry slabs hold about this many
# doubles, so that a block's children, scratch and output stay in cache.
_BLOCK = 1 << 14


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


def _as_llr_vector(soft) -> np.ndarray:
    """One LLR vector as a batch of one; any other shape is rejected."""
    llr = np.asarray(soft, dtype=np.float64)
    if llr.ndim != 1:
        raise ValueError(f"expected one llr vector, got shape {llr.shape}")
    return _as_llr_batch(llr)


def _as_decisions(u) -> np.ndarray:
    """Decision symbols as uint8; any value but 0 and 1 is rejected."""
    arr = np.asarray(u)
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("decision symbols must be 0 or 1")
    return arr.astype(np.uint8)


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
    llr = _as_llr_vector(soft)[0]
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
    llr = _as_llr_vector(soft)[0]
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


# Table entry e = 4a + 2b + c holds the node's three latest symbols (a, b, c).
# Each phase class combines child entries x[i] * y[j] by a fixed recipe per
# output entry: products summed left to right within a group, groups summed
# left to right.  The recipes keep every entry's float expression exact.
def _recipe(entries, groups):
    return tuple(groups(e >> 2, (e >> 1) & 1, e & 1) for e in range(entries))


def _dot(i, j):  # x[i] * y[j] + x[i ^ 1] * y[j + 1], j even
    return ((i, j), (i ^ 1, j + 1))


_START = _recipe(2, lambda a, b, c: (_dot(c, 0),))
_PAIR = _recipe(4, lambda a, b, c: (((b ^ c, c),),))
_LAST = _recipe(8, lambda a, b, c: (((2 * (a ^ b) + (b ^ c), 2 * (a ^ b) + c),),))
_EVEN = _recipe(
    8, lambda a, b, c: (_dot(4 * a + 2 * (a ^ b ^ c) + c, 4 * a + 2 * (b ^ c)),)
)
_ODD = _recipe(8, lambda a, b, c: (
    _dot(4 * (a ^ b) + 2 * (b ^ c), 4 * (a ^ b) + 2 * c),
    _dot(4 * (a ^ b) + 2 * (b ^ c ^ 1) + 1, 4 * (a ^ b) + 2 * (c ^ 1)),
))
_RING = 5  # commits kept per node


def _combine(out, x, y, recipe, tmp) -> None:
    for o, groups in zip(out, recipe):
        for g, group in enumerate(groups):
            acc = tmp[0] if g else o
            for k, (i, j) in enumerate(group):
                if k:
                    np.multiply(x[i], y[j], out=tmp[1])
                    acc += tmp[1]
                else:
                    np.multiply(x[i], y[j], out=acc)
            if g:
                o += acc


def _flip(t: np.ndarray, s: np.ndarray, work: np.ndarray, out: np.ndarray) -> None:
    """Entry e of out becomes t[e ^ (len(t) / 2)] where s is set, else t[e].

    A masked XOR swap of the float bit patterns, so it is exact for every
    value and has no branch on s; out may be t, and work is (5, *s.shape)
    int64 scratch.
    """
    bits, res, half = t.view(np.int64), out.view(np.int64), len(t) // 2
    x, mask = work[:half], work[4]
    np.negative(s, dtype=np.int64, out=mask)
    np.bitwise_xor(bits[:half], bits[half:], out=x)
    x &= mask
    np.bitwise_xor(bits[:half], x, out=res[:half])
    np.bitwise_xor(bits[half:], x, out=res[half:])


def _bit_reversal(m: int) -> np.ndarray:
    return np.array([int(f"{i:0{m}b}"[::-1], 2) for i in range(1 << m)])


class _TreeDecoder:
    """Batched recursion-tree workspace for one block length and list size.

    reads marks the phases whose root table is read (None: every phase);
    builds that no marked phase reads are skipped.
    """

    def __init__(self, llrs: np.ndarray, list_size: int, reads=None) -> None:
        b, n = llrs.shape
        if n < 2 or n & (n - 1):
            raise ValueError(f"block length must be a power of two >= 2, got {n}")
        if list_size < 1:
            raise ValueError(f"list size must be >= 1, got {list_size}")
        if list_size * (n - 1) * 64 > TABLE_BUDGET_BYTES:
            raise ValueError(
                f"{list_size} paths at length {n} need more than the "
                f"{TABLE_BUDGET_BYTES}-byte table budget per row"
            )
        self.B, self.n = b, n
        self.m = m = n.bit_length() - 1
        # the builds of each phase that a read phase reads: the depth-d build
        # of phase p at time t is read by root phases [t, stop)
        read_at = np.arange(n) if reads is None else np.where(reads, np.arange(n), n)
        next_read = np.minimum.accumulate(read_at[::-1])[::-1].tolist()

        def stop(t, d, p):
            return 1 if t == 0 else n if p == (n >> d) - 1 else t + (1 << d)

        self.plan = [
            [(d, p) for d, p in self._events(t) if next_read[t] < stop(t, d, p)]
            for t in range(n)
        ]
        self._builds = [0] * m  # builds run per depth
        leaf = leaf_probabilities(llrs[:, _bit_reversal(m)])
        self.leaf = np.ascontiguousarray(leaf.transpose(2, 1, 0))[:, :, None]
        self.tbl = [np.empty((8, 1 << d, list_size, b)) for d in range(m)]
        self.exp = [np.zeros(b, dtype=np.int64) for _ in range(m)]
        depths = max(m - 1, 1)
        self.rings = [
            np.zeros((_RING, 1 << d, list_size, b), dtype=bool)
            for d in range(depths)
        ]
        self.head = [0] * depths
        # row r: slot whose state path slot i continues, for the table of
        # depth r (r < m) or the rings of depth r - m; identity unless moved
        self.anc = np.zeros((m + depths, b, list_size), dtype=np.intp)
        self.moved = [False] * (m + depths)
        self.active = 1
        self._bidx = np.arange(b)[:, None]
        # slabs of one block, each one node or at most _BLOCK doubles: 16 of
        # children (entry e of the left half at row 2e, of the right at
        # 2e + 1), then 5 of flip and combine scratch
        self.ws = np.empty(21 * min(max(_BLOCK, list_size * b), n * list_size * b))

    # -- path state ---------------------------------------------------------

    def _cols(self, r: int) -> np.ndarray:
        """Flat (slot, trial) columns that row r's active paths continue."""
        return (self.anc[r, :, : self.active] * self.B + self._bidx).T.ravel()

    def _settle(self, r: int) -> None:
        self.anc[r, :, : self.active] = np.arange(self.active)
        self.moved[r] = False

    def _ring(self, d: int) -> np.ndarray:
        """Commit rings (slot, nodes, active, B) of depth d, moved onto the paths."""
        a, r = self.active, self.m + d
        if self.moved[r]:
            ring = self.rings[d]
            k, nodes, lsz, b = ring.shape
            moved = ring.reshape(k, nodes, lsz * b).take(self._cols(r), axis=2)
            ring[:, :, :a] = moved.reshape(k, nodes, a, b)
            self._settle(r)
        return self.rings[d][:, :, :a]

    def _window(self, d: int, back: int) -> np.ndarray:
        """Committed symbol v_{p-3-back} of every depth-d node, as bools."""
        lag = 2 if d == 0 else 1 if d == 1 else 0
        return self._ring(d)[(self.head[d] + 4 - lag - back) % _RING]

    def prune(self, parent: np.ndarray) -> None:
        """Continue path slot i of trial b from slot parent[b, i]."""
        self.active = parent.shape[1]
        self.anc[:, :, : self.active] = self.anc[:, self._bidx, parent]
        self.moved = [True] * len(self.moved)

    def commit(self, t: int, bits: np.ndarray) -> None:
        """Push the (B, active) decisions of phase t through the rings."""
        cur, idx = (bits.T != 0)[None], t
        for d in range(len(self.rings)):
            ring, h = self._ring(d), self.head[d]
            ring[h] = cur  # replaces the oldest commit
            self.head[d] = (h + 1) % _RING
            if idx < 2 or idx % 2 or d + 1 == len(self.rings):
                return
            half = 1 << d
            nxt = np.empty((2 * half,) + cur.shape[1:], dtype=bool)
            np.bitwise_xor(ring[(h + 4) % _RING], cur, out=nxt[half:])
            np.bitwise_xor(nxt[half:], ring[(h + 3) % _RING], out=nxt[:half])
            cur, idx = nxt, (idx - 2) // 2

    # -- building -------------------------------------------------------------

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

    def _children(self, d: int, lo: int, kids: np.ndarray):
        """Both child halves of depth-d nodes lo.., on the active paths.

        Views of the leaves or of the next depth's table, or, if that table's
        paths have moved, its rows gathered into kids (16, nodes, active, B).
        """
        r, (_, k, a, b), half = d + 1, kids.shape, 1 << d
        if r == self.m:
            src = self.leaf
        elif not self.moved[r]:
            src = self.tbl[r][:, :, :a]
        else:
            lsz = self.tbl[r].shape[2]
            rows = self.tbl[r].reshape(16, half, lsz * b)[:, lo : lo + k]
            cols, out = self._cols(r), kids.reshape(16, k, a * b)
            # take copies a strided source first, and mode="raise" buffers out
            step = 16 if rows.flags.c_contiguous else 1
            for i in range(0, 16, step):
                np.take(rows[i : i + step], cols, 2, out[i : i + step], mode="clip")
            return kids[0::2], kids[1::2]
        return src[:, lo : lo + k], src[:, half + lo : half + lo + k]

    def _build(self, d: int, p: int) -> None:
        a, b, half = self.active, self.B, 1 << d
        out = self.tbl[d][:, :, :a]
        leaf = d == self.m - 1  # phases 0 and 1 only, with no flips
        last = p == (self.n >> d) - 1
        if p and not leaf:
            s1 = self._window(d, 0)
            if last or not p % 2:
                s12 = s1 ^ self._window(d, 1)
            if last:
                s123 = s12 ^ self._window(d, 2)
        nodes = min(half, max(1, _BLOCK // max(1, a * b)))
        for lo in range(0, half, nodes):
            blk = slice(lo, min(lo + nodes, half))
            k = blk.stop - lo
            ws = self.ws[: 21 * k * a * b].reshape(21, k, a, b)
            o, tmp, work = out[:, blk], ws[16:18], ws[16:].view(np.int64)
            at, bt = self._children(d, lo, ws[:16])
            fa, fb = ws[0:16:2], ws[1:16:2]  # flipped children
            if p == 0:
                _combine(o[:2], at, bt, _START, tmp)
                o.reshape(4, 2, *o.shape[1:])[1:] = o[:2]
            elif leaf:
                _combine(o[:4], at, bt, _PAIR, tmp)
                o[4:] = o[:4]
            elif last:
                _flip(at, s123[blk], work, fa)
                _flip(fa[:4], s1[blk], work, fa[:4])
                _flip(bt, s12[blk], work, fb)
                _combine(o, fa[:4], fb[:4], _LAST, tmp)
            elif p % 2:
                _flip(at, s1[blk], work, fa)
                _combine(o, fa, bt, _ODD, tmp)
            else:
                _flip(at, s12[blk], work, fa)
                _flip(bt, s1[blk], work, fb)
                _combine(o, fa, fb, _EVEN, tmp)
        e = np.frexp(out.max(axis=(0, 1, 2)))[1].astype(np.int64)
        if e.min(initial=1) > -1022:  # 2**(1-e) is a double: same rounding
            out *= np.ldexp(1.0, 1 - e)
        else:
            np.ldexp(out, 1 - e, out=out)
        child_exp = self.exp[d + 1] if d + 1 < self.m else 0
        self.exp[d] = 2 * child_exp + (e - 1)
        if self.moved[d]:
            self._settle(d)
        self._builds[d] += 1

    def build_phase(self, t: int) -> None:
        for d, p in self.plan[t]:
            self._build(d, p)

    def extract(self) -> np.ndarray:
        """Candidate values (B, active, 2) at the current phase."""
        ring, h = self._ring(0)[:, 0], self.head[0]
        top = self.tbl[0][:, 0, : self.active]
        half = np.where(ring[(h + 3) % _RING], top[4:], top[:4])
        return np.where(ring[(h + 4) % _RING], half[2:], half[:2]).T


def _run_list_decode(
    code: CodeSpec,
    llrs: np.ndarray,
    list_size: int,
    track: np.ndarray | None = None,
):
    """Core SCL loop: (paths, metrics, (reference worst rank, reference kept))."""
    b, n = llrs.shape
    if code.n != n:
        raise ValueError(f"code length {code.n} != input length {n}")
    frozen = dict(code.frozen)
    # decisions read the root table at information phases and the last phase
    reads = np.array([t not in frozen for t in range(n)])
    reads[-1] = True
    eng = _TreeDecoder(llrs, min(list_size, 1 << code.k), reads)
    # one running parity bit per path for each dynamic frozen symbol
    dynamic = {i: c for c, i in enumerate(i for i, parts in code.frozen if parts)}
    masks = np.zeros((n, (len(dynamic) + 63) // 64), dtype=np.uint64)
    for i, c in dynamic.items():
        masks[list(frozen[i]), c >> 6] |= np.uint64(1 << (c & 63))
    parity = np.zeros((b, 1, masks.shape[1]), dtype=np.uint64)
    cols = []  # per phase: (decisions, parent slots or None), both (B, active)
    ref_slot, ref_alive, ref_rank = np.zeros(b, int), np.ones(b, bool), np.zeros(b, int)
    bidx = eng._bidx
    for t in range(n):
        eng.build_phase(t)
        parent = None
        if t in frozen:
            bit = np.zeros((b, eng.active), dtype=np.uint8)
            if t in dynamic:
                c = dynamic[t]
                bit[:] = (parity[..., c >> 6] >> np.uint64(c & 63)) & np.uint64(1)
            if t == n - 1:
                vals = eng.extract()
                metric = np.where(bit, vals[..., 1], vals[..., 0])
        else:
            scores = eng.extract().reshape(b, 2 * eng.active)
            ranked = np.argsort(-scores, axis=1, kind="stable")
            keep = np.sort(ranked[:, :list_size], axis=1)
            if track is not None:
                cand = 2 * ref_slot + int(track[t])
                rank = np.argmax(ranked == cand[:, None], axis=1)
                np.maximum(ref_rank, np.where(ref_alive, rank, 0), out=ref_rank)
                pos = np.minimum((keep < cand[:, None]).sum(1), keep.shape[1] - 1)
                found = keep[bidx[:, 0], pos] == cand
                ref_alive &= found
                ref_slot = np.where(found, pos, 0)
            parent = keep >> 1
            bit = (keep & 1).astype(np.uint8)
            metric = scores[bidx, keep]
            parity = parity[bidx, parent]
            eng.prune(parent)
        if masks[t].any():
            parity ^= bit[..., None].astype(np.uint64) * masks[t]
        eng.commit(t, bit)
        cols.append((bit, parent))
    order = np.argsort(-metric, axis=1, kind="stable")
    paths = np.empty(order.shape + (n,), dtype=np.uint8)
    slot = order
    for t in range(n - 1, -1, -1):
        bit, parent = cols[t]
        paths[..., t] = bit[bidx, slot]
        if parent is not None:
            slot = parent[bidx, slot]
    with np.errstate(divide="ignore"):
        metrics = np.log(metric[bidx, order])
    metrics += eng.exp[0][:, None] * _LN2
    return paths, metrics, (ref_rank, ref_alive)


def _in_chunks(decode, slots: int, *arrays) -> tuple[np.ndarray, ...]:
    """decode over row chunks of arrays whose tables fit TABLE_BUDGET_BYTES."""
    b, n = arrays[0].shape
    rows = max(1, TABLE_BUDGET_BYTES // max(1, slots * (n - 1) * 64))
    parts = [
        decode(*(arr[lo : lo + rows] for arr in arrays))
        for lo in range(0, max(b, 1), rows)
    ]
    return tuple(np.concatenate(arrs) for arrs in zip(*parts))


def scl_decode_batch(
    code: CodeSpec, llrs, list_size: int
) -> tuple[np.ndarray, np.ndarray]:
    """Batched list decode: (paths (B, L', n), metrics (B, L')), best first."""
    return _in_chunks(
        lambda rows: _run_list_decode(code, rows, list_size)[:2],
        min(list_size, 1 << code.k),
        _as_llr_batch(llrs),
    )


def scl_decode(code: CodeSpec, soft, list_size: int, track_reference=None):
    """List decode one LLR vector: row 0 of :func:`scl_decode_batch`.

    Returns (paths (L', n) uint8, metrics (L',)), best first.  With
    ``track_reference`` set to a full decision vector, returns that pair plus
    a diagnostics dict with the reference path's worst pre-prune rank and
    whether it survived to the final list.
    """
    track = None
    if track_reference is not None:
        track = _as_decisions(track_reference)
        if track.shape != (code.n,):
            raise ValueError("reference path must be a full decision vector")
    paths, metrics, diags = _run_list_decode(
        code, _as_llr_vector(soft), list_size, track
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
    forced = _as_decisions(forced_u)
    if forced.ndim == 1:
        forced = forced[None, :]
    if forced.shape != batch.shape:
        raise ValueError("decision array shape must match llr batch")
    return _in_chunks(_forced_rows, 1, batch, forced)


def _forced_rows(llrs: np.ndarray, forced: np.ndarray):
    eng = _TreeDecoder(llrs, 1)
    n, b = eng.n, eng.B
    values = np.empty((b, n, 2))
    exps = np.empty((b, n), dtype=np.int64)
    for t in range(n):
        eng.build_phase(t)
        values[:, t] = eng.extract()[:, 0]
        exps[:, t] = eng.exp[0]
        eng.commit(t, forced[:, t : t + 1])
    return values, exps
