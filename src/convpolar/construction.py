"""Code construction from genie-aided reliability estimates.

A construction run measures, per input position, how often a decoder that is
told all previous decisions errs on that position.  Static codes freeze the
least reliable positions to zero; the distance-improved variant re-freezes a
few reliable-but-low-weight positions to random parity checks on earlier
information symbols, which raises the minimum distance without hurting the
successive-cancellation error floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelModel, transmit, trial_rng
from .codespec import CodeSpec
from .cvpt import encode
from .decoder import forced_path_tables
from .distance import SubchannelWeights

__all__ = [
    "ReliabilityProfile",
    "ConstructionResult",
    "genie_reliability",
    "build_cvpc",
    "build_cvps",
]

_MATRIX_STREAM = (1 << 64) - 1  # trial index reserved for construction coins


@dataclass(frozen=True)
class ReliabilityProfile:
    """Genie-aided decision error rate of every input position."""

    n: int
    err_prob: np.ndarray
    trials: int
    seed: int

    def __post_init__(self) -> None:
        arr = np.asarray(self.err_prob, dtype=np.float64)
        if arr.shape != (self.n,):
            raise ValueError("err_prob must have one entry per position")
        object.__setattr__(self, "err_prob", arr)

    @property
    def stderr(self) -> np.ndarray:
        p = self.err_prob
        return np.sqrt(np.maximum(p * (1.0 - p), 0.0) / max(self.trials, 1))


@dataclass(frozen=True)
class ConstructionResult:
    spec: CodeSpec
    profile: ReliabilityProfile
    degenerate_dynamic: tuple[int, ...] = ()


def genie_reliability(
    n: int,
    channel: ChannelModel,
    trials: int,
    seed: int,
    batch_size: int = 512,
) -> ReliabilityProfile:
    """Estimate per-position decision error rates with a genie decoder.

    Each trial sends a uniform input block, then scores every position
    against the candidate pair computed from the true previous decisions.
    Exact ties are broken by a fair coin; the coin for every position is
    drawn whether or not a tie occurs, keeping the per-trial draw count
    fixed.
    """
    if n < 2 or n & (n - 1):
        raise ValueError(f"n must be a power of two >= 2, got {n}")
    if not 1 <= trials < 1 << 63:
        raise ValueError("trials must be in [1, 2**63)")
    if channel.kind == "awgn" and channel.rate is None:
        raise ValueError("awgn reliability runs need an explicit rate")
    err_counts = np.zeros(n, dtype=np.int64)
    for lo in range(0, trials, batch_size):
        batch = range(lo, min(lo + batch_size, trials))
        rngs = [trial_rng(seed, t) for t in batch]
        u = np.array([rng.integers(0, 2, n, dtype=np.uint8) for rng in rngs])
        cw = encode(u)
        llrs = np.empty(cw.shape)  # filled row by row: no list of rows stays live
        for row, rng in enumerate(rngs):
            llrs[row] = transmit(channel, cw[row], rng)
        coins = np.array([rng.random(n) < 0.5 for rng in rngs])
        values, _ = forced_path_tables(llrs, u)
        idx = u.astype(np.intp)
        true_val = np.take_along_axis(values, idx[..., None], axis=2)[..., 0]
        flip_val = np.take_along_axis(values, (1 - idx)[..., None], axis=2)[..., 0]
        wrong = (true_val < flip_val) | ((true_val == flip_val) & coins)
        err_counts += wrong.sum(axis=0)
    return ReliabilityProfile(
        n=n, err_prob=err_counts / trials, trials=trials, seed=seed
    )


def _worst_positions(profile: ReliabilityProfile, count: int) -> list[int]:
    order = sorted(range(profile.n), key=lambda i: (-profile.err_prob[i], i))
    return sorted(order[:count])


def build_cvpc(n: int, k: int, profile: ReliabilityProfile) -> ConstructionResult:
    """Static code: freeze the n-k least reliable positions to zero.

    Reliability ties freeze the smaller index first.
    """
    if profile.n != n:
        raise ValueError("profile length does not match n")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n], got {k}")
    frozen = tuple((i, ()) for i in _worst_positions(profile, n - k))
    spec = CodeSpec(n=n, k=k, seed=profile.seed, frozen=frozen)
    return ConstructionResult(spec=spec, profile=profile)


def build_cvps(
    n: int,
    k: int,
    dynamic_count: int,
    profile: ReliabilityProfile,
    weights: SubchannelWeights,
    seed: int,
    d_tie_break: str = "high-index",
) -> ConstructionResult:
    """Distance-improved code with random dynamic frozen constraints.

    Freezes the n-k-f least reliable positions statically, then picks the f
    remaining positions of smallest transform weight and re-freezes each to
    the XOR of a random subset of earlier information positions.  Weight
    ties pick the higher index first ("high-index", default) or the lower
    ("low-index").  The subsets come from a Philox stream keyed by (seed,
    2**64 - 1), one coin per (position, earlier info position) pair in row
    then column order.
    """
    if profile.n != n or (1 << weights.m) != n:
        raise ValueError("profile and weights must match n")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n], got {k}")
    if not 0 <= dynamic_count <= n - k:
        raise ValueError(f"dynamic_count must be in [0, n-k], got {dynamic_count}")
    if d_tie_break not in ("high-index", "low-index"):
        raise ValueError(f"unknown tie break {d_tie_break!r}")
    static = set(_worst_positions(profile, n - k - dynamic_count))
    rest = [i for i in range(n) if i not in static]
    if d_tie_break == "high-index":
        rest.sort(key=lambda i: (weights.d[i], -i))
    else:
        rest.sort(key=lambda i: (weights.d[i], i))
    dynamic = sorted(rest[:dynamic_count])
    info = sorted(set(rest[dynamic_count:]))
    rng = trial_rng(seed, _MATRIX_STREAM)
    rows: list[tuple[int, tuple[int, ...]]] = []
    degenerate: list[int] = []
    for i in sorted(static) + dynamic:
        if i in static:
            rows.append((i, ()))
            continue
        parts = tuple(j for j in info if j < i and rng.random() < 0.5)
        if not parts:
            degenerate.append(i)
        rows.append((i, parts))
    rows.sort(key=lambda r: r[0])
    spec = CodeSpec(n=n, k=k, seed=seed, frozen=tuple(rows))
    return ConstructionResult(
        spec=spec, profile=profile, degenerate_dynamic=tuple(degenerate)
    )
