"""Binary erasure and AWGN channels plus frame-error-rate simulation.

Randomness is counter-based: trial ``t`` of a run seeded with ``s`` always
draws from a Philox generator keyed by the pair (s, t), so results are
bit-identical regardless of batch size, thread count, or whether earlier
trials were simulated at all.  Gaussian noise comes from the inverse normal
CDF applied to uniforms, which keeps the draw count per trial fixed.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import ndtri

from .codespec import CodeSpec
from .cvpt import encode
from .decoder import scl_decode_batch

__all__ = ["ChannelModel", "SimResult", "trial_rng", "transmit", "run_fer"]

_KINDS = ("bec", "awgn")


@dataclass(frozen=True)
class ChannelModel:
    """A memoryless binary-input channel.

    kind "bec": param is the erasure probability.
    kind "awgn": param is Eb/N0 in dB; rate sets the noise variance
    sigma^2 = 1 / (2 * rate * 10**(param/10)) and must be present before
    transmitting (run_fer fills it in from the code when omitted).
    """

    kind: str
    param: float
    rate: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown channel kind {self.kind!r}")
        if not math.isfinite(self.param):
            raise ValueError(f"channel parameter {self.param} is not finite")
        if self.kind == "bec" and not 0.0 <= self.param <= 1.0:
            raise ValueError(f"erasure probability {self.param} outside [0, 1]")
        if self.rate is not None and not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate {self.rate} outside (0, 1]")

    def with_rate(self, rate: float) -> "ChannelModel":
        return ChannelModel(self.kind, self.param, rate)

    def sigma_squared(self) -> float:
        if self.kind != "awgn":
            raise ValueError("sigma_squared is defined for awgn only")
        if self.rate is None:
            raise ValueError("awgn channel needs a rate to fix the noise variance")
        return 1.0 / (2.0 * self.rate * 10.0 ** (self.param / 10.0))


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The dedicated generator of one trial: Philox keyed by (seed, trial).

    Both must lie in [0, 2**64).
    """
    for name, value in (("seed", seed), ("trial", trial)):
        if not 0 <= value < 1 << 64:
            raise ValueError(f"{name} {value} outside [0, 2**64)")
    key = np.array([seed, trial], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def transmit(channel: ChannelModel, codeword, rng: np.random.Generator) -> np.ndarray:
    """One codeword through the channel; returns per-symbol LLRs."""
    cw = np.asarray(codeword, dtype=np.uint8)
    if channel.kind == "bec":
        erased = rng.random(cw.shape) < channel.param
        llr = np.where(cw == 0, np.inf, -np.inf)
        return np.where(erased, 0.0, llr)
    sigma2 = channel.sigma_squared()
    noise = ndtri(rng.random(cw.shape)) * np.sqrt(sigma2)
    y = 1.0 - 2.0 * cw.astype(np.float64) + noise
    return 2.0 * y / sigma2


@dataclass(frozen=True)
class SimResult:
    """Outcome of a frame-error-rate run, with its reproducibility recipe."""

    trials: int
    frame_errors: int
    seed: int
    list_size: int
    channel: ChannelModel
    wall_time: float
    rng: str = "philox-per-trial"
    noise_method: str = "inverse-cdf"

    @property
    def fer(self) -> float:
        return self.frame_errors / self.trials if self.trials else 0.0

    @property
    def stderr(self) -> float:
        if not self.trials:
            return 0.0
        p = self.fer
        return float(np.sqrt(max(p * (1.0 - p), 0.0) / self.trials))


def _simulate_batch(
    code: CodeSpec,
    channel: ChannelModel,
    list_size: int,
    seed: int,
    trials: range,
) -> np.ndarray:
    """Frame-error flags for a contiguous range of trial indices."""
    b = len(trials)
    k, n = code.k, code.n
    msgs = np.empty((b, k), dtype=np.uint8)
    llrs = np.empty((b, n))
    for row, t in enumerate(trials):
        rng = trial_rng(seed, t)
        msgs[row] = rng.integers(0, 2, k, dtype=np.uint8)
        llrs[row] = transmit(channel, encode(code.assemble(msgs[row])), rng)
    paths, _ = scl_decode_batch(code, llrs, list_size)
    decided = paths[:, 0][:, list(code.info_set)]
    return (decided != msgs).any(axis=1)


def _run_now(fn, *args) -> Future:
    """Run fn on the calling thread; its result as a completed future."""
    future = Future()
    future.set_result(fn(*args))
    return future


def run_fer(
    code: CodeSpec,
    channel: ChannelModel,
    list_size: int,
    max_trials: int,
    target_errors: int = 0,
    seed: int = 0,
    batch_size: int = 256,
    threads: int = 1,
) -> SimResult:
    """Monte-Carlo frame error rate under list decoding.

    Runs until ``max_trials`` trials or, if ``target_errors`` > 0, until the
    trial at which the cumulative error count first reaches that target
    (whichever is earlier).  The stopping point is evaluated in trial order,
    so any batch size or thread count reproduces the same result.
    """
    if max_trials < 1:
        raise ValueError("max_trials must be >= 1")
    if batch_size < 1 or threads < 1:
        raise ValueError("batch_size and threads must be >= 1")
    if target_errors < 0:
        raise ValueError(f"target_errors must be >= 0, got {target_errors}")
    if channel.kind == "awgn" and channel.rate is None:
        channel = channel.with_rate(code.k / code.n)
    start = time.time()
    todo = (
        range(lo, min(lo + batch_size, max_trials))
        for lo in range(0, max_trials, batch_size)
    )
    errors = done = 0
    # one thread runs its batches itself; more get a pool of workers
    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    with pool or nullcontext():
        submit = partial(
            pool.submit if pool else _run_now,
            _simulate_batch, code, channel, list_size, seed,
        )
        # one batch per worker in flight, counted in trial order
        queued = deque(map(submit, itertools.islice(todo, threads)))
        while queued:
            hits = errors + np.cumsum(queued.popleft().result())
            if target_errors and hits[-1] >= target_errors:
                stop = int(np.argmax(hits >= target_errors))
                done += stop + 1
                errors = int(hits[stop])
                for future in queued:  # past the stop point: never read
                    future.cancel()
                break
            done += hits.size
            errors = int(hits[-1])
            queued.extend(map(submit, itertools.islice(todo, 1)))
    return SimResult(
        trials=done,
        frame_errors=errors,
        seed=seed,
        list_size=list_size,
        channel=channel,
        wall_time=time.time() - start,
    )
