import threading
import time

import numpy as np
import pytest
from scipy.special import ndtr

from convpolar import channel
from convpolar.channel import ChannelModel, SimResult, run_fer, transmit, trial_rng
from convpolar.codespec import CodeSpec
from convpolar.cvpt import encode


def simple_code():
    return CodeSpec(
        n=16, k=8, seed=0,
        frozen=((0, ()), (1, ()), (2, ()), (3, ()), (4, ()), (5, ()), (6, ()), (8, ())),
    )


def test_channel_validation():
    with pytest.raises(ValueError):
        ChannelModel("laplace", 0.1)
    with pytest.raises(ValueError):
        ChannelModel("bec", 1.5)
    with pytest.raises(ValueError):
        ChannelModel("awgn", 2.0, rate=0.0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="not finite"):
            ChannelModel("awgn", bad, rate=0.5)
        with pytest.raises(ValueError):
            ChannelModel("bec", bad)
        with pytest.raises(ValueError):
            ChannelModel("awgn", 2.0, rate=bad)
    ch = ChannelModel("awgn", 2.0)
    with pytest.raises(ValueError):
        ch.sigma_squared()  # rate not set yet
    assert ch.with_rate(0.5).sigma_squared() == pytest.approx(
        1.0 / (2 * 0.5 * 10 ** 0.2)
    )


def test_trial_rng_rejects_out_of_range_keys():
    for seed, trial in ((-1, 0), (1 << 64, 0), (0, -1), (0, 1 << 64)):
        with pytest.raises(ValueError, match=r"outside \[0, 2\*\*64\)"):
            trial_rng(seed, trial)
    last = (1 << 64) - 1
    assert trial_rng(last, last).random() == trial_rng(last, last).random()


def test_trial_rng_is_counter_based():
    a = trial_rng(42, 7).random(5)
    b = trial_rng(42, 7).random(5)
    c = trial_rng(42, 8).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bec_transmit():
    cw = np.array([0, 1, 0, 1] * 250, dtype=np.uint8)
    llr = transmit(ChannelModel("bec", 0.3), cw, trial_rng(0, 0))
    erased = llr == 0
    known = ~erased
    assert np.all(np.isinf(llr[known]))
    assert np.all((llr[known] > 0) == (cw[known] == 0))
    assert abs(erased.mean() - 0.3) < 3 * np.sqrt(0.3 * 0.7 / cw.size)


def test_bec_extremes():
    cw = np.array([0, 1], dtype=np.uint8)
    assert np.all(transmit(ChannelModel("bec", 1.0), cw, trial_rng(0, 1)) == 0)
    out = transmit(ChannelModel("bec", 0.0), cw, trial_rng(0, 1))
    assert out[0] == np.inf and out[1] == -np.inf


def test_awgn_uncoded_ber_matches_q_function():
    ch = ChannelModel("awgn", 3.0, rate=1.0)
    sigma = np.sqrt(ch.sigma_squared())
    n = 200_000
    cw = trial_rng(1, 0).integers(0, 2, n, dtype=np.uint8)
    llr = transmit(ch, cw, trial_rng(1, 1))
    decided = (llr < 0).astype(np.uint8)
    ber = (decided != cw).mean()
    expect = ndtr(-1.0 / sigma)
    assert abs(ber - expect) < 3 * np.sqrt(expect * (1 - expect) / n)


def test_awgn_llr_scaling():
    # llr = 2y/sigma^2 with y centered on +-1
    ch = ChannelModel("awgn", 20.0, rate=0.5)  # nearly noiseless
    cw = np.array([0, 1, 0, 1], dtype=np.uint8)
    llr = transmit(ch, cw, trial_rng(0, 2))
    y = llr * ch.sigma_squared() / 2
    assert np.allclose(y, 1.0 - 2.0 * cw.astype(float), atol=0.2)


def test_run_fer_basic_and_fields():
    code = simple_code()
    res = run_fer(code, ChannelModel("bec", 0.2), list_size=2,
                  max_trials=400, seed=3)
    assert isinstance(res, SimResult)
    assert res.trials == 400
    assert 0 <= res.frame_errors <= 400
    assert res.fer == res.frame_errors / 400
    assert res.rng == "philox-per-trial"
    assert res.noise_method == "inverse-cdf"
    assert res.channel.rate is None  # bec needs no rate
    assert res.stderr >= 0


def test_run_fer_determinism_across_batches_and_threads():
    code = simple_code()
    ch = ChannelModel("awgn", 1.0)
    base = run_fer(code, ch, 4, 600, seed=11)
    for batch in (64, 97):
        again = run_fer(code, ch, 4, 600, seed=11, batch_size=batch)
        assert (again.trials, again.frame_errors) == (base.trials, base.frame_errors)
    threaded = run_fer(code, ch, 4, 600, seed=11, threads=3)
    assert (threaded.trials, threaded.frame_errors) == (base.trials, base.frame_errors)
    other_seed = run_fer(code, ch, 4, 600, seed=12)
    assert (other_seed.frame_errors != base.frame_errors) or (
        other_seed.trials == base.trials
    )


def test_run_fer_target_errors_stops_at_same_trial():
    code = simple_code()
    ch = ChannelModel("bec", 0.45)
    runs = [
        run_fer(code, ch, 1, 5000, target_errors=20, seed=5, batch_size=b, threads=t)
        for b, t in ((256, 1), (37, 1), (100, 2))
    ]
    first = runs[0]
    assert first.frame_errors == 20
    assert first.trials < 5000
    for r in runs[1:]:
        assert (r.trials, r.frame_errors) == (first.trials, first.frame_errors)


def test_run_fer_rate_autofill():
    code = simple_code()
    res = run_fer(code, ChannelModel("awgn", 2.0), 1, 50, seed=0)
    assert res.channel.rate == pytest.approx(0.5)


def test_run_fer_early_stop_cancels_batches_not_started(monkeypatch):
    started = []
    lock = threading.Lock()

    def counting_batch(code, channel, list_size, seed, trials):
        with lock:
            started.append(trials.start)
        if trials.start == 0:
            time.sleep(0.05)  # let the other workers pick up their batches
            return np.ones(len(trials), dtype=bool)
        return np.zeros(len(trials), dtype=bool)

    monkeypatch.setattr(channel, "_simulate_batch", counting_batch)
    code, ch = simple_code(), ChannelModel("bec", 0.3)
    serial = run_fer(code, ch, 1, 1000, target_errors=3, batch_size=10)
    assert started == [0]
    assert (serial.trials, serial.frame_errors) == (3, 3)
    for threads in (2, 3):
        started.clear()
        res = run_fer(code, ch, 1, 1000, target_errors=3, batch_size=10,
                      threads=threads)
        assert len(started) <= threads + 1
        assert (res.trials, res.frame_errors) == (serial.trials, serial.frame_errors)


def test_run_fer_rejects_bad_batching():
    with pytest.raises(ValueError):
        run_fer(simple_code(), ChannelModel("bec", 0.3), 1, 10, batch_size=0)
    with pytest.raises(ValueError):
        run_fer(simple_code(), ChannelModel("bec", 0.3), 1, 10, threads=0)


def test_run_fer_single_thread_runs_batches_on_caller(monkeypatch):
    threads_seen = set()
    real_batch = channel._simulate_batch

    def recording_batch(*args):
        threads_seen.add(threading.get_ident())
        return real_batch(*args)

    monkeypatch.setattr(channel, "_simulate_batch", recording_batch)
    code, ch = simple_code(), ChannelModel("awgn", 1.0)
    serial = run_fer(code, ch, 2, 300, target_errors=40, seed=3, batch_size=32)
    assert threads_seen == {threading.get_ident()}
    pooled = run_fer(code, ch, 2, 300, target_errors=40, seed=3, batch_size=32,
                     threads=2)
    assert (pooled.trials, pooled.frame_errors) == (serial.trials, serial.frame_errors)


def test_run_fer_rejects_negative_target_errors():
    with pytest.raises(ValueError, match="target_errors"):
        run_fer(simple_code(), ChannelModel("bec", 0.3), 1, 10, target_errors=-1)
