"""The benchmark's workloads: fixed inputs, one timed unit each, output digests.

Each workload is one kind of call a user of the library makes, sized so that
a run of a few tens of seconds makes enough calls to report a median and a
tail.  Its inputs are the entries of ``refs/<name>.json``: every entry holds
one call's input and the digest of that call's output, recorded with the
library at the commit that added this benchmark.  ``dev`` entries are what
every run uses; ``holdout`` entries are only run on request, so that a claim
can be rechecked on inputs no one tuned against.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from convpolar import (
    ChannelModel,
    build_cvps,
    compute_weights,
    genie_reliability,
    parse_codespec,
    run_fer,
    serialize_codespec,
)
from convpolar.distance import _parity_reducer
from convpolar.subspaces import build_tau_tables

HERE = Path(__file__).resolve().parent


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def warm_lazy_caches() -> None:
    """Fill the library's lazily built tables before anything is timed."""
    build_tau_tables()
    _parity_reducer(0)
    _parity_reducer(1)


class Workload:
    name: str
    # m of the compute_weights call in the unit, if any (for combine_ops)
    weights_m: int | None = None
    # span names a traced run of this workload must record at least once
    expected_spans: tuple[str, ...]

    def refs(self, pool: str) -> list[dict]:
        with open(HERE / "refs" / f"{self.name}.json", encoding="utf-8") as fh:
            return json.load(fh)[pool]

    def setup(self, tr) -> None:
        """Everything a user pays before the first result (minus the import)."""
        warm_lazy_caches()

    def warmup(self) -> None:
        """One small call down every code path the timed unit takes."""

    def unit(self, tr, inp):
        """The timed call; returns what ``digest`` and ``frames`` read."""
        raise NotImplementedError

    def digest(self, out) -> dict:
        raise NotImplementedError

    def check(self, tr, out) -> None:
        """Extra output checks outside the timed call (raise on failure)."""

    def frames(self, out) -> int:
        raise NotImplementedError

    def working_set(self) -> dict:
        """Computed bytes of the largest arrays the unit keeps live."""
        raise NotImplementedError


class FerWorkload(Workload):
    expected_spans = (
        "codespec.parse_codespec",
        "channel.run_fer",
        "decoder.scl_decode_batch",
        "channel.transmit",
        "channel.trial_rng",
        "cvpt.encode",
        "codespec.assemble",
    )

    def __init__(self, name, spec_file, ebn0, list_size, max_trials,
                 batch_size, threads, target_errors):
        self.name, self.spec_file = name, spec_file
        self.channel = ChannelModel("awgn", ebn0)
        self.list_size, self.max_trials = list_size, max_trials
        self.batch_size, self.threads = batch_size, threads
        self.target_errors = target_errors

    def setup(self, tr) -> None:
        text = (HERE / "specs" / self.spec_file).read_text(encoding="utf-8")
        self.spec = tr.call("codespec.parse_codespec", parse_codespec, text)
        super().setup(tr)

    def warmup(self) -> None:
        run_fer(self.spec, self.channel, self.list_size, self.threads,
                seed=0, batch_size=1, threads=self.threads)

    def unit(self, tr, inp):
        return tr.call(
            "channel.run_fer", run_fer, self.spec, self.channel, self.list_size,
            self.max_trials, target_errors=self.target_errors, seed=inp,
            batch_size=self.batch_size, threads=self.threads,
        )

    def digest(self, out) -> dict:
        return {"trials": out.trials, "frame_errors": out.frame_errors}

    def frames(self, out) -> int:
        return out.trials

    def working_set(self) -> dict:
        n, rows = self.spec.n, min(self.batch_size, self.max_trials)
        tables = rows * self.list_size * (n - 1) * 64
        return {
            "decoder_tables_per_worker": tables,
            "decoder_tables_all_workers": tables * self.threads,
        }


class ConstructWorkload(Workload):
    """``convpolar construct --n 1024 --k 512 --f 32 --channel awgn --ebn0 2.0``
    as library calls in the command's order, with 512 genie trials, not 20000."""

    name = "construct-n1024"
    # one full batch of genie_reliability's default size
    n, k, f, ebn0, trials = 1024, 512, 32, 2.0, 512
    weights_m = 10
    expected_spans = (
        "construction.genie_reliability",
        "distance.compute_weights",
        "construction.build_cvps",
        "codespec.serialize_codespec",
        "codespec.parse_codespec",
        "decoder.forced_path_tables",
        "channel.transmit",
        "channel.trial_rng",
        "cvpt.encode",
    )

    def __init__(self) -> None:
        self.channel = ChannelModel("awgn", self.ebn0, self.k / self.n)

    def warmup(self) -> None:
        profile = genie_reliability(self.n, self.channel, 2, 0)
        weights = compute_weights(self.weights_m)
        build_cvps(self.n, self.k, self.f, profile, weights, 0)

    def unit(self, tr, inp):
        profile = tr.call("construction.genie_reliability", genie_reliability,
                          self.n, self.channel, self.trials, inp)
        weights = tr.call("distance.compute_weights", compute_weights,
                          self.weights_m)
        result = tr.call("construction.build_cvps", build_cvps, self.n, self.k,
                         self.f, profile, weights, inp)
        text = tr.call("codespec.serialize_codespec", serialize_codespec,
                       result.spec)
        return result.spec, text

    def digest(self, out) -> dict:
        return {"spec_sha256": _sha256(out[1].encode())}

    def check(self, tr, out) -> None:
        spec, text = out
        if tr.call("codespec.parse_codespec", parse_codespec, text) != spec:
            raise ValueError("serialized spec does not parse back to itself")

    def frames(self, out) -> int:
        return self.trials

    def working_set(self) -> dict:
        rows = min(self.trials, 512)  # genie_reliability's default batch
        return {"decoder_tables_per_worker": rows * (self.n - 1) * 64}


class WeightsWorkload(Workload):
    name = "weights-m18"
    weights_m = 18
    expected_spans = ("distance.compute_weights",)

    def warmup(self) -> None:
        compute_weights(10)

    def unit(self, tr, inp):
        return tr.call("distance.compute_weights", compute_weights, inp)

    def digest(self, out) -> dict:
        return {"d_sha256": _sha256(out.d.astype("<i8").tobytes())}

    def frames(self, out) -> int:
        # one "frame" of this workload is one phase whose weight is computed
        return out.n

    def working_set(self) -> dict:
        m = self.weights_m
        chunk = min(1 << 13, 1 << (m - 1))  # distance._CHUNK_ROWS
        return {
            "level_tables": 2 * (1 << m) * 16 * 8,  # previous and new level
            "combine_block": 2 * chunk * 256 * 8,  # sums and their gather
        }


def combine_ops(m: int) -> int:
    """Computed: adds plus mins of the weight recursion up to level m.

    Level l combines 2**l rows once per parity; each row forms 256 pairwise
    sums and reduces them with 256 minimum operations.
    """
    return sum(2 * (1 << level) * (256 + 256) for level in range(m))


WORKLOADS = {
    w.name: w
    for w in (
        FerWorkload(
            "fer-n128-L32",
            "n128_k64_f8.code", ebn0=2.5, list_size=32, max_trials=256,
            batch_size=256, threads=1, target_errors=0,
        ),
        FerWorkload(
            "fer-n512-L8-t2",
            "n512_k256_f16.code", ebn0=1.5, list_size=8, max_trials=256,
            batch_size=64, threads=2, target_errors=6,
        ),
        ConstructWorkload(),
        WeightsWorkload(),
    )
}
