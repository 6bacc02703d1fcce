"""Batch invariance and pinned outputs of the batched decoder.

Rows of a batch are independent trials, so a batch decode must equal its
row-by-row decodes bit for bit, whatever the row chunking.  The golden
digests pin the decoder's exact floats: they were recorded before the
decoder's tables and path state were reorganised, and every later change to
the kernel must keep them.  They assume numpy's float64 ``exp`` and ``log``
round as on the machine that recorded them (x86-64, numpy 2.4).
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convpolar import decoder
from convpolar.codespec import CodeSpec, parse_codespec
from convpolar.decoder import forced_path_tables, scl_decode_batch


def _random_code(rng, n, k):
    info = sorted(rng.choice(n, size=k, replace=False).tolist())
    frozen = []
    for i in range(n):
        if i in info:
            continue
        prev = list(range(i))
        parts = ()
        if prev and rng.random() < 0.7:
            parts = tuple(j for j in prev if rng.random() < 0.5)
        frozen.append((i, parts))
    return CodeSpec(n=n, k=k, seed=0, frozen=tuple(frozen))


_LLR = st.one_of(
    st.sampled_from([0.0, np.inf, -np.inf, 740.0, -740.0]),
    st.floats(-40.0, 40.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _batches(draw):
    n = 1 << draw(st.integers(1, 5))
    b = draw(st.integers(1, 4))
    llrs = np.array(draw(st.lists(_LLR, min_size=b * n, max_size=b * n)))
    return llrs.reshape(b, n)


@settings(max_examples=80, deadline=None)
@given(_batches(), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_scl_batch_equals_rows(llrs, list_size, seed):
    rng = np.random.default_rng(seed)
    n = llrs.shape[1]
    code = _random_code(rng, n, int(rng.integers(1, n + 1)))
    paths, metrics = scl_decode_batch(code, llrs, list_size)
    for row in range(llrs.shape[0]):
        p, m = scl_decode_batch(code, llrs[row : row + 1], list_size)
        assert np.array_equal(paths[row], p[0])
        assert np.array_equal(metrics[row], m[0])


@settings(max_examples=80, deadline=None)
@given(_batches(), st.integers(0, 2**32 - 1))
def test_forced_tables_batch_equals_rows(llrs, seed):
    u = np.random.default_rng(seed).integers(0, 2, llrs.shape, dtype=np.uint8)
    values, exps = forced_path_tables(llrs, u)
    for row in range(llrs.shape[0]):
        v, e = forced_path_tables(llrs[row : row + 1], u[row : row + 1])
        assert np.array_equal(values[row], v[0])
        assert np.array_equal(exps[row], e[0])


# table values the decoder meets: signed zeros and infinities, subnormals,
# and the leaf probabilities of +-745 LLRs (the smallest subnormal and 1)
_TABLE_VALUE = st.one_of(
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 5e-324, 1.0, 2.2e-308]),
    st.sampled_from(decoder.leaf_probabilities([745.0, -745.0]).ravel().tolist()),
    st.floats(allow_nan=False, allow_subnormal=True),
)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from([4, 8]),
    st.tuples(*[st.integers(1, 3)] * 3),
    st.data(),
)
def test_flip_equals_select_bit_for_bit(entries, shape, data):
    size = entries * int(np.prod(shape))
    t = np.array(data.draw(st.lists(_TABLE_VALUE, min_size=size, max_size=size)))
    t = t.reshape(entries, *shape)
    s = np.array(data.draw(st.lists(st.booleans(), min_size=size // entries,
                                    max_size=size // entries))).reshape(shape)
    h = t.reshape(2, -1, *shape)
    want = np.where(s, h[::-1], h).reshape(t.shape)
    work = np.empty((5,) + shape, dtype=np.int64)
    out = np.empty_like(t)
    decoder._flip(t, s, work, out)
    assert np.array_equal(out.view(np.int64), want.view(np.int64))
    decoder._flip(t, s, work, t)  # in place
    assert np.array_equal(t.view(np.int64), want.view(np.int64))


def _sha(*arrays) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _golden_inputs():
    rng = np.random.default_rng(20240611)
    llrs = rng.normal(1.0, 2.0, (32, 64))
    llrs[0, :3] = (np.inf, -np.inf, 0.0)
    u = rng.integers(0, 2, (32, 64), dtype=np.uint8)
    code = _random_code(rng, 32, 16)
    scl_llrs = rng.normal(0.8, 1.5, (16, 32))
    scl_llrs[1, 5:8] = (0.0, np.inf, -np.inf)
    return llrs, u, code, scl_llrs


def _golden_digests():
    llrs, u, code, scl_llrs = _golden_inputs()
    values, exps = forced_path_tables(llrs, u)
    paths, metrics = scl_decode_batch(code, scl_llrs, 8)
    return _sha(values, exps), _sha(paths, metrics)


GOLDEN = (
    "6e0b3308ec0678902979df6fca7deafa9ca89e85590ca1009fbb77981ad8de94",
    "3da87a62430d09cef37563d6607122a27dd0ba50678ad8c7b5def815d23ec14e",
)


def test_golden_outputs():
    assert _golden_digests() == GOLDEN


def test_small_table_budget_gives_identical_output(monkeypatch):
    llrs, u, code, scl_llrs = _golden_inputs()
    values, exps = forced_path_tables(llrs, u)
    paths, metrics = scl_decode_batch(code, scl_llrs, 8)
    # room for one row of list tables (8 paths at n = 32), which is three
    # rows of forced tables (one path at n = 64)
    monkeypatch.setattr(decoder, "TABLE_BUDGET_BYTES", 8 * 31 * 64)
    v2, e2 = forced_path_tables(llrs, u)
    p2, m2 = scl_decode_batch(code, scl_llrs, 8)
    assert np.array_equal(values, v2) and np.array_equal(exps, e2)
    assert np.array_equal(paths, p2) and np.array_equal(metrics, m2)


@pytest.mark.parametrize("block", [1, 96])
def test_node_blocks_give_identical_output(monkeypatch, block):
    # every depth of the golden inputs fits in one default block; 1 builds one
    # node per block, 96 leaves a partial last block at several depths
    monkeypatch.setattr(decoder, "_BLOCK", block)
    assert _golden_digests() == GOLDEN


def _deep_golden_inputs():
    rng = np.random.default_rng(20261020)
    specials = np.array([np.inf, -np.inf, 0.0, 745.0, -745.0])
    llrs = rng.normal(1.0, 2.0, (4, 1024))
    llrs[0, :5] = specials
    llrs[1] = rng.choice(specials, 1024)
    u = rng.integers(0, 2, (4, 1024), dtype=np.uint8)
    scl = []
    for n, k, list_size in ((512, 256, 8), (128, 64, 32)):
        rows = rng.normal(0.8, 1.5, (6, n))
        rows[0, :5] = specials
        rows[1, ::3] = rng.choice(specials, rows[1, ::3].size)
        scl.append((_random_code(rng, n, k), rows, list_size))
    return llrs, u, scl


# Pins the deep tree depths (6 and up), which GOLDEN's n = 64 and n = 32
# inputs never reach; recorded before the tables became node-major.
DEEP_GOLDEN = (
    "c03f2996bf6be0ccc37019393125f448e062a0b1501c0c05593547fc4b29e6c4",
    "f6877bd9f73ad9ee8138279adc1bc4091b4c2cc08b45982f4bb66323986b23c2",
    "5946d86e1d29903b07aa7bf64c9e4ed5404299498c8a671abf4f79e3183091cd",
)


def test_deep_golden_outputs():
    llrs, u, scl = _deep_golden_inputs()
    got = [_sha(*forced_path_tables(llrs, u))]
    got += [_sha(*scl_decode_batch(code, rows, lsz)) for code, rows, lsz in scl]
    assert tuple(got) == DEEP_GOLDEN


SPECS = Path(__file__).resolve().parents[1] / "perfbench" / "specs"


@pytest.fixture
def engines(monkeypatch):
    """Every _TreeDecoder made while the test runs, in order."""
    made = []

    class Recorded(decoder._TreeDecoder):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(decoder, "_TreeDecoder", Recorded)
    return made


@pytest.mark.parametrize("name, builds", [
    ("n128_k64_f8.code", 147),
    ("n512_k256_f16.code", 597),
])
def test_list_decoder_skips_unread_builds(engines, name, builds):
    code = parse_codespec((SPECS / name).read_text())
    llrs = np.random.default_rng(0).normal(1.0, 1.0, (2, code.n))
    scl_decode_batch(code, llrs, 8)
    assert sum(engines[0]._builds) == builds
    forced_path_tables(llrs, np.zeros(llrs.shape, dtype=np.uint8))
    assert engines[1]._builds == [code.n >> d for d in range(code.n.bit_length() - 1)]


def _k8_code():
    return _random_code(np.random.default_rng(31), 16, 8)


def test_huge_list_allocates_at_most_two_to_the_k_paths(engines):
    code = _k8_code()
    llrs = np.random.default_rng(32).normal(0.5, 1.5, (5, 16))
    paths, metrics = scl_decode_batch(code, llrs, 10**8)
    assert engines[0].tbl[0].shape[2] == 256
    want_paths, want_metrics = scl_decode_batch(code, llrs, 256)
    assert np.array_equal(paths, want_paths)
    assert np.array_equal(metrics, want_metrics)


def test_list_over_table_budget_rejected(monkeypatch):
    code = _k8_code()
    # one row of 256 paths at n = 16 needs 256 * 15 * 64 bytes
    monkeypatch.setattr(decoder, "TABLE_BUDGET_BYTES", 256 * 15 * 64 - 1)
    with pytest.raises(ValueError, match="budget"):
        scl_decode_batch(code, np.zeros((1, 16)), 10**8)
    scl_decode_batch(code, np.zeros((1, 16)), 128)
