import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convpolar.codespec import CodeSpec, parse_codespec, serialize_codespec


def test_basic_fields():
    spec = CodeSpec(n=8, k=5, seed=7, frozen=((0, ()), (1, ()), (3, (2,))))
    assert spec.info_set == (2, 4, 5, 6, 7)
    assert spec.frozen_set == frozenset({0, 1, 3})
    assert spec.rate == 5 / 8
    assert spec.constraint(3) == (2,)
    with pytest.raises(KeyError):
        spec.constraint(2)


def test_assemble_static_and_dynamic():
    spec = CodeSpec(n=4, k=2, seed=0, frozen=((0, ()), (2, (1,))))
    u = spec.assemble(np.array([1, 1], dtype=np.uint8))
    # info positions 1, 3; frozen 0 -> 0, frozen 2 -> u1
    assert u.tolist() == [0, 1, 1, 1]
    u = spec.assemble(np.array([[1, 0], [0, 1]], dtype=np.uint8))
    assert u.tolist() == [[0, 1, 1, 0], [0, 0, 0, 1]]


def test_assemble_chained_constraints():
    # a dynamic row may reference an earlier dynamic row's value
    spec = CodeSpec(n=8, k=5, seed=0, frozen=((2, (0, 1)), (4, (2, 3)), (6, ())))
    msg = np.array([1, 1, 0, 1, 0], dtype=np.uint8)
    u = spec.assemble(msg)
    assert u[2] == u[0] ^ u[1]
    assert u[4] == u[2] ^ u[3]
    assert u[6] == 0


def test_validation():
    with pytest.raises(ValueError):
        CodeSpec(n=6, k=3, seed=0, frozen=((0, ()), (1, ()), (2, ())))
    with pytest.raises(ValueError):
        CodeSpec(n=4, k=2, seed=0, frozen=((0, ()),))  # wrong count
    with pytest.raises(ValueError):
        CodeSpec(n=4, k=2, seed=0, frozen=((1, ()), (0, ())))  # out of order
    with pytest.raises(ValueError):
        CodeSpec(n=4, k=2, seed=0, frozen=((0, ()), (2, (3,))))  # j >= i
    with pytest.raises(ValueError):
        CodeSpec(n=4, k=0, seed=0, frozen=tuple((i, ()) for i in range(4)))


def test_serialize_roundtrip():
    spec = CodeSpec(
        n=16,
        k=12,
        seed=99,
        frozen=((0, ()), (1, ()), (4, (2, 3)), (8, (2, 5, 7))),
    )
    text = serialize_codespec(spec)
    back = parse_codespec(text)
    assert back == spec
    assert back.seed == 99
    # serialization is stable
    assert serialize_codespec(back) == text


def test_parse_format():
    text = "CVPS 4 2\nSEED 3\n# comment line\n0\n2 : 1\n"
    spec = parse_codespec(text)
    assert spec.n == 4 and spec.k == 2 and spec.seed == 3
    assert spec.frozen == ((0, ()), (2, (1,)))


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 1"):
        parse_codespec("BOGUS 4 2\nSEED 0\n0\n1\n")
    with pytest.raises(ValueError, match="line 4"):
        parse_codespec("CVPS 4 2\nSEED 0\n0\n2 : 3\n")
    with pytest.raises(ValueError):
        parse_codespec("CVPS 4 2\nSEED 0\n0\n")  # missing a frozen row


@st.composite
def code_specs(draw):
    n = 1 << draw(st.integers(1, 6))
    frozen = []
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n - 1)):
        parts = draw(st.sets(st.integers(0, i - 1))) if i else set()
        frozen.append((i, tuple(sorted(parts))))
    seed = draw(st.integers(0, (1 << 64) - 1))
    return CodeSpec(n=n, k=n - len(frozen), seed=seed, frozen=tuple(sorted(frozen)))


@settings(max_examples=60, deadline=None)
@given(code_specs())
def test_parse_inverts_serialize(spec):
    text = serialize_codespec(spec)
    assert parse_codespec(text) == spec
    assert serialize_codespec(parse_codespec(text)) == text


@settings(max_examples=60, deadline=None)
@given(code_specs(), st.integers(0, 2**32 - 1))
def test_assemble_satisfies_every_constraint(spec, seed):
    msg = np.random.default_rng(seed).integers(0, 2, (5, spec.k), dtype=np.uint8)
    u = spec.assemble(msg)
    assert np.array_equal(u[:, list(spec.info_set)], msg)
    for i, parts in spec.frozen:
        assert np.array_equal(u[:, i], u[:, list(parts)].sum(axis=1) % 2), i
