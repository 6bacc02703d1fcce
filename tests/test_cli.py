import csv
import io

import numpy as np
import pytest

from convpolar.cli import main
from convpolar.codespec import parse_codespec


def run(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


RATE1_N4 = "CVPS 4 4\nSEED 0\n"


@pytest.fixture
def rate1_spec(tmp_path):
    path = tmp_path / "rate1.code"
    path.write_text(RATE1_N4)
    return str(path)


def test_no_arguments_is_usage_error(capsys):
    code, _, _ = run(capsys, [])
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, ["--help"])
    assert code == 0
    assert "construct" in out


def test_unknown_flag_is_usage_error(capsys):
    code, _, _ = run(capsys, ["mindist", "--bogus"])
    assert code == 1


def test_encode_known_vector(capsys, monkeypatch, rate1_spec):
    code, out, _ = run(
        capsys, ["encode", "--spec", rate1_spec], stdin="0 0 1 1",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out.strip() == "1 0 0 1"


def test_encode_wrong_bit_count(capsys, monkeypatch, rate1_spec):
    code, _, err = run(
        capsys, ["encode", "--spec", rate1_spec], stdin="0 1",
        monkeypatch=monkeypatch,
    )
    assert code == 2
    assert "error" in err


def test_decode_roundtrip(capsys, monkeypatch, rate1_spec):
    code, out, _ = run(
        capsys,
        ["decode", "--spec", rate1_spec, "--list", "2"],
        stdin="10 10 -10 -10",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    fields = out.split()
    assert fields[:4] == ["0", "1", "1", "1"]
    assert float(fields[4]) < 0


def test_decode_accepts_infinities(capsys, monkeypatch, rate1_spec):
    code, out, _ = run(
        capsys,
        ["decode", "--spec", rate1_spec],
        stdin="inf inf -inf -inf",
        monkeypatch=monkeypatch,
    )
    assert code == 0
    assert out.split()[:4] == ["0", "1", "1", "1"]


@pytest.mark.parametrize("top", ["0", "-1"])
def test_decode_rejects_top_below_one(capsys, monkeypatch, rate1_spec, top):
    code, out, err = run(
        capsys,
        ["decode", "--spec", rate1_spec, "--list", "2", "--top", top],
        stdin="10 10 -10 -10",
        monkeypatch=monkeypatch,
    )
    assert code == 2 and out == ""
    assert "error: --top" in err


def test_mindist_table(capsys):
    code, out, _ = run(capsys, ["mindist", "--m", "2", "--csv"])
    assert code == 0
    assert out.splitlines() == ["0,1", "1,2", "2,2", "3,4"]


def test_oracle_chi(capsys):
    code, out, _ = run(
        capsys,
        ["oracle", "chi", "--n", "4", "--phi", "2", "--j", "2", "--erased", "1,2"],
    )
    assert code == 0
    assert out.split()[0] == "01"


def test_oracle_xi(capsys):
    code, out, _ = run(
        capsys, ["oracle", "xi", "--n", "4", "--phi", "2", "--j", "2",
                 "--gens", "01"],
    )
    assert code == 0
    assert set(out.split()) == {"1,2", "0,1,2", "1,2,3"}


def test_oracle_delta_and_coset(capsys):
    code, out, _ = run(
        capsys, ["oracle", "delta", "--n", "2", "--phi", "0", "--j", "3",
                 "--gens", "110,001"],
    )
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(
        capsys, ["oracle", "coset", "--n", "4", "--phi", "3", "--pattern", "1"]
    )
    assert code == 0 and out.strip() == "4"
    code, out, _ = run(
        capsys, ["oracle", "delta", "--n", "2", "--phi", "0", "--j", "2",
                 "--gens", "10"],
    )
    assert code == 0 and out.strip() == "inf"


def test_oracle_leading_boundary_phase(capsys):
    # at phase -2 both leading window symbols precede the block, so with
    # nothing erased the recoverable patterns are exactly <001>
    args = ["--n", "4", "--phi", "-2", "--j", "3", "--gens", "001"]
    code, out, _ = run(capsys, ["oracle", "delta", *args])
    assert code == 0 and out == "0\n"
    code, out, _ = run(capsys, ["oracle", "xi", *args])
    assert code == 0 and out == "\n"  # only the empty erasure set


def test_oracle_runtime_error_exit(capsys):
    code, _, err = run(
        capsys, ["oracle", "coset", "--n", "4", "--phi", "9", "--pattern", "1"]
    )
    assert code == 2
    assert "error" in err
    # rows wider than one 64-bit word
    code, out, err = run(
        capsys, ["oracle", "coset", "--n", "128", "--phi", "120", "--pattern", "1"]
    )
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_oracle_verifiers(capsys):
    code, out, _ = run(capsys, ["oracle", "verify-theorem2", "--m", "2"])
    assert code == 0
    assert "mismatches=0" in out
    code, out, _ = run(capsys, ["oracle", "verify-theorem1", "--n", "4"])
    assert code == 0
    assert "mismatches=0" in out


def test_oracle_verify_tau_dumps_tables(capsys):
    code, out, _ = run(capsys, ["oracle", "verify-tau"])
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 512
    table = {(r["parity"], int(r["i"]), int(r["j"])): int(r["mask"]) for r in rows}
    assert table[("even", 9, 5)] == 153
    assert table[("odd", 9, 9)] == 85


def test_construct_writes_parseable_file_and_prints_seed(capsys, tmp_path):
    out_path = tmp_path / "c.code"
    code, out, err = run(
        capsys,
        ["construct", "--n", "16", "--k", "8", "--channel", "bec", "--pe",
         "0.4", "--trials", "2000", "--seed", "5", "--out", str(out_path)],
    )
    assert code == 0
    assert "seed 5" in err
    spec = parse_codespec(out_path.read_text())
    assert spec.n == 16 and spec.k == 8 and spec.seed == 5


@pytest.mark.parametrize("n", ["0", "-4"])
def test_oracle_verify_theorem1_rejects_bad_block_length(capsys, n):
    code, out, err = run(capsys, ["oracle", "verify-theorem1", "--n", n])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_construct_rejects_negative_dynamic_count(capsys):
    code, out, err = run(
        capsys, ["construct", "--n", "8", "--k", "4", "--f", "-1", "--channel",
                 "bec", "--pe", "0.3", "--trials", "50"],
    )
    assert code == 2 and out == ""
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err


def test_construct_deterministic(capsys, tmp_path):
    args = ["construct", "--n", "16", "--k", "8", "--f", "2", "--channel",
            "bec", "--pe", "0.4", "--trials", "1500", "--seed", "9"]
    code, out1, _ = run(capsys, args)
    assert code == 0
    code, out2, _ = run(capsys, args)
    assert code == 0
    assert out1 == out2


def test_construct_requires_channel_parameter(capsys):
    code, _, err = run(
        capsys, ["construct", "--n", "8", "--k", "4", "--channel", "bec",
                 "--trials", "100", "--seed", "0"],
    )
    assert code == 2
    assert "--pe" in err


def test_simulate_csv_appends_once_header(capsys, tmp_path):
    spec_path = tmp_path / "s.code"
    spec_path.write_text(
        "CVPS 8 4\nSEED 0\n0\n1\n2\n4\n"
    )
    csv_path = tmp_path / "fer.csv"
    args = ["simulate", "--spec", str(spec_path), "--channel", "bec", "--pe",
            "0.3", "--list", "2", "--trials", "300", "--seed", "1",
            "--csv", str(csv_path)]
    code, out, err = run(capsys, args)
    assert code == 0
    assert "seed 1" in err
    assert "fer=" in out
    code, _, _ = run(capsys, args)
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "channel,param,list,trials,errors,fer,seed"
    assert len(lines) == 3
    assert lines[1] == lines[2]


def test_simulate_matches_api_counts(capsys, tmp_path):
    from convpolar.channel import ChannelModel, run_fer

    spec_path = tmp_path / "s.code"
    spec_path.write_text("CVPS 8 4\nSEED 0\n0\n1\n2\n4\n")
    code, out, _ = run(
        capsys,
        ["simulate", "--spec", str(spec_path), "--channel", "bec", "--pe",
         "0.3", "--list", "2", "--trials", "300", "--seed", "1"],
    )
    assert code == 0
    spec = parse_codespec(spec_path.read_text())
    res = run_fer(spec, ChannelModel("bec", 0.3), 2, 300, seed=1)
    assert f"errors={res.frame_errors}" in out


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_simulate_rejects_out_of_range_seed(capsys, tmp_path, seed):
    spec_path = tmp_path / "s.code"
    spec_path.write_text("CVPS 8 4\nSEED 0\n0\n1\n2\n4\n")
    code, _, err = run(
        capsys,
        ["simulate", "--spec", str(spec_path), "--channel", "bec", "--pe",
         "0.3", "--trials", "10", "--seed", seed],
    )
    assert code == 2
    assert "error: seed" in err


def test_simulate_rejects_negative_target_errors(capsys, tmp_path):
    spec_path = tmp_path / "s.code"
    spec_path.write_text("CVPS 8 4\nSEED 0\n0\n1\n2\n4\n")
    code, out, err = run(
        capsys,
        ["simulate", "--spec", str(spec_path), "--channel", "bec", "--pe",
         "0.3", "--trials", "10", "--target-errors", "-1"],
    )
    assert code == 2 and "trials=" not in out
    assert "error: target_errors" in err
