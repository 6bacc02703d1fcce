"""Command line front end.

Exit codes: 0 on success, 1 on usage errors, 2 on runtime failures.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys

import numpy as np

from .channel import ChannelModel, run_fer
from .codespec import parse_codespec, serialize_codespec
from .construction import build_cvpc, build_cvps, genie_reliability
from .cvpt import encode
from .decoder import scl_decode
from .distance import compute_weights
from .erasure import (
    coset_min_weight,
    cross_check_coset_weights,
    cross_check_delta_tables,
    cross_check_tau,
    exhaustive_min_distance,
    min_erasures,
    pattern_preimage,
    recoverable_patterns,
)
from .subspaces import Subspace, build_tau_tables, enumerate_subspaces


def _parse_subspace(j: int, text: str) -> Subspace:
    text = text.strip()
    if text in ("", "-"):
        return Subspace.from_vectors(j, ())
    gens = []
    for tok in text.split(","):
        tok = tok.strip()
        if len(tok) != j or any(ch not in "01" for ch in tok):
            raise ValueError(f"generator {tok!r} is not a {j}-bit string")
        gens.append(tuple(int(ch) for ch in tok))
    return Subspace.from_vectors(j, tuple(gens))


def _format_subspace(s: Subspace) -> str:
    # greedy basis: take keys in ascending order, keep the independent ones
    basis: list[int] = []
    span = {0}
    for key in s.keys():
        if key not in span:
            basis.append(key)
            span |= {v ^ key for v in span}
    gens = [
        "".join(str((g >> t) & 1) for t in range(s.j)) for g in sorted(basis)
    ]
    return ",".join(gens) if gens else "-"


def _read_bits(stream, count: int) -> np.ndarray:
    toks = stream.read().split()
    if len(toks) != count:
        raise ValueError(f"expected {count} bits on stdin, got {len(toks)}")
    if any(t not in ("0", "1") for t in toks):
        raise ValueError("input bits must be 0 or 1")
    return np.array([int(t) for t in toks], dtype=np.uint8)


def _read_llrs(stream, count: int) -> np.ndarray:
    toks = stream.read().split()
    if len(toks) != count:
        raise ValueError(f"expected {count} LLR values on stdin, got {len(toks)}")
    return np.array([float(t) for t in toks])


def _load_spec(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_codespec(fh.read())


def _channel_from_args(args, rate: float | None) -> ChannelModel:
    if args.channel == "bec":
        if args.pe is None:
            raise ValueError("bec channel needs --pe")
        return ChannelModel("bec", args.pe)
    if args.ebn0 is None:
        raise ValueError("awgn channel needs --ebn0")
    return ChannelModel("awgn", args.ebn0, rate)


def _cmd_construct(args) -> int:
    n, k, f = args.n, args.k, args.f
    channel = _channel_from_args(args, k / n)
    print(f"seed {args.seed}", file=sys.stderr)
    profile = genie_reliability(n, channel, args.trials, args.seed)
    if f > 0:
        weights = compute_weights(n.bit_length() - 1)
        result = build_cvps(n, k, f, profile, weights, args.seed,
                            d_tie_break=args.d_tie_break)
    else:
        result = build_cvpc(n, k, profile)
    for i in result.degenerate_dynamic:
        print(f"warning: dynamic row {i} drew an empty constraint; "
              "frozen statically", file=sys.stderr)
    text = serialize_codespec(result.spec)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} (n={n} k={k} f={f})")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_encode(args) -> int:
    spec = _load_spec(args.spec)
    bits = _read_bits(sys.stdin, spec.k)
    cw = encode(spec.assemble(bits))
    print(" ".join(str(int(b)) for b in cw))
    return 0


def _cmd_decode(args) -> int:
    if args.top < 1:
        raise ValueError(f"--top must be >= 1, got {args.top}")
    spec = _load_spec(args.spec)
    llr = _read_llrs(sys.stdin, spec.n)
    paths, metrics = scl_decode(spec, llr, args.list)
    info = list(spec.info_set)
    for u, metric in zip(paths[: args.top], metrics):
        bits = " ".join(str(b) for b in u[info])
        print(f"{bits} {metric:.12g}")
    return 0


def _cmd_simulate(args) -> int:
    spec = _load_spec(args.spec)
    channel = _channel_from_args(args, spec.k / spec.n)
    print(f"seed {args.seed}", file=sys.stderr)
    res = run_fer(
        spec,
        channel,
        list_size=args.list,
        max_trials=args.trials,
        target_errors=args.target_errors,
        seed=args.seed,
        threads=args.threads,
    )
    if args.csv:
        write_header = not (os.path.exists(args.csv) and os.path.getsize(args.csv))
        with open(args.csv, "a", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            if write_header:
                w.writerow(
                    ["channel", "param", "list", "trials", "errors", "fer", "seed"]
                )
            w.writerow(
                [channel.kind, channel.param, args.list, res.trials,
                 res.frame_errors, f"{res.fer:.6g}", args.seed]
            )
    print(
        f"channel={channel.kind} param={channel.param} list={args.list} "
        f"trials={res.trials} errors={res.frame_errors} fer={res.fer:.6g}"
    )
    return 0


def _cmd_mindist(args) -> int:
    weights = compute_weights(args.m)
    if args.csv:
        for i, d in enumerate(weights.d):
            print(f"{i},{int(d)}")
    else:
        width = len(str(weights.d.size - 1))
        for i, d in enumerate(weights.d):
            print(f"{i:>{width}}  {int(d)}")
    return 0


def _cmd_oracle(args) -> int:
    sub = args.oracle_cmd
    if sub == "chi":
        erased = frozenset(int(t) for t in args.erased.split(",") if t.strip() != "")
        s = recoverable_patterns(args.n, args.phi, args.j, erased)
        print(f"{_format_subspace(s)} mask={s.mask} dim={s.dim()}")
    elif sub == "xi":
        s = _parse_subspace(args.j, args.gens)
        sets = pattern_preimage(args.n, args.phi, args.j, s)
        if not sets:
            print("-")
        for e in sets:
            print(",".join(str(i) for i in sorted(e)))
    elif sub == "delta":
        s = _parse_subspace(args.j, args.gens)
        d = min_erasures(args.n, args.phi, args.j, s)
        print("inf" if math.isinf(d) else int(d))
    elif sub == "coset":
        p = tuple(int(ch) for ch in args.pattern)
        d = coset_min_weight(args.n, args.phi, p)
        print("inf" if math.isinf(d) else int(d))
    elif sub == "mindist-exhaustive":
        spec = _load_spec(args.spec)
        print(exhaustive_min_distance(spec))
    elif sub == "verify-theorem1":
        rep = cross_check_coset_weights(args.n)
        print(f"checked={rep.checked} vacuous={rep.skipped} "
              f"mismatches={len(rep.mismatches)}")
        return 0 if rep.ok else 2
    elif sub == "verify-theorem2":
        rep = cross_check_delta_tables(args.m)
        print(f"checked={rep.checked} mismatches={len(rep.mismatches)}")
        return 0 if rep.ok else 2
    else:  # verify-tau
        rep = cross_check_tau()
        if not rep.ok:
            n, phi, erased = rep.mismatches[0]
            print(f"mismatch at n={n} phi={phi} erased={erased}", file=sys.stderr)
            return 2
        tables = build_tau_tables()
        lattice = enumerate_subspaces(3)
        w = csv.writer(sys.stdout)
        w.writerow(["i", "j", "parity", "mask"])
        for parity, tab in (("even", tables.even), ("odd", tables.odd)):
            for i in range(16):
                for jdx in range(16):
                    w.writerow([i, jdx, parity, lattice[tab[i, jdx]].mask])
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="convpolar",
        description="Convolutional polar codes: construction, coding, analysis.",
    )
    sp = ap.add_subparsers(dest="cmd", required=True)

    p = sp.add_parser("construct", help="build a code from channel reliabilities")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--f", type=int, default=0,
                   help="number of dynamic frozen positions")
    p.add_argument("--channel", choices=("bec", "awgn"), required=True)
    p.add_argument("--pe", type=float, help="erasure probability (bec)")
    p.add_argument("--ebn0", type=float, help="Eb/N0 in dB (awgn)")
    p.add_argument("--trials", type=int, default=20000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--d-tie-break", choices=("high-index", "low-index"),
                   default="high-index")
    p.add_argument("--out", help="write the code file here instead of stdout")
    p.set_defaults(fn=_cmd_construct)

    p = sp.add_parser("encode", help="encode info bits from stdin")
    p.add_argument("--spec", required=True)
    p.set_defaults(fn=_cmd_encode)

    p = sp.add_parser("decode", help="decode stdin LLRs")
    p.add_argument("--spec", required=True)
    p.add_argument("--list", type=int, default=1)
    p.add_argument("--top", type=int, default=1,
                   help="how many candidates to print")
    p.set_defaults(fn=_cmd_decode)

    p = sp.add_parser("simulate", help="Monte-Carlo frame error rate")
    p.add_argument("--spec", required=True)
    p.add_argument("--channel", choices=("bec", "awgn"), required=True)
    p.add_argument("--pe", type=float)
    p.add_argument("--ebn0", type=float)
    p.add_argument("--list", type=int, default=1)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--target-errors", type=int, default=0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--csv", help="append a result row to this file")
    p.set_defaults(fn=_cmd_simulate)

    p = sp.add_parser("mindist", help="subchannel weight table")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(fn=_cmd_mindist)

    p = sp.add_parser("oracle", help="exact small-size reference computations")
    osp = p.add_subparsers(dest="oracle_cmd", required=True)

    o = osp.add_parser("chi", help="recoverable window patterns of an erasure set")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--phi", type=int, required=True)
    o.add_argument("--j", type=int, required=True)
    o.add_argument("--erased", default="", help="comma-separated indices")

    o = osp.add_parser("xi", help="erasure sets with a given pattern space")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--phi", type=int, required=True)
    o.add_argument("--j", type=int, required=True)
    o.add_argument("--gens", default="-",
                   help="comma-separated generator bitstrings, '-' for trivial")

    o = osp.add_parser("delta", help="fewest erasures leaving a pattern space")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--phi", type=int, required=True)
    o.add_argument("--j", type=int, required=True)
    o.add_argument("--gens", default="-")

    o = osp.add_parser("coset", help="minimum codeword weight of a window coset")
    o.add_argument("--n", type=int, required=True)
    o.add_argument("--phi", type=int, required=True)
    o.add_argument("--pattern", required=True, help="bit string, e.g. 101")

    o = osp.add_parser("mindist-exhaustive", help="true minimum distance of a code")
    o.add_argument("--spec", required=True)

    o = osp.add_parser("verify-theorem1",
                       help="coset weights against erasure bounds, all phases")
    o.add_argument("--n", type=int, required=True)

    o = osp.add_parser("verify-theorem2",
                       help="weight recursion against the exhaustive oracle")
    o.add_argument("--m", type=int, required=True)

    osp.add_parser("verify-tau",
                   help="check and dump the subspace composition tables")

    p.set_defaults(fn=_cmd_oracle)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
