"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload fer-n128-L32 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout and nowhere else.  The run sets up the workload, then makes
whole passes over the workload's inputs (``refs/<workload>.json``), each pass
in an order drawn from ``--seed``, until ``--seconds`` have passed.  Every
output is checked against its stored reference; a call that raises or does
not match counts as failed, and any failure makes the exit code 1.

``--trace 0`` times the calls untouched and reports the end-to-end metrics
of ``BENCHMARK.json``; set-up is timed in fresh processes.  ``--trace 1``
runs every input twice, untraced and with span-recording wrappers installed
(see ``tracing.py``), and reports the per-layer metrics.  The last
line of standard output is the result; the line before it, and a file under
``perfbench/out/``, hold the details: machine, working sets, sample counts,
failures and, for traced runs, every span.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

import numpy as np

from tracing import NullTracer, Tracer, covered

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Fixed, so that runs of different speed report the same percentile.  A 20 s
# run makes 6 to 12 calls, so fewer than ten samples lie beyond it.
TAIL_PERCENTILE = 75
SETUP_PROBES = 5


def import_library() -> None:
    """Import convpolar from this checkout's src/, failing if it is not there."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import convpolar

    if Path(convpolar.__file__).resolve().parent != src / "convpolar":
        raise ImportError(f"convpolar imported from {convpolar.__file__}, not {src}")


def percentile(values, q) -> float:
    return float(np.percentile(values, q))


def timing(values) -> dict:
    tail = percentile(values, TAIL_PERCENTILE)
    return {
        "unit": "s",
        "samples": len(values),
        "p50": percentile(values, 50),
        "tail_percentile": TAIL_PERCENTILE,
        "tail": tail,
        "samples_beyond_tail": sum(v > tail for v in values),
    }


def _cache_bytes(text: str) -> int:
    scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1])
    return int(text[:-1]) * scale if scale else int(text)


def machine() -> dict:
    import scipy

    info = {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "caches": {},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = (index / "level").read_text().strip()
            info["caches"][f"L{level}"] = _cache_bytes((index / "size").read_text().strip())
    except (OSError, ValueError):
        pass
    return info


def passes(entries, rng, seconds):
    """Whole passes over the entries, each in a fresh order, for ``seconds``."""
    start = time.perf_counter()
    while True:
        for i in rng.permutation(len(entries)):
            yield entries[i]
        if time.perf_counter() - start >= seconds:
            return


class Runner:
    """Times and checks calls of one workload, keeping what failed."""

    def __init__(self, wl) -> None:
        self.wl = wl
        self.attempted = 0
        self.failures: list[str] = []  # one entry per failed call
        self.run_errors: list[str] = []  # checks on the run as a whole

    def fail(self, inp, why: str) -> None:
        self.failures.append(f"input {inp}: {why}")

    def call(self, entry, tr, root=None):
        """One checked call: (wall seconds, output, digest), or None if it failed.

        With ``root`` set, the call runs inside one span of that name.
        """
        self.attempted += 1
        inp = entry["input"]
        start = time.perf_counter()
        try:
            if root:
                out = tr.call(root, self.wl.unit, tr, inp)
            else:
                out = self.wl.unit(tr, inp)
            wall = time.perf_counter() - start
            digest = self.wl.digest(out)
            self.wl.check(tr, out)
        except Exception:  # a failed operation is counted, and the run goes on
            self.fail(inp, traceback.format_exc())
            return None
        if digest != entry["expect"]:
            self.fail(inp, f"got {digest}, expected {entry['expect']}")
            return None
        return wall, out, digest


def setup_seconds(workload: str) -> list[float]:
    """Wall times of fresh processes that import, set up and warm up, then exit."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--setup-probe"]
    walls = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return walls


def measure_untraced(runner, entries, rng, seconds):
    wl = runner.wl
    done = [r for e in passes(entries, rng, seconds) if (r := runner.call(e, NullTracer))]
    walls = [wall for wall, _, _ in done]
    setup = setup_seconds(wl.name)
    metrics = {
        "frames_per_s": sum(wl.frames(out) for _, out, _ in done) / sum(walls) if done else 0.0,
        "call_s.p50": percentile(walls, 50) if done else 0.0,
        "call_s.tail": percentile(walls, TAIL_PERCENTILE) if done else 0.0,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"call_s": timing(walls) if done else None, "call_walls": walls,
              "setup_s_samples": setup}
    return metrics, detail


def measure_traced(runner, tracer, entries, rng, seconds):
    """Each input untraced and traced in turn, the order flipping every call.

    Both twins are checked against the same reference, so a traced run only
    passes if tracing leaves every output unchanged; the untraced twin also
    gives the tracing overhead.
    """
    pairs = []
    for i, e in enumerate(passes(entries, rng, seconds)):
        got = {}
        for traced in ((False, True) if i % 2 else (True, False)):
            if traced:
                with tracer.patched():
                    got[traced] = runner.call(e, tracer, root="unit")
            else:
                got[traced] = runner.call(e, NullTracer)
        if got[False] and got[True]:
            pairs.append((got[False][0], *got[True][:2]))
    missing = [name for name in runner.wl.expected_spans
               if not any(s.name == name for s in tracer.spans)]
    if missing:
        runner.run_errors.append(f"traced run recorded no span for {missing}")
    return layer_metrics(runner.wl, tracer.spans, pairs)


def layer_metrics(wl, spans, pairs):
    """Per-layer metrics from the spans; pairs are (untraced wall, traced wall, output)."""
    from workloads import combine_ops

    children = defaultdict(list)
    for s in spans:
        children[s.parent].append(s)

    def descendants(s):
        for c in children[s.id]:
            yield c
            yield from descendants(c)

    def self_seconds(s):
        return s.seconds - covered(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]
        )

    def work(s):  # computed count: frames * n * log2(n) * list size
        frames, n, lsize = s.size
        return frames * n * (n.bit_length() - 1) * lsize

    units = [s for s in spans if s.name == "unit"]
    per_call = []
    for u in units:
        below = list(descendants(u))
        sums = defaultdict(float)
        for s in below:
            sums[s.name] += s.seconds
        decoder = [s for s in below if s.name.startswith("decoder.")]
        run_fer = [s for s in below if s.name == "channel.run_fer"]
        genie = [s for s in below if s.name == "construction.genie_reliability"]
        per_call.append({
            **sums,
            "decoder_s": sum(s.seconds for s in decoder),
            "node_phase_paths": sum(work(s) for s in decoder),
            "frames_decoded": sum(
                s.size[0] for s in decoder if s.name == "decoder.scl_decode_batch"
            ),
            "run_fer_self_s": sum(self_seconds(s) for s in run_fer),
            "genie_self_s": sum(self_seconds(s) for s in genie),
            "unit_self_s": self_seconds(u),
        })

    def med(key):
        return statistics.median(c.get(key, 0.0) for c in per_call) if per_call else 0.0

    def total(key):
        return sum(c.get(key, 0.0) for c in per_call)

    def ratio(num, den):
        return num / den if den else 0.0

    batches = [s.seconds for s in spans if s.name == "decoder.scl_decode_batch"]
    tables = [s.size[0] * s.size[2] * (s.size[1] - 1) * 64
              for s in spans if s.name.startswith("decoder.")]
    parse = [s.seconds for s in spans if s.name == "codespec.parse_codespec"]
    ops = combine_ops(wl.weights_m) if wl.weights_m else 0
    counted = sum(wl.frames(out) for _, _, out in pairs)
    metrics = {
        "decoder.scl_decode_batch_s": med("decoder.scl_decode_batch"),
        "decoder.batch_s.p50": percentile(batches, 50) if batches else 0.0,
        "decoder.batch_s.tail": percentile(batches, TAIL_PERCENTILE) if batches else 0.0,
        "decoder.forced_path_tables_s": med("decoder.forced_path_tables"),
        "decoder.node_phase_paths": med("node_phase_paths"),
        "decoder.ns_per_node_phase_path": 1e9 * ratio(total("decoder_s"),
                                                      total("node_phase_paths")),
        "decoder.table_bytes": max(tables, default=0),
        "channel.trial_rng_s": med("channel.trial_rng"),
        "channel.transmit_s": med("channel.transmit"),
        "cvpt.encode_s": med("cvpt.encode"),
        "codespec.assemble_s": med("codespec.assemble"),
        "channel.frames_decoded": med("frames_decoded"),
        "channel.useful_frac": ratio(counted, total("frames_decoded")),
        "channel.parallelism": ratio(total("decoder.scl_decode_batch"),
                                     total("channel.run_fer")),
        "channel.run_fer_self_s": med("run_fer_self_s"),
        "construction.genie_reliability_s": med("construction.genie_reliability"),
        "construction.genie_self_s": med("genie_self_s"),
        "construction.build_cvps_s": med("construction.build_cvps"),
        "codespec.parse_s": statistics.median(parse) if parse else 0.0,
        "distance.compute_weights_s": med("distance.compute_weights"),
        "distance.combine_ops": ops,
        "distance.ops_per_s": ratio(ops, med("distance.compute_weights")),
        "trace.overhead_s": statistics.median(
            traced - untraced for untraced, traced, _ in pairs
        ) if pairs else 0.0,
        "trace.unit_self_s": med("unit_self_s"),
        "trace.accounted_frac": ratio(sum(u.seconds for u in units),
                                      sum(traced for _, traced, _ in pairs)),
    }
    detail = {
        "paired_calls": len(pairs),
        "spans": len(spans),
        "decoder_batch_s": timing(batches) if batches else None,
        "computed": ["decoder.node_phase_paths", "decoder.table_bytes",
                     "distance.combine_ops"],
        "accounting": {
            "unit_wall_s": sum(u.seconds for u in units),
            "children_s": sum(u.seconds - self_seconds(u) for u in units),
            "self_s": sum(self_seconds(u) for u in units),
        },
    }
    return metrics, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pool", choices=("dev", "holdout"), default="dev",
                    help="which stored inputs to run (holdout: for rechecking claims)")
    ap.add_argument("--setup-probe", action="store_true",
                    help="only import, set up and warm up, then exit")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else NullTracer
    wl.setup(tracer)
    wl.warmup()
    if args.setup_probe:
        return 0

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    entries = wl.refs(args.pool)
    rng = np.random.default_rng(args.seed)
    runner = Runner(wl)
    start = time.perf_counter()
    if args.trace:
        metrics, detail = measure_traced(runner, tracer, entries, rng, args.seconds)
    else:
        metrics, detail = measure_untraced(runner, entries, rng, args.seconds)
    if set(metrics) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")

    info = machine()
    working_set = wl.working_set()
    detail |= {
        "workload": wl.name,
        "seed": args.seed,
        "pool": args.pool,
        "trace": args.trace,
        "measured_s": time.perf_counter() - start,
        "machine": info,
        "working_set_bytes": working_set,
        "working_set_vs_cache": {
            f"{key}/{level}": size / cache
            for key, size in working_set.items()
            for level, cache in info["caches"].items() if level in ("L2", "L3")
        },
        "failed_frac": len(runner.failures) / max(runner.attempted, 1),
        "failures": runner.failures,
        "run_errors": runner.run_errors,
    }
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{wl.name}-{args.pool}-seed{args.seed}-trace{args.trace}"
    with open(out_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics,
                   "spans": [vars(s) for s in getattr(tracer, "spans", [])]}, fh)
    correct = runner.attempted > 0 and not runner.failures and not runner.run_errors
    units = {m["name"]: m["unit"] for m in declared}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
