"""Record the reference output of every benchmark input.

    python3 perfbench/make_refs.py [workload ...]

Writes ``perfbench/refs/<workload>.json``.  Run it only on the commit whose
outputs are the reference: a later change that alters any output is caught
by the benchmark exactly because these files stay as they are.
"""

from __future__ import annotations

import json
import sys

from run import HERE, import_library

# per workload: (dev inputs, held-out inputs); an input is a run_fer or
# construction seed, or the m of compute_weights
INPUTS = {
    "fer-n128-L32": (range(101, 105), range(901, 905)),
    "fer-n512-L8-t2": (range(101, 103), range(901, 903)),
    "construct-n1024": (range(101, 105), range(901, 905)),
    # compute_weights(18) has no other input, so nothing can be held out
    "weights-m18": ([18], [18]),
}


def main(names) -> None:
    import_library()
    from tracing import NullTracer
    from workloads import WORKLOADS

    for name in names or INPUTS:
        wl = WORKLOADS[name]
        wl.setup(NullTracer)
        refs = {}
        for pool, inputs in zip(("dev", "holdout"), INPUTS[name]):
            refs[pool] = []
            for inp in inputs:
                out = wl.unit(NullTracer, inp)
                wl.check(NullTracer, out)
                refs[pool].append({"input": inp, "expect": wl.digest(out)})
                print(name, pool, refs[pool][-1], flush=True)
        path = HERE / "refs" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(refs, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main(sys.argv[1:])
