"""One pass of one workload, in a fresh interpreter.

Run by run.py, never by hand; prints one JSON object. The pass imports
kvertex from the checkout's ``src`` (timed as set-up), builds its inputs
from the seed, times ``compute``, reads the peak resident memory, then
checks every output. With ``--trace 1`` the layer wrappers are installed
around ``compute`` and the spans are written to ``--spans-out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_kvertex():
    """Import kvertex and its numpy engine from the checkout; seconds."""
    if not (SRC / "kvertex" / "__init__.py").is_file():
        sys.exit("perfbench: no kvertex sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import kvertex
    import kvertex.fastsum  # noqa: F401  (pulls in numpy)
    seconds = time.perf_counter() - t0
    if Path(kvertex.__file__).resolve().parent != (SRC / "kvertex").resolve():
        sys.exit("perfbench: imported kvertex from %s, not the checkout" % kvertex.__file__)
    return seconds


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pass-id", default="")
    p.add_argument("--spans-out", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    setup_s = import_kvertex()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy

    import tracing
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed, args.size)
    tracer = tracing.Tracer(args.pass_id) if args.trace else None
    if tracer:
        tracer.install()
    try:
        t0 = time.perf_counter()
        outputs = wl.compute(inputs)
        wall_s = time.perf_counter() - t0
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer:
        layers = tracer.metrics()
        if args.spans_out:
            tracer.dump(args.spans_out)
    ops = wl.verify(inputs, outputs)
    print(json.dumps({
        "pass_id": args.pass_id,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": [list(op) for op in ops],
        "inputs": {"framings": inputs["framings"]} if "framings" in inputs else {},
        "layers": layers,
        "layer_units": tracing.LAYER_UNITS,
        "numpy": numpy.__version__,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
