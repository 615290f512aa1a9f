"""kvertex benchmark: time to a checked exact answer, with a traced
per-layer split.

    python3 perfbench/run.py --workload dt0-q6 --seed 1 --seconds 28 --trace 0

Runs passes of the workload back to back for ``--seconds`` seconds, each
pass in a fresh interpreter (worker.py) so that its set-up and peak memory
are its own, and reports medians over the passes. Every output is checked
against an independent oracle or a reference digest (reference.json);
an exception or a wrong answer counts as one failed operation.

``--trace 0`` reports the end-to-end metrics: wall_s, setup_s and
peak_rss_mb. ``--trace 1`` alternates traced and untraced passes and
reports the per-layer metrics of tracing.py; the tracing overhead (traced
minus untraced wall_s) is printed above the result. The last line of stdout
is one JSON object with the keys correct, attempted, failed and metrics;
the full record of the run, with the environment and every failed op, is
written to perfbench/out/.

``--record`` rewrites reference.json from the current sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("dt0-q6", "quot2-q3", "legged-chars", "identities")
MIN_PASSES = 3  # --trace 1 alternates traced and untraced: 2 traced, 1 untraced
MIN_SETUPS = 9  # --trace 0: set-up-only interpreters run between the passes
RUN_LIMIT_S = 150  # no pass starts later than this
HARD_LIMIT_S = 170  # a pass still running then is killed
JOBS = 1
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class PassError(Exception):
    pass


def run_worker(*args, timeout=HARD_LIMIT_S):
    """Run one worker process to completion; its JSON record."""
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise PassError("worker %s exited %d: %s" % (args, proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "kvertex").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit_hash():
    """HEAD of the checkout, or None where it is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(seed, numpy_version):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "jobs": JOBS,
        "commit": commit_hash(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


def judge(ops, reference):
    """Failed ops of one pass: raised, oracle mismatch, or digest mismatch."""
    failed = []
    for op_id, ok, note, dig in ops:
        if ok and dig is not None and reference.get(op_id) != dig:
            ok, note = False, ("no reference digest" if op_id not in reference
                               else "digest differs from reference")
        if not ok:
            failed.append({"op": op_id, "why": note})
    return failed


def run_setup(start):
    return run_worker("--setup-only", timeout=start + HARD_LIMIT_S - time.perf_counter())["setup_s"]


def run_passes(args, start):
    """Passes back to back until the next one would overrun --seconds.
    With --trace 0 each pass is followed by a set-up-only interpreter, so
    that set-up is sampled all through the run; passes and these add up to
    at least MIN_SETUPS set-up samples."""
    passes, lengths, setups = [], [], []
    while True:
        traced = args.trace == 1 and len(passes) % 2 == 0
        pass_id = "%s-s%d-t%d-p%d" % (args.workload, args.seed, args.trace, len(passes))
        extra = ["--trace", 1, "--spans-out", OUT / ("spans-%s.json" % pass_id)] if traced else []
        t0 = time.perf_counter()
        rec = run_worker("--workload", args.workload, "--seed", args.seed, "--size", args.size,
                         "--pass-id", pass_id, *extra, timeout=start + HARD_LIMIT_S - t0)
        rec["traced"] = traced
        passes.append(rec)
        setups.append(rec["setup_s"])
        if args.trace == 0:
            setups.append(run_setup(start))
        now = time.perf_counter()
        lengths.append(now - t0)
        if now - start > RUN_LIMIT_S or (len(passes) >= MIN_PASSES
                                         and now + statistics.median(lengths) > start + args.seconds):
            while args.trace == 0 and len(setups) < MIN_SETUPS:
                setups.append(run_setup(start))
            return passes, setups


def report(args, passes, setups):
    """Print the run's summary and its one-line JSON result; write the
    full record to perfbench/out/."""
    untraced = [r for r in passes if not r["traced"]]
    traced = [r for r in passes if r["traced"]]
    attempted = sum(r["attempted"] for r in passes)
    failed = sum(len(r["failed"]) for r in passes)
    wall = statistics.median(r["wall_s"] for r in untraced)
    if args.trace == 0:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        }
        units = END_TO_END_UNITS
    else:
        units = traced[0]["layer_units"]
        metrics = {m: statistics.median(r["layers"][m] for r in traced) for m in units
                   if not m.startswith("trace.")}
        metrics["trace.wall_s"] = statistics.median(r["wall_s"] for r in traced)
    overhead = metrics["trace.wall_s"] - wall if traced else None
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in sorted(metrics.items())},
    }
    env = environment(args.seed, passes[0]["numpy"])
    failures = sorted({(f["op"], f["why"]) for r in passes for f in r["failed"]})
    record = {
        "workload": args.workload, "size": args.size, "trace": args.trace,
        "seconds": args.seconds, "environment": env,
        "inputs": passes[0]["inputs"], "ops_per_pass": passes[0]["attempted"],
        "fail_ratio": failed / attempted, "failures": failures, "trace_overhead_s": overhead,
        "setup_samples": setups, "passes": passes, "result": result,
    }
    name = "result-%s-s%d-t%d.json" % (args.workload, args.seed, args.trace)
    with open(OUT / name, "w") as f:
        json.dump(record, f, indent=1)

    print("perfbench %s seed=%d trace=%d passes=%d (%d traced)"
          % (args.workload, args.seed, args.trace, len(passes), len(traced)))
    print("  environment %s" % json.dumps(env, sort_keys=True))
    if record["inputs"]:
        print("  inputs %s" % json.dumps(record["inputs"]))
    print("  %-36s %14d %s" % ("ops", attempted, "count"))
    print("  %-36s %14.6f %s" % ("fail_ratio", record["fail_ratio"], "1"))
    if traced:
        print("  %-36s %14.6f %s" % ("trace.overhead_s", overhead, "s"))
    for m, v in sorted(metrics.items()):
        print("  %-36s %14.6f %s" % (m, v, units[m]))
    for op, why in failures:
        print("  FAILED %s: %s" % (op, why))
    print(json.dumps(result))
    return 0


def record():
    """Rewrite reference.json: digest of every digest-checked output of
    one full-size pass of each workload."""
    digests = {}
    for workload in WORKLOADS:
        rec = run_worker("--workload", workload, "--seed", 0)
        digests.update({op_id: dig for op_id, ok, note, dig in rec["ops"] if dig is not None})
    with open(REFERENCE, "w") as f:
        json.dump(digests, f, indent=0, sort_keys=True)
        f.write("\n")
    print("perfbench: %d reference digests written to %s" % (len(digests), REFERENCE))
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=28)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: the self-test's small inputs")
    p.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = p.parse_args(argv)

    if not (SRC / "kvertex" / "__init__.py").is_file():
        print("perfbench: no kvertex sources under %s" % SRC, file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        if args.record:
            return record()
        if args.workload is None:
            p.error("--workload is required")
        with open(REFERENCE) as f:
            reference = json.load(f)
        passes, setups = run_passes(args, time.perf_counter())
    except (PassError, subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    for rec in passes:
        ops = rec.pop("ops")
        rec["attempted"] = len(ops)
        rec["failed"] = judge(ops, reference)
    return report(args, passes, setups)


if __name__ == "__main__":
    sys.exit(main())
