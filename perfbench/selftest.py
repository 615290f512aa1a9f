"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that
- every workload prints every end-to-end metric (``--trace 0``) and every
  per-layer metric (``--trace 1``) named in BENCHMARK.json, with its unit;
- a deliberately wrong reference digest is counted as a failed op, with
  exit code 0 and ``correct`` false, not raised;
- a quot2 framing in the band the timed workload leaves out (t1 exponent
  between 292 and 1000, ROADMAP D1) is checked against the symbolic series
  and its op is counted, failed or not; the line printed says which;
- the benchmark exits non-zero, printing no result, where the kvertex
  sources are missing.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result(args):
    code, lines, err = bench(*args)
    if code != 0:
        raise AssertionError("exit %d for %s: %s" % (code, args, err[-1000:]))
    return json.loads(lines[-1])


def check_names(problems):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in BENCH[key]}
        for workload in run.WORKLOADS:
            res = result(["--workload", workload, "--seed", 3, "--seconds", 0.1,
                          "--size", "tiny", "--trace", trace])
            got = {m: v["unit"] for m, v in res["metrics"].items()}
            if got != want:
                problems.append("%s trace=%d: metrics %s, want %s" % (workload, trace, got, want))
            if set(res) != {"correct", "attempted", "failed", "metrics"} or res["attempted"] < 1:
                problems.append("%s trace=%d: bad result keys %s" % (workload, trace, res))


def check_wrong_digest(problems):
    ref = json.loads((HERE / "reference.json").read_text())
    ref["dt0.Q^2"] = "0" * 64
    OUT.mkdir(exist_ok=True)
    bad = OUT / "reference-corrupted.json"
    bad.write_text(json.dumps(ref))
    stdout, good = io.StringIO(), run.REFERENCE
    run.REFERENCE = bad
    try:
        with contextlib.redirect_stdout(stdout):
            code = run.main(["--workload", "dt0-q6", "--seed", "3", "--seconds", "0.1",
                             "--size", "tiny"])
    finally:
        run.REFERENCE = good
    lines = stdout.getvalue().strip().splitlines()
    res = json.loads(lines[-1]) if code == 0 else None
    passes = int(lines[0].split("passes=")[1].split()[0]) if code == 0 else 0
    if res is None or res["correct"] or res["failed"] != passes:
        problems.append("wrong digest not counted once per pass: exit %d, %s" % (code, lines[-3:]))
    elif not any(line.startswith("  FAILED dt0.Q^2:") for line in lines):
        problems.append("wrong digest not named in the output")


def check_lane_band(problems):
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    e = (500, 3, -2)
    inputs = {"order": 2, "framed_order": 2, "framings": [e]}
    ops = workloads.Quot2.verify(inputs, workloads.Quot2.compute(inputs))
    op = next((op for op in ops if op[0] == "quot2.framing(1,t^%s)" % (list(e),)), None)
    if op is None:
        problems.append("framing %s not counted as an op" % (e,))
    else:
        print("SELFTEST framing (1, t^%s): %s" % (e, "correct" if op[1] else "failed, " + op[2]))


def check_bare_directory(problems):
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.iterdir():
        if path.is_file():
            shutil.copy(path, bare / "perfbench")
    code, lines, err = bench("--workload", "dt0-q6", "--seed", 3, "--seconds", 1, cwd=bare)
    shutil.rmtree(bare)
    if code == 0 or any(line.startswith("{") for line in lines):
        problems.append("ran without kvertex sources: exit %d, %s" % (code, lines[-1:]))


def main():
    problems = []
    check_names(problems)
    check_wrong_digest(problems)
    check_lane_band(problems)
    check_bare_directory(problems)
    for p in problems:
        print("SELFTEST FAIL %s" % p)
    print("SELFTEST %s" % ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
