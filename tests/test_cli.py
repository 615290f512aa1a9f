"""Command-line surface: parsing, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

from kvertex import vertexk

# The checkout's sources, ahead of anything else the CLI could import.
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args):
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "kvertex.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
        env=env,
    )
    return proc


def test_usage_errors_exit_2():
    assert run_cli("dt-vertex", "--order", "-1").returncode == 2
    assert run_cli("dt-vertex", "--legs", "oops", "--order", "1").returncode == 2
    assert run_cli("dt-vertex", "--legs", "1;2", "--order", "1").returncode == 2
    assert run_cli("no-such-command").returncode == 2
    assert run_cli("dt-vertex", "--order", "1", "--bogus-flag").returncode == 2


def test_order_floor_is_the_minimal_volume():
    # legged series start at the legs' minimal volume, which may be negative
    for cmd in ("dt-vertex", "pt-vertex"):
        proc = run_cli(cmd, "--legs", "1;1;", "--order", "-1", "--jobs", "1")
        assert proc.returncode == 0, proc.stderr
        assert [c["power"] for c in json.loads(proc.stdout)["coefficients"]] == [-1]
    proc = run_cli("dt-vertex", "--legs", "1;1;1", "--order", "-3", "--jobs", "1")
    assert proc.returncode == 2
    assert "order must be at least -2, the minimal volume" in proc.stderr
    proc = run_cli("dt-vertex", "--order", "-1")
    assert proc.returncode == 2 and "order must be nonnegative" in proc.stderr


def test_dt_vertex_json_deterministic(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        proc = run_cli(
            "dt-vertex", "--legs", ";;", "--order", "2", "--format", "json",
            "--out", str(out), "--jobs", "1",
        )
        assert proc.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    payload = json.loads(out1.read_text())
    assert payload["kind"] == "DT"
    assert payload["minPower"] == 0


def test_unwritable_out_is_usage_error(tmp_path):
    path = tmp_path / "no-such-dir" / "x.json"
    proc = run_cli("dt-vertex", "--order", "1", "--jobs", "1", "--out", str(path))
    assert proc.returncode == 2
    assert str(path) in proc.stderr and "Traceback" not in proc.stderr
    assert not path.exists()


def test_failed_command_leaves_out_file_intact(tmp_path):
    out = tmp_path / "f"
    out.write_text("earlier output\n")
    # a usage error found by the command, and a computational error
    for args, code in (
        (("check-wcf", "--order", "9", "--frame-dim", "5"), 2),
        (("cy-limit", "--legs", "1;;", "--order", "1", "--jobs", "1"), 3),
    ):
        proc = run_cli(*args, "--out", str(out))
        assert proc.returncode == code, args
        assert out.read_text() == "earlier output\n", args


def test_jobs_flag_deterministic(tmp_path):
    a = run_cli("dt-vertex", "--legs", ";;", "--order", "2", "--jobs", "1")
    b = run_cli("dt-vertex", "--legs", ";;", "--order", "2", "--jobs", "2")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout == b.stdout


def test_cy_limit_csv():
    proc = run_cli("cy-limit", "--legs", ";;", "--order", "3", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "power,constant"
    assert lines[1:] == ["0,1", "1,-1", "2,3", "3,-6"]


def test_cy_limit_with_legs_is_computational_error():
    proc = run_cli("cy-limit", "--legs", "1;;", "--order", "1")
    assert proc.returncode == 3
    assert "legs present" in proc.stderr


def test_check_identities():
    proc = run_cli("check-identities", "--suite", "qbinom", "--max-n", "5")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verdict"] is True
    assert payload["instances"] == 10
    assert payload["smallest_failure"] is None


def test_check_identities_max_n_below_2_is_usage_error():
    # below 2 some suites have no instance, and an empty suite must not
    # pass as a verdict
    for max_n in ("-3", "0", "1"):
        proc = run_cli("check-identities", "--suite", "all", "--max-n", max_n)
        assert proc.returncode == 2, max_n
        assert "max-n" in proc.stderr and not proc.stdout
    proc = run_cli("check-identities", "--suite", "all", "--max-n", "2")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verdict"] is True
    assert all(suite["instances"] >= 1 for suite in payload["suites"])


def test_check_wcf():
    proc = run_cli("check-wcf", "--order", "2", "--frame-dim", "6")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["verdict"] is True
    assert payload["transfer_collapse"] and payload["factorization"]


def test_bridge():
    proc = run_cli("bridge", "--order", "1", "--frame-dim", "6")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] is True


def test_pt_vertex_matches_deeper_quotient():
    # the quotient at its minimal orders equals one of series computed two
    # orders deeper, cut back to the same order
    legs = ((1,), (1,), ())
    proc = run_cli("pt-vertex", "--legs", "1;1;", "--order", "2", "--jobs", "1")
    assert proc.returncode == 0
    quot = (
        vertexk.dt_vertex_series(*legs, order=4).series
        / vertexk.dt_vertex_series(order=5).series
    ).truncate(2)
    expect = vertexk.VertexSeries("PT", legs, quot)
    assert proc.stdout == json.dumps(expect.to_json(), sort_keys=True, indent=2) + "\n"


def test_pt_vertex_pretty():
    proc = run_cli("pt-vertex", "--legs", ";;", "--order", "1", "--format", "pretty")
    assert proc.returncode == 0
    assert "PT vertex series" in proc.stdout
