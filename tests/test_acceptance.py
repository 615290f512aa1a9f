"""Acceptance suite: every criterion at its stated tolerance (all checks
are exact), one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
performance figures as they happen.
"""

import itertools
import json
import os
import time

import pytest

from kvertex.boxconfig import enumerate_configs, min_volume, plane_partitions
from kvertex.exactalg import KAPPA, LaurentPoly, RatFunc
from kvertex.qcombi import check_identity, compositions, multisets_le3
from kvertex.vertexk import (
    cy_constancy_check,
    dt_vertex_series,
    pt_vertex_series,
    quot2_vertex_series,
    vertex_character,
)
from kvertex.wallcross import (
    HILB,
    FormalExpr,
    joyce_check,
    mochizuki_check,
    rank2_bridge,
    wall_transfer,
)

from test_vertexk import signed_macmahon


def report(criterion, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print("ACCEPTANCE %-2s %s %s" % (criterion, tag, detail))
    assert ok, "criterion %s failed: %s" % (criterion, detail)


@pytest.fixture(scope="module")
def dt0_through_8():
    """The 0-leg series through Q^8, timed single-threaded: this one run
    backs criteria 9, 10, 11, 12 and 13."""
    t0 = time.time()
    series = dt_vertex_series(order=8, jobs=1)
    return series, time.time() - t0


@pytest.fixture(scope="module")
def dt_leg1_through_6():
    return dt_vertex_series((1,), order=6, jobs=2)


def test_criterion_01_qbinom():
    bad = [
        (m, n)
        for m in range(1, 9)
        for n in range(1, 9)
        if m + n <= 9 and not check_identity("QBINOM", m=m, n=n)
    ]
    report(1, not bad, "q-binomial, all m+n <= 9 (%s)" % (bad or "exact"))


def test_criterion_02_qmultinom():
    t0 = time.time()
    bad = []
    for total in range(1, 9):
        for mvec in compositions(total):
            if not check_identity("QMULTINOM", mvec=mvec):
                bad.append(mvec)
    report(2, not bad, "q-multinomial, all compositions of N <= 8, %.1fs" % (time.time() - t0))


def _sweep_identity(prop):
    bad = []
    for total in range(1, 7):
        for mvec in multisets_le3(total):
            for N in range(total + 1, 11):
                if not check_identity(prop, mvec=mvec, N=N):
                    bad.append((mvec, N))
    return bad


def test_criterion_03_mochizuki():
    t0 = time.time()
    bad = _sweep_identity("MOCHIZUKI")
    report(3, not bad, "descending-constraint identity, |m| <= 6, N <= 10, %.1fs" % (time.time() - t0))


def test_criterion_04_joyce_lt():
    t0 = time.time()
    bad = _sweep_identity("JOYCE_LT")
    report(4, not bad, "ascending-constraint closed form, %.1fs" % (time.time() - t0))


def test_criterion_05_joyce_b():
    t0 = time.time()
    bad = _sweep_identity("JOYCE_B")
    report(5, not bad, "remainder-first closed form, %.1fs" % (time.time() - t0))


def test_criterion_06_transfer_collapse():
    bad = [
        (m, N)
        for m in range(1, 6)
        for N in range(m + 1, m + 5)
        if wall_transfer(m, N) != FormalExpr.symbol(HILB, m)
    ]
    report(6, not bad, "transfer coefficients collapse, m <= 5, N <= m+4")


def test_criterion_07_formal_factorization():
    t0 = time.time()
    ok = all(joyce_check(4, N) and mochizuki_check(4, N) for N in (8, 9, 10))
    ok = ok and joyce_check(6, 12) and mochizuki_check(6, 12)
    report(7, ok, "formal factorization through Q^4 at frame dims 8-10 and through Q^6 "
           "at frame dim 12, %.1fs" % (time.time() - t0))


LEG_CHOICES = ((), (1,), (2,), (1, 1))


def _invariant_violations(args):
    legs, n = args
    minus_kappa = LaurentPoly.const(-1) * KAPPA
    bad = 0
    for c in enumerate_configs(*legs, n=n):
        v = vertex_character(c).poly
        if v.bar() != minus_kappa * v:
            bad += 1
        elif v.coefficient_sum() != 0:
            bad += 1
        elif v.coeff((0, 0, 0, 0, 0)) != 0:
            bad += 1
        elif not all(type(c) is int for c in v.d.values()):
            bad += 1
    return bad


def test_criterion_08_vertex_invariants():
    t0 = time.time()
    jobs_args = []
    for legs in itertools.product(LEG_CHOICES, repeat=3):
        top = 8 if not any(legs) else 4
        for n in range(min_volume(*legs), top + 1):
            jobs_args.append((legs, n))
    import kvertex.vertexk as vk

    violations = sum(vk._map_jobs(_invariant_violations, jobs_args, jobs=2))
    report(
        8,
        violations == 0,
        "symmetry + rank + isolation + integrality over %d leg/volume slices "
        "(poles cleared once per leg triple), %.0fs"
        % (len(jobs_args), time.time() - t0),
    )


def test_criterion_09_cy_macmahon(dt0_through_8):
    series, _ = dt0_through_8
    consts = cy_constancy_check(
        type(series)(series.kind, series.legs, series.series.truncate(6))
    )
    expect = signed_macmahon(6)
    report(9, consts == expect, "CY limit %s" % (consts,))


def test_cy_specialization_matches_expanded_denominator(dt0_through_8):
    # subst_t3_cy specializes the denominator factor by factor; the oracle
    # specializes the expanded numerator and denominator
    series, _ = dt0_through_8
    for c in series.series.coeffs:
        spec = c.subst_t3_cy()
        oracle = RatFunc(c.num.subst_t3_cy(), c.den.subst_t3_cy())
        assert spec == oracle
        assert spec.to_json() == oracle.to_json()


def test_criterion_10_rank2_factorization(dt0_through_8):
    series, _ = dt0_through_8
    t0 = time.time()
    quot = quot2_vertex_series(4, jobs=1)
    dt4 = series.series.truncate(4)
    up = dt4.subst_q_scale(RatFunc.from_poly(LaurentPoly.term(-1, (1, 1, 1, 0, 0))))
    down = dt4.subst_q_scale(RatFunc.from_poly(LaurentPoly.term(-1, (-1, -1, -1, 0, 0))))
    ok = (up * down).eq_through(quot.series, 4)
    fr1 = (LaurentPoly.const(1), LaurentPoly.term(1, (18, -10, 6, 0, 0)))
    fr2 = (LaurentPoly.term(1, (0, 4, 0, 0, 0)), LaurentPoly.term(1, (-8, 0, 14, 0, 0)))
    ok = ok and quot2_vertex_series(3, framing=fr1).series.eq_through(quot.series, 3)
    ok = ok and quot2_vertex_series(3, framing=fr2).series.eq_through(quot.series, 3)
    report(10, ok, "rank-2 factorization through Q^4 + two framings through Q^3, %.1fs"
           % (time.time() - t0))


def test_criterion_11_bridge(dt0_through_8):
    series, _ = dt0_through_8
    t0 = time.time()
    ok = rank2_bridge(3, 8, series)
    report(11, ok, "formal transfer vs quotient-scheme series through Q^3, %.1fs" % (time.time() - t0))


def test_criterion_12_pt_stability(dt0_through_8, dt_leg1_through_6):
    dt0, _ = dt0_through_8
    dt1 = dt_leg1_through_6
    t0 = time.time()
    # the same quotient computed at truncation orders 4 and 6 must agree
    # through order 4, and multiplying back must reproduce the legged
    # series exactly through the truncation
    pt6 = pt_vertex_series((1,), order=6, dt=dt1, dt0=dt0)
    pt4 = pt_vertex_series((1,), order=4, dt=dt1, dt0=dt0)
    ok = pt4.series.eq_through(pt6.series, 4)
    ok = ok and (pt6.series * dt0.series.truncate(6)).eq_through(dt1.series, 6)
    report(12, ok, "quotient stable under re-truncation, defining identity exact, %.0fs" % (time.time() - t0))


def test_criterion_13_performance_floor(dt0_through_8):
    series, seconds = dt0_through_8
    ok = seconds < 300 and series.series.trunc == 8
    t0 = time.time()
    par = dt_vertex_series(order=5, jobs=2)
    par_time = time.time() - t0
    t0 = time.time()
    ser = dt_vertex_series(order=5, jobs=1)
    ser_time = time.time() - t0
    same = json.dumps(par.to_json(), sort_keys=True) == json.dumps(ser.to_json(), sort_keys=True)
    report(
        13,
        ok and same,
        "Q^8 single-threaded in %.0fs (< 300s); jobs=2 identical, %.1fs vs %.1fs single"
        % (seconds, par_time, ser_time),
    )


def test_benchmark_reference_digests(dt0_through_8, monkeypatch):
    # The benchmark compares the bytes of each digested output with
    # perfbench/reference.json: the dt0 and quot2 coefficients' JSON, the
    # identity results and the legged characters and weights. A change to
    # those bytes (the value may stay equal, e.g. a reduced fraction
    # printed another way) must show here, for every reference digest.
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    monkeypatch.syspath_prepend(perfbench)
    import workloads

    with open(os.path.join(perfbench, "reference.json")) as f:
        reference = json.load(f)
    series, _ = dt0_through_8
    ops = (workloads.series_ops("dt0", series, range(7))
           + workloads.series_ops("quot2", quot2_vertex_series(3, jobs=1), range(4)))
    for workload in (workloads.Identities, workloads.LeggedChars):
        inp = workload.inputs(0, "full")
        ops += workload.verify(inp, workload.compute(inp))
    assert [op for op, ok, _, _ in ops if not ok] == []
    assert {op: digest for op, _, _, digest in ops if digest is not None} == reference
