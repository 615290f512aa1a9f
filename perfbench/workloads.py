"""The benchmark's workloads: what each pass computes, and how every
output is checked.

A workload has three parts:

- ``inputs(seed, size)`` builds the pass's inputs from the seed alone;
- ``compute(inputs)`` makes the calls into kvertex that a user would make
  and is the only part that is timed. Each operation is attempted on its
  own: an exception is kept as that operation's output, so it counts as a
  failed operation instead of stopping the pass;
- ``verify(inputs, outputs)`` checks every output, untimed, and returns
  one ``(op_id, ok, note, digest)`` tuple per operation. ``digest`` is the
  sha256 of the output's canonical form, which the caller compares with
  ``reference.json``, or None where an independent oracle checks it.

All calls run single-process with ``jobs=1``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random

from kvertex import boxconfig, qcombi, vertexk, wallcross
from kvertex.exactalg import LaurentPoly, RatFunc

JOBS = 1


class Failed:
    """Output of an operation that raised."""

    def __init__(self, exc):
        self.reason = "%s: %s" % (type(exc).__name__, exc)


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # any error is one failed operation
        return Failed(exc)


def digest(obj):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check(op_id, outputs, fn):
    """One op: failed if one of its outputs raised, else ``fn(*outputs)``
    gives ``(ok, note, digest)``; a check that raises fails the op too."""
    bad = next((x for x in outputs if isinstance(x, Failed)), None)
    if bad is None:
        try:
            return (op_id, *fn(*outputs))
        except Exception as exc:  # a check that raises is a failed op
            bad = Failed(exc)
    return (op_id, False, bad.reason, None)


def series_ops(prefix, series, powers):
    """One op per coefficient: its sorted-key JSON, digested."""
    return [check("%s.Q^%d" % (prefix, n), (series,), lambda s, n=n: (
        True, "", digest({"power": n, **s.coefficient(n).to_json()}))) for n in powers]


# -- independent oracles --------------------------------------------------


def signed_macmahon(order):
    """(-1)^n times the number of plane partitions of n, for n <= order.

    Uses the divisor-sum recurrence n a(n) = sum_k sigma_2(k) a(n-k) of
    MacMahon's function prod (1 - q^m)^(-m), then substitutes q = -Q."""
    sigma2 = [0] + [sum(d * d for d in range(1, k + 1) if k % d == 0)
                    for k in range(1, order + 1)]
    a = [1]
    for n in range(1, order + 1):
        a.append(sum(sigma2[k] * a[n - k] for k in range(1, n + 1)) // n)
    return [(-1) ** n * a[n] for n in range(order + 1)]


def factorization_holds(quot, dt0, order):
    """quot2 = H(up) * H(down) through Q^order, where H(up/down) is the
    0-leg series with Q scaled by -kappa^(+/-1/2)."""
    up = dt0.series.truncate(order).subst_q_scale(
        RatFunc.from_poly(LaurentPoly.term(-1, (1, 1, 1, 0, 0))))
    down = dt0.series.truncate(order).subst_q_scale(
        RatFunc.from_poly(LaurentPoly.term(-1, (-1, -1, -1, 0, 0))))
    return (up * down).eq_through(quot.series, order)


# -- dt0: the 0-leg series and its Calabi-Yau limit ---------------------------


class Dt0:
    """0-leg DT series through Q^order, plus the CY constancy check against
    the signed MacMahon numbers. Summation is nearly all of the time."""

    why = ("0-leg series through Q^6 with its CY check: summation is over "
           "90% of the time, characters and enumeration about 1%")

    @staticmethod
    def inputs(seed, size):
        return {"order": 3 if size == "tiny" else 6}

    @staticmethod
    def compute(inp):
        series = attempt(vertexk.dt_vertex_series, order=inp["order"], jobs=JOBS)
        consts = (series if isinstance(series, Failed)
                  else attempt(vertexk.cy_constancy_check, series))
        return {"series": series, "cy": consts}

    @staticmethod
    def verify(inp, out):
        order = inp["order"]
        expect = signed_macmahon(order)
        return series_ops("dt0", out["series"], range(order + 1)) + [
            check("dt0.cy_macmahon", (out["cy"],), lambda cy: (
                list(cy) == expect, "got %s, want %s" % (cy, expect), None))]


# -- quot2: the rank-2 series, its factorization and framing rigidity ---------


# Bands of the leading framing exponent, on both sides of the fast
# engine's 12-bit lane limit: its lanes hold framings below 292, and from
# about 2000 on it rejects the exponents (FastSumUnavailable) and falls
# back to the pure engine. Between the two, the lanes carry and the series
# is wrong (ROADMAP D1); that band is left out, so that every op of a pass
# can succeed, and selftest.py shows it instead.
FRAMING_BANDS = ((1, 290), (2000, 2500))
FRAMINGS_PER_BAND = 2
SMALL = 8


def draw_framings(seed, per_band=FRAMINGS_PER_BAND):
    """Framing exponents e for (1, t^e): per band, the t1 exponent from the
    band and the t2, t3 exponents from [-8, 8]. A draw whose exponents all
    lie within +/-8 may coincide with a tangent weight and is drawn again;
    no other draw is rejected."""
    rng = random.Random(seed)
    out = []
    for lo, hi in FRAMING_BANDS:
        for _ in range(per_band):
            while True:
                e = (rng.randint(lo, hi), rng.randint(-SMALL, SMALL), rng.randint(-SMALL, SMALL))
                if max(abs(x) for x in e) > SMALL:
                    break
            out.append(e)
    return out


def framing(e):
    return (LaurentPoly.const(1), LaurentPoly.term(1, tuple(2 * x for x in e) + (0, 0)))


class Quot2:
    """Symbolic-framing rank-2 series through Q^order; factorization
    through Q^order against the 0-leg series; Q^2 series at framings drawn
    from the seed, each required to equal the symbolic series."""

    why = ("rank-2 series in 5 variables with framings drawn on both sides of "
           "the int64 lane limit: the summation layer under swell and fallback")

    @staticmethod
    def inputs(seed, size):
        tiny = size == "tiny"
        return {
            "order": 1 if tiny else 3,
            "framed_order": 1 if tiny else 2,
            "framings": draw_framings(seed, 1 if tiny else FRAMINGS_PER_BAND),
        }

    @staticmethod
    def compute(inp):
        order = inp["order"]
        return {
            "quot": attempt(vertexk.quot2_vertex_series, order, jobs=JOBS),
            "dt0": attempt(vertexk.dt_vertex_series, order=order, jobs=JOBS),
            "framed": [
                attempt(vertexk.quot2_vertex_series, inp["framed_order"],
                        framing=framing(e), jobs=JOBS)
                for e in inp["framings"]
            ],
        }

    @staticmethod
    def verify(inp, out):
        order, framed_order = inp["order"], inp["framed_order"]
        quot = out["quot"]
        ops = series_ops("quot2", quot, range(order + 1))
        ops.append(check("quot2.factorization", (quot, out["dt0"]), lambda q, h: (
            factorization_holds(q, h, order), "quot2 != H_up * H_down", None)))
        for e, series in zip(inp["framings"], out["framed"]):
            ops.append(check("quot2.framing(1,t^%s)" % (list(e),), (quot, series), lambda q, s: (
                s.series.eq_through(q.series, framed_order),
                "differs from the symbolic-framing series", None)))
        return ops


# -- legged-chars: enumeration, characters and weights, no summation ----------


LEG_CHOICES = ((), (1,), (2,), (1, 1))


def leg_slices(size):
    """(legs, volume) slices: every legged triple over the leg choices from
    its minimal volume through three more, and the 0-leg triple through
    volume 8."""
    if size == "tiny":
        return [(((), (), ()), n) for n in range(4)] + [(((1,), (), ()), 0), (((1,), (1,), ()), -1)]
    out = []
    for legs in itertools.product(LEG_CHOICES, repeat=3):
        if any(legs):
            lo = boxconfig.min_volume(*legs)
            out.extend((legs, n) for n in range(lo, lo + 4))
        else:
            out.extend((legs, n) for n in range(9))
    return out


def weight_record(vchar, fw):
    """Canonical, packing-independent form of one configuration's
    character and factored weight."""
    return [vchar.poly.to_json(), fw.sign, sorted(fw.fac.values())]


def _slice(legs, n):
    out = []
    for config in boxconfig.enumerate_configs(*legs, n=n):
        vchar = vertexk.vertex_character(config)
        out.append((vchar, vertexk.factored_weight(vchar)))
    return out


class LeggedChars:
    """The criterion-8 sweep cut down: for each configuration,
    enumerate_configs -> vertex_character -> factored_weight, no summation.
    One op is one (legs, volume) slice, checked by the digest of its
    characters and weights as a multiset."""

    why = ("criterion-8 sweep cut down: enumeration, characters and weights "
           "of 2,351 configurations, with no summation")

    @staticmethod
    def inputs(seed, size):
        return {"slices": leg_slices(size)}

    @staticmethod
    def compute(inp):
        return {"slices": [attempt(_slice, legs, n) for legs, n in inp["slices"]]}

    @staticmethod
    def verify(inp, out):
        return [
            check("chars.%s.%d" % (";".join(",".join(map(str, leg)) for leg in legs), n),
                  (records,), lambda rs: (
                      True, "", digest(sorted(json.dumps(weight_record(*r)) for r in rs))))
            for (legs, n), records in zip(inp["slices"], out["slices"])
        ]


# -- identities: the qcombi suites and the wall-crossing checks ---------------


def _compositions(total):
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first,) + rest


def _multisets_le3(total):
    """Weakly decreasing tuples of at most three positive parts."""
    for a in range(total, 0, -1):
        if a == total:
            yield (a,)
        for b in range(min(a, total - a), 0, -1):
            if a + b == total:
                yield (a, b)
            c = total - a - b
            if 0 < c <= b:
                yield (a, b, c)


def identity_instances(max_n, props=qcombi.PROPS):
    """The instances the CLI's check-identities suites run at max_n."""
    out = []
    for prop in props:
        if prop == "QBINOM":
            out += [(prop, {"m": m, "n": t - m}) for t in range(2, max_n + 1) for m in range(1, t)]
        elif prop == "QMULTINOM":
            out += [(prop, {"mvec": c}) for t in range(1, max_n + 1) for c in _compositions(t)]
        else:
            out += [(prop, {"mvec": mv, "N": N})
                    for t in range(1, min(6, max_n - 1) + 1)
                    for mv in _multisets_le3(t)
                    for N in range(t + 1, max_n + 1)]
    return out


class Identities:
    """The five identity suites, the wall_transfer collapse, and the
    formal factorization checks. Pure Python: no numpy anywhere."""

    why = ("qcombi identity suites and wallcross transfer checks: the only "
           "workload on those layers, and it uses no numpy")

    @staticmethod
    def inputs(seed, size):
        if size == "tiny":
            return {"instances": identity_instances(4, ("QBINOM",)),
                    "transfers": [(1, 2)], "formal": [(2, 4)]}
        return {
            "instances": identity_instances(7),
            "transfers": [(m, N) for m in range(1, 5) for N in range(m + 1, m + 5)],
            "formal": [(4, N) for N in (8, 9, 10)],
        }

    @staticmethod
    def compute(inp):
        return {
            "identities": [attempt(qcombi.check_identity, prop, **args)
                           for prop, args in inp["instances"]],
            "transfers": [attempt(wallcross.wall_transfer, m, N) for m, N in inp["transfers"]],
            "joyce": [attempt(wallcross.joyce_check, o, N) for o, N in inp["formal"]],
            "mochizuki": [attempt(wallcross.mochizuki_check, o, N) for o, N in inp["formal"]],
        }

    @staticmethod
    def verify(inp, out):
        ops = [
            check("identity.%s.%s" % (prop, json.dumps(args, sort_keys=True).replace(" ", "")),
                  (res,), lambda r: (r.verdict, "lhs %s != rhs %s" % (r.lhs, r.rhs),
                                     digest(r.to_json())))
            for (prop, args), res in zip(inp["instances"], out["identities"])
        ]
        ops += [
            check("wallcross.transfer_collapse.m%d.N%d" % (m, N), (expr,), lambda x, m=m: (
                x == wallcross.FormalExpr.symbol(wallcross.HILB, m), "not hilb[%d]" % m, None))
            for (m, N), expr in zip(inp["transfers"], out["transfers"])
        ]
        ops += [
            check("wallcross.%s_check.o%d.N%d" % (name, o, N), (verdict,), lambda v: (
                v is True, "verdict %r" % (v,), None))
            for name in ("joyce", "mochizuki")
            for (o, N), verdict in zip(inp["formal"], out[name])
        ]
        return ops


WORKLOADS = {
    "dt0-q6": Dt0,
    "quot2-q3": Quot2,
    "legged-chars": LeggedChars,
    "identities": Identities,
}
