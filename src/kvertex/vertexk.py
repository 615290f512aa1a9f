"""Vertex characters, symmetrized fixed-point weights, and assembly of the
box-counting vertex series.

The character of a fixed-point configuration determines a Laurent-polynomial
virtual tangent character V. For the minimal configuration of each leg
triple (the union of the leg cylinders), V is the tangent block over
D = (1-t1)(1-t2)(1-t3) divided exactly by D, and its poles must cancel.
Every other configuration differs from the minimal one by the boxes E
outside the cylinders, and its V is the minimal one plus a Laurent
polynomial in E, with no division. Every V is certified on the spot:
coefficients must be integers summing to zero, there must be no trivial
weight, and V must be antisymmetric of weight kappa under the dual
involution. The symmetrized contribution of a fixed point is then
prod (w^(1/2) - w^(-1/2))^(-n_w) over the weights w of V.

Series coefficients are sums of such contributions. fastsum accumulates
them in a factored form (numerator polynomial over a multiset of weight
binomials) with trial-division reduction after every addition, which keeps
the intermediate fractions near their reduced size; this is what makes the
volume-8 assembly cheap.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from functools import lru_cache

from . import fastsum
from .boxconfig import (
    _AXPAIR,
    BoxConfig,
    enumerate_configs,
    enumerate_quot_pairs,
    leg_diagram_poly,
    leg_reach,
    min_volume,
    minimal_core,
)
from .exactalg import (
    ONE,
    PACK_ZERO,
    LaurentPoly,
    QSeries,
    RatFunc,
    _PARITY,
    _fold_factors,
    _kneg,
    divide_exact,
)
from .fastsum import _half_binomial


def leg_tangent(leg, axes):
    """Tangent character of the surface Hilbert scheme at the monomial
    ideal of the partition, in the two transverse variables.

    T = Q + bar(Q)/(t' t'') - Q bar(Q) (1 - t')(1 - t'') / (t' t'');
    always a Laurent polynomial of rank 2 |leg|.
    """
    q = leg_diagram_poly(leg, axes)
    if q.is_zero():
        return LaurentPoly.zero()
    tp = LaurentPoly.var(axes[0])
    tpp = LaurentPoly.var(axes[1])
    prod_exps = [0, 0, 0, 0, 0]
    prod_exps[axes[0]] = -2
    prod_exps[axes[1]] = -2
    inv_tt = LaurentPoly.term(1, tuple(prod_exps))
    qbar = q.bar()
    t = q + (qbar - q * qbar * (ONE - tp) * (ONE - tpp)) * inv_tt
    rank = t.coefficient_sum()
    if rank != 2 * sum(leg):
        raise ArithmeticError("convention violation")
    return t


@dataclass(frozen=True)
class VertexChar:
    """Certified virtual tangent character at an isolated fixed point."""

    poly: LaurentPoly


_KAPPA_EXPS = (2, 2, 2, 0, 0)
_KAPPA_INV_EXPS = (-2, -2, -2, 0, 0)


def _vertex_invariant_errors(v):
    if not all(isinstance(c, int) for _, c in v.d.items()):
        return "non-integer multiplicity"
    if v.coeff((0, 0, 0, 0, 0)):
        return "non-isolated contribution"
    if v.coefficient_sum() != 0:
        return "nonzero virtual rank"
    if v.bar() != -v.shift(_KAPPA_EXPS):
        return "symmetry violation"
    return None


def _certified(v):
    err = _vertex_invariant_errors(v)
    if err:
        raise ArithmeticError(err)
    return VertexChar(v)


_ONE_MINUS_T = tuple(ONE - LaurentPoly.var(i) for i in range(3))
_ONE_MINUS_TINV = tuple(p.bar() for p in _ONE_MINUS_T)
# D / kappa, with D = (1-t1)(1-t2)(1-t3)
_D_OVER_KAPPA = (_ONE_MINUS_T[0] * _ONE_MINUS_T[1] * _ONE_MINUS_T[2]).shift(_KAPPA_INV_EXPS)


def _cleared_character(config):
    """Character as (a, axes) with character = a / prod_{i in axes}(1-t_i)
    over the leg axes; computed with plain polynomial arithmetic.

    The fraction is already reduced: at t_i = 1 on a leg axis, a is the
    leg's diagram polynomial times the other leg factors, which is not
    zero."""
    core = LaurentPoly.from_terms(
        (1, (2 * x, 2 * y, 2 * z, 0, 0)) for (x, y, z) in config.core
    )
    axes = tuple(axis for axis in range(3) if config.legs[axis])
    a = core
    for axis in axes:
        a = a * _ONE_MINUS_T[axis]
    for axis in axes:
        tail = leg_diagram_poly(config.legs[axis], _AXPAIR[axis]) * LaurentPoly.var(
            axis, 2 * config.bound
        )
        for other in axes:
            if other != axis:
                tail = tail * _ONE_MINUS_T[other]
        a = a + tail
    return a, axes


def _tangent_block_poly(to, frm):
    """Numerator over D = (1-t1)(1-t2)(1-t3) of the bilinear tangent block
    for reduced characters to = (a, axes) and frm likewise.

    Since bar(D) = -D/kappa, the three block terms collapse over the single
    denominator D as A_to + bar(A_from) - A_to bar(A_from), where A = a
    times the inactive denominator factors."""
    a_to, axes_to = to
    a_frm, axes_frm = frm
    cross = a_to * a_frm.bar()
    full_to = a_to
    full_frm_bar = a_frm.bar()
    for axis in range(3):
        if axis not in axes_to:
            full_to = full_to * _ONE_MINUS_T[axis]
            cross = cross * _ONE_MINUS_T[axis]
        if axis not in axes_frm:
            full_frm_bar = full_frm_bar * _ONE_MINUS_TINV[axis]
            cross = cross * _ONE_MINUS_TINV[axis]
    return full_to + full_frm_bar - cross


def _certified_vertex(num):
    """Divide the block numerator by D and certify the invariants."""
    for axis in range(3):
        q = divide_exact(num, _ONE_MINUS_T[axis])
        if q is None:
            raise ArithmeticError("pole not cleared")
        num = q
    return _certified(num)


@lru_cache(maxsize=None)
def _leg_block(leg, axis):
    """Leg tangent times the complementary denominator factors."""
    t = leg_tangent(leg, _AXPAIR[axis])
    for other in range(3):
        if other != axis:
            t = t * _ONE_MINUS_T[other]
    return t


def _vertex_from_scratch(config):
    """vertex_character by the tangent block over D, three exact divisions
    and the pole check: the base case on minimal configurations, and the
    oracle of the tests."""
    cleared = _cleared_character(config)
    num = _tangent_block_poly(cleared, cleared)
    for axis in range(3):
        leg = config.legs[axis]
        if leg:
            num = num - _leg_block(leg, axis)
    return _certified_vertex(num)


@lru_cache(maxsize=None)
def _minimal_vertex(legs):
    """(V_min, a0 C / kappa, bar(a0) bar(C)) for a leg triple, where a0 is
    the cleared numerator of the minimal configuration and C the product
    of (1 - t_i) over the legless axes."""
    bound = leg_reach(legs) + 2
    config = BoxConfig(legs, bound, minimal_core(legs, bound))
    a0c = _cleared_character(config)[0]
    for axis in range(3):
        if not legs[axis]:
            a0c = a0c * _ONE_MINUS_T[axis]
    return _vertex_from_scratch(config).poly, a0c.shift(_KAPPA_INV_EXPS), a0c.bar()


_minimal_core = lru_cache(maxsize=None)(minimal_core)


def vertex_character(config):
    """Virtual tangent character of a box configuration, with the leg
    tangent contributions removed; certified Laurent.

    With E the sum of t^x over the core boxes x outside the leg cylinders,
    the cleared character is a = a0 + P_S E, where P_S is the product of
    (1 - t_i) over the leg axes S. Substituting into the tangent block
    leaves no division:

        V = V_min + E - bar(E)/kappa + (a0 C + D E) bar(E)/kappa
            - E bar(a0) bar(C).
    """
    vmin, a0c_over_kappa, a0c_bar = _minimal_vertex(config.legs)
    cylinders = _minimal_core(config.legs, config.bound)
    extra = config.core - cylinders
    if len(config.core) - len(extra) != len(cylinders):
        raise ValueError("core misses a leg cylinder box below its bound")
    e = LaurentPoly.from_terms((1, (2 * x, 2 * y, 2 * z, 0, 0)) for (x, y, z) in extra)
    ebar = e.bar()
    v = (
        vmin
        + e
        - ebar.shift(_KAPPA_INV_EXPS)
        + (a0c_over_kappa + _D_OVER_KAPPA * e) * ebar
        - e * a0c_bar
    )
    return _certified(v)


# -- symmetrized weights -------------------------------------------------


class FactoredWeight:
    """sign * prod over weight monomials of (w^(1/2) - w^(-1/2))^exp,
    with each w canonicalized so its first nonzero exponent is positive.
    Weight monomials are packed keys for w^(1/2)."""

    __slots__ = ("sign", "fac")

    def __init__(self, sign, fac):
        self.sign = sign
        self.fac = fac


def factored_weight(vchar):
    fac = {}
    sign = 1
    for k, mult in vchar.poly.d.items():
        if k & _PARITY:
            raise ArithmeticError("weight with a half exponent")
        m = (k - PACK_ZERO) // 2 + PACK_ZERO
        mneg = _kneg(m)
        if m < mneg:
            m = mneg
            if mult % 2:
                sign = -sign
        fac[m] = fac.get(m, 0) - mult
        if fac[m] == 0:
            del fac[m]
    return FactoredWeight(sign, fac)


def fixed_point_weight(vchar):
    """The symmetrized localization contribution
    prod (w^(1/2) - w^(-1/2))^(-n_w) as a normalized rational function.

    Accepts a certified VertexChar or any Laurent polynomial with integer
    multiplicities and no trivial weight."""
    if isinstance(vchar, LaurentPoly):
        if not vchar.has_integer_coeffs():
            raise ArithmeticError("non-integer multiplicity")
        if vchar.coeff((0, 0, 0, 0, 0)):
            raise ArithmeticError("non-isolated contribution")
        vchar = VertexChar(vchar)
    fw = factored_weight(vchar)
    num = LaurentPoly.const(fw.sign)
    den = ONE
    for m, e in sorted(fw.fac.items()):
        if e > 0:
            num = num * (_half_binomial(m) ** e)
        else:
            den = den * (_half_binomial(m) ** (-e))
    return RatFunc(num, den)


def _pair_to_ratfunc(pair):
    """Reduced factored pair as a normalized RatFunc."""
    num, den = pair
    fac = {}
    num = _fold_factors(num, fac, [(_half_binomial(m), e) for m, e in sorted(den.items())])
    return RatFunc._prereduced(num, fac)


def sum_weights(fws):
    """Sum factored weights into a reduced (numerator, denominator factor
    dict) pair."""
    return fastsum.sum_factored(fws)


# -- series assembly -------------------------------------------------------


@dataclass
class VertexSeries:
    """A vertex series: truncated Q-series tagged with kind and legs."""

    kind: str
    legs: tuple
    series: QSeries

    def coefficient(self, n):
        return self.series.coefficient(n)

    def to_json(self):
        coeffs = []
        for i, c in enumerate(self.series.coeffs):
            coeffs.append(
                {"power": self.series.min_power + i, **c.to_json()}
            )
        return {
            "kind": self.kind,
            "legs": [list(leg) for leg in self.legs],
            "minPower": self.series.min_power,
            "order": self.series.trunc,
            "coefficients": coeffs,
        }


def _config_weight_indexed(args):
    index, config = args
    try:
        return factored_weight(vertex_character(config))
    except ArithmeticError as e:
        raise ArithmeticError(
            "%s at config #%d (volume %d)"
            % (e, index, len(config.core) - config.bound * config.leg_sizes())
        ) from e


def _quot_weight(args):
    index, pair, framing_ratio_exps = args
    try:
        return factored_weight(_quot_vertex_char(pair, framing_ratio_exps))
    except ArithmeticError as e:
        raise ArithmeticError(
            "%s at pair #%d (m=%d)" % (e, index, sum(len(c.core) for c in pair))
        ) from e


def _map_jobs(fn, items, jobs):
    items = list(items)
    if jobs is None:
        jobs = 1
    if jobs <= 1 or len(items) < 2:
        return [fn(x) for x in items]
    with multiprocessing.Pool(jobs) as pool:
        return pool.map(fn, items, chunksize=max(1, len(items) // (4 * jobs)))


def dt_vertex_series(l1=(), l2=(), l3=(), order=0, jobs=1):
    """Box-counting vertex series: coefficient of Q^n sums the symmetrized
    weights of all fixed configurations of renormalized volume n."""
    legs = (tuple(l1), tuple(l2), tuple(l3))
    nmin = min_volume(*legs)
    if order < nmin:
        raise ValueError("order below the minimal volume %d" % nmin)
    coeffs = []
    for n in range(nmin, order + 1):
        fws = _map_jobs(
            _config_weight_indexed, enumerate(enumerate_configs(*legs, n=n)), jobs
        )
        coeffs.append(_pair_to_ratfunc(sum_weights(fws)))
    return VertexSeries("DT", legs, QSeries(nmin, coeffs, order))


def _dt_through(vs, legs, order, jobs):
    """The DT series of the legs through exactly Q^order: computed, or cut
    from a series passed in."""
    if vs is None:
        return dt_vertex_series(*legs, order=order, jobs=jobs).series
    if vs.series.trunc < order:
        raise ValueError("the PT quotient needs the legs %s series through Q^%d, not Q^%d"
                         % (list(map(list, legs)), order, vs.series.trunc))
    return vs.series.truncate(order)


def pt_vertex_series(l1=(), l2=(), l3=(), order=0, jobs=1, dt=None, dt0=None):
    """Stable-pairs vertex series, defined as the quotient of the full
    box-counting series by its 0-leg specialization.

    Series arithmetic keeps exactly the coefficients its inputs determine,
    so the quotient through Q^order needs DT through Q^order and DT_0
    through Q^(order - n_min), where n_min <= 0 is the minimal volume of
    the legs. Both are computed to just those orders; precomputed dt and
    dt0 series reaching at least as far may be passed in to share work
    across calls.
    """
    legs = (tuple(l1), tuple(l2), tuple(l3))
    nmin = min_volume(*legs)
    num = _dt_through(dt, legs, order, jobs)
    den = _dt_through(dt0, ((), (), ()), order - nmin, jobs)
    return VertexSeries("PT", legs, num / den)


def _framing_ratio_exps(framing, b, a):
    """Doubled exponent tuple of w_b / w_a."""
    if framing is None:
        exps = [0, 0, 0, 0, 0]
        exps[3 + b] += 2
        exps[3 + a] -= 2
        return tuple(exps)
    wb, wa = framing[b], framing[a]
    ((eb, cb),) = wb.terms()
    ((ea, ca),) = wa.terms()
    if cb != 1 or ca != 1:
        raise ValueError("framing must be a monomial with coefficient 1")
    return tuple(x - y for x, y in zip(eb, ea))


def _quot_vertex_char(pair, ratio_exps):
    """Virtual tangent character of a point of the rank-2 punctual quotient
    scheme: four bilinear blocks twisted by framing ratios."""
    cleared = [_cleared_character(c) for c in pair]
    num = LaurentPoly.zero()
    for a in range(2):
        for b in range(2):
            block = _tangent_block_poly(cleared[b], cleared[a])
            if a != b:
                block = block.shift(ratio_exps[(a, b)])
            num = num + block
    return _certified_vertex(num)


def quot2_vertex_series(order, framing=None, jobs=1):
    """Rank-2 degree-0 vertex series over pairs of plane partitions.

    With framing None the two framing weights stay symbolic; rigidity then
    demands that every coefficient come out free of them, which is checked
    and enforced exactly. Explicit framings must be distinct monomials.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    ratios = {
        (0, 1): _framing_ratio_exps(framing, 1, 0),
        (1, 0): _framing_ratio_exps(framing, 0, 1),
    }
    if ratios[(0, 1)] == (0, 0, 0, 0, 0):
        raise ValueError("framing monomials must be distinct")
    coeffs = []
    for m in range(order + 1):
        items = [(i, pair, ratios) for i, pair in enumerate(enumerate_quot_pairs(m))]
        fws = _map_jobs(_quot_weight, items, jobs)
        rf = _pair_to_ratfunc(sum_weights(fws))
        if framing is None and rf.uses_vars() & {3, 4}:
            raise ArithmeticError("rigidity violation")
        coeffs.append(rf)
    return VertexSeries("QUOT2", ((), (), ()), QSeries(0, coeffs, order))


def cy_constancy_check(vseries):
    """Specialize t3 -> (t1 t2)^(-1) in every coefficient of a 0-leg series
    and certify that each result is a plain rational constant."""
    if any(vseries.legs):
        raise ValueError("legs present")
    out = []
    for i, c in enumerate(vseries.series.coeffs):
        n = vseries.series.min_power + i
        try:
            spec = c.subst_t3_cy()
        except ZeroDivisionError as e:
            raise ArithmeticError(
                "singular specialization at power %d" % n
            ) from e
        val = spec.as_constant()
        if val is None:
            raise ArithmeticError("non-constant coefficient at power %d" % n)
        out.append(val)
    return out
