"""Vertex characters, symmetrized fixed-point weights, and assembly of the
box-counting vertex series.

Every fixed point, a box configuration of the DT vertex or a pair of plane
partitions of the rank-2 Quot scheme, has a Laurent-polynomial virtual
tangent character V of one closed form. With sigma(t^k) = bar(t^k)/kappa
and D = (1-t1)(1-t2)(1-t3),

    V = V_min + Y G - sigma(Y G) + (D/kappa) G bar(G),

where G sums the boxes the fixed point adds. For a DT configuration, G = E
is the boxes outside the leg cylinders, V_min the character of the minimal
configuration (the union of the cylinders) and Y = 1 - bar(a0 C). For a
pair (E_1, E_2) with framing ratio u = w2/w1, G = E_1 + u E_2, V_min = 0
and Y = bar(W) with W = 1 + u. A symbolic u is the variable u2, in lane 3
alone, so a rank-2 weight uses four lanes; a numeric one is a t-monomial.
Only V_min is divided: it is the tangent block over D divided exactly by
D, and its poles must cancel. The closed form is added term by term into
one dict keyed by packed monomials.

Every V is certified on the spot: coefficients must be integers summing to
zero, there must be no trivial weight, and V must be antisymmetric of weight
kappa under the dual involution, bar(V) = -kappa V. Writing
sigma(t^k) = bar(t^k)/kappa, an involution on monomials, the last condition
reads V[sigma(k)] = -V[k] for every k. It is checked in the same single pass
over the stored terms as the other three: a nonzero V[sigma(k)] at an
unstored k is a stored term whose partner k fails. The symmetrized contribution
of a fixed point is then prod (w^(1/2) - w^(-1/2))^(-n_w) over the weights w
of V.

Series coefficients are sums of such contributions. fastsum accumulates
them in a factored form (numerator polynomial over a multiset of weight
binomials) with trial-division reduction after every addition, which keeps
the intermediate fractions near their reduced size; this is what makes the
volume-8 assembly cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import fastsum
from .boxconfig import (
    _AXPAIR,
    _ONE_MINUS_T,
    BoxConfig,
    _cleared_character,
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
    _SHIFTS,
    _fold_factors,
    _kneg,
    _pack,
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


_KAPPA_INV_EXPS = (-2, -2, -2, 0, 0)
# sigma(t^k) = bar(t^k) / kappa is the packed key _SIGMA - k
_SIGMA = PACK_ZERO + _pack(_KAPPA_INV_EXPS)


def _vertex_invariant_errors(v):
    """The first failing invariant of V, or None, in one pass over its
    terms: integrality, isolation, rank zero, then bar(V) = -kappa V.

    The last is V[sigma(k)] = -V[k] for all k. Checking the stored keys
    suffices: sigma is an involution, so if V[sigma(k)] were nonzero at an
    unstored k, the stored key sigma(k) would already fail the check."""
    d = v.d
    get = d.get
    rank = 0
    symmetric = True
    for k, c in d.items():
        if not isinstance(c, int):
            return "non-integer multiplicity"
        rank += c
        if get(_SIGMA - k, 0) != -c:
            symmetric = False
    if get(PACK_ZERO):
        return "non-isolated contribution"
    if rank:
        return "nonzero virtual rank"
    if not symmetric:
        return "symmetry violation"
    return None


def _certified(v):
    err = _vertex_invariant_errors(v)
    if err:
        raise ArithmeticError(err)
    return VertexChar(v)


# the terms of D / kappa, with D = (1-t1)(1-t2)(1-t3)
_D_OVER_KAPPA = tuple(
    (_ONE_MINUS_T[0] * _ONE_MINUS_T[1] * _ONE_MINUS_T[2]).shift(_KAPPA_INV_EXPS).d.items()
)


def _tangent_block_poly(cleared):
    """Numerator over D = (1-t1)(1-t2)(1-t3) of the tangent block of a
    reduced character cleared = (a, axes).

    Since bar(D) = -D/kappa, the three block terms collapse over the single
    denominator D as A + bar(A) - A bar(A), where A = a times the inactive
    denominator factors."""
    a, axes = cleared
    for axis in range(3):
        if axis not in axes:
            a = a * _ONE_MINUS_T[axis]
    a_bar = a.bar()
    return a + a_bar - a * a_bar


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
    num = _tangent_block_poly(_cleared_character(config))
    for axis in range(3):
        leg = config.legs[axis]
        if leg:
            num = num - _leg_block(leg, axis)
    for axis in range(3):
        num = divide_exact(num, _ONE_MINUS_T[axis])
        if num is None:
            raise ArithmeticError("pole not cleared")
    return _certified(num)


@lru_cache(maxsize=None)
def _minimal_vertex(legs):
    """(V_min, terms of Y = 1 - bar(a0) bar(C) as (key offset, coefficient))
    for a leg triple, where a0 is the cleared numerator of the minimal
    configuration and C the product of (1 - t_i) over the legless axes."""
    bound = leg_reach(legs) + 2
    config = BoxConfig(legs, bound, minimal_core(legs, bound))
    a0c = _cleared_character(config)[0]
    for axis in range(3):
        if not legs[axis]:
            a0c = a0c * _ONE_MINUS_T[axis]
    y = ((0, 1),) + tuple((k - PACK_ZERO, -c) for k, c in a0c.bar().d.items())
    return _vertex_from_scratch(config).poly, y


_S1, _S2, _S3 = _SHIFTS[:3]


def _box_keys(boxes, off=0):
    """Packed keys of the box monomials t^x, times the monomial of key
    offset off."""
    base = PACK_ZERO + off
    return [base + (2 * x << _S1) + (2 * y << _S2) + (2 * z << _S3) for (x, y, z) in boxes]


def _built_vertex(vmin, g, y):
    """The certified V = V_min + Y G - sigma(Y G) + (D/kappa) G bar(G), for
    G as a list of packed keys (a repeated key is a repeated term) and Y as
    (key offset, coefficient) terms.

    Every term goes straight into one dict seeded with V_min's terms, each
    term of Y G at its key k and, negated, at sigma(k). (D/kappa) G is
    formed once before it meets bar(G): D G cancels across the faces that
    boxes of G share, so it grows about linearly in |G| where G bar(G)
    grows quadratically. At volume 4 of the criterion-8 sweep (9 extra
    boxes typical) this saves about 30% of the dict updates."""
    d = dict(vmin.d)
    get = d.get
    for k in g:
        for off, c in y:
            j = k + off
            d[j] = get(j, 0) + c
            j = _SIGMA - j
            d[j] = get(j, 0) - c
    # keys of dg carry PACK_ZERO twice; minus a key of G, they are packed
    dg = {}
    for k in g:
        for kd, c in _D_OVER_KAPPA:
            j = k + kd
            dg[j] = dg.get(j, 0) + c
    for k, c in dg.items():
        if c:
            for k2 in g:
                j = k - k2
                d[j] = get(j, 0) + c
    return _certified(LaurentPoly({k: c for k, c in d.items() if c}))


def vertex_character(config):
    """Virtual tangent character of a box configuration, with the leg
    tangent contributions removed; certified Laurent.

    With E the sum of t^x over the core boxes x outside the leg cylinders,
    the cleared character is a = a0 + P_S E, where P_S is the product of
    (1 - t_i) over the leg axes S. Substituting into the tangent block
    leaves no division: with Y = 1 - bar(a0 C), the closed form of
    _built_vertex with G = E,

        V = V_min + Y E - sigma(Y E) + (D/kappa) E bar(E).
    """
    vmin, y = _minimal_vertex(config.legs)
    cylinders = minimal_core(config.legs, config.bound)
    extra = config.core - cylinders
    if len(config.core) - len(extra) != len(cylinders):
        raise ValueError("core misses a leg cylinder box below its bound")
    return _built_vertex(vmin, _box_keys(extra), y)


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
        if not all(isinstance(c, int) for c in vchar.d.values()):
            raise ArithmeticError("non-integer multiplicity")
        if vchar.coeff((0, 0, 0, 0, 0)):
            raise ArithmeticError("non-isolated contribution")
        vchar = VertexChar(vchar)
    return _pair_to_ratfunc(sum_weights([factored_weight(vchar)]))


def _pair_to_ratfunc(pair):
    """Reduced factored pair as a normalized RatFunc."""
    num, den = pair
    fac = {}
    num, scale = _fold_factors(num, fac, [(_half_binomial(m), e) for m, e in sorted(den.items())])
    return RatFunc._prereduced(num, fac, scale)


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
    index, pair, u = args
    try:
        return factored_weight(_quot_vertex_char(pair, u))
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
    import multiprocessing  # only here: a serial run does not pay its import

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


def _framing_offset(framing):
    """Key offset of the framing ratio u = w2 / w1: the variable u2 of lane
    3 for None, the t-monomial w2 / w1 for a numeric framing."""
    if framing is None:
        return _pack((0, 0, 0, 2, 0)) - PACK_ZERO
    if len(framing) != 2:
        raise ValueError("framing must be two monomials, not %d" % len(framing))
    for i, w in enumerate(framing):
        if not isinstance(w, LaurentPoly) or list(w.d.values()) != [1]:
            raise ValueError("framing weight w%d = %s is not a monomial with coefficient 1"
                             % (i + 1, w))
    u = next(iter(framing[1].d)) - next(iter(framing[0].d))
    if not u:
        raise ValueError("framing monomials must be distinct")
    return u


def _quot_vertex_char(pair, u):
    """Virtual tangent character of a point (E_1, E_2) of the rank-2
    punctual quotient scheme, for the framing ratio u = w2/w1 as a key
    offset.

    Its four tangent blocks, from E_a to E_b twisted by w_b/w_a, are
    E_b - sigma(E_a) + (D/kappa) E_b bar(E_a) each. With G = E_1 + u E_2 and
    W = 1 + u, the E_b terms sum to (sum_b w_b E_b)(sum_a 1/w_a) = bar(W) G,
    so V is the closed form of _built_vertex with V_min = 0 and Y = bar(W).
    A numeric framing may make boxes of the two partitions meet in G."""
    g = _box_keys(pair[0].core) + _box_keys(pair[1].core, u)
    return _built_vertex(LaurentPoly.zero(), g, ((0, 1), (-u, 1)))


def quot2_vertex_series(order, framing=None, jobs=1):
    """Rank-2 degree-0 vertex series over pairs of plane partitions.

    With framing None the framing ratio u2 = w2/w1 stays symbolic;
    rigidity then demands that every coefficient come out free of it, and
    a coefficient that uses either ratio lane, u2 or u3, is rejected. An
    explicit framing is two distinct monomials (w1, w2) with coefficient 1.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    u = _framing_offset(framing)
    coeffs = []
    for m in range(order + 1):
        items = [(i, pair, u) for i, pair in enumerate(enumerate_quot_pairs(m))]
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
