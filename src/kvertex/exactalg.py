"""Exact arithmetic kernel: sparse Laurent polynomials, rational functions,
and truncated power series.

Everything is exact. Polynomial coefficients are Python ints, exponents
are half-integers stored as doubled integers, so e.g. kappa^(1/2) is an
honest monomial. Every weight the vertex sums is a product of binomials
w^(1/2) - w^(-1/2), so integer numerators over such factors cover every
computation; the one rational scalar a RatFunc can carry is its
denominator's integer content, `scale`. There is no floating point anywhere
in this module.

Variables, in order: t1, t2, t3, u2, u3. The last two are framing
ratios u_a = w_a/w1 of framing weights w1, w2, w3: a rank-2 sum depends on
its two framing weights only through u2, and u3 is kept for rank 3. The
distinguished weight kappa = t1*t2*t3 gets dedicated helpers since half
powers of it appear throughout the quantum-integer and fixed-point-weight
machinery.

Internally a monomial is one Python int: five 24-bit offset lanes, most
significant lane first, so integer comparison is lexicographic comparison
of doubled-exponent tuples and monomial multiplication is a single integer
addition. The public API speaks doubled-exponent tuples. A doubled exponent
must lie in [-2^23, 2^23): every operation that forms keys raises
ValueError, naming the variable, rather than let a lane wrap. Products
check their operands, not their terms: when every lane value of both lies
in [-2^22, 2^22), no sum of two can leave its lane, and only otherwise are
the per-lane bounds of the operands added and compared.
"""

from __future__ import annotations

import heapq
from itertools import chain
from math import gcd
from operator import add, sub

NVARS = 5
VAR_NAMES = ("t1", "t2", "t3", "u2", "u3")

ZERO_EXPS = (0,) * NVARS

_LANE = 24
_OFF = 1 << (_LANE - 1)
_MASK = (1 << _LANE) - 1
_SHIFTS = tuple(_LANE * (NVARS - 1 - i) for i in range(NVARS))
PACK_ZERO = sum(_OFF << s for s in _SHIFTS)
_PARITY = sum(1 << s for s in _SHIFTS)
# The top bit of every lane. A lane value lies in [-2^22, 2^22) exactly
# when the top two bits of its offset form differ.
_TOPS = sum(1 << (s + _LANE - 1) for s in _SHIFTS)


def _lane_error(name):
    return ValueError("exponent of %s leaves its %d-bit lane" % (name, _LANE))


def _pack(exps):
    k = 0
    for e, s in zip(exps, _SHIFTS):
        e += _OFF
        if e >> _LANE:  # the exponent is below -2^23 or at least 2^23
            raise _lane_error(VAR_NAMES[_SHIFTS.index(s)])
        k += e << s
    return k


def _unpack(k):
    return tuple(((k >> s) & _MASK) - _OFF for s in _SHIFTS)


def _kneg(k):
    return 2 * PACK_ZERO - k


def _narrow(keys):
    """Whether every lane value of the keys lies in [-2^22, 2^22)."""
    tops = _TOPS
    for k in keys:
        tops &= k ^ (k << 1)
    return tops == _TOPS


def _bounds(keys):
    """Per-lane lists of the least and the greatest lane value of keys."""
    lanes = list(zip(*map(_unpack, keys)))
    return [min(x) for x in lanes], [max(x) for x in lanes]


def _check_bounds(lo, hi):
    """Raise ValueError unless every lane bound lies in its lane."""
    for name, a, b in zip(VAR_NAMES, lo, hi):
        if a < -_OFF or b >= _OFF:
            raise _lane_error(name)


def _check_sums(a, b):
    """Raise ValueError unless every key of a plus every key of b, one
    offset taken away, keeps each lane value in its lane."""
    if not _narrow(chain(a, b)):
        (lo_a, hi_a), (lo_b, hi_b) = _bounds(a), _bounds(b)
        _check_bounds(map(add, lo_a, lo_b), map(add, hi_a, hi_b))


def _power(x, n, one):
    """x ** n by square-and-multiply, for a nonnegative int n; one is the
    unit of x's ring."""
    if not isinstance(n, int) or n < 0:
        raise ValueError("power wants a nonnegative integer, not %r" % (n,))
    out = one
    while n:
        if n & 1:
            out = out * x
        n >>= 1
        if n:
            x = x * x
    return out


def exps_str(exps):
    """Canonical text form, doubled exponents in: t1^(a/2) t2^(b/2) ..."""
    parts = []
    for name, e in zip(VAR_NAMES, exps):
        if e == 0:
            continue
        if e == 2:
            parts.append(name)
        elif e % 2 == 0:
            parts.append("%s^%d" % (name, e // 2))
        else:
            parts.append("%s^(%d/2)" % (name, e))
    return " ".join(parts) if parts else "1"


class LaurentPoly:
    """Sparse Laurent polynomial with integer coefficients.

    Stored as a dict from packed monomial keys to nonzero coefficients.
    Instances are immutable by convention: no method mutates self, and the
    term dict must not be touched from outside.
    """

    __slots__ = ("d",)

    def __init__(self, d=None):
        self.d = d if d is not None else {}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero():
        return LaurentPoly({})

    @staticmethod
    def const(c):
        if type(c) is not int:
            raise TypeError("coefficient %r is not an int" % (c,))
        return LaurentPoly({PACK_ZERO: c}) if c else LaurentPoly({})

    @staticmethod
    def term(c, exps):
        if type(c) is not int:
            raise TypeError("coefficient %r is not an int" % (c,))
        if not c:
            return LaurentPoly({})
        return LaurentPoly({_pack(exps): c})

    @staticmethod
    def var(i, doubled_power=2):
        return LaurentPoly({_pack([doubled_power if j == i else 0 for j in range(NVARS)]): 1})

    @staticmethod
    def from_terms(pairs):
        d = {}
        for c, exps in pairs:
            k = _pack(exps)
            c = d.get(k, 0) + c
            if c:
                if type(c) is not int:
                    raise TypeError("coefficient %r is not an int" % (c,))
                d[k] = c
            elif k in d:
                del d[k]
        return LaurentPoly(d)

    # -- predicates and views -------------------------------------------

    def is_zero(self):
        return not self.d

    def __bool__(self):
        return bool(self.d)

    def is_constant(self):
        return not self.d or (len(self.d) == 1 and PACK_ZERO in self.d)

    def as_constant(self):
        """The constant value, or None if not constant."""
        if not self.d:
            return 0
        if len(self.d) == 1 and PACK_ZERO in self.d:
            return self.d[PACK_ZERO]
        return None

    def terms(self):
        """Terms in canonical (ascending lex on doubled exponents) order."""
        return [(_unpack(k), self.d[k]) for k in sorted(self.d)]

    def coeff(self, exps):
        return self.d.get(_pack(exps), 0)

    def coefficient_sum(self):
        """Value at t1 = t2 = t3 = u2 = u3 = 1 (the rank of a character)."""
        return sum(self.d.values())

    def num_terms(self):
        return len(self.d)

    def uses_vars(self):
        """Set of variable indices with a nonzero exponent somewhere."""
        used = set()
        for k in self.d:
            for i, e in enumerate(_unpack(k)):
                if e:
                    used.add(i)
        return used

    # -- ring operations ----------------------------------------------

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            return self.d == other.d
        if isinstance(other, int):
            return self.d == LaurentPoly.const(other).d
        return NotImplemented

    def __hash__(self):
        # a constant polynomial equals its constant, so it hashes as one
        c = self.as_constant()
        if c is not None:
            return hash(c)
        return hash(sum(self.d)) ^ len(self.d)

    def __neg__(self):
        return LaurentPoly({k: -c for k, c in self.d.items()})

    def __add__(self, other):
        if type(other) is not LaurentPoly:
            if isinstance(other, int):
                other = LaurentPoly.const(other)
            elif not isinstance(other, LaurentPoly):
                return NotImplemented
        a, b = self.d, other.d
        if len(a) < len(b):
            a, b = b, a
        d = dict(a)
        for k, c in b.items():
            s = d.get(k, 0) + c
            if s:
                d[k] = s
            elif k in d:
                del d[k]
        return LaurentPoly(d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not LaurentPoly:
            if isinstance(other, int):
                if not other:
                    return LaurentPoly({})
                return LaurentPoly({k: c * other for k, c in self.d.items()})
            if not isinstance(other, LaurentPoly):
                return NotImplemented
        a, b = self.d, other.d
        if len(a) > len(b):
            a, b = b, a
        _check_sums(a, b)
        d = {}
        get = d.get
        for ka, ca in a.items():
            ka -= PACK_ZERO
            for kb, cb in b.items():
                k = ka + kb
                s = get(k, 0) + ca * cb
                if s:
                    d[k] = s
                elif k in d:
                    del d[k]
        return LaurentPoly(d)

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n, LaurentPoly.const(1))

    def bar(self):
        """The weight-dual involution: every monomial exponent is negated."""
        if not _narrow(self.d):
            lo, hi = _bounds(self.d)
            _check_bounds([-x for x in hi], [-x for x in lo])
        base = 2 * PACK_ZERO
        return LaurentPoly({base - k: c for k, c in self.d.items()})

    # -- structure helpers --------------------------------------------

    def monomial_content(self):
        """Componentwise min of exponents; the monomial shift making this a
        genuine polynomial with a zero min-corner per coordinate."""
        if not self.d:
            return ZERO_EXPS
        return tuple(min((k >> s) & _MASK for k in self.d) - _OFF for s in _SHIFTS)

    def shift(self, exps):
        """Multiply by the monomial with the given doubled exponents."""
        if exps == ZERO_EXPS:
            return self
        k = _pack(exps)
        _check_sums(self.d, (k,))
        off = k - PACK_ZERO
        return LaurentPoly({k + off: c for k, c in self.d.items()})

    def content(self):
        """The gcd of the coefficients: positive, or 0 for the zero
        polynomial."""
        return gcd(*self.d.values())

    def primitive_split(self):
        """(scalar, monomial_exps, primitive) with
        self = scalar * monomial * primitive, scalar an int and primitive
        content-free with lex-leading coefficient +1."""
        if not self.d:
            return 0, ZERO_EXPS, LaurentPoly({})
        shift = self.monomial_content()
        g = self.content()
        if self.d[max(self.d)] < 0:
            g = -g
        return g, shift, divide_exact(self, LaurentPoly.term(g, shift))

    # -- substitutions -------------------------------------------------

    def subst_t3_cy(self):
        """t3 -> (t1 t2)^(-1), the Calabi-Yau specialization, monomial-wise:
        a key with t3 lane value c moves by -c in the t1, t2 and t3 lanes."""
        if not _narrow(self.d):
            lo, hi = _bounds(self.d)
            _check_bounds([x - hi[2] for x in lo[:2]], [x - lo[2] for x in hi[:2]])
        s2 = _SHIFTS[2]
        unit = (1 << _SHIFTS[0]) + (1 << _SHIFTS[1]) + (1 << s2)
        d = {}
        for k, coeff in self.d.items():
            e = k - (((k >> s2) & _MASK) - _OFF) * unit
            s = d.get(e, 0) + coeff
            if s:
                d[e] = s
            elif e in d:
                del d[e]
        return LaurentPoly(d)

    # -- display -------------------------------------------------------

    def __str__(self):
        if not self.d:
            return "0"
        parts = []
        for k in sorted(self.d, reverse=True):
            c = self.d[k]
            m = exps_str(_unpack(k))
            if m == "1":
                s = str(c)
            elif c == 1:
                s = m
            elif c == -1:
                s = "-" + m
            else:
                s = "%s %s" % (c, m)
            parts.append(s)
        out = parts[0]
        for s in parts[1:]:
            out += " - " + s[1:] if s.startswith("-") else " + " + s
        return out

    def __repr__(self):
        return "LaurentPoly(%s)" % self

    def to_json(self):
        """Canonical term list [[coeff_string, [doubled exponents]], ...]."""
        return [[str(c), list(e)] for e, c in self.terms()]


# Generators and distinguished elements.
ONE = LaurentPoly.const(1)
T1 = LaurentPoly.var(0)
T2 = LaurentPoly.var(1)
T3 = LaurentPoly.var(2)
KAPPA = LaurentPoly.term(1, (2, 2, 2, 0, 0))


def kappa_pow(doubled):
    """kappa^(doubled/2) as a monomial."""
    return LaurentPoly.term(1, (doubled, doubled, doubled, 0, 0))


def _divide_by_binomial(p, q):
    """Exact quotient p/q for a two-term divisor with coefficients +-1, or
    None.

    Terms of p are grouped into lines along the divisor's exponent
    direction; on each line the quotient obeys a first-order recurrence.
    With divisor c1 (t^mu + s), p is divisible only if sum (-s)^j p_j
    vanishes on every line, a linear-time precheck that rejects the
    common case inside the trial-division reduction loops before any
    structure is built.
    """
    (k1, c1), (k2, c2) = sorted(q.d.items(), reverse=True)
    mu = k1 - k2
    e1 = _unpack(k1)
    e2 = _unpack(k2)
    i0 = next(i for i in range(NVARS) if e1[i] != e2[i])
    s0 = _SHIFTS[i0]
    step = e1[i0] - e2[i0]
    lane2 = (k2 >> s0) & _MASK
    alt = c1 == c2
    sums = {}
    get = sums.get
    for k, c in p.d.items():
        j = (((k >> s0) & _MASK) - lane2) // step
        base = k - j * mu
        if alt and j % 2:
            c = -c
        sums[base] = get(base, 0) + c
    if any(sums.values()):
        return None
    lines = {}
    for k, c in p.d.items():
        j = (((k >> s0) & _MASK) - lane2) // step
        base = k - j * mu
        entry = lines.get(base)
        if entry is None:
            lines[base] = [(j, c)]
        else:
            entry.append((j, c))
    out = {}
    base_off = k2 - PACK_ZERO
    for base, terms in lines.items():
        terms.sort()
        qprev = 0
        pos = terms[0][0]
        for j, c in terms:
            while pos < j and qprev:
                qprev = -qprev * c1 * c2
                out[base + pos * mu - base_off] = qprev
                pos += 1
            val = c - c1 * qprev
            qprev = val * c2
            if qprev:
                out[base + j * mu - base_off] = qprev
            pos = j + 1
        if qprev:
            return None
    return LaurentPoly(out)


def divide_exact(p, q):
    """Exact quotient p/q in the integer Laurent ring, or None if q does
    not divide p there (a quotient with a non-integer coefficient counts as
    no quotient; for a primitive q none arises, by Gauss's lemma).

    Every term of an exact quotient lies within the per-lane bounds
    lo_p - lo_q and hi_p - hi_q, so those are checked once, before any path
    forms a key: a quotient that would leave a lane raises ValueError, as a
    product would. When every lane value of p and q lies in [-2^22, 2^22),
    no difference of two can leave its lane and the bounds are not formed.

    Two-term divisors with coefficients +-1, the only binomials the
    vertex and wall-crossing code divides by, take a line-recurrence path.
    Every other divisor takes long division (_long_division).
    """
    if q.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if p.is_zero():
        return LaurentPoly({})
    if not _narrow(chain(p.d, q.d)):
        (lo_p, hi_p), (lo_q, hi_q) = _bounds(p.d), _bounds(q.d)
        _check_bounds(map(sub, lo_p, lo_q), map(sub, hi_p, hi_q))
    if len(q.d) == 1:
        ((kq, cq),) = q.d.items()
        off = kq - PACK_ZERO
        if cq == 1:
            return LaurentPoly({k - off: c for k, c in p.d.items()})
        out = {}
        for k, c in p.d.items():
            qc, r = divmod(c, cq)
            if r:
                return None
            out[k - off] = qc
        return LaurentPoly(out)
    if len(q.d) == 2 and all(c == 1 or c == -1 for c in q.d.values()):
        return _divide_by_binomial(p, q)
    return _long_division(p, q)


def _long_division(p, q):
    """divide_exact by the lex-leading term of q, for a quotient whose
    bounds lie in their lanes.

    It emits the quotient's terms in decreasing lex order. A term below
    the quotient's lower bound lo_p - lo_q proves that there is no
    quotient. So does a term above 2^23 - 1 - max(hi_q, 0) in a lane: it,
    or its product with a term of q, would leave the lane, and no term of
    an exact quotient does, since its products with q's terms lie within
    p's bounds. So every key formed, quotient or remainder, stays in its
    lane."""
    lo_q, hi_q = _bounds(q.d)
    qlead = max(q.d)
    qlc = q.d[qlead]
    lead = _unpack(qlead)
    # a term k of the remainder gives the quotient term k / lead, so each
    # lane value of k must lie in [floor, ceil]
    floor = [a - b + c for a, b, c in zip(p.monomial_content(), lo_q, lead)]
    ceil = [_OFF - 1 - max(h, 0) + c for h, c in zip(hi_q, lead)]
    lanes = list(zip(_SHIFTS, floor, ceil))
    qrest = [(k - PACK_ZERO, c) for k, c in q.d.items() if k != qlead]
    qlead -= PACK_ZERO
    pd = dict(p.d)
    out = {}
    heap = [-k for k in pd]
    heapq.heapify(heap)
    while heap:
        k = -heapq.heappop(heap)
        c = pd.get(k, 0)
        if not c:
            continue
        for sh, a, b in lanes:
            x = ((k >> sh) & _MASK) - _OFF
            if x < a or x > b:
                return None
        qc, r = divmod(c, qlc)
        if r:
            return None
        qk = k - qlead
        out[qk] = qc
        del pd[k]
        for dk, dc in qrest:
            nk = qk + dk
            s = pd.get(nk, 0) - qc * dc
            if s:
                if nk not in pd:
                    heapq.heappush(heap, -nk)
                pd[nk] = s
            elif nk in pd:
                del pd[nk]
    if pd:
        return None
    return LaurentPoly(out)


def _fold_factors(num, fac, factors, scale=1):
    """num / (scale * prod poly^mult) over the pairs (poly, mult) of
    factors, with the denominator kept factored: the primitive part of each
    poly goes into the factor dict fac, the monomials of all of them shift
    the numerator, and their signed contents multiply scale. Returns the
    numerator and scale in lowest terms (see _lowest_terms)."""
    shift = ZERO_EXPS
    for poly, mult in factors:
        g, shiftexp, prim = poly.primitive_split()
        if g != 1:
            scale *= g ** mult
        if shiftexp != ZERO_EXPS:
            shift = tuple(s - mult * x for s, x in zip(shift, shiftexp))
        if not prim.is_constant():
            fac[prim] = fac.get(prim, 0) + mult
    if scale < 0:
        num, scale = -num, -scale
    if scale != 1:
        num, scale = _lowest_terms(num, scale)
    return num.shift(shift), scale


def _lowest_terms(num, scale):
    """(num / g, scale / g) for g the gcd of scale > 0 and num's content."""
    g = gcd(num.content(), scale)
    if g == 1:
        return num, scale
    return divide_exact(num, LaurentPoly.const(g)), scale // g


def _catch_up(num, want, have):
    """num * prod f^(e - have[f]) over the factors f^e of want."""
    for f, e in want.items():
        extra = e - have.get(f, 0)
        if extra:
            num = num * f ** extra
    return num


class RatFunc:
    """Normalized rational function num / (scale * prod(factor^mult)).

    The denominator is kept factored: a dict mapping primitive factor
    polynomials (integer content 1, lex-leading coefficient +1, no monomial
    content) to positive multiplicities, and scale, a positive int coprime
    to the numerator's content. The pair is reduced by trial division: no
    stored factor divides the numerator. Sign and monomial content of the
    denominator are always folded into the numerator, so the expanded
    denominator is scale times a primitive polynomial with lex-leading
    coefficient +1, which makes equality of normal forms decidable and
    serialization canonical. Only a denominator with integer content, in
    _fold_factors, makes scale exceed 1; a sum of fixed-point weights never
    does.
    """

    __slots__ = ("num", "fac", "scale")

    def __init__(self, num, den=ONE):
        if isinstance(num, int):
            num = LaurentPoly.const(num)
        if isinstance(den, int):
            den = LaurentPoly.const(den)
        if den.is_zero():
            raise ZeroDivisionError("division by zero")
        self.fac = {}
        self.num, self.scale = _fold_factors(num, self.fac, [(den, 1)])
        self._reduce()

    @staticmethod
    def _raw(num, fac, scale=1):
        if scale != 1:
            num, scale = _lowest_terms(num, scale)
        r = RatFunc._prereduced(num, fac, scale)
        r._reduce()
        return r

    @staticmethod
    def _prereduced(num, fac, scale=1):
        r = object.__new__(RatFunc)
        r.num = num
        r.fac = fac
        r.scale = scale
        return r

    def _reduce(self):
        # One pass suffices: a factor that does not divide num cannot
        # divide a quotient of num either. A primitive factor leaves the
        # content of num, and so its gcd with scale, unchanged.
        num = self.num
        if num.is_zero():
            self.fac = {}
            return
        fac = self.fac
        for f in list(fac):
            mult = fac[f]
            while mult:
                q = divide_exact(num, f)
                if q is None:
                    break
                num = q
                mult -= 1
            if mult:
                fac[f] = mult
            else:
                del fac[f]
        self.num = num

    # -- constructors ---------------------------------------------------

    @staticmethod
    def from_poly(p):
        return RatFunc._prereduced(
            p if isinstance(p, LaurentPoly) else LaurentPoly.const(p), {}
        )

    @staticmethod
    def zero():
        return RatFunc._prereduced(LaurentPoly({}), {})

    @staticmethod
    def one():
        return RatFunc._prereduced(LaurentPoly.const(1), {})

    # -- views ------------------------------------------------------------

    @property
    def den(self):
        """The expanded denominator (scale times a primitive polynomial
        with lex-leading coefficient +1)."""
        # canonical factor order, whatever order the factors came in
        order = sorted(self.fac, key=LaurentPoly.terms)
        return _catch_up(LaurentPoly.const(self.scale), {f: self.fac[f] for f in order}, {})

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def is_poly(self):
        """True if the denominator is a constant (the scale)."""
        return not self.fac

    def as_constant(self):
        """Constant value (an int, or a Fraction if scale > 1), or None."""
        if self.fac:
            return None
        c = self.num.as_constant()
        if c is None or self.scale == 1:
            return c
        from fractions import Fraction

        return Fraction(c, self.scale)

    def uses_vars(self):
        used = self.num.uses_vars()
        for f in self.fac:
            used |= f.uses_vars()
        return used

    # -- arithmetic ---------------------------------------------------

    def __neg__(self):
        return RatFunc._prereduced(-self.num, dict(self.fac), self.scale)

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return other
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        lcm = dict(self.fac)
        for f, mult in other.fac.items():
            if lcm.get(f, 0) < mult:
                lcm[f] = mult
        a = _catch_up(self.num, lcm, self.fac)
        b = _catch_up(other.num, lcm, other.fac)
        scale = self.scale
        if scale != other.scale:
            g = gcd(scale, other.scale)
            a = a * (other.scale // g)
            b = b * (scale // g)
            scale *= other.scale // g
        return RatFunc._raw(a + b, lcm, scale)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return other
        if self.num.is_zero() or other.num.is_zero():
            return RatFunc.zero()
        fac = dict(self.fac)
        for f, mult in other.fac.items():
            fac[f] = fac.get(f, 0) + mult
        return RatFunc._raw(self.num * other.num, fac, self.scale * other.scale)

    __rmul__ = __mul__

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDivisionError("division by zero")
        fac = {}
        num, scale = _fold_factors(
            _catch_up(LaurentPoly.const(self.scale), self.fac, {}), fac, [(self.num, 1)]
        )
        return RatFunc._raw(num, fac, scale)

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return other
        return self * other.inverse()

    def __pow__(self, n):
        return _power(self, n, RatFunc.one())

    def __eq__(self, other):
        other = _as_ratfunc(other)
        if other is NotImplemented:
            return other
        shared = {}
        for f in self.fac.keys() & other.fac.keys():
            shared[f] = min(self.fac[f], other.fac[f])
        a = _catch_up(self.num, other.fac, shared)
        b = _catch_up(other.num, self.fac, shared)
        if self.scale != other.scale:
            a, b = a * other.scale, b * self.scale
        return a == b

    def bar(self):
        fac = {}
        num, scale = _fold_factors(
            self.num.bar(), fac, [(f.bar(), mult) for f, mult in self.fac.items()], self.scale
        )
        return RatFunc._raw(num, fac, scale)

    # -- substitutions --------------------------------------------------

    def subst_t3_cy(self):
        """Exact t3 -> (t1 t2)^(-1) specialization.

        Exponents are half-integers, so kappa^(1/2) - 1 generates the
        kernel of the specialization. Each stored factor is specialized;
        while the result vanishes, the factor is divided by that generator
        and the numerator by it once for each unit of the factor's
        multiplicity. A numerator that runs out of the generator first
        leaves a genuine singularity.
        """
        root = kappa_pow(1) - ONE
        num = self.num
        den = LaurentPoly.const(self.scale)
        for f, mult in self.fac.items():
            spec = f.subst_t3_cy()
            while spec.is_zero():
                f = divide_exact(f, root)
                for _ in range(mult):
                    num = divide_exact(num, root)
                    if num is None:
                        raise ZeroDivisionError("singular specialization")
                spec = f.subst_t3_cy()
            den = den * spec ** mult
        return RatFunc(num.subst_t3_cy(), den)

    # -- display ----------------------------------------------------------

    def __str__(self):
        if self.is_poly() and self.scale == 1:
            return str(self.num)
        return "(%s) / (%s)" % (self.num, self.den)

    def __repr__(self):
        return "RatFunc(%s)" % self

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}


def _as_ratfunc(x):
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, LaurentPoly):
        return RatFunc.from_poly(x)
    if isinstance(x, int):
        return RatFunc.from_poly(LaurentPoly.const(x))
    return NotImplemented


class QSeries:
    """Truncated power series in Q with exact coefficients.

    Coefficients are RatFunc, or formal wall-crossing expressions
    (wallcross.FormalExpr): exact rings with +, -, *, is_zero and, for the
    leading coefficient of a divisor, inverse. The coefficient list always
    spans min_power..trunc inclusive and arithmetic never pretends to know
    anything beyond trunc.
    """

    __slots__ = ("min_power", "coeffs", "trunc")

    def __init__(self, min_power, coeffs, trunc):
        if len(coeffs) != trunc - min_power + 1:
            raise ValueError("coefficient list does not span min_power..trunc")
        self.min_power = min_power
        self.coeffs = list(coeffs)
        self.trunc = trunc

    def coefficient(self, n):
        if n < self.min_power:
            return self.coeffs[0] * 0
        if n > self.trunc:
            raise IndexError("coefficient beyond truncation order")
        return self.coeffs[n - self.min_power]

    def truncate(self, order):
        if order > self.trunc:
            raise ValueError("cannot extend a truncated series")
        return QSeries(self.min_power, self.coeffs[: order - self.min_power + 1], order)

    def __neg__(self):
        return QSeries(self.min_power, [-c for c in self.coeffs], self.trunc)

    def __add__(self, other):
        lo = min(self.min_power, other.min_power)
        hi = min(self.trunc, other.trunc)
        zero = self.coeffs[0] * 0
        coeffs = []
        for n in range(lo, hi + 1):
            a = self.coeffs[n - self.min_power] if self.min_power <= n <= self.trunc else zero
            b = other.coeffs[n - other.min_power] if other.min_power <= n <= other.trunc else zero
            coeffs.append(a + b)
        return QSeries(lo, coeffs, hi)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        lo = self.min_power + other.min_power
        hi = min(self.trunc + other.min_power, other.trunc + self.min_power)
        zero = self.coeffs[0] * 0
        coeffs = [zero] * (hi - lo + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            na = self.min_power + i
            for j, b in enumerate(other.coeffs):
                n = na + other.min_power + j
                if n > hi:
                    break
                coeffs[n - lo] = coeffs[n - lo] + a * b
        return QSeries(lo, coeffs, hi)

    def __truediv__(self, other):
        """Quotient by a series whose coefficient at min_power is
        invertible, in one recursion: with a = self, b = other and both
        indexed from their min_power, q_n = b_0^(-1) (a_n - sum_{k>=1}
        b_k q_(n-k)). The quotient starts at a.min_power - b.min_power and
        stops where a or b runs out of known coefficients."""
        lead = other.coeffs[0]
        if lead.is_zero():
            raise ZeroDivisionError("non-invertible series")
        inv0 = lead.inverse()
        lo = self.min_power - other.min_power
        hi = min(
            self.trunc - other.min_power,
            other.trunc + self.min_power - 2 * other.min_power,
        )
        b = other.coeffs
        out = []
        for n, acc in enumerate(self.coeffs[: hi - lo + 1]):
            for k in range(1, n + 1):
                acc = acc - b[k] * out[n - k]
            out.append(inv0 * acc)
        return QSeries(lo, out, hi)

    def subst_q_scale(self, unit):
        """Q -> unit * Q: the coefficient at power n picks up unit^n. The
        series must start at Q^0 or later."""
        coeffs = [c * unit ** (self.min_power + i) for i, c in enumerate(self.coeffs)]
        return QSeries(self.min_power, coeffs, self.trunc)

    def eq_through(self, other, order):
        """Exact coefficientwise equality through the given order."""
        if order > self.trunc or order > other.trunc:
            raise ValueError("order beyond truncation")
        lo = min(self.min_power, other.min_power)
        for n in range(lo, order + 1):
            a = self.coefficient(n)
            b = other.coefficient(n)
            if not a == b:
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, QSeries):
            return NotImplemented
        order = min(self.trunc, other.trunc)
        return self.eq_through(other, order)

    def __str__(self):
        parts = []
        for i, c in enumerate(self.coeffs):
            n = self.min_power + i
            parts.append("Q^%d: %s" % (n, c))
        return "{ " + ", ".join(parts) + " }"
