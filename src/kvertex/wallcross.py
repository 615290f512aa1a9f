"""Formal wall-crossing engine.

Works over polynomials in two families of commuting symbols: hilb[m] for
the 0-leg rank-one invariants (m >= 1) and pair[m] for the on-wall rank-two
invariants (m >= 0), with coefficients that are exact rational functions of
kappa. The wall-crossing transfer coefficients are built from restricted
word sums and quantum-factorial prefactors, and the engine verifies that
the iterated wall-crossing collapses to the expected series factorizations.

Frame dimension N is an explicit argument everywhere: any N large enough
for the requested order works, and too-small N surfaces as a range error.
The cutoff below which moduli are empty is fixed at -1 (0-leg
normalization), so hilb symbols start at index 1 with hilb[0] = 1.
"""

from __future__ import annotations

from .exactalg import LaurentPoly, QSeries, RatFunc, _as_ratfunc, _power
from .qcombi import (
    compositions,
    quantum_factorial,
    restricted_word_sum,
    shifted_word_sum,
)

HILB = "hilb"
PAIR = "pair"


class FormalExpr:
    """Polynomial in commuting symbols with kappa-rational coefficients.

    Keys are sorted tuples of (family, index) pairs; the empty tuple is the
    scalar part. Zero coefficients are pruned, so equality is dict
    equality."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms or {}

    @staticmethod
    def scalar(c):
        """An int, LaurentPoly or RatFunc as a constant expression;
        NotImplemented for anything else."""
        c = _as_ratfunc(c)
        if c is NotImplemented:
            return c
        return FormalExpr({(): c} if c else {})

    @staticmethod
    def symbol(family, index):
        return FormalExpr({((family, index),): RatFunc.one()})

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        other = _as_formal(other)
        if other is NotImplemented:
            return other
        if self.terms.keys() != other.terms.keys():
            return False
        return all(other.terms[k] == v for k, v in self.terms.items())

    def __neg__(self):
        return FormalExpr({k: -v for k, v in self.terms.items()})

    def __add__(self, other):
        other = _as_formal(other)
        if other is NotImplemented:
            return other
        out = dict(self.terms)
        for k, v in other.terms.items():
            s = out.get(k)
            s = v if s is None else s + v
            if s.is_zero():
                out.pop(k, None)
            else:
                out[k] = s
        return FormalExpr(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_formal(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_formal(other)
        if other is NotImplemented:
            return other
        out = {}
        for ka, va in self.terms.items():
            for kb, vb in other.terms.items():
                k = tuple(sorted(ka + kb))
                v = va * vb
                s = out.get(k)
                s = v if s is None else s + v
                if s.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = s
        return FormalExpr(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        return _power(self, n, FormalExpr.scalar(1))

    def inverse(self):
        c = self.as_scalar()
        if c is None:
            raise ZeroDivisionError("only scalar formal expressions invert")
        return FormalExpr({(): c.inverse()})

    def as_scalar(self):
        if not self.terms:
            return RatFunc.zero()
        if set(self.terms) == {()}:
            return self.terms[()]
        return None

    def substitute(self, values):
        """Evaluate by sending each symbol to a RatFunc."""
        out = RatFunc.zero()
        for k, v in self.terms.items():
            acc = v
            for sym in k:
                acc = acc * values[sym]
            out = out + acc
        return out

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms):
            mono = " ".join("%s[%d]" % sym for sym in k) or "1"
            parts.append("(%s) %s" % (self.terms[k], mono))
        return " + ".join(parts)

    def __repr__(self):
        return "FormalExpr(%s)" % self


def _as_formal(x):
    return x if isinstance(x, FormalExpr) else FormalExpr.scalar(x)


# Transfer kinds. Each entry gives the word sum of mvec + (N - m,) for a
# composition mvec of m, the shifts (a, b) of the prefactor
# [N-m-a]! prod [m_i - 1]! / [N-b]!, and whether the term carries the
# sign (-1)^len(mvec). The word sum is looked up at call time, so a
# wrapped restricted_word_sum sees every call.
_KINDS = {
    # DT-to-PT in one crossing; collapses to hilb[m]
    "LT": (lambda full: restricted_word_sum("LT", full), 0, 0, False),
    # wall into the PT chamber
    "B": (lambda full: restricted_word_sum("B", full), 1, 1, False),
    # DT chamber onto the wall
    "ALL": (lambda full: restricted_word_sum("ALL", full), 1, 0, False),
    # the one-go iterated crossing of pt_from_dt_series
    "GT": (lambda full: restricted_word_sum("GT", full), 0, 0, True),
    # negative control: in place of LT it breaks the Joyce factorization
    "SHIFTED": (shifted_word_sum, 0, 0, False),
}


def _composition_sum(kind, m, N):
    """Transfer coefficient of the given kind at Q^m: the sum over
    compositions of m of the kind's term times the matching hilb
    symbols.

    Every term has the denominator [N-b]!, so each composition gives an
    integer numerator, word sum times [N-m-a]! prod [m_i - 1]! with the
    kind's sign; the numerators are added per hilb monomial, and each
    monomial's RatFunc is formed once."""
    if not 1 <= m <= N - 1:
        raise ValueError("need 1 <= m <= N-1")
    word_sum, a, b, alternating = _KINDS[kind]
    nums = {}
    for mvec in compositions(m):
        num = word_sum(mvec + (N - m,))
        if num.is_zero():
            continue
        num = num * quantum_factorial(N - m - a)
        for mi in mvec:
            num = num * quantum_factorial(mi - 1)
        if alternating and len(mvec) % 2:
            num = -num
        key = tuple(sorted((HILB, mi) for mi in mvec))
        nums[key] = nums[key] + num if key in nums else num
    den = quantum_factorial(N - b)
    return FormalExpr({k: RatFunc(num, den) for k, num in nums.items() if num})


def wall_transfer(m, N):
    """Transfer coefficient of the combined DT-to-PT wall-crossing: the sum
    over compositions of m of the ascending-constrained word sum times
    [N-m]! prod [m_i - 1]! / [N]! times the matching hilb symbols.

    Collapses to hilb[m] for every admissible N. By the JOYCE_LT closed
    form the one-part composition (m,) alone carries coefficient 1, and
    the ordered compositions with two or more parts cancel among
    themselves, since their symmetrized word sums vanish; single terms
    such as (1, 2) do not vanish, only their sum over rearrangements does.
    """
    return _composition_sum("LT", m, N)


def hilb_symbol_series(order):
    """1 + sum_{m>=1} Q^m hilb[m], truncated."""
    coeffs = [FormalExpr.scalar(1)]
    coeffs += [FormalExpr.symbol(HILB, m) for m in range(1, order + 1)]
    return QSeries(0, coeffs, order)


def pair_symbol_series(order):
    """sum_{m>=0} Q^m pair[m], truncated."""
    return QSeries(0, [FormalExpr.symbol(PAIR, m) for m in range(order + 1)], order)


def wall_transfer_series(order, N, kind="LT"):
    """Q-series of the transfer coefficients of one kind (constant term
    1); kind is "LT", "B", "ALL", "GT" or the negative control
    "SHIFTED"."""
    if order > N - 1:
        raise ValueError("order exceeds frame capacity")
    coeffs = [FormalExpr.scalar(1)]
    coeffs += [_composition_sum(kind, m, N) for m in range(1, order + 1)]
    return QSeries(0, coeffs, order)


def joyce_check(order, N):
    """Verify the two-step factorization: the pair-symbol series times the
    transfer series must equal the pair-symbol series times the hilb-symbol
    series, coefficientwise through the given order."""
    pair = pair_symbol_series(order)
    lhs = pair * hilb_symbol_series(order)
    rhs = pair * wall_transfer_series(order, N, "LT")
    return lhs.eq_through(rhs, order)


def pt_from_dt_series(order, N):
    """Express the PT-side series in pair and hilb symbols via the one-go
    iterated wall-crossing: the pair-symbol series times the series of
    alternating sums over compositions of the descending-constrained word
    sums against the hilb symbols of the parts."""
    return pair_symbol_series(order) * wall_transfer_series(order, N, "GT")


def mochizuki_check(order, N):
    """The iterated wall-crossing must agree with the series identity:
    PT-side series = pair-symbol series divided by the hilb-symbol
    series."""
    lhs = pt_from_dt_series(order, N)
    rhs = pair_symbol_series(order) / hilb_symbol_series(order)
    return lhs.eq_through(rhs, order)


def _bind_hilb(wseries, hilb):
    """The transfer series with each hilb[m] bound to the computed 0-leg
    coefficient at Q^m."""
    values = {(HILB, m): hilb.series.coefficient(m) for m in range(wseries.trunc + 1)}
    return QSeries(0, [c.substitute(values) for c in wseries.coeffs], wseries.trunc)


def rank2_bridge(order, N, hilb):
    """Cross-check of the formal PT-side transfer against geometry: with
    hilb[m] bound to the computed 0-leg coefficients, the transfer series
    must equal the independently computed rank-2 quotient-scheme series.

    hilb is the 0-leg VertexSeries computed through at least the given
    order."""
    from .vertexk import quot2_vertex_series

    lhs = _bind_hilb(wall_transfer_series(order, N, "B"), hilb)
    return lhs.eq_through(quot2_vertex_series(order).series, order)


def dt_side_check(order, N, hilb, quot):
    """Valuewise check of the DT-side relation: the 0-leg series must equal
    the rank-2 series times the evaluated DT-side transfer series."""
    rhs = quot.series * _bind_hilb(wall_transfer_series(order, N, "ALL"), hilb)
    return hilb.series.eq_through(rhs, order)


def shifted_product_series(order):
    """(sum (-Q kappa^(1/2))^n hilb[n]) (sum (-Q kappa^(-1/2))^n hilb[n]),
    the structural form of the PT-side transfer series."""
    up = hilb_symbol_series(order).subst_q_scale(
        FormalExpr.scalar(LaurentPoly.term(-1, (1, 1, 1, 0, 0)))
    )
    down = hilb_symbol_series(order).subst_q_scale(
        FormalExpr.scalar(LaurentPoly.term(-1, (-1, -1, -1, 0, 0)))
    )
    return up * down
