"""Formal wall-crossing engine: transfer coefficients, collapses, and the
geometric bridges."""

import pytest

from kvertex.exactalg import LaurentPoly, RatFunc
from kvertex.qcombi import (
    compositions,
    quantum_factorial,
    restricted_word_sum,
    shifted_word_sum,
)
from kvertex.vertexk import dt_vertex_series, quot2_vertex_series
from kvertex.wallcross import (
    HILB,
    PAIR,
    FormalExpr,
    _composition_sum,
    dt_side_check,
    hilb_symbol_series,
    joyce_check,
    mochizuki_check,
    pair_symbol_series,
    pt_from_dt_series,
    rank2_bridge,
    shifted_product_series,
    wall_transfer,
    wall_transfer_series,
)


def drop_family(expr, family):
    """expr without every term containing a symbol of the given family."""
    return FormalExpr(
        {k: v for k, v in expr.terms.items() if all(f != family for f, _ in k)}
    )


def test_formal_expr_ring():
    x = FormalExpr.symbol(HILB, 1)
    y = FormalExpr.symbol(PAIR, 0)
    two = FormalExpr.scalar(2)
    assert x + x == x * two
    assert (x + y) * (x - y) == x * x - y * y
    assert (x - x).is_zero()
    assert x * FormalExpr.scalar(0) == FormalExpr.scalar(0)
    assert str(x * y)


def test_formal_expr_substitute_and_zero():
    x = FormalExpr.symbol(HILB, 1)
    e = x * x + FormalExpr.scalar(3)
    val = e.substitute({(HILB, 1): RatFunc.from_poly(LaurentPoly.const(2))})
    assert val.as_constant() == 7
    assert drop_family(e, HILB) == FormalExpr.scalar(3)


def test_wall_transfer_collapses():
    for m in range(1, 5):
        for N in range(m + 1, m + 4):
            assert wall_transfer(m, N) == FormalExpr.symbol(HILB, m), (m, N)


# Each transfer kind written out apart from wallcross: the word sum of
# mvec + (N - m,) for a composition mvec of m, the shifts (a, b) of the
# prefactor [N-m-a]! prod [m_i - 1]! / [N-b]!, and whether the term carries
# the sign (-1)^len(mvec).
PER_COMPOSITION = {
    "LT": (lambda full: restricted_word_sum("LT", full), 0, 0, False),
    "B": (lambda full: restricted_word_sum("B", full), 1, 1, False),
    "ALL": (lambda full: restricted_word_sum("ALL", full), 1, 0, False),
    "GT": (lambda full: restricted_word_sum("GT", full), 0, 0, True),
    "SHIFTED": (shifted_word_sum, 0, 0, False),
}


def composition_term(kind, mvec, N):
    """One composition's term as its own RatFunc, multiplied out factor by
    factor, times its hilb monomial."""
    def qf(n):
        return RatFunc.from_poly(quantum_factorial(n))

    word_sum, a, b, alternating = PER_COMPOSITION[kind]
    m = sum(mvec)
    coeff = RatFunc.from_poly(word_sum(mvec + (N - m,)))
    coeff = coeff * qf(N - m - a) / qf(N - b)
    mono = FormalExpr.scalar(1)
    for mi in mvec:
        coeff = coeff * qf(mi - 1)
        mono = mono * FormalExpr.symbol(HILB, mi)
    if alternating and len(mvec) % 2:
        coeff = -coeff
    return mono * coeff


def test_composition_sum_matches_per_composition_terms():
    # _composition_sum adds integer numerators over the one denominator
    # [N-b]!; the sum of the terms built one RatFunc at a time must agree.
    for kind in PER_COMPOSITION:
        for m in range(1, 5):
            for N in range(m + 1, m + 5):
                expect = sum((composition_term(kind, mvec, N) for mvec in compositions(m)),
                             FormalExpr())
                assert _composition_sum(kind, m, N) == expect, (kind, m, N)


def test_wall_transfer_single_composition_is_strict_subsum():
    # Each composition's term is rebuilt from the LT word sum and the
    # prefactor [N-m]! prod [m_i - 1]! / [N]!, independently of
    # wall_transfer. By the JOYCE_LT closed form the one-part word sum is
    # [N]! / ([N-m]! [m-1]!), so the one-part term is exactly hilb[m], and
    # the symmetrized sum over each multiset of two or more parts is 0. At
    # m = 2 the only multi-part composition is (1, 1), whose symmetrization
    # is twice its own word sum, so that sum is 0 and the (2,) term alone
    # already equals hilb[2]. A strict sub-sum first appears at m = 3:
    # (1, 2) and (2, 1) are nonzero and cancel only against each other.
    def term(mvec, N):
        return composition_term("LT", mvec, N)

    h2 = FormalExpr.symbol(HILB, 2)
    h3 = FormalExpr.symbol(HILB, 3)
    for N in (6, 8):
        assert term((2,), N) == h2, N
        assert restricted_word_sum("LT", (1, 1, N - 2)).is_zero(), N
        assert term((2,), N) + term((1, 1), N) == wall_transfer(2, N), N

        t12, t21 = term((1, 2), N), term((2, 1), N)
        assert not t12.is_zero(), N
        assert t12 != h3, N
        mono12 = FormalExpr.symbol(HILB, 1) * h2
        assert set(t12.terms) == set(t21.terms) == set(mono12.terms), N
        assert (t12 + t21).is_zero(), N
        assert restricted_word_sum("LT", (1, 1, 1, N - 3)).is_zero(), N
        total = term((3,), N) + t12 + t21 + term((1, 1, 1), N)
        assert total == wall_transfer(3, N) == h3, N


def test_wall_transfer_range_errors():
    with pytest.raises(ValueError):
        wall_transfer(0, 5)
    with pytest.raises(ValueError):
        wall_transfer(5, 5)


def test_pt_transfer_m1_value():
    # k = 1 closed form: ((-kappa^(1/2)) + (-kappa^(1/2))^(-1)) hilb[1]
    bracket = LaurentPoly.term(-1, (1, 1, 1, 0, 0)) + LaurentPoly.term(-1, (-1, -1, -1, 0, 0))
    for N in (4, 7):
        expect = FormalExpr.symbol(HILB, 1) * RatFunc.from_poly(bracket)
        assert wall_transfer_series(1, N, "B").coefficient(1) == expect


def test_pt_transfer_series_is_shifted_product():
    sp = shifted_product_series(3)
    for N in (5, 8):
        ws = wall_transfer_series(3, N, kind="B")
        assert ws.eq_through(sp, 3)


def test_joyce_check_and_negative_control():
    assert joyce_check(3, 8)
    assert joyce_check(0, 4)
    # the SHIFTED word sums in place of LT break the factorization
    for order, N in ((3, 8), (6, 12)):
        pair = pair_symbol_series(order)
        shifted = pair * wall_transfer_series(order, N, "SHIFTED")
        assert not shifted.eq_through(pair * hilb_symbol_series(order), order)


def test_checks_refuse_orders_past_the_frame():
    # wall_transfer_series raises before any check uses its result, so
    # none of the four checks needs a guard of its own
    hilb = dt_vertex_series(order=1)
    quot = quot2_vertex_series(1)
    checks = (lambda: joyce_check(8, 8), lambda: mochizuki_check(8, 8),
              lambda: rank2_bridge(6, 6, hilb), lambda: dt_side_check(6, 6, hilb, quot))
    for check in checks:
        with pytest.raises(ValueError, match="order exceeds frame capacity"):
            check()


def test_iterated_crossing_order_one():
    s = pt_from_dt_series(1, 6)
    p0 = FormalExpr.symbol(PAIR, 0)
    p1 = FormalExpr.symbol(PAIR, 1)
    h1 = FormalExpr.symbol(HILB, 1)
    assert s.coefficient(0) == p0
    assert s.coefficient(1) == p1 - h1 * p0


def test_iterated_crossing_collapse():
    assert mochizuki_check(3, 8)
    assert mochizuki_check(4, 9)


def test_iterated_crossing_no_wall_contributions():
    s = pt_from_dt_series(2, 6)
    for n in range(3):
        dropped = drop_family(s.coefficient(n), HILB)
        assert dropped == FormalExpr.symbol(PAIR, n)


def test_classical_limit_of_prefactors():
    # at kappa = 1 (the coefficient sum) the quantum factorial ratio
    # reproduces signed integers, exactly
    for n in range(1, 8):
        val = divmod(
            quantum_factorial(n).coefficient_sum(),
            quantum_factorial(n - 1).coefficient_sum(),
        )
        assert val == ((n if n % 2 else -n), 0)


def test_rank2_bridge_small():
    hilb = dt_vertex_series(order=1)
    assert rank2_bridge(1, 6, hilb)


def test_dt_side_relation_does_not_close():
    # the DT-side transfer display does not reproduce the computed
    # invariants; pinned here as a negative result so any change shows up
    hilb = dt_vertex_series(order=2)
    quot = quot2_vertex_series(2)
    assert dt_side_check(2, 8, hilb, quot) is False


def test_symbol_series_shapes():
    h = hilb_symbol_series(3)
    assert h.coefficient(0) == FormalExpr.scalar(1)
    p = pair_symbol_series(2)
    assert p.coefficient(2) == FormalExpr.symbol(PAIR, 2)
