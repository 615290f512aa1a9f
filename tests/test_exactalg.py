"""Kernel tests: Laurent polynomials, rational normal forms, series."""

import random
from fractions import Fraction

import pytest

from kvertex.exactalg import (
    KAPPA,
    ONE,
    T1,
    T2,
    T3,
    LaurentPoly,
    QSeries,
    RatFunc,
    divide_exact,
    exps_str,
)
from kvertex.vertexk import cy_constancy_check, dt_vertex_series


def rand_poly(rng, nterms=5, span=4, coeff=6):
    d = {}
    for _ in range(nterms):
        e = tuple(rng.randint(-span, span) for _ in range(5))
        d[e] = rng.randint(-coeff, coeff) or 1
    return LaurentPoly.from_terms((c, e) for e, c in d.items())


def test_ring_axioms_random():
    rng = random.Random(42)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * ONE == a
        assert a + LaurentPoly.zero() == a
        assert a - a == LaurentPoly.zero()
        # hashing agrees with equality whatever order the terms came in
        rev = LaurentPoly.from_terms((c, e) for e, c in reversed(a.terms()))
        assert rev == a and hash(rev) == hash(a)
        assert hash(a * b) == hash(b * a)
    # a constant polynomial equals its constant, so hashes as it
    for c in (3, 0, -1):
        assert LaurentPoly.const(c) == c
        assert hash(LaurentPoly.const(c)) == hash(c)


def test_coefficients_are_ints():
    half = Fraction(1, 2)
    with pytest.raises(TypeError):
        LaurentPoly.const(half)
    with pytest.raises(TypeError):
        LaurentPoly.term(half, (2, 0, 0, 0, 0))
    with pytest.raises(TypeError):
        LaurentPoly.from_terms([(1, (0, 2, 0, 0, 0)), (half, (2, 0, 0, 0, 0))])
    with pytest.raises(TypeError):
        T1 * half
    assert LaurentPoly.const(1) != half


def test_bar_involution_and_homomorphism():
    rng = random.Random(7)
    for _ in range(40):
        a, b = rand_poly(rng), rand_poly(rng)
        assert a.bar().bar() == a
        assert (a * b).bar() == a.bar() * b.bar()
        assert (a + b).bar() == a.bar() + b.bar()


def test_bar_examples():
    assert T1.bar() == LaurentPoly.term(1, (-2, 0, 0, 0, 0))
    half = LaurentPoly.term(1, (1, 1, 1, 0, 0))
    assert half.bar() == LaurentPoly.term(1, (-1, -1, -1, 0, 0))
    p = (ONE - T1) * (ONE - T2) * (ONE - T3)
    assert p.bar() == LaurentPoly.term(-1, (-2, -2, -2, 0, 0)) * p


def test_coefficient_sum_types():
    assert type(LaurentPoly.zero().coefficient_sum()) is int
    assert LaurentPoly.zero().coefficient_sum() == 0
    p = (ONE - T1) * (ONE + T2 + T2 * T3)
    assert type(p.coefficient_sum()) is int and p.coefficient_sum() == 0
    assert type((p + T3 * 4).coefficient_sum()) is int
    # a half lives in a RatFunc's scale, never in a coefficient: the value
    # at t = 1 is the numerator's coefficient sum over the scale
    half = RatFunc(ONE, 2)
    s = half + half * T1
    assert (s.num.coefficient_sum(), s.scale) == (2, 2)
    assert type(s.num.coefficient_sum()) is int
    s = half + T1
    assert (s.num.coefficient_sum(), s.scale) == (3, 2)


def test_divide_exact_roundtrip():
    rng = random.Random(3)
    for _ in range(120):
        q = rand_poly(rng, nterms=rng.randint(1, 4), span=3)
        if q.is_zero():
            continue
        r = rand_poly(rng, nterms=rng.randint(1, 5), span=3)
        p = q * r
        got = divide_exact(p, q)
        assert got is not None and got == r
        probe = p + LaurentPoly.term(1, tuple(rng.randint(-8, 8) for _ in range(5)))
        got2 = divide_exact(probe, q)
        if got2 is not None:
            assert got2 * q == probe


def test_divide_exact_is_integral():
    # a quotient with a non-integer coefficient is no quotient
    assert divide_exact(2 * T1 + 1, LaurentPoly.const(2)) is None
    assert divide_exact(2 * T1 + 4, LaurentPoly.const(2)) == T1 + 2
    # long division by a non-primitive divisor: (1 + t1) / (2 t1 + 2) = 1/2,
    # and 3 t1 + 2 leaves a remainder t1 at the first step
    assert divide_exact(ONE + T1, 2 * T1 + 2) is None
    assert divide_exact(3 * T1 + 2, 2 * T1 + 2) is None
    assert divide_exact(4 * T1 * T2 + 4 * T2, 2 * T1 + 2) == 2 * T2


def test_ratfunc_normalize_examples():
    assert RatFunc(T1 - T1 * T1, ONE - T1) == RatFunc.from_poly(T1)
    assert RatFunc(T1 - T1 * T1, ONE - T1).is_poly()
    assert RatFunc(LaurentPoly.zero(), ONE - T2).is_zero()
    half_t1 = RatFunc(2 * T1, LaurentPoly.const(4))
    assert half_t1.is_poly()
    assert half_t1.num == T1 and half_t1.scale == 2
    assert str(half_t1) == "(t1) / (2)"
    with pytest.raises(ZeroDivisionError, match="division by zero"):
        RatFunc(ONE, LaurentPoly.zero())


def test_ratfunc_congruence():
    rng = random.Random(12)
    for _ in range(30):
        a, b, c = rand_poly(rng), rand_poly(rng), rand_poly(rng)
        if b.is_zero() or c.is_zero():
            continue
        assert RatFunc(a * c, b * c) == RatFunc(a, b)
        # equality iff the cross difference normalizes to zero
        d = rand_poly(rng)
        lhs = RatFunc(a, b) == RatFunc(d, c)
        rhs = RatFunc(a * c - d * b, b * c).is_zero()
        assert lhs == rhs


def test_ratfunc_denominator_normal_form():
    r = RatFunc(ONE, (ONE - T1) * (ONE - T2))
    den = r.den
    _, coeff = den.terms()[-1]  # terms ascend in lex order
    assert coeff == 1
    assert den.monomial_content() == (0, 0, 0, 0, 0)


def test_ratfunc_arithmetic():
    a = RatFunc(ONE, ONE - T1)
    b = RatFunc(T1, ONE - T1)
    assert a + b == RatFunc(ONE + T1, ONE - T1)
    assert a - a == RatFunc.zero()
    assert a * (ONE - T1) == RatFunc.one()
    assert (a / a) == RatFunc.one()
    assert a.inverse() * a == RatFunc.one()
    # a repeated factor (1 - t1)^2 and a factor 1 - t1^2 sharing a root
    r = RatFunc(T2 + T3, ONE - T1) * RatFunc(ONE, ONE - T1) * RatFunc(ONE, ONE - T1 * T1)
    s = RatFunc(ONE + T3, (ONE - T1 * T1) * (ONE - T2))
    assert sorted(r.fac.values()) == [1, 2]
    assert r.den == (T1 - ONE) ** 2 * (T1 * T1 - ONE)
    assert (r + s) - s == r
    assert list((r * (ONE - T1) ** 2).fac.values()) == [1]  # (1 - t1)^2 cancels
    assert r.bar().bar() == r
    assert r.inverse().inverse() == r
    assert r * r.inverse() == RatFunc.one()
    # a numerator with content 2: the inverse keeps the 2 as its scale
    c = RatFunc(2 * T1 + 2 * T2, ONE - T3)
    assert c.inverse().num == ONE - T3 and c.inverse().scale == 2
    assert c.inverse() == RatFunc(ONE - T3, 2 * T1 + 2 * T2)
    assert c.inverse().inverse() == c
    assert c.inverse().inverse().scale == 1


def test_ratfunc_across_scales():
    a = RatFunc(T1, 2)
    b = RatFunc(ONE, 3)
    c = RatFunc(T2, 6 * (ONE - T1))
    assert (a.scale, b.scale, c.scale) == (2, 3, 6)
    assert a == RatFunc(3 * T1, 6) and a != RatFunc(T1, 3) and a != T1
    assert a + b == RatFunc(3 * T1 + 2, 6) and (a + b).scale == 6
    # sums and products lower the scale when the numerator's content allows
    assert a + a == RatFunc.from_poly(T1) and (a + a).scale == 1
    assert (a * 2).scale == 1 and a * 2 == T1
    assert a * b == RatFunc(T1, 6) and (a * b).scale == 6
    assert (c * 3 + a * 2).scale == 2
    assert c * 3 + a * 2 == RatFunc(T2 + 2 * T1 - 2 * T1 * T1, 2 * (ONE - T1))
    assert a.inverse() == RatFunc(2, T1) and a.inverse().scale == 1
    assert c.inverse() == RatFunc(6 - 6 * T1, T2) and c.inverse().inverse() == c
    assert c * c.inverse() == RatFunc.one()
    assert a.bar() == RatFunc(T1.bar(), 2) and a.bar().scale == 2
    assert c.bar() == RatFunc(T2.bar(), 6 * (ONE - T1.bar())) and c.bar().bar() == c
    assert a - a == RatFunc.zero() and (a - a).scale == 1
    assert c.den == 6 * (T1 - ONE)
    assert b.as_constant() == Fraction(1, 3)
    assert type((b * 3).as_constant()) is int


def one_series(trunc):
    return QSeries(0, [RatFunc.one()] + [RatFunc.zero()] * trunc, trunc)


def test_series_division_examples():
    one_minus_q = QSeries(0, [RatFunc.one(), -RatFunc.one(), RatFunc.zero(), RatFunc.zero()], 3)
    assert (one_minus_q / one_series(3)) == one_minus_q
    geom = one_series(3) / one_minus_q
    assert [geom.coefficient(n) for n in range(4)] == [RatFunc.one()] * 4
    assert (one_minus_q / one_minus_q) == one_series(3)
    zero_lead = QSeries(0, [RatFunc.zero(), RatFunc.one()], 1)
    with pytest.raises(ZeroDivisionError, match="non-invertible series"):
        one_series(1) / zero_lead
    # a leading coefficient 1 - t1, not one: every quotient coefficient
    # carries its inverse
    a = QSeries(0, [RatFunc.from_poly(T1 + T2 * k) for k in range(6)], 5)
    b = QSeries(0, [RatFunc.from_poly(ONE - T1), RatFunc.from_poly(T3), RatFunc.one()], 2)
    q = a / b
    assert q.coefficient(0) == RatFunc(T1, ONE - T1)
    # a dividend known further than the divisor: the divisor's
    # truncation binds
    assert (q.min_power, q.trunc) == (0, 2)
    assert (q * b).eq_through(a, 2)
    # and the reverse: the dividend's truncation binds
    r = b / a.truncate(4)
    assert (r.min_power, r.trunc) == (0, 2)
    assert (r * a).eq_through(b, 2)


def test_series_division_min_power():
    # (Q^-1 + ...) / (Q^1 + ...) has min power -2
    a = QSeries(-1, [RatFunc.one(), RatFunc.one(), RatFunc.one()], 1)
    b = QSeries(1, [RatFunc.one(), RatFunc.one()], 2)
    q = a / b
    assert q.min_power == -2
    assert (q * b).eq_through(a, q.trunc + b.min_power)
    # a longer dividend over a divisor with leading coefficient 1 - t1
    a = QSeries(-1, [RatFunc.one()] * 6, 4)
    b = QSeries(1, [RatFunc.from_poly(ONE - T1), RatFunc.from_poly(T2)], 2)
    q = a / b
    assert (q.min_power, q.trunc) == (-2, -1)
    assert (q * b).eq_through(a, 0)


def test_series_mul_respects_truncation():
    # b's first unknown coefficient sits at Q^3 and meets a's constant term,
    # so the product is honest only through Q^2
    a = QSeries(0, [RatFunc.one()] * 3, 2)
    b = QSeries(1, [RatFunc.one()] * 2, 2)
    prod = a * b
    assert prod.min_power == 1
    assert prod.trunc == 2


def test_substitutions():
    # kappa specializes to 1 in the Calabi-Yau limit
    assert RatFunc.from_poly(KAPPA).subst_t3_cy() == RatFunc.one()
    # Q -> -Q kappa^(-1/2) on 1 + Q
    s = QSeries(0, [RatFunc.one(), RatFunc.one()], 1)
    unit = RatFunc.from_poly(LaurentPoly.term(-1, (-1, -1, -1, 0, 0)))
    t = s.subst_q_scale(unit)
    assert t.coefficient(0) == RatFunc.one()
    assert t.coefficient(1) == unit
    # coefficient at power n rescales by (-1)^n kappa^(n/2)
    s4 = QSeries(0, [RatFunc.one()] * 5, 4)
    up = s4.subst_q_scale(RatFunc.from_poly(LaurentPoly.term(-1, (1, 1, 1, 0, 0))))
    for n in range(5):
        sign = -1 if n % 2 else 1
        assert up.coefficient(n) == RatFunc.from_poly(
            LaurentPoly.term(sign, (n, n, n, 0, 0))
        )


def test_cy_subst_cancels_kappa_minus_one():
    # (kappa^2 - 1)/(kappa - 1) specializes to 2 despite the vanishing factor
    r = RatFunc(KAPPA * KAPPA - ONE, KAPPA - ONE)
    assert r.subst_t3_cy().as_constant() == 2
    with pytest.raises(ZeroDivisionError, match="singular specialization"):
        RatFunc(ONE, KAPPA - ONE).subst_t3_cy()


def test_cy_constants_are_ints():
    vals = cy_constancy_check(dt_vertex_series(order=3, jobs=1))
    assert vals == [1, -1, 3, -6]
    assert all(type(v) is int for v in vals)


def test_canonical_text_and_json():
    p = LaurentPoly.term(1, (1, 0, -3, 2, 0))
    assert exps_str(p.terms()[0][0]) == "t1^(1/2) t3^(-3/2) w1"
    j = (T1 + LaurentPoly.const(2)).to_json()
    assert j == [["2", [0, 0, 0, 0, 0]], ["1", [2, 0, 0, 0, 0]]]


def test_lanes_never_wrap():
    # A doubled exponent lives in a 24-bit lane, [-2^23, 2^23): every
    # operation that would leave it raises and names the variable.
    from kvertex.exactalg import PACK_ZERO, _pack

    top = 2 ** 23
    for make, name in (
        (lambda: LaurentPoly.term(1, (top, 0, 0, 0, 0)), "t1"),
        (lambda: LaurentPoly.term(1, (top // 2, 0, 0, 0, 0)) ** 2, "t1"),
        (lambda: LaurentPoly.term(1, (-top, 0, 0, 0, 0)).bar(), "t1"),
        (lambda: LaurentPoly.from_terms([(1, (0, 0, -top - 1, 0, 0))]), "t3"),
        (lambda: LaurentPoly.var(3, top), "w1"),
        (lambda: (ONE + LaurentPoly.term(1, (0, 0, 0, 0, top - 2))).shift((0, 0, 0, 0, 2)), "w2"),
        (lambda: LaurentPoly.term(1, (0, 1 - top, 0, 0, 0)).mul_binomial(
            _pack((0, -2, 0, 0, 0)), 1, PACK_ZERO, -1), "t2"),
        (lambda: LaurentPoly.term(1, (top // 2, 0, -top // 2, 0, 0)).subst_t3_cy(), "t1"),
    ):
        with pytest.raises(ValueError, match="exponent of %s leaves its 24-bit lane" % name):
            make()
    # the extremes of a lane are kept, also where the fast operand check
    # cannot decide and the per-lane bounds are compared
    low = LaurentPoly.term(1, (-top, 0, 0, 0, 0))
    high = LaurentPoly.term(1, (top - 1, 0, 0, 0, 0))
    assert (low * LaurentPoly.term(1, (top - 1, 2, 0, 0, 0))).terms() == [((-1, 2, 0, 0, 0), 1)]
    assert (high.bar() * T1).terms() == [((3 - top, 0, 0, 0, 0), 1)]
    assert LaurentPoly.term(1, (top // 2 - 1, 0, -top // 2, 0, 0)).subst_t3_cy().terms() == [
        ((top - 1, top // 2, 0, 0, 0), 1)]
    assert (low + high).shift((0, 2, 0, 0, 0)) == (low + high) * T2
