"""Vertex characters, weights, and series, checked against independent
oracles where the contracts give one."""

import itertools
import json

import pytest

from kvertex.boxconfig import BoxConfig, enumerate_configs, min_volume, plane_partitions
from kvertex.exactalg import KAPPA, ONE, LaurentPoly, RatFunc
from kvertex.vertexk import (
    cy_constancy_check,
    dt_vertex_series,
    fixed_point_weight,
    leg_tangent,
    pt_vertex_series,
    quot2_vertex_series,
    vertex_character,
)

SINGLE_BOX_V = LaurentPoly.from_terms(
    [
        (1, (-2, 0, 0, 0, 0)),
        (1, (0, -2, 0, 0, 0)),
        (1, (0, 0, -2, 0, 0)),
        (-1, (-2, -2, 0, 0, 0)),
        (-1, (-2, 0, -2, 0, 0)),
        (-1, (0, -2, -2, 0, 0)),
    ]
)


def signed_macmahon(order):
    """Oracle: integer expansion of prod_{m>=1} (1 - (-Q)^m)^(-m)."""
    coeffs = [1] + [0] * order
    for m in range(1, order + 1):
        # multiply by (1 - (-Q)^m)^(-m) = sum_k binom(m+k-1, k) (-1)^(mk) Q^(mk)
        factor = [0] * (order + 1)
        k = 0
        while m * k <= order:
            binom = 1
            for i in range(1, k + 1):
                binom = binom * (m + i - 1) // i
            factor[m * k] = binom * (-1) ** (m * k)
            k += 1
        out = [0] * (order + 1)
        for i, a in enumerate(coeffs):
            if not a:
                continue
            for j in range(0, order + 1 - i):
                if factor[j]:
                    out[i + j] += a * factor[j]
        coeffs = out
    return coeffs


def test_leg_tangent():
    assert leg_tangent((), (1, 2)).is_zero()
    assert leg_tangent((1,), (1, 2)) == LaurentPoly.from_terms(
        [(1, (0, -2, 0, 0, 0)), (1, (0, 0, -2, 0, 0))]
    )
    assert leg_tangent((2, 1), (1, 2)).coefficient_sum() == 6


def test_single_box_character():
    box = next(plane_partitions(1))
    assert vertex_character(box).poly == SINGLE_BOX_V


def test_cylinder_is_rigid():
    cyl = next(enumerate_configs((1,), (), (), 0))
    assert vertex_character(cyl).poly.is_zero()


def test_taller_cylinders_reported():
    # not asserted as a theorem anywhere, only observed: pure cylinders over
    # larger partitions also come out rigid
    values = {}
    for leg in ((2,), (1, 1)):
        cyl = next(enumerate_configs(leg, (), (), min_volume(leg)))
        values[leg] = vertex_character(cyl).poly
    print("pure cylinder characters:", {k: str(v) for k, v in values.items()})
    assert all(isinstance(v, LaurentPoly) for v in values.values())


def test_vertex_invariants_small_budget():
    minus_kappa = LaurentPoly.const(-1) * KAPPA
    for legs in (((), (), ()), ((1,), (), ()), ((2,), (1,), ())):
        nmin = min_volume(*legs)
        for n in range(nmin, nmin + 3):
            for c in enumerate_configs(*legs, n=n):
                v = vertex_character(c).poly
                assert v.bar() == minus_kappa * v
                assert v.coefficient_sum() == 0
                assert v.coeff((0, 0, 0, 0, 0)) == 0
                assert v.has_integer_coeffs()


LEG_CHOICES = ((), (1,), (2,), (1, 1))


def _legged_chars_slices():
    """Every legged triple over LEG_CHOICES from its minimal volume through
    three more, and the 0-leg triple through volume 6."""
    out = [(((), (), ()), n) for n in range(7)]
    for legs in itertools.product(LEG_CHOICES, repeat=3):
        if any(legs):
            lo = min_volume(*legs)
            out.extend((legs, n) for n in range(lo, lo + 4))
    return out


def test_leg_axes_are_real_poles():
    # the cleared numerator is never divisible by 1 - t_i on a leg axis,
    # so the leg axes are the reduced denominator as they stand
    import kvertex.vertexk as vk
    from kvertex.exactalg import divide_exact

    for legs in itertools.product(LEG_CHOICES, repeat=3):
        if not any(legs):
            continue
        lo = min_volume(*legs)
        for n in (lo, lo + 1):
            for c in enumerate_configs(*legs, n=n):
                a, axes = vk._cleared_character(c)
                assert axes == tuple(i for i in range(3) if legs[i])
                for axis in axes:
                    assert divide_exact(a, ONE - LaurentPoly.var(axis)) is None


def test_character_from_minimal_matches_scratch():
    import kvertex.vertexk as vk

    for legs, n in _legged_chars_slices():
        for c in enumerate_configs(*legs, n=n):
            assert vertex_character(c) == vk._vertex_from_scratch(c), (legs, n, c.sorted_core())


def test_character_independent_of_bound():
    for legs in (((), (), ()), ((1,), (), ()), ((2,), (1, 1), ()), ((1,), (1,), (1,))):
        for c in enumerate_configs(*legs, n=min_volume(*legs) + 2):
            assert vertex_character(c.widen(2)) == vertex_character(c)


def test_character_rejects_unstabilized_core():
    bad = BoxConfig(((1,), (), ()), 4, frozenset({(0, 0, 0), (1, 0, 0)}))
    with pytest.raises(ValueError, match="leg cylinder"):
        vertex_character(bad)


def test_fixed_point_weight_examples():
    w = LaurentPoly.term(1, (2, 0, 0, 0, 0))
    v = LaurentPoly.term(1, (0, 2, 0, 0, 0))
    half = lambda m: LaurentPoly.term(1, m) - LaurentPoly.term(1, tuple(-x for x in m))
    assert fixed_point_weight(w) == RatFunc(ONE, half((1, 0, 0, 0, 0)))
    assert fixed_point_weight(w - v) == RatFunc(
        half((0, 1, 0, 0, 0)), half((1, 0, 0, 0, 0))
    )
    assert fixed_point_weight(LaurentPoly.zero()) == RatFunc.one()
    with pytest.raises(ArithmeticError, match="non-isolated"):
        fixed_point_weight(LaurentPoly.const(1))
    # doubled exponents, some negative: all even gives the one factor of
    # w^(1/2) = t1^(-1/2) t2 t3^(-3/2) w2^(1/2); an odd one is a half power
    mixed = LaurentPoly.term(1, (-2, 4, -6, 0, 2))
    assert fixed_point_weight(mixed) == RatFunc(ONE, half((-1, 2, -3, 0, 1)))
    with pytest.raises(ArithmeticError, match="weight with a half exponent"):
        fixed_point_weight(LaurentPoly.term(1, (-1, 4, -6, 0, 2)))


def test_weight_inverse_property():
    box = next(plane_partitions(1))
    v = vertex_character(box).poly
    assert fixed_point_weight(v) * fixed_point_weight(-v) == RatFunc.one()


def test_single_box_cy_weight():
    box = next(plane_partitions(1))
    w = fixed_point_weight(vertex_character(box).poly)
    assert w.subst_t3_cy().as_constant() == -1


def test_dt_series_order_one():
    s = dt_vertex_series(order=1)
    assert s.series.min_power == 0
    assert s.series.coefficient(0) == RatFunc.one()
    box = next(plane_partitions(1))
    assert s.series.coefficient(1) == fixed_point_weight(vertex_character(box).poly)


def test_dt_series_leg_leading_term():
    s = dt_vertex_series((1,), order=0)
    assert s.series.min_power == 0
    assert s.series.coefficient(0) == RatFunc.one()


def test_cy_constants_match_product_oracle():
    s = dt_vertex_series(order=4)
    assert cy_constancy_check(s) == signed_macmahon(4)


def test_cy_rejects_legs():
    s = dt_vertex_series((1,), order=1)
    with pytest.raises(ValueError, match="legs present"):
        cy_constancy_check(s)


def test_pt_empty_legs_trivial():
    pt = pt_vertex_series(order=3)
    assert pt.series.coefficient(0) == RatFunc.one()
    for n in range(1, 4):
        assert pt.series.coefficient(n).is_zero()


def test_pt_defining_identity():
    dt0 = dt_vertex_series(order=5)
    dt1 = dt_vertex_series((1,), order=5)
    pt = pt_vertex_series((1,), order=3, dt=dt1, dt0=dt0)
    assert (pt.series * dt0.series).eq_through(dt1.series, 3)
    # re-truncation stability
    pt_lo = pt_vertex_series((1,), order=2, dt=dt1, dt0=dt0)
    assert pt_lo.series.eq_through(pt.series, 2)
    # two legs meet in a box, so n_min = -1 and DT_0 is needed through Q^3
    legs = ((1,), (1,))
    dt11 = dt_vertex_series(*legs, order=3)
    pt = pt_vertex_series(*legs, order=2, dt=dt11, dt0=dt0)
    assert pt.series.min_power == min_volume(*legs) == -1
    assert pt.series.trunc == 2
    assert (pt.series * dt0.series).eq_through(dt11.series, 2)
    pt_lo = pt_vertex_series(*legs, order=1, dt=dt11, dt0=dt0)
    assert pt_lo.series.eq_through(pt.series, 1)
    assert pt_vertex_series(*legs, order=2).to_json() == pt.to_json()


def test_pt_short_input_series_name_the_order_needed():
    legs = ((1,), (1,))
    dt0 = dt_vertex_series(order=2)
    dt11 = dt_vertex_series(*legs, order=2)
    with pytest.raises(ValueError, match=r"through Q\^3"):
        pt_vertex_series(*legs, order=2, dt=dt11, dt0=dt0)
    with pytest.raises(ValueError, match=r"through Q\^2"):
        pt_vertex_series(*legs, order=2, dt=dt_vertex_series(*legs, order=1))


def test_quot2_small_orders():
    q = quot2_vertex_series(1)
    assert q.series.coefficient(0) == RatFunc.one()
    dt0 = dt_vertex_series(order=1)
    c1 = dt0.series.coefficient(1)
    bracket = LaurentPoly.term(-1, (1, 1, 1, 0, 0)) + LaurentPoly.term(-1, (-1, -1, -1, 0, 0))
    assert q.series.coefficient(1) == c1 * RatFunc.from_poly(bracket)


def test_quot2_rejects_equal_framings():
    w = LaurentPoly.term(1, (2, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="distinct"):
        quot2_vertex_series(1, framing=(w, w))


def test_jobs_do_not_change_results():
    a = dt_vertex_series(order=3, jobs=1)
    b = dt_vertex_series(order=3, jobs=2)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def _quot_weights(m, framing=None):
    import kvertex.vertexk as vk
    from kvertex.boxconfig import enumerate_quot_pairs

    ratios = {
        (0, 1): vk._framing_ratio_exps(framing, 1, 0),
        (1, 0): vk._framing_ratio_exps(framing, 0, 1),
    }
    return [vk._quot_weight((i, pair, ratios)) for i, pair in enumerate(enumerate_quot_pairs(m))]


def test_int64_layouts_match_dict_layout(monkeypatch):
    import kvertex.vertexk as vk
    from kvertex import fastsum

    layouts = set()
    pair_reduce = fastsum._pair_reduce

    def spy(arr, *args):
        layouts.add(type(arr).__name__)
        return pair_reduce(arr, *args)

    def unavailable(kbig):
        raise fastsum.FastSumUnavailable("dict layout forced")

    def framing(*exps):
        return (ONE, LaurentPoly.term(1, tuple(2 * x for x in exps) + (0, 0)))

    monkeypatch.setattr(fastsum, "_pair_reduce", spy)
    cases = (
        [list(enumerate_configs((), (), (), n)) for n in range(6)]
        + [list(enumerate_configs((1,), (), (), n)) for n in range(4)]
    )
    weights = [[vk.factored_weight(vertex_character(c)) for c in configs] for configs in cases]
    framings = [framing(*e) for e in ((5, 3, -2), (500, 3, -2), (1000, 3, -2), (2000, 3, -2))]
    for fr in [None] + framings:
        weights += [_quot_weights(m, fr) for m in range(3)]
    seen = []
    for fws in weights:
        layouts.clear()
        fast = fastsum.sum_factored(fws)
        seen.append(frozenset(layouts))
        with monkeypatch.context() as mp:
            mp.setattr(fastsum, "_small_from_big", unavailable)
            layouts.clear()
            exact = fastsum.sum_factored(fws)
            if len(fws) > 1:
                assert layouts == {"LaurentPoly"}
        assert fast[0] == exact[0] and fast[1] == exact[1]
    # some sums merge only densely (0-leg), some only sparsely (quot2
    # symbolic), some mix the two int64 layouts (framing t^(5,3,-2)), some
    # mix sparse and dict merges (framing t^(500,3,-2) at m=2), and some
    # merge only on dicts (t^(1000,3,-2) and t^(2000,3,-2) at m=2)
    assert {
        frozenset({"_Dense"}),
        frozenset({"_Sparse"}),
        frozenset({"_Dense", "_Sparse"}),
    } <= set(seen)
    assert frozenset({"_Sparse", "LaurentPoly"}) in seen
    assert frozenset({"LaurentPoly"}) in seen


def _numerator(*factors):
    """Sparse fastsum numerator of prod (t^m - t^(-m))^e over (m, e)."""
    from kvertex import fastsum
    from kvertex.exactalg import _pack
    from kvertex.vertexk import FactoredWeight

    fw = FactoredWeight(1, {_pack(m): e for m, e in factors})
    return fastsum._leaf(fw)[0]


def test_dense_division_matches_sparse_division():
    from kvertex import fastsum
    from kvertex.exactalg import _pack

    directions = [(1, -1, 0, 0, 0), (2, 1, -1, 0, 0), (0, 0, 1, -1, 2), (3, 0, 0, 0, 0)]
    others = [(1, 2, 0, 0, 0), (0, 1, 1, 0, 0), (1, 0, -2, 1, 0)]
    for m in directions:
        key = fastsum._small_from_big(_pack(m))
        prod = _numerator((m, 2), *[(o, 1) for o in others])
        dense = fastsum._to_dense(prod)
        q_dense = fastsum._dense_divide(dense, key)
        q_sparse = fastsum._divide_binomial(prod, key)
        assert q_dense is not None and q_sparse is not None
        assert fastsum._to_poly(q_dense) == fastsum._to_poly(q_sparse)
        once = _numerator((m, 1), *[(o, 1) for o in others])
        assert fastsum._to_poly(q_dense) == fastsum._to_poly(once)
        # without the factor, neither layout divides
        rest = _numerator(*[(o, 1) for o in others])
        assert fastsum._dense_divide(fastsum._to_dense(rest), key) is None
        assert fastsum._divide_binomial(rest, key) is None


def test_sparse_lanes_never_carry():
    from kvertex import fastsum
    from kvertex.exactalg import _pack

    m = fastsum._small_from_big(_pack((1900, 0, 0, 0, 0)))
    one = _numerator(((1900, 0, 0, 0, 0), 1))
    with pytest.raises(fastsum.FastSumUnavailable):
        fastsum._mul_binomial(one, m)


def test_sparse_division_never_merges_lines():
    # The lines through p + m and q + m along 2m get the same packed key
    # when grouped; their sums, 1 and -1, must not be checked together.
    import numpy as np

    from kvertex import fastsum
    from kvertex.exactalg import _pack

    m, p, q = (1, 40, 0, 0, 0), (-1899, 40, 0, 0, 0), (-1842, -1816, 0, 0, 0)
    keys = np.array([fastsum._small_from_big(_pack(x)) for x in (p, q)])
    f = fastsum._Sparse(keys, np.array([1, -1]), (-2048,) * 5, (2047,) * 5)
    with pytest.raises(fastsum.FastSumUnavailable):
        fastsum._divide_binomial(f, fastsum._small_from_big(_pack(m)))


def test_division_beyond_lanes_is_redone_on_dicts():
    # Lines along 2m through this numerator could share a packed line key,
    # so the sparse division refuses it; the merge tree divides on dicts.
    from kvertex import fastsum
    from kvertex.exactalg import _pack

    m, a, b = (1, 40, 0, 0, 0), (1000, 0, 0, 0, 0), (0, 1000, 0, 0, 0)
    key = _pack(m)
    f = _numerator((m, 1), (a, 1), (b, 1))
    with pytest.raises(fastsum.FastSumUnavailable):
        fastsum._divide_binomial(f, fastsum._small_from_big(key))
    q, den = fastsum._pair_reduce(f, {key: 2})
    assert isinstance(q, LaurentPoly) and den == {key: 1}
    assert q == fastsum._to_poly(_numerator((a, 1), (b, 1)))


def _sparse(*terms):
    """Sparse fastsum numerator from (coefficient, lane exponents) terms."""
    import numpy as np

    from kvertex import fastsum
    from kvertex.exactalg import _pack

    terms = sorted((fastsum._small_from_big(_pack(e)), c) for c, e in terms)
    lanes = list(zip(*[fastsum._lane_vec(k) for k, _ in terms]))
    return fastsum._Sparse(np.array([k for k, _ in terms], dtype=np.int64),
                           np.array([c for _, c in terms], dtype=np.int64),
                           tuple(map(min, lanes)), tuple(map(max, lanes)))


def _quotient_case(c):
    """(f, m, q) with f = q * (t^m - t^(-m)), q = c (1 + 2 t^(2m) + t^(4m)):
    the quotient's largest coefficient is twice the dividend's."""
    f = _sparse((-c, (-1, 0, 0, 0, 0)), (-c, (1, 0, 0, 0, 0)),
                (c, (3, 0, 0, 0, 0)), (c, (5, 0, 0, 0, 0)))
    q = LaurentPoly.from_terms([(c, (0, 0, 0, 0, 0)), (2 * c, (2, 0, 0, 0, 0)),
                                (c, (4, 0, 0, 0, 0))])
    return f, (1, 0, 0, 0, 0), q


def test_coefficient_limit_guard_redoes_steps_on_dicts():
    # Dense steps whose coefficients reach 2^61 raise FastSumUnavailable,
    # and the merge tree redoes that step on dicts with the same result;
    # a step just below the limit stays dense, whatever its carried bound.
    from kvertex import fastsum
    from kvertex.exactalg import _pack

    limit = fastsum._COEFF_LIMIT
    m = (1, 0, 0, 0, 0)
    key = _pack(m)
    for c in (limit // 2, limit // 2 - 1):
        reaches = 2 * c >= limit
        # mul: c (1 - t^(2m)) (t^m - t^(-m)) has 2c at t^m
        a = _sparse((c, (0, 0, 0, 0, 0)), (-c, (2, 0, 0, 0, 0)))
        b = _sparse((1, (1, 0, 0, 0, 0)),)
        want = fastsum._poly_mul(fastsum._to_poly(a), key) + fastsum._to_poly(b)
        for x, grow_x, y, grow_y in ((a, [(key, 1)], b, []), (b, [], a, [(key, 1)])):
            assert fastsum._goes_dense(x, [(fastsum._small_from_big(k), e) for k, e in grow_x],
                                       y, [(fastsum._small_from_big(k), e) for k, e in grow_y])
            if reaches:
                with pytest.raises(fastsum.FastSumUnavailable):
                    fastsum._int64_add(x, grow_x, y, grow_y)
            else:
                assert fastsum._to_poly(fastsum._int64_add(x, grow_x, y, grow_y)) == want
        num, den = fastsum._pair_add((a, {}), (b, {key: 1}))
        assert isinstance(num, LaurentPoly) == reaches
        assert fastsum._to_poly(num) == want and den == {key: 1}
        # add: two terms of c at the same monomial
        a = _sparse((c, (1, 0, 0, 0, 0)), (1, (3, 0, 0, 0, 0)))
        b = _sparse((c, (1, 0, 0, 0, 0)), (1, (5, 0, 0, 0, 0)))
        want = fastsum._to_poly(a) + fastsum._to_poly(b)
        num, den = fastsum._pair_add((a, {}), (b, {}))
        assert isinstance(num, LaurentPoly) == reaches
        assert fastsum._to_poly(num) == want and den == {}
        # quotient: 2c in the quotient, c in the dividend
        f, m, q = _quotient_case(c)
        dense = fastsum._to_dense(f)
        if reaches:
            with pytest.raises(fastsum.FastSumUnavailable):
                fastsum._dense_divide(dense, fastsum._small_from_big(_pack(m)))
        num, den = fastsum._pair_reduce(dense, {_pack(m): 1})
        assert isinstance(num, LaurentPoly) == reaches
        assert fastsum._to_poly(num) == q and den == {}


def test_dense_bound_covers_coefficients():
    # Every dense numerator carries a bound at least its max |coefficient|,
    # and dense merges and quotients of random products agree with dicts.
    import random

    import numpy as np

    from kvertex import fastsum
    from kvertex.exactalg import _pack

    def bounded(dn):
        assert int(np.abs(dn.arr).max()) <= dn.bound < fastsum._COEFF_LIMIT
        return dn

    def product(scale, factors):
        fw = _numerator(*[(m, factors.count(m)) for m in set(factors)])
        return fastsum._Sparse(fw.keys, scale * fw.coeffs, fw.lo, fw.hi)

    def grow(factors, key=lambda m: fastsum._small_from_big(_pack(m))):
        return [(key(m), factors.count(m)) for m in set(factors)]

    f, m, q = _quotient_case(3)
    assert fastsum._to_poly(bounded(fastsum._dense_divide(
        bounded(fastsum._to_dense(f)), fastsum._small_from_big(_pack(m))))) == q
    rng = random.Random(5)
    dirs = [m + (0, 0) for m in itertools.product(range(-2, 3), repeat=3) if m > (0, 0, 0)]
    for _ in range(40):
        common = rng.sample(dirs, rng.randint(2, 5))
        # the same lane parities as common, so a * grow_a and b * grow_b share them
        other = [tuple(x + 2 * rng.randint(-1, 1) * (i == j) for i, x in enumerate(m))
                 for m, j in zip(common, (rng.randrange(3) for _ in common))]
        other = [m if any(m) else m0 for m, m0 in zip(other, common)]
        xs = rng.sample(dirs, rng.randint(0, 3))
        ys = rng.sample(dirs, rng.randint(0, 3))
        a = product(rng.choice((-1, 1)) * rng.randint(1, 999), common + xs)
        b = product(rng.choice((-1, 1)) * rng.randint(1, 999), other + ys)
        for x, gx, y, gy in ((a, ys, b, xs), (a, [], a, [])):
            want = (fastsum._grow(fastsum._to_poly(x), grow(gx, _pack), fastsum._poly_mul)
                    + fastsum._grow(fastsum._to_poly(y), grow(gy, _pack), fastsum._poly_mul))
            total = fastsum._dense_sum(bounded(fastsum._to_dense(x)), grow(gx),
                                       bounded(fastsum._to_dense(y)), grow(gy))
            if total.is_zero():
                assert want.is_zero()
                continue
            assert fastsum._to_poly(bounded(total)) == want
            for m in set(common + xs + ys):
                key = fastsum._small_from_big(_pack(m))
                q = fastsum._dense_divide(total, key)
                exact = fastsum._divide(want, _pack(m))
                assert (q is None) == (exact is None)
                if all(abs(x) < n for x, n in zip(fastsum._lane_vec(key), total.arr.shape)):
                    assert fastsum._line_sums_vanish(total.arr, fastsum._lane_vec(key)) == (q is not None)
                if q is not None:
                    assert fastsum._to_poly(bounded(q)) == exact


def test_zero_leg_sums_stay_int64(monkeypatch):
    # A carried bound too loose for an overflow guard is recomputed before
    # the guard raises, so no 0-leg merge or division through Q^5 reaches
    # the dict layout.
    import kvertex.vertexk as vk
    from kvertex import fastsum

    layouts = set()
    pair_reduce = fastsum._pair_reduce

    def spy(arr, *args):
        out = pair_reduce(arr, *args)
        layouts.update((type(arr).__name__, type(out[0]).__name__))
        return out

    monkeypatch.setattr(fastsum, "_pair_reduce", spy)
    for n in range(6):
        fastsum.sum_factored([vk.factored_weight(vertex_character(c))
                              for c in enumerate_configs((), (), (), n)])
    assert "_Dense" in layouts and "LaurentPoly" not in layouts


@pytest.mark.parametrize("exps", [(292, 0, 0), (500, 3, -2)])
def test_framing_beyond_lane_range_matches_symbolic(exps):
    symbolic = quot2_vertex_series(2)
    w = LaurentPoly.term(1, tuple(2 * x for x in exps) + (0, 0))
    framed = quot2_vertex_series(2, framing=(ONE, w))
    assert framed.series.eq_through(symbolic.series, 2)


def test_weight_errors_name_the_configuration(monkeypatch):
    import kvertex.vertexk as vk

    monkeypatch.setattr(vk, "_vertex_invariant_errors", lambda v: "symmetry violation")
    with pytest.raises(ArithmeticError, match=r"symmetry violation at config #0 \(volume 0\)"):
        dt_vertex_series(order=1, jobs=1)
    with pytest.raises(ArithmeticError, match=r"symmetry violation at pair #0 \(m=0\)"):
        quot2_vertex_series(1, jobs=1)


def test_series_json_schema():
    s = dt_vertex_series(order=1)
    j = s.to_json()
    assert j["kind"] == "DT"
    assert j["minPower"] == 0 and j["order"] == 1
    assert [c["power"] for c in j["coefficients"]] == [0, 1]
    assert "num" in j["coefficients"][1] and "den" in j["coefficients"][1]
