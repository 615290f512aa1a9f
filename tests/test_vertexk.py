"""Vertex characters, weights, and series, checked against independent
oracles where the contracts give one."""

import itertools
import json
from fractions import Fraction
from functools import partial

import pytest

from kvertex.boxconfig import (
    BoxConfig,
    enumerate_configs,
    min_volume,
    minimal_core,
    plane_partitions,
)
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


def widen(config, extra=1):
    """The same configuration at stabilization bound + extra."""
    nb = config.bound + extra
    return BoxConfig(config.legs, nb, config.core | minimal_core(config.legs, nb))


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
                assert all(type(c) is int for c in v.d.values())


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


def _two_one_slices():
    """Every triple over LEG_CHOICES and (2, 1) with a (2, 1) leg, from its
    minimal volume through two more, the 3-leg ((2, 1), (2, 1), (2, 1))
    among them: the one leg shape here whose cross-section is not a
    rectangle."""
    out = []
    for legs in itertools.product(LEG_CHOICES + ((2, 1),), repeat=3):
        if (2, 1) in legs:
            lo = min_volume(*legs)
            out.extend((legs, n) for n in range(lo, lo + 3))
    return out


def test_character_from_minimal_matches_scratch():
    import kvertex.vertexk as vk

    for legs, n in _legged_chars_slices() + _two_one_slices():
        for c in enumerate_configs(*legs, n=n):
            assert vertex_character(c) == vk._vertex_from_scratch(c), (legs, n, c.sorted_core())


def _four_step_errors(v):
    """The certificate as four whole-polynomial checks: the reference for
    the one-pass check."""
    if not all(isinstance(c, int) for c in v.d.values()):
        return "non-integer multiplicity"
    if v.coeff((0, 0, 0, 0, 0)):
        return "non-isolated contribution"
    if v.coefficient_sum() != 0:
        return "nonzero virtual rank"
    if v.bar() != -(v * KAPPA):
        return "symmetry violation"
    return None


def _plus(v, terms):
    """v plus the (coefficient, doubled exponents) terms, any coefficient
    type, zero sums dropped."""
    d = dict(v.d)
    for c, exps in terms:
        (k,) = LaurentPoly.term(1, exps).d
        d[k] = d.get(k, 0) + c
        if not d[k]:
            del d[k]
    return LaurentPoly(d)


# Perturbations of a certified V, each breaking the invariants named, away
# from the exponents any tested V uses. sigma(t^k) = bar(t^k) / kappa.
_BREAKS = (
    # (t^a - sigma(t^a)) / 2
    ({"non-integer multiplicity"},
     ((Fraction(1, 2), (20, 0, 0, 0, 0)), (Fraction(-1, 2), (-22, -2, -2, 0, 0)))),
    # 1 - sigma(1)
    ({"non-isolated contribution"}, ((1, (0, 0, 0, 0, 0)), (-1, (-2, -2, -2, 0, 0)))),
    # a single term: sigma forces rank zero, so no break of the rank alone
    ({"nonzero virtual rank", "symmetry violation"}, ((1, (0, 0, 30, 0, 0)),)),
    # rank zero, partners missing
    ({"symmetry violation"}, ((1, (0, 20, 0, 0, 0)), (-1, (0, 0, 20, 0, 0)))),
    # rank zero, partners stored with the wrong sign
    ({"symmetry violation"}, ((1, (0, 24, 0, 0, 0)), (1, (-2, -26, -2, 0, 0)),
                              (-1, (0, 0, 24, 0, 0)), (-1, (-2, -2, -26, 0, 0)))),
)
_ORDER = ("non-integer multiplicity", "non-isolated contribution", "nonzero virtual rank",
          "symmetry violation")


def test_one_pass_certificate_matches_four_step_check():
    import kvertex.vertexk as vk

    bases = [LaurentPoly.zero(), SINGLE_BOX_V]
    bases += [vertex_character(c).poly for c in enumerate_configs((2,), (1,), (1, 1), n=-2)]
    for v in bases:
        for r in range(len(_BREAKS) + 1):
            for chosen in itertools.combinations(_BREAKS, r):
                broken = set().union(*(names for names, _ in chosen))
                w = _plus(v, [t for _, terms in chosen for t in terms])
                expected = next((name for name in _ORDER if name in broken), None)
                assert _four_step_errors(w) == expected, (str(v), broken)
                assert vk._vertex_invariant_errors(w) == expected, (str(v), broken)
    for legs, n in _legged_chars_slices():
        for c in enumerate_configs(*legs, n=n):
            v = vertex_character(c).poly
            assert vk._vertex_invariant_errors(v) is None and _four_step_errors(v) is None
            for k in v.d:
                w = LaurentPoly({**v.d, k: -v.d[k]})
                assert vk._vertex_invariant_errors(w) == _four_step_errors(w) is not None


def test_character_independent_of_bound():
    for legs in (((), (), ()), ((1,), (), ()), ((2,), (1, 1), ()), ((1,), (1,), (1,))):
        for c in enumerate_configs(*legs, n=min_volume(*legs) + 2):
            assert vertex_character(widen(c, 2)) == vertex_character(c)


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
    pt = pt_vertex_series((1,), order=3)
    assert (pt.series * dt0.series).eq_through(dt1.series, 3)
    # re-truncation stability
    pt_lo = pt_vertex_series((1,), order=2)
    assert pt_lo.series.eq_through(pt.series, 2)
    # two legs meet in a box, so n_min = -1 and DT_0 is needed through Q^3
    legs = ((1,), (1,))
    dt11 = dt_vertex_series(*legs, order=3)
    pt = pt_vertex_series(*legs, order=2)
    assert pt.series.min_power == min_volume(*legs) == -1
    assert pt.series.trunc == 2
    assert (pt.series * dt0.series).eq_through(dt11.series, 2)
    pt_lo = pt_vertex_series(*legs, order=1)
    assert pt_lo.series.eq_through(pt.series, 1)


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


def test_quot2_rejects_non_monomial_framing():
    w = LaurentPoly.term(1, (2, 0, 0, 0, 0))
    with pytest.raises(ValueError, match=r"w2 = .* is not a monomial with coefficient 1"):
        quot2_vertex_series(1, framing=(ONE, ONE + w))
    with pytest.raises(ValueError, match=r"w1 = .* is not a monomial with coefficient 1"):
        quot2_vertex_series(1, framing=(w + w, ONE))


def test_quot2_rejects_framing_of_one_weight():
    with pytest.raises(ValueError, match="two monomials, not 1"):
        quot2_vertex_series(1, framing=(ONE,))


def test_quot2_rejects_framing_of_three_weights():
    w = LaurentPoly.term(1, (2, 0, 0, 0, 0))
    with pytest.raises(ValueError, match="two monomials, not 3"):
        quot2_vertex_series(1, framing=(ONE, w, w * w))


def _tangent_block(to, frm):
    """Numerator over D = (1-t1)(1-t2)(1-t3) of the bilinear tangent block
    between reduced characters (a, axes): A_to + bar(A_frm) - A_to
    bar(A_frm), where A = a times the inactive denominator factors."""
    from kvertex.boxconfig import _ONE_MINUS_T

    (a_to, axes_to), (a_frm, axes_frm) = to, frm
    for axis in range(3):
        if axis not in axes_to:
            a_to = a_to * _ONE_MINUS_T[axis]
        if axis not in axes_frm:
            a_frm = a_frm * _ONE_MINUS_T[axis]
    a_frm_bar = a_frm.bar()
    return a_to + a_frm_bar - a_to * a_frm_bar


def _four_block_char(pair, framing):
    """The rank-2 character as four tangent blocks twisted by w_b / w_a,
    three exact divisions by 1 - t_i and the pole check: the reference for
    the closed form. The character, or the first broken invariant."""
    from kvertex.boxconfig import _ONE_MINUS_T, _cleared_character
    from kvertex.exactalg import divide_exact

    w = framing or (ONE, LaurentPoly.var(3))  # w1 = 1, w2 = the framing ratio u2
    cleared = [_cleared_character(c) for c in pair]
    num = LaurentPoly.zero()
    for a in range(2):
        for b in range(2):
            num = num + _tangent_block(cleared[b], cleared[a]) * w[b] * w[a].bar()
    for f in _ONE_MINUS_T:
        num = divide_exact(num, f)
        if num is None:
            return "pole not cleared"
    return _four_step_errors(num) or num


@pytest.mark.parametrize("exps", [None, (1, 0, 0), (37, -5, 3), (2100, 0, 1)])
def test_quot_character_matches_four_blocks(exps):
    # t^(1,0,0) makes boxes of the two partitions meet, and the certificate
    # rejects some pairs; t^(37,-5,3) and t^(2100,0,1) lie in two of the
    # benchmark's framing bands
    import kvertex.vertexk as vk
    from kvertex.boxconfig import enumerate_quot_pairs

    framing = exps and (ONE, LaurentPoly.term(1, tuple(2 * x for x in exps) + (0, 0)))
    u = vk._framing_offset(framing)
    rejected = 0
    for m in range(5):
        for pair in enumerate_quot_pairs(m):
            expect = _four_block_char(pair, framing)
            try:
                got = vk._quot_vertex_char(pair, u).poly
            except ArithmeticError as e:
                got = str(e)
                rejected += 1
            assert got == expect, (exps, [c.sorted_core() for c in pair])
    assert (rejected > 0) == (exps == (1, 0, 0))


def test_jobs_do_not_change_results():
    for series in (lambda jobs: dt_vertex_series(order=3, jobs=jobs),
                   lambda jobs: quot2_vertex_series(3, jobs=jobs)):
        a, b = series(1), series(2)
        assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(b.to_json(), sort_keys=True)


def _quot_weights(m, framing=None):
    import kvertex.vertexk as vk
    from kvertex.boxconfig import enumerate_quot_pairs

    char = partial(vk._quot_vertex_char, u=vk._framing_offset(framing))
    return [vk._weight(char, "pair", "m=%d" % m, job) for job in enumerate(enumerate_quot_pairs(m))]


def test_int64_layouts_match_dict_layout(monkeypatch):
    import kvertex.vertexk as vk
    from kvertex import fastsum

    layouts = set()
    pair_reduce = fastsum._pair_reduce

    def spy(arr, *args):
        layouts.add(type(arr).__name__)
        return pair_reduce(arr, *args)

    def unavailable(pk, m):
        raise fastsum.FastSumUnavailable("dict layout forced")

    def framing(*exps):
        return (ONE, LaurentPoly.term(1, tuple(2 * x for x in exps) + (0, 0)))

    monkeypatch.setattr(fastsum, "_pair_reduce", spy)
    cases = (
        [list(enumerate_configs((), (), (), n)) for n in range(6)]
        + [list(enumerate_configs((1,), (), (), n)) for n in range(4)]
    )
    weights = [(None, [vk.factored_weight(vertex_character(c)) for c in configs])
               for configs in cases]
    exps = [None, (5, 3, -2), (12, 3, -2), (500, 3, -2), (2241, 4, -2), (100001, 3, -2),
            (300001, 3, -2), (600001, 3, -2)]
    weights += [(e, _quot_weights(m, e and framing(*e))) for e in exps for m in range(3)]
    seen = []
    by_framing = {}
    for e, fws in weights:
        layouts.clear()
        fast = fastsum.sum_factored(fws)
        seen.append(frozenset(layouts))
        by_framing.setdefault(e, set()).update(layouts)
        with monkeypatch.context() as mp:
            mp.setattr(fastsum, "_lane_vec", unavailable)
            layouts.clear()
            exact = fastsum.sum_factored(fws)
            if len(fws) > 1:
                assert layouts == {"LaurentPoly"}
        assert fast[0] == exact[0] and fast[1] == exact[1]
    # some sums merge only densely (0-leg, quot2 symbolic), some only
    # sparsely (framing t^(500,3,-2) at m=2), some mix the two int64 layouts
    # (framing t^(12,3,-2) at m=2), some mix sparse and dict merges
    # (framing t^(100001,3,-2) at m=2), and some merge only on dicts
    # (t^(300001,3,-2) at m=2, t^(600001,3,-2) at m=1, 2)
    assert {
        frozenset({"_Dense"}),
        frozenset({"_Sparse"}),
        frozenset({"_Dense", "_Sparse"}),
    } <= set(seen)
    assert frozenset({"_Sparse", "LaurentPoly"}) in seen
    assert frozenset({"LaurentPoly"}) in seen
    # framings in t1-t3 get 20-bit lanes: these stay in int64
    assert "LaurentPoly" not in by_framing[(500, 3, -2)] | by_framing[(2241, 4, -2)]


def test_merge_layouts_follow_the_grown_fill(monkeypatch):
    # the layout rule estimates each operand's terms after its catch-ups
    # from its fill: every merge of the 0-leg sums through Q^6 and of the
    # symbolic quot2 sums through Q^3 goes dense, and every leaf there is
    # built dense, so no numerator changes layout; the merges of a framing
    # far from the tangent weights stay sparse
    import kvertex.vertexk as vk
    from kvertex import fastsum

    add = fastsum._int64_add
    layouts = []
    conversions = []

    def spy(*args):
        out = add(*args)
        layouts.append(type(out).__name__)
        return out

    def converting(fn):
        def wrapped(arr):
            out = fn(arr)
            if type(out) is not type(arr):
                conversions.append(fn.__name__)
            return out
        return wrapped

    monkeypatch.setattr(fastsum, "_int64_add", spy)
    for name in ("_to_sparse", "_to_dense"):
        monkeypatch.setattr(fastsum, name, converting(getattr(fastsum, name)))
    zero_leg = [[vk.factored_weight(vertex_character(c)) for c in enumerate_configs((), (), (), n)]
                for n in range(7)]
    for fws in zero_leg + [_quot_weights(m) for m in range(4)]:
        layouts.clear()
        fastsum.sum_factored(fws)
        assert layouts == ["_Dense"] * (len(fws) - 1)
        assert conversions == []
    layouts.clear()
    # framing t^(250,3,-2)
    fastsum.sum_factored(_quot_weights(3, (ONE, LaurentPoly.term(1, (500, 6, -4, 0, 0)))))
    assert layouts == ["_Sparse"] * 17


def _numerator(*factors):
    """Sparse fastsum numerator of prod (t^m - t^(-m))^e over (m, e), in
    five 12-bit lanes."""
    from kvertex import fastsum
    from kvertex.exactalg import _pack
    from kvertex.vertexk import FactoredWeight

    fw = FactoredWeight(1, {_pack(m): e for m, e in factors})
    return fastsum._to_sparse(fastsum._leaf(fw, _pk5())[0])


def _pk5():
    """The packing of a sum that uses all five lanes: 12 bits each."""
    from kvertex import fastsum

    return fastsum._packing(tuple(range(5)))


def _unknown(fws, pk):
    """The points of a sum of fws in packing pk, and values that know
    nothing at any of them (scale 0), so that every trial division runs."""
    from kvertex import fastsum

    pts = fastsum._Points(fws, pk)
    return pts, (0 * pts.one, 0 * pts.one)


def _reduce(arr, den):
    """fastsum._pair_reduce of arr over the denominator dict den, which
    it changes, with no point value known."""
    from kvertex import fastsum
    from kvertex.vertexk import FactoredWeight

    pts, val = _unknown([FactoredWeight(1, {m: -e for m, e in den.items()})], arr.pk)
    arr, den, _ = fastsum._pair_reduce(arr, den, val, pts)
    return arr, den


def _key(m, pk=None):
    """Packed key of the lane vector m in packing pk, by default five 12-bit
    lanes; FastSumUnavailable beyond a lane's limit."""
    from kvertex import fastsum
    from kvertex.exactalg import _pack

    pk = pk or _pk5()
    return pk.zero + sum(x << s for x, s in zip(fastsum._lane_vec(pk, _pack(m)), pk.shifts))


def test_dense_division_matches_sparse_division():
    from kvertex import fastsum

    directions = [(1, -1, 0, 0, 0), (2, 1, -1, 0, 0), (0, 0, 1, -1, 2), (3, 0, 0, 0, 0)]
    others = [(1, 2, 0, 0, 0), (0, 1, 1, 0, 0), (1, 0, -2, 1, 0)]
    for m in directions:
        prod = _numerator((m, 2), *[(o, 1) for o in others])
        dense = fastsum._to_dense(prod)
        q_dense = fastsum._dense_divide(dense, m)
        q_sparse = fastsum._divide_binomial(prod, m)
        assert q_dense is not None and q_sparse is not None
        assert fastsum._to_poly(q_dense) == fastsum._to_poly(q_sparse)
        once = _numerator((m, 1), *[(o, 1) for o in others])
        assert fastsum._to_poly(q_dense) == fastsum._to_poly(once)
        # without the factor, neither layout divides
        rest = _numerator(*[(o, 1) for o in others])
        assert fastsum._dense_divide(fastsum._to_dense(rest), m) is None
        assert fastsum._divide_binomial(rest, m) is None


def test_sparse_lanes_never_carry():
    from kvertex import fastsum

    one = _numerator(((1900, 0, 0, 0, 0), 1))
    with pytest.raises(fastsum.FastSumUnavailable):
        fastsum._mul_binomial(one, (1900, 0, 0, 0, 0))


def test_sparse_division_never_merges_lines():
    # The lines through p + m and q + m along 2m get the same packed key
    # when grouped; their sums, 1 and -1, must not be checked together.
    import numpy as np

    from kvertex import fastsum

    m, p, q = (1, 40, 0, 0, 0), (-1899, 40, 0, 0, 0), (-1842, -1816, 0, 0, 0)
    keys = np.array([_key(x) for x in (p, q)])
    f = fastsum._Sparse(keys, np.array([1, -1]), (-2048,) * 5, (2047,) * 5, _pk5())
    with pytest.raises(fastsum.FastSumUnavailable):
        fastsum._divide_binomial(f, m)


def test_division_beyond_lanes_is_redone_on_dicts():
    # Lines along 2m through this numerator could share a packed line key,
    # so the sparse division refuses it; the merge tree divides on dicts.
    from kvertex import fastsum
    from kvertex.exactalg import _pack

    m, a, b = (1, 40, 0, 0, 0), (1000, 0, 0, 0, 0), (0, 1000, 0, 0, 0)
    key = _pack(m)
    f = _numerator((m, 1), (a, 1), (b, 1))
    with pytest.raises(fastsum.FastSumUnavailable):
        fastsum._divide_binomial(f, m)
    q, den = _reduce(f, {key: 2})
    assert isinstance(q, LaurentPoly) and den == {key: 1}
    assert q == fastsum._to_poly(_numerator((a, 1), (b, 1)))


def test_five_lane_sums_keep_twelve_bit_keys():
    # A sum whose weights use all five lanes packs its keys in five 12-bit
    # lanes, as the hand-built keys of the lane-limit tests above assume.
    # Symbolic quot2 weights use t1-t3 and the framing ratio u2 and get four
    # 15-bit lanes, lane 4 none; 0-leg weights use t1-t3 only and get 20.
    import numpy as np

    import kvertex.vertexk as vk
    from kvertex import fastsum
    from kvertex.exactalg import _pack

    pk = _pk5()
    assert pk.bits == (12,) * 5
    for e in ((0,) * 5, (1900, -3, 0, 7, -1984), (-1984, 1984, 1, -1, 0)):
        old = sum((x + 2048) << (12 * (4 - i)) for i, x in enumerate(e))
        cell = np.ones((1,) * 5, dtype=np.int64)
        assert fastsum._to_sparse(fastsum._Dense(e, cell, 1, pk, cell)).keys.tolist() == [old]
        assert fastsum._lane_vec(pk, _pack(e)) == e
    assert fastsum._sum_packing(_quot_weights(2)).bits == (15, 15, 15, 15, 0)
    zero_leg = [vk.factored_weight(vertex_character(c)) for c in enumerate_configs((), (), (), 3)]
    assert fastsum._sum_packing(zero_leg).bits == (20, 20, 20, 0, 0)


def test_symbolic_quot2_uses_one_ratio_lane(monkeypatch):
    # A symbolic rank-2 weight depends on the framing only through u2 in
    # lane 3, and lane 4 (u3) stays empty; the leaves then fill their boxes
    # and the m = 3 sum merges densely.
    from kvertex import fastsum
    from kvertex.exactalg import _unpack

    for m in range(4):
        for fw in _quot_weights(m):
            assert all(_unpack(k)[4] == 0 for k in fw.fac), m
    layouts = []
    pair_reduce = fastsum._pair_reduce

    def spy(arr, *args):
        layouts.append(type(arr).__name__)
        return pair_reduce(arr, *args)

    monkeypatch.setattr(fastsum, "_pair_reduce", spy)
    fastsum.sum_factored(_quot_weights(3))
    assert "_Dense" in layouts


def test_used_lanes_share_sixty_bits_up_to_the_big_lane():
    # Each packing fits int64 with room for key +- offset, and no lane is
    # wider than the big packing's, so conversion to a dict stays exact: a
    # product that passes the big lane raises instead of wrapping.
    import numpy as np

    from kvertex import fastsum
    from kvertex.exactalg import _OFF as BIG_OFF
    from kvertex.exactalg import _pack

    for k in range(1, 6):
        for used in itertools.combinations(range(5), k):
            pk = fastsum._packing(used)
            width = min(60 // k, 24)
            assert pk.bits == tuple(width if i in used else 0 for i in range(5))
            assert sum(pk.bits) <= 60 and max(pk.lane_max) < BIG_OFF
    pk = fastsum._packing((0,))
    m = fastsum._lane_vec(pk, _pack((2 ** 22, 0, 0, 0, 0)))
    one = fastsum._mul_binomial(fastsum._Sparse(np.array([pk.zero]), np.array([1]), (0,) * 5,
                                                (0,) * 5, pk), m)
    with pytest.raises(fastsum.FastSumUnavailable):
        fastsum._mul_binomial(one, m)


def test_lane_limits_are_per_lane():
    from kvertex import fastsum
    from kvertex.exactalg import _pack

    pk = fastsum._packing((0, 1, 2))
    lim = (1 << 19) - 64
    e = (lim, -lim, 1, 0, 0)
    assert fastsum._lane_vec(pk, _pack(e)) == e
    for e in ((lim + 1, 0, 0, 0, 0), (0, 0, -lim - 1, 0, 0), (0, 0, 0, 1, 0)):
        with pytest.raises(fastsum.FastSumUnavailable):
            fastsum._lane_vec(pk, _pack(e))
    # a line spans at most each lane's mask before two lines could share a key
    mv, top = (1, 0, 1, 0, 0), (1 << 20) - 1
    assert not fastsum._line_keys_collide(pk, (0,) * 5, (0, top, top, 0, 0), mv, 0)
    assert fastsum._line_keys_collide(pk, (0,) * 5, (0, 0, top + 1, 0, 0), mv, 0)
    assert fastsum._line_keys_collide(pk, (0,) * 5, (0, top + 1, 0, 0, 0), mv, 0)


def test_lane_caches_are_per_packing():
    # One big key fits the four-lane packing and uses lane 3, which the
    # three-lane packing leaves unused: asked in turn, the lane cache must
    # answer each packing for itself, lanes in one and a raise in the other.
    from kvertex import fastsum
    from kvertex.exactalg import _pack

    e = (3, -2, 1, 5, 0)
    fits, unused = fastsum._packing((0, 1, 2, 3)), fastsum._packing((0, 1, 2))
    for _ in range(2):
        assert fastsum._lane_vec(fits, _pack(e)) == e
        with pytest.raises(fastsum.FastSumUnavailable):
            fastsum._lane_vec(unused, _pack(e))


def _sparse(*terms, pk=None):
    """Sparse fastsum numerator from (coefficient, lane exponents) terms, in
    packing pk, by default five 12-bit lanes."""
    import numpy as np

    from kvertex import fastsum

    terms = sorted((_key(e, pk), c, e) for c, e in terms)
    lanes = list(zip(*[e for _, _, e in terms]))
    return fastsum._Sparse(np.array([k for k, _, _ in terms], dtype=np.int64),
                           np.array([c for _, c, _ in terms], dtype=np.int64),
                           tuple(map(min, lanes)), tuple(map(max, lanes)), pk or _pk5())


def _sparse_division_cases(lanes):
    """(f, m, divisible) for random sparse numerators f in the first lanes
    lanes, packed as a sum that uses just those, and weight directions m
    with a positive leading lane: f = g * (t^m - t^(-m)) for a random g, or
    that plus k t^x (1 + t^(2m)) (1 - t^e) for a unit vector e, which puts
    the sums 2k and -2k on two lines along 2m of several cells each."""
    import random

    from kvertex import fastsum
    from kvertex.exactalg import _pack

    rng = random.Random(11)
    pk = fastsum._packing(tuple(range(lanes)))

    def point():
        return tuple(rng.randint(-4, 4) for _ in range(lanes)) + (0,) * (5 - lanes)

    cases = []
    while len(cases) < 40:
        m = point()
        if not any(m) or next(x for x in m if x) < 0:
            continue
        g = LaurentPoly.from_terms((rng.choice((-1, 1)) * rng.randint(1, 9), point())
                                   for _ in range(rng.randint(1, 40)))
        if g.is_zero():
            continue
        f = g * fastsum._half_binomial(_pack(m))
        divisible = len(cases) % 2 == 0
        if not divisible:
            e = [0] * 5
            e[rng.randrange(lanes)] = 1
            f = f + (LaurentPoly.term(rng.randint(1, 9), point())
                     * (ONE + LaurentPoly.term(1, tuple(2 * x for x in m)))
                     * (ONE - LaurentPoly.term(1, tuple(e))))
        cases.append((_sparse(*[(c, x) for x, c in f.terms()], pk=pk), m, divisible))
    return cases


def test_sparse_division_matches_dict_division():
    # In each packing in use (three 20-bit lanes, four 15-bit, five 12-bit),
    # the sparse kernels agree with the dict layout: every division with
    # divide_exact, every product with _poly_mul, and an exact quotient
    # times its binomial gives the numerator back. Some directions have
    # negative lanes after the leading one.
    import numpy as np

    from kvertex import fastsum
    from kvertex.exactalg import _pack, divide_exact

    for lanes, bits in ((3, 20), (4, 15), (5, 12)):
        cases = _sparse_division_cases(lanes)
        assert cases[0][0].pk.bits == (bits,) * lanes + (0,) * (5 - lanes)
        assert any(min(m[m.index(next(x for x in m if x)):]) < 0 for _, m, _ in cases)
        for f, m, divisible in cases:
            poly = fastsum._to_poly(f)
            assert fastsum._to_poly(fastsum._mul_binomial(f, m)) == fastsum._poly_mul(poly, _pack(m))
            want = divide_exact(poly, fastsum._half_binomial(_pack(m)))
            assert (want is not None) == divisible
            got = fastsum._divide_binomial(f, m)
            if not divisible:
                assert got is None
                continue
            assert fastsum._to_poly(got) == want
            assert (np.diff(got.keys) > 0).all() and got.coeffs.all()
            assert fastsum._to_poly(fastsum._mul_binomial(got, m)) == poly


def test_sparse_division_rejects_negative_leading_lane():
    # both division kernels; the dense one raises before its scan, whose
    # line ends would reject this f and return None
    from kvertex import fastsum

    f = _numerator(((1, 2, 0, 0, 0), 1))
    m = (-1, 2, 0, 0, 0)
    for divide in (lambda: fastsum._divide_binomial(f, m),
                   lambda: fastsum._dense_divide(fastsum._to_dense(f), m)):
        with pytest.raises(ValueError, match=r"\(-1, 2, 0, 0, 0\) has a negative leading lane"):
            divide()


def test_merge_tree_shape(monkeypatch):
    # sum_factored merges the pairs of the old level loop (pair neighbours,
    # carry an odd one up, repeat), passes full=True only to the root merge
    # and gives a lone weight exactly one full pass.
    from kvertex import fastsum
    from kvertex.vertexk import FactoredWeight

    def level_loop(items):
        while len(items) > 1:
            merged = [(items[i], items[i + 1]) for i in range(0, len(items) - 1, 2)]
            items = merged + items[len(merged) * 2:]
        return items[0]

    fulls, reduces = [], []

    def pair_add(a, b, pts, full=False):
        fulls.append(full)
        return (a[0], b[0]), {}, None

    def pair_reduce(arr, den, val, pts, candidates=None):
        reduces.append(candidates)
        return ("reduced", arr), den, val

    monkeypatch.setattr(fastsum, "_leaf", lambda fw, pk: (fw.sign, {}))
    monkeypatch.setattr(fastsum, "_pair_add", pair_add)
    monkeypatch.setattr(fastsum, "_pair_reduce", pair_reduce)
    monkeypatch.setattr(fastsum, "_to_poly", lambda arr: arr)
    for n in range(1, 301):
        fulls.clear()
        reduces.clear()
        arr, _ = fastsum.sum_factored([FactoredWeight(i, {}) for i in range(n)])
        if n == 1:
            assert arr == ("reduced", 0) and reduces == [None] and fulls == []
        else:
            assert arr == level_loop(list(range(n)))
            assert fulls == [False] * (n - 2) + [True] and reduces == []


def test_points_lie_on_their_binomials():
    # Each denominator key m gets a point P_m with P_m^m = -1, so its own
    # binomial vanishes there; a key whose lane gcd g has 2g not dividing
    # p - 1 = 15 * 2^27 gets none.
    import random

    import numpy as np

    import kvertex.vertexk as vk
    from kvertex import fastsum
    from kvertex.exactalg import _pack
    from kvertex.vertexk import FactoredWeight

    rng = random.Random(3)
    e = np.array([rng.randrange(fastsum._P - 1) for _ in range(200)] + [0, fastsum._P - 2])
    assert fastsum._root_pow(e).tolist() == [pow(31, int(x), fastsum._P) for x in e]
    keys = [(1, 0, 0), (1, -1, 0), (2, 4, 0), (5, 10, -5), (3 * 5 * 2 ** 18, 0, 0),
            (2 ** 21, 0, 0), (7, 0, 0), (7, 14, -21), (11, 0, 22)]
    fac = {_pack(m + (0, 0)): -1 for m in keys}
    fac[_pack((1, 1, 1, 0, 0))] = 2
    pts = fastsum._Points([FactoredWeight(1, fac)], fastsum._packing((0, 1, 2)))
    assert sorted(pts.col) == sorted(_pack(m + (0, 0)) for m in keys[:6])
    for m, j in pts.col.items():
        assert pts.table[pts.row[m], j] == 0
    assert pts.table[pts.row[_pack((1, 1, 1, 0, 0))]].all()
    for fws in (_quot_weights(2), [vk.factored_weight(vertex_character(c))
                                   for c in enumerate_configs((), (), (), 4)]):
        pts = fastsum._Points(fws, fastsum._sum_packing(fws))
        assert len(pts.col) == len({m for fw in fws for m, x in fw.fac.items() if x < 0})
        assert all(pts.table[pts.row[m], j] == 0 for m, j in pts.col.items())


def test_point_certificates_skip_only_failing_divisions(monkeypatch):
    # Every trial division that the point values rule out would fail: it
    # fails divide_exact on dicts. Over 0-leg sums through volume 6, one-leg
    # sums through n_min + 3 and rank-2 sums through m = 2, symbolic and
    # framed, each family has divisions ruled out.
    import kvertex.vertexk as vk
    from kvertex import fastsum
    from kvertex.exactalg import divide_exact

    divide = fastsum._divide
    skipped = []
    last = [None, None]

    def spy(arr, m, nonzero=False):
        if nonzero:
            # the full pass rules out many keys on one numerator
            if last[0] is not arr:
                last[:] = arr, fastsum._to_poly(arr)
            assert divide_exact(last[1], fastsum._half_binomial(m)) is None
            skipped.append(m)
        return divide(arr, m, nonzero)

    def weights(legs, n):
        return [vk.factored_weight(vertex_character(c)) for c in enumerate_configs(*legs, n=n)]

    monkeypatch.setattr(fastsum, "_divide", spy)
    nmin = min_volume((1,))
    framing = (ONE, LaurentPoly.term(1, (400, 6, -4, 0, 0)))
    families = [
        [weights(((), (), ()), n) for n in range(7)],
        [weights(((1,), (), ()), n) for n in range(nmin, nmin + 4)],
        [_quot_weights(m) for m in range(3)],
        [_quot_weights(m, framing) for m in range(3)],
    ]
    for sums in families:
        skipped.clear()
        for fws in sums:
            fastsum.sum_factored(fws)
        assert skipped


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
    import numpy as np

    from kvertex import fastsum
    from kvertex.exactalg import _pack
    from kvertex.vertexk import FactoredWeight

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
            assert fastsum._goes_dense(x, [(m, e) for _, e in grow_x], y, [(m, e) for _, e in grow_y])
            if reaches:
                with pytest.raises(fastsum.FastSumUnavailable):
                    fastsum._int64_add(x, grow_x, y, grow_y)
            else:
                assert fastsum._to_poly(fastsum._int64_add(x, grow_x, y, grow_y)) == want
        pts, val = _unknown([FactoredWeight(1, {key: -1})], a.pk)
        num, den, _ = fastsum._pair_add((a, {}, val), (b, {key: 1}, val), pts)
        assert isinstance(num, LaurentPoly) == reaches
        assert fastsum._to_poly(num) == want and den == {key: 1}
        # add: two terms of c at the same monomial
        a = _sparse((c, (1, 0, 0, 0, 0)), (1, (3, 0, 0, 0, 0)))
        b = _sparse((c, (1, 0, 0, 0, 0)), (1, (5, 0, 0, 0, 0)))
        want = fastsum._to_poly(a) + fastsum._to_poly(b)
        num, den, _ = fastsum._pair_add((a, {}, val), (b, {}, val), pts)
        assert isinstance(num, LaurentPoly) == reaches
        assert fastsum._to_poly(num) == want and den == {}
        # quotient: 2c in the quotient, c in the dividend
        f, m, q = _quotient_case(c)
        dense = fastsum._to_dense(f)
        if reaches:
            before = dense.buf.copy()
            with pytest.raises(fastsum.FastSumUnavailable, match="coefficient out of range"):
                fastsum._dense_divide(dense, m)
            # the coefficient gate raises after the scan, which is undone
            assert np.array_equal(dense.buf, before) and dense.arr is dense.buf
        num, den = _reduce(dense, {_pack(m): 1})
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
        return fastsum._Sparse(fw.keys, scale * fw.coeffs, fw.lo, fw.hi, fw.pk)

    def grow(factors, key=lambda m: m):
        return [(key(m), factors.count(m)) for m in set(factors)]

    def private(dn):
        # an exact division consumes its numerator, so each key divides a copy
        buf = dn.arr.copy()
        return fastsum._Dense(dn.origin, buf, dn.bound, dn.pk, buf)

    f, m, q = _quotient_case(3)
    assert fastsum._to_poly(bounded(fastsum._dense_divide(bounded(fastsum._to_dense(f)), m))) == q
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
                q = fastsum._dense_divide(private(total), m)
                exact = fastsum._divide(want, _pack(m))
                assert (q is None) == (exact is None)
                if q is not None:
                    assert fastsum._to_poly(bounded(q)) == exact


def test_dense_division_scans_in_place(monkeypatch):
    # The in-place lag scan agrees with divide_exact on dicts, over random
    # dense products in the three-lane packing of 0-leg sums and the
    # four-lane one of symbolic quot2, each divided by its factors in turn
    # (quotients are views at interior offsets of one buffer) and by one
    # more direction; a failed division leaves the numerator to the next.
    # The directions include negative trailing lanes, the last unit vector
    # and twice it (lags d = 1 and 2) and the first one (d a whole plane of
    # the buffer); spans with and without a ragged last row, and lags on
    # both sides of _SCAN_WIDTH, all occur in exact and in failing divisions.
    import random

    import numpy as np

    from kvertex import fastsum
    from kvertex.exactalg import _pack, divide_exact

    scans, kinds = [], set()
    lag_scan = fastsum._lag_scan

    def spy(span, d):
        scans.append((d, span.size % d != 0, d < fastsum._SCAN_WIDTH))
        lag_scan(span, d)

    monkeypatch.setattr(fastsum, "_lag_scan", spy)
    rng = random.Random(23)
    for lanes, width in ((3, 3), (4, 2)):
        pk = fastsum._packing(tuple(range(lanes)))
        pad = (0,) * (5 - lanes)
        last = (0,) * (lanes - 1) + (1,)
        special = [(1,) + (0,) * (lanes - 1), last, tuple(2 * x for x in last),
                   (1, -1) + (0,) * (lanes - 2), (0, 1, -2) + (0,) * (lanes - 3),
                   (1, 0, -1) + (0,) * (lanes - 3)]
        dirs = [m for m in itertools.product(range(-2, 3), repeat=lanes) if m > (0,) * lanes]
        exact = set()
        for _ in range(40):
            # some products are long in the last lane, for lags of whole planes
            # past _SCAN_WIDTH and long chains at d = 1, 2
            widths = (width,) * (lanes - 1) + (rng.choice((width, 300)),)
            g = LaurentPoly.from_terms(
                (rng.choice((-1, 1)) * rng.randint(1, 99),
                 tuple(2 * rng.randrange(w) for w in widths) + pad)
                for _ in range(rng.randint(1, 12)))
            if g.is_zero():
                continue
            factors = rng.sample(special, 2) + rng.sample(dirs, rng.randint(0, 2))
            factors += rng.sample(factors, rng.randint(0, 2))
            f = fastsum._grow(g, [(_pack(m + pad), 1) for m in factors], fastsum._poly_mul)
            if rng.random() < 0.25:
                # doubling one term leaves f divisible by no binomial
                x, c = rng.choice(list(f.terms()))
                f = f + LaurentPoly.from_terms([(c, x)])
            dn = fastsum._to_dense(_sparse(*[(c, x) for x, c in f.terms()], pk=pk))
            keys = rng.sample(factors, len(factors)) + [rng.choice(special + dirs)]
            for m in keys:
                want = divide_exact(f, fastsum._half_binomial(_pack(m + pad)))
                buf = dn.buf
                before = buf.copy()
                ran = len(scans)
                q = fastsum._dense_divide(dn, m + pad)
                kinds.update((ragged, narrow, want is not None) for _, ragged, narrow in scans[ran:])
                if want is None:
                    assert q is None
                    assert np.array_equal(buf, before) and dn.buf is buf
                    assert fastsum._to_poly(dn) == f
                    continue
                assert fastsum._to_poly(q) == want
                # the quotient is a view of its numerator's buffer, zero
                # outside its box, and the numerator is spent
                assert q.buf is buf and np.shares_memory(q.arr, buf)
                assert np.count_nonzero(buf) == np.count_nonzero(q.arr)
                with pytest.raises(AttributeError):
                    fastsum._dense_divide(dn, m + pad)
                exact.add(m)
                dn, f = q, want
        assert set(special) <= exact
    assert {1, 2} <= {d for d, _, _ in scans}
    # every kind of span, exact and failing
    assert kinds == set(itertools.product((False, True), repeat=3))


def test_dense_division_rejects_before_its_guard():
    # On one line along m of coefficients +-c, c just below the coefficient
    # limit, the scan wraps int64 (partial sums reach -5c) and runs * bound
    # passes the prefix-sum guard. With a nonzero line sum the end cell
    # rejects the division first, exact modulo 2^64: None, no raise. With a
    # zero one the guard raises; either way the buffer comes back
    # bit-identical, and the merge tree redoes the division on dicts.
    import numpy as np

    from kvertex import fastsum
    from kvertex.exactalg import _pack, divide_exact

    c = fastsum._COEFF_LIMIT - 1
    m = (1, 0, 0, 0, 0)
    pk = fastsum._packing((0, 1, 2))
    for tail, divides in ((1, False), (0, True)):
        line = [c] * 5 + [-c] * 4 + [-c + tail]
        buf = np.array(line, dtype=np.int64).reshape(10, 1, 1, 1, 1)
        before = buf.copy()
        dn = fastsum._Dense((0,) * 5, buf, c, pk, buf)
        assert 10 * c > fastsum._SUM_LIMIT
        f = fastsum._to_poly(dn)
        want = divide_exact(f, fastsum._half_binomial(_pack(m)))
        assert (want is not None) == divides
        if divides:
            with pytest.raises(fastsum.FastSumUnavailable, match="prefix sums could overflow"):
                fastsum._dense_divide(dn, m)
        else:
            assert fastsum._dense_divide(dn, m) is None
        assert np.array_equal(buf, before) and dn.arr is buf
        if divides:
            q, den = _reduce(dn, {_pack(m): 1})
            assert isinstance(q, LaurentPoly) and q == want and den == {}


def test_dense_leaves_match_dict_products():
    # A leaf is dense when its product box has at most _DENSE_FILL cells per
    # possible term, prod (e + 1) over its binomials, grown from one cell,
    # and sparse otherwise; either way it equals the dict product, in the
    # three-lane packing of 0-leg sums and the five-lane one of quot2.
    import random
    from math import prod

    from kvertex import fastsum
    from kvertex.exactalg import _pack, _unpack
    from kvertex.vertexk import FactoredWeight

    def check(fw, pk):
        arr, den = fastsum._leaf(fw, pk)
        grow = sorted((m, e) for m, e in fw.fac.items() if e > 0)
        want = fastsum._grow(LaurentPoly.const(fw.sign), grow, fastsum._poly_mul)
        assert fastsum._to_poly(arr) == want
        assert den == {m: -e for m, e in fw.fac.items() if e < 0}
        cells = prod(sum(e * abs(_unpack(m)[lane]) for m, e in grow) + 1 for lane in range(5))
        assert isinstance(arr, fastsum._Dense) == (
            cells <= fastsum._DENSE_FILL * prod(e + 1 for _, e in grow))
        if isinstance(arr, fastsum._Dense):
            assert arr.arr.size == cells
            assert int(abs(arr.arr).max()) <= arr.bound
            # the box is tight: every face holds a nonzero coefficient
            assert fastsum._trim(arr.origin, arr.arr, arr.bound, pk).arr.shape == arr.arr.shape
        return arr

    rng = random.Random(19)
    kinds = set()
    for used, lanes, width in (((0, 1, 2), 3, 2), (tuple(range(5)), 5, 1)):
        pk = fastsum._packing(used)
        dirs = [m + (0,) * (5 - lanes) for m in itertools.product(range(-width, width + 1),
                                                                   repeat=lanes) if m > (0,) * lanes]
        for _ in range(60):
            fac = {_pack(m): rng.randint(1, 3) for m in rng.sample(dirs, rng.randint(0, 5))}
            fac[_pack(rng.choice(dirs))] = -rng.randint(1, 2)
            arr = check(FactoredWeight(rng.choice((-1, 1)), fac), pk)
            kinds.add((type(arr).__name__, max(fac.values()) > 1))
    assert {("_Dense", True), ("_Dense", False), ("_Sparse", False)} <= kinds
    pk = fastsum._packing((0, 1, 2))
    # 6^3 cells for at most 16 terms: the box is never built
    far = [(4, 0, 0, 0, 0), (0, 4, 0, 0, 0), (0, 0, 4, 0, 0), (1, 1, 1, 0, 0)]
    assert isinstance(check(FactoredWeight(1, {_pack(m): 1 for m in far}), pk), fastsum._Sparse)
    # 11^2 cells for at most 16 terms: dense, although the terms lie on one
    # line, at most 11 of them, since the rule never counts them
    line = [(k, k, 0, 0, 0) for k in range(1, 5)]
    assert isinstance(check(FactoredWeight(1, {_pack(m): 1 for m in line}), pk), fastsum._Dense)


def test_dense_growth_at_an_interior_offset_wraps_flat_rows():
    # a grows inside the union box with b, at an interior offset: its
    # region is narrower than the union box in the trailing lanes, so the
    # flat span of each shift crosses cells outside the region, which must
    # stay zero. The directions have negative trailing lanes.
    from kvertex import fastsum
    from kvertex.exactalg import _pack

    def dense(*factors):
        return fastsum._to_dense(_numerator(*[(m + (0, 0), e) for m, e in factors]))

    a = dense(((1, 0, 0), 1))
    b = dense(((2, 0, 0), 1), ((0, 5, 0), 1), ((0, 0, 5), 1))
    for grow_a in ([((1, -1, -1, 0, 0), 1)], [((1, -1, -1, 0, 0), 1), ((0, 1, -1, 0, 0), 2)]):
        g = fastsum._growth(grow_a)
        # a's grown box lies strictly inside b's in lanes 1 and 2
        assert all(x - y > o and x + y + 2 * (n - 1) < o + 2 * (k - 1)
                   for x, y, n, o, k in list(zip(a.origin, g, a.arr.shape, b.origin,
                                                 b.arr.shape))[1:3])
        want = fastsum._grow(fastsum._to_poly(a), [(_pack(m), e) for m, e in grow_a],
                             fastsum._poly_mul) + fastsum._to_poly(b)
        for x, gx, y, gy in ((a, grow_a, b, []), (b, [], a, grow_a)):
            assert fastsum._to_poly(fastsum._dense_sum(x, gx, y, gy)) == want


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


@pytest.mark.parametrize("exps", [(292, 0, 0), (500, 3, -2), (300001, 3, -2)])
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
