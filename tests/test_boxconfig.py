"""Box configuration enumeration against an independent oracle, plus
characters and volumes."""

import itertools

import pytest

from kvertex.boxconfig import (
    BoxConfig,
    character,
    enumerate_configs,
    enumerate_quot_pairs,
    min_volume,
    minimal_core,
    plane_partitions,
    renormalized_volume,
)
from kvertex.exactalg import ONE, LaurentPoly, RatFunc, T1, T3


def widen(config, extra=1):
    """The same configuration at stabilization bound + extra."""
    nb = config.bound + extra
    return BoxConfig(config.legs, nb, config.core | minimal_core(config.legs, nb))


def oracle_plane_partitions(n):
    """Independent enumeration via monotone height matrices: h[i][j] is the
    column height, weakly decreasing along rows and columns."""
    if n == 0:
        return [frozenset()]
    out = []

    def rows(remaining, prev_row):
        if remaining == 0:
            yield []
            return
        for row in row_candidates(remaining, prev_row):
            for rest in rows(remaining - sum(row), row):
                yield [row] + rest

    def row_candidates(budget, prev_row):
        # weakly decreasing rows bounded above entrywise by the previous row
        def rec(pos, bound, left):
            if left == 0:
                yield []
                return
            if pos >= len(prev_row) and prev_row:
                return
            cap = min(bound, left, prev_row[pos] if prev_row else left)
            for h in range(cap, 0, -1):
                for rest in rec(pos + 1, h, left - h):
                    yield [h] + rest

        for total in range(1, budget + 1):
            for row in rec(0, total, total):
                if sum(row) == total:
                    yield row

    for matrix in rows(n, []):
        if sum(map(sum, matrix)) != n:
            continue
        boxes = set()
        for i, row in enumerate(matrix):
            for j, h in enumerate(row):
                for k in range(h):
                    boxes.add((i, j, k))
        if len(boxes) == n:
            out.append(frozenset(boxes))
    return [b for b in out]


def test_plane_partition_counts_match_oracle():
    expected = [1, 1, 3, 6, 13, 24, 48, 86]
    for n in range(8):
        got = {c.core for c in plane_partitions(n)}
        oracle = set(oracle_plane_partitions(n))
        assert got == oracle, n
        assert len(got) == expected[n]


def test_plane_partition_counts_extended():
    assert sum(1 for _ in plane_partitions(8)) == 160
    assert sum(1 for _ in plane_partitions(9)) == 282


def test_enumeration_is_canonical_and_deterministic():
    a = [c.sorted_core() for c in plane_partitions(5)]
    b = [c.sorted_core() for c in plane_partitions(5)]
    assert a == b
    assert len(set(map(tuple, a))) == len(a)


def test_order_ideal_property():
    for c in plane_partitions(5):
        core = set(c.core)
        maximal = [
            b
            for b in core
            if not any(
                succ in core
                for succ in ((b[0] + 1, b[1], b[2]), (b[0], b[1] + 1, b[2]), (b[0], b[1], b[2] + 1))
            )
        ]
        for b in maximal:
            rest = core - {b}
            assert all(
                all(p in rest for p in _preds(x)) for x in rest
            ), "removing a maximal box must leave an order ideal"


def _preds(box):
    a, b, c = box
    out = []
    if a:
        out.append((a - 1, b, c))
    if b:
        out.append((a, b - 1, c))
    if c:
        out.append((a, b, c - 1))
    return out


def old_enumeration(legs, n):
    """The enumeration that rescanned the whole core for the addable boxes
    after the last one at every step, kept as the oracle of the carried
    list."""
    from kvertex.boxconfig import _predecessors, leg_reach

    extras = n - min_volume(*legs)
    if extras < 0:
        return
    bound = extras + leg_reach(legs) + 2
    limit = bound - 2
    core = set(minimal_core(legs, bound))

    def addable_after(last):
        out = []
        seen = set()
        candidates = [(0, 0, 0)]
        for a, b, c in core:
            candidates += [(a + 1, b, c), (a, b + 1, c), (a, b, c + 1)]
        for cand in candidates:
            if cand in seen or cand in core:
                continue
            seen.add(cand)
            if last is not None and cand <= last:
                continue
            if any(x >= limit for x in cand):
                continue
            if all(p in core for p in _predecessors(cand)):
                out.append(cand)
        return sorted(out)

    def rec(last, remaining):
        if remaining == 0:
            yield BoxConfig(legs, bound, frozenset(core))
            return
        for cand in addable_after(last):
            core.add(cand)
            yield from rec(cand, remaining - 1)
            core.remove(cand)

    yield from rec(None, extras)


def test_carried_addable_list_matches_old_enumeration():
    # every leg triple over five small legs through n_min + 3, and the
    # 0-leg volumes through 8: the same configurations in the same order
    small = ((), (1,), (2,), (1, 1), (2, 1))
    cases = [(legs, n) for legs in itertools.product(small, repeat=3)
             for n in range(min_volume(*legs), min_volume(*legs) + 4)]
    cases += [(((), (), ()), n) for n in range(9)]
    total = 0
    for legs, n in cases:
        configs = list(enumerate_configs(*legs, n=n))
        assert configs == list(old_enumeration(legs, n)), (legs, n)
        total += len(configs)
    assert total > 5000


def test_single_leg_examples():
    assert min_volume((1,)) == 0
    cyl = list(enumerate_configs((1,), (), (), 0))
    assert len(cyl) == 1
    assert renormalized_volume(cyl[0]) == 0
    assert character(cyl[0]) == RatFunc(ONE, ONE - T1)
    plus_one = list(enumerate_configs((1,), (), (), 1))
    assert len(plus_one) == 2
    assert all(renormalized_volume(c) == 1 for c in plus_one)


def test_multi_leg_minimal_volumes():
    assert min_volume((1,), (1,), (1,)) == -2
    assert min_volume((1,), (1,)) == -1
    assert min_volume((2,), (2,), (2,)) < -2
    for legs in (((1,), (1,), ()), ((2,), (), (1, 1))):
        nmin = min_volume(*legs)
        assert sum(1 for _ in enumerate_configs(*legs, n=nmin)) == 1
        assert sum(1 for _ in enumerate_configs(*legs, n=nmin - 1)) == 0


def test_volume_is_bound_independent():
    for legs in (((1,), (), ()), ((2, 1), (1,), ())):
        for n in range(min_volume(*legs), min_volume(*legs) + 3):
            for c in enumerate_configs(*legs, n=n):
                assert renormalized_volume(widen(c)) == renormalized_volume(c)


def test_volume_rejects_unstabilized_core():
    bad = BoxConfig(((1,), (), ()), 4, frozenset({(0, 0, 0), (1, 0, 0)}))
    with pytest.raises(ValueError, match="bound too small"):
        renormalized_volume(bad)


def test_characters():
    box = next(plane_partitions(1))
    assert character(box) == RatFunc.one()
    columns = {str(character(c)) for c in plane_partitions(2)}
    assert str(RatFunc.from_poly(ONE + T3)) in columns
    for legs in (((1,), (), ()), ((1, 1), (2,), ())):
        for c in enumerate_configs(*legs, n=min_volume(*legs) + 1):
            assert character(c) == character(widen(c))


def test_empty_config():
    empty = next(plane_partitions(0))
    assert character(empty).is_zero()
    assert renormalized_volume(empty) == 0


def test_quot_pairs():
    assert sum(1 for _ in enumerate_quot_pairs(0)) == 1
    assert sum(1 for _ in enumerate_quot_pairs(1)) == 2
    assert sum(1 for _ in enumerate_quot_pairs(2)) == 7
    for c1, c2 in enumerate_quot_pairs(3):
        assert len(c1.core) + len(c2.core) == 3
    with pytest.raises(ValueError):
        list(enumerate_quot_pairs(-1))


def test_config_json():
    c = next(plane_partitions(1))
    j = c.to_json()
    assert j["core"] == [[0, 0, 0]]
    assert j["legs"] == [[], [], []]
