"""Torus-fixed box configurations: plane partitions with up to three legs,
their enumeration, and their exact characters.

A configuration is a finite order ideal ("core") inside the cube [0,B)^3
together with three leg partitions prescribing its asymptotics along the
coordinate axes. Box (a,b,c) contributes the monomial t1^a t2^b t3^c to
the character, so a single box at the origin has character 1. The leg over
partition lambda along axis i occupies the cells of lambda in the two
transverse coordinates, rows indexed by the lower-numbered transverse axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .exactalg import ONE, LaurentPoly, RatFunc

# Transverse axis pairs per axis, lower-numbered first:
# axis 0 -> rows on axis 1, columns on axis 2, etc.
_AXPAIR = ((1, 2), (0, 2), (0, 1))


def leg_reach(legs):
    reach = 0
    for leg in legs:
        if leg:
            reach = max(reach, len(leg), leg[0])
    return reach


def _leg_cells(leg, axis, plane):
    """The boxes of the leg's cross-section in the given plane across its
    axis."""
    row_axis, col_axis = _AXPAIR[axis]
    for r in range(len(leg)):
        for s in range(leg[r]):
            box = [0, 0, 0]
            box[axis] = plane
            box[row_axis] = r
            box[col_axis] = s
            yield tuple(box)


@lru_cache(maxsize=None)
def minimal_core(legs, bound):
    """Union of the truncated leg cylinders: the unique smallest valid core.
    Cached: legs must be a tuple of tuples."""
    return frozenset(
        box for axis in range(3) for a in range(bound) for box in _leg_cells(legs[axis], axis, a)
    )


@dataclass(frozen=True)
class BoxConfig:
    """A torus-fixed configuration: legs, stabilization bound, core boxes."""

    legs: tuple
    bound: int
    core: frozenset = field(compare=True)

    def sorted_core(self):
        return sorted(self.core)

    def leg_sizes(self):
        return sum(sum(leg) for leg in self.legs)

    def to_json(self):
        return {
            "legs": [list(leg) for leg in self.legs],
            "bound": self.bound,
            "core": [list(b) for b in self.sorted_core()],
        }


def renormalized_volume(config):
    """|core| - B * (|lambda| + |mu| + |nu|); independent of the bound.

    Raises if the core is not stabilized: the two outermost slices along
    each axis must equal the leg cross-section exactly.
    """
    b = config.bound
    for axis in range(3):
        for plane in (b - 1, b - 2):
            if plane < 0:
                continue
            slice_boxes = {box for box in config.core if box[axis] == plane}
            if slice_boxes != set(_leg_cells(config.legs[axis], axis, plane)):
                raise ValueError("bound too small")
    return len(config.core) - b * config.leg_sizes()


def min_volume(l1=(), l2=(), l3=()):
    """Minimal renormalized volume for the given legs (attained exactly by
    the union of leg cylinders)."""
    legs = (tuple(l1), tuple(l2), tuple(l3))
    b = leg_reach(legs) + 2
    core = minimal_core(legs, b)
    return len(core) - b * sum(sum(leg) for leg in legs)


def _predecessors(box):
    a, b, c = box
    if a:
        yield (a - 1, b, c)
    if b:
        yield (a, b - 1, c)
    if c:
        yield (a, b, c - 1)


def enumerate_configs(l1=(), l2=(), l3=(), n=0):
    """All T-fixed configurations with the given legs and renormalized
    volume n, each exactly once, in canonical order.

    Depth-first extension of the minimal configuration by addable boxes in
    increasing lexicographic order; lexicographic order refines the product
    order on boxes, so every intermediate prefix is itself an order ideal
    and no configuration is produced twice. The walk carries the sorted
    addable boxes after the last one added: adding box L[i] of that list
    leaves L[i+1:] addable and makes addable only successors of L[i], which
    all come after it.
    """
    legs = (tuple(l1), tuple(l2), tuple(l3))
    nmin = min_volume(*legs)
    extras = n - nmin
    if extras < 0:
        return
    bound = extras + leg_reach(legs) + 2
    base = minimal_core(legs, bound)
    limit = bound - 2

    core = set(base)

    def addable(box):
        return (box not in core and all(x < limit for x in box)
                and all(p in core for p in _predecessors(box)))

    def successors(box):
        a, b, c = box
        return [s for s in ((a + 1, b, c), (a, b + 1, c), (a, b, c + 1)) if addable(s)]

    def rec(boxes, remaining):
        if remaining == 0:
            yield BoxConfig(legs, bound, frozenset(core))
            return
        for i, box in enumerate(boxes):
            core.add(box)
            yield from rec(sorted(boxes[i + 1:] + successors(box)), remaining - 1)
            core.remove(box)

    roots = {(0, 0, 0)}.union(*(successors(box) for box in core))
    yield from rec(sorted(filter(addable, roots)), extras)


def plane_partitions(n):
    """0-leg configurations of volume n (finite plane partitions)."""
    return enumerate_configs((), (), (), n)


def leg_diagram_poly(leg, axes):
    """sum over cells (r,s) of the partition of t'^r t''^s, where
    axes = (row variable index, column variable index)."""
    terms = []
    for r in range(len(leg)):
        for s in range(leg[r]):
            exps = [0, 0, 0, 0, 0]
            exps[axes[0]] = 2 * r
            exps[axes[1]] = 2 * s
            terms.append((1, tuple(exps)))
    return LaurentPoly.from_terms(terms)


_ONE_MINUS_T = tuple(ONE - LaurentPoly.var(i) for i in range(3))


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


def character(config):
    """Exact character of the structure sheaf at the fixed point: the core
    boxes plus a geometric tail per leg, as the cleared character over the
    product of (1 - t_i) on the leg axes. Independent of the bound."""
    a, axes = _cleared_character(config)
    den = ONE
    for axis in axes:
        den = den * _ONE_MINUS_T[axis]
    return RatFunc(a, den)


def enumerate_quot_pairs(m):
    """Ordered pairs of finite plane partitions with total volume m."""
    if m < 0:
        raise ValueError("volume must be nonnegative")
    parts = [list(plane_partitions(k)) for k in range(m + 1)]
    for k in range(m + 1):
        for c1 in parts[k]:
            for c2 in parts[m - k]:
                yield (c1, c2)
