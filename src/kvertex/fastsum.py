"""The summation engine for fixed-point weights.

Weights are summed by a divide-and-conquer merge tree of factored
fractions: a numerator over a multiset of weight binomials t^m - t^(-m),
added over the factorwise lcm denominator and reduced by trial division
after every merge. Denominators are dicts keyed by the big-packed
half-weight keys of vertexk.FactoredWeight. A numerator is held in one of
three layouts:

- sparse: numpy int64 arrays of packed monomial keys (five 12-bit lanes,
  one per variable) and coefficients, plus per-lane bounds on the
  exponents;
- dense: an int64 array over the numerator's exponent bounding box, plus
  the lane values of its origin cell. All terms of a product of weight
  binomials have the same parity in each lane, so one cell is 2 lane units
  wide;
- dict: an exact LaurentPoly, multiplied with mul_binomial and divided with
  divide_exact. It holds any exponent and any coefficient.

Each leaf starts sparse, or as a dict when one of its factors leaves the
12-bit lanes. A merge with a dict operand runs on dicts. Otherwise the
merge goes dense when both operands share per-lane parity and the predicted
box of the sum has at most _DENSE_FILL cells per operand term, and stays
sparse if not. When an int64 merge or division raises FastSumUnavailable,
that one merge or division is redone on dicts, and the numerator stays a
dict from then on. No layout changes the merge order or the trial
divisions, so all give the same result.

Exactness of the int64 layouts is kept by range checks: every coefficient
stays below _COEFF_LIMIT; sparse lanes are checked against the true lane
range before every shift (bounds carried per array, recomputed from the
keys when they cross it) and on every dense-to-sparse conversion; a weight
binomial enters only if its exponents lie within _EXP_LIMIT. Sparse
coefficients are checked after every combine. A dense numerator carries an
upper bound on max |coeff|: exact when it is computed (on conversion from
sparse, and at every gated check), otherwise propagated, times 2 per
binomial, a + b per add and runs * bound per quotient (runs: the number of
cells of a line), and kept by trimming and negation. A dense step scans its
box for the max only when the propagated bound could reach _COEFF_LIMIT,
and raises FastSumUnavailable only when the exact max does; the prefix-sum
guard of a division likewise recomputes the bound before it raises, so a
loose bound never sends a merge to dicts. Each step's operands stay below
_COEFF_LIMIT, so no int64 value wraps.

Division by a weight binomial t^m - t^(-m) is exact or fails (None). The
sparse layout works line by line along the exponent direction 2m: after a
per-line zero-sum precheck, the quotient is a segmented negated prefix sum
over the dense range of line positions. The dense layout first sums every
line along m into an accumulator the size of a few slabs; the division is
exact exactly when all these sums vanish (none can wrap once the
division's prefix-sum guard holds), so a failing division is rejected
without a box-sized write. The quotient of an exact one is swept: the
recursion q(x) = q(x - 2m) - (t^m f)(x) runs along the leading lane of m,
one slab operation per step.

A dense merge allocates the union box once and grows the operand with
catch-up binomials inside it, one in-place subtraction per binomial; the
other operand, if it has catch-ups too, is grown in one box of its own.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod

import numpy as np

from .exactalg import LaurentPoly, _kneg, _unpack, divide_exact
from .exactalg import _LANE as _BIG_LANE, _OFF as _BIG_OFF, _SHIFTS as _BIG_SHIFTS

_LANE = 12
_OFF = 1 << (_LANE - 1)
_MASK = (1 << _LANE) - 1
_SHIFTS = tuple(_LANE * (4 - i) for i in range(5))
_ZERO = sum(_OFF << s for s in _SHIFTS)
_EXP_LIMIT = _OFF - 64
# A packed lane holds exactly the values -2048..2047.
_LANE_MIN = -_OFF
_LANE_MAX = _OFF - 1
# Every stored coefficient stays below 2^61. The only summations are
# combines of two arrays with unique keys or two boxes (bounded by
# 2 * 2^61 < 2^63) and the running sums inside division, which carry their
# own dynamic max * run-length bound; int64 arithmetic therefore never wraps,
# except in the dense line sums, which are trusted only under that bound.
_COEFF_LIMIT = 1 << 61
_SUM_LIMIT = 1 << 62
# A merge goes dense when its predicted box has at most this many cells per
# operand term: 64 B of box per term, against 16 B per term (before growth
# and sort scratch) for the sparse arrays, so this is the byte budget too.
_DENSE_FILL = 8


class FastSumUnavailable(Exception):
    """Raised when a numerator exceeds the safe ranges of the int64 layouts."""


@lru_cache(maxsize=4096)
def _small_from_big(kbig):
    """Small-packed key of a big-packed one; raises FastSumUnavailable when
    an exponent is beyond _EXP_LIMIT."""
    e = _unpack(kbig)
    if any(abs(x) > _EXP_LIMIT for x in e):
        raise FastSumUnavailable("exponent out of range")
    k = 0
    for x, s in zip(e, _SHIFTS):
        k += (x + _OFF) << s
    return k


@lru_cache(maxsize=4096)
def _lane_vec(m):
    """Lane values of a small-packed key."""
    return tuple(((m >> s) & _MASK) - _OFF for s in _SHIFTS)


def _lanes(keys):
    """(5, n) lane values of small-packed keys."""
    return np.stack([((keys >> s) & _MASK) - _OFF for s in _SHIFTS])


def _check_coeffs(coeffs):
    if coeffs.size and (coeffs.max() >= _COEFF_LIMIT or coeffs.min() <= -_COEFF_LIMIT):
        raise FastSumUnavailable("coefficient out of range")


def _check_lanes(lo, hi):
    if min(lo) < _LANE_MIN or max(hi) > _LANE_MAX:
        raise FastSumUnavailable("exponent out of lane range")


# -- sparse layout ------------------------------------------------------------


class _Sparse:
    """Sorted unique packed keys, nonzero coefficients, and per-lane bounds:
    every term has lo <= lane value <= hi. The bounds may be loose, and with
    no terms lo > hi."""

    __slots__ = ("keys", "coeffs", "lo", "hi")

    def __init__(self, keys, coeffs, lo, hi):
        self.keys = keys
        self.coeffs = coeffs
        self.lo = lo
        self.hi = hi

    def is_zero(self):
        return self.keys.size == 0


_EMPTY = _Sparse(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                 (_OFF,) * 5, (-_OFF - 1,) * 5)


def _dedupe(keys, coeffs):
    """Sort by key, combine equal keys, drop zeros."""
    if keys.size == 0:
        return keys, coeffs
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    coeffs = coeffs[order]
    starts = np.empty(keys.size, dtype=bool)
    starts[0] = True
    np.not_equal(keys[1:], keys[:-1], out=starts[1:])
    idx = np.flatnonzero(starts)
    sums = np.add.reduceat(coeffs, idx)
    keys = keys[idx]
    nz = sums != 0
    _check_coeffs(sums)
    return keys[nz], sums[nz]


def _add(a, b):
    keys, coeffs = _dedupe(np.concatenate((a.keys, b.keys)),
                           np.concatenate((a.coeffs, b.coeffs)))
    return _Sparse(keys, coeffs, tuple(map(min, a.lo, b.lo)), tuple(map(max, a.hi, b.hi)))


def _mul_binomial(arr, m):
    """arr * (t^m - t^(-m)) for a small-packed key m."""
    if arr.is_zero():
        return arr
    am = [abs(x) for x in _lane_vec(m)]
    lo = tuple(x - a for x, a in zip(arr.lo, am))
    hi = tuple(x + a for x, a in zip(arr.hi, am))
    if min(lo) < _LANE_MIN or max(hi) > _LANE_MAX:
        lanes = _lanes(arr.keys)
        lo = tuple(int(x) - a for x, a in zip(lanes.min(axis=1), am))
        hi = tuple(int(x) + a for x, a in zip(lanes.max(axis=1), am))
        _check_lanes(lo, hi)
    keys, coeffs = arr.keys, arr.coeffs
    d = m - _ZERO
    keys, coeffs = _dedupe(
        np.concatenate((keys + d, keys - d)),
        np.concatenate((coeffs, -coeffs)),
    )
    return _Sparse(keys, coeffs, lo, hi)


def _lead(mv):
    """Index of the leading nonzero lane of a weight direction."""
    for i, x in enumerate(mv):
        if x:
            return i
    raise ValueError("trivial weight direction")


def _line_keys_collide(lo, hi, mv, lead):
    """Whether two lines along m could get the same key in _divide_binomial.

    A line is keyed by the packed form of its point whose leading lane lies
    in [0, 2 m_lead); distinct points pack to distinct keys while each of
    their other lanes spans at most 2^12 - 1 values."""
    step = 2 * mv[lead]
    jspan = abs((hi[lead] + mv[lead]) // step - (lo[lead] + mv[lead]) // step)
    return any(h - x + 2 * abs(y) * jspan > _MASK
               for i, (x, h, y) in enumerate(zip(lo, hi, mv)) if i != lead)


def _divide_binomial(arr, m):
    """Exact quotient arr / (t^m - t^(-m)), or None.

    Equivalent to dividing arr * t^m by t^(2m) - 1: group terms into lines
    along the direction 2m, reject unless every line sums to zero, then
    take negated running prefix sums along each line (dense across gaps).
    """
    keys, coeffs = arr.keys, arr.coeffs
    if keys.size == 0:
        return arr
    mv = _lane_vec(m)
    d = m - _ZERO
    mu = 2 * d
    lead = _lead(mv)
    halfstep = mv[lead]
    step = 2 * halfstep
    if _line_keys_collide(arr.lo, arr.hi, mv, lead):
        lanes = _lanes(keys)
        arr.lo = tuple(lanes.min(axis=1).tolist())
        arr.hi = tuple(lanes.max(axis=1).tolist())
        if _line_keys_collide(arr.lo, arr.hi, mv, lead):
            raise FastSumUnavailable("exponent out of lane range")
    shifted = keys + d
    lane = ((keys >> _SHIFTS[lead]) & _MASK) - _OFF + halfstep
    j = lane // step
    base = shifted - j * mu
    order = np.lexsort((j, base))
    base = base[order]
    j = j[order]
    c = coeffs[order]
    starts = np.empty(base.size, dtype=bool)
    starts[0] = True
    np.not_equal(base[1:], base[:-1], out=starts[1:])
    idx = np.flatnonzero(starts)
    max_abs = int(np.abs(c).max()) if c.size else 0
    if max_abs and base.size > _SUM_LIMIT // max_abs:
        raise FastSumUnavailable("line sums could overflow")
    if np.add.reduceat(c, idx).any():
        return None
    seg_id = np.cumsum(starts) - 1
    line_base = base[idx]
    line_jfirst = j[idx]
    offs = j - line_jfirst[seg_id]
    seg_len = np.zeros(idx.size, dtype=np.int64)
    np.maximum.at(seg_len, seg_id, offs + 1)
    seg_start = np.concatenate(([0], np.cumsum(seg_len)[:-1]))
    total = int(seg_len.sum())
    if max_abs and total > _SUM_LIMIT // max_abs:
        raise FastSumUnavailable("prefix sums could overflow")
    dense = np.zeros(total, dtype=np.int64)
    dense[seg_start[seg_id] + offs] = c
    prefix = np.cumsum(dense)
    line_of_slot = np.repeat(np.arange(idx.size, dtype=np.int64), seg_len)
    carry = np.zeros(idx.size, dtype=np.int64)
    if idx.size > 1:
        carry[1:] = prefix[seg_start[1:] - 1]
    q = -(prefix - carry[line_of_slot])
    off_of_slot = np.arange(total, dtype=np.int64) - seg_start[line_of_slot]
    keys_out = line_base[line_of_slot] + (line_jfirst[line_of_slot] + off_of_slot) * mu
    nz = q != 0
    qnz = q[nz]
    _check_coeffs(qnz)
    keys_out, qnz = _dedupe(keys_out[nz], qnz)
    am = [abs(x) for x in mv]
    return _Sparse(keys_out, qnz, tuple(x + a for x, a in zip(arr.lo, am)),
                   tuple(x - a for x, a in zip(arr.hi, am)))


# -- dense layout -------------------------------------------------------------


class _Dense:
    """Coefficient of the monomial with lane values origin + 2 * index at
    arr[index]. The box is tight: every face holds a nonzero coefficient.
    bound is at least max |coeff| and below _COEFF_LIMIT."""

    __slots__ = ("origin", "arr", "bound")

    def __init__(self, origin, arr, bound):
        self.origin = origin
        self.arr = arr
        self.bound = bound

    def is_zero(self):
        return False

    def top(self):
        return tuple(o + 2 * (n - 1) for o, n in zip(self.origin, self.arr.shape))


def _box(start, shape):
    return tuple(slice(s, s + n) for s, n in zip(start, shape))


def _max_abs(arr):
    return max(int(arr.max()), -int(arr.min()))


def _gated(arr, bound):
    """A bound on max |coeff| of arr, given a propagated one: when that
    could reach _COEFF_LIMIT, the exact max, and FastSumUnavailable if the
    exact max reaches it too."""
    if bound < _COEFF_LIMIT:
        return bound
    bound = _max_abs(arr)
    if bound >= _COEFF_LIMIT:
        raise FastSumUnavailable("coefficient out of range")
    return bound


def _trim(origin, arr, bound):
    """Dense numerator over the support of arr, or _EMPTY."""
    cut = []
    for ax in range(5):
        lo, hi = 0, arr.shape[ax]
        view = np.moveaxis(arr, ax, 0)
        while lo < hi and not view[lo].any():
            lo += 1
        if lo == hi:
            return _EMPTY
        while not view[hi - 1].any():
            hi -= 1
        cut.append(slice(lo, hi))
        arr = np.moveaxis(view[lo:hi], 0, ax)
    return _Dense(tuple(o + 2 * c.start for o, c in zip(origin, cut)), arr, bound)


def _growth(grow):
    """Cells per lane by which the binomials (m, e) of grow widen a box."""
    g = [0] * 5
    for m, e in grow:
        g = [x + e * abs(y) for x, y in zip(g, _lane_vec(m))]
    return g


def _grow_into(out, dn, grow):
    """Write dn times the binomials (m, e) of grow into out, a zeroed box of
    the product's shape, and return the product's coefficient bound.

    Each binomial is applied in place. With f in the region R of out,
    f * (t^m - t^(-m)) is out[y] - out[y + m] over R and R - m (m in
    cells), so it takes one subtraction of out[R] from out[R - m]; numpy
    buffers the overlap. dn starts where the last binomial ends at the
    corner of out."""
    start = [0] * 5
    for m, e in grow:
        start = [x + e * max(y, 0) for x, y in zip(start, _lane_vec(m))]
    shape = dn.arr.shape
    out[_box(start, shape)] = dn.arr
    bound = dn.bound
    for m, e in grow:
        mv = _lane_vec(m)
        for _ in range(e):
            src = out[_box(start, shape)]
            start = [x - y for x, y in zip(start, mv)]
            dst = out[_box(start, shape)]
            np.subtract(dst, src, out=dst)
            start = [min(x, x + y) for x, y in zip(start, mv)]
            shape = tuple(n + abs(y) for n, y in zip(shape, mv))
            bound = _gated(out[_box(start, shape)], 2 * bound)
    return bound


def _dense_sum(a, grow_a, b, grow_b):
    """a * grow_a + b * grow_b, trimmed, for dense a and b whose grown boxes
    share per-lane parity. a is grown inside the union box; b is added in
    directly, or grown in a box of its own first when it has catch-ups."""
    if not grow_a:
        a, grow_a, b, grow_b = b, grow_b, a, grow_a
    boxes = []
    for x, grow in ((a, grow_a), (b, grow_b)):
        g = _growth(grow)
        boxes.append(([o - y for o, y in zip(x.origin, g)],
                      tuple(n + y for n, y in zip(x.arr.shape, g))))
    (lo_a, shape_a), (lo_b, shape_b) = boxes
    lo = tuple(map(min, lo_a, lo_b))
    hi = [max(x + 2 * n, y + 2 * k) for x, n, y, k in zip(lo_a, shape_a, lo_b, shape_b)]
    out = np.zeros(tuple((h - x) // 2 for x, h in zip(lo, hi)), dtype=np.int64)
    bound_a = _grow_into(out[_box([(x - y) // 2 for x, y in zip(lo_a, lo)], shape_a)], a, grow_a)
    if grow_b:
        arr_b = np.zeros(shape_b, dtype=np.int64)
        bound_b = _grow_into(arr_b, b, grow_b)
    else:
        arr_b, bound_b = b.arr, b.bound
    view = out[_box([(x - y) // 2 for x, y in zip(lo_b, lo)], shape_b)]
    np.add(view, arr_b, out=view)
    return _trim(lo, out, _gated(out, bound_a + bound_b))


def _line_sums_vanish(f, mv):
    """Whether f sums to zero along every line i + k m (m in cells) through
    its box, which holds exactly when f is divisible by t^m - t^(-m).

    Each line is summed into the accumulator cell of its point in the first
    |m_A| slabs along a lane A where m moves; A is chosen for the smallest
    accumulator, which is smaller than the box unless every line is only a
    few cells long. Halfway along A, the lines that have already left the
    box through another lane are checked, and a nonzero sum among them
    rejects the division before the second half is read. The sums may
    wrap, which keeps a zero sum zero."""
    shape = f.shape
    choices = []
    for ax, x in enumerate(mv):
        if x:
            runs = -(-shape[ax] // abs(x))
            acc = tuple(abs(x) if l == ax else n + (runs - 1) * abs(y)
                        for l, (n, y) in enumerate(zip(shape, mv)))
            choices.append((prod(acc), ax, runs, acc))
    _, ax, runs, acc_shape = min(choices)
    if mv[ax] < 0:
        mv = tuple(-y for y in mv)
    step = mv[ax]
    acc = np.zeros(acc_shape, dtype=np.int64)
    moving = [l for l, y in enumerate(mv) if y and l != ax]
    off = [(runs - 1) * max(y, 0) for y in mv]
    dst = [slice(o, o + n) for o, n in zip(off, shape)]
    src = [slice(None)] * 5
    for j in range(runs):
        s = j * step
        for l in moving:
            o = off[l] - j * mv[l]
            dst[l] = slice(o, o + shape[l])
        dst[ax] = slice(0, min(step, shape[ax] - s))
        src[ax] = slice(s, s + step)
        d = acc[tuple(dst)]
        np.add(d, f[tuple(src)], out=d)
        if j == runs // 2:
            for l in moving:
                # lines whose point in slab j + 1 lies past lane l's edge
                edge = off[l] - (j + 1) * mv[l]
                done = [slice(None)] * 5
                done[l] = slice(edge + shape[l], None) if mv[l] > 0 else slice(0, edge)
                if acc[tuple(done)].any():
                    return False
    return not acc.any()


def _dense_divide(dn, m):
    """Exact quotient dn / (t^m - t^(-m)), or None.

    A nonzero line sum along m rejects the division with no box-sized
    write. A line holds at most runs cells, so once the prefix-sum guard
    holds no line sum has wrapped, and zero sums mean the division is
    exact. The sweep then computes the quotient: with a = max(m, 0) and
    b = max(-m, 0) per lane in cells, the product q * (t^m - t^(-m)) has
    f[i] = q[i - a] - q[i - b], so r[i] = q[i - b] obeys
    r[i] = r[i - m] - f[i] over the box of f, and q is r over the box of f
    shrunk by |m|. The sweep runs along the leading lane L of m, |m_L|
    slabs per step (for m_L < 0 it divides by t^(-m) - t^m and negates).
    """
    mv = _lane_vec(m)
    f = dn.arr
    shape = f.shape
    if any(abs(x) >= n for x, n in zip(mv, shape)) or not _line_sums_vanish(f, mv):
        return None
    lead = _lead(mv)
    negate = mv[lead] < 0
    if negate:
        mv = tuple(-x for x in mv)
    step = mv[lead]
    runs = -(-shape[lead] // step)
    if runs > _SUM_LIMIT // dn.bound:
        dn.bound = _max_abs(f)
        if runs > _SUM_LIMIT // dn.bound:
            raise FastSumUnavailable("prefix sums could overflow")
    r = f.copy() if negate else -f
    tgt = [slice(max(x, 0), n + min(x, 0)) for x, n in zip(mv, shape)]
    src = [slice(max(-x, 0), n - max(x, 0)) for x, n in zip(mv, shape)]
    for s in range(step, shape[lead], step):
        w = min(step, shape[lead] - s)
        tgt[lead] = slice(s, s + w)
        src[lead] = slice(s - step, s - step + w)
        d = r[tuple(tgt)]
        np.add(d, r[tuple(src)], out=d)
    q = r[tuple(slice(max(-x, 0), max(-x, 0) + n - abs(x)) for x, n in zip(mv, shape))]
    return _Dense(tuple(o + abs(x) for o, x in zip(dn.origin, mv)), q,
                  _gated(q, runs * dn.bound))


# -- layout choice and conversions ----------------------------------------------


def _shares_parity(arr):
    """Whether all terms of a numerator have the same parity in each lane."""
    if isinstance(arr, _Dense):
        return True
    lanes = _lanes(arr.keys)
    return not ((lanes - lanes[:, :1]) & 1).any()


def _goes_dense(a, grow_a, b, grow_b):
    """Whether the sum of a and b, each times its catch-up binomials
    (m, e), fits the dense layout. A sparse operand's box comes from its
    carried bounds, which are loose only where an add cancelled terms at
    the edge of the box."""
    if a.is_zero() or b.is_zero():
        return False
    boxes = []
    terms = 0
    for arr, grow in ((a, grow_a), (b, grow_b)):
        if isinstance(arr, _Dense):
            lo, hi, n = arr.origin, arr.top(), int(np.count_nonzero(arr.arr))
        else:
            lo, hi, n = arr.lo, arr.hi, arr.keys.size
        g = _growth(grow)
        boxes.append(([x - y for x, y in zip(lo, g)], [x + y for x, y in zip(hi, g)]))
        terms += n
    (lo_a, hi_a), (lo_b, hi_b) = boxes
    if any((x - y) % 2 for x, y in zip(lo_a, lo_b)):
        return False
    cells = 1
    for la, ha, lb, hb in zip(lo_a, hi_a, lo_b, hi_b):
        cells *= (max(ha, hb) - min(la, lb)) // 2 + 1
    if cells > _DENSE_FILL * terms:
        return False
    return _shares_parity(a) and _shares_parity(b)


def _to_dense(arr):
    """A nonzero numerator in the dense layout; a sparse one must have the
    same parity in each lane across its terms."""
    if isinstance(arr, _Dense):
        return arr
    lanes = _lanes(arr.keys)
    lo = lanes.min(axis=1)
    idx = (lanes - lo[:, None]) >> 1
    out = np.zeros(tuple(idx.max(axis=1) + 1), dtype=np.int64)
    out[tuple(idx)] = arr.coeffs
    return _Dense(tuple(lo.tolist()), out, _max_abs(arr.coeffs))


def _to_sparse(arr):
    if not isinstance(arr, _Dense):
        return arr
    lo, hi = arr.origin, arr.top()
    _check_lanes(lo, hi)
    idx = np.nonzero(arr.arr)
    keys = np.full(idx[0].size, _ZERO, dtype=np.int64)
    for i, o, s in zip(idx, lo, _SHIFTS):
        keys += (o + 2 * i) << s
    return _Sparse(keys, arr.arr[idx], lo, hi)


def _to_poly(arr):
    """Numerator in any layout as a LaurentPoly (big packing)."""
    if isinstance(arr, LaurentPoly):
        return arr
    if isinstance(arr, _Dense):
        idx = np.nonzero(arr.arr)
        lanes = [o + 2 * i for o, i in zip(arr.origin, idx)]
        coeffs = arr.arr[idx]
    else:
        lanes = list(_lanes(arr.keys))
        coeffs = arr.coeffs
    # A big key has five 24-bit lanes: lanes 0-1 and lanes 3-4 are packed
    # in int64, and only the three parts are joined as Python ints.
    v = [x + _BIG_OFF for x in lanes]
    high = ((v[0] << _BIG_LANE) + v[1]).tolist()
    mid = v[2].tolist()
    low = ((v[3] << _BIG_LANE) + v[4]).tolist()
    return LaurentPoly({
        (h << _BIG_SHIFTS[1]) + (x << _BIG_SHIFTS[2]) + lw: c
        for h, x, lw, c in zip(high, mid, low, coeffs.tolist())
    })


# -- dict layout --------------------------------------------------------------


def _half_binomial(m):
    """w^(1/2) - w^(-1/2) where m is the big-packed key of w^(1/2)."""
    return LaurentPoly({m: 1, _kneg(m): -1})


def _poly_mul(num, m):
    """num * (t^m - t^(-m)) for a big-packed key m."""
    return num.mul_binomial(m, 1, _kneg(m), -1)


def _divide(arr, m):
    """Exact quotient arr / (t^m - t^(-m)) for a big-packed key m, or None."""
    if isinstance(arr, LaurentPoly):
        return divide_exact(arr, _half_binomial(m))
    if isinstance(arr, _Dense):
        return _dense_divide(arr, _small_from_big(m))
    return _divide_binomial(arr, _small_from_big(m))


# -- merge tree ---------------------------------------------------------------


def _grow(arr, grow, mul):
    """arr times the binomials (m, e) of grow, one factor at a time."""
    for m, e in grow:
        for _ in range(e):
            arr = mul(arr, m)
    return arr


def _pair_reduce(arr, den, candidates=None):
    if arr.is_zero():
        den.clear()
        return arr, den
    todo = list(den) if candidates is None else [m for m in candidates if m in den]
    for m in todo:
        while den.get(m, 0) > 0:
            try:
                q = _divide(arr, m)
            except FastSumUnavailable:
                arr = _to_poly(arr)
                q = _divide(arr, m)
            if q is None:
                break
            arr = q
            den[m] -= 1
            if arr.is_zero():
                den.clear()
                return arr, den
        if den.get(m) == 0:
            del den[m]
    return arr, den


def _int64_add(arr_a, grow_a, arr_b, grow_b):
    """arr_a * grow_a + arr_b * grow_b in the dense or the sparse layout."""
    if isinstance(arr_a, LaurentPoly) or isinstance(arr_b, LaurentPoly):
        raise FastSumUnavailable("dict operand")
    grow_a = [(_small_from_big(m), e) for m, e in grow_a]
    grow_b = [(_small_from_big(m), e) for m, e in grow_b]
    if _goes_dense(arr_a, grow_a, arr_b, grow_b):
        return _dense_sum(_to_dense(arr_a), grow_a, _to_dense(arr_b), grow_b)
    return _add(_grow(_to_sparse(arr_a), grow_a, _mul_binomial),
                _grow(_to_sparse(arr_b), grow_b, _mul_binomial))


def _pair_add(a, b, full=False):
    """Add two factored fractions over the factorwise lcm denominator.

    Cancellation of a prime factor against the new numerator is only
    possible when the factor divides neither catch-up product, i.e. when
    its multiplicities on the two sides agree; only those factors are
    trial-divided here. A final full pass happens once per sum, at the top
    of the merge tree.
    """
    arr_a, den_a = a
    arr_b, den_b = b
    lcm = dict(den_a)
    candidates = []
    for m, e in den_b.items():
        have = lcm.get(m, 0)
        if have < e:
            lcm[m] = e
        if have == e:
            candidates.append(m)
    grow_a = [(m, e - den_a.get(m, 0)) for m, e in lcm.items() if e > den_a.get(m, 0)]
    grow_b = [(m, e - den_b.get(m, 0)) for m, e in lcm.items() if e > den_b.get(m, 0)]
    try:
        total = _int64_add(arr_a, grow_a, arr_b, grow_b)
    except FastSumUnavailable:
        total = (_grow(_to_poly(arr_a), grow_a, _poly_mul)
                 + _grow(_to_poly(arr_b), grow_b, _poly_mul))
    return _pair_reduce(total, lcm, None if full else candidates)


def _leaf(fw):
    """FactoredWeight -> (numerator, denominator dict). The numerator is
    sparse, or a dict when a factor leaves the lanes."""
    grow = []
    den = {}
    for m, e in sorted(fw.fac.items()):
        if e > 0:
            grow.append((m, e))
        else:
            den[m] = -e
    try:
        for m in den:
            _small_from_big(m)  # raises when a denominator factor leaves the lanes
        one = _Sparse(np.array([_ZERO], dtype=np.int64),
                      np.array([fw.sign], dtype=np.int64), (0,) * 5, (0,) * 5)
        arr = _grow(one, [(_small_from_big(m), e) for m, e in grow], _mul_binomial)
    except FastSumUnavailable:
        arr = _grow(LaurentPoly.const(fw.sign), grow, _poly_mul)
    return arr, den


def sum_factored(fws):
    """Divide-and-conquer sum of factored weights; returns the reduced
    (numerator LaurentPoly, denominator factor dict keyed by big-packed
    half-weight keys).

    Merging in enumeration order keeps neighbouring configurations (which
    share most of their tangent weights) together, so the intermediate
    denominators stay close to the factors actually needed.
    """
    if not fws:
        return LaurentPoly.zero(), {}
    pairs = [_leaf(fw) for fw in fws]
    while len(pairs) > 1:
        top = len(pairs) == 2
        merged = []
        for i in range(0, len(pairs) - 1, 2):
            merged.append(_pair_add(pairs[i], pairs[i + 1], full=top))
        if len(pairs) % 2:
            merged.append(pairs[-1])
        pairs = merged
    arr, den = _pair_reduce(*pairs[0])
    return _to_poly(arr), den
