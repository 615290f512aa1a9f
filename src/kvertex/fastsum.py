"""The summation engine for fixed-point weights.

Weights are summed by a divide-and-conquer merge tree of factored
fractions: a numerator over a multiset of weight binomials t^m - t^(-m),
added over the factorwise lcm denominator and reduced by trial division
after every merge. The tree of n weights merges the tree of the first 2^k,
2^k the largest power of two below n, with the tree of the rest; it is
walked depth first, each leaf built when the walk reaches it and each
child freed once its parent's sum is formed. Denominators are dicts keyed
by the big-packed half-weight keys of vertexk.FactoredWeight. A numerator
is held in one of three layouts:

- sparse: numpy int64 arrays of packed monomial keys (one lane per
  variable, most significant first) and coefficients, plus per-lane bounds
  on the exponents;
- dense: an int64 array over the numerator's exponent bounding box, plus
  the lane values of its origin cell. All terms of a product of weight
  binomials have the same parity in each lane, so one cell is 2 lane units
  wide;
- dict: an exact LaurentPoly, multiplied with mul_binomial and divided with
  divide_exact. It holds any exponent and any coefficient.

Every int64 kernel takes a weight binomial as the lane vector of its key
(_lane_vec, which also checks it against the lane limits below), and
packed keys live only inside the sparse layout. Each sum packs its keys
its own way (_Packing): the lanes that some factor of its weights uses
share 60 key bits evenly, at most 24 bits each (the big packing's lane, so
conversion to a dict is exact), and the other lanes get none. Three used
lanes (0-leg, legged and numerically framed sums, in t1-t3) get 20 bits
each, four (symbolic rank-2 sums, in t1-t3 and the framing ratio u2) get
15. The packing depends only on the weights, and every sparse or dense
numerator carries it.

Each leaf starts as a dict when one of its factors leaves its lanes, and
otherwise dense when its product box has at most _DENSE_FILL cells per
term, sparse if not; a box larger than _DENSE_FILL cells per possible term
(prod (e + 1) over its binomials of multiplicity e) is never built. A merge
with a dict operand runs on dicts. Otherwise the merge goes dense when both
operands share per-lane parity and the union box of the grown operands has
at most _DENSE_FILL cells per estimated term of the sum, and stays sparse
if not. Each operand is estimated to keep its fill as its catch-up
binomials widen its box (_goes_dense). When an int64 merge or division
raises FastSumUnavailable, that one merge or division is redone on dicts,
and the numerator stays a dict from then on. No layout changes the merge
order or the trial divisions, so all give the same result.

Exactness of the int64 layouts is kept by range checks: every coefficient
stays below _COEFF_LIMIT; sparse lanes are checked against each lane's true
range before every shift (bounds carried per array, recomputed from the
keys when they cross it) and on every dense-to-sparse conversion; a weight
binomial enters only if each exponent lies within its lane's limit, 64
below half the lane's range. Keys stay below 2^60, so a key plus or minus a
weight offset never wraps. Sparse coefficients are checked after every
combine. A dense numerator carries an upper bound on max |coeff|: exact
when it is computed (on conversion from sparse, and at every gated check),
otherwise propagated, times 2 per binomial, a + b per add and runs * bound
per quotient (runs: the number of cells of a line), and kept by trimming
and negation. A dense step scans its box for the max only when the
propagated bound could reach _COEFF_LIMIT, and raises FastSumUnavailable
only when the exact max does; the prefix-sum guard of a division likewise
recomputes the bound before it raises, so a loose bound never sends a merge
to dicts. Each step's operands stay below _COEFF_LIMIT, so no int64 value
wraps, except in the scan of a dense division that then fails (below).

Division by a weight binomial t^m - t^(-m) is exact or fails (None), and
each trial division is first decided by exact point values mod the prime
_P = 15 * 2^27 + 1 (_Points). Every denominator key m of a sum gets a point
P_m over F_p on the zero set of t^m - t^(-m): its coordinates are powers of
the primitive root 31 whose exponents a satisfy <a, m> = (p - 1) / 2, so
that P_m^m = -1. Evaluation at a point with nonzero coordinates is a ring
map from the Laurent polynomials to F_p, so a numerator that the binomial
divides vanishes at P_m; a nonzero value at P_m proves that the division
fails, and such a division is skipped without reading the numerator. Each
node of the merge tree carries, per point, a value v and a scale s with
N(P) = v / s when s != 0 (s = 0: unknown), carried up the tree by a few
products per point: a leaf is its sign times its binomials at P over 1, a
merge adds the two fractions v_a G_a / s_a + v_b G_b / s_b (a term whose
catch-up product G vanishes at P is a known zero), and an exact division by
m' multiplies s by the value of t^m' - t^(-m') at P. So the point test only
skips divisions that would fail, and no layout sees a difference. A
division it cannot rule out (a zero or unknown value) runs in its layout:
the points are the only test that rejects a division before its kernel.

The sparse layout works line by line along the exponent direction 2m, and
the division is exact exactly when every line sums to zero. One stable
sort by line key groups the lines, with each line in order, since the keys
are sorted and the leading lane of m is positive; the line sums are
checked exactly, and the quotient is a segmented negated prefix sum over
the dense range of line positions. The dense layout divides in place: in
the numerator's own C-contiguous buffer, which is zero outside its box, a
step by m is a fixed flat lag d, and the quotient is one reverse prefix
sum along the stride-d chains of the box's flat span (_dense_divide). The
cells where lines along m start then hold the line sums, and the division
is exact exactly when they all vanish; the quotient is a view of the same
buffer, and the numerator is consumed. A scan that could wrap is trusted
only when the prefix-sum guard holds, and a failing one is rejected before
the guard: int64 sums are exact modulo 2^64, so a nonzero wrapped line sum
is a nonzero one. A division that fails or raises first undoes its scan
with one flat difference, so the numerator comes back bit-identical.

Dense growth is flat (_grow_into): each binomial is one in-place
subtraction between two shifted 1-D slices of a C-contiguous box, exact
because the box is still zero outside the growing region. A dense merge
grows one operand inside the union box before the other is added; a dense
leaf is its sign in one cell of a zeroed box, grown the same way.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import prod

import numpy as np

from .exactalg import PACK_ZERO, LaurentPoly, _kneg, _unpack, divide_exact
from .exactalg import _LANE as _BIG_LANE, _MASK as _BIG_MASK, _OFF as _BIG_OFF
from .exactalg import _SHIFTS as _BIG_SHIFTS

# The lanes a sum uses share this many key bits, so keys and keys +- a
# weight offset stay far from the int64 limit.
_KEY_BITS = 60
# Every stored coefficient stays below 2^61. The only summations are
# combines of two arrays with unique keys or two boxes (bounded by
# 2 * 2^61 < 2^63) and the running sums inside division, which carry their
# own dynamic max * run-length bound; int64 arithmetic therefore never wraps,
# except in the scan of a failing dense division, which is trusted only
# modulo 2^64.
_COEFF_LIMIT = 1 << 61
_SUM_LIMIT = 1 << 62
# A merge goes dense when the box of its sum has at most this many cells per
# term that its grown operands are estimated to have: 64 B of box per term,
# against 16 B per term (before sort scratch) for the sparse arrays, so this
# is the byte budget too.
_DENSE_FILL = 8
# A dense division's scan at lag d sums its (rows, d) grid by one cumsum
# down the columns when d is below this, by one add per row when it is not.
# The cumsum walks each column at a stride of d cells: about 2 ns a cell
# below 512 cells (a 4 KiB row), 7-9 ns at 1,700; the row adds cost about
# 0.7 us a row and 0.5 ns a cell. Of 256 to 768 cells, and of switching on
# the number of rows (256) instead, 512 summed the scans of the 0-leg Q^6
# and quot2 Q^3 and Q^4 series fastest or within noise of it.
_SCAN_WIDTH = 512


class FastSumUnavailable(Exception):
    """Raised when a numerator exceeds the safe ranges of the int64 layouts."""


class _Packing:
    """The key layout of one sum. Lane i takes bits[i] bits at shifts[i],
    most significant lane first, and holds the values -offs[i]..offs[i] - 1;
    a lane with no bits holds only 0. A weight binomial enters only if its
    exponent in each lane lies within limits[i]. empty is the zero
    numerator of this packing."""

    __slots__ = ("bits", "shifts", "offs", "masks", "limits", "lane_min", "lane_max",
                 "zero", "empty")

    def __init__(self, bits):
        self.bits = bits
        top = sum(bits)
        self.shifts = tuple(top - sum(bits[:i + 1]) for i in range(5))
        self.offs = tuple(1 << (b - 1) if b else 0 for b in bits)
        self.masks = tuple((1 << b) - 1 for b in bits)
        self.limits = tuple(max(o - 64, 0) for o in self.offs)
        self.lane_min = tuple(-o for o in self.offs)
        self.lane_max = tuple(max(o - 1, 0) for o in self.offs)
        self.zero = sum(o << s for o, s in zip(self.offs, self.shifts))
        self.empty = _Sparse(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64),
                             tuple(x + 1 for x in self.lane_max),
                             tuple(x - 1 for x in self.lane_min), self)


@lru_cache(maxsize=None)
def _packing(used):
    """The packing of a sum whose weights use the lanes in used (a tuple of
    lane indices): those lanes share _KEY_BITS evenly, at most the big
    packing's _BIG_LANE bits each, so _to_poly stays exact, and the others
    get no bits. With all five lanes used, each has 12 bits."""
    width = min(_KEY_BITS // len(used), _BIG_LANE) if used else 0
    return _Packing(tuple(width if i in used else 0 for i in range(5)))


def _sum_packing(fws):
    """The packing of a sum of the factored weights fws."""
    used = 0
    for fw in fws:
        for m in fw.fac:
            used |= m ^ PACK_ZERO
    return _packing(tuple(i for i, s in enumerate(_BIG_SHIFTS) if (used >> s) & _BIG_MASK))


@lru_cache(maxsize=4096)
def _lane_vec(pk, m):
    """Lane values of a big-packed key m, the form every int64 kernel takes;
    raises FastSumUnavailable when one is beyond its lane's limit in
    packing pk."""
    e = _unpack(m)
    if any(abs(x) > lim for x, lim in zip(e, pk.limits)):
        raise FastSumUnavailable("exponent out of range")
    return e


def _lanes(pk, keys):
    """(5, n) lane values of keys in packing pk."""
    return np.stack([((keys >> s) & k) - o for s, k, o in zip(pk.shifts, pk.masks, pk.offs)])


def _check_coeffs(coeffs):
    if coeffs.size and (coeffs.max() >= _COEFF_LIMIT or coeffs.min() <= -_COEFF_LIMIT):
        raise FastSumUnavailable("coefficient out of range")


def _out_of_lanes(pk, lo, hi):
    return any(x < a or y > b for x, y, a, b in zip(lo, hi, pk.lane_min, pk.lane_max))


def _check_lanes(pk, lo, hi):
    if _out_of_lanes(pk, lo, hi):
        raise FastSumUnavailable("exponent out of lane range")


# -- sparse layout ------------------------------------------------------------


class _Sparse:
    """Sorted unique keys in packing pk, nonzero coefficients, and per-lane
    bounds: every term has lo <= lane value <= hi. The bounds may be loose,
    and with no terms lo > hi."""

    __slots__ = ("keys", "coeffs", "lo", "hi", "pk")

    def __init__(self, keys, coeffs, lo, hi, pk):
        self.keys = keys
        self.coeffs = coeffs
        self.lo = lo
        self.hi = hi
        self.pk = pk

    def is_zero(self):
        return self.keys.size == 0


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
    return _Sparse(keys, coeffs, tuple(map(min, a.lo, b.lo)), tuple(map(max, a.hi, b.hi)), a.pk)


def _mul_binomial(arr, mv):
    """arr * (t^m - t^(-m)) for the lane vector mv of m."""
    if arr.is_zero():
        return arr
    pk = arr.pk
    am = [abs(x) for x in mv]
    lo = tuple(x - a for x, a in zip(arr.lo, am))
    hi = tuple(x + a for x, a in zip(arr.hi, am))
    if _out_of_lanes(pk, lo, hi):
        lanes = _lanes(pk, arr.keys)
        lo = tuple(int(x) - a for x, a in zip(lanes.min(axis=1), am))
        hi = tuple(int(x) + a for x, a in zip(lanes.max(axis=1), am))
        _check_lanes(pk, lo, hi)
    keys, coeffs = arr.keys, arr.coeffs
    d = sum(x << s for x, s in zip(mv, pk.shifts))
    keys, coeffs = _dedupe(
        np.concatenate((keys + d, keys - d)),
        np.concatenate((coeffs, -coeffs)),
    )
    return _Sparse(keys, coeffs, lo, hi, pk)


def _lead(mv):
    """Index of the leading nonzero lane of a weight direction, which must
    be positive: vertexk.factored_weight keys every weight so."""
    for i, x in enumerate(mv):
        if x > 0:
            return i
        if x:
            raise ValueError("weight key %r has a negative leading lane" % (mv,))
    raise ValueError("trivial weight direction")


def _line_keys_collide(pk, lo, hi, mv, lead):
    """Whether two lines along m could get the same key in _divide_binomial.

    A line is keyed by the packed form (packing pk) of its point whose
    leading lane lies in [0, 2 m_lead); distinct points pack to distinct
    keys while each of their other lanes spans at most that lane's mask."""
    step = 2 * mv[lead]
    jspan = abs((hi[lead] + mv[lead]) // step - (lo[lead] + mv[lead]) // step)
    return any(h - x + 2 * abs(y) * jspan > k
               for i, (x, h, y, k) in enumerate(zip(lo, hi, mv, pk.masks)) if i != lead)


def _divide_binomial(arr, mv):
    """Exact quotient arr / (t^m - t^(-m)) for the lane vector mv of m, or
    None.

    Equivalent to dividing arr * t^m by t^(2m) - 1: group terms into lines
    along the direction 2m, reject unless every line sums to zero, then
    take negated running prefix sums along each line (dense across gaps).
    The leading lane of m must be positive (vertexk.factored_weight keys
    every weight so), so the sorted keys of arr run along each line in
    order and one stable sort by line key groups them.
    """
    keys, coeffs, pk = arr.keys, arr.coeffs, arr.pk
    if keys.size == 0:
        return arr
    d = sum(x << s for x, s in zip(mv, pk.shifts))
    mu = 2 * d
    lead = _lead(mv)
    halfstep = mv[lead]
    step = 2 * halfstep
    if _line_keys_collide(pk, arr.lo, arr.hi, mv, lead):
        lanes = _lanes(pk, keys)
        arr.lo = tuple(lanes.min(axis=1).tolist())
        arr.hi = tuple(lanes.max(axis=1).tolist())
        if _line_keys_collide(pk, arr.lo, arr.hi, mv, lead):
            raise FastSumUnavailable("exponent out of lane range")
    n = keys.size
    max_abs = _max_abs(coeffs)
    if max_abs and n > _SUM_LIMIT // max_abs:
        raise FastSumUnavailable("line sums could overflow")
    j = (((keys >> pk.shifts[lead]) & pk.masks[lead]) + (halfstep - pk.offs[lead])) // step
    base = j * -mu
    base += keys
    base += d
    order = np.argsort(base, kind="stable")
    base = base[order]
    j = j[order]
    c = coeffs[order]
    del order
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.not_equal(base[1:], base[:-1], out=starts[1:])
    idx = np.flatnonzero(starts)
    if np.add.reduceat(c, idx).any():
        return None
    seg_id = np.cumsum(starts) - 1
    line_base = base[idx]
    line_jfirst = j[idx]
    ends = np.append(idx[1:], n) - 1
    seg_len = j[ends] - line_jfirst + 1
    seg_start = np.concatenate(([0], np.cumsum(seg_len)[:-1]))
    total = int(seg_len.sum())
    if max_abs and total > _SUM_LIMIT // max_abs:
        raise FastSumUnavailable("prefix sums could overflow")
    dense = np.zeros(total, dtype=np.int64)
    dense[(seg_start - line_jfirst)[seg_id] + j] = c
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
    # distinct lines have distinct keys (_line_keys_collide), so the
    # quotient's keys are unique and any sort orders them the same way
    keys_out = keys_out[nz]
    order = np.argsort(keys_out)
    am = [abs(x) for x in mv]
    return _Sparse(keys_out[order], qnz[order], tuple(x + a for x, a in zip(arr.lo, am)),
                   tuple(x - a for x, a in zip(arr.hi, am)), pk)


# -- dense layout -------------------------------------------------------------


class _Dense:
    """Coefficient of the monomial with lane values origin + 2 * index at
    arr[index]. The box is tight: every face holds a nonzero coefficient.
    bound is at least max |coeff| and below _COEFF_LIMIT. pk is the packing
    of the sum: its lane limits bound every binomial that reaches the
    node, and the sparse layout packs its keys in it.

    arr is a view of buf, a C-contiguous array that belongs to this node
    alone and is zero outside arr's box, so that a division can scan the
    box's flat span in place. An exact division consumes its numerator:
    the quotient takes over buf, and the numerator's arr and buf become
    None."""

    __slots__ = ("origin", "arr", "bound", "pk", "buf")

    def __init__(self, origin, arr, bound, pk, buf):
        self.origin = origin
        self.arr = arr
        self.bound = bound
        self.pk = pk
        self.buf = buf

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


def _trim(origin, buf, bound, pk):
    """Dense numerator over the support of buf, a C-contiguous box that it
    takes over, or pk's empty one."""
    arr = buf
    cut = []
    for ax in range(5):
        lo, hi = 0, arr.shape[ax]
        view = np.moveaxis(arr, ax, 0)
        while lo < hi and not view[lo].any():
            lo += 1
        if lo == hi:
            return pk.empty
        while not view[hi - 1].any():
            hi -= 1
        cut.append(slice(lo, hi))
        arr = np.moveaxis(view[lo:hi], 0, ax)
    return _Dense(tuple(o + 2 * c.start for o, c in zip(origin, cut)), arr, bound, pk, buf)


def _growth(grow):
    """Cells per lane by which the binomials (mv, e) of grow, mv a lane
    vector, widen a box."""
    g = [0] * 5
    for mv, e in grow:
        g = [x + e * abs(y) for x, y in zip(g, mv)]
    return g


def _grow_into(buf, at, dn, grow):
    """Write dn times the binomials (mv, e) of grow into the zeroed box of
    the product's shape at cell offset at of buf, and return the product's
    coefficient bound. Every cell of buf outside that box stays zero.

    Each binomial is applied in place. With f in the region R of the box,
    f * (t^m - t^(-m)) is f[y] - f[y + m] over R and R - m (m in cells),
    one subtraction of buf[R] from buf[R - m]. In the flat buffer that is
    flat[lo - d : lo - d + width] -= flat[lo : lo + width], with
    [lo, lo + width) the flat span of R and d = sum m_l * stride_l; a step
    moves lo by -sum max(m_l, 0) * stride_l and widens the span by
    sum |m_l| * stride_l. It is exact because every cell of the span outside
    R is still zero, and R - m lies inside buf; for the same reason the max
    over the span is the max over R. buf must be C-contiguous: the whole
    buffer, never a view, whose flattening would be a copy. dn starts where
    the last binomial ends at the corner of the box."""
    flat = np.reshape(buf, -1, copy=False)
    strides = [prod(buf.shape[l + 1:]) for l in range(5)]
    start = list(at)
    for mv, e in grow:
        start = [x + e * max(y, 0) for x, y in zip(start, mv)]
    shape = dn.arr.shape
    buf[_box(start, shape)] = dn.arr
    lo = sum(x * s for x, s in zip(start, strides))
    width = sum((n - 1) * s for n, s in zip(shape, strides)) + 1
    bound = dn.bound
    for mv, e in grow:
        d = sum(y * s for y, s in zip(mv, strides))
        step = sum(max(y, 0) * s for y, s in zip(mv, strides))
        widen = sum(abs(y) * s for y, s in zip(mv, strides))
        for _ in range(e):
            dst = flat[lo - d:lo - d + width]
            np.subtract(dst, flat[lo:lo + width], out=dst)
            lo -= step
            width += widen
            bound = _gated(flat[lo:lo + width], 2 * bound)
    return bound


def _dense_sum(a, grow_a, b, grow_b):
    """a * grow_a + b * grow_b, trimmed, for dense a and b whose grown boxes
    share per-lane parity. a is grown inside the union box before b is
    added, so the union box is zero outside a's region while it grows; b is
    added in directly, or grown in a box of its own first when it has
    catch-ups."""
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
    bound_a = _grow_into(out, [(x - y) // 2 for x, y in zip(lo_a, lo)], a, grow_a)
    if grow_b:
        arr_b = np.zeros(shape_b, dtype=np.int64)
        bound_b = _grow_into(arr_b, (0,) * 5, b, grow_b)
    else:
        arr_b, bound_b = b.arr, b.bound
    view = out[_box([(x - y) // 2 for x, y in zip(lo_b, lo)], shape_b)]
    np.add(view, arr_b, out=view)
    return _trim(lo, out, _gated(out, bound_a + bound_b), a.pk)


def _lag_scan(span, d):
    """Reverse prefix sums of the 1-D array span along its stride-d chains,
    in place: span[k] += span[k + d], from the end down. As a (rows, d)
    grid, the ragged last row is added into the row above, and the full
    rows are summed from the bottom by one cumsum down the grid when they
    are narrow, by one add per row when they are wide (_SCAN_WIDTH)."""
    rows, w = divmod(span.size, d)
    grid = span[:rows * d].reshape(rows, d)
    if w:
        last = grid[-1, :w]
        np.add(last, span[rows * d:], out=last)
    if d < _SCAN_WIDTH:
        up = grid[::-1]
        np.cumsum(up, axis=0, out=up)
        return
    for r in range(rows - 2, -1, -1):
        np.add(grid[r], grid[r + 1], out=grid[r])


def _lag_unscan(span, d):
    """Undo _lag_scan(span, d): span[k] -= span[k + d] in one flat
    difference, against the values before any is written."""
    np.subtract(span[:-d], span[d:], out=span[:-d])


def _dense_divide(dn, mv):
    """Exact quotient dn / (t^m - t^(-m)) for the lane vector mv of m, or
    None. An exact division consumes dn; otherwise dn is left as it was.

    With a = max(m, 0) per lane in cells, the product q * (t^m - t^(-m))
    has f[i] = q[i - a] - q[i - a + m], so r[i] = q[i - a] obeys
    r[i] = f[i] + r[i + m]: r is the sum of f along the line through i in
    direction m from i onwards, and q is r over the box of f shrunk by |m|.
    The cells of r outside q's box, the |m_l|-wide end slabs where a line
    starts, hold the whole lines' sums: the division is exact exactly when
    they vanish. In the flat buffer, a step by m is a step by
    d = sum m_l * stride_l, positive since the leading lane of m is positive
    and every other lane's |m_l| is below its extent, so r is one reverse
    prefix sum along the stride-d chains of the box's flat span (_lag_scan),
    done in place. A chain runs along a line of the box to its end, across
    cells outside the box, which the buffer holds at zero, and may wrap into
    the start of another line: each chain is a run of whole lines, so with
    every line sum zero it gives r exactly, and end slabs that are all zero
    make every line sum zero, from the last line of each chain back.
    The scan only adds, so it is exact modulo 2^64 even where it wraps: a
    nonzero end cell is a nonzero line sum, and rejects the division before
    the prefix-sum guard; zero ones are trusted once the guard holds (a line
    holds at most runs cells). An exact quotient leaves the buffer zero
    outside its box (every line sums to zero) and is a view of dn's buffer.
    On None or a raise, one flat difference (_lag_unscan), exact modulo
    2^64 too, gives back dn's coefficients bit for bit.
    """
    lead = _lead(mv)
    f = dn.arr
    shape = f.shape
    if any(abs(x) >= n for x, n in zip(mv, shape)):
        return None
    runs = -(-shape[lead] // mv[lead])
    if runs > _SUM_LIMIT // dn.bound:
        dn.bound = _max_abs(f)
    buf = dn.buf
    strides = [s // f.itemsize for s in f.strides]
    lo = (f.__array_interface__["data"][0] - buf.__array_interface__["data"][0]) // f.itemsize
    hi = lo + sum((n - 1) * s for n, s in zip(shape, strides)) + 1
    d = sum(x * s for x, s in zip(mv, strides))
    span = np.reshape(buf, -1, copy=False)[lo:hi]
    _lag_scan(span, d)
    for ax, x in enumerate(mv):
        if x:
            ends = [slice(None)] * 5
            ends[ax] = slice(0, x) if x > 0 else slice(shape[ax] + x, None)
            if f[tuple(ends)].any():
                _lag_unscan(span, d)
                return None
    try:
        if runs > _SUM_LIMIT // dn.bound:
            raise FastSumUnavailable("prefix sums could overflow")
        q = f[tuple(slice(max(x, 0), max(x, 0) + n - abs(x)) for x, n in zip(mv, shape))]
        bound = _gated(q, runs * dn.bound)
    except FastSumUnavailable:
        _lag_unscan(span, d)
        raise
    dn.arr = dn.buf = None
    return _Dense(tuple(o + abs(x) for o, x in zip(dn.origin, mv)), q, bound, dn.pk, buf)


# -- layout choice and conversions ----------------------------------------------


def _shares_parity(arr):
    """Whether all terms of a numerator have the same parity in each lane."""
    if isinstance(arr, _Dense):
        return True
    lanes = _lanes(arr.pk, arr.keys)
    return not ((lanes - lanes[:, :1]) & 1).any()


def _goes_dense(a, grow_a, b, grow_b):
    """Whether the sum of a and b, each times its catch-up binomials
    (mv, e), fits the dense layout: whether the union box of the grown
    operands has at most _DENSE_FILL cells per estimated term. An operand
    of n terms whose box spans c_l cells on lane l is taken to keep its
    fill as its catch-ups widen the box by g_l cells (_growth), so to grow
    to n * prod (c_l + g_l) / prod c_l terms. A sparse operand's box comes
    from its carried bounds, which are loose only where an add cancelled
    terms at the edge of the box."""
    if a.is_zero() or b.is_zero():
        return False
    boxes = []
    fills = []
    for arr, grow in ((a, grow_a), (b, grow_b)):
        if isinstance(arr, _Dense):
            lo, hi, n = arr.origin, arr.top(), int(np.count_nonzero(arr.arr))
        else:
            lo, hi, n = arr.lo, arr.hi, arr.keys.size
        g = _growth(grow)
        c = [(y - x) // 2 + 1 for x, y in zip(lo, hi)]
        boxes.append(([x - y for x, y in zip(lo, g)], [x + y for x, y in zip(hi, g)]))
        fills.append((n * prod(x + y for x, y in zip(c, g)), prod(c)))
    (lo_a, hi_a), (lo_b, hi_b) = boxes
    if any((x - y) % 2 for x, y in zip(lo_a, lo_b)):
        return False
    cells = 1
    for la, ha, lb, hb in zip(lo_a, hi_a, lo_b, hi_b):
        cells *= (max(ha, hb) - min(la, lb)) // 2 + 1
    # estimated terms: grown_a / cells_a + grown_b / cells_b
    (grown_a, cells_a), (grown_b, cells_b) = fills
    if cells * cells_a * cells_b > _DENSE_FILL * (grown_a * cells_b + grown_b * cells_a):
        return False
    return _shares_parity(a) and _shares_parity(b)


def _to_dense(arr):
    """A nonzero numerator in the dense layout; a sparse one must have the
    same parity in each lane across its terms."""
    if isinstance(arr, _Dense):
        return arr
    lanes = _lanes(arr.pk, arr.keys)
    lo = lanes.min(axis=1)
    idx = (lanes - lo[:, None]) >> 1
    out = np.zeros(tuple(idx.max(axis=1) + 1), dtype=np.int64)
    out[tuple(idx)] = arr.coeffs
    return _Dense(tuple(lo.tolist()), out, _max_abs(arr.coeffs), arr.pk, out)


def _to_sparse(arr):
    if not isinstance(arr, _Dense):
        return arr
    pk = arr.pk
    lo, hi = arr.origin, arr.top()
    _check_lanes(pk, lo, hi)
    idx = np.nonzero(arr.arr)
    keys = np.full(idx[0].size, pk.zero, dtype=np.int64)
    for i, o, s in zip(idx, lo, pk.shifts):
        keys += (o + 2 * i) << s
    return _Sparse(keys, arr.arr[idx], lo, hi, pk)


def _to_poly(arr):
    """Numerator in any layout as a LaurentPoly (big packing)."""
    if isinstance(arr, LaurentPoly):
        return arr
    if isinstance(arr, _Dense):
        idx = np.nonzero(arr.arr)
        lanes = [o + 2 * i for o, i in zip(arr.origin, idx)]
        coeffs = arr.arr[idx]
    else:
        lanes = list(_lanes(arr.pk, arr.keys))
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


def _divide(arr, m, nonzero=False):
    """Exact quotient arr / (t^m - t^(-m)) for a big-packed key m, or None.
    nonzero says that arr is nonzero at a point where the binomial
    vanishes, which proves the division fails: None without reading arr."""
    if nonzero:
        return None
    if isinstance(arr, LaurentPoly):
        return divide_exact(arr, _half_binomial(m))
    mv = _lane_vec(arr.pk, m)
    if isinstance(arr, _Dense):
        return _dense_divide(arr, mv)
    return _divide_binomial(arr, mv)


# -- point certificates ---------------------------------------------------------

# The points lie in F_p: p - 1 = 15 * 2^27 has room for many points on each
# binomial's zero set, 31 generates F_p^*, and a product of two residues
# fits int64.
_P = 2013265921
_ROOT = 31
# 31^(i * 2^(11 k)) mod _P in row k, for i < 2^11: three lookups raise 31 to
# any exponent below 2^33.
_ROOT_BITS = 11


@lru_cache(maxsize=None)
def _root_powers():
    out = np.ones((3, 1 << _ROOT_BITS), dtype=np.int64)
    for k in range(3):
        for j in range(_ROOT_BITS):
            h = 1 << j
            out[k, h:2 * h] = out[k, :h] * pow(_ROOT, h << _ROOT_BITS * k, _P) % _P
    return out


def _root_pow(e):
    """31^e mod _P for an array e of exponents in [0, 2^33)."""
    t = _root_powers()
    mask = (1 << _ROOT_BITS) - 1
    return (t[0][e & mask] * t[1][(e >> _ROOT_BITS) & mask] % _P
            * t[2][e >> 2 * _ROOT_BITS] % _P)


def _egcd(a, b):
    """(g, u, w) with g = gcd(a, b) >= 0 and u a + w b = g."""
    u0, u1, w0, w1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        u0, u1, w0, w1 = u1, u0 - q * u1, w1, w0 - q * w1
    return (a, u0, w0) if a >= 0 else (-a, -u0, -w0)


@lru_cache(maxsize=4096)
def _point(m):
    """Exponents a (mod p - 1) of the point P_m of a big-packed key m, with
    <a, mv> = (p - 1) / 2 for its lane vector mv, so that 31^a lies on the
    zero set of t^mv - t^(-mv): a = r + k b for a vector r drawn by a
    generator seeded with m, and b with <b, mv> = g, the lane gcd. None
    when 2 g does not divide p - 1."""
    mv = _unpack(m)
    rng = random.Random(m)
    r = [rng.randrange(_P - 1) for _ in mv]
    g, b = 0, []
    for x in mv:
        g, u, w = _egcd(g, x)
        b = [u * y for y in b] + [w]
    if (_P - 1) % (2 * g):
        return None
    k = (_P - 1) // (2 * g) - sum(x * y for x, y in zip(r, mv)) // g
    return tuple((x + k * y) % (_P - 1) for x, y in zip(r, b))


class _Points:
    """The point certificates of one sum. Each denominator key m of its
    weights gets a point P_m (column col[m]) on the zero set of
    B_m = t^m - t^(-m); table[row[k], col[m]] is B_k(P_m) for every factor
    key k. A node's values are a pair (v, s) of arrays over the points,
    N(P) = v / s mod _P where s != 0, and s == 0 where N(P) is unknown."""

    __slots__ = ("pk", "row", "col", "table", "one")

    def __init__(self, fws, pk):
        self.pk = pk
        keys = sorted({m for fw in fws for m in fw.fac})
        dens = sorted({m for fw in fws for m, e in fw.fac.items() if e < 0})
        exps = []
        self.col = {}
        for m in dens:
            a = _point(m)
            if a is not None:
                self.col[m] = len(exps)
                exps.append(a)
        self.row = {m: i for i, m in enumerate(keys)}
        lanes = np.array([_unpack(m) for m in keys], dtype=np.int64).reshape(-1, 5)
        # lanes below 2^22 times exponents below 2^31, five terms: no wrap
        e = lanes @ np.array(exps, dtype=np.int64).reshape(-1, 5).T % (_P - 1)
        self.table = (_root_pow(e) - _root_pow(-e % (_P - 1))) % _P
        self.one = np.ones(len(exps), dtype=np.int64)

    def at(self, grow):
        """The product of the binomials (m, e) of grow at every point."""
        x = self.table[[self.row[m] for m, e in grow for _ in range(e)]]
        if not x.size:
            return self.one
        while len(x) > 1:
            h = len(x) // 2
            x = np.concatenate((x[:h] * x[h:2 * h] % _P, x[2 * h:]))
        return x[0]

    def leaf(self, fw):
        """The values of the leaf of fw: its sign times its numerator
        binomials, over 1."""
        return fw.sign * self.at([(m, e) for m, e in fw.fac.items() if e > 0]) % _P, self.one

    def merged(self, val_a, grow_a, val_b, grow_b):
        """The values of val_a * grow_a + val_b * grow_b. A term whose
        catch-up product vanishes at a point is zero there, known or not."""
        (v_a, s_a), (v_b, s_b) = val_a, val_b
        g_a, g_b = self.at(grow_a), self.at(grow_b)
        s_a = np.where(g_a == 0, 1, s_a)
        s_b = np.where(g_b == 0, 1, s_b)
        return (v_a * g_a % _P * s_b + v_b * g_b % _P * s_a) % _P, s_a * s_b % _P

    def nonzero(self, val, m):
        """Whether val proves the numerator nonzero at P_m, so that B_m
        cannot divide it."""
        j = self.col.get(m)
        return j is not None and bool(val[1][j]) and bool(val[0][j])

    def divided(self, val, m):
        """The values after an exact division by B_m."""
        return val[0], val[1] * self.table[self.row[m]] % _P


# -- merge tree ---------------------------------------------------------------


def _grow(arr, grow, mul):
    """arr times the binomials (m, e) of grow, one factor at a time."""
    for m, e in grow:
        for _ in range(e):
            arr = mul(arr, m)
    return arr


def _pair_reduce(arr, den, val, pts, candidates=None):
    if arr.is_zero():
        den.clear()
        return arr, den, val
    for m in list(den) if candidates is None else candidates:
        while den.get(m, 0) > 0:
            nonzero = pts.nonzero(val, m)
            try:
                q = _divide(arr, m, nonzero)
            except FastSumUnavailable:
                arr = _to_poly(arr)
                q = _divide(arr, m)
            if q is None:
                break
            arr = q
            den[m] -= 1
            val = pts.divided(val, m)
            if arr.is_zero():
                den.clear()
                return arr, den, val
        if den.get(m) == 0:
            del den[m]
    return arr, den, val


def _int64_add(arr_a, grow_a, arr_b, grow_b):
    """arr_a * grow_a + arr_b * grow_b in the dense or the sparse layout."""
    if isinstance(arr_a, LaurentPoly) or isinstance(arr_b, LaurentPoly):
        raise FastSumUnavailable("dict operand")
    pk = arr_a.pk
    vec_a = [(_lane_vec(pk, m), e) for m, e in grow_a]
    vec_b = [(_lane_vec(pk, m), e) for m, e in grow_b]
    if _goes_dense(arr_a, vec_a, arr_b, vec_b):
        return _dense_sum(_to_dense(arr_a), vec_a, _to_dense(arr_b), vec_b)
    return _add(_grow(_to_sparse(arr_a), vec_a, _mul_binomial),
                _grow(_to_sparse(arr_b), vec_b, _mul_binomial))


def _pair_add(a, b, pts, full=False):
    """Add two factored fractions over the factorwise lcm denominator.

    Cancellation of a prime factor against the new numerator is only
    possible when the factor divides neither catch-up product, i.e. when
    its multiplicities on the two sides agree; only those factors are
    trial-divided here. A final full pass happens once per sum, at the top
    of the merge tree.
    """
    operands = [a[0], b[0]]
    (den_a, val_a), (den_b, val_b) = a[1:], b[1:]
    # The caller passed its only references, so this leaves both children
    # to _added alone, which frees them once their sum is formed.
    del a, b
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
    # The sum is an argument only, never a local here, so _pair_reduce holds
    # its only reference and drops it with its first exact quotient.
    val = pts.merged(val_a, grow_a, val_b, grow_b)
    return _pair_reduce(_added(operands, grow_a, grow_b), lcm, val, pts,
                        None if full else candidates)


def _added(operands, grow_a, grow_b):
    """arr_a * grow_a + arr_b * grow_b for operands = [arr_a, arr_b], which
    it empties: in int64, or on dicts when an int64 step is unavailable."""
    arr_b = operands.pop()
    arr_a = operands.pop()
    try:
        return _int64_add(arr_a, grow_a, arr_b, grow_b)
    except FastSumUnavailable:
        return (_grow(_to_poly(arr_a), grow_a, _poly_mul)
                + _grow(_to_poly(arr_b), grow_b, _poly_mul))


def _leaf(fw, pk):
    """FactoredWeight -> (numerator, denominator dict). The numerator is a
    dict when a factor leaves the lanes of packing pk. Otherwise it is
    dense when its product box has at most _DENSE_FILL cells per term, as
    for a merge, and sparse if not. The product of the binomials (m, e) has
    at most prod (e + 1) terms, so a larger box is built sparse at once;
    a smaller one is built dense and its terms counted."""
    grow = []
    den = {}
    for m, e in sorted(fw.fac.items()):
        if e > 0:
            grow.append((m, e))
        else:
            den[m] = -e
    try:
        for m in den:
            _lane_vec(pk, m)  # raises when a denominator factor leaves the lanes
        vecs = [(_lane_vec(pk, m), e) for m, e in grow]
        g = _growth(vecs)
        _check_lanes(pk, [-x for x in g], g)
        if prod(x + 1 for x in g) <= _DENSE_FILL * prod(e + 1 for _, e in grow):
            buf = np.zeros(tuple(x + 1 for x in g), dtype=np.int64)
            cell = np.full((1,) * 5, fw.sign, dtype=np.int64)
            one = _Dense((0,) * 5, cell, 1, pk, cell)
            arr = _Dense(tuple(-x for x in g), buf, _grow_into(buf, (0,) * 5, one, vecs), pk, buf)
            if buf.size > _DENSE_FILL * np.count_nonzero(buf):
                arr = _to_sparse(arr)
        else:
            one = _Sparse(np.array([pk.zero], dtype=np.int64),
                          np.array([fw.sign], dtype=np.int64), (0,) * 5, (0,) * 5, pk)
            arr = _grow(one, vecs, _mul_binomial)
    except FastSumUnavailable:
        arr = _grow(LaurentPoly.const(fw.sign), grow, _poly_mul)
    return arr, den


def _merge(fws, pts, full):
    """The merge tree of fws: the first 2^k weights, 2^k the largest power
    of two below their number, merged with the rest. full goes only to the
    root's merge, or to the root's own pass when the root is a leaf. A node
    is (numerator, denominator dict, values at pts)."""
    if len(fws) == 1:
        arr, den = _leaf(fws[0], pts.pk)
        val = pts.leaf(fws[0])
        return _pair_reduce(arr, den, val, pts) if full else (arr, den, val)
    half = 1 << (len(fws) - 1).bit_length() - 1
    return _pair_add(_merge(fws[:half], pts, False), _merge(fws[half:], pts, False), pts, full)


def sum_factored(fws):
    """Divide-and-conquer sum of factored weights; returns the reduced
    (numerator LaurentPoly, denominator factor dict keyed by big-packed
    half-weight keys).

    Merging in enumeration order keeps neighbouring configurations (which
    share most of their tangent weights) together, so the intermediate
    denominators stay close to the factors actually needed. The tree is
    walked depth first (_merge): at most one partial sum per level is
    alive, and _pair_add frees both children before its trial divisions.
    Only a lone leaf needs a full pass of its own: the root merge
    trial-divides by every factor until one fails, and a binomial that
    does not divide a numerator cannot divide its exact quotient by others.
    """
    if not fws:
        return LaurentPoly.zero(), {}
    arr, den, _ = _merge(fws, _Points(fws, _sum_packing(fws)), True)
    return _to_poly(arr), den
