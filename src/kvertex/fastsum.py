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

Each sum packs its keys its own way (_Packing): the lanes that some factor
of its weights uses share 60 key bits evenly, at most 24 bits each (the big
packing's lane, so conversion to a dict is exact), and the other lanes get
none. Five used lanes get 12 bits each, three (0-leg, legged and
numerically framed sums, in t1-t3) get 20. The packing depends only on the
weights, and every sparse or dense numerator carries it.

Each leaf starts as a dict when one of its factors leaves its lanes, and
otherwise dense when its product box has at most _DENSE_FILL cells per
term, sparse if not; a box larger than _DENSE_FILL cells per possible term
(prod (e + 1) over its binomials of multiplicity e) is never built. A merge
with a dict operand runs on dicts. Otherwise the merge goes dense when both
operands share per-lane parity and the predicted box of the sum has at most
_DENSE_FILL cells per operand term, and stays sparse if not. When an int64
merge or division raises FastSumUnavailable, that one merge or division is
redone on dicts, and the numerator stays a dict from then on. No layout
changes the merge order or the trial divisions, so all give the same
result.

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
wraps.

Division by a weight binomial t^m - t^(-m) is exact or fails (None). The
sparse layout works line by line along the exponent direction 2m, and the
division is exact exactly when every line sums to zero. Before any sort,
each coefficient is weighted by a fixed 64-bit mix of its line key and the
products are added modulo 2^64: with every line sum zero the total is
zero, so a nonzero total rejects the division (a zero one proves nothing
and falls through). Otherwise one stable sort by line key groups the
lines, with each line in order, since the keys are sorted and the leading
lane of m is positive; the line sums are checked exactly, and the quotient
is a segmented negated prefix sum over the dense range of line positions.
The dense layout first sums every line along m into an accumulator the
size of a few slabs; the division is exact exactly when all these sums
vanish (none can wrap once the division's prefix-sum guard holds), so a
failing division is rejected without a box-sized write. The quotient of
an exact one is swept: the recursion q(x) = q(x - 2m) - (t^m f)(x) runs
along the leading lane of m, one slab operation per step.

Dense growth is flat (_grow_into): each binomial is one in-place
subtraction between two shifted 1-D slices of a C-contiguous box, exact
because the box is still zero outside the growing region. A dense merge
grows one operand inside the union box before the other is added; a dense
leaf is its sign in one cell of a zeroed box, grown the same way.
"""

from __future__ import annotations

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
# except in the dense line sums, which are trusted only under that bound.
_COEFF_LIMIT = 1 << 61
_SUM_LIMIT = 1 << 62
# A merge goes dense when its predicted box has at most this many cells per
# operand term: 64 B of box per term, against 16 B per term (before growth
# and sort scratch) for the sparse arrays, so this is the byte budget too.
_DENSE_FILL = 8


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
def _small_from_big(pk, kbig):
    """Key in packing pk of a big-packed one; raises FastSumUnavailable when
    an exponent is beyond its lane's limit."""
    e = _unpack(kbig)
    if any(abs(x) > lim for x, lim in zip(e, pk.limits)):
        raise FastSumUnavailable("exponent out of range")
    k = 0
    for x, o, s in zip(e, pk.offs, pk.shifts):
        k += (x + o) << s
    return k


@lru_cache(maxsize=4096)
def _lane_vec(pk, m):
    """Lane values of a key in packing pk."""
    return tuple(((m >> s) & k) - o for s, k, o in zip(pk.shifts, pk.masks, pk.offs))


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


def _mul_binomial(arr, m):
    """arr * (t^m - t^(-m)) for a key m in arr's packing."""
    if arr.is_zero():
        return arr
    pk = arr.pk
    am = [abs(x) for x in _lane_vec(pk, m)]
    lo = tuple(x - a for x, a in zip(arr.lo, am))
    hi = tuple(x + a for x, a in zip(arr.hi, am))
    if _out_of_lanes(pk, lo, hi):
        lanes = _lanes(pk, arr.keys)
        lo = tuple(int(x) - a for x, a in zip(lanes.min(axis=1), am))
        hi = tuple(int(x) + a for x, a in zip(lanes.max(axis=1), am))
        _check_lanes(pk, lo, hi)
    keys, coeffs = arr.keys, arr.coeffs
    d = m - pk.zero
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


# Odd multipliers of the splitmix64 finalizer, the line-key mix of _line_hash.
_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))
_MIX_SHIFT = np.uint64(31)


def _line_hash(base, coeffs, out):
    """sum_i coeffs[i] * mix(base[i]) mod 2^64, with mix a fixed 64-bit
    mix of the line key; out, an int64 array of base's size, is overwritten.

    The sum is sum_L mix(L) * (sum of line L's coefficients), so it is 0
    when every line sums to zero, and a nonzero value proves that some
    line does not."""
    h = out.view(np.uint64)
    np.multiply(base.view(np.uint64), _MIX[0], out=h)
    np.bitwise_xor(h, h >> _MIX_SHIFT, out=h)
    np.multiply(h, _MIX[1], out=h)
    return int(np.dot(h, coeffs.view(np.uint64)))


def _divide_binomial(arr, m):
    """Exact quotient arr / (t^m - t^(-m)), or None.

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
    mv = _lane_vec(pk, m)
    d = m - pk.zero
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
    lane = (keys >> pk.shifts[lead]) & pk.masks[lead]
    lane += halfstep - pk.offs[lead]
    j = lane // step
    base = j * -mu
    base += keys
    base += d
    if _line_hash(base, coeffs, lane):
        return None
    del lane
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
    of the sum; the dense steps themselves use lane values only."""

    __slots__ = ("origin", "arr", "bound", "pk")

    def __init__(self, origin, arr, bound, pk):
        self.origin = origin
        self.arr = arr
        self.bound = bound
        self.pk = pk

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


def _trim(origin, arr, bound, pk):
    """Dense numerator over the support of arr, or pk's empty one."""
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
    return _Dense(tuple(o + 2 * c.start for o, c in zip(origin, cut)), arr, bound, pk)


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
    flat[lo - d : hi - d] -= flat[lo : hi], with [lo, hi) the flat span of
    R and d = sum m_l * stride_l. It is exact because every cell of the
    span outside R is still zero, and R - m lies inside buf. buf must be
    C-contiguous: the whole buffer, never a view, whose flattening would be
    a copy. dn starts where the last binomial ends at the corner of the
    box."""
    flat = np.reshape(buf, -1, copy=False)
    strides = [prod(buf.shape[l + 1:]) for l in range(5)]
    start = list(at)
    for mv, e in grow:
        start = [x + e * max(y, 0) for x, y in zip(start, mv)]
    shape = dn.arr.shape
    buf[_box(start, shape)] = dn.arr
    bound = dn.bound
    for mv, e in grow:
        d = sum(y * s for y, s in zip(mv, strides))
        for _ in range(e):
            lo = sum(x * s for x, s in zip(start, strides))
            hi = lo + sum((n - 1) * s for n, s in zip(shape, strides)) + 1
            dst = flat[lo - d:hi - d]
            np.subtract(dst, flat[lo:hi], out=dst)
            start = [min(x, x - y) for x, y in zip(start, mv)]
            shape = tuple(n + abs(y) for n, y in zip(shape, mv))
            bound = _gated(buf[_box(start, shape)], 2 * bound)
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


def _dense_divide(dn, mv):
    """Exact quotient dn / (t^m - t^(-m)) for the lane vector mv of m, or
    None.

    A nonzero line sum along m rejects the division with no box-sized
    write. A line holds at most runs cells, so once the prefix-sum guard
    holds no line sum has wrapped, and zero sums mean the division is
    exact. The sweep then computes the quotient: with a = max(m, 0) and
    b = max(-m, 0) per lane in cells, the product q * (t^m - t^(-m)) has
    f[i] = q[i - a] - q[i - b], so r[i] = q[i - b] obeys
    r[i] = r[i - m] - f[i] over the box of f, and q is r over the box of f
    shrunk by |m|. The sweep runs along the leading lane L of m, which must
    be positive, m_L slabs per step.
    """
    lead = _lead(mv)
    step = mv[lead]
    f = dn.arr
    shape = f.shape
    if any(abs(x) >= n for x, n in zip(mv, shape)) or not _line_sums_vanish(f, mv):
        return None
    runs = -(-shape[lead] // step)
    if runs > _SUM_LIMIT // dn.bound:
        dn.bound = _max_abs(f)
        if runs > _SUM_LIMIT // dn.bound:
            raise FastSumUnavailable("prefix sums could overflow")
    r = -f
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
                  _gated(q, runs * dn.bound), dn.pk)


# -- layout choice and conversions ----------------------------------------------


def _shares_parity(arr):
    """Whether all terms of a numerator have the same parity in each lane."""
    if isinstance(arr, _Dense):
        return True
    lanes = _lanes(arr.pk, arr.keys)
    return not ((lanes - lanes[:, :1]) & 1).any()


def _goes_dense(a, grow_a, b, grow_b):
    """Whether the sum of a and b, each times its catch-up binomials
    (mv, e), fits the dense layout. A sparse operand's box comes from its
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
    lanes = _lanes(arr.pk, arr.keys)
    lo = lanes.min(axis=1)
    idx = (lanes - lo[:, None]) >> 1
    out = np.zeros(tuple(idx.max(axis=1) + 1), dtype=np.int64)
    out[tuple(idx)] = arr.coeffs
    return _Dense(tuple(lo.tolist()), out, _max_abs(arr.coeffs), arr.pk)


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


def _divide(arr, m):
    """Exact quotient arr / (t^m - t^(-m)) for a big-packed key m, or None."""
    if isinstance(arr, LaurentPoly):
        return divide_exact(arr, _half_binomial(m))
    k = _small_from_big(arr.pk, m)
    if isinstance(arr, _Dense):
        return _dense_divide(arr, _lane_vec(arr.pk, k))
    return _divide_binomial(arr, k)


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
    pk = arr_a.pk
    grow_a = [(_small_from_big(pk, m), e) for m, e in grow_a]
    grow_b = [(_small_from_big(pk, m), e) for m, e in grow_b]
    vec_a = [(_lane_vec(pk, m), e) for m, e in grow_a]
    vec_b = [(_lane_vec(pk, m), e) for m, e in grow_b]
    if _goes_dense(arr_a, vec_a, arr_b, vec_b):
        return _dense_sum(_to_dense(arr_a), vec_a, _to_dense(arr_b), vec_b)
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
    # The caller passed its only references, so this frees both children.
    del a, b, arr_a, arr_b
    return _pair_reduce(total, lcm, None if full else candidates)


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
            _small_from_big(pk, m)  # raises when a denominator factor leaves the lanes
        keys = [(_small_from_big(pk, m), e) for m, e in grow]
        vecs = [(_lane_vec(pk, k), e) for k, e in keys]
        g = _growth(vecs)
        _check_lanes(pk, [-x for x in g], g)
        if prod(x + 1 for x in g) <= _DENSE_FILL * prod(e + 1 for _, e in grow):
            buf = np.zeros(tuple(x + 1 for x in g), dtype=np.int64)
            one = _Dense((0,) * 5, np.full((1,) * 5, fw.sign, dtype=np.int64), 1, pk)
            arr = _Dense(tuple(-x for x in g), buf, _grow_into(buf, (0,) * 5, one, vecs), pk)
            if buf.size > _DENSE_FILL * np.count_nonzero(buf):
                arr = _to_sparse(arr)
        else:
            one = _Sparse(np.array([pk.zero], dtype=np.int64),
                          np.array([fw.sign], dtype=np.int64), (0,) * 5, (0,) * 5, pk)
            arr = _grow(one, keys, _mul_binomial)
    except FastSumUnavailable:
        arr = _grow(LaurentPoly.const(fw.sign), grow, _poly_mul)
    return arr, den


def _merge(fws, pk, full):
    """The merge tree of fws: the first 2^k weights, 2^k the largest power
    of two below their number, merged with the rest. full goes only to the
    root's merge, or to the root's own pass when the root is a leaf."""
    if len(fws) == 1:
        arr, den = _leaf(fws[0], pk)
        return _pair_reduce(arr, den) if full else (arr, den)
    half = 1 << (len(fws) - 1).bit_length() - 1
    return _pair_add(_merge(fws[:half], pk, False), _merge(fws[half:], pk, False), full)


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
    arr, den = _merge(fws, _sum_packing(fws), True)
    return _to_poly(arr), den
