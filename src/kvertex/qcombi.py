"""Partitions, word rearrangements, quantum integers, and exhaustive
verifiers for the combinatorial identities behind the wall-crossing
formulas.

A word over the alphabet 1..l with multiplicity vector m is stored as a
plain tuple of ints. Quantum integers [n] carry the sign (-1)^(n-1), so
[n] at kappa = 1 is (-1)^(n-1) * n; all identity checking is exact.

Word sums are not taken word by word. Every statistic they need grows,
as a word is built left to right, by an amount read from the letter
counts seen so far, and so does each first-occurrence constraint. So one
recursion over those counts sums all words at once (_statistic_counts).
The word-by-word definition is the test oracle, in tests/test_qcombi.py.
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache

from .exactalg import LaurentPoly, divide_exact, kappa_pow


# -- partitions ---------------------------------------------------------

def partition(parts):
    """Validated partition: weakly decreasing tuple of positive ints."""
    p = tuple(parts)
    if any(x <= 0 for x in p):
        raise ValueError("partition parts must be positive")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise ValueError("partition parts must be weakly decreasing")
    return p


def parse_partition(text):
    text = text.strip()
    if not text:
        return ()
    return partition(int(x) for x in text.split(","))


def compositions(total):
    """Ordered tuples of positive integers with the given sum, in
    lexicographic order; the empty tuple for total 0."""
    if total == 0:
        yield ()
        return
    for first in range(1, total + 1):
        for rest in compositions(total - first):
            yield (first,) + rest


def multisets_le3(total):
    """Weakly decreasing tuples of at most three positive parts with the
    given sum, largest first part first."""
    for a in range(total, 0, -1):
        if a == total:
            yield (a,)
        for b in range(min(a, total - a), 0, -1):
            if a + b == total:
                yield (a, b)
            c = total - a - b
            if 0 < c <= b:
                yield (a, b, c)


# -- quantum integers ------------------------------------------------------

def kd_to_poly(kd):
    """A dict {doubled kappa exponent: coefficient} as a LaurentPoly in
    kappa^(1/2)."""
    return LaurentPoly.from_terms((c, (e, e, e, 0, 0)) for e, c in kd.items())


@lru_cache(maxsize=None)
def quantum_int(n):
    """The signed quantum integer [n] = (-1)^(n-1)
    (kappa^(n/2) - kappa^(-n/2)) / (kappa^(1/2) - kappa^(-1/2))."""
    if n < 0:
        return -quantum_int(-n)
    sign = 1 if n % 2 else -1
    return kd_to_poly({n - 1 - 2 * j: sign for j in range(n)})


@lru_cache(maxsize=None)
def quantum_factorial(n):
    """[n]! = [1][2]...[n]; empty product for n = 0. Cached values are
    shared between callers, so none may change them."""
    if n < 0:
        raise ValueError("quantum factorial wants n >= 0")
    if n == 0:
        return LaurentPoly.const(1)
    return quantum_factorial(n - 1) * quantum_int(n)


ORDER_KINDS = ("GT", "LT", "B", "ALL")


def _statistic_counts(mvec, eps, pred, adjacent=True):
    """{sum_i eps[i] * S_i: number of words} over the rearrangements of
    mvec whose first occurrences follow the chain pred, with
    S_i = sum_{j>i} c_{i,j}; without adjacent pairs, the term j = i + 1 is
    left out of S_i.

    Letters are 0-based here. pred[x] is the letter that must occur before
    x first occurs, or None. Words are built left to right, and the state
    is the vector seen of letter counts so far: appending x adds seen[i]
    to S_i for every i < x and subtracts sum_{j>x} seen[j] from S_x
    (i < x - 1 and j > x + 1 without adjacent pairs), and whether x may
    occur is read from seen too. So each state keeps one dict
    {statistic: word count} for all the words that reach it.
    """
    nletters = len(mvec)
    layer = {(0,) * nletters: {0: 1}}
    for _ in range(sum(mvec)):
        nxt = {}
        for seen, counts in layer.items():
            below = 0
            above = sum(seen)
            for x in range(nletters):
                above -= seen[x]
                step = below - eps[x] * above
                below += eps[x] * seen[x]
                if seen[x] == mvec[x]:
                    continue
                p = pred[x]
                if not seen[x] and p is not None and not seen[p]:
                    continue
                if not adjacent:
                    if x:
                        step -= eps[x - 1] * seen[x - 1]
                    if x + 1 < nletters:
                        step += eps[x] * seen[x + 1]
                key = seen[:x] + (seen[x] + 1,) + seen[x + 1:]
                acc = nxt.get(key)
                if acc is None:
                    nxt[key] = acc = {}
                for t, c in counts.items():
                    t += step
                    acc[t] = acc.get(t, 0) + c
        layer = nxt
    return layer.get(tuple(mvec), {})


def _chain(kind, ell, nletters):
    """pred for _statistic_counts: the first-occurrence constraint of an
    ordering kind on ell slots, over the nletters letters that occur."""
    pred = [None] * nletters
    if kind == "GT":
        for i in range(ell - 2):
            pred[i] = i + 1
    elif kind == "B":
        # the remainder heads the chain; with one slot this asks
        # o_1 < o_1, which no word meets
        pred[0] = ell - 1
        for i in range(1, ell - 1):
            pred[i] = i - 1
    else:
        for i in range(1, ell - 1 if kind == "LT" else ell):
            pred[i] = i - 1
    return pred


# v - v^-1 with v = -kappa^(1/2)
_V_DIFF = kappa_pow(-1) - kappa_pow(1)


def _factor_product_sum(label, letters, k, counts):
    """Sum over words of prod_{i<k} [m_i - T_i], with m = letters and
    counts(eps) = {sum_i eps_i T_i: number of words} for any sign vector
    eps on the letters (zero past k).

    With v = -kappa^(1/2) each factor is [a] = (v^a - v^-a) / (v - v^-1),
    so the product expands over sign vectors into monomials in the one
    statistic sum_i eps_i T_i, and the numerator is divided exactly by
    (v - v^-1)^k.

    The words with statistic t under eps have statistic -t under -eps, so
    the term v^e of eps gives the term (-1)^k v^-e of -eps, and counts runs
    only for the sign vectors with eps_0 = +1.
    """
    zeros = (0,) * (len(letters) - k)
    numer = {}
    for rest in itertools.product((1, -1), repeat=max(k - 1, 0)):
        signs = (1,) + rest if k else ()
        sign = 1
        base = 0
        for e, m in zip(signs, letters):
            sign *= e
            base += e * m
        for t, c in counts(signs + zeros).items():
            # v^e = (-1)^e kappa^(e/2)
            e = base - t
            s = (-sign if e % 2 else sign) * c
            numer[e] = numer.get(e, 0) + s
            if k:
                numer[-e] = numer.get(-e, 0) + (-s if k % 2 else s)
    quotient = kd_to_poly(numer)
    for _ in range(k):
        quotient = divide_exact(quotient, _V_DIFF)
        if quotient is None:
            raise ArithmeticError("%s is not divisible by (v - v^-1)^%d" % (label, k))
    return quotient


def restricted_word_sum(kind, mvec):
    """Sum over rearrangements of 1^m1 ... l^ml, restricted by an ordering
    constraint on first occurrences, of prod_{i<l} [m_i - sum_{j>i} c_{i,j}].

    Kinds: GT means o_1 > ... > o_{l-1}; LT means o_1 < ... < o_{l-1};
    B means o_l < o_1 < ... < o_{l-1}; ALL means o_1 < ... < o_l. The last
    slot is the rank-one remainder and may have multiplicity zero, in which
    case constraints that mention o_l are unsatisfiable and the sum is 0.

    _statistic_counts sums every word at once for each sign vector of the
    expansion in _factor_product_sum.
    """
    if kind not in ORDER_KINDS:
        raise ValueError("unknown ordering kind %r" % (kind,))
    mvec = tuple(mvec)
    ell = len(mvec)
    if ell < 1:
        raise ValueError("need at least one slot")
    if any(m < 1 for m in mvec[:-1]) or mvec[-1] < 0:
        raise ValueError("multiplicities must be positive (last slot >= 0)")
    letters = mvec
    if mvec[-1] == 0:
        if kind in ("B", "ALL"):
            return LaurentPoly.zero()
        letters = mvec[:-1]
        if not letters:
            return LaurentPoly.const(1)
    pred = _chain(kind, ell, len(letters))
    return _factor_product_sum(
        "restricted word sum %s %r" % (kind, mvec), letters, ell - 1,
        lambda eps: _statistic_counts(letters, eps, pred))


def shifted_word_sum(mvec):
    """Negative control for the LT word sum: the same sum with each inner
    index sum shifted by one, prod_{i<l} [m_i - sum_{j>i+1} c_{i,j}], so
    the adjacent pair (i, i+1) drops out. Every letter must occur."""
    mvec = tuple(mvec)
    if not mvec or any(m < 1 for m in mvec):
        raise ValueError("multiplicities must be positive")
    pred = _chain("LT", len(mvec), len(mvec))
    return _factor_product_sum(
        "shifted word sum %r" % (mvec,), mvec, len(mvec) - 1,
        lambda eps: _statistic_counts(mvec, eps, pred, adjacent=False))


# -- identity suites -------------------------------------------------------

PROPS = ("QBINOM", "QMULTINOM", "MOCHIZUKI", "JOYCE_LT", "JOYCE_B")


class IdentityResult:
    """Outcome of one exhaustive identity check."""

    def __init__(self, prop, args, lhs, rhs):
        self.prop = prop
        self.args = args
        self.lhs = lhs
        self.rhs = rhs
        self.verdict = lhs == rhs

    def __bool__(self):
        return self.verdict

    def to_json(self):
        return {
            "prop": self.prop,
            "args": self.args,
            "verdict": self.verdict,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
        }

    def __repr__(self):
        return "IdentityResult(%s, %s, verdict=%s)" % (
            self.prop,
            self.args,
            self.verdict,
        )


def _qfact_ratio(num_fact, den_facts):
    """[num_fact]! / prod [d]! as an exact polynomial; the ratio is exact
    for every identity right-hand side used here."""
    den = LaurentPoly.const(1)
    for d in den_facts:
        den = den * quantum_factorial(d)
    q = divide_exact(quantum_factorial(num_fact), den)
    if q is None:
        raise ArithmeticError("quantum factorial ratio is not polynomial")
    return q


def _signed_kappa_power_sum(d):
    """(-kappa^(1/2))^d + (-kappa^(1/2))^(-d)."""
    sign = -1 if d % 2 else 1
    out = kappa_pow(d) * sign + kappa_pow(-d) * sign
    return out


def check_identity(prop, *, m=None, n=None, mvec=None, N=None):
    """Exhaustive check of one combinatorial identity instance.

    QBINOM wants (m, n); QMULTINOM wants mvec; MOCHIZUKI, JOYCE_LT and
    JOYCE_B want (mvec, N); QBINOM is QMULTINOM on mvec = (m, n). The left
    side is summed over every word by the recursion over letter counts
    (_statistic_counts, directly for QMULTINOM, through restricted_word_sum
    for the others, once per distinct rearrangement of mvec times its
    multiplicity); the right side comes from the closed form, and the
    result compares them exactly.
    """
    if prop == "QBINOM":
        if m is None or n is None or m < 1 or n < 1:
            raise ValueError("QBINOM wants integers m, n >= 1")
        mvec, args = (m, n), {"m": m, "n": n}
    elif prop == "QMULTINOM":
        if not mvec or any(x < 1 for x in mvec):
            raise ValueError("QMULTINOM wants a vector of positive parts")
        mvec = tuple(mvec)
        args = {"mvec": list(mvec)}
    if prop in ("QBINOM", "QMULTINOM"):
        k = len(mvec)
        lhs = kd_to_poly(_statistic_counts(mvec, (1,) * k, (None,) * k))
        cross = sum(mvec[i] * mvec[j] for i in range(k) for j in range(i))
        if cross % 2:
            lhs = -lhs
        rhs = _qfact_ratio(sum(mvec), mvec)
        return IdentityResult(prop, args, lhs, rhs)

    if prop in ("MOCHIZUKI", "JOYCE_LT", "JOYCE_B"):
        mvec = tuple(mvec or ())
        if any(x < 1 for x in mvec):
            raise ValueError("parts must be positive")
        if N is None or N <= sum(mvec):
            raise ValueError("need N > |mvec|")
        ell = len(mvec)
        kind = {"MOCHIZUKI": "GT", "JOYCE_LT": "LT", "JOYCE_B": "B"}[prop]
        lhs = LaurentPoly.zero()
        for perm, mult in Counter(itertools.permutations(mvec)).items():
            lhs = lhs + restricted_word_sum(kind, perm + (N - sum(mvec),)) * mult
        if prop == "MOCHIZUKI":
            rhs = _qfact_ratio(N, (N - sum(mvec),) + tuple(x - 1 for x in mvec))
            fact = 1
            for i in range(2, ell + 1):
                fact *= i
            rhs = rhs * fact
        elif prop == "JOYCE_LT":
            if ell <= 1:
                rhs = _qfact_ratio(N, (N - sum(mvec),) + tuple(x - 1 for x in mvec))
            else:
                rhs = LaurentPoly.zero()
        else:
            if N - sum(mvec) - 1 < 0:
                raise ValueError("JOYCE_B needs N >= |mvec| + 1")
            if ell == 1:
                rhs = _qfact_ratio(
                    N - 1, (N - sum(mvec) - 1, mvec[0] - 1)
                ) * _signed_kappa_power_sum(mvec[0])
            elif ell == 2:
                rhs = _qfact_ratio(
                    N - 1, (N - sum(mvec) - 1, mvec[0] - 1, mvec[1] - 1)
                ) * _signed_kappa_power_sum(mvec[0] - mvec[1])
            else:
                rhs = LaurentPoly.zero()
        return IdentityResult(prop, {"mvec": list(mvec), "N": N}, lhs, rhs)

    raise ValueError("unknown identity %r" % (prop,))
