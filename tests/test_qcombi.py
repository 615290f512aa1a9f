"""Word combinatorics, quantum integers, and the identity checkers."""

import itertools
from collections import Counter

import pytest

from kvertex import qcombi
from kvertex.exactalg import LaurentPoly, kappa_pow
from kvertex.qcombi import (
    ORDER_KINDS,
    check_identity,
    compositions,
    multisets_le3,
    parse_partition,
    partition,
    quantum_factorial,
    quantum_int,
    restricted_word_sum,
    shifted_word_sum,
)


def test_partition_validation():
    assert partition((3, 1)) == (3, 1)
    assert parse_partition(" ") == ()
    assert parse_partition("3,1") == (3, 1)
    with pytest.raises(ValueError):
        partition((1, 2))
    with pytest.raises(ValueError):
        partition((0,))


def test_compositions_match_cut_points():
    # a composition of n is the set of its cut points in 1..n-1
    assert list(compositions(0)) == [()]
    for n in range(1, 11):
        got = list(compositions(n))
        assert len(got) == len(set(got)) == 2 ** (n - 1), n
        expect = set()
        for k in range(n):
            for cuts in itertools.combinations(range(1, n), k):
                edges = (0,) + cuts + (n,)
                expect.add(tuple(edges[i + 1] - edges[i] for i in range(k + 1)))
        assert set(got) == expect, n
        assert got == sorted(got), n


def test_multisets_le3_match_brute_force():
    # partitions of n into at most three parts, largest first part first,
    # and a shorter tuple before its extensions
    for n in range(1, 11):
        expect = sorted(
            (
                p
                for k in (1, 2, 3)
                for p in itertools.combinations_with_replacement(range(n, 0, -1), k)
                if sum(p) == n
            ),
            key=lambda p: [-x for x in p],
        )
        assert list(multisets_le3(n)) == expect, n


def test_quantum_int_values():
    minus_k = LaurentPoly.term(-1, (1, 1, 1, 0, 0)) + LaurentPoly.term(-1, (-1, -1, -1, 0, 0))
    assert quantum_int(1) == LaurentPoly.const(1)
    assert quantum_int(0).is_zero()
    assert quantum_int(2) == minus_k
    assert quantum_int(3) == kappa_pow(2) + LaurentPoly.const(1) + kappa_pow(-2)


def test_quantum_int_negation():
    for n in range(0, 12):
        assert quantum_int(-n) == -quantum_int(n)


def test_quantum_int_kappa_one_limit():
    for n in range(-20, 21):
        expect = n if n % 2 else -n
        assert quantum_int(n).coefficient_sum() == expect  # value at kappa = 1


def test_quantum_difference_identity():
    # [a-b] = (-1)^b kappa^(b/2) [a] - (-1)^a kappa^(a/2) [b]
    for a in range(-10, 11):
        for b in range(-10, 11):
            lhs = quantum_int(a - b)
            rhs = kappa_pow(b) * quantum_int(a) * (-1 if b % 2 else 1) - kappa_pow(
                a
            ) * quantum_int(b) * (-1 if a % 2 else 1)
            assert lhs == rhs, (a, b)


def test_quantum_jacobi_identity():
    # [A+C][B] = [A][B-C] + [A+B][C]
    rng = range(-8, 9)
    for a in rng:
        for b in rng:
            for c in rng:
                lhs = quantum_int(a + c) * quantum_int(b)
                rhs = quantum_int(a) * quantum_int(b - c) + quantum_int(a + b) * quantum_int(c)
                assert lhs == rhs, (a, b, c)


def test_quantum_factorial():
    assert quantum_factorial(0) == LaurentPoly.const(1)
    assert quantum_factorial(2) == quantum_int(2)
    assert quantum_factorial(3) == quantum_int(2) * quantum_int(3)
    with pytest.raises(ValueError):
        quantum_factorial(-1)


# -- the word-by-word oracle ---------------------------------------------

def enumerate_words(mvec):
    """All rearrangements of 1^m1 2^m2 ... in lexicographic order."""
    mvec = tuple(mvec)
    if any(m < 0 for m in mvec):
        raise ValueError("multiplicities must be nonnegative")
    counts = list(mvec)
    total = sum(counts)
    word = []

    def rec():
        if len(word) == total:
            yield tuple(word)
            return
        for letter in range(1, len(counts) + 1):
            if counts[letter - 1]:
                counts[letter - 1] -= 1
                word.append(letter)
                yield from rec()
                word.pop()
                counts[letter - 1] += 1

    return rec()


def c_word(w, i, j):
    """Signed inversion statistic: ordered pairs of an i before a j, minus
    ordered pairs of a j before an i. Antisymmetric in (i, j)."""
    if i == j:
        raise ValueError("letters must differ")
    seen_i = seen_j = 0
    c = 0
    for x in w:
        if x == i:
            c -= seen_j
            seen_i += 1
        elif x == j:
            c += seen_i
            seen_j += 1
    if not seen_i or not seen_j:
        raise ValueError("both letters must occur in the word")
    return c


def _word_stats(w, nletters):
    """One pass: first occurrences o_i and the sums S_i = sum_{j>i} c_{i,j}."""
    o = [0] * (nletters + 1)
    s = [0] * (nletters + 1)
    seen = [0] * (nletters + 1)
    for p, x in enumerate(w, start=1):
        if not o[x]:
            o[x] = p
        for i in range(1, x):
            if seen[i]:
                s[i] += seen[i]
        for j in range(x + 1, nletters + 1):
            if seen[j]:
                s[x] -= seen[j]
        seen[x] += 1
    return o, s


def test_enumerate_words():
    assert list(enumerate_words((1, 1))) == [(1, 2), (2, 1)]
    assert list(enumerate_words((2, 1))) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]
    words = list(enumerate_words((1, 1, 1)))
    assert len(words) == 6
    assert words == sorted(words)


def test_c_word_examples():
    assert c_word((1, 1, 2, 2), 1, 2) == 4
    assert c_word((1, 2, 1, 2), 1, 2) == 2
    assert c_word((2, 1), 1, 2) == -1
    with pytest.raises(ValueError):
        c_word((1, 2), 1, 1)
    with pytest.raises(ValueError):
        c_word((1, 1), 1, 2)


def test_c_word_parity_and_reversal():
    for mvec in ((2, 2), (3, 1), (2, 1, 1)):
        letters = range(1, len(mvec) + 1)
        parities = {}
        for w in enumerate_words(mvec):
            for i, j in itertools.combinations(letters, 2):
                c = c_word(w, i, j)
                assert c % 2 == (mvec[i - 1] * mvec[j - 1]) % 2
                parities.setdefault((i, j), c % 2)
                assert c % 2 == parities[(i, j)]
                assert c_word(tuple(reversed(w)), i, j) == -c
                assert c_word(w, j, i) == -c


def dim_vector(w, letter):
    """Prefix-count dimension vector of one letter, with the stable final
    entry appended (length len(w) + 1)."""
    e = []
    n = 0
    for x in w:
        if x == letter:
            n += 1
        e.append(n)
    e.append(n)
    return tuple(e)


def c_Q(evec, fvec):
    """Antisymmetrized chain-quiver Euler pairing
    sum_i (e_i f_{i+1} - f_i e_{i+1}) over i = 1..len-1."""
    if len(evec) != len(fvec):
        raise ValueError("dimension vectors must have equal length")
    return sum(
        evec[i] * fvec[i + 1] - fvec[i] * evec[i + 1] for i in range(len(evec) - 1)
    )


def test_dim_vector_and_pairing():
    w = (1, 2)
    e1 = dim_vector(w, 1)
    e2 = dim_vector(w, 2)
    assert e1 == (1, 1, 1)
    assert e2 == (0, 1, 1)
    assert c_Q(e1, e2) == 1
    assert c_Q((1, 1, 1), (0, 1, 1)) == 1
    assert c_Q(e1, e1) == 0
    with pytest.raises(ValueError):
        c_Q((1, 2), (1, 2, 3))


def test_c_Q_matches_c_word():
    for mvec in ((1, 1), (2, 1), (1, 2), (2, 2), (1, 1, 1), (2, 1, 1)):
        for w in enumerate_words(mvec):
            for i in range(1, len(mvec) + 1):
                for j in range(1, len(mvec) + 1):
                    if i == j:
                        continue
                    assert c_Q(dim_vector(w, i), dim_vector(w, j)) == c_word(w, i, j)


def test_restricted_word_sum_basics():
    two = quantum_int(2)
    assert restricted_word_sum("LT", (1, 1)) == two
    assert restricted_word_sum("GT", (1, 1)) == two
    assert restricted_word_sum("B", (1, 1)) == two
    # empty remainder slot: constraints touching the last letter give 0
    assert restricted_word_sum("B", (2, 0)).is_zero()
    assert restricted_word_sum("ALL", (2, 0)).is_zero()
    assert restricted_word_sum("GT", (2, 0)) == quantum_int(2)
    with pytest.raises(ValueError):
        restricted_word_sum("XX", (1, 1))
    with pytest.raises(ValueError):
        restricted_word_sum("LT", (0, 1))


def enumerated_word_sum(kind, mvec):
    """restricted_word_sum word by word: the definition, read off every
    rearrangement by enumerate_words and _word_stats."""
    ell = len(mvec)
    if mvec[-1] == 0:
        if kind in ("B", "ALL"):
            return LaurentPoly.zero()
        mvec = mvec[:-1]
    nletters = len(mvec)
    chains = {
        "GT": [(i + 1, i) for i in range(1, ell - 1)],
        "LT": [(i, i + 1) for i in range(1, ell - 1)],
        "B": [(ell, 1)] + [(i, i + 1) for i in range(1, ell - 1)],
        "ALL": [(i, i + 1) for i in range(1, ell)],
    }
    factors = Counter()
    for w in enumerate_words(mvec):
        o, s = _word_stats(w, nletters)
        if all(o[a] < o[b] for a, b in chains[kind]):
            factors[tuple(mvec[i - 1] - s[i] for i in range(1, ell))] += 1
    total = LaurentPoly.zero()
    for args, count in factors.items():
        prod = LaurentPoly.const(count)
        for a in args:
            prod = prod * quantum_int(a)
        total = total + prod
    return total


def enumerated_inversion_sum(mvec):
    """The QBINOM/QMULTINOM left side before its sign: the sum over
    rearrangements of kappa^(sum_i S_i / 2)."""
    stats = Counter(sum(_word_stats(w, len(mvec))[1]) for w in enumerate_words(mvec))
    total = LaurentPoly.zero()
    for e, count in stats.items():
        total = total + kappa_pow(e) * count
    return total


def test_restricted_word_sum_matches_enumeration():
    # every kind, every composition with remainder (zero included) up to
    # N = 7, and the one-slot words (N,)
    cases = 0
    for N in range(1, 8):
        for m in range(N + 1):
            for comp in compositions(m):
                full = comp + (N - m,)
                for kind in ORDER_KINDS:
                    got = restricted_word_sum(kind, full)
                    assert str(got) == str(enumerated_word_sum(kind, full)), (kind, full)
                    cases += 1
    assert cases == 4 * sum(2 ** N for N in range(1, 8))


def enumerated_shifted_word_sum(full):
    """shifted_word_sum word by word: the LT word sum with the inner index
    sum shifted by one, c_{i,i+1} added back to each factor."""
    ell = len(full)
    total = LaurentPoly.zero()
    for w in enumerate_words(full):
        o, s = _word_stats(w, ell)
        if not all(o[i] < o[i + 1] for i in range(1, ell - 1)):
            continue
        prod = LaurentPoly.const(1)
        for i in range(1, ell):
            prod = prod * quantum_int(full[i - 1] - s[i] + c_word(w, i, i + 1))
        total = total + prod
    return total


def test_shifted_word_sum_matches_enumeration():
    # every composition with a positive remainder up to N = 7, and the
    # one-slot words (N,)
    cases = 0
    for N in range(1, 8):
        for m in range(N):
            for comp in compositions(m):
                full = comp + (N - m,)
                got = shifted_word_sum(full)
                assert str(got) == str(enumerated_shifted_word_sum(full)), full
                cases += 1
    assert cases == sum(2 ** (N - 1) for N in range(1, 8))
    with pytest.raises(ValueError):
        shifted_word_sum((2, 0))


def test_one_slot_remainder_first_sum_is_empty():
    # B asks o_1 < o_1 when the remainder is the only slot
    for N in range(1, 9):
        assert restricted_word_sum("B", (N,)).is_zero(), N
        assert restricted_word_sum("ALL", (N,)) == LaurentPoly.const(1), N
        assert check_identity("JOYCE_B", mvec=(), N=N).verdict, N


def test_inversion_sums_match_enumeration():
    for m in range(1, 9):
        for n in range(1, 10 - m):
            lhs = check_identity("QBINOM", m=m, n=n).lhs
            sign = -1 if (m * n) % 2 else 1
            assert lhs == enumerated_inversion_sum((m, n)) * sign, (m, n)
    for total in range(1, 8):
        for mvec in compositions(total):
            lhs = check_identity("QMULTINOM", mvec=mvec).lhs
            cross = sum(a * b for a, b in itertools.combinations(mvec, 2))
            sign = -1 if cross % 2 else 1
            assert lhs == enumerated_inversion_sum(mvec) * sign, mvec


def test_repeated_parts_are_summed_once_per_rearrangement():
    for prop, kind in (("MOCHIZUKI", "GT"), ("JOYCE_LT", "LT"), ("JOYCE_B", "B")):
        for mvec in ((2, 2, 2), (1, 1, 2), (3, 1, 1)):
            N = sum(mvec) + 2
            expect = LaurentPoly.zero()
            for perm in itertools.permutations(mvec):
                expect = expect + enumerated_word_sum(kind, perm + (N - sum(mvec),))
            assert check_identity(prop, mvec=mvec, N=N).lhs == expect, (prop, mvec)


def test_inexact_word_sum_division_raises(monkeypatch):
    # counts {1: 1} for eps = (+1, +1) alone, and their mirror under
    # eps = (-1, -1), leave the numerator v^2 + v^-2, which
    # (v - v^-1)^2 does not divide
    monkeypatch.setattr(
        qcombi, "_statistic_counts", lambda mvec, eps, pred: {1: 1} if eps[:2] == (1, 1) else {}
    )
    with pytest.raises(ArithmeticError, match=r"LT \(2, 1, 1\) is not divisible"):
        restricted_word_sum("LT", (2, 1, 1))


def test_check_identity_examples():
    r = check_identity("QBINOM", m=1, n=1)
    assert r.verdict and r.lhs == quantum_int(2)
    r = check_identity("QBINOM", m=1, n=2)
    assert r.verdict and r.lhs == quantum_int(3)
    assert check_identity("QMULTINOM", mvec=(1, 1, 1)).verdict
    r = check_identity("MOCHIZUKI", mvec=(1,), N=2)
    assert r.verdict and r.lhs == quantum_int(2)
    assert check_identity("JOYCE_LT", mvec=(2, 1), N=6).verdict
    assert check_identity("JOYCE_B", mvec=(2, 1), N=6).verdict
    assert check_identity("JOYCE_B", mvec=(1,), N=3).verdict


def test_check_identity_records():
    rec = check_identity("QBINOM", m=2, n=2).to_json()
    assert set(rec) == {"prop", "args", "verdict", "lhs", "rhs"}
    assert rec["verdict"] is True


def test_check_identity_argument_errors():
    with pytest.raises(ValueError):
        check_identity("QBINOM", m=0, n=1)
    with pytest.raises(ValueError):
        check_identity("MOCHIZUKI", mvec=(2,), N=2)
    with pytest.raises(ValueError):
        check_identity("NOPE")
