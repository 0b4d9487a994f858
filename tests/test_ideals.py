"""Ideal closure, primality, subtractivity, radicals, and the naturals."""

import math
import random

import pytest

from conftest import brute_ideal_ok, brute_prime_ideal_masks
from semispec import accept, corpus, ideals
from semispec.errors import InternalCheckError
from semispec.ideals import (
    all_ideals,
    closed_sets,
    ideal_closure,
    is_ideal,
    is_prime,
    is_subtractive,
    nat_pair_tail_check,
    nat_pair_tail_start,
    nat_prime_residue_check,
    primes_containing,
    radical_equals_prime_intersection,
    radical_mask,
    radical_member,
    subtractive_closure,
    sum_closure,
)
from semispec.kernel import mul_rows


def test_ideal_closure_matches_brute_fixpoint(small_tables):
    for name, A in small_tables.items():
        for seed in range(1 << A.size):
            got = ideal_closure(A, [a for a in A.elements if (seed >> a) & 1])
            # grow the seed by hand until stable
            cur = seed | (1 << A.zero)
            while True:
                nxt = cur
                for a in A.elements:
                    for b in A.elements:
                        if (cur >> a) & 1 and (cur >> b) & 1:
                            nxt |= 1 << A.add[a][b]
                        if (cur >> a) & 1:
                            nxt |= 1 << A.mul[a][b]
                if nxt == cur:
                    break
                cur = nxt
            assert got == cur, name


def _closure_by_rounds(A, seed):
    """The round-by-round fixed point that the worklist replaced: every
    round adds every sum of two members."""
    cur = seed
    while True:
        nxt = cur
        elems = [i for i in range(A.size) if (cur >> i) & 1]
        for a in elems:
            for b in elems:
                nxt |= 1 << A.add[a][b]
        if nxt == cur:
            return cur
        cur = nxt


def test_worklist_closure_matches_the_round_by_round_fixed_point(corpus_tables):
    rng = random.Random(25)
    checked = 0
    for name, A in corpus_tables.items():
        if A.size > 8:
            continue
        one_element = [1 << a for a in A.elements]
        drawn = [rng.randrange(1, 1 << A.size) for _ in range(200)]
        for zero in (0, 1 << A.zero):
            for seed in one_element + drawn:
                want = _closure_by_rounds(A, seed | zero)
                assert sum_closure(A, seed | zero) == want, (name, seed, zero)
                checked += 1
    assert checked > 5000


def test_is_ideal_agrees_with_oracle(small_tables):
    for name, A in small_tables.items():
        for mask in range(1 << A.size):
            assert is_ideal(A, mask) == brute_ideal_ok(A, mask), name


FROZEN_IDEAL_COUNTS = {
    "bool2": (2, 1), "boolnil": (4, 2), "boolpair": (4, 2), "boolx": (4, 3),
    "chain3": (3, 2), "chain3xbool": (6, 3), "chain4": (4, 3), "f2": (2, 1),
    "satnat4": (4, 2), "satnat8": (17, 2), "trivial1": (1, 0),
    "trop5": (5, 2), "z4": (3, 1),
}


def test_ideal_and_prime_counts_frozen(corpus_tables):
    for name, (n_ideals, n_primes) in FROZEN_IDEAL_COUNTS.items():
        A = corpus_tables[name]
        ideals = all_ideals(A)
        assert len(ideals) == n_ideals, name
        assert sum(1 for I in ideals if is_prime(A, I)) == n_primes, name


def test_prime_masks_match_brute(small_tables):
    for name, A in small_tables.items():
        got = sorted(I for I in all_ideals(A) if is_prime(A, I))
        assert got == brute_prime_ideal_masks(A), name


def test_radical_member_oracle(small_tables):
    for name, A in small_tables.items():
        for I in all_ideals(A):
            for a in A.elements:
                # some power of a falls into I; powers cycle within size+1 steps
                powers, p = [], A.one
                for _ in range(A.size + 1):
                    p = A.mul[p][a]
                    powers.append(p)
                want = any((I >> q) & 1 for q in powers)
                assert radical_member(A, I, a) == want, name


def test_radical_mask_is_radical_ideal(small_tables):
    for name, A in small_tables.items():
        for I in all_ideals(A):
            rad = radical_mask(A, I)
            assert is_ideal(A, rad), name
            assert rad & I == I  # contains I
            again = radical_mask(A, ideal_closure(A, [a for a in A.elements
                                                      if (rad >> a) & 1]))
            assert again == rad, name


def test_radical_equals_prime_intersection(corpus_tables):
    for name, A in corpus_tables.items():
        if A.size > 8:
            continue
        ideals = all_ideals(A)
        primes = [I for I in ideals if is_prime(A, I)]
        for I in ideals:
            assert radical_equals_prime_intersection(A, I, primes), name


def test_primes_containing():
    A = corpus.get("boolx")
    primes = [I for I in all_ideals(A) if is_prime(A, I)]
    assert sorted(primes_containing(1, primes)) == [1, 5, 13]
    assert sorted(primes_containing(0b101, primes)) == [5, 13]


def test_subtractive_detection():
    A = corpus.get("boolnil")  # 0,1,x,1+x with x^2 = 0
    assert 0b101 in all_ideals(A)
    # {0,x} is subtractive: a+b in it with b in it forces a in it
    assert is_subtractive(A, 0b101)
    sat = corpus.get("satnat4")
    # saturating arithmetic: 1+3 = 3 lands in {0,3} although 1 is outside
    assert any(not is_subtractive(sat, I) for I in all_ideals(sat))


def test_subtractive_closure_minimal(small_tables):
    for name, A in small_tables.items():
        for I in all_ideals(A):
            J = subtractive_closure(A, I)
            assert is_subtractive(A, J), name
            assert J & I == I, name
            # no smaller subtractive ideal sits between them
            for K in all_ideals(A):
                if is_subtractive(A, K) and K & I == I:
                    assert K & J == J, name


def test_nat_pair_tail():
    assert nat_pair_tail_start(3, 5) == 10
    assert nat_pair_tail_check(3, 5)
    assert nat_pair_tail_check(4, 7)
    # threshold formula (p-1)q: everything from there on is inside
    direct = {3 * a + 5 * b for a in range(14) for b in range(9)}
    assert all(n in direct for n in range(10, 40))
    assert 7 not in direct  # the Frobenius number 3*5 - 3 - 5, below the tail
    # a shared factor leaves infinitely many gaps: False, not a disagreement
    assert not nat_pair_tail_check(4, 6)


def test_nat_tail_routes_match_a_direct_scan():
    for p in range(1, 13):
        for q in range(1, 16):
            if math.gcd(p, q) != 1:
                continue
            direct = {a * p + b * q for a in range(3 * q + 2) for b in range(3 * p + 2)}
            for start in (0, (p - 1) * q, 2 * p * q):
                want = sum(1 << i for i in range(p) if start + i in direct)
                assert ideals._window_by_inverse(p, q, start) == want, (p, q, start)
                if start >= (p - 1) * q:
                    assert ideals._window_by_sieve(p, q, start) == want, (p, q, start)


def test_criterion_1_detects_a_wrong_inverse(monkeypatch):
    # planted defect: route 1 is handed q^-1 + 1 mod p, so its certificates
    # fail the replay
    monkeypatch.setattr(
        ideals, "pow", lambda base, exp, mod: (pow(base, exp, mod) + 1) % mod, raising=False
    )
    with pytest.raises(InternalCheckError):
        accept.criterion_1()


def test_criterion_1_detects_a_dropped_sieve_row(monkeypatch):
    # planted defect: route 2 without the row shifted by (p-1)q
    def sieve_without_last_row(p, q, start):
        row = 0
        for k in range(0, start + p, p):
            row |= 1 << k
        out = 0
        for b in range(p - 1):
            out |= row >> (start - b * q)
        return out & ((1 << p) - 1)

    monkeypatch.setattr(ideals, "_window_by_sieve", sieve_without_last_row)
    with pytest.raises(InternalCheckError):
        accept.criterion_1()


def test_criterion_1_fails_on_a_gap_both_routes_agree_on(monkeypatch):
    # planted defect: both routes miss the first window member alike
    for name in ("_window_by_inverse", "_window_by_sieve"):
        real = getattr(ideals, name)
        monkeypatch.setattr(ideals, name, lambda p, q, start, real=real: real(p, q, start) & ~1)
    assert not nat_pair_tail_check(3, 5)
    assert not accept.criterion_1().passed


def test_nat_prime_checks():
    assert nat_prime_residue_check(7, 60)
    assert not nat_prime_residue_check(6, 60)


def test_nat_prime_residue_check_matches_the_pair_scan():
    # the one-pass gcd route decides the pair predicate for every p,
    # composites and p = 1 included, at every bound
    def pair_scan(p, bound):
        return not any(
            a * b % p == 0 and a % p and b % p
            for a in range(bound + 1)
            for b in range(a, bound + 1)
        )

    for p in range(1, 41):
        for bound in range(46):
            assert nat_prime_residue_check(p, bound) == pair_scan(p, bound), (p, bound)


def test_all_ideals_match_subset_oracle(small_tables):
    for name, A in small_tables.items():
        want = {m for m in range(1 << A.size) if brute_ideal_ok(A, m)}
        assert all_ideals(A) == sorted(
            want, key=lambda m: (bin(m).count("1"), m)
        ), name


def test_closed_sets_finds_every_boolxy_module():
    A = corpus.get("boolxy")
    cyclic = [sum_closure(A, 1 << A.zero | 1 << a) for a in A.elements]
    assert len(closed_sets(A, cyclic)) == 2480


def test_closed_sets_detects_a_wrong_join(monkeypatch):
    # planted defect: the join of two ideals taken as their union; boolpair
    # splits, so `all_ideals` would read its factors: the lattice is built
    # on boolpair itself
    A = corpus.get("boolpair")
    monkeypatch.setattr(ideals, "_module_sum", lambda A, m1, m2: m1 | m2)
    with pytest.raises(InternalCheckError):
        closed_sets(A, mul_rows(A))


def test_closed_sets_detects_a_join_missing_a_principal_set(monkeypatch):
    # planted defect: every join takes in the top 1 of chain4, whose
    # principal ideal is all of chain4; any subset of a chain is closed
    # under max, so only the principal-set half fires
    A = corpus.get("chain4")
    monkeypatch.setattr(ideals, "_module_sum", lambda A, m1, m2: m1 | m2 | 1 << A.one)
    with pytest.raises(InternalCheckError, match="not closed"):
        closed_sets(A, mul_rows(A))


def test_subtractive_closure_detects_a_pass_that_misses_a_witness(monkeypatch):
    # planted defect: the pass adds nothing, so the witness 1 + 2 = 3 of
    # satnat4's ideal {0, 2, 3} is missed and the result is no kernel
    A = corpus.get("satnat4")
    I = ideal_closure(A, [2])
    assert subtractive_closure(A, I) == A.full_mask
    monkeypatch.setattr(ideals, "_subtractive_pass", lambda A, mask: mask)
    with pytest.raises(InternalCheckError, match="not a kernel"):
        subtractive_closure(A, I)


def test_subtractive_closure_detects_a_subtractive_set_that_is_no_ideal(monkeypatch):
    # planted defect: the pass returns boolpair's down-set {(0,0), (0,1),
    # (1,0)}, subtractive but not closed under +: only the ideal half fires
    A, down = corpus.get("boolpair"), 0b0111
    assert is_subtractive(A, down) and not is_ideal(A, down)
    monkeypatch.setattr(ideals, "_subtractive_pass", lambda A, mask: down)
    with pytest.raises(InternalCheckError, match="not a kernel"):
        subtractive_closure(A, 1 << A.zero)


def test_a_blind_prime_test_fails_the_radical_check(monkeypatch):
    # planted defect: the prime test accepts every proper ideal, so the
    # "primes" over {0} in z4 meet in {0}, not in its radical {0, 2}
    for module in (ideals, accept):
        monkeypatch.setattr(module, "is_prime", lambda A, I: I != A.full_mask)
    z4 = corpus.get("z4")
    primes = [I for I in all_ideals(z4) if ideals.is_prime(z4, I)]
    assert not radical_equals_prime_intersection(z4, 1 << z4.zero, primes)
    assert not accept.criterion_7().passed
