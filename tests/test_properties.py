"""Law-level properties of ten corpus semirings and of every semiring of
order at most 4, checked on every seed mask."""

from conftest import submonoids
from semispec import corpus
from semispec.ideals import all_ideals, ideal_closure, radical_mask
from semispec.kernel import bits, is_idempotent, leq
from semispec.localize import is_saturated, localize, saturate
from test_census import MEMBERS

SMALL = [corpus.get(name) for name in ["bool2", "boolnil", "boolpair", "boolx", "chain3",
                                       "chain4", "satnat4", "trop5", "f2", "z4"]] + MEMBERS
IDEM = [A for A in SMALL if is_idempotent(A)]


def test_closure_is_a_closure_operator():
    for A in SMALL:
        for seed in range(1 << A.size):
            got = ideal_closure(A, bits(seed))
            assert got & seed == seed, A.label  # extensive
            assert ideal_closure(A, bits(got)) == got, A.label  # idempotent


def test_closure_monotone():
    # closure(s) within closure(s + {a}) for every s and a: any s within t
    # is reached from s by such steps
    for A in SMALL:
        closures = [ideal_closure(A, bits(seed)) for seed in range(1 << A.size)]
        for seed, got in enumerate(closures):
            for a in A.elements:
                assert got & ~closures[seed | 1 << a] == 0, (A.label, seed, a)


def test_saturate_closure_operator():
    for A in SMALL:
        for m in submonoids(A):
            sat = saturate(A, m)
            assert sat & m == m, A.label
            assert is_saturated(A, sat), A.label
            assert saturate(A, sat) == sat, A.label


def test_natural_order_is_partial_order():
    for A in IDEM:
        for a in A.elements:
            assert leq(A, a, a)
            for b in A.elements:
                if leq(A, a, b) and leq(A, b, a):
                    assert a == b, A.label
                for c in A.elements:
                    if leq(A, a, b) and leq(A, b, c):
                        assert leq(A, a, c), A.label


def test_addition_is_join():
    for A in IDEM:
        for a in A.elements:
            for b in A.elements:
                s = A.add[a][b]
                assert leq(A, a, s) and leq(A, b, s), A.label
                for c in A.elements:
                    if leq(A, a, c) and leq(A, b, c):
                        assert leq(A, s, c), A.label


def test_radical_is_idempotent_and_extensive():
    for A in SMALL:
        for I in all_ideals(A):
            rad = radical_mask(A, I)
            assert rad & I == I, A.label
            assert radical_mask(A, ideal_closure(A, bits(rad))) == rad, A.label


def test_localization_respects_unit_fractions():
    """a/1 equals (a*s)/s for every monoid member: the defining relation."""
    for A in SMALL:
        for m in submonoids(A):
            if (m >> A.zero) & 1:
                continue  # collapses to the one-point semiring
            L = localize(A, m)
            for a in A.elements:
                for s in bits(m):
                    assert L.class_of_pair(a, A.one) == L.class_of_pair(A.mul[a][s], s), A.label
