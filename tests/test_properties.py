"""Law-level properties of the corpus semirings, randomized."""

from hypothesis import given
from hypothesis import strategies as st

from semispec import corpus
from semispec.ideals import all_ideals, ideal_closure, radical_mask
from semispec.kernel import leq
from semispec.localize import is_saturated, localize, saturate

SMALL = ["bool2", "boolnil", "boolpair", "boolx", "chain3", "chain4",
         "satnat4", "trop5", "f2", "z4"]
IDEM = ["bool2", "boolnil", "boolpair", "boolx", "chain3", "chain4", "trop5"]

table_name = st.sampled_from(SMALL)
idem_name = st.sampled_from(IDEM)


@given(table_name, st.integers(min_value=0, max_value=255))
def test_closure_is_a_closure_operator(name, seed):
    A = corpus.get(name)
    seed &= A.full_mask
    got = ideal_closure(A, [a for a in A.elements if (seed >> a) & 1]).mask
    assert got & seed == seed  # extensive
    again = ideal_closure(A, [a for a in A.elements if (got >> a) & 1]).mask
    assert again == got  # idempotent


@given(table_name, st.integers(min_value=0, max_value=255),
       st.integers(min_value=0, max_value=255))
def test_closure_monotone(name, s1, s2):
    A = corpus.get(name)
    s1 &= A.full_mask
    s2 = (s1 | s2) & A.full_mask
    c1 = ideal_closure(A, [a for a in A.elements if (s1 >> a) & 1]).mask
    c2 = ideal_closure(A, [a for a in A.elements if (s2 >> a) & 1]).mask
    assert c1 & c2 == c1


@given(table_name, st.integers(min_value=0, max_value=255))
def test_saturate_closure_operator(name, seed):
    A = corpus.get(name)
    # grow the seed into a submonoid first
    m = (seed & A.full_mask) | (1 << A.one)
    while True:
        nxt = m
        for a in A.elements:
            for b in A.elements:
                if (m >> a) & 1 and (m >> b) & 1:
                    nxt |= 1 << A.mul[a][b]
        if nxt == m:
            break
        m = nxt
    sat = saturate(A, m)
    assert sat & m == m
    assert is_saturated(A, sat)
    assert saturate(A, sat) == sat


@given(idem_name)
def test_natural_order_is_partial_order(name):
    A = corpus.get(name)
    for a in A.elements:
        assert leq(A, a, a)
        for b in A.elements:
            if leq(A, a, b) and leq(A, b, a):
                assert a == b
            for c in A.elements:
                if leq(A, a, b) and leq(A, b, c):
                    assert leq(A, a, c)


@given(idem_name)
def test_addition_is_join(name):
    A = corpus.get(name)
    for a in A.elements:
        for b in A.elements:
            s = A.add[a][b]
            assert leq(A, a, s) and leq(A, b, s)
            for c in A.elements:
                if leq(A, a, c) and leq(A, b, c):
                    assert leq(A, s, c)


@given(table_name)
def test_radical_is_idempotent_and_extensive(name):
    A = corpus.get(name)
    for I in all_ideals(A):
        rad = radical_mask(I)
        assert rad & I.mask == I.mask
        handle = ideal_closure(A, [a for a in A.elements if (rad >> a) & 1])
        assert radical_mask(handle) == rad


@given(table_name, st.integers(min_value=0, max_value=255))
def test_localization_respects_unit_fractions(name, seed):
    """a/1 equals (a*s)/s for every monoid member: the defining relation."""
    A = corpus.get(name)
    m = (seed & A.full_mask) | (1 << A.one)
    while True:
        nxt = m
        for a in A.elements:
            for b in A.elements:
                if (m >> a) & 1 and (m >> b) & 1:
                    nxt |= 1 << A.mul[a][b]
        if nxt == m:
            break
        m = nxt
    if (m >> A.zero) & 1:
        return  # collapses to the one-point semiring
    L = localize(A, m)
    for a in A.elements:
        for s in A.elements:
            if (m >> s) & 1:
                assert L.class_of_pair(a, A.one) == L.class_of_pair(
                    A.mul[a][s], s
                )
