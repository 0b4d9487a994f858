"""Polynomial layers: boolean and integer coefficient tuples."""

import tracemalloc
from itertools import product, zip_longest

import pytest

from semispec import accept, poly
from semispec.errors import PreconditionError
from semispec.localize import bx_mul
from semispec.poly import (
    BoolPoly,
    bool_eval,
    bool_poly,
    bool_poly_deg,
    bool_poly_from_mask,
    bool_poly_mul,
    bool_poly_ord_deg,
    bool_poly_to_mask,
    int_mul,
    int_rem,
    ktt_member,
    monomial_kernel_set,
    squarefree_monomials,
    vanishing_set,
)


def test_bool_ops_match_pointwise_semantics():
    """Evaluation is a homomorphism: the defining property of the tables."""
    n = 3
    polys = [
        bool_poly(n, [(0, 0, 0)]),
        bool_poly(n, [(1, 0, 0), (0, 1, 1)]),
        bool_poly(n, [(2, 1, 0)]),
        bool_poly(n, []),
        bool_poly(n, [(1, 1, 1), (0, 0, 0), (3, 0, 2)]),
    ]
    for f in polys:
        for g in polys:
            s, p = BoolPoly(n, f.support | g.support), bool_poly_mul(f, g)
            for pt in product((False, True), repeat=n):
                assert bool_eval(s, pt) == (bool_eval(f, pt) or bool_eval(g, pt))
                assert bool_eval(p, pt) == (bool_eval(f, pt) and bool_eval(g, pt))


def test_mask_roundtrip_one_var():
    for mask in range(64):
        f = bool_poly_from_mask(mask)
        assert bool_poly_to_mask(f) == mask


def test_bx_mul_known_products():
    x, onex = 0b10, 0b11
    assert bx_mul(onex, onex) == 0b111  # (1+x)^2 = 1+x+x^2
    assert bx_mul(x, x) == 0b100
    assert bx_mul(0, onex) == 0
    assert bx_mul(1, onex) == onex


def test_bx_mul_matches_table_poly():
    for a in range(32):
        for b in range(32):
            fa, fb = bool_poly_from_mask(a), bool_poly_from_mask(b)
            assert bx_mul(a, b) == bool_poly_to_mask(bool_poly_mul(fa, fb))


def test_ord_deg():
    assert bool_poly_ord_deg(0b110) == (1, 2)
    assert bool_poly_deg(0b1) == 0
    assert bool_poly_ord_deg(0) == (float("inf"), float("-inf"))
    assert bool_poly_ord_deg(0b10) == (1, 1)


def test_squarefree_universe_sizes():
    # a polynomial is a mask over the monomials: 2^(2^n) of them
    assert [1 << len(squarefree_monomials(n)) for n in range(1, 5)] == [4, 16, 256, 65536]
    assert squarefree_monomials(2) == ((0, 0), (0, 1), (1, 0), (1, 1))  # bit k is monomial k
    with pytest.raises(PreconditionError):
        squarefree_monomials(5)


@pytest.mark.parametrize("n,count", [(1, 2), (2, 4), (3, 8), (4, 16)])
def test_distinct_vanishing_sets(n, count):
    monomials = squarefree_monomials(n)
    vs = {vanishing_set(monomials, p) for p in product((False, True), repeat=n)}
    assert len(vs) == count


def test_monomial_kernel_recovers_vanishing():
    # vanishing at a 0/1 point = monomial ideal of the false coordinates
    for n in (1, 2, 3):
        monomials = squarefree_monomials(n)
        for pt in product((False, True), repeat=n):
            zero_vars = [j for j in range(n) if not pt[j]]
            assert vanishing_set(monomials, pt) == monomial_kernel_set(monomials, zero_vars)


def test_mask_kernels_match_member_evaluation():
    # mask i is the polynomial on the monomials at its set bits; the kernel
    # is the set of submasks of the returned mask
    for n in (1, 2, 3):
        monomials = squarefree_monomials(n)
        masks = range(1 << len(monomials))
        members = [bool_poly(n, [m for k, m in enumerate(monomials) if (i >> k) & 1]) for i in masks]
        for pt in product((False, True), repeat=n):
            want = [i for i, f in enumerate(members) if not bool_eval(f, pt)]
            zero_vars = [j for j in range(n) if not pt[j]]
            for got in (vanishing_set(monomials, pt), monomial_kernel_set(monomials, zero_vars)):
                assert [i for i in masks if i & ~got == 0] == want


def test_criterion_2_reads_no_kernel_member():
    # the kernels are compared and counted by their masks: at n = 4 an
    # enumerated kernel holds up to 2^15 indices
    tracemalloc.start()
    try:
        assert accept.criterion_2().passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_criterion_2_detects_a_dropped_monomial(monkeypatch):
    # planted defect: the support route forgets the last monomial it keeps
    real = poly._free_monomials

    def drop_one(monomials, zeros):
        m = real(monomials, zeros)
        return m & ~(1 << (m.bit_length() - 1))

    monkeypatch.setattr(poly, "_free_monomials", drop_one)
    assert not accept.criterion_2().passed


def test_int_rem_by_a_monic_divisor():
    f = (0, 0, 1, 1, 1)  # t^4+t^3+t^2
    r = int_rem(f, (-1, 0, 1))  # by t^2-1
    assert r == (2, 1)  # t+2
    q_times_g = int_mul((2, 1, 1), (-1, 0, 1))  # (t^2+t+2)(t^2-1)
    assert tuple(map(sum, zip_longest(q_times_g, r, fillvalue=0))) == f
    assert int_rem((0, 0, 0, 1), (0, 1)) == ()  # t^3 by t


def test_int_rem_refuses_a_divisor_that_is_not_monic():
    for g in [(), (0,), (0, 2), (1, -1)]:  # 0, 0, 2t, 1-t
        with pytest.raises(PreconditionError, match="not monic"):
            int_rem((0, 1), g)


KTT_FROZEN = [  # the polynomial, its coefficients from degree 0, membership
    ("1", (1,), True),
    ("t", (0, 1), False),
    ("t^2", (0, 0, 1), True),
    ("t^3", (0, 0, 0, 1), True),
    ("t^3+t^2", (0, 0, 1, 1), True),
    ("t^4+t^3+t^2", (0, 0, 1, 1, 1), True),
    ("t+1", (1, 1), False),
    ("t^2+t", (0, 1, 1), False),
    ("5", (5,), True),
]


@pytest.mark.parametrize(
    "f,member", [k[1:] for k in KTT_FROZEN], ids=[f"{k[0]}-{k[2]}" for k in KTT_FROZEN]
)
def test_ktt_membership_frozen(f, member):
    assert ktt_member(f) == member


def test_ktt_closed_under_ops():
    members = [f for _, f, m in KTT_FROZEN if m]
    for f in members:
        for g in members:
            assert ktt_member(tuple(map(sum, zip_longest(f, g, fillvalue=0))))
            assert ktt_member(int_mul(f, g))


@pytest.mark.parametrize("name,planted", [("int_rem", lambda f, g: ()), ("ktt_member", lambda f: True)],
                         ids=["int_rem", "ktt_member"])
def test_criterion_5_detects_a_planted_defect(monkeypatch, name, planted):
    # a remainder that is always 0 makes t^3+t^2 divisible by t^2-1; a
    # membership test that accepts everything keeps (t-1)^2 in the subring
    assert accept.criterion_5().passed
    monkeypatch.setattr(poly, name, planted)
    assert not accept.criterion_5().passed
