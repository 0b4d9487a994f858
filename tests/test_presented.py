"""Finitely presented quotients and the bounded congruence search."""

import itertools

import pytest

from semispec import corpus
from semispec.errors import InternalCheckError, PreconditionError, ResourceError
from semispec.kernel import find_iso, verify_axioms
from semispec.presented import (
    Bound,
    CongruenceIndex,
    Presentation,
    build_index,
    congruent,
    counterexample_presentation,
    finite_quotient,
    fmt_term,
    localized_images_equal,
    one_term,
    parse_term,
    presentation_from_json,
    term_add,
    term_mul,
    var_term,
)


def dict_of(t):
    return dict(t)


def test_parse_fmt_roundtrip():
    gens = ("x", "y")
    for text in ("0", "1", "x", "x*y", "1+x^2", "2*x+y^3", "x+x"):
        t = parse_term(text, gens)
        again = parse_term(fmt_term(t, gens), gens)
        assert t == again


def test_term_arithmetic_matches_dict_model():
    gens = ("x", "y")
    a = parse_term("1+x", gens)
    b = parse_term("x+y^2", gens)
    s = term_add(a, b)
    # coefficientwise sum
    want = {}
    for m, c in list(a) + list(b):
        want[m] = want.get(m, 0) + c
    assert dict_of(s) == {m: c for m, c in want.items() if c}
    p = term_mul(a, b)
    wantp = {}
    for m1, c1 in a:
        for m2, c2 in b:
            key = tuple(u + v for u, v in zip(m1, m2))
            wantp[key] = wantp.get(key, 0) + c1 * c2
    assert dict_of(p) == {m: c for m, c in wantp.items() if c}


def test_var_and_one():
    assert dict_of(one_term(2)) == {(0, 0): 1}
    assert dict_of(var_term(2, 1)) == {(0, 1): 1}


def idem_square_presentation() -> Presentation:
    return presentation_from_json(
        {"gens": ["x"], "rels": [["x*x", "x"]], "idempotent": True}
    )


def test_congruence_yes_with_replayed_chain():
    pres = idem_square_presentation()
    idx = build_index(pres, Bound(degree=3, coeff=3))
    g = pres.gens
    a = congruent(idx, parse_term("x", g), parse_term("x^3", g))
    assert a.is_yes
    assert a.chain is not None and len(a.chain) >= 2
    # chain replay is verified internally; endpoints must match
    assert a.chain[0] == parse_term("x", g)
    assert a.chain[-1] == parse_term("x^3", g)


def test_congruence_no_at_bound():
    pres = idem_square_presentation()
    idx = build_index(pres, Bound(degree=3, coeff=3))
    g = pres.gens
    a = congruent(idx, parse_term("x", g), parse_term("1", g))
    assert a.verdict == "no-at-bound"
    assert not a.is_yes


def test_idempotent_flag_gives_add_collapse():
    pres = idem_square_presentation()
    idx = build_index(pres, Bound(degree=3, coeff=3))
    g = pres.gens
    assert congruent(idx, parse_term("1+1", g), parse_term("1", g)).is_yes
    assert congruent(idx, parse_term("x+x", g), parse_term("x", g)).is_yes


def test_tampered_move_fails_the_replay():
    pres = idem_square_presentation()
    idx = CongruenceIndex(pres, Bound(degree=3, coeff=3))
    g = pres.gens
    x, x3 = parse_term("x", g), parse_term("x^3", g)
    assert congruent(idx, x, x3).is_yes
    root, prev, (ridx, direction, mult) = idx._tree[x3]
    assert root == x and prev is not None
    idx._tree[x3] = (root, prev, (ridx, 1 - direction, mult))
    with pytest.raises(InternalCheckError):
        congruent(idx, x, x3)


def test_finite_quotient_recovers_known_table():
    pres = idem_square_presentation()
    table, cls = finite_quotient(pres, degree=2, coeff=2)
    assert table.size == 4
    # the quotient of one idempotent square generator is the four-element
    # table with a single multiplicative absorber below 1+x
    assert find_iso(table, corpus.get("boolx")) is not None
    g = pres.gens
    assert cls[parse_term("x", g)] == cls[parse_term("x^2", g)]
    assert cls[parse_term("1", g)] != cls[parse_term("x", g)]


def test_finite_quotient_budget_refusal():
    pres = idem_square_presentation()
    with pytest.raises(ResourceError):
        finite_quotient(
            pres, degree=4, coeff=4,
            bound=Bound(degree=8, coeff=8, nodes=2000),
        )


ZERO_PRODUCT = {"gens": ["x", "y"], "rels": [["x*y", "0"], ["x^2", "x"], ["y^2", "y"]]}
SQUARE_ZERO = {"gens": ["x"], "rels": [["x^2", "0"]]}


def test_finite_quotient_with_relation_to_zero():
    # both quotients contain N unless addition is idempotent, so only the
    # idempotent ones are finite
    pres = presentation_from_json({**ZERO_PRODUCT, "idempotent": True})
    table, cls = finite_quotient(pres, degree=1, coeff=1)
    assert verify_axioms(table) == []
    assert table.size == 8
    g = pres.gens
    assert table.mul[cls[parse_term("x", g)]][cls[parse_term("y", g)]] == table.zero

    pres = presentation_from_json({**SQUARE_ZERO, "idempotent": True})
    table, cls = finite_quotient(pres, degree=2, coeff=2)
    assert verify_axioms(table) == []
    assert cls[parse_term("x^2", pres.gens)] == table.zero
    assert find_iso(table, corpus.get("boolnil")) is not None


def test_relation_to_zero_rewrites_both_ways():
    pres = presentation_from_json(ZERO_PRODUCT)
    idx = build_index(pres, Bound(degree=3, coeff=2))
    g = pres.gens
    # reaching x + x^2*y from x needs the rewrite that adds a multiple of x*y
    a = congruent(idx, parse_term("x", g), parse_term("x+x^2*y", g))
    assert a.is_yes and a.chain[0] == parse_term("x", g)
    assert congruent(idx, parse_term("x*y^2", g), parse_term("0", g)).is_yes
    assert not congruent(idx, parse_term("x", g), parse_term("y", g)).is_yes
    # N[x]/(x^2) is infinite: 2+2 has no enumerated class
    with pytest.raises(PreconditionError):
        finite_quotient(presentation_from_json(SQUARE_ZERO), degree=2, coeff=2)


def bounded_terms(nvars, bound):
    """Every term within the bound, as sorted (monomial, coefficient) pairs."""
    monos = [
        m for m in itertools.product(range(bound.degree + 1), repeat=nvars)
        if sum(m) <= bound.degree
    ]
    for coeffs in itertools.product(range(bound.coeff + 1), repeat=len(monos)):
        yield tuple(sorted((m, c) for m, c in zip(monos, coeffs) if c))


def one_rewrite_apart(t, pres, bound):
    """Every bounded t - m*src + m*dst, for each relation side src -> dst and
    every monomial m, written without the index's rewriting."""
    monos = [
        m for m in itertools.product(range(bound.degree + 1), repeat=pres.nvars)
        if sum(m) <= bound.degree
    ]
    for l, r in pres.all_rels():
        for src, dst in ((l, r), (r, l)):
            for m in monos:
                d = dict(t)
                for mono, c in src:
                    key = tuple(a + b for a, b in zip(mono, m))
                    d[key] = d.get(key, 0) - c
                if any(c < 0 for c in d.values()):
                    continue
                for mono, c in dst:
                    key = tuple(a + b for a, b in zip(mono, m))
                    d[key] = d.get(key, 0) + c
                if all(sum(k) <= bound.degree and c <= bound.coeff for k, c in d.items() if c):
                    yield tuple(sorted((k, c) for k, c in d.items() if c))


@pytest.mark.parametrize("data, bound", [
    ({"gens": ["x"], "rels": [["x*x", "x"]], "idempotent": True}, Bound(degree=3, coeff=3)),
    ({**SQUARE_ZERO, "idempotent": True}, Bound(degree=2, coeff=2)),
    (ZERO_PRODUCT, Bound(degree=2, coeff=1)),
], ids=["idem-square", "idem-square-zero", "zero-product"])
def test_congruent_matches_components_of_all_bounded_terms(data, bound):
    pres = presentation_from_json(data)
    terms = list(bounded_terms(pres.nvars, bound))
    edges = {t: set(one_rewrite_apart(t, pres, bound)) for t in terms}
    component = {}
    for start in terms:
        if start in component:
            continue
        component[start] = start
        frontier = [start]
        while frontier:
            for nxt in edges[frontier.pop()]:
                if nxt not in component:
                    component[nxt] = start
                    frontier.append(nxt)
    assert len(set(component.values())) > 1
    idx = CongruenceIndex(pres, bound)
    for i, s in enumerate(terms):
        for t in terms[i:]:
            a = congruent(idx, s, t)
            assert a.is_yes == (component[s] == component[t]), (s, t)
            if a.is_yes:
                assert a.chain[0] == s and a.chain[-1] == t
                assert all(b in edges[c] for c, b in zip(a.chain, a.chain[1:]))


def test_relation_exceeding_bound_refused():
    pres = presentation_from_json(
        {"gens": ["x"], "rels": [["x^9", "x"]], "idempotent": False}
    )
    with pytest.raises(PreconditionError):
        CongruenceIndex(pres, Bound(degree=4, coeff=4, nodes=1000))


def test_counterexample_presentation_frozen():
    pres = counterexample_presentation()
    assert pres.gens == ("x", "y")
    g = pres.gens
    idx = build_index(pres, Bound(degree=6, coeff=6))
    s, t = parse_term("1+x*y", g), parse_term("x+y", g)
    assert congruent(idx, s, t).verdict == "no-at-bound"
    # both generators become invertible witnesses at the first power
    assert localized_images_equal(pres, s, t, "x") == (True, 1)
    assert localized_images_equal(pres, s, t, "y") == (True, 1)


def test_localized_images_unknown_generator():
    pres = counterexample_presentation()
    with pytest.raises(PreconditionError):
        localized_images_equal(pres, one_term(2), one_term(2), "z")
