"""Finitely presented quotients and congruence by the completed rewriting
system."""

import itertools
import random

import pytest

from conftest import isomorphic
from semispec import accept, corpus, presented
from semispec.errors import FormatError, InternalCheckError, PreconditionError, ResourceError
from semispec.kernel import semiring_from_dict, verify_axioms
from semispec.presented import (
    Bound,
    Presentation,
    _Closure,
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
    closure = _Closure(pres, Bound(degree=3, coeff=3))
    g = pres.gens
    a = closure.congruent(parse_term("x", g), parse_term("x^3", g))
    assert a.is_yes
    assert a.chain is not None and len(a.chain) >= 2
    # chain replay is verified internally; endpoints must match
    assert a.chain[0] == parse_term("x", g)
    assert a.chain[-1] == parse_term("x^3", g)


def test_congruence_no_at_bound():
    pres = idem_square_presentation()
    closure = _Closure(pres, Bound(degree=3, coeff=3))
    g = pres.gens
    a = closure.congruent(parse_term("x", g), parse_term("1", g))
    assert a.verdict == "no-at-bound"
    assert not a.is_yes


def test_idempotent_flag_gives_add_collapse():
    pres = idem_square_presentation()
    closure = _Closure(pres, Bound(degree=3, coeff=3))
    g = pres.gens
    assert closure.congruent(parse_term("1+1", g), parse_term("1", g)).is_yes
    assert closure.congruent(parse_term("x+x", g), parse_term("x", g)).is_yes


def test_tampered_move_fails_the_replay(monkeypatch):
    pres = idem_square_presentation()
    closure = _Closure(pres, Bound(degree=3, coeff=3))
    g = pres.gens
    x, x2, x3 = (parse_term(text, g) for text in ("x", "x^2", "x^3"))
    assert closure.congruent(x, x3).is_yes
    reduce = _Closure._reduce

    def altering_first_move(alter):
        def altered(self, t):
            terms, moves, blocked = reduce(self, t)
            if t == x3:
                assert terms[:2] == [x3, x2] and moves[0] == ((x2, x), (1,))
                moves[0] = alter(*moves[0])
            return terms, moves, blocked
        return altered

    # x^3 -> x^2 -> x; the rule x -> x^2 does not rewrite x^3 to x^2,
    # x^3 -> x^2 does, but it is none of the closure's rules, and the
    # closure's own rule x^2 -> x at multiplier 1 gives x, not x^2
    for alter in (
        lambda rule, mult: (rule[::-1], mult),
        lambda rule, mult: ((x3, x2), (0,)),
        lambda rule, mult: (rule, (0,)),
    ):
        closure = _Closure(pres, Bound(degree=3, coeff=3))
        monkeypatch.setattr(_Closure, "_reduce", altering_first_move(alter))
        with pytest.raises(InternalCheckError, match="illegal step"):
            closure.congruent(x, x3)
        monkeypatch.undo()


def test_finite_quotient_recovers_known_table():
    pres = idem_square_presentation()
    table, cls = finite_quotient(pres, degree=2, coeff=2)
    assert table.size == 4
    # the quotient of one idempotent square generator is the four-element
    # table with a single multiplicative absorber below 1+x
    assert isomorphic(table, corpus.get("boolx"))
    g = pres.gens
    assert cls(parse_term("x", g)) == cls(parse_term("x^2", g))
    assert cls(parse_term("1", g)) != cls(parse_term("x", g))


def test_finite_quotient_budget_refusal():
    # the closure examines 45 rewrites here; a budget of 20 refuses
    pres = idem_square_presentation()
    with pytest.raises(ResourceError, match="node budget of 20"):
        _Closure(pres, Bound(degree=8, coeff=8, nodes=20)).table()
    assert finite_quotient(pres, degree=4, coeff=4)[0].size == 4


@pytest.mark.parametrize("gen", ["2", None, 1, "x^2", "x y", "", "_x"])
def test_a_generator_that_is_no_variable_name_is_refused(gen):
    # "2" would be read as the number 2, so 2*2 = 2 would say 4 = 2; null
    # would become the generator "None"
    with pytest.raises(FormatError, match="not a variable name"):
        presentation_from_json({"gens": ["x", gen], "rels": [["2*2", "2"]], "idempotent": True})
    assert presentation_from_json({"gens": ["x", "y1"], "rels": []}).gens == ("x", "y1")


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
    assert table.mul[cls(parse_term("x", g))][cls(parse_term("y", g))] == table.zero

    pres = presentation_from_json({**SQUARE_ZERO, "idempotent": True})
    table, cls = finite_quotient(pres, degree=2, coeff=2)
    assert verify_axioms(table) == []
    assert cls(parse_term("x^2", pres.gens)) == table.zero
    assert isomorphic(table, corpus.get("boolnil"))


def test_relation_to_zero_rewrites_both_ways():
    pres = presentation_from_json(ZERO_PRODUCT)
    closure = _Closure(pres, Bound(degree=4, coeff=2))
    g = pres.gens
    # x*y -> 0 at multiplier x removes x^2*y from x + x^2*y; the chain
    # from x adds it back
    a = closure.congruent(parse_term("x", g), parse_term("x+x^2*y", g))
    assert a.is_yes and a.chain == [parse_term("x", g), parse_term("x+x^2*y", g)]
    assert closure.congruent(parse_term("x*y^2", g), parse_term("0", g)).is_yes
    assert not closure.congruent(parse_term("x", g), parse_term("y", g)).is_yes
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


def one_rewrite_apart(t, rels, nvars, bound):
    """Every bounded t - m*src + m*dst, for each side src -> dst of a pair
    in rels and every monomial m, written without the closure's rewriting."""
    monos = [
        m for m in itertools.product(range(bound.degree + 1), repeat=nvars)
        if sum(m) <= bound.degree
    ]
    for l, r in rels:
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


# ZERO_PRODUCT's completion skips the critical term x^2*y^2, whose
# rewrites leave the bound, at (2, 1); at (4, 2) it skips none and decides
# every pair, so it runs there
@pytest.mark.parametrize("data, bound, closure_bound", [
    ({"gens": ["x"], "rels": [["x*x", "x"]], "idempotent": True},
     Bound(degree=3, coeff=3), Bound(degree=3, coeff=3)),
    ({**SQUARE_ZERO, "idempotent": True}, Bound(degree=2, coeff=2), Bound(degree=2, coeff=2)),
    (ZERO_PRODUCT, Bound(degree=2, coeff=1), Bound(degree=4, coeff=2)),
], ids=["idem-square", "idem-square-zero", "zero-product"])
def test_congruent_matches_components_of_all_bounded_terms(data, bound, closure_bound):
    pres = presentation_from_json(data)
    terms = list(bounded_terms(pres.nvars, bound))
    edges = {t: set(one_rewrite_apart(t, pres.all_rels(), pres.nvars, bound)) for t in terms}
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
    closure = _Closure(pres, closure_bound)
    by_rules = {}  # each chain step is one rewrite by the closure's rules
    verdicts = set()
    for i, s in enumerate(terms):
        for t in terms[i:]:
            try:
                a = closure.congruent(s, t)
            except ResourceError:
                continue
            verdicts.add(a.is_yes)
            assert a.is_yes == (component[s] == component[t]), (s, t)
            if a.is_yes:
                assert a.chain[0] == s and a.chain[-1] == t
                for c, b in zip(a.chain, a.chain[1:]):
                    if c not in by_rules:
                        by_rules[c] = set(
                            one_rewrite_apart(c, closure.rules, pres.nvars, closure_bound)
                        )
                    assert b in by_rules[c], (c, b)
    assert verdicts == {True, False}


def test_counterexample_presentation_frozen():
    pres = counterexample_presentation()
    assert pres.gens == ("x", "y")
    g = pres.gens
    closure = _Closure(pres, Bound(degree=6, coeff=6))
    s, t = parse_term("1+x*y", g), parse_term("x+y", g)
    assert closure.congruent(s, t).verdict == "no-at-bound"
    # both generators become invertible witnesses at the first power
    assert localized_images_equal(closure, s, t, "x") == (True, 1)
    assert localized_images_equal(closure, s, t, "y") == (True, 1)


def test_localized_images_unknown_generator():
    closure = _Closure(counterexample_presentation(), Bound())
    with pytest.raises(PreconditionError):
        localized_images_equal(closure, one_term(2), one_term(2), "z")


def test_a_completion_cut_by_the_bound_proves_nothing():
    # at (2, 2) completion skips the critical term x^2*y^2, whose rewrites
    # x*y^2 and x^2*y leave degree 2, so the distinct normal forms of
    # 1 + x*y and x + y are no proof; at (3, 3) both rewrites fit and reach
    # x*y, so the term outside the bound is joined and no cut
    pres = counterexample_presentation()
    g = pres.gens
    s, t = parse_term("1+x*y", g), parse_term("x+y", g)
    with pytest.raises(ResourceError, match=r"skipped the critical term x\^2\*y\^2"):
        _Closure(pres, Bound(degree=2, coeff=2)).congruent(s, t)
    for n in (3, 4):
        assert _Closure(pres, Bound(degree=n, coeff=n)).congruent(s, t).verdict == "no-at-bound"


def test_a_rewrite_outside_the_bound_proves_nothing():
    # x^5 -> x^4 leaves degree 3, so x^5 is a normal form there only
    # because of the bound; at degree 5 it rewrites down to x
    pres = idem_square_presentation()
    g = pres.gens
    x, x5 = parse_term("x", g), parse_term("x^5", g)
    with pytest.raises(ResourceError, match=r"x\^5 only outside degree 3"):
        _Closure(pres, Bound(degree=3, coeff=3)).congruent(x, x5)
    assert _Closure(pres, Bound(degree=5, coeff=5)).congruent(x, x5).is_yes


@pytest.mark.parametrize("data, coeff", [
    ({"gens": ["x"], "rels": [["x*x", "x"]], "idempotent": True}, 2),
    ({**SQUARE_ZERO, "idempotent": True}, 2),
    ({**ZERO_PRODUCT, "idempotent": True}, 1),
], ids=["idem-square", "idem-square-zero", "idem-zero-product"])
def test_congruence_index_never_joins_two_quotient_classes(data, coeff):
    # pairs of terms up to degree 2 and the given coefficient, decided at
    # (4, 2), which holds 1 + 1 = 1 and every critical term
    pres = presentation_from_json(data)
    _table, cls = finite_quotient(pres, degree=2, coeff=2)
    closure = _Closure(pres, Bound(degree=4, coeff=2))
    terms = list(bounded_terms(pres.nvars, Bound(degree=2, coeff=coeff)))
    verdicts = set()
    for i, s in enumerate(terms):
        for t in terms[i:]:
            try:
                yes = closure.congruent(s, t).is_yes
            except ResourceError:
                continue
            verdicts.add((yes, cls(s) == cls(t)))
            assert yes == (cls(s) == cls(t)), (s, t)
    assert verdicts == {(True, True), (False, False)}


# The tables the closure replaced built from the presentations in tests/ and
# the README, frozen; each is built again, at its old bounds and at larger
# ones that refused before.
BOOLX_LIKE = {"label": "", "size": 4, "zero": 0, "one": 2,
              "add": [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]],
              "mul": [[0, 0, 0, 0], [0, 1, 1, 1], [0, 1, 2, 3], [0, 1, 3, 3]]}
ZERO_PRODUCT_8 = {"label": "", "size": 8, "zero": 0, "one": 4,
                  "add": [[0, 1, 2, 3, 4, 5, 6, 7], [1, 1, 3, 3, 5, 5, 7, 7],
                          [2, 3, 2, 3, 6, 7, 6, 7], [3, 3, 3, 3, 7, 7, 7, 7],
                          [4, 5, 6, 7, 4, 5, 6, 7], [5, 5, 7, 7, 5, 5, 7, 7],
                          [6, 7, 6, 7, 6, 7, 6, 7], [7, 7, 7, 7, 7, 7, 7, 7]],
                  "mul": [[0, 0, 0, 0, 0, 0, 0, 0], [0, 1, 0, 1, 1, 1, 1, 1],
                          [0, 0, 2, 2, 2, 2, 2, 2], [0, 1, 2, 3, 3, 3, 3, 3],
                          [0, 1, 2, 3, 4, 5, 6, 7], [0, 1, 2, 3, 5, 5, 7, 7],
                          [0, 1, 2, 3, 6, 7, 6, 7], [0, 1, 2, 3, 7, 7, 7, 7]]}
BOOLNIL_LIKE = {"label": "", "size": 4, "zero": 0, "one": 2,
                "add": [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]],
                "mul": [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 3], [0, 1, 3, 3]]}


FROZEN_QUOTIENTS = [
    ({"gens": ["x"], "rels": [["x*x", "x"]], "idempotent": True}, 2, 2, BOOLX_LIKE),
    ({"gens": ["x"], "rels": [["x*x", "x"]], "idempotent": True}, 3, 3, BOOLX_LIKE),
    ({**ZERO_PRODUCT, "idempotent": True}, 1, 1, ZERO_PRODUCT_8),
    ({**ZERO_PRODUCT, "idempotent": True}, 2, 2, ZERO_PRODUCT_8),
    ({**SQUARE_ZERO, "idempotent": True}, 2, 2, BOOLNIL_LIKE),
]


@pytest.mark.parametrize("data, degree, coeff, frozen", FROZEN_QUOTIENTS,
                         ids=["idem-square", "idem-square-3", "idem-zero-product",
                              "idem-zero-product-2", "idem-square-zero"])
def test_quotients_match_the_enumerated_tables(data, degree, coeff, frozen):
    table, _cls = finite_quotient(presentation_from_json(data), degree, coeff)
    assert isomorphic(table, semiring_from_dict(frozen))


def test_a_relation_outside_the_rewriting_bound_is_no_proof_of_infinity():
    # at degree 2 the closure rewrites within degree 4, so x^5 = x applies
    # only to products that reach degree 5 or more; the quotient still
    # closes, on the table that degree 3 gives
    x5 = presentation_from_json({"gens": ["x"], "rels": [["x^5", "x"]], "idempotent": True})
    table, _cls = finite_quotient(x5, degree=2, coeff=2)
    assert table.size == 32
    assert isomorphic(table, finite_quotient(x5, degree=3, coeff=2)[0])
    # x^9 = x^2 never applies within degree 4, and x^5 = x^4 * x is a
    # normal form outside it: a refusal, not a proof of infinity
    x9 = presentation_from_json({"gens": ["x"], "rels": [["x^9", "x^2"]], "idempotent": True})
    with pytest.raises(ResourceError, match="lies outside degree 4"):
        finite_quotient(x9, degree=2, coeff=1)


@pytest.mark.parametrize("data", [
    {"gens": ["x"], "rels": [["2*x", "0"]], "idempotent": True},
    {"gens": ["x"], "rels": [["x*x", "x"], ["2*x", "0"]], "idempotent": True},
], ids=["double-zero", "idempotent-square"])
def test_critical_pairs_join_normal_forms_that_disagree(data):
    # 2x rewrites to 0 by the relation and to x by 1 + 1 = 1: the critical
    # pair of the two gives x = 0, and the quotient is bool2
    pres = presentation_from_json(data)
    table, cls = finite_quotient(pres, degree=2, coeff=2)
    assert verify_axioms(table) == []
    assert isomorphic(table, corpus.get("bool2"))
    assert cls(parse_term("x", pres.gens)) == table.zero


def test_critical_pairs_of_one_side_collapse_the_quotient():
    # 1 + 1 rewrites to 0 by the relation and to 1 by 1 + 1 = 1, so 1 = 0
    # and one element remains
    pres = presentation_from_json({"gens": ["x"], "rels": [["1+1", "0"]], "idempotent": True})
    table, cls = finite_quotient(pres, degree=2, coeff=2)
    assert table.size == 1
    assert cls(parse_term("x", pres.gens)) == cls(one_term(1)) == table.zero


# 2x = 0 and x^2 = 2 give 4 = 2x^2 = 0; greedy rewriting never finds it,
# as 2x^2 meets x^2 -> 2 only after 2x -> 0 has removed it
FOUR_IS_ZERO = {"gens": ["x"], "rels": [["0", "2*x"], ["2", "x*x"]]}


def test_critical_pairs_derive_what_greedy_rewriting_misses():
    pres = presentation_from_json(FOUR_IS_ZERO)
    table, cls = finite_quotient(pres, degree=2, coeff=2)
    assert verify_axioms(table) == [] and table.size == 8
    four = parse_term("4", pres.gens)
    assert cls(four) == table.zero
    closure = _Closure(pres, Bound(degree=4, coeff=24))
    assert (four, ()) in closure.rules


@pytest.mark.parametrize("data, message", [
    (FOUR_IS_ZERO, "could not close within the bounds"),
    ({"gens": ["x"], "rels": [["x*x", "x"], ["2*x", "0"]], "idempotent": True},
     r"no semiring \(.*distrib"),
], ids=["four-is-zero", "idem-square-double-zero"])
def test_a_closure_without_critical_pairs_is_refused_not_called_infinite(
    monkeypatch, data, message
):
    # greedy normal forms of 4-is-zero run 0, 1, 2, 3, ... out of the
    # bounds; those of the other close on a table that breaks
    # distributivity. Neither has an infinite model, so each refusal is
    # exit 8, not exit 5
    monkeypatch.setattr(_Closure, "_complete", lambda self: None)
    with pytest.raises(ResourceError, match=message):
        finite_quotient(presentation_from_json(data), degree=2, coeff=2)


@pytest.mark.parametrize("rels", [
    [["x", "1"], ["x^2", "x"], ["1+1", "1"]],
    [["x^2", "x"], ["1+1", "1"], ["x", "1"]],
], ids=["first", "last"])
def test_a_table_that_breaks_a_relation_is_refused(monkeypatch, rels):
    # a closure that never rewrites by x = 1 ends on the four-element
    # boolx, in which x = 1 fails; the relation check refuses it wherever
    # x = 1 stands
    pres = presentation_from_json({"gens": ["x"], "rels": rels})
    skipped = pres.rels[rels.index(["x", "1"])]
    orient = _Closure._orient

    def orient_skipping(self, rel):
        if rel != skipped:
            orient(self, rel)

    monkeypatch.setattr(_Closure, "_orient", orient_skipping)
    with pytest.raises(ResourceError, match="breaks a relation"):
        finite_quotient(pres, degree=2, coeff=2)


def _offering_first(monkeypatch, term, move):
    """Make the closure offer `move` first whenever it rewrites `term`."""
    moves = _Closure._moves

    def offering(self, t):
        if t == term:
            yield move
        yield from moves(self, t)

    monkeypatch.setattr(_Closure, "_moves", offering)


def test_a_merge_without_a_legal_move_is_never_taken(monkeypatch):
    # 1 + 1 -> 1 at multiplier 1 would have to take 1 + x to x; the
    # rewrite refuses the move, as 1 + x holds no 1 + 1, and 1 + x stays
    # apart
    pres = idem_square_presentation()
    g = pres.gens
    two_to_one = (parse_term("2", g), one_term(1), (0,))
    _offering_first(monkeypatch, parse_term("1+x", g), two_to_one)
    table, cls = finite_quotient(pres, degree=2, coeff=2)
    assert isomorphic(table, corpus.get("boolx"))
    assert cls(parse_term("1+x", g)) != cls(parse_term("x", g))


def test_a_step_that_raises_the_term_order_fails_the_check(monkeypatch):
    # x -> x^2 is a legal move, but it raises the order
    pres = idem_square_presentation()
    g = pres.gens
    x_to_x2 = (parse_term("x", g), parse_term("x^2", g), (0,))
    _offering_first(monkeypatch, parse_term("1+x", g), x_to_x2)
    with pytest.raises(InternalCheckError, match="term order"):
        finite_quotient(pres, degree=2, coeff=2)


def test_zero_product_without_idempotent_addition_is_refused_at_once():
    # the naturals embed (x = y = 0 satisfies every relation)
    with pytest.raises(PreconditionError, match="quotient is infinite: x = 0, y = 0"):
        finite_quotient(presentation_from_json(ZERO_PRODUCT), degree=2, coeff=2)


@pytest.mark.parametrize("data, found", [
    (ZERO_PRODUCT, "x = 0, y = 0 in the naturals"),
    (SQUARE_ZERO, "x = 0 in the naturals"),
    ({"gens": ["x"], "rels": [["1+x", "x"]]}, "x = inf in the naturals"),
    ({"gens": ["x"], "rels": [], "idempotent": True}, "x = -1 in the max-plus"),
    ({"gens": [], "rels": []}, "no generators in the naturals"),
    ({"gens": ["x"], "rels": [["x*x", "x"]], "idempotent": True}, None),
    ({**ZERO_PRODUCT, "idempotent": True}, None),
    (FOUR_IS_ZERO, None),
], ids=["zero-product", "square-zero", "top", "max-plus", "naturals", "idem-square",
        "idem-zero-product", "four-is-zero"])
def test_infinite_models_prove_infinite_quotients(data, found):
    pres = presentation_from_json(data)
    model = presented.infinite_model(pres)
    if found is None:
        assert model is None
    else:
        assert model.startswith(found)
        with pytest.raises(PreconditionError, match="quotient is infinite"):
            finite_quotient(pres, degree=2, coeff=2)


def _naive_value(zero, one, plus, times, images, t):
    # the definition: e products for x^e, c sums for c*m
    acc = zero
    for m, c in t:
        v = one
        for g, e in zip(images, m):
            for _ in range(e):
                v = times(v, g)
        for _ in range(c):
            acc = plus(acc, v)
    return acc


def test_value_by_square_and_multiply_matches_repeated_operations(corpus_tables):
    rng = random.Random(21)

    def random_term(nvars):
        monos = {
            tuple(rng.randrange(20) for _ in range(nvars)): rng.randrange(1, 20)
            for _ in range(rng.randrange(1, 4))
        }
        return tuple(sorted(monos.items()))

    models = [
        (ops, candidates) for _name, ops, candidates, _inf in presented._INFINITE_MODELS
    ]
    for A in corpus_tables.values():
        if A.size <= 8:
            ops = (A.zero, A.one, lambda a, b, A=A: A.add[a][b],
                   lambda a, b, A=A: A.mul[a][b])
            models.append((ops, A.elements))
    assert len(models) > 2
    for ops, candidates in models:
        for _ in range(40):
            nvars = rng.randrange(1, 4)
            images = [rng.choice(candidates) for _ in range(nvars)]
            t = random_term(nvars)
            want = _naive_value(*ops, images, t)
            assert presented._value(*ops, images, t) == want, (images, t)


def test_a_quotient_over_the_table_cap_is_refused():
    # subsets of {1, x, y, z, xy, xz, yz}: 128 elements, all within (2, 1)
    pres = presentation_from_json({
        "gens": ["x", "y", "z"],
        "rels": [["x^2", "x"], ["y^2", "y"], ["z^2", "z"], ["x*y*z", "0"]],
        "idempotent": True,
    })
    with pytest.raises(ResourceError, match="more than 64 representatives"):
        finite_quotient(pres, degree=2, coeff=1)


def test_criterion_6_builds_one_index_per_bound(monkeypatch):
    built = []
    complete = _Closure._complete

    def counting(self):
        built.append(self.bound)
        complete(self)

    monkeypatch.setattr(_Closure, "_complete", counting)
    assert accept.criterion_6().passed
    assert built == [Bound(degree=6, coeff=6), Bound(degree=8, coeff=8)]


def test_criterion_6_pair_is_separated_by_a_finite_model():
    pres = counterexample_presentation()
    g = pres.gens
    s, t = parse_term("1+x*y", g), parse_term("x+y", g)
    A = corpus.get("satnat4")
    assert presented.is_model(A, (3, 0), pres)
    assert presented.evaluate(A, (3, 0), s) != presented.evaluate(A, (3, 0), t)
    # bool2 sends x = y = 0 to a pair it separates, but 1 + x = x + y fails
    assert not presented.is_model(corpus.get("bool2"), (0, 0), pres)
    A, images = presented.separating_model(pres, s, t, corpus.members(max_size=8))
    assert presented.is_model(A, images, pres)
    assert presented.separating_model(pres, s, s, corpus.members(max_size=8)) is None
