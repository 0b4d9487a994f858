"""Every commutative semiring of order at most 4, one per isomorphism
class, as inputs nobody chose: the counts, the members that split, and the
split and direct routes to ideals, primes and the axiom verdict on each.

The tables are enumerated on {0, ..., n-1} with 0 the zero and 1 the one
(they differ once n > 1, as a = a 1 = a 0 = 0 otherwise): every
commutative associative + with unit 0, every commutative associative x
with unit 1 and 0 absorbing, and the pairs that distribute. A class is
kept by its least relabelling over the permutations of {2, ..., n-1}.
"""

from itertools import permutations, product

import pytest

from conftest import axiom_verdicts, direct_routes, isomorphic, public_routes
from semispec.kernel import FiniteSemiring, assert_valid, split


def monoids(n: int, unit: int, absorbing: bool):
    """Commutative associative tables on range(n) with the given unit, and
    with 0 absorbing when asked."""
    els = range(n)
    free = [
        (a, b) for a in els for b in els
        if a <= b and unit not in (a, b) and not (absorbing and 0 in (a, b))
    ]
    for values in product(els, repeat=len(free)):
        t = [[0] * n for _ in els]
        for a in els:
            t[unit][a] = t[a][unit] = a
        for (a, b), v in zip(free, values):
            t[a][b] = t[b][a] = v
        if all(t[t[a][b]][c] == t[a][t[b][c]] for a in els for b in els for c in els):
            yield tuple(map(tuple, t))


def relabel(t, p):
    """The table t with each element a renamed p[a]."""
    n = len(t)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[p[a]][p[b]] = p[t[a][b]]
    return tuple(map(tuple, out))


def census(n: int):
    """Per isomorphism class of order n: its least (add, mul) pair and the
    number of labelled tables in it."""
    if n == 1:
        return {(((0,),), ((0,),)): 1}
    els = range(n)
    relabellings = [(0, 1) + p for p in permutations(range(2, n))]
    adds, muls = list(monoids(n, 0, False)), list(monoids(n, 1, True))
    classes = {}
    for add, mul in product(adds, muls):
        if all(
            mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]] for a in els for b in els for c in els
        ):
            orbit = {(relabel(add, p), relabel(mul, p)) for p in relabellings}
            classes[min(orbit)] = len(orbit)
    return classes


CENSUS = {n: census(n) for n in range(1, 5)}
MEMBERS = [
    assert_valid(FiniteSemiring(n, 0, 1 % n, add, mul, f"c{n}.{i}"))
    for n, classes in CENSUS.items()
    for i, (add, mul) in enumerate(sorted(classes))
]


def test_the_counts_up_to_isomorphism_and_labelled():
    assert [len(CENSUS[n]) for n in range(1, 5)] == [1, 2, 6, 36]
    # each class holds as many labelled tables as it has relabellings, and
    # the orbit sizes sum to the labelled count
    assert [sum(CENSUS[n].values()) for n in range(1, 5)] == [1, 2, 6, 69]
    assert len(MEMBERS) == 45


def test_exactly_the_three_products_of_order_4_split():
    order2 = [A for A in MEMBERS if A.size == 2]
    splits = {A.label: split(A) for A in MEMBERS if split(A) is not None}
    assert len(splits) == 3 and all(label.startswith("c4.") for label in splits)
    pairs = set()
    for s in splits.values():
        pairs.add(tuple(sorted(
            next(i for i, B in enumerate(order2) if isomorphic(F, B)) for F in s.factors
        )))
    assert pairs == {(0, 0), (0, 1), (1, 1)}


@pytest.mark.parametrize("A", MEMBERS, ids=lambda A: A.label)
def test_split_and_direct_routes_agree_on_every_member(A):
    assert public_routes(A) == direct_routes(A)
    assert axiom_verdicts(A) == (None, None)
