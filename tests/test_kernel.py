"""Table construction, axiom checking, and homomorphism machinery."""

import json
import operator
import random

import pytest

from conftest import isomorphic
from semispec import corpus, kernel
from semispec.errors import FormatError, InternalCheckError, PreconditionError, ResourceError
from semispec.kernel import (
    FiniteSemiring,
    Homomorphism,
    bits,
    enumerate_homs,
    is_idempotent,
    joins,
    leq,
    make_semiring,
    mask_of,
    powers,
    semiring_from_dict,
    semiring_to_dict,
    units,
    verify_axioms,
)


def test_mask_helpers():
    assert list(bits(0b1011)) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011
    assert list(bits(0)) == []


def test_make_semiring_tabulates_bool():
    B = make_semiring([False, True], lambda a, b: a or b, lambda a, b: a and b,
                      False, True, label="b")
    assert B.size == 2
    assert B.add[1][1] == 1
    assert B.mul[1][0] == 0
    assert verify_axioms(B) == []


def test_make_semiring_rejects_duplicates():
    with pytest.raises(FormatError):
        make_semiring([0, 0], lambda a, b: 0, lambda a, b: 0, 0, 0)


def test_make_semiring_rejects_sum_outside_values():
    with pytest.raises(FormatError, match="value 2 "):
        make_semiring([0, 1], lambda a, b: a + b, lambda a, b: a * b, 0, 1)


def test_make_semiring_rejects_one_outside_values():
    with pytest.raises(FormatError, match="value 5 "):
        make_semiring([0, 1], max, min, 0, 5)


def test_make_semiring_checks_the_axioms():
    # 1 + 1 = 1 but 2 + 2 = 0: add-assoc and distrib fail, so the table is
    # refused before `is_idempotent` or any other reader trusts it
    add = ((0, 1, 2), (1, 1, 2), (2, 2, 0))
    mul = ((0, 0, 0), (0, 1, 2), (0, 2, 2))
    with pytest.raises(FormatError, match=r"^bad: axiom violations: add-assoc\[1,2,2\]; distrib\[2,1,1\]$"):
        make_semiring([0, 1, 2], lambda a, b: add[a][b], lambda a, b: mul[a][b], 0, 1, "bad")


def test_tabulate_matches_make_semiring():
    # a derived table names InternalCheckError; the table is the same
    args = ([0, 1, 2], max, min, 0, 2, "chain", ["0", "1", "2"])
    assert make_semiring(*args, error=InternalCheckError) == make_semiring(*args)


def test_tabulate_rejects_sum_outside_carrier():
    with pytest.raises(InternalCheckError, match="value 2 "):
        make_semiring([0, 1], lambda a, b: a + b, lambda a, b: a * b, 0, 1, "n",
                      error=InternalCheckError)


def test_tabulate_rejects_one_outside_carrier():
    with pytest.raises(InternalCheckError, match="value 5 "):
        make_semiring([0, 1], max, min, 0, 5, "b", error=InternalCheckError)


def test_tabulate_checks_axioms():
    # closed under both operations, but 1 + 0 = 0 breaks the additive
    # identity: the caller's error class, not FormatError
    with pytest.raises(InternalCheckError, match="add-zero"):
        make_semiring([0, 1], min, min, 0, 1, "minmin", error=InternalCheckError)


def test_assert_valid_scans_an_object_once_and_a_replaced_copy_afresh(monkeypatch):
    A = corpus.product_semiring(corpus.get("chain3"), corpus.get("z4"), "chain3*z4")
    scans = []
    scan = kernel.verify_axioms
    monkeypatch.setattr(kernel, "verify_axioms", lambda B: scans.append(B) or scan(B))
    # make_semiring checked A when it built it
    assert kernel.assert_valid(A) is A
    assert scans == []
    # the memo takes no part in equality or hashing, and a copy made by
    # replace starts without the verdict: A splits, so the copy is checked
    # by one scan of each factor, and not again
    copy = A.replace()
    assert copy == A and hash(copy) == hash(A)
    assert kernel.assert_valid(copy) is copy
    assert kernel.assert_valid(copy) is copy
    small, large = sorted(scans, key=lambda B: B.size)
    assert isomorphic(small, corpus.get("chain3")) and isomorphic(large, corpus.get("z4"))
    # a table altered by replace is scanned, not vouched for by its source
    add = [list(row) for row in A.add]
    add[A.one][A.one] = A.zero
    with pytest.raises(FormatError, match="axiom violations"):
        kernel.assert_valid(A.replace(add=tuple(map(tuple, add))))


def test_corpus_tables_satisfy_axioms(corpus_tables):
    for name, A in corpus_tables.items():
        assert verify_axioms(A) == [], name


def test_axiom_codes_detected():
    A = corpus.get("chain3")
    # break commutativity of addition at one spot
    add = [list(r) for r in A.add]
    add[0][1], add[1][0] = A.add[0][1], (A.add[1][0] + 1) % A.size
    broken = FiniteSemiring(A.size, A.zero, A.one, tuple(map(tuple, add)),
                            A.mul, "broken", A.names)
    codes = {v.code for v in verify_axioms(broken)}
    assert codes  # at least one violation, naming the broken law
    assert any("comm" in c or "assoc" in c or "ident" in c or "distr" in c
               or "absorb" in c for c in codes)


# One planted table per law, each breaking that law and no other: zero and
# one are elements 0 and 1, and the pinned witness is the first the scan
# meets, in lexicographic order of the law's variables.
ONE_BROKEN_LAW = {
    "add-assoc": (((0, 1, 2), (1, 0, 0), (2, 0, 0)),
                  ((0, 0, 0), (0, 1, 2), (0, 2, 1)), (1, 1, 2)),
    "add-comm": (((0, 0), (1, 1)), ((0, 0), (0, 1)), (0, 1)),
    "add-zero": (((0, 0), (0, 0)), ((0, 0), (0, 1)), (1,)),
    "mul-assoc": (((0, 1, 2, 3), (1, 1, 1, 1), (2, 1, 2, 2), (3, 1, 2, 3)),
                  ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 3), (0, 3, 3, 0)), (2, 2, 3)),
    "mul-comm": (((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)),
                 ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 0, 2), (0, 3, 0, 3)), (2, 3)),
    "mul-one": (((0, 1), (1, 1)), ((0, 0), (0, 0)), (1,)),
    "distrib": (((0, 1, 2), (1, 0, 2), (2, 2, 2)),
                ((0, 0, 0), (0, 1, 2), (0, 2, 0)), (2, 1, 1)),
    "zero-absorbs": (((0, 1, 2), (1, 0, 2), (2, 2, 2)),
                     ((0, 0, 2), (0, 1, 2), (2, 2, 2)), (2,)),
}


@pytest.mark.parametrize("law", sorted(ONE_BROKEN_LAW))
def test_each_broken_law_is_named_with_its_first_witness(law):
    add, mul, witness = ONE_BROKEN_LAW[law]
    broken = FiniteSemiring(len(add), 0, 1, add, mul, law)
    assert [(v.code, v.witness) for v in verify_axioms(broken)] == [(law, witness)]


def _axioms_by_triple_loop(A):
    """`verify_axioms` as it was before its rows were composed: each law
    in three variables scanned entry by entry, a then b then c."""
    n, add, mul = A.size, A.add, A.mul

    def first(cells, holds):
        return next((w for w in cells if not holds(*w)), None)

    triples = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)]
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    singles = [(a,) for a in range(n)]
    laws = (
        ("add-assoc", first(triples, lambda a, b, c: add[add[a][b]][c] == add[a][add[b][c]])),
        ("add-comm", first(pairs, lambda a, b: add[a][b] == add[b][a])),
        ("add-zero", first(singles, lambda a: add[a][A.zero] == a)),
        ("mul-assoc", first(triples, lambda a, b, c: mul[mul[a][b]][c] == mul[a][mul[b][c]])),
        ("mul-comm", first(pairs, lambda a, b: mul[a][b] == mul[b][a])),
        ("mul-one", first(singles, lambda a: mul[a][A.one] == a)),
        ("distrib", first(triples, lambda a, b, c:
                          mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]])),
        ("zero-absorbs", first(singles, lambda a: mul[a][A.zero] == A.zero)),
    )
    return [(code, w) for code, w in laws if w is not None]


def test_row_composed_scan_matches_the_triple_loop(corpus_tables):
    rng = random.Random(25)
    seen = set()
    planted = [FiniteSemiring(len(add), 0, 1, add, mul, law)
               for law, (add, mul, _w) in ONE_BROKEN_LAW.items()]
    for name, A in corpus_tables.items():
        if A.size > 8:
            continue
        for _ in range(30):
            tables = [[list(row) for row in A.add], [list(row) for row in A.mul]]
            t = rng.choice(tables)
            t[rng.randrange(A.size)][rng.randrange(A.size)] = rng.randrange(A.size)
            add, mul = (tuple(map(tuple, t)) for t in tables)
            planted.append(FiniteSemiring(A.size, A.zero, A.one, add, mul, name))
    for B in planted + list(corpus_tables.values()):
        got = [(v.code, v.witness) for v in verify_axioms(B)]
        assert got == _axioms_by_triple_loop(B), B.label
        seen.update(code for code, _w in got)
    assert seen == set(ONE_BROKEN_LAW)


def test_a_one_element_table_is_scanned_by_rows():
    # an itemgetter of one index returns the entry, not a 1-tuple
    assert kernel.row_picker([0])((7,)) == (7,)
    assert kernel.row_picker([1, 0])((7, 8)) == (8, 7)
    one = FiniteSemiring(1, 0, 0, ((0,),), ((0,),), "one")
    assert verify_axioms(one) == [] == _axioms_by_triple_loop(one)
    assert verify_axioms(corpus.get("trivial1")) == []


def test_leq_matches_definition(idempotent_tables):
    for name, A in idempotent_tables.items():
        for a in A.elements:
            for b in A.elements:
                assert leq(A, a, b) == (A.add[a][b] == b), name


def test_units_oracle(corpus_tables):
    for name, A in corpus_tables.items():
        brute = 0
        for a in A.elements:
            if any(A.mul[a][b] == A.one for b in A.elements):
                brute |= 1 << a
        assert units(A) == brute, name


FROZEN_UNITS = {
    "bool2": 2, "boolnil": 2, "boolpair": 8, "boolx": 2, "boolxy": 2,
    "chain3": 4, "chain3xbool": 32, "chain4": 8, "f2": 2, "satnat4": 2,
    "satnat8": 2, "trivial1": 1, "trop5": 2, "z4": 10,
}


def test_units_frozen(corpus_tables):
    for name, want in FROZEN_UNITS.items():
        assert units(corpus_tables[name]) == want, name


def test_idempotent_classification(corpus_tables):
    nonidem = {"f2", "z4", "satnat4", "satnat8"}
    for name, A in corpus_tables.items():
        assert is_idempotent(A) == (name not in nonidem), name


def test_dict_roundtrip(corpus_tables):
    for name, A in corpus_tables.items():
        d = semiring_to_dict(A)
        B = semiring_from_dict(json.loads(json.dumps(d)))
        assert B.size == A.size and B.add == A.add and B.mul == A.mul, name


def test_from_dict_rejects_garbage():
    with pytest.raises(FormatError):
        semiring_from_dict({"size": 2})
    with pytest.raises(FormatError):
        semiring_from_dict({
            "size": 2, "zero": 0, "one": 1,
            "add": [[0, 1], [1, 9]], "mul": [[0, 0], [0, 1]],
        })


def _bool2_with(**changes):
    d = semiring_to_dict(corpus.get("bool2"))
    d.update(changes)
    return d


# JSON true and false are ints to Python: each index and each name must
# refuse them, not read them as 1 and 0
BOOL_TABLES = {
    "size": {"size": True, "zero": 0, "one": 0, "add": [[0]], "mul": [[0]], "label": "t"},
    "zero": _bool2_with(zero=False),
    "one": _bool2_with(one=True),
    "add": _bool2_with(add=[[0, 1], [True, 1]]),
    "mul": _bool2_with(mul=[[0, 0], [0, True]]),
    "names": _bool2_with(names=["0", True]),
}


@pytest.mark.parametrize("key", sorted(BOOL_TABLES))
def test_from_dict_rejects_booleans(key):
    body = json.dumps(BOOL_TABLES[key])
    # the same table with 1 and 0 in place of true and false loads
    semiring_from_dict(json.loads(body.replace("true", "1").replace("false", "0")))
    with pytest.raises(FormatError):
        semiring_from_dict(json.loads(body))


def identity(A):
    return Homomorphism(A, A, tuple(A.elements))


def test_identity_hom_and_violation():
    A = corpus.get("chain3")
    assert identity(A).violation() is None
    # swapping two non-interchangeable elements breaks something
    swapped = Homomorphism(A, A, (0, 2, 1))
    assert swapped.violation() is not None


def test_violation_bounds_the_sums_of_a_valuation_from_above():
    # boolx -> bool2 sending only 1 to 1 keeps products, and f(1 + x) = 0
    # lies below f(1) + f(x) = 1: a valuation that is no hom
    A, B = corpus.get("boolx"), corpus.get("bool2")
    assert Homomorphism(A, B, (0, 1, 0, 0), True).violation() is None
    assert Homomorphism(A, B, (0, 1, 0, 0)).violation() == "add@(1,2)"
    with pytest.raises(PreconditionError, match="image list does not match the domain"):
        Homomorphism(A, B, (0, 1, 0)).violation()


def test_hom_compose_and_kernel():
    A = corpus.get("boolx")
    B = corpus.get("bool2")
    # collapse x to 1: the unique map sending only 0 to 0
    h = Homomorphism(A, B, (0, 1, 1, 1))
    assert h.violation() is None
    assert [a for a in A.elements if h(a) == B.zero] == [A.zero]
    assert not h.is_bijective()
    assert identity(A).is_bijective()


def brute_hom_count(A: FiniteSemiring, B: FiniteSemiring) -> int:
    n = 0
    for code in range(B.size ** A.size):
        img, c = [], code
        for _ in range(A.size):
            img.append(c % B.size)
            c //= B.size
        if Homomorphism(A, B, tuple(img)).violation() is None:
            n += 1
    return n


@pytest.mark.parametrize("src,dst", [
    ("bool2", "chain3"), ("chain3", "bool2"), ("boolx", "bool2"),
    ("chain3", "chain4"), ("bool2", "bool2"),
])
def test_enumerate_homs_vs_brute(src, dst):
    A, B = corpus.get(src), corpus.get(dst)
    got = enumerate_homs(A, B)
    assert len(got) == brute_hom_count(A, B)
    for h in got:
        assert h.violation() is None


def test_enumerate_homs_rechecks_what_the_search_returns(monkeypatch):
    # planted defect: the search hands back the constant map to 1
    monkeypatch.setattr(kernel, "_maps", lambda A, B, *rest: [(B.one,) * A.size])
    with pytest.raises(InternalCheckError, match="produced a map that breaks its laws"):
        enumerate_homs(corpus.get("bool2"), corpus.get("bool2"))


def test_isomorphic_detects_relabeling_and_refuses_collapsing_homs():
    A = corpus.get("chain4")
    perm = (3, 2, 1, 0)
    inv = tuple(perm.index(i) for i in range(4))
    B = FiniteSemiring(
        4, perm[A.zero], perm[A.one],
        tuple(tuple(perm[A.add[inv[i]][inv[j]]] for j in range(4)) for i in range(4)),
        tuple(tuple(perm[A.mul[inv[i]][inv[j]]] for j in range(4)) for i in range(4)),
        "relabel", None)
    assert isomorphic(A, B)
    assert not isomorphic(A, corpus.get("boolx"))  # same size, different law
    # 0 and 1 generate satnat4, so each hom out of it is fixed before any
    # choice; into these four every one collapses, and none is bijective
    for name in ("boolnil", "boolpair", "boolx", "chain4"):
        assert not isomorphic(corpus.get("satnat4"), corpus.get(name)), name


def test_joins_are_all_unions():
    gens = [0b0011, 0b0110, 0b1000, 0b0010]
    want = set()
    for code in range(1 << len(gens)):
        u = 0
        for i, g in enumerate(gens):
            if (code >> i) & 1:
                u |= g
        want.add(u)
    assert joins(gens, operator.or_, 0) == want
    with pytest.raises(ResourceError):
        joins(gens, operator.or_, 0, cap=len(want) - 1, label="t")


def test_powers_stop_at_the_first_repeat():
    for name in corpus.corpus_names():
        A = corpus.get(name)
        for a in A.elements:
            ps = powers(A, a)
            assert len(set(ps)) == len(ps), name
            assert ps == [A.power(a, k) for k in range(len(ps))], name
            assert A.mul[ps[-1]][a] in ps, name
