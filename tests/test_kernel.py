"""Table construction, axiom checking, and homomorphism machinery."""

import json
import operator

import pytest

from semispec import corpus
from semispec.errors import FormatError, InternalCheckError, ResourceError
from semispec.kernel import (
    FiniteSemiring,
    Homomorphism,
    bits,
    enumerate_homs,
    find_iso,
    generating_sequence,
    is_idempotent,
    joins,
    leq,
    make_semiring,
    mask_of,
    popcount,
    powers,
    semiring_from_dict,
    semiring_to_dict,
    tabulate,
    units,
    verify_axioms,
)


def test_mask_helpers():
    assert list(bits(0b1011)) == [0, 1, 3]
    assert mask_of([0, 1, 3]) == 0b1011
    assert popcount(0b1011) == 3
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


def test_tabulate_matches_make_semiring():
    args = ([0, 1, 2], max, min, 0, 2, "chain", ["0", "1", "2"])
    assert tabulate(*args) == make_semiring(*args)


def test_tabulate_rejects_sum_outside_carrier():
    with pytest.raises(InternalCheckError, match="value 2 "):
        tabulate([0, 1], lambda a, b: a + b, lambda a, b: a * b, 0, 1, "n")


def test_tabulate_rejects_one_outside_carrier():
    with pytest.raises(InternalCheckError, match="value 5 "):
        tabulate([0, 1], max, min, 0, 5, "b")


def test_tabulate_checks_axioms():
    # closed under both operations, but 1 + 0 = 0 breaks the additive identity
    with pytest.raises(FormatError, match="add-zero"):
        tabulate([0, 1], min, min, 0, 1, "minmin")


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


def identity(A):
    return Homomorphism(A, A, tuple(A.elements))


def test_identity_hom_and_violation():
    A = corpus.get("chain3")
    assert identity(A).violation() is None
    # swapping two non-interchangeable elements breaks something
    swapped = Homomorphism(A, A, (0, 2, 1))
    assert swapped.violation() is not None


def test_hom_compose_and_kernel():
    A = corpus.get("boolx")
    B = corpus.get("bool2")
    # collapse x to 1: the unique map sending only 0 to 0
    h = Homomorphism(A, B, (0, 1, 1, 1))
    assert h.violation() is None
    assert h.kernel_mask() == 1
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


def test_find_iso_detects_relabeling():
    A = corpus.get("chain4")
    perm = (3, 2, 1, 0)
    inv = tuple(perm.index(i) for i in range(4))
    B = FiniteSemiring(
        4, perm[A.zero], perm[A.one],
        tuple(tuple(perm[A.add[inv[i]][inv[j]]] for j in range(4)) for i in range(4)),
        tuple(tuple(perm[A.mul[inv[i]][inv[j]]] for j in range(4)) for i in range(4)),
        "relabel", None)
    iso = find_iso(A, B)
    assert iso is not None and iso.is_bijective()
    assert find_iso(A, corpus.get("boolx")) is None  # same size, different law


def test_generating_sequence_generates(corpus_tables):
    for name, A in corpus_tables.items():
        if A.size > 8:
            continue
        gens = generating_sequence(A)
        seen = {A.zero, A.one} | set(gens)
        grew = True
        while grew:
            grew = False
            for a in list(seen):
                for b in list(seen):
                    for c in (A.add[a][b], A.mul[a][b]):
                        if c not in seen:
                            seen.add(c)
                            grew = True
        assert seen == set(A.elements), name


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
