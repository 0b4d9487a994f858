"""Products by their factors: `kernel.split`, and the ideals, both
spectra and the axiom verdict of a table that splits, against the routes
that never split."""

import json
import random
from itertools import product
from unittest import mock

import pytest

from conftest import axiom_verdicts, direct_routes, isomorphic, public_routes
from semispec import cli, corpus, ideals, kernel
from semispec.errors import FormatError, InternalCheckError, ResourceError
from semispec.ideals import all_ideals, closed_sets
from semispec.kernel import FiniteSemiring, make_semiring, mul_rows, semiring_to_dict, split
from semispec.spectra import sp_enumerate, spec_enumerate

PRODUCTS = {"boolpair": ("bool2", "bool2"), "chain3xbool": ("chain3", "bool2")}

# the products of the benchmark's size-scaling workload
LADDER_PRODUCTS = [
    ("boolxy", "bool2"), ("satnat8", "bool2"), ("z4", "satnat8"), ("satnat8", "chain4"),
]


def permuted(A: FiniteSemiring, rng: random.Random) -> FiniteSemiring:
    """A copy of A whose elements are listed in a random order."""
    order = list(A.elements)
    rng.shuffle(order)
    return make_semiring(
        order, lambda a, b: A.add[a][b], lambda a, b: A.mul[a][b], A.zero, A.one, A.label
    )


def test_only_the_products_of_the_corpus_split(corpus_tables):
    for name, A in corpus_tables.items():
        s = split(A)
        if name not in PRODUCTS:
            assert s is None, name
            continue
        want = [corpus.get(n) for n in PRODUCTS[name]]
        assert any(
            isomorphic(s.factors[0], B) and isomorphic(s.factors[1], C)
            for B, C in (want, want[::-1])
        ), name


def test_split_runs_on_first_use_and_is_kept():
    # make_semiring checks the axioms, so the table it builds splits at
    # construction; a copy made by replace splits on first use
    A = corpus.product_semiring(corpus.get("satnat8"), corpus.get("bool2"), "satnat8*bool2")
    s = A._memo["split"]
    assert s is not None and split(A) is s
    assert sorted(B.size for B in s.factors) == [2, 8]
    A = A.replace()
    assert "split" not in A._memo
    s = split(A)
    assert s is not None and split(A) is s
    B = corpus.get("boolxy").replace()
    assert split(B) is None and B._memo["split"] is None


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_split_and_direct_routes_agree_on_the_corpus_products(name):
    A = corpus.get(name).replace()
    assert public_routes(A) == direct_routes(A)
    assert axiom_verdicts(A) == (None, None)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_split_and_direct_routes_agree_on_the_permuted_ladder_products(seed):
    rng = random.Random(seed)
    for a, b in LADDER_PRODUCTS:
        A = permuted(corpus.product_semiring(corpus.get(a), corpus.get(b), f"{a}*{b}"), rng)
        assert split(A) is not None, A.label
        assert public_routes(A) == direct_routes(A), A.label
        assert axiom_verdicts(A) == (None, None), A.label


def test_a_three_factor_product_splits_twice():
    A = corpus.product_semiring(corpus.get("boolpair"), corpus.get("chain3"), "bool2^2*chain3")
    s = split(A)
    assert sum(split(B) is not None for B in s.factors) == 1
    assert public_routes(A) == direct_routes(A)


def test_split_detects_a_corrupted_factor_index(monkeypatch):
    # planted defect: the one of A is given the index of eA's zero, so
    # a -> (ea, fa) is neither injective nor a hom; a fresh copy, with no
    # split kept yet
    real = kernel._factor

    def corrupt(A, e):
        E, pos = real(A, e)
        return E, pos[: A.one] + (E.zero,) + pos[A.one + 1 :]

    monkeypatch.setattr(kernel, "_factor", corrupt)
    with pytest.raises(InternalCheckError, match="no isomorphism"):
        split(corpus.get("chain3xbool").replace())


def test_split_detects_factors_whose_units_are_not_the_images_of_0_and_1(monkeypatch):
    # planted defect: eA is handed its zero as its one; its tables and the
    # index of each ea are right, so a -> (ea, fa) is still a bijective hom
    # onto eA x fA, and only the conjunct on 0 and 1 can tell
    real = kernel._factor

    def wrong_unit(A, e):
        E, pos = real(A, e)
        return E.replace(one=E.zero), pos

    monkeypatch.setattr(kernel, "_factor", wrong_unit)
    with pytest.raises(InternalCheckError, match="no isomorphism"):
        split(corpus.get("chain3xbool").replace())


def test_split_detects_a_map_that_is_not_injective():
    # planted defect: boolpair with a fifth element u that copies 0 in both
    # tables (u + a = a, ua = 0, and no sum or product is u); a -> (ea, fa)
    # is still a hom that keeps 0 and 1, but it sends 0 and u to one pair,
    # so only the injectivity conjunct can tell. Were the split accepted,
    # the factors would pass this table, which breaks both unit laws at u
    A = corpus.get("boolpair")

    def with_u(t):
        return tuple(row + (row[A.zero],) for row in t + (t[A.zero],))

    B = FiniteSemiring(5, A.zero, A.one, with_u(A.add), with_u(A.mul), "boolpair+u")
    with pytest.raises(InternalCheckError, match="no isomorphism"):
        split(B)
    by_factors, direct = axiom_verdicts(B)
    assert direct == "boolpair+u: axiom violations: add-zero[4]; mul-one[4]"
    assert by_factors == direct


def one_changes(A: FiniteSemiring):
    """Every table one entry or one constant away from A."""
    els = A.elements
    out = [A.replace(zero=z, one=o) for z, o in product(els, els)]
    for key in ("add", "mul"):
        table = getattr(A, key)
        for a, b, v in product(els, els, els):
            if table[a][b] != v:
                rows = [list(row) for row in table]
                rows[a][b] = v
                out.append(A.replace(**{key: tuple(map(tuple, rows))}))
    return out


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_the_factor_verdict_is_the_direct_scan_after_any_one_change(name):
    # both verdicts agree, to the byte, whether or not the changed table
    # still splits, certifies or keeps the laws
    variants = one_changes(corpus.get(name))
    verdicts = [axiom_verdicts(B) for B in variants]
    assert all(by_factors == direct for by_factors, direct in verdicts)
    assert sum(direct is not None for _f, direct in verdicts) > len(variants) // 2


@pytest.mark.parametrize("name", ["bool2", "chain3", "z4"])
def test_the_factor_verdict_is_the_direct_scan_on_products_of_changed_tables(name):
    # each table one change away from a corpus member, times bool2 and
    # tabulated without the check: where it splits and certifies, a
    # changed factor that breaks a law must fail A with A's own text
    verdicts = []
    for X in one_changes(corpus.get(name)):
        with mock.patch.object(kernel, "assert_valid", lambda A, error=None: A):
            A = corpus.product_semiring(X, corpus.get("bool2"), f"{name}'*bool2")
        verdicts.append(axiom_verdicts(A))
    assert all(by_factors == direct for by_factors, direct in verdicts)
    assert sum(direct is not None for _f, direct in verdicts) > len(verdicts) // 2


def test_a_law_broken_in_one_factor_fails_with_the_direct_scan_s_text():
    # the table of 1 + 1 = 1 but 2 + 2 = 0, times bool2, tabulated without
    # the check: it splits and certifies, and its 3-element factor fails
    bad = FiniteSemiring(3, 0, 1, ((0, 1, 2), (1, 1, 2), (2, 2, 0)),
                         ((0, 0, 0), (0, 1, 2), (0, 2, 2)), "bad")
    with mock.patch.object(kernel, "assert_valid", lambda A, error=None: A):
        A = corpus.product_semiring(bad, corpus.get("bool2"), "bad*bool2")
    s = split(A)
    assert sorted(B.size for B in s.factors) == [2, 3]
    by_factors, direct = axiom_verdicts(A)
    assert direct.startswith("bad*bool2: axiom violations: add-assoc[")
    assert by_factors == direct
    with pytest.raises(FormatError) as exc:
        corpus.product_semiring(bad, corpus.get("bool2"), "bad*bool2")
    assert str(exc.value) == direct


def test_a_split_that_cannot_be_built_is_a_format_error(tmp_path, monkeypatch):
    # boolpair with e + e = 1 for e = (0,1): e still looks complemented, but
    # eA = {0, e} is not closed under +, so the factor cannot be built
    A = corpus.get("boolpair")
    e = A.names.index("(0,1)")
    add = [list(row) for row in A.add]
    add[e][e] = A.one
    B = A.replace(add=tuple(map(tuple, add)))
    with pytest.raises(InternalCheckError, match="not in the carrier"):
        split(B.replace())
    by_factors, direct = axiom_verdicts(B)
    assert direct is not None and by_factors == direct
    # through the command line: exit 3 (malformed input), never 7
    monkeypatch.setenv("SEMISPEC_WORKSPACE", str(tmp_path / "ws"))
    path = tmp_path / "b.json"
    path.write_text(json.dumps(semiring_to_dict(B)))
    assert cli.main(["load", str(path), "--name", "b"]) == 3


def test_the_ideal_cap_is_charged_with_the_product_count(monkeypatch):
    # boolxy x bool2 has 220 ideals, 110 from boolxy times 2 from bool2;
    # under a cap of 150 both routes refuse, and the split route does so
    # from the count, after building only the factors' lattices
    A = corpus.product_semiring(corpus.get("boolxy"), corpus.get("bool2"), "boolxy*bool2")
    assert len(all_ideals(A)) == 220
    monkeypatch.setattr(ideals, "_IDEAL_CAP", 150)
    with pytest.raises(ResourceError, match="over the cap of 150"):
        closed_sets(A, mul_rows(A), ideals._IDEAL_CAP)
    built = []
    real = ideals.closed_sets
    monkeypatch.setattr(
        ideals, "closed_sets",
        lambda B, principal, cap=None: built.append(B.size) or real(B, principal, cap),
    )
    with pytest.raises(ResourceError, match=r"boolxy\*bool2: over the cap of 150"):
        all_ideals(A)
    assert sorted(built) == [2, 16]


def test_a_table_over_the_size_cap_is_refused_before_any_split():
    # bool2 x a 33-element chain: 66 elements, built without make_semiring,
    # which refuses it
    B, C = corpus.get("bool2"), make_semiring(list(range(33)), max, min, 0, 32, "chain33")
    pairs = [(b, c) for b in B.elements for c in C.elements]

    def table(tb, tc):
        return tuple(
            tuple(tb[b][b2] * C.size + tc[c][c2] for b2, c2 in pairs) for b, c in pairs
        )

    A = FiniteSemiring(
        len(pairs), B.zero * C.size + C.zero, B.one * C.size + C.one,
        table(B.add, C.add), table(B.mul, C.mul), "bool2*chain33",
    )
    for enumerate_points in (spec_enumerate, sp_enumerate):
        with pytest.raises(ResourceError, match="over the table cap 64"):
            enumerate_points(A)
    assert "split" not in A._memo
