"""Localization: fraction classes, saturation, semi-invertibility, hardening."""

import random

import pytest

from conftest import isomorphic, submonoids
from semispec import accept, corpus, kernel
from semispec import localize as loc_mod
from semispec.errors import FormatError, InternalCheckError, PreconditionError
from semispec.kernel import FiniteSemiring, Homomorphism, units
from semispec.localize import (
    MINMAX_ZERO,
    BxFraction,
    bx_frac_add,
    bx_frac_mul,
    bx_hardening_iso,
    bx_mul,
    bx_witness_equal,
    bx_witness_exhaustive,
    harden,
    is_hard,
    is_mult_submonoid,
    is_saturated,
    localize,
    minmax_add,
    minmax_mul,
    natural_map,
    saturate,
    semi_invertible,
    semi_invertibles_mask,
)
from semispec.sheaf import SheafContext, alexandrov_sections, equalizer_sections


def test_is_mult_submonoid_oracle(small_tables):
    for name, A in small_tables.items():
        assert [m for m in range(1 << A.size) if is_mult_submonoid(A, m)] == submonoids(A), name


def test_saturate_properties(small_tables):
    for name, A in small_tables.items():
        for m in submonoids(A):
            sat = saturate(A, m)
            assert sat & m == m, name
            assert is_saturated(A, sat), name
            assert saturate(A, sat) == sat, name


def test_localize_at_one_is_identity(small_tables):
    for name, A in small_tables.items():
        L = localize(A, 1 << A.one)
        assert L.phi.is_bijective(), name


def test_localize_at_units_is_identity(small_tables):
    for name, A in small_tables.items():
        L = localize(A, units(A))
        assert L.phi.is_bijective(), name


def test_localize_with_zero_collapses(small_tables):
    for name, A in small_tables.items():
        full = (1 << A.size) - 1
        L = localize(A, full)
        assert L.table.size == 1, name


def test_localized_denominators_become_units(small_tables):
    for name, A in small_tables.items():
        for m in submonoids(A):
            L = localize(A, m)
            u = units(L.table)
            for s in A.elements:
                if (m >> s) & 1:
                    assert (u >> L.phi.images[s]) & 1, name


def test_fraction_equality_witness(small_tables):
    """Two pairs collapse to one class exactly when a monoid member
    equalizes the cross products: the defining relation, rechecked."""
    for name, A in small_tables.items():
        if A.size > 4:
            continue
        for m in submonoids(A):
            L = localize(A, m)
            ss = [s for s in A.elements if (m >> s) & 1]
            for a in A.elements:
                for s in ss:
                    for b in A.elements:
                        for t in ss:
                            same = L.class_of_pair(a, s) == L.class_of_pair(b, t)
                            wit = any(
                                A.mul[u][A.mul[a][t]] == A.mul[u][A.mul[b][s]]
                                for u in ss
                            )
                            assert same == wit, name


def _with_corrupt_cell(L, a, si):
    """L with the class of (a, s_list[si]) moved to the next class."""
    grid = [list(row) for row in L._psi_class]
    grid[a][si] = (grid[a][si] + 1) % len(L.reps)
    return L.replace(_psi_class=tuple(tuple(row) for row in grid))


def _pairwise_disagreement(A, L) -> bool:
    """Some two fractions whose witness relation and canonical classes
    disagree, found by comparing every pair."""
    sl = L.s_list
    cells = [(a, si) for a in A.elements for si in range(len(sl))]
    for a, si in cells:
        for b, ti in cells:
            wit = any(
                A.mul[A.mul[a][sl[ti]]][u] == A.mul[A.mul[b][sl[si]]][u] for u in sl
            )
            if wit != (L._psi_class[a][si] == L._psi_class[b][ti]):
                return True
    return False


def test_scan_agreement_raises_exactly_on_pairwise_disagreement(corpus_tables):
    rng = random.Random(6)
    planted = 0
    for name, A in corpus_tables.items():
        if A.size > 8:
            continue
        for s_mask in sorted({loc_mod._powers_mask(A, x) for x in A.elements}):
            L = loc_mod._localization(A, s_mask)
            if len(L.reps) < 2:
                continue
            bad = _with_corrupt_cell(L, rng.randrange(A.size), rng.randrange(len(L.s_list)))
            for case in (L, bad):
                try:
                    loc_mod._assert_scan_agreement(A, case)
                    raised = False
                except InternalCheckError:
                    raised = True
                assert raised == _pairwise_disagreement(A, case), (name, s_mask)
            planted += 1
    assert planted > 20


def _table_by_index_tables(A, L):
    """The table of L as it was built before it was read from the class
    grid: fractions as representative pairs, a sum or product looked up
    through its class, and `_index_tables` numbering the pairs."""
    pos = {s: i for i, s in enumerate(L.s_list)}

    def frac(a, s):
        return L.reps[L._psi_class[a][pos[s]]]

    def plus(x, y):
        (a, s), (b, t) = x, y
        return frac(A.add[A.mul[a][t]][A.mul[b][s]], A.mul[s][t])

    def times(x, y):
        (a, s), (b, t) = x, y
        return frac(A.mul[a][b], A.mul[s][t])

    return kernel._index_tables(
        L.reps, plus, times, frac(A.zero, A.one), frac(A.one, A.one),
        L.table.label, L.table.names, InternalCheckError,
    )


def _reversed(A):
    """A with its elements numbered backwards, so that 1 is no longer near
    the front of S and a class's first pair can have a denominator other
    than 1."""
    n = A.size

    def flip(t):
        return tuple(tuple(n - 1 - t[n - 1 - a][n - 1 - b] for b in range(n)) for a in range(n))

    return FiniteSemiring(n, n - 1 - A.zero, n - 1 - A.one, flip(A.add), flip(A.mul),
                          A.label + "-reversed", A.names[::-1] if A.names else None)


def test_grid_read_tables_match_an_index_tables_build(small_tables):
    built = 0
    for name, A in small_tables.items():
        for B in (A, _reversed(A)):
            for s_mask in submonoids(B):
                L = loc_mod._localization(B, s_mask)
                assert L.table == _table_by_index_tables(B, L), (B.label, s_mask)
                pos_one = L.s_list.index(B.one)
                assert L.phi.images == tuple(row[pos_one] for row in L._psi_class)
                built += any(s != B.one for _a, s in L.reps)
    assert built > 20  # tables whose representatives have denominators other than 1


def test_localize_detects_a_corrupt_class_above_the_old_cap(monkeypatch):
    # |A| * |S| = 48 * 15 = 720: past the size at which the cross-check was
    # once skipped
    A = corpus.product_semiring(corpus.get("boolxy"), corpus.get("chain3"), "boolxy*chain3")
    s_mask = saturate(A, loc_mod._powers_mask(A, A.names.index("(xy,1)")))
    assert bin(s_mask).count("1") == 15
    assert localize(A, s_mask).table.size == 6
    build = loc_mod._localization
    # planted defect: one fraction away from the unit's position lands in
    # the wrong class
    monkeypatch.setattr(
        loc_mod, "_localization",
        lambda A, s_mask, label="": _with_corrupt_cell(build(A, s_mask, label), A.zero, 14),
    )
    with pytest.raises(InternalCheckError):
        localize(A, s_mask)


def test_localize_detects_a_corrupted_canonical_map(monkeypatch):
    # planted defect: phi sends 1 to the class of 0; the classes themselves
    # are right, so only the hom check on phi can tell
    A = corpus.get("chain3")
    build = loc_mod._localization

    def corrupt(A, s_mask, label=""):
        L = build(A, s_mask, label)
        images = list(L.phi.images)
        images[A.one] = images[A.zero]
        return L.replace(phi=Homomorphism(A, L.table, tuple(images)))

    monkeypatch.setattr(loc_mod, "_localization", corrupt)
    with pytest.raises(InternalCheckError, match="localization map is not a hom"):
        localize(A, 1 << A.one)


def test_localize_detects_a_map_that_is_not_onto(monkeypatch):
    # planted defect: the table of chain3 at S = {1} gains a factor bool2,
    # and phi sends a to (phi(a), [a != 0]); that is a hom, yet it hits
    # only 3 of the 6 elements, so the table's axioms would go unproved
    A = corpus.get("chain3")
    build = loc_mod._localization

    def widened(A, s_mask, label=""):
        L = build(A, s_mask, label)
        T = corpus.product_semiring(L.table, corpus.get("bool2"), "chain3*bool2")
        images = tuple(2 * L.phi(a) + (a != A.zero) for a in A.elements)
        return L.replace(table=T, phi=Homomorphism(A, T, images))

    monkeypatch.setattr(loc_mod, "_localization", widened)
    L = loc_mod._localization(A, 1 << A.one)
    assert L.phi.violation() is None and len(set(L.phi.images)) == 3 < L.table.size
    with pytest.raises(InternalCheckError, match="not onto"):
        localize(A, 1 << A.one)


def test_localize_refuses_a_base_that_breaks_the_axioms():
    # built without make_semiring, which would refuse it: here 1 + 1 = 1
    # but 2 + 2 = 0
    add = ((0, 1, 2), (1, 1, 2), (2, 2, 0))
    mul = ((0, 0, 0), (0, 1, 2), (0, 2, 2))
    bad = FiniteSemiring(3, 0, 1, add, mul, "bad")
    with pytest.raises(FormatError, match="axiom violations"):
        localize(bad, 1 << bad.one)


def test_localize_scans_its_base_once_and_no_table(monkeypatch):
    # however many localizations and sections are built over one base, the
    # base is scanned once and their own tables never
    A = corpus.get("boolxy").replace()
    scans = []
    scan = kernel.verify_axioms
    monkeypatch.setattr(kernel, "verify_axioms", lambda B: scans.append(B) or scan(B))
    ctx = SheafContext(A, "spec")
    for a in A.elements:
        localize(A, ctx.principal_monoid(a))
    equalizer_sections(ctx, [a for a in A.elements if ctx.space.basis[a]])
    alexandrov_sections(ctx, ctx.space.full)
    assert scans == [A]


def _satnat8_at_powers_of_2():
    A = corpus.get("satnat8")
    return A, loc_mod._localization(A, loc_mod._powers_mask(A, A.names.index("2")))


def test_natural_map_into_the_saturation():
    A, L = _satnat8_at_powers_of_2()
    assert natural_map(L, L).images == tuple(L.table.elements)
    sat = loc_mod._localization(A, loc_mod._saturation(A, L.s_mask))
    assert natural_map(L, sat).is_bijective()


def test_natural_map_detects_a_class_moved_in_the_target():
    # planted defect: one fraction of the target lands in the wrong class
    A, L = _satnat8_at_powers_of_2()
    for a in A.elements:
        for si in range(len(L.s_list)):
            with pytest.raises(InternalCheckError, match="ill-defined"):
                natural_map(L, _with_corrupt_cell(L, a, si))
    # and a map that ignores s: a/s |-> a, the numerator in the base
    with pytest.raises(InternalCheckError, match="ill-defined"):
        loc_mod.map_classes(L, A, lambda a, s: a)


def test_natural_map_detects_a_target_table_with_a_wrong_sum():
    # planted defect: one entry of the target's addition table is wrong
    _A, L = _satnat8_at_powers_of_2()
    T = L.table
    add = [list(row) for row in T.add]
    add[T.zero][T.one] = T.zero
    bad = L.replace(table=T.replace(add=tuple(tuple(row) for row in add)))
    with pytest.raises(InternalCheckError, match="not a hom"):
        natural_map(L, bad)


def test_localize_and_saturate_detect_a_saturation_that_is_too_large(monkeypatch):
    # planted defect: the saturation takes in 0, so (S^sat)^-1 A collapses
    # and 0 is no unit of S^-1 A
    A, L = _satnat8_at_powers_of_2()
    sat = loc_mod._saturation
    monkeypatch.setattr(
        loc_mod, "_saturation", lambda A, s_mask: sat(A, s_mask) | 1 << A.zero
    )
    with pytest.raises(InternalCheckError, match="not isomorphic"):
        localize(A, L.s_mask)
    with pytest.raises(InternalCheckError, match="characterizations disagree"):
        saturate(A, L.s_mask)


def test_natural_map_needs_nested_monoids_over_one_base():
    A, L = _satnat8_at_powers_of_2()
    sat = loc_mod._localization(A, loc_mod._saturation(A, L.s_mask))
    with pytest.raises(PreconditionError):
        natural_map(sat, L)  # S^sat is not inside S
    B = corpus.get("chain3")
    with pytest.raises(PreconditionError):
        natural_map(L, loc_mod._localization(B, 1 << B.one))


def test_localize_rejects_non_submonoid():
    A = corpus.get("boolx")
    with pytest.raises(PreconditionError):
        localize(A, 0b100)  # x alone, no 1


FROZEN_BOOLX_LOCS = [
    # (inverted element, resulting size)
    (2, 2),   # inverting x forces x = 1
    (3, 3),   # inverting 1+x keeps a middle level
]


@pytest.mark.parametrize("elem,size", FROZEN_BOOLX_LOCS)
def test_boolx_principal_localizations(elem, size):
    A = corpus.get("boolx")
    m = saturate(A, (1 << A.one) | (1 << elem))
    L = localize(A, m)
    assert L.table.size == size


def test_semi_invertible_oracle(small_tables):
    for name, A in small_tables.items():
        for a in A.elements:
            want = any(
                A.add[A.one][A.mul[a][b]] == A.mul[a][c]
                for b in A.elements
                for c in A.elements
            )
            assert semi_invertible(A, a) == want, name


FROZEN_SEMI_MASKS = {
    "bool2": 2, "boolnil": 10, "boolpair": 8, "boolx": 10, "boolxy": 47330,
    "chain3": 4, "chain3xbool": 32, "chain4": 8, "f2": 2, "satnat4": 14,
    "satnat8": 254, "trivial1": 1, "trop5": 2, "z4": 10,
}

FROZEN_HARD = {
    "bool2": True, "boolnil": False, "boolpair": True, "boolx": False,
    "boolxy": False, "chain3": True, "chain3xbool": True, "chain4": True,
    "f2": True, "satnat4": False, "satnat8": False, "trivial1": True,
    "trop5": True, "z4": True,
}


def test_semi_invertibles_frozen(corpus_tables):
    for name, want in FROZEN_SEMI_MASKS.items():
        assert semi_invertibles_mask(corpus_tables[name]) == want, name


def test_is_hard_frozen(corpus_tables):
    for name, want in FROZEN_HARD.items():
        assert is_hard(corpus_tables[name]) == want, name


def test_harden_frozen_targets(corpus_tables):
    H = harden(corpus_tables["boolx"])
    assert H.table.size == 3
    assert isomorphic(H.table, corpus_tables["chain3"])
    H = harden(corpus_tables["satnat4"])
    assert H.table.size == 2
    assert isomorphic(H.table, corpus_tables["bool2"])
    H = harden(corpus_tables["satnat8"])
    assert isomorphic(H.table, corpus_tables["bool2"])
    # the nilpotent variant also lands on three elements but with x^2 = 0,
    # which no chain realizes
    H = harden(corpus_tables["boolnil"])
    assert H.table.size == 3
    assert not isomorphic(H.table, corpus_tables["chain3"])


def test_harden_fixes_hard_tables(corpus_tables):
    for name, A in corpus_tables.items():
        if FROZEN_HARD[name]:
            assert harden(A).phi.is_bijective(), name


@pytest.mark.parametrize(
    "plant,message",
    [
        (lambda A, m: m & ~(1 << A.one), "not a submonoid"),
        (lambda A, m: m | 1 << A.zero, "not saturated"),
        (lambda A, m: units(A) if A.label == "boolx" else m, "not hard"),
    ],
    ids=["without-1", "with-0", "units-only"],
)
def test_harden_detects_wrong_semi_invertibles(monkeypatch, plant, message):
    # planted defect: boolx's semi-invertibles computed wrongly; "units-only"
    # leaves the hardened copy's own mask right, so only its hardness fails
    real = loc_mod.semi_invertibles_mask
    monkeypatch.setattr(loc_mod, "semi_invertibles_mask", lambda A: plant(A, real(A)))
    with pytest.raises(InternalCheckError, match=message):
        harden(corpus.get("boolx"))


def test_hardening_is_hard(corpus_tables):
    for name, A in corpus_tables.items():
        if A.size <= 8:
            assert is_hard(harden(A).table), name


# one-variable boolean fractions: masks encode coefficient supports
X, ONE, ONEX = 0b10, 0b1, 0b11


def test_bx_frac_ops_match_cross_multiplication():
    u = BxFraction(X, ONEX)
    v = BxFraction(ONE, ONE)
    s = bx_frac_add(u, v)
    # u+v = (x + (1+x))/(1+x) = (1+x)/(1+x)
    assert (s.num, s.den) == (bx_mul(X, ONE) | bx_mul(ONE, ONEX), bx_mul(ONEX, ONE))
    p = bx_frac_mul(u, v)
    assert (p.num, p.den) == (bx_mul(X, ONE), bx_mul(ONEX, ONE))


FROZEN_BX_ISO = [
    (BxFraction(X, ONE), (1, 1)),
    (BxFraction(ONE, ONE), (0, 0)),
    (BxFraction(ONEX, ONE), (0, 1)),
    (BxFraction(0b110, ONEX), (1, 1)),  # (x+x^2)/(1+x) reduces to x
]


@pytest.mark.parametrize("frac,pair", FROZEN_BX_ISO)
def test_bx_hardening_iso_frozen(frac, pair):
    assert bx_hardening_iso(frac) == pair


def test_bx_hardening_iso_zero():
    n, d = bx_hardening_iso(BxFraction(0, ONE))
    assert d < 0 or str(d) == "-inf"


def test_minmax_pair_operations():
    z = MINMAX_ZERO
    assert minmax_mul((1, 2), z) == z and minmax_mul(z, (1, 2)) == z
    assert minmax_add((1, 2), z) == (1, 2) and minmax_add(z, (1, 2)) == (1, 2)
    assert minmax_add((1, 5), (2, 3)) == (1, 5)
    assert minmax_mul((1, 5), (2, 3)) == (3, 8)


def test_bx_hardening_iso_is_multiplicative():
    fracs = [BxFraction(X, ONE), BxFraction(ONEX, ONE), BxFraction(ONE, ONEX),
             BxFraction(0b110, ONEX), BxFraction(0b101, ONE)]
    for u in fracs:
        for v in fracs:
            lhs = bx_hardening_iso(bx_frac_mul(u, v))
            rhs = minmax_mul(bx_hardening_iso(u), bx_hardening_iso(v))
            assert lhs == rhs
            lhs = bx_hardening_iso(bx_frac_add(u, v))
            rhs = minmax_add(bx_hardening_iso(u), bx_hardening_iso(v))
            assert lhs == rhs


def test_bx_witness_equal_frozen():
    assert bx_witness_equal(BxFraction(0b110, ONEX), BxFraction(X, ONE))
    assert not bx_witness_equal(BxFraction(X, ONE), BxFraction(0b100, ONE))
    assert bx_witness_equal(BxFraction(ONE, ONE), BxFraction(ONE, ONE))


def test_bx_witness_exhaustive_matches_naive_scan():
    for a in range(64):
        for b in range(64):
            witnesses = [u for u in range(1, 128, 2) if bx_mul(a, u) == bx_mul(b, u)]
            for kmax in range(7):
                below = [u for u in witnesses if u < 2 << kmax]
                want = below[0] if below else -1
                assert bx_witness_exhaustive(a, b, kmax) == want, (a, b, kmax)


def test_bx_slices_mark_the_witnesses_that_have_each_degree():
    for kmax in range(15):
        slices = loc_mod._bx_slices(kmax)
        assert len(slices) == kmax + 1
        for k, s in enumerate(slices):
            want = sum(1 << t for t in range(1 << kmax) if ((2 * t + 1) >> k) & 1)
            assert s == want, (kmax, k)


def _naive_witness(a, b, kmax):
    for u in range(1, 2 << kmax, 2):
        if bx_mul(a, u) == bx_mul(b, u):
            return u
    return -1


def test_bx_witness_exhaustive_matches_naive_scan_up_to_the_cap():
    rng = random.Random(1014)
    seen = set()
    for kmax in (10, 12, 14):
        cases = [(0, 0b1011), (0b1101, 0), (0, 0)]
        for _ in range(6):
            # f and g share their constant term and degree, so witnesses occur
            c, top = rng.getrandbits(5) | 1, rng.randrange(1, 7)
            f, g = (1 | 1 << top | rng.getrandbits(top) for _ in range(2))
            cases.append((bx_mul(f, c), bx_mul(g, c)))
        cases += [(rng.getrandbits(9), rng.getrandbits(9)) for _ in range(2)]
        for a, b in cases:
            want = _naive_witness(a, b, kmax)
            assert bx_witness_exhaustive(a, b, kmax) == want, (a, b, kmax)
            seen.add(want)
    assert -1 in seen and max(seen) > 1


def test_bx_witness_exhaustive_finds_witnesses_above_the_low_block():
    # 1 + x^8 and 1 + x + ... + x^8: the only witnesses of degree <= 7 are
    # u = 1 + ... + x^7, above the block of degree <= 6 scanned first
    assert bx_witness_exhaustive(0b100000001, 0b111111111, 7) == 0b11111111
    assert bx_witness_exhaustive(0b100000001, 0b111111111, 6) == -1
    rng = random.Random(26)
    # 1 + x^n against every term up to x^n: the smallest witness has every
    # term up to x^(n-1), degree 7 to 14 for n = 8..15, none for n = 16
    cases = [(1 | 1 << n, (2 << n) - 1) for n in range(8, 17)]
    for _ in range(12):
        # both ends shared, the middle terms drawn at random
        top = rng.randrange(9, 14)
        cases.append(tuple(1 | 1 << top | rng.getrandbits(top) for _ in range(2)))
    degrees = set()
    for a, b in cases:
        smallest = _naive_witness(a, b, 14)
        degrees.add(smallest.bit_length() - 1 if smallest != -1 else -1)
        for kmax in range(7, 15):
            want = smallest if smallest < 2 << kmax else -1
            assert bx_witness_exhaustive(a, b, kmax) == want, (a, b, kmax)
    assert -1 in degrees and max(degrees) == 14 and min(d for d in degrees if d > 0) <= 6


def test_criterion_10_detects_a_scan_that_tries_only_w_1(monkeypatch):
    # planted defect: equality of fractions by their cross-products alone
    monkeypatch.setattr(
        accept, "bx_witness_equal", lambda u, v: bx_mul(u.num, v.den) == bx_mul(v.num, u.den)
    )
    r = accept.criterion_10()
    assert not r.passed
    assert "witness-transitivity" in r.detail


def test_bx_witness_equal_detects_a_blind_exhaustive_scan(monkeypatch):
    # planted defect: the exhaustive cross-check never finds a witness
    monkeypatch.setattr(loc_mod, "bx_witness_exhaustive", lambda a, b, kmax: -1)
    with pytest.raises(InternalCheckError):
        bx_witness_equal(BxFraction(0b110, ONEX), BxFraction(X, ONE))
