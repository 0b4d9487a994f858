"""Point spaces, their topology, the point map of a homomorphism or a
localization, and the naturals' model on a window."""

import json

import pytest

from conftest import (
    brute_prime_ideal_masks,
    brute_prime_kernel_masks,
    brute_subtractive_prime_masks,
)
from semispec import corpus, ideals, kernel, spectra
from semispec.errors import InternalCheckError, PreconditionError
from semispec.ideals import nat_point_not_subtractive, nat_point_prime_check
from semispec.kernel import Homomorphism, make_semiring, mask_of
from semispec.localize import harden, localize, saturate
from semispec.sheaf import SheafContext
from semispec.spectra import (
    cover_check,
    dimension,
    dimension_of_opens,
    enumerate_space,
    localization_point_report,
    nat_model_verify,
    nat_spectrum,
    pullback,
    sp_enumerate,
    spec_enumerate,
    space_to_dot,
    space_to_json,
)
from semispec.valuation import bool_valuations

FROZEN_SPEC = {
    "bool2": [1], "boolnil": [5, 13], "boolpair": [3, 5],
    "boolx": [1, 5, 13],
    "boolxy": [1, 269, 1049, 18205, 57149, 63389, 65389, 65405, 65469,
               65497, 65501, 65533],
    "chain3": [1, 3], "chain3xbool": [3, 15, 21], "chain4": [1, 3, 7],
    "f2": [1], "satnat4": [1, 13], "satnat8": [1, 253], "trivial1": [],
    "trop5": [1, 29], "z4": [5],
}

FROZEN_SP = {
    "bool2": [1], "boolnil": [5], "boolpair": [3, 5], "boolx": [1, 5],
    "boolxy": [1, 269, 1049, 18205], "chain3": [1, 3],
    "chain3xbool": [3, 15, 21], "chain4": [1, 3, 7], "f2": [1],
    "satnat4": [1], "satnat8": [1], "trivial1": [], "trop5": [1, 29],
    "z4": [5],
}


def test_spec_points_frozen(corpus_tables):
    for name, want in FROZEN_SPEC.items():
        got = sorted(spec_enumerate(corpus_tables[name]).point_masks)
        assert got == want, name


def test_sp_points_frozen(corpus_tables):
    for name, want in FROZEN_SP.items():
        got = sorted(sp_enumerate(corpus_tables[name]).point_masks)
        assert got == want, name


def test_spec_points_match_brute(small_tables):
    for name, A in small_tables.items():
        assert sorted(spec_enumerate(A).point_masks) == brute_prime_ideal_masks(A), name


def test_sp_points_match_brute(small_tables):
    for name, A in small_tables.items():
        want = brute_subtractive_prime_masks(A)
        assert sorted(sp_enumerate(A).point_masks) == want, name


def test_sp_points_are_hom_kernels_when_idempotent(idempotent_tables):
    for name, A in idempotent_tables.items():
        if A.size > 6:
            continue
        got = sorted(sp_enumerate(A).point_masks)
        assert got == brute_prime_kernel_masks(A), name


def test_sp_cross_checks_hom_kernels(monkeypatch):
    # a planted missing kernel must trip the cross-check, which is always on;
    # a fresh copy, since the shared corpus object keeps its spaces
    real = spectra._bool2_kernels
    monkeypatch.setattr(
        spectra, "_bool2_kernels", lambda A, homs: real(A, homs)[1:] if homs else real(A, homs)
    )
    with pytest.raises(InternalCheckError, match="hom kernels"):
        sp_enumerate(corpus.get("boolxy").replace())


def test_spec_cross_checks_the_saturation_route(monkeypatch):
    # route 1 losing one candidate, the prime {0} of boolxy, must trip the
    # valuation-kernel route; a fresh copy, since the shared corpus object
    # keeps the primes an earlier call found
    A = corpus.get("boolxy").replace()
    real = spectra._saturation
    nonzero = A.full_mask & ~(1 << A.zero)
    monkeypatch.setattr(
        spectra, "_saturation",
        lambda B, s: B.full_mask if real(B, s) == nonzero else real(B, s),
    )
    with pytest.raises(InternalCheckError, match="valuation kernels"):
        spec_enumerate(A)


def test_the_primes_of_one_object_are_found_once(monkeypatch):
    # spec, sp and a sheaf context on one object share one prime search,
    # and each caller gets a list of its own; chain4 does not split, so the
    # search runs on the object itself
    A = corpus.get("chain4").replace()
    searches = []
    real = spectra._bool2_kernels
    monkeypatch.setattr(
        spectra, "_bool2_kernels",
        lambda B, homs: searches.append(homs) or real(B, homs),
    )
    space = spec_enumerate(A)
    sp_enumerate(A)
    SheafContext(A, "spec")
    assert searches.count(False) == 1
    primes = spectra._prime_masks(A)
    assert primes == sorted(space.point_masks)
    primes.append(0)
    assert spectra._prime_masks(A) == sorted(space.point_masks)


def test_each_spectrum_of_one_object_is_built_once(monkeypatch):
    # spec, sp and sheaf contexts of both kinds share one space per kind;
    # a copy made by replace has an empty memo and builds its own
    A = corpus.get("chain3xbool").replace()
    builds = []
    real = spectra._build_space
    monkeypatch.setattr(
        spectra, "_build_space",
        lambda B, kind, masks: builds.append((id(B), kind)) or real(B, kind, masks),
    )
    for kind in ("spec", "sp"):
        space = enumerate_space(A, kind)
        assert spec_enumerate(A) is enumerate_space(A, "spec")
        assert sp_enumerate(A) is enumerate_space(A, "sp")
        assert SheafContext(A, kind).space is space
    assert sorted(builds) == [(id(A), "sp"), (id(A), "spec")]
    B = A.replace()
    assert spec_enumerate(B) == spec_enumerate(A)
    assert builds[-1] == (id(B), "spec")


def test_a_point_that_is_not_prime_fails_the_basis_identity(monkeypatch):
    # planted defect: {0} joins the primes of z4, though 2 * 2 = 0; at that
    # point D(2 * 2) = D(0) is empty where D(2) & D(2) is not; a fresh copy
    A = corpus.get("z4").replace()
    real = spectra._prime_masks
    monkeypatch.setattr(spectra, "_prime_masks", lambda B: real(B) + [1 << B.zero])
    with pytest.raises(InternalCheckError, match=r"D\(ab\) != D\(a\) & D\(b\)"):
        spec_enumerate(A)


def test_valuation_search_needs_its_bottom_forcing_rule(monkeypatch):
    # a search that lets x + y take any value when x and y map to zero
    # finds maps that are no valuations: both spec and the valuations trip
    real = kernel._sum_rule

    def unforced(B, bounded):
        rule = real(B, bounded)
        if not bounded:
            return rule
        return tuple(
            tuple(B.full_mask if ok == 1 << B.zero else ok for ok in row) for row in rule
        )

    monkeypatch.setattr(kernel, "_sum_rule", unforced)
    A = corpus.get("boolxy").replace()  # with no primes kept yet
    with pytest.raises(InternalCheckError):
        spec_enumerate(A)
    with pytest.raises(InternalCheckError):
        bool_valuations(A)


def chain_times_bool2():
    """bool2 x C, C an 18-element max-chain whose non-unit elements
    multiply to 0: 36 elements, 131,074 ideals and 2 primes."""
    top = 17
    C = make_semiring(
        list(range(top + 1)), max,
        lambda a, b: b if a == top else a if b == top else 0, 0, top, "C18",
    )
    return corpus.product_semiring(corpus.get("bool2"), C, "bool2*C18")


def test_spectra_never_read_the_ideal_lattice(monkeypatch, corpus_tables):
    def refuse(*_args, **_kw):
        raise AssertionError("the ideal lattice was read")

    monkeypatch.setattr(ideals, "closed_sets", refuse)
    for name, A in corpus_tables.items():
        assert sorted(spec_enumerate(A).point_masks) == FROZEN_SPEC[name]
        assert sorted(sp_enumerate(A).point_masks) == FROZEN_SP[name]
    A = chain_times_bool2()
    assert A.size == 36
    assert spec_enumerate(A).npoints == 2
    assert sp_enumerate(A).npoints == 2


@pytest.mark.parametrize(
    "a, b, nspec, nsp",
    [("satnat8", "satnat8", 4, 2), ("boolxy", "chain3", 14, 6)],
)
def test_spectra_of_large_products(a, b, nspec, nsp):
    # one route at every table size up to the cap of 64 elements. The
    # primes of A x B are exactly P x B and A x Q, and subtractive exactly
    # when P or Q is, so the factors' spectra predict the points.
    A, B = corpus.get(a), corpus.get(b)
    AB = corpus.product_semiring(A, B, f"{a}*{b}")
    assert AB.size in (48, 64)
    for enum, npoints in ((spec_enumerate, nspec), (sp_enumerate, nsp)):
        want = [
            sum(1 << (x * B.size + y) for x in A.elements for y in B.elements
                if (P >> x) & 1)
            for P in enum(A).point_masks
        ] + [
            sum(1 << (x * B.size + y) for x in A.elements for y in B.elements
                if (Q >> y) & 1)
            for Q in enum(B).point_masks
        ]
        got = enum(AB).point_masks
        assert len(got) == npoints
        assert sorted(got) == sorted(want)


def test_sp_embeds_in_spec(corpus_tables):
    # prime kernels are prime ideals; the reverse can fail
    for name, A in corpus_tables.items():
        spec = set(spec_enumerate(A).point_masks)
        sp = set(sp_enumerate(A).point_masks)
        assert sp <= spec, name


def test_enumerate_space_kind_dispatch():
    A = corpus.get("chain3")
    assert enumerate_space(A, "spec").kind == "spec"
    assert enumerate_space(A, "sp").kind == "sp"
    with pytest.raises(PreconditionError):
        enumerate_space(A, "both")


def topology_closed(opens):
    s = set(opens)
    for u in s:
        for v in s:
            assert u | v in s
            assert u & v in s


def test_opens_form_topology(corpus_tables):
    for name, A in corpus_tables.items():
        if A.size > 6:
            continue
        for kind in ("spec", "sp"):
            space = enumerate_space(A, kind)
            opens = space.opens()
            assert 0 in opens and space.full in opens, name
            topology_closed(opens)


def test_basis_generates_opens(small_tables):
    for name, A in small_tables.items():
        space = spec_enumerate(A)
        opens = set(space.opens())
        from itertools import combinations
        unions = {0}
        for r in range(1, A.size + 1):
            for combo in combinations(space.basis, r):
                u = 0
                for b in combo:
                    u |= b
                unions.add(u)
        assert opens == unions, name


def test_minimal_open_is_intersection(small_tables):
    for name, A in small_tables.items():
        for kind in ("spec", "sp"):
            space = enumerate_space(A, kind)
            for i in range(space.npoints):
                inter = space.full
                for u in space.opens():
                    if (u >> i) & 1:
                        inter &= u
                assert space.minimal_open(i) == inter, name


def test_specializes_matches_closure(small_tables):
    # j lies in the closure of i exactly when every open around j holds i
    for name, A in small_tables.items():
        for kind in ("spec", "sp"):
            space = enumerate_space(A, kind)
            for i in range(space.npoints):
                for j in range(space.npoints):
                    want = bool((space.minimal_open(j) >> i) & 1)
                    assert space.specializes(i, j) == want, name


def test_cover_check_boolx():
    A = corpus.get("boolx")
    space = spec_enumerate(A)
    assert cover_check(space, (2, 3), 3)
    assert not cover_check(space, (2, 3), None)  # misses the closed point
    assert cover_check(space, (1,), None)  # D(1) covers everything
    assert cover_check(space, (2,), 2)


def test_a_cover_of_the_whole_space_is_checked_by_its_ideal(monkeypatch):
    # planted defect: every family generates the whole ring, so {0} would
    # cover Spec of chain3 x bool2, which D(0) = {} does not
    A = corpus.get("chain3xbool")
    real = spectra.ideal_closure
    monkeypatch.setattr(spectra, "ideal_closure", lambda B, gens: real(B, B.elements))
    with pytest.raises(InternalCheckError, match="cover criteria disagree"):
        cover_check(spec_enumerate(A), [A.zero])


@pytest.mark.parametrize("kind,message", [
    ("spec", "principal cover criteria disagree"),
    ("sp", "radical cover missed by topology"),
])
def test_a_principal_cover_is_checked_by_the_radical(monkeypatch, kind, message):
    # planted defect: every element lies in the radical of (0), so D(0)
    # would cover D(1), the whole space
    A = corpus.get("chain3xbool")
    space = enumerate_space(A, kind)
    monkeypatch.setattr(spectra, "radical_member", lambda A, I, a: True)
    with pytest.raises(InternalCheckError, match=message):
        cover_check(space, [A.zero], A.one)


def test_induced_map_preimages():
    A, B = corpus.get("boolx"), corpus.get("bool2")
    h = Homomorphism(A, B, (0, 1, 1, 1))
    assert h.violation() is None
    src, dst = spec_enumerate(B), spec_enumerate(A)
    f = pullback(h.images, src, dst)
    assert len(f) == src.npoints and all(0 <= j < dst.npoints for j in f)
    # preimage of an open is an open
    for u in dst.opens():
        pre = mask_of(i for i in range(src.npoints) if (u >> f[i]) & 1)
        assert pre in src.opens()


def test_induced_identity_is_identity():
    A = corpus.get("chain4")
    space = spec_enumerate(A)
    assert pullback(A.elements, space, space) == tuple(range(space.npoints))


FROZEN_DIMS = {
    "boolx": (2, 1), "chain4": (2, 2), "boolxy": (5, 2), "trop5": (1, 1),
    "chain3xbool": (1, 1), "bool2": (0, 0), "satnat4": (1, 0),
}


def test_dimension_frozen(corpus_tables):
    for name, (dspec, dsp) in FROZEN_DIMS.items():
        A = corpus_tables[name]
        assert dimension(spec_enumerate(A)) == dspec, name
        assert dimension(sp_enumerate(A)) == dsp, name


def test_dimension_of_opens_brute(small_tables):
    # longest strict specialization chain, counted in steps
    for name, A in small_tables.items():
        space = spec_enumerate(A)
        minimals = [space.minimal_open(i) for i in range(space.npoints)]
        if not space.npoints:
            assert dimension(space) == 0, name
            continue
        best = 1
        import itertools
        for perm in itertools.permutations(range(space.npoints)):
            length = 1
            for a, b in zip(perm, perm[1:]):
                if minimals[a] & minimals[b] == minimals[a] and minimals[a] != minimals[b]:
                    length += 1
                else:
                    break
            best = max(best, length)
        assert dimension(space) == best - 1, name


def test_dimension_of_opens_refuses_a_non_topology():
    # {0,1} and {0,2} are open but their meet {0} is not: the closed point
    # sets {0}, {1}, {2} and the whole space {0,1,2} are irreducible, while
    # the point closures are only the three singletons
    with pytest.raises(InternalCheckError):
        dimension_of_opens(3, [0, 3, 5, 6, 7])


def test_localization_point_report():
    A = corpus.get("boolx")
    rep = localization_point_report(localize(A, 0b1110), "spec")
    assert rep["pass"] and rep["injective"] and rep["image_matches"]


def test_localization_point_report_detects_a_map_that_is_not_injective():
    # planted defect: bool2's localization at {1} given boolpair as its
    # table and the diagonal hom; both points of boolpair pull back to {0}
    B2, BP = corpus.get("bool2"), corpus.get("boolpair")
    diag = Homomorphism(B2, BP, (BP.zero, BP.one))
    assert diag.violation() is None
    loc = localize(B2, 1 << B2.one)
    rep = localization_point_report(loc.replace(table=BP, phi=diag), "spec")
    assert not rep["injective"] and rep["image_matches"] and not rep["pass"]


def test_localization_point_report_detects_an_image_that_is_not_the_primes_missing_s():
    # planted defect: boolx's localization at {1} reporting S = {1, x}; the
    # map is the identity on points, but the points holding x meet S
    A = corpus.get("boolx")
    loc = localize(A, 1 << A.one)
    rep = localization_point_report(loc.replace(s_mask=loc.s_mask | 1 << A.names.index("x")), "sp")
    assert rep["injective"] and not rep["image_matches"] and not rep["pass"]


def test_localization_homeo_small(corpus_tables):
    for name in ("boolx", "chain3", "chain4", "trop5"):
        A = corpus_tables[name]
        for a in A.elements:
            powers, p = 1 << A.one, A.one
            for _ in range(A.size + 1):
                p = A.mul[p][a]
                powers |= 1 << p
            for kind in ("spec", "sp"):
                rep = localization_point_report(localize(A, saturate(A, powers)), kind)
                assert rep["pass"], (name, a, kind)


def test_hardening_sp_homeo_all(corpus_tables):
    for name, A in corpus_tables.items():
        if A.size <= 8:
            rep = localization_point_report(harden(A), "sp")
            assert rep["pass"] and rep["onto"], name


def test_hardening_check_reads_its_own_localization():
    # given the localization at the powers of x in place of the
    # hardening, the report misses the points holding x, so Sp is not onto
    A = corpus.get("boolx")
    rep = localization_point_report(localize(A, (1 << A.one) | (1 << A.names.index("x"))), "sp")
    assert rep["pass"] and not rep["onto"]


def test_nat_model():
    primes = [p for p in range(2, 201) if all(p % q for q in range(2, p))]
    for kind, dim in (("spec", 2), ("sp", 1)):
        space = nat_spectrum(200, kind)
        assert space.base is None and dimension(space) == dim
        # D(n) holds the zero prime and the primes not dividing n, and
        # never the maximal point once n >= 2
        assert space.basis[0] == 0 and space.basis[1] == space.full
        index = {m: i for i, m in enumerate(space.point_masks)}
        assert (mask_of(range(201)) & ~2 in index) == (kind == "spec")
        for n in range(2, 201):
            want = [1] + [mask_of(range(0, 201, p)) for p in primes if n % p]
            assert space.basis[n] == mask_of(index[m] for m in want), (kind, n)
    report = nat_model_verify(bound=200)
    assert report["pass"]


def test_nat_point_checks_can_fail():
    def max_point(n):
        return n != 1

    assert nat_point_prime_check(max_point, 60)
    assert nat_point_not_subtractive(max_point, 60)
    # N minus {1, 2} is an ideal but not prime: 2*2 = 4 lies in it
    assert not nat_point_prime_check(lambda n: n not in (1, 2), 60)
    # N minus the powers of 3 absorbs products and is prime, but 2+7 = 9
    threes = {3 ** k for k in range(8)}  # every power of 3 up to 60*60
    assert not nat_point_prime_check(lambda n: n not in threes, 60)
    # N itself is not proper
    assert not nat_point_prime_check(lambda n: True, 60)
    # the zero ideal is subtractive
    assert nat_point_prime_check(lambda n: n == 0, 60)
    assert not nat_point_not_subtractive(lambda n: n == 0, 60)


def test_nat_model_rejects_small_bound():
    with pytest.raises(PreconditionError):
        nat_spectrum(5, "spec")
    with pytest.raises(PreconditionError):
        nat_spectrum(200, "both")


def test_space_serialization():
    A = corpus.get("chain3")
    space = spec_enumerate(A)
    data = json.loads(space_to_json(space))
    assert data["kind"] == "spec"
    assert len(data["points"]) == space.npoints
    dot = space_to_dot(space)
    assert dot.startswith("digraph") and "->" in dot


def test_opens_are_all_unions_of_basis_opens(corpus_tables):
    for name, A in corpus_tables.items():
        if A.size > 8:
            continue
        for kind in ("spec", "sp"):
            space = enumerate_space(A, kind)
            unions = set()
            for code in range(1 << A.size):
                u = 0
                for a in A.elements:
                    if (code >> a) & 1:
                        u |= space.basis[a]
                unions.add(u)
            assert space.opens() == sorted(unions), (name, kind)
