"""Boolean valuations, submodule lattices, and the universal factoring."""


import pytest

from semispec import cli, corpus, kernel, valuation
from semispec.errors import InternalCheckError, PreconditionError, ResourceError
from semispec.ideals import sum_closure
from semispec.kernel import bits, is_idempotent, leq, mask_of
from semispec.localize import _powers_mask, localize, natural_map
from semispec.sheaf import SheafContext
from semispec.spectra import sp_enumerate, spec_enumerate
from semispec.valuation import (
    GValuation,
    bool_valuations,
    build_mra,
    factor_through_universal,
    g_valuation_violation,
    mra_localization_iso_check,
    vstar_homeo_check,
)

BOOL2 = corpus.get("bool2")


def universal(lat):
    """The universal valuation a -> cyclic module of a."""
    return GValuation(lat.base, lat.table, lat.cyclic)


def test_identity_on_bool2_is_valuation():
    v = GValuation(BOOL2, BOOL2, (0, 1))
    assert g_valuation_violation(v) is None


def test_constant_one_is_not():
    v = GValuation(BOOL2, BOOL2, (1, 1))
    assert g_valuation_violation(v) == "zero"


def test_valuation_requires_idempotent_target():
    f2 = corpus.get("f2")
    with pytest.raises(PreconditionError):
        g_valuation_violation(GValuation(f2, f2, (0, 1)))


def test_subadditivity_vs_additivity():
    # on satnat4 the characteristic map of {0} is subadditive but the
    # underlying addition saturates, so it is not an additive map refused
    # by the plain homomorphism check
    A = corpus.get("satnat4")
    v = GValuation(A, BOOL2, tuple(0 if a == A.zero else 1 for a in A.elements))
    assert g_valuation_violation(v) is None


def test_chi_of_prime_everywhere(corpus_tables):
    # the characteristic map of the complement of every prime is a valuation
    for name, A in corpus_tables.items():
        if A.size > 8:
            continue
        for pmask in spec_enumerate(A).point_masks:
            chi = tuple(0 if (pmask >> a) & 1 else 1 for a in A.elements)
            assert g_valuation_violation(GValuation(A, BOOL2, chi)) is None, name


FROZEN_VAL_COUNTS = {
    "bool2": 1, "boolnil": 2, "boolpair": 2, "boolx": 3, "boolxy": 12,
    "chain3": 2, "chain3xbool": 3, "chain4": 3, "f2": 1, "satnat4": 2,
    "satnat8": 2, "trivial1": 0, "trop5": 2, "z4": 1,
}


def test_bool_valuation_counts_frozen(corpus_tables):
    for name, want in FROZEN_VAL_COUNTS.items():
        A = corpus_tables[name]
        if A.size > 16:
            continue
        assert len(bool_valuations(A)) == want, name


def test_valuations_biject_with_primes(corpus_tables):
    for name, A in corpus_tables.items():
        if A.size > 8:
            continue
        kernels = [mask_of(a for a in A.elements if v(a) == 0) for v in bool_valuations(A)]
        assert sorted(kernels) == sorted(spec_enumerate(A).point_masks), name


def test_bool_valuations_of_a_32_element_product():
    # past the reach of a scan over all 2^32 maps
    A = corpus.product_semiring(corpus.get("boolxy"), BOOL2, "boolxy*bool2")
    vals = bool_valuations(A)
    assert len(vals) == 13
    kernels = sorted(mask_of(a for a in A.elements if v(a) == 0) for v in vals)
    assert kernels == sorted(spec_enumerate(A).point_masks)


def test_integral_part_is_subsemiring(idempotent_tables):
    # what `build_mra` does not scan, by brute force: each universal map
    # is a valuation, and for it and every valuation into bool2 the
    # integral part {a : v(a) <= 1} holds 0 and 1 and is closed under + and *
    for name, A in idempotent_tables.items():
        u = universal(build_mra(A))
        assert g_valuation_violation(u) is None, name
        for v in bool_valuations(A) + [u]:
            part = mask_of(a for a in A.elements if leq(v.target, v(a), v.target.one))
            assert (part >> A.zero) & 1 and (part >> A.one) & 1, name
            for a in bits(part):
                for b in bits(part):
                    assert (part >> A.add[a][b]) & 1 and (part >> A.mul[a][b]) & 1, name


FROZEN_LATTICE_SIZES = {
    "bool2": 2, "boolnil": 7, "boolpair": 7, "boolx": 7, "chain3": 4,
    "chain3xbool": 23, "chain4": 8, "trivial1": 1, "trop5": 16,
}


def test_lattice_sizes_frozen(corpus_tables):
    for name, want in FROZEN_LATTICE_SIZES.items():
        lat = build_mra(corpus_tables[name])
        assert lat.table.size == want, name


def test_lattice_is_idempotent_with_inclusion_order(corpus_tables):
    for name in ("boolx", "chain3", "chain4"):
        lat = build_mra(corpus_tables[name])
        S = lat.table
        assert is_idempotent(S)
        for i, mi in enumerate(lat.modules):
            for j, mj in enumerate(lat.modules):
                assert leq(S, i, j) == (mi | mj == mj), name


def test_lattice_modules_closed(corpus_tables):
    # every carrier mask is a genuine submodule: 0 in, + closed, scalars act
    for name in ("boolx", "trop5"):
        A = corpus_tables[name]
        lat = build_mra(A)
        for m in lat.modules:
            assert (m >> A.zero) & 1
            for a in A.elements:
                for b in A.elements:
                    if (m >> a) & 1 and (m >> b) & 1:
                        assert (m >> A.add[a][b]) & 1, name
            # a scalar n acts as an n-fold sum, nothing to add


def test_build_mra_rejects_non_bool_algebra():
    # a table without 1 + 1 = 1 has its lattice too, as submodules are
    # taken over N with <a> = N*a, and every check passes on it
    for name, size in (("f2", 2), ("z4", 3), ("satnat4", 4), ("satnat8", 17)):
        A = corpus.get(name)
        lat = build_mra(A)
        assert lat.table.size == size and vstar_homeo_check(lat).ok, name
        for v in bool_valuations(A):
            factor_through_universal(lat, v)
        assert all(mra_localization_iso_check(lat, a) for a in A.elements), name


def test_build_mra_resource_guard():
    # boolxy has 2,480 submodules, over the table cap of 64
    with pytest.raises(ResourceError):
        build_mra(corpus.get("boolxy"))


def test_build_mra_detects_a_table_out_of_step_with_its_modules(monkeypatch):
    # planted defect: the table numbers {0} and the whole of chain3 in each
    # other's places; it is still an idempotent semiring, so only the
    # order-versus-inclusion scan can tell
    A = corpus.get("chain3")
    real = valuation.make_semiring

    def swapped(carrier, *rest):
        carrier = list(carrier)
        i, j = carrier.index(1 << A.zero), carrier.index(A.full_mask)
        carrier[i], carrier[j] = carrier[j], carrier[i]
        return real(carrier, *rest)

    monkeypatch.setattr(valuation, "make_semiring", swapped)
    with pytest.raises(InternalCheckError, match="lattice order differs from inclusion"):
        build_mra(A)


def test_universal_valuation_boolx_frozen():
    lat = build_mra(corpus.get("boolx"))
    v = universal(lat)
    assert lat.table.size == 7
    names = [lat.table.name_of(v.images[a]) for a in range(4)]
    assert names == ["{0}", "{0,1}", "{0,x}", "{0,1+x}"]
    assert g_valuation_violation(v) is None


def test_factoring_reproduces_valuations():
    for name in ("boolx", "chain3", "chain4", "boolpair"):
        A = corpus.get(name)
        lat = build_mra(A)
        v = universal(lat)
        for w in bool_valuations(A):
            f = factor_through_universal(lat, w)
            assert all(
                f.images[v.images[a]] == w.images[a] for a in A.elements
            ), name


def test_factoring_detects_a_wrong_element_sum(monkeypatch):
    # planted defect: the sum of a module's values drops its last term, so
    # f({0, 1}) reads v(0) = 0 where v(1) = 1 is wanted
    A = corpus.get("chain3")
    lat = build_mra(A)
    w = bool_valuations(A)[0]
    real = kernel.FiniteSemiring.sum_of
    monkeypatch.setattr(kernel.FiniteSemiring, "sum_of", lambda S, xs: real(S, list(xs)[:-1]))
    with pytest.raises(InternalCheckError):
        factor_through_universal(lat, w)


def test_factoring_detects_a_second_match(monkeypatch):
    # planted defect: the hom search yields every hom twice, so the right
    # factoring is found twice and only the uniqueness half fires
    A = corpus.get("chain3")
    lat, w = build_mra(A), bool_valuations(A)[0]
    real = valuation.enumerate_homs
    monkeypatch.setattr(valuation, "enumerate_homs", lambda A, B: 2 * real(A, B))
    with pytest.raises(InternalCheckError, match=r"\(2 matches\)"):
        factor_through_universal(lat, w)


def test_generator_sum_invariance():
    # the sum of the values is the same over every generating subset of a
    # module
    for name in ("boolx", "chain4"):
        A = corpus.get(name)
        lat = build_mra(A)
        v = universal(lat)
        S = v.target
        for idx, m in enumerate(lat.modules):
            elems = list(bits(m))
            want = S.sum_of(v.images[a] for a in elems)
            for code in range(1 << len(elems)):
                seed = (1 << A.zero) | mask_of(
                    e for i, e in enumerate(elems) if (code >> i) & 1
                )
                if sum_closure(A, seed) == m:
                    got = S.sum_of(v.images[a] for a in bits(seed))
                    assert got == want, (name, idx)


def test_valuation_pullback():
    # the prime kernels of the target pull back to prime ideals, and the
    # preimage of the basic open of v(a) is the basic open of a
    A = corpus.get("chain4")
    spec_a = spec_enumerate(A)
    for v in bool_valuations(A):
        sp_s = sp_enumerate(v.target)
        pulled = [
            mask_of(a for a in A.elements if (p >> v.images[a]) & 1)
            for p in sp_s.point_masks
        ]
        assert all(q in spec_a.point_masks for q in pulled)
        for a in A.elements:
            pre = mask_of(i for i, q in enumerate(pulled) if not (q >> a) & 1)
            assert pre == sp_s.basis[v.images[a]]


def test_vstar_homeo(corpus_tables):
    for name in FROZEN_LATTICE_SIZES:
        rep = vstar_homeo_check(build_mra(corpus_tables[name]))
        assert rep.ok, name


def test_vstar_homeo_refuses_a_pullback_that_is_not_a_point():
    # swapping the images of x and 1+x keeps a map into the lattice, but a
    # pulled-back point of Sp is then no prime of boolx
    lat = build_mra(corpus.get("boolx"))
    c = lat.cyclic
    swapped = lat._replace(cyclic=(c[0], c[1], c[3], c[2]))
    with pytest.raises(InternalCheckError):
        vstar_homeo_check(swapped)


def test_vstar_homeo_openness_reads_the_base_basis(monkeypatch):
    # planted defect: the base's spectrum swaps D(0) and D(1); its points,
    # the point map and the lattice's basis are untouched, so only
    # openness, the one conjunct that reads the base's basis, can see it
    A = corpus.get("boolx")
    space = spec_enumerate(A)
    b = list(space.basis)
    b[A.zero], b[A.one] = b[A.one], b[A.zero]
    bad = space._replace(basis=tuple(b))
    monkeypatch.setattr(valuation, "spec_enumerate", lambda B: bad if B is A else spec_enumerate(B))
    rep = vstar_homeo_check(build_mra(A))
    assert rep.bijective and rep.basis
    assert not rep.openness and not rep.ok


def test_vstar_homeo_needs_the_explicit_inverse():
    # every nonzero element sent to the whole base: each point of Sp pulls
    # back to the prime {0}, so the point counts agree but the map is not
    # a bijection
    A = corpus.get("boolx")
    lat = build_mra(A)
    top = lat.modules.index(A.full_mask)
    collapsed = lat._replace(cyclic=(lat.cyclic[0],) + (top,) * (A.size - 1))
    rep = vstar_homeo_check(collapsed)
    assert rep.points == 3
    assert not rep.bijective and not rep.openness and not rep.ok


def test_mra_localization_iso():
    for name in ("boolx", "chain3", "chain4"):
        A = corpus.get(name)
        lat = build_mra(A)
        for a in A.elements:
            assert mra_localization_iso_check(lat, a), (name, a)


def test_mra_localization_iso_detects_a_lattice_out_of_step_with_its_modules(monkeypatch):
    # planted defect: the lattice of each localization numbers {0} and the
    # whole base in each other's places, so the map of classes lands on
    # the wrong modules; at a = 0 the localization is trivial and the two
    # coincide
    A = corpus.get("chain3")
    lat = build_mra(A)
    real = valuation.build_mra

    def swapped(B):
        out = real(B)
        modules = list(out.modules)
        i, j = modules.index(1 << B.zero), modules.index(B.full_mask)
        modules[i], modules[j] = modules[j], modules[i]
        return out._replace(modules=tuple(modules))

    monkeypatch.setattr(valuation, "build_mra", swapped)
    assert mra_localization_iso_check(lat, A.zero)
    for a in (1, 2):
        with pytest.raises(InternalCheckError, match="not a hom"):
            mra_localization_iso_check(lat, a)


def test_mra_localization_iso_is_false_on_a_base_localized_too_far(monkeypatch):
    # planted defect: chain3 is localized at {1, h} instead of the powers
    # of 1, so its lattice is that of bool2 (2 modules); the map of classes
    # from the 4 modules of chain3 is a well-defined hom, but no bijection
    A = corpus.get("chain3")
    lat = build_mra(A)
    h = A.names.index("h")
    real = valuation.localize
    monkeypatch.setattr(
        valuation, "localize", lambda B, s_mask: real(B, s_mask | (1 << h if B is A else 0))
    )
    assert not mra_localization_iso_check(lat, A.one)


def test_mra_presheaf_gap_probe():
    # on boolx, inverting the cyclic module of x and localizing the lattice
    # at the sheaf monoid of its basic open give the same semiring
    lat = build_mra(corpus.get("boolx"))
    vmod = lat.cyclic[2]
    left = localize(lat.table, _powers_mask(lat.table, vmod))
    ctx = SheafContext(lat.table, "sp")
    right = ctx.local(ctx.monoid_of(ctx.space.basis[vmod]))
    assert left.table.size == right.table.size == 2
    assert natural_map(left, right).is_bijective()


def test_modules_match_subset_scan(idempotent_tables):
    for name, A in idempotent_tables.items():
        zero_bit = 1 << A.zero
        scal = zero_bit | (1 << A.one)
        want = [
            m
            for m in range(1 << A.size)
            if m & zero_bit
            and all(
                (m >> A.add[a][b]) & 1 and (m >> A.mul[r][a]) & 1
                for a in bits(m)
                for b in bits(m)
                for r in bits(scal)
            )
        ]
        assert list(build_mra(A).modules) == want, name


def test_criterion_8_builds_each_lattice_once(monkeypatch):
    # one build per idempotent base table tried, one per localization at
    # an element of a table whose lattice built
    from semispec import accept, valuation

    real = valuation.build_mra
    base_calls, local_calls, built = [], [], []
    tried = [
        A
        for A in corpus.members(max_size=16, include_trivial=True)
        if is_idempotent(A)
    ]

    def counting(A, *rest):
        is_base = any(A is B for B in tried)
        (base_calls if is_base else local_calls).append(A.label)
        lat = real(A, *rest)
        if is_base:
            built.append(A)
        return lat

    monkeypatch.setattr(accept, "build_mra", counting)
    monkeypatch.setattr(valuation, "build_mra", counting)
    assert accept.criterion_8().passed
    assert base_calls == [A.label for A in tried]
    assert len(built) < len(tried)  # boolxy is over the module cap
    assert len(local_calls) == sum(A.size for A in built)


def _products_by_closure(lat):
    """The product table of a lattice as it was built before products were
    joins of the a*N: M*N is the submodule generated by every ab."""
    A, modules = lat.base, lat.modules
    index = {m: i for i, m in enumerate(modules)}
    zero_bit = 1 << A.zero
    rows = []
    for m1 in modules:
        row = []
        for m2 in modules:
            seed = mask_of(A.mul[a][b] for a in bits(m1) for b in bits(m2))
            row.append(index[sum_closure(A, seed | zero_bit)])
        rows.append(tuple(row))
    return tuple(rows)


def test_distributive_products_match_the_closure_of_products():
    # every idempotent member whose lattice builds, and every localization
    # at the powers of an element that criterion 8 builds a lattice of
    checked = 0
    for A in corpus.members(max_size=16, include_trivial=True):
        if not is_idempotent(A):
            continue
        try:
            lat = build_mra(A)
        except ResourceError:
            continue
        bases = [A] + [localize(A, _powers_mask(A, a)).table for a in A.elements]
        for B in bases:
            lat_b = lat if B is A else build_mra(B)
            assert tuple(map(tuple, lat_b.table.mul)) == _products_by_closure(lat_b), B.label
            checked += 1
    assert checked > 40


def test_a_product_that_drops_one_scaled_module_is_refused(monkeypatch):
    # planted defect: the a*N of the largest a in M is left out of every
    # product, so {0,1}*N misses N itself and the lattice has no unit
    real = valuation._scaled
    monkeypatch.setattr(valuation, "_scaled", lambda A, m1, m2: real(A, m1, m2)[:-1])
    with pytest.raises(InternalCheckError, match="mul-one"):
        build_mra(corpus.get("boolx"))


def test_a_broken_module_table_exits_7_not_3(monkeypatch, tmp_path, capsys):
    # the same planted defect through the command line: the input is a
    # checked table, so a module table that breaks an axiom is an internal
    # check failure (7), not malformed input (3)
    monkeypatch.setenv("SEMISPEC_WORKSPACE", str(tmp_path))
    real = valuation._scaled
    monkeypatch.setattr(valuation, "_scaled", lambda A, m1, m2: real(A, m1, m2)[:-1])
    assert cli.main(["mra", "boolx"]) == 7
    err = capsys.readouterr().err
    assert err.startswith("error: M[boolx]: axiom violations: ") and "mul-one" in err
