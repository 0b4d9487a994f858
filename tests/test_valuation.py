"""Boolean valuations, submodule lattices, and the universal factoring."""

import pytest

from semispec import _purecore as core
from semispec import corpus
from semispec.errors import PreconditionError, ResourceError
from semispec.kernel import bits, find_iso, is_idempotent, leq, mask_of
from semispec.localize import _powers_mask, localize
from semispec.sheaf import SheafContext
from semispec.spectra import sp_enumerate, spec_enumerate
from semispec.valuation import (
    GValuation,
    bool_valuations,
    build_mra,
    chi_of_prime,
    factor_through_universal,
    g_valuation_violation,
    integral_part,
    mra_localization_iso_check,
    val_spec_bijection,
    vstar_homeo_check,
)

BOOL2 = corpus.get("bool2")


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
    v = chi_of_prime(A, 1)
    assert g_valuation_violation(v) is None


def test_chi_of_prime_everywhere(corpus_tables):
    for name, A in corpus_tables.items():
        if A.size > 8:
            continue
        for pmask in spec_enumerate(A).point_masks:
            v = chi_of_prime(A, pmask)
            assert g_valuation_violation(v) is None, name
            got = tuple(0 if (pmask >> a) & 1 else 1 for a in A.elements)
            assert v.images == got, name


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
        pairs = val_spec_bijection(A)
        assert len(pairs) == len(spec_enumerate(A).point_masks), name
        for v, pmask in pairs:
            got = frozenset(a for a in A.elements if v.images[a] == 0)
            want = frozenset(a for a in A.elements if (pmask >> a) & 1)
            assert got == want, name


def test_integral_part_is_subsemiring():
    A = corpus.get("boolx")
    for v in bool_valuations(A):
        part = integral_part(v)
        assert (part >> A.zero) & 1 and (part >> A.one) & 1


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
            # boolean scalars act as 0 and identity, nothing to add


def test_build_mra_rejects_non_bool_algebra():
    for name in ("f2", "z4", "satnat4"):
        with pytest.raises(PreconditionError):
            build_mra(corpus.get(name))


def test_build_mra_resource_guard():
    # boolxy has 2,480 submodules, over the cap of 256
    with pytest.raises(ResourceError):
        build_mra(corpus.get("boolxy"))


def test_universal_valuation_boolx_frozen():
    lat = build_mra(corpus.get("boolx"))
    v = lat.valuation
    assert lat.table.size == 7
    names = [lat.table.name_of(v.images[a]) for a in range(4)]
    assert names == ["{0}", "{0,1}", "{0,x}", "{0,1+x}"]
    assert g_valuation_violation(v) is None


def test_factoring_reproduces_valuations():
    for name in ("boolx", "chain3", "chain4", "boolpair"):
        A = corpus.get(name)
        lat = build_mra(A)
        v = lat.valuation
        for w in bool_valuations(A):
            f = factor_through_universal(lat, w)
            assert all(
                f.images[v.images[a]] == w.images[a] for a in A.elements
            ), name


def test_generator_sum_invariance():
    # the sum of the values is the same over every generating subset of a
    # module
    for name in ("boolx", "chain4"):
        A = corpus.get(name)
        lat = build_mra(A)
        v = lat.valuation
        S, scal = v.target, (1 << A.zero) | (1 << A.one)
        for idx, m in enumerate(lat.modules):
            elems = list(bits(m))
            want = S.sum_of(v.images[a] for a in elems)
            for code in range(1 << len(elems)):
                seed = (1 << A.zero) | mask_of(
                    e for i, e in enumerate(elems) if (code >> i) & 1
                )
                if core.closure_mask(A.size, A.add, A.mul, seed, scal) == m:
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


def test_mra_localization_iso():
    for name in ("boolx", "chain3", "chain4"):
        A = corpus.get(name)
        lat = build_mra(A)
        for a in A.elements:
            assert mra_localization_iso_check(lat, a), (name, a)


def test_mra_presheaf_gap_probe():
    # on boolx, inverting the cyclic module of x and localizing the lattice
    # at the sheaf monoid of its basic open give the same semiring
    lat = build_mra(corpus.get("boolx"))
    vmod = lat.valuation.images[2]
    left = localize(lat.table, _powers_mask(lat.table, vmod))
    ctx = SheafContext(lat.table, "sp")
    right = ctx.local(ctx.monoid_of(ctx.space.basis[vmod]))
    assert left.table.size == right.table.size == 2
    assert find_iso(left.table, right.table) is not None


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
        for A in corpus.members(max_size=16, min_size=1, include_trivial=True)
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
