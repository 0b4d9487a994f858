"""Section semirings: equalizers, gluing, stalks, and global sections."""

from itertools import product

import pytest

from conftest import isomorphic
from semispec import accept, corpus, kernel, sheaf
from semispec.errors import InternalCheckError, PreconditionError
from semispec.kernel import Homomorphism, units
from semispec.localize import harden, localize, natural_map, saturate, semi_invertibles_mask
from semispec.sheaf import (
    SheafContext,
    alexandrov_sections,
    common_denominator_form,
    equalizer_sections,
    glue_section,
    ktt_counterexample_verify,
    sections_along,
)


def test_whole_space_monoids(corpus_tables):
    for name, A in corpus_tables.items():
        if A.size > 8:
            continue
        spec_ctx = SheafContext(A, "spec")
        sp_ctx = SheafContext(A, "sp")
        assert spec_ctx.monoid_of(spec_ctx.space.full) == units(A), name
        assert sp_ctx.monoid_of(sp_ctx.space.full) == semi_invertibles_mask(A), name


def test_the_monoid_of_the_whole_space_is_checked(monkeypatch):
    # planted defects: no element is a unit, or none is semi-invertible
    A = corpus.get("boolx")
    monkeypatch.setattr(sheaf, "units", lambda B: 0)
    monkeypatch.setattr(sheaf, "semi_invertibles_mask", lambda B: 0)
    for kind in ("spec", "sp"):
        ctx = SheafContext(A, kind)
        with pytest.raises(InternalCheckError, match="S of the whole space"):
            ctx.monoid_of(ctx.space.full)


def test_a_principal_monoid_is_checked_against_the_saturated_powers(monkeypatch):
    # planted defect: saturate returns the powers of x unsaturated, which
    # lack 1+x, though x(1+x) = x
    A = corpus.get("boolx")
    monkeypatch.setattr(sheaf, "saturate", lambda B, s_mask: s_mask)
    ctx = SheafContext(A, "spec")
    with pytest.raises(InternalCheckError, match="not the saturation of the powers"):
        ctx.principal_monoid(A.names.index("x"))


def test_empty_open_monoid_is_everything(corpus_tables):
    for name in ("boolx", "chain3", "trop5"):
        A = corpus_tables[name]
        ctx = SheafContext(A, "spec")
        assert ctx.monoid_of(0) == A.full_mask, name


def test_principal_monoid_is_saturated_powers():
    A = corpus.get("boolx")
    ctx = SheafContext(A, "spec")
    for a in A.elements:
        powers, p = 1 << A.one, A.one
        for _ in range(A.size + 1):
            p = A.mul[p][a]
            powers |= 1 << p
        assert ctx.principal_monoid(a) == saturate(A, powers), a


def test_monoid_antitone(corpus_tables):
    # smaller opens allow more denominators
    for name in ("boolx", "chain4", "trop5"):
        A = corpus_tables[name]
        ctx = SheafContext(A, "spec")
        opens = ctx.space.opens()
        for u in opens:
            for v in opens:
                if u & v == u:  # u inside v
                    mu, mv = ctx.monoid_of(u), ctx.monoid_of(v)
                    assert mv & mu == mv, name


def test_restrictions_compose(corpus_tables):
    # the restriction along U > V > W is the one along U > V, then V > W
    triples = 0
    for name, A in corpus_tables.items():
        if A.size > 8:
            continue
        for kind in ("spec", "sp"):
            ctx = SheafContext(A, kind)
            basic = sorted(set(ctx.space.basis))
            for u in basic:
                for v in basic:
                    for w in basic:
                        if v & ~u or w & ~v:
                            continue
                        uv, vw = ctx.restriction(u, v), ctx.restriction(v, w)
                        assert ctx.restriction(u, w).images == tuple(
                            vw.images[x] for x in uv.images
                        ), (name, kind, u, v, w)
                        triples += 1
    assert triples > 100


def brute_equalizer(ctx, cover, target):
    """Direct product filter: tuples agreeing on every pairwise overlap."""
    space = ctx.space
    locs = [ctx.local(ctx.principal_monoid(c)) for c in cover]
    tuples = []
    for tup in product(*[range(L.table.size) for L in locs]):
        ok = True
        for i in range(len(cover)):
            for j in range(i + 1, len(cover)):
                overlap = space.basis[cover[i]] & space.basis[cover[j]]
                ri = ctx.restriction(space.basis[cover[i]], overlap)
                rj = ctx.restriction(space.basis[cover[j]], overlap)
                if ri.images[tup[i]] != rj.images[tup[j]]:
                    ok = False
        if ok:
            tuples.append(tup)
    return sorted(tuples)


CASES = [
    ("boolx", "spec", (2, 3), 3),
    ("boolx", "spec", (1,), None),
    ("chain4", "spec", (1, 2), 2),
    ("chain3", "spec", (1, 2), None),
    ("trop5", "spec", (2, 3), 2),
    ("boolx", "sp", (2, 3), None),
    ("boolpair", "sp", (1, 2), None),
]


@pytest.mark.parametrize("name,kind,cover,target", CASES)
def test_equalizer_matches_brute(name, kind, cover, target):
    A = corpus.get(name)
    ctx = SheafContext(A, kind)
    secs = equalizer_sections(ctx, cover, target)
    assert sorted(secs.tuples) == brute_equalizer(ctx, cover, target)


def test_boolx_principal_cover_sections_frozen():
    A = corpus.get("boolx")
    ctx = SheafContext(A, "spec")
    secs = equalizer_sections(ctx, (2, 3), 3)
    assert secs.table.size == 3
    assert secs.compare_is_iso
    assert not secs.base_injective
    assert isomorphic(secs.table, corpus.get("chain3"))


@pytest.mark.parametrize("kind,cover,target", [("spec", (2, 3), 3), ("sp", (2, 3), None)])
def test_equalizer_detects_a_dropped_family(monkeypatch, kind, cover, target):
    # planted defect: the equalizer scan loses its last compatible family
    ctx = SheafContext(corpus.get("boolx"), kind)
    scan = sheaf.equalizer_scan
    monkeypatch.setattr(
        sheaf, "equalizer_scan", lambda sizes, compat: scan(sizes, compat)[:-1]
    )
    with pytest.raises(InternalCheckError):
        equalizer_sections(ctx, cover, target)


def test_spec_comparison_detects_rows_that_allow_every_pair(monkeypatch):
    # planted defect: the compatibility rows admit every pair of components,
    # so the sections are the whole product and the comparison from the
    # target localization misses some; Spec raises, Sp reports it
    monkeypatch.setattr(
        sheaf, "_agreeing", lambda fi, fj: [(1 << len(fj)) - 1] * len(fi)
    )
    A = corpus.get("boolx")
    with pytest.raises(InternalCheckError, match="not an isomorphism"):
        equalizer_sections(SheafContext(A, "spec"), (2, 3), 3)
    assert not equalizer_sections(SheafContext(A, "sp"), (2, 3)).compare_is_iso


def test_spec_comparison_always_iso(corpus_tables):
    # the canonical map from the localization at the target is bijective
    for name in ("boolx", "chain3", "chain4", "boolpair", "trop5"):
        A = corpus_tables[name]
        ctx = SheafContext(A, "spec")
        space = ctx.space
        for a in A.elements:
            for b in A.elements:
                u = space.basis[a] | space.basis[b]
                for t in A.elements:
                    if space.basis[t] == u:
                        secs = equalizer_sections(ctx, (a, b), t)
                        assert secs.compare_is_iso, (name, a, b)
                        break


def test_equalizer_rejects_non_cover():
    A = corpus.get("boolx")
    ctx = SheafContext(A, "spec")
    with pytest.raises(PreconditionError):
        equalizer_sections(ctx, (2, 3))  # misses the closed point
    with pytest.raises(PreconditionError):
        equalizer_sections(ctx, ())


def test_common_denominator_exactness():
    A = corpus.get("chain4")
    ctx = SheafContext(A, "spec")
    secs = equalizer_sections(ctx, (1, 2), 2)
    for tup in secs.tuples:
        pairs, e = common_denominator_form(secs, tup)
        assert e >= 0
        xs = [x for x, _s in pairs]
        ss = [s for _x, s in pairs]
        # one shared exponent: s_i = a_i^e
        assert ss == [A.power(c, e) for c in secs.cover]
        for i in range(len(xs)):
            for j in range(len(xs)):
                assert A.mul[xs[i]][ss[j]] == A.mul[xs[j]][ss[i]]


def test_common_denominator_spec_only():
    A = corpus.get("boolx")
    ctx = SheafContext(A, "sp")
    secs = equalizer_sections(ctx, (2, 3))
    with pytest.raises(PreconditionError):
        common_denominator_form(secs, secs.tuples[0])


def test_glue_round_trips(corpus_tables):
    for name in ("boolx", "chain3", "chain4", "trop5"):
        A = corpus_tables[name]
        ctx = SheafContext(A, "spec")
        space = ctx.space
        for a in A.elements:
            for b in A.elements:
                u = space.basis[a] | space.basis[b]
                target = next((t for t in A.elements if space.basis[t] == u), None)
                if target is None:
                    continue
                secs = equalizer_sections(ctx, (a, b), target)
                L = ctx.local(ctx.principal_monoid(target))
                for tup in secs.tuples:
                    g = glue_section(secs, tup)
                    assert 0 <= g < L.table.size, name


def _glue_with_planted_pairs(monkeypatch, plant):
    """Glue every family of chain4's cover of D(b) by D(a) and D(b), with
    each pair (x, s) of the common-denominator form replaced by plant."""
    A = corpus.get("chain4")
    secs = equalizer_sections(SheafContext(A, "spec"), (1, 2), 2)
    real = sheaf.common_denominator_form

    def planted(secs, tup):
        pairs, e = real(secs, tup)
        return [plant(A, x, s) for x, s in pairs], e

    monkeypatch.setattr(sheaf, "common_denominator_form", planted)
    for tup in secs.tuples:
        glue_section(secs, tup)


def test_glue_detects_denominators_that_generate_no_power_of_the_target(monkeypatch):
    # planted defect: every denominator is 0, so they generate {0}, which
    # holds no power of b
    with pytest.raises(InternalCheckError, match="no power of the target"):
        _glue_with_planted_pairs(monkeypatch, lambda A, x, s: (x, A.zero))


def test_glue_detects_a_section_that_restricts_wrongly(monkeypatch):
    # planted defect: every numerator is 0, so a nonzero family glues to 0
    with pytest.raises(InternalCheckError, match="does not restrict correctly"):
        _glue_with_planted_pairs(monkeypatch, lambda A, x, s: (A.zero, s))


def _glue_by_search(secs, tup):
    """The glued section as it was found before certificates were kept:
    a breadth-first closure of the denominators' ideal for each family,
    its combination replayed on the numerators."""
    ctx, A = secs.ctx, secs.ctx.A
    pairs, _e = common_denominator_form(secs, tup)
    target = A.one if secs.target is None else secs.target
    want = ctx.space.full if secs.target is None else ctx.space.basis[secs.target]
    combos = {A.zero: []}
    frontier = [A.zero]
    while frontier:
        nxt = []
        for e in frontier:
            for j, (_xj, sj) in enumerate(pairs):
                for c in A.elements:
                    r = A.add[e][A.mul[c][sj]]
                    if r not in combos:
                        combos[r] = combos[e] + [(j, c)]
                        nxt.append(r)
        frontier = nxt
    x = next(x for x in kernel.powers(A, target) if x in combos)
    num = A.zero
    for j, c in combos[x]:
        num = A.add[num][A.mul[c][pairs[j][0]]]
    return ctx.presheaf_at(want).class_of_pair(num, x)


def test_kept_certificates_glue_as_the_per_family_search():
    families = 0
    for A in corpus.members(max_size=8):
        ctx = SheafContext(A, "spec")
        for target in accept._distinct_open_reps(ctx.space):
            for fam in accept._principal_covers(ctx.space, target):
                secs = equalizer_sections(ctx, fam, target=target)
                for tup in secs.tuples:
                    assert glue_section(secs, tup) == _glue_by_search(secs, tup), A.label
                    families += 1
    assert families >= 614


def test_glue_detects_a_corrupted_kept_certificate():
    # planted defect: after one gluing pass, every kept combination is
    # emptied, so each family glues to 0/x; a nonzero family then fails
    A = corpus.get("chain4")
    ctx = SheafContext(A, "spec")
    secs = equalizer_sections(ctx, (1, 2), 2)
    for tup in secs.tuples:
        glue_section(secs, tup)
    assert ctx._certificates
    for key, (x, _combo) in ctx._certificates.items():
        ctx._certificates[key] = (x, ())
    with pytest.raises(InternalCheckError, match="glued section does not restrict correctly"):
        for tup in secs.tuples:
            glue_section(secs, tup)


def _section_table_by_index_tables(tables, tuples, label):
    """The section table as it was built before its rows were composed:
    componentwise operations on the families, numbered by `_index_tables`."""

    def plus(t1, t2):
        return tuple(T.add[x][y] for T, x, y in zip(tables, t1, t2))

    def times(t1, t2):
        return tuple(T.mul[x][y] for T, x, y in zip(tables, t1, t2))

    names = ["(" + ",".join(T.name_of(x) for T, x in zip(tables, t)) + ")" for t in tuples]
    return kernel._index_tables(
        tuples, plus, times, tuple(T.zero for T in tables),
        tuple(T.one for T in tables), label, names, InternalCheckError,
    )


def test_composed_section_tables_match_an_index_tables_build(corpus_tables):
    sizes = set()
    for name, A in corpus_tables.items():
        if A.size > 8:
            continue
        for kind in ("spec", "sp"):
            ctx = SheafContext(A, kind)
            for open_set in ctx.space.opens():
                al = alexandrov_sections(ctx, open_set)
                want = _section_table_by_index_tables(
                    [l.table for l in al.locs], al.tuples, al.table.label
                )
                assert al.table == want, (name, kind, open_set)
                sizes.add((len(al.locs), al.table.size))
    assert (0, 1) in sizes  # the empty open: no component, one family


def test_a_one_family_section_table_with_components():
    # each column of the carrier has one entry, where an itemgetter of one
    # index returns the entry itself: localized at every element, A
    # collapses to one class
    A = corpus.get("boolx")
    L = localize(A, A.full_mask)
    assert L.table.size == 1
    for locs, compat in (([L], {}), ([L, L], {(0, 1): [0b1]})):
        tuples, _index, table, _h = sheaf._section_table(A, locs, compat, "one")
        assert tuples == [(0,) * len(locs)]
        assert table == _section_table_by_index_tables([L.table] * len(locs), tuples, "one")


def test_the_empty_open_has_a_one_element_section_table():
    A = corpus.get("boolx")
    for kind in ("spec", "sp"):
        al = alexandrov_sections(SheafContext(A, kind), 0)
        assert al.tuples == [()] and al.table.size == 1
        assert al.table.add == al.table.mul == ((0,),)
        assert al.from_base.images == (0,) * A.size
    tuples, index, table, _h = sheaf._section_table(A, [], {}, "empty")
    assert (tuples, index, table.size) == ([()], {(): 0}, 1)


def test_section_table_detects_a_sum_outside_the_carrier():
    # planted defect: over f2 twice, rows that admit (0,0), (0,1) and (1,1)
    # but not their sum (0,1) + (1,1) = (1,0); 0 and 1 are in the carrier
    A = corpus.get("f2")
    L = localize(A, 1 << A.one)
    rows = [0b11, 0b10]
    with pytest.raises(InternalCheckError, match=r"value \(1, 0\) is not in the carrier"):
        sheaf._section_table(A, [L, L], {(0, 1): rows}, "f2-sections")


def test_alexandrov_stalks_are_localizations():
    for name in ("boolx", "chain3", "boolpair"):
        A = corpus.get(name)
        ctx = SheafContext(A, "spec")
        al = alexandrov_sections(ctx, ctx.space.full)
        for i, pmask in enumerate(ctx.space.point_masks):
            st = al.stalk(i)
            direct = localize(A, A.full_mask ^ pmask)
            assert natural_map(st, direct).is_bijective(), name


def test_alexandrov_rejects_non_open():
    A = corpus.get("boolx")
    ctx = SheafContext(A, "spec")
    non_open = None
    opens = set(ctx.space.opens())
    for m in range(1 << ctx.space.npoints):
        if m not in opens:
            non_open = m
            break
    assert non_open is not None
    with pytest.raises(PreconditionError):
        alexandrov_sections(ctx, non_open)


def test_sections_along_the_identity_are_the_identity(corpus_tables):
    for name in ("boolx", "chain3", "boolpair"):
        A = corpus_tables[name]
        ctx = SheafContext(A, "sp")
        identity = Homomorphism(A, A, tuple(A.elements))
        for U in ctx.space.opens():
            al = alexandrov_sections(ctx, U)
            assert sections_along(identity, al, al).images == tuple(al.table.elements)


def _boolx_and_its_hardening():
    """boolx's hardening H, with the sections of boolx and of H over all of Sp."""
    A = corpus.get("boolx")
    H = harden(A)
    ctx_a, ctx_h = SheafContext(A, "sp"), SheafContext(H.table, "sp")
    sa = alexandrov_sections(ctx_a, ctx_a.space.full)
    return H, sa, alexandrov_sections(ctx_h, ctx_h.space.full)


def test_sections_along_refuses_an_open_whose_preimage_leaves_u():
    H, sa, sh = _boolx_and_its_hardening()
    assert sections_along(H.phi, sa, sh).is_bijective()
    ctx_a = sa.ctx
    on_dx = alexandrov_sections(ctx_a, ctx_a.space.basis[ctx_a.A.names.index("x")])
    with pytest.raises(PreconditionError, match="not in U"):
        sections_along(H.phi, on_dx, sh)  # a point of Sp H pulls back to a prime with x


def test_sections_along_detects_a_component_that_is_not_well_defined():
    # planted defect: in one stalk of A's sections one fraction is moved to
    # the next class, so that class has two images
    H, sa, sh = _boolx_and_its_hardening()
    for i, L in enumerate(sa.locs):
        for a in sa.ctx.A.elements:
            for si in range(len(L.s_list)):
                grid = [list(row) for row in L._psi_class]
                grid[a][si] = (grid[a][si] + 1) % len(L.reps)
                bad = L.replace(_psi_class=tuple(map(tuple, grid)))
                locs = sa.locs[:i] + [bad] + sa.locs[i + 1 :]
                with pytest.raises(InternalCheckError, match="map of classes is ill-defined"):
                    sections_along(H.phi, sa._replace(locs=locs), sh)


def test_criterion_9_detects_a_hardened_section_table_missing_a_family(monkeypatch):
    # planted defect: each section table over a hardening loses its last
    # family from the carrier, so some section of A maps outside it
    sections = accept.alexandrov_sections

    def dropping(ctx, open_set):
        al = sections(ctx, open_set)
        if ctx.A.label.endswith("^"):
            del al.index[al.tuples[-1]]
        return al

    monkeypatch.setattr(accept, "alexandrov_sections", dropping)
    with pytest.raises(InternalCheckError, match="maps outside the sections"):
        accept.criterion_9()


FROZEN_GLOBAL = {
    "bool2": True, "boolnil": False, "boolx": False, "boolpair": True,
    "chain3": True, "chain4": True, "satnat4": False, "trop5": True,
    "chain3xbool": True,
}


def gamma(A):
    ctx = SheafContext(A, "sp")
    return alexandrov_sections(ctx, ctx.space.full)


def test_is_global_frozen(corpus_tables):
    for name, want in FROZEN_GLOBAL.items():
        assert gamma(corpus_tables[name]).from_base.is_bijective() == want, name


def globalize(A, max_iter=5):
    """Global sections taken again until the structure map is bijective;
    returns the semiring reached and the sizes on the way."""
    sizes = [A.size]
    for _ in range(max_iter):
        g = gamma(A)
        if g.from_base.is_bijective():
            return A, sizes
        A = g.table
        sizes.append(A.size)
    raise AssertionError(f"no fixed point within {max_iter} steps: {sizes}")


def test_gamma_boolx():
    g = gamma(corpus.get("boolx"))
    assert g.table.size == 3
    assert isomorphic(g.table, corpus.get("chain3"))


def test_globalize_frozen():
    assert globalize(corpus.get("boolx"))[1] == [4, 3]
    table, sizes = globalize(corpus.get("satnat4"))
    assert sizes == [4, 2]
    assert isomorphic(table, corpus.get("bool2"))
    assert globalize(corpus.get("chain3"))[1] == [3]


def test_globalize_lands_on_global(corpus_tables):
    for name, A in corpus_tables.items():
        if A.size <= 8:
            table, _sizes = globalize(A)
            assert gamma(table).from_base.is_bijective(), name


def test_ktt_counterexample():
    report = ktt_counterexample_verify()
    assert report["status"] == "pass"
    assert len(report["witnesses"]) == 5
    assert all(w["ok"] for w in report["witnesses"])


def test_criterion_4_saturates_each_principal_monoid_once(monkeypatch):
    # the identity S_D(a) = sat(powers of a) is asserted once per
    # (context, element): criterion 4 builds one spec context per member
    calls = []

    def counting(A, s_mask):
        calls.append((A.label, s_mask))
        return saturate(A, s_mask)

    monkeypatch.setattr(sheaf, "saturate", counting)
    assert accept.criterion_4().passed
    assert calls and len(calls) == len(set(calls))


def test_criteria_4_and_9_build_one_context_per_member_and_kind(monkeypatch):
    # criterion 9 builds one for each member and one for its hardening
    built = []
    init = SheafContext.__init__

    def counting(self, A, kind):
        built.append(kind)
        init(self, A, kind)

    monkeypatch.setattr(SheafContext, "__init__", counting)
    n = len(corpus.members(max_size=8))
    assert accept.criterion_4().passed and built == ["spec"] * n
    built.clear()
    assert accept.criterion_9().passed and built == ["sp"] * (2 * n)
