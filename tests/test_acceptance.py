"""Acceptance gate: every shipped claim, one pass/fail line each.

Each criterion prints its `[PASS]`/`[FAIL]` line (visible with `pytest -s`
or on failure) and the test asserts the verdict, so a red line here is a
red test. Each line must also equal its line in data/verify_all.txt, the
pinned output of `semispec verify all`.
"""

from pathlib import Path

import pytest

from semispec import accept, corpus, presented, spectra
from semispec.errors import ResourceError

PINNED = (
    (Path(__file__).parent / "data" / "verify_all.txt").read_text(encoding="utf-8").splitlines()
)


@pytest.mark.parametrize(
    "number,ident,fn",
    accept.CRITERIA,
    ids=[f"{n:02d}-{ident}" for n, ident, _fn in accept.CRITERIA],
)
def test_criterion(number, ident, fn):
    r = fn()
    print(r.line())
    assert r.number == number
    assert r.ident == ident
    assert r.passed, r.line()
    assert r.line() == PINNED[number - 1]


def test_every_criterion_is_registered():
    assert [n for n, _i, _f in accept.CRITERIA] == list(range(1, 11))
    assert len(accept.IDENTS) == 10


def test_criterion_6_rechecks_its_separating_model(monkeypatch):
    # a model search that drops 1 + x = x + y finds bool2 with x = y = 0,
    # which separates the pair but is no model: the re-check fails it
    search = presented.separating_model

    def search_without_last_relation(pres, s, t, tables):
        return search(presented.Presentation(pres.gens, pres.rels[:-1]), s, t, tables)

    monkeypatch.setattr(accept, "separating_model", search_without_last_relation)
    assert not accept.criterion_6().passed


def _plant_point(monkeypatch, label, kind, mask):
    real = accept.enumerate_space

    def planted(A, k):
        space = real(A, k)
        if (A.label, k) != (label, kind):
            return space
        return spectra._build_space(A, k, space.point_masks + (mask,))

    monkeypatch.setattr(accept, "enumerate_space", planted)


def test_closed_sets_suite_detects_a_sum_outside_the_union(monkeypatch):
    # planted defect: boolpair's spec gains {(0,0), (0,1), (1,0)}, closed
    # under products, so `_build_space` accepts it; it holds (0,1) and
    # (1,0) but not their sum (1,1)
    _plant_point(monkeypatch, "boolpair", "spec", 0b0111)
    assert accept._suite_closed_sets() == "boolpair/spec: sum identity fails"


def test_closed_sets_suite_detects_a_non_subtractive_point_of_sp(monkeypatch):
    # planted defect: boolx's sp gains its spec point {0, x, 1+x}, prime
    # but not subtractive: it holds 1 + x and x but not 1
    _plant_point(monkeypatch, "boolx", "sp", 13)
    assert accept._suite_closed_sets() == "boolx/sp: idempotent sum identity fails"


def test_criterion_8_detects_a_pullback_that_is_no_homeomorphism(monkeypatch):
    # planted defect: chain3's comparison reports that the point map does
    # not send the opens of its lattice onto those of chain3
    real = accept.vstar_homeo_check

    def planted(lat):
        rep = real(lat)
        return rep._replace(openness=False) if lat.base.label == "chain3" else rep

    monkeypatch.setattr(accept, "vstar_homeo_check", planted)
    r = accept.criterion_8()
    assert not r.passed and r.detail.startswith("chain3: homeo")


def test_criterion_8_detects_a_localization_that_is_no_isomorphism(monkeypatch):
    # planted defect: M(A_a) and M(A)_<a> differ at chain4's top element
    real = accept.mra_localization_iso_check

    def planted(lat, a):
        A = lat.base
        return real(lat, a) and not (A.label == "chain4" and a == A.size - 1)

    monkeypatch.setattr(accept, "mra_localization_iso_check", planted)
    r = accept.criterion_8()
    assert not r.passed and r.detail.startswith("chain4: localization iso fails at")


def test_criterion_8_needs_six_lattices(monkeypatch):
    # planted defect: only five lattices fit under the cap, and each
    # passes every check
    real, kept = accept.build_mra, ("bool2", "boolnil", "boolpair", "boolx", "chain3")

    def planted(A):
        if A.label not in kept:
            raise ResourceError(f"{A.label}: over the cap")
        return real(A)

    monkeypatch.setattr(accept, "build_mra", planted)
    r = accept.criterion_8()
    assert not r.passed
    assert r.detail.startswith("lattices bool2(2), boolnil(7), boolpair(7), boolx(7), chain3(4);")


def test_criterion_9_detects_a_soft_section_table_of_a_cover(monkeypatch):
    # planted defect: boolx's sweep also returns boolx itself, whose 1 + x
    # is semi-invertible but no unit
    real = accept._sheaf_sweep

    def planted(ctx):
        tables = real(ctx)
        return tables + [corpus.get("boolx")] if ctx.A.label == "boolx" else tables

    monkeypatch.setattr(accept, "_sheaf_sweep", planted)
    r = accept.criterion_9()
    assert not r.passed and r.detail == "boolx not hard"


def test_criterion_9_detects_global_sections_that_are_not_hard(monkeypatch):
    # planted defect: the global sections of chain3 over its own sp read
    # as soft; no other table does
    sections, hard = accept.alexandrov_sections, accept.is_hard
    planted_tables = []

    def recording(ctx, open_set):
        al = sections(ctx, open_set)
        if ctx.A.label == "chain3" and open_set == ctx.space.full:
            planted_tables.append(al.table)
        return al

    monkeypatch.setattr(accept, "alexandrov_sections", recording)
    monkeypatch.setattr(
        accept, "is_hard", lambda T: hard(T) and not any(T is P for P in planted_tables)
    )
    r = accept.criterion_9()
    assert planted_tables and not r.passed and r.detail == "chain3: global sections not hard"


def test_criterion_9_detects_a_point_map_that_is_not_onto(monkeypatch):
    # planted defect: the spectrum map of chain4's hardening misses a point
    real = accept.localization_point_report

    def planted(loc, kind):
        rep = real(loc, kind)
        return {**rep, "onto": False} if loc.base.label == "chain4" else rep

    monkeypatch.setattr(accept, "localization_point_report", planted)
    r = accept.criterion_9()
    assert not r.passed and r.detail == "chain4: point homeo fails"


def test_criterion_9_detects_a_section_map_that_is_not_bijective(monkeypatch):
    # planted defect: along boolpair's hardening, the sections over each
    # principal open of more than one section all go to the first image
    real = accept.sections_along

    def planted(phi, src, dst):
        h = real(phi, src, dst)
        if phi.dom.label != "boolpair" or h.dom.size == 1:
            return h
        return h._replace(images=(h.images[0],) * h.dom.size)

    monkeypatch.setattr(accept, "sections_along", planted)
    r = accept.criterion_9()
    assert not r.passed and r.detail.startswith("boolpair: sections differ at")
