"""Acceptance gate: every shipped claim, one pass/fail line each.

Each criterion prints its `[PASS]`/`[FAIL]` line (visible with `pytest -s`
or on failure) and the test asserts the verdict, so a red line here is a
red test. Each line must also equal its line in data/verify_all.txt, the
pinned output of `semispec verify all`.
"""

from pathlib import Path

import pytest

from semispec import accept, presented, spectra

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
