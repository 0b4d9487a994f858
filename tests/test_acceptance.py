"""Acceptance gate: every shipped claim, one pass/fail line each.

Each criterion prints its `[PASS]`/`[FAIL]` line (visible with `pytest -s`
or on failure) and the test asserts the verdict, so a red line here is a
red test. Each line must also equal its line in data/verify_all.txt, the
pinned output of `semispec verify all`.
"""

from pathlib import Path

import pytest

from semispec import accept, presented

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
