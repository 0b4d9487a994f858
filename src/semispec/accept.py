"""The ten headline checks, one callable per claim, shared by the test
suite and the command-line `verify` subcommand.

Each check computes its facts through the public modules and returns a
result record. Criteria run in one process share each corpus object's
memo (its axiom verdict, primes and product rows), so a fact one criterion
derived is not derived again by the next; a fresh process derives
everything again. Randomized samples use fixed seeds so repeated runs are
byte-identical.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from . import corpus, poly
from .errors import ResourceError
from .ideals import (
    all_ideals,
    is_ideal,
    is_prime,
    is_subtractive,
    radical_equals_prime_intersection,
)
from .kernel import (
    FiniteSemiring,
    enumerate_homs,
    is_idempotent,
    mask_of,
)
from .localize import (
    MINMAX_ZERO,
    BxFraction,
    bx_frac_add,
    bx_frac_mul,
    bx_hardening_iso,
    bx_witness_equal,
    harden,
    is_hard,
    is_mult_submonoid,
    localize,
    minmax_add,
    minmax_mul,
    natural_map,
)
from .presented import (
    Bound,
    _Closure,
    counterexample_presentation,
    evaluate,
    is_model,
    localized_images_equal,
    parse_term,
    separating_model,
)
from .sheaf import (
    SheafContext,
    alexandrov_sections,
    equalizer_sections,
    glue_section,
    ktt_counterexample_verify,
    sections_along,
)
from .spectra import (
    SpectrumSpace,
    cover_check,
    dimension,
    enumerate_space,
    localization_point_report,
    nat_model_verify,
    nat_spectrum,
)
from .valuation import (
    bool_valuations,
    build_mra,
    factor_through_universal,
    mra_localization_iso_check,
    vstar_homeo_check,
)


class CheckResult(NamedTuple):
    number: int
    ident: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.number:2d} {self.ident}: {self.detail}"


# ---------------------------------------------------------------------------
# 1: the naturals model


def criterion_1() -> CheckResult:
    rep = nat_model_verify(bound=200)
    dims = (dimension(nat_spectrum(200, "spec")), dimension(nat_spectrum(200, "sp")))
    ok = rep["pass"] and dims == (2, 1)
    return CheckResult(
        1,
        "spec-nat",
        ok,
        f"classification {rep['pass']}, dimensions spec={dims[0]} sp={dims[1]}",
    )


# ---------------------------------------------------------------------------
# 2: boolean polynomial kernel spectra


def criterion_2() -> CheckResult:
    ok = True
    counts = []
    for n in range(1, 5):
        monomials = poly.squarefree_monomials(n)
        kernels = set()
        for point in itertools.product((0, 1), repeat=n):
            van = poly.vanishing_set(monomials, point)
            zeros = frozenset(j for j in range(n) if not point[j])
            if van != poly.monomial_kernel_set(monomials, zeros):
                ok = False
            kernels.add(van)
        counts.append(len(kernels))
        if len(kernels) != 2**n:
            ok = False
    return CheckResult(
        2, "bool-poly-sp", ok, f"kernel counts {counts} for n=1..4, want 2^n"
    )


# ---------------------------------------------------------------------------
# 3: hardening of the boolean polynomial semiring


def _random_bx_fraction(rng: random.Random, maxdeg: int) -> BxFraction:
    num = rng.getrandbits(maxdeg + 1)
    den = rng.getrandbits(maxdeg + 1) | 1
    return BxFraction(num, den)


def criterion_3() -> CheckResult:
    rng = random.Random(20260816)
    pairs, targets, maxdeg = 1000, 200, 6
    hom_ok = 0
    for _ in range(pairs):
        u = _random_bx_fraction(rng, maxdeg)
        v = _random_bx_fraction(rng, maxdeg)
        su, sv = bx_hardening_iso(u), bx_hardening_iso(v)
        if (
            bx_hardening_iso(bx_frac_add(u, v)) == minmax_add(su, sv)
            and bx_hardening_iso(bx_frac_mul(u, v)) == minmax_mul(su, sv)
        ):
            hom_ok += 1
    inj_ok = 0
    inj_total = 0
    while inj_total < pairs:
        u = _random_bx_fraction(rng, maxdeg)
        v = _random_bx_fraction(rng, maxdeg)
        if bx_hardening_iso(u) == bx_hardening_iso(v):
            continue
        inj_total += 1
        if not bx_witness_equal(u, v):
            inj_ok += 1
    surj_ok = 0
    for _ in range(targets):
        n = rng.randrange(0, 12)
        d = rng.randrange(-8, 12)
        if d >= n:
            num = 0
            for k in range(n, d + 1):
                num |= 1 << k
            pre = BxFraction(num, 1)
        else:
            pre = BxFraction(1 << n, (1 << (n - d)) | 1)
        if bx_hardening_iso(pre) == (n, d):
            surj_ok += 1
    zero_ok = bx_hardening_iso(BxFraction(0, 1)) == MINMAX_ZERO
    ok = hom_ok == pairs and inj_ok == pairs and surj_ok == targets and zero_ok
    return CheckResult(
        3,
        "bx-hardening",
        ok,
        f"hom {hom_ok}/{pairs}, injective {inj_ok}/{pairs}, "
        f"surjective {surj_ok}/{targets}, distinguished point {zero_ok}",
    )


# ---------------------------------------------------------------------------
# 4 and 9: the sheaf lemma sweep and its hardness variant


def _distinct_open_reps(space: SpectrumSpace) -> List[int]:
    reps: Dict[int, int] = {}
    for a, d in enumerate(space.basis):
        reps.setdefault(d, a)
    return sorted(reps.values())


def _families(space: SpectrumSpace, reps: List[int]) -> Iterator[Tuple[List[int], int]]:
    """Each nonempty subfamily of reps with the union of its basic opens."""
    basis = space.basis
    for code in range(1, 1 << len(reps)):
        fam = [c for i, c in enumerate(reps) if (code >> i) & 1]
        union = 0
        for c in fam:
            union |= basis[c]
        yield fam, union


def _principal_covers(space: SpectrumSpace, target: int) -> List[List[int]]:
    want = space.basis[target]
    inside = [c for c in _distinct_open_reps(space) if space.basis[c] & ~want == 0]
    return [fam for fam, union in _families(space, inside) if union == want]


def _sheaf_sweep(ctx: SheafContext) -> Tuple[List[FiniteSemiring], List[str]]:
    """Runs every principal cover of every principal open of one context;
    returns the section tables, one per cover, and the failure notes."""
    space = ctx.space
    failures: List[str] = []
    tables: List[FiniteSemiring] = []
    for target in _distinct_open_reps(space):
        for fam in _principal_covers(space, target):
            secs = equalizer_sections(ctx, fam, target=target)
            tables.append(secs.table)
            if ctx.kind == "spec":
                if space.basis[target] == space.full and not secs.from_base.is_bijective():
                    failures.append(f"{ctx.A.label}: global sections differ")
                for tup in secs.tuples:
                    glue_section(secs, tup)
    return tables, failures


def criterion_4() -> CheckResult:
    members = corpus.members(max_size=8)
    covers = 0
    failures: List[str] = []
    stalk_notes = []
    for A in members:
        ctx = SheafContext(A, "spec")
        tables, notes = _sheaf_sweep(ctx)
        covers += len(tables)
        failures += notes
        al = alexandrov_sections(ctx, ctx.space.full)
        for i in al.points:
            fresh = localize(A, A.full_mask ^ ctx.space.point_masks[i])
            if not natural_map(al.stalk(i), fresh).is_bijective():
                stalk_notes.append(f"{A.label} point {i}")
    ok = not failures and not stalk_notes and len(members) >= 6
    detail = (
        f"{covers} principal covers over {len(members)} semirings, "
        f"all comparisons isomorphisms, stalks match localizations"
    )
    if failures or stalk_notes:
        detail = "; ".join(failures + stalk_notes)
    return CheckResult(4, "sheaf-lemma", ok, detail)


def criterion_5() -> CheckResult:
    rep = ktt_counterexample_verify()
    ok = rep["status"] == "pass"
    return CheckResult(
        5, "ktt", ok, f"{len(rep['witnesses'])} exact checks, status {rep['status']}"
    )


def criterion_6() -> CheckResult:
    pres = counterexample_presentation()
    g = pres.gens
    s, t = parse_term("1+x*y", g), parse_term("x+y", g)
    closure6 = _Closure(pres, Bound(degree=6, coeff=6))
    a6 = closure6.congruent(s, t)
    eqx, kx = localized_images_equal(closure6, s, t, "x")
    eqy, ky = localized_images_equal(closure6, s, t, "y")
    a8 = _Closure(pres, Bound(degree=8, coeff=8)).congruent(s, t)
    # a finite model proves the pair distinct; the one found is re-checked
    model = separating_model(pres, s, t, corpus.members(max_size=8))
    separated = (
        model is not None
        and is_model(*model, pres)
        and evaluate(*model, s) != evaluate(*model, t)
    )
    ok = (
        separated
        and a6.verdict == "no-at-bound"
        and a8.verdict == "no-at-bound"
        and eqx
        and kx == 1
        and eqy
        and ky == 1
    )
    return CheckResult(
        6,
        "sp-injectivity",
        ok,
        f"pair verdict {a6.verdict} (bound 6) / {a8.verdict} (bound 8), "
        f"localized equal at x with k={kx}, at y with k={ky}",
    )


def criterion_7() -> CheckResult:
    checked = 0
    bad = []
    for A in corpus.members(max_size=8, include_trivial=True):
        ideals = all_ideals(A)
        primes = [I for I in ideals if is_prime(A, I)]
        for I in ideals:
            checked += 1
            if not radical_equals_prime_intersection(A, I, primes):
                bad.append(f"{A.label}:{I:b}")
    ok = not bad and checked > 0
    detail = f"{checked} ideals, radical = prime intersection everywhere"
    if bad:
        detail = "failed at " + ", ".join(bad[:5])
    return CheckResult(7, "radical", ok, detail)


def criterion_8() -> CheckResult:
    visited = []
    bad = []
    for A in corpus.members(max_size=16, include_trivial=True):
        if A.add[A.one][A.one] != A.one:
            continue  # the pinned line lists the idempotent members' lattices only
        try:
            lat = build_mra(A)
        except ResourceError:
            continue
        visited.append(f"{A.label}({lat.table.size})")
        rep = vstar_homeo_check(lat)
        if not rep.ok:
            bad.append(f"{A.label}: homeo {rep}")
            continue
        for v in bool_valuations(A):
            factor_through_universal(lat, v)
        for a in A.elements:
            if not mra_localization_iso_check(lat, a):
                bad.append(f"{A.label}: localization iso fails at {A.name_of(a)}")
    ok = not bad and len(visited) >= 6
    detail = f"lattices {', '.join(visited)}; homeo+factoring+localization all pass"
    if bad:
        detail = "; ".join(bad[:5])
    return CheckResult(8, "universal-valuation", ok, detail)


def criterion_9() -> CheckResult:
    # the sweep notes failures on spec only
    tables: List[FiniteSemiring] = []
    gammas_hard = True
    match_notes = []
    for A in corpus.members(max_size=8):
        ctx_a = SheafContext(A, "sp")
        tables += _sheaf_sweep(ctx_a)[0]
        H = harden(A)
        rep = localization_point_report(H, "sp")
        if not (rep["pass"] and rep["onto"]):
            match_notes.append(f"{A.label}: point homeo fails")
            continue
        ctx_h = SheafContext(H.table, "sp")
        for a in _distinct_open_reps(ctx_a.space):
            sa = alexandrov_sections(ctx_a, ctx_a.space.basis[a])
            if ctx_a.space.basis[a] == ctx_a.space.full and not is_hard(sa.table):
                gammas_hard = False
            sh = alexandrov_sections(ctx_h, ctx_h.space.basis[H.phi(a)])
            if not sections_along(H.phi, sa, sh).is_bijective():
                match_notes.append(f"{A.label}: sections differ at {A.name_of(a)}")
    soft = [t for t in tables if not is_hard(t)]
    ok = not soft and gammas_hard and not match_notes
    detail = (
        f"{len(tables)} sp covers, {len(tables)} section semirings all hard, "
        f"hardening preserves the space and every principal-open section semiring"
    )
    if not ok:
        notes = [f"{t.label} not hard" for t in soft[:3]] + match_notes
        detail = "; ".join(notes[:6])
    return CheckResult(9, "hardness", ok, detail)


# ---------------------------------------------------------------------------
# 10: property suites


def _suite_closed_sets() -> Optional[str]:
    for A in corpus.members(max_size=8):
        for kind in ("spec", "sp"):
            # the opens are a lattice on every space, with nothing to
            # check: `opens()` is every union of basis opens, so closed
            # under union, and the meet distributes over the union with
            # D(a) & D(b) = D(ab), which `_build_space` asserts
            space = enumerate_space(A, kind)
            for a in A.elements:
                for b in A.elements:
                    s = space.basis[A.add[a][b]]
                    if s & ~(space.basis[a] | space.basis[b]):
                        return f"{A.label}/{kind}: sum identity fails"
                    if (
                        kind == "sp"
                        and is_idempotent(A)
                        and s != space.basis[a] | space.basis[b]
                    ):
                        return f"{A.label}/sp: idempotent sum identity fails"
    return None


def _suite_covers() -> Optional[str]:
    # cover_check raises on its own cross-checks: sites 28-30 of tests/check_sites.json
    for A in corpus.members(max_size=6):
        for kind in ("spec", "sp"):
            space = enumerate_space(A, kind)
            reps = _distinct_open_reps(space)
            for target in [None] + reps:
                for fam, _union in _families(space, reps):
                    cover_check(space, fam, target)
    return None


def _suite_preimages() -> Optional[str]:
    small = corpus.members(max_size=5)
    # each B's ideals, with whether each is prime and subtractive, once
    lattices = [
        [(J, is_prime(B, J), is_subtractive(B, J)) for J in all_ideals(B)] for B in small
    ]
    for A in small:
        for B, ideals in zip(small, lattices):
            homs = enumerate_homs(A, B)
            for f in homs[:50]:
                for J, prime, subtractive in ideals:
                    pre = mask_of(a for a in A.elements if (J >> f.images[a]) & 1)
                    if not is_ideal(A, pre):
                        return f"{A.label}->{B.label}: preimage not an ideal"
                    if prime and pre != A.full_mask and not is_prime(A, pre):
                        return f"{A.label}->{B.label}: preimage not prime"
                    if subtractive and not is_subtractive(A, pre):
                        return f"{A.label}->{B.label}: preimage not subtractive"
    return None


def _suite_witness_transitivity() -> Optional[str]:
    # finite side: the canonical-class relation is checked against the raw
    # witness scan inside localize for every multiplicative submonoid
    count = 0
    for A in corpus.members(max_size=6):
        for code in range(1 << A.size):
            if not (code >> A.one) & 1:
                continue
            if not is_mult_submonoid(A, code):
                continue
            localize(A, code)
            count += 1
    if count == 0:
        return "no submonoids visited"
    # fraction side: u~v and v~w forces u~w on triples drawn independently
    # from one hardening fiber (ord o, deg num - deg den = d), degrees <= 7
    rng = random.Random(99)
    for _ in range(200):
        o = rng.randrange(8)
        d = rng.randrange(o - 7, 8)
        fiber = []
        for _ in range(3):
            dd = rng.randrange(max(0, o - d), min(7, 7 - d) + 1)
            num = (rng.getrandbits(dd + d + 1) | 1 << (dd + d)) >> o << o | 1 << o
            fiber.append(BxFraction(num, rng.getrandbits(dd + 1) | 1 << dd | 1))
        u, v, w = fiber
        if not (
            bx_witness_equal(u, v)
            and bx_witness_equal(v, w)
            and bx_witness_equal(u, w)
        ):
            return f"fraction transitivity fails at {u}"
    return None


def criterion_10() -> CheckResult:
    suites: List[Tuple[str, Callable[[], Optional[str]]]] = [
        ("closed-sets", _suite_closed_sets),
        ("covers", _suite_covers),
        ("preimages", _suite_preimages),
        ("witness-transitivity", _suite_witness_transitivity),
    ]
    notes = []
    for name, fn in suites:
        r = fn()
        if r is not None:
            notes.append(f"{name}: {r}")
    ok = not notes
    detail = (
        f"{len(suites)} suites exhaustive over the corpus"
        if ok
        else "; ".join(notes)
    )
    return CheckResult(10, "property-suites", ok, detail)


# ---------------------------------------------------------------------------
# registry


CRITERIA: List[Tuple[int, str, Callable[[], CheckResult]]] = [
    (1, "spec-nat", criterion_1),
    (2, "bool-poly-sp", criterion_2),
    (3, "bx-hardening", criterion_3),
    (4, "sheaf-lemma", criterion_4),
    (5, "ktt", criterion_5),
    (6, "sp-injectivity", criterion_6),
    (7, "radical", criterion_7),
    (8, "universal-valuation", criterion_8),
    (9, "hardness", criterion_9),
    (10, "property-suites", criterion_10),
]

IDENTS = {ident: fn for _n, ident, fn in CRITERIA}


def run_criterion(ident: str) -> CheckResult:
    if ident not in IDENTS:
        from .errors import UnknownNameError

        raise UnknownNameError(
            f"unknown check {ident!r}; known: {', '.join(sorted(IDENTS))}"
        )
    return IDENTS[ident]()


def run_all() -> List[CheckResult]:
    return [fn() for _n, _ident, fn in CRITERIA]
