"""The ten headline checks, one callable per claim, shared by the test
suite and the command-line `verify` subcommand.

Each check recomputes its facts from scratch through the public modules
and returns a result record; nothing here caches across calls. Randomized
samples use fixed seeds so repeated runs are byte-identical.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from . import corpus, poly
from .errors import ResourceError
from .ideals import (
    all_ideals,
    ideal_closure,
    is_ideal,
    is_prime,
    is_subtractive,
    radical_equals_prime_intersection,
)
from .kernel import (
    FiniteSemiring,
    bits,
    enumerate_homs,
    find_iso,
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
)
from .presented import (
    Bound,
    build_index,
    congruent,
    counterexample_presentation,
    localized_images_equal,
    parse_term,
)
from .sheaf import (
    SheafContext,
    alexandrov_sections,
    equalizer_sections,
    gamma,
    glue_section,
    ktt_counterexample_verify,
)
from .spectra import (
    NatSpectrumModel,
    cover_check,
    hardening_sp_homeo_check,
    nat_model_verify,
)
from .valuation import (
    build_mra,
    factor_through_universal,
    mra_localization_iso_check,
    val_spec_bijection,
    vstar_homeo_check,
)


@dataclass
class CheckResult:
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
    dims = (
        NatSpectrumModel(200, "spec").dimension(),
        NatSpectrumModel(200, "sp").dimension(),
    )
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
        uni = poly.squarefree_universe(n)
        kernels = set()
        for point in itertools.product((0, 1), repeat=n):
            van = poly.vanishing_set(uni, point)
            zeros = frozenset(j for j in range(n) if not point[j])
            if van != poly.monomial_kernel_set(uni, zeros):
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


def criterion_3(pairs: int = 1000, targets: int = 200) -> CheckResult:
    rng = random.Random(20260816)
    maxdeg = 6
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


def _distinct_open_reps(ctx: SheafContext) -> List[int]:
    reps: Dict[int, int] = {}
    for a in ctx.A.elements:
        reps.setdefault(ctx.space.basis[a], a)
    return sorted(reps.values())


def _principal_covers(ctx: SheafContext, target: int) -> List[List[int]]:
    space = ctx.space
    want = space.basis[target]
    inside = [c for c in _distinct_open_reps(ctx) if space.basis[c] & ~want == 0]
    out = []
    for code in range(1, 1 << len(inside)):
        fam = [inside[i] for i in range(len(inside)) if (code >> i) & 1]
        union = 0
        for c in fam:
            union |= space.basis[c]
        if union == want:
            out.append(fam)
    return out


def _sheaf_sweep(kind: str) -> Tuple[int, int, List[FiniteSemiring], List[str]]:
    """Runs every principal cover of every principal open over the small
    corpus; returns (covers run, semirings visited, section tables,
    failure notes)."""
    failures: List[str] = []
    tables: List[FiniteSemiring] = []
    covers = 0
    members = corpus.members(max_size=8, min_size=2)
    for A in members:
        ctx = SheafContext(A, kind)
        for target in _distinct_open_reps(ctx):
            for fam in _principal_covers(ctx, target):
                secs = equalizer_sections(ctx, fam, target=target)
                covers += 1
                tables.append(secs.table)
                if kind == "spec":
                    if not secs.compare_is_iso:
                        failures.append(f"{A.label}: comparison not iso")
                    if ctx.space.basis[target] == ctx.space.full:
                        if not secs.from_base.is_bijective():
                            failures.append(f"{A.label}: global sections differ")
                    for tup in secs.tuples:
                        glue_section(secs, tup)
    return covers, len(members), tables, failures


def criterion_4() -> CheckResult:
    covers, nsemirings, _tables, failures = _sheaf_sweep("spec")
    stalk_notes = []
    for A in corpus.members(max_size=8, min_size=2):
        ctx = SheafContext(A, "spec")
        al = alexandrov_sections(ctx, ctx.space.full)
        for i in al.points:
            fresh = localize(A, A.full_mask ^ ctx.space.point_masks[i])
            if find_iso(al.stalk(i).table, fresh.table) is None:
                stalk_notes.append(f"{A.label} point {i}")
    ok = not failures and not stalk_notes and nsemirings >= 6
    detail = (
        f"{covers} principal covers over {nsemirings} semirings, "
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
    bound6 = Bound(degree=6, coeff=6)
    a6 = congruent(build_index(pres, bound6), s, t)
    eqx, kx = localized_images_equal(pres, s, t, "x", bound6)
    eqy, ky = localized_images_equal(pres, s, t, "y", bound6)
    idx8 = build_index(pres, Bound(degree=8, coeff=8))
    a8 = congruent(idx8, s, t)
    ok = (
        a6.verdict == "no-at-bound"
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
    for A in corpus.members(max_size=8, min_size=1, include_trivial=True):
        ideals = all_ideals(A)
        primes = [I for I in ideals if is_prime(I)]
        for I in ideals:
            checked += 1
            if not radical_equals_prime_intersection(I, primes):
                bad.append(f"{A.label}:{I.mask:b}")
    ok = not bad and checked > 0
    detail = f"{checked} ideals, radical = prime intersection everywhere"
    if bad:
        detail = "failed at " + ", ".join(bad[:5])
    return CheckResult(7, "radical", ok, detail)


def criterion_8() -> CheckResult:
    visited = []
    bad = []
    for A in corpus.members(max_size=16, min_size=1, include_trivial=True):
        if A.add[A.one][A.one] != A.one:
            continue  # {0, 1} is no subsemiring, so no submodule lattice
        try:
            lat = build_mra(A)
        except ResourceError:
            continue
        visited.append(f"{A.label}({lat.table.size})")
        rep = vstar_homeo_check(lat)
        if not rep.ok:
            bad.append(f"{A.label}: homeo {rep}")
            continue
        for v, _ker in val_spec_bijection(A):
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
    covers, _n, tables, failures = _sheaf_sweep("sp")
    soft = [t for t in tables if not is_hard(t)]
    gammas_hard = True
    match_notes = []
    for A in corpus.members(max_size=8, min_size=2):
        g = gamma(A)
        if not is_hard(g.table):
            gammas_hard = False
        if not hardening_sp_homeo_check(A):
            match_notes.append(f"{A.label}: point homeo fails")
            continue
        H = harden(A)
        ctx_a = SheafContext(A, "sp")
        ctx_h = SheafContext(H.table, "sp")
        for a in _distinct_open_reps(ctx_a):
            sa = alexandrov_sections(ctx_a, ctx_a.space.basis[a])
            sh = alexandrov_sections(
                ctx_h, ctx_h.space.basis[H.phi.images[a]]
            )
            if find_iso(sa.table, sh.table) is None:
                match_notes.append(f"{A.label}: sections differ at {A.name_of(a)}")
    ok = not failures and not soft and gammas_hard and not match_notes
    detail = (
        f"{covers} sp covers, {len(tables)} section semirings all hard, "
        f"hardening preserves the space and every principal-open section semiring"
    )
    if not ok:
        notes = failures + [f"{t.label} not hard" for t in soft[:3]] + match_notes
        detail = "; ".join(notes[:6])
    return CheckResult(9, "hardness", ok, detail)


# ---------------------------------------------------------------------------
# 10: property suites


def _suite_closed_sets() -> Optional[str]:
    for A in corpus.members(max_size=8, min_size=2):
        for kind in ("spec", "sp"):
            ctx = SheafContext(A, kind)
            space = ctx.space
            opens = set(space.opens())
            for o1 in opens:
                for o2 in opens:
                    if (o1 | o2) not in opens or (o1 & o2) not in opens:
                        return f"{A.label}/{kind}: opens not a lattice"
            for a in A.elements:
                for b in A.elements:
                    if space.basis[A.mul[a][b]] != space.basis[a] & space.basis[b]:
                        return f"{A.label}/{kind}: product identity fails"
                    s = space.basis[A.add[a][b]]
                    if s & ~(space.basis[a] | space.basis[b]):
                        return f"{A.label}/{kind}: sum identity fails"
                    if (
                        kind == "sp"
                        and is_idempotent(A)
                        and s != space.basis[a] | space.basis[b]
                    ):
                        return f"{A.label}/sp: idempotent sum identity fails"
            for a in A.elements:
                if space.basis[A.mul[a][a]] != space.basis[a]:
                    return f"{A.label}/{kind}: square changes the open"
    return None


def _suite_covers() -> Optional[str]:
    for A in corpus.members(max_size=6, min_size=2):
        for kind in ("spec", "sp"):
            ctx = SheafContext(A, kind)
            space = ctx.space
            reps = _distinct_open_reps(ctx)
            for target in [None] + reps:
                want = space.full if target is None else space.basis[target]
                for code in range(1, 1 << len(reps)):
                    fam = [reps[i] for i in range(len(reps)) if (code >> i) & 1]
                    union = 0
                    for c in fam:
                        union |= space.basis[c]
                    got = cover_check(space, fam, target)
                    if got != (want & ~union == 0):
                        return f"{A.label}/{kind}: cover criteria mismatch"
    return None


def _suite_preimages() -> Optional[str]:
    small = corpus.members(max_size=5, min_size=2)
    for A in small:
        for B in small:
            homs = enumerate_homs(A, B)
            for f in homs[:50]:
                for J in all_ideals(B):
                    pre = mask_of(
                        a for a in A.elements if (J.mask >> f.images[a]) & 1
                    )
                    handle = ideal_closure(A, list(bits(pre)))
                    if handle.mask != pre or not is_ideal(A, pre):
                        return f"{A.label}->{B.label}: preimage not an ideal"
                    if is_prime(J) and pre != A.full_mask and not is_prime(handle):
                        return f"{A.label}->{B.label}: preimage not prime"
                    if is_subtractive(J) and not is_subtractive(handle):
                        return f"{A.label}->{B.label}: preimage not subtractive"
    return None


def _suite_witness_transitivity() -> Optional[str]:
    # finite side: the canonical-class relation is checked against the raw
    # witness scan inside localize for every multiplicative submonoid
    count = 0
    for A in corpus.members(max_size=6, min_size=2):
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
