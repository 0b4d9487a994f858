"""Structure sheaves on finite spectra, plus the classical ring-side
witness that the localization presheaf need not be a sheaf.

Sections are computed two ways:
  equalizer route    compatible fraction families over a principal cover,
                     the equalizer of the product of overlap restrictions;
  alexandrov route   limits of the presheaf over minimal opens (finite
                     spectra are Alexandrov), which is the sheafified value
                     on any open.
Both build their rows by one rule, `_overlap_rows`: two components are
compatible when they restrict to one class on the overlap of their opens.
The two routes are not compared with each other. What is checked: each
equalizer table against the localization at its target, through the
comparison map, which on the all-primes spectrum is asserted to be an
isomorphism and on the subtractive-primes spectrum is computed and
reported, never assumed; each family glued over an all-primes cover,
whose glued section must restrict to every component; and, in criterion
4, each stalk of the alexandrov route against a fresh localization at
the complement of its prime; in criterion 9, A's sections over each
principal open against its hardening's, by `sections_along` phi. Every
map out of a localization is `localize.map_classes`, which checks that
it is well defined on every fraction and a hom: the restrictions, the
stalk comparison, and each component of a map of sections.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InternalCheckError, PreconditionError
from .kernel import (
    FiniteSemiring,
    Homomorphism,
    bits,
    mask_of,
    powers,
    row_picker,
    units,
)
from .localize import (
    LocalizedSemiring,
    _powers_mask,
    localize,
    map_classes,
    natural_map,
    saturate,
    semi_invertibles_mask,
)
from .spectra import cover_check, enumerate_space, pullback
from . import poly


# ---------------------------------------------------------------------------
# monoids of opens and the presheaf cache


Certificate = Tuple[int, Tuple[Tuple[int, int], ...]]


class SheafContext:
    """Caches the spectrum, the monoid of each open and of each principal
    open, localizations and restriction maps for one (semiring, kind) pair,
    and the arithmetic of gluing: each division of a power, and each
    certificate that a power of a target is a combination of denominators."""

    def __init__(self, A: FiniteSemiring, kind: str):
        self.A = A
        self.kind = kind
        self.space = enumerate_space(A, kind)
        self._monoids: Dict[int, int] = {}
        self._principal: Dict[int, int] = {}
        self._locs: Dict[int, LocalizedSemiring] = {}
        self._restr: Dict[Tuple[int, int], Homomorphism] = {}
        self._divisions: Dict[Tuple[int, int], Tuple[int, int]] = {}
        self._certificates: Dict[Tuple[Tuple[int, ...], int], Optional[Certificate]] = {}

    # -- opens ---------------------------------------------------------------
    def is_open(self, point_set: int) -> bool:
        cov = 0
        for a in self.A.elements:
            b = self.space.basis[a]
            if b & ~point_set == 0:
                cov |= b
        return cov == point_set

    def monoid_of(self, point_set: int) -> int:
        """S_U = {b : D(b) contains U}: a saturated submonoid, since
        `spectra._build_space` asserts D(ab) = D(a) & D(b) and no point
        holds 1."""
        if point_set in self._monoids:
            return self._monoids[point_set]
        A = self.A
        m = mask_of(
            b for b in A.elements if self.space.basis[b] & point_set == point_set
        )
        if point_set == self.space.full:
            expected = units(A) if self.kind == "spec" else semi_invertibles_mask(A)
            if m != expected:
                raise InternalCheckError(f"{A.label}: S of the whole space is wrong")
        self._monoids[point_set] = m
        return m

    def principal_monoid(self, a: int) -> int:
        """Monoid of D(a); on the all-primes spectrum this equals the
        saturation of the powers of a, and that identity is asserted once
        per element."""
        if a in self._principal:
            return self._principal[a]
        m = self.monoid_of(self.space.basis[a])
        if self.kind == "spec":
            if m != saturate(self.A, _powers_mask(self.A, a)):
                raise InternalCheckError(
                    f"{self.A.label}: S_D(a) is not the saturation of the powers"
                )
        self._principal[a] = m
        return m

    # -- presheaf ------------------------------------------------------------
    def local(self, s_mask: int) -> LocalizedSemiring:
        if s_mask not in self._locs:
            self._locs[s_mask] = localize(self.A, s_mask)
        return self._locs[s_mask]

    def presheaf_at(self, point_set: int) -> LocalizedSemiring:
        return self.local(self.monoid_of(point_set))

    def restriction(self, big: int, small: int) -> Homomorphism:
        """Presheaf restriction between the localizations of two nested
        opens (big contains small): the natural map a/s |-> a/s, built
        and checked once per pair of opens. S_big lies inside S_small."""
        if small & ~big:
            raise PreconditionError("restriction target is not contained")
        key = (big, small)
        if key not in self._restr:
            self._restr[key] = natural_map(self.presheaf_at(big), self.presheaf_at(small))
        return self._restr[key]

    # -- gluing arithmetic ---------------------------------------------------
    def divide_power(self, s: int, a: int) -> Tuple[int, int]:
        """(v, n) with s*v = a^n and n minimal, kept per (s, a). The caller
        knows that s divides a power of a."""
        key = (s, a)
        if key not in self._divisions:
            A = self.A
            self._divisions[key] = next(
                (v, n) for n, x in enumerate(powers(A, a))
                for v in A.elements if A.mul[s][v] == x
            )
        return self._divisions[key]

    def certificate(self, dens: Tuple[int, ...], target: int) -> Optional[Certificate]:
        """The first power x of target in the ideal generated by dens, with
        a combination ((j, c), ...) whose terms c*dens[j] sum to x; None
        when no power lies there. Kept per (dens, target): the families
        glued over one cover mostly share their denominators.

        A breadth-first closure from 0: combos[r] is built as combos[e]
        plus (j, c) with r = e + c*dens[j], so by induction the
        combination combos[r] sums to r, and needs no replay."""
        key = (dens, target)
        if key not in self._certificates:
            A = self.A
            combos: Dict[int, Tuple[Tuple[int, int], ...]] = {A.zero: ()}
            frontier = [A.zero]
            while frontier:
                nxt = []
                for e in frontier:
                    add_e = A.add[e]
                    for j, sj in enumerate(dens):
                        for c in A.elements:
                            r = add_e[A.mul[c][sj]]
                            if r not in combos:
                                combos[r] = combos[e] + ((j, c),)
                                nxt.append(r)
                frontier = nxt
            x = next((x for x in powers(A, target) if x in combos), None)
            self._certificates[key] = None if x is None else (x, combos[x])
        return self._certificates[key]


# ---------------------------------------------------------------------------
# equalizer sections


class SectionSemiring(NamedTuple):
    ctx: SheafContext
    cover: Tuple[int, ...]
    target: Optional[int]  # element whose principal open is covered; None = whole
    locs: List[LocalizedSemiring]
    tuples: List[Tuple[int, ...]]
    index: Dict[Tuple[int, ...], int]  # family -> its element of table
    table: FiniteSemiring
    from_base: Homomorphism  # A -> sections
    compare_is_iso: bool  # L(target) -> sections is bijective

    @property
    def base_injective(self) -> bool:
        return len(set(self.from_base.images)) == self.ctx.A.size


def equalizer_scan(
    sizes: Sequence[int],
    compat: Dict[Tuple[int, int], Sequence[int]],
) -> List[Tuple[int, ...]]:
    """All tuples (t_0..t_{k-1}), t_i < sizes[i], with t_j's bit set in
    compat[(i,j)][t_i] for every constrained pair i<j. Ascending order."""
    k = len(sizes)
    full = [(1 << s) - 1 for s in sizes]
    out: List[Tuple[int, ...]] = []
    tup: List[int] = []

    def dfs(depth: int, masks: List[int]) -> None:
        if depth == k:
            out.append(tuple(tup))
            return
        m = masks[depth]
        while m:
            bit = m & -m
            v = bit.bit_length() - 1
            m ^= bit
            nm = masks[:]
            ok = True
            for j in range(depth + 1, k):
                c = compat.get((depth, j))
                if c is not None:
                    nm[j] &= c[v]
                    if nm[j] == 0:
                        ok = False
                        break
            if ok:
                tup.append(v)
                dfs(depth + 1, nm)
                tup.pop()

    dfs(0, full)
    return out


def _agreeing(fi: Sequence[int], fj: Sequence[int]) -> List[int]:
    """Compatibility rows of two sections' components: row u is the mask
    of the v with fi[u] == fj[v], found by bucketing fj once."""
    bucket: Dict[int, int] = {}
    for v, y in enumerate(fj):
        bucket[y] = bucket.get(y, 0) | 1 << v
    return [bucket.get(x, 0) for x in fi]


def _overlap_rows(
    ctx: SheafContext, opens: Sequence[int], nested_only: bool
) -> Dict[Tuple[int, int], List[int]]:
    """Compatibility rows of components over `opens`: for each pair i < j,
    row u is the mask of the v whose restrictions to w = opens[i] & opens[j]
    agree. With nested_only, a pair counts only when w is one of its opens,
    whose restriction to itself is the identity, a checked `natural_map`."""
    compat: Dict[Tuple[int, int], List[int]] = {}
    for j, oj in enumerate(opens):
        for i, oi in enumerate(opens[:j]):
            w = oi & oj
            if not nested_only or w in (oi, oj):
                rows = ctx.restriction(oi, w).images, ctx.restriction(oj, w).images
                compat[(i, j)] = _agreeing(*rows)
    return compat


def _section_table(
    A: FiniteSemiring,
    locs: Sequence[LocalizedSemiring],
    compat: Dict[Tuple[int, int], List[int]],
    label: str,
) -> Tuple[List[Tuple[int, ...]], Dict[Tuple[int, ...], int], FiniteSemiring, Homomorphism]:
    """The compatible families of local sections (one per entry of locs,
    pairwise constrained by compat) as a semiring under the componentwise
    operations, with their index and the map from the base: a hom, as
    each component is a phi that `localize` checked. The image of a is a
    compatible family with no test: phi_i(a) is the class of (a, 1), and
    every restriction, a `natural_map`, sends each pair of a class to
    that pair's class, so the components restrict to the same class.

    Each row of the sum (product) table is composed from component rows:
    for the family f, component i of f + g over every family g is row f_i
    of the i-th sum table read at column i of the carrier, one
    `row_picker` per column. With no component, the empty open, the one
    family () is the whole table.

    The table gets no axiom scan. Its carrier lies in the product of the
    component tables, which `localize` checked, its operations are
    componentwise, and InternalCheckError names any 0, 1, sum or product
    that leaves the carrier; so it is a subsemiring of a product of
    semirings."""
    tables = [l.table for l in locs]
    tuples = equalizer_scan([T.size for T in tables], compat)
    index = {t: i for i, t in enumerate(tuples)}
    columns = [row_picker(col) for col in zip(*tuples)]

    def entry(t: Tuple[int, ...]) -> int:
        i = index.get(t)
        if i is None:
            raise InternalCheckError(f"{label}: value {t!r} is not in the carrier")
        return i

    def table_of(ops: List[Tuple[Tuple[int, ...], ...]]) -> Tuple[Tuple[int, ...], ...]:
        out = []
        for f in tuples:
            parts = [get(op[x]) for get, op, x in zip(columns, ops, f)]
            families = list(zip(*parts)) if parts else [()] * len(tuples)
            row = tuple(map(index.get, families))
            if None in row:
                entry(families[row.index(None)])
            out.append(row)
        return tuple(out)

    names = [
        "(" + ",".join(T.name_of(x) for T, x in zip(tables, t)) + ")" for t in tuples
    ]
    table = FiniteSemiring(
        size=len(tuples),
        zero=entry(tuple(T.zero for T in tables)),
        one=entry(tuple(T.one for T in tables)),
        add=table_of([T.add for T in tables]),
        mul=table_of([T.mul for T in tables]),
        label=label,
        names=tuple(names),
    )
    base_images = tuple(index[tuple(l.phi(a) for l in locs)] for a in A.elements)
    return tuples, index, table, Homomorphism(A, table, base_images)


def equalizer_sections(
    ctx: SheafContext, cover: Sequence[int], target: Optional[int] = None
) -> SectionSemiring:
    """Sections over the open covered by the principal opens of `cover`,
    computed as the equalizer of pairwise overlap restrictions.

    The comparison from the target localization sends x to the tuple of
    its restrictions to the cover members. That tuple is always a
    compatible family, since restricting on to an overlap sends x's
    representative to its class there whichever member it passed through,
    and the comparison is a hom, since the section operations are
    componentwise and each restriction is a checked hom. Only its
    bijectivity is left to decide."""
    A, space = ctx.A, ctx.space
    cover = tuple(cover)
    if not cover:
        raise PreconditionError("empty cover")
    want = space.full if target is None else space.basis[target]
    for c in cover:
        if space.basis[c] & ~want:
            raise PreconditionError("cover member is not inside the target open")
    if not cover_check(space, cover, target):
        raise PreconditionError("family does not cover the target open")

    locs = [ctx.local(ctx.principal_monoid(c)) for c in cover]
    compat = _overlap_rows(ctx, [space.basis[c] for c in cover], nested_only=False)
    tuples, index, table, from_base = _section_table(A, locs, compat, f"{A.label}-sections")

    ltgt = ctx.presheaf_at(want)
    rs = [ctx.restriction(want, space.basis[c]).images for c in cover]
    compare_is_iso = Homomorphism(
        ltgt.table, table, tuple(index[tuple(r[x] for r in rs)] for x in ltgt.table.elements)
    ).is_bijective()
    if ctx.kind == "spec" and not compare_is_iso:
        raise InternalCheckError(
            f"{A.label}: localization-to-equalizer comparison is not an isomorphism"
        )
    return SectionSemiring(
        ctx, cover, target, locs, tuples, index, table, from_base, compare_is_iso
    )


# ---------------------------------------------------------------------------
# the common-denominator sublemma and explicit gluing


def common_denominator_form(
    secs: SectionSemiring, tup: Tuple[int, ...]
) -> Tuple[List[Tuple[int, int]], int]:
    """Rewrite a compatible family as x_i'/a_i^E with the cross relations
    x_i'*s_j' = x_j'*s_i' holding exactly. All-primes spectra only.

    No step can fail, so none is checked; `glue_section` checks the result,
    since the section glued from it must restrict to the family.
    - Each denominator s of D(a_i), and each w in the monoid of the overlap
      D(a_i*a_j) = D(a_i) & D(a_j) (which `spectra` asserts), divides a
      power of its element: `principal_monoid` asserts that the monoid is
      the saturation of that element's powers.
    - x_i/s_i = y_i/a_i^n_i, where y_i = x_i*v and s_i*v = a_i^n_i, with
      witness 1; `localize` asserts that witnessed pairs share a class.
    - The family is compatible (on Spec every tuple is the image of the
      comparison map, which `equalizer_sections` asserts is bijective), so
      the restrictions of the classes of y_i/a_i^n_i and y_j/a_j^n_j to the
      overlap agree. Each restriction is a `natural_map`, which sends each
      pair to its class, and `localize` asserts that equal classes have a
      witness: some w in the overlap's monoid has
      y_i*a_j^n_j*w = y_j*a_i^n_i*w.
    - With w*t = (a_i*a_j)^m, m <= M and e = M + max n, multiplying that
      witness equation by t*a_i^(e-n_i-m)*a_j^(e-n_j-m) gives
      x_i'*s_j' = x_j'*s_i', for x_i' = y_i*a_i^(e-n_i) and s_i' = a_i^e,
      and x_i'/s_i' = y_i/a_i^n_i with witness 1."""
    ctx = secs.ctx
    if ctx.kind != "spec":
        raise PreconditionError("common denominators require the all-primes sheaf")
    A = ctx.A
    cover, locs = secs.cover, secs.locs
    k = len(cover)
    if tup not in secs.index:
        raise PreconditionError("tuple is not a compatible family")

    xs = [locs[i].reps[tup[i]][0] for i in range(k)]
    ss = [locs[i].reps[tup[i]][1] for i in range(k)]
    vn = [ctx.divide_power(ss[i], cover[i]) for i in range(k)]
    ys = [A.mul[xs[i]][vn[i][0]] for i in range(k)]
    ns = [vn[i][1] for i in range(k)]
    big_m = 0
    for i in range(k):
        for j in range(i + 1, k):
            lhs0 = A.mul[ys[i]][A.power(cover[j], ns[j])]
            rhs0 = A.mul[ys[j]][A.power(cover[i], ns[i])]
            aij = A.mul[cover[i]][cover[j]]
            w = next(
                w for w in bits(ctx.principal_monoid(aij))
                if A.mul[lhs0][w] == A.mul[rhs0][w]
            )
            big_m = max(big_m, ctx.divide_power(w, aij)[1])
    e = big_m + max(ns, default=0)
    xs2 = [A.mul[ys[i]][A.power(cover[i], e - ns[i])] for i in range(k)]
    return [(xs2[i], A.power(cover[i], e)) for i in range(k)], e


def glue_section(secs: SectionSemiring, tup: Tuple[int, ...]) -> int:
    """Reconstruct the global fraction of a compatible family: solve
    sum(b_j*s_j') = a^N over the cover denominators, return the class of
    sum(b_j*x_j') / a^N in the target localization.

    The solution is the context's `certificate` for the denominators,
    found once per (denominators, target) and shared by every family
    that has them. Each family's glued section is checked: it must
    restrict to the family's component on every cover member."""
    ctx = secs.ctx
    A = ctx.A
    pairs, _e = common_denominator_form(secs, tup)
    target = A.one if secs.target is None else secs.target
    want = ctx.space.full if secs.target is None else ctx.space.basis[secs.target]
    ltgt = ctx.presheaf_at(want)
    cert = ctx.certificate(tuple(s for _x, s in pairs), target)
    if cert is None:
        raise InternalCheckError("no power of the target is a combination")
    x, combo = cert
    num = A.zero
    for j, c in combo:
        num = A.add[num][A.mul[c][pairs[j][0]]]
    result = ltgt.class_of_pair(num, x)
    for i, c in enumerate(secs.cover):
        rho = ctx.restriction(want, ctx.space.basis[c])
        if rho.images[result] != tup[i]:
            raise InternalCheckError("glued section does not restrict correctly")
    return result


# ---------------------------------------------------------------------------
# alexandrov sections


class AlexandrovSections(NamedTuple):
    ctx: SheafContext
    open_set: int
    points: List[int]  # point indices inside the open
    locs: List[LocalizedSemiring]  # presheaf values at minimal opens
    tuples: List[Tuple[int, ...]]
    index: Dict[Tuple[int, ...], int]  # family -> its element of table
    table: FiniteSemiring
    from_base: Homomorphism

    def stalk(self, point_index: int) -> LocalizedSemiring:
        return self.locs[self.points.index(point_index)]


def alexandrov_sections(ctx: SheafContext, open_set: int) -> AlexandrovSections:
    """Sections over an arbitrary open as the limit of presheaf values at
    minimal opens, compatible along specialization. This is the sheafified
    value; on covered opens it must agree with the equalizer route. The
    monoid of the minimal open of a point p is A minus p on either
    spectrum: b outside p has D(b) among the opens intersected, and b in p
    has p in the minimal open but not in D(b). That open is the primes
    inside p, so two are nested exactly when their points are comparable,
    the only pairs `_overlap_rows` constrains here."""
    A, space = ctx.A, ctx.space
    if not ctx.is_open(open_set):
        raise PreconditionError("not an open set of this spectrum")
    pts = list(bits(open_set))
    minimal = [space.minimal_open(i) for i in pts]
    locs = [ctx.presheaf_at(m) for m in minimal]
    compat = _overlap_rows(ctx, minimal, nested_only=True)
    tuples, index, table, from_base = _section_table(A, locs, compat, f"{A.label}-limit-sections")
    return AlexandrovSections(ctx, open_set, pts, locs, tuples, index, table, from_base)


def sections_along(
    f: Homomorphism, src: AlexandrovSections, dst: AlexandrovSections
) -> Homomorphism:
    """The map of sections along f: A -> B, from A's over U (src) to B's
    over V (dst). Each point q of V is matched with f^-1(q) by `pullback`,
    and the component at q is a/s |-> f(a)/f(s), checked by `map_classes`.
    The operations of both section tables are componentwise, so the map
    is a hom once each family lands in dst's carrier. PreconditionError
    when some f^-1(q) lies outside U."""
    point_map = pullback(f.images, dst.ctx.space, src.ctx.space)
    comps = []
    for q, loc in zip(dst.points, dst.locs):
        if not (src.open_set >> point_map[q]) & 1:
            raise PreconditionError(f"{f.cod.label}: f^-1 of point {q} is not in U")
        i = src.points.index(point_map[q])
        h = map_classes(src.locs[i], loc.table, lambda a, s: loc.class_of_pair(f(a), f(s)))
        comps.append((i, h.images))
    images = tuple(dst.index.get(tuple(img[t[j]] for j, img in comps)) for t in src.tuples)
    if None in images:
        raise InternalCheckError(f"{f.cod.label}: a family maps outside the sections")
    return Homomorphism(src.table, dst.table, images)


# ---------------------------------------------------------------------------
# the ring-side failure witness


def ktt_counterexample_verify() -> dict:
    """Exact verification that the localization presheaf of the subring
    {f : degree-one coefficient 0} fails the sheaf equalizer condition on
    the cover by the two hyperbola opens."""
    # coefficient tuples, degree 0 first
    f1 = (0, 0, 1, 1)  # t^3+t^2
    f2 = (0, 0, 1, 1, 1)  # t^4+t^3+t^2
    g1 = (-1, 0, 1)  # t^2-1
    g2 = (-1, 0, 0, 1)  # t^3-1
    witnesses = []
    members_ok = all(poly.ktt_member(f) for f in (f1, f2, g1, g2))
    witnesses.append({"check": "numerators and denominators in the subring",
                      "ok": members_ok})
    cross = poly.int_mul(f1, g2) == poly.int_mul(f2, g1)
    witnesses.append({"check": "equalizer condition f1*g2 = f2*g1", "ok": cross})
    no_poly_preimage = poly.int_rem(f1, g1) != ()
    witnesses.append(
        {"check": "t^3+t^2 not divisible by t^2-1 in Q[t]", "ok": no_poly_preimage}
    )
    # the would-be section in lowest terms: t^2 over t-1, not a polynomial
    t2, tm1, tp1 = (0, 0, 1), (-1, 1), (1, 1)  # t^2, t-1, t+1
    lowest = (
        poly.int_mul(t2, tp1) == f1
        and poly.int_mul(tm1, tp1) == g1
        and poly.int_rem(t2, tm1) != ()
    )
    witnesses.append({"check": "lowest terms t^2/(t-1) is not polynomial", "ok": lowest})
    spot = not poly.ktt_member(poly.int_mul(tm1, tm1))
    witnesses.append({"check": "(t-1)^2 leaves the subring", "ok": spot})
    ok = members_ok and cross and no_poly_preimage and lowest and spot
    return {
        "claim": "localization presheaf on the vanishing-linear-term subring "
        "violates the sheaf condition",
        "status": "pass" if ok else "fail",
        "witnesses": witnesses,
    }
