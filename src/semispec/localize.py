"""Localization of finite semirings, saturation, hardening, and the
hardening of boolean polynomials in one variable.

Fraction equality a/s = b/t means a*t*u = b*s*u for some u in S. For finite
tables this is canonicalized with the cofactor trick: let P be the product
of all of S and c_s * s = P; then a/s = b/t iff a*c_s*P^3 = b*c_t*P^3 in A.
The witness definition is kept and asserted against the canonical form on
every instance, through the equivalence E[x] = {y : x*u = y*u for some u
in S}: a/s = b/t by witness iff b*s lies in E[a*t].

Every map out of a localization is `map_classes`: it gives each class the
value of its pairs and checks that every pair of the class agrees and that
the result is a hom. `natural_map` is the case a/s |-> a/s into another
localization of the base; the module-lattice localization check in
`valuation` is another.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, List, Optional, Tuple

from .errors import InternalCheckError, PreconditionError
from .kernel import (
    FiniteSemiring,
    Homomorphism,
    Record,
    assert_valid,
    bits,
    mask_of,
    mul_rows,
    powers,
    units,
)
from . import poly
from .poly import INF, NEG_INF


def is_mult_submonoid(A: FiniteSemiring, s_mask: int) -> bool:
    if not (s_mask >> A.one) & 1:
        return False
    ss = list(bits(s_mask))
    return all((s_mask >> A.mul[s][t]) & 1 for s in ss for t in ss)


def is_saturated(A: FiniteSemiring, s_mask: int) -> bool:
    """ab in S implies a,b in S: S holds its saturation, since ab in S puts
    a (cofactor b) and b (cofactor a) in it, A being commutative."""
    return _saturation(A, s_mask) & ~s_mask == 0


class LocalizedSemiring(Record):
    __slots__ = _fields = ("base", "s_mask", "table", "phi", "_psi_class", "s_list", "reps")

    def __init__(
        self,
        base: FiniteSemiring,
        s_mask: int,
        table: FiniteSemiring,
        phi: Homomorphism,  # base -> table
        _psi_class: Tuple[Tuple[int, ...], ...],  # [a][s_pos] -> class index
        s_list: Tuple[int, ...],
        reps: Tuple[Tuple[int, int], ...],  # class -> canonical (a, s)
    ):
        self.base, self.s_mask, self.table, self.phi = base, s_mask, table, phi
        self._psi_class, self.s_list, self.reps = _psi_class, s_list, reps

    def class_of_pair(self, a: int, s: int) -> int:
        return self._psi_class[a][self.s_list.index(s)]


def _psi_values(A: FiniteSemiring, s_mask: int) -> Tuple[Tuple[int, ...], List[List[int]]]:
    """S as a list, and psi(a, s) = a*c_s*P^3 as grid[a][s_pos];
    PreconditionError unless S is a multiplicative submonoid."""
    if not is_mult_submonoid(A, s_mask):
        raise PreconditionError(f"{A.label}: not a multiplicative submonoid")
    s_list = tuple(bits(s_mask))
    k = len(s_list)
    pref = [A.one] * (k + 1)
    for i, s in enumerate(s_list):
        pref[i + 1] = A.mul[pref[i]][s]
    suf = [A.one] * (k + 1)
    for i in range(k - 1, -1, -1):
        suf[i] = A.mul[suf[i + 1]][s_list[i]]
    P = pref[k]
    P3 = A.mul[A.mul[P][P]][P]
    grid = []
    for a in A.elements:
        row = []
        for i in range(k):
            cof = A.mul[pref[i]][suf[i + 1]]
            row.append(A.mul[A.mul[a][cof]][P3])
        grid.append(row)
    return s_list, grid


def _localization(A: FiniteSemiring, s_mask: int, label: str = "") -> LocalizedSemiring:
    """S^-1 A as a finite table with the canonical map, unchecked; classes
    are numbered by their psi value. `localize` decides its axioms. The
    other caller, `_assert_saturation_iso`, needs no scan: it reads only
    `natural_map`, which checks its own map is a hom.

    Each entry is read straight from the class grid: for representatives
    (a, s) and (b, t), the sum is the class of (at + bs, st) and the
    product that of (ab, st), both in the column of st, which lies in S
    since S is a submonoid. Every entry is so a class index, and the table
    needs no carrier check."""
    s_list, grid = _psi_values(A, s_mask)
    values = sorted({v for row in grid for v in row})
    v_index = {v: i for i, v in enumerate(values)}
    cls_grid = tuple(tuple(v_index[v] for v in row) for row in grid)
    reps: List[Optional[Tuple[int, int]]] = [None] * len(values)
    for si, s in enumerate(s_list):
        for a in A.elements:
            c = cls_grid[a][si]
            if reps[c] is None:
                reps[c] = (a, s)
    s_pos = {s: i for i, s in enumerate(s_list)}
    columns = list(zip(*cls_grid))  # columns[si][a]: the class of (a, s)
    add, mul = A.add, A.mul
    sums, prods = [], []
    for a, s in reps:
        ma, ms = mul[a], mul[s]
        srow, prow = [], []
        for b, t in reps:
            col = columns[s_pos[ms[t]]]
            srow.append(col[add[ma[t]][mul[b][s]]])
            prow.append(col[ma[b]])
        sums.append(tuple(srow))
        prods.append(tuple(prow))

    names = [
        A.name_of(a) if s == A.one else f"{A.name_of(a)}/{A.name_of(s)}" for a, s in reps
    ]
    if len(set(names)) != len(names):  # name clashes possible after collapsing
        names = [f"{nm}#{i}" if names.count(nm) > 1 else nm for i, nm in enumerate(names)]
    on_one = columns[s_pos[A.one]]
    table = FiniteSemiring(
        size=len(reps), zero=on_one[A.zero], one=on_one[A.one], add=tuple(sums),
        mul=tuple(prods), label=label or f"{A.label}[S^-1]", names=tuple(names),
    )
    phi = Homomorphism(A, table, on_one)
    return LocalizedSemiring(A, s_mask, table, phi, cls_grid, s_list, tuple(reps))


def localize(A: FiniteSemiring, s_mask: int, label: str = "") -> LocalizedSemiring:
    """S^-1 A as a finite table with the canonical map.

    Verifies on construction: A satisfies the axioms (checked once per
    object); S is a multiplicative submonoid; phi is a hom onto the table;
    (S^sat)^-1 A is isomorphic over A; and canonical equality agrees with
    the direct witness relation.

    The table's axioms are inherited, not scanned. Every law is an
    equation, and equations pass from A to any image of A under a hom.
    phi is always onto for finite A: each s in S has an idempotent power
    e = s^k in S, e/1 is a unit with e*e = e and so equals 1, and then
    a/s = a*s^(k-1)/1. A broken construction fails the onto check.
    """
    assert_valid(A)
    loc = _localization(A, s_mask, label)
    if loc.phi.violation() is not None:
        raise InternalCheckError("localization map is not a hom")
    if len(set(loc.phi.images)) != loc.table.size:
        raise InternalCheckError(f"{A.label}: localization map is not onto")
    _assert_scan_agreement(A, loc)
    _assert_saturation_iso(A, loc)
    return loc


def _assert_scan_agreement(A: FiniteSemiring, loc: LocalizedSemiring) -> None:
    """The witness relation, (a, s) ~ (b, t) iff a*t*u = b*s*u for some u in
    S, must be equality of canonical classes. The relation is read from
    mul and S alone, never from psi.

    Let E[x] = {y : x*u = y*u for some u in S}. E is an equivalence: it is
    reflexive and symmetric, and x*u = y*u with y*v = z*v gives
    x*(uv) = z*(uv), uv in S. By definition (a, s) ~ (b, t) iff
    (a*t)*u = (b*s)*u for some u in S, that is, iff b*s lies in E[a*t].
    So for each s, pre_s maps a class K of E to {b : b*s in K}, built in
    one pass over b, and the b with (a, s) ~ (b, t) are pre_s[E[a*t]].

    ~ is an equivalence too: a*t*u = b*s*u and b*r*v = c*t*v give
    a*r*(tuv) = c*s*(tuv), tuv in S. Two equivalences agree once each
    class K is exactly the set of pairs related to its representative
    (a, s), that is, pre_s[E[a*t]] = {b : class(b, t) = K} for every t;
    at t = s this also puts (a, s) in K. E and every pre_s take
    O(|S|*n), and the comparison O(|S|*(n + classes))."""
    mul = A.mul
    sl = loc.s_list
    eq = [0] * A.size  # eq[x]: the mask of E[x]
    for u in sl:
        mu = mul[u]
        bucket: Dict[int, int] = {}
        for b, v in enumerate(mu):
            bucket[v] = bucket.get(v, 0) | 1 << b
        for x, v in enumerate(mu):
            eq[x] |= bucket[v]
    pre = {}
    for s in sl:
        by_class: Dict[int, int] = {}
        for b, v in enumerate(mul[s]):
            k = eq[v]
            by_class[k] = by_class.get(k, 0) | 1 << b
        pre[s] = by_class
    classes = loc._psi_class
    for ti, t in enumerate(sl):
        same = [0] * len(loc.reps)
        for b in A.elements:
            same[classes[b][ti]] |= 1 << b
        # A is commutative, so row t of mul lists a*t for every a.
        mt = mul[t]
        if [pre[s].get(eq[mt[a]], 0) for a, s in loc.reps] != same:
            raise InternalCheckError(
                f"{A.label}: canonical fraction equality disagrees with witnesses"
            )


def _powers_mask(A: FiniteSemiring, a: int) -> int:
    """{1, a, a^2, ...}: the smallest multiplicative submonoid holding a."""
    return mask_of(powers(A, a))


def _saturation(A: FiniteSemiring, s_mask: int) -> int:
    """{b : bc in S for some c}, read off the product rows {bc : c} as
    masks (`kernel.mul_rows`)."""
    return mask_of(b for b, row in enumerate(mul_rows(A)) if row & s_mask)


def saturate(A: FiniteSemiring, s_mask: int) -> int:
    """S^sat = {b : bc in S for some c}; asserted equal to the set of
    elements mapping to units of S^-1 A, read from psi without building
    the table: b/1 is a unit iff b*c/t = 1/1 for some c in A and t in S,
    that is, iff the product row of b meets the x with x/t = 1/1 for some
    t. It needs no check that it is a saturated submonoid: `_psi_values`
    has checked that S is a submonoid, so 1 is in S^sat, b, b' in S^sat
    with bc, b'c' in S give bb'(cc') in S, and xy in S^sat with xyc in S
    puts x (cofactor yc) and y (cofactor xc) in S^sat."""
    s_list, grid = _psi_values(A, s_mask)
    one = grid[A.one][s_list.index(A.one)]
    over_one = mask_of(x for x, row in enumerate(grid) if one in row)
    out = _saturation(A, s_mask)
    via_units = mask_of(b for b, row in enumerate(mul_rows(A)) if row & over_one)
    if via_units != out:
        raise InternalCheckError(f"{A.label}: saturation characterizations disagree")
    return out


def map_classes(
    src: LocalizedSemiring, cod: FiniteSemiring, image: Callable[[int, int], int]
) -> Homomorphism:
    """The map from S^-1 A to cod sending the class of (a, s) to
    image(a, s): the one routine that maps the classes of a localization.

    Checked: every pair (a, s) of each class gives one value, and the map
    is a hom."""
    label = src.base.label
    images: List[Optional[int]] = [None] * src.table.size
    for si, s in enumerate(src.s_list):
        for a, row in enumerate(src._psi_class):
            c, v = row[si], image(a, s)
            if images[c] is None:
                images[c] = v
            elif images[c] != v:
                raise InternalCheckError(f"{label}: map of classes is ill-defined")
    h = Homomorphism(src.table, cod, tuple(images))
    if h.violation() is not None:
        raise InternalCheckError(f"{label}: map of classes is not a hom")
    return h


def natural_map(src: LocalizedSemiring, dst: LocalizedSemiring) -> Homomorphism:
    """The natural map a/s |-> a/s from S^-1 A to T^-1 A, for S inside T,
    checked by `map_classes`: the restriction of the structure sheaf, the
    comparison of a localization with that at its saturation, and that of
    a stalk with a fresh localization at the same monoid.
    PreconditionError when the two do not localize one base at nested
    monoids."""
    A = src.base
    if dst.base != A or src.s_mask & ~dst.s_mask:
        raise PreconditionError(f"{A.label}: natural map needs one base and S inside T")
    pos = {t: i for i, t in enumerate(dst.s_list)}
    return map_classes(src, dst.table, lambda a, s: dst._psi_class[a][pos[s]])


def _assert_saturation_iso(A: FiniteSemiring, loc: LocalizedSemiring) -> None:
    sat = _saturation(A, loc.s_mask)
    if sat != loc.s_mask and not natural_map(loc, _localization(A, sat)).is_bijective():
        raise InternalCheckError(f"{A.label}: S^-1A and (S^sat)^-1A are not isomorphic")


# ---------------------------------------------------------------------------
# semi-invertibility and hardening


def semi_invertible(A: FiniteSemiring, a: int) -> bool:
    """1 + a*b = a*c for some b,c; equivalently 1 lies in the subtractive
    closure of aA. On idempotent tables it is also 1 <= a*c for some c, so
    that test would only repeat this one: 1 + ab = ac gives
    1 + ac = (1 + 1) + ab = ac, and b = c gives the converse."""
    ma, one_row = A.mul[a], A.add[A.one]
    return any(one_row[ma[b]] in ma for b in A.elements)


def semi_invertibles_mask(A: FiniteSemiring) -> int:
    return mask_of(a for a in A.elements if semi_invertible(A, a))


def is_hard(A: FiniteSemiring) -> bool:
    """Invertible coincides with semi-invertible."""
    return units(A) == semi_invertibles_mask(A)


def harden(A: FiniteSemiring) -> LocalizedSemiring:
    """A-diamond: localization at the semi-invertible elements; always hard."""
    s = semi_invertibles_mask(A)
    if not is_mult_submonoid(A, s):
        raise InternalCheckError(f"{A.label}: semi-invertibles not a submonoid")
    if not is_saturated(A, s):
        raise InternalCheckError(f"{A.label}: semi-invertibles not saturated")
    loc = localize(A, s, label=f"{A.label}^")
    if not is_hard(loc.table):
        raise InternalCheckError(f"{A.label}: hardening is not hard")
    return loc


# ---------------------------------------------------------------------------
# hardening of B[x]


class BxFraction(Record):
    """f/g with f,g boolean polynomials in one variable (bitmask encoding),
    g semi-invertible (constant term 1)."""

    __slots__ = _fields = ("num", "den")

    def __init__(self, num: int, den: int):
        if den & 1 == 0:
            raise PreconditionError("denominator must have constant term 1")
        self.num, self.den = num, den


def bx_mul(a: int, b: int) -> int:
    """Product of boolean polynomials in one variable (OR-convolution)."""
    if a == 0 or b == 0:
        return 0
    out = 0
    x = a
    while x:
        bit = x & -x
        out |= b << (bit.bit_length() - 1)
        x ^= bit
    return out


def bx_frac_add(u: BxFraction, v: BxFraction) -> BxFraction:
    return BxFraction(
        bx_mul(u.num, v.den) | bx_mul(v.num, u.den),
        bx_mul(u.den, v.den),
    )


def bx_frac_mul(u: BxFraction, v: BxFraction) -> BxFraction:
    return BxFraction(bx_mul(u.num, v.num), bx_mul(u.den, v.den))


# MinMaxPair: pairs (n, d), n in N u {+inf} and d in Z u {-inf}, under
# componentwise (min, max) addition and (+, +) multiplication, with the
# absorbing zero (+inf, -inf). bx_hardening_iso maps the hardening of B[x]
# onto it.
MINMAX_ZERO = (INF, NEG_INF)


def minmax_add(a: Tuple, b: Tuple) -> Tuple:
    return (min(a[0], b[0]), max(a[1], b[1]))


def minmax_mul(a: Tuple, b: Tuple) -> Tuple:
    if a == MINMAX_ZERO or b == MINMAX_ZERO:
        return MINMAX_ZERO
    return (a[0] + b[0], a[1] + b[1])


def bx_hardening_iso(frac: BxFraction) -> Tuple:
    """The MinMaxPair value (ord_0 f, deg f - deg g); zero maps to the
    distinguished absorbing point (inf, -inf)."""
    if frac.num == 0:
        return MINMAX_ZERO
    o, d = poly.bool_poly_ord_deg(frac.num)
    _, dg = poly.bool_poly_ord_deg(frac.den)
    return (o, d - dg)


_EXHAUSTIVE_CAP = 14  # bx_witness_equal also scans exhaustively up to this bound


@lru_cache(maxsize=None)
def _bx_slices(kmax: int) -> Tuple[int, ...]:
    """Slice k <= kmax has bit t < 2^kmax set exactly when the odd witness
    u = 2t+1 has x^k: every bit for k = 0, else period 2^k, 2^(k-1) clear
    bits then 2^(k-1) set."""
    ones = (1 << (1 << kmax)) - 1
    return (ones,) + tuple(
        ones // ((1 << (1 << k)) - 1) * ((1 << (1 << (k - 1))) - 1 << (1 << (k - 1)))
        for k in range(1, kmax + 1)
    )


_LOW_DEGREE = 6  # bx_witness_exhaustive scans witnesses of degree <= 6 first


def _bx_scan(a: int, b: int, kmax: int) -> int:
    """The smallest odd u of degree <= kmax with a*u == b*u, or -1, a != b.

    Every u is evaluated at once, bit-sliced: bit t of the integer at
    position j of pa is bit j of a*u for u = 2t+1. Where a has x^i, the
    slices of x^0..x^kmax are ORed in at positions i..i+kmax, so position
    i is complete once row i is in; likewise pb for b."""
    slices = _bx_slices(kmax)
    top = max(a, b).bit_length() + kmax
    pa, pb = [0] * top, [0] * top
    diff = 0  # bit t set once a*u and b*u differ
    for i in range(top):
        for p, x in ((pa, a), (pb, b)):
            if x >> i & 1:
                for k, s in enumerate(slices):
                    p[i + k] |= s
        diff |= pa[i] ^ pb[i]
        if diff == slices[0]:
            return -1
    free = slices[0] & ~diff
    return 2 * (free & -free).bit_length() - 1


def bx_witness_exhaustive(a: int, b: int, kmax: int) -> int:
    """Smallest witness u (encoded as a mask, constant bit set, deg<=kmax)
    with a*u == b*u, or -1. Fully exhaustive scan.

    A witness u has constant term 1, so a*u and b*u have the lowest term
    of a and of b, and the degrees of a and of b plus that of u: one can
    exist only when a and b share their lowest and highest terms, else -1
    is returned at once. Then the witnesses of degree <= 6 (`_LOW_DEGREE`)
    are scanned first, 64 of them in one word. Each is a smaller integer
    than any witness of higher degree, so one found there is the smallest;
    otherwise the scan over every degree up to kmax decides.
    """
    if a == b:
        return 1
    if a & -a != b & -b or a.bit_length() != b.bit_length():
        return -1
    if kmax > _LOW_DEGREE:
        u = _bx_scan(a, b, _LOW_DEGREE)
        if u != -1:
            return u
    return _bx_scan(a, b, kmax)


def bx_witness_equal(u: BxFraction, v: BxFraction) -> bool:
    """Equality of fractions by bounded witness search.

    Scans the separating family e_k = 1+x+...+x^k for k up to a bound of
    twice the largest degree among the four polynomials (complete: any
    witness with unit constant term forces equal (ord, deg), and then some
    e_k is itself a witness). Whenever the bound is at most 14
    (_EXHAUSTIVE_CAP), a fully exhaustive scan over all witnesses with unit
    constant term confirms the answer.
    """
    a = bx_mul(u.num, v.den)
    b = bx_mul(v.num, u.den)
    bound = 2 * max(1, *(poly.bool_poly_deg(f) for f in (u.num, u.den, v.num, v.den)))
    pa = pb = 0  # a*e_k and b*e_k, since e_k = e_(k-1) + x^k
    for k in range(bound + 1):
        pa |= a << k
        pb |= b << k
        if pa == pb:
            break
    found = pa == pb
    if bound <= _EXHAUSTIVE_CAP:
        exh = bx_witness_exhaustive(a, b, bound) != -1
        if exh != found:
            raise InternalCheckError("bx witness family missed an exhaustive witness")
    return found
