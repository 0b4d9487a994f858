"""Order-subadditive multiplicative valuations into idempotent semirings,
their exhaustive correspondence with prime ideals over the two-element
target, and the submodule lattice of an idempotent semiring with its
universal valuation.

A submodule is taken over the two-element subsemiring {0, 1}, which exists
exactly when 1 + 1 = 1: a subset holding 0 and closed under +. The lattice
is built once per semiring. The construction enumerates every submodule as
a sum of cyclic modules (finite base, so finitely generated is no
restriction), checks the semiring axioms on the resulting tables, certifies
that its natural order is set inclusion, and checks that a -> cyclic module
of a is a valuation with an integral part. That map is verified to be
initial among integral valuations by explicit factoring plus exhaustive
uniqueness scans, and the spectrum comparison and the localization check
take the built lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from . import _purecore as core
from .errors import InternalCheckError, PreconditionError, ResourceError
from .kernel import (
    FiniteSemiring,
    Homomorphism,
    bits,
    enumerate_homs,
    is_idempotent,
    mask_of,
    powers,
    tabulate,
)
from .ideals import _MODULE_CAP, _module_sum, closed_sets
from .localize import _powers_mask, localize
from .spectra import sp_enumerate, spec_enumerate
from . import corpus


# ---------------------------------------------------------------------------
# valuations


@dataclass(frozen=True)
class GValuation:
    source: FiniteSemiring
    target: FiniteSemiring
    images: Tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.images[a]


def g_valuation_violation(v: GValuation) -> Optional[str]:
    """None if the map preserves 0 and 1, is multiplicative, and is
    subadditive for the target's natural order."""
    A, B, f = v.source, v.target, v.images
    if not is_idempotent(B):
        raise PreconditionError(f"{B.label}: valuation target must be idempotent")
    if len(f) != A.size:
        raise PreconditionError("image list does not match the source")
    if f[A.zero] != B.zero:
        return "zero"
    if f[A.one] != B.one:
        return "one"
    for a in A.elements:
        for b in A.elements:
            if f[A.mul[a][b]] != B.mul[f[a]][f[b]]:
                return f"mul@({a},{b})"
            lhs = f[A.add[a][b]]
            bound = B.add[f[a]][f[b]]
            if B.add[lhs][bound] != bound:  # lhs below bound in the order
                return f"subadd@({a},{b})"
    return None


def chi_of_prime(A: FiniteSemiring, prime_mask: int) -> GValuation:
    """Characteristic map of the complement of a prime ideal, into the
    two-element semiring."""
    b2 = corpus.get("bool2")
    images = tuple(
        b2.zero if (prime_mask >> a) & 1 else b2.one for a in A.elements
    )
    return GValuation(A, b2, images)


def bool_valuations(A: FiniteSemiring) -> List[GValuation]:
    """Every valuation into the two-element semiring, by exhaustive scan
    over all maps."""
    if A.size > 20:
        raise ResourceError(f"{A.label}: 2^{A.size} maps is over the scan limit")
    b2 = corpus.get("bool2")
    out = []
    for code in range(1 << A.size):
        images = tuple((code >> a) & 1 for a in A.elements)
        v = GValuation(A, b2, images)
        if g_valuation_violation(v) is None:
            out.append(v)
    return out


def val_spec_bijection(A: FiniteSemiring) -> List[Tuple[GValuation, int]]:
    """Pair every two-element-valued valuation with its kernel and certify
    that kernel-of and characteristic-of are mutually inverse maps onto the
    prime ideals."""
    vals = bool_valuations(A)
    space = spec_enumerate(A)
    pairs = []
    seen = set()
    for v in vals:
        ker = mask_of(a for a in A.elements if v.images[a] == v.target.zero)
        if ker not in space.point_masks:
            raise InternalCheckError(f"{A.label}: valuation kernel is not prime")
        if ker in seen:
            raise InternalCheckError(f"{A.label}: two valuations share a kernel")
        seen.add(ker)
        back = chi_of_prime(A, ker)
        if back.images != v.images:
            raise InternalCheckError(f"{A.label}: characteristic map is not inverse")
        pairs.append((v, ker))
    if seen != set(space.point_masks):
        raise InternalCheckError(f"{A.label}: valuations miss some prime")
    return pairs


def integral_part(v: GValuation) -> int:
    """Elements whose value is below the target's 1; certified to be a
    subsemiring of the source."""
    A, B = v.source, v.target
    m = mask_of(
        a for a in A.elements if B.add[v.images[a]][B.one] == B.one
    )
    if not ((m >> A.zero) & 1 and (m >> A.one) & 1):
        raise InternalCheckError("integral part misses 0 or 1")
    for a in bits(m):
        for b in bits(m):
            if not (m >> A.add[a][b]) & 1 or not (m >> A.mul[a][b]) & 1:
                raise InternalCheckError("integral part is not a subsemiring")
    return m


# ---------------------------------------------------------------------------
# the submodule lattice


@dataclass(frozen=True)
class SubmoduleLattice:
    base: FiniteSemiring
    table: FiniteSemiring  # lattice as a semiring
    modules: Tuple[int, ...]  # lattice element -> subset mask of the base
    cyclic: Tuple[int, ...]  # base element -> lattice index of its module

    @property
    def valuation(self) -> GValuation:
        """The universal valuation a -> cyclic module of a."""
        return GValuation(self.base, self.table, self.cyclic)

    def index_of(self, module_mask: int) -> int:
        try:
            return self.modules.index(module_mask)
        except ValueError:
            raise PreconditionError("subset is not a submodule")


def _module_closure(A: FiniteSemiring, seed: int) -> int:
    """Smallest submodule of A over {0, 1} containing seed."""
    zero_bit = 1 << A.zero
    return core.closure_mask(
        A.size, A.add, A.mul, seed | zero_bit, zero_bit | (1 << A.one)
    )


def build_mra(A: FiniteSemiring) -> SubmoduleLattice:
    """The idempotent semiring of all submodules of A over {0, 1}, with
    elementwise sum as addition and generated-product as multiplication,
    and its universal valuation, checked to be a valuation with an
    integral part.

    Raises PreconditionError unless 1 + 1 = 1 in A, and ResourceError once
    more than `ideals._MODULE_CAP` modules are found."""
    if not is_idempotent(A):
        raise PreconditionError(f"{A.label}: 1 + 1 != 1, so {{0, 1}} is no subsemiring")
    if A.size > 16:
        raise ResourceError(
            f"{A.label}: {A.size} elements, over the module lattice limit 16"
        )

    cyclic_masks, found = closed_sets(A, lambda seed: _module_closure(A, seed), _MODULE_CAP)
    modules = sorted(found)

    def product_module(m1: int, m2: int) -> int:
        seed = 0
        for a in bits(m1):
            ra = A.mul[a]
            for b in bits(m2):
                seed |= 1 << ra[b]
        return _module_closure(A, seed)

    names = tuple(
        "{" + ",".join(A.name_of(a) for a in bits(m)) + "}" for m in modules
    )
    table = tabulate(
        modules, lambda m1, m2: _module_sum(A, m1, m2), product_module,
        1 << A.zero, cyclic_masks[A.one], f"M[{A.label}]", names,
    )
    if not is_idempotent(table):
        raise InternalCheckError("module lattice is not idempotent")
    for i, m1 in enumerate(modules):
        for j, m2 in enumerate(modules):
            below = table.add[i][j] == j
            if below != (m1 | m2 == m2):
                raise InternalCheckError("lattice order differs from inclusion")
    index = {m: i for i, m in enumerate(modules)}
    lat = SubmoduleLattice(A, table, tuple(modules), tuple(index[m] for m in cyclic_masks))
    v = lat.valuation
    bad = g_valuation_violation(v)
    if bad is not None:
        raise InternalCheckError(f"{A.label}: universal map fails {bad}")
    integral_part(v)
    return lat


def factor_through_universal(
    lat: SubmoduleLattice, v: GValuation
) -> Homomorphism:
    """The unique semiring map f on the lattice with v = f after the
    universal valuation; f(M) = sum of the values of M's elements.
    Uniqueness is certified by exhausting all homs to the target."""
    A = lat.base
    if v.source is not A and v.source != A:
        raise PreconditionError("valuation source differs from the lattice base")
    bad = g_valuation_violation(v)
    if bad is not None:
        raise PreconditionError(f"not a valuation ({bad})")
    integral_part(v)
    S = v.target
    images = tuple(
        S.sum_of(v.images[a] for a in bits(m)) for m in lat.modules
    )
    f = Homomorphism(lat.table, S, images)
    if f.violation() is not None:
        raise InternalCheckError("element-sum factoring is not a hom")
    for a in A.elements:
        if f.images[lat.cyclic[a]] != v.images[a]:
            raise InternalCheckError("factoring does not reproduce the valuation")
    matches = [
        h
        for h in enumerate_homs(lat.table, S)
        if all(h.images[lat.cyclic[a]] == v.images[a] for a in A.elements)
    ]
    if len(matches) != 1 or matches[0].images != images:
        raise InternalCheckError(
            f"{A.label}: factoring is not unique ({len(matches)} matches)"
        )
    return f


# ---------------------------------------------------------------------------
# the pullback and the homeomorphism


@dataclass
class HomeoReport:
    bijective: bool
    openness: bool
    basis: bool
    points: int

    @property
    def ok(self) -> bool:
        return self.bijective and self.openness and self.basis


def vstar_homeo_check(lat: SubmoduleLattice) -> HomeoReport:
    """Certify that pulling back along the universal valuation is a
    homeomorphism from the subtractive-prime space of the lattice onto the
    prime space of the base."""
    A, v = lat.base, lat.cyclic
    sp_m = sp_enumerate(lat.table)
    spec_a = spec_enumerate(A)
    fwd: List[int] = []  # sp_m point index -> spec_a point index
    bijective = True
    for p in sp_m.point_masks:
        q = mask_of(a for a in A.elements if (p >> v[a]) & 1)
        if q not in spec_a.point_masks:
            bijective = False
            break
        fwd.append(spec_a.point_masks.index(q))
    if bijective:
        bijective = len(set(fwd)) == len(spec_a.point_masks) == len(sp_m.point_masks)
    if bijective:
        for qi, q in enumerate(spec_a.point_masks):
            back = mask_of(
                i for i, m in enumerate(lat.modules) if m & ~q == 0
            )
            if back not in sp_m.point_masks or fwd[
                sp_m.point_masks.index(back)
            ] != qi:
                bijective = False
                break
    openness = True
    if bijective:
        for a in A.elements:
            img = mask_of(fwd[i] for i in bits(sp_m.basis[v[a]]))
            if img != spec_a.basis[a]:
                openness = False
                break
    else:
        openness = False
    basis = True
    for mi, m in enumerate(lat.modules):
        union = 0
        for a in bits(m):
            union |= sp_m.basis[lat.cyclic[a]]
        if union != sp_m.basis[mi]:
            basis = False
            break
    return HomeoReport(bijective, openness, basis, len(spec_a.point_masks))


# ---------------------------------------------------------------------------
# localization of the lattice


def _power_exponent(T: FiniteSemiring, x: int, s: int) -> int:
    """Minimal k with x^k = s; s must be a power of x."""
    ps = powers(T, x)
    if s not in ps:
        raise PreconditionError("element is not a power")
    return ps.index(s)


def mra_localization_iso_check(lat: SubmoduleLattice, a: int) -> bool:
    """Lattice of the localization vs localization of the lattice at the
    cyclic module of a: build both and check the two canonical maps are
    mutually inverse homomorphisms."""
    A = lat.base
    la = localize(A, _powers_mask(A, a))
    lat2 = build_mra(la.table)
    vmod = lat.cyclic[a]
    loc_m = localize(lat.table, _powers_mask(lat.table, vmod))

    def alpha_of_pair(mi: int, s: int) -> int:
        k = _power_exponent(lat.table, vmod, s)
        ak = A.power(a, k)
        seed = 0
        for m_el in bits(lat.modules[mi]):
            seed |= 1 << la.class_of_pair(m_el, ak)
        return lat2.index_of(_module_closure(la.table, seed))

    # well-definedness across every pair in each class, then the map itself
    alpha = [None] * loc_m.table.size
    for mi in lat.table.elements:
        for s in loc_m.s_list:
            c = loc_m.class_of_pair(mi, s)
            val = alpha_of_pair(mi, s)
            if alpha[c] is None:
                alpha[c] = val
            elif alpha[c] != val:
                return False
    if any(x is None for x in alpha):
        raise InternalCheckError("localized lattice class without a pair")
    h = Homomorphism(loc_m.table, lat2.table, tuple(alpha))
    if h.violation() is not None:
        return False

    def beta_of_module(mask2: int) -> int:
        ks = {}
        for c in bits(mask2):
            x, s = la.reps[c]
            ks[c] = (x, _power_exponent(A, a, s))
        big = max((k for _x, k in ks.values()), default=0)
        seed = 0
        for x, k in ks.values():
            seed |= 1 << A.mul[x][A.power(a, big - k)]
        m = _module_closure(A, seed)
        return loc_m.class_of_pair(lat.index_of(m), lat.table.power(vmod, big))

    for c in loc_m.table.elements:
        if beta_of_module(lat2.modules[alpha[c]]) != c:
            return False
    for ni in lat2.table.elements:
        if alpha[beta_of_module(lat2.modules[ni])] != ni:
            return False
    return True

