"""Order-subadditive multiplicative valuations into idempotent semirings,
those into the two-element target found by the hom search with sums
bounded, whose kernels are the prime ideals, and the submodule lattice
of an idempotent semiring with its universal valuation.

A submodule is taken over the two-element subsemiring {0, 1}, which exists
exactly when 1 + 1 = 1: a subset holding 0 and closed under +. The lattice
is built once per semiring. The construction enumerates every submodule as
a sum of cyclic modules (finite base, so finitely generated is no
restriction), checks the semiring axioms on the resulting tables, and
certifies that its natural order is set inclusion; a -> cyclic module of a
is then a valuation by construction. That map is verified to be initial
among integral valuations by explicit factoring plus exhaustive uniqueness
scans. The spectrum comparison pulls Sp of the lattice back along it by
`spectra.pullback`, as for a homomorphism. The localization check,
M(A_a) against M(A)_<a>, is one checked map of classes,
`localize.map_classes`: a well-defined hom, and an isomorphism when it is
bijective. Both take the built lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import InternalCheckError, PreconditionError
from .kernel import (
    MAX_SIZE,
    FiniteSemiring,
    Homomorphism,
    _maps,
    bits,
    enumerate_homs,
    is_idempotent,
    mask_of,
    powers,
    tabulate,
)
from .ideals import _module_sum, closed_sets, closure_mask
from .localize import _powers_mask, localize, map_classes
from .spectra import pullback, sp_enumerate, spec_enumerate
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


def bool_valuations(A: FiniteSemiring) -> List[GValuation]:
    """Every valuation into the two-element semiring, found by the search
    behind `kernel.enumerate_homs` with sums bounded instead of equal;
    each is re-checked by `g_valuation_violation`."""
    b2 = corpus.get("bool2")
    out = [GValuation(A, b2, images) for images in _maps(A, b2, True)]
    if any(g_valuation_violation(v) is not None for v in out):
        raise InternalCheckError(f"{A.label}: valuation search produced a non-valuation")
    return out


# ---------------------------------------------------------------------------
# the submodule lattice


@dataclass(frozen=True)
class SubmoduleLattice:
    base: FiniteSemiring
    table: FiniteSemiring  # lattice as a semiring
    modules: Tuple[int, ...]  # lattice element -> subset mask of the base
    # base element -> lattice index of its cyclic module: the universal valuation
    cyclic: Tuple[int, ...]

    def index_of(self, module_mask: int) -> int:
        try:
            return self.modules.index(module_mask)
        except ValueError:
            raise PreconditionError("subset is not a submodule")


def _module_closure(A: FiniteSemiring, seed: int) -> int:
    """Smallest submodule of A over {0, 1} containing seed."""
    zero_bit = 1 << A.zero
    return closure_mask(A, seed | zero_bit, zero_bit | (1 << A.one))


def _scaled(A: FiniteSemiring, m1: int, m2: int) -> List[int]:
    """The submodules a*N = {ab : b in N} of N = m2, one for each a in m1.
    Each is a submodule: a*0 = 0, and ab + ab' = a(b + b')."""
    seconds = list(bits(m2))
    out = []
    for a in bits(m1):
        ra = A.mul[a]
        mask = 0
        for b in seconds:
            mask |= 1 << ra[b]
        out.append(mask)
    return out


def build_mra(A: FiniteSemiring) -> SubmoduleLattice:
    """The idempotent semiring of all submodules of A over {0, 1}, with
    elementwise sum as addition and generated-product as multiplication,
    and its universal valuation (`cyclic`). Its order must be inclusion,
    which at M = M says the table is idempotent.

    The product M*N, the submodule generated by {ab : a in M, b in N}, is
    the join of the submodules a*N over a in M (`_scaled`): each product
    ab lies in a*N, and a join of submodules is the set of their sums.
    Every join is a module sum read from one memo, filled on demand by
    both tables, so neither depends on which `tabulate` builds first; a
    join with a*N inside the running one is skipped.

    The universal map a -> <a> = {0, a} (a + a = a, as 1 + 1 = 1) is a
    valuation by construction, with no scan: <0> and <1> are the table's
    zero and one; the product module of <a> and <b> is the closure of
    {0, ab}, that is <ab>; and <a + b> lies inside <a> + <b> =
    {0, a, b, a + b}, which in the table's order, checked to be
    inclusion, is v(a + b) <= v(a) + v(b). Its integral part
    {a : v(a) <= 1}, like that of any valuation into an idempotent
    semiring, is a subsemiring: v(a + b) <= v(a) + v(b) <= 1 + 1 = 1, and
    v(ab) = v(a)v(b) <= v(b) <= 1, since x <= 1 gives xy + y = (x + 1)y = y.

    Raises PreconditionError unless 1 + 1 = 1 in A, and ResourceError once
    more modules are found than a table may hold (`kernel.MAX_SIZE`)."""
    if not is_idempotent(A):
        raise PreconditionError(f"{A.label}: 1 + 1 != 1, so {{0, 1}} is no subsemiring")
    cyclic_masks, found = closed_sets(A, lambda seed: _module_closure(A, seed), MAX_SIZE)
    modules = sorted(found)
    sums: Dict[Tuple[int, int], int] = {}

    def module_sum(m1: int, m2: int) -> int:
        out = sums.get((m1, m2))
        if out is None:
            out = sums[(m1, m2)] = _module_sum(A, m1, m2)
        return out

    def product_module(m1: int, m2: int) -> int:
        out = 1 << A.zero
        for a_n in _scaled(A, m1, m2):
            if a_n & ~out:
                out = module_sum(out, a_n)
        return out

    names = tuple(
        "{" + ",".join(A.name_of(a) for a in bits(m)) + "}" for m in modules
    )
    table = tabulate(
        modules, module_sum, product_module,
        1 << A.zero, cyclic_masks[A.one], f"M[{A.label}]", names,
    )
    for i, m1 in enumerate(modules):
        for j, m2 in enumerate(modules):
            below = table.add[i][j] == j
            if below != (m1 | m2 == m2):
                raise InternalCheckError("lattice order differs from inclusion")
    index = {m: i for i, m in enumerate(modules)}
    return SubmoduleLattice(A, table, tuple(modules), tuple(index[m] for m in cyclic_masks))


def factor_through_universal(
    lat: SubmoduleLattice, v: GValuation
) -> Homomorphism:
    """The unique semiring map f on the lattice with v = f after the
    universal valuation; f(M) = sum of the values of M's elements.
    Certified by exhausting all homs to the target: exactly one of them
    must reproduce v, and it must be f. The search yields only checked
    homs, so an f that is no hom, or does not reproduce v, fails there."""
    A = lat.base
    if v.source is not A and v.source != A:
        raise PreconditionError("valuation source differs from the lattice base")
    bad = g_valuation_violation(v)
    if bad is not None:
        raise PreconditionError(f"not a valuation ({bad})")
    S = v.target
    images = tuple(
        S.sum_of(v.images[a] for a in bits(m)) for m in lat.modules
    )
    matches = [
        h
        for h in enumerate_homs(lat.table, S)
        if all(h.images[lat.cyclic[a]] == v.images[a] for a in A.elements)
    ]
    if len(matches) != 1 or matches[0].images != images:
        raise InternalCheckError(
            f"{A.label}: factoring is not the unique element sum ({len(matches)} matches)"
        )
    return matches[0]


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
    prime space of the base. Three conjuncts, each reading its own data:
    bijective, the explicit inverse q |-> {modules inside q} of the point
    map (the points of both spaces); basis, each D(M) of the lattice is the
    union of D(a) over the cyclic modules a of M's elements (the lattice's
    basis); openness, the point map sends each D(M) onto the union of D(a)
    over the elements a of M (the base's basis). A pulled-back point that
    is no prime raises InternalCheckError."""
    sp_m = sp_enumerate(lat.table)
    spec_a = spec_enumerate(lat.base)
    f = pullback(lat.cyclic, sp_m, spec_a)
    index = {p: i for i, p in enumerate(sp_m.point_masks)}
    inverse = [
        index.get(mask_of(i for i, m in enumerate(lat.modules) if m & ~q == 0))
        for q in spec_a.point_masks
    ]
    bijective = sp_m.npoints == spec_a.npoints and all(
        j is not None and f.point_map[j] == qi for qi, j in enumerate(inverse)
    )
    basis = openness = True
    for mi, m in enumerate(lat.modules):
        union_m = union_a = 0
        for a in bits(m):
            union_m |= sp_m.basis[lat.cyclic[a]]
            union_a |= spec_a.basis[a]
        image = mask_of(f.point_map[i] for i in bits(sp_m.basis[mi]))
        basis = basis and union_m == sp_m.basis[mi]
        openness = openness and image == union_a
    return HomeoReport(bijective, openness, basis, spec_a.npoints)


# ---------------------------------------------------------------------------
# localization of the lattice


def mra_localization_iso_check(lat: SubmoduleLattice, a: int) -> bool:
    """M(A_a) against M(A)_<a>: the lattice of the localization against
    the localization of the lattice at the cyclic module of a. The class
    of (M, <a>^k) goes to the module generated by the fractions m/a^k, m
    in M, by `localize.map_classes`, which raises InternalCheckError
    unless every pair of a class gives one module and the map is a hom. A
    well-defined hom that is bijective is an isomorphism, and its inverse
    is a hom with no further check, so the answer is whether it is
    bijective."""
    A = lat.base
    la = localize(A, _powers_mask(A, a))
    lat2 = build_mra(la.table)
    vmod = lat.cyclic[a]
    vpowers = powers(lat.table, vmod)  # <a>^k at position k
    loc_m = localize(lat.table, mask_of(vpowers))

    def alpha_of_pair(mi: int, s: int) -> int:
        ak = A.power(a, vpowers.index(s))
        seed = 0
        for m_el in bits(lat.modules[mi]):
            seed |= 1 << la.class_of_pair(m_el, ak)
        return lat2.index_of(_module_closure(la.table, seed))

    return map_classes(loc_m, lat2.table, alpha_of_pair).is_bijective()
