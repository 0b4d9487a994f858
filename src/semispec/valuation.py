"""The submodule lattice of any semiring, with its universal valuation.

A valuation is a `kernel.Homomorphism` with its sums bounded: it keeps
0, 1 and products, and v(a + b) <= v(a) + v(b) in its idempotent
codomain. Those into bool2, found by `kernel.enumerate_homs` with sums
bounded, have the prime ideals as their kernels.

A submodule is taken over the naturals N: a subset holding 0 and closed
under +, the sum closure (`ideals.sum_closure`) of a seed holding 0, as
scaling by n is an n-fold sum. The lattice is built once per semiring. The construction enumerates every submodule as a sum of cyclic
modules (`ideals.closed_sets`; finite base, so finitely generated is no
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

from typing import Dict, List, NamedTuple, Tuple

from .errors import InternalCheckError, PreconditionError
from .kernel import (
    MAX_SIZE,
    FiniteSemiring,
    Homomorphism,
    bits,
    enumerate_homs,
    make_semiring,
    mask_of,
    powers,
)
from .ideals import _module_sum, closed_sets, sum_closure
from .localize import _powers_mask, localize, map_classes
from .spectra import pullback, sp_enumerate, spec_enumerate


# ---------------------------------------------------------------------------
# the submodule lattice


class SubmoduleLattice(NamedTuple):
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
    """The idempotent semiring of all N-submodules of A, with
    elementwise sum as addition and generated-product as multiplication,
    and its universal valuation (`cyclic`). Its order must be inclusion,
    which at M = M says the table is idempotent.

    The product M*N, the submodule generated by {ab : a in M, b in N}, is
    the join of the submodules a*N over a in M (`_scaled`): each product
    ab lies in a*N, and a join of submodules is the set of their sums.
    Every join is a module sum read from one memo, filled on demand by
    both tables, so neither depends on which table is built first; a
    join with a*N inside the running one is skipped.

    The universal map a -> <a> = N*a, the sum closure of {0, a}, is a
    valuation by construction, with no scan: <0> and <1> are the table's
    zero and one; the product module of <a> and <b> is generated by the
    products (ma)(nb) = (mn)ab, that is <ab>; and a + b lies in
    <a> + <b>, so <a + b> does, which in the table's order, checked to be
    inclusion, is v(a + b) <= v(a) + v(b). Its integral part
    {a : v(a) <= 1}, like that of any valuation into an idempotent
    semiring, is a subsemiring: v(a + b) <= v(a) + v(b) <= 1 + 1 = 1, and
    v(ab) = v(a)v(b) <= v(b) <= 1, since x <= 1 gives xy + y = (x + 1)y = y.

    Raises ResourceError once more modules are found than a table may
    hold (`kernel.MAX_SIZE`). A sum or product outside the modules, or a
    table that breaks an axiom, is a broken construction:
    InternalCheckError."""
    zero_bit = 1 << A.zero
    cyclic_masks = [sum_closure(A, zero_bit | 1 << a) for a in A.elements]
    modules = sorted(closed_sets(A, cyclic_masks, MAX_SIZE))
    sums: Dict[Tuple[int, int], int] = {}

    def module_sum(m1: int, m2: int) -> int:
        out = sums.get((m1, m2))
        if out is None:
            out = sums[(m1, m2)] = _module_sum(A, m1, m2)
        return out

    def product_module(m1: int, m2: int) -> int:
        out = zero_bit
        for a_n in _scaled(A, m1, m2):
            if a_n & ~out:
                out = module_sum(out, a_n)
        return out

    names = tuple(
        "{" + ",".join(A.name_of(a) for a in bits(m)) + "}" for m in modules
    )
    table = make_semiring(
        modules, module_sum, product_module,
        zero_bit, cyclic_masks[A.one], f"M[{A.label}]", names, InternalCheckError,
    )
    for i, m1 in enumerate(modules):
        for j, m2 in enumerate(modules):
            below = table.add[i][j] == j
            if below != (m1 | m2 == m2):
                raise InternalCheckError("lattice order differs from inclusion")
    index = {m: i for i, m in enumerate(modules)}
    return SubmoduleLattice(A, table, tuple(modules), tuple(index[m] for m in cyclic_masks))


def factor_through_universal(lat: SubmoduleLattice, v: Homomorphism) -> Homomorphism:
    """The unique semiring map f on the lattice with v = f after the
    universal valuation; f(M) = sum of the values of M's elements.
    v must keep its laws with sums bounded, as every valuation and every
    hom does. Certified by exhausting all homs to the target: exactly one
    of them must reproduce v, and it must be f. The search yields only
    checked homs, so an f that is no hom, or does not reproduce v, fails
    there."""
    A = lat.base
    if v.dom is not A and v.dom != A:
        raise PreconditionError("valuation domain differs from the lattice base")
    bad = v._replace(bounded=True).violation()
    if bad is not None:
        raise PreconditionError(f"not a valuation ({bad})")
    S = v.cod
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


class HomeoReport(NamedTuple):
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
        j is not None and f[j] == qi for qi, j in enumerate(inverse)
    )
    basis = openness = True
    for mi, m in enumerate(lat.modules):
        union_m = union_a = 0
        for a in bits(m):
            union_m |= sp_m.basis[lat.cyclic[a]]
            union_a |= spec_a.basis[a]
        image = mask_of(f[i] for i in bits(sp_m.basis[mi]))
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
        seed = 1 << la.table.zero
        for m_el in bits(lat.modules[mi]):
            seed |= 1 << la.class_of_pair(m_el, ak)
        return lat2.index_of(sum_closure(la.table, seed))

    return map_classes(loc_m, lat2.table, alpha_of_pair).is_bijective()
