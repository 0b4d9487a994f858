"""Prime spectra of finite semirings and the finite model of the
naturals, all as one space type, `SpectrumSpace`.

A spectrum is a finite list of prime ideal masks with the topology
generated by principal opens D(a) = {p : a not in p}. The kind selects
which primes count as points: every prime ideal (spec) or only the
subtractive ones (sp). Primes come from saturations of single elements,
checked against the kernels of the valuations into bool2; on a table
that splits as eA x fA (`kernel.split`) both are found, with their
cross-checks, on the factors. The naturals' model is a space on the
window 0..bound, with no table. One pullback, q |-> {a : f(a) in q},
serves every map of tables and returns the point map as a tuple of
indices: the spectrum map of a homomorphism or a localization, and the
comparison of Sp of the submodule lattice with Spec along the universal
valuation. Dimension is the longest chain of irreducible closed sets,
found exhaustively and checked against the point closures, which on a
finite space are exactly the irreducible closed sets.
"""

from __future__ import annotations

import json
import operator
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from .errors import InternalCheckError, PreconditionError, ResourceError
from . import corpus
from .ideals import (
    _module_sum,
    ideal_closure,
    is_subtractive,
    nat_pair_tail_check,
    nat_point_not_subtractive,
    nat_point_prime_check,
    nat_prime_residue_check,
    radical_member,
    subtractive_closure,
)
from .kernel import (
    MAX_SIZE,
    FiniteSemiring,
    _maps,
    bits,
    is_idempotent,
    joins,
    mask_of,
    split,
)
from .localize import LocalizedSemiring, _powers_mask, _saturation


class SpectrumSpace(NamedTuple):
    base: Optional[FiniteSemiring]  # None for the naturals, which have no table
    kind: str  # "spec" | "sp"
    point_masks: Tuple[int, ...]  # prime ideal masks, sorted (bit count, mask)
    basis: Tuple[int, ...]  # element a -> bitmask over point indices

    @property
    def npoints(self) -> int:
        return len(self.point_masks)

    @property
    def full(self) -> int:
        return (1 << self.npoints) - 1

    def specializes(self, i: int, j: int) -> bool:
        """Point j lies in the closure of point i (bigger prime)."""
        return self.point_masks[i] | self.point_masks[j] == self.point_masks[j]

    def opens(self) -> List[int]:
        """All open point sets: unions of basis opens."""
        return sorted(joins(sorted(set(self.basis)), operator.or_, 0))

    def minimal_open(self, i: int) -> int:
        """Smallest open containing point i (finite spaces are Alexandrov)."""
        out = self.full
        for d in self.basis:
            if (d >> i) & 1:
                out &= d
        return out


def _space(
    base: Optional[FiniteSemiring], kind: str, masks: Sequence[int], elements: Sequence[int]
) -> SpectrumSpace:
    """The points sorted by (bit count, mask), and D(a) = {p : a not in p}."""
    masks = tuple(sorted(masks, key=lambda m: (m.bit_count(), m)))
    basis = tuple(mask_of(i for i, p in enumerate(masks) if not (p >> a) & 1) for a in elements)
    return SpectrumSpace(base, kind, masks, basis)


def _build_space(A: FiniteSemiring, kind: str, masks: Sequence[int]) -> SpectrumSpace:
    space = _space(A, kind, masks, A.elements)
    for a in A.elements:
        for b in A.elements:
            if space.basis[A.mul[a][b]] != space.basis[a] & space.basis[b]:
                raise InternalCheckError(f"{A.label}: D(ab) != D(a) & D(b)")
    return space


def _bool2_kernels(A: FiniteSemiring, homs: bool) -> List[int]:
    """Kernels of the homomorphisms (homs) or valuations into bool2, sorted."""
    B2 = corpus.get("bool2")
    maps = _maps(A, B2, not homs)
    return sorted({mask_of(a for a in A.elements if f[a] == B2.zero) for f in maps})


def _prime_masks(A: FiniteSemiring) -> List[int]:
    """Every prime ideal, sorted: the complements of the saturations sat(a)
    that hold 0 and are closed under + (the complement of a prime P is
    sat(s), s the product of A minus P), checked against the valuation
    kernels; on a table that splits, {a : ea in P} and {a : fa in Q} for the
    primes P of eA and Q of fA (a prime holds e or f, as ef = 0). Each point
    of either spectrum is prime by `_build_space`, whose D(ab) = D(a) & D(b)
    is primality at that point. A derived table over the cap is refused.
    Computed and checked once per object: A's memo keeps the primes, and
    each call gets its own list."""
    pts = A._memo.get("primes")
    if pts is None:
        if A.size > MAX_SIZE:
            raise ResourceError(f"{A.label}: size {A.size} over the table cap {MAX_SIZE}")
        s = split(A)
        if s:
            pts = s.lift(_prime_masks)
        else:
            sats = {_saturation(A, _powers_mask(A, a)) for a in A.elements}
            pts = sorted(
                P for P in (A.full_mask & ~S for S in sats)
                if (P >> A.zero) & 1 and _module_sum(A, P, P) == P
            )
            if pts != _bool2_kernels(A, homs=False):
                raise InternalCheckError(f"{A.label}: valuation kernels disagree with saturations")
        pts = A._memo["primes"] = tuple(pts)
    return list(pts)


def _hom_kernels(A: FiniteSemiring) -> List[int]:
    """Kernels of the homs into bool2; each sends e or f to 1, so factors through eA or fA."""
    s = split(A)
    return s.lift(_hom_kernels) if s else _bool2_kernels(A, homs=True)


def spec_enumerate(A: FiniteSemiring) -> SpectrumSpace:
    """All prime ideals, from one saturation per element. Built once per
    object: A's memo keeps the space, a frozen value every caller shares."""
    space = A._memo.get("spec")
    if space is None:
        space = A._memo["spec"] = _build_space(A, "spec", _prime_masks(A))
    return space


def sp_enumerate(A: FiniteSemiring) -> SpectrumSpace:
    """All subtractive prime ideals (prime kernels): the subtractive points
    of spec. For idempotent semirings they are cross-checked against the
    kernels of all homomorphisms into bool2, which must be the same masks.
    Built and checked once per object, as `spec_enumerate` is."""
    space = A._memo.get("sp")
    if space is None:
        pts = [m for m in _prime_masks(A) if is_subtractive(A, m)]
        if is_idempotent(A) and _hom_kernels(A) != pts:
            raise InternalCheckError(f"{A.label}: hom kernels disagree with subtractive primes")
        space = A._memo["sp"] = _build_space(A, "sp", pts)
    return space


def enumerate_space(A: FiniteSemiring, kind: str) -> SpectrumSpace:
    if kind == "spec":
        return spec_enumerate(A)
    if kind == "sp":
        return sp_enumerate(A)
    raise PreconditionError(f"unknown spectrum kind {kind!r}")


# ---------------------------------------------------------------------------
# covers


def cover_check(
    space: SpectrumSpace, elems: Sequence[int], target: Optional[int] = None
) -> bool:
    """Does the union of the principal opens of `elems` cover the target
    (another principal open, or the whole space when omitted)?

    Verified topologically and by the matching ideal criterion; the two
    must agree. For a principal target only the target's own membership
    in the radical of the generated ideal is read, by `radical_member`:
    its powers, not those of every element.
    """
    A = space.base
    union = 0
    for a in elems:
        union |= space.basis[a]
    want = space.full if target is None else space.basis[target]
    topological = want & ~union == 0
    gen = ideal_closure(A, elems)
    if target is None:
        if space.kind == "spec":
            algebraic = gen == A.full_mask
        else:
            algebraic = subtractive_closure(A, gen) == A.full_mask
        # a cover of the whole space is exactly a generating family
        if algebraic != topological:
            raise InternalCheckError(f"{A.label}: cover criteria disagree")
        return topological
    algebraic = radical_member(A, gen, target)
    if space.kind == "spec":
        if algebraic != topological:
            raise InternalCheckError(f"{A.label}: principal cover criteria disagree")
        return topological
    # sp: the radical criterion is sufficient but not definitional
    if algebraic and not topological:
        raise InternalCheckError(f"{A.label}: radical cover missed by topology")
    return topological


# ---------------------------------------------------------------------------
# point maps


def pullback(
    images: Sequence[int], source: SpectrumSpace, target: SpectrumSpace
) -> Tuple[int, ...]:
    """q |-> {a : f(a) in q} for f(a) = images[a], from the points of
    `source` (over f's codomain) to those of `target` (over its domain),
    for a homomorphism and a valuation alike, as a tuple of target point
    indices; a preimage that is no point raises InternalCheckError.

    The point map is continuous on every space `_build_space` makes, with
    no certificate to compute: there D(a) is read from the same point masks
    as the preimages, so the point map sends q into D(a) exactly when f(a)
    is outside q, that is when q lies in D(f(a))."""
    A = target.base
    index = {p: i for i, p in enumerate(target.point_masks)}
    pm = []
    for q in source.point_masks:
        pre = mask_of(a for a in A.elements if (q >> images[a]) & 1)
        if pre not in index:
            raise InternalCheckError(f"{A.label}: a preimage is no point of {target.kind}")
        pm.append(index[pre])
    return tuple(pm)


def localization_point_report(loc: LocalizedSemiring, kind: str) -> dict:
    """The spectrum map of the canonical hom A -> S^-1 A of `loc`:
    injective, image exactly the primes missing S, and whether it is every
    point. Openness follows: D(a/s) = D(a/1) as s is a unit, and the image
    of D(a/1) is D(a) & D(P) = D(aP) for P the product of S, by
    D(ab) = D(a) & D(b), which `_build_space` asserts."""
    target = enumerate_space(loc.base, kind)
    point_map = pullback(loc.phi.images, enumerate_space(loc.table, kind), target)
    image = mask_of(set(point_map))
    injective = len(set(point_map)) == len(point_map)
    image_ok = image == mask_of(
        i for i, p in enumerate(target.point_masks) if p & loc.s_mask == 0
    )
    return {
        "injective": injective,
        "image_matches": image_ok,
        "onto": image == target.full,
        "pass": injective and image_ok,
    }


# ---------------------------------------------------------------------------
# dimension


def dimension_of_opens(npoints: int, opens: Sequence[int]) -> int:
    """Length of the longest strict chain of irreducible closed sets, the
    irreducibles enumerated exhaustively; cross-checked against the point
    closures, which on a finite space are exactly the irreducibles."""
    full = (1 << npoints) - 1
    closeds = sorted({full ^ o for o in opens}, key=int.bit_count)
    irr: Set[int] = set()
    for C in closeds:
        if C == 0:
            continue
        proper = [F for F in closeds if F and F | C == C and F != C]
        reducible = any(
            F1 | F2 == C for i, F1 in enumerate(proper) for F2 in proper[i:]
        )
        if not reducible:
            irr.add(C)
    closures = set()
    for i in range(npoints):
        cl = full
        for F in closeds:
            if (F >> i) & 1:
                cl &= F
        closures.add(cl)
    if irr != closures:
        raise InternalCheckError("irreducible closed sets are not the point closures")
    # longest chain in the containment order on irreducibles
    best: Dict[int, int] = {}
    for C in sorted(irr, key=int.bit_count):
        best[C] = max((best[D] + 1 for D in best if D != C and D | C == C), default=0)
    return max(best.values(), default=0)


def dimension(space: SpectrumSpace) -> int:
    return dimension_of_opens(space.npoints, space.opens())


# ---------------------------------------------------------------------------
# finite model of the naturals


def _primes_upto(bound: int) -> List[int]:
    sieve = [True] * (bound + 1)
    out = []
    for n in range(2, bound + 1):
        if sieve[n]:
            out.append(n)
            for k in range(n * n, bound + 1, n):
                sieve[k] = False
    return out


def nat_spectrum(bound: int, kind: str) -> SpectrumSpace:
    """Finite stand-in for the spectrum of the naturals on the window
    0..bound: the zero prime, pN for every prime p up to the bound, and
    (spec kind only) the maximal point of everything-but-one, each point
    the mask of its members in the window. The basis is indexed by n, so
    D(n) follows divisibility; there is no table, so `base` is None."""
    if bound < 7:
        raise PreconditionError("prime bound must be at least 7")
    if kind not in ("spec", "sp"):
        raise PreconditionError(f"unknown spectrum kind {kind!r}")
    window = range(bound + 1)
    points = [1] + [mask_of(window[::p]) for p in _primes_upto(bound)]
    if kind == "spec":
        points.append(mask_of(window) & ~2)
    return _space(None, kind, points, window)


def nat_model_verify(bound: int = 200) -> dict:
    """The classification checks behind the model, at the given bound. pN
    is subtractive by definition and is not checked: when p divides b and
    a + b, it divides their difference a."""
    if bound < 7:
        raise PreconditionError("bound must be at least 7")
    primes = _primes_upto(bound)
    tail_ok = all(
        nat_pair_tail_check(p, q)
        for i, p in enumerate(primes)
        for q in primes[i + 1 :]
    )
    prime_ok = all(nat_prime_residue_check(p, bound) for p in primes)

    def max_point(n: int) -> bool:  # everything but one
        return n != 1

    # the maximal point is prime, yet 1+2=3 escapes subtractivity
    max_prime_ok = nat_point_prime_check(max_point, bound)
    max_not_subtractive = nat_point_not_subtractive(max_point, bound)
    report = {
        "bound": bound,
        "tail_property": tail_ok,
        "explicit_primes_prime": prime_ok,
        "max_point_prime": max_prime_ok,
        "max_point_not_subtractive": max_not_subtractive,
    }
    report["pass"] = all(v for k, v in report.items() if k != "bound")
    return report


# ---------------------------------------------------------------------------
# export


def space_to_json(space: SpectrumSpace) -> str:
    points = []
    for m in space.point_masks:
        points.append(
            {
                "subset": [space.base.name_of(a) for a in bits(m)],
                "subtractive": is_subtractive(space.base, m),
            }
        )
    basis = {
        space.base.name_of(a): sorted(bits(space.basis[a]))
        for a in space.base.elements
    }
    return json.dumps(
        {"kind": space.kind, "points": points, "basis": basis},
        indent=2,
        sort_keys=True,
    )


def space_to_dot(space: SpectrumSpace) -> str:
    """Specialization edges from more-generic to more-special points."""
    lines = ["digraph spectrum {"]
    for i, m in enumerate(space.point_masks):
        label = "{" + ",".join(space.base.name_of(a) for a in bits(m)) + "}"
        lines.append(f'  p{i} [label="{label}"];')
    for i in range(space.npoints):
        for j in range(space.npoints):
            if i == j or not space.specializes(i, j):
                continue
            # Hasse edge: no point strictly between
            between = any(
                k not in (i, j)
                and space.specializes(i, k)
                and space.specializes(k, j)
                for k in range(space.npoints)
            )
            if not between:
                lines.append(f"  p{i} -> p{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
