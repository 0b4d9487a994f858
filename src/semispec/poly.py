"""Polynomial semirings at desk scale.

Two representations, one per job:
  BoolPoly  bare supports (all coefficients 1), evaluated at boolean points,
            with a bitmask form for one variable;
  Coeffs    integer univariate polynomials as coefficient tuples, degree 0
            first with no trailing zero, for the subring of polynomials
            whose degree-one coefficient vanishes.
A squarefree-supported BoolPoly in n variables is a bitmask over the 2^n
squarefree monomials, and a kernel of evaluation on them is the set of
submasks of one mask of monomials.

Supports are never functionally normalized: two supports that induce the
same tropical function stay distinct elements.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, Iterable, Sequence, Tuple

from .errors import FormatError, PreconditionError
from .kernel import Record

INF = float("inf")
NEG_INF = float("-inf")

Expt = Tuple[int, ...]
Coeffs = Tuple[int, ...]  # c0 + c1 t + c2 t^2 + ... as (c0, c1, c2, ...)


# ---------------------------------------------------------------------------
# BoolPoly


class BoolPoly(Record):
    __slots__ = _fields = ("nvars", "support")

    def __init__(self, nvars: int, support: FrozenSet[Expt]):
        for e in support:
            if len(e) != nvars or any(k < 0 for k in e):
                raise FormatError(f"bad exponent vector {e}")
        self.nvars, self.support = nvars, support


# bool_poly, bool_poly_mul, bool_poly_from_mask and bool_poly_to_mask spell
# out the product that the bitmask kernel localize.bx_mul computes; the tests
# compare the two.


def bool_poly(nvars: int, support: Iterable[Expt]) -> BoolPoly:
    return BoolPoly(nvars, frozenset(tuple(e) for e in support))


def bool_poly_mul(f: BoolPoly, g: BoolPoly) -> BoolPoly:
    if f.nvars != g.nvars:
        raise PreconditionError("mismatched variable counts")
    return BoolPoly(
        f.nvars,
        frozenset(
            tuple(x + y for x, y in zip(e1, e2)) for e1 in f.support for e2 in g.support
        ),
    )


def bool_eval(f: BoolPoly, point: Sequence[bool]) -> bool:
    """Evaluation at a tuple of booleans (or over and over)."""
    if len(point) != f.nvars:
        raise PreconditionError("point arity mismatch")
    for e in f.support:
        if all(point[i] for i in range(f.nvars) if e[i] > 0):
            return True
    return False


def bool_poly_to_mask(f: BoolPoly) -> int:
    if f.nvars != 1:
        raise PreconditionError("mask form is univariate only")
    m = 0
    for (k,) in f.support:
        m |= 1 << k
    return m


def bool_poly_from_mask(mask: int) -> BoolPoly:
    if mask < 0:
        raise FormatError("negative mask")
    return BoolPoly(1, frozenset((k,) for k in range(mask.bit_length()) if (mask >> k) & 1))


def bool_poly_ord_deg(m: int) -> Tuple:
    """(order at 0, degree) of a univariate boolean polynomial in mask
    form; the zero polynomial maps to the distinguished point (inf, -inf)."""
    if m == 0:
        return (INF, NEG_INF)
    return ((m & -m).bit_length() - 1, m.bit_length() - 1)


def bool_poly_deg(m: int):
    return bool_poly_ord_deg(m)[1]


def squarefree_monomials(nvars: int) -> Tuple[Expt, ...]:
    """The 2^nvars squarefree monomials in nvars variables, sorted. A mask
    over them names a boolean polynomial, the one supported on the
    monomials at its set bits; there are 2^(2^nvars) such masks."""
    if nvars > 4:
        raise PreconditionError("universe too large")
    return tuple(
        sorted(
            tuple(1 if i in s else 0 for i in range(nvars))
            for r in range(nvars + 1)
            for s in combinations(range(nvars), r)
        )
    )


def vanishing_set(monomials: Sequence[Expt], point: Sequence[bool]) -> int:
    """Mask of the monomials that evaluate to 0 at the point: the kernel of
    the evaluation map on squarefree supports is the set of its submasks.
    Each monomial is evaluated once; a polynomial vanishes when it has no
    monomial that does not."""
    alive = 0
    for k, m in enumerate(monomials):
        if bool_eval(BoolPoly(len(m), frozenset((m,))), point):
            alive |= 1 << k
    return ((1 << len(monomials)) - 1) & ~alive


def _free_monomials(monomials: Sequence[Expt], zeros: Sequence[int]) -> int:
    """Mask of the monomials that mention no variable from zeros."""
    out = 0
    for k, e in enumerate(monomials):
        if not any(e[j] > 0 for j in zeros):
            out |= 1 << k
    return out


def monomial_kernel_set(monomials: Sequence[Expt], zeros: Sequence[int]) -> int:
    """Mask of the monomials that mention some variable from `zeros`: the
    monomial ideal generated by those variables, on squarefree supports,
    is the set of its submasks."""
    return ((1 << len(monomials)) - 1) & ~_free_monomials(monomials, zeros)


# ---------------------------------------------------------------------------
# integer polynomials in one variable


def int_mul(f: Coeffs, g: Coeffs) -> Coeffs:
    """Product of two coefficient tuples; with no trailing zero in f and g
    there is none in the product, as Z has no zero divisors."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return tuple(out)


def int_rem(f: Coeffs, g: Coeffs) -> Coeffs:
    """Remainder of f by a monic g. Long division by a monic divisor never
    divides a coefficient, so this remainder in Z[t] is the one in Q[t]."""
    if not g or g[-1] != 1:
        raise PreconditionError(f"divisor {g} is not monic")
    r, n = list(f), len(g) - 1
    for k in range(len(r) - 1, n - 1, -1):
        c = r[k]
        for i, b in enumerate(g):
            r[k - n + i] -= c * b
    del r[n:]
    while r and r[-1] == 0:
        r.pop()
    return tuple(r)


def ktt_member(f: Coeffs) -> bool:
    """Membership in the subring of polynomials with vanishing degree-one
    coefficient."""
    return len(f) < 2 or f[1] == 0
