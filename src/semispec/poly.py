"""Polynomial semirings at desk scale.

Two representations, one per job:
  BoolPoly  bare supports (all coefficients 1), evaluated at boolean points,
            with a bitmask form for one variable;
  RatPoly   exact rational univariate polynomials for the subring of
            polynomials whose degree-one coefficient vanishes.
A squarefree-supported BoolPoly in n variables is a bitmask over the 2^n
squarefree monomials, and a kernel of evaluation on them is the set of
submasks of one mask of monomials.

Supports are never functionally normalized: two supports that induce the
same tropical function stay distinct elements.
"""

from __future__ import annotations

import re
from itertools import combinations
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Sequence, Tuple

from .errors import FormatError, PreconditionError
from .kernel import Record

if TYPE_CHECKING:  # imported where used: only criterion 5 reaches it
    from fractions import Fraction

INF = float("inf")
NEG_INF = float("-inf")

Expt = Tuple[int, ...]


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
# RatPoly


class RatPoly(Record):
    """Univariate polynomial with exact rational coefficients, stored as
    sorted (degree, coefficient) pairs with no zero coefficients."""

    __slots__ = _fields = ("coeffs",)

    def __init__(self, coeffs: Tuple[Tuple[int, Fraction], ...]):
        degs = [d for d, _ in coeffs]
        if degs != sorted(set(degs)) or any(d < 0 for d in degs):
            raise FormatError("coefficients must be sorted by distinct degree")
        if any(c == 0 for _, c in coeffs):
            raise FormatError("stored zero coefficient")
        self.coeffs = coeffs

    def coeff(self, d: int) -> Fraction:
        from fractions import Fraction

        for dd, c in self.coeffs:
            if dd == d:
                return c
        return Fraction(0)

    def degree(self) -> int:
        if not self.coeffs:
            return -1
        return self.coeffs[-1][0]

    def is_zero(self) -> bool:
        return not self.coeffs


def rat_poly(items: Iterable[Tuple[int, Fraction]]) -> RatPoly:
    from fractions import Fraction

    acc: Dict[int, Fraction] = {}
    for d, c in items:
        acc[d] = acc.get(d, Fraction(0)) + Fraction(c)
    return RatPoly(tuple((d, acc[d]) for d in sorted(acc) if acc[d] != 0))


def rat_add(f: RatPoly, g: RatPoly) -> RatPoly:
    return rat_poly(list(f.coeffs) + list(g.coeffs))


def rat_neg(f: RatPoly) -> RatPoly:
    return RatPoly(tuple((d, -c) for d, c in f.coeffs))


def rat_sub(f: RatPoly, g: RatPoly) -> RatPoly:
    return rat_add(f, rat_neg(g))


def rat_mul(f: RatPoly, g: RatPoly) -> RatPoly:
    return rat_poly(
        (d1 + d2, c1 * c2) for d1, c1 in f.coeffs for d2, c2 in g.coeffs
    )


def rat_divmod(f: RatPoly, g: RatPoly) -> Tuple[RatPoly, RatPoly]:
    """Exact euclidean division in Q[t]."""
    if g.is_zero():
        raise PreconditionError("division by the zero polynomial")
    q = rat_poly([])
    r = f
    gd, gl = g.degree(), g.coeffs[-1][1]
    while not r.is_zero() and r.degree() >= gd:
        d = r.degree() - gd
        c = r.coeffs[-1][1] / gl
        term = RatPoly(((d, c),))
        q = rat_add(q, term)
        r = rat_sub(r, rat_mul(term, g))
    return q, r


def ktt_member(f: RatPoly) -> bool:
    """Membership in the subring of polynomials with vanishing degree-one
    coefficient."""
    return f.coeff(1) == 0


# ---------------------------------------------------------------------------
# parsers

_TERM_RE = re.compile(r"^\s*(?:(?P<coeff>-?\d+(?:/\d+)?)\s*[*⊙]?\s*)?(?P<mono>[a-zA-Z(].*)?$")
_FACTOR_RE = re.compile(r"^(?P<var>[a-zA-Z]\w*)(?:\^(?P<exp>\d+))?$")


def _split_terms(text: str) -> List[str]:
    # split on + and on binary - (keeping the sign with the term)
    out: List[str] = []
    cur = ""
    for ch in text:
        if ch == "+":
            if cur.strip():
                out.append(cur)
            cur = ""
        elif ch == "-" and cur.strip():
            out.append(cur)
            cur = "-"
        else:
            cur += ch
    if cur.strip():
        out.append(cur)
    return out


def parse_rat_poly(text: str, var: str = "t") -> RatPoly:
    """Parse sums of "c*t^k" terms with integer or a/b rational c."""
    from fractions import Fraction

    items = []
    for term in _split_terms(text):
        term = term.strip()
        if term in ("0", "-0"):
            continue
        sign = Fraction(1)
        if term.startswith("-"):
            sign = Fraction(-1)
            term = term[1:].strip()
        m = _TERM_RE.match(term)
        if m is None:
            raise FormatError(f"cannot parse term {term!r}")
        ctext, mono = m.group("coeff"), (m.group("mono") or "").strip()
        coeff = sign * (Fraction(ctext) if ctext else Fraction(1))
        if not mono or mono == "1":
            deg = 0
        else:
            fm = _FACTOR_RE.match(mono)
            if not fm or fm.group("var") != var:
                raise FormatError(f"cannot parse term {term!r}")
            deg = int(fm.group("exp") or 1)
        items.append((deg, coeff))
    return rat_poly(items)

