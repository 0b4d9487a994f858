"""Named finite semirings used across the test and verification suites.

The corpus deliberately mixes idempotent and non-idempotent members, rings,
chains, products, quotients with nilpotents, and saturating arithmetic, at
sizes 2..16. Every member is checked against the axioms by `make_semiring`.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Dict, List, Optional

from .errors import UnknownNameError
from .kernel import FiniteSemiring, make_semiring


def _trivial1() -> FiniteSemiring:
    return make_semiring([0], lambda a, b: 0, lambda a, b: 0, 0, 0, "trivial1", ["0"])


def _bool2() -> FiniteSemiring:
    return make_semiring(
        [0, 1], lambda a, b: a | b, lambda a, b: a & b, 0, 1, "bool2", ["0", "1"]
    )


def _f2() -> FiniteSemiring:
    return make_semiring(
        [0, 1], lambda a, b: a ^ b, lambda a, b: a & b, 0, 1, "f2", ["0", "1"]
    )


def _z4() -> FiniteSemiring:
    els = [0, 1, 2, 3]
    return make_semiring(
        els,
        lambda a, b: (a + b) % 4,
        lambda a, b: (a * b) % 4,
        0,
        1,
        "z4",
        [str(e) for e in els],
    )


def _chain(k: int, label: str, names: List[str]) -> FiniteSemiring:
    els = list(range(k))
    return make_semiring(els, max, min, 0, k - 1, label, names)


def _satnat(cap: int, label: str) -> FiniteSemiring:
    els = list(range(cap + 1))
    return make_semiring(
        els,
        lambda a, b: min(a + b, cap),
        lambda a, b: min(a * b, cap),
        0,
        1,
        label,
        [str(e) for e in els],
    )


def _trop(cap: int, label: str) -> FiniteSemiring:
    """Truncated min-plus: {inf, 0, 1, ..., cap}; zero=inf, one=0."""
    inf = cap + 1  # sentinel value larger than every finite element
    els = [inf] + list(range(cap + 1))

    def plus(a: int, b: int) -> int:
        return min(a, b) if a != inf and b != inf else (b if a == inf else a)

    def times(a: int, b: int) -> int:
        if a == inf or b == inf:
            return inf
        return min(a + b, cap)

    names = ["inf"] + [str(e) for e in range(cap + 1)]
    return make_semiring(els, plus, times, inf, 0, label, names)


def _bool_monomial_quotient(nvars: int, square: str, label: str) -> FiniteSemiring:
    """B[x1..xn] modulo xi^2 = xi (square='keep') or xi^2 = 0 (square='drop').

    Elements are sets of squarefree monomials; monomials are frozensets of
    variable indices. Addition is union; multiplication distributes, with
    a product of monomials sharing a variable either collapsing (keep) or
    vanishing (drop).
    """
    monos = [frozenset(s) for k in range(nvars + 1) for s in combinations(range(nvars), k)]
    els = [frozenset(s) for k in range(len(monos) + 1) for s in combinations(monos, k)]
    els = sorted(set(els), key=lambda e: (len(e), sorted(tuple(sorted(m)) for m in e)))

    def times(u, v):
        out = set()
        for m1 in u:
            for m2 in v:
                if square == "drop" and (m1 & m2):
                    continue
                out.add(m1 | m2)
        return frozenset(out)

    def name(e) -> str:
        if not e:
            return "0"
        parts = []
        for m in sorted(e, key=lambda m: (len(m), sorted(m))):
            parts.append("1" if not m else "".join(_VARS[i] for i in sorted(m)))
        return "+".join(parts)

    return make_semiring(
        els, lambda u, v: u | v, times, frozenset(), frozenset([frozenset()]),
        label, [name(e) for e in els],
    )


_VARS = "xyzw"


def product_semiring(A: FiniteSemiring, B: FiniteSemiring, label: str) -> FiniteSemiring:
    els = list(product(range(A.size), range(B.size)))
    return make_semiring(
        els,
        lambda u, v: (A.add[u[0]][v[0]], B.add[u[1]][v[1]]),
        lambda u, v: (A.mul[u[0]][v[0]], B.mul[u[1]][v[1]]),
        (A.zero, B.zero),
        (A.one, B.one),
        label,
        [f"({A.name_of(a)},{B.name_of(b)})" for a, b in els],
    )


_FACTORIES = {
    "trivial1": _trivial1,
    "bool2": _bool2,
    "f2": _f2,
    "z4": _z4,
    "chain3": lambda: _chain(3, "chain3", ["0", "h", "1"]),
    "chain4": lambda: _chain(4, "chain4", ["0", "a", "b", "1"]),
    "boolx": lambda: _bool_monomial_quotient(1, "keep", "boolx"),
    "boolnil": lambda: _bool_monomial_quotient(1, "drop", "boolnil"),
    "boolxy": lambda: _bool_monomial_quotient(2, "keep", "boolxy"),
    "boolpair": lambda: product_semiring(_bool2(), _bool2(), "boolpair"),
    "chain3xbool": lambda: product_semiring(
        _chain(3, "chain3", ["0", "h", "1"]), _bool2(), "chain3xbool"
    ),
    "satnat4": lambda: _satnat(3, "satnat4"),
    "satnat8": lambda: _satnat(7, "satnat8"),
    "trop5": lambda: _trop(3, "trop5"),
}

_CACHE: Dict[str, FiniteSemiring] = {}


def corpus_names() -> List[str]:
    return sorted(_FACTORIES)


def get(name: str) -> FiniteSemiring:
    if name not in _FACTORIES:
        raise UnknownNameError(
            f"unknown corpus semiring {name!r}; known: {', '.join(corpus_names())}"
        )
    if name not in _CACHE:
        _CACHE[name] = _FACTORIES[name]()
    return _CACHE[name]


def members(max_size: Optional[int] = None, include_trivial: bool = False) -> List[FiniteSemiring]:
    """Corpus members of at most max_size elements, in name order;
    trivial1, the one member of one element, only when asked for."""
    out = []
    for name in corpus_names():
        A = get(name)
        if name == "trivial1" and not include_trivial:
            continue
        if max_size is not None and A.size > max_size:
            continue
        out.append(A)
    return out
