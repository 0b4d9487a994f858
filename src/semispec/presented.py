"""Finitely presented commutative semirings over the naturals, with a
bounded congruence-closure decision procedure for the word problem.

Terms are N-linear combinations of monomials in the generators, stored
canonically. A presentation induces the smallest semiring congruence
containing its relation pairs; within a size bound this is decided by
exploring single-relation rewrites t -> t - m*L + m*R (m a monomial
multiplier, both directions). Single-monomial multipliers generate the same
congruence as arbitrary polynomial contexts, so connectivity inside the
bounded region is sound; a disconnect is only ever reported as no-at-bound.

The explored universe grows on demand from the queried terms; it is the set
of terms rewrite-reachable from registered seeds within the bound, not a
full enumeration of all bounded terms (which is astronomically large even
at degree 6).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import FormatError, InternalCheckError, PreconditionError, ResourceError
from .kernel import FiniteSemiring, tabulate

Mono = Tuple[int, ...]
Term = Tuple[Tuple[Mono, int], ...]  # sorted by monomial, coefficients >= 1

ZERO: Term = ()


def term_from_items(items: Sequence[Tuple[Mono, int]]) -> Term:
    acc: Dict[Mono, int] = {}
    for m, c in items:
        if c < 0:
            raise FormatError("negative coefficient")
        if c:
            acc[tuple(m)] = acc.get(tuple(m), 0) + c
    return tuple((m, acc[m]) for m in sorted(acc))


def one_term(nvars: int) -> Term:
    return (((0,) * nvars, 1),)


def var_term(nvars: int, i: int) -> Term:
    e = [0] * nvars
    e[i] = 1
    return ((tuple(e), 1),)


def term_add(s: Term, t: Term) -> Term:
    return term_from_items(list(s) + list(t))


def term_mul(s: Term, t: Term) -> Term:
    return term_from_items(
        [
            (tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
            for m1, c1 in s
            for m2, c2 in t
        ]
    )


_MONO_RE = re.compile(r"^(?P<var>[a-zA-Z]\w*)(?:\^(?P<exp>\d+))?$")


def parse_term(text: str, gens: Sequence[str]) -> Term:
    items: List[Tuple[Mono, int]] = []
    for part in text.split("+"):
        part = part.strip()
        if part == "0" or not part:
            continue
        coeff = 1
        factors = part.replace("·", "*").split("*")
        e = [0] * len(gens)
        for f in factors:
            f = f.strip()
            if f.isdigit():
                coeff *= int(f)
                continue
            m = _MONO_RE.match(f)
            if not m or m.group("var") not in gens:
                raise FormatError(f"cannot parse factor {f!r}")
            e[list(gens).index(m.group("var"))] += int(m.group("exp") or 1)
        items.append((tuple(e), coeff))
    return term_from_items(items)


def fmt_term(t: Term, gens: Sequence[str]) -> str:
    if not t:
        return "0"
    parts = []
    for m, c in t:
        mono = "*".join(
            g + (f"^{k}" if k > 1 else "") for g, k in zip(gens, m) if k > 0
        )
        if not mono:
            parts.append(str(c))
        elif c == 1:
            parts.append(mono)
        else:
            parts.append(f"{c}*{mono}")
    return "+".join(parts)


@dataclass(frozen=True)
class Presentation:
    gens: Tuple[str, ...]
    rels: Tuple[Tuple[Term, Term], ...]
    idempotent: bool = False

    @property
    def nvars(self) -> int:
        return len(self.gens)

    def all_rels(self) -> Tuple[Tuple[Term, Term], ...]:
        if not self.idempotent:
            return self.rels
        two_is_one = (term_from_items([((0,) * self.nvars, 2)]), one_term(self.nvars))
        return self.rels + (two_is_one,)


def presentation_from_json(data: dict) -> Presentation:
    try:
        gens_raw = data["gens"]
        rels_raw = data["rels"]
        idem = bool(data.get("idempotent", False))
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad presentation object: {exc}")
    if not isinstance(gens_raw, list):
        raise FormatError("gens must be a list of names")
    gens = tuple(str(g) for g in gens_raw)
    if len(set(gens)) != len(gens):
        raise FormatError("duplicate generators")
    if not isinstance(rels_raw, list) or not all(
        isinstance(rel, list) and len(rel) == 2 for rel in rels_raw
    ):
        raise FormatError("rels must be a list of [lhs, rhs] pairs")
    rels = tuple(
        (parse_term(str(l), gens), parse_term(str(r), gens)) for l, r in rels_raw
    )
    return Presentation(gens, rels, idem)


def counterexample_presentation() -> Presentation:
    gens = ("x", "y")
    rels = (
        (parse_term("x^2", gens), parse_term("x", gens)),
        (parse_term("y^2", gens), parse_term("y", gens)),
        (parse_term("1+x", gens), parse_term("x+y", gens)),
    )
    return Presentation(gens, rels, idempotent=False)


# ---------------------------------------------------------------------------
# bounds


@dataclass(frozen=True)
class Bound:
    degree: int = 6
    coeff: int = 6
    nodes: int = 200000


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int) -> Tuple[Mono, ...]:
    """Every monomial of total degree at most `degree`, in lexicographic order."""
    if nvars == 0:
        return ((),)
    return tuple(
        (k,) + rest for k in range(degree + 1) for rest in monomials(nvars - 1, degree - k)
    )


def term_within(t: Term, bound: Bound) -> bool:
    return all(sum(m) <= bound.degree and c <= bound.coeff for m, c in t)


# ---------------------------------------------------------------------------
# congruence index

Move = Tuple[int, int, Mono]  # relation index, direction (0: L->R, 1: R->L), multiplier
Record = Tuple[Term, Optional[Term], Optional[Move]]  # root, previous term, move


@dataclass
class Answer:
    verdict: str  # "yes" | "no-at-bound"
    bound: Bound
    chain: Optional[List[Term]] = None  # one rewrite per step; a tree path, not the shortest

    @property
    def is_yes(self) -> bool:
        return self.verdict == "yes"


class CongruenceIndex:
    """The rewrite-reachable bounded universe, as one exploration tree per
    component.

    Every term records (root, previous term, move) when an explore first
    reaches it. Every move has its reverse and an explore runs until its
    queue empties or the node budget stops all further search, so no later
    explore can reach an earlier tree: two terms are congruent at the bound
    exactly when they share a root."""

    def __init__(self, pres: Presentation, bound: Optional[Bound] = None):
        self.pres = pres
        self.bound = bound or Bound()
        self.rels = pres.all_rels()
        for l, r in self.rels:
            if not (term_within(l, self.bound) and term_within(r, self.bound)):
                raise PreconditionError("relation exceeds the size bound")
        self._tree: Dict[Term, Record] = {}
        self._explored: Set[Term] = set()
        self._replayed: Set[Tuple[Term, Record]] = set()
        self.budget_exhausted = False

    # rewriting --------------------------------------------------------------
    def _step(self, t: Term, move: Move) -> Optional[Term]:
        """t - m*src + m*dst, or None when m*src is not in t or the result
        leaves the bound (t itself is within it)."""
        ridx, direction, mult = move
        src, dst = self.rels[ridx][direction], self.rels[ridx][1 - direction]
        acc = dict(t)
        for m, c in src:
            key = tuple(map(add, m, mult))
            left = acc.get(key, 0) - c
            if left < 0:
                return None
            if left:
                acc[key] = left
            else:
                del acc[key]
        for m, c in dst:
            key = tuple(map(add, m, mult))
            acc[key] = acc.get(key, 0) + c
            if acc[key] > self.bound.coeff or sum(key) > self.bound.degree:
                return None
        return tuple(sorted(acc.items()))

    def _neighbors(self, t: Term) -> Iterator[Tuple[Term, Move]]:
        for ridx, rel in enumerate(self.rels):
            for direction, src in enumerate(rel):
                if src:
                    # m*src lies in t only if m times its first monomial does
                    m0 = src[0][0]
                    mults = sorted({
                        tuple(a - b for a, b in zip(m, m0))
                        for m, _c in t
                        if all(a >= b for a, b in zip(m, m0))
                    })
                else:
                    # l ~ 0 gives m*l ~ 0, so t ~ t + m*l for every monomial m
                    mults = monomials(self.pres.nvars, self.bound.degree)
                for mult in mults:
                    move = (ridx, direction, mult)
                    nxt = self._step(t, move)
                    if nxt is not None:
                        yield nxt, move

    def explore(self, seed: Term) -> None:
        """Grow the universe by everything rewrite-reachable from the seed."""
        if seed in self._explored:
            return
        if not term_within(seed, self.bound):
            raise PreconditionError("seed exceeds the size bound")
        tree = self._tree
        root = tree.setdefault(seed, (seed, None, None))[0]
        queue = deque([seed])
        while queue:
            cur = queue.popleft()
            if cur in self._explored:
                continue
            self._explored.add(cur)
            if len(tree) > self.bound.nodes:
                self.budget_exhausted = True
                return
            for nxt, move in self._neighbors(cur):
                if nxt not in tree:
                    tree[nxt] = (root, cur, move)
                    queue.append(nxt)

    def root(self, t: Term) -> Term:
        """The first term of t's component, after exploring from t."""
        self.explore(t)
        return self._tree[t][0]

    # queries ----------------------------------------------------------------
    def congruent(self, s: Term, t: Term) -> Answer:
        if self.root(s) != self.root(t):
            return Answer("no-at-bound", self.bound)
        return Answer("yes", self.bound, self._chain(s, t))

    def _chain(self, s: Term, t: Term) -> List[Term]:
        """The tree path from s to t through their lowest common ancestor,
        not necessarily the shortest rewrite path. Each step is replayed
        from its recorded move before the chain is returned, once per
        (term, record) pair: a record that changes is replayed again."""
        up_s, up_t = self._ancestors(s), self._ancestors(t)
        while len(up_s) > 1 and len(up_t) > 1 and up_s[-2] == up_t[-2]:
            up_s.pop()
            up_t.pop()
        for child in up_s[:-1] + up_t[:-1]:
            edge = (child, self._tree[child])
            if edge in self._replayed:
                continue
            _root, prev, move = edge[1]
            if self._step(prev, move) != child:
                raise InternalCheckError("replay chain contains an illegal step")
            self._replayed.add(edge)
        return up_s + up_t[-2::-1]

    def _ancestors(self, t: Term) -> List[Term]:
        """t, its previous term, and so on up to its root."""
        path = [t]
        while self._tree[path[-1]][1] is not None:
            path.append(self._tree[path[-1]][1])
        return path


def build_index(pres: Presentation, bound: Optional[Bound] = None) -> CongruenceIndex:
    idx = CongruenceIndex(pres, bound)
    for l, r in idx.rels:
        if not idx.congruent(l, r).is_yes:
            raise InternalCheckError("relation sides not congruent")
    return idx


def congruent(index: CongruenceIndex, s: Term, t: Term) -> Answer:
    return index.congruent(s, t)


def localized_images_equal(
    pres: Presentation,
    s: Term,
    t: Term,
    gen: str,
    bound: Optional[Bound] = None,
    kmax: int = 8,
) -> Tuple[bool, int]:
    """True iff a^k*s ~ a^k*t for some k <= kmax (fraction equality after
    inverting the generator); returns the smallest such k."""
    if gen not in pres.gens:
        raise PreconditionError(f"unknown generator {gen!r}")
    idx = CongruenceIndex(pres, bound)
    a = var_term(pres.nvars, list(pres.gens).index(gen))
    ak = one_term(pres.nvars)
    for k in range(kmax + 1):
        lhs, rhs = term_mul(ak, s), term_mul(ak, t)
        if term_within(lhs, idx.bound) and term_within(rhs, idx.bound):
            if idx.congruent(lhs, rhs).is_yes:
                return True, k
        ak = term_mul(ak, a)
    return False, -1


def finite_quotient(
    pres: Presentation,
    degree: int = 4,
    coeff: int = 4,
    bound: Optional[Bound] = None,
) -> Tuple[FiniteSemiring, Dict[Term, int]]:
    """Reconstruct the quotient as a finite table by partitioning all terms
    up to (degree, coeff) into congruence classes. Raises if an operation
    leaves the enumerated classes; intended for presentations defining a
    small finite semiring.

    The rewrite search is confined to twice the enumeration bounds: paths
    between small terms may legitimately pass through somewhat larger ones,
    but an unbounded search universe makes idempotent presentations blow
    up. If even that region exhausts the node budget the partition would
    be untrustworthy, so the call refuses instead of returning tables.
    The enumeration must hold 0 and 1: coeff >= 1 and degree >= 0."""
    if coeff < 1 or degree < 0:
        raise PreconditionError("presentation bounds need coeff >= 1 and degree >= 0")
    if bound is None:
        bound = Bound(degree=2 * degree, coeff=2 * coeff)
    idx = CongruenceIndex(pres, bound)
    nv = pres.nvars
    monos = monomials(nv, degree)
    terms: List[Term] = []

    def gen_terms(i: int, acc: List[Tuple[Mono, int]]) -> None:
        if i == len(monos):
            terms.append(term_from_items(acc))
            return
        for c in range(coeff + 1):
            gen_terms(i + 1, acc + ([(monos[i], c)] if c else []))

    if (coeff + 1) ** len(monos) > 100000:
        raise ResourceError("enumeration bound too large")
    gen_terms(0, [])

    def check_budget() -> None:
        if idx.budget_exhausted:
            raise ResourceError(
                "node budget exhausted; the class partition would be "
                "untrustworthy"
            )

    reps: List[Term] = []
    by_root: Dict[Term, int] = {}  # component root -> class
    cls: Dict[Term, int] = {}

    def class_of(t: Term) -> Optional[int]:
        """The class of t's component, with t's chain to its representative
        replayed, or None for a component no enumerated term reached.
        Refuses once the budget ran out, before any axiom check of the
        tables can run."""
        i = by_root.get(idx.root(t))
        check_budget()
        if i is not None:
            idx.congruent(t, reps[i])
        return i

    for t in terms:
        i = class_of(t)
        if i is None:
            i = by_root[idx.root(t)] = len(reps)
            reps.append(t)
        cls[t] = i

    def classify(t: Term) -> Term:
        i = cls.get(t)
        if i is None and term_within(t, idx.bound):
            i = class_of(t)
        if i is None:
            raise PreconditionError("operation leaves the enumerated classes")
        return reps[i]

    table = tabulate(
        reps,
        lambda s, t: classify(term_add(s, t)),
        lambda s, t: classify(term_mul(s, t)),
        reps[cls[ZERO]],
        reps[cls[one_term(nv)]],
        "presented-quotient",
        [fmt_term(r, pres.gens) for r in reps],
    )
    return table, cls
