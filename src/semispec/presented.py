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
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .errors import FormatError, InternalCheckError, PreconditionError, ResourceError
from .kernel import FiniteSemiring, env_int, tabulate

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


def term_scale(m: Mono, c: int, t: Term) -> Term:
    return term_from_items([(tuple(a + b for a, b in zip(m, mm)), c * cc) for mm, cc in t])


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

    @staticmethod
    def from_env() -> "Bound":
        """The default bound, with SEMISPEC_CONGRUENCE_NODES as its node
        budget when set."""
        return Bound(nodes=env_int("SEMISPEC_CONGRUENCE_NODES", Bound.nodes))


def monomials(nvars: int, degree: int) -> List[Mono]:
    """Every monomial of total degree at most `degree`, in lexicographic order."""
    if nvars == 0:
        return [()]
    return [
        (k,) + rest for k in range(degree + 1) for rest in monomials(nvars - 1, degree - k)
    ]


def term_within(t: Term, bound: Bound) -> bool:
    return all(sum(m) <= bound.degree and c <= bound.coeff for m, c in t)


# ---------------------------------------------------------------------------
# congruence index

Move = Tuple[int, int, Mono]  # relation index, direction (0: L->R, 1: R->L), multiplier


@dataclass
class Answer:
    verdict: str  # "yes" | "no-at-bound"
    bound: Bound
    chain: Optional[List[Term]] = None

    @property
    def is_yes(self) -> bool:
        return self.verdict == "yes"


class CongruenceIndex:
    """Union-find over the rewrite-reachable bounded universe."""

    def __init__(self, pres: Presentation, bound: Optional[Bound] = None):
        self.pres = pres
        self.bound = bound or Bound.from_env()
        self.rels = pres.all_rels()
        for l, r in self.rels:
            if not (term_within(l, self.bound) and term_within(r, self.bound)):
                raise PreconditionError("relation exceeds the size bound")
        self._parent: Dict[Term, Term] = {}
        self._explored: Set[Term] = set()
        self._nodes = 0
        # multipliers for the relations with a side 0; see _neighbors
        self._all_monos = (
            monomials(pres.nvars, self.bound.degree)
            if any(not l or not r for l, r in self.rels) else []
        )
        self.budget_exhausted = False

    # union-find ------------------------------------------------------------
    def _find(self, t: Term) -> Term:
        root = t
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[t] != root:  # path halving
            self._parent[t], t = root, self._parent[t]
        return root

    def _union(self, s: Term, t: Term) -> None:
        rs, rt = self._find(s), self._find(t)
        if rs != rt:
            self._parent[rs] = rt

    def _register(self, t: Term) -> None:
        if t not in self._parent:
            self._parent[t] = t
            self._nodes += 1

    # rewriting --------------------------------------------------------------
    def _contains(self, t: Term, pattern: Term) -> bool:
        td = dict(t)
        return all(td.get(m, 0) >= c for m, c in pattern)

    def _neighbors(self, t: Term) -> Iterator[Tuple[Term, Move]]:
        td = dict(t)
        nv = self.pres.nvars
        for ridx, (l, r) in enumerate(self.rels):
            for direction, (src, dst) in enumerate(((l, r), (r, l))):
                if not src:
                    # l ~ 0 gives m*l ~ 0, so t ~ t + m*l for every monomial m
                    for mult in self._all_monos:
                        result = term_add(t, term_scale(mult, 1, dst))
                        if term_within(result, self.bound):
                            yield result, (ridx, direction, mult)
                    continue
                m0, _ = src[0]
                # candidate multipliers come from monomials of t over m0
                cands = set()
                for m, _c in t:
                    if all(a >= b for a, b in zip(m, m0)):
                        cands.add(tuple(a - b for a, b in zip(m, m0)))
                for mult in sorted(cands):
                    shifted_src = term_scale(mult, 1, src)
                    if not self._contains(t, shifted_src):
                        continue
                    rest = term_from_items(
                        [(m, td.get(m, 0) - dict(shifted_src).get(m, 0)) for m in td]
                    )
                    result = term_add(rest, term_scale(mult, 1, dst))
                    if term_within(result, self.bound):
                        yield result, (ridx, direction, mult)

    def explore(self, seed: Term) -> None:
        """Grow the universe by everything rewrite-reachable from the seed."""
        if not term_within(seed, self.bound):
            raise PreconditionError("seed exceeds the size bound")
        if seed in self._explored:
            return
        self._register(seed)
        queue = deque([seed])
        while queue:
            cur = queue.popleft()
            if cur in self._explored:
                continue
            self._explored.add(cur)
            if self._nodes > self.bound.nodes:
                self.budget_exhausted = True
                return
            for nxt, _move in self._neighbors(cur):
                self._register(nxt)
                self._union(cur, nxt)
                if nxt not in self._explored:
                    queue.append(nxt)

    # queries ----------------------------------------------------------------
    def congruent(self, s: Term, t: Term) -> Answer:
        self.explore(s)
        self.explore(t)
        if self._find(s) != self._find(t):
            return Answer("no-at-bound", self.bound)
        chain = self._path(s, t)
        self._verify_chain(chain)
        return Answer("yes", self.bound, chain)

    def _path(self, s: Term, t: Term) -> List[Term]:
        """Shortest rewrite path inside the explored region."""
        if s == t:
            return [s]
        prev: Dict[Term, Term] = {s: s}
        queue = deque([s])
        while queue:
            cur = queue.popleft()
            for nxt, _move in self._neighbors(cur):
                if nxt in prev or nxt not in self._parent:
                    continue
                prev[nxt] = cur
                if nxt == t:
                    path = [t]
                    while path[-1] != s:
                        path.append(prev[path[-1]])
                    return list(reversed(path))
                queue.append(nxt)
        raise InternalCheckError("connected terms admit no replay path")

    def _verify_chain(self, chain: List[Term]) -> None:
        for a, b in zip(chain, chain[1:]):
            if all(nxt != b for nxt, _m in self._neighbors(a)):
                raise InternalCheckError("replay chain contains an illegal step")


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
    be untrustworthy, so the call refuses instead of returning tables."""
    if bound is None:
        bound = Bound(
            degree=2 * degree, coeff=2 * coeff, nodes=Bound.from_env().nodes
        )
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
    cls: Dict[Term, int] = {}
    for t in terms:
        for i, r in enumerate(reps):
            if idx.congruent(t, r).is_yes:
                cls[t] = i
                break
        else:
            cls[t] = len(reps)
            reps.append(t)
        check_budget()

    def classify(t: Term) -> Term:
        """Representative of t's class; refuses once the budget ran out,
        before any axiom check of the tables can run."""
        if t in cls:
            return reps[cls[t]]
        for r in reps:
            if term_within(t, idx.bound) and idx.congruent(t, r).is_yes:
                check_budget()
                return r
        check_budget()
        raise PreconditionError("operation leaves the enumerated classes")

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
