"""Finitely presented commutative semirings over the naturals: the word
problem decided by a completed rewriting system, finite models that tell
two terms apart, and finite quotients built by closure from the
generators.

Terms are N-linear combinations of monomials in the generators, stored
canonically. A presentation induces the smallest semiring congruence
containing its relation pairs. Each relation is oriented from its larger
side in a fixed well-founded order, and the oriented relations are
completed by critical pairs (Knuth-Bendix) within a size bound. A rewrite
replaces m*L in a term by m*R, for a monomial m; single-monomial
multipliers generate the same congruence as arbitrary polynomial
contexts. Two terms with one normal form are congruent, and the rewrites
that reach it are the certificate. Two terms with distinct normal forms
are distinct when the bound cut nothing: no critical pair, and no rewrite
of either normal form. Otherwise the question is refused.

A finite quotient is built by closure from the generators, on the same
normal forms, and returned only once it passes a model check
(`finite_quotient`).
"""

from __future__ import annotations

import itertools
import math
import re
from operator import add, ge, sub
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .errors import FormatError, InternalCheckError, PreconditionError, ResourceError
from .kernel import MAX_SIZE, FiniteSemiring, make_semiring

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


_VAR = r"[a-zA-Z]\w*"  # a generator's name
_MONO_RE = re.compile(rf"^(?P<var>{_VAR})(?:\^(?P<exp>[0-9]+))?$")


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
            if f.isascii() and f.isdigit():
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


class Presentation(NamedTuple):
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
        idem = data.get("idempotent", False)
    except (KeyError, TypeError) as exc:
        raise FormatError(f"bad presentation object: {exc}")
    if not isinstance(idem, bool):
        raise FormatError("idempotent must be true or false")
    if not isinstance(gens_raw, list):
        raise FormatError("gens must be a list of names")
    for g in gens_raw:
        if not (isinstance(g, str) and re.fullmatch(_VAR, g)):
            raise FormatError(f"generator {g!r} is not a variable name {_VAR}")
    gens = tuple(gens_raw)
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


class Bound(NamedTuple):
    degree: int = 6
    coeff: int = 6
    nodes: int = 200000


def term_within(t: Term, bound: Bound) -> bool:
    return all(sum(m) <= bound.degree and c <= bound.coeff for m, c in t)


def _rewrite(
    t: Term, src: Term, dst: Term, mult: Mono, bound: Bound
) -> Optional[Tuple[Term, bool]]:
    """t - mult*src + mult*dst, and whether every monomial it raises stays
    within the bound; None when mult*src is not in t."""
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
    fits = True
    for m, c in dst:
        key = tuple(map(add, m, mult))
        acc[key] = acc.get(key, 0) + c
        fits = fits and acc[key] <= bound.coeff and sum(key) <= bound.degree
    return tuple(sorted(acc.items())), fits


# ---------------------------------------------------------------------------
# finite models


def _repeat(op: Callable, unit, x, n: int):
    """x op x op ... op x with n operands, unit when n is 0, by square and
    multiply: about 2 log2(n) applications of the associative op."""
    acc = unit
    while n:
        if n & 1:
            acc = op(acc, x)
        n >>= 1
        if n:
            x = op(x, x)
    return acc


def _value(zero, one, plus: Callable, times: Callable, images: Sequence, t: Term):
    """The value of t with generator i sent to images[i], in the semiring
    given by its 0, 1, + and *. Powers and multiples are taken by
    `_repeat`, so x^e costs log e products, not e; both operations are
    associative in every table that passed the axiom scan and in both
    infinite models. A value can still be large: 2^e in the naturals has
    e bits."""
    acc = zero
    for m, c in t:
        v = one
        for g, e in zip(images, m):
            v = times(v, _repeat(times, one, g, e))
        acc = plus(acc, _repeat(plus, zero, v, c))
    return acc


def evaluate(A: FiniteSemiring, images: Sequence[int], t: Term) -> int:
    """The value of t in A with generator i sent to images[i]."""
    plus, times = A.add, A.mul
    return _value(
        A.zero, A.one, lambda a, b: plus[a][b], lambda a, b: times[a][b], images, t
    )


def is_model(A: FiniteSemiring, images: Sequence[int], pres: Presentation) -> bool:
    """Every relation of pres holds in A with generator i sent to images[i]."""
    return all(
        evaluate(A, images, l) == evaluate(A, images, r) for l, r in pres.all_rels()
    )


def separating_model(
    pres: Presentation, s: Term, t: Term, tables: Sequence[FiniteSemiring]
) -> Optional[Tuple[FiniteSemiring, Tuple[int, ...]]]:
    """The first table, smallest first, with generator images under which
    every relation holds and s and t differ, or None. Such a finite model
    proves s and t distinct in the presented semiring (finite model search
    in the style of McCune's Mace4, 2003)."""
    for A in sorted(tables, key=lambda A: A.size):
        for images in itertools.product(A.elements, repeat=pres.nvars):
            if is_model(A, images, pres) and evaluate(A, images, s) != evaluate(A, images, t):
                return A, images
    return None


_INF = float("inf")

# Two infinite semirings with generator images to try, and when the image
# of a presented semiring in them is infinite. The naturals with a top
# element receive N injectively, so every image there is infinite. In the
# max-plus integers (0 is -inf, 1 is 0, + is max, * is +) a generator sent
# to v, finite and not 0, has powers worth v, 2v, 3v, ...
_INFINITE_MODELS = (
    (
        "the naturals with a top element (inf)",
        (0, 1, add, lambda a, b: 0 if a == 0 or b == 0 else a * b),
        (0, 1, 2, _INF),
        lambda images: True,
    ),
    (
        "the max-plus integers",
        (-_INF, 0, max, add),
        (-_INF, -1, 0, 1),
        lambda images: any(v not in (0, -_INF) for v in images),
    ),
)


def infinite_model(pres: Presentation) -> Optional[str]:
    """Generator images in an infinite semiring under which every relation
    holds and the image of the presented semiring is infinite, described,
    or None. Such images prove the presented semiring infinite. At most
    4,096 assignments (every one for up to six generators) are tried in
    each semiring."""
    for name, ops, candidates, infinite in _INFINITE_MODELS:
        for images in itertools.islice(
            itertools.product(candidates, repeat=pres.nvars), 4096
        ):
            if infinite(images) and all(
                _value(*ops, images, l) == _value(*ops, images, r)
                for l, r in pres.all_rels()
            ):
                shown = ", ".join(f"{g} = {v:g}" for g, v in zip(pres.gens, images))
                return f"{shown or 'no generators'} in {name}"
    return None


# ---------------------------------------------------------------------------
# completion: normal forms, congruence and finite quotients


def _order_key(t: Term) -> Tuple[Tuple[int, Mono, int], ...]:
    """Sort key of the fixed well-founded order that every reduction step
    must lower. Terms compare as multisets of monomials: the larger term has
    the larger coefficient at the largest monomial where the two differ.
    Monomials compare by degree, then lexicographically. The multiset
    extension of a well-order is well-founded (Dershowitz and Manna, 1979),
    and s < t gives s + u < t + u and m*s < m*t, so a relation oriented from
    its larger side lowers every term it rewrites."""
    return tuple(sorted(((sum(m), m, c) for m, c in t), reverse=True))


Rule = Tuple[Term, Term]  # larger side, smaller side


def _overlaps(r1: Rule, r2: Rule) -> Iterator[Tuple[Term, Mono, Mono]]:
    """The critical pairs of two oriented relations: for a monomial a of
    one larger side and b of the other, the least term holding the
    multiples of both larger sides that meet on lcm(a, b) (coefficient by
    coefficient, the larger), with the two multipliers."""
    l1, l2 = r1[0], r2[0]
    for a, _c in l1:
        for b, _c in l2:
            if r1 == r2 and a >= b:  # a == b is trivial; (b, a) repeats (a, b)
                continue
            top = tuple(map(max, a, b))
            m1, m2 = tuple(map(sub, top, a)), tuple(map(sub, top, b))
            acc = dict(term_mul(l1, ((m1, 1),)))
            for m, c in term_mul(l2, ((m2, 1),)):
                acc[m] = max(acc.get(m, 0), c)
            yield term_from_items(list(acc.items())), m1, m2


class Answer(NamedTuple):
    verdict: str  # "yes" | "no-at-bound", a proof that the terms differ
    chain: Optional[List[Term]] = None  # s, rewrites down to one normal form, up to t

    @property
    def is_yes(self) -> bool:
        return self.verdict == "yes"


class _Closure:
    """The relations of a presentation, oriented from their larger side and
    completed, and the closure from the generators, whose representatives
    are normal forms. `cut` is the first critical term that completion
    skipped because of the bound, or None."""

    def __init__(self, pres: Presentation, bound: Bound):
        self.pres = pres
        self.bound = bound
        self.examined = 0
        self.cut: Optional[Term] = None
        self.rules: List[Rule] = []
        self._descents: Dict[Term, Tuple[List[Term], bool]] = {}
        for rel in pres.all_rels():
            self._orient(rel)
        self._complete()

    def _orient(self, rel: Tuple[Term, Term]) -> None:
        l, r = rel
        if l != r:
            self.rules.append((l, r) if _order_key(l) > _order_key(r) else (r, l))

    def _moves(self, t: Term) -> Iterator[Tuple[Term, Term, Mono]]:
        """Candidate rewrites of t by the oriented relations: a larger side,
        the smaller side, and the multiplier that puts the larger side's
        first monomial on one of t's. Each is charged to the node budget."""
        for src, dst in self.rules:
            m0 = src[0][0]
            for m, _c in t:
                if all(map(ge, m, m0)):
                    self.examined += 1
                    if self.examined > self.bound.nodes:
                        raise ResourceError(
                            f"node budget of {self.bound.nodes} rewrites exhausted"
                        )
                    yield src, dst, tuple(map(sub, m, m0))

    def _reduce(self, t: Term) -> Tuple[List[Term], List[Tuple[Rule, Mono]], bool]:
        """t and the terms it rewrites to while an oriented relation
        applies within the bound, down to a normal form; the rule and
        multiplier of each step; and whether some relation still matches
        the normal form, with a result outside the bound. Each step
        replaces a multiple of one side of a relation by the same multiple
        of the other, so t is congruent to the result, and it must lower
        `_order_key`."""
        terms, moves = [t], []
        cur = t
        while True:
            blocked = False
            for src, dst, mult in self._moves(cur):
                step = _rewrite(cur, src, dst, mult, self.bound)
                if step is not None:
                    nxt, fits = step
                    if fits:
                        break
                    blocked = True
            else:
                return terms, moves, blocked
            if _order_key(nxt) >= _order_key(cur):
                raise InternalCheckError("reduction step does not lower the term order")
            terms.append(nxt)
            moves.append(((src, dst), mult))
            cur = nxt

    def normal_form(self, t: Term) -> Term:
        """t rewritten while an oriented relation applies within the bound."""
        return self._reduce(t)[0][-1]

    def _complete(self) -> None:
        """Knuth-Bendix completion within the bound: each critical pair is
        rewritten both ways, and two different normal forms, congruent
        through the term they share, join the relations, oriented. A
        critical term outside the bound, or one whose two rewrites are not
        both within it, is skipped, and the first such term is kept in
        `cut`. When none is, every critical pair joins, so the rules are
        confluent on all terms, not only within the bound (the critical
        pair lemma: Knuth and Bendix, 1970; Huet, 1980; for congruences of
        commutative monoids, Buchberger's criterion for binomial ideals:
        Eisenbud and Sturmfels, 1996), and every term has one normal form
        (Newman's lemma)."""
        done = 0
        while done < len(self.rules):
            rule = self.rules[done]
            for other in self.rules[: done + 1]:
                for s, m1, m2 in _overlaps(rule, other):
                    # s holds both multiples, so both rewrites match
                    p, p_fits = _rewrite(s, *rule, m1, self.bound)
                    q, q_fits = _rewrite(s, *other, m2, self.bound)
                    if term_within(s, self.bound) and p_fits and q_fits:
                        p, q = self.normal_form(p), self.normal_form(q)
                        if p != q:
                            self._orient((p, q))
                    elif self.cut is None:
                        self.cut = s
            done += 1

    def congruent(self, s: Term, t: Term) -> Answer:
        """"yes" when s and t reach one normal form, with the chain s -> ...
        -> normal form <- ... <- t, each step replayed. "no-at-bound" when
        the normal forms differ and the bound cut nothing: completion
        skipped no critical pair, and no relation matches either normal
        form. Normal forms are then unique (`_complete`), so they prove s
        and t distinct at every bound. Otherwise ResourceError, naming the
        cut. Each query may examine up to the node budget of rewrites."""
        self.examined = 0
        (s_down, s_blocked), (t_down, t_blocked) = self._descent(s), self._descent(t)
        if s_down[-1] == t_down[-1]:
            return Answer("yes", s_down + t_down[-2::-1])
        gens, bound = self.pres.gens, self.bound
        if self.cut is not None:
            cut = f"completion skipped the critical term {fmt_term(self.cut, gens)}"
        elif s_blocked or t_blocked:
            nf = (s_down if s_blocked else t_down)[-1]
            cut = f"a relation rewrites the normal form {fmt_term(nf, gens)} only"
        else:
            return Answer("no-at-bound")
        raise ResourceError(
            f"{cut} outside degree {bound.degree}, coefficient {bound.coeff}: "
            "cannot tell the normal forms apart"
        )

    def _descent(self, t: Term) -> Tuple[List[Term], bool]:
        """The terms and the flag of `_reduce`, once each step is replayed
        by one of the rules. Kept once found."""
        found = self._descents.get(t)
        if found is None:
            terms, moves, blocked = self._reduce(t)
            for cur, (rule, mult), nxt in zip(terms, moves, terms[1:]):
                if rule not in self.rules or _rewrite(cur, *rule, mult, self.bound) != (nxt, True):
                    raise InternalCheckError("replay chain contains an illegal step")
            found = self._descents[t] = terms, blocked
        return found

    def table(self) -> Tuple[FiniteSemiring, Tuple[int, ...]]:
        """The table of the representatives, found by closure from 0, 1 and
        the generators, and the generators' representatives."""
        reps: List[Term] = []
        index: Dict[Term, int] = {}
        add_t: Dict[Tuple[int, int], int] = {}
        mul_t: Dict[Tuple[int, int], int] = {}

        def rep_of(t: Term) -> int:
            nf = self.normal_form(t)
            i = index.get(nf)
            if i is None:
                if not term_within(nf, self.bound):
                    raise ResourceError(
                        f"quotient element {fmt_term(nf, self.pres.gens)} lies "
                        f"outside degree {self.bound.degree}, coefficient "
                        f"{self.bound.coeff}: could not close within the bounds"
                    )
                if len(reps) == MAX_SIZE:
                    raise ResourceError(
                        f"more than {MAX_SIZE} representatives: over the table cap"
                    )
                i = index[nf] = len(reps)
                reps.append(nf)
            return i

        nv = self.pres.nvars
        zero, one = rep_of(ZERO), rep_of(one_term(nv))
        images = tuple(rep_of(var_term(nv, i)) for i in range(nv))
        k = 0
        while k < len(reps):  # reps grows while its pairs are classified
            # sums first: products raise the degree, so a normal form that
            # leaves the bounds comes after the elements sums reach
            for j in range(k + 1):
                add_t[k, j] = add_t[j, k] = rep_of(term_add(reps[k], reps[j]))
            for j in range(k + 1):
                mul_t[k, j] = mul_t[j, k] = rep_of(term_mul(reps[k], reps[j]))
            k += 1
        try:
            A = make_semiring(
                range(len(reps)),
                lambda a, b: add_t[a, b],
                lambda a, b: mul_t[a, b],
                zero,
                one,
                label="presented-quotient",
                names=[fmt_term(r, self.pres.gens) for r in reps],
                error=ResourceError,
            )
        except ResourceError as exc:
            raise ResourceError(f"closure table is no semiring ({exc}): could not close")
        if not is_model(A, images, self.pres):
            raise ResourceError("closure table breaks a relation: could not close")
        return A, images


def localized_images_equal(
    closure: _Closure, s: Term, t: Term, gen: str
) -> Tuple[bool, int]:
    """True and the smallest k <= 8 with a^k*s ~ a^k*t, for the
    generator a (fraction equality after inverting a), or False and -1
    when the closure proves every such pair distinct. Raises ResourceError
    when the closure cannot decide a pair before the first that is
    congruent."""
    pres = closure.pres
    if gen not in pres.gens:
        raise PreconditionError(f"unknown generator {gen!r}")
    a = var_term(pres.nvars, list(pres.gens).index(gen))
    ak = one_term(pres.nvars)
    for k in range(9):
        if closure.congruent(term_mul(ak, s), term_mul(ak, t)).is_yes:
            return True, k
        ak = term_mul(ak, a)
    return False, -1


def finite_quotient(
    pres: Presentation,
    degree: int = 4,
    coeff: int = 4,
) -> Tuple[FiniteSemiring, Callable[[Term], int]]:
    """The presented semiring as a finite table, built by closure from the
    generators (Froidure and Pin, 1997), with the class of every term.

    The relations are oriented from their larger side in a fixed
    well-founded order and completed by critical pairs, in the manner of
    Knuth-Bendix. The representatives start as the normal forms of 0, 1
    and the generators; the normal form of every sum and product of two
    representatives is found, and one not seen before becomes a new
    representative. Each reduction step replaces a multiple of one side
    of a relation by the same multiple of the other and lowers the order,
    so every term is congruent to a representative, and every table entry
    to the sum or product it stands for. The table must then pass a model
    check: the axiom check of `make_semiring`, and every relation with each
    generator sent to its representative. A model is generated by the
    generators, and in it the representatives are distinct, so it is the
    quotient, and a term's class is its value in it. No table that fails
    the check is returned.

    A presentation that `infinite_model` proves infinite raises
    PreconditionError before the closure starts. A closure that does not
    end in a checked table raises ResourceError: a normal form outside
    the bound, more than MAX_SIZE representatives, a failed model check,
    or the node budget spent. The bound confines both the rewriting and
    the representatives, and every rewrite examined counts against its
    node budget. It allows twice `degree`, and coefficients large enough
    for every sum and product of two terms of degree up to `degree` and
    coefficients up to `coeff`. A relation may reach past the bound: it
    then rewrites only where its result stays within. A (degree, coeff)
    region of more than 100,000 terms is refused up front. The bounds must
    hold 0 and 1: coeff >= 1 and degree >= 0."""
    if coeff < 1 or degree < 0:
        raise PreconditionError("presentation bounds need coeff >= 1 and degree >= 0")
    monos = math.comb(pres.nvars + degree, degree)  # monomials of degree <= degree
    # coeff + 1 >= 2 and 2^17 > 100,000: the power is taken only below that
    if monos > 16 or (coeff + 1) ** monos > 100000:
        raise ResourceError("enumeration bound too large")
    bound = Bound(degree=2 * degree, coeff=2 * coeff * coeff * monos)
    model = infinite_model(pres)
    if model is not None:
        raise PreconditionError(f"the quotient is infinite: {model} satisfy every relation")
    table, images = _Closure(pres, bound).table()
    return table, lambda t: evaluate(table, images, t)
