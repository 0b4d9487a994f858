"""Ideals of finite semirings and of N: closure under sums, the lattice
of sums of principal sets (ideals, submodules), primality, subtractivity,
radicals, and checks of the classification of the ideals of N.

Finite-semiring ideals are bitmasks over element indices. The principal
ideal aA is the product row of a, so an ideal is a sum closure of product
rows; the ideals of a table that splits (`kernel.split`) come from its
factors. N-ideals are membership predicates and generator pairs: the tail
of <p, q> is certified by the closed form for two coprime generators and
re-checked by a sieve.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import or_
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set

from .errors import InternalCheckError, ResourceError
from .kernel import (
    FiniteSemiring,
    bits,
    joins,
    mask_of,
    mul_rows,
    powers,
    row_picker,
    split,
)


def sum_closure(A: FiniteSemiring, seed: int) -> int:
    """Smallest superset of seed closed under +. It adds no 0: a submodule
    over N is the sum closure of a seed holding 0, and an ideal that
    of 0 and the principal ideals of its generators (`ideal_closure`).

    A worklist, evaluated semi-naively: a member taken from the list is
    summed once with itself and with each member taken before it, so every
    pair of members is added once; what is new goes on the list."""
    add = A.add
    cur = seed
    done: List[int] = []
    todo = list(bits(seed))
    while todo:
        x = todo.pop()
        done.append(x)
        ax = add[x]
        new = 0
        for y in done:
            new |= 1 << ax[y]
        new &= ~cur
        if new:
            cur |= new
            todo.extend(bits(new))
    return cur


def ideal_closure(A: FiniteSemiring, gens: Iterable[int]) -> int:
    """Smallest ideal containing gens: the sums of multiples of gens. The
    multiples of g are the principal ideal gA, row g of `kernel.mul_rows`
    (A is commutative with 1), and the sums are closed under scaling, as
    c(a1 g1 + a2 g2) = (c a1) g1 + (c a2) g2."""
    rows = mul_rows(A)
    return sum_closure(A, reduce(or_, (rows[g] for g in gens), 1 << A.zero))


def is_ideal(A: FiniteSemiring, mask: int) -> bool:
    return ideal_closure(A, bits(mask)) == mask


_IDEAL_CAP = 200000


def _module_sum(A: FiniteSemiring, m1: int, m2: int) -> int:
    """{a + b : a in m1, b in m2}: the join of two submodules (or ideals)."""
    out = 0
    seconds = list(bits(m2))
    for a in bits(m1):
        ra = A.add[a]
        for b in seconds:
            out |= 1 << ra[b]
    return out


def closed_sets(
    A: FiniteSemiring, principal: Sequence[int], cap: Optional[int] = None
) -> Set[int]:
    """Every sum of principal sets, found by `kernel.joins` from {0}: the
    ideals when principal[a] is the product row aA, the submodules over
    N when it is the sum closure N*a of {0, a}. Each principal set holds
    0 and a and is closed under +.

    The join with a generator g reads the rows {a + b : b in g}, built by
    `_module_sum` once per generator. Each found set m is re-checked from
    the tables: it holds the principal set of each member, and m + m lies
    in m (row a of add at the members, for each member a: one
    `row_picker` over m)."""
    rows: Dict[int, List[int]] = {}

    def join(m: int, g: int) -> int:
        row = rows.get(g)
        if row is None:
            row = rows[g] = [_module_sum(A, 1 << a, g) for a in A.elements]
        out = 0
        while m:
            low = m & -m
            out |= row[low.bit_length() - 1]
            m ^= low
        return out

    found = joins(sorted(set(principal)), join, 1 << A.zero, cap, A.label)
    for m in found:
        members = list(bits(m))
        pick = row_picker(members)
        inside = set(members).issuperset
        if reduce(or_, pick(principal)) & ~m or not all(map(inside, map(pick, pick(A.add)))):
            raise InternalCheckError(f"{A.label}: a join {m:b} is not closed")
    return found


def all_ideals(A: FiniteSemiring) -> List[int]:
    """Every ideal, ordered by size then mask: each is a sum of principal
    ideals, the product rows (`kernel.mul_rows`). On a table that splits
    as eA x fA (`kernel.split`) they are {a : ea in I and fa in J} for the
    ideals I of eA and J of fA, as an ideal holds a = ea + fa exactly when
    it holds ea and fa; the factors split in turn, and the cap is charged
    with the count first."""
    s = split(A)
    if s is None:
        found = closed_sets(A, mul_rows(A), _IDEAL_CAP)
    else:
        left, right = (all_ideals(B) for B in s.factors)
        if len(left) * len(right) > _IDEAL_CAP:
            raise ResourceError(f"{A.label}: over the cap of {_IDEAL_CAP} lattice elements")
        right = [s.preimage(1, m) for m in right]
        found = [x & y for x in (s.preimage(0, m) for m in left) for y in right]
    return sorted(found, key=lambda m: (m.bit_count(), m))


def is_prime(A: FiniteSemiring, mask: int) -> bool:
    """The ideal mask is proper, and ab in it implies a or b in it: the
    complement is closed under multiplication."""
    if mask == A.full_mask:
        return False
    mul = A.mul
    outside = [a for a in A.elements if not (mask >> a) & 1]
    for a in outside:
        ma = mul[a]
        for b in outside:
            if (mask >> ma[b]) & 1:
                return False
    return True


def is_subtractive(A: FiniteSemiring, mask: int) -> bool:
    """a+b=c with b,c in mask forces a in mask. On idempotent ambients this
    is down-closedness in the natural order, so that test would only repeat
    this one: a <= a + b, and a <= b means a + b = b."""
    add = A.add
    inside = list(bits(mask))
    for a in A.elements:
        if not (mask >> a) & 1 and any((mask >> add[a][b]) & 1 for b in inside):
            return False
    return True


def _subtractive_pass(A: FiniteSemiring, mask: int) -> int:
    """mask with every a such that a + b is in mask for some b in mask."""
    add = A.add
    out = mask
    inside = list(bits(mask))
    for a in A.elements:
        if (out >> a) & 1:
            continue
        ra = add[a]
        for b in inside:
            if (mask >> ra[b]) & 1:
                out |= 1 << a
                break
    return out


def subtractive_closure(A: FiniteSemiring, mask: int) -> int:
    """Smallest subtractive ideal containing the ideal mask:
    {a : a+b=c for some b,c in mask}.

    One pass suffices by theory, and the result must be a subtractive
    ideal; a second pass would add exactly the violations that
    `is_subtractive` scans for.
    """
    out = _subtractive_pass(A, mask)
    if not is_ideal(A, out) or not is_subtractive(A, out):
        raise InternalCheckError(f"{A.label}: subtractive closure is not a kernel")
    return out


def radical_member(A: FiniteSemiring, mask: int, a: int) -> bool:
    """Some power a^n (n>=0) lies in mask; the power sequence is cycle-finite."""
    return any((mask >> x) & 1 for x in powers(A, a))


def radical_mask(A: FiniteSemiring, mask: int) -> int:
    return mask_of(a for a in A.elements if radical_member(A, mask, a))


def primes_containing(mask: int, primes: Sequence[int]) -> List[int]:
    return [p for p in primes if p & mask == mask]


def radical_equals_prime_intersection(A: FiniteSemiring, mask: int, primes: Sequence[int]) -> bool:
    """rad(mask) == intersection of primes containing it (empty intersection = A)."""
    inter = A.full_mask
    for p in primes_containing(mask, primes):
        inter &= p
    return radical_mask(A, mask) == inter


# ---------------------------------------------------------------------------
# ideals of N: the tail of a two-generator ideal


def nat_pair_tail_start(p: int, q: int) -> int:
    """The classification tail threshold for the ideal <p, q>."""
    return (p - 1) * q


def _window_by_inverse(p: int, q: int, start: int) -> int:
    """Bit i set when start + i = a*p + b*q with a >= 0, b < p: b is
    n*q^-1 mod p (the only candidate below p), and each certificate is
    replayed. p and q are coprime. From n to n + 1, b steps by q^-1 (less
    p past p) and a by (1 - q*q^-1)/p (plus q when b wraps)."""
    inv = pow(q, -1, p)
    b = start * inv % p
    a = (start - b * q) // p
    step = (1 - q * inv) // p
    out = 0
    for i in range(p):
        if a >= 0 and a * p + b * q == start + i:
            out |= 1 << i
        b += inv
        a += step
        if b >= p:
            b -= p
            a += q
    return out


def _window_by_sieve(p: int, q: int, start: int) -> int:
    """Bit i set when start + i = a*p + b*q with a >= 0, b < p, by ORing the
    multiples of p shifted by b*q, read from start: no inverse of q, so the
    route stays independent of the certificates. Needs start >= (p - 1) * q,
    so that every a is non-negative.

    The window of p bits that the multiples of p show from a shift s
    depends only on s mod p, so it is read from the 2p-bit row of 0 and p;
    the shift start - b*q mod p falls by q mod p with each b."""
    row = 1 | 1 << p  # the multiples of p below 2p
    step = q % p
    shift = start % p
    out = 0
    for _ in range(p):
        out |= row >> shift
        shift -= step
        if shift < 0:
            shift += p
    return out & ((1 << p) - 1)


def nat_pair_tail_check(p: int, q: int) -> bool:
    """<p,q> contains every n >= (p-1)q; False when p and q share a factor.

    Checking a full window of p consecutive integers suffices: membership is
    stable under adding p, so the window propagates to the whole tail. Each
    window member is decided by two routes, a certificate from the inverse
    of q mod p and an additive sieve, and the routes must agree.
    """
    if math.gcd(p, q) != 1:
        return False
    start = nat_pair_tail_start(p, q)
    window = _window_by_inverse(p, q, start)
    if window != _window_by_sieve(p, q, start):
        raise InternalCheckError(f"<{p},{q}>: tail window routes disagree")
    return window == (1 << p) - 1


def nat_prime_residue_check(p: int, bound: int) -> bool:
    """pN is prime on [0,bound]^2: p | ab implies p | a or p | b, for any
    p >= 1, decided in one pass over a.

    If p divides ab but neither a nor b, then g = gcd(a, p) > 1 (else p
    would divide b), and p/g divides b, so p/g <= b <= bound. Conversely,
    for a in the window with p not dividing a and g = gcd(a, p) > 1,
    b = p/g lies in the window, is not a multiple of p (0 < b < p), and
    p divides ab. So the check fails exactly at such an a with p/g <= bound."""
    for a in range(1, bound + 1):
        if a % p:
            g = math.gcd(a, p)
            if g > 1 and p // g <= bound:
                return False
    return True


def nat_point_prime_check(point: Callable[[int], bool], bound: int) -> bool:
    """The point P (a membership predicate on N) is a prime ideal on
    [0,bound]^2: 1 is not in P, a+b and n*a are in P for all a, b in P,
    and ab in P forces a or b in P. Membership of 0..2*bound, which holds
    every a, b and a+b, is read once; ab is asked of the predicate once
    per pair."""
    if point(1):
        return False
    inside = [point(n) for n in range(2 * bound + 1)]
    window = range(bound + 1)
    for a in window:
        a_in = inside[a]
        for b in window:
            b_in = inside[b]
            ab_in = point(a * b)
            if a_in and not ab_in:
                return False
            if ab_in and not (a_in or b_in):
                return False
            if a_in and b_in and not inside[a + b]:
                return False
    return True


def nat_point_not_subtractive(point: Callable[[int], bool], bound: int) -> bool:
    """Some a outside P and b, c = a+b in P, all in [0,bound]."""
    return any(
        not point(a) and point(b) and point(a + b)
        for a in range(bound + 1)
        for b in range(bound + 1 - a)
    )
