"""Table kernels: the hot loops over operation tables.

Tables are sequences of sequences of element indices, subsets are int
bitmasks over the elements.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

Table = Sequence[Sequence[int]]

AXIOM_CODES = (
    "add-assoc",
    "add-comm",
    "add-zero",
    "mul-assoc",
    "mul-comm",
    "mul-one",
    "distrib",
    "zero-absorbs",
)


def verify_axioms_scan(
    n: int, add: Table, mul: Table, zero: int, one: int
) -> List[Tuple[str, Tuple[int, ...]]]:
    """Full axiom scan; one witness per violated law."""
    out: List[Tuple[str, Tuple[int, ...]]] = []

    def first_assoc(t: Table) -> Optional[Tuple[int, int, int]]:
        for a in range(n):
            ta = t[a]
            for b in range(n):
                tab = ta[b]
                tb = t[b]
                for c in range(n):
                    if t[tab][c] != ta[tb[c]]:
                        return (a, b, c)
        return None

    def first_comm(t: Table) -> Optional[Tuple[int, int]]:
        for a in range(n):
            for b in range(a + 1, n):
                if t[a][b] != t[b][a]:
                    return (a, b)
        return None

    w = first_assoc(add)
    if w is not None:
        out.append(("add-assoc", w))
    w = first_comm(add)
    if w is not None:
        out.append(("add-comm", w))
    for a in range(n):
        if add[a][zero] != a:
            out.append(("add-zero", (a,)))
            break
    w = first_assoc(mul)
    if w is not None:
        out.append(("mul-assoc", w))
    w = first_comm(mul)
    if w is not None:
        out.append(("mul-comm", w))
    for a in range(n):
        if mul[a][one] != a:
            out.append(("mul-one", (a,)))
            break
    dist = None
    for a in range(n):
        ma = mul[a]
        for b in range(n):
            for c in range(n):
                if ma[add[b][c]] != add[ma[b]][ma[c]]:
                    dist = (a, b, c)
                    break
            if dist:
                break
        if dist:
            break
    if dist is not None:
        out.append(("distrib", dist))
    for a in range(n):
        if mul[a][zero] != zero:
            out.append(("zero-absorbs", (a,)))
            break
    return out


def closure_mask(n: int, add: Table, mul: Table, seed: int, scalars: int) -> int:
    """Smallest subset containing seed, closed under + and scaling by scalars."""
    cur = seed
    while True:
        nxt = cur
        elems = [i for i in range(n) if (cur >> i) & 1]
        for a in elems:
            ra = add[a]
            for b in elems:
                nxt |= 1 << ra[b]
        s = scalars
        while s:
            bit = s & -s
            r = bit.bit_length() - 1
            s ^= bit
            mr = mul[r]
            for a in elems:
                nxt |= 1 << mr[a]
        if nxt == cur:
            return cur
        cur = nxt


def ideal_closure_mask(n: int, add: Table, mul: Table, seed: int, zero: int) -> int:
    return closure_mask(n, add, mul, seed | (1 << zero), (1 << n) - 1)


def prime_violation(n: int, mul: Table, mask: int) -> Optional[Tuple[int, int]]:
    """A pair a,b outside I with ab inside, or None."""
    outside = [a for a in range(n) if not (mask >> a) & 1]
    for a in outside:
        ma = mul[a]
        for b in outside:
            if (mask >> ma[b]) & 1:
                return (a, b)
    return None


def subtractive_violation(
    n: int, add: Table, mask: int
) -> Optional[Tuple[int, int, int]]:
    """a+b=c with b,c in I but a outside, or None."""
    inside = [b for b in range(n) if (mask >> b) & 1]
    for a in range(n):
        if (mask >> a) & 1:
            continue
        ra = add[a]
        for b in inside:
            if (mask >> ra[b]) & 1:
                return (a, b, ra[b])
    return None


def subtractive_close_mask(n: int, add: Table, mask: int) -> int:
    """{a : exists b,c in I with a+b=c}, iterated to a fixed point."""
    cur = mask
    while True:
        nxt = cur
        inside = [b for b in range(n) if (cur >> b) & 1]
        for a in range(n):
            if (nxt >> a) & 1:
                continue
            ra = add[a]
            for b in inside:
                if (cur >> ra[b]) & 1:
                    nxt |= 1 << a
                    break
        if nxt == cur:
            return cur
        cur = nxt


def semi_invertible_witness(
    n: int, add: Table, mul: Table, one: int, a: int
) -> Optional[Tuple[int, int]]:
    """(b,c) with 1 + a*b = a*c, or None."""
    ma = mul[a]
    for b in range(n):
        lhs = add[one][ma[b]]
        for c in range(n):
            if lhs == ma[c]:
                return (b, c)
    return None


def units_mask(n: int, mul: Table, one: int) -> int:
    out = 0
    for a in range(n):
        ma = mul[a]
        for b in range(n):
            if ma[b] == one:
                out |= 1 << a
                break
    return out


def equalizer_scan(
    sizes: Sequence[int],
    compat: Dict[Tuple[int, int], Sequence[int]],
) -> List[Tuple[int, ...]]:
    """All tuples (t_0..t_{k-1}), t_i < sizes[i], with t_j's bit set in
    compat[(i,j)][t_i] for every constrained pair i<j. Ascending order."""
    k = len(sizes)
    full = [(1 << s) - 1 for s in sizes]
    out: List[Tuple[int, ...]] = []
    tup: List[int] = []

    def dfs(depth: int, masks: List[int]) -> None:
        if depth == k:
            out.append(tuple(tup))
            return
        m = masks[depth]
        while m:
            bit = m & -m
            v = bit.bit_length() - 1
            m ^= bit
            nm = masks[:]
            ok = True
            for j in range(depth + 1, k):
                c = compat.get((depth, j))
                if c is not None:
                    nm[j] &= c[v]
                    if nm[j] == 0:
                        ok = False
                        break
            if ok:
                tup.append(v)
                dfs(depth + 1, nm)
                tup.pop()

    dfs(0, full)
    return out


def bx_mul(a: int, b: int) -> int:
    """Product of boolean polynomials in one variable (OR-convolution)."""
    if a == 0 or b == 0:
        return 0
    out = 0
    x = a
    while x:
        bit = x & -x
        out |= b << (bit.bit_length() - 1)
        x ^= bit
    return out


@lru_cache(maxsize=None)
def _bx_slices(kmax: int) -> Tuple[int, ...]:
    """Slice k <= kmax has bit t < 2^kmax set exactly when the odd witness
    u = 2t+1 has x^k: every bit for k = 0, else period 2^k, 2^(k-1) clear
    bits then 2^(k-1) set."""
    ones = (1 << (1 << kmax)) - 1
    return (ones,) + tuple(
        ones // ((1 << (1 << k)) - 1) * ((1 << (1 << (k - 1))) - 1 << (1 << (k - 1)))
        for k in range(1, kmax + 1)
    )


def bx_witness_exhaustive(a: int, b: int, kmax: int) -> int:
    """Smallest witness u (encoded as a mask, constant bit set, deg<=kmax)
    with a*u == b*u, or -1. Fully exhaustive scan.

    Every u is evaluated at once, bit-sliced: bit t of the integer at
    position j of pa is bit j of a*u for u = 2t+1. Where a has x^i, the
    slices of x^0..x^kmax are ORed in at positions i..i+kmax, so position
    i is complete once row i is in; likewise pb for b.
    """
    if a == b:
        return 1
    slices = _bx_slices(kmax)
    top = max(a, b).bit_length() + kmax
    pa, pb = [0] * top, [0] * top
    diff = 0  # bit t set once a*u and b*u differ
    for i in range(top):
        for p, x in ((pa, a), (pb, b)):
            if x >> i & 1:
                for k, s in enumerate(slices):
                    p[i + k] |= s
        diff |= pa[i] ^ pb[i]
        if diff == slices[0]:
            return -1
    free = slices[0] & ~diff
    return 2 * (free & -free).bit_length() - 1
