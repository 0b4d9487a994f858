"""Finite semiring tables, their JSON form, and homomorphisms.

Elements of a finite semiring are indices 0..size-1 into its operation
tables; subsets are int bitmasks. All enumeration orders are deterministic.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from . import _purecore as core
from .errors import FormatError, InternalCheckError, PreconditionError, ResourceError

MAX_SIZE = 64


# ---------------------------------------------------------------------------
# bitmask helpers


def bits(mask: int) -> Iterator[int]:
    while mask:
        b = mask & -mask
        yield b.bit_length() - 1
        mask ^= b


def mask_of(idxs: Iterable[int]) -> int:
    m = 0
    for i in idxs:
        m |= 1 << i
    return m


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def joins(
    gens: Iterable[int],
    join: Callable[[int, int], int],
    bottom: int,
    cap: Optional[int] = None,
    label: str = "",
) -> Set[int]:
    """Every join of a subset of gens (bottom for the empty one), in one
    pass over the generators.

    Relies on join(m, g) == m whenever g is a subset of m, which holds for
    set union and for sums of submodules, so a generator already below m is
    skipped. Raises ResourceError once more than cap sets are found."""
    out = {bottom}
    for g in gens:
        out |= {join(m, g) for m in out if g & ~m}
        if cap is not None and len(out) > cap:
            raise ResourceError(f"{label}: over the cap of {cap} lattice elements")
    return out


# ---------------------------------------------------------------------------
# finite semirings


@dataclass(frozen=True)
class FiniteSemiring:
    size: int
    zero: int
    one: int
    add: Tuple[Tuple[int, ...], ...]
    mul: Tuple[Tuple[int, ...], ...]
    label: str = ""
    names: Optional[Tuple[str, ...]] = None

    def power(self, a: int, k: int) -> int:
        r = self.one
        for _ in range(k):
            r = self.mul[r][a]
        return r

    def sum_of(self, xs: Iterable[int]) -> int:
        r = self.zero
        for x in xs:
            r = self.add[r][x]
        return r

    def prod_of(self, xs: Iterable[int]) -> int:
        r = self.one
        for x in xs:
            r = self.mul[r][x]
        return r

    def name_of(self, a: int) -> str:
        if self.names is not None:
            return self.names[a]
        return str(a)

    @property
    def elements(self) -> range:
        return range(self.size)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def __repr__(self) -> str:  # keep pytest output readable
        return f"FiniteSemiring({self.label or self.size})"


def powers(A: FiniteSemiring, a: int) -> List[int]:
    """1, a, a^2, ... up to the first repeat; a^k sits at position k."""
    out = [A.one]
    x = A.mul[A.one][a]
    while x not in out:
        out.append(x)
        x = A.mul[x][a]
    return out


def _index_tables(
    carrier: Sequence,
    plus: Callable,
    times: Callable,
    zero,
    one,
    label: str,
    names: Optional[Sequence[str]],
    error: type,
) -> FiniteSemiring:
    """Tables of plus and times on a finite carrier, elements numbered in
    carrier order; raises `error` naming any value outside the carrier."""
    idx = {v: i for i, v in enumerate(carrier)}
    if len(idx) != len(carrier):
        raise error(f"{label}: duplicate values")

    def index(v) -> int:
        i = idx.get(v)
        if i is None:
            raise error(f"{label}: value {v!r} is not in the carrier")
        return i

    return FiniteSemiring(
        size=len(carrier),
        zero=index(zero),
        one=index(one),
        add=tuple(tuple(index(plus(a, b)) for b in carrier) for a in carrier),
        mul=tuple(tuple(index(times(a, b)) for b in carrier) for a in carrier),
        label=label,
        names=tuple(names) if names is not None else None,
    )


def make_semiring(
    values: Sequence,
    plus: Callable,
    times: Callable,
    zero,
    one,
    label: str = "",
    names: Optional[Sequence[str]] = None,
) -> FiniteSemiring:
    """Tabulate a semiring from concrete values and binary operations.

    No axiom scan; at most MAX_SIZE values."""
    if len(values) > MAX_SIZE:
        raise PreconditionError(f"{label}: size {len(values)} exceeds cap {MAX_SIZE}")
    return _index_tables(values, plus, times, zero, one, label, names, FormatError)


def tabulate(
    carrier: Sequence,
    plus: Callable,
    times: Callable,
    zero,
    one,
    label: str = "",
    names: Optional[Sequence[str]] = None,
) -> FiniteSemiring:
    """Table of a derived semiring (a quotient, localization, section or
    module semiring) on a finite carrier, checked against every axiom.

    A result outside the carrier is a broken construction and raises
    InternalCheckError; there is no size cap."""
    return assert_valid(
        _index_tables(carrier, plus, times, zero, one, label, names, InternalCheckError)
    )


@dataclass(frozen=True)
class AxiomViolation:
    code: str
    witness: Tuple[int, ...]

    def describe(self, A: FiniteSemiring) -> str:
        w = ",".join(A.name_of(i) for i in self.witness)
        return f"{self.code}[{w}]"


def verify_axioms(A: FiniteSemiring) -> List[AxiomViolation]:
    """Exhaustive check of the commutative-semiring laws; empty if valid."""
    raw = core.verify_axioms_scan(A.size, A.add, A.mul, A.zero, A.one)
    return [AxiomViolation(code, tuple(w)) for code, w in raw]


def assert_valid(A: FiniteSemiring) -> FiniteSemiring:
    bad = verify_axioms(A)
    if bad:
        raise FormatError(
            f"{A.label or 'semiring'}: axiom violations: "
            + "; ".join(v.describe(A) for v in bad)
        )
    return A


def is_idempotent(A: FiniteSemiring) -> bool:
    """1+1=1; equivalent to a+a=a for all a, and the equivalence is asserted."""
    flag = A.add[A.one][A.one] == A.one
    allflag = all(A.add[a][a] == a for a in A.elements)
    if flag != allflag:
        raise InternalCheckError(f"{A.label}: 1+1=1 disagrees with a+a=a")
    return flag


def leq(A: FiniteSemiring, a: int, b: int) -> bool:
    """a <= b iff a+b=b. Only meaningful on idempotent semirings."""
    if not is_idempotent(A):
        raise PreconditionError(f"{A.label}: order requires an idempotent semiring")
    return A.add[a][b] == b


def units(A: FiniteSemiring) -> int:
    return core.units_mask(A.size, A.mul, A.one)


# ---------------------------------------------------------------------------
# JSON interchange

_SCHEMA_KEYS = {"size", "zero", "one", "add", "mul", "label"}


def _is_list(x, n: int) -> bool:
    return isinstance(x, (list, tuple)) and len(x) == n


def semiring_from_dict(d: Dict) -> FiniteSemiring:
    missing = _SCHEMA_KEYS - set(d)
    if missing:
        raise FormatError(f"semiring JSON missing keys: {sorted(missing)}")
    n = d["size"]
    if not isinstance(n, int) or n < 1:
        raise FormatError("size must be a positive integer")
    if n > MAX_SIZE:
        raise PreconditionError(f"size {n} exceeds cap {MAX_SIZE}")
    for key in ("add", "mul"):
        t = d[key]
        if not _is_list(t, n) or not all(_is_list(row, n) for row in t):
            raise FormatError(f"{key} table must be {n}x{n}")
        for row in t:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < n:
                    raise FormatError(f"{key} entry {v!r} out of range")
    for key in ("zero", "one"):
        v = d[key]
        if not isinstance(v, int) or not 0 <= v < n:
            raise FormatError(f"{key} out of range")
    names = d.get("names")
    if names is not None:
        if not _is_list(names, n) or not all(isinstance(x, (str, int)) for x in names):
            raise FormatError("names must be a list of strings, one per element")
        names = tuple(str(x) for x in names)
        if len(set(names)) != n:
            raise FormatError("names must be distinct")
    A = FiniteSemiring(
        size=n,
        zero=d["zero"],
        one=d["one"],
        add=tuple(tuple(row) for row in d["add"]),
        mul=tuple(tuple(row) for row in d["mul"]),
        label=str(d["label"]),
        names=names,
    )
    return assert_valid(A)


def semiring_to_dict(A: FiniteSemiring) -> Dict:
    d: Dict = {
        "size": A.size,
        "zero": A.zero,
        "one": A.one,
        "add": [list(r) for r in A.add],
        "mul": [list(r) for r in A.mul],
        "label": A.label,
    }
    if A.names is not None:
        d["names"] = list(A.names)
    return d


def read_json_object(path: str) -> Dict:
    """The JSON object in the file at path; FormatError when the file cannot
    be read, is not JSON or holds something other than an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(d, dict):
        raise FormatError(f"{path}: top level must be an object")
    return d


def load_semiring(path: str) -> FiniteSemiring:
    return semiring_from_dict(read_json_object(path))


# ---------------------------------------------------------------------------
# homomorphisms


@dataclass(frozen=True)
class Homomorphism:
    dom: FiniteSemiring
    cod: FiniteSemiring
    images: Tuple[int, ...]

    def __call__(self, a: int) -> int:
        return self.images[a]

    def violation(self) -> Optional[str]:
        A, B, f = self.dom, self.cod, self.images
        if f[A.zero] != B.zero:
            return "zero"
        if f[A.one] != B.one:
            return "one"
        for a in A.elements:
            for b in A.elements:
                if f[A.add[a][b]] != B.add[f[a]][f[b]]:
                    return f"add@({a},{b})"
                if f[A.mul[a][b]] != B.mul[f[a]][f[b]]:
                    return f"mul@({a},{b})"
        return None

    def kernel_mask(self) -> int:
        """Preimage of zero; always a subtractive ideal of the domain."""
        return mask_of(a for a in self.dom.elements if self.images[a] == self.cod.zero)

    def is_bijective(self) -> bool:
        return self.dom.size == self.cod.size and len(set(self.images)) == self.dom.size

    def compose(self, inner: "Homomorphism") -> "Homomorphism":
        if inner.cod is not self.dom and inner.cod != self.dom:
            raise PreconditionError("composition mismatch")
        return Homomorphism(
            inner.dom, self.cod, tuple(self.images[x] for x in inner.images)
        )


def generating_sequence(A: FiniteSemiring) -> List[int]:
    """Greedy generating sequence: smallest element outside the closure so far."""
    closed = core.subsemiring_closure_mask(
        A.size, A.add, A.mul, (1 << A.zero) | (1 << A.one)
    )
    gens: List[int] = []
    full = A.full_mask
    while closed != full:
        g = next(i for i in A.elements if not (closed >> i) & 1)
        gens.append(g)
        closed = core.subsemiring_closure_mask(A.size, A.add, A.mul, closed | (1 << g))
    return gens


def _extend_partial(
    A: FiniteSemiring, B: FiniteSemiring, val: List[int], fresh: List[int]
) -> Optional[List[int]]:
    """Close a partial map under both operations; None on conflict.

    Returns the trail of newly assigned domain elements for backtracking.
    """
    trail: List[int] = []
    queue = list(fresh)
    while queue:
        x = queue.pop()
        vx = val[x]
        for y in A.elements:
            vy = val[y]
            if vy < 0:
                continue
            for t, w in (
                (A.add[x][y], B.add[vx][vy]),
                (A.mul[x][y], B.mul[vx][vy]),
            ):
                vt = val[t]
                if vt < 0:
                    val[t] = w
                    trail.append(t)
                    queue.append(t)
                elif vt != w:
                    for u in trail:
                        val[u] = -1
                    return None
    return trail


def enumerate_homs(
    A: FiniteSemiring,
    B: FiniteSemiring,
    injective: bool = False,
    limit: Optional[int] = None,
) -> List[Homomorphism]:
    """All homomorphisms A -> B, lexicographically ordered by image tuple.

    DFS over a generating sequence with closure propagation; every hom
    found is re-checked pointwise before it is returned. With
    injective=True only injective homs are returned (pruned during search).
    """
    gens = generating_sequence(A)
    val = [-1] * A.size
    val[A.zero] = B.zero
    if val[A.one] >= 0 and val[A.one] != B.one:
        return []  # collapsed domain cannot reach a nontrivial codomain
    val[A.one] = B.one
    seed = _extend_partial(A, B, val, [A.zero, A.one])
    out: List[Homomorphism] = []
    if seed is None:
        return out

    def injective_ok() -> bool:
        assigned = [v for v in val if v >= 0]
        return len(assigned) == len(set(assigned))

    def dfs(i: int) -> bool:
        if limit is not None and len(out) >= limit:
            return True
        if i == len(gens):
            h = Homomorphism(A, B, tuple(val))
            if h.violation() is not None:
                raise InternalCheckError("hom DFS closure produced a non-hom")
            out.append(h)
            return limit is not None and len(out) >= limit
        g = gens[i]
        if val[g] >= 0:
            return dfs(i + 1)
        for w in B.elements:
            val[g] = w
            trail = _extend_partial(A, B, val, [g])
            if trail is not None:
                if (not injective or injective_ok()) and dfs(i + 1):
                    for t in trail:
                        val[t] = -1
                    val[g] = -1
                    return True
                for t in trail:
                    val[t] = -1
            val[g] = -1
        return False

    dfs(0)
    out.sort(key=lambda h: h.images)
    return out


def find_iso(A: FiniteSemiring, B: FiniteSemiring) -> Optional[Homomorphism]:
    """A semiring isomorphism A -> B, or None."""
    if A.size != B.size:
        return None
    homs = enumerate_homs(A, B, injective=True, limit=1)
    for h in homs:
        if h.is_bijective():
            inv = [0] * B.size
            for a in A.elements:
                inv[h(a)] = a
            back = Homomorphism(B, A, tuple(inv))
            if back.violation() is not None:
                raise InternalCheckError("inverse of a bijective hom is not a hom")
            return h
    return None
