"""Finite semiring tables, their JSON form, and homomorphisms.

Elements of a finite semiring are indices 0..size-1 into its operation
tables; subsets are int bitmasks. All enumeration orders are deterministic.
"""

from __future__ import annotations

import json
from operator import itemgetter
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Set, Tuple

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


def row_picker(idx: Sequence[int]) -> Callable[[Sequence], Tuple]:
    """row -> (row[i] for i in idx) as a tuple, by `operator.itemgetter`.
    An itemgetter of one index returns the entry itself, not a 1-tuple, so
    that case is wrapped; idx must not be empty."""
    if len(idx) == 1:
        i = idx[0]
        return lambda row: (row[i],)
    return itemgetter(*idx)


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


class Record:
    """A value record in slots, for what a NamedTuple cannot hold: a memo,
    checks at construction, a field named with an underscore. Equality,
    hashing and repr read the fields named in `_fields`; `replace` copies
    through `__init__`, so its checks run again and a memo starts empty."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def replace(self, **changes):
        return type(self)(**dict(zip(self._fields, self._values()), **changes))


class FiniteSemiring(Record):
    __slots__ = ("size", "zero", "one", "add", "mul", "label", "names", "_memo")
    _fields = __slots__[:-1]

    def __init__(
        self,
        size: int,
        zero: int,
        one: int,
        add: Tuple[Tuple[int, ...], ...],
        mul: Tuple[Tuple[int, ...], ...],
        label: str = "",
        names: Optional[Tuple[str, ...]] = None,
    ):
        self.size, self.zero, self.one, self.add, self.mul = size, zero, one, add, mul
        self.label, self.names = label, names
        # Facts derived from the tables once and read by later calls: the
        # axiom verdict (`assert_valid`), the prime ideals
        # (`spectra._prime_masks`), the two spectra (`spectra.spec_enumerate`,
        # `sp_enumerate`), the product rows as masks (`mul_rows`) and the
        # split (`split`). The tables are immutable tuples, so no entry goes
        # stale. The memo is no field: it takes no part in eq, hash or repr,
        # and a copy made by `replace` starts with an empty one.
        self._memo: Dict[str, object] = {}

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


def mul_rows(A: FiniteSemiring) -> Tuple[int, ...]:
    """The mask of each product row {ab : b}, kept in A's memo: the
    multiples of a, read by ideal closure and saturation."""
    rows = A._memo.get("mul_rows")
    if rows is None:
        rows = A._memo["mul_rows"] = tuple(mask_of(row) for row in A.mul)
    return rows


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
    error: type = FormatError,
) -> FiniteSemiring:
    """Tabulate a semiring from at most MAX_SIZE values and binary
    operations, checked against every axiom by `assert_valid`.

    The caller names the error class raised for a value outside the
    carrier and for a broken axiom: FormatError (the default) for
    operations given from outside, InternalCheckError for a derived table
    that its construction must keep a semiring (a module semiring), and
    ResourceError where a bound may leave it unfinished (a presented
    quotient). Localizations and section tables are built without this
    function and without a scan: their construction decides the axioms
    (see `localize.localize` and `sheaf._section_table`)."""
    if len(values) > MAX_SIZE:
        raise PreconditionError(f"{label}: size {len(values)} exceeds cap {MAX_SIZE}")
    return assert_valid(_index_tables(values, plus, times, zero, one, label, names, error), error)


class AxiomViolation(NamedTuple):
    code: str
    witness: Tuple[int, ...]

    def describe(self, A: FiniteSemiring) -> str:
        w = ",".join(A.name_of(i) for i in self.witness)
        return f"{self.code}[{w}]"


def _first_difference(x: Sequence, y: Sequence) -> int:
    return next(i for i, (u, v) in enumerate(zip(x, y)) if u != v)


def verify_axioms(A: FiniteSemiring) -> List[AxiomViolation]:
    """Exhaustive check of the commutative-semiring laws; empty if valid.
    One violation per broken law, with the first witness in lexicographic
    order of the law's variables.

    The laws in three variables are compared a row at a time. For fixed a
    and b, the row over c of (ab)c is row ab of the table, and that of
    a(bc) is row a read at the entries of row b, one `row_picker`
    composition; a(b + c) is row a of mul read at row b of add, and
    ab + ac is row ab of add read at row a of mul. All b are compared at
    once, and only at the first row that differs is the first c sought,
    so the witness is the one the triple loop would meet first."""
    n, zero, one = A.size, A.zero, A.one
    # rows as tuples, so that a table row and a picked row compare equal
    add, mul = tuple(map(tuple, A.add)), tuple(map(tuple, A.mul))
    add_at = [row_picker(row) for row in add]
    mul_at = [row_picker(row) for row in mul]

    def first_row(lhs: List[Tuple[int, ...]], rhs: List[Tuple[int, ...]], a: int):
        b = _first_difference(lhs, rhs)
        return (a, b, _first_difference(lhs[b], rhs[b]))

    def first_assoc(
        t: Sequence[Sequence[int]], at: List[Callable]
    ) -> Optional[Tuple[int, int, int]]:
        for a in range(n):
            ta = t[a]
            lhs = list(at[a](t))  # row ab over c, for every b
            rhs = [g(ta) for g in at]  # a(bc) over c, for every b
            if lhs != rhs:
                return first_row(lhs, rhs, a)
        return None

    def first_comm(t: Sequence[Sequence[int]]) -> Optional[Tuple[int, int]]:
        # a difference from column a before a would have shown in an
        # earlier row, so the first difference of row a lies after a
        for a, (row, col) in enumerate(zip(t, zip(*t))):
            if row != col:
                return (a, _first_difference(row, col))
        return None

    def first_unit(t: Sequence[Sequence[int]], e: int) -> Optional[Tuple[int]]:
        for a in range(n):
            if t[a][e] != a:
                return (a,)
        return None

    def first_distrib() -> Optional[Tuple[int, int, int]]:
        for a in range(n):
            ma, ga = mul[a], mul_at[a]
            lhs = [g(ma) for g in add_at]  # a(b + c) over c, for every b
            rhs = list(map(ga, ga(add)))  # ab + ac over c, for every b
            if lhs != rhs:
                return first_row(lhs, rhs, a)
        return None

    def first_not_absorbed() -> Optional[Tuple[int]]:
        for a in range(n):
            if mul[a][zero] != zero:
                return (a,)
        return None

    laws = (
        ("add-assoc", first_assoc(add, add_at)),
        ("add-comm", first_comm(add)),
        ("add-zero", first_unit(add, zero)),
        ("mul-assoc", first_assoc(mul, mul_at)),
        ("mul-comm", first_comm(mul)),
        ("mul-one", first_unit(mul, one)),
        ("distrib", first_distrib()),
        ("zero-absorbs", first_not_absorbed()),
    )
    return [AxiomViolation(code, w) for code, w in laws if w is not None]


def assert_valid(A: FiniteSemiring, error: type = FormatError) -> FiniteSemiring:
    """A itself, once `verify_axioms` finds no violation; `error` otherwise
    (FormatError by default). A given object is checked at most once: a
    pass is kept in its memo.

    A table that splits (`split`) is checked by its factors eA and fA,
    recursively: a |-> (ea, fa) is certified injective and to keep 0, 1, +
    and x, so A is a copy of a subsemiring of eA x fA, and a law that holds
    in both factors holds in their product and in each of its subsemirings.
    When a factor fails, or the split of an unchecked table cannot be
    built or certified, A itself is scanned and its violations named."""
    if "valid" not in A._memo:
        try:
            s = split(A)
            if s is not None:
                for B in s.factors:
                    assert_valid(B)
        except (FormatError, InternalCheckError):
            s = None
        bad = verify_axioms(A) if s is None else []
        if bad:
            raise error(
                f"{A.label or 'semiring'}: axiom violations: "
                + "; ".join(v.describe(A) for v in bad)
            )
        A._memo["valid"] = True
    return A


def is_idempotent(A: FiniteSemiring) -> bool:
    """1+1=1. On a table that satisfies the axioms this is a+a=a for all
    a, since a + a = a(1 + 1) by distributivity and the unit law.
    `make_semiring` and `semiring_from_dict` check the axioms of every
    table they build, and `localize` those of its base. A
    localization is the image of its checked base under a hom that
    `localize` checks, and a section table is closed inside a product of
    localizations, so both inherit them."""
    return A.add[A.one][A.one] == A.one


def leq(A: FiniteSemiring, a: int, b: int) -> bool:
    """a <= b iff a+b=b. Only meaningful on idempotent semirings."""
    if not is_idempotent(A):
        raise PreconditionError(f"{A.label}: order requires an idempotent semiring")
    return A.add[a][b] == b


def units(A: FiniteSemiring) -> int:
    """The mask of the units: a is a unit iff 1 is in its row of mul."""
    one = A.one
    out = 0
    for a, ma in enumerate(A.mul):
        if one in ma:
            out |= 1 << a
    return out


class Split(NamedTuple):
    """A as eA x fA by a |-> (ea, fa): fibres[i][x] is the mask of the a
    whose component in factors[i] is x."""

    factors: Tuple[FiniteSemiring, FiniteSemiring]
    fibres: Tuple[Tuple[int, ...], ...]

    def preimage(self, i: int, mask: int) -> int:
        """{a : the component of a in factor i lies in mask}."""
        out, fibre = 0, self.fibres[i]
        for x in bits(mask):
            out |= fibre[x]
        return out

    def lift(self, of: Callable[[FiniteSemiring], Iterable[int]]) -> List[int]:
        """The preimages of the masks of(B) of both factors B, sorted."""
        return sorted(self.preimage(i, m) for i, B in enumerate(self.factors) for m in of(B))


def _factor(A: FiniteSemiring, e: int) -> Tuple[FiniteSemiring, Tuple[int, ...]]:
    """eA with unit e, closed in A under its operations and so keeping A's
    axioms, and the index in it of each ea; a value outside it raises
    InternalCheckError."""
    carrier = sorted(set(A.mul[e]))
    E = _index_tables(carrier, lambda a, b: A.add[a][b], lambda a, b: A.mul[a][b], A.zero, e,
                      f"{A.name_of(e)}*{A.label}", None, InternalCheckError)
    return E, tuple(map(carrier.index, A.mul[e]))


def split(A: FiniteSemiring) -> Optional[Split]:
    """A as eA x fA for the first e other than 0 and 1 with ee = e, e + f = 1
    and ef = 0 for some f, or None; a |-> (ea, fa) is certified an injective
    hom, a -> ea and a -> fa each by `Homomorphism.violation`. It is onto
    once A keeps the axioms, with no count to compare: for x in eA and y in
    fA, e(x + y) = x and f(x + y) = y, as ee = e and ef = 0. Before that is
    known, `assert_valid` needs no more than the injective hom. Found when
    `assert_valid` checks A or on first use; kept in A's memo."""
    if "split" not in A._memo:
        add, mul, els, out = A.add, A.mul, A.elements, None
        pick = ((e, f) for e in els if e not in (A.zero, A.one) and mul[e][e] == e
                for f in els if add[e][f] == A.one and mul[e][f] == A.zero)
        e, f = next(pick, (None, None))
        if e is not None:
            (E, pe), (F, pf) = _factor(A, e), _factor(A, f)
            maps = (Homomorphism(A, E, pe), Homomorphism(A, F, pf))
            if any(h.violation() for h in maps) or len(set(zip(pe, pf))) != A.size:
                raise InternalCheckError(f"{A.label}: a -> (ea, fa) is no isomorphism onto eA x fA")
            fibres = (tuple(mask_of(a for a in els if pos[a] == i) for i in range(B.size))
                      for pos, B in ((pe, E), (pf, F)))
            out = Split((E, F), tuple(fibres))
        A._memo["split"] = out
    return A._memo["split"]


# ---------------------------------------------------------------------------
# JSON interchange

_SCHEMA_KEYS = {"size", "zero", "one", "add", "mul", "label"}


def _is_list(x, n: int) -> bool:
    return isinstance(x, (list, tuple)) and len(x) == n


def _is_int(x) -> bool:
    """An int that is not a bool: JSON true and false are no indices."""
    return isinstance(x, int) and not isinstance(x, bool)


def semiring_from_dict(d: Dict) -> FiniteSemiring:
    missing = _SCHEMA_KEYS - set(d)
    if missing:
        raise FormatError(f"semiring JSON missing keys: {sorted(missing)}")
    n = d["size"]
    if not _is_int(n) or n < 1:
        raise FormatError("size must be a positive integer")
    if n > MAX_SIZE:
        raise PreconditionError(f"size {n} exceeds cap {MAX_SIZE}")
    for key in ("add", "mul"):
        t = d[key]
        if not _is_list(t, n) or not all(_is_list(row, n) for row in t):
            raise FormatError(f"{key} table must be {n}x{n}")
        for row in t:
            for v in row:
                if not _is_int(v) or not 0 <= v < n:
                    raise FormatError(f"{key} entry {v!r} out of range")
    for key in ("zero", "one"):
        v = d[key]
        if not _is_int(v) or not 0 <= v < n:
            raise FormatError(f"{key} out of range")
    names = d.get("names")
    if names is not None:
        if not _is_list(names, n) or not all(isinstance(x, str) or _is_int(x) for x in names):
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
    be read, is not UTF-8 JSON or holds something other than an object."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            d = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    if not isinstance(d, dict):
        raise FormatError(f"{path}: top level must be an object")
    return d


def load_semiring(path: str) -> FiniteSemiring:
    return semiring_from_dict(read_json_object(path))


# ---------------------------------------------------------------------------
# homomorphisms


class Homomorphism(NamedTuple):
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

    def is_bijective(self) -> bool:
        return self.dom.size == self.cod.size and len(set(self.images)) == self.dom.size


def _sum_rule(B: FiniteSemiring, bounded: bool) -> Tuple[Tuple[int, ...], ...]:
    """rule[p][q]: the mask of values allowed for f(x + y) when f(x) = p
    and f(y) = q. Equal (a hom) allows only p + q; bounded (a valuation)
    allows every value below p + q in the natural order of B."""
    def allowed(s: int) -> int:
        return mask_of(w for w in B.elements if leq(B, w, s)) if bounded else 1 << s

    return tuple(tuple(allowed(s) for s in row) for row in B.add)


def _extend_partial(
    A: FiniteSemiring, val: List[int], fresh: List[int], rules: Tuple
) -> Optional[List[int]]:
    """Close a partial map under the rules for + and *; None on conflict.

    Each rule maps the images of x and y to the mask of values allowed for
    the image of x + y (or xy); a value is forced when only one is allowed.
    Returns the trail of newly assigned domain elements for backtracking.
    """
    sums, prods = rules
    trail: List[int] = []
    queue = list(fresh)
    while queue:
        x = queue.pop()
        vx = val[x]
        for y in A.elements:
            vy = val[y]
            if vy < 0:
                continue
            for t, ok in ((A.add[x][y], sums[vx][vy]), (A.mul[x][y], prods[vx][vy])):
                vt = val[t]
                if vt < 0:
                    if ok & (ok - 1) == 0:
                        val[t] = ok.bit_length() - 1
                        trail.append(t)
                        queue.append(t)
                elif not (ok >> vt) & 1:
                    for u in trail:
                        val[u] = -1
                    return None
    return trail


def _maps(A: FiniteSemiring, B: FiniteSemiring, bounded: bool) -> List[Tuple[int, ...]]:
    """Image tuples of the maps A -> B that keep 0, 1 and products and
    whose sums follow `_sum_rule(B, bounded)`, in lexicographic order.

    DFS that branches on the first unassigned element, with closure
    propagation after each choice. For homs the assigned set is the
    subsemiring generated so far; for valuations into a two-element B the
    propagation is complete, so every leaf is a valuation.
    """
    rules = (_sum_rule(B, bounded), tuple(tuple(1 << w for w in row) for row in B.mul))
    val = [-1] * A.size
    val[A.zero] = B.zero
    if val[A.one] >= 0 and val[A.one] != B.one:
        return []  # collapsed domain cannot reach a nontrivial codomain
    val[A.one] = B.one
    if _extend_partial(A, val, [A.zero, A.one], rules) is None:
        return []

    def dfs(start: int) -> Iterator[Tuple[int, ...]]:
        g = next((a for a in range(start, A.size) if val[a] < 0), None)
        if g is None:
            yield tuple(val)
            return
        for w in B.elements:
            val[g] = w
            trail = _extend_partial(A, val, [g], rules)
            if trail is not None:
                yield from dfs(g + 1)
                for t in trail:
                    val[t] = -1
        val[g] = -1

    return sorted(dfs(0))


def enumerate_homs(A: FiniteSemiring, B: FiniteSemiring) -> List[Homomorphism]:
    """All homomorphisms A -> B, lexicographically ordered by image tuple.

    Found by `_maps` with sums kept equal; every hom is re-checked
    pointwise before it is returned.
    """
    homs = [Homomorphism(A, B, images) for images in _maps(A, B, False)]
    if any(h.violation() is not None for h in homs):
        raise InternalCheckError("hom DFS closure produced a non-hom")
    return homs

