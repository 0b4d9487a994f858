"""Shared fixtures: the built-in table corpus at various size cuts."""

from unittest import mock

import pytest

from semispec import corpus, kernel, spectra
from semispec.errors import FormatError
from semispec.ideals import all_ideals, closed_sets, is_subtractive
from semispec.kernel import FiniteSemiring, bits, enumerate_homs, is_idempotent, mul_rows


@pytest.fixture(scope="session")
def corpus_tables():
    return {name: corpus.get(name) for name in corpus.corpus_names()}


@pytest.fixture(scope="session")
def small_tables(corpus_tables):
    # everything small enough for quadratic-in-subsets brute force
    return {n: A for n, A in corpus_tables.items() if A.size <= 6}


@pytest.fixture(scope="session")
def idempotent_tables(corpus_tables):
    return {
        n: A
        for n, A in corpus_tables.items()
        if A.add[A.one][A.one] == A.one and A.size <= 8
    }


def isomorphic(A: FiniteSemiring, B: FiniteSemiring) -> bool:
    """Some hom A -> B is bijective; its inverse is then a hom too."""
    return A.size == B.size and any(h.is_bijective() for h in enumerate_homs(A, B))


def brute_ideal_ok(A: FiniteSemiring, mask: int) -> bool:
    """Ideal test written out longhand, used as an oracle."""
    if not (mask >> A.zero) & 1:
        return False
    for a in range(A.size):
        for b in range(A.size):
            if (mask >> a) & 1 and (mask >> b) & 1:
                if not (mask >> A.add[a][b]) & 1:
                    return False
            if (mask >> a) & 1:
                if not (mask >> A.mul[a][b]) & 1:
                    return False
    return True


def brute_prime_ideal_masks(A: FiniteSemiring):
    """All proper prime ideals by direct subset scan."""
    out = []
    for mask in range(1 << A.size):
        if (mask >> A.one) & 1 or not brute_ideal_ok(A, mask):
            continue
        prime = True
        for a in range(A.size):
            for b in range(A.size):
                inside = (mask >> A.mul[a][b]) & 1
                if inside and not ((mask >> a) & 1 or (mask >> b) & 1):
                    prime = False
        if prime:
            out.append(mask)
    return sorted(out)


def brute_prime_kernel_masks(A: FiniteSemiring):
    """Kernels of maps onto {0,1} that respect both operations. Matches
    the subtractive primes only when addition is idempotent."""
    out = []
    for mask in range(1 << A.size):
        chi = [0 if (mask >> a) & 1 else 1 for a in range(A.size)]
        if chi[A.zero] != 0 or chi[A.one] != 1:
            continue
        ok = True
        for a in range(A.size):
            for b in range(A.size):
                if chi[A.add[a][b]] != (chi[a] | chi[b]):
                    ok = False
                if chi[A.mul[a][b]] != (chi[a] & chi[b]):
                    ok = False
        if ok:
            out.append(mask)
    return sorted(out)


def brute_subtractive_prime_masks(A: FiniteSemiring):
    """Proper prime ideals that are also subtractive, by direct scan."""
    out = []
    for mask in brute_prime_ideal_masks(A):
        sub = True
        for a in range(A.size):
            for b in range(A.size):
                if (mask >> b) & 1 and (mask >> A.add[a][b]) & 1:
                    if not (mask >> a) & 1:
                        sub = False
        if sub:
            out.append(mask)
    return sorted(out)


def submonoids(A: FiniteSemiring):
    """Every multiplicative submonoid, by ascending mask, written out
    longhand, used as an oracle."""
    return [
        m for m in range(1 << A.size)
        if (m >> A.one) & 1 and all((m >> A.mul[a][b]) & 1 for a in bits(m) for b in bits(m))
    ]


def direct_routes(A: FiniteSemiring):
    """The ideals, spec points and sp points of A by the routes that never
    split: the lattice by `closed_sets` on A, the primes as the valuation
    kernels and, when 1 + 1 = 1, the prime kernels as the hom kernels."""
    found = closed_sets(A, mul_rows(A))
    primes = spectra._bool2_kernels(A, homs=False)
    kernels = [m for m in primes if is_subtractive(A, m)]
    if is_idempotent(A):
        assert spectra._bool2_kernels(A, homs=True) == kernels, A.label
    return sorted(found, key=lambda m: (m.bit_count(), m)), primes, kernels


def public_routes(A: FiniteSemiring):
    """The same three lists from `all_ideals` and the two spectra, which
    read the factors of a table that splits."""
    return (
        all_ideals(A),
        sorted(spectra.spec_enumerate(A).point_masks),
        sorted(spectra.sp_enumerate(A).point_masks),
    )


def axiom_verdicts(A: FiniteSemiring):
    """What `kernel.assert_valid` says of two fresh copies of A: as it
    runs, reading the factors of a table that splits, and with the split
    turned off, so that A itself is scanned. Each verdict is None on a
    pass, else the FormatError text."""

    def verdict() -> object:
        try:
            kernel.assert_valid(A.replace())
        except FormatError as exc:
            return str(exc)
        return None

    by_factors = verdict()
    with mock.patch.object(kernel, "split", lambda B: None):
        return by_factors, verdict()
