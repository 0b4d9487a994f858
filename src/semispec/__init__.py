"""Exact computations with finite commutative semirings: prime spectra,
Zariski topologies, localization, structure sheaves, hardening, and the
submodule-lattice valuation correspondence, all at desk scale with every
derived fact re-verified by an independent route."""

from .errors import (
    FormatError,
    InternalCheckError,
    PreconditionError,
    ResourceError,
    SemispecError,
    UnknownNameError,
    VerificationError,
)
from .kernel import (
    FiniteSemiring,
    Homomorphism,
    assert_valid,
    enumerate_homs,
    is_idempotent,
    make_semiring,
    verify_axioms,
)
from . import corpus, ideals, localize, poly, presented, sheaf, spectra, valuation
from .localize import harden, is_hard, localize as localize_at, saturate
from .spectra import (
    dimension,
    nat_model_verify,
    nat_spectrum,
    sp_enumerate,
    spec_enumerate,
)

__version__ = "0.1.0"

__all__ = [
    "FiniteSemiring",
    "Homomorphism",
    "FormatError",
    "InternalCheckError",
    "PreconditionError",
    "ResourceError",
    "SemispecError",
    "UnknownNameError",
    "VerificationError",
    "assert_valid",
    "corpus",
    "dimension",
    "enumerate_homs",
    "harden",
    "ideals",
    "is_hard",
    "is_idempotent",
    "localize",
    "localize_at",
    "make_semiring",
    "nat_model_verify",
    "nat_spectrum",
    "poly",
    "presented",
    "saturate",
    "sheaf",
    "sp_enumerate",
    "spec_enumerate",
    "spectra",
    "valuation",
    "verify_axioms",
]
