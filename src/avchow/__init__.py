"""Exact intersection arithmetic in finitely presented graded rings.

The package has three layers:

* a small exact-arithmetic core: sparse polynomials over the rationals
  with weighted gradings, and graded quotient rings with their Groebner
  bases and degree functionals (``poly``, ``linalg``, ``quotient``);
* serialization and parsing: a JSON format for ring presentations with
  attached expectations, and a parser for polynomial expressions
  (``ringspec``, ``exprparse``);
* a catalog of intersection rings of compactified moduli spaces of
  principally polarized abelian varieties in low genus, together with a
  verification suite that recomputes every stored number from the
  presentations alone (``catalog``, ``verify``, ``pushforward``,
  ``levels``), and a command line front end (``cli``).
"""

from .catalog import Catalog, RING_NAMES, default_catalog
from .errors import (
    AvchowError,
    DegreeError,
    GeneratorMismatchError,
    InconsistentSystemError,
    PairingError,
    ParseError,
    RingSpecError,
    SingularSystemError,
    SizeError,
    SubstitutionError,
    UnknownScopeError,
    UnknownSymbolError,
)
from .exprparse import parse_expression
from .levels import cusp_count_mu, group_order_gamma, verify_level_identity
from .poly import GeneratorSet, Polynomial, format_rational, parse_rational
from .pushforward import PushforwardRule, RelativeRing, TabulatedPushforward
from .quotient import (
    DegreeFunctional,
    GroebnerBasis,
    QuotientRing,
    RingPresentation,
    presentations_equivalent,
)
from .ringspec import LoadedRing, load_ring_spec
from .verify import Check, CheckResult, VerificationReport, run_checks

__version__ = "0.1.0"

__all__ = [
    "AvchowError",
    "Catalog",
    "Check",
    "CheckResult",
    "DegreeError",
    "DegreeFunctional",
    "GeneratorMismatchError",
    "GeneratorSet",
    "GroebnerBasis",
    "InconsistentSystemError",
    "LoadedRing",
    "PairingError",
    "ParseError",
    "Polynomial",
    "PushforwardRule",
    "QuotientRing",
    "RelativeRing",
    "RING_NAMES",
    "RingPresentation",
    "RingSpecError",
    "SingularSystemError",
    "SizeError",
    "SubstitutionError",
    "TabulatedPushforward",
    "UnknownScopeError",
    "UnknownSymbolError",
    "VerificationReport",
    "cusp_count_mu",
    "default_catalog",
    "format_rational",
    "group_order_gamma",
    "load_ring_spec",
    "parse_expression",
    "parse_rational",
    "presentations_equivalent",
    "run_checks",
    "verify_level_identity",
]
