"""symsod: semi-orthogonal decompositions of symmetric products of categories.

The package expands symmetric powers of expression trees over category
atoms into fully atomic components, and cross-checks the expansions against
exact combinatorial, generating-function, and character-theoretic oracles.

Its records are immutable slotted classes (``symsod._record.Record``).  The
verification suites load on first use: ``symsod.run_suites`` and
``symsod verify`` import ``symsod.suites`` only when they run.
"""

from .expr import (
    Bullet,
    CatExpr,
    Component,
    ComponentList,
    Curve,
    Opaque,
    PHANTOM,
    POINT,
    Phantom,
    Point,
    Sod,
    Surface,
    Sym,
    SymCurve,
    SymPower,
    betti_of,
    blowup,
    canonicalize,
    make_preset,
    render_text,
    surface_literal,
)
from .grammar import ParseError, parse_expr
from .invariants import (
    InvariantReport,
    invariant_report,
    phantom_audit,
)
from .partitions import (
    multiplicity_vectors,
    partition_count,
    partitions_of,
    q_length,
)
from .rewrite import expand, expand_tail_first
from .series import (
    BettiVector,
    euler_product_power,
    gottsche_series,
    macdonald_poincare,
)
from .symgroup import (
    PermModule,
    Permutation,
    YoungPair,
    cycle_type,
    induction_invariance_check,
    invariant_dimension,
    young_coset_reps,
    young_subgroup,
)

__version__ = "0.1.0"

__all__ = [
    "BettiVector", "Bullet", "CatExpr", "Component", "ComponentList", "Curve",
    "InvariantReport", "Opaque", "ParseError", "PermModule", "Permutation",
    "PHANTOM", "Phantom", "POINT", "Point", "Sod", "Surface", "Sym", "SymCurve",
    "SymPower", "YoungPair", "betti_of", "blowup", "canonicalize", "cycle_type",
    "euler_product_power", "expand", "expand_tail_first", "gottsche_series",
    "induction_invariance_check", "invariant_dimension", "invariant_report",
    "macdonald_poincare", "make_preset", "multiplicity_vectors", "parse_expr",
    "partition_count", "partitions_of", "phantom_audit", "q_length", "render_text",
    "run_suites", "surface_literal", "young_coset_reps", "young_subgroup",
]


def __getattr__(name: str):
    """``run_suites``, importing ``symsod.suites`` on first use (PEP 562)."""
    if name == "run_suites":
        from .suites import run_suites

        return run_suites
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
