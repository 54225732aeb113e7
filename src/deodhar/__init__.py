"""Deodhar decomposition of double Schubert cells for finite Weyl groups,
with twisted-Frobenius cell invariants and exhaustive finite-geometry oracles.

Every value type in this package is immutable after construction; all
operations are deterministic pure functions.
"""

from .cells import (
    CellShape,
    ReducedWord,
    Subexpression,
    enumerate_distinguished,
    filtration,
    preceq,
)
from .counting import (
    IntPolynomial,
    cell_count_poly,
    r_polynomial,
    schubert_cell_poly,
)
from .errors import (
    BudgetError,
    ConfigError,
    DeodharError,
    EmptyCellError,
    NotComparableError,
    PreconditionError,
)
from .frobenius import (
    CellInvariants,
    IsotypicPrediction,
    OrbitData,
    QuotientModel,
    RegularCharacter,
    cell_invariants,
    diagram_automorphisms,
    is_regular,
    orbit_data,
    quotient_model,
    theorem_table,
    vanishing_witness,
    xq_point_count,
    yqs_point_count,
)
from .rootdata import (
    RootSystem,
    WeylElement,
    bruhat_leq,
    build_root_system,
    reduced_words,
    word_str,
)

__version__ = "0.1.0"
