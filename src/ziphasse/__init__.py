"""Combinatorial invariants of generalized Hasse invariants for zip data.

Exact (integer/rational) computations for reductive groups over finite
fields: root data with Frobenius structure, Smith normal form, the
character-lattice twist endomorphism and its invariant factors, orbit
censuses (walked in integer Cartan coordinates; Weyl group enumeration is
kept only as a test oracle), equivariant Picard ranks, and positivity
certificates.  All values are immutable and computations are pure, so
everything can be shared freely across threads.
"""

from .exact_linear import (
    IntMatrix,
    NonSquareError,
    SingularMatrixError,
    SmithDecomposition,
    determinant,
    invariant_factors,
    smith_normal_form,
)
from .root_datum import (
    Component,
    FrobeniusStructure,
    InvalidQError,
    InvalidRankError,
    RootDatum,
    SingularCartanError,
    UnsupportedSeriesError,
    WeylGroupTooLargeError,
    build_group,
    classical_order,
    gl,
    gsp,
    opp_type,
    picard_torsion,
    product_group,
    simple_group,
    unitary,
    weil_restriction,
)
from .zip_core import (
    CENTRAL,
    MINUSCULE,
    NEITHER,
    SMALL_NOT_MINUSCULE,
    HasseReport,
    NonNormalizedCocharacterError,
    OrbitCensus,
    OrbitEntry,
    PicObstructionError,
    ZipDatum,
    build_zip_datum,
    classify_cocharacter,
    hasse_number,
    orbit_census,
    pic_rank,
    s0_characters,
    zeta_matrix,
)
from .positivity import (
    AMPLE,
    ANTIAMPLE,
    CERTIFIED_NEGATIVE,
    MIXED,
    NOT_APPLICABLE,
    NOT_IN_LATTICE,
    NotRationalCaseError,
    NotWeilRestrictionError,
    PositivityReport,
    PreconditionViolatedError,
    antiample_check,
    hasse_divisor_coeffs,
    weil_pullback_check,
)

__version__ = "0.19.0"
