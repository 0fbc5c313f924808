"""Transcendental Brauer groups of Kummer surfaces of E x E' over Q:
residue matrices for the 2-torsion part and Galois-theoretic certificates
for the odd-torsion part, with a report-producing CLI."""

from .arith import (
    Factorization,
    Rational,
    SquareClass,
    factor,
    sc_mul,
    square_class,
    valuation,
)
from .curves import (
    CM_J_INVARIANTS,
    CMStatus,
    CurveLW,
    CurveRT2,
    FrobeniusTable,
    NO_TWO_TORSION,
    cm_status,
    count_points,
    frobenius_table,
    good_reduction_at,
    j_invariant_rt2,
    j_invariant_sw,
    to_rt2,
)
from .gl2 import CriterionValidation, validate_surjectivity_criterion
from .homrank import IsogenyEvidence, RankVerdict, nonisogeny_certificate, rank_r
from .oddpart import (
    OddCertificate,
    SurjectivityVerdict,
    check_57_family,
    cm_isogeny_exclusion_certificate,
    congruence_evidence,
    j_valuation_certificate,
    mod_ell_surjectivity,
    no_rational_ell_isogeny,
    six_torsion_cm_certificate,
)
from .report import (
    BrauerReport,
    CurveInput,
    CurvePairSpec,
    analyze,
    parse_curve_record,
    parse_pair_spec,
    render_report,
    search_family,
    twisted_flag,
    validate_report,
)
from .residues import (
    Gate,
    ResidueMatrix,
    extend_residue_matrix,
    kernel_dimension,
    residue_matrix,
    two_torsion_dimension,
)

__version__ = "0.1.0"
