"""Numerics for two-parameter deformed boson oscillators and their
Klauder coherent states.

The deformation replaces the integer n by [n] = (q**n - p**(-n))/(q - 1/p).
The package provides the deformed number sequences, the two deformed
exponential series with certified truncation, truncated Fock-space ladder
matrices with relation audits, coherent-state construction with
normalization/continuity/eigenvalue checks, recovery of the
resolution-of-unity weight function by moment matching and by regularized
inverse Fourier transform, and numerical corroboration of the convergence
regimes. A CLI (``qpcoherent``) fronts the sweeps and exports.
"""

from .convergence import (
    Prop1Row,
    RatioVerdict,
    Regime,
    RegimeVerdict,
    boundary_margin,
    classify_regime,
    default_parameter_grid,
    proposition1_check,
    proposition2_check,
    regime_report_to_csv,
    regime_report_to_json,
)
from .coherent import (
    CoherentState,
    annihilator_residual,
    label_distance_sq,
    make_state,
    overlap,
)
from .defexp import (
    SeriesControl,
    SeriesEvaluation,
    Verdict,
    convergence_radius,
    exp1,
    exp2,
)
from .errors import (
    IllConditionedError,
    InvalidParameterError,
    LabelOutOfDiskError,
    OverlapInconsistencyError,
    ParameterMismatchError,
    QpcError,
    QuadratureError,
    RootOfUnityDegeneracyError,
    SeriesDivergenceError,
)
from .fock import (
    FockOperators,
    RelationReport,
    build_operators,
    relation_residuals,
)
from .qnumbers import (
    DeformationParams,
    QNumberSequence,
    qp_sequence,
)
from .unity import (
    Basis,
    Method,
    MomentSet,
    WeightFunction,
    identity_matrix_2d,
    moment_ratios,
    physical_weight,
    resolution_residual,
    target_moments,
    weight_from_fourier,
    weight_from_moments,
    weight_to_csv,
    weight_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "CoherentState",
    "DeformationParams",
    "FockOperators",
    "IllConditionedError",
    "InvalidParameterError",
    "LabelOutOfDiskError",
    "Method",
    "MomentSet",
    "OverlapInconsistencyError",
    "ParameterMismatchError",
    "Prop1Row",
    "QNumberSequence",
    "QpcError",
    "QuadratureError",
    "RatioVerdict",
    "Regime",
    "RegimeVerdict",
    "RelationReport",
    "RootOfUnityDegeneracyError",
    "SeriesControl",
    "SeriesDivergenceError",
    "SeriesEvaluation",
    "Verdict",
    "WeightFunction",
    "annihilator_residual",
    "boundary_margin",
    "build_operators",
    "classify_regime",
    "convergence_radius",
    "default_parameter_grid",
    "exp1",
    "exp2",
    "identity_matrix_2d",
    "label_distance_sq",
    "make_state",
    "moment_ratios",
    "overlap",
    "physical_weight",
    "proposition1_check",
    "proposition2_check",
    "qp_sequence",
    "regime_report_to_csv",
    "regime_report_to_json",
    "relation_residuals",
    "resolution_residual",
    "target_moments",
    "weight_from_fourier",
    "weight_from_moments",
    "weight_to_csv",
    "weight_to_json",
]
