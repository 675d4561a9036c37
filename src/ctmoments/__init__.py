"""Entanglement detection via correlation-tensor moment criteria."""

from .basis import gellmann_generators
from .bloch import CorrelationTensor, correlation_tensor, unfold
from .criteria import (
    CriterionReport,
    ccnr_criterion,
    dv_bound,
    dv_criterion,
    evaluate_all,
    li_bound,
    li_criterion,
    moments_of_state,
    multi_canonical_bound,
    multi_plain_bound,
    ppt_criterion,
    theorem1,
    theorem2,
    theorem3,
)
from .linalg import (
    DensityMatrix,
    hermitian_eigenvalues,
    is_psd,
    partial_transpose,
    realign,
    singular_values,
    trace_norm,
)
from .moments import moment_vector
from .states import (
    bell,
    ghz,
    maximally_mixed,
    mix_white_noise,
    pure_product,
    tiles_ppt,
    w_state,
    werner,
)

__version__ = "0.1.0"

__all__ = [
    "CorrelationTensor",
    "CriterionReport",
    "DensityMatrix",
    "bell",
    "ccnr_criterion",
    "correlation_tensor",
    "dv_bound",
    "dv_criterion",
    "evaluate_all",
    "gellmann_generators",
    "ghz",
    "hermitian_eigenvalues",
    "is_psd",
    "li_bound",
    "li_criterion",
    "maximally_mixed",
    "mix_white_noise",
    "moment_vector",
    "moments_of_state",
    "multi_canonical_bound",
    "multi_plain_bound",
    "partial_transpose",
    "ppt_criterion",
    "pure_product",
    "realign",
    "singular_values",
    "theorem1",
    "theorem2",
    "theorem3",
    "tiles_ppt",
    "trace_norm",
    "unfold",
    "w_state",
    "werner",
]
