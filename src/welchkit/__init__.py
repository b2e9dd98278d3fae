"""Welch-type inequalities for finite vector sets, via kernel Gram matrices.

The toolkit generates vector sets, evaluates polynomial and gaussian kernel
Gram matrices, checks the classical coherence / power-sum bounds together
with their rank and shifted generalizations, embeds vectors through the
explicit symmetric-tensor feature map, minimizes the frame potential, and
scans numerical Gram ranks against the predicted embedding dimensions.
"""

from .bounds import (
    BoundReport,
    coherence,
    coherence_report,
    generalized_report,
    gram_rank_report,
    power_sum_report,
    shifted_report,
    shifted_unit_report,
    welch_coherence_bound,
    welch_sum_bound,
)
from .errors import NumericalError
from .features import FeatureMatrix, embedding_dim, feature_matrix
from .frames import (
    OptimizeResult,
    OptimizerConfig,
    minimize_frame_potential,
    orthonormal_frame,
    random_unit_vectors,
    simplex_frame,
)
from .kernels import (
    GramMatrix,
    KernelSpec,
    VectorSet,
    gram_matrix,
    inner_table,
    power_sum,
)
from .linalg import (
    EigenSpectrum,
    clamp_psd,
    hermitian_eigenvalues,
    numerical_rank,
)
from .rank_scan import (
    ScanResult,
    rank_scan,
    scan_csv,
    scan_summary_dict,
)
from .serialize import (
    canonical_json,
    format_float,
    read_vector_set,
    write_vector_set,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "EigenSpectrum",
    "FeatureMatrix",
    "GramMatrix",
    "KernelSpec",
    "NumericalError",
    "OptimizeResult",
    "OptimizerConfig",
    "ScanResult",
    "VectorSet",
    "canonical_json",
    "clamp_psd",
    "coherence",
    "coherence_report",
    "embedding_dim",
    "feature_matrix",
    "format_float",
    "generalized_report",
    "gram_matrix",
    "gram_rank_report",
    "hermitian_eigenvalues",
    "inner_table",
    "minimize_frame_potential",
    "numerical_rank",
    "orthonormal_frame",
    "power_sum",
    "power_sum_report",
    "random_unit_vectors",
    "rank_scan",
    "read_vector_set",
    "scan_csv",
    "scan_summary_dict",
    "shifted_report",
    "shifted_unit_report",
    "simplex_frame",
    "welch_coherence_bound",
    "welch_sum_bound",
    "write_vector_set",
]
