"""Numerical operator theory on noncommutative regular polyballs.

Truncated Fock tensor products with their creation operators, multi-Toeplitz
operators and Fourier symbols, Berezin/Poisson/Herglotz transforms, and
constructive Naimark dilations of positive semi-definite multi-Toeplitz
kernels, all at explicit finite truncation with stated exactness windows and
tail bounds.
"""

from .words import (
    ComparabilityResult,
    MultiWord,
    ShapeMismatchError,
    Word,
    compare,
    empty_word,
    identity_multiword,
    lambda_membership,
    lambda_pairs_up_to_total,
    lambda_pairs_within_degrees,
    multiword,
    multiwords_up_to_total,
    word,
    words_up_to,
)
from .fock import (
    FockOperator,
    FockTruncation,
    TruncationError,
    apply_creation,
    creation_matrix,
    monomial_indices,
    word_operator,
)
from .toeplitz import (
    MultiToeplitzSymbol,
    NotLambdaPairError,
    ToeplitzReport,
    creation_pair_symbol,
    evaluate_symbol,
    extract_symbol,
    fourier_coefficient,
    is_k_multi_toeplitz,
    norm_on_grid,
    symbol_operator,
)
from .berezin import (
    BerezinKernelMatrix,
    CauchyResult,
    DivergenceError,
    MembershipReport,
    PoissonKernelResult,
    PolyballPoint,
    SingularResolventError,
    SpectralRadiusReport,
    berezin_kernel,
    berezin_transform,
    cauchy_operator,
    creation_point,
    defect,
    in_polyball,
    poisson_kernel,
    spectral_radius,
)
from .naimark import (
    DilationReport,
    GeneratorError,
    KernelNotPSDError,
    NaimarkDilation,
    PsdReport,
    ToeplitzKernel,
    dilation_verify,
    kernel_from_generator,
    kernel_from_isometries,
    kernel_is_psd,
    naimark_dilate,
)
from .pluriharm import (
    CbMapData,
    SchurReport,
    TransformResult,
    fantappie_transform,
    from_row_isometries,
    gamma_kernel,
    herglotz_transform,
    mu_r_scale,
    nu_of,
    nu_trace_form,
    poisson_transform,
    schur_positivity,
)
from .verify import IdentityResult, RunConfig, verify_suite

__version__ = "0.1.0"
