"""Numerical operator theory on noncommutative regular polyballs.

Truncated Fock tensor products with their creation operators, multi-Toeplitz
operators and Fourier symbols, Berezin/Poisson/Herglotz transforms, and
constructive Naimark dilations of positive semi-definite multi-Toeplitz
kernels, all at explicit finite truncation with stated exactness windows and
tail bounds.
"""

from .words import (
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
    words_up_to,
)
from .fock import (
    FockOperator,
    FockTruncation,
    TruncationError,
    apply_creation,
    creation_matrix,
    creation_tuple,
    monomial_indices,
    word_matrix,
    word_operator,
)
from .toeplitz import (
    MultiToeplitzSymbol,
    NotLambdaPairError,
    creation_pair_symbol,
    evaluate_symbol,
    extract_symbol,
    is_k_multi_toeplitz,
    norm_on_grid,
    symbol_operator,
)
from .berezin import (
    BerezinKernelMatrix,
    DivergenceError,
    GramFactor,
    PolyballPoint,
    SingularResolventError,
    berezin_kernel,
    berezin_transform,
    cauchy_operator,
    creation_point,
    defect,
    in_polyball,
    poisson_window,
    spectral_radius,
)
from .naimark import (
    GeneratorError,
    KernelNotPSDError,
    NaimarkDilation,
    ToeplitzKernel,
    dilation_verify,
    kernel_from_generator,
    kernel_is_psd,
    naimark_dilate,
)
from .pluriharm import (
    CbMapData,
    fantappie_transform,
    from_row_isometries,
    gamma_kernel,
    herglotz_transform,
    nu_trace_form,
    poisson_transform,
    schur_positivity,
)
from .verify import IdentityResult, RunConfig, verify_suite

__version__ = "0.1.0"
