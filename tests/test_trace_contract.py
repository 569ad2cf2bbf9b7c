"""What the benchmark's per-layer tracer reads from polyball's results.

``perfbench/layertrace.py`` (``LayerTracer._observer``) reads, at the layer
boundary, the rows of ``cauchy_operator(...).matrix`` with the point's ``k``,
the ``space_dim``, ``monomials`` and ``e_dim`` of ``naimark_dilate``'s
result, and the ``len`` of both lambda-pair enumerations.  The benchmark's
own tests lie outside the tier-1 test paths, so the tests here pin what it
reads.
"""

import numpy as np
import pytest

from polyball.berezin import cauchy_operator
from polyball.fock import FockTruncation
from polyball.naimark import naimark_dilate
from polyball.sampling import random_point, random_psd_kernel
from polyball.words import lambda_pairs_up_to_total, lambda_pairs_within_degrees


@pytest.mark.parametrize("thin", [False, True])
def test_cauchy_operator_matrix_has_dim_times_h_rows(thin):
    n, h = (2, 1), 2
    t = FockTruncation(n, (2, 2))
    x = random_point(np.random.default_rng(1), n, h, 0.7)
    rhs = np.eye(t.dim * h, 3, dtype=complex) if thin else None
    result = cauchy_operator(t, x, "right", rhs=rhs)
    assert result.matrix.shape[0] == t.dim * h
    assert x.k == len(n)


def test_naimark_dilation_has_dimension_monomials_and_coefficient_size():
    kernel = random_psd_kernel(np.random.default_rng(2), "left", (2, 1), 2, 3)
    d = naimark_dilate(kernel)
    ratio = d.space_dim / (len(d.monomials) * d.e_dim)
    assert isinstance(d.space_dim, int) and d.e_dim == 2
    assert 0 < ratio <= 1


def test_lambda_pair_enumerations_are_sized():
    assert len(lambda_pairs_up_to_total((2, 1), 3)) > 0
    assert len(lambda_pairs_within_degrees((2, 1), (2, 2))) > 0
