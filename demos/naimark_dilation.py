"""Constructive Naimark dilations of PSD multi-Toeplitz kernels.

Builds kernels from generators (Hermitian symbols; absent coefficients read
as zero), checks positivity, dilates to commuting row
isometries, and verifies reproduction, isometry defects, commutation, and
minimality on the stated window.
"""

import numpy as np

from polyball import (
    KernelNotPSDError,
    MultiToeplitzSymbol,
    dilation_verify,
    identity_multiword,
    kernel_from_generator,
    kernel_is_psd,
    multiword,
    naimark_dilate,
)

print("=== the geometric kernel on one free generator ===")
rho, L = 0.6, 5
g = identity_multiword([1])
gen = MultiToeplitzSymbol([1], 1)
for m in range(2 * L + 1):
    w = multiword([[1] * m], [1])
    gen[(w, g)] = np.array([[rho ** m]])
    gen[(g, w)] = np.array([[rho ** m]])
kernel = kernel_from_generator("left", gen, L)
print("table entry at (m, m') is rho^|m - m'|; e.g. K(3, 1) =",
      kernel.value(multiword([[1, 1, 1]], [1]), multiword([[1]], [1]))[0, 0])

rep = kernel_is_psd(kernel)
print(f"positive semi-definite: {rep.psd} (min eigenvalue {rep.min_eig:.4f})")

dil = naimark_dilate(kernel)
print(f"dilation space dimension {dil.space_dim}, window length {dil.window_len}")
ver = dilation_verify(dil, kernel)
print(f"reproduction error {ver.reproduction_error:.2e}, "
      f"isometry defect {ver.isometry_defect:.2e}, minimal={ver.minimal}")

print("\n=== two commuting generators: the product kernel ===")
from polyball import lambda_pairs_up_to_total

gen2 = MultiToeplitzSymbol([1, 1], 1)
for a, b in lambda_pairs_up_to_total([1, 1], 6):
    # per coordinate one of the words is trivial, so this generator encodes
    # rho^|m1 - m1'| * rho^|m2 - m2'|
    gen2[(a, b)] = np.array([[0.5 ** (a.total_length + b.total_length)]])
kernel2 = kernel_from_generator("left", gen2, 3)
print("PSD:", kernel_is_psd(kernel2).psd)
dil2 = naimark_dilate(kernel2)
ver2 = dilation_verify(dil2, kernel2)
print(f"space dim {dil2.space_dim}, reproduction {ver2.reproduction_error:.2e}, "
      f"cross-factor commutator defect {ver2.commutator_defect:.2e}")

print("\n=== kernels that are not PSD are refused ===")
w1 = multiword([[1]], [1])
bad_gen = MultiToeplitzSymbol([1], 1, {(g, g): np.eye(1), (w1, g): [[2.0]], (g, w1): [[2.0]]})
bad = kernel_from_generator("left", bad_gen, 2)
print("min eigenvalue:", kernel_is_psd(bad).min_eig)
try:
    naimark_dilate(bad)
except KernelNotPSDError as ex:
    print("refused:", ex)
