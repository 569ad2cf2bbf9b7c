"""Positive pluriharmonic functions and Herglotz-type representations.

Demonstrates the Schur-type positivity test (operator eigenvalues against the
kernel Gram matrix), the structure construction from commuting row
isometries, and the scalar Herglotz transform recovering (1+z)/(1-z).
"""

import numpy as np

from polyball import (
    CbMapData,
    FockTruncation,
    MultiToeplitzSymbol,
    PolyballPoint,
    creation_matrix,
    fantappie_transform,
    from_row_isometries,
    gamma_kernel,
    herglotz_transform,
    identity_multiword,
    multiword,
    poisson_transform,
    schur_positivity,
)

print("=== positivity through the associated kernel ===")
n1 = [1]
g1 = identity_multiword(n1)
w1 = multiword([[1]], n1)
sym = MultiToeplitzSymbol(n1, 1)
sym[g1, g1] = [[1.0]]
sym[w1, g1] = [[-2.0]]
sym[g1, w1] = [[-2.0]]
rep = schur_positivity(sym, [0.2, 0.9], 5)
for p in rep.points:
    print(f"  r = {p.r}: operator min eig {p.operator_min_eig:+.4f}, "
          f"kernel Gram min eig {p.gram_min_eig:+.4f}, agree={p.agree}")
gk = gamma_kernel(sym, 0.9, 3)
print("kernel entry at distance 1:", gk.value(w1, g1)[0, 0])

print("\n=== positive functions from commuting row isometries ===")
n = (2, 1)
t = FockTruncation(n, [5, 5])
v = [
    [creation_matrix(t, "right", i, j) for j in range(1, ni + 1)]
    for i, ni in enumerate(n, 1)
]
e = np.zeros((t.dim, 2))
e[0, 0] = 1.0
e[t.basis_index(multiword([[1], []], n)), 1] = 1.0
fv = from_row_isometries(v, e, 3)
rep = schur_positivity(fv, [0.3, 0.6, 0.9], 3)
print("positive at every r:", rep.positive, "; verdicts agree:", rep.all_agree)

print("\n=== the scalar Herglotz transform ===")
mu = CbMapData.point_mass([1.0], 120)
for z in (0.5, -0.3, 0.4j):
    x = PolyballPoint.from_scalars([[z]])
    h = herglotz_transform(mu, x).value[0, 0]
    print(f"  H(mu) at z = {z}: {h:.6f}   classical (1+z)/(1-z) = {(1+z)/(1-z):.6f}")

print("\n=== resolvent pairing and real parts ===")
x = PolyballPoint.from_scalars([[0.5]])
print("Fantappie value at 0.5 (geometric series):",
      fantappie_transform(mu, x).value[0, 0].real)
h = herglotz_transform(mu, x).value[0, 0]
p = poisson_transform(mu, x).value[0, 0]
print(f"Re H(mu) = {h.real:.6f} matches the Poisson value {p.real:.6f}")
