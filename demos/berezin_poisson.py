"""Berezin kernels and transforms, the Poisson kernel, and its factorization.

Shows membership reports, the kernel isometry for nilpotent points, the
moment identity, the resolvent factorization with its tail bound, and the
classical product-of-disc-kernels limit in the scalar case.
"""

import math

import numpy as np

from polyball import (
    CbMapData,
    FockTruncation,
    PolyballPoint,
    berezin_kernel,
    berezin_transform,
    cauchy_operator,
    defect,
    in_polyball,
    multiword,
    poisson_transform,
    poisson_window,
    spectral_radius,
    word_operator,
)
from polyball.berezin import dropped_shell_mass

n = (2, 1)
t = FockTruncation(n, [3, 3])

print("=== membership ===")
x = PolyballPoint.from_scalars([[0.4, 0.2], [0.5]])
rep = in_polyball(x)
print(f"row norms {[f'{r:.3f}' for r in rep.row_norms]}, "
      f"defect min eig {rep.defect_min_eig:.4f}, member={rep.member}")
print("spectral radius estimate:", f"{spectral_radius(x, 8).value:.4f}")

print("\n=== the kernel of a nilpotent point is an isometry ===")
nil = np.array([[0, 0.4, 0.1], [0, 0, 0.3], [0, 0, 0]], dtype=complex)
xn = PolyballPoint([[0.8 * nil, 0.5 * (nil @ nil)], [0.6 * nil]])
k = berezin_kernel(xn, t)
print("|| K*K - I || =", np.linalg.norm(k.matrix.conj().T @ k.matrix - np.eye(3), 2))
print("tail bound:", k.tail_bound)

print("\n=== moment identity ===")
a = multiword([[1], [1]], n)
b = multiword([[2], []], n)
m = word_operator(t, a, b).dense()
got = berezin_transform(m, xn, trunc=t)
want = xn.monomial(a) @ xn.monomial(b).conj().T
print("|| B_X(S_a S_b*) - X_a X_b* || =", np.linalg.norm(got - want, 2))

print("\n=== Poisson kernel factors through the resolvent ===")
p = poisson_window(x, t, np.ones(t.dim, dtype=bool))  # the whole box
c = cauchy_operator(t, x, "right").matrix.toarray()
diff = np.linalg.norm(p - c.conj().T @ c, 2)
# the index pairs the box drops, plus the Gram columns of the dropped creation shells
rho = rep.row_norms
tail = dropped_shell_mass(rho, pairs=True, box=t.degrees)
bound = tail + np.linalg.norm(defect(x), 2) * (math.prod(1.0 / (1.0 - r) for r in rho) - 1.0) ** 2
print(f"difference {diff:.4f} <= factorization bound {bound:.4f}")
print(f"series tail bound {tail:.4f}; min eigenvalue {np.linalg.eigvalsh(p)[0]:.4f}")

print("\n=== the scalar case recovers the classical disc kernels ===")
mu = CbMapData.point_mass([1.0, 1.0], 24)
z = PolyballPoint.from_scalars([[0.5], [0.5]])
val = poisson_transform(mu, z)
print("pairing against the boundary point at z = (0.5, 0.5):", val.value[0, 0].real)
print("classical product of disc kernels:", 3.0 * 3.0, " tail:", val.tail_bound)
