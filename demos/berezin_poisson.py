"""Berezin kernels and transforms, the Poisson kernel, and its factorization.

Shows membership reports, the kernel isometry for nilpotent points, the
moment identity, the resolvent factorization with its tail bound, and the
classical product-of-disc-kernels limit in the scalar case.
"""

import numpy as np

from polyball import (
    CbMapData,
    FockTruncation,
    PolyballPoint,
    berezin_kernel,
    berezin_transform,
    cauchy_operator,
    in_polyball,
    multiword,
    poisson_kernel,
    poisson_transform,
    spectral_radius,
    word_operator,
)

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
pk = poisson_kernel(x, t)
c = cauchy_operator(t, x, "right").matrix.toarray()
diff = np.linalg.norm(pk.op.dense() - c.conj().T @ c, 2)
print(f"difference {diff:.4f} <= factorization bound {pk.factorization_bound:.4f}")
print(f"series tail bound {pk.tail_bound:.4f}; "
      f"min eigenvalue {np.linalg.eigvalsh(pk.op.dense())[0]:.4f}")

print("\n=== the scalar case recovers the classical disc kernels ===")
mu = CbMapData.point_mass([1.0, 1.0], 24)
z = PolyballPoint.from_scalars([[0.5], [0.5]])
val = poisson_transform(mu, z)
print("pairing against the boundary point at z = (0.5, 0.5):", val.value[0, 0].real)
print("classical product of disc kernels:", 3.0 * 3.0, " tail:", val.tail_bound)
