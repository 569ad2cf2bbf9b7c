"""Multi-Toeplitz operators and their Fourier symbols.

Builds operators from symbols, tests membership under the right-compression
characterization, extracts coefficients back, and evaluates symbols both at
matrix points and at the scaled creation tuple.
"""

import numpy as np

from polyball import (
    FockOperator,
    FockTruncation,
    MultiToeplitzSymbol,
    PolyballPoint,
    creation_point,
    evaluate_symbol,
    extract_symbol,
    identity_multiword,
    is_k_multi_toeplitz,
    multiword,
    norm_on_grid,
    symbol_operator,
    word_operator,
)

n = (2, 1)
t = FockTruncation(n, [3, 3])
g = identity_multiword(n)

print("=== membership: compressions by right-creation letters ===")
a = multiword([[1], [1]], n)
op = word_operator(t, a, g)
rep = is_k_multi_toeplitz(op)
print(f"word monomial: pass={rep.passed}, violation={rep.max_violation:.1e}")

w1, w2 = multiword([[1], []], n), multiword([[2], []], n)
bad = FockOperator(t, word_operator(t, w1, w2).dense() + word_operator(t, w2, w1).dense())
rep = is_k_multi_toeplitz(bad)
print(f"mixed-adjoint combination: pass={rep.passed}, violation={rep.max_violation:.1e}")

print("\n=== symbols round-trip through operators ===")
sym = MultiToeplitzSymbol(n, 1)
sym[g, g] = [[1.0]]
sym[a, g] = [[0.5 - 0.25j]]
sym[g, a] = [[0.5 + 0.25j]]
top = symbol_operator(sym, t)
back = extract_symbol(top, 3)
print("coefficients recovered with max difference", back.max_difference(sym))
index = t.basis_index
print("single coefficient read:", top.blocks(index(a), index(g))[0, 0])

print("\n=== evaluation at a matrix point ===")
x = PolyballPoint.from_scalars([[0.3, 0.1], [0.4]])
print("F(x) =", evaluate_symbol(sym, x)[0, 0])

print("\n=== norms at scaled creations grow with the scale ===")
grid = [0.1 * i for i in range(1, 10)]
norms = norm_on_grid(sym, t, grid)
for r, nrm in zip(grid, norms):
    print(f"  r = {r:.1f}  ||F(rS)|| = {nrm:.6f}")

print("\n=== evaluating back at creations reproduces the operator ===")
re_eval = evaluate_symbol(back, creation_point(t))
print("max difference against the original matrix:",
      np.abs(re_eval - top.dense()).max())
