"""Truncated Fock tensor products and their creation operators.

Walks through basis enumeration, the matrix-free creation action, adjoints,
and the exactness windows on which truncated identities hold with zero error.
"""

import numpy as np

from polyball import (
    FockTruncation,
    apply_creation,
    creation_matrix,
    identity_multiword,
    multiword,
    word_operator,
)

print("=== a two-factor truncation ===")
t = FockTruncation(n=[2, 1], degrees=[3, 3])
print(t)
print("first basis words:", [t.basis_word(i) for i in range(6)])



def basis_vector(mw):
    """Amplitude column (dim, 1) of the basis word mw."""
    v = np.zeros((t.dim, 1), dtype=complex)
    v[t.basis_index(mw)] = 1.0
    return v


print("\n=== creation operators act by prepending (left) or appending (right) ===")
vac = basis_vector(identity_multiword(t.n))
v = apply_creation(t, "left", 1, 2, False, vac)
hit = int(np.flatnonzero(np.abs(v[:, 0]) > 0)[0])
print("S_{1,2} vacuum =", t.basis_word(hit))
v = apply_creation(t, "left", 1, 1, False, v)
hit = int(np.flatnonzero(np.abs(v[:, 0]) > 0)[0])
print("S_{1,1} S_{1,2} vacuum =", t.basis_word(hit), "(letters pile up in front)")

w = apply_creation(t, "left", 1, 1, True, v)
hit = int(np.flatnonzero(np.abs(w[:, 0]) > 0)[0])
print("the adjoint strips the leading letter:", t.basis_word(hit))

print("\n=== truncation compresses the top degree ===")
top = basis_vector(multiword([[1, 1, 1], []], t.n))
print("creating on a degree-3 word gives norm",
      float(np.linalg.norm(apply_creation(t, "left", 1, 1, False, top))))

print("\n=== identities are exact on windows ===")
win = t.window_mask([1, 1])
s1 = creation_matrix(t, "left", 1, 1)
s2 = creation_matrix(t, "left", 1, 2)
gram = s1.conj().T @ s2
sel = np.ix_(win, win)
print("max |S_{1,1}* S_{1,2}| on the budget-1 window:", np.abs(gram[sel]).max())
gram = s1.conj().T @ s1 - np.eye(t.dim)
print("max |S_{1,1}* S_{1,1} - I| on the same window:", np.abs(gram[sel]).max())

print("\n=== word monomials are assembled as exact compressions ===")
a = multiword([[1], [1]], t.n)
b = multiword([[2], []], t.n)
op = word_operator(t, a, b)
print("S_a S_b* for a =", a, ", b =", b, "has",
      int(np.count_nonzero(op.dense())), "unit entries")
