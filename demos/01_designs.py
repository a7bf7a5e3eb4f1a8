"""Build each assignment-matrix family and run its validator."""
import numpy as np

import gradcoding as gc

# Symmetric-design transpose from a planar difference set. The row-shift
# construction makes every row a cyclic translate of the base set.
diff_set = gc.search_planar_difference_set(7)
print(f"planar difference set mod 7: {diff_set}")
A = gc.bibd_transpose_from_difference_set(diff_set, 7)
print(f"bibd transpose: k={A.k} n={A.n} delta={A.delta} gamma={A.gamma}")
report = gc.validate_bibd(A.mat, A.params)
print(f"  valid={report.ok}: {[name for name, _, _ in report.checks]}")

# Larger instance from the shipped table.
builtin = gc.builtin_difference_sets()
print(f"shipped difference sets: v in {sorted(builtin)}")
A91 = gc.bibd_transpose_from_difference_set(builtin[91], 91)
print(f"(91,91,10,10,1) built, gram check: "
      f"{np.array_equal(A91.mat.T @ A91.mat, 9 * np.eye(91) + np.ones((91, 91)))}")

# Quadratic-residue graph adjacency. Needs a prime = 1 mod 4.
S = gc.srg_paley(13)
print(f"\npaley(13) adjacency: n={S.n} delta={S.delta} "
      f"lam={S.params.lam} mu={S.params.mu}")
print(f"  valid={gc.validate_srg(S.mat, S.params).ok}")

# Coset bipartite graph: k rows over n = m*k group elements; the matrix is
# m identical circulant blocks, invertible when k = p^a with p not
# dividing delta.
params = gc.CosetParams(k=27, m=2, delta=5, generating_set=(0, 1, 2, 3, 4))
C = gc.coset_bipartite(params)
print(f"\ncoset graph: k={C.k} n={C.n} delta={C.delta} gamma={C.gamma}, "
      f"base invertible={gc.coset_is_invertible_base(params)}")
bad = gc.CosetParams(k=4, m=2, delta=2, generating_set=(0, 1))
print(f"negative control k=4 gen={{0,1}}: "
      f"base invertible={gc.coset_is_invertible_base(bad)}")

# Random bi-regular graph by stub pairing.
R = gc.biregular_random(n=40, k=20, delta=3, gamma=6, seed=11)
print(f"\nbi-regular: k={R.k} n={R.n}, column sums all "
      f"{int(R.mat.sum(axis=0)[0])}, row sums all {int(R.mat.sum(axis=1)[0])}")
