"""Encode, erase workers, decode, and compare against the exact aggregate.

Workers hold delta data subsets each and transmit one scalar combination
per gradient block; with reduction factor m they send d/m-length vectors.
"""
import numpy as np

import gradcoding as gc

A = gc.bibd_transpose_from_difference_set([0, 1, 3], 7)
m = 2

# Random-diagonal encoding: block i is A @ D_i with random +/-1 diagonals.
B = gc.encode_random_diagonal(A, m, gc.DiagonalLaw(epsilon=0.0), seed=1)
print(f"encoding shape {B.mat.shape} for k={A.k}, n={A.n}, m={m}")

for s in (0, 2, 4):
    rng = np.random.default_rng(s)
    members = tuple(sorted(rng.choice(A.n, size=A.n - s, replace=False).tolist()))
    workers = gc.NonStragglerSet(n=A.n, members=members)
    dec = gc.decode(B, workers)
    bound = gc.bound_expected(A, workers, m, gc.compute_c(0.0))
    print(f"s={s}: err={dec.err:.4f}, expected-error bound={bound.value:.4f}")

# The decoded combination drives gradient aggregation: reconstruct splits
# the k per-subset gradients into m blocks, applies B R, and stacks the
# blocks back into one vector.
rng = np.random.default_rng(7)
partials = rng.standard_normal((A.k, 10))
exact = partials.sum(axis=0)
workers = gc.NonStragglerSet(n=A.n, members=tuple(range(1, A.n)))
approx, gap = gc.reconstruct(partials, B, workers)
print(f"\naggregate gradient: relative gap "
      f"{np.linalg.norm(approx - exact) / np.linalg.norm(exact):.4f} "
      f"with one straggler")

# Null-space construction: exact recovery whenever nobody straggles.
BR = gc.biregular_random(n=40, k=20, delta=3, gamma=6, seed=11)
H = gc.encode_nullspace_hadamard(BR, 2, gc.V1_ALL_ONES, constrain_pm1=True, seed=0)
full = gc.NonStragglerSet.full(BR.n)
print(f"\nnull-space encoding on (40,20,3,6): full-set err = "
      f"{gc.decode(H, full).err:.2e}, pm1 vector found = "
      f"{H.randomness.pm1_found}")
