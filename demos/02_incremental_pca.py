"""Streaming PCA and the quality of low-rank reconstructions.

Shows that the incremental fit over mini-batches recovers the same
spectrum as a one-shot fit, and that the retained subspace beats random
subspaces of the same size at reconstruction (the Eckart-Young property).

Run with:  python3 demos/02_incremental_pca.py
"""

import numpy as np

from spectral_tta import pca
from spectral_tta.linalg import svd

rng = np.random.default_rng(1)

# Data with a planted spectrum so the comparison is easy to read.
spectrum = np.array([8.0, 5.0, 3.0, 1.5, 0.8, 0.4])
data = rng.normal(size=(600, 6)) @ np.diag(spectrum)

# --- one-shot vs streamed fit --------------------------------------------
batch = pca.fit(data, rank=6)
streamed = pca.fit_incremental(np.array_split(data, 20), rank=6)
print("one-shot singular values:", np.round(batch.singular_values, 3))
print("streamed singular values:", np.round(streamed.singular_values, 3))
print("max relative gap:",
      np.abs(batch.singular_values - streamed.singular_values).max()
      / batch.singular_values.max())

# The streamed fit only ever holds a rank x p factorization in memory,
# never the whole stream.

# --- reconstruction error vs rank ------------------------------------------
print("\nreconstruction error by rank (PCA vs best of 50 random subspaces):")
centered = data - data.mean(axis=0)
for rank in [1, 2, 3, 4, 5]:
    b = pca.fit(data, rank=rank)
    rec = pca.inverse_transform(b, pca.transform(b, data))
    pca_err = np.linalg.norm(rec - data)
    rand_best = np.inf
    for _ in range(50):
        q, _r = np.linalg.qr(rng.normal(size=(6, rank)))
        rand_best = min(rand_best, np.linalg.norm(centered @ q @ q.T - centered))
    print(f"  rank {rank}: pca {pca_err:8.3f}   best random {rand_best:8.3f}")

# --- the in-house Jacobi SVD agrees with numpy -------------------------------
a = rng.normal(size=(30, 6))
ours = svd(a)
ref = np.linalg.svd(a, compute_uv=False)
print("\nJacobi vs LAPACK singular values, max abs gap:",
      np.abs(ours.s - ref).max())
