"""Spectral filter basics.

Fit a PCA basis to a cloud of points, then walk through the adapter's
three steps: decompose the data into PCA scores (``pca.transform``),
scale each score by a learnable diagonal filter, and reconstruct with
the basis (``apply_filter`` with ``(components, mean)``, which is
``pca.inverse_transform`` of the filtered scores). gamma=0 is an exact
identity on a full-rank basis, and growing gamma shrinks each principal
direction toward the mean.

Run with:  python3 demos/01_spectral_filter_basics.py
"""

import numpy as np

from spectral_tta import pca
from spectral_tta.filters import NEG_EXP, RELU_RIDGE, SpectralFilter, apply_filter

rng = np.random.default_rng(0)

# An anisotropic point cloud: stretched 5x along one axis.
data = rng.normal(size=(200, 4)) * np.array([5.0, 2.0, 1.0, 0.3])
basis = pca.fit_incremental([data], rank=4)
print("singular values:", np.round(basis.singular_values, 2))

# --- decompose, then filter and reconstruct; gamma = 0 is the identity ------
x = rng.normal(size=(8, 4))
scores = pca.transform(basis, x)
identity = SpectralFilter(RELU_RIDGE, basis.singular_values)  # gamma defaults to 0
out, _ = apply_filter(identity, scores, basis.components, basis.mean)
print("\ngamma = 0 drift on a full-rank basis:", np.abs(out - x).max())

# --- growing gamma shrinks toward the mean -----------------------------------
print("\nrelu-ridge diagonal as gamma grows (per-mode shrinkage):")
for g in [0.0, 1.0, 10.0, 100.0]:
    filt = SpectralFilter(RELU_RIDGE, basis.singular_values, np.full(4, g))
    print(f"  gamma = {g:6.1f}  ->  F =", np.round(filt.diag(), 4))

# High-variance modes resist shrinkage: F_i = lam_i / (lam_i + gamma), so a
# given gamma suppresses weak (likely noise-dominated) directions first.

# --- the neg-exp form saturates both ways -------------------------------------
print("\nneg-exp diagonal over gamma for the weakest mode:")
lam = basis.singular_values
for g in [0.0, 0.5, 1.0, 2.0, 4.0]:
    filt = SpectralFilter(NEG_EXP, lam, np.full(4, g))
    print(f"  gamma = {g:4.1f}  ->  F[-1] = {filt.diag()[-1]:.4f}")

# --- fully closed filter returns the mean ------------------------------------
heavy = SpectralFilter(RELU_RIDGE, lam, np.full(4, 1e9))
out, _ = apply_filter(heavy, scores, basis.components, basis.mean)
print("\ndistance to the fitted mean under extreme shrinkage:",
      np.abs(out - basis.mean).max())
