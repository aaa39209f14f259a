"""Learnable diagonal filters acting in a PCA score space.

Two parametric forms are provided, both keyed to the fitted singular
values lam_i and a learnable vector gamma:

* relu-ridge:  F_ii = lam_i / (lam_i + relu(gamma_i)),   F_ii in (0, 1]
* neg-exp:     F_ii = 1 / (1 + exp(gamma_i^2 - lam_i)),  F_ii in (0, 1)

``apply_filter`` runs the full project -> scale -> reconstruct map and
returns a cache for the analytic backward pass. The reconstruction may be
given as any pair (out_components, out_offset) in place of (V, mean): a
frozen affine map after the filter, composed with V and mean once, then
costs no extra work per call.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .pca import PcaBasis

RELU_RIDGE = "relu-ridge"
NEG_EXP = "neg-exp"
KINDS = (RELU_RIDGE, NEG_EXP)

# keep the neg-exp diagonal inside the open interval (0, 1) even where the
# sigmoid saturates in float64
_FLOOR = np.finfo(np.float64).tiny
_CEIL = np.nextafter(1.0, 0.0)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class SpectralFilter:
    """Diagonal filter with learnable ``gamma``, one entry per PCA mode."""

    def __init__(self, kind: str, lambda_ref: np.ndarray, gamma: np.ndarray | None = None):
        if kind not in KINDS:
            raise ContractViolationError(f"unknown filter kind {kind!r}")
        lambda_ref = np.asarray(lambda_ref, dtype=np.float64)
        if lambda_ref.ndim != 1 or not np.all(lambda_ref > 0):
            raise ContractViolationError("lambda_ref must be a strictly positive vector")
        if gamma is None:
            gamma = np.zeros_like(lambda_ref)
        gamma = np.asarray(gamma, dtype=np.float64).copy()
        if gamma.shape != lambda_ref.shape:
            raise ContractViolationError(
                f"gamma shape {gamma.shape} != lambda_ref shape {lambda_ref.shape}"
            )
        if not np.all(np.isfinite(gamma)):
            raise ContractViolationError("gamma must be finite")
        self.kind = kind
        self.lambda_ref = lambda_ref.copy()
        self.gamma = gamma

    def __len__(self) -> int:
        return len(self.gamma)

    def diag(self) -> np.ndarray:
        """Current diagonal values F_ii."""
        if self.kind == RELU_RIDGE:
            return self.lambda_ref / (self.lambda_ref + np.maximum(self.gamma, 0.0))
        f = _sigmoid(self.lambda_ref - self.gamma**2)
        return np.clip(f, _FLOOR, _CEIL)

    def diag_grad(self) -> np.ndarray:
        """dF_ii / dgamma_i at the current gamma.

        For relu-ridge the subgradient at gamma == 0 is taken as 0.
        """
        if self.kind == RELU_RIDGE:
            g = np.where(
                self.gamma > 0,
                -self.lambda_ref / (self.lambda_ref + np.maximum(self.gamma, 0.0)) ** 2,
                0.0,
            )
            return g
        f = _sigmoid(self.lambda_ref - self.gamma**2)
        return -2.0 * self.gamma * f * (1.0 - f)


@dataclass
class FilterCache:
    """Forward-pass intermediates needed by :func:`apply_filter_backward`."""

    basis: PcaBasis
    filt: SpectralFilter
    scores: np.ndarray  # (m, L), pre-filter projections
    diag: np.ndarray    # (L,), F values used in the forward pass
    out_components: np.ndarray  # (L, q), the reconstruction rows


def apply_filter(
    basis: PcaBasis,
    filt: SpectralFilter,
    features: np.ndarray,
    out_components: np.ndarray | None = None,
    out_offset: np.ndarray | None = None,
) -> tuple[np.ndarray, FilterCache]:
    """Project features onto the basis, scale each mode, reconstruct.

    Returns (output, cache). Output is
    (features - mean) @ V.T * F @ out_components + out_offset, where the
    reconstruction defaults to (V, mean), so that an all-ones diagonal on
    a full-rank basis is an exact identity.
    """
    features = np.asarray(features, dtype=np.float64)
    if features.ndim != 2 or features.shape[1] != basis.p:
        raise ContractViolationError(
            f"features shape {features.shape} incompatible with basis p={basis.p}"
        )
    if len(filt) != basis.rank:
        raise ContractViolationError(
            f"filter length {len(filt)} != basis rank {basis.rank}"
        )
    if out_components is None:
        out_components, out_offset = basis.components, basis.mean
    centered = features - basis.mean
    scores = centered @ basis.components.T
    diag = filt.diag()
    out = (scores * diag) @ out_components + out_offset
    return out, FilterCache(
        basis=basis, filt=filt, scores=scores, diag=diag, out_components=out_components
    )


def apply_filter_backward(
    cache: FilterCache, upstream_grad: np.ndarray, need_input_grad: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Backward pass through :func:`apply_filter`.

    Returns (gamma_grad, input_grad) for the loss whose gradient w.r.t.
    the filter output is ``upstream_grad``; ``input_grad`` is ``None``
    when ``need_input_grad`` is false.
    """
    upstream_grad = np.asarray(upstream_grad, dtype=np.float64)
    expected = (cache.scores.shape[0], cache.out_components.shape[1])
    if upstream_grad.shape != expected:
        raise ContractViolationError(
            f"upstream gradient shape {upstream_grad.shape} does not match "
            f"the cached forward pass {expected}"
        )
    gscores = upstream_grad @ cache.out_components.T  # (m, L)
    gamma_grad = cache.filt.diag_grad() * np.sum(cache.scores * gscores, axis=0)
    if not need_input_grad:
        return gamma_grad, None
    input_grad = (gscores * cache.diag) @ cache.basis.components
    return gamma_grad, input_grad
