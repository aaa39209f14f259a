"""Executable check that ridge regression equals spectrally filtered OLS.

The closed-form ridge solution (X'X + g I)^-1 X'Y can be rewritten as
U' F U theta_ols where U diagonalizes C = X'X and F is diagonal with
F_ii = d_i / (d_i + g), d_i the eigenvalues of C. Both routes are
implemented independently and compared on random problems; this grounds
the relu-ridge filter as per-mode ridge shrinkage.

Note the naming trap: the d_i here are eigenvalues of C, i.e. squared
singular values of X, not the singular values themselves.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ContractViolationError, RankDeficientError

# largest relative deviation between the two solvers that passes
TOLERANCE = 1e-8


@dataclass(frozen=True)
class RegressionProblem:
    x: np.ndarray      # (n, d)
    y: np.ndarray      # (n, k)
    gamma: float

    def __post_init__(self):
        x = linalg.as_matrix(self.x, "x")
        y = linalg.as_matrix(self.y, "y")
        if x.shape[0] != y.shape[0]:
            raise ContractViolationError(
                f"x has {x.shape[0]} rows, y has {y.shape[0]}"
            )
        if self.gamma < 0:
            raise ContractViolationError("gamma must be >= 0")


def _check_conditioning(s: np.ndarray, gamma: float, d: int) -> None:
    if gamma == 0.0 and (len(s) < d or s[-1] ** 2 <= d * np.finfo(float).eps * s[0] ** 2):
        raise RankDeficientError(
            "X'X is singular and gamma == 0; the system has no unique solution"
        )


def ridge_closed_form(p: RegressionProblem) -> np.ndarray:
    """theta = (X'X + gamma I)^-1 X'Y via a linear solve."""
    x = np.asarray(p.x, dtype=np.float64)
    y = np.asarray(p.y, dtype=np.float64)
    d = x.shape[1]
    s = np.linalg.svd(x, compute_uv=False)
    _check_conditioning(s, p.gamma, d)
    lhs = x.T @ x + p.gamma * np.eye(d)
    return np.linalg.solve(lhs, x.T @ y)


def spectral_ridge(p: RegressionProblem) -> np.ndarray:
    """Ridge solution assembled from the eigenbasis of C = X'X.

    Uses the package's own SVD of X: eigenvalues of C are the squared
    singular values and the eigenvectors are the right singular vectors.
    """
    x = np.asarray(p.x, dtype=np.float64)
    y = np.asarray(p.y, dtype=np.float64)
    d = x.shape[1]
    res = linalg.svd(x)
    _check_conditioning(res.s, p.gamma, d)
    evals = res.s**2                   # eigenvalues of C, descending
    vt = res.vt                        # rows: eigenvectors of C
    # OLS in the eigenbasis, then per-mode shrinkage d_i / (d_i + gamma),
    # composed as f_i / d_i = 1 / (d_i + gamma). The SVD leaves out the
    # zero modes of a rank-deficient X, which contribute nothing.
    coords = vt @ (x.T @ y)
    return vt.T @ (coords / (evals[:, None] + p.gamma))


def verify_equivalence(trials: int, seed: int) -> dict:
    """Compare both solvers on random well-conditioned problems.

    Returns a JSON-ready report; ``passed`` is False if any trial's
    relative deviation exceeds ``TOLERANCE``.
    """
    if trials < 1:
        raise ContractViolationError("trials must be >= 1")
    if seed < 0:
        raise ContractViolationError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    gammas = [0.01, 0.1, 1.0, 10.0]
    worst = 0.0
    results = []
    for trial in range(trials):
        n = int(rng.integers(8, 33))
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, 4))
        x = rng.normal(size=(n, d))
        y = rng.normal(size=(n, k))
        gamma = gammas[trial % len(gammas)]
        prob = RegressionProblem(x=x, y=y, gamma=gamma)
        a = ridge_closed_form(prob)
        b = spectral_ridge(prob)
        dev = float(
            np.linalg.norm(a - b) / max(np.linalg.norm(a), np.finfo(float).tiny)
        )
        worst = max(worst, dev)
        results.append({"trial": trial, "n": n, "d": d, "k": k, "gamma": gamma, "relative_deviation": dev})
    return {
        "trials": trials,
        "seed": seed,
        "tolerance": TOLERANCE,
        "max_relative_deviation": worst,
        "passed": worst <= TOLERANCE,
        "results": results,
    }
