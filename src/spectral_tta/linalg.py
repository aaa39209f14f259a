"""Dense float64 linear algebra primitives.

Everything here operates on plain 2-D ``numpy`` arrays of float64 (the
"matrix" carrier used throughout the package). The SVD is a cyclic
one-sided Jacobi method: accurate for small singular values and fully
deterministic thanks to a fixed pair order and a fixed sign convention.
It runs once per call, on the rows of the input's short side (the input
itself if it is wide, its transpose otherwise), and returns what PCA
reads: the nonzero singular values and their right singular vectors.
A rotation is only elementwise float64 multiplies and adds (no fused
multiply-add, no batched dot products), so the results equal those of
the textbook per-pair loop kept in ``tests/test_linalg.py`` bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, NumericalFailureError

# Jacobi sweep budget and the off-diagonal threshold that counts as
# "columns are orthogonal".
MAX_SWEEPS = 100
OFFDIAG_TOL = 1e-12

# an input whose largest entry lies outside [2**-EXP_LIMIT, 2**EXP_LIMIT] is
# scaled by a power of two first, so that products of squared row norms
# neither overflow nor underflow; inside that range the input is used as is
EXP_LIMIT = 200


@dataclass(frozen=True)
class SvdResult:
    """Compact SVD of an (n, m) matrix ``a``: ``a = a @ vt.T @ vt`` and the
    columns of ``a @ vt.T`` have norms ``s``, in exact arithmetic. No left factor is formed."""

    s: np.ndarray   # (k,), the k <= min(n, m) nonzero singular values, non-increasing
    vt: np.ndarray  # (k, m), their right singular vectors, orthonormal rows


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert ``a`` to a finite 2-D float64 array."""
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ContractViolationError(f"{name} must be 2-D, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ContractViolationError(f"{name} must be non-empty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ContractViolationError(f"{name} contains non-finite entries")
    return a


def _jacobi_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonalize the rows of ``x`` (m x n, m <= n) by Jacobi rotations.

    Returns (x_rotated, rot) where ``x_rotated = rot @ x`` has mutually
    orthogonal rows and ``rot`` is orthogonal (m x m).

    Pairs (i, j) are visited in cyclic row order. The pair is skipped when
    either row is zero or when |a_ij| / sqrt(a_ii * a_jj) is at most
    ``OFFDIAG_TOL``; otherwise rows i and j of ``[x | rot]`` are rotated
    together. A sweep whose largest such ratio is within the tolerance ends
    the iteration.
    """
    m, n = x.shape
    # rows of [x | rot]: one rotation updates both halves in one pass
    work = np.empty((m, n + m))
    work[:, :n] = x
    work[:, n:] = np.eye(m)
    xs = [row[:n] for row in work]
    # a_ii of each row; a row's entry is recomputed (the same dot on the
    # same data) right after the row is rotated, so it always matches
    norms = [float(v.dot(v)) for v in xs]
    coef_i = np.empty((2, 1))
    coef_j = np.empty((2, 1))
    part_i = np.empty((2, n + m))
    part_j = np.empty((2, n + m))
    for _ in range(MAX_SWEEPS):
        off = 0.0
        for i in range(m - 1):
            xi = xs[i]
            for j in range(i + 1, m):
                aii = norms[i]
                ajj = norms[j]
                if aii == 0.0 or ajj == 0.0:
                    continue
                xj = xs[j]
                aij = float(xi.dot(xj))
                # exactly orthogonal: the ratio is 0 (or 0/0 if a_ii * a_jj
                # underflows)
                if aij == 0.0:
                    continue
                d = math.sqrt(aii * ajj)
                rel = abs(aij) / d if d else math.inf
                if rel > off:
                    off = rel
                if rel <= OFFDIAG_TOL:
                    continue
                zeta = (ajj - aii) / (2.0 * aij)
                if zeta == 0.0:
                    t = 1.0
                else:
                    sign = 1.0 if zeta > 0.0 else -1.0
                    t = sign / (abs(zeta) + math.sqrt(1.0 + zeta * zeta))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = c * t
                # rows i, j <- (c*ri - s*rj, s*ri + c*rj), as c*ri + (-s)*rj,
                # which is the same float64 result
                coef_i[0, 0] = c
                coef_i[1, 0] = s
                coef_j[0, 0] = -s
                coef_j[1, 0] = c
                np.multiply(coef_i, work[i], out=part_i)
                np.multiply(coef_j, work[j], out=part_j)
                np.add(part_i, part_j, out=work[i : j + 1 : j - i])
                norms[i] = float(xi.dot(xi))
                norms[j] = float(xj.dot(xj))
        if off <= OFFDIAG_TOL:
            return work[:, :n].copy(), work[:, n:].copy()
    raise NumericalFailureError(
        f"Jacobi SVD did not converge in {MAX_SWEEPS} sweeps "
        f"(off-diagonal residual {off:.3e})",
        residual=float(off),
    )


def svd(a: np.ndarray) -> SvdResult:
    """Deterministic compact SVD by one-sided Jacobi.

    Only the modes with a nonzero singular value are returned, sorted
    descending. Each right singular vector is oriented so its
    largest-magnitude entry is positive (ties resolved by lowest index),
    which fixes the otherwise arbitrary signs. An input of extreme scale
    (see ``EXP_LIMIT``) is decomposed as ``a * 2**-e`` and its singular
    values are scaled back by ``2**e``. Both scalings are exact for every
    entry that stays out of the subnormal range.
    """
    a = as_matrix(a)
    n, m = a.shape
    _, e = math.frexp(float(np.abs(a).max()))
    if abs(e) <= EXP_LIMIT:
        e = 0
    a = np.ldexp(a, -e)
    wide = n < m
    # Jacobi orthogonalizes rows, so it runs on the min(n, m) rows of the
    # short side
    x, rot = _jacobi_rows(a if wide else a.T)
    # x = rot @ a (or a.T) with rot orthogonal: row k of x is s_k times a
    # long-side singular vector (its norm is s_k), row k of rot the
    # matching short-side one
    norms = np.sqrt(np.einsum("ij,ij->i", x, x))
    order = np.argsort(-norms, kind="stable")
    keep = order[norms[order] > 0.0]
    s = norms[keep]
    vt = x[keep] / s[:, None] if wide else rot[keep]
    sign = np.where(vt[np.arange(len(s)), np.argmax(np.abs(vt), axis=1)] < 0.0, -1.0, 1.0)
    return SvdResult(s=np.ldexp(s, e), vt=vt * sign[:, None])
