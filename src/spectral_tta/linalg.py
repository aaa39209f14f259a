"""Dense float64 linear algebra primitives.

Everything here operates on plain 2-D ``numpy`` arrays of float64 (the
"matrix" carrier used throughout the package). The SVD is a cyclic
one-sided Jacobi method: accurate for small singular values and fully
deterministic thanks to a fixed pair order and a fixed sign convention.
It runs once per call, on the rows of the input's short side (the input
itself if it is wide, its transpose otherwise), and returns what PCA
reads: the nonzero singular values and their right singular vectors.
A rotation is only elementwise float64 multiplies and adds (no fused
multiply-add; one ddot per pair, batched through matmul), so the SVD
equals the textbook per-pair loop kept in ``tests/test_linalg.py`` bit for bit.
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


def _ddots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[r] @ b[r]`` for each row r, by one BLAS ddot per row (matmul's vector-vector path)."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _wavefronts(m: int) -> list[tuple[slice, slice]]:
    """The pairs (i, j), i < j, of m rows as fronts of constant i + j = t,
    in increasing t: rows ``work[lo:hi]`` pair with ``work[t-lo : t-hi : -1]``."""
    bounds = [(t, max(0, t - m + 1), (t + 1) // 2) for t in range(1, 2 * m - 2)]
    return [(slice(lo, hi), slice(t - lo, t - hi, -1)) for t, lo, hi in bounds]


def _jacobi_rows(x: np.ndarray, rotation: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Orthogonalize the rows of ``x`` (m x n, m <= n) by Jacobi rotations.

    Returns (x_rotated, rot) where ``x_rotated = rot @ x`` has mutually
    orthogonal rows and ``rot`` is orthogonal (m x m); ``rot`` is accumulated
    only if ``rotation`` is set, and is None otherwise.

    A sweep visits the pairs (i, j) in cyclic row order. The pair is skipped
    when either row is zero or when |a_ij| / sqrt(a_ii * a_jj) is at most
    ``OFFDIAG_TOL``; otherwise rows i and j of ``[x | rot]`` are rotated
    together. A sweep whose largest such ratio is within the tolerance ends
    the iteration. It runs as the ``2m - 3`` ``_wavefronts``: in cyclic order
    pair (i, j) reads only what (i, j-1) and (i-1, j) wrote, so the pairs with
    i + j = t can run once front t - 1 is done, and as they share no row, one
    numpy step rotates them all with the per-pair loop's float64 operations.
    """
    m, n = x.shape
    # rows of [x | rot]: one rotation updates both halves in one pass
    work = np.hstack([x, np.eye(m)]) if rotation else x.copy()
    # a_ii of each row; a row's entry is recomputed (the same dot on the
    # same data) right after the row is rotated, so it always matches
    norms = _ddots(work[:, :n], work[:, :n])
    fronts = _wavefronts(m)
    # a_ii * a_jj may underflow (a ratio |a_ij| / 0 = inf) and zeta * zeta overflow (t = +-0)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(MAX_SWEEPS):
            off = 0.0
            for rows_i, rows_j in fronts:
                ri, rj = work[rows_i], work[rows_j]
                aii, ajj = norms[rows_i], norms[rows_j]
                aij = _ddots(ri[:, :n], rj[:, :n])
                rel = np.abs(aij) / np.sqrt(aii * ajj)
                # a zero row or an exactly orthogonal pair is skipped
                rel[(aii == 0.0) | (ajj == 0.0) | (aij == 0.0)] = 0.0
                off = max(off, float(rel.max()))
                turn = np.flatnonzero(rel > OFFDIAG_TOL)
                if len(turn) == 0:
                    continue
                if len(turn) < len(rel):
                    rows_i, rows_j = rows_i.start + turn, rows_j.start - turn
                    ri, rj, aii, ajj, aij = ri[turn], rj[turn], aii[turn], ajj[turn], aij[turn]
                zeta = (ajj - aii) / (2.0 * aij)
                t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.sqrt(1.0 + zeta * zeta))
                t[zeta == 0.0] = 1.0  # also for zeta = -0.0, where copysign gives -1
                c = (1.0 / np.sqrt(1.0 + t * t))[:, None]
                s = c * t[:, None]
                new_i, new_j = c * ri - s * rj, s * ri + c * rj
                work[rows_i], work[rows_j] = new_i, new_j
                norms[rows_i] = _ddots(new_i[:, :n], new_i[:, :n])
                norms[rows_j] = _ddots(new_j[:, :n], new_j[:, :n])
            if off <= OFFDIAG_TOL:
                return (work[:, :n], work[:, n:]) if rotation else (work, None)
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
    x, rot = _jacobi_rows(a if wide else a.T, rotation=not wide)
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
