"""PCA on flattened feature maps: fitting, transform/inverse transform,
rank truncation, and serialization.

There is one fit path, the incremental (streaming) one: it keeps only a
running mean plus a rank-L factor (singular values and right singular
vectors), so its memory footprint is O(L * p) regardless of how many
samples stream through. The batch fit ``fit`` is its one-batch case.
"""

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from . import linalg
from .errors import ContractViolationError, EmptyBasisError

# singular values at or below this are treated as zero and dropped
SV_DROP_THRESHOLD = 1e-12

BASIS_FORMAT_VERSION = 1

# largest |V V^T - I| entry a basis file may have; a fitted basis measures
# about 1e-12
ORTHONORMAL_TOL = 1e-8


@dataclass(frozen=True)
class PcaBasis:
    """A fitted, immutable PCA basis.

    ``components`` holds the top right singular vectors as rows (L x p);
    ``singular_values`` are the matching singular values of the centered
    training matrix, all strictly positive.
    """

    mean: np.ndarray
    components: np.ndarray
    singular_values: np.ndarray
    n_fitted: int

    @property
    def p(self) -> int:
        return self.components.shape[1]

    @property
    def rank(self) -> int:
        return self.components.shape[0]

    def save(self, path) -> None:
        payload = {
            "version": BASIS_FORMAT_VERSION,
            "p": self.p,
            "rank": self.rank,
            "n_fitted": self.n_fitted,
            "mean": self.mean.tolist(),
            "singular_values": self.singular_values.tolist(),
            "components": self.components.ravel().tolist(),
        }
        # json writes floats with repr, which round-trips float64 exactly
        with open(path, "w") as fh:
            json.dump(payload, fh)

    @classmethod
    def load(cls, path) -> "PcaBasis":
        if not Path(path).is_file():
            raise FileNotFoundError(f"PCA basis file not found: {path}")

        def invalid(problem):
            return ContractViolationError(f"invalid basis file {path}: {problem}")

        try:
            with open(path) as fh:
                payload = json.load(fh)
            version = payload.get("version")
        except (ValueError, AttributeError, RecursionError) as exc:
            # not JSON, JSON nested deeper than the parser recurses, or JSON
            # whose top level is not an object
            raise invalid(f"not a basis file ({exc!r})") from exc
        if version != BASIS_FORMAT_VERSION:
            raise invalid(f"unsupported version {version!r}, expected {BASIS_FORMAT_VERSION}")
        try:
            p, rank, n_fitted = payload["p"], payload["rank"], payload["n_fitted"]
            mean, sv, comp = (
                np.asarray(payload[key], dtype=np.float64)
                for key in ("mean", "singular_values", "components")
            )
        except KeyError as exc:
            raise invalid(f"no key {exc}") from exc
        except (ValueError, TypeError) as exc:
            raise invalid(f"entries that are not numbers ({exc!r})") from exc

        def count(value, least):
            return isinstance(value, int) and not isinstance(value, bool) and value >= least

        problem = None
        if not (count(p, 1) and count(rank, 1)):
            problem = f"p and rank must be positive integers, got p={p!r}, rank={rank!r}"
        elif not count(n_fitted, max(2, rank)):
            # a fit takes at least two samples and keeps at most that many modes
            problem = f"n_fitted must be an integer >= max(2, rank), got {n_fitted!r}"
        elif comp.shape != (rank * p,):
            problem = f"{comp.size} component entries, expected rank * p = {rank * p}"
        elif mean.shape != (p,):
            problem = f"{mean.size} mean entries, expected p = {p}"
        elif sv.shape != (rank,):
            problem = f"{sv.size} singular values, expected rank = {rank}"
        elif not all(np.all(np.isfinite(a)) for a in (mean, sv, comp)):
            problem = "non-finite entries"
        elif not (np.all(sv > 0) and np.all(np.diff(sv) <= 0)):
            problem = "singular values must be positive and non-increasing"
        else:
            v = comp.reshape(rank, p)
            residual = np.max(np.abs(v @ v.T - np.eye(rank)))
            if residual > ORTHONORMAL_TOL:
                problem = f"component rows are not orthonormal (max |V V^T - I| = {residual:.1e})"
        if problem is not None:
            raise invalid(problem)
        return cls(
            mean=mean, components=comp.reshape(rank, p), singular_values=sv, n_fitted=n_fitted
        )


def fit(features: np.ndarray, rank: int) -> PcaBasis:
    """Fit PCA on an N x p matrix, keeping at most ``rank`` components.

    Components with singular value at or below the drop threshold are
    discarded, so the effective rank can be lower than requested.
    """
    features = linalg.as_matrix(features, "features")
    if len(features) < 2:
        raise ContractViolationError(f"need at least 2 samples to fit, got {len(features)}")
    return fit_incremental([features], rank)


def fit_incremental(batches: Iterable[np.ndarray], rank: int) -> PcaBasis:
    """Fit PCA from a stream of row batches in O(rank * p) memory.

    Per batch, the retained factor diag(s) @ Vt is stacked with the
    centered new rows plus a mean-correction row, and re-decomposed (Ross
    et al., IJCV 2008). The first batch is decomposed on its own, so one
    batch gives the batch fit. More batches reproduce the one-batch fit of
    all their rows exactly whenever no variance is lost to the rank
    truncation, and closely otherwise.
    """
    if rank < 1:
        raise ContractViolationError(f"rank must be >= 1, got {rank}")
    mean = None
    n = 0
    p = None
    for batch in batches:
        batch = linalg.as_matrix(batch, "batch")
        if p is None:
            p = batch.shape[1]
            if rank > p:
                raise ContractViolationError(f"rank must be in [1, p={p}], got {rank}")
        elif batch.shape[1] != p:
            raise ContractViolationError(
                f"inconsistent feature count: expected {p}, got {batch.shape[1]}"
            )
        m = batch.shape[0]
        bmean = batch.mean(axis=0)
        if n == 0:
            mean = bmean
            stack = batch - bmean
        else:
            total = n + m
            corr = np.sqrt(n * m / total) * (mean - bmean)
            # with no mode kept yet, the factor block is empty and adds no row
            stack = np.vstack([s[:, None] * vt, batch - bmean, corr[None, :]])
            mean = (n * mean + m * bmean) / total
        res = linalg.svd(stack)
        keep = min(rank, int(np.sum(res.s > SV_DROP_THRESHOLD)))
        s = res.s[:keep].copy()
        vt = res.vt[:keep].copy()
        n += m
    if n < 2:
        raise ContractViolationError(f"need at least 2 samples in total, got {n}")
    if rank > n:
        raise ContractViolationError(f"rank must be in [1, min(n={n}, p={p})], got {rank}")
    if len(s) == 0:
        raise EmptyBasisError("all singular values below drop threshold")
    return PcaBasis(mean=mean, components=vt, singular_values=s, n_fitted=n)


def transform(basis: PcaBasis, x: np.ndarray) -> np.ndarray:
    """Project rows of x onto the basis: (x - mean) @ components.T."""
    x = linalg.as_matrix(x, "x")
    if x.shape[1] != basis.p:
        raise ContractViolationError(
            f"x has {x.shape[1]} columns, basis expects {basis.p}"
        )
    return (x - basis.mean) @ basis.components.T


def inverse_transform(basis: PcaBasis, scores: np.ndarray) -> np.ndarray:
    """Map scores back to feature space: scores @ components + mean."""
    scores = linalg.as_matrix(scores, "scores")
    if scores.shape[1] != basis.rank:
        raise ContractViolationError(
            f"scores have {scores.shape[1]} columns, basis rank is {basis.rank}"
        )
    return scores @ basis.components + basis.mean
