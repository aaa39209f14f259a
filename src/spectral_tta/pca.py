"""PCA on flattened feature maps: fitting, transform/inverse transform,
rank truncation, and the basis file (an npz archive, read and written by
the archive module like a model checkpoint).

There is one fit path, the incremental (streaming) one: it keeps only a
running mean plus a rank-L factor (singular values and right singular
vectors), so its memory footprint is O(L * p) regardless of how many
samples stream through. The batch fit is its one-batch case,
``fit_incremental([x], rank)``.
"""

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from . import archive, linalg
from .errors import ContractViolationError, EmptyBasisError

# singular values at or below this are treated as zero and dropped
SV_DROP_THRESHOLD = 1e-12

# a basis file is an archive of the _ARRAYS, with the _SPEC values in its spec
BASIS_FORMAT_VERSION = 2
_ARRAYS = ("mean", "components", "singular_values")
_SPEC = ("n_fitted", "insert_index", "model_hash")

# largest |V V^T - I| entry a basis file may have; a fitted basis measures
# about 1e-12
ORTHONORMAL_TOL = 1e-8


@dataclass(frozen=True)
class PcaBasis:
    """A fitted, immutable PCA basis.

    ``components`` holds the top right singular vectors as rows (L x p);
    ``singular_values`` are the matching singular values of the centered
    training matrix, all strictly positive. A basis fitted on a model's
    features records where: the adapter position whose input the fit read
    (``insert_index``) and the model's ``weight_hash()`` (``model_hash``).
    """

    mean: np.ndarray
    components: np.ndarray
    singular_values: np.ndarray
    n_fitted: int
    insert_index: int | None = None
    model_hash: str | None = None

    @property
    def p(self) -> int:
        return self.components.shape[1]

    @property
    def rank(self) -> int:
        return self.components.shape[0]

    def save(self, path) -> None:
        spec = {"version": BASIS_FORMAT_VERSION, **{key: getattr(self, key) for key in _SPEC}}
        archive.write(path, spec, {name: getattr(self, name) for name in _ARRAYS})

    @classmethod
    def load(cls, path) -> "PcaBasis":
        """Read a basis written by :meth:`save` (see :func:`archive.read`);
        a failed check raises ContractViolationError naming the file."""
        spec, arrays = archive.read(path, "basis file", BASIS_FORMAT_VERSION)
        try:
            mean, comp, sv = (np.asarray(arrays[name], dtype=np.float64) for name in _ARRAYS)
            n_fitted = spec["n_fitted"]
        except KeyError as exc:
            raise archive.invalid("basis file", path, f"no entry {exc}") from exc
        # the spec is parsed JSON, whose integers are exactly int (a bool is not)
        insert_index = spec.get("insert_index")
        rank, p = comp.shape if comp.ndim == 2 else (0, 0)
        problem = None
        if rank < 1 or p < 1:
            problem = f"components have shape {comp.shape}, expected rank x p, both >= 1"
        elif not (type(n_fitted) is int and n_fitted >= max(2, rank)):
            # a fit takes at least two samples and keeps at most that many modes
            problem = f"n_fitted must be an integer >= max(2, rank), got {n_fitted!r}"
        elif not (insert_index is None or type(insert_index) is int and insert_index >= 0):
            problem = f"insert_index must be null or an integer >= 0, got {insert_index!r}"
        elif mean.shape != (p,):
            problem = f"mean has shape {mean.shape}, expected (p,) = {(p,)}"
        elif sv.shape != (rank,):
            problem = f"singular values have shape {sv.shape}, expected (rank,) = {(rank,)}"
        elif not (np.all(sv > 0) and np.all(np.diff(sv) <= 0)):
            problem = "singular values must be positive and non-increasing"
        else:
            residual = np.max(np.abs(comp @ comp.T - np.eye(rank)))
            if residual > ORTHONORMAL_TOL:
                problem = f"component rows are not orthonormal (max |V V^T - I| = {residual:.1e})"
        if problem is not None:
            raise archive.invalid("basis file", path, problem)
        return cls(mean, comp, sv, n_fitted, insert_index, spec.get("model_hash"))


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
