"""Dense complex linear algebra: Kronecker products, Hilbert-Schmidt inner
products, tolerance-based rank of operator families, and orthonormalization.

Everything here works on plain numpy arrays of dtype complex128. Matrices are
2-d arrays, vectors 1-d. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "kron",
    "dagger",
    "hs_inner",
    "gram_rank",
    "orthonormalize",
    "max_abs",
    "is_unitary",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds: `absolute` for residuals of quantities that are
    exactly zero in the constructions, `relative` for rank cutoffs (applied to
    the largest Gram eigenvalue)."""

    absolute: float = 1e-12
    relative: float = 1e-9

    def __post_init__(self):
        if self.absolute <= 0 or self.relative <= 0:
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerance()


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices (or vectors, as 1-column blocks)."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-norm, as a plain float. Zero for empty arrays."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def is_unitary(m: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> bool:
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    return max_abs(m @ dagger(m) - np.eye(m.shape[0])) < tol.absolute


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product trace(a @ dagger(b)).

    Conjugate-symmetric and linear in the first argument. Both matrices must
    be square and of equal dimension.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"hs_inner needs equal square matrices, got {a.shape} and {b.shape}")
    # trace(a b^dag) = sum_ij a_ij conj(b_ij)
    return complex(np.sum(a * b.conj()))


def gram_rank(ops: Sequence[np.ndarray] | np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Dimension of the span of a family of equal-sized square matrices.

    Builds the Hermitian PSD Gram matrix of pairwise Hilbert-Schmidt inner
    products and counts eigenvalues above ``tol.relative`` times the largest
    one. The result is invariant under permutations of the family and under
    rescaling any entry by a nonzero scalar. An empty family has rank 0.
    """
    if len(ops) == 0:
        return 0
    stack = np.asarray(ops, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"gram_rank needs equal square matrices, got shape {stack.shape[1:]}")
    return _rank_of_rows([stack.reshape(len(stack), -1)], tol)


def _rank_of_rows(blocks: Iterable[np.ndarray], tol: Tolerance) -> int:
    """Rank of a family of flattened matrices given as row blocks whose
    supports are pairwise disjoint, so their Gram matrix is block-diagonal.

    The spectrum is the union of the block spectra; every eigenvalue is
    thresholded against the largest one over all blocks.
    """
    eigs = [np.zeros(0)]
    for rows in blocks:
        # Gram spectra of F F^dag and F^dag F coincide on nonzero eigenvalues,
        # so use whichever side is smaller
        if rows.shape[0] <= rows.shape[1]:
            gram = rows @ rows.conj().T
        else:
            gram = rows.conj().T @ rows
        eigs.append(np.linalg.eigvalsh(gram))
    eigs = np.concatenate(eigs)
    top = eigs.max(initial=0.0)
    if top <= 0.0:
        return 0
    return int(np.sum(eigs > tol.relative * top))


def orthonormalize(vectors: list[np.ndarray], tol: Tolerance = DEFAULT_TOL) -> list[np.ndarray]:
    """Stabilized Gram-Schmidt. Returns an orthonormal family spanning the
    same subspace, processing inputs in order; vectors whose residual after
    projection falls below ``tol.absolute`` are dropped.
    """
    basis: list[np.ndarray] = []
    for v in vectors:
        w = np.asarray(v, dtype=complex).copy()
        # two projection passes keep orthogonality at roundoff level
        for _ in range(2):
            for u in basis:
                w = w - np.vdot(u, w) * u
        norm = float(np.linalg.norm(w))
        if norm < tol.absolute:
            continue
        basis.append(w / norm)
    return basis
