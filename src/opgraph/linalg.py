"""Dense complex linear algebra: tolerance-based rank of block-diagonal Gram
matrices.

Everything here works on plain numpy arrays of dtype complex128. Matrices are
2-d arrays, vectors 1-d. All functions are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds: `absolute` for residuals of quantities that are
    exactly zero in the constructions, `relative` for rank cutoffs (applied to
    the largest Gram eigenvalue)."""

    absolute: float = 1e-12
    relative: float = 1e-9

    def __post_init__(self):
        # nan would fail every residual check and inf pass every one
        if not 0 < self.absolute < np.inf:
            raise ValueError(f"absolute tolerance must satisfy 0 < absolute < inf, got {self.absolute}")
        # a rank cutoff at or above lambda_max drops every eigenvalue
        if not 0 < self.relative < 1:
            raise ValueError(f"relative tolerance must satisfy 0 < relative < 1, got {self.relative}")


DEFAULT_TOL = Tolerance()


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-norm, as a plain float. Zero for empty arrays."""
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a)))


def _rank_of_grams(lo, hi, order, form: Callable[[int], np.ndarray], tol: Tolerance) -> int:
    """Rank of a block-diagonal Hermitian PSD Gram matrix given block by
    block, such as the Gram matrix of a family of matrices whose supports
    fall into pairwise disjoint classes.

    lo, hi and order hold one entry per block: bounds lo <= lambda <= hi on
    every eigenvalue of block i, and its order; form(i) forms block i. The
    anticlique verdict passes its one block's PSD bounds [0, trace], which
    never certify; the graph oracle passes products of its row patterns'
    Gershgorin discs, which bound every principal submatrix of a Kronecker
    product of two pattern Grams.

    The spectrum is the union of the block spectra. A block with
    lo > tol.relative * max(hi) is certified full rank and never formed;
    every other block is formed and eigensolved once. Every eigenvalue is
    thresholded at tol.relative * Lambda, with Lambda the largest of the
    certified blocks' hi and the eigensolved blocks' top eigenvalues. Lambda
    is an upper bound on lambda_max and at most max(hi), so a certified block
    clears the cutoff. When the block with the largest hi is certified, as
    every block of every construction is, Lambda = max(hi). Otherwise Lambda
    may lie below max(hi); both are upper bounds on lambda_max, and the ranks
    thresholded against the two differ only by eigenvalues that lie between
    the two cutoffs.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    if len(hi) == 0:
        return 0
    certified = lo > tol.relative * hi.max()
    eigs = [np.linalg.eigvalsh(form(i)) for i in np.flatnonzero(~certified)]
    top = max([hi.max(initial=0.0, where=certified), *(e[-1] for e in eigs)])
    if top <= 0.0:
        return 0
    cut = tol.relative * top
    return int(np.sum(np.asarray(order)[certified])) + sum(int(np.count_nonzero(e > cut)) for e in eigs)
