"""Dense complex linear algebra: the library's two thresholds and the
tolerance-based rank of block-diagonal Gram matrices.

Everything here works on plain numpy arrays of dtype complex128. Matrices are
2-d arrays, vectors 1-d. All functions are pure.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

# the library's two thresholds: ABSOLUTE_TOL bounds the residual of a
# quantity that is exactly zero in the constructions, and RELATIVE_TOL is a
# rank cutoff, as a fraction of the largest Gram eigenvalue
ABSOLUTE_TOL = 1e-12
RELATIVE_TOL = 1e-9


def max_abs(a: np.ndarray) -> float:
    """Entrywise max-norm, as a plain float. Zero for empty arrays."""
    return float(np.max(np.abs(a), initial=0.0))


def _rank_of_grams(lo, hi, order, form: Callable[[int], np.ndarray]) -> int:
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
    lo > RELATIVE_TOL * max(hi) is certified full rank and never formed;
    every other block is formed and eigensolved once. Every eigenvalue is
    thresholded at RELATIVE_TOL * Lambda, with Lambda the largest of the
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
    certified = lo > RELATIVE_TOL * hi.max()
    eigs = [np.linalg.eigvalsh(form(i)) for i in np.flatnonzero(~certified)]
    top = max([hi.max(initial=0.0, where=certified), *(e[-1] for e in eigs)])
    if top <= 0.0:
        return 0
    cut = RELATIVE_TOL * top
    return int(np.sum(np.asarray(order)[certified])) + sum(int(np.count_nonzero(e > cut)) for e in eigs)
