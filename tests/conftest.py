import subprocess
import sys

import numpy as np
import pytest

from opgraph.linalg import DEFAULT_TOL, _rank_of_grams
from reference import WeylLabel, WeylLabelPair, _discs, label


def run_cli(*args: str) -> subprocess.CompletedProcess:
    """Run the CLI in a subprocess, capturing real stdout/stderr bytes."""
    return subprocess.run(
        [sys.executable, "-m", "opgraph.cli", *args],
        capture_output=True,
        timeout=600,
    )


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_complex(rng, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def gram_rank(ops, tol=DEFAULT_TOL) -> int:
    """Reference rank of a family of equal-sized square matrices: the
    dimension of its span, from the Hermitian PSD Gram matrix of pairwise
    Hilbert-Schmidt inner products with eigenvalues counted above
    ``tol.relative`` times the largest one, through _rank_of_grams as a
    single block bounded by its own Gershgorin discs. The result is invariant
    under permutations of the family and under rescaling any entry by a
    nonzero scalar. An empty family has rank 0."""
    if len(ops) == 0:
        return 0
    stack = np.asarray(ops, dtype=complex)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise ValueError(f"gram_rank needs equal square matrices, got shape {stack.shape[1:]}")
    gram = row_gram(stack.reshape(len(stack), -1))
    lo, hi = _discs(gram)
    return _rank_of_grams([lo], [hi], [len(gram)], lambda i: gram, tol)


def row_gram(rows: np.ndarray) -> np.ndarray:
    """Gram matrix of the rows, or of the columns when there are fewer: the
    spectra of F F^dag and F^dag F coincide on nonzero eigenvalues."""
    if rows.shape[0] <= rows.shape[1]:
        return rows @ rows.conj().T
    return rows.conj().T @ rows


def in_fourier(a):
    """The label of F^dag W F for the word W of a label, or of each factor of
    a pair, with F = fourier_basis(n). Since F^dag X F = Z^-1 and
    F^dag Z F = X, w^p X^a Z^b maps to w^p Z^-a X^b = w^(p - ab) X^b Z^-a.
    So weyl_dense of the result is the word's Fourier-basis realization."""
    if isinstance(a, WeylLabelPair):
        return WeylLabelPair(in_fourier(a.left), in_fourier(a.right))
    assert isinstance(a, WeylLabel)
    return label(a.n, a.kz, -a.kx, a.phase - a.kx * a.kz)
