from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opgraph.linalg import ABSOLUTE_TOL, RELATIVE_TOL, _rank_of_grams, max_abs

from reference import _discs, dagger, hs_inner, is_unitary, label, orthonormalize, weyl_dense
from conftest import gram_rank, random_complex, row_gram

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, 1j], [-1j, 0]], dtype=complex)


def test_tolerance_constants():
    assert (ABSOLUTE_TOL, RELATIVE_TOL) == (1e-12, 1e-9)


def test_hs_inner_identity():
    for n in (2, 3, 7):
        assert hs_inner(np.eye(n), np.eye(n)) == pytest.approx(n)


def test_hs_inner_pauli_pair():
    assert abs(hs_inner(SX, SY)) < 1e-15


def test_hs_inner_clock_shift_orthogonal():
    x = weyl_dense(label(3, 1, 0))
    z = weyl_dense(label(3, 0, 1))
    assert abs(hs_inner(x, z)) < 1e-14


def test_hs_inner_shape_mismatch():
    with pytest.raises(ValueError):
        hs_inner(np.eye(2), np.eye(3))
    with pytest.raises(ValueError):
        hs_inner(np.ones((2, 3)), np.ones((2, 3)))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 5))
def test_hs_inner_conjugate_symmetric_and_positive(seed, n):
    rng = np.random.default_rng(seed)
    a = random_complex(rng, n, n)
    b = random_complex(rng, n, n)
    assert hs_inner(a, b) == pytest.approx(np.conj(hs_inner(b, a)))
    self_product = hs_inner(a, a)
    assert abs(self_product.imag) < 1e-12
    assert self_product.real >= 0


def test_hs_inner_linear_first_argument(rng):
    a = random_complex(rng, 3, 3)
    b = random_complex(rng, 3, 3)
    c = random_complex(rng, 3, 3)
    lhs = hs_inner(2.0 * a + 1j * b, c)
    rhs = 2.0 * hs_inner(a, c) + 1j * hs_inner(b, c)
    assert lhs == pytest.approx(rhs)


def test_gram_rank_single_and_multiples(rng):
    assert gram_rank([np.eye(4)]) == 1
    a = random_complex(rng, 3, 3)
    assert gram_rank([a, 2 * a, 1j * a]) == 1


def test_gram_rank_clock_powers():
    x = weyl_dense(label(3, 1, 0))
    assert gram_rank([np.eye(3), x, x @ x]) == 3


def test_gram_rank_empty_and_mismatch():
    assert gram_rank([]) == 0
    with pytest.raises(ValueError):
        gram_rank([np.eye(2), np.eye(3)])


def test_gram_rank_permutation_and_scaling_invariant(rng):
    ops = [random_complex(rng, 3, 3) for _ in range(5)]
    base = gram_rank(ops)
    for _ in range(10):
        perm = rng.permutation(len(ops))
        scales = random_complex(rng, len(ops))
        scales += np.sign(scales.real + 1e-3)  # keep away from zero
        scaled = [scales[i] * ops[p] for i, p in enumerate(perm)]
        assert gram_rank(scaled) == base


def test_gram_rank_bounded_by_count_and_dimension(rng):
    for count, n in ((3, 2), (6, 2), (10, 3)):
        ops = [random_complex(rng, n, n) for _ in range(count)]
        assert gram_rank(ops) <= min(count, n * n)


def test_gram_rank_zero_family():
    assert gram_rank([np.zeros((2, 2))]) == 0


def rank_of_rows(blocks):
    """Rank of row blocks with pairwise disjoint supports: the rank core
    over each block's Gram matrix, bounded by its own Gershgorin discs."""
    grams = [row_gram(b) for b in blocks]
    lo, hi = np.array([_discs(g) for g in grams]).reshape(-1, 2).T
    return _rank_of_grams(lo, hi, [len(g) for g in grams], grams.__getitem__)


def test_rank_of_rows_thresholds_blocks_against_global_max():
    # disjoint supports; the small block alone has full rank, but its
    # eigenvalue 1e-12 falls below 1e-9 of the large block's
    large = np.array([[1, 1j, 0, 0], [1, -1j, 0, 0]])
    small = np.array([[0, 0, 1e-6, 0]])
    assert rank_of_rows([small]) == 1
    assert rank_of_rows([large, small]) == 2
    # each block is certified against the largest upper bound of all, in
    # whatever order the blocks come: small, first, is not certified against
    # its own bound, and is eigensolved against the final cutoff
    assert rank_of_rows([small, large]) == 2
    assert rank_of_rows([np.vstack([large, small])]) == 2
    assert rank_of_rows([]) == 0


def test_rank_of_rows_never_certifies_a_near_dependent_block():
    # the diagonal alone clears the cutoff, but the discs reach below zero
    nearly_parallel = np.array([[1, 1, 0], [1 + 1e-13, 1, 0]], dtype=complex)
    assert rank_of_rows([nearly_parallel]) == 1


def test_rank_of_rows_eigensolves_only_uncertified_blocks(monkeypatch):
    dependent = np.array([[1, 1, 0, 0, 0, 0], [2, 2, 0, 0, 0, 0]], dtype=complex)
    orthogonal = np.array([[0, 0, 1, 1j, 0, 0], [0, 0, 1, -1j, 0, 0]])
    solved = []
    eigvalsh = np.linalg.eigvalsh

    def counting_eigvalsh(gram):
        solved.append(gram.shape[0])
        return eigvalsh(gram)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
    assert rank_of_rows([orthogonal, dependent]) == 3
    assert solved == [2]
    assert rank_of_rows([np.vstack([orthogonal, dependent])]) == 3


@st.composite
def psd_blocks(draw):
    """A family of Hermitian PSD blocks, each U diag(eigs) U^dag for a
    unitary U that mixes the basis not at all, a little or fully, so that
    some blocks are certified by their discs and some are not. Every
    eigenvalue is 0 or in [1e-6, 1], so none lies near the rank cutoff."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = []
    for _ in range(draw(st.integers(1, 6))):
        eigs = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=5))
        mix = draw(st.sampled_from([0.0, 1e-3, 1.0]))
        u, _ = np.linalg.qr(np.eye(len(eigs)) + mix * random_complex(rng, len(eigs), len(eigs)))
        block = (u * eigs) @ u.conj().T
        blocks.append((block + block.conj().T) / 2)
    return blocks


def _rank_and_formed(blocks):
    """_rank_of_grams over the blocks with their own discs, the blocks it
    formed, and how often it ran eigvalsh."""
    lo, hi = np.array([_discs(b) for b in blocks]).T
    formed = []

    def form(i):
        formed.append(i)
        return blocks[i]

    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        rank = _rank_of_grams(lo, hi, [len(b) for b in blocks], form)
    return rank, formed, eigvalsh.call_count


@settings(max_examples=150, deadline=None, derandomize=True)
@given(psd_blocks(), st.data())
def test_rank_of_grams_matches_a_plain_eigensolve(blocks, data):
    whole = np.zeros((sum(map(len, blocks)),) * 2, dtype=complex)
    at = 0
    for block in blocks:
        whole[at : at + len(block), at : at + len(block)] = block
        at += len(block)
    eigs = np.linalg.eigvalsh(whole)
    rank, formed, solves = _rank_and_formed(blocks)
    assert rank == np.count_nonzero(eigs > RELATIVE_TOL * max(eigs[-1], 0.0))
    # a block is formed and eigensolved once exactly when its lower bound
    # does not clear the cutoff of the largest upper bound of all
    lo, hi = np.array([_discs(b) for b in blocks]).T
    assert formed == np.flatnonzero(lo <= RELATIVE_TOL * hi.max()).tolist()
    assert solves == len(formed)
    order = data.draw(st.permutations(range(len(blocks))))
    assert _rank_and_formed([blocks[i] for i in order])[0] == rank


def test_orthonormalize_two_product_vectors():
    f_plus = np.kron(np.array([1, 0]), np.array([1, 1]))
    f_minus = np.kron(np.array([0, 1]), np.array([1, -1]))
    assert np.linalg.norm(f_plus) == pytest.approx(np.sqrt(2))
    out = orthonormalize([f_plus, f_minus])
    assert len(out) == 2
    assert np.linalg.norm(out[0]) == pytest.approx(1.0)
    assert abs(np.vdot(out[0], out[1])) < 1e-14


def test_orthonormalize_duplicate_and_zero(rng):
    v = random_complex(rng, 4)
    assert len(orthonormalize([v, v])) == 1
    assert orthonormalize([np.zeros(4)]) == []


def test_orthonormalize_columns_are_isometry(rng):
    vectors = [random_complex(rng, 6) for _ in range(4)]
    basis = np.column_stack(orthonormalize(vectors))
    assert max_abs(dagger(basis) @ basis - np.eye(basis.shape[1])) < ABSOLUTE_TOL


def test_orthonormalize_preserves_span(rng):
    vectors = [random_complex(rng, 5) for _ in range(3)]
    basis = np.column_stack(orthonormalize(vectors))
    # every input vector must be reproduced by its projection onto the basis
    for v in vectors:
        assert np.linalg.norm(basis @ (dagger(basis) @ v) - v) < 1e-10


def test_is_unitary():
    assert is_unitary(np.eye(3))
    assert is_unitary(weyl_dense(label(5, 2, 3, 1)))
    assert not is_unitary(2 * np.eye(3))
    assert not is_unitary(np.ones((2, 3)))
