import itertools
import re
import warnings

import numpy as np
import pytest

from opgraph.linalg import max_abs
from opgraph.weyl import fourier_basis, weyl_monomial

from reference import (
    WeylLabelPair,
    dagger,
    hs_inner,
    is_unitary,
    label,
    label_adjoint,
    label_mul,
    label_pow,
    pair_adjoint,
    pair_dense,
    pair_monomial,
    weyl_dense,
    word_table,
    x_matrix,
    z_matrix,
)
from conftest import in_fourier


def omega(n: int) -> complex:
    return np.exp(2j * np.pi / n)


def test_fourier_basis_trivial():
    assert np.array_equal(fourier_basis(1), np.ones((1, 1)))


def test_fourier_basis_two():
    f = fourier_basis(2)
    assert np.allclose(f[:, 0], np.array([1, 1]) / np.sqrt(2), atol=1e-15)
    assert np.allclose(f[:, 1], np.array([1, -1]) / np.sqrt(2), atol=1e-15)


def test_fourier_basis_orthonormal():
    f = fourier_basis(5)
    assert max_abs(dagger(f) @ f - np.eye(5)) < 1e-12


def test_fourier_basis_rejects_zero():
    with pytest.raises(ValueError):
        fourier_basis(0)


@pytest.mark.parametrize("n", range(1, 9))
def test_fourier_basis_equals_the_grid_formula(n):
    # the basis as it was formed from np.meshgrid's two index grids
    j, k = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    assert np.array_equal(fourier_basis(n), np.exp(2j * np.pi * (j * k % n) / n) / np.sqrt(n))


@pytest.mark.parametrize("n", [2.5, 3.0, np.float64(4), True, "3"])
def test_n_that_is_not_an_integer_is_rejected(n):
    # 2.5 would give a 3 x 3 matrix that is not unitary, True a 1 x 1 one
    message = re.escape(f"requires an integer n (got n={n!r})")
    with pytest.raises(ValueError, match=message):
        fourier_basis(n)
    with pytest.raises(ValueError, match=message):
        weyl_monomial(np.array([1]), np.array([1]), n)


@pytest.mark.parametrize("n", [0, -2])
def test_n_below_one_is_rejected(n):
    # the check comes before the table of roots, where n=0 would divide by
    # zero and n=-2 index an empty table
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("weyl_monomial needs n >= 1")):
            weyl_monomial(np.array([1]), np.array([1]), n)
        with pytest.raises(ValueError, match=re.escape("fourier_basis needs n >= 1")):
            fourier_basis(n)


def test_numpy_integer_n_is_an_integer():
    assert np.array_equal(fourier_basis(np.int64(5)), fourier_basis(5))
    got, want = weyl_monomial(np.array([1]), np.array([2]), np.int32(3)), weyl_monomial(np.array([1]), np.array([2]), 3)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_x_diagonal_and_z_eigenvectors():
    for n in range(2, 7):
        f = fourier_basis(n)
        x = x_matrix(n)
        z = z_matrix(n)
        w = omega(n)
        assert max_abs(x - np.diag(np.diag(x))) == 0.0
        for j in range(n):
            assert np.linalg.norm(z @ f[:, j] - w**j * f[:, j]) < 1e-12


def test_shift_property():
    # X moves each Fourier vector to the next one, cyclically
    for n in range(2, 9):
        f = fourier_basis(n)
        x = x_matrix(n)
        for j in range(n):
            assert np.linalg.norm(x @ f[:, j] - f[:, (j + 1) % n]) < 1e-12


def test_weyl_dense_identity_label():
    for n in (1, 2, 5):
        assert max_abs(weyl_dense(label(n, 0, 0)) - np.eye(n)) == 0.0


def test_weyl_dense_x_at_two():
    assert np.allclose(weyl_dense(label(2, 1, 0)), np.diag([1, -1]), atol=1e-15)


def test_weyl_dense_matches_matrix_powers():
    for n in (2, 3, 4, 5):
        x = x_matrix(n)
        z = z_matrix(n)
        for kx in range(n):
            for kz in range(n):
                word = np.linalg.matrix_power(x, kx) @ np.linalg.matrix_power(z, kz)
                assert max_abs(weyl_dense(label(n, kx, kz)) - word) < 1e-12
                for ph in (1, n - 1):
                    scaled = omega(n) ** ph * word
                    assert max_abs(weyl_dense(label(n, kx, kz, ph)) - scaled) < 1e-12


def test_weyl_dense_unitary():
    for n in (2, 3, 5, 8):
        for kx in range(n):
            for kz in range(n):
                assert is_unitary(weyl_dense(label(n, kx, kz, kz)))


def test_weyl_dense_stack_matches_singles():
    # the batched realizer gives each word of a stack as it gives it alone,
    # and that scatters to the product of the single-factor weyl_dense of
    # the factors' Fourier-basis labels
    for n in (2, 5, 9):
        labels = [label(n, kx, kz, (kx * kz) % n) for kx in range(n) for kz in range(n)]
        pairs = [WeylLabelPair(a, b) for a, b in zip(labels, reversed(labels))]
        rows, vals = pair_monomial(word_table(pairs), n)
        cols = np.arange(n * n)
        for i, p in enumerate(pairs):
            single_rows, single_vals = pair_monomial(word_table([p]), n)
            assert np.array_equal(rows[i], single_rows[0])
            assert np.array_equal(vals[i], single_vals[0])
            dense = np.zeros((n * n, n * n), dtype=complex)
            dense[rows[i], cols] = vals[i]
            fourier = in_fourier(p)
            assert np.array_equal(dense, np.kron(weyl_dense(fourier.left), weyl_dense(fourier.right)))


def test_pair_monomial_scatters_to_pair_dense():
    # every tensor word with every pair of phases, exactly: the Fourier
    # product basis realization is pair_dense of the Fourier-basis labels
    for n in (3, 4, 5):
        words = itertools.product(range(n), repeat=6)
        pairs = [WeylLabelPair(label(n, a, b, c), label(n, d, e, f)) for a, b, c, d, e, f in words]
        rows, vals = pair_monomial(word_table(pairs), n)
        assert rows.shape == vals.shape == (len(pairs), n * n)
        cols = np.arange(n * n)
        for p, r, v in zip(pairs, rows, vals):
            dense = np.zeros((n * n, n * n), dtype=complex)
            dense[r, cols] = v
            assert np.array_equal(dense, pair_dense(in_fourier(p)))


def test_weyl_monomial_scatters_to_weyl_dense():
    # every single-factor word, exactly: the Fourier-basis realization
    # F^dag W F is weyl_dense of the word's Fourier-basis label
    for n in (2, 3, 4, 5):
        kx, kz = np.array(list(itertools.product(range(n), repeat=2))).T
        rows, vals = weyl_monomial(kx, kz, n)
        assert rows.shape == vals.shape == (n**2, n)
        cols = np.arange(n)
        for a, b, r, v in zip(kx.tolist(), kz.tolist(), rows, vals):
            dense = np.zeros((n, n), dtype=complex)
            dense[r, cols] = v
            assert np.array_equal(dense, weyl_dense(in_fourier(label(n, a, b))))


def test_in_fourier_is_conjugation_by_the_fourier_basis():
    # the test-side label map against the dense conjugation F^dag W F, for
    # every word and phase
    for n in (2, 3, 4, 5):
        f = fourier_basis(n)
        for kx, kz, phase in itertools.product(range(n), repeat=3):
            a = label(n, kx, kz, phase)
            assert max_abs(weyl_dense(in_fourier(a)) - dagger(f) @ weyl_dense(a) @ f) < 1e-12


def test_weyl_monomial_reduces_its_input():
    # unreduced and negative exponents realize as their residues mod n
    kx, kz = np.array([7, -3, 0]), np.array([-1, 9, -8])
    got = weyl_monomial(kx, kz, 4)
    want = weyl_monomial(kx % 4, kz % 4, 4)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_weyl_monomial_needs_factor_table():
    # two exponent arrays of one shape (G,); a (G, 3) table with a phase
    # column is no longer taken
    with pytest.raises(ValueError, match="exponent arrays"):
        weyl_monomial(np.zeros((2, 3), dtype=int), np.zeros((2, 3), dtype=int), 3)
    with pytest.raises(ValueError, match="exponent arrays"):
        weyl_monomial(np.zeros(2, dtype=int), np.zeros(3, dtype=int), 3)
    rows, vals = weyl_monomial(np.zeros(0, dtype=int), np.zeros(0, dtype=int), 3)
    assert rows.shape == vals.shape == (0, 3)


def test_pair_monomial_needs_pairs():
    with pytest.raises(ValueError, match="word table"):
        pair_monomial([], 3)
    with pytest.raises(ValueError, match="word table"):
        pair_monomial(np.zeros((2, 4), dtype=int), 3)
    rows, vals = pair_monomial(word_table([]), 3)
    assert rows.shape == vals.shape == (0, 9)


def test_heisenberg_weyl_commutation_dense():
    # the commutation phase exp(2 pi i (m k' - k m')/n), checked densely for
    # every exponent quadruple
    for n in range(2, 6):
        w = omega(n)
        dense = {(k, m): weyl_dense(label(n, k, m)) for k in range(n) for m in range(n)}
        for k in range(n):
            for m in range(n):
                for kp in range(n):
                    for mp in range(n):
                        lhs = dense[(k, m)] @ dense[(kp, mp)]
                        rhs = w ** ((m * kp - k * mp) % n) * (dense[(kp, mp)] @ dense[(k, m)])
                        assert max_abs(lhs - rhs) < 1e-12


def test_label_mul_commutation():
    out = label_mul(label(3, 0, 1), label(3, 1, 0))
    assert (out.kx, out.kz, out.phase) == (1, 1, 1)


def test_label_mul_cyclic_inverse():
    n = 5
    out = label_mul(label(n, 1, 0), label(n, n - 1, 0))
    assert (out.kx, out.kz, out.phase) == (0, 0, 0)


def test_label_mul_identity_unit():
    a = label(4, 2, 3, 1)
    out = label_mul(a, label(4, 0, 0))
    assert out == a
    assert label_mul(label(4, 0, 0), a) == a


def test_label_mul_mismatched_n():
    with pytest.raises(ValueError):
        label_mul(label(3, 1, 0), label(4, 1, 0))


def test_label_pow_small_cases():
    a = label(4, 1, 3, 2)
    assert label_pow(a, 1) == a
    squared = label_pow(label(2, 1, 1), 2)
    assert (squared.kx, squared.kz, squared.phase) == (0, 0, 1)
    nth = label_pow(label(6, 1, 0), 6)
    assert (nth.kx, nth.kz, nth.phase) == (0, 0, 0)


def test_label_pow_exponent_pattern():
    # (X Z^k)^s carries exponents (s, k*s)
    for n in (3, 4, 7):
        for k in range(n):
            for s in range(n):
                out = label_pow(label(n, 1, k), s)
                assert (out.kx, out.kz) == (s % n, (k * s) % n)


def test_label_pow_large_exponent_matches_repeated_products():
    for n in (4, 7):
        a = label(n, 3, 2, 1)
        s = 10 * n + 3
        repeated = label(n, 0, 0)
        for _ in range(s):
            repeated = label_mul(repeated, a)
        assert label_pow(a, s) == repeated
        assert max_abs(weyl_dense(label_pow(a, s)) - np.linalg.matrix_power(weyl_dense(a), s)) < 1e-12


def test_label_adjoint_cases():
    assert label_adjoint(label(3, 0, 0)) == label(3, 0, 0)
    adj = label_adjoint(label(5, 1, 0))
    assert (adj.kx, adj.kz, adj.phase) == (4, 0, 0)
    adj = label_adjoint(label(3, 1, 1))
    assert (adj.kx, adj.kz, adj.phase) == (2, 2, 1)
    assert max_abs(weyl_dense(adj) - dagger(weyl_dense(label(3, 1, 1)))) < 1e-12


def test_label_algebra_matches_dense():
    # products, powers, and adjoints of random labels agree with the dense
    # computation entrywise
    rng = np.random.default_rng(20240917)
    for n in range(2, 10):
        for _ in range(1000):
            a = label(n, int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(n)))
            b = label(n, int(rng.integers(n)), int(rng.integers(n)), int(rng.integers(n)))
            s = int(rng.integers(0, n + 2))
            da, db = weyl_dense(a), weyl_dense(b)
            assert max_abs(weyl_dense(label_mul(a, b)) - da @ db) < 1e-12
            assert max_abs(weyl_dense(label_adjoint(a)) - dagger(da)) < 1e-12
            assert max_abs(weyl_dense(label_pow(a, s)) - np.linalg.matrix_power(da, s)) < 1e-12


def test_distinct_labels_hs_orthogonal():
    for n in (2, 3, 4, 5):
        words = [label(n, kx, kz) for kx in range(n) for kz in range(n)]
        dense = [weyl_dense(a) for a in words]
        for i, a in enumerate(words):
            for j, b in enumerate(words):
                value = hs_inner(dense[i], dense[j])
                if i == j:
                    assert value == pytest.approx(n)
                else:
                    assert abs(value) < 1e-10 * n


def test_equal_exponents_inner_product_is_phase():
    n = 5
    a = label(n, 2, 3, 1)
    b = label(n, 2, 3, 4)
    value = hs_inner(weyl_dense(a), weyl_dense(b))
    expected = n * omega(n) ** ((a.phase - b.phase) % n)
    assert value == pytest.approx(expected)


def test_pair_dense_and_adjoint():
    p = WeylLabelPair(label(3, 1, 2), label(3, 0, 1, 2))
    expected = np.kron(weyl_dense(p.left), weyl_dense(p.right))
    assert max_abs(pair_dense(p) - expected) == 0.0
    assert max_abs(pair_dense(pair_adjoint(p)) - dagger(pair_dense(p))) < 1e-12


def test_pair_requires_equal_factor_dims():
    with pytest.raises(ValueError):
        WeylLabelPair(label(2, 0, 0), label(3, 0, 0))
