import re
import tracemalloc
from math import gcd

import numpy as np
import pytest

from opgraph import constructions
from opgraph.constructions import (
    Section4Params,
    allowed_shifts,
    baseline_bounds,
    build_code_K1,
    build_remark2,
    build_section2,
    build_section3,
    build_section4,
    claimed_dim_remark2,
    claimed_dim_section3,
    claimed_dim_section4,
    enumerate_section4_params,
)
from opgraph.graph import graph_dim, is_anticlique
from opgraph.linalg import max_abs
from opgraph.weyl import fourier_basis

from reference import (
    WeylLabelPair,
    code_from_isometry,
    compress,
    graph_from_labels,
    graph_words,
    isometry,
    label,
    label_pow,
    mask_of,
    weyl_dense,
    word_table,
    x_matrix,
    z_matrix,
)


def section3_label_count(n: int) -> int:
    # independent count: powers (X Z^k)^s carry exponents (s, ks), and for
    # fixed s the reachable Z-exponents form the subgroup of size n/gcd(n,s)
    return 2 * sum(n // gcd(n, s) for s in range(1, n)) + 1


def section4_label_count(params: Section4Params) -> int:
    # independent count by family: off-diagonal shifts contribute n^3(n-1);
    # each allowed equal shift contributes n^2 clock pairs; every other equal
    # shift contributes only the pairs with k+s off the subgroup
    n = params.n
    a_strict = len(allowed_shifts(params))
    off_subgroup_pairs = n * n - n * params.y
    return n**3 * (n - 1) + a_strict * n**2 + (n - a_strict) * off_subgroup_pairs + 1


def test_section2_shape_and_dimension():
    g, code = build_section2()
    assert g.space_dim == 4
    assert code.code_dim == 2
    assert graph_dim(g, "gram") == 5


def test_section2_generators_are_pauli_words():
    # each realized generator is its Pauli tensor word up to a unit-modulus
    # scalar, in mask order [I, I(x)sz, I(x)sy, sx(x)I, sy(x)I]: the words
    # I, I(x)X, I(x)XZ, Z(x)I and XZ(x)I at n = 2
    eye = np.eye(2)
    sx = np.array([[0, 1], [1, 0]])
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]])
    expected = [np.kron(eye, eye), np.kron(eye, sz), np.kron(eye, sy), np.kron(sx, eye), np.kron(sy, eye)]
    g, _ = build_section2()
    # with the whole space as code, S = I in the standard basis and compress
    # returns each generator
    realized = compress(g, code_from_isometry(np.eye(4, dtype=complex)))
    assert len(realized) == len(expected)
    for v, ref in zip(realized, expected):
        scale = np.vdot(ref, v) / 4
        assert abs(abs(scale) - 1) < 1e-12
        assert max_abs(v - scale * ref) < 1e-12


def test_section2_code_is_its_product_vectors():
    # the closed-form Fourier coordinates are those of e1 (x) (1,1)/sqrt(2)
    # and e2 (x) (1,-1)/sqrt(2), converted from the standard basis
    _, code = build_section2()
    e = np.eye(2)
    vectors = np.column_stack([np.kron(e[0], [1, 1]), np.kron(e[1], [1, -1])]) / np.sqrt(2)
    assert max_abs(code.fourier - code_from_isometry(vectors).fourier) < 1e-15
    assert code.basis_names == ("f+", "f-")


def test_section2_orthogonality_table():
    # all sixteen inner products <f_a, x f_b> vanish for the four error words
    g, code = build_section2()
    compressed = compress(g, code)
    for c in compressed[1:]:
        assert max_abs(c) < 1e-12


def test_section2_anticlique():
    g, code = build_section2()
    assert is_anticlique(g, code).verdict


def test_section3_small_cases():
    g3, code3 = build_section3(3)
    assert code3.code_dim == 3
    assert graph_dim(g3, "labels") == 13
    assert is_anticlique(g3, code3).verdict
    g5, _ = build_section3(5)
    assert graph_dim(g5, "labels") == 41 == claimed_dim_section3(5)


def test_section3_rejects_small_n():
    with pytest.raises(ValueError, match="n > 2"):
        build_section3(2)
    with pytest.raises(ValueError, match="n > 2"):
        build_section3(1)


def test_section3_error_words_vanish_on_code():
    # <h_j, (X Z^k)^s h_m> = 0 on either factor for every 1 <= s <= n-1
    for n in (3, 4, 5, 6):
        f = fourier_basis(n)
        h = [np.kron(f[:, j], f[:, j]) for j in range(n)]
        eye = np.eye(n)
        for k in range(n):
            base = weyl_dense(label(n, 1, k))
            power = np.eye(n, dtype=complex)
            for _ in range(1, n):
                power = power @ base
                for side in (np.kron(power, eye), np.kron(eye, power)):
                    table = np.array([[np.vdot(hj, side @ hm) for hm in h] for hj in h])
                    assert max_abs(table) < 1e-12, (n, k)


def test_section3_anticlique_through_eight():
    for n in range(3, 9):
        g, code = build_section3(n)
        assert is_anticlique(g, code).verdict, n


def test_section3_label_count_matches_independent_count():
    for n in range(3, 9):
        g, _ = build_section3(n)
        assert graph_dim(g, "labels") == section3_label_count(n)


def test_section3_oracles_agree():
    for n in range(3, 7):
        g, _ = build_section3(n)
        labels, gram = graph_dim(g, "labels"), graph_dim(g, "gram")
        assert labels == gram, n


def test_residue_set_examples():
    # shifts in [0, n), not residues mod y: at (2,4,1,2) the residues 1 and 3
    # are allowed, so the shifts 5 and 7 are too
    allowed = allowed_shifts(Section4Params(2, 4, 1, 2))
    assert allowed.dtype.kind == "i"
    assert allowed.tolist() == [1, 3, 5, 7]
    assert allowed_shifts(Section4Params(2, 2, 0, 2)).tolist() == []


def test_residue_zero_never_allowed():
    for params in enumerate_section4_params(12):
        allowed = allowed_shifts(params)
        assert np.all((allowed >= 1) & (allowed < params.n)), params


def test_residue_set_symmetric():
    # allowed shifts come in pairs m, n-m, matching adjoint closure of the
    # equal-shift family
    for params in enumerate_section4_params(12):
        allowed = allowed_shifts(params)
        assert sorted((params.n - allowed) % params.n) == allowed.tolist(), params


def test_code_k1_expected_supports():
    params = Section4Params(2, 4, 1, 2)
    code = build_code_K1(params)
    assert code.code_dim == 2
    f = fourier_basis(8)
    q1 = (np.kron(f[:, 0], f[:, 0]) + np.kron(f[:, 4], f[:, 4])) / np.sqrt(2)
    q2 = (np.kron(f[:, 2], f[:, 2]) + np.kron(f[:, 6], f[:, 6])) / np.sqrt(2)
    s = isometry(code)
    assert np.linalg.norm(s[:, 0] - q1) < 1e-12
    assert np.linalg.norm(s[:, 1] - q2) < 1e-12


def test_code_k1_orthonormal_all_params():
    for params in enumerate_section4_params(12):
        s = isometry(build_code_K1(params))
        gram = s.conj().T @ s
        assert max_abs(gram - np.eye(params.d)) < 1e-12, params


def test_code_k1_period_invariance():
    # the diagonal shift by y steps fixes every code vector exactly
    for params in enumerate_section4_params(10):
        n = params.n
        code = build_code_K1(params)
        xy = np.linalg.matrix_power(x_matrix(n), params.y)
        shift = np.kron(xy, xy)
        s = isometry(code)
        assert max_abs(shift @ s - s) < 1e-12, params


def test_allowed_shifts_move_code_off_itself():
    # a shift 1 <= m < n is allowed iff the diagonal shift by m maps every
    # code vector orthogonally to the whole code; an excluded shift maps some
    # code vector onto another one
    for params in enumerate_section4_params(12):
        n = params.n
        allowed = allowed_shifts(params).tolist()
        s = isometry(build_code_K1(params))
        x = x_matrix(n)
        for m in range(1, n):
            xm = np.linalg.matrix_power(x, m)
            shifted = np.kron(xm, xm) @ s
            overlap = max_abs(s.conj().T @ shifted)
            assert (overlap < 1e-12) == (m in allowed), (params, m, overlap)


def test_clock_words_off_subgroup_annihilate_q1():
    # <(I (x) Z^(k+s)) q1, q1> = 0 whenever k+s is not a multiple of p
    for params in enumerate_section4_params(10):
        n = params.n
        code = build_code_K1(params)
        q1 = isometry(code)[:, 0]
        z = z_matrix(n)
        for r in range(1, n):
            if r % params.p == 0:
                continue
            op = np.kron(np.eye(n), np.linalg.matrix_power(z, r))
            assert abs(np.vdot(op @ q1, q1)) < 1e-12, (params, r)


def test_section4_reference_point():
    params = Section4Params(2, 4, 1, 2)
    g, code = build_section4(params)
    assert g.space_dim == 64
    assert code.code_dim == 2
    assert graph_dim(g, "labels") == 3969
    report = is_anticlique(g, code)
    assert report.verdict
    assert report.residual < 1e-9


def test_section4_label_count_matches_independent_count():
    for params in enumerate_section4_params(9):
        g, _ = build_section4(params)
        assert graph_dim(g, "labels") == section4_label_count(params), params


def test_section4_oracles_agree_small():
    for params in enumerate_section4_params(6):
        g, _ = build_section4(params)
        labels, gram = graph_dim(g, "labels"), graph_dim(g, "gram")
        assert labels == gram, params


def test_section4_contains_section3_span():
    params = Section4Params(2, 3, 0, 2)
    g4, _ = build_section4(params)
    g3, _ = build_section3(params.n)
    combined = graph_from_labels(params.n, np.concatenate([graph_words(g4), graph_words(g3)]))
    assert np.array_equal(combined.mask, g4.mask)


def test_remark2_anticlique_and_dimension():
    for n in (3, 4):
        g, code = build_remark2(n)
        assert graph_dim(g, "labels") == claimed_dim_remark2(n) == n**3 * (n - 1) + 1
        assert is_anticlique(g, code).verdict


def test_remark2_rejects_n_below_two():
    # n = 2 is the smallest size with an off-diagonal shift and a code of
    # dimension above one
    assert build_remark2(2)[1].code_dim == 2
    for n in (1, 0, -1):
        with pytest.raises(ValueError, match=rf"requires n >= 2 \(got n={n}\)"):
            build_remark2(n)


def test_remark2_oracles_agree():
    for n in (3, 4):
        g = build_remark2(n)[0]
        labels, gram = graph_dim(g, "labels"), graph_dim(g, "gram")
        assert labels == gram, n


def test_predicted_dims_reference_values():
    assert claimed_dim_section3(3) == 13
    assert claimed_dim_section3(4) == 25  # differs from the computed 21
    params = Section4Params(2, 4, 1, 2)
    assert claimed_dim_section4(params) == 3921
    assert len(allowed_shifts(params)) == 4
    assert claimed_dim_section3(params.n) == 113


def test_params_validation_messages():
    with pytest.raises(ValueError, match=r"p >= 2"):
        Section4Params(1, 4, 1, 2)
    with pytest.raises(ValueError, match=r"y >= 2"):
        Section4Params(2, 1, 0, 2)
    with pytest.raises(ValueError, match=r"h >= 0"):
        Section4Params(2, 4, -1, 2)
    with pytest.raises(ValueError, match=r"d >= 2"):
        Section4Params(2, 2, 0, 1)
    with pytest.raises(ValueError, match=r"\(h\+1\)\(d\+1\) >= y"):
        Section4Params(2, 4, 0, 2)
    with pytest.raises(ValueError, match=r"y >= \(h\+1\)d"):
        Section4Params(2, 4, 1, 3)


@pytest.mark.parametrize(
    "build, field, value",
    [
        (lambda: build_section4(Section4Params(2.5, 4, 1, 2)), "p", "2.5"),
        (lambda: Section4Params(2, 4.0, 1, 2), "y", "4.0"),
        (lambda: Section4Params(2, 4, "1", 2), "h", "'1'"),
        (lambda: Section4Params(2, 4, 1, np.float64(2)), "d", "np.float64(2.0)"),
        (lambda: build_section3(5.0), "n", "5.0"),
        (lambda: build_remark2(3.5), "n", "3.5"),
        (lambda: Section4Params(True, 4, 1, 2), "p", "True"),
        (lambda: Section4Params(2, True, 1, 2), "y", "True"),
        (lambda: Section4Params(2, 4, True, 2), "h", "True"),
        (lambda: Section4Params(2, 4, 1, True), "d", "True"),
        (lambda: build_section3(True), "n", "True"),
        (lambda: build_remark2(True), "n", "True"),
        (lambda: enumerate_section4_params(12.5), "n_max", "12.5"),
        (lambda: enumerate_section4_params(True), "n_max", "True"),
        (lambda: baseline_bounds(16.0, 2), "dim_h", "16.0"),
        (lambda: baseline_bounds(16, True), "dim_k", "True"),
    ],
    ids=[
        "section4-p", "section4-y", "section4-h", "section4-d", "section3-n", "remark2-n",
        "section4-p-bool", "section4-y-bool", "section4-h-bool", "section4-d-bool", "section3-n-bool", "remark2-n-bool",
        "enumerate-n_max", "enumerate-n_max-bool", "bounds-dim_h", "bounds-dim_k-bool",
    ],
)
def test_non_integer_parameters_raise_value_error(build, field, value):
    # the ValueError names the field and its value, before any numpy call
    # could fail on it; bool is a numbers.Integral, but h=True would
    # otherwise build the h = 1 graph, and n_max=True would enumerate no
    # point instead of failing
    with pytest.raises(ValueError, match=re.escape(f"requires an integer {field} (got {field}={value})")):
        build()


def test_numpy_integer_parameters_are_integers():
    params = Section4Params(np.int64(2), np.int32(4), np.int64(1), np.int8(2))
    assert graph_dim(build_section4(params)[0], "labels") == 3969
    assert graph_dim(build_section3(np.int64(5))[0], "labels") == 41
    assert build_remark2(np.int64(3))[1].code_dim == 3


def test_enumerate_section4_params():
    points = enumerate_section4_params(12)
    assert Section4Params(2, 4, 1, 2) in points
    assert all(q.n <= 12 and q.d >= 2 for q in points)
    keys = [(q.n, q.p, q.y, q.h, q.d) for q in points]
    assert keys == sorted(keys)
    assert enumerate_section4_params(3) == []


def test_baseline_bounds_cases():
    assert baseline_bounds(16, 2) == {"knill_max": 2, "commutative_max": 14}
    assert baseline_bounds(81, 3) == {"knill_max": 4, "commutative_max": 39}
    assert baseline_bounds(4, 2) == {"knill_max": 1, "commutative_max": 2}
    with pytest.raises(ValueError):
        baseline_bounds(16, 1)
    with pytest.raises(ValueError):
        baseline_bounds(2, 4)


def _knill_max_by_search(dim_h, dim_k):
    """The largest v with v(v+1) <= dim_h/dim_k, found by counting up."""
    v = 0
    while (v + 1) * (v + 2) <= dim_h / dim_k:
        v += 1
    return v


def test_knill_max_closed_form_matches_the_search():
    for dim_k in range(2, 61):
        for dim_h in range(dim_k, 3000):
            assert baseline_bounds(dim_h, dim_k)["knill_max"] == _knill_max_by_search(dim_h, dim_k), (dim_h, dim_k)


# scalar reference builders: one WeylLabelPair per word, in the order the
# families are defined
def _scalar_one_sided_powers(n):
    identity = label(n, 0, 0)
    powers = [label_pow(label(n, 1, k), s) for k in range(n) for s in range(1, n)]
    return [WeylLabelPair(w, identity) for w in powers] + [WeylLabelPair(identity, w) for w in powers]


def _scalar_off_diagonal(n):
    return [
        WeylLabelPair(label(n, m, k), label(n, j, s))
        for m in range(n)
        for j in range(n)
        if m != j
        for k in range(n)
        for s in range(n)
    ]


def _scalar_section4(params):
    n = params.n
    allowed = allowed_shifts(params).tolist()
    equal = [(m, k, s) for m in range(n) for k in range(n) for s in range(n)]
    return (
        _scalar_off_diagonal(n)
        + [WeylLabelPair(label(n, m, k), label(n, m, s)) for m, k, s in equal if m >= 1 and m in allowed]
        + [WeylLabelPair(label(n, m, k), label(n, m, s)) for m, k, s in equal if (k + s) % params.p]
        + _scalar_one_sided_powers(n)
    )


def _family_mask(n, family):
    """The mask of one generator family's words, set through the (n, n, n, n)
    view of an empty mask."""
    mask = np.zeros((n * n, n * n), dtype=bool)
    family(mask.reshape(n, n, n, n))
    return mask


def test_builder_tables_match_scalar_reference():
    # each family's mask holds exactly the scalar words' phase-free
    # exponents, and each built graph is the scalar words with the identity:
    # every family is adjoint-closed, and the builder adds only the identity
    def closed(n, reference):
        mask = mask_of(n, reference)
        mask[0, 0] = True
        return mask

    for n in range(3, 7):
        reference = word_table(_scalar_one_sided_powers(n))
        assert np.array_equal(_family_mask(n, constructions._one_sided_powers), mask_of(n, reference)), n
        assert np.array_equal(build_section3(n)[0].mask, closed(n, reference)), n
    for n in range(2, 7):
        reference = word_table(_scalar_off_diagonal(n))
        assert np.array_equal(build_remark2(n)[0].mask, closed(n, reference)), n
    # the shift table at every section4 point through n = 12, and at the
    # benchmark's (2,8,1,4)
    for params in [*enumerate_section4_params(12), Section4Params(2, 8, 1, 4)]:
        reference = word_table(_scalar_section4(params))
        assert np.array_equal(build_section4(params)[0].mask, closed(params.n, reference)), params


def test_shift_factor_ids_are_arithmetic():
    # the phase-free shift X^kx Z^kz sits at mask index kx * n + kz, so the
    # off-diagonal shifts m != j fill every n x n block (m, j) off the block
    # diagonal; remark2's graph is those shifts and the identity
    n = 5
    mask = build_remark2(n)[0].mask.copy()
    mask[0, 0] = False
    assert np.array_equal(mask, np.kron(~np.eye(n, dtype=bool), np.ones((n, n), dtype=bool)))
    assert np.count_nonzero(mask) == n**3 * (n - 1)


def test_code_k1_shift_matches_the_kron_reference():
    # X f_j = f_{j+1}, so the diagonal shift X^{h+1} (x) X^{h+1} moves the
    # coefficient of f_i (x) f_j to f_{i+h+1} (x) f_{j+h+1}: each code
    # column is the one before it with its rows permuted that way, exactly.
    # The dense shift itself is checked against the standard-basis vectors
    # by test_code_k1_period_invariance and
    # test_allowed_shifts_move_code_off_itself
    for params in enumerate_section4_params(12):
        n, step = params.n, params.h + 1
        code = build_code_K1(params)
        i, j = np.divmod(np.arange(n * n), n)
        shifted = np.empty_like(code.fourier[:, 1:])
        shifted[(i + step) % n * n + (j + step) % n] = code.fourier[:, :-1]
        assert np.array_equal(code.fourier[:, 1:], shifted), params


def test_code_k1_holds_no_dense_shift():
    # at n = 32 the dense 1024 x 1024 complex shift alone would take 16 MB
    tracemalloc.start()
    try:
        code = build_code_K1(Section4Params(2, 16, 3, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.code_dim == 4
    assert peak < 8 * 2**20
