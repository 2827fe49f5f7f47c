import itertools

import numpy as np
import pytest

from hodgeform.complexes import build_complex, product_complex
from hodgeform.homology import (
    betti_numbers,
    boundary_matrix,
    euler_characteristic,
    exact_rank,
    poincare_duality_check,
)


def test_single_edge_boundary_column():
    K = build_complex([(0, 1)])
    col = boundary_matrix(K, 1).toarray()
    assert col.tolist() == [[-1], [1]]


def test_boundary_squares_to_zero(zoo):
    for K in zoo.values():
        for k in range(2, K.dimension + 1):
            prod = boundary_matrix(K, k - 1) @ boundary_matrix(K, k)
            assert prod.nnz == 0


def test_boundary_column_structure(tori):
    K = tori[3]
    for k in range(1, 4):
        mat = boundary_matrix(K, k).tocsc()
        for j in range(mat.shape[1]):
            col = mat[:, j]
            assert col.nnz == k + 1
            # alternating signs by face position
            simplex = K.simplices(k)[j]
            for i in range(k + 1):
                face = simplex[:i] + simplex[i + 1 :]
                row = K.index_of(face, k - 1)
                assert col[row, 0] == (-1) ** i


def test_tetrahedron_boundary_rank_matches_float_oracle(spheres):
    mat = boundary_matrix(spheres[2], 2)
    assert mat.shape == (6, 4)
    oracle = int(np.linalg.matrix_rank(mat.toarray().astype(float)))
    assert oracle == 3
    assert exact_rank(mat) == 3


def test_betti_spheres(spheres):
    for n, K in spheres.items():
        expected = tuple(1 if k in (0, n) else 0 for k in range(n + 1))
        assert betti_numbers(K) == expected


def test_betti_tori_attain_binomial_values(tori):
    from math import comb

    for n, K in tori.items():
        assert betti_numbers(K) == tuple(comb(n, k) for k in range(n + 1))


def test_betti_surfaces(surfaces):
    for g, K in surfaces.items():
        if g == 0:
            assert betti_numbers(K) == (1, 0, 1)
        else:
            assert betti_numbers(K) == (1, 2 * g, 1)


def test_betti_projective_plane_rational(rp2):
    assert betti_numbers(rp2) == (1, 0, 0)


def test_b0_counts_connected_components():
    # disjoint union of two triangle boundaries; oracle: union-find
    facets = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    K = build_complex(facets)

    parent = list(range(K.vertex_count))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in K.simplices(1):
        parent[find(a)] = find(b)
    components = len({find(v) for v in range(K.vertex_count)})
    assert betti_numbers(K)[0] == components == 2


def test_euler_characteristic_matches_betti_alternating_sum(zoo):
    for K in zoo.values():
        betti = betti_numbers(K)
        assert euler_characteristic(K) == sum(
            (-1) ** k * b for k, b in enumerate(betti)
        )


def test_duality_check(tori, spheres):
    assert poincare_duality_check(tori[3])
    assert poincare_duality_check(spheres[2])


def test_duality_check_rejects_open_complex():
    with pytest.raises(ValueError):
        poincare_duality_check(build_complex([(0, 1, 2)]))


def test_duality_check_rejects_non_orientable(rp2):
    with pytest.raises(ValueError):
        poincare_duality_check(rp2)


def test_kunneth_convolution_on_products(spheres, tori, surfaces):
    pairs = [
        (spheres[1], spheres[1]),
        (spheres[1], spheres[2]),
        (spheres[2], spheres[2]),
        (tori[2], spheres[1]),
        (tori[2], tori[1]),
        (surfaces[2], spheres[1]),
    ]
    for a, b in pairs:
        product = product_complex(a, b)
        if sum(product.f_vector) > 10_000:
            continue
        ba, bb = betti_numbers(a), betti_numbers(b)
        expected = tuple(
            sum(
                ba[i] * bb[k - i]
                for i in range(len(ba))
                if 0 <= k - i < len(bb)
            )
            for k in range(product.dimension + 1)
        )
        assert betti_numbers(product) == expected


def test_boundary_degree_out_of_range(tori):
    with pytest.raises(ValueError):
        boundary_matrix(tori[2], 0)
    with pytest.raises(ValueError):
        boundary_matrix(tori[2], 3)


def bareiss_rank(mat) -> int:
    """Fraction-free elimination with exact integers, an oracle independent
    of the sparse column reduction (small matrices only).

    Every row of the active submatrix is updated at every step; the division
    by the previous pivot is exact only under that discipline.
    """
    m = [[int(x) for x in row] for row in mat.toarray()]
    rows, cols = len(m), len(m[0]) if m else 0
    rank = 0
    prev = 1
    for c in range(cols):
        pivot_row = next((r for r in range(rank, rows) if m[r][c]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        p = m[rank][c]
        row_p = m[rank]
        for r in range(rank + 1, rows):
            row_r = m[r]
            f = row_r[c]
            for cc in range(c + 1, cols):
                row_r[cc] = (row_r[cc] * p - f * row_p[cc]) // prev
            row_r[c] = 0
        prev = p
        rank += 1
        if rank == rows:
            break
    return rank


def test_exact_rank_matches_bareiss_oracle(small_zoo):
    for name, K in small_zoo.items():
        for k in range(1, K.dimension + 1):
            mat = boundary_matrix(K, k)
            if max(mat.shape) <= 150:
                assert exact_rank(mat) == bareiss_rank(mat), (name, k)


def test_exact_rank_small_dense_path():
    # a small dense random integer matrix against numpy's SVD rank
    rng = np.random.default_rng(3)
    import scipy.sparse as sp

    dense = rng.integers(-2, 3, size=(20, 12))
    mat = sp.csc_matrix(dense)
    assert exact_rank(mat) == int(np.linalg.matrix_rank(dense.astype(float)))


def test_cocycle_representatives_are_integral_classes(small_zoo):
    import scipy.sparse as sp

    from hodgeform.homology import cohomology_reduction

    for name, K in small_zoo.items():
        n = K.dimension
        red = cohomology_reduction(K)
        betti = betti_numbers(K)
        for k in range(n + 1):
            X = red.cocycles[k]
            assert X.dtype.kind == "i", (name, k)
            assert X.shape == (K.simplex_count(k), betti[k]), (name, k)
            if k < n:
                d_k = boundary_matrix(K, k + 1).T.tocsc()
                assert not (d_k @ X).any(), (name, k)
                J = red.independent[k]
                assert len(J) == red.ranks[k + 1] == exact_rank(d_k[:, J]), (name, k)
            # independent modulo coboundaries: [d_{k-1} | X] gains b_k in rank
            if k > 0:
                d_prev = boundary_matrix(K, k).T.tocsc()
                stacked = sp.hstack([d_prev, sp.csc_matrix(X)]).tocsc()
                assert exact_rank(stacked) == exact_rank(d_prev) + betti[k], (name, k)
            else:
                assert exact_rank(sp.csc_matrix(X)) == betti[0], name


def test_columns_as_dicts_match_an_entry_loop(small_zoo):
    # the exact reduction reads each column of d_k as {row: int}, and a
    # skipped (cleared) column as None
    from hodgeform.homology import _columns_as_dicts

    for name, K in small_zoo.items():
        for k in range(1, K.dimension + 1):
            mat = boundary_matrix(K, k).T.tocsc()
            skip = set(range(0, mat.shape[1], 3))
            want = []
            for j in range(mat.shape[1]):
                lo, hi = mat.indptr[j], mat.indptr[j + 1]
                col = {int(mat.indices[t]): int(mat.data[t]) for t in range(lo, hi)}
                want.append(None if j in skip else col)
            got = _columns_as_dicts(mat, skip)
            assert got == want, (name, k)
            assert all(
                type(r) is int and type(v) is int for col in got if col for r, v in col.items()
            ), (name, k)


@pytest.mark.parametrize(
    "columns, pivots, kernel, stripped",
    [
        # the kernel vector {2: 10, 0: 2, 1: 6} is divided by its content 2
        (
            [{0: -1, 2: 2}, {0: 2, 2: 1}, {0: -1, 2: -1}],
            {2: 0, 0: 1},
            {2: {0: 1, 1: 3, 2: 5}},
            [{0: 1, 1: 3, 2: 5}],
        ),
        # the third column's pivot {0: -4} and its operations
        # {0: 6, 1: 14, 2: 18} are divided by their common content 2
        (
            [{2: -3, 3: -2}, {0: 1, 3: -3}, {0: -1, 2: 1, 3: 3}],
            {3: 0, 2: 1, 0: 2},
            {},
            [{0: -2}, {0: 3, 1: 7, 2: 9}],
        ),
    ],
)
def test_reduction_strips_the_content_of_kernel_vectors_and_pivots(
    monkeypatch, columns, pivots, kernel, stripped
):
    import scipy.sparse as sp

    from hodgeform import homology

    changed = []
    strip = homology._strip_content

    def spy(*vectors):
        before = [dict(v) for v in vectors]
        strip(*vectors)
        if before != list(vectors):
            changed.extend(dict(v) for v in vectors)

    monkeypatch.setattr(homology, "_strip_content", spy)
    got_pivots, got_kernel = homology._reduce_columns([dict(c) for c in columns])
    assert got_pivots == pivots
    assert got_kernel == kernel
    assert changed == stripped
    dense = np.zeros((1 + max(max(c) for c in columns), len(columns)), dtype=np.int64)
    for j, col in enumerate(columns):
        for i, v in col.items():
            dense[i, j] = v
    for vector in got_kernel.values():
        # primitive, and a relation between the columns
        assert np.gcd.reduce(list(vector.values())) == 1
        combination = np.zeros(len(columns), dtype=np.int64)
        combination[list(vector)] = list(vector.values())
        assert not (dense @ combination).any()
    assert exact_rank(sp.csc_matrix(dense)) == np.linalg.matrix_rank(dense.astype(float))
