from fractions import Fraction
from itertools import product

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeform.complexes import orient, product_complex, sphere, torus
from hodgeform.cup import _inertia, cup, intersection_form
from hodgeform.hodge import harmonic_basis, random_weights, unit_weights
from hodgeform.homology import boundary_matrix, cohomology_reduction, exact_rank


def loop_cup(K, k, a, l, b):
    """The front-face/back-face product of a k-cochain a and an l-cochain b,
    one target simplex at a time."""
    return [
        a[K.index_of(s[: k + 1], k)] * b[K.index_of(s[k:], l)]
        for s in K.simplices(k + l)
    ]


def on_fundamental_class(K, c):
    """<c, [K]>: the signed sum of a top cochain over the oriented facets."""
    return sum(s * v for s, v in zip(orient(K), c))


def coboundary_of(K, k, X):
    """d_k of every row of a block of degree-k cochains."""
    return (boundary_matrix(K, k + 1).T.astype(float) @ X.T).T


def test_constant_zero_cochain_is_a_unit(tori):
    K = tori[2]
    rng = np.random.default_rng(0)
    one = np.ones((1, K.vertex_count))
    for degree in (0, 1, 2):
        A = rng.standard_normal((3, K.simplex_count(degree)))
        assert np.array_equal(cup(K, one, 0, A, degree), A)
        assert np.array_equal(cup(K, A, degree, one, 0), A)


def test_leibniz_rule_random_cochains(spheres):
    K = spheres[3]
    rng = np.random.default_rng(1)
    for k, l in [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2)]:
        if k + l + 1 > K.dimension:
            continue
        A = rng.standard_normal((10, K.simplex_count(k)))
        B = rng.standard_normal((10, K.simplex_count(l)))
        lhs = coboundary_of(K, k + l, cup(K, A, k, B, l))
        rhs = (
            cup(K, coboundary_of(K, k, A), k + 1, B, l)
            + (-1) ** k * cup(K, A, k, coboundary_of(K, l, B), l + 1)
        )
        assert np.abs(lhs - rhs).max() < 1e-10


def test_cup_degree_overflow(tori):
    K = tori[2]
    top = np.ones((1, 18))
    with pytest.raises(ValueError, match="exceeds"):
        cup(K, top, 2, top, 2)
    edges = np.ones((2, 27))
    with pytest.raises(ValueError, match="degree-1 rows"):
        cup(K, edges, 1, np.ones((2, 26)), 1)
    with pytest.raises(ValueError, match="degree-0 rows"):
        cup(K, np.ones((2, 27)), 0, edges, 1)
    with pytest.raises(ValueError, match="degree-1 rows"):
        cup(K, np.ones(27), 1, edges, 1)


def test_cup_bilinear(tori):
    K = tori[2]
    rng = np.random.default_rng(2)
    A1, A2, B = (rng.standard_normal((3, 27)) for _ in range(3))
    combined = cup(K, 2.0 * A1 - 3.0 * A2, 1, B, 1)
    split = 2.0 * cup(K, A1, 1, B, 1) - 3.0 * cup(K, A2, 1, B, 1)
    assert np.allclose(combined, split, atol=1e-12)


# ---------------------------------------------------------------------------
# fundamental class


def test_harmonic_area_generator_pairs_nonzero(tori):
    K = tori[2]
    w = unit_weights(K)
    h = harmonic_basis(K, w, 2).vectors[:, 0]
    assert abs(on_fundamental_class(K, h)) > 1.0


# ---------------------------------------------------------------------------
# integral generators on the staircase torus


def integral_torus_generators(K):
    """Pullbacks of the circle generator along the two projections, as the
    two rows of an exact (object) block."""
    width = 3
    rows = np.zeros((2, K.simplex_count(1)), dtype=object)
    for idx, (u, v) in enumerate(K.simplices(1)):
        first = (u // width, v // width)
        second = (u % width, v % width)
        for which, coords in enumerate((first, second)):
            rows[which, idx] = 1 if coords == (0, 1) else 0
    return rows


def test_integral_generators_pair_to_unimodular_matrix(tori):
    K = tori[2]
    G = integral_torus_generators(K)
    # cocycles, exactly
    for c in G:
        dv = boundary_matrix(K, 2).T @ np.array([int(x) for x in c])
        assert not dv.any()
    products = cup(K, G, 1, G, 1)
    assert products.dtype == object
    pairing = np.array(
        [on_fundamental_class(K, c) for c in products], dtype=np.int64
    ).reshape(2, 2)
    # squares of degree-1 classes vanish; the cross pairing is +-1
    assert pairing[0, 0] == 0 and pairing[1, 1] == 0
    assert pairing[0, 1] == -pairing[1, 0]
    assert abs(pairing[0, 1]) == 1
    assert abs(round(np.linalg.det(pairing))) == 1


# ---------------------------------------------------------------------------
# graded commutativity at cohomology level


def closed_random_cochains(K, w, k, count, rng):
    """``count`` random closed k-cochains as rows: coboundaries plus
    harmonic parts."""
    values = np.zeros((count, K.simplex_count(k)))
    if k > 0:
        values += coboundary_of(K, k - 1, rng.standard_normal((count, K.simplex_count(k - 1))))
    basis = harmonic_basis(K, w, k)
    if basis.cardinality:
        values += rng.standard_normal((count, basis.cardinality)) @ basis.vectors.T
    return values


def test_graded_commutativity_of_classes(tori, spheres, surfaces):
    rng = np.random.default_rng(8)
    for K in (tori[2], spheres[2], surfaces[2], tori[3]):
        w = unit_weights(K)
        n = K.dimension
        for k in range(n + 1):
            l = n - k
            A = closed_random_cochains(K, w, k, 5, rng)
            B = closed_random_cochains(K, w, l, 5, rng)
            ab = [on_fundamental_class(K, c) for c in cup(K, A, k, B, l)]
            ba = [on_fundamental_class(K, c) for c in cup(K, B, l, A, k)]
            for i in range(5):
                for j in range(5):
                    x, y = ab[5 * i + j], ba[5 * j + i]
                    assert abs(x - (-1) ** (k * l) * y) <= 1e-8 * max(abs(x), abs(y), 1.0)


# ---------------------------------------------------------------------------
# intersection forms


def test_product_of_spheres_hyperbolic_form(s2xs2):
    form = intersection_form(s2xs2)
    assert (form.b_plus, form.b_minus, form.b_zero) == (1, 1, 0)
    assert form.signature == 0
    assert form.symmetric


def middle_degree_report(weights_of):
    """Intersection and obstruction summaries of the analyze report on a fresh
    S^2 x S^2, so no result is shared through the per-complex cache."""
    from hodgeform.cli import _analyze_report

    K = product_complex(sphere(2), sphere(2))
    report, _ = _analyze_report(K, weights_of(K), {"hodge", "obstructions"}, 1e-9)
    assert "errors" not in report, report["errors"]
    return report["hodge"]["intersection"], report["obstructions"]["summary"]


def test_intersection_form_weight_independent():
    expected = middle_degree_report(unit_weights)
    assert expected[0]["b_plus"] == expected[0]["b_minus"] == 1
    for seed in (1, 2, 5):
        assert middle_degree_report(lambda K: random_weights(K, seed)) == expected, seed


def test_signature_invariant_under_global_scaling():
    from hodgeform.hodge import MetricWeights

    base = middle_degree_report(lambda K: random_weights(K, 5))
    scaled = middle_degree_report(
        lambda K: MetricWeights(tuple(0.25 * a for a in random_weights(K, 5).by_degree))
    )
    assert scaled == base
    assert (base[0]["b_plus"], base[0]["b_minus"], base[0]["signature"]) == (1, 1, 0)


def test_four_torus_split_form(tori):
    form = intersection_form(tori[4])
    assert (form.b_plus, form.b_minus) == (3, 3)
    assert form.signature == 0
    assert form.b_zero == 0


def test_two_torus_skew_pairing(tori):
    form = intersection_form(tori[2])
    assert not form.symmetric
    assert form.skew_rank == 2
    assert form.b_plus is None and form.signature is None
    assert np.allclose(form.matrix, -form.matrix.T, atol=1e-12)


def test_sphere_trivial_middle_form(spheres):
    form = intersection_form(spheres[2])
    assert form.skew_rank == 0  # middle degree 1 carries no harmonic cochains


def test_intersection_form_requires_even_dimension(tori):
    with pytest.raises(ValueError):
        intersection_form(tori[3])


def test_intersection_form_requires_orientable(rp2):
    with pytest.raises(ValueError):
        intersection_form(rp2)


def test_matrix_is_the_integer_cup_pairing(small_zoo, pinched_torus, pinched_torus_squared):
    degenerate = {"pinched_torus": pinched_torus, "pinched_torus_squared": pinched_torus_squared}
    for name, K in {**small_zoo, **degenerate}.items():
        n = K.dimension
        if n % 2 or orient(K) is None:
            continue
        m = n // 2
        form = intersection_form(K)
        Q = form.matrix
        assert np.issubdtype(Q.dtype, np.integer), name
        X = cohomology_reduction(K).cocycles[m]
        cocycles = [np.array(list(map(int, x)), dtype=object) for x in X.T]
        oracle = [
            [on_fundamental_class(K, loop_cup(K, m, x, m, y)) for y in cocycles]
            for x in cocycles
        ]
        assert Q.tolist() == oracle, name
        assert np.array_equal(Q, Q.T if form.symmetric else -Q.T), name
    S2xS2 = small_zoo["product:sphere:2,sphere:2"]
    assert intersection_form(S2xS2).matrix.tolist() == [[0, 1], [1, 0]]
    assert intersection_form(small_zoo["torus:2"]).matrix.tolist() == [[0, -1], [1, 0]]


def test_cup_matches_loop_oracle(small_zoo):
    # blocks of 2 and 3 rows, so that the a-major row order shows
    rng = np.random.default_rng(31)
    for name, K in small_zoo.items():
        n = K.dimension
        for k in range(n + 1):
            for l in range(n + 1 - k):
                fk, fl, shape = K.simplex_count(k), K.simplex_count(l), (6, K.simplex_count(k + l))
                A = rng.standard_normal((2, fk))
                B = rng.standard_normal((3, fl))
                got = cup(K, A, k, B, l)
                assert got.dtype == np.float64 and got.shape == shape, (name, k, l)
                want = [loop_cup(K, k, a, l, b) for a in A for b in B]
                assert np.array_equal(got, np.array(want)), (name, k, l)

                FA = np.array(
                    [[Fraction(int(x), 7) for x in row] for row in rng.integers(-5, 6, (2, fk))],
                    dtype=object,
                )
                FB = np.array(rng.integers(-5, 6, (3, fl)).tolist(), dtype=object)
                exact = cup(K, FA, k, FB, l)
                assert exact.dtype == object and exact.shape == shape, (name, k, l)
                assert exact.tolist() == [loop_cup(K, k, a, l, b) for a in FA for b in FB]
                assert all(isinstance(x, Fraction) for x in exact.ravel()), (name, k, l)


def reference_inertia(Q):
    """(positive, negative) pivot counts of a symmetric integer matrix by
    symmetric elimination over the rationals (Sylvester's law of inertia):
    the library's former implementation, kept as an independent oracle."""
    A = [[Fraction(int(x)) for x in row] for row in Q]
    plus = minus = 0
    while A:
        p = next((i for i in range(len(A)) if A[i][i]), None)
        if p is None:
            # every diagonal entry is 0: adding row and column j into p
            # puts 2 A_pj != 0 on the diagonal
            nonzero = [(i, j) for i, row in enumerate(A) for j, x in enumerate(row) if x]
            if not nonzero:
                break  # what is left is the radical
            p, j = nonzero[0]
            for row in A:
                row[p] += row[j]
            A[p] = [x + y for x, y in zip(A[p], A[j])]
        pivot_row = A.pop(p)
        d = pivot_row.pop(p)
        plus += d > 0
        minus += d < 0
        for row in A:
            c = row.pop(p) / d
            if c:
                for s, x in enumerate(pivot_row):
                    row[s] -= c * x
    return plus, minus


def symmetric_from_upper(n, upper):
    """The symmetric int64 n x n matrix whose upper triangle, row by row,
    is ``upper``."""
    Q = np.zeros((n, n), dtype=np.int64)
    Q[np.triu_indices(n)] = upper
    return Q + np.triu(Q, 1).T


def test_inertia_counts_eigenvalue_signs_on_every_small_matrix():
    # all 5 + 125 matrices with n <= 2 and entries -2..2, all 729 with
    # n = 3 and entries -1..1
    for n, entries in ((1, range(-2, 3)), (2, range(-2, 3)), (3, range(-1, 2))):
        for upper in product(entries, repeat=n * (n + 1) // 2):
            Q = symmetric_from_upper(n, upper)
            eigs = np.linalg.eigvalsh(Q)
            plus, minus = _inertia(Q)
            assert (plus, minus) == (np.sum(eigs > 1e-9), np.sum(eigs < -1e-9)), Q
            assert n - plus - minus == n - exact_rank(Q), Q


@st.composite
def symmetric_integer_matrices(draw):
    """n <= 8: a random upper triangle, or a rank-deficient B D B^T; either
    one with its diagonal cleared half the time."""
    n = draw(st.integers(0, 8))
    if draw(st.booleans()):
        r = draw(st.integers(0, n))
        B = np.array(draw(st.lists(st.integers(-3, 3), min_size=n * r, max_size=n * r)), dtype=np.int64)
        D = np.array(draw(st.lists(st.integers(-2, 2), min_size=r, max_size=r)), dtype=np.int64)
        B = B.reshape(n, r)
        Q = (B * D) @ B.T
    else:
        size = n * (n + 1) // 2
        Q = symmetric_from_upper(n, draw(st.lists(st.integers(-4, 4), min_size=size, max_size=size)))
    if draw(st.booleans()):
        np.fill_diagonal(Q, 0)
    return Q


@settings(max_examples=150, deadline=None)
@given(symmetric_integer_matrices())
def test_inertia_matches_elimination_over_the_rationals(Q):
    plus, minus = _inertia(Q)
    assert (plus, minus) == reference_inertia(Q)
    assert plus + minus == exact_rank(Q)


def test_inertia_of_classical_forms():
    H = np.array([[0, 1], [1, 0]])
    E8 = 2 * np.eye(8, dtype=np.int64)
    for i, j in ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (2, 7)):
        E8[i, j] = E8[j, i] = -1
    assert _inertia(np.zeros((0, 0), dtype=np.int64)) == (0, 0)
    assert _inertia(H) == (1, 1)
    assert _inertia(scipy.linalg.block_diag(H, H, H)) == (3, 3)  # torus:4
    assert _inertia(E8) == (8, 0)
    assert _inertia(-E8) == (0, 8)
    # the K3 surface's form 2(-E8) + 3H
    assert _inertia(scipy.linalg.block_diag(-E8, -E8, H, H, H)) == (3, 19)
