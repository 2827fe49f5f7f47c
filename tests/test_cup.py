import numpy as np
import pytest

from hodgeform.complexes import Cochain, orient, product_complex, sphere, torus
from hodgeform.cup import cup, evaluate_on_fundamental_class, intersection_form
from hodgeform.hodge import harmonic_basis, random_weights, unit_weights
from hodgeform.homology import boundary_matrix, cohomology_reduction


def coboundary_of(K, c):
    d = boundary_matrix(K, c.degree + 1).T
    if c.values.dtype == object:
        values = np.array(
            [sum(int(d[i, j]) * c.values[j] for j in d[i].indices) for i in range(d.shape[0])],
            dtype=object,
        )
        return Cochain(c.degree + 1, values)
    return Cochain(c.degree + 1, d.astype(float) @ c.values)


def test_constant_zero_cochain_is_a_unit(tori):
    K = tori[2]
    rng = np.random.default_rng(0)
    one = Cochain(0, np.ones(K.vertex_count))
    for degree in (0, 1, 2):
        a = Cochain(degree, rng.standard_normal(K.simplex_count(degree)))
        left = cup(K, one, a)
        right = cup(K, a, one)
        assert np.array_equal(left.values, a.values)
        assert np.array_equal(right.values, a.values)


def test_leibniz_rule_random_cochains(spheres):
    K = spheres[3]
    rng = np.random.default_rng(1)
    for k, l in [(0, 0), (0, 1), (1, 1), (0, 2), (1, 2)]:
        if k + l + 1 > K.dimension:
            continue
        for _ in range(10):
            a = Cochain(k, rng.standard_normal(K.simplex_count(k)))
            b = Cochain(l, rng.standard_normal(K.simplex_count(l)))
            lhs = coboundary_of(K, cup(K, a, b)).values
            rhs = (
                cup(K, coboundary_of(K, a), b).values
                + (-1) ** k * cup(K, a, coboundary_of(K, b)).values
            )
            assert np.abs(lhs - rhs).max() < 1e-10


def test_cup_degree_overflow(tori):
    K = tori[2]
    a = Cochain(2, np.ones(18))
    with pytest.raises(ValueError):
        cup(K, a, a)


def test_cup_bilinear(tori):
    K = tori[2]
    rng = np.random.default_rng(2)
    a1 = Cochain(1, rng.standard_normal(27))
    a2 = Cochain(1, rng.standard_normal(27))
    b = Cochain(1, rng.standard_normal(27))
    combined = cup(K, Cochain(1, 2.0 * a1.values - 3.0 * a2.values), b).values
    split = 2.0 * cup(K, a1, b).values - 3.0 * cup(K, a2, b).values
    assert np.allclose(combined, split, atol=1e-12)


# ---------------------------------------------------------------------------
# fundamental class


def test_indicator_cochain_evaluates_to_sign(tori):
    K = tori[2]
    ori = orient(K)
    values = np.zeros(18)
    values[7] = 1.0
    assert evaluate_on_fundamental_class(K, ori, Cochain(2, values)) == ori.facet_signs[7]


def test_coboundaries_evaluate_to_zero_exactly(tori):
    K = tori[2]
    ori = orient(K)
    rng = np.random.default_rng(3)
    u = Cochain(1, np.array([int(x) for x in rng.integers(-5, 6, 27)], dtype=object))
    du = coboundary_of(K, u)
    assert evaluate_on_fundamental_class(K, ori, du) == 0


def test_harmonic_area_generator_pairs_nonzero(tori):
    K = tori[2]
    w = unit_weights(K)
    h = harmonic_basis(K, w, 2).cochains[0]
    value = evaluate_on_fundamental_class(K, orient(K), h)
    assert abs(value) > 1.0


# ---------------------------------------------------------------------------
# integral generators on the staircase torus


def integral_torus_generators(K):
    """Pullbacks of the circle generator along the two projections."""
    width = 3
    cochains = []
    for which in (0, 1):
        values = np.zeros(K.simplex_count(1), dtype=object)
        for idx, (u, v) in enumerate(K.simplices(1)):
            first = (u // width, v // width)
            second = (u % width, v % width)
            coords = first if which == 0 else second
            values[idx] = 1 if coords == (0, 1) else 0
        cochains.append(Cochain(1, values))
    return cochains


def test_integral_generators_pair_to_unimodular_matrix(tori):
    K = tori[2]
    alpha, beta = integral_torus_generators(K)
    # cocycles, exactly
    for c in (alpha, beta):
        dv = boundary_matrix(K, 2).T @ np.array([int(x) for x in c.values])
        assert not dv.any()
    ori = orient(K)
    pairing = np.array(
        [
            [
                evaluate_on_fundamental_class(K, ori, cup(K, x, y))
                for y in (alpha, beta)
            ]
            for x in (alpha, beta)
        ],
        dtype=np.int64,
    )
    # squares of degree-1 classes vanish; the cross pairing is +-1
    assert pairing[0, 0] == 0 and pairing[1, 1] == 0
    assert pairing[0, 1] == -pairing[1, 0]
    assert abs(pairing[0, 1]) == 1
    assert abs(round(np.linalg.det(pairing))) == 1


# ---------------------------------------------------------------------------
# graded commutativity at cohomology level


def closed_random_cochain(K, w, k, rng):
    values = np.zeros(K.simplex_count(k))
    if k > 0:
        d = boundary_matrix(K, k).T.toarray().astype(float)
        values += d @ rng.standard_normal(K.simplex_count(k - 1))
    basis = harmonic_basis(K, w, k)
    if basis.cardinality:
        values += basis.vectors @ rng.standard_normal(basis.cardinality)
    return Cochain(k, values)


def test_graded_commutativity_of_classes(tori, spheres, surfaces):
    rng = np.random.default_rng(8)
    for K in (tori[2], spheres[2], surfaces[2], tori[3]):
        w = unit_weights(K)
        ori = orient(K)
        n = K.dimension
        for k in range(n + 1):
            l = n - k
            for _ in range(5):
                a = closed_random_cochain(K, w, k, rng)
                b = closed_random_cochain(K, w, l, rng)
                ab = evaluate_on_fundamental_class(K, ori, cup(K, a, b))
                ba = evaluate_on_fundamental_class(K, ori, cup(K, b, a))
                scale = max(abs(ab), abs(ba), 1.0)
                assert abs(ab - (-1) ** (k * l) * ba) <= 1e-8 * scale


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


def loop_cup(K, a, b):
    """The front-face/back-face product, one target simplex at a time."""
    k, l = a.degree, b.degree
    return [
        a.values[K.index_of(s[: k + 1], k)] * b.values[K.index_of(s[k:], l)]
        for s in K.simplices(k + l)
    ]


def test_matrix_is_the_integer_cup_pairing(small_zoo, pinched_torus, pinched_torus_squared):
    degenerate = {"pinched_torus": pinched_torus, "pinched_torus_squared": pinched_torus_squared}
    for name, K in {**small_zoo, **degenerate}.items():
        n = K.dimension
        if n % 2 or orient(K) is None:
            continue
        form = intersection_form(K)
        Q = form.matrix
        assert np.issubdtype(Q.dtype, np.integer), name
        X = cohomology_reduction(K).cocycles[n // 2]
        cocycles = [Cochain(n // 2, np.array(list(map(int, x)), dtype=object)) for x in X.T]
        oracle = [
            [evaluate_on_fundamental_class(K, orient(K), cup(K, x, y)) for y in cocycles]
            for x in cocycles
        ]
        assert Q.tolist() == oracle, name
        assert np.array_equal(Q, Q.T if form.symmetric else -Q.T), name
    S2xS2 = small_zoo["product:sphere:2,sphere:2"]
    assert intersection_form(S2xS2).matrix.tolist() == [[0, 1], [1, 0]]
    assert intersection_form(small_zoo["torus:2"]).matrix.tolist() == [[0, -1], [1, 0]]


def test_cup_matches_loop_oracle(small_zoo):
    from fractions import Fraction

    rng = np.random.default_rng(31)
    for name, K in small_zoo.items():
        n = K.dimension
        for k in range(n + 1):
            for l in range(n + 1 - k):
                fk, fl = K.simplex_count(k), K.simplex_count(l)
                a = Cochain(k, rng.standard_normal(fk))
                b = Cochain(l, rng.standard_normal(fl))
                got = cup(K, a, b).values
                assert got.dtype == np.float64, (name, k, l)
                assert np.array_equal(got, np.array(loop_cup(K, a, b))), (name, k, l)

                fa = np.empty(fk, dtype=object)
                fa[:] = [Fraction(int(x), 7) for x in rng.integers(-5, 6, fk)]
                fb = np.empty(fl, dtype=object)
                fb[:] = [int(x) for x in rng.integers(-5, 6, fl)]
                exact = cup(K, Cochain(k, fa), Cochain(l, fb)).values
                assert exact.dtype == object, (name, k, l)
                assert list(exact) == loop_cup(K, Cochain(k, fa), Cochain(l, fb))
                assert all(isinstance(x, Fraction) for x in exact), (name, k, l)
