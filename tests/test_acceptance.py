"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import functools
from math import comb

import numpy as np

from hodgeform.complexes import orient
from hodgeform.cup import cup, intersection_form
from hodgeform.formality import (
    SearchConfig,
    formality_residual,
    search_formal_weights,
)
from hodgeform.hodge import harmonic_basis, random_weights, unit_weights
from hodgeform.homology import betti_numbers, boundary_matrix
from hodgeform.obstructions import (
    CohomologySummary,
    check_obstructions,
    summarize,
)

from test_cup import on_fundamental_class
from test_formality import oracle_pair_residual
from test_obstructions import bundled, enumerate_consistent_summaries
from hodgeform.obstructions import load_summary


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {label}: FAIL")
                raise
            print(f"[acceptance] {label}: PASS")

        return run

    return wrap


@criterion("C1 Betti golden table")
def test_criterion_1_betti_golden_table(spheres, tori, surfaces):
    for n, K in spheres.items():
        expected = tuple(1 if k in (0, n) else 0 for k in range(n + 1))
        assert betti_numbers(K) == expected
    for n, K in tori.items():
        assert betti_numbers(K) == tuple(comb(n, k) for k in range(n + 1))
    for g, K in surfaces.items():
        expected = (1, 0, 1) if g == 0 else (1, 2 * g, 1)
        assert betti_numbers(K) == expected


@criterion("C2 discrete Hodge theorem under random weights")
def test_criterion_2_hodge_theorem_random_weights(zoo):
    rng = np.random.default_rng(0xD15C)
    for name, K in zoo.items():
        betti = betti_numbers(K)
        for _ in range(10):
            w = random_weights(K, rng)
            for k in range(K.dimension + 1):
                basis = harmonic_basis(K, w, k)
                assert basis.cardinality == betti[k], (name, k)
                assert basis.residual <= 1e-8, (name, k, basis.residual)


def exact_determinant(Q):
    """Determinant of an integer matrix by Bareiss' fraction-free elimination."""
    A = [[int(x) for x in row] for row in Q]
    n, sign, previous = len(A), 1, 1
    for k in range(n - 1):
        if A[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if A[i][k]), None)
            if swap is None:
                return 0
            A[k], A[swap] = A[swap], A[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]) // previous
        previous = A[k][k]
    return sign * A[-1][-1] if n else 1


@criterion("C3 intersection forms")
def test_criterion_3_intersection_forms(s2xs2, tori):
    for K, expected in ((s2xs2, (1, 1, 0)), (tori[4], (3, 3, 0))):
        form = intersection_form(K)
        assert (form.b_plus, form.b_minus, form.signature) == expected
        # the integer form of a closed manifold is unimodular
        assert form.b_zero == 0
        assert abs(exact_determinant(form.matrix)) == 1


@criterion("C4 obstruction corpus")
def test_criterion_4_obstruction_corpus(surfaces):
    report = check_obstructions(summarize(surfaces[2]))
    assert report.verdict == "obstructed"
    assert report.fired_ids == ("R1", "R5")

    k3 = check_obstructions(load_summary(bundled("k3")))
    assert k3.verdict == "obstructed"
    assert k3.fired_ids == ("R1", "R2", "R11")

    expected_models = {
        "s2xt2": "S^2 x T^2",
        "s3xs1": "S^3 x S^1",
        "t4": "T^4",
        "cp2": "CP^2",
        "s2xs2": "S^2 x S^2",
    }
    for stem, model in expected_models.items():
        report = check_obstructions(load_summary(bundled(stem)))
        assert report.verdict == "passes-elementary-tests", stem
        assert report.fired_ids == (), stem
        assert report.model == model, stem


@criterion("C5 classification exhaustiveness")
def test_criterion_5_classification_exhaustiveness():
    counterexamples = []
    for s in enumerate_consistent_summaries(8):
        report = check_obstructions(s)
        if report.verdict == "passes-elementary-tests" and report.model is None:
            counterexamples.append(s)
    assert counterexamples == []


@criterion("C6 formality probe soundness")
def test_criterion_6_formality_probe(spheres, surfaces, tori):
    for n, K in spheres.items():
        report = formality_residual(K, unit_weights(K))
        assert report.aggregate == 0.0, n

    g2 = surfaces[2]
    assert formality_residual(g2, unit_weights(g2)).aggregate > 1e-3
    rng = np.random.default_rng(0xF0)
    for _ in range(20):
        w = random_weights(g2, rng)
        assert formality_residual(g2, w).aggregate > 1e-3

    # oracle: independent dense projector matches pair residuals
    t2 = tori[2]
    w2 = unit_weights(t2)
    basis = harmonic_basis(t2, w2, 1)
    report = formality_residual(t2, w2)
    by_key = {
        (p.degree_a, p.index_a, p.degree_b, p.index_b): p.residual
        for p in report.pairs
    }
    for i in range(2):
        for j in range(2):
            a, b = basis.vectors[:, i], basis.vectors[:, j]
            want = oracle_pair_residual(t2, w2, 1, a, 1, b)
            assert abs(by_key[(1, i, 1, j)] - want) < 1e-9


@criterion("C7 search contract")
def test_criterion_7_search_contract(tori):
    t2 = tori[2]
    for seed in range(5):
        cfg = SearchConfig(max_iterations=2, seed=seed)
        initial = random_weights(t2, seed)
        _, trace = search_formal_weights(t2, cfg, initial)
        assert all(x >= y for x, y in zip(trace, trace[1:])), seed
        assert trace[-1] <= trace[0], seed
        # deterministic: identical reruns produce identical traces
        _, rerun = search_formal_weights(t2, cfg, random_weights(t2, seed))
        assert [repr(v) for v in trace] == [repr(v) for v in rerun], seed


@criterion("C8 cup-product laws")
def test_criterion_8_cup_product_laws(zoo):
    rng = np.random.default_rng(0xC0)
    for name, K in zoo.items():
        n = K.dimension
        coboundaries = {
            k: boundary_matrix(K, k + 1).T.tocsr().astype(np.float64)
            for k in range(n)
        }
        ones = np.ones((1, K.vertex_count))
        degree_pairs = [
            (k, l) for k in range(n) for l in range(n) if k + l + 1 <= n
        ] or [(0, 0)]
        # ten blocks of 10 x 10 random pairs, cycling over the degree pairs
        for trial in range(10):
            k, l = degree_pairs[trial % len(degree_pairs)]
            A = rng.standard_normal((10, K.simplex_count(k)))
            B = rng.standard_normal((10, K.simplex_count(l)))
            scale = max(1.0, float(np.abs(A).max() * np.abs(B).max()))
            if k + l + 1 <= n:
                dA = (coboundaries[k] @ A.T).T
                dB = (coboundaries[l] @ B.T).T
                lhs = (coboundaries[k + l] @ cup(K, A, k, B, l).T).T
                rhs = cup(K, dA, k + 1, B, l) + (-1) ** k * cup(K, A, k, dB, l + 1)
                assert np.abs(lhs - rhs).max() <= 1e-10 * scale, name
            # unit law, exactly
            assert np.array_equal(cup(K, ones, 0, B, l), B), name

        # class-level graded commutativity for closed cochains
        if orient(K) is None:
            continue
        w = unit_weights(K)
        for k in range(n + 1):
            l = n - k
            for _ in range(5):
                a_vals = np.zeros(K.simplex_count(k))
                b_vals = np.zeros(K.simplex_count(l))
                if k > 0:
                    a_vals += coboundaries[k - 1] @ rng.standard_normal(
                        K.simplex_count(k - 1)
                    )
                if l > 0:
                    b_vals += coboundaries[l - 1] @ rng.standard_normal(
                        K.simplex_count(l - 1)
                    )
                for degree, vals in ((k, a_vals), (l, b_vals)):
                    basis = harmonic_basis(K, w, degree)
                    if basis.cardinality:
                        vals += basis.vectors @ rng.standard_normal(
                            basis.cardinality
                        )
                (ab,) = cup(K, a_vals[None], k, b_vals[None], l)
                (ba,) = cup(K, b_vals[None], l, a_vals[None], k)
                ab, ba = on_fundamental_class(K, ab), on_fundamental_class(K, ba)
                bound = 1e-8 * max(abs(ab), abs(ba), 1.0)
                assert abs(ab - (-1) ** (k * l) * ba) <= bound, name
