import numpy as np
import pytest
import scipy.linalg

from hodgeform.complexes import build_complex, product_complex, sphere, torus
from hodgeform.formality import (
    ZERO_PRODUCT_RTOL,
    SearchConfig,
    formality_residual,
    search_formal_weights,
)
from hodgeform import formality, hodge
from hodgeform.cup import cup
from hodgeform.errors import NumericalError
from hodgeform.hodge import (
    MetricWeights,
    harmonic_basis,
    random_weights,
    unit_weights,
)
from hodgeform.homology import betti_numbers, boundary_matrix

from test_cup import loop_cup


def w_norm(w, k, x):
    return float(np.sqrt(max(np.dot(x, w.degree(k) * x), 0.0)))


def oracle_pair_residual(K, w, ka, a, kb, b):
    """Independent dense route for the degree-ka cochain a times the
    degree-kb cochain b: the product one simplex at a time, full Laplacian,
    dense nullspace, explicit w-orthogonal projector."""
    values = np.array(loop_cup(K, ka, a, kb, b), dtype=np.float64)
    k = ka + kb
    m = K.simplex_count(k)
    L = np.zeros((m, m))
    if k < K.dimension:
        d = boundary_matrix(K, k + 1).T.toarray().astype(float)
        L += np.diag(1.0 / w.degree(k)) @ d.T @ np.diag(w.degree(k + 1)) @ d
    if k > 0:
        d = boundary_matrix(K, k).T.toarray().astype(float)
        L += d @ np.diag(1.0 / w.degree(k - 1)) @ d.T @ np.diag(w.degree(k))
    null = scipy.linalg.null_space(L, rcond=1e-10)
    W = np.diag(w.degree(k))
    if null.shape[1]:
        X = null
        projector = X @ np.linalg.solve(X.T @ W @ X, X.T @ W)
    else:
        projector = np.zeros((m, m))
    weighted_norm = lambda v: float(np.sqrt(max(v @ W @ v, 0.0)))
    nc = weighted_norm(values)
    if nc == 0.0:
        return 0.0
    return weighted_norm(values - projector @ values) / nc


def records_of(report, degree_a, degree_b):
    """(index_a, index_b) -> record, for the report's pairs of two degrees."""
    return {
        (p.index_a, p.index_b): p
        for p in report.pairs
        if (p.degree_a, p.degree_b) == (degree_a, degree_b)
    }


def test_pair_residual_matches_dense_oracle_on_torus(tori):
    K = tori[2]
    w = unit_weights(K)
    one_forms = harmonic_basis(K, w, 1).vectors.T
    records = records_of(formality_residual(K, w), 1, 1)
    assert sorted(records) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for (i, j), record in records.items():
        want = oracle_pair_residual(K, w, 1, one_forms[i], 1, one_forms[j])
        assert abs(record.residual - want) < 1e-9


def test_pair_residual_matches_dense_oracle_random_weights(surfaces):
    K = surfaces[2]
    for seed in (0, 1):
        w = random_weights(K, seed)
        one_forms = harmonic_basis(K, w, 1).vectors.T
        records = records_of(formality_residual(K, w), 1, 1)
        for i, a in enumerate(one_forms):
            j = (i + 1) % len(one_forms)
            want = oracle_pair_residual(K, w, 1, a, 1, one_forms[j])
            assert abs(records[i, j].residual - want) < 1e-9


def test_unit_pairs_give_exact_zero(tori):
    K = tori[2]
    report = formality_residual(K, unit_weights(K))
    units = [p for p in report.pairs if 0 in (p.degree_a, p.degree_b)]
    # the unit times each basis cochain of degrees 0..2 (1 + 2 + 1), and
    # each of degrees 1..2 times the unit (2 + 1)
    assert len(units) == 7
    assert all(p.residual == 0.0 and p.unit_pair for p in units)
    assert not any(p.unit_pair for p in report.pairs if p not in units)


def test_pair_residual_gate_needs_a_certified_basis(tori):
    # a 1e12 weight spread leaves the degree-1 basis with residual 2.3e-7
    K = tori[2]
    rng = np.random.default_rng(1)
    w = MetricWeights(tuple(10.0 ** rng.uniform(-6, 6, K.simplex_count(k)) for k in range(3)))
    with pytest.raises(NumericalError, match="residual"):
        formality_residual(K, w)


def test_identically_zero_product_is_flagged():
    # two disjoint staircase tori: products of harmonic cochains supported
    # on different components are the zero cochain
    t = torus(2)
    shifted = [tuple(v + 9 for v in f) for f in t.facets]
    K = build_complex(list(t.facets) + shifted)
    w = unit_weights(K)
    assert harmonic_basis(K, w, 1).cardinality == 4
    zero = [p for p in formality_residual(K, w).pairs if p.zero_product]
    assert len(zero) == 8
    assert all(p.residual == 0.0 and not p.unit_pair for p in zero)


def test_residuals_lie_in_unit_interval(surfaces):
    K = surfaces[2]
    for seed in range(3):
        w = random_weights(K, seed)
        report = formality_residual(K, w)
        for record in report.pairs:
            assert -1e-12 <= record.residual <= 1 + 1e-9


# ---------------------------------------------------------------------------
# norm constancy


def variations(K, w, degree):
    """The report's norm-constancy values of the degree-k basis, in index order."""
    records = formality_residual(K, w).norm_constancy
    return [r.variation for r in records if r.degree == degree]


def test_circle_harmonic_cochain_has_constant_length(tori):
    K = tori[1]
    assert variations(K, unit_weights(K), 1)[0] < 1e-12


def test_torus_area_generator_has_constant_length(tori):
    K = tori[2]
    assert variations(K, unit_weights(K), 2)[0] < 1e-12


def test_genus_two_one_cochains_have_nonconstant_length(surfaces):
    K = surfaces[2]
    assert max(variations(K, unit_weights(K), 1)) > 1e-3


def _norm_constancy_by_vertex(K, w, k, a):
    """Per-vertex loop over the k-simplices: the localized squared norm of
    the k-cochain a averaged with weights, then its coefficient of
    variation."""
    weights = w.degree(k)
    num = np.zeros(K.vertex_count)
    den = np.zeros(K.vertex_count)
    for j, simplex in enumerate(K.simplices(k)):
        for v in simplex:
            num[v] += weights[j] * a[j] ** 2
            den[v] += weights[j]
    local = num / den
    return local.std() / local.mean()


def test_norm_constancy_matches_per_vertex_oracle(small_zoo):
    for name, K in small_zoo.items():
        w = random_weights(K, np.random.default_rng(3))
        for record in formality_residual(K, w).norm_constancy:
            a = harmonic_basis(K, w, record.degree).vectors[:, record.index]
            expected = _norm_constancy_by_vertex(K, w, record.degree, a)
            assert abs(record.variation - expected) <= 1e-12 * max(1.0, abs(expected)), (
                name,
                record.degree,
            )


# ---------------------------------------------------------------------------
# whole-complex reports


def test_sphere_reports_exact_zero(spheres):
    for n in (2, 3):
        K = spheres[n]
        report = formality_residual(K, unit_weights(K))
        assert report.aggregate == 0.0
        assert all(p.residual == 0.0 for p in report.pairs)


def test_s2xs2_unit_weight_residuals_are_pinned():
    # The residuals are taken over the class-order cocycle basis of each
    # degree, so they depend on that choice of orthonormal basis; this pins
    # them so that a change of basis construction cannot move them silently.
    K = product_complex(sphere(2), sphere(2))
    report = formality_residual(K, unit_weights(K))
    got = {(p.degree_a, p.index_a, p.degree_b, p.index_b): p.residual for p in report.pairs}
    want = {
        (0, 0, 0, 0): 0.0,
        (0, 0, 2, 0): 0.0,
        (2, 0, 0, 0): 0.0,
        (0, 0, 2, 1): 0.0,
        (2, 1, 0, 0): 0.0,
        (0, 0, 4, 0): 0.0,
        (4, 0, 0, 0): 0.0,
        (2, 0, 2, 0): 1.0,
        (2, 0, 2, 1): 0.93009559716949,
        (2, 1, 2, 0): 0.93009559716949,
        (2, 1, 2, 1): 0.92810984915563,
    }
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-9, abs=1e-12), key
    assert report.aggregate == pytest.approx(1.0, rel=1e-12)


def per_pair_records(K, w):
    """Independent per-pair route: for every ordered basis pair, the product
    one simplex at a time, then its w-orthogonal projection H (H^T W c) and
    its norms, one product at a time, in the report's record order."""
    n = K.dimension
    bases = [harmonic_basis(K, w, k).vectors for k in range(n + 1)]
    records = []
    for k in range(n + 1):
        for l in range(n + 1 - k):
            for i, a in enumerate(bases[k].T):
                for j, b in enumerate(bases[l].T):
                    c = np.array(loop_cup(K, k, a, l, b))
                    nc = w_norm(w, k + l, c)
                    unit = k == 0 or l == 0
                    zero = not unit and nc <= (
                        ZERO_PRODUCT_RTOL * w_norm(w, k, a) * w_norm(w, l, b)
                    )
                    residual = 0.0
                    if not (unit or zero):
                        H = bases[k + l]
                        h = H @ (H.T @ (w.degree(k + l) * c))
                        residual = w_norm(w, k + l, c - h) / nc
                    records.append((k, i, l, j, nc, residual, zero, unit))
    return records


def test_report_matches_per_pair_oracle(tori, s2xs2, surfaces):
    # residuals at round-off (torus products are harmonic) have no relative
    # digits, hence the absolute floor
    close = lambda got, want: got == pytest.approx(want, rel=1e-12, abs=1e-14)
    for K in (tori[2], tori[3], s2xs2, surfaces[2]):
        for w in (unit_weights(K), random_weights(K, 0), random_weights(K, 3)):
            report = formality_residual(K, w)
            want = per_pair_records(K, w)
            got = [
                (p.degree_a, p.index_a, p.degree_b, p.index_b,
                 p.product_norm, p.residual, p.zero_product, p.unit_pair)
                for p in report.pairs
            ]
            assert [g[:4] + g[6:] for g in got] == [r[:4] + r[6:] for r in want], K.name
            for g, r in zip(got, want):
                assert close(g[4], r[4]) and close(g[5], r[5]), (K.name, g, r)
            assert report.aggregate == max(p.residual for p in report.pairs)
            for record in report.norm_constancy:
                a = harmonic_basis(K, w, record.degree).vectors[:, record.index]
                variation = _norm_constancy_by_vertex(K, w, record.degree, a)
                assert close(record.variation, variation), K.name


def test_degrees_without_harmonic_cochains_keep_no_memo_entries():
    # S^2 x S^2 has b_1 = b_3 = 0: no split, residual or norm-record entry
    # is built for those degrees, and their empty bases have residual 0
    K = product_complex(sphere(2), sphere(2))
    w = random_weights(K, 8)
    formality_residual(K, w)
    built = {(tag, degrees) for tag, degrees, *_ in hodge._operators(K).entries}
    for k in (0, 2, 4):
        near = tuple(range(max(k - 1, 0), min(k + 1, K.dimension) + 1))
        assert {("split", (k,)), ("norms", (k,)), ("residual", near)} <= built, k
    for k in (1, 3):
        near = (k - 1, k, k + 1)
        assert not built & {("split", (k,)), ("norms", (k,)), ("residual", near)}, k
        basis = harmonic_basis(K, w, k)
        assert basis.residual == 0.0 and basis.cardinality == 0
    assert built == {(tag, degrees) for tag, degrees, *_ in hodge._operators(K).entries}
    # the norm entries hold records only, no copy of a basis
    entries = hodge._operators(K).entries.items()
    norms = [value for (tag, *_), value in entries if tag == "norms"]
    assert len(norms) == 3
    assert not any(isinstance(r, np.ndarray) for value in norms for r in value)


@pytest.mark.parametrize(
    "K", [torus(2), product_complex(sphere(2), sphere(2))], ids=lambda K: K.name
)
def test_cup_reads_each_certified_basis_in_place(K, monkeypatch):
    # the rows the probe multiplies are the stored basis, transposed as a
    # C-contiguous view, not a copy
    w = random_weights(K, 3)
    factors = []

    def recording_cup(K, A, k, B, l):
        factors.extend([(k, A), (l, B)])
        return cup(K, A, k, B, l)

    monkeypatch.setattr(formality, "cup", recording_cup)
    formality_residual(K, w)
    degrees = {k for k, _ in factors}
    assert degrees == {k for k in range(K.dimension + 1) if betti_numbers(K)[k]}
    for k, rows in factors:
        assert rows.flags.c_contiguous, k
        assert np.shares_memory(rows, harmonic_basis(K, w, k).vectors), k


def test_warm_and_fresh_complexes_agree_bitwise(s2xs2):
    # every per-complex structure (operators, factors, memo entries) must
    # leave a report exactly as a freshly built complex gives it, also after
    # a second base has evicted the first one's entries
    K = s2xs2
    first = base = random_weights(K, 11)
    formality_residual(K, base)
    memo = hodge._operators(K).entries
    rng = np.random.default_rng(5)
    for step in range(60):
        if step == 20:
            base = random_weights(K, 12)
        k = int(rng.integers(K.dimension + 1))
        scaled = base.degree(k).copy()
        scaled[rng.integers(len(scaled))] *= float(np.exp(rng.choice([-0.5, 0.5])))
        candidate = base.replace(k, scaled)
        fresh = product_complex(sphere(2), sphere(2))
        assert formality_residual(K, candidate).to_dict() == formality_residual(
            fresh, candidate
        ).to_dict()
        assert len(memo) <= hodge._MEMO_SIZE
    assert not any(part in first.keys for key in memo for part in key[2:])


def test_report_lists_every_ordered_pair_once_in_sorted_order(tori):
    for K in (tori[2], product_complex(sphere(2), sphere(2))):
        report = formality_residual(K, unit_weights(K))
        n = K.dimension
        counts = [harmonic_basis(K, unit_weights(K), k).cardinality for k in range(n + 1)]
        want = sorted(
            (k, l, i, j)
            for k in range(n + 1)
            for l in range(n + 1 - k)
            for i in range(counts[k])
            for j in range(counts[l])
        )
        got = [(p.degree_a, p.degree_b, p.index_a, p.index_b) for p in report.pairs]
        assert got == want, K.name


def test_torus_aggregate_is_max_over_pairs(tori):
    K = tori[2]
    report = formality_residual(K, unit_weights(K))
    assert report.aggregate == max(p.residual for p in report.pairs)
    non_unit = [p for p in report.pairs if not p.unit_pair]
    # both orders of the mixed pair are recorded
    keys = {(p.degree_a, p.index_a, p.degree_b, p.index_b) for p in non_unit}
    assert (1, 0, 1, 1) in keys and (1, 1, 1, 0) in keys


def test_genus_two_aggregate_exceeds_threshold(surfaces):
    K = surfaces[2]
    assert formality_residual(K, unit_weights(K)).aggregate > 1e-3
    for seed in range(3):
        assert formality_residual(K, random_weights(K, seed)).aggregate > 1e-3


def test_aggregate_invariant_under_single_degree_scaling(tori):
    K = tori[2]
    w = random_weights(K, 40)
    before = formality_residual(K, w).aggregate
    for k in range(3):
        scaled = w.replace(k, 7.5 * w.degree(k))
        after = formality_residual(K, scaled).aggregate
        assert abs(after - before) < 1e-9


def test_norm_records_cover_every_basis_vector(tori):
    K = tori[2]
    report = formality_residual(K, unit_weights(K))
    assert {(r.degree, r.index) for r in report.norm_constancy} == {
        (0, 0),
        (1, 0),
        (1, 1),
        (2, 0),
    }


# ---------------------------------------------------------------------------
# weight search


def test_search_on_sphere_returns_immediately(spheres):
    weights, trace = search_formal_weights(spheres[3], SearchConfig())
    assert trace == [0.0]
    assert all(np.all(v == 1.0) for v in weights.by_degree)


def test_search_trace_monotone_and_bounded(tori):
    K = tori[2]
    for seed in range(2):
        initial = random_weights(K, seed)
        cfg = SearchConfig(max_iterations=2, seed=seed)
        _, trace = search_formal_weights(K, cfg, initial)
        assert all(x >= y for x, y in zip(trace, trace[1:]))
        assert trace[-1] <= trace[0]


def test_search_deterministic_per_seed(tori):
    K = tori[2]
    cfg = SearchConfig(max_iterations=2, seed=11)
    initial = random_weights(K, 11)
    again = random_weights(K, 11)
    _, trace_one = search_formal_weights(K, cfg, initial)
    _, trace_two = search_formal_weights(K, cfg, again)
    assert trace_one == trace_two


def test_search_from_unit_weights_does_not_regress(tori):
    K = tori[2]
    baseline = formality_residual(K, unit_weights(K)).aggregate
    _, trace = search_formal_weights(K, SearchConfig(max_iterations=1, seed=3))
    assert trace[-1] <= baseline + 1e-12


def test_search_keeps_weights_positive(tori):
    K = tori[2]
    cfg = SearchConfig(max_iterations=1, seed=5)
    weights, _ = search_formal_weights(K, cfg, random_weights(K, 5))
    assert all(np.all(arr > 0) for arr in weights.by_degree)


def test_search_does_not_accept_round_off(tori):
    # from these weights the only "improvement" the first sweep finds is
    # 2.2e-16, an algebraically equal aggregate
    K = tori[2]
    cfg = SearchConfig(max_iterations=2, seed=1)
    _, trace = search_formal_weights(K, cfg, random_weights(K, 1))
    assert len(trace) == 1, trace


def test_search_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(max_iterations=-1)


def test_degree_zero_weights_change_no_residual(tori, s2xs2, surfaces):
    rng = np.random.default_rng(7)
    for K in (tori[2], s2xs2, surfaces[2]):
        w = random_weights(K, 0)
        moved = w.replace(0, w.degree(0) * np.exp(rng.uniform(-2, 2, K.vertex_count)))
        base, other = formality_residual(K, w), formality_residual(K, moved)
        assert base.aggregate == other.aggregate, K.name
        assert [p.residual for p in base.pairs] == [p.residual for p in other.pairs]


def test_default_search_leaves_degree_zero_weights(tori, monkeypatch):
    from hodgeform import formality

    K = tori[2]
    initial = random_weights(K, 4)
    tried = []
    original = formality.formality_residual

    def recorded(K, w, *args):
        tried.append(w)
        return original(K, w, *args)

    monkeypatch.setattr(formality, "formality_residual", recorded)
    best, _ = search_formal_weights(K, SearchConfig(max_iterations=1, seed=4), initial)
    # every coordinate of degrees 1 and 2, in both directions, and none of degree 0
    assert len(tried) == 1 + 2 * (K.simplex_count(1) + K.simplex_count(2))
    for w in (*tried, best):
        assert np.array_equal(w.degree(0), initial.degree(0))


def test_search_checks_degrees_before_evaluating(tori, monkeypatch):
    from hodgeform import formality

    calls = []
    original = formality.formality_residual

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(formality, "formality_residual", counted)
    for degrees in ((7,), (-1,), (1, 1), (2, 1, 2)):
        with pytest.raises(ValueError):
            search_formal_weights(tori[2], SearchConfig(free_degrees=degrees))
        assert calls == [], degrees


def test_search_rejects_bad_degrees(tori):
    cfg = SearchConfig(free_degrees=(5,))
    with pytest.raises(ValueError):
        search_formal_weights(tori[2], cfg)


def test_search_accepts_halves_and_stops_on_a_synthetic_objective(tori, monkeypatch):
    # No zoo complex gives the search a move it can accept, so the accept,
    # halve and stop rules run against a bowl in the free log-weights with
    # its one minimum 0.1 at off-lattice targets.
    from types import SimpleNamespace

    from hodgeform import formality

    K = tori[2]
    rng = np.random.default_rng(3)
    targets = [rng.uniform(-1, 1, K.simplex_count(k)) for k in (1, 2)]

    def bowl(w):
        return 0.1 + 0.001 * sum(
            float(np.sum((np.log(w.degree(k)) - t) ** 2)) for k, t in zip((1, 2), targets)
        )

    calls = []

    def synthetic(K, w, *args):
        calls.append(w)
        return SimpleNamespace(aggregate=bowl(w))

    monkeypatch.setattr(formality, "formality_residual", synthetic)
    initial = random_weights(K, 2)
    max_iterations = 200
    cfg = SearchConfig(max_iterations=max_iterations, seed=8)
    best, trace = search_formal_weights(K, cfg, initial)

    assert len(trace) > 1
    assert all(a - b > 1e-12 for a, b in zip(trace, trace[1:]))
    assert bowl(best) == trace[-1]
    assert np.array_equal(best.degree(0), initial.degree(0))
    # a sweep evaluates every free coordinate at least once, so fewer
    # evaluations than this mean the search stopped by its own rule
    coords = K.simplex_count(1) + K.simplex_count(2)
    assert len(calls) < 1 + max_iterations * coords
    # the step halved: some moves are not multiples of the first step 0.5
    moved = np.concatenate([np.log(best.degree(k) / initial.degree(k)) for k in (1, 2)])
    assert np.any(np.abs(moved / 0.5 - np.round(moved / 0.5)) > 1e-6)
    assert trace[-1] - 0.1 < 1e-5

    again, again_trace = search_formal_weights(K, cfg, random_weights(K, 2))
    assert again_trace == trace
    assert all(a.tobytes() == b.tobytes() for a, b in zip(again.by_degree, best.by_degree))


def test_search_stops_after_a_sweep_that_gains_too_little(tori, monkeypatch):
    # Raising any free log-weight by the first step 0.5 lowers the synthetic
    # objective by 5e-9, so the first sweep accepts one move per coordinate
    # and gains 45 * 5e-9 < 1e-6 in total on torus:2; the search must stop
    # there instead of sweeping again.
    from types import SimpleNamespace

    from hodgeform import formality

    K = tori[2]
    initial = random_weights(K, 6)
    targets = [np.log(initial.degree(k)) + 0.5 for k in (1, 2)]

    def shallow(w):
        return 0.5 + 1e-8 * sum(
            float(np.sum(np.abs(np.log(w.degree(k)) - t))) for k, t in zip((1, 2), targets)
        )

    calls = []

    def synthetic(K, w, *args):
        calls.append(w)
        return SimpleNamespace(aggregate=shallow(w))

    monkeypatch.setattr(formality, "formality_residual", synthetic)
    best, trace = search_formal_weights(K, SearchConfig(max_iterations=20, seed=1), initial)

    coords = K.simplex_count(1) + K.simplex_count(2)
    assert len(calls) == 1 + coords
    assert len(trace) == 1 + coords
    assert all(a - b > 1e-12 for a, b in zip(trace, trace[1:]))
    assert trace[0] - trace[-1] < 1e-6
