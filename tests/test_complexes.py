import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hodgeform.complexes import (
    build_complex,
    connected_sum,
    is_closed_pseudomanifold,
    load_bundled_complex,
    load_complex,
    orient,
    product_complex,
    save_complex,
    sphere,
    surface,
    torus,
)
from hodgeform.homology import betti_numbers, boundary_matrix, euler_characteristic
from hodgeform.obstructions import check_obstructions, summarize


# ---------------------------------------------------------------------------
# build_complex


def test_boundary_of_tetrahedron_face_vector():
    K = build_complex(list(itertools.combinations(range(4), 3)))
    assert K.f_vector == (4, 6, 4)


def test_single_edge_face_vector():
    assert build_complex([(0, 1)]).f_vector == (2, 1)


def test_degenerate_facet_rejected():
    with pytest.raises(ValueError):
        build_complex([(0, 0, 1)])


def test_empty_facet_list_rejected():
    with pytest.raises(ValueError):
        build_complex([])


def test_one_vertex_complex_loads(tmp_path):
    path = tmp_path / "point.json"
    path.write_text(json.dumps({"facets": [[0]]}))
    K = load_complex(path)
    assert K.f_vector == (1,)
    assert is_closed_pseudomanifold(K)
    assert betti_numbers(K) == (1,)


def test_faces_match_index_of_on_every_position_set(small_zoo):
    for K in small_zoo.values():
        for k in range(K.dimension + 1):
            for size in range(1, k + 2):
                for positions in itertools.combinations(range(k + 1), size):
                    expected = [
                        K.index_of(tuple(s[p] for p in positions), size - 1)
                        for s in K.simplices(k)
                    ]
                    got = K.faces(k, positions)
                    assert got.dtype == np.int64
                    assert got.tolist() == expected
                    assert K.faces(k, list(positions)) is got


def test_faces_rejects_bad_positions(tori):
    K = tori[2]
    for positions in ((), (1, 0), (0, 0), (-1, 0), (0, 3)):
        with pytest.raises(ValueError):
            K.faces(2, positions)


def test_mixed_arity_rejected():
    with pytest.raises(ValueError):
        build_complex([(0, 1), (0, 1, 2)])


def test_negative_vertex_rejected():
    with pytest.raises(ValueError):
        build_complex([(-1, 0)])


def test_boolean_vertex_ids_rejected(tmp_path):
    # bool subclasses int, but true and false are not the vertex ids 1 and 0
    facets = [[True, False, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
    with pytest.raises(ValueError, match="non-integer vertex id"):
        build_complex(facets)
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"name": "b", "facets": facets}))
    with pytest.raises(ValueError, match="non-integer vertex id"):
        load_complex(path)


def test_vertices_renumbered_densely():
    K = build_complex([(10, 20), (20, 42)])
    assert K.vertex_count == 3
    assert K.simplices(1) == ((0, 1), (1, 2))


def test_duplicate_facets_deduplicated():
    K = build_complex([(0, 1, 2), (2, 1, 0)])
    assert K.f_vector == (3, 3, 1)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(0, 7), min_size=3, max_size=3, unique=True),
        min_size=1,
        max_size=12,
    )
)
def test_build_complex_invariants(facets):
    K = build_complex(facets)
    # strictly increasing tuples, sorted and duplicate-free per dimension
    for level in K.simplices_by_dim:
        assert list(level) == sorted(set(level))
        for s in level:
            assert all(a < b for a, b in zip(s, s[1:]))
    # downward closure
    for k in range(1, K.dimension + 1):
        lower = set(K.simplices(k - 1))
        for s in K.simplices(k):
            for face in itertools.combinations(s, k):
                assert face in lower
    # top dimension is the largest nonempty degree
    assert len(K.simplices_by_dim[-1]) > 0


# ---------------------------------------------------------------------------
# closedness and orientability


def test_sphere_boundary_is_closed(spheres):
    assert is_closed_pseudomanifold(spheres[2])


def test_single_triangle_is_not_closed():
    assert not is_closed_pseudomanifold(build_complex([(0, 1, 2)]))


def test_disjoint_spheres_not_closed():
    two = list(itertools.combinations(range(4), 3)) + [
        tuple(v + 4 for v in f) for f in itertools.combinations(range(4), 3)
    ]
    assert not is_closed_pseudomanifold(build_complex(two))


def test_one_dimensional_facet_graphs_not_closed():
    # two disjoint 3-cycles: every vertex lies in two edges, but the walk
    # from edge 0 misses half of them; a figure-eight: vertex 0 lies in four
    two = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]
    eight = [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)]
    for facets in (two, eight):
        K = build_complex(facets)
        assert not is_closed_pseudomanifold(K), facets
        with pytest.raises(ValueError):
            orient(K)


def test_orient_sphere_exists(spheres):
    assert orient(spheres[2]) is not None


def test_orient_staircase_torus_exists(tori):
    assert orient(tori[2]) is not None


def _orientable_by_brute_force(K):
    """Try all sign assignments; independent of the propagation code."""
    n = K.dimension
    incidence = {}
    for fi, facet in enumerate(K.facets):
        for pos in range(n + 1):
            ridge = facet[:pos] + facet[pos + 1 :]
            incidence.setdefault(ridge, []).append((fi, pos))
    for bits in itertools.product((1, -1), repeat=len(K.facets)):
        if all(
            bits[a] * (-1) ** pa + bits[b] * (-1) ** pb == 0
            for (a, pa), (b, pb) in incidence.values()
        ):
            return True
    return False


def test_projective_plane_non_orientable_matches_brute_force(rp2):
    assert rp2.f_vector == (6, 15, 10)
    assert is_closed_pseudomanifold(rp2)
    assert not _orientable_by_brute_force(rp2)
    assert orient(rp2) is None


def test_orient_agrees_with_brute_force_on_small_closed_complexes(spheres, tori):
    for K in (spheres[1], spheres[2], tori[2]):
        assert _orientable_by_brute_force(K)
        assert orient(K) is not None


def test_orientation_cancels_boundary(spheres, tori, surfaces):
    # the signed sum of facet boundaries must vanish identically
    for K in (spheres[2], spheres[3], tori[2], surfaces[2]):
        signs = np.asarray(orient(K), dtype=np.int64)
        total = boundary_matrix(K, K.dimension) @ signs
        assert not total.any()


def test_orient_requires_closed_complex():
    with pytest.raises(ValueError):
        orient(build_complex([(0, 1, 2)]))


# ---------------------------------------------------------------------------
# products


def test_product_of_circles_is_staircase_torus(spheres):
    K = product_complex(spheres[1], spheres[1])
    assert K.vertex_count == 9
    assert len(K.facets) == 3 * 3 * math.comb(2, 1)
    assert K.f_vector == (9, 27, 18)


def test_product_with_point_is_identity(tori):
    point = build_complex([(0,)])
    K = product_complex(tori[2], point)
    assert K.simplices_by_dim == tori[2].simplices_by_dim


def test_product_of_two_sphere_boundaries_facet_count(s2xs2):
    assert len(s2xs2.facets) == 4 * 4 * math.comb(4, 2)


def test_product_facet_count_formula(spheres, tori):
    # staircase count: f_n(K1) * f_m(K2) * C(n+m, n) for pure inputs
    cases = [(spheres[1], spheres[2]), (tori[2], spheres[1])]
    for a, b in cases:
        n, m = a.dimension, b.dimension
        expected = len(a.facets) * len(b.facets) * math.comb(n + m, n)
        assert len(product_complex(a, b).facets) == expected


def test_product_associative_on_face_counts(spheres):
    c = spheres[1]
    left = product_complex(product_complex(c, c), c)
    right = product_complex(c, product_complex(c, c))
    assert left.f_vector == right.f_vector


def test_product_of_closed_is_closed(spheres):
    K = product_complex(spheres[1], spheres[2])
    assert is_closed_pseudomanifold(K)
    assert orient(K) is not None


# ---------------------------------------------------------------------------
# connected sums


def test_genus_two_from_torus_sum(tori):
    K = connected_sum(tori[2], tori[2])
    assert is_closed_pseudomanifold(K)
    assert euler_characteristic(K) == -2
    assert betti_numbers(K) == (1, 4, 1)


def test_sum_with_sphere_keeps_betti(tori, spheres):
    K = connected_sum(tori[2], spheres[2])
    assert betti_numbers(K) == betti_numbers(tori[2])


def test_euler_characteristic_additivity(tori, spheres):
    pairs = [(tori[2], tori[2]), (tori[2], spheres[2]), (spheres[3], spheres[3])]
    for a, b in pairs:
        n = a.dimension
        chi_sphere = 2 if n % 2 == 0 else 0
        got = euler_characteristic(connected_sum(a, b))
        assert got == euler_characteristic(a) + euler_characteristic(b) - chi_sphere


def test_connected_sum_of_orientable_is_orientable(tori, spheres):
    for a, b in [(tori[2], tori[2]), (spheres[2], spheres[2])]:
        assert orient(connected_sum(a, b)) is not None


def test_connected_sum_glues_once_and_orients(small_zoo, monkeypatch):
    # the order-preserving gluing orients every equal-dimension pair of
    # orientable summands, each built by a single build_complex
    from hodgeform import complexes

    summands = [
        K for K in small_zoo.values() if is_closed_pseudomanifold(K) and orient(K) is not None
    ]
    builds = []
    original = complexes.build_complex

    def counted(*args, **kwargs):
        builds.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(complexes, "build_complex", counted)
    pairs = [(a, b) for a in summands for b in summands if a.dimension == b.dimension]
    assert len(pairs) >= 20
    for a, b in pairs:
        builds.clear()
        K = connected_sum(a, b)
        assert len(builds) == 1, (a.name, b.name)
        assert orient(K) is not None, (a.name, b.name)


def test_connected_sum_above_dimension_four(spheres):
    # (S^1 x S^4) # (S^1 x S^4): the gluing never reads the dimension, and
    # the elementary rules all pass on it
    s1s4 = product_complex(spheres[1], spheres[4])
    K = connected_sum(s1s4, s1s4)
    assert K.f_vector == (30, 201, 520, 705, 534, 178)
    assert betti_numbers(K) == (1, 2, 0, 0, 2, 1)
    assert orient(K) is not None
    report = check_obstructions(summarize(K))
    assert report.verdict == "passes-elementary-tests"
    assert not report.fired


def test_connected_sum_dimension_mismatch(tori, spheres):
    with pytest.raises(ValueError):
        connected_sum(tori[2], spheres[3])


def test_connected_sum_rejects_non_orientable(rp2):
    with pytest.raises(ValueError):
        connected_sum(rp2, rp2)


# ---------------------------------------------------------------------------
# generators


def test_sphere_face_vectors(spheres):
    assert spheres[4].f_vector == (6, 15, 20, 15, 6)
    assert spheres[3].f_vector == (5, 10, 10, 5)


def test_torus_counts(tori):
    assert tori[2].f_vector == (9, 27, 18)
    assert euler_characteristic(tori[2]) == 0
    assert euler_characteristic(tori[3]) == 0
    assert euler_characteristic(tori[4]) == 0


def test_surface_euler_characteristics(surfaces):
    for g, K in surfaces.items():
        assert euler_characteristic(K) == 2 - 2 * g


def test_generator_preconditions():
    with pytest.raises(ValueError):
        sphere(0)
    with pytest.raises(ValueError):
        torus(0)
    with pytest.raises(ValueError):
        surface(-1)


# ---------------------------------------------------------------------------
# file format


def test_save_load_roundtrip(tmp_path, tori):
    path = tmp_path / "t2.json"
    save_complex(tori[2], path)
    K = load_complex(path)
    assert K.simplices_by_dim == tori[2].simplices_by_dim
    assert K.name == tori[2].name


def test_loader_rejects_bad_payloads(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    with pytest.raises(ValueError):
        load_complex(bad)
    bad.write_text("{not json")
    with pytest.raises(ValueError):
        load_complex(bad)
    bad.write_text(json.dumps({"name": "x", "facets": "nope"}))
    with pytest.raises(ValueError):
        load_complex(bad)
    for vertex in (None, [1], 1.5):
        bad.write_text(json.dumps({"name": "x", "facets": [[0, 1, vertex]]}))
        with pytest.raises(ValueError):
            load_complex(bad)
    bad.write_text(json.dumps({"name": "x", "facets": [[]]}))
    with pytest.raises(ValueError):
        load_complex(bad)


def test_bundled_projective_plane_loads(rp2):
    again = load_bundled_complex("projective_plane")
    assert again.simplices_by_dim == rp2.simplices_by_dim
