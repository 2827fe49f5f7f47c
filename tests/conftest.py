import pytest

from hodgeform.complexes import (
    build_complex,
    connected_sum,
    load_bundled_complex,
    product_complex,
    sphere,
    surface,
    torus,
)


@pytest.fixture(scope="session")
def spheres():
    return {n: sphere(n) for n in range(1, 5)}


@pytest.fixture(scope="session")
def tori():
    return {n: torus(n) for n in range(1, 5)}


@pytest.fixture(scope="session")
def surfaces():
    return {g: surface(g) for g in range(0, 4)}


@pytest.fixture(scope="session")
def s2xs2(spheres):
    return product_complex(spheres[2], spheres[2])


@pytest.fixture(scope="session")
def torus3_sum(tori):
    """T^3 # T^3, Betti (1, 6, 6, 1): its N_2 and N_3 have 317 and 321
    rows, above the dense cut."""
    return connected_sum(tori[3], tori[3])


@pytest.fixture(scope="session")
def rp2():
    return load_bundled_complex("projective_plane")


@pytest.fixture(scope="session")
def pinched_torus():
    """S^2 as a triangular antiprism capped by two cones (12 facets), with
    the two apexes, at distance 3, identified into vertex 0: a closed
    orientable pseudomanifold with Betti (1, 1, 1) and a zero pairing."""
    return build_complex(
        [
            (0, 1, 2), (0, 2, 3), (0, 1, 3),
            (1, 2, 4), (2, 4, 5), (2, 3, 5), (3, 5, 6), (1, 3, 6), (1, 4, 6),
            (0, 4, 5), (0, 5, 6), (0, 4, 6),
        ],
        name="pinched_torus",
    )


@pytest.fixture(scope="session")
def pinched_torus_squared(pinched_torus):
    return product_complex(pinched_torus, pinched_torus)


@pytest.fixture(scope="session")
def zoo(spheres, tori, surfaces, s2xs2, rp2):
    """Every generated complex the suites sweep over."""
    members = {}
    members.update({f"sphere:{n}": K for n, K in spheres.items()})
    members.update({f"torus:{n}": K for n, K in tori.items()})
    members.update({f"surface:{g}": K for g, K in surfaces.items()})
    members["product:sphere:2,sphere:2"] = s2xs2
    members["projective_plane"] = rp2
    return members


@pytest.fixture(scope="session")
def small_zoo(zoo):
    """Zoo members cheap enough for dense / brute-force oracles."""
    return {
        name: K
        for name, K in zoo.items()
        if sum(K.f_vector) <= 1200
    }


@pytest.fixture(scope="session")
def suspended_torus3(tori):
    """The suspension of T^3: its 162 facets coned to two new apexes.  A
    closed orientable pseudomanifold with Betti (1, 0, 3, 3, 1), so
    Poincare duality fails."""
    T = tori[3]
    a = T.vertex_count
    return build_complex(
        [(*f, a) for f in T.facets] + [(*f, a + 1) for f in T.facets],
        name="suspension:torus:3",
    )
