"""Simplicial complexes over a single global vertex order.

Vertices are dense nonnegative integers and every simplex is stored as a
strictly increasing tuple.  All sign conventions used downstream (boundary
operators, cup products, fundamental classes) derive from this one order, so
no other module ever has to reconcile orientations of vertex lists.
"""

from __future__ import annotations

import itertools
import json
import operator
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

__all__ = [
    "SimplicialComplex",
    "build_complex",
    "is_closed_pseudomanifold",
    "orient",
    "product_complex",
    "connected_sum",
    "sphere",
    "torus",
    "surface",
    "load_complex",
    "save_complex",
    "load_bundled_complex",
    "complex_to_dict",
]


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Downward-closed finite simplicial complex with dense vertex ids.

    ``simplices_by_dim[k]`` holds the k-simplices as strictly increasing
    vertex tuples, sorted lexicographically; the position of a simplex in
    that list is its index everywhere else (boundary matrices, cochain
    values, metric weights).

    Instances are immutable and compared by identity, so they can key
    caches cheaply.  Construct via :func:`build_complex` or one of the
    generators, which validate the invariants.
    """

    vertex_count: int
    simplices_by_dim: tuple[tuple[tuple[int, ...], ...], ...]
    name: str = ""

    @property
    def dimension(self) -> int:
        return len(self.simplices_by_dim) - 1

    @property
    def f_vector(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.simplices_by_dim)

    @property
    def facets(self) -> tuple[tuple[int, ...], ...]:
        return self.simplices_by_dim[-1]

    def simplices(self, k: int) -> tuple[tuple[int, ...], ...]:
        """All k-simplices, or () when the degree is out of range."""
        if 0 <= k < len(self.simplices_by_dim):
            return self.simplices_by_dim[k]
        return ()

    def simplex_count(self, k: int) -> int:
        return len(self.simplices(k))

    @cached_property
    def _index_maps(self) -> tuple[dict[tuple[int, ...], int], ...]:
        return tuple(
            {simplex: i for i, simplex in enumerate(level)}
            for level in self.simplices_by_dim
        )

    @cached_property
    def _derived(self) -> dict:
        return {}

    def derived(self, key: str, build):
        """``build(self)``, computed on first use and kept with the complex.

        Results that depend on the complex alone live here, so each is
        built once per complex and dropped with it: the face index arrays
        of :meth:`faces`, closedness and orientation from one facet-graph
        walk, the exact reduction with its coboundary operators, and the
        vertex incidence used by the localized norms.
        """
        try:
            return self._derived[key]
        except KeyError:
            value = self._derived[key] = build(self)
            return value

    def index_of(self, simplex: tuple[int, ...], k: int) -> int:
        """Index of a k-simplex in the degree-k list."""
        return self._index_maps[k][tuple(simplex)]

    def faces(self, k: int, positions) -> np.ndarray:
        """For every k-simplex, the index of its face spanned by the vertices
        at ``positions`` (strictly increasing, within 0..k), as an int64
        array.  Built once per complex."""
        positions = tuple(positions)

        def build(K: SimplicialComplex) -> np.ndarray:
            # checked here, once: only valid positions ever reach the memo
            if not positions or positions != tuple(sorted(set(range(k + 1)) & set(positions))):
                raise ValueError(f"{positions} are not increasing positions in 0..{k}")
            index = K._index_maps[len(positions) - 1]
            keys = map(operator.itemgetter(*positions), K.simplices(k))
            if len(positions) == 1:
                keys = zip(keys)  # a one-item getter returns the bare vertex
            return np.fromiter(map(index.__getitem__, keys), np.int64, K.simplex_count(k))

        return self.derived(f"faces:{k}:{positions}", build)


def _vertex_id(v) -> int:
    # bool subclasses int, but true and false are not vertex ids
    if isinstance(v, bool):
        raise TypeError("a boolean is not a vertex id")
    return operator.index(v)


def _validate_facet(facet) -> tuple[int, ...]:
    try:
        vertices = tuple(map(_vertex_id, facet))
    except TypeError:
        raise ValueError(f"facet {facet!r} has a non-integer vertex id") from None
    if not vertices:
        raise ValueError("a facet needs at least one vertex")
    if len(set(vertices)) != len(vertices):
        raise ValueError(f"facet {facet!r} repeats a vertex")
    if any(v < 0 for v in vertices):
        raise ValueError(f"facet {facet!r} has a negative vertex id")
    return tuple(sorted(vertices))


def build_complex(facets, name: str = "") -> SimplicialComplex:
    """Build the downward closure of a list of equal-arity facets.

    Vertex ids are renumbered densely (order-preserving), faces are
    deduplicated, and every dimension is sorted lexicographically so index
    assignment is deterministic.
    """
    facets = list(facets)
    if not facets:
        raise ValueError("facet list is empty")
    canonical = [_validate_facet(f) for f in facets]
    arities = {len(f) for f in canonical}
    if len(arities) != 1:
        raise ValueError(f"facets have mixed arities {sorted(arities)}")
    n = arities.pop() - 1

    used = sorted({v for f in canonical for v in f})
    relabel = {v: i for i, v in enumerate(used)}
    facet_set = {tuple(relabel[v] for v in f) for f in canonical}

    levels: list[set[tuple[int, ...]]] = [set() for _ in range(n + 1)]
    for f in facet_set:
        for k in range(n + 1):
            levels[k].update(itertools.combinations(f, k + 1))
    return SimplicialComplex(
        vertex_count=len(used),
        simplices_by_dim=tuple(tuple(sorted(level)) for level in levels),
        name=name,
    )


def _ridge_incidence(K: SimplicialComplex) -> np.ndarray:
    """Ridge index of every (facet, omitted position) slot: entry [f, p] is
    the (n-1)-face of facet f without its p-th vertex."""
    n = K.dimension
    return np.column_stack(
        [K.faces(n, (*range(p), *range(p + 1, n + 1))) for p in range(n + 1)]
    )


def _facet_graph(K: SimplicialComplex) -> tuple[bool, tuple[int, ...] | None]:
    """(closed, facet signs) from one walk over the facet adjacency graph.

    Closed means every ridge lies in exactly two facets and the walk from
    facet 0 reaches every facet.  The walk gives each facet the sign that
    cancels the induced orientation of the ridge it was reached through;
    the signs are None unless every ridge then cancels.
    """
    facet_count = len(K.facets)
    n = K.dimension
    if n == 0 or not facet_count:
        closed = facet_count == 1
        return closed, (1,) if closed else None
    slots = _ridge_incidence(K).ravel()
    if np.any(np.bincount(slots, minlength=K.simplex_count(n - 1)) != 2):
        return False, None
    # the two slots of each ridge, as (facet, omitted position)
    facet, pos = np.divmod(np.argsort(slots, kind="stable").reshape(-1, 2).T, n + 1)
    # induced ridge orientations cancel: sign[f] (-1)^pf + sign[g] (-1)^pg = 0
    flips = -((-1) ** (pos[0] + pos[1]))
    neighbours: list[list[tuple[int, int]]] = [[] for _ in range(facet_count)]
    for f, g, flip in zip(facet[0].tolist(), facet[1].tolist(), flips.tolist()):
        neighbours[f].append((g, flip))
        neighbours[g].append((f, flip))
    signs = [1] + [0] * (facet_count - 1)
    stack = [0]
    while stack:
        f = stack.pop()
        for g, flip in neighbours[f]:
            if not signs[g]:
                signs[g] = flip * signs[f]
                stack.append(g)
    if not all(signs):
        return False, None
    signed = np.array(signs)
    consistent = np.array_equal(signed[facet[1]], flips * signed[facet[0]])
    return True, tuple(signs) if consistent else None


def is_closed_pseudomanifold(K: SimplicialComplex) -> bool:
    """True iff every ridge lies in exactly two facets and the facet
    adjacency graph is connected.  Computed once per complex."""
    return K.derived("facet_graph", _facet_graph)[0]


def orient(K: SimplicialComplex) -> tuple[int, ...] | None:
    """A consistent sign per facet, propagated across ridges so that induced
    ridge orientations cancel; None when no such choice exists.

    The facet with the lexicographically smallest vertex tuple gets +1, so
    the result is deterministic.  Computed once per complex.
    """
    closed, signs = K.derived("facet_graph", _facet_graph)
    if not closed:
        raise ValueError("orient requires a closed pseudomanifold")
    return signs


def product_complex(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """Staircase triangulation of the product of two pure complexes.

    Vertices are pairs ordered lexicographically; the facets over a facet
    pair (sigma, tau) are the monotone lattice paths from (sigma_0, tau_0)
    to (sigma_p, tau_q), giving C(p+q, p) simplices per pair.  Because the
    path diagonalization is determined by the global vertex orders, shared
    faces of neighboring cells agree and the result is again a complex.
    """
    if not K1.facets or not K2.facets:
        raise ValueError("product requires nonempty complexes")
    width = K2.vertex_count

    def pair_id(u: int, v: int) -> int:
        return u * width + v

    facets: list[tuple[int, ...]] = []
    for s in K1.facets:
        p = len(s) - 1
        for t in K2.facets:
            q = len(t) - 1
            for rights in itertools.combinations(range(p + q), p):
                rset = set(rights)
                i = j = 0
                chain = [pair_id(s[0], t[0])]
                for step in range(p + q):
                    if step in rset:
                        i += 1
                    else:
                        j += 1
                    chain.append(pair_id(s[i], t[j]))
                facets.append(tuple(chain))
    name = f"product:{K1.name or '?'},{K2.name or '?'}"
    return build_complex(facets, name=name)


def connected_sum(K1: SimplicialComplex, K2: SimplicialComplex) -> SimplicialComplex:
    """Remove one facet from each summand and glue the boundary spheres.

    The glued bijection matches sorted vertex positions, and the sum is
    built once: every glued ridge asks for the same global sign
    -s1(f1) s2(f2) on the second summand, whose orientation is free up to
    that sign, so the gluing always orients (RuntimeError if it does not).
    Inputs must be closed, orientable and of equal dimension.
    """
    n = K1.dimension
    if K2.dimension != n:
        raise ValueError(f"dimension mismatch: {n} vs {K2.dimension}")
    for K in (K1, K2):
        if not is_closed_pseudomanifold(K):
            raise ValueError("connected sum requires closed pseudomanifolds")
        if orient(K) is None:
            raise ValueError("connected sum requires orientable summands")

    f1 = K1.facets[0]
    f2 = K2.facets[0]
    outside2 = sorted(set(range(K2.vertex_count)) - set(f2))
    relabel = dict(zip(f2, f1))
    relabel.update({v: K1.vertex_count + i for i, v in enumerate(outside2)})
    glued = [tuple(sorted(relabel[v] for v in facet)) for facet in K2.facets[1:]]
    name = f"connsum:{K1.name or '?'},{K2.name or '?'}"
    K = build_complex(list(K1.facets[1:]) + glued, name=name)
    if orient(K) is None:
        raise RuntimeError("the glued connected sum is not orientable")
    return K


def sphere(n: int) -> SimplicialComplex:
    """Boundary of the (n+1)-simplex."""
    if n < 1:
        raise ValueError("sphere(n) requires n >= 1")
    facets = itertools.combinations(range(n + 2), n + 1)
    return build_complex(list(facets), name=f"sphere:{n}")


def torus(n: int) -> SimplicialComplex:
    """n-fold staircase product of the 3-vertex circle."""
    if n < 1:
        raise ValueError("torus(n) requires n >= 1")
    K = sphere(1)
    for _ in range(n - 1):
        K = product_complex(K, sphere(1))
    return SimplicialComplex(K.vertex_count, K.simplices_by_dim, name=f"torus:{n}")


def surface(g: int) -> SimplicialComplex:
    """Closed orientable surface of genus g (iterated connected sum of tori)."""
    if g < 0:
        raise ValueError("surface(g) requires g >= 0")
    if g == 0:
        K = sphere(2)
    else:
        K = torus(2)
        for _ in range(g - 1):
            K = connected_sum(K, torus(2))
    return SimplicialComplex(K.vertex_count, K.simplices_by_dim, name=f"surface:{g}")


def complex_to_dict(K: SimplicialComplex) -> dict:
    return {"name": K.name, "facets": [list(f) for f in K.facets]}


def save_complex(K: SimplicialComplex, path) -> None:
    Path(path).write_text(
        json.dumps(complex_to_dict(K), sort_keys=True, indent=2) + "\n"
    )


def read_json(path):
    """The parsed contents of a JSON file; a file that is not JSON text
    raises ValueError naming the path."""
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: not valid JSON ({exc})") from exc


def load_complex(path) -> SimplicialComplex:
    """Load and canonicalize a complex file: {"name": str, "facets": [[int,...],...]}."""
    payload = read_json(path)
    if not isinstance(payload, dict) or "facets" not in payload:
        raise ValueError(f"{path}: expected an object with a 'facets' key")
    name = payload.get("name", "")
    if not isinstance(name, str):
        raise ValueError(f"{path}: 'name' must be a string")
    facets = payload["facets"]
    if not isinstance(facets, list) or not all(isinstance(f, list) for f in facets):
        raise ValueError(f"{path}: 'facets' must be a list of vertex lists")
    return build_complex(facets, name=name)


def load_bundled_complex(name: str) -> SimplicialComplex:
    """Load a triangulation shipped with the package (e.g. 'projective_plane')."""
    data = resources.files("hodgeform.data").joinpath(f"{name}.json")
    payload = json.loads(data.read_text())
    return build_complex(payload["facets"], name=payload.get("name", name))
