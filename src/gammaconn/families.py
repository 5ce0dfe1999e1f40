"""Named graph families, Cartesian products, and their closed-form invariants."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import EmptyFactor, InvalidSpec, NonPositiveInput
from .graph import Graph, from_edge_list

_ARITY = {
    "path": 1,
    "cycle": 1,
    "complete": 1,
    "star": 1,
    "complete_bipartite": 2,
    "hypercube": 1,
    "hamming": 2,
    "grid3": 3,
    "torus": 2,
    "petersen": 0,
}


@dataclass(frozen=True)
class FamilySpec:
    """Tagged family descriptor, e.g. FamilySpec("cycle", (6,))."""

    kind: str
    params: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise InvalidSpec(f"unknown family {self.kind!r}")
        object.__setattr__(self, "params", tuple(int(p) for p in self.params))
        if len(self.params) != _ARITY[self.kind]:
            raise InvalidSpec(
                f"{self.kind} takes {_ARITY[self.kind]} parameter(s), got {len(self.params)}")
        if any(p < 1 for p in self.params):
            raise InvalidSpec(f"{self.kind} parameters must be >= 1: {self.params}")
        if self.kind == "cycle" and self.params[0] < 3:
            raise InvalidSpec("cycle needs n >= 3")
        if self.kind == "complete_bipartite" and self.params[0] < self.params[1]:
            raise InvalidSpec("complete_bipartite wants m >= n")
        if self.kind == "hamming" and self.params[1] < 2:
            raise InvalidSpec("hamming needs alphabet size s >= 2")
        if self.kind == "torus" and min(self.params) < 3:
            raise InvalidSpec("torus needs both cycle lengths >= 3")

    @property
    def n(self):
        """Vertex count of the member, from the parameters alone (nothing is built)."""
        kind, p = self.kind, self.params
        if kind == "complete_bipartite":
            return p[0] + p[1]
        if kind == "hypercube":
            return 2 ** p[0]
        if kind == "hamming":
            return p[1] ** p[0]
        if kind in ("grid3", "torus"):
            return math.prod(p)
        if kind == "petersen":
            return 10
        return p[0]

    def __str__(self):
        if self.params:
            return f"{self.kind}({','.join(map(str, self.params))})"
        return self.kind


def path_graph(n):
    ids = np.arange(n - 1)
    return from_edge_list(n, np.stack([ids, ids + 1], axis=1))


def cycle_graph(n):
    ids = np.arange(n)
    return from_edge_list(n, np.stack([ids, (ids + 1) % n], axis=1))


def complete_graph(n):
    return from_edge_list(n, np.stack(np.triu_indices(n, 1), axis=1))


def star_graph(n):
    ids = np.arange(1, n)
    return from_edge_list(n, np.stack([np.zeros(n - 1, dtype=np.int64), ids], axis=1))


def complete_bipartite_graph(m, n):
    left = np.repeat(np.arange(m), n)
    right = np.tile(np.arange(m, m + n), m)
    return from_edge_list(m + n, np.stack([left, right], axis=1))


def petersen_graph():
    # Kneser construction: 2-subsets of a 5-set, adjacent iff disjoint
    verts = list(combinations(range(5), 2))
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[a], index[b]) for a, b in combinations(verts, 2)
             if not set(a) & set(b)]
    return from_edge_list(10, edges)


def cartesian_product(graphs) -> Graph:
    """Cartesian product with row-major vertex ids (last factor fastest).

    A product vertex (u_1, ..., u_k) gets id ((u_1*n_2 + u_2)*n_3 + ...);
    two vertices are adjacent iff they agree in all but one coordinate and
    are adjacent there. Built as a left fold of the binary product.
    """
    graphs = list(graphs)
    if len(graphs) < 2:
        raise ValueError("a Cartesian product needs at least 2 factors")
    for g in graphs:
        if g.n < 1:
            raise EmptyFactor("every factor must have at least one vertex")
    out = graphs[0]
    for g in graphs[1:]:
        out = _binary_product(out, g)
    return out


def _binary_product(a, b):
    shift = np.arange(b.n)
    from_a = (a.edges[:, None, :] * b.n + shift[None, :, None]).reshape(-1, 2)
    base = (np.arange(a.n) * b.n)[:, None, None]
    from_b = (b.edges[None, :, :] + base).reshape(-1, 2)
    return from_edge_list(a.n * b.n, np.concatenate([from_a, from_b]))


def generate(spec: FamilySpec) -> Graph:
    """The canonical member of a family; product families fold the binary product."""
    kind, p = spec.kind, spec.params
    if kind == "path":
        return path_graph(p[0])
    if kind == "cycle":
        return cycle_graph(p[0])
    if kind == "complete":
        return complete_graph(p[0])
    if kind == "star":
        return star_graph(p[0])
    if kind == "complete_bipartite":
        return complete_bipartite_graph(p[0], p[1])
    if kind == "hypercube":
        factors = [complete_graph(2)] * p[0]
        return factors[0] if p[0] == 1 else cartesian_product(factors)
    if kind == "hamming":
        factors = [complete_graph(p[1])] * p[0]
        return factors[0] if p[0] == 1 else cartesian_product(factors)
    if kind == "grid3":
        return cartesian_product([path_graph(p[0]), path_graph(p[1]), path_graph(p[2])])
    if kind == "torus":
        return cartesian_product([cycle_graph(p[0]), cycle_graph(p[1])])
    return petersen_graph()


def closed_form_gamma(spec: FamilySpec) -> Fraction:
    """Exact invariant of a family member straight from its closed form."""
    kind, p = spec.kind, spec.params
    if kind == "path":
        if p[0] < 2:
            raise InvalidSpec("path closed form needs n >= 2")
        return Fraction(2, p[0] - 1)
    if kind == "cycle":
        n = p[0]
        return Fraction(n, (n // 2) * ((n + 1) // 2))
    if kind == "complete":
        if p[0] < 2:
            raise InvalidSpec("complete closed form needs n >= 2")
        return Fraction(p[0], p[0] - 1)
    if kind == "star":
        if p[0] < 2:
            raise InvalidSpec("star closed form needs n >= 2")
        return Fraction(p[0], 2 * p[0] - 3)
    if kind == "complete_bipartite":
        m, n = p
        return Fraction(m + n, 2 * m + n - 2)
    if kind == "hypercube":
        return Fraction(2, p[0])
    if kind == "hamming":
        t, s = p
        return Fraction(s, t * (s - 1))
    if kind == "grid3":
        l, m, n = p
        if l + m + n < 4:
            raise InvalidSpec("grid closed form needs >= 2 vertices")
        return Fraction(2, l + m + n - 3)
    if kind == "torus":
        m, n = p
        return Fraction(m * n, m * (n // 2) * ((n + 1) // 2) + n * (m // 2) * ((m + 1) // 2))
    return Fraction(2, 3)  # the Kneser member: n = 10, max transmission 15


def gamma_harmonic(values) -> Fraction:
    """Harmonic combination 1 / sum(1/v): the product rule for the invariant."""
    values = [Fraction(v) for v in values]
    if not values:
        raise NonPositiveInput("need at least one value")
    for v in values:
        if v <= 0:
            raise NonPositiveInput(f"values must be positive, got {v}")
    return 1 / sum(1 / v for v in values)
