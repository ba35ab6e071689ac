"""Pure complexes, orders on their facets, and the rewriting order on Dyck
paths.

The concrete order here lives on the order complex of the proper part of
J(2 x n).  Its vertices are the points (a, b), 0 <= b <= a <= n, of ranks 1
to 2n - 1, the ideal with a elements in the first row and b in the second
having rank a + b, and its facets are the Dyck paths, each the chain of
points that its proper prefixes reach.  The order is generated by the
rewrites vvh -> vhv and hhv -> hvh, one at each center that ls_set finds;
its restriction sets sit at those centers, and bucketing facets by
restriction ranks recovers the flag h-vector (the parth check).  That the
order is a pre-shelling is decided in narayana.preshelling.
"""

from collections import Counter
from collections.abc import Iterable, Sequence
from functools import cache, cached_property

from .dyck import _bit_indices, enumerate_paths, ls_set


def _topological_order(up: Sequence[Sequence[int]]) -> list[int]:
    """Kahn's algorithm on successor lists, taking the last node found none
    of whose predecessors is left.  Shorter than up on a cycle."""
    indegree = [0] * len(up)
    for successors in up:
        for j in successors:
            indegree[j] += 1
    ready = [i for i, d in enumerate(indegree) if not d]
    order: list[int] = []
    while ready:
        i = ready.pop()
        order.append(i)
        for j in up[i]:
            indegree[j] -= 1
            if not indegree[j]:
                ready.append(j)
    return order


class PureComplex:
    """A pure simplicial complex given by its facets, each a bitmask over
    the vertices, which carry arbitrary hashable labels: bit i stands for
    vertices[i].  Faces are implicit: the downward closure.
    """

    def __init__(self, vertices: Iterable, masks: Iterable[int]):
        self.vertices = tuple(vertices)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex")
        masks = tuple(masks)
        if not masks:
            raise ValueError("at least one facet required")
        for mask in masks:
            if type(mask) is not int:
                raise ValueError(f"facet mask not an int: {mask!r}")
            if mask < 0 or mask >> len(self.vertices):
                raise ValueError(f"facet mask outside the vertex range: {mask}")
        d = masks[0].bit_count()
        if any(mask.bit_count() != d for mask in masks):
            raise ValueError("not pure: all facets must have the same cardinality")
        # facets share one size, so one lies inside another only when equal
        if len(set(masks)) != len(masks):
            repeats = Counter(masks)
            i = next(i for i, a in enumerate(masks) if repeats[a] > 1)
            raise ValueError(f"facet contained in another (or duplicated): index {i}")
        self._masks = masks

    @property
    def m(self) -> int:
        return len(self._masks)

    @property
    def d(self) -> int:
        return self._masks[0].bit_count()

    def mask(self, f: int) -> int:
        return self._masks[f]

    @cached_property
    def facet_vertices(self) -> tuple[tuple[int, ...], ...]:
        """For each facet, the indices of its vertices, lowest first."""
        return tuple(tuple(_bit_indices(mask)) for mask in self._masks)

    @cached_property
    def vertex_facets(self) -> tuple[int, ...]:
        """For each vertex index, the bitmask of the facets containing it."""
        incidence = [0] * len(self.vertices)
        for f, vertices in enumerate(self.facet_vertices):
            bit = 1 << f
            for v in vertices:
                incidence[v] |= bit
        return tuple(incidence)


class FacetOrder:
    """A strict partial order on the indices 0..m - 1 of the facets of a
    pure complex, generated by relations (a, b) of int indices: facet a
    lies below facet b.  It holds no labels; the facets of omega_n are
    named by the words of _words."""

    def __init__(self, m: int, relations: Iterable[tuple[int, int]]):
        self._pairs = [(a, b) for a, b in relations]
        up: list[list[int]] = [[] for _ in range(m)]
        for a, b in self._pairs:
            if type(a) is not int or type(b) is not int:
                raise ValueError(f"facet index not an int: ({a!r}, {b!r})")
            if not (0 <= a < m and 0 <= b < m):
                raise ValueError(f"facet index out of range: ({a}, {b})")
            up[a].append(b)
        order = _topological_order(up)
        if len(order) != m:  # a self-loop, too, leaves its facet out
            raise ValueError("order contains a cycle")
        below = [0] * m
        for i in order:
            reach = below[i] | 1 << i
            for j in up[i]:
                below[j] |= reach
        self._below = below

    @property
    def m(self) -> int:
        return len(self._below)

    @cached_property
    def relations(self) -> tuple[tuple[int, int], ...]:
        """The generating relations, each once, in (a, b) order; sorted on
        first read, which the parth check never makes."""
        return tuple(sorted(set(self._pairs)))

    def below_mask(self, j: int) -> int:
        return self._below[j]

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (i, j) of the closure, i < j with nothing between,
        in relation order, that is by (i, j).  Each is a generating
        relation, and it covers exactly when no generated successor of i
        lies below j (j itself never does)."""
        successors, below, relations = [0] * self.m, self._below, self.relations
        for i, j in relations:
            successors[i] |= 1 << j
        return [(i, j) for i, j in relations if not successors[i] & below[j]]


@cache
def _words(n: int) -> tuple[str, ...]:
    # the facet words of dyck_complex(n) and omega_n(n), enumerated once
    return tuple(enumerate_paths(n))


@cache
def _ls_sets(n: int) -> tuple[int, ...]:
    # ls_set of each word of _words(n), in its order, read once for the
    # rewrites of omega_n, the parth counts and omega's annotations
    return tuple(map(ls_set, _words(n)))


@cache
def dyck_complex(n: int) -> PureComplex:
    """The order complex of the proper part of J(2 x n).  Its vertices are
    the points (a, b) of ranks 1 to 2n - 1, indexed by rank a + b and then
    by a; facet i holds the points reached by the proper prefixes of the
    i-th word of enumerate_paths(n), a prefix with a letters v and b letters
    h reaching (a, b)."""
    if n < 1:
        raise ValueError(f"dyck_complex needs n >= 1, got {n}")
    points = [(a, r - a) for r in range(1, 2 * n) for a in range((r + 1) // 2, min(r, n) + 1)]
    # bits[r - 1][a]: the bit of the point of rank r with a letters v
    bits = [[0] * (n + 1) for _ in range(2 * n - 1)]
    for i, (a, b) in enumerate(points):
        bits[a + b - 1][a] = 1 << i
    masks = []
    for word in _words(n):
        a = mask = 0
        for letter, bit in zip(word, bits):
            if letter == "v":
                a += 1
            mask |= bit[a]
        masks.append(mask)
    return PureComplex(points, masks)


@cache
def omega_n(n: int) -> FacetOrder:
    """The transitive closure of single rewrites on the facets of
    dyck_complex(n); facet j is the j-th word of _words(n), and no complex
    is built.  The rewrite of the factor that ls_set centers at r swaps
    letters r and r + 1, vvh to vhv or hhv to hvh."""
    if n < 1:
        raise ValueError(f"omega_n needs n >= 1, got {n}")
    words = _words(n)
    # a rewrite that left the paths would raise KeyError here
    index = {word: j for j, word in enumerate(words)}
    relations = [
        (index[word[: r - 1] + word[r] + word[r - 1] + word[r + 1 :]], j)
        for j, (word, centers) in enumerate(zip(words, _ls_sets(n)))
        for r in _bit_indices(centers)
    ]
    return FacetOrder(len(words), relations)


def _restriction_mask(cx: PureComplex, ord: FacetOrder, f: int) -> int:
    # x is in r(F) when some facet below F contains F minus x: all facets
    # have |F| vertices, so such a facet meets F in exactly F minus x.  The
    # facets containing F minus x are the AND of the vertex incidences over
    # the vertices of F before x and those after it.
    incidence = cx.vertex_facets
    vertices = cx.facet_vertices[f]
    # later[k]: the facets below F that contain every vertex after the k-th
    later = [ord.below_mask(f)]
    for v in reversed(vertices[1:]):
        later.append(later[-1] & incidence[v])
    later.reverse()
    earlier, out = -1, 0
    for v, facets in zip(vertices, later):
        if earlier & facets:
            out |= 1 << v
        earlier &= incidence[v]
    return out


def _rank_set_counts(cx: PureComplex, ord: FacetOrder) -> Counter[int]:
    """The facets of a dyck_complex bucketed by the rank sets of their
    restrictions, the point (a, b) having rank a + b, each set a mask with
    rank r at bit r; for a partitioning this is the flag h-vector."""
    rank_bit = [1 << (a + b) for a, b in cx.vertices]
    return Counter(
        sum(rank_bit[v] for v in _bit_indices(_restriction_mask(cx, ord, f))) for f in range(ord.m))


def verify_parth(n: int) -> list[dict]:
    """The parth check: the interval partitioning of omega_n(n) and the
    ls_set counts of its path words both reproduce the flag h-vector of
    J(2 x n).  One witness per rank set where the three disagree."""
    # imported here, so that omega and preshelling do not load posets
    from .posets import flag_h_mismatches, flag_h_table

    ls_counts = Counter(_ls_sets(n))
    partition = _rank_set_counts(dyck_complex(n), omega_n(n))
    return flag_h_mismatches(flag_h_table(n), ls_count=ls_counts, partition=partition)
