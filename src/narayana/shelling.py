"""Pure complexes, pre-shellings, and the rewriting order on Dyck paths.

A partial order on the facets of a pure complex is a pre-shelling when any
of four equivalent conditions holds: (i) mutual containment of restrictions
forces equality, (ii) the intervals [r(F), F] partition the complex,
(iii) r(F) fitting inside G forces F below G, (iv) every pair F not above G
admits a shelling step into G.  Every linear extension of a pre-shelling is
a shelling with the same restriction function.

The concrete pre-shelling here lives on the order complex of J(2 x n),
whose facets are the maximal interior chains, identified with Dyck paths.
The order is generated by the rewrites vvh -> vhv and hhv -> hvh; its
restriction sets sit at the centers of vvh and hhv factors, and bucketing
facets by restriction ranks recovers the flag h-vector.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations
from typing import Iterable, Sequence

from .dyck import DyckPath, da, enumerate_paths, ls_set, maj
from .dyck import rank as path_rank
from .posets import GradedBoundedPoset, _bit_indices, _topological_order
from .posets import flag_h_mismatches, flag_h_table, j2xn, path_to_extension

FACE_GUARD = 1 << 20
OMEGA_GUARD = 8


class PureComplex:
    """A pure simplicial complex given by its facets.

    Vertices carry arbitrary hashable labels; facets are stored as bitmasks
    over the vertex indexing.  Faces are implicit (the downward closure) and
    enumerating them is guarded by an m * 2^d size bound.
    """

    def __init__(self, vertices: Iterable, facets: Iterable[Iterable]):
        self._vertices = tuple(vertices)
        self._vindex = {v: i for i, v in enumerate(self._vertices)}
        if len(self._vindex) != len(self._vertices):
            raise ValueError("duplicate vertex")
        facet_sets = [frozenset(f) for f in facets]
        if not facet_sets:
            raise ValueError("at least one facet required")
        masks = []
        for f in facet_sets:
            mask = 0
            for v in f:
                if v not in self._vindex:
                    raise ValueError(f"facet vertex not a vertex: {v!r}")
                mask |= 1 << self._vindex[v]
            masks.append(mask)
        d = len(facet_sets[0])
        if any(len(f) != d for f in facet_sets):
            raise ValueError("not pure: all facets must have the same cardinality")
        # facets share one size, so one lies inside another only when equal
        repeats = Counter(masks)
        for i, a in enumerate(masks):
            if repeats[a] > 1:
                raise ValueError(
                    f"facet contained in another (or duplicated): index {i}"
                )
        self._facets = tuple(facet_sets)
        self._masks = tuple(masks)
        self._face_cache: "set[int] | None" = None

    @property
    def vertices(self) -> tuple:
        return self._vertices

    @property
    def facets(self) -> tuple[frozenset, ...]:
        return self._facets

    @property
    def m(self) -> int:
        return len(self._facets)

    @property
    def d(self) -> int:
        return len(self._facets[0])

    def mask(self, f: int) -> int:
        return self._masks[f]

    def face_members(self, mask: int) -> frozenset:
        return frozenset(self._vertices[i] for i in _bit_indices(mask))

    def face_masks(self) -> set[int]:
        """Bitmasks of every face, the empty face included."""
        if self._face_cache is None:
            if self.m << self.d > FACE_GUARD:
                raise ValueError(
                    f"complex too large: {self.m} * 2^{self.d} "
                    f"candidate faces exceed the guard 2^20"
                )
            seen = set(self._masks)
            stack = list(self._masks)
            while stack:
                mask = stack.pop()
                for i in _bit_indices(mask):
                    sub = mask ^ 1 << i
                    if sub not in seen:
                        seen.add(sub)
                        stack.append(sub)
            self._face_cache = seen
        return self._face_cache

    def faces(self) -> list[frozenset]:
        return [self.face_members(mask) for mask in sorted(self.face_masks())]


class FacetOrder:
    """A strict partial order on the facet indices of a pure complex,
    generated by relations (a, b) meaning facet a lies below facet b."""

    def __init__(
        self,
        complex: PureComplex,
        relations: Iterable[tuple[int, int]],
        labels: "tuple[str, ...] | None" = None,
    ):
        self._complex = complex
        m = complex.m
        rels = sorted({(int(a), int(b)) for a, b in relations})
        up: list[list[int]] = [[] for _ in range(m)]
        for a, b in rels:
            if not (0 <= a < m and 0 <= b < m):
                raise ValueError(f"facet index out of range: ({a}, {b})")
            if a == b:
                raise ValueError("order contains a cycle")
            up[a].append(b)
        order = _topological_order(up)
        if len(order) != m:
            raise ValueError("order contains a cycle")
        below = [0] * m
        for i in order:
            for j in up[i]:
                below[j] |= (1 << i) | below[i]
        self._below = below
        self._relations = tuple(rels)
        self._up = up
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != m:
                raise ValueError("labels length mismatch")
        self._labels = labels

    @property
    def complex(self) -> PureComplex:
        return self._complex

    @property
    def m(self) -> int:
        return self._complex.m

    @property
    def relations(self) -> tuple[tuple[int, int], ...]:
        return self._relations

    @property
    def labels(self) -> "tuple[str, ...] | None":
        return self._labels

    def less(self, i: int, j: int) -> bool:
        return bool((self._below[j] >> i) & 1)

    def leq(self, i: int, j: int) -> bool:
        return i == j or self.less(i, j)

    def below_mask(self, j: int) -> int:
        return self._below[j]

    def minimal_indices(self) -> list[int]:
        return [i for i in range(self.m) if not self._below[i]]

    def covers(self) -> list[tuple[int, int]]:
        """Cover pairs (i, j) of the closure: i < j with nothing between."""
        above = [0] * self.m
        for j, below in enumerate(self._below):
            for i in _bit_indices(below):
                above[i] |= 1 << j
        return [
            (i, j)
            for j, below in enumerate(self._below)
            for i in _bit_indices(below)
            if not above[i] & below
        ]

    def is_linear_extension(self, order: Sequence[int]) -> bool:
        if sorted(order) != list(range(self.m)):
            return False
        position = {f: pos for pos, f in enumerate(order)}
        return all(position[a] < position[b] for a, b in self._relations)

    def random_linear_extension(
        self, seed: "int | random.Random | None" = None
    ) -> list[int]:
        rng = seed if isinstance(seed, random.Random) else random.Random(seed)
        return _topological_order(self._up, rng.randrange)

    def extend(self, extra: Iterable[tuple[int, int]]) -> "FacetOrder":
        return FacetOrder(
            self._complex, self._relations + tuple(extra), self._labels
        )


@dataclass(frozen=True)
class Partitioning:
    """A restriction map facet index -> r(F) with r(F) inside F."""

    complex: PureComplex
    restrictions: tuple[frozenset, ...]

    def __post_init__(self):
        if len(self.restrictions) != self.complex.m:
            raise ValueError("one restriction per facet required")
        for f, r in enumerate(self.restrictions):
            if not r <= self.complex.facets[f]:
                raise ValueError(f"restriction not inside its facet: index {f}")


def order_complex(L: GradedBoundedPoset) -> PureComplex:
    """The chains of the proper part of L; facets are the maximal ones,
    which in a graded bounded poset are the saturated rank-1 to top-1
    chains."""
    top = L.top_rank
    vertices = [e for r in range(1, top) for e in L.elements_of_rank(r)]
    if top < 2:
        return PureComplex([], [frozenset()])
    facets: list[frozenset] = []
    chain: list = []

    def climb(e) -> None:
        chain.append(e)
        if L.rank(e) == top - 1:
            facets.append(frozenset(chain))
        else:
            for f in L.upper_covers(e):
                if L.rank(f) < top:
                    climb(f)
        chain.pop()

    for e in L.elements_of_rank(1):
        climb(e)
    return PureComplex(vertices, facets)


def path_to_facet(w: DyckPath) -> frozenset[frozenset]:
    """The maximal interior chain of J(2 x n) traced by the proper
    prefixes of the path: a prefix with a letters v and b letters h
    becomes the ideal with a elements in the first row and b in the
    second, the same prefix of the linear extension path_to_extension(w)."""
    sigma = path_to_extension(w)
    return frozenset(frozenset(sigma[:i]) for i in range(1, 2 * w.n))


def facet_to_path(chain: Iterable[frozenset]) -> DyckPath:
    """Inverse of path_to_facet; rejects anything that is not a maximal
    interior chain of some J(2 x n)."""
    try:
        # read a word off the first-row sizes, then path_to_facet must agree
        ideals = frozenset(chain)
        firsts = [sum(e[0] == 1 for e in ideal) for ideal in sorted(ideals, key=len)]
        n = (len(firsts) + 1) // 2
        word = "".join("v" if b > a else "h" for a, b in zip([0, *firsts], firsts))
        w = DyckPath(word + ("v" if firsts[-1] < n else "h"))
    except (ValueError, TypeError, IndexError):
        raise ValueError("not a maximal chain") from None
    if path_to_facet(w) != ideals:
        raise ValueError("not a maximal chain")
    return w


@cache
def dyck_complex(n: int) -> PureComplex:
    """The order complex of J(2 x n).  Its climb adds a first-row element
    (a v) before a second-row one (an h), so facet i is path_to_facet of
    the i-th path of enumerate_paths(n)."""
    if n < 1:
        raise ValueError(f"dyck_complex needs n >= 1, got {n}")
    return order_complex(j2xn(n))


def s_map(w: DyckPath, i: int) -> DyckPath:
    """Rewrite the factor at positions i, i+1, i+2: vvh -> vhv and
    hhv -> hvh; anything else is left alone."""
    if not 1 <= i <= 2 * w.n - 2:
        raise ValueError(f"position out of range: {i} not in [1, {2 * w.n - 2}]")
    word = w.word
    rewrite = {"vvh": "vhv", "hhv": "hvh"}.get(word[i - 1 : i + 2])
    return w if rewrite is None else DyckPath(word[: i - 1] + rewrite + word[i + 2 :])


def sigma_stat(w: DyckPath) -> tuple[int, int]:
    """The potential (da, maj); strictly lexicographically smaller after
    every nontrivial rewrite, which makes the rewriting relation acyclic."""
    return (da(w), maj(w))


@cache
def omega_n(n: int) -> FacetOrder:
    """The transitive closure of single rewrites on the facets of
    dyck_complex(n), labeled by path words."""
    if n < 1:
        raise ValueError(f"omega_n needs n >= 1, got {n}")
    if n > OMEGA_GUARD:
        raise ValueError(f"too large: n = {n} exceeds guard {OMEGA_GUARD}")
    cx = dyck_complex(n)
    words = list(enumerate_paths(n))
    relations = []
    for j, w in enumerate(words):
        for i in range(1, 2 * n - 1):
            u = s_map(w, i)
            if u != w:
                relations.append((path_rank(u), j))
    return FacetOrder(cx, relations, labels=tuple(w.word for w in words))


def restriction(ord: FacetOrder, f: int) -> frozenset:
    """r(F): the vertices x of F such that some facet below F meets F in
    exactly F minus x."""
    return ord.complex.face_members(_restriction_mask(ord, f))


def _restriction_mask(ord: FacetOrder, f: int) -> int:
    cx = ord.complex
    below = map(cx.mask, _bit_indices(ord.below_mask(f)))
    return _single_vertex_differences(cx.mask(f), below)


def _single_vertex_differences(fm: int, others: Iterable[int]) -> int:
    """The union of F minus E over the facet masks E that miss exactly one
    vertex of F."""
    out = 0
    for em in others:
        missing = fm & ~em
        if missing.bit_count() == 1:
            out |= missing
    return out


def _first_misowned_face(cx: PureComplex, r: Sequence[int]) -> "dict | None":
    """Walk each interval [r(F), F] once, recording its facet as an owner
    of every face in it.  Returns the first face in sorted mask order
    whose owner count is not one, with its owners ascending, or None when
    the intervals partition the complex."""
    faces = cx.face_masks()
    owners: defaultdict[int, list[int]] = defaultdict(list)
    for f in range(cx.m):
        free = cx.mask(f) & ~r[f]
        sub = free
        while True:
            owners[r[f] | sub].append(f)
            if not sub:
                break
            sub = (sub - 1) & free
    for face in sorted(faces):
        if len(owners[face]) != 1:
            return {
                "face": list(_bit_indices(face)),
                "covered_by": owners[face],
            }
    return None


def check_preshelling(ord: FacetOrder) -> dict:
    """Evaluate the four equivalent pre-shelling conditions literally and
    independently, with a witness for each failure.

    The verdicts must agree by the equivalence theorem; a disagreement
    could only come from an implementation bug and raises RuntimeError.
    """
    cx = ord.complex
    cx.face_masks()  # its size guard, before the O(m^2) conditions
    m = cx.m
    r = [_restriction_mask(ord, f) for f in range(m)]

    def fits(f: int, g: int) -> bool:  # r(F) lies inside G
        return not r[f] & ~cx.mask(g)

    def first(pairs: Iterable[tuple[int, int]], holds) -> "dict | None":
        return next(({"f": f, "g": g} for f, g in pairs if holds(f, g)), None)

    found = {
        "i": first(combinations(range(m), 2), lambda f, g: fits(f, g) and fits(g, f)),
        "ii": _first_misowned_face(cx, r),
        "iii": first(permutations(range(m), 2), lambda f, g: fits(f, g) and not ord.less(f, g)),
        "iv": first(permutations(range(m), 2), lambda f, g: fits(g, f) and not ord.leq(g, f)),
    }
    conditions = {name: witness is None for name, witness in found.items()}
    witnesses = {name: witness for name, witness in found.items() if witness is not None}
    if len(set(conditions.values())) != 1:
        raise RuntimeError(f"equivalence broken: {conditions}")
    return {
        "is_preshelling": conditions["i"],
        "conditions": conditions,
        "witnesses": witnesses,
    }


def is_shelling(cx: PureComplex, order: Sequence[int]) -> dict:
    """Check the classical shelling condition along a total order of the
    facets, reporting the first violating pair and the restriction of
    every facet with respect to its predecessors."""
    if sorted(order) != list(range(cx.m)):
        raise ValueError("not a total order on the facets")
    violation = None
    restrictions: dict[int, frozenset] = {}
    earlier: list[int] = []
    for g in order:
        rg = _single_vertex_differences(cx.mask(g), map(cx.mask, earlier))
        restrictions[g] = cx.face_members(rg)
        if violation is None:
            for f in earlier:
                if not rg & ~cx.mask(f):
                    violation = {"earlier": f, "facet": g}
                    break
        earlier.append(g)
    return {
        "is_shelling": violation is None,
        "violation": violation,
        "restrictions": restrictions,
    }


def partition_intervals(ord: FacetOrder) -> Partitioning:
    """The candidate partitioning of the complex into [r(F), F]."""
    return Partitioning(
        ord.complex,
        tuple(restriction(ord, f) for f in range(ord.m)),
    )


def verify_partitioning(p: Partitioning) -> dict:
    """Confirm every face lies in exactly one interval, or exhibit a face
    that is uncovered or covered twice."""
    cx = p.complex
    r_masks = [sum(1 << cx.vertices.index(v) for v in rset) for rset in p.restrictions]
    witness = _first_misowned_face(cx, r_masks)
    return {"valid": witness is None, "witness": witness}


def flag_h_from_partition(
    L: GradedBoundedPoset, p: Partitioning
) -> Counter[frozenset[int]]:
    """Bucket the facets of the partitioned order complex by the rank sets
    of their restrictions; for a partitioning this is the flag h-vector.
    Only nonzero entries appear."""
    return Counter(frozenset(L.rank(x) for x in rset) for rset in p.restrictions)


def verify_preshelling(n: int) -> list[dict]:
    """The preshelling check: omega_n(n) meets the four pre-shelling
    conditions.  One witness per failed condition, tagged with its name;
    empty when the order is a pre-shelling."""
    report = check_preshelling(omega_n(n))
    return [{"condition": name, **w} for name, w in report["witnesses"].items()]


def verify_parth(n: int) -> list[dict]:
    """The parth check: the interval partitioning of omega_n(n) and the
    ls_set counts of the paths both reproduce the flag h-vector of
    J(2 x n).  One witness per rank set where the three disagree."""
    L = j2xn(n)
    table = flag_h_from_partition(L, partition_intervals(omega_n(n)))
    ls_counts = Counter(ls_set(w) for w in enumerate_paths(n))
    return flag_h_mismatches(flag_h_table(L), ls_count=ls_counts, partition=table)
