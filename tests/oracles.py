"""Slow definitional oracles for the fast routines of the library, and the
paper's proof devices.  Each routine computes by definition what the library
computes by a theorem or a transfer matrix, and the tests compare the two.
None of it serves a request.  The oracles, and what the suite checks with
them:

- the per-path statistics (des, maj, hp, ea, lnfs, maj_l, da,
  high_peak_set, ls_centers, descent_set_wrt, maj_wrt) and the occurrence
  labels label and label_string: stats.distribution and
  joint_coefficients, and dyck.ls_set against ls_centers;
- catalan, the convolution recurrence, which does not use narayana: the
  narayana command's row sum at every n it accepts; joint_q,
  joint_coefficients with each list as its QPoly: the tables against the
  q-Narayana routes;
- rank_mask, the one way the tests read the library's rank sets: the
  oracles keep theirs as frozensets, so they stay independent references;
- walk_paths and walk_fillings, depth-first walks, and descent_set:
  enumerate_paths and two_column_fillings word for word and in order
  (n <= 10; k <= 7 and m <= 9), and dyck_to_ssyt (n <= 8);
- pure_complex, face_members, the label-set restrictions restriction and
  partition_intervals, and flag_h_from_partition: the rank-set buckets of
  verify_parth (n <= 8); point_chain_complex, dyck_complex built from
  chains of points: its facet masks (n <= 8);
- completions and rank, a word's index in the enumeration:
  enumerate_paths' order and omega_n's facet lookup; s_map, one rewrite:
  omega_n's rewrites;
- the shelling layer by walking the closure, closure_covers, less,
  pairwise_restriction_mask and dfs_face_masks: FacetOrder.covers and the
  restriction masks on omega_n(1..8) and on seeded random orders of random
  pure complexes, and chain_count (n <= 6); interval_owners,
  first_misowned_face and pairwise_preshelling, the four conditions over
  every pair of facets with (ii) by a walk over every face:
  check_preshelling's verdicts and witnesses;
- FinitePoset, GradedBoundedPoset, IdealLattice, ideal_lattice,
  chain_product_2xn, j2xn and the generic order_complex: the grid J(2 x n),
  dyck_complex(n) having the vertices and facet masks of
  order_complex(j2xn(n)) (n <= 8);
- permutation_descents, linear extensions (linear_extensions,
  is_linear_extension, random_linear_extension), jordan_holder, the
  bijections from paths to the linear extensions of 2 x n and to the facets
  of the order complex, is_shelling, each restriction from its definition,
  and the rewrite potential sigma_stat: the paper's shelling claims;
- q_factorial: q_binomial; schoolbook_mul, and exact_div with q_int and
  InexactDivisionError: ratio_q_int;
- flag_f and flag_h by inclusion-exclusion, and the dense alpha table with
  its subset Moebius transform: flag_h_table entry by entry and in key
  order (n <= 9).
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cache, cached_property, reduce
from itertools import combinations, permutations
from typing import Hashable, Iterable, Iterator, Sequence

from narayana.dyck import _bit_indices, dyck_word
from narayana.qpoly import QPoly
from narayana.shelling import FacetOrder, PureComplex, _restriction_mask, _topological_order
from narayana.stats import joint_coefficients
from narayana.tableaux import two_column_fillings

Element = Hashable

LINEAR_EXTENSION_GUARD = 16


def rank_mask(ranks: Iterable[int]) -> int:
    """The mask of a set of ranks, rank r at bit r, as the library keys a
    rank set; the oracles below keep rank sets as frozensets."""
    return sum(1 << r for r in set(ranks))


def permutation_descents(pi: Sequence[int]) -> frozenset[int]:
    """Positions i with pi(i) > pi(i+1), 1-based."""
    return frozenset(i for i in range(1, len(pi)) if pi[i - 1] > pi[i])


def walk_paths(n: int) -> Iterator[str]:
    """The words of semilength n by a depth-first walk, v before h: the
    oracle of dyck.enumerate_paths, which builds them level by level."""

    def walk(prefix: str, v_left: int, h_left: int, excess: int) -> Iterator[str]:
        if not v_left and not h_left:
            yield prefix
            return
        if v_left:
            yield from walk(prefix + "v", v_left - 1, h_left, excess + 1)
        if h_left and excess:
            yield from walk(prefix + "h", v_left, h_left - 1, excess - 1)

    return walk("", n, n, 0)


def descent_set(word: str) -> frozenset[int]:
    """Positions i with w_i = h and w_{i+1} = v (the valley's h)."""
    return frozenset(
        i for i in range(1, len(word)) if word[i - 1] == "h" and word[i] == "v"
    )


# per-path statistics, the oracle of stats.distribution and stats.joint_coefficients
def des(word: str) -> int:
    return len(descent_set(word))


def maj(word: str) -> int:
    return sum(descent_set(word))


def high_peak_set(word: str) -> frozenset[int]:
    """Positions i of peaks vh whose prefix v-excess through the v is >= 2."""
    high = []
    excess = 0
    for i, letter in enumerate(word, start=1):
        if letter == "v":
            excess += 1
            if excess >= 2 and i < len(word) and word[i] == "h":
                high.append(i)
        else:
            excess -= 1
    return frozenset(high)


def hp(word: str) -> int:
    return len(high_peak_set(word))


def ea(word: str) -> int:
    """Number of v in even positions."""
    return sum(1 for i in range(2, len(word) + 1, 2) if word[i - 1] == "v")


def ls_centers(word: str) -> frozenset[int]:
    """Centers i of the windows w_{i-1} w_i w_{i+1} that read vvh or hhv, by
    a slice of every window: the oracle of dyck.ls_set."""
    return frozenset(i for i in range(2, len(word)) if word[i - 2 : i + 1] in ("vvh", "hhv"))


def lnfs(word: str) -> int:
    return len(ls_centers(word))


def maj_l(word: str) -> int:
    return sum(ls_centers(word))


def da(word: str) -> int:
    """Number of double ascents, i.e. factors vv."""
    return sum(1 for i in range(len(word) - 1) if word[i] == "v" and word[i + 1] == "v")


def label(word: str) -> tuple[tuple[str, int], ...]:
    """Occurrence labels: the i-th v becomes ("v", i), the j-th h ("h", j)."""
    labels = []
    seen_v = seen_h = 0
    for letter in word:
        if letter == "v":
            seen_v += 1
            labels.append(("v", seen_v))
        else:
            seen_h += 1
            labels.append(("h", seen_h))
    return tuple(labels)


def label_string(word: str) -> str:
    """The labeling rendered like ``v1v2h1v3h2h3``."""
    return "".join(f"{letter}{index}" for letter, index in label(word))


def descent_set_wrt(w: str, w0: str) -> frozenset[int]:
    """Positions i where the labeled letter w_{i+1} occurs before w_i in w0."""
    if len(w) != len(w0):
        raise ValueError(f"length mismatch: |w| = {len(w)}, |W| = {len(w0)}")
    order = {lab: pos for pos, lab in enumerate(label(w0))}
    labeled = label(w)
    return frozenset(
        i
        for i in range(1, len(w))
        if order[labeled[i]] < order[labeled[i - 1]]
    )


def maj_wrt(w: str, w0: str) -> int:
    return sum(descent_set_wrt(w, w0))


@cache
def completions(steps: int, excess: int) -> int:
    """Lattice walks of the given length from height excess down to 0,
    never dipping below 0, by their first step, which rank counts by."""
    if excess < 0 or excess > steps or (steps - excess) % 2:
        return 0
    if steps == 0:
        return 1
    return completions(steps - 1, excess + 1) + (completions(steps - 1, excess - 1) if excess else 0)


def rank(word: str) -> int:
    """Position of the word in lexicographic order with v < h, its index in
    dyck.enumerate_paths, counting the paths that branch off it with an h."""
    index = 0
    excess = 0
    length = len(word)
    for i in range(1, length + 1):
        if word[i - 1] == "h":
            index += completions(length - i, excess + 1)
            excess -= 1
        else:
            excess += 1
    return index


# complexes from vertex labels, the shelling layer's restrictions as label
# sets, and the point-chain dyck_complex
def pure_complex(vertices: Iterable, facets: Iterable[Iterable]) -> PureComplex:
    """The PureComplex whose facets are the given sets of vertex labels."""
    vertices = tuple(vertices)
    bit = {v: 1 << i for i, v in enumerate(vertices)}
    masks = []
    for facet in map(frozenset, facets):
        for v in facet:
            if v not in bit:
                raise ValueError(f"facet vertex not a vertex: {v!r}")
        masks.append(sum(bit[v] for v in facet))
    return PureComplex(vertices, masks)


def face_members(cx: PureComplex, mask: int) -> frozenset:
    """The vertex labels of the face with the given bitmask."""
    return frozenset(cx.vertices[i] for i in _bit_indices(mask))


def restriction(cx: PureComplex, ord: FacetOrder, f: int) -> frozenset:
    """r(F): the vertices x of F such that some facet below F meets F in
    exactly F minus x."""
    return face_members(cx, _restriction_mask(cx, ord, f))


def partition_intervals(cx: PureComplex, ord: FacetOrder) -> tuple[frozenset, ...]:
    """The restriction r(F) of every facet, in facet order: the lower ends of
    the intervals [r(F), F] that partition the complex when ord is a
    pre-shelling."""
    return tuple(restriction(cx, ord, f) for f in range(ord.m))


def flag_h_from_partition(restrictions: Iterable[frozenset]) -> Counter[frozenset[int]]:
    """Bucket the facets of a dyck_complex by the rank sets of their
    restrictions, the point (a, b) having rank a + b: the oracle of the
    rank-mask buckets of shelling.verify_parth."""
    return Counter(frozenset(a + b for a, b in rset) for rset in restrictions)


def point_chain_complex(n: int) -> PureComplex:
    """dyck_complex(n) with each facet built as the chain of points that the
    proper prefixes of its word reach, one set of points per facet."""
    points = [(a, r - a) for r in range(1, 2 * n) for a in range((r + 1) // 2, min(r, n) + 1)]
    facets = []
    for word in walk_paths(n):
        a = b = 0
        chain = []
        for letter in word[:-1]:
            if letter == "v":
                a += 1
            else:
                b += 1
            chain.append((a, b))
        facets.append(chain)
    return pure_complex(points, facets)


# validated finite posets, ideal lattices and order complexes: the
# generic J(P) that the grid J(2 x n) of the library is checked against
class FinitePoset:
    """A finite poset given by its elements and covering pairs.

    The covers must be irredundant: the constructor rejects cycles and any
    cover pair already implied by two or more others, so the stored data is
    always the Hasse diagram of the order it generates.
    """

    def __init__(
        self,
        elements: Iterable[Element],
        covers: Iterable[tuple[Element, Element]],
    ):
        self._elements = tuple(elements)
        self._index: dict[Element, int] = {}
        for i, e in enumerate(self._elements):
            if e in self._index:
                raise ValueError(f"duplicate element: {e!r}")
            self._index[e] = i
        p = len(self._elements)
        up: list[list[int]] = [[] for _ in range(p)]
        down: list[list[int]] = [[] for _ in range(p)]
        for a, b in covers:
            if a not in self._index or b not in self._index:
                raise ValueError(f"cover endpoint not an element: ({a!r}, {b!r})")
            ia, ib = self._index[a], self._index[b]
            if ia == ib:
                raise ValueError(f"covers contain a cycle: {a!r} covers itself")
            up[ia].append(ib)
            down[ib].append(ia)
        self._up = up
        self._down = down
        self._topo = _topological_order(up)
        if len(self._topo) != p:
            raise ValueError("covers contain a cycle")
        self._ge = self._reachability()
        self._check_reduction()

    def _reachability(self) -> list[int]:
        # ge[i] holds a bit for every j with e_j >= e_i
        ge = [0] * len(self._elements)
        for i in reversed(self._topo):
            mask = 1 << i
            for j in self._up[i]:
                mask |= ge[j]
            ge[i] = mask
        return ge

    def _check_reduction(self) -> None:
        for i, ups in enumerate(self._up):
            for j in ups:
                for k in ups:
                    if k != j and (self._ge[k] >> j) & 1:
                        raise ValueError(
                            f"cover pair implied by others: "
                            f"({self._elements[i]!r}, {self._elements[j]!r})"
                        )

    @property
    def elements(self) -> tuple[Element, ...]:
        return self._elements

    @property
    def p(self) -> int:
        return len(self._elements)

    def index(self, e: Element) -> int:
        return self._index[e]

    def upper_covers(self, e: Element) -> list[Element]:
        return [self._elements[j] for j in self._up[self._index[e]]]

    def lower_covers(self, e: Element) -> list[Element]:
        return [self._elements[j] for j in self._down[self._index[e]]]

    @cached_property
    def minimal_elements(self) -> tuple[Element, ...]:
        return tuple(e for i, e in enumerate(self._elements) if not self._down[i])

    @cached_property
    def maximal_elements(self) -> tuple[Element, ...]:
        return tuple(e for i, e in enumerate(self._elements) if not self._up[i])


class GradedBoundedPoset(FinitePoset):
    """A finite poset with unique bottom and top in which every cover
    raises rank by exactly one."""

    def __init__(self, elements, covers):
        super().__init__(elements, covers)
        if len(self.minimal_elements) != 1:
            raise ValueError("no unique minimum")
        if len(self.maximal_elements) != 1:
            raise ValueError("no unique maximum")
        rank = [-1] * self.p
        rank[self.index(self.minimal_elements[0])] = 0
        for i in self._topo:
            for j in self._up[i]:
                if rank[j] == -1:
                    rank[j] = rank[i] + 1
                elif rank[j] != rank[i] + 1:
                    raise ValueError(
                        f"not graded: unequal chain lengths at {self._elements[j]!r}"
                    )
        self._rank = rank

    @property
    def zero_hat(self) -> Element:
        return self.minimal_elements[0]

    @property
    def one_hat(self) -> Element:
        return self.maximal_elements[0]

    def rank(self, e: Element) -> int:
        return self._rank[self.index(e)]

    @property
    def top_rank(self) -> int:
        return self._rank[self.index(self.one_hat)]

    @cached_property
    def _by_rank(self) -> list[list[int]]:
        layers: list[list[int]] = [[] for _ in range(self.top_rank + 1)]
        for i, r in enumerate(self._rank):
            layers[r].append(i)
        return layers

    def elements_of_rank(self, r: int) -> list[Element]:
        if not 0 <= r <= self.top_rank:
            return []
        return [self._elements[i] for i in self._by_rank[r]]


class IdealLattice(GradedBoundedPoset):
    """The lattice of order ideals of a base poset, ordered by inclusion.

    Elements are frozensets of base elements; rank is cardinality and
    covers add exactly one element.  Built via ideal_lattice().
    """

    def __init__(self, base: FinitePoset, ideals, covers):
        super().__init__(ideals, covers)
        self.base = base


def chain_product_2xn(n: int) -> FinitePoset:
    """The product of a 2-chain and an n-chain, with elements (i, k) for
    i in {1, 2} and k in [n], ordered coordinatewise."""
    if n < 1:
        raise ValueError(f"chain_product_2xn needs n >= 1, got {n}")
    elements = [(1, k) for k in range(1, n + 1)] + [(2, k) for k in range(1, n + 1)]
    covers = [((i, k), (i, k + 1)) for i in (1, 2) for k in range(1, n)]
    covers += [((1, k), (2, k)) for k in range(1, n + 1)]
    return FinitePoset(elements, covers)


def ideal_lattice(base: FinitePoset) -> IdealLattice:
    """All order ideals of the base poset, ordered by inclusion."""
    order = [base.elements[i] for i in base._topo]
    ideals: list[frozenset] = []

    def grow(chosen: set, start: int) -> None:
        ideals.append(frozenset(chosen))
        for i in range(start, len(order)):
            e = order[i]
            if all(c in chosen for c in base.lower_covers(e)):
                chosen.add(e)
                grow(chosen, i + 1)
                chosen.remove(e)

    # enumerate by position in a fixed topological order: each ideal is the
    # set of chosen positions, so each arises exactly once
    grow(set(), 0)
    position = {e: i for i, e in enumerate(order)}
    ideals.sort(key=lambda s: (len(s), sorted(position[e] for e in s)))
    covers = []
    ideal_set = set(ideals)
    # ideal plus e is itself an ideal exactly when it covers ideal
    for ideal in ideals:
        for e in base.elements:
            if e not in ideal and ideal | {e} in ideal_set:
                covers.append((ideal, ideal | {e}))
    return IdealLattice(base, ideals, covers)


@cache
def j2xn(n: int) -> IdealLattice:
    """J(2 x n), the ideal lattice of chain_product_2xn(n), built once per n."""
    return ideal_lattice(chain_product_2xn(n))


def order_complex(L: GradedBoundedPoset) -> PureComplex:
    """The chains of the proper part of L; facets are the maximal ones,
    which in a graded bounded poset are the saturated rank-1 to top-1
    chains."""
    top = L.top_rank
    vertices = [e for r in range(1, top) for e in L.elements_of_rank(r)]
    if top < 2:
        return pure_complex([], [frozenset()])
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
    return pure_complex(vertices, facets)


# linear extensions, Jordan-Holder sets and the extension-path bijection
def is_linear_extension(
    order: Sequence[Hashable], ground: Iterable[Hashable], pairs: Iterable[tuple]
) -> bool:
    """order lists every element of ground once, and a before b for every
    pair (a, b): the covers of a poset or the relations of a facet order."""
    ground = list(ground)
    if len(order) != len(ground) or set(order) != set(ground):
        return False
    position = {e: i for i, e in enumerate(order)}
    return all(position[a] < position[b] for a, b in pairs)


def linear_extensions(P: FinitePoset) -> list[tuple[Hashable, ...]]:
    """All order-preserving listings of P, as tuples placing each element
    at its rank.  Exhaustive, so guarded by size."""
    if P.p > LINEAR_EXTENSION_GUARD:
        raise ValueError(
            f"too large: |P| = {P.p} exceeds guard {LINEAR_EXTENSION_GUARD}"
        )
    down_left = [len(P._down[i]) for i in range(P.p)]
    out: list[tuple[Hashable, ...]] = []
    sequence: list[int] = []

    def place() -> None:
        if len(sequence) == P.p:
            out.append(tuple(P.elements[i] for i in sequence))
            return
        for i in range(P.p):
            if down_left[i] == 0:
                down_left[i] = -1
                for j in P._up[i]:
                    down_left[j] -= 1
                sequence.append(i)
                place()
                sequence.pop()
                for j in P._up[i]:
                    down_left[j] += 1
                down_left[i] = 0

    place()
    return out


def jordan_holder(
    P: FinitePoset, omega: Sequence[Hashable]
) -> list[tuple[int, ...]]:
    """The Jordan-Holder set of (P, omega): the permutation omega compose
    sigma-inverse for every linear extension sigma, in one-line notation."""
    covers = [(a, b) for a in P.elements for b in P.upper_covers(a)]
    if not is_linear_extension(omega, P.elements, covers):
        raise ValueError("not a linear extension")
    value = {e: i + 1 for i, e in enumerate(omega)}
    return [
        tuple(value[e] for e in sigma) for sigma in linear_extensions(P)
    ]


def extension_to_path(sigma: Sequence[tuple[int, int]]) -> str:
    """Read a linear extension of 2 x n as a word: first-row elements
    become v, second-row elements become h."""
    n, remainder = divmod(len(sigma), 2)
    P = chain_product_2xn(n) if n >= 1 and not remainder else None
    covers = [] if P is None else [(a, b) for a in P.elements for b in P.upper_covers(a)]
    if P is None or not is_linear_extension(sigma, P.elements, covers):
        raise ValueError("not a linear extension")
    return "".join("v" if e[0] == 1 else "h" for e in sigma)


def path_to_extension(word: str) -> tuple[tuple[int, int], ...]:
    """Inverse of extension_to_path: the label ("v", i) becomes (1, i) and
    ("h", j) becomes (2, j)."""
    return tuple((1 if letter == "v" else 2, i) for letter, i in label(word))


# the path-facet bijection, shellings and the rewrite potential
def path_to_facet(word: str) -> frozenset[frozenset]:
    """The maximal interior chain of J(2 x n) traced by the proper
    prefixes of the path: a prefix with a letters v and b letters h
    becomes the ideal with a elements in the first row and b in the
    second, the same prefix of the linear extension path_to_extension(word)."""
    sigma = path_to_extension(word)
    return frozenset(frozenset(sigma[:i]) for i in range(1, len(word)))


def facet_to_path(chain: Iterable[frozenset]) -> str:
    """Inverse of path_to_facet; rejects anything that is not a maximal
    interior chain of some J(2 x n)."""
    try:
        # read a word off the first-row sizes, then path_to_facet must agree
        ideals = frozenset(chain)
        firsts = [sum(e[0] == 1 for e in ideal) for ideal in sorted(ideals, key=len)]
        n = (len(firsts) + 1) // 2
        word = "".join("v" if b > a else "h" for a, b in zip([0, *firsts], firsts))
        w = dyck_word(word + ("v" if firsts[-1] < n else "h"))
    except (ValueError, TypeError, IndexError):
        raise ValueError("not a maximal chain") from None
    if path_to_facet(w) != ideals:
        raise ValueError("not a maximal chain")
    return w


def s_map(word: str, i: int) -> str:
    """Rewrite the factor at positions i, i+1, i+2: vvh -> vhv and
    hhv -> hvh; anything else is left alone.  The oracle of the rewrites
    in shelling.omega_n."""
    if not 1 <= i <= len(word) - 2:
        raise ValueError(f"position out of range: {i} not in [1, {len(word) - 2}]")
    rewrite = {"vvh": "vhv", "hhv": "hvh"}.get(word[i - 1 : i + 2])
    return word if rewrite is None else word[: i - 1] + rewrite + word[i + 2 :]


def closure_covers(om: FacetOrder) -> list[tuple[int, int]]:
    """Cover pairs (i, j), ordered by i and then j, by walking every pair
    i < j of the closure: the oracle of FacetOrder.covers."""
    below = [om.below_mask(j) for j in range(om.m)]
    above = [0] * om.m
    for j, mask in enumerate(below):
        for i in _bit_indices(mask):
            above[i] |= 1 << j
    return [
        (i, j)
        for i, mask in enumerate(above)
        for j in _bit_indices(mask)
        if not mask & below[j]
    ]


def less(om: FacetOrder, i: int, j: int) -> bool:
    """Whether facet i lies below facet j, read off j's below mask."""
    return bool(om.below_mask(j) >> i & 1)


def pairwise_restriction_mask(cx: PureComplex, om: FacetOrder, f: int) -> int:
    """The mask of r(F) as the union of F minus E over the facets E below F
    that miss exactly one vertex of F: the oracle of the restriction
    masks in shelling."""
    fm, out = cx.mask(f), 0
    for e in _bit_indices(om.below_mask(f)):
        missing = fm & ~cx.mask(e)
        if missing.bit_count() == 1:
            out |= missing
    return out


def dfs_face_masks(cx: PureComplex) -> set[int]:
    """Every face of the complex by removing one vertex at a time from the
    facets, depth first."""
    seen = {cx.mask(f) for f in range(cx.m)}
    stack = list(seen)
    while stack:
        mask = stack.pop()
        for i in _bit_indices(mask):
            sub = mask ^ 1 << i
            if sub not in seen:
                seen.add(sub)
                stack.append(sub)
    return seen


def interval_owners(cx: PureComplex, r: Sequence[int]) -> dict[int, list[int]]:
    """Every face of the complex, found depth first, with the facets F whose
    interval [r(F), F] holds it, ascending: each interval walked once."""
    owners: dict[int, list[int]] = {face: [] for face in dfs_face_masks(cx)}
    for f in range(cx.m):
        free = sub = cx.mask(f) & ~r[f]
        while True:
            owners[r[f] | sub].append(f)
            if not sub:
                break
            sub = (sub - 1) & free
    return owners


def first_misowned_face(cx: PureComplex, r: Sequence[int]) -> dict | None:
    """The first face in sorted mask order whose owner count is not one,
    with its owners, or None when the intervals partition the complex."""
    owners = interval_owners(cx, r)
    return next(
        (
            {"face": list(_bit_indices(face)), "covered_by": owners[face]}
            for face in sorted(owners)
            if len(owners[face]) != 1
        ),
        None,
    )


def pairwise_preshelling(cx: PureComplex, ord: FacetOrder) -> dict:
    """The four pre-shelling conditions evaluated literally: (i), (iii) and
    (iv) over every pair of facets, in the order of combinations and of
    permutations, and (ii) by walking every interval [r(F), F] over the
    faces found depth first, its witness the first misowned face: the
    oracle of preshelling.check_preshelling, with its report."""
    m = cx.m
    r = [pairwise_restriction_mask(cx, ord, f) for f in range(m)]

    def fits(f: int, g: int) -> bool:  # r(F) lies inside G
        return not r[f] & ~cx.mask(g)

    def first(pairs: Iterable[tuple[int, int]], holds) -> dict | None:
        return next(({"f": f, "g": g} for f, g in pairs if holds(f, g)), None)

    found = {
        "i": first(combinations(range(m), 2), lambda f, g: fits(f, g) and fits(g, f)),
        "ii": first_misowned_face(cx, r),
        "iii": first(permutations(range(m), 2), lambda f, g: fits(f, g) and not less(ord, f, g)),
        "iv": first(permutations(range(m), 2), lambda f, g: fits(g, f) and not less(ord, g, f)),
    }
    conditions = {name: witness is None for name, witness in found.items()}
    return {
        "is_preshelling": conditions["i"],
        "conditions": conditions,
        "witnesses": {name: w for name, w in found.items() if w is not None},
    }


def sigma_stat(word: str) -> tuple[int, int]:
    """The potential (da, maj); strictly lexicographically smaller after
    every nontrivial rewrite, which makes the rewriting relation acyclic."""
    return (da(word), maj(word))


def random_linear_extension(
    om: FacetOrder, seed: "int | random.Random | None" = None
) -> list[int]:
    """A linear extension of the facet order by Kahn's algorithm, taking the
    next facet uniformly among those whose predecessors are all placed;
    reproducible for a fixed integer seed."""
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    up: list[list[int]] = [[] for _ in range(om.m)]
    indegree = [0] * om.m
    for a, b in om.relations:
        up[a].append(b)
        indegree[b] += 1
    ready = [i for i, d in enumerate(indegree) if not d]
    order = []
    while ready:
        i = ready.pop(rng.randrange(len(ready)))
        order.append(i)
        for j in up[i]:
            indegree[j] -= 1
            if not indegree[j]:
                ready.append(j)
    return order


def is_shelling(cx: PureComplex, order: Sequence[int]) -> dict:
    """The classical shelling condition along a total order of the facets,
    by definition on vertex sets.  The restriction r(G) holds each vertex x
    of G for which G minus x lies in an earlier facet, and the order is a
    shelling when no r(G) lies in an earlier facet.  Reports the first
    violating pair and the restriction of every facet."""
    if sorted(order) != list(range(cx.m)):
        raise ValueError("not a total order on the facets")
    facets = [face_members(cx, cx.mask(f)) for f in range(cx.m)]
    violation = None
    restrictions: dict[int, frozenset] = {}
    for position, g in enumerate(order):
        G, earlier = facets[g], order[:position]
        r = frozenset(x for x in G if any(G - {x} <= facets[f] for f in earlier))
        restrictions[g] = r
        f = next((f for f in earlier if r <= facets[f]), None)
        if violation is None and f is not None:
            violation = {"earlier": f, "facet": g}
    return {
        "is_shelling": violation is None,
        "violation": violation,
        "restrictions": restrictions,
    }


# the Catalan numbers by their convolution recurrence, which does not use
# qpoly.narayana: the oracle of the narayana command's row sum
def catalan(n: int) -> int:
    if n < 0:
        raise ValueError(f"catalan of negative {n}")
    c = [1]
    for k in range(n):
        c.append(sum(c[i] * c[k - i] for i in range(k + 1)))
    return c[n]


def joint_q(n: int, statistic: str, costatistic: str) -> dict[int, QPoly]:
    """stats.joint_coefficients, each list as its QPoly."""
    return {k: QPoly(c) for k, c in joint_coefficients(n, statistic, costatistic).items()}


# q-analogues, the schoolbook product and long division, the oracles of
# qpoly.ratio_q_int
def schoolbook_mul(a: QPoly, b: QPoly) -> QPoly:
    """The product by convolution, dict-based rather than list-based."""
    out: dict[int, int] = {}
    for i, ca in enumerate(a.coeffs):
        for j, cb in enumerate(b.coeffs):
            out[i + j] = out.get(i + j, 0) + ca * cb
    if not out:
        return QPoly()
    return QPoly([out.get(d, 0) for d in range(max(out) + 1)])


class InexactDivisionError(ArithmeticError):
    """Polynomial division left a nonzero remainder.

    The offending remainder is available as the ``remainder`` attribute.
    """

    def __init__(self, message: str, remainder: QPoly):
        super().__init__(message)
        self.remainder = remainder


def q_int(n: int) -> QPoly:
    """The q-integer ``1 + q + ... + q**(n-1)``; zero for n = 0."""
    if n < 0:
        raise ValueError(f"q_int of negative {n}")
    return QPoly((1,) * n)


def exact_div(a: QPoly, b: QPoly) -> QPoly:
    """Divide a by b, requiring the division to be exact over the integers.

    Raises ZeroDivisionError when b is zero and InexactDivisionError (with
    the remainder attached) when b does not divide a.
    """
    if not b.coeffs:
        raise ZeroDivisionError("polynomial division by zero")
    if not a.coeffs:
        return QPoly()
    db = b.degree
    lead = b.coeffs[-1]
    rem = list(a.coeffs)
    if a.degree < db:
        raise InexactDivisionError(f"inexact division: {a} by {b}", QPoly(rem))
    quot = [0] * (a.degree - db + 1)
    for d in range(a.degree - db, -1, -1):
        c = rem[d + db]
        if c == 0:
            continue
        step, leftover = divmod(c, lead)
        if leftover:
            raise InexactDivisionError(f"inexact division: {a} by {b}", QPoly(rem))
        quot[d] = step
        for j, cb in enumerate(b.coeffs):
            rem[d + j] -= step * cb
    if any(rem):
        raise InexactDivisionError(f"inexact division: {a} by {b}", QPoly(rem))
    return QPoly(quot)


def q_factorial(n: int) -> QPoly:
    """Product of the q-integers 1 through n; the empty product is 1."""
    if n < 0:
        raise ValueError(f"q_factorial of negative {n}")
    return reduce(schoolbook_mul, map(q_int, range(2, n + 1)), QPoly((1,)))


# flag f- and h-vectors by definition, the oracle of posets.flag_h_table
def _check_rank_subset(L: GradedBoundedPoset, S: Iterable[int]) -> frozenset[int]:
    s = frozenset(S)
    for r in s:
        if not isinstance(r, int) or not 1 <= r <= L.top_rank - 1:
            raise ValueError(
                f"rank out of range: {r!r} not in [1, {L.top_rank - 1}]"
            )
    return s


def flag_f(L: GradedBoundedPoset, S: Iterable[int]) -> int:
    """Number of chains in the proper part of L whose rank set is exactly S."""
    s = sorted(_check_rank_subset(L, S))
    if not s:
        return 1
    layer = L._by_rank[s[0]]
    counts = [1] * len(layer)
    for r in s[1:]:
        nxt = L._by_rank[r]
        counts = [
            sum(c for i, c in zip(layer, counts) if (L._ge[i] >> j) & 1)
            for j in nxt
        ]
        layer = nxt
    return sum(counts)


def flag_h(L: GradedBoundedPoset, S: Iterable[int]) -> int:
    """Inclusion-exclusion transform of flag_f over subsets of S."""
    s = sorted(_check_rank_subset(L, S))
    total = 0
    for size in range(len(s) + 1):
        sign = (-1) ** (len(s) - size)
        for T in combinations(s, size):
            total += sign * flag_f(L, T)
    return total


def _alpha_by_mask(L: GradedBoundedPoset) -> list[int]:
    # alpha(S) at the bitmask of S, rank r being bit r - 1, by extending
    # chain-count vectors depth-first one rank at a time
    top = L.top_rank
    data = [0] * (1 << max(top - 1, 0))
    data[0] = 1

    def extend(mask: int, last: int, layer: list[int], counts: list[int]) -> None:
        data[mask] = sum(counts)
        for r in range(last + 1, top):
            nxt = L._by_rank[r]
            nxt_counts = [
                sum(c for i, c in zip(layer, counts) if (L._ge[i] >> j) & 1)
                for j in nxt
            ]
            extend(mask | 1 << (r - 1), r, nxt, nxt_counts)

    for r in range(1, top):
        extend(1 << (r - 1), r, L._by_rank[r], [1] * len(L._by_rank[r]))
    return data


def _by_rank_set(data: list[int]) -> Counter[frozenset[int]]:
    # the nonzero entries of a mask-indexed table, rank r being bit r - 1
    entries = ((mask, value) for mask, value in enumerate(data) if value)
    return Counter({frozenset(b + 1 for b in _bit_indices(m)): v for m, v in entries})


def alpha_table(L: GradedBoundedPoset) -> Counter[frozenset[int]]:
    """flag_f for every subset of the interior ranks at once, by extending
    chain-count vectors depth-first one rank at a time.  Only nonzero
    entries appear, in bitmask order, rank r being bit r - 1."""
    return _by_rank_set(_alpha_by_mask(L))


def dense_flag_h_table(L: GradedBoundedPoset) -> Counter[frozenset[int]]:
    """flag_h for every subset of the interior ranks, via the subset
    Moebius transform of the dense alpha table over all 2^(top - 1) rank
    sets: the independent oracle of posets.flag_h_table.  Only nonzero
    entries appear, in bitmask order, rank r being bit r - 1."""
    data = _alpha_by_mask(L)
    for b in range(len(data).bit_length() - 1):
        bit = 1 << b
        for mask in range(len(data)):
            if mask & bit:
                data[mask] -= data[mask ^ bit]
    return _by_rank_set(data)


# the tableaux by a depth-first walk, and the sum over them, the oracles of
# tableaux.two_column_fillings and tableaux.q_narayana_ssyt
def walk_fillings(k: int, m: int) -> Iterator[tuple[tuple[int, int], ...]]:
    """The rows of every tableau of shape 2^k with entries in [1, m], by a
    depth-first walk that extends a prefix by every row that may follow
    its last: the oracle of tableaux.two_column_fillings."""

    def fill(rows: tuple, last: tuple[int, int]) -> Iterator[tuple]:
        if len(rows) == k:
            yield rows
            return
        a, b = last
        for row in [(c, d) for c in range(a + 1, m + 1) for d in range(max(c, b + 1), m + 1)]:
            yield from fill((*rows, row), row)

    return fill((), (0, 0))


# the sum over the tableaux, the oracle of tableaux.q_narayana_ssyt
def q_narayana_fillings(n: int, k: int) -> QPoly:
    """The sum of q^(entry sum) over the tableaux of shape 2^k with entries
    below n, each listed by two_column_fillings.  Zero for k >= n."""
    if k >= n:
        return QPoly()
    total = Counter(sum(map(sum, rows)) for rows in two_column_fillings(k, n - 1))
    return QPoly(total[d] for d in range(max(total) + 1))
