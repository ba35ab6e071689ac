"""Slow definitional oracles for the fast routines of the library, and the
paper's proof devices.  Each routine computes by definition what the library
computes by a theorem or a transfer matrix, and the tests compare the two.
None of it serves a request.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import cache, cached_property, reduce
from itertools import combinations
from typing import Hashable, Iterable, Sequence

from narayana.dyck import DyckPath, _completions, descent_set, label, ls_set
from narayana.qpoly import QPoly, mul_q_int
from narayana.shelling import FacetOrder, PureComplex, _bit_indices, _topological_order
from narayana.tableaux import two_column_fillings

Element = Hashable

LINEAR_EXTENSION_GUARD = 16


# per-path statistics, the oracle of dyck.distribution and dyck.joint_q
def des(w: DyckPath) -> int:
    return len(descent_set(w.word))


def maj(w: DyckPath) -> int:
    return sum(descent_set(w.word))


def high_peak_set(w: DyckPath) -> frozenset[int]:
    """Positions i of peaks vh whose prefix v-excess through the v is >= 2."""
    word = w.word
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


def hp(w: DyckPath) -> int:
    return len(high_peak_set(w))


def ea(w: DyckPath) -> int:
    """Number of v in even positions."""
    word = w.word
    return sum(1 for i in range(2, 2 * w.n + 1, 2) if word[i - 1] == "v")


def lnfs(w: DyckPath) -> int:
    return len(ls_set(w.word))


def maj_l(w: DyckPath) -> int:
    return sum(ls_set(w.word))


def da(w: DyckPath) -> int:
    """Number of double ascents, i.e. factors vv."""
    word = w.word
    return sum(1 for i in range(2 * w.n - 1) if word[i] == "v" and word[i + 1] == "v")


def label_string(w: DyckPath) -> str:
    """The labeling rendered like ``v1v2h1v3h2h3``."""
    return "".join(f"{letter}{index}" for letter, index in label(w.word))


def descent_set_wrt(w: DyckPath, w0: DyckPath) -> frozenset[int]:
    """Positions i where the labeled letter w_{i+1} occurs before w_i in w0."""
    if w.n != w0.n:
        raise ValueError(f"length mismatch: |w| = {2 * w.n}, |W| = {2 * w0.n}")
    order = {lab: pos for pos, lab in enumerate(label(w0.word))}
    labeled = label(w.word)
    return frozenset(
        i
        for i in range(1, 2 * w.n)
        if order[labeled[i]] < order[labeled[i - 1]]
    )


def des_wrt(w: DyckPath, w0: DyckPath) -> int:
    return len(descent_set_wrt(w, w0))


def maj_wrt(w: DyckPath, w0: DyckPath) -> int:
    return sum(descent_set_wrt(w, w0))


def rank(w: DyckPath) -> int:
    """Position of w in lexicographic order with v < h; inverse of
    dyck.unrank, counting the paths that branch off w with an h."""
    index = 0
    excess = 0
    length = 2 * w.n
    for i in range(1, length + 1):
        if w.word[i - 1] == "h":
            index += _completions(length - i, excess + 1)
            excess -= 1
        else:
            excess += 1
    return index


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


def extension_to_path(sigma: Sequence[tuple[int, int]]) -> DyckPath:
    """Read a linear extension of 2 x n as a word: first-row elements
    become v, second-row elements become h."""
    n, remainder = divmod(len(sigma), 2)
    P = chain_product_2xn(n) if n >= 1 and not remainder else None
    covers = [] if P is None else [(a, b) for a in P.elements for b in P.upper_covers(a)]
    if P is None or not is_linear_extension(sigma, P.elements, covers):
        raise ValueError("not a linear extension")
    return DyckPath("v" if e[0] == 1 else "h" for e in sigma)


def path_to_extension(w: DyckPath) -> tuple[tuple[int, int], ...]:
    """Inverse of extension_to_path: the label ("v", i) becomes (1, i) and
    ("h", j) becomes (2, j)."""
    return tuple((1 if letter == "v" else 2, i) for letter, i in label(w.word))


# the path-facet bijection, shellings and the rewrite potential
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


def s_map(w: DyckPath, i: int) -> DyckPath:
    """Rewrite the factor at positions i, i+1, i+2: vvh -> vhv and
    hhv -> hvh; anything else is left alone.  The oracle of the rewrites
    in shelling.omega_n."""
    if not 1 <= i <= 2 * w.n - 2:
        raise ValueError(f"position out of range: {i} not in [1, {2 * w.n - 2}]")
    word = w.word
    rewrite = {"vvh": "vhv", "hhv": "hvh"}.get(word[i - 1 : i + 2])
    return w if rewrite is None else DyckPath(word[: i - 1] + rewrite + word[i + 2 :])


def closure_covers(om: FacetOrder) -> list[tuple[int, int]]:
    """Cover pairs (i, j), ordered by j and then i, by walking every pair
    i < j of the closure: the oracle of FacetOrder.covers."""
    below = [om.below_mask(j) for j in range(om.m)]
    above = [0] * om.m
    for j, mask in enumerate(below):
        for i in _bit_indices(mask):
            above[i] |= 1 << j
    return [
        (i, j)
        for j, mask in enumerate(below)
        for i in _bit_indices(mask)
        if not above[i] & mask
    ]


def pairwise_restriction_mask(om: FacetOrder, f: int) -> int:
    """The mask of r(F) as the union of F minus E over the facets E below F
    that miss exactly one vertex of F: the oracle of the restriction
    masks in shelling."""
    cx = om.complex
    fm, out = cx.mask(f), 0
    for e in _bit_indices(om.below_mask(f)):
        missing = fm & ~cx.mask(e)
        if missing.bit_count() == 1:
            out |= missing
    return out


def dfs_face_masks(cx: PureComplex) -> set[int]:
    """Every face of the complex by removing one vertex at a time from the
    facets, depth first: the oracle of PureComplex.face_masks."""
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


def sigma_stat(w: DyckPath) -> tuple[int, int]:
    """The potential (da, maj); strictly lexicographically smaller after
    every nontrivial rewrite, which makes the rewriting relation acyclic."""
    return (da(w), maj(w))


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
    facets = [cx.face_members(cx.mask(f)) for f in range(cx.m)]
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


# q-analogues, and long division, the oracle of qpoly.div_q_int
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
    return QPoly(reduce(mul_q_int, range(2, n + 1), [1]))


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


# the sum over the tableaux, the oracle of tableaux.q_narayana_ssyt
def q_narayana_fillings(n: int, k: int) -> QPoly:
    """The sum of q^(entry sum) over the tableaux of shape 2^k with entries
    below n, each listed by two_column_fillings.  Zero for k >= n."""
    if k >= n:
        return QPoly()
    total = Counter(sum(map(sum, rows)) for rows in two_column_fillings(k, n - 1))
    return QPoly(total[d] for d in range(max(total) + 1))
