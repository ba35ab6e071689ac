"""Finite posets, ideal lattices and the flag h-vector.

The central objects are the chain product 2 x n, its lattice of order
ideals J(2 x n), and the flag h-vector of a graded bounded poset: beta(S)
is the inclusion-exclusion transform of alpha(S), the number of chains
through the interior ranks S.  On an ideal lattice J(P), beta(S) counts
the maximal chains, that is the linear extensions of P, whose descent set
under a natural labelling of P is S (Stanley), and flag_h_table computes
it that way.  Linear extensions of 2 x n biject with Dyck paths by reading
the first coordinate, and that bijection carries descent sets of
Jordan-Holder permutations to path statistics.
"""

from __future__ import annotations

from collections import Counter
from functools import cache, cached_property
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .dyck import DyckPath, enumerate_paths, label

Element = Hashable

THEOREM_GUARD = 6


def _bit_indices(mask: int) -> Iterator[int]:
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


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


def permutation_descents(pi: Sequence[int]) -> frozenset[int]:
    """Positions i with pi(i) > pi(i+1), 1-based."""
    return frozenset(i for i in range(1, len(pi)) if pi[i - 1] > pi[i])


def flag_h_table(L: IdealLattice) -> Counter[frozenset[int]]:
    """beta(S) for every subset S of the interior ranks of L = J(P).

    By Stanley's theorem (EC1 3.13), beta(S) counts the maximal chains of
    L whose label word has descent set S, a cover I < I + {x} being
    labelled by the position of x in the base's topological order, a
    natural labelling of P.  One pass over the covers by rank keeps, for
    each ideal and label of its last cover, a Counter of descent masks,
    rank r being bit r - 1.  Only nonzero entries appear, in bitmask
    order."""
    base = L.base
    position = {base.elements[i]: pos for pos, i in enumerate(base._topo)}
    states: list[dict[int, Counter[int]]] = [{} for _ in range(L.p)]
    states[L.index(L.zero_hat)][-1] = Counter({0: 1})
    for r, layer in enumerate(L._by_rank):
        for i in layer:
            for j in L._up[i]:
                (x,) = L.elements[j] - L.elements[i]
                new = position[x]
                masks = states[j].setdefault(new, Counter())
                for last, counts in states[i].items():
                    descent = 1 << (r - 1) if last > new else 0
                    for mask, count in counts.items():
                        masks[mask | descent] += count
    top: Counter[int] = Counter()
    for counts in states[L.index(L.one_hat)].values():
        top.update(counts)
    return Counter({frozenset(b + 1 for b in _bit_indices(m)): top[m] for m in sorted(top)})


def flag_h_mismatches(
    betas: Mapping[frozenset[int], int], **tables: Mapping[frozenset[int], int]
) -> list[dict]:
    """Compare a flag h-table, as flag_h_table gives it, with each named
    table of counts by rank set; a missing key counts as zero.  One witness
    per rank set S, ordered by size and then elements, on which some table
    differs from beta(S); the witness holds beta(S) as flag_h, S as s, and
    each table's count by name."""
    witnesses = []
    for S in sorted(set(betas).union(*tables.values()), key=lambda s: (len(s), sorted(s))):
        beta = betas.get(S, 0)
        counts = {name: table.get(S, 0) for name, table in tables.items()}
        if any(count != beta for count in counts.values()):
            witnesses.append({"flag_h": beta, "s": sorted(S), **counts})
    return witnesses


def verify_theorem_main(n: int, refs: Iterable[DyckPath]) -> list[dict]:
    """Check beta(S) of J(2 x n) against the number of paths whose descent
    set read against W equals S, for every S in [2n-1] and every reference
    path W in refs.

    The flag h-vector is computed once and every path and reference is
    labeled once.  Returns the flag_h_mismatches witnesses of each
    reference in turn, each with keys flag_h, paths, ref_path and s; the
    list is empty when the theorem holds.
    """
    if n > THEOREM_GUARD:
        raise ValueError(f"too large: n = {n} exceeds guard {THEOREM_GUARD}")
    if n < 1:
        raise ValueError(f"verify_theorem_main needs n >= 1, got {n}")
    refs = list(refs)
    for W in refs:
        if W.n != n:
            raise ValueError(f"length mismatch: |W| = {2 * W.n}, expected {2 * n}")
    betas = flag_h_table(j2xn(n))
    labeled = [label(w.word) for w in enumerate_paths(n)]
    witnesses = []
    for W in refs:
        order = {lab: pos for pos, lab in enumerate(label(W.word))}
        buckets = Counter(permutation_descents([order[x] for x in lab]) for lab in labeled)
        mismatches = flag_h_mismatches(betas, paths=buckets)
        witnesses += [dict(w, ref_path=W.word) for w in mismatches]
    return witnesses
