"""Pre-shellings of a pure complex, decided on facet masks.

A partial order on the facets of a pure complex is a pre-shelling when any
of four equivalent conditions holds: (i) mutual containment of restrictions
forces equality, (ii) the intervals [r(F), F] partition the complex,
(iii) r(F) fitting inside G forces F below G, (iv) every pair F not above G
admits a shelling step into G.  Every linear extension of a pre-shelling is
a shelling with the same restriction function.

Two intervals meet exactly when r(F) lies in G and r(G) in F, so given the
number of faces, (ii) holds when no pair fails (i) and the interval sizes
2^(d - |r(F)|) add up to it.  Computed that way (ii) is algebraically (i),
and the equivalence guard no longer cross-checks that pair; the tests keep
an independent walk over every face.
"""

from functools import reduce
from operator import and_, or_

from .dyck import _bit_indices
from .shelling import FacetOrder, PureComplex, _restriction_mask, dyck_complex, omega_n


def chain_count(n: int) -> int:
    """The chains of the proper part of J(2 x n), the empty one included: the
    faces of dyck_complex(n).  t[a + 1][b + 1] counts the nonempty chains at
    or below (a, b), each topped by a point alone or over a chain below it."""
    if n < 0:
        raise ValueError(f"negative semilength: {n}")
    t = [[0] * (n + 2) for _ in range(n + 2)]
    for a in range(n + 1):
        for b in range(n + 1):
            below = t[a][b + 1] + t[a + 1][b] - t[a][b]
            t[a + 1][b + 1] = 2 * below + 1 if b <= a and 0 < a + b < 2 * n else below
    return 1 + t[n + 1][n + 1]


def check_preshelling(cx: PureComplex, ord: FacetOrder, faces: int) -> dict:
    """The four pre-shelling conditions of ord on the facets of cx, each
    one mask test per facet, with a witness for each failure: the first
    failing pair (f, g) in the order of combinations (i) or permutations
    (iii, iv) of the facet indices, and for (ii) the face r(F) | r(G) of
    (i)'s pair, which both intervals hold, with all its owners.  faces is
    the number of faces of cx, the empty one included; an order on another
    number of facets raises ValueError.

    For each facet F it builds the facets G with r(F) inside G (fits, the
    AND of the vertex incidences over r(F)), those with r(G) inside F
    (fitted, every facet but those whose restriction holds a vertex outside
    F) and those above F (above, the transpose of below_mask, built down
    the generating relations).  Then (i) fails at F when fits & fitted
    holds another facet, (iii) when fits holds a facet not above F, and
    (iv) when fitted holds a facet not below F.  (ii)'s owners of a face
    are the facets H with r(H) inside it and it inside H: the AND of the
    incidences over the face, less every facet whose restriction holds a
    vertex outside it.  No face is built.  The verdicts must agree by the
    equivalence theorem; a disagreement could only come from a bug, or from
    a wrong face count when (i) holds and the interval sizes miss it, and
    raises RuntimeError."""
    if ord.m != cx.m:
        raise ValueError(f"order on {ord.m} facets, complex of {cx.m}")
    m = cx.m
    r = [_restriction_mask(cx, ord, f) for f in range(m)]
    everyone = (1 << m) - 1

    def holding(face: int) -> int:
        # the facets H with face inside H
        return reduce(and_, [cx.vertex_facets[v] for v in _bit_indices(face)], everyone)

    # fits[f]: the facets G holding r(F); holders[v]: the facets F with v in r(F)
    fits = [holding(rf) for rf in r]
    holders = [0] * len(cx.vertex_facets)
    for f, rf in enumerate(r):
        for v in _bit_indices(rf):
            holders[v] |= 1 << f
    held = [(1 << v, facets) for v, facets in enumerate(holders) if facets]

    def inside(face: int) -> int:
        # the facets H with r(H) inside face: no vertex of r(H) lies outside it
        return everyone & ~reduce(or_, [h for bit, h in held if not face & bit], 0)

    fitted = [inside(cx.mask(f)) for f in range(m)]
    # above[f]: the facets above F.  A generating relation (a, b) puts b and
    # all above it above a; b lies above more facets than a, so it comes first
    above = [0] * m
    for a, b in sorted(ord.relations, key=lambda ab: -ord.below_mask(ab[0]).bit_count()):
        above[a] |= 1 << b | above[b]

    def first(masks: list[int]) -> "dict | None":
        # the lowest f whose mask of failing partners g is nonzero, and its lowest g
        f = next((f for f, mask in enumerate(masks) if mask), None)
        return None if f is None else {"f": f, "g": (masks[f] & -masks[f]).bit_length() - 1}

    # (i) is symmetric in f and g, so its first f has no partner below it
    i = first([fits[f] & fitted[f] & ~(1 << f) for f in range(m)])
    shared = None
    if i is not None:
        face = r[i["f"]] | r[i["g"]]
        owners = holding(face) & inside(face)
        shared = {"face": list(_bit_indices(face)), "covered_by": list(_bit_indices(owners))}
    found = {
        "i": i,
        "ii": shared,
        "iii": first([fits[f] & ~above[f] & ~(1 << f) for f in range(m)]),
        "iv": first([fitted[f] & ~ord.below_mask(f) & ~(1 << f) for f in range(m)]),
    }
    conditions = {name: witness is None for name, witness in found.items()}
    # with no two intervals meeting, they partition the complex when their sizes add up
    conditions["ii"] &= sum(1 << cx.d - rf.bit_count() for rf in r) == faces
    witnesses = {name: witness for name, witness in found.items() if witness is not None}
    if len(set(conditions.values())) != 1:
        raise RuntimeError(f"equivalence broken: {conditions}")
    return {"is_preshelling": conditions["i"], "conditions": conditions, "witnesses": witnesses}


def verify_preshelling(n: int) -> list[dict]:
    """The preshelling check: omega_n(n) meets the four pre-shelling
    conditions.  One witness per failed condition, tagged with its name;
    empty when the order is a pre-shelling."""
    report = check_preshelling(dyck_complex(n), omega_n(n), chain_count(n))
    return [{"condition": name, **w} for name, w in report["witnesses"].items()]
