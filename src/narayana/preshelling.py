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
and the equivalence guard no longer cross-checks that pair.  The walk over
every face, independent of (i), runs when the number of faces is not
given, and on a failure, to name the first misowned face.
"""

from collections import defaultdict
from collections.abc import Sequence
from functools import reduce
from operator import and_, or_

from .shelling import FacetOrder, PureComplex, _bit_indices, _restriction_mask, omega_n

FACE_GUARD = 1 << 20


def face_masks(cx: PureComplex) -> set[int]:
    """Bitmasks of every face of cx, the empty face included, guarded by
    an m * 2^d size bound."""
    if cx.m << cx.d > FACE_GUARD:
        raise ValueError(f"complex too large: {cx.m} * 2^{cx.d} candidate faces "
                         "exceed the guard 2^20")
    faces = {0}
    for f in range(cx.m):
        mask = sub = cx.mask(f)
        while sub:
            faces.add(sub)
            sub = (sub - 1) & mask
    return faces


def _first_misowned_face(cx: PureComplex, r: Sequence[int]) -> "dict | None":
    """Walk each interval [r(F), F] once, recording its facet as an owner
    of every face in it.  Returns the first face in sorted mask order
    whose owner count is not one, with its owners ascending, or None when
    the intervals partition the complex."""
    faces = face_masks(cx)
    owners: defaultdict[int, list[int]] = defaultdict(list)
    for f in range(cx.m):
        free = sub = cx.mask(f) & ~r[f]
        while True:
            owners[r[f] | sub].append(f)
            if not sub:
                break
            sub = (sub - 1) & free
    for face in sorted(faces):
        if len(owners[face]) != 1:
            return {"face": list(_bit_indices(face)), "covered_by": owners[face]}
    return None


def chain_count(n: int) -> int:
    """The chains of the proper part of J(2 x n), the empty one included: the
    faces of dyck_complex(n).  t[a + 1][b + 1] counts the nonempty chains at
    or below (a, b), each topped by a point alone or over a chain below it."""
    t = [[0] * (n + 2) for _ in range(n + 2)]
    for a in range(n + 1):
        for b in range(n + 1):
            below = t[a][b + 1] + t[a + 1][b] - t[a][b]
            t[a + 1][b + 1] = 2 * below + 1 if b <= a and 0 < a + b < 2 * n else below
    return 1 + t[n + 1][n + 1]


def check_preshelling(ord: FacetOrder, faces: "int | None" = None) -> dict:
    """The four pre-shelling conditions, each one mask test per facet, with
    a witness for each failure: the first failing pair (f, g) in the order
    of combinations (i) or permutations (iii, iv) of the facet indices, and
    the first misowned face (ii).  faces is the number of faces, the empty
    one included, if known.  The verdicts must agree by the equivalence
    theorem; a disagreement could only come from a bug and raises
    RuntimeError."""
    cx = ord.complex
    m = cx.m
    r = [_restriction_mask(ord, f) for f in range(m)]
    everyone = (1 << m) - 1
    # fits[f]: the facets G holding r(F); holders[v]: the facets F with v in r(F)
    fits = [reduce(and_, [cx.vertex_facets[v] for v in _bit_indices(rf)], everyone) for rf in r]
    holders = [0] * len(cx.vertex_facets)
    for f, rf in enumerate(r):
        for v in _bit_indices(rf):
            holders[v] |= 1 << f
    # fitted[f]: the facets G whose r(G) holds no vertex outside F
    held = [(1 << v, facets) for v, facets in enumerate(holders) if facets]
    outside = ([h for bit, h in held if not cx.mask(f) & bit] for f in range(m))
    fitted = [everyone & ~reduce(or_, facets, 0) for facets in outside]
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
    sizes = sum(1 << cx.d - rf.bit_count() for rf in r)
    found = {
        "i": i,
        "ii": None if i is None and sizes == faces else _first_misowned_face(cx, r),
        "iii": first([fits[f] & ~above[f] & ~(1 << f) for f in range(m)]),
        "iv": first([fitted[f] & ~ord.below_mask(f) & ~(1 << f) for f in range(m)]),
    }
    conditions = {name: witness is None for name, witness in found.items()}
    witnesses = {name: witness for name, witness in found.items() if witness is not None}
    if len(set(conditions.values())) != 1:
        raise RuntimeError(f"equivalence broken: {conditions}")
    return {"is_preshelling": conditions["i"], "conditions": conditions, "witnesses": witnesses}


def verify_preshelling(n: int) -> list[dict]:
    """The preshelling check: omega_n(n) meets the four pre-shelling
    conditions.  One witness per failed condition, tagged with its name;
    empty when the order is a pre-shelling."""
    report = check_preshelling(omega_n(n), chain_count(n))
    return [{"condition": name, **w} for name, w in report["witnesses"].items()]
