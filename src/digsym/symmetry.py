"""Automorphism groups of digraphs and the transitivity predicates.

The automorphism search backtracks over vertex images from color classes
refined by in/out degrees and distance profiles.  Candidate images are int
bitsets, and one step, ``_restrict``, narrows them once a vertex is mapped
by and-ing each with one of four masks read off the image's out- and
in-neighbor masks: it keeps the per-level prefix domains and prunes every
node of the search, which is guarded by a node budget.  The seed comes
from the digraph: on a ``CayleyDigraph`` Cay(T, S) the search skips the
refinement and starts from the right translations R(T) of its spec, so the
first level hunts no automorphism.  Every transitivity claim reduces to
orbit counts.
Orbits on points (vertex-transitivity, the search's level orbits and the
point stabilizer's orbits below) come from ``groups._orbit_mask`` and
``groups._orbit_masks``.  Orbits on the s-arcs and s-geodesics, s >= 1, are
counted on explicit tuple families, and one ``InstanceFacts`` per (digraph,
group) validates the group once and counts the levels in order, each once
and both kinds at a time, on one walk family per level, the s-arcs.  The
s-geodesics are the s-arcs whose ends lie at distance s, which makes every
prefix a geodesic too, so they are filtered out of the arcs, and a level
the filter leaves whole reads the s-arc count.  Facts of the
digraph alone, such as strong connectivity and valency, are read from the
``Digraph``, not kept a second time here.
Distance-transitivity counts no family: a transitive group is
distance-transitive iff the stabilizer of one vertex b, read off the
stabilizer chain, has one orbit on each layer of b's distance row.  It
keeps the group on its reduced generators (``PermGroup.reduced``): the
search returns a strong generating set, one generator per new orbit point
at each level, and few of those are needed to generate the group.  The
orbit counts and the group-theoretic tests of ``verify``'s checks read that
one group and its one stabilizer chain.  Each tuple count
(``_count_orbits``) checks that the family is invariant, then searches over
positions in the family, so it holds no second copy of the tuples and lists
no orbit; the scan and the search both build each image from the
generator's image table.  The public testers and ``transitivity_report``
each build one ``InstanceFacts``.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import cached_property

from .construct import CayleyDigraph, CayleySpec
from .digraph import DIRECTED, S_ARC, S_GEODESIC, Digraph
from .errors import (
    BadParameter,
    NotAutomorphismGroup,
    NotStronglyConnected,
    SearchBudgetExceeded,
    SetNotInvariant,
)
from .groups import PermGroup, _bits, _orbit_mask, _orbit_masks
from .perm import Permutation

DEFAULT_NODE_BUDGET = 2_000_000
_BUDGET_ENV = "DIGSYM_SEARCH_BUDGET"


def default_node_budget() -> int:
    value = os.environ.get(_BUDGET_ENV)
    if not value:
        return DEFAULT_NODE_BUDGET
    try:
        budget = int(value)
    except ValueError:
        budget = 0  # not an integer: rejected below with the same message
    if budget < 1:
        raise BadParameter(f"{_BUDGET_ENV} must be a positive integer, got {value!r}")
    return budget


def _distance_profiles(g: Digraph):
    """Initial vertex colors from degrees and sorted distance rows/columns."""
    rows = g._distance_matrix
    inf = g.n  # larger than any finite distance

    def profile(line):
        return tuple(sorted(inf if d is None else d for d in line))

    return [
        (len(g._out[v]), len(g._in[v]), profile(row), profile(col))
        for v, (row, col) in enumerate(zip(rows, zip(*rows)))
    ]


def _refine_colors(g: Digraph) -> list[int]:
    """Iterated neighborhood color refinement; returns a color per vertex."""
    profiles = _distance_profiles(g)
    palette = {p: i for i, p in enumerate(sorted(set(profiles)))}
    colors = [palette[p] for p in profiles]
    while True:
        keys = []
        for v in range(g.n):
            out_key = tuple(sorted(colors[w] for w in g._out[v]))
            in_key = tuple(sorted(colors[w] for w in g._in[v]))
            keys.append((colors[v], out_key, in_key))
        palette = {k: i for i, k in enumerate(sorted(set(keys)))}
        new_colors = [palette[k] for k in keys]
        if new_colors == colors:
            return colors
        colors = new_colors


def _restrict(domains, v: int, w: int, out_masks, in_masks):
    """Candidate images of every vertex but v once v maps to w.

    Domains are int bitsets of candidate images.  x stays a candidate for u
    iff x != w and the arcs between v and u, in both directions, match those
    between w and x: u keeps ``cands & link[2a + b]``, where a says whether
    (v, u) is an arc and b whether (u, v) is.  Returns None as soon as one
    candidate set empties.
    """
    out_w, in_w = out_masks[w], in_masks[w]
    not_w = ~(1 << w)
    # link[2a + b]: the x with ((w, x) in arcs) == a and ((x, w) in arcs) == b.
    link = (
        not_w & ~(out_w | in_w),
        not_w & in_w & ~out_w,
        not_w & out_w & ~in_w,
        not_w & out_w & in_w,
    )
    out_v, in_v = out_masks[v], in_masks[v]
    restricted = {}
    for u, cands in domains.items():
        if u == v:
            continue
        kept = cands & link[(out_v >> u & 1) << 1 | in_v >> u & 1]
        if not kept:
            return None
        restricted[u] = kept
    return restricted


def automorphism_group(g: Digraph) -> PermGroup:
    """The full group of arc-preserving vertex bijections of g.

    Vertices are processed in a fixed order, smallest color class first.
    Level v fixes the earlier vertices and hunts one automorphism per image
    of v outside v's orbit under the generators found so far that fix them,
    so generators are found without enumerating the whole group.  Candidate
    images are int bitsets, narrowed by per-vertex out- and in-neighbor
    masks built once per search.  The domains under the fixed prefix are
    kept incrementally with ``_restrict``, and each image w of v starts a
    backtracking search from ``_restrict(domains, v, w, ...)`` that tries
    candidates lowest first and branches on the vertex with the fewest
    candidates, earliest in the order on ties.  Each image tried inside that
    search is one node; past the node budget (``DIGSYM_SEARCH_BUDGET``,
    else ``DEFAULT_NODE_BUDGET``) SearchBudgetExceeded is raised.

    On a ``CayleyDigraph`` Cay(T, S) the search starts from its spec's
    right translations R(T), validated (``NotAutomorphismGroup`` if the spec
    does not match the arcs), and skips the color refinement, since an
    Aut-invariant coloring of a vertex-transitive digraph has one class:
    level 0 hunts nothing, the deeper levels run as on the plain copy
    ``build(g.n, g.arcs)``, and the group is the plain copy's on other
    generators.
    """
    budget = default_node_budget()
    n = g.n
    if isinstance(g, CayleyDigraph):
        seed = g.spec.translations
        check_is_automorphism_group(g, seed)
        domains = dict.fromkeys(range(n), (1 << n) - 1)
        gens = list(seed.generators)
    else:
        colors = _refine_colors(g)
        classes = dict.fromkeys(colors, 0)
        for w, color in enumerate(colors):
            classes[color] |= 1 << w
        domains = {v: classes[colors[v]] for v in range(n)}
        gens = []
    out_masks, in_masks = [0] * n, [0] * n
    for u, v in g.arcs:
        out_masks[u] |= 1 << v
        in_masks[v] |= 1 << u
    order = sorted(range(n), key=lambda v: (domains[v].bit_count(), v))
    position = {v: i for i, v in enumerate(order)}
    nodes = 0

    def search(remaining):
        """Images for the vertices of ``remaining``; None if none fit or it is None."""
        nonlocal nodes
        if not remaining:
            return None if remaining is None else {}
        v = min(remaining, key=lambda u: (remaining[u].bit_count(), position[u]))
        for w in _bits(remaining[v]):
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"automorphism search exceeded {budget} nodes")
            found = search(_restrict(remaining, v, w, out_masks, in_masks))
            if found is not None:
                found[v] = w
                return found
        return None

    level_gens = [p.images for p in gens]  # the generators fixing the prefix
    for v in order:
        orbit = _orbit_mask(level_gens, v)
        for w in _bits(domains[v]):
            if orbit >> w & 1:
                continue
            found = search(_restrict(domains, v, w, out_masks, in_masks))
            if found is not None:
                found[v] = w  # the processed prefix stays fixed
                perm = Permutation(tuple(found.get(u, u) for u in range(n)))
                gens.append(perm)
                level_gens.append(perm.images)
                orbit = _orbit_mask(level_gens, v)
        level_gens = [t for t in level_gens if t[v] == v]
        domains = _restrict(domains, v, v, out_masks, in_masks)
    return PermGroup(gens, n)


def check_is_automorphism_group(g: Digraph, group: PermGroup) -> None:
    """Raise NotAutomorphismGroup unless every generator preserves the arcs."""
    if group.degree != g.n:
        raise NotAutomorphismGroup(f"group degree {group.degree} != {g.n} vertices")
    arcs = g.arcs
    for perm in group.generators:
        images = perm.images
        for u, v in arcs:
            if (images[u], images[v]) not in arcs:
                raise NotAutomorphismGroup(f"{perm} maps arc ({u},{v}) off the arc set")


def _count_orbits(group: PermGroup, family) -> int:
    """Number of orbits of ``group`` on a G-invariant list of vertex tuples.

    The action is diagonal; the family has no duplicate tuple.  A family
    that is not invariant raises SetNotInvariant naming its first tuple, in
    family order, with an image outside the family.  The orbits
    are then searched over positions in the family: a dict from tuple to
    position, one mark per position and a stack of positions, so no image
    outlives its lookup and no orbit is listed.  The invariance scan and the
    search both read each generator's image table directly, one ``map`` per
    image.
    """
    index = {t: i for i, t in enumerate(family)}
    tables = [perm.images.__getitem__ for perm in group.generators]
    for t in family:
        for table in tables:
            image = tuple(map(table, t))
            if image not in index:
                raise SetNotInvariant(f"{t} maps to {image} outside the family")
    seen = bytearray(len(family))
    orbits = 0
    for start in range(len(family)):
        if seen[start]:
            continue
        orbits += 1
        seen[start] = 1
        stack = [start]
        while stack:
            t = family[stack.pop()]
            for table in tables:
                i = index[tuple(map(table, t))]
                if not seen[i]:
                    seen[i] = 1
                    stack.append(i)
    return orbits


def _require_tester_input(g: Digraph, s: int) -> None:
    if g.symmetry_class != DIRECTED:
        raise BadParameter("transitivity testers require the directed class")
    if s < 1:
        raise BadParameter("s must be at least 1")


def is_s_arc_transitive(g: Digraph, group: PermGroup, s: int) -> bool:
    """Single orbit on the s-arcs; vacuously true when no s-arc exists.
    Counts every level up to s, both kinds (``InstanceFacts.count``)."""
    _require_tester_input(g, s)
    return InstanceFacts(g, group).s_arc_transitive(s)


def is_s_geodesic_transitive(g: Digraph, group: PermGroup, s: int) -> bool:
    """Single orbit on the i-geodesics for every i <= min(s, max distance)."""
    _require_tester_input(g, s)
    return InstanceFacts(g, group).s_geodesic_transitive(s)


def is_vertex_transitive(g: Digraph, group: PermGroup) -> bool:
    check_is_automorphism_group(g, group)
    return group.is_transitive()


def is_distance_transitive(g: Digraph, group: PermGroup) -> bool:
    """Single orbit on ordered pairs at distance i, for every i <= diameter."""
    if not g.is_strongly_connected():
        raise NotStronglyConnected("distance-transitivity needs strong connectivity")
    return InstanceFacts(g, group).distance_transitive()


class InstanceFacts:
    """The facts about one pair (g, group) that the testers and checks share.

    Building it raises ``NotAutomorphismGroup`` unless every generator of
    ``group`` preserves the arcs of ``g``.  ``self.group`` is then
    ``group.reduced()``, the same group on fewer generators: every orbit
    count costs two images per tuple and generator, and the kernels,
    solubility and normality tests of the checks all read this one group and
    its one stabilizer chain.  It holds only the facts that need the group:
    those of ``g`` alone (strong connectivity, valency, distances, the
    components of the underlying graph) are read from ``g``, which caches
    its distance matrix and strong connectivity.  Each fact is computed on
    first use and kept for the life of the object.  The tuple families are
    the s-arcs (kind ``S_ARC``) and the s-geodesics (``S_GEODESIC``), built
    here and nowhere else.  ``count`` counts the levels in order, from the
    last one counted up to the one asked for.  Level t grows the kept
    (t-1)-arcs, one lexicographic list, to the t-arcs, filters out of them
    the t-geodesics, the t-arcs w with d(w[0], w[-1]) = t, and sets both
    counts of level t; a geodesic level that keeps every t-arc reads the
    one t-arc count.  So in any request order each level is built and
    counted at most once.  The one trade: ``is_s_arc_transitive`` alone
    counts every level up to s, both kinds, where only the s-arcs decide
    it; a survey asks for those levels anyway.  Orbits on
    the vertices are the group's own (``PermGroup.orbits_count``), and
    distance-transitivity counts no family: it reads the first two levels of
    the chain and one distance row.  The transitivity facts need the
    directed class, which ``verify.run_check`` tests once for every check
    id, and ``report`` also strong connectivity, which its callers test
    first.
    ``cayley`` is the Cayley structure of ``g``, if known.
    """

    def __init__(self, g: Digraph, group: PermGroup, cayley: CayleySpec | None = None):
        check_is_automorphism_group(g, group)
        self.g = g
        self.group = group.reduced()
        self.cayley = cayley
        self._counts: dict[tuple[str, int], int] = {}
        self._level = [(v,) for v in range(g.n)]  # the t-arcs, t the last level counted

    def count(self, kind: str, s: int) -> int:
        """Number of orbits on the s-walks of ``kind``, s >= 1; 0 when there
        are none.  ValueError for s below 1 or another kind.  Orbits on the
        vertices are the group's, not a count here.

        The levels not yet counted are counted in order, t = last + 1 .. s:
        the kept level grows to the t-arcs, the t-geodesics are filtered
        out of them, and both counts of level t are set.
        """
        if s < 1:
            raise ValueError(f"s must be at least 1, got {s}")
        if kind not in (S_ARC, S_GEODESIC):
            raise ValueError(f"kind must be {S_ARC!r} or {S_GEODESIC!r}, got {kind!r}")
        counts, out, rows = self._counts, self.g._out, self.g._distance_matrix
        for t in range(len(counts) // 2 + 1, s + 1):  # two counts per level
            self._level = arcs = [w + (x,) for w in self._level for x in out[w[-1]]]
            counts[S_ARC, t] = _count_orbits(self.group, arcs)
            geodesics = [w for w in arcs if rows[w[0]][w[-1]] == t]
            counts[S_GEODESIC, t] = (
                counts[S_ARC, t] if len(geodesics) == len(arcs)  # every t-arc is a geodesic
                else _count_orbits(self.group, geodesics)
            )
        return counts[kind, s]

    def s_arc_transitive(self, s: int) -> bool:
        return self.count(S_ARC, s) <= 1

    def s_geodesic_transitive(self, s: int) -> bool:
        cap = min(s, self.g.max_geodesic_length())
        if cap == 0:
            return False  # no arcs at all
        return all(self.count(S_GEODESIC, i) == 1 for i in range(1, cap + 1))

    def distance_transitive(self) -> bool:
        """Single orbit on the ordered pairs at each distance, unreachable
        pairs included.

        The pairs at distance 0 are the vertices, so the group must be
        transitive.  A transitive G has one orbit on the pairs at distance d
        iff the stabilizer G_b of one vertex b has one orbit on b's layer
        {v : d(b, v) = d}: every pair maps to one starting at b, and two
        pairs from b share an orbit exactly under G_b.  G_b preserves the
        layers, so that holds for every layer at once iff G_b has as many
        orbits as b's distance row has distinct values.  b is the chain's
        first base point, and G_b is generated by the strong generators of
        the chain's second level (none: G_b is trivial).  A digraph with no
        vertex has no pair at distance 0 and is not distance-transitive.
        """
        group = self.group
        if not group.is_transitive():
            return False
        levels = group.chain.levels
        if not levels:
            return True  # one vertex: a single pair, at distance 0
        row = self.g._distance_matrix[levels[0].point]
        gens = levels[1].gens if len(levels) > 1 else ()
        return sum(1 for _ in _orbit_masks(gens, len(row))) == len(set(row))

    @cached_property
    def report(self) -> TransitivityReport:
        """The transitivity summary of ``g``, named by its repr.

        max_arc_s and max_geodesic_s are the largest s such that every level
        1..s has a single orbit, capped at the diameter.
        """
        g = self.g
        diam = g.diameter()
        counts = {"vertices": self.group.orbits_count()}
        best = dict.fromkeys((S_ARC, S_GEODESIC), 0)
        for s in range(1, diam + 1):
            for kind, label in ((S_ARC, "arcs"), (S_GEODESIC, "geodesics")):
                orbits = counts[f"{s}-{label}"] = self.count(kind, s)
                if orbits == 1 and best[kind] == s - 1:
                    best[kind] = s
        return TransitivityReport(
            digraph=repr(g),
            group_order=self.group.order(),
            vertex_transitive=counts["vertices"] == 1,
            max_arc_s=best[S_ARC],
            max_geodesic_s=best[S_GEODESIC],
            distance_transitive=self.distance_transitive(),
            orbit_counts=counts,
        )


class TransitivityReport(namedtuple("TransitivityReport", "digraph group_order vertex_transitive"
                                    " max_arc_s max_geodesic_s distance_transitive orbit_counts")):
    """Per-digraph transitivity summary with witnessing orbit counts (a dict
    of str to int), which equality and the hash ignore."""

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self[:-1] == other[:-1]

    def __ne__(self, other):  # tuple's own __ne__ would compare the counts
        return not self == other

    def __hash__(self):
        return hash(self[:-1])

    def to_dict(self) -> dict:
        return {
            "digraph": self.digraph,
            "group_order": self.group_order,
            "vertex_transitive": self.vertex_transitive,
            "max_arc_s": self.max_arc_s,
            "max_geodesic_s": self.max_geodesic_s,
            "distance_transitive": self.distance_transitive,
            "orbit_counts": dict(sorted(self.orbit_counts.items())),
        }

    def to_text(self) -> str:
        lines = [
            f"digraph={self.digraph}",
            f"group_order={self.group_order}",
            f"vertex_transitive={str(self.vertex_transitive).lower()}",
            f"max_arc_s={self.max_arc_s}",
            f"max_geodesic_s={self.max_geodesic_s}",
            f"distance_transitive={str(self.distance_transitive).lower()}",
        ]
        for key in sorted(self.orbit_counts):
            lines.append(f"orbits[{key}]={self.orbit_counts[key]}")
        return "\n".join(lines) + "\n"


def transitivity_report(
    g: Digraph, group: PermGroup | None = None, name: str = ""
) -> TransitivityReport:
    """Compute the transitivity summary, using Aut(g) when no group is given.

    max_arc_s and max_geodesic_s are computed incrementally from s = 1 and
    capped at the diameter.
    """
    if g.symmetry_class != DIRECTED:
        raise BadParameter("transitivity reports require the directed class")
    if not g.is_strongly_connected():
        raise NotStronglyConnected("transitivity reports need strong connectivity")
    if group is None:
        group = automorphism_group(g)
    report = InstanceFacts(g, group).report
    return report._replace(digraph=name) if name else report
