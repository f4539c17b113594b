"""Automorphism groups of digraphs and the transitivity predicates.

The automorphism search backtracks over vertex images from color classes
refined by in/out degrees and distance profiles.  One step, ``_restrict``,
narrows the candidate images once a vertex is mapped: it keeps the
per-level prefix domains and prunes every node of the search, which is
guarded by a node budget.  Every transitivity claim reduces to orbit counts
on explicit tuple families, and one ``InstanceFacts`` per (digraph, group)
validates the group once and computes them, counting each distinct family
at most once: where every s-arc is an s-geodesic the two kinds share one
count, and the pairs at a distance are not counted again once the
geodesics there have one orbit.  It keeps the group on its reduced
generators (``PermGroup.reduced``): the search returns a strong generating
set, one generator per new orbit point at each level, and few of those are
needed to generate the group.  The orbit counts and the group-theoretic
tests of ``verify``'s checks read that one group and its one stabilizer
chain.  Each count (``_count_orbits``) checks that the family is invariant,
calling each generator on each tuple, then searches over positions in the
family, building each image from the generator's image table, so it holds
no second copy of the tuples and lists no orbit.  The public testers and
``transitivity_report`` each build one ``InstanceFacts``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from functools import cached_property

from .construct import CayleySpec
from .digraph import DIRECTED, S_ARC, S_GEODESIC, Digraph
from .errors import (
    BadParameter,
    NotAutomorphismGroup,
    NotStronglyConnected,
    SearchBudgetExceeded,
    SetNotInvariant,
)
from .groups import PermGroup
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
    profiles = []
    for v in range(g.n):
        row = tuple(sorted(inf if d is None else d for d in rows[v]))
        col = tuple(sorted(inf if rows[u][v] is None else rows[u][v] for u in range(g.n)))
        profiles.append((len(g._out[v]), len(g._in[v]), row, col))
    return profiles


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


def _restrict(domains, v: int, w: int, arcs):
    """Candidate images of every vertex but v once v maps to w.

    x stays a candidate for u iff x != w and the arcs between v and u, in
    both directions, match those between w and x.  Returns None as soon as
    one candidate tuple empties.  Tuples keep their increasing order.
    """
    restricted = {}
    for u, cands in domains.items():
        if u == v:
            continue
        v_to_u = (v, u) in arcs
        u_to_v = (u, v) in arcs
        kept = tuple(
            x
            for x in cands
            if x != w and ((w, x) in arcs) == v_to_u and ((x, w) in arcs) == u_to_v
        )
        if not kept:
            return None
        restricted[u] = kept
    return restricted


def automorphism_group(g: Digraph, node_budget: int | None = None) -> PermGroup:
    """The full group of arc-preserving vertex bijections of g.

    Vertices are processed in a fixed order, smallest color class first.
    Level v fixes the earlier vertices and hunts one automorphism per image
    of v outside v's orbit under the generators found so far that fix them,
    so generators are found without enumerating the whole group.  The
    candidate domains under the fixed prefix are kept incrementally with
    ``_restrict``, and each image w of v starts a backtracking search from
    ``_restrict(domains, v, w)``.  Each image tried inside that search is one
    node; past ``node_budget`` nodes (default ``DIGSYM_SEARCH_BUDGET``, else
    ``DEFAULT_NODE_BUDGET``) SearchBudgetExceeded is raised.
    """
    budget = default_node_budget() if node_budget is None else node_budget
    n = g.n
    if n == 0:
        return PermGroup((), 0)
    colors = _refine_colors(g)
    arcs = g.arcs
    domains = {v: tuple(w for w in range(n) if colors[w] == colors[v]) for v in range(n)}
    order = sorted(range(n), key=lambda v: (len(domains[v]), v))
    position = {v: i for i, v in enumerate(order)}
    nodes = 0

    def search(remaining):
        """Images for the vertices of ``remaining``; None if none fit or it is None."""
        nonlocal nodes
        if not remaining:
            return None if remaining is None else {}
        v = min(remaining, key=lambda u: (len(remaining[u]), position[u]))
        for w in remaining[v]:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(f"automorphism search exceeded {budget} nodes")
            found = search(_restrict(remaining, v, w, arcs))
            if found is not None:
                found[v] = w
                return found
        return None

    gens: list[Permutation] = []
    level_gens: list[Permutation] = []  # the generators fixing the prefix
    for v in order:
        orbit = PermGroup(level_gens, n).orbit(v)
        for w in domains[v]:
            if w in orbit:
                continue
            found = search(_restrict(domains, v, w, arcs))
            if found is not None:
                found[v] = w  # the processed prefix stays fixed
                perm = Permutation(tuple(found.get(u, u) for u in range(n)))
                gens.append(perm)
                level_gens.append(perm)
                orbit = PermGroup(level_gens, n).orbit(v)
        level_gens = [p for p in level_gens if p(v) == v]
        domains = _restrict(domains, v, v, arcs)
    return PermGroup(gens, n)


def check_is_automorphism_group(g: Digraph, group: PermGroup) -> None:
    """Raise NotAutomorphismGroup unless every generator preserves the arcs."""
    if group.degree != g.n:
        raise NotAutomorphismGroup(f"group degree {group.degree} != {g.n} vertices")
    for perm in group.generators:
        for u, v in g.arcs:
            if (perm(u), perm(v)) not in g.arcs:
                raise NotAutomorphismGroup(f"{perm} maps arc ({u},{v}) off the arc set")


def _count_orbits(group: PermGroup, family) -> int:
    """Number of orbits of ``group`` on a G-invariant list of vertex tuples.

    The action is diagonal.  A duplicate tuple raises ValueError, and a
    family that is not invariant raises SetNotInvariant naming its first
    tuple, in family order, with an image outside the family; that scan
    calls each permutation.  The orbits are then searched over positions in
    the family: a dict from tuple to position, one mark per position and a
    stack of positions, so no image outlives its lookup and no orbit is
    listed.  The search reads each generator's image table directly, one
    ``map`` per image.
    """
    index = {t: i for i, t in enumerate(family)}
    if len(index) != len(family):
        raise ValueError("tuple family contains duplicates")
    gens = group.generators
    for t in family:
        for perm in gens:
            image = tuple(perm(v) for v in t)
            if image not in index:
                raise SetNotInvariant(f"{t} maps to {image} outside the family")
    tables = [perm.images.__getitem__ for perm in gens]
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
    """Single orbit on the s-arcs; vacuously true when no s-arc exists."""
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
    its one stabilizer chain.  Each fact is computed on first use and kept
    for the life of the object.  Each distinct tuple family is enumerated
    and counted at most once: the s-arcs (kind ``S_ARC``) and the
    s-geodesics (``S_GEODESIC``); up to ``g._arc_geodesic_depth`` every
    s-arc is an s-geodesic, so there both kinds read the one s-arc count.
    The transitivity facts need the directed class, and ``report`` also
    strong connectivity; callers test those first.  ``cayley`` is the
    Cayley structure of ``g``, if known.
    """

    def __init__(self, g: Digraph, group: PermGroup, cayley: CayleySpec | None = None):
        check_is_automorphism_group(g, group)
        self.g = g
        self.group = group.reduced()
        self.cayley = cayley
        self._counts: dict[tuple[str, int], int] = {}

    @cached_property
    def strongly_connected(self) -> bool:
        return self.g.is_strongly_connected()

    @cached_property
    def valency(self) -> int | None:
        return self.g.valency()

    @cached_property
    def underlying_connected(self) -> bool:
        return len(self.g.weak_components()) == 1

    def _key(self, kind: str, s: int) -> tuple[str, int]:
        """The key of the family that the s-walks of ``kind`` are."""
        if kind == S_GEODESIC and s <= self.g._arc_geodesic_depth:
            return S_ARC, s
        return kind, s

    def count(self, kind: str, s: int) -> int:
        """Number of orbits on the s-walks of ``kind``; 0 when there are none."""
        key = self._key(kind, s)
        if key not in self._counts:
            family = self.g.s_arcs(s) if key[0] == S_ARC else self.g.s_geodesics(s)
            self._counts[key] = _count_orbits(self.group, family)
        return self._counts[key]

    def s_arc_transitive(self, s: int) -> bool:
        return self.count(S_ARC, s) <= 1

    def s_geodesic_transitive(self, s: int) -> bool:
        cap = min(s, self.g.max_geodesic_length())
        if cap == 0:
            return False  # no arcs at all
        return all(self.count(S_GEODESIC, i) == 1 for i in range(1, cap + 1))

    def distance_transitive(self) -> bool:
        """Single orbit on the ordered pairs at each distance.

        The pairs at distance d are the end pairs of the d-geodesics (d = 0:
        the vertices), so a d-geodesic count of 1 already counted settles
        distance d; the pairs are counted only where no such count is known.
        A digraph with no vertex has no pair at distance 0, so no orbit
        there, and is not distance-transitive.
        """
        g = self.g
        if g.n == 0:
            return False
        pairs_at = {}
        for u in range(g.n):
            for v in range(g.n):
                pairs_at.setdefault(g.distance(u, v), []).append((u, v))
        return all(
            (d is not None and self._counts.get(self._key(S_GEODESIC, d)) == 1)
            or _count_orbits(self.group, family) == 1
            for d, family in pairs_at.items()
        )

    @cached_property
    def report(self) -> TransitivityReport:
        """The transitivity summary of ``g``, named by its repr.

        max_arc_s and max_geodesic_s are the largest s such that every level
        1..s has a single orbit, capped at the diameter.
        """
        g = self.g
        diam = g.diameter()
        counts = {"vertices": self.count(S_ARC, 0)}
        best = {}
        for kind, label in ((S_ARC, "arcs"), (S_GEODESIC, "geodesics")):
            best[kind] = 0
            for s in range(1, diam + 1):
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


@dataclass(frozen=True)
class TransitivityReport:
    """Per-digraph transitivity summary with witnessing orbit counts."""

    digraph: str
    group_order: int
    vertex_transitive: bool
    max_arc_s: int
    max_geodesic_s: int
    distance_transitive: bool
    orbit_counts: dict[str, int] = field(compare=False)

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
    return replace(report, digraph=name) if name else report
