"""Finite digraphs and their purely combinatorial primitives.

Vertices are 0..n-1 and arcs are ordered pairs of distinct vertices.  A
digraph whose arc relation is antisymmetric is classed ``directed``; a
symmetric relation is ``undirected``; anything else is ``mixed``.  Distance
is directed (breadth-first over out-arcs) and unreachable pairs yield
``None`` rather than an error.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property

from .errors import LoopArc, NotStronglyConnected, ParseError, VertexOutOfRange, read_headed

DIRECTED = "directed"
UNDIRECTED = "undirected"
MIXED = "mixed"

S_ARC = "s_arc"
S_GEODESIC = "s_geodesic"


class Frozen:
    """Base of the immutable values: setting or deleting an attribute raises
    AttributeError, and instances of one class, or a subclass, are equal and
    hash alike when their ``_key()`` values are.  Constructors, cached
    properties and unpickling write to the instance dict or slot directly."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return self._key() == other._key() if isinstance(other, type(self)) else NotImplemented

    def __hash__(self):
        return hash(self._key())


class Digraph(Frozen):
    """Immutable digraph, keyed by its n and arcs; all operations are pure reads."""

    def __init__(self, n: int, arcs: frozenset[tuple[int, int]], symmetry_class: str):
        vars(self).update(n=n, arcs=arcs, symmetry_class=symmetry_class)

    def _key(self) -> tuple:
        return self.n, self.arcs

    @cached_property
    def _out(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            out[u].append(v)
        return tuple(tuple(sorted(vs)) for vs in out)

    @cached_property
    def _in(self) -> tuple[tuple[int, ...], ...]:
        inn = [[] for _ in range(self.n)]
        for u, v in self.arcs:
            inn[v].append(u)
        return tuple(tuple(sorted(us)) for us in inn)

    def out_neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(self._out[v])

    def in_neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(self._in[v])

    def valency(self) -> int | None:
        """The common in/out degree when the digraph is regular, else None."""
        if self.n == 0:
            return None
        sizes = {len(self._out[v]) for v in range(self.n)}
        sizes |= {len(self._in[v]) for v in range(self.n)}
        return sizes.pop() if len(sizes) == 1 else None

    @cached_property
    def _distance_matrix(self) -> tuple[tuple[int | None, ...], ...]:
        return tuple(self._bfs_row(u) for u in range(self.n))

    def _bfs_row(self, source: int) -> tuple[int | None, ...]:
        dist: list[int | None] = [None] * self.n
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self._out[u]:
                if dist[w] is None:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return tuple(dist)

    def distance(self, u: int, v: int) -> int | None:
        """Directed distance from u to v; None when v is unreachable."""
        self._check_vertex(u)
        self._check_vertex(v)
        return self._distance_matrix[u][v]

    @cached_property
    def _distance_summary(self) -> tuple[bool, int]:
        """Strong connectivity and the largest finite distance, from one scan
        of the distance matrix.  Every row holds its own 0, so a row with an
        unreachable vertex still has a finite maximum."""
        connected, longest = True, 0
        for row in self._distance_matrix:
            if None in row:
                connected = False
                row = [d for d in row if d is not None]
            longest = max(longest, *row)
        return connected, longest

    def is_strongly_connected(self) -> bool:
        return self._distance_summary[0]

    def diameter(self) -> int:
        connected, longest = self._distance_summary
        if not connected:
            raise NotStronglyConnected("diameter requires a strongly connected digraph")
        return longest

    def max_geodesic_length(self) -> int:
        """Largest finite directed distance between any ordered pair."""
        return self._distance_summary[1]

    def girth(self) -> int | None:
        """Length of a minimal circuit (closed path on >= 3 distinct vertices).

        Returns None when the digraph has no circuit.  Two-vertex digons never
        count, in any symmetry class.  A shortest y->x path avoiding the
        single arc (y, x) closes a circuit of length >= 3 through the arc
        (x, y).  When (y, x) is no arc, that path is any shortest y->x path,
        read from the distance matrix; only a digon arc needs a search.
        """
        dist = self._distance_matrix
        lengths = (
            self._detour(y, x) if (y, x) in self.arcs else dist[y][x]
            for x, y in self.arcs
        )
        return min((d + 1 for d in lengths if d is not None), default=None)

    def _detour(self, source: int, target: int) -> int | None:
        """Length of a shortest source->target path that avoids the arc
        (source, target); None when there is none."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self._out[u]:
                if w in dist or (u, w) == (source, target):
                    continue
                if w == target:
                    return dist[u] + 1
                dist[w] = dist[u] + 1
                queue.append(w)
        return None

    def induced(self, vertices) -> tuple["Digraph", dict[int, int]]:
        """Induced subdigraph on a vertex set plus the old->new relabel map."""
        ordered = sorted(set(vertices))
        for v in ordered:
            self._check_vertex(v)
        relabel = {v: i for i, v in enumerate(ordered)}
        arcs = [
            (relabel[u], relabel[v])
            for u, v in self.arcs
            if u in relabel and v in relabel
        ]
        return build(len(ordered), arcs), relabel

    def weak_components(self) -> list[tuple[int, ...]]:
        """The weakly connected components, each sorted, ordered by least vertex."""
        component = [{v} for v in range(self.n)]
        for u, v in self.arcs:
            if component[u] is not component[v]:
                merged = component[u] | component[v]
                for w in merged:
                    component[w] = merged
        return sorted({tuple(sorted(c)) for c in component})

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} not in 0..{self.n - 1}")

    def __repr__(self) -> str:
        return f"Digraph(n={self.n}, arcs={len(self.arcs)}, {self.symmetry_class})"


def classify_arcs(arcs) -> str:
    """directed if no arc has its reverse, undirected if all do, else mixed."""
    arcset = set(arcs)
    mutual = sum(1 for a in arcset if (a[1], a[0]) in arcset)
    if mutual == 0:
        return DIRECTED
    if mutual == len(arcset):
        return UNDIRECTED
    return MIXED


def build(n: int, arcs) -> Digraph:
    """Validate, deduplicate and classify an arc list into a Digraph."""
    if n < 0:
        raise ValueError("vertex count must be nonnegative")
    arcset = set()
    for u, v in arcs:
        if u == v:
            raise LoopArc(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"arc ({u},{v}) not within 0..{n - 1}")
        arcset.add((u, v))
    return Digraph(n, frozenset(arcset), classify_arcs(arcset))


def from_text(text: str) -> Digraph:
    """Parse the digraph text format: ``n <count>`` then one ``u v`` per line."""
    n, lines = read_headed(text, "n", "count", "vertex count", 0)
    arcs = []
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected 'u v', got {line!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer arc {line!r}", line=lineno) from None
        try:
            if u == v:
                raise LoopArc(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"arc ({u},{v}) not within 0..{n - 1}")
        except (LoopArc, VertexOutOfRange) as exc:
            raise ParseError(str(exc), line=lineno) from exc
        arcs.append((u, v))
    return build(n, arcs)


def to_text(g: Digraph) -> str:
    lines = [f"n {g.n}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.arcs))
    return "\n".join(lines) + "\n"
