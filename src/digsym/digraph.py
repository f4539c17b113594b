"""Finite digraphs and their purely combinatorial primitives.

Vertices are 0..n-1 and arcs are ordered pairs of distinct vertices.  A
digraph whose arc relation is antisymmetric is classed ``directed``; a
symmetric relation is ``undirected``; anything else is ``mixed``.  Distance
is directed (breadth-first over out-arcs) and unreachable pairs yield
``None`` rather than an error.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from .errors import LoopArc, NotStronglyConnected, ParseError, VertexOutOfRange, read_headed

DIRECTED = "directed"
UNDIRECTED = "undirected"
MIXED = "mixed"

S_ARC = "s_arc"
S_GEODESIC = "s_geodesic"


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph; all operations are pure reads."""

    n: int
    arcs: frozenset[tuple[int, int]]
    symmetry_class: str = field(compare=False)

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

    def is_regular(self) -> bool:
        return self.valency() is not None

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

    @cached_property
    def _arc_geodesic_depth(self) -> int:
        """Largest s such that, at every level t <= s, each t-arc is a t-geodesic.

        While every shorter arc from u is a geodesic, the t-arcs from u are
        the geodesics to u's layer t - 1 followed by one arc; so the depth
        is the least d(u, y) over arcs (y, x) with d(u, x) != d(u, y) + 1,
        one scan of the distance matrix.  With no such arc, every arc is a
        geodesic at every level, so none is longer than the longest
        distance, and the depth is ``max_geodesic_length() + 1``.
        """
        return min(
            (
                row[y]
                for row in self._distance_matrix
                for y, x in self.arcs
                if row[y] is not None and row[x] != row[y] + 1
            ),
            default=self.max_geodesic_length() + 1,
        )

    def s_arcs(self, s: int) -> list[tuple[int, ...]]:
        """All s-arcs as vertex tuples in lexicographic order; vertices may repeat."""
        return self._walks(s, S_ARC)

    def s_geodesics(self, s: int) -> list[tuple[int, ...]]:
        """All s-arcs whose endpoints are at directed distance exactly s."""
        return self._walks(s, S_GEODESIC)

    def _walks(self, s: int, kind: str) -> list[tuple[int, ...]]:
        """The s-walks of ``kind``, grown one start vertex at a time.

        The walks from v are extended one level at a time, so only v's
        shorter walks live beside the result.  Start vertices are taken in
        order and out-neighbours are sorted, so the result is lexicographic.
        Every prefix of a geodesic is a geodesic, so geodesics keep only the
        extensions whose endpoint is at distance exactly the new length,
        read from v's distance row.
        """
        if s < 0:
            raise ValueError("s must be nonnegative")
        out = self._out
        walks = []
        for v in range(self.n):
            row = self._distance_matrix[v] if kind == S_GEODESIC else None
            level = [(v,)]
            for length in range(1, s + 1):
                level = [
                    w + (x,)
                    for w in level
                    for x in out[w[-1]]
                    if row is None or row[x] == length
                ]
            walks.extend(level)
        return walks

    def girth(self) -> int | None:
        """Length of a minimal circuit (closed path on >= 3 distinct vertices).

        Returns None when the digraph has no circuit.  Two-vertex digons never
        count, in any symmetry class.
        """
        return min(self._circuit_lengths.values(), default=None)

    @cached_property
    def _circuit_lengths(self) -> dict[tuple[int, int], int]:
        """Length of a shortest circuit through each arc that lies on one.

        A shortest y->x path avoiding the single arc (y, x) closes a circuit
        of length >= 3 through (x, y).  When (y, x) is no arc, that path is
        any shortest y->x path, read from the distance matrix; only digon
        arcs need the banned-arc search.
        """
        dist = self._distance_matrix
        lengths = {}
        for x, y in self.arcs:
            if (y, x) in self.arcs:
                path = self._shortest_path(y, x, banned=(y, x))
                if path is not None:
                    lengths[x, y] = len(path)
            elif dist[y][x] is not None:
                lengths[x, y] = dist[y][x] + 1
        return lengths

    def _shortest_path(self, source: int, target: int, banned) -> list[int] | None:
        prev: dict[int, int] = {source: source}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            if u == target:
                path = [u]
                while path[-1] != source:
                    path.append(prev[path[-1]])
                return path[::-1]
            for w in self._out[u]:
                if (u, w) == banned or w in prev:
                    continue
                prev[w] = u
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
