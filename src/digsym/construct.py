"""Builders: standard digraph families, Cayley digraphs, quotient digraphs.

Cayley digraphs follow the right-coset picture: the vertex set is the group
H, with an arc (h, x*h) for every h in H and every x in the connection set
S.  The group acts on itself by right translation, which preserves arcs and
is regular on vertices; a ``CayleyDigraph`` keeps its ``CayleySpec``, whose
R(H), built once, seeds the automorphism search.  The group automorphisms
that fix S setwise also preserve arcs; ``aut_preserving_conn`` is the one
enumerator of group automorphisms, searched from S, and with S empty it
returns all of Aut(H).
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import product
from math import prod

from .digraph import Digraph, Frozen, build
from .errors import (
    BadParameter,
    BoundExceeded,
    IdentityInConnectionSet,
    NotAntisymmetric,
    ParseError,
)
from .groups import GroupTable, PermGroup, table_from_text, validate_partition
from .perm import Permutation

# Candidate generator-image maps that aut_preserving_conn may try.
AUT_TABLE_BUDGET = 1_000_000


def read_text(path: str) -> str:
    """The contents of a UTF-8 text file.

    A file that cannot be opened or read (missing, a directory, no
    permission) or is not UTF-8 raises ParseError naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 text ({exc.reason})") from None


def circuit(n: int) -> CayleyDigraph:
    """The directed cycle 0 -> 1 -> ... -> n-1 -> 0, built as Cay(Z_n, {1})."""
    if n < 3:
        raise BadParameter("a circuit needs at least 3 vertices")
    return cayley_digraph(cayley_spec(cyclic_table(n), [1]))


def complete(n: int) -> Digraph:
    """The undirected complete graph: all ordered pairs of distinct vertices."""
    if n < 1:
        raise BadParameter("complete graph needs at least 1 vertex")
    return build(n, [(u, v) for u in range(n) for v in range(n) if u != v])


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def paley_residues(q: int) -> tuple[int, ...]:
    """The nonzero squares mod q, sorted: the Paley connection set.

    Requires q prime with q = 3 (mod 4) so that the relation is antisymmetric.
    """
    if not _is_prime(q) or q % 4 != 3:
        raise BadParameter(f"Paley tournaments need a prime q = 3 (mod 4), got {q}")
    return tuple(sorted({(x * x) % q for x in range(1, q)}))


def paley_tournament(q: int) -> CayleyDigraph:
    """Cay(Z_q, squares): x -> y iff y - x is a nonzero square mod q."""
    return cayley_digraph(cayley_spec(cyclic_table(q), paley_residues(q)))


# ----------------------------------------------------------------------
# group tables for the families the corpus uses


def cyclic_table(n: int) -> GroupTable:
    if n < 1:
        raise BadParameter("cyclic group order must be positive")
    return GroupTable([[(i + j) % n for j in range(n)] for i in range(n)])


def abelian_table(factors) -> GroupTable:
    """Direct product of cyclic groups; elements are mixed-radix tuples."""
    factors = tuple(factors)
    if not factors or any(f < 1 for f in factors):
        raise BadParameter("invariant factors must be positive")
    tuples = list(product(*(range(f) for f in factors)))
    index = {t: i for i, t in enumerate(tuples)}
    rows = []
    for a in tuples:
        rows.append(
            [index[tuple((x + y) % f for x, y, f in zip(a, b, factors))] for b in tuples]
        )
    return GroupTable(rows)


def dihedral_table(n: int) -> GroupTable:
    """Dihedral group of order 2n: indices i are rotations, n+i reflections."""
    if n < 1:
        raise BadParameter("dihedral parameter must be positive")
    m = 2 * n

    def mul(a: int, b: int) -> int:
        ra, fa = a % n, a >= n
        rb, fb = b % n, b >= n
        # (r^ra s^fa)(r^rb s^fb) with s r = r^-1 s.
        rot = (ra - rb) % n if fa else (ra + rb) % n
        return rot + n * (fa ^ fb)

    return GroupTable([[mul(a, b) for b in range(m)] for a in range(m)])


def parse_group_spec(spec: str) -> GroupTable:
    """Parse ``cyclic:7``, ``abelian:2x4``, ``dihedral:4`` or ``table:<path>``."""
    kind, _, arg = spec.partition(":")
    if not arg:
        raise BadParameter(f"malformed group spec {spec!r}")
    if kind in ("cyclic", "dihedral"):
        try:
            n = int(arg)
        except ValueError:
            raise BadParameter(f"group spec {spec!r} needs an integer argument") from None
        return cyclic_table(n) if kind == "cyclic" else dihedral_table(n)
    if kind == "abelian":
        try:
            factors = [int(p) for p in arg.split("x")]
        except ValueError:
            raise BadParameter(f"malformed abelian factors {arg!r}") from None
        return abelian_table(factors)
    if kind == "table":
        return table_from_text(read_text(arg))
    raise BadParameter(f"unknown group kind {kind!r}")


# ----------------------------------------------------------------------
# Cayley digraphs


class CayleySpec(Frozen):
    """A group table plus a connection set defining a Cayley digraph: a value,
    compared and hashed by (table, conn), whose R(T) and ``generates`` are
    computed when first read."""

    def __init__(self, table: GroupTable, conn: frozenset[int]):
        vars(self).update(table=table, conn=conn)

    def _key(self) -> tuple:
        return self.table, self.conn

    def __repr__(self):
        return "CayleySpec(table={!r}, conn={!r})".format(*self._key())

    @cached_property
    def generates(self) -> bool:
        """Whether S generates T, that is whether Cay(T, S) is strongly connected."""
        return len(self.table.generated_subset(self.conn)) == self.table.order

    @cached_property
    def translations(self) -> PermGroup:
        """R(T), built once for the search's seed, T1.2 and the holomorph."""
        return right_translations(self.table)


def cayley_spec(table: GroupTable, conn) -> CayleySpec:
    conn = frozenset(conn)
    for x in conn:
        if not 0 <= x < table.order:
            raise BadParameter(f"connection element {x} out of range")
    if table.identity in conn:
        raise IdentityInConnectionSet("identity cannot be a connection element")
    inverses = {table.inverse(x) for x in conn}
    if conn & inverses:
        raise NotAntisymmetric(f"connection set meets its inverses: {sorted(conn & inverses)}")
    return CayleySpec(table, conn)


class CayleyDigraph(Digraph):
    """Cay(T, S) with its spec, kept out of equality, hashing and repr: it
    equals its plain copy, and ``automorphism_group`` starts from R(T) on it."""

    def __init__(self, n: int, arcs, symmetry_class: str, spec: CayleySpec):
        super().__init__(n, arcs, symmetry_class)
        vars(self)["spec"] = spec


def cayley_digraph(spec: CayleySpec) -> CayleyDigraph:
    """Digraph on the group elements with arcs (h, x*h) for x in the connection set."""
    table, m = spec.table, spec.table.order
    g = build(m, [(h, table.mul(x, h)) for h in range(m) for x in spec.conn])
    return CayleyDigraph(g.n, g.arcs, g.symmetry_class, spec)


def right_translations(table: GroupTable) -> PermGroup:
    """The right regular representation h -> h*g as a permutation group, on
    the table's columns at its greedy generating set."""
    return PermGroup([Permutation(table.columns[g]) for g in table.generating_set()], table.order)


def aut_preserving_conn(spec: CayleySpec) -> list[Permutation]:
    """Automorphisms of the group that fix the connection set S setwise.

    Such an automorphism maps S onto S, so the generators are taken greedily
    from S first and then from the rest of the group: a generator in S is
    sent to an element of S of the same order, any other generator to any
    element of the same order, in every combination.  Each candidate is
    closed from the identity by right multiplication: a -> f(a) forces
    a*g -> f(a)*f(g) for every generator g.  The closure compares f on every
    (element, generator) pair, so a consistent closure satisfies
    f(a*g) = f(a)*f(g) throughout; as every element is a product of
    generators, f(a*b) = f(a)*f(b) for all a and b, and a closure that is a
    bijection is an automorphism with no further product scan.  Those that
    map S into S are kept; with S empty they are every automorphism of the
    group.  More than ``AUT_TABLE_BUDGET`` candidates raise BoundExceeded
    before any is tried.
    """
    table, conn = spec.table, spec.conn
    m, mul, e = table.order, table.mul_table, table.identity
    in_conn = sorted(conn)
    gens = table.generating_set(first=in_conn)
    orders = [table.order_of(x) for x in range(m)]
    choices = [
        [t for t in (in_conn if g in conn else range(m)) if orders[t] == orders[g]]
        for g in gens
    ]
    candidates = prod(len(c) for c in choices)
    if candidates > AUT_TABLE_BUDGET:
        raise BoundExceeded(
            f"{candidates} candidate automorphism maps exceed budget {AUT_TABLE_BUDGET}"
        )
    found = []
    for images in product(*choices):
        pairs = list(zip(gens, images))
        f = [-1] * m
        f[e] = e
        closed = [e]
        for a in closed:  # grows as it is read: a breadth-first closure
            row, image_row = mul[a], mul[f[a]]
            for g, fg in pairs:
                x, fx = row[g], image_row[fg]
                if f[x] < 0:
                    f[x] = fx
                    closed.append(x)
                elif f[x] != fx:
                    break
            else:
                continue
            break  # a clash: no homomorphism extends these images
        else:
            if len(set(f)) == m and all(f[x] in conn for x in conn):
                found.append(Permutation(f))
    return found


def cayley_holomorph_action(spec: CayleySpec) -> PermGroup:
    """The group generated by right translations and connection-preserving
    group automorphisms, acting on the Cayley digraph's vertices."""
    auts = aut_preserving_conn(spec)
    return PermGroup(list(spec.translations.generators) + auts, spec.table.order)


# ----------------------------------------------------------------------
# quotient digraphs


class QuotientResult(namedtuple("QuotientResult", "quotient block_map image_group internal_arcs")):
    """Quotient digraph on block indices plus the induced group action (a
    ``PermGroup`` or None) and whether any arc lies inside a block."""

    __slots__ = ()

    @property
    def num_blocks(self) -> int:
        return self.quotient.n


def quotient_digraph(g: Digraph, partition, group: PermGroup | None = None) -> QuotientResult:
    """Quotient of g by a partition of its vertices, such as the orbits of a
    normal subgroup.

    When ``group`` is given, the partition must be invariant under it and
    ``image_group`` is its action on the blocks.  Arcs inside a block are
    dropped and flagged via ``internal_arcs``; the quotient may land in any
    symmetry class.
    """
    blocks, block_of = validate_partition(g.n, partition)
    internal = False
    arcs = set()
    for u, v in g.arcs:
        if block_of[u] == block_of[v]:
            internal = True
        else:
            arcs.add((block_of[u], block_of[v]))
    quotient = build(len(blocks), arcs)
    image = group.induced_block_action(blocks) if group is not None else None
    return QuotientResult(quotient, block_of, image, internal)
