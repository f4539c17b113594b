"""Finitely generated permutation groups and multiplication-table groups.

PermGroup carries a deterministic Schreier-Sims stabilizer chain built
lazily on first use (order, membership, stabilizers).  Every chain grows one
way: it sifts its generators in turn and keeps those that enlarge it, so a
group's reduced generating set is read off its own chain.  The chain
computes on image tuples: its transversals and their cached inverses are
tuples, sifting takes and returns one, and products are composed with
``operator.itemgetter``, so membership, orders and stabilizers make no
``Permutation``.  The chain is the engine behind normal closures and block
actions.  Orbits on points are computed here and nowhere else:
``_orbit_mask`` grows one orbit as a bitset from a point under generator
image tuples, and ``_orbit_masks`` yields every orbit in order of its least
point; ``PermGroup``'s orbit methods, ``GroupTable``'s subgroup closures
and element orders, the automorphism search and the distance-transitivity
test all read them.  ``validate_partition`` is the one place that checks
a partition and builds its block index.  Block systems come from Atkinson's
minimal-block closure.  ``normal_partitions`` maps each orbit partition of
a nontrivial intransitive normal subgroup to its block kernel: the one
source of normal subgroups that the quasiprimitivity predicates and the
verification checks quantify over.
"""

from __future__ import annotations

import threading
from collections import deque
from collections.abc import Iterable
from itertools import chain
from operator import itemgetter

from .digraph import Frozen
from .errors import (
    DegreeMismatch,
    NotSubgroupElement,
    NotTransitive,
    ParseError,
    PartitionInvalid,
    PartitionNotInvariant,
    read_headed,
)
from .perm import Permutation, invert_images


def _largest_cycle_point(images: tuple) -> int:
    """The least point on a longest cycle of a non-identity image tuple."""
    seen = [False] * len(images)
    best, best_length = 0, 0
    for start in range(len(images)):
        length, p = 0, start
        while not seen[p]:
            seen[p] = True
            p = images[p]
            length += 1
        if length > best_length:
            best, best_length = start, length
    return best


class _Level:
    """One stabilizer-chain level: a base point, the strong generators fixing
    the earlier base points, a transversal of the fundamental orbit with the
    inverse of each representative, and the set of Schreier pairs already
    verified.  Generators, representatives and inverses are image tuples."""

    __slots__ = ("point", "gens", "transversal", "inverses", "orbit_order", "checked")

    def __init__(self, point: int, identity: tuple):
        self.point = point
        self.gens: list[tuple] = []
        self.transversal: dict[int, tuple] = {point: identity}
        self.inverses: dict[int, tuple] = {point: identity}
        self.orbit_order: list[int] = [point]
        self.checked: set[tuple[int, int]] = set()


class _Chain:
    """Mutable stabilizer chain grown by deterministic Schreier-Sims.

    ``_Chain(generators, degree, base_prefix)`` presets one level per
    distinct ``base_prefix`` point, in order, then sifts each generator in
    turn with ``extend_with``; ``kept`` lists the generators that enlarged
    the chain, which generate the same group.  Transversals only ever grow
    and existing representatives never change, so each Schreier pair needs
    checking exactly once: membership of a once verified product is
    preserved as the chain grows.

    Inside the chain every element is an image tuple: ``sift`` takes and
    returns one, and strips it with the cached inverse representatives, so
    no ``Permutation`` is made.  Products are composed with
    ``operator.itemgetter``: ``itemgetter(*a)(b)[i] == b[a[i]]``, a then b.
    ``extend_with`` and ``contains`` take a ``Permutation``, ``kept`` holds
    the caller's own objects, and ``elements`` hands out new ones.
    """

    def __init__(self, generators: Iterable[Permutation], degree: int, base_prefix=()):
        self.identity = tuple(range(degree))
        self.levels = [_Level(p, self.identity) for p in dict.fromkeys(base_prefix)]
        self.kept: list[Permutation] = []
        for g in generators:
            self.extend_with(g)

    def _distribute(self, g: tuple) -> int:
        """Record g as a strong generator; returns the deepest level it joins."""
        j = len(self.levels)
        for i, level in enumerate(self.levels):
            if g[level.point] != level.point:
                j = i
                break
        if j == len(self.levels):
            self.levels.append(_Level(_largest_cycle_point(g), self.identity))
        for k in range(j + 1):
            self.levels[k].gens.append(g)
        return j

    def sift(self, g: tuple, start: int = 0) -> tuple[tuple, int]:
        """Strip the image tuple g through the chain; returns (residue image
        tuple, stop level)."""
        levels = self.levels
        if len(g) < 2:
            # Only the identity moves at most one point, and itemgetter over
            # fewer than two indices returns no tuple.
            return g, len(levels)
        for i in range(start, len(levels)):
            level = levels[i]
            inv = level.inverses.get(g[level.point])
            if inv is None:
                return g, i
            g = itemgetter(*g)(inv)
        return g, len(levels)

    def _verify_level(self, i: int) -> int | None:
        """Process unchecked Schreier pairs; returns deepest changed level."""
        level = self.levels[i]
        transversal, inverses = level.transversal, level.inverses
        idx = 0
        while idx < len(level.orbit_order):
            p = level.orbit_order[idx]
            rep = transversal[p]
            for gi in range(len(level.gens)):
                if (p, gi) in level.checked:
                    continue
                level.checked.add((p, gi))
                g = level.gens[gi]
                q = g[p]
                known = inverses.get(q)
                if known is None:
                    # Tree edge: the representative makes this pair trivial.
                    product = itemgetter(*rep)(g)
                    transversal[q] = product
                    inverses[q] = invert_images(product)
                    level.orbit_order.append(q)
                    continue
                schreier = itemgetter(*itemgetter(*rep)(g))(known)
                if schreier == self.identity:
                    continue
                residue, j = self.sift(schreier, i + 1)
                if residue == self.identity:
                    continue
                # The pair stays checked: its product is a member once the
                # residue joins the deeper chain.
                return self._distribute(residue)
            idx += 1
        return None

    def extend_with(self, g: Permutation) -> bool:
        """Add one generator, kept when it enlarges the chain; returns
        False when g was already a member."""
        residue, _ = self.sift(g.images)
        if residue == self.identity:
            return False
        self.kept.append(g)
        i = self._distribute(residue)
        while i >= 0:
            changed = self._verify_level(i)
            i = changed if changed is not None else i - 1
        return True

    def order(self) -> int:
        total = 1
        for level in self.levels:
            total *= len(level.transversal)
        return total

    def contains(self, g: Permutation) -> bool:
        residue, _ = self.sift(g.images)
        return residue == self.identity

    def elements(self) -> list[Permutation]:
        result = [self.identity]
        for level in reversed(self.levels):
            reps = [level.transversal[p] for p in sorted(level.transversal)]
            result = [tuple(map(u.__getitem__, w)) for u in reps for w in result]
        return [Permutation._unchecked(w) for w in result]


def validate_partition(degree: int, partition) -> tuple[list[tuple[int, ...]], tuple[int, ...]]:
    """Blocks of a partition of {0..degree-1} as sorted tuples, ordered by
    their minimum, and each point's block index; raises PartitionInvalid
    unless they partition the set."""
    blocks = [tuple(sorted(b)) for b in partition]
    if any(not b for b in blocks):
        raise PartitionInvalid("empty block")
    blocks.sort(key=lambda b: b[0])
    if sorted(v for b in blocks for v in b) != list(range(degree)):
        raise PartitionInvalid("blocks must partition the point set")
    block_of = [0] * degree
    for i, b in enumerate(blocks):
        for v in b:
            block_of[v] = i
    return blocks, tuple(block_of)


def _bits(mask: int):
    """The positions of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _orbit_mask(tables, v: int) -> int:
    """The orbit of v under the group the image tuples generate, as a bitset."""
    orbit, stack = 1 << v, [v]
    while stack:
        x = stack.pop()
        for table in tables:
            y = table[x]
            if not orbit >> y & 1:
                orbit |= 1 << y
                stack.append(y)
    return orbit


def _orbit_masks(tables, degree: int):
    """Each orbit on 0..degree-1 of the group the image tuples generate, as
    a bitset, in order of its least point."""
    rest = (1 << degree) - 1
    while rest:
        orbit = _orbit_mask(tables, (rest & -rest).bit_length() - 1)
        rest &= ~orbit
        yield orbit


def _block_closure(gens: tuple[Permutation, ...], degree: int, seed) -> tuple[tuple[int, ...], ...]:
    """Finest gens-invariant partition with every seed point in one block.

    Atkinson's closure: union-find over the points, where every merge of
    two classes queues the pair of their roots and each queued pair's
    images under the generators are merged in turn.  Blocks come back as
    sorted tuples ordered by their minimum.
    """
    parent = list(range(degree))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    pending = []

    def merge(a: int, b: int) -> None:
        a, b = find(a), find(b)
        if a != b:
            parent[b] = a
            pending.append((a, b))

    for p in seed[1:]:
        merge(seed[0], p)
    images = [g.images for g in gens]
    while pending:
        a, b = pending.pop()
        for img in images:
            merge(img[a], img[b])
    blocks: dict[int, list[int]] = {}
    for v in range(degree):
        blocks.setdefault(find(v), []).append(v)
    return tuple(sorted(tuple(b) for b in blocks.values()))


class PermGroup:
    """A permutation group given by generators on {0..degree-1}."""

    def __init__(self, generators: Iterable[Permutation] = (), degree: int | None = None):
        gens = list(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree is required for a generator-free group")
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise DegreeMismatch(f"generator degree {g.degree} != {degree}")
        self.degree = degree
        self.generators: tuple[Permutation, ...] = tuple(
            g for g in dict.fromkeys(gens) if not g.is_identity())
        self._chain: _Chain | None = None
        self._chain_lock = threading.Lock()
        self._partitions: dict[tuple[tuple[int, ...], ...], PermGroup] | None = None

    @property
    def chain(self) -> _Chain:
        # Single-writer discipline: concurrent first use is serialized here.
        if self._chain is None:
            with self._chain_lock:
                if self._chain is None:
                    self._chain = _Chain(self.generators, self.degree)
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def is_trivial(self) -> bool:
        return not self.generators

    def reduced(self) -> "PermGroup":
        """The same group on the generators that each enlarge the group
        generated by the ones before them.

        These are the ``kept`` generators of the group's own chain, which
        sifted the generators in order; the result shares that chain, so
        reducing a group whose chain exists builds nothing new.  A strong
        generating set, such as the automorphism search returns, usually
        shrinks to a few generators.
        """
        group = PermGroup(self.chain.kept, self.degree)
        group._chain = self.chain
        return group

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            raise DegreeMismatch(f"element degree {g.degree} != {self.degree}")
        if g.is_identity():
            return True
        return self.chain.contains(g)

    def __contains__(self, g: Permutation) -> bool:
        return self.contains(g)

    def elements(self) -> list[Permutation]:
        """All group elements, deterministically ordered by the chain."""
        return self.chain.elements()

    # ------------------------------------------------------------------
    # orbits and stabilizers

    def _tables(self) -> list[tuple[int, ...]]:
        return [g.images for g in self.generators]

    def orbit(self, point: int) -> frozenset[int]:
        if not 0 <= point < self.degree:
            raise ValueError(f"point {point} out of range")
        return frozenset(_bits(_orbit_mask(self._tables(), point)))

    def orbit_partition(self) -> list[tuple[int, ...]]:
        """Orbits as sorted tuples, ordered by their minimum element."""
        return [tuple(_bits(o)) for o in _orbit_masks(self._tables(), self.degree)]

    def orbits_count(self) -> int:
        return sum(1 for _ in _orbit_masks(self._tables(), self.degree))

    def tuple_stabilizer(self, points) -> "PermGroup":
        """Pointwise stabilizer of a tuple of points.

        A chain whose base starts with the points has at the level after
        them the strong generators that fix them all.
        """
        points = tuple(points)
        for p in points:
            if not 0 <= p < self.degree:
                raise ValueError(f"point {p} out of range")
        chain = _Chain(self.generators, self.degree, base_prefix=points)
        depth = len(set(points))
        gens = chain.levels[depth].gens if depth < len(chain.levels) else ()
        return PermGroup(map(Permutation._unchecked, gens), self.degree)

    # ------------------------------------------------------------------
    # predicates

    def is_transitive(self) -> bool:
        return self.degree > 0 and _orbit_mask(self._tables(), 0) == (1 << self.degree) - 1

    def is_regular(self) -> bool:
        return self.is_transitive() and self.order() == self.degree

    def is_normal(self, sub: "PermGroup") -> bool:
        """Whether sub (with generators inside self) is normal in self."""
        if sub.degree != self.degree:
            raise DegreeMismatch(f"degree {sub.degree} != {self.degree}")
        for x in sub.generators:
            if not self.contains(x):
                raise NotSubgroupElement(f"{x} is not in the group")
        pairs = [(g.inverse(), g) for g in self.generators]
        for x in sub.generators:
            for g_inv, g in pairs:
                if not sub.contains(g_inv * x * g):
                    return False
        return True

    def normal_closure(self, elements: Iterable[Permutation]) -> "PermGroup":
        """Smallest normal subgroup of self containing the given elements."""
        elements = list(elements)
        for e in elements:
            if not self.contains(e):
                raise NotSubgroupElement(f"{e} is not in the group")
        # The chain keeps only elements that enlarge the subgroup, so
        # generator lists stay logarithmic in the closure's order.
        chain = _Chain(elements, self.degree)
        queue = deque(chain.kept)
        while queue:
            x = queue.popleft()
            for g in self.generators:
                conjugate = g.inverse() * x * g
                if chain.extend_with(conjugate):
                    queue.append(conjugate)
        group = PermGroup(chain.kept, self.degree)
        group._chain = chain
        return group

    def derived_subgroup(self) -> "PermGroup":
        commutators = []
        for a in self.generators:
            for b in self.generators:
                c = a.inverse() * b.inverse() * a * b
                if not c.is_identity():
                    commutators.append(c)
        return self.normal_closure(commutators)

    def is_soluble(self) -> bool:
        """Whether the derived series reaches the trivial group."""
        current = self
        order = current.order()
        while order > 1:
            derived = current.derived_subgroup()
            next_order = derived.order()
            if next_order == order:
                return False
            current, order = derived, next_order
        return True

    def is_quasiprimitive(self) -> bool:
        """Every nontrivial normal subgroup is transitive."""
        return not self.normal_partitions()

    def is_biquasiprimitive(self) -> bool:
        """Every nontrivial normal subgroup has <= 2 orbits, some exactly 2."""
        partitions = self.normal_partitions()
        return bool(partitions) and all(len(p) == 2 for p in partitions)

    # ------------------------------------------------------------------
    # block systems and their kernels

    def _block_images(self, partition) -> tuple[int, list[Permutation]]:
        """The number of blocks of an invariant partition and each
        generator's permutation of them."""
        blocks, block_of = validate_partition(self.degree, partition)
        image_gens = []
        for g in self.generators:
            images = g.images
            targets = []
            for b in blocks:
                target = block_of[images[b[0]]]
                if tuple(sorted(map(images.__getitem__, b))) != blocks[target]:
                    raise PartitionNotInvariant(f"generator {g} breaks block {b}")
                targets.append(target)
            image_gens.append(Permutation(targets))
        return len(blocks), image_gens

    def induced_block_action(self, partition) -> "PermGroup":
        """The action on the blocks of an invariant partition."""
        m, image_gens = self._block_images(partition)
        return PermGroup(image_gens, m)

    def block_action_kernel(self, partition) -> "PermGroup":
        """The kernel of the action on the blocks of an invariant partition.

        It is the stabilizer of every block point in the combined action on
        points plus blocks.
        """
        m, image_gens = self._block_images(partition)
        combined = [
            Permutation(tuple(g.images) + tuple(self.degree + i for i in img.images))
            for g, img in zip(self.generators, image_gens)
        ]
        combined_group = PermGroup(combined, self.degree + m)
        stab = combined_group.tuple_stabilizer(range(self.degree, self.degree + m))
        kernel_gens = [Permutation(g.images[: self.degree]) for g in stab.generators]
        return PermGroup(kernel_gens, self.degree)

    def block_systems(self) -> list[tuple[tuple[int, ...], ...]]:
        """Every block system other than the singletons and the whole set.

        Each system is a tuple of sorted blocks ordered by their minimum, and
        the list is sorted.  Of a transitive group every block system is the
        join of the minimal ones that put 0 together with some b, so the
        Atkinson closures of {0, b} are joined until nothing new appears; the
        join of two systems is the closure of the union of their blocks at 0.
        A group with no points has none.
        """
        if self.degree and not self.is_transitive():
            raise NotTransitive("block systems are enumerated for transitive groups")
        found: set[tuple[tuple[int, ...], ...]] = set()
        seeds = [(0, b) for b in range(1, self.degree)]
        while seeds:
            system = _block_closure(self.generators, self.degree, seeds.pop())
            if len(system) > 1 and system not in found:
                seeds.extend(system[0] + other[0] for other in found)
                found.add(system)
        return sorted(found)

    def normal_partitions(self) -> dict[tuple[tuple[int, ...], ...], "PermGroup"]:
        """Each orbit partition of a nontrivial intransitive normal subgroup,
        mapped to the kernel of the action on its blocks, in the order of
        the partitions.

        The orbits of such a subgroup N form a block system B, and the
        kernel K_B of the action on B contains N and has the same orbits.
        So the partitions are exactly the systems B with K_B != 1 whose
        kernel's orbits are B itself, and K_B is the largest normal
        subgroup with those orbits.  A system is fixed by its block at 0,
        so K_B <= K_C iff B refines C iff B[0] is inside C[0].
        """
        if self._partitions is None:
            partitions = {}
            for system in self.block_systems():
                kernel = self.block_action_kernel(system)
                if not kernel.is_trivial() and tuple(kernel.orbit_partition()) == system:
                    partitions[system] = kernel
            self._partitions = partitions
        return dict(self._partitions)

    def __reduce__(self):
        # The chain, partitions and lock are rebuilt on first use.
        return self.__class__, (self.generators, self.degree)

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, generators={len(self.generators)})"


# ----------------------------------------------------------------------
# abstract groups as multiplication tables


class GroupTable(Frozen):
    """A finite group given by its multiplication table over 0..m-1; two
    tables are equal, and hash alike, when their tables are.

    The group acts on itself by right translation, and ``columns[g]`` is
    the image tuple of h -> h*g, kept once per table.  The subgroup that
    some elements generate and the order of an element are orbits of the
    identity under their columns, read with ``_orbit_mask``.
    """

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        m = len(rows)
        for r in rows:
            if len(r) != m or any(not 0 <= x < m for x in r):
                raise ValueError("multiplication table must be square over 0..m-1")
        vars(self).update(mul_table=rows, columns=tuple(zip(*rows)), order=m)
        vars(self)["identity"] = self._find_identity()
        vars(self)["inverse_table"] = self._find_inverses()
        self._check_associativity()

    def _find_identity(self) -> int:
        for e in range(self.order):
            if all(self.mul_table[e][x] == x and self.mul_table[x][e] == x for x in range(self.order)):
                return e
        raise ValueError("table has no identity element")

    def _find_inverses(self) -> tuple[int, ...]:
        inv = []
        for x in range(self.order):
            for y in range(self.order):
                if self.mul_table[x][y] == self.identity and self.mul_table[y][x] == self.identity:
                    inv.append(y)
                    break
            else:
                raise ValueError(f"element {x} has no inverse")
        return tuple(inv)

    def _check_associativity(self) -> None:
        """Light's test: (xa)y = x(ay) for all x, y and each generator a.

        The elements a passing the test are closed under products, so the
        test over a generating set decides associativity exactly.
        """
        mul = self.mul_table
        for a in self.generating_set():
            row_a = mul[a]
            for x, xa in enumerate(self.columns[a]):
                xa_row, x_row = mul[xa], mul[x]
                for y in range(self.order):
                    if xa_row[y] != x_row[row_a[y]]:
                        raise ValueError(f"table is not associative at ({x},{a},{y})")

    def mul(self, a: int, b: int) -> int:
        return self.mul_table[a][b]

    def inverse(self, x: int) -> int:
        return self.inverse_table[x]

    def _closure(self, seeds) -> int:
        """The orbit of the identity under right multiplication by the seeds,
        as a bitset: in a finite group, the subgroup they generate.  It holds
        only products of the seeds, so it keeps Light's test exact on a table
        not yet known to be associative."""
        return _orbit_mask([self.columns[s] for s in seeds], self.identity)

    def order_of(self, x: int) -> int:
        """Least r >= 1 with x^r equal to the identity: the size of the
        identity's orbit under right multiplication by x."""
        if not 0 <= x < self.order:
            raise ValueError(f"element {x} out of range")
        return self._closure((x,)).bit_count()

    def generated_subset(self, seeds) -> frozenset[int]:
        """The subgroup generated by ``seeds``."""
        return frozenset(_bits(self._closure(seeds)))

    def generating_set(self, first=()) -> list[int]:
        """A small generating set found greedily: the elements of ``first`` in
        their order, then every element in index order, each kept when it lies
        outside the subgroup generated by those kept before it."""
        gens: list[int] = []
        closure, whole = self._closure(()), (1 << self.order) - 1
        for x in chain(first, range(self.order)):
            if not closure >> x & 1:
                gens.append(x)
                closure = self._closure(gens)
                if closure == whole:
                    break
        return gens

    def _key(self) -> tuple:
        return self.mul_table

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order})"


def table_from_text(text: str) -> GroupTable:
    """Parse the table format: ``order m`` then m rows of m indices."""
    order, lines = read_headed(text, "order", "m", "order", 1)
    rows = []
    for lineno, line in lines:
        try:
            rows.append([int(p) for p in line.split()])
        except ValueError:
            raise ParseError(f"non-integer entry in {line!r}", line=lineno) from None
        if len(rows[-1]) != order:
            raise ParseError(f"expected {order} entries per row", line=lineno)
    if len(rows) != order:
        raise ParseError(f"expected {order} rows, got {len(rows)}")
    try:
        return GroupTable(rows)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def table_to_text(table: GroupTable) -> str:
    lines = [f"order {table.order}"]
    lines.extend(" ".join(map(str, row)) for row in table.mul_table)
    return "\n".join(lines) + "\n"
