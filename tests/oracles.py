"""Independent brute-force oracles used to validate the library.

Everything here is deliberately naive and self-contained: plain tuple
arithmetic, exhaustive scans and breadth-first closures, with no reliance
on the package's stabilizer chains or pruned searches.  The exceptions are
``reference_automorphism_group``, the earlier form of the automorphism
search, kept to pin the current search's generators and node counts, and
``larger_normal_subgroup``, the earlier containment test behind T1.1's
maximality, kept as the reference for its block inclusion.
"""

from collections import Counter, deque
from itertools import combinations, permutations

from digsym import symmetry
from digsym.digraph import S_ARC, S_GEODESIC, build
from digsym.errors import SearchBudgetExceeded
from digsym.groups import PermGroup
from digsym.perm import Permutation


def brute_distance(arcs, n, source, target):
    """BFS distance over an explicit arc set; None when unreachable."""
    out = {v: [] for v in range(n)}
    for u, v in arcs:
        out[u].append(v)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        if u == target:
            return dist[u]
        for w in out[u]:
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist.get(target)


def brute_s_arcs(arcs, n, s):
    """Every vertex sequence of length s+1 whose consecutive pairs are arcs,
    in lexicographic order.

    Every vertex is tried after each such sequence one shorter, so a
    sequence is dropped at its first pair that is no arc rather than
    enumerated to full length.
    """
    arcset = set(arcs)
    found = [(v,) for v in range(n)]
    for _ in range(s):
        found = [seq + (v,) for seq in found for v in range(n) if (seq[-1], v) in arcset]
    return found


def brute_s_geodesics(arcs, n, s):
    return [
        seq
        for seq in brute_s_arcs(arcs, n, s)
        if brute_distance(arcs, n, seq[0], seq[-1]) == s
    ]


def walk_counts(arcs, n, s):
    """The numbers of s-arcs and of s-geodesics, by dynamic programming: no
    walk is listed.

    Walks are counted by end vertex, one step along the out-neighbours at a
    time.  A walk from a start is a geodesic exactly when its i-th vertex
    lies at distance i from the start for every i, so the geodesics from
    each start step only into the next of its breadth-first distance layers.
    """
    out = {v: [] for v in range(n)}
    for u, v in arcs:
        out[u].append(v)

    def step(ends, admissible):
        longer = Counter()
        for v, count in ends.items():
            for w in out[v]:
                if admissible(w):
                    longer[w] += count
        return longer

    ends = Counter(range(n))
    for _ in range(s):
        ends = step(ends, lambda w: True)
    geodesics = 0
    for start in range(n):
        layer, seen, paths = {start}, {start}, Counter([start])
        for _ in range(s):
            layer = {w for v in layer for w in out[v]} - seen
            seen |= layer
            paths = step(paths, layer.__contains__)
        geodesics += sum(paths.values())
    return sum(ends.values()), geodesics


def symmetric_closure(g):
    """The digraph on g's vertices with both directions of every arc of g."""
    return build(g.n, set(g.arcs) | {(v, u) for u, v in g.arcs})


def brute_arc_geodesic_depth(arcs, n):
    """Largest s such that the t-arcs equal the t-geodesics at every t <= s.

    The first level with no t-arc ends the scan: every later level is empty
    in both families, and that level is returned.
    """
    t = 1
    while True:
        arcs_t = brute_s_arcs(arcs, n, t)
        if set(brute_s_geodesics(arcs, n, t)) != set(arcs_t):
            return t - 1
        if not arcs_t:
            return t
        t += 1


def brute_girth(arcs, n):
    """Minimum length of a closed simple path on >= 3 distinct vertices."""
    out = {v: [] for v in range(n)}
    for u, v in arcs:
        out[u].append(v)
    best = None

    def dfs(start, path):
        nonlocal best
        if best is not None and len(path) >= best:
            return
        for w in out[path[-1]]:
            if w == start and len(path) >= 3:
                if best is None or len(path) < best:
                    best = len(path)
            elif w not in path:
                dfs(start, path + [w])

    for v in range(n):
        dfs(v, [v])
    return best


def brute_isomorphic(arcs_a, arcs_b, n):
    """Whether some permutation of range(n) maps arcs_a onto arcs_b."""
    arcs_a, arcs_b = set(arcs_a), set(arcs_b)
    return len(arcs_a) == len(arcs_b) and any(
        {(images[u], images[v]) for u, v in arcs_a} == arcs_b
        for images in permutations(range(n))
    )


def brute_weak_components(vertices, arcs):
    """The weakly connected components of the digraph on ``vertices`` with
    ``arcs``, each sorted, ordered by least vertex."""
    left, found = set(vertices), []
    while left:
        component, grown = {min(left)}, True
        while grown:
            reached = {x for arc in arcs if not component.isdisjoint(arc) for x in arc}
            grown = not reached <= component
            component |= reached
        left -= component
        found.append(sorted(component))
    return found


def brute_arc_local(g, two_geodesic_transitive):
    """The seven arc-local records (SC, L2.1.1, L2.1.2, L4.1, L4.4, L4.5,
    L4.7) of a strongly connected regular digraph under an arc-transitive
    group, as (id, status, witness, notes) tuples, by scans over every arc.

    Each arc's common out-neighborhood is listed, L2.1.1 compares out-sets
    on every arc, every 2-arc's ends are measured by breadth-first search,
    and the weak components of [out(0)] are compared by
    ``brute_isomorphic``.  A witness is the first in lexicographic order.
    """
    arcs, n = sorted(g.arcs), g.n
    out = {v: {w for u, w in arcs if u == v} for v in range(n)}
    valency = len(out[0])
    commons = {(u, v): out[u] & out[v] for u, v in arcs}
    distances = {}

    def distance(a, c):
        if (a, c) not in distances:
            distances[a, c] = brute_distance(arcs, n, a, c)
        return distances[a, c]

    def forbids(check_id, size, least_valency, **witness):
        if valency < least_valency:
            return (check_id, "not_applicable", None, f"valency below {least_valency}")
        arc = next(([u, v] for (u, v), c in commons.items() if len(c) == size), None)
        if arc is None:
            return (check_id, "pass", None, "")
        return (check_id, "fail", {"arc": arc, **witness}, "")

    records = [("SC", "pass", None, "")]
    if valency < 2:
        records.append(("L2.1.1", "not_applicable", None, "valency below 2"))
    else:
        arc = next(([u, v] for u, v in arcs if out[u] == {v} | commons[u, v]), None)
        status, witness = ("fail", {"arc": arc}) if arc else ("pass", None)
        records.append(("L2.1.1", status, witness, ""))

    all_empty = all(not c for c in commons.values())
    two_arc = next(
        ([a, b, c] for a, b in arcs for c in sorted(out[b]) if distance(a, c) != 2), None)
    if all_empty == (two_arc is None):
        records.append(("L2.1.2", "pass", None, ""))
    else:
        records.append(
            ("L2.1.2", "fail", {"all_common_empty": all_empty, "two_arc": two_arc}, ""))

    records.append(forbids("L4.1", valency - 1, 2, common=valency - 1, valency=valency))

    inner = [(a, b) for a, b in arcs if a in out[0] and b in out[0]]
    components = brute_weak_components(out[0], inner)
    pieces = [[(c.index(a), c.index(b)) for a, b in inner if a in c] for c in components]
    if (
        two_geodesic_transitive
        and valency >= 3
        and min(len(c) for c in components) >= 3
        and all(
            len(c) == len(components[0]) and brute_isomorphic(pieces[0], piece, len(c))
            for c, piece in zip(components[1:], pieces[1:])
        )
    ):
        records.append(forbids("L4.4", 1, 0, common=1))
    else:
        records.append(("L4.4", "not_applicable", None, "hypothesis on [out(u)] not met"))

    records.append(forbids("L4.5", valency - 2, 4, common=valency - 2, valency=valency))

    arc = next((list(a) for a, c in commons.items() if len(c) == 2), None)
    if valency != 5 or arc is None:
        records.append(("L4.7", "not_applicable", None, "needs valency 5 and a common count of 2"))
    elif two_geodesic_transitive:
        records.append(("L4.7", "fail", {"arc": arc, "two_geodesic_transitive": True}, ""))
    else:
        records.append(("L4.7", "pass", None, ""))
    return records


def brute_arc_inside_orbit(g, partition):
    """The first block of ``partition`` that contains an arc, with its least
    such arc, as a witness; None when no block contains one."""
    for block in partition:
        for u in block:
            for v in sorted(w for a, w in g.arcs if a == u):
                if v in block:
                    return {"orbit": list(block), "arc": [u, v]}
    return None


def brute_automorphisms(arcs, n):
    """All arc-preserving permutations, by scanning the symmetric group."""
    arcset = set(arcs)
    return [
        images
        for images in permutations(range(n))
        if all((images[u], images[v]) in arcset for u, v in arcset)
    ]


def reference_automorphism_group(g, node_budget=None):
    """The automorphism search as it stood before ``symmetry._restrict``.

    It filters candidates separately in ``complete()``, in ``search()`` and
    in a per-level prefix scan.  ``symmetry.automorphism_group`` must return
    the same generator list and spend the same search nodes; this reference
    reuses the package's color refinement and groups, so it is not an
    independent oracle of Aut itself (``brute_automorphisms`` is).
    """
    budget = symmetry.default_node_budget() if node_budget is None else node_budget
    n = g.n
    if n == 0:
        return PermGroup((), 0)
    colors = symmetry._refine_colors(g)
    arcs = g.arcs
    candidates = [
        frozenset(w for w in range(n) if colors[w] == colors[v]) for v in range(n)
    ]
    # Fixed assignment order: most constrained color classes first.
    order = sorted(range(n), key=lambda v: (len(candidates[v]), v))
    position = {v: i for i, v in enumerate(order)}

    nodes = 0

    def complete(start_map: dict[int, int]) -> Permutation | None:
        """Extend a consistent partial map to a full automorphism, if any."""
        nonlocal nodes
        remaining: dict[int, frozenset[int]] = {}
        used = set(start_map.values())
        for v in range(n):
            if v in start_map:
                continue
            cand = candidates[v]
            for u, w in start_map.items():
                v_from_u = (u, v) in arcs
                v_to_u = (v, u) in arcs
                cand = frozenset(
                    x
                    for x in cand
                    if x not in used
                    and ((w, x) in arcs) == v_from_u
                    and ((x, w) in arcs) == v_to_u
                )
                if not cand:
                    return None
            remaining[v] = cand

        def search(assigned, remaining):
            nonlocal nodes
            if not remaining:
                return dict(assigned)
            v = min(remaining, key=lambda u: (len(remaining[u]), position[u]))
            for w in sorted(remaining[v]):
                nodes += 1
                if nodes > budget:
                    raise SearchBudgetExceeded(
                        f"automorphism search exceeded {budget} nodes"
                    )
                new_remaining = {}
                feasible = True
                for u, cand in remaining.items():
                    if u == v:
                        continue
                    v_to_u = (v, u) in arcs
                    u_to_v = (u, v) in arcs
                    filtered = frozenset(
                        x
                        for x in cand
                        if x != w
                        and ((w, x) in arcs) == v_to_u
                        and ((x, w) in arcs) == u_to_v
                    )
                    if not filtered:
                        feasible = False
                        break
                    new_remaining[u] = filtered
                if feasible:
                    assigned[v] = w
                    result = search(assigned, new_remaining)
                    if result is not None:
                        return result
                    del assigned[v]
            return None

        full = search(dict(start_map), remaining)
        if full is None:
            return None
        return Permutation(tuple(full[v] for v in range(n)))

    gens: list[Permutation] = []

    for i in range(n):
        v = order[i]
        fixed = {order[j]: order[j] for j in range(i)}
        level_gens = [p for p in gens if all(p(order[j]) == order[j] for j in range(i))]
        orbit = PermGroup(level_gens, n).orbit(v)
        # Feasible images of v under maps fixing the processed prefix.
        feasible = candidates[v]
        for u in fixed:
            u_to_v = (u, v) in arcs
            v_to_u = (v, u) in arcs
            feasible = frozenset(
                x
                for x in feasible
                if x not in fixed
                and ((u, x) in arcs) == u_to_v
                and ((x, u) in arcs) == v_to_u
            )
        for w in sorted(feasible):
            if w in orbit:
                continue
            perm = complete({**fixed, v: w})
            if perm is not None:
                gens.append(perm)
                level_gens.append(perm)
                orbit = PermGroup(level_gens, n).orbit(v)
    return PermGroup(gens, n)


def mult(a, b):
    """Compose image tuples left-to-right: (a*b)(x) = b(a(x))."""
    return tuple(b[i] for i in a)


def inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def is_abelian_table(table):
    """Whether every pair of elements of a multiplication table commutes."""
    rows = table.mul_table
    return all(rows[a][b] == rows[b][a] for a in range(len(rows)) for b in range(len(rows)))


def brute_table_automorphisms(table):
    """Every bijection of a multiplication table's elements that fixes the
    identity and preserves all m^2 products, as image tuples (m <= 8)."""
    m, rows, e = table.order, table.mul_table, table.identity
    assert m <= 8, "the scan runs over (m-1)! bijections"
    others = [x for x in range(m) if x != e]
    found = []
    for perm in permutations(others):
        f = dict(zip(others, perm))
        f[e] = e
        if all(f[rows[a][b]] == rows[f[a]][f[b]] for a in range(m) for b in range(m)):
            found.append(tuple(f[x] for x in range(m)))
    return found


def brute_closure(gens, degree):
    """All elements of the generated group as image tuples."""
    identity = tuple(range(degree))
    seen = {identity}
    queue = deque([identity])
    gens = [tuple(g) for g in gens]
    while queue:
        a = queue.popleft()
        for g in gens:
            p = mult(a, g)
            if p not in seen:
                seen.add(p)
                queue.append(p)
    return seen


def brute_subgroup_closure(elements, degree):
    """Subgroup generated by arbitrary elements (tuples), as a frozenset."""
    return frozenset(brute_closure(list(elements), degree))


def brute_normalizer(gens, sub_gens, degree):
    """The elements of the group generated by ``gens`` that conjugate every
    generator in ``sub_gens`` into the subgroup it generates, as image
    tuples: the normalizer of that subgroup."""
    sub = brute_closure(sub_gens, degree)
    return {
        x
        for x in brute_closure(gens, degree)
        if all(mult(mult(inv(x), h), x) in sub for h in sub_gens)
    }


def brute_generated_subset(table, seeds):
    """Closure of a subset of a GroupTable under two-sided products,
    rescanning the whole closure for each element popped."""
    closure = {table.identity}
    queue = deque()
    for s in seeds:
        if s not in closure:
            closure.add(s)
            queue.append(s)
    while queue:
        x = queue.popleft()
        for s in list(closure):
            for product in (table.mul_table[x][s], table.mul_table[s][x]):
                if product not in closure:
                    closure.add(product)
                    queue.append(product)
    return frozenset(closure)


def brute_connection_sets(table, min_valency, max_valency):
    """Antisymmetric generating connection sets: every choice of one element
    from each of k inverse pairs, each tested with the two-sided closure."""
    pairs = []
    for x in range(table.order):
        inv_x = table.inverse(x)
        if x != table.identity and inv_x != x and all(x not in p for p in pairs):
            pairs.append((x, inv_x))
    everything = frozenset(range(table.order))
    found = []
    for k in range(min_valency, max_valency + 1):
        for chosen in combinations(pairs, k):
            for mask in range(1 << k):
                conn = tuple(pair[(mask >> i) & 1] for i, pair in enumerate(chosen))
                if brute_generated_subset(table, conn) == everything:
                    found.append(tuple(sorted(conn)))
    return found


def brute_conjugacy_classes(group_elements, degree):
    """Partition of nontrivial elements into conjugacy classes."""
    identity = tuple(range(degree))
    pending = set(group_elements) - {identity}
    classes = []
    while pending:
        x = min(pending)
        cls = {mult(mult(inv(g), x), g) for g in group_elements}
        classes.append(cls)
        pending -= cls
    return classes


def brute_normal_subgroups(gens, degree):
    """Every normal subgroup, via join-closure of single-class closures."""
    group = brute_subgroup_closure([tuple(g) for g in gens], degree)
    atoms = [
        brute_subgroup_closure(cls, degree)
        for cls in brute_conjugacy_classes(group, degree)
    ]
    identity = frozenset({tuple(range(degree))})
    lattice = {identity}
    lattice.update(atoms)
    changed = True
    while changed:
        changed = False
        for a in list(lattice):
            for b in list(lattice):
                join = brute_subgroup_closure(a | b, degree)
                if join not in lattice:
                    lattice.add(join)
                    changed = True
    return lattice


def larger_normal_subgroup(sub, groups):
    """Whether some member of ``groups`` (``PermGroup``s) properly contains
    the ``PermGroup`` ``sub``: a larger order, and every generator of
    ``sub`` sifts through the member's stabilizer chain."""
    return any(
        M.order() > sub.order() and all(M.contains(x) for x in sub.generators) for M in groups
    )


def set_partitions(points):
    """Every partition of a list of points, as lists of blocks."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for partition in set_partitions(rest):
        yield [[first]] + partition
        for i in range(len(partition)):
            yield partition[:i] + [[first] + partition[i]] + partition[i + 1:]


def brute_block_systems(gens, degree):
    """Every invariant partition other than the singletons and the whole
    set, by scanning all set partitions; blocks sorted, systems sorted."""
    found = []
    for partition in set_partitions(list(range(degree))):
        if len(partition) in (1, degree):
            continue
        blocks = {frozenset(b) for b in partition}
        if all(frozenset(g[v] for v in b) in blocks for g in gens for b in blocks):
            found.append(tuple(sorted(tuple(sorted(b)) for b in blocks)))
    return sorted(found)


def orbits_of_tuples(elements, family):
    """Orbit partition of a tuple family under explicit group elements, each
    orbit found from its least tuple, in increasing order of that tuple."""
    seen = set()
    orbits = []
    for t in sorted(set(family)):
        if t not in seen:
            orbit = {tuple(g[v] for v in t) for g in elements}
            orbits.append(orbit)
            seen |= orbit
    return orbits


def orbit_length_sum(group, reps):
    """The sum of |G| / |G_t| over the tuples t in ``reps``, with G_t from
    ``PermGroup.tuple_stabilizer``: by the orbit-stabilizer theorem, the
    number of tuples in their orbits when no two lie in one orbit."""
    order = group.order()
    return sum(order // group.tuple_stabilizer(t).order() for t in reps)


def burnside_counts(arcs, n, elements, depth):
    """Orbit counts of explicit group elements by Burnside's lemma.

    Keys ``(S_ARC, s)`` and ``(S_GEODESIC, s)`` for 1 <= s <= depth give the
    number of orbits on the s-arcs and on the s-geodesics, and ``("pairs",
    d)`` for 0 <= d <= depth the number on the ordered pairs at distance d.
    Each is (1/|G|) * sum over g of |Fix(g)|.  G acts diagonally, so g fixes
    a walk iff it fixes every vertex on it, and |Fix(g)| is a count of walks
    inside the fixed points of g: every step for s-arcs, and for s-geodesics
    only the steps to a w at distance s from the start (every initial part
    of a geodesic is one).  No tuple is listed and no orbit searched.
    Elements with the same fixed points are counted together.
    """
    out = {v: [] for v in range(n)}
    for u, v in arcs:
        out[u].append(v)
    dist = []
    for source in range(n):
        row = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in out[u]:
                if w not in row:
                    row[w] = row[u] + 1
                    queue.append(w)
        dist.append(row)

    def step(walks, admissible):
        """Walk counts by end vertex after one more step to an admissible w."""
        longer = Counter()
        for v, count in walks.items():
            for w in out[v]:
                if admissible(w):
                    longer[w] += count
        return longer

    fixed_sets = Counter(
        frozenset(v for v in range(n) if g[v] == v) for g in elements
    )
    totals = Counter()
    for fixed, times in fixed_sets.items():
        for u in fixed:
            for v in fixed:
                if v in dist[u]:
                    totals["pairs", dist[u][v]] += times
        walks = dict.fromkeys(fixed, 1)
        for s in range(1, depth + 1):
            walks = step(walks, fixed.__contains__)
            totals[S_ARC, s] += times * sum(walks.values())
        for start in fixed:
            walks = {start: 1}
            for s in range(1, depth + 1):
                walks = step(walks, lambda w: w in fixed and dist[start].get(w) == s)
                totals[S_GEODESIC, s] += times * sum(walks.values())
    order = sum(fixed_sets.values())
    keys = [(kind, s) for kind in (S_ARC, S_GEODESIC) for s in range(1, depth + 1)]
    keys += [("pairs", d) for d in range(depth + 1)]
    counts = {}
    for key in keys:
        count, rest = divmod(totals[key], order)
        if rest:
            raise ArithmeticError(f"{key}: fixed points sum to {totals[key]}, |G| = {order}")
        counts[key] = count
    return counts


def brute_single_orbit(elements, family):
    if not family:
        return True
    return len(orbits_of_tuples(elements, family)) == 1


def brute_orbit_partition(elements, degree):
    """Vertex orbits under explicit group elements."""
    remaining = set(range(degree))
    orbits = []
    while remaining:
        v = min(remaining)
        orbit = {g[v] for g in elements}
        orbits.append(frozenset(orbit))
        remaining -= orbit
    return orbits


def quadratic_residues(q):
    return {(x * x) % q for x in range(1, q)}


def pair_block_count(arcs, n, x, y):
    """Number of vertices whose out-neighborhood contains both x and y."""
    arcset = set(arcs)
    return sum(1 for v in range(n) if (v, x) in arcset and (v, y) in arcset)
