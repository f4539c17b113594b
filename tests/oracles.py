"""Independent brute-force oracles used to validate the library.

Everything here is deliberately naive and self-contained: plain tuple
arithmetic, exhaustive scans and breadth-first closures, with no reliance
on the package's stabilizer chains or pruned searches.  The one exception is
``reference_automorphism_group``, the earlier form of the automorphism
search, kept to pin the current search's generators and node counts.
"""

from collections import Counter, deque
from itertools import combinations, permutations, product

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
    """Every vertex sequence of length s+1 whose consecutive pairs are arcs."""
    arcset = set(arcs)
    found = []
    for seq in product(range(n), repeat=s + 1):
        if all((seq[i], seq[i + 1]) in arcset for i in range(s)):
            found.append(seq)
    return found


def brute_s_geodesics(arcs, n, s):
    return [
        seq
        for seq in brute_s_arcs(arcs, n, s)
        if brute_distance(arcs, n, seq[0], seq[-1]) == s
    ]


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
    """Orbit partition of a tuple family under explicit group elements."""
    remaining = set(family)
    orbits = []
    while remaining:
        t = min(remaining)
        orbit = {tuple(g[v] for v in t) for g in elements}
        orbits.append(orbit)
        remaining -= orbit
    return orbits


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
