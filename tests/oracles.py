"""Independent brute-force oracles used to validate the library.

Everything here is deliberately naive and self-contained: plain tuple
arithmetic, exhaustive scans and breadth-first closures, with no reliance
on the package's stabilizer chains or pruned searches.
"""

from collections import deque
from itertools import combinations, permutations, product


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


def mult(a, b):
    """Compose image tuples left-to-right: (a*b)(x) = b(a(x))."""
    return tuple(b[i] for i in a)


def inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


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
