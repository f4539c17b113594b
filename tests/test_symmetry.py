"""Tests for automorphism search and the transitivity testers."""

import gc
import hashlib
import json
import sys
import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from digsym import symmetry
from digsym.construct import (
    CayleyDigraph,
    cayley_digraph,
    cayley_spec,
    circuit,
    complete,
    cyclic_table,
    dihedral_table,
    paley_tournament,
    right_translations,
)
from digsym.digraph import S_ARC, S_GEODESIC, build
from digsym.errors import (
    BadParameter,
    NotAutomorphismGroup,
    NotStronglyConnected,
    SearchBudgetExceeded,
    SetNotInvariant,
)
from digsym.groups import PermGroup
from digsym.perm import Permutation, parse_cycles
from digsym.symmetry import (
    InstanceFacts,
    _count_orbits,
    automorphism_group,
    is_distance_transitive,
    is_s_arc_transitive,
    is_s_geodesic_transitive,
    is_vertex_transitive,
    transitivity_report,
)
from digsym.verify import SurveyConfig, build_instance, default_config, generate_descriptors
from test_digraph import digraphs

SMALL_CORPUS = [
    circuit(3),
    circuit(4),
    circuit(6),
    paley_tournament(7),
    complete(4),
    build(4, [(0, 1), (1, 2), (2, 3)]),
    build(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)]),
    build(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]),
]


class TestAutomorphismGroup:
    def test_directed_circuit_excludes_reversal(self):
        assert automorphism_group(circuit(6)).order() == 6

    def test_paley(self):
        assert automorphism_group(paley_tournament(7)).order() == 21

    def test_complete(self):
        assert automorphism_group(complete(4)).order() == 24

    def test_matches_exhaustive_scan(self):
        for g in SMALL_CORPUS:
            found = automorphism_group(g)
            brute = oracles.brute_automorphisms(g.arcs, g.n)
            assert found.order() == len(brute), g
            for images in brute:
                assert found.contains(Permutation(images))

    def test_generators_preserve_arcs(self):
        g = paley_tournament(11)
        group = automorphism_group(g)
        for p in group.generators:
            assert all((p(u), p(v)) in g.arcs for u, v in g.arcs)

    def test_budget(self, monkeypatch):
        monkeypatch.setenv("DIGSYM_SEARCH_BUDGET", "3")
        with pytest.raises(SearchBudgetExceeded):
            automorphism_group(complete(8))


def _closure(perms, degree):
    return oracles.brute_closure([p.images for p in perms], degree)


class TestReducedGenerators:
    def groups(self):
        yield from (automorphism_group(g) for g in SMALL_CORPUS)
        yield PermGroup((), 5)
        yield PermGroup((), 0)

    def test_same_group(self):
        for group in self.groups():
            reduced = group.reduced()
            elements = _closure(reduced.generators, group.degree)
            assert reduced.order() == len(elements) == group.order(), group
            assert all(p.images in elements for p in group.generators), group

    def test_each_kept_generator_enlarges(self):
        for group in self.groups():
            kept = group.reduced().generators
            for i, p in enumerate(kept):
                assert p.images not in _closure(kept[:i], group.degree), (group, i)
            assert len(_closure(kept, group.degree)) == group.order(), group

    @pytest.mark.parametrize(
        "descriptor, before, after",
        [
            (("circulant", 20, (1, 11)), 11, 2),
            (("circulant", 12, (1, 4, 7, 10)), 19, 4),
            (("paley", 43), 3, 3),
        ],
    )
    def test_pinned_counts(self, descriptor, before, after):
        # The search without a seed, on the plain copy of the Cayley digraph.
        _, g, _ = build_instance(descriptor)
        group = automorphism_group(build(g.n, g.arcs))
        reduced = group.reduced()
        assert (len(group.generators), len(reduced.generators)) == (before, after)
        assert reduced.order() == group.order()

    def test_report_counts_orbits_with_reduced_generators(self, monkeypatch):
        # Cay(Z20, {1, 11}): the search returns 11 generators, 2 generate.
        _, g, _ = build_instance(("circulant", 20, (1, 11)))
        sizes = []
        count_orbits = symmetry._count_orbits

        def recording_count(group, family):
            sizes.append(len(group.generators))
            return count_orbits(group, family)

        monkeypatch.setattr(symmetry, "_count_orbits", recording_count)
        report = transitivity_report(g)
        assert report.group_order == 10240
        assert sizes and set(sizes) == {2}


def _budget_threshold(search, g):
    """The fewest search nodes with which ``search`` completes on g."""
    low, high = 0, 1
    while True:
        try:
            search(g, node_budget=high)
            break
        except SearchBudgetExceeded:
            low, high = high + 1, 2 * high
    while low < high:  # the threshold lies in [low, high]
        mid = (low + high) // 2
        try:
            search(g, node_budget=mid)
            high = mid
        except SearchBudgetExceeded:
            low = mid + 1
    return low


class TestAgainstReferenceSearch:
    """The single-restriction search matches the earlier three-filter search.

    The reference knows no seed, so the Cayley digraphs are searched as
    their plain copies."""

    @staticmethod
    def corpus():
        descriptors = generate_descriptors(default_config())[::4]
        graphs = [build_instance(d)[1] for d in descriptors]
        graphs += [paley_tournament(23), paley_tournament(31)]
        return [build(g.n, g.arcs) for g in graphs] + [complete(k) for k in range(2, 7)]

    def test_same_generators(self):
        for g in self.corpus():
            found = automorphism_group(g).generators
            reference = oracles.reference_automorphism_group(g).generators
            assert found == reference, g

    def test_same_budget_threshold(self, monkeypatch):
        circulant = build_instance(("circulant", 12, (1, 4, 5)))[1]
        paley = paley_tournament(19)
        for g in (complete(5), complete(6), build(19, paley.arcs), build(12, circulant.arcs)):
            nodes = _budget_threshold(oracles.reference_automorphism_group, g)
            assert nodes > 1, g
            monkeypatch.setenv("DIGSYM_SEARCH_BUDGET", str(nodes))
            automorphism_group(g)
            monkeypatch.setenv("DIGSYM_SEARCH_BUDGET", str(nodes - 1))
            with pytest.raises(SearchBudgetExceeded):
                automorphism_group(g)


def _assert_seeded_search_agrees(descriptors):
    """The search on Cay(T, S), which starts from R(T), finds the group that
    the search on its plain copy finds, on other generators."""
    for descriptor in descriptors:
        label, g, _ = build_instance(descriptor)
        assert isinstance(g, CayleyDigraph), label
        unseeded = automorphism_group(build(g.n, g.arcs))
        seeded = automorphism_group(g)
        assert seeded.order() == unseeded.order(), label
        assert all(unseeded.contains(p) for p in seeded.generators), label
        assert all(seeded.contains(p) for p in unseeded.generators), label


ANALYZE_N20_CONFIG = SurveyConfig(
    circulant_orders=tuple(range(15, 21)),
    paley_primes=(23, 31, 43, 47),
    min_valency=2,
    max_valency=2,
    max_vertices=20,
)


class TestTransitiveSeed:
    def test_same_group_every_4th_default_instance_and_paley(self):
        descriptors = generate_descriptors(default_config())[::4]
        _assert_seeded_search_agrees(descriptors + [("paley", q) for q in (23, 31, 43)])

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "config, size", [(default_config(), 2071), (ANALYZE_N20_CONFIG, 616)],
        ids=["default", "analyze_n20"],
    )
    def test_same_group_whole_corpus(self, config, size):
        descriptors = generate_descriptors(config)
        assert len(descriptors) == size
        _assert_seeded_search_agrees(descriptors)

    def test_reduced_generators_pinned_every_4th_default_instance(self):
        # The reduced generators set the cost of every orbit count; their
        # number, their images and the chain's base points are pinned.
        digest = hashlib.sha256()
        total = 0
        for descriptor in generate_descriptors(default_config())[::4]:
            _, g, _ = build_instance(descriptor)
            reduced = automorphism_group(g).reduced()
            total += len(reduced.generators)
            for p in reduced.generators:
                digest.update(repr(p.images).encode())
            digest.update(repr(tuple(level.point for level in reduced.chain.levels)).encode())
        assert total == 607
        assert digest.hexdigest() == (
            "561934cb4ab51dfa49651a2379332e096597da4d3f126e14b2d93116c79892ac")

    def test_seed_must_be_automorphisms(self):
        # The arcs of the 6-circuit under the spec of a dihedral group: R(D3)
        # is regular and nonabelian, so it is no subgroup of Aut = Z6.
        c6 = circuit(6)
        spec = cayley_spec(dihedral_table(3), [1])
        with pytest.raises(NotAutomorphismGroup):
            automorphism_group(CayleyDigraph(c6.n, c6.arcs, c6.symmetry_class, spec))

    def test_budget_still_applies_below_level_0(self, monkeypatch):
        _, g, _ = build_instance(("circulant", 6, (1, 4)))
        monkeypatch.setenv("DIGSYM_SEARCH_BUDGET", "1")
        with pytest.raises(SearchBudgetExceeded):
            automorphism_group(g)


def _orbit_counts_digest(descriptors) -> str:
    """sha256 over each instance's label and every orbit count of its
    report: vertices and both kinds at every level up to the diameter."""
    digest = hashlib.sha256()
    for descriptor in descriptors:
        label, g, _ = build_instance(descriptor)
        counts = transitivity_report(g).orbit_counts
        digest.update(json.dumps([label, counts], sort_keys=True).encode())
    return digest.hexdigest()


class TestOrbitCountsPinned:
    """Survey records keep only max_arc_s and max_geodesic_s; these digests
    pin every deeper count that a new counting engine must reproduce.  They
    were recorded at commit 7bb0b21, whose search did not start from R(T)
    in library calls, and every one reads the same from either start."""

    DEFAULT = "8decf2863663129141db0243c8adf429eaacb40e8ca4c59a413c848a35c93ff1"
    ANALYZE_N20 = "97ddc13f5f001eb1fd86ab54e51d64fc902bf9af6a1cac5a5a1e5f3bb138ab4e"
    DEFAULT_40 = "dd385606dd10b4e7ff18681fc82cef6fa0274afd2bb811639b4f4acc470f0798"
    ANALYZE_N20_40 = "a06b93d996857b139cf4bab9c050785868648bf767ff9c9dda697a5f64b15100"

    @pytest.mark.parametrize(
        "config, expected",
        [(default_config(), DEFAULT_40), (ANALYZE_N20_CONFIG, ANALYZE_N20_40)],
        ids=["default", "analyze_n20"],
    )
    def test_every_40th_instance(self, config, expected):
        assert _orbit_counts_digest(generate_descriptors(config)[::40]) == expected

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "config, size, expected",
        [(default_config(), 2071, DEFAULT), (ANALYZE_N20_CONFIG, 616, ANALYZE_N20)],
        ids=["default", "analyze_n20"],
    )
    def test_whole_corpus(self, config, size, expected):
        descriptors = generate_descriptors(config)
        assert len(descriptors) == size
        assert _orbit_counts_digest(descriptors) == expected


class TestWalkCounts:
    """``oracles.walk_counts`` counts the s-arcs and s-geodesics without
    listing them: it agrees with the brute-force lists, and with the kept
    arc levels of ``InstanceFacts`` and their distance filter."""

    def test_matches_brute_enumeration(self):
        for g in SMALL_CORPUS:
            for s in range(1, g.max_geodesic_length() + 2):
                arcs, geodesics = oracles.walk_counts(g.arcs, g.n, s)
                assert arcs == len(oracles.brute_s_arcs(g.arcs, g.n, s)), (g, s)
                assert geodesics == len(oracles.brute_s_geodesics(g.arcs, g.n, s)), (g, s)

    @pytest.mark.parametrize(
        "config", [default_config(), ANALYZE_N20_CONFIG], ids=["default", "analyze_n20"]
    )
    def test_matches_instance_facts_every_40th_instance(self, config):
        for descriptor in generate_descriptors(config)[::40]:
            _, g, _ = build_instance(descriptor)
            facts = InstanceFacts(g, PermGroup((), g.n))
            for s, families in _facts_levels(facts, g.diameter()):
                expected = oracles.walk_counts(g.arcs, g.n, s)
                for i, kind in enumerate((S_ARC, S_GEODESIC)):
                    assert len(families[kind]) == expected[i], (descriptor, kind, s)


class TestOrbitLengthSums:
    """The least tuple of each brute-force orbit, one per orbit: their orbit
    lengths, read from their stabilizers, add up to the independent walk
    count, and there are as many as ``InstanceFacts`` counts orbits."""

    def digraphs(self):
        yield from SMALL_CORPUS
        for config in (default_config(), ANALYZE_N20_CONFIG):
            for descriptor in generate_descriptors(config)[::40]:
                yield build_instance(descriptor)[1]

    def test_every_40th_instance_and_small_corpus(self):
        for g in self.digraphs():
            group = automorphism_group(g)
            if group.order() > 2000:
                continue
            elements = oracles.brute_closure([p.images for p in group.generators], g.n)
            facts = InstanceFacts(g, group)
            for s, families in _facts_levels(facts, min(3, g.max_geodesic_length())):
                expected = oracles.walk_counts(g.arcs, g.n, s)
                for i, kind in enumerate((S_ARC, S_GEODESIC)):
                    orbits = oracles.orbits_of_tuples(elements, families[kind])
                    reps = [min(orbit) for orbit in orbits]
                    assert oracles.orbit_length_sum(group, reps) == expected[i], (g, kind, s)
                    assert len(reps) == facts.count(kind, s), (g, kind, s)


class TestCountOrbits:
    def test_arcs_single_orbit(self):
        g = circuit(6)
        group = automorphism_group(g)
        assert _count_orbits(group, sorted(g.arcs)) == 1

    def test_paley_two_geodesic_orbits(self):
        g = paley_tournament(7)
        family = oracles.brute_s_geodesics(g.arcs, g.n, 2)
        assert len(family) == 42
        assert _count_orbits(automorphism_group(g), family) == 2

    def test_trivial_group_gives_singletons(self):
        g = circuit(5)
        trivial = PermGroup((), degree=5)
        assert _count_orbits(trivial, sorted(g.arcs)) == 5

    def test_invariance_validated(self):
        group = PermGroup([parse_cycles("(0 1 2 3 4 5)", 6)])
        with pytest.raises(SetNotInvariant):
            _count_orbits(group, [(0, 1)])

    def test_matches_brute_orbits(self):
        g = paley_tournament(7)
        group = automorphism_group(g)
        family = oracles.brute_s_arcs(g.arcs, g.n, 2)
        elements = [p.images for p in group.elements()]
        assert _count_orbits(group, family) == len(oracles.orbits_of_tuples(elements, family))

    def test_matches_brute_orbits_on_small_corpus(self):
        for g in SMALL_CORPUS:
            for group in (automorphism_group(g), PermGroup((), degree=g.n)):
                elements = [p.images for p in group.elements()]
                for s in range(4):
                    for family in (
                        oracles.brute_s_arcs(g.arcs, g.n, s),
                        oracles.brute_s_geodesics(g.arcs, g.n, s),
                    ):
                        brute = oracles.orbits_of_tuples(elements, family)
                        assert _count_orbits(group, family) == len(brute), (g, s)

    def test_first_offender_named(self):
        # (0 1 2) maps (3, 0) to (3, 1) and (1, 2) to (2, 0), both outside the
        # family; a search from (0, 1) would meet (1, 2) first.
        group = PermGroup([parse_cycles("(0 1 2)", 4)])
        family = [(0, 1), (3, 0), (1, 2)]
        with pytest.raises(SetNotInvariant, match=r"^\(3, 0\) maps to \(3, 1\) outside"):
            _count_orbits(group, family)

    def test_reads_image_tables_only(self, monkeypatch):
        # Both the invariance scan and the search build images from the
        # generators' image tables; neither calls a permutation.
        _, g, _ = build_instance(("circulant", 20, (1, 11)))
        group = automorphism_group(g).reduced()
        family = oracles.brute_s_arcs(g.arcs, g.n, 5)
        calls = 0
        call = Permutation.__call__

        def counting_call(perm, point):
            nonlocal calls
            calls += 1
            return call(perm, point)

        monkeypatch.setattr(Permutation, "__call__", counting_call)
        assert _count_orbits(group, family) == 1
        assert calls == 0

    def test_peak_memory_below_family_size(self):
        # Cay(Z20, {1, 11}): 20,480 10-arcs.  The count keeps positions, not
        # a second copy of the tuples or a list per orbit.
        _, g, _ = build_instance(("circulant", 20, (1, 11)))
        group = automorphism_group(g).reduced()
        family = oracles.brute_s_arcs(g.arcs, g.n, 10)
        family_bytes = sum(map(sys.getsizeof, family))
        tracemalloc.start()
        try:
            assert _count_orbits(group, family) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < family_bytes, (peak, family_bytes)


def _walk_oracle(kind):
    return oracles.brute_s_arcs if kind == S_ARC else oracles.brute_s_geodesics


def _facts_levels(facts, top):
    """Levels 1..top of ``facts``, counted in order: each s with the
    families of its two counts, the kept s-arc level by kind ``S_ARC`` and
    its s-geodesics, the arcs whose ends lie at distance s, by
    ``S_GEODESIC``."""
    rows = facts.g._distance_matrix
    for s in range(1, top + 1):
        facts.count(S_ARC, s)
        arcs = facts._level
        yield s, {S_ARC: arcs, S_GEODESIC: [w for w in arcs if rows[w[0]][w[-1]] == s]}


def _recording_count_orbits(counted):
    """``_count_orbits``, appending each family it counts to ``counted``."""
    count_orbits = symmetry._count_orbits

    def recording_count(group, family):
        counted.append(family)
        return count_orbits(group, family)

    return recording_count


class TestWalkLevels:
    """``InstanceFacts`` counts the levels in order, each once: it grows the
    kept level to the s-arcs, filters the s-geodesics out of them by the
    distance of their ends, and sets both counts of the level.  A geodesic
    level the filter leaves whole reads the arc count."""

    def test_levels_match_oracle_families(self):
        for g in (circuit(5), paley_tournament(7), build(4, [(0, 1), (1, 0), (1, 2), (2, 3)])):
            facts = InstanceFacts(g, PermGroup((), degree=g.n))
            for s, families in _facts_levels(facts, 4):
                for kind, family in families.items():
                    assert family == _walk_oracle(kind)(g.arcs, g.n, s), (g, kind, s)

    def test_dropped_facts_leave_no_cyclic_garbage(self):
        # The kept level must be freed by reference counting alone as soon
        # as the facts are dropped, not kept alive until the cyclic
        # collector runs.
        g = build(20, [(u, (u + d) % 20) for u in range(20) for d in (1, 11)])
        group = automorphism_group(g)
        family = oracles.brute_s_arcs(g.arcs, g.n, 8)
        assert len(family) == 20 * 2**8
        expected = _count_orbits(group, family)
        del family
        gc.collect()
        gc.disable()
        try:
            facts = InstanceFacts(g, group)
            assert facts.count(S_ARC, 8) == expected
            del facts
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_count_rejects_level_below_one(self):
        g = circuit(5)
        facts = InstanceFacts(g, automorphism_group(g))
        for kind in (S_ARC, S_GEODESIC):
            for s in (0, -1):
                with pytest.raises(ValueError, match="at least 1"):
                    facts.count(kind, s)

    def test_count_rejects_unknown_kind(self):
        g = circuit(5)
        facts = InstanceFacts(g, automorphism_group(g))
        for kind in ("vertices", "arcs", ""):
            with pytest.raises(ValueError, match="kind must be"):
                facts.count(kind, 1)

    def test_empty_geodesic_level_past_the_walks_reads_the_arc_count(self):
        # The transitive triangle: its one 2-arc (0, 1, 2) is no 2-geodesic,
        # so level 2 counts both families, and it has no 3-arc.  The empty
        # 3-geodesic level is the empty 3-arc level, so level 3 counts one
        # family, and the geodesic count reads the arc count.
        g = build(3, [(0, 1), (0, 2), (1, 2)])
        facts = InstanceFacts(g, automorphism_group(g))
        counted = []
        with mock.patch.object(symmetry, "_count_orbits", _recording_count_orbits(counted)):
            assert facts.count(S_GEODESIC, 3) == 0
            assert facts.count(S_ARC, 3) == 0
        assert counted == [sorted(g.arcs), [(0, 1, 2)], [], []]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_counts_match_oracle_in_any_order(self, data):
        # Some of the levels 1..n of both kinds, in random order, then the
        # same requests again.  Whatever the order, the counted families are
        # the arc levels up to the highest asked for, in order, each with
        # its geodesic level where that leaves the arcs, which it never does
        # up to the depth where the arcs and geodesics part: each level is
        # built and counted at most once.
        g = data.draw(digraphs())
        requests = data.draw(st.permutations(
            [(kind, s) for kind in (S_ARC, S_GEODESIC) for s in range(1, g.n + 1)]
        ))
        requests = requests[:data.draw(st.integers(1, len(requests)))]
        group = automorphism_group(g)
        elements = [p.images for p in group.elements()]
        counted = []
        facts = InstanceFacts(g, group)
        with mock.patch.object(symmetry, "_count_orbits", _recording_count_orbits(counted)):
            for kind, s in requests + requests:
                family = _walk_oracle(kind)(g.arcs, g.n, s)
                expected = len(oracles.orbits_of_tuples(elements, family))
                assert facts.count(kind, s) == expected, (kind, s)
        top = max(s for _, s in requests)
        depth = oracles.brute_arc_geodesic_depth(g.arcs, g.n)
        expected = []
        for s in range(1, top + 1):
            arcs, geodesics = (_walk_oracle(kind)(g.arcs, g.n, s) for kind in (S_ARC, S_GEODESIC))
            expected.append(arcs)
            if geodesics != arcs:
                assert s > depth
                expected.append(geodesics)
        assert counted == expected


class TestTransitivityTesters:
    def test_circuit_geodesic_transitive_all_levels(self):
        g = circuit(6)
        group = automorphism_group(g)
        for s in range(1, 6):
            assert is_s_geodesic_transitive(g, group, s)

    def test_paley(self):
        g = paley_tournament(7)
        group = automorphism_group(g)
        assert is_s_arc_transitive(g, group, 1)
        assert not is_s_geodesic_transitive(g, group, 2)
        assert not is_s_arc_transitive(g, group, 2)

    def test_arc_level_agreement(self):
        # At s = 1 the two testers coincide: 1-geodesics are the arcs.
        for g in (circuit(5), paley_tournament(7)):
            group = automorphism_group(g)
            assert is_s_arc_transitive(g, group, 1) == is_s_geodesic_transitive(
                g, group, 1
            )

    def test_truncation_beyond_diameter(self):
        g = circuit(4)
        group = automorphism_group(g)
        assert is_s_geodesic_transitive(g, group, 10) == is_s_geodesic_transitive(
            g, group, 3
        )

    def test_subgroup_relative(self):
        g = circuit(6)
        rot2 = PermGroup([parse_cycles("(0 2 4)(1 3 5)", 6)])
        assert not is_s_geodesic_transitive(g, rot2, 1)

    def test_rejects_undirected(self):
        g = complete(4)
        group = automorphism_group(g)
        with pytest.raises(BadParameter):
            is_s_arc_transitive(g, group, 1)

    def test_rejects_non_automorphisms(self):
        # Each tester and the report validate the group, through the one
        # facts object they build.
        g = paley_tournament(7)
        s7_gen = PermGroup([parse_cycles("(0 1)", 7)])
        for call in (
            lambda: is_s_arc_transitive(g, s7_gen, 1),
            lambda: is_s_geodesic_transitive(g, s7_gen, 2),
            lambda: is_distance_transitive(g, s7_gen),
            lambda: transitivity_report(g, s7_gen),
        ):
            with pytest.raises(NotAutomorphismGroup):
                call()

    def test_rejects_bad_s(self):
        g = circuit(5)
        with pytest.raises(BadParameter):
            is_s_arc_transitive(g, automorphism_group(g), 0)

    def test_vertex_transitive(self):
        assert is_vertex_transitive(circuit(5), automorphism_group(circuit(5)))
        line = build(3, [(0, 1), (1, 2)])
        assert not is_vertex_transitive(line, automorphism_group(line))

    def test_against_brute_single_orbit(self):
        for g in (circuit(5), circuit(6), paley_tournament(7)):
            group = automorphism_group(g)
            elements = [p.images for p in group.elements()]
            for s in (1, 2):
                family = oracles.brute_s_arcs(g.arcs, g.n, s)
                assert is_s_arc_transitive(g, group, s) == oracles.brute_single_orbit(
                    elements, family
                )


class TestPaleyTournaments:
    # Measured on these P(q): |Aut| = q(q - 1)/2, one orbit on the arcs and
    # (q + 1)/4 orbits on the 2-geodesics, so none is 2-geodesic-transitive.
    # The search starts from the right translations, as in a survey.
    @pytest.mark.parametrize("q", [7, 11, 19, 23, 31, 43])
    def test_aut_order_and_orbits(self, q):
        g = paley_tournament(q)
        facts = InstanceFacts(g, automorphism_group(g))
        assert facts.group.order() == q * (q - 1) // 2
        assert facts.count(S_ARC, 1) == 1
        assert facts.count(S_GEODESIC, 2) == (q + 1) // 4


class TestDistanceTransitive:
    def test_circuit(self):
        assert is_distance_transitive(circuit(5), automorphism_group(circuit(5)))

    def test_paley(self):
        g = paley_tournament(7)
        assert is_distance_transitive(g, automorphism_group(g))

    def test_trivial_subgroup_fails(self):
        g = circuit(4)
        assert not is_distance_transitive(g, PermGroup((), degree=4))

    def test_needs_strong_connectivity(self):
        g = build(3, [(0, 1), (1, 2)])
        with pytest.raises(NotStronglyConnected):
            is_distance_transitive(g, automorphism_group(g))

    @staticmethod
    def pair_orbit_oracle(g, group):
        """One orbit of the brute closure on the ordered pairs at each
        brute-force distance, unreachable pairs included."""
        elements = oracles.brute_closure([p.images for p in group.generators], g.n)
        pairs_at = {}
        for u in range(g.n):
            for v in range(g.n):
                d = oracles.brute_distance(g.arcs, g.n, u, v)
                pairs_at.setdefault(d, []).append((u, v))
        return bool(pairs_at) and all(
            oracles.brute_single_orbit(elements, pairs) for pairs in pairs_at.values()
        )

    @settings(max_examples=80, deadline=None)
    @given(digraphs(), st.sampled_from(["aut", "cyclic", "trivial"]), st.randoms())
    def test_random_digraphs_match_pair_orbits(self, g, which, rng):
        # Aut, the cyclic subgroup of one random automorphism, or the
        # trivial group, on digraphs of any symmetry class, strongly
        # connected or not.
        if which == "trivial":
            group = PermGroup((), g.n)
        elif which == "aut":
            group = automorphism_group(g)
        else:
            images = rng.choice(oracles.brute_automorphisms(g.arcs, g.n))
            group = PermGroup([Permutation(images)], g.n)
        assert InstanceFacts(g, group).distance_transitive() == self.pair_orbit_oracle(g, group)

    @pytest.mark.parametrize(
        "n, conn",
        [(5, [1]), (5, [1, 2]), (7, [1, 2, 4]), (8, [1, 2]), (9, [1, 3]), (12, [1, 4, 7, 10])],
    )
    def test_circulants_match_pair_orbits(self, n, conn):
        # Aut, the right translations R(T) and the trivial group.  C5 is
        # distance-transitive under its regular Aut (trivial stabilizer, one
        # vertex per layer), Paley 7 and Cay(Z12, {1, 4, 7, 10}) only under
        # Aut, whose stabilizer is nontrivial; the others are not.
        spec = cayley_spec(cyclic_table(n), conn)
        g = cayley_digraph(spec)
        for group in (automorphism_group(g), right_translations(spec.table), PermGroup((), n)):
            expected = self.pair_orbit_oracle(g, group)
            assert InstanceFacts(g, group).distance_transitive() == expected, (n, conn, group)

    def test_unreachable_layer_counts(self):
        # Two disjoint 3-circuits: Aut (order 18) fixes a vertex and still
        # turns the other circuit, so its unreachable pairs form one orbit;
        # the regular group generated by turning both and swapping them
        # does not.
        g = build(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        regular = PermGroup([parse_cycles("(0 1 2)(3 4 5)", 6), parse_cycles("(0 3)(1 4)(2 5)", 6)])
        for group, expected in ((automorphism_group(g), True), (regular, False)):
            assert self.pair_orbit_oracle(g, group) is expected
            assert InstanceFacts(g, group).distance_transitive() is expected

    def test_empty_digraph_is_not(self):
        # No vertex: no pair at distance 0, so no single orbit there, just as
        # the empty digraph is not vertex-transitive.
        g = build(0, [])
        group = automorphism_group(g)
        assert not is_distance_transitive(g, group)
        assert not is_vertex_transitive(g, group)
        report = transitivity_report(g)
        assert not report.distance_transitive and not report.vertex_transitive


class TestTransitivityReport:
    def test_circuit_c5(self):
        g = circuit(5)
        report = transitivity_report(g, name="C5")
        assert report.max_geodesic_s == 4
        assert report.max_arc_s >= 4
        assert report.vertex_transitive and report.distance_transitive
        assert report.group_order == 5

    def test_paley(self):
        report = transitivity_report(paley_tournament(7), name="P7")
        assert report.group_order == 21
        assert report.max_arc_s == 1
        assert report.max_geodesic_s == 1
        assert report.orbit_counts["2-geodesics"] == 2

    def test_rejects_undirected(self):
        with pytest.raises(BadParameter):
            transitivity_report(complete(3))

    def test_monotone_geodesic_levels(self):
        # Recorded max implies transitivity at every smaller level.
        g = circuit(6)
        group = automorphism_group(g)
        report = transitivity_report(g, group)
        for s in range(1, report.max_geodesic_s + 1):
            assert is_s_geodesic_transitive(g, group, s)

    def test_circuit_counts_only_arc_families(self, monkeypatch):
        # Every s-arc of C6 with s <= 5 is an s-geodesic and Aut is regular,
        # so each geodesic level reads its arc count, every distance has one
        # geodesic orbit, and no pair family is counted.  The vertex orbits
        # are the group's own, so level 0 is no tuple family.
        g = circuit(6)
        assert oracles.brute_arc_geodesic_depth(g.arcs, g.n) == 5
        counted = []
        monkeypatch.setattr(symmetry, "_count_orbits", _recording_count_orbits(counted))
        report = transitivity_report(g)
        assert report.group_order == 6 and report.max_geodesic_s == 5
        assert report.distance_transitive
        assert report.orbit_counts["vertices"] == 1
        assert counted == [oracles.brute_s_arcs(g.arcs, g.n, s) for s in range(1, 6)]
        # The standalone tester reads the stabilizer's orbits on the distance
        # layers, so it counts no family and enumerates no geodesics.
        assert is_distance_transitive(g, automorphism_group(g))
        assert len(counted) == 5

    def test_text_and_dict(self):
        report = transitivity_report(circuit(4), name="C4")
        text = report.to_text()
        assert "digraph=C4" in text and "max_geodesic_s=3" in text
        data = report.to_dict()
        assert data["group_order"] == 4


class TestCorpusInvariants:
    def test_geodesic_levels_read_arc_counts_to_brute_depth(self, monkeypatch):
        # Each level counts its arcs, then its geodesics only when they
        # leave the arcs: on this corpus, exactly above the depth where the
        # arcs and geodesics part.
        counted = []
        monkeypatch.setattr(symmetry, "_count_orbits", _recording_count_orbits(counted))
        for g in SMALL_CORPUS:
            depth = oracles.brute_arc_geodesic_depth(g.arcs, g.n)
            facts = InstanceFacts(g, PermGroup((), degree=g.n))
            geodesic_counted = []
            for s in range(1, g.n + 1):
                before = len(counted)
                facts.count(S_ARC, s)
                assert counted[before] == oracles.brute_s_arcs(g.arcs, g.n, s), (g, s)
                if len(counted) - before == 2:
                    geodesic_counted.append(s)
            assert geodesic_counted == list(range(depth + 1, g.n + 1)), g

    def test_arc_transitive_implies_geodesic_transitive(self):
        for g in SMALL_CORPUS:
            if g.symmetry_class != "directed" or not g.is_strongly_connected():
                continue
            group = automorphism_group(g)
            for s in range(1, g.diameter() + 1):
                if is_s_arc_transitive(g, group, s):
                    assert is_s_geodesic_transitive(g, group, s), (g, s)

    def test_vertex_transitive_implies_regular(self):
        for g in SMALL_CORPUS:
            group = automorphism_group(g)
            if group.is_transitive():
                assert g.valency() is not None, g
