"""Tests for automorphism search and the transitivity testers."""

import sys
import tracemalloc

import pytest

import oracles
from digsym import symmetry
from digsym.construct import circuit, complete, paley_tournament
from digsym.digraph import Digraph, build
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
    _count_orbits,
    automorphism_group,
    is_distance_transitive,
    is_s_arc_transitive,
    is_s_geodesic_transitive,
    is_vertex_transitive,
    transitivity_report,
)
from digsym.verify import build_instance, default_config, generate_descriptors

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

    def test_budget(self):
        with pytest.raises(SearchBudgetExceeded):
            automorphism_group(complete(8), node_budget=3)


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
        _, g, _ = build_instance(descriptor)
        group = automorphism_group(g)
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
    """The single-restriction search matches the earlier three-filter search."""

    @staticmethod
    def corpus():
        descriptors = generate_descriptors(default_config())[::4]
        graphs = [build_instance(d)[1] for d in descriptors]
        graphs += [paley_tournament(23), paley_tournament(31)]
        return graphs + [complete(k) for k in range(2, 7)]

    def test_same_generators(self):
        for g in self.corpus():
            found = automorphism_group(g).generators
            reference = oracles.reference_automorphism_group(g).generators
            assert found == reference, g

    def test_same_budget_threshold(self):
        circulant = build_instance(("circulant", 12, (1, 4, 5)))[1]
        for g in (complete(5), complete(6), paley_tournament(19), circulant):
            nodes = _budget_threshold(oracles.reference_automorphism_group, g)
            assert nodes > 1, g
            automorphism_group(g, node_budget=nodes)
            with pytest.raises(SearchBudgetExceeded):
                automorphism_group(g, node_budget=nodes - 1)


class TestCountOrbits:
    def test_arcs_single_orbit(self):
        g = circuit(6)
        group = automorphism_group(g)
        assert _count_orbits(group, sorted(g.arcs)) == 1

    def test_paley_two_geodesic_orbits(self):
        g = paley_tournament(7)
        family = g.s_geodesics(2)
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
        family = g.s_arcs(2)
        elements = [p.images for p in group.elements()]
        assert _count_orbits(group, family) == len(oracles.orbits_of_tuples(elements, family))

    def test_matches_brute_orbits_on_small_corpus(self):
        for g in SMALL_CORPUS:
            for group in (automorphism_group(g), PermGroup((), degree=g.n)):
                elements = [p.images for p in group.elements()]
                for s in range(4):
                    for family in (g.s_arcs(s), g.s_geodesics(s)):
                        brute = oracles.orbits_of_tuples(elements, family)
                        assert _count_orbits(group, family) == len(brute), (g, s)

    def test_duplicates_rejected(self):
        group = automorphism_group(circuit(3))
        with pytest.raises(ValueError, match="duplicates"):
            _count_orbits(group, [(0, 1), (1, 2), (2, 0), (1, 2)])

    def test_first_offender_named(self):
        # (0 1 2) maps (3, 0) to (3, 1) and (1, 2) to (2, 0), both outside the
        # family; a search from (0, 1) would meet (1, 2) first.
        group = PermGroup([parse_cycles("(0 1 2)", 4)])
        family = [(0, 1), (3, 0), (1, 2)]
        with pytest.raises(SetNotInvariant, match=r"^\(3, 0\) maps to \(3, 1\) outside"):
            _count_orbits(group, family)

    def test_peak_memory_below_family_size(self):
        # Cay(Z20, {1, 11}): 20,480 10-arcs.  The count keeps positions, not
        # a second copy of the tuples or a list per orbit.
        _, g, _ = build_instance(("circulant", 20, (1, 11)))
        group = automorphism_group(g).reduced()
        family = g.s_arcs(10)
        family_bytes = sum(map(sys.getsizeof, family))
        tracemalloc.start()
        try:
            assert _count_orbits(group, family) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < family_bytes, (peak, family_bytes)


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
                family = g.s_arcs(s)
                assert is_s_arc_transitive(g, group, s) == oracles.brute_single_orbit(
                    elements, family
                )


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
        # geodesic orbit, and no pair family is counted.
        g = circuit(6)
        assert g._arc_geodesic_depth == 5
        arc_families = []
        counted = []
        s_arcs = Digraph.s_arcs
        count_orbits = symmetry._count_orbits

        def recording_s_arcs(self, s):
            arc_families.append(s_arcs(self, s))
            return arc_families[-1]

        def no_geodesics(self, s):
            raise AssertionError(f"{s}-geodesics enumerated")

        def recording_count(group, family):
            counted.append(family)
            return count_orbits(group, family)

        monkeypatch.setattr(Digraph, "s_arcs", recording_s_arcs)
        monkeypatch.setattr(Digraph, "s_geodesics", no_geodesics)
        monkeypatch.setattr(symmetry, "_count_orbits", recording_count)
        report = transitivity_report(g)
        assert report.group_order == 6 and report.max_geodesic_s == 5
        assert report.distance_transitive
        assert len(arc_families) == 6
        assert len(counted) == 6
        assert all(any(f is a for a in arc_families) for f in counted)
        # The standalone tester counts the pairs and enumerates no geodesics.
        assert is_distance_transitive(g, automorphism_group(g))

    def test_text_and_dict(self):
        report = transitivity_report(circuit(4), name="C4")
        text = report.to_text()
        assert "digraph=C4" in text and "max_geodesic_s=3" in text
        data = report.to_dict()
        assert data["group_order"] == 4


class TestCorpusInvariants:
    def test_arc_geodesic_depth_matches_brute_levels(self):
        for g in SMALL_CORPUS:
            assert g._arc_geodesic_depth == oracles.brute_arc_geodesic_depth(g.arcs, g.n), g

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
