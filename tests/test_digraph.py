"""Tests for the digraph core: neighborhoods, distance, walks, girth, I/O."""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from digsym.digraph import (
    DIRECTED,
    MIXED,
    UNDIRECTED,
    build,
    from_text,
    to_text,
)
from digsym.errors import LoopArc, NotStronglyConnected, ParseError, VertexOutOfRange


def circuit(n):
    return build(n, [(i, (i + 1) % n) for i in range(n)])


def paley7():
    qr = oracles.quadratic_residues(7)
    assert qr == {1, 2, 4}
    return build(7, [(u, (u + d) % 7) for u in range(7) for d in qr])


def complete_undirected(n):
    return build(n, [(u, v) for u in range(n) for v in range(n) if u != v])


@st.composite
def digraphs(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    arcs = draw(st.lists(st.sampled_from(pairs), max_size=18)) if pairs else []
    return build(n, arcs)


class TestBuild:
    def test_three_circuit_is_directed(self):
        g = build(3, [(0, 1), (1, 2), (2, 0)])
        assert g.symmetry_class == DIRECTED

    def test_single_undirected_edge(self):
        g = build(2, [(0, 1), (1, 0)])
        assert g.symmetry_class == UNDIRECTED

    def test_loop_rejected(self):
        with pytest.raises(LoopArc):
            build(2, [(0, 0)])

    def test_vertex_out_of_range(self):
        with pytest.raises(VertexOutOfRange):
            build(2, [(0, 2)])

    def test_mixed_class(self):
        g = build(3, [(0, 1), (1, 0), (1, 2)])
        assert g.symmetry_class == MIXED

    def test_duplicate_arcs_removed(self):
        g = build(2, [(0, 1), (0, 1)])
        assert len(g.arcs) == 1


class TestNeighbors:
    def test_paley_out_neighbors(self):
        assert paley7().out_neighbors(0) == {1, 2, 4}

    def test_circuit_out(self):
        assert circuit(6).out_neighbors(2) == {3}

    def test_in_neighbors_empty(self):
        assert build(2, [(0, 1)]).in_neighbors(0) == frozenset()

    def test_valency(self):
        assert paley7().valency() == 3
        assert circuit(6).valency() == 1
        assert build(3, [(0, 1), (0, 2)]).valency() is None


class TestDistance:
    def test_circuit(self):
        assert circuit(6).distance(0, 4) == 4

    def test_paley(self):
        g = paley7()
        assert g.distance(0, 3) == 2
        assert 3 not in g.out_neighbors(0)

    def test_unreachable_is_value(self):
        assert build(2, [(0, 1)]).distance(1, 0) is None

    def test_matches_oracle(self):
        g = paley7()
        for u in range(7):
            for v in range(7):
                assert g.distance(u, v) == oracles.brute_distance(g.arcs, 7, u, v)


class TestDiameter:
    def test_circuit(self):
        assert circuit(6).diameter() == 5

    def test_paley(self):
        assert paley7().diameter() == 2

    def test_complete(self):
        assert complete_undirected(4).diameter() == 1

    def test_rejects_disconnected(self):
        with pytest.raises(NotStronglyConnected):
            build(2, [(0, 1)]).diameter()

    def test_strongly_connected(self):
        assert circuit(6).is_strongly_connected()
        assert paley7().is_strongly_connected()
        assert not build(2, [(0, 1)]).is_strongly_connected()


class TestWalkEnumeration:
    def test_circuit_closed_three_arcs(self):
        walks = circuit(3).s_arcs(3)
        assert len(walks) == 3
        assert all(w[0] == w[-1] for w in walks)

    def test_paley_two_arcs(self):
        assert len(paley7().s_arcs(2)) == 63

    def test_zero_arcs_are_vertices(self):
        g = paley7()
        assert len(g.s_arcs(0)) == 7

    def test_lexicographic_order(self):
        walks = paley7().s_arcs(2)
        assert walks == sorted(walks)

    def test_paley_two_geodesics(self):
        assert len(paley7().s_geodesics(2)) == 42

    def test_circuit_geodesics(self):
        assert len(circuit(3).s_geodesics(2)) == 3
        assert len(circuit(3).s_geodesics(3)) == 0
        assert len(circuit(6).s_geodesics(5)) == 6

    def test_arc_geodesic_depth(self):
        assert circuit(6)._arc_geodesic_depth == 5
        assert paley7()._arc_geodesic_depth == 1
        assert build(2, [(0, 1), (1, 0)])._arc_geodesic_depth == 1
        # The 2-arc 0->1->2 is a geodesic and no 3-arc exists.
        assert build(3, [(0, 1), (1, 2)])._arc_geodesic_depth == 3

    def test_dropped_family_leaves_no_cyclic_garbage(self):
        # A family must be freed by reference counting alone as soon as it
        # is dropped, not kept alive until the cyclic collector runs.
        g = build(20, [(u, (u + d) % 20) for u in range(20) for d in (1, 11)])
        gc.collect()
        gc.disable()
        try:
            assert len(g.s_arcs(8)) == 20 * 2**8
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_against_oracle(self):
        for g in (circuit(5), paley7(), build(4, [(0, 1), (1, 0), (1, 2), (2, 3)])):
            for s in range(4):
                assert g.s_arcs(s) == sorted(oracles.brute_s_arcs(g.arcs, g.n, s))
                assert g.s_geodesics(s) == sorted(oracles.brute_s_geodesics(g.arcs, g.n, s))


class TestGirth:
    def test_circuit(self):
        assert circuit(6).girth() == 6

    def test_paley(self):
        assert paley7().girth() == 3

    def test_no_circuit(self):
        assert build(3, [(0, 1), (1, 2)]).girth() is None

    def test_digon_does_not_count(self):
        assert build(2, [(0, 1), (1, 0)]).girth() is None

    def test_undirected_triangle(self):
        g = complete_undirected(3)
        assert g.girth() == 3

    def test_witness_is_valid_circuit(self):
        g = paley7()
        closed = g.minimal_circuit()
        assert len(closed) == 4 and closed[0] == closed[-1]
        assert len(set(closed)) == 3
        assert all(pair in g.arcs for pair in zip(closed, closed[1:]))


class TestInducedAndUnderlying:
    def test_paley_out_neighborhood_is_circuit(self):
        g = paley7()
        sub, relabel = g.induced({1, 2, 4})
        assert relabel == {1: 0, 2: 1, 4: 2}
        assert sub.arcs == frozenset({(0, 1), (1, 2), (2, 0)})

    def test_single_arc(self):
        sub, _ = circuit(6).induced({0, 1})
        assert sub.arcs == frozenset({(0, 1)})

    def test_empty_subset(self):
        sub, relabel = paley7().induced(set())
        assert sub.n == 0 and relabel == {}

    def test_weak_components(self):
        # Arcs in either direction join; vertex 5 is isolated.
        g = build(7, [(0, 3), (6, 3), (1, 2), (4, 2)])
        assert g.weak_components() == [(0, 3, 6), (1, 2, 4), (5,)]

    def test_circuit_is_one_weak_component(self):
        assert circuit(6).weak_components() == [tuple(range(6))]


class TestTextFormat:
    def test_round_trip(self):
        g = paley7()
        assert from_text(to_text(g)) == g

    def test_comments_and_dedup(self):
        g = from_text("# a comment\nn 3\n0 1\n0 1\n1 2\n")
        assert g.n == 3 and len(g.arcs) == 2

    def test_error_cites_line(self):
        with pytest.raises(ParseError) as info:
            from_text("n 3\n0 1\nbogus line here\n")
        assert info.value.line == 3

    def test_missing_header(self):
        with pytest.raises(ParseError):
            from_text("0 1\n")

    def test_loop_cites_line(self):
        with pytest.raises(ParseError) as info:
            from_text("n 3\n1 1\n")
        assert info.value.line == 2


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(digraphs(), st.integers(min_value=0, max_value=3))
    def test_geodesics_are_arcs(self, g, s):
        arcs = set(g.s_arcs(s))
        geos = set(g.s_geodesics(s))
        assert geos <= arcs

    @settings(max_examples=60, deadline=None)
    @given(digraphs())
    def test_triangle_inequality(self, g):
        for u in range(g.n):
            for v in range(g.n):
                for w in range(g.n):
                    duv, dvw, duw = g.distance(u, v), g.distance(v, w), g.distance(u, w)
                    if duv is not None and dvw is not None:
                        assert duw is not None and duw <= duv + dvw

    @settings(max_examples=60, deadline=None)
    @given(digraphs())
    def test_arc_geodesic_depth_matches_brute_levels(self, g):
        assert g._arc_geodesic_depth == oracles.brute_arc_geodesic_depth(g.arcs, g.n)

    @settings(max_examples=40, deadline=None)
    @given(digraphs())
    def test_girth_matches_minimal_closed_arc(self, g):
        brute = oracles.brute_girth(g.arcs, g.n)
        assert g.girth() == brute
        closed = g.minimal_circuit()
        if brute is None:
            assert closed is None
            return
        inner = closed[:-1]
        assert closed[0] == closed[-1]
        assert all(pair in g.arcs for pair in zip(closed, closed[1:]))
        assert len(set(inner)) == len(inner)
        assert len(inner) == brute

    @settings(max_examples=40, deadline=None)
    @given(digraphs())
    def test_diameter_is_max_nonempty_geodesic_level(self, g):
        if g.is_strongly_connected() and g.n > 1:
            diam = g.diameter()
            assert g.s_geodesics(diam)
            assert not g.s_geodesics(diam + 1)

    @settings(max_examples=60, deadline=None)
    @given(digraphs())
    def test_directed_class_iff_no_reversed_pairs(self, g):
        reversed_arcs = {(v, u) for u, v in g.arcs}
        assert (g.symmetry_class == DIRECTED) == (not (g.arcs & reversed_arcs))
