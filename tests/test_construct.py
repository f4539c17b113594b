"""Tests for family builders, Cayley digraphs and quotients."""

from itertools import combinations

import pickle

import pytest

import oracles
from digsym import construct, verify
from digsym.construct import (
    CayleyDigraph,
    abelian_table,
    aut_preserving_conn,
    cayley_digraph,
    cayley_holomorph_action,
    cayley_spec,
    circuit,
    complete,
    cyclic_table,
    dihedral_table,
    is_normal_cayley,
    paley_tournament,
    parse_group_spec,
    quotient_digraph,
    right_translations,
)
from digsym.digraph import DIRECTED, UNDIRECTED, Digraph, build, from_text, to_text
from digsym.errors import (
    BadParameter,
    BoundExceeded,
    IdentityInConnectionSet,
    NotAntisymmetric,
    PartitionInvalid,
    TranslationNotInG,
)
from digsym.groups import GroupTable, PermGroup
from digsym.perm import Permutation, parse_cycles
from digsym.symmetry import automorphism_group, is_s_arc_transitive, is_vertex_transitive


class TestFamilies:
    def test_circuit(self):
        g = circuit(4)
        assert g.valency() == 1 and g.diameter() == 3
        assert g.symmetry_class == DIRECTED

    def test_circuit_too_small(self):
        with pytest.raises(BadParameter):
            circuit(2)

    def test_complete(self):
        g = complete(4)
        assert g.symmetry_class == UNDIRECTED and len(g.arcs) == 12

    def test_paley_out_neighbors(self):
        assert paley_tournament(7).out_neighbors(0) == {1, 2, 4}

    def test_paley_rejects_one_mod_four(self):
        with pytest.raises(BadParameter):
            paley_tournament(5)

    def test_paley_rejects_composite(self):
        with pytest.raises(BadParameter):
            paley_tournament(15)

    def test_paley_matches_residues(self):
        q = 11
        g = paley_tournament(q)
        assert g.out_neighbors(0) == oracles.quadratic_residues(q)


class TestTables:
    def test_cyclic(self):
        z5 = cyclic_table(5)
        assert z5.order == 5 and oracles.is_abelian_table(z5)

    def test_abelian_factors(self):
        t = abelian_table([2, 4])
        assert t.order == 8 and oracles.is_abelian_table(t)
        orders = sorted(t.order_of(x) for x in range(8))
        assert orders == [1, 2, 2, 2, 4, 4, 4, 4]

    def test_dihedral(self):
        d4 = dihedral_table(4)
        assert d4.order == 8 and not oracles.is_abelian_table(d4)
        assert sorted(d4.order_of(x) for x in range(8)) == [1, 2, 2, 2, 2, 2, 4, 4]

    def test_parse_group_spec(self):
        assert parse_group_spec("cyclic:6").order == 6
        assert parse_group_spec("abelian:2x3").order == 6
        assert parse_group_spec("dihedral:5").order == 10
        with pytest.raises(BadParameter):
            parse_group_spec("simple:60")

    def test_table_automorphism_counts(self):
        # With no connection set to fix, the maps found are all of Aut(T).
        assert len(aut_preserving_conn(cayley_spec(cyclic_table(7), ()))) == 6
        assert len(aut_preserving_conn(cayley_spec(cyclic_table(12), ()))) == 4
        assert len(aut_preserving_conn(cayley_spec(dihedral_table(4), ()))) == 8
        assert len(aut_preserving_conn(cayley_spec(abelian_table([2, 2]), ()))) == 6

    def test_order_above_64_within_candidate_budget(self):
        # Z70 has one generator and 24 elements of its order: 24 candidates.
        assert len(aut_preserving_conn(cayley_spec(cyclic_table(70), ()))) == 24

    def test_candidate_budget_raises_before_any_map(self, monkeypatch):
        # Z2^5: 5 generators, each with 31 involutions as candidate images.
        table = abelian_table([2] * 5)

        def tripwire(*choices):
            raise AssertionError("a candidate map was tried")

        monkeypatch.setattr(construct, "product", tripwire)
        with pytest.raises(BoundExceeded, match="28629151"):
            aut_preserving_conn(cayley_spec(table, ()))

    def test_candidates_restricted_to_connection_set(self):
        # Z4^4 with the four unit vectors: each unit vector is offered only
        # the four unit vectors, 256 candidates in place of the 240^4 =
        # 3,317,760,000 over every element of order 4.  Aut(T, S) is S4
        # permuting the coordinates, so the holomorph has order 4^4 * 24.
        table = abelian_table([4] * 4)
        units = [64, 16, 4, 1]  # mixed-radix indices of the unit vectors
        spec = cayley_spec(table, units)
        assert len(aut_preserving_conn(spec)) == 24
        assert cayley_holomorph_action(spec).order() == 6144

    def test_table_spec_reads_file(self, tmp_path):
        from digsym.groups import table_to_text

        path = tmp_path / "d4.tbl"
        path.write_text(table_to_text(dihedral_table(4)))
        table = parse_group_spec(f"table:{path}")
        assert table.order == 8 and not oracles.is_abelian_table(table)


def table_of_group(gens, degree):
    """The multiplication table of a permutation group, on its elements."""
    elements = PermGroup([parse_cycles(t, degree) for t in gens], degree).elements()
    index = {p.images: i for i, p in enumerate(elements)}
    return GroupTable([[index[(a * b).images] for b in elements] for a in elements])


def oracle_tables():
    """Tables of order <= 8, small enough for the brute-force oracle."""
    return (
        [cyclic_table(n) for n in range(1, 9)]
        + [abelian_table(f) for f in ((2, 2), (2, 4), (2, 2, 2))]
        + [dihedral_table(n) for n in (3, 4)]
        + [table_of_group(["(0 1 2 3)(4 5 6 7)", "(0 4 2 6)(1 7 3 5)"], 8)]  # Q8
    )


class TestTableAutomorphismOracle:
    @pytest.mark.parametrize("table", oracle_tables(), ids=repr)
    def test_matches_brute_force(self, table):
        found = [alpha.images for alpha in aut_preserving_conn(cayley_spec(table, ()))]
        assert sorted(found) == sorted(oracles.brute_table_automorphisms(table))

    def test_quaternion_automorphisms(self):
        # Aut(Q8) is S4; it also tells Q8 apart from the other groups of order 8.
        assert len(aut_preserving_conn(cayley_spec(oracle_tables()[-1], ()))) == 24

    @pytest.mark.parametrize("table", oracle_tables(), ids=repr)
    def test_conn_preserving_matches_filtered_brute_force(self, table):
        brute = oracles.brute_table_automorphisms(table)
        others = [x for x in range(table.order) if x != table.identity]
        checked = 0
        for k in (1, 2, 3):
            for conn in combinations(others, k):
                if any(table.inverse(x) in conn for x in conn):
                    continue
                spec = cayley_spec(table, conn)
                expected = [f for f in brute if {f[x] for x in conn} == set(conn)]
                found = [alpha.images for alpha in aut_preserving_conn(spec)]
                assert sorted(found) == sorted(expected), conn
                checked += 1
        # Groups of exponent 2 have no antisymmetric connection set.
        assert checked or all(table.inverse(x) == x for x in others)


class TestCayleySpec:
    def test_identity_rejected(self):
        with pytest.raises(IdentityInConnectionSet):
            cayley_spec(cyclic_table(5), [0, 1])

    def test_inverse_pair_rejected(self):
        with pytest.raises(NotAntisymmetric):
            cayley_spec(cyclic_table(5), [1, 4])

    def test_involution_rejected(self):
        with pytest.raises(NotAntisymmetric):
            cayley_spec(cyclic_table(6), [3])

    def test_generates_flag(self):
        assert cayley_spec(cyclic_table(6), [1, 2]).generates
        assert not cayley_spec(cyclic_table(6), [2]).generates

    def test_generates_read_when_first_asked(self):
        # Kept out of the spec's equality key and repr, and computed once.
        spec = cayley_spec(cyclic_table(6), [2])
        assert "generates" not in vars(spec) and "generates" not in repr(spec)
        assert spec.generates is False and vars(spec)["generates"] is False
        assert spec == cayley_spec(cyclic_table(6), [2])
        assert hash(spec) == hash(cayley_spec(cyclic_table(6), [2]))


class TestCayleyDigraph:
    def test_z5_circuit(self):
        g = cayley_digraph(cayley_spec(cyclic_table(5), [1]))
        assert g.arcs == circuit(5).arcs

    def test_z7_paley(self):
        g = cayley_digraph(cayley_spec(cyclic_table(7), [1, 2, 4]))
        assert g.arcs == paley_tournament(7).arcs

    def test_z6_two_generators(self):
        g = cayley_digraph(cayley_spec(cyclic_table(6), [1, 2]))
        assert g.valency() == 2 and g.is_strongly_connected()

    def test_connectivity_iff_generates(self):
        for conn in ([1], [2], [2, 3], [4]):
            try:
                spec = cayley_spec(cyclic_table(6), conn)
            except NotAntisymmetric:
                continue
            g = cayley_digraph(spec)
            assert g.is_strongly_connected() == spec.generates, conn

    def test_equals_hashes_and_prints_like_its_plain_copy(self):
        # The spec stays out of equality, hashing and repr, so a Cayley
        # digraph and its plain copy are interchangeable as values.
        for g in (
            cayley_digraph(cayley_spec(abelian_table([2, 4]), [1, 5])),
            circuit(6),
            paley_tournament(7),
        ):
            plain = build(g.n, g.arcs)
            assert isinstance(g, CayleyDigraph) and type(plain) is Digraph
            assert g == plain and plain == g and not g != plain
            assert hash(g) == hash(plain) and len({g, plain}) == 1
            assert repr(g) == repr(plain)
            assert to_text(g) == to_text(plain)
            assert from_text(to_text(g)) == g

    def test_pickles_after_a_search(self):
        g = paley_tournament(7)
        assert automorphism_group(g).order() == 21
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy.spec == g.spec
        assert automorphism_group(copy).order() == 21

    def test_other_arcs_or_values_differ(self):
        assert circuit(6) != cayley_digraph(cayley_spec(cyclic_table(6), [5]))
        assert circuit(6) != build(7, circuit(6).arcs)
        assert circuit(6) != "circuit(6)"

    def test_right_translations_built_once_per_instance(self, monkeypatch):
        # Cay(Z12, {1, 4, 7, 10}) is 2-geodesic-transitive, so T1.2 reads
        # R(T) twice as a source and once in the holomorph action; the search
        # started from it too.  The spec builds it once for all four.
        calls = []
        for name in ("right_translations", "cayley_holomorph_action"):
            original = getattr(construct, name)

            def counting(arg, name=name, original=original):
                calls.append(name)
                return original(arg)

            monkeypatch.setattr(construct, name, counting)
        [record] = verify._survey_worker((("circulant", 12, (1, 4, 7, 10)), ("T1.2",)))
        assert record["check"] == "T1.2" and record["status"] == "not_applicable"
        assert sorted(calls) == ["cayley_holomorph_action", "right_translations"]

    def test_translations_act_vertex_transitively(self):
        spec = cayley_spec(abelian_table([2, 4]), [1, 5])
        g = cayley_digraph(spec)
        translations = right_translations(spec.table)
        assert is_vertex_transitive(g, translations)
        assert translations.is_regular()

    def test_nonabelian_translations_preserve_arcs(self):
        # Right translations commute with the left-multiplication arcs.
        d6 = dihedral_table(6)
        spec = cayley_spec(d6, [1, 2])  # rotations r, r^2 (not generating)
        g = cayley_digraph(spec)
        translations = right_translations(d6)
        for p in translations.generators:
            assert all((p(u), p(v)) in g.arcs for u, v in g.arcs)


class TestHolomorphAction:
    def test_aut_preserving_conn_paley(self):
        spec = cayley_spec(cyclic_table(7), [1, 2, 4])
        auts = aut_preserving_conn(spec)
        assert len(auts) == 3

    def test_aut_preserving_conn_trivial(self):
        spec = cayley_spec(cyclic_table(5), [1])
        assert len(aut_preserving_conn(spec)) == 1

    def test_holomorph_order_21(self):
        spec = cayley_spec(cyclic_table(7), [1, 2, 4])
        action = cayley_holomorph_action(spec)
        assert action.order() == 21
        g = cayley_digraph(spec)
        assert is_s_arc_transitive(g, action, 1)

    def test_holomorph_c5(self):
        spec = cayley_spec(cyclic_table(5), [1])
        assert cayley_holomorph_action(spec).order() == 5

    def test_conjugation_transitive_on_conn_iff_arc_transitive(self):
        from digsym.verify import connection_sets

        specs = [
            cayley_spec(cyclic_table(7), [1, 2, 4]),
            cayley_spec(cyclic_table(5), [1]),
            cayley_spec(cyclic_table(6), [1, 2]),
            cayley_spec(cyclic_table(11), [1, 3, 9, 5, 4]),
        ]
        for n in range(4, 9):
            table = cyclic_table(n)
            specs.extend(
                cayley_spec(table, conn) for conn in connection_sets(table, 1, 5)
            )
        for spec in specs:
            g = cayley_digraph(spec)
            action = cayley_holomorph_action(spec)
            auts = aut_preserving_conn(spec)
            conn = sorted(spec.conn)
            # abelian group: conjugation is trivial, so orbit closure of the
            # connection set under the automorphisms plays that role
            orbit = {conn[0]}
            frontier = [conn[0]]
            while frontier:
                x = frontier.pop()
                for alpha in auts:
                    y = alpha(x)
                    if y in spec.conn and y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            conn_transitive = orbit == set(conn)
            assert conn_transitive == is_s_arc_transitive(g, action, 1), spec

    def test_holomorph_is_normalizer_of_translations(self):
        # Godsil (1981): the normalizer of R(T) in Aut(Cay(T, S)) is
        # R(T)⋊Aut(T, S), the one source T1.2 reads for a Cayley digraph.
        specs = [paley_tournament(q).spec for q in (7, 11, 19)]
        specs.append(cayley_spec(cyclic_table(9), [1, 4, 7]))
        for descriptor in verify.generate_descriptors(verify.default_config())[::40]:
            specs.append(verify.build_instance(descriptor)[2])
        checked = 0
        for spec in specs:
            g = cayley_digraph(spec)
            aut = automorphism_group(g)
            if aut.order() > 10**4:
                continue
            normalizer = oracles.brute_normalizer(
                [p.images for p in aut.generators],
                [p.images for p in spec.translations.generators],
                g.n,
            )
            action = cayley_holomorph_action(spec)
            assert action.order() == len(normalizer), spec
            assert all(p.images in normalizer for p in action.generators), spec
            assert all(Permutation(x) in action for x in normalizer), spec
            checked += 1
        assert checked == 56


class TestNormalCayley:
    def test_c5_normal(self):
        spec = cayley_spec(cyclic_table(5), [1])
        assert is_normal_cayley(spec, cayley_holomorph_action(spec))

    def test_paley_normal_in_holomorph(self):
        spec = cayley_spec(cyclic_table(7), [1, 2, 4])
        assert is_normal_cayley(spec, cayley_holomorph_action(spec))

    def test_paley_normal_in_full_aut(self):
        spec = cayley_spec(cyclic_table(7), [1, 2, 4])
        g = cayley_digraph(spec)
        assert is_normal_cayley(spec, automorphism_group(g))

    def test_translations_must_lie_inside(self):
        spec = cayley_spec(cyclic_table(5), [1])
        with pytest.raises(TranslationNotInG):
            is_normal_cayley(spec, PermGroup((), degree=5))


class TestQuotient:
    def test_c6_mod_rot3(self):
        g = circuit(6)
        group = automorphism_group(g)
        normal = PermGroup([parse_cycles("(0 3)(1 4)(2 5)", 6)])
        result = quotient_digraph(g, normal.orbit_partition(), group=group)
        assert result.quotient.arcs == circuit(3).arcs
        assert result.image_group.order() == 3
        assert not result.internal_arcs
        assert result.block_map == (0, 1, 2, 0, 1, 2)

    def test_c4_mod_rot2_undirected(self):
        g = circuit(4)
        group = automorphism_group(g)
        normal = PermGroup([parse_cycles("(0 2)(1 3)", 4)])
        result = quotient_digraph(g, normal.orbit_partition(), group=group)
        assert result.num_blocks == 2
        assert result.quotient.symmetry_class == UNDIRECTED

    def test_singleton_partition_copies(self):
        g = paley_tournament(7)
        result = quotient_digraph(g, partition=[(i,) for i in range(7)])
        assert result.quotient.arcs == g.arcs
        assert result.image_group is None

    def test_internal_arcs_flagged(self):
        g = build(4, [(0, 1), (2, 3), (0, 2)])
        result = quotient_digraph(g, partition=[(0, 1), (2, 3)])
        assert result.internal_arcs
        assert result.quotient.arcs == frozenset({(0, 1)})

    def test_bad_partition(self):
        with pytest.raises(PartitionInvalid):
            quotient_digraph(circuit(4), partition=[(0, 1), (1, 2, 3)])

    def test_quotient_of_connected_is_connected(self):
        for n, d in ((6, 3), (8, 4), (12, 4), (12, 3)):
            g = circuit(n)
            group = automorphism_group(g)
            rot = parse_cycles(
                "".join("(" + " ".join(str((i + j * d) % n) for j in range(n // d)) + ")"
                        for i in range(d)),
                n,
            )
            result = quotient_digraph(g, PermGroup([rot]).orbit_partition(), group=group)
            assert result.quotient.is_strongly_connected()
