"""Tests for permutation groups (stabilizer chains) and group tables."""

import random
import threading
from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from digsym.errors import (
    DegreeMismatch,
    NotSubgroupElement,
    NotTransitive,
    ParseError,
    PartitionInvalid,
    PartitionNotInvariant,
)
from digsym.groups import GroupTable, PermGroup, _Chain, table_from_text, table_to_text
from digsym.perm import Permutation, parse_cycles


def group(*cycle_texts, degree):
    return PermGroup([parse_cycles(t, degree) for t in cycle_texts], degree)


def s4():
    return group("(0 1)", "(0 1 2 3)", degree=4)


def closure_tables():
    """Cyclic, abelian and (non-abelian) dihedral tables of order <= 12."""
    from digsym.construct import abelian_table, cyclic_table, dihedral_table

    return (
        [cyclic_table(n) for n in range(1, 13)]
        + [abelian_table(f) for f in ((2, 2, 2), (2, 6), (3, 3))]
        + [dihedral_table(n) for n in range(3, 7)]
    )


def a5():
    return group("(0 1 2 3 4)", "(0 1 2)", degree=5)


@st.composite
def generator_sets(draw):
    degree = draw(st.integers(min_value=2, max_value=6))
    count = draw(st.integers(min_value=1, max_value=3))
    gens = [
        Permutation(draw(st.permutations(range(degree)))) for _ in range(count)
    ]
    return degree, gens


class TestOrderAndMembership:
    def test_cyclic(self):
        assert group("(0 1 2 3 4 5)", degree=6).order() == 6

    def test_s4(self):
        assert s4().order() == 24

    def test_trivial(self):
        assert PermGroup((), degree=3).order() == 1

    def test_contains(self):
        g = s4()
        assert parse_cycles("(0 2)", 4) in g
        assert parse_cycles("(0 1 2)", 4) in g

    def test_not_contains(self):
        g = group("(0 1 2)", degree=4)
        assert parse_cycles("(0 1)", 4) not in g

    def test_degree_mismatch(self):
        with pytest.raises(DegreeMismatch):
            PermGroup([parse_cycles("(0 1)", 2), parse_cycles("(0 1)", 3)])

    def test_elements_match_closure(self):
        g = s4()
        elements = {p.images for p in g.elements()}
        assert elements == oracles.brute_closure([p.images for p in g.generators], 4)

    @settings(max_examples=60, deadline=None)
    @given(generator_sets())
    def test_order_matches_brute_closure(self, data):
        degree, gens = data
        g = PermGroup(gens, degree)
        assert g.order() == len(
            oracles.brute_closure([p.images for p in gens], degree)
        )

    @settings(max_examples=30, deadline=None)
    @given(generator_sets())
    def test_membership_matches_brute_closure(self, data):
        degree, gens = data
        g = PermGroup(gens, degree)
        closure = oracles.brute_closure([p.images for p in gens], degree)
        for images in closure:
            assert g.contains(Permutation(images))


class TestOrbits:
    def test_partition_by_rotation(self):
        g = group("(0 3)(1 4)(2 5)", degree=6)
        assert g.orbit_partition() == [(0, 3), (1, 4), (2, 5)]

    def test_single_orbit(self):
        assert group("(0 1 2 3 4 5)", degree=6).orbit_partition() == [tuple(range(6))]

    def test_two_orbits_of_pairs(self):
        g = group("(0 1)(2 3)", degree=4)
        assert g.orbit_partition() == [(0, 1), (2, 3)]

    def test_orbit(self):
        assert group("(0 1)(2 3)", degree=4).orbit(2) == {2, 3}

    @settings(max_examples=40, deadline=None)
    @given(generator_sets())
    @example((0, []))  # degree 0
    @example((1, [Permutation((0,))]))  # degree 1
    @example((4, []))  # generator-free
    def test_orbit_stabilizer(self, data):
        degree, gens = data
        g = PermGroup(gens, degree)
        elements = oracles.brute_closure([p.images for p in gens], degree)
        orbits = oracles.brute_orbit_partition(elements, degree)
        assert g.orbit_partition() == [tuple(sorted(o)) for o in orbits]
        assert g.orbits_count() == len(orbits)
        assert g.is_transitive() == (len(orbits) == 1)
        for point in range(degree):
            assert g.orbit(point) == next(o for o in orbits if point in o)
            stab = g.tuple_stabilizer((point,))
            assert len(g.orbit(point)) * stab.order() == g.order()
        with pytest.raises(ValueError):
            g.orbit(degree)


class TestStabilizers:
    def test_s4_point_stabilizer(self):
        stab = s4().tuple_stabilizer((0,))
        assert stab.order() == 6
        assert all(p(0) == 0 for p in stab.generators)

    def test_arc_regular_stabilizer_trivial(self):
        f21 = group("(0 1 2 3 4 5 6)", "(1 2 4)(3 6 5)", degree=7)
        assert f21.order() == 21
        assert f21.tuple_stabilizer((0, 1)).order() == 1

    def test_empty_tuple(self):
        assert s4().tuple_stabilizer(()).order() == 24

    def test_stabilizer_fixes_points(self):
        # Repeated and unsorted points name the same pointwise stabilizer.
        f21 = group("(0 1 2 3 4 5 6)", "(1 2 4)(3 6 5)", degree=7)
        for g, points in ((a5(), (1, 3)), (a5(), (3, 1, 3)), (f21, (1, 0, 1))):
            stab = g.tuple_stabilizer(points)
            for p in stab.generators:
                assert all(p(v) == v for v in points)
            closure = oracles.brute_closure([p.images for p in g.generators], g.degree)
            assert stab.order() == sum(all(e[v] == v for v in points) for e in closure)


class TestNormalClosure:
    def test_three_cycle_in_s3(self):
        s3 = group("(0 1)", "(0 1 2)", degree=3)
        closure = s3.normal_closure([parse_cycles("(0 1 2)", 3)])
        assert closure.order() == 3

    def test_klein_in_s4(self):
        closure = s4().normal_closure([parse_cycles("(0 1)(2 3)", 4)])
        assert closure.order() == 4

    def test_closure_is_normal(self):
        g = s4()
        closure = g.normal_closure([parse_cycles("(0 1 2)", 4)])
        assert closure.order() == 12
        assert g.is_normal(closure)

    def test_abelian_subgroup_normal(self):
        c6 = group("(0 1 2 3 4 5)", degree=6)
        rot3 = group("(0 3)(1 4)(2 5)", degree=6)
        assert c6.is_normal(rot3)

    def test_outside_element_rejected(self):
        with pytest.raises(NotSubgroupElement):
            group("(0 1 2)", degree=3).normal_closure([parse_cycles("(0 1)", 3)])

    def test_non_normal_detected(self):
        assert not s4().is_normal(group("(0 1)", degree=4))

    def test_matches_brute_closure(self):
        g = s4()
        for seed in ("(0 1)(2 3)", "(0 1 2)", "(0 1)"):
            lib = g.normal_closure([parse_cycles(seed, 4)])
            all_elems = oracles.brute_closure([p.images for p in g.generators], 4)
            seed_t = parse_cycles(seed, 4).images
            conjugates = {
                oracles.mult(oracles.mult(oracles.inv(x), seed_t), x) for x in all_elems
            }
            brute = oracles.brute_subgroup_closure(conjugates, 4)
            assert lib.order() == len(brute)


class TestTransitivityPredicates:
    def test_rotation_group(self):
        g = group("(0 1 2 3 4 5)", degree=6)
        assert g.is_transitive() and g.is_regular()

    def test_s4_not_regular(self):
        assert s4().is_transitive() and not s4().is_regular()

    def test_semiregular_not_transitive(self):
        g = group("(0 1)(2 3)(4 5)", degree=6)
        assert all(len(o) == g.order() for o in g.orbit_partition())
        assert not g.is_transitive()


class TestQuasiprimitivity:
    def test_a5_quasiprimitive(self):
        assert a5().is_quasiprimitive()
        assert not a5().is_biquasiprimitive()

    def test_regular_c6_neither(self):
        c6 = group("(0 1 2 3 4 5)", degree=6)
        assert not c6.is_quasiprimitive()
        assert not c6.is_biquasiprimitive()

    def test_regular_c4_biquasiprimitive(self):
        c4 = group("(0 1 2 3)", degree=4)
        assert not c4.is_quasiprimitive()
        assert c4.is_biquasiprimitive()

    def test_requires_transitive(self):
        with pytest.raises(NotTransitive):
            group("(0 1)", degree=3).is_quasiprimitive()
        with pytest.raises(NotTransitive):
            group("(0 1)", degree=3).is_biquasiprimitive()

    def test_mutually_exclusive_on_samples(self):
        for g in (a5(), s4(), group("(0 1 2 3)", degree=4), group("(0 1 2 3 4)", degree=5)):
            quasi = g.is_quasiprimitive()
            biquasi = g.is_biquasiprimitive()
            assert not (quasi and biquasi)


class TestSolubility:
    def test_s4_soluble(self):
        assert s4().is_soluble()

    def test_a5_not_soluble(self):
        assert not a5().is_soluble()

    def test_frobenius_21_soluble(self):
        f21 = group("(0 1 2 3 4 5 6)", "(1 2 4)(3 6 5)", degree=7)
        assert f21.is_soluble()

    def test_derived_series_length(self):
        f21 = group("(0 1 2 3 4 5 6)", "(1 2 4)(3 6 5)", degree=7)
        derived = f21.derived_subgroup()
        assert derived.order() == 7
        assert derived.derived_subgroup().order() == 1


class TestBlockAction:
    def test_c6_on_three_blocks(self):
        g = group("(0 1 2 3 4 5)", degree=6)
        blocks = [(0, 3), (1, 4), (2, 5)]
        image, kernel = g.induced_block_action(blocks), g.block_action_kernel(blocks)
        assert image.order() == 3 and kernel.order() == 2
        assert image.order() * kernel.order() == g.order()

    def test_singleton_blocks(self):
        g = s4()
        blocks = [(i,) for i in range(4)]
        image, kernel = g.induced_block_action(blocks), g.block_action_kernel(blocks)
        assert image.order() == 24 and kernel.order() == 1

    def test_dihedral_subgroup_on_two_blocks(self):
        g = group("(0 1)", "(2 3)", "(0 2)(1 3)", degree=4)
        blocks = [(0, 1), (2, 3)]
        image, kernel = g.induced_block_action(blocks), g.block_action_kernel(blocks)
        assert image.order() == 2
        assert image.order() * kernel.order() == g.order()

    def test_invalid_partition(self):
        with pytest.raises(PartitionInvalid):
            s4().induced_block_action([(0, 1), (1, 2, 3)])
        with pytest.raises(PartitionInvalid):
            s4().block_action_kernel([(0, 1), (1, 2, 3)])

    def test_non_invariant_partition(self):
        with pytest.raises(PartitionNotInvariant):
            s4().induced_block_action([(0, 1), (2, 3)])
        with pytest.raises(PartitionNotInvariant):
            s4().block_action_kernel([(0, 1), (2, 3)])


class TestNormalPartitions:
    def test_c6(self):
        c6 = group("(0 1 2 3 4 5)", degree=6)
        assert c6.block_systems() == [
            ((0, 2, 4), (1, 3, 5)),
            ((0, 3), (1, 4), (2, 5)),
        ]
        partitions = c6.normal_partitions()
        assert list(partitions) == c6.block_systems()
        assert [k.order() for k in partitions.values()] == [3, 2]
        assert all(tuple(k.orbit_partition()) == p for p, k in partitions.items())

    def test_a5_primitive(self):
        assert a5().block_systems() == []
        assert a5().normal_partitions() == {}

    def test_s4_primitive(self):
        assert s4().block_systems() == []
        assert s4().normal_partitions() == {}

    def test_no_points_no_block_system(self):
        empty = PermGroup((), 0)
        assert empty.block_systems() == []
        assert empty.normal_partitions() == {}

    def test_all_kernels_normal(self):
        d4 = group("(0 1 2 3)", "(1 3)", degree=4)
        partitions = d4.normal_partitions()
        assert list(partitions) == [((0, 2), (1, 3))]
        assert [k.order() for k in partitions.values()] == [4]
        assert all(d4.is_normal(k) for k in partitions.values())

    def test_cached_and_copied(self):
        c6 = group("(0 1 2 3 4 5)", degree=6)
        partitions = c6.normal_partitions()
        partitions.clear()
        assert len(c6.normal_partitions()) == 2

    def test_requires_transitive(self):
        with pytest.raises(NotTransitive):
            group("(0 1)", degree=3).normal_partitions()


class TestChainConcurrency:
    def test_concurrent_first_use(self):
        g = group("(0 1)", "(0 1 2 3 4 5 6)", degree=7)
        orders = []
        threads = [
            threading.Thread(target=lambda: orders.append(g.order()))
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert orders == [5040] * 8


class TestChainOnImageTuples:
    def test_order_and_membership_make_no_permutation_products(self, monkeypatch):
        # The chain of Aut(Cay(Z12, {1, 4, 7, 10})) strips image tuples with
        # cached inverse representatives: building it and sifting through
        # it neither composes nor inverts a Permutation.
        from digsym.construct import cayley_digraph, cayley_spec, cyclic_table
        from digsym.symmetry import automorphism_group

        g = cayley_digraph(cayley_spec(cyclic_table(12), [1, 4, 7, 10]))
        aut = automorphism_group(g)
        rng = random.Random(0)
        sample = [Permutation(rng.sample(range(12), 12)) for _ in range(64)]
        members = [a * b for a in aut.generators for b in aut.generators]
        calls = Counter()

        def counted(name, method):
            def wrapper(*args):
                calls[name] += 1
                return method(*args)

            return wrapper

        monkeypatch.setattr(Permutation, "__mul__", counted("mul", Permutation.__mul__))
        monkeypatch.setattr(Permutation, "inverse", counted("inverse", Permutation.inverse))
        assert aut.order() == 41472
        found = [aut.contains(x) for x in sample]
        assert all(aut.contains(x) for x in members)
        assert calls == Counter()
        elements = {p.images for p in aut.elements()}
        assert found == [x.images in elements for x in sample]

    # The chain composes image tuples with operator.itemgetter, which over
    # one index returns a bare value and over none raises; on degrees 0 and
    # 1 the identity is the only permutation.
    def test_degree_zero_order(self):
        assert PermGroup((), 0).order() == 1

    def test_degree_one_stabilizer(self):
        stab = PermGroup([Permutation.identity(1)]).tuple_stabilizer((0,))
        assert stab.order() == 1
        assert Permutation.identity(1) in stab

    def test_degree_one_sift(self):
        assert _Chain([], 1, base_prefix=(0,)).sift((0,)) == ((0,), 1)


class TestGroupTable:
    def test_cyclic_order_of(self):
        from digsym.construct import cyclic_table

        z7 = cyclic_table(7)
        assert z7.order_of(3) == 7
        assert z7.order_of(0) == 1

    def test_order_of_matches_powers(self):
        for table in closure_tables():
            for x in range(table.order):
                power, r = x, 1
                while power != table.identity:
                    power, r = table.mul(power, x), r + 1
                assert table.order_of(x) == r, (table, x)

    def test_columns_are_right_translations(self):
        for table in closure_tables():
            m = table.order
            assert table.columns == tuple(
                tuple(table.mul(h, g) for h in range(m)) for g in range(m)
            ), table

    def test_immutable(self):
        from digsym.construct import cyclic_table

        with pytest.raises(AttributeError):
            cyclic_table(4).columns = ()

    def test_generating_set_is_greedy(self):
        from digsym.construct import abelian_table, dihedral_table

        d4, z2z6 = dihedral_table(4), abelian_table([2, 6])
        assert d4.generating_set() == [1, 4]
        assert d4.generating_set(first=[2, 3]) == [2, 3, 4]
        assert z2z6.generating_set() == [1, 6]
        assert z2z6.generating_set(first=[3]) == [3, 1, 6]

    def test_inverse_and_identity(self):
        from digsym.construct import cyclic_table

        z6 = cyclic_table(6)
        assert z6.identity == 0
        assert z6.inverse(2) == 4

    def test_rejects_non_associative(self):
        # Swap two entries of Z_3 to break associativity.
        rows = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
        with pytest.raises(ValueError):
            GroupTable(rows)

    def test_rejects_no_identity(self):
        with pytest.raises(ValueError):
            GroupTable([[0, 0], [0, 0]])

    def test_generated_subset(self):
        from digsym.construct import cyclic_table

        z6 = cyclic_table(6)
        assert z6.generated_subset([2]) == {0, 2, 4}
        assert z6.generated_subset([2, 3]) == set(range(6))

    def test_generated_subset_matches_two_sided_closure(self):
        for table in closure_tables():
            for size in range(4):
                for seeds in combinations(range(table.order), size):
                    assert table.generated_subset(seeds) == oracles.brute_generated_subset(
                        table, seeds
                    ), (table, seeds)

    def test_connection_sets_match_per_mask_closure(self):
        from digsym.verify import connection_sets

        for table in closure_tables():
            assert list(connection_sets(table, 1, 5)) == oracles.brute_connection_sets(
                table, 1, 5
            ), table

    def test_generating_set(self):
        from digsym.construct import cyclic_table

        z12 = cyclic_table(12)
        gens = z12.generating_set()
        assert z12.generated_subset(gens) == set(range(12))

    def test_text_round_trip(self):
        from digsym.construct import dihedral_table

        d4 = dihedral_table(4)
        back = table_from_text(table_to_text(d4))
        assert back.mul_table == d4.mul_table

    def test_rejects_one_broken_entry_in_large_table(self):
        # Z_300 with 1*1 = 3 instead of 2: identity and inverses survive,
        # and no product a*b, (a*b)*c, b*c or a*(b*c) over the 4096 triples
        # of the former deterministic sampler reads the broken entry.
        m = 300
        rows = [[(i + j) % m for j in range(m)] for i in range(m)]
        rows[1][1] = 3
        with pytest.raises(ValueError):
            GroupTable(rows)
        text = f"order {m}\n" + "\n".join(" ".join(map(str, r)) for r in rows) + "\n"
        with pytest.raises(ParseError):
            table_from_text(text)

    def test_text_errors(self):
        with pytest.raises(ParseError):
            table_from_text("order 2\n0 1\n")
        with pytest.raises(ParseError):
            table_from_text("order 2\n0 1\n1 x\n")
