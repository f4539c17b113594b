"""Acceptance suite: the eight exit criteria, each exact (no tolerances).

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  The circulant corpus is every connected Cay(Z_n, S) with
S meeting -S trivially, within the stated order and valency bounds.
"""

import hashlib
import json
from collections import Counter

import pytest

import oracles
from digsym import verify
from digsym.construct import (
    cayley_digraph,
    cayley_holomorph_action,
    cayley_spec,
    circuit,
    cyclic_table,
    paley_residues,
    paley_tournament,
    right_translations,
)
from digsym.digraph import S_ARC, S_GEODESIC
from digsym.groups import PermGroup
from digsym.perm import Permutation, parse_cycles
from digsym.symmetry import (
    InstanceFacts,
    automorphism_group,
    is_distance_transitive,
    is_s_arc_transitive,
    is_s_geodesic_transitive,
    transitivity_report,
)
from digsym.verify import PASS, check_quotient_theorem


def circulant_specs(orders, min_valency, max_valency):
    for n in orders:
        table = cyclic_table(n)
        for conn in sorted(verify.connection_sets(table, min_valency, max_valency)):
            yield n, conn, cayley_spec(table, conn)


def test_criterion_1_small_valency_equivalence():
    """Valency <= 5 circulants: 2-geodesic-transitive iff 2-arc-transitive."""
    mismatches = []
    count = 0
    for n, conn, spec in circulant_specs(range(4, 15), 2, 5):
        g = cayley_digraph(spec)
        group = automorphism_group(g)
        count += 1
        two_gt = is_s_geodesic_transitive(g, group, 2)
        two_at = is_s_arc_transitive(g, group, 2)
        if two_gt != two_at:
            mismatches.append((n, conn, two_gt, two_at))
    assert count > 1900, f"corpus unexpectedly small: {count}"
    assert mismatches == [], mismatches
    print(f"\nACCEPTANCE 1 (valency <= 5 equivalence, {count} circulants): PASS")


def test_criterion_2_common_out_neighbor_counts():
    """Arc-transitive circulants: common out-neighbor count is never r-1,
    and never r-2 once r >= 4."""
    checked = 0
    violations = []
    for n, conn, spec in circulant_specs(range(4, 15), 2, 5):
        g = cayley_digraph(spec)
        group = automorphism_group(g)
        if not is_s_arc_transitive(g, group, 1):
            continue
        checked += 1
        r = g.valency()
        for u, v in g.arcs:
            common = len(g.out_neighbors(u) & g.out_neighbors(v))
            if common == r - 1:
                violations.append((n, conn, (u, v), common, "r-1"))
            if r >= 4 and common == r - 2:
                violations.append((n, conn, (u, v), common, "r-2"))
    assert checked > 0
    assert violations == [], violations
    print(f"\nACCEPTANCE 2 (forbidden common counts, {checked} arc-transitive): PASS")


def test_criterion_3_regular_normal_forces_circuit():
    """Cayley corpus under the translation-plus-automorphism action: a
    2-geodesic-transitive member with normal translations is a circuit."""
    positives = 0
    violations = []
    count = 0
    config = verify.default_config()
    widened = verify.SurveyConfig(**{**config.to_dict(), "min_valency": 1})
    for descriptor in verify.generate_descriptors(widened):
        label, g, spec = verify.build_instance(descriptor)
        count += 1
        action = cayley_holomorph_action(spec)
        translations = right_translations(spec.table)
        if not action.is_normal(translations):
            continue
        if not is_s_geodesic_transitive(g, action, 2):
            continue
        positives += 1
        if g.valency() != 1:
            violations.append(label)
    assert violations == [], violations
    assert positives > 0, "criterion never fired; corpus misses circuits"
    print(
        f"\nACCEPTANCE 3 (regular normal => circuit, {positives} positives "
        f"of {count}): PASS"
    )


def test_criterion_4_circuit_quotients():
    """Quotients of circuits by rotation subgroups with >= 3 orbits."""
    cases = 0
    for n in range(4, 25):
        g = circuit(n)
        group = automorphism_group(g)
        assert group.order() == n
        for d in range(3, n):
            if n % d != 0:
                continue
            rotation = Permutation([(i + d) % n for i in range(n)])
            normal = PermGroup([rotation])
            assert normal.orbits_count() == d
            result = check_quotient_theorem(verify.InstanceFacts(g, group), normal)
            assert result.status == PASS, (n, d, result)
            from digsym.construct import quotient_digraph

            assert group.is_normal(normal)
            quotient = quotient_digraph(g, normal.orbit_partition(), group=group)
            assert quotient.quotient.arcs == circuit(d).arcs, (n, d)
            assert quotient.quotient.symmetry_class == "directed"
            s_prime = min(n - 1, d - 1)
            assert is_s_geodesic_transitive(
                quotient.quotient, quotient.image_group, s_prime
            ), (n, d)
            cases += 1
    assert cases > 0
    print(f"\nACCEPTANCE 4 (circuit quotients, {cases} (n,d) cases): PASS")


def test_criterion_5_hadamard_parameters():
    """Paley tournaments carry 2-designs with the stated parameters."""
    expected = {7: (7, 3, 1), 11: (11, 5, 2), 19: (19, 9, 4)}
    for q, (points, block_size, lam) in expected.items():
        g = paley_tournament(q)
        assert g.n == points
        assert g.valency() == block_size
        for x in range(q):
            for y in range(x + 1, q):
                assert oracles.pair_block_count(g.arcs, q, x, y) == lam, (q, x, y)
    print("\nACCEPTANCE 5 (Hadamard design parameters 7/11/19): PASS")


def test_criterion_6_oracle_equivalence():
    """Automorphism groups match the exhaustive scan for n <= 8; chain
    orders match brute-force closures for order <= 5040."""
    graph_corpus = [
        cayley_digraph(spec)
        for n, conn, spec in circulant_specs(range(4, 9), 1, 5)
    ]
    graph_corpus += [paley_tournament(7), circuit(3), circuit(8)]
    scanned = 0
    for g in graph_corpus:
        if g.n > 8:
            continue
        scanned += 1
        found = automorphism_group(g)
        brute = oracles.brute_automorphisms(g.arcs, g.n)
        assert found.order() == len(brute), g
        for images in brute:
            assert found.contains(Permutation(images)), (g, images)

    group_corpus = [
        PermGroup([parse_cycles("(0 1)", 4), parse_cycles("(0 1 2 3)", 4)]),
        PermGroup([parse_cycles("(0 1 2 3 4)", 5), parse_cycles("(0 1 2)", 5)]),
        PermGroup([parse_cycles("(0 1)", 7), parse_cycles("(0 1 2 3 4 5 6)", 7)]),
        PermGroup([parse_cycles("(0 1 2 3 4 5 6)", 7), parse_cycles("(1 2 4)(3 6 5)", 7)]),
        PermGroup([parse_cycles("(0 1 2 3 4 5 6 7)", 8), parse_cycles("(1 3)(2 6)(5 7)", 8)]),
    ]
    group_corpus += [automorphism_group(g) for g in graph_corpus[:40]]
    group_corpus += [
        cayley_holomorph_action(spec)
        for n, conn, spec in circulant_specs(range(4, 9), 1, 5)
    ]
    compared = 0
    for group in group_corpus:
        order = group.order()
        if order > 5040:
            continue
        compared += 1
        brute = oracles.brute_closure([p.images for p in group.generators], group.degree)
        assert order == len(brute), group
    assert scanned > 20 and compared > 20
    print(
        f"\nACCEPTANCE 6 (oracle equivalence: {scanned} scans, "
        f"{compared} closures): PASS"
    )


def test_criterion_7_tester_cross_validation():
    """Orbit-based geodesic-transitivity equals the brute single-orbit test
    over explicit group elements, for every instance with |G| <= 10^4."""
    instances = [
        (cayley_digraph(spec), None)
        for n, conn, spec in circulant_specs(range(4, 10), 1, 5)
    ]
    instances += [(paley_tournament(7), None), (paley_tournament(11), None)]
    instances += [(circuit(n), None) for n in (3, 10, 12)]
    validated = 0
    for g, _ in instances:
        group = automorphism_group(g)
        if group.order() > 10_000:
            continue
        validated += 1
        elements = [p.images for p in group.elements()]
        cap = g.max_geodesic_length()
        for s in range(1, min(3, cap) + 1):
            brute = all(
                oracles.brute_single_orbit(elements, g.s_geodesics(i))
                for i in range(1, s + 1)
            )
            assert is_s_geodesic_transitive(g, group, s) == brute, (g, s)
    assert validated > 50
    print(f"\nACCEPTANCE 7 (tester cross-validation, {validated} instances): PASS")


def _brute_geodesic_transitive(elements, g, s):
    cap = min(s, g.max_geodesic_length())
    return cap > 0 and all(
        oracles.brute_single_orbit(elements, g.s_geodesics(i))
        for i in range(1, cap + 1)
    )


def test_proper_subgroup_cross_validation():
    """The testers, the report's orbit counts and its distance-transitivity
    equal the brute orbits over explicit elements for proper subgroups of
    Aut too: the right translations R(T) and the holomorph action, on the
    criterion-7 circulants and Paley 7."""
    specs = [spec for n, conn, spec in circulant_specs(range(4, 10), 1, 5)]
    specs.append(cayley_spec(cyclic_table(7), paley_residues(7)))
    checked = 0
    for spec in specs:
        g = cayley_digraph(spec)
        pairs_at = {}
        for u in range(g.n):
            for v in range(g.n):
                pairs_at.setdefault(oracles.brute_distance(g.arcs, g.n, u, v), []).append((u, v))
        for group in (right_translations(spec.table), cayley_holomorph_action(spec)):
            checked += 1
            elements = [p.images for p in group.elements()]
            for s in (1, 2):
                arcs = g.s_arcs(s)
                assert is_s_arc_transitive(g, group, s) == oracles.brute_single_orbit(
                    elements, arcs
                ), (g, s)
                assert is_s_geodesic_transitive(g, group, s) == _brute_geodesic_transitive(
                    elements, g, s
                ), (g, s)
            distance_transitive = all(
                oracles.brute_single_orbit(elements, family) for family in pairs_at.values()
            )
            assert is_distance_transitive(g, group) == distance_transitive, g
            report = transitivity_report(g, group)
            assert report.distance_transitive == distance_transitive, g
            for key, count in report.orbit_counts.items():
                level, _, kind = key.partition("-")
                if key == "vertices":
                    family = [(v,) for v in range(g.n)]
                elif kind == "arcs":
                    family = g.s_arcs(int(level))
                else:
                    family = g.s_geodesics(int(level))
                assert count == len(oracles.orbits_of_tuples(elements, family)), (g, key)
    assert checked == 2 * len(specs)
    print(f"\nPROPER SUBGROUPS (R(T) and holomorph, {checked} pairs): PASS")


def criterion_8_groups():
    return {
        "C4": PermGroup([parse_cycles("(0 1 2 3)", 4)]),
        "C5": PermGroup([parse_cycles("(0 1 2 3 4)", 5)]),
        "C6": PermGroup([parse_cycles("(0 1 2 3 4 5)", 6)]),
        "C7": PermGroup([parse_cycles("(0 1 2 3 4 5 6)", 7)]),
        "C12": PermGroup([parse_cycles("(0 1 2 3 4 5 6 7 8 9 10 11)", 12)]),
        "V4": PermGroup([parse_cycles("(0 1)(2 3)", 4), parse_cycles("(0 2)(1 3)", 4)]),
        "S3": PermGroup([parse_cycles("(0 1 2)", 3), parse_cycles("(0 1)", 3)]),
        "S4": PermGroup([parse_cycles("(0 1 2 3)", 4), parse_cycles("(0 1)", 4)]),
        "A4": PermGroup([parse_cycles("(0 1 2)", 4), parse_cycles("(0 1)(2 3)", 4)]),
        "D4": PermGroup([parse_cycles("(0 1 2 3)", 4), parse_cycles("(1 3)", 4)]),
        "D6": PermGroup([parse_cycles("(0 1 2 3 4 5)", 6), parse_cycles("(1 5)(2 4)", 6)]),
        "F20": PermGroup([parse_cycles("(0 1 2 3 4)", 5), parse_cycles("(1 2 4 3)", 5)]),
        "F21": PermGroup([parse_cycles("(0 1 2 3 4 5 6)", 7), parse_cycles("(1 2 4)(3 6 5)", 7)]),
        "C2xC4": PermGroup(
            [parse_cycles("(0 1 2 3)(4 5 6 7)", 8), parse_cycles("(0 4)(1 5)(2 6)(3 7)", 8)]
        ),
        "C4wrC2-part": PermGroup(
            [parse_cycles("(0 1 2 3)", 8), parse_cycles("(4 5 6 7)", 8), parse_cycles("(0 4)(1 5)(2 6)(3 7)", 8)]
        ),
    }


def test_criterion_8_quasiprimitivity_against_full_lattice():
    """Quasiprimitivity predicates agree with the full normal-subgroup
    lattice, enumerated independently, for transitive groups of order <= 48."""
    agreed = 0
    for name, group in criterion_8_groups().items():
        assert group.order() <= 48, name
        if not group.is_transitive():
            continue
        agreed += 1
        degree = group.degree
        lattice = oracles.brute_normal_subgroups(
            [p.images for p in group.generators], degree
        )
        identity = frozenset({tuple(range(degree))})
        nontrivial = [n for n in lattice if n != identity]
        partitions = [
            frozenset(oracles.brute_orbit_partition(list(n), degree)) for n in nontrivial
        ]
        orbit_counts = [len(p) for p in partitions]
        oracle_quasi = all(c == 1 for c in orbit_counts)
        oracle_biquasi = all(c <= 2 for c in orbit_counts) and any(
            c == 2 for c in orbit_counts
        )
        assert group.is_quasiprimitive() == oracle_quasi, name
        assert group.is_biquasiprimitive() == oracle_biquasi, name
        # The kernels' orbit partitions are exactly those of the intransitive
        # nontrivial normal subgroups.
        kernel_partitions = [
            frozenset(frozenset(o) for o in k.orbit_partition())
            for k in group.intransitive_normal_kernels()
        ]
        assert len(set(kernel_partitions)) == len(kernel_partitions), name
        assert set(kernel_partitions) == {p for p in partitions if len(p) > 1}, name
    assert agreed >= 14
    print(f"\nACCEPTANCE 8 (quasiprimitivity vs full lattice, {agreed} groups): PASS")


def test_block_systems_against_all_partitions():
    """Block systems of the criterion-8 groups of degree <= 8 equal the
    invariant partitions found by scanning every set partition."""
    compared = 0
    for name, group in criterion_8_groups().items():
        if group.degree > 8 or not group.is_transitive():
            continue
        compared += 1
        brute = oracles.brute_block_systems(
            [p.images for p in group.generators], group.degree
        )
        assert group.block_systems() == brute, name
    assert compared == 14
    print(f"\nBLOCK SYSTEMS (vs all set partitions, {compared} groups): PASS")


def test_theorem_consistency_full_default_corpus():
    """Every selected check reports zero failures over the default corpus."""
    config = verify.default_config()
    config = verify.SurveyConfig(**{**config.to_dict(), "parallelism": 4})
    report = verify.run_survey(config)
    counts = report.counts()
    assert counts["fail"] == 0, report.failures()
    assert counts["incomplete"] == 0, "bounded heuristics were cut short"
    assert counts["pass"] > 2000
    # The exact tally: a change to how checks are computed keeps every verdict.
    assert len(report.records) == 31065
    assert counts == {"pass": 2686, "fail": 0, "not_applicable": 28379, "incomplete": 0}
    passes = Counter(r["check"] for r in report.records if r["status"] == PASS)
    assert passes == {
        "report": 2071, "SC": 93, "L2.1.1": 93, "L2.1.2": 93, "L4.1": 93, "T1.4i": 92,
        "L3.1": 82, "T1.1": 42, "L3.2": 16, "L4.5": 8, "L4.7": 3,
    }
    # Every record, byte for byte; the same digest serially and at parallelism 2.
    digest = hashlib.sha256(json.dumps(report.records, sort_keys=True).encode()).hexdigest()
    assert digest == "dc92e0173bbc7a352201baa0eaaf566ae1984af00b9a64952bd638c13dbbfa09"
    summary = report.summary_text().splitlines()
    assert sum(line.startswith("n/a ") for line in summary) == 23
    assert "never exercised: L4.4, P3.4, T1.2, T1.4ii" in summary
    print(
        f"\nTHEOREM CONSISTENCY (default corpus, {counts['pass']} passing "
        f"records, 0 failures): PASS"
    )


def test_theorem_consistency_circuits():
    """The circuits Cay(Z_n, {s}), 3 <= n <= 14, exercise T1.2, P3.4 and
    T1.4ii, which the default corpus never does; every check reports zero
    failures."""
    config = verify.SurveyConfig(circulant_orders=tuple(range(3, 15)), min_valency=1, max_valency=1)
    report = verify.run_survey(config)
    counts = report.counts()
    assert counts["fail"] == 0, report.failures()
    assert len({r["instance"] for r in report.records}) == 62
    assert counts == {"pass": 424, "fail": 0, "not_applicable": 506, "incomplete": 0}
    passes = Counter(r["check"] for r in report.records if r["status"] == PASS)
    assert passes == {
        "report": 62, "SC": 62, "L2.1.2": 62, "T1.2": 62, "T1.4i": 62, "P3.4": 36,
        "L3.1": 28, "T1.1": 26, "L3.2": 22, "T1.4ii": 2,
    }
    # T1.4ii passes on the two labellings of the directed 3-cycle only.
    assert [r["instance"] for r in report.records
            if r["check"] == "T1.4ii" and r["status"] == PASS] == [
        "circulant:n=3:S=1", "circulant:n=3:S=2",
    ]
    summary = report.summary_text().splitlines()
    assert "never exercised: L2.1.1, L4.1, L4.4, L4.5, L4.7" in summary
    print(f"\nTHEOREM CONSISTENCY (circuits, {counts['pass']} passing records, 0 failures): PASS")


def burnside_cross_check(descriptors, group_of):
    """Check instances against the Burnside oracle under ``group_of(g, spec)``.

    For each instance, ``InstanceFacts.count`` must equal the oracle for both
    kinds at every level 1 <= s <= diameter, and ``distance_transitive`` must
    hold exactly when every distance has one pair orbit.  The oracle's
    elements come from ``brute_closure`` of the group's generators, not from
    the stabilizer chain.  Returns (instances, largest |G|).
    """
    largest = 0
    for descriptor in descriptors:
        label, g, spec = verify.build_instance(descriptor)
        group = group_of(g, spec)
        elements = oracles.brute_closure([p.images for p in group.generators], g.n)
        largest = max(largest, len(elements))
        diameter = g.diameter()
        expected = oracles.burnside_counts(sorted(g.arcs), g.n, elements, diameter)
        facts = InstanceFacts(g, group)
        for kind in (S_ARC, S_GEODESIC):
            for s in range(1, diameter + 1):
                assert facts.count(kind, s) == expected[kind, s], (label, kind, s)
        one_pair_orbit = all(expected["pairs", d] == 1 for d in range(diameter + 1))
        assert facts.distance_transitive() == one_pair_orbit, label
    return len(descriptors), largest


def _aut(g, spec):
    return automorphism_group(g)


def _translations(g, spec):
    return right_translations(spec.table)


def _holomorph(g, spec):
    return cayley_holomorph_action(spec)


DEFAULT_DESCRIPTORS = verify.generate_descriptors(verify.default_config())


def test_burnside_counts_full_default_corpus():
    """Every orbit count of the default corpus equals Burnside's count."""
    assert burnside_cross_check(DEFAULT_DESCRIPTORS, _aut) == (2071, 41472)


# The right translations R(T) and the holomorph action R(T):Aut(T, S), on
# generators other than the search's.  They are proper subgroups of Aut on
# 235 and 122 of the 2071 default instances, where their orbits are not Aut's.
@pytest.mark.parametrize(
    "group_of, largest", [(_translations, 14), (_holomorph, 72)], ids=["R(T)", "holomorph"]
)
def test_burnside_counts_subgroups_every_4th_default_instance(group_of, largest):
    assert burnside_cross_check(DEFAULT_DESCRIPTORS[::4], group_of) == (518, largest)


@pytest.mark.slow
@pytest.mark.parametrize(
    "group_of, largest", [(_translations, 19), (_holomorph, 171)], ids=["R(T)", "holomorph"]
)
def test_burnside_counts_subgroups_full_default_corpus(group_of, largest):
    assert burnside_cross_check(DEFAULT_DESCRIPTORS, group_of) == (2071, largest)


@pytest.mark.slow
def test_burnside_counts_analyze_n20_corpus():
    """The same over the benchmark's analyze_n20 corpus: circulants
    15 <= n <= 20 with |S| = 2 and Paley tournaments 23 to 47, whose
    diameters reach 10."""
    config = verify.SurveyConfig(
        circulant_orders=tuple(range(15, 21)),
        paley_primes=(23, 31, 43, 47),
        min_valency=2,
        max_valency=2,
        max_vertices=20,
    )
    assert burnside_cross_check(verify.generate_descriptors(config), _aut) == (616, 10240)
