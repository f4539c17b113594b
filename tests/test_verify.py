"""Tests for the statement checks and the survey driver."""

import os
import subprocess
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations_with_replacement

import pytest

import oracles
from digsym import groups, symmetry, verify
from digsym.construct import (
    QuotientResult,
    cayley_digraph,
    cayley_holomorph_action,
    cayley_spec,
    circuit,
    complete,
    cyclic_table,
    paley_tournament,
    right_translations,
)
from digsym.digraph import S_ARC, S_GEODESIC, Digraph, build
from digsym.errors import (
    BadParameter,
    BoundExceeded,
    DegreeMismatch,
    NotAutomorphismGroup,
    SearchBudgetExceeded,
)
from digsym.groups import PermGroup
from digsym.perm import Permutation, parse_cycles
from digsym.symmetry import automorphism_group
from digsym.verify import (
    FAIL,
    NOT_APPLICABLE,
    PASS,
    CheckResult,
    InstanceFacts,
    SurveyConfig,
    check_arc_local_constraints,
    check_hadamard_design,
    check_no_arc_in_orbit,
    check_quotient_theorem,
    check_regular_normal,
    check_small_valency,
    check_soluble_base,
    check_two_orbit_normal,
    hadamard_design_parameters,
    run_survey,
)


def rotation(n, step):
    perm = [(i + step) % n for i in range(n)]
    return PermGroup([Permutation(perm)])


def aut_facts(g):
    return InstanceFacts(g, automorphism_group(g))


def by_id(results, check_id):
    return next(r for r in results if r.check_id == check_id)


class TestInstanceFacts:
    def test_rejects_a_non_automorphism(self):
        reflection = PermGroup([Permutation([0, 4, 3, 2, 1])])
        with pytest.raises(NotAutomorphismGroup):
            InstanceFacts(circuit(5), reflection)

    def test_checks_read_the_reduced_group_and_its_chain(self, monkeypatch):
        # Aut(Cay(Z12, {1, 4, 7, 10})) comes from the search on the plain
        # copy on 19 generators; the facts keep 4, and reducing them built the
        # chain that the order, the kernels and the normality tests then read.
        g = cayley_digraph(cayley_spec(cyclic_table(12), [1, 4, 7, 10]))
        facts = InstanceFacts(g, automorphism_group(build(g.n, g.arcs)))
        assert len(facts.group.generators) == 4
        chains = []
        chain_init = groups._Chain.__init__

        def counting_init(self, *args, **kwargs):
            chains.append(self)
            chain_init(self, *args, **kwargs)

        monkeypatch.setattr(groups._Chain, "__init__", counting_init)
        assert facts.group.order() == 41472
        assert chains == []

    def test_reducing_reads_the_group_chain(self, monkeypatch):
        # Once Aut's order is known, its chain exists: the facts' reduced
        # group shares it, so neither reducing nor its order builds a chain.
        g = cayley_digraph(cayley_spec(cyclic_table(12), [1, 4, 7, 10]))
        aut = automorphism_group(g)
        assert aut.order() == 41472
        chains = []
        chain_init = groups._Chain.__init__

        def counting_init(self, *args, **kwargs):
            chains.append(self)
            chain_init(self, *args, **kwargs)

        monkeypatch.setattr(groups._Chain, "__init__", counting_init)
        facts = InstanceFacts(g, aut)
        assert facts.group.order() == 41472
        assert chains == []
        assert aut.reduced()._chain is aut.chain

    def test_each_tuple_family_enumerated_once_per_instance(self, monkeypatch):
        # Without a Cayley spec T1.2 builds no holomorph facts, so every
        # s-arc and s-geodesic family of g is counted by the one facts object.
        g = cayley_digraph(cayley_spec(cyclic_table(12), [1, 4, 7, 10]))
        group = automorphism_group(g)
        enumerated = Counter()

        def counting(method, kind):
            def wrapper(self, s):
                if self is g:
                    enumerated[kind, s] += 1
                return method(self, s)

            return wrapper

        monkeypatch.setattr(Digraph, "s_arcs", counting(Digraph.s_arcs, S_ARC))
        monkeypatch.setattr(Digraph, "s_geodesics", counting(Digraph.s_geodesics, S_GEODESIC))
        results = verify.run_checks_on_instance(g, group, verify.CHECK_IDS)
        # Every 2-arc of this digraph is a 2-geodesic, so the 2-geodesic
        # family is the 2-arc family and is not enumerated a second time.
        assert (S_ARC, 2) in enumerated and (S_ARC, 1) in enumerated
        assert (S_GEODESIC, 2) not in enumerated
        assert max(enumerated.values()) == 1, enumerated
        assert by_id(results, "T1.4i").notes == "both True"
        assert by_id(results, "T1.1").status == PASS


# Weakly connected digraphs on 3-5 vertices; some pairs of equal order and
# arc count are not isomorphic (the directed 3-cycle and the transitive
# triangle, C4 and the 4-vertex path closed the wrong way, ...).
SMALL_CONNECTED = [
    build(3, [(0, 1), (1, 2), (2, 0)]),
    build(3, [(0, 1), (1, 2), (0, 2)]),
    build(3, [(0, 1), (1, 2)]),
    build(3, [(0, 1), (0, 2)]),
    build(3, [(1, 0), (2, 0)]),
    build(3, [(2, 1), (1, 0)]),
    build(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    build(4, [(0, 2), (2, 1), (1, 3), (3, 0)]),
    build(4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    build(4, [(0, 1), (0, 2), (0, 3)]),
    build(4, [(0, 1), (1, 2), (2, 3)]),
    build(4, [(0, 1), (1, 2), (1, 3)]),
    build(4, [(0, 1), (1, 2), (2, 0), (2, 3)]),
    build(4, [(0, 1), (1, 2), (2, 0), (3, 2)]),
    build(4, [(3, 0), (0, 1), (1, 3), (2, 1)]),
    circuit(5),
    cayley_digraph(cayley_spec(cyclic_table(5), [1, 2])),
    cayley_digraph(cayley_spec(cyclic_table(5), [1, 3])),
    build(5, [(i, (i + d) % 5) for i in range(5) for d in (1, 4)]),
]


def test_connected_isomorphic_against_brute_force():
    outcomes = []
    for a, b in combinations_with_replacement(SMALL_CONNECTED, 2):
        if a.n != b.n:
            continue
        expected = oracles.brute_isomorphic(a.arcs, b.arcs, a.n)
        assert verify._connected_isomorphic(a, b) == expected, (a.arcs, b.arcs)
        if len(a.arcs) == len(b.arcs) and a is not b:
            outcomes.append(expected)
    assert True in outcomes and False in outcomes


class TestArcLocalConstraints:
    def test_paley(self):
        g = paley_tournament(7)
        results = check_arc_local_constraints(aut_facts(g))
        assert by_id(results, "SC").status == PASS
        assert by_id(results, "L2.1.1").status == PASS
        assert by_id(results, "L2.1.2").status == PASS
        assert by_id(results, "L4.1").status == PASS
        assert by_id(results, "L4.5").status == NOT_APPLICABLE

    def test_paley_common_count(self):
        # valency 3 with common out-neighborhood size 1 != r-1 = 2
        g = paley_tournament(7)
        for u, v in g.arcs:
            assert len(g.out_neighbors(u) & g.out_neighbors(v)) == 1

    def test_circuit_valency_one(self):
        # Common out-neighborhoods are empty and every 2-arc is a 2-geodesic.
        g = circuit(6)
        results = check_arc_local_constraints(aut_facts(g))
        assert by_id(results, "L2.1.2").status == PASS
        assert by_id(results, "L2.1.1").status == NOT_APPLICABLE

    def test_undirected_not_applicable(self):
        results = verify.run_check(aut_facts(complete(4)), "L2.1")
        assert [r.check_id for r in results] == list(verify.ARC_LOCAL_IDS)
        assert all(r.status == NOT_APPLICABLE for r in results)
        assert {r.notes for r in results} == {"not a directed-class digraph"}

    def test_non_arc_transitive_not_applicable(self):
        g = circuit(6)
        rot2 = rotation(6, 2)
        results = check_arc_local_constraints(InstanceFacts(g, rot2))
        assert all(r.status == NOT_APPLICABLE for r in results)


class TestSmallValency:
    def test_circuit_c5_trivially_both_true(self):
        g = circuit(5)
        result = check_small_valency(aut_facts(g))
        assert result.status == PASS
        assert "True" in result.notes

    def test_paley_pass(self):
        g = paley_tournament(7)
        result = check_small_valency(aut_facts(g))
        assert result.status == PASS
        assert "False" in result.notes

    def test_valency_three_circulant(self):
        # Only the 11 rotations survive ({1,3,9} is not multiplier-closed),
        # so the arc-transitivity hypothesis fails and the check steps aside;
        # the equivalence itself (both False) is swept by the acceptance run.
        spec = cayley_spec(cyclic_table(11), [1, 3, 9])
        g = cayley_digraph(spec)
        result = check_small_valency(aut_facts(g))
        assert result.status == NOT_APPLICABLE

    def test_two_arc_transitive_blowup(self):
        # arcs i -> j iff j - i = 1 (mod 3): both testers agree at True
        spec = cayley_spec(cyclic_table(12), [1, 4, 7, 10])
        g = cayley_digraph(spec)
        result = check_small_valency(aut_facts(g))
        assert result.status == PASS
        assert "True" in result.notes

    def test_paley_19_excluded_by_valency(self):
        g = paley_tournament(19)
        assert check_small_valency(aut_facts(g)).status == NOT_APPLICABLE

    def test_consistent_with_transitivity_report(self):
        # A passing instance shows the same 2-level booleans in its report.
        from digsym.symmetry import transitivity_report

        for g in (paley_tournament(7), cayley_digraph(cayley_spec(cyclic_table(12), (1, 4, 7, 10)))):
            group = automorphism_group(g)
            result = check_small_valency(InstanceFacts(g, group))
            assert result.status == PASS
            report = transitivity_report(g, group)
            two_at = report.max_arc_s >= 2
            two_gt = report.max_geodesic_s >= 2
            assert two_at == two_gt
            assert f"both {two_gt}" == result.notes


class TestNoArcInOrbit:
    def test_c6_three_orbits(self):
        g = circuit(6)
        group = automorphism_group(g)
        normal = PermGroup([parse_cycles("(0 3)(1 4)(2 5)", 6)])
        assert check_no_arc_in_orbit(InstanceFacts(g, group), normal).status == PASS

    def test_transitive_normal_not_applicable(self):
        g = circuit(6)
        group = automorphism_group(g)
        assert check_no_arc_in_orbit(InstanceFacts(g, group), group).status == NOT_APPLICABLE

    def test_trivial_normal_not_applicable(self):
        g = circuit(6)
        group = automorphism_group(g)
        trivial = PermGroup((), degree=6)
        assert check_no_arc_in_orbit(InstanceFacts(g, group), trivial).status == NOT_APPLICABLE


class TestTwoOrbitNormal:
    def test_c6_two_orbits(self):
        g = circuit(6)
        group = automorphism_group(g)
        normal = PermGroup([parse_cycles("(0 2 4)(1 3 5)", 6)])
        assert check_two_orbit_normal(InstanceFacts(g, group), normal).status == PASS

    def test_three_orbit_normal_not_applicable(self):
        g = circuit(6)
        group = automorphism_group(g)
        normal = PermGroup([parse_cycles("(0 3)(1 4)(2 5)", 6)])
        assert check_two_orbit_normal(InstanceFacts(g, group), normal).status == NOT_APPLICABLE


class TestQuotientTheorem:
    def test_c12_mod_rot4(self):
        g = circuit(12)
        group = automorphism_group(g)
        normal = PermGroup([parse_cycles("(0 4 8)(1 5 9)(2 6 10)(3 7 11)", 12)])
        result = check_quotient_theorem(InstanceFacts(g, group), normal)
        assert result.status == PASS
        assert "s'=3" in result.notes

    def test_c6_mod_rot3(self):
        g = circuit(6)
        group = automorphism_group(g)
        normal = PermGroup([parse_cycles("(0 3)(1 4)(2 5)", 6)])
        result = check_quotient_theorem(InstanceFacts(g, group), normal)
        assert result.status == PASS
        assert "quasiprimitive" in result.notes

    def test_two_orbit_normal_routed_away(self):
        g = circuit(6)
        group = automorphism_group(g)
        normal = PermGroup([parse_cycles("(0 2 4)(1 3 5)", 6)])
        assert check_quotient_theorem(InstanceFacts(g, group), normal).status == NOT_APPLICABLE

    def test_auto_selection(self):
        g = circuit(6)
        result = check_quotient_theorem(aut_facts(g))
        assert result.status == PASS

    @pytest.mark.parametrize(
        "quotient, image_cycles, reasons, complete_note",
        [
            (complete(3), ["(0 1 2)", "(0 1)"], [], True),
            (complete(3), ["(0 1 2)"],
             ["induced action not arc-transitive on complete quotient"], True),
            (oracles.symmetric_closure(circuit(4)), ["(0 1 2 3)", "(1 3)"],
             ["quotient neither directed nor complete undirected"], False),
            (build(5, [(u, (u + d) % 5) for u in range(5) for d in (1, 2, 3)]),
             ["(0 1 2 3 4)"],
             ["quotient neither directed nor complete undirected"], False),
        ],
    )
    def test_undirected_and_mixed_quotients(
        self, monkeypatch, quotient, image_cycles, reasons, complete_note
    ):
        # No corpus instance reaches these branches (the theorem rules out
        # all but the first), so substitute each quotient for that of C6 by
        # its rotation of order 2; the check reads only the quotient, the
        # image group and the internal-arc flag.
        image = PermGroup([parse_cycles(c, quotient.n) for c in image_cycles], quotient.n)
        fake = QuotientResult(quotient, (), image, False)
        monkeypatch.setattr(verify.construct, "quotient_digraph", lambda *a, **k: fake)
        g = circuit(6)
        normal = PermGroup([parse_cycles("(0 3)(1 4)(2 5)", 6)])
        result = check_quotient_theorem(InstanceFacts(g, automorphism_group(g)), normal)
        failures = (result.witness or {}).get("failures", [])
        assert [f["reason"] for f in failures] == reasons
        assert result.status == (FAIL if reasons else PASS)
        assert ("quotient is complete undirected" in result.notes) == complete_note

    def test_not_geodesic_transitive_not_applicable(self):
        g = paley_tournament(7)
        assert check_quotient_theorem(aut_facts(g)).status == NOT_APPLICABLE

    def test_corollary_without_two_arc_transitivity(self, monkeypatch):
        # No corpus instance is 2-geodesic- but not 2-arc-transitive, so
        # report C6 as not 2-arc-transitive.  Aut(C6) = Z6 has two maximal
        # intransitive normal subgroups: Z3 with 2 orbits, and Z2, whose 3
        # orbits carry the quasiprimitive action of Z3.
        facts = aut_facts(circuit(6))
        arc_transitive = facts.s_arc_transitive
        monkeypatch.setattr(facts, "s_arc_transitive", lambda s: s != 2 and arc_transitive(s))
        result = check_quotient_theorem(facts)
        assert result.status == FAIL
        assert result.witness == {"failures": [
            {"normal_order": 3,
             "reason": "corollary: maximal intransitive subgroup has only 2 orbits"},
        ]}
        assert result.notes.endswith("; corollary: quasiprimitive")


class TestRegularNormal:
    def test_c5_with_translations(self):
        spec = cayley_spec(cyclic_table(5), [1])
        g = cayley_digraph(spec)
        action = cayley_holomorph_action(spec)
        translations = right_translations(spec.table)
        assert check_regular_normal(InstanceFacts(g, action), translations).status == PASS

    def test_non_regular_not_applicable(self):
        g = circuit(6)
        group = automorphism_group(g)
        rot3 = PermGroup([parse_cycles("(0 3)(1 4)(2 5)", 6)])
        assert check_regular_normal(InstanceFacts(g, group), rot3).status == NOT_APPLICABLE

    def test_named_sources_on_cayley_circuit(self):
        # Aut(C5) is regular and equals R(Z5), which is normal both in Aut
        # and in the holomorph action: all three sources apply.
        spec = cayley_spec(cyclic_table(5), [1])
        g = cayley_digraph(spec)
        [result] = verify.run_checks_on_instance(g, automorphism_group(g), ["T1.2"], cayley=spec)
        assert result.status == PASS
        assert result.notes == "normal subgroups=3"

    def test_named_sources_on_cayley_circuit_of_order_65(self):
        # Aut(Z65) has 48 elements, each a candidate image of the generator
        # 1: the holomorph is built and no order bound stops T1.2.
        spec = cayley_spec(cyclic_table(65), [1])
        g = cayley_digraph(spec)
        [result] = verify.run_checks_on_instance(g, automorphism_group(g), ["T1.2"], cayley=spec)
        assert result == CheckResult("T1.2", PASS, notes="normal subgroups=3")

    def test_paley_not_geodesic_transitive(self):
        spec = cayley_spec(cyclic_table(7), [1, 2, 4])
        g = cayley_digraph(spec)
        action = cayley_holomorph_action(spec)
        translations = right_translations(spec.table)
        result = check_regular_normal(InstanceFacts(g, action), translations)
        assert result.status == NOT_APPLICABLE


class TestSolubleBase:
    def test_c5(self):
        g = circuit(5)
        assert check_soluble_base(aut_facts(g)).status == PASS

    def test_c4(self):
        g = circuit(4)
        assert check_soluble_base(aut_facts(g)).status == PASS

    def test_c6_not_applicable(self):
        # Z_6 regular is neither quasiprimitive nor bi-quasiprimitive.
        g = circuit(6)
        assert check_soluble_base(aut_facts(g)).status == NOT_APPLICABLE

    def test_non_soluble_not_applicable(self):
        # Blowup with arcs i -> j iff j - i = 1 (mod 3): the automorphism
        # group wreathes the symmetric group on 5 into a triangle and is
        # not soluble, so the check bails before the conclusion.
        spec = cayley_spec(cyclic_table(15), [1, 4, 7, 10, 13])
        g = cayley_digraph(spec)
        result = check_soluble_base(aut_facts(g))
        assert result.status == NOT_APPLICABLE
        assert "not soluble" in result.notes

    def test_undirected_not_applicable(self):
        g = complete(5)
        result = check_soluble_base(aut_facts(g))
        assert result.status == NOT_APPLICABLE


class TestHadamardDesign:
    def test_c3_degenerate(self):
        g = circuit(3)
        result = check_hadamard_design(aut_facts(g))
        assert result.status == PASS
        assert "degenerate" in result.notes

    def test_reads_distance_transitivity_without_the_report(self):
        # The check needs one fact, so it counts no arc or geodesic level.
        facts = aut_facts(circuit(3))
        [result] = verify.run_check(facts, "T1.4ii")
        assert result.status == PASS
        assert "report" not in vars(facts)

    def test_paley_not_applicable_but_design_holds(self):
        g = paley_tournament(7)
        assert check_hadamard_design(aut_facts(g)).status == NOT_APPLICABLE
        assert hadamard_design_parameters(g) == (7, 3, 1)

    def test_large_diameter_not_applicable(self):
        g = circuit(6)
        assert check_hadamard_design(aut_facts(g)).status == NOT_APPLICABLE

    def test_parameters_against_pair_counts(self):
        for q in (7, 11, 19):
            g = paley_tournament(q)
            n, k, lam = hadamard_design_parameters(g)
            assert (n, k) == (q, (q - 1) // 2)
            for x in range(q):
                for y in range(x + 1, q):
                    assert oracles.pair_block_count(g.arcs, q, x, y) == lam

    def test_irregular_returns_none(self):
        g = build(3, [(0, 1), (0, 2)])
        assert hadamard_design_parameters(g) is None


DOOMED = ("circulant", 7, (1, 2))
_survey_worker = verify._survey_worker


def _dying_worker(args):
    """The survey worker, but its process exits at once on DOOMED."""
    if args[0] == DOOMED:
        os._exit(3)
    return _survey_worker(args)


class TestSurvey:
    def small_config(self, **overrides):
        base = dict(
            circulant_orders=(4, 5, 6, 7),
            paley_primes=(7,),
            min_valency=2,
            max_valency=5,
            max_vertices=8,
        )
        base.update(overrides)
        return SurveyConfig(**base)

    def test_validation(self):
        with pytest.raises(BadParameter):
            SurveyConfig().validate()
        with pytest.raises(BadParameter):
            self.small_config(min_valency=0).validate()
        with pytest.raises(BadParameter):
            self.small_config(checks=("bogus",)).validate()

    @pytest.mark.parametrize("q", [5, 9, 13])
    def test_paley_entry_must_be_prime_3_mod_4(self, q):
        with pytest.raises(BadParameter, match=f"got {q}$"):
            SurveyConfig.from_dict({"paley_primes": [7, q]})

    def test_zero_failures_on_small_corpus(self):
        report = run_survey(self.small_config())
        assert report.failures() == []
        assert report.counts()[FAIL] == 0

    def test_determinism(self):
        config = self.small_config(checks=("report", "T1.4i", "L2.1"))
        first = run_survey(config).to_json()
        second = run_survey(config).to_json()
        assert first == second

    def test_parallel_output_identical(self):
        serial = run_survey(self.small_config(checks=("report", "T1.4i")))
        parallel_config = self.small_config(checks=("report", "T1.4i"), parallelism=3)
        parallel = run_survey(parallel_config)
        assert serial.records == parallel.records

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_search_budget_gives_incomplete_records(self, monkeypatch, parallelism):
        config = SurveyConfig(
            circulant_orders=(5, 6, 7), min_valency=2, max_valency=2, parallelism=parallelism
        )
        unbudgeted = run_survey(config).records
        monkeypatch.setenv("DIGSYM_SEARCH_BUDGET", "1")
        expected = []
        for descriptor in verify.generate_descriptors(config):
            label, g, _ = verify.build_instance(descriptor)
            try:  # the search the survey runs, from the right translations
                automorphism_group(g)
                expected += [r for r in unbudgeted if r["instance"] == label]
            except SearchBudgetExceeded as exc:
                # The record ids of a complete instance: L2.1 gives its seven.
                assert str(exc) == "automorphism search exceeded 1 nodes"
                expected += [
                    {"instance": label, "check": r["check"], "status": verify.INCOMPLETE,
                     "witness": None, "notes": str(exc)}
                    for r in unbudgeted if r["instance"] == label
                ]
        assert any(r["status"] == verify.INCOMPLETE for r in expected)
        records = run_survey(config).records
        assert records == expected
        assert "L2.1" not in {r["check"] for r in records}

    @pytest.mark.parametrize("parallelism", [1, 2])
    def test_crashing_instance_gives_error_records(self, monkeypatch, parallelism):
        config = SurveyConfig(
            circulant_orders=(5, 7), min_valency=2, max_valency=2, parallelism=parallelism,
            checks=("report", "T1.4i"),
        )
        clean = run_survey(config)
        assert verify.ERROR not in clean.counts()
        assert "error" not in clean.summary_text()
        bad = ("circulant", 6, (1, 5))  # meets its inverses: NotAntisymmetric
        generate = verify.generate_descriptors
        monkeypatch.setattr(verify, "generate_descriptors", lambda c: generate(c) + [bad])
        report = run_survey(config)
        notes = "NotAntisymmetric: connection set meets its inverses: [1, 5]"
        assert report.records == clean.records + [
            {"instance": repr(bad), "check": cid, "status": verify.ERROR,
             "witness": None, "notes": notes}
            for cid in config.checks
        ]
        assert report.counts() == {**clean.counts(), verify.ERROR: 2}
        summary = report.summary_text()
        assert "error" in summary.splitlines()[1]
        assert f"ERROR {bad!r} T1.4i: {notes}" in summary

    def test_dead_worker_gives_error_records(self, monkeypatch):
        # The worker process exits on DOOMED: its pool breaks.  The batches
        # that arrived stay, DOOMED kills a pool it runs in alone and gets one
        # error record per record id, and the rest rerun in a fresh pool.
        # Without a death, the survey maps its one pool in chunks of 8.
        config = SurveyConfig(
            circulant_orders=(5, 6, 7), min_valency=2, max_valency=2, parallelism=2
        )
        maps = []
        pool_map = ProcessPoolExecutor.map

        def recording_map(self, fn, *iterables, chunksize=1):
            maps.append((self._max_workers, chunksize))
            return pool_map(self, fn, *iterables, chunksize=chunksize)

        monkeypatch.setattr(ProcessPoolExecutor, "map", recording_map)
        clean = run_survey(config)
        assert maps == [(2, 8)]
        monkeypatch.setattr(verify, "_survey_worker", _dying_worker)
        maps.clear()
        report = run_survey(config)
        # How many jobs arrive before the death depends on timing, and so
        # does the number of later pools; none has more than 2 workers.
        assert maps[0] == (2, 8) and max(workers for workers, _ in maps) == 2
        errors = [r for r in report.records if r["status"] == verify.ERROR]
        notes = errors[0]["notes"]
        assert notes.startswith("BrokenProcessPool: ")
        label, _, _ = verify.build_instance(DOOMED)
        expected = []
        for record in clean.records:
            if record["instance"] != label:
                expected.append(record)
            else:  # L2.1 gives one error record per arc-local id
                expected.append({"instance": repr(DOOMED), "check": record["check"],
                                 "status": verify.ERROR, "witness": None, "notes": notes})
        assert report.records == expected
        assert f"ERROR {DOOMED!r} report: {notes}" in report.summary_text()

    def test_pooled_records_share_strings(self):
        config = self.small_config(checks=("report", "T1.4i", "L2.1"), parallelism=2)
        records = run_survey(config).records
        for key in ("check", "status", "notes"):
            assert len({id(r[key]) for r in records}) == len({r[key] for r in records}), key

    def test_import_loads_no_process_pool(self):
        # Only a pooled survey needs the process pool; importing the package
        # must not pay for it.
        code = (
            "import sys, digsym; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        ).stdout
        assert out.strip() == "[]"

    def test_circuit_family_reports(self):
        config = SurveyConfig(
            circulant_orders=tuple(range(3, 21)),
            min_valency=1,
            max_valency=1,
            max_vertices=20,
            checks=("report",),
        )
        report = run_survey(config)
        for record in report.records:
            n = int(record["instance"].split(":")[1].split("=")[1])
            assert f"max_geodesic_s={n - 1}" in record["notes"]
            assert record["status"] == PASS

    def test_summary_tallies_not_applicable_notes(self):
        config = SurveyConfig(
            circulant_orders=(5, 7), min_valency=2, max_valency=3,
            checks=("report", "T1.4i", "T1.4ii", "T1.2"),
        )
        lines = run_survey(config).summary_text().splitlines()
        assert lines[2:6] == ["T1.2            0      0     24          0",
                              "T1.4i           2      0     22          0",
                              "T1.4ii          0      0     24          0",
                              "report         24      0      0          0"]
        assert lines[6:] == [
            "n/a T1.2           24  no applicable normal subgroup",
            "n/a T1.4i          22  group is not arc-transitive",
            "n/a T1.4ii         12  needs diameter 2",
            "n/a T1.4ii         12  not 2-geodesic-transitive",
            "never exercised: T1.2, T1.4ii",
        ]

    def test_summary_mentions_failures(self):
        report = run_survey(self.small_config(checks=("T1.4i",)))
        text = report.summary_text()
        assert "T1.4i" in text
        assert "FAIL" not in text

    def test_replay_soundness_no_failures(self):
        # Witnesses only accompany failures; the consistency sweep has none.
        report = run_survey(self.small_config())
        for record in report.records:
            if record["status"] == FAIL:
                assert record["witness"] is not None


class TestRunCheck:
    @pytest.mark.parametrize("check_id", verify.CHECK_IDS)
    def test_directed_class_guard_on_k4(self, check_id):
        results = verify.run_check(aut_facts(complete(4)), check_id)
        assert results and all(r.status == NOT_APPLICABLE for r in results)
        assert {r.notes for r in results} == {"not a directed-class digraph"}

    def test_report_on_a_digraph_that_is_not_strongly_connected(self):
        path = build(3, [(0, 1), (1, 2)])
        [result] = verify.run_check(aut_facts(path), "report")
        assert result == CheckResult("report", NOT_APPLICABLE, notes="not strongly connected")

    @pytest.mark.parametrize("check_id", verify.SUBGROUP_CHECK_IDS)
    def test_guard_applies_to_a_given_subgroup(self, check_id):
        # (0 1 2 3) is not even normal in Aut(K4) = S4: the guard comes first.
        normal = PermGroup([parse_cycles("(0 1 2 3)", 4)])
        [result] = verify.run_check(aut_facts(complete(4)), check_id, normal=normal)
        assert result.status == NOT_APPLICABLE
        assert result.notes == "not a directed-class digraph"

    @pytest.mark.parametrize("cycles", ["(0 1 2 3)", "(0 1)(2 3)"])
    @pytest.mark.parametrize("check_id", verify.SUBGROUP_CHECK_IDS)
    def test_given_subgroup_of_another_degree_rejected(self, check_id, cycles):
        # Rejected before any hypothesis, which could otherwise read a
        # subgroup on the wrong points as merely inapplicable.
        normal = PermGroup([parse_cycles(cycles, 4)])
        with pytest.raises(DegreeMismatch, match="degree 4 != 3"):
            verify.run_check(aut_facts(circuit(3)), check_id, normal=normal)

    def test_given_subgroup_outside_subgroup_checks_rejected(self):
        normal = PermGroup([parse_cycles("(0 3)(1 4)(2 5)", 6)])
        with pytest.raises(BadParameter):
            verify.run_check(aut_facts(circuit(6)), "T1.4i", normal=normal)

    def test_unknown_id_rejected(self):
        with pytest.raises(BadParameter):
            verify.run_check(aut_facts(circuit(5)), "T9.9")

    def test_given_subgroup_with_an_arc_local_id_rejected(self):
        normal = PermGroup([parse_cycles("(0 3)(1 4)(2 5)", 6)])
        with pytest.raises(BadParameter, match="--normal"):
            verify.run_check(aut_facts(circuit(6)), "L4.1", normal=normal)

    def test_arc_local_id_gives_its_record(self):
        facts = aut_facts(paley_tournament(7))
        batch = verify.run_check(facts, "L2.1")
        assert [r.check_id for r in batch] == list(verify.ARC_LOCAL_IDS)
        for record in batch:
            assert verify.run_check(facts, record.check_id) == [record]

    def test_arc_local_id_meets_the_guard(self):
        assert verify.run_check(aut_facts(complete(4)), "L4.1") == [
            CheckResult("L4.1", NOT_APPLICABLE, notes="not a directed-class digraph")
        ]

    @pytest.mark.parametrize("record_id", ["L2.1", "L4.1"])
    def test_incomplete_batch_gives_one_record_per_record_id(self, monkeypatch, record_id):
        def over(facts):
            raise SearchBudgetExceeded("out of budget")

        monkeypatch.setitem(verify._CHECKS, "L2.1", over)
        results = verify.run_check(aut_facts(circuit(5)), record_id)
        ids = verify.ARC_LOCAL_IDS if record_id == "L2.1" else (record_id,)
        assert results == [CheckResult(cid, verify.INCOMPLETE, notes="out of budget") for cid in ids]

    @pytest.mark.parametrize("exc", [SearchBudgetExceeded, BoundExceeded])
    def test_exhausted_budget_or_bound_incomplete(self, monkeypatch, exc):
        def over(facts):
            raise exc("out of budget")

        monkeypatch.setitem(verify._CHECKS, "T1.4i", over)
        [result] = verify.run_check(aut_facts(circuit(5)), "T1.4i")
        assert result == CheckResult("T1.4i", verify.INCOMPLETE, notes="out of budget")

    def test_instance_checks_consume_ids_one_at_a_time(self, monkeypatch):
        events = []

        def ids():
            for check_id in ("T1.4i", "P3.4"):
                events.append(f"next {check_id}")
                yield check_id

        for check_id in ("T1.4i", "P3.4"):
            check = verify._CHECKS[check_id]

            def logged(facts, check=check, check_id=check_id):
                events.append(f"run {check_id}")
                return check(facts)

            monkeypatch.setitem(verify._CHECKS, check_id, logged)
        g = circuit(5)
        results = verify.run_checks_on_instance(g, automorphism_group(g), ids())
        assert [r.status for r in results] == [PASS, PASS]
        assert events == ["next T1.4i", "run T1.4i", "next P3.4", "run P3.4"]


class TestCheckResultShape:
    def test_to_dict(self):
        result = CheckResult("L4.1", FAIL, witness={"arc": [0, 1]}, notes="x")
        data = result.to_dict()
        assert data == {
            "check": "L4.1",
            "status": "fail",
            "witness": {"arc": [0, 1]},
            "notes": "x",
        }

    def test_merge_results(self):
        merged = verify._merge_results(
            "L3.1",
            [
                CheckResult("L3.1", NOT_APPLICABLE),
                CheckResult("L3.1", PASS),
            ],
        )
        assert merged.status == PASS
        merged = verify._merge_results(
            "L3.1",
            [CheckResult("L3.1", FAIL, witness={"arc": [0, 1]})],
        )
        assert merged.status == FAIL and merged.witness == {"arc": [0, 1]}
        merged = verify._merge_results("L3.1", [CheckResult("L3.1", NOT_APPLICABLE)])
        assert merged.status == NOT_APPLICABLE
        merged = verify._merge_results("L3.1", [])
        assert merged.status == NOT_APPLICABLE
        merged = verify._merge_results(
            "L3.1", [CheckResult("L3.1", PASS), CheckResult("L3.1", PASS)]
        )
        assert merged.status == PASS and merged.notes == "normal subgroups=2"
