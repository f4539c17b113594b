"""Executable checks over digraph/group instances, plus catalog surveys.

Every check reads one ``symmetry.InstanceFacts`` object, which validates
the group as a group of automorphisms once per instance, keeps it on its
reduced generators and computes every transitivity fact from there, so each
tuple family is counted at most once per instance and the group-theoretic
tests share one stabilizer chain.  ``run_check`` is the one dispatch from a
record id to its records: ``resolve_check_id`` names the check that gives
it (L2.1 gives the arc-local ids), a given normal subgroup, of the digraph's
degree, goes only to ``SUBGROUP_CHECK_IDS``, the directed-class hypothesis
is tested once, and an exhausted budget gives ``incomplete``;
``run_checks_on_instance`` runs it over a list of ids.  Each check
evaluates its own hypothesis before its conclusion: inapplicable
instances come back ``not_applicable`` instead of vacuously
passing and failures carry a replayable witness; in a survey, an instance
that raises any other exception, or whose pool worker dies, gives
``error`` records instead of aborting it.
Checks that quantify over intransitive normal subgroups take them from the
group's block-system kernels (``PermGroup.intransitive_normal_kernels``),
one per orbit partition, which is exhaustive; they test their own
hypotheses first, which make the group transitive.
"""

from __future__ import annotations

import json
from collections import namedtuple
from functools import lru_cache
from itertools import combinations, product

from . import construct, symmetry
from .digraph import DIRECTED, UNDIRECTED, Digraph, build
from .errors import BadParameter, BoundExceeded, DegreeMismatch, SearchBudgetExceeded
from .groups import PermGroup
from .symmetry import InstanceFacts

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "not_applicable"
INCOMPLETE = "incomplete"
ERROR = "error"

ARC_LOCAL_IDS = ("SC", "L2.1.1", "L2.1.2", "L4.1", "L4.4", "L4.5", "L4.7")


class CheckResult(namedtuple("CheckResult", "check_id status witness notes", defaults=(None, ""))):
    """Outcome of one statement check on one instance: its id, its status,
    a witness (None or JSON-ready data) and notes (a string)."""

    __slots__ = ()

    def to_dict(self) -> dict:
        return {
            "check": self.check_id,
            "status": self.status,
            "witness": self.witness,
            "notes": self.notes,
        }


def _na(check_id: str, notes: str = "") -> CheckResult:
    return CheckResult(check_id, NOT_APPLICABLE, notes=notes)


def uniform_results(ids, status: str, notes: str = "") -> list[CheckResult]:
    """One record per record id of ``ids`` (L2.1 gives its seven), all alike."""
    expanded = (ARC_LOCAL_IDS if cid == "L2.1" else (cid,) for cid in ids)
    return [CheckResult(rid, status, notes=notes) for rids in expanded for rid in rids]


# ----------------------------------------------------------------------
# arc-local constraints


def _connected_isomorphic(a: Digraph, b: Digraph) -> bool:
    """Isomorphism test for weakly connected digraphs.

    An automorphism of the disjoint union maps components onto components,
    so a and b are isomorphic iff the orbit of vertex 0 (in a) meets b.
    """
    if a.n != b.n or len(a.arcs) != len(b.arcs):
        return False
    union = build(a.n + b.n, [*a.arcs, *((u + a.n, v + a.n) for u, v in b.arcs)])
    return max(symmetry.automorphism_group(union).orbit(0)) >= a.n


def _arc_with_common(commons: dict, size: int) -> list[int] | None:
    """The first arc whose common out-neighborhood has ``size`` vertices."""
    return next(([u, v] for (u, v), c in commons.items() if len(c) == size), None)


def check_arc_local_constraints(facts: InstanceFacts) -> list[CheckResult]:
    """Local out-neighborhood constraints forced by arc-transitivity."""
    g = facts.g
    valency = g.valency()
    if valency is None or valency < 1 or len(g.weak_components()) != 1:
        return uniform_results(ARC_LOCAL_IDS, NOT_APPLICABLE, "needs a connected regular digraph")
    if not facts.s_arc_transitive(1):
        return uniform_results(ARC_LOCAL_IDS, NOT_APPLICABLE, "group is not arc-transitive")

    # Arc-transitive with connected underlying graph forces strong connectivity.
    if not g.is_strongly_connected():
        return [CheckResult("SC", FAIL, witness={"strongly_connected": False}),
                *uniform_results(ARC_LOCAL_IDS[1:], NOT_APPLICABLE, "not strongly connected")]
    results = [CheckResult("SC", PASS)]

    arcs = sorted(g.arcs)
    commons = {(u, v): g.out_neighbors(u) & g.out_neighbors(v) for u, v in arcs}

    # L2.1.1: no arc (u,v) has out(u) = {v} union (out(u) & out(v)).
    if valency < 2:
        results.append(_na("L2.1.1", "valency below 2"))
    else:
        witness = None
        for u, v in arcs:
            if g.out_neighbors(u) == {v} | commons[(u, v)]:
                witness = {"arc": [u, v]}
                break
        results.append(
            CheckResult("L2.1.1", FAIL if witness else PASS, witness=witness)
        )

    # L2.1.2: empty common out-neighborhoods iff every 2-arc is a 2-geodesic.
    # Well-defined (and trivially true) for circuits, so valency 1 stays in.
    # The witness is the first 2-arc, in lexicographic order, that is not a
    # 2-geodesic; scanning arc by arc leaves the 2-arc family to the orbit counts.
    all_empty = all(not c for c in commons.values())
    rows = g._distance_matrix
    bad_two_arc = next(
        (
            [a, b, c]
            for a, b in arcs
            for c in sorted(g.out_neighbors(b))
            if rows[a][c] != 2
        ),
        None,
    )
    all_geodesic = bad_two_arc is None
    if all_empty == all_geodesic:
        results.append(CheckResult("L2.1.2", PASS))
    else:
        results.append(
            CheckResult(
                "L2.1.2",
                FAIL,
                witness={"all_common_empty": all_empty, "two_arc": bad_two_arc},
            )
        )

    # L4.1: common count never r-1 (valency r >= 2).
    if valency < 2:
        results.append(_na("L4.1", "valency below 2"))
    else:
        arc = _arc_with_common(commons, valency - 1)
        witness = None if arc is None else {"arc": arc, "common": valency - 1, "valency": valency}
        results.append(CheckResult("L4.1", FAIL if witness else PASS, witness=witness))

    # L4.4: out-neighborhoods splitting into k isomorphic connected pieces of
    # size >= 3, under 2-geodesic-transitivity, forbid common count 1.
    applicable_44 = facts.s_geodesic_transitive(2) and valency >= 3
    if applicable_44:
        sub, _ = g.induced(g.out_neighbors(0))
        comps = sub.weak_components()
        pieces = [sub.induced(c)[0] for c in comps]
        uniform = all(len(c) >= 3 for c in comps) and all(
            _connected_isomorphic(pieces[0], p) for p in pieces[1:]
        )
        applicable_44 = uniform
    if not applicable_44:
        results.append(_na("L4.4", "hypothesis on [out(u)] not met"))
    else:
        arc = _arc_with_common(commons, 1)
        witness = None if arc is None else {"arc": arc, "common": 1}
        results.append(CheckResult("L4.4", FAIL if witness else PASS, witness=witness))

    # L4.5: common count never r-2 for valency r >= 4.
    if valency < 4:
        results.append(_na("L4.5", "valency below 4"))
    else:
        arc = _arc_with_common(commons, valency - 2)
        witness = None if arc is None else {"arc": arc, "common": valency - 2, "valency": valency}
        results.append(CheckResult("L4.5", FAIL if witness else PASS, witness=witness))

    # L4.7: valency 5 with some common count 2 forbids 2-geodesic-transitivity.
    arc = _arc_with_common(commons, 2) if valency == 5 else None
    if arc is None:
        results.append(_na("L4.7", "needs valency 5 and a common count of 2"))
    elif facts.s_geodesic_transitive(2):
        results.append(
            CheckResult("L4.7", FAIL, witness={"arc": arc, "two_geodesic_transitive": True})
        )
    else:
        results.append(CheckResult("L4.7", PASS))
    return results


# ----------------------------------------------------------------------
# small valency equivalence


def check_small_valency(facts: InstanceFacts) -> CheckResult:
    """Valency <= 5: 2-geodesic-transitive iff 2-arc-transitive."""
    valency = facts.g.valency()
    if valency is None or not 1 <= valency <= 5:
        return _na("T1.4i", f"needs regular valency at most 5, got {valency}")
    if not facts.s_arc_transitive(1):
        return _na("T1.4i", "group is not arc-transitive")
    two_gt = facts.s_geodesic_transitive(2)
    two_at = facts.s_arc_transitive(2)
    if two_gt == two_at:
        return CheckResult("T1.4i", PASS, notes=f"both {two_gt}")
    return CheckResult(
        "T1.4i",
        FAIL,
        witness={"two_geodesic_transitive": two_gt, "two_arc_transitive": two_at},
    )


# ----------------------------------------------------------------------
# normal subgroup orbit structure


def _arc_inside_orbit(g: Digraph, normal: PermGroup) -> dict | None:
    """An arc with both ends in one orbit of ``normal``, as a witness."""
    for block in normal.orbit_partition():
        members = set(block)
        for u in block:
            for v in g.out_neighbors(u):
                if v in members:
                    return {"orbit": list(block), "arc": [u, v]}
    return None


def check_no_arc_in_orbit(facts: InstanceFacts, normal: PermGroup | None = None) -> CheckResult:
    """Orbits of an intransitive normal subgroup contain no arc.

    Without ``normal``, every intransitive normal subgroup of the group is
    checked through its block-system kernels.
    """
    g, group = facts.g, facts.group
    if not g.is_strongly_connected():
        return _na("L3.1", "not strongly connected")
    if not facts.s_arc_transitive(1):
        return _na("L3.1", "group is not arc-transitive")
    if normal is None:
        return _merge_results(
            "L3.1", [_no_arc_in_orbit(g, N) for N in group.intransitive_normal_kernels()]
        )
    if normal.is_trivial() or normal.is_transitive():
        return _na("L3.1", "normal subgroup must be nontrivial and intransitive")
    if not group.is_normal(normal):
        return _na("L3.1", "subgroup is not normal")
    return _no_arc_in_orbit(g, normal)


def _no_arc_in_orbit(g: Digraph, normal: PermGroup) -> CheckResult:
    witness = _arc_inside_orbit(g, normal)
    return CheckResult("L3.1", FAIL, witness=witness) if witness else CheckResult("L3.1", PASS)


def check_two_orbit_normal(facts: InstanceFacts, normal: PermGroup | None = None) -> CheckResult:
    """A 2-orbit normal subgroup forces bipartite plus 2-arc-transitive.

    Without ``normal``, every 2-orbit normal subgroup of the group is
    checked through its block-system kernels.
    """
    group = facts.group
    if not facts.g.is_strongly_connected():
        return _na("L3.2", "not strongly connected")
    if not facts.s_geodesic_transitive(2):
        return _na("L3.2", "not 2-geodesic-transitive")
    if normal is None:
        return _merge_results(
            "L3.2",
            [
                _two_orbit_conclusion(facts, N)
                for N in group.intransitive_normal_kernels()
                if N.orbits_count() == 2
            ],
        )
    if normal.is_trivial() or normal.orbits_count() != 2:
        return _na("L3.2", "normal subgroup must be nontrivial with exactly 2 orbits")
    if not group.is_normal(normal):
        return _na("L3.2", "subgroup is not normal")
    return _two_orbit_conclusion(facts, normal)


def _two_orbit_conclusion(facts: InstanceFacts, normal: PermGroup) -> CheckResult:
    witness = _arc_inside_orbit(facts.g, normal)
    if witness:
        return CheckResult("L3.2", FAIL, witness={**witness, "reason": "not bipartite"})
    if not facts.s_arc_transitive(2):
        return CheckResult("L3.2", FAIL, witness={"reason": "not 2-arc-transitive"})
    return CheckResult("L3.2", PASS)


# ----------------------------------------------------------------------
# quotient reduction


def _is_complete_undirected(g: Digraph) -> bool:
    return g.symmetry_class == UNDIRECTED and len(g.arcs) == g.n * (g.n - 1)


def _has_larger_overgroup(N: PermGroup, groups: list[PermGroup]) -> bool:
    """Whether some member of ``groups`` properly contains N."""
    return any(
        M.order() > N.order() and all(M.contains(x) for x in N.generators) for M in groups
    )


def check_quotient_theorem(facts: InstanceFacts, normal: PermGroup | None = None) -> CheckResult:
    """Quotient by a normal subgroup with >= 3 orbits: the quotient stays
    connected and geodesic-transitive at the truncated level, is directed or
    complete undirected, and for a maximal subgroup the induced action is
    quasiprimitive or bi-quasiprimitive.

    Without ``normal``, every normal subgroup maximal subject to having
    >= 3 orbits is checked, taken from the block-system kernels."""
    g, group = facts.g, facts.group
    if not g.is_strongly_connected():
        return _na("T1.1", "not strongly connected")
    s = facts.report.max_geodesic_s
    if s < 2:
        return _na("T1.1", f"needs 2-geodesic-transitivity, best s={s}")

    kernels = group.intransitive_normal_kernels()
    eligible = [N for N in kernels if N.orbits_count() >= 3]
    if normal is None:
        if not eligible:
            return _na("T1.1", "no normal subgroup with >= 3 orbits")
        targets = [(N, True) for N in eligible if not _has_larger_overgroup(N, eligible)]
    else:
        if normal.is_trivial() or normal.orbits_count() < 3:
            return _na("T1.1", "normal subgroup must be nontrivial with >= 3 orbits")
        if not group.is_normal(normal):
            return _na("T1.1", "subgroup is not normal")
        # A larger eligible normal subgroup lies in the kernel with its orbits.
        targets = [(normal, not _has_larger_overgroup(normal, eligible))]

    failures = []
    notes = [f"maximal normal subgroups={len(targets)}"] if normal is None else []
    for N, n_is_maximal in targets:
        # The facts validated the group, and N is a kernel or was tested for
        # normality above, so quotient by its orbits without checking again.
        # The induced action permutes the quotient's arcs; its counts and
        # primitivity tests share one facts object.
        result = construct.quotient_digraph(g, N.orbit_partition(), group=group)
        quotient = result.quotient
        image = InstanceFacts(quotient, result.image_group)
        here = {"normal_order": N.order()}
        if result.internal_arcs:
            failures.append({**here, "reason": "arc inside a normal-subgroup orbit"})
        if not (quotient.symmetry_class == DIRECTED or _is_complete_undirected(quotient)):
            failures.append(
                {**here, "reason": "quotient neither directed nor complete undirected",
                 "symmetry_class": quotient.symmetry_class}
            )
        if not quotient.is_strongly_connected():
            failures.append({**here, "reason": "quotient not strongly connected"})
        elif quotient.symmetry_class == DIRECTED:
            s_prime = min(s, quotient.diameter())
            if not image.s_geodesic_transitive(s_prime):
                failures.append(
                    {**here, "reason": "quotient not geodesic-transitive", "s_prime": s_prime}
                )
            notes.append(f"s'={s_prime}")
        elif _is_complete_undirected(quotient):
            # The induced action must be arc-transitive; the arcs of K_m are
            # its ordered block pairs.
            if not image.s_arc_transitive(1):
                failures.append(
                    {**here, "reason": "induced action not arc-transitive on complete quotient"}
                )
            notes.append("quotient is complete undirected")

        if n_is_maximal:
            quasi = image.group.is_quasiprimitive()
            if not (quasi or image.group.is_biquasiprimitive()):
                failures.append(
                    {**here,
                     "reason": "induced action neither quasiprimitive nor bi-quasiprimitive"}
                )
            else:
                kind = "quasiprimitive" if quasi else "bi-quasiprimitive"
                notes.append(f"induced action {kind}")
        else:
            notes.append("given subgroup not maximal; primitivity not asserted")

    # Reduction corollary: without 2-arc-transitivity, a maximal intransitive
    # normal subgroup has >= 3 orbits and induces a quasiprimitive action.
    if not facts.s_arc_transitive(2):
        for N in kernels:
            if _has_larger_overgroup(N, kernels):
                continue
            here = {"normal_order": N.order()}
            if N.orbits_count() < 3:
                failures.append(
                    {**here, "reason": "corollary: maximal intransitive subgroup has only 2 orbits"}
                )
            elif not group.induced_block_action(N.orbit_partition()).is_quasiprimitive():
                failures.append({**here, "reason": "corollary: induced action not quasiprimitive"})
            else:
                notes.append("corollary: quasiprimitive")

    notes_text = "; ".join(dict.fromkeys(notes))
    if failures:
        return CheckResult("T1.1", FAIL, witness={"failures": failures}, notes=notes_text)
    return CheckResult("T1.1", PASS, notes=notes_text)


# ----------------------------------------------------------------------
# regular normal subgroup


def check_regular_normal(facts: InstanceFacts, normal: PermGroup | None = None) -> CheckResult:
    """A regular normal subgroup under 2-geodesic-transitivity forces a circuit.

    Without ``normal``, one source is checked: for Cay(T, S), R(T) inside
    the holomorph action R(T)⋊Aut(T, S), the normalizer of R(T) in Aut(g)
    (Godsil, Combinatorica 1, 1981), which contains every G ≤ Aut(g) that
    normalizes R(T); without a spec, the group itself when it is regular.
    A pass reads ``normal subgroups=1``.  No source applies to a group that
    is not 2-geodesic-transitive, since no subgroup of it is; skipping the
    holomorph then is exact when the group is Aut(g), as in surveys.
    """
    if normal is None:
        if not facts.s_geodesic_transitive(2):
            return _merge_results("T1.2", [])
        if facts.cayley is not None:
            holomorph = construct.cayley_holomorph_action(facts.cayley)
            sources = [(InstanceFacts(facts.g, holomorph), facts.cayley.translations)]
        else:
            sources = [(facts, facts.group)] if facts.group.is_regular() else []
        return _merge_results("T1.2", [check_regular_normal(f, N) for f, N in sources])
    if normal.is_trivial() or not normal.is_regular():
        return _na("T1.2", "normal subgroup must be nontrivial and regular")
    if not facts.group.is_normal(normal):
        return _na("T1.2", "subgroup is not normal")
    if not facts.s_geodesic_transitive(2):
        return _na("T1.2", "not 2-geodesic-transitive")
    g = facts.g
    if g.valency() == 1 and g.is_strongly_connected():
        return CheckResult("T1.2", PASS, notes=f"circuit of length {g.n}")
    return CheckResult(
        "T1.2",
        FAIL,
        witness={"valency": g.valency(), "strongly_connected": g.is_strongly_connected()},
    )


# ----------------------------------------------------------------------
# soluble base case


def check_soluble_base(facts: InstanceFacts) -> CheckResult:
    """Soluble quasi/bi-quasiprimitive actions only allow circuits of
    length 4 or a prime."""
    g, group = facts.g, facts.group
    if not g.is_strongly_connected():
        return _na("P3.4", "not strongly connected")
    if not facts.s_geodesic_transitive(2):
        return _na("P3.4", "not 2-geodesic-transitive")
    if not group.is_soluble():
        return _na("P3.4", "group is not soluble")
    quasi = group.is_quasiprimitive()
    if not quasi and not group.is_biquasiprimitive():
        return _na("P3.4", "group is neither quasiprimitive nor bi-quasiprimitive")
    is_circuit = g.valency() == 1  # and strongly connected, tested above
    length_ok = g.n == 4 or construct._is_prime(g.n)
    if is_circuit and length_ok:
        return CheckResult("P3.4", PASS, notes=f"circuit of length {g.n}")
    return CheckResult(
        "P3.4",
        FAIL,
        witness={"valency": g.valency(), "vertices": g.n, "is_circuit": is_circuit},
    )


# ----------------------------------------------------------------------
# diameter-2 design structure


def hadamard_design_parameters(g: Digraph) -> tuple[int, int, int] | None:
    """(points, block size, pair count) for blocks = out-neighborhoods,
    or None when block sizes or pair counts are not constant."""
    k = g.valency()
    if k is None or g.n < 2:
        return None
    counts = set()
    for x, y in combinations(range(g.n), 2):
        counts.add(len(g.in_neighbors(x) & g.in_neighbors(y)))
        if len(counts) > 1:
            return None
    return (g.n, k, counts.pop())


def check_hadamard_design(facts: InstanceFacts) -> CheckResult:
    """Diameter-2 with 2-geodesic-transitivity: distance-transitive and the
    out-neighborhoods form a 2-design with parameters (4m-1, 2m-1, m-1)."""
    g = facts.g
    if not g.is_strongly_connected() or g.diameter() != 2:
        return _na("T1.4ii", "needs diameter 2")
    if not facts.s_geodesic_transitive(2):
        return _na("T1.4ii", "not 2-geodesic-transitive")
    if not facts.distance_transitive():
        return CheckResult("T1.4ii", FAIL, witness={"reason": "not distance-transitive"})
    n = g.n
    if (n + 1) % 4 != 0:
        return CheckResult("T1.4ii", FAIL, witness={"reason": "order not 4m-1", "n": n})
    m = (n + 1) // 4
    params = hadamard_design_parameters(g)
    expected = (n, 2 * m - 1, m - 1)
    if params != expected:
        return CheckResult(
            "T1.4ii", FAIL, witness={"parameters": params, "expected": expected}
        )
    notes = f"2-design {expected}"
    if m == 1:
        notes += "; degenerate m=1"
    return CheckResult("T1.4ii", PASS, notes=notes)


# ----------------------------------------------------------------------
# dispatch


def analysis_record(facts: InstanceFacts) -> CheckResult:
    """The ``report`` record: the instance's invariants and best s levels.

    The levels are capped at the diameter, so a digraph that is not strongly
    connected gives ``not_applicable``."""
    g = facts.g
    if not g.is_strongly_connected():
        return _na("report", "not strongly connected")
    report = facts.report
    valency, girth = g.valency(), g.girth()
    notes = (
        f"valency={valency if valency is not None else 'none'} diameter={g.diameter()} "
        f"girth={girth if girth is not None else 'none'} "
        f"|Aut|={report.group_order} max_arc_s={report.max_arc_s} "
        f"max_geodesic_s={report.max_geodesic_s}"
    )
    return CheckResult("report", PASS, notes=notes)


def _merge_results(check_id: str, results: list[CheckResult]) -> CheckResult:
    """Aggregate per-subgroup results into a single record."""
    applicable = [r for r in results if r.status != NOT_APPLICABLE]
    failures = [r for r in results if r.status == FAIL]
    if failures:
        return CheckResult(check_id, FAIL, witness=failures[0].witness)
    if not applicable:
        return _na(check_id, "no applicable normal subgroup")
    return CheckResult(check_id, PASS, notes=f"normal subgroups={len(applicable)}")


# Check id -> check; L2.1 returns its batch of arc-local records as a list.
_CHECKS = {
    "report": analysis_record,
    "L2.1": check_arc_local_constraints,
    "L3.1": check_no_arc_in_orbit,
    "L3.2": check_two_orbit_normal,
    "T1.1": check_quotient_theorem,
    "T1.2": check_regular_normal,
    "T1.4i": check_small_valency,
    "T1.4ii": check_hadamard_design,
    "P3.4": check_soluble_base,
}
CHECK_IDS = tuple(_CHECKS)
# The checks that also take one given normal subgroup.
SUBGROUP_CHECK_IDS = ("L3.1", "L3.2", "T1.1", "T1.2")


def resolve_check_id(record_id: str, normal=None) -> str:
    """The check id that gives ``record_id``: the id, or L2.1 for an arc-local
    id.  BadParameter for an unknown id or a ``normal`` its check does not take."""
    check_id = "L2.1" if record_id in ARC_LOCAL_IDS else record_id
    if check_id not in _CHECKS:
        raise BadParameter(f"unknown check {record_id!r}")
    if normal is not None and check_id not in SUBGROUP_CHECK_IDS:
        raise BadParameter(f"--normal (normal=) applies only to {', '.join(SUBGROUP_CHECK_IDS)}")
    return check_id


def run_check(
    facts: InstanceFacts, record_id: str, normal: PermGroup | None = None
) -> list[CheckResult]:
    """The records of one record id: L2.1 gives its arc-local batch, any
    other id, an arc-local one such as L4.1 too, its one record.

    Every statement is about digraphs, so on a digraph outside the directed
    class each check, ``report`` too, is ``not_applicable``.  ``normal`` is
    accepted by ``SUBGROUP_CHECK_IDS`` only, and on the digraph's vertices
    only: another degree raises DegreeMismatch before any hypothesis is
    tested.  An exhausted search or candidate budget gives ``incomplete``.
    """
    check_id = resolve_check_id(record_id, normal)
    if normal is not None and normal.degree != facts.g.n:
        raise DegreeMismatch(f"degree {normal.degree} != {facts.g.n}")
    if facts.g.symmetry_class != DIRECTED:
        return uniform_results((record_id,), NOT_APPLICABLE, "not a directed-class digraph")
    check = _CHECKS[check_id]
    try:
        outcome = check(facts) if normal is None else check(facts, normal)
    except (SearchBudgetExceeded, BoundExceeded) as exc:
        return uniform_results((record_id,), INCOMPLETE, str(exc))
    if record_id != check_id:
        return [r for r in outcome if r.check_id == record_id]
    return outcome if isinstance(outcome, list) else [outcome]


def run_checks_on_instance(
    g: Digraph,
    group: PermGroup,
    checks,
    cayley: construct.CayleySpec | None = None,
) -> list[CheckResult]:
    """Run the selected checks with the given automorphism subgroup.

    ``checks`` is consumed one id at a time, in order."""
    facts = InstanceFacts(g, group, cayley)
    return [result for check_id in checks for result in run_check(facts, check_id)]


# ----------------------------------------------------------------------
# survey configuration and corpus generation


def _is_a(value, kind: type) -> bool:
    """isinstance, except that a JSON boolean is no integer."""
    return isinstance(value, kind) and not isinstance(value, bool)


# The list-valued keys of a survey config and the type of their entries.
_LIST_KEYS = {"circulant_orders": int, "cayley_groups": str, "paley_primes": int, "checks": str}


class SurveyConfig(namedtuple("SurveyConfig", "circulant_orders cayley_groups paley_primes min_valency"
                              " max_valency max_vertices checks parallelism seed",
                              defaults=((), (), (), 1, 5, 14, CHECK_IDS, 1, 0))):
    """Corpus families (tuples of orders, group specs and primes), valency
    and vertex bounds, check selection, parallelism and seed for a survey
    run: an immutable value."""

    __slots__ = ()

    def validate(self) -> None:
        """Raise BadParameter at the first malformed or inconsistent key."""
        for key in ("min_valency", "max_valency", "max_vertices", "parallelism", "seed"):
            if not _is_a(getattr(self, key), int):
                raise BadParameter(f"survey config key {key!r} must be an integer")
        for key, kind in _LIST_KEYS.items():
            values = getattr(self, key)
            if not isinstance(values, (list, tuple)):
                raise BadParameter(f"survey config key {key!r} must be a list")
            if not all(_is_a(x, kind) for x in values):
                raise BadParameter(f"survey config key {key!r} must list {kind.__name__} values")
        if not (self.circulant_orders or self.cayley_groups or self.paley_primes):
            raise BadParameter("survey needs at least one family")
        if not self.checks:
            raise BadParameter("survey config key 'checks' must name at least one check")
        for key in _LIST_KEYS:
            values = getattr(self, key)
            repeated = sorted({x for x in values if values.count(x) > 1})
            if repeated:
                raise BadParameter(f"survey config key {key!r} repeats {repeated}")
        if self.min_valency < 1 or self.max_valency < self.min_valency:
            raise BadParameter("valency bounds must be positive and ordered")
        if self.max_vertices < 1 or self.parallelism < 1:
            raise BadParameter("vertex bound and parallelism must be positive")
        for q in self.paley_primes:
            construct.paley_residues(q)
        unknown = set(self.checks) - set(CHECK_IDS)
        if unknown:
            raise BadParameter(f"unknown checks: {sorted(unknown)}")

    def to_dict(self) -> dict:
        return self._asdict()

    @classmethod
    def from_dict(cls, data: dict) -> "SurveyConfig":
        """The validated config that a JSON object, or ``to_dict``, names."""
        if not isinstance(data, dict):
            raise BadParameter("survey config must be a JSON object")
        unknown = sorted(set(data) - set(cls._fields))
        if unknown:
            raise BadParameter(f"unknown survey config keys {unknown}")
        kwargs = {key: tuple(v) if isinstance(v, list) else v for key, v in data.items()}
        config = cls(**kwargs)
        config.validate()
        return config


def default_config() -> SurveyConfig:
    return SurveyConfig(
        circulant_orders=tuple(range(4, 15)),
        cayley_groups=("abelian:2x4", "abelian:3x3", "abelian:2x6"),
        paley_primes=(7, 11, 19),
        min_valency=2,
        max_valency=5,
        max_vertices=14,
    )


def connection_sets(table, min_valency: int, max_valency: int):
    """All antisymmetric generating connection sets within the valency bounds."""
    inverse_pairs = []
    seen = set()
    for x in range(table.order):
        if x == table.identity or x in seen:
            continue
        inv = table.inverse(x)
        if inv == x:
            continue  # involutions can never satisfy antisymmetry
        seen.update({x, inv})
        inverse_pairs.append((x, inv))
    for k in range(min_valency, max_valency + 1):
        for chosen in combinations(inverse_pairs, k):
            # <x> = <x^-1>, so all 2^k choices of one element per pair
            # generate the same subgroup: test it once.
            if len(table.generated_subset(pair[0] for pair in chosen)) < table.order:
                continue
            # The choices come in the order of a k-bit mask whose bit i picks
            # from chosen[i]: product varies its last factor fastest.
            for conn in product(*reversed(chosen)):
                yield tuple(sorted(conn))


def generate_descriptors(config: SurveyConfig) -> list[tuple]:
    """Deterministic list of picklable instance descriptors."""
    descriptors: list[tuple] = []
    for n in sorted(config.circulant_orders):
        if n > config.max_vertices:
            continue
        table = _group_table(f"cyclic:{n}")
        for conn in sorted(connection_sets(table, config.min_valency, config.max_valency)):
            descriptors.append(("circulant", n, conn))
    for spec_text in config.cayley_groups:
        table = _group_table(spec_text)
        if table.order > config.max_vertices:
            continue
        for conn in sorted(connection_sets(table, config.min_valency, config.max_valency)):
            descriptors.append(("cayley", spec_text, conn))
    # Paley primes are an explicit family; the vertex bound governs only the
    # generated circulant/Cayley instances.
    for q in sorted(config.paley_primes):
        descriptors.append(("paley", q))
    return descriptors


@lru_cache(maxsize=None)
def _shared_table(group_text: str):
    return construct.parse_group_spec(group_text)


def _group_table(group_text: str):
    """The table of a group spec, built once per process and shared by the
    survey's descriptors and instances; a ``table:<path>`` file is read on
    every call."""
    read = construct.parse_group_spec if group_text.startswith("table:") else _shared_table
    return read(group_text)


def build_instance(descriptor: tuple):
    """Materialize (label, digraph, cayley spec) from a descriptor.  The
    instances of one group spec share one table (``_group_table``)."""
    kind = descriptor[0]
    if kind == "circulant":
        _, n, conn = descriptor
        group_text, label = f"cyclic:{n}", f"circulant:n={n}:S={','.join(map(str, conn))}"
    elif kind == "cayley":
        _, group_text, conn = descriptor
        label = f"cayley:{group_text}:S={','.join(map(str, conn))}"
    elif kind == "paley":
        _, q = descriptor
        group_text, conn, label = f"cyclic:{q}", construct.paley_residues(q), f"paley:{q}"
    else:
        raise BadParameter(f"unknown descriptor {descriptor!r}")
    spec = construct.cayley_spec(_group_table(group_text), conn)
    return label, construct.cayley_digraph(spec), spec


def _survey_worker(args) -> list[dict]:
    """The records of one instance.

    The instance is a ``CayleyDigraph``, so the automorphism search starts
    from the right translations R(T), a regular subgroup of Aut(Cay(T, S)).
    An exhausted search budget gives an ``incomplete`` record, and any other
    exception an ``error`` record noting its type and message, per record id
    of the requested checks, so one instance cannot abort a survey.  An
    instance that could not be built is labelled by its descriptor.
    """
    descriptor, checks = args
    label = repr(descriptor)
    try:
        label, g, spec = build_instance(descriptor)
        group = symmetry.automorphism_group(g)
        results = run_checks_on_instance(g, group, checks, cayley=spec)
    except SearchBudgetExceeded as exc:
        results = uniform_results(checks, INCOMPLETE, str(exc))
    except Exception as exc:
        results = uniform_results(checks, ERROR, f"{type(exc).__name__}: {exc}")
    return _records(label, results)


def _records(label: str, results: list[CheckResult]) -> list[dict]:
    """The survey records of one instance's results."""
    return [{**result.to_dict(), "instance": label} for result in results]


def _pool_batches(jobs: list, workers: int, chunksize: int):
    """The batches of ``jobs`` from a process pool of ``workers``, at most
    one per job, in job order, up to the first that did not arrive because
    a worker died; and the ``BrokenProcessPool`` that stopped them, or None."""
    batches = []
    if not jobs:
        return batches, None
    # Imported here so that serial runs and `import digsym` skip its cost.
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # A forked pool starts all its workers at the first task.
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        try:
            for batch in pool.map(_survey_worker, jobs, chunksize=chunksize):
                batches.append(batch)
        except BrokenProcessPool as exc:
            return batches, exc
    return batches, None


class SurveyReport:
    """A survey's config and its records, in corpus order."""

    def __init__(self, config: SurveyConfig, records: list[dict] | None = None):
        self.config = config
        self.records = [] if records is None else records

    def __eq__(self, other):
        return other.__class__ is self.__class__ and vars(self) == vars(other)

    def __repr__(self) -> str:
        return f"SurveyReport(config={self.config!r}, records={self.records!r})"

    def counts(self) -> dict[str, int]:
        """Records per status; ``error`` is listed only when some record has it."""
        tally = {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0, INCOMPLETE: 0}
        for record in self.records:
            tally[record["status"]] = tally.get(record["status"], 0) + 1
        return tally

    def failures(self) -> list[dict]:
        return [r for r in self.records if r["status"] == FAIL]

    def to_json(self) -> str:
        payload = {
            "config": self.config.to_dict(),
            "records": self.records,
            "summary": self.counts(),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def summary_text(self) -> str:
        """Per-check status tally; one ``n/a`` line per (check, note) with its
        count, then the checks that were never exercised (every record
        ``not_applicable``); then one line per failure and per error.  The
        ``error`` column appears only when some record has that status."""
        per_check: dict[str, dict[str, int]] = {}
        not_applicable: dict[tuple[str, str], int] = {}
        instances = set()
        for record in self.records:
            instances.add(record["instance"])
            row = per_check.setdefault(
                record["check"], {PASS: 0, FAIL: 0, NOT_APPLICABLE: 0, INCOMPLETE: 0, ERROR: 0}
            )
            row[record["status"]] += 1
            if record["status"] == NOT_APPLICABLE:
                key = (record["check"], record["notes"])
                not_applicable[key] = not_applicable.get(key, 0) + 1
        errors = [r for r in self.records if r["status"] == ERROR]
        lines = [f"instances: {len(instances)}"]
        header = f"{'check':10} {'pass':>6} {'fail':>6} {'n/a':>6} {'incomplete':>10}"
        lines.append(header + (f" {'error':>6}" if errors else ""))
        for check_id in sorted(per_check):
            row = per_check[check_id]
            lines.append(
                f"{check_id:10} {row[PASS]:>6} {row[FAIL]:>6} "
                f"{row[NOT_APPLICABLE]:>6} {row[INCOMPLETE]:>10}"
                + (f" {row[ERROR]:>6}" if errors else "")
            )
        for (check_id, notes), count in sorted(not_applicable.items()):
            lines.append(f"n/a {check_id:10} {count:>6}  {notes}")
        never = [
            c for c, row in sorted(per_check.items()) if row[NOT_APPLICABLE] == sum(row.values())
        ]
        if never:
            lines.append(f"never exercised: {', '.join(never)}")
        for failure in self.failures():
            lines.append(
                f"FAIL {failure['instance']} {failure['check']}: {failure['witness']}"
            )
        for error in errors:
            lines.append(f"ERROR {error['instance']} {error['check']}: {error['notes']}")
        return "\n".join(lines) + "\n"


def run_survey(config: SurveyConfig) -> SurveyReport:
    """Generate the corpus, run the selected checks, collect every record.

    Output is deterministic for a fixed config; parallelism only affects
    wall-clock time, never record order or content.  A pooled survey maps
    its jobs over one pool, in chunks of 8; a worker that dies breaks that
    pool, and ``_pool_batches`` hands back the batches that arrived.
    """
    config.validate()
    # A bad budget is the survey's error, not an instance's: raise it here.
    symmetry.default_node_budget()
    descriptors = generate_descriptors(config)
    jobs = [(d, config.checks) for d in descriptors]
    if config.parallelism > 1 and len(jobs) > 1:
        batches, _ = _pool_batches(jobs, config.parallelism, chunksize=8)
        while len(batches) < len(jobs):
            # A worker died.  The first job that did not arrive reruns in a
            # pool of its own, so that a death is charged only to a job that
            # kills a pool it ran in alone; the rest rerun one job per task.
            job = jobs[len(batches)]
            alone, broken = _pool_batches([job], 1, chunksize=1)
            errors = uniform_results(job[1], ERROR, f"BrokenProcessPool: {broken}")
            batches += alone or [_records(repr(job[0]), errors)]
            batches += _pool_batches(jobs[len(batches):], config.parallelism, chunksize=1)[0]
    else:
        batches = [_survey_worker(job) for job in jobs]
    report = SurveyReport(config=config)
    # A record from the pool carries its own copy of each string, and most
    # notes repeat across records: keep one object per distinct value.
    shared: dict[str, str] = {}
    for batch in batches:
        for record in batch:
            for key in ("check", "status", "notes"):
                record[key] = shared.setdefault(record[key], record[key])
        report.records.extend(batch)
    return report
