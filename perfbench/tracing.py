"""Spans around calls into digsym's public functions, kept in memory.

The wrappers are installed from the benchmark's own code by replacing
module and class attributes, so calls made inside the package go through
them too.  Each span records its name, its parent span, start and end times
and the instance (request) it belongs to; the per-layer metrics are derived
from these spans after the pass.  Tracing inside the program is a separate,
later change.
"""

from __future__ import annotations

import functools
import glob
import gzip
import json
import os
import time

# (module, owner, attribute): owner is a class name inside the module, or
# "" for a module-level function.  Hot primitives (Permutation methods,
# PermGroup.contains/order, Digraph neighbour lookups) are left out: their
# wrapper cost would swamp the layers they serve.
TRACED = (
    ("verify", "", "build_instance"),
    ("verify", "", "run_checks_on_instance"),
    ("verify", "", "check_arc_local_constraints"),
    ("verify", "", "check_small_valency"),
    ("verify", "", "check_no_arc_in_orbit"),
    ("verify", "", "check_two_orbit_normal"),
    ("verify", "", "check_quotient_theorem"),
    ("verify", "", "check_regular_normal"),
    ("verify", "", "check_soluble_base"),
    ("verify", "", "check_hadamard_design"),
    ("verify", "", "hadamard_design_parameters"),
    ("symmetry", "", "automorphism_group"),
    ("symmetry", "", "check_is_automorphism_group"),
    ("symmetry", "", "orbits_on_tuples"),
    ("symmetry", "", "is_s_arc_transitive"),
    ("symmetry", "", "is_s_geodesic_transitive"),
    ("symmetry", "", "is_vertex_transitive"),
    ("symmetry", "", "is_distance_transitive"),
    ("symmetry", "", "transitivity_report"),
    ("groups", "PermGroup", "candidate_normal_subgroups"),
    ("groups", "PermGroup", "conjugacy_class_representatives"),
    ("groups", "PermGroup", "normal_closure"),
    ("groups", "PermGroup", "derived_subgroup"),
    ("groups", "PermGroup", "is_soluble"),
    ("groups", "PermGroup", "is_quasiprimitive"),
    ("groups", "PermGroup", "is_biquasiprimitive"),
    ("groups", "PermGroup", "tuple_stabilizer"),
    ("groups", "PermGroup", "induced_block_action"),
    ("groups", "PermGroup", "is_normal"),
    ("construct", "", "cyclic_table"),
    ("construct", "", "abelian_table"),
    ("construct", "", "dihedral_table"),
    ("construct", "", "parse_group_spec"),
    ("construct", "", "cayley_spec"),
    ("construct", "", "cayley_digraph"),
    ("construct", "", "right_translations"),
    ("construct", "", "table_automorphisms"),
    ("construct", "", "aut_preserving_conn"),
    ("construct", "", "cayley_holomorph_action"),
    ("construct", "", "is_normal_cayley"),
    ("construct", "", "quotient_digraph"),
    ("digraph", "Digraph", "s_arcs"),
    ("digraph", "Digraph", "s_geodesics"),
    ("digraph", "", "build"),
)

CANDIDATE_CHECKS = ("check_no_arc_in_orbit", "check_two_orbit_normal", "check_regular_normal")


def _span_name(module: str, owner: str, attr: str) -> str:
    return f"{module}.{owner + '.' if owner else ''}{attr}"


def _notes(name: str):
    """Extra fact a span records about its call, for size and ratio counters.

    Returns (before, after): ``before(args)`` runs ahead of the call and its
    value is passed to ``after(args, result, before_value)``.
    """
    if name == "groups.PermGroup.candidate_normal_subgroups":
        return None, lambda args, result, _: len(result.groups)
    if name == "groups.PermGroup.conjugacy_class_representatives":
        # Elements enumerated: |G| on the call that fills the group's class
        # cache, 0 on later (cached) calls.
        return (
            lambda args: getattr(args[0], "_class_reps", None) is None,
            lambda args, result, fresh: args[0].order() if fresh else 0,
        )
    if name in ("digraph.Digraph.s_arcs", "digraph.Digraph.s_geodesics"):
        return None, lambda args, result, _: len(result)
    if name.rsplit(".", 1)[1] in CANDIDATE_CHECKS:
        return None, lambda args, result, _: result.status != "not_applicable"
    return None, None


class Patches:
    """Attribute replacements that are undone in reverse order on exit."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


class Tracer:
    """In-memory spans plus primitive counters for one process.

    A span is ``[name, parent index, start, end, request, note]``.  A new
    request (one instance) starts whenever ``verify.build_instance`` is
    entered outside any other span, so the spans of one instance share an
    identifier in serial passes and in pool workers alike.
    """

    REQUEST_ROOT = "verify.build_instance"

    def __init__(self, package):
        self.package = package
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._requests = 0

    def _wrap(self, name: str, original, before, after):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not stack and name == tracer.REQUEST_ROOT:
                tracer._requests += 1
            fresh = before(args) if before is not None else None
            index = len(spans)
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, tracer._requests, None]
            spans.append(span)
            stack.append(index)
            span[2] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                span[5] = after(args, result, fresh)
            return result

        return wrapper

    def install_spans(self, patches: Patches) -> None:
        for module_name, owner_name, attr in TRACED:
            name = _span_name(module_name, owner_name, attr)
            owner = getattr(self.package, module_name)
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.append(name)
                continue
            patches.replace(owner, attr, self._wrap(name, original, *_notes(name)))

    def install_counters(self, patches: Patches) -> None:
        """Count Permutation.__mul__ and Permutation.inverse calls.

        Use this in a pass of its own, without spans, so the counting
        wrapper's cost does not distort the layer times.
        """
        counts = self.counts
        cls = self.package.perm.Permutation

        def counted(key, original):
            counts[key] = 0

            @functools.wraps(original)
            def wrapper(*args):
                counts[key] += 1
                return original(*args)
            return wrapper

        patches.replace(cls, "__mul__", counted("perm.mul_calls", cls.__mul__))
        patches.replace(cls, "inverse", counted("perm.inverse_calls", cls.inverse))

    def follow_forks(self, directory) -> None:
        """Make forked pool workers dump their spans and counts on exit.

        A worker starts from a copy of this tracer; it clears the copied
        spans and, when the worker process shuts down, writes its own to
        ``directory/worker-<pid>.json``.  Under a start method other than
        fork the workers import digsym afresh and record nothing.
        """
        from multiprocessing import util

        for stale in glob.glob(os.path.join(directory, "worker-*.json")):
            os.remove(stale)

        def in_child(tracer):
            tracer.spans.clear()
            tracer._stack.clear()
            for key in tracer.counts:
                tracer.counts[key] = 0
            util.Finalize(tracer, tracer._dump, args=(directory,), exitpriority=10)

        util.register_after_fork(self, in_child)

    def _dump(self, directory) -> None:
        path = os.path.join(directory, f"worker-{os.getpid()}.json")
        with open(path, "w") as out:
            json.dump({"spans": self.spans, "counts": self.counts}, out)

    def absorb_workers(self, directory) -> int:
        """Append the spans and counts the pool workers dumped; returns how many."""
        paths = sorted(glob.glob(os.path.join(directory, "worker-*.json")))
        for path in paths:
            with open(path) as handle:
                dumped = json.load(handle)
            os.remove(path)
            offset = len(self.spans)
            tag = os.path.basename(path)[len("worker-"):-len(".json")]
            for name, parent, start, end, request, note in dumped["spans"]:
                parent = parent + offset if parent >= 0 else -1
                self.spans.append([name, parent, start, end, f"{tag}:{request}", note])
            for key, value in dumped["counts"].items():
                self.counts[key] = self.counts.get(key, 0) + value
        return len(paths)

    def write(self, path) -> None:
        """Write every span as one gzip-compressed JSON line, with its self time."""
        summary = SpanSummary(self.spans)
        child = summary.child_seconds()
        with gzip.open(path, "wt") as out:
            for i, s in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "parent": s[1], "name": s[0], "request": s[4],
                    "start": s[2], "end": s[3],
                    "self_s": summary.durations[i] - child[i], "note": s[5],
                }) + "\n")


class SpanSummary:
    """Queries over a finished span list."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.durations = [s[3] - s[2] for s in spans]

    def _outermost(self, names) -> list[int]:
        """Spans named in names with no ancestor also named in names."""
        names = set(names)
        out = []
        for i, s in enumerate(self.spans):
            if s[0] not in names:
                continue
            p = s[1]
            while p >= 0 and self.spans[p][0] not in names:
                p = self.spans[p][1]
            if p < 0:
                out.append(i)
        return out

    def seconds(self, *names) -> float:
        return sum(self.durations[i] for i in self._outermost(names))

    def calls(self, *names) -> int:
        names = set(names)
        return sum(1 for s in self.spans if s[0] in names)

    def notes(self, *names) -> list:
        names = set(names)
        return [s[5] for s in self.spans if s[0] in names and s[5] is not None]

    def child_seconds(self) -> list[float]:
        """Per span, the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s, d in zip(self.spans, self.durations):
            if s[1] >= 0:
                child[s[1]] += d
        return child

    def self_seconds(self) -> dict[str, float]:
        """Self time (duration minus children) summed per span name."""
        out: dict[str, float] = {}
        for s, d, c in zip(self.spans, self.durations, self.child_seconds()):
            out[s[0]] = out.get(s[0], 0.0) + d - c
        return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json that spans provide."""
    q = SpanSummary(spans)
    candidate_checks = [f"verify.{c}" for c in CANDIDATE_CHECKS]
    verdicts = q.notes(*candidate_checks)
    orbit_testers = (
        "symmetry.is_s_arc_transitive", "symmetry.is_s_geodesic_transitive",
        "symmetry.is_distance_transitive", "symmetry.orbits_on_tuples",
    )
    walks = ("digraph.Digraph.s_arcs", "digraph.Digraph.s_geodesics")
    return {
        "groups.normal_source_s": q.seconds("groups.PermGroup.candidate_normal_subgroups"),
        "groups.normal_source_calls": q.calls("groups.PermGroup.candidate_normal_subgroups"),
        "groups.normal_candidates": sum(q.notes("groups.PermGroup.candidate_normal_subgroups")),
        "groups.normal_candidate_applicable_ratio":
            sum(verdicts) / len(verdicts) if verdicts else 0.0,
        "groups.class_rep_elements":
            sum(q.notes("groups.PermGroup.conjugacy_class_representatives")),
        "groups.normal_closure_calls": q.calls("groups.PermGroup.normal_closure"),
        "groups.normal_closure_s": q.seconds("groups.PermGroup.normal_closure"),
        "groups.quasiprimitivity_s": q.seconds(
            "groups.PermGroup.is_quasiprimitive", "groups.PermGroup.is_biquasiprimitive"),
        "groups.soluble_s": q.seconds("groups.PermGroup.is_soluble"),
        "groups.tuple_stabilizer_calls": q.calls("groups.PermGroup.tuple_stabilizer"),
        "groups.tuple_stabilizer_s": q.seconds("groups.PermGroup.tuple_stabilizer"),
        "groups.block_action_s": q.seconds("groups.PermGroup.induced_block_action"),
        "symmetry.orbit_count_s": q.seconds(*orbit_testers),
        "symmetry.report_s": q.seconds("symmetry.transitivity_report"),
        "symmetry.geodesic_test_calls": q.calls("symmetry.is_s_geodesic_transitive"),
        "symmetry.arc_test_calls": q.calls("symmetry.is_s_arc_transitive"),
        "symmetry.aut_validation_calls": q.calls("symmetry.check_is_automorphism_group"),
        "symmetry.aut_search_s": q.seconds("symmetry.automorphism_group"),
        "symmetry.aut_search_calls": q.calls("symmetry.automorphism_group"),
        "digraph.walks_enumerated": sum(q.notes(*walks)),
        "digraph.walk_enum_s": q.seconds(*walks),
        "construct.table_build_s": q.seconds(
            "construct.cyclic_table", "construct.abelian_table",
            "construct.dihedral_table", "construct.parse_group_spec"),
        "construct.quotient_s": q.seconds("construct.quotient_digraph"),
        "construct.quotient_calls": q.calls("construct.quotient_digraph"),
        "construct.holomorph_s": q.seconds("construct.cayley_holomorph_action"),
        "verify.build_instance_s": q.seconds("verify.build_instance"),
    }
