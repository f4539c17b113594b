"""One benchmark client: a fresh process that drives digsym in a closed loop.

``run.py`` starts this file once per pass kind and sends it a JSON job on
standard input::

    {"mode": "setup" | "plain" | "spans" | "counts" | "micro",
     "config": {...SurveyConfig fields...}, "slice": [descriptor, ...] | null,
     "seed": 1, "seconds": 25, "out_dir": ".perfbench_out"}

The client prints one JSON object on standard output.  Serial workloads
feed each instance through the public calls ``run_survey`` makes:
``build_instance`` -> ``automorphism_group`` -> ``run_checks_on_instance``;
the next instance starts when the previous verdict is in.  A pooled
workload (``parallelism`` > 1) hands its whole config to ``run_survey``.
"""

from __future__ import annotations

import functools
import json
import os
import random
import resource
import statistics
import sys
import time
import timeit
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import digsym  # noqa: E402
from digsym import errors, symmetry, verify  # noqa: E402

import calibration  # noqa: E402
import tracing  # noqa: E402

def _as_tuple(value):
    return tuple(_as_tuple(v) for v in value) if isinstance(value, list) else value


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_kb() -> int:
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


class CheckClock:
    """The check-id sequence for run_checks_on_instance, timing each check.

    run_checks_on_instance runs its checks in the order it iterates them, so
    the time between handing out an id and being asked for the next one is
    that check's time.
    """

    def __init__(self, checks):
        self.checks = tuple(checks)
        # Every check id gets a figure; those the workload does not run stay 0.
        self.seconds = dict.fromkeys(verify.CHECK_IDS, 0.0)

    def __iter__(self):
        for check_id in self.checks:
            start = time.perf_counter()
            yield check_id
            self.seconds[check_id] = (
                self.seconds.get(check_id, 0.0) + time.perf_counter() - start)


def _records(results) -> list[list]:
    # Only the report's notes are compared (|Aut| and the s levels); the
    # other notes are free text.
    return [[r.check_id, r.status, r.notes if r.check_id == "report" else ""]
            for r in results]


def serial_pass(descriptors, checks, clock=None) -> dict:
    """One closed-loop pass; per instance the label, seconds and records.

    Calibration samples are taken before each instance, after the last
    one and, in an untraced pass, every ``calibration.PERIOD_S`` of CPU
    time while the pass runs; their time is left out of the instance times
    and of the pass's wall and CPU time.  ``calibration_at`` gives the index
    of each instance's first sample.
    """
    instances, samples = [], []
    with calibration.Sampler(samples.append, periodic=clock is None) as sampler:
        start_cpu, start = _cpu(resource.RUSAGE_SELF), time.perf_counter()
        for descriptor in descriptors:
            first = len(samples)
            sampler.take()
            spent = sampler.spent
            t0 = time.perf_counter()
            label, records, error = None, None, None
            try:
                label, g, spec = verify.build_instance(descriptor)
                try:
                    group = symmetry.automorphism_group(g)
                except errors.SearchBudgetExceeded as exc:
                    records = [[cid, "incomplete", str(exc)] for cid in checks]
                else:
                    results = verify.run_checks_on_instance(
                        g, group, clock if clock is not None else checks, cayley=spec)
                    records = _records(results)
            except Exception as exc:  # one failing instance must not stop the run
                error = f"{type(exc).__name__}: {exc}"
            instances.append({"descriptor": descriptor, "label": label,
                              "seconds": time.perf_counter() - t0 - (sampler.spent - spent),
                              "calibration_at": first, "records": records, "error": error})
        sampler.take()
        wall = time.perf_counter() - start - sampler.spent
        # the kernels are CPU-bound
        cpu = _cpu(resource.RUSAGE_SELF) - start_cpu - sampler.spent
    return {"wall_s": wall, "instances": instances, "calibration": samples,
            "workers": 1, "worker_cpu_s": cpu, "parent_cpu_s": cpu}


POOL_LOG = "pool-calibration-{}.txt"


def pool_pass(config, out_dir: Path) -> dict:
    """One run_survey call; every verdict arrives when it returns.

    Each pool worker samples every ``calibration.PERIOD_S`` of its CPU
    time, so only while it works, and appends the samples to a file of its
    own, read back here afterwards.  The benchmark starts the sampler from a
    wrapper around ``build_instance``, the first call a worker makes per
    instance; the workers inherit the wrapper because they are forked from
    this process.
    """
    for stale in out_dir.glob(POOL_LOG.format("*")):
        stale.unlink()
    build = verify.build_instance
    samplers = {}

    def log_sample(loop_orbit):
        with open(out_dir / POOL_LOG.format(os.getpid()), "a") as log:
            log.write("%r %r\n" % loop_orbit)

    @functools.wraps(build)
    def calibrated_build(*args, **kwargs):
        if os.getpid() not in samplers:  # the first instance of this worker
            sampler = samplers[os.getpid()] = calibration.Sampler(log_sample)
            sampler.__enter__()
            sampler.take()  # at least one sample, however short the survey
        return build(*args, **kwargs)

    start_self, start_children = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    error, by_label = None, {}
    with tracing.Patches() as patches:
        patches.replace(verify, "build_instance", calibrated_build)
        try:
            report = verify.run_survey(config)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        else:
            for record in report.records:
                by_label.setdefault(record["instance"], []).append(
                    [record["check"], record["status"],
                     record["notes"] if record["check"] == "report" else ""])
        finally:
            if os.getpid() in samplers:  # run_survey ran the instances here
                samplers[os.getpid()].__exit__()
    wall = time.perf_counter() - start
    instances = [{"descriptor": None, "label": label, "seconds": wall,
                  "records": records, "error": None}
                 for label, records in by_label.items()]
    samples = []
    for path in sorted(out_dir.glob(POOL_LOG.format("*"))):
        samples += [[float(x) for x in line.split()] for line in path.read_text().splitlines()]
        path.unlink()
    return {"wall_s": wall, "instances": instances, "error": error,
            "pool_calibration": samples,
            "workers": config.parallelism,
            "worker_cpu_s": _cpu(resource.RUSAGE_CHILDREN) - start_children,
            "parent_cpu_s": _cpu(resource.RUSAGE_SELF) - start_self}


def micro_timings() -> dict[str, float]:
    """Primitive costs: composition, inversion and chain membership."""
    Permutation = digsym.perm.Permutation
    rng = random.Random(0)

    def random_perm(n):
        images = list(range(n))
        rng.shuffle(images)
        return Permutation(images)

    def per_call(stmt, namespace, calls_per_run):
        timer = timeit.Timer(stmt, globals=namespace)
        number = max(1, int(0.02 / max(timer.timeit(1), 1e-9)))
        runs = timer.repeat(repeat=7, number=number)
        return statistics.median(runs) / number / calls_per_run

    out = {}
    for n in (12, 20):
        ns = {"a": random_perm(n), "b": random_perm(n)}
        out[f"perm.mul_ns.deg{n}"] = per_call("a * b", ns, 1) * 1e9
    out["perm.inverse_ns.deg12"] = per_call("a.inverse()", {"a": random_perm(12)}, 1) * 1e9
    groups = {"aut41472": ("circulant", 12, (1, 4, 7, 10)), "paley47": ("paley", 47)}
    for name, descriptor in groups.items():
        _, g, _ = verify.build_instance(descriptor)
        group = symmetry.automorphism_group(g)
        group.order()  # build the stabilizer chain outside the timing
        sample = []
        for _ in range(64):  # members: random words in the generators
            x = Permutation.identity(g.n)
            for _ in range(16):
                x = x * rng.choice(group.generators)
            sample.append(x)
        sample += [random_perm(g.n) for _ in range(64)]  # mostly non-members
        ns = {"sample": sample, "contains": group.contains}
        out[f"groups.contains_us.{name}"] = (
            per_call("for x in sample: contains(x)", ns, len(sample)) * 1e6)
    return out


def main() -> int:
    job = json.load(sys.stdin)
    config = verify.SurveyConfig.from_dict(job["config"])
    corpus = verify.generate_descriptors(config)
    ready = time.monotonic()  # set-up ends here: the first instance is next
    if job["mode"] == "setup":
        print(json.dumps({"ready": ready, "calibration": [calibration.sample() for _ in range(10)]}))
        return 0
    if job["mode"] == "micro":
        print(json.dumps({"ready": ready, "micro": micro_timings()}))
        return 0

    pooled = config.parallelism > 1
    descriptors = corpus if job["slice"] is None else [_as_tuple(d) for d in job["slice"]]
    unknown = set(descriptors) - set(corpus)
    if unknown:
        raise SystemExit(f"slice instances not in the program's corpus: {sorted(unknown)[:3]}")
    rng = random.Random(job["seed"])
    out_dir = ROOT / job["out_dir"]
    out_dir.mkdir(exist_ok=True)

    def one_pass(clock=None):
        if pooled:
            return pool_pass(config, out_dir)
        order = list(descriptors)
        rng.shuffle(order)
        return serial_pass(order, config.checks, clock)

    result = {"ready": ready, "corpus_size": len(corpus), "passes": []}
    if job["mode"] == "plain":
        # Whole passes, as many as fit in the run time; always at least one.
        start = time.perf_counter()
        while True:
            result["passes"].append(one_pass())
            elapsed = time.perf_counter() - start
            if elapsed + result["passes"][-1]["wall_s"] > job["seconds"]:
                break
    else:
        tracer = tracing.Tracer(digsym)
        clock = CheckClock(config.checks)
        with tracing.Patches() as patches:
            if job["mode"] == "spans":
                tracer.install_spans(patches)
            else:
                tracer.install_counters(patches)
            if pooled:
                tracer.follow_forks(str(out_dir))
            result["passes"].append(one_pass(None if pooled else clock))
        result["workers_traced"] = tracer.absorb_workers(str(out_dir)) if pooled else 0
        result["missing"] = tracer.missing
        result["counts"] = tracer.counts
        if job["mode"] == "spans":
            result["layers"] = tracing.layer_metrics(tracer.spans)
            result["check_s"] = clock.seconds
            result["self_s"] = tracing.SpanSummary(tracer.spans).self_seconds()
            result["spans"] = len(tracer.spans)
            spans_path = out_dir / f"spans-{job['tag']}.jsonl.gz"
            tracer.write(spans_path)
            result["spans_file"] = str(spans_path.relative_to(ROOT))
    result["peak_rss_kb"] = _peak_rss_kb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
