"""The digsym benchmark: one command per workload run.

    python3 perfbench/run.py --workload survey_default --seed 1 --seconds 25 --trace 0

Run it from the root of a source checkout; it measures the package under
``src/``.  With ``--trace 0`` it prints the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer ones.  Each pass runs in a
fresh client process (client.py).  Every verdict is checked against the
reference recorded in perfbench/references/; an instance whose records
hold ``fail`` or ``incomplete``, that raised, or whose verdict differs from
the reference counts as failed, and any failure makes the exit code 1.
The last line of standard output is the JSON result.  Metadata and the raw
per-pass figures go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 15
# A run's clients must finish within --seconds plus this: set-up samples, and
# on a traced run one untraced, one traced and one counting pass plus micro-timings.
SLACK_S = 145.0
STATUS_CODES = {"pass": "p", "fail": "f", "not_applicable": "n", "incomplete": "i"}
REPORT_FACTS = ("|Aut|", "max_arc_s", "max_geodesic_s")



class BenchError(Exception):
    """The benchmark could not produce a result."""


# ----------------------------------------------------------------------
# reference verdicts


def load_reference(workload: Workload) -> dict:
    with open(HERE / "references" / workload.reference) as handle:
        return json.load(handle)


def measured_slice(workload: Workload, reference: dict) -> list | None:
    """Descriptors one serial pass measures, in corpus order; None = whole config.

    The reference corpus is ordered by |Aut| (largest first, ties in corpus
    order) and every ``stride``-th instance is kept.
    """
    if workload.parallel:
        return None
    rows = reference["instances"]
    frame = sorted(range(len(rows)), key=lambda i: (-rows[i]["aut"], i))
    return [rows[i]["descriptor"] for i in sorted(frame[:: workload.stride])]


def report_facts(notes: str) -> dict[str, int]:
    fields = dict(token.split("=", 1) for token in notes.split() if "=" in token)
    return {key: int(fields[key]) for key in REPORT_FACTS if key in fields}


def verdict_problem(row: dict | None, checks: list[str], instance: dict) -> str | None:
    """Why an instance's verdict is not acceptable, or None when it is."""
    if instance["error"]:
        return f"raised {instance['error']}"
    if row is None:
        return "instance not in the reference"
    records = instance["records"] or []
    got = {check: status for check, status, _ in records}
    if sorted(got) != sorted(checks) or len(records) != len(checks):
        return f"record ids {sorted(got)} differ from the reference's"
    for check, status in zip(checks, row["status"]):
        code = STATUS_CODES.get(got[check], "?")
        if got[check] in ("fail", "incomplete"):
            return f"{check} is {got[check]}"
        if code != status and not (status == "i" and code == "p"):
            return f"{check}: reference {status}, got {got[check]}"
    notes = next(n for c, _, n in records if c == "report") if "report" in got else ""
    facts = report_facts(notes)
    expected = {"|Aut|": row["aut"], "max_arc_s": row["max_arc_s"],
                "max_geodesic_s": row["max_geodesic_s"]}
    if "report" in got and facts != expected:
        return f"report facts {facts}, reference {expected}"
    return None


def gate(reference: dict, passes: list[dict], expected: int | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every instance of every pass."""
    by_label = {row["label"]: row for row in reference["instances"]}
    by_descriptor = {json.dumps(row["descriptor"]): row for row in reference["instances"]}
    attempted = failed = 0
    problems = []
    for p in passes:
        instances = p["instances"]
        size = expected if expected is not None else len(instances)
        attempted += size
        if p.get("error"):
            failed += size
            problems.append(f"pass raised {p['error']}")
            continue
        missing = size - len(instances)
        if missing > 0:
            failed += missing
            problems.append(f"{missing} instances missing from the survey")
        for instance in instances:
            if instance["descriptor"] is not None:
                row = by_descriptor.get(json.dumps(instance["descriptor"]))
            else:
                row = by_label.get(instance["label"])
            problem = verdict_problem(row, reference["checks"], instance)
            if problem:
                failed += 1
                problems.append(f"{instance['label'] or instance['descriptor']}: {problem}")
    return attempted, failed, problems


# ----------------------------------------------------------------------
# clients


class Clients:
    """Starts client processes against one overall deadline."""

    def __init__(self, workload: Workload, seed: int, tag: str, seconds: float):
        self.workload = workload
        self.seed = seed
        self.tag = tag
        self.limit_s = seconds + SLACK_S
        self.deadline = time.monotonic() + self.limit_s

    def run(self, mode: str, slice_=None, seconds: float = 0.0) -> dict:
        config = dict(self.workload.config, parallelism=self.workload.parallelism,
                      seed=self.seed)
        job = {"mode": mode, "config": config, "slice": slice_, "seed": self.seed,
               "seconds": seconds, "out_dir": OUT_DIR, "tag": f"{self.tag}-{mode}"}
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "client.py")], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,  # pool workers share the group, for cleanup
        )
        try:
            out, err = proc.communicate(json.dumps(job), timeout=max(1.0, self.deadline - started))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise BenchError(f"{mode} client exceeded the {self.limit_s:.0f} s run limit")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"{mode} client exited with {proc.returncode}: {err.strip()[-2000:]}")
        result = json.loads(out.strip().splitlines()[-1])
        result["setup_s"] = result["ready"] - started
        return result


# ----------------------------------------------------------------------
# metrics


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-th percentile, q in (0, 100).

    A weighted mean of all order statistics, rank i of n weighted by the
    mass a Beta(p(n+1), (1-p)(n+1)) distribution puts on [i/n, (i+1)/n]
    (p = q/100).  Near the 90th percentile the latencies here climb steeply
    from one instance to the next, so a single order statistic jumps with
    every reordering; this estimate moves smoothly.
    """
    ordered = sorted(values)
    n, p = len(ordered), q / 100
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x: float) -> float:
        if not 0 < x < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    # Simpson's rule on each rank's interval; the sum of the weights is 1
    # up to the rule's error, which the division removes.
    weights = [density(i / n) + 4 * density((i + 0.5) / n) + density((i + 1) / n)
               for i in range(n)]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def pass_slowdown(p: dict) -> tuple[list[float], float]:
    """Per instance the slowdown during it, and the pass's overall slowdown.

    In a serial pass the overall slowdown is the instance-time-weighted one,
    Σt / Σ(t/k).  In a pooled pass every verdict waits for the whole survey,
    so all instances get the overall slowdown, the mean over the samples
    the workers took while they worked.
    """
    if "pool_calibration" in p:
        if not p["pool_calibration"]:
            raise BenchError("the pool workers logged no calibration samples; the wrapper "
                             "reaches them only when they are forked from the client")
        overall = calibration.mean_slowdown(p["pool_calibration"])
        return [overall] * len(p["instances"]), overall
    times = [i["seconds"] for i in p["instances"]]
    factors = calibration.local_slowdowns(p["calibration"],
                                          [i["calibration_at"] for i in p["instances"]])
    return factors, sum(times) / sum(t / k for t, k in zip(times, factors))


def end_to_end(passes: list[dict], setup: list[dict], peak_rss_kb: int,
               adjust: bool = True) -> dict[str, float]:
    """The end-to-end metrics, timings scaled by the calibrated slowdown.

    Each instance's time is divided by the slowdown around it and a pass's
    wall time by the pass's overall slowdown (pass_slowdown).  Each set-up
    sample is divided by the slowdown sampled in the same process right
    after it.  A run reports the median over its passes; ``adjust=False``
    gives the raw figures, which the output and the results file keep
    beside the scaled ones.
    """
    def per_pass(metric):
        values = []
        for p in passes:
            factors, overall = pass_slowdown(p) if adjust else ([1.0] * len(p["instances"]), 1.0)
            times = [i["seconds"] / k for i, k in zip(p["instances"], factors)]
            values.append(metric(times, p["wall_s"] / overall))
        return statistics.median(values)

    return {
        "instances_per_s": per_pass(lambda times, wall: len(times) / wall),
        "verdict_p50_ms": per_pass(lambda times, wall: percentile(times, 50) * 1e3),
        "verdict_p90_ms": per_pass(lambda times, wall: percentile(times, 90) * 1e3),
        "setup_s": statistics.median(
            s["setup_s"] / (calibration.slowdown(s["calibration"]) if adjust else 1.0)
            for s in setup),
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def per_layer(plain: dict, spans: dict, counts: dict, micro: dict) -> dict[str, float]:
    (untraced,), (traced,) = plain["passes"], spans["passes"]
    metrics = dict(spans["layers"])
    for check, seconds in spans["check_s"].items():
        metrics[f"verify.check_s.{check}"] = seconds
    metrics["verify.pool_busy_frac"] = untraced["worker_cpu_s"] / (
        untraced["workers"] * untraced["wall_s"])
    metrics["verify.parent_cpu_s"] = untraced["parent_cpu_s"]
    metrics.update(counts["counts"])
    metrics.update(micro["micro"])
    metrics["trace.untraced_wall_s"] = untraced["wall_s"]
    metrics["trace.traced_wall_s"] = traced["wall_s"]
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    metrics["trace.spans"] = spans["spans"]
    return metrics


def metric_units(trace: bool) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


# ----------------------------------------------------------------------
# metadata


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def metadata(workload: str, seed: int, trace: bool) -> dict:
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)), "loadavg_start": os.getloadavg(),
        "commit": git_commit(), "client": "1 closed-loop client",
    }


# ----------------------------------------------------------------------


def measure(workload: Workload, reference: dict, seed: int, seconds: float,
            trace: bool) -> dict:
    """Run one benchmark run; returns the result and the metadata."""
    meta = metadata(workload.name, seed, trace)
    clients = Clients(workload, seed, f"{workload.name}-seed{seed}", seconds)
    slice_ = measured_slice(workload, reference)
    if trace:
        plain = clients.run("plain", slice_, 0.0)  # exactly one pass
        spans = clients.run("spans", slice_)
        counts = clients.run("counts", slice_)
        micro = clients.run("micro")
        passes = plain["passes"] + spans["passes"] + counts["passes"]
        metrics = per_layer(plain, spans, counts, micro)
        meta["spans_file"] = spans.get("spans_file")
        meta["pool_workers_traced"] = spans["workers_traced"]
        meta["untraced_functions"] = spans["missing"]
        meta["self_s"] = dict(sorted(spans["self_s"].items(), key=lambda kv: -kv[1]))
    else:
        setup = [clients.run("setup") for _ in range(SETUP_SAMPLES)]
        plain = clients.run("plain", slice_, seconds)
        passes = plain["passes"]
        metrics = end_to_end(passes, setup, plain["peak_rss_kb"])
        meta["unadjusted"] = end_to_end(passes, setup, plain["peak_rss_kb"], adjust=False)
        meta["slowdown"] = [pass_slowdown(p)[1] for p in passes]
        meta["setup_samples"] = setup
        meta["calibration"] = [p.get("calibration") or p["pool_calibration"] for p in passes]
        meta["instance_s"] = [[i["seconds"] for i in p["instances"]] for p in passes]
        meta["calibration_at"] = [[i.get("calibration_at") for i in p["instances"]]
                                  for p in passes]
    expected = plain["corpus_size"] if workload.parallel else None
    attempted, failed, problems = gate(reference, passes, expected)
    meta["loadavg_end"] = os.getloadavg()
    meta["passes"] = [{"instances": len(p["instances"]), "wall_s": p["wall_s"]} for p in passes]
    meta["samples"] = sum(len(p["instances"]) for p in passes)
    meta["problems"] = problems[:50]
    return {"meta": meta, "metrics": metrics, "attempted": attempted, "failed": failed}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "digsym" / "__init__.py").is_file():
        print(f"no digsym sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    try:
        units = metric_units(trace)
        run = measure(workload, load_reference(workload), args.seed, args.seconds, trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    missing = set(units) - set(run["metrics"])
    if missing:
        print(f"benchmark failed: metrics not produced: {sorted(missing)}", file=sys.stderr)
        return 1
    (ROOT / OUT_DIR).mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(ROOT / OUT_DIR / f"result-{tag}.json", "w") as out:
        json.dump(run, out, indent=1)
    print("\n".join(render(run, units)))
    return 0 if run["failed"] == 0 else 1


def render(run: dict, units: dict[str, str]) -> list[str]:
    """Human-readable lines, then the JSON result as the last line."""
    meta, metrics = run["meta"], run["metrics"]
    lines = [" ".join(f"{k}={meta[k]}" for k in (
        "workload", "seed", "trace", "python", "nproc", "cpus_usable", "commit"))]
    lines.append(f"loadavg start={meta['loadavg_start']} end={meta['loadavg_end']}")
    for i, p in enumerate(meta["passes"], 1):
        lines.append(f"pass {i}: {p['instances']} instances in {p['wall_s']:.2f} s")
    for name, unit in units.items():
        lines.append(f"{name:42} {metrics[name]:>14.6g} {unit}")
    if not meta["trace"]:
        lines.append(f"verdict latency samples: {meta['samples']}")
        lines.append("slowdown against the calibration reference: "
                     + ", ".join(f"{k:.4f}" for k in meta["slowdown"]))
        lines += [f"{name:42} {value:>14.6g} {units[name]} (unadjusted)"
                  for name, value in meta["unadjusted"].items()]
    lines.append(f"failed_frac {run['failed'] / run['attempted']:.6g} "
                 f"({run['failed']} of {run['attempted']} instances)")
    lines += [f"FAILED {problem}" for problem in meta["problems"]]
    lines.append(json.dumps({
        "correct": run["failed"] == 0, "attempted": run["attempted"], "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return lines


if __name__ == "__main__":
    sys.exit(main())
