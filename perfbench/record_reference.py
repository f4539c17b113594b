"""Record the reference verdicts of a workload's whole corpus.

    python3 perfbench/record_reference.py survey_default analyze_n20

Runs every instance of each named workload's config serially through the
same client path the benchmark uses and writes perfbench/references/<file>.
Record only at a commit whose tier-1 tests (including the oracle
cross-checks) pass: the benchmark treats these verdicts as correct.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import client  # noqa: E402
from run import STATUS_CODES, git_commit, report_facts  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def build_reference(name: str, config: dict) -> dict:
    survey_config = client.verify.SurveyConfig.from_dict(config)
    corpus = client.verify.generate_descriptors(survey_config)
    result = client.serial_pass(corpus, survey_config.checks)
    rows, checks = [], None
    for instance in result["instances"]:
        if instance["error"]:
            raise SystemExit(f"{instance['descriptor']}: {instance['error']}")
        ids = [check for check, _, _ in instance["records"]]
        if checks is None:
            checks = ids
        elif ids != checks:
            raise SystemExit(f"{instance['label']}: record ids {ids} != {checks}")
        facts = report_facts(next(n for c, _, n in instance["records"] if c == "report"))
        rows.append({
            "label": instance["label"], "descriptor": instance["descriptor"],
            "aut": facts["|Aut|"], "max_arc_s": facts["max_arc_s"],
            "max_geodesic_s": facts["max_geodesic_s"],
            "status": "".join(STATUS_CODES[s] for _, s, _ in instance["records"]),
        })
    return {"workload": name, "commit": git_commit(), "config": config,
            "checks": checks, "wall_s": round(result["wall_s"], 1), "instances": rows}


def write_reference(path: Path, reference: dict) -> None:
    """JSON with one instance per line, so diffs stay readable."""
    header = {k: v for k, v in reference.items() if k != "instances"}
    body = ",\n".join("  " + json.dumps(row, separators=(",", ":"))
                      for row in reference["instances"])
    with open(path, "w") as out:
        out.write(f'{json.dumps(header)[:-1]}, "instances": [\n{body}\n]}}\n')


if __name__ == "__main__":
    for workload_name in sys.argv[1:] or ["survey_default", "analyze_n20"]:
        workload = WORKLOADS[workload_name]
        path = HERE / "references" / workload.reference
        write_reference(path, build_reference(workload_name, workload.config))
        print(path)
