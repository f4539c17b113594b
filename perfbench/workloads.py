"""Workload definitions for the digsym benchmark.

A workload is a survey configuration (keyword arguments of
``digsym.verify.SurveyConfig``), the reference file that records the verdict
of every instance of its corpus, and the part of that corpus one pass
measures.

The corpora are exhaustive and heavy-tailed (a handful of instances cost
seconds, the median costs tens of milliseconds), and a whole corpus takes
longer than one run may.  So a serial pass measures a fixed slice instead of
a random sample: the corpus is ordered by recorded |Aut|, largest first with
ties in corpus order, and every ``stride``-th instance is kept.  This
systematic sample keeps the |Aut| profile of the corpus, its expensive tail
included, and every seed measures the same work; the seed only shuffles the
order in which the instances are fed.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_CONFIG = {
    "circulant_orders": list(range(4, 15)),
    "cayley_groups": ["abelian:2x4", "abelian:3x3", "abelian:2x6"],
    "paley_primes": [7, 11, 19],
    "min_valency": 2,
    "max_valency": 5,
    "max_vertices": 14,
}


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict
    reference: str  # file under perfbench/references/
    stride: int = 1  # serial workloads: keep every stride-th instance
    parallelism: int = 1  # above 1: the whole config goes through run_survey

    @property
    def parallel(self) -> bool:
        return self.parallelism > 1


WORKLOADS = {
    w.name: w
    for w in (
        # The north star: default_config(), all 9 check ids, the public
        # per-instance path run_survey takes, serially.
        Workload("survey_default", DEFAULT_CONFIG, "survey_default.json", stride=8),
        # Connected antisymmetric circulants 15 <= n <= 20 with |S| = 2 plus
        # Paley tournaments: long diameters make tuple families large.
        Workload(
            "analyze_n20",
            {
                "circulant_orders": list(range(15, 21)),
                "paley_primes": [23, 31, 43, 47],
                "min_valency": 2,
                "max_valency": 2,
                "max_vertices": 20,
                "checks": ["report", "L2.1", "T1.4i", "T1.4ii"],
            },
            "analyze_n20.json",
            stride=5,
        ),
        # Default-corpus families through run_survey's process pool: many
        # small instances plus two |Aut| = 41472 stragglers.
        Workload(
            "survey_par2",
            {**DEFAULT_CONFIG, "circulant_orders": list(range(4, 12)),
             "cayley_groups": ["abelian:2x6"]},
            "survey_default.json",
            parallelism=2,
        ),
    )
}
