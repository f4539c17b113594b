"""The survey corpora that several test modules share."""

from digsym.verify import SurveyConfig

# The benchmark's analyze_n20 workload: connected antisymmetric circulants
# 15 <= n <= 20 with |S| = 2 and the Paley tournaments 23 to 47, 616
# instances whose diameters reach 10, under four checks.
ANALYZE_N20_CONFIG = SurveyConfig(
    circulant_orders=tuple(range(15, 21)),
    paley_primes=(23, 31, 43, 47),
    min_valency=2,
    max_valency=2,
    max_vertices=20,
    checks=("report", "L2.1", "T1.4i", "T1.4ii"),
)
