"""Degradation detection between profile batches (perun's ``check`` idiom).

Two stages, both deterministic and stdlib-only:

1. **Median-ratio screen** -- the fast path.  ``ratio = median(target) /
   median(baseline)``; batches whose medians differ by less than the
   degradation/optimization thresholds (or by less than an absolute jitter
   floor, :attr:`Thresholds.min_delta_s`) are ``NoChange`` without any
   statistics.  This is perun's ``degradation_profiles`` best-model screen
   reduced to the one model our samples need.

2. **Nonparametric confirmation** -- batches that trip the screen are
   confirmed with an *exact* one-sided rank permutation test (the
   Mann-Whitney/Wilcoxon rank-sum statistic evaluated against its exact
   permutation null, midranks for ties).  Exactness matters at benchmark
   sample sizes: with 5-vs-5 repeats the normal approximation is badly
   behaved, while the exact null has only ``C(10,5) = 252`` states.  Large
   batches (beyond :data:`_EXACT_LIMIT` permutation states) fall back to
   the tie-corrected normal approximation with continuity correction.

Verdicts are typed (:class:`Verdict`): ``Degradation`` needs *both* a
median ratio past the threshold *and* rank-test significance;
``MaybeDegradation`` is a tripped screen the rank test could not confirm
(the CI gate does not fail on it); ``Optimization`` is the mirror image on
the fast side.  Degradations carry a severity derived from the ratio
(``minor`` < 1.5x <= ``major`` < 2.5x <= ``severe``).

Two guards hold the false-alarm rate down.  The reported p-value is a
mid-p; when the plain exact null cannot go below ``alpha`` at all
(``1 / C(n1 + n2, n2) >= alpha``: 3-vs-3 repeats give 1/20) nothing is
confirmed.  And ``perf check`` tests its scenarios as one family:
:func:`holm` applies Holm's step-down across them.

Everything here is a pure function of its inputs: the same two sample
batches always produce byte-identical comparisons, which the soundness
tests assert.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Any, Sequence

__all__ = [
    "Comparison",
    "Thresholds",
    "Verdict",
    "compare_samples",
    "holm",
    "rank_sum_p_value",
    "severity_for_ratio",
]

#: Largest number of permutation states the exact test enumerates; beyond
#: it the tie-corrected normal approximation takes over (12-vs-12 repeats
#: is still exact: C(24, 12) = 2.7M > limit, so the cap binds just above
#: the repeat counts benchmarks actually use).
_EXACT_LIMIT = 400_000


class Verdict:
    """The four typed comparison outcomes (string constants, not an enum,
    so verdicts serialise naturally into JSON and markdown)."""

    OPTIMIZATION = "Optimization"
    NO_CHANGE = "NoChange"
    MAYBE_DEGRADATION = "MaybeDegradation"
    DEGRADATION = "Degradation"

    ALL = (OPTIMIZATION, NO_CHANGE, MAYBE_DEGRADATION, DEGRADATION)


@dataclass(frozen=True)
class Thresholds:
    """Detector tuning; the defaults are what ``perf check`` gates CI on.

    Attributes:
        degradation_ratio: Median ratio at which the slow-side screen trips.
        optimization_ratio: Median ratio at which the fast-side screen trips.
        alpha: Significance level the rank test must reach to confirm.
        min_delta_s: Absolute median-difference jitter floor (seconds);
            micro-scenario noise below it can never trip either screen.
        major_ratio: Severity boundary minor -> major.
        severe_ratio: Severity boundary major -> severe.
    """

    degradation_ratio: float = 1.25
    optimization_ratio: float = 0.80
    alpha: float = 0.05
    min_delta_s: float = 0.002
    major_ratio: float = 1.5
    severe_ratio: float = 2.5


@dataclass(frozen=True)
class Comparison:
    """The typed outcome of comparing one scenario across two batches."""

    verdict: str
    severity: str | None
    ratio: float
    p_value: float | None
    baseline_median: float
    target_median: float
    baseline_samples: int
    target_samples: int

    @property
    def is_degradation(self) -> bool:
        return self.verdict == Verdict.DEGRADATION

    def to_json(self) -> dict[str, Any]:
        return {
            "verdict": self.verdict,
            "severity": self.severity,
            "ratio": round(self.ratio, 6),
            "p_value": None if self.p_value is None else round(self.p_value, 8),
            "baseline_median_s": self.baseline_median,
            "target_median_s": self.target_median,
            "baseline_samples": self.baseline_samples,
            "target_samples": self.target_samples,
        }


def severity_for_ratio(ratio: float, thresholds: Thresholds) -> str:
    if ratio >= thresholds.severe_ratio:
        return "severe"
    if ratio >= thresholds.major_ratio:
        return "major"
    return "minor"


def _midranks(values: Sequence[float]) -> list[float]:
    """Ranks of the sorted combined sample, ties sharing their midrank."""
    ranks = [0.0] * len(values)
    index = 0
    while index < len(values):
        tie_end = index
        while tie_end + 1 < len(values) and values[tie_end + 1] == values[index]:
            tie_end += 1
        midrank = (index + tie_end) / 2 + 1  # ranks are 1-based
        for position in range(index, tie_end + 1):
            ranks[position] = midrank
        index = tie_end + 1
    return ranks


def rank_sum_p_value(
    baseline: Sequence[float],
    target: Sequence[float],
    alternative: str = "greater",
) -> float:
    """One-sided rank-sum p-value for *target* vs *baseline*.

    ``alternative="greater"`` tests whether target values are
    stochastically *larger* (slower); ``"less"`` is the mirror.  Exact
    permutation null (midranks for ties) up to :data:`_EXACT_LIMIT`
    states, tie-corrected normal approximation beyond.
    """
    if alternative not in ("greater", "less"):
        raise ValueError(f"unknown alternative {alternative!r}")
    if not baseline or not target:
        raise ValueError("both sample batches must be non-empty")
    combined = sorted(
        [(value, 0) for value in baseline] + [(value, 1) for value in target]
    )
    values = [value for value, _side in combined]
    ranks = _midranks(values)
    observed = sum(
        rank for rank, (_value, side) in zip(ranks, combined) if side == 1
    )
    n_target = len(target)
    total_states = math.comb(len(values), n_target)
    if total_states <= _EXACT_LIMIT:
        hits = 0
        for chosen in combinations(range(len(values)), n_target):
            rank_sum = sum(ranks[position] for position in chosen)
            if alternative == "greater":
                # half-weight exactly-equal states: the mid-p convention
                # keeps the two one-sided tests symmetric under ties
                hits += 2 * (rank_sum > observed) + (rank_sum == observed)
            else:
                hits += 2 * (rank_sum < observed) + (rank_sum == observed)
        return hits / (2 * total_states)
    return _normal_approximation(ranks, observed, len(baseline), n_target, alternative)


def _normal_approximation(
    ranks: Sequence[float],
    observed: float,
    n_baseline: int,
    n_target: int,
    alternative: str,
) -> float:
    total = n_baseline + n_target
    mean = n_target * (total + 1) / 2
    tie_term = 0.0
    index = 0
    while index < len(ranks):
        tie_end = index
        while tie_end + 1 < len(ranks) and ranks[tie_end + 1] == ranks[index]:
            tie_end += 1
        tie_size = tie_end - index + 1
        tie_term += tie_size**3 - tie_size
        index = tie_end + 1
    variance = (
        n_baseline * n_target / 12 * ((total + 1) - tie_term / (total * (total - 1)))
    )
    if variance <= 0:
        return 0.5  # every value tied: no evidence either way
    if alternative == "greater":
        z = (observed - mean - 0.5) / math.sqrt(variance)
    else:
        z = (mean - observed - 0.5) / math.sqrt(variance)
    return 0.5 * math.erfc(z / math.sqrt(2))


def compare_samples(
    baseline: Sequence[float],
    target: Sequence[float],
    thresholds: Thresholds | None = None,
) -> Comparison:
    """Screen then confirm: the full detector over two sample batches."""
    thresholds = thresholds or Thresholds()
    if not baseline or not target:
        raise ValueError("both sample batches must be non-empty")
    baseline_median = float(statistics.median(baseline))
    target_median = float(statistics.median(target))
    ratio = (
        target_median / baseline_median
        if baseline_median > 0
        else (math.inf if target_median > 0 else 1.0)
    )

    def result(
        verdict: str, severity: str | None, p_value: float | None
    ) -> Comparison:
        return Comparison(
            verdict=verdict,
            severity=severity,
            ratio=ratio,
            p_value=p_value,
            baseline_median=baseline_median,
            target_median=target_median,
            baseline_samples=len(baseline),
            target_samples=len(target),
        )

    if abs(target_median - baseline_median) < thresholds.min_delta_s:
        return result(Verdict.NO_CHANGE, None, None)
    # the plain exact null's smallest p-value must be able to beat alpha
    powered = 1 / math.comb(len(baseline) + len(target), len(target)) < thresholds.alpha
    if ratio >= thresholds.degradation_ratio:
        p_value = rank_sum_p_value(baseline, target, "greater")
        severity = severity_for_ratio(ratio, thresholds)
        if powered and p_value <= thresholds.alpha:
            return result(Verdict.DEGRADATION, severity, p_value)
        return result(Verdict.MAYBE_DEGRADATION, severity, p_value)
    if ratio <= thresholds.optimization_ratio:
        p_value = rank_sum_p_value(baseline, target, "less")
        if powered and p_value <= thresholds.alpha:
            return result(Verdict.OPTIMIZATION, None, p_value)
        return result(Verdict.NO_CHANGE, None, p_value)
    return result(Verdict.NO_CHANGE, None, None)


def holm(
    comparisons: Sequence[Comparison], thresholds: Thresholds | None = None
) -> list[Comparison]:
    """Holm's step-down over one family of comparisons (one ``perf check``).

    The p-value at rank ``i`` (0-based, ascending; none counts as 1) passes
    while it and every smaller one are at most ``alpha / (m - i)``; a
    confirmation that does not pass is demoted to ``MaybeDegradation`` /
    ``NoChange``, as an unconfirmed screen reports.
    """
    alpha = (thresholds or Thresholds()).alpha
    m = len(comparisons)
    p = [1.0 if c.p_value is None else c.p_value for c in comparisons]
    demoted = {
        Verdict.DEGRADATION: Verdict.MAYBE_DEGRADATION,
        Verdict.OPTIMIZATION: Verdict.NO_CHANGE,
    }
    adjusted = list(comparisons)
    passing = True
    for rank, index in enumerate(sorted(range(m), key=p.__getitem__)):
        passing = passing and p[index] <= alpha / (m - rank)
        verdict = comparisons[index].verdict
        if not passing and verdict in demoted:
            adjusted[index] = replace(comparisons[index], verdict=demoted[verdict])
    return adjusted
