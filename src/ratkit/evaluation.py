"""Corpus BLEU, suggestion-usage overlap, paired bootstrap, report aggregation.

BLEU follows the mteval conventions: 13a tokenization, mixed case, a single
reference, clipped 1..4-gram precisions pooled corpus-wide, exponential
smoothing for zero-match orders, and no effective-order reduction. Scores are
on the 0..100 scale.

The paired bootstrap resamples test-set sentence indices with replacement and
scores both systems on every resample. Ties count against significance: the
p-value is the fraction of resamples in which the observed winner failed to
win strictly, so identical systems come out at p = 1.0.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .augmentation import AugmentedExample
from .corpus import tokenize_13a
from .errors import AggregationError, ValidationError
from .seeding import derived_rng

NGRAM_ORDER = 4


@dataclass(frozen=True)
class BleuScore:
    """Corpus BLEU with its sufficient statistics.

    ``precisions`` are fractions in [0, 1]; ``score`` is 100-based. The
    brevity penalty is 1 when the hypothesis side is at least as long as the
    reference side, else exp(1 - ref/hyp) (0 for an empty hypothesis corpus).
    """

    score: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_length: int
    ref_length: int

    def to_dict(self) -> dict:
        return {
            "score": self.score,
            "precisions": list(self.precisions),
            "brevity_penalty": self.brevity_penalty,
            "hyp_length": self.hyp_length,
            "ref_length": self.ref_length,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BleuScore":
        return cls(
            score=data["score"],
            precisions=tuple(data["precisions"]),
            brevity_penalty=data["brevity_penalty"],
            hyp_length=data["hyp_length"],
            ref_length=data["ref_length"],
        )


@dataclass(frozen=True)
class SignificanceResult:
    """Outcome of one paired bootstrap comparison between systems A and B."""

    p_value: float
    wins_a: int
    wins_b: int
    ties: int
    observed_delta: float
    n_samples: int
    significant: bool

    def to_dict(self) -> dict:
        return {
            "p_value": self.p_value,
            "wins_a": self.wins_a,
            "wins_b": self.wins_b,
            "ties": self.ties,
            "observed_delta": self.observed_delta,
            "n_samples": self.n_samples,
            "significant": self.significant,
        }


@dataclass(frozen=True)
class OverlapResult:
    """Per-sentence suggestion-usage fractions and their mean as a percentage.

    Sentences without suggestion tokens carry ``None`` and are skipped in the
    mean; if every sentence is skipped the mean itself is ``None``.
    """

    fractions: tuple[float | None, ...]
    mean_pct: float | None


def _ngram_counts(tokens: list[str]) -> list[Counter]:
    counts = []
    for n in range(1, NGRAM_ORDER + 1):
        counts.append(Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)))
    return counts


def sentence_stats(hypothesis: str, reference: str) -> list[int]:
    """Clipped-match sufficient statistics for one sentence pair.

    Returns [correct1..4, total1..4, hyp_len, ref_len]; summing these over
    sentences and feeding :func:`score_from_stats` gives corpus BLEU.
    """
    hyp_tokens = tokenize_13a(hypothesis.rstrip())
    ref_tokens = tokenize_13a(reference.rstrip())
    hyp_ngrams = _ngram_counts(hyp_tokens)
    ref_ngrams = _ngram_counts(ref_tokens)
    correct = [
        sum(min(count, ref_ngrams[n][gram]) for gram, count in hyp_ngrams[n].items())
        for n in range(NGRAM_ORDER)
    ]
    total = [sum(hyp_ngrams[n].values()) for n in range(NGRAM_ORDER)]
    return correct + total + [len(hyp_tokens), len(ref_tokens)]


def score_from_stats(stats) -> BleuScore:
    """Combine summed sufficient statistics into a BleuScore.

    Exponential smoothing: for each order whose match count is zero (but with
    a nonzero total), the smoothing denominator s doubles and the precision
    becomes 1 / (s * total). Orders with no n-grams at all leave a zero
    precision, which collapses the geometric mean (and the score) to zero.
    """
    correct = [int(x) for x in stats[0:NGRAM_ORDER]]
    total = [int(x) for x in stats[NGRAM_ORDER : 2 * NGRAM_ORDER]]
    hyp_len = int(stats[2 * NGRAM_ORDER])
    ref_len = int(stats[2 * NGRAM_ORDER + 1])

    precisions = [0.0] * NGRAM_ORDER
    smooth = 1.0
    for n in range(NGRAM_ORDER):
        if total[n] == 0:
            break
        if correct[n] == 0:
            smooth *= 2.0
            precisions[n] = 1.0 / (smooth * total[n])
        else:
            precisions[n] = correct[n] / total[n]

    if hyp_len == 0:
        brevity_penalty = 0.0
    elif hyp_len >= ref_len:
        brevity_penalty = 1.0
    else:
        brevity_penalty = math.exp(1.0 - ref_len / hyp_len)

    if brevity_penalty == 0.0 or any(p == 0.0 for p in precisions):
        score = 0.0
    else:
        score = brevity_penalty * math.exp(
            sum(math.log(p) for p in precisions) / NGRAM_ORDER
        ) * 100.0
    return BleuScore(
        score=score,
        precisions=tuple(precisions),
        brevity_penalty=brevity_penalty,
        hyp_length=hyp_len,
        ref_length=ref_len,
    )


def bleu_corpus(hypotheses: list[str], references: list[str]) -> BleuScore:
    """Corpus BLEU of line-aligned hypothesis and reference lists."""
    if len(hypotheses) != len(references):
        raise ValidationError(
            f"hypothesis/reference length mismatch: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise ValidationError("cannot score an empty corpus")
    totals = np.zeros(2 * NGRAM_ORDER + 2, dtype=np.int64)
    for hyp, ref in zip(hypotheses, references):
        totals += np.asarray(sentence_stats(hyp, ref), dtype=np.int64)
    return score_from_stats(totals)


def suggestion_overlap(
    examples: list[AugmentedExample],
    outputs: list[str],
    counting: str = "type",
    average: str = "sentence",
) -> OverlapResult:
    """How much of the suggestion text reappears in the system outputs.

    Per sentence, the fraction of suggestion token instances (13a tokens of
    the concatenated suggestion targets) whose type occurs among the output's
    token types. ``counting="clipped"`` switches the numerator to multiset
    clipping against the output counts; ``average="corpus"`` pools numerators
    and denominators over sentences instead of averaging the fractions.
    """
    if len(examples) != len(outputs):
        raise ValidationError(
            f"examples/outputs length mismatch: {len(examples)} vs {len(outputs)}"
        )
    if counting not in ("type", "clipped"):
        raise ValidationError(f"unknown counting mode {counting!r}")
    if average not in ("sentence", "corpus"):
        raise ValidationError(f"unknown averaging mode {average!r}")

    fractions: list[float | None] = []
    hit_sum = 0
    token_sum = 0
    for example, output in zip(examples, outputs):
        suggestion_tokens = tokenize_13a(" ".join(m.target for m in example.suggestions))
        if not suggestion_tokens:
            fractions.append(None)
            continue
        output_tokens = tokenize_13a(output)
        if counting == "type":
            output_types = set(output_tokens)
            hits = sum(1 for token in suggestion_tokens if token in output_types)
        else:
            output_counts = Counter(output_tokens)
            hits = sum(
                min(count, output_counts[token])
                for token, count in Counter(suggestion_tokens).items()
            )
        fractions.append(hits / len(suggestion_tokens))
        hit_sum += hits
        token_sum += len(suggestion_tokens)

    valid = [f for f in fractions if f is not None]
    if not valid:
        mean_pct = None
    elif average == "sentence":
        mean_pct = 100.0 * sum(valid) / len(valid)
    else:
        mean_pct = 100.0 * hit_sum / token_sum
    return OverlapResult(fractions=tuple(fractions), mean_pct=mean_pct)


@dataclass(frozen=True)
class BootstrapConfig:
    """Paired bootstrap settings: resample count, p-value threshold, seed."""

    n_samples: int = 1000
    threshold: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValidationError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 0.0 < self.threshold < 1.0:
            raise ValidationError(f"threshold must be in (0, 1), got {self.threshold}")


def paired_bootstrap(
    hyps_a: list[str],
    hyps_b: list[str],
    refs: list[str],
    n_samples: int = BootstrapConfig.n_samples,
    threshold: float = BootstrapConfig.threshold,
    seed: int = BootstrapConfig.seed,
) -> SignificanceResult:
    """Paired bootstrap resampling over sentences, comparing systems A and B.

    Each resample draws len(refs) sentence indices with replacement (one
    sub-seed per resample index, so parallel and sequential evaluation have
    to agree) and scores both systems on the resampled corpus. The p-value
    counts the resamples in which the full-set winner did not win strictly.
    A zero observed delta is never significant.
    """
    if not (len(hyps_a) == len(hyps_b) == len(refs)):
        raise ValidationError(
            f"alignment mismatch: a={len(hyps_a)} b={len(hyps_b)} refs={len(refs)}"
        )
    if not refs:
        raise ValidationError("cannot bootstrap an empty test set")
    BootstrapConfig(n_samples, threshold, seed)  # checks the settings' ranges

    stats_a = np.asarray([sentence_stats(h, r) for h, r in zip(hyps_a, refs)], dtype=np.int64)
    stats_b = np.asarray([sentence_stats(h, r) for h, r in zip(hyps_b, refs)], dtype=np.int64)
    observed_delta = (
        score_from_stats(stats_a.sum(axis=0)).score - score_from_stats(stats_b.sum(axis=0)).score
    )

    num_sentences = len(refs)
    wins_a = wins_b = ties = 0
    for i in range(n_samples):
        rng = derived_rng(seed, i)
        idx = [rng.randrange(num_sentences) for _ in range(num_sentences)]
        weights = np.bincount(idx, minlength=num_sentences)
        score_a = score_from_stats(weights @ stats_a).score
        score_b = score_from_stats(weights @ stats_b).score
        if score_a > score_b:
            wins_a += 1
        elif score_b > score_a:
            wins_b += 1
        else:
            ties += 1

    if observed_delta > 0:
        p_value = (wins_b + ties) / n_samples
    elif observed_delta < 0:
        p_value = (wins_a + ties) / n_samples
    else:
        p_value = 1.0
    return SignificanceResult(
        p_value=p_value,
        wins_a=wins_a,
        wins_b=wins_b,
        ties=ties,
        observed_delta=observed_delta,
        n_samples=n_samples,
        significant=observed_delta != 0 and p_value < threshold,
    )


@dataclass(frozen=True)
class CellResult:
    """BLEU and overlap for one (domain, k, scenario, system) grid cell."""

    domain: str
    k: int
    scenario: str
    system: str
    bleu: BleuScore
    overlap_pct: float | None

    @property
    def key(self) -> tuple[str, int, str, str]:
        return (self.domain, self.k, self.scenario, self.system)

    def to_dict(self) -> dict:
        return {
            "domain": self.domain,
            "k": self.k,
            "scenario": self.scenario,
            "system": self.system,
            "bleu": self.bleu.to_dict(),
            "overlap_pct": self.overlap_pct,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CellResult":
        return cls(
            domain=data["domain"],
            k=data["k"],
            scenario=data["scenario"],
            system=data["system"],
            bleu=BleuScore.from_dict(data["bleu"]),
            overlap_pct=data["overlap_pct"],
        )


@dataclass(frozen=True)
class GroupAverage:
    """Cross-domain, cross-k arithmetic means for one (system, scenario) group."""

    bleu: float
    overlap_pct: float | None


@dataclass
class EvalReport:
    """Per-cell results with cross-domain/cross-k averages and significance."""

    cells: dict[tuple[str, int, str, str], CellResult]
    averages: dict[tuple[str, str], GroupAverage]
    significance: dict[tuple[str, int, str, str, str], SignificanceResult]
    failed: dict[tuple[str, int, str, str], str]

    def to_dict(self) -> dict:
        return {
            "cells": [self.cells[key].to_dict() for key in sorted(self.cells)],
            "averages": [
                {
                    "system": system,
                    "scenario": scenario,
                    "bleu": avg.bleu,
                    "overlap_pct": avg.overlap_pct,
                }
                for (system, scenario), avg in sorted(self.averages.items())
            ],
            "significance": [
                {
                    "domain": domain,
                    "k": k,
                    "system": system,
                    "a": side_a,
                    "b": side_b,
                    **result.to_dict(),
                }
                for (domain, k, system, side_a, side_b), result in sorted(
                    self.significance.items()
                )
            ],
            "failed_cells": [
                {"domain": d, "k": k, "scenario": s, "system": sys, "error": error}
                for (d, k, s, sys), error in sorted(self.failed.items())
            ],
        }


def aggregate_report(
    cells: list[CellResult],
    significance: dict[tuple[str, int, str, str, str], SignificanceResult] | None = None,
    failed: dict[tuple[str, int, str, str], str] | None = None,
) -> EvalReport:
    """Assemble cells into a report with one average per (system, scenario).

    A group's grid is the cross product of the domains and k values among its
    cells. A group with holes is left out of the averages when every missing
    cell is listed in ``failed``; any other hole raises an AggregationError
    naming it. With no cells at all, failures alone give an empty report.
    """
    failed = dict(failed or {})
    if not cells and not failed:
        raise AggregationError("no cells to aggregate")
    by_key: dict[tuple[str, int, str, str], CellResult] = {}
    for cell in cells:
        if cell.key in by_key:
            raise AggregationError(f"duplicate cell {cell.key}")
        by_key[cell.key] = cell

    groups: dict[tuple[str, str], list[CellResult]] = {}
    for cell in by_key.values():
        groups.setdefault((cell.system, cell.scenario), []).append(cell)

    averages: dict[tuple[str, str], GroupAverage] = {}
    for (system, scenario), group in groups.items():
        domains = sorted({c.domain for c in group})
        ks = sorted({c.k for c in group})
        present = {(c.domain, c.k) for c in group}
        holes = [(d, k) for d in domains for k in ks if (d, k) not in present]
        for domain, k in holes:
            if (domain, k, scenario, system) not in failed:
                raise AggregationError(
                    f"missing cell: domain={domain!r} k={k} scenario={scenario!r} "
                    f"system={system!r}"
                )
        if holes:
            continue
        overlaps = [c.overlap_pct for c in group if c.overlap_pct is not None]
        averages[(system, scenario)] = GroupAverage(
            bleu=sum(c.bleu.score for c in group) / len(group),
            overlap_pct=sum(overlaps) / len(overlaps) if overlaps else None,
        )

    return EvalReport(
        cells=by_key,
        averages=averages,
        significance=dict(significance or {}),
        failed=failed,
    )


def report_to_markdown(report: EvalReport) -> str:
    """Render the report as markdown tables: grand averages, per-domain BLEU
    per k and scenario, and the suggestion-overlap grid.
    """
    lines: list[str] = []
    lines.append("## Average BLEU across domains and k values")
    lines.append("")
    lines.append("| System | Scenario | BLEU |")
    lines.append("|---|---|---|")
    for (system, scenario), avg in sorted(report.averages.items()):
        lines.append(f"| {system} | {scenario} | {avg.bleu:.2f} |")

    cells = list(report.cells.values())
    domains = sorted({c.domain for c in cells})
    scenarios = sorted({c.scenario for c in cells})
    systems = sorted({c.system for c in cells})
    ks = sorted({c.k for c in cells})

    def grid(metric: str, title: str, fmt: str) -> None:
        lines.append("")
        lines.append(f"## {title}")
        for scenario in scenarios:
            lines.append("")
            lines.append(f"### {scenario}")
            lines.append("")
            lines.append("| System | k | " + " | ".join(domains) + " | AVER |")
            lines.append("|---" * (len(domains) + 3) + "|")
            for system in systems:
                for k in ks:
                    row = [system, str(k)]
                    values = []
                    for domain in domains:
                        cell = report.cells.get((domain, k, scenario, system))
                        value = None
                        if cell is not None:
                            value = (
                                cell.bleu.score if metric == "bleu" else cell.overlap_pct
                            )
                        row.append(format(value, fmt) if value is not None else "-")
                        if value is not None:
                            values.append(value)
                    row.append(format(sum(values) / len(values), fmt) if values else "-")
                    lines.append("| " + " | ".join(row) + " |")

    grid("bleu", "BLEU per domain", ".2f")
    grid("overlap", "Suggestion token overlap (%) per domain", ".2f")

    if report.significance:
        lines.append("")
        lines.append("## Paired bootstrap significance")
        lines.append("")
        lines.append("| Domain | k | System | A | B | delta | p | significant |")
        lines.append("|---|---|---|---|---|---|---|---|")
        for (domain, k, system, a, b), res in sorted(report.significance.items()):
            lines.append(
                f"| {domain} | {k} | {system} | {a} | {b} | {res.observed_delta:+.2f} "
                f"| {res.p_value:.3f} | {'yes' if res.significant else 'no'} |"
            )
    if report.failed:
        lines.append("")
        lines.append("## Failed cells")
        lines.append("")
        for key, error in sorted(report.failed.items()):
            lines.append(f"- {key}: {error}")
    return "\n".join(lines) + "\n"
