"""Corpus BLEU, suggestion-usage overlap, paired bootstrap, and the grid report.

BLEU follows the mteval conventions: 13a tokenization, mixed case, a single
reference, clipped 1..4-gram precisions pooled corpus-wide, exponential
smoothing for zero-match orders, and no effective-order reduction. Scores are
on the 0..100 scale.

Per-sentence statistics are computed in this module only, once per scored
system, in one numpy pass over all its lines: the 13a tokens of both sides
are numbered, each n-gram (none spans two sentences) becomes an integer
code, both sides' (sentence, code) keys are counted by sorting, and each
hypothesis n-gram's count is clipped by its count in the same sentence's
reference. The counts are the integers a per-sentence ``Counter`` of
n-gram tuples gives.
``bleu_corpus`` keeps them on the BleuScore it returns, and the paired
bootstrap resamples the statistics of the two BleuScores it is given. It
draws every resample of a comparison from one seeded stream of sentence
indices and scores both systems on each. The indices are drawn in numpy,
blocks of resamples at a time, from the same Mersenne Twister words that
``Random.choices`` would use, so they, and every p-value, are the ones a
``Random.choices`` loop gives. Each resample's sums are a float64 (BLAS)
product of sentence counts and statistics, exact because every partial sum
is an integer below 2**53 (checked: the sentence count times the largest
statistic). Both systems' scores on every resample are computed in one
numpy pass; resamples whose two scores are too close for numpy's last bits
to decide are rescored with the scalar scorer, so wins and ties are those
of a scalar loop. Ties count against significance: the p-value is the
fraction of resamples in which the observed winner failed to win strictly,
so identical systems come out at p = 1.0.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .augmentation import AugmentedExample
from .corpus import _tokens_13a
from .errors import ValidationError
from .seeding import derived_rng

_NGRAM_ORDER = 4


@dataclass(frozen=True)
class BleuScore:
    """Corpus BLEU with its sufficient statistics.

    ``precisions`` are fractions in [0, 1]; ``score`` is 100-based. The
    brevity penalty is 1 when the hypothesis side is at least as long as the
    reference side, else exp(1 - ref/hyp) (0 for an empty hypothesis corpus).
    ``sentence_stats`` is the read-only (N, 10) matrix of per-sentence
    :func:`_stats_matrix` rows the score was summed from, kept by
    :func:`bleu_corpus` so that :func:`paired_bootstrap` can resample it. It
    takes no part in equality and is not serialized.
    """

    score: float
    precisions: tuple[float, float, float, float]
    brevity_penalty: float
    hyp_length: int
    ref_length: int
    sentence_stats: np.ndarray | None = field(default=None, compare=False, repr=False)

    def to_dict(self) -> dict:
        return {
            "score": self.score,
            "precisions": list(self.precisions),
            "brevity_penalty": self.brevity_penalty,
            "hyp_length": self.hyp_length,
            "ref_length": self.ref_length,
        }


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


def _score_from_stats(stats) -> BleuScore:
    """Combine summed sufficient statistics into a BleuScore.

    Exponential smoothing: for each order whose match count is zero (but with
    a nonzero total), the smoothing denominator s doubles and the precision
    becomes 1 / (s * total). Orders with no n-grams at all leave a zero
    precision, which collapses the geometric mean (and the score) to zero.
    """
    correct = [int(x) for x in stats[0:_NGRAM_ORDER]]
    total = [int(x) for x in stats[_NGRAM_ORDER : 2 * _NGRAM_ORDER]]
    hyp_len = int(stats[2 * _NGRAM_ORDER])
    ref_len = int(stats[2 * _NGRAM_ORDER + 1])

    precisions = [0.0] * _NGRAM_ORDER
    smooth = 1.0
    for n in range(_NGRAM_ORDER):
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
            sum(math.log(p) for p in precisions) / _NGRAM_ORDER
        ) * 100.0
    return BleuScore(
        score=score,
        precisions=tuple(precisions),
        brevity_penalty=brevity_penalty,
        hyp_length=hyp_len,
        ref_length=ref_len,
    )


# Every n-gram code is below the number of tokens T once reranked, and the
# vocabulary has at most T types, so a code extended by one token is below
# T * T; a (sentence, code) key is below N * T. Both fit in int64 while
# max(T, N)**2 is below this, and then every count, below T, is also exact
# in the float64 sums of np.bincount.
_INT64_KEYS = 2**63


def _stats_matrix(hyps: list[str], refs: list[str]) -> np.ndarray:
    """The (N, 10) int64 matrix of per-sentence statistics, one row
    [correct1..4, total1..4, hyp_len, ref_len] per line-aligned pair.

    All 13a tokens of both sides are numbered, and each n-gram becomes an
    integer code: a token's is its number, a longer n-gram's is its
    (n-1)-gram's code times the vocabulary size plus its last token's
    number, reranked to 0.. by ``np.unique``. An n-gram starts only
    where n tokens remain in its own sentence, so none spans two. Each
    side's (sentence, code) keys are counted by ``np.unique``, each
    hypothesis key's count is clipped by its reference count (found by
    ``searchsorted``), and the clipped counts are summed per sentence.
    """
    num_sentences = len(refs)
    token_lines = [_tokens_13a(line.rstrip()) for line in chain(hyps, refs)]
    lengths = np.fromiter(map(len, token_lines), dtype=np.int64, count=2 * num_sentences)
    hyp_len, ref_len = lengths[:num_sentences], lengths[num_sentences:]
    stats = np.zeros((num_sentences, 2 * _NGRAM_ORDER + 2), dtype=np.int64)
    for n in range(_NGRAM_ORDER):
        np.maximum(hyp_len - n, 0, out=stats[:, _NGRAM_ORDER + n])
    stats[:, 2 * _NGRAM_ORDER], stats[:, 2 * _NGRAM_ORDER + 1] = hyp_len, ref_len

    num_tokens = int(lengths.sum())
    if max(num_tokens, num_sentences) ** 2 >= _INT64_KEYS:
        raise ValidationError(
            f"too many tokens to count n-grams exactly: {num_tokens} tokens "
            f"in {num_sentences} sentences"
        )
    if not num_tokens:
        return stats
    vocab = {token: i for i, token in enumerate(dict.fromkeys(chain.from_iterable(token_lines)))}
    tokens = map(vocab.__getitem__, chain.from_iterable(token_lines))
    ids, num_types = np.fromiter(tokens, dtype=np.int64, count=num_tokens), len(vocab)
    sentence = np.repeat(np.tile(np.arange(num_sentences), 2), lengths)
    # Tokens from each position to the end of its sentence, itself included.
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(num_tokens)
    split = int(hyp_len.sum())  # positions below are hypothesis tokens
    starts, codes, num_codes = np.arange(num_tokens), ids, num_types
    for n in range(_NGRAM_ORDER):
        if n:
            keep = room[starts] > n
            starts, codes = starts[keep], codes[keep]
            distinct, codes = np.unique(codes * num_types + ids[starts + n], return_inverse=True)
            num_codes = len(distinct)
        keys = sentence[starts] * num_codes + codes
        at = np.searchsorted(starts, split)
        stats[:, n] = _clipped_matches(keys[:at], keys[at:], num_codes, num_sentences)
    return stats


def _clipped_matches(hyp: np.ndarray, ref: np.ndarray, num_codes: int, num_sentences: int):
    """Per sentence, the hypothesis n-grams that the reference also has, each
    counted at most as often as the reference has it. An n-gram is given as
    a key ``sentence * num_codes + code``.
    """
    hyp_keys, hyp_counts = np.unique(hyp, return_counts=True)
    ref_keys, ref_counts = np.unique(ref, return_counts=True)
    # A key past every reference key lands on this sentinel and matches nothing.
    ref_keys, ref_counts = np.append(ref_keys, -1), np.append(ref_counts, 0)
    at = np.searchsorted(ref_keys[:-1], hyp_keys)
    clipped = np.where(ref_keys[at] == hyp_keys, np.minimum(hyp_counts, ref_counts[at]), 0)
    return np.bincount(hyp_keys // num_codes, clipped, minlength=num_sentences)


def bleu_corpus(hypotheses: list[str], references: list[str]) -> BleuScore:
    """Corpus BLEU of line-aligned hypothesis and reference lists."""
    if len(hypotheses) != len(references):
        raise ValidationError(
            f"hypothesis/reference length mismatch: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise ValidationError("cannot score an empty corpus")
    stats = _stats_matrix(hypotheses, references)
    stats.flags.writeable = False
    return replace(_score_from_stats(stats.sum(axis=0)), sentence_stats=stats)


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
        # The tokens of the joined targets: no 13a rule matches across the
        # joining space, and each target alone is a tokenizer memo hit.
        suggestion_tokens = [t for m in example.suggestions for t in _tokens_13a(m.target)]
        if not suggestion_tokens:
            fractions.append(None)
            continue
        output_tokens = _tokens_13a(output)
        if counting == "type":
            hits = sum(map(set(output_tokens).__contains__, suggestion_tokens))
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


# Resamples are drawn and weighted in blocks of about this many sentence
# indices. On 300-sentence test sets, blocks of 32768 raised peak RSS by
# 1.7 MB and ran no faster; one resample per block ran a quarter slower.
_BLOCK_DRAWS = 4096


def _choices(rng: random.Random, n: int, k: int) -> np.ndarray:
    """``rng.choices(range(n), k=k)`` as an intp array, leaving ``rng`` in the same state.

    ``Random.random()`` is ``(a * 2**26 + b) * 2**-53`` with ``a = w0 >> 5`` and
    ``b = w1 >> 6`` for two consecutive 32-bit Mersenne Twister words, and
    ``choices`` takes ``floor(random() * n)``. ``getrandbits(64 * k)`` returns
    the next 2k words, the first the least significant. Every step below is
    exact in float64, so the indices are the ones ``choices`` draws.
    """
    words = np.frombuffer(rng.getrandbits(64 * k).to_bytes(8 * k, "little"), dtype="<u4")
    u = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (1.0 / 9007199254740992.0)
    return np.floor(u * float(n)).astype(np.intp)


def _scores(sums: np.ndarray) -> np.ndarray:
    """:func:`_score_from_stats` over the rows of ``sums``, in float64.

    Rows whose score is zero may come out as zero, NaN or inf here. numpy's
    log and exp may also differ from ``math``'s in the last bits, so these
    scores only decide the comparisons that :func:`_count_wins` trusts.
    """
    stats = sums.astype(np.float64)
    correct, total = stats[:, :_NGRAM_ORDER], stats[:, _NGRAM_ORDER : 2 * _NGRAM_ORDER]
    hyp_len, ref_len = stats[:, 2 * _NGRAM_ORDER], stats[:, 2 * _NGRAM_ORDER + 1]
    zero = correct == 0.0
    smoothed = np.exp2(np.cumsum(zero, axis=1))
    smoothed *= total
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        logs = np.divide(correct, total)
        np.divide(1.0, smoothed, out=logs, where=zero)
        np.log(logs, out=logs)
        log_sum = ((logs[:, 0] + logs[:, 1]) + logs[:, 2]) + logs[:, 3]
        brevity_penalty = np.where(hyp_len >= ref_len, 1.0, np.exp(1.0 - ref_len / hyp_len))
        brevity_penalty[hyp_len == 0] = 0.0  # as _score_from_stats: no hypothesis, no score
        return brevity_penalty * np.exp(log_sum / _NGRAM_ORDER) * 100.0


# Two vectorized scores further apart than this (relative) order the same
# way as their exact scalar scores; closer pairs are rescored with math.
_NEAR_TIE = 1e-9
_TINY, _HUGE = float(np.finfo(np.float64).tiny), float(np.finfo(np.float64).max)


def _count_wins(sums_a: np.ndarray, sums_b: np.ndarray) -> tuple[int, int]:
    """(wins of A, wins of B) over paired rows of summed statistics, as a
    loop comparing ``_score_from_stats(row).score`` row by row counts them.

    Rows with equal sums tie without scoring. The rest are scored in numpy;
    a row is rescored with :func:`_score_from_stats` when its two scores are
    within ``_NEAR_TIE`` of each other or either is not a normal positive
    float (zero scores and degenerate statistics land there).
    """
    score_a, score_b = _scores(sums_a), _scores(sums_b)
    high = np.maximum(score_a, score_b)  # NaN if either is NaN
    with np.errstate(invalid="ignore"):
        trusted = (np.minimum(score_a, score_b) >= _TINY) & (high <= _HUGE)
        trusted &= np.abs(score_a - score_b) > _NEAR_TIE * high
    wins_a = int(np.count_nonzero(trusted & (score_a > score_b)))
    wins_b = int(np.count_nonzero(trusted & (score_b > score_a)))
    differ = (sums_a != sums_b).any(axis=1)
    for i in np.flatnonzero(differ & ~trusted).tolist():
        exact_a = _score_from_stats(sums_a[i].tolist()).score
        exact_b = _score_from_stats(sums_b[i].tolist()).score
        wins_a += exact_a > exact_b
        wins_b += exact_b > exact_a
    return wins_a, wins_b


@dataclass(frozen=True)
class BootstrapConfig:
    """Paired bootstrap settings: resample count, p-value threshold, seed."""

    n_samples: int = 1000
    threshold: float = 0.05
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_samples < 1:
            raise ValidationError(f"n_samples must be >= 1, got {self.n_samples}")
        # numpy counts bytes in an intp; _resample_sums keeps 2 x 10 int64s per resample.
        if self.n_samples > (most := np.iinfo(np.intp).max // (8 * 2 * (2 * _NGRAM_ORDER + 2))):
            raise ValidationError(f"n_samples must be at most {most} to resample, got {self.n_samples}")
        if not 0.0 < self.threshold < 1.0:
            raise ValidationError(f"threshold must be in (0, 1), got {self.threshold}")


# Resample sums are taken as a float64 matrix product, which numpy hands to
# BLAS (an int64 product runs as a plain loop). They are exact while every
# partial sum is an integer below 2**53: the weights of a resample sum to N, so
# N * max(stats) bounds them.
_EXACT_FLOAT = 2**53


def _resample_sums(stats: np.ndarray, n_samples: int, rng: random.Random) -> np.ndarray:
    """The (n_samples, columns) int64 column sums of ``stats`` over resamples.

    Resample i is the i-th block of N row indices drawn from ``rng`` as
    ``rng.choices(range(N), k=N)`` would draw them.
    """
    num_sentences, largest = len(stats), int(stats.max())
    if num_sentences * largest >= _EXACT_FLOAT:
        raise ValidationError(
            f"statistics too large to resample exactly: {num_sentences} sentences "
            f"with a count of {largest}"
        )
    stats = stats.astype(np.float64)
    rows = max(1, _BLOCK_DRAWS // num_sentences)
    offsets = np.arange(rows)[:, None] * num_sentences
    try:
        sums = np.empty((n_samples, stats.shape[1]), dtype=np.int64)
    except MemoryError as exc:
        raise ValidationError(f"no memory for {n_samples} bootstrap resamples") from exc
    for start in range(0, n_samples, rows):
        block = min(rows, n_samples - start)
        picks = _choices(rng, num_sentences, block * num_sentences).reshape(block, num_sentences)
        # Row r of picks, shifted into its own bins, counts resample r's sentences.
        weights = np.bincount((picks + offsets[:block]).ravel(), minlength=block * num_sentences)
        weights = weights.reshape(block, num_sentences).astype(np.float64)
        sums[start : start + block] = weights @ stats
    return sums


def paired_bootstrap(
    bleu_a: BleuScore,
    bleu_b: BleuScore,
    *,
    n_samples: int = BootstrapConfig.n_samples,
    threshold: float = BootstrapConfig.threshold,
    seed: int = BootstrapConfig.seed,
) -> SignificanceResult:
    """Paired bootstrap resampling over sentences, comparing systems A and B.

    Each system is given as the BleuScore that :func:`bleu_corpus` returned
    for its hypothesis lines against the same references; its per-sentence
    statistics are resampled as they are. Resample i is the i-th block of N
    sentence indices drawn with replacement from one stream seeded by
    ``seed``, so the first m resamples of an n-sample run are those of an
    m-sample run. The indices are those ``Random.choices`` draws from that
    stream, taken in numpy several resamples at a time; the resampled sums
    are exact float64 products (a ValidationError if a count is too large
    for that), and the resamples are scored as :func:`_count_wins` does, so
    the wins, ties and p-value equal a loop over ``choices`` and
    ``_score_from_stats``. The p-value counts the resamples in which the
    full-set winner did not win strictly. A zero observed delta is never significant.
    """
    for name, bleu in (("a", bleu_a), ("b", bleu_b)):
        if bleu.sentence_stats is None:
            raise ValidationError(
                f"system {name}: BleuScore carries no per-sentence statistics "
                "(one not made by bleu_corpus); pass bleu_corpus's result"
            )
    stats_a, stats_b = bleu_a.sentence_stats, bleu_b.sentence_stats
    ref_len = 2 * _NGRAM_ORDER + 1  # the reference-length column
    if stats_a.shape != stats_b.shape or (stats_a[:, ref_len] != stats_b[:, ref_len]).any():
        raise ValidationError("systems a and b were not scored against the same references")
    BootstrapConfig(n_samples, threshold, seed)  # checks the settings' ranges
    observed_delta = bleu_a.score - bleu_b.score

    # Row i holds resample i's summed statistics: system A's, then system B's.
    sums = _resample_sums(np.hstack((stats_a, stats_b)), n_samples, derived_rng(seed))
    wins_a, wins_b = _count_wins(*np.hsplit(sums, 2))
    ties = n_samples - wins_a - wins_b

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


@dataclass(frozen=True)
class GroupAverage:
    """Arithmetic means over a group of cells: a scenario's, or a report.md row's."""

    bleu: float
    overlap_pct: float | None

    @classmethod
    def of(cls, results: list[CellResult | str | None]) -> GroupAverage | None:
        """The means of ``results``, or None unless every one is a CellResult: BLEU
        summed in order, and overlap over the cells that have one (None if none has)."""
        if not all(isinstance(r, CellResult) for r in results):
            return None
        overlaps = [r.overlap_pct for r in results if r.overlap_pct is not None]
        return cls(
            bleu=sum(r.bleu.score for r in results) / len(results),
            overlap_pct=sum(overlaps) / len(overlaps) if overlaps else None,
        )


@dataclass
class EvalReport:
    """A grid's report: its cells' results, its failed cells' errors, the
    significance of each compared pair, and one average per (system,
    scenario) whose every cell succeeded. The pipeline builds it from the
    manifest's grid.
    """

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

    # Failed cells keep their domain's column and their row, shown as "-".
    keys = [*report.cells, *report.failed]
    domains, ks, scenarios, systems = (sorted({key[i] for key in keys}) for i in range(4))
    for title, metric in (
        ("BLEU per domain", "bleu"), ("Suggestion token overlap (%) per domain", "overlap_pct")
    ):
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
                    # Each value is GroupAverage.of its cells: a domain's one, then the row's.
                    row = [report.cells.get((domain, k, scenario, system)) for domain in domains]
                    means = [*(GroupAverage.of([cell]) for cell in row), GroupAverage.of(row)]
                    values = [None if mean is None else getattr(mean, metric) for mean in means]
                    shown = ["-" if value is None else f"{value:.2f}" for value in values]
                    lines.append("| " + " | ".join([system, str(k), *shown]) + " |")

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
