"""Corpus BLEU, overlap metric, paired bootstrap, and the report's markdown."""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratkit import (
    ValidationError,
    bleu_corpus,
    paired_bootstrap,
    suggestion_overlap,
)
from ratkit import evaluation
from ratkit.augmentation import AugmentedExample
from ratkit.corpus import _tokens_13a
from ratkit.evaluation import (
    BleuScore,
    _EXACT_FLOAT,
    _choices,
    _count_wins,
    _resample_sums,
    _score_from_stats,
    _stats_matrix,
    CellResult,
    EvalReport,
    GroupAverage,
    report_to_markdown,
)
from ratkit.retrieval import FuzzyMatch
from ratkit.seeding import derived_rng

from synthetic import make_bootstrap_systems

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "bleu_fixture.json").read_text(encoding="utf-8")
)


def example_with(targets: list[str], pair_id: str = "x") -> AugmentedExample:
    suggestions = tuple(
        FuzzyMatch(pair_id=f"s{i}", score=1.0, rank=i + 1, source="", target=t, domain="")
        for i, t in enumerate(targets)
    )
    return AugmentedExample(
        pair_id=pair_id, source="src", reference="ref", suggestions=suggestions, flat_input=""
    )


def make_cell(
    domain: str,
    k: int,
    scenario: str = "relevant",
    system: str = "sys",
    score: float = 50.0,
    overlap: float | None = 80.0,
) -> CellResult:
    bleu = BleuScore(
        score=score,
        precisions=(0.5, 0.5, 0.5, 0.5),
        brevity_penalty=1.0,
        hyp_length=100,
        ref_length=100,
    )
    return CellResult(
        domain=domain, k=k, scenario=scenario, system=system, bleu=bleu, overlap_pct=overlap
    )


def slice_counter_stats(hypothesis: str, reference: str) -> list[int]:
    """Reference sentence statistics: n-grams as tuple slices, clipped by ``hyp & ref``."""
    hyp_tokens = _tokens_13a(hypothesis.rstrip())
    ref_tokens = _tokens_13a(reference.rstrip())
    hyp_ngrams, ref_ngrams = (
        Counter(t[i : i + n] for n in range(1, 5) for i in range(len(t) - n + 1))
        for t in (hyp_tokens, ref_tokens)
    )
    correct = [0] * 4
    for gram, count in (hyp_ngrams & ref_ngrams).items():
        correct[len(gram) - 1] += count
    total = [max(0, len(hyp_tokens) - n) for n in range(4)]
    return correct + total + [len(hyp_tokens), len(ref_tokens)]


# Few distinct tokens, so n-grams repeat; lengths from 0 to past the top order.
_sentence = st.lists(st.sampled_from(["a", "b", "c", "a.", "é", "5-3"]), max_size=9).map(" ".join)


# Up to 20 types, a few of which 13a splits, drawn so that some occur on
# one side only.
_TYPES = ["a", "b", "c", "a.", "é", "5-3"] + [f"w{i}" for i in range(18)]


@st.composite
def _corpus(draw) -> tuple[list[str], list[str]]:
    """1-6 line-aligned sentence pairs, each from empty to past the top
    order, with few types so n-grams repeat, and trailing blanks."""
    types = draw(st.lists(st.sampled_from(_TYPES), min_size=1, max_size=20, unique=True))
    hyp_types = types[: draw(st.integers(1, len(types)))]
    ref_types = types[draw(st.integers(0, len(types) - 1)) :]
    size = draw(st.integers(1, 6))

    def lines(side_types):
        words = st.lists(st.sampled_from(side_types), max_size=9).map(" ".join)
        line = st.tuples(words, st.sampled_from(["", " ", " \t", "  "])).map("".join)
        return st.lists(line, min_size=size, max_size=size)

    return draw(lines(hyp_types)), draw(lines(ref_types))


class TestSentenceStats:
    @settings(max_examples=400, deadline=None)
    @given(_sentence, _sentence)
    @example("", "a b")
    @example("a a a a a", "a a")
    @example("a b c", "a b c")
    def test_equal_the_slice_counter_construction(self, hypothesis, reference):
        row = _stats_matrix([hypothesis], [reference])[0].tolist()
        assert row == slice_counter_stats(hypothesis, reference)

    def test_equal_it_on_the_fixture(self):
        for pair in FIXTURE["pairs"] + FIXTURE["smoothing_pairs"]:
            hyp, ref = pair["hyp"], pair["ref"]
            assert _stats_matrix([hyp], [ref])[0].tolist() == slice_counter_stats(hyp, ref)


class TestStatsMatrix:
    @settings(max_examples=400, deadline=None)
    @given(_corpus())
    @example((["a a a a a"], ["a a"]))
    @example((["", "a b c d"], ["", " "]))
    @example((["a b c", "d e"], ["a b c d", "d e "]))
    @example((["w1 w1 w2  ", "w3"], ["w1 w2 w1 w2\t", "w4 w3"]))
    def test_stacks_the_slice_counter_rows(self, corpus):
        hyps, refs = corpus
        stats = _stats_matrix(hyps, refs)
        assert stats.dtype == np.int64
        assert stats.tolist() == [slice_counter_stats(h, r) for h, r in zip(hyps, refs)]

    def test_no_sentences_give_no_rows(self):
        stats = _stats_matrix([], [])
        assert stats.dtype == np.int64
        assert stats.shape == (0, 10)

    def test_corpus_too_large_for_int64_keys_rejected(self, monkeypatch):
        # 9 tokens in 1 sentence: max(T, N)**2 is 81, past a bound of 64, within one of 82.
        monkeypatch.setattr(evaluation, "_INT64_KEYS", 64)
        with pytest.raises(ValidationError, match="too many tokens"):
            bleu_corpus(["a b c d"], ["a b c d e"])
        monkeypatch.setattr(evaluation, "_INT64_KEYS", 82)
        assert bleu_corpus(["a b c d"], ["a b c d e"]).hyp_length == 4


class TestBleuCorpus:
    def test_identity_scores_exactly_100(self):
        refs = [p["ref"] for p in FIXTURE["pairs"]]
        score = bleu_corpus(refs, refs)
        assert score.score == 100.0
        assert score.precisions == (1.0, 1.0, 1.0, 1.0)
        assert score.brevity_penalty == 1.0

    def test_brevity_penalty_nine_tenths(self):
        ref = "a1 b2 c3 d4 e5 f6 g7 h8 i9 j10"
        hyp = " ".join(ref.split()[:9])
        score = bleu_corpus([hyp], [ref])
        assert score.precisions == (1.0, 1.0, 1.0, 1.0)
        assert score.brevity_penalty == pytest.approx(math.exp(1 - 10 / 9), abs=1e-12)
        assert score.brevity_penalty == pytest.approx(0.8948, abs=5e-5)
        assert score.score == pytest.approx(89.4839, abs=5e-3)

    def test_matches_frozen_reference_scorer(self):
        hyps = [p["hyp"] for p in FIXTURE["pairs"]]
        refs = [p["ref"] for p in FIXTURE["pairs"]]
        want = FIXTURE["corpus"]
        got = bleu_corpus(hyps, refs)
        assert got.score == pytest.approx(want["score"], abs=0.01)
        assert got.brevity_penalty == pytest.approx(want["brevity_penalty"], rel=1e-9)
        assert got.hyp_length == want["hyp_length"]
        assert got.ref_length == want["ref_length"]
        for got_p, want_pct in zip(got.precisions, want["precisions_pct"]):
            assert 100.0 * got_p == pytest.approx(want_pct, rel=1e-9)

    def test_exp_smoothing_matches_frozen_reference(self):
        hyps = [p["hyp"] for p in FIXTURE["smoothing_pairs"]]
        refs = [p["ref"] for p in FIXTURE["smoothing_pairs"]]
        want = FIXTURE["smoothing_corpus"]
        got = bleu_corpus(hyps, refs)
        assert got.score == pytest.approx(want["score"], abs=0.01)
        for got_p, want_pct in zip(got.precisions, want["precisions_pct"]):
            assert 100.0 * got_p == pytest.approx(want_pct, rel=1e-9)

    def test_smoothing_denominators_double_per_zero_order(self):
        # one shared unigram, no shared higher orders: p2 = 1/(2*t2), p3 = 1/(4*t3)
        score = bleu_corpus(["x1 shared x2 x3 x4"], ["y1 shared y2 y3 y4"])
        assert score.precisions[0] == pytest.approx(1 / 5)
        assert score.precisions[1] == pytest.approx(1 / (2 * 4))
        assert score.precisions[2] == pytest.approx(1 / (4 * 3))
        assert score.precisions[3] == pytest.approx(1 / (8 * 2))

    def test_empty_hypothesis_lines_allowed(self):
        score = bleu_corpus(["", "der Hund bellt laut heute"], ["x", "der Hund bellt laut heute"])
        assert 0.0 < score.score < 100.0

    def test_all_empty_hypotheses_score_zero(self):
        score = bleu_corpus([""], ["ein Satz"])
        assert score.score == 0.0
        assert score.brevity_penalty == 0.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="mismatch"):
            bleu_corpus(["a"], ["a", "b"])

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            bleu_corpus([], [])

    def test_permutation_invariance(self):
        hyps = [p["hyp"] for p in FIXTURE["pairs"]]
        refs = [p["ref"] for p in FIXTURE["pairs"]]
        base = bleu_corpus(hyps, refs)
        order = list(range(len(hyps)))
        random.Random(3).shuffle(order)
        shuffled = bleu_corpus([hyps[i] for i in order], [refs[i] for i in order])
        assert shuffled == base

    def test_any_difference_keeps_score_below_100(self):
        score = bleu_corpus(["der Hund bellt", "die Katze miaut"],
                            ["der Hund bellt", "die Katze schnurrt"])
        assert score.score < 100.0


class TestSuggestionOverlap:
    def test_half_of_suggestion_tokens_present(self):
        result = suggestion_overlap(
            [example_with(["alpha bravo charlie delta"])],
            ["alpha noise charlie noise"],
        )
        assert result.mean_pct == pytest.approx(50.0)
        assert result.fractions == (0.5,)

    def test_output_identical_to_sole_suggestion(self):
        result = suggestion_overlap([example_with(["der Hund rennt"])], ["der Hund rennt"])
        assert result.mean_pct == pytest.approx(100.0)

    def test_all_sentences_without_suggestions_mean_absent(self):
        result = suggestion_overlap([example_with([]), example_with([])], ["a", "b"])
        assert result.mean_pct is None
        assert result.fractions == (None, None)

    def test_suggestionless_sentences_skipped_not_zeroed(self):
        result = suggestion_overlap(
            [example_with([]), example_with(["genau diese worte"])],
            ["irrelevant", "genau diese worte hier"],
        )
        assert result.fractions == (None, 1.0)
        assert result.mean_pct == pytest.approx(100.0)

    def test_type_counting_ignores_output_multiplicity(self):
        examples = [example_with(["tok tok andere"])]
        typed = suggestion_overlap(examples, ["tok andere"], counting="type")
        clipped = suggestion_overlap(examples, ["tok andere"], counting="clipped")
        assert typed.mean_pct == pytest.approx(100.0)
        assert clipped.mean_pct == pytest.approx(100.0 * 2 / 3)

    def test_corpus_averaging_pools_tokens(self):
        examples = [example_with(["ja"]), example_with(["eins zwei drei"])]
        outputs = ["ja", "eins nein nein"]
        sentence = suggestion_overlap(examples, outputs, average="sentence")
        corpus = suggestion_overlap(examples, outputs, average="corpus")
        assert sentence.mean_pct == pytest.approx(100.0 * (1.0 + 1 / 3) / 2)
        assert corpus.mean_pct == pytest.approx(100.0 * 2 / 4)

    def test_multiple_suggestions_concatenated(self):
        result = suggestion_overlap(
            [example_with(["eins zwei", "drei vier"])], ["eins drei"]
        )
        assert result.mean_pct == pytest.approx(50.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="mismatch"):
            suggestion_overlap([example_with(["a"])], [])

    def test_unknown_flags_rejected(self):
        with pytest.raises(ValidationError):
            suggestion_overlap([], [], counting="bag")
        with pytest.raises(ValidationError):
            suggestion_overlap([], [], average="median")

    @given(
        st.lists(
            st.tuples(
                st.lists(st.sampled_from("abcdef"), max_size=6),
                st.lists(st.sampled_from("abcdef"), max_size=6),
            ),
            min_size=1,
            max_size=8,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_fractions_always_within_unit_interval(self, rows):
        examples = [example_with([" ".join(sugg)] if sugg else []) for sugg, _ in rows]
        outputs = [" ".join(out) if out else "" for _, out in rows]
        result = suggestion_overlap(examples, outputs)
        for fraction in result.fractions:
            assert fraction is None or 0.0 <= fraction <= 1.0


def per_resample_bootstrap_p(hyps_a, hyps_b, refs, n_samples, seed) -> float:
    """The paired bootstrap p-value as ratkit drew it before one stream per
    comparison: resample i reseeds with derived_rng(seed, i) and draws each
    sentence index with its own randrange. Kept only as a reference here.
    """
    stats_a = np.vstack([_stats_matrix([h], [r]) for h, r in zip(hyps_a, refs)])
    stats_b = np.vstack([_stats_matrix([h], [r]) for h, r in zip(hyps_b, refs)])
    delta = _score_from_stats(stats_a.sum(axis=0)).score - _score_from_stats(stats_b.sum(axis=0)).score
    wins_a = wins_b = ties = 0
    for i in range(n_samples):
        rng = derived_rng(seed, i)
        idx = [rng.randrange(len(refs)) for _ in range(len(refs))]
        weights = np.bincount(idx, minlength=len(refs))
        score_a = _score_from_stats(weights @ stats_a).score
        score_b = _score_from_stats(weights @ stats_b).score
        if score_a > score_b:
            wins_a += 1
        elif score_b > score_a:
            wins_b += 1
        else:
            ties += 1
    if delta > 0:
        return (wins_b + ties) / n_samples
    if delta < 0:
        return (wins_a + ties) / n_samples
    return 1.0


def choices_loop_bootstrap(hyps_a, hyps_b, refs, n_samples, seed):
    """(wins_a, wins_b, ties, p_value) as ratkit drew them with one
    ``Random.choices`` call per resample. Kept only as a reference here.
    """
    stats_a = np.vstack([_stats_matrix([h], [r]) for h, r in zip(hyps_a, refs)])
    stats_b = np.vstack([_stats_matrix([h], [r]) for h, r in zip(hyps_b, refs)])
    delta = _score_from_stats(stats_a.sum(axis=0)).score - _score_from_stats(stats_b.sum(axis=0)).score
    sentences = range(len(refs))
    rng = derived_rng(seed)
    wins_a = wins_b = 0
    for _ in range(n_samples):
        weights = np.bincount(rng.choices(sentences, k=len(refs)), minlength=len(refs))
        score_a = _score_from_stats(weights @ stats_a).score
        score_b = _score_from_stats(weights @ stats_b).score
        wins_a += score_a > score_b
        wins_b += score_b > score_a
    ties = n_samples - wins_a - wins_b
    if delta > 0:
        p_value = (wins_b + ties) / n_samples
    elif delta < 0:
        p_value = (wins_a + ties) / n_samples
    else:
        p_value = 1.0
    return wins_a, wins_b, ties, p_value


class TestChoices:
    @given(
        n=st.sampled_from([1, 2, 3, 300, 2**31 - 1, 2**40 + 3]),
        k=st.integers(min_value=0, max_value=600),
        seed=st.integers(min_value=0, max_value=2**64 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_same_indices_and_state_as_random_choices(self, n, k, seed):
        ours, theirs = random.Random(seed), random.Random(seed)
        picks = _choices(ours, n, k)
        assert picks.dtype == np.intp
        assert picks.tolist() == theirs.choices(range(n), k=k)
        assert ours.random() == theirs.random()


class TestPairedBootstrap:
    @pytest.mark.parametrize(
        "n_sentences, a_wins, n_samples",
        [
            (60, 35, 300),  # 68 resamples per block; 300 is not a multiple of 68
            (7, 4, 1000),  # 585 per block, and a last block of 415
            (2048, 1030, 5),  # two per block, and a last block of one
            (5000, 2510, 3),  # more sentences than one block holds: one per block
        ],
    )
    def test_equals_one_choices_call_per_resample(self, n_sentences, a_wins, n_samples):
        hyps_a, hyps_b, refs = make_bootstrap_systems(n_sentences, a_wins, seed=n_sentences)
        result = paired_bootstrap(hyps_a, hyps_b, refs, n_samples=n_samples, seed=n_samples)
        expected = choices_loop_bootstrap(hyps_a, hyps_b, refs, n_samples, seed=n_samples)
        assert (result.wins_a, result.wins_b, result.ties, result.p_value) == expected
        # The statistics bleu_corpus kept give the same result, bit for bit.
        bleu_a, bleu_b = bleu_corpus(hyps_a, refs), bleu_corpus(hyps_b, refs)
        for a, b in ((bleu_a, bleu_b), (bleu_a, hyps_b), (hyps_a, bleu_b)):
            assert paired_bootstrap(a, b, refs, n_samples=n_samples, seed=n_samples) == result

    def test_identical_systems_all_ties(self):
        hyps = [p["hyp"] for p in FIXTURE["pairs"]]
        refs = [p["ref"] for p in FIXTURE["pairs"]]
        result = paired_bootstrap(hyps, hyps, refs, n_samples=200, seed=1)
        assert result.ties == 200
        assert result.p_value == 1.0
        assert result.observed_delta == 0.0
        assert not result.significant

    def test_perfect_versus_empty_dominates_every_resample(self):
        refs = [f"sentence {i} carries marker m{i:03d} here" for i in range(200)]
        result = paired_bootstrap(refs, [""] * 200, refs, n_samples=1000, seed=2)
        assert result.wins_a == 1000
        assert result.wins_b == 0
        assert result.p_value == 0.0
        assert result.significant

    def test_ninety_percent_winner_is_significant(self):
        hyps_a, hyps_b, refs = make_bootstrap_systems(n_sentences=200, a_wins=180)
        result = paired_bootstrap(hyps_a, hyps_b, refs, n_samples=1000, threshold=0.05, seed=3)
        assert result.observed_delta > 0
        assert result.p_value < 0.05
        assert result.significant

    def test_wins_and_ties_partition_the_samples(self):
        hyps_a, hyps_b, refs = make_bootstrap_systems(n_sentences=60, a_wins=35)
        result = paired_bootstrap(hyps_a, hyps_b, refs, n_samples=300, seed=4)
        assert result.wins_a + result.wins_b + result.ties == 300

    def test_deterministic_under_fixed_seed(self):
        hyps_a, hyps_b, refs = make_bootstrap_systems(n_sentences=50, a_wins=30)
        for seed in (9, -1):  # derive_seed masks a negative seed to 64 bits
            first = paired_bootstrap(hyps_a, hyps_b, refs, n_samples=150, seed=seed)
            second = paired_bootstrap(hyps_a, hyps_b, refs, n_samples=150, seed=seed)
            assert first == second, seed

    def test_pinned_stream(self):
        # One derived_rng(seed) per call, drawn with Random.choices. These
        # counts change if the stream changes on any supported interpreter.
        result = paired_bootstrap(*make_bootstrap_systems(60, 35), n_samples=300, seed=4)
        assert (result.wins_a, result.wins_b, result.ties) == (262, 26, 12)

    def test_p_values_agree_with_per_resample_draws(self):
        gaps = {}
        for wins in range(28, 40):
            hyps_a, hyps_b, refs = make_bootstrap_systems(n_sentences=60, a_wins=wins, seed=wins)
            new = paired_bootstrap(hyps_a, hyps_b, refs, n_samples=500, seed=wins).p_value
            old = per_resample_bootstrap_p(hyps_a, hyps_b, refs, n_samples=500, seed=wins)
            gaps[wins] = abs(new - old)
        assert max(gaps.values()) <= 0.1, gaps

    def test_swapping_systems_mirrors_the_result(self):
        hyps_a, hyps_b, refs = make_bootstrap_systems(n_sentences=80, a_wins=72)
        ab = paired_bootstrap(hyps_a, hyps_b, refs, n_samples=400, seed=11)
        ba = paired_bootstrap(hyps_b, hyps_a, refs, n_samples=400, seed=11)
        assert ba.wins_a == ab.wins_b
        assert ba.wins_b == ab.wins_a
        assert ba.ties == ab.ties
        assert ba.observed_delta == pytest.approx(-ab.observed_delta)
        if ab.ties == 0:
            assert ba.p_value == ab.p_value

    def test_alignment_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="alignment"):
            paired_bootstrap(["a"], ["a", "b"], ["a"])

    def test_bad_sample_count_rejected(self):
        with pytest.raises(ValidationError, match="n_samples"):
            paired_bootstrap(["a"], ["a"], ["a"], n_samples=0)

    def test_bleu_score_without_statistics_rejected(self):
        hyps_a, hyps_b, refs = make_bootstrap_systems(n_sentences=20, a_wins=12)
        summed = _score_from_stats(bleu_corpus(hyps_a, refs).sentence_stats.sum(axis=0))
        assert summed.sentence_stats is None
        with pytest.raises(ValidationError, match="no per-sentence statistics"):
            paired_bootstrap(summed, hyps_b, refs)

    def test_bleu_score_of_other_references_rejected(self):
        hyps_a, hyps_b, refs = make_bootstrap_systems(n_sentences=20, a_wins=12)
        bleu_a = bleu_corpus(hyps_a, refs)
        with pytest.raises(ValidationError, match="alignment"):
            paired_bootstrap(bleu_a, hyps_b[:-1], refs[:-1])
        other = [f"{ref} and more" for ref in refs]
        with pytest.raises(ValidationError, match="not scored against these references"):
            paired_bootstrap(hyps_b, bleu_a, other)

    def test_kept_statistics_are_read_only(self):
        stats = bleu_corpus(["a b c"], ["a b d"]).sentence_stats
        with pytest.raises(ValueError):
            stats[0, 0] = 7


class TestResampleSums:
    """Resample sums taken as a float64 product equal the int64 product."""

    @pytest.mark.parametrize(
        "num_sentences, largest, n_samples",
        [
            (1, 40, 5),
            (7, 40, 600),  # several blocks, the last one partial
            (300, 60, 30),
            (7, (_EXACT_FLOAT - 1) // 7, 600),  # N * max just below 2**53
            (300, (_EXACT_FLOAT - 1) // 300, 30),
            (5000, (_EXACT_FLOAT - 1) // 5000, 3),  # one resample per block
        ],
    )
    def test_equal_the_int64_product(self, num_sentences, largest, n_samples):
        generator = np.random.default_rng(num_sentences)
        stats = generator.integers(0, largest, size=(num_sentences, 20), endpoint=True)
        stats[generator.integers(num_sentences), 3] = largest
        sums = _resample_sums(stats, n_samples, derived_rng(largest))
        picks = _choices(derived_rng(largest), num_sentences, n_samples * num_sentences)
        weights = np.array(
            [np.bincount(row, minlength=num_sentences) for row in picks.reshape(n_samples, -1)]
        )
        assert sums.dtype == np.int64
        assert np.array_equal(sums, weights @ stats)

    def test_counts_too_large_for_exact_float_sums_rejected(self):
        stats = np.zeros((4, 20), dtype=np.int64)
        stats[2, 5] = _EXACT_FLOAT // 4
        with pytest.raises(ValidationError, match="too large to resample exactly"):
            _resample_sums(stats, 10, derived_rng(1))


def _fixture_systems():
    refs = [p["ref"] for p in FIXTURE["pairs"]]
    hyps = [p["hyp"] for p in FIXTURE["pairs"]]
    return hyps, refs


def _identical():
    hyps, refs = _fixture_systems()
    return hyps, hyps, refs


def _one_sentence_differs():
    hyps, refs = _fixture_systems()
    return hyps, [refs[0], *hyps[1:]], refs


def _empty_against_real():
    hyps, refs = _fixture_systems()
    return [""] * len(refs), hyps, refs


def _all_empty():
    _, refs = _fixture_systems()
    return [""] * len(refs), [""] * len(refs), refs


def _equal_sums_and_zero_scores():
    # Resamples {0, 1} sum to equal statistics on both sides, although no
    # sentence's statistics agree; resamples {0, 0} and {1, 1} score zero on
    # one side, which the vectorized scores never decide.
    refs = ["a b c d", "e f g h"]
    return ["a b c d", "x"], ["x", "e f g h"], refs


class TestVectorizedScoring:
    """Scores computed in one numpy pass give the wins and ties of a scalar loop.

    Sample counts that are not a multiple of the block size are covered by
    TestPairedBootstrap.test_equals_one_choices_call_per_resample.
    """

    @pytest.mark.parametrize(
        "systems, n_samples",
        [
            (_identical, 300),
            (_one_sentence_differs, 300),
            (_empty_against_real, 200),
            (_all_empty, 200),
            (lambda: (["a b c d e"], ["a b c x e"], ["a b c d e"]), 50),
            (_equal_sums_and_zero_scores, 500),
        ],
        ids=["identical", "one_sentence", "empty_vs_real", "all_empty", "n_1", "equal_sums"],
    )
    def test_equals_the_choices_loop(self, systems, n_samples):
        hyps_a, hyps_b, refs = systems()
        result = paired_bootstrap(hyps_a, hyps_b, refs, n_samples=n_samples, seed=n_samples)
        expected = choices_loop_bootstrap(hyps_a, hyps_b, refs, n_samples, seed=n_samples)
        assert (result.wins_a, result.wins_b, result.ties, result.p_value) == expected

    @pytest.mark.parametrize(
        "systems, scalar_scores",
        [
            # Only the two observed scores: every resample is decided in numpy.
            (lambda: make_bootstrap_systems(200, 180), 2),
            # Equal sums tie unscored; the zero-score resamples are rescored.
            (_equal_sums_and_zero_scores, None),
        ],
        ids=["vectorized", "rescored"],
    )
    def test_scalar_scoring_only_where_needed(self, monkeypatch, systems, scalar_scores):
        calls = []

        def counting(stats):
            calls.append(stats)
            return _score_from_stats(stats)

        monkeypatch.setattr("ratkit.evaluation._score_from_stats", counting)
        hyps_a, hyps_b, refs = systems()
        result = paired_bootstrap(hyps_a, hyps_b, refs, n_samples=500, seed=3)
        if scalar_scores is not None:
            assert len(calls) == scalar_scores
        else:
            assert result.ties > 0 and result.wins_a > 0 and result.wins_b > 0
            assert len(calls) == 2 + 2 * (result.wins_a + result.wins_b)

    def test_equal_scores_from_different_statistics_are_rescored_to_a_tie(self, monkeypatch):
        # Precisions (1, 1/2, 1, 1) and (1/2, 1, 1, 1): the same score exactly.
        row_a, row_b = [4, 1, 2, 1, 4, 2, 2, 1, 4, 4], [2, 2, 2, 1, 4, 2, 2, 1, 4, 4]
        assert _score_from_stats(row_a).score == _score_from_stats(row_b).score
        rescored = []

        def counting(stats):
            rescored.append(list(stats))
            return _score_from_stats(stats)

        monkeypatch.setattr("ratkit.evaluation._score_from_stats", counting)
        assert _count_wins(np.array([row_a]), np.array([row_b])) == (0, 0)
        assert rescored == [row_a, row_b]

    @given(
        rows=st.lists(
            st.tuples(
                st.lists(st.integers(0, 40), min_size=10, max_size=10),
                st.lists(st.integers(0, 40), min_size=10, max_size=10),
                st.integers(1, 3),
            ),
            min_size=1,
            max_size=30,
        )
    )
    # n-grams counted with a zero hypothesis length: _score_from_stats gives 0.
    @example(rows=[([0, 0, 0, 0, 1, 1, 1, 1, 0, 0], [0] * 10, 2)])
    @settings(max_examples=150, deadline=None)
    def test_count_wins_equals_scalar_comparisons(self, rows):
        # Arbitrary statistics, zeros included; scaled copies share their
        # precisions unless smoothing applies, so many rows tie exactly.
        a = [row_a for row_a, _, _ in rows]
        b = [row_b if scale == 3 else [x * scale for x in row_a] for row_a, row_b, scale in rows]
        wins_a = wins_b = 0
        for row_a, row_b in zip(a, b):
            score_a, score_b = _score_from_stats(row_a).score, _score_from_stats(row_b).score
            wins_a += score_a > score_b
            wins_b += score_b > score_a
        sums_a, sums_b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        assert _count_wins(sums_a, sums_b) == (wins_a, wins_b)


class TestCellResult:
    def test_cell_dict_leaves_the_statistics_out(self):
        hyps, refs = _fixture_systems()
        bleu = bleu_corpus(hyps, refs)
        assert bleu.sentence_stats.shape == (len(refs), 10)
        cell = CellResult(domain="it", k=1, scenario="relevant", system="sys", bleu=bleu,
                          overlap_pct=None)
        payload = cell.to_dict()
        assert set(payload["bleu"]) == {
            "score", "precisions", "brevity_penalty", "hyp_length", "ref_length"
        }
        assert payload["bleu"]["score"] == bleu.score
        # Equality leaves the statistics out too.
        assert replace(bleu, sentence_stats=None) == bleu


class TestMarkdownReport:
    def test_tables_render_with_values(self):
        cells = [
            make_cell(d, k, scenario=s, score=30.0 + k, overlap=70.0 + k)
            for d in ("it", "med")
            for k in (1, 2)
            for s in ("relevant", "less_relevant")
        ]
        average = GroupAverage(bleu=31.5, overlap_pct=71.5)
        averages = {("sys", s): average for s in ("relevant", "less_relevant")}
        report = EvalReport(
            cells={cell.key: cell for cell in cells}, averages=averages, significance={}, failed={}
        )
        text = report_to_markdown(report)
        assert "## Average BLEU across domains and k values" in text
        assert "| sys | relevant | 31.50 |" in text
        assert "## BLEU per domain" in text
        assert "## Suggestion token overlap (%) per domain" in text
        assert "| it | med | AVER |" in text
        assert "31.00" in text
