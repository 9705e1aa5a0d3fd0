"""Acceptance suite: the end-to-end behavioural guarantees of the toolkit.

Each test covers one guarantee and prints a single [PASS]/[FAIL] line (run
with ``pytest tests/test_acceptance.py -s`` to see them). The checks pin:
retrieval equivalence against a brute-force scorer, BLEU against a frozen
reference fixture, sampling uniformity, scenario domain isolation, the
relevant-beats-less-relevant direction for both BLEU and suggestion overlap,
bootstrap significance behaviour, byte-stable pipeline reports, and index
persistence round trips.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from ratkit import (
    AugmentationConfig,
    Bm25Params,
    augment_corpus,
    bleu_corpus,
    build_index,
    build_scenario,
    paired_bootstrap,
    query_top_n,
    suggestion_overlap,
)
from ratkit.corpus import save_corpus
from ratkit.pipeline import TranslatorSpec, load_manifest, run_experiment, translate
from ratkit.retrieval import FuzzyMatch, load_index, save_index
from ratkit.scenarios import validate_scenario

from synthetic import (
    brute_force_top_n,
    make_bootstrap_systems,
    make_directional,
    make_queries,
    make_random_tm,
    make_three_domain,
    ngram_type_share,
)

FIXTURE = json.loads(
    (Path(__file__).parent / "data" / "bleu_fixture.json").read_text(encoding="utf-8")
)


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] {label}")
        raise
    print(f"\n[PASS] {label}")


@pytest.fixture(scope="module")
def random_index():
    tm = make_random_tm(n_pairs=1000, seed=0)
    index = build_index(tm)
    queries = make_queries(tm, n_queries=100, seed=1)
    return tm, index, queries


@pytest.fixture(scope="module")
def directional_results():
    tm, test_sets = make_directional()
    spec = TranslatorSpec(kind="baseline_copy_first")
    cells = {}
    for domain in test_sets:
        for scenario in ("relevant", "less_relevant"):
            _, index = build_scenario(domain, [tm], scenario, Bm25Params())
            for k in (1, 2, 3):
                config = AugmentationConfig(k=k, pool_size=10, mode="topk")
                examples = list(augment_corpus(test_sets[domain], index, config))
                hypotheses = translate(spec, examples)
                bleu = bleu_corpus(hypotheses, [ex.reference for ex in examples])
                overlap = suggestion_overlap(examples, hypotheses)
                cells[(domain, scenario, k)] = (bleu.score, overlap.mean_pct)
    return tm, test_sets, cells


def test_01_retrieval_matches_brute_force(random_index):
    tm, index, queries = random_index
    with criterion(
        "retrieval: top-10 identical to brute-force BM25 over 1000 docs x 100 "
        "queries (ids exact, scores to 1e-9 relative, under 5s)"
    ):
        started = time.perf_counter()
        results = [query_top_n(index, q, 10) for q in queries]
        elapsed = time.perf_counter() - started
        for query, matches in zip(queries, results):
            expected = brute_force_top_n(tm, query, 10)
            assert [m.pair_id for m in matches] == [pid for pid, _ in expected], query
            for match, (_, score) in zip(matches, expected):
                assert match.score == pytest.approx(score, rel=1e-9)
            assert [m.rank for m in matches] == list(range(1, len(matches) + 1))
        assert any(matches for matches in results)
        assert elapsed < 5.0, f"retrieval took {elapsed:.2f}s"


def test_02_bleu_matches_frozen_reference():
    with criterion(
        "bleu: frozen reference corpus reproduced within 0.01 and identity "
        "input scores exactly 100"
    ):
        hyps = [p["hyp"] for p in FIXTURE["pairs"]]
        refs = [p["ref"] for p in FIXTURE["pairs"]]
        got = bleu_corpus(hyps, refs)
        assert abs(got.score - FIXTURE["corpus"]["score"]) <= 0.01
        smooth_hyps = [p["hyp"] for p in FIXTURE["smoothing_pairs"]]
        smooth_refs = [p["ref"] for p in FIXTURE["smoothing_pairs"]]
        smoothed = bleu_corpus(smooth_hyps, smooth_refs)
        assert abs(smoothed.score - FIXTURE["smoothing_corpus"]["score"]) <= 0.01
        assert bleu_corpus(refs, refs).score == 100.0


def test_03_shuffled_sampling_is_uniform():
    with criterion(
        "sampling: 100k shuffled draws (k=3, pool=10) include each candidate "
        "with frequency in [0.29, 0.31] and pass a chi-square check (under 10s)"
    ):
        from scipy.stats import chi2

        from ratkit.augmentation import _select

        pool = [
            FuzzyMatch(pair_id=f"c{i}", score=10.0 - i, rank=i + 1,
                       source=f"s{i}", target=f"t{i}", domain="d")
            for i in range(10)
        ]
        # derive_seed hashes str(part), so pair id str(i) draws as derived_rng(0, i).
        config = AugmentationConfig(k=3, pool_size=10, mode="shuffle", seed=0)
        draws = 100_000
        counts = {match.pair_id: 0 for match in pool}
        started = time.perf_counter()
        for i in range(draws):
            picked = _select(str(i), "src", "ref", pool, config).suggestions
            assert len({m.pair_id for m in picked}) == 3
            for match in picked:
                counts[match.pair_id] += 1
        elapsed = time.perf_counter() - started
        frequencies = [counts[m.pair_id] / draws for m in pool]
        assert all(0.29 <= f <= 0.31 for f in frequencies), frequencies
        expected = 3 * draws / 10
        statistic = sum((c - expected) ** 2 / expected for c in counts.values())
        assert statistic < chi2.isf(0.001, df=9), statistic
        assert elapsed < 10.0, f"sampling took {elapsed:.2f}s"


def test_04_less_relevant_scenarios_never_leak_the_test_domain():
    with criterion(
        "scenarios: across 3 domains x 1000 augmented test sentences, no "
        "less-relevant suggestion ever comes from the test domain"
    ):
        tm, test_sets = make_three_domain(tm_per_domain=80, test_per_domain=1000)
        for domain, tests in test_sets.items():
            spec, index = build_scenario(domain, [tm], "less_relevant", Bm25Params())
            config = AugmentationConfig(k=3, pool_size=10, mode="topk")
            examples = list(augment_corpus(tests, index, config))
            assert len(examples) == 1000
            suggestion_count = sum(len(ex.suggestions) for ex in examples)
            assert suggestion_count == 3000, (domain, suggestion_count)
            validation = validate_scenario(spec, examples)
            assert validation.passed, validation.violations[:3]
            assert domain not in validation.domain_counts
            assert set(validation.domain_counts) <= set(spec.resolved_domains)


def test_05_relevant_tm_beats_less_relevant_on_bleu(directional_results):
    tm, test_sets, cells = directional_results
    with criterion(
        "bleu direction: with a copy-first system, the relevant scenario "
        "scores strictly higher than less-relevant for every domain and k"
    ):
        # corpus sanity: same-domain targets share the reference n-grams,
        # cross-domain targets share (almost) none
        for domain, other in (("alpha", "beta"), ("beta", "alpha")):
            refs = [p.target for p in test_sets[domain].pairs]
            same = [p.target for p in tm.pairs if p.domain == domain]
            cross = [p.target for p in tm.pairs if p.domain == other]
            assert ngram_type_share(refs, same) >= 0.60
            assert ngram_type_share(refs, cross) <= 0.05
        for domain in test_sets:
            for k in (1, 2, 3):
                relevant_bleu = cells[(domain, "relevant", k)][0]
                less_bleu = cells[(domain, "less_relevant", k)][0]
                assert relevant_bleu > less_bleu, (domain, k, relevant_bleu, less_bleu)


def test_06_relevant_tm_suggestions_are_used_more(directional_results):
    _, test_sets, cells = directional_results
    with criterion(
        "overlap direction: outputs reuse relevant-scenario suggestion tokens "
        "more than less-relevant ones (scenario averages, and per cell for k>=2)"
    ):
        relevant = [cells[(d, "relevant", k)][1] for d in test_sets for k in (1, 2, 3)]
        less = [cells[(d, "less_relevant", k)][1] for d in test_sets for k in (1, 2, 3)]
        assert all(value is not None for value in relevant + less)
        assert sum(relevant) / len(relevant) > sum(less) / len(less)
        for domain in test_sets:
            for k in (2, 3):
                assert cells[(domain, "relevant", k)][1] > cells[
                    (domain, "less_relevant", k)
                ][1], (domain, k)


def test_07_bootstrap_significance_behaviour():
    with criterion(
        "significance: identical systems give p=1.0 (not significant), a "
        "90%-of-sentences winner is significant at 0.05, and results are "
        "seed-deterministic"
    ):
        hyps_a, hyps_b, refs = make_bootstrap_systems(n_sentences=200, a_wins=180)
        same = paired_bootstrap(hyps_a, hyps_a, refs, n_samples=1000, seed=7)
        assert same.p_value == 1.0
        assert not same.significant
        assert same.ties == 1000

        verdict = paired_bootstrap(hyps_a, hyps_b, refs, n_samples=1000,
                                   threshold=0.05, seed=7)
        assert verdict.observed_delta > 0
        assert verdict.significant
        assert verdict.p_value < 0.05
        assert verdict == paired_bootstrap(hyps_a, hyps_b, refs, n_samples=1000,
                                           threshold=0.05, seed=7)


def test_08_pipeline_reports_are_byte_stable(tmp_path):
    with criterion(
        "pipeline: a 2-domain x 2-k x 2-scenario grid completes with no "
        "failures and report.json is byte-identical across runs and worker "
        "counts (under 60s)"
    ):
        tm, test_sets = make_three_domain(tm_per_domain=40, test_per_domain=25)
        save_corpus(tm, tmp_path / "tm.jsonl")
        for domain, tests in test_sets.items():
            save_corpus(tests, tmp_path / f"test_{domain}.jsonl")
        manifest = {
            "tms": ["tm.jsonl"],
            "test_sets": {"it": "test_it.jsonl", "law": "test_law.jsonl"},
            "domains": ["it", "law"],
            "k_values": [1, 2],
            "scenarios": ["relevant", "less_relevant"],
            "translator": {"kind": "baseline_copy_first"},
            "out_dir": "out1",
            "bootstrap": {"n": 100},
        }
        started = time.perf_counter()
        reports = []
        for out_dir, workers in (("out1", 1), ("out2", 1), ("out3", 2)):
            manifest["out_dir"] = out_dir
            (tmp_path / "exp.json").write_text(json.dumps(manifest), encoding="utf-8")
            report = run_experiment(load_manifest(tmp_path / "exp.json"), workers=workers)
            assert not report.failed
            assert len(report.cells) == 8
            reports.append((tmp_path / out_dir / "report.json").read_bytes())
        elapsed = time.perf_counter() - started
        assert reports[0] == reports[1] == reports[2]
        assert elapsed < 60.0, f"pipeline took {elapsed:.2f}s"


def test_09_saved_indexes_reload_to_identical_results(random_index, tmp_path):
    tm, index, queries = random_index
    with criterion(
        "persistence: save -> load returns bit-identical query results and a "
        "byte-stable file on re-save"
    ):
        path = tmp_path / "tm.idx"
        save_index(index, path)
        loaded = load_index(path)
        for query in queries:
            original = query_top_n(index, query, 10)
            reloaded = query_top_n(loaded, query, 10)
            assert [(m.pair_id, m.score) for m in original] == [
                (m.pair_id, m.score) for m in reloaded
            ]
        save_index(loaded, tmp_path / "tm2.idx")
        assert (tmp_path / "tm2.idx").read_bytes() == path.read_bytes()
