"""Relevant / less-relevant scenario construction and domain-exclusion audit."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from ratkit import (
    AugmentationConfig,
    Bm25Params,
    ConfigurationError,
    ValidationError,
    augment_corpus,
    build_index,
    build_scenario,
)
from ratkit.augmentation import AugmentedExample
from ratkit.corpus import SentencePair, TranslationMemory
from ratkit.retrieval import FuzzyMatch, load_index, query_top_n, save_index
from ratkit.scenarios import build_pool, validate_scenario, write_scenario_sidecar

from synthetic import dense_rows, fresh_index, make_queries, make_random_tm, make_three_domain, postings


def three_tms() -> list[TranslationMemory]:
    tm, _ = make_three_domain(tm_per_domain=20, test_per_domain=5)
    split = {}
    for pair in tm.pairs:
        split.setdefault(pair.domain, []).append(pair)
    return [TranslationMemory(name=f"tm-{d}", pairs=tuple(ps)) for d, ps in split.items()]


class TestBuildScenario:
    def test_relevant_keeps_only_test_domain(self):
        spec, index = build_scenario("it", three_tms(), "relevant")
        assert spec.resolved_domains == frozenset({"it"})
        assert {pair.domain for pair in index.pairs} == {"it"}
        assert index.doc_count == 20

    def test_less_relevant_excludes_test_domain(self):
        spec, index = build_scenario("it", three_tms(), "less_relevant")
        assert spec.resolved_domains == frozenset({"law", "med"})
        assert "it" not in {pair.domain for pair in index.pairs}
        assert index.doc_count == 40

    def test_relevant_missing_domain_is_configuration_error(self):
        with pytest.raises(ConfigurationError, match="'religion'"):
            build_scenario("religion", three_tms(), "relevant")

    def test_less_relevant_needs_another_domain(self):
        single = TranslationMemory(
            name="only-it",
            pairs=(SentencePair(id="p1", source="ein satz", target="a sentence", domain="it"),),
        )
        with pytest.raises(ConfigurationError, match="less-relevant"):
            build_scenario("it", [single], "less_relevant")

    def test_unknown_relevance_rejected(self):
        with pytest.raises(ConfigurationError, match="relevance"):
            build_scenario("it", three_tms(), "sideways")

    def test_duplicate_ids_across_tms_rejected(self):
        pair = SentencePair(id="shared", source="ein satz", target="t", domain="law")
        tms = three_tms() + [TranslationMemory(name="extra", pairs=(pair,))]
        tms[1] = TranslationMemory(
            name="tm-law-dup",
            pairs=(SentencePair(id="shared", source="anderer satz", target="t", domain="law"),),
        )
        with pytest.raises(ValidationError, match="'shared'"):
            build_scenario("it", tms, "less_relevant")
        # The pool holds every TM, so a scenario without the pair fails too.
        for build in (lambda: build_pool(tms), lambda: build_scenario("it", tms, "relevant")):
            with pytest.raises(ValidationError, match="'shared' occurs in both 'tm-law-dup' and 'extra'"):
                build()

    def test_merged_statistics_equal_direct_concatenation(self):
        tms = three_tms()
        _, merged = build_scenario("it", tms, "less_relevant", Bm25Params())
        eligible = tuple(p for tm in tms for p in tm.pairs if p.domain != "it")
        direct = build_index(TranslationMemory(name="concat", pairs=eligible))
        assert merged.doc_count == direct.doc_count
        assert merged.avg_doc_length == direct.avg_doc_length
        assert merged.doc_lengths == direct.doc_lengths
        assert postings(merged) == postings(direct)

    def test_tm_sources_lists_contributing_memories_only(self):
        tms = three_tms()
        spec, _ = build_scenario("it", tms, "relevant")
        assert spec.tm_sources == ("tm-it",)


def mixed_tms(seed: int) -> list[TranslationMemory]:
    """Three TMs of four interleaved domains, pairs shuffled so ids are out of order."""
    pairs = list(make_random_tm(600, seed=seed).pairs)
    random.Random(seed).shuffle(pairs)
    bounds = [(0, 150), (150, 400), (400, 600)]
    return [TranslationMemory(name=f"tm{i}", pairs=tuple(pairs[a:b])) for i, (a, b) in enumerate(bounds)]


class TestPoolSubset:
    @pytest.mark.parametrize("params", [Bm25Params(1.2, 0.75), Bm25Params(0.0, 1.0), Bm25Params(1.5, 0.0)])
    def test_subset_equals_a_fresh_build(self, tmp_path, params):
        tms = mixed_tms(seed=31)
        pool = build_pool(tms, params)
        queries = make_queries(TranslationMemory("all", pool.pairs), n_queries=40, seed=4)
        for domain in ("news", "law", "med", "it"):
            for relevance in ("relevant", "less_relevant"):
                _, cut = build_scenario(domain, tms, relevance, params, pool)
                selected = tuple(
                    p for tm in tms for p in tm.pairs if (p.domain == domain) == (relevance == "relevant")
                )
                fresh = fresh_index(selected, params)
                assert cut.pairs == fresh.pairs
                assert postings(cut) == postings(fresh)
                assert cut.doc_lengths == fresh.doc_lengths
                assert cut.avg_doc_length.hex() == fresh.avg_doc_length.hex()
                assert cut.norms.tobytes() == fresh.norms.tobytes()
                assert cut.id_rank.dtype == fresh.id_rank.dtype
                assert cut.id_rank.tobytes() == fresh.id_rank.tobytes()
                assert dense_rows(fresh)
                assert dense_rows(cut) == dense_rows(fresh)
                for query in queries:
                    got = [(m.pair_id, m.score.hex(), m.rank) for m in query_top_n(cut, query, 10)]
                    want = [(m.pair_id, m.score.hex(), m.rank) for m in query_top_n(fresh, query, 10)]
                    assert got == want, (domain, relevance, query)
                save_index(cut, tmp_path / "cut.idx")
                save_index(fresh, tmp_path / "fresh.idx")
                # An index file stores the terms and postings in row order, and
                # a cut numbers its rows in the pool's term order: the header
                # and column lines are the same bytes, the postings the same per term.
                cut_lines = (tmp_path / "cut.idx").read_bytes().splitlines()
                fresh_lines = (tmp_path / "fresh.idx").read_bytes().splitlines()
                assert cut_lines[:-5] == fresh_lines[:-5]
                assert postings(load_index(tmp_path / "cut.idx")) == postings(fresh)

    def test_subset_drops_empty_rows(self):
        tms = three_tms()
        _, cut = build_scenario("it", tms, "relevant", Bm25Params(), build_pool(tms))
        assert all(np.diff(cut.offsets) > 0)
        assert len(cut.offsets) == len(cut.term_rows) + 1

    def test_pool_of_other_tms_or_parameters_rejected(self):
        tms = three_tms()
        for pool in (build_pool(tms, Bm25Params(b=0.5)), build_pool(tms[::-1]), build_pool(tms[:2])):
            with pytest.raises(ConfigurationError, match="pool index"):
                build_scenario("it", tms, "relevant", Bm25Params(), pool)


class TestValidateScenario:
    def _augmented(self, spec_domain: str, relevance: str):
        tm, test_sets = make_three_domain(tm_per_domain=30, test_per_domain=20)
        spec, index = build_scenario(spec_domain, [tm], relevance)
        examples = list(
            augment_corpus(test_sets[spec_domain], index, AugmentationConfig(k=3))
        )
        return spec, examples

    def test_clean_less_relevant_run_passes(self):
        spec, examples = self._augmented("it", "less_relevant")
        report = validate_scenario(spec, examples)
        assert report.passed
        assert set(report.domain_counts) <= {"law", "med"}
        assert sum(report.domain_counts.values()) > 0
        assert report.violations == ()

    def test_injected_excluded_domain_suggestion_fails(self):
        spec, examples = self._augmented("it", "less_relevant")
        rogue = FuzzyMatch(
            pair_id="it-tm-0000", score=1.0, rank=1, source="s", target="t", domain="it"
        )
        tampered = examples[0]
        examples[0] = AugmentedExample(
            pair_id=tampered.pair_id,
            source=tampered.source,
            reference=tampered.reference,
            suggestions=(rogue,) + tampered.suggestions,
            flat_input=tampered.flat_input,
        )
        report = validate_scenario(spec, examples)
        assert not report.passed
        assert (tampered.pair_id, "it-tm-0000", "it") in report.violations

    def test_empty_example_list_passes_vacuously(self):
        spec, _ = self._augmented("it", "relevant")
        report = validate_scenario(spec, [])
        assert report.passed
        assert report.domain_counts == {}


class TestSidecar:
    def test_sidecar_written_next_to_index(self, tmp_path):
        spec, _ = build_scenario("it", three_tms(), "less_relevant")
        index_path = tmp_path / "scenario.idx"
        index_path.write_bytes(b"placeholder")
        sidecar = write_scenario_sidecar(spec, index_path)
        assert sidecar.name == "scenario.idx.scenario.json"
        payload = json.loads(sidecar.read_text(encoding="utf-8"))
        assert payload == {
            "test_domain": "it",
            "relevance": "less_relevant",
            "tm_sources": ["tm-law", "tm-med"],
            "resolved_domains": ["law", "med"],
        }
