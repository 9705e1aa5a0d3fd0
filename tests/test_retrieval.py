"""BM25 index statistics, scoring, ranking, and binary persistence."""

from __future__ import annotations

import math
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratkit import Bm25Params, ValidationError, build_index, query_top_n
from ratkit.corpus import SentencePair, TranslationMemory, analyze_for_index
from ratkit.retrieval import bm25_score, idf, load_index, save_index

from synthetic import brute_force_top_n, make_queries, make_random_tm, tiny_tm


class TestBm25Params:
    def test_defaults(self):
        params = Bm25Params()
        assert params.k1 == 1.2 and params.b == 0.75

    def test_rejects_negative_k1(self):
        with pytest.raises(ValidationError):
            Bm25Params(k1=-0.1)

    @pytest.mark.parametrize("b", [-0.01, 1.01])
    def test_rejects_b_outside_unit_interval(self, b):
        with pytest.raises(ValidationError):
            Bm25Params(b=b)


class TestBuildIndex:
    def test_tiny_tm_statistics(self):
        index = build_index(tiny_tm())
        assert index.doc_count == 3
        assert index.avg_doc_length == 2.0
        assert index.doc_lengths == [3, 2, 1]

    def test_tiny_tm_postings_for_cat(self):
        index = build_index(tiny_tm())
        d1 = index.doc_for_pair("d1")
        d3 = index.doc_for_pair("d3")
        assert index.postings["cat"] == [(d1, 1), (d3, 1)]

    def test_statistics_match_naive_recount(self):
        tm = make_random_tm(n_pairs=1000, seed=11)
        index = build_index(tm)
        analyzed = [analyze_for_index(p.source) for p in tm.pairs]
        assert index.doc_count == len(tm)
        assert index.doc_lengths == [len(t) for t in analyzed]
        assert index.avg_doc_length == pytest.approx(
            sum(len(t) for t in analyzed) / len(tm)
        )
        df = Counter()
        for terms in analyzed:
            for term in set(terms):
                df[term] += 1
        assert {t: len(ps) for t, ps in index.postings.items()} == dict(df)
        total_tf = sum(tf for plist in index.postings.values() for _, tf in plist)
        assert total_tf == sum(len(t) for t in analyzed)

    def test_unindexable_source_names_pair(self):
        tm = TranslationMemory(
            name="bad",
            pairs=(SentencePair(id="punct", source="...", target="x", domain="d"),),
        )
        with pytest.raises(ValidationError, match="'punct'"):
            build_index(tm)

    def test_doc_meta_preserves_stored_fields(self):
        index = build_index(tiny_tm())
        meta = index.doc_meta[index.doc_for_pair("d2")]
        assert (meta.pair_id, meta.source, meta.target, meta.domain) == (
            "d2",
            "the dog",
            "der Hund",
            "a",
        )


class TestIdf:
    def test_df_two_of_three(self):
        index = build_index(tiny_tm())
        assert idf("the", index) == pytest.approx(math.log(1.6), abs=1e-12)
        assert idf("the", index) == pytest.approx(0.4700, abs=5e-5)

    def test_df_zero_is_defined_and_positive(self):
        index = build_index(tiny_tm())
        assert idf("zebra", index) == pytest.approx(math.log(8.0), abs=1e-12)
        assert idf("zebra", index) == pytest.approx(2.0794, abs=5e-5)

    def test_single_doc_corpus(self):
        tm = TranslationMemory(
            name="one", pairs=(SentencePair(id="p", source="cat", target="x", domain="d"),)
        )
        index = build_index(tm)
        assert idf("cat", index) == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
        assert idf("cat", index) == pytest.approx(0.2877, abs=5e-5)

    def test_always_positive_even_when_term_is_everywhere(self):
        index = build_index(tiny_tm())
        for term in list(index.postings) + ["missing"]:
            assert idf(term, index) > 0.0


class TestBm25Score:
    def test_cat_on_d1(self):
        index = build_index(tiny_tm())
        expected = math.log(1.6) * 2.2 / (1.0 + 1.2 * (1 - 0.75 + 0.75 * 3 / 2))
        got = bm25_score(["cat"], index.doc_for_pair("d1"), index)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.390, abs=5e-4)

    def test_cat_on_d3_shorter_doc_scores_higher(self):
        index = build_index(tiny_tm())
        d3 = bm25_score(["cat"], index.doc_for_pair("d3"), index)
        d1 = bm25_score(["cat"], index.doc_for_pair("d1"), index)
        assert d3 == pytest.approx(0.591, abs=5e-4)
        assert d3 > d1

    def test_no_shared_terms_scores_zero(self):
        index = build_index(tiny_tm())
        assert bm25_score(["zebra"], index.doc_for_pair("d1"), index) == 0.0

    def test_duplicate_query_terms_count_once(self):
        index = build_index(tiny_tm())
        doc = index.doc_for_pair("d1")
        assert bm25_score(["cat", "cat"], doc, index) == bm25_score(["cat"], doc, index)

    def test_unknown_doc_id_raises(self):
        index = build_index(tiny_tm())
        with pytest.raises(KeyError):
            bm25_score(["cat"], 99, index)


class TestQueryTopN:
    def test_tiny_tm_ranking(self):
        index = build_index(tiny_tm())
        matches = query_top_n(index, "cat", 2)
        assert [(m.pair_id, m.rank) for m in matches] == [("d3", 1), ("d1", 2)]
        assert matches[0].score > matches[1].score
        assert matches[0].target == "Katze"

    def test_no_overlap_returns_empty(self):
        index = build_index(tiny_tm())
        assert query_top_n(index, "zebra", 5) == []

    def test_exclusions_drop_the_named_pair(self):
        index = build_index(tiny_tm())
        matches = query_top_n(index, "the cat sat", 3, exclusions={"d1"})
        assert "d1" not in {m.pair_id for m in matches}

    def test_rejects_n_below_one(self):
        with pytest.raises(ValidationError):
            query_top_n(build_index(tiny_tm()), "cat", 0)

    def test_tie_breaks_by_ascending_pair_id(self):
        tm = TranslationMemory(
            name="ties",
            pairs=(
                SentencePair(id="z", source="same words here", target="t", domain="d"),
                SentencePair(id="a", source="same words here", target="t", domain="d"),
                SentencePair(id="m", source="same words here", target="t", domain="d"),
            ),
        )
        matches = query_top_n(build_index(tm), "same words", 3)
        assert [m.pair_id for m in matches] == ["a", "m", "z"]

    def test_matches_brute_force_oracle_on_random_corpus(self):
        tm = make_random_tm(n_pairs=300, seed=4)
        index = build_index(tm)
        for query in make_queries(tm, n_queries=25, seed=6):
            got = [(m.pair_id, m.score) for m in query_top_n(index, query, 10)]
            want = brute_force_top_n(tm, query, 10)
            assert [pid for pid, _ in got] == [pid for pid, _ in want]
            for (_, gs), (_, ws) in zip(got, want):
                assert gs == pytest.approx(ws, rel=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32))
    def test_deterministic_across_calls(self, seed):
        tm = make_random_tm(n_pairs=60, seed=seed % 7)
        index = build_index(tm)
        query = tm.pairs[seed % len(tm.pairs)].source
        first = query_top_n(index, query, 5)
        second = query_top_n(index, query, 5)
        assert first == second

    def test_adding_query_term_occurrence_never_decreases_score(self):
        # monotonicity: d1s source gains one extra "cat" in an otherwise
        # identical corpus, so d1-prime must score at least as high
        base = tiny_tm()
        boosted = TranslationMemory(
            name="boosted",
            pairs=(
                SentencePair(id="d1", source="the cat sat cat", target="t", domain="a"),
                base.pairs[1],
                base.pairs[2],
            ),
        )
        before = build_index(base)
        after = build_index(boosted)
        assert bm25_score(["cat"], after.doc_for_pair("d1"), after) >= bm25_score(
            ["cat"], before.doc_for_pair("d1"), before
        )

    def test_ranks_run_from_one_with_non_increasing_scores(self):
        tm = make_random_tm(n_pairs=120, seed=9)
        index = build_index(tm)
        for query in make_queries(tm, n_queries=10, seed=10):
            matches = query_top_n(index, query, 10)
            assert [m.rank for m in matches] == list(range(1, len(matches) + 1))
            scores = [m.score for m in matches]
            assert scores == sorted(scores, reverse=True)
            assert all(s > 0 for s in scores)


class TestPersistence:
    def test_round_trip_preserves_structure(self, tmp_path):
        index = build_index(make_random_tm(n_pairs=80, seed=13))
        path = tmp_path / "tm.idx"
        save_index(index, path)
        loaded = load_index(path)
        assert loaded.doc_count == index.doc_count
        assert loaded.avg_doc_length == index.avg_doc_length
        assert loaded.doc_lengths == index.doc_lengths
        assert loaded.postings == index.postings
        assert loaded.doc_meta == index.doc_meta
        assert (loaded.params.k1, loaded.params.b) == (index.params.k1, index.params.b)

    def test_save_load_save_is_bit_stable(self, tmp_path):
        index = build_index(make_random_tm(n_pairs=80, seed=13))
        first = tmp_path / "a.idx"
        second = tmp_path / "b.idx"
        save_index(index, first)
        save_index(load_index(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_loaded_index_answers_queries_identically(self, tmp_path):
        tm = make_random_tm(n_pairs=150, seed=14)
        index = build_index(tm)
        path = tmp_path / "tm.idx"
        save_index(index, path)
        loaded = load_index(path)
        for query in make_queries(tm, n_queries=20, seed=15):
            assert query_top_n(loaded, query, 10) == query_top_n(index, query, 10)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.idx"
        path.write_bytes(b"NOTANIDX" + b"\x00" * 64)
        with pytest.raises(ValidationError, match="magic"):
            load_index(path)

    def test_truncated_file_rejected(self, tmp_path):
        index = build_index(tiny_tm())
        path = tmp_path / "tm.idx"
        save_index(index, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValidationError):
            load_index(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        index = build_index(tiny_tm())
        path = tmp_path / "tm.idx"
        save_index(index, path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(ValidationError, match="trailing"):
            load_index(path)
