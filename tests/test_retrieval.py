"""BM25 index statistics, scoring, ranking, and persistence."""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratkit import Bm25Params, ValidationError, build_index, query_top_n
from ratkit.corpus import SentencePair, TranslationMemory, analyze_for_index
from ratkit import corpus, retrieval
from ratkit.retrieval import TmIndex, load_index, save_index

from synthetic import (
    INDEX_HEADER,
    brute_force_top_n,
    checksum_line,
    counter_postings,
    dense_rows,
    fresh_index,
    index_file,
    make_directional,
    make_queries,
    make_random_tm,
    make_three_domain,
    postings,
    tiny_tm,
)


class TestBm25Params:
    def test_defaults(self):
        params = Bm25Params()
        assert params.k1 == 1.2 and params.b == 0.75

    def test_rejects_negative_k1(self):
        with pytest.raises(ValidationError):
            Bm25Params(k1=-0.1)

    @pytest.mark.parametrize("b", [-0.01, 1.01, math.nan, math.inf])
    def test_rejects_b_outside_unit_interval(self, b):
        with pytest.raises(ValidationError):
            Bm25Params(b=b)

    @pytest.mark.parametrize("k1", [math.nan, math.inf])
    def test_rejects_non_finite_k1(self, k1):
        with pytest.raises(ValidationError, match="finite"):
            Bm25Params(k1=k1)


class TestBuildIndex:
    def test_tiny_tm_statistics(self):
        index = build_index(tiny_tm())
        assert index.doc_count == 3
        assert index.avg_doc_length == 2.0
        assert index.doc_lengths == [3, 2, 1]

    def test_tiny_tm_postings_for_cat(self):
        index = build_index(tiny_tm())
        d1, d3 = 0, 2  # doc ids are positions in the TM
        assert postings(index)["cat"] == [(d1, 1), (d3, 1)]

    def test_norms_derived_from_doc_lengths(self):
        index = build_index(tiny_tm(), Bm25Params(k1=1.5, b=0.5))
        assert index.norms.tolist() == [1.5 * (1 - 0.5 + 0.5 * dl / 2.0) for dl in (3, 2, 1)]

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
        assert {t: len(ps) for t, ps in postings(index).items()} == dict(df)
        total_tf = sum(tf for plist in postings(index).values() for _, tf in plist)
        assert total_tf == sum(len(t) for t in analyzed)

    def test_unindexable_source_names_pair(self):
        tm = TranslationMemory(
            name="bad",
            pairs=(SentencePair(id="punct", source="...", target="x", domain="d"),),
        )
        with pytest.raises(ValidationError, match="'punct'"):
            build_index(tm)

    def test_doc_meta_preserves_stored_fields(self):
        tm = tiny_tm()
        index = build_index(tm)
        assert index.pairs is tm.pairs
        pair = index.pairs[1]
        assert (pair.id, pair.source, pair.target, pair.domain) == (
            "d2",
            "the dog",
            "der Hund",
            "a",
        )


class TestOneConstructor:
    """``build_index``, ``TmIndex.subset`` and ``load_index`` each make their index through ``TmIndex.__init__``."""

    @pytest.fixture
    def made(self, monkeypatch):
        """The indexes ``TmIndex.__init__`` initialises, in call order."""
        made = []
        init = TmIndex.__init__

        def counting(self, *args):
            made.append(self)
            init(self, *args)

        monkeypatch.setattr(TmIndex, "__init__", counting)
        return made

    def test_build_index(self, made):
        index = build_index(tiny_tm())
        assert made == [index]

    def test_subset(self, made):
        pool = build_index(tiny_tm())
        made.clear()
        sub = pool.subset(np.array([True, False, True]))
        assert made == [sub]

    def test_load_index(self, tmp_path, made):
        save_index(build_index(tiny_tm()), tmp_path / "tm.idx")
        made.clear()
        loaded = load_index(tmp_path / "tm.idx")
        assert made == [loaded]

    @pytest.mark.parametrize("sources", [["!!!"], ["the cat", "...", "?", "a dog"]])
    def test_a_pair_without_terms_is_named(self, sources):
        pairs = tuple(SentencePair(id=f"p{i}", source=s, target="t", domain="d") for i, s in enumerate(sources))
        bare = next(pair.id for pair in pairs if not analyze_for_index(pair.source))
        message = f"pair '{bare}' has no postings; a source without terms cannot be indexed"
        with pytest.raises(ValidationError) as raised:
            build_index(TranslationMemory(name="bare", pairs=pairs))
        assert str(raised.value) == message


# The defaults, other values, no tf saturation (k1 = 0) and no length norm (b = 0).
PARAMS = [Bm25Params(1.2, 0.75), Bm25Params(0.9, 0.4), Bm25Params(0.0, 1.0), Bm25Params(1.5, 0.0)]


def scores_by_id(index, query: str) -> dict[str, float]:
    return {m.pair_id: m.score for m in query_top_n(index, query, index.doc_count)}


class TestIdf:
    # A doc whose length is the average has norm k1, so a tf-1 match scores
    # idf * (k1 + 1) / (1 + k1): its score is the term's idf.
    def test_df_two_of_three(self):
        index = build_index(tiny_tm())
        idf_the = scores_by_id(index, "the")["d2"]  # d2 has the average length 2
        assert idf_the == pytest.approx(math.log(1.6), abs=1e-12)
        assert idf_the == pytest.approx(0.4700, abs=5e-5)

    def test_single_doc_corpus(self):
        tm = TranslationMemory(
            name="one", pairs=(SentencePair(id="p", source="cat", target="x", domain="d"),)
        )
        index = build_index(tm)
        idf_cat = scores_by_id(index, "cat")["p"]
        assert idf_cat == pytest.approx(math.log(4.0 / 3.0), abs=1e-12)
        assert idf_cat == pytest.approx(0.2877, abs=5e-5)

    def test_always_positive_even_when_term_is_everywhere(self):
        tm = TranslationMemory(
            name="everywhere",
            pairs=tuple(
                SentencePair(id=f"d{i}", source=f"the w{i}", target="t", domain="d")
                for i in range(3)
            ),
        )
        for index in (build_index(tiny_tm()), build_index(tm)):
            for term, plist in postings(index).items():
                scores = scores_by_id(index, term)
                assert len(scores) == len(plist)
                assert all(score > 0.0 for score in scores.values())


class TestBm25Score:
    def test_cat_on_d1(self):
        index = build_index(tiny_tm())
        expected = math.log(1.6) * 2.2 / (1.0 + 1.2 * (1 - 0.75 + 0.75 * 3 / 2))
        got = scores_by_id(index, "cat")["d1"]
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.390, abs=5e-4)

    def test_cat_on_d3_shorter_doc_scores_higher(self):
        scores = scores_by_id(build_index(tiny_tm()), "cat")
        assert scores["d3"] == pytest.approx(0.591, abs=5e-4)
        assert scores["d3"] > scores["d1"]

    def test_no_shared_terms_scores_zero(self):
        index = build_index(tiny_tm())
        assert "d1" not in scores_by_id(index, "zebra dog")

    def test_duplicate_query_terms_count_once(self):
        index = build_index(tiny_tm())
        assert scores_by_id(index, "cat cat") == scores_by_id(index, "cat")


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
        # "a" < "a\x00" in str order; numpy "U" arrays would compare them equal.
        for ids, want in (
            (("z", "a", "m"), ["a", "m", "z"]),
            (("a\x00", "z", "a"), ["a", "a\x00", "z"]),
        ):
            tm = TranslationMemory(
                name="ties",
                pairs=tuple(
                    SentencePair(id=pair_id, source="same words here", target="t", domain="d")
                    for pair_id in ids
                ),
            )
            matches = query_top_n(build_index(tm), "same words", 3)
            assert [m.pair_id for m in matches] == want

    def test_matches_brute_force_oracle_on_random_corpus(self):
        tm = make_random_tm(n_pairs=300, seed=4)
        for params in PARAMS:
            index = build_index(tm, params)
            queries = make_queries(tm, n_queries=25, seed=6)
            # Both scoring paths are taken: a dense row and a sparse gather-add.
            rows = {index.term_rows[t] for q in queries for t in analyze_for_index(q) if t in index.term_rows}
            assert rows & index.dense_rows.keys()
            assert rows - index.dense_rows.keys()
            for query in queries:
                # Without exclusions, then excluding the top hits and one id that
                # matches nothing, so the walk must skip before it stops at n.
                top = {pid for pid, _ in brute_force_top_n(tm, query, 3, params)}
                for exclusions in (frozenset(), frozenset(top | {"absent"})):
                    got = query_top_n(index, query, 10, exclusions)
                    want = brute_force_top_n(tm, query, 10, params, exclusions=exclusions)
                    assert [(m.pair_id, m.score.hex()) for m in got] == [
                        (pid, score.hex()) for pid, score in want
                    ]

    @pytest.mark.parametrize("params", PARAMS, ids=repr)
    def test_dense_row_at_its_df_bound_matches_the_oracle(self, params):
        # N = 8: "alpha" (df 2, df * 4 == N) has a dense row, "beta" (df 1) has none.
        sources = ["alpha beta", "alpha alpha gamma", "gamma"] + [f"gamma filler{i}" for i in range(5)]
        tm = TranslationMemory(
            name="bound",
            pairs=tuple(
                SentencePair(id=f"d{i}", source=source, target="t", domain="a")
                for i, source in enumerate(sources)
            ),
        )
        index = build_index(tm, params)
        assert index.term_rows["alpha"] in index.dense_rows
        assert index.term_rows["beta"] not in index.dense_rows
        for query in ("alpha beta", "beta alpha gamma", "alpha", "beta"):
            got = query_top_n(index, query, 8)
            want = brute_force_top_n(tm, query, 8, params)
            assert [(m.pair_id, m.score.hex()) for m in got] == [
                (pid, score.hex()) for pid, score in want
            ]

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
        before = scores_by_id(build_index(base), "cat")
        after = scores_by_id(build_index(boosted), "cat")
        assert after["d1"] >= before["d1"]

    def test_ranks_run_from_one_with_non_increasing_scores(self):
        tm = make_random_tm(n_pairs=120, seed=9)
        index = build_index(tm)
        for query in make_queries(tm, n_queries=10, seed=10):
            matches = query_top_n(index, query, 10)
            assert [m.rank for m in matches] == list(range(1, len(matches) + 1))
            scores = [m.score for m in matches]
            assert scores == sorted(scores, reverse=True)
            assert all(s > 0 for s in scores)

    def test_scores_do_not_depend_on_hash_seed(self):
        # Set iteration order changes with PYTHONHASHSEED; a score summed in
        # that order would change in its last bits from process to process.
        script = (
            "from ratkit import build_index, query_top_n\n"
            "from synthetic import make_queries, make_random_tm\n"
            "tm = make_random_tm(n_pairs=1000, seed=5)\n"
            "index = build_index(tm)\n"
            "for query in make_queries(tm, n_queries=100, seed=6):\n"
            "    print([(m.pair_id, repr(m.score)) for m in query_top_n(index, query, 10)])\n"
        )
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        outputs = [
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": seed},
                capture_output=True,
                text=True,
                check=True,
                timeout=120,
            ).stdout
            for seed in ("0", "1")
        ]
        assert outputs[0] and outputs[0] == outputs[1]


def _punctuated_tm() -> TranslationMemory:
    """Sources with repeated terms, edge punctuation, case and non-ASCII letters."""
    rng = random.Random(8)
    words = ["Cat", "cat,", "«cat»", "dog", "dog.", "¿qué?", "'tis", "über-maß", "٣", "x", "--x--"]
    return TranslationMemory(
        name="punctuated",
        pairs=tuple(
            SentencePair(id=f"q{i:03d}", source=" ".join(rng.choices(words, k=rng.randint(1, 9))),
                         target="t", domain=("a", "b", "c")[i % 3])
            for i in range(300)
        ),
    )


_POSTINGS_TMS = {
    "random-0": lambda: make_random_tm(1000, seed=0),
    "random-7": lambda: make_random_tm(2500, seed=7),
    "three-domain": lambda: make_three_domain()[0],
    "directional": lambda: make_directional()[0],
    "punctuated": _punctuated_tm,
    "tiny": tiny_tm,
}


class TestPostingsBuild:
    @pytest.mark.parametrize("name", sorted(_POSTINGS_TMS))
    def test_equals_the_counter_reference(self, name):
        tm = _POSTINGS_TMS[name]()
        index = build_index(tm)
        term_rows, offsets, docs, tfs, doc_lengths = counter_postings(pair.source for pair in tm.pairs)
        assert list(index.term_rows.items()) == list(term_rows.items())
        for got, want in ((index.offsets, offsets), (index.docs, docs), (index.tfs, tfs)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert index.docs.dtype == np.intp
        assert index.tfs.dtype == np.float64
        assert index.doc_lengths == doc_lengths

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_subset_of_a_pool_equals_the_counter_reference(self, seed):
        rng = random.Random(seed)
        pairs = list(make_random_tm(900, seed=seed).pairs + _punctuated_tm().pairs)
        rng.shuffle(pairs)
        pool = fresh_index(pairs)
        keep = np.array([rng.random() < 0.4 for _ in pairs])
        sub = pool.subset(keep)
        kept = tuple(pair for pair, k in zip(pairs, keep) if k)
        term_rows, offsets, docs, tfs, doc_lengths = counter_postings(pair.source for pair in kept)
        # A subset numbers its rows in the pool's term order, so compare term by term.
        assert set(sub.term_rows) == set(term_rows)
        for term, row in term_rows.items():
            sub_row = sub.term_rows[term]
            got = slice(sub.offsets[sub_row], sub.offsets[sub_row + 1])
            want = slice(offsets[row], offsets[row + 1])
            assert sub.docs[got].tobytes() == docs[want].tobytes()
            assert sub.tfs[got].tobytes() == tfs[want].tobytes()
        assert sub.docs.dtype == np.intp
        assert sub.tfs.dtype == np.float64
        assert sub.doc_lengths == doc_lengths


def full_sort_top_n(index, query_text: str, n: int, exclusions=frozenset()):
    """Reference ranking: score as query_top_n does, then sort every hit.

    Returns (pair_id, score as float.hex, rank) per result.
    """
    k1 = index.params.k1
    scores = np.zeros(index.doc_count)
    for term in sorted(set(analyze_for_index(query_text))):
        row = index.term_rows.get(term)
        if row is None:
            continue
        start, end = int(index.offsets[row]), int(index.offsets[row + 1])
        df = end - start
        term_idf = math.log(1.0 + (index.doc_count - df + 0.5) / (df + 0.5))
        docs, tfs = index.docs[start:end], index.tfs[start:end]
        scores[docs] += term_idf * tfs * (k1 + 1.0) / (tfs + index.norms[docs])
    hits = np.flatnonzero(scores > 0.0)
    ranked = hits[np.lexsort((index.id_rank[hits], -scores[hits]))]
    matches = []
    for doc in ranked:
        pair_id = index.pairs[doc].id
        if pair_id in exclusions:
            continue
        matches.append((pair_id, scores[doc].item().hex(), len(matches) + 1))
        if len(matches) == n:
            break
    return matches


def top_n(index, query_text: str, n: int, exclusions=frozenset()):
    return [(m.pair_id, m.score.hex(), m.rank) for m in query_top_n(index, query_text, n, exclusions)]


class TestTopMCut:
    def _ties_tm(self) -> TranslationMemory:
        """One best match for "red button", then six exact ties, then weaker hits."""
        sources = ["red button"] + ["red lamp"] * 6 + ["a red lamp and more words"] * 3 + ["blue lamp"]
        ids = ["m", "t5", "t0", "t3", "t1", "t4", "t2", "w2", "w0", "w1", "b"]
        return TranslationMemory(
            name="ties",
            pairs=tuple(SentencePair(id=i, source=s, target="t", domain="d") for i, s in zip(ids, sources)),
        )

    def test_ties_straddling_the_cut_stay_in(self):
        index = build_index(self._ties_tm())
        # m = 2, 3 and 4 fall inside the run of six tied scores.
        for n in (1, 2, 3, 4, 7, 8):
            want = full_sort_top_n(index, "red button", n)
            assert top_n(index, "red button", n) == want
        assert [pid for pid, _, _ in top_n(index, "red button", 4)] == ["m", "t0", "t1", "t2"]

    def test_excluded_ids_inside_the_top_m(self):
        index = build_index(self._ties_tm())
        for exclusions in ({"m"}, {"t0", "t1"}, {"m", "t0", "t5", "absent"}, {"t0", "t1", "t2", "t3", "t4"}):
            for n in (1, 2, 3, 5):
                want = full_sort_top_n(index, "red button", n, exclusions)
                assert top_n(index, "red button", n, exclusions) == want, (n, exclusions)

    def test_n_at_least_the_number_of_hits(self):
        index = build_index(self._ties_tm())
        for n in (11, 12, 50):  # every doc holds "red" or "lamp"
            want = full_sort_top_n(index, "red lamp", n)
            assert len(want) == 11
            assert top_n(index, "red lamp", n) == want

    def test_more_exclusions_than_hits(self):
        index = build_index(self._ties_tm())
        exclusions = frozenset({"t0", "t1"} | {f"absent{i}" for i in range(20)})
        want = full_sort_top_n(index, "red button", 2, exclusions)
        assert [pid for pid, _, _ in want] == ["m", "t2"]
        assert top_n(index, "red button", 2, exclusions) == want

    @pytest.mark.parametrize("params", [Bm25Params(), Bm25Params(0.9, 0.4), Bm25Params(2.0, 1.0)])
    def test_random_corpus_with_duplicated_sources(self, params):
        rng = random.Random(21)
        base = make_random_tm(n_pairs=600, seed=13).pairs
        copies = tuple(
            SentencePair(id=f"c{i:03d}", source=p.source, target=p.target, domain=p.domain)
            for i, p in enumerate(rng.sample(base, 200))
        )
        tm = TranslationMemory(name="dups", pairs=base + copies)
        index = build_index(tm, params)
        ids = [p.id for p in tm.pairs]
        for query in make_queries(tm, n_queries=40, seed=14):
            for n in (1, 3, 10, 50):
                top = {pid for pid, _, _ in full_sort_top_n(index, query, 5)}
                for exclusions in (frozenset(), frozenset(top), frozenset(rng.sample(ids, 30))):
                    assert top_n(index, query, n, exclusions) == full_sort_top_n(index, query, n, exclusions)


# The tiny TM as stored in an index file: (pair_id, domain, source, target)
# per doc. TINY_TERMS are its postings, which the file stores after the pairs.
TINY_DOCS = [
    ("d1", "a", "the cat sat", "die Katze sass"),
    ("d2", "a", "the dog", "der Hund"),
    ("d3", "a", "cat", "Katze"),
]
TINY_TERMS = [
    ("cat", [(0, 1), (2, 1)]),
    ("dog", [(1, 1)]),
    ("sat", [(0, 1)]),
    ("the", [(0, 1), (1, 1)]),
]
HEADER = INDEX_HEADER


def scalar_weights(index) -> list[float]:
    """Each posting's BM25 term weight from the module formula, one posting at a time."""
    k1, b = index.params.k1, index.params.b
    n = index.doc_count
    avgdl = sum(index.doc_lengths) / n
    weights = []
    for row in range(len(index.offsets) - 1):
        start, end = int(index.offsets[row]), int(index.offsets[row + 1])
        df = end - start
        idf = math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for doc, tf in zip(index.docs[start:end].tolist(), index.tfs[start:end].tolist()):
            norm = k1 * (1.0 - b + b * index.doc_lengths[doc] / avgdl)
            weights.append(idf * tf * (k1 + 1.0) / (tf + norm))
    return weights


def term_weights(index) -> dict[str, bytes]:
    """Term -> the bytes of its row's weights, whatever the row numbering."""
    return {
        term: index.weights[index.offsets[row] : index.offsets[row + 1]].tobytes()
        for term, row in index.term_rows.items()
    }


class TestWeights:
    @pytest.mark.parametrize("params", PARAMS, ids=repr)
    @pytest.mark.parametrize("name", sorted(_POSTINGS_TMS))
    def test_equal_the_scalar_formula(self, name, params):
        index = build_index(_POSTINGS_TMS[name](), params)
        assert index.weights.dtype == np.float64
        assert index.weights.tobytes() == np.array(scalar_weights(index)).tobytes()

    @pytest.mark.parametrize("params", PARAMS, ids=repr)
    def test_every_subset_equals_a_fresh_build(self, params):
        tm = make_three_domain()[0]
        pool = build_index(tm, params)
        domains = np.array([pair.domain for pair in tm.pairs])
        for domain in sorted(tm.domains):
            for keep in (domains == domain, domains != domain):
                sub = pool.subset(keep)
                fresh = fresh_index((p for p, k in zip(tm.pairs, keep) if k), params)
                assert term_weights(sub) == term_weights(fresh)
                assert sub.weights.tobytes() == np.array(scalar_weights(sub)).tobytes()

    @pytest.mark.parametrize("params", PARAMS, ids=repr)
    def test_survive_a_save_load_round_trip(self, tmp_path, params):
        index = build_index(make_random_tm(n_pairs=200, seed=12), params)
        save_index(index, tmp_path / "tm.idx")
        loaded = load_index(tmp_path / "tm.idx")
        assert loaded.weights.tobytes() == index.weights.tobytes()


def _round_trip_tm(seed: int) -> TranslationMemory:
    """Random pairs with punctuated and non-ASCII ones, and one source repeating a term 300 times."""
    rng = random.Random(seed)
    pairs = list(make_random_tm(400, seed=seed).pairs + _punctuated_tm().pairs)
    pairs.append(SentencePair(id="long", source=" ".join(["w001"] * 300 + ["über"]), target="t", domain="it"))
    rng.shuffle(pairs)
    return TranslationMemory(name=f"round-trip-{seed}", pairs=tuple(pairs))


def _cut_index() -> TmIndex:
    """A scenario-like cut, whose rows are numbered in its pool's term order."""
    pool = build_index(_round_trip_tm(3))
    sub = pool.subset(np.array([pair.domain in ("it", "b") for pair in pool.pairs]))
    assert list(sub.term_rows) != list(fresh_index(sub.pairs, sub.params).term_rows)
    return sub


def _wide_index() -> TmIndex:
    """65536 + 10 documents, so doc ids and df take 4 bytes each."""
    pairs = tuple(
        SentencePair(id=f"p{i:05d}", source=f"w{i % 7} v{i % 301} x{i}", target="t", domain="d")
        for i in range((1 << 16) + 10)
    )
    return fresh_index(pairs)


_ROUND_TRIPS = {
    **{f"fresh-{seed}": (lambda seed=seed: build_index(_round_trip_tm(seed), PARAMS[seed % 4]))
       for seed in (0, 5, 9)},
    "cut": _cut_index,
    "wide": _wide_index,
}


class TestRoundTrip:
    """``load_index(save_index(x))`` equals ``x`` in every field a query or a save reads."""

    @pytest.mark.parametrize("name", list(_ROUND_TRIPS))
    def test_load_of_a_save_equals_the_index(self, tmp_path, name, monkeypatch):
        index = _ROUND_TRIPS[name]()
        path = tmp_path / "tm.idx"
        save_index(index, path)
        header = json.loads(path.read_bytes().split(b"\n", 1)[0])
        # "long" repeats one term 300 times; "wide" has 1 << 16 documents and more.
        assert (header["doc_bytes"], header["tf_bytes"]) == ((4, 1) if name == "wide" else (2, 4))

        def no_analysis(text):
            raise AssertionError("load_index analyzed a source")

        def no_record(*args):
            raise AssertionError("load_index parsed a JSONL record line")

        monkeypatch.setattr(retrieval, "analyze_for_index", no_analysis)
        monkeypatch.setattr(corpus, "_parse_record", no_record)
        loaded = load_index(path)
        monkeypatch.undo()

        assert list(loaded.term_rows.items()) == list(index.term_rows.items())
        for field in ("offsets", "docs", "tfs", "norms", "weights", "id_rank"):
            got, want = getattr(loaded, field), getattr(index, field)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), field
        assert loaded.doc_lengths == index.doc_lengths
        assert {row: v.tobytes() for row, v in loaded.dense_rows.items()} == {
            row: v.tobytes() for row, v in index.dense_rows.items()
        }
        assert list(loaded.dense_rows) == list(index.dense_rows)
        assert loaded.pairs == index.pairs
        assert loaded.params == index.params
        assert loaded.avg_doc_length.hex() == index.avg_doc_length.hex()
        queries = make_queries(TranslationMemory("q", index.pairs), n_queries=40, seed=6)
        for query in queries + ["w001 über", "¿qué? cat", "w3 v7 x65540"]:
            assert query_top_n(loaded, query, 10) == query_top_n(index, query, 10)
        again = tmp_path / "again.idx"
        save_index(loaded, again)
        assert again.read_bytes() == path.read_bytes()


class TestPersistence:
    def test_round_trip_preserves_structure(self, tmp_path):
        tm = make_random_tm(n_pairs=80, seed=13)
        path = tmp_path / "tm.idx"
        # 0.1 + 0.2 and 1/3 have no short decimal form; both must come back
        # bit for bit.
        for k1, b in ((1.2, 0.75), (0.1 + 0.2, 1 / 3)):
            index = build_index(tm, Bm25Params(k1=k1, b=b))
            save_index(index, path)
            loaded = load_index(path)
            assert loaded.doc_count == index.doc_count
            assert loaded.avg_doc_length == index.avg_doc_length
            assert loaded.doc_lengths == index.doc_lengths
            assert loaded.norms.tolist() == index.norms.tolist()
            assert postings(loaded) == postings(index)
            assert dense_rows(index)
            assert dense_rows(loaded) == dense_rows(index)
            assert loaded.pairs == index.pairs
            assert loaded.params.k1.hex() == k1.hex()
            assert loaded.params.b.hex() == b.hex()

    def test_save_load_save_is_bit_stable(self, tmp_path):
        index = build_index(make_random_tm(n_pairs=80, seed=13))
        first = tmp_path / "a.idx"
        second = tmp_path / "b.idx"
        save_index(index, first)
        save_index(load_index(first), second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_column_lines_at_the_chunk_edges_equal_json_dumps(self, tmp_path, offset):
        chunk = retrieval._COLUMN_CHUNK
        count = chunk + offset
        pairs = tuple(
            SentencePair(id=f"p{i}", source=f"w{i % 5} über {i}", target=f"«t» \"{i}\"", domain="d")
            for i in range(count)
        )
        pieces = list(retrieval._column_lines(pairs))
        # "[", one piece per run of up to `chunk` values, then "]\n", per column.
        assert len(pieces) == 4 * (2 + -(-count // chunk))
        columns = [json.dumps([getattr(p, f) for p in pairs], ensure_ascii=False) for f in retrieval._PAIR_FIELDS]
        assert "".join(pieces).split("\n") == columns + [""]
        path = tmp_path / "tm.idx"
        save_index(fresh_index(pairs), path)
        assert path.read_text(encoding="utf-8").split("\n")[1:5] == columns

    def test_a_sha256_line_is_no_v7_checksum(self, tmp_path):
        path = tmp_path / "tm.idx"
        save_index(build_index(tiny_tm()), path)
        body = path.read_bytes().rsplit(b"\n", 2)[0] + b"\n"
        path.write_bytes(body + b'{"sha256": "%s"}\n' % hashlib.sha256(body).hexdigest().encode())
        with pytest.raises(ValidationError, match="no checksum line"):
            load_index(path)

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
        with pytest.raises(ValidationError, match="not a ratkit index"):
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

    def test_v1_file_rejected_with_rebuild_hint(self, tmp_path):
        # v2 and v3 files too: v2 stored postings, v3 was a binary container.
        path = tmp_path / "old.idx"
        for magic in (b"RATIDX1\0", b"RATIDX2\0", b"RATIDX3\0"):
            path.write_bytes(magic + b"\x00" * 64)
            with pytest.raises(ValidationError, match="rebuild"):
                load_index(path)

    def test_checksum_mismatch_rejected(self, tmp_path):
        path = tmp_path / "tm.idx"
        save_index(build_index(tiny_tm()), path)
        data = bytearray(path.read_bytes())
        data[data.index(b"Katze")] = ord("k")
        path.write_bytes(bytes(data))
        with pytest.raises(ValidationError, match="checksum"):
            load_index(path)

    def test_parameter_edit_fails_the_checksum(self, tmp_path):
        # The digest covers the header line, so k1 and b cannot be changed
        # without it.
        path = tmp_path / "tm.idx"
        save_index(build_index(tiny_tm()), path)
        original = path.read_bytes()
        for before, after in ((b'"k1": 1.2', b'"k1": 1.7'), (b'"b": 0.75', b'"b": 0.25')):
            assert original.count(before) == 1
            path.write_bytes(original.replace(before, after))
            with pytest.raises(ValidationError, match="checksum"):
                load_index(path)

    def test_layout_matches_the_documented_format(self, tmp_path):
        path = tmp_path / "tm.idx"
        tm = tiny_tm()
        save_index(build_index(tm), path)
        data = path.read_bytes()
        assert data == index_file(TINY_DOCS)
        lines = data.decode("utf-8").splitlines(keepends=True)
        assert lines[0] == (
            '{"b": 0.75, "doc_bytes": 2, "format": "ratkit-index", "k1": 1.2, "pairs": 3, '
            '"postings": 6, "terms": 4, "tf_bytes": 1, "version": 7}\n'
        )
        # Every pair's id, domain, source and target, each line one json.dumps.
        assert lines[1:5] == [
            '["d1", "d2", "d3"]\n',
            '["a", "a", "a"]\n',
            '["the cat sat", "the dog", "cat"]\n',
            '["die Katze sass", "der Hund", "Katze"]\n',
        ]
        # The terms in row order, then df, docs and tfs as little-endian u2, u2, u1.
        assert lines[5] == "the cat sat dog\n"
        arrays = [base64.b64decode(line) for line in lines[6:9]]
        assert arrays == [
            np.array([2, 2, 1, 1], "<u2").tobytes(),
            np.array([0, 1, 0, 2, 0, 1], "<u2").tobytes(),
            bytes([1] * 6),
        ]
        body = "".join(lines[:-1]).encode("utf-8")
        assert lines[-1] == '{"blake2b": "%s"}\n' % hashlib.blake2b(body, digest_size=32).hexdigest()
        assert postings(load_index(path)) == dict(TINY_TERMS)

    @pytest.mark.parametrize(
        "docs, header, where, reason",
        [
            (TINY_DOCS[:2] + [("d3", "a", " ", "Katze")], HEADER, ":4", "source is empty"),
            (TINY_DOCS[:2] + [("d3", "a", "...", "Katze")], HEADER, ":8", "source without terms"),
            (TINY_DOCS[:2] + [("d3", "a", "cat", "Kat\nze")], HEADER, ":5", "line break"),
            (TINY_DOCS[:2] + [("d1", "a", "cat", "Katze")], HEADER, ":2",
             "duplicate id 'd1' at positions 0 and 2"),
            ([], HEADER, ":2", "translation memory 'bad.idx' is empty"),
            (TINY_DOCS, {**HEADER, "k1": math.nan}, ":1", "k1 must be finite"),
            (TINY_DOCS, b"k1=1.2 b=0.75", ":1", "invalid JSON"),
            (TINY_DOCS, b"[0.75, 1.2]", ":1", "header is not a JSON object"),
            (TINY_DOCS, {**HEADER, "format": "ratkit"}, ":1", "format 'ratkit' is not"),
            (TINY_DOCS, {**HEADER, "version": 3}, ":1", "version 3 is not supported"),
            (TINY_DOCS, {**HEADER, "version": 7.0}, ":1", "version 7.0 is not supported"),
            (TINY_DOCS, {**HEADER, "k1": "1.2"}, ":1", "'k1' is missing or not a number"),
            (TINY_DOCS, {**HEADER, "b": True}, ":1", "'b' is missing or not a number"),
            (TINY_DOCS, {**HEADER, "k1": 10**400}, ":1", "too large to convert to float"),
            pytest.param(
                TINY_DOCS, b'{"b": 0.75, "format": "ratkit-index", "k1": 1%s, "version": 7}'
                % (b"0" * 5000), ":1", "invalid JSON: Exceeds the limit",
                marks=pytest.mark.skipif(
                    not hasattr(sys, "get_int_max_str_digits"),
                    reason="this Python has no int digit limit",
                ),
            ),
            (TINY_DOCS, {"b": 0.75, "format": "ratkit-index", "version": 7}, ":1",
             "'k1' is missing"),
            ({"records": TINY_DOCS, "source": b'["the cat sat", "the dog", "caf\xe9"]'},
             HEADER, ":4", "not valid UTF-8"),
        ],
        ids=["blank-source", "source-without-terms", "line-break", "duplicate-id",
             "no-docs", "k1-nan", "header-not-json", "header-not-object", "wrong-format",
             "wrong-version", "float-version", "k1-string", "b-bool", "k1-huge-int", "k1-digit-limit",
             "k1-missing",
             "non-utf8-record"],
    )
    def test_invalid_content_with_valid_checksum_rejected(
        self, tmp_path, docs, header, where, reason
    ):
        # ``docs``: the pairs, or index_file's keyword arguments.
        kwargs = docs if isinstance(docs, dict) else {"records": docs}
        path = tmp_path / "bad.idx"
        path.write_bytes(index_file(header=header, **kwargs))
        with pytest.raises(ValidationError, match=rf"bad\.idx{where}: .*{reason}"):
            load_index(path)

    def test_corrupted_bytes_never_load_silently(self, tmp_path):
        path = tmp_path / "tm.idx"
        save_index(build_index(make_random_tm(n_pairs=200, seed=21)), path)
        original = path.read_bytes()
        rng = random.Random(22)
        for _ in range(1000):
            data = bytearray(original)
            for _ in range(rng.randint(1, 4)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            path.write_bytes(bytes(data))
            if data == original:
                load_index(path)
                continue
            with pytest.raises(ValidationError):
                load_index(path)


    def test_edited_postings_with_a_valid_checksum_raise_only_validation_errors(self, tmp_path):
        path = tmp_path / "tm.idx"
        index = build_index(make_random_tm(n_pairs=60, seed=25))
        save_index(index, path)
        lines = path.read_bytes().splitlines(keepends=True)[:-1]
        alphabet = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/= w\xc3\xa9"
        rng = random.Random(26)
        outcomes = Counter()
        for _ in range(400):
            edited = list(lines)
            at = rng.randrange(len(edited) - 4, len(edited))  # the terms, df, docs or tfs line
            line = bytearray(edited[at][:-1])
            for _ in range(rng.randint(1, 3)):
                line[rng.randrange(len(line))] = rng.choice(alphabet)
            edited[at] = bytes(line) + b"\n"
            body = b"".join(edited)
            path.write_bytes(body + checksum_line(body))
            try:
                loaded = load_index(path)
            except ValidationError as exc:
                assert f"tm.idx:{at + 1}: " in str(exc)
                outcomes["rejected"] += 1
            else:
                # An edit that keeps every invariant is a valid index.
                assert loaded.doc_count == index.doc_count
                outcomes["loaded"] += 1
        assert outcomes["rejected"] > 100 and outcomes["loaded"] > 0

    def test_parses_the_checksummed_bytes_without_copying_them(self, tmp_path, monkeypatch):
        path = tmp_path / "tm.idx"
        save_index(build_index(make_random_tm(n_pairs=3000, seed=23)), path)
        size = path.stat().st_size
        held = []
        read_columns = retrieval._read_columns

        def measured(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return read_columns(*args)

        monkeypatch.setattr(retrieval, "_read_columns", measured)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_index(path)
        finally:
            tracemalloc.stop()
        assert loaded.doc_count == 3000
        # The file's bytes are held once while the records are parsed; a copy
        # for the parser would hold them twice.
        assert size < held[0] - before < 1.25 * size

    def test_crlf_line_ends_lose_no_pair(self, tmp_path):
        index = build_index(make_random_tm(n_pairs=50, seed=24))
        path = tmp_path / "tm.idx"
        save_index(index, path)
        lines = path.read_bytes().splitlines(keepends=True)
        body = b"".join(line.replace(b"\n", b"\r\n") for line in lines[:-1])
        path.write_bytes(body + checksum_line(body))
        assert load_index(path).pairs == index.pairs
