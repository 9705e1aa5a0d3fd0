"""Top-k and shuffled suggestion sampling, flattening, and serialization."""

from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratkit import (
    AugmentationConfig,
    CorpusFormatError,
    ValidationError,
    augment_corpus,
    build_index,
)
from ratkit.augmentation import (
    AugmentedExample,
    _augmented_line,
    _select,
    read_augmented,
    write_augmented,
)
from ratkit.corpus import SentencePair, TranslationMemory
from ratkit.retrieval import FuzzyMatch
from ratkit.seeding import derive_seed, derived_rng

from synthetic import make_random_tm, tiny_tm


def make_matches(count: int) -> list[FuzzyMatch]:
    return [
        FuzzyMatch(
            pair_id=f"m{i:02d}",
            score=float(count - i),
            rank=i + 1,
            source=f"src {i}",
            target=f"tgt {i}",
            domain="d",
        )
        for i in range(count)
    ]


class TestConfig:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValidationError, match="mode"):
            AugmentationConfig(k=1, mode="other")

    def test_rejects_k_below_one(self):
        with pytest.raises(ValidationError, match="k must be"):
            AugmentationConfig(k=0)

    def test_rejects_pool_smaller_than_k(self):
        with pytest.raises(ValidationError, match="pool_size"):
            AugmentationConfig(k=5, pool_size=3, mode="shuffle")

    def test_topk_ignores_the_pool(self):
        assert AugmentationConfig(k=5, pool_size=3).pool_size == 3

    @pytest.mark.parametrize("sep", ["", "has space", "tab\there"])
    def test_rejects_bad_separator(self, sep):
        with pytest.raises(ValidationError, match="separator"):
            AugmentationConfig(k=1, separator=sep)


def shuffled(matches, k, pool_size, seed=0, pair_id="p"):
    """The suggestions ``_select`` samples for one pair in shuffle mode."""
    cfg = AugmentationConfig(k=k, pool_size=pool_size, mode="shuffle", seed=seed)
    return _select(pair_id, "src", "ref", matches, cfg).suggestions


class TestSampleSuggestions:
    def test_sample_is_distinct_and_from_pool(self):
        picked = shuffled(make_matches(15), k=3, pool_size=10)
        assert len(picked) == 3
        assert len({m.pair_id for m in picked}) == 3
        assert all(m.rank <= 10 for m in picked)

    def test_pool_smaller_than_k_returns_everything(self):
        picked = shuffled(make_matches(2), k=3, pool_size=10)
        assert {m.pair_id for m in picked} == {"m00", "m01"}

    def test_returned_in_ascending_rank_order(self):
        for seed in range(20):
            picked = shuffled(make_matches(10), k=4, pool_size=10, seed=seed)
            assert [m.rank for m in picked] == sorted(m.rank for m in picked)

    def test_inclusion_frequency_matches_uniform_draw(self):
        # smaller sibling of the acceptance check: k/N = 2/5
        matches = make_matches(5)
        counts = {m.pair_id: 0 for m in matches}
        draws = 20000
        for i in range(draws):
            for m in shuffled(matches, 2, 5, seed=99, pair_id=str(i)):
                counts[m.pair_id] += 1
        for count in counts.values():
            assert 0.37 <= count / draws <= 0.43


class TestFlattenInput:
    def test_single_space_joined_with_separator(self):
        example = _select("p", "die Quelle", "ref", make_matches(2), AugmentationConfig(k=2))
        assert example.flat_input == "die Quelle @@SEP@@ tgt 0 @@SEP@@ tgt 1"

    def test_no_suggestions_is_just_the_source(self):
        example = _select("p", "nur Quelle", "ref", [], AugmentationConfig(k=1))
        assert example.flat_input == "nur Quelle"


class TestAugmentCorpus:
    def test_topk_on_tiny_tm_excludes_self(self):
        tm = tiny_tm()
        index = build_index(tm)
        cfg = AugmentationConfig(k=2, mode="topk", exclude_self=True)
        by_id = {ex.pair_id: ex for ex in augment_corpus(tm, index, cfg)}
        d3 = by_id["d3"]
        # d1 is the only other pair sharing a term, so topk returns fewer than k
        assert [m.pair_id for m in d3.suggestions] == ["d1"]
        assert d3.suggestions[0].target == "die Katze sass"
        assert all(
            ex.pair_id not in {m.pair_id for m in ex.suggestions} for ex in by_id.values()
        )

    def test_examples_follow_corpus_order(self):
        tm = make_random_tm(n_pairs=40, seed=21)
        index = build_index(tm)
        examples = list(augment_corpus(tm, index, AugmentationConfig(k=3)))
        assert [ex.pair_id for ex in examples] == [p.id for p in tm.pairs]

    def test_flat_input_matches_invariant(self):
        tm = make_random_tm(n_pairs=30, seed=22)
        index = build_index(tm)
        cfg = AugmentationConfig(k=2, separator="@@SEP@@")
        for ex in augment_corpus(tm, index, cfg):
            expected = " ".join(
                [ex.source] + [part for m in ex.suggestions for part in ("@@SEP@@", m.target)]
            )
            assert ex.flat_input == expected

    def test_shuffle_same_seed_is_byte_identical(self, tmp_path):
        tm = make_random_tm(n_pairs=60, seed=23)
        index = build_index(tm)
        cfg = AugmentationConfig(k=3, pool_size=10, mode="shuffle", seed=77)
        paths_a = write_augmented(augment_corpus(tm, index, cfg), tmp_path / "runa")
        paths_b = write_augmented(augment_corpus(tm, index, cfg), tmp_path / "runb")
        for a, b in zip(paths_a, paths_b):
            assert a.read_bytes() == b.read_bytes()

    def test_shuffle_different_seeds_differ_somewhere(self):
        tm = make_random_tm(n_pairs=100, seed=24)
        index = build_index(tm)
        runs = []
        for seed in (1, 2):
            cfg = AugmentationConfig(k=3, pool_size=10, mode="shuffle", seed=seed)
            runs.append(
                [tuple(m.pair_id for m in ex.suggestions) for ex in augment_corpus(tm, index, cfg)]
            )
        assert runs[0] != runs[1]

    def test_shuffle_suggestions_come_from_top_pool(self):
        from ratkit import query_top_n

        tm = make_random_tm(n_pairs=80, seed=25)
        index = build_index(tm)
        cfg = AugmentationConfig(k=3, pool_size=5, mode="shuffle", seed=9)
        for ex in augment_corpus(tm, index, cfg):
            pool_ids = {m.pair_id for m in query_top_n(index, ex.source, 5)}
            assert {m.pair_id for m in ex.suggestions} <= pool_ids

    def test_topk_equals_shuffle_with_pool_k_as_sets(self):
        tm = make_random_tm(n_pairs=50, seed=26)
        index = build_index(tm)
        top = list(augment_corpus(tm, index, AugmentationConfig(k=3, mode="topk")))
        shuffled = list(
            augment_corpus(tm, index, AugmentationConfig(k=3, pool_size=3, mode="shuffle", seed=5))
        )
        for a, b in zip(top, shuffled):
            assert {m.pair_id for m in a.suggestions} == {m.pair_id for m in b.suggestions}

    def test_corpus_permutation_does_not_change_per_pair_suggestions(self):
        tm = make_random_tm(n_pairs=40, seed=27)
        index = build_index(tm)
        cfg = AugmentationConfig(k=3, pool_size=10, mode="shuffle", seed=31)
        forward = {ex.pair_id: ex.suggestions for ex in augment_corpus(tm, index, cfg)}
        reordered = TranslationMemory(name="rev", pairs=tuple(reversed(tm.pairs)))
        backward = {ex.pair_id: ex.suggestions for ex in augment_corpus(reordered, index, cfg)}
        assert forward == backward

    def test_exclude_self_on_own_training_corpus(self):
        tm = make_random_tm(n_pairs=60, seed=28)
        index = build_index(tm)
        cfg = AugmentationConfig(k=3, exclude_self=True)
        for ex in augment_corpus(tm, index, cfg):
            assert ex.pair_id not in {m.pair_id for m in ex.suggestions}
            assert all(m.source != ex.source for m in ex.suggestions)

    def test_exclude_self_drops_every_pair_with_the_same_source(self):
        tm = TranslationMemory(
            name="dups",
            pairs=(
                SentencePair(id="a", source="open the file", target="ta", domain="d"),
                SentencePair(id="b", source="open the file", target="tb", domain="d"),
                SentencePair(id="c", source="open the door", target="tc", domain="d"),
            ),
        )
        index = build_index(tm)

        def suggested(corpus, exclude_self):
            cfg = AugmentationConfig(k=3, exclude_self=exclude_self)
            return {ex.pair_id: [m.pair_id for m in ex.suggestions]
                    for ex in augment_corpus(corpus, index, cfg)}

        assert suggested(tm, True) == {"a": ["c"], "b": ["c"], "c": ["a", "b"]}
        assert suggested(tm, False)["a"] == ["a", "b", "c"]
        # A query from outside the index loses the indexed pairs with its source too.
        query = SentencePair(id="q", source="open the file", target="tq", domain="d")
        assert suggested(TranslationMemory("q", (query,)), True) == {"q": ["c"]}

    def test_separator_collision_detected_before_output(self):
        tm = TranslationMemory(
            name="collide",
            pairs=(
                SentencePair(id="p1", source="text with @@SEP@@ inside", target="t", domain="d"),
                SentencePair(id="p2", source="plain text", target="t", domain="d"),
            ),
        )
        index = build_index(tm)
        with pytest.raises(ValidationError, match="separator"):
            list(augment_corpus(tm, index, AugmentationConfig(k=1)))

    def test_separator_collision_in_index_targets_detected(self):
        queries = TranslationMemory(
            name="clean",
            pairs=(SentencePair(id="q1", source="plain text", target="t", domain="d"),),
        )
        tainted = TranslationMemory(
            name="tainted",
            pairs=(
                SentencePair(id="x1", source="plain text", target="bad @@SEP@@ token", domain="d"),
            ),
        )
        index = build_index(tainted)
        with pytest.raises(ValidationError, match="separator"):
            list(augment_corpus(queries, index, AugmentationConfig(k=1)))


def json_dumps_line(example: AugmentedExample) -> str:
    """The reference JSONL line: the record dict through json.dumps."""
    record = {
        "id": example.pair_id,
        "src": example.source,
        "ref": example.reference,
        "suggestions": [
            {"id": m.pair_id, "rank": m.rank, "score": m.score, "tgt": m.target}
            for m in example.suggestions
        ],
        "flat": example.flat_input,
    }
    return json.dumps(record, ensure_ascii=False) + "\n"


# Fields as augment_corpus makes them, and as read_augmented may read them back.
_field = st.one_of(st.text(), st.integers(), st.booleans())
_number = st.one_of(st.floats(), st.integers(), st.booleans(), st.text(max_size=3))
_suggestion = st.builds(
    FuzzyMatch, pair_id=_field, score=_number, rank=_number,
    source=st.just(""), target=_field, domain=st.just(""),
)
_example = st.builds(
    AugmentedExample, pair_id=_field, source=_field, reference=_field,
    suggestions=st.lists(_suggestion, max_size=3).map(tuple), flat_input=_field,
)


class TestSerialization:
    @settings(max_examples=300, deadline=None)
    @given(_example)
    def test_jsonl_line_equals_json_dumps(self, example):
        assert _augmented_line(example) == json_dumps_line(example)

    def test_jsonl_file_equals_json_dumps_lines(self, tmp_path):
        tm = make_random_tm(n_pairs=20, seed=28)
        examples = list(augment_corpus(tm, build_index(tm), AugmentationConfig(k=3)))
        jsonl, _, _ = write_augmented(examples, tmp_path / "aug")
        assert jsonl.read_text(encoding="utf-8") == "".join(map(json_dumps_line, examples))

    def test_jsonl_record_schema(self, tmp_path):
        tm = make_random_tm(n_pairs=10, seed=29)
        index = build_index(tm)
        examples = list(augment_corpus(tm, index, AugmentationConfig(k=2)))
        jsonl, flat, ref = write_augmented(examples, tmp_path / "aug")
        record = json.loads(jsonl.read_text(encoding="utf-8").splitlines()[0])
        assert set(record) == {"id", "src", "ref", "suggestions", "flat"}
        assert set(record["suggestions"][0]) == {"id", "rank", "score", "tgt"}
        assert len(flat.read_text(encoding="utf-8").splitlines()) == len(examples)
        assert len(ref.read_text(encoding="utf-8").splitlines()) == len(examples)

    def test_read_augmented_round_trips_core_fields(self, tmp_path):
        tm = make_random_tm(n_pairs=15, seed=30)
        index = build_index(tm)
        examples = list(augment_corpus(tm, index, AugmentationConfig(k=2)))
        jsonl, _, _ = write_augmented(examples, tmp_path / "aug")
        loaded = read_augmented(jsonl)
        assert [ex.pair_id for ex in loaded] == [ex.pair_id for ex in examples]
        for a, b in zip(loaded, examples):
            assert a.source == b.source
            assert a.reference == b.reference
            assert a.flat_input == b.flat_input
            assert [(m.pair_id, m.rank, m.score, m.target) for m in a.suggestions] == [
                (m.pair_id, m.rank, m.score, m.target) for m in b.suggestions
            ]

    def test_read_augmented_names_a_non_utf8_line(self, tmp_path):
        tm = make_random_tm(n_pairs=3, seed=30)
        examples = list(augment_corpus(tm, build_index(tm), AugmentationConfig(k=1)))
        jsonl, _, _ = write_augmented(examples, tmp_path / "aug")
        lines = jsonl.read_bytes().splitlines(keepends=True)
        jsonl.write_bytes(lines[0] + lines[1].replace(b"tgt", b"tgt\xe9", 1) + lines[2])
        with pytest.raises(CorpusFormatError, match=r"aug\.jsonl:2: not valid UTF-8"):
            read_augmented(jsonl)

    def test_failed_rewrite_keeps_the_old_files(self, tmp_path):
        tm = make_random_tm(n_pairs=4, seed=31)
        examples = list(augment_corpus(tm, build_index(tm), AugmentationConfig(k=1)))
        paths = write_augmented(examples, tmp_path / "aug")
        before = {path: path.read_bytes() for path in paths}
        # A score that JSON cannot encode fails the rewrite at its third record.
        broken = dataclasses.replace(examples[2].suggestions[0], score=object())
        examples[2] = dataclasses.replace(examples[2], suggestions=(broken,))
        with pytest.raises(TypeError):
            write_augmented(examples, tmp_path / "aug")
        assert {path: path.read_bytes() for path in paths} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(p.name for p in paths)


class TestSeedDerivation:
    def test_distinct_parts_give_distinct_seeds(self):
        seeds = {derive_seed(7, f"pair{i}") for i in range(1000)}
        assert len(seeds) == 1000

    def test_same_parts_same_seed(self):
        assert derive_seed(7, "x", 3) == derive_seed(7, "x", 3)

    @given(st.integers(min_value=0, max_value=2**64 - 1), st.text(max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_derived_rng_reproducible(self, seed, part):
        a = derived_rng(seed, part).random()
        b = derived_rng(seed, part).random()
        assert a == b
