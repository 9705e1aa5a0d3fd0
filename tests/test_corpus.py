"""Corpus loading, validation, and the two tokenizations."""

from __future__ import annotations

import json
import random
import re
import sys
import unicodedata
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ratkit import CorpusFormatError, ValidationError, load_corpus
from ratkit.corpus import (
    SentencePair,
    TranslationMemory,
    _jsonl_line,
    _strip_edge_punctuation,
    analyze_for_index,
    atomic_write,
    make_dirs,
    read_lines,
    save_corpus,
    tokenize_13a,
    write_lines,
)

FIXTURE = Path(__file__).parent / "data" / "bleu_fixture.json"

# Pieces of text that the 13a rules treat specially: edge periods, commas
# and dashes, digits, entities and their halves, <skipped>, line breaks.
_13A_FRAGMENTS = [
    "a", "Z", "7", ".", ",", "-", " ", "\n", "\t", "&quot;", "&quot", "quot;", "&amp;",
    "&lt;", "&", ";", "<skipped>", "<", ">", "skipped", "é", "!", "'", "$",
]


def _write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def make_tm() -> TranslationMemory:
    return TranslationMemory(
        name="mini",
        pairs=(
            SentencePair(id="a1", source="guten Tag", target="good day", domain="d1"),
            SentencePair(id="a2", source="wie geht's?", target="how are you?", domain="d1"),
            SentencePair(id="a3", source="público", target="public", domain="d2"),
        ),
    )


class TestSentencePair:
    def test_rejects_empty_id(self):
        with pytest.raises(ValidationError, match="empty id"):
            SentencePair(id="", source="x", target="y", domain="d")

    def test_rejects_blank_source(self):
        with pytest.raises(ValidationError, match="source is empty"):
            SentencePair(id="p", source="   ", target="y", domain="d")

    def test_rejects_blank_target(self):
        with pytest.raises(ValidationError, match="target is empty"):
            SentencePair(id="p", source="x", target=" \t ", domain="d")

    def test_rejects_embedded_newline(self):
        with pytest.raises(ValidationError, match="line break"):
            SentencePair(id="p", source="two\nlines", target="y", domain="d")


class TestTranslationMemory:
    def test_rejects_empty(self):
        with pytest.raises(ValidationError, match="empty"):
            TranslationMemory(name="nothing", pairs=())

    def test_rejects_duplicate_ids(self):
        pair = SentencePair(id="p1", source="a", target="b", domain="d")
        with pytest.raises(ValidationError, match="duplicate pair id 'p1'"):
            TranslationMemory(name="dup", pairs=(pair, pair))

    def test_domains_collects_distinct_labels(self):
        assert make_tm().domains == frozenset({"d1", "d2"})

    def test_len_and_iter(self):
        tm = make_tm()
        assert len(tm) == 3
        assert [p.id for p in tm] == ["a1", "a2", "a3"]


class TestLoadCorpus:
    def test_jsonl_three_records(self, tmp_path):
        path = _write(
            tmp_path / "tm.jsonl",
            '{"id": "s1", "domain": "it", "src": "hallo", "tgt": "hello"}\n'
            '{"id": "s2", "domain": "law", "src": "gericht", "tgt": "court"}\n'
            '{"id": "s3", "domain": "it", "src": "rechner", "tgt": "computer"}\n',
        )
        tm = load_corpus(path)
        assert len(tm) == 3
        assert tm.domains == frozenset({"it", "law"})
        assert tm.pairs[1].source == "gericht"
        assert tm.name == "tm"

    def test_duplicate_id_cites_both_lines(self, tmp_path):
        path = _write(
            tmp_path / "tm.jsonl",
            '{"id": "s1", "domain": "d", "src": "a", "tgt": "b"}\n'
            '{"id": "s2", "domain": "d", "src": "c", "tgt": "d"}\n'
            '{"id": "s3", "domain": "d", "src": "e", "tgt": "f"}\n'
            '{"id": "s1", "domain": "d", "src": "g", "tgt": "h"}\n',
        )
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert err.value.line == 4
        assert "duplicate id 's1'" in str(err.value)
        assert "line 1" in str(err.value)

    def test_tsv_five_pairs_two_domains(self, tmp_path):
        rows = [
            "t1\td1\tein\tone",
            "t2\td1\tzwei\ttwo",
            "t3\td2\tdrei\tthree",
            "t4\td2\tvier\tfour",
            "t5\td2\tfünf\tfive",
        ]
        tm = load_corpus(_write(tmp_path / "tm.tsv", "\n".join(rows) + "\n"))
        assert len(tm) == 5
        assert tm.domains == frozenset({"d1", "d2"})

    def test_invalid_json_names_line(self, tmp_path):
        path = _write(
            tmp_path / "tm.jsonl",
            '{"id": "s1", "domain": "d", "src": "a", "tgt": "b"}\nnot json\n',
        )
        with pytest.raises(CorpusFormatError) as err:
            load_corpus(path)
        assert err.value.line == 2

    def test_tsv_wrong_column_count(self, tmp_path):
        path = _write(tmp_path / "tm.tsv", "only\tthree\tcolumns\n")
        with pytest.raises(CorpusFormatError, match="4 tab-separated columns"):
            load_corpus(path)

    def test_missing_field(self, tmp_path):
        path = _write(tmp_path / "tm.jsonl", '{"id": "s1", "src": "a", "tgt": "b"}\n')
        with pytest.raises(CorpusFormatError, match="'domain'"):
            load_corpus(path)

    def test_non_string_field(self, tmp_path):
        path = _write(tmp_path / "tm.jsonl", '{"id": 7, "domain": "d", "src": "a", "tgt": "b"}\n')
        with pytest.raises(CorpusFormatError, match="'id'"):
            load_corpus(path)

    @pytest.mark.parametrize("field", ["id", "domain", "src", "tgt"])
    def test_lone_surrogate_escape_names_line(self, tmp_path, field):
        # A lone surrogate could not be written back as UTF-8. Only a JSON
        # escape can carry one: strict UTF-8 decoding keeps them out of TSV.
        record = {"id": "s1", "domain": "d", "src": "click here", "tgt": "klicken"}
        record[field] += " \ud800"
        escaped = '{"id": "s0", "domain": "d", "src": "caf\\u00e9 \\ud83d\\ude00", "tgt": "b"}\n'
        path = _write(tmp_path / "tm.jsonl", escaped + json.dumps(record) + "\n")
        with pytest.raises(CorpusFormatError, match=f"'{field}' holds a lone surrogate") as err:
            load_corpus(path)
        assert err.value.line == 2
        # The first line's escapes, a surrogate pair included, decode to text that encodes.
        assert load_corpus(_write(path, escaped)).pairs[0].source == "café \U0001f600"

    def test_empty_file(self, tmp_path):
        with pytest.raises(ValidationError, match="no records"):
            load_corpus(_write(tmp_path / "tm.jsonl", "\n\n"))

    def test_blank_lines_skipped(self, tmp_path):
        path = _write(
            tmp_path / "tm.jsonl",
            '\n{"id": "s1", "domain": "d", "src": "a", "tgt": "b"}\n\n',
        )
        assert len(load_corpus(path)) == 1

    def test_unknown_suffix_needs_explicit_format(self, tmp_path):
        path = _write(tmp_path / "tm.data", "t1\td\tsrc\ttgt\n")
        with pytest.raises(ValidationError, match="cannot infer"):
            load_corpus(path)
        assert len(load_corpus(path, format="tsv")) == 1


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["jsonl", "tsv"])
    def test_save_load_round_trip(self, tmp_path, fmt):
        tm = make_tm()
        path = tmp_path / f"out.{fmt}"
        save_corpus(tm, path)
        loaded = load_corpus(path, name=tm.name)
        assert loaded.pairs == tm.pairs
        assert loaded.domains == tm.domains

    def test_jsonl_keeps_non_ascii_readable(self, tmp_path):
        path = tmp_path / "out.jsonl"
        save_corpus(make_tm(), path)
        assert "público" in path.read_text(encoding="utf-8")

    def test_tsv_rejects_embedded_tab(self, tmp_path):
        tm = TranslationMemory(
            name="bad",
            pairs=(SentencePair(id="p", source="has\ttab", target="y", domain="d"),),
        )
        with pytest.raises(ValidationError, match="tab"):
            save_corpus(tm, tmp_path / "out.tsv")


def _dumps_line(pair) -> str:
    """The JSONL line as json.dumps writes it: the reference for ``_jsonl_line``."""
    record = {"id": pair.id, "domain": pair.domain, "src": pair.source, "tgt": pair.target}
    return json.dumps(record, ensure_ascii=False) + "\n"


class TestJsonlLine:
    TEXTS = [
        'say "yes" \\ or "no\\"',
        "".join(map(chr, range(0x20))) + "\x7f",  # every C0 control, and DEL
        "line\u2028separator\u2029paragraph",
        "non-BMP \U0001F600 \U00010348 \U0010FFFF",
        json.loads('"lone \\ud800 surrogate"'),
        "plain ascii, é and 中文",
    ]

    @pytest.mark.parametrize("text", TEXTS)
    def test_equals_json_dumps_in_every_field(self, text):
        # A stand-in for SentencePair, which rejects line breaks in any field.
        for field_name in ("id", "domain", "source", "target"):
            fields = {"id": "p1", "domain": "it", "source": "src", "target": "tgt", field_name: text}
            pair = SimpleNamespace(**fields)
            assert _jsonl_line(pair) == _dumps_line(pair), field_name

    def test_every_field_at_once(self):
        pair = SimpleNamespace(id=self.TEXTS[0], domain=self.TEXTS[2], source=self.TEXTS[1],
                               target=self.TEXTS[3])
        assert _jsonl_line(pair) == _dumps_line(pair)


class TestAnalyzeForIndex:
    def test_strips_edge_punctuation_and_lowercases(self):
        assert analyze_for_index("The cat, sat.") == ["the", "cat", "sat"]
        # Quotes, inverted marks and dashes are punctuation at either edge.
        assert analyze_for_index("«Hello», ¿qué?") == ["hello", "qué"]
        assert analyze_for_index("--x-- —x—") == ["x", "x"]

    def test_empty_input(self):
        assert analyze_for_index("") == []

    def test_internal_hyphen_preserved(self):
        assert analyze_for_index("über-Maß  geht") == ["über-maß", "geht"]

    def test_punctuation_only_token_dropped(self):
        assert analyze_for_index("a - b") == ["a", "b"]
        assert analyze_for_index("'' a ''") == ["a"]

    @given(st.text(max_size=80))
    @example("«Hello», ¿qué? --x-- '' —x—")
    def test_idempotent_on_joined_output(self, text):
        once = analyze_for_index(text)
        assert analyze_for_index(" ".join(once)) == once


def _strip_every_token(text: str) -> list[str]:
    """analyze_for_index without its fast path: every token goes through the stripper."""
    return [t for t in map(_strip_edge_punctuation, text.lower().split()) if t]


# Letters, digits, punctuation, combining marks, symbols and spaces.
_ANALYZER_ALPHABET = "aZéß9٣Ⅻ" + "-'’.,;¿?¡!«»()[]\"_…" + "\u0301\u0308\u064b" + "$€+^`~|©" + "  \t\u00a0"


class TestAnalyzeForIndexFastPath:
    def test_no_alphanumeric_character_is_punctuation(self):
        # The fast path keeps a token whose ends are alphanumeric as it is;
        # that is exact only while this holds for the interpreter's Unicode.
        bad = [
            f"U+{cp:04X}"
            for cp in range(sys.maxunicode + 1)
            if chr(cp).isalnum() and unicodedata.category(chr(cp)).startswith("P")
        ]
        assert bad == [], unicodedata.unidata_version

    @pytest.mark.parametrize(
        "text",
        ["¿qué?", "'tis", "--", "a\u0301", "\u0301a", "e\u0301.", "'a\u0301'", "x--y", "Ⅻ.", "٣!", "$5", "€"],
    )
    def test_edge_cases_equal_the_reference(self, text):
        assert analyze_for_index(text) == _strip_every_token(text)

    def test_random_text_equals_the_reference(self):
        rng = random.Random(14)
        for _ in range(20000):
            text = "".join(rng.choices(_ANALYZER_ALPHABET, k=rng.randint(0, 24)))
            assert analyze_for_index(text) == _strip_every_token(text), repr(text)


class TestTokenize13a:
    def test_pads_punctuation(self):
        assert tokenize_13a("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_decimal_number_kept_whole(self):
        assert tokenize_13a("1.5 percent") == ["1.5", "percent"]

    def test_case_preserved(self):
        assert tokenize_13a("MiXeD Case") == ["MiXeD", "Case"]

    def test_entity_unescaping(self):
        assert tokenize_13a("&quot;ja&quot; &amp; nein") == ['"', "ja", '"', "&", "nein"]

    def test_digit_dash_split(self):
        assert tokenize_13a("pages 3-5") == ["pages", "3", "-", "5"]

    def test_matches_frozen_oracle_token_for_token(self):
        fixture = json.loads(FIXTURE.read_text(encoding="utf-8"))
        for entry, hyp_tokens, ref_tokens in zip(
            fixture["pairs"], fixture["hyp_tokens"], fixture["ref_tokens"]
        ):
            assert tokenize_13a(entry["hyp"].rstrip()) == hyp_tokens
            assert tokenize_13a(entry["ref"].rstrip()) == ref_tokens

    def test_callers_cannot_edit_the_memo(self):
        first = tokenize_13a("der Hund, bellt.")
        first.append("Katze")
        first[0] = "die"
        assert tokenize_13a("der Hund, bellt.") == ["der", "Hund", ",", "bellt", "."]

    # suggestion_overlap tokenizes each suggestion target on its own and
    # concatenates; that must equal tokenizing the space-joined targets.
    @given(st.lists(st.lists(st.sampled_from(_13A_FRAGMENTS)).map("".join), max_size=4))
    @example(["end.", ".start", "a,", ",b", "x-", "-y", "3-", "-4", "&quot;", "quot;", "&", "1.", "5"])
    @example(["&quot", ";", "<skip", "ped>", "a-", "\nb", "- ", "\n"])
    def test_per_target_tokens_equal_joined_tokens(self, targets):
        per_target = [token for target in targets for token in tokenize_13a(target)]
        assert per_target == tokenize_13a(" ".join(targets))


class TestLineIo:
    def test_non_utf8_line_named_past_the_first_block(self, tmp_path):
        path = tmp_path / "hyp.txt"
        path.write_bytes(b"fine line\n" * 2000 + b"caf\xe9\n" + b"fine line\n")
        with pytest.raises(CorpusFormatError, match=r"hyp\.txt:2001: not valid UTF-8"):
            read_lines(path)

    def test_write_read_round_trip(self, tmp_path):
        lines = ["erste Zeile", "zweite Zeile", "", "vierte"]
        path = tmp_path / "lines.txt"
        write_lines(lines, path)
        assert read_lines(path) == lines
        assert path.read_bytes().endswith(b"\n")


def _failing_lines():
    yield "neue Zeile"
    raise RuntimeError("writer failed midway")


def _tsv_with_a_tab_in_pair_two():
    return TranslationMemory(
        name="t",
        pairs=(SentencePair("s1", "ein", "one", "d"), SentencePair("s2", "zw\tei", "two", "d")),
    )


class TestAtomicWrites:
    @pytest.mark.parametrize(
        "name, write, error",
        [
            ("hyp.txt", lambda path: write_lines(_failing_lines(), path), RuntimeError),
            ("tm.tsv", lambda path: save_corpus(_tsv_with_a_tab_in_pair_two(), path),
             ValidationError),
        ],
        ids=["write_lines", "save_corpus"],
    )
    def test_failed_write_keeps_the_old_file_and_no_temp_file(self, tmp_path, name, write, error):
        path = tmp_path / name
        path.write_text("alte Zeile\n", encoding="utf-8")
        with pytest.raises(error):
            write(path)
        assert path.read_text(encoding="utf-8") == "alte Zeile\n"
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_failed_first_write_leaves_nothing(self, tmp_path):
        with pytest.raises(RuntimeError):
            with atomic_write(tmp_path / "report.json") as fh:
                fh.write("{")
                raise RuntimeError("serializer failed")
        assert list(tmp_path.iterdir()) == []

    def test_replaces_the_file_once_the_block_ends(self, tmp_path):
        path = tmp_path / "cell.json"
        path.write_text("old\n", encoding="utf-8")
        with atomic_write(path) as fh:
            fh.write("new\n")
            assert path.read_text(encoding="utf-8") == "old\n"
        assert path.read_bytes() == b"new\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cell.json"]

    def test_missing_directory_raises_naming_the_path(self, tmp_path):
        path = tmp_path / "nodir" / "tm.idx"
        with pytest.raises(ValidationError, match=re.escape(f"cannot write {path}: No such file")):
            with atomic_write(path):
                pass

    def test_directory_in_the_way_raises_and_leaves_no_temp_file(self, tmp_path):
        (tmp_path / "out").mkdir()
        with pytest.raises(ValidationError, match=re.escape(f"cannot write {tmp_path / 'out'}: ")):
            with atomic_write(tmp_path / "out") as fh:
                fh.write("x\n")
        assert [p.name for p in tmp_path.iterdir()] == ["out"]
        assert list((tmp_path / "out").iterdir()) == []

    def test_directory_under_a_file_raises_naming_it(self, tmp_path):
        (tmp_path / "tm.jsonl").write_text("{}\n", encoding="utf-8")
        path = tmp_path / "tm.jsonl" / "cells"
        with pytest.raises(ValidationError, match=re.escape(f"cannot create directory {path}: ")):
            make_dirs(path)
