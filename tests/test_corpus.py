"""Corpus loading, validation, and the two tokenizations."""

from __future__ import annotations

import dataclasses
import io
import json
import random
import re
import sys
import unicodedata
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ratkit import CorpusFormatError, ValidationError, load_corpus
from ratkit.corpus import (
    SentencePair,
    TranslationMemory,
    _jsonl_line,
    _strip_edge_punctuation,
    _tokens_13a,
    analyze_for_index,
    atomic_write,
    first_repeat,
    make_dirs,
    read_lines,
    save_corpus,
    write_lines,
)
from ratkit.retrieval import _column_lines, load_index

from synthetic import INDEX_HEADER, index_file, index_postings

FIXTURE = Path(__file__).parent / "data" / "bleu_fixture.json"

# Pieces of text that the 13a rules treat specially: edge periods, commas
# and dashes, digits, entities and their halves, <skipped>, line breaks and
# the other whitespace that str.split() and re's \s both match.
_13A_FRAGMENTS = [
    "a", "Z", "7", ".", ",", "-", " ", "\n", "\t", "&quot;", "&quot", "quot;", "&amp;",
    "&lt;", "&gt;", "&", ";", "<skipped>", "<", ">", "skipped", "é", "!", "'", "$",
    "\x1c", "\x85", "\xa0", "\u2028", "\u3000",
]


def regex_13a(text: str) -> tuple[str, ...]:
    """The 13a rules as the standard scorers write them: re.sub passes, then \\s+."""
    norm = text
    norm = norm.replace("<skipped>", "")
    norm = norm.replace("-\n", "")
    norm = norm.replace("\n", " ")
    norm = norm.replace("&quot;", '"')
    norm = norm.replace("&amp;", "&")
    norm = norm.replace("&lt;", "<")
    norm = norm.replace("&gt;", ">")

    norm = f" {norm} "
    norm = re.sub(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])", r" \1 ", norm)
    norm = re.sub(r"([^0-9])([\.,])", r"\1 \2 ", norm)
    norm = re.sub(r"([\.,])([^0-9])", r" \1 \2", norm)
    norm = re.sub(r"([0-9])(-)", r"\1 \2 ", norm)
    norm = re.sub(r"\s+", " ", norm)
    return tuple(norm.strip().split())


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

    def test_slotted_frozen_and_hashed_by_its_fields(self):
        # Every loaded TM, index and test set holds one pair per line, so no __dict__.
        pair = SentencePair(id="p", source="x", target="y", domain="d")
        assert not hasattr(pair, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            pair.source = "z"
        assert pair.source == "x"
        assert pair == SentencePair(id="p", source="x", target="y", domain="d")
        assert pair != SentencePair(id="p", source="x", target="y", domain="e")
        assert hash(pair) == hash(("p", "x", "y", "d"))
        assert len({pair, SentencePair(id="p", source="x", target="y", domain="d")}) == 1


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


class TestFirstRepeat:
    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.one_of(st.lists(st.integers(0, 9), max_size=20), st.lists(st.text(max_size=3), unique=True)))
    @example([])
    @example(["a", "b", "b", "a"])
    def test_equals_a_brute_force_first_duplicate_search(self, values):
        # The earliest position whose value occurs before it, with that value's first position.
        expected = next(((values.index(v), j) for j, v in enumerate(values) if v in values[:j]), None)
        assert first_repeat(values) == expected


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

    def test_unknown_suffix_is_rejected(self, tmp_path):
        path = _write(tmp_path / "tm.data", "t1\td\tsrc\ttgt\n")
        with pytest.raises(ValidationError, match="cannot infer"):
            load_corpus(path)


class TestRoundTrip:
    @pytest.mark.parametrize("fmt", ["jsonl", "tsv", "JSONL", "Tsv"])
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


_RECORD = '"id": "x", "domain": "d", "src": "s t u v w", "tgt": "u v"'
_DEPTH = sys.getrecursionlimit() + 100

# JSONL record lines whose parse json.loads and a scanner used alone could
# tell apart, each read on the first line of a file and between two records.
_CRAFTED_LINES = {
    "plain": "{%s}" % _RECORD,
    "leading-spaces-and-tabs": " \t {%s}" % _RECORD,
    "trailing-spaces-and-tabs": "{%s}\t \t" % _RECORD,
    "bom": "\ufeff{%s}" % _RECORD,
    "nan-in-an-extra-key": '{%s, "score": NaN}' % _RECORD,
    "duplicate-keys": '{"id": "y", "src": "first", %s, "tgt": "last"}' % _RECORD,
    "nesting-past-the-recursion-limit": '{%s, "deep": %s%s}' % (_RECORD, "[" * _DEPTH, "]" * _DEPTH),
    "int-past-the-digit-limit": '{%s, "n": %s}' % (_RECORD, "7" * 5000),
    "two-values": "{%s} {%s}" % (_RECORD, _RECORD),
    "extra-brace": "{%s}}" % _RECORD,
    "array": '["x", "d", "s", "t"]',
    "string": '"x"',
    "number": "7",
    "lone-surrogate-escape": '{"id": "x", "domain": "d", "src": "s \\ud800", "tgt": "t"}',
    "escaped-newline": '{"id": "x", "domain": "d", "src": "s\\nt", "tgt": "t"}',
    "unterminated": "{%s" % _RECORD,
    "whitespace-only": " \t ",
}
_GOOD = ('{"id": "g1", "domain": "d", "src": "a b", "tgt": "c d"}',
         '{"id": "g2", "domain": "d", "src": "e f", "tgt": "g h"}')


def _json_loads_oracle(lines, path):
    """The pairs, or the CorpusFormatError text, of JSONL record lines parsed
    by ``json.loads`` one line at a time.

    Every line is parsed before ids are compared, so a malformed line is named
    even when a repeated id comes before it.
    """
    pairs, linenos = [], []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line.rstrip("\n"))
        except json.JSONDecodeError as exc:
            return f"{path}:{lineno + exc.lineno - 1}: invalid JSON: {exc.msg}"
        except (ValueError, RecursionError) as exc:
            return f"{path}:{lineno}: invalid JSON: {exc}"
        if not isinstance(record, dict):
            return f"{path}:{lineno}: record is not a JSON object"
        keys = ("id", "domain", "src", "tgt")
        for key in keys:
            if not isinstance(record.get(key), str):
                return f"{path}:{lineno}: missing or non-string field {key!r}"
        for key in keys:
            try:
                record[key].encode("utf-8")
            except UnicodeEncodeError as exc:
                surrogate = ord(exc.object[exc.start])
                return f"{path}:{lineno}: field {key!r} holds a lone surrogate (\\u{surrogate:04x})"
        try:
            pair = SentencePair(
                id=record["id"], domain=record["domain"], source=record["src"], target=record["tgt"]
            )
        except ValidationError as exc:
            return f"{path}:{lineno}: {exc}"
        pairs.append(pair)
        linenos.append(lineno)
    first_seen = {}
    for lineno, pair in zip(linenos, pairs):
        if pair.id in first_seen:
            return f"{path}:{lineno}: duplicate id {pair.id!r} (first seen on line {first_seen[pair.id]})"
        first_seen[pair.id] = lineno
    return tuple(pairs)


def _loaded(load, path):
    try:
        return load(path).pairs
    except CorpusFormatError as exc:
        return str(exc)


def assert_loads_as_json_loads(tmp_path, text: str):
    """load_corpus of ``text`` as record lines equals the json.loads oracle."""
    path = tmp_path / "tm.jsonl"
    path.write_bytes(text.encode("utf-8"))
    # load_corpus reads with universal newlines.
    expected = _json_loads_oracle(io.StringIO(text, newline=None), path)
    assert _loaded(load_corpus, path) == expected
    return expected


_SOURCES = '"s t u v w", "u v"'

# Index source lines at json.loads' edges (whitespace, a BOM, nesting, the
# integer digit limit, trailing data) or that break one check of the column
# reader: each is read as the source line (line 4) of an index of two pairs.
_CRAFTED_COLUMNS = {
    "plain": "[%s]" % _SOURCES,
    "leading-spaces-and-tabs": " \t [%s]" % _SOURCES,
    "trailing-spaces-and-tabs": "[%s]\t \t" % _SOURCES,
    "bom": "\ufeff[%s]" % _SOURCES,
    "nan-element": "[%s, NaN]" % _SOURCES,
    "nesting-past-the-recursion-limit": "[%s, %s%s]" % (_SOURCES, "[" * _DEPTH, "]" * _DEPTH),
    "int-past-the-digit-limit": "[%s, %s]" % (_SOURCES, "7" * 5000),
    "two-values": "[%s] [%s]" % (_SOURCES, _SOURCES),
    "extra-bracket": "[%s]]" % _SOURCES,
    "object": '{"0": "s t", "1": "u v"}',
    "string": '"s t"',
    "number": "7",
    "null-element": '["s t", null]',
    "lone-surrogate-escape": '["s t", "u \\ud800"]',
    "escaped-newline": '["s\\nt", "u v"]',
    "blank": '["s t", " "]',
    "short": '["s t"]',
    "long": '["s t", "u v", "w"]',
    "unterminated": "[%s" % _SOURCES,
    "unterminated-string": '["s t", "u v',
    "whitespace-only": " \t ",
}


def _column_oracle(line: str, path, ids) -> tuple | str:
    """The pairs, or the CorpusFormatError text, of an index whose id line
    holds ``ids`` and whose source line is ``line``, parsed by ``json.loads``.

    Every pair's domain is "d" and its target "t".
    """
    try:
        column = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"{path}:{4 + exc.lineno - 1}: invalid JSON: {exc.msg}"
    except (ValueError, RecursionError) as exc:
        return f"{path}:4: invalid JSON: {exc}"
    if not isinstance(column, list):
        return f"{path}:4: the source line is not a JSON array"
    for position, value in enumerate(column):
        if not isinstance(value, str):
            return f"{path}:4: the source at position {position} is not a string"
    for position, value in enumerate(column):
        try:
            value.encode("utf-8")
        except UnicodeEncodeError as exc:
            surrogate = ord(exc.object[exc.start])
            return f"{path}:4: the source at position {position} holds a lone surrogate (\\u{surrogate:04x})"
    if len(column) != len(ids):
        return f"{path}:4: the source line holds {len(column)} values, the header says {len(ids)} pairs"
    pairs = []
    for position, (id_, source) in enumerate(zip(ids, column)):
        try:
            pairs.append(SentencePair(id=id_, source=source, target="t", domain="d"))
        except ValidationError as exc:
            return f"{path}:4: {exc} (position {position})"
    first_seen = {}
    for position, id_ in enumerate(ids):
        if id_ in first_seen:
            return f"{path}:2: duplicate id {id_!r} at positions {first_seen[id_]} and {position}"
        first_seen[id_] = position
    return tuple(pairs)


def assert_column_loads_as_json_loads(tmp_path, line: str, ids=("g1", "g2")):
    """load_index of an index whose source line is ``line`` equals the json.loads oracle."""
    path = tmp_path / "tm.idx"
    expected = _column_oracle(line, path, ids)
    # The postings of the pairs the oracle finds (none when it finds a fault).
    pairs = expected if isinstance(expected, tuple) else ()
    postings = index_postings(pair.source for pair in pairs)
    records = [(id_, "d", "", "t") for id_ in ids]
    header = {**INDEX_HEADER, "pairs": len(ids)}
    path.write_bytes(index_file(records, header, postings, source=line.encode("utf-8")))
    assert _loaded(load_index, path) == expected
    return expected


class TestJsonFastPath:
    """A corpus record line parses as ``json.loads`` parses it, or fails with
    its error; so does an index column line."""

    @pytest.mark.parametrize("eol", ["\n", "\r\n"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("line", list(_CRAFTED_LINES.values()), ids=list(_CRAFTED_LINES))
    def test_crafted_line_loads_as_json_loads_does(self, tmp_path, line, eol):
        first = assert_loads_as_json_loads(tmp_path, eol.join([line, _GOOD[0]]) + eol)
        middle = assert_loads_as_json_loads(tmp_path, eol.join([_GOOD[0], line, _GOOD[1]]))
        if line == _CRAFTED_LINES["plain"]:
            assert [pair.id for pair in middle] == ["g1", "x", "g2"]
        elif line == _CRAFTED_LINES["bom"]:
            assert first.endswith(": invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)")

    # The index's lines end with "\n" alone or with "\r\n".
    @pytest.mark.parametrize("eol", ["", "\r"], ids=["lf", "crlf"])
    @pytest.mark.parametrize("line", list(_CRAFTED_COLUMNS.values()), ids=list(_CRAFTED_COLUMNS))
    def test_crafted_column_loads_as_json_loads_does(self, tmp_path, line, eol):
        loaded = assert_column_loads_as_json_loads(tmp_path, line + eol)
        if line == _CRAFTED_COLUMNS["plain"]:
            assert [pair.source for pair in loaded] == ["s t u v w", "u v"]
        elif line == _CRAFTED_COLUMNS["bom"]:
            assert loaded.endswith(": invalid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig)")

    def test_malformed_line_is_named_before_an_earlier_repeated_id(self, tmp_path):
        text = "\n".join([_GOOD[0], _GOOD[1], _GOOD[0], _CRAFTED_LINES["unterminated"]]) + "\n"
        assert assert_loads_as_json_loads(tmp_path, text).endswith(
            "tm.jsonl:4: invalid JSON: Expecting ',' delimiter"
        )
        # Without the malformed line, the repeated id is the fault.
        text = "\n".join([_GOOD[0], _GOOD[1], _GOOD[0]]) + "\n"
        assert assert_loads_as_json_loads(tmp_path, text).endswith(
            "tm.jsonl:3: duplicate id 'g1' (first seen on line 1)"
        )
        # In an index, the source line comes after the id line and is named first.
        ids = ("g1", "g2", "g1")
        assert assert_column_loads_as_json_loads(tmp_path, '["a", "b", "c"', ids).endswith(
            "tm.idx:4: invalid JSON: Expecting ',' delimiter"
        )
        assert assert_column_loads_as_json_loads(tmp_path, '["a", "b", "c"]', ids).endswith(
            "tm.idx:2: duplicate id 'g1' at positions 0 and 2"
        )

    PIECES = ["{", "}", "[", "]", '"', ":", ",", " ", "\t", "\r", "\\", "\\u", "\\ud800",
              "\\n", "\\\\", "NaN", "1e999", "-", "0", "7" * 4400, "null", "\x00", "\ufeff", "é"]

    def _edited(self, rng, line):
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(line) + 1)
            if rng.random() < 0.3:
                line = line[:at] + line[at + 1:]
            else:
                line = line[:at] + rng.choice(self.PIECES) + line[at:]
        return line

    def test_random_edits_load_as_json_loads_does(self, tmp_path):
        rng = random.Random(18)
        outcomes = set()
        for _ in range(300):
            line = self._edited(rng, "{%s}" % _RECORD)
            result = assert_loads_as_json_loads(tmp_path, "\n".join([_GOOD[0], line, _GOOD[1]]))
            outcomes.add(type(result).__name__ if isinstance(result, tuple) else result.split(": ")[1])
        # Both accepted lines and several kinds of fault came up.
        assert {"tuple", "invalid JSON", "missing or non-string field 'src'"} <= outcomes

    def test_random_column_edits_load_as_json_loads_does(self, tmp_path):
        rng = random.Random(19)
        outcomes = set()
        for _ in range(300):
            result = assert_column_loads_as_json_loads(tmp_path, self._edited(rng, "[%s]" % _SOURCES))
            outcomes.add(type(result).__name__ if isinstance(result, tuple) else result.split(": ")[1])
        surrogate = "the source at position 1 holds a lone surrogate (\\ud800)"
        assert {"tuple", "invalid JSON", surrogate, "pair 'g2'"} <= outcomes


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

    def test_index_column_lines_equal_json_dumps(self):
        pairs = [SimpleNamespace(id=text, domain=text, source=text, target=text) for text in self.TEXTS]
        # The lines come in pieces; a JSON text holds "\n" only at a line's end.
        lines = "".join(_column_lines(pairs)).split("\n")
        assert lines == [json.dumps(self.TEXTS, ensure_ascii=False)] * 4 + [""]


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
        assert list(_tokens_13a("Hello, world!")) == ["Hello", ",", "world", "!"]

    def test_decimal_number_kept_whole(self):
        assert list(_tokens_13a("1.5 percent")) == ["1.5", "percent"]

    def test_case_preserved(self):
        assert list(_tokens_13a("MiXeD Case")) == ["MiXeD", "Case"]

    def test_entity_unescaping(self):
        assert list(_tokens_13a("&quot;ja&quot; &amp; nein")) == ['"', "ja", '"', "&", "nein"]

    def test_digit_dash_split(self):
        assert list(_tokens_13a("pages 3-5")) == ["pages", "3", "-", "5"]

    def test_matches_frozen_oracle_token_for_token(self):
        fixture = json.loads(FIXTURE.read_text(encoding="utf-8"))
        for entry, hyp_tokens, ref_tokens in zip(
            fixture["pairs"], fixture["hyp_tokens"], fixture["ref_tokens"]
        ):
            assert list(_tokens_13a(entry["hyp"].rstrip())) == hyp_tokens
            assert list(_tokens_13a(entry["ref"].rstrip())) == ref_tokens

    # The memo's function is held to the re.sub rules, bypassing the memo.
    @given(st.one_of(st.lists(st.sampled_from(_13A_FRAGMENTS)).map("".join), st.text()))
    @example(".,")
    @example(",,")
    @example("1,000")
    @example("a.b")
    @example("a.5")
    @example(".5")
    @example("3-4-5")
    @example("-\n")
    @example("x-\ny")
    @example("&quot")
    @example("quot;")
    @example("&amp")
    @example("&amp;lt;")
    @example("gt;")
    @example("<skipped>")
    @example("a<skipped>b")
    @example("\x1ca\x1cb")
    @example("a\x85b")
    @example("a\xa0b")
    @example("a\u2028b")
    @example("a\u3000b")
    def test_equals_the_regex_rules(self, text):
        assert _tokens_13a.__wrapped__(text) == regex_13a(text)

    def test_random_fragment_joins_equal_the_regex_rules(self):
        rng = random.Random(20)
        for _ in range(20000):
            text = "".join(rng.choices(_13A_FRAGMENTS, k=rng.randint(0, 12)))
            assert _tokens_13a.__wrapped__(text) == regex_13a(text), repr(text)

    def test_str_split_and_regex_agree_on_whitespace(self):
        # _tokens_13a has no \s+ pass: str.split() must drop exactly the
        # characters that re's \s matches, on this interpreter's Unicode.
        every_char = "".join(map(chr, range(sys.maxunicode + 1)))
        assert "".join(every_char.split()) == re.sub(r"\s", "", every_char)

    def test_callers_cannot_edit_the_memo(self):
        first = _tokens_13a("der Hund, bellt.")
        with pytest.raises(AttributeError):  # the memo hands out tuples
            first.append("Katze")
        with pytest.raises(TypeError):
            first[0] = "die"
        assert list(_tokens_13a("der Hund, bellt.")) == ["der", "Hund", ",", "bellt", "."]

    # suggestion_overlap tokenizes each suggestion target on its own and
    # concatenates; that must equal tokenizing the space-joined targets.
    @given(st.lists(st.lists(st.sampled_from(_13A_FRAGMENTS)).map("".join), max_size=4))
    @example(["end.", ".start", "a,", ",b", "x-", "-y", "3-", "-4", "&quot;", "quot;", "&", "1.", "5"])
    @example(["&quot", ";", "<skip", "ped>", "a-", "\nb", "- ", "\n"])
    def test_per_target_tokens_equal_joined_tokens(self, targets):
        per_target = [token for target in targets for token in _tokens_13a(target)]
        assert per_target == list(_tokens_13a(" ".join(targets)))


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
