"""Parallel corpus / translation memory ingestion and the toolkit's tokenizations.

Two distinct analyzers live here and must not be confused:

* :func:`analyze_for_index` feeds the BM25 retrieval index. It is a simple
  deterministic approximation of a search engine's default text analyzer
  (lowercase, whitespace split, edge punctuation stripped).
* :func:`_tokens_13a` implements the language-independent mteval-v13a rules
  used for BLEU scoring. Case is preserved. Each rule is one regex split,
  not one template expansion per match as with ``re.sub``; the tokens are
  the same as those of the rules written with ``re.sub``.

Every file the toolkit writes goes through :func:`atomic_write`, so a crash
mid-write leaves the previous file, not a truncated one. Every file it reads
goes through :func:`numbered_lines` and, for JSON, :func:`parse_json`, so an
unreadable or malformed input raises a RatkitError naming ``path[:line]``.
A JSONL corpus record line first goes through the C scanner behind
``json.loads``, in one call; only a line whose value does not end exactly at
the line's end (whitespace, a BOM, a syntax error, nesting or an integer
past the interpreter's limits) is parsed again by :func:`parse_json`, which
gives ``json.loads``' result or its error. Each of an index file's four
column lines, which hold a field of every pair, is one :func:`parse_json`
call.
"""

from __future__ import annotations

import contextlib
import functools
import json
import operator
import os
import re
import sys
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, TextIO

from .errors import CorpusFormatError, ValidationError

# The column order of a TSV row (files carry no header) and of the column
# lines of an index file; each is a SentencePair field.
_COLUMNS = ("id", "domain", "source", "target")
# The JSONL record key of each TSV column, in the order _jsonl_line writes them.
_JSONL_KEYS = ("id", "domain", "src", "tgt")
# The string encoder of json.dumps(..., ensure_ascii=False).
_json_str = json.encoder.encode_basestring
# The value scanner of json.loads, without its whitespace and BOM handling.
_scan_json = json.scanner.make_scanner(json.JSONDecoder())


@dataclass(frozen=True, slots=True)
class SentencePair:
    """One aligned sentence pair with a domain label."""

    id: str
    source: str
    target: str
    domain: str

    def __post_init__(self):
        if not self.id:
            raise ValidationError("sentence pair has an empty id")
        if not self.source or self.source.isspace():
            raise ValidationError(f"pair {self.id!r}: source is empty")
        if not self.target or self.target.isspace():
            raise ValidationError(f"pair {self.id!r}: target is empty")
        # Sentences flow into line-aligned files later; embedded line breaks
        # would silently shift the alignment, so reject them at the door.
        text = f"{self.id}{self.domain}{self.source}{self.target}"
        if "\n" in text or "\r" in text:
            for label, value in (
                ("id", self.id),
                ("domain", self.domain),
                ("source", self.source),
                ("target", self.target),
            ):
                if "\n" in value or "\r" in value:
                    raise ValidationError(f"pair {self.id!r}: {label} contains a line break")


@dataclass(frozen=True)
class TranslationMemory:
    """A named, ordered collection of sentence pairs with unique ids."""

    name: str
    pairs: tuple[SentencePair, ...]
    domains: frozenset[str] = field(init=False)

    def __post_init__(self):
        if not self.pairs:
            raise ValidationError(f"translation memory {self.name!r} is empty")
        if len({pair.id for pair in self.pairs}) != len(self.pairs):
            seen: set[str] = set()
            for pair in self.pairs:
                if pair.id in seen:
                    raise ValidationError(
                        f"translation memory {self.name!r}: duplicate pair id {pair.id!r}"
                    )
                seen.add(pair.id)
        object.__setattr__(self, "domains", frozenset(p.domain for p in self.pairs))

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)


def _detect_format(path: Path) -> str:
    suffix = path.suffix.lower()
    if suffix in (".jsonl", ".tsv"):
        return suffix[1:]
    raise ValidationError(
        f"cannot infer corpus format from {path.name!r}; use a .jsonl or .tsv suffix"
    )


def load_corpus(path: str | Path, name: str | None = None) -> TranslationMemory:
    """Load a translation memory from a JSONL or TSV file.

    The suffix, ``.jsonl`` or ``.tsv`` in any case, decides the format; any
    other suffix raises a ValidationError. JSONL records look like
    ``{"id": ..., "domain": ..., "src": ..., "tgt": ...}``, one object per
    line. TSV rows carry four tab-separated columns in the order
    (id, domain, source, target), no header. Record order is preserved.
    """
    path = Path(path)
    fmt = _detect_format(path)
    return _read_records(path, text_lines(path, "corpus file"), fmt, name or path.stem)


def _read_records(
    path: Path, lines: Iterable[tuple[int, str]], fmt: str, name: str
) -> TranslationMemory:
    """The TM in numbered lines as a file yields them; a bad or repeated record names ``path:line``."""
    where = str(path)
    pairs: list[SentencePair] = []
    linenos: list[int] = []
    for lineno, line in lines:
        if line.isspace():
            continue
        pairs.append(_parse_record(where, lineno, line, fmt))
        linenos.append(lineno)
    if not pairs:
        raise ValidationError(f"{path}: the file contains no records")
    try:
        return TranslationMemory(name=name, pairs=tuple(pairs))
    except ValidationError:  # its one fault left is a repeated id: name the lines
        first_seen: dict[str, int] = {}
        for lineno, pair in zip(linenos, pairs):
            if pair.id in first_seen:
                reason = f"duplicate id {pair.id!r} (first seen on line {first_seen[pair.id]})"
                raise CorpusFormatError(where, lineno, reason) from None
            first_seen[pair.id] = lineno
        raise


def _read_columns(
    path: Path, lines: Iterator[tuple[int, str]], count: int, name: str
) -> TranslationMemory:
    """The TM in the next four numbered lines: JSON arrays of every pair's id,
    domain, source and target, in this order; a fault names ``path:line``.

    Each line is one :func:`parse_json` call and must hold a list of
    ``count`` strings, none with a lone surrogate. The pairs then go through
    the checks of SentencePair and TranslationMemory.
    """
    where = str(path)
    columns: list[list[str]] = []
    linenos: list[int] = []
    for label in _COLUMNS:
        lineno, line = next(lines)
        column = parse_json(line.rstrip("\n"), path, lineno)
        if type(column) is not list:
            raise CorpusFormatError(where, lineno, f"the {label} line is not a JSON array")
        if set(map(type, column)) - {str}:
            position = next(i for i, value in enumerate(column) if type(value) is not str)
            raise CorpusFormatError(where, lineno, f"the {label} at position {position} is not a string")
        # Only a \u escape can put a lone surrogate into decoded JSON text.
        if "\\u" in line:
            for position, value in enumerate(column):
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError as exc:
                    surrogate = ord(exc.object[exc.start])
                    reason = f"the {label} at position {position} holds a lone surrogate (\\u{surrogate:04x})"
                    raise CorpusFormatError(where, lineno, reason) from exc
        if len(column) != count:
            reason = f"the {label} line holds {len(column)} values, the header says {count} pairs"
            raise CorpusFormatError(where, lineno, reason)
        columns.append(column)
        linenos.append(lineno)
    ids, domains, sources, targets = columns
    try:
        pairs = tuple(map(SentencePair, ids, sources, targets, domains))
    except ValidationError:
        # Each field is set in line order over valid stand-ins, so the first
        # construction that fails has its fault in the line just set.
        for position, values in enumerate(zip(*columns)):
            fields = dict.fromkeys(_COLUMNS, "-")
            for lineno, label, value in zip(linenos, _COLUMNS, values):
                fields[label] = value
                try:
                    SentencePair(**fields)
                except ValidationError as exc:
                    raise CorpusFormatError(where, lineno, f"{exc} (position {position})") from None
        raise
    try:
        return TranslationMemory(name=name, pairs=pairs)
    except ValidationError as exc:  # no pairs, or a repeated id: a fault of the id line
        first_seen: dict[str, int] = {}
        for position, id_ in enumerate(ids):
            if id_ in first_seen:
                reason = f"duplicate id {id_!r} at positions {first_seen[id_]} and {position}"
                raise CorpusFormatError(where, linenos[0], reason) from None
            first_seen[id_] = position
        raise CorpusFormatError(where, linenos[0], str(exc)) from None


def _column_lines(pairs: tuple[SentencePair, ...]) -> Iterator[str]:
    """The four lines :func:`_read_columns` reads, newlines included: each one
    ``json.dumps`` of a field of every pair, non-ASCII text kept readable."""
    for label in _COLUMNS:
        yield json.dumps(list(map(operator.attrgetter(label), pairs)), ensure_ascii=False) + "\n"


def text_lines(path: str | Path, what: str) -> Iterator[tuple[int, str]]:
    """:func:`numbered_lines` of a file; one that cannot be opened raises a ValidationError."""
    try:
        fh = open(path, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    with fh:
        yield from numbered_lines(fh, path)


def numbered_lines(fh: TextIO, path: str | Path) -> Iterator[tuple[int, str]]:
    """``enumerate(fh, start=1)`` over a file opened as UTF-8 text.

    Bytes that are not UTF-8 raise a CorpusFormatError naming ``path:line``.
    """
    try:
        yield from enumerate(fh, start=1)
    except UnicodeDecodeError as exc:
        # The text layer decodes in blocks, so find the line in the raw bytes.
        with open(path, "rb") as raw:
            for lineno, line in enumerate(raw, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError:
                    break
        raise CorpusFormatError(str(path), lineno, f"not valid UTF-8 ({exc.reason})") from exc


def _parse_record(path: str, lineno: int, line: str, fmt: str) -> SentencePair:
    """The pair in one record line, its newline included or not."""
    end = len(line) - line.endswith("\n")
    if fmt == "jsonl":
        # A value that the scanner reads from the first character to the
        # line's end is json.loads' value too; in every other case json.loads
        # is called, for its own result or error.
        try:
            record, stop = _scan_json(line, 0)
        except (ValueError, RecursionError, StopIteration):
            stop = -1
        if stop != end:
            record = parse_json(line[:end], path, lineno)
        if not isinstance(record, dict):
            raise CorpusFormatError(path, lineno, "record is not a JSON object")
        values = []
        for key in _JSONL_KEYS:
            value = record.get(key)
            if not isinstance(value, str):
                raise CorpusFormatError(path, lineno, f"missing or non-string field {key!r}")
            values.append(value)
        # Only a \u escape can put a lone surrogate into decoded JSON text; one
        # would load here and fail later, when the text is written as UTF-8.
        if "\\u" in line:
            for key, value in zip(_JSONL_KEYS, values):
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError as exc:
                    surrogate = ord(exc.object[exc.start])
                    reason = f"field {key!r} holds a lone surrogate (\\u{surrogate:04x})"
                    raise CorpusFormatError(path, lineno, reason) from exc
    else:
        values = line[:end].split("\t")
        if len(values) != len(_COLUMNS):
            raise CorpusFormatError(
                path, lineno, f"expected {len(_COLUMNS)} tab-separated columns, got {len(values)}"
            )
    id_, domain, source, target = values
    try:  # positional arguments: a keyword call costs about a third more per pair
        return SentencePair(id_, source, target, domain)
    except ValidationError as exc:
        raise CorpusFormatError(path, lineno, str(exc)) from exc


def parse_json(text: str, path: str | Path, line: int = 1, **kwargs):
    """``json.loads(text, **kwargs)`` of text that starts on line ``line`` of ``path``.

    A syntax error, an integer past int's digit limit or nesting past the recursion
    limit raises a CorpusFormatError naming ``path:line``.
    """
    try:
        return json.loads(text, **kwargs)
    except json.JSONDecodeError as exc:
        raise CorpusFormatError(str(path), line + exc.lineno - 1, f"invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise CorpusFormatError(str(path), line, f"invalid JSON: {exc}") from exc


def _jsonl_line(pair: SentencePair) -> str:
    """One JSONL record line, newline included, with non-ASCII text kept readable.

    The bytes of ``json.dumps(record, ensure_ascii=False)``, keys in
    ``_JSONL_KEYS`` order: each string goes through the encoder it uses.
    """
    return (
        f'{{"id": {_json_str(pair.id)}, "domain": {_json_str(pair.domain)}, '
        f'"src": {_json_str(pair.source)}, "tgt": {_json_str(pair.target)}}}\n'
    )


def save_corpus(tm: TranslationMemory, path: str | Path) -> None:
    """Write a translation memory back to disk. Inverse of :func:`load_corpus`."""
    path = Path(path)
    fmt = _detect_format(path)
    with atomic_write(path) as fh:
        for pair in tm.pairs:
            if fmt == "jsonl":
                fh.write(_jsonl_line(pair))
            else:
                cells = (pair.id, pair.domain, pair.source, pair.target)
                if any("\t" in cell for cell in cells):  # SentencePair rejects line breaks
                    raise ValidationError(f"pair {pair.id!r} contains a tab; use the jsonl format")
                fh.write("\t".join(cells) + "\n")


# A fixed bound, so that text full of distinct characters cannot grow the memo.
@functools.lru_cache(maxsize=4096)
def _is_punctuation(char: str) -> bool:
    return unicodedata.category(char).startswith("P")


def _strip_edge_punctuation(token: str) -> str:
    start, end = 0, len(token)
    while start < end and _is_punctuation(token[start]):
        start += 1
    while end > start and _is_punctuation(token[end - 1]):
        end -= 1
    return token[start:end]


def analyze_for_index(text: str) -> list[str]:
    """Terms for retrieval: lowercase, split on whitespace, strip edge punctuation.

    Internal punctuation (hyphens, apostrophes) is preserved; tokens that are
    punctuation-only disappear. Idempotent over its own space-joined output.
    """
    terms = []
    for token in text.lower().split():
        # No alphanumeric character is punctuation (a test checks every code
        # point), so a token with alphanumeric ends has nothing to strip.
        if token[0].isalnum() and token[-1].isalnum():
            terms.append(token)
            continue
        stripped = _strip_edge_punctuation(token)
        if stripped:
            terms.append(stripped)
    return terms


# mteval-v13a text normalization, language-independent rules plus the Western-
# language punctuation treatment. The rules are those of the standard scorers,
# so that token sequences (and therefore BLEU) agree. Each pattern's one group
# is its whole match, so Pattern.split returns every match at the odd indexes.
_13A_SYMBOLS = re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])")
_13A_PERIOD_BEFORE = re.compile(r"([^0-9][\.,])")
_13A_PERIOD_AFTER = re.compile(r"([\.,][^0-9])")
_13A_DIGIT_DASH = re.compile(r"([0-9]-)")


# Scoring tokenizes each reference and TM target many times over a grid. A
# fixed bound, as for _is_punctuation, keeps one-off texts from growing the
# memo without limit; the memo hands out tuples, which callers cannot edit.
# Each rule is one split whose matches are rebuilt as strings, where re.sub
# with a template would expand it in Python once per match (rule 1 matches
# every space); a rule or replacement runs only if its character occurs. The
# final str.split() splits on exactly the characters re's \s matches, so the
# tokens are those of the rules applied with re.sub and a \s+ pass.
@functools.lru_cache(maxsize=4096)
def _tokens_13a(text: str) -> tuple[str, ...]:
    """Tokenize for BLEU with the mteval-v13a rules; case is preserved."""
    if "<" in text:
        text = text.replace("<skipped>", "")
    if "\n" in text:
        text = text.replace("-\n", "").replace("\n", " ")
    if "&" in text:
        text = text.replace("&quot;", '"').replace("&amp;", "&")
        text = text.replace("&lt;", "<").replace("&gt;", ">")

    # Rule 1: a space on each side of every symbol, the space included.
    norm = " ".join(_13A_SYMBOLS.split(f" {text} "))
    if "." in norm or "," in norm:
        # Rule 2: a period or comma after a non-digit gets a space on each side.
        parts = _13A_PERIOD_BEFORE.split(norm)
        parts[1::2] = [f"{m[0]} {m[1]} " for m in parts[1::2]]
        # Rule 3: a period or comma before a non-digit, likewise.
        parts = _13A_PERIOD_AFTER.split("".join(parts))
        parts[1::2] = [f" {m[0]} {m[1]}" for m in parts[1::2]]
        norm = "".join(parts)
    if "-" in norm:
        # Rule 4: a dash after a digit gets a space on each side.
        parts = _13A_DIGIT_DASH.split(norm)
        parts[1::2] = [f"{m[0]} - " for m in parts[1::2]]
        norm = "".join(parts)
    return tuple(map(sys.intern, norm.split()))


def read_lines(path: str | Path) -> list[str]:
    """A line-aligned text file's lines without newlines; only \\n, \\r\\n and \\r end a line."""
    return [line.rstrip("\n") for _, line in text_lines(path, "text file")]


def write_lines(lines: Iterable[str], path: str | Path) -> None:
    """Write one string per line with LF endings."""
    with atomic_write(path) as fh:
        for line in lines:
            fh.write(line + "\n")


@contextlib.contextmanager
def atomic_write(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8, LF-ending text file that replaces ``path`` only once the block ends.

    The text goes to a new file in the same directory, which ``os.replace``
    then moves over ``path``. If the block raises, the temporary file is
    removed and whatever was at ``path`` before is left as it was. A
    temporary file that cannot be created (say, in a missing directory), or
    cannot be moved over ``path``, raises a ValidationError naming ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    try:
        # Mode "x" creates the file with the usual umask-based permissions.
        fh = open(tmp, "x", encoding="utf-8", newline="\n")
    except OSError as exc:  # strerror leaves out the random temp name
        raise ValidationError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with fh:
            yield fh
        try:
            os.replace(tmp, path)
        except OSError as exc:  # say, path is a directory
            raise ValidationError(f"cannot write {path}: {exc.strerror}") from exc
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def make_dirs(path: str | Path) -> None:
    """Create directory ``path`` and its parents; a fault raises a ValidationError naming it."""
    try:
        Path(path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"cannot create directory {path}: {exc.strerror}") from exc
