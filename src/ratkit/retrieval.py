"""In-memory inverted index with Okapi BM25 scoring over TM source sentences.

The variant is the Lucene-style Okapi formulation:

    idf(t)        = ln(1 + (N - df + 0.5) / (df + 0.5))
    score(q, d)   = sum over distinct query terms t of
                    idf(t) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl))

Duplicate query terms contribute once (set semantics), and the sum runs over
the terms in sorted order, so every score is the same float in every process
whatever its ``PYTHONHASHSEED``. The idf is strictly positive for every df in
[0, N], so exactly the documents sharing at least one term with the query
receive a positive score; zero-score documents are never returned. Ties are
broken by ascending pair id so result lists are fully deterministic.

An index has one constructor, which takes the TM's pairs, the BM25
parameters, the postings and each pair's id rank, and derives everything
else from them. The postings are CSR arrays (compressed sparse rows: per
term, a row of ascending doc ids in ``docs`` with their term frequencies in
``tfs``, delimited by ``offsets``). A document's length is the sum of its
tfs, so the constructor derives the lengths, their mean and each document's
length norm from the postings alone, and refuses a pair with none.
``build_index`` analyzes each source once and gives terms rows in order of
first occurrence; its postings come from one sort of an int64 key
``row * N + doc`` per token, where each run of equal keys is one posting and
its length is the tf. ``TmIndex.subset`` cuts the postings of an index, and
``load_index`` reads them from a file. An index must be treated as
immutable; queries share no mutable state and are safe to run concurrently.

Each posting's BM25 term weight, ``idf(t) * tf * (k1 + 1) / (tf + norm)``,
depends on the index alone, so the constructor computes it once into
``weights``. A query adds its terms' weights into one score array, term by
term in sorted order. A term found in at least a quarter of the documents
also has a dense row: its weights spread over all N documents, 0.0 where it
is absent, added as one contiguous vector. Any other term is one numpy
gather-add over its postings. Both give the same bits: every weight is
positive, so every score a query holds is a positive float or 0.0, and
``x + 0.0`` is ``x`` for each of them. Ranking then keeps only the hits
scoring at least the m-th largest score, m = n + len(exclusions), ties at
that score included, and sorts those by descending score and ascending pair
id. No result of the full ranking can score below that cut, so the top n are
the same as a sort of every hit.

The index file (format v6) stores the pairs and the postings, so loading
it analyzes no source. It is UTF-8 text: a JSON header line with k1, b, the
counts of pairs, terms and postings and the byte widths of the stored
integers; four JSON array lines, every pair's id, then domain, source and
target, in index order; a line of the terms in row order, space-joined;
three base64 lines of little-endian unsigned integers, per-row df, ``docs``
and integer ``tfs``; and a last line holding the sha256 of every byte
before it, so the digest covers the header too. Each column line, which
holds one field of every pair, is one ``parse_json`` call. A load passes
the pairs and postings to the constructor a fresh build and ``subset`` use,
so the document lengths, norms, weights and dense rows have the same bits.
The postings make the file about 35% larger than the pairs alone on a Zipf
TM. The bytes follow the index's row numbering: a subset writes its terms in
its pool's order, not in the order a fresh build of its pairs would give.
"""

from __future__ import annotations

import base64
import hashlib
import io
import itertools
import json
import math
import operator
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .corpus import SentencePair, TranslationMemory, analyze_for_index, atomic_write, lone_surrogate
from .corpus import numbered_lines, parse_json
from .errors import CorpusFormatError, ValidationError


# A row is kept dense when df * _DENSE_SHARE >= N. A contiguous add costs
# 0.2 ns per document at N = 8k and 0.45 ns at 200k, a gather-add 2.2-2.9 ns
# per posting (2 vCPUs, numpy 2.4), so a dense row pays off from about df =
# N/11 at 8k and N/5 at 200k. Queries on Zipf TMs ran within 5% of each other
# at N/4, N/8 and N/16; N/4 keeps the fewest rows, and a dense row's 8 * N
# bytes are then at most twice its postings' 16 * df bytes.
_DENSE_SHARE = 4


@dataclass(frozen=True)
class Bm25Params:
    """Okapi BM25 free parameters: term-frequency saturation and length normalization."""

    k1: float = 1.2
    b: float = 0.75

    def __post_init__(self):
        if not 0.0 <= self.k1 < math.inf:
            raise ValidationError(f"k1 must be finite and >= 0, got {self.k1}")
        if not 0.0 <= self.b <= 1.0:
            raise ValidationError(f"b must be in [0, 1], got {self.b}")


@dataclass(frozen=True)
class FuzzyMatch:
    """One retrieval result; ``target`` is the translation suggestion."""

    pair_id: str
    score: float
    rank: int
    source: str
    target: str
    domain: str


class TmIndex:
    """Immutable inverted index with BM25 statistics over a translation memory.

    The constructor takes ``pairs``, ``params``, the postings (``term_rows``,
    ``offsets``, ``docs`` and ``tfs``) and ``id_rank``, and derives the other
    attributes from them; a pair without postings raises a ValidationError.
    ``build_index``, ``subset`` and ``load_index`` all make an index this way.

    Attributes:
        pairs: the indexed sentence pairs; a doc id is a position in ``pairs``.
        params: the BM25 parameters.
        term_rows: term -> row, in row order; the row's postings are
            ``docs[offsets[row]:offsets[row + 1]]`` (ascending) and the
            matching slice of ``tfs``.
        offsets: per-row start of the postings, plus one final end offset.
        docs: int doc ids of every posting, row by row.
        tfs: float64 term frequencies, aligned with ``docs``.
        doc_count: number of indexed documents N.
        doc_lengths: per-doc length in analyzed terms, the sum of its tfs.
        avg_doc_length: mean of ``doc_lengths``.
        norms: float64 per-doc length norm ``k1 * (1 - b + b * dl / avgdl)``.
        weights: float64 BM25 term weight of every posting, aligned with
            ``docs``: ``idf(row) * tf * (k1 + 1) / (tf + norms[doc])``.
        dense_rows: row -> float64 array of length N for every row with
            ``df * _DENSE_SHARE >= N``: the row's weights at its docs, 0.0
            elsewhere.
        id_rank: per-doc position of its pair id in ascending ``str`` order.
    """

    def __init__(
        self,
        pairs: tuple[SentencePair, ...],
        params: Bm25Params,
        term_rows: dict[str, int],
        offsets: np.ndarray,
        docs: np.ndarray,
        tfs: np.ndarray,
        id_rank: np.ndarray,
    ):
        self.pairs = pairs
        self.params = params
        self.term_rows, self.offsets, self.docs, self.tfs = term_rows, offsets, docs, tfs
        self.id_rank = id_rank
        self.doc_count = len(pairs)
        lengths = np.bincount(docs, weights=tfs, minlength=self.doc_count)
        if not lengths.all():
            pair = pairs[int(np.argmin(lengths))]  # the first length of 0
            raise ValidationError(f"pair {pair.id!r} has no postings; a source without terms cannot be indexed")
        self.doc_lengths = lengths.astype(np.int64).tolist()
        self.avg_doc_length = sum(self.doc_lengths) / self.doc_count
        k1, b = params.k1, params.b
        self.norms = k1 * (1.0 - b + b * np.array(self.doc_lengths) / self.avg_doc_length)
        df = np.diff(offsets)
        # math.log per row, not np.log, whose last bit may differ from it.
        idf_args = (1.0 + (self.doc_count - df + 0.5) / (df + 0.5)).tolist()
        idf = np.fromiter(map(math.log, idf_args), dtype=np.float64, count=len(idf_args))
        # The module formula's operand order, so each weight has the bits of
        # the scalar expression.
        self.weights = np.repeat(idf, df) * tfs * (k1 + 1.0) / (tfs + self.norms[docs])
        # Each dense row is filled from its own postings slice; no array over
        # every posting is made for them.
        self.dense_rows = {}
        for row in np.flatnonzero(df * _DENSE_SHARE >= self.doc_count).tolist():
            start, end = int(offsets[row]), int(offsets[row + 1])
            dense = np.zeros(self.doc_count)
            dense[docs[start:end]] = self.weights[start:end]
            self.dense_rows[row] = dense

    def subset(self, keep: np.ndarray) -> TmIndex:
        """The index of the docs where the bool array ``keep`` is true, in doc order.

        It equals ``build_index`` over those pairs: the same doc ids, postings,
        statistics and score bits, without analyzing a source again. Only its
        rows are numbered in this index's term order, empty ones left out.
        """
        kept = np.flatnonzero(keep).tolist()
        if not kept:
            raise ValidationError("a subset index needs at least one document")
        on = keep[self.docs]
        rows = np.repeat(np.arange(len(self.offsets) - 1), np.diff(self.offsets))[on]
        widths = np.bincount(rows, minlength=len(self.offsets) - 1)
        live = widths > 0
        row_of = np.where(live, np.cumsum(live) - 1, -1).tolist()  # -1: the row is empty
        return TmIndex(
            tuple(self.pairs[doc] for doc in kept),
            self.params,
            {term: row_of[row] for term, row in self.term_rows.items() if row_of[row] >= 0},
            np.concatenate(([0], np.cumsum(widths[live]))),
            # Kept docs keep their relative order, so each row stays ascending.
            (np.cumsum(keep) - 1)[self.docs[on]],
            self.tfs[on],
            np.argsort(np.argsort(self.id_rank[kept])),
        )


def _id_rank(pairs: tuple[SentencePair, ...]) -> np.ndarray:
    """Per-doc position of its pair id in ascending ``str`` order."""
    # Python str order: numpy "U" arrays drop trailing NULs when comparing.
    by_id = sorted(range(len(pairs)), key=lambda doc: pairs[doc].id)
    return np.argsort(by_id)  # the inverse permutation


def build_index(tm: TranslationMemory, params: Bm25Params = Bm25Params()) -> TmIndex:
    """Index ``analyze_for_index(pair.source)`` for every pair of the TM."""
    pairs = tm.pairs
    term_rows: dict[str, int] = {}
    rows: list[int] = []  # each token's row, in doc order
    doc_lengths: list[int] = []
    for pair in pairs:
        terms = analyze_for_index(pair.source)
        rows += [term_rows.setdefault(term, len(term_rows)) for term in terms]
        doc_lengths.append(len(terms))
    # One int64 key row * N + doc per token; sorted, each run of equal keys
    # is one posting, rows in order and each row's docs ascending. The first
    # key starts a run, if there is one: a source without terms gives none.
    n = len(pairs)
    keys = np.array(rows, dtype=np.int64)
    del rows
    keys *= n
    keys += np.repeat(np.arange(n, dtype=np.int64), doc_lengths)
    keys.sort()
    starts = np.flatnonzero(np.concatenate(([keys.size > 0], keys[1:] != keys[:-1])))
    tfs = np.diff(starts, append=len(keys)).astype(np.float64)
    keys = keys[starts]
    offsets = np.concatenate(([0], np.cumsum(np.bincount(keys // n, minlength=len(term_rows)))))
    docs = (keys % n).astype(np.intp, copy=False)
    del keys, starts  # free before the weights are computed, which keeps the peak down
    return TmIndex(pairs, params, term_rows, offsets, docs, tfs, _id_rank(pairs))


def query_top_n(
    index: TmIndex,
    query_text: str,
    n: int,
    exclusions: frozenset[str] | set[str] = frozenset(),
) -> list[FuzzyMatch]:
    """The up-to-n best fuzzy matches for a query sentence.

    Only documents with positive score are returned; pair ids listed in
    ``exclusions`` are dropped before ranking. Ranks run 1..m with
    non-increasing scores, ties broken by ascending pair id.
    """
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    scores = np.zeros(index.doc_count)
    offsets, docs, weights, dense_rows = index.offsets, index.docs, index.weights, index.dense_rows
    for term in sorted(set(analyze_for_index(query_text))):
        row = index.term_rows.get(term)
        if row is None:
            continue
        dense = dense_rows.get(row)
        if dense is not None:
            scores += dense
        else:
            start, end = int(offsets[row]), int(offsets[row + 1])
            scores[docs[start:end]] += weights[start:end]

    hits = np.flatnonzero(scores > 0.0)
    hit_scores = scores[hits]
    # Each of the first n results not excluded has at most m - 1 hits ranked
    # above it, so it scores at least the m-th largest score: sorting only
    # the hits that do (ties at the cut included) gives a prefix of the full
    # ranking that holds every result.
    m = n + len(exclusions)
    if len(hits) > m:
        cut = np.partition(hit_scores, len(hits) - m)[len(hits) - m]
        top = hit_scores >= cut
        hits, hit_scores = hits[top], hit_scores[top]
    order = np.lexsort((index.id_rank[hits], -hit_scores))
    pairs = index.pairs
    matches: list[FuzzyMatch] = []
    for doc, score in zip(hits[order].tolist(), hit_scores[order].tolist()):
        pair = pairs[doc]
        if pair.id in exclusions:
            continue
        matches.append(FuzzyMatch(pair.id, score, len(matches) + 1, pair.source, pair.target, pair.domain))
        if len(matches) == n:
            break
    return matches


# --- persistence ------------------------------------------------------------

_CHECKSUM_LINE = re.compile(rb'\{"sha256": "([0-9a-f]{64})"\}\n')
_REBUILD = "rebuild the index with `ratkit index` or `ratkit scenario`"
# The SentencePair field of each column line, in file order.
_PAIR_FIELDS = ("id", "domain", "source", "target")
# The lines before the checksum line: the header, the four column lines, the
# terms, then the df, docs and tfs arrays.
_INDEX_LINES = 9


def _doc_bytes(n_pairs: int) -> int:
    """The byte width of a stored df or doc id in an index of ``n_pairs`` documents."""
    return 2 if n_pairs < 1 << 16 else 4


def _base64_line(values: np.ndarray, width: int) -> str:
    return base64.b64encode(values.astype(f"<u{width}").tobytes()).decode("ascii") + "\n"


def save_index(index: TmIndex, path: str | Path) -> None:
    """Write a header line, the pairs' four column lines, the postings, a sha256 line."""
    params = index.params
    doc_bytes = _doc_bytes(index.doc_count)
    tf_bytes = 1 if index.tfs.max() < 1 << 8 else 4
    header = {
        "b": float(params.b),
        "doc_bytes": doc_bytes,
        "format": "ratkit-index",
        "k1": float(params.k1),
        "pairs": index.doc_count,
        "postings": len(index.docs),
        "terms": len(index.term_rows),
        "tf_bytes": tf_bytes,
        "version": 6,
    }
    arrays = ((np.diff(index.offsets), doc_bytes), (index.docs, doc_bytes), (index.tfs, tf_bytes))
    digest = hashlib.sha256()
    with atomic_write(path) as out:
        lines = itertools.chain(
            [json.dumps(header, sort_keys=True) + "\n"],
            _column_lines(index.pairs),
            [" ".join(index.term_rows) + "\n"],
            itertools.starmap(_base64_line, arrays),  # made one at a time, as the column lines are
        )
        for line in lines:
            digest.update(line.encode("utf-8"))
            out.write(line)
        out.write(f'{{"sha256": "{digest.hexdigest()}"}}\n')


def load_index(path: str | Path) -> TmIndex:
    """Load an index written by :func:`save_index`, analyzing no source.

    The sha256 line is checked before anything is parsed. The nine lines
    before it are then read from those very bytes: the header; the four
    column lines, one ``json.loads`` each, which give the pairs; and the
    terms and postings, which give ``term_rows``, ``offsets``, ``docs`` and
    ``tfs``. The ``TmIndex`` constructor derives the rest, as it does for a
    fresh build.

    A matching digest says the file holds what ``save_index`` wrote, and each
    invariant the index relies on is checked all the same: the header's
    counts and widths; columns of ``pairs`` strings without lone surrogates,
    pairs that ``SentencePair`` accepts and unique ids; distinct non-empty
    terms, df >= 1 summing to the postings count, doc ids below the pair
    count and ascending within a row, tf >= 1, and, in the constructor, at
    least one posting per document (a fault named at the docs line). A v1-v5
    file, a bad checksum line or digest, or any such fault raises a
    ValidationError naming the file, and the line where there is one.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read index file {path}: {exc}") from exc
    if data.startswith((b"RATIDX1\0", b"RATIDX2\0", b"RATIDX3\0")):
        raise ValidationError(
            f"{path}: index format v{data[6:7].decode()} is no longer supported; {_REBUILD}"
        )
    body_end = data.rfind(b'\n{"sha256": ') + 1
    checksum = _CHECKSUM_LINE.match(data, body_end) if body_end else None
    if checksum is None:
        raise ValidationError(f"{path}: no checksum line; truncated or not a ratkit index")
    if checksum.end() != len(data):
        raise ValidationError(f"{path}: trailing bytes after the checksum line")
    if hashlib.sha256(memoryview(data)[:body_end]).hexdigest().encode() != checksum[1]:
        raise ValidationError(f"{path}: checksum mismatch; the index file is corrupt")
    # BytesIO shares a bytes object (it would copy a slice of one), so the
    # parser reads the very bytes checksummed above and stops before the
    # checksum line; lines are split on "\n" only, as they were counted.
    n_lines = data.count(b"\n", 0, body_end)
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n") as fh:
        lines = numbered_lines(fh, path)
        params, header = _read_header(path, next(lines)[1])
        if n_lines != _INDEX_LINES:
            reason = f"{n_lines} lines precede the checksum line, not {_INDEX_LINES}"
            raise CorpusFormatError(str(path), n_lines, reason)
        pairs = _read_columns(path, lines, header["pairs"])
        postings = _read_postings(path, lines, header)
    del data, checksum  # the match holds the file's bytes too; neither is needed for the weights
    try:
        return TmIndex(pairs, params, *postings, _id_rank(pairs))
    except ValidationError as exc:  # a pair without postings, which the docs line shows
        raise CorpusFormatError(str(path), _INDEX_LINES - 1, str(exc)) from exc


def _read_header(path: Path, line: str) -> tuple[Bm25Params, dict]:
    """The BM25 parameters and the header of a v6 index; a fault raises for ``path:1``."""
    header = parse_json(line, path)
    try:
        if not isinstance(header, dict):
            raise ValidationError("header is not a JSON object")
        if header.get("format") != "ratkit-index":
            raise ValidationError(f"header format {header.get('format')!r} is not 'ratkit-index'")
        version = header.get("version")
        if type(version) is int and version in (4, 5):
            raise ValidationError(f"index format v{version} is no longer supported; {_REBUILD}")
        if type(version) is not int or version != 6:
            raise ValidationError(f"index format version {version!r} is not supported")
        for key in ("k1", "b"):
            if type(header.get(key)) not in (int, float):
                raise ValidationError(f"header field {key!r} is missing or not a number")
        params = Bm25Params(k1=float(header["k1"]), b=float(header["b"]))
        for key in ("pairs", "terms", "postings", "doc_bytes", "tf_bytes"):
            if type(header.get(key)) is not int or header[key] < 0:
                raise ValidationError(f"header field {key!r} is missing or not a count")
        doc_bytes = _doc_bytes(header["pairs"])
        if header["doc_bytes"] != doc_bytes:
            raise ValidationError(
                f"doc_bytes is {header['doc_bytes']}, not {doc_bytes} for {header['pairs']} pairs"
            )
        if header["tf_bytes"] not in (1, 4):
            raise ValidationError(f"tf_bytes is {header['tf_bytes']}, not 1 or 4")
        return params, header
    except (ValidationError, OverflowError) as exc:  # OverflowError: an int beyond float
        raise CorpusFormatError(str(path), 1, str(exc)) from exc


def _column_lines(pairs: tuple[SentencePair, ...]) -> Iterator[str]:
    """The four lines :func:`_read_columns` reads, newlines included: each one
    ``json.dumps`` of a field of every pair, non-ASCII text kept readable."""
    for label in _PAIR_FIELDS:
        yield json.dumps(list(map(operator.attrgetter(label), pairs)), ensure_ascii=False) + "\n"


def _read_columns(path: Path, lines: Iterator[tuple[int, str]], count: int) -> tuple[SentencePair, ...]:
    """The pairs in the next four numbered lines, a fault named ``path:line``.

    Each line is one :func:`parse_json` call and must hold a list of ``count``
    strings, none with a lone surrogate. The pairs must pass SentencePair's
    checks, and there must be at least one, with unique ids.
    """
    where = str(path)
    columns: list[list[str]] = []
    linenos: list[int] = []
    for label in _PAIR_FIELDS:
        lineno, line = next(lines)
        column = parse_json(line.rstrip("\n"), path, lineno)
        if type(column) is not list:
            raise CorpusFormatError(where, lineno, f"the {label} line is not a JSON array")
        if set(map(type, column)) - {str}:
            position = next(i for i, value in enumerate(column) if type(value) is not str)
            raise CorpusFormatError(where, lineno, f"the {label} at position {position} is not a string")
        # Only a \u escape can put a lone surrogate into decoded JSON text.
        if "\\u" in line and (found := lone_surrogate(column)):
            position, escape = found
            reason = f"the {label} at position {position} holds a lone surrogate ({escape})"
            raise CorpusFormatError(where, lineno, reason)
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
            fields = dict.fromkeys(_PAIR_FIELDS, "-")
            for lineno, label, value in zip(linenos, _PAIR_FIELDS, values):
                fields[label] = value
                try:
                    SentencePair(**fields)
                except ValidationError as exc:
                    raise CorpusFormatError(where, lineno, f"{exc} (position {position})") from None
        raise
    if not pairs or len(set(ids)) != count:  # no pairs, or a repeated id: a fault of the id line
        first_seen: dict[str, int] = {}
        for position, id_ in enumerate(ids):
            if (first := first_seen.setdefault(id_, position)) != position:
                reason = f"duplicate id {id_!r} at positions {first} and {position}"
                raise CorpusFormatError(where, linenos[0], reason)
        raise CorpusFormatError(where, linenos[0], f"translation memory {path.name!r} is empty")
    return pairs


def _read_postings(path: Path, lines: Iterator[tuple[int, str]], header: dict) -> tuple:
    """``term_rows``, ``offsets``, ``docs`` and ``tfs`` in the lines after the pairs.

    A fault raises a CorpusFormatError naming ``path`` and the line.
    """
    where = str(path)
    n = header["pairs"]
    lineno, line = next(lines)
    terms = line.rstrip("\r\n").split(" ")  # a term holds no whitespace
    if len(terms) != header["terms"]:
        raise CorpusFormatError(where, lineno, f"{len(terms)} terms, the header says {header['terms']}")
    term_rows = dict(zip(terms, range(len(terms))))
    if "" in term_rows:
        raise CorpusFormatError(where, lineno, "an empty term")
    if len(term_rows) != len(terms):
        seen: set[str] = set()
        repeated = next(term for term in terms if term in seen or seen.add(term))
        raise CorpusFormatError(where, lineno, f"the term {repeated!r} is repeated")

    lineno, line = next(lines)
    df = _read_array(where, lineno, line, header["doc_bytes"], len(terms), "df")
    if not df.all():
        raise CorpusFormatError(where, lineno, f"the term {terms[int(np.argmin(df))]!r} has a df of 0")
    offsets = np.concatenate(([0], np.cumsum(df, dtype=np.int64)))
    if offsets[-1] != header["postings"]:
        reason = f"the df values sum to {offsets[-1]}, the header says {header['postings']} postings"
        raise CorpusFormatError(where, lineno, reason)

    def term_at(posting: int) -> str:
        return terms[int(np.searchsorted(offsets, posting, side="right")) - 1]

    lineno, line = next(lines)
    docs = _read_array(where, lineno, line, header["doc_bytes"], header["postings"], "docs")
    docs = docs.astype(np.intp)
    if docs.size and docs.max() >= n:
        raise CorpusFormatError(where, lineno, f"doc id {docs.max()} is not below the {n} pairs")
    ascending = np.diff(docs) > 0
    ascending[offsets[1:-1] - 1] = True  # the first posting of a row follows another row
    if not ascending.all():
        term = term_at(int(np.argmin(ascending)) + 1)
        raise CorpusFormatError(where, lineno, f"the doc ids of the term {term!r} are not ascending")

    lineno, line = next(lines)
    tfs = _read_array(where, lineno, line, header["tf_bytes"], header["postings"], "tfs")
    if not tfs.all():
        term = term_at(int(np.argmin(tfs)))
        raise CorpusFormatError(where, lineno, f"a tf of 0 for the term {term!r}")
    if header["tf_bytes"] == 4 and tfs.max() < 1 << 8:
        raise CorpusFormatError(where, lineno, "tf_bytes is 4, but every tf fits in 1 byte")
    return term_rows, offsets, docs, tfs.astype(np.float64)


def _read_array(where: str, lineno: int, line: str, width: int, count: int, what: str) -> np.ndarray:
    """The ``count`` little-endian unsigned ints of ``width`` bytes in a base64 line."""
    try:
        raw = base64.b64decode(line.rstrip("\r\n"), validate=True)
    except ValueError as exc:  # binascii.Error, or a character beyond ASCII
        raise CorpusFormatError(where, lineno, f"the {what} line is not base64 ({exc})") from exc
    if len(raw) % width:
        reason = f"the {what} line holds {len(raw)} bytes, not a multiple of {width}"
        raise CorpusFormatError(where, lineno, reason)
    if len(raw) != count * width:
        reason = f"the {what} line holds {len(raw) // width} values, not {count}"
        raise CorpusFormatError(where, lineno, reason)
    return np.frombuffer(raw, dtype=f"<u{width}")
