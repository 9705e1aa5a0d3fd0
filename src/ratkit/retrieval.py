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

An index holds the TM's pairs and the BM25 parameters; everything else is
derived from them when the index is constructed. Each source is analyzed
once into postings kept as CSR arrays (compressed sparse rows: per term, a
row of ascending doc ids in ``docs`` with their term frequencies in ``tfs``,
delimited by ``offsets``), together with the document lengths, their mean and
each document's length norm. An index must be treated as immutable; queries
share no mutable state and are safe to run concurrently.

The index file is a corpus: a JSON header line with k1 and b, the pairs as
JSONL corpus lines, and a last line holding the sha256 of every byte before
it, so the digest covers the parameters too.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import math
import re
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import SentencePair, TranslationMemory, analyze_for_index, atomic_write, numbered_lines
from .corpus import _jsonl_line, _read_records, parse_json  # the JSONL record format
from .errors import CorpusFormatError, ValidationError


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

    Attributes:
        pairs: the indexed sentence pairs; a doc id is a position in ``pairs``.
        params: the BM25 parameters.
        term_rows: term -> row; the row's postings are
            ``docs[offsets[row]:offsets[row + 1]]`` (ascending) and the
            matching slice of ``tfs``.
        offsets: per-row start of the postings, plus one final end offset.
        docs: int doc ids of every posting, row by row.
        tfs: float64 term frequencies, aligned with ``docs``.
        doc_count: number of indexed documents N.
        doc_lengths: per-doc length in analyzed terms, the sum of its tfs.
        avg_doc_length: mean of ``doc_lengths``.
        norms: float64 per-doc length norm ``k1 * (1 - b + b * dl / avgdl)``.
        id_rank: per-doc position of its pair id in ascending ``str`` order.
    """

    def __init__(self, pairs: tuple[SentencePair, ...], params: Bm25Params):
        term_rows: dict[str, int] = {}
        rows: list[int] = []
        tfs: list[int] = []
        widths: list[int] = []
        doc_lengths: list[int] = []
        for pair in pairs:
            terms = analyze_for_index(pair.source)
            if not terms:
                raise ValidationError(
                    f"pair {pair.id!r} has no postings; a source without terms cannot be indexed"
                )
            counts = Counter(terms)
            rows.extend(term_rows.setdefault(term, len(term_rows)) for term in counts)
            tfs.extend(counts.values())
            widths.append(len(counts))
            doc_lengths.append(len(terms))
        row_ids = np.array(rows, dtype=np.intp)
        # A stable sort by row keeps each row's docs in ascending order.
        order = np.argsort(row_ids, kind="stable")
        self.pairs = pairs
        self.params = params
        self.term_rows = term_rows
        self.offsets = np.concatenate(([0], np.cumsum(np.bincount(row_ids))))
        self.docs = np.repeat(np.arange(len(pairs), dtype=np.intp), widths)[order]
        self.tfs = np.array(tfs, dtype=np.float64)[order]
        self.doc_count = len(pairs)
        self.doc_lengths = doc_lengths
        self.avg_doc_length = sum(doc_lengths) / len(doc_lengths)
        k1, b = params.k1, params.b
        self.norms = k1 * (1.0 - b + b * np.array(doc_lengths) / self.avg_doc_length)
        # Python str order: numpy "U" arrays drop trailing NULs when comparing.
        by_id = sorted(range(len(pairs)), key=lambda doc: pairs[doc].id)
        self.id_rank = np.argsort(by_id)  # the inverse permutation
        self._pairs_by_source: dict[str, list[str]] = {}
        for pair in pairs:
            self._pairs_by_source.setdefault(pair.source, []).append(pair.id)

    def pairs_with_source(self, source: str) -> list[str]:
        """Pair ids of indexed documents whose raw source text equals ``source``."""
        return self._pairs_by_source.get(source, [])


def build_index(tm: TranslationMemory, params: Bm25Params = Bm25Params()) -> TmIndex:
    """Index ``analyze_for_index(pair.source)`` for every pair of the TM."""
    return TmIndex(tm.pairs, params)


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
        # Same operand order as the formula, so each score is the same float
        # as a scalar loop over the postings would give.
        scores[docs] += term_idf * tfs * (k1 + 1.0) / (tfs + index.norms[docs])

    hits = np.flatnonzero(scores > 0.0)
    ranked = hits[np.lexsort((index.id_rank[hits], -scores[hits]))]
    matches: list[FuzzyMatch] = []
    for doc in ranked:
        pair = index.pairs[doc]
        if pair.id in exclusions:
            continue
        matches.append(
            FuzzyMatch(
                pair_id=pair.id,
                score=scores[doc].item(),
                rank=len(matches) + 1,
                source=pair.source,
                target=pair.target,
                domain=pair.domain,
            )
        )
        if len(matches) == n:
            break
    return matches


# --- persistence ------------------------------------------------------------

_CHECKSUM_LINE = re.compile(rb'\{"sha256": "([0-9a-f]{64})"\}\n')


def save_index(index: TmIndex, path: str | Path) -> None:
    """Write a header line, the pairs as ``save_corpus`` writes JSONL, and a sha256 line."""
    params = index.params
    header = {"b": float(params.b), "format": "ratkit-index", "k1": float(params.k1), "version": 4}
    header_line = json.dumps(header, sort_keys=True) + "\n"
    digest = hashlib.sha256()
    with atomic_write(path) as out:
        for line in itertools.chain([header_line], map(_jsonl_line, index.pairs)):
            digest.update(line.encode("utf-8"))
            out.write(line)
        out.write(f'{{"sha256": "{digest.hexdigest()}"}}\n')


def load_index(path: str | Path) -> TmIndex:
    """Load an index written by :func:`save_index`.

    The sha256 line is checked before anything is parsed. A v1-v3 file, a
    bad checksum line or digest, a bad header or pair line, or invalid pairs
    or parameters raise a ValidationError naming the file, and the line where
    there is one.
    """
    path = Path(path)
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise ValidationError(f"cannot read index file {path}: {exc}") from exc
    if data.startswith((b"RATIDX1\0", b"RATIDX2\0", b"RATIDX3\0")):
        raise ValidationError(
            f"{path}: index format v{data[6:7].decode()} is no longer supported; rebuild "
            "the index with `ratkit index` or `ratkit scenario`"
        )
    body_end = data.rfind(b'\n{"sha256": ') + 1
    checksum = _CHECKSUM_LINE.match(data, body_end) if body_end else None
    if checksum is None:
        raise ValidationError(f"{path}: no checksum line; truncated or not a ratkit index")
    if checksum.end() != len(data):
        raise ValidationError(f"{path}: trailing bytes after the checksum line")
    if hashlib.sha256(memoryview(data)[:body_end]).hexdigest().encode() != checksum[1]:
        raise ValidationError(f"{path}: checksum mismatch; the index file is corrupt")
    with io.TextIOWrapper(io.BytesIO(memoryview(data)[:body_end]), encoding="utf-8") as fh:
        lines = numbered_lines(fh, path)
        params = _header_params(path, next(lines)[1])
        tm = _read_records(path, lines, "jsonl", path.name)
    try:
        return TmIndex(tm.pairs, params)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def _header_params(path: Path, line: str) -> Bm25Params:
    """The BM25 parameters in a v4 header line; a fault raises for ``path:1``."""
    header = parse_json(line, path)
    try:
        if not isinstance(header, dict):
            raise ValidationError("header is not a JSON object")
        if header.get("format") != "ratkit-index":
            raise ValidationError(f"header format {header.get('format')!r} is not 'ratkit-index'")
        version = header.get("version")
        if type(version) is not int or version != 4:
            raise ValidationError(f"index format version {version!r} is not supported")
        for key in ("k1", "b"):
            if type(header.get(key)) not in (int, float):
                raise ValidationError(f"header field {key!r} is missing or not a number")
        return Bm25Params(k1=float(header["k1"]), b=float(header["b"]))
    except (ValidationError, OverflowError) as exc:  # OverflowError: an int beyond float
        raise CorpusFormatError(str(path), 1, str(exc)) from exc
