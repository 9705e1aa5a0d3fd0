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
each document's length norm. Terms get rows in order of first occurrence.
The postings come from one sort of an int64 key ``row * N + doc`` per
token: each run of equal keys is one posting and its length is the tf. An
index must be treated as immutable; queries share no mutable state and are
safe to run concurrently.

Each posting's BM25 term weight, ``idf(t) * tf * (k1 + 1) / (tf + norm)``,
depends on the index alone, so it is computed once, when the index is
constructed, into ``weights``. A query adds its terms' weights into one
score array, one numpy gather-add per term, in sorted term order. Ranking
then keeps only the hits scoring at least the m-th largest score,
m = n + len(exclusions), ties at that score included, and sorts those by
descending score and ascending pair id. No result of the full ranking can
score below that cut, so the top n are the same as a sort of every hit.

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
        weights: float64 BM25 term weight of every posting, aligned with
            ``docs``: ``idf(row) * tf * (k1 + 1) / (tf + norms[doc])``.
        id_rank: per-doc position of its pair id in ascending ``str`` order.
    """

    def __init__(self, pairs: tuple[SentencePair, ...], params: Bm25Params):
        first: dict[str, str] = {}  # term -> its first str object, in first-occurrence order
        tokens: list[str] = []
        doc_lengths: list[int] = []
        for pair in pairs:
            terms = analyze_for_index(pair.source)
            if not terms:
                raise ValidationError(
                    f"pair {pair.id!r} has no postings; a source without terms cannot be indexed"
                )
            # Holding one object per term, not per token, keeps peak memory down.
            tokens.extend(map(first.setdefault, terms, terms))
            doc_lengths.append(len(terms))
        self.term_rows = term_rows = {term: row for row, term in enumerate(first)}
        del first
        # One int64 key row * N + doc per token; sorted, each run of equal keys
        # is one posting, rows in order and each row's docs ascending.
        n = len(pairs)
        keys = np.fromiter(map(term_rows.__getitem__, tokens), dtype=np.int64, count=len(tokens))
        del tokens
        keys *= n
        keys += np.repeat(np.arange(n, dtype=np.int64), doc_lengths)
        keys.sort()
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        self.tfs = np.diff(starts, append=len(keys)).astype(np.float64)
        keys = keys[starts]
        self.offsets = np.concatenate(([0], np.cumsum(np.bincount(keys // n))))
        self.docs = (keys % n).astype(np.intp, copy=False)
        del keys, starts  # free before the weights are computed, which keeps the peak down
        # Python str order: numpy "U" arrays drop trailing NULs when comparing.
        by_id = sorted(range(len(pairs)), key=lambda doc: pairs[doc].id)
        self._set_docs(pairs, params, doc_lengths, np.argsort(by_id))  # the inverse permutation

    def _set_docs(
        self,
        pairs: tuple[SentencePair, ...],
        params: Bm25Params,
        doc_lengths: list[int],
        id_rank: np.ndarray,
    ) -> None:
        """Set the per-document fields and the weights; the postings are already in place."""
        self.pairs = pairs
        self.params = params
        self.doc_count = len(pairs)
        self.doc_lengths = doc_lengths
        self.avg_doc_length = sum(doc_lengths) / len(doc_lengths)
        k1, b = params.k1, params.b
        self.norms = k1 * (1.0 - b + b * np.array(doc_lengths) / self.avg_doc_length)
        df = np.diff(self.offsets)
        # math.log per row, not np.log, whose last bit may differ from it.
        idf_args = (1.0 + (self.doc_count - df + 0.5) / (df + 0.5)).tolist()
        idf = np.fromiter(map(math.log, idf_args), dtype=np.float64, count=len(idf_args))
        tfs = self.tfs
        # The module formula's operand order, so each weight has the bits of
        # the scalar expression.
        self.weights = np.repeat(idf, df) * tfs * (k1 + 1.0) / (tfs + self.norms[self.docs])
        self.id_rank = id_rank
        self._pairs_by_source: dict[str, list[str]] = {}
        for pair in pairs:
            self._pairs_by_source.setdefault(pair.source, []).append(pair.id)

    def subset(self, keep: np.ndarray) -> TmIndex:
        """The index of the docs where the bool array ``keep`` is true, in doc order.

        It equals ``TmIndex`` over those pairs: the same doc ids, postings,
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
        sub = TmIndex.__new__(TmIndex)
        sub.term_rows = {term: row_of[row] for term, row in self.term_rows.items() if row_of[row] >= 0}
        sub.offsets = np.concatenate(([0], np.cumsum(widths[live])))
        # Kept docs keep their relative order, so each row stays ascending.
        sub.docs = (np.cumsum(keep) - 1)[self.docs[on]]
        sub.tfs = self.tfs[on]
        pairs = tuple(self.pairs[doc] for doc in kept)
        doc_lengths = [self.doc_lengths[doc] for doc in kept]
        id_rank = np.argsort(np.argsort(self.id_rank[kept]))
        sub._set_docs(pairs, self.params, doc_lengths, id_rank)
        return sub

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
    scores = np.zeros(index.doc_count)
    offsets, docs, weights = index.offsets, index.docs, index.weights
    for term in sorted(set(analyze_for_index(query_text))):
        row = index.term_rows.get(term)
        if row is None:
            continue
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
    ranked = hits[np.lexsort((index.id_rank[hits], -hit_scores))]
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
    # BytesIO shares a bytes object (it would copy a slice of one), so the
    # parser reads the very bytes checksummed above and stops before the
    # checksum line; lines are split on "\n" only, as they were counted.
    with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="\n") as fh:
        lines = itertools.islice(numbered_lines(fh, path), data.count(b"\n", 0, body_end))
        params = _header_params(path, next(lines)[1])
        tm = _read_records(path, lines, "jsonl", path.name)
    del data, checksum  # the match holds the file's bytes too; neither is needed for the build
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
