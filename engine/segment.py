"""Segment on-disk format + reader.

A *segment* is the engine's analogue of a Lucene segment
(index/SegmentInfo.java): an immutable, self-contained mini-index over a
contiguous global docID range. Both SPIMI partition outputs and merge
outputs use the same layout, so merge/search/check code is uniform:

    <dir>/terms.parquet   sorted term dictionary:
        term:string, df:int64, ttf:int64, singleton_doc:int64 (-1 unless
        df==1 — the pulsed singleton, Lucene84PostingsFormat.java:159-161),
        blob:binary (engine/codec.py layout; empty for singletons),
        last_docs:list<int64>, offsets:list<int64>   per-block skip arrays
        (Lucene84SkipWriter analogue), imp_freq:list<int64>,
        imp_norm:list<int64>, imp_start:list<int64>  block impact frontiers
        (CompetitiveImpactAccumulator analogue)
    <dir>/norms.parquet   doc_id:int64, norm:uint8  (Lucene80NormsFormat
        analogue — 1 byte per doc for the indexed body field)
    <dir>/meta.json       doc_base, n_docs, sum_ttf, field, n_terms,
        lineage {...}, wall_ms, kind ("partition" | "merged")

The term dictionary stays sorted; lookup is binary search over the term
column (the role of the BlockTree FST prefix index,
codecs/blocktree/BlockTreeTermsWriter.java:200-217 — at 100 TB scale the
dictionary would be block-sharded with a first-term-per-block index; the
in-memory bisect here is the single-shard case of that design).

Writes are atomic (tmp dir + os.rename) and keyed by doc_base, which makes
partition builds idempotent under Ray task retries (SURVEY §4 stragglers).
"""

from __future__ import annotations

import json
import os
import shutil
import time
import uuid
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

TERMS_SCHEMA = pa.schema(
    [
        ("term", pa.string()),
        ("df", pa.int64()),
        ("ttf", pa.int64()),
        ("singleton_doc", pa.int64()),
        ("blob", pa.binary()),
        ("last_docs", pa.list_(pa.int64())),
        ("offsets", pa.list_(pa.int64())),
        ("imp_freq", pa.list_(pa.int64())),
        ("imp_norm", pa.list_(pa.int64())),
        ("imp_start", pa.list_(pa.int64())),
        # prox stream (DOCS_AND_FREQS_AND_POSITIONS): VInt position deltas,
        # reset per doc (first = pos+1), freqs[i] values per posting — the
        # FreqProxTermsWriter stream-1 analogue (.pos file role). Empty when
        # positions are not indexed.
        ("pos_blob", pa.binary()),
        # character offsets (..._AND_OFFSETS, index/IndexOptions.java:28):
        # interleaved VInt (start delta, length) per occurrence — the
        # Lucene84 .pay offset stream role. Empty unless offsets indexed.
        ("off_blob", pa.binary()),
        # per-occurrence payload stream (.pay payload half; documented
        # 4-byte-value subset — codec.encode_payloads). Empty unless
        # payloads indexed.
        ("pay_blob", pa.binary()),
    ]
)


@dataclass
class TermInfo:
    term: str
    df: int
    ttf: int
    singleton_doc: int
    blob: bytes
    last_docs: np.ndarray
    offsets: np.ndarray
    imp_freq: np.ndarray
    imp_norm: np.ndarray
    imp_start: np.ndarray
    pos_blob: bytes = b""
    off_blob: bytes = b""
    pay_blob: bytes = b""


def write_segment(
    out_dir: str,
    terms_table: pa.Table,
    norm_doc_ids: np.ndarray,
    norms: np.ndarray,
    meta: dict,
    doc_values: pa.Table | None = None,
) -> dict:
    """Atomically write a segment directory (tmp + rename, the two-phase
    commit analogue of SegmentInfos.java:781-834). Returns the meta dict.
    If ``out_dir`` already exists the write is skipped (resume/idempotence)
    and the existing meta is returned."""
    if os.path.exists(os.path.join(out_dir, "meta.json")):
        with open(os.path.join(out_dir, "meta.json")) as f:
            return json.load(f)
    parent = os.path.dirname(out_dir)
    os.makedirs(parent, exist_ok=True)
    tmp = os.path.join(parent, f".tmp-{os.path.basename(out_dir)}-{uuid.uuid4().hex[:8]}")
    os.makedirs(tmp)
    try:
        pq.write_table(terms_table, os.path.join(tmp, "terms.parquet"))
        pq.write_table(
            pa.table(
                {
                    "doc_id": pa.array(norm_doc_ids, type=pa.int64()),
                    "norm": pa.array(norms, type=pa.uint8()),
                }
            ),
            os.path.join(tmp, "norms.parquet"),
        )
        if doc_values is not None:
            # DocValues sidecar (index/DocValuesType.java:28; the .dvd/.dvm
            # per-segment column store role) — same atomic rename
            pq.write_table(doc_values, os.path.join(tmp, "docvalues.parquet"))
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump(meta, f, sort_keys=True)
        try:
            os.rename(tmp, out_dir)
        except OSError:
            # lost the race to a concurrent retry — its output is equivalent
            shutil.rmtree(tmp, ignore_errors=True)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    with open(os.path.join(out_dir, "meta.json")) as f:
        return json.load(f)


def _prefix_terms(terms: list[str], prefix: str, max_terms: int) -> list[str]:
    """Sorted-dictionary range scan [prefix, prefix+MAX) — the PrefixQuery
    TermsEnum seek (BlockTree intersect role); keeps the first terms."""
    i = bisect_left(terms, prefix)
    out: list[str] = []
    while i < len(terms) and len(out) < max_terms:
        t = terms[i]
        if not t.startswith(prefix):
            break
        out.append(t)
        i += 1
    return out


def _range_terms(terms: list[str], lo: str, hi: str, max_terms: int) -> list[str]:
    """Inclusive sorted-dictionary range scan (TermRangeQuery role)."""
    i = bisect_left(terms, lo)
    j = bisect_right(terms, hi)
    return terms[i : min(j, i + max_terms)]


class PostingsReader:
    """Postings surface shared by a flushed ``Segment`` and a merged
    ``MergedIndex`` — the one leaf-reader both kinds of Lucene segment are
    read through. A subclass supplies how a term's row is found
    (``_find(term)`` → (terms table, row) or (None, -1)), ``iter_terms()``
    in sorted order, ``term_stats`` and its norms; the row decode, the
    decoded-postings LRU, the prox/offset/payload streams and the
    reversed-dictionary suffix seek live here."""

    _POSTINGS_CACHE_MAX = 128  # decoded terms kept per open reader

    def __init__(self):
        self._postings_cache: OrderedDict[str, tuple[np.ndarray, np.ndarray]] = OrderedDict()

    @property
    def norm_span(self) -> int:
        """Width of the doc-id range this reader covers (accumulator size)."""
        return self.max_doc - self.doc_base

    def term_info(self, term: str) -> TermInfo | None:
        tbl, i = self._find(term)
        if tbl is None:
            return None
        row = tbl.slice(i, 1).to_pylist()[0]
        return TermInfo(
            term=row["term"],
            df=row["df"],
            ttf=row["ttf"],
            singleton_doc=row["singleton_doc"],
            blob=row["blob"] or b"",
            last_docs=np.array(row["last_docs"], dtype=np.int64),
            offsets=np.array(row["offsets"], dtype=np.int64),
            imp_freq=np.array(row["imp_freq"], dtype=np.int64),
            imp_norm=np.array(row["imp_norm"], dtype=np.int64),
            imp_start=np.array(row["imp_start"], dtype=np.int64),
            pos_blob=row.get("pos_blob") or b"",
            off_blob=row.get("off_blob") or b"",
            pay_blob=row.get("pay_blob") or b"",
        )

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """Fully decoded (docs, freqs) for a term (TAAT/oracle/merge path).
        Width-grouped vectorized decode + per-reader LRU of decoded terms
        (the role the OS page cache + hot TermsEnum plays in the
        reference)."""
        cached = self._postings_cache.get(term)
        if cached is not None:
            self._postings_cache.move_to_end(term)
            return cached
        from .codec import decode_term_postings_indexed

        ti = self.term_info(term)
        if ti is None:
            out = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        elif ti.df == 1:
            out = (
                np.array([ti.singleton_doc], dtype=np.int64),
                np.array([ti.ttf], dtype=np.int64),
            )
        else:
            out = decode_term_postings_indexed(ti.blob, ti.df, ti.offsets)
        self._postings_cache[term] = out
        if len(self._postings_cache) > self._POSTINGS_CACHE_MAX:
            self._postings_cache.popitem(last=False)
        return out

    def _occurrence_stream(self, term: str, blob_field: str, decode):
        ti = self.term_info(term)
        if ti is None or not getattr(ti, blob_field):
            return None
        return decode(getattr(ti, blob_field), self.postings(term)[1])

    def positions(self, term: str) -> list[np.ndarray] | None:
        """Per-posting position arrays (None if positions not indexed)."""
        from .codec import decode_positions

        return self._occurrence_stream(term, "pos_blob", decode_positions)

    def offsets(self, term: str) -> tuple[list[np.ndarray], list[np.ndarray]] | None:
        """Per-posting (starts, ends) character-offset arrays — None when
        offsets were not indexed (IndexOptions without _AND_OFFSETS)."""
        from .codec import decode_offsets

        return self._occurrence_stream(term, "off_blob", decode_offsets)

    def payloads(self, term: str) -> list[np.ndarray] | None:
        """Per-posting payload words (0 = absent, else uint32 value + 1) —
        None when payloads were not indexed. Decode to typed values with
        codec.payload_as_int / payload_as_float."""
        from .codec import decode_payloads

        return self._occurrence_stream(term, "pay_blob", decode_payloads)

    def expand_suffix(self, suffix: str, max_terms: int = 1024) -> list[str]:
        """Terms ENDING with ``suffix`` — the leading-wildcard seek of
        Solr's ReversedWildcardFilterFactory (solr/analysis/
        ReversedWildcardFilter.java: index reversed tokens so ``*foo``
        becomes a prefix seek on ``oof``). The reversed dictionary is
        derived lazily, once per open reader, from ``iter_terms()`` instead
        of indexing a second postings field (scoring reuses forward
        postings; only the TERM set is needed for MultiTermQuery rewrite);
        at 10^9-term dictionaries it would be persisted at merge next to
        the forward dict files. Result is forward-sorted."""
        rev = getattr(self, "_rev_terms", None)
        if rev is None:
            rev = sorted((t[::-1], t) for t in self.iter_terms())
            self._rev_terms = rev
        rsuf = suffix[::-1]
        i = bisect_left(rev, (rsuf,))
        out: list[str] = []
        while i < len(rev) and len(out) < max_terms:
            rt, t = rev[i]
            if not rt.startswith(rsuf):
                break
            out.append(t)
            i += 1
        return sorted(out)


class Segment(PostingsReader):
    """Open segment: term dictionary + norms + stats, loaded once and
    queried many times (the open-IndexReader-leaf analogue)."""

    def __init__(self, seg_dir: str):
        super().__init__()
        self.dir = seg_dir
        with open(os.path.join(seg_dir, "meta.json")) as f:
            self.meta = json.load(f)
        self._terms_tbl = pq.read_table(os.path.join(seg_dir, "terms.parquet"))
        self._terms: list[str] = self._terms_tbl.column("term").to_pylist()
        self._df = self._terms_tbl.column("df").to_numpy()
        self._ttf = self._terms_tbl.column("ttf").to_numpy()
        nt = pq.read_table(os.path.join(seg_dir, "norms.parquet"))
        doc_ids = nt.column("doc_id").to_numpy()
        self.doc_base = int(self.meta["doc_base"])
        self.n_docs = int(self.meta["n_docs"])
        self.max_doc = int(doc_ids.max()) + 1 if len(doc_ids) else self.doc_base
        # dense norm array over [doc_base, max_doc) — contiguous in practice,
        # scatter handles any gaps from rejected/filtered rows
        self._norms = np.zeros(self.max_doc - self.doc_base, dtype=np.uint8)
        self._norms[doc_ids - self.doc_base] = nt.column("norm").to_numpy()

    @property
    def sum_ttf(self) -> int:
        return int(self.meta["sum_ttf"])

    def norm_of(self, doc_ids: np.ndarray) -> np.ndarray:
        return self._norms[np.asarray(doc_ids, dtype=np.int64) - self.doc_base]

    def term_index(self, term: str) -> int:
        i = bisect_left(self._terms, term)
        if i < len(self._terms) and self._terms[i] == term:
            return i
        return -1

    def _find(self, term: str) -> tuple[pa.Table | None, int]:
        i = self.term_index(term)
        return (self._terms_tbl, i) if i >= 0 else (None, -1)

    def iter_terms(self):
        yield from self._terms

    def expand_prefix(self, prefix: str, max_terms: int = 1024) -> list[str]:
        return _prefix_terms(self._terms, prefix, max_terms)

    def expand_range(self, lo: str, hi: str, max_terms: int = 1024) -> list[str]:
        return _range_terms(self._terms, lo, hi, max_terms)

    def term_stats(self, term: str) -> tuple[int, int]:
        """(docFreq, totalTermFreq) — 0,0 if absent (TermStates.build role)."""
        i = self.term_index(term)
        if i < 0:
            return 0, 0
        return int(self._df[i]), int(self._ttf[i])


class DictStatsReader:
    """Dictionary-only view of ONE partition's term file: the stats pass
    (TermStates.build — search/TermQuery.java:194-206) and the multi-term
    rewrites need (term, df, ttf) and sorted-dictionary scans, never
    postings. Loads those three columns LAZILY with a pruned parquet read
    on first use — construction is free, so a fan-out closure can carry a
    list of these (really just paths) without shipping an index. Exposes
    the same dictionary surface as Segment (term_stats / expand_prefix /
    expand_range / iter_terms) so IndexSearcher.rewrite works unchanged."""

    def __init__(self, terms_path: str):
        self.path = terms_path
        self._loaded: tuple[list[str], np.ndarray, np.ndarray] | None = None

    def _load(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        if self._loaded is None:
            tbl = pq.read_table(self.path, columns=["term", "df", "ttf"])
            self._loaded = (
                tbl.column("term").to_pylist(),
                tbl.column("df").to_numpy(),
                tbl.column("ttf").to_numpy(),
            )
        return self._loaded

    @property
    def _terms(self) -> list[str]:
        return self._load()[0]

    def iter_terms(self):
        yield from self._terms

    def term_stats(self, term: str) -> tuple[int, int]:
        terms, df, ttf = self._load()
        i = bisect_left(terms, term)
        if i < len(terms) and terms[i] == term:
            return int(df[i]), int(ttf[i])
        return 0, 0

    def expand_prefix(self, prefix: str, max_terms: int = 1024) -> list[str]:
        return _prefix_terms(self._terms, prefix, max_terms)

    def expand_range(self, lo: str, hi: str, max_terms: int = 1024) -> list[str]:
        return _range_terms(self._terms, lo, hi, max_terms)


def make_terms_table(rows: dict[str, list]) -> pa.Table:
    return pa.table(rows, schema=TERMS_SCHEMA)


def now_ms() -> float:
    return time.perf_counter() * 1000.0
