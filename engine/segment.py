"""Segment on-disk format + reader.

A *segment* is the engine's analogue of a Lucene segment
(index/SegmentInfo.java): an immutable, self-contained mini-index over a
contiguous global docID range. SPIMI partition outputs use the layout
below. Their term file and the ``merge_by_term`` term shards
(engine/merge.py) are one format: a ``TERMS_SCHEMA`` table sorted by
term, written by ``write_term_shard`` as an lz4 Arrow IPC file and read
back by ``read_term_shard`` through a memory map:

    <dir>/terms.arrow     sorted term dictionary:
        term:string, df:int64, ttf:int64, singleton_doc:int64 (-1 unless
        df==1 — the pulsed singleton, Lucene84PostingsFormat.java:159-161),
        blob:binary (engine/codec.py layout; empty for singletons),
        last_docs:list<int64>, offsets:list<int64>   per-block skip arrays
        (Lucene84SkipWriter analogue), imp_freq:list<int64>,
        imp_norm:list<int64>, imp_start:list<int64>  block impact frontiers
        (CompetitiveImpactAccumulator analogue)
    <dir>/norms.u8        raw uint8, one norm byte per doc over
        [doc_base, max_doc); a doc-id gap reads 0 (the Lucene80NormsFormat
        .nvd analogue), read through ``map_norms``
    <dir>/meta.json       doc_base, n_docs, sum_ttf, field, n_terms,
        lineage {...}, wall_ms, kind ("partition")

A partition's ``terms.arrow`` and ``norms.u8`` are merge input:
once ``merge_by_term`` commits a merge over partitions that lie under its
own index dir, it deletes those two files (the IndexFileDeleter role) and
the merged index is the only copy of the postings. ``meta.json`` (build
resume and lineage) and ``docvalues.parquet`` (facets, points, geo,
joins) stay. A ``Segment`` is therefore opened only on unmerged
partitions: a build manifest before its merge, NRT tail segments and
indexes that are never merged.

Every reader looks a term up in a ``TermShard``: one loaded term file,
its sorted term column as Python strings, a term → row map and numpy
views over the other columns (the role of one BlockTree term block,
codecs/blocktree/BlockTreeTermsWriter.java:200-217). A ``Segment`` is one
shard; a ``MergedIndex`` routes a term to one of its shards by the
manifest's sorted term ranges, the first-term-per-block index of that
design at file granularity.

Writes are atomic (tmp dir + os.rename) and keyed by doc_base, which makes
partition builds idempotent under Ray task retries (SURVEY §4 stragglers).
"""

from __future__ import annotations

import json
import os
import shutil
import uuid
from bisect import bisect_left, bisect_right
from collections import OrderedDict
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .codec import array_offsets

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


# the partition files merge_by_term reads, and deletes once its merge of
# the partition commits
POSTINGS_FILES = ("terms.arrow", "norms.u8")

_IPC_LZ4 = pa.ipc.IpcWriteOptions(compression="lz4")


def write_term_shard(tbl: pa.Table, path: str) -> None:
    """Write one term file (``TERMS_SCHEMA``: a partition's
    ``terms.arrow`` or a merged term shard) as an lz4-compressed Arrow IPC
    file, atomically (tmp + ``os.replace``)."""
    with pa.OSFile(path + ".tmp", "wb") as sink:
        with pa.ipc.new_file(sink, tbl.schema, options=_IPC_LZ4) as w:
            w.write_table(tbl)
    os.replace(path + ".tmp", path)


def read_term_shard(path: str, columns: list[str] | None = None) -> pa.Table:
    """Read a term file through ``pa.memory_map`` (the
    store/MMapDirectory.java role). ``columns`` projects at the IPC level,
    so a term-only read never decompresses the postings blobs."""
    opts = None
    if columns is not None:
        opts = pa.ipc.IpcReadOptions(
            included_fields=[TERMS_SCHEMA.get_field_index(c) for c in columns]
        )
    with pa.memory_map(path) as src:
        tbl = pa.ipc.open_file(src, options=opts).read_all()
    return tbl if columns is None else tbl.select(columns)


def map_norms(path: str) -> np.ndarray:
    """A norms file (raw uint8, one byte per doc) as a read-only array
    over a memory map (the .nvd through MMapDirectory role): the OS page
    cache holds only the pages a lookup touches, shared by every process.
    It is a plain ndarray view, whose fancy index costs less than the
    memmap subclass's; a 0-byte file, which ``np.memmap`` refuses, maps to
    an empty array."""
    if os.path.getsize(path) == 0:
        return np.zeros(0, dtype=np.uint8)
    return np.memmap(path, dtype=np.uint8, mode="r").view(np.ndarray)


def term_strings(col: pa.Array | pa.ChunkedArray) -> list[str]:
    """A string column as a list of Python strings, converted in one
    Arrow call (``to_pylist()`` builds a scalar per row and costs ~25x
    more on a term column)."""
    return col.to_numpy(zero_copy_only=False).tolist()


@dataclass
class TermInfo:
    term: str
    df: int
    ttf: int
    singleton_doc: int
    blob: bytes | memoryview
    last_docs: np.ndarray
    offsets: np.ndarray
    imp_freq: np.ndarray
    imp_norm: np.ndarray
    imp_start: np.ndarray
    pos_blob: bytes | memoryview = b""
    off_blob: bytes | memoryview = b""
    pay_blob: bytes | memoryview = b""


_LIST_COLS = ("last_docs", "offsets", "imp_freq", "imp_norm", "imp_start")
_BLOB_COLS = ("blob", "pos_blob", "off_blob", "pay_blob")


def binary_views(arr: pa.Array) -> tuple[np.ndarray, memoryview]:
    """Zero-copy (offsets, data) views over a non-chunked binary array:
    row i's bytes are data[offs[i]:offs[i+1]] — no per-row Python bytes
    materialization (the .to_pylist() replacement for blob columns)."""
    _, offs, buf = arr.buffers()  # one call: each costs ~2 µs
    o = arr.offset
    return (
        np.frombuffer(offs, dtype=np.int32)[o : o + len(arr) + 1],
        memoryview(buf) if buf is not None else memoryview(b""),
    )


def _one_batch(tbl: pa.Table) -> pa.RecordBatch:
    """The table as one record batch: no copy for a single-batch table
    (a merged term shard always is one), a concatenation otherwise."""
    batches = tbl.to_batches()
    if len(batches) != 1:
        batches = tbl.combine_chunks().to_batches() or [
            pa.RecordBatch.from_pylist([], schema=tbl.schema)
        ]
    return batches[0]


class TermShard:
    """One loaded term file (``TERMS_SCHEMA``), the structure every reader
    looks a term up in. Built once per table from its single record
    batch: ``terms`` is the sorted term column as Python strings,
    ``find(term)`` its row through a term → row map (-1 when absent), and
    ``info(i)`` row i as a ``TermInfo`` of int64 slices of the list
    columns' values and memoryview slices of the blob columns' data,
    copying nothing per row (a row's ``to_pylist`` cost ~80 µs). Callers
    must not mutate ``terms`` or the slices."""

    def __init__(self, tbl: pa.Table):
        b = _one_batch(tbl)
        cols = dict(zip(b.schema.names, b.columns))
        self.terms = term_strings(cols["term"])
        self._row = dict(zip(self.terms, range(len(self.terms))))
        self.df = cols["df"].to_numpy()
        self.ttf = cols["ttf"].to_numpy()
        self._singleton = cols["singleton_doc"].to_numpy()
        self._lists = []
        for c in _LIST_COLS:
            a = cols[c]
            self._lists.append((array_offsets(a), a.values.to_numpy().astype(np.int64, copy=False)))
        # (offsets, uint8 data) per blob column; a null slot spans no
        # bytes, so it reads as an empty blob
        self._blobs = []
        for c in _BLOB_COLS:
            offs, data = binary_views(cols[c])
            self._blobs.append((offs, np.frombuffer(data, dtype=np.uint8)))

    def _blob(self, j: int, i: int) -> bytes | memoryview:
        offs, data = self._blobs[j]
        return data[offs[i] : offs[i + 1]].data

    def find(self, term: str) -> int:
        return self._row.get(term, -1)

    def postings_row(self, i: int) -> tuple[int, int, int, bytes | memoryview, np.ndarray]:
        """Row i's (df, ttf, singleton_doc, blob, offsets): what a postings
        decode reads, without slicing the other columns as ``info`` does."""
        offs, vals = self._lists[1]  # the offsets column
        return int(self.df[i]), int(self.ttf[i]), int(self._singleton[i]), self._blob(0, i), vals[offs[i] : offs[i + 1]]

    def info(self, i: int) -> TermInfo:
        last_docs, offsets, imp_freq, imp_norm, imp_start = (
            vals[offs[i] : offs[i + 1]] for offs, vals in self._lists
        )
        return TermInfo(
            term=self.terms[i],
            df=int(self.df[i]),
            ttf=int(self.ttf[i]),
            singleton_doc=int(self._singleton[i]),
            blob=self._blob(0, i),
            last_docs=last_docs,
            offsets=offsets,
            imp_freq=imp_freq,
            imp_norm=imp_norm,
            imp_start=imp_start,
            pos_blob=self._blob(1, i),
            off_blob=self._blob(2, i),
            pay_blob=self._blob(3, i),
        )


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
        write_term_shard(terms_table, os.path.join(tmp, "terms.arrow"))
        # one byte per doc over [doc_base, max doc + 1): a gap reads 0
        doc_ids = np.asarray(norm_doc_ids, dtype=np.int64)
        base = int(meta["doc_base"])
        dense = np.zeros(int(doc_ids.max()) + 1 - base if len(doc_ids) else 0, dtype=np.uint8)
        dense[doc_ids - base] = norms
        dense.tofile(os.path.join(tmp, "norms.u8"))
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


class PostingsReader:
    """Postings surface shared by a flushed ``Segment`` and a merged
    ``MergedIndex`` — the one leaf-reader both kinds of Lucene segment are
    read through. A subclass supplies two things about its dictionary:
    ``_shard_of(term)``, the ``TermShard`` that can hold a term (None when
    none can), and ``dict_ranges()``; plus its norms. Term lookup and
    stats, the row decode, the decoded-postings LRU, the
    prox/offset/payload streams, term enumeration and the prefix, range
    and reversed-dictionary suffix seeks live here."""

    _POSTINGS_CACHE_MAX = 128  # decoded terms kept per open reader

    def __init__(self):
        self._postings_cache: OrderedDict[str, tuple[np.ndarray, np.ndarray]] = OrderedDict()

    @property
    def norm_span(self) -> int:
        """Width of the doc-id range this reader covers (accumulator size)."""
        return self.max_doc - self.doc_base

    def _find(self, term: str) -> tuple[TermShard | None, int]:
        """(shard, row) of ``term``, or (None, -1)."""
        sh = self._shard_of(term)
        i = -1 if sh is None else sh.find(term)
        return (sh, i) if i >= 0 else (None, -1)

    def term_stats(self, term: str) -> tuple[int, int]:
        """(docFreq, totalTermFreq) — 0,0 if absent (TermStates.build role)."""
        sh, i = self._find(term)
        if sh is None:
            return 0, 0
        return int(sh.df[i]), int(sh.ttf[i])

    def term_info(self, term: str) -> TermInfo | None:
        sh, i = self._find(term)
        return None if sh is None else sh.info(i)

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """Fully decoded (docs, freqs) for a term (TAAT/oracle path): the
        row's blob through ``codec.decode_term_postings_indexed``, behind a
        per-reader LRU of decoded terms (the role the OS page cache + hot
        TermsEnum plays in the reference)."""
        cached = self._postings_cache.get(term)
        if cached is not None:
            self._postings_cache.move_to_end(term)
            return cached
        from .codec import decode_term_postings_indexed

        sh, i = self._find(term)
        if sh is None:
            out = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        else:
            df, ttf, singleton_doc, blob, offsets = sh.postings_row(i)
            if df == 1:
                out = (np.array([singleton_doc], dtype=np.int64), np.array([ttf], dtype=np.int64))
            else:
                out = decode_term_postings_indexed(blob, df, offsets)
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

    # -- the sorted dictionary: a subclass's dict_ranges() is the sorted
    # dictionary as disjoint (term_min, term_max, load_terms) ranges in
    # term order; load_terms() returns that range's terms as a sorted
    # list, which callers must not mutate. A range-bounded seek (prefix,
    # range, fuzzy) reads only the ranges it admits.

    def iter_terms(self) -> Iterable[str]:
        """Enumerate dictionary terms in sorted order, range by range —
        never touches postings blobs (fuzzy and suffix expansion go
        through this)."""
        for _tmin, _tmax, load_terms in self.dict_ranges():
            yield from load_terms()

    def _terms_between(self, lo: str, hi: str) -> list[str]:
        """All dictionary terms in [lo, hi], sorted, loading only the
        dictionary ranges whose [term_min, term_max] overlaps it."""
        out: list[str] = []
        for tmin, tmax, load_terms in self.dict_ranges():
            if tmax < lo or tmin > hi:
                continue
            terms = load_terms()
            out.extend(terms[bisect_left(terms, lo) : bisect_right(terms, hi)])
        return out  # disjoint sorted ranges => already sorted

    def expand_prefix(self, prefix: str, max_terms: int = 1024) -> list[str]:
        """Terms starting with ``prefix``, lexicographic, capped — the
        PrefixQuery TermsEnum seek (BlockTree intersect role). The cap
        keeps the lexicographically-first terms."""
        hit = self._terms_between(prefix, prefix + chr(0x10FFFF))
        return [t for t in hit if t.startswith(prefix)][:max_terms]

    def expand_range(self, lo: str, hi: str, max_terms: int = 1024) -> list[str]:
        """Inclusive sorted-dictionary range scan (TermRangeQuery role).
        The cap keeps the lexicographically-first terms."""
        return self._terms_between(lo, hi)[:max_terms]

    def expand_suffix(self, suffix: str, max_terms: int = 1024) -> list[str]:
        """Terms ENDING with ``suffix`` — the leading-wildcard seek of
        Solr's ReversedWildcardFilterFactory (solr/analysis/
        ReversedWildcardFilter.java: index reversed tokens so ``*foo``
        becomes a prefix seek on ``oof``). The reversed dictionary is
        derived lazily, once per open reader, from ``iter_terms()`` instead
        of indexing a second postings field (scoring reuses forward
        postings; only the TERM set is needed for MultiTermQuery rewrite);
        at 10^9-term dictionaries it would be persisted at merge next to
        the forward term shards. Result is forward-sorted."""
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
    """Open segment: one ``TermShard`` + mapped norms + stats, loaded once
    and queried many times (the open-IndexReader-leaf analogue)."""

    def __init__(self, seg_dir: str):
        super().__init__()
        self.dir = seg_dir
        with open(os.path.join(seg_dir, "meta.json")) as f:
            self.meta = json.load(f)
        self.shard = TermShard(read_term_shard(os.path.join(seg_dir, "terms.arrow")))
        self._norms = map_norms(os.path.join(seg_dir, "norms.u8"))
        self.doc_base = int(self.meta["doc_base"])
        self.n_docs = int(self.meta["n_docs"])
        self.max_doc = self.doc_base + len(self._norms)

    @property
    def sum_ttf(self) -> int:
        return int(self.meta["sum_ttf"])

    def norm_of(self, doc_ids: np.ndarray) -> np.ndarray:
        return self._norms[np.asarray(doc_ids, dtype=np.int64) - self.doc_base]

    def _shard_of(self, term: str) -> TermShard:
        return self.shard

    def dict_ranges(self) -> list[tuple[str, str, Callable[[], list[str]]]]:
        """The whole dictionary as one range spanning every string."""
        terms = self.shard.terms
        return [("", chr(0x10FFFF), lambda: terms)]
