"""Document deletion — IndexWriter.deleteDocuments(Term/Query) +
liveDocs (core/index/IndexWriter.java:1478; LeafReader.getLiveDocs).

Lucene marks deletions in a per-segment liveDocs bitset generation;
searches mask deleted docs out of every hit stream, while corpus stats
(docFreq, totalTermFreq, norms) keep counting them until a merge
rewrites the segment. This engine mirrors exactly that contract: the
deletion set is a sorted global doc_id parquet sidecar referenced from
the merged manifest (the new liveDocs "generation" replaces the old
atomically), `IndexSearcher._live` masks hits before top-k, and stats
are intentionally unchanged (documented pre-merge semantics). At
10^10+ docs the sidecar becomes a memory-mapped bitset like the norms
file (one byte per doc) — the manifest key is already a path, so only
the reader changes.

The engine's bulk build is immutable (SURVEY §2: no mutation API), so
deletions target a REPLICA or a post-build index, never the shared
build cache.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

__all__ = ["delete_by_term", "deleted_docs"]


def _merged_manifest_path(index_dir: str) -> str:
    return os.path.join(index_dir, "merged", "manifest.json")


def deleted_docs(index_dir: str) -> np.ndarray:
    """Current deletion set (sorted global doc ids; empty if none)."""
    with open(_merged_manifest_path(index_dir)) as f:
        m = json.load(f)
    p = m.get("deletes")
    if not p or not os.path.exists(p):
        return np.empty(0, dtype=np.int64)
    return (
        pq.read_table(p, columns=["doc_id"]).column("doc_id").to_numpy()
        .astype(np.int64)
    )


def delete_by_term(index_dir: str, term: str, field: str = "body") -> int:
    """deleteDocuments(new Term(field, term)): mark every doc containing
    the term as deleted. Returns the TOTAL deleted count after the
    operation (idempotent — re-deleting is a no-op union)."""
    from .checkpoint import load_merge_manifest
    from .search import IndexSearcher

    mpath = _merged_manifest_path(index_dir)
    with open(mpath) as f:
        manifest = json.load(f)
    searcher = IndexSearcher(load_merge_manifest(index_dir))
    segs = searcher.segments if field == "body" else searcher.fields[field][0]
    hit = [seg.postings(term)[0] for seg in segs]
    new = np.concatenate(hit) if hit else np.empty(0, dtype=np.int64)
    merged = np.union1d(deleted_docs(index_dir), new)
    import hashlib

    gen = hashlib.md5(merged.tobytes()).hexdigest()[:12]
    gen_path = os.path.join(index_dir, "merged", f"deletes-{gen}.parquet")
    tmp = gen_path + ".tmp"
    pq.write_table(
        pa.table({"doc_id": pa.array(merged, type=pa.int64())}), tmp
    )
    os.replace(tmp, gen_path)
    manifest["deletes"] = gen_path
    mtmp = mpath + ".tmp"
    with open(mtmp, "w") as f:
        json.dump(manifest, f)
    os.replace(mtmp, mpath)
    return int(len(merged))


def delete_by_query(index_dir: str, query: str) -> int:
    """IndexWriter.deleteDocuments(Query...) (index/IndexWriter.java
    deleteDocuments(Query) overload): evaluate the query EXHAUSTIVELY
    (k = doc_count, scores irrelevant — the reference materializes the
    query's DocIdSetIterator per segment) and union every match into
    the liveDocs deletion set. Same write-once generation file +
    manifest swap as delete_by_term; idempotent. Returns the total
    deleted count after the operation.

    Matches against the CURRENT live set (a doc already deleted stays
    deleted; the query itself is masked by existing liveDocs exactly as
    a reader-based delete would be)."""
    from .checkpoint import load_merge_manifest
    from .search import IndexSearcher

    mpath = _merged_manifest_path(index_dir)
    with open(mpath) as f:
        manifest = json.load(f)
    searcher = IndexSearcher(load_merge_manifest(index_dir))
    docs, _scores = searcher.search(query, k=searcher.doc_count)
    merged = np.union1d(deleted_docs(index_dir), np.asarray(docs, dtype=np.int64))
    import hashlib

    gen = hashlib.md5(merged.tobytes()).hexdigest()[:12]
    gen_path = os.path.join(index_dir, "merged", f"deletes-{gen}.parquet")
    tmp = gen_path + ".tmp"
    pq.write_table(pa.table({"doc_id": pa.array(merged, type=pa.int64())}), tmp)
    os.replace(tmp, gen_path)
    manifest["deletes"] = gen_path
    mtmp = mpath + ".tmp"
    with open(mtmp, "w") as f:
        json.dump(manifest, f)
    os.replace(mtmp, mpath)
    return int(len(merged))
