"""MoreLikeThis — the lucene/queries MLT role
(queries/mlt/MoreLikeThis.java:142: analyze the example doc, score each
term tf * idf with ClassicSimilarity idf = log((docCount+1)/(docFreq+1))
+ 1 (similarities/ClassicSimilarity.java:61-63), keep the top
maxQueryTerms after the minTermFreq / minDocFreq / maxDocFreq gates
(MoreLikeThis.java:650-694 createQueue), then search them as a SHOULD
query).

Deviation (documented): the reference's PriorityQueue breaks score ties
by heap order; here ties break (score desc, term asc) so the selection
is deterministic and oracle-checkable.

Scale shape: the example doc's text arrives via a doc_id-pushdown read
of the row store (one doc, k row groups); term docFreqs come from a
(term, df) projection of the merged term shards with an isin filter
(the TermStates.build stats role). Nothing
scans the corpus; the follow-up search is the normal BM25 path.
"""

from __future__ import annotations

import math
from collections import Counter

import pyarrow as pa


def select_like_terms(
    merge_manifest: dict,
    text: str,
    *,
    max_query_terms: int = 25,
    min_term_freq: int = 2,
    min_doc_freq: int = 5,
    max_doc_freq: int | None = None,
) -> list[tuple[str, int, int, float]]:
    """[(term, tf, df, score)] for the top MLT terms of ``text``, ranked
    by (tf*idf desc, term asc). Terms failing the tf/df gates or absent
    from the index are dropped (docFreq == 0 can't contribute)."""
    import pyarrow.dataset as pads

    from .analyze import tokenize

    tf = Counter(tokenize(text or ""))
    if min_term_freq > 0:
        tf = {w: c for w, c in tf.items() if c >= min_term_freq}
    if not tf:
        return []
    shard_paths = [s["path"] for s in merge_manifest["shards"]]
    tbl = pads.dataset(shard_paths, format="ipc").to_table(
        columns=["term", "df"],
        filter=pads.field("term").isin(sorted(tf)),
    )
    doc_count = int(merge_manifest["doc_count"])
    scored = []
    for term, df in zip(tbl.column("term").to_pylist(), tbl.column("df").to_pylist()):
        df = int(df)
        if df < min_doc_freq:
            continue
        if max_doc_freq is not None and df > max_doc_freq:
            continue
        idf = math.log((doc_count + 1) / (df + 1)) + 1.0
        scored.append((-tf[term] * idf, term, tf[term], df))
    scored.sort()  # score desc, then term asc — the documented tie-break
    return [(t, c, df, -neg) for neg, t, c, df in scored[:max_query_terms]]


def mlt_terms_table(merge_manifest: dict, text: str, doc_id: int, **kw) -> pa.Table:
    """The selection as an integer-exact driver table: (doc_id, rank,
    term, tf, df) — the float score orders but is never emitted, so the
    SQL oracle (same formula in DuckDB doubles) hashes identically."""
    sel = select_like_terms(merge_manifest, text, **kw)
    return pa.table(
        {
            "doc_id": pa.array([doc_id] * len(sel), type=pa.int64()),
            "rank": pa.array(range(len(sel)), type=pa.int64()),
            "term": pa.array([s[0] for s in sel], type=pa.string()),
            "tf": pa.array([s[1] for s in sel], type=pa.int64()),
            "df": pa.array([s[2] for s in sel], type=pa.int64()),
        }
    )
