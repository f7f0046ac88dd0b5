"""ray-fulltext: a Ray-Data-native inverted-index build + BM25 query engine.

From-scratch re-expression of the index-build and BM25 query core of
Lucene 8.7 (reference: HuBlanker/lucene-solr-8.7.0) on Ray Data:

- SPIMI per-partition inversion inside ``map_batches`` over zero-copy Arrow
  batches (reference concurrency unit: one in-RAM segment per indexing
  thread, lucene/core .../index/DocumentsWriterPerThreadPool.java:48-130).
- Lucene-equivalent segment structures: sorted term blocks, delta+FOR/VInt
  posting blocks of 128 docs (codecs/lucene84/ForUtil.java:39), block-max
  impact data (codecs/CompetitiveImpactAccumulator.java:33-144), 1-byte
  per-doc norms (codecs/lucene80/Lucene80NormsFormat.java:30-78).
- groupby-term merge shuffle with explicit salting for skewed stop-word
  terms (the reference merges segment-at-a-time sequentially:
  index/SegmentMerger.java:96-191; we shuffle by term instead).
- Block-max WAND top-k BM25 (search/WANDScorer.java:45-588,
  search/similarities/BM25Similarity.java:106-235) in stateless Ray tasks
  over a stateful searcher cached in each worker process and opened once
  per manifest, rank-identical to an exhaustive float32 oracle.
- Checkpoint/resume via per-partition lineage manifests (two-phase commit
  analogue of index/SegmentInfos.java:781-834 pending_segments_N rename).
"""

__version__ = "0.1.0"

__all__ = [
    "build_index",
    "merge_by_term",
    "IndexSearcher",
    "search_dataset",
    "search_dataset_sharded",
]


def __getattr__(name):  # lazy top-level API (avoids import cost at package load)
    if name == "build_index":
        from .build import build_index as f

        return f
    if name == "merge_by_term":
        from .merge import merge_by_term as f

        return f
    if name in ("IndexSearcher", "search_dataset", "search_dataset_sharded"):
        from . import search

        return getattr(search, name)
    raise AttributeError(name)
