"""Classification — the lucene/classification module re-expressed on
Ray Data.

- SimpleNaiveBayesClassifier (classification/SimpleNaiveBayesClassifier
  .java:142-268): class scores are
  ``ln(docFreq(c)) - ln(N_classed)`` (calculateLogPrior :266-268) plus,
  per TOKEN OCCURRENCE of the input text (:203-206 loops the tokenized
  array, repeats included),
  ``ln((hits(w, c) + 1) / (avgUniqueTermsPerDoc * docFreq(c) + N_classed))``
  where hits(w, c) is the number of docs of class c containing w
  (getWordFreqForClass :250-264 — a DOC count, not a term frequency) and
  avgUniqueTermsPerDoc = sumDocFreq / docCount of the text field
  (getTextTermFreqForClass :231-240). The assigned class is the first
  strict maximum over classes in term (sorted) order.
- KNearestNeighborClassifier (KNearestNeighborClassifier.java:124-225):
  an MLT query retrieves the top-k neighbors; per class,
  score = (sum of score_i / maxScore) / k, scaled by k / sumdoc when
  fewer than k neighbors returned (buildListFromTopDocs "correction").
  The reference iterates a HashMap (unspecified order) for the argmax;
  we iterate classes sorted (documented deterministic deviation — only
  observable on exact score ties).

Ray shape: TRAINING is a streamed pass over the labeled table —
tokenize-to-unique inside ``map_batches`` (each doc contributes its
distinct terms, so a per-batch Arrow group-count is already a distinct
doc count) followed by a small ``groupby(class, term).sum`` — the model
(vocab x classes) is the only thing collected. CLASSIFICATION is
batch inference in ``rayenv.ProcessStage`` tasks: the model ships once
per stage, documents stream through zero-copy Arrow batches.
"""

from __future__ import annotations

import math
import os
from collections import Counter

import numpy as np
import pyarrow as pa

from .analyze import DEFAULT_ANALYZER, Analyzer, tokenize

__all__ = [
    "nb_train",
    "nb_score_doc",
    "NBClassifierStage",
    "nb_classify_dataset",
    "knn_vote",
]


def _rargs():
    from .rayenv import remote_args

    return remote_args()


def _hits_partial(class_col: str, analyzer: Analyzer):
    def fn(batch: pa.Table) -> pa.Table:
        classes = batch.column(class_col).to_pylist()
        texts = batch.column("text").to_pylist()
        out_c, out_t = [], []
        for cls, text in zip(classes, texts):
            for t in set(tokenize(text or "", analyzer)):
                out_c.append(cls)
                out_t.append(t)
        t = pa.table(
            {
                "class": pa.array(out_c, type=pa.string()),
                "term": pa.array(out_t, type=pa.string()),
            }
        )
        # per-batch partial: docs contribute DISTINCT terms, so this
        # count is a doc count; the downstream groupby sums partials
        g = t.group_by(["class", "term"]).aggregate([([], "count_all")])
        return g.rename_columns(["class", "term", "hits"])

    return fn


def _class_stats_partial(class_col: str, analyzer: Analyzer):
    def fn(batch: pa.Table) -> pa.Table:
        classes = batch.column(class_col).to_pylist()
        texts = batch.column("text").to_pylist()
        agg: dict[str, list[int]] = {}
        for cls, text in zip(classes, texts):
            n_uniq = len(set(tokenize(text or "", analyzer)))
            a = agg.setdefault(cls, [0, 0])
            a[0] += 1
            a[1] += n_uniq
        return pa.table(
            {
                "class": pa.array(sorted(agg), type=pa.string()),
                "docs": pa.array(
                    [agg[c][0] for c in sorted(agg)], type=pa.int64()
                ),
                "uniq_pairs": pa.array(
                    [agg[c][1] for c in sorted(agg)], type=pa.int64()
                ),
            }
        )

    return fn


def nb_train(
    sf_dir: str,
    class_col: str = "lang",
    analyzer: Analyzer = DEFAULT_ANALYZER,
    min_hits: int = 1,
    max_features: int | None = None,
) -> dict:
    """Train the NB model from the labeled documents table in two
    streamed passes (hits per (class, term); per-class doc counts +
    unique-pair totals). Returns the model dict.

    The collected model is BOUNDED: ``min_hits`` drops (class, term)
    rows below a doc-frequency floor inside the streamed aggregate, and
    ``max_features`` keeps only the top-N terms by total hits (term-asc
    tie) via per-batch partial top-N — at web scale (10^9-term
    vocabulary) set one of these so the driver never materializes the
    full vocab x classes table. Defaults keep every feature (the
    sf-scale oracle semantics). Dropped features score as unseen
    (hits=0 -> +1 smoothing), exactly how the reference treats any
    out-of-model word."""
    import ray.data
    from ray.data.aggregate import Sum

    from .rayenv import read_parquet_clean

    path = os.path.join(sf_dir, "documents.parquet")
    ds = read_parquet_clean(path, columns=["text", class_col])

    hits_ds = (
        ds.map_batches(
            _hits_partial(class_col, analyzer),
            batch_format="pyarrow",
            **_rargs(),
        )
        .groupby(["class", "term"])
        .aggregate(Sum("hits", alias_name="hits"))
    )
    if min_hits > 1:
        hits_ds = hits_ds.map_batches(
            lambda b: b.filter(
                pa.compute.greater_equal(b.column("hits"), min_hits)
            ),
            batch_format="pyarrow",
            **_rargs(),
        )
    if max_features is not None:
        # distributed feature selection: per-term total hits -> partial
        # top-N per batch -> driver-small final top-N -> semi-join filter
        term_tot = (
            hits_ds.select_columns(["term", "hits"])
            .groupby("term")
            .aggregate(Sum("hits", alias_name="tot"))
        )

        def _partial_top(b: pa.Table) -> pa.Table:
            df = b.to_pandas().sort_values(
                ["tot", "term"], ascending=[False, True]
            )
            return pa.Table.from_pandas(
                df.head(max_features), preserve_index=False
            )

        top = (
            term_tot.map_batches(_partial_top, batch_format="pyarrow", **_rargs())
            .to_pandas()
            .sort_values(["tot", "term"], ascending=[False, True])
            .head(max_features)
        )
        keep = pa.array(sorted(top["term"]), type=pa.string())
        hits_ds = hits_ds.map_batches(
            lambda b: b.filter(
                pa.compute.is_in(b.column("term"), value_set=keep)
            ),
            batch_format="pyarrow",
            **_rargs(),
        )
    hits_tbl = hits_ds.to_pandas()
    stats = (
        ds.map_batches(
            _class_stats_partial(class_col, analyzer),
            batch_format="pyarrow",
            **_rargs(),
        )
        .groupby("class")
        .aggregate(Sum("docs", alias_name="docs"), Sum("uniq_pairs", alias_name="uniq_pairs"))
        .to_pandas()
    )
    classes = dict(zip(stats["class"], (int(x) for x in stats["docs"])))
    n_classed = sum(classes.values())
    total_uniq = int(stats["uniq_pairs"].sum())
    # sumDocFreq / docCount of the text field (every doc has text)
    avg_uniq = total_uniq / n_classed
    hits = {
        (t, c): int(h)
        for c, t, h in zip(hits_tbl["class"], hits_tbl["term"], hits_tbl["hits"])
    }
    return {
        "classes": classes,
        "hits": hits,
        "avg_uniq": avg_uniq,
        "n_classed": n_classed,
    }


def nb_score_doc(model: dict, tokens: list[str]) -> tuple[str, float]:
    """(assigned_class, log score) for one tokenized doc — first strict
    max over sorted classes (SimpleNaiveBayesClassifier.java:142-151)."""
    hits = model["hits"]
    n_classed = model["n_classed"]
    best_c, best_s = None, -math.inf
    for c in sorted(model["classes"]):
        df_c = model["classes"][c]
        prior = math.log(df_c) - math.log(n_classed)
        den = model["avg_uniq"] * df_c + n_classed
        s = prior
        for w in tokens:  # every occurrence, in doc order (:203-206)
            s += math.log((hits.get((w, c), 0) + 1) / den)
        if s > best_s:
            best_c, best_s = c, s
    return best_c, best_s


class NBClassifierStage:
    """Inference stage (run as ``rayenv.ProcessStage`` tasks): the model
    ships once per stage, document batches stream through."""

    def __init__(self, model, analyzer: Analyzer = DEFAULT_ANALYZER):
        self.model = model
        self.analyzer = analyzer

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        preds = [
            nb_score_doc(self.model, tokenize(t or "", self.analyzer))[0]
            for t in texts
        ]
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "assigned_class": pa.array(preds, type=pa.string()),
            }
        )


def nb_classify_dataset(
    sf_dir: str,
    class_col: str = "lang",
    analyzer: Analyzer = DEFAULT_ANALYZER,
):
    """Train on the labeled table, then classify the same document
    stream (self-classification) — Dataset of (doc_id, assigned_class)."""
    import ray.data

    from .rayenv import ProcessStage

    model = nb_train(sf_dir, class_col, analyzer)
    from .rayenv import read_parquet_clean

    path = os.path.join(sf_dir, "documents.parquet")
    ds = read_parquet_clean(path, columns=["doc_id", "text"])
    return ds.map_batches(
        ProcessStage(NBClassifierStage, model, analyzer),
        batch_format="pyarrow",
        batch_size=256,
        **_rargs(),
    )


def knn_vote(
    scores: list[float], classes: list[str], k: int
) -> tuple[str | None, float]:
    """(assigned_class, score) from top-k neighbor (score, class) pairs —
    KNearestNeighborClassifier.buildListFromTopDocs: per class,
    sum(score_i / maxScore) / k, scaled by k / sumdoc when sumdoc < k;
    argmax over sorted classes (deterministic HashMap-order stand-in)."""
    if not scores:
        return None, 0.0
    max_score = scores[0]
    counts: Counter = Counter()
    boosts: dict[str, float] = {}
    for s, c in zip(scores, classes):
        counts[c] += 1
        boosts[c] = boosts.get(c, 0.0) + s / max_score
    sumdoc = sum(counts.values())
    best_c, best_s = None, -math.inf
    for c in sorted(counts):
        score = (counts[c] * (boosts[c] / counts[c])) / k
        if sumdoc < k:
            score = score * k / sumdoc
        if score > best_s:
            best_c, best_s = c, score
    return best_c, best_s


class KNNClassifierStage:
    """kNN classification stage (``rayenv.ProcessStage`` tasks): the
    searcher opens ONCE per worker process in ``__init__`` (same
    state-amortization shape as NB inference); example documents stream through as (doc_id, text)
    batches. Neighbor labels are fetched per batch with a doc_id-pushdown
    pruned read over the labeled table (bounded by batch_size x k ids —
    never a full table scan)."""

    def __init__(
        self,
        index_dir: str,
        labels_path: str,
        class_col: str = "lang",
        k: int = 10,
        max_query_terms: int = 10,
    ):
        from .checkpoint import load_merge_manifest
        from .search import IndexSearcher

        self.merge_manifest = load_merge_manifest(index_dir)
        self.searcher = IndexSearcher(self.merge_manifest)
        self.labels_path = labels_path
        self.class_col = class_col
        self.k = k
        self.max_query_terms = max_query_terms

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.dataset as pads

        from .mlt import select_like_terms

        doc_ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        neighbor_sets: dict[int, tuple[list[int], list[float]]] = {}
        need_ids: set[int] = set()
        for did, text in zip(doc_ids, texts):
            sel = select_like_terms(
                self.merge_manifest,
                text or "",
                max_query_terms=self.max_query_terms,
                min_term_freq=2,
                min_doc_freq=5,
            )
            if not sel:
                neighbor_sets[did] = ([], [])
                continue
            q = " ".join(t for t, _tf, _df, _s in sel)
            docs, scores = self.searcher.search(q, self.k)
            neighbor_sets[did] = (docs.tolist(), scores.tolist())
            need_ids.update(docs.tolist())
        labels = (
            pads.dataset(self.labels_path)
            .to_table(
                columns=["doc_id", self.class_col],
                filter=pads.field("doc_id").isin(sorted(need_ids)),
            )
            .to_pandas()
            .set_index("doc_id")[self.class_col]
            .to_dict()
            if need_ids
            else {}
        )
        out_cls = []
        for did in doc_ids:
            docs, scores = neighbor_sets[did]
            cls, _ = knn_vote(scores, [labels[d] for d in docs], self.k)
            out_cls.append(cls if cls is not None else "")
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "assigned_class": pa.array(out_cls, type=pa.string()),
            }
        )


def knn_classify_docs(
    sf_dir: str,
    doc_ids: list[int],
    index_dir: str,
    k: int = 10,
    max_query_terms: int = 10,
    batch_size: int = 64,
) -> pa.Table:
    """kNN classification of example docs: MLT term selection -> BM25
    top-k neighbor search -> class vote, run as KNNClassifierStage tasks
    (examples stream as batches; the searcher opens once per worker
    process, ``rayenv.ProcessStage``). Example texts are fetched with a
    doc_id-pushdown pruned read."""
    import pyarrow.dataset as pads
    import ray.data

    src = os.path.join(sf_dir, "documents.parquet")
    from .rayenv import ProcessStage, read_parquet_clean

    examples = read_parquet_clean(
        src,
        columns=["doc_id", "text"],
        filter=pads.field("doc_id").isin(doc_ids),
    )
    out = examples.map_batches(
        ProcessStage(
            KNNClassifierStage,
            index_dir=index_dir,
            labels_path=src,
            class_col="lang",
            k=k,
            max_query_terms=max_query_terms,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
        **_rargs(),
    ).to_pandas()
    # restore the caller's example order (batches may complete out of
    # order); docs absent from the table classify as "" like before
    got = dict(zip(out["doc_id"], out["assigned_class"]))
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "assigned_class": pa.array(
                [got.get(d, "") for d in doc_ids], type=pa.string()
            ),
        }
    )
