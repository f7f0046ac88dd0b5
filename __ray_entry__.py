"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship pipeline (pages fixture → extract → SPIMI
invert → salted groupby-term merge → BM25 search tasks) at sf0.001.
``queries()`` exposes one entry per implemented operator family from
SURVEY.md §2 (+ the training-data extras) — 119 entries as of round 3;
``oracle_sql()`` gives DuckDB equivalents where SQL can express the
semantics (105 exact oracles) — index-derived entries (term stats, title
field stats, norms via the embedded SmallFloat byte4 table, token
counts, phrase/sloppy matching via position self-joins, nested boolean
set algebra, DV facets/sort, keep-latest dedup) are thereby checked
*end-to-end* against a raw recomputation from documents.text.

Ray is initialised by the driver BEFORE this module is imported; nothing
here (or in engine/) calls ray.init()/ray.shutdown().
"""

from __future__ import annotations

import os

import pyarrow as pa

from engine.rayenv import ProcessStage
from engine.rayenv import remote_args as _rargs
from collections.abc import Callable
from typing import Any

# the analyzer's documented token rule, verbatim for DuckDB
_TOK = "regexp_extract_all(lower(text), '[a-z0-9]+')"


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: build + merge + search;
    returns the reference-query hit table (query_id, rank, doc_id, score)."""
    from engine.pipelines import bm25_search_results

    res = bm25_search_results("/root/testdata/sf0.001")
    return res.to_pandas()


def queries() -> dict[str, Callable[[str], Any]]:
    from engine import ann, dedup, pipelines, relational, textops

    def _docs(sf_dir):
        import ray.data

        return ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "text"]
        )

    def _emb(sf_dir):
        import ray.data

        return ray.data.read_parquet(os.path.join(sf_dir, "embeddings.parquet"))

    def _query_vectors(sf_dir, n=10):
        import numpy as np
        import pyarrow.parquet as pq

        t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"))
        df = t.to_pandas()
        df = df[df["vec_id"] < n].sort_values("vec_id")
        return np.stack(df["embedding"].to_numpy()), df["vec_id"].to_numpy()

    def q_quality_features(sf_dir):
        return _docs(sf_dir).map_batches(
            textops.quality_features_batch, batch_format="pyarrow", **_rargs()
        )

    def q_fingerprint(sf_dir):
        return _docs(sf_dir).map_batches(textops.fingerprint_batch, batch_format="pyarrow", **_rargs())

    def q_token_count_docs(sf_dir):
        return _docs(sf_dir).map_batches(textops.token_count_batch, batch_format="pyarrow", **_rargs())

    def q_token_count_bpe(sf_dir):
        return _docs(sf_dir).map_batches(
            textops.bpe_token_count_batch, batch_format="pyarrow", **_rargs()
        )

    def q_token_pack(sf_dir):
        return textops.pack_sequences(_docs(sf_dir), budget=512, chunk=64)

    def q_chunk_sliding(sf_dir):
        return textops.chunk_sliding(_docs(sf_dir), window=64, stride=32)

    def q_dup_span(sf_dir):
        from engine import dedup

        return dedup.dup_span_stats(_docs(sf_dir), window=16)

    def q_bloom_new(sf_dir):
        import ray.data
        from engine import dedup

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "source"]
        )
        return dedup.bloom_new_keys(ds, m_bits=4096)

    def q_hll_vocab(sf_dir):
        return textops.hll_vocab_estimate(_docs(sf_dir), b=6)

    def q_pagerank(sf_dir):
        import pyarrow.parquet as _pq
        import ray.data
        from engine.graph import pagerank

        n = _pq.read_metadata(
            os.path.join(sf_dir, "documents.parquet")
        ).num_rows
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
        )
        return pagerank(ds, n_docs=n, n_iters=5)

    def q_bib_coupling(sf_dir):
        import pyarrow.parquet as _pq
        import ray.data
        from engine.graph import bib_coupling_pairs

        n = _pq.read_metadata(
            os.path.join(sf_dir, "documents.parquet")
        ).num_rows
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
        )
        return bib_coupling_pairs(ds, n_docs=n)

    def q_anchor_stats(sf_dir):
        import pyarrow.parquet as _pq
        from engine.graph import anchor_stats

        n = _pq.read_metadata(
            os.path.join(sf_dir, "documents.parquet")
        ).num_rows
        return anchor_stats(_docs(sf_dir), n_docs=n)

    def _doc_ids_n(sf_dir):
        import pyarrow.parquet as _pq
        import ray.data

        n = _pq.read_metadata(
            os.path.join(sf_dir, "documents.parquet")
        ).num_rows
        return (
            ray.data.read_parquet(
                os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
            ),
            n,
        )

    def q_co_citation(sf_dir):
        from engine.graph import co_citation_pairs

        ds, n = _doc_ids_n(sf_dir)
        return co_citation_pairs(ds, n_docs=n)

    def q_hits(sf_dir):
        from engine.graph import hits_scores

        ds, n = _doc_ids_n(sf_dir)
        return hits_scores(ds, n_docs=n, n_iters=2)

    def q_bfs_hops(sf_dir):
        from engine.graph import bfs_hops

        ds, n = _doc_ids_n(sf_dir)
        return bfs_hops(ds, n_docs=n, source=0, max_depth=4)

    def q_degree_hist(sf_dir):
        from engine.graph import degree_histogram

        ds, n = _doc_ids_n(sf_dir)
        return degree_histogram(ds, n_docs=n)

    def q_ppr(sf_dir):
        from engine.graph import personalized_pagerank

        ds, n = _doc_ids_n(sf_dir)
        return personalized_pagerank(ds, n_docs=n, seed=0, n_iters=5)

    def q_adamic_adar(sf_dir):
        from engine.graph import adamic_adar_pairs

        ds, n = _doc_ids_n(sf_dir)
        return adamic_adar_pairs(ds, n_docs=n)

    def q_resumable_sink(sf_dir):
        import shutil

        import ray.data

        tag = os.path.basename(os.path.normpath(sf_dir))
        out = os.path.join("/tmp/rayfts-cache", f"sink-{tag}")
        shutil.rmtree(out, ignore_errors=True)  # fresh: statuses deterministic
        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "n_chars"],
        )
        return textops.resumable_write_parquet(ds, out, n_buckets=8)

    def q_quantile_trim(sf_dir):
        import ray.data

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"),
            columns=["doc_id", "n_chars"],
        )
        return textops.quantile_trim(ds, 0.05, 0.99)

    def q_doclen_quantiles(sf_dir):
        import ray.data

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["n_chars"]
        )
        return textops.doclen_quantiles(ds, (0.5, 0.9, 0.99))

    def q_cms_terms(sf_dir):
        return textops.cms_term_counts(
            _docs(sf_dir), ("the", "data", "join", "zzmissing"), d=4, w=512
        )

    def q_domain_mix(sf_dir):
        import ray.data

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id", "source"]
        )
        return textops.domain_mix_sample(
            ds, {"src0": 1000, "src1": 500, "src2": 250, "src3": 0}, 100
        )

    def q_epoch_shuffle(sf_dir):
        import ray.data

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
        )
        return textops.epoch_shuffle(ds, seed=1)

    def q_shingle_top50(sf_dir):
        return textops.shingle_top_counts(_docs(sf_dir), size=2, k=50)

    def q_stemmed_top_terms(sf_dir):
        return textops.stemmed_top_terms(_docs(sf_dir), k=100)

    def q_edge_ngram_top100(sf_dir):
        return textops.gram_top_counts(
            _docs(sf_dir), kind="edge", k=100, min_gram=2, max_gram=4
        )

    def q_ngram_top100(sf_dir):
        return textops.gram_top_counts(
            _docs(sf_dir), kind="all", k=100, min_gram=3, max_gram=3
        )

    def q_soundex_groups(sf_dir):
        return textops.soundex_term_groups(_docs(sf_dir), k=50)

    def q_quality_scores(sf_dir):
        return _docs(sf_dir).map_batches(ProcessStage(textops.QualityScorer), batch_format="pyarrow", **_rargs())

    def q_langid(sf_dir):
        return _docs(sf_dir).map_batches(ProcessStage(textops.LangId), batch_format="pyarrow", **_rargs())

    def q_rolling_fp(sf_dir):
        # exploded (doc_id, rank, fp) rows so the winnowing fingerprints
        # compare exactly (list columns repr differently across engines)
        return _docs(sf_dir).map_batches(
            textops.rolling_fingerprint_rows_batch, batch_format="pyarrow", **_rargs()
        )

    def q_exact_dedup(sf_dir):
        return dedup.exact_dedup(_docs(sf_dir))

    def q_url_canon(sf_dir):
        """URL canonicalization over the pages fixture's urls with a
        deterministic tracking-param/fragment soup appended; the oracle
        rebuilds the injected url from doc_id and replays the transform."""
        import ray.data

        from engine.pipelines import get_index

        idx = get_index(sf_dir)
        pages_dir = os.path.dirname(idx["index_dir"]) + "/pages"
        ds = ray.data.read_parquet(pages_dir, columns=["doc_id", "url"])

        def inject(b):
            did = b.column("doc_id").to_numpy()
            urls = b.column("url").to_pylist()
            out = [
                f"{u}?utm_source=s{d % 7}&id={d}&gclid=g{d}#sec{d % 3}"
                for d, u in zip(did.tolist(), urls)
            ]
            return pa.table(
                {"doc_id": b.column("doc_id"), "url": pa.array(out, type=pa.string())}
            )

        return ds.map_batches(inject, batch_format="pyarrow", **_rargs()).map_batches(
            textops.canonicalize_url_batch, batch_format="pyarrow", **_rargs()
        )

    def q_pii_scrub(sf_dir):
        """PII redaction over a deterministic injection: doc_id-derived
        synthetic email/IPv4/phone strings are appended (the fixture corpus
        has none), then scrubbed; the oracle replays both steps with the
        identical RE2 patterns in the identical order."""

        def inject(b):
            did = b.column("doc_id").to_numpy()
            texts = b.column("text").to_pylist()
            out = []
            for d, t in zip(did.tolist(), texts):
                s = t or ""
                if d % 3 == 0:
                    s += f" contact{d}@mail.example"
                if d % 5 == 0:
                    s += f" 10.{d % 256}.0.1"
                if d % 7 == 0:
                    s += f" 555-{d % 10000:04d}"
                out.append(s)
            return pa.table(
                {"doc_id": b.column("doc_id"), "text": pa.array(out, type=pa.string())}
            )

        return (
            _docs(sf_dir)
            .map_batches(inject, batch_format="pyarrow", **_rargs())
            .map_batches(textops.pii_scrub_batch, batch_format="pyarrow", **_rargs())
        )

    def q_gopher_repetition(sf_dir):
        return _docs(sf_dir).map_batches(
            textops.gopher_repetition_batch, batch_format="pyarrow", **_rargs()
        )

    def q_line_dedup(sf_dir):
        return dedup.line_dedup_stats(_docs(sf_dir), chunk_tokens=3)

    def q_decontaminate(sf_dir):
        """Benchmark decontamination: train docs sharing any token 4-gram
        with the held-out eval split (doc_id % 37 == 0). Real pipelines use
        8-13-grams (GPT-3 appendix C); the synthetic corpus's small
        vocabulary makes 4 the equivalent selectivity."""
        return dedup.decontaminate_ngrams(_docs(sf_dir), n=4, eval_stride=37)

    def q_dsir(sf_dir):
        """DSIR importance resampling (Xie et al. 2023): hashed
        bag-of-tokens target/raw models, fixed-point int64 log-ratio
        weights (order-free integer per-doc sums), deterministic top-200
        raw docs by weight. Target split = doc_id % 37 == 0 (same
        held-out convention as decontaminate_ngrams)."""
        return textops.dsir_select(
            _docs(sf_dir), n_buckets=512, target_stride=37, top_k=200
        )

    def q_dsir_gumbel(sf_dir):
        """DSIR with the paper's actual Gumbel-top-k resampling (sampling
        w/o replacement with prob proportional to the importance weight):
        key = score/2^20 + seeded hash-derived Gumbel(0,1) noise — every
        f64 op (exact power-of-2 uniform, two scalar lns, one add)
        replays bit-for-bit in SQL."""
        return textops.dsir_select(
            _docs(sf_dir),
            n_buckets=512,
            target_stride=37,
            top_k=200,
            gumbel_seed=1,
        )

    def q_host_stats(sf_dir):
        """Per-host page stats over the pages fixture (url, text); hosts are
        doc_id-derived (engine/fixtures.py:85), so the oracle recomputes
        exactly from documents."""
        import ray.data

        from engine.pipelines import get_index

        idx = get_index(sf_dir)
        pages_dir = os.path.dirname(idx["index_dir"]) + "/pages"
        ds = ray.data.read_parquet(pages_dir, columns=["url", "text"])
        return textops.host_page_stats(ds)

    def q_minhash(sf_dir):
        # source_path => the verify stage re-reads candidate texts by
        # doc_id pushdown instead of broadcasting the whole text column
        return dedup.minhash_lsh_dedup(
            _docs(sf_dir),
            threshold=0.7,
            source_path=os.path.join(sf_dir, "documents.parquet"),
        )

    def q_near_dup_clusters(sf_dir):
        # pairs -> connected components -> (doc_id, cluster_id = min of
        # component): the keep-one-per-cluster rule after LSH verification
        pairs = dedup.minhash_lsh_dedup(
            _docs(sf_dir),
            threshold=0.7,
            source_path=os.path.join(sf_dir, "documents.parquet"),
        )
        return dedup.near_dup_clusters(pairs)

    def q_near_dup_keep_best(sf_dir):
        # same verified-pair input as near_dup_clusters, winner = max
        # quality per component (ties min doc_id)
        pairs = dedup.minhash_lsh_dedup(
            _docs(sf_dir),
            threshold=0.7,
            source_path=os.path.join(sf_dir, "documents.parquet"),
        )
        quality_ds = _docs(sf_dir).map_batches(ProcessStage(textops.QualityScorer), batch_format="pyarrow", **_rargs())
        return dedup.near_dup_keep_best(pairs, quality_ds)

    def q_simhash(sf_dir):
        return _docs(sf_dir).map_batches(dedup.simhash_batch, batch_format="pyarrow", **_rargs())

    def q_simhash_pairs(sf_dir):
        return dedup.simhash_near_dups(_docs(sf_dir), max_hamming=3)

    def q_ann_brute(sf_dir):
        qv, qids = _query_vectors(sf_dir)
        res = ann.brute_force_topk_ds(_emb(sf_dir), qv, qids, k=10)
        return res.select_columns(["query_id", "rank", "neighbor_id"])

    def q_ann_ivf(sf_dir):
        # persisted IVF artifact (centroids + bucket-partitioned parquet);
        # queries read only their probed buckets' files
        qv, qids = _query_vectors(sf_dir)
        tag = os.path.basename(os.path.normpath(sf_dir))
        man = ann.build_ivf_index(
            _emb(sf_dir), os.path.join("/tmp/rayfts-cache", f"ivf-{tag}")
        )
        return ann.ivf_topk_from_index(man, qv, qids, k=10)

    def q_emb_neardup(sf_dir):
        return ann.embedding_near_dups(_emb(sf_dir), threshold=0.95)

    def q_kmeans(sf_dir):
        return ann.kmeans_clusters(_emb(sf_dir), k=8, iters=2)

    def q_cluster_sample(sf_dir):
        return ann.cluster_balanced_sample(_emb(sf_dir), k=8, iters=2, per_cluster=16)

    def q_cluster_purity(sf_dir):
        return ann.cluster_purity(_emb(sf_dir), k=8, iters=2)

    def q_semdedup(sf_dir):
        return ann.semdedup(_emb(sf_dir), k=8, iters=2, tau=0.3)

    def q_mmr(sf_dir):
        qv, _ = _query_vectors(sf_dir, n=1)
        return ann.mmr_rerank(_emb(sf_dir), qv[0], n_candidates=25, k=10, lam=0.75)

    def q_dedup_by_url(sf_dir):
        """Keep-latest dedup over a deterministic recrawl: the pages table
        unioned with a copy shifted by (doc_id + n, warc_ts + 1000 s) at
        the SAME urls — every url has exactly two rows and the newer one
        must win. Output is SQL-derivable from documents (url and warc_ts
        are doc_id-determined, engine/fixtures.py:81-82), so this entry is
        exactly oracle-checked; warc_ts emits as BIGINT epoch seconds for
        dtype-stable comparison."""
        import pyarrow.compute as pc
        import ray.data

        from engine.pipelines import get_index

        idx = get_index(sf_dir)
        n = int(idx["build_manifest"]["doc_count"])
        pages_dir = os.path.dirname(idx["index_dir"]) + "/pages"
        ds = ray.data.read_parquet(pages_dir, columns=["doc_id", "url", "warc_ts"])

        def recrawl(b):
            return pa.table(
                {
                    "doc_id": pc.add(b.column("doc_id"), n),
                    "url": b.column("url"),
                    "warc_ts": pc.add(
                        b.column("warc_ts").cast(pa.int64()), 1_000_000
                    ).cast(pa.timestamp("ms")),
                }
            )

        both = ds.union(ds.map_batches(recrawl, batch_format="pyarrow", **_rargs()))
        from engine.dedup import dedup_pages_by_url

        out = dedup_pages_by_url(both)

        def finish(b):
            return pa.table(
                {
                    "doc_id": b.column("doc_id"),
                    "url": b.column("url"),
                    "warc_ts_s": pc.divide(
                        b.column("warc_ts").cast(pa.int64()), 1000
                    ),
                }
            )

        return out.map_batches(finish, batch_format="pyarrow", **_rargs())

    def q_ngram_jaccard(sf_dir):
        """Exact n-gram Jaccard self-join (AllPairs prefix filtering,
        Bayardo WWW'07) over a deterministic near-dup corpus: documents
        unioned with a copy at (doc_id + n) whose text gains three
        appended tokens — every >=3-token doc pairs with its copy at
        J = n_sh/(n_sh+3) >= 1/2. The union is materialized once under
        /tmp so the verify stage re-reads candidate texts by doc_id
        pushdown (no text broadcast); output (doc_a, doc_b, n_inter,
        n_union) is integer-exact against a DuckDB shingle self-join."""
        import pyarrow.compute as pc
        import pyarrow.parquet as pq
        import ray.data

        src = os.path.join(sf_dir, "documents.parquet")
        n = pq.read_metadata(src).num_rows
        tag = os.path.basename(os.path.normpath(sf_dir))
        out_dir = os.path.join("/tmp/rayfts-cache", f"ngramdocs-{tag}-{n}")
        done = os.path.join(out_dir, "_DONE")
        if not os.path.exists(done):
            import shutil

            shutil.rmtree(out_dir, ignore_errors=True)
            ds = ray.data.read_parquet(src, columns=["doc_id", "text"])

            def recopy(b):
                return pa.table(
                    {
                        "doc_id": pc.add(b.column("doc_id"), n),
                        "text": pc.binary_join_element_wise(
                            b.column("text"), " qq0 qq1 qq2", ""
                        ),
                    }
                )

            both = ds.union(ds.map_batches(recopy, batch_format="pyarrow", **_rargs()))
            both.write_parquet(out_dir)
            with open(done, "w") as f:
                f.write("ok")
        full = ray.data.read_parquet(out_dir, columns=["doc_id", "text"])
        return dedup.ngram_jaccard_join(full, threshold=0.5, k=3, source_path=out_dir)

    def q_customers_without_orders(sf_dir):
        import pandas as pd

        df = relational.customers_without_orders(sf_dir).to_pandas()
        if df.empty:
            # Ray drops the schema of an all-empty dataset; restore the
            # typed empty frame so the driver's column check holds
            df = pd.DataFrame({"custkey": pd.Series([], dtype="int64")})
        return df

    def q_audio_frames(sf_dir):
        import ray.data

        from engine.multimodal import AudioFrameSampler, synth_media_payloads

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
        )
        return synth_media_payloads(ds).map_batches(
            ProcessStage(AudioFrameSampler), batch_format="pyarrow", batch_size=64, **_rargs()
        )

    def q_video_frames(sf_dir):
        import ray.data

        from engine.multimodal import VideoFrameSampler, synth_media_payloads

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
        )
        return synth_media_payloads(ds).map_batches(
            ProcessStage(VideoFrameSampler), batch_format="pyarrow", batch_size=64, **_rargs()
        )

    def q_image_embed_ann(sf_dir):
        """Multimodal -> similarity integration: synth image payloads ->
        ImageEmbedder tasks (a deterministic stub encoder, one per worker
        process; real plumbing) -> brute-force cosine top-10 of the first 10 images
        against the corpus. Rank-only output; the oracle reconstructs the
        integer-derived vectors and ranks by DuckDB cosine."""
        import numpy as np
        import ray.data

        from engine import ann
        from engine.multimodal import ImageEmbedder, synth_image_payloads

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
        )
        emb = synth_image_payloads(ds).map_batches(
            ProcessStage(ImageEmbedder), batch_format="pyarrow", batch_size=128, **_rargs()
        )
        qids = np.arange(10, dtype=np.int64)
        qv = ImageEmbedder()._encode(qids).astype(np.float32)
        res = ann.brute_force_topk_ds(emb, qv, qids, k=10)
        return res.select_columns(["query_id", "rank", "neighbor_id"])

    def q_image_meta(sf_dir):
        import ray.data

        from engine.multimodal import ImageMetaExtractor, synth_image_payloads

        ds = ray.data.read_parquet(
            os.path.join(sf_dir, "documents.parquet"), columns=["doc_id"]
        )
        return synth_image_payloads(ds).map_batches(
            ProcessStage(ImageMetaExtractor), batch_format="pyarrow", batch_size=64, **_rargs()
        )

    return {
        # --- inverted index / fulltext core (built end-to-end) ------------
        "term_df_ttf": pipelines.term_df_ttf,
        "title_term_df": pipelines.title_term_df,
        "bm25_title_topk": pipelines.bm25_title_topk,
        "phrase_slop_match_docs": pipelines.phrase_slop_match_docs,
        "span_near_match_docs": pipelines.span_near_match_docs,
        "span_unordered_match_docs": pipelines.span_unordered_match_docs,
        "span_first_match_docs": pipelines.span_first_match_docs,
        "span_not_match_docs": pipelines.span_not_match_docs,
        "span_containing_docs": pipelines.span_containing_match_docs,
        "span_within_docs": pipelines.span_within_match_docs,
        "span_or_near_docs": pipelines.span_or_near_match_docs,
        "span_near_topk": pipelines.span_near_topk,
        "percolate_matches": pipelines.percolate_matches,
        "nb_train_stats": pipelines.nb_train_stats,
        "nb_classify": pipelines.nb_classify,
        "knn_classify": pipelines.knn_classify,
        "drill_sideways": relational.drill_sideways_docs,
        "function_score_topk": pipelines.function_score_topk,
        "feature_field_topk": pipelines.feature_field_topk,
        "distance_feature_topk": pipelines.distance_feature_topk,
        "lmdirichlet_topk": pipelines.lmdirichlet_topk,
        "lmjelinek_topk": pipelines.lmjelinek_topk,
        "dfi_topk": pipelines.dfi_topk,
        "axiomatic_topk": pipelines.axiomatic_topk,
        "ib_topk": pipelines.ib_topk,
        "dfr_topk": pipelines.dfr_topk,
        "multi_sim_topk": pipelines.multi_sim_topk,
        "blended_term_topk": pipelines.blended_term_topk,
        "edismax_topk": pipelines.edismax_topk,
        "explain_scores": pipelines.explain_scores,
        "keyword_repeat_docs": pipelines.keyword_repeat_docs,
        "perfield_sim_topk": pipelines.perfield_sim_topk,
        "boolean_sim_topk": pipelines.boolean_sim_topk,
        "covering_query_topk": pipelines.covering_query_topk,
        "elevate_topk": pipelines.elevate_topk,
        "free_text_suggest": pipelines.free_text_suggest_body,
        "lm_doc_logprob": pipelines.lm_doc_logprob,
        "ccnet_buckets": pipelines.ccnet_buckets,
        "replica_bm25_topk": pipelines.replica_bm25_topk,
        "bm25_search_after_pages": pipelines.bm25_search_after_pages,
        "cursor_mark_sharded": pipelines.cursor_mark_sharded,
        "rerank_topk": pipelines.rerank_topk,
        "rrf_fusion_topk": pipelines.rrf_fusion_topk,
        "prf_expand_topk": pipelines.prf_expand_topk,
        "sorted_index_topk": pipelines.sorted_index_topk,
        "intervals_ordered_docs": pipelines.intervals_ordered_docs,
        "intervals_unordered_docs": pipelines.intervals_unordered_docs,
        "common_terms_match_docs": pipelines.common_terms_match_docs,
        "common_grams_docs": pipelines.common_grams_docs,
        "common_terms_topk": pipelines.common_terms_topk,
        "index_stats": pipelines.index_stats,
        "live_term_match_docs": pipelines.live_term_match_docs,
        "live_query_match_docs": pipelines.live_query_match_docs,
        "query_counts": pipelines.query_counts,
        "omit_norms_topk": pipelines.omit_norms_topk,
        "span_near_wildcard_docs": pipelines.span_near_wildcard_docs,
        "lmdirichlet_topk_sharded": pipelines.lmdirichlet_topk_sharded,
        "nrt_match_docs": pipelines.nrt_match_docs,
        "synonym_phrase_match_docs": pipelines.synonym_phrase_match_docs,
        "term_vector_doc": pipelines.term_vector_doc,
        "stats_component_nchars": pipelines.stats_component_nchars,
        "pivot_facet_docs": relational.pivot_facet_docs,
        "top100_terms": pipelines.top100_terms,
        "token_counts_extracted": pipelines.token_counts,
        "collection_stats": pipelines.collection_stats,
        "doc_norms": pipelines.doc_norms,
        "bm25_topk": pipelines.bm25_search_results,
        "bm25_snippets_passages": pipelines.bm25_snippets_passages,
        "bm25_scores_exact": pipelines.bm25_scores_exact,
        "ltr_rerank_topk": pipelines.ltr_rerank_topk,
        "bm25_bool_scores_exact": pipelines.bm25_bool_scores_exact,
        "bm25_phrase_scores_exact": pipelines.bm25_phrase_scores_exact,
        "phrase_match_docs": pipelines.phrase_match_docs,
        "leading_wildcard_docs": pipelines.leading_wildcard_docs,
        "multi_phrase_match_docs": pipelines.multi_phrase_match_docs,
        "join_util_docs": pipelines.join_util_docs,
        "payload_term_stats": pipelines.payload_term_stats,
        "terms_component": pipelines.terms_component,
        "sort_by_fields": pipelines.sort_by_fields,
        "dv_update_sort": pipelines.dv_update_sort,
        "group_heads_orders": relational.group_heads_orders,
        "join_util_topk": pipelines.join_util_topk,
        "bm25_bool_nested": pipelines.bool_nested_match_docs,
        "phrase_topk": pipelines.phrase_topk,
        "term_filter_sort_by_field": pipelines.term_filter_sort_by_field,
        "lang_facet_dv": pipelines.lang_facet_dv,
        "lang_stats_facet": pipelines.lang_stats_facet,
        "export_sorted_docs": pipelines.export_sorted_docs,
        "bm25_topk_sharded": pipelines.bm25_topk_sharded,
        "range_facet_nchars": pipelines.range_facet_nchars,
        "points_range_docs": pipelines.points_range_match_docs,
        "term_points_filter_docs": pipelines.term_points_filter_docs,
        "index_or_dv_filter_docs": pipelines.index_or_dv_filter_docs,
        "range_field_docs": pipelines.range_field_match_docs,
        "geo_box_docs": pipelines.geo_box_match_docs,
        "shape_box_docs": pipelines.shape_box_match_docs,
        "geo_heatmap_facet": pipelines.geo_heatmap_facet,
        "points_box_docs": pipelines.points2d_box_match_docs,
        "geo_distance_docs": pipelines.geo_distance_match_docs,
        "geo_polygon_docs": pipelines.geo_polygon_match_docs,
        "expression_score_topk": pipelines.expression_score_topk,
        "frange_docs": pipelines.frange_docs,
        "geo_nearest_k": pipelines.geo_nearest_k,
        "collapse_top_docs": relational.collapse_top_docs,
        "diversified_topk": relational.diversified_topk_docs,
        "spell_suggest": pipelines.spell_suggest_body,
        "spell_collation": pipelines.spell_collation,
        "more_like_this_terms": pipelines.more_like_this_terms,
        "more_like_this_topk": pipelines.more_like_this_topk,
        "mlt_like_text_topk": pipelines.mlt_like_text_topk,
        "prefix_complete": pipelines.prefix_complete_body,
        "infix_complete": pipelines.infix_complete_body,
        "fuzzy_complete": pipelines.fuzzy_complete_body,
        "word_breaks": pipelines.word_breaks_body,
        "block_join_orders": relational.block_join_top_orders,
        "bm25_snippets": pipelines.bm25_snippets,
        "bm25_snippets_offsets": pipelines.bm25_snippets_offsets,
        # --- text analysis ------------------------------------------------
        "token_counts_docs": q_token_count_docs,
        "token_counts_bpe": q_token_count_bpe,
        "token_pack_sequences": q_token_pack,
        "chunk_sliding": q_chunk_sliding,
        "dup_span_stats": q_dup_span,
        "domain_mix_sample": q_domain_mix,
        "epoch_shuffle": q_epoch_shuffle,
        "bloom_new_urls": q_bloom_new,
        "hll_vocab_estimate": q_hll_vocab,
        "cms_term_counts": q_cms_terms,
        "doclen_quantiles": q_doclen_quantiles,
        "quantile_trim": q_quantile_trim,
        "vocab_coverage": lambda sf_dir: textops.vocab_coverage(_docs(sf_dir)),
        "kwic_concordance": lambda sf_dir: textops.kwic_concordance(
            _docs(sf_dir), term="join", width=3
        ),
        "group_sample_hash": lambda sf_dir: textops.group_sample_hash(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "source"],
            ),
            per_group=16,
        ),
        "resumable_sink_manifest": q_resumable_sink,
        "pagerank": q_pagerank,
        "anchor_stats": q_anchor_stats,
        "bib_coupling_pairs": q_bib_coupling,
        "co_citation_pairs": q_co_citation,
        "adamic_adar_pairs": q_adamic_adar,
        "degree_histogram": q_degree_hist,
        "personalized_pagerank": q_ppr,
        "event_transitions": lambda sf_dir: relational.event_transitions(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "events.parquet"),
                columns=["user_id", "event_id", "ts", "event_type"],
            )
        ),
        "hits_scores": q_hits,
        "bfs_hops": q_bfs_hops,
        "word_delimiter_terms": pipelines.word_delimiter_terms,
        "shingle_top50": q_shingle_top50,
        "stemmed_top_terms": q_stemmed_top_terms,
        "edge_ngram_top100": q_edge_ngram_top100,
        "ngram_top100": q_ngram_top100,
        "soundex_groups": q_soundex_groups,
        "quality_features": q_quality_features,
        "quality_scores": q_quality_scores,
        "langid": q_langid,
        "fingerprint_md5": q_fingerprint,
        "fingerprint_rolling": q_rolling_fp,
        # --- dedup ---------------------------------------------------------
        "exact_dedup": q_exact_dedup,
        "pii_scrub": q_pii_scrub,
        "url_canonicalize": q_url_canon,
        "line_dedup_stats": q_line_dedup,
        "decontaminate_ngrams": q_decontaminate,
        "dsir_select": q_dsir,
        "dsir_gumbel_topk": q_dsir_gumbel,
        "gopher_repetition": q_gopher_repetition,
        "corpus_curation": pipelines.corpus_curation,
        "pmi_top_bigrams": lambda sf_dir: textops.pmi_top_bigrams(
            _docs(sf_dir), top_n=50
        ),
        "bpe_learn_merges": lambda sf_dir: textops.bpe_learn_merges(
            _docs(sf_dir), n_merges=4
        ),
        "winnow_fingerprints": lambda sf_dir: textops.winnow_fingerprints(
            _docs(sf_dir), k=4, w=5
        ),
        "cdc_chunks": lambda sf_dir: textops.cdc_chunks(
            _docs(sf_dir), window=8, mask_mod=64
        ),
        "char_entropy": lambda sf_dir: textops.char_entropy(_docs(sf_dir)),
        "df_histogram": lambda sf_dir: textops.df_histogram(_docs(sf_dir)),
        "balanced_shards": lambda sf_dir: textops.balanced_shards(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "n_chars"],
            ),
            n_shards=8,
        ),
        "lexical_diversity": lambda sf_dir: textops.lexical_diversity(
            _docs(sf_dir)
        ),
        "gazetteer_mentions": lambda sf_dir: textops.gazetteer_mentions(
            _docs(sf_dir)
        ),
        "kmv_intersection": lambda sf_dir: textops.kmv_intersection(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["source", "text"],
            ),
            src_a="src0",
            src_b="src1",
            k=64,
        ),
        "hll_by_source": lambda sf_dir: textops.hll_by_source(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["source", "text"],
            ),
            b=6,
        ),
        "source_vocab_jaccard": lambda sf_dir: textops.source_vocab_jaccard(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["source", "text"],
            )
        ),
        "train_val_test_split": lambda sf_dir: textops.train_val_test_split(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "documents.parquet"),
                columns=["doc_id", "source"],
            )
        ),
        "tfidf_keywords": lambda sf_dir: textops.tfidf_keywords(
            _docs(sf_dir),
            n_docs=__import__("pyarrow.parquet", fromlist=["x"]).read_metadata(
                os.path.join(sf_dir, "documents.parquet")
            ).num_rows,
            top_n=5,
        ),
        "host_doc_counts": q_host_stats,
        "minhash_lsh_pairs": q_minhash,
        "near_dup_clusters": q_near_dup_clusters,
        "near_dup_keep_best": q_near_dup_keep_best,
        "simhash64": q_simhash,
        "simhash_near_dup_pairs": q_simhash_pairs,
        "ngram_jaccard_pairs": q_ngram_jaccard,
        # --- multimodal plumbing (decode stubbed, see engine/multimodal) --
        "image_meta": q_image_meta,
        "image_embed_ann": q_image_embed_ann,
        "audio_frame_energy": q_audio_frames,
        "video_frame_sample": q_video_frames,
        "dedup_pages_by_url": q_dedup_by_url,
        # --- similarity search --------------------------------------------
        "ann_cosine_top10": q_ann_brute,
        "sq8_codes": lambda sf_dir: ann.sq8_quantize_stats(_emb(sf_dir)),
        "embedding_dim_stats": lambda sf_dir: ann.embedding_dim_stats(
            _emb(sf_dir)
        ),
        "pq_codes": lambda sf_dir: ann.pq_codes(
            _emb(sf_dir), n_sub=2, k=4, iters=2
        ),
        "pq_adc_topk": lambda sf_dir: ann.pq_adc_topk(
            _emb(sf_dir), n_sub=2, k=4, iters=2, query_vec_id=0, topk=10
        ),
        "block_join_children": relational.block_join_children,
        "kmeans_clusters": q_kmeans,
        "cluster_balanced_sample": q_cluster_sample,
        "cluster_purity": q_cluster_purity,
        "semdedup_kept": q_semdedup,
        "mmr_rerank_topk": q_mmr,
        "ann_ivf_top10": q_ann_ivf,
        "embedding_near_dups": q_emb_neardup,
        # --- relational / streaming-expression analogues ------------------
        "rollup_lineitem": relational.rollup_lineitem,
        "orders_per_nation": relational.orders_per_nation,
        "top_orders": relational.top_orders,
        "unique_event_types": relational.unique_event_types,
        "events_timeseries": relational.events_timeseries,
        "asof_join_events": lambda sf_dir: relational.asof_join_events(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "events.parquet"),
                columns=["event_id", "user_id", "ts", "event_type"],
            )
        ),
        "range_join_value_bands": lambda sf_dir: relational.range_join_value_bands(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "events.parquet"),
                columns=["event_id", "value"],
            )
        ),
        "sliding_window_counts": lambda sf_dir: relational.sliding_window_counts(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "events.parquet"),
                columns=["ts", "event_type"],
            )
        ),
        "zscore_outliers": lambda sf_dir: relational.zscore_outliers(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "events.parquet"),
                columns=["event_id", "event_type", "value"],
            )
        ),
        "burst_windows": lambda sf_dir: relational.burst_windows(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "events.parquet"),
                columns=["ts", "event_type"],
            )
        ),
        "sessionize_events": lambda sf_dir: relational.sessionize_events(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "events.parquet"),
                columns=["user_id", "ts"],
            )
        ),
        "data_profile_orders": relational.data_profile_orders,
        "skyline_orders": relational.skyline_orders,
        "value_quantiles_by_type": lambda sf_dir: (
            relational.value_quantiles_by_type(
                __import__("ray.data", fromlist=["x"]).read_parquet(
                    os.path.join(sf_dir, "events.parquet"),
                    columns=["event_type", "value"],
                )
            )
        ),
        "time_decayed_topk": lambda sf_dir: relational.time_decayed_topk(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "events.parquet"),
                columns=["ts", "event_type"],
            ),
            k=20,
        ),
        "ab_chi_square": lambda sf_dir: relational.ab_chi_square(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "events.parquet"),
                columns=["user_id", "event_type"],
            )
        ),
        "trend_slopes": lambda sf_dir: relational.trend_slopes(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "events.parquet"),
                columns=["ts", "event_type"],
            )
        ),
        "merkle_digests": lambda sf_dir: __import__(
            "engine.dedup", fromlist=["x"]
        ).merkle_digests(_docs(sf_dir), n_buckets=16),
        "consistent_hash_rebalance": lambda sf_dir: (
            relational.consistent_hash_rebalance(
                __import__("ray.data", fromlist=["x"]).read_parquet(
                    os.path.join(sf_dir, "documents.parquet"),
                    columns=["doc_id"],
                )
            )
        ),
        "record_linkage": lambda sf_dir: __import__(
            "engine.dedup", fromlist=["x"]
        ).record_linkage_customers(sf_dir, max_dist=2),
        "crawl_delta": lambda sf_dir: __import__(
            "engine.dedup", fromlist=["x"]
        ).crawl_delta(
            _docs(sf_dir),
            n_docs=__import__("pyarrow.parquet", fromlist=["x"])
            .read_metadata(os.path.join(sf_dir, "documents.parquet"))
            .num_rows,
        ),
        "funnel_steps": lambda sf_dir: relational.funnel_steps(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "events.parquet"),
                columns=["user_id", "ts", "event_type"],
            )
        ),
        "cohort_retention": lambda sf_dir: relational.cohort_retention(
            __import__("ray.data", fromlist=["x"]).read_parquet(
                os.path.join(sf_dir, "events.parquet"),
                columns=["user_id", "ts"],
            )
        ),
        "orders_semi_join": relational.orders_semi_join,
        "customer_orders_left_outer": relational.customer_orders_left_outer,
        "custkeys_intersect": relational.custkeys_intersect,
        "customers_without_orders": q_customers_without_orders,
        "doc_tokens_unnest": relational.doc_tokens_unnest,
        "significant_terms": relational.significant_terms,
        "top_orders_per_priority": relational.top_orders_per_priority,
        "taxonomy_facet_customers": relational.taxonomy_facet_customers,
        "top_k_groups_orders": relational.top_k_groups_orders,
        "lang_facet": relational.lang_facet,
        "lineitem_revenue_expr": relational.lineitem_revenue_expr,
        "orders_sample": relational.orders_sample,
        "orders_sample_hash": relational.orders_sample_hash,
    }


def _geo_polygon_sql() -> str:
    """Even-odd point-in-polygon parity as pure-integer SQL (replays
    engine/geo.py point_in_polygon_mask edge-for-edge)."""
    from engine.pipelines import GEO_POLYGON

    edges = []
    n = len(GEO_POLYGON)
    for i in range(n):
        y1, x1 = GEO_POLYGON[i]
        y2, x2 = GEO_POLYGON[(i + 1) % n]
        t = f"(lon - {x1}) * {y2 - y1} - {x2 - x1} * (lat - {y1})"
        cmp_ = f"{t} < 0" if y2 > y1 else f"{t} > 0"
        edges.append(
            f"CASE WHEN (({y1} > lat) != ({y2} > lat)) AND ({cmp_}) "
            "THEN 1 ELSE 0 END"
        )
    return f"""
        WITH pts AS (
            SELECT doc_id,
                   (doc_id * 2654435761) % 180000 - 90000 AS lat,
                   (doc_id * 40503 + 12345) % 360000 - 180000 AS lon
            FROM documents
        )
        SELECT doc_id FROM pts
        WHERE ({' + '.join(edges)}) % 2 = 1
        ORDER BY doc_id
    """


def oracle_sql() -> dict[str, str]:
    from engine.relational import fnv1a_str_sql as _fnv_str_sql

    def _mulmod64_sql(e: str, c: int) -> str:
        # (e * c) mod 2^64 with both operands up to 2^64: 32-bit split so
        # the HUGEINT intermediates stay under 2^97 (CLAUDE.md trick)
        return (
            f"CAST((((CAST(({e}) % 4294967296 AS HUGEINT) * {c})"
            f" + ((CAST(({e}) // 4294967296 AS HUGEINT) * {c})"
            f" % 4294967296) * 4294967296)"
            f" % 18446744073709551616) AS UBIGINT)"
        )

    def _graph_arms_sql() -> str:
        """The fixture multigraph edge stream (s, t) — self-loops
        dropped, parallel edges KEPT (dedupe with DISTINCT at use
        sites that want the simple graph)."""
        n = "(SELECT count(*) FROM documents)"
        return " UNION ALL ".join(
            f"SELECT doc_id AS s, (doc_id * {a} + {b}) % {n} AS t "
            f"FROM documents WHERE (doc_id * {a} + {b}) % {n} != doc_id"
            for a, b in ((31, 7), (97, 13), (131, 29))
        )

    def _hits_sql(n_iters: int = 2) -> str:
        # unnormalized integer HITS (path counts): a <- E^T h, h <- E a
        # from h0 = 1; sums of BIGINT are HUGEINT in DuckDB -> cast back
        ctes = [
            f"e AS ({_graph_arms_sql()})",
            "h0 AS (SELECT doc_id, CAST(1 AS BIGINT) AS h FROM documents)",
        ]
        for k in range(n_iters):
            ctes.append(f"""a{k + 1} AS (
                SELECT d.doc_id, coalesce(x.v, CAST(0 AS BIGINT)) AS a
                FROM documents d LEFT JOIN (
                    SELECT e.t AS doc_id, CAST(sum(h{k}.h) AS BIGINT) AS v
                    FROM e JOIN h{k} ON h{k}.doc_id = e.s GROUP BY e.t
                ) x ON x.doc_id = d.doc_id
            )""")
            ctes.append(f"""h{k + 1} AS (
                SELECT d.doc_id, coalesce(x.v, CAST(0 AS BIGINT)) AS h
                FROM documents d LEFT JOIN (
                    SELECT e.s AS doc_id, CAST(sum(a{k + 1}.a) AS BIGINT) AS v
                    FROM e JOIN a{k + 1} ON a{k + 1}.doc_id = e.t GROUP BY e.s
                ) x ON x.doc_id = d.doc_id
            )""")
        return (
            "WITH " + ",\n".join(ctes)
            + f"""
            SELECT d.doc_id, h{n_iters}.h AS hub, a{n_iters}.a AS auth
            FROM documents d
            JOIN h{n_iters} ON h{n_iters}.doc_id = d.doc_id
            JOIN a{n_iters} ON a{n_iters}.doc_id = d.doc_id"""
        )

    def _bfs_sql(source: int = 0, max_depth: int = 4) -> str:
        # level-synchronous BFS unrolled: level k expands only dist==k
        ctes = [
            f"e AS (SELECT DISTINCT s, t FROM ({_graph_arms_sql()}))",
            f"d0 AS (SELECT CAST({source} AS BIGINT) AS doc_id,"
            f" CAST(0 AS BIGINT) AS dist)",
        ]
        for k in range(max_depth):
            ctes.append(f"""d{k + 1} AS (
                SELECT doc_id, min(dist) AS dist FROM (
                    SELECT doc_id, dist FROM d{k}
                    UNION ALL
                    SELECT e.t AS doc_id, p.dist + 1 AS dist
                    FROM d{k} p JOIN e ON e.s = p.doc_id
                    WHERE p.dist = {k}
                ) GROUP BY doc_id
            )""")
        return (
            "WITH " + ",\n".join(ctes)
            + f"\nSELECT doc_id, dist FROM d{max_depth}"
        )

    def _bpe_sql(n_merges: int = 4) -> str:
        # paren-delimited symbols: replace() can never match across
        # token boundaries and needs no RE2-unsupported lookarounds;
        # counting is list-position based (every adjacent position),
        # merging is left-to-right non-overlapping — both sides agree
        ctes = [
            f"""w AS MATERIALIZED (
                SELECT t AS word, CAST(count(*) AS BIGINT) AS freq FROM (
                    SELECT unnest({_TOK}) AS t FROM documents) GROUP BY t
            )""",
            "s0 AS MATERIALIZED (SELECT word, freq, '(' ||"
            " array_to_string(string_split(word, ''), ')(') || ')' AS sym"
            " FROM w)",
        ]
        for k in range(n_merges):
            ctes.append(f"""p{k + 1} AS MATERIALIZED (
                SELECT toks[i] AS lhs, toks[i + 1] AS rhs,
                       CAST(sum(freq) AS BIGINT) AS c
                FROM (SELECT freq, string_split(trim(sym, '()'), ')(') AS toks
                      FROM s{k}),
                     UNNEST(range(1, len(toks))) AS u(i)
                GROUP BY 1, 2
            )""")
            ctes.append(f"""b{k + 1} AS MATERIALIZED (
                SELECT lhs, rhs, c FROM p{k + 1}
                ORDER BY c DESC, lhs ASC, rhs ASC LIMIT 1
            )""")
            if k < n_merges - 1:
                ctes.append(f"""s{k + 1} AS MATERIALIZED (
                    SELECT word, freq,
                           replace(sym,
                                   '(' || (SELECT lhs FROM b{k + 1}) || ')(' ||
                                   (SELECT rhs FROM b{k + 1}) || ')',
                                   '(' || (SELECT lhs FROM b{k + 1}) ||
                                   (SELECT rhs FROM b{k + 1}) || ')') AS sym
                    FROM s{k}
                )""")
        sel = " UNION ALL ".join(
            f"SELECT CAST({k + 1} AS BIGINT) AS merge_rank, lhs, rhs,"
            f" c AS n_pairs FROM b{k + 1}"
            for k in range(n_merges)
        )
        return "WITH " + ",\n".join(ctes) + "\n" + sel

    def _ppr_sql(seed: int = 0, n_iters: int = 5) -> str:
        n = "(SELECT count(*) FROM documents)"
        arms = " UNION ALL ".join(
            f"SELECT doc_id AS source, (doc_id * {a} + {b}) % {n} AS target "
            f"FROM documents WHERE (doc_id * {a} + {b}) % {n} != doc_id"
            for a, b in ((31, 7), (97, 13), (131, 29))
        )
        deg_terms = " + ".join(
            f"(CASE WHEN (doc_id * {a} + {b}) % {n} != doc_id THEN 1 ELSE 0 END)"
            for a, b in ((31, 7), (97, 13), (131, 29))
        )
        ctes = [
            f"edges AS ({arms})",
            f"deg AS (SELECT doc_id, {deg_terms} AS d FROM documents)",
            f"r0 AS (SELECT doc_id, CASE WHEN doc_id = {seed} THEN 1.0"
            f" ELSE 0.0 END AS rank FROM documents)",
        ]
        for k in range(n_iters):
            ctes.append(f"""r{k + 1} AS (
                SELECT d.doc_id,
                       (CASE WHEN d.doc_id = {seed} THEN 0.15 ELSE 0.0 END)
                       + 0.85 * coalesce(f.s, 0.0) AS rank
                FROM documents d LEFT JOIN (
                    SELECT e.target AS doc_id,
                           list_reduce(
                               list_prepend(CAST(0.0 AS DOUBLE),
                                   list(r{k}.rank / deg.d
                                        ORDER BY e.source)),
                               (x, y) -> x + y) AS s
                    FROM edges e
                    JOIN r{k} ON r{k}.doc_id = e.source
                    JOIN deg ON deg.doc_id = e.source
                    GROUP BY e.target
                ) f ON f.doc_id = d.doc_id
            )""")
        return (
            "WITH " + ",\n".join(ctes)
            + f"\nSELECT doc_id, rank FROM r{n_iters}"
        )

    def _pagerank_sql(n_iters: int = 5) -> str:
        n = "(SELECT count(*) FROM documents)"
        arms = " UNION ALL ".join(
            f"SELECT doc_id AS source, (doc_id * {a} + {b}) % {n} AS target "
            f"FROM documents WHERE (doc_id * {a} + {b}) % {n} != doc_id"
            for a, b in ((31, 7), (97, 13), (131, 29))
        )
        deg_terms = " + ".join(
            f"(CASE WHEN (doc_id * {a} + {b}) % {n} != doc_id THEN 1 ELSE 0 END)"
            for a, b in ((31, 7), (97, 13), (131, 29))
        )
        ctes = [
            f"edges AS ({arms})",
            f"deg AS (SELECT doc_id, {deg_terms} AS d FROM documents)",
            f"r0 AS (SELECT doc_id, 1.0 / {n} AS rank FROM documents)",
        ]
        for k in range(n_iters):
            ctes.append(f"""r{k + 1} AS (
                SELECT d.doc_id,
                       CASE WHEN f.s IS NULL THEN (0.15 / {n})
                            ELSE (0.15 / {n}) + 0.85 * f.s END AS rank
                FROM documents d LEFT JOIN (
                    SELECT e.target AS doc_id,
                           list_reduce(
                               list_prepend(CAST(0.0 AS DOUBLE),
                                   list(r{k}.rank / deg.d
                                        ORDER BY e.source)),
                               (x, y) -> x + y) AS s
                    FROM edges e
                    JOIN r{k} ON r{k}.doc_id = e.source
                    JOIN deg ON deg.doc_id = e.source
                    GROUP BY e.target
                ) f ON f.doc_id = d.doc_id
            )""")
        return (
            "WITH " + ",\n".join(ctes)
            + f"\nSELECT doc_id, rank FROM r{n_iters}"
        )

    def _mlt_sql(tdoc_src: str) -> str:
        """The MoreLikeThis oracle with the tf SOURCE parameterized
        (by-doc: the example doc's tokens; like-text: the literal
        snippet's tokens) — selection (tf>=2, df>=5, tf*idf top-10) and
        the per-rank ordered BM25 f64 fold are shared verbatim."""
        return f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tdoc AS (
                SELECT t AS term, count(*) AS tf FROM (
                    {tdoc_src}
                ) GROUP BY t HAVING count(*) >= 2
            ),
            tdf AS (
                SELECT term, count(*) AS df FROM ({tok_pairs}) GROUP BY term
            ),
            mlt AS (
                SELECT term, df, rn FROM (
                    SELECT tdoc.term, tdf.df,
                           row_number() OVER (ORDER BY
                               tdoc.tf * (ln(((SELECT n_docs FROM stats) + 1)
                                             / (tdf.df + 1.0)) + 1) DESC,
                               tdoc.term ASC) AS rn
                    FROM tdoc JOIN tdf USING (term)
                    WHERE tdf.df >= 5
                ) WHERE rn <= 10
            ),
            mltw AS (
                SELECT term, rn,
                       {_bm25_w("df")} AS w
                FROM mlt, stats
            ),
            tf2 AS (
                SELECT doc_id, t AS term, count(*) AS freq FROM (
                    SELECT doc_id, unnest({_TOK}) AS t FROM documents
                ) GROUP BY doc_id, t
            ),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (
                SELECT CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            per_term AS (
                SELECT tf2.doc_id, mltw.rn,
                       {_bm25_score("mltw.w", "tf2.freq", "k.inv")} AS s
                FROM tf2
                JOIN mltw USING (term)
                JOIN nb ON nb.doc_id = tf2.doc_id
                JOIN cache k ON k.b = nb.b
            ),
            scored AS (
                SELECT doc_id,
                       CAST(list_reduce(
                           list_prepend(CAST(0.0 AS DOUBLE),
                               list(CAST(s AS DOUBLE) ORDER BY rn)),
                           (a, x) -> a + x) AS FLOAT) AS score
                FROM per_term GROUP BY doc_id
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score
                FROM scored
            ) WHERE rank < 10
        """

    _cms_salt_rows = ", ".join(
        f"({r}, CAST({(0x9E3779B97F4A7C15 * (r + 1)) & 0xFFFFFFFFFFFFFFFF} AS UBIGINT))"
        for r in range(4)
    )

    def _kmeans_sql(k: int = 8, iters: int = 2, dims: int = 64) -> str:
        # Lloyd's k-means unrolled: init = k smallest vec_ids' embeddings;
        # distance = LEFT-ASSOC + chain over dims of (v_d - c_d)^2 (the
        # engine folds dims sequentially with vectorized f64 ops — same
        # association); assignment ties -> lowest cid via ROW_NUMBER;
        # centroid update = ordered list_reduce fold over vec_id order
        # (engine: np.cumsum, a genuine sequential scan) / exact count
        # division; empty clusters coalesce to the previous centroid.
        def dist(va: str, ca: str) -> str:
            return " + ".join(
                f"(({va}[{d}]-{ca}[{d}])*({va}[{d}]-{ca}[{d}]))"
                for d in range(1, dims + 1)
            )

        folds = ", ".join(
            "list_reduce(list_prepend(CAST(0 AS DOUBLE), "
            f"list(v[{d}] ORDER BY vec_id)), (x, y) -> x + y) "
            "/ CAST(count(*) AS DOUBLE)"
            for d in range(1, dims + 1)
        )
        sql = f"""WITH e AS (
                SELECT vec_id,
                       list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
                FROM embeddings
            ),
            c0 AS (
                SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT)
                           AS cid, v AS ce
                FROM e ORDER BY vec_id LIMIT {k}
            )"""
        prev = "c0"
        for it in range(1, iters + 1):
            sql += f""",
            d{it} AS (
                SELECT e.vec_id, c.cid, e.v, {dist('e.v', 'c.ce')} AS dist
                FROM e CROSS JOIN {prev} c
            ),
            a{it} AS (
                SELECT vec_id, cid, v FROM (
                    SELECT vec_id, cid, v, row_number() OVER (
                        PARTITION BY vec_id ORDER BY dist, cid) AS rn
                    FROM d{it}) WHERE rn = 1
            ),
            u{it} AS (SELECT cid, [{folds}] AS ce FROM a{it} GROUP BY cid),
            c{it} AS (
                SELECT p.cid, coalesce(u.ce, p.ce) AS ce
                FROM {prev} p LEFT JOIN u{it} u ON p.cid = u.cid
            )"""
            prev = f"c{it}"
        sql += f"""
            SELECT vec_id, cid AS cluster FROM (
                SELECT e.vec_id, c.cid, row_number() OVER (
                    PARTITION BY e.vec_id
                    ORDER BY {dist('e.v', 'c.ce')}, c.cid) AS rn
                FROM e CROSS JOIN {prev} c) WHERE rn = 1"""
        return sql

    def _pq_sql(
        n_sub: int = 2,
        k: int = 4,
        iters: int = 2,
        dims: int = 64,
        adc_query_vec: int | None = None,
        topk: int = 10,
    ) -> str:
        # product quantization: the kmeans chain unrolled INDEPENDENTLY
        # per contiguous subspace (duckdb list slice v[a:b] is 1-based
        # inclusive — v[lo+1 : lo+sub] = the engine's [lo, lo+sub) f32
        # value slice), final = per-subspace nearest-centroid join
        sub = dims // n_sub

        def dist(va: str, ca: str) -> str:
            return " + ".join(
                f"(({va}[{d}]-{ca}[{d}])*({va}[{d}]-{ca}[{d}]))"
                for d in range(1, sub + 1)
            )

        folds = ", ".join(
            "list_reduce(list_prepend(CAST(0 AS DOUBLE), "
            f"list(v[{d}] ORDER BY vec_id)), (x, y) -> x + y) "
            "/ CAST(count(*) AS DOUBLE)"
            for d in range(1, sub + 1)
        )
        parts = [
            """e AS (
                SELECT vec_id,
                       list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
                FROM embeddings
            )"""
        ]
        finals = []
        for s in range(n_sub):
            lo = s * sub
            p = f"s{s}"
            parts.append(
                f"{p}e AS (SELECT vec_id, v[{lo + 1}:{lo + sub}] AS v FROM e)"
            )
            parts.append(f"""{p}c0 AS (
                SELECT CAST(row_number() OVER (ORDER BY vec_id) - 1 AS BIGINT)
                           AS cid, v AS ce
                FROM {p}e ORDER BY vec_id LIMIT {k}
            )""")
            prev = f"{p}c0"
            for it in range(1, iters + 1):
                parts.append(f"""{p}d{it} AS (
                    SELECT e.vec_id, c.cid, e.v, {dist('e.v', 'c.ce')} AS dist
                    FROM {p}e e CROSS JOIN {prev} c
                )""")
                parts.append(f"""{p}a{it} AS (
                    SELECT vec_id, cid, v FROM (
                        SELECT vec_id, cid, v, row_number() OVER (
                            PARTITION BY vec_id ORDER BY dist, cid) AS rn
                        FROM {p}d{it}) WHERE rn = 1
                )""")
                parts.append(
                    f"{p}u{it} AS (SELECT cid, [{folds}] AS ce"
                    f" FROM {p}a{it} GROUP BY cid)"
                )
                parts.append(f"""{p}c{it} AS (
                    SELECT pp.cid, coalesce(u.ce, pp.ce) AS ce
                    FROM {prev} pp LEFT JOIN {p}u{it} u ON pp.cid = u.cid
                )""")
                prev = f"{p}c{it}"
            parts.append(f"""{p}f AS (
                SELECT vec_id, cid AS code FROM (
                    SELECT e.vec_id, c.cid, row_number() OVER (
                        PARTITION BY e.vec_id
                        ORDER BY {dist('e.v', 'c.ce')}, c.cid) AS rn
                    FROM {p}e e CROSS JOIN {prev} c) WHERE rn = 1
            )""")
            finals.append(f"{p}f")
        joins = " ".join(
            f"JOIN {f} ON {f}.vec_id = s0f.vec_id" for f in finals[1:]
        )
        if adc_query_vec is None:
            cols = ", ".join(
                f"{f}.code AS code_{i}" for i, f in enumerate(finals)
            )
            return (
                "WITH " + ",\n".join(parts)
                + f"\nSELECT s0f.vec_id, {cols} FROM s0f {joins}"
            )
        # ADC mode: per-subspace k-entry distance tables from the final
        # codebooks (same dim fold), sum = left-assoc chain of adds
        parts.append(
            f"qe AS (SELECT v FROM e WHERE vec_id = {adc_query_vec})"
        )
        for s in range(n_sub):
            lo = s * sub
            parts.append(
                f"q{s} AS (SELECT v[{lo + 1}:{lo + sub}] AS v FROM qe)"
            )
            parts.append(
                f"t{s} AS (SELECT c.cid, {dist('q.v', 'c.ce')} AS dd"
                f" FROM s{s}c{iters} c, q{s} q)"
            )
        adc = "t0.dd"
        for s in range(1, n_sub):
            adc = f"({adc} + t{s}.dd)"
        tjoins = " ".join(
            f"JOIN t{s} ON t{s}.cid = s{s}f.code" for s in range(n_sub)
        )
        return (
            "WITH " + ",\n".join(parts)
            + f"""
            SELECT CAST(row_number() OVER (ORDER BY adc, vec_id) - 1
                       AS BIGINT) AS rank, vec_id, adc
            FROM (SELECT s0f.vec_id, {adc} AS adc
                  FROM s0f {joins} {tjoins})
            ORDER BY adc, vec_id LIMIT {topk}"""
        )

    def _mmr_sql(C: int = 25, k: int = 10, dims: int = 64) -> str:
        # MMR greedy selection unrolled (ann.mmr_rerank): candidates by
        # the proven cosine rank chain; rel / pair sims as LEFT-ASSOC dim
        # chains over exact f32->f64 casts (the kmeans/semdedup fold
        # discipline); objective = (0.75*rel) - (0.25*maxsim) — two
        # single f64 multiplies + one subtract; max over selected is an
        # order-free selection; score ties -> smallest vec_id.
        lam, om = "0.75", "0.25"
        sq = " + ".join(f"(v[{d}]*v[{d}])" for d in range(1, dims + 1))
        dq = " + ".join(f"(q.v[{d}]*c.v[{d}])" for d in range(1, dims + 1))
        dab = " + ".join(f"(a.v[{d}]*b.v[{d}])" for d in range(1, dims + 1))
        ctes = [
            """ev AS MATERIALIZED (
                SELECT vec_id,
                       list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
                FROM embeddings
            )""",
            f"""cand AS MATERIALIZED (
                SELECT vec_id FROM (
                    SELECT v.vec_id, row_number() OVER (
                        ORDER BY list_cosine_similarity(q.embedding,
                                                        v.embedding) DESC,
                                 v.vec_id ASC) AS r
                    FROM embeddings v,
                         (SELECT embedding FROM embeddings
                          WHERE vec_id = 0) q
                ) WHERE r <= {C}
            )""",
            f"""cv AS MATERIALIZED (SELECT ev.vec_id, ev.v, ({sq}) AS sq
                       FROM cand JOIN ev USING (vec_id))""",
            f"qq AS MATERIALIZED (SELECT v, ({sq}) AS sq FROM ev WHERE vec_id = 0)",
            f"""rel AS MATERIALIZED (SELECT c.vec_id,
                               ({dq}) / (sqrt(q.sq) * sqrt(c.sq)) AS rel
                        FROM cv c, qq q)""",
            f"""sim AS MATERIALIZED (
                SELECT a.vec_id AS i, b.vec_id AS j,
                       ({dab}) / (sqrt(a.sq) * sqrt(b.sq)) AS s
                FROM cv a JOIN cv b ON a.vec_id < b.vec_id
            )""",
            f"""p1 AS MATERIALIZED (
                SELECT vec_id, mmr FROM (
                    SELECT vec_id, (({lam} * rel) - ({om} * 0.0)) AS mmr
                    FROM rel
                ) ORDER BY mmr DESC, vec_id LIMIT 1
            )""",
            "sel1 AS MATERIALIZED (SELECT vec_id FROM p1)",
        ]
        for t in range(2, k + 1):
            ctes.append(f"""p{t} AS MATERIALIZED (
                SELECT vec_id, mmr FROM (
                    SELECT r.vec_id,
                           (({lam} * r.rel) - ({om} * coalesce((
                               SELECT max(s.s) FROM sim s
                               WHERE (s.i = r.vec_id AND s.j IN
                                        (SELECT vec_id FROM sel{t - 1}))
                                  OR (s.j = r.vec_id AND s.i IN
                                        (SELECT vec_id FROM sel{t - 1}))
                           ), 0.0))) AS mmr
                    FROM rel r
                    WHERE r.vec_id NOT IN (SELECT vec_id FROM sel{t - 1})
                ) ORDER BY mmr DESC, vec_id LIMIT 1
            )""")
            ctes.append(
                f"sel{t} AS MATERIALIZED (SELECT vec_id FROM sel{t - 1} "
                f"UNION ALL SELECT vec_id FROM p{t})"
            )
        union = "\nUNION ALL\n".join(
            f"SELECT CAST({t - 1} AS BIGINT) AS rank, vec_id, mmr FROM p{t}"
            for t in range(1, k + 1)
        )
        return "WITH " + ",\n".join(ctes) + "\n" + union

    def _fmix64_sql(h: str) -> str:
        # MurmurHash3 fmix64 (engine/merge.py _fmix64) replayed exactly
        e = f"xor(CAST(({h}) AS UBIGINT), CAST(({h}) AS UBIGINT) >> 33)"
        e = _mulmod64_sql(e, 0xFF51AFD7ED558CCD)
        e = f"xor({e}, ({e}) >> 33)"
        e = _mulmod64_sql(e, 0xC4CEB9FE1A85EC53)
        e = f"xor({e}, ({e}) >> 33)"
        return e
    from engine.relational import fnv1a_u64_sql as _fnv_sql

    tok_pairs = f"""
        SELECT doc_id, t AS term, count(*) AS cnt FROM (
            SELECT doc_id, unnest({_TOK}) AS t FROM documents
        ) GROUP BY doc_id, t
    """
    # fixture titles are 'doc {doc_id} rep 0' (engine/fixtures.py
    # pages_from_documents), so the title field's stats recompute from
    # doc_id alone
    title_tok = (
        "regexp_extract_all(lower('doc ' || CAST(doc_id AS VARCHAR) || ' rep 0'),"
        " '[a-z0-9]+')"
    )
    # SmallFloat byte4 quantization (util/SmallFloat.java:147-156) as a
    # 256-entry VALUES lookup: norm byte b covers lengths in
    # [LENGTH_TABLE[b], LENGTH_TABLE[b+1]) — embed the decode table so the
    # norms path gets an exact end-to-end SQL check
    from engine.smallfloat import LENGTH_TABLE

    lt_values = ", ".join(f"({b}, {int(lo)})" for b, lo in enumerate(LENGTH_TABLE))
    # shared SimHash recomputation CTE body (simhash64 + near-dup pairs)
    _simhash_cte = f"""tc AS (
                SELECT doc_id, t AS w, count(*) AS c FROM (
                    SELECT doc_id, unnest({_TOK}) AS t FROM documents
                ) GROUP BY doc_id, t
            ),
            th AS (SELECT doc_id, c, {_fnv_str_sql("w")} AS h FROM tc),
            bits AS (
                SELECT doc_id, i,
                       sum(CASE WHEN ((h >> CAST(i AS UBIGINT)) & 1) = 1
                           THEN c ELSE -c END) AS acc
                FROM th, (SELECT unnest(range(63)) AS i)
                GROUP BY doc_id, i
            ),
            sh AS (
                SELECT doc_id,
                       CAST(sum(CASE WHEN acc > 0
                                THEN (CAST(1 AS BIGINT) << i)
                                ELSE 0 END) AS BIGINT) AS simhash
                FROM bits GROUP BY doc_id
            ),
            shfull AS (
                SELECT d.doc_id, coalesce(s.simhash, 0) AS simhash
                FROM documents d LEFT JOIN sh s ON d.doc_id = s.doc_id
            )"""
    # powers of the rolling-hash base B = 1099511628211 mod 2^64, inlined
    # for the winnowing-fingerprint oracle (engine/textops.py
    # rolling_fingerprint_batch: window 8, keep 4)
    _fp_pows = ", ".join(
        f"({j}, CAST({pow(1099511628211, j, 2**64)} AS HUGEINT))" for j in range(8)
    )
    # LangId profiles embedded verbatim: the same _trigrams() fold over the
    # same seeds, so the SQL argmax replays the engine's cosine exactly
    # (integer dots cast to double, IEEE sqrt both sides; ties go to the
    # first lang in sorted order = ORDER BY s DESC, lang ASC)
    from engine.textops import LangId as _LangId

    _prof_rows = []
    _pnsq_rows = []
    for _lang in sorted(_LangId.SEEDS):
        _prof = _LangId._trigrams(_LangId.SEEDS[_lang])
        _pnsq_rows.append(f"('{_lang}', {sum(v * v for v in _prof.values())})")
        for _g, _c in sorted(_prof.items()):
            _gq = _g.replace("'", "''")
            _prof_rows.append(f"('{_lang}', '{_gq}', {_c})")
    _prof_values = ", ".join(_prof_rows)
    _pnsq_values = ", ".join(_pnsq_rows)
    # float32-op emulation helpers for the exact BM25 oracle: every
    # reference float op becomes CAST(<double op on float32 operands> AS
    # FLOAT) — bit-exact by Figueroa's double-rounding theorem
    # (53 >= 2*24 + 2 covers +,-,*,/ on binary32)
    def _f32(expr: str) -> str:
        return f"CAST({expr} AS FLOAT)"

    def _dd(expr: str) -> str:
        return f"CAST({expr} AS DOUBLE)"

    def _f32op(a: str, op: str, b: str) -> str:
        return _f32(f"{_dd(a)} {op} {_dd(b)}")

    # cache[b] = 1f/(k1*((1-b) + b*L/avgdl)) in the reference op order
    # (BM25Similarity.java:188-191), L = LENGTH_TABLE[norm byte]
    _bm25_cache_expr = _f32op(
        "CAST(1.0 AS FLOAT)",
        "/",
        _f32op(
            "CAST(1.2 AS FLOAT)",
            "*",
            _f32op(
                "CAST(0.25 AS FLOAT)",
                "+",
                _f32op(
                    _f32op("CAST(0.75 AS FLOAT)", "*", _f32("lt.lo")),
                    "/",
                    "c.avgdl",
                ),
            ),
        ),
    )
    # score = w - w/(1f + freq*cache) (BM25Similarity.java:222-235)
    def _bm25_score(w: str, freq: str, inv: str) -> str:
        return _f32op(
            w,
            "-",
            _f32op(
                w,
                "/",
                _f32op("CAST(1.0 AS FLOAT)", "+", _f32op(_f32(freq), "*", inv)),
            ),
        )

    _bm25_score_expr = _bm25_score("c.w", "tf.freq", "k.inv")
    # idf -> weight for a given df subquery (boost 1)
    def _bm25_w(df_sub: str) -> str:
        return (
            f"CAST(ln(1 + (n_docs - {df_sub} + 0.5) / ({df_sub} + 0.5)) AS FLOAT)"
        )

    # FeatureField.decodeFeatureValue(tf) = intBitsToFloat(tf << 15) as
    # exact integer/power-of-two-double arithmetic: exponent and mantissa
    # unpacked from tf<<15, value = (2^23 + mant) * 2^(e-127) / 2^23
    def _feat_dec(tf: str) -> str:
        return (
            f"CAST((8388608 + ({tf} * 32768) % 8388608) * "
            f"CASE WHEN (({tf} * 32768) // 8388608) - 127 >= 0 "
            f"THEN CAST(1 << ((({tf} * 32768) // 8388608) - 127) AS DOUBLE) "
            f"ELSE 1.0 / CAST(1 << (127 - (({tf} * 32768) // 8388608)) "
            f"AS DOUBLE) END / 8388608.0 AS FLOAT)"
        )
    # best-window snippet fragment around hit position h (textops.
    # make_snippet: +/-8 tokens, ** marks, max 2 fragments) as SQL over
    # the 1-based-inclusive duckdb list slice = Python toks[lo:hi]
    def _snip_frag(h: str) -> str:
        return (
            "array_to_string(list_transform("
            f"t.ts[greatest(0, {h} - 8) + 1 : least(len(t.ts), {h} + 9)], "
            "x -> CASE WHEN x IN ('data', 'join') THEN '**' || x || '**' "
            "ELSE x END), ' ')"
        )

    # American Soundex as a SQL fold (engine/filters.py soundex: first
    # letter + 3 consonant-class digits, same-class adjacency collapses,
    # h/w transparent, vowels reset) — state rides a 'prev;digits' string
    # through list_reduce; validated against the Python implementation on
    # 3k random words incl. the classic Robert/Rupert/Ashcraft cases
    _sdx_cls = (
        "CASE WHEN c IN ('b','f','p','v') THEN '1' "
        "WHEN c IN ('c','g','j','k','q','s','x','z') THEN '2' "
        "WHEN c IN ('d','t') THEN '3' WHEN c = 'l' THEN '4' "
        "WHEN c IN ('m','n') THEN '5' WHEN c = 'r' THEN '6' "
        "WHEN c IN ('h','w') THEN 'H' ELSE 'V' END"
    )
    _sdx_first = _sdx_cls.replace("c IN", "substring(t, 1, 1) IN").replace(
        "c = ", "substring(t, 1, 1) = "
    )
    _sdx_expr = f"""
        upper(substring(t, 1, 1)) || rpad(split_part(list_reduce(list_prepend(
            CASE WHEN {_sdx_first} IN ('H','V') THEN ';'
                 ELSE {_sdx_first} || ';' END,
            list_transform(
                list_transform(range(2, length(t) + 1),
                               i -> substring(t, CAST(i AS INTEGER), 1)),
                c -> {_sdx_cls})),
          (acc, m) -> CASE
              WHEN m = 'H' THEN acc
              WHEN m = 'V' THEN ';' || split_part(acc, ';', 2)
              WHEN m != split_part(acc, ';', 1)
                   AND length(split_part(acc, ';', 2)) < 3
                   THEN m || ';' || split_part(acc, ';', 2) || m
              ELSE m || ';' || split_part(acc, ';', 2) END
        ), ';', 2), 3, '0')
    """
    # MinHash permutation coefficients, verbatim (engine/dedup._coeffs
    # seeded rng 424242): (j, a_j, b_j) rows for the 64 permutations
    from engine.dedup import _coeffs as _mh_coeffs

    _mh_a, _mh_b = _mh_coeffs()
    _mh_values = ", ".join(
        f"({j}, CAST({int(a)} AS HUGEINT), CAST({int(b)} AS HUGEINT))"
        for j, (a, b) in enumerate(zip(_mh_a.tolist(), _mh_b.tolist()))
    )
    # the QualityScorer stopword set, verbatim (engine/textops.py:79-81)
    _stoplist = (
        "['the', 'a', 'an', 'and', 'or', 'of', 'to', 'in', 'is', 'are', "
        "'was', 'were', 'be', 'been', 'it', 'this', 'that', 'for', 'on', "
        "'with', 'as', 'by']"
    )
    _phrase_scores_sql = f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            pos AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            dfa AS (SELECT count(DISTINCT doc_id) AS v FROM pos WHERE t = 'data'),
            dfb AS (SELECT count(DISTINCT doc_id) AS v FROM pos WHERE t = 'join'),
            tf AS (
                SELECT a.doc_id, count(*) AS freq
                FROM pos a JOIN pos b
                  ON a.doc_id = b.doc_id AND b.p = a.p + 1
                WHERE a.t = 'data' AND b.t = 'join'
                GROUP BY a.doc_id
            ),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (
                SELECT CAST(
                         CAST({_bm25_w("(SELECT v FROM dfa)")} AS DOUBLE)
                       + CAST({_bm25_w("(SELECT v FROM dfb)")} AS DOUBLE)
                       AS FLOAT) AS w,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            scored AS (
                SELECT tf.doc_id, {_bm25_score_expr} AS score
                FROM tf JOIN nb ON nb.doc_id = tf.doc_id
                JOIN cache k ON k.b = nb.b, c
            )
            SELECT CAST(row_number() OVER (
                       ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT) AS rank,
                   doc_id, score
            FROM scored
        """
    # ----- flagship reference-query-set oracle (bm25_topk family) ---------
    # Per-(doc, term) float32 BM25 scores recomputed from documents.text,
    # then each of the 12 reference query shapes replayed with the engine's
    # accumulation semantics: per-term f32 scores summed LEFT-ASSOCIATIVELY
    # in a float64 accumulator in clause order (must terms first, then
    # should terms in query order; boosts before should — search.py
    # _eval_node), cast to f32, collector tie-break (score desc, doc asc).
    # Missing clauses pad with +0.0 (exact for finite doubles).
    _scored_cte = f"""lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            tf AS (SELECT doc_id, t, count(*) AS freq FROM tok
                   GROUP BY doc_id, t),
            dfs AS (SELECT t, count(*) AS df FROM tf GROUP BY t),
            w AS (SELECT t, {_bm25_w("df")} AS w FROM dfs, stats),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (SELECT CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT)
                  AS avgdl FROM stats),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            sc AS (
                SELECT tf.doc_id, tf.t,
                       {_bm25_score("w.w", "tf.freq", "k.inv")} AS s
                FROM tf JOIN w USING (t)
                JOIN nb ON nb.doc_id = tf.doc_id
                JOIN cache k ON k.b = nb.b
            )"""

    def _flat_q(qid: int, musts, shoulds, nots) -> str:
        """One flat BooleanQuery block: INNER joins for MUST clauses,
        LEFT joins for SHOULD, NOT IN for MUST_NOT; the sum expression is
        left-assoc in (musts + shoulds) order = the TAAT accumulator."""
        all_terms = list(musts) + list(shoulds)
        inlist = ", ".join(f"'{t}'" for t in all_terms)
        joins, parts = [], []
        for i, t in enumerate(all_terms):
            jk = "JOIN" if i < len(musts) else "LEFT JOIN"
            joins.append(
                f"{jk} (SELECT doc_id, s FROM sc WHERE t = '{t}') t{i}"
                f" ON t{i}.doc_id = m.doc_id"
            )
            expr = f"CAST(t{i}.s AS DOUBLE)"
            if i >= len(musts):
                expr = f"coalesce({expr}, 0.0)"
            parts.append(expr)
        conds = " AND ".join(
            f"m.doc_id NOT IN (SELECT doc_id FROM tf WHERE t = '{n}')"
            for n in nots
        )
        where = f"WHERE {conds}" if conds else ""
        return f"""
            SELECT {qid} AS query_id, m.doc_id,
                   CAST({' + '.join(parts)} AS FLOAT) AS score
            FROM (SELECT DISTINCT doc_id FROM tf WHERE t IN ({inlist})) m
            {' '.join(joins)}
            {where}"""

    _ref_specs = [
        (0, (), ("data",), ()),
        (1, (), ("the",), ()),
        (2, (), ("join", "merge"), ()),
        (3, (), ("spark", "stream", "window"), ()),
        (4, ("query", "filter"), (), ()),
        (5, ("sort",), ("batch",), ()),
        (6, (), ("customer",), ()),
        (7, (), ("data",), ("join",)),
        (8, (), ("zzznomatch",), ()),
        (9, (), ("table", "scan", "hash", "group", "row"), ()),
    ]
    # q10 'quer* filt*': PrefixQuery rewrite = per-prefix sorted dictionary
    # expansion appended to SHOULD (search.py rewrite, cap 1024 — far above
    # this vocabulary), so the accumulation order is (sorted quer* terms,
    # then sorted filt* terms); replay with an ordered list fold.
    _q10 = """
            SELECT 10 AS query_id, doc_id,
                   CAST(list_reduce(list_prepend(CAST(0.0 AS DOUBLE),
                            list(CAST(s AS DOUBLE) ORDER BY grp, t)),
                        (a, x) -> a + x) AS FLOAT) AS score
            FROM (SELECT doc_id, t, s,
                         CASE WHEN t LIKE 'quer%' THEN 0 ELSE 1 END AS grp
                  FROM sc WHERE t LIKE 'quer%' OR t LIKE 'filt%')
            GROUP BY doc_id"""
    # q11 '* -data': MatchAllDocsQuery constant 1.0f minus the exclusion
    _q11 = """
            SELECT 11 AS query_id, doc_id, CAST(1.0 AS FLOAT) AS score
            FROM documents
            WHERE doc_id NOT IN (SELECT doc_id FROM tf WHERE t = 'data')"""
    _refq_union = "\nUNION ALL\n".join(
        [_flat_q(*s) for s in _ref_specs] + [_q10, _q11]
    )
    _refq_k = "CASE query_id WHEN 6 THEN 100 WHEN 9 THEN 25 WHEN 11 THEN 5 ELSE 10 END"
    _refq_sql = f"""
            WITH {_scored_cte},
            allq AS ({_refq_union})
            SELECT query_id, CAST(rn - 1 AS INTEGER) AS rank, doc_id, score
            FROM (
                SELECT query_id, doc_id, score, row_number() OVER (
                    PARTITION BY query_id
                    ORDER BY score DESC, doc_id ASC) AS rn
                FROM allq
            ) WHERE rn <= {_refq_k}
        """
    _replica_sql = f"""
            WITH {_scored_cte},
            q AS ({_flat_q(0, (), ("data", "join"), ())})
            SELECT CAST(rn - 1 AS BIGINT) AS rank, doc_id, score FROM (
                SELECT doc_id, score, row_number() OVER (
                    ORDER BY score DESC, doc_id ASC) AS rn
                FROM q
            ) WHERE rn <= 10
        """
    # ----- RRF hybrid fusion (rrf_fusion_topk) ----------------------------
    # Both rank lists replay via their driver-green chains (the f32 BM25
    # CTE; the cosine rank order of ann_cosine_top10); the fused score is
    # two exact f64 divisions + one f64 add (lexical addend first, +0.0
    # padding for a missing list — exact), so it hashes bit-for-bit.
    _rrf_sql = f"""
            WITH {_scored_cte},
            lexq AS ({_flat_q(0, (), ("data", "join"), ())}),
            lex AS (
                SELECT doc_id, r FROM (
                    SELECT doc_id, row_number() OVER (
                        ORDER BY score DESC, doc_id ASC) AS r
                    FROM lexq
                ) WHERE r <= 10
            ),
            dense AS (
                SELECT doc_id, r FROM (
                    SELECT v.vec_id AS doc_id, row_number() OVER (
                        ORDER BY list_cosine_similarity(q.embedding,
                                                        v.embedding) DESC,
                                 v.vec_id ASC) AS r
                    FROM embeddings v,
                         (SELECT embedding FROM embeddings
                          WHERE vec_id = 0) q
                ) WHERE r <= 10
            ),
            fused AS (
                SELECT coalesce(l.doc_id, d.doc_id) AS doc_id,
                       coalesce(1.0 / (60 + l.r), 0.0)
                     + coalesce(1.0 / (60 + d.r), 0.0) AS rrf
                FROM lex l FULL JOIN dense d ON l.doc_id = d.doc_id
            )
            SELECT CAST(rn - 1 AS BIGINT) AS rank, doc_id, rrf FROM (
                SELECT doc_id, rrf, row_number() OVER (
                    ORDER BY rrf DESC, doc_id ASC) AS rn
                FROM fused
            ) WHERE rn <= 10
        """
    # ----- pseudo-relevance feedback (prf_expand_topk) --------------------
    # First pass = the flagship f32 CTE for 'data'; feedback pseudo-doc =
    # token counts over the top-10 docs; selection = the driver-green MLT
    # rule (tf >= 2, df >= 5, top-10 by tf*idf, term asc ties); final
    # score = the clause-ordered f64 fold over [original + expansions].
    _prf_sql = f"""
            WITH {_scored_cte},
            fpq AS ({_flat_q(0, (), ("data",), ())}),
            fb AS (
                SELECT doc_id FROM (
                    SELECT doc_id, row_number() OVER (
                        ORDER BY score DESC, doc_id ASC) AS rn
                    FROM fpq
                ) WHERE rn <= 10
            ),
            tdoc AS (
                SELECT t AS term, count(*) AS ptf FROM (
                    SELECT unnest({_TOK}) AS t FROM documents
                    WHERE doc_id IN (SELECT doc_id FROM fb)
                ) GROUP BY t HAVING count(*) >= 2
            ),
            mlt AS (
                SELECT term, rn FROM (
                    SELECT tdoc.term, row_number() OVER (ORDER BY
                        tdoc.ptf * (ln((stats.n_docs + 1)
                                       / (dfs.df + 1.0)) + 1) DESC,
                        tdoc.term ASC) AS rn
                    FROM tdoc JOIN dfs ON dfs.t = tdoc.term, stats
                    WHERE dfs.df >= 5
                ) WHERE rn <= 10
            ),
            qterms AS (
                SELECT 'data' AS term, 0 AS ord
                UNION ALL
                SELECT term, row_number() OVER (ORDER BY rn) AS ord
                FROM mlt WHERE term <> 'data'
            ),
            scoredq AS (
                SELECT sc.doc_id,
                       CAST(list_reduce(list_prepend(CAST(0.0 AS DOUBLE),
                                list(CAST(sc.s AS DOUBLE) ORDER BY q.ord)),
                            (a, x) -> a + x) AS FLOAT) AS score
                FROM sc JOIN qterms q ON sc.t = q.term
                GROUP BY sc.doc_id
            )
            SELECT CAST(rn - 1 AS BIGINT) AS rank, doc_id, score FROM (
                SELECT doc_id, score, row_number() OVER (
                    ORDER BY score DESC, doc_id ASC) AS rn
                FROM scoredq
            ) WHERE rn <= 10
        """
    # ----- title-field query set (bm25_title_topk) ------------------------
    # The title field's own postings/norms/collection stats recompute from
    # the fixture title 'doc {doc_id} rep 0'; multi-term rewrites (prefix /
    # wildcard / fuzzy / range / regexp) replay as predicates over the
    # title dictionary. Every expansion clause is the query's ONLY scoring
    # clause, so the ordered group fold starts from the 0.0 accumulator.
    _title_cte = f"""{_scored_cte},
            ttok AS (SELECT doc_id, unnest({title_tok}) AS t FROM documents),
            ttf AS (SELECT doc_id, t, count(*) AS freq FROM ttok
                    GROUP BY doc_id, t),
            tstats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({title_tok})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tdfs AS (SELECT t, count(*) AS df FROM ttf GROUP BY t),
            tw AS (SELECT t, {_bm25_w("df")} AS w FROM tdfs, tstats AS stats),
            tnb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({title_tok}) AS n FROM documents)
            ),
            tcache AS (
                SELECT lt.b, {_bm25_cache_expr} AS inv
                FROM lt, (SELECT CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT)
                          AS avgdl FROM tstats) c
            ),
            tsc AS (
                SELECT ttf.doc_id, ttf.t,
                       {_bm25_score("tw.w", "ttf.freq", "k.inv")} AS s
                FROM ttf JOIN tw USING (t)
                JOIN tnb ON tnb.doc_id = ttf.doc_id
                JOIN tcache k ON k.b = tnb.b
            ),
            tpos AS (
                SELECT doc_id, unnest({title_tok}) AS t,
                       unnest(range(len({title_tok}))) AS p
                FROM documents
            ),
            bw AS (
                SELECT {_f32op("CAST(2.5 AS FLOAT)", "*", _bm25_w("df"))} AS w
                FROM tdfs, tstats AS stats WHERE t = 'doc'
            ),
            bsc AS (
                SELECT ttf.doc_id,
                       {_bm25_score("bw.w", "ttf.freq", "k.inv")} AS s
                FROM ttf
                JOIN tnb ON tnb.doc_id = ttf.doc_id
                JOIN tcache k ON k.b = tnb.b, bw
                WHERE ttf.t = 'doc'
            ),
            p9 AS (
                SELECT a.doc_id, count(*) AS freq
                FROM tpos a JOIN tpos b
                  ON a.doc_id = b.doc_id AND b.p = a.p + 1
                WHERE a.t = 'doc' AND b.t = '7'
                GROUP BY a.doc_id
            ),
            w9 AS (
                SELECT CAST(
                    CAST({_bm25_w("(SELECT df FROM tdfs WHERE t = 'doc')")}
                         AS DOUBLE)
                  + CAST({_bm25_w("(SELECT df FROM tdfs WHERE t = '7')")}
                         AS DOUBLE)
                  AS FLOAT) AS w
                FROM tstats AS stats
            )"""

    def _tgroup(qid: int, pred: str) -> str:
        """Expansion-only title query: ordered fold of the matching title
        terms' f32 scores (dictionary order = the rewrite's SHOULD order)."""
        return f"""
            SELECT {qid} AS query_id, doc_id,
                   CAST(list_reduce(list_prepend(CAST(0.0 AS DOUBLE),
                            list(CAST(s AS DOUBLE) ORDER BY t)),
                        (a, x) -> a + x) AS FLOAT) AS score
            FROM tsc WHERE {pred}
            GROUP BY doc_id"""

    _title_blocks = [
        # 0 'title:doc' / 1 'title:7' — single title TermQuery
        "SELECT 0 AS query_id, doc_id, s AS score FROM tsc WHERE t = 'doc'",
        "SELECT 1 AS query_id, doc_id, s AS score FROM tsc WHERE t = '7'",
        # 2 '+data title:5' — body MUST then title SHOULD
        """SELECT 2 AS query_id, t0.doc_id,
                  CAST(CAST(t0.s AS DOUBLE)
                     + coalesce(CAST(t1.s AS DOUBLE), 0.0) AS FLOAT) AS score
           FROM (SELECT doc_id, s FROM sc WHERE t = 'data') t0
           LEFT JOIN (SELECT doc_id, s FROM tsc WHERE t = '5') t1
             ON t1.doc_id = t0.doc_id""",
        # 3 '+title:rep +data' — cross-field conjunction, title MUST first
        """SELECT 3 AS query_id, t0.doc_id,
                  CAST(CAST(t0.s AS DOUBLE)
                     + CAST(t1.s AS DOUBLE) AS FLOAT) AS score
           FROM (SELECT doc_id, s FROM tsc WHERE t = 'rep') t0
           JOIN (SELECT doc_id, s FROM sc WHERE t = 'data') t1
             USING (doc_id)""",
        # 4 'data -title:3' — title-field exclusion
        """SELECT 4 AS query_id, doc_id, s AS score FROM sc
           WHERE t = 'data'
             AND doc_id NOT IN (SELECT doc_id FROM ttf WHERE t = '3')""",
        # 5 'title:re*' prefix / 6 'title:re?' wildcard /
        # 7 'title:rep~1' fuzzy (banded Levenshtein <= 1) /
        # 10 'title:[6 TO 8]' inclusive range / 11 'title:/d.c/' regexp
        _tgroup(5, "t LIKE 're%'"),
        _tgroup(6, "t LIKE 're_'"),
        _tgroup(7, "levenshtein(t, 'rep') <= 1"),
        # 8 'title:doc^2.5 data' — boosted title clause accumulates first
        """SELECT 8 AS query_id, m.doc_id,
                  CAST(coalesce(CAST(b.s AS DOUBLE), 0.0)
                     + coalesce(CAST(d.s AS DOUBLE), 0.0) AS FLOAT) AS score
           FROM (SELECT doc_id FROM ttf WHERE t = 'doc'
                 UNION SELECT doc_id FROM tf WHERE t = 'data') m
           LEFT JOIN bsc b ON b.doc_id = m.doc_id
           LEFT JOIN (SELECT doc_id, s FROM sc WHERE t = 'data') d
             ON d.doc_id = m.doc_id""",
        # 9 'title:"doc 7"' — title phrase: summed-idf weight, adjacency freq
        f"""SELECT 9 AS query_id, p9.doc_id,
                   {_bm25_score("w9.w", "p9.freq", "k.inv")} AS score
            FROM p9 JOIN tnb ON tnb.doc_id = p9.doc_id
            JOIN tcache k ON k.b = tnb.b, w9""",
        _tgroup(10, "t >= '6' AND t <= '8'"),
        _tgroup(11, "regexp_full_match(t, 'd.c')"),
    ]
    _title_sql = f"""
            WITH {_title_cte},
            allq AS ({" UNION ALL ".join(_title_blocks)})
            SELECT query_id, CAST(rn - 1 AS INTEGER) AS rank, doc_id, score
            FROM (
                SELECT query_id, doc_id, score, row_number() OVER (
                    PARTITION BY query_id
                    ORDER BY score DESC, doc_id ASC) AS rn
                FROM allq
            ) WHERE rn <= 10
        """
    # ----- Porter stemmer replayed in SQL (stemmed_top_terms oracle) ------
    # The 1980 algorithm as a CTE chain over the DISTINCT vocabulary:
    # each level recomputes the word's consonant/vowel pattern with a
    # list_reduce fold (y = vowel iff the pattern so far ends 'c'); the
    # fold is causal, so a stem's pattern is a PREFIX of the word's
    # pattern — measure/vowel/cvc conditions on suffix-stripped stems are
    # substr() on one pattern column. Validated 0-mismatch against
    # engine.filters.porter_stem on 5,629 words (corpus battery + fuzz).
    def _pcv(expr: str) -> str:
        return (
            "list_reduce(list_prepend('', regexp_extract_all(" + expr + ", '.')), "
            "(a, ch) -> a || (CASE WHEN ch IN ('a','e','i','o','u') THEN 'v' "
            "WHEN ch = 'y' AND a <> '' AND substr(a, length(a), 1) = 'c' THEN 'v' "
            "ELSE 'c' END))"
        )

    def _pm(pat: str) -> str:
        # collapse c+/v+ runs (RE2-safe), count 'vc' transitions
        return (
            "len(regexp_extract_all(regexp_replace(regexp_replace(" + pat
            + ", 'c+', 'c', 'g'), 'v+', 'v', 'g'), 'vc'))"
        )

    def _pstem_pat(L: int) -> str:
        return f"substr(pat, 1, length(s) - {L})"

    def _phas_v(L: int) -> str:
        return f"substr(pat, 1, length(s) - {L}) LIKE '%v%'"

    def _prule(pairs, min_m: int, step4: bool = False) -> str:
        # break-on-first-suffix-match, table order; failing measure keeps w
        outs = []
        for item in pairs:
            suf, rep = (item, "") if step4 else item
            L = len(suf)
            mcond = f"{_pm(_pstem_pat(L))} > {min_m}"
            if step4 and suf == "ion":
                mcond += (
                    f" AND length(s) > {L}"
                    f" AND substr(s, length(s) - {L}, 1) IN ('s','t')"
                )
            newv = f"substr(s, 1, length(s) - {L})" + (f" || '{rep}'" if rep else "")
            outs.append(
                f"WHEN s LIKE '%{suf}' THEN"
                f" (CASE WHEN {mcond} THEN {newv} ELSE s END)"
            )
        return "CASE " + " ".join(outs) + " ELSE s END"

    _P2 = [("ational", "ate"), ("tional", "tion"), ("enci", "ence"),
           ("anci", "ance"), ("izer", "ize"), ("abli", "able"), ("alli", "al"),
           ("entli", "ent"), ("eli", "e"), ("ousli", "ous"),
           ("ization", "ize"), ("ation", "ate"), ("ator", "ate"),
           ("alism", "al"), ("iveness", "ive"), ("fulness", "ful"),
           ("ousness", "ous"), ("aliti", "al"), ("iviti", "ive"),
           ("biliti", "ble")]
    _P3 = [("icate", "ic"), ("ative", ""), ("alize", "al"), ("iciti", "ic"),
           ("ical", "ic"), ("ful", ""), ("ness", "")]
    _P4 = ["al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
           "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive",
           "ize"]
    _pdbl = ("(length(s) >= 2 AND substr(s, length(s), 1) ="
             " substr(s, length(s) - 1, 1) AND substr(pat, length(s), 1) = 'c')")
    _pcvc = ("(length(s) >= 3 AND substr(pat, length(s) - 2, 3) = 'cvc'"
             " AND substr(s, length(s), 1) NOT IN ('w','x','y'))")
    _porter_ctes = f"""
        t1 AS (
            SELECT w, CASE
                WHEN w LIKE '%sses' OR w LIKE '%ies'
                    THEN substr(w, 1, length(w) - 2)
                WHEN w LIKE '%s' AND w NOT LIKE '%ss'
                    THEN substr(w, 1, length(w) - 1)
                ELSE w END AS s
            FROM vocab
        ),
        t2 AS (SELECT w, s, {_pcv('s')} AS pat FROM t1),
        t3 AS (
            SELECT w, CASE
                WHEN s LIKE '%eed' THEN
                    (CASE WHEN {_pm(_pstem_pat(3))} > 0
                          THEN substr(s, 1, length(s) - 1) ELSE s END)
                WHEN s LIKE '%ed' AND {_phas_v(2)}
                    THEN substr(s, 1, length(s) - 2)
                WHEN s LIKE '%ing' AND {_phas_v(3)}
                    THEN substr(s, 1, length(s) - 3)
                ELSE s END AS s,
                (s NOT LIKE '%eed' AND ((s LIKE '%ed' AND {_phas_v(2)})
                    OR (s LIKE '%ing' AND {_phas_v(3)}))) AS fired
            FROM t2
        ),
        t4 AS (SELECT w, s, fired, {_pcv('s')} AS pat FROM t3),
        t5 AS (
            SELECT w, CASE
                WHEN NOT fired THEN s
                WHEN s LIKE '%at' OR s LIKE '%bl' OR s LIKE '%iz' THEN s || 'e'
                WHEN {_pdbl} AND substr(s, length(s), 1) NOT IN ('l','s','z')
                    THEN substr(s, 1, length(s) - 1)
                WHEN {_pm('pat')} = 1 AND {_pcvc} THEN s || 'e'
                ELSE s END AS s
            FROM t4
        ),
        t6 AS (SELECT w, s, {_pcv('s')} AS pat FROM t5),
        t7 AS (
            SELECT w, CASE WHEN s LIKE '%y' AND {_phas_v(1)}
                           THEN substr(s, 1, length(s) - 1) || 'i'
                           ELSE s END AS s
            FROM t6
        ),
        t8 AS (SELECT w, s, {_pcv('s')} AS pat FROM t7),
        t9 AS (SELECT w, {_prule(_P2, 0)} AS s FROM t8),
        t10 AS (SELECT w, s, {_pcv('s')} AS pat FROM t9),
        t11 AS (SELECT w, {_prule(_P3, 0)} AS s FROM t10),
        t12 AS (SELECT w, s, {_pcv('s')} AS pat FROM t11),
        t13 AS (SELECT w, {_prule(_P4, 1, step4=True)} AS s FROM t12),
        t14 AS (SELECT w, s, {_pcv('s')} AS pat FROM t13),
        t15 AS (
            SELECT w, CASE WHEN s LIKE '%e' AND
                ({_pm(_pstem_pat(1))} > 1 OR ({_pm(_pstem_pat(1))} = 1 AND NOT
                  (length(s) - 1 >= 3
                   AND substr(pat, length(s) - 3, 3) = 'cvc'
                   AND substr(s, length(s) - 1, 1) NOT IN ('w','x','y'))))
                THEN substr(s, 1, length(s) - 1) ELSE s END AS s
            FROM t14
        ),
        t16 AS (SELECT w, s, {_pcv('s')} AS pat FROM t15),
        t17 AS (
            SELECT w, CASE WHEN {_pm('pat')} > 1 AND {_pdbl} AND s LIKE '%l'
                           THEN substr(s, 1, length(s) - 1) ELSE s END AS s
            FROM t16
        ),
        pstem AS (SELECT w, CASE WHEN length(w) <= 2 THEN w ELSE s END AS stem
                  FROM t17)"""

    _minhash_pairs_sql = f"""
            WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
            sh AS (
                SELECT DISTINCT doc_id,
                       array_to_string(ts[i + 1 : i + 3], ' ') AS s
                FROM (SELECT doc_id, ts,
                             unnest(range(CASE WHEN len(ts) >= 3
                                          THEN len(ts) - 2 ELSE 1 END)) AS i
                      FROM tok WHERE len(ts) > 0)
            ),
            shh AS (
                SELECT DISTINCT doc_id,
                       CAST({_fnv_str_sql("s")} AS HUGEINT) AS h
                FROM sh
            ),
            perm(j, a, b) AS (VALUES {_mh_values}),
            sig AS (
                SELECT doc_id, j,
                       min((((h % 4294967296) * a
                             + ((h // 4294967296) * a % 4294967296)
                               * 4294967296 + b)
                            % 18446744073709551616)
                           % 2305843009213693951) AS v
                FROM shh CROSS JOIN perm
                GROUP BY doc_id, j
            ),
            bands AS (
                SELECT doc_id, j // 4 AS band_id,
                       list(v ORDER BY j) AS key
                FROM sig GROUP BY doc_id, j // 4
            ),
            cand AS (
                SELECT DISTINCT x.doc_id AS doc_a, y.doc_id AS doc_b
                FROM bands x JOIN bands y
                  ON x.band_id = y.band_id AND x.key = y.key
                 AND x.doc_id < y.doc_id
            ),
            sz AS (SELECT doc_id, count(*) AS n FROM shh GROUP BY doc_id),
            inter AS (
                SELECT c.doc_a, c.doc_b, count(*) AS ni
                FROM cand c
                JOIN shh p ON p.doc_id = c.doc_a
                JOIN shh q ON q.doc_id = c.doc_b AND q.h = p.h
                GROUP BY c.doc_a, c.doc_b
            )
            SELECT c.doc_a, c.doc_b,
                   coalesce(i.ni, 0)
                   / (sa.n + sb.n - coalesce(i.ni, 0)) AS jaccard
            FROM cand c
            JOIN sz sa ON sa.doc_id = c.doc_a
            JOIN sz sb ON sb.doc_id = c.doc_b
            LEFT JOIN inter i ON i.doc_a = c.doc_a AND i.doc_b = c.doc_b
            WHERE coalesce(i.ni, 0)
                  / (sa.n + sb.n - coalesce(i.ni, 0)) >= 0.7
        """

    out = {
        # the doc-sharded scatter/gather plan is TopDocs.merge-exact vs the
        # single searcher, so both flagship entries share one oracle
        "bm25_topk": _refq_sql,
        "bm25_topk_sharded": _refq_sql,
        "replica_bm25_topk": _replica_sql,
        "rrf_fusion_topk": _rrf_sql,
        "mmr_rerank_topk": _mmr_sql(),
        "prf_expand_topk": _prf_sql,
        # QueryElevationComponent: docs 5, 2 pinned (config order, even if
        # non-matching — forceElevation), doc 0 excluded, organic 'data
        # join' ranking below the pins
        "elevate_topk": f"""
            WITH {_scored_cte},
            q AS ({_flat_q(0, (), ("data", "join"), ())}),
            organic AS (
                SELECT doc_id, row_number() OVER (
                    ORDER BY score DESC, doc_id ASC) AS rn
                FROM q WHERE doc_id NOT IN (5, 2, 0)
            ),
            pinned(doc_id, rn) AS (VALUES (5, 0), (2, 1))
            SELECT CAST(rank AS BIGINT) AS rank, doc_id, elevated FROM (
                SELECT doc_id, rn AS rank, TRUE AS elevated FROM pinned
                UNION ALL
                SELECT doc_id, rn + 1 AS rank, FALSE AS elevated
                FROM organic
            ) WHERE rank <= 9
        """,
        # CoveringQuery (sandbox): minMatch(doc) = 1 + length(text) % 3
        # (LongValuesSource over the n_chars DV), match iff >= minMatch of
        # the 4 clauses hit; score = double-accumulated f32 clause scores
        # in clause order, cast f32 (the 0.0-prepended ordered fold)
        "covering_query_topk": f"""
            WITH {_scored_cte},
            cov AS (
                SELECT doc_id,
                       CAST(list_reduce(
                            list_prepend(CAST(0.0 AS DOUBLE),
                                list(CAST(s AS DOUBLE) ORDER BY ord)),
                            (a, x) -> a + x) AS FLOAT) AS score,
                       count(*) AS cnt
                FROM (
                    SELECT doc_id, s,
                           CASE t WHEN 'data' THEN 0 WHEN 'join' THEN 1
                                  WHEN 'merge' THEN 2 ELSE 3 END AS ord
                    FROM sc WHERE t IN ('data', 'join', 'merge', 'query')
                ) GROUP BY doc_id
            ),
            mm AS (SELECT doc_id, 1 + length(text) % 3 AS min_match
                   FROM documents)
            SELECT CAST(rn - 1 AS BIGINT) AS rank, doc_id, score FROM (
                SELECT cov.doc_id, cov.score, row_number() OVER (
                    ORDER BY cov.score DESC, cov.doc_id ASC) AS rn
                FROM cov JOIN mm ON mm.doc_id = cov.doc_id
                WHERE cov.cnt >= mm.min_match
            ) WHERE rn <= 10
        """,
        # searchAfter deep paging: chained pages == OFFSET pagination of
        # one big top-k (the collector order is total, so page p is ranks
        # [p*k, p*k+k) exactly — search/IndexSearcher.java:416-433)
        "bm25_search_after_pages": f"""
            WITH {_scored_cte},
            q AS ({_flat_q(0, (), ("data", "join"), ())})
            SELECT CAST(rn - 1 AS INTEGER) AS rank, doc_id, score FROM (
                SELECT doc_id, score, row_number() OVER (
                    ORDER BY score DESC, doc_id ASC) AS rn
                FROM q
            ) WHERE rn <= 30
        """,
        # Solr cursorMark page 2 over the sharded path = ranks 10..19 of
        # the same total order (shard-local paging against the global mark
        # commutes with the TopDocs merge)
        "cursor_mark_sharded": f"""
            WITH {_scored_cte},
            q AS ({_flat_q(0, (), ("data", "join"), ())})
            SELECT CAST(rn - 1 AS INTEGER) AS rank, doc_id, score FROM (
                SELECT doc_id, score, row_number() OVER (
                    ORDER BY score DESC, doc_id ASC) AS rn
                FROM q
            ) WHERE rn BETWEEN 11 AND 20
        """,
        # QueryRescorer + Solr ReRank combine: window = first-pass top-30,
        # combined = (float)((double)first + 2.0 * (double)second) when the
        # rerank term matches (ReRankQParserPlugin.java:86-92; += in Java
        # promotes to double then casts back to float), first-pass float
        # unchanged otherwise; re-sort (score desc, doc asc), top 10
        "rerank_topk": f"""
            WITH {_scored_cte},
            q AS ({_flat_q(0, (), ("data", "join"), ())}),
            win AS (
                SELECT doc_id, score FROM (
                    SELECT doc_id, score, row_number() OVER (
                        ORDER BY score DESC, doc_id ASC) AS rn
                    FROM q
                ) WHERE rn <= 30
            ),
            comb AS (
                SELECT win.doc_id,
                       CASE WHEN r2.doc_id IS NULL THEN win.score
                            ELSE CAST(CAST(win.score AS DOUBLE)
                                      + 2.0 * CAST(r2.s AS DOUBLE) AS FLOAT)
                       END AS score
                FROM win LEFT JOIN (
                    SELECT doc_id, s FROM sc WHERE t = 'merge'
                ) r2 ON r2.doc_id = win.doc_id
            )
            SELECT CAST(rn - 1 AS INTEGER) AS rank, doc_id, score FROM (
                SELECT doc_id, score, row_number() OVER (
                    ORDER BY score DESC, doc_id ASC) AS rn
                FROM comb
            ) WHERE rn <= 10
        """,
        "bm25_title_topk": _title_sql,
        "title_term_df": f"""
            SELECT term, count(*) AS df, CAST(sum(cnt) AS BIGINT) AS ttf FROM (
                SELECT doc_id, t AS term, count(*) AS cnt FROM (
                    SELECT doc_id, unnest({title_tok}) AS t FROM documents
                ) GROUP BY doc_id, t
            ) GROUP BY term
        """,
        # leading-wildcard WildcardQuery (*er) via the reversed
        # dictionary: docs containing any token ending with 'er'
        "leading_wildcard_docs": f"""
            SELECT DISTINCT doc_id FROM (
                SELECT doc_id, unnest({_TOK}) AS t FROM documents
            ) WHERE t LIKE '%er'
        """,
        "phrase_slop_match_docs": f"""
            WITH tok AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            )
            SELECT DISTINCT a.doc_id FROM tok a JOIN tok b USING (doc_id)
            WHERE a.t = 'data' AND b.t = 'join' AND abs((b.p - 1) - a.p) <= 2
        """,
        # ordered SpanNear(data, join, slop=3): one candidate per 'data'
        # position p1, greedily stretched to the first 'join' start >= p1+1
        # (NearSpansOrdered.java:60-121); the greedy minimum satisfies the
        # slop bound iff ANY p2 in (p1, p1+1+slop] does, so matches =
        # count of such p1
        "span_near_match_docs": f"""
            WITH tok AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            a AS (SELECT doc_id, p FROM tok WHERE t = 'data'),
            b AS (SELECT doc_id, p FROM tok WHERE t = 'join')
            SELECT doc_id, CAST(count(*) AS BIGINT) AS matches FROM (
                SELECT DISTINCT a.doc_id, a.p FROM a JOIN b USING (doc_id)
                WHERE b.p > a.p AND b.p <= a.p + 4
            ) GROUP BY doc_id
        """,
        # unordered SpanNear(hash, merge, slop=2): two unit-width term
        # spans window-match iff maxEnd - minStart - 2 <= slop, i.e.
        # |a - b| - 1 <= slop (NearSpansUnordered.java:94)
        "span_unordered_match_docs": f"""
            WITH tok AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            )
            SELECT DISTINCT a.doc_id FROM tok a JOIN tok b USING (doc_id)
            WHERE a.t = 'hash' AND b.t = 'merge' AND abs(a.p - b.p) <= 3
        """,
        # SpanFirst(data, end=5): unit spans with end position <= 5
        "span_first_match_docs": f"""
            WITH tok AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            )
            SELECT doc_id, CAST(count(*) AS BIGINT) AS matches
            FROM tok WHERE t = 'data' AND p + 1 <= 5 GROUP BY doc_id
        """,
        # SpanContaining(near(data, join, slop=4), the): big = qualifying
        # greedy windows (p1, mp = min join pos > p1, gap <= slop); with
        # unit littles and start-ordered bigs the greedy monotone little
        # pointer (SpanContainingQuery.java:98-116) equals
        # exists-containment per big, so matches = count of windows
        # enclosing a 'the' position (p1 <= q <= mp)
        "span_containing_docs": f"""
            WITH tok AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            a AS (SELECT doc_id, p FROM tok WHERE t = 'data'),
            b AS (SELECT doc_id, p FROM tok WHERE t = 'join'),
            big AS (
                SELECT a.doc_id, a.p AS st, min(b.p) AS mp
                FROM a JOIN b USING (doc_id) WHERE b.p > a.p
                GROUP BY a.doc_id, a.p
                HAVING min(b.p) - a.p - 1 <= 4
            )
            SELECT doc_id, CAST(count(*) AS BIGINT) AS matches FROM big
            WHERE EXISTS (
                SELECT 1 FROM tok l
                WHERE l.doc_id = big.doc_id AND l.t = 'the'
                  AND l.p BETWEEN big.st AND big.mp
            ) GROUP BY doc_id
        """,
        # SpanWithin(near(data, join, slop=6), merge): ordered-near big
        # spans have non-decreasing (start, end), so the greedy monotone
        # big pointer (SpanWithinQuery.java:98-118) equals exists-enclosure
        # per little — matches = count of 'merge' positions inside any
        # qualifying window
        "span_within_docs": f"""
            WITH tok AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            a AS (SELECT doc_id, p FROM tok WHERE t = 'data'),
            b AS (SELECT doc_id, p FROM tok WHERE t = 'join'),
            big AS (
                SELECT a.doc_id, a.p AS st, min(b.p) AS mp
                FROM a JOIN b USING (doc_id) WHERE b.p > a.p
                GROUP BY a.doc_id, a.p
                HAVING min(b.p) - a.p - 1 <= 6
            )
            SELECT doc_id, CAST(count(*) AS BIGINT) AS matches FROM (
                SELECT DISTINCT l.doc_id, l.p FROM tok l JOIN big
                  ON big.doc_id = l.doc_id
                WHERE l.t = 'merge' AND l.p BETWEEN big.st AND big.mp
            ) GROUP BY doc_id
        """,
        # ordered SpanNear(SpanOr(data, merge), join, slop=2): one
        # candidate per union position p (SpanOrQuery merged spans),
        # greedily stretched to the first join start > p; qualifies iff
        # any join position lies in (p, p + 1 + slop]
        "span_or_near_docs": f"""
            WITH tok AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            a AS (SELECT doc_id, p FROM tok WHERE t IN ('data', 'merge')),
            b AS (SELECT doc_id, p FROM tok WHERE t = 'join')
            SELECT doc_id, CAST(count(*) AS BIGINT) AS matches FROM (
                SELECT DISTINCT a.doc_id, a.p FROM a JOIN b USING (doc_id)
                WHERE b.p > a.p AND b.p <= a.p + 3
            ) GROUP BY doc_id
        """,
        # SpanNot(near(data, join, slop=2), dup): the greedy include span
        # for p1 is (p1, mp+1) with mp = min join pos > p1; it survives iff
        # no 'dup' position lies in [p1, mp] (SpanNotQuery.java:149-190,
        # pre = post = 0)
        "span_not_match_docs": f"""
            WITH tok AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            a AS (SELECT doc_id, p FROM tok WHERE t = 'data'),
            b AS (SELECT doc_id, p FROM tok WHERE t = 'join'),
            e AS (SELECT doc_id, p FROM tok WHERE t = 'dup'),
            inc AS (
                SELECT a.doc_id, a.p AS st, min(b.p) AS mp
                FROM a JOIN b USING (doc_id) WHERE b.p > a.p
                GROUP BY a.doc_id, a.p
                HAVING min(b.p) - a.p - 1 <= 2
            )
            SELECT DISTINCT inc.doc_id FROM inc
            WHERE NOT EXISTS (
                SELECT 1 FROM e
                WHERE e.doc_id = inc.doc_id AND e.p BETWEEN inc.st AND inc.mp
            )
        """,
        # percolator (lucene/monitor): registered query set vs the doc
        # stream; one containment predicate per registered query
        "percolate_matches": f"""
            WITH tok AS (
                SELECT doc_id, {_TOK} AS ts,
                       ' ' || array_to_string({_TOK}, ' ') || ' ' AS s
                FROM documents
            ),
            pos AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            m AS (
                SELECT doc_id, 'q_data' AS query_id FROM tok
                WHERE list_contains(ts, 'data')
                UNION ALL
                SELECT doc_id, 'q_conj' FROM tok
                WHERE list_contains(ts, 'data') AND list_contains(ts, 'join')
                UNION ALL
                SELECT doc_id, 'q_phrase' FROM tok WHERE s LIKE '% data join %'
                UNION ALL
                SELECT doc_id, 'q_disj' FROM tok
                WHERE list_contains(ts, 'hash') OR list_contains(ts, 'merge')
                UNION ALL
                SELECT doc_id, 'q_not' FROM tok
                WHERE list_contains(ts, 'hash') AND NOT list_contains(ts, 'dup')
                UNION ALL
                SELECT DISTINCT a.doc_id, 'q_sloppy'
                FROM pos a JOIN pos b USING (doc_id)
                WHERE a.t = 'data' AND b.t = 'join'
                  AND abs((b.p - 1) - a.p) <= 2
                UNION ALL
                SELECT doc_id, 'q_prefix' FROM tok
                WHERE len(list_filter(ts, x -> x LIKE 'jo%')) > 0
                UNION ALL
                SELECT doc_id, 'q_nested' FROM tok
                WHERE (list_contains(ts, 'data') OR list_contains(ts, 'join'))
                  AND (list_contains(ts, 'hash') OR list_contains(ts, 'merge'))
            )
            SELECT doc_id, query_id FROM m
        """,
        # DrillSideways: per dimension, facet counts over base + the
        # OTHER dimension's filter; plus the fully-drilled hit count
        "drill_sideways": f"""
            WITH d AS (
                SELECT lang, source,
                       list_contains({_TOK}, 'data') AS base
                FROM documents
            ),
            m AS (
                SELECT 'lang' AS dim, lang AS value,
                       CAST(count(*) AS BIGINT) AS cnt
                FROM d WHERE base AND source = 'src3' GROUP BY lang
                UNION ALL
                SELECT 'source', source, CAST(count(*) AS BIGINT)
                FROM d WHERE base AND lang = 'en' GROUP BY source
                UNION ALL
                SELECT 'drilldown', '', CAST(count(*) AS BIGINT)
                FROM d WHERE base AND lang = 'en' AND source = 'src3'
            )
            SELECT dim, value, cnt FROM m WHERE cnt > 0
        """,
        # CommonTermsQuery: hit set = docs containing every LOW-freq
        # query term (df <= ceil(0.25 * N)); high-freq terms only score
        # CommonGramsFilter gram-term postings: 'the_data' freq ==
        # count of adjacent (the, data) pairs per doc
        "common_grams_docs": f"""
            WITH toks AS (
                SELECT doc_id, unnest({_TOK}) AS tok,
                       generate_subscripts({_TOK}, 1) AS ord
                FROM documents
            )
            SELECT a.doc_id, CAST(count(*) AS BIGINT) AS freq
            FROM toks a JOIN toks b
              ON a.doc_id = b.doc_id AND b.ord = a.ord + 1
            WHERE a.tok = 'the' AND b.tok = 'data'
            GROUP BY a.doc_id
        """,
        "common_terms_match_docs": f"""
            WITH tdf AS (
                SELECT term, count(*) AS df FROM ({tok_pairs}) GROUP BY term
            ),
            n AS (SELECT count(*) AS c FROM documents),
            qt AS (SELECT unnest(['dup', 'data', 'join']) AS term),
            low AS (
                SELECT qt.term FROM qt LEFT JOIN tdf USING (term)
                WHERE coalesce(tdf.df, 0) <= ceil(0.25 * (SELECT c FROM n))
            )
            SELECT doc_id FROM documents
            WHERE CASE WHEN (SELECT count(*) FROM low) > 0
                THEN NOT EXISTS (SELECT 1 FROM low
                                 WHERE NOT list_contains({_TOK}, low.term))
                ELSE NOT EXISTS (SELECT 1 FROM qt
                                 WHERE NOT list_contains({_TOK}, qt.term))
            END
        """,
        # NRT reopen: the 'data' doc set plus the recrawl batch's shifted
        # ids (first 50 docs re-added as doc_id + N)
        "nrt_match_docs": f"""
            SELECT doc_id FROM documents WHERE list_contains({_TOK}, 'data')
            UNION ALL
            SELECT doc_id + (SELECT count(*) FROM documents) AS doc_id
            FROM documents
            WHERE doc_id < 50 AND list_contains({_TOK}, 'data')
        """,
        # stored term vector of one doc: (term, position) rows
        "term_vector_doc": f"""
            SELECT t AS term, p AS pos FROM (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ) WHERE doc_id = 7
        """,
        # StatsComponent: n_chars stats over the 'data' result set
        "stats_component_nchars": f"""
            SELECT CAST(count(*) AS BIGINT) AS count,
                   CAST(min(n_chars) AS BIGINT) AS min,
                   CAST(max(n_chars) AS BIGINT) AS max,
                   CAST(sum(n_chars) AS BIGINT) AS sum
            FROM documents WHERE list_contains({_TOK}, 'data')
        """,
        # pivot facets: top-3 langs, top-2 sources within each
        "pivot_facet_docs": """
            WITH pairs AS (
                SELECT lang, source, count(*) AS cnt FROM documents
                GROUP BY lang, source
            ),
            outer_l AS (
                SELECT lang, CAST(sum(cnt) AS BIGINT) AS lang_count,
                       row_number() OVER (
                           ORDER BY sum(cnt) DESC, lang ASC) AS rl
                FROM pairs GROUP BY lang
            )
            SELECT lang, lang_count, source,
                   CAST(cnt AS BIGINT) AS source_count
            FROM (
                SELECT o.lang, o.lang_count, p.source, p.cnt,
                       row_number() OVER (
                           PARTITION BY o.lang
                           ORDER BY p.cnt DESC, p.source ASC) AS rs
                FROM outer_l o JOIN pairs p USING (lang)
                WHERE o.rl <= 3
            ) WHERE rs <= 2
        """,
        # index-time synonym graph: '"quick row"' phrase == 'fast row'
        # adjacency ('quick' stacked at each 'fast' position)
        "synonym_phrase_match_docs": f"""
            WITH pos AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            )
            SELECT DISTINCT a.doc_id
            FROM pos a JOIN pos b ON a.doc_id = b.doc_id AND b.p = a.p + 1
            WHERE a.t = 'fast' AND b.t = 'row'
        """,
        # liveDocs: match set of 'data' after deleteDocuments('dup')
        "live_term_match_docs": f"""
            SELECT doc_id FROM documents
            WHERE list_contains({_TOK}, 'data')
              AND NOT list_contains({_TOK}, 'dup')
        """,
        # SpanMultiTermQueryWrapper: SpanNear('the', SpanOr(s*), slop=1,
        # ordered) — one candidate per 'the' position, matched iff any
        # s-prefixed token starts within (p1, p1 + 2]
        "span_near_wildcard_docs": f"""
            WITH tok AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            a AS (SELECT doc_id, p FROM tok WHERE t = 'the'),
            b AS (SELECT doc_id, p FROM tok WHERE t LIKE 's%')
            SELECT doc_id, CAST(count(*) AS BIGINT) AS matches FROM (
                SELECT DISTINCT a.doc_id, a.p FROM a JOIN b USING (doc_id)
                WHERE b.p > a.p AND b.p <= a.p + 2
            ) GROUP BY doc_id
        """,
        # omitNorms: every doc scores as length 1 — ONE cache value
        # (the SmallFloat byte for 1), clause sums unchanged otherwise
        "omit_norms_topk": f"""
            WITH stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            tfa AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'data' GROUP BY doc_id),
            tfb AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'join' GROUP BY doc_id),
            c AS (
                SELECT {_bm25_w("(SELECT count(*) FROM tfa)")} AS wa,
                       {_bm25_w("(SELECT count(*) FROM tfb)")} AS wb,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (SELECT {_bm25_cache_expr.replace("CAST(lt.lo AS FLOAT)", "CAST(1 AS FLOAT)")} AS inv FROM c),
            pairs AS (
                SELECT coalesce(tfa.doc_id, tfb.doc_id) AS doc_id,
                       tfa.freq AS fa, tfb.freq AS fb
                FROM tfa FULL OUTER JOIN tfb ON tfa.doc_id = tfb.doc_id
            ),
            scored AS (
                SELECT p.doc_id,
                       CAST(
                         coalesce(CAST({_bm25_score("c.wa", "p.fa", "k.inv")}
                                       AS DOUBLE), 0.0)
                       + coalesce(CAST({_bm25_score("c.wb", "p.fb", "k.inv")}
                                       AS DOUBLE), 0.0)
                       AS FLOAT) AS score
                FROM pairs p, cache k, c
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score
                FROM scored
            ) WHERE rank < 10
        """,
        # IndexSearcher.count over the reference shapes
        "query_counts": f"""
            SELECT query, n FROM (
                SELECT 'data' AS query, CAST(count(*) AS BIGINT) AS n
                FROM documents WHERE list_contains({_TOK}, 'data')
                UNION ALL
                SELECT 'data join', CAST(count(*) AS BIGINT) FROM documents
                WHERE list_contains({_TOK}, 'data')
                   OR list_contains({_TOK}, 'join')
                UNION ALL
                SELECT '+data +join', CAST(count(*) AS BIGINT) FROM documents
                WHERE list_contains({_TOK}, 'data')
                  AND list_contains({_TOK}, 'join')
                UNION ALL
                SELECT '+data -dup', CAST(count(*) AS BIGINT) FROM documents
                WHERE list_contains({_TOK}, 'data')
                  AND NOT list_contains({_TOK}, 'dup')
                UNION ALL
                SELECT '"data join"', CAST(count(*) AS BIGINT) FROM (
                    SELECT DISTINCT a.doc_id FROM (
                        SELECT doc_id, unnest({_TOK}) AS t,
                               unnest(range(len({_TOK}))) AS p
                        FROM documents) a
                    JOIN (
                        SELECT doc_id, unnest({_TOK}) AS t,
                               unnest(range(len({_TOK}))) AS p
                        FROM documents) b USING (doc_id)
                    WHERE a.t = 'data' AND b.t = 'join' AND b.p = a.p + 1
                )
                UNION ALL
                SELECT '*', CAST(count(*) AS BIGINT) FROM documents
            )
        """,
        # deleteDocuments(Query '+dup +slow'): the masked set removes
        # only docs containing BOTH terms
        "live_query_match_docs": f"""
            SELECT doc_id FROM documents
            WHERE list_contains({_TOK}, 'data')
              AND NOT (list_contains({_TOK}, 'dup')
                       AND list_contains({_TOK}, 'slow'))
        """,
        # Luke-role index overview: recompute every stat from source
        "index_stats": f"""
            SELECT 'body' AS field,
                   (SELECT count(*) FROM documents) AS doc_count,
                   (SELECT count(DISTINCT term) FROM ({tok_pairs})) AS n_terms,
                   (SELECT CAST(sum(cnt) AS BIGINT) FROM ({tok_pairs})) AS sum_ttf
        """,
        # minimal ordered intervals (Clarke-Cormack): pairs (a, b) with
        # b = first 'join' after a, a = last 'data' before b, gap filter
        "intervals_ordered_docs": f"""
            WITH pos AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            a AS (SELECT doc_id, p FROM pos WHERE t = 'data'),
            b AS (SELECT doc_id, p FROM pos WHERE t = 'join'),
            pairs AS (
                SELECT a.doc_id, a.p AS ap,
                       (SELECT min(b.p) FROM b
                        WHERE b.doc_id = a.doc_id AND b.p > a.p) AS bp
                FROM a
            ),
            minimal AS (
                SELECT doc_id, ap, bp FROM pairs
                WHERE bp IS NOT NULL
                  AND ap = (SELECT max(a2.p) FROM a a2
                            WHERE a2.doc_id = pairs.doc_id AND a2.p < bp)
                  AND bp - ap - 1 <= 2
            )
            SELECT doc_id, CAST(count(*) AS BIGINT) AS matches
            FROM minimal GROUP BY doc_id
        """,
        # minimal unordered intervals of two unit terms = adjacent
        # hetero-type pairs in the merged position sequence; maxwidth 4
        "intervals_unordered_docs": f"""
            WITH pos AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            seq AS (
                SELECT doc_id, p, t,
                       lead(p) OVER (PARTITION BY doc_id ORDER BY p) AS np,
                       lead(t) OVER (PARTITION BY doc_id ORDER BY p) AS nt
                FROM pos WHERE t IN ('hash', 'merge')
            )
            SELECT doc_id, CAST(count(*) AS BIGINT) AS matches
            FROM seq
            WHERE nt IS NOT NULL AND nt <> t AND np - p + 1 <= 4
            GROUP BY doc_id
        """,
        # index-sorted early-terminating top-k with a term filter
        "sorted_index_topk": f"""
            SELECT CAST(rn - 1 AS BIGINT) AS rank, doc_id, n_chars
            FROM (
                SELECT doc_id, n_chars, row_number() OVER (
                    ORDER BY n_chars DESC, doc_id ASC) AS rn
                FROM documents WHERE list_contains({_TOK}, 'data')
            ) WHERE rn <= 20
        """,
        # FreeTextSuggester (stupid-backoff bigram LM): per-model top-10
        # by (count desc, gram asc), score = (long)(((2^63 * backoff) *
        # count) / contextCount), unigram model backs off by 0.4 and
        # skips last-tokens the bigram model already predicted
        # stupid-backoff bigram LM doc scoring (the perplexity-filter
        # pass): p(b|a) = big/uni(a) when seen, else 0.4*uni(b)/total
        # (FreeTextSuggester ALPHA), logprob = left-assoc f64 fold of
        # ln(p) in token order — double division and libm ln are
        # bit-identical across numpy/DuckDB on this host (CLAUDE.md lore)
        "lm_doc_logprob": f"""
            WITH pos AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            uni AS (SELECT t, count(*) AS c FROM pos GROUP BY t),
            tot AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM pos),
            trans AS (
                SELECT x.doc_id, x.p, x.t AS a, y.t AS b
                FROM pos x JOIN pos y
                  ON x.doc_id = y.doc_id AND y.p = x.p + 1
            ),
            big AS (SELECT a AS t1, b AS t2, count(*) AS c
                    FROM trans GROUP BY a, b),
            pv AS (
                SELECT tr.doc_id, tr.p,
                       CASE WHEN bg.c IS NOT NULL
                            THEN ln(CAST(bg.c AS DOUBLE) / u1.c)
                            ELSE ln(0.4 * CAST(u2.c AS DOUBLE)
                                    / (SELECT n FROM tot))
                       END AS lp
                FROM trans tr
                JOIN uni u1 ON u1.t = tr.a
                JOIN uni u2 ON u2.t = tr.b
                LEFT JOIN big bg ON bg.t1 = tr.a AND bg.t2 = tr.b
            )
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_trans,
                   list_reduce(
                       list_prepend(CAST(0.0 AS DOUBLE),
                                    list(lp ORDER BY p)),
                       (x, y) -> x + y) AS logprob
            FROM pv GROUP BY doc_id
        """,
        # CCNet head/middle/tail bucketing: avg = logprob / n_trans (one
        # exact f64 division over the bit-exact lm chain), fixed cutoffs
        # -3.39 / -3.42 — identical doubles compare identically
        "ccnet_buckets": f"""
            WITH pos AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            uni AS (SELECT t, count(*) AS c FROM pos GROUP BY t),
            tot AS (SELECT CAST(count(*) AS DOUBLE) AS n FROM pos),
            trans AS (
                SELECT x.doc_id, x.p, x.t AS a, y.t AS b
                FROM pos x JOIN pos y
                  ON x.doc_id = y.doc_id AND y.p = x.p + 1
            ),
            big AS (SELECT a AS t1, b AS t2, count(*) AS c
                    FROM trans GROUP BY a, b),
            pv AS (
                SELECT tr.doc_id, tr.p,
                       CASE WHEN bg.c IS NOT NULL
                            THEN ln(CAST(bg.c AS DOUBLE) / u1.c)
                            ELSE ln(0.4 * CAST(u2.c AS DOUBLE)
                                    / (SELECT n FROM tot))
                       END AS lp
                FROM trans tr
                JOIN uni u1 ON u1.t = tr.a
                JOIN uni u2 ON u2.t = tr.b
                LEFT JOIN big bg ON bg.t1 = tr.a AND bg.t2 = tr.b
            ),
            lp AS (
                SELECT doc_id, CAST(count(*) AS BIGINT) AS n_trans,
                       list_reduce(
                           list_prepend(CAST(0.0 AS DOUBLE),
                                        list(lp ORDER BY p)),
                           (x, y) -> x + y) AS logprob
                FROM pv GROUP BY doc_id
            )
            SELECT doc_id, n_trans,
                   logprob / n_trans AS avg_logprob,
                   CASE WHEN logprob / n_trans > -3.39 THEN 'head'
                        WHEN logprob / n_trans > -3.42 THEN 'middle'
                        ELSE 'tail' END AS bucket
            FROM lp
        """,
        "free_text_suggest": f"""
            WITH pos AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            uni AS (SELECT t, count(*) AS c FROM pos GROUP BY t),
            tot AS (SELECT CAST(sum(c) AS DOUBLE) AS s FROM uni),
            big AS (
                SELECT a.t AS t1, b.t AS t2, count(*) AS c
                FROM pos a JOIN pos b
                  ON a.doc_id = b.doc_id AND b.p = a.p + 1
                GROUP BY a.t, b.t
            ),
            lmax AS (SELECT CAST(9223372036854775807 AS DOUBLE) AS v),
            k1 AS (
                SELECT 'data ' AS key, t1 || ' ' || t2 AS suggestion,
                       CAST(trunc((((SELECT v FROM lmax) * 1.0)
                            * CAST(c AS DOUBLE))
                            / CAST((SELECT c FROM uni WHERE t = 'data')
                                   AS DOUBLE)) AS BIGINT) AS score
                FROM (SELECT *, row_number() OVER (
                          ORDER BY c DESC, t2 ASC) AS rn
                      FROM big WHERE t1 = 'data')
                WHERE rn <= 10
            ),
            k2 AS (
                SELECT 'so' AS key, t AS suggestion,
                       CAST(trunc((((SELECT v FROM lmax) * 1.0)
                            * CAST(c AS DOUBLE))
                            / (SELECT s FROM tot)) AS BIGINT) AS score
                FROM (SELECT *, row_number() OVER (
                          ORDER BY c DESC, t ASC) AS rn
                      FROM uni WHERE t LIKE 'so%')
                WHERE rn <= 10
            ),
            k3b AS (
                SELECT t2, t1 || ' ' || t2 AS suggestion,
                       CAST(trunc((((SELECT v FROM lmax) * 1.0)
                            * CAST(c AS DOUBLE))
                            / CAST((SELECT c FROM uni WHERE t = 'data')
                                   AS DOUBLE)) AS BIGINT) AS score
                FROM (SELECT *, row_number() OVER (
                          ORDER BY c DESC, t2 ASC) AS rn
                      FROM big WHERE t1 = 'data' AND t2 LIKE 'jo%')
                WHERE rn <= 10
            ),
            k3u AS (
                SELECT t AS suggestion,
                       CAST(trunc((((SELECT v FROM lmax) * 0.4)
                            * CAST(c AS DOUBLE))
                            / (SELECT s FROM tot)) AS BIGINT) AS score
                FROM (SELECT *, row_number() OVER (
                          ORDER BY c DESC, t ASC) AS rn
                      FROM uni WHERE t LIKE 'jo%'
                        AND t NOT IN (SELECT t2 FROM k3b))
                WHERE rn <= 10
            ),
            k3 AS (
                SELECT 'data jo' AS key, suggestion, score FROM k3b
                UNION ALL
                SELECT 'data jo', suggestion, score FROM k3u
            ),
            allk AS (
                SELECT * FROM k1 UNION ALL SELECT * FROM k2
                UNION ALL SELECT * FROM k3
            )
            SELECT key, CAST(rn - 1 AS BIGINT) AS rank, suggestion, score
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY key
                      ORDER BY score DESC, suggestion ASC) AS rn
                  FROM allk)
            WHERE rn <= 10
        """,
        # SimpleNaiveBayesClassifier self-classification replayed exactly:
        # integer model stats (df_c, n_classed, hits, total_uniq), the
        # reference op order for prior/den, and the per-occurrence ln-sum
        # folded in DOC ORDER starting from the prior (list_reduce with
        # the prior prepended — the engine's s = prior; s += ln(...) chain);
        # first strict max over sorted classes = (s DESC, class ASC)
        "nb_classify": f"""
            WITH pos AS (
                SELECT doc_id, unnest({_TOK}) AS w,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            cls AS (
                SELECT lang AS c, count(*) AS df_c,
                       CAST(sum(len(list_distinct({_TOK}))) AS BIGINT) AS uniq
                FROM documents GROUP BY lang
            ),
            nn AS (
                SELECT CAST(sum(df_c) AS BIGINT) AS n_classed,
                       CAST(sum(uniq) AS BIGINT) AS total_uniq
                FROM cls
            ),
            den AS (
                SELECT c, df_c,
                       ((SELECT total_uniq FROM nn)
                        / (SELECT n_classed FROM nn)) * df_c
                       + (SELECT n_classed FROM nn) AS den,
                       ln(CAST(df_c AS DOUBLE))
                       - ln(CAST((SELECT n_classed FROM nn) AS DOUBLE))
                           AS prior
                FROM cls
            ),
            hits AS (
                SELECT lang AS c, t AS w, count(*) AS h FROM (
                    SELECT DISTINCT doc_id, lang, unnest({_TOK}) AS t
                    FROM documents
                ) GROUP BY lang, t
            ),
            logv AS (
                SELECT pos.doc_id, pos.p, den.c, den.prior,
                       ln((coalesce(hits.h, 0) + 1) / den.den) AS v
                FROM pos CROSS JOIN den
                LEFT JOIN hits ON hits.c = den.c AND hits.w = pos.w
            ),
            folds AS (
                SELECT doc_id, c,
                       list_reduce(
                           list_prepend(any_value(prior),
                               list(v ORDER BY p)),
                           (a, x) -> a + x) AS s
                FROM logv GROUP BY doc_id, c
            ),
            scored AS (
                SELECT d.doc_id, den.c, coalesce(f.s, den.prior) AS s
                FROM documents d CROSS JOIN den
                LEFT JOIN folds f ON f.doc_id = d.doc_id AND f.c = den.c
            )
            SELECT doc_id, c AS assigned_class FROM (
                SELECT doc_id, c, row_number() OVER (
                    PARTITION BY doc_id ORDER BY s DESC, c ASC) AS rn
                FROM scored
            ) WHERE rn = 1
        """,
        # NB training sufficient statistics: docs of class containing term
        "nb_train_stats": f"""
            SELECT lang AS class, t AS term, CAST(count(*) AS BIGINT) AS hits
            FROM (
                SELECT DISTINCT doc_id, lang, unnest({_TOK}) AS t
                FROM documents
            ) GROUP BY lang, t
        """,
        "doc_norms": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            tok AS (SELECT doc_id, len({_TOK}) AS n FROM documents)
            SELECT doc_id,
                   CAST((SELECT max(b) FROM lt WHERE lo <= n) AS BIGINT) AS norm
            FROM tok
        """,
        # exact float32 BM25 for a single TermQuery, recomputed end-to-end
        # from documents.text: stats, byte4 norms, the float32 cache and
        # score chain — rank (score desc, doc asc) matches the collector
        "bm25_scores_exact": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tf AS (
                SELECT doc_id, count(*) AS freq FROM (
                    SELECT doc_id, unnest({_TOK}) AS t FROM documents
                ) WHERE t = 'data' GROUP BY doc_id
            ),
            nb AS (
                SELECT doc_id,
                       (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (
                SELECT CAST(ln(1 + (n_docs - (SELECT count(*) FROM tf) + 0.5)
                                 / ((SELECT count(*) FROM tf) + 0.5))
                            AS FLOAT) AS w,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (
                SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c
            ),
            scored AS (
                SELECT tf.doc_id, {_bm25_score_expr} AS score
                FROM tf
                JOIN nb ON nb.doc_id = tf.doc_id
                JOIN cache k ON k.b = nb.b, c
            )
            SELECT CAST(row_number() OVER (
                       ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT) AS rank,
                   doc_id, score
            FROM scored
        """,
        # FunctionScoreQuery.boostByValue exact: inner 'data join'
        # disjunction f32 scores (the bool chain) x n_chars, the product
        # exact in a double (24-bit f32 mantissa x <=10-bit int), cast f32
        "function_score_topk": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            tfa AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'data' GROUP BY doc_id),
            tfb AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'join' GROUP BY doc_id),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (
                SELECT {_bm25_w("(SELECT count(*) FROM tfa)")} AS wa,
                       {_bm25_w("(SELECT count(*) FROM tfb)")} AS wb,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            pairs AS (
                SELECT coalesce(tfa.doc_id, tfb.doc_id) AS doc_id,
                       tfa.freq AS fa, tfb.freq AS fb
                FROM tfa FULL OUTER JOIN tfb ON tfa.doc_id = tfb.doc_id
            ),
            inner_s AS (
                SELECT p.doc_id,
                       CAST(
                         coalesce(CAST({_bm25_score("c.wa", "p.fa", "k.inv")}
                                       AS DOUBLE), 0.0)
                       + coalesce(CAST({_bm25_score("c.wb", "p.fb", "k.inv")}
                                       AS DOUBLE), 0.0)
                       AS FLOAT) AS s
                FROM pairs p
                JOIN nb ON nb.doc_id = p.doc_id
                JOIN cache k ON k.b = nb.b, c
            ),
            boosted AS (
                SELECT i.doc_id,
                       CASE WHEN d.n_chars < 0 THEN CAST(0.0 AS FLOAT)
                            ELSE CAST(CAST(d.n_chars AS DOUBLE)
                                      * CAST(i.s AS DOUBLE) AS FLOAT)
                       END AS score
                FROM inner_s i JOIN documents d ON d.doc_id = i.doc_id
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score
                FROM boosted
            ) WHERE rank < 10
        """,
        # LMJelinekMercerSimilarity (lambda=0.1): per-term
        # (float)(ln(1 + (((1-l)_f32)*f/dl) / (l*p))); f64 sum cast f32
        # KeywordRepeat + Porter + RemoveDuplicates: the stem 'queri'
        # carries exactly the 'query' occurrences (only vocab word with
        # that stem); 'data' stems to itself so RemoveDuplicates keeps
        # one copy — freqs are the raw token counts either way
        "keyword_repeat_docs": f"""
            WITH tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            cq AS (SELECT doc_id, count(*) AS freq FROM tok
                   WHERE t = 'query' GROUP BY doc_id),
            cd AS (SELECT doc_id, count(*) AS freq FROM tok
                   WHERE t = 'data' GROUP BY doc_id)
            SELECT 'query' AS term, doc_id, freq FROM cq
            UNION ALL SELECT 'queri' AS term, doc_id, freq FROM cq
            UNION ALL SELECT 'data' AS term, doc_id, freq FROM cd
        """,
        # IndexSearcher.explain over 'data join' top-3: one row per
        # (doc, present clause) — freq, SmallFloat-decoded docLen, the
        # f32 clause, and the doc total (f64 clause sum cast f32)
        "explain_scores": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            tfa AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'data' GROUP BY doc_id),
            tfb AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'join' GROUP BY doc_id),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b,
                       (SELECT max(lo) FROM lt WHERE lo <= n) AS dl
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (
                SELECT {_bm25_w("(SELECT count(*) FROM tfa)")} AS wa,
                       {_bm25_w("(SELECT count(*) FROM tfb)")} AS wb,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            pairs AS (
                SELECT coalesce(tfa.doc_id, tfb.doc_id) AS doc_id,
                       tfa.freq AS fa, tfb.freq AS fb
                FROM tfa FULL OUTER JOIN tfb ON tfa.doc_id = tfb.doc_id
            ),
            scored AS (
                SELECT p.doc_id, p.fa, p.fb, nb.dl,
                       {_bm25_score("c.wa", "p.fa", "k.inv")} AS sa,
                       {_bm25_score("c.wb", "p.fb", "k.inv")} AS sb,
                       CAST(
                         coalesce(CAST({_bm25_score("c.wa", "p.fa", "k.inv")}
                                       AS DOUBLE), 0.0)
                       + coalesce(CAST({_bm25_score("c.wb", "p.fb", "k.inv")}
                                       AS DOUBLE), 0.0)
                       AS FLOAT) AS total
                FROM pairs p
                JOIN nb ON nb.doc_id = p.doc_id
                JOIN cache k ON k.b = nb.b, c
            ),
            top AS (
                SELECT * FROM (
                    SELECT *, row_number() OVER (
                        ORDER BY total DESC, doc_id ASC) AS rn
                    FROM scored
                ) WHERE rn <= 3
            )
            SELECT doc_id, term, freq, doc_len, clause_score, total
            FROM (
                SELECT doc_id, 'data' AS term, fa AS freq, dl AS doc_len,
                       sa AS clause_score, total, 0 AS ord FROM top
                WHERE fa IS NOT NULL
                UNION ALL
                SELECT doc_id, 'join' AS term, fb AS freq, dl AS doc_len,
                       sb AS clause_score, total, 1 AS ord FROM top
                WHERE fb IS NOT NULL
            )
        """,
        # edismax qf (body^1 title^2, user terms 'data' and '0'): live
        # clauses are body:data (varying) and title:0^2 (every title ends
        # 'rep 0', freq 1, dl 4); dismax tie 0.1: total = f32(max +
        # f32(f32(0.1) * f32(sum_f64 - max_f64)))
        "edismax_topk": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tstats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({title_tok})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tf AS (
                SELECT doc_id, count(*) AS freq FROM (
                    SELECT doc_id, unnest({_TOK}) AS t FROM documents
                ) WHERE t = 'data' GROUP BY doc_id
            ),
            ttf0 AS (
                SELECT doc_id, count(*) AS freq FROM (
                    SELECT doc_id, unnest({title_tok}) AS t FROM documents
                ) WHERE t = '0' GROUP BY doc_id
            ),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            tnb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({title_tok}) AS n FROM documents)
            ),
            c AS (
                SELECT {_bm25_w("(SELECT count(*) FROM tf)")} AS w,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            tc AS (
                SELECT {_f32op("CAST(2.0 AS FLOAT)", "*", _bm25_w("(SELECT count(*) FROM ttf0)"))} AS w,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM tstats AS stats
            ),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            tcache AS (SELECT lt.b, {_bm25_cache_expr} AS inv
                       FROM lt, tc AS c),
            body_s AS (
                SELECT tf.doc_id, {_bm25_score("c.w", "tf.freq", "k.inv")} AS s
                FROM tf JOIN nb ON nb.doc_id = tf.doc_id
                JOIN cache k ON k.b = nb.b, c
            ),
            title_s AS (
                SELECT t0.doc_id,
                       {_bm25_score("tc.w", "t0.freq", "k.inv")} AS s
                FROM ttf0 t0 JOIN tnb ON tnb.doc_id = t0.doc_id
                JOIN tcache k ON k.b = tnb.b, tc
            ),
            pairs AS (
                SELECT coalesce(a.doc_id, b.doc_id) AS doc_id,
                       a.s AS sa, b.s AS sb
                FROM body_s a FULL OUTER JOIN title_s b
                  ON a.doc_id = b.doc_id
            ),
            combined AS (
                SELECT doc_id,
                       CAST(
                         CAST(GREATEST(coalesce(sa, CAST(0.0 AS FLOAT)),
                                       coalesce(sb, CAST(0.0 AS FLOAT)))
                              AS DOUBLE)
                       + CAST(CAST(
                           CAST(CAST(0.1 AS FLOAT) AS DOUBLE)
                           * CAST(CAST(
                               (coalesce(CAST(sa AS DOUBLE), 0.0)
                                + coalesce(CAST(sb AS DOUBLE), 0.0))
                               - CAST(GREATEST(
                                     coalesce(sa, CAST(0.0 AS FLOAT)),
                                     coalesce(sb, CAST(0.0 AS FLOAT)))
                                 AS DOUBLE)
                             AS FLOAT) AS DOUBLE)
                           AS FLOAT) AS DOUBLE)
                       AS FLOAT) AS score
                FROM pairs
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score
                FROM combined
            ) WHERE rank < 10
        """,
        # BlendedTermQuery(data, join): both clauses share ONE blended
        # weight from df = max(dfa, dfb); dismax combine: total =
        # f32(mx + f32(f32(0.01) * f32(sum_f64 - mx_f64))) with mx the
        # max f32 clause and sum the f64 clause sum
        "blended_term_topk": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            tfa AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'data' GROUP BY doc_id),
            tfb AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'join' GROUP BY doc_id),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (
                SELECT {_bm25_w("GREATEST((SELECT count(*) FROM tfa), (SELECT count(*) FROM tfb))")} AS w,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            pairs AS (
                SELECT coalesce(tfa.doc_id, tfb.doc_id) AS doc_id,
                       tfa.freq AS fa, tfb.freq AS fb
                FROM tfa FULL OUTER JOIN tfb ON tfa.doc_id = tfb.doc_id
            ),
            clauses AS (
                SELECT p.doc_id,
                       {_bm25_score("c.w", "p.fa", "k.inv")} AS sa,
                       {_bm25_score("c.w", "p.fb", "k.inv")} AS sb
                FROM pairs p
                JOIN nb ON nb.doc_id = p.doc_id
                JOIN cache k ON k.b = nb.b, c
            ),
            combined AS (
                SELECT doc_id,
                       CAST(
                         CAST(GREATEST(coalesce(sa, CAST(0.0 AS FLOAT)),
                                       coalesce(sb, CAST(0.0 AS FLOAT)))
                              AS DOUBLE)
                       + CAST(CAST(
                           CAST(CAST(0.01 AS FLOAT) AS DOUBLE)
                           * CAST(CAST(
                               (coalesce(CAST(sa AS DOUBLE), 0.0)
                                + coalesce(CAST(sb AS DOUBLE), 0.0))
                               - CAST(GREATEST(
                                     coalesce(sa, CAST(0.0 AS FLOAT)),
                                     coalesce(sb, CAST(0.0 AS FLOAT)))
                                 AS DOUBLE)
                             AS FLOAT) AS DOUBLE)
                           AS FLOAT) AS DOUBLE)
                       AS FLOAT) AS score
                FROM clauses
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score
                FROM combined
            ) WHERE rank < 10
        """,
        # MultiSimilarity(bm25, classic) on one term: clause = float-sum
        # (0.0f + bm25_f32) + classic_f32 in sub order; classic chain =
        # f32(idf^2) * f32(sqrt(f32 freq)) * f32(1/f32(sqrt(f32 dl)))
        "multi_sim_topk": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tf AS (
                SELECT doc_id, count(*) AS freq FROM (
                    SELECT doc_id, unnest({_TOK}) AS t FROM documents
                ) WHERE t = 'data' GROUP BY doc_id
            ),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (
                SELECT {_bm25_w("(SELECT count(*) FROM tf)")} AS w,
                       {_f32op(
                           _f32("ln((stats.n_docs + 1.0) / ((SELECT count(*) FROM tf) + 1.0)) + 1.0"),
                           "*",
                           _f32("ln((stats.n_docs + 1.0) / ((SELECT count(*) FROM tf) + 1.0)) + 1.0"),
                       )} AS wc,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (
                SELECT lt.b, {_bm25_cache_expr} AS inv,
                       {_f32op("CAST(1.0 AS FLOAT)", "/",
                               _f32("sqrt(" + _f32("lt.lo") + ")"))} AS invc
                FROM lt, c
            ),
            scored AS (
                SELECT tf.doc_id,
                       {_f32op(
                           _bm25_score("c.w", "tf.freq", "k.inv"),
                           "+",
                           _f32op(
                               _f32op("c.wc", "*", _f32("sqrt(" + _f32("tf.freq") + ")")),
                               "*",
                               "k.invc",
                           ),
                       )} AS score
                FROM tf
                JOIN nb ON nb.doc_id = tf.doc_id
                JOIN cache k ON k.b = nb.b, c
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score
                FROM scored
            ) WHERE rank < 10
        """,
        # PerFieldSimilarityWrapper: title:doc scores Classic with the
        # TITLE field's stats (titles are 'doc {{id}} rep 0', freq 1,
        # dl 4), body 'data' scores BM25; doc = f64 clause sum cast f32
        "perfield_sim_topk": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tstats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({title_tok})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tf AS (
                SELECT doc_id, count(*) AS freq FROM (
                    SELECT doc_id, unnest({_TOK}) AS t FROM documents
                ) WHERE t = 'data' GROUP BY doc_id
            ),
            ttf AS (
                SELECT doc_id, count(*) AS freq FROM (
                    SELECT doc_id, unnest({title_tok}) AS t FROM documents
                ) WHERE t = 'doc' GROUP BY doc_id
            ),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            tnb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({title_tok}) AS n FROM documents)
            ),
            c AS (
                SELECT {_bm25_w("(SELECT count(*) FROM tf)")} AS w,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            tc AS (
                SELECT {_f32op(
                           _f32("ln((tstats.n_docs + 1.0) / ((SELECT count(*) FROM ttf) + 1.0)) + 1.0"),
                           "*",
                           _f32("ln((tstats.n_docs + 1.0) / ((SELECT count(*) FROM ttf) + 1.0)) + 1.0"),
                       )} AS wc
                FROM tstats
            ),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            tcache AS (
                SELECT lt.b, {_f32op("CAST(1.0 AS FLOAT)", "/",
                                     _f32("sqrt(" + _f32("lt.lo") + ")"))}
                           AS invc
                FROM lt
            ),
            title_s AS (
                SELECT t.doc_id,
                       {_f32op(
                           _f32op("tc.wc", "*", _f32("sqrt(" + _f32("t.freq") + ")")),
                           "*",
                           "k.invc",
                       )} AS s
                FROM ttf t JOIN tnb ON tnb.doc_id = t.doc_id
                JOIN tcache k ON k.b = tnb.b, tc
            ),
            body_s AS (
                SELECT tf.doc_id,
                       {_bm25_score("c.w", "tf.freq", "k.inv")} AS s
                FROM tf JOIN nb ON nb.doc_id = tf.doc_id
                JOIN cache k ON k.b = nb.b, c
            ),
            scored AS (
                SELECT coalesce(a.doc_id, b.doc_id) AS doc_id,
                       CAST(coalesce(CAST(a.s AS DOUBLE), 0.0)
                            + coalesce(CAST(b.s AS DOUBLE), 0.0)
                            AS FLOAT) AS score
                FROM title_s a FULL OUTER JOIN body_s b
                  ON a.doc_id = b.doc_id
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score
                FROM scored
            ) WHERE rank < 10
        """,
        "lmjelinek_topk": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            tta AS (SELECT count(*) AS v FROM tok WHERE t = 'data'),
            ttb AS (SELECT count(*) AS v FROM tok WHERE t = 'join'),
            tfa AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'data' GROUP BY doc_id),
            tfb AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'join' GROUP BY doc_id),
            nb AS (
                SELECT doc_id,
                       (SELECT max(lo) FROM lt WHERE lo <= n) AS dl
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            consts AS (
                SELECT CAST(CAST(1.0 - CAST(0.1 AS FLOAT) AS FLOAT) AS DOUBLE)
                           AS oml,
                       CAST(CAST(0.1 AS FLOAT) AS DOUBLE) AS lam
            ),
            mus AS (
                SELECT c.oml AS oml,
                       c.lam * ((tta.v + 1.0) / (s.sttf + 1.0)) AS lpa,
                       c.lam * ((ttb.v + 1.0) / (s.sttf + 1.0)) AS lpb
                FROM tta, ttb, stats s, consts c
            ),
            pairs AS (
                SELECT coalesce(tfa.doc_id, tfb.doc_id) AS doc_id,
                       tfa.freq AS fa, tfb.freq AS fb
                FROM tfa FULL OUTER JOIN tfb ON tfa.doc_id = tfb.doc_id
            ),
            scored AS (
                SELECT p.doc_id,
                       CAST(
                         coalesce(CAST(CAST(
                             1.0 * ln(1.0 + ((m.oml * CAST(p.fa AS DOUBLE))
                                             / nb.dl) / m.lpa)
                             AS FLOAT) AS DOUBLE), 0.0)
                       + coalesce(CAST(CAST(
                             1.0 * ln(1.0 + ((m.oml * CAST(p.fb AS DOUBLE))
                                             / nb.dl) / m.lpb)
                             AS FLOAT) AS DOUBLE), 0.0)
                       AS FLOAT) AS score
                FROM pairs p
                JOIN nb ON nb.doc_id = p.doc_id, mus m
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score
                FROM scored
            ) WHERE rank < 10
        """,
        # BooleanSimilarity: clause score = boost (1f); disjunction score
        # = matching-clause count, doc-asc tie-break
        "boolean_sim_topk": f"""
            WITH tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            m AS (
                SELECT doc_id,
                       CAST(count(DISTINCT t) AS DOUBLE) AS nmatch
                FROM tok WHERE t IN ('data', 'join', 'merge')
                GROUP BY doc_id
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY nmatch DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, CAST(nmatch AS FLOAT) AS score
                FROM m
            ) WHERE rank < 10
        """,
        # DFISimilarity (ChiSquared): expected e = ((ttf+1)*dl)/(sttf+1)
        # in the Java association; clause = (float)(ln((f-e)^2/e + 1)
        # / ln(2)) when f > e else 0; f64 clause sum cast f32
        "dfi_topk": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            tta AS (SELECT count(*) AS v FROM tok WHERE t = 'data'),
            ttb AS (SELECT count(*) AS v FROM tok WHERE t = 'join'),
            tfa AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'data' GROUP BY doc_id),
            tfb AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'join' GROUP BY doc_id),
            nb AS (
                SELECT doc_id,
                       (SELECT max(lo) FROM lt WHERE lo <= n) AS dl
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            exps AS (
                SELECT ((tta.v + 1.0) * nb.dl) / (s.sttf + 1.0) AS ea,
                       ((ttb.v + 1.0) * nb.dl) / (s.sttf + 1.0) AS eb,
                       nb.doc_id AS doc_id
                FROM nb, tta, ttb, stats s
            ),
            pairs AS (
                SELECT coalesce(tfa.doc_id, tfb.doc_id) AS doc_id,
                       tfa.freq AS fa, tfb.freq AS fb
                FROM tfa FULL OUTER JOIN tfb ON tfa.doc_id = tfb.doc_id
            ),
            scored AS (
                SELECT p.doc_id,
                       CAST(
                         coalesce(CAST(CAST(CASE
                           WHEN CAST(p.fa AS DOUBLE) > e.ea THEN
                             1.0 * (ln(((CAST(p.fa AS DOUBLE) - e.ea)
                                        * (CAST(p.fa AS DOUBLE) - e.ea))
                                       / e.ea + 1.0) / ln(2.0))
                           ELSE 0.0 END AS FLOAT) AS DOUBLE), 0.0)
                       + coalesce(CAST(CAST(CASE
                           WHEN CAST(p.fb AS DOUBLE) > e.eb THEN
                             1.0 * (ln(((CAST(p.fb AS DOUBLE) - e.eb)
                                        * (CAST(p.fb AS DOUBLE) - e.eb))
                                       / e.eb + 1.0) / ln(2.0))
                           ELSE 0.0 END AS FLOAT) AS DOUBLE), 0.0)
                       AS FLOAT) AS score
                FROM pairs p
                JOIN exps e ON e.doc_id = p.doc_id
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score
                FROM scored
            ) WHERE rank < 10
        """,
        # AxiomaticF2EXP (s=0.25f, k=0.35f): clause =
        # (float)(((f/((f+s) + (s*dl)/avgdl)) * pow((N+1)/df, k)) * 1.0);
        # avgdl = sttf / N in double; f64 clause sum cast f32
        "axiomatic_topk": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT CAST(count(*) AS BIGINT) FROM documents)
                           AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            consts AS (
                SELECT CAST(CAST(0.25 AS FLOAT) AS DOUBLE) AS s,
                       CAST(CAST(0.35 AS FLOAT) AS DOUBLE) AS k
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            dfa AS (SELECT count(DISTINCT doc_id) AS v FROM tok
                    WHERE t = 'data'),
            dfb AS (SELECT count(DISTINCT doc_id) AS v FROM tok
                    WHERE t = 'join'),
            tfa AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'data' GROUP BY doc_id),
            tfb AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'join' GROUP BY doc_id),
            nb AS (
                SELECT doc_id,
                       (SELECT max(lo) FROM lt WHERE lo <= n) AS dl
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            idfs AS (
                SELECT pow((st.n_docs + 1.0) / dfa.v, c.k) AS ia,
                       pow((st.n_docs + 1.0) / dfb.v, c.k) AS ib,
                       CAST(st.sttf AS DOUBLE) / st.n_docs AS avgdl,
                       c.s AS s
                FROM dfa, dfb, stats st, consts c
            ),
            pairs AS (
                SELECT coalesce(tfa.doc_id, tfb.doc_id) AS doc_id,
                       tfa.freq AS fa, tfb.freq AS fb
                FROM tfa FULL OUTER JOIN tfb ON tfa.doc_id = tfb.doc_id
            ),
            scored AS (
                SELECT p.doc_id,
                       CAST(
                         coalesce(CAST(CAST(
                             ((CAST(p.fa AS DOUBLE)
                               / ((CAST(p.fa AS DOUBLE) + i.s)
                                  + (i.s * nb.dl) / i.avgdl)) * i.ia)
                             * 1.0
                             AS FLOAT) AS DOUBLE), 0.0)
                       + coalesce(CAST(CAST(
                             ((CAST(p.fb AS DOUBLE)
                               / ((CAST(p.fb AS DOUBLE) + i.s)
                                  + (i.s * nb.dl) / i.avgdl)) * i.ib)
                             * 1.0
                             AS FLOAT) AS DOUBLE), 0.0)
                       AS FLOAT) AS score
                FROM pairs p
                JOIN nb ON nb.doc_id = p.doc_id, idfs i
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score
                FROM scored
            ) WHERE rank < 10
        """,
        # DFR I(F)L2: A = ln(1 + (N+1)/(F+0.5))/ln(2) with F = ttf;
        # tfn = f * (ln(1 + avgdl/dl)/ln(2)); clause =
        # (float)(1.0 * ((A * 1.0) * (1 - 1/(1+tfn)))); f64 sum cast f32
        "dfr_topk": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT CAST(count(*) AS BIGINT) FROM documents)
                           AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            tta AS (SELECT count(*) AS v FROM tok WHERE t = 'data'),
            ttb AS (SELECT count(*) AS v FROM tok WHERE t = 'join'),
            tfa AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'data' GROUP BY doc_id),
            tfb AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'join' GROUP BY doc_id),
            nb AS (
                SELECT doc_id,
                       (SELECT max(lo) FROM lt WHERE lo <= n) AS dl
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            cs AS (
                SELECT (ln(1.0 + CAST(st.n_docs + 1 AS DOUBLE)
                               / (CAST(tta.v AS DOUBLE) + 0.5)) / ln(2.0))
                           * 1.0 AS aa,
                       (ln(1.0 + CAST(st.n_docs + 1 AS DOUBLE)
                               / (CAST(ttb.v AS DOUBLE) + 0.5)) / ln(2.0))
                           * 1.0 AS ab,
                       CAST(st.sttf AS DOUBLE) / st.n_docs AS avgdl
                FROM tta, ttb, stats st
            ),
            scored AS (
                SELECT p.doc_id,
                       CAST(
                         coalesce(CAST(CAST(
                             1.0 * (c.aa * (1.0 - 1.0
                                 / (1.0 + CAST(p.fa AS DOUBLE)
                                    * (ln(1.0 + (1.0 * c.avgdl) / nb.dl)
                                       / ln(2.0)))))
                             AS FLOAT) AS DOUBLE), 0.0)
                       + coalesce(CAST(CAST(
                             1.0 * (c.ab * (1.0 - 1.0
                                 / (1.0 + CAST(p.fb AS DOUBLE)
                                    * (ln(1.0 + (1.0 * c.avgdl) / nb.dl)
                                       / ln(2.0)))))
                             AS FLOAT) AS DOUBLE), 0.0)
                       AS FLOAT) AS score
                FROM (SELECT coalesce(tfa.doc_id, tfb.doc_id) AS doc_id,
                             tfa.freq AS fa, tfb.freq AS fb
                      FROM tfa FULL OUTER JOIN tfb
                        ON tfa.doc_id = tfb.doc_id) p
                JOIN nb ON nb.doc_id = p.doc_id, cs c
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score
                FROM scored
            ) WHERE rank < 10
        """,
        # IBSimilarity(LL, DF, H2 c=1): lam = f32((df+1)/(N+1)) promoted;
        # tfn = f * (ln(1 + avgdl/dl)/ln(2)); clause =
        # (float)(1.0 * -(ln(lam/(tfn+lam)))); f64 clause sum cast f32
        "ib_topk": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT CAST(count(*) AS BIGINT) FROM documents)
                           AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            dfa AS (SELECT count(DISTINCT doc_id) AS v FROM tok
                    WHERE t = 'data'),
            dfb AS (SELECT count(DISTINCT doc_id) AS v FROM tok
                    WHERE t = 'join'),
            tfa AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'data' GROUP BY doc_id),
            tfb AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'join' GROUP BY doc_id),
            nb AS (
                SELECT doc_id,
                       (SELECT max(lo) FROM lt WHERE lo <= n) AS dl
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            cs AS (
                -- LambdaDF.java:34-37 nextDown guard: lambda == 1
                -- (df == N) steps to the previous float
                SELECT CASE WHEN CAST((dfa.v + 1.0) / (st.n_docs + 1.0)
                                 AS FLOAT) = CAST(1.0 AS FLOAT)
                            THEN CAST(0.9999999403953552 AS DOUBLE)
                            ELSE CAST(CAST((dfa.v + 1.0) / (st.n_docs + 1.0)
                                 AS FLOAT) AS DOUBLE) END AS la,
                       CASE WHEN CAST((dfb.v + 1.0) / (st.n_docs + 1.0)
                                 AS FLOAT) = CAST(1.0 AS FLOAT)
                            THEN CAST(0.9999999403953552 AS DOUBLE)
                            ELSE CAST(CAST((dfb.v + 1.0) / (st.n_docs + 1.0)
                                 AS FLOAT) AS DOUBLE) END AS lb,
                       CAST(st.sttf AS DOUBLE) / st.n_docs AS avgdl
                FROM dfa, dfb, stats st
            ),
            scored AS (
                SELECT p.doc_id,
                       CAST(
                         coalesce(CAST(CAST(
                             1.0 * -(ln(c.la / (CAST(p.fa AS DOUBLE)
                                 * (ln(1.0 + (1.0 * c.avgdl) / nb.dl)
                                    / ln(2.0)) + c.la)))
                             AS FLOAT) AS DOUBLE), 0.0)
                       + coalesce(CAST(CAST(
                             1.0 * -(ln(c.lb / (CAST(p.fb AS DOUBLE)
                                 * (ln(1.0 + (1.0 * c.avgdl) / nb.dl)
                                    / ln(2.0)) + c.lb)))
                             AS FLOAT) AS DOUBLE), 0.0)
                       AS FLOAT) AS score
                FROM (SELECT coalesce(tfa.doc_id, tfb.doc_id) AS doc_id,
                             tfa.freq AS fa, tfb.freq AS fb
                      FROM tfa FULL OUTER JOIN tfb
                        ON tfa.doc_id = tfb.doc_id) p
                JOIN nb ON nb.doc_id = p.doc_id, cs c
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score
                FROM scored
            ) WHERE rank < 10
        """,
        # LMDirichletSimilarity (mu=2000): per-term
        # (float)max(0, ln(1+f/(mu*p)) + ln(mu/(dl+mu))), p=(ttf+1)/(sttf+1),
        # dl = SmallFloat-decoded length; f64 clause sum cast f32
        "lmdirichlet_topk": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            tta AS (SELECT count(*) AS v FROM tok WHERE t = 'data'),
            ttb AS (SELECT count(*) AS v FROM tok WHERE t = 'join'),
            tfa AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'data' GROUP BY doc_id),
            tfb AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'join' GROUP BY doc_id),
            nb AS (
                SELECT doc_id,
                       (SELECT max(lo) FROM lt
                        WHERE lo <= n) AS dl
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            mus AS (
                SELECT 2000.0 * ((tta.v + 1.0) / (s.sttf + 1.0)) AS mpa,
                       2000.0 * ((ttb.v + 1.0) / (s.sttf + 1.0)) AS mpb
                FROM tta, ttb, stats s
            ),
            pairs AS (
                SELECT coalesce(tfa.doc_id, tfb.doc_id) AS doc_id,
                       tfa.freq AS fa, tfb.freq AS fb
                FROM tfa FULL OUTER JOIN tfb ON tfa.doc_id = tfb.doc_id
            ),
            scored AS (
                SELECT p.doc_id,
                       CAST(
                         coalesce(CAST(CAST(GREATEST(0.0,
                             1.0 * (ln(1.0 + CAST(p.fa AS DOUBLE) / m.mpa)
                                    + ln(2000.0 / (nb.dl + 2000.0))))
                             AS FLOAT) AS DOUBLE), 0.0)
                       + coalesce(CAST(CAST(GREATEST(0.0,
                             1.0 * (ln(1.0 + CAST(p.fb AS DOUBLE) / m.mpb)
                                    + ln(2000.0 / (nb.dl + 2000.0))))
                             AS FLOAT) AS DOUBLE), 0.0)
                       AS FLOAT) AS score
                FROM pairs p
                JOIN nb ON nb.doc_id = p.doc_id, mus m
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score
                FROM scored
            ) WHERE rank < 10
        """,
        # LongDistanceFeatureQuery (newDistanceFeatureQuery recency-boost
        # shape): dist = |n_chars - 1000|; clause = (float)(500/(500+d));
        # final = (float)(f64(bm25 'data join') + f64(clause))
        "distance_feature_topk": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            tfa AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'data' GROUP BY doc_id),
            tfb AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'join' GROUP BY doc_id),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (
                SELECT {_bm25_w("(SELECT count(*) FROM tfa)")} AS wa,
                       {_bm25_w("(SELECT count(*) FROM tfb)")} AS wb,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            pairs AS (
                SELECT coalesce(tfa.doc_id, tfb.doc_id) AS doc_id,
                       tfa.freq AS fa, tfb.freq AS fb
                FROM tfa FULL OUTER JOIN tfb ON tfa.doc_id = tfb.doc_id
            ),
            inner_s AS (
                SELECT p.doc_id,
                       CAST(
                         coalesce(CAST({_bm25_score("c.wa", "p.fa", "k.inv")}
                                       AS DOUBLE), 0.0)
                       + coalesce(CAST({_bm25_score("c.wb", "p.fb", "k.inv")}
                                       AS DOUBLE), 0.0)
                       AS FLOAT) AS s
                FROM pairs p
                JOIN nb ON nb.doc_id = p.doc_id
                JOIN cache k ON k.b = nb.b, c
            ),
            dist AS (
                SELECT doc_id,
                       CAST(1.0 * (500.0 / (500.0
                            + CAST(abs(n_chars - 1000) AS DOUBLE)))
                            AS FLOAT) AS ds
                FROM documents
            ),
            combined AS (
                SELECT i.doc_id,
                       CAST(CAST(i.s AS DOUBLE) + CAST(d.ds AS DOUBLE)
                            AS FLOAT) AS score
                FROM inner_s i JOIN dist d ON d.doc_id = i.doc_id
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score
                FROM combined
            ) WHERE rank < 10
        """,
        # FeatureField exact (document/FeatureField.java): encode =
        # floatToIntBits(f32(1+n_chars)) >>> 15 in pure integer arithmetic
        # (exponent via to_base bit length, mantissa shift — exact for
        # integer values < 2^24); decode = intBitsToFloat(tf<<15) as
        # (2^23+mant)*2^(e-127)/2^23 in exact powers-of-two doubles; auto
        # pivot = decode(trunc(f32(ttf/df))); satu replayed as the f32 op
        # chain, log/sigm as f64 libm with the f32 params promoted
        # (0.6000000238418579 = double(float32(0.6))); final score =
        # (float)(f64(bm25 'data join') + f64(satu)), the bool-sum order
        "feature_field_topk": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            tfa AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'data' GROUP BY doc_id),
            tfb AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'join' GROUP BY doc_id),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (
                SELECT {_bm25_w("(SELECT count(*) FROM tfa)")} AS wa,
                       {_bm25_w("(SELECT count(*) FROM tfb)")} AS wb,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            pairs AS (
                SELECT coalesce(tfa.doc_id, tfb.doc_id) AS doc_id,
                       tfa.freq AS fa, tfb.freq AS fb
                FROM tfa FULL OUTER JOIN tfb ON tfa.doc_id = tfb.doc_id
            ),
            inner_s AS (
                SELECT p.doc_id,
                       CAST(
                         coalesce(CAST({_bm25_score("c.wa", "p.fa", "k.inv")}
                                       AS DOUBLE), 0.0)
                       + coalesce(CAST({_bm25_score("c.wb", "p.fb", "k.inv")}
                                       AS DOUBLE), 0.0)
                       AS FLOAT) AS s
                FROM pairs p
                JOIN nb ON nb.doc_id = p.doc_id
                JOIN cache k ON k.b = nb.b, c
            ),
            enc AS (
                SELECT doc_id,
                       ((length(to_base(1 + n_chars, 2)) - 1 + 127) * 8388608
                        + ((1 + n_chars)
                           * (1 << (23 - (length(to_base(1 + n_chars, 2)) - 1)))
                           - 8388608)) // 32768 AS freq
                FROM documents
            ),
            piv AS (
                SELECT CAST(TRUNC(CAST(CAST(CAST(sum(freq) AS DOUBLE)
                                / count(*) AS FLOAT) AS DOUBLE)) AS BIGINT)
                       AS ptf
                FROM enc
            ),
            pivd AS (SELECT {_feat_dec("ptf")} AS pivot FROM piv),
            decf AS (SELECT doc_id, {_feat_dec("freq")} AS f FROM enc),
            featsc AS (
                SELECT d.doc_id, d.f, p.pivot,
                       CAST(CAST(1.0 AS DOUBLE) * CAST(
                         CAST(1.0 - CAST(
                           CAST(CAST(p.pivot AS DOUBLE) / CAST(
                             CAST(CAST(d.f AS DOUBLE)
                                  + CAST(p.pivot AS DOUBLE) AS FLOAT)
                           AS DOUBLE) AS FLOAT)
                         AS DOUBLE) AS FLOAT)
                       AS DOUBLE) AS FLOAT) AS satu,
                       CAST(1.5 * ln(CAST(CAST(1.0 AS DOUBLE)
                                          + CAST(d.f AS DOUBLE) AS FLOAT))
                            AS FLOAT) AS score_log,
                       CAST(2.0 * (1.0
                         - pow(CAST(p.pivot AS DOUBLE), 0.6000000238418579)
                           / (pow(CAST(d.f AS DOUBLE), 0.6000000238418579)
                              + pow(CAST(p.pivot AS DOUBLE),
                                    0.6000000238418579)))
                            AS FLOAT) AS score_sigm
                FROM decf d, pivd p
            ),
            combined AS (
                SELECT i.doc_id,
                       CAST(CAST(i.s AS DOUBLE) + CAST(fs.satu AS DOUBLE)
                            AS FLOAT) AS score,
                       fs.score_log, fs.score_sigm
                FROM inner_s i JOIN featsc fs ON fs.doc_id = i.doc_id
            )
            SELECT rank, doc_id, score, score_log, score_sigm FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score, score_log, score_sigm
                FROM combined
            ) WHERE rank < 10
        """,
        # KNearestNeighborClassifier replayed exactly for the 10 example
        # docs: per-example MLT term selection, neighbor scores as ordered
        # f64 folds of per-term f32 scores (cast f32), top-10 neighbors,
        # then the vote chain — boosts folded per class in NEIGHBOR RANK
        # order, score = (cnt * (boost / cnt)) / k with the sumdoc < k
        # rescale — and the first-strict-max over sorted classes
        "knn_classify": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tdf AS (
                SELECT term, count(*) AS df FROM ({tok_pairs}) GROUP BY term
            ),
            etf AS (
                SELECT doc_id AS ex, t AS term, count(*) AS tf FROM (
                    SELECT doc_id, unnest({_TOK}) AS t FROM documents
                    WHERE doc_id < 10
                ) GROUP BY doc_id, t HAVING count(*) >= 2
            ),
            mlt AS (
                SELECT ex, term, df, rn FROM (
                    SELECT etf.ex, etf.term, tdf.df,
                           row_number() OVER (PARTITION BY etf.ex ORDER BY
                               etf.tf * (ln(((SELECT n_docs FROM stats) + 1)
                                            / (tdf.df + 1.0)) + 1) DESC,
                               etf.term ASC) AS rn
                    FROM etf JOIN tdf USING (term) WHERE tdf.df >= 5
                ) WHERE rn <= 10
            ),
            mltw AS (SELECT ex, term, rn, {_bm25_w("df")} AS w FROM mlt, stats),
            tf2 AS (
                SELECT doc_id, t AS term, count(*) AS freq FROM (
                    SELECT doc_id, unnest({_TOK}) AS t FROM documents
                ) GROUP BY doc_id, t
            ),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (
                SELECT CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            per_term AS (
                SELECT mltw.ex, tf2.doc_id, mltw.rn,
                       {_bm25_score("mltw.w", "tf2.freq", "k.inv")} AS s
                FROM tf2
                JOIN mltw USING (term)
                JOIN nb ON nb.doc_id = tf2.doc_id
                JOIN cache k ON k.b = nb.b
            ),
            nscore AS (
                SELECT ex, doc_id,
                       CAST(list_reduce(
                           list_prepend(CAST(0.0 AS DOUBLE),
                               list(CAST(s AS DOUBLE) ORDER BY rn)),
                           (a, x) -> a + x) AS FLOAT) AS s
                FROM per_term GROUP BY ex, doc_id
            ),
            nbr AS (
                SELECT * FROM (
                    SELECT ex, doc_id, s, row_number() OVER (
                        PARTITION BY ex ORDER BY s DESC, doc_id ASC) AS nrank
                    FROM nscore
                ) WHERE nrank <= 10
            ),
            mx AS (SELECT ex, s AS mxs FROM nbr WHERE nrank = 1),
            sumdoc AS (SELECT ex, CAST(count(*) AS BIGINT) AS n FROM nbr GROUP BY ex),
            votes AS (
                SELECT nbr.ex, d.lang AS cls, count(*) AS cnt,
                       list_reduce(
                           list_prepend(CAST(0.0 AS DOUBLE),
                               list(CAST(nbr.s AS DOUBLE)
                                    / CAST(mx.mxs AS DOUBLE)
                                    ORDER BY nbr.nrank)),
                           (a, x) -> a + x) AS boost
                FROM nbr
                JOIN documents d ON d.doc_id = nbr.doc_id
                JOIN mx ON mx.ex = nbr.ex
                GROUP BY nbr.ex, d.lang
            ),
            scored AS (
                SELECT v.ex, v.cls,
                       CASE WHEN sd.n < 10
                            THEN (((v.cnt * (v.boost / v.cnt)) / 10) * 10)
                                 / sd.n
                            ELSE (v.cnt * (v.boost / v.cnt)) / 10
                       END AS sc
                FROM votes v JOIN sumdoc sd ON sd.ex = v.ex
            ),
            best AS (
                SELECT ex, cls FROM (
                    SELECT ex, cls, row_number() OVER (
                        PARTITION BY ex ORDER BY sc DESC, cls ASC) AS rn
                    FROM scored
                ) WHERE rn = 1
            )
            SELECT e.doc_id, coalesce(best.cls, '') AS assigned_class
            FROM (SELECT unnest(range(10)) AS doc_id) e
            LEFT JOIN best ON best.ex = e.doc_id
        """,
        # full MoreLikeThis search with exact float32 scores: the selected
        # like-terms (the more_like_this_terms oracle's exact top-10, in
        # rank order) searched as a SHOULD query — per-term f32 scores
        # folded per doc in QUERY ORDER in a double accumulator (the TAAT
        # clause order; WAND==TAAT score equality is test-enforced), cast
        # MoreLikeThis.like(Reader): the same selection/search chain with
        # tf from the LITERAL free text (no example doc)
        "mlt_like_text_topk": _mlt_sql(
            "SELECT unnest(regexp_extract_all(lower("
            "'data data join join merge hash the the data table query scan'"
            "), '[a-z0-9]+')) AS t"
        ),
        "more_like_this_topk": _mlt_sql(
            f"SELECT unnest({_TOK}) AS t FROM documents WHERE doc_id = 7"
        ),
        # ordered SpanNear(data, join, slop=2) top-k with exact float32
        # scores: per doc the greedy matches' widths in start order, freq =
        # the SpanScorer float32 fold over 1/(1+width) (each step double-
        # add then narrowed — list_reduce replays the exact chain), weight
        # = the summed-idf phrase shape
        "span_near_topk": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            pos AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            a AS (SELECT doc_id, p FROM pos WHERE t = 'data'),
            bb AS (SELECT doc_id, p FROM pos WHERE t = 'join'),
            dfa AS (SELECT count(DISTINCT doc_id) AS v FROM a),
            dfb AS (SELECT count(DISTINCT doc_id) AS v FROM bb),
            inc AS (
                SELECT a.doc_id, a.p AS st, min(bb.p) AS mp
                FROM a JOIN bb USING (doc_id) WHERE bb.p > a.p
                GROUP BY a.doc_id, a.p
                HAVING min(bb.p) - a.p - 1 <= 2
            ),
            tf AS (
                SELECT doc_id,
                       list_reduce(
                           list_prepend(CAST(0.0 AS FLOAT),
                               list(1.0 / (1.0 + (mp - st - 1)) ORDER BY st)),
                           (acc, x) -> CAST(CAST(acc AS DOUBLE) + x AS FLOAT)
                       ) AS freq
                FROM inc GROUP BY doc_id
            ),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (
                SELECT CAST(
                         CAST({_bm25_w("(SELECT v FROM dfa)")} AS DOUBLE)
                       + CAST({_bm25_w("(SELECT v FROM dfb)")} AS DOUBLE)
                       AS FLOAT) AS w,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            scored AS (
                SELECT tf.doc_id, {_bm25_score_expr} AS score
                FROM tf JOIN nb ON nb.doc_id = tf.doc_id
                JOIN cache k ON k.b = nb.b, c
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score
                FROM scored
            ) WHERE rank < 10
        """,
        # CommonTermsQuery top-k with exact float32 scores: at the gate
        # corpus 'dup' is the only low-freq term (df <= ceil(0.25 N) — the
        # split itself is oracle-checked by common_terms_match_docs), so
        # hits = dup docs and score = s_dup + s_data + s_join summed left-
        # to-right in a double (absent terms add exact 0.0) and cast f32
        "common_terms_topk": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            tfd AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'dup' GROUP BY doc_id),
            tfa AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'data' GROUP BY doc_id),
            tfb AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'join' GROUP BY doc_id),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (
                SELECT {_bm25_w("(SELECT count(*) FROM tfd)")} AS wd,
                       {_bm25_w("(SELECT count(*) FROM tfa)")} AS wa,
                       {_bm25_w("(SELECT count(*) FROM tfb)")} AS wb,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            scored AS (
                SELECT tfd.doc_id,
                       CAST(
                         (CAST({_bm25_score("c.wd", "tfd.freq", "k.inv")}
                               AS DOUBLE)
                          + coalesce(CAST(
                                {_bm25_score("c.wa", "tfa.freq", "k.inv")}
                                AS DOUBLE), 0.0))
                       + coalesce(CAST(
                             {_bm25_score("c.wb", "tfb.freq", "k.inv")}
                             AS DOUBLE), 0.0)
                       AS FLOAT) AS score
                FROM tfd
                LEFT JOIN tfa ON tfa.doc_id = tfd.doc_id
                LEFT JOIN tfb ON tfb.doc_id = tfd.doc_id
                JOIN nb ON nb.doc_id = tfd.doc_id
                JOIN cache k ON k.b = nb.b, c
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score
                FROM scored
            ) WHERE rank < 10
        """,
        # exact float32 PhraseQuery '"data join"' scores: summed-idf weight
        # (two f32 idfs added in a double, cast), integer adjacency freq,
        # the same float32 cache/score chain
        "bm25_phrase_scores_exact": _phrase_scores_sql,
        # phrase top-k = the same exact chain, first 10 ranks
        "phrase_topk": "SELECT * FROM (" + _phrase_scores_sql + ") WHERE rank < 10",
        # scored query-time join (JoinUtil ScoreMode.Max) exactly: the
        # from-side 'dup' f32 scores, MAX per join value (a float32
        # SELECTION — order-free), every to-doc takes its value's
        # aggregate, top-10 with the collector tie-break
        "join_util_topk": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tf AS (
                SELECT doc_id, count(*) AS freq FROM (
                    SELECT doc_id, unnest({_TOK}) AS t FROM documents
                ) WHERE t = 'dup' GROUP BY doc_id
            ),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (
                SELECT {_bm25_w("(SELECT count(*) FROM tf)")} AS w,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            from_s AS (
                SELECT tf.doc_id, {_bm25_score_expr} AS score
                FROM tf JOIN nb ON nb.doc_id = tf.doc_id
                JOIN cache k ON k.b = nb.b, c
            ),
            aggv AS (
                SELECT d.n_chars AS v, max(f.score) AS s
                FROM from_s f JOIN documents d ON d.doc_id = f.doc_id
                GROUP BY d.n_chars
            ),
            to_s AS (
                SELECT d.doc_id, aggv.s AS score
                FROM documents d JOIN aggv ON aggv.v = d.n_chars
            )
            SELECT rank, doc_id, score FROM (
                SELECT CAST(row_number() OVER (
                           ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                           AS rank, doc_id, score
                FROM to_s
            ) WHERE rank < 10
        """,
        # two-phase search + highlighter replayed exactly: top-10 of the
        # 'data join' disjunction via the exact f32 chain (score widened to
        # DOUBLE as the entry emits), snippets rebuilt from the token
        # stream (pages text tokenizes identically to documents.text) with
        # the greedy 2-fragment +/-8 window and ** marks
        "bm25_snippets": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            tfa AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'data' GROUP BY doc_id),
            tfb AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'join' GROUP BY doc_id),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (
                SELECT {_bm25_w("(SELECT count(*) FROM tfa)")} AS wa,
                       {_bm25_w("(SELECT count(*) FROM tfb)")} AS wb,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            pairs AS (
                SELECT coalesce(tfa.doc_id, tfb.doc_id) AS doc_id,
                       tfa.freq AS fa, tfb.freq AS fb
                FROM tfa FULL OUTER JOIN tfb ON tfa.doc_id = tfb.doc_id
            ),
            scored AS (
                SELECT p.doc_id,
                       CAST(
                         coalesce(CAST({_bm25_score("c.wa", "p.fa", "k.inv")}
                                       AS DOUBLE), 0.0)
                       + coalesce(CAST({_bm25_score("c.wb", "p.fb", "k.inv")}
                                       AS DOUBLE), 0.0)
                       AS FLOAT) AS score
                FROM pairs p
                JOIN nb ON nb.doc_id = p.doc_id
                JOIN cache k ON k.b = nb.b, c
            ),
            top10 AS (
                SELECT rank, doc_id, score FROM (
                    SELECT CAST(row_number() OVER (
                               ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                               AS rank, doc_id, score
                    FROM scored
                ) WHERE rank < 10
            ),
            pos AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents WHERE doc_id IN (SELECT doc_id FROM top10)
            ),
            hitp AS (SELECT doc_id, p FROM pos WHERE t IN ('data', 'join')),
            h1 AS (SELECT doc_id, CAST(min(p) AS BIGINT) AS h
                   FROM hitp GROUP BY doc_id),
            tokl AS (
                SELECT doc_id, {_TOK} AS ts FROM documents
                WHERE doc_id IN (SELECT doc_id FROM top10)
            ),
            h2 AS (
                SELECT hitp.doc_id, CAST(min(hitp.p) AS BIGINT) AS h
                FROM hitp
                JOIN h1 ON h1.doc_id = hitp.doc_id
                JOIN tokl ON tokl.doc_id = hitp.doc_id
                WHERE hitp.p > least(len(tokl.ts), h1.h + 9)
                GROUP BY hitp.doc_id
            ),
            snip AS (
                SELECT t.doc_id,
                       {_snip_frag("h1.h")}
                       || CASE WHEN h2.h IS NOT NULL
                          THEN ' ... ' || {_snip_frag("h2.h")}
                          ELSE '' END AS snippet
                FROM tokl t
                JOIN h1 ON h1.doc_id = t.doc_id
                LEFT JOIN h2 ON h2.doc_id = t.doc_id
            )
            SELECT top10.doc_id, top10.rank,
                   CAST(top10.score AS DOUBLE) AS score, snip.snippet
            FROM top10 JOIN snip ON snip.doc_id = top10.doc_id
        """,
        # PASSAGE-scored highlighting (UnifiedHighlighter
        # PassageScorer.java:84-142 over 16-token windows, float64 math):
        # weight = 2.2*ln(1 + ((1 + L/16) + 0.5)/(ttf + 0.5)),
        # tf = freq/(freq + 1.2*(0.25 + 0.75*plen/16)),
        # score = (1 + 1/ln(16 + start)) * sum(tf*weight);
        # top-10 'data join' docs from the exact f32 chain, one best
        # passage per doc (score desc, start asc)
        "bm25_snippets_passages": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            tfa AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'data' GROUP BY doc_id),
            tfb AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'join' GROUP BY doc_id),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (
                SELECT {_bm25_w("(SELECT count(*) FROM tfa)")} AS wa,
                       {_bm25_w("(SELECT count(*) FROM tfb)")} AS wb,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            pairs AS (
                SELECT coalesce(tfa.doc_id, tfb.doc_id) AS doc_id,
                       tfa.freq AS fa, tfb.freq AS fb
                FROM tfa FULL OUTER JOIN tfb ON tfa.doc_id = tfb.doc_id
            ),
            scored AS (
                SELECT p.doc_id,
                       CAST(
                         coalesce(CAST({_bm25_score("c.wa", "p.fa", "k.inv")}
                                       AS DOUBLE), 0.0)
                       + coalesce(CAST({_bm25_score("c.wb", "p.fb", "k.inv")}
                                       AS DOUBLE), 0.0)
                       AS FLOAT) AS score
                FROM pairs p
                JOIN nb ON nb.doc_id = p.doc_id
                JOIN cache k ON k.b = nb.b, c
            ),
            top10 AS (
                SELECT rank, doc_id FROM (
                    SELECT CAST(row_number() OVER (
                               ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT)
                               AS rank, doc_id
                    FROM scored
                ) WHERE rank < 10
            ),
            tokl AS (
                SELECT doc_id, {_TOK} AS ts, len({_TOK}) AS n FROM documents
                WHERE doc_id IN (SELECT doc_id FROM top10)
            ),
            pos AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents WHERE doc_id IN (SELECT doc_id FROM top10)
            ),
            ttfq AS (
                SELECT doc_id, t, count(*) AS ttf FROM pos
                WHERE t IN ('data', 'join') GROUP BY doc_id, t
            ),
            wgt AS (
                SELECT q.doc_id, q.t,
                       (1.2 + 1) * ln(1 + ((1 + tokl.n / 16.0) + 0.5)
                                          / (q.ttf + 0.5)) AS w
                FROM ttfq q JOIN tokl ON tokl.doc_id = q.doc_id
            ),
            pw AS (
                SELECT doc_id, t, CAST(p // 16 AS BIGINT) AS w_id,
                       count(*) AS freq
                FROM pos WHERE t IN ('data', 'join')
                GROUP BY doc_id, t, w_id
            ),
            pscore AS (
                SELECT pw.doc_id, pw.w_id,
                       (1 + 1 / ln(16.0 + pw.w_id * 16)) * sum(
                           pw.freq / (pw.freq + 1.2 * ((1 - 0.75)
                               + 0.75 * (least(16, tokl.n - pw.w_id * 16)
                                         / 16.0)))
                           * wgt.w
                       ) AS score,
                       any_value(least(16, tokl.n - pw.w_id * 16)) AS plen
                FROM pw
                JOIN wgt ON wgt.doc_id = pw.doc_id AND wgt.t = pw.t
                JOIN tokl ON tokl.doc_id = pw.doc_id
                GROUP BY pw.doc_id, pw.w_id
            ),
            best AS (
                SELECT doc_id, w_id, score, plen FROM (
                    SELECT *, row_number() OVER (
                        PARTITION BY doc_id
                        ORDER BY score DESC, w_id ASC) AS rn
                    FROM pscore
                ) WHERE rn = 1
            )
            SELECT top10.doc_id, top10.rank,
                   CAST(best.w_id * 16 AS BIGINT) AS passage_start,
                   best.score AS passage_score,
                   array_to_string(list_transform(
                       tokl.ts[best.w_id * 16 + 1
                               : best.w_id * 16 + best.plen],
                       x -> CASE WHEN x IN ('data', 'join')
                            THEN '**' || x || '**' ELSE x END), ' ')
                       AS snippet
            FROM top10
            JOIN best ON best.doc_id = top10.doc_id
            JOIN tokl ON tokl.doc_id = top10.doc_id
        """,
        # 2-term disjunction 'data merge' with exact float32 scores: per-
        # term float32 scores summed in a float64 accumulator and cast
        # (DisjunctionSumScorer contract) — exact for two addends because
        # the double sum of two binary32 values is exact before the cast
        "bm25_bool_scores_exact": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            tfa AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'data' GROUP BY doc_id),
            tfb AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'merge' GROUP BY doc_id),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (
                SELECT {_bm25_w("(SELECT count(*) FROM tfa)")} AS wa,
                       {_bm25_w("(SELECT count(*) FROM tfb)")} AS wb,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            pairs AS (
                SELECT coalesce(tfa.doc_id, tfb.doc_id) AS doc_id,
                       tfa.freq AS fa, tfb.freq AS fb
                FROM tfa FULL OUTER JOIN tfb ON tfa.doc_id = tfb.doc_id
            ),
            scored AS (
                SELECT p.doc_id,
                       CAST(
                         coalesce(CAST({_bm25_score("c.wa", "p.fa", "k.inv")}
                                       AS DOUBLE), 0.0)
                       + coalesce(CAST({_bm25_score("c.wb", "p.fb", "k.inv")}
                                       AS DOUBLE), 0.0)
                       AS FLOAT) AS score
                FROM pairs p
                JOIN nb ON nb.doc_id = p.doc_id
                JOIN cache k ON k.b = nb.b, c
            )
            SELECT CAST(row_number() OVER (
                       ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT) AS rank,
                   doc_id, score
            FROM scored
        """,
        # Solr LTR contrib: first-pass window (the bool f32 chain above),
        # feature vector per candidate, LinearModel left-assoc f64 fold
        "ltr_rerank_topk": f"""
            WITH lt(b, lo) AS (VALUES {lt_values}),
            stats AS (
                SELECT (SELECT count(*) FROM documents) AS n_docs,
                       (SELECT CAST(sum(len({_TOK})) AS BIGINT)
                        FROM documents) AS sttf
            ),
            tok AS (SELECT doc_id, unnest({_TOK}) AS t FROM documents),
            tfa AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'data' GROUP BY doc_id),
            tfb AS (SELECT doc_id, count(*) AS freq FROM tok
                    WHERE t = 'merge' GROUP BY doc_id),
            nb AS (
                SELECT doc_id, (SELECT max(b) FROM lt WHERE lo <= n) AS b,
                       (SELECT max(lo) FROM lt WHERE lo <= n) AS dl
                FROM (SELECT doc_id, len({_TOK}) AS n FROM documents)
            ),
            c AS (
                SELECT {_bm25_w("(SELECT count(*) FROM tfa)")} AS wa,
                       {_bm25_w("(SELECT count(*) FROM tfb)")} AS wb,
                       CAST(sttf / CAST(n_docs AS DOUBLE) AS FLOAT) AS avgdl
                FROM stats
            ),
            cache AS (SELECT lt.b, {_bm25_cache_expr} AS inv FROM lt, c),
            pairs AS (
                SELECT coalesce(tfa.doc_id, tfb.doc_id) AS doc_id,
                       tfa.freq AS fa, tfb.freq AS fb
                FROM tfa FULL OUTER JOIN tfb ON tfa.doc_id = tfb.doc_id
            ),
            scored AS (
                SELECT p.doc_id, p.fa, p.fb, nb.dl,
                       CAST(
                         coalesce(CAST({_bm25_score("c.wa", "p.fa", "k.inv")}
                                       AS DOUBLE), 0.0)
                       + coalesce(CAST({_bm25_score("c.wb", "p.fb", "k.inv")}
                                       AS DOUBLE), 0.0)
                       AS FLOAT) AS f_bm25
                FROM pairs p
                JOIN nb ON nb.doc_id = p.doc_id
                JOIN cache k ON k.b = nb.b, c
            ),
            win AS (
                SELECT * FROM (
                    SELECT *, row_number() OVER (
                        ORDER BY f_bm25 DESC, doc_id ASC) AS rn
                    FROM scored
                ) WHERE rn <= 50
            ),
            feats AS (
                SELECT doc_id, f_bm25,
                       CAST(coalesce(fa, 0) + coalesce(fb, 0) AS BIGINT)
                           AS f_tf_sum,
                       CAST((CASE WHEN fa IS NULL THEN 0 ELSE 1 END)
                          + (CASE WHEN fb IS NULL THEN 0 ELSE 1 END)
                          AS BIGINT) AS f_matched,
                       CAST(dl AS BIGINT) AS f_doc_len
                FROM win
            ),
            modeled AS (
                SELECT *,
                       (((0.5 * CAST(f_bm25 AS DOUBLE))
                         + (0.05 * CAST(f_tf_sum AS DOUBLE)))
                        + (0.25 * CAST(f_matched AS DOUBLE)))
                       + (-0.001 * CAST(f_doc_len AS DOUBLE)) AS score
                FROM feats
            )
            SELECT CAST(row_number() OVER (
                       ORDER BY score DESC, doc_id ASC) - 1 AS BIGINT) AS rank,
                   doc_id, f_bm25, f_tf_sum, f_matched, f_doc_len, score
            FROM modeled
            ORDER BY score DESC, doc_id ASC LIMIT 20
        """,
        "term_df_ttf": f"""
            SELECT term, count(*) AS df, CAST(sum(cnt) AS BIGINT) AS ttf
            FROM ({tok_pairs}) GROUP BY term
        """,
        # Multimodal metadata extraction replayed exactly: the synth image
        # payload (engine/multimodal.py synth_image_payloads: format header
        # by doc_id % 3 + sha256("42:{id}") digest x (id%5+1)) reconstructs
        # in SQL via from_hex, so n_bytes / sniffed format / parsed
        # dimensions / md5-of-hex fingerprint all recompute bit-for-bit
        "image_meta": """
            WITH p AS (
                SELECT doc_id,
                       CASE WHEN doc_id % 3 = 0 THEN from_hex(
                                '89504e470d0a1a0a' || '0000000000000000'
                                || format('{:08x}', 16 + doc_id % 64)
                                || format('{:08x}', 9 + doc_id % 32))
                            WHEN doc_id % 3 = 1 THEN from_hex(
                                '474946383961'
                                || format('{:02x}', (32 + doc_id % 100) % 256)
                                || format('{:02x}', (32 + doc_id % 100) // 256)
                                || '1800')
                            ELSE from_hex('ffd8ffe0') END
                       || repeat(from_hex(sha256('42:' || CAST(doc_id AS VARCHAR))),
                                 CAST(doc_id % 5 + 1 AS INTEGER)) AS payload
                FROM documents
            )
            SELECT doc_id,
                   CAST(octet_length(payload) AS BIGINT) AS n_bytes,
                   CASE doc_id % 3 WHEN 0 THEN 'png' WHEN 1 THEN 'gif'
                        ELSE 'jpeg' END AS format,
                   CAST(CASE doc_id % 3 WHEN 0 THEN 16 + doc_id % 64
                        WHEN 1 THEN 32 + doc_id % 100 ELSE -1 END
                        AS INTEGER) AS width,
                   CAST(CASE doc_id % 3 WHEN 0 THEN 9 + doc_id % 32
                        WHEN 1 THEN 24 ELSE -1 END AS INTEGER) AS height,
                   md5(lower(hex(payload))) AS content_md5
            FROM p
        """,
        # Audio RMS frames replayed exactly: the media payload is the
        # sha256 digest repeated (period 32), every 256-sample window at
        # hop 128 covers exactly 8 periods, and int8-square sums are exact
        # integers in f64 — rms = sqrt(8 * S32 / 256.0) independent of
        # summation order
        "audio_frame_energy": """
            WITH hx AS (
                SELECT doc_id,
                       lower(sha256('media:7:' || CAST(doc_id AS VARCHAR))) AS h,
                       (32 * ((doc_id % 40) + 8) - 256) // 128 + 1 AS n_frames
                FROM documents
            ),
            bytes AS (
                SELECT doc_id, n_frames,
                       (strpos('0123456789abcdef',
                               substring(h, CAST(2 * j + 1 AS INTEGER), 1)) - 1) * 16
                     + (strpos('0123456789abcdef',
                               substring(h, CAST(2 * j + 2 AS INTEGER), 1)) - 1) AS b
                FROM hx, (SELECT unnest(range(32)) AS j)
            ),
            s32 AS (
                SELECT doc_id, any_value(n_frames) AS n_frames,
                       sum(CASE WHEN b > 127 THEN (b - 256) * (b - 256)
                                ELSE b * b END) AS s
                FROM bytes GROUP BY doc_id
            )
            SELECT doc_id, CAST(f AS INTEGER) AS frame,
                   sqrt((8 * s) / 256.0) AS rms_energy
            FROM (SELECT doc_id, s,
                         unnest(range(CAST(n_frames AS BIGINT))) AS f
                  FROM s32)
        """,
        # Video frame sampling replayed exactly: 64-byte fake frames over
        # the period-32 payload => every frame's mean luma = (unsigned
        # byte sum of one period) / 32, frames sampled at stride 4
        "video_frame_sample": """
            WITH hx AS (
                SELECT doc_id,
                       lower(sha256('media:7:' || CAST(doc_id AS VARCHAR))) AS h,
                       (32 * ((doc_id % 40) + 8)) // 64 AS n_frames
                FROM documents
            ),
            bytes AS (
                SELECT doc_id, n_frames,
                       (strpos('0123456789abcdef',
                               substring(h, CAST(2 * j + 1 AS INTEGER), 1)) - 1) * 16
                     + (strpos('0123456789abcdef',
                               substring(h, CAST(2 * j + 2 AS INTEGER), 1)) - 1) AS b
                FROM hx, (SELECT unnest(range(32)) AS j)
            ),
            s32 AS (
                SELECT doc_id, any_value(n_frames) AS n_frames, sum(b) AS s
                FROM bytes GROUP BY doc_id
            )
            SELECT doc_id, CAST(i AS INTEGER) AS frame_idx,
                   (2 * s) / 64.0 AS mean_luma
            FROM (SELECT doc_id, s,
                         unnest(range(0, CAST(n_frames AS BIGINT), 4)) AS i
                  FROM s32)
        """,
        # PhoneticFilter role: top-50 Soundex codes by distinct source
        # terms; non-alphabetic tokens pass through uncoded
        "soundex_groups": f"""
            WITH terms AS (
                SELECT DISTINCT t FROM (
                    SELECT unnest({_TOK}) AS t FROM documents)
            ),
            coded AS (
                SELECT CASE WHEN NOT regexp_full_match(t, '[a-z]+')
                            THEN t ELSE {_sdx_expr} END AS code
                FROM terms
            )
            SELECT code, CAST(count(*) AS BIGINT) AS n_terms FROM coded
            GROUP BY code ORDER BY n_terms DESC, code ASC LIMIT 50
        """,
        "top100_terms": f"""
            SELECT term, count(*) AS df FROM ({tok_pairs})
            GROUP BY term ORDER BY df DESC, term ASC LIMIT 100
        """,
        "token_counts_extracted": f"""
            SELECT doc_id, len({_TOK}) AS n_tokens FROM documents
        """,
        "phrase_match_docs": f"""
            SELECT doc_id FROM documents
            WHERE ' ' || array_to_string({_TOK}, ' ') || ' ' LIKE '% data join %'
        """,
        # Solr TermsComponent: dictionary slice [lower, upper) with df
        "terms_component": f"""
            SELECT term, df FROM (
                SELECT t AS term, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
                FROM (SELECT doc_id, unnest({_TOK}) AS t FROM documents)
                GROUP BY t
            ) WHERE term >= 'd' AND term < 'n'
            ORDER BY term LIMIT 20
        """,
        # updateNumericDocValue generation: 'dup' docs get n_chars = 9999,
        # then the DV sort over 'data' matches reflects the update
        "dv_update_sort": f"""
            SELECT CAST(rn - 1 AS BIGINT) AS rank, doc_id, n_chars FROM (
                SELECT doc_id,
                       CAST(CASE WHEN list_contains({_TOK}, 'dup')
                            THEN 9999 ELSE n_chars END AS BIGINT) AS n_chars,
                       row_number() OVER (
                           ORDER BY CASE WHEN list_contains({_TOK}, 'dup')
                                    THEN 9999 ELSE n_chars END DESC,
                                    doc_id ASC) AS rn
                FROM documents WHERE list_contains({_TOK}, 'data')
            ) WHERE rn <= 20
        """,
        # multi-key DocValues sort: matches of 'data' by the comparator
        # cascade (n_chars desc, lang asc, doc_id asc) top 20
        "sort_by_fields": f"""
            SELECT doc_id, n_chars, lang FROM documents
            WHERE list_contains({_TOK}, 'data')
            ORDER BY n_chars DESC, lang ASC, doc_id ASC LIMIT 20
        """,
        # AllGroupHeads: per customer the (max totalprice, tie min orderkey)
        # order; row count == AllGroups distinct-group count
        "group_heads_orders": """
            SELECT o_custkey, o_orderkey, o_totalprice FROM (
                SELECT o_custkey, o_orderkey, o_totalprice,
                       row_number() OVER (
                           PARTITION BY o_custkey
                           ORDER BY o_totalprice DESC, o_orderkey ASC
                       ) AS rn
                FROM orders
            ) WHERE rn = 1
        """,
        # payload stream (DelimitedPayloadTokenFilter + PayloadScoreQuery
        # functions): every occurrence's payload is its token position, so
        # min/max/sum/count recompute from a positions self-join
        "payload_term_stats": f"""
            WITH tok AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            )
            SELECT doc_id,
                   CAST(min(p) AS BIGINT) AS pay_min,
                   CAST(max(p) AS BIGINT) AS pay_max,
                   CAST(sum(p) AS BIGINT) AS pay_sum,
                   CAST(count(*) AS BIGINT) AS pay_cnt
            FROM tok WHERE t = 'data' GROUP BY doc_id
        """,
        # query-time join (JoinUtil ScoreMode.NONE): docs whose lang value
        # is shared with some doc matching the from-query
        "join_util_docs": f"""
            SELECT doc_id FROM documents WHERE n_chars IN (
                SELECT DISTINCT n_chars FROM documents
                WHERE list_contains({_TOK}, 'dup')
            )
        """,
        # MultiPhraseQuery "data|hash jo*": slot 1 is an alternative set,
        # slot 2 a dictionary-expanded wildcard — adjacent-position join
        "multi_phrase_match_docs": f"""
            WITH tok AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            )
            SELECT DISTINCT a.doc_id FROM tok a JOIN tok b USING (doc_id)
            WHERE a.t IN ('data', 'hash') AND b.t LIKE 'jo%'
              AND b.p = a.p + 1
        """,
        "bm25_bool_nested": f"""
            SELECT doc_id FROM documents
            WHERE (list_contains({_TOK}, 'data') OR list_contains({_TOK}, 'join'))
              AND (list_contains({_TOK}, 'hash') OR list_contains({_TOK}, 'merge'))
              AND NOT list_contains({_TOK}, 'dup')
            ORDER BY doc_id
        """,
        # keep-latest by url over the deterministic recrawl union: the
        # newer copy (doc_id + n, warc_ts + 1000 s) wins for every url;
        # url and warc_ts are doc_id-derived (engine/fixtures.py:81-82)
        "dedup_pages_by_url": """
            SELECT doc_id + (SELECT count(*) FROM documents) AS doc_id,
                   'https://site' || CAST(doc_id % 50 AS VARCHAR)
                     || '.example/p/' || CAST(doc_id AS VARCHAR) AS url,
                   CAST(1577836800 + 37 * doc_id + 1000 AS BIGINT) AS warc_ts_s
            FROM documents
        """,
        # 64-bit SimHash recomputed from scratch in SQL: per-(doc, term)
        # counts, the FNV-1a fold over token characters (exact HUGEINT
        # mod-2^64 chain), signed bit-count accumulation, bit 63 masked —
        # the sketch column is thereby checked end-to-end, not rows-only
        "simhash64": f"""
            WITH {_simhash_cte}
            SELECT doc_id, simhash FROM shfull
        """,
        # SimHash near-dup pairs, exact: chunk-TRIPLE banding is
        # EXHAUSTIVE at hamming <= 3 (<= 3 dirty chunks of 6 leaves one
        # intact triple, engine/dedup.py:554-564), so the engine's pair
        # set equals the brute-force self-join below (bit_count of the
        # xor). Bucket pair caps never bind at gate scale.
        "simhash_near_dup_pairs": f"""
            WITH {_simhash_cte}
            SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
                   CAST(bit_count(xor(a.simhash, b.simhash)) AS BIGINT)
                       AS hamming
            FROM shfull a JOIN shfull b ON a.doc_id < b.doc_id
            WHERE bit_count(xor(a.simhash, b.simhash)) <= 3
        """,
        "token_counts_docs": f"""
            SELECT doc_id, len({_TOK}) AS n_tokens FROM documents
        """,
        # Porter-stemmed df top-100: the full 1980 algorithm replayed as
        # the CTE chain above (stemming only the DISTINCT vocabulary),
        # df = docs whose stemmed token set contains the stem
        "stemmed_top_terms": f"""
            WITH tok AS (
                SELECT DISTINCT doc_id, unnest({_TOK}) AS w FROM documents
            ),
            vocab AS (SELECT DISTINCT w FROM tok),
            {_porter_ctes},
            sdf AS (
                SELECT p.stem AS term, count(DISTINCT t.doc_id) AS df
                FROM tok t JOIN pstem p ON p.w = t.w
                GROUP BY p.stem
            )
            SELECT term, df FROM sdf ORDER BY df DESC, term ASC LIMIT 100
        """,
        # WordDelimiterGraphFilter over the injected token
        # Wi-Fi{d}PowerShot's (d = doc_id % 10): the oracle rebuilds the
        # 9 emitted terms by string concat — original (possessive kept on
        # the preserved token), word/number parts, the two CATENATE_WORDS
        # runs, and the CATENATE_ALL join — all lowercased by the chain
        "word_delimiter_terms": """
            SELECT doc_id, unnest([
                'wi-fi' || d || 'powershot''s',
                'wi', 'fi', 'wifi', d, 'power', 'shot', 'powershot',
                'wifi' || d || 'powershot'
            ]) AS term
            FROM (SELECT doc_id, CAST(doc_id % 10 AS VARCHAR) AS d
                  FROM documents)
        """,
        # greedy first-fit-sequential packing replayed as a list_reduce
        # fold per 64-doc chunk: accumulator = [fill, open_seq,
        # assignment...], init fill=budget+1 forces the first doc (even a
        # 0-token one) to open seq 0; a doc joins the open sequence iff
        # fill + n <= 512, else opens the next (overflow docs get their
        # own sequence; empty docs join the open one)
        "token_pack_sequences": f"""
            WITH tok AS (
                SELECT doc_id, CAST(len({_TOK}) AS BIGINT) AS n,
                       doc_id // 64 AS chunk_id
                FROM documents
            ),
            per_chunk AS (
                SELECT chunk_id,
                       list(doc_id ORDER BY doc_id) AS dids,
                       list(n ORDER BY doc_id) AS ns
                FROM tok GROUP BY chunk_id
            ),
            folded AS (
                SELECT chunk_id, dids, ns,
                    list_reduce(
                        list_prepend(
                            [CAST(513 AS BIGINT), CAST(-1 AS BIGINT)],
                            list_transform(ns, n -> [n, CAST(0 AS BIGINT)])),
                        (a, x) -> CASE WHEN a[1] + x[1] <= 512
                            THEN list_concat(
                                list_concat([a[1] + x[1], a[2]], a[3:]),
                                [a[2]])
                            ELSE list_concat(
                                list_concat([x[1], a[2] + 1], a[3:]),
                                [a[2] + 1]) END
                    ) AS st
                FROM per_chunk
            )
            SELECT unnest(dids) AS doc_id, unnest(ns) AS n_tokens,
                   chunk_id, unnest(st[3:]) AS seq_id
            FROM folded
        """,
        # anchor-text aggregation over the same link fixture: per target
        # the in-link count and the DISTINCT anchor vocabulary (anchors
        # = each source's first two tokens)
        "anchor_stats": f"""
            WITH e AS (
                SELECT doc_id AS source,
                       (doc_id * 31 + 7) % (SELECT count(*) FROM documents)
                           AS target
                FROM documents
                WHERE (doc_id * 31 + 7) % (SELECT count(*) FROM documents)
                          != doc_id
                UNION ALL
                SELECT doc_id,
                       (doc_id * 97 + 13) % (SELECT count(*) FROM documents)
                FROM documents
                WHERE (doc_id * 97 + 13) % (SELECT count(*) FROM documents)
                          != doc_id
                UNION ALL
                SELECT doc_id,
                       (doc_id * 131 + 29) % (SELECT count(*) FROM documents)
                FROM documents
                WHERE (doc_id * 131 + 29) % (SELECT count(*) FROM documents)
                          != doc_id
            ),
            anch AS (
                SELECT doc_id, unnest(({_TOK})[1:2]) AS tok FROM documents
            ),
            links AS (
                SELECT target, CAST(count(*) AS BIGINT) AS n_inlinks
                FROM e GROUP BY target
            ),
            terms AS (
                SELECT e.target,
                       CAST(count(DISTINCT anch.tok) AS BIGINT)
                           AS n_anchor_terms
                FROM e JOIN anch ON anch.doc_id = e.source
                GROUP BY e.target
            )
            SELECT l.target AS doc_id, l.n_inlinks,
                   coalesce(t.n_anchor_terms, 0) AS n_anchor_terms
            FROM links l LEFT JOIN terms t ON t.target = l.target
        """,
        # PageRank power iteration (5 damped updates, fixture graph
        # i -> (i*31+7)%N / (i*97+13)%N / (i*131+29)%N, self-loops
        # dropped, parallel edges kept, dangling mass dropped): every
        # f64 reduction order-pinned — per-target contributions fold
        # source-ascending (0.0-seeded left-assoc == reduceat), update
        # = (0.15/N) + 0.85 * s
        "pagerank": _pagerank_sql(),
        "personalized_pagerank": _ppr_sql(0, 5),
        # bibliographic coupling: distinct-edge self-join on the shared
        # target, all integers
        "bib_coupling_pairs": f"""
            WITH arms AS (
                {" UNION ALL ".join(
                    f"SELECT doc_id AS s, (doc_id * {a} + {b}) %"
                    f" (SELECT count(*) FROM documents) AS t FROM documents"
                    f" WHERE (doc_id * {a} + {b}) %"
                    f" (SELECT count(*) FROM documents) != doc_id"
                    for a, b in ((31, 7), (97, 13), (131, 29)))}
            ),
            e AS (SELECT DISTINCT s, t FROM arms)
            SELECT a.s AS doc_a, b.s AS doc_b,
                   CAST(count(*) AS BIGINT) AS n_common
            FROM e a JOIN e b ON a.t = b.t AND a.s < b.s
            GROUP BY 1, 2
        """,
        # co-citation = the source-side self-join (transpose of the
        # coupling join above), over the DISTINCT edge set
        "co_citation_pairs": f"""
            WITH arms AS ({_graph_arms_sql()}),
            e AS (SELECT DISTINCT s, t FROM arms)
            SELECT a.t AS doc_a, b.t AS doc_b,
                   CAST(count(*) AS BIGINT) AS n_common
            FROM e a JOIN e b ON a.s = b.s AND a.t < b.t
            GROUP BY 1, 2
        """,
        "degree_histogram": f"""
            WITH arms AS ({_graph_arms_sql()}),
            ind AS (
                SELECT d.doc_id, coalesce(x.c, 0) AS deg
                FROM documents d LEFT JOIN (
                    SELECT t AS doc_id, CAST(count(*) AS BIGINT) AS c
                    FROM arms GROUP BY t) x ON x.doc_id = d.doc_id
            ),
            outd AS (
                SELECT d.doc_id, coalesce(x.c, 0) AS deg
                FROM documents d LEFT JOIN (
                    SELECT s AS doc_id, CAST(count(*) AS BIGINT) AS c
                    FROM arms GROUP BY s) x ON x.doc_id = d.doc_id
            ),
            u AS (
                SELECT 'in' AS kind, deg FROM ind
                UNION ALL SELECT 'out', deg FROM outd
            )
            SELECT kind, CAST(deg AS BIGINT) AS degree,
                   CAST(count(*) AS BIGINT) AS n_nodes
            FROM u GROUP BY 1, 2
        """,
        # Adamic-Adar: 1/ln(indeg) folded target-ascending per pair
        "adamic_adar_pairs": f"""
            WITH arms AS ({_graph_arms_sql()}),
            e AS (SELECT DISTINCT s, t FROM arms),
            deg AS (SELECT t, CAST(count(*) AS BIGINT) AS d
                    FROM e GROUP BY t),
            pr AS (
                SELECT a.s AS doc_a, b.s AS doc_b, a.t AS t, deg.d
                FROM e a JOIN e b ON a.t = b.t AND a.s < b.s
                JOIN deg ON deg.t = a.t
            )
            SELECT doc_a, doc_b, CAST(count(*) AS BIGINT) AS n_common,
                   list_reduce(list_prepend(CAST(0.0 AS DOUBLE),
                       list(1.0 / ln(CAST(d AS DOUBLE)) ORDER BY t)),
                       (x, y) -> x + y) AS aa_score
            FROM pr GROUP BY doc_a, doc_b
        """,
        "event_transitions": """
            WITH s AS (
                SELECT user_id, event_type,
                       lead(event_type) OVER (
                           PARTITION BY user_id
                           ORDER BY epoch_us(ts), event_id) AS nxt
                FROM events
            )
            SELECT event_type AS from_type, nxt AS to_type,
                   CAST(count(*) AS BIGINT) AS n
            FROM s WHERE nxt IS NOT NULL GROUP BY 1, 2
        """,
        "hits_scores": _hits_sql(2),
        "bfs_hops": _bfs_sql(0, 4),
        "bpe_learn_merges": _bpe_sql(4),
        # winnowing (k=4, w=5): gram hash = fnv1a over the space-joined
        # 4-token slice; per window pick (h asc, i desc) first; distinct
        # positions are the fingerprints; m < w forms a single window
        "winnow_fingerprints": f"""
            WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
            g0 AS (
                -- gram built BEFORE the fnv fold: the fold's lambda
                -- variable is also "i" and would shadow this slice index
                SELECT doc_id, CAST(i AS BIGINT) AS i,
                       array_to_string(ts[i : i + 3], ' ') AS gram
                FROM (SELECT doc_id, ts,
                             unnest(range(1, len(ts) - 2)) AS i
                      FROM tok WHERE len(ts) >= 4)
            ),
            g AS (
                SELECT doc_id, i, {_fnv_str_sql('gram')} AS h FROM g0
            ),
            wins AS (
                SELECT doc_id, CAST(p AS BIGINT) AS p
                FROM (SELECT doc_id,
                             unnest(range(1,
                                 greatest(len(ts) - 7, 1) + 1)) AS p
                      FROM tok WHERE len(ts) >= 4)
            ),
            sel AS (
                SELECT doc_id, i, h FROM (
                    SELECT w.doc_id, g.i, g.h, row_number() OVER (
                        PARTITION BY w.doc_id, w.p
                        ORDER BY g.h ASC, g.i DESC) AS rn
                    FROM wins w JOIN g ON g.doc_id = w.doc_id
                        AND g.i >= w.p AND g.i <= w.p + 4
                ) WHERE rn = 1
            ),
            f AS (SELECT DISTINCT doc_id, i, h FROM sel),
            agg AS (
                SELECT doc_id, CAST(count(*) AS BIGINT) AS n_fingerprints,
                       min(h) AS min_fp, max(h) AS max_fp
                FROM f GROUP BY doc_id
            )
            SELECT t.doc_id,
                   CAST(greatest(len(t.ts) - 3, 0) AS BIGINT) AS n_grams,
                   coalesce(a.n_fingerprints, 0) AS n_fingerprints,
                   CAST(coalesce(a.min_fp, 0) AS UBIGINT) AS min_fp,
                   CAST(coalesce(a.max_fp, 0) AS UBIGINT) AS max_fp
            FROM tok t LEFT JOIN agg a ON a.doc_id = t.doc_id
        """,
        # StandardScaler stats: vec_id-ordered folds, exact division,
        # single-op deviations, correctly-rounded sqrt
        "embedding_dim_stats": """
            WITH x AS (
                SELECT vec_id, CAST(i AS BIGINT) AS dim,
                       CAST(e AS DOUBLE) AS v
                FROM (SELECT vec_id, unnest(embedding) AS e,
                             unnest(range(len(embedding))) AS i
                      FROM embeddings)
            ),
            mn AS (
                SELECT dim,
                       list_reduce(list_prepend(CAST(0.0 AS DOUBLE),
                           list(v ORDER BY vec_id)), (a, b) -> a + b)
                       / CAST(count(*) AS DOUBLE) AS mean
                FROM x GROUP BY dim
            ),
            vr AS (
                SELECT x.dim,
                       list_reduce(list_prepend(CAST(0.0 AS DOUBLE),
                           list((x.v - mn.mean) * (x.v - mn.mean)
                                ORDER BY x.vec_id)), (a, b) -> a + b)
                       / CAST(count(*) AS DOUBLE) AS variance
                FROM x JOIN mn ON mn.dim = x.dim GROUP BY x.dim
            )
            SELECT mn.dim, mn.mean, vr.variance,
                   sqrt(vr.variance) AS std
            FROM mn JOIN vr ON vr.dim = mn.dim
        """,
        # SQ8: single-f64-op chain on exactly-widened f32 operands;
        # min/max are selections; clamp is a selection; sums integer
        "sq8_codes": """
            WITH x AS (
                SELECT vec_id,
                       unnest(range(len(embedding))) AS dim,
                       CAST(unnest(embedding) AS DOUBLE) AS v
                FROM embeddings
            ),
            mm AS (SELECT dim, min(v) AS mn, max(v) AS mx FROM x GROUP BY dim),
            codes AS (
                SELECT vec_id,
                       CASE WHEN mx = mn THEN CAST(0 AS BIGINT)
                            ELSE CAST(least(greatest(
                                floor(((v - mn) * 255.0) / (mx - mn)),
                                0.0), 255.0) AS BIGINT) END AS c
                FROM x JOIN mm USING (dim)
            )
            SELECT vec_id, CAST(sum(c) AS BIGINT) AS code_sum,
                   min(c) AS code_min, max(c) AS code_max
            FROM codes GROUP BY vec_id
        """,
        "block_join_children": """
            SELECT l.l_orderkey,
                   CAST(l.l_linenumber AS BIGINT) AS l_linenumber,
                   o.o_totalprice AS parent_price
            FROM lineitem l JOIN orders o ON o.o_orderkey = l.l_orderkey
            WHERE o.o_orderpriority = '1-URGENT'
              AND o.o_totalprice >= 150000.0
        """,
        # exact type-1 quantiles: smallest value with cumulative count
        # >= ceil(q * N) over the n_chars histogram
        # KWIC: duckdb 1-based-inclusive list slice == Python
        # toks[lo : p+width+1] (the snippet-fragment slice rule)
        "kwic_concordance": f"""
            WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
            pos AS (
                SELECT doc_id, ts, CAST(i AS BIGINT) AS p
                FROM (SELECT doc_id, ts, unnest(range(len(ts))) AS i
                      FROM tok WHERE len(ts) > 0)
                WHERE ts[CAST(i + 1 AS INT)] = 'join'
            )
            SELECT doc_id, p AS pos,
                   array_to_string(
                       ts[greatest(0, p - 3) + 1 : least(len(ts), p + 4)],
                       ' ') AS context
            FROM pos
        """,
        # coverage curve: integer window cumsum over (ttf desc, term asc)
        "vocab_coverage": f"""
            WITH tt AS (
                SELECT t AS term, count(*) AS ttf FROM (
                    SELECT unnest({_TOK}) AS t FROM documents) GROUP BY t
            ),
            r AS (SELECT term, ttf, row_number() OVER (
                      ORDER BY ttf DESC, term ASC) AS rn FROM tt),
            tot AS (SELECT CAST(sum(ttf) AS BIGINT) AS total FROM tt),
            v(v) AS (VALUES (10), (20), (30), (50))
            SELECT CAST(v.v AS BIGINT) AS v,
                   CAST((SELECT sum(ttf) FROM r WHERE rn <= v.v) AS BIGINT)
                       AS covered_ttf,
                   tot.total AS total_ttf
            FROM v, tot
        """,
        # per-group hash sample: the fmix64(fnv) key chain replayed,
        # window rn per source
        "group_sample_hash": f"""
            SELECT source, doc_id FROM (
                SELECT source, doc_id, row_number() OVER (
                    PARTITION BY source
                    ORDER BY {_fmix64_sql(_fnv_sql("doc_id"))}) AS rn
                FROM documents
            ) WHERE rn <= 16
        """,
        # resumable sink manifest on a fresh dir: bucket sizes = the
        # FNV residue histogram, statuses all 'written'
        "resumable_sink_manifest": f"""
            SELECT ({_fnv_sql("doc_id")}) % 8 AS bucket,
                   'written' AS status,
                   CAST(count(*) AS BIGINT) AS n_rows
            FROM documents GROUP BY 1
        """,
        # dynamic quantile trim: thresholds from the same exact
        # value-histogram rule, inclusive integer bounds
        "quantile_trim": """
            WITH h AS (
                SELECT n_chars AS v, count(*) AS c FROM documents
                GROUP BY n_chars
            ),
            cum AS (
                SELECT v, sum(c) OVER (ORDER BY v) AS cc,
                       (SELECT count(*) FROM documents) AS n
                FROM h
            ),
            thr AS (
                SELECT
                    (SELECT min(v) FROM cum
                     WHERE cc >= GREATEST(1, CAST(ceil(0.05 * cum2.n)
                                                  AS BIGINT))) AS lo,
                    (SELECT min(v) FROM cum
                     WHERE cc >= GREATEST(1, CAST(ceil(0.99 * cum2.n)
                                                  AS BIGINT))) AS hi
                FROM (SELECT DISTINCT n FROM cum) cum2
            )
            SELECT doc_id, n_chars FROM documents, thr
            WHERE n_chars >= thr.lo AND n_chars <= thr.hi
        """,
        "doclen_quantiles": """
            WITH h AS (
                SELECT n_chars AS v, count(*) AS c FROM documents
                GROUP BY n_chars
            ),
            cum AS (
                SELECT v, sum(c) OVER (ORDER BY v) AS cc,
                       (SELECT count(*) FROM documents) AS n
                FROM h
            ),
            q(q) AS (VALUES (0.5), (0.9), (0.99))
            SELECT q.q AS q,
                   (SELECT min(v) FROM cum
                    WHERE cc >= GREATEST(1, CAST(ceil(q.q * cum2.n)
                                                 AS BIGINT))) AS value
            FROM q, (SELECT DISTINCT n FROM cum) cum2
        """,
        # Count-Min Sketch (d=4, w=512): the identical salted-fmix64
        # matrix rebuilt from token counts; estimate = min over rows of
        # the query term's cell — collision inflation matches exactly
        "cms_term_counts": f"""
            WITH tc AS (
                SELECT t, CAST(count(*) AS BIGINT) AS c FROM (
                    SELECT unnest({_TOK}) AS t FROM documents) GROUP BY t
            ),
            salts(r, s) AS (VALUES {_cms_salt_rows}),
            cells AS (
                SELECT salts.r AS rw,
                       CAST(({_fmix64_sql('xor(' + _fnv_str_sql('t') + ', salts.s)')})
                            % 512 AS BIGINT) AS col,
                       CAST(sum(c) AS BIGINT) AS cnt
                FROM tc, salts GROUP BY 1, 2
            ),
            q(term) AS (VALUES ('the'), ('data'), ('join'), ('zzmissing')),
            qcell AS (
                SELECT q.term, salts.r AS rw,
                       CAST(({_fmix64_sql('xor(' + _fnv_str_sql('term') + ', salts.s)')})
                            % 512 AS BIGINT) AS col
                FROM q, salts
            )
            SELECT qcell.term, CAST(min(coalesce(cells.cnt, 0)) AS BIGINT)
                       AS est
            FROM qcell LEFT JOIN cells
              ON cells.rw = qcell.rw AND cells.col = qcell.col
            GROUP BY qcell.term
        """,
        # HyperLogLog vocab cardinality (b=6, m=64): bucket = h >> 58,
        # rank = 33 - bitlength(h % 2^32) via bin() string length (no
        # floats), untouched buckets rank 0; the raw-HLL estimate folds
        # 2^-rank in bucket order so the f64 arithmetic replays exactly
        # serpentine sharding: closed-form integer rule over the
        # (n_chars desc, doc_id asc) rank
        "balanced_shards": """
            WITH r AS (
                SELECT doc_id, n_chars,
                       row_number() OVER (
                           ORDER BY n_chars DESC, doc_id ASC) - 1 AS rank
                FROM documents
            ),
            a AS (
                SELECT n_chars,
                       CASE WHEN (rank // 8) % 2 = 0 THEN rank % 8
                            ELSE 7 - (rank % 8) END AS shard
                FROM r
            )
            SELECT CAST(shard AS BIGINT) AS shard,
                   CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_chars
            FROM a GROUP BY shard
        """,
        "lexical_diversity": f"""
            WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
            c AS (
                SELECT doc_id, t, count(*) AS c FROM (
                    SELECT doc_id, unnest(ts) AS t FROM tok)
                GROUP BY doc_id, t
            ),
            agg AS (
                SELECT doc_id, CAST(sum(c) AS BIGINT) AS n_tokens,
                       CAST(count(*) AS BIGINT) AS n_types,
                       CAST(sum(CASE WHEN c = 1 THEN 1 ELSE 0 END)
                            AS BIGINT) AS n_hapax
                FROM c GROUP BY doc_id
            )
            SELECT t.doc_id, coalesce(a.n_tokens, 0) AS n_tokens,
                   coalesce(a.n_types, 0) AS n_types,
                   coalesce(a.n_hapax, 0) AS n_hapax
            FROM tok t LEFT JOIN agg a ON a.doc_id = t.doc_id
        """,
        "gazetteer_mentions": f"""
            WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents)
            
            SELECT doc_id, 'table hash' AS entity,
                   CAST(count(*) AS BIGINT) AS n_mentions
            FROM (SELECT doc_id, ts, unnest(range(1, len(ts) - 0)) AS i
                  FROM tok WHERE len(ts) >= 2)
            WHERE ts[i + 0] = 'table' AND ts[i + 1] = 'hash'
            GROUP BY doc_id UNION ALL 
            SELECT doc_id, 'merge group' AS entity,
                   CAST(count(*) AS BIGINT) AS n_mentions
            FROM (SELECT doc_id, ts, unnest(range(1, len(ts) - 0)) AS i
                  FROM tok WHERE len(ts) >= 2)
            WHERE ts[i + 0] = 'merge' AND ts[i + 1] = 'group'
            GROUP BY doc_id UNION ALL 
            SELECT doc_id, 'data' AS entity,
                   CAST(count(*) AS BIGINT) AS n_mentions
            FROM (SELECT doc_id, ts, unnest(range(1, len(ts) + 1)) AS i
                  FROM tok WHERE len(ts) >= 1)
            WHERE ts[i] = 'data'
            GROUP BY doc_id UNION ALL 
            SELECT doc_id, 'join' AS entity,
                   CAST(count(*) AS BIGINT) AS n_mentions
            FROM (SELECT doc_id, ts, unnest(range(1, len(ts) + 1)) AS i
                  FROM tok WHERE len(ts) >= 1)
            WHERE ts[i] = 'join'
            GROUP BY doc_id
        """,
        "df_histogram": f"""
            SELECT df, CAST(count(*) AS BIGINT) AS n_terms FROM (
                SELECT t, CAST(count(DISTINCT doc_id) AS BIGINT) AS df
                FROM (SELECT doc_id, unnest({_TOK}) AS t FROM documents)
                GROUP BY t
            ) GROUP BY df
        """,
        # KMV synopsis with set ops: pure hash selections; estimate =
        # ((k-1)*2^64 exact) / h_(k), then (n_common * D_union) / k
        "kmv_intersection": f"""
            WITH ka AS (
                SELECT h FROM (
                    SELECT DISTINCT {_fmix64_sql(_fnv_str_sql("w"))} AS h
                    FROM (SELECT DISTINCT unnest({_TOK}) AS w
                          FROM documents WHERE source = 'src0')
                ) ORDER BY h LIMIT 64
            ),
            kb AS (
                SELECT h FROM (
                    SELECT DISTINCT {_fmix64_sql(_fnv_str_sql("w"))} AS h
                    FROM (SELECT DISTINCT unnest({_TOK}) AS w
                          FROM documents WHERE source = 'src1')
                ) ORDER BY h LIMIT 64
            ),
            comb AS (
                SELECT h FROM (SELECT h FROM ka UNION SELECT h FROM kb)
                ORDER BY h LIMIT 64
            ),
            stats AS (
                SELECT CAST(count(*) AS BIGINT) AS kk, max(h) AS hk,
                       CAST(sum(CASE WHEN h IN (SELECT h FROM ka)
                                      AND h IN (SELECT h FROM kb)
                                     THEN 1 ELSE 0 END) AS BIGINT) AS nc
                FROM comb
            )
            SELECT kk AS k, nc AS n_common_in_sketch,
                   (CAST(kk - 1 AS DOUBLE) * 18446744073709551616.0)
                       / CAST(hk AS DOUBLE) AS d_union,
                   (CAST(nc AS DOUBLE)
                    * ((CAST(kk - 1 AS DOUBLE) * 18446744073709551616.0)
                       / CAST(hk AS DOUBLE)))
                       / CAST(kk AS DOUBLE) AS d_intersection
            FROM stats
        """,
        "hll_by_source": f"""
            WITH vocab AS (
                SELECT DISTINCT source, w FROM (
                    SELECT source, unnest({_TOK}) AS w FROM documents)
            ),
            h AS (SELECT source, {_fmix64_sql(_fnv_str_sql("w"))} AS hv
                  FROM vocab),
            br AS (
                SELECT source, CAST(hv >> 58 AS BIGINT) AS bucket,
                       CASE WHEN hv % 4294967296 = 0 THEN 33
                            ELSE 33 - length(bin(hv % 4294967296))
                       END AS rank
                FROM h
            ),
            mx AS (SELECT source, bucket, max(rank) AS rank
                   FROM br GROUP BY source, bucket),
            fb AS (
                SELECT s.source, r.i AS bucket, coalesce(mx.rank, 0) AS rank
                FROM (SELECT DISTINCT source FROM documents) s
                CROSS JOIN range(0, 64) r(i)
                LEFT JOIN mx ON mx.source = s.source AND mx.bucket = r.i
            ),
            acc AS (
                SELECT source,
                       list_reduce(
                           list_prepend(CAST(0.0 AS DOUBLE),
                               list(pow(2.0, -CAST(rank AS DOUBLE))
                                    ORDER BY bucket)),
                           (x, y) -> x + y) AS s,
                       CAST(sum(CASE WHEN rank = 0 THEN 1 ELSE 0 END)
                            AS BIGINT) AS nz
                FROM fb GROUP BY source
            )
            SELECT source, CAST(64 AS BIGINT) AS m, nz AS n_zero_buckets,
                   ((0.709 * 64.0) * 64.0) / s AS estimate
            FROM acc
        """,
        "hll_vocab_estimate": f"""
            WITH vocab AS (
                SELECT DISTINCT unnest({_TOK}) AS w FROM documents
            ),
            h AS (SELECT {_fmix64_sql(_fnv_str_sql("w"))} AS hv FROM vocab),
            br AS (
                SELECT CAST(hv >> 58 AS BIGINT) AS bucket,
                       CASE WHEN hv % 4294967296 = 0 THEN 33
                            ELSE 33 - length(bin(hv % 4294967296))
                       END AS rank
                FROM h
            ),
            mx AS (SELECT bucket, max(rank) AS rank FROM br GROUP BY bucket),
            fb AS (
                SELECT r.i AS bucket, coalesce(mx.rank, 0) AS rank
                FROM range(0, 64) r(i) LEFT JOIN mx ON mx.bucket = r.i
            ),
            acc AS (
                SELECT list_reduce(
                           list_prepend(CAST(0.0 AS DOUBLE),
                               list(pow(2.0, -CAST(rank AS DOUBLE))
                                    ORDER BY bucket)),
                           (x, y) -> x + y) AS s,
                       CAST(sum(CASE WHEN rank = 0 THEN 1 ELSE 0 END)
                            AS BIGINT) AS nz
                FROM fb
            )
            SELECT CAST(64 AS BIGINT) AS m, nz AS n_zero_buckets,
                   ((0.709 * 64.0) * 64.0) / s AS estimate
            FROM acc
        """,
        # Bloom seen-set filter: the even-doc_id crawl populates a 4096-bit
        # single-hash bitset (fnv1a string fold -> fmix64 -> % 4096); a
        # stream key is provably-new iff its bit is unset — the oracle
        # replays the BITSET itself, so even false-positive victims match
        "bloom_new_urls": f"""
            WITH k AS (
                SELECT doc_id,
                       'https://' || source || '.example.com/doc/'
                           || CAST(doc_id AS VARCHAR) AS url
                FROM documents
            ),
            h AS (
                SELECT doc_id, url,
                       ({_fmix64_sql(_fnv_str_sql("url"))}) % 4096 AS bit
                FROM k
            ),
            seen AS (SELECT DISTINCT bit FROM h WHERE doc_id % 2 = 0)
            SELECT h.doc_id, h.url
            FROM h LEFT JOIN seen ON h.bit = seen.bit
            WHERE seen.bit IS NULL
        """,
        # epoch shuffle: the seeded permutation key replayed exactly —
        # fmix64(fnv1a(doc_id LE bytes) XOR golden*(seed+1)) >> 1; the
        # driver compare is order-insensitive so the key VALUES are the
        # oracle surface; the block order itself is test-pinned
        "epoch_shuffle": f"""
            SELECT doc_id,
                   CAST(({_fmix64_sql(
                       f"xor({_fnv_sql('doc_id')}, "
                       f"CAST({(0x9E3779B97F4A7C15 * 2) & 0xFFFFFFFFFFFFFFFF}"
                       " AS UBIGINT))"
                   )}) >> 1 AS BIGINT) AS shuffle_key
            FROM documents
        """,
        # domain mixing: keep iff fnv(doc_id LE bytes) % 1000 <
        # per-source permille (src0 1000, src1 500, src2 250, src3 0,
        # default 100) — the deterministic-hash sampler replayed exactly
        # split audit: the FNV residue chain verbatim, integer counts
        "train_val_test_split": f"""
            SELECT source,
                   CASE WHEN r < 900 THEN 'train'
                        WHEN r < 950 THEN 'val'
                        ELSE 'test' END AS split,
                   CAST(count(*) AS BIGINT) AS n_docs
            FROM (SELECT source, ({_fnv_sql("doc_id")}) % 1000 AS r
                  FROM documents)
            GROUP BY 1, 2
        """,
        "domain_mix_sample": f"""
            SELECT doc_id, source FROM documents
            WHERE ({_fnv_sql("doc_id")}) % 1000 <
                  CASE source WHEN 'src0' THEN 1000 WHEN 'src1' THEN 500
                       WHEN 'src2' THEN 250 WHEN 'src3' THEN 0
                       ELSE 100 END
        """,
        # ExactSubstr dup spans (Lee et al. 2021 role): a 16-token window
        # is duplicated iff its exact content occurs 2+ times corpus-wide
        # (the engine groups by the 64-bit polynomial window hash — the
        # oracle groups by content, identical barring ~2^-64 collisions);
        # coverage = union of [pos, pos+16) via the lead() gap fold
        "dup_span_stats": f"""
            WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
            win AS (
                SELECT doc_id, CAST(i AS BIGINT) AS pos,
                       array_to_string(
                           ts[CAST(i + 1 AS INT) : CAST(i + 16 AS INT)],
                           ' ') AS w
                FROM tok, range(0, 8192) r(i)
                WHERE len(ts) >= 16 AND i <= len(ts) - 16
            ),
            dup AS (
                SELECT doc_id, pos FROM (
                    SELECT doc_id, pos,
                           count(*) OVER (PARTITION BY w) AS c
                    FROM win
                ) WHERE c >= 2
            ),
            cov AS (
                SELECT doc_id,
                       coalesce(least(16, lead(pos) OVER (
                           PARTITION BY doc_id ORDER BY pos) - pos), 16)
                           AS c
                FROM dup
            )
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_dup_windows,
                   CAST(sum(c) AS BIGINT) AS n_dup_tokens
            FROM cov GROUP BY doc_id
        """,
        # sliding-window LM chunking replayed exactly: analyzer tokens
        # via regexp_extract_all, chunk i starts at i*32, emitted iff it
        # contributes a new token (i = 0, or n - start > window - stride
        # = 32); slice is 1-based inclusive and clamps at the list end,
        # chunk_text = space-join of the window's tokens
        "chunk_sliding": f"""
            WITH tok AS (
                SELECT doc_id, {_TOK} AS toks,
                       CAST(len({_TOK}) AS BIGINT) AS n
                FROM documents
            ),
            ch AS (
                SELECT doc_id, CAST(i AS BIGINT) AS chunk_idx,
                       CAST(i * 32 AS BIGINT) AS start_tok, toks, n
                FROM tok, range(0, 1024) r(i)
                WHERE i * 32 < n AND (i = 0 OR n - i * 32 > 32)
            )
            SELECT doc_id, chunk_idx, start_tok,
                   CAST(least(64, n - start_tok) AS BIGINT)
                       AS n_chunk_tokens,
                   array_to_string(
                       toks[CAST(start_tok + 1 AS INT)
                            : CAST(start_tok + 64 AS INT)], ' ')
                       AS chunk_text
            FROM ch
        """,
        # LangId argmax replayed exactly: char trigrams of the padded
        # lowercase text, integer dot products against the embedded seed
        # profiles, cosine in doubles (sqrt both sides is correctly
        # rounded, Python x**0.5 == sqrt), first-sorted-lang tie-break
        "langid": f"""
            WITH doc_s AS (
                SELECT doc_id, '  ' || lower(text) || '  ' AS s FROM documents
            ),
            tg AS (
                SELECT doc_id, substr(s, CAST(i AS INT), 3) AS g,
                       count(*) AS c
                FROM doc_s, range(1, 4096) r(i)
                WHERE i <= length(s) - 2
                GROUP BY doc_id, substr(s, CAST(i AS INT), 3)
            ),
            tnsq AS (SELECT doc_id, sum(c * c) AS v FROM tg GROUP BY doc_id),
            prof(lang, g, c) AS (VALUES {_prof_values}),
            pnsq(lang, v) AS (VALUES {_pnsq_values}),
            dots AS (
                SELECT tg.doc_id, prof.lang, sum(tg.c * prof.c) AS dot
                FROM tg JOIN prof ON tg.g = prof.g
                GROUP BY tg.doc_id, prof.lang
            ),
            scored AS (
                SELECT t.doc_id, p.lang,
                       CAST(coalesce(dots.dot, 0) AS DOUBLE)
                       / (sqrt(CAST(t.v AS DOUBLE)) * sqrt(CAST(p.v AS DOUBLE)))
                           AS s
                FROM tnsq t CROSS JOIN pnsq p
                LEFT JOIN dots
                  ON dots.doc_id = t.doc_id AND dots.lang = p.lang
            )
            SELECT doc_id, lang AS lang_pred FROM (
                SELECT doc_id, lang, row_number() OVER (
                    PARTITION BY doc_id ORDER BY s DESC, lang ASC) AS rn
                FROM scored
            ) WHERE rn = 1
        """,
        # per-doc tf-idf keywords: the MLT selection arithmetic per
        # (doc, term) row (scalar ln exact), window top-5, term-asc ties
        "tfidf_keywords": f"""
            WITH tf AS MATERIALIZED (
                SELECT doc_id, t AS term, count(*) AS tf FROM (
                    SELECT doc_id, unnest({_TOK}) AS t FROM documents
                ) GROUP BY doc_id, t
            ),
            dfs AS (SELECT term, count(*) AS df FROM tf GROUP BY term),
            n AS (SELECT count(*) AS n_docs FROM documents),
            scored AS (
                SELECT tf.doc_id, tf.term,
                       tf.tf * (ln((n.n_docs + 1) / (dfs.df + 1.0)) + 1)
                           AS score
                FROM tf JOIN dfs USING (term), n
            )
            SELECT doc_id, CAST(rn - 1 AS BIGINT) AS rank, term, score FROM (
                SELECT doc_id, term, score, row_number() OVER (
                    PARTITION BY doc_id
                    ORDER BY score DESC, term ASC) AS rn
                FROM scored
            ) WHERE rn <= 5
        """,
        # PMI collocations: integer-only top-50 selection, then ln of a
        # two-double-multiply/one-division chain per winner (scalar libm
        # == DuckDB ln)
        "pmi_top_bigrams": f"""
            WITH toks AS MATERIALIZED (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            uni AS MATERIALIZED (SELECT t, count(*) AS c FROM toks GROUP BY t),
            nu AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM uni),
            bi AS (
                SELECT a.t AS ta, b.t AS tb, a.t || ' ' || b.t AS bigram,
                       count(*) AS c
                FROM toks a JOIN toks b
                  ON a.doc_id = b.doc_id AND b.p = a.p + 1
                GROUP BY 1, 2, 3
            ),
            top AS (SELECT * FROM bi ORDER BY c DESC, bigram ASC LIMIT 50)
            SELECT bigram, CAST(top.c AS BIGINT) AS cnt,
                   ln((CAST(top.c AS DOUBLE) * (SELECT n FROM nu))
                      / (CAST(ua.c AS DOUBLE) * CAST(ub.c AS DOUBLE))) AS pmi
            FROM top
            JOIN uni ua ON ua.t = top.ta
            JOIN uni ub ON ub.t = top.tb
        """,
        "shingle_top50": f"""
            WITH toks AS (
                SELECT doc_id,
                       unnest({_TOK}) AS tok,
                       generate_subscripts({_TOK}, 1) AS ord
                FROM documents
            ), sh AS (
                SELECT a.tok || ' ' || b.tok AS shingle
                FROM toks a JOIN toks b
                  ON a.doc_id = b.doc_id AND b.ord = a.ord + 1
            )
            SELECT shingle, count(*) AS cnt FROM sh
            GROUP BY shingle ORDER BY cnt DESC, shingle ASC LIMIT 50
        """,
        "edge_ngram_top100": f"""
            WITH toks AS (SELECT unnest({_TOK}) AS tok FROM documents),
            g AS (
                SELECT substr(tok, 1, CAST(n AS INT)) AS gram
                FROM toks, range(2, 5) r(n) WHERE length(tok) >= n
            )
            SELECT gram, count(*) AS cnt FROM g
            GROUP BY gram ORDER BY cnt DESC, gram ASC LIMIT 100
        """,
        "ngram_top100": f"""
            WITH toks AS (SELECT unnest({_TOK}) AS tok FROM documents),
            g AS (
                SELECT substr(tok, CAST(p AS INT), 3) AS gram
                FROM toks, range(1, 256) r(p)
                WHERE p <= length(tok) - 2
            )
            SELECT gram, count(*) AS cnt FROM g
            GROUP BY gram ORDER BY cnt DESC, gram ASC LIMIT 100
        """,
        "token_counts_bpe": r"""
            SELECT doc_id,
                   len(regexp_extract_all(lower(text),
                       '''(?:[sdmt]|ll|ve|re)| ?[a-z]+| ?[0-9]+| ?[^\sa-z0-9]+'))
                     AS n_bpe_tokens
            FROM documents
        """,
        "collection_stats": f"""
            SELECT
              (SELECT count(*) FROM documents) AS doc_count,
              (SELECT CAST(sum(len({_TOK})) AS BIGINT) FROM documents) AS sum_ttf,
              (SELECT count(DISTINCT t) FROM
                 (SELECT unnest({_TOK}) AS t FROM documents)) AS n_terms
        """,
        "quality_features": f"""
            SELECT doc_id,
                   length(text) AS n_chars,
                   len({_TOK}) AS n_tokens,
                   len(list_distinct({_TOK})) AS n_uniq_tokens
            FROM documents
        """,
        # QualityScorer recomputed with the IDENTICAL float64 op order
        # (engine/textops.py:157-176): every term is double arithmetic
        # with the same left-assoc sum, so the score is bit-identical.
        # Python's \\w is Unicode, RE2's is ASCII — equal on this corpus
        # (fixture text is [a-z0-9 ] only, verified) and documented.
        "quality_scores": f"""
            WITH t AS (SELECT doc_id, text, {_TOK} AS toks FROM documents)
            SELECT doc_id,
                   CASE WHEN len(toks) = 0 THEN 0.0 ELSE
                       0.4 * (least(len(toks), 500) / 500.0)
                     + 0.2 * (1.0 - least(
                           ((length(text) - length(regexp_replace(
                                 text, '[^\\w\\s]', '', 'g')))
                            / greatest(length(text), 1)) * 5, 1.0))
                     + 0.2 * least(
                           (len(list_filter(toks,
                                x -> list_contains({_stoplist}, x)))
                            / len(toks)) * 3, 1.0)
                     + 0.2 * (len(list_distinct(toks)) / len(toks))
                   END AS quality
            FROM t
        """,
        # Gopher repetition signals (integer numerators/denominators):
        # duplicate-token occurrences, most-frequent adjacent bigram and
        # trigram counts — exact positions-self-join recomputation
        "gopher_repetition": f"""
            WITH pos AS (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            uni AS (SELECT doc_id, t, count(*) AS c FROM pos GROUP BY doc_id, t),
            dup AS (
                SELECT doc_id, CAST(sum(c) AS BIGINT) AS v
                FROM uni WHERE c >= 2 GROUP BY doc_id
            ),
            bi AS (
                SELECT a.doc_id, a.t || ' ' || b.t AS g, count(*) AS c
                FROM pos a JOIN pos b
                  ON a.doc_id = b.doc_id AND b.p = a.p + 1
                GROUP BY 1, 2
            ),
            bitop AS (SELECT doc_id, CAST(max(c) AS BIGINT) AS v FROM bi GROUP BY doc_id),
            tri AS (
                SELECT a.doc_id, a.t || ' ' || b.t || ' ' || c3.t AS g,
                       count(*) AS c
                FROM pos a
                JOIN pos b ON a.doc_id = b.doc_id AND b.p = a.p + 1
                JOIN pos c3 ON a.doc_id = c3.doc_id AND c3.p = a.p + 2
                GROUP BY 1, 2
            ),
            tritop AS (SELECT doc_id, CAST(max(c) AS BIGINT) AS v FROM tri GROUP BY doc_id)
            SELECT d.doc_id,
                   CAST(len({_TOK}) AS BIGINT) AS n_tokens,
                   coalesce(dup.v, 0) AS n_dup_tokens,
                   CAST(greatest(len({_TOK}) - 1, 0) AS BIGINT) AS n_bigrams,
                   coalesce(bitop.v, 0) AS top_bigram_cnt,
                   coalesce(tritop.v, 0) AS top_trigram_cnt
            FROM documents d
            LEFT JOIN dup ON d.doc_id = dup.doc_id
            LEFT JOIN bitop ON d.doc_id = bitop.doc_id
            LEFT JOIN tritop ON d.doc_id = tritop.doc_id
        """,
        # Composed curation pipeline: the langid / quality / gopher
        # fragments inlined verbatim (each independently driver-green),
        # integer repetition gates, dedup group over the unioned recrawl
        # copy (copies share every text-derived signal, so the winner's
        # columns are the group's Min()s — the engine's native aggregate)
        "corpus_curation": f"""
            WITH doc_s AS MATERIALIZED (
                SELECT doc_id, '  ' || lower(text) || '  ' AS s FROM documents
            ),
            tg AS MATERIALIZED (
                SELECT doc_id, substr(s, CAST(i AS INT), 3) AS g,
                       count(*) AS c
                FROM doc_s, range(1, 4096) r(i)
                WHERE i <= length(s) - 2
                GROUP BY doc_id, substr(s, CAST(i AS INT), 3)
            ),
            tnsq AS (SELECT doc_id, sum(c * c) AS v FROM tg GROUP BY doc_id),
            prof(lang, g, c) AS (VALUES {_prof_values}),
            pnsq(lang, v) AS (VALUES {_pnsq_values}),
            ldots AS (
                SELECT tg.doc_id, prof.lang, sum(tg.c * prof.c) AS dot
                FROM tg JOIN prof ON tg.g = prof.g
                GROUP BY tg.doc_id, prof.lang
            ),
            lscored AS (
                SELECT t.doc_id, p.lang,
                       CAST(coalesce(ldots.dot, 0) AS DOUBLE)
                       / (sqrt(CAST(t.v AS DOUBLE)) * sqrt(CAST(p.v AS DOUBLE)))
                           AS s
                FROM tnsq t CROSS JOIN pnsq p
                LEFT JOIN ldots
                  ON ldots.doc_id = t.doc_id AND ldots.lang = p.lang
            ),
            lid AS MATERIALIZED (
                SELECT doc_id, lang AS lang_pred FROM (
                    SELECT doc_id, lang, row_number() OVER (
                        PARTITION BY doc_id ORDER BY s DESC, lang ASC) AS rn
                    FROM lscored
                ) WHERE rn = 1
            ),
            qual AS MATERIALIZED (
                SELECT doc_id,
                       CASE WHEN len(toks) = 0 THEN 0.0 ELSE
                           0.4 * (least(len(toks), 500) / 500.0)
                         + 0.2 * (1.0 - least(
                               ((length(text) - length(regexp_replace(
                                     text, '[^\\w\\s]', '', 'g')))
                                / greatest(length(text), 1)) * 5, 1.0))
                         + 0.2 * least(
                               (len(list_filter(toks,
                                    x -> list_contains({_stoplist}, x)))
                                / len(toks)) * 3, 1.0)
                         + 0.2 * (len(list_distinct(toks)) / len(toks))
                       END AS quality
                FROM (SELECT doc_id, text, {_TOK} AS toks FROM documents)
            ),
            cpos AS MATERIALIZED (
                SELECT doc_id, unnest({_TOK}) AS t,
                       unnest(range(len({_TOK}))) AS p
                FROM documents
            ),
            cuni AS (SELECT doc_id, t, count(*) AS c FROM cpos GROUP BY doc_id, t),
            cdup AS (
                SELECT doc_id, CAST(sum(c) AS BIGINT) AS v
                FROM cuni WHERE c >= 2 GROUP BY doc_id
            ),
            cbi AS (
                SELECT a.doc_id, a.t || ' ' || b.t AS g, count(*) AS c
                FROM cpos a JOIN cpos b
                  ON a.doc_id = b.doc_id AND b.p = a.p + 1
                GROUP BY 1, 2
            ),
            cbitop AS (SELECT doc_id, CAST(max(c) AS BIGINT) AS v
                       FROM cbi GROUP BY doc_id),
            gph AS MATERIALIZED (
                SELECT d.doc_id,
                       CAST(len({_TOK}) AS BIGINT) AS n_tokens,
                       coalesce(cdup.v, 0) AS n_dup_tokens,
                       CAST(greatest(len({_TOK}) - 1, 0) AS BIGINT) AS n_bigrams,
                       coalesce(cbitop.v, 0) AS top_bigram_cnt
                FROM documents d
                LEFT JOIN cdup ON d.doc_id = cdup.doc_id
                LEFT JOIN cbitop ON d.doc_id = cbitop.doc_id
            ),
            bpe AS MATERIALIZED (
                SELECT doc_id,
                       len(regexp_extract_all(lower(text),
                           '''(?:[sdmt]|ll|ve|re)| ?[a-z]+| ?[0-9]+| ?[^\\sa-z0-9]+'))
                         AS n_bpe_tokens
                FROM documents
            ),
            surv AS (
                SELECT d.doc_id, md5(d.text) AS ch, q.quality, bpe.n_bpe_tokens
                FROM documents d
                JOIN lid ON lid.doc_id = d.doc_id AND lid.lang_pred = 'en'
                JOIN qual q ON q.doc_id = d.doc_id AND q.quality >= 0.35
                JOIN gph g ON g.doc_id = d.doc_id
                     AND g.n_dup_tokens * 20 <= g.n_tokens * 19
                     AND g.top_bigram_cnt * 10 <= g.n_bigrams * 1
                JOIN bpe ON bpe.doc_id = d.doc_id
            ),
            u AS (
                SELECT doc_id, md5(text) AS ch FROM documents
                UNION ALL
                SELECT doc_id + (SELECT count(*) FROM documents), md5(text)
                FROM documents
            ),
            grp AS (
                SELECT ch, min(doc_id) AS doc_id,
                       CAST(count(*) AS BIGINT) AS dup_count
                FROM u GROUP BY ch
            )
            SELECT s.doc_id, s.quality, s.n_bpe_tokens, g2.dup_count
            FROM surv s JOIN grp g2 ON g2.ch = s.ch AND g2.doc_id = s.doc_id
        """,
        # C4-style line dedup over deterministic 3-token chunks: an
        # occurrence is kept iff it is the (doc_id, pos)-lexicographic
        # first of its content; SQL groups by CONTENT (the engine by
        # 64-bit FNV of it — collision-free at any realistic scale)
        # benchmark decontamination: DISTINCT-4-gram semi-join of train
        # docs (doc_id % 37 != 0) against the eval split's gram set
        "decontaminate_ngrams": f"""
            WITH toks AS (SELECT doc_id, {_TOK} AS ts FROM documents),
            win AS (
                SELECT doc_id,
                       array_to_string(
                           ts[CAST(i + 1 AS BIGINT):CAST(i + 4 AS BIGINT)],
                           ' ') AS g
                FROM toks, unnest(range(len(ts) - 4 + 1)) AS u(i)
            ),
            ev AS (SELECT DISTINCT g FROM win WHERE doc_id % 37 = 0),
            dg AS (SELECT DISTINCT doc_id, g FROM win WHERE doc_id % 37 != 0)
            SELECT doc_id, CAST(count(*) AS BIGINT) AS n_hits
            FROM dg JOIN ev USING (g) GROUP BY doc_id
        """,
        # DSIR importance resampling (Xie et al. 2023) replayed exactly:
        # bucket = fnv1a(token) % 512; per-bucket lambda = the add-1
        # log-likelihood ratio of the target (doc_id % 37 = 0) vs raw
        # token models, quantized floor(lambda * 2^20) to BIGINT (scalar
        # ln / single f64 div-sub-mul / floor all replay bit-for-bit);
        # per-doc score = order-free INTEGER sum over token occurrences;
        # deterministic top-200 by (score DESC, doc_id ASC)
        "dsir_select": f"""
            WITH toks AS (SELECT doc_id, {_TOK} AS ts FROM documents),
            tok AS (SELECT doc_id, unnest(ts) AS w FROM toks),
            bk AS (
                SELECT doc_id,
                       CAST({_fnv_str_sql("w")} % 512 AS BIGINT) AS b
                FROM tok
            ),
            cnt AS (
                SELECT b,
                       sum(CASE WHEN doc_id % 37 = 0 THEN 1 ELSE 0 END)
                           AS tc,
                       sum(CASE WHEN doc_id % 37 != 0 THEN 1 ELSE 0 END)
                           AS rc
                FROM bk GROUP BY b
            ),
            tot AS (SELECT sum(tc) AS tt, sum(rc) AS rt FROM cnt),
            lam AS (
                SELECT b,
                       CAST(floor(
                           (ln(CAST(tc + 1 AS DOUBLE)
                               / CAST(tt + 512 AS DOUBLE))
                          - ln(CAST(rc + 1 AS DOUBLE)
                               / CAST(rt + 512 AS DOUBLE))) * 1048576.0
                       ) AS BIGINT) AS l
                FROM cnt, tot
            ),
            sc AS (
                SELECT bk.doc_id, CAST(sum(lam.l) AS BIGINT) AS dsir_score
                FROM bk JOIN lam ON bk.b = lam.b
                WHERE bk.doc_id % 37 != 0
                GROUP BY bk.doc_id
            )
            SELECT doc_id, dsir_score FROM sc
            ORDER BY dsir_score DESC, doc_id LIMIT 200
        """,
        # DSIR Gumbel-top-k resampling (the paper's actual sampler:
        # w/o-replacement draws with prob proportional to w): key =
        # score/2^20 (exact power-of-2 scaling) + -ln(-ln(u)) with
        # u = (((fnv1a(doc_id) XOR seed-salt) >> 11)::DOUBLE + 0.5)/2^53
        # — exact uniform, two scalar lns (libm == DuckDB ln), one add;
        # probed bit-identical across signs/magnitudes before wiring
        "dsir_gumbel_topk": f"""
            WITH toks AS (SELECT doc_id, {_TOK} AS ts FROM documents),
            tok AS (SELECT doc_id, unnest(ts) AS w FROM toks),
            bk AS (
                SELECT doc_id,
                       CAST({_fnv_str_sql("w")} % 512 AS BIGINT) AS b
                FROM tok
            ),
            cnt AS (
                SELECT b,
                       sum(CASE WHEN doc_id % 37 = 0 THEN 1 ELSE 0 END)
                           AS tc,
                       sum(CASE WHEN doc_id % 37 != 0 THEN 1 ELSE 0 END)
                           AS rc
                FROM bk GROUP BY b
            ),
            tot AS (SELECT sum(tc) AS tt, sum(rc) AS rt FROM cnt),
            lam AS (
                SELECT b,
                       CAST(floor(
                           (ln(CAST(tc + 1 AS DOUBLE)
                               / CAST(tt + 512 AS DOUBLE))
                          - ln(CAST(rc + 1 AS DOUBLE)
                               / CAST(rt + 512 AS DOUBLE))) * 1048576.0
                       ) AS BIGINT) AS l
                FROM cnt, tot
            ),
            sc AS (
                SELECT bk.doc_id, CAST(sum(lam.l) AS BIGINT) AS dsir_score
                FROM bk JOIN lam ON bk.b = lam.b
                WHERE bk.doc_id % 37 != 0
                GROUP BY bk.doc_id
            ),
            g AS (
                SELECT doc_id, dsir_score,
                       CAST(dsir_score AS DOUBLE) / 1048576.0
                       + (-ln(-ln(
                           (CAST(((xor({_fnv_sql("doc_id")},
                                      CAST(4354685564936845354 AS UBIGINT)))
                                  >> 11) AS DOUBLE) + 0.5)
                           / 9007199254740992.0))) AS gumbel_key
                FROM sc
            )
            SELECT doc_id, dsir_score, gumbel_key FROM g
            ORDER BY gumbel_key DESC, doc_id LIMIT 200
        """,
        "line_dedup_stats": f"""
            WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
            ch AS (
                SELECT doc_id, i AS pos,
                       array_to_string(ts[3 * i + 1 : 3 * i + 3], ' ')
                           AS content
                FROM (SELECT doc_id, ts,
                             unnest(range((len(ts) + 2) // 3)) AS i
                      FROM tok)
            ),
            win AS (
                SELECT content, min(doc_id * 1048576 + pos) AS packed
                FROM ch GROUP BY content
            ),
            kept AS (
                SELECT packed // 1048576 AS doc_id,
                       CAST(count(*) AS BIGINT) AS n_kept
                FROM win GROUP BY 1
            ),
            nl AS (
                SELECT doc_id, CAST((len(ts) + 2) // 3 AS BIGINT) AS n_lines
                FROM tok
            )
            SELECT nl.doc_id, nl.n_lines,
                   coalesce(kept.n_kept, 0) AS n_kept,
                   nl.n_lines - coalesce(kept.n_kept, 0) AS n_removed
            FROM nl LEFT JOIN kept ON nl.doc_id = kept.doc_id
        """,
        # per-host aggregation: hosts are doc_id-derived in the pages
        # fixture (engine/fixtures.py:85, 50 hosts round-robin); token
        # counts (not chars) because pages.text is the extracted text
        "host_doc_counts": f"""
            SELECT 'site' || CAST(doc_id % 50 AS VARCHAR) || '.example' AS host,
                   count(*) AS n_docs,
                   CAST(sum(len({_TOK})) AS BIGINT) AS sum_tokens
            FROM documents GROUP BY 1
        """,
        # winnowing fingerprints recomputed exactly: per-token FNV-1a
        # (UBIGINT chain), windowed polynomial hash sum_j h[i+j]*B^j with
        # every product multiplied mod 2^64 via 32-bit split (HUGEINT never
        # overflows: (h%2^32)*f < 2^96), 4 smallest by UNMASKED value,
        # 63-bit mask applied at emit (= % 2^63). Docs with < 8 tokens use
        # each token hash as a window hash; 0-token docs emit fp=0 — the
        # same ladder as the engine
        "fingerprint_rolling": f"""
            WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
            th AS (
                SELECT doc_id, p,
                       CAST({_fnv_str_sql("w")} AS HUGEINT) AS h, n
                FROM (
                    SELECT doc_id, unnest(ts) AS w,
                           unnest(range(len(ts))) AS p, len(ts) AS n
                    FROM tok)
            ),
            pw(j, f) AS (VALUES {_fp_pows}),
            big AS (
                SELECT doc_id, i,
                       CAST(sum(
                           ((h % 4294967296) * f
                            + ((h // 4294967296) * f % 4294967296)
                              * 4294967296)
                           % 18446744073709551616
                       ) % 18446744073709551616 AS HUGEINT) AS wh
                FROM (
                    SELECT th.doc_id, th.p - pw.j AS i, th.h, pw.f
                    FROM th JOIN pw
                      ON th.p - pw.j >= 0 AND th.p - pw.j <= th.n - 8
                    WHERE th.n >= 8
                )
                GROUP BY doc_id, i
            ),
            small AS (SELECT doc_id, h AS wh FROM th WHERE n < 8),
            zero AS (
                SELECT doc_id, CAST(0 AS HUGEINT) AS wh
                FROM tok WHERE len(ts) = 0
            ),
            allw AS (
                SELECT doc_id, wh FROM big
                UNION ALL SELECT doc_id, wh FROM small
                UNION ALL SELECT doc_id, wh FROM zero
            )
            SELECT doc_id, CAST(rn - 1 AS BIGINT) AS rank,
                   CAST(wh % 9223372036854775808 AS BIGINT) AS fp
            FROM (SELECT doc_id, wh, row_number() OVER (
                      PARTITION BY doc_id ORDER BY wh ASC) AS rn
                  FROM allw)
            WHERE rn <= 4
        """,
        # char-ascending ordered fold; scalar libm ln == DuckDB ln;
        # division/multiply single f64 ops; one final negation
        "char_entropy": """
            WITH f AS (
                SELECT doc_id,
                       regexp_replace(lower(text), '[^a-z0-9]', '', 'g') AS s
                FROM documents
            ),
            c AS (
                SELECT doc_id, ch, CAST(count(*) AS BIGINT) AS cnt
                FROM (SELECT doc_id, unnest(string_split(s, '')) AS ch
                      FROM f WHERE length(s) > 0)
                GROUP BY doc_id, ch
            ),
            h AS (
                SELECT c.doc_id,
                       -(list_reduce(list_prepend(CAST(0.0 AS DOUBLE),
                           list((c.cnt / CAST(length(f.s) AS DOUBLE))
                                * ln(c.cnt / CAST(length(f.s) AS DOUBLE))
                                ORDER BY c.ch)),
                           (x, y) -> x + y)) AS entropy
                FROM c JOIN f ON f.doc_id = c.doc_id
                GROUP BY c.doc_id, f.s
            )
            SELECT f.doc_id, CAST(length(f.s) AS BIGINT) AS n_alnum,
                   coalesce(h.entropy, 0.0) AS entropy
            FROM f LEFT JOIN h ON h.doc_id = f.doc_id
        """,
        "source_vocab_jaccard": f"""
            WITH st AS (
                SELECT DISTINCT source, t
                FROM (SELECT source, unnest({_TOK}) AS t FROM documents)
            ),
            sz AS (SELECT source, CAST(count(*) AS BIGINT) AS n
                   FROM st GROUP BY source),
            pr AS (
                SELECT a.source AS source_a, b.source AS source_b,
                       CAST(count(*) AS BIGINT) AS n_common
                FROM st a JOIN st b
                  ON a.t = b.t AND a.source < b.source
                GROUP BY 1, 2
            )
            SELECT source_a, source_b, n_common,
                   sa.n + sb.n - n_common AS n_union
            FROM pr
            JOIN sz sa ON sa.source = pr.source_a
            JOIN sz sb ON sb.source = pr.source_b
        """,
        # CDC: same window-hash chain as fingerprint_rolling; boundary
        # closes at i+7 when wh % 64 == 0, final chunk at the last token
        "cdc_chunks": f"""
            WITH tok AS (SELECT doc_id, {_TOK} AS ts FROM documents),
            th AS (
                SELECT doc_id, p,
                       CAST({_fnv_str_sql("w")} AS HUGEINT) AS h, n
                FROM (
                    SELECT doc_id, unnest(ts) AS w,
                           unnest(range(len(ts))) AS p, len(ts) AS n
                    FROM tok)
            ),
            pw(j, f) AS (VALUES {_fp_pows}),
            big AS (
                SELECT doc_id, i,
                       CAST(sum(
                           ((h % 4294967296) * f
                            + ((h // 4294967296) * f % 4294967296)
                              * 4294967296)
                           % 18446744073709551616
                       ) % 18446744073709551616 AS HUGEINT) AS wh
                FROM (
                    SELECT th.doc_id, th.p - pw.j AS i, th.h, pw.f
                    FROM th JOIN pw
                      ON th.p - pw.j >= 0 AND th.p - pw.j <= th.n - 8
                    WHERE th.n >= 8
                )
                GROUP BY doc_id, i
            ),
            ends AS (
                SELECT DISTINCT doc_id, e FROM (
                    SELECT doc_id, CAST(i + 7 AS BIGINT) AS e
                    FROM big WHERE wh % 64 = 0
                    UNION ALL
                    SELECT doc_id, CAST(len(ts) - 1 AS BIGINT) AS e
                    FROM tok WHERE len(ts) > 0
                )
            ),
            sizes AS (
                SELECT doc_id,
                       e - coalesce(lag(e) OVER (
                           PARTITION BY doc_id ORDER BY e), -1) AS sz
                FROM ends
            ),
            agg AS (
                SELECT doc_id, CAST(count(*) AS BIGINT) AS n_chunks,
                       CAST(max(sz) AS BIGINT) AS mx
                FROM sizes GROUP BY doc_id
            )
            SELECT t.doc_id, CAST(len(t.ts) AS BIGINT) AS n_tokens,
                   coalesce(a.n_chunks, 0) AS n_chunks,
                   coalesce(a.mx, 0) AS max_chunk_toks
            FROM tok t LEFT JOIN agg a ON a.doc_id = t.doc_id
        """,
        "fingerprint_md5": """
            SELECT doc_id,
                   md5(trim(regexp_replace(lower(text), '[^a-z0-9]+', ' ', 'g')))
                     AS fingerprint
            FROM documents
        """,
        "exact_dedup": """
            SELECT min(doc_id) AS kept_doc_id, count(*) AS dup_count
            FROM documents GROUP BY text
        """,
        # URL canonicalization (engine/textops.py canonicalize_url_batch):
        # rebuild the injected url from doc_id (fixtures.py:85 + the
        # entry's param soup), then replay base-extract / param-filter
        "url_canonicalize": """
            WITH inj AS (
                SELECT doc_id,
                       'https://site' || CAST(doc_id % 50 AS VARCHAR)
                       || '.example/p/' || CAST(doc_id AS VARCHAR)
                       || '?utm_source=s' || CAST(doc_id % 7 AS VARCHAR)
                       || '&id=' || CAST(doc_id AS VARCHAR)
                       || '&gclid=g' || CAST(doc_id AS VARCHAR)
                       || '#sec' || CAST(doc_id % 3 AS VARCHAR) AS u
                FROM documents
            ),
            parsed AS (
                SELECT doc_id,
                       regexp_extract(u, '^[^?#]*') AS base,
                       regexp_extract_all(u, '[?&]([^&#]+)', 1) AS params,
                       list_filter(
                           regexp_extract_all(u, '[?&]([^&#]+)', 1),
                           p -> NOT regexp_matches(
                               p, '^(utm_[a-z]+|fbclid|gclid)=')) AS keep
                FROM inj
            )
            SELECT doc_id,
                   base || CASE WHEN len(keep) > 0
                       THEN '?' || array_to_string(keep, '&') ELSE '' END
                       AS url_canon,
                   CAST(len(params) - len(keep) AS BIGINT) AS n_dropped
            FROM parsed
        """,
        # PII scrub (engine/textops.py PII_PATTERNS): replay the injection
        # and the sequential email -> ipv4 -> phone subn chain; counts are
        # taken from the SAME intermediate string each pass sees
        "pii_scrub": r"""
            WITH inj AS (
                SELECT doc_id,
                       text
                       || CASE WHEN doc_id % 3 = 0
                          THEN ' contact' || CAST(doc_id AS VARCHAR)
                               || '@mail.example' ELSE '' END
                       || CASE WHEN doc_id % 5 = 0
                          THEN ' 10.' || CAST(doc_id % 256 AS VARCHAR)
                               || '.0.1' ELSE '' END
                       || CASE WHEN doc_id % 7 = 0
                          THEN ' 555-' || lpad(CAST(doc_id % 10000 AS VARCHAR),
                                               4, '0') ELSE '' END
                           AS t
                FROM documents
            ),
            s1 AS (
                SELECT doc_id,
                       regexp_replace(t, '[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}',
                                      '<EMAIL>', 'g') AS t1,
                       len(regexp_extract_all(
                           t, '[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}')) AS n_email
                FROM inj
            ),
            s2 AS (
                SELECT doc_id, n_email,
                       regexp_replace(
                           t1, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b',
                           '<IP>', 'g') AS t2,
                       len(regexp_extract_all(
                           t1, '\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b'))
                           AS n_ipv4
                FROM s1
            )
            SELECT doc_id,
                   regexp_replace(t2, '\b555-\d{4}\b', '<PHONE>', 'g')
                       AS text_clean,
                   CAST(n_email AS BIGINT) AS n_email,
                   CAST(n_ipv4 AS BIGINT) AS n_ipv4,
                   CAST(len(regexp_extract_all(t2, '\b555-\d{4}\b')) AS BIGINT)
                       AS n_phone
            FROM s2
        """,
        # MinHash+LSH near-dup pairs recomputed END-TO-END in SQL: distinct
        # 3-token shingles, FNV-1a shingle hashes, the 64 seeded
        # permutations ((h*a + b) wraps mod 2^64 THEN % (2^61-1), exactly
        # the engine's uint64 chain via HUGEINT 32-bit-split mulmod),
        # 16x4 banding by band-vector equality (the engine's md5 band key
        # collides iff the vectors are equal), candidate pairs, exact
        # hash-set Jaccard >= 0.7. Fixture-safe assumption documented in
        # dedup.py: no zero-token docs (those would band-collide with each
        # other and verify at jaccard 1.0; the corpus has none)
        "minhash_lsh_pairs": _minhash_pairs_sql,
        # connected components over the SAME verified near-dup pairs:
        # recursive min-label closure (UNION dedups, so the recursion
        # terminates at the component's member set); cluster_id = the
        # component's min doc_id — the keep-one-per-cluster dedup rule
        "near_dup_clusters": f"""
            WITH RECURSIVE pairs AS ({_minhash_pairs_sql}),
            edges AS (
                SELECT doc_a AS a, doc_b AS b FROM pairs
                UNION ALL
                SELECT doc_b AS a, doc_a AS b FROM pairs
            ),
            nodes AS (SELECT DISTINCT a AS node FROM edges),
            reach(node, lbl) AS (
                SELECT node, node AS lbl FROM nodes
                UNION
                SELECT e.b AS node, r.lbl
                FROM reach r JOIN edges e ON e.a = r.node
            )
            SELECT node AS doc_id, CAST(min(lbl) AS BIGINT) AS cluster_id
            FROM reach GROUP BY node
        """,
        # cluster-aware keep-best: the components CTE verbatim + the
        # bit-exact quality chain, winner = quality desc / doc_id asc
        "near_dup_keep_best": f"""
            WITH RECURSIVE pairs AS ({_minhash_pairs_sql}),
            edges AS (
                SELECT doc_a AS a, doc_b AS b FROM pairs
                UNION ALL
                SELECT doc_b AS a, doc_a AS b FROM pairs
            ),
            nodes AS (SELECT DISTINCT a AS node FROM edges),
            reach(node, lbl) AS (
                SELECT node, node AS lbl FROM nodes
                UNION
                SELECT e.b AS node, r.lbl
                FROM reach r JOIN edges e ON e.a = r.node
            ),
            cl AS (
                SELECT node AS doc_id, CAST(min(lbl) AS BIGINT) AS cluster_id
                FROM reach GROUP BY node
            ),
            qual AS (
                SELECT doc_id,
                       CASE WHEN len(toks) = 0 THEN 0.0 ELSE
                           0.4 * (least(len(toks), 500) / 500.0)
                         + 0.2 * (1.0 - least(
                               ((length(text) - length(regexp_replace(
                                     text, '[^\\w\\s]', '', 'g')))
                                / greatest(length(text), 1)) * 5, 1.0))
                         + 0.2 * least(
                               (len(list_filter(toks,
                                    x -> list_contains({_stoplist}, x)))
                                / len(toks)) * 3, 1.0)
                         + 0.2 * (len(list_distinct(toks)) / len(toks))
                       END AS quality
                FROM (SELECT doc_id, text, {_TOK} AS toks FROM documents)
            )
            SELECT cluster_id, doc_id AS kept_doc_id, quality FROM (
                SELECT cl.cluster_id, cl.doc_id, q.quality,
                       row_number() OVER (PARTITION BY cl.cluster_id
                           ORDER BY q.quality DESC, cl.doc_id ASC) AS rn
                FROM cl JOIN qual q USING (doc_id)
            ) WHERE rn = 1
        """,
        # exact set-similarity self-join over the recrawl-style union
        # (originals + 3-token-appended copies): distinct 3-token shingles
        # (<3 tokens collapse to one joined shingle), Jaccard >= 1/2 as
        # the integer inequality 2*|inter| >= |union| — identical to the
        # engine's Fraction-exact compare, no float division either side
        "ngram_jaccard_pairs": f"""
            WITH docs2 AS (
                SELECT doc_id, text FROM documents
                UNION ALL
                SELECT doc_id + (SELECT count(*) FROM documents) AS doc_id,
                       text || ' qq0 qq1 qq2' AS text
                FROM documents
            ),
            tok AS (SELECT doc_id, {_TOK} AS ts FROM docs2),
            sh AS (
                SELECT DISTINCT doc_id, array_to_string(ts[i + 1 : i + 3], ' ') AS s
                FROM (SELECT doc_id, ts,
                             unnest(range(CASE WHEN len(ts) >= 3
                                          THEN len(ts) - 2 ELSE 1 END)) AS i
                      FROM tok WHERE len(ts) > 0)
            ),
            sz AS (SELECT doc_id, count(*) AS n FROM sh GROUP BY doc_id),
            inter AS (
                SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS ni
                FROM sh a JOIN sh b ON a.s = b.s AND a.doc_id < b.doc_id
                GROUP BY 1, 2
            )
            SELECT doc_a, doc_b, CAST(ni AS BIGINT) AS n_inter,
                   CAST(sa.n + sb.n - ni AS BIGINT) AS n_union
            FROM inter
            JOIN sz sa ON sa.doc_id = inter.doc_a
            JOIN sz sb ON sb.doc_id = inter.doc_b
            WHERE 2 * ni >= sa.n + sb.n - ni
        """,
        # multimodal->ANN integration: the stub encoder's integer-derived
        # vectors (engine/multimodal.ImageEmbedder._encode), float32-
        # rounded exactly as emitted, ranked by cosine (rank-only — the
        # cosine double differs in last-ulp summation order, ranks don't)
        "image_embed_ann": """
            WITH v AS (
                SELECT doc_id, list_transform(range(16), d ->
                    CAST(((doc_id * 2654435761 + d * 40503) % 1000)
                         / 1000.0 - 0.5 AS FLOAT)) AS emb
                FROM documents
            )
            SELECT query_id, rank, neighbor_id FROM (
                SELECT q.doc_id AS query_id,
                       CAST(row_number() OVER (
                           PARTITION BY q.doc_id
                           ORDER BY list_cosine_similarity(q.emb, v.emb) DESC,
                                    v.doc_id ASC) - 1 AS BIGINT) AS rank,
                       v.doc_id AS neighbor_id
                FROM v q CROSS JOIN v
                WHERE q.doc_id < 10
            ) WHERE rank < 10
        """,
        # k-means document clustering, exact end-to-end (see _kmeans_sql)
        "kmeans_clusters": _kmeans_sql(k=8, iters=2, dims=64),
        "pq_codes": _pq_sql(n_sub=2, k=4, iters=2, dims=64),
        "pq_adc_topk": _pq_sql(
            n_sub=2, k=4, iters=2, dims=64, adc_query_vec=0, topk=10
        ),
        # SemDeDup: within-cluster cosine dedup — drop j iff some i<j in
        # its cluster has cos >= 0.3 (the fixture's random 64-dim vectors
        # top out at cos 0.51, so 0.3 exercises real drops); dots/norms
        # as left-assoc dim
        # chains (f64), sqrt correctly rounded both engines, keep rule =
        # NOT EXISTS self-join (non-recursive by construction)
        "semdedup_kept": f"""
            WITH km AS ({_kmeans_sql(k=8, iters=2, dims=64)}),
            ev AS (
                SELECT vec_id,
                       list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
                FROM embeddings
            ),
            kv AS (
                SELECT km.vec_id, km.cluster, ev.v,
                       {" + ".join(f"(v[{d}]*v[{d}])" for d in range(1, 65))}
                           AS sq
                FROM km JOIN ev ON km.vec_id = ev.vec_id
            )
            SELECT a.vec_id, a.cluster FROM kv a
            WHERE NOT EXISTS (
                SELECT 1 FROM kv b
                WHERE b.cluster = a.cluster AND b.vec_id < a.vec_id
                  AND ({" + ".join(f"(b.v[{d}]*a.v[{d}])" for d in range(1, 65))})
                      / (sqrt(b.sq) * sqrt(a.sq)) >= 0.3
            )
        """,
        # clustering purity evaluation: kmeans CTE + label join + per-
        # cluster dominant label (ties -> smallest label); all integers
        "cluster_purity": f"""
            WITH km AS ({_kmeans_sql(k=8, iters=2, dims=64)}),
            cl AS (
                SELECT km.cluster, e.label,
                       CAST(count(*) AS BIGINT) AS c
                FROM km JOIN embeddings e ON km.vec_id = e.vec_id
                GROUP BY km.cluster, e.label
            )
            SELECT cluster, CAST(sz AS BIGINT) AS size,
                   CAST(label AS BIGINT) AS top_label, c AS top_count
            FROM (
                SELECT cluster, label, c, row_number() OVER (
                    PARTITION BY cluster ORDER BY c DESC, label) AS rn,
                       sum(c) OVER (PARTITION BY cluster) AS sz
                FROM cl) q
            WHERE rn = 1
        """,
        # cluster-balanced diversity sample: the kmeans CTE + keep the
        # per_cluster smallest vec_ids per cluster
        "cluster_balanced_sample": f"""
            WITH km AS ({_kmeans_sql(k=8, iters=2, dims=64)})
            SELECT vec_id, cluster FROM (
                SELECT vec_id, cluster, row_number() OVER (
                    PARTITION BY cluster ORDER BY vec_id) AS rn
                FROM km) WHERE rn <= 16
        """,
        "ann_cosine_top10": """
            SELECT query_id, rank, neighbor_id FROM (
              SELECT q.vec_id AS query_id,
                     (row_number() OVER (
                        PARTITION BY q.vec_id
                        ORDER BY list_cosine_similarity(q.embedding, v.embedding) DESC,
                                 v.vec_id ASC) - 1) AS rank,
                     v.vec_id AS neighbor_id
              FROM embeddings q CROSS JOIN embeddings v
              WHERE q.vec_id < 10
            ) WHERE rank < 10
        """,
        "rollup_lineitem": """
            SELECT l_returnflag, l_linestatus,
                   count(*) AS n,
                   sum(l_quantity) AS sum_qty,
                   sum(l_quantity) / count(*) AS avg_qty
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "orders_per_nation": """
            SELECT n.n_name, count(*) AS n_orders
            FROM orders o
            JOIN customer c ON o.o_custkey = c.c_custkey
            JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name
        """,
        "top_orders": """
            SELECT (row_number() OVER (ORDER BY o_totalprice DESC, o_orderkey ASC) - 1)
                     AS rank,
                   o_orderkey, o_totalprice
            FROM orders ORDER BY rank LIMIT 10
        """,
        "unique_event_types": "SELECT DISTINCT event_type FROM events",
        # as-of join: window rn=1 over strictly-prior rights, the
        # (ts desc, event_id desc) tie rule; all integers
        "asof_join_events": """
            SELECT event_id, prior_event_id, gap_us FROM (
                SELECT p.event_id, c.event_id AS prior_event_id,
                       CAST(epoch_us(p.ts) - epoch_us(c.ts) AS BIGINT)
                           AS gap_us,
                       row_number() OVER (PARTITION BY p.event_id
                           ORDER BY c.ts DESC, c.event_id DESC) AS rn
                FROM events p JOIN events c
                  ON c.user_id = p.user_id AND c.ts < p.ts
                 AND c.event_type = 'click'
                WHERE p.event_type = 'purchase'
            ) WHERE rn = 1
        """,
        # range join: a real interval join against the band VALUES table
        # (integer bounds on the double column — exact compares)
        "range_join_value_bands": """
            WITH bands(band_id, lo, hi) AS (VALUES
                (0, 0, 25), (1, 25, 50), (2, 50, 75), (3, 75, 100),
                (4, 100, 125), (5, 125, 150), (6, 150, 175),
                (7, 175, NULL))
            SELECT e.event_id, CAST(b.band_id AS BIGINT) AS band_id,
                   CAST(b.lo AS BIGINT) AS lo
            FROM events e JOIN bands b
              ON e.value >= b.lo AND (b.hi IS NULL OR e.value < b.hi)
        """,
        # sliding windowed aggregate: ROWS 2 PRECEDING moving sum over
        # the per-(type, day) integer counts
        "sliding_window_counts": """
            WITH daily AS (
                SELECT event_type,
                       CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                       CAST(count(*) AS BIGINT) AS n
                FROM events GROUP BY 1, 2
            )
            SELECT event_type, day, n,
                   CAST(sum(n) OVER (PARTITION BY event_type ORDER BY day
                        ROWS 2 PRECEDING) AS BIGINT) AS moving_n
            FROM daily
        """,
        # z-score outliers: ordered per-type folds + a fixed single-op
        # threshold chain (greatest(...) clamp = selection)
        "zscore_outliers": """
            WITH g AS (
                SELECT event_type,
                       list_reduce(list_prepend(CAST(0.0 AS DOUBLE),
                           list(value ORDER BY event_id)),
                           (x, y) -> x + y) AS s,
                       list_reduce(list_prepend(CAST(0.0 AS DOUBLE),
                           list(value * value ORDER BY event_id)),
                           (x, y) -> x + y) AS sq,
                       CAST(count(*) AS DOUBLE) AS n
                FROM events GROUP BY event_type
            ),
            thr AS (
                SELECT event_type,
                       (s / n) + 3.0 * sqrt(greatest(
                           (sq - ((s * s) / n)) / n, 0.0)) AS t
                FROM g
            )
            SELECT e.event_id, e.event_type, e.value
            FROM events e JOIN thr ON thr.event_type = e.event_type
            WHERE e.value > thr.t
        """,
        # burst detection: integer tumbling-window counts + per-type
        # argmax (ties earliest window)
        "burst_windows": """
            WITH c AS (
                SELECT event_type,
                       CAST(epoch_us(ts) // 21600000000 AS BIGINT) AS win,
                       CAST(count(*) AS BIGINT) AS n
                FROM events GROUP BY 1, 2
            )
            SELECT event_type, win AS peak_win, n AS peak_n FROM (
                SELECT event_type, win, n, row_number() OVER (
                    PARTITION BY event_type ORDER BY n DESC, win ASC) AS rn
                FROM c
            ) WHERE rn = 1
        """,
        # sessionization: lag + gap flags + per-session run lengths,
        # all integers (gap flags are tie-order-independent)
        "sessionize_events": """
            WITH x AS (
                SELECT user_id, ts,
                       CASE WHEN lag(ts) OVER w IS NULL
                              OR epoch_us(ts) - epoch_us(lag(ts) OVER w)
                                 > 1800000000
                            THEN 1 ELSE 0 END AS new_s
                FROM events
                WINDOW w AS (PARTITION BY user_id ORDER BY ts)
            ),
            y AS (
                SELECT user_id,
                       sum(new_s) OVER (PARTITION BY user_id ORDER BY ts
                           ROWS UNBOUNDED PRECEDING) AS sid
                FROM x
            ),
            runs AS (
                SELECT user_id, sid, count(*) AS run
                FROM y GROUP BY user_id, sid
            )
            SELECT user_id,
                   CAST(count(*) AS BIGINT) AS n_sessions,
                   CAST(sum(run) AS BIGINT) AS n_events,
                   CAST(max(run) AS BIGINT) AS max_session_events
            FROM runs GROUP BY user_id
        """,
        "events_timeseries": """
            SELECT event_type, date_trunc('day', ts) AS day, count(*) AS n_events
            FROM events GROUP BY event_type, day
        """,
        "skyline_orders": """
            SELECT a.o_orderkey, a.o_totalprice, a.o_orderdate
            FROM orders a
            WHERE NOT EXISTS (
                SELECT 1 FROM orders b
                WHERE b.o_totalprice <= a.o_totalprice
                  AND b.o_orderdate >= a.o_orderdate
                  AND (b.o_totalprice < a.o_totalprice
                       OR b.o_orderdate > a.o_orderdate)
            )
        """,
        "data_profile_orders": """
            SELECT c AS column_name, CAST(n AS BIGINT) AS n_rows,
                   CAST(z AS BIGINT) AS n_nulls,
                   CAST(d AS BIGINT) AS n_distinct
            FROM (
                SELECT 'o_orderkey' AS c, count(*) AS n,
                       sum(CASE WHEN o_orderkey IS NULL THEN 1 ELSE 0 END) AS z,
                       count(DISTINCT o_orderkey) AS d FROM orders
                UNION ALL
                SELECT 'o_custkey', count(*),
                       sum(CASE WHEN o_custkey IS NULL THEN 1 ELSE 0 END),
                       count(DISTINCT o_custkey) FROM orders
                UNION ALL
                SELECT 'o_orderstatus', count(*),
                       sum(CASE WHEN o_orderstatus IS NULL THEN 1 ELSE 0 END),
                       count(DISTINCT o_orderstatus) FROM orders
                UNION ALL
                SELECT 'o_orderpriority', count(*),
                       sum(CASE WHEN o_orderpriority IS NULL THEN 1 ELSE 0 END),
                       count(DISTINCT o_orderpriority) FROM orders
            )
        """,
        # type-1 grouped quantiles: k-th order statistic, k = ceil(q*n)
        # (selection of an existing double — no arithmetic on values)
        "value_quantiles_by_type": """
            WITH v AS (
                SELECT event_type, value,
                       row_number() OVER (
                           PARTITION BY event_type ORDER BY value) AS rn,
                       count(*) OVER (PARTITION BY event_type) AS n
                FROM events
            )
            SELECT event_type, 'p50' AS pct, value FROM v WHERE rn = CAST(ceil(0.5 * n) AS BIGINT) UNION ALL SELECT event_type, 'p90' AS pct, value FROM v WHERE rn = CAST(ceil(0.9 * n) AS BIGINT) UNION ALL SELECT event_type, 'p99' AS pct, value FROM v WHERE rn = CAST(ceil(0.99 * n) AS BIGINT)
        """,
        # HN gravity: t = age+2.0, score = votes / (t * sqrt(t)) — one
        # add, correctly-rounded sqrt, one multiply, one division
        "time_decayed_topk": """
            WITH d AS (
                SELECT event_type, epoch_us(ts) // 86400000000 AS x,
                       CAST(count(*) AS BIGINT) AS y
                FROM events GROUP BY 1, 2
            ),
            m AS (SELECT max(x) AS mx FROM d),
            sc AS (
                SELECT event_type, x AS day_x, y AS votes,
                       CAST(y AS DOUBLE)
                       / ((CAST(m.mx - x AS DOUBLE) + 2.0)
                          * sqrt(CAST(m.mx - x AS DOUBLE) + 2.0)) AS score
                FROM d, m
            )
            SELECT CAST(row_number() OVER (
                       ORDER BY score DESC, event_type ASC, day_x ASC) - 1
                       AS BIGINT) AS rank,
                   event_type, day_x, votes, score
            FROM sc
            ORDER BY score DESC, event_type ASC, day_x ASC LIMIT 20
        """,
        # 2x2 chi-square of conversion by variant (user_id % 2): exact
        # integer cells, chi2 = one division of the HUGEINT promotions
        "ab_chi_square": """
            WITH u AS (
                SELECT user_id % 2 AS variant,
                       CAST(max(CASE WHEN event_type = 'purchase'
                                     THEN 1 ELSE 0 END) AS BIGINT) AS conv
                FROM events GROUP BY user_id
            ),
            c AS (
                SELECT
                    CAST(sum(CASE WHEN variant = 0 AND conv = 1
                                  THEN 1 ELSE 0 END) AS HUGEINT) AS a,
                    CAST(sum(CASE WHEN variant = 0 AND conv = 0
                                  THEN 1 ELSE 0 END) AS HUGEINT) AS b,
                    CAST(sum(CASE WHEN variant = 1 AND conv = 1
                                  THEN 1 ELSE 0 END) AS HUGEINT) AS cc,
                    CAST(sum(CASE WHEN variant = 1 AND conv = 0
                                  THEN 1 ELSE 0 END) AS HUGEINT) AS d
                FROM u
            )
            SELECT CAST(a + b AS BIGINT) AS n_a, CAST(a AS BIGINT) AS conv_a,
                   CAST(cc + d AS BIGINT) AS n_b, CAST(cc AS BIGINT) AS conv_b,
                   CASE WHEN (a+b)*(cc+d)*(a+cc)*(b+d) = 0 THEN 0.0
                        ELSE CAST((a+b+cc+d) * (a*d - b*cc) * (a*d - b*cc)
                                  AS DOUBLE)
                             / CAST((a+b)*(cc+d)*(a+cc)*(b+d) AS DOUBLE)
                   END AS chi2
            FROM c
        """,
        # OLS trend kept in integers: slope num/den unreduced, observed
        # days only, x = epoch_us // day_us pure integer bucket
        "trend_slopes": """
            WITH d AS (
                SELECT event_type, epoch_us(ts) // 86400000000 AS x,
                       CAST(count(*) AS BIGINT) AS y
                FROM events GROUP BY 1, 2
            ),
            s AS (
                SELECT event_type, CAST(count(*) AS BIGINT) AS n,
                       CAST(sum(x) AS BIGINT) AS sx,
                       CAST(sum(y) AS BIGINT) AS sy,
                       CAST(sum(x * y) AS BIGINT) AS sxy,
                       CAST(sum(x * x) AS BIGINT) AS sxx
                FROM d GROUP BY 1
            )
            SELECT event_type, n AS n_days,
                   n * sxy - sx * sy AS slope_num,
                   n * sxx - sx * sx AS slope_den
            FROM s
        """,
        # Merkle snapshot: order-canonical bucket digests + root row
        "merkle_digests": """
            WITH l AS (
                SELECT doc_id % 16 AS bucket, md5(text) AS h FROM documents
            ),
            b AS (
                SELECT bucket, CAST(count(*) AS BIGINT) AS n_docs,
                       md5(string_agg(h, '' ORDER BY h)) AS digest
                FROM l GROUP BY bucket
            )
            SELECT CAST(bucket AS BIGINT) AS bucket, n_docs, digest FROM b
            UNION ALL
            SELECT -1, (SELECT CAST(count(*) AS BIGINT) FROM documents),
                   (SELECT md5(string_agg(digest, '' ORDER BY bucket))
                    FROM b)
        """,
        # consistent hashing: fnv ring positions, first-clockwise rule
        # with wrap; per after-shard before/after/moved-in counts
        "consistent_hash_rebalance": f"""
            WITH rb AS (
                SELECT s, {_fnv_str_sql("'shard' || CAST(s AS VARCHAR) || ':' || CAST(v AS VARCHAR)")} AS pos
                FROM (SELECT unnest(range(4)) AS s),
                     (SELECT unnest(range(16)) AS v)
            ),
            ra AS (
                SELECT s, {_fnv_str_sql("'shard' || CAST(s AS VARCHAR) || ':' || CAST(v AS VARCHAR)")} AS pos
                FROM (SELECT unnest(range(5)) AS s),
                     (SELECT unnest(range(16)) AS v)
            ),
            h AS (SELECT doc_id, {_fnv_sql('doc_id')} AS hh FROM documents),
            j AS (
                SELECT h.doc_id,
                       (SELECT r.s FROM rb r WHERE r.pos = coalesce(
                            (SELECT min(r2.pos) FROM rb r2
                             WHERE r2.pos >= h.hh),
                            (SELECT min(r3.pos) FROM rb r3))) AS s_b,
                       (SELECT r.s FROM ra r WHERE r.pos = coalesce(
                            (SELECT min(r2.pos) FROM ra r2
                             WHERE r2.pos >= h.hh),
                            (SELECT min(r3.pos) FROM ra r3))) AS s_a
                FROM h
            )
            SELECT CAST(sh AS BIGINT) AS shard,
                   CAST((SELECT count(*) FROM j WHERE j.s_b = sh)
                        AS BIGINT) AS n_docs_before,
                   CAST((SELECT count(*) FROM j WHERE j.s_a = sh)
                        AS BIGINT) AS n_docs_after,
                   CAST((SELECT count(*) FROM j
                         WHERE j.s_a = sh AND j.s_b != sh)
                        AS BIGINT) AS n_moved_in
            FROM (SELECT unnest(range(5)) AS sh)
        """,
        # blocked record linkage: anagram blocking key, levenshtein<=2
        # verify; dirty side = last-two-char transposition at %3
        "record_linkage": """
            WITH a AS (
                SELECT c_custkey AS ck, c_name AS nm,
                       array_to_string(list_sort(string_split(c_name, '')),
                                       '') AS blk
                FROM customer
            ),
            b AS (
                SELECT c_custkey + 1000000 AS ck, nm,
                       array_to_string(list_sort(string_split(nm, '')),
                                       '') AS blk
                FROM (
                    SELECT c_custkey,
                           substring(c_name, 1, length(c_name) - 2)
                           || substring(c_name, length(c_name), 1)
                           || substring(c_name, length(c_name) - 1, 1) AS nm
                    FROM customer
                    WHERE c_custkey % 3 = 0 AND length(c_name) >= 2
                )
            )
            SELECT a.ck AS a_custkey, b.ck AS b_custkey,
                   CAST(levenshtein(a.nm, b.nm) AS BIGINT) AS dist
            FROM a JOIN b ON a.blk = b.blk
            WHERE levenshtein(a.nm, b.nm) <= 2
        """,
        # snapshot diff vs the deterministic recrawl (drop %7, mutate %5,
        # spawn %11 at doc_id + N); md5 identity on both sides
        "crawl_delta": """
            WITH a AS (SELECT doc_id AS k, md5(text) AS h FROM documents),
            b AS (
                SELECT doc_id AS k,
                       md5(CASE WHEN doc_id % 5 = 0 THEN text || ' updated'
                                ELSE text END) AS h
                FROM documents WHERE doc_id % 7 != 0
                UNION ALL
                SELECT doc_id + (SELECT count(*) FROM documents) AS k,
                       md5('new page ' || CAST(doc_id AS VARCHAR)) AS h
                FROM documents WHERE doc_id % 11 = 0
            ),
            j AS (
                SELECT CASE WHEN b.k IS NULL THEN 'removed'
                            WHEN a.k IS NULL THEN 'added'
                            WHEN a.h = b.h THEN 'unchanged'
                            ELSE 'changed' END AS status
                FROM a FULL OUTER JOIN b ON a.k = b.k
            )
            SELECT status, CAST(count(*) AS BIGINT) AS n_docs
            FROM j GROUP BY status
        """,
        # first-touch funnel: step k+1 converts at the earliest event
        # STRICTLY after step k's conversion and within the window;
        # all comparisons on integer epoch microseconds
        "funnel_steps": """
            WITH ev AS (
                SELECT user_id, event_type, epoch_us(ts) AS t FROM events
            ),
            s1 AS (SELECT user_id, min(t) AS t1 FROM ev
                   WHERE event_type = 'view' GROUP BY user_id),
            s2 AS (SELECT ev.user_id, min(t) AS t2 FROM ev
                   JOIN s1 ON s1.user_id = ev.user_id
                   WHERE event_type = 'click' AND t > s1.t1
                     AND t <= s1.t1 + 3600000000 GROUP BY ev.user_id),
            s3 AS (SELECT ev.user_id, min(t) AS t3 FROM ev
                   JOIN s2 ON s2.user_id = ev.user_id
                   WHERE event_type = 'purchase' AND t > s2.t2
                     AND t <= s2.t2 + 3600000000 GROUP BY ev.user_id),
            c AS (
                SELECT 1 AS step, 'view' AS event_type,
                       (SELECT count(*) FROM s1) AS n
                UNION ALL
                SELECT 2, 'click', (SELECT count(*) FROM s2)
                UNION ALL
                SELECT 3, 'purchase', (SELECT count(*) FROM s3)
            )
            SELECT CAST(step AS BIGINT) AS step, event_type,
                   CAST(n AS BIGINT) AS n_users
            FROM c WHERE n > 0
        """,
        # integer week buckets (epoch_us // week_us) — no calendar
        # functions, so Ray and DuckDB agree bit-for-bit
        "cohort_retention": """
            WITH w AS (
                SELECT DISTINCT user_id,
                       epoch_us(ts) // 604800000000 AS wk
                FROM events
            ),
            c AS (
                SELECT user_id, wk,
                       min(wk) OVER (PARTITION BY user_id) AS cw
                FROM w
            )
            SELECT cw AS cohort_week, wk - cw AS week_offset,
                   CAST(count(*) AS BIGINT) AS n_users
            FROM c GROUP BY 1, 2
        """,
        "orders_semi_join": """
            SELECT o_orderkey, o_custkey FROM orders
            WHERE o_custkey IN (
              SELECT c_custkey FROM customer c
              JOIN nation n ON c.c_nationkey = n.n_nationkey
              WHERE n.n_name = 'NATION_7')
        """,
        "customer_orders_left_outer": """
            SELECT c.c_custkey, CAST(count(o.o_custkey) AS BIGINT) AS n_orders
            FROM customer c LEFT JOIN orders o ON o.o_custkey = c.c_custkey
            GROUP BY c.c_custkey
        """,
        "custkeys_intersect": """
            SELECT DISTINCT o_custkey AS custkey FROM orders
            INTERSECT
            SELECT DISTINCT c_custkey FROM customer WHERE c_nationkey < 3
        """,
        "customers_without_orders": """
            SELECT c_custkey AS custkey FROM customer
            EXCEPT
            SELECT DISTINCT o_custkey FROM orders
        """,
        "doc_tokens_unnest": f"""
            SELECT doc_id, unnest({_TOK}) AS token FROM documents
        """,
        "significant_terms": f"""
            WITH dt AS (
                SELECT doc_id, unnest(list_distinct({_TOK})) AS t FROM documents
            ),
            fg AS (SELECT doc_id FROM documents WHERE list_contains({_TOK}, 'data'))
            SELECT t AS term,
                   CAST(sum(CASE WHEN doc_id IN (SELECT doc_id FROM fg)
                            THEN 1 ELSE 0 END) AS BIGINT) AS fg_df,
                   count(*) AS df
            FROM dt GROUP BY t
            HAVING CAST(sum(CASE WHEN doc_id IN (SELECT doc_id FROM fg)
                        THEN 1 ELSE 0 END) AS BIGINT) >= 5
        """,
        "top_orders_per_priority": """
            SELECT o_orderpriority, CAST(rn - 1 AS BIGINT) AS grp_rank,
                   o_orderkey, o_totalprice
            FROM (SELECT o_orderpriority, o_orderkey, o_totalprice,
                         row_number() OVER (
                           PARTITION BY o_orderpriority
                           ORDER BY o_totalprice DESC, o_orderkey ASC) AS rn
                  FROM orders)
            WHERE rn <= 2
        """,
        "lang_facet": "SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang",
        # facet over the index's DV sidecar must agree with the raw table
        "lang_facet_dv": "SELECT lang, count(*) AS n_docs FROM documents GROUP BY lang",
        # taxonomy roll-up: every customer counts into each prefix of its
        # region/nation path (lucene/facet TaxonomyFacetCounts)
        "taxonomy_facet_customers": """
            WITH cn AS (
                SELECT r.r_name, n.n_name FROM customer c
                JOIN nation n ON c.c_nationkey = n.n_nationkey
                JOIN region r ON n.n_regionkey = r.r_regionkey
            )
            SELECT r_name AS path, CAST(1 AS BIGINT) AS level,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM cn GROUP BY r_name
            UNION ALL
            SELECT r_name || '/' || n_name, CAST(2 AS BIGINT),
                   CAST(count(*) AS BIGINT)
            FROM cn GROUP BY r_name, n_name
        """,
        # two-pass grouped top-k: top-10 customers by max totalprice (tie
        # smaller custkey), then top-2 orders within each selected group
        "top_k_groups_orders": """
            WITH sel AS (
                SELECT o_custkey FROM orders GROUP BY o_custkey
                ORDER BY max(o_totalprice) DESC, o_custkey ASC LIMIT 10
            )
            SELECT o_custkey,
                   CAST(rn - 1 AS BIGINT) AS rank_in_group,
                   o_orderkey, o_totalprice
            FROM (
                SELECT o_custkey, o_orderkey, o_totalprice,
                       row_number() OVER (
                           PARTITION BY o_custkey
                           ORDER BY o_totalprice DESC, o_orderkey ASC
                       ) AS rn
                FROM orders
                WHERE o_custkey IN (SELECT o_custkey FROM sel)
            ) WHERE rn <= 2
        """,
        # numeric range facet over the DV sidecar vs raw documents.n_chars;
        # the 100-400 range overlaps on purpose (LongRange semantics: a doc
        # counts into every containing range)
        "range_facet_nchars": """
            SELECT label, CAST(lo AS BIGINT) AS lo, CAST(hi AS BIGINT) AS hi,
                   CAST((SELECT count(*) FROM documents
                         WHERE n_chars >= lo AND n_chars < hi) AS BIGINT) AS cnt
            FROM (VALUES ('0-150', 0, 150), ('150-300', 150, 300),
                         ('300-450', 300, 450), ('450+', 450, 1099511627776),
                         ('mid-100-400', 100, 400)) AS r(label, lo, hi)
        """,
        # LongPoint.newRangeQuery over the n_chars points index — bounds
        # INCLUSIVE (document/LongPoint.java:120-143)
        "points_range_docs": """
            SELECT doc_id FROM documents
            WHERE n_chars >= 150 AND n_chars <= 400 ORDER BY doc_id
        """,
        # BooleanQuery{MUST term, FILTER point range}: text match AND
        # numeric filter; the FILTER clause never scores
        "term_points_filter_docs": f"""
            SELECT doc_id FROM documents
            WHERE list_contains({_TOK}, 'data')
              AND n_chars >= 150 AND n_chars <= 400
            ORDER BY doc_id
        """,
        # RangeFieldQuery over doc_id-derived intervals lo=(id*7919)%10000,
        # hi=lo+50+id%400 vs query [3000, 6000]: emit intersecting docs
        # classified WITHIN / CONTAINS / CROSSES (equal ranges -> WITHIN)
        "range_field_docs": """
            WITH r AS (
                SELECT doc_id,
                       (doc_id * 7919) % 10000 AS lo,
                       (doc_id * 7919) % 10000 + 50 + (doc_id % 400) AS hi
                FROM documents
            )
            SELECT doc_id,
                   CASE WHEN lo >= 3000 AND hi <= 6000 THEN 'WITHIN'
                        WHEN lo <= 3000 AND hi >= 6000 THEN 'CONTAINS'
                        ELSE 'CROSSES' END AS relation
            FROM r
            WHERE hi >= 3000 AND lo <= 6000
            ORDER BY doc_id
        """,
        # IndexOrDocValuesQuery: planner picks points-lead or DV-verify
        # by cost — either path returns this same conjunction
        "index_or_dv_filter_docs": f"""
            SELECT doc_id FROM documents
            WHERE list_contains({_TOK}, 'data')
              AND n_chars >= 150 AND n_chars <= 400
            ORDER BY doc_id
        """,
        # LatLonPoint.newBoxQuery over the doc_id-derived coordinate
        # fixture (engine/geo.py synth_latlon — pure integer arithmetic,
        # bit-exact in SQL); bounds inclusive, milli-degrees
        # 2-D BKD box (IntPoint.newRangeQuery 2-D, inclusive bounds) over
        # events (user_id, ts-as-epoch-micros); ids emitted as doc_id
        "points_box_docs": """
            SELECT event_id AS doc_id FROM events
            WHERE user_id BETWEEN 20 AND 60
              AND epoch_us(ts) BETWEEN 1704844800000000 AND 1705708800000000
            ORDER BY doc_id
        """,
        # compiled-expression top-k (JavascriptCompiler role): identical
        # float64 op order + same-machine libm => bit-exact replay
        # {!frange}: inclusive [100, 200] on the f64 expression; doc set
        # only — np.log vs libm ln drift by 1 ulp on ~19% of inputs, but
        # the nearest value to either bound is >1e-4 away (test-pinned),
        # so membership cannot flip
        "frange_docs": """
            SELECT o_orderkey FROM (
                SELECT o_orderkey,
                       o_totalprice / 1000.0 + sqrt(o_orderkey)
                           - ln(o_custkey + 1) AS fval
                FROM orders
            ) WHERE fval >= 100.0 AND fval <= 200.0
        """,
        "expression_score_topk": """
            SELECT CAST(row_number() OVER (
                       ORDER BY score DESC, o_orderkey ASC) - 1 AS BIGINT)
                       AS rank,
                   o_orderkey, score
            FROM (
                SELECT o_orderkey,
                       o_totalprice / 1000.0 + sqrt(o_orderkey)
                           - ln(o_custkey + 1) AS score
                FROM orders
            )
            ORDER BY rank LIMIT 25
        """,
        # LatLonPoint.newPolygonQuery: the even-odd crossing parity over
        # the doc_id-derived integer grid, replayed edge-by-edge with
        # int64 cross-multiplication (bit-exact — no floats anywhere)
        "geo_polygon_docs": _geo_polygon_sql(),
        "geo_box_docs": """
            SELECT doc_id FROM documents
            WHERE ((doc_id * 2654435761) % 180000) - 90000
                      BETWEEN -30000 AND 30000
              AND ((doc_id * 40503 + 12345) % 360000) - 180000
                      BETWEEN -60000 AND 90000
            ORDER BY doc_id
        """,
        # Solr facet.heatmap: 8x8 grid over the box, cell =
        # ((v - min) * 8) // (span+1-1...); pure integer replay of the
        # coordinate fixture + row-major cell addressing
        "geo_heatmap_facet": """
            WITH pts AS (
                SELECT ((doc_id * 2654435761) % 180000) - 90000 AS lat,
                       ((doc_id * 40503 + 12345) % 360000) - 180000 AS lon
                FROM documents
            ),
            inbox AS (
                SELECT lat, lon FROM pts
                WHERE lat BETWEEN -60000 AND 60000
                  AND lon BETWEEN -120000 AND 120000
            )
            SELECT ((lat - (-60000)) * 8) // 120001 AS cell_row,
                   ((lon - (-120000)) * 8) // 240001 AS cell_col,
                   CAST(count(*) AS BIGINT) AS cnt
            FROM inbox
            GROUP BY 1, 2
        """,
        # LatLonShape box query over per-doc diamonds (center = the point
        # fixture, arm = 300 + doc_id%7*100): INTERSECTS iff clamped L1
        # distance from box to center <= arm; WITHIN iff all 4 tips are
        # inside — pure integer, replayed verbatim
        "shape_box_docs": """
            WITH s AS (
                SELECT doc_id,
                       ((doc_id * 2654435761) % 180000) - 90000 AS clat,
                       ((doc_id * 40503 + 12345) % 360000) - 180000 AS clon,
                       300 + (doc_id % 7) * 100 AS arm
                FROM documents
            ),
            d AS (
                SELECT doc_id, clat, clon, arm,
                       GREATEST(0, -60000 - clon, clon - 90000) AS ax,
                       GREATEST(0, -30000 - clat, clat - 30000) AS ay
                FROM s
            )
            SELECT doc_id,
                   CASE WHEN clat - arm >= -30000 AND clat + arm <= 30000
                             AND clon - arm >= -60000 AND clon + arm <= 90000
                        THEN 'WITHIN' ELSE 'INTERSECTS' END AS relation
            FROM d
            WHERE ax + ay <= arm
            ORDER BY doc_id
        """,
        # LatLonPoint.newDistanceQuery: haversine <= radius over the
        # doc_id-derived grid. Promoted from rows-only: libm trig differs
        # across engines only at ulp scale (measured <= 1e-7 m on this
        # host) while the closest doc to the 2,000 km boundary is 150 m
        # away over the first 50k doc_ids — the match SET cannot flip
        # nearest-k distance sort, promoted round 4: ranking by the
        # vectorized distance can't flip on the milli-degree grid (min
        # inter-point gap ~0.1 m vs 1-ulp trig drift), and the emitted
        # distances are scalar libm in THIS op order on both sides
        # (explicit products, no pow; probed bit-identical)
        "geo_nearest_k": """
            WITH pts AS (
                SELECT doc_id,
                       ((doc_id * 2654435761) % 180000 - 90000) / 1000.0 AS la,
                       ((doc_id * 40503 + 12345) % 360000 - 180000) / 1000.0 AS lo
                FROM documents
            ),
            d AS (
                SELECT doc_id, 2.0 * 6371008.7714 * asin(least(1.0, sqrt(
                        sin(radians(10.0 - la) / 2.0)
                          * sin(radians(10.0 - la) / 2.0)
                      + cos(radians(la)) * cos(radians(10.0))
                          * (sin(radians(20.0 - lo) / 2.0)
                             * sin(radians(20.0 - lo) / 2.0))))) AS dist_m
                FROM pts
            )
            SELECT CAST(rn - 1 AS BIGINT) AS rank, doc_id, dist_m FROM (
                SELECT doc_id, dist_m, row_number() OVER (
                    ORDER BY dist_m ASC, doc_id ASC) AS rn
                FROM d
            ) WHERE rn <= 10
        """,
        "geo_distance_docs": """
            SELECT doc_id FROM (
                SELECT doc_id,
                       ((doc_id * 2654435761) % 180000 - 90000) / 1000.0 AS la,
                       ((doc_id * 40503 + 12345) % 360000 - 180000) / 1000.0 AS lo
                FROM documents)
            WHERE 2.0 * 6371008.7714 * asin(least(1.0, sqrt(
                      sin(radians(10.0 - la) / 2.0) ** 2
                    + cos(radians(la)) * cos(radians(10.0))
                      * sin(radians(20.0 - lo) / 2.0) ** 2))) <= 2000000.0
            ORDER BY doc_id
        """,
        # CollapsingQParser: one head per collapse key (max n_chars, tie
        # min doc_id), then rank the heads
        "collapse_top_docs": """
            SELECT * FROM (
              SELECT CAST(row_number() OVER (
                         ORDER BY n_chars DESC, doc_id ASC) - 1 AS BIGINT) AS rank,
                     source, doc_id, CAST(n_chars AS BIGINT) AS n_chars
              FROM (SELECT source, doc_id, n_chars,
                           row_number() OVER (PARTITION BY source
                               ORDER BY n_chars DESC, doc_id ASC) AS rg
                    FROM documents) WHERE rg = 1
            ) WHERE rank < 10 ORDER BY rank
        """,
        # DiversifiedTopDocsCollector: global top-k with <= 2 hits per key
        # == per-key rank <= 2 then global top-k
        "diversified_topk": """
            SELECT * FROM (
              SELECT CAST(row_number() OVER (
                         ORDER BY n_chars DESC, doc_id ASC) - 1 AS BIGINT) AS rank,
                     source, doc_id, CAST(n_chars AS BIGINT) AS n_chars
              FROM (SELECT source, doc_id, n_chars,
                           row_number() OVER (PARTITION BY source
                               ORDER BY n_chars DESC, doc_id ASC) AS rg
                    FROM documents) WHERE rg <= 2
            ) WHERE rank < 10 ORDER BY rank
        """,
        # DirectSpellChecker contract: dictionary terms within 2 edits of
        # each query word, ranked (distance asc, df desc, term asc), top 5;
        # distance = classic Levenshtein (= DuckDB's), the documented
        # deviation from LuceneLevenshteinDistance (engine/suggest.py)
        "spell_suggest": f"""
            WITH td AS (
                SELECT term, count(*) AS df FROM ({tok_pairs}) GROUP BY term
            ),
            w AS (SELECT unnest(['dta','jion','hsh','qurey','streem',
                                 'windo','tabel','kei']) AS word),
            cand AS (
                SELECT w.word, td.term, td.df,
                       levenshtein(w.word, td.term) AS dist
                FROM w CROSS JOIN td
                WHERE levenshtein(w.word, td.term) <= 2 AND td.term <> w.word
            )
            SELECT word, CAST(rn - 1 AS BIGINT) AS rank, term AS suggestion,
                   CAST(dist AS BIGINT) AS dist, df
            FROM (
                SELECT word, term, df, dist,
                       row_number() OVER (
                           PARTITION BY word
                           ORDER BY dist ASC, df DESC, term ASC) AS rn
                FROM cand
            ) WHERE rn <= 5
        """,
        # SpellCheckCollator: per-term top-2 suggestions (the spell_suggest
        # ranking) cross-joined into candidate conjunctions, each counted
        # against the DISTINCT (doc_id, term) pairs; all-integer chain
        "spell_collation": f"""
            WITH td AS MATERIALIZED (
                SELECT term, count(*) AS df FROM ({tok_pairs}) GROUP BY term
            ),
            dt AS MATERIALIZED (
                SELECT DISTINCT doc_id, term FROM ({tok_pairs})
            ),
            ca AS (
                SELECT term FROM (
                    SELECT term, row_number() OVER (
                        ORDER BY levenshtein('dta', term) ASC, df DESC,
                                 term ASC) AS rn
                    FROM td
                    WHERE levenshtein('dta', term) <= 2 AND term <> 'dta'
                ) WHERE rn <= 2
            ),
            cb AS (
                SELECT term FROM (
                    SELECT term, row_number() OVER (
                        ORDER BY levenshtein('jion', term) ASC, df DESC,
                                 term ASC) AS rn
                    FROM td
                    WHERE levenshtein('jion', term) <= 2 AND term <> 'jion'
                ) WHERE rn <= 2
            ),
            coll AS (
                SELECT a.term AS ta, b.term AS tb FROM ca a CROSS JOIN cb b
            ),
            hits AS (
                SELECT coll.ta, coll.tb,
                       (SELECT count(*)
                        FROM dt x JOIN dt y ON x.doc_id = y.doc_id
                        WHERE x.term = coll.ta AND y.term = coll.tb) AS h
                FROM coll
            )
            SELECT CAST(row_number() OVER (
                       ORDER BY hits DESC, "collation" ASC) - 1 AS BIGINT)
                       AS rank,
                   "collation", hits
            FROM (SELECT ta || ' ' || tb AS "collation",
                         CAST(h AS BIGINT) AS hits
                  FROM hits WHERE h > 0)
            ORDER BY rank LIMIT 5
        """,
        # FuzzySuggester: completions whose len(key)-prefix is within 1
        # classic-Levenshtein edit of the key (first char exact; keys < 3
        # chars exact-prefix), ranked by (df desc, term asc)
        "fuzzy_complete": f"""
            WITH td AS (
                SELECT term, count(*) AS df FROM ({tok_pairs}) GROUP BY term
            ),
            q AS (SELECT unnest(['dara', 'joyn', 'wixdow', 'cu', 'qxery']) AS key),
            cand AS (
                SELECT q.key, td.term, td.df
                FROM q CROSS JOIN td
                WHERE substr(td.term, 1, 1) = substr(q.key, 1, 1)
                  AND CASE WHEN length(q.key) < 3
                      THEN substr(td.term, 1, length(q.key)) = q.key
                      ELSE levenshtein(
                          q.key, substr(td.term, 1, length(q.key))) <= 1
                      END
            )
            SELECT key, CAST(rn - 1 AS BIGINT) AS rank,
                   term AS suggestion, df
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY key ORDER BY df DESC, term ASC) AS rn
                  FROM cand)
            WHERE rn <= 10
        """,
        # AnalyzingInfixSuggester: contains-fragment completions by weight
        "infix_complete": f"""
            SELECT CAST(rn - 1 AS BIGINT) AS rank, term AS suggestion, df
            FROM (
                SELECT term, df,
                       row_number() OVER (ORDER BY df DESC, term ASC) AS rn
                FROM (SELECT term, count(*) AS df FROM ({tok_pairs})
                      GROUP BY term)
                WHERE term LIKE '%er%'
            ) WHERE rn <= 10
        """,
        # json.facet sub-aggregation stats per lang bucket (DV sidecar)
        "lang_stats_facet": """
            SELECT lang, count(*) AS n_docs,
                   CAST(sum(n_chars) AS BIGINT) AS sum_nchars,
                   CAST(min(n_chars) AS BIGINT) AS min_nchars,
                   CAST(max(n_chars) AS BIGINT) AS max_nchars
            FROM documents GROUP BY lang
        """,
        # /export handler: the FULL sorted match set (order-insensitive
        # driver compare; the engine output is a distributed Dataset sort)
        "export_sorted_docs": f"""
            SELECT doc_id, CAST(n_chars AS BIGINT) AS n_chars
            FROM documents WHERE list_contains({_TOK}, 'data')
        """,
        # prefix completion ranked by weight (df), ties term asc
        "prefix_complete": f"""
            SELECT CAST(rn - 1 AS BIGINT) AS rank, term AS suggestion, df
            FROM (
                SELECT term, df,
                       row_number() OVER (ORDER BY df DESC, term ASC) AS rn
                FROM (SELECT term, count(*) AS df FROM ({tok_pairs})
                      GROUP BY term)
                WHERE term LIKE 's%'
            ) WHERE rn <= 10
        """,
        # WordBreakSpellChecker single break: both halves must be
        # dictionary terms; NUM_CHANGES_THEN_MAX_FREQUENCY order (all
        # candidates have one change => max(df) desc, split position asc)
        "word_breaks": f"""
            WITH td AS (
                SELECT term, count(*) AS df FROM ({tok_pairs}) GROUP BY term
            ),
            w AS (SELECT unnest(['datajoin','hashmerge','sortkey',
                                 'fastrow','nosplit']) AS word),
            splits AS (
                SELECT w.word, i,
                       substr(w.word, 1, CAST(i AS INT)) AS left_part,
                       substr(w.word, CAST(i + 1 AS INT)) AS right_part
                FROM w, (SELECT unnest(range(1, 20)) AS i)
                WHERE i < length(w.word)
            ),
            cand AS (
                SELECT s.word, s.i, s.left_part, s.right_part,
                       tl.df AS df_left, tr.df AS df_right
                FROM splits s
                JOIN td tl ON tl.term = s.left_part
                JOIN td tr ON tr.term = s.right_part
            )
            SELECT word, CAST(rn - 1 AS BIGINT) AS rank,
                   left_part, right_part, df_left, df_right
            FROM (SELECT *, row_number() OVER (
                      PARTITION BY word
                      ORDER BY greatest(df_left, df_right) DESC, i ASC) AS rn
                  FROM cand)
            WHERE rn <= 5
        """,
        # ToParentBlockJoin ScoreMode.Max: children (lineitems with
        # discount > 0.05) score their parent order with the MAX child
        # revenue; the double is a bit-identical selection, never a sum
        "block_join_orders": """
            SELECT CAST(rn - 1 AS BIGINT) AS rank, o_orderkey, score
            FROM (
                SELECT l_orderkey AS o_orderkey,
                       max(l_extendedprice * (1 - l_discount)) AS score,
                       row_number() OVER (
                           ORDER BY max(l_extendedprice * (1 - l_discount)) DESC,
                                    l_orderkey ASC) AS rn
                FROM lineitem WHERE l_discount > 0.05
                GROUP BY l_orderkey
            ) WHERE rn <= 10
        """,
        # MoreLikeThis createQueue: tf from the example doc (gate tf>=2),
        # df from the corpus (gate df>=5), score = tf * ClassicSimilarity
        # idf = ln((N+1)/(df+1)) + 1; the float score only ORDERS (ties:
        # equal (tf,df) => bit-equal scores both sides => term asc) and is
        # never emitted, so the row hash stays integer-exact
        "more_like_this_terms": f"""
            WITH tdoc AS (
                SELECT t AS term, count(*) AS tf FROM (
                    SELECT unnest({_TOK}) AS t FROM documents WHERE doc_id = 7
                ) GROUP BY t HAVING count(*) >= 2
            ),
            tdf AS (SELECT term, count(*) AS df FROM ({tok_pairs}) GROUP BY term),
            scored AS (
                SELECT tdoc.term, tdoc.tf, tdf.df,
                       tdoc.tf * (ln(((SELECT count(*) FROM documents) + 1)
                                     / (tdf.df + 1.0)) + 1) AS score
                FROM tdoc JOIN tdf USING (term)
                WHERE tdf.df >= 5
            )
            SELECT CAST(7 AS BIGINT) AS doc_id, CAST(rn - 1 AS BIGINT) AS rank,
                   term, CAST(tf AS BIGINT) AS tf, df
            FROM (SELECT *, row_number() OVER (ORDER BY score DESC, term ASC) AS rn
                  FROM scored)
            WHERE rn <= 10
        """,
        "term_filter_sort_by_field": f"""
            SELECT (row_number() OVER (ORDER BY n_chars DESC, doc_id ASC) - 1) AS rank,
                   doc_id, n_chars
            FROM documents
            WHERE list_contains({_TOK}, 'data')
            ORDER BY rank LIMIT 20
        """,
        "lineitem_revenue_expr": """
            SELECT l_orderkey, l_linenumber,
                   l_extendedprice * (1 - l_discount) AS revenue
            FROM lineitem
        """,
        "orders_sample_hash": f"""
            SELECT o_orderkey, o_custkey, o_totalprice FROM orders
            WHERE ({_fnv_sql("o_orderkey")}) % 100 < 10
        """,
    }
    # the sharded LM entry scores the SAME query with the SAME global
    # stats — the oracle is identical to the single-searcher one (the
    # whole point: sharding must not change a single bit)
    out["lmdirichlet_topk_sharded"] = out["lmdirichlet_topk"]
    return out
