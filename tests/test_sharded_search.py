"""Doc-sharded scatter/gather search must be rank-identical to the
single-searcher answer (TopDocs.merge exactness with global stats). The
shards are doc ranges of the merged index; each test merges its partitions
into a root of its own (so they keep their postings) and compares with
``IndexSearcher`` over the build manifest."""

import numpy as np
import pytest


def _merged(manifest, tmp_path_factory) -> dict:
    from engine.merge import merge_by_term

    return merge_by_term(manifest, str(tmp_path_factory.mktemp("merged")))


@pytest.mark.usefixtures("ray_session")
def test_sharded_search_rank_identity(tmp_path_factory):
    import ray.data

    from engine.build import invert_to_segment
    from engine.checkpoint import finalize_build_manifest
    from engine.fixtures import make_pages
    from engine.search import IndexSearcher, search_dataset_sharded

    root = tmp_path_factory.mktemp("sharded")
    pages = make_pages(800, seed=11)
    texts = pages.column("text").to_pylist()
    rows = []
    for s in range(8):
        lo, hi = s * 100, (s + 1) * 100
        seg_dir = str(root / f"partitions/p{lo:012d}")
        meta = invert_to_segment(np.arange(lo, hi, dtype=np.int64), texts[lo:hi], seg_dir)
        rows.append(
            {k: meta[k] for k in ("doc_base", "n_docs", "sum_ttf", "n_terms", "wall_ms")}
            | {"seg_dir": seg_dir}
        )
    manifest = finalize_build_manifest(str(root), rows)

    queries = [
        {"query_id": 0, "query": "the00", "k": 10},
        {"query_id": 1, "query": "t00000 t00001", "k": 15},
        {"query_id": 2, "query": "+t00000 t00002", "k": 10},
        {"query_id": 3, "query": "zzznomatch", "k": 10},
        {"query_id": 4, "query": "tiekey", "k": 10},
    ]
    res = (
        search_dataset_sharded(
            ray.data.from_items(queries), _merged(manifest, tmp_path_factory), n_shards=3
        )
        .to_pandas()
        .sort_values(["query_id", "rank"])
    )
    base = IndexSearcher(manifest, algorithm="taat")
    for q in queries:
        bd, bs = base.search(q["query"], q["k"])
        sub = res[res["query_id"] == q["query_id"]]
        np.testing.assert_array_equal(sub["doc_id"].to_numpy(), bd, err_msg=q["query"])
        np.testing.assert_array_equal(
            sub["score"].to_numpy().astype(np.float32), bs, err_msg=q["query"]
        )


@pytest.mark.usefixtures("ray_session")
def test_pipeline_sharded_matches_plain():
    from engine.pipelines import bm25_topk_sharded, bm25_search_results

    sharded = bm25_topk_sharded("/root/testdata/sf0.001").to_pandas()
    plain = bm25_search_results("/root/testdata/sf0.001").to_pandas()
    plain = plain[plain["query_id"].isin(sharded["query_id"].unique())]
    a = sharded.sort_values(["query_id", "rank"]).reset_index(drop=True)
    b = plain.sort_values(["query_id", "rank"]).reset_index(drop=True)
    np.testing.assert_array_equal(a["doc_id"].to_numpy(), b["doc_id"].to_numpy())
    np.testing.assert_array_equal(
        a["score"].to_numpy().astype(np.float32), b["score"].to_numpy().astype(np.float32)
    )


@pytest.mark.usefixtures("ray_session")
def test_sharded_rich_clauses_match_single(tmp_path_factory):
    """Prefix / wildcard / phrase / synonym / boost / fuzzy clauses must
    survive the shard fan-out: the rewrite happens once against the full
    dictionary and shard tasks score with injected GLOBAL stats
    (regression: rewrites were silently dropped and phrase/synonym/boost
    used shard-local df)."""
    import ray.data

    from engine.build import invert_to_segment
    from engine.checkpoint import finalize_build_manifest
    from engine.fixtures import make_pages
    from engine.search import IndexSearcher, search_dataset_sharded

    root = tmp_path_factory.mktemp("shardedrich")
    pages = make_pages(600, seed=13)
    texts = pages.column("text").to_pylist()
    rows = []
    for s in range(6):
        lo, hi = s * 100, (s + 1) * 100
        seg_dir = str(root / f"partitions/p{lo:012d}")
        meta = invert_to_segment(np.arange(lo, hi, dtype=np.int64), texts[lo:hi], seg_dir)
        rows.append(
            {k: meta[k] for k in ("doc_base", "n_docs", "sum_ttf", "n_terms", "wall_ms")}
            | {"seg_dir": seg_dir}
        )
    manifest = finalize_build_manifest(str(root), rows)

    queries = [
        {"query_id": 0, "query": "t0000*", "k": 10},       # prefix rewrite
        {"query_id": 1, "query": '"the00 the01"', "k": 10},  # phrase
        {"query_id": 2, "query": "t00000|t00001", "k": 10},  # synonym
        {"query_id": 3, "query": "t00000^2.5 t00002", "k": 10},  # boost
        {"query_id": 4, "query": "t0000?", "k": 10},       # wildcard
        {"query_id": 5, "query": "t00000~1", "k": 10},     # fuzzy
        {"query_id": 6, "query": '"the00 the02"~2', "k": 10},  # sloppy phrase
        {"query_id": 7, "query": "[t00000 TO t00004]", "k": 10},  # term range
    ]
    res = (
        search_dataset_sharded(
            ray.data.from_items(queries), _merged(manifest, tmp_path_factory), n_shards=3
        )
        .to_pandas()
        .sort_values(["query_id", "rank"])
    )
    base = IndexSearcher(manifest, algorithm="taat")
    for q in queries:
        bd, bs = base.search(q["query"], q["k"])
        sub = res[res["query_id"] == q["query_id"]]
        assert len(bd) > 0, f"fixture should hit: {q['query']}"
        np.testing.assert_array_equal(sub["doc_id"].to_numpy(), bd, err_msg=q["query"])
        np.testing.assert_array_equal(
            sub["score"].to_numpy().astype(np.float32), bs, err_msg=q["query"]
        )


@pytest.mark.usefixtures("ray_session")
def test_fanout_builds_no_driver_index(tmp_path_factory):
    """The scatter/gather fan-out must not open the index on the driver or
    ship one in its closure: constructing the sharded Dataset may not
    instantiate a single Segment or IndexSearcher(manifest) in this
    process (the stats pass runs in workers over the merged dictionary)."""
    import ray.data

    import engine.search as search_mod
    import engine.segment as segment_mod
    from engine.build import invert_to_segment
    from engine.checkpoint import finalize_build_manifest
    from engine.fixtures import make_pages
    from engine.search import IndexSearcher, search_dataset_sharded

    root = tmp_path_factory.mktemp("shardednodriver")
    pages = make_pages(300, seed=17)
    texts = pages.column("text").to_pylist()
    rows = []
    for s in range(3):
        lo, hi = s * 100, (s + 1) * 100
        seg_dir = str(root / f"partitions/p{lo:012d}")
        meta = invert_to_segment(np.arange(lo, hi, dtype=np.int64), texts[lo:hi], seg_dir)
        rows.append(
            {k: meta[k] for k in ("doc_base", "n_docs", "sum_ttf", "n_terms", "wall_ms")}
            | {"seg_dir": seg_dir}
        )
    manifest = finalize_build_manifest(str(root), rows)
    mm = _merged(manifest, tmp_path_factory)

    opened = []
    orig_init = segment_mod.Segment.__init__

    def counting_init(self, seg_dir):
        opened.append(seg_dir)
        orig_init(self, seg_dir)

    segment_mod.Segment.__init__ = counting_init
    try:
        queries = [
            {"query_id": 0, "query": "the00 t0000*", "k": 10},
            {"query_id": 1, "query": "t00000~1", "k": 10},
        ]
        ds = search_dataset_sharded(ray.data.from_items(queries), mm, n_shards=2)
        assert opened == [], "driver opened Segments while building the fan-out"
        res = ds.to_pandas().sort_values(["query_id", "rank"])
        # during execution the driver may legitimately host a Ray worker
        # task (shard searchers open their OWN shard subset there) — the
        # regression under test is the fan-out/stats pass, which must
        # never construct a Segment in any process (merged index only)
        import engine.search as search_mod_check

        digest = search_mod_check.manifest_digest(mm)
        assert all(
            not any(isinstance(s, segment_mod.Segment) for s in srch.segments)
            for srch in search_mod_check._SEARCHERS.get(digest, {}).values()
        ), "stats searcher holds Segments"
    finally:
        segment_mod.Segment.__init__ = orig_init

    base = IndexSearcher(manifest, algorithm="taat")
    for q in queries:
        bd, bs = base.search(q["query"], q["k"])
        sub = res[res["query_id"] == q["query_id"]]
        np.testing.assert_array_equal(sub["doc_id"].to_numpy(), bd, err_msg=q["query"])
        np.testing.assert_array_equal(
            sub["score"].to_numpy().astype(np.float32), bs, err_msg=q["query"]
        )


@pytest.mark.usefixtures("ray_session")
def test_sharded_cursor_mark_paging(tmp_path_factory):
    """Solr cursorMark over the scatter/gather path: shipping the page-1
    mark to every shard and TopDocs-merging the shard pages equals the
    single-searcher search_after page exactly — the after filter commutes
    with the doc partition because shard scores are globally comparable."""
    import ray.data

    from engine.build import invert_to_segment
    from engine.checkpoint import finalize_build_manifest
    from engine.fixtures import make_pages
    from engine.search import IndexSearcher, search_dataset_sharded

    root = tmp_path_factory.mktemp("cursor")
    pages = make_pages(600, seed=23)
    texts = pages.column("text").to_pylist()
    rows = []
    for s in range(6):
        lo, hi = s * 100, (s + 1) * 100
        seg_dir = str(root / f"partitions/p{lo:012d}")
        meta = invert_to_segment(np.arange(lo, hi, dtype=np.int64), texts[lo:hi], seg_dir)
        rows.append(
            {k: meta[k] for k in ("doc_base", "n_docs", "sum_ttf", "n_terms", "wall_ms")}
            | {"seg_dir": seg_dir}
        )
    manifest = finalize_build_manifest(str(root), rows)
    base = IndexSearcher(manifest, algorithm="taat")

    queries = []
    marks = {}
    for qid, (qs, k) in enumerate(
        [("the00", 8), ("t00000 t00001", 6), ("tiekey", 5)]
    ):
        d1, s1 = base.search(qs, k)
        assert len(d1) == k
        marks[qid] = (qs, k, (float(s1[-1]), int(d1[-1])))
        queries.append(
            {
                "query_id": qid,
                "query": qs,
                "k": k,
                "after_score": float(s1[-1]),
                "after_doc": int(d1[-1]),
            }
        )
    res = (
        search_dataset_sharded(
            ray.data.from_items(queries), _merged(manifest, tmp_path_factory), n_shards=3
        )
        .to_pandas()
        .sort_values(["query_id", "rank"])
    )
    for qid, (qs, k, mark) in marks.items():
        ed, es = base.search_after(qs, mark, k=k)
        sub = res[res["query_id"] == qid]
        np.testing.assert_array_equal(sub["doc_id"].to_numpy(), ed, err_msg=qs)
        np.testing.assert_array_equal(
            sub["score"].to_numpy().astype(np.float32), es, err_msg=qs
        )
        # page 2 equals ranks [k, 2k) of one big top-2k
        bd, bs = base.search(qs, 2 * k)
        np.testing.assert_array_equal(ed, bd[k:], err_msg=qs)
        np.testing.assert_array_equal(es, bs[k:], err_msg=qs)


@pytest.mark.usefixtures("ray_session")
def test_sharded_similarity_plug():
    """The sharded fan-out under a non-BM25 similarity equals the single
    searcher bit-for-bit (global-stats weights commute with sharding),
    and the default stays BM25. The entries' shared index it runs on
    holds one copy of the postings: every merged field checks out and its
    partitions keep only meta.json and docvalues.parquet."""
    import numpy as np
    import ray.data

    from engine.checkindex import check_index_dir
    from engine.checkpoint import load_merge_manifest
    from engine.pipelines import get_index
    from engine.search import IndexSearcher, search_dataset_sharded

    sf = "/root/testdata/sf0.01"
    idx = get_index(sf)
    assert check_index_dir(idx["index_dir"])["ok"]
    assert "title" in idx["merge_manifest"]["fields"]
    s = IndexSearcher(load_merge_manifest(idx["index_dir"]), similarity="lmdirichlet")
    d_ref, sc_ref = s.search("data join", 10)
    qds = ray.data.from_items([{"query_id": 0, "query": "data join", "k": 10}])
    out = (
        search_dataset_sharded(
            qds, idx["merge_manifest"], n_shards=3, similarity="lmdirichlet"
        )
        .to_pandas()
        .sort_values("rank")
    )
    np.testing.assert_array_equal(out["doc_id"].to_numpy(), d_ref)
    np.testing.assert_array_equal(
        out["score"].to_numpy().astype(np.float32), sc_ref
    )


def test_sharded_search_needs_a_merge_manifest():
    """Shards are doc ranges of the merged index: a build manifest, whose
    partitions lose their postings once the merge commits, is refused
    before any work starts."""
    from engine.search import search_dataset_sharded

    build = {"partitions": [], "doc_count": 0, "sum_ttf": 0}
    with pytest.raises(ValueError, match="merge first"):
        search_dataset_sharded(None, build)


@pytest.mark.usefixtures("ray_session")
def test_sharded_search_masks_deleted_docs(tmp_path):
    """Deletions live in the merge manifest: the shards mask them as the
    single searcher over the same manifest does, hits and scores alike."""
    import os

    import ray.data

    from engine.build import invert_to_segment
    from engine.checkpoint import finalize_build_manifest, load_merge_manifest
    from engine.deletes import delete_by_term
    from engine.fixtures import make_pages
    from engine.merge import merge_by_term
    from engine.search import IndexSearcher, search_dataset_sharded

    root = str(tmp_path / "idx")
    texts = make_pages(300, seed=3).column("text").to_pylist()
    rows = []
    for lo in (0, 150):
        seg_dir = os.path.join(root, "partitions", f"p{lo:012d}")
        docs = np.arange(lo, lo + 150, dtype=np.int64)
        meta = invert_to_segment(docs, texts[lo : lo + 150], seg_dir)
        keep = ("doc_base", "n_docs", "sum_ttf", "n_terms")
        rows.append({k: meta[k] for k in keep} | {"seg_dir": seg_dir})
    merge_by_term(finalize_build_manifest(root, rows), root)
    assert delete_by_term(root, "t00001") > 0
    mm = load_merge_manifest(root)
    base = IndexSearcher(mm, algorithm="taat")
    queries = [
        {"query_id": 0, "query": "the00", "k": 20},
        {"query_id": 1, "query": "t00000 t00002", "k": 20},
    ]
    res = (
        search_dataset_sharded(ray.data.from_items(queries), mm, n_shards=2)
        .to_pandas()
        .sort_values(["query_id", "rank"])
    )
    for q in queries:
        bd, bs = base.search(q["query"], q["k"])
        sub = res[res["query_id"] == q["query_id"]]
        np.testing.assert_array_equal(sub["doc_id"].to_numpy(), bd, err_msg=q["query"])
        np.testing.assert_array_equal(
            sub["score"].to_numpy().astype(np.float32), bs, err_msg=q["query"]
        )
