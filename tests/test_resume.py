"""Checkpoint/resume: crash mid-merge and mid-build; completed units are
reused, re-runs converge to the same index (the pending_segments_N →
segments_N two-phase-commit model, SURVEY §4)."""

import json
import os

import numpy as np
import pytest

from engine.build import build_index, invert_to_segment
from engine.checkindex import check_index, check_merged_index
from engine.checkpoint import finalize_build_manifest
from engine.fixtures import make_pages, write_pages
from engine.merge import MergedIndex, merge_by_term
from engine.search import IndexSearcher
from engine.segment import Segment
from test_merge import QUERIES


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    root = tmp_path_factory.mktemp("resume")
    pages = make_pages(600, seed=3)
    data_dir = str(root / "pages")
    write_pages(pages, data_dir, n_files=6)
    return {"root": str(root), "data_dir": data_dir}


@pytest.mark.usefixtures("ray_session")
def test_build_resume_skips_completed_partitions(built):
    index_dir = os.path.join(built["root"], "idx")
    m1 = build_index(built["data_dir"], index_dir, partition_docs=100, from_html=True)
    # crash simulation: manifest lost, partitions intact
    os.remove(os.path.join(index_dir, "manifest.json"))
    m2 = build_index(built["data_dir"], index_dir, partition_docs=100, from_html=True)
    # identical structure AND identical wall_ms per partition => the work
    # was not redone (per-partition meta untouched on resume)
    assert m1 == m2
    check_index(m2)


@pytest.fixture(scope="module")
def salted(tmp_path_factory):
    """8 partitions of 1200 docs whose the00..the19 stop band is salted at
    ``salt_threshold=400``, plus a cache of clean merges by arguments."""
    root = tmp_path_factory.mktemp("salted")
    texts = make_pages(1200, seed=7).column("text").to_pylist()
    rows = []
    for lo in range(0, 1200, 150):
        seg_dir = str(root / f"partitions/p{lo:012d}")
        docs = np.arange(lo, lo + 150, dtype=np.int64)
        meta = invert_to_segment(docs, texts[lo : lo + 150], seg_dir)
        keep = ("doc_base", "n_docs", "sum_ttf", "n_terms")
        rows.append({k: meta[k] for k in keep} | {"seg_dir": seg_dir})
    manifest = finalize_build_manifest(str(root), rows)
    terms = sorted({t for r in rows for t in Segment(r["seg_dir"]).iter_terms()})
    return {"root": root, "manifest": manifest, "terms": terms, "clean": {}}


def _clean_merge(salted, **kw) -> dict:
    key = tuple(sorted(kw.items()))
    if key not in salted["clean"]:
        root = str(salted["root"] / f"clean-{len(salted['clean'])}")
        salted["clean"][key] = merge_by_term(salted["manifest"], root, **kw)
    return salted["clean"][key]


def _markers(units: str) -> dict[int, dict]:
    """Bucket id → its done-marker, for every marker under ``units``."""
    out = {}
    for f in os.listdir(units):
        if f.startswith("bucket-"):
            with open(os.path.join(units, f)) as fh:
                out[int(f[len("bucket-") : -len(".json")])] = json.load(fh)
    return out


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize(
    "crash", ["lost_buckets", "lost_heavy_shards", "half_final_heavy", "unswept_commit", "new_plan"]
)
def test_merge_by_term_resumes_per_bucket(salted, crash, tmp_path, monkeypatch):
    """Crash points of merge_by_term, each simulated on the files of a
    committed merge whose sweep did not run yet:

    - lost_buckets: the manifest is lost, 5 buckets lose marker and files,
      one more keeps its files but loses its marker, a stray ``*.tmp``;
    - lost_heavy_shards: the manifest and the heavy shards are lost, every
      bucket done (explode must not run);
    - half_final_heavy: the final heavy pass failed after half its chunks
      wrote their heavy shards: the manifest and the other heavy shards
      are missing, the written ones are orphans, and the failing chunk
      left a stray ``shard-heavy-*.arrow.tmp`` (explode must not run);
    - unswept_commit: the manifest committed but the sweep never ran;
    - new_plan: the manifest is lost and the rerun changes
      ``parts_per_shard`` and ``n_salts`` (merged/ starts over).

    The rerun must leave adopted bucket files untouched, equal a clean
    merge with its arguments term by term and query by query, and leave
    only the files its manifest names."""
    import engine.merge as merge_mod

    m = salted["manifest"]
    root = str(tmp_path / "idx")
    merged = os.path.join(root, "merged")
    units = os.path.join(merged, "units")
    # 128 buckets, not the derived count: the crash points need busy buckets
    kw = {"salt_threshold": 400, "n_salts": 4, "n_buckets": 128}
    with monkeypatch.context() as mp:
        mp.setattr(merge_mod, "_sweep_merged", lambda *_a: None)
        mm1 = merge_by_term(m, root, **kw)
    rows_of = {b: mk["rows"] for b, mk in _markers(units).items()}
    assert sorted(rows_of) == list(range(128))
    assert any(r["kind"] == "heavy_runs" for rows in rows_of.values() for r in rows)

    lost: set[int] = set()
    if crash != "unswept_commit":
        os.remove(os.path.join(merged, "manifest.json"))
    if crash == "lost_buckets":
        busy = [b for b in sorted(rows_of) if rows_of[b]]
        lost = set(busy[:6])
        for b in busy[:5]:
            for r in rows_of[b]:
                os.remove(r["path"])
        for b in lost:
            os.remove(os.path.join(units, f"bucket-{b:03d}.json"))
        with open(os.path.join(merged, "terms", "shard-0badc0ffee00.arrow.tmp"), "wb") as fh:
            fh.write(b"partial")
    elif crash == "lost_heavy_shards":
        for s in mm1["shards"]:
            if s["bucket"] < 0:
                os.remove(s["path"])
    elif crash == "half_final_heavy":
        heavy = [s["path"] for s in mm1["shards"] if s["bucket"] < 0]
        assert len(heavy) >= 2
        orphans = set(heavy[: len(heavy) // 2])
        for p in heavy[len(heavy) // 2 :]:
            os.remove(p)
        with open(os.path.join(merged, "terms", "shard-heavy-0badc0ffee00.arrow.tmp"), "wb") as fh:
            fh.write(b"partial")
    elif crash == "new_plan":
        kw = {"salt_threshold": 400, "n_salts": 2, "parts_per_shard": 2, "n_buckets": 128}
    adopted = {}
    if crash != "new_plan":
        for b, rows in rows_of.items():
            for r in rows:
                if b not in lost and r["kind"] == "shard":
                    with open(r["path"], "rb") as fh:
                        adopted[r["path"]] = (fh.read(), os.stat(r["path"]).st_mtime_ns)

    with monkeypatch.context() as mp:
        if crash in ("lost_heavy_shards", "half_final_heavy", "unswept_commit"):

            def _no_explode(*_a):  # nested, so Ray ships it by value
                raise AssertionError("explode ran although every bucket was done")

            mp.setattr(merge_mod, "_explode_chunk", _no_explode)
        mm2 = merge_by_term(m, root, **kw)

    if crash == "unswept_commit":
        assert mm2 == mm1
    if crash == "new_plan":
        assert len(mm2["norm_shards"]) == 4 and mm2["n_salts"] == 2
    for p, (data, mtime) in adopted.items():
        with open(p, "rb") as fh:
            assert fh.read() == data, p
        assert os.stat(p).st_mtime_ns == mtime, p
    assert set(adopted) <= {s["path"] for s in mm2["shards"]}
    if crash == "half_final_heavy":
        assert not orphans & {s["path"] for s in mm2["shards"]}

    ref = _clean_merge(salted, **kw)
    got, exp = MergedIndex(root), MergedIndex(None, manifest=ref)
    for t in salted["terms"]:
        assert got.term_stats(t) == exp.term_stats(t), t
        for a, b in zip(got.postings(t), exp.postings(t)):
            np.testing.assert_array_equal(a, b, err_msg=t)
        assert [p.tolist() for p in got.positions(t)] == [
            p.tolist() for p in exp.positions(t)
        ], t
    docs = np.arange(m["doc_count"], dtype=np.int64)
    np.testing.assert_array_equal(got.norm_of(docs), exp.norm_of(docs))
    for algorithm in ("taat", "wand"):
        s_got = IndexSearcher(mm2, algorithm=algorithm)
        s_exp = IndexSearcher(ref, algorithm=algorithm)
        for q in QUERIES:
            gd, gs = s_got.search(q, 20)
            ed, es = s_exp.search(q, 20)
            np.testing.assert_array_equal(gd, ed, err_msg=q)
            assert gs.dtype == es.dtype == np.float32, q
            np.testing.assert_array_equal(gs.view(np.uint32), es.view(np.uint32), err_msg=q)

    check_merged_index(MergedIndex(root))
    assert not os.path.exists(units)
    assert not os.path.exists(os.path.join(merged, "heavy_runs"))
    on_disk = {os.path.join(merged, "terms", f) for f in os.listdir(os.path.join(merged, "terms"))}
    assert on_disk == {r["path"] for r in mm2["shards"]}


@pytest.mark.usefixtures("ray_session")
def test_derived_plan_rerun_adopts_every_bucket(salted, tmp_path, monkeypatch):
    """Under the default (derived) bucket count the plan is a function of
    the build manifest alone, so a rerun after a lost manifest adopts every
    bucket, runs no explode and rewrites no shard. Each bucket marker
    records postings, output bytes and wall; the per-bucket postings sum to
    the index's postings total, and the manifest's ``buckets`` summary
    agrees with the markers."""
    import engine.merge as merge_mod

    m = salted["manifest"]
    root = str(tmp_path / "idx")
    merged = os.path.join(root, "merged")
    with monkeypatch.context() as mp:
        mp.setattr(merge_mod, "_sweep_merged", lambda *_a: None)
        mm1 = merge_by_term(m, root, salt_threshold=400, n_salts=4)
    n = merge_mod.derive_n_buckets(m["sum_ttf"])
    assert mm1["n_buckets"] == n and 1 < n < 128
    markers = _markers(os.path.join(merged, "units"))
    assert sorted(markers) == list(range(n))
    for mk in markers.values():
        assert mk["bytes"] == sum(os.path.getsize(r["path"]) for r in mk["rows"])
        assert mk["postings"] >= 0 and mk["wall_ms"] >= 0
    total = sum(int(row["df"]) for _, row in MergedIndex(None, manifest=mm1).iter_term_rows())
    postings = [mk["postings"] for mk in markers.values()]
    assert sum(postings) == total
    summary = mm1["buckets"]
    assert summary["count"] == n and summary["postings"] == total
    assert summary["postings_max"] == max(postings)
    assert summary["postings_median"] == float(np.median(postings))
    walls = [mk["wall_ms"] for mk in markers.values()]
    assert summary["wall_ms_max"] == max(walls)
    assert summary["wall_ms_p50"] <= summary["wall_ms_p99"] <= summary["wall_ms_max"]

    os.remove(os.path.join(merged, "manifest.json"))
    stamps = {
        r["path"]: os.stat(r["path"]).st_mtime_ns
        for mk in markers.values()
        for r in mk["rows"]
    }
    with monkeypatch.context() as mp:

        def _no_explode(*_a):  # nested, so Ray ships it by value
            raise AssertionError("explode ran although every bucket was done")

        mp.setattr(merge_mod, "_explode_chunk", _no_explode)
        mm2 = merge_by_term(m, root, salt_threshold=400, n_salts=4)
    assert mm2["n_buckets"] == n and mm2["buckets"] == summary
    light = {s["path"] for s in mm2["shards"] if s["bucket"] >= 0}
    assert light == {s["path"] for s in mm1["shards"] if s["bucket"] >= 0}
    for p in light:
        assert os.stat(p).st_mtime_ns == stamps[p], p
    check_merged_index(MergedIndex(root))


def test_derive_n_buckets():
    """The bucket count is ceil(sum_ttf / BUCKET_TOKENS) within
    [1, MAX_BUCKETS]: at least 1 for an empty or tiny corpus, 14 at the
    ~873k-token 4k-doc corpus and the 128 cap at the 200k-doc headline
    corpus (~218 tokens/doc, ~43.6M tokens)."""
    from engine.merge import MAX_BUCKETS, BUCKET_TOKENS, derive_n_buckets

    assert MAX_BUCKETS == 128
    assert derive_n_buckets(0) == derive_n_buckets(1) == 1
    assert derive_n_buckets(BUCKET_TOKENS) == 1
    assert derive_n_buckets(BUCKET_TOKENS + 1) == 2
    assert derive_n_buckets(873_000) == 14
    assert derive_n_buckets(200_000 * 218) == 128
    assert derive_n_buckets(10**12) == 128


def _norm_shard(tmp_path, lo: int, norms: list[int]) -> dict:
    """A norm shard file of docs lo.. with the given norms, as a manifest
    ``norm_shards`` row."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    path = str(tmp_path / f"norms-{lo:012d}.parquet")
    docs = np.arange(lo, lo + len(norms), dtype=np.int64)
    pq.write_table(pa.table({"doc_id": docs, "norm": pa.array(norms, pa.uint8())}), path)
    return {"doc_lo": lo, "doc_hi": lo + len(norms), "path": path}


def test_norm_store_keyed_by_shard_list(tmp_path):
    """A worker's norm store follows the shard list, not the index: after
    a parts_per_shard change rewrites norms-000000000000.parquet over a
    narrower doc range, the new list must read the new shards."""
    from engine.merge import _norm_store_for

    docs = np.arange(4, dtype=np.int64)
    wide = [_norm_shard(tmp_path, 0, [1, 2, 3, 4])]
    assert _norm_store_for(wide).norms_for(docs).tolist() == [1, 2, 3, 4]
    narrow = [_norm_shard(tmp_path, 0, [5, 6]), _norm_shard(tmp_path, 2, [7, 8])]
    assert _norm_store_for(narrow).norms_for(docs).tolist() == [5, 6, 7, 8]


def test_norm_store_cache_keeps_one_shard_list(tmp_path):
    """A worker keeps the norm store of its current shard list only: one
    that serves many merges must not hold every merge's norms."""
    import engine.merge as merge_mod

    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = merge_mod._norm_store_for([_norm_shard(tmp_path / "a", 0, [1, 2])])
    second = merge_mod._norm_store_for([_norm_shard(tmp_path / "b", 0, [3, 4])])
    assert second is not first
    assert list(merge_mod._NORM_STORES.values()) == [second]


def test_retry_idempotence_under_concurrent_write(tmp_path):
    # two "retries" writing the same partition: second is a no-op, content identical
    texts = ["a b c", "d e"]
    d1 = str(tmp_path / "p0")
    m1 = invert_to_segment(np.arange(2), texts, d1)
    m2 = invert_to_segment(np.arange(2), texts, d1)
    assert m1 == m2
    seg = Segment(d1)
    assert seg.term_stats("a") == (1, 1)


def test_resumable_parquet_sink_skips_finished_buckets(ray_session, tmp_path):
    """The data-sink resume contract: a second run skips every finished
    bucket (files untouched — same inode mtime), a deleted bucket is
    rebuilt byte-stably, and the read-back equals the input."""
    import os
    import time

    import pyarrow.parquet as pq
    import ray.data

    from engine.textops import resumable_write_parquet

    out = str(tmp_path / "sink")
    rows = [{"doc_id": i, "v": i * 3} for i in range(200)]
    m1 = resumable_write_parquet(ray.data.from_items(rows), out, n_buckets=6)
    st1 = dict(zip(m1.column("bucket").to_pylist(), m1.column("status").to_pylist()))
    assert set(st1.values()) == {"written"} and len(st1) == 6

    mtimes = {f: os.path.getmtime(os.path.join(out, f)) for f in os.listdir(out)}
    time.sleep(0.05)
    m2 = resumable_write_parquet(ray.data.from_items(rows), out, n_buckets=6)
    assert set(m2.column("status").to_pylist()) == {"skipped"}
    for f, t in mtimes.items():
        assert os.path.getmtime(os.path.join(out, f)) == t  # untouched

    # delete one bucket -> only it is rebuilt, byte-stable content
    victim = sorted(mtimes)[2]
    old_bytes = open(os.path.join(out, victim), "rb").read()
    os.remove(os.path.join(out, victim))
    m3 = resumable_write_parquet(ray.data.from_items(rows), out, n_buckets=6)
    st3 = dict(zip(m3.column("bucket").to_pylist(), m3.column("status").to_pylist()))
    assert list(st3.values()).count("written") == 1
    assert open(os.path.join(out, victim), "rb").read() == old_bytes

    back = pq.read_table(out + "/").to_pandas().sort_values("doc_id")
    assert list(back["doc_id"]) == list(range(200))
    assert list(back["v"]) == [i * 3 for i in range(200)]
