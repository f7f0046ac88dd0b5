"""merge_by_term, the salted groupby-term shuffle, must preserve every
posting and keep search rank-identical; its term-range dictionary, Bloom
sidecar, lazy norms and the post-commit sweep of the partitions it owns are
checked here. Resume at bucket granularity is in tests/test_resume.py."""

import os
import re

import numpy as np
import pytest

from engine.build import invert_to_segment
from engine.checkpoint import finalize_build_manifest
from engine.fixtures import make_pages
from engine.merge import MergedIndex, merge_by_term, owned_partitions
from engine.search import IndexSearcher
from engine.segment import Segment

N_DOCS = 1200
N_SEGS = 8

QUERIES = [
    "the00",
    "the19 the03",
    "t00000 t00123",
    "+t00000 +t00001",
    "tiekey",
    "s000300",
    '"the00 the01"',  # phrase: prox streams must survive the merge
    '"t00000 t00001"',
]


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    root = tmp_path_factory.mktemp("mergeidx")
    pages = make_pages(N_DOCS, seed=7)
    texts = pages.column("text").to_pylist()
    rows = []
    per = N_DOCS // N_SEGS
    for s in range(N_SEGS):
        lo, hi = s * per, (s + 1) * per if s < N_SEGS - 1 else N_DOCS
        seg_dir = str(root / f"partitions/p{lo:012d}")
        meta = invert_to_segment(np.arange(lo, hi, dtype=np.int64), texts[lo:hi], seg_dir)
        rows.append({k: meta[k] for k in ("doc_base", "n_docs", "sum_ttf", "n_terms", "wall_ms")} | {"seg_dir": seg_dir})
    manifest = finalize_build_manifest(str(root), rows)
    return {"root": str(root), "manifest": manifest}


def _file_stats(seg_dirs) -> dict:
    """(size, mtime_ns) of every file under ``seg_dirs``."""
    out = {}
    for d in seg_dirs:
        for f in os.listdir(d):
            st = os.stat(os.path.join(d, f))
            out[os.path.join(d, f)] = (st.st_size, st.st_mtime_ns)
    return out


def _all_postings(index_like, terms):
    return {t: tuple(map(tuple, map(np.ndarray.tolist, index_like.postings(t)))) for t in terms}


@pytest.mark.usefixtures("ray_session")
def test_merge_by_term_salted(built, tmp_path_factory):
    m = built["manifest"]
    root = str(tmp_path_factory.mktemp("bt"))
    sources = _file_stats(r["seg_dir"] for r in m["partitions"])
    # low threshold so the stop band (df 60-95% of 1200) is genuinely salted
    mm = merge_by_term(m, root, salt_threshold=400, n_salts=4)
    assert mm["kind"] == "merge-by-term"
    assert mm["n_heavy_terms"] >= 15  # the00..the19 band
    assert any("shard-heavy" in s["path"] for s in mm["shards"])
    # df-weighted range boundaries keep the buckets even in postings; a
    # cut by term count leaves them ~3x apart on this Zipf vocabulary
    assert mm["buckets"]["postings_max"] / mm["buckets"]["postings_median"] <= 1.5
    mi = MergedIndex(root)
    # every posting preserved for light, salted and singleton terms
    segs = [Segment(r["seg_dir"]) for r in m["partitions"]]
    for t in ["the00", "the19", "t00000", "t00777", "tiekey", "s000300"]:
        exp_docs = np.concatenate([s.postings(t)[0] for s in segs])
        exp_freqs = np.concatenate([s.postings(t)[1] for s in segs])
        got_docs, got_freqs = mi.postings(t)
        np.testing.assert_array_equal(got_docs, exp_docs, err_msg=t)
        np.testing.assert_array_equal(got_freqs, exp_freqs, err_msg=t)
    # term count conservation
    all_terms = set()
    for s in segs:
        all_terms.update(s.iter_terms())
    assert sum(sh["n_terms"] for sh in mm["shards"]) == len(all_terms)
    # rank identity through the searcher on the merged-by-term index
    base = IndexSearcher(m, algorithm="taat")
    merged = IndexSearcher(mm, algorithm="taat")
    merged_wand = IndexSearcher(mm, algorithm="wand")
    for q in QUERIES:
        bd, bs = base.search(q, 20)
        md, ms = merged.search(q, 20)
        wd, ws = merged_wand.search(q, 20)
        np.testing.assert_array_equal(md, bd, err_msg=q)
        np.testing.assert_array_equal(ms, bs, err_msg=q)
        np.testing.assert_array_equal(wd, bd, err_msg=q)
        np.testing.assert_array_equal(ws, bs, err_msg=q)
    # resume: second call returns the committed manifest untouched
    assert merge_by_term(m, root) == mm
    # a committed manifest of an older layout is merged again, not adopted
    from engine.checkindex import check_merged_index
    from engine.checkpoint import commit_merge_manifest

    commit_merge_manifest(root, dict(mm, version=1))
    redone = merge_by_term(m, root, salt_threshold=400, n_salts=4)
    assert redone["version"] == mm["version"] and redone["shards"] != mm["shards"]
    # the partitions live outside root: the merges own none of them, and
    # their files are untouched
    assert owned_partitions(m, root) == []
    check_merged_index(MergedIndex(root), owned_partitions(m, root))
    assert _file_stats(r["seg_dir"] for r in m["partitions"]) == sources


@pytest.mark.usefixtures("ray_session")
def test_merged_rows_are_canonical_and_markers_count_terms(built, tmp_path_factory, monkeypatch):
    """Every row of every merged shard equals the per-term reference
    encoding of its decoded postings and norms. Every row of every salted
    run holds its term's merged postings inside its salt's partition doc
    range, not encoded, with their norms, and each run is sorted by
    (term, salt). The bucket markers' term counts add up to the light
    shards' terms plus the run rows (the post-commit sweep is disabled to
    keep the markers and runs)."""
    import json

    import pyarrow as pa

    import engine.merge as merge_mod
    from test_codec import assert_rows_canonical

    monkeypatch.setattr(merge_mod, "_sweep_merged", lambda *_a: None)
    root = str(tmp_path_factory.mktemp("canon"))
    n_salts = 4
    mm = merge_by_term(built["manifest"], root, salt_threshold=400, n_salts=n_salts)
    mi = MergedIndex(root)
    rows = [row for _p, row in mi.iter_term_rows()]
    assert assert_rows_canonical(rows, mi.norm_of) == sum(s["n_terms"] for s in mm["shards"])
    units = os.path.join(root, "merged", "units")
    markers = [
        json.load(open(os.path.join(units, f))) for f in sorted(os.listdir(units)) if f.startswith("bucket-")
    ]
    assert len(markers) == mm["n_buckets"]
    runs = [r["path"] for mk in markers for r in mk["rows"] if r["kind"] == "heavy_runs"]
    assert runs
    # salt s covers the partitions of rank [s * per, (s + 1) * per)
    parts = sorted(built["manifest"]["partitions"], key=lambda r: r["doc_base"])
    per = -(-len(parts) // n_salts)
    bounds = [r["doc_base"] for r in parts[::per]] + [parts[-1]["doc_base"] + parts[-1]["n_docs"]]
    n_run_rows = 0
    for p in runs:
        with pa.memory_map(p) as src:
            run = pa.ipc.open_file(src).read_all()
        assert run.schema.field("norms").type == pa.list_(pa.uint8())
        keys = list(zip(run.column("term").to_pylist(), run.column("salt").to_pylist()))
        assert keys == sorted(keys) and len(set(keys)) == len(keys), p
        for row in run.to_pylist():
            lo, hi = bounds[row["salt"]], bounds[row["salt"] + 1]
            docs, freqs = mi.postings(row["term"])
            inside = (docs >= lo) & (docs < hi)
            assert row["docs"] == docs[inside].tolist(), (row["term"], row["salt"])
            assert row["freqs"] == freqs[inside].tolist(), (row["term"], row["salt"])
            assert row["norms"] == mi.norm_of(docs[inside]).tolist(), (row["term"], row["salt"])
            n_run_rows += 1
    light_terms = sum(s["n_terms"] for s in mm["shards"] if s["bucket"] >= 0)
    assert sum(mk["terms"] for mk in markers) == light_terms + n_run_rows
    assert mm["buckets"]["terms_max"] == max(mk["terms"] for mk in markers)
    assert mm["buckets"]["terms_median"] == float(np.median([mk["terms"] for mk in markers]))


# (term, doc_base, docs, freqs, positions per posting or None)
_SPEC = [
    ("a", 0, [5, 8], [2, 1], [[1, 4], [0]]),
    ("a", 10, [10], [3], [[2, 5, 9]]),
    ("b", 0, [1, 2, 3], [1, 1, 2], [[0], [3], [1, 2]]),
    ("b", 10, [11], [1], [[4]]),
    ("c", 0, [6], [1], [[7]]),
    ("c", 10, [12, 13], [1, 1], None),
]
_MERGED = {"a": ([5, 8, 10], [2, 1, 3]), "b": ([1, 2, 3, 11], [1, 1, 2, 1]), "c": ([6, 12, 13], [1, 1, 1])}


_NORMS = (np.arange(16) % 7).astype(np.uint8)  # doc d's norm byte is d % 7


def _shuffle_batch(salts):
    """``_SPEC`` as (term, salt, doc_base)-sorted shuffle rows with the
    given salt per row, and each row's position stream."""
    import pyarrow as pa

    from engine.codec import encode_positions, encode_terms

    docs = np.concatenate([r[2] for r in _SPEC])
    freqs = np.concatenate([r[3] for r in _SPEC])
    lens = np.array([len(r[2]) for r in _SPEC])
    cols = encode_terms(docs, freqs, docs % 7, np.cumsum(lens) - lens, np.cumsum(lens))
    pos = [
        encode_positions(np.concatenate([np.array(p) for p in r[4]]), np.array(r[3])) if r[4] else b""
        for r in _SPEC
    ]
    batch = pa.table(
        {
            "term": [r[0] for r in _SPEC],
            **{k: cols[k] for k in ("df", "ttf", "singleton_doc", "blob", "offsets")},
            "pos_blob": pa.array(pos, type=pa.binary()),
            "off_blob": pa.array([b""] * len(_SPEC), type=pa.binary()),
            "pay_blob": pa.array([b""] * len(_SPEC), type=pa.binary()),
            "salt": pa.array(salts, type=pa.int32()),
            "doc_base": [r[1] for r in _SPEC],
        }
    )
    return batch, pos


def _assert_merged(tbl, pos):
    """``tbl`` holds one encoded row per ``_MERGED`` term, equal to the
    per-term reference, with the rows' position streams joined."""
    from engine.segment import TERMS_SCHEMA
    from test_codec import expected_row

    assert tbl.schema == TERMS_SCHEMA
    got = {r["term"]: r for r in tbl.to_pylist()}
    assert list(got) == ["a", "b", "c"]
    for t, (d, f) in _MERGED.items():
        d, f = np.array(d), np.array(f)
        exp = expected_row(d, f, (d % 7).astype(np.uint8))
        assert {k: got[t][k] for k in exp} == exp, t
    assert got["a"]["pos_blob"] == pos[0] + pos[1]
    assert got["b"]["pos_blob"] == pos[2] + pos[3]
    assert got["c"]["pos_blob"] == b""
    assert (got["a"]["off_blob"], got["a"]["pay_blob"]) == (b"", b"")


def test_merge_sorted_batch_groups():
    """``_merge_sorted_batch`` over hand-made shuffle rows: each group
    joins its rows' postings and streams as they are; a group with a row
    lacking positions gets none; each group's encoded row equals the
    per-term reference; a group whose rows interleave in doc order
    raises, naming its term."""
    import pyarrow as pa

    from engine.merge import _merge_sorted_batch

    batch, pos = _shuffle_batch([-1] * len(_SPEC))
    _assert_merged(_merge_sorted_batch(batch, _NORMS, 0).table(), pos)

    # rows of "b" whose doc ranges interleave (1..3 and 2) cannot merge
    bad = batch.slice(2, 2).combine_chunks()
    bad = bad.set_column(
        bad.schema.get_field_index("singleton_doc"), "singleton_doc", pa.array([-1, 2], type=pa.int64())
    )
    with pytest.raises(ValueError, match="'b'"):
        _merge_sorted_batch(bad, _NORMS, 0)


def test_join_runs_concatenates_salted_runs():
    """The final heavy pass's join: the merged (term, salt) groups of a
    bucket, written as heavy-run rows in any row order, join into one
    group per term whose encoded row equals what merging all its rows at
    once gives; runs of a term whose docs interleave raise, naming it."""
    import pyarrow as pa

    from engine.merge import _join_runs, _merge_sorted_batch

    batch, pos = _shuffle_batch([0, 1] * (len(_SPEC) // 2))
    groups = _merge_sorted_batch(batch, _NORMS, 0)
    runs = groups.run(np.ones(len(_SPEC), dtype=bool))
    assert runs.column("docs").to_pylist() == [r[2] for r in _SPEC]
    assert runs.column("norms").to_pylist() == [[d % 7 for d in r[2]] for r in _SPEC]
    _assert_merged(_join_runs(runs.take(pa.array(np.arange(len(_SPEC))[::-1]))).table(), pos)

    # salt 1 of "b" holds doc 2, inside salt 0's 1..3
    docs = runs.column("docs").to_pylist()
    docs[3] = [2]
    bad = runs.set_column(runs.schema.get_field_index("docs"), "docs", pa.array(docs, runs.schema.field("docs").type))
    with pytest.raises(ValueError, match="'b'"):
        _join_runs(bad)


@pytest.mark.usefixtures("ray_session")
def test_sorted_dictionary_level(built, tmp_path_factory):
    """The merged index's dictionary (BlockTreeTermsWriter.java:200-217
    role) is its light shards in term order, heavy terms merged in:
    disjoint sorted ranges; prefix/range/fuzzy expansion reads ONLY
    overlapping shards, and the cap keeps the lexicographically-first
    terms deterministically."""
    m = built["manifest"]
    root = str(tmp_path_factory.mktemp("dictlvl"))
    mm = merge_by_term(m, root, salt_threshold=400, n_salts=4)
    mi = MergedIndex(root)
    ranges = mi.dict_ranges()
    light = [s for s in mm["shards"] if s["bucket"] >= 0]
    assert len(ranges) == len(light) > 1, "fixture needs several light shards"
    # disjoint + sorted ranges covering every term exactly once
    bounds = [(lo, hi) for lo, hi, _ in ranges]
    assert bounds == sorted(bounds)
    for (_, hi_a), (lo_b, _) in zip(bounds, bounds[1:]):
        assert hi_a < lo_b
    assert sum(len(load()) for _, _, load in ranges) == sum(s["n_terms"] for s in mm["shards"])
    segs = [Segment(r["seg_dir"]) for r in m["partitions"]]
    all_terms = sorted({t for s in segs for t in s.iter_terms()})

    # expansion correctness + deterministic lexicographic cap
    exp = [t for t in all_terms if t.startswith("the0")]
    assert mi.expand_prefix("the0", 1024) == exp
    assert mi.expand_prefix("the0", 3) == exp[:3]
    lo, hi = "t00100", "t00200"
    exp_r = [t for t in all_terms if lo <= t <= hi]
    assert mi.expand_range(lo, hi, 1024) == exp_r
    assert mi.expand_range(lo, hi, 5) == exp_r[:5]

    # pruned I/O: only shards whose range overlaps the prefix interval are read
    import engine.merge as merge_mod

    reads = []
    orig = merge_mod.read_term_shard

    def counting_read(path, *a, **kw):
        reads.append(str(path))
        return orig(path, *a, **kw)

    merge_mod.read_term_shard = counting_read
    try:
        mi2 = MergedIndex(root)
        reads.clear()
        mi2.expand_prefix("the0", 1024)
    finally:
        merge_mod.read_term_shard = orig
    overlapping = [
        s["path"]
        for (tmin, tmax, _), s in zip(ranges, sorted(light, key=lambda s: s["term_min"]))
        if not (tmax < "the0" or tmin > "the0" + chr(0x10FFFF))
    ]
    assert reads and set(reads) <= set(overlapping)
    assert len(reads) < len(light)

    # fuzzy expansion enumerates via pruned range reads and matches a scan
    from engine.search import FUZZY_DICT_STATS, _fuzzy_expand

    got = _fuzzy_expand(mi, "the00", 1, 50)
    exp_f = [t for t in all_terms if _ed_le(t, "the00", 1)][:50]
    assert sorted(got) == sorted(exp_f)
    # automaton-style shard seek: only ranges whose term-range
    # Levenshtein lower bound admits a match are read (FuzzyQuery.java:247
    # / LevenshteinAutomata.java:33 at file granularity)
    assert 0 < FUZZY_DICT_STATS["files_read"] < FUZZY_DICT_STATS["files_total"]
    # the range bound is admissible: every skipped range truly has no match
    from engine.search import _lev_range_lower_bound

    for tmin, tmax, load_terms in ranges:
        if _lev_range_lower_bound("the00", tmin, tmax) > 1:
            assert not any(_ed_le(t, "the00", 1) for t in load_terms())


def _ed_le(a, b, k):
    from engine.search import _edit_distance_le

    return _edit_distance_le(a, b, k)


@pytest.mark.usefixtures("ray_session")
def test_checkindex_validates_dict_level(built, tmp_path_factory):
    from engine.checkindex import check_merged_index

    root = str(tmp_path_factory.mktemp("cidict"))
    mm = merge_by_term(built["manifest"], root, salt_threshold=400, n_salts=4)
    out = check_merged_index(MergedIndex(root), owned_partitions(built["manifest"], root))
    assert out["ok"] and out["n_terms"] == sum(s["n_terms"] for s in mm["shards"])


@pytest.mark.usefixtures("ray_session")
def test_checkindex_checks_norms(built, tmp_path_factory):
    """``check_merged_index`` fails on a norms file one byte short of the
    span, on a missing one, and on a second ``norms*`` file or a ``*.tmp``
    left in ``merged/``."""
    import shutil

    from engine.checkindex import check_merged_index

    root = str(tmp_path_factory.mktemp("cinorms"))
    mm = merge_by_term(built["manifest"], root, salt_threshold=400, n_salts=4)
    path = mm["norms"]["path"]
    check_merged_index(MergedIndex(root))
    shutil.copy(path, path + ".keep")  # itself a stray file, until put back
    with open(path, "r+b") as fh:
        fh.truncate(os.path.getsize(path) - 1)
    with pytest.raises(AssertionError, match="bytes for a span"):
        check_merged_index(MergedIndex(root))
    mi = MergedIndex(root)  # its map outlives the file
    os.remove(path)
    with pytest.raises(AssertionError, match="norms file missing"):
        check_merged_index(mi)
    os.replace(path + ".keep", path)
    check_merged_index(MergedIndex(root))
    for stray in ("norms-0badc0ffee00.u8", "bloom.bin.tmp"):
        open(os.path.join(root, "merged", stray), "wb").close()
        with pytest.raises(AssertionError, match=re.escape(stray)):
            check_merged_index(MergedIndex(root))
        os.remove(os.path.join(root, "merged", stray))


@pytest.mark.usefixtures("ray_session")
def test_merged_index_norms_lazy(built, tmp_path_factory):
    """Opening a MergedIndex maps the manifest's one norms file and
    copies none of it: its norms are a read-only ndarray view of a
    ``np.memmap`` of that file, one byte per doc of the span, so a lookup
    pages in only what it touches (the per-leaf mmap'd norms role,
    Lucene80NormsFormat.java:30-78). Unsorted lookups across every
    partition boundary read the source segments' norms, and search is
    bit-identical to the segment searcher."""
    m = built["manifest"]
    root = str(tmp_path_factory.mktemp("lazynorms"))
    mm = merge_by_term(m, root, salt_threshold=400, n_salts=4)
    mi = MergedIndex(root)
    assert isinstance(mi._norms.base, np.memmap) and type(mi._norms) is np.ndarray
    assert os.path.samefile(mi._norms.base.filename, mm["norms"]["path"])
    assert not mi._norms.flags.owndata and not mi._norms.flags.writeable
    assert len(mi._norms) == mi.norm_span == m["doc_count"]

    segs = [Segment(r["seg_dir"]) for r in m["partitions"]]
    all_docs = np.arange(m["doc_count"], dtype=np.int64)
    rng = np.random.default_rng(3)
    probe = rng.permutation(all_docs)[:500]  # unsorted, spans partitions
    exp = np.concatenate([s._norms for s in segs])[probe]
    np.testing.assert_array_equal(mi.norm_of(probe), exp)
    # search results bit-identical to the segment searcher
    base = IndexSearcher(m, algorithm="taat")
    merged = IndexSearcher(mm, algorithm="taat")
    for q in QUERIES:
        bd, bs = base.search(q, 20)
        md, ms = merged.search(q, 20)
        np.testing.assert_array_equal(md, bd, err_msg=q)
        np.testing.assert_array_equal(ms, bs, err_msg=q)


@pytest.mark.usefixtures("ray_session")
def test_merged_norms_dense_from_first_lookup(built, tmp_path_factory):
    """The norms file is dense from the first lookup: its bytes are the
    partitions' ``norms.u8`` files laid end to end over [doc_lo, doc_hi),
    and the first ``norm_of``, an unsorted probe and the whole span all
    gather them from the mapped array."""
    m = built["manifest"]
    root = str(tmp_path_factory.mktemp("densenorms"))
    mm = merge_by_term(m, root, salt_threshold=400, n_salts=4)
    assert (mm["norms"]["doc_lo"], mm["norms"]["doc_hi"]) == (0, m["doc_count"])
    parts = b""
    for r in sorted(m["partitions"], key=lambda r: r["doc_base"]):
        with open(os.path.join(r["seg_dir"], "norms.u8"), "rb") as fh:
            parts += fh.read()
    with open(mm["norms"]["path"], "rb") as fh:
        assert fh.read() == parts
    dense = np.frombuffer(parts, dtype=np.uint8)
    mi = MergedIndex(root)
    first = np.array([3, 4], dtype=np.int64)
    np.testing.assert_array_equal(mi.norm_of(first), dense[first])
    probe = np.random.default_rng(5).permutation(m["doc_count"])[:400]
    np.testing.assert_array_equal(mi.norm_of(probe), dense[probe])
    np.testing.assert_array_equal(mi.norm_of(np.arange(m["doc_count"])), dense)
    assert mi.norm_of(np.empty(0, dtype=np.int64)).dtype == np.uint8


@pytest.mark.usefixtures("ray_session")
def test_norms_across_a_doc_id_gap(tmp_path):
    """A corpus whose doc ids skip 200..299 between two partitions, and a
    partition with a gap inside: every doc's norm, through ``Segment`` and
    through ``MergedIndex``, is ``analyze.compute_norms`` of its length,
    and a gap doc reads 0. Search over the merged index equals
    ``bm25.brute_force_topk`` over those norms. A merge refuses the
    partition whose doc ids are not contiguous."""
    from engine.analyze import analyze_batch, compute_norms
    from engine.bm25 import brute_force_topk, make_term_scorer
    from engine.queryparse import parse_query

    texts = make_pages(500, seed=23).column("text").to_pylist()
    ranges = [(0, 200), (300, 600)]
    root = str(tmp_path / "idx")
    rows = []
    for lo, hi in ranges:
        seg_dir = os.path.join(root, "partitions", f"p{lo:012d}")
        docs = np.arange(lo, hi, dtype=np.int64)
        meta = invert_to_segment(docs, texts[: hi - lo] if lo == 0 else texts[200:], seg_dir)
        rows.append({k: meta[k] for k in ("doc_base", "n_docs", "sum_ttf", "n_terms")} | {"seg_dir": seg_dir})
    m = finalize_build_manifest(root, rows)
    _, lengths = analyze_batch(texts)
    norms = np.zeros(600, dtype=np.uint8)  # global doc id -> norm, 0 in the gap
    doc_ids = np.concatenate([np.arange(lo, hi) for lo, hi in ranges])
    norms[doc_ids] = compute_norms(lengths)
    for r in rows:
        seg = Segment(r["seg_dir"])
        docs = np.arange(r["doc_base"], r["doc_base"] + r["n_docs"])
        np.testing.assert_array_equal(seg.norm_of(docs), norms[docs])

    merge_root = str(tmp_path / "merged-idx")
    mm = merge_by_term(m, merge_root, salt_threshold=150, n_salts=2)
    mi = MergedIndex(merge_root)
    assert (mi.doc_base, mi.max_doc, mi.n_docs) == (0, 600, 500)
    np.testing.assert_array_equal(mi.norm_of(np.arange(600)), norms)

    from engine.checkindex import check_merged_index

    check_merged_index(mi)
    searcher = IndexSearcher(mm, algorithm="taat")
    for q in ("the00", "t00000 t00001", "the03 t00002 t00009", "s000350"):
        terms = [t for t in parse_query(q).should if mi.term_stats(t)[0]]
        tp = [mi.postings(t) for t in terms]
        params = [make_term_scorer(mi.term_stats(t)[0], 500, m["sum_ttf"]) for t in terms]
        ed, es = brute_force_topk(tp, params, norms, 10) if tp else (np.empty(0), np.empty(0))
        gd, gs = searcher.search(q, 10)
        np.testing.assert_array_equal(gd, ed, err_msg=q)
        np.testing.assert_array_equal(gs.view(np.uint32), np.asarray(es, np.float32).view(np.uint32), err_msg=q)

    # a gap inside one partition: the segment scatters, the merge refuses
    gap_dir = os.path.join(str(tmp_path), "gap", "p000000000000")
    docs = np.concatenate([np.arange(0, 10), np.arange(15, 20)]).astype(np.int64)
    meta = invert_to_segment(docs, texts[:15], gap_dir)
    seg = Segment(gap_dir)
    assert (seg.doc_base, seg.max_doc) == (0, 20)
    _, gap_lengths = analyze_batch(texts[:15])
    exp = np.zeros(20, dtype=np.uint8)
    exp[docs] = compute_norms(gap_lengths)
    np.testing.assert_array_equal(seg.norm_of(np.arange(20)), exp)
    gap_root = os.path.join(str(tmp_path), "gap")
    gm = finalize_build_manifest(
        gap_root,
        [{k: meta[k] for k in ("doc_base", "n_docs", "sum_ttf", "n_terms")} | {"seg_dir": gap_dir}],
    )
    with pytest.raises(ValueError, match="contiguous"):
        merge_by_term(gm, str(tmp_path / "gap-merged"))


def test_zero_doc_partition_opens(tmp_path):
    """A partition of no docs writes a 0-byte norms file (which
    ``np.memmap`` refuses to map) and opens as an empty segment."""
    from engine.checkindex import check_segment

    seg_dir = str(tmp_path / "p000000000000")
    invert_to_segment(np.empty(0, dtype=np.int64), [], seg_dir)
    assert os.path.getsize(os.path.join(seg_dir, "norms.u8")) == 0
    seg = Segment(seg_dir)
    assert seg.norm_span == 0 and seg.n_docs == 0
    assert seg.norm_of(np.empty(0, dtype=np.int64)).dtype == np.uint8
    assert seg.term_stats("the00") == (0, 0) and list(seg.iter_terms()) == []
    check_segment(seg)


@pytest.mark.usefixtures("ray_session")
def test_merge_of_an_empty_build_manifest_raises(tmp_path):
    """A build manifest with no partitions: ``merge_by_term`` raises a
    ValueError naming the index dir before it writes anything, so no
    ``merged/`` dir (plan, norms ``.tmp``) is left behind."""
    root = str(tmp_path / "idx")
    os.makedirs(root)
    m = finalize_build_manifest(root, [])
    assert m["partitions"] == [] and m["doc_count"] == 0
    with pytest.raises(ValueError, match=re.escape(root) + ".*no partitions"):
        merge_by_term(m, root)
    assert not os.path.exists(os.path.join(root, "merged"))


@pytest.mark.usefixtures("ray_session")
def test_offsets_survive_merge_by_term(tmp_path_factory):
    """Offsets streams (..._AND_OFFSETS) must byte-concatenate correctly
    through the salted groupby-term shuffle: every merged (start, end)
    span still slices its term from the source doc."""
    import numpy as np

    from engine.checkindex import check_merged_index

    root = tmp_path_factory.mktemp("offmerge")
    pages = make_pages(400, seed=23)
    texts = pages.column("text").to_pylist()
    rows = []
    for s in range(4):
        lo, hi = s * 100, (s + 1) * 100
        seg_dir = str(root / f"partitions/p{lo:012d}")
        meta = invert_to_segment(
            np.arange(lo, hi, dtype=np.int64),
            texts[lo:hi],
            seg_dir,
            index_offsets=True,
        )
        rows.append(
            {k: meta[k] for k in ("doc_base", "n_docs", "sum_ttf", "n_terms", "wall_ms")}
            | {"seg_dir": seg_dir}
        )
    manifest = finalize_build_manifest(str(root), rows)

    def check_spans(reader, terms):
        for term in terms:
            off = reader.offsets(term)
            assert off is not None, term
            docs, freqs = reader.postings(term)
            s_lists, e_lists = off
            assert len(s_lists) == len(docs)
            for d, f, sl, el in zip(docs, freqs, s_lists, e_lists):
                assert len(sl) == f, term
                low = texts[int(d)].lower()
                for a, b in zip(sl.tolist(), el.tolist()):
                    assert low[a:b] == term, (term, int(d))

    probe = ["the00", "the19", "t00000", "tiekey"]
    # the00 band genuinely salted
    root_b = str(tmp_path_factory.mktemp("offmergeb"))
    merge_by_term(manifest, root_b, salt_threshold=150, n_salts=4)
    mi = MergedIndex(root_b)
    check_merged_index(mi, owned_partitions(manifest, root_b))
    check_spans(mi, probe)


def test_offsets_highlighter_fragments():
    """make_snippet_offsets renders original-text fragments around index
    spans — punctuation preserved, all in-window matches marked."""
    from engine.textops import make_snippet_offsets

    text = "Alpha, beta! GAMMA delta; alpha again (beta)."
    # spans of 'alpha' and 'beta' occurrences in lowercased text
    spans = [(0, 5), (7, 11), (26, 31), (39, 43)]
    snip = make_snippet_offsets(text, spans, pad=12, max_fragments=2)
    assert "**Alpha**" in snip and "**beta**" in snip
    assert "GAMMA" in snip  # original casing/punctuation preserved
    # no-span fallback: leading text
    assert make_snippet_offsets(text, [], pad=5) == text[:10]


def test_analyze_offsets_consistent_with_positions():
    from engine.analyze import (
        Analyzer,
        analyze_batch_with_offsets,
        analyze_batch_with_positions,
    )

    texts = ["The quick? brown fox", "", "a " + "x" * 300 + " b"]
    an = Analyzer(stopwords=frozenset({"the"}))
    f1, l1, p1 = analyze_batch_with_positions(texts, an)
    f2, l2, p2, s2, e2 = analyze_batch_with_offsets(texts, an)
    assert f1 == f2 and l1.tolist() == l2.tolist() and p1.tolist() == p2.tolist()
    # spans slice the tokens out of the lowered text
    i = 0
    for t, ln in zip(texts, l2):
        low = t.lower()
        for _ in range(int(ln)):
            assert low[s2[i] : e2[i]] == f2[i]
            i += 1


@pytest.mark.usefixtures("ray_session")
def test_compute_heavy_terms_distributed_tail(built):
    """Above max_driver_rows the candidate sum finishes as a Dataset
    groupby (the driver sees only the heavy set); the result must equal
    the driver-side path exactly."""
    from engine.merge import compute_heavy_terms

    dirs = [r["seg_dir"] for r in built["manifest"]["partitions"]]
    local, bnd = compute_heavy_terms(dirs, salt_threshold=400, n_buckets=4)
    dist, bnd_d = compute_heavy_terms(dirs, salt_threshold=400, max_driver_rows=1, n_buckets=4)
    assert local == dist and bnd == bnd_d
    assert len(local) >= 15  # the00..the19 stop band
    assert len(bnd) == 3 and bnd == sorted(bnd)


def test_bloom_sidecar(built, tmp_path_factory):
    """BloomFilteringPostingsFormat role: the merged dictionary's Bloom
    sidecar proves definite misses with zero shard-file reads, never
    false-negatives an indexed term, and survives reopen from disk."""
    m = built["manifest"]
    root = str(tmp_path_factory.mktemp("bloom"))
    mm = merge_by_term(m, root, salt_threshold=400, n_salts=4)
    assert mm["bloom"] is not None and mm["bloom"]["k"] == 1
    assert os.path.getsize(mm["bloom"]["path"]) == mm["bloom"]["m"] // 8

    mi = MergedIndex(root)
    # no false negatives: every indexed term passes the bloom
    segs = [Segment(r["seg_dir"]) for r in m["partitions"]]
    all_terms = set()
    for s in segs:
        all_terms.update(s.iter_terms())
    for t in all_terms:
        assert not mi._bloom_definite_miss(t), t
    # a definite miss answers (0, 0) without loading ANY shard table
    assert len(mi._tables) == 0
    n_skipped = 0
    for probe in (f"zz-absent-{i}" for i in range(50)):
        if mi._bloom_definite_miss(probe):
            n_skipped += 1
            assert mi.term_stats(probe) == (0, 0)
    assert len(mi._tables) == 0  # bloom-proved misses read nothing
    assert n_skipped >= 40  # ~10% FPR at 10 bits/term, 1 hash
    # present terms still resolve identically through the bloom path
    seg_df = {}
    for t in ["the00", "t00000", "tiekey"]:
        df = sum(s.term_stats(t)[0] for s in segs)
        ttf = sum(s.term_stats(t)[1] for s in segs)
        assert mi.term_stats(t) == (df, ttf), t


@pytest.mark.usefixtures("ray_session")
def test_merge_sweeps_the_partitions_it_owns(tmp_path, monkeypatch):
    """A merge into the root its partitions live in deletes each
    partition's terms and norms files once its manifest commits; meta.json
    and docvalues.parquet stay.

    - A crash between the commit and the partition sweep (here the sweep
      raises, then a cut sweep leaves one file gone): the rerun returns the
      committed manifest and finishes the sweep, and the merged index
      answers as the partitions did.
    - A committed manifest of an older version over swept partitions:
      merging again raises a FileNotFoundError naming the index dir and the
      first missing file, and merged/ stays byte for byte."""
    import pyarrow as pa

    import engine.merge as merge_mod
    from engine.checkindex import check_merged_index
    from engine.checkpoint import commit_merge_manifest, load_merge_manifest

    root = str(tmp_path / "idx")
    texts = make_pages(600, seed=19).column("text").to_pylist()
    rows = []
    for lo in range(0, 600, 200):
        seg_dir = os.path.join(root, "partitions", f"p{lo:012d}")
        docs = np.arange(lo, lo + 200, dtype=np.int64)
        dv = pa.table({"doc_id": docs, "n": docs * 2})
        meta = invert_to_segment(docs, texts[lo : lo + 200], seg_dir, doc_values=dv)
        keep = ("doc_base", "n_docs", "sum_ttf", "n_terms")
        rows.append({k: meta[k] for k in keep} | {"seg_dir": seg_dir})
    m = finalize_build_manifest(root, rows)
    owned = owned_partitions(m, root)
    assert owned == [r["seg_dir"] for r in rows]

    def _crash(*_a):
        raise RuntimeError("crash between commit and sweep")

    with monkeypatch.context() as mp:
        mp.setattr(merge_mod, "_sweep_merged", _crash)
        with pytest.raises(RuntimeError, match="between commit and sweep"):
            merge_by_term(m, root, salt_threshold=150, n_salts=4)
    committed = load_merge_manifest(root)
    assert committed is not None
    base = IndexSearcher(m, algorithm="taat")
    expected = {q: base.search(q, 20) for q in QUERIES}
    os.remove(os.path.join(owned[1], "norms.u8"))  # a sweep cut midway

    assert merge_by_term(m, root, salt_threshold=150, n_salts=4) == committed
    check_merged_index(MergedIndex(root), owned)
    for d in owned:
        assert sorted(os.listdir(d)) == ["docvalues.parquet", "meta.json"], d
    merged = IndexSearcher(committed, algorithm="taat")
    for q, (bd, bs) in expected.items():
        md, ms = merged.search(q, 20)
        np.testing.assert_array_equal(md, bd, err_msg=q)
        np.testing.assert_array_equal(ms.view(np.uint32), bs.view(np.uint32), err_msg=q)

    commit_merge_manifest(root, dict(committed, version=1))
    merged_dir = os.path.join(root, "merged")

    def _tree() -> dict:
        out = {}
        for d, _, files in os.walk(merged_dir):
            for f in files:
                with open(os.path.join(d, f), "rb") as fh:
                    out[os.path.join(d, f)] = fh.read()
        return out

    before = _tree()
    missing = os.path.join(owned[0], "terms.arrow")
    with pytest.raises(FileNotFoundError, match=re.escape(root) + ".*" + re.escape(missing)):
        merge_by_term(m, root, salt_threshold=150, n_salts=4)
    assert _tree() == before
