"""The postings readers agree on one corpus.

A flushed partition ``Segment``, the ``MergedIndex`` that ``merge_by_term``
writes over the same partitions, and the merged index's ``DocRangeView``
over each partition's doc range must answer every reader call identically:
the merged answer equals the partition answers concatenated in doc order
(postings and the per-occurrence streams) or unioned (dictionary scans),
and each view equals its partition (stats stay global)."""

import os

import numpy as np
import pyarrow as pa
import pytest

from engine.build import invert_to_segment
from engine.checkpoint import finalize_build_manifest
from engine.fixtures import make_pages
from engine.merge import DocRangeView, MergedIndex, merge_by_term
from engine.segment import TERMS_SCHEMA, Segment, TermShard, read_term_shard, write_term_shard

N_DOCS = 600
N_PARTS = 4
BLOCK = 128  # codec block size: the heavy probe term must span > 1 block

PREFIXES = [("t0", 1024), ("t0", 7), ("the", 1024), ("", 50), ("zzz", 10)]
RANGES = [("t00100", "t00200", 1024), ("t00100", "t00200", 5), ("a", "m", 20), ("zz", "zzz", 10)]
SUFFIXES = [("00", 1024), ("00", 6), ("er", 1024), ("zzz", 10)]


def _payload_text(text: str, di: int) -> str:
    """Every third word carries a ``|n`` payload (DelimitedPayload input)."""
    return " ".join(
        f"{w}|{(di + j) % 9}" if j % 3 == 0 else w for j, w in enumerate(text.split())
    )


@pytest.fixture(scope="module", params=["offsets", "payloads"])
def readers(request, tmp_path_factory, ray_session):
    """(partition Segments, the MergedIndex's views of their doc ranges,
    MergedIndex) over one positions corpus carrying offsets or payloads
    (the two side streams cannot be indexed together). The merge goes to a
    root of its own, so the partitions keep their postings."""
    root = tmp_path_factory.mktemp(f"readers-{request.param}")
    texts = make_pages(N_DOCS, seed=31).column("text").to_pylist()
    kw = {"index_offsets": True}
    if request.param == "payloads":
        texts = [_payload_text(t, i) for i, t in enumerate(texts)]
        kw = {"payload_delimiter": "|"}
    rows = []
    per = N_DOCS // N_PARTS
    for p in range(N_PARTS):
        lo, hi = p * per, (p + 1) * per
        seg_dir = str(root / f"partitions/p{lo:012d}")
        meta = invert_to_segment(np.arange(lo, hi, dtype=np.int64), texts[lo:hi], seg_dir, **kw)
        rows.append(
            {k: meta[k] for k in ("doc_base", "n_docs", "sum_ttf", "n_terms", "wall_ms")}
            | {"seg_dir": seg_dir}
        )
    manifest = finalize_build_manifest(str(root), rows)
    # a low salt threshold sends the high-df terms through the salted
    # heavy path, so both MergedIndex lookups (bucket, heavy range) run
    merge_by_term(manifest, str(root / "merged-index"), salt_threshold=100, n_salts=4)
    segs = [Segment(r["seg_dir"]) for r in sorted(rows, key=lambda r: r["doc_base"])]
    mi = MergedIndex(str(root / "merged-index"))
    return request.param, segs, [DocRangeView(mi, s.doc_base, s.max_doc) for s in segs], mi


def _sample_terms(segs, mi) -> list[str]:
    vocab = sorted({t for s in segs for t in s.iter_terms()})
    dfs = {t: sum(s.term_stats(t)[0] for s in segs) for t in vocab}
    singleton = next(t for t in vocab if dfs[t] == 1)
    heavy = max(vocab, key=lambda t: (dfs[t], t))
    assert dfs[heavy] > BLOCK, "corpus needs a term longer than one block"
    assert heavy in mi._heavy_set, "salt threshold must make the probe term heavy"
    rng = np.random.default_rng(5)
    return ["zzz-absent", singleton, heavy] + [str(t) for t in rng.choice(vocab, 12, replace=False)]


def _concat_lists(parts):
    """Per-partition per-posting lists (None where a partition lacks the
    term or the stream) concatenated in doc order; None if all are None."""
    present = [p for p in parts if p is not None]
    return None if not present else [a.tolist() for p in present for a in p]


def _lists(per_posting) -> list:
    """Per-posting arrays as lists; a stream a reader lacks reads [] (a
    view of a range without the term cuts an empty list)."""
    return [a.tolist() for a in per_posting or ()]


def test_readers_agree(readers):
    stream, segs, views, mi = readers
    terms = _sample_terms(segs, mi)
    for term in terms:
        part_stats = [s.term_stats(term) for s in segs]
        assert mi.term_stats(term) == (
            sum(df for df, _ in part_stats),
            sum(ttf for _, ttf in part_stats),
        ), term
        for s, v in zip(segs, views):
            assert v.term_stats(term) == mi.term_stats(term), term
            for a, b in zip(v.postings(term), s.postings(term)):
                assert a.dtype == b.dtype == np.int64, term
                np.testing.assert_array_equal(a, b, err_msg=term)
            assert _lists(v.positions(term)) == _lists(s.positions(term)), term
            v_off, s_off = v.offsets(term) or ((), ()), s.offsets(term) or ((), ())
            for side in (0, 1):
                assert _lists(v_off[side]) == _lists(s_off[side]), term
            assert _lists(v.payloads(term)) == _lists(s.payloads(term)), term
            np.testing.assert_array_equal(
                v.norm_of(np.arange(s.doc_base, s.max_doc)),
                s.norm_of(np.arange(s.doc_base, s.max_doc)),
            )

        docs, freqs = mi.postings(term)
        exp_docs = np.concatenate([s.postings(term)[0] for s in segs])
        exp_freqs = np.concatenate([s.postings(term)[1] for s in segs])
        assert docs.dtype == exp_docs.dtype == np.int64
        np.testing.assert_array_equal(docs, exp_docs, err_msg=term)
        np.testing.assert_array_equal(freqs, exp_freqs, err_msg=term)

        pos = mi.positions(term)
        assert (None if pos is None else [a.tolist() for a in pos]) == _concat_lists(
            [s.positions(term) for s in segs]
        ), term
        off = mi.offsets(term)
        part_off = [s.offsets(term) for s in segs]
        for side in (0, 1):
            assert (None if off is None else [a.tolist() for a in off[side]]) == _concat_lists(
                [None if o is None else o[side] for o in part_off]
            ), term
        pay = mi.payloads(term)
        assert (None if pay is None else [a.tolist() for a in pay]) == _concat_lists(
            [s.payloads(term) for s in segs]
        ), term
        if term != "zzz-absent":
            assert pos is not None, term
            assert (off is not None) == (stream == "offsets"), term
            assert (pay is not None) == (stream == "payloads"), term

    for prefix, cap in PREFIXES:
        union = {t for s in segs for t in s.expand_prefix(prefix, cap)}
        assert mi.expand_prefix(prefix, cap) == sorted(union)[:cap], prefix
    for lo, hi, cap in RANGES:
        union = {t for s in segs for t in s.expand_range(lo, hi, cap)}
        assert mi.expand_range(lo, hi, cap) == sorted(union)[:cap], (lo, hi)
    for suffix, cap in SUFFIXES:
        # the cap keeps the first terms in REVERSED order, then forward-sorts
        union = {t for s in segs for t in s.expand_suffix(suffix, cap)}
        exp = sorted(sorted(union, key=lambda t: t[::-1])[:cap])
        assert mi.expand_suffix(suffix, cap) == exp, suffix
        assert all(t.endswith(suffix) for t in exp)

    assert list(mi.iter_terms()) == sorted({t for s in segs for t in s.iter_terms()})


def _info_fields(ti):
    """A TermInfo as comparable plain values (None stays None)."""
    if ti is None:
        return None
    return tuple(v.tolist() if isinstance(v, np.ndarray) else v for v in vars(ti).values())


def test_merged_shards_ipc_eviction_and_bloom_skip(readers, monkeypatch):
    """Merged term shards are memory-mapped lz4 Arrow IPC files; the
    per-shard term map answers identically when every lookup reloads its
    shard; a miss on a cached shard never consults the Bloom sidecar; a
    manifest of another layout version is refused, naming the index."""
    import re

    _, _, _, mi = readers
    mm = mi.manifest
    index_dir = os.path.dirname(os.path.dirname(mm["norms"]["path"]))
    for version in (1, None, mm["version"] + 1):
        with pytest.raises(ValueError, match=re.escape(index_dir) + ".*merge manifest version"):
            MergedIndex(None, manifest=dict(mm, version=version))
    assert any(int(s["bucket"]) < 0 for s in mm["shards"]), "fixture needs heavy shards"
    for s in mm["shards"]:
        with open(s["path"], "rb") as f:
            assert f.read(6) == b"ARROW1", s["path"]
        assert read_term_shard(s["path"]).schema.equals(TERMS_SCHEMA), s["path"]

    # (b) every lookup reloads its shard: answers stay equal
    full = MergedIndex(None, manifest=mm)
    cold = MergedIndex(None, manifest=mm)
    terms = list(mi.iter_terms()) + [f"zz-absent-{i}" for i in range(20)]
    for t in terms:
        cold._tables.clear()
        assert cold.term_stats(t) == full.term_stats(t), t
        cold._tables.clear()
        assert _info_fields(cold.term_info(t)) == _info_fields(full.term_info(t)), t
        cold._tables.clear()
        cold._postings_cache.clear()
        for a, b in zip(cold.postings(t), full.postings(t)):
            np.testing.assert_array_equal(a, b, err_msg=t)
    assert sum(full.term_stats(t)[0] > 0 for t in terms) == len(terms) - 20

    # (c) absent term whose light shard is cached: no Bloom probe. The
    # absent terms sort just past a shard's first term, inside its range.
    fresh = MergedIndex(None, manifest=mm)
    calls = []
    orig = fresh._bloom_definite_miss
    monkeypatch.setattr(
        fresh, "_bloom_definite_miss", lambda term: calls.append(term) or orig(term)
    )
    (present, _, path), (cold, _, _) = [r for r in fresh._light_ranges if r[0] < r[1]][:2]
    absent, uncached = present + "\x00miss", cold + "\x00cold"
    assert fresh._shard_path_of(absent) == path
    assert fresh._shard_path_of(uncached) not in (None, path)
    assert fresh.term_stats(uncached) == (0, 0)
    assert calls == [uncached]  # an uncached target shard consults the Bloom
    assert fresh.term_stats(present)[0] > 0
    assert path in fresh._tables
    calls.clear()
    assert fresh.term_stats(absent) == (0, 0)
    assert fresh.term_info(absent) is None
    assert calls == []


def _row_info(row: dict) -> tuple:
    """A terms-table row as the per-row ``to_pylist`` copy decoded it."""
    return (
        row["term"], row["df"], row["ttf"], row["singleton_doc"], row["blob"] or b"",
        *(row[c] for c in ("last_docs", "offsets", "imp_freq", "imp_norm", "imp_start")),
        *(row.get(c) or b"" for c in ("pos_blob", "off_blob", "pay_blob")),
    )


def _view_info(ti) -> tuple:
    for c in ("last_docs", "offsets", "imp_freq", "imp_norm", "imp_start"):
        assert getattr(ti, c).dtype == np.int64, c
    for c in ("df", "ttf", "singleton_doc"):
        assert type(getattr(ti, c)) is int, c
    return (
        ti.term, ti.df, ti.ttf, ti.singleton_doc, bytes(ti.blob),
        ti.last_docs.tolist(), ti.offsets.tolist(), ti.imp_freq.tolist(),
        ti.imp_norm.tolist(), ti.imp_start.tolist(),
        bytes(ti.pos_blob), bytes(ti.off_blob), bytes(ti.pay_blob),
    )


def test_term_info_views_equal_row_copies(readers):
    """``term_info`` reads rows through per-table numpy views; every row of
    every partition ``Segment`` and every ``MergedIndex`` shard equals its
    ``slice(i, 1).to_pylist()`` copy field by field, side streams
    included."""
    stream, segs, _views, mi = readers
    side = "off_blob" if stream == "offsets" else "pay_blob"
    for seg in segs:
        rows = read_term_shard(os.path.join(seg.dir, "terms.arrow")).to_pylist()
        assert any(r["pos_blob"] and r[side] for r in rows)
        for row in rows:
            assert _view_info(seg.term_info(row["term"])) == _row_info(row), row["term"]
    shards = set()
    for path, row in mi.iter_term_rows():
        shards.add(path)
        assert _view_info(mi.term_info(row["term"])) == _row_info(row), row["term"]
    assert len(shards) == len(mi.manifest["shards"])


def _terms_table(terms: list[str]) -> pa.Table:
    """A ``TERMS_SCHEMA`` table of singleton rows: term i is in doc i."""
    n = len(terms)
    empty_lists = pa.array([[]] * n, pa.list_(pa.int64()))
    cols = {
        "term": pa.array(terms, pa.string()),
        "df": pa.array([1] * n, pa.int64()),
        "ttf": pa.array(range(1, n + 1), pa.int64()),
        "singleton_doc": pa.array(range(n), pa.int64()),
    }
    for f in TERMS_SCHEMA:
        if f.name not in cols:
            cols[f.name] = empty_lists if pa.types.is_list(f.type) else pa.array([b""] * n, pa.binary())
    return pa.table(cols, schema=TERMS_SCHEMA)


def test_term_shard_find_and_terms(tmp_path):
    """``TermShard`` over a term file written and read back through
    ``write_term_shard`` / ``read_term_shard``: ``terms`` is the term
    column in order, ``find`` hits every row (non-ASCII terms included)
    and misses below the first term, above the last, between two terms
    and in an empty table."""
    terms = sorted(["a", "apple", "b", "café", "zebra", "ß", "über", "日本", "😀"])
    path = str(tmp_path / "terms.arrow")
    write_term_shard(_terms_table(terms), path)
    tbl = read_term_shard(path)
    shard = TermShard(tbl)
    assert shard.terms == tbl.column("term").to_pylist() == terms
    for i, t in enumerate(terms):
        assert shard.find(t) == i, t
        ti = shard.info(i)
        assert (ti.term, ti.ttf, ti.singleton_doc) == (t, i + 1, i), t
    for miss in ("", "0", "ab", "c", "caf", "日", "\U0010ffff"):
        assert shard.find(miss) == -1, miss
    assert "0" < terms[0] and "\U0010ffff" > terms[-1]
    empty = TermShard(_terms_table([]))
    assert empty.terms == []
    assert empty.find("a") == -1
