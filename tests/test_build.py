"""SPIMI build: fixture gen → invert → segment invariants → Ray pipeline."""

import os

import numpy as np
import pyarrow as pa
import pytest

from engine.analyze import Analyzer, analyze_batch
from engine.build import build_index, invert_to_segment
from engine.checkindex import check_index, check_segment
from engine.extract import extract
from engine.fixtures import make_pages, pages_from_documents, write_pages
from engine.segment import TERMS_SCHEMA, Segment, read_term_shard

SF_DIR = "/root/testdata/sf0.001"


def test_fixture_pages_byte_identity(tmp_path):
    pages = pages_from_documents(SF_DIR)
    assert pages.num_rows == 500
    # the binding invariant: re-extracting html reproduces text byte-identically
    htmls = pages.column("html").to_pylist()
    texts = pages.column("text").to_pylist()
    for h, t in zip(htmls[:100], texts[:100]):
        assert extract(h).body == t


def test_fixture_token_multiset_matches_documents():
    import pyarrow.parquet as pq

    pages = pages_from_documents(SF_DIR)
    docs = pq.read_table(os.path.join(SF_DIR, "documents.parquet"))
    ptoks, _ = analyze_batch(pages.column("text").to_pylist())
    dtoks, _ = analyze_batch(docs.column("text").to_pylist())
    assert sorted(ptoks) == sorted(dtoks)


def test_synthetic_pages_deterministic():
    a = make_pages(50, seed=42)
    b = make_pages(50, seed=42)
    assert a.equals(b)
    assert extract(a.column("html")[7].as_py()).body == a.column("text")[7].as_py()


def test_invert_to_segment_roundtrip(tmp_path):
    texts = ["a b a c", "b b d", "", "a e e e"]
    doc_ids = np.arange(100, 104)
    seg_dir = str(tmp_path / "p0")
    meta = invert_to_segment(doc_ids, texts, seg_dir)
    assert meta["n_docs"] == 4
    assert meta["sum_ttf"] == 11
    seg = Segment(seg_dir)
    docs, freqs = seg.postings("a")
    np.testing.assert_array_equal(docs, [100, 103])
    np.testing.assert_array_equal(freqs, [2, 1])
    docs, freqs = seg.postings("e")
    np.testing.assert_array_equal(docs, [103])
    np.testing.assert_array_equal(freqs, [3])
    assert seg.term_stats("b") == (2, 3)
    assert seg.term_stats("zzz") == (0, 0)
    assert seg.norm_of(np.array([100, 102])).tolist() == [4, 0]
    check_segment(seg)


def test_invert_idempotent_resume(tmp_path):
    seg_dir = str(tmp_path / "p0")
    m1 = invert_to_segment(np.arange(2), ["x y", "y z"], seg_dir)
    m2 = invert_to_segment(np.arange(2), ["x y", "y z"], seg_dir)  # no-op rewrite
    assert m1 == m2


def test_invert_heavy_term_blocks(tmp_path):
    # a term in >128 docs exercises full FOR blocks + skip arrays
    n = 300
    texts = [f"common u{i:04d}" for i in range(n)]
    seg_dir = str(tmp_path / "p0")
    invert_to_segment(np.arange(n), texts, seg_dir)
    seg = Segment(seg_dir)
    ti = seg.term_info("common")
    assert ti.df == n
    assert len(ti.last_docs) == 3  # 2 full blocks + tail
    check_segment(seg)


def test_partition_rows_are_canonical(tmp_path):
    """Every row of a partition's terms table equals the per-term reference
    encoding of its decoded postings and norms: singletons, light terms
    (which carry their exact per-block impact frontier) and terms with
    full 128-doc blocks. The table is the partition's ``terms.arrow``, in
    the merged term shards' format and schema."""
    from test_codec import assert_rows_canonical

    seg_dir = str(tmp_path / "p0")
    texts = make_pages(600, seed=3).column("text").to_pylist()
    invert_to_segment(np.arange(1000, 1600, dtype=np.int64), texts, seg_dir)
    files = set(os.listdir(seg_dir))
    assert "terms.arrow" in files and "terms.parquet" not in files, sorted(files)
    tbl = read_term_shard(os.path.join(seg_dir, "terms.arrow"))
    assert tbl.schema.equals(TERMS_SCHEMA)
    rows = tbl.to_pylist()
    dfs = [r["df"] for r in rows]
    assert min(dfs) == 1 and max(dfs) > 2 * 128 and any(1 < d < 128 for d in dfs)
    assert any(len(r["imp_freq"]) > 1 and r["df"] < 128 for r in rows)  # frontiers, not one pair
    assert assert_rows_canonical(rows, Segment(seg_dir).norm_of) == len(rows)


@pytest.mark.usefixtures("ray_session")
def test_build_index_ray_pipeline(tmp_path):
    pages = pages_from_documents(SF_DIR)
    data_dir = str(tmp_path / "pages")
    write_pages(pages, data_dir, n_files=4)
    index_dir = str(tmp_path / "index")
    manifest = build_index(data_dir, index_dir, partition_docs=128, from_html=True)
    assert manifest["doc_count"] == 500
    assert len(manifest["partitions"]) >= 4
    check_index(manifest)
    # resume: second call loads the committed manifest, no rebuild
    manifest2 = build_index(data_dir, index_dir, partition_docs=128, from_html=True)
    assert manifest2 == manifest
    # cross-check stats vs a direct tokenization of the corpus
    _, lengths = analyze_batch(pages.column("text").to_pylist())
    assert manifest["sum_ttf"] == int(lengths.sum())


def test_wide_rows_multi_mb_html(tmp_path):
    # SURVEY §7.5 hard part 6: multi-MB html cells must build correctly
    from engine.extract import extract_batch
    import pyarrow as pa

    big_body = ("lorem ipsum dolor sit amet " * 40000).strip()  # ~1 MB
    html = f"<html><head><title>big</title></head><body><p>{big_body}</p></body></html>".encode()
    tbl = pa.table({"doc_id": [0, 1], "html": [html, b"<html><body>tiny doc</body></html>"]})
    ex = extract_batch(tbl)
    seg_dir = str(tmp_path / "wide")
    meta = invert_to_segment(
        ex.column("doc_id").to_numpy(), ex.column("text").to_pylist(), seg_dir
    )
    assert meta["sum_ttf"] == 200000 + 2
    seg = Segment(seg_dir)
    assert seg.term_stats("lorem") == (1, 40000)
    check_segment(seg)


def test_offsets_indexed_end_to_end(tmp_path):
    """index_offsets=True: spans round-trip through invert -> segment ->
    checkindex; every (start, end) span of a term slices exactly that
    term's text in the source doc (OffsetAttribute contract)."""
    import numpy as np

    from engine.build import invert_to_segment
    from engine.checkindex import check_segment
    from engine.segment import Segment

    texts = [
        "Quick brown fox jumps over the lazy dog",
        "the quick    QUICK brown-fox",
        "",
        "punctuation, everywhere! quick... dog?",
    ]
    seg_dir = str(tmp_path / "offseg")
    invert_to_segment(
        np.arange(len(texts), dtype=np.int64), texts, seg_dir, index_offsets=True
    )
    seg = Segment(seg_dir)
    check_segment(seg)  # includes the offsets invariants
    for term in ["quick", "brown", "fox", "dog", "the"]:
        off = seg.offsets(term)
        assert off is not None, term
        docs, freqs = seg.postings(term)
        s_lists, e_lists = off
        assert len(s_lists) == len(docs)
        for d, f, sl, el in zip(docs, freqs, s_lists, e_lists):
            assert len(sl) == f
            low = texts[int(d)].lower()
            for a, b in zip(sl.tolist(), el.tolist()):
                assert low[a:b] == term, (term, d, a, b, low[a:b])


def test_offsets_default_off(tmp_path):
    import numpy as np

    from engine.build import invert_to_segment
    from engine.segment import Segment

    seg_dir = str(tmp_path / "nooffseg")
    invert_to_segment(
        np.arange(2, dtype=np.int64), ["alpha beta", "beta gamma"], seg_dir
    )
    seg = Segment(seg_dir)
    assert seg.offsets("beta") is None
    assert seg.meta["index_options"] == "docs_freqs_positions"


# -- one reference across every index option --------------------------------

OPT_TEXTS = [
    "The data join of the data|3",
    "running runs the runner|7 runs",
    "",
    "fast cars|2 and fast|5 boats " + "x" * 300 + " of the fast data",
    "Searching the index, the searcher searched|1 quickly",
]
OPT_STOP = frozenset({"the", "of"})
OPT_SYN = (("fast", ("quick", "rapid")), ("data", ("info",)), ("runs", ("runs",)))
OPT_COMMON = ("the", "of")
INDEX_OPTIONS = {
    "default": {},
    "stopwords": {"analyzer": Analyzer(stopwords=OPT_STOP)},
    "synonyms": {"analyzer": Analyzer(synonyms=OPT_SYN)},
    "common_grams": {"analyzer": Analyzer(common_grams=OPT_COMMON)},
    "keyword_repeat": {"analyzer": Analyzer(filters=("porter",), keyword_repeat=True)},
    "offsets": {"index_offsets": True},
    "payloads": {"payload_delimiter": "|"},
}


def _option_reference(texts: list[str], option: str) -> dict:
    """term -> doc -> {position: (start, end, payload word)}, straight from
    ``re.finditer`` over the lowercased text. Tokens over 255 chars and
    stopwords are dropped but keep their position; stacked forms share
    their source token's position; the payload chain reads one payload
    per whitespace word and numbers the kept tokens consecutively."""
    import re
    from collections import defaultdict

    from engine.filters import porter_stem

    tok = re.compile(r"[a-z0-9]+")
    stop = OPT_STOP if option == "stopwords" else frozenset()
    ref: dict = defaultdict(lambda: defaultdict(dict))
    for d, text in enumerate(texts):
        if option == "payloads":
            p = 0
            for word in text.split():
                term, _, pay = word.rpartition("|") if "|" in word else (word, "", "")
                for m in tok.finditer(term.lower()):
                    if len(m.group()) <= 255:
                        ref[m.group()][d][p] = (None, None, int(pay) + 1 if pay else 0)
                        p += 1
            continue
        kept = [
            (j, m)
            for j, m in enumerate(tok.finditer(text.lower()))
            if len(m.group()) <= 255 and m.group() not in stop
        ]
        for j, m in kept:
            ref[m.group()][d][j] = (m.start(), m.end(), None)
        for (j, m), nxt in zip(kept, kept[1:] + [None]):
            t = m.group()
            stacked = list(dict(OPT_SYN).get(t, ())) if option == "synonyms" else []
            if option == "keyword_repeat":
                stacked.append(porter_stem(t))
            if option == "common_grams" and nxt and {t, nxt[1].group()} & set(OPT_COMMON):
                stacked.append(t + "_" + nxt[1].group())
            for s in stacked:
                ref[s][d].setdefault(j, (None, None, None))
    return ref


@pytest.mark.parametrize("option", list(INDEX_OPTIONS))
def test_every_index_option_matches_reference(tmp_path, option):
    """Each index option's postings, positions and, where indexed, offsets
    and payloads equal the per-doc reference for every term."""
    base = 10
    seg_dir = str(tmp_path / "p0")
    invert_to_segment(
        np.arange(base, base + len(OPT_TEXTS)), OPT_TEXTS, seg_dir, **INDEX_OPTIONS[option]
    )
    seg = Segment(seg_dir)
    check_segment(seg)
    ref = _option_reference(OPT_TEXTS, option)
    assert sorted(seg.iter_terms()) == sorted(ref)
    for term, by_doc in ref.items():
        docs = sorted(by_doc)
        at = [sorted(by_doc[d].items()) for d in docs]
        got_docs, got_freqs = seg.postings(term)
        assert got_docs.tolist() == [base + d for d in docs], term
        assert got_freqs.tolist() == [len(a) for a in at], term
        assert [p.tolist() for p in seg.positions(term)] == [[p for p, _ in a] for a in at], term
        if option == "offsets":
            starts, ends = seg.offsets(term)
            assert [s.tolist() for s in starts] == [[v[0] for _, v in a] for a in at], term
            assert [e.tolist() for e in ends] == [[v[1] for _, v in a] for a in at], term
        else:
            assert seg.offsets(term) is None
        if option == "payloads":
            assert [w.tolist() for w in seg.payloads(term)] == [[v[2] for _, v in a] for a in at], term
        else:
            assert seg.payloads(term) is None


STACKING = {
    "synonyms": Analyzer(synonyms=OPT_SYN),
    "common_grams": Analyzer(common_grams=OPT_COMMON),
    "keyword_repeat": Analyzer(filters=("porter",), keyword_repeat=True),
}


@pytest.mark.parametrize("side", ["offsets", "payloads"])
@pytest.mark.parametrize("stacking", list(STACKING))
def test_side_streams_refuse_stacking(tmp_path, stacking, side):
    """A stacked token has no character span or payload of its own: the
    offsets and payload builds refuse every stacking option instead of
    dropping the stacked tokens."""
    seg_dir = str(tmp_path / "p0")
    with pytest.raises(NotImplementedError, match=stacking):
        invert_to_segment(
            np.arange(2), OPT_TEXTS[:2], seg_dir, STACKING[stacking], **INDEX_OPTIONS[side]
        )
    assert not os.path.exists(seg_dir)


@pytest.mark.parametrize("other", ["synonyms", "common_grams"])
def test_keyword_repeat_refuses_other_stacking(tmp_path, other):
    an = Analyzer(
        filters=("porter",), keyword_repeat=True, **{other: getattr(STACKING[other], other)}
    )
    with pytest.raises(NotImplementedError, match="keyword_repeat"):
        invert_to_segment(np.arange(2), OPT_TEXTS[:2], str(tmp_path / "p0"), an)
