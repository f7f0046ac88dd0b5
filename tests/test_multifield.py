"""Title/multi-field indexing: separate postings, norms and stats per
field (DocMaker.java:197-198,289-291 indexes doctitle + body;
index/FieldInfos.java per-field stats), shared global docIDs so
cross-field boolean queries intersect correctly."""

import numpy as np
import pytest

from engine.analyze import analyze_batch
from engine.bm25 import make_term_scorer, topk_sort
from engine.build import invert_to_segment
from engine.checkpoint import finalize_build_manifest
from engine.search import IndexSearcher
from engine.smallfloat import int_to_byte4

N_DOCS = 400
N_SEGS = 4


@pytest.fixture(scope="module")
def mf_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("mfidx")
    rng = np.random.default_rng(5)
    bodies, titles = [], []
    for i in range(N_DOCS):
        toks = [f"w{int(x):03d}" for x in rng.integers(0, 120, size=30)]
        if i % 3 == 0:
            toks.append("shared")
        bodies.append(" ".join(toks))
        tt = ["alpha" if i % 2 == 0 else "beta", f"num{i % 7}"]
        if i % 5 == 0:
            tt.append("shared")
        titles.append(" ".join(tt))
    rows = []
    per = N_DOCS // N_SEGS
    for s in range(N_SEGS):
        lo, hi = s * per, (s + 1) * per
        ids = np.arange(lo, hi, dtype=np.int64)
        body_dir = str(root / f"partitions/p{lo:012d}")
        title_dir = str(root / f"fields/title/partitions/p{lo:012d}")
        bm = invert_to_segment(ids, bodies[lo:hi], body_dir, field="body")
        tm = invert_to_segment(ids, titles[lo:hi], title_dir, field="title")
        rows.append(
            {k: bm[k] for k in ("doc_base", "n_docs", "sum_ttf", "n_terms", "wall_ms")}
            | {
                "seg_dir": body_dir,
                "title__seg_dir": title_dir,
                "title__sum_ttf": tm["sum_ttf"],
                "title__n_terms": tm["n_terms"],
            }
        )
    manifest = finalize_build_manifest(str(root), rows)
    return {"manifest": manifest, "bodies": bodies, "titles": titles}


def test_manifest_has_field_section(mf_corpus):
    m = mf_corpus["manifest"]
    assert "title" in m["fields"]
    fm = m["fields"]["title"]
    assert fm["doc_count"] == N_DOCS
    assert fm["sum_ttf"] == sum(len(t.split()) for t in mf_corpus["titles"])


def test_title_term_query_matches_title_docs(mf_corpus):
    s = IndexSearcher(mf_corpus["manifest"], algorithm="taat")
    docs, scores = s.search("title:alpha", N_DOCS)
    assert set(docs.tolist()) == {i for i in range(N_DOCS) if i % 2 == 0}
    # same token searched in BODY matches nothing (alpha only in titles)
    d2, _ = s.search("alpha", N_DOCS)
    assert len(d2) == 0
    # body term via explicit body: prefix == bare
    d3, _ = s.search("body:shared", N_DOCS)
    d4, _ = s.search("shared", N_DOCS)
    np.testing.assert_array_equal(d3, d4)


def test_title_scoring_uses_title_stats_and_norms(mf_corpus):
    """BM25 for title:alpha must use the TITLE field's df, sumTotalTermFreq
    (avgdl) and per-doc title norms — not the body's."""
    s = IndexSearcher(mf_corpus["manifest"], algorithm="taat")
    docs, scores = s.search("title:alpha", N_DOCS)
    titles = mf_corpus["titles"]
    n_alpha = sum(1 for t in titles if "alpha" in t.split())
    title_sum_ttf = sum(len(t.split()) for t in titles)
    params = make_term_scorer(n_alpha, N_DOCS, title_sum_ttf)
    exp = {}
    for i, t in enumerate(titles):
        tk = t.split()
        if "alpha" in tk:
            norm = int_to_byte4(len(tk))
            exp[i] = float(
                params.score(
                    np.array([tk.count("alpha")]), np.array([norm], dtype=np.uint8)
                )[0]
            )
    assert len(docs) == len(exp)
    for d, sc in zip(docs.tolist(), scores.tolist()):
        assert sc == exp[d], f"doc {d}"


def test_cross_field_boolean_and_wand_agree(mf_corpus):
    s_t = IndexSearcher(mf_corpus["manifest"], algorithm="taat")
    s_w = IndexSearcher(mf_corpus["manifest"], algorithm="wand")
    for q in [
        "+title:alpha shared",        # must title, should body
        "+shared +title:num0",        # cross-field conjunction
        "title:beta shared",          # cross-field disjunction
        "shared -title:alpha",        # body term, title exclusion
        "title:shared shared",        # same token, both fields (diff stats)
    ]:
        td, ts = s_t.search(q, N_DOCS)
        wd, ws = s_w.search(q, N_DOCS)
        np.testing.assert_array_equal(td, wd, err_msg=q)
        np.testing.assert_array_equal(ts, ws, err_msg=q)
        assert len(td) > 0, q
    # cross-field conjunction semantics check
    td, _ = s_t.search("+shared +title:shared", N_DOCS)
    body_set = {i for i in range(N_DOCS) if i % 3 == 0}
    title_set = {i for i in range(N_DOCS) if i % 5 == 0}
    assert set(td.tolist()) == body_set & title_set


@pytest.mark.parametrize("similarity", ["bm25", {"title": "lmdirichlet", "": "bm25"}])
def test_weight_cache_field_qualified_terms(mf_corpus, similarity):
    """The weight cache keys field-qualified terms apart from body terms
    (same token, different stats and norms) and per-field similarities
    apart: a warm searcher equals a new one bit-exactly, twice over."""
    m = mf_corpus["manifest"]
    queries = [
        "title:shared shared", "shared title:shared", "title:shared",
        "+title:alpha shared", "+shared +title:num0", "shared -title:alpha",
        "(title:alpha shared) +w001", "title:beta title:beta w002",
    ]
    warm = IndexSearcher(m, similarity=similarity)
    for q in queries + queries[::-1]:
        got = warm.search(q, N_DOCS)
        exp = IndexSearcher(m, similarity=similarity).search(q, N_DOCS)
        np.testing.assert_array_equal(got[0], exp[0], err_msg=q)
        np.testing.assert_array_equal(got[1].view(np.uint32), exp[1].view(np.uint32), err_msg=q)
        assert len(got[0]) > 0, q
    assert {("body", "shared"), ("title", "shared")} <= {
        (w.field, w.bare) for w in warm._weights.values()
    }


@pytest.mark.usefixtures("ray_session")
def test_multifield_merge_and_sharded(mf_corpus, tmp_path_factory):
    import ray.data

    from engine.merge import merge_by_term
    from engine.search import search_dataset_sharded

    root = str(tmp_path_factory.mktemp("mfmerge"))
    mm = merge_by_term(mf_corpus["manifest"], root)
    assert "title" in mm["fields"]
    base = IndexSearcher(mf_corpus["manifest"], algorithm="taat")
    merged = IndexSearcher(mm, algorithm="taat")
    queries = ["title:alpha", "+shared +title:num0", "title:beta shared"]
    for q in queries:
        bd, bs = base.search(q, 20)
        md, ms = merged.search(q, 20)
        np.testing.assert_array_equal(md, bd, err_msg=q)
        np.testing.assert_array_equal(ms, bs, err_msg=q)
    # sharded scatter/gather with a title clause == single searcher
    qds = ray.data.from_items(
        [{"query_id": i, "query": q, "k": 15} for i, q in enumerate(queries)]
    )
    res = (
        search_dataset_sharded(qds, mm, n_shards=2)
        .to_pandas()
        .sort_values(["query_id", "rank"])
    )
    for i, q in enumerate(queries):
        bd, bs = base.search(q, 15)
        sub = res[res["query_id"] == i]
        np.testing.assert_array_equal(sub["doc_id"].to_numpy(), bd, err_msg=q)
        np.testing.assert_array_equal(
            sub["score"].to_numpy().astype(np.float32), bs, err_msg=q
        )


def test_field_qualified_multiterm_grammar(mf_corpus):
    """title:quer* / title:pa?t / title:x~1 / title:y^2 / title:"a b" /
    title:[a TO b] / title:/re/ — every multi-term clause type carries its
    field through rewrite/execute: results must equal the manually
    field-routed equivalent (classic/QueryParser.java field productions)."""
    s = IndexSearcher(mf_corpus["manifest"], algorithm="taat")

    def same(a: str, b: str):
        da, sa = s.search(a, 20)
        db, sb = s.search(b, 20)
        np.testing.assert_array_equal(da, db, err_msg=f"{a} vs {b}")
        np.testing.assert_array_equal(sa, sb, err_msg=f"{a} vs {b}")
        assert len(da) > 0, f"fixture should hit: {a}"

    # prefix expands against the TITLE dictionary only
    same("title:alph*", "title:alpha")
    same("title:num1*", "title:num1")
    # wildcard
    same("title:al?ha", "title:alpha")
    # fuzzy: alpha~1 over title matches alpha (and nothing within 1 edit)
    same("title:alpha~1", "title:alpha")
    # boost routes to title stats
    qb = s.rewrite(__import__("engine.queryparse", fromlist=["parse_query"]).parse_query("title:alpha^2.0"))
    assert qb.boosts == (("title:alpha", 2.0),)
    db, sb = s.execute(qb, 20)
    assert len(db) > 0
    # phrase over the title field: 'alpha num0' appears as adjacent tokens
    dp, _ = s.search('title:"alpha num0"', 400)
    exp = [
        i
        for i, t in enumerate(mf_corpus["titles"])
        if "alpha num0" in " ".join(t.split())
    ]
    assert sorted(dp.tolist()) == exp
    # term range over title dictionary
    qr = s.rewrite(__import__("engine.queryparse", fromlist=["parse_query"]).parse_query("title:[num0 TO num2]"))
    assert set(qr.should) == {"title:num0", "title:num1", "title:num2"}
    # regexp over title dictionary
    qx = s.rewrite(__import__("engine.queryparse", fromlist=["parse_query"]).parse_query("title:/num[0-1]/"))
    assert set(qx.should) == {"title:num0", "title:num1"}
    # a BODY prefix must NOT expand against title terms
    qbody = s.rewrite(__import__("engine.queryparse", fromlist=["parse_query"]).parse_query("alph*"))
    assert qbody.should == ()  # 'alpha' exists only in titles


def test_field_phrase_uses_field_norms(mf_corpus):
    """A title phrase must score with TITLE norms/stats, not body ones:
    hand-compute the expected float32 score for one hit."""
    from engine.bm25 import make_phrase_scorer

    s = IndexSearcher(mf_corpus["manifest"], algorithm="taat")
    docs, scores = s.search('title:"alpha num0"', 5)
    assert len(docs) > 0
    d = int(docs[0])
    t_dc = s.fields["title"][1]
    t_st = s.fields["title"][2]
    df_a = s.global_term_stats("title:alpha")[0]
    df_n = s.global_term_stats("title:num0")[0]
    params = make_phrase_scorer([df_a, df_n], t_dc, t_st)
    title_len = len(mf_corpus["titles"][d].split())
    exp = params.score(
        np.array([1], dtype=np.int64),
        np.array([int_to_byte4(title_len)], dtype=np.uint8),
    )[0]
    assert scores[0] == np.float32(exp)


def test_norm_inverse_cache_shared_per_key(mf_corpus):
    """One read-only norm-inverse cache per (avgdl, k1, b): equal keys
    give the same object, the body's and the title field's avgdl give
    different arrays, and the bits equal the unmemoized formula."""
    from engine.bm25 import B_DEFAULT, K1_DEFAULT, avg_field_length, norm_inverse_cache
    from engine.smallfloat import LENGTH_TABLE

    m = mf_corpus["manifest"]
    body = avg_field_length(m["sum_ttf"], m["doc_count"])
    title = avg_field_length(m["fields"]["title"]["sum_ttf"], m["fields"]["title"]["doc_count"])
    assert body != title
    for avgdl in (body, title):
        c = norm_inverse_cache(avgdl)
        assert norm_inverse_cache(np.float32(float(avgdl))) is c
        assert norm_inverse_cache(float(avgdl), float(K1_DEFAULT), float(B_DEFAULT)) is c
        assert not c.flags.writeable
        with pytest.raises(ValueError):
            c[0] = np.float32(0.0)
        one = np.float32(1.0)
        t = np.multiply(K1_DEFAULT, np.add(
            np.subtract(one, B_DEFAULT, dtype=np.float32),
            np.divide(np.multiply(B_DEFAULT, LENGTH_TABLE, dtype=np.float32), avgdl, dtype=np.float32),
            dtype=np.float32,
        ), dtype=np.float32)
        exp = np.divide(one, t, dtype=np.float32)
        np.testing.assert_array_equal(c.view(np.uint32), exp.view(np.uint32))
    assert norm_inverse_cache(body) is not norm_inverse_cache(title)
    assert not np.array_equal(norm_inverse_cache(body), norm_inverse_cache(title))
    # every term scorer of a field shares its field's one cache
    for df in (1, 7, 90):
        assert make_term_scorer(df, N_DOCS, m["fields"]["title"]["sum_ttf"]).cache is norm_inverse_cache(title)
        assert make_term_scorer(df, N_DOCS, m["sum_ttf"]).cache is norm_inverse_cache(body)
