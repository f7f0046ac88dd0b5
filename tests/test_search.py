"""Rank-identity: block-max WAND == exhaustive TAAT == brute-force oracle
(the CheckHits pruned-vs-exhaustive model, test-framework/.../CheckHits.java),
with dynamic pruning genuinely active (>1000-hit stop terms)."""

import numpy as np
import pytest

from engine.analyze import analyze_batch, compute_norms
from engine.bm25 import brute_force_topk, make_term_scorer
from engine.build import invert_to_segment
from engine.checkpoint import finalize_build_manifest
from engine.fixtures import make_pages
from engine.queryparse import parse_query
from engine.search import IndexSearcher
from engine.wand import scale_max_score, scale_min_score, scaling_factor

N_DOCS = 3000
N_SEGS = 4

QUERIES = [
    ("the00", 10),  # stop term, df ~1800 > threshold => pruning active
    ("the19", 10),  # heaviest stop term
    ("the00 the07 the19", 10),  # stop-only OR disjunction (WAND stress)
    ("t00000", 10),  # highest-zipf vocab term
    ("t00000 t00017 t09999", 10),  # mixed df OR
    ("t00003 the02", 100),
    ("+t00000 +the01", 10),  # conjunction
    ("+t00000 t00001 t00002", 10),  # mixed must/should
    ("t00000 AND t00001", 10),  # AND keyword
    ("tiekey", 15),  # identical-score cluster: docID tie-break
    ("s000300", 5),  # singleton term
    ("zzznomatch", 10),  # no hits
    ("zzznomatch t00005", 10),  # partial match OR
    ("+zzznomatch t00005", 10),  # impossible must
    ("the00 -t00000", 20),  # exclusion
    ("+the00 -t00001", 20),  # conjunction with exclusion
    ("the05", 1000),  # k crossing the hit-count threshold
    ("t00002 t00004 t00006 t00008 t00010", 50),
]


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("searchidx")
    pages = make_pages(N_DOCS, seed=42)
    texts = pages.column("text").to_pylist()
    rows = []
    per = N_DOCS // N_SEGS
    for s in range(N_SEGS):
        lo, hi = s * per, (s + 1) * per if s < N_SEGS - 1 else N_DOCS
        seg_dir = str(root / f"partitions/p{lo:012d}")
        meta = invert_to_segment(np.arange(lo, hi, dtype=np.int64), texts[lo:hi], seg_dir)
        rows.append(
            {
                "seg_dir": seg_dir,
                "doc_base": meta["doc_base"],
                "n_docs": meta["n_docs"],
                "sum_ttf": meta["sum_ttf"],
                "n_terms": meta["n_terms"],
                "wall_ms": meta["wall_ms"],
            }
        )
    manifest = finalize_build_manifest(str(root), rows)

    # brute-force oracle state straight from the raw text
    flat, lengths = analyze_batch(texts)
    norms = compute_norms(lengths)
    postings: dict[str, list[list[int]]] = {}
    tok_doc = np.repeat(np.arange(N_DOCS), lengths)
    order = np.lexsort((tok_doc, np.array(flat, dtype=object)))
    flat_a = np.array(flat, dtype=object)[order]
    docs_a = tok_doc[order]
    oracle = {}
    i = 0
    while i < len(flat_a):
        j = i
        term = flat_a[i]
        while j < len(flat_a) and flat_a[j] == term:
            j += 1
        docs, freqs = np.unique(docs_a[i:j], return_counts=True)
        oracle[term] = (docs.astype(np.int64), freqs.astype(np.int64))
        i = j
    return {
        "manifest": manifest,
        "oracle_postings": oracle,
        "norms": norms,
        "doc_count": N_DOCS,
        "sum_ttf": int(lengths.sum()),
    }


def _oracle_topk(corpus, qstr, k):
    from engine.queryparse import parse_query

    q = parse_query(qstr)
    op = corpus["oracle_postings"]
    if any(t not in op for t in q.must):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
    terms = tuple(q.must) + tuple(t for t in q.should if t in op)
    if not terms:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
    tp = [op[t] for t in terms]
    params = [
        make_term_scorer(len(op[t][0]), corpus["doc_count"], corpus["sum_ttf"])
        for t in terms
    ]
    mode = "and" if q.must and len(q.must) == len(terms) else "or"
    if q.must and len(q.must) != len(terms):
        # mixed must/should: brute force manually
        n = corpus["doc_count"]
        acc = np.zeros(n, dtype=np.float64)
        cnt = np.zeros(n, dtype=np.int32)
        for (docs, freqs), p in zip(tp, params):
            s = p.score(freqs, corpus["norms"][docs])
            acc[docs] += s.astype(np.float64)
        for t in q.must:
            cnt[op[t][0]] += 1
        sel = np.flatnonzero(cnt == len(q.must))
        from engine.bm25 import topk_sort

        res = topk_sort(sel, acc[sel].astype(np.float32), n)
        docs, scores = res
    else:
        docs, scores = brute_force_topk(tp, params, corpus["norms"], corpus["doc_count"], mode)
    # apply exclusions then cut to k
    if q.must_not:
        ex = set()
        for t in q.must_not:
            if t in op:
                ex.update(op[t][0].tolist())
        keep = [i for i, d in enumerate(docs.tolist()) if d not in ex]
        docs, scores = docs[keep], scores[keep]
    return docs[:k], scores[:k]


@pytest.mark.parametrize("qstr,k", QUERIES)
def test_rank_identity_all_plans(corpus, qstr, k):
    oracle_docs, oracle_scores = _oracle_topk(corpus, qstr, k)
    taat = IndexSearcher(corpus["manifest"], algorithm="taat")
    wand = IndexSearcher(corpus["manifest"], algorithm="wand")
    td, ts = taat.search(qstr, k)
    wd, ws = wand.search(qstr, k)
    np.testing.assert_array_equal(td, oracle_docs, err_msg=f"taat docs {qstr}")
    np.testing.assert_array_equal(ts, oracle_scores, err_msg=f"taat scores {qstr}")
    np.testing.assert_array_equal(wd, oracle_docs, err_msg=f"wand docs {qstr}")
    np.testing.assert_array_equal(ws, oracle_scores, err_msg=f"wand scores {qstr}")
    assert ts.dtype == np.float32 and ws.dtype == np.float32


def test_tiekey_docid_tiebreak(corpus):
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    docs, scores = s.search("tiekey", 15)
    # 20 identical docs, identical scores: top-15 must be the 15 smallest docIDs
    assert docs.tolist() == list(range(15))
    assert len(set(scores.tolist())) == 1


def test_scaling_helpers():
    # scalingFactor puts f × 2^sf in ]2^15, 2^16]
    for f in [1e-30, 0.001, 0.5, 1.0, 7.3, 100.0, 1e30]:
        sf = scaling_factor(np.float32(f))
        scaled = np.ldexp(np.float64(f), sf)
        assert 1 << 15 < scaled <= (1 << 16) or f == 0
    # ceil vs floor bounds
    assert scale_max_score(np.float32(1.5), 2) == 6
    assert scale_min_score(np.float32(1.5), 2) == 6
    assert scale_max_score(np.float32(1.1), 1) == 3  # ceil
    assert scale_min_score(np.float32(1.1), 1) == 2  # floor
    assert scale_max_score(np.float32(0.0), 10) == 0


def test_pruning_actually_happens(corpus):
    # sanity that the WAND path prunes (fewer collected hits than matches)
    wand = IndexSearcher(corpus["manifest"], algorithm="wand")
    from engine.queryparse import parse_query

    q = parse_query("the19")
    params = wand._params_for(q.should)
    from engine.wand import TermIterator, wand_or_topk

    total_df = wand.global_term_stats("the19")[0]
    assert total_df > 1500  # pruning threshold crossable
    coll = None
    from engine.wand import TopKCollector

    coll = TopKCollector(10, 1000)
    for seg in wand.segments:
        ti = seg.term_info("the19")
        if ti:
            wand_or_topk([TermIterator(seg, ti, params["the19"])], 10, 1000, coll)
    assert coll.total_hits < total_df  # some blocks were skipped


def test_prefix_query_expansion(corpus):
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    # 'the*' expands to the stop band the00..the19
    docs, scores = s.search("the0*", 10)
    # equivalent explicit disjunction must give identical results
    explicit = " ".join(f"the0{i}" for i in range(10))
    d2, s2 = s.search(explicit, 10)
    np.testing.assert_array_equal(docs, d2)
    np.testing.assert_array_equal(scores, s2)
    assert s.expand_prefix("the0") == [f"the0{i}" for i in range(10)]


def test_match_all_query(corpus):
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    docs, scores = s.search("*", 5)
    # constant score 1.0, docID-ascending tie-break
    assert docs.tolist() == [0, 1, 2, 3, 4]
    assert set(scores.tolist()) == {1.0}
    # match_all combined with must_not
    docs2, _ = s.search("* -tiekey", 5)
    assert docs2.tolist() == [20, 21, 22, 23, 24]  # tie cluster excluded


def _phrase_oracle(corpus_texts, phrase, doc_count, sum_ttf, oracle_postings, norms, k):
    """Brute-force phrase top-k from raw texts (positional scan)."""
    from engine.analyze import tokenize
    from engine.bm25 import make_phrase_scorer, topk_sort

    terms = phrase.split()
    docs, freqs = [], []
    for i, t in enumerate(corpus_texts):
        toks = tokenize(t)
        n = 0
        for p in range(len(toks) - len(terms) + 1):
            if toks[p : p + len(terms)] == terms:
                n += 1
        if n:
            docs.append(i)
            freqs.append(n)
    if not docs:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
    docs = np.array(docs, dtype=np.int64)
    freqs = np.array(freqs, dtype=np.int64)
    params = make_phrase_scorer(
        [len(oracle_postings.get(t, ([], []))[0]) for t in terms], doc_count, sum_ttf
    )
    scores = params.score(freqs, norms[docs])
    return topk_sort(docs, scores, k)


def test_phrase_query_rank_identity(corpus, tmp_path_factory):
    pages = make_pages(N_DOCS, seed=42)
    texts = pages.column("text").to_pylist()
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    for phrase in ["the00 the01", "t00000 t00001", "tiekey tiekey"]:
        od, osc = _phrase_oracle(
            texts,
            phrase,
            corpus["doc_count"],
            corpus["sum_ttf"],
            corpus["oracle_postings"],
            corpus["norms"],
            10,
        )
        gd, gs = s.search(f'"{phrase}"', 10)
        np.testing.assert_array_equal(gd, od, err_msg=phrase)
        np.testing.assert_array_equal(gs, osc, err_msg=phrase)
    # no-match phrase
    gd, gs = s.search('"zzznomatch t00000"', 10)
    assert len(gd) == 0
    # phrase mixed with a term clause runs and returns hits
    gd, gs = s.search('"the00 the01" t00000', 10)
    assert len(gd) > 0


def test_synonym_query(corpus):
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    docs, scores = s.search("t00003|t00004", 10)
    # manual oracle: freq = sum over group, df = max over group
    from engine.bm25 import make_term_scorer, topk_sort

    op = corpus["oracle_postings"]
    n = corpus["doc_count"]
    freq_sum = np.zeros(n, dtype=np.int64)
    hit = np.zeros(n, dtype=bool)
    for t in ("t00003", "t00004"):
        d, f = op[t]
        freq_sum[d] += f
        hit[d] = True
    params = make_term_scorer(
        max(len(op["t00003"][0]), len(op["t00004"][0])), n, corpus["sum_ttf"]
    )
    sel = np.flatnonzero(hit)
    exp_scores = params.score(freq_sum[sel], corpus["norms"][sel])
    ed, es = topk_sort(sel, exp_scores, 10)
    np.testing.assert_array_equal(docs, ed)
    np.testing.assert_array_equal(scores, es)


def test_explain_matches_score(corpus):
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    for q in ["t00000 t00001", "the00", '"the00 the01" t00002']:
        docs, scores = s.search(q, 5)
        for d, sc in zip(docs.tolist()[:3], scores.tolist()[:3]):
            ex = s.explain(q, d)
            assert ex["value"] == np.float32(sc), (q, d, ex)
            assert len(ex["details"]) >= 1
    # the phrase clause is explained, not just its terms
    q = '"the00 the01" t00002'
    ex = s.explain(q, int(s.search(q, 1)[0][0]))
    assert any(det["term"] == "the00 the01" for det in ex["details"]), ex


def test_range_wildcard_boost_queries(corpus):
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    # range == explicit disjunction over the expansion
    d1, s1 = s.search("[the00 TO the04]", 10)
    d2, s2 = s.search("the00 the01 the02 the03 the04", 10)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(s1, s2)
    # wildcard with mid-string ? — the0? == the00..the09
    d3, s3 = s.search("the0?", 10)
    d4, s4 = s.search(" ".join(f"the0{i}" for i in range(10)), 10)
    np.testing.assert_array_equal(d3, d4)
    np.testing.assert_array_equal(s3, s4)
    # boost scales the term weight (boost * idf) — compare to manual oracle
    from engine.bm25 import make_term_scorer, topk_sort

    op = corpus["oracle_postings"]
    docs, freqs = op["t00005"]
    params = make_term_scorer(
        len(docs), corpus["doc_count"], corpus["sum_ttf"], boost=np.float32(2.5)
    )
    exp = params.score(freqs, corpus["norms"][docs])
    ed, es = topk_sort(docs, exp, 10)
    gd, gs = s.search("t00005^2.5", 10)
    np.testing.assert_array_equal(gd, ed)
    np.testing.assert_array_equal(gs, es)


def test_quality_harness(corpus):
    from engine.quality import average_precision, evaluate, freq_qrels, precision_at_k

    # unit math
    assert precision_at_k(np.array([1, 2, 3, 4]), {1, 3}, 4) == 0.5
    assert average_precision(np.array([1, 9, 3]), {1, 3}) == (1 / 1 + 2 / 3) / 2
    assert average_precision(np.array([9, 8]), {1}) == 0.0

    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    terms = ["t00000", "t00001", "the00"]
    qrels = freq_qrels(s, terms, min_freq=2)
    topics = [(t, t) for t in terms]
    res = evaluate(s, topics, qrels, k=10)
    # BM25 on a single term ranks freq>=2 docs above freq==1 docs when norms
    # are comparable: precision at the top must be near-perfect. (MAP is
    # recall-limited here because judgment sets are much larger than the
    # retrieved depth — exactly how TREC-style MAP behaves.)
    assert res["p_at_10"] > 0.8
    n_rel = sum(len(qrels[t]) for t in terms) / 3
    assert res["map"] > 0.0  # sanity; bounded by retrieved/|rel|
    assert len(res["per_topic"]) == 3


def test_classic_similarity_pluggable(corpus):
    from engine.bm25 import make_classic_scorer, topk_sort

    s = IndexSearcher(corpus["manifest"], algorithm="taat", similarity="classic")
    docs, scores = s.search("t00000", 10)
    # manual TF-IDF oracle
    op = corpus["oracle_postings"]
    d, f = op["t00000"]
    params = make_classic_scorer(len(d), corpus["doc_count"], corpus["sum_ttf"])
    exp = params.score(f, corpus["norms"][d])
    ed, es = topk_sort(d, exp, 10)
    np.testing.assert_array_equal(docs, ed)
    np.testing.assert_array_equal(scores, es)
    # ordering differs from BM25 in general but both are valid rankings
    s2 = IndexSearcher(corpus["manifest"], algorithm="taat")
    d2, _ = s2.search("t00000", 10)
    assert len(d2) == 10


def test_prefix_combined_with_phrase(corpus):
    # regression: the prefix rewrite must not drop phrase clauses
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    d1, s1 = s.search('the0* "the00 the01"', 10)
    # equivalent: explicit expansion + phrase
    explicit = " ".join(f"the0{i}" for i in range(10)) + ' "the00 the01"'
    d2, s2 = s.search(explicit, 10)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(s1, s2)


def test_fuzzy_query(corpus):
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    # 'the0x~1' matches the00..the09 (substitute last char) = the0? expansion
    d1, s1 = s.search("the0x~1", 10)
    d2, s2 = s.search("the0?", 10)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(s1, s2)
    # exact term within distance 0 of itself
    d3, _ = s.search("tiekey~0", 5)
    d4, _ = s.search("tiekey", 5)
    np.testing.assert_array_equal(d3, d4)


def test_dismax_query(corpus):
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    # tie_breaker=1.0 degenerates to the plain disjunction sum
    d1, s1 = s.search_dismax("t00000 t00001", 10, tie_breaker=1.0)
    d2, s2 = s.search("t00000 t00001", 10)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_allclose(s1, s2, rtol=1e-6)
    # tie_breaker=0: pure max — manual oracle
    from engine.bm25 import make_term_scorer, topk_sort

    op = corpus["oracle_postings"]
    n = corpus["doc_count"]
    mx = np.zeros(n, dtype=np.float32)
    hit = np.zeros(n, dtype=bool)
    for t in ("t00000", "t00001"):
        d, f = op[t]
        p = make_term_scorer(len(d), n, corpus["sum_ttf"])
        sc = p.score(f, corpus["norms"][d])
        np.maximum.at(mx, d, sc)
        hit[d] = True
    sel = np.flatnonzero(hit)
    ed, es = topk_sort(sel, mx[sel], 10)
    gd, gs = s.search_dismax("t00000 t00001", 10, tie_breaker=0.0)
    np.testing.assert_array_equal(gd, ed)
    np.testing.assert_array_equal(gs, es)


def test_term_iterator_advance_conformance(corpus):
    # BasePostingsFormatTestCase-style: random advance() targets must agree
    # with the uncompressed postings (every skip path)
    from engine.wand import NO_MORE_DOCS, TermIterator

    seg = IndexSearcher(corpus["manifest"]).segments[0]
    rng = np.random.default_rng(5)
    for term in ["the00", "t00000", "t00050", "s000300"]:
        ti = seg.term_info(term)
        if ti is None:
            continue
        docs, freqs = seg.postings(term)
        params = IndexSearcher(corpus["manifest"])._params_for((term,))[term]
        it = TermIterator(seg, ti, params)
        it.set_scaling(0)
        it.start()
        # walk with random advances
        for _ in range(50):
            target = int(rng.integers(0, docs[-1] + 10))
            if target <= it.doc:
                got = it.next()
                idx = np.searchsorted(docs, it.doc) if got != NO_MORE_DOCS else -1
            else:
                got = it.advance(target)
                if got == NO_MORE_DOCS:
                    assert target > docs[-1]
                    break
                expect = docs[np.searchsorted(docs, target)]
                assert got == expect, (term, target)
                assert it.freq() == freqs[np.searchsorted(docs, got)]
            if got == NO_MORE_DOCS:
                break


def test_stopword_analyzer_end_to_end(tmp_path):
    from engine.analyze import Analyzer
    from engine.build import invert_to_segment
    from engine.segment import Segment

    an = Analyzer(stopwords=frozenset({"the", "of"}))
    seg_dir = str(tmp_path / "stop")
    invert_to_segment(
        np.arange(2), ["the cat of the house", "cat house the"], seg_dir, analyzer=an
    )
    seg = Segment(seg_dir)
    assert seg.term_stats("the") == (0, 0)  # stopped at index time
    assert seg.term_stats("cat") == (2, 2)
    # norms exclude stopped tokens (posIncr semantics for norms)
    assert seg.norm_of(np.array([0])).tolist() == [2]  # cat, house


def test_must_and_should_same_term(corpus):
    """'+foo foo' — a term in both MUST and SHOULD scores twice but counts
    toward the must-match requirement once; TAAT must agree with WAND
    (regression: must_cnt was double-incremented, TAAT returned 0 hits)."""
    taat = IndexSearcher(corpus["manifest"], algorithm="taat")
    wand = IndexSearcher(corpus["manifest"], algorithm="wand")
    for qstr, k in [("+t00000 t00000", 10), ("+the00 the00 t00001", 10)]:
        td, ts = taat.search(qstr, k)
        wd, ws = wand.search(qstr, k)
        assert len(td) > 0, qstr
        np.testing.assert_array_equal(td, wd, err_msg=qstr)
        np.testing.assert_array_equal(ts, ws, err_msg=qstr)


def test_minimum_should_match(corpus):
    """minimumNumberShouldMatch (search/BooleanQuery.java:78): hits must
    match >= msm optional clauses; scores unchanged vs the plain query."""
    from dataclasses import replace

    from engine.queryparse import parse_query

    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    q0 = parse_query("t00000 t00001 t00002")
    base_docs, base_scores = s.search(q0, corpus["doc_count"])
    op = corpus["oracle_postings"]
    sets = [set(op[t][0].tolist()) for t in ("t00000", "t00001", "t00002")]
    by_doc = dict(zip(base_docs.tolist(), base_scores.tolist()))
    for msm in (1, 2, 3):
        docs, scores = s.search(replace(q0, min_should_match=msm), corpus["doc_count"])
        expect = {d for d in by_doc if sum(d in s_ for s_ in sets) >= msm}
        assert set(docs.tolist()) == expect, f"msm={msm}"
        for d, sc in zip(docs.tolist(), scores.tolist()):
            assert sc == by_doc[d]  # msm filters, never rescores
    # msm combined with a MUST clause
    q1 = replace(parse_query("+the00 t00000 t00001"), min_should_match=1)
    docs, _ = s.search(q1, corpus["doc_count"])
    must_set = set(op["the00"][0].tolist())
    s0, s1 = set(op["t00000"][0].tolist()), set(op["t00001"][0].tolist())
    assert set(docs.tolist()) == must_set & (s0 | s1)


def test_sloppy_phrase(corpus):
    """"a b"~N matches iff some (pa, pb) has (pb-1) - pa in [-N, N]
    (offset-adjusted span <= slop, the SloppyPhraseMatcher criterion);
    slop large enough degrades toward the AND doc set."""
    from engine.analyze import analyze_batch

    pages = make_pages(N_DOCS, seed=42)
    texts = pages.column("text").to_pylist()
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    a, b = "the00", "the01"
    # positions oracle straight from the analyzed token stream
    pos: dict[str, list[list[int]]] = {a: [], b: []}
    for txt in texts:
        toks, _ = analyze_batch([txt])
        for t in (a, b):
            pos[t].append([i for i, x in enumerate(toks) if x == t])
    for slop in (1, 2, 4):
        docs, scores = s.search(f'"{a} {b}"~{slop}', corpus["doc_count"])
        expect = set()
        for d in range(N_DOCS):
            pa, pb = pos[a][d], pos[b][d]
            if pa and pb and any(abs((j - 1) - i) <= slop for i in pa for j in pb):
                expect.add(d)
        assert set(docs.tolist()) == expect, f"slop={slop}"
        assert scores.dtype == np.float32
    # slop 0 via the sloppy path == the exact-phrase doc set
    d0, _ = s.search(f'"{a} {b}"', corpus["doc_count"])
    dsl, _ = s.search(f'"{a} {b}"~1', corpus["doc_count"])
    assert set(d0.tolist()) <= set(dsl.tolist())


def test_sloppy_phrase_repeated_term(corpus):
    """Repeated phrase terms must bind distinct token occurrences:
    "tiekey tiekey"~2 requires two tiekey occurrences."""
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    exact, _ = s.search('"tiekey tiekey"', corpus["doc_count"])
    sloppy, _ = s.search('"tiekey tiekey"~2', corpus["doc_count"])
    op = corpus["oracle_postings"]
    docs, freqs = op["tiekey"]
    multi = set(docs[freqs >= 2].tolist())
    assert set(sloppy.tolist()) <= multi
    assert set(exact.tolist()) <= set(sloppy.tolist())


def test_regexp_query(corpus):
    """/pattern/ RegexpQuery (search/RegexpQuery.java): dictionary scan
    rewrite; results equal the explicit OR over matching terms."""
    import re

    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    op = corpus["oracle_postings"]
    for pat in ["t0000[0-3]", "the0.", "s0003.0"]:
        rx = re.compile(pat)
        expect_terms = sorted(t for t in op if rx.fullmatch(t))
        assert expect_terms, pat
        rd, rs = s.search(f"/{pat}/", 50)
        ed, es = s.search(" ".join(expect_terms), 50)
        np.testing.assert_array_equal(rd, ed, err_msg=pat)
        np.testing.assert_array_equal(rs, es, err_msg=pat)
    # regexp mixed with a plain term
    rd, _ = s.search("/t0000[01]/ the00", 30)
    assert len(rd) > 0
    # no-match regexp
    rd, _ = s.search("/zzz[0-9]+nomatch/", 10)
    assert len(rd) == 0


def test_term_in_set_filter(corpus):
    """TermInSetQuery (search/TermInSetQuery.java): a FILTER clause — must
    contain >= 1 term of every set, contributes no score."""
    from dataclasses import replace

    from engine.queryparse import parse_query

    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    op = corpus["oracle_postings"]
    base = parse_query("the00")
    bd, bs = s.search(base, corpus["doc_count"])
    by_doc = dict(zip(bd.tolist(), bs.tolist()))
    q = replace(base, term_sets=((("t00000", "t00001"),)))
    fd, fs = s.search(q, corpus["doc_count"])
    allowed = set(op["t00000"][0].tolist()) | set(op["t00001"][0].tolist())
    assert set(fd.tolist()) == set(bd.tolist()) & allowed
    for d, sc in zip(fd.tolist(), fs.tolist()):
        assert sc == by_doc[d]  # filter never rescores
    # filter-only query: matches at score 0
    q2 = replace(parse_query(""), term_sets=(("t00000",),))
    d2, s2 = s.search(q2, corpus["doc_count"])
    assert set(d2.tolist()) == set(op["t00000"][0].tolist())
    assert set(s2.tolist()) == {0.0}


def test_filter_clause_lru_cache(corpus):
    """LRUQueryCache role (search/LRUQueryCache.java:61): the second
    evaluation of a repeated filter set hits the per-searcher bitset LRU
    — zero postings reads — and returns identical results. Evicted
    entries recompute."""
    from dataclasses import replace

    from engine.queryparse import parse_query

    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    q = replace(parse_query("the00"), term_sets=(("t00000", "t00001"),))
    d1, s1 = s.search(q, corpus["doc_count"])
    assert len(s._filter_cache) > 0

    calls = {"n": 0}
    orig = {}
    for seg in s.segments:
        orig[id(seg)] = seg.postings
    try:
        for seg in s.segments:
            real = seg.postings

            def counting(term, _real=real):
                calls["n"] += 1
                return _real(term)

            seg.postings = counting
        d2, s2 = s.search(q, corpus["doc_count"])
        # the FILTER terms come from the bitset LRU and the scoring term
        # 'the00' from the weight cache: no postings call at all
        assert calls["n"] == 0
    finally:
        for seg in s.segments:
            seg.postings = orig[id(seg)]
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(s1, s2)
    # capacity eviction: distinct filter sets beyond the LRU max recompute
    assert len(s._filter_cache) <= s._FILTER_CACHE_MAX


def _ref_eval(corpus, q):
    """Independent reference evaluator for nested BooleanQuery semantics
    over the test oracle postings: returns (matched bool[n], score
    float64[n]) with the same per-node float32 finishing as the engine
    (each sub-query is one clause; its score is a float when the parent
    accumulates it)."""
    op = corpus["oracle_postings"]
    n = corpus["doc_count"]
    acc = np.zeros(n, dtype=np.float64)
    opt = np.zeros(n, dtype=bool)
    must_ok = None

    def scorer(t):
        docs, freqs = op.get(t, (np.empty(0, np.int64), np.empty(0, np.int64)))
        p = make_term_scorer(len(docs), n, corpus["sum_ttf"])
        return docs, (p.score(freqs, corpus["norms"][docs]) if len(docs) else np.empty(0, np.float32))

    if any(t not in op for t in q.must):
        return np.zeros(n, dtype=bool), acc
    for t in q.must:
        docs, s = scorer(t)
        m = np.zeros(n, dtype=bool)
        m[docs] = True
        acc[docs] += s.astype(np.float64)
        must_ok = m if must_ok is None else (must_ok & m)
    for t in q.should:
        docs, s = scorer(t)
        if len(docs) == 0:
            continue
        acc[docs] += s.astype(np.float64)
        opt[docs] = True
    for sub in q.sub_must:
        m, a = _ref_eval(corpus, sub)
        acc[m] += a[m].astype(np.float32).astype(np.float64)
        must_ok = m if must_ok is None else (must_ok & m)
    for sub in q.sub_should:
        m, a = _ref_eval(corpus, sub)
        acc[m] += a[m].astype(np.float32).astype(np.float64)
        opt |= m
    sel = must_ok if must_ok is not None else opt
    for t in q.must_not:
        docs, _ = scorer(t)
        sel = sel.copy()
        sel[docs] = False
    for sub in q.sub_must_not:
        m, _ = _ref_eval(corpus, sub)
        sel = sel & ~m
    return sel, acc


NESTED_QUERIES = [
    "(t00000 OR t00001) AND the00",        # OR-group under AND
    "+(t00000 t00001) +(t00002 t00003)",   # two required disjunctions
    "((t00000 OR t00001) AND (t00002 OR the01)) the05",  # two-level nesting
    "+(t00000 t00001) -(the00 the01)",     # De Morgan'd negated group
    "(+t00000 +t00001) t00002",            # conjunction group as SHOULD
    "(t00000 OR zzznomatch) AND the00",    # dead branch in the group
    "(zzznomatch OR zzzother) AND the00",  # group matches nothing
    # flat shapes run through the same clause evaluator
    "the00 t00001 -t00002",                # disjunction with must_not
    "+t00000 t00001",                      # must + should
    "+t00000 +the00 -t00003",              # conjunction with must_not
    "+t00000 t00000",                      # one term as MUST and SHOULD
    "t00000 t00017 t09999",                # disjunction, one term absent
]


@pytest.mark.parametrize("qstr", NESTED_QUERIES)
def test_nested_boolean_matches_reference(corpus, qstr):
    """Clause-tree execution == an independent nested evaluator over the
    raw-text oracle postings: same hit SET and bit-identical float32
    scores (BooleanQuery nested clause semantics after the flattening
    rewrite — search/BooleanQuery.java)."""
    from engine.queryparse import parse_query

    searcher = IndexSearcher(corpus["manifest"], algorithm="taat")
    q = searcher.rewrite(parse_query(qstr))
    sel, acc = _ref_eval(corpus, q)
    exp_docs = np.flatnonzero(sel)
    exp_scores = acc[exp_docs].astype(np.float32)
    k = corpus["doc_count"]
    got_docs, got_scores = searcher.search(qstr, k)
    order = np.lexsort((exp_docs,))
    # engine returns (score desc, doc asc); compare as sets with scores
    got = dict(zip(got_docs.tolist(), got_scores.tolist()))
    exp = dict(zip(exp_docs.tolist(), exp_scores.tolist()))
    assert got.keys() == exp.keys(), qstr
    for d in exp:
        assert np.float32(got[d]) == np.float32(exp[d]), (qstr, d)


def test_nested_flatten_rewrites(corpus):
    """BooleanQuery.rewrite simplifications: a SHOULD disjunction group
    splices into the parent, a single-clause MUST group collapses to a
    MUST term, a negated term-disjunction group expands by De Morgan —
    each rewritten query must equal its hand-flattened form exactly."""
    from engine.queryparse import parse_query

    searcher = IndexSearcher(corpus["manifest"], algorithm="taat")
    r = lambda s: searcher.rewrite(parse_query(s))
    # spliced group clauses append after flat ones — same clause SET
    # (clause order inside SHOULD does not affect match semantics)
    a, b = r("(t00000 OR t00001) t00002"), r("t00000 t00001 t00002")
    assert set(a.should) == set(b.should) and not a.nested
    assert r("(t00000 OR t00001) t00002") == r("t00002 t00000 t00001")
    assert r("(t00000) AND t00002") == r("+t00002 +t00000")
    assert r("-(t00000 t00001) the00") == r("the00 -t00000 -t00001")
    # non-flattenable shapes stay nested
    assert r("+(t00000 t00001) +the00").sub_must
    assert r("(+t00000 +t00001) t00002").sub_should


def test_nested_group_same_as_flat_when_equivalent(corpus):
    """A flattenable grouped query must return bit-identical results to
    its flat spelling (the rewrite makes them the same query)."""
    for grouped, flat in [
        ("(t00000 OR t00001) t00002", "t00000 t00001 t00002"),
        ("(t00000) AND t00002", "+t00000 +t00002"),
        ("-(the00 the01) t00000", "t00000 -the00 -the01"),
    ]:
        s = IndexSearcher(corpus["manifest"], algorithm="taat")
        gd, gs = s.search(grouped, 50)
        fd, fs = s.search(flat, 50)
        np.testing.assert_array_equal(gd, fd, err_msg=grouped)
        np.testing.assert_array_equal(gs, fs, err_msg=grouped)


@pytest.fixture(scope="module")
def merged(corpus, ray_session, tmp_path_factory) -> dict:
    """The corpus merged into a root of its own, so its partitions keep
    their postings for the build-manifest searchers of this module."""
    from engine.merge import merge_by_term

    return merge_by_term(corpus["manifest"], str(tmp_path_factory.mktemp("searchmerged")))


def test_nested_boolean_sharded_matches_single(corpus, merged):
    """Nested clause trees must survive the shard fan-out: plans ship as
    nested dicts, shards rebuild the tree and score with injected global
    stats."""
    import ray.data

    from engine.search import search_dataset_sharded

    queries = [
        {"query_id": i, "query": qs, "k": 20} for i, qs in enumerate(NESTED_QUERIES)
    ]
    res = (
        search_dataset_sharded(ray.data.from_items(queries), merged, n_shards=3)
        .to_pandas()
        .sort_values(["query_id", "rank"])
    )
    base = IndexSearcher(corpus["manifest"], algorithm="taat")
    for q in queries:
        bd, bs = base.search(q["query"], q["k"])
        sub = res[res["query_id"] == q["query_id"]]
        np.testing.assert_array_equal(sub["doc_id"].to_numpy(), bd, err_msg=q["query"])
        np.testing.assert_array_equal(
            sub["score"].to_numpy().astype(np.float32), bs, err_msg=q["query"]
        )


# ---------------------------------------------------------------------------
# MultiPhraseQuery (search/MultiPhraseQuery.java; ComplexPhraseQueryParser)
# ---------------------------------------------------------------------------


def test_multi_phrase_parse():
    """ComplexPhrase syntax: wildcard and |-alternation slots in a quoted
    phrase parse to a multi_phrases entry; single-alternative slots stay."""
    from engine.queryparse import parse_query

    q = parse_query('"jo* smith"')
    assert q.multi_phrases == ((( ("jo*",), ("smith",)), 0),)
    q2 = parse_query('"the00|the01 the02"~3')
    assert q2.multi_phrases == ((( ("the00", "the01"), ("the02",)), 3),)
    # field-qualified complex phrase routes every alternative
    q3 = parse_query('title:"jo* smith"')
    assert q3.multi_phrases == ((( ("title:jo*",), ("title:smith",)), 0),)
    # single-slot degrades: patterns -> wildcards, alternatives -> synonyms
    q4 = parse_query('"jo*|jon"')
    assert q4.multi_phrases == ()
    assert "jo*" in q4.wildcards
    assert q4.should == ("jon",)


def test_multi_phrase_union_semantics(corpus):
    """Doc set of "a|b c" == union of the exact phrases "a c" and "b c";
    per-doc freq is the union-positions match count (UnionPostingsEnum)."""
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    n = corpus["doc_count"]
    da, _ = s.search('"the00 the02"', n)
    db, _ = s.search('"the01 the02"', n)
    dm, sm = s.search('"the00|the01 the02"', n)
    assert set(dm.tolist()) == set(da.tolist()) | set(db.tolist())
    assert len(dm) and sm.dtype == np.float32


def test_multi_phrase_singleton_degrades_to_phrase(corpus):
    """All-singleton slot lists rewrite to a plain PhraseQuery
    (MultiPhraseQuery.java rewrite) — scores bit-equal."""
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    n = corpus["doc_count"]
    dp, sp = s.search('"the00 the02"', n)
    # dedup inside a slot leaves one alternative -> degrade path
    dm, sm = s.search('"the00|the00 the02"', n)
    np.testing.assert_array_equal(dp, dm)
    np.testing.assert_array_equal(sp, sm)


def test_multi_phrase_wildcard_expansion(corpus):
    """"the0* the19": the pattern slot expands against the dictionary
    (ComplexPhraseQueryParser.rewrite role); doc set equals the union of
    the expanded exact phrases."""
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    n = corpus["doc_count"]
    expanded = [t for t in s.expand_prefix("the0", 1000)]
    assert len(expanded) >= 5
    expect = set()
    for t in expanded:
        d, _ = s.search(f'"{t} the19"', n)
        expect |= set(d.tolist())
    dm, _ = s.search('"the0* the19"', n)
    assert set(dm.tolist()) == expect


def test_multi_phrase_sloppy(corpus):
    """Sloppy multi-phrase: match set == union of the per-alternative
    sloppy phrase match sets (a selection through the union positions
    always picks ONE alternative's occurrence per slot)."""
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    n = corpus["doc_count"]
    for slop in (1, 3):
        da, _ = s.search(f'"the00 the02"~{slop}', n)
        db, _ = s.search(f'"the01 the02"~{slop}', n)
        dm, _ = s.search(f'"the00|the01 the02"~{slop}', n)
        assert set(dm.tolist()) == set(da.tolist()) | set(db.tolist()), slop


def test_multi_phrase_missing_alternative(corpus):
    """An absent alternative is skipped (zero-docFreq termStates are
    dropped from the stats array); an all-absent slot kills the clause."""
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    n = corpus["doc_count"]
    da, _ = s.search('"the00 the02"', n)
    dm, _ = s.search('"the00|zzznomatch the02"', n)
    assert set(dm.tolist()) == set(da.tolist())
    dd, _ = s.search('"zzznomatch|qqqnomatch the02"', n)
    assert len(dd) == 0


def test_multi_phrase_in_nested_bool(corpus):
    """Multi-phrase inside a parenthesized group evaluates in the
    clause-tree plan and matches the flat equivalent."""
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    n = corpus["doc_count"]
    flat_d, _ = s.search('"the00|the01 the02"', n)
    nest_d, _ = s.search('("the00|the01 the02" zzznomatch)', n)
    assert set(nest_d.tolist()) == set(flat_d.tolist())


def test_sweetspot_similarity_plateau(corpus):
    from engine.bm25 import make_sweetspot_scorer, topk_sort
    from engine.smallfloat import LENGTH_TABLE

    # plateau: lengths inside [min, max] get lengthNorm exactly 1.0
    p = make_sweetspot_scorer(10, 1000, 0, ln_min=3, ln_max=10, steepness=0.5)
    L = LENGTH_TABLE.astype(np.int64)
    inside = (L >= 3) & (L <= 10)
    np.testing.assert_array_equal(p.cache[inside], np.float32(1.0))
    # outside decays per computeLengthNorm: L=20 -> 1/sqrt(0.5*20 + 1)
    i20 = int(np.flatnonzero(L == 20)[0])
    assert p.cache[i20] == np.float32(1.0 / np.sqrt(np.float32(11.0)))
    # pluggable end-to-end: searcher scores == manual sweetspot oracle
    s = IndexSearcher(corpus["manifest"], algorithm="taat", similarity="sweetspot")
    docs, scores = s.search("t00000", 10)
    d, f = corpus["oracle_postings"]["t00000"]
    params = make_sweetspot_scorer(len(d), corpus["doc_count"], corpus["sum_ttf"])
    ed, es = topk_sort(d, params.score(f, corpus["norms"][d]), 10)
    np.testing.assert_array_equal(docs, ed)
    np.testing.assert_array_equal(scores, es)


# A flat disjunction runs the exhaustive TAAT plan, the nested one the
# clause-tree plan; both must honour the collector and the deadline.
FLAT_Q = "the00 the19"
NESTED_Q = "(+the00 +t00001) the02"


def test_time_limiting_collector(corpus):
    """TimeLimitingCollector role, for a flat and a nested query: an
    already-expired deadline raises TimeLimitExceeded with empty partials;
    a generous limit returns the full results; a deadline planted between
    segments carries partial top-k from the finished segments only."""
    import time

    import pytest as _pytest

    from engine.search import TimeLimitExceeded

    for q in (FLAT_Q, NESTED_Q):
        s = IndexSearcher(corpus["manifest"], algorithm="taat")
        full_d, full_s = s.search(q, corpus["doc_count"])

        with _pytest.raises(TimeLimitExceeded) as ei:
            s.search(q, 10, time_limit_ms=0.0)
        assert len(ei.value.docs) == 0, q

        d2, s2 = s.search(q, corpus["doc_count"], time_limit_ms=60_000)
        np.testing.assert_array_equal(d2, full_d)
        np.testing.assert_array_equal(s2, full_s)

        # plant a deadline that expires after the first segment:
        # monkeypatch the segment's postings to burn time, then check
        # partials are a prefix-of-segments result. A new searcher,
        # because a warm weight cache serves the scored postings without
        # a postings call.
        s = IndexSearcher(corpus["manifest"], algorithm="taat")
        seg1 = s.segments[1]
        orig = seg1.postings

        def slow(term):
            time.sleep(0.05)
            return orig(term)

        seg1.postings = slow
        try:
            with _pytest.raises(TimeLimitExceeded) as ei2:
                s.search(q, corpus["doc_count"], time_limit_ms=25.0)
        finally:
            seg1.postings = orig
        part = ei2.value
        assert len(part.docs) > 0, q
        assert (part.docs < s.segments[2].doc_base).all() if len(s.segments) > 2 else True
        # every partial hit scores identically to the full run
        full_map = dict(zip(full_d.tolist(), full_s.tolist()))
        for d, sc in zip(part.docs.tolist(), part.scores.tolist()):
            assert full_map[d] == sc


def test_collector_extension_point(corpus):
    """Collector extension (search/Collector.java role, vectorized): a
    user collector sees EVERY hit of every segment before top-k — total
    observed hits equals the exhaustive match count, and observed scores
    for the winners match the returned top-k bit-exactly. The nested
    query's matches are (the00 ∩ t00001) ∪ the02."""
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    op = corpus["oracle_postings"]

    def docs(t):
        return set(op[t][0].tolist())

    seen: dict[int, float] = {}

    def coll(docs, scores):
        for d, sc in zip(docs.tolist(), scores.tolist()):
            seen[d] = sc

    for q, expected_matches in (
        ("the00 t00000", docs("the00") | docs("t00000")),
        (NESTED_Q, (docs("the00") & docs("t00001")) | docs("the02")),
    ):
        seen.clear()
        d, sc = s.search(q, 10, collector=coll)
        assert set(seen) == expected_matches, q
        for dd, ss in zip(d.tolist(), sc.tolist()):
            assert seen[dd] == ss
    # single-term fast path also feeds the collector
    seen.clear()
    s.search("t00000", 5, collector=coll)
    assert set(seen) == docs("t00000")


def test_nested_query_rescore(corpus):
    """``rescore`` with a nested rerank query combines its second-pass
    scores into the first-pass window."""
    from engine.bm25 import topk_sort

    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    assert s.rewrite(parse_query(NESTED_Q)).nested
    full_d, full_s = s.search(NESTED_Q, corpus["doc_count"])
    full = dict(zip(full_d.tolist(), full_s.tolist()))

    d1, s1 = s.search("the00 the07", 25)
    w = 2.0
    comb = s1.copy()
    for i, doc in enumerate(d1.tolist()):
        if doc in full:
            comb[i] = np.float32(np.float64(s1[i]) + w * np.float64(np.float32(full[doc])))
    assert (comb != s1).any(), "the rerank query must hit the window"
    exp_d, exp_s = topk_sort(d1, comb, 10)
    got_d, got_s = s.rescore(d1, s1, NESTED_Q, weight=w, top_n=10)
    np.testing.assert_array_equal(got_d, exp_d)
    np.testing.assert_array_equal(got_s, exp_s)


def test_time_limit_wand_path(corpus):
    """The deadline also governs the pruning plan (WAND), raising with
    the partial collector state."""
    import pytest as _pytest

    from engine.search import TimeLimitExceeded

    s = IndexSearcher(corpus["manifest"], algorithm="wand")
    with _pytest.raises(TimeLimitExceeded):
        s.search("the00 the19", 10, time_limit_ms=0.0)
    d, sc = s.search("the00 the19", 10, time_limit_ms=60_000)
    d2, s2 = s.search("the00 the19", 10)
    np.testing.assert_array_equal(d, d2)
    np.testing.assert_array_equal(sc, s2)


class _StageFn:
    """A stand-in dataset: ``map_batches`` hands back the stage's batch
    function, so a test runs it in this process, not on some worker."""

    def map_batches(self, fn, **kwargs):
        return fn


def _corpus_dir(corpus) -> str:
    return corpus["manifest"]["partitions"][0]["seg_dir"].rsplit("/partitions/", 1)[0]


def _merged_replica(merged, tmp_path) -> str:
    """A copy of the ``merged`` index that a test may delete from."""
    from engine.replicate import replicate_index

    root = str(tmp_path / "replica")
    replicate_index(merged["norms"]["path"].rsplit("/merged/", 1)[0], root)
    return root


def test_search_dataset_time_allowed(corpus):
    """Solr timeAllowed + partialResults=true at the distributed stage:
    an expired budget yields flagged partial rows instead of raising; a
    generous budget yields the normal results with partial=false."""
    import pyarrow as pa

    from engine.search import search_dataset

    index_dir = _corpus_dir(corpus)
    qtbl = pa.table(
        {
            "query_id": pa.array([0, 1], type=pa.int64()),
            "query": pa.array(["the00 the19", "t00000"], type=pa.string()),
            "k": pa.array([10, 10], type=pa.int64()),
        }
    )
    ok = search_dataset(_StageFn(), index_dir, time_limit_ms=60_000)(qtbl)
    assert "partial" in ok.column_names
    assert not any(ok.column("partial").to_pylist())
    assert ok.num_rows == 20

    expired = search_dataset(_StageFn(), index_dir, time_limit_ms=0.0)(qtbl)
    assert all(expired.column("partial").to_pylist())
    assert expired.num_rows == 0 or expired.num_rows < 20
    # without a budget the schema is unchanged (no partial column)
    plain = search_dataset(_StageFn(), index_dir)(qtbl)
    assert "partial" not in plain.column_names


def test_search_dataset_rejects_other_modes(corpus):
    from engine.search import search_dataset

    with pytest.raises(ValueError, match="actors"):
        search_dataset(_StageFn(), _corpus_dir(corpus), mode="actors")


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("emit_latency", [False, True])
def test_search_dataset_matches_searcher(corpus, emit_latency):
    """The search_dataset stage equals IndexSearcher.search row for row,
    float32 score bits included, under its fixed schema."""
    import pyarrow as pa
    import ray
    import ray.data

    from engine.search import search_dataset

    queries = [
        ("the00", 10), ("the19 the03", 25), ("+t00000 +t00001", 10),
        ("the00 -t00000", 5), ('"the00 the01"', 10), ("tiekey", 50),
        ("zzznomatch", 10), ("t00003 the02", 1),
    ]
    items = [{"query_id": i, "query": q, "k": k} for i, (q, k) in enumerate(queries)]
    s = IndexSearcher(corpus["manifest"])
    exp_qid, exp_rank, exp_doc, exp_score = [], [], [], []
    for it in items:
        d, sc = s.search(it["query"], it["k"])
        exp_qid += [it["query_id"]] * len(d)
        exp_rank += list(range(len(d)))
        exp_doc += d.tolist()
        exp_score.append(sc)
    exp_bits = np.concatenate(exp_score).astype(np.float32).view(np.uint32)
    fields = [("query_id", pa.int64()), ("rank", pa.int32()), ("doc_id", pa.int64()),
              ("score", pa.float32())]
    if emit_latency:
        fields.append(("latency_ms", pa.float64()))
    ds = ray.data.from_items(items, override_num_blocks=3)
    res = search_dataset(ds, _corpus_dir(corpus), batch_size=3, emit_latency=emit_latency)
    tbl = pa.concat_tables([t for t in ray.get(res.to_arrow_refs()) if t.num_rows])
    assert tbl.schema == pa.schema(fields)
    tbl = tbl.sort_by([("query_id", "ascending"), ("rank", "ascending")])
    assert tbl.column("query_id").to_pylist() == exp_qid
    assert tbl.column("rank").to_pylist() == exp_rank
    assert tbl.column("doc_id").to_pylist() == exp_doc
    got_bits = tbl.column("score").to_numpy().view(np.uint32)
    np.testing.assert_array_equal(got_bits, exp_bits)


def test_search_dataset_sees_deletes(merged, tmp_path):
    """A search stage built after ``delete_by_term`` on the same index
    dir answers from the rewritten manifest: bit-identical to a new
    searcher over it, with no deleted doc, though this process already
    holds a searcher opened before the delete."""
    import pyarrow as pa

    from engine.checkpoint import load_merge_manifest
    from engine.deletes import delete_by_term, deleted_docs
    from engine.search import search_dataset

    root = _merged_replica(merged, tmp_path)
    qtbl = pa.table(
        {
            "query_id": pa.array(range(len(QUERIES)), type=pa.int64()),
            "query": pa.array([q for q, _ in QUERIES], type=pa.string()),
            "k": pa.array([k for _, k in QUERIES], type=pa.int64()),
        }
    )
    before = search_dataset(_StageFn(), root, mode="tasks")(qtbl)
    t1 = before.filter(pa.compute.equal(before.column("query_id"), 3))
    assert t1.num_rows == 10  # "t00000" hits, soon deleted

    assert delete_by_term(root, "t00000") > 0
    dead = deleted_docs(root)
    after = search_dataset(_StageFn(), root, mode="tasks")(qtbl)
    assert not np.isin(after.column("doc_id").to_numpy(), dead).any()
    fresh = IndexSearcher(load_merge_manifest(root))
    for qid, (q, k) in enumerate(QUERIES):
        got = after.filter(pa.compute.equal(after.column("query_id"), qid))
        d, sc = fresh.search(q, k)
        assert got.column("rank").to_pylist() == list(range(len(d))), q
        np.testing.assert_array_equal(got.column("doc_id").to_numpy(), d, err_msg=q)
        np.testing.assert_array_equal(
            got.column("score").to_numpy().view(np.uint32),
            sc.astype(np.float32).view(np.uint32),
            err_msg=q,
        )


def test_cached_searcher_keyed_by_manifest_content(merged, tmp_path):
    """One searcher per manifest content: equal manifests (separate
    objects) share it, a rewritten ``deletes`` opens a new one, and the
    shard views of a manifest read its full searcher's indexes."""
    import copy

    from engine.checkpoint import load_merge_manifest
    from engine.deletes import delete_by_term
    from engine.search import cached_searcher

    root = _merged_replica(merged, tmp_path)
    m = load_merge_manifest(root)
    full = cached_searcher(m)
    assert cached_searcher(copy.deepcopy(m)) is full
    assert cached_searcher(load_merge_manifest(root)) is full

    delete_by_term(root, "t00000")
    m_del = load_merge_manifest(root)
    assert m_del["deletes"] != m.get("deletes")
    assert cached_searcher(m_del) is not full
    assert cached_searcher(m_del)._deleted is not None

    shard = cached_searcher(copy.deepcopy(m), shard=(0, 2))
    assert shard is cached_searcher(m, shard=(0, 2))
    assert shard is not cached_searcher(m, shard=(1, 2))
    assert shard is not full
    assert shard._deleted is full._deleted
    for fld, (segs, _, _) in full.fields.items():
        assert shard.fields[fld][0][0].index is segs[0], fld


def test_cached_searcher_evicts_least_recent_manifest(merged, tmp_path):
    """The searcher cache holds at most ``_SEARCHERS_MAX`` manifests: after
    one more distinct manifest (``delete_by_term`` generations of one
    index), the least recently used one is gone with its shard views, and
    the newest is served from the cache."""
    from engine import search as search_mod
    from engine.checkpoint import load_merge_manifest
    from engine.deletes import delete_by_term

    root = _merged_replica(merged, tmp_path)
    first = load_merge_manifest(root)
    first_digest = search_mod.manifest_digest(first)
    first_full = search_mod.cached_searcher(first)
    search_mod.cached_searcher(first, shard=(0, 2))
    assert set(search_mod._SEARCHERS[first_digest]) == {None, (0, 2)}
    # a delete that adds no new doc leaves the manifest as it was, so
    # delete rare terms until there are _SEARCHERS_MAX new manifests
    seg = first_full.segments[0]
    rare = (t for t in seg.iter_terms() if seg.term_stats(t)[0] == 1)
    digests = [first_digest]
    while len(digests) <= search_mod._SEARCHERS_MAX:
        delete_by_term(root, next(rare))
        newest = load_merge_manifest(root)
        if search_mod.manifest_digest(newest) not in digests:
            digests.append(search_mod.manifest_digest(newest))
            newest_full = search_mod.cached_searcher(newest)
    assert list(search_mod._SEARCHERS) == digests[1:]
    assert first_digest not in search_mod._SEARCHERS
    assert search_mod.cached_searcher(newest) is newest_full
    assert search_mod.cached_searcher(first) is not first_full


def test_search_after_pages_equal_big_topk(corpus):
    """IndexSearcher.searchAfter (search/IndexSearcher.java:416-433):
    chained pages of k reproduce one big top-(p*k) exactly — the
    (score desc, docID asc) order is total, so the page boundary mark
    partitions it without overlap or loss, including across score-tie
    clusters (the 'tiekey' docID tie-break)."""
    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    for query in ["the00", "the00 the07 the19", "t00003 the02", "tiekey",
                  "+t00000 t00001 t00002", "the00 -t00000"]:
        big_d, big_s = s.search(query, 21)
        got_d: list[int] = []
        got_s: list[float] = []
        after = None
        for _ in range(3):
            d, sc = s.search_after(query, after, k=7)
            got_d.extend(d.tolist())
            got_s.extend(sc.tolist())
            if len(d) < 7:
                break
            after = (float(sc[-1]), int(d[-1]))
        np.testing.assert_array_equal(np.array(got_d), big_d, err_msg=query)
        np.testing.assert_array_equal(
            np.array(got_s, dtype=np.float32), big_s, err_msg=query
        )


def test_search_after_none_and_exhausted(corpus):
    """after=None is page 1 (plain search); paging past the last hit
    returns empty, not an error."""
    s = IndexSearcher(corpus["manifest"])
    d0, s0 = s.search("s000300", 5)
    d1, s1 = s.search_after("s000300", None, k=5)
    np.testing.assert_array_equal(d0, d1)
    np.testing.assert_array_equal(s0, s1)
    assert len(d0) >= 1
    last = (float(s0[-1]), int(d0[-1]))
    d2, _ = s.search_after("s000300", last, k=5)
    assert len(d2) == 0 or d2[0] not in set(d0.tolist())


def test_search_after_nested_query(corpus):
    """The nested clause-tree plan pages through the exhaustive-collect
    fallback: chained pages == one big top-k for a parenthesized query."""
    s = IndexSearcher(corpus["manifest"])
    query = "+the00 (t00000 t00001)"
    big_d, big_s = s.search(query, 14)
    d1, s1 = s.search_after(query, None, k=7)
    assert len(d1) == min(7, len(big_d))
    after = (float(s1[-1]), int(d1[-1]))
    d2, s2 = s.search_after(query, after, k=7)
    np.testing.assert_array_equal(np.concatenate([d1, d2]), big_d)
    np.testing.assert_array_equal(
        np.concatenate([s1, s2]).astype(np.float32), big_s
    )


def test_rescore_rerank_combine(corpus):
    """QueryRescorer.rescore (search/QueryRescorer.java:51-131) with the
    Solr ReRank combine (ReRankQParserPlugin.java:86-92): window docs that
    match the rerank query get (float)((double)first + w*(double)second),
    non-matching window docs keep their first-pass float bit-exactly, and
    the result is the re-sorted window top-n."""
    from engine.bm25 import topk_sort

    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    op = corpus["oracle_postings"]
    d1, s1 = s.search("the00 the07", 25)

    # brute-force second-pass scores for 't00000' from the oracle postings
    docs2, freqs2 = op["t00000"]
    p2 = make_term_scorer(len(docs2), s.doc_count, s.sum_ttf)
    sc2 = p2.score(np.asarray(freqs2), corpus["norms"][np.asarray(docs2)])
    second = dict(zip(np.asarray(docs2).tolist(), sc2.tolist()))

    w = 2.5
    comb = s1.copy()
    for i, doc in enumerate(d1.tolist()):
        if doc in second:
            comb[i] = np.float32(
                np.float64(s1[i]) + w * np.float64(np.float32(second[doc]))
            )
    exp_d, exp_s = topk_sort(d1, comb, 10)
    got_d, got_s = s.rescore(d1, s1, "t00000", weight=w, top_n=10)
    np.testing.assert_array_equal(got_d, exp_d)
    np.testing.assert_array_equal(got_s, exp_s)

    # a rerank query with zero window overlap leaves the order untouched
    nd, ns = s.rescore(d1, s1, "zzznomatch", weight=9.0, top_n=10)
    np.testing.assert_array_equal(nd, d1[:10])
    np.testing.assert_array_equal(ns, s1[:10])


@pytest.mark.usefixtures("ray_session")
def test_covering_query_entry_sf0001():
    """CoveringQuery (sandbox/search/CoveringQuery.java): driver entry vs
    the DuckDB replay at sf0.001, plus the per-doc minMatch invariant
    (every winner matches >= 1 + n_chars % 3 of the clauses)."""
    import duckdb

    import __ray_entry__ as e

    got = e.queries()["covering_query_topk"]("/root/testdata/sf0.001").to_pandas()
    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        "read_parquet('/root/testdata/sf0.001/documents.parquet')"
    )
    exp = con.execute(e.oracle_sql()["covering_query_topk"]).fetchdf()
    cols = sorted(got.columns)
    a = got[cols].sort_values(cols).reset_index(drop=True)
    b = exp[cols].sort_values(cols).reset_index(drop=True)
    assert a.astype(object).map(repr).equals(b.astype(object).map(repr))
    assert len(a) > 0

    # invariant: each winner matches at least minMatch(doc) clauses
    chk = con.execute(
        """
        WITH tok AS (SELECT doc_id,
                            regexp_extract_all(lower(text), '[a-z0-9]+') AS ts
                     FROM documents),
        hits AS (SELECT doc_id, count(DISTINCT t) AS c FROM (
            SELECT doc_id, unnest(ts) AS t FROM tok
        ) WHERE t IN ('data', 'join', 'merge', 'query') GROUP BY doc_id)
        SELECT h.doc_id, h.c, 1 + length(d.text) % 3 AS mm
        FROM hits h JOIN documents d USING (doc_id)
        """
    ).fetchdf()
    mm = dict(zip(chk["doc_id"], zip(chk["c"], chk["mm"])))
    for doc in got["doc_id"]:
        c, m = mm[doc]
        assert c >= m, (doc, c, m)


@pytest.mark.usefixtures("ray_session")
def test_elevate_topk_pinning():
    """QueryElevationComponent: pins lead in config order and are marked
    elevated, the excluded doc never appears, organic order below the
    pins equals the plain ranking with pinned/excluded docs removed."""
    import __ray_entry__ as e
    from engine.checkpoint import load_merge_manifest
    from engine.pipelines import elevate_topk, get_index
    from engine.search import IndexSearcher

    sf = "/root/testdata/sf0.001"
    out = elevate_topk(sf).to_pandas()
    assert out["doc_id"].tolist()[:2] == [5, 2]
    assert out["elevated"].tolist()[:2] == [True, True]
    assert not out["elevated"].tolist()[2:].count(True)
    assert 0 not in set(out["doc_id"])
    idx = get_index(sf)
    s = IndexSearcher(load_merge_manifest(idx["index_dir"]))
    d, _ = s.search("data join", k=13)
    organic = [x for x in d.tolist() if x not in {5, 2, 0}][:8]
    assert out["doc_id"].tolist()[2:] == organic


def test_leading_wildcard_reversed_dictionary(corpus, merged):
    """*suffix routes through expand_suffix (reversed-dictionary seek,
    Solr ReversedWildcardFilterFactory role) and must equal both the
    explicit disjunction and a full-scan fnmatch rewrite."""
    import fnmatch

    s = IndexSearcher(corpus["manifest"], algorithm="taat")
    seg = s.segments[0]
    all_terms = list(seg.iter_terms())
    # expand_suffix == full-scan endswith filter, forward-sorted
    for suf in ["01", "e05", "zzz-none"]:
        exp = sorted(t for t in all_terms if t.endswith(suf))
        assert seg.expand_suffix(suf, 65536) == exp
    # reversed dict is built once and cached
    assert seg.expand_suffix("01", 8) is not None
    cached = seg._rev_terms
    seg.expand_suffix("02", 8)
    assert seg._rev_terms is cached
    # search equivalence: *e05 == disjunction of every term ending e05
    d1, s1 = s.search("*e05", 10)
    terms = sorted({t for t in all_terms if fnmatch.fnmatchcase(t, "*e05")})
    d2, s2 = s.search(" ".join(terms), 10)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(s1, s2)
    # pattern with neither prefix nor suffix still works (full-scan path)
    d3, _ = s.search("*e05*", 10)
    assert len(d3) >= len(d1)
    # the shard fan-out's stats searcher, over the merged dictionary,
    # rewrites a leading wildcard to the same clauses in the same order
    stats = IndexSearcher(merged)
    for pat in ["*e05", "*01", "*e05*"]:
        q = parse_query(pat)
        assert stats.rewrite(q) == s.rewrite(q), pat


@pytest.mark.parametrize(
    "pat",
    ["*01", "[t00010 TO t00020]", "/t0001[0-9]/", "[t01480 TO t01490]", "/t0148[0-9]/"],
)
def test_rewrite_clause_order_ignores_segmentation(corpus, merged, pat):
    """Wildcard, range and regexp expansions sort the matches of every
    segment before they cap them, so a searcher over the 4 partitions and
    one over the merged index rewrite to the same should tuple, and the
    float64 accumulation over it gives bit-identical float32 scores.
    (t01486 first occurs after the first partition, so the last two
    patterns match terms that partitions list in different orders.)"""
    parts = IndexSearcher(corpus["manifest"], algorithm="taat")
    whole = IndexSearcher(merged, algorithm="taat")
    q = parse_query(pat)
    by_parts, by_whole = parts.rewrite(q), whole.rewrite(q)
    assert len(by_parts.should) > 1
    assert by_parts.should == by_whole.should == tuple(sorted(by_whole.should))
    d1, s1 = parts.search(pat, 50)
    d2, s2 = whole.search(pat, 50)
    np.testing.assert_array_equal(d1, d2)
    assert s1.dtype == s2.dtype == np.float32
    np.testing.assert_array_equal(s1.view(np.uint32), s2.view(np.uint32))


def test_reverse_string_filter_goldens():
    from engine.filters import FILTERS, reverse_string

    assert reverse_string("country") == "yrtnuoc"
    assert reverse_string("country", chr(1)) == chr(1) + "yrtnuoc"
    assert FILTERS["reverse"]("abc") == "cba"
    assert FILTERS["reverse"]("") == ""


def test_lmdirichlet_similarity(corpus):
    """LMDirichletSimilarity: scalar op-order goldens + clamp-at-zero +
    end-to-end rank equality with a brute-force recomputation."""
    import math

    from engine.bm25 import make_lmdirichlet_scorer
    from engine.smallfloat import LENGTH_TABLE

    sttf, dc = corpus["sum_ttf"], corpus["doc_count"]
    docs, freqs = corpus["oracle_postings"]["t00005"]
    params = make_lmdirichlet_scorer(len(docs), dc, sttf, ttf=int(freqs.sum()))
    got = params.score(freqs, corpus["norms"][docs])
    p = (float(freqs.sum()) + 1.0) / (float(sttf) + 1.0)
    for i in range(min(20, len(docs))):
        dl = float(LENGTH_TABLE[corpus["norms"][docs][i]])
        s = 1.0 * (
            math.log(1.0 + float(freqs[i]) / (2000.0 * p))
            + math.log(2000.0 / (dl + 2000.0))
        )
        assert got[i] == np.float32(max(0.0, s))
    # negative smoothed scores clamp to 0 (rare term in a long doc)
    tiny = make_lmdirichlet_scorer(1, dc, sttf, ttf=1)
    long_norm = np.array([255], dtype=np.uint8)  # longest length bucket
    assert tiny.score(np.array([1]), long_norm)[0] == np.float32(0.0)
    # searcher end-to-end: sum-in-double of clamped f32 clauses
    s = IndexSearcher(corpus["manifest"], similarity="lmdirichlet")
    d, sc = s.search("t00005 t00012", 10)
    op = corpus["oracle_postings"]
    acc: dict[int, float] = {}
    for t in ("t00005", "t00012"):
        td, tf = op[t]
        pr = make_lmdirichlet_scorer(len(td), dc, sttf, ttf=int(tf.sum()))
        for doc, v in zip(td.tolist(), pr.score(tf, corpus["norms"][td]).tolist()):
            acc[doc] = acc.get(doc, 0.0) + float(np.float32(v))
    exp = sorted(
        ((np.float32(v), -doc) for doc, v in acc.items()), reverse=True
    )[:10]
    np.testing.assert_array_equal(sc, np.array([v for v, _ in exp], np.float32))
    np.testing.assert_array_equal(d, np.array([-nd for _, nd in exp], np.int64))


def test_lmjelinekmercer_and_boolean_similarity(corpus):
    """LM-JM op-order goldens (the float (1-lambda) subtlety) and
    BooleanSimilarity count-of-matching-clauses scoring."""
    import math

    from engine.bm25 import make_boolean_scorer, make_lmjelinekmercer_scorer
    from engine.smallfloat import LENGTH_TABLE

    sttf, dc = corpus["sum_ttf"], corpus["doc_count"]
    docs, freqs = corpus["oracle_postings"]["t00005"]
    params = make_lmjelinekmercer_scorer(len(docs), dc, sttf, ttf=int(freqs.sum()))
    got = params.score(freqs, corpus["norms"][docs])
    p = (float(freqs.sum()) + 1.0) / (float(sttf) + 1.0)
    oml = float(np.float32(np.float32(1.0) - np.float32(0.1)))
    assert oml != 0.9  # the float32 subtraction is NOT exactly 0.9
    for i in range(min(20, len(docs))):
        dl = float(LENGTH_TABLE[corpus["norms"][docs][i]])
        x = (oml * float(freqs[i])) / dl
        s = 1.0 * math.log(1.0 + x / (float(np.float32(0.1)) * p))
        assert got[i] == np.float32(s)
    # BooleanSimilarity: every match scores boost; disjunction == count
    sb = IndexSearcher(corpus["manifest"], similarity="boolean")
    d, sc = sb.search("t00005 t00012", 10)
    op = corpus["oracle_postings"]
    both = set(op["t00005"][0].tolist()) & set(op["t00012"][0].tolist())
    if both:
        assert np.float32(2.0) in sc
    assert set(np.unique(sc)).issubset({np.float32(1.0), np.float32(2.0)})
    bp = make_boolean_scorer(1, dc, sttf, boost=np.float32(2.5))
    assert list(bp.score(np.array([1, 7]), np.array([3, 200]))) == [
        np.float32(2.5),
        np.float32(2.5),
    ]


def test_dfi_similarity(corpus):
    """DFISimilarity (ChiSquared): scalar op-order goldens, zero when
    freq <= expected, and end-to-end rank equality vs brute force."""
    import math

    from engine.bm25 import make_dfi_scorer
    from engine.smallfloat import LENGTH_TABLE

    sttf, dc = corpus["sum_ttf"], corpus["doc_count"]
    docs, freqs = corpus["oracle_postings"]["t00005"]
    ttf = int(freqs.sum())
    params = make_dfi_scorer(len(docs), dc, sttf, ttf=ttf)
    got = params.score(freqs, corpus["norms"][docs])
    for i in range(min(20, len(docs))):
        dl = float(LENGTH_TABLE[corpus["norms"][docs][i]])
        e = ((float(ttf) + 1.0) * dl) / (float(sttf) + 1.0)
        f = float(freqs[i])
        if f <= e:
            assert got[i] == np.float32(0.0)
        else:
            m = ((f - e) * (f - e)) / e
            assert got[i] == np.float32(1.0 * (math.log(m + 1.0) / math.log(2.0)))
    # a common term in a long doc: freq 1 <= expected -> exactly 0
    common = make_dfi_scorer(dc, dc, sttf, ttf=sttf // 2)
    assert common.score(np.array([1]), np.array([255], np.uint8))[0] == np.float32(0.0)
    # searcher end-to-end vs brute-force double-sum of f32 clauses
    s = IndexSearcher(corpus["manifest"], similarity="dfi")
    d, sc = s.search("t00005 t00012", 10)
    op = corpus["oracle_postings"]
    acc: dict[int, float] = {}
    for t in ("t00005", "t00012"):
        td, tf = op[t]
        pr = make_dfi_scorer(len(td), dc, sttf, ttf=int(tf.sum()))
        for doc, v in zip(td.tolist(), pr.score(tf, corpus["norms"][td]).tolist()):
            acc[doc] = acc.get(doc, 0.0) + float(np.float32(v))
    exp = sorted(((np.float32(v), -doc) for doc, v in acc.items()), reverse=True)[:10]
    np.testing.assert_array_equal(sc, np.array([v for v, _ in exp], np.float32))
    np.testing.assert_array_equal(d, np.array([-nd for _, nd in exp], np.int64))


def test_axiomatic_similarity(corpus):
    """AxiomaticF2EXP: scalar op-order goldens (s/k float promotion,
    boost-after-product order) and end-to-end rank equality."""
    import math

    from engine.bm25 import make_axiomatic_scorer
    from engine.smallfloat import LENGTH_TABLE

    sttf, dc = corpus["sum_ttf"], corpus["doc_count"]
    docs, freqs = corpus["oracle_postings"]["t00005"]
    params = make_axiomatic_scorer(len(docs), dc, sttf)
    got = params.score(freqs, corpus["norms"][docs])
    s_d = float(np.float32(0.25))
    k_d = float(np.float32(0.35))
    avgdl = float(sttf) / float(dc)
    idf = float(np.power((float(dc) + 1.0) / float(len(docs)), k_d))
    for i in range(min(20, len(docs))):
        dl = float(LENGTH_TABLE[corpus["norms"][docs][i]])
        f = float(freqs[i])
        tfln = f / ((f + s_d) + (s_d * dl) / avgdl)
        assert got[i] == np.float32((tfln * idf) * 1.0)
    # boost multiplies AFTER the component product (Axiomatic.java:110)
    b = make_axiomatic_scorer(len(docs), dc, sttf, boost=np.float32(2.5))
    f0 = float(freqs[0])
    dl0 = float(LENGTH_TABLE[corpus["norms"][docs][0]])
    tfln0 = f0 / ((f0 + s_d) + (s_d * dl0) / avgdl)
    assert b.score(freqs[:1], corpus["norms"][docs][:1])[0] == np.float32(
        (tfln0 * idf) * float(np.float32(2.5))
    )
    # searcher end-to-end vs brute-force double-sum of f32 clauses
    s = IndexSearcher(corpus["manifest"], similarity="axiomatic")
    d, sc = s.search("t00005 t00012", 10)
    op = corpus["oracle_postings"]
    acc: dict[int, float] = {}
    for t in ("t00005", "t00012"):
        td, tf = op[t]
        pr = make_axiomatic_scorer(len(td), dc, sttf)
        for doc, v in zip(td.tolist(), pr.score(tf, corpus["norms"][td]).tolist()):
            acc[doc] = acc.get(doc, 0.0) + float(np.float32(v))
    exp = sorted(((np.float32(v), -doc) for doc, v in acc.items()), reverse=True)[:10]
    np.testing.assert_array_equal(sc, np.array([v for v, _ in exp], np.float32))
    np.testing.assert_array_equal(d, np.array([-nd for _, nd in exp], np.int64))


def test_ib_similarity(corpus):
    """IBSimilarity(LL, DF, H2): scalar op-order goldens (float lambda
    promotion, ln/ln(2) tfn factor) and end-to-end rank equality."""
    import math

    from engine.bm25 import make_ib_scorer
    from engine.smallfloat import LENGTH_TABLE

    sttf, dc = corpus["sum_ttf"], corpus["doc_count"]
    docs, freqs = corpus["oracle_postings"]["t00005"]
    params = make_ib_scorer(len(docs), dc, sttf)
    got = params.score(freqs, corpus["norms"][docs])
    lam = float(np.float32((float(len(docs)) + 1.0) / (float(dc) + 1.0)))
    avgdl = float(sttf) / float(dc)
    for i in range(min(20, len(docs))):
        dl = float(LENGTH_TABLE[corpus["norms"][docs][i]])
        tfn = float(freqs[i]) * (math.log(1.0 + (1.0 * avgdl) / dl) / math.log(2.0))
        assert got[i] == np.float32(1.0 * -math.log(lam / (tfn + lam)))
    # lambda == 1 nextDown guard: df == N docs
    all_df = make_ib_scorer(dc, dc, sttf)
    v = all_df.score(np.array([1]), np.array([100], np.uint8))
    assert np.isfinite(v).all() and v[0] >= 0
    # searcher end-to-end vs brute-force double-sum of f32 clauses
    s = IndexSearcher(corpus["manifest"], similarity="ib")
    d, sc = s.search("t00005 t00012", 10)
    op = corpus["oracle_postings"]
    acc: dict[int, float] = {}
    for t in ("t00005", "t00012"):
        td, tf = op[t]
        pr = make_ib_scorer(len(td), dc, sttf)
        for doc, v2 in zip(td.tolist(), pr.score(tf, corpus["norms"][td]).tolist()):
            acc[doc] = acc.get(doc, 0.0) + float(np.float32(v2))
    exp = sorted(((np.float32(v2), -doc) for doc, v2 in acc.items()), reverse=True)[:10]
    np.testing.assert_array_equal(sc, np.array([v2 for v2, _ in exp], np.float32))
    np.testing.assert_array_equal(d, np.array([-nd for _, nd in exp], np.int64))


def test_dfr_similarity(corpus):
    """DFR I(F)L2: scalar op-order goldens (A scalar, the monotone
    rewrite's 1 - 1/(1+tfn) shape) and end-to-end rank equality."""
    import math

    from engine.bm25 import make_dfr_scorer
    from engine.smallfloat import LENGTH_TABLE

    sttf, dc = corpus["sum_ttf"], corpus["doc_count"]
    docs, freqs = corpus["oracle_postings"]["t00005"]
    ttf = int(freqs.sum())
    params = make_dfr_scorer(len(docs), dc, sttf, ttf=ttf)
    got = params.score(freqs, corpus["norms"][docs])
    avgdl = float(sttf) / float(dc)
    A = math.log(1.0 + float(dc + 1) / (float(ttf) + 0.5)) / math.log(2.0)
    for i in range(min(20, len(docs))):
        dl = float(LENGTH_TABLE[corpus["norms"][docs][i]])
        tfn = float(freqs[i]) * (math.log(1.0 + (1.0 * avgdl) / dl) / math.log(2.0))
        assert got[i] == np.float32(1.0 * ((A * 1.0) * (1.0 - 1.0 / (1.0 + tfn))))
    # score is monotone non-decreasing in freq at fixed norm
    nrm = np.full(4, corpus["norms"][docs][0], np.uint8)
    mono = params.score(np.array([1, 2, 5, 50]), nrm)
    assert (np.diff(mono) >= 0).all()
    # searcher end-to-end vs brute-force double-sum of f32 clauses
    s = IndexSearcher(corpus["manifest"], similarity="dfr")
    d, sc = s.search("t00005 t00012", 10)
    op = corpus["oracle_postings"]
    acc: dict[int, float] = {}
    for t in ("t00005", "t00012"):
        td, tf = op[t]
        pr = make_dfr_scorer(len(td), dc, sttf, ttf=int(tf.sum()))
        for doc, v in zip(td.tolist(), pr.score(tf, corpus["norms"][td]).tolist()):
            acc[doc] = acc.get(doc, 0.0) + float(np.float32(v))
    exp = sorted(((np.float32(v), -doc) for doc, v in acc.items()), reverse=True)[:10]
    np.testing.assert_array_equal(sc, np.array([v for v, _ in exp], np.float32))
    np.testing.assert_array_equal(d, np.array([-nd for _, nd in exp], np.int64))


def test_multi_and_perfield_similarity(corpus):
    """MultiSimilarity float-accumulated sub-scores; per-field similarity
    map routes title clauses to a different scorer than body clauses."""
    from engine.bm25 import make_classic_scorer, make_multi_scorer, make_term_scorer

    sttf, dc = corpus["sum_ttf"], corpus["doc_count"]
    docs, freqs = corpus["oracle_postings"]["t00005"]
    multi = make_multi_scorer(len(docs), dc, sttf, ttf=int(freqs.sum()))
    b = make_term_scorer(len(docs), dc, sttf)
    c = make_classic_scorer(len(docs), dc, sttf)
    nb = corpus["norms"][docs]
    got = multi.score(freqs, nb)
    exp = np.add(
        np.add(np.zeros(len(docs), np.float32), b.score(freqs, nb), dtype=np.float32),
        c.score(freqs, nb),
        dtype=np.float32,
    )
    np.testing.assert_array_equal(got, exp)
    # per-field map: body under bm25 == plain bm25 searcher
    s_map = IndexSearcher(corpus["manifest"], similarity={"": "bm25", "title": "classic"})
    s_b = IndexSearcher(corpus["manifest"])
    d1, sc1 = s_map.search("t00005 t00012", 10)
    d2, sc2 = s_b.search("t00005 t00012", 10)
    np.testing.assert_array_equal(d1, d2)
    np.testing.assert_array_equal(sc1, sc2)


def test_blended_term_query(corpus):
    """BlendedTermQuery: both terms score under the shared blended stats
    (df = max, ttf = sum) and combine via dismax 0.01 — equal to a
    hand-built recomputation; differs from the unblended dismax."""
    from engine.bm25 import make_term_scorer

    s = IndexSearcher(corpus["manifest"])
    terms = ("t00005", "t00012")
    stats = [s.global_term_stats(t) for t in terms]
    df_b = max(d for d, _ in stats)
    ttf_b = sum(t for _, t in stats)
    s.stats_override = {t: (df_b, ttf_b) for t in terms}
    d, sc = s.search_dismax(" ".join(terms), 10, tie_breaker=0.01)
    # brute recomputation with the SHARED blended weight
    dc, sttf = corpus["doc_count"], corpus["sum_ttf"]
    pr = make_term_scorer(df_b, dc, sttf)
    op = corpus["oracle_postings"]
    mx: dict[int, np.float32] = {}
    sm: dict[int, float] = {}
    for t in terms:
        td, tf = op[t]
        for doc, v in zip(td.tolist(), pr.score(tf, corpus["norms"][td]).tolist()):
            v32 = np.float32(v)
            mx[doc] = max(mx.get(doc, np.float32(0.0)), v32)
            sm[doc] = sm.get(doc, 0.0) + float(v32)
    tie = np.float32(0.01)
    exp = {}
    for doc in mx:
        y = np.multiply(tie, np.float32(sm[doc] - float(np.float64(mx[doc]))), dtype=np.float32)
        exp[doc] = np.float32(mx[doc] + y)
    top = sorted(((v, -doc) for doc, v in exp.items()), reverse=True)[:10]
    np.testing.assert_array_equal(sc, np.array([v for v, _ in top], np.float32))
    np.testing.assert_array_equal(d, np.array([-nd for _, nd in top], np.int64))
    # blending changes scores vs the unblended dismax (df differ)
    s2 = IndexSearcher(corpus["manifest"])
    d2, sc2 = s2.search_dismax(" ".join(terms), 10, tie_breaker=0.01)
    assert not np.array_equal(sc, sc2)


def test_explain(corpus):
    """explain(): clause-sum identity with search() for every top doc,
    MUST_NOT rejection, missing-MUST rejection, non-match doc."""
    s = IndexSearcher(corpus["manifest"])
    q = "t00005 t00012"
    d, sc = s.search(q, 10)
    for doc, total in zip(d.tolist(), sc.tolist()):
        ex = s.explain(q, doc)
        assert ex["match"] and ex["value"] == np.float32(total)
        assert ex["details"] and all(det["freq"] > 0 for det in ex["details"])
        # clause f64 sum cast f32 == value
        acc = 0.0
        for det in ex["details"]:
            acc += float(det["value"])
        assert np.float32(acc) == ex["value"]
    # a doc outside the match set explains as no-match
    all_match = set()
    for t in ("t00005", "t00012"):
        all_match.update(corpus["oracle_postings"][t][0].tolist())
    non = next(i for i in range(corpus["doc_count"]) if i not in all_match)
    exn = s.explain(q, non)
    assert not exn["match"] and exn["value"] == np.float32(0.0)
    # prohibited clause: a doc matching the must_not explains as no-match
    doc_n = corpus["oracle_postings"]["t00012"][0][0]
    exb = s.explain("t00012 -t00012", int(doc_n))
    assert not exb["match"] and "prohibited" in exb["description"]
    # missing MUST clause
    only5 = [i for i in corpus["oracle_postings"]["t00005"][0].tolist()
             if i not in set(corpus["oracle_postings"]["t00012"][0].tolist())]
    exm = s.explain("+t00012 t00005", int(only5[0]))
    assert not exm["match"]


def test_dismax_boosts(corpus):
    """Per-clause boosts in dismax (the edismax qf shape): a boosted
    clause scales exactly f32(boost * idf) in the weight; boost 1 maps
    to the unboosted result."""
    from engine.bm25 import make_term_scorer

    s = IndexSearcher(corpus["manifest"])
    d0, sc0 = s.search_dismax("t00005 t00012", 10, tie_breaker=0.1)
    d1, sc1 = s.search_dismax(
        "t00005 t00012", 10, tie_breaker=0.1, boosts={"t00005": 1.0}
    )
    np.testing.assert_array_equal(d0, d1)
    np.testing.assert_array_equal(sc0, sc1)
    # boost 3 on one clause == recompute with a boosted scorer
    dc, sttf = corpus["doc_count"], corpus["sum_ttf"]
    op = corpus["oracle_postings"]
    d2, sc2 = s.search_dismax(
        "t00005 t00012", 10, tie_breaker=0.0, boosts={"t00005": 3.0}
    )
    mx: dict[int, np.float32] = {}
    for t, b in (("t00005", 3.0), ("t00012", 1.0)):
        td, tf = op[t]
        pr = make_term_scorer(len(td), dc, sttf, boost=np.float32(b))
        for doc, v in zip(td.tolist(), pr.score(tf, corpus["norms"][td]).tolist()):
            mx[doc] = max(mx.get(doc, np.float32(0.0)), np.float32(v))
    exp = sorted(((np.float32(0.0) + v, -doc) for doc, v in mx.items()), reverse=True)[:10]
    np.testing.assert_array_equal(sc2, np.array([v for v, _ in exp], np.float32))
    np.testing.assert_array_equal(d2, np.array([-nd for _, nd in exp], np.int64))


def test_count_api(corpus):
    """IndexSearcher.count: single-term fast path == df with zero
    postings work; compound shapes == exhaustive match counts; deletions
    disable the fast path."""
    s = IndexSearcher(corpus["manifest"])
    df, _ = s.global_term_stats("t00005")
    assert s.count("t00005") == df
    d, _sc = s.search("t00005 t00012", k=s.doc_count)
    assert s.count("t00005 t00012") == len(d)
    d2, _ = s.search("+t00005 +t00012", k=s.doc_count)
    assert s.count("+t00005 +t00012") == len(d2)
    assert s.count("zzabsent") == 0
    assert s.count("") == 0


def test_omit_norms(corpus):
    """omitNorms view: every doc scores with the length-1 norm byte —
    equal tf implies equal score regardless of doc length; the normal
    searcher differs; non-norm surfaces (count, df) unchanged."""
    from engine.bm25 import make_term_scorer
    from engine.smallfloat import int_to_byte4_array

    s = IndexSearcher(corpus["manifest"], omit_norms=True)
    d, sc = s.search("t00005", 50)
    b1 = np.uint8(int_to_byte4_array(np.array([1], np.int64))[0])
    dc, sttf = corpus["doc_count"], corpus["sum_ttf"]
    td, tf = corpus["oracle_postings"]["t00005"]
    pr = make_term_scorer(len(td), dc, sttf)
    exp = pr.score(tf, np.full(len(td), b1, np.uint8))
    by_doc = dict(zip(td.tolist(), exp.tolist()))
    for doc, v in zip(d.tolist(), sc.tolist()):
        assert np.float32(v) == np.float32(by_doc[doc])
    # equal tf -> equal score under omitNorms
    same_tf = [doc for doc, f in zip(td.tolist(), tf.tolist()) if f == tf[0]]
    if len(same_tf) > 1:
        scores = [np.float32(by_doc[doc]) for doc in same_tf]
        assert len(set(float(x) for x in scores)) == 1
    # normal searcher produces different scores (norms matter)
    s2 = IndexSearcher(corpus["manifest"])
    d2, sc2 = s2.search("t00005", 50)
    assert not np.array_equal(np.sort(sc), np.sort(sc2))
    assert s.count("t00005") == s2.count("t00005")


# ---------------------------------------------------------------------------
# TermStates + Weight cache: a warm searcher answers bit-exactly like a new
# one, whatever the per-request state (similarity, stats_override, boosts)
# ---------------------------------------------------------------------------

CACHE_QUERIES = [
    ("the00 the07 the19", 10),  # the perfbench classes on this vocabulary
    ("the03 t00001 t00005 the11 t00020", 25),
    ("t00000 AND the01", 10),
    ("+the02 t00003", 10),
    ("the04 -t00002", 10),
    ("the05", 1000),
    ("t00917", 10),
    ("t01234 t00456", 10),
    ("t00017 AND t00042", 10),
    ("zq0001", 10),
    ("the00 the00 t00001", 10),  # repeated term
    ("+t00000 t00000", 10),  # +t t
    ("-the00", 10),
    ("t00001 -the00", 10),
    ("+the00 +t00002 -t00001", 10),
    ("(+the00 +t00001) the02", 10),  # nested clause tree
    ("the06", 1000),
    ("t00001 t00002 t00003 t00004 t00005 t00006", 1000),
]


def _assert_same(got, exp, msg=""):
    msg = str(msg)
    np.testing.assert_array_equal(got[0], exp[0], err_msg=msg)
    assert got[1].dtype == exp[1].dtype == np.float32, msg
    np.testing.assert_array_equal(got[1].view(np.uint32), exp[1].view(np.uint32), err_msg=msg)


def _warm_equals_fresh(manifest, queries, rounds=2, **kw):
    """Run every query ``rounds`` times (forward, then reversed) on one
    searcher; each answer equals a new searcher's. Returns the warm one."""
    warm = IndexSearcher(manifest, **kw)
    for r in range(rounds):
        for q, k in queries if r % 2 == 0 else queries[::-1]:
            _assert_same(warm.search(q, k), IndexSearcher(manifest, **kw).search(q, k), q)
    return warm


@pytest.mark.parametrize("algorithm", ["auto", "wand"])
def test_weight_cache_warm_equals_fresh(corpus, algorithm):
    warm = _warm_equals_fresh(corpus["manifest"], CACHE_QUERIES, algorithm=algorithm)
    assert len(warm._weights) > 0
    for q, k in CACHE_QUERIES[:10]:
        if "-" not in q and "(" not in q:
            _assert_same(warm.search(q, k), _oracle_topk(corpus, q, k), q)


@pytest.mark.parametrize("variant", ["deletes", "omit_norms"])
def test_weight_cache_warm_equals_fresh_variants(corpus, tmp_path, variant):
    import pyarrow as pa
    import pyarrow.parquet as pq

    manifest, kw = dict(corpus["manifest"]), {}
    if variant == "deletes":
        path = str(tmp_path / "deletes.parquet")
        dead = np.arange(0, corpus["doc_count"], 7, dtype=np.int64)
        pq.write_table(pa.table({"doc_id": dead}), path)
        manifest["deletes"] = path
    else:
        kw["omit_norms"] = True
    warm = _warm_equals_fresh(manifest, CACHE_QUERIES, **kw)
    if variant == "deletes":
        d, _ = warm.search("the00", 1000)
        assert len(d) and not np.isin(d, dead).any()


def test_weight_cache_keyed_by_scorer_factory(corpus):
    """``_shard_searcher`` reassigns ``make_scorer`` per request: a warm
    searcher switched bm25 → lmdirichlet → bm25 → lmdirichlet answers
    like a new searcher built with each similarity."""
    from engine.bm25 import SIMILARITIES

    m = corpus["manifest"]
    s = IndexSearcher(m)
    for sim in ("bm25", "lmdirichlet", "bm25", "lmdirichlet"):
        s.make_scorer = SIMILARITIES[sim]
        for q, k in CACHE_QUERIES:
            _assert_same(s.search(q, k), IndexSearcher(m, similarity=sim).search(q, k), (sim, q))


def test_weight_cache_bypassed_under_stats_override(corpus):
    """Injected stats (sharded fan-out, BlendedTermQuery) never read or
    fill the cache: setting, then clearing ``stats_override`` on a warm
    searcher matches new searchers both times."""
    m = corpus["manifest"]
    terms = ("t00005", "t00012")
    q = " ".join(terms)
    s = IndexSearcher(m)
    plain = s.search(q, 50), s.search_dismax(q, 50, tie_breaker=0.01)
    stats = [s.global_term_stats(t) for t in terms]
    blended = {t: (max(d for d, _ in stats), sum(t for _, t in stats)) for t in terms}

    fresh = IndexSearcher(m)
    fresh.stats_override = blended
    want = fresh.search(q, 50), fresh.search_dismax(q, 50, tie_breaker=0.01)
    assert not np.array_equal(want[0][1], plain[0][1])
    s.stats_override = blended
    for _ in range(2):
        _assert_same(s.search(q, 50), want[0])
        _assert_same(s.search_dismax(q, 50, tie_breaker=0.01), want[1])
    s.stats_override = None
    _assert_same(s.search(q, 50), plain[0])
    _assert_same(s.search_dismax(q, 50, tie_breaker=0.01), plain[1])
    _assert_same(s.search(q, 50), IndexSearcher(m).search(q, 50))


def test_weight_cache_bypassed_for_boosts(corpus):
    """Boosted clauses and dismax ``boosts`` score with their own weights
    on a searcher whose cache holds the same terms unboosted."""
    m = corpus["manifest"]
    s = IndexSearcher(m)
    for q, k in CACHE_QUERIES:
        s.search(q, k)
    s.search("t00005 t00012", 10)
    for q in ("t00005^2.5", "t00005^2.5 t00012", "+t00012 t00005^0.5"):
        _assert_same(s.search(q, 20), IndexSearcher(m).search(q, 20), q)
    boosts = {"t00005": 3.0}
    for _ in range(2):
        _assert_same(
            s.search_dismax("t00005 t00012", 20, tie_breaker=0.1, boosts=boosts),
            IndexSearcher(m).search_dismax("t00005 t00012", 20, tie_breaker=0.1, boosts=boosts),
        )
        _assert_same(
            s.search_dismax("t00005 t00012", 20, tie_breaker=0.1),
            IndexSearcher(m).search_dismax("t00005 t00012", 20, tie_breaker=0.1),
        )


def test_weight_cache_bounded_and_read_only(corpus):
    """The cache holds at most ``_POSTINGS_CACHE_MAX`` terms, its score
    arrays are read-only, and a collector call neither reads nor fills
    it (the collector gets writable arrays)."""
    from engine.segment import PostingsReader

    s = IndexSearcher(corpus["manifest"])
    seen = []
    s.search("t00001 t00002", 10, collector=lambda d, sc: seen.append(sc))
    assert len(s._weights) == 0 and seen and all(sc.flags.writeable for sc in seen)
    cap = PostingsReader._POSTINGS_CACHE_MAX
    for i in range(cap + 40):
        s.search(f"t{i:05d} the{i % 20:02d}", 10)
        assert len(s._weights) <= cap
    assert len(s._weights) == cap
    n_arrays = 0
    for w in s._weights.values():
        for docs, sc in w._hits.values():
            assert not sc.flags.writeable
            n_arrays += len(sc) > 0
            if len(sc):
                with pytest.raises(ValueError):
                    sc[0] = 0.0
    assert n_arrays > cap


def _hits_by_lists(qids, hits, **per_query):
    """The per-hit list construction ``hits_table`` replaced: the
    reference its tables must equal, schema included."""
    import pyarrow as pa

    qid, rank, doc, score = [], [], [], []
    extra = {name: [] for name in per_query}
    for i, (q, (d, sc)) in enumerate(zip(qids, hits)):
        qid.extend([q] * len(d))
        rank.extend(range(len(d)))
        doc.extend(d.tolist())
        score.extend(sc.tolist())
        for name, col in per_query.items():
            extra[name].extend([col[i].as_py()] * len(d))
    cols = {
        "query_id": pa.array(qid, type=pa.int64()),
        "rank": pa.array(rank, type=pa.int32()),
        "doc_id": pa.array(doc, type=pa.int64()),
        "score": pa.array(score, type=pa.float32()),
    }
    cols.update({name: pa.array(extra[name], type=col.type) for name, col in per_query.items()})
    return pa.table(cols)


def test_hits_table_equals_per_hit_lists(corpus):
    """``hits_table`` and the ``_search_batch`` built on it equal the
    per-hit list construction, schema included: queries with and without
    hits, k = 1 and k above the match count, per-query columns, and a
    batch of no queries."""
    import pyarrow as pa

    from engine.search import _search_batch, hits_table

    s = IndexSearcher(corpus["manifest"])
    queries = [("the00 the19", 25), ("zzznomatch", 10), ("tiekey", 500), ("t00003 the02", 1), ("zzz", 3)]
    qids = [7, 3, 11, 0, 2]
    hits = [s.search(q, k) for q, k in queries]
    assert any(len(d) == 0 for d, _ in hits) and any(len(d) > 1 for d, _ in hits)
    extra = {
        "partial": pa.array([False, True, False, True, False]),
        "latency_ms": pa.array([0.5, 1.25, 0.0, 3.0, 2.5], type=pa.float64()),
    }
    for per_query in ({}, extra):
        got = hits_table(qids, hits, **per_query)
        assert got.equals(_hits_by_lists(qids, hits, **per_query))
    assert hits_table([], []).equals(_hits_by_lists([], []))

    batch = pa.table(
        {
            "query_id": pa.array(qids, type=pa.int64()),
            "query": [q for q, _ in queries],
            "k": pa.array([k for _, k in queries], type=pa.int64()),
        }
    )
    plain = _search_batch(s, batch, 10)
    assert plain.equals(_hits_by_lists(qids, hits))
    timed = _search_batch(s, batch, 10, time_limit_ms=60_000)
    assert timed.equals(_hits_by_lists(qids, hits, partial=pa.array([False] * 5)))
    with_lat = _search_batch(s, batch, 10, emit_latency=True)
    assert with_lat.schema.field("latency_ms").type == pa.float64()
    assert with_lat.drop_columns(["latency_ms"]).equals(plain)
