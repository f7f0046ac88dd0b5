"""DirectSpellChecker-analogue suggester: banded-DP exactness and the
distributed dictionary scan vs an in-process brute force."""

import numpy as np
import pytest

from engine.suggest import levenshtein_banded, spell_suggest


def _lev_full(a: str, b: str) -> int:
    la, lb = len(a), len(b)
    d = np.arange(lb + 1)
    for i in range(1, la + 1):
        prev_diag = d[0]
        d[0] = i
        for j in range(1, lb + 1):
            cur = d[j]
            d[j] = min(
                d[j] + 1,
                d[j - 1] + 1,
                prev_diag + (0 if a[i - 1] == b[j - 1] else 1),
            )
            prev_diag = cur
    return int(d[lb])


def test_banded_equals_full_dp():
    rng = np.random.default_rng(99)
    alpha = "abcde"
    words = [
        "".join(rng.choice(list(alpha), size=rng.integers(0, 8)))
        for _ in range(60)
    ]
    for max_d in (1, 2, 3):
        for a in words[:30]:
            for b in words[30:]:
                full = _lev_full(a, b)
                banded = levenshtein_banded(a, b, max_d)
                if full <= max_d:
                    assert banded == full, (a, b, max_d)
                else:
                    assert banded == max_d + 1, (a, b, max_d)


def test_banded_matches_duckdb():
    # the oracle's levenshtein() must be the same function
    import duckdb

    pairs = [("kitten", "sitting"), ("dta", "data"), ("", "ab"), ("xy", "xy"),
             ("abcd", "dcba"), ("query", "qurey")]
    con = duckdb.connect()
    for a, b in pairs:
        want = con.execute("SELECT levenshtein(?, ?)", [a, b]).fetchone()[0]
        got = levenshtein_banded(a, b, 10)
        assert got == want, (a, b)


@pytest.mark.usefixtures("ray_session")
def test_spell_suggest_matches_brute_force(tmp_path_factory):
    from engine.build import invert_to_segment
    from engine.checkpoint import finalize_build_manifest
    from engine.fixtures import make_pages
    from engine.merge import merge_by_term, read_term_shard

    root = tmp_path_factory.mktemp("suggestidx")
    pages = make_pages(400, seed=23)
    texts = pages.column("text").to_pylist()
    rows = []
    for s in range(2):
        lo, hi = s * 200, (s + 1) * 200
        seg_dir = str(root / f"partitions/p{lo:012d}")
        meta = invert_to_segment(
            np.arange(lo, hi, dtype=np.int64), texts[lo:hi], seg_dir
        )
        rows.append(
            {k: meta[k] for k in ("doc_base", "n_docs", "sum_ttf", "n_terms", "wall_ms")}
            | {"seg_dir": seg_dir}
        )
    manifest = finalize_build_manifest(str(root), rows)
    mm = merge_by_term(manifest, str(root))

    # brute force over the full dictionary
    import pyarrow as pa

    dict_tbl = pa.concat_tables(
        [read_term_shard(s["path"], ["term", "df"]) for s in mm["shards"]]
    )
    terms = dict_tbl.column("term").to_pylist()
    dfs = dict_tbl.column("df").to_pylist()
    words = ["the0", "t0000", "s0003", "zzzzzzz"]

    def brute(w, max_edits=2, top_n=5):
        scored = []
        for t, df in zip(terms, dfs):
            if t == w:
                continue
            d = _lev_full(w, t)
            if d <= max_edits:
                scored.append((d, -int(df), t))
        scored.sort()
        return scored[:top_n]

    out = spell_suggest(mm, words, max_edits=2, top_n=5).to_pandas()
    for w in words:
        got = [
            (int(r.dist), -int(r.df), r.suggestion)
            for r in out[out["word"] == w].sort_values("rank").itertuples()
        ]
        assert got == brute(w), w
    assert (out[out["word"] == "zzzzzzz"]).empty  # nothing within 2 edits
    # ranks are dense from 0 per word
    for w, g in out.groupby("word"):
        assert g["rank"].tolist() == list(range(len(g)))


@pytest.mark.usefixtures("ray_session")
def test_complete_prefix_weight_order():
    from engine.pipelines import get_index
    from engine.suggest import complete_prefix

    idx = get_index("/root/testdata/sf0.001")
    mm = idx["merge_manifest"]
    out = complete_prefix(mm, "s", top_n=10).to_pandas()
    assert len(out) > 0
    assert all(s.startswith("s") for s in out["suggestion"])
    # weight-descending, term-asc on ties, dense ranks
    dfs = out["df"].tolist()
    assert dfs == sorted(dfs, reverse=True)
    for i in range(1, len(out)):
        if dfs[i] == dfs[i - 1]:
            assert out["suggestion"].iloc[i - 1] < out["suggestion"].iloc[i]
    assert out["rank"].tolist() == list(range(len(out)))
    # no-match prefix => typed empty table
    empty = complete_prefix(mm, "zzzzzz")
    assert empty.num_rows == 0 and empty.column_names == ["rank", "suggestion", "df"]


@pytest.mark.usefixtures("ray_session")
def test_word_breaks_single_split():
    from engine.pipelines import get_index
    from engine.suggest import word_breaks

    idx = get_index("/root/testdata/sf0.001")
    mm = idx["merge_manifest"]
    out = word_breaks(mm, ["datajoin", "zzqqzz"], top_n=5).to_pandas()
    dj = out[out["word"] == "datajoin"]
    assert ("data", "join") in set(zip(dj["left_part"], dj["right_part"]))
    # every suggestion reassembles the word and both halves carry df > 0
    for r in out.itertuples():
        assert r.left_part + r.right_part == r.word
        assert r.df_left > 0 and r.df_right > 0
    assert out[out["word"] == "zzqqzz"].empty
    # NUM_CHANGES_THEN_MAX_FREQUENCY: max(df) non-increasing down the ranks
    m = dj[["df_left", "df_right"]].max(axis=1).tolist()
    assert m == sorted(m, reverse=True)


def test_freetext_lookup_backoff_math():
    """Hand-built model: FreeTextSuggester.java lookup semantics —
    per-model scores, 0.4 backoff, seen-skip, trailing-space upgrade."""
    from engine.suggest import freetext_lookup

    model = {
        "uni": {"data": 10, "join": 4, "jolt": 6, "x": 1},
        "big": {("data", "join"): 3, ("data", "jolt"): 1, ("join", "x"): 1},
        "tot": 21,
    }
    L = float(2**63)
    # completed context: bigram continuations only
    r = freetext_lookup(model, "data ", num=10)
    assert [s for s, _ in r] == ["data join", "data jolt"]
    assert r[0][1] == int(((L * 1.0) * 3.0) / 10.0)
    assert r[1][1] == int(((L * 1.0) * 1.0) / 10.0)
    # bare prefix: unigram model, backoff 1.0 (no context attempted)
    r2 = freetext_lookup(model, "jo", num=10)
    assert [s for s, _ in r2] == ["jolt", "join"]  # 6 > 4
    assert r2[0][1] == int(((L * 1.0) * 6.0) / 21.0)
    # context + prefix: bigram first, unigram backed off 0.4, seen-skip
    r3 = freetext_lookup(model, "data jo", num=10)
    sugg = [s for s, _ in r3]
    assert "data join" in sugg and "data jolt" in sugg
    assert "jolt" not in sugg and "join" not in sugg  # seen-skip
    # unigram-only term absent from (data, *) bigrams would appear:
    model["uni"]["jox"] = 9
    r4 = freetext_lookup(model, "data jo", num=10)
    d = dict(r4)
    assert d["jox"] == int(((L * 0.4) * 9.0) / 21.0)
    # bigram score for 'data join' (3/10) outranks backed-off jox
    assert [s for s, _ in r4][0] == "data join"
    # empty key: top unigrams; unknown context: no results
    assert freetext_lookup(model, "", num=2)[0][0] == "data"
    assert freetext_lookup(model, "zzz ", num=5) == []


@pytest.mark.usefixtures("ray_session")
def test_freetext_train_counts():
    from engine.suggest import freetext_train

    import duckdb

    m = freetext_train("/root/testdata/sf0.001")
    tok = "regexp_extract_all(lower(text), '[a-z0-9]+')"
    exp_uni = dict(duckdb.sql(f"""
        SELECT t, count(*) FROM (SELECT unnest({tok}) t FROM
        read_parquet('/root/testdata/sf0.001/documents.parquet')) GROUP BY t
    """).fetchall())
    assert m["uni"] == {k: int(v) for k, v in exp_uni.items()}
    assert m["tot"] == sum(m["uni"].values())
    exp_big = duckdb.sql(f"""
        SELECT a.t, b.t, count(*) FROM
        (SELECT doc_id, unnest({tok}) t, unnest(range(len({tok}))) p FROM
         read_parquet('/root/testdata/sf0.001/documents.parquet')) a
        JOIN (SELECT doc_id, unnest({tok}) t, unnest(range(len({tok}))) p FROM
         read_parquet('/root/testdata/sf0.001/documents.parquet')) b
        ON a.doc_id=b.doc_id AND b.p=a.p+1 GROUP BY a.t, b.t
    """).fetchall()
    assert m["big"] == {(a, b): int(c) for a, b, c in exp_big}


@pytest.mark.usefixtures("ray_session")
def test_fuzzy_complete_guards_and_rank():
    from engine.pipelines import get_index
    from engine.suggest import fuzzy_complete

    idx = get_index("/root/testdata/sf0.001")
    out = fuzzy_complete(
        idx["merge_manifest"], ["dara", "cu", "xata", "q"], max_edits=1, top_n=10
    ).to_pandas()
    by_key = dict(tuple(out.groupby("key")))
    # 1-substitution prefix matches 'data' (and any other da?a-prefixed term)
    assert "data" in by_key["dara"]["suggestion"].tolist()
    # keys shorter than min_fuzzy_length match exact-prefix only
    assert all(s.startswith("cu") for s in by_key["cu"]["suggestion"])
    if "q" in by_key:
        assert all(s.startswith("q") for s in by_key["q"]["suggestion"])
    # first character must match exactly (NON_FUZZY_PREFIX = 1): 'xata'
    # must NOT suggest 'data' even though it is 1 edit away
    if "xata" in by_key:
        assert "data" not in by_key["xata"]["suggestion"].tolist()
    # rank follows (df desc, term asc) within each key
    for k, g in by_key.items():
        g = g.sort_values("rank")
        pairs = list(zip(-g["df"].to_numpy(), g["suggestion"]))
        assert pairs == sorted(pairs), k
