"""Spell-correction suggester — the DirectSpellChecker role
(lucene/suggest/src/java/org/apache/lucene/search/spell/
DirectSpellChecker.java:49-120: enumerate dictionary terms within
maxEdits of the query word, rank by distance then docFreq).

Ray-Data shape: the dictionary lives in the merged index's shard term
files, so candidates are computed WHERE the dictionary lives — a
Dataset over the shard files projected to (term, df)
(``merge.term_shard_dataset``), one map_batches
computing banded Levenshtein against the broadcast word list with a
per-batch partial top-n, then a driver merge over the tiny
(n_blocks × n_words × top_n) partials (the brute-force-ANN reduce
pattern). Nothing reads postings, norms, or more than two columns.

Distance = classic unit-cost Levenshtein (Wagner-Fischer with a
±max_edits band and row-min early abandon) — NOT the reference's
transposition-aware LuceneLevenshteinDistance (spell/
LuceneLevenshteinDistance.java:33), a documented deviation chosen so
the driver oracle (DuckDB ``levenshtein``) checks the operator
bit-for-bit. The enumeration contract (0 < dist <= max_edits, the
word itself excluded, rank by dist asc / df desc / term asc) matches
DirectSpellChecker.suggestSimilar ordering semantics.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .rayenv import remote_args as _rargs


def levenshtein_banded(a: str, b: str, max_d: int) -> int:
    """Unit-cost edit distance, computed only inside the |i-j| <= max_d
    band; returns max_d + 1 as soon as the true distance must exceed
    max_d. Identical to full Wagner-Fischer whenever the result
    <= max_d (band theorem: cells outside the band are >= |i-j| > max_d
    and can never re-enter a <=max_d path)."""
    la, lb = len(a), len(b)
    if abs(la - lb) > max_d:
        return max_d + 1
    if la == 0:
        return lb
    if lb == 0:
        return la
    big = max_d + 1
    prev = [min(j, big) for j in range(lb + 1)]
    for i in range(1, la + 1):
        cur = [big] * (lb + 1)
        cur[0] = i if i <= max_d else big
        lo = max(1, i - max_d)
        hi = min(lb, i + max_d)
        ca = a[i - 1]
        row_min = cur[0]
        for j in range(lo, hi + 1):
            cost = 0 if ca == b[j - 1] else 1
            v = prev[j - 1] + cost
            if prev[j] + 1 < v:
                v = prev[j] + 1
            if cur[j - 1] + 1 < v:
                v = cur[j - 1] + 1
            if v > big:
                v = big
            cur[j] = v
            if v < row_min:
                row_min = v
        if row_min > max_d:
            return big
        prev = cur
    return prev[lb] if prev[lb] <= max_d else big


def spell_suggest(
    merge_manifest: dict,
    words: list[str],
    max_edits: int = 2,
    top_n: int = 5,
):
    """(word, rank, suggestion, dist, df) for each query word: the top_n
    dictionary terms with 0 < levenshtein <= max_edits, ranked by
    (dist asc, df desc, term asc). Returns a pyarrow Table (output is
    <= len(words) * top_n rows — always driver-small)."""
    from .merge import term_shard_dataset

    shard_paths = [s["path"] for s in merge_manifest["shards"]]
    words_l = [w.lower() for w in words]

    def _cand(batch: pa.Table) -> pa.Table:
        # words_l is tiny — closure capture, not a bare ray.put handle
        # (owner-death hazard, CLAUDE.md)
        wl = words_l
        terms = batch.column("term").to_pylist()
        dfs = batch.column("df").to_numpy()
        tlens = np.fromiter((len(t) for t in terms), dtype=np.int64, count=len(terms))
        out = {"word": [], "suggestion": [], "dist": [], "df": []}
        for w in wl:
            # length prefilter: |len(t) - len(w)| <= max_edits is a lower
            # bound on the distance (vectorized, skips most of the batch)
            cand_idx = np.flatnonzero(np.abs(tlens - len(w)) <= max_edits)
            scored = []
            for i in cand_idx:
                t = terms[i]
                if t == w:
                    continue
                d = levenshtein_banded(w, t, max_edits)
                if d <= max_edits:
                    scored.append((d, -int(dfs[i]), t))
            scored.sort()
            for d, ndf, t in scored[:top_n]:  # per-batch partial top-n
                out["word"].append(w)
                out["suggestion"].append(t)
                out["dist"].append(d)
                out["df"].append(-ndf)
        return pa.table(
            {
                "word": pa.array(out["word"], type=pa.string()),
                "suggestion": pa.array(out["suggestion"], type=pa.string()),
                "dist": pa.array(out["dist"], type=pa.int64()),
                "df": pa.array(out["df"], type=pa.int64()),
            }
        )

    partials = (
        term_shard_dataset(shard_paths, ["term", "df"])
        .map_batches(_cand, batch_format="pyarrow", **_rargs())
        .take_all()
    )  # <= n_blocks * n_words * top_n rows — the small reduce side

    by_word: dict[str, list] = {w: [] for w in words_l}
    for r in partials:
        by_word[r["word"]].append((int(r["dist"]), -int(r["df"]), r["suggestion"]))
    out = {"word": [], "rank": [], "suggestion": [], "dist": [], "df": []}
    for w in words_l:
        scored = sorted(by_word[w])[:top_n]
        for rank, (d, ndf, t) in enumerate(scored):
            out["word"].append(w)
            out["rank"].append(rank)
            out["suggestion"].append(t)
            out["dist"].append(d)
            out["df"].append(-ndf)
    return pa.table(
        {
            "word": pa.array(out["word"], type=pa.string()),
            "rank": pa.array(out["rank"], type=pa.int64()),
            "suggestion": pa.array(out["suggestion"], type=pa.string()),
            "dist": pa.array(out["dist"], type=pa.int64()),
            "df": pa.array(out["df"], type=pa.int64()),
        }
    )


def complete_prefix(merge_manifest: dict, prefix: str, top_n: int = 10) -> pa.Table:
    """Prefix completion ranked by weight — the FSTCompletion /
    AnalyzingInfixSuggester role (suggest/fst/FSTCompletion.java:34-60,
    weight-bucketed completions; suggest/analyzing/AnalyzingInfixSuggester
    lookup-by-prefix): dictionary terms starting with ``prefix`` ranked
    by (df desc, term asc), top n. Served by a (term, df) column
    projection over the term shards with the term-range filter applied in
    the scan, so no postings blob is decompressed."""
    import pyarrow.dataset as pads

    prefix = prefix.lower()
    shard_paths = [s["path"] for s in merge_manifest["shards"]]
    tbl = pads.dataset(shard_paths, format="ipc").to_table(
        columns=["term", "df"],
        filter=(pads.field("term") >= prefix)
        & (pads.field("term") <= prefix + "\U0010ffff"),
    )
    terms = tbl.column("term").to_pylist()
    dfs = tbl.column("df").to_pylist()
    scored = sorted(
        ((-int(df), t) for t, df in zip(terms, dfs) if t.startswith(prefix))
    )[:top_n]
    return pa.table(
        {
            "rank": pa.array(range(len(scored)), type=pa.int64()),
            "suggestion": pa.array([t for _, t in scored], type=pa.string()),
            "df": pa.array([-ndf for ndf, _ in scored], type=pa.int64()),
        }
    )


def word_breaks(
    merge_manifest: dict, words: list[str], top_n: int = 5
) -> pa.Table:
    """Compound-word break suggestions — the WordBreakSpellChecker role
    (suggest/spell/WordBreakSpellChecker.java:90-121 suggestWordBreaks,
    single break = maxChanges 1): every split position whose left AND
    right halves are dictionary terms, ranked per word by the default
    NUM_CHANGES_THEN_MAX_FREQUENCY comparator (:100, :450 — all
    candidates here have one change, so max(df_left, df_right) desc;
    tie-break = split position asc, documented). df for the candidate
    substrings comes from ONE (term, df) projection of the term shards
    with an isin filter (the needed term set is tiny: sum of word
    lengths); no postings blob is decompressed."""
    import pyarrow.dataset as pads

    words_l = [w.lower() for w in words]
    need = sorted(
        {w[:i] for w in words_l for i in range(1, len(w))}
        | {w[i:] for w in words_l for i in range(1, len(w))}
    )
    if not need:
        need = [""]
    shard_paths = [s["path"] for s in merge_manifest["shards"]]
    tbl = pads.dataset(shard_paths, format="ipc").to_table(
        columns=["term", "df"], filter=pads.field("term").isin(need)
    )
    df_of = dict(
        zip(tbl.column("term").to_pylist(), (int(x) for x in tbl.column("df").to_pylist()))
    )
    out = {"word": [], "rank": [], "left_part": [], "right_part": [],
           "df_left": [], "df_right": []}
    for w in words_l:
        cands = []
        for i in range(1, len(w)):
            dl, dr = df_of.get(w[:i]), df_of.get(w[i:])
            if dl and dr:
                cands.append((-max(dl, dr), i, w[:i], w[i:], dl, dr))
        cands.sort()
        for rank, (_, i, lp, rp, dl, dr) in enumerate(cands[:top_n]):
            out["word"].append(w)
            out["rank"].append(rank)
            out["left_part"].append(lp)
            out["right_part"].append(rp)
            out["df_left"].append(dl)
            out["df_right"].append(dr)
    return pa.table(
        {
            "word": pa.array(out["word"], type=pa.string()),
            "rank": pa.array(out["rank"], type=pa.int64()),
            "left_part": pa.array(out["left_part"], type=pa.string()),
            "right_part": pa.array(out["right_part"], type=pa.string()),
            "df_left": pa.array(out["df_left"], type=pa.int64()),
            "df_right": pa.array(out["df_right"], type=pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# FreeTextSuggester — n-gram stupid-backoff language model
# ---------------------------------------------------------------------------

FREETEXT_ALPHA = 0.4  # FreeTextSuggester.java:133
_LMAX = float(2**63)  # (double) Long.MAX_VALUE — exactly 2^63


def freetext_train(sf_dir: str, analyzer=None) -> dict:
    """Distributed n-gram model build (FreeTextSuggester.build role,
    grams=2): one map_batches pass emits per-batch (gram, count)
    partials for unigrams and in-doc adjacent bigrams (the ShingleFilter
    adjacency over the analyzer stream), a small groupby(kind, t1, t2)
    sum finishes. Returns {"uni": {t: c}, "big": {(t1, t2): c},
    "tot": total token count} — the model is the only collected object
    (vocab-bounded, the FST role)."""
    import os

    import ray.data
    from ray.data.aggregate import Sum

    from .analyze import DEFAULT_ANALYZER, tokenize
    from .rayenv import remote_args

    analyzer = analyzer or DEFAULT_ANALYZER

    def partials(batch: pa.Table) -> pa.Table:
        counts: dict[tuple[str, str, str], int] = {}
        for text in batch.column("text").to_pylist():
            toks = tokenize(text or "", analyzer)
            for t in toks:
                k = ("u", t, "")
                counts[k] = counts.get(k, 0) + 1
            for a, b in zip(toks, toks[1:]):
                k = ("b", a, b)
                counts[k] = counts.get(k, 0) + 1
        keys = sorted(counts)
        return pa.table(
            {
                "kind": pa.array([k[0] for k in keys], type=pa.string()),
                "t1": pa.array([k[1] for k in keys], type=pa.string()),
                "t2": pa.array([k[2] for k in keys], type=pa.string()),
                "cnt": pa.array([counts[k] for k in keys], type=pa.int64()),
            }
        )

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"), columns=["text"]
    )
    tbl = (
        ds.map_batches(partials, batch_format="pyarrow", **remote_args())
        .groupby(["kind", "t1", "t2"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )
    uni, big = {}, {}
    for kind, t1, t2, c in zip(tbl["kind"], tbl["t1"], tbl["t2"], tbl["cnt"]):
        if kind == "u":
            uni[t1] = int(c)
        else:
            big[(t1, t2)] = int(c)
    return {"uni": uni, "big": big, "tot": sum(uni.values())}


def _freetext_topn(cands: list[tuple[int, str, str]], num: int):
    """Per-model top-num by (count desc, full-gram bytes asc) — the FST
    TopNSearcher order within one model."""
    return sorted(cands, key=lambda x: (-x[0], x[1]))[:num]


def freetext_lookup(model: dict, key: str, num: int = 10, analyzer=None) -> list[tuple[str, int]]:
    """[(full gram string, long score)] for one input key —
    FreeTextSuggester.lookup (FreeTextSuggester.java:440-680, grams=2):
    try the bigram model on the last (context, prefix), back off by
    ALPHA to the unigram model, skip last-tokens the higher model
    already predicted, score = (long)(((2^63 * backoff) * count) /
    contextCount), final order (score desc, full string asc)."""
    from .analyze import DEFAULT_ANALYZER, tokenize

    analyzer = analyzer or DEFAULT_ANALYZER
    toks = tokenize(key, analyzer)
    # the user "ended" the last token iff appending a token char would
    # start a NEW token (the endOffset/posInc test of the reference)
    probe = tokenize(key + "x", analyzer)
    last_ended = bool(toks) and (len(probe) == len(toks) + 1)
    uni, big, tot = model["uni"], model["big"], model["tot"]

    if not toks:
        if key:
            return []
        context, prefix = None, ""
    elif last_ended:
        context, prefix = toks[-1], ""
    else:
        context = toks[-2] if len(toks) >= 2 else None
        prefix = toks[-1]

    results: list[tuple[str, int]] = []
    seen: set[str] = set()
    backoff = 1.0

    if context is not None:
        cands = [
            (c, f"{t1} {t2}", t2)
            for (t1, t2), c in big.items()
            if t1 == context and t2.startswith(prefix)
        ]
        if cands:
            ctx_count = uni[context]
            for c, full, last in _freetext_topn(cands, num):
                score = int(((_LMAX * backoff) * float(c)) / float(ctx_count))
                results.append((full, score))
                seen.add(last)
        backoff *= FREETEXT_ALPHA  # null prefixOutput backs off too

    if prefix or key == "":  # no unigram predictions from empty string
        cands = [
            (c, t, t)
            for t, c in uni.items()
            if t.startswith(prefix) and t not in seen
        ]
        for c, full, _last in _freetext_topn(cands, num):
            score = int(((_LMAX * backoff) * float(c)) / float(tot))
            results.append((full, score))

    results.sort(key=lambda x: (-x[1], x[0]))
    return results[:num]


def free_text_suggest(
    sf_dir: str, keys: list[str], num: int = 10, model: dict | None = None
) -> pa.Table:
    """Driver pipeline: train the n-gram model (distributed), look up
    each key; (key, rank, suggestion, score)."""
    model = model or freetext_train(sf_dir)
    out = {"key": [], "rank": [], "suggestion": [], "score": []}
    for key in keys:
        for rank, (full, score) in enumerate(freetext_lookup(model, key, num)):
            out["key"].append(key)
            out["rank"].append(rank)
            out["suggestion"].append(full)
            out["score"].append(score)
    return pa.table(
        {
            "key": pa.array(out["key"], type=pa.string()),
            "rank": pa.array(out["rank"], type=pa.int64()),
            "suggestion": pa.array(out["suggestion"], type=pa.string()),
            "score": pa.array(out["score"], type=pa.int64()),
        }
    )


def fuzzy_complete(
    merge_manifest: dict,
    keys: list[str],
    max_edits: int = 1,
    min_fuzzy_length: int = 3,
    top_n: int = 10,
):
    """Typo-tolerant completion — the FuzzySuggester role
    (suggest/analyzing/FuzzySuggester.java:60-103): a completion matches
    when the first len(key) chars of the dictionary term are within
    ``max_edits`` (default 1, the reference default) of the key, with the
    reference's guards — the FIRST character must match exactly
    (NON_FUZZY_PREFIX = 1, :88) and keys shorter than
    ``min_fuzzy_length`` (DEFAULT_MIN_FUZZY_LENGTH = 3, :94) match their
    prefix exactly. Ranked by (df desc, term asc) top_n per key.
    Documented deviations: classic Levenshtein instead of the FST
    automaton's transposition edits (same deviation as spell_suggest,
    keeps the DuckDB oracle bit-exact), and no exactFirst promotion.

    Same Ray shape as spell_suggest: one (term, df) projection scan where
    the dictionary lives, per-batch partial top-n, driver-small reduce."""
    from .merge import term_shard_dataset

    shard_paths = [s["path"] for s in merge_manifest["shards"]]
    keys_l = [k.lower() for k in keys]

    def _cand(batch: pa.Table) -> pa.Table:
        # keys_l is tiny — capture it in the closure (serializes with the
        # task) instead of a bare ray.put handle whose owner could die
        # before lazy execution (CLAUDE.md actor-stage hazard)
        kl = keys_l
        terms = batch.column("term").to_pylist()
        dfs = batch.column("df").to_numpy()
        out = {"key": [], "suggestion": [], "df": []}
        for k in kl:
            n = len(k)
            scored = []
            for i, t in enumerate(terms):
                if not t or t[0] != k[0]:
                    continue
                pref = t[:n]
                if n < min_fuzzy_length:
                    if pref != k:
                        continue
                elif levenshtein_banded(k, pref, max_edits) > max_edits:
                    continue
                scored.append((-int(dfs[i]), t))
            scored.sort()
            for ndf, t in scored[:top_n]:
                out["key"].append(k)
                out["suggestion"].append(t)
                out["df"].append(-ndf)
        return pa.table(
            {
                "key": pa.array(out["key"], type=pa.string()),
                "suggestion": pa.array(out["suggestion"], type=pa.string()),
                "df": pa.array(out["df"], type=pa.int64()),
            }
        )

    partials = (
        term_shard_dataset(shard_paths, ["term", "df"])
        .map_batches(_cand, batch_format="pyarrow", **_rargs())
        .take_all()
    )
    by_key: dict[str, list] = {k: [] for k in keys_l}
    for r in partials:
        by_key[r["key"]].append((-int(r["df"]), r["suggestion"]))
    out = {"key": [], "rank": [], "suggestion": [], "df": []}
    for k in keys_l:
        for rank, (ndf, t) in enumerate(sorted(by_key[k])[:top_n]):
            out["key"].append(k)
            out["rank"].append(rank)
            out["suggestion"].append(t)
            out["df"].append(-ndf)
    return pa.table(
        {
            "key": pa.array(out["key"], type=pa.string()),
            "rank": pa.array(out["rank"], type=pa.int64()),
            "suggestion": pa.array(out["suggestion"], type=pa.string()),
            "df": pa.array(out["df"], type=pa.int64()),
        }
    )
