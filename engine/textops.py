"""Text-analysis operators for large-scale corpus pipelines.

Each operator is a vectorized ``map_batches`` stage over the documents
table (SURVEY's "beyond the reference" training-data operators): token
counting, quality features/scoring, language ID (char-n-gram profile
heuristic), and document fingerprinting (MD5 canonical + Rabin-Karp
winnowing). Stateful pieces (per-language profiles, compiled patterns) are
built once per worker process via callable classes run through
``rayenv.ProcessStage``.
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa

from .rayenv import remote_args as _rargs
import pyarrow.compute as pc

from .analyze import TOKEN_RE

_WS_RE = re.compile(r"[^a-z0-9]+")


def fnv1a(s: str) -> int:
    """Deterministic 64-bit FNV-1a string hash (process-independent, unlike
    builtin hash())."""
    h = 0xCBF29CE484222325
    for b in s.encode("utf-8"):
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h

def fnv1a_u64_vec(ids) -> "np.ndarray":
    """Vectorized 64-bit FNV-1a over the 8 little-endian bytes of each
    int64 — the ONE implementation behind every deterministic-hash
    sampler (domain mixing, orders sampling, epoch shuffle), elementwise
    identical to relational.fnv1a_u64_sql's replay. uint64 wraparound
    multiply supplies the 2^64 mask."""
    k = np.asarray(ids).astype(np.uint64)
    h = np.full(len(k), np.uint64(0xCBF29CE484222325), dtype=np.uint64)
    prime = np.uint64(0x100000001B3)
    for i in range(8):
        h = (h ^ ((k >> np.uint64(8 * i)) & np.uint64(0xFF))) * prime
    return h


def fnv1a_vec(arr, seed: int = 0xCBF29CE484222325):
    """Vectorized 64-bit FNV-1a over an Arrow string array — elementwise
    identical to fnv1a(). Column-at-a-time over the (offsets, data) buffers
    (terms are short, so max-length iterations, each a numpy op over all
    rows); uint64 wraparound multiply supplies the 2^64 mask."""
    import numpy as np
    import pyarrow as pa

    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    n = len(arr)
    out = np.full(n, np.uint64(seed), dtype=np.uint64)
    if n == 0:
        return out
    o = arr.offset
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[o : o + n + 1].astype(
        np.int64
    )
    buf = arr.buffers()[2]
    data = np.frombuffer(buf, dtype=np.uint8) if buf is not None else np.empty(0, np.uint8)
    lengths = np.diff(offs)
    prime = np.uint64(0x100000001B3)
    pos = offs[:-1]
    for j in range(int(lengths.max())):
        live = lengths > j
        if not live.any():
            break
        b = data[pos[live] + j].astype(np.uint64)
        out[live] = (out[live] ^ b) * prime
    return out


def fnv1a_extend_vec(h, suffix: bytes):
    """Continue FNV-1a chains with a constant byte suffix (vectorized):
    fnv1a(s + x) == fnv1a_extend(fnv1a_vec([s]), x.encode())."""
    import numpy as np

    prime = np.uint64(0x100000001B3)
    h = h.copy()
    for b in suffix:
        h = (h ^ np.uint64(b)) * prime
    return h


STOPWORDS_EN = frozenset(
    "the a an and or of to in is are was were be been it this that for on with as by".split()
)


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """(doc_id, n_tokens) — whitespace+regex token counting."""
    texts = batch.column(text_col).to_pylist()
    counts = np.fromiter(
        (len(TOKEN_RE.findall(t.lower())) if t else 0 for t in texts),
        dtype=np.int64,
        count=len(texts),
    )
    return pa.table(
        {"doc_id": batch.column("doc_id"), "n_tokens": pa.array(counts, type=pa.int64())}
    )


# GPT-2-style pre-tokenizer (BPE pre-split), restricted to constructs RE2
# also supports (no lookahead) so the DuckDB oracle applies the IDENTICAL
# pattern: contraction suffixes, space-prefixed letter runs, digit runs,
# punctuation runs. Applied to lowercased text.
BPE_PRETOKEN_PATTERN = r"'(?:[sdmt]|ll|ve|re)| ?[a-z]+| ?[0-9]+| ?[^\sa-z0-9]+"
_BPE_RE = re.compile(BPE_PRETOKEN_PATTERN)


def bpe_token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """(doc_id, n_bpe_tokens) — BPE-ish pre-tokenizer counting (the
    training-data token budget estimate; a real BPE merges within these
    pre-tokens, so this upper-bounds words and lower-bounds BPE pieces)."""
    texts = batch.column(text_col).to_pylist()
    counts = np.fromiter(
        (len(_BPE_RE.findall(t.lower())) if t else 0 for t in texts),
        dtype=np.int64,
        count=len(texts),
    )
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_bpe_tokens": pa.array(counts, type=pa.int64()),
        }
    )


def quality_features_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Integer quality features (SQL-oracle-safe): n_chars, n_tokens,
    n_uniq_tokens."""
    texts = batch.column(text_col).to_pylist()
    n = len(texts)
    n_chars = np.empty(n, dtype=np.int64)
    n_tokens = np.empty(n, dtype=np.int64)
    n_uniq = np.empty(n, dtype=np.int64)
    for i, t in enumerate(texts):
        t = t or ""
        toks = TOKEN_RE.findall(t.lower())
        n_chars[i] = len(t)
        n_tokens[i] = len(toks)
        n_uniq[i] = len(set(toks))
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "n_chars": pa.array(n_chars),
            "n_tokens": pa.array(n_tokens),
            "n_uniq_tokens": pa.array(n_uniq),
        }
    )


class QualityScorer:
    """Stateful stage: composite quality score in [0, 1] from length,
    punctuation ratio, stopword ratio and type-token ratio (the usual
    web-corpus filtering heuristics). Regexes compile once per instance."""

    def __init__(self):
        self.word = TOKEN_RE
        self.punct = re.compile(r"[^\w\s]")
        self.stop = STOPWORDS_EN

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        scores = np.empty(len(texts), dtype=np.float64)
        for i, t in enumerate(texts):
            t = t or ""
            toks = self.word.findall(t.lower())
            n = len(toks)
            if n == 0:
                scores[i] = 0.0
                continue
            len_score = min(n, 500) / 500.0
            punct_ratio = len(self.punct.findall(t)) / max(len(t), 1)
            stop_ratio = sum(1 for w in toks if w in self.stop) / n
            ttr = len(set(toks)) / n
            scores[i] = (
                0.4 * len_score
                + 0.2 * (1.0 - min(punct_ratio * 5, 1.0))
                + 0.2 * min(stop_ratio * 3, 1.0)
                + 0.2 * ttr
            )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "quality": pa.array(scores, type=pa.float64()),
            }
        )


class LangId:
    """Char-trigram-profile language ID (n-gram heuristic). Profiles are
    built deterministically in __init__ (once per instance) from tiny built-in
    seed text per language; prediction = cosine over trigram counts with a
    tie-break on profile order. Real corpora would load real profiles —
    the Ray plumbing (stateful stage, vectorized batch) is the point."""

    SEEDS = {
        "en": "the quick brown fox jumps over the lazy dog and runs away with it",
        "de": "der schnelle braune fuchs springt ueber den faulen hund und weg",
        "fr": "le renard brun rapide saute par dessus le chien paresseux et vite",
        "es": "el rapido zorro marron salta sobre el perro perezoso y corre",
        "zh": "ni hao shi jie zhe shi yi ge ce shi wen ben hen gao xing",
    }

    def __init__(self):
        self.langs = sorted(self.SEEDS)
        self.profiles = {}
        for lang in self.langs:
            self.profiles[lang] = self._trigrams(self.SEEDS[lang])

    @staticmethod
    def _trigrams(t: str) -> dict[str, int]:
        t = f"  {t.lower()}  "
        out: dict[str, int] = {}
        for i in range(len(t) - 2):
            g = t[i : i + 3]
            out[g] = out.get(g, 0) + 1
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        preds = []
        for t in texts:
            tg = self._trigrams(t or "")
            best, best_s = "und", -1.0
            tn = sum(v * v for v in tg.values()) ** 0.5 or 1.0
            for lang in self.langs:
                p = self.profiles[lang]
                dot = sum(v * p.get(g, 0) for g, v in tg.items())
                pn = sum(v * v for v in p.values()) ** 0.5
                s = dot / (tn * pn)
                if s > best_s:
                    best, best_s = lang, s
            preds.append(best)
        return pa.table(
            {"doc_id": batch.column("doc_id"), "lang_pred": pa.array(preds, type=pa.string())}
        )


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Canonical document fingerprint: md5 over the normalized token stream
    (lowercase, non-alnum collapsed to single spaces, trimmed) — exactly
    expressible in SQL for the oracle."""
    texts = batch.column(text_col).to_pylist()
    fps = [
        hashlib.md5(_WS_RE.sub(" ", (t or "").lower()).strip().encode()).hexdigest()
        for t in texts
    ]
    return pa.table(
        {"doc_id": batch.column("doc_id"), "fingerprint": pa.array(fps, type=pa.string())}
    )


_ROLL_B = np.uint64(1099511628211)


def rolling_window_hashes(h: np.ndarray, window: int) -> np.ndarray:
    """Polynomial window hash over a token-hash stream: wh[p] =
    sum_i h[p+i] * B^i (uint64 wraparound), vectorized via a sliding
    window view — ONE definition shared by the winnowing fingerprints
    and the ExactSubstr dup-span pass so the SQL replays (HUGEINT
    mulmod power table) stay pinned to a single chain."""
    pw = np.array(
        [_ROLL_B ** np.uint64(i) for i in range(window)], dtype=np.uint64
    )
    sw = np.lib.stride_tricks.sliding_window_view(h, window)
    return (sw * pw[None, :]).sum(axis=1, dtype=np.uint64)


def rolling_fingerprint_batch(
    batch: pa.Table, window: int = 8, keep: int = 4, text_col: str = "text"
) -> pa.Table:
    """Winnowing-style rolling-hash fingerprint: Rabin-Karp over the token
    stream, keep the ``keep`` smallest window hashes (robust to small
    edits; vectorized via numpy sliding windows)."""
    texts = batch.column(text_col).to_pylist()
    out: list[list[int]] = []
    for t in texts:
        toks = TOKEN_RE.findall((t or "").lower())
        # deterministic token hash (Python's hash() is per-process salted)
        h = fnv1a_vec(pa.array(toks, type=pa.string()))
        if len(h) < window:
            wh = h if len(h) else np.zeros(1, dtype=np.uint64)
        else:
            wh = rolling_window_hashes(h, window)
        smallest = np.sort(wh)[:keep] & np.uint64(0x7FFFFFFFFFFFFFFF)
        out.append([int(x) for x in smallest])
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "minhashes": pa.array(out, type=pa.list_(pa.int64())),
        }
    )


# ---------------------------------------------------------------------------
# highlighter (snippet extraction per hit) — lucene/highlighter analogue
# ---------------------------------------------------------------------------


def make_snippet(text: str, terms: list[str], window: int = 8, max_fragments: int = 2) -> str:
    """Best-window snippet: find token positions matching any query term,
    emit up to ``max_fragments`` windows of ±window tokens with ** marks
    around matches (the per-hit map of SURVEY §2.7 highlighter row)."""
    toks = TOKEN_RE.findall((text or "").lower())
    term_set = set(terms)
    hits = [i for i, t in enumerate(toks) if t in term_set]
    if not hits:
        return " ".join(toks[: 2 * window])
    frags: list[str] = []
    used_upto = -1
    for h in hits:
        if h <= used_upto:
            continue
        lo, hi = max(0, h - window), min(len(toks), h + window + 1)
        frag = " ".join(f"**{t}**" if t in term_set else t for t in toks[lo:hi])
        frags.append(frag)
        used_upto = hi
        if len(frags) >= max_fragments:
            break
    return " ... ".join(frags)


def make_snippet_passages(
    text: str,
    terms: list[str],
    window: int = 16,
    k1: float = 1.2,
    b: float = 0.75,
    pivot: float = 16.0,
) -> tuple[int, float, str]:
    """Passage-scored snippet — the UnifiedHighlighter PassageScorer
    formula set (highlighter/.../uhighlight/PassageScorer.java:84-142):

        weight(L, ttf) = (k1+1) * ln(1 + ((1 + L/pivot) + 0.5)/(ttf + 0.5))
        tf(freq, plen) = freq / (freq + k1*((1-b) + b*(plen/pivot)))
        norm(start)    = 1 + 1/ln(pivot + start)
        score(passage) = norm(start) * Σ_unique-term tf * weight

    Documented deviations: passages are fixed non-overlapping WINDOWS of
    ``window`` tokens (BreakIterator-sentence stand-in), lengths are in
    tokens with pivot rescaled accordingly (the reference measures
    characters with pivot=87), and arithmetic is float64 so the DuckDB
    oracle replays every op bit-exactly (the same-libm ln lore).
    Returns (passage_start_token, passage_score, marked snippet) of the
    best passage (score desc, start asc); (0, 0.0, leading window) when
    no term matches."""
    import math

    toks = TOKEN_RE.findall((text or "").lower())
    term_set = set(terms)
    n = len(toks)
    if n == 0:
        return 0, 0.0, ""
    ttf = {t: 0 for t in term_set}
    for t in toks:
        if t in term_set:
            ttf[t] += 1
    if not any(ttf.values()):
        return 0, 0.0, " ".join(toks[:window])
    num_docs = 1 + n / pivot
    weight = {
        t: (k1 + 1) * math.log(1 + (num_docs + 0.5) / (ttf[t] + 0.5))
        for t in term_set
        if ttf[t]
    }
    best = None  # (neg score handled by compare, start)
    for start in range(0, n, window):
        plen = min(window, n - start)
        freqs: dict[str, int] = {}
        for t in toks[start : start + plen]:
            if t in term_set:
                freqs[t] = freqs.get(t, 0) + 1
        if not freqs:
            continue
        denom = k1 * ((1 - b) + b * (plen / pivot))
        s = 0.0
        for t in sorted(freqs):  # unique terms, sorted (deterministic sum)
            s += (freqs[t] / (freqs[t] + denom)) * weight[t]
        score = (1 + 1 / math.log(pivot + start)) * s
        if best is None or score > best[0] or (score == best[0] and start < best[1]):
            best = (score, start)
    score, start = best
    plen = min(window, n - start)
    snippet = " ".join(
        f"**{t}**" if t in term_set else t for t in toks[start : start + plen]
    )
    return start, score, snippet


def make_snippet_offsets(
    text: str,
    spans: list[tuple[int, int]],
    pad: int = 40,
    max_fragments: int = 2,
) -> str:
    """Offset-based snippet: fragments are ORIGINAL-text character windows
    around match spans that came from the INDEX'S offset stream — no
    re-analysis of the fetched text (the postings-offsets highlight
    strategy: lucene/highlighter/.../uhighlight/FieldOffsetStrategy.java
    reading IndexOptions ..._AND_OFFSETS postings instead of re-running
    the analyzer). Correct even for analyzers whose tokens don't
    round-trip from the stored text, and O(matches), not O(|doc|)
    tokenization work per hit."""
    if not spans:
        return (text or "")[: 2 * pad]
    spans = sorted((int(a), int(b)) for a, b in spans)
    frags: list[str] = []
    used_upto = -1
    for s, e in spans:
        if s <= used_upto:
            continue
        lo, hi = max(0, s - pad), min(len(text), e + pad)
        while lo > 0 and not text[lo - 1].isspace():  # snap to word bounds
            lo -= 1
        while hi < len(text) and not text[hi].isspace():
            hi += 1
        inside = [(a, b) for a, b in spans if a >= lo and b <= hi]
        out: list[str] = []
        prev = lo
        for a, b in inside:
            if a < prev:
                continue
            out.append(text[prev:a])
            out.append(f"**{text[a:b]}**")
            prev = b
        out.append(text[prev:hi])
        frags.append("".join(out).strip())
        used_upto = hi
        if len(frags) >= max_fragments:
            break
    return " ... ".join(frags)


def offset_spans_for_doc(seg, terms: list[str], doc_id: int) -> list[tuple[int, int]]:
    """Match spans for one doc from the index's offset stream: for each
    term, locate the doc's posting (searchsorted over the postings docs)
    and take its (start, end) offset arrays. Returns [] when the segment
    was built without offsets."""
    import numpy as np

    spans: list[tuple[int, int]] = []
    for t in terms:
        off = seg.offsets(t)
        if off is None:
            continue
        docs, _ = seg.postings(t)
        i = int(np.searchsorted(docs, doc_id))
        if i < len(docs) and docs[i] == doc_id:
            s_arr, e_arr = off[0][i], off[1][i]
            spans.extend(zip(s_arr.tolist(), e_arr.tolist()))
    return spans


def snippets_for_hits(hits_ds, pages_path: str, query_terms: list[str], window: int = 8):
    """Phase-2 fetch + highlight: join hit doc_ids back to the source
    parquet row store (the QueryComponent two-phase distributed-search
    shape — ids first, fields second) and emit snippets."""
    import pyarrow.dataset as pads
    import ray

    hit_ids = sorted({int(d) for d in hits_ds.to_pandas()["doc_id"]})
    # pushdown row filter: only the hit rows leave storage
    tbl = pads.dataset(pages_path).to_table(
        columns=["doc_id", "text"], filter=pads.field("doc_id").isin(hit_ids)
    )
    text_of = dict(zip(tbl.column("doc_id").to_pylist(), tbl.column("text").to_pylist()))
    text_ref = ray.put(text_of)
    terms_ref = ray.put(list(query_terms))

    def _snip(batch: pa.Table) -> pa.Table:
        texts = ray.get(text_ref)
        terms = ray.get(terms_ref)
        snips = [
            make_snippet(texts.get(int(d), ""), terms, window)
            for d in batch.column("doc_id").to_pylist()
        ]
        return batch.append_column("snippet", pa.array(snips, type=pa.string()))

    return hits_ds.map_batches(_snip, batch_format="pyarrow", **_rargs())


def shingle_count_batch(
    batch: pa.Table, text_col: str = "text", size: int = 2, sep: str = " "
) -> pa.Table:
    """Per-batch partial counts of word shingles (ShingleFilter.java:33-104
    role: default 2-gram, " " token separator) — the map-side combiner for
    ``shingle_top_counts``. Returns (shingle, cnt) partials so the global
    groupby shuffles one row per DISTINCT shingle per batch, not one per
    occurrence."""
    from collections import Counter

    texts = batch.column(text_col).to_pylist()
    c: Counter[str] = Counter()
    for t in texts:
        toks = TOKEN_RE.findall(t.lower()) if t else []
        if len(toks) >= size:
            c.update(map(sep.join, zip(*(toks[i:] for i in range(size)))))
    keys = sorted(c)
    return pa.table(
        {
            "shingle": pa.array(keys, type=pa.string()),
            "cnt": pa.array([c[k] for k in keys], type=pa.int64()),
        }
    )


def shingle_top_counts(ds, size: int = 2, k: int = 50):
    """Top-k word shingles by corpus count (tie: shingle asc). Partial
    per-batch Counter -> groupby sum -> distributed sort + limit; nothing
    materializes on the driver."""
    from ray.data.aggregate import Sum

    return (
        ds.map_batches(
            lambda b: shingle_count_batch(b, size=size),
            batch_format="pyarrow",
            **_rargs(),
        )
        .groupby("shingle")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .sort(["cnt", "shingle"], descending=[True, False])
        .limit(k)
    )


def stemmed_df_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Per-batch partial document frequencies of PORTER-STEMMED terms
    (PorterStemFilter.java role over the analysis chain) — one row per
    distinct (stemmed term) per batch with its partial df."""
    from collections import Counter

    from .filters import apply_filters

    texts = batch.column(text_col).to_pylist()
    c: Counter[str] = Counter()
    for t in texts:
        toks = TOKEN_RE.findall(t.lower()) if t else []
        c.update(set(apply_filters(toks, ("porter",))))
    keys = sorted(c)
    return pa.table(
        {
            "term": pa.array(keys, type=pa.string()),
            "df": pa.array([c[k] for k in keys], type=pa.int64()),
        }
    )


def stemmed_top_terms(ds, k: int = 100):
    """Top-k Porter-stemmed terms by df (tie: term asc). Exact SQL
    oracle: the full 1980 algorithm replayed as a DuckDB CTE chain over
    the distinct vocabulary (cv-pattern list_reduce fold + substr measure
    conditions — __ray_entry__ stemmed_top_terms), fuzz-pinned against
    porter_stem in tests/test_filters.py."""
    from ray.data.aggregate import Sum

    return (
        ds.map_batches(stemmed_df_batch, batch_format="pyarrow", **_rargs())
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"))
        .sort(["df", "term"], descending=[True, False])
        .limit(k)
    )


def edge_ngram_count_batch(
    batch: pa.Table, text_col: str = "text", min_gram: int = 2, max_gram: int = 4
) -> pa.Table:
    """Per-batch partial counts of EDGE n-grams (EdgeNGramTokenFilter.java:
    35-92 contract: prefixes of length min..max per token; tokens shorter
    than min emit nothing, preserveOriginal=false) — the autocomplete-index
    building block. Map-side combiner shape like shingle_count_batch."""
    from collections import Counter

    texts = batch.column(text_col).to_pylist()
    c: Counter[str] = Counter()
    for t in texts:
        for tok in TOKEN_RE.findall(t.lower()) if t else ():
            for n in range(min_gram, min(max_gram, len(tok)) + 1):
                c[tok[:n]] += 1
    keys = sorted(c)
    return pa.table(
        {
            "gram": pa.array(keys, type=pa.string()),
            "cnt": pa.array([c[k] for k in keys], type=pa.int64()),
        }
    )


def ngram_count_batch(
    batch: pa.Table, text_col: str = "text", min_gram: int = 3, max_gram: int = 3
) -> pa.Table:
    """Per-batch partial counts of ALL token substrings of length min..max
    (NGramTokenFilter.java:39-116, preserveOriginal=false)."""
    from collections import Counter

    texts = batch.column(text_col).to_pylist()
    c: Counter[str] = Counter()
    for t in texts:
        for tok in TOKEN_RE.findall(t.lower()) if t else ():
            L = len(tok)
            for n in range(min_gram, min(max_gram, L) + 1):
                for p in range(L - n + 1):
                    c[tok[p : p + n]] += 1
    keys = sorted(c)
    return pa.table(
        {
            "gram": pa.array(keys, type=pa.string()),
            "cnt": pa.array([c[k] for k in keys], type=pa.int64()),
        }
    )


def gram_top_counts(ds, kind: str = "edge", k: int = 100, **kw):
    """Top-k grams by corpus count (tie: gram asc): partial per-batch
    combiner -> groupby sum -> distributed sort + limit."""
    from ray.data.aggregate import Sum

    fn = edge_ngram_count_batch if kind == "edge" else ngram_count_batch

    return (
        ds.map_batches(
            lambda b: fn(b, **kw), batch_format="pyarrow", **_rargs()
        )
        .groupby("gram")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .sort(["cnt", "gram"], descending=[True, False])
        .limit(k)
    )


def soundex_term_groups(ds, k: int = 50):
    """Top-k Soundex codes by number of DISTINCT terms mapping to them
    (PhoneticFilter.java role over the corpus vocabulary): per-batch
    distinct-term partials -> global distinct (groupby term) -> code
    partials -> groupby code sum -> sort+limit. Rows-only entry (Soundex
    is procedural, not SQL-expressible in stock DuckDB); the algorithm is
    golden-tested in tests/test_filters.py."""
    from collections import Counter

    from ray.data.aggregate import Count, Sum

    def terms_batch(b: pa.Table) -> pa.Table:
        s: set[str] = set()
        for t in b.column("text").to_pylist():
            s.update(TOKEN_RE.findall(t.lower()) if t else ())
        return pa.table({"term": pa.array(sorted(s), type=pa.string())})

    def code_batch(b: pa.Table) -> pa.Table:
        from .filters import soundex

        c: Counter[str] = Counter(
            soundex(t) for t in b.column("term").to_pylist()
        )
        keys = sorted(c)
        return pa.table(
            {
                "code": pa.array(keys, type=pa.string()),
                "n_terms": pa.array([c[x] for x in keys], type=pa.int64()),
            }
        )

    return (
        ds.map_batches(terms_batch, batch_format="pyarrow", **_rargs())
        .groupby("term")
        .aggregate(Count(alias_name="_n"))
        .select_columns(["term"])
        .map_batches(code_batch, batch_format="pyarrow", **_rargs())
        .groupby("code")
        .aggregate(Sum("n_terms", alias_name="n_terms"))
        .sort(["n_terms", "code"], descending=[True, False])
        .limit(k)
    )


def gopher_repetition_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style repetition signals per document (Rae et al. 2021 §A1.1
    "repetition removal"; the filters a web-corpus pipeline thresholds on),
    kept as INTEGER numerators/denominators so the SQL oracle is exact:

      n_tokens            token count
      n_dup_tokens        occurrences belonging to tokens seen >= 2 times
                          (the duplicate-line fraction analogue at token
                          granularity — fixture docs are single-line)
      n_bigrams           max(n_tokens - 1, 0)
      top_bigram_cnt      occurrences of the most frequent adjacent bigram
      top_trigram_cnt     occurrences of the most frequent adjacent trigram

    Ratios (top_bigram_cnt / n_bigrams etc.) are computed by the consumer;
    emitting integers keeps the driver hash dtype-stable."""
    from collections import Counter

    texts = batch.column(text_col).to_pylist()
    n = len(texts)
    cols = {
        k: np.zeros(n, dtype=np.int64)
        for k in ("n_tokens", "n_dup_tokens", "n_bigrams", "top_bigram_cnt", "top_trigram_cnt")
    }
    for i, t in enumerate(texts):
        toks = TOKEN_RE.findall(t.lower()) if t else []
        m = len(toks)
        cols["n_tokens"][i] = m
        if m == 0:
            continue
        uni = Counter(toks)
        cols["n_dup_tokens"][i] = sum(c for c in uni.values() if c >= 2)
        cols["n_bigrams"][i] = max(m - 1, 0)
        if m >= 2:
            bi = Counter(zip(toks, toks[1:]))
            cols["top_bigram_cnt"][i] = max(bi.values())
        if m >= 3:
            tri = Counter(zip(toks, toks[1:], toks[2:]))
            cols["top_trigram_cnt"][i] = max(tri.values())
    out = {"doc_id": batch.column("doc_id")}
    out.update({k: pa.array(v, type=pa.int64()) for k, v in cols.items()})
    return pa.table(out)


def host_page_stats(ds):
    """Per-host corpus stats over a pages Dataset (url, text): the
    host-level aggregation every Common-Crawl pipeline runs before
    per-domain sampling/filtering. Map-side combiner (np.unique over the
    batch's hosts) -> groupby(host) sum, so the shuffle carries one row
    per distinct host per batch, not one per page. Returns
    (host, n_docs, sum_tokens) with BIGINT columns — token counts, not
    chars, because pages.text is the EXTRACTED text (paragraph newlines,
    alt text) whose token stream, but not char count, matches the source
    body contract."""
    from ray.data.aggregate import Sum

    _host_re = re.compile(r"^[a-z]+://([^/]+)/")

    def partial(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        hosts = np.array(
            [(_host_re.match(u).group(1) if _host_re.match(u) else "") for u in urls]
        )
        texts = batch.column("text").to_pylist()
        toks = np.fromiter(
            (len(TOKEN_RE.findall(t.lower())) if t else 0 for t in texts),
            dtype=np.int64,
            count=len(texts),
        )
        uniq, inv = np.unique(hosts, return_inverse=True)
        n_docs = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        sum_tokens = np.bincount(inv, weights=toks, minlength=len(uniq)).astype(
            np.int64
        )
        return pa.table(
            {
                "host": pa.array(uniq, type=pa.string()),
                "n_docs": pa.array(n_docs, type=pa.int64()),
                "sum_tokens": pa.array(sum_tokens, type=pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", **_rargs())
        .groupby("host")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_tokens", alias_name="sum_tokens"),
        )
    )


# PII scrubbing: the standard pre-training redaction pass. Patterns are
# RE2-compatible (no lookaround) and applied in a FIXED order (email ->
# ipv4 -> phone) so the DuckDB oracle replays them identically; the corpus
# is lowercase ASCII so Python-re vs RE2 \w/\d class differences are moot.
PII_PATTERNS: tuple[tuple[str, str, str], ...] = (
    ("email", r"[a-z0-9._%+-]+@[a-z0-9.-]+\.[a-z]{2,}", "<EMAIL>"),
    ("ipv4", r"\b\d{1,3}\.\d{1,3}\.\d{1,3}\.\d{1,3}\b", "<IP>"),
    ("phone", r"\b555-\d{4}\b", "<PHONE>"),
)
_PII_RES = tuple((name, re.compile(pat), repl) for name, pat, repl in PII_PATTERNS)


def pii_scrub_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Redact emails / IPv4s / phone-shaped strings, returning the clean
    text plus per-kind match counts (doc_id, text_clean, n_email, n_ipv4,
    n_phone). Compiled patterns are module-level (one compile per
    process); counts are integers so the oracle is dtype-exact."""
    texts = batch.column(text_col).to_pylist()
    n = len(texts)
    clean: list[str] = []
    counts = {name: np.zeros(n, dtype=np.int64) for name, _, _ in _PII_RES}
    for i, t in enumerate(texts):
        s = t or ""
        for name, rx, repl in _PII_RES:
            s, k = rx.subn(repl, s)
            counts[name][i] = k
        clean.append(s)
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "text_clean": pa.array(clean, type=pa.string()),
            "n_email": pa.array(counts["email"]),
            "n_ipv4": pa.array(counts["ipv4"]),
            "n_phone": pa.array(counts["phone"]),
        }
    )


def rolling_fingerprint_rows_batch(
    batch: pa.Table, window: int = 8, keep: int = 4, text_col: str = "text"
) -> pa.Table:
    """rolling_fingerprint_batch exploded to (doc_id, rank, fp) rows —
    scalar columns so the winnowing fingerprints get an exact SQL oracle
    (list-typed columns repr differently across engines). rank follows the
    UNMASKED uint64 ascending order the selection uses."""
    t = rolling_fingerprint_batch(batch, window=window, keep=keep, text_col=text_col)
    docs = t.column("doc_id").to_numpy()
    lists = t.column("minhashes").to_pylist()
    d_out: list[int] = []
    r_out: list[int] = []
    f_out: list[int] = []
    for d, fps in zip(docs.tolist(), lists):
        for r, fp in enumerate(fps):
            d_out.append(d)
            r_out.append(r)
            f_out.append(fp)
    return pa.table(
        {
            "doc_id": pa.array(d_out, type=pa.int64()),
            "rank": pa.array(r_out, type=pa.int64()),
            "fp": pa.array(f_out, type=pa.int64()),
        }
    )


# URL canonicalization: the crawl-pipeline normalization pass before
# url-keyed dedup. Fragment dropped, tracking params removed, param order
# preserved — each step is a regex/list transform the SQL oracle replays
# verbatim (host lowercasing is out of scope: fixture hosts are lowercase).
_URL_BASE_RE = re.compile(r"^[^?#]*")
_URL_PARAM_RE = re.compile(r"[?&]([^&#]+)")
_URL_TRACKING_RE = re.compile(r"^(utm_[a-z]+|fbclid|gclid)=")


def canonicalize_url_batch(batch: pa.Table, url_col: str = "url") -> pa.Table:
    """(doc_id, url_canon, n_dropped): strip the #fragment, drop
    utm_*/fbclid/gclid query params (keeping the rest in order), count
    what was removed."""
    urls = batch.column(url_col).to_pylist()
    canon: list[str] = []
    dropped = np.zeros(len(urls), dtype=np.int64)
    for i, u in enumerate(urls):
        u = u or ""
        base = _URL_BASE_RE.match(u).group(0)
        params = _URL_PARAM_RE.findall(u)
        keep = [p for p in params if not _URL_TRACKING_RE.match(p)]
        dropped[i] = len(params) - len(keep)
        canon.append(base + ("?" + "&".join(keep) if keep else ""))
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "url_canon": pa.array(canon, type=pa.string()),
            "n_dropped": pa.array(dropped),
        }
    )


def pack_sequences(ds, budget: int = 512, chunk: int = 64):
    """Greedy sequence packing for LLM training-batch prep
    (beyond-reference: the 'packing' step that concatenates documents
    into fixed-token-budget training sequences, cf. T5/GPT packed
    pretraining batches): (doc_id, n_tokens, chunk_id, seq_id).

    Global greedy packing is inherently sequential, so packing is scoped
    to fixed doc_id chunks of ``chunk`` docs — the partitioning a 100-TB
    run uses (pack within input shard): per-chunk packing is
    embarrassingly parallel, deterministic, and the only cross-chunk
    waste is one partially-filled tail sequence per chunk.

    Within a chunk, docs pack in doc_id order with first-fit-sequential:
    a doc joins the open sequence iff fill + n_tokens <= budget, else it
    opens a new one (a doc longer than the budget gets its own overflow
    sequence; an empty doc joins the open sequence). ``seq_id`` is
    chunk-local. Token counts are the whitespace+regex analyzer counts
    (token_count_batch), so the packing replays exactly in SQL."""
    import pandas as pd

    def _count(batch: pa.Table) -> pa.Table:
        t = token_count_batch(batch)
        cid = t.column("doc_id").to_numpy() // np.int64(chunk)
        return t.append_column("chunk_id", pa.array(cid, type=pa.int64()))

    def _pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id").reset_index(drop=True)
        fill = budget + 1  # forces the first doc (even 0-token) to open seq 0
        seq = -1
        seqs = np.empty(len(g), dtype=np.int64)
        for i, n in enumerate(g["n_tokens"].to_numpy()):
            n = int(n)
            if fill + n <= budget:
                fill += n
            else:
                fill = n
                seq += 1
            seqs[i] = seq
        g["seq_id"] = seqs
        return g

    return (
        ds.map_batches(_count, batch_format="pyarrow", **_rargs())
        .groupby("chunk_id")
        .map_groups(_pack, batch_format="pandas", **_rargs())
    )


def chunk_sliding(ds, window: int = 64, stride: int = 32):
    """Sliding-window document chunking for LM pretraining
    (beyond-reference: the fixed-context splitter applied to
    longer-than-context documents, cf. HF ``return_overflowing_tokens``
    with stride): (doc_id, chunk_idx, start_tok, n_chunk_tokens,
    chunk_text).

    Chunks start at token offsets 0, stride, 2*stride, ... and span up to
    ``window`` tokens. A chunk is emitted iff it contributes at least one
    token not covered by the previous window: chunk 0 always, chunk i>0
    iff n_tokens - i*stride > window - stride. The final chunk may be
    shorter than ``window``. Empty docs emit no chunks.

    Tokens are the whitespace+regex analyzer tokens (TOKEN_RE on
    lowercased text), and ``chunk_text`` is the space-join of the
    window's tokens — both replay exactly in SQL
    (regexp_extract_all + list_slice + array_to_string).

    Scale posture: pure map_batches (no shuffle, no driver state); the
    per-doc fan-out is bounded by n_tokens/stride, and output streams
    block-by-block."""
    assert 0 < stride <= window

    def _chunk(batch: pa.Table) -> pa.Table:
        docs = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        d_out: list[int] = []
        i_out: list[int] = []
        s_out: list[int] = []
        n_out: list[int] = []
        t_out: list[str] = []
        for d, t in zip(docs.tolist(), texts):
            toks = TOKEN_RE.findall(t.lower()) if t else []
            n = len(toks)
            i = 0
            start = 0
            while start < n and (i == 0 or n - start > window - stride):
                piece = toks[start : start + window]
                d_out.append(d)
                i_out.append(i)
                s_out.append(start)
                n_out.append(len(piece))
                t_out.append(" ".join(piece))
                i += 1
                start += stride
        return pa.table(
            {
                "doc_id": pa.array(d_out, type=pa.int64()),
                "chunk_idx": pa.array(i_out, type=pa.int64()),
                "start_tok": pa.array(s_out, type=pa.int64()),
                "n_chunk_tokens": pa.array(n_out, type=pa.int64()),
                "chunk_text": pa.array(t_out, type=pa.string()),
            }
        )

    return ds.map_batches(_chunk, batch_format="pyarrow", **_rargs())


def domain_mix_sample(ds, rates: dict[str, int], default_permille: int = 100):
    """Per-domain weighted sampling for training-data mixing (the
    Pile/Dolma "mixing weights" pass: each source keeps a configured
    fraction of its documents). Deterministic FNV-residue sampling over
    doc_id (the same resumable-across-retries property as
    relational.orders_sample_hash — no RNG state, identical under any
    partitioning), so the kept set replays exactly in SQL:
    keep iff fnv1a(8 LE bytes of doc_id) % 1000 < permille(source).

    ``rates`` maps source -> permille (0..1000); unlisted sources use
    ``default_permille``. Pure map_batches filter — no shuffle; rate
    tables ship in the task closure (stop-word-sized)."""

    def filt(batch: pa.Table) -> pa.Table:
        h = fnv1a_u64_vec(batch.column("doc_id").to_numpy())
        res = (h % np.uint64(1000)).astype(np.int64)
        srcs = batch.column("source").to_pylist()
        thr = np.fromiter(
            (rates.get(s, default_permille) for s in srcs),
            dtype=np.int64,
            count=len(srcs),
        )
        return batch.filter(pa.array(res < thr))

    return ds.map_batches(filt, batch_format="pyarrow", **_rargs())


def epoch_shuffle(ds, seed: int = 1, id_col: str = "doc_id"):
    """Seeded deterministic global shuffle (beyond-reference: the
    per-epoch training-data reshuffle a pretraining pipeline runs before
    sharding batches to trainers). shuffle_key = fmix64(fnv1a(8 LE bytes
    of id) XOR golden-ratio seed salt) >> 1 (bit 63 dropped so the key
    stays int64/BIGINT-safe), then ONE range-partitioned Dataset sort by
    (shuffle_key, id) — the one pipeline stage whose job IS the
    all-to-all exchange. No RNG state: the permutation depends only on
    (id, seed), so it is partition-count-invariant, resumable across
    retries (unlike ray.data.random_shuffle), and a different epoch's
    seed gives an uncorrelated order (fmix64 avalanche). The key chain
    replays exactly in SQL (HUGEINT mulmod, see the epoch_shuffle
    oracle)."""
    from .merge import _fmix64

    salt = np.uint64((0x9E3779B97F4A7C15 * (seed + 1)) & 0xFFFFFFFFFFFFFFFF)

    def keyed(batch: pa.Table) -> pa.Table:
        h = fnv1a_u64_vec(batch.column(id_col).to_numpy())
        key = (_fmix64(h ^ salt) >> np.uint64(1)).astype(np.int64)
        return pa.table(
            {
                id_col: batch.column(id_col),
                "shuffle_key": pa.array(key, type=pa.int64()),
            }
        )

    return ds.map_batches(keyed, batch_format="pyarrow", **_rargs()).sort(
        ["shuffle_key", id_col]
    )


def hll_vocab_estimate(ds, b: int = 6):
    """HyperLogLog cardinality sketch over the corpus VOCABULARY (the
    Solr StatsComponent 'cardinality'/json.facet 'hll' role; Flajolet
    et al. 2007): distinct-token estimate without a distinct shuffle.
    m = 2^b buckets; each token hash feeds bucket = h >> (64-b) and
    rank = 33 - bitlength(h & (2^32-1)) (the rank domain is capped at
    32 low bits so the SQL oracle's float-free bit math stays exact;
    zero low bits rank 33). Per-batch partials carry ONE (bucket, rank)
    row per touched bucket (np.maximum.at), the groupby(bucket).Max
    reduce moves <= m rows per batch, and the final fold runs in bucket
    order so the float64 estimate replays bit-exactly in SQL:
    E = alpha_m * m^2 / sum_b 2^-rank_b (raw HLL, no small/large-range
    correction — documented; alpha_64 = 0.709 constant).

    Returns one row (m, n_zero_buckets, estimate)."""
    from ray.data.aggregate import Max

    m = 1 << b

    def _partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        toks: set[str] = set()
        for t in texts:
            toks.update(TOKEN_RE.findall((t or "").lower()))
        if not toks:
            return pa.table(
                {
                    "bucket": pa.array([], type=pa.int64()),
                    "rank": pa.array([], type=pa.int64()),
                }
            )
        from .merge import _fmix64

        # fmix64 finalizer: raw FNV's high bits cluster on short
        # sequential keys (21/64 buckets hit on a 2000-term probe) —
        # same avalanche fix as the Bloom sidecar (CLAUDE.md lore)
        h = _fmix64(
            np.fromiter((fnv1a(w) for w in toks), dtype=np.uint64, count=len(toks))
        )
        bucket = (h >> np.uint64(64 - b)).astype(np.int64)
        low = (h & np.uint64(0xFFFFFFFF)).astype(np.int64)
        # bitlength via int bit math (no floats): np.frexp is float-based;
        # use the exact integer log2 from bit_length per unique value
        bl = np.fromiter((int(x).bit_length() for x in low), dtype=np.int64, count=len(low))
        rank = 33 - bl  # low == 0 -> bit_length 0 -> rank 33
        ranks = np.zeros(m, dtype=np.int64)
        np.maximum.at(ranks, bucket, rank)
        touched = np.flatnonzero(ranks)
        return pa.table(
            {
                "bucket": pa.array(touched, type=pa.int64()),
                "rank": pa.array(ranks[touched], type=pa.int64()),
            }
        )

    agg = (
        ds.map_batches(_partial, batch_format="pyarrow", **_rargs())
        .groupby("bucket")
        .aggregate(Max("rank", alias_name="rank"))
        .take_all()
    )
    ranks = np.zeros(m, dtype=np.int64)
    for row in agg:
        ranks[int(row["bucket"])] = int(row["rank"])
    # ordered float64 fold (bucket asc) so the SQL list_reduce replays it
    acc = 0.0
    for r in ranks.tolist():
        acc += 2.0 ** (-r)
    est = (0.709 * float(m) * float(m)) / acc
    return pa.table(
        {
            "m": pa.array([m], type=pa.int64()),
            "n_zero_buckets": pa.array([int((ranks == 0).sum())], type=pa.int64()),
            "estimate": pa.array([est], type=pa.float64()),
        }
    )


def cms_term_counts(ds, query_terms: tuple[str, ...], d: int = 4, w: int = 512):
    """Count-Min Sketch term-frequency estimation (Cormode & Muthu 2005
    — the heavy-hitter sketch a 100-TB pipeline uses when exact
    per-term counts would need a vocabulary-wide shuffle): d x w counter
    matrix, row r hashes token t to fmix64(fnv1a(t) ^ SALT[r]) % w and
    adds its occurrence count; estimate(t) = min over rows (always an
    OVERcount — CMS never underestimates). The sketch is LINEAR, so
    per-batch partial matrices merge by cell-wise sum: partials stream
    as (cell, cnt) rows through one groupby Sum — the reduce moves
    <= d*w rows per batch regardless of vocabulary size.

    Returns (term, est) for ``query_terms``. The SQL oracle rebuilds the
    identical matrix (token counts -> salted fmix64 cells -> min), so
    even collision-inflated estimates match exactly."""
    from ray.data.aggregate import Sum

    from .merge import _fmix64

    salts = tuple(0x9E3779B97F4A7C15 * (r + 1) & 0xFFFFFFFFFFFFFFFF for r in range(d))

    def _partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        counts: dict[str, int] = {}
        for t in texts:
            for w_ in TOKEN_RE.findall((t or "").lower()):
                counts[w_] = counts.get(w_, 0) + 1
        if not counts:
            return pa.table(
                {
                    "cell": pa.array([], type=pa.int64()),
                    "cnt": pa.array([], type=pa.int64()),
                }
            )
        toks = list(counts)
        c = np.fromiter((counts[t] for t in toks), dtype=np.int64, count=len(toks))
        h = np.fromiter((fnv1a(t) for t in toks), dtype=np.uint64, count=len(toks))
        cells: list[np.ndarray] = []
        vals: list[np.ndarray] = []
        for r, salt in enumerate(salts):
            col = (_fmix64(h ^ np.uint64(salt)) % np.uint64(w)).astype(np.int64)
            mat = np.zeros(w, dtype=np.int64)
            np.add.at(mat, col, c)
            touched = np.flatnonzero(mat)
            cells.append(r * w + touched)
            vals.append(mat[touched])
        return pa.table(
            {
                "cell": pa.array(np.concatenate(cells)),
                "cnt": pa.array(np.concatenate(vals)),
            }
        )

    agg = (
        ds.map_batches(_partial, batch_format="pyarrow", **_rargs())
        .groupby("cell")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .take_all()
    )
    mat = np.zeros(d * w, dtype=np.int64)
    for row in agg:
        mat[int(row["cell"])] = int(row["cnt"])
    out_t: list[str] = []
    out_e: list[int] = []
    for t in query_terms:
        h = fnv1a(t)
        est = min(
            int(mat[r * w + (_fmix64(h ^ salt) % w)])
            for r, salt in enumerate(salts)
        )
        out_t.append(t)
        out_e.append(est)
    return pa.table(
        {
            "term": pa.array(out_t, type=pa.string()),
            "est": pa.array(out_e, type=pa.int64()),
        }
    )


def doclen_quantiles(ds, qs: tuple[float, ...] = (0.5, 0.9, 0.99)):
    """EXACT distributed quantiles of the n_chars distribution — the
    two-phase value-histogram pattern (groupby(value).Count moves one
    row per DISTINCT value, so the reduce is bounded by the value
    domain, not the corpus; the quantile selection runs over the tiny
    histogram). Quantile rule = type-1 (inverse ECDF): the smallest
    value whose cumulative count >= ceil(q * N). Returns (q, value).
    A 100-TB run over an unbounded domain would bucket first (the same
    shape with range keys); char lengths are domain-bounded so the
    histogram IS exact."""
    from ray.data.aggregate import Count

    import math as _math

    hist = (
        ds.groupby("n_chars")
        .aggregate(Count(alias_name="cnt"))
        .take_all()
    )
    vals = np.array([int(r["n_chars"]) for r in hist], dtype=np.int64)
    cnts = np.array([int(r["cnt"]) for r in hist], dtype=np.int64)
    order = np.argsort(vals)
    vals, cnts = vals[order], cnts[order]
    cum = np.cumsum(cnts)
    n = int(cum[-1]) if len(cum) else 0
    out_q: list[float] = []
    out_v: list[int] = []
    for q in qs:
        k = max(1, _math.ceil(q * n))
        i = int(np.searchsorted(cum, k))
        out_q.append(q)
        out_v.append(int(vals[i]))
    return pa.table(
        {
            "q": pa.array(out_q, type=pa.float64()),
            "value": pa.array(out_v, type=pa.int64()),
        }
    )


# ---------------------------------------------------------------------------
# DSIR data selection (hashed-ngram importance resampling, Xie et al. 2023)
# ---------------------------------------------------------------------------


def _gumbel_keys(ids, scores, salt: int, inv_scale: float):
    """Seeded Gumbel keys for DSIR resampling, every f64 op exactly
    SQL-replayable: u = (float((fnv1a(8 LE bytes of id) XOR salt) >> 11)
    + 0.5) / 2^53 (exact power-of-2 arithmetic, u strictly in (0,1)),
    g = -ln(-ln(u)) via SCALAR math.log (libm == DuckDB ln bit-for-bit;
    vectorized np.log differs by 1 ulp on ~19%% of inputs — CLAUDE.md),
    key = float(score) * 2^-scale_bits + g (exact halving chain + one
    correctly-rounded add). No RNG state: the draw depends only on
    (id, seed), so it is partition-invariant and resumable."""
    import math

    h = fnv1a_u64_vec(ids) ^ np.uint64(salt)
    hs = (h >> np.uint64(11)).astype(np.int64)
    out = np.empty(len(ids), dtype=np.float64)
    for i in range(len(ids)):
        u = (float(int(hs[i])) + 0.5) / 9007199254740992.0
        out[i] = float(int(scores[i])) * inv_scale + (-math.log(-math.log(u)))
    return out


class _DsirScore:
    """Scoring stage (``rayenv.ProcessStage`` tasks): the fixed-point
    lambda table ships ONCE per stage inside the stage object (never a
    bare ray.put handle, whose owner dies when the building function
    returns); __call__ scores each raw doc as an INTEGER sum of
    per-occurrence bucket weights and emits the batch's partial top-k
    only (<= top_k rows per block shuffle)."""

    def __init__(
        self,
        lam,
        n_buckets: int,
        target_stride: int,
        top_k: int,
        gumbel_salt: int | None = None,
        scale_bits: int = 20,
    ):
        self._lam = lam
        self._nb = np.uint64(n_buckets)
        self._stride = target_stride
        self._k = top_k
        self._salt = gumbel_salt
        self._inv_scale = 1.0 / float(1 << scale_bits)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        out_id: list[int] = []
        out_sc: list[int] = []
        for did, t in zip(doc_ids, texts):
            if int(did) % self._stride == 0:  # target doc: never selected
                continue
            toks = TOKEN_RE.findall(t.lower()) if t else []
            if not toks:
                continue
            b = (
                fnv1a_vec(pa.array(toks, type=pa.string())) % self._nb
            ).astype(np.int64)
            out_id.append(int(did))
            out_sc.append(int(self._lam[b].sum()))  # int64 sum: order-free
        ids = np.asarray(out_id, dtype=np.int64)
        sc = np.asarray(out_sc, dtype=np.int64)
        if self._salt is None:
            keep = np.lexsort((ids, -sc))[: self._k]  # score desc, id asc
            return pa.table(
                {
                    "doc_id": pa.array(ids[keep], type=pa.int64()),
                    "dsir_score": pa.array(sc[keep], type=pa.int64()),
                }
            )
        keys = _gumbel_keys(ids, sc, self._salt, self._inv_scale)
        keep = np.lexsort((ids, -keys))[: self._k]  # key desc, id asc
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], type=pa.int64()),
                "dsir_score": pa.array(sc[keep], type=pa.int64()),
                "gumbel_key": pa.array(keys[keep], type=pa.float64()),
            }
        )


def dsir_select(
    ds,
    n_buckets: int = 512,
    target_stride: int = 37,
    top_k: int = 200,
    scale_bits: int = 20,
    gumbel_seed: int | None = None,
):
    """DSIR — Data Selection via Importance Resampling (Xie et al. 2023;
    beyond-reference LLM-pipeline op, the hashed-ngram data-selection
    pass): fit hashed bag-of-tokens models for a TARGET split
    (doc_id % target_stride == 0, the same held-out convention as
    dedup.decontaminate_ngrams) and the RAW split (everything else),
    weight each raw doc by its add-1-smoothed log-likelihood ratio

        log w(doc) = sum over token occurrences of lambda[bucket(token)]
        lambda_b   = ln((t_b+1)/(T+B)) - ln((r_b+1)/(R+B))

    with bucket(token) = fnv1a(token) % n_buckets, then select the
    ``top_k`` raw docs by weight (deterministic top-k, score-desc /
    doc_id-asc). With ``gumbel_seed`` set, selection becomes the paper's
    actual RESAMPLING: top-k by log w + Gumbel(0,1) noise (sampling
    without replacement with probability proportional to w), where the
    Gumbel draw is a seeded deterministic hash of doc_id (_gumbel_keys)
    — still partition-invariant and resumable, and the whole float chain
    still replays exactly in SQL. Token-less docs are never candidates.

    Exactness + scale design: lambda is quantized to FIXED-POINT int64,
    floor(lambda * 2^scale_bits), so the per-doc reduction is an integer
    sum — order-free under any partitioning (no float-sum
    nondeterminism in the distributed reduce) and exactly
    SQL-replayable: scalar math.log matches DuckDB ln bit-for-bit
    (CLAUDE.md libm lore), the divides/subtract/multiply are single
    correctly-rounded f64 ops on exactly-representable ints, and floor
    is exact. Three streaming stages: (1) per-batch partial bucket
    counts (<= n_buckets rows each) folded on the driver — bounded by B,
    not the corpus; (2) the B-entry lambda table ships once per stage in
    a ``rayenv.ProcessStage``; (3) per-batch partial top-k, driver final sort
    over <= top_k x n_blocks rows. Returns an Arrow table
    (doc_id, dsir_score) of the selected docs."""
    import math

    from .rayenv import ProcessStage

    B = n_buckets

    def _counts(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        t_cnt = np.zeros(B, dtype=np.int64)
        r_cnt = np.zeros(B, dtype=np.int64)
        for did, t in zip(doc_ids, texts):
            toks = TOKEN_RE.findall(t.lower()) if t else []
            if not toks:
                continue
            b = (
                fnv1a_vec(pa.array(toks, type=pa.string())) % np.uint64(B)
            ).astype(np.int64)
            tgt = int(did) % target_stride == 0
            (t_cnt if tgt else r_cnt)[:] += np.bincount(b, minlength=B)
        touched = np.flatnonzero(t_cnt | r_cnt)
        return pa.table(
            {
                "bucket": pa.array(touched, type=pa.int64()),
                "t_cnt": pa.array(t_cnt[touched], type=pa.int64()),
                "r_cnt": pa.array(r_cnt[touched], type=pa.int64()),
            }
        )

    t_tot = np.zeros(B, dtype=np.int64)
    r_tot = np.zeros(B, dtype=np.int64)
    for part in ds.map_batches(
        _counts, batch_format="pyarrow", **_rargs()
    ).iter_batches(batch_format="pyarrow"):
        # iter_batches may coalesce blocks -> duplicate bucket rows
        np.add.at(t_tot, part.column("bucket").to_numpy(), part.column("t_cnt").to_numpy())
        np.add.at(r_tot, part.column("bucket").to_numpy(), part.column("r_cnt").to_numpy())

    T = int(t_tot.sum())
    R = int(r_tot.sum())
    scale = float(1 << scale_bits)
    lam = np.empty(B, dtype=np.int64)
    for i in range(B):  # scalar math.log: replays as DuckDB ln bit-for-bit
        l = math.log((int(t_tot[i]) + 1) / (T + B)) - math.log(
            (int(r_tot[i]) + 1) / (R + B)
        )
        lam[i] = math.floor(l * scale)

    salt = (
        None
        if gumbel_seed is None
        else (0x9E3779B97F4A7C15 * (gumbel_seed + 1)) & 0xFFFFFFFFFFFFFFFF
    )
    scored = ds.map_batches(
        ProcessStage(_DsirScore, lam, n_buckets, target_stride, top_k, salt, scale_bits),
        batch_format="pyarrow",
        **_rargs(),
    )
    rows = scored.take_all()  # <= top_k per block: bounded
    ids = np.array([int(r["doc_id"]) for r in rows], dtype=np.int64)
    sc = np.array([int(r["dsir_score"]) for r in rows], dtype=np.int64)
    if salt is None:
        keep = np.lexsort((ids, -sc))[:top_k]
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], type=pa.int64()),
                "dsir_score": pa.array(sc[keep], type=pa.int64()),
            }
        )
    keys = np.array([float(r["gumbel_key"]) for r in rows], dtype=np.float64)
    keep = np.lexsort((ids, -keys))[:top_k]
    return pa.table(
        {
            "doc_id": pa.array(ids[keep], type=pa.int64()),
            "dsir_score": pa.array(sc[keep], type=pa.int64()),
            "gumbel_key": pa.array(keys[keep], type=pa.float64()),
        }
    )


def pmi_top_bigrams(ds, top_n: int = 50):
    """Collocation extraction — pointwise mutual information over
    adjacent token bigrams (Church & Hanks 1990 association ratio,
    PMI = ln(c_ab * N / (c_a * c_b)) with N = total token count; the
    phrase-mining pass a training pipeline runs before tokenizer /
    stop-phrase decisions).

    Distributed shape: one map_batches pass emits map-side-combined
    (bigram, first, second, count) partials (np.unique per batch), one
    groupby sum; the top-``top_n`` selection is per-block partial top-k
    then a bounded driver reduce, ordered by INTEGER keys (count desc,
    bigram asc) so no float enters the selection; the two unigram
    lookups fetch only the winners' constituent terms (is_in filter,
    <= 2*top_n rows). PMI itself is computed only for the winners:
    (f64(c_ab) * f64(N)) / (f64(c_a) * f64(c_b)) — two double
    multiplies and one division, then ONE scalar math.log (libm ==
    DuckDB ln bit-for-bit, CLAUDE.md) — exactly SQL-replayable.
    Caveat (documented): the double products round above 2^53; at that
    corpus size the oracle's DOUBLE arithmetic rounds identically."""
    import math

    import pyarrow.compute as pc
    from ray.data.aggregate import Sum

    def bigram_partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        firsts: list[str] = []
        seconds: list[str] = []
        for t in texts:
            toks = TOKEN_RE.findall(t.lower()) if t else []
            firsts.extend(toks[:-1])
            seconds.extend(toks[1:])
        if not firsts:
            return pa.table(
                {
                    "bigram": pa.array([], type=pa.string()),
                    "ta": pa.array([], type=pa.string()),
                    "tb": pa.array([], type=pa.string()),
                    "cnt": pa.array([], type=pa.int64()),
                }
            )
        grams = np.array([f"{a} {b}" for a, b in zip(firsts, seconds)])
        uniq, idx, inv = np.unique(grams, return_index=True, return_inverse=True)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        fa = np.array(firsts)[idx]
        sa = np.array(seconds)[idx]
        return pa.table(
            {
                "bigram": pa.array(uniq, type=pa.string()),
                "ta": pa.array(fa, type=pa.string()),
                "tb": pa.array(sa, type=pa.string()),
                "cnt": pa.array(counts, type=pa.int64()),
            }
        )

    def unigram_partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        toks: list[str] = []
        for t in texts:
            toks.extend(TOKEN_RE.findall(t.lower()) if t else [])
        if not toks:
            return pa.table(
                {"t": pa.array([], type=pa.string()),
                 "c": pa.array([], type=pa.int64())}
            )
        uniq, inv = np.unique(np.array(toks), return_inverse=True)
        return pa.table(
            {
                "t": pa.array(uniq, type=pa.string()),
                "c": pa.array(
                    np.bincount(inv, minlength=len(uniq)).astype(np.int64)
                ),
            }
        )

    ds = ds.materialize()  # two consumers (bigram + unigram passes)
    bi = (
        ds.map_batches(bigram_partial, batch_format="pyarrow", **_rargs())
        .groupby("bigram")
        .aggregate(Sum("cnt", alias_name="cnt"))
    )

    def block_top(b: pa.Table) -> pa.Table:
        cnt = b.column("cnt").to_numpy()
        grams = np.asarray(b.column("bigram").to_pylist())
        order = np.lexsort((grams, -cnt))[:top_n]
        return b.take(pa.array(order))

    winners = (
        bi.map_batches(block_top, batch_format="pyarrow", **_rargs()).take_all()
    )  # <= top_n per block: bounded
    winners.sort(key=lambda r: (-int(r["cnt"]), r["bigram"]))
    winners = winners[:top_n]

    uni = (
        ds.map_batches(unigram_partial, batch_format="pyarrow", **_rargs())
        .groupby("t")
        .aggregate(Sum("c", alias_name="c"))
    )
    need = sorted({w["bigram"].split(" ")[0] for w in winners}
                  | {w["bigram"].split(" ")[1] for w in winners})
    need_arr = pa.array(need, type=pa.string())
    uni_rows = uni.map_batches(
        lambda b: b.filter(pc.is_in(b.column("t"), value_set=need_arr)),
        batch_format="pyarrow",
        **_rargs(),
    ).take_all()  # <= 2*top_n rows
    uc = {r["t"]: int(r["c"]) for r in uni_rows}
    n_total = int(
        ds.map_batches(
            lambda b: pa.table(
                {
                    "n": pa.array(
                        [
                            sum(
                                len(TOKEN_RE.findall(t.lower())) if t else 0
                                for t in b.column("text").to_pylist()
                            )
                        ],
                        type=pa.int64(),
                    )
                }
            ),
            batch_format="pyarrow",
            **_rargs(),
        )
        .sum("n")
    )

    out = {"bigram": [], "cnt": [], "pmi": []}
    for w in winners:
        a, b2 = w["bigram"].split(" ")
        num = float(w["cnt"]) * float(n_total)
        den = float(uc[a]) * float(uc[b2])
        out["bigram"].append(w["bigram"])
        out["cnt"].append(int(w["cnt"]))
        out["pmi"].append(math.log(num / den))
    return pa.table(
        {
            "bigram": pa.array(out["bigram"], type=pa.string()),
            "cnt": pa.array(out["cnt"], type=pa.int64()),
            "pmi": pa.array(out["pmi"], type=pa.float64()),
        }
    )


def tfidf_keywords(ds, n_docs: int, top_n: int = 5):
    """Per-document keyword extraction — top-``top_n`` terms by tf·idf
    with the MoreLikeThis selection arithmetic (tf * (ln((N+1)/(df+1))
    + 1), queries/mlt MoreLikeThis.java createQueue), the corpus-
    analytics pass behind tag clouds / doc summarization / routing.

    Distributed shape (NO broadcast dictionary, no driver state): one
    map_batches pass emits per-(doc, term) tf rows; ONE groupby(term)
    attaches df as the group SIZE (tf rows are unique per (doc, term),
    so |group| == doc frequency — a join-free df attach); one
    groupby(doc_id) selects the winners. idf uses ONE scalar math.log
    per row (libm == DuckDB ln bit-for-bit), the score is one exact f64
    division chain + one multiply — the driver-green MLT formula, so
    the whole output replays exactly. Ties -> term asc."""
    import math

    from collections import Counter

    def tf_partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_id: list[int] = []
        out_t: list[str] = []
        out_tf: list[int] = []
        for d, t in zip(ids, texts):
            for term, c in Counter(TOKEN_RE.findall(t.lower()) if t else []).items():
                out_id.append(d)
                out_t.append(term)
                out_tf.append(c)
        return pa.table(
            {
                "doc_id": pa.array(out_id, type=pa.int64()),
                "term": pa.array(out_t, type=pa.string()),
                "tf": pa.array(out_tf, type=pa.int64()),
            }
        )

    def attach_df(g: pa.Table) -> pa.Table:
        return g.append_column(
            "df", pa.array(np.full(g.num_rows, g.num_rows, dtype=np.int64))
        )

    def select_top(g: pa.Table) -> pa.Table:
        tf = g.column("tf").to_numpy()
        df = g.column("df").to_numpy()
        terms = np.asarray(g.column("term").to_pylist())
        # one scalar libm log per row (rows per doc = its distinct terms)
        scores = np.array(
            [
                float(f) * (math.log((n_docs + 1) / (d + 1.0)) + 1.0)
                for f, d in zip(tf.tolist(), df.tolist())
            ],
            dtype=np.float64,
        )
        order = np.lexsort((terms, -scores))[:top_n]
        n = len(order)
        return pa.table(
            {
                "doc_id": pa.array(
                    np.full(n, g.column("doc_id")[0].as_py(), dtype=np.int64)
                ),
                "rank": pa.array(np.arange(n, dtype=np.int64)),
                "term": pa.array(terms[order], type=pa.string()),
                "score": pa.array(scores[order], type=pa.float64()),
            }
        )

    return (
        ds.map_batches(tf_partial, batch_format="pyarrow", **_rargs())
        .groupby("term")
        .map_groups(attach_df, batch_format="pyarrow", **_rargs())
        .groupby("doc_id")
        .map_groups(select_top, batch_format="pyarrow", **_rargs())
    )


def train_val_test_split(ds, bounds: tuple = (900, 950)):
    """Deterministic train/val/test split + per-source audit counts —
    the dataset-splitting staple of a training pipeline, with the same
    resumable FNV-residue discipline as domain_mix_sample (no RNG
    state; a doc's split is a pure function of doc_id, identical under
    any partitioning, retry, or cluster size — re-running never leaks
    validation docs into train).

    r = fnv1a(doc_id) % 1000: train if r < bounds[0], val if r <
    bounds[1], else test. Returns the (source, split, n_docs) audit
    table (one groupby over per-batch (source, split) partial counts —
    the shuffle carries one row per (source, split) per batch); the
    per-doc assignment never leaves its input task."""
    from ray.data.aggregate import Sum

    lo, hi = int(bounds[0]), int(bounds[1])

    def partial(batch: pa.Table) -> pa.Table:
        h = fnv1a_u64_vec(batch.column("doc_id").to_numpy())
        r = (h % np.uint64(1000)).astype(np.int64)
        split = np.where(r < lo, "train", np.where(r < hi, "val", "test"))
        src = np.asarray(batch.column("source").to_pylist())
        key = np.char.add(np.char.add(src, "\x01"), split)  # \x01: numpy U-dtype strips trailing NULs
        uniq, inv = np.unique(key, return_inverse=True)
        n = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        srcs, splits = zip(*(k.split("\x01") for k in uniq.tolist()))
        return pa.table(
            {
                "source": pa.array(srcs, type=pa.string()),
                "split": pa.array(splits, type=pa.string()),
                "n_docs": pa.array(n),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", **_rargs())
        .groupby(["source", "split"])
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )
    return agg.map_batches(
        lambda b: b.set_column(
            b.schema.get_field_index("n_docs"),
            "n_docs",
            b.column("n_docs").cast(pa.int64()),
        ),
        batch_format="pyarrow",
        **_rargs(),
    )


def quantile_trim(ds, lo_q: float = 0.05, hi_q: float = 0.99):
    """Dynamic outlier trimming — drop documents whose n_chars falls
    outside the corpus's own [lo_q, hi_q] exact quantiles (the adaptive
    length filter of C4/Gopher-era pipelines: thresholds derive from
    the data, not constants). Two-phase: the exact value-histogram
    quantile pass (doclen_quantiles — reduce bounded by the value
    domain), then a stateless map_batches filter with the two integer
    thresholds in the closure. INCLUSIVE bounds, all-integer compare.
    Returns the kept (doc_id, n_chars) stream."""
    qt = doclen_quantiles(ds, (lo_q, hi_q))
    lo_v = int(qt.column("value")[0].as_py())
    hi_v = int(qt.column("value")[1].as_py())

    def filt(batch: pa.Table) -> pa.Table:
        n = batch.column("n_chars").to_numpy()
        return batch.filter(pa.array((n >= lo_v) & (n <= hi_v)))

    return ds.map_batches(filt, batch_format="pyarrow", **_rargs())


def resumable_write_parquet(ds, out_dir: str, key_col: str = "doc_id", n_buckets: int = 8):
    """Resumable partitioned parquet SINK — the brief's resumable-output
    contract for data pipelines (the index build has its own manifest
    resume in checkpoint.py; this is the generic Dataset sink): rows
    route to ``n_buckets`` hash buckets of ``key_col`` (FNV — the same
    partition-invariant key discipline as the split/sample ops), each
    bucket writes ONE file via tmp+rename (atomic on POSIX), and a
    bucket whose final file already exists is SKIPPED — pruned at the
    map stage, so a resumed run never re-shuffles finished partitions'
    rows, let alone rewrites them. Within-bucket rows sort by key
    before writing, so a retried write is byte-stable.

    Returns the (bucket, status, n_rows) manifest table; n_rows is -1
    for skipped buckets (their files are not re-read to count)."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    nb = int(n_buckets)
    done = frozenset(
        int(f[5:10]) for f in os.listdir(out_dir)
        if f.startswith("part-") and f.endswith(".parquet")
    )

    def route(batch: pa.Table) -> pa.Table:
        keys = batch.column(key_col).to_numpy()
        bucket = (fnv1a_u64_vec(keys) % np.uint64(nb)).astype(np.int64)
        out = batch.append_column("__bucket", pa.array(bucket))
        return out.filter(pa.array(~np.isin(bucket, list(done))))

    def write_bucket(g: pa.Table) -> pa.Table:
        import os

        import pyarrow.parquet as _pq

        b = int(g.column("__bucket")[0].as_py())
        path = os.path.join(out_dir, f"part-{b:05d}.parquet")
        order = np.argsort(g.column(key_col).to_numpy(), kind="stable")
        body = g.take(pa.array(order)).drop_columns(["__bucket"])
        tmp = f"{path}.tmp-{os.getpid()}"
        _pq.write_table(body, tmp)
        os.replace(tmp, path)  # atomic: concurrent retries converge
        return pa.table(
            {
                "bucket": pa.array([b], type=pa.int64()),
                "status": pa.array(["written"], type=pa.string()),
                "n_rows": pa.array([g.num_rows], type=pa.int64()),
            }
        )

    written = (
        ds.map_batches(route, batch_format="pyarrow", **_rargs())
        .groupby("__bucket")
        .map_groups(write_bucket, batch_format="pyarrow", **_rargs())
        .take_all()
    )  # one row per bucket: bounded
    rows = [(int(r["bucket"]), r["status"], int(r["n_rows"])) for r in written]
    rows += [(b, "skipped", -1) for b in sorted(done)]
    rows.sort()
    return pa.table(
        {
            "bucket": pa.array([r[0] for r in rows], type=pa.int64()),
            "status": pa.array([r[1] for r in rows], type=pa.string()),
            "n_rows": pa.array([r[2] for r in rows], type=pa.int64()),
        }
    )


def vocab_coverage(ds, vs: tuple = (10, 20, 30, 50)):
    """Vocabulary coverage curve — token mass covered by the top-V terms
    by total term frequency, for each V (the tokenizer/vocab-size
    planning table: how much of the corpus a V-entry vocabulary would
    cover). All-integer output (covered_ttf, total_ttf); the ratio is
    the consumer's division.

    Distributed shape: per-batch partial (term, ttf) counts -> one
    groupby sum; the top-max(V) selection is per-block partial top-k
    (integer keys: ttf desc, term asc) + a bounded driver reduce;
    total_ttf is one scalar aggregate."""
    from ray.data.aggregate import Sum

    vmax = max(vs)

    def tf_partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        toks: list[str] = []
        for t in texts:
            toks.extend(TOKEN_RE.findall(t.lower()) if t else [])
        if not toks:
            return pa.table(
                {"term": pa.array([], type=pa.string()),
                 "ttf": pa.array([], type=pa.int64())}
            )
        uniq, inv = np.unique(np.array(toks), return_inverse=True)
        return pa.table(
            {
                "term": pa.array(uniq, type=pa.string()),
                "ttf": pa.array(np.bincount(inv, minlength=len(uniq)).astype(np.int64)),
            }
        )

    agg = (
        ds.map_batches(tf_partial, batch_format="pyarrow", **_rargs())
        .groupby("term")
        .aggregate(Sum("ttf", alias_name="ttf"))
    )

    def block_top(b: pa.Table) -> pa.Table:
        ttf = b.column("ttf").to_numpy()
        terms = np.asarray(b.column("term").to_pylist())
        order = np.lexsort((terms, -ttf))[:vmax]
        return b.take(pa.array(order))

    winners = agg.map_batches(block_top, batch_format="pyarrow", **_rargs()).take_all()
    winners.sort(key=lambda r: (-int(r["ttf"]), r["term"]))
    winners = winners[:vmax]
    total = int(
        agg.map_batches(
            lambda b: pa.table({"s": pa.array([int(b.column("ttf").to_numpy().sum())], type=pa.int64())}),
            batch_format="pyarrow",
            **_rargs(),
        ).sum("s")
    )
    cum = np.cumsum([int(r["ttf"]) for r in winners])
    out_v, out_cov = [], []
    for v in vs:
        out_v.append(int(v))
        out_cov.append(int(cum[min(v, len(cum)) - 1]) if len(cum) else 0)
    return pa.table(
        {
            "v": pa.array(out_v, type=pa.int64()),
            "covered_ttf": pa.array(out_cov, type=pa.int64()),
            "total_ttf": pa.array([total] * len(vs), type=pa.int64()),
        }
    )


def group_sample_hash(ds, per_group: int = 16, group_col: str = "source", id_col: str = "doc_id"):
    """Per-group deterministic uniform sample — the k docs with the
    SMALLEST fmix64(fnv1a(id)) per group (uniform without replacement
    under the hash's uniformity; no RNG state, so the sample is
    resumable and partition/cluster-size-invariant — the per-group
    counterpart of orders_sample_hash). Ties cannot occur (fmix64 is a
    bijection on ids). Per-batch partial smallest-k per group, then one
    groupby(group) final k — only k rows per (group, batch) shuffle."""
    from .merge import _fmix64

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy()
        keys = _fmix64(fnv1a_u64_vec(ids))
        src = np.asarray(batch.column(group_col).to_pylist())
        out_idx: list[int] = []
        for g in np.unique(src):
            m = np.flatnonzero(src == g)
            out_idx.extend(m[np.argsort(keys[m], kind="stable")[:per_group]].tolist())
        out_idx.sort()
        t = batch.select([group_col, id_col]).take(pa.array(out_idx))
        return t.append_column("hkey", pa.array(keys[out_idx].astype(np.uint64), type=pa.uint64()))

    def final(g: pa.Table) -> pa.Table:
        keys = g.column("hkey").to_numpy()
        order = np.argsort(keys, kind="stable")[:per_group]
        return g.take(pa.array(order)).select([group_col, id_col])

    return (
        ds.map_batches(partial, batch_format="pyarrow", **_rargs())
        .groupby(group_col)
        .map_groups(final, batch_format="pyarrow", **_rargs())
    )


def kwic_concordance(ds, term: str = "join", width: int = 3):
    """KWIC concordance — every occurrence of ``term`` with ±``width``
    tokens of context (the corpus-linguistics keyword-in-context view;
    kin to the highlighter's window rule, textops.make_snippet).
    Streams as one map_batches pass: per doc, occurrence positions via
    one vectorized equality over the token array, contexts as token
    slices. Returns (doc_id, pos, context) — exact strings, so the SQL
    list-slice replay is literal."""

    def per_batch(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_id: list[int] = []
        out_pos: list[int] = []
        out_ctx: list[str] = []
        for d, t in zip(ids, texts):
            toks = TOKEN_RE.findall(t.lower()) if t else []
            if not toks:
                continue
            arr = np.asarray(toks)
            for p in np.flatnonzero(arr == term).tolist():
                lo = max(0, p - width)
                out_id.append(d)
                out_pos.append(p)
                out_ctx.append(" ".join(toks[lo : p + width + 1]))
        return pa.table(
            {
                "doc_id": pa.array(out_id, type=pa.int64()),
                "pos": pa.array(out_pos, type=pa.int64()),
                "context": pa.array(out_ctx, type=pa.string()),
            }
        )

    return ds.map_batches(per_batch, batch_format="pyarrow", **_rargs())


def bpe_learn_merges(ds, n_merges: int = 4, text_col: str = "text"):
    """BPE merge learning — tokenizer TRAINING (Sennrich, Haddow & Birch
    2016, "Neural Machine Translation of Rare Words with Subword
    Units", the merge-table construction every byte-pair tokenizer
    pipeline runs over its corpus). Learns ``n_merges`` merges: each
    round picks the adjacent symbol pair with the highest corpus
    frequency (weighted by word frequency, every adjacent position
    counted — the paper's get_stats) and merges it greedily
    left-to-right non-overlapping in every word (the paper's
    merge_vocab). Deviation from the paper (documented): no end-of-word
    marker. Tie rule: count desc, then (lhs, rhs) lexicographic asc.
    Returns a small Arrow table (merge_rank, lhs, rhs, n_pairs).

    Distributed shape: ONE corpus-wide shuffle builds the word-frequency
    table (map-side combined partials); it is materialized once and
    every round streams over the VOCABULARY (not the corpus) — pair
    partials are map-side combined Counters, one small groupby((l, r))
    sum, then per-block top-1 partials and a block-count-bounded driver
    reduce. Words are re-derived from the merge list each round
    (stateless tasks, nothing whole-corpus on the driver).

    Exactness: symbols ride a paren-delimited encoding "(a)(n)(a)" so
    the merge is a plain str.replace that can never match across token
    boundaries (tokens are [a-z0-9]+, parens never occur inside) and
    needs no RE2-unsupported lookarounds; DuckDB replace() has the same
    left-to-right non-overlapping semantics, and counting is list-
    position based on both sides, so the whole chain is integer-exact."""
    from collections import Counter

    from ray.data.aggregate import Sum

    def word_partial(batch: pa.Table) -> pa.Table:
        texts = batch.column(text_col).to_pylist()
        toks: list[str] = []
        for t in texts:
            if t:
                toks.extend(TOKEN_RE.findall(t.lower()))
        if not toks:
            return pa.table(
                {
                    "word": pa.array([], type=pa.string()),
                    "freq": pa.array([], type=pa.int64()),
                }
            )
        uniq, inv = np.unique(np.array(toks), return_inverse=True)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "word": pa.array(uniq, type=pa.string()),
                "freq": pa.array(counts, type=pa.int64()),
            }
        )

    words = (
        ds.map_batches(word_partial, batch_format="pyarrow", **_rargs())
        .groupby("word")
        .aggregate(Sum("freq", alias_name="freq"))
        .materialize()
    )

    merges: list[tuple[str, str]] = []
    out_rows: list[tuple[int, str, str, int]] = []
    for k in range(n_merges):
        cur = list(merges)

        def pair_partial(batch: pa.Table, _m=cur) -> pa.Table:
            ws = batch.column("word").to_pylist()
            fs = batch.column("freq").to_numpy().astype(np.int64)
            c: Counter = Counter()
            for w, f in zip(ws, fs.tolist()):
                s = "(" + ")(".join(w) + ")"
                for l, r in _m:
                    s = s.replace(f"({l})({r})", f"({l}{r})")
                syms = s[1:-1].split(")(")
                for a, b in zip(syms, syms[1:]):
                    c[(a, b)] += f
            if not c:
                return pa.table(
                    {
                        "lhs": pa.array([], type=pa.string()),
                        "rhs": pa.array([], type=pa.string()),
                        "c": pa.array([], type=pa.int64()),
                    }
                )
            ls, rs, cs = zip(*((a, b, n) for (a, b), n in c.items()))
            return pa.table(
                {
                    "lhs": pa.array(list(ls), type=pa.string()),
                    "rhs": pa.array(list(rs), type=pa.string()),
                    "c": pa.array(list(cs), type=pa.int64()),
                }
            )

        def top1(batch: pa.Table) -> pa.Table:
            rows = list(
                zip(
                    batch.column("lhs").to_pylist(),
                    batch.column("rhs").to_pylist(),
                    batch.column("c").to_numpy().astype(np.int64).tolist(),
                )
            )
            if not rows:
                return pa.table(
                    {
                        "lhs": pa.array([], type=pa.string()),
                        "rhs": pa.array([], type=pa.string()),
                        "c": pa.array([], type=pa.int64()),
                    }
                )
            l, r, n = min(rows, key=lambda t: (-t[2], t[0], t[1]))
            return pa.table(
                {
                    "lhs": pa.array([l], type=pa.string()),
                    "rhs": pa.array([r], type=pa.string()),
                    "c": pa.array([n], type=pa.int64()),
                }
            )

        cand = (
            words.map_batches(pair_partial, batch_format="pyarrow", **_rargs())
            .groupby(["lhs", "rhs"])
            .aggregate(Sum("c", alias_name="c"))
            .map_batches(top1, batch_format="pyarrow", **_rargs())
            .take_all()
        )
        if not cand:
            break
        best = min(
            ((r["lhs"], r["rhs"], int(r["c"])) for r in cand),
            key=lambda t: (-t[2], t[0], t[1]),
        )
        merges.append((best[0], best[1]))
        out_rows.append((k + 1, best[0], best[1], best[2]))

    return pa.table(
        {
            "merge_rank": pa.array([r[0] for r in out_rows], type=pa.int64()),
            "lhs": pa.array([r[1] for r in out_rows], type=pa.string()),
            "rhs": pa.array([r[2] for r in out_rows], type=pa.string()),
            "n_pairs": pa.array([r[3] for r in out_rows], type=pa.int64()),
        }
    )


def winnow_fingerprints(ds, k: int = 4, w: int = 5, text_col: str = "text"):
    """Winnowing document fingerprints (Schleimer, Wilkerson & Aiken
    2003, SIGMOD, "Winnowing: Local Algorithms for Document
    Fingerprinting" — the MOSS algorithm): hash every k-gram of the
    token stream, slide a w-window over the hash sequence, select the
    MINIMUM hash per window with ties to the RIGHTMOST position (the
    paper's simple winnowing; the 'prefer previous selection' robust
    variant is stateful and intentionally not used — documented), and
    the distinct selected positions are the document's fingerprints.
    Guarantees a fingerprint in every w-window (local — position-robust
    unlike global mod-p selection). Returns per doc
    (doc_id, n_grams, n_fingerprints, min_fp, max_fp); docs with fewer
    than k tokens have zero grams and zeroed stats; sequences shorter
    than w form a single window.

    Exactness: gram hashes ride the fnv1a string chain (uint64,
    process-independent, = relational.fnv1a_str_sql's HUGEINT-mulmod
    replay over the space-joined gram), selection/dedup are integer;
    the oracle replays windows as a bounded range join. Shape: one
    streamed map_batches — per-doc work is a vectorized
    sliding-window argmin; no shuffle at all."""
    from numpy.lib.stride_tricks import sliding_window_view

    def per_batch(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column(text_col).to_pylist()
        d_out: list[int] = []
        ng_out: list[int] = []
        nf_out: list[int] = []
        mn_out: list[int] = []
        mx_out: list[int] = []
        for did, t in zip(ids.tolist(), texts):
            toks = TOKEN_RE.findall(t.lower()) if t else []
            m = len(toks) - k + 1
            if m <= 0:
                d_out.append(did)
                ng_out.append(0)
                nf_out.append(0)
                mn_out.append(0)
                mx_out.append(0)
                continue
            grams = pa.array(
                [" ".join(toks[i : i + k]) for i in range(m)],
                type=pa.string(),
            )
            h = fnv1a_vec(grams)
            if m >= w:
                wv = sliding_window_view(h, w)
            else:
                wv = h[None, :]
            # rightmost minimal hash per window: argmin over the
            # REVERSED window (np.argmin picks the first minimum)
            j = wv.shape[1] - 1 - np.argmin(wv[:, ::-1], axis=1)
            pos = np.unique(np.arange(len(wv), dtype=np.int64) + j)
            fps = h[pos]
            d_out.append(did)
            ng_out.append(m)
            nf_out.append(len(pos))
            mn_out.append(int(fps.min()))
            mx_out.append(int(fps.max()))
        return pa.table(
            {
                "doc_id": pa.array(d_out, type=pa.int64()),
                "n_grams": pa.array(ng_out, type=pa.int64()),
                "n_fingerprints": pa.array(nf_out, type=pa.int64()),
                "min_fp": pa.array(
                    np.array(mn_out, dtype=np.uint64), type=pa.uint64()
                ),
                "max_fp": pa.array(
                    np.array(mx_out, dtype=np.uint64), type=pa.uint64()
                ),
            }
        )

    return ds.map_batches(per_batch, batch_format="pyarrow", **_rargs())


def cdc_chunks(ds, window: int = 8, mask_mod: int = 64, text_col: str = "text"):
    """Content-defined chunking (Rabin-style CDC, the storage/transfer
    dedup primitive of LBFS — Muthitacharoen, Chen & Mazières 2001
    SOSP): a chunk boundary closes after token ``i + window - 1``
    whenever the polynomial window hash starting at token i satisfies
    wh % mask_mod == 0; the final chunk always closes at the last
    token. Unlike fixed-size chunking, boundaries survive insertions
    (they depend on CONTENT, not offsets) — the property dedup storage
    relies on. FastCDC's min/max chunk bounds are intentionally
    omitted: they make the boundary rule stateful-sequential, while
    this rule is stateless and exactly SQL-replayable (documented
    deviation). Docs shorter than ``window`` are one chunk; empty docs
    have zero chunks. Returns (doc_id, n_tokens, n_chunks,
    max_chunk_toks) — all integers (the window hash is the SAME
    rolling_window_hashes chain the winnowing fingerprints replay).

    Shape: one streamed map_batches, per-doc vectorized window hash +
    mask test; no shuffle."""

    def per_batch(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column(text_col).to_pylist()
        d_out: list[int] = []
        nt_out: list[int] = []
        nc_out: list[int] = []
        mx_out: list[int] = []
        for did, t in zip(ids.tolist(), texts):
            toks = TOKEN_RE.findall((t or "").lower())
            n = len(toks)
            d_out.append(did)
            nt_out.append(n)
            if n == 0:
                nc_out.append(0)
                mx_out.append(0)
                continue
            if n < window:
                nc_out.append(1)
                mx_out.append(n)
                continue
            h = fnv1a_vec(pa.array(toks, type=pa.string()))
            wh = rolling_window_hashes(h, window)
            bi = np.flatnonzero(wh % np.uint64(mask_mod) == 0)
            ends = np.unique(
                np.concatenate(
                    (bi + (window - 1), np.array([n - 1], dtype=np.int64))
                )
            )
            sizes = np.diff(np.concatenate(([-1], ends)))
            nc_out.append(len(ends))
            mx_out.append(int(sizes.max()))
        return pa.table(
            {
                "doc_id": pa.array(d_out, type=pa.int64()),
                "n_tokens": pa.array(nt_out, type=pa.int64()),
                "n_chunks": pa.array(nc_out, type=pa.int64()),
                "max_chunk_toks": pa.array(mx_out, type=pa.int64()),
            }
        )

    return ds.map_batches(per_batch, batch_format="pyarrow", **_rargs())


def char_entropy(ds, text_col: str = "text"):
    """Character-distribution Shannon entropy per document (nats) — the
    information-theoretic gibberish/keyboard-mash signal quality
    pipelines threshold on (low entropy = repeated chars, high =
    uniform noise), over the [a-z0-9] alphabet of the lowercased text.
    H = -(fold of (cnt/n)·ln(cnt/n) in CHARACTER-ASCENDING order);
    every op is a single f64 op (exact division-as-one-op, SCALAR libm
    ln == DuckDB ln bit-for-bit — never vectorized np.log, CLAUDE.md —
    multiply, left-assoc adds, one final negation), so the SQL replay
    is exact. Empty/no-alnum docs get entropy 0.0. Returns
    (doc_id, n_alnum, entropy). Shape: one streamed map_batches,
    per-doc work bounded by the 36-symbol alphabet."""
    import math

    strip = re.compile(r"[^a-z0-9]")

    def per_batch(batch: pa.Table) -> pa.Table:
        from collections import Counter

        ids = batch.column("doc_id").to_numpy()
        texts = batch.column(text_col).to_pylist()
        n_out: list[int] = []
        e_out: list[float] = []
        for t in texts:
            s = strip.sub("", (t or "").lower())
            n = len(s)
            n_out.append(n)
            if n == 0:
                e_out.append(0.0)
                continue
            cnt = Counter(s)
            acc = 0.0
            nf = float(n)
            for ch in sorted(cnt):
                p = cnt[ch] / nf
                acc = acc + (p * math.log(p))
            e_out.append(-acc)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_alnum": pa.array(n_out, type=pa.int64()),
                "entropy": pa.array(e_out, type=pa.float64()),
            }
        )

    return ds.map_batches(per_batch, batch_format="pyarrow", **_rargs())


def source_vocab_jaccard(ds):
    """Vocabulary-overlap Jaccard between corpus sources — the mixture-
    design diagnostic (which slices are near-duplicates of each other,
    which bring novel vocabulary) run before choosing training-mix
    weights. Jaccard is reported UNREDUCED as (n_common, n_union)
    integers so the entry is exact; pairs sharing no terms are absent.
    Returns (source_a, source_b, n_common, n_union), source_a <
    source_b.

    Shape: in-batch (source, term) dedup, one groupby(term) whose
    per-group pair emission is bounded by the SOURCE count (not the
    corpus), one groupby((a, b)) Sum; per-source vocabulary sizes ride
    a bounded take_all (|sources| rows) into the finish closure."""
    from itertools import combinations

    from ray.data.aggregate import Count, Sum

    def _pairs_dedup(batch: pa.Table) -> pa.Table:
        src = np.asarray(batch.column("source").to_pylist())
        texts = batch.column("text").to_pylist()
        s_out: list[str] = []
        t_out: list[str] = []
        for s, t in zip(src.tolist(), texts):
            for w in set(TOKEN_RE.findall((t or "").lower())):
                s_out.append(s)
                t_out.append(w)
        tbl = pa.table(
            {
                "source": pa.array(s_out, type=pa.string()),
                "term": pa.array(t_out, type=pa.string()),
            }
        )
        return tbl

    st = (
        ds.map_batches(_pairs_dedup, batch_format="pyarrow", **_rargs())
        .groupby(["source", "term"])
        .aggregate(Count(alias_name="c"))
        .materialize()  # consumed twice (sizes + pair emission)
    )

    sizes = {
        r["source"]: int(r["c"])
        for r in st.groupby("source")
        .aggregate(Count(alias_name="c"))
        .take_all()  # bounded: one row per source
    }

    def _emit_pairs(g: pa.Table) -> pa.Table:
        srcs = sorted(set(g.column("source").to_pylist()))
        if len(srcs) < 2:
            return pa.table(
                {
                    "source_a": pa.array([], type=pa.string()),
                    "source_b": pa.array([], type=pa.string()),
                    "n": pa.array([], type=pa.int64()),
                }
            )
        a, b = zip(*combinations(srcs, 2))
        return pa.table(
            {
                "source_a": pa.array(list(a), type=pa.string()),
                "source_b": pa.array(list(b), type=pa.string()),
                "n": pa.array(np.ones(len(a), dtype=np.int64)),
            }
        )

    agg = (
        st.groupby("term")
        .map_groups(_emit_pairs, batch_format="pyarrow", **_rargs())
        .groupby(["source_a", "source_b"])
        .aggregate(Sum("n", alias_name="n_common"))
    )

    def _finish(batch: pa.Table) -> pa.Table:
        sa = batch.column("source_a").to_pylist()
        sb = batch.column("source_b").to_pylist()
        nc = batch.column("n_common").to_numpy().astype(np.int64)
        nu = np.array(
            [sizes[x] + sizes[y] for x, y in zip(sa, sb)], dtype=np.int64
        ) - nc
        return pa.table(
            {
                "source_a": pa.array(sa, type=pa.string()),
                "source_b": pa.array(sb, type=pa.string()),
                "n_common": pa.array(nc, type=pa.int64()),
                "n_union": pa.array(nu, type=pa.int64()),
            }
        )

    return agg.map_batches(_finish, batch_format="pyarrow", **_rargs())


def hll_by_source(ds, b: int = 6):
    """Grouped HyperLogLog — per-SOURCE distinct-vocabulary estimates in
    one pass (the json.facet 'hll' per-bucket role, and the mergeable-
    sketch pattern that matters at 100 TB: registers combine by MAX, an
    order-free idempotent merge, so per-batch partials shuffle <= m
    rows per (source, batch) regardless of vocabulary size and the
    reduce is partition-invariant by construction). Same register math
    as hll_vocab_estimate (fmix64(fnv1a), 2^b buckets, rank over the
    low 32 bits, raw estimate without range corrections — documented).
    Returns (source, m, n_zero_buckets, estimate)."""
    from ray.data.aggregate import Max

    from .merge import _fmix64

    m = 1 << b

    def _partial(batch: pa.Table) -> pa.Table:
        srcs = batch.column("source").to_pylist()
        texts = batch.column("text").to_pylist()
        per_src: dict[str, set] = {}
        for s, t in zip(srcs, texts):
            per_src.setdefault(s, set()).update(
                TOKEN_RE.findall((t or "").lower())
            )
        s_out: list[str] = []
        b_out: list[int] = []
        r_out: list[int] = []
        for s, toks in per_src.items():
            if not toks:
                continue
            h = _fmix64(
                np.fromiter(
                    (fnv1a(w) for w in toks), dtype=np.uint64, count=len(toks)
                )
            )
            bucket = (h >> np.uint64(64 - b)).astype(np.int64)
            low = (h & np.uint64(0xFFFFFFFF)).astype(np.int64)
            bl = np.fromiter(
                (int(x).bit_length() for x in low),
                dtype=np.int64,
                count=len(low),
            )
            ranks = np.zeros(m, dtype=np.int64)
            np.maximum.at(ranks, bucket, 33 - bl)
            touched = np.flatnonzero(ranks)
            s_out.extend([s] * len(touched))
            b_out.extend(touched.tolist())
            r_out.extend(ranks[touched].tolist())
        return pa.table(
            {
                "source": pa.array(s_out, type=pa.string()),
                "bucket": pa.array(b_out, type=pa.int64()),
                "rank": pa.array(r_out, type=pa.int64()),
            }
        )

    def _estimate(g: pa.Table) -> pa.Table:
        ranks = np.zeros(m, dtype=np.int64)
        for bk, r in zip(
            g.column("bucket").to_numpy(), g.column("rank").to_numpy()
        ):
            ranks[int(bk)] = int(r)
        acc = 0.0
        for r in ranks.tolist():  # bucket-ascending ordered fold
            acc += 2.0 ** (-r)
        est = (0.709 * float(m) * float(m)) / acc
        return pa.table(
            {
                "source": pa.array(
                    [g.column("source")[0].as_py()], type=pa.string()
                ),
                "m": pa.array([m], type=pa.int64()),
                "n_zero_buckets": pa.array(
                    [int((ranks == 0).sum())], type=pa.int64()
                ),
                "estimate": pa.array([est], type=pa.float64()),
            }
        )

    return (
        ds.map_batches(_partial, batch_format="pyarrow", **_rargs())
        .groupby(["source", "bucket"])
        .aggregate(Max("rank", alias_name="rank"))
        .groupby("source")
        .map_groups(_estimate, batch_format="pyarrow", **_rargs())
    )


def kmv_intersection(ds, src_a: str = "src0", src_b: str = "src1", k: int = 64):
    """KMV (k-minimum-values) distinct synopsis with SET OPERATIONS
    (Beyer et al., SIGMOD 2007): unlike HLL, the k smallest hash values
    of a set support union/intersection estimates — D_union ≈
    (k-1)/u_(k) with u_(k) the k-th smallest normalized hash of the
    combined sketch, D_∩ ≈ (n_∩/k)·D_union with n_∩ the combined
    sketch's members present in BOTH sides' sketches. Estimates two
    sources' vocabulary overlap. Returns one row (k, n_common_in_sketch,
    d_union, d_intersection).

    Exactness: sketches are pure integer hash SELECTIONS (k smallest —
    order-free, mergeable: min-of-mins); the estimate chain is
    ((k-1)·2^64 exact in f64) / h_(k), then (n_∩ · D_union) / k — three
    single f64 ops, replayed verbatim. Shape: per-batch per-source
    k-smallest partials (≤k rows per source per batch), one
    groupby(source) k-smallest resolve, two bounded sketches combine on
    the driver."""
    from .merge import _fmix64

    def _partial(batch: pa.Table) -> pa.Table:
        srcs = batch.column("source").to_pylist()
        texts = batch.column("text").to_pylist()
        per: dict[str, set] = {}
        for s, t in zip(srcs, texts):
            if s in (src_a, src_b):
                per.setdefault(s, set()).update(
                    TOKEN_RE.findall((t or "").lower())
                )
        s_out: list[str] = []
        h_out: list[int] = []
        for s, toks in per.items():
            if not toks:
                continue
            h = np.unique(
                _fmix64(
                    np.fromiter(
                        (fnv1a(w) for w in toks),
                        dtype=np.uint64,
                        count=len(toks),
                    )
                )
            )[:k]
            s_out.extend([s] * len(h))
            h_out.extend(int(x) for x in h)
        return pa.table(
            {
                "source": pa.array(s_out, type=pa.string()),
                "h": pa.array(
                    np.array(h_out, dtype=np.uint64), type=pa.uint64()
                ),
            }
        )

    def _resolve(g: pa.Table) -> pa.Table:
        h = np.unique(g.column("h").to_numpy())[:k]
        return pa.table(
            {
                "source": pa.array(
                    [g.column("source")[0].as_py()] * len(h),
                    type=pa.string(),
                ),
                "h": pa.array(h, type=pa.uint64()),
            }
        )

    rows = (
        ds.map_batches(_partial, batch_format="pyarrow", **_rargs())
        .groupby("source")
        .map_groups(_resolve, batch_format="pyarrow", **_rargs())
        .take_all()  # <= 2k rows: bounded
    )
    ka = sorted(int(r["h"]) for r in rows if r["source"] == src_a)
    kb = sorted(int(r["h"]) for r in rows if r["source"] == src_b)
    combined = sorted(set(ka) | set(kb))[:k]
    kk = min(k, len(combined))
    hk = combined[kk - 1] if kk else 0
    sa, sb = set(ka), set(kb)
    n_common = sum(1 for v in combined if v in sa and v in sb)
    d_union = (float(kk - 1) * 18446744073709551616.0) / float(hk) if hk else 0.0
    d_inter = (float(n_common) * d_union) / float(kk) if kk else 0.0
    return pa.table(
        {
            "k": pa.array([kk], type=pa.int64()),
            "n_common_in_sketch": pa.array([n_common], type=pa.int64()),
            "d_union": pa.array([d_union], type=pa.float64()),
            "d_intersection": pa.array([d_inter], type=pa.float64()),
        }
    )


def df_histogram(ds):
    """Document-frequency histogram — the index-skew diagnostic behind
    the merge path's heavy-term salting (how many terms have df == k;
    the long tail is singletons, the short head is the stop band that
    must be salted or it serializes the shuffle). Returns
    (df, n_terms) — all integers.

    Shape: in-batch distinct (doc, term) pairs, groupby(term) count
    (df), then a df-bounded groupby(df) count."""
    from ray.data.aggregate import Count

    def _pairs(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        d_out: list[int] = []
        t_out: list[str] = []
        for did, t in zip(ids.tolist(), texts):
            for w in set(TOKEN_RE.findall((t or "").lower())):
                d_out.append(did)
                t_out.append(w)
        return pa.table(
            {
                "doc_id": pa.array(d_out, type=pa.int64()),
                "term": pa.array(t_out, type=pa.string()),
            }
        )

    return (
        ds.map_batches(_pairs, batch_format="pyarrow", **_rargs())
        .groupby("term")
        .count()
        .map_batches(
            lambda b: pa.table(
                {"df": b.column("count()").cast(pa.int64())}
            ),
            batch_format="pyarrow",
            **_rargs(),
        )
        .groupby("df")
        .aggregate(Count(alias_name="n_terms"))
        .map_batches(
            lambda b: pa.table(
                {
                    "df": b.column("df").cast(pa.int64()),
                    "n_terms": b.column("n_terms").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
            **_rargs(),
        )
    )


GAZETTEER = (("table", "hash"), ("merge", "group"), ("data",), ("join",))


def gazetteer_mentions(ds, entities: tuple = GAZETTEER):
    """Gazetteer / dictionary entity tagging — the broadcast-dictionary
    mention counter every NER-bootstrap and weak-labeling pipeline runs
    (multi-word entities matched against the token stream; at real
    dictionary sizes the per-actor state is an Aho–Corasick automaton
    built once in __init__ — this fixture-sized dictionary rides the
    task closure). Counts EVERY starting position (overlap allowed,
    the same convention as the BPE pair counts). Returns
    (doc_id, entity, n_mentions) for mentions > 0 — all integers.

    Shape: one streamed map_batches; per-doc work is a vectorized
    shifted-equality test per entity; no shuffle."""

    def per_batch(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        d_out: list[int] = []
        e_out: list[str] = []
        n_out: list[int] = []
        for did, t in zip(ids.tolist(), texts):
            toks = np.asarray(TOKEN_RE.findall((t or "").lower()))
            for ent in entities:
                L = len(ent)
                if len(toks) < L:
                    continue
                mask = toks[: len(toks) - L + 1] == ent[0]
                for j in range(1, L):
                    mask = mask & (toks[j : len(toks) - L + 1 + j] == ent[j])
                n = int(mask.sum())
                if n:
                    d_out.append(did)
                    e_out.append(" ".join(ent))
                    n_out.append(n)
        return pa.table(
            {
                "doc_id": pa.array(d_out, type=pa.int64()),
                "entity": pa.array(e_out, type=pa.string()),
                "n_mentions": pa.array(n_out, type=pa.int64()),
            }
        )

    return ds.map_batches(per_batch, batch_format="pyarrow", **_rargs())


def lexical_diversity(ds):
    """Lexical-diversity signals per document — type-token ratio inputs
    and hapax counts (the vocabulary-richness quality features used
    alongside the Gopher gates: templated/spammy pages have low TTR,
    gibberish has TTR near 1 with hapax-heavy tails). Reported as
    integers (n_tokens, n_types, n_hapax) so the ratio stays exact on
    the consumer's side. One streamed map_batches, per-doc np.unique."""

    def per_batch(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        nt: list[int] = []
        ny: list[int] = []
        nh: list[int] = []
        for t in texts:
            toks = TOKEN_RE.findall((t or "").lower())
            if not toks:
                nt.append(0)
                ny.append(0)
                nh.append(0)
                continue
            uniq, counts = np.unique(np.asarray(toks), return_counts=True)
            nt.append(len(toks))
            ny.append(len(uniq))
            nh.append(int((counts == 1).sum()))
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_tokens": pa.array(nt, type=pa.int64()),
                "n_types": pa.array(ny, type=pa.int64()),
                "n_hapax": pa.array(nh, type=pa.int64()),
            }
        )

    return ds.map_batches(per_batch, batch_format="pyarrow", **_rargs())


def balanced_shards(ds, n_shards: int = 8):
    """Size-balanced shard assignment — serpentine (snake) partitioning
    over the size-sorted corpus: rank docs by (n_chars desc, doc_id
    asc), then shard = pos if block even else n_shards-1-pos with
    block = rank // n_shards, pos = rank % n_shards. A closed-form
    integer rule (unlike greedy LPT it needs no sequential state), so
    it is exactly replayable AND deterministic/resumable; balance is
    near-LPT for mildly skewed sizes. This is the equal-byte export
    sharding a training pipeline wants where the resumable sink's HASH
    buckets give equal counts but not equal bytes. Returns per shard
    (shard, n_docs, sum_chars).

    Shape: the rank needs one global sort by (n_chars, doc_id) — the
    same single range-partitioned sort the epoch shuffle uses — then a
    stateless closed-form map and a shard-bounded groupby."""
    from ray.data.aggregate import Count, Sum

    # stateless global rank (no sort, no sequential state): rank of a
    # doc = cumulative count of strictly larger n_chars values + its
    # doc_id position within its own size class — the offsets come from
    # a value-domain-bounded histogram (the quantile-trim shape) and
    # ride the task CLOSURE (never a bare ray.put handle referenced
    # only by the lazy plan — the owner-death hazard in CLAUDE.md)
    hist = (
        ds.groupby("n_chars")
        .aggregate(Count(alias_name="c"))
        .to_pandas()
        .sort_values("n_chars", ascending=False)
    )
    hist["off"] = hist["c"].cumsum() - hist["c"]
    offs = dict(zip((int(x) for x in hist["n_chars"]), (int(x) for x in hist["off"])))

    def _assign(batch: pa.Table) -> pa.Table:
        nc = batch.column("n_chars").to_numpy()
        did = batch.column("doc_id").to_numpy()
        base = np.array([offs[int(x)] for x in nc], dtype=np.int64)
        return pa.table(
            {
                "n_chars": pa.array(nc, type=pa.int64()),
                "doc_id": pa.array(did, type=pa.int64()),
                "base": pa.array(base, type=pa.int64()),
            }
        )

    def _per_size(g: pa.Table) -> pa.Table:
        # within one n_chars value: rank = base + position by doc_id asc
        did = g.column("doc_id").to_numpy()
        order = np.argsort(did, kind="stable")
        rank = int(g.column("base")[0].as_py()) + np.argsort(order)
        block = rank // n_shards
        pos = rank % n_shards
        shard = np.where(block % 2 == 0, pos, n_shards - 1 - pos)
        return pa.table(
            {
                "shard": pa.array(shard.astype(np.int64)),
                "n_chars": g.column("n_chars"),
            }
        )

    return (
        ds.select_columns(["doc_id", "n_chars"])
        .map_batches(_assign, batch_format="pyarrow", **_rargs())
        .groupby("n_chars")
        .map_groups(_per_size, batch_format="pyarrow", **_rargs())
        .groupby("shard")
        .aggregate(
            Count(alias_name="n_docs"),
            Sum("n_chars", alias_name="sum_chars"),
        )
        .map_batches(
            lambda b: pa.table(
                {
                    "shard": b.column("shard").cast(pa.int64()),
                    "n_docs": b.column("n_docs").cast(pa.int64()),
                    "sum_chars": b.column("sum_chars").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
            **_rargs(),
        )
    )
