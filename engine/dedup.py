"""Deduplication operators: exact, MinHash+LSH, SimHash, n-gram Jaccard,
embedding-cosine near-dup.

Ray-Data shapes (the guide's sketch patterns):
- exact: content-hash column in map_batches → groupby(hash) → keep min id
  (the hash-partition + per-group-first pattern; the reference's analogue
  is updateDocument(term, doc) delete-then-add dedup, IndexWriter.java:1771)
- MinHash+LSH: shingle → minhash signature per doc (vectorized) → explode
  to (band_id, band_hash, doc_id) rows → groupby bands → candidate pairs →
  verify exact n-gram Jaccard on the pair (only candidates are verified)
- SimHash: 64-bit hyperplane-free signature from token hashes; near-dup =
  hamming distance ≤ k via banding on 4 × 16-bit chunks
- embedding-cosine: delegated to engine/ann.py (same top-k kernel)

All hashes are deterministic FNV/md5 derivatives (never builtin hash() —
per-process salted).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from .rayenv import remote_args as _rargs

from .analyze import TOKEN_RE
from .textops import fnv1a

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def content_hash_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    texts = batch.column(text_col).to_pylist()
    hashes = [hashlib.md5((t or "").encode()).hexdigest() for t in texts]
    return batch.append_column("content_hash", pa.array(hashes, type=pa.string()))


def exact_dedup(ds, text_col: str = "text"):
    """Dataset (doc_id, text, ...) → (kept_doc_id, dup_count) per distinct
    content. groupby on the hash with NATIVE aggregates (Min + Count) —
    no per-key Python function, no per-group pandas frame: at 10^10
    distinct keys the per-group work is an Arrow min/count, not a
    DataFrame construction."""
    hashed = ds.map_batches(
        lambda b: content_hash_batch(b, text_col), batch_format="pyarrow", **_rargs()
    )
    from ray.data.aggregate import Count, Min

    agg = hashed.groupby("content_hash").aggregate(
        Min("doc_id", alias_name="kept_doc_id"),
        Count(alias_name="dup_count"),
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "kept_doc_id": b.column("kept_doc_id").cast(pa.int64()),
                "dup_count": b.column("dup_count").cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", **_rargs())


# ---------------------------------------------------------------------------
# shingles / minhash / LSH
# ---------------------------------------------------------------------------

N_HASHES = 64
N_BANDS = 16  # 16 bands x 4 rows: catches jaccard >~ 0.5
ROWS_PER_BAND = N_HASHES // N_BANDS
_MERSENNE = (1 << 61) - 1


def _shingle_hashes(text: str, k: int = 3) -> np.ndarray:
    toks = TOKEN_RE.findall((text or "").lower())
    if len(toks) < k:
        shingles = {" ".join(toks)} if toks else set()
    else:
        shingles = {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}
    return np.fromiter((fnv1a(s) for s in shingles), dtype=np.uint64, count=len(shingles))


_A = None
_B = None


def _coeffs() -> tuple[np.ndarray, np.ndarray]:
    global _A, _B
    if _A is None:
        rng = np.random.default_rng(424242)  # fixed: signatures must agree everywhere
        _A = rng.integers(1, _MERSENNE, size=N_HASHES, dtype=np.int64).astype(np.uint64)
        _B = rng.integers(0, _MERSENNE, size=N_HASHES, dtype=np.int64).astype(np.uint64)
    return _A, _B


def minhash_signature(text: str, k: int = 3) -> np.ndarray:
    """64-permutation MinHash over k-token shingles, vectorized:
    sig[j] = min over shingles of (a_j * h + b_j mod 2^61-1)."""
    h = _shingle_hashes(text, k)
    if len(h) == 0:
        return np.full(N_HASHES, np.uint64(_MERSENNE), dtype=np.uint64)
    a, b = _coeffs()
    # (n_shingles, n_hashes) in uint64 with wraparound is fine for min-comparing
    vals = (h[:, None] * a[None, :] + b[None, :]) % np.uint64(_MERSENNE)
    return vals.min(axis=0)


def minhash_bands_batch(batch: pa.Table, k: int = 3) -> pa.Table:
    """Explode each doc into N_BANDS (band_id, band_hash, doc_id) rows."""
    texts = batch.column("text").to_pylist()
    doc_ids = batch.column("doc_id").to_numpy()
    n = len(texts)
    band_ids = np.tile(np.arange(N_BANDS, dtype=np.int32), n)
    out_docs = np.repeat(doc_ids, N_BANDS)
    band_hashes = np.empty(n * N_BANDS, dtype=np.int64)
    for i, t in enumerate(texts):
        sig = minhash_signature(t, k)
        bands = sig.reshape(N_BANDS, ROWS_PER_BAND)
        for bi in range(N_BANDS):
            d = hashlib.md5(bands[bi].tobytes()).digest()[:8]
            band_hashes[i * N_BANDS + bi] = int.from_bytes(d, "little") >> 1
    return pa.table(
        {
            "band_id": pa.array(band_ids),
            "band_hash": pa.array(band_hashes),
            "doc_id": pa.array(out_docs, type=pa.int64()),
        }
    )


def ngram_jaccard(text_a: str, text_b: str, k: int = 3) -> float:
    """Exact k-token-shingle Jaccard (the verify step after LSH)."""
    sa = set(_shingle_hashes(text_a, k).tolist())
    sb = set(_shingle_hashes(text_b, k).tolist())
    if not sa and not sb:
        return 1.0
    inter = len(sa & sb)
    return inter / (len(sa) + len(sb) - inter)


# all-pairs cap per LSH band group: a degenerate band (e.g. near-empty
# docs all hashing together) would otherwise explode O(n^2); beyond the
# cap each member pairs with the group's smallest doc_id only (star
# linking — transitive near-dup clusters still connect through the
# representative)
MAX_BAND_GROUP = 256


def _group_pairs(ids: list[int]) -> list[tuple[int, int]]:
    import itertools

    ids = sorted(set(ids))
    if len(ids) < 2:
        return []
    if len(ids) <= MAX_BAND_GROUP:
        return list(itertools.combinations(ids, 2))
    rep = ids[0]
    return [(rep, b) for b in ids[1:]]


def minhash_lsh_dedup(ds, threshold: float = 0.7, k: int = 3, source_path: str | None = None):
    """Dataset (doc_id, text) → verified near-dup pairs
    (doc_a, doc_b, jaccard) with doc_a < doc_b.

    shingle→minhash→band (map_batches) → groupby(band) → candidate pairs
    (size-capped per band group) → exact-Jaccard verify. The verify stage
    RE-READS only the candidate docs' texts from ``source_path`` with a
    doc_id pushdown filter per batch — nothing whole-corpus is ever
    collected or broadcast (the scale path). When the dataset has no
    backing file (``source_path=None``), the texts are broadcast via
    ray.put as a small-corpus fallback."""
    import pandas as pd
    import ray

    text_ref = None
    if source_path is None:
        # small-corpus fallback ONLY: collecting the text column to the
        # driver is a whole-corpus materialization — refuse beyond a hard
        # bound instead of silently broadcasting gigabytes (the scale path
        # is source_path + per-batch doc_id pushdown reads)
        n_rows = ds.count()
        if n_rows > 1_000_000:
            raise ValueError(
                f"minhash_lsh_dedup: {n_rows} rows with source_path=None "
                "would broadcast the whole text column; pass source_path "
                "so the verify stage re-reads candidates by doc_id pushdown"
            )
        texts_tbl = ds.select_columns(["doc_id", "text"]).to_pandas()
        text_ref = ray.put(dict(zip(texts_tbl["doc_id"], texts_tbl["text"])))

    bands = ds.map_batches(
        lambda b: minhash_bands_batch(b, k), batch_format="pyarrow", **_rargs()
    )

    def candidates(g: pd.DataFrame) -> pd.DataFrame:
        pairs = _group_pairs(g["doc_id"].tolist())
        return pd.DataFrame(
            {"doc_a": [p[0] for p in pairs], "doc_b": [p[1] for p in pairs]}
        )

    cand = bands.groupby(["band_id", "band_hash"]).map_groups(
        candidates, batch_format="pandas", **_rargs()
    )

    # distinct the (doc_a, doc_b) candidates BEFORE the text fetch so a
    # pair surfaced by several bands is verified once — native Count
    # aggregate (no per-pair pandas frame), count column then dropped
    from ray.data.aggregate import Count as _Count

    cand = (
        cand.groupby(["doc_a", "doc_b"])
        .aggregate(_Count(alias_name="_nbands"))
        .select_columns(["doc_a", "doc_b"])
    )

    def verify(batch: pa.Table) -> pa.Table:
        a_ids = batch.column("doc_a").to_pylist()
        b_ids = batch.column("doc_b").to_pylist()
        if source_path is not None:
            import pyarrow.dataset as pads

            need = sorted({*a_ids, *b_ids})
            tbl = pads.dataset(source_path).to_table(
                columns=["doc_id", "text"],
                filter=pads.field("doc_id").isin(need),
            )
            texts = dict(
                zip(tbl.column("doc_id").to_pylist(), tbl.column("text").to_pylist())
            )
        else:
            texts = ray.get(text_ref)
        rows = {"doc_a": [], "doc_b": [], "jaccard": []}
        for a, b in zip(a_ids, b_ids):
            j = ngram_jaccard(texts[a], texts[b], k)
            if j >= threshold:
                rows["doc_a"].append(int(a))
                rows["doc_b"].append(int(b))
                rows["jaccard"].append(float(j))
        return pa.table(
            {
                "doc_a": pa.array(rows["doc_a"], type=pa.int64()),
                "doc_b": pa.array(rows["doc_b"], type=pa.int64()),
                "jaccard": pa.array(rows["jaccard"], type=pa.float64()),
            }
        )

    return cand.map_batches(verify, batch_format="pyarrow", batch_size=1024, **_rargs())


# ---------------------------------------------------------------------------
# exact n-gram Jaccard set-similarity join (AllPairs prefix filtering)
# ---------------------------------------------------------------------------

# log (never silently cap) prefix-posting groups beyond this size — with
# frequency ordering these only appear when a genuinely hot shingle falls
# outside the broadcast top-F table
_JOIN_GROUP_WARN = 10_000


def _prefix_lens(n: np.ndarray, threshold: float) -> np.ndarray:
    """Exact prefix length n - ceil(t*n) + 1 per set size, with t taken as
    the exact binary value of the float threshold (integer ceil — a float
    ceil that rounds t*n up across an integer would shrink the prefix and
    silently drop true pairs)."""
    from fractions import Fraction

    t = Fraction(threshold)
    num, den = t.numerator, t.denominator
    ceil_tn = -((-num * n.astype(object)) // den)  # exact ceil(num*n/den)
    return (n - ceil_tn.astype(np.int64) + 1).astype(np.int64)


def _doc_shingles(text: str, k: int) -> list[str]:
    """Distinct k-token shingles as STRINGS (the oracle-exact semantic:
    tokens are TOKEN_RE over lowered text; <k tokens collapse to one
    joined shingle; zero tokens → empty set)."""
    toks = TOKEN_RE.findall((text or "").lower())
    if not toks:
        return []
    if len(toks) < k:
        return [" ".join(toks)]
    return list({" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)})


def ngram_jaccard_join(
    ds,
    threshold: float = 0.6,
    k: int = 3,
    source_path: str | None = None,
    freq_top: int = 4096,
):
    """EXACT set-similarity self-join: all pairs (doc_a < doc_b) whose
    k-token-shingle sets have Jaccard >= threshold, as
    (doc_a, doc_b, n_inter, n_union) — integer columns only, so a DuckDB
    shingle self-join oracle hash-matches bit-for-bit.

    AllPairs prefix filtering (Bayardo et al., WWW'07; the exact
    counterpart of the MinHash LSH sketch above): each doc emits only its
    first |s| - ceil(t*|s|) + 1 shingles under a GLOBAL shingle order —
    any pair with J >= t provably shares a prefix shingle, so a
    groupby(shingle) over prefix postings surfaces every true pair.

    Global order = rarest-first: one distributed df pass finds the top-F
    most frequent shingles (broadcast via ray.put), which sort LAST —
    boilerplate shingles stay out of prefixes, so posting groups stay
    small without any correctness-breaking cap (oversized groups are
    logged, never truncated). Ties and hash collisions are broken by the
    shingle string itself, keeping the order a total order over shingles.

    Verify re-reads only candidate texts via doc_id-pushdown from
    ``source_path`` (the minhash_lsh_dedup scale path) and intersects
    STRING shingle sets, so fnv1a collisions can only add candidates,
    never wrong results. Docs with zero tokens have empty shingle sets
    and never pair (matches the SQL oracle, where they unnest to no rows).
    """
    import logging

    import pandas as pd
    import ray

    text_ref = None
    if source_path is None:
        n_rows = ds.count()
        if n_rows > 1_000_000:
            raise ValueError(
                f"ngram_jaccard_join: {n_rows} rows with source_path=None "
                "would broadcast the whole text column; pass source_path "
                "so the verify stage re-reads candidates by doc_id pushdown"
            )
        texts_tbl = ds.select_columns(["doc_id", "text"]).to_pandas()
        text_ref = ray.put(dict(zip(texts_tbl["doc_id"], texts_tbl["text"])))

    # ---- pass 1: doc-frequency of every shingle (map-side combined), top-F
    def _df_partial(batch: pa.Table) -> pa.Table:
        hs = []
        for t in batch.column("text").to_pylist():
            sh = _doc_shingles(t, k)
            if sh:
                hs.append(np.fromiter((fnv1a(s) for s in sh), dtype=np.uint64, count=len(sh)))
        if not hs:
            return pa.table(
                {"sh": pa.array([], type=pa.int64()), "df": pa.array([], type=pa.int64())}
            )
        u, c = np.unique(np.concatenate(hs), return_counts=True)
        return pa.table(
            {"sh": pa.array(u.astype(np.int64)), "df": pa.array(c.astype(np.int64))}
        )

    from ray.data.aggregate import Sum as _Sum

    top = (
        ds.map_batches(_df_partial, batch_format="pyarrow", **_rargs())
        .groupby("sh")
        .aggregate(_Sum("df", alias_name="df"))
        .sort("df", descending=True)
        .limit(freq_top)
        .take_all()
    )
    # most frequent gets the LARGEST order key (sorts last, out of prefixes)
    freq_rank = {int(r["sh"]): len(top) - i for i, r in enumerate(top)}
    rank_ref = ray.put(freq_rank)

    from fractions import Fraction as _Fr0

    _tf0 = _Fr0(threshold)
    p_num, p_den = _tf0.numerator, _tf0.denominator

    # ---- pass 2: prefix postings (shingle, doc_id, n_shingles)
    def _prefix_postings(batch: pa.Table) -> pa.Table:
        ranks = ray.get(rank_ref)
        hi = 1 << 63
        lo_mask = hi - 1
        out_sh, out_doc, out_n = [], [], []
        docs = batch.column("doc_id").to_pylist()
        for did, t in zip(docs, batch.column("text").to_pylist()):
            sh = _doc_shingles(t, k)
            n = len(sh)
            if n == 0:
                continue
            keyed = []
            for s in sh:
                h = fnv1a(s)
                h64 = h - (1 << 64) if h >= hi else h  # int64 wrap, = df pass
                r = ranks.get(h64)
                key = (hi | r) if r is not None else (h & lo_mask)
                keyed.append((key, s, h64))
            keyed.sort()
            # exact prefix len n - ceil(t*n) + 1 (integer ceil of the exact
            # binary threshold — float ceil could shrink it and drop pairs)
            p = n - (-((-p_num * n) // p_den)) + 1
            for _, _, h64 in keyed[: max(p, 0)]:
                out_sh.append(h64)
                out_doc.append(int(did))
                out_n.append(n)
        return pa.table(
            {
                "sh": pa.array(out_sh, type=pa.int64()),
                "doc_id": pa.array(out_doc, type=pa.int64()),
                "n_sh": pa.array(out_n, type=pa.int64()),
            }
        )

    postings = ds.map_batches(_prefix_postings, batch_format="pyarrow", **_rargs())

    t_num, t_den = p_num, p_den

    # Candidate generation: NOT groupby(sh).map_groups — a per-shingle
    # Python/pandas call over ~n_docs*prefix_len mostly-singleton groups
    # costs ms each (the per-key-group anti-pattern). Route postings into
    # a fixed number of hash buckets instead, then slice contiguous
    # shingle groups vectorized inside each bucket (one Python call per
    # bucket, numpy boundary detection — the _merge_sorted_batch trick).
    n_buckets = 64

    def _bucketize(b: pa.Table) -> pa.Table:
        sh = b.column("sh").to_numpy(zero_copy_only=False).astype(np.uint64)
        bk = (sh * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(64 - 6)
        return b.append_column("bucket", pa.array(bk.astype(np.int32)))

    def _cands(g: pd.DataFrame) -> pd.DataFrame:
        sh = g["sh"].to_numpy()
        doc = g["doc_id"].to_numpy()
        nsh = g["n_sh"].to_numpy()
        order = np.lexsort((nsh, doc, sh))  # shingle groups, doc-sorted inside
        sh, doc, nsh = sh[order], doc[order], nsh[order]
        bounds = np.flatnonzero(np.r_[True, sh[1:] != sh[:-1], True])
        out_a, out_b = [], []
        for s0, s1 in zip(bounds[:-1], bounds[1:]):
            m = int(s1 - s0)
            if m < 2:  # singleton prefix groups (the common case) pair nothing
                continue
            if m > _JOIN_GROUP_WARN:
                logging.getLogger(__name__).warning(
                    "ngram_jaccard_join: prefix group of %d docs on one "
                    "shingle (outside the top-%d frequency table?) — "
                    "generating all pairs, consider raising freq_top",
                    m,
                    freq_top,
                )
            for i in range(s0, s1):
                da, na = int(doc[i]), int(nsh[i])
                for j in range(i + 1, s1):
                    db, nb = int(doc[j]), int(nsh[j])
                    if da == db:
                        continue
                    lo, hi_n = (na, nb) if na <= nb else (nb, na)
                    # J >= t needs |small| >= t*|large| — exact int compare
                    if lo * t_den >= hi_n * t_num:
                        out_a.append(da)
                        out_b.append(db)
        return pd.DataFrame(
            {
                "doc_a": pd.Series(out_a, dtype="int64"),
                "doc_b": pd.Series(out_b, dtype="int64"),
            }
        )

    cand = (
        postings.map_batches(_bucketize, batch_format="pyarrow", **_rargs())
        .groupby("bucket")
        .map_groups(_cands, batch_format="pandas", **_rargs())
    )

    from ray.data.aggregate import Count as _Count

    cand = (
        cand.groupby(["doc_a", "doc_b"])
        .aggregate(_Count(alias_name="_n"))
        .select_columns(["doc_a", "doc_b"])
    )

    # ---- verify: exact string-shingle intersection on candidate pairs
    def _verify(batch: pa.Table) -> pa.Table:
        a_ids = batch.column("doc_a").to_pylist()
        b_ids = batch.column("doc_b").to_pylist()
        if source_path is not None:
            import pyarrow.dataset as pads

            need = sorted({*a_ids, *b_ids})
            tbl = pads.dataset(source_path).to_table(
                columns=["doc_id", "text"],
                filter=pads.field("doc_id").isin(need),
            )
            texts = dict(
                zip(tbl.column("doc_id").to_pylist(), tbl.column("text").to_pylist())
            )
        else:
            texts = ray.get(text_ref)
        out = {"doc_a": [], "doc_b": [], "n_inter": [], "n_union": []}
        for a, b in zip(a_ids, b_ids):
            sa = set(_doc_shingles(texts[a], k))
            sb = set(_doc_shingles(texts[b], k))
            inter = len(sa & sb)
            union = len(sa) + len(sb) - inter
            # exact integer compare against the threshold's binary value —
            # identical to the SQL oracle's integer inequality, no float
            # division anywhere on the accept/reject boundary
            if union > 0 and inter * p_den >= union * p_num:
                out["doc_a"].append(int(a))
                out["doc_b"].append(int(b))
                out["n_inter"].append(inter)
                out["n_union"].append(union)
        return pa.table(
            {
                "doc_a": pa.array(out["doc_a"], type=pa.int64()),
                "doc_b": pa.array(out["doc_b"], type=pa.int64()),
                "n_inter": pa.array(out["n_inter"], type=pa.int64()),
                "n_union": pa.array(out["n_union"], type=pa.int64()),
            }
        )

    return cand.map_batches(_verify, batch_format="pyarrow", batch_size=1024, **_rargs())


# ---------------------------------------------------------------------------
# simhash
# ---------------------------------------------------------------------------


def simhash64(text: str) -> int:
    """64-bit SimHash over token hashes weighted by term frequency."""
    toks = TOKEN_RE.findall((text or "").lower())
    if not toks:
        return 0
    from collections import Counter

    acc = np.zeros(64, dtype=np.int64)
    for w, c in Counter(toks).items():
        h = fnv1a(w)
        bits = (h >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        acc += np.where(bits.astype(bool), c, -c)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out & 0x7FFFFFFFFFFFFFFF  # fits int64


def simhash_batch(batch: pa.Table) -> pa.Table:
    texts = batch.column("text").to_pylist()
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "simhash": pa.array([simhash64(t) for t in texts], type=pa.int64()),
        }
    )


# 64-bit SimHash banding for hamming <= 3: split into 6 chunks
# (11,11,11,11,10,10 bits); a pair within distance 3 has at most 3 dirty
# chunks, hence >= 3 intact — so it collides on at least one of the
# C(6,3)=20 chunk-TRIPLE keys. Triple keys are ~32 bits, so bucket
# populations stay tiny even at 10^10 docs (the round-1 4x16-bit scheme
# put ~N/65k docs in every bucket — quadratic blowup at scale).
_SH_CHUNK_BITS = (11, 11, 11, 11, 10, 10)
_SH_CHUNK_OFF = tuple(int(x) for x in np.concatenate(([0], np.cumsum(_SH_CHUNK_BITS)[:-1])))
from itertools import combinations as _combos

_SH_TRIPLES = tuple(_combos(range(6), 3))


def simhash_near_dups(ds, max_hamming: int = 3):
    """SimHash near-dup pairs (doc_a, doc_b, hamming), hamming <= 3,
    via chunk-triple banding with per-bucket pair caps; candidates verify
    exactly on the shipped 64-bit signatures (no text access)."""
    import pandas as pd

    sh = ds.map_batches(simhash_batch, batch_format="pyarrow", **_rargs())

    def explode(batch: pa.Table) -> pa.Table:
        doc = batch.column("doc_id").to_numpy()
        h = batch.column("simhash").to_numpy().astype(np.uint64)
        n = len(doc)
        chunks = [
            (h >> np.uint64(off)) & np.uint64((1 << bits) - 1)
            for off, bits in zip(_SH_CHUNK_OFF, _SH_CHUNK_BITS)
        ]
        keys = []
        for ti, (a, b, c) in enumerate(_SH_TRIPLES):
            v = chunks[a] | (chunks[b] << np.uint64(11)) | (chunks[c] << np.uint64(22))
            keys.append((v | (np.uint64(ti) << np.uint64(33))).astype(np.int64))
        return pa.table(
            {
                "band_key": pa.array(np.concatenate(keys)),
                "doc_id": pa.array(np.tile(doc, len(_SH_TRIPLES)), type=pa.int64()),
                "simhash": pa.array(
                    np.tile(h.astype(np.int64), len(_SH_TRIPLES)), type=pa.int64()
                ),
            }
        )

    def pairs(g: pd.DataFrame) -> pd.DataFrame:
        out = {"doc_a": [], "doc_b": [], "hamming": []}
        sig_of = dict(zip(g["doc_id"].astype(int), g["simhash"].astype(int)))
        for a, b in _group_pairs(list(sig_of)):
            d = int(bin(sig_of[a] ^ sig_of[b]).count("1"))
            if d <= max_hamming:
                out["doc_a"].append(a)
                out["doc_b"].append(b)
                out["hamming"].append(d)
        return pd.DataFrame(out)

    cand = (
        sh.map_batches(explode, batch_format="pyarrow", **_rargs())
        .groupby("band_key")
        .map_groups(pairs, batch_format="pandas", **_rargs())
    )

    # a pair surfaces once per colliding band with the SAME hamming —
    # native Min aggregate dedups without a per-pair pandas frame
    from ray.data.aggregate import Min as _Min

    return cand.groupby(["doc_a", "doc_b"]).aggregate(
        _Min("hamming", alias_name="hamming")
    )


# ---------------------------------------------------------------------------
# dedup-by-url (keep latest) — the updateDocument(term, doc) analogue
# ---------------------------------------------------------------------------


class _ArgLatest:
    """Vectorized keep-latest accumulator for dedup_pages_by_url: per
    group slice, pick (max warc_ts, tie min doc_id) with one lexsort —
    accumulator is a 2-int tuple, never a pandas frame. Built lazily as an
    AggregateFnV2 subclass (ray.data.aggregate) so the groupby runs native
    per-group Arrow kernels instead of a per-key Python map_groups."""

    _ZERO = (-(1 << 62), (1 << 62))

    @staticmethod
    def make(out_col: str):
        from ray.data.aggregate import AggregateFnV2
        from ray.data.block import BlockAccessor

        zero = _ArgLatest._ZERO

        class _Agg(AggregateFnV2):
            def __init__(self):
                super().__init__(
                    out_col, zero_factory=lambda: zero, on=None, ignore_nulls=True
                )

            def aggregate_block(self, block):
                tbl = BlockAccessor.for_block(block).to_arrow()
                ts = (
                    tbl.column("warc_ts")
                    .to_numpy(zero_copy_only=False)
                    .astype("datetime64[ms]")
                    .astype(np.int64)
                )
                did = tbl.column("doc_id").to_numpy()
                if len(did) == 0:
                    return zero
                i = int(np.lexsort((did, -ts))[0])
                return (int(ts[i]), int(did[i]))

            def combine(self, cur, new):
                a = zero if cur is None else cur
                b = zero if new is None else new
                return min(a, b, key=lambda t: (-t[0], t[1]))

            def finalize(self, acc):
                acc = zero if acc is None else acc
                return int(acc[0]) if out_col == "_latest_ts_ms" else int(acc[1])

        return _Agg()


def dedup_pages_by_url(ds):
    """Exact dedup by url keeping the newest warc_ts (the reference's
    updateDocument(term, doc) delete-then-add semantics,
    index/IndexWriter.java:1771): groupby(url) → keep max warc_ts, tie →
    smallest doc_id. One hash shuffle on url (SURVEY §7.4); the per-group
    reduce is the vectorized _ArgLatest aggregate (no per-key pandas).
    Returns (doc_id, url, warc_ts) with warc_ts as timestamp[ms]."""
    agg = ds.groupby("url").aggregate(
        _ArgLatest.make("_latest_ts_ms"), _ArgLatest.make("doc_id")
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": b.column("doc_id").cast(pa.int64()),
                "url": b.column("url"),
                "warc_ts": b.column("_latest_ts_ms").cast(pa.int64()).cast(
                    pa.timestamp("ms")
                ),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", **_rargs())


# ---------------------------------------------------------------------------
# C4-style global line-level dedup
# ---------------------------------------------------------------------------

_LINE_POS_BITS = 20  # lines per doc < 2^20 (assert below); doc_id < 2^43


def line_dedup_stats(ds, chunk_tokens: int = 3):
    """C4-style global line-level dedup accounting (Raffel et al. 2020
    §2.2 "three-sentence span" dedup): an occurrence of a line is KEPT iff
    it is the corpus-wide first occurrence of that exact content, ordered
    by (doc_id, position); every later occurrence — in other docs or the
    same doc — is removed. The fixture corpus is single-line, so "lines"
    are deterministic ``chunk_tokens``-token chunks of the token stream
    (the C4 span analogue); the SQL oracle rebuilds identical chunks.

    Returns one row per doc: (doc_id, n_lines, n_kept, n_removed), all
    int64. Shape is two native groupbys and no joins:

      occurrences (key, packed)            map_batches, fnv1a_vec-hashed
        -> groupby(key).aggregate(Min(packed))   winners, one row/line
        -> decode owner doc_id = packed >> 20    map_batches
        -> tag-union with per-doc line counts -> groupby(doc_id).sum

    The winner join-back is unnecessary because kept-counts only need the
    winning occurrence's OWNER, which the packed min encodes. Grouping is
    by 64-bit FNV-1a of the chunk text (standard hash-dedup practice;
    content-collision odds are negligible at any corpus size this engine
    targets, and the oracle groups by content)."""
    from ray.data.aggregate import Min, Sum

    from .textops import fnv1a_vec

    def occurrences(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        docs = batch.column("doc_id").to_numpy()
        chunk_strs: list[str] = []
        owner: list[int] = []
        packed: list[int] = []
        if len(docs):
            assert int(docs.max()) < (1 << (63 - _LINE_POS_BITS)), (
                "doc_id exceeds the packed (doc_id<<20)|pos budget"
            )
        for d, t in zip(docs.tolist(), texts):
            toks = TOKEN_RE.findall(t.lower()) if t else []
            n_lines = (len(toks) + chunk_tokens - 1) // chunk_tokens
            assert n_lines < (1 << _LINE_POS_BITS), "doc exceeds line-pos budget"
            for p in range(n_lines):
                chunk_strs.append(
                    " ".join(toks[p * chunk_tokens : (p + 1) * chunk_tokens])
                )
                owner.append(d)
                packed.append((d << _LINE_POS_BITS) | p)
        keys = fnv1a_vec(pa.array(chunk_strs, type=pa.string())).astype(np.int64)
        return pa.table(
            {
                "key": pa.array(keys),
                "packed": pa.array(packed, type=pa.int64()),
            }
        )

    winners = (
        ds.map_batches(occurrences, batch_format="pyarrow", **_rargs())
        .groupby("key")
        .aggregate(Min("packed", alias_name="packed"))
    )

    def kept_partial(batch: pa.Table) -> pa.Table:
        own = (batch.column("packed").to_numpy() >> _LINE_POS_BITS).astype(np.int64)
        uniq, cnt = np.unique(own, return_counts=True)
        z = np.zeros(len(uniq), dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(uniq),
                "n_lines": pa.array(z),
                "n_kept": pa.array(cnt.astype(np.int64)),
            }
        )

    def lines_partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        n_lines = np.fromiter(
            (
                (len(TOKEN_RE.findall(t.lower())) + chunk_tokens - 1) // chunk_tokens
                if t
                else 0
                for t in texts
            ),
            dtype=np.int64,
            count=len(texts),
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_lines": pa.array(n_lines),
                "n_kept": pa.array(np.zeros(len(texts), dtype=np.int64)),
            }
        )

    tagged = ds.map_batches(lines_partial, batch_format="pyarrow", **_rargs()).union(
        winners.map_batches(kept_partial, batch_format="pyarrow", **_rargs())
    )
    summed = tagged.groupby("doc_id").aggregate(
        Sum("n_lines", alias_name="n_lines"), Sum("n_kept", alias_name="n_kept")
    )

    def finish(batch: pa.Table) -> pa.Table:
        nl = batch.column("n_lines").to_numpy().astype(np.int64)
        nk = batch.column("n_kept").to_numpy().astype(np.int64)
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_lines": pa.array(nl),
                "n_kept": pa.array(nk),
                "n_removed": pa.array(nl - nk),
            }
        )

    return summed.map_batches(finish, batch_format="pyarrow", **_rargs())


def near_dup_clusters(pairs, max_rounds: int = 64):
    """Near-dup pairs → connected components: (doc_id, cluster_id) with
    cluster_id = the MIN doc_id of the component — the cluster-and-keep
    step after LSH candidate verification (keep cluster_id == doc_id,
    drop the rest; CCNet/C4-style cluster dedup over the near-dup graph).

    Distributed min-label propagation (the hash-to-min shape, Rastogi et
    al. 2013): labels start as node ids; every round each node takes the
    min of its own label and its neighbors' labels — round = one tagged
    union groupby (labels + symmetrized edges) that emits messages, plus
    one Min aggregate. Labels only decrease, so the label SUM strictly
    decreases until the fixpoint — convergence is one scalar aggregate
    per round, no driver-side graph state ever. Rounds needed = the
    eccentricity of each component's min vertex (near-dup components are
    shallow; ``max_rounds`` is a runaway bound, not a tuning knob).

    ``pairs``: Dataset or Arrow table with (doc_a, doc_b) columns.
    Only docs that appear in at least one pair are emitted (singletons
    are their own cluster by definition and would dominate the output)."""
    import pandas as pd
    import ray.data
    from ray.data.aggregate import Min as _Min, Sum as _Sum

    if isinstance(pairs, pa.Table):
        pairs = ray.data.from_arrow(pairs)

    def _sym(batch: pa.Table) -> pa.Table:
        a = batch.column("doc_a").to_numpy()
        b = batch.column("doc_b").to_numpy()
        return pa.table(
            {
                "src": pa.array(np.concatenate([a, b]), type=pa.int64()),
                "dst": pa.array(np.concatenate([b, a]), type=pa.int64()),
            }
        )

    edges = pairs.map_batches(_sym, batch_format="pyarrow", **_rargs()).materialize()
    if edges.count() == 0:
        return ray.data.from_arrow(
            pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "cluster_id": pa.array([], type=pa.int64()),
                }
            )
        )

    # round 0: lbl(node) = min(node, min neighbor)
    labels = (
        edges.groupby("src")
        .aggregate(_Min("dst", alias_name="nmin"))
        .map_batches(
            lambda b: pa.table(
                {
                    "node": b.column("src"),
                    "lbl": pa.array(
                        np.minimum(
                            b.column("src").to_numpy(), b.column("nmin").to_numpy()
                        ),
                        type=pa.int64(),
                    ),
                }
            ),
            batch_format="pyarrow",
            **_rargs(),
        )
        .materialize()
    )
    prev_sum = labels.aggregate(_Sum("lbl"))["sum(lbl)"]

    def _messages(g: pd.DataFrame) -> pd.DataFrame:
        own = int(g.loc[g["tag"] == 0, "val"].min())
        dsts = g.loc[g["tag"] == 1, "val"]
        return pd.DataFrame(
            {
                "node": np.concatenate([[int(g["key"].iloc[0])], dsts.to_numpy()]),
                "lbl": np.int64(own),
            }
        )

    for _ in range(max_rounds):
        tagged_l = labels.map_batches(
            lambda b: pa.table(
                {"key": b.column("node"), "val": b.column("lbl"),
                 "tag": pa.array(np.zeros(b.num_rows, dtype=np.int8))}
            ),
            batch_format="pyarrow",
            **_rargs(),
        )
        tagged_e = edges.map_batches(
            lambda b: pa.table(
                {"key": b.column("src"), "val": b.column("dst"),
                 "tag": pa.array(np.ones(b.num_rows, dtype=np.int8))}
            ),
            batch_format="pyarrow",
            **_rargs(),
        )
        labels = (
            tagged_l.union(tagged_e)
            .groupby("key")
            .map_groups(_messages, batch_format="pandas", **_rargs())
            .groupby("node")
            .aggregate(_Min("lbl", alias_name="lbl"))
            .materialize()
        )
        new_sum = labels.aggregate(_Sum("lbl"))["sum(lbl)"]
        if new_sum == prev_sum:
            break
        prev_sum = new_sum

    return labels.map_batches(
        lambda b: pa.table(
            {"doc_id": b.column("node"), "cluster_id": b.column("lbl")}
        ),
        batch_format="pyarrow",
        **_rargs(),
    )


# ---------------------------------------------------------------------------
# benchmark decontamination (eval-overlap n-gram filter)
# ---------------------------------------------------------------------------


class _DeconScan:
    """Scan stage (``rayenv.ProcessStage`` tasks): the eval n-gram set
    ships ONCE per stage inside the stage object (never per batch, never
    a bare ray.put handle, whose owner dies when the building function
    returns); __call__ intersects each train doc's distinct n-gram set
    against it (C-level set ops)."""

    def __init__(self, grams, n: int, eval_stride: int):
        self._grams = grams
        self._n = n
        self._stride = eval_stride

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        out_ids: list[int] = []
        out_hits: list[int] = []
        for did, t in zip(doc_ids, texts):
            if int(did) % self._stride == 0:  # eval doc: not scanned
                continue
            toks = TOKEN_RE.findall(t.lower()) if t else []
            if len(toks) < self._n:
                continue
            grams = set(
                map(" ".join, zip(*(toks[i:] for i in range(self._n))))
            )
            hits = len(grams & self._grams)
            if hits:
                out_ids.append(int(did))
                out_hits.append(hits)
        return pa.table(
            {
                "doc_id": pa.array(out_ids, type=pa.int64()),
                "n_hits": pa.array(out_hits, type=pa.int64()),
            }
        )


def decontaminate_ngrams(
    ds,
    n: int = 8,
    eval_stride: int = 37,
    max_eval_grams: int = 5_000_000,
):
    """Benchmark decontamination — the eval-overlap pass every pretraining
    pipeline runs before training (the GPT-3 appendix-C / Dolma / FineWeb
    13-gram filter, parameterized): docs sharing any token ``n``-gram with
    the held-out eval set are flagged with their DISTINCT overlap count.

    Eval set = docs with ``doc_id % eval_stride == 0`` (a deterministic
    held-out split). Two stages, both streaming:

    1. eval-gram collection: map_batches emits each batch's DISTINCT eval
       n-grams; the driver unions them into the broadcast set (bounded by
       ``max_eval_grams`` — eval sets are small by construction; at 100 TB
       you'd broadcast u64 fnv1a gram hashes instead, trading the string
       set for an 8-byte array and re-verifying collisions by pushdown,
       exactly like minhash_lsh_dedup's verify stage).
    2. train scan: map_batches tasks (``rayenv.ProcessStage``); the gram
       set ships once per stage; per doc a C-level set
       intersection counts DISTINCT shared grams. Only contaminated rows
       are emitted (sparse output).

    Returns a Dataset of (doc_id, n_hits) for contaminated train docs —
    exactly SQL-replayable (DISTINCT-gram semi-join + group count)."""
    from .rayenv import ProcessStage

    def _eval_grams(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        grams: set[str] = set()
        for did, t in zip(doc_ids, texts):
            if int(did) % eval_stride != 0:
                continue
            toks = TOKEN_RE.findall(t.lower()) if t else []
            if len(toks) >= n:
                grams.update(map(" ".join, zip(*(toks[i:] for i in range(n)))))
        return pa.table({"gram": pa.array(sorted(grams), type=pa.string())})

    eval_set: set[str] = set()
    for row in ds.map_batches(
        _eval_grams, batch_format="pyarrow", **_rargs()
    ).iter_rows():
        eval_set.add(row["gram"])
        if len(eval_set) > max_eval_grams:
            raise ValueError(
                f"decontaminate_ngrams: eval gram set exceeds {max_eval_grams}; "
                "hash-broadcast variant required at this scale"
            )

    return ds.map_batches(
        ProcessStage(_DeconScan, eval_set, n, eval_stride), batch_format="pyarrow", **_rargs()
    )


def dup_span_stats(ds, window: int = 16):
    """ExactSubstr duplicate-span accounting (Lee et al. 2021,
    "Deduplicating Training Data Makes Language Models Better" §4.1 —
    the suffix-array exact-substring pass, realized at scale as
    fixed-``window``-token rolling-hash matching, the Dolma/RedPajama
    practice): a window is DUPLICATED iff its exact token content occurs
    at 2+ positions corpus-wide (any doc, including within-doc repeats).
    Per doc with at least one duplicated window:
    (doc_id, n_dup_windows, n_dup_tokens) where n_dup_tokens is the size
    of the union of the covered [p, p+window) spans — the token mass an
    ExactSubstr pass would cut.

    Shape: explode window hashes (map_batches, the same B^i polynomial
    over fnv1a token hashes as rolling_fingerprint_batch, uint64
    wraparound), route by wh-hash BUCKET (not per-hash groups — a
    per-group map_groups over millions of single-occurrence hashes is
    the ~90us/group shape the perf lore kills; ``buckets`` coarse groups
    each process vectorized), then a doc-bucket groupby folds coverage
    for many docs per group in one numpy pass. No joins, no driver
    state; the window hash is content-equivalent at 64 bits (collision
    odds negligible; the oracle groups by content)."""
    import pandas as pd

    from .textops import fnv1a_vec, rolling_window_hashes

    buckets = 64

    def _windows(batch: pa.Table) -> pa.Table:
        docs = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        d_out: list[np.ndarray] = []
        p_out: list[np.ndarray] = []
        h_out: list[np.ndarray] = []
        for d, t in zip(docs.tolist(), texts):
            toks = TOKEN_RE.findall((t or "").lower())
            if len(toks) < window:
                continue
            h = fnv1a_vec(pa.array(toks, type=pa.string()))
            wh = rolling_window_hashes(h, window)
            d_out.append(np.full(len(wh), d, dtype=np.int64))
            p_out.append(np.arange(len(wh), dtype=np.int64))
            h_out.append(wh.astype(np.int64))  # two's-complement view
        if not d_out:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "pos": pa.array([], type=pa.int64()),
                    "wh": pa.array([], type=pa.int64()),
                    "bucket": pa.array([], type=pa.int64()),
                }
            )
        whs = np.concatenate(h_out)
        return pa.table(
            {
                "doc_id": pa.array(np.concatenate(d_out)),
                "pos": pa.array(np.concatenate(p_out)),
                "wh": pa.array(whs),
                "bucket": pa.array(
                    (whs.view(np.uint64) % np.uint64(buckets)).astype(np.int64)
                ),
            }
        )

    def _dups(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized pass over a whole hash bucket: keep occurrences
        # whose wh occurs 2+ times (transform is C-level per bucket)
        counts = g.groupby("wh")["doc_id"].transform("size")
        out = g.loc[counts >= 2, ["doc_id", "pos"]].copy()
        out["doc_bucket"] = out["doc_id"] % buckets
        return out

    def _coverage(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized across ALL docs in the doc-bucket: sorted (doc, pos)
        # rows; a row's covered width is min(window, next_pos - pos)
        # within the same doc, window for each doc's last row
        g = g.sort_values(["doc_id", "pos"])
        d = g["doc_id"].to_numpy()
        p = g["pos"].to_numpy()
        same = np.empty(len(d), dtype=bool)
        same[:-1] = d[1:] == d[:-1]
        same[-1] = False
        contr = np.where(
            same,
            np.minimum(window, np.concatenate([np.diff(p), [window]])),
            window,
        ).astype(np.int64)
        agg = (
            pd.DataFrame({"doc_id": d, "c": contr})
            .groupby("doc_id", sort=True)
            .agg(n_dup_windows=("c", "size"), n_dup_tokens=("c", "sum"))
            .reset_index()
        )
        return agg

    return (
        ds.map_batches(_windows, batch_format="pyarrow", **_rargs())
        .groupby("bucket")
        .map_groups(_dups, batch_format="pandas", **_rargs())
        .groupby("doc_bucket")
        .map_groups(_coverage, batch_format="pandas", **_rargs())
    )


def bloom_new_keys(ds, m_bits: int = 4096):
    """Incremental-crawl seen-set filter (the crawl-frontier / URL-dedup
    Bloom pass; FuzzySet single-hash design shared with the merge
    dictionary sidecar, engine/merge.py): the PREVIOUS crawl's keys
    (here the even-doc_id half — the deterministic recrawl fixture)
    populate a pow2-masked bitset; the full stream is then filtered to
    keys whose bit is UNSET — provably never seen (no false negatives;
    a ~saturation fraction of genuinely-new keys is sacrificed to false
    positives, the standard frontier trade).

    key = 'https://' || source || '.example.com/doc/' || doc_id (the
    fixture url scheme), hashed fnv1a -> fmix64 -> & (m-1). Shape: one
    pass builds per-batch partial bitsets (ORed on the driver — m/8
    bytes, not key-count); the scan ships the bitset once with its
    ``rayenv.ProcessStage`` tasks. The ORACLE replays the bitset exactly in
    SQL (fnv1a string fold + fmix64 via HUGEINT mulmod), so even the
    false-positive victims match bit-for-bit."""
    from .merge import _fmix64
    from .rayenv import ProcessStage
    from .textops import fnv1a_vec

    assert m_bits & (m_bits - 1) == 0
    mask = np.uint64(m_bits - 1)

    def _keys(batch: pa.Table) -> pa.array:
        import pyarrow.compute as pc

        return pc.binary_join_element_wise(
            "https://",
            batch.column("source").cast(pa.string()),
            ".example.com/doc/",
            batch.column("doc_id").cast(pa.string()),
            "",
        )

    def _partial(batch: pa.Table) -> pa.Table:
        seen = batch.filter(
            pa.compute.equal(pa.compute.bit_wise_and(batch.column("doc_id"), 1), 0)
        )
        bits = np.zeros(m_bits // 64, dtype=np.uint64)
        if seen.num_rows:
            h = _fmix64(fnv1a_vec(_keys(seen).combine_chunks())) & mask
            np.bitwise_or.at(
                bits,
                (h >> np.uint64(6)).astype(np.int64),
                np.uint64(1) << (h & np.uint64(63)),
            )
        return pa.table({"bits": pa.array([bits.tobytes()], type=pa.binary())})

    parts = ds.map_batches(_partial, batch_format="pyarrow", **_rargs()).take_all()
    bits = np.zeros(m_bits // 64, dtype=np.uint64)
    for row in parts:
        np.bitwise_or(bits, np.frombuffer(row["bits"], dtype=np.uint64), out=bits)

    class _Scan:
        def __init__(self, packed):
            self.bits = np.frombuffer(packed, dtype=np.uint64)

        def __call__(self, batch: pa.Table) -> pa.Table:
            h = _fmix64(fnv1a_vec(_keys(batch).combine_chunks())) & mask
            word = self.bits[(h >> np.uint64(6)).astype(np.int64)]
            hit = (word >> (h & np.uint64(63))) & np.uint64(1)
            new = batch.filter(pa.array(hit == 0))
            return pa.table(
                {
                    "doc_id": new.column("doc_id"),
                    "url": _keys(new),
                }
            )

    return ds.map_batches(ProcessStage(_Scan, bits.tobytes()), batch_format="pyarrow", **_rargs())


def near_dup_keep_best(pairs, quality_ds):
    """Cluster-aware dedup SELECTION: connected components over verified
    near-dup pairs, then keep the highest-QUALITY member per cluster
    (ties -> smallest doc_id) — the CCNet/FineWeb refinement of
    keep-min-id cluster dedup (drop duplicates, but keep the best copy,
    not the accidental first).

    ``pairs``: (doc_a, doc_b) Dataset/table of verified near-dup pairs;
    ``quality_ds``: (doc_id, quality) Dataset (the bit-exact f64 quality
    chain). Components come from the distributed min-label propagation
    (near_dup_clusters); quality is then fetched for CLUSTERED docs only
    — the near-dup population is the small side by construction (a few
    percent of a web corpus), so the winner selection is a bounded
    reduce, never a corpus-wide join. At 100 TB the same composition
    runs with a hash-bucket join on doc_id instead of the bounded
    collect (documented trade, same as kmeans' ordered-fold note).

    Returns (cluster_id, kept_doc_id, quality)."""
    import pyarrow.compute as pc

    clusters = near_dup_clusters(pairs).to_pandas()  # bounded: clustered docs
    if len(clusters) == 0:
        return pa.table(
            {
                "cluster_id": pa.array([], type=pa.int64()),
                "kept_doc_id": pa.array([], type=pa.int64()),
                "quality": pa.array([], type=pa.float64()),
            }
        )
    idset = pa.array(sorted(int(d) for d in clusters["doc_id"]), type=pa.int64())
    qrows = quality_ds.map_batches(
        lambda b: b.filter(pc.is_in(b.column("doc_id"), value_set=idset)),
        batch_format="pyarrow",
        **_rargs(),
    ).to_pandas()  # bounded: one row per clustered doc
    merged = clusters.merge(qrows, on="doc_id")
    merged = merged.sort_values(
        ["cluster_id", "quality", "doc_id"], ascending=[True, False, True]
    )
    win = merged.groupby("cluster_id", as_index=False).first()
    return pa.table(
        {
            "cluster_id": pa.array(win["cluster_id"].astype("int64")),
            "kept_doc_id": pa.array(win["doc_id"].astype("int64")),
            "quality": pa.array(win["quality"].astype("float64")),
        }
    )


def crawl_delta(ds, n_docs: int):
    """Crawl snapshot diff — the incremental-recrawl delta pass of a web
    pipeline (which pages were added / removed / changed / unchanged
    between two crawls decides what re-enters the processing DAG).
    Snapshot A = documents; snapshot B = a DETERMINISTIC recrawl derived
    from A in the same streamed pass (doc_id % 7 == 0 dropped ⇒ removed;
    % 5 == 0 re-extracted with ' updated' appended ⇒ changed;
    % 11 == 0 additionally spawns a brand-new page at doc_id + n_docs ⇒
    added). Returns (status, n_docs) — 4 integer rows.

    Shape: ONE read emits both sides' (key, md5, side) rows (B derives
    from A in-task — a real two-crawl diff would union two reads);
    groupby(key) classifies (group size/side membership + hash
    equality), then a 4-row groupby(status) count. Content identity is
    md5 (process-independent), bit-identical to DuckDB's md5()."""
    import hashlib

    from ray.data.aggregate import Count

    def _emit(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        k_out: list[int] = []
        h_out: list[str] = []
        s_out: list[int] = []
        for i, t in zip(ids.tolist(), texts):
            t = t or ""
            k_out.append(i)
            h_out.append(hashlib.md5(t.encode("utf-8")).hexdigest())
            s_out.append(0)
            if i % 7 != 0:
                bt = t + " updated" if i % 5 == 0 else t
                k_out.append(i)
                h_out.append(hashlib.md5(bt.encode("utf-8")).hexdigest())
                s_out.append(1)
            if i % 11 == 0:
                nt = f"new page {i}"
                k_out.append(i + n_docs)
                h_out.append(hashlib.md5(nt.encode("utf-8")).hexdigest())
                s_out.append(1)
        return pa.table(
            {
                "k": pa.array(k_out, type=pa.int64()),
                "h": pa.array(h_out, type=pa.string()),
                "side": pa.array(s_out, type=pa.int64()),
            }
        )

    def _classify(g: pa.Table) -> pa.Table:
        sides = g.column("side").to_numpy()
        hs = g.column("h").to_pylist()
        has_a = bool((sides == 0).any())
        has_b = bool((sides == 1).any())
        if not has_b:
            st = "removed"
        elif not has_a:
            st = "added"
        else:
            ha = hs[int(np.flatnonzero(sides == 0)[0])]
            hb = hs[int(np.flatnonzero(sides == 1)[0])]
            st = "unchanged" if ha == hb else "changed"
        return pa.table({"status": pa.array([st], type=pa.string())})

    return (
        ds.map_batches(_emit, batch_format="pyarrow", **_rargs())
        .groupby("k")
        .map_groups(_classify, batch_format="pyarrow", **_rargs())
        .groupby("status")
        .aggregate(Count(alias_name="n_docs"))
        .map_batches(
            lambda b: pa.table(
                {
                    "status": b.column("status"),
                    "n_docs": b.column("n_docs").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
            **_rargs(),
        )
    )


def record_linkage_customers(sf_dir: str, max_dist: int = 2):
    """Record linkage / entity resolution with blocking (the
    Fellegi–Sunter pipeline shape every dedup-across-sources system
    runs: cheap BLOCKING key -> within-block candidate pairs ->
    expensive pairwise VERIFY): link customer records against a
    deterministic dirty copy (every third customer re-enters with the
    last two name characters transposed, keyed at custkey + 1,000,000).
    Blocking key = the name's sorted-character string (the anagram key —
    transpositions land in their source's block by construction, unlike
    phonetic keys which collapse on this fixture's uniform names);
    verify = banded Levenshtein <= ``max_dist`` (a transposition costs
    2). Returns (a_custkey, b_custkey, dist) — all integers, candidate
    work bounded by anagram-class sizes, never all-pairs.

    Shape: ONE read emits both sides' (block, key, name, side) rows (the
    dirty copy derives in-task), one groupby(block) whose per-group
    work is |A|x|B| banded DPs within the class."""
    from .rayenv import read_parquet_clean
    from .suggest import levenshtein_banded

    import os as _os

    ds = read_parquet_clean(
        _os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_name"],
    )

    def _emit(batch: pa.Table) -> pa.Table:
        keys = batch.column("c_custkey").to_numpy()
        names = batch.column("c_name").to_pylist()
        k_out: list[str] = []
        id_out: list[int] = []
        n_out: list[str] = []
        s_out: list[int] = []
        for ck, nm in zip(keys.tolist(), names):
            nm = nm or ""
            k_out.append("".join(sorted(nm)))
            id_out.append(ck)
            n_out.append(nm)
            s_out.append(0)
            if ck % 3 == 0 and len(nm) >= 2:
                dirty = nm[:-2] + nm[-1] + nm[-2]
                k_out.append("".join(sorted(dirty)))
                id_out.append(ck + 1_000_000)
                n_out.append(dirty)
                s_out.append(1)
        return pa.table(
            {
                "blk": pa.array(k_out, type=pa.string()),
                "ck": pa.array(id_out, type=pa.int64()),
                "nm": pa.array(n_out, type=pa.string()),
                "side": pa.array(s_out, type=pa.int64()),
            }
        )

    def _verify(g: pa.Table) -> pa.Table:
        sides = g.column("side").to_numpy()
        cks = g.column("ck").to_numpy()
        nms = g.column("nm").to_pylist()
        ai = np.flatnonzero(sides == 0)
        bi = np.flatnonzero(sides == 1)
        a_out: list[int] = []
        b_out: list[int] = []
        d_out: list[int] = []
        for i in ai.tolist():
            for j in bi.tolist():
                d = levenshtein_banded(nms[i], nms[j], max_dist)
                if d <= max_dist:
                    a_out.append(int(cks[i]))
                    b_out.append(int(cks[j]))
                    d_out.append(d)
        return pa.table(
            {
                "a_custkey": pa.array(a_out, type=pa.int64()),
                "b_custkey": pa.array(b_out, type=pa.int64()),
                "dist": pa.array(d_out, type=pa.int64()),
            }
        )

    return (
        ds.map_batches(_emit, batch_format="pyarrow", **_rargs())
        .groupby("blk")
        .map_groups(_verify, batch_format="pyarrow", **_rargs())
    )


def merkle_digests(ds, n_buckets: int = 16):
    """Merkle snapshot digests — the anti-entropy integrity check of
    replicated stores (Dynamo/Cassandra Merkle trees; the replicator
    module's verification role here): leaf = md5(text), bucket digest =
    md5 of the bucket's leaf hashes concatenated in ASCENDING leaf-hash
    order (order-canonical ⇒ partition-invariant), root = md5 of the
    bucket digests in bucket order, emitted as bucket = -1. Two
    replicas compare digests top-down and re-sync only differing
    buckets. Returns (bucket, n_docs, digest).

    Shape: one streamed leaf pass, one groupby(bucket) whose per-group
    work is a sort + one md5 over the concatenation; the root folds the
    bucket-bounded digest table on the driver."""
    import hashlib

    def _leaves(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy()
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "bucket": pa.array(ids % n_buckets, type=pa.int64()),
                "h": pa.array(
                    [
                        hashlib.md5((t or "").encode("utf-8")).hexdigest()
                        for t in texts
                    ],
                    type=pa.string(),
                ),
            }
        )

    def _bucket(g: pa.Table) -> pa.Table:
        hs = sorted(g.column("h").to_pylist())
        return pa.table(
            {
                "bucket": pa.array(
                    [int(g.column("bucket")[0].as_py())], type=pa.int64()
                ),
                "n_docs": pa.array([len(hs)], type=pa.int64()),
                "digest": pa.array(
                    [hashlib.md5("".join(hs).encode()).hexdigest()],
                    type=pa.string(),
                ),
            }
        )

    buckets = (
        ds.map_batches(_leaves, batch_format="pyarrow", **_rargs())
        .groupby("bucket")
        .map_groups(_bucket, batch_format="pyarrow", **_rargs())
    )
    rows = sorted(buckets.take_all(), key=lambda r: r["bucket"])  # bounded
    root = hashlib.md5(
        "".join(r["digest"] for r in rows).encode()
    ).hexdigest()
    return pa.table(
        {
            "bucket": pa.array(
                [r["bucket"] for r in rows] + [-1], type=pa.int64()
            ),
            "n_docs": pa.array(
                [r["n_docs"] for r in rows]
                + [sum(r["n_docs"] for r in rows)],
                type=pa.int64(),
            ),
            "digest": pa.array(
                [r["digest"] for r in rows] + [root], type=pa.string()
            ),
        }
    )
