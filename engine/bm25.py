"""BM25 scoring — exact float32 port of the reference arithmetic.

Reference: search/similarities/BM25Similarity.java
- idf:    (float) log(1 + (docCount - docFreq + 0.5)/(docFreq + 0.5))   (:69-72)
- multi-term idf: per-term float idfs summed in a double, cast to float (:172-181)
- avgdl:  (float)(sumTotalTermFreq / (double) docCount)                 (:80-82)
- cache:  cache[i] = 1f / (k1 * ((1-b) + b * LENGTH_TABLE[i] / avgdl))  (:188-191)
- weight: boost * idf  (float32)                                        (:219)
- score:  weight - weight / (1f + freq * cache[norm & 0xFF])            (:222-235)
- defaults k1=1.2, b=0.75 (:59-67); similarity default in IndexSearcher.java:117.

Disjunctions/conjunctions sum per-term float32 scores in a float64
accumulator and cast the total to float32 (DisjunctionSumScorer /
WANDScorer.score() accumulate in double). numpy float32 elementwise ops
reproduce Java float semantics bit-exactly (IEEE 754, round-to-nearest).

Also provides the exhaustive brute-force top-k oracle used by the
CheckHits-style pruned-vs-exhaustive tests (test-framework/.../CheckHits.java
model) and by golden-fixture generation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .smallfloat import LENGTH_TABLE

K1_DEFAULT = np.float32(1.2)
B_DEFAULT = np.float32(0.75)


def idf(doc_freq: int, doc_count: int) -> np.float32:
    """float64 math, cast to float32 (BM25Similarity.java:69-72)."""
    return np.float32(math.log(1.0 + (doc_count - doc_freq + 0.5) / (doc_freq + 0.5)))


def avg_field_length(sum_total_term_freq: int, doc_count: int) -> np.float32:
    return np.float32(sum_total_term_freq / float(doc_count))


def norm_inverse_cache(
    avgdl: np.float32, k1: np.float32 = K1_DEFAULT, b: np.float32 = B_DEFAULT
) -> np.ndarray:
    """cache[i] = 1f / (k1 * ((1-b) + b * LENGTH_TABLE[i] / avgdl)), all ops
    float32 in the reference's order (BM25Similarity.java:188-191).
    Memoized per float32 (avgdl, k1, b): every term of a field shares one
    read-only array, so a term scorer costs no 256-entry rebuild."""
    return _norm_inverse_cache(np.float32(avgdl), np.float32(k1), np.float32(b))


@functools.lru_cache(maxsize=256)
def _norm_inverse_cache(avgdl: np.float32, k1: np.float32, b: np.float32) -> np.ndarray:
    one = np.float32(1.0)
    t = np.multiply(b, LENGTH_TABLE, dtype=np.float32)
    t = np.divide(t, avgdl, dtype=np.float32)
    t = np.add(np.subtract(one, b, dtype=np.float32), t, dtype=np.float32)
    t = np.multiply(k1, t, dtype=np.float32)
    cache = np.divide(one, t, dtype=np.float32)
    cache.flags.writeable = False
    return cache


@dataclass(frozen=True)
class TermScorerParams:
    """Per-(query-term, index) scoring state — the reference's BM25Scorer
    (weight + norm-inverse cache), built once per term per search."""

    weight: np.float32
    cache: np.ndarray  # float32[256]

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        """Vectorized float32: weight - weight / (1 + freq * cache[norm])."""
        one = np.float32(1.0)
        f32 = freqs.astype(np.float32)
        inv = self.cache[np.asarray(norm_bytes, dtype=np.uint8)]
        t = np.multiply(f32, inv, dtype=np.float32)
        t = np.add(one, t, dtype=np.float32)
        t = np.divide(self.weight, t, dtype=np.float32)
        return np.subtract(self.weight, t, dtype=np.float32)

    def max_score(self, imp_freq: np.ndarray, imp_norm: np.ndarray) -> np.float32:
        """Block-max bound from a competitive-impact frontier."""
        if len(imp_freq) == 0:
            return np.float32(0.0)
        return np.float32(self.score(np.asarray(imp_freq), np.asarray(imp_norm)).max())


def make_term_scorer(
    doc_freq: int,
    doc_count: int,
    sum_total_term_freq: int,
    k1: np.float32 = K1_DEFAULT,
    b: np.float32 = B_DEFAULT,
    boost: np.float32 = np.float32(1.0),
    ttf: int = 0,  # term totalTermFreq; unused by BM25 (interface parity)
) -> TermScorerParams:
    w = np.multiply(boost, idf(doc_freq, doc_count), dtype=np.float32)
    avgdl = avg_field_length(sum_total_term_freq, doc_count)
    return TermScorerParams(weight=w, cache=norm_inverse_cache(avgdl, k1, b))


def make_phrase_scorer(
    dfs: list[int],
    doc_count: int,
    sum_total_term_freq: int,
    k1: np.float32 = K1_DEFAULT,
    b: np.float32 = B_DEFAULT,
    boost: np.float32 = np.float32(1.0),
) -> TermScorerParams:
    """PhraseQuery scoring state: idf = per-term float32 idfs summed in a
    double then cast (BM25Similarity.idfExplain(termStats[]), :172-181);
    score uses the phrase frequency as freq."""
    acc = 0.0
    for df in dfs:
        acc += float(idf(df, doc_count))
    w = np.multiply(boost, np.float32(acc), dtype=np.float32)
    avgdl = avg_field_length(sum_total_term_freq, doc_count)
    return TermScorerParams(weight=w, cache=norm_inverse_cache(avgdl, k1, b))


# ---------------------------------------------------------------------------
# Exhaustive oracle (uncompressed postings, float32 per-term + float64 sum).
# ---------------------------------------------------------------------------


def topk_sort(doc_ids: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(score desc, docID asc) tie-break of TopScoreDocCollector.java:88-98.

    Selection before sort: np.partition finds the k-th largest score, only
    the >= kth candidates (incl. every boundary tie, so the doc-asc
    tie-break stays exact) go through the lexsort — O(n + c log c) instead
    of a full O(n log n) sort of all matches (measured 17ms -> ~2ms per
    query on 200k-match disjunctions)."""
    s32 = scores.astype(np.float32)
    n = len(s32)
    if 0 < k < n:
        kth = np.partition(s32, n - k)[n - k]  # k-th largest score
        cand = np.flatnonzero(s32 >= kth)  # >= k candidates, ties included
        order = np.lexsort((doc_ids[cand], -s32[cand]))[:k]
        sel = cand[order]
        return doc_ids[sel], s32[sel]
    order = np.lexsort((doc_ids, -s32))[:k]
    return doc_ids[order], s32[order]


def brute_force_topk(
    term_postings: list[tuple[np.ndarray, np.ndarray]],
    term_params: list[TermScorerParams],
    norms: np.ndarray,
    k: int,
    mode: str = "or",
) -> tuple[np.ndarray, np.ndarray]:
    """Exhaustive top-k over uncompressed postings.

    ``term_postings``: per query term (docs int64, freqs int64) — docs are
    indices into ``norms`` (i.e. docID - docBase for a single segment, or
    global docIDs with a global norms array).
    ``mode``: "or" (sum over matching terms) / "and" (require all terms).
    Returns (doc_ids, float32 scores) sorted by (score desc, doc asc).
    """
    if not term_postings:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
    n_docs = len(norms)
    acc = np.zeros(n_docs, dtype=np.float64)
    match_count = np.zeros(n_docs, dtype=np.int32)
    for (docs, freqs), params in zip(term_postings, term_params):
        s = params.score(freqs, norms[docs])
        np.add.at(acc, docs, s.astype(np.float64))
        match_count[docs] += 1
    if mode == "and":
        matched = np.flatnonzero(match_count == len(term_postings))
    else:
        matched = np.flatnonzero(match_count > 0)
    scores = acc[matched].astype(np.float32)
    return topk_sort(matched, scores, k)


# ---------------------------------------------------------------------------
# Similarity extension point (search/similarities/Similarity.java surface):
# a scorer is anything exposing score(freqs, norm_bytes) + weight/max_score.
# ClassicSimilarity (TFIDFSimilarity) is the second built-in model.
# ---------------------------------------------------------------------------


def make_classic_scorer(
    doc_freq: int,
    doc_count: int,
    sum_total_term_freq: int,  # unused by TF-IDF; kept for interface parity
    boost: np.float32 = np.float32(1.0),
    ttf: int = 0,  # interface parity
) -> TermScorerParams:
    """ClassicSimilarity (TFIDFSimilarity): score = boost * idf^2 * sqrt(tf)
    * (1/sqrt(length)) with idf = log((docCount+1)/(docFreq+1)) + 1 and the
    norm byte decoding through the same SmallFloat length table
    (search/similarities/ClassicSimilarity.java + TFIDFSimilarity.java:
    tf=sqrt, idf, lengthNorm=1/sqrt(numTerms); Lucene 8 norm byte4).

    Implemented through the same TermScorerParams shape: weight carries
    boost*idf^2 and the 256-entry cache carries 1/sqrt(LENGTH_TABLE[i]);
    the score kernel differs, so a subclass overrides score()."""
    idf_c = np.float32(math.log((doc_count + 1) / (doc_freq + 1)) + 1.0)
    w = np.multiply(boost, np.multiply(idf_c, idf_c, dtype=np.float32), dtype=np.float32)
    with np.errstate(divide="ignore"):
        cache = np.divide(
            np.float32(1.0), np.sqrt(LENGTH_TABLE, dtype=np.float32), dtype=np.float32
        )
    cache[LENGTH_TABLE == 0] = np.float32(0.0)
    return ClassicScorerParams(weight=w, cache=cache)


@dataclass(frozen=True)
class ClassicScorerParams(TermScorerParams):
    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        tf = np.sqrt(freqs.astype(np.float32), dtype=np.float32)
        ln = self.cache[np.asarray(norm_bytes, dtype=np.uint8)]
        return np.multiply(
            np.multiply(self.weight, tf, dtype=np.float32), ln, dtype=np.float32
        )

    def max_score(self, imp_freq: np.ndarray, imp_norm: np.ndarray) -> np.float32:
        if len(imp_freq) == 0:
            return np.float32(0.0)
        return np.float32(self.score(np.asarray(imp_freq), np.asarray(imp_norm)).max())


def make_sweetspot_scorer(
    doc_freq: int,
    doc_count: int,
    sum_total_term_freq: int,  # unused (TF-IDF family); interface parity
    boost: np.float32 = np.float32(1.0),
    ln_min: int = 1,
    ln_max: int = 1,
    steepness: float = 0.5,
    ttf: int = 0,  # interface parity
) -> TermScorerParams:
    """SweetSpotSimilarity (misc/.../SweetSpotSimilarity.java:47-120):
    ClassicSimilarity with a plateau length norm —

        lengthNorm(L) = 1 / sqrt(steepness * (|L - min| + |L - max|
                                  - (max - min)) + 1)

    so documents whose length sits inside [ln_min, ln_max] score as if
    perfectly normal (norm 1) and the penalty ramps up outside the
    plateau (computeLengthNorm, :103-110). tf/idf are inherited from the
    classic model; the norm byte decodes through the same SmallFloat
    length table, so the 256-entry cache just bakes the plateau curve."""
    idf_c = np.float32(math.log((doc_count + 1) / (doc_freq + 1)) + 1.0)
    w = np.multiply(boost, np.multiply(idf_c, idf_c, dtype=np.float32), dtype=np.float32)
    L = LENGTH_TABLE.astype(np.float64)
    hyp = steepness * (np.abs(L - ln_min) + np.abs(L - ln_max) - (ln_max - ln_min)) + 1.0
    cache = np.divide(np.float32(1.0), np.sqrt(hyp).astype(np.float32), dtype=np.float32)
    return ClassicScorerParams(weight=w, cache=cache)


@dataclass(frozen=True)
class LMDirichletScorerParams(TermScorerParams):
    """LMDirichletSimilarity scorer state: collection probability folded
    into mu*p, per-norm-byte ln(mu / (docLen + mu)) precomputed in double
    (the SimilarityBase LENGTH_TABLE is double-valued)."""

    boost_d: float = 1.0
    mu_p: float = 1.0
    norm_ln: np.ndarray | None = None  # float64[256]

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        """(float) max(0, boost * (ln(1 + freq/(mu*p)) + ln(mu/(dl+mu))))
        — LMDirichletSimilarity.java:73-78 via SimilarityBase.java:227-230
        (double math, single float cast). Math.log(1 + x), NOT log1p."""
        f = freqs.astype(np.float64)
        s = self.boost_d * (
            np.log(1.0 + f / self.mu_p)
            + self.norm_ln[np.asarray(norm_bytes, dtype=np.uint8)]
        )
        return np.where(s > 0.0, s, 0.0).astype(np.float32)


def make_lmdirichlet_scorer(
    doc_freq: int,
    doc_count: int,
    sum_total_term_freq: int,
    boost: np.float32 = np.float32(1.0),
    ttf: int = 0,
    mu: float = 2000.0,
) -> TermScorerParams:
    """LMDirichletSimilarity (search/similarities/LMDirichletSimilarity
    .java:42-78, default mu=2000): Bayesian-smoothed query-likelihood LM.
    p(w|C) = (totalTermFreq + 1) / (sumTotalTermFreq + 1) in double
    (LMSimilarity.DefaultCollectionModel.java:154-156); negative smoothed
    scores clamp to 0 (the documented paper deviation). The norm byte
    decodes through the shared SmallFloat length table; mu is a float
    param promoted to double exactly as in Java."""
    mu_d = float(np.float32(mu))
    p = (float(ttf) + 1.0) / (float(sum_total_term_freq) + 1.0)
    norm_ln = np.log(mu_d / (LENGTH_TABLE.astype(np.float64) + mu_d))
    return LMDirichletScorerParams(
        weight=np.float32(boost),
        cache=np.zeros(256, dtype=np.float32),  # unused by this model
        boost_d=float(np.float32(boost)),
        mu_p=mu_d * p,
        norm_ln=norm_ln,
    )


@dataclass(frozen=True)
class LMJelinekMercerScorerParams(TermScorerParams):
    """LMJelinekMercerSimilarity scorer state. The op order preserves the
    reference association exactly: ((1-lambda)_f32 * freq / docLen) /
    (lambda * p), all in double except the (1 - lambda) float subtraction."""

    boost_d: float = 1.0
    one_minus_lambda: float = 0.9  # float32(1 - lambda), promoted
    lambda_p: float = 1.0  # lambda_d * collectionProbability
    dl_table: np.ndarray | None = None  # float64[256] decoded lengths

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        """(float)(boost * ln(1 + ((1-l)*f/dl) / (l*p))) —
        LMJelinekMercerSimilarity.java:60-65 via SimilarityBase.java:227."""
        f = freqs.astype(np.float64)
        dl = self.dl_table[np.asarray(norm_bytes, dtype=np.uint8)]
        x = (self.one_minus_lambda * f) / dl
        return (self.boost_d * np.log(1.0 + x / self.lambda_p)).astype(np.float32)


def make_lmjelinekmercer_scorer(
    doc_freq: int,
    doc_count: int,
    sum_total_term_freq: int,
    boost: np.float32 = np.float32(1.0),
    ttf: int = 0,
    lam: float = 0.1,
) -> TermScorerParams:
    """LMJelinekMercerSimilarity (search/similarities/
    LMJelinekMercerSimilarity.java:40-65): linear interpolation of the
    document and collection language models. lambda is a float field —
    (1 - lambda) computes in FLOAT precision before promoting (the
    subtle Java arithmetic the oracle replays); p(w|C) as in LMDirichlet."""
    lam32 = np.float32(lam)
    p = (float(ttf) + 1.0) / (float(sum_total_term_freq) + 1.0)
    return LMJelinekMercerScorerParams(
        weight=np.float32(boost),
        cache=np.zeros(256, dtype=np.float32),  # unused by this model
        boost_d=float(np.float32(boost)),
        one_minus_lambda=float(np.float32(np.float32(1.0) - lam32)),
        lambda_p=float(lam32) * p,
        dl_table=LENGTH_TABLE.astype(np.float64),
    )


@dataclass(frozen=True)
class BooleanScorerParams(TermScorerParams):
    """BooleanSimilarity (search/similarities/BooleanSimilarity.java:47-61):
    score(freq, norm) = boost — query-boost-only matching (filter-style
    scoring); a disjunction's score counts matching clauses."""

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        return np.full(len(freqs), self.weight, dtype=np.float32)


def make_boolean_scorer(
    doc_freq: int,
    doc_count: int,
    sum_total_term_freq: int,
    boost: np.float32 = np.float32(1.0),
    ttf: int = 0,
) -> TermScorerParams:
    return BooleanScorerParams(
        weight=np.float32(boost), cache=np.zeros(256, dtype=np.float32)
    )


@dataclass(frozen=True)
class DFIScorerParams(TermScorerParams):
    """DFISimilarity scorer state: per-norm-byte expected frequency under
    independence precomputed in double with the reference op order
    ((ttf + 1) * docLen) / (sttf + 1)."""

    boost_d: float = 1.0
    measure: str = "chisquared"
    exp_table: np.ndarray | None = None  # float64[256] expected freq

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        """(float) boost * log2(independence(freq, expected) + 1), zero
        when freq <= expected — DFISimilarity.java:57-68 via
        SimilarityBase.java:227-230 (double math, single float cast);
        log2(x) = Math.log(x) / LOG_2 (SimilarityBase.java:202-205)."""
        f = freqs.astype(np.float64)
        e = self.exp_table[np.asarray(norm_bytes, dtype=np.uint8)]
        d = f - e
        if self.measure == "chisquared":
            m = (d * d) / e  # IndependenceChiSquared.java:27-29
        elif self.measure == "standardized":
            m = d / np.sqrt(e)  # IndependenceStandardized.java:28-30
        else:  # saturated
            m = d / e  # IndependenceSaturated.java:27-29
        s = self.boost_d * (np.log(m + 1.0) / _LOG_2)
        return np.where(f > e, s, 0.0).astype(np.float32)


_LOG_2 = math.log(2.0)  # SimilarityBase.LOG_2 (Math.log(2))


def make_dfi_scorer(
    doc_freq: int,
    doc_count: int,
    sum_total_term_freq: int,
    boost: np.float32 = np.float32(1.0),
    ttf: int = 0,
    measure: str = "chisquared",
) -> TermScorerParams:
    """DFISimilarity (search/similarities/DFISimilarity.java:44-68):
    divergence-from-independence, parameter-free. expected =
    ((totalTermFreq + 1) * docLen) / (numberOfFieldTokens + 1) where
    numberOfFieldTokens = sumTotalTermFreq (SimilarityBase.java:111);
    freq <= expected scores 0; otherwise boost * log2(measure + 1) with
    the ChiSquared measure (freq-expected)^2/expected (Solr
    DFISimilarityFactory's default independenceMeasure). The expected
    table keeps the Java association ((ttf+1) * dl) / (sttf+1) per norm
    byte so the DuckDB replay is bit-exact."""
    dl = LENGTH_TABLE.astype(np.float64)
    exp_table = ((float(ttf) + 1.0) * dl) / (float(sum_total_term_freq) + 1.0)
    return DFIScorerParams(
        weight=np.float32(boost),
        cache=np.zeros(256, dtype=np.float32),  # unused by this model
        boost_d=float(np.float32(boost)),
        measure=measure,
        exp_table=exp_table,
    )


@dataclass(frozen=True)
class AxiomaticScorerParams(TermScorerParams):
    """AxiomaticF2EXP scorer state: the doc-length term of the tfln
    denominator precomputed per norm byte in the Java association
    (s * docLen) / avgFieldLength; idf = pow((N+1)/df, k) is a scalar."""

    idf_d: float = 1.0
    s_d: float = 0.25
    boost_d: float = 1.0
    dl_term: np.ndarray | None = None  # float64[256]: (s*dl[b])/avgdl

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        """(float) max(0, ((freq/((freq+s) + (s*dl)/avgdl)) * idf) * boost)
        — Axiomatic.java:104-113 (tf=ln=1, gamma=0 for F2EXP:61-94; the
        boost multiplies AFTER the component product), double math single
        float cast via SimilarityBase.java:227-230."""
        f = freqs.astype(np.float64)
        tfln = f / ((f + self.s_d) + self.dl_term[np.asarray(norm_bytes, dtype=np.uint8)])
        s = (tfln * self.idf_d) * self.boost_d
        return np.where(s > 0.0, s, 0.0).astype(np.float32)


def make_axiomatic_scorer(
    doc_freq: int,
    doc_count: int,
    sum_total_term_freq: int,
    boost: np.float32 = np.float32(1.0),
    ttf: int = 0,
    s: float = 0.25,
    k: float = 0.35,
) -> TermScorerParams:
    """AxiomaticF2EXP (search/similarities/AxiomaticF2EXP.java:61-94,
    Axiomatic.java:99-113, defaults s=0.25f k=0.35f): score =
    tfln * idf with tfln = freq / (freq + s + s*docLen/avgFieldLength)
    and idf = Math.pow((numberOfDocuments + 1) / docFreq, k);
    avgFieldLength = sumTotalTermFreq / (double) docCount
    (SimilarityBase.java:112). s and k are float fields promoted to
    double at use; boost multiplies the double before the single cast.
    Clamped at zero (Axiomatic.java:112 Math.max for the F3 gammas —
    a no-op for F2EXP's non-negative scores, kept for parity)."""
    s_d = float(np.float32(s))
    k_d = float(np.float32(k))
    avgdl = float(sum_total_term_freq) / float(doc_count)
    dl = LENGTH_TABLE.astype(np.float64)
    dl_term = (s_d * dl) / avgdl
    idf_d = float(np.power((float(doc_count) + 1.0) / float(doc_freq), k_d))
    return AxiomaticScorerParams(
        weight=np.float32(boost),
        cache=np.zeros(256, dtype=np.float32),  # unused by this model
        idf_d=idf_d,
        s_d=s_d,
        boost_d=float(np.float32(boost)),
        dl_term=dl_term,
    )


@dataclass(frozen=True)
class IBScorerParams(TermScorerParams):
    """IBSimilarity (LL distribution, DF lambda, H2 normalization) scorer
    state: the per-norm-byte H2 factor log2(1 + (c*avgdl)/dl) precomputed
    in double; lambda is the Java float (df+1)/(N+1) promoted."""

    boost_d: float = 1.0
    lambda_d: float = 0.5
    tfn_factor: np.ndarray | None = None  # float64[256]

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        """(float) boost * -ln(lambda / (tfn + lambda)) with tfn =
        freq * log2(1 + (c*avgdl)/docLen) — IBSimilarity.java:99-105,
        DistributionLL.java:33-35, NormalizationH2.java:58-60, double
        math single float cast via SimilarityBase.java:227-230."""
        f = freqs.astype(np.float64)
        tfn = f * self.tfn_factor[np.asarray(norm_bytes, dtype=np.uint8)]
        s = self.boost_d * -np.log(self.lambda_d / (tfn + self.lambda_d))
        return s.astype(np.float32)


def make_ib_scorer(
    doc_freq: int,
    doc_count: int,
    sum_total_term_freq: int,
    boost: np.float32 = np.float32(1.0),
    ttf: int = 0,
    c: float = 1.0,
) -> TermScorerParams:
    """IBSimilarity(DistributionLL, LambdaDF, NormalizationH2) — the
    information-based model family's most common configuration.
    lambda = (float)((docFreq + 1.0) / (numberOfDocuments + 1.0)),
    nextDown'ed at exactly 1 (LambdaDF.java:32-38); H2 c defaults to 1
    (NormalizationH2.java:53-55); avgFieldLength = sttf / (double) N."""
    lam = np.float32((float(doc_freq) + 1.0) / (float(doc_count) + 1.0))
    if lam == np.float32(1.0):
        lam = np.nextafter(lam, np.float32(0.0), dtype=np.float32)
    c_d = float(np.float32(c))
    avgdl = float(sum_total_term_freq) / float(doc_count)
    dl = LENGTH_TABLE.astype(np.float64)
    with np.errstate(divide="ignore"):
        # byte 0 (zero-length doc) yields +inf — unreachable via postings
        # (a tokenless doc has no terms), matching the Java division
        tfn_factor = np.log(1.0 + (c_d * avgdl) / dl) / _LOG_2
    return IBScorerParams(
        weight=np.float32(boost),
        cache=np.zeros(256, dtype=np.float32),  # unused by this model
        boost_d=float(np.float32(boost)),
        lambda_d=float(lam),
        tfn_factor=tfn_factor,
    )


@dataclass(frozen=True)
class DFRScorerParams(TermScorerParams):
    """DFRSimilarity(BasicModelIF, AfterEffectL, NormalizationH2) scorer
    state: A = log2(1 + (N+1)/(F+0.5)) scalar, per-norm-byte H2 factor."""

    boost_d: float = 1.0
    a_d: float = 1.0
    tfn_factor: np.ndarray | None = None  # float64[256]

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        """(float) boost * ((A * 1.0) * (1 - 1/(1 + tfn))) with tfn =
        freq * log2(1 + (c*avgdl)/docLen) — DFRSimilarity.java:110-114,
        BasicModelIF.java:34-45 (the monotone A*(1+tfn)-A rewrite),
        AfterEffectL.java:32-34 (aeTimes1pTfn = 1), double math single
        float cast via SimilarityBase.java:227-230."""
        f = freqs.astype(np.float64)
        tfn = f * self.tfn_factor[np.asarray(norm_bytes, dtype=np.uint8)]
        s = self.boost_d * (self.a_d * (1.0 - 1.0 / (1.0 + tfn)))
        return s.astype(np.float32)


def make_dfr_scorer(
    doc_freq: int,
    doc_count: int,
    sum_total_term_freq: int,
    boost: np.float32 = np.float32(1.0),
    ttf: int = 0,
    c: float = 1.0,
) -> TermScorerParams:
    """DFRSimilarity with the I(F)L2 configuration (divergence from
    randomness, BasicModelIF + AfterEffectL + NormalizationH2 c=1):
    A = log2(1 + (N + 1) / (F + 0.5)) with N = numberOfDocuments and
    F = totalTermFreq (longs promoted against the 0.5 double); the
    after-effect folds to 1.0 so score = boost * (A * (1 - 1/(1+tfn)))."""
    c_d = float(np.float32(c))
    avgdl = float(sum_total_term_freq) / float(doc_count)
    a_d = math.log(1.0 + float(doc_count + 1) / (float(ttf) + 0.5)) / _LOG_2
    dl = LENGTH_TABLE.astype(np.float64)
    with np.errstate(divide="ignore"):
        # byte 0 (zero-length doc) is unreachable via postings
        tfn_factor = np.log(1.0 + (c_d * avgdl) / dl) / _LOG_2
    return DFRScorerParams(
        weight=np.float32(boost),
        cache=np.zeros(256, dtype=np.float32),  # unused by this model
        boost_d=float(np.float32(boost)),
        a_d=a_d * 1.0,  # A * aeTimes1pTfn (AfterEffectL = 1.0)
        tfn_factor=tfn_factor,
    )


@dataclass(frozen=True)
class MultiScorerParams(TermScorerParams):
    """MultiSimilarity scorer state: the sub-scorers' params in order."""

    subs: tuple = ()

    def score(self, freqs: np.ndarray, norm_bytes: np.ndarray) -> np.ndarray:
        """float sum += sub.score(freq, norm) in sub order — FLOAT
        accumulation per MultiSimilarity.java:66-72 (MultiSimScorer)."""
        acc = np.zeros(len(freqs), dtype=np.float32)
        for sub in self.subs:
            acc = np.add(acc, sub.score(freqs, norm_bytes), dtype=np.float32)
        return acc


def make_multi_scorer(
    doc_freq: int,
    doc_count: int,
    sum_total_term_freq: int,
    boost: np.float32 = np.float32(1.0),
    ttf: int = 0,
    subs: tuple = ("bm25", "classic"),
) -> TermScorerParams:
    """MultiSimilarity (search/similarities/MultiSimilarity.java:44-72):
    each sub-similarity builds its own scorer with the same boost and
    stats (:52-54); a hit's score is the FLOAT-accumulated sum of the
    sub-scores in construction order."""
    built = tuple(
        SIMILARITIES[name](doc_freq, doc_count, sum_total_term_freq, boost=boost, ttf=ttf)
        for name in subs
    )
    return MultiScorerParams(
        weight=np.float32(boost),
        cache=np.zeros(256, dtype=np.float32),  # unused by this model
        subs=built,
    )


SIMILARITIES = {
    "bm25": make_term_scorer,
    "classic": make_classic_scorer,
    "sweetspot": make_sweetspot_scorer,
    "lmdirichlet": make_lmdirichlet_scorer,
    "lmjelinekmercer": make_lmjelinekmercer_scorer,
    "boolean": make_boolean_scorer,
    "dfi": make_dfi_scorer,
    "axiomatic": make_axiomatic_scorer,
    "ib": make_ib_scorer,
    "dfr": make_dfr_scorer,
    "multi": make_multi_scorer,
}
