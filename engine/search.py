"""Search execution: per-segment scorers, top-k collection, Ray search stages.

Shape (SURVEY §3.2): an ``IndexSearcher`` opens the index's segments once
(the open-IndexReader analogue), computes *global* collection + term stats
(sum over leaves — IndexSearcher.java:803-815, TermStates.build in
TermQuery.java:194-206), and evaluates each query per segment in docID
order with a shared collector (shared hits-threshold / bottom score, like
the shared MaxScoreAccumulator), finishing with the (score desc, docID asc)
order of TopDocs.merge — global docIDs already encode (shard, hit) order,
so one lexsort reproduces the reference's (score, shardIndex, hitIndex)
tie-break (TopDocs.java:68-118).

Two physical plans per (query, segment) — the Boolean2ScorerSupplier role:

- ``taat``: exhaustive vectorized term-at-a-time numpy scoring. One live
  optional term goes postings → scores → top-k directly; every other
  clause tree, flat or nested, runs through the one dense clause
  evaluator ``_eval_node`` (scatter-add float32 clause scores into a
  float64 accumulator, combine match masks). Exact, no pruning, optimal
  for small segments.
- ``wand``: document-at-a-time block-max WAND / block-max conjunction with
  dynamic pruning (engine/wand.py), optimal when postings ≫ k (the 100 TB
  scale path). It serves ``BoolQuery.terms_only`` queries with no
  deletions, except a pure disjunction with must_not.

Both are rank-identical by construction (same float32 score arithmetic;
pruning is sound) and tested against each other (CheckHits model).

``search_dataset`` is the Ray Data search stage: stateless
``map_batches`` tasks, each running ``_search_batch`` on
``cached_searcher``. That searcher, cached in each process of Ray's
shared worker pool and opened once per manifest, is the stateful
searcher (the open-IndexReader role). ``search_dataset_sharded``'s
stats searcher and shard views come from the same cache.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import OrderedDict
from itertools import islice

import numpy as np
import pyarrow as pa

from .rayenv import remote_args as _rargs

from .bm25 import TermScorerParams, make_phrase_scorer, make_term_scorer, topk_sort
from .queryparse import BoolQuery, parse_query
from .segment import PostingsReader, Segment
from .wand import (
    TOTAL_HITS_THRESHOLD,
    TermIterator,
    TopKCollector,
    conjunction_topk,
    wand_or_topk,
)

# auto plan: TAAT below, WAND above. With the decoded-postings LRU, the
# vectorized TAAT scan costs ~10ns/posting warm; the block-max WAND path
# (vectorized block-at-a-time for single terms) wins COLD — it decodes
# only competitive blocks (e.g. 9ms vs 62ms cold on a df=150k term) — but
# re-decodes per query, so hot repeated workloads favor TAAT. The auto
# cutover therefore stays high; callers with cold/larger-than-memory
# shards pass algorithm="wand" explicitly (measured trade-off in
# BASELINE.md / CLAUDE.md).
WAND_POSTINGS_CUTOVER = 8_000_000


def _flatten_bool(q: BoolQuery) -> BoolQuery:
    """BooleanQuery.rewrite simplifications over an already-rewritten
    clause tree (search/BooleanQuery.java rewrite):

    - a SHOULD sub-query that is a pure disjunction (no required/negated/
      filter clauses, msm <= 1) is spliced into the parent's optional
      clauses, when the parent's msm <= 1 (flattening changes per-clause
      match counts, so msm >= 2 on either side blocks it);
    - a MUST sub-query with exactly one term clause collapses to a parent
      MUST term (single-clause BooleanQuery == its clause);
    - a MUST_NOT sub-query that is a pure TERM disjunction expands by
      De Morgan into parent MUST_NOT terms (negation never scores).

    Anything not inlinable stays a nested node for the clause-tree plan.
    Flattening happens BEFORE scoring, so the flattened form defines the
    float32 op order, exactly as the reference rewrites then scores."""
    from dataclasses import replace

    def _pure_disjunction(s: BoolQuery) -> bool:
        return not (
            s.must
            or s.must_not
            or s.term_sets
            or s.match_all
            or s.min_should_match > 1
            or s.sub_must
            or s.sub_must_not
        )

    def _n_optional(s: BoolQuery) -> int:
        return (
            len(s.should)
            + len(s.phrases)
            + len(s.sloppy)
            + len(s.multi_phrases)
            + len(s.synonyms)
            + len(s.boosts)
            + len(s.sub_should)
        )

    should = list(q.should)
    phrases = list(q.phrases)
    sloppy = list(q.sloppy)
    multi_phrases = list(q.multi_phrases)
    synonyms = list(q.synonyms)
    boosts = list(q.boosts)
    must = list(q.must)
    must_not = list(q.must_not)
    keep_should: list[BoolQuery] = []
    for sub in q.sub_should:
        if _pure_disjunction(sub) and (
            q.min_should_match <= 1 or _n_optional(sub) == 1
        ):
            should.extend(sub.should)
            phrases.extend(sub.phrases)
            sloppy.extend(sub.sloppy)
            multi_phrases.extend(sub.multi_phrases)
            synonyms.extend(sub.synonyms)
            boosts.extend(sub.boosts)
            keep_should.extend(sub.sub_should)
        else:
            keep_should.append(sub)
    keep_must: list[BoolQuery] = []
    for sub in q.sub_must:
        only_terms = tuple(sub.must) + tuple(sub.should)
        if (
            len(only_terms) == 1
            and _n_optional(sub) <= 1
            and not (
                sub.must_not
                or sub.term_sets
                or sub.match_all
                or sub.phrases
                or sub.sloppy
                or sub.multi_phrases
                or sub.synonyms
                or sub.boosts
                or sub.sub_must
                or sub.sub_should
                or sub.sub_must_not
            )
        ):
            must.append(only_terms[0])
        else:
            keep_must.append(sub)
    keep_not: list[BoolQuery] = []
    for sub in q.sub_must_not:
        if _pure_disjunction(sub) and not (
            sub.phrases
            or sub.sloppy
            or sub.multi_phrases
            or sub.synonyms
            or sub.boosts
            or sub.sub_should
        ):
            must_not.extend(sub.should)
        else:
            keep_not.append(sub)
    seen: set[str] = set()
    should_d = [t for t in should if not (t in seen or seen.add(t))]
    seen = set()
    must_d = [t for t in must if not (t in seen or seen.add(t))]
    return replace(
        q,
        must=tuple(must_d),
        should=tuple(should_d),
        must_not=tuple(sorted(set(must_not))),
        phrases=tuple(phrases),
        sloppy=tuple(sloppy),
        multi_phrases=tuple(multi_phrases),
        synonyms=tuple(synonyms),
        boosts=tuple(boosts),
        sub_must=tuple(keep_must),
        sub_should=tuple(keep_should),
        sub_must_not=tuple(keep_not),
    )


def _clause_terms(q: BoolQuery) -> tuple[str, ...]:
    """Every term clause (must, should, must_not) of a clause tree, depth
    first — the terms whose weights one query execution needs."""
    out = tuple(q.must) + tuple(q.should) + tuple(q.must_not)
    for sub in q.sub_must + q.sub_should + q.sub_must_not:
        out += _clause_terms(sub)
    return out


class _OmitNormsReader:
    """Segment view with norms omitted: every norm byte reads as the
    SmallFloat encoding of length 1 (the reference's 'return 1L' default
    when getNormValues is null); everything else delegates."""

    def __init__(self, seg):
        self._seg = seg
        from .smallfloat import int_to_byte4_array

        self._b1 = np.uint8(int_to_byte4_array(np.array([1], dtype=np.int64))[0])

    def __getattr__(self, name):
        return getattr(self._seg, name)

    def norm_of(self, doc_ids: np.ndarray) -> np.ndarray:
        return np.full(len(np.asarray(doc_ids)), self._b1, dtype=np.uint8)


_EMPTY_SCORES = np.empty(0, dtype=np.float32)
_EMPTY_SCORES.flags.writeable = False


class _TermWeight:
    """One term's TermStates + Weight: global (df, ttf), the scorer params
    (None when df == 0), the term's field and bare text and, when
    memoized, each segment's scored postings (docs, read-only float32
    scores) filled on first use. For an unboosted term these depend only
    on the index and the similarity, never on the query."""

    __slots__ = ("df", "ttf", "params", "field", "bare", "_hits")

    def __init__(self, df, ttf, params, field, bare, memo: bool):
        self.df, self.ttf, self.params = df, ttf, params
        self.field, self.bare = field, bare
        self._hits: dict | None = {} if memo else None

    def hits(self, gi: int, seg) -> tuple[np.ndarray, np.ndarray]:
        """(docs, float32 scores) on ``seg``, the field's segment at body
        index ``gi``; scores are empty when the segment lacks the term."""
        h = None if self._hits is None else self._hits.get(gi)
        if h is None:
            docs, freqs = seg.postings(self.bare)
            scores = (
                self.params.score(freqs, seg.norm_of(docs)) if len(docs) else _EMPTY_SCORES
            )
            h = (docs, scores)
            if self._hits is not None:
                scores.flags.writeable = False
                self._hits[gi] = h
        return h


class IndexSearcher:
    """Top-k search over an open index (the IndexSearcher role): global
    collection + term stats, per-segment scoring, one (score desc, docID
    asc) top-k.

    Two per-searcher LRUs serve repeated work; both rely on the index
    being immutable, so entries never invalidate, and callers must not
    mutate the arrays they return:

    - the filter-bitset cache (``_filter_bitset``, LRUQueryCache role):
      one bool[span] per (segment, TermInSetQuery filter clause);
    - the TermStates + Weight cache (``_weight``): per unboosted term and
      scorer factory, its (df, ttf), scorer params and, per segment, its
      scored postings (docs, read-only float32 scores), so a repeated term
      costs one dict hit instead of stats + params + norm gather + scoring.
      It holds at most ``PostingsReader._POSTINGS_CACHE_MAX`` terms and is
      bypassed while ``stats_override`` is set, for boosted params and for
      ``collector`` calls. Each query keeps its own accumulation order, so
      results are bit-identical with or without it."""

    def __init__(
        self,
        manifest: dict,
        algorithm: str = "auto",
        similarity: str = "bm25",
        omit_norms: bool = False,
    ):
        def _open(m: dict) -> list:
            if m.get("kind") == "merge-by-term":
                from .merge import MergedIndex

                return [MergedIndex(None, manifest=m)]
            return [
                Segment(r["seg_dir"])
                for r in sorted(m["partitions"], key=lambda r: r["doc_base"])
            ]

        self.segments: list = _open(manifest)
        self.doc_count = int(manifest["doc_count"])
        self.sum_ttf = int(manifest["sum_ttf"])
        # extra indexed fields (title, ...): parallel per-field segment
        # lists ALIGNED with the body list by doc range (same partition
        # boundaries by construction), each with its own norms + sum_ttf —
        # the FieldInfos / per-field FieldInvertState semantics
        self.fields: dict[str, tuple[list, int, int]] = {
            "body": (self.segments, self.doc_count, self.sum_ttf)
        }
        for fld, fm in (manifest.get("fields") or {}).items():
            self.fields[fld] = (_open(fm), int(fm["doc_count"]), int(fm["sum_ttf"]))
        if omit_norms:
            # FieldType.omitNorms view (LeafSimScorer.java:47-54: absent
            # norms read as the long 1 — every doc scores as length 1).
            # Norm-dependent impact frontiers are stale under this view,
            # so the exhaustive plan is forced.
            self.segments = [_OmitNormsReader(s) for s in self.segments]
            self.fields = {
                fld: ([_OmitNormsReader(s) for s in segs], dc, st)
                for fld, (segs, dc, st) in self.fields.items()
            }
            algorithm = "taat"
        self.algorithm = algorithm
        self.stats_override: dict | None = None
        from .bm25 import SIMILARITIES

        # Similarity plug point; a dict maps field -> similarity name
        # (PerFieldSimilarityWrapper.java:46-48 get(field) dispatch,
        # "" = the wrapper's default for unlisted fields)
        if isinstance(similarity, dict):
            self._sim_map: dict | None = {
                f: SIMILARITIES[n] for f, n in similarity.items() if f
            }
            self.make_scorer = SIMILARITIES[similarity.get("", "bm25")]
        else:
            self._sim_map = None
            self.make_scorer = SIMILARITIES[similarity]
        # liveDocs (IndexWriter.deleteDocuments + LeafReader.getLiveDocs):
        # a sorted global doc_id array of deletions, masked out of every
        # hit stream BEFORE top-k selection. Stats (df/ttf/norms) keep
        # counting deleted docs until a rewrite — exactly Lucene's
        # pre-merge semantics.
        # LRUQueryCache role (search/LRUQueryCache.java:61): per-searcher
        # (= per process and manifest) LRU of filter-clause bitsets keyed by
        # (segment index, clause terms). Segments are immutable, so
        # entries never invalidate; deletions apply AFTER filtering
        # (liveDocs mask in _live), matching Lucene's cache-on-the-
        # reader-before-deletes semantics.
        self._filter_cache: OrderedDict = OrderedDict()
        self._weights: OrderedDict = OrderedDict()
        self._deleted: np.ndarray | None = None
        dpath = manifest.get("deletes")
        if dpath:
            import pyarrow.parquet as _pq

            self._deleted = np.sort(
                _pq.read_table(dpath, columns=["doc_id"])
                .column("doc_id")
                .to_numpy()
                .astype(np.int64)
            )

    def _live(
        self, docs: np.ndarray, scores: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Drop deleted docs from a (docs, scores) hit stream (liveDocs
        mask). No-op when the index has no deletions."""
        if self._deleted is None or len(docs) == 0:
            return docs, scores
        pos = np.clip(
            np.searchsorted(self._deleted, docs), 0, len(self._deleted) - 1
        )
        dead = self._deleted[pos] == docs
        return docs[~dead], scores[~dead]

    def _live_topk(
        self, all_docs: list[np.ndarray], all_scores: list[np.ndarray], k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k of per-segment (docs, scores) hit lists, deleted docs
        dropped."""
        if not all_docs:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        return topk_sort(*self._live(np.concatenate(all_docs), np.concatenate(all_scores)), k)

    def _check_deadline(
        self, deadline: float | None, all_docs: list, all_scores: list, k: int
    ) -> None:
        """TimeLimitingCollector.collect's timer check, at the segment
        (leaf) granularity of the exhaustive plans: past ``deadline``
        raise TimeLimitExceeded carrying the partial top-k collected in
        time."""
        if deadline is not None and time.perf_counter() > deadline:
            raise TimeLimitExceeded(*self._live_topk(all_docs, all_scores, k))

    def _split_field(self, term: str) -> tuple[str, str]:
        """Route a possibly field-qualified term ('title:foo' from the
        query parser) to (field, bare_term); default field is body."""
        if ":" in term:
            fld, bare = term.split(":", 1)
            if fld in self.fields:
                return fld, bare
        return "body", term

    def _field_seg(self, field: str, gi: int):
        """The field's segment covering the same doc range as body segment
        index ``gi`` (parallel lists are aligned by construction)."""
        return self.fields[field][0][gi]

    def _phrase_ctx(self, gi: int, seg, phrase: tuple[str, ...]):
        """Route a possibly field-qualified phrase (the parser qualifies
        EVERY term of a `title:"a b"` phrase with the field prefix): the
        field's aligned segment, bare terms, and the field's collection
        stats (per-field avgdl — BM25Similarity.java:80-82)."""
        fld, _ = self._split_field(phrase[0])
        bare = tuple(self._split_field(t)[1] for t in phrase)
        fseg = seg if fld == "body" else self._field_seg(fld, gi)
        _segs, f_dc, f_st = self.fields[fld]
        return fseg, bare, f_dc, f_st

    def _multi_phrase_ctx(
        self, gi: int, seg, slots: tuple[tuple[str, ...], ...]
    ):
        """Field routing for a MultiPhraseQuery slot list (all alternatives
        of all slots are qualified with one field by the parser): the
        field's aligned segment, bare slot alternatives, field stats."""
        fld, _ = self._split_field(slots[0][0])
        bare = tuple(
            tuple(self._split_field(t)[1] for t in alts) for alts in slots
        )
        fseg = seg if fld == "body" else self._field_seg(fld, gi)
        _segs, f_dc, f_st = self.fields[fld]
        return fseg, bare, f_dc, f_st

    @classmethod
    def from_segments(
        cls,
        segments: list,
        doc_count: int,
        sum_ttf: int,
        algorithm: str = "auto",
        fields: dict | None = None,
    ):
        obj = cls.__new__(cls)
        obj.segments = segments
        obj.doc_count = doc_count
        obj.sum_ttf = sum_ttf
        obj.algorithm = algorithm
        obj.stats_override = None
        obj.fields = {"body": (segments, doc_count, sum_ttf)}
        if fields:
            obj.fields.update(fields)
        from .bm25 import SIMILARITIES

        obj.make_scorer = SIMILARITIES["bm25"]
        obj._sim_map = None
        obj._deleted = None  # no liveDocs unless the caller sets them
        obj._filter_cache = OrderedDict()
        obj._weights = OrderedDict()
        return obj

    _FILTER_CACHE_MAX = 32  # entries; each is one bool byte/doc of one segment

    def _filter_bitset(self, gi: int, seg, ts: tuple[str, ...]) -> np.ndarray:
        """Bool[span] for one TermInSetQuery FILTER clause on one segment,
        LRU-cached per searcher (LRUQueryCache.java:61 role): the second
        evaluation of a repeated filter set is a dict lookup, not a
        postings re-read. Callers must not mutate the returned array."""
        key = (gi, ts)
        cached = self._filter_cache.get(key)
        if cached is not None:
            self._filter_cache.move_to_end(key)
            return cached
        lo = seg.doc_base
        hit_any = np.zeros(seg.norm_span, dtype=bool)
        for t in ts:
            fld_s, bare_s = self._split_field(t)
            sseg = seg if fld_s == "body" else self._field_seg(fld_s, gi)
            docs, _ = sseg.postings(bare_s)
            if len(docs):
                hit_any[docs - lo] = True
        self._filter_cache[key] = hit_any
        if len(self._filter_cache) > self._FILTER_CACHE_MAX:
            self._filter_cache.popitem(last=False)
        return hit_any

    # -- stats pass (createWeight analogue) --------------------------------

    def expand_prefix(self, prefix: str, max_terms: int = 1024) -> list[str]:
        """Terms starting with ``prefix``, merged over segments, sorted.
        Collect from ALL segments before truncating so the cap keeps the
        lexicographically-first terms deterministically (each segment's own
        expansion is sorted, so its first max_terms are its smallest)."""
        out: set[str] = set()
        for seg in self.segments:
            out.update(seg.expand_prefix(prefix, max_terms))
        return sorted(out)[:max_terms]

    def global_term_stats(self, term: str) -> tuple[int, int]:
        """Whole-index (df, ttf) for a (possibly field-qualified) term —
        the TermStates.build stats pass. ``stats_override`` lets a
        shard-subset searcher score with true global stats injected by the
        fan-out (sharded search)."""
        ov = self.stats_override
        if ov is not None and term in ov:
            return ov[term]
        fld, bare = self._split_field(term)
        df = ttf = 0
        for seg in self.fields[fld][0]:
            d, t = seg.term_stats(bare)
            df += d
            ttf += t
        return df, ttf

    def _weight(self, t: str, boost: float | None = None, memo: bool = True) -> _TermWeight:
        """The TermStates + Weight of a (possibly field-qualified) term.
        Unboosted weights come from the per-searcher LRU, keyed by the term
        and the scorer factory of its field (``make_scorer`` may be
        reassigned between requests); a boost, ``stats_override`` or
        ``memo=False`` builds a fresh, unmemoized weight."""
        fld, bare = self._split_field(t)
        # per-field similarity (PerFieldSimilarityWrapper dispatch)
        mk = (
            self._sim_map.get(fld, self.make_scorer)
            if self._sim_map is not None
            else self.make_scorer
        )
        memo = memo and boost is None and self.stats_override is None
        if memo:
            key = (t, mk)
            w = self._weights.get(key)
            if w is not None:
                self._weights.move_to_end(key)
                return w
        df, ttf = self.global_term_stats(t)
        # per-field collection stats: avgdl comes from THIS field's
        # sumTotalTermFreq (BM25Similarity.java:80-82 per-field);
        # ttf feeds LM-family collection probabilities (LMSimilarity)
        _segs, f_doc_count, f_sum_ttf = self.fields[fld]
        b = np.float32(1.0 if boost is None else boost)  # BoostQuery wrap
        params = mk(df, f_doc_count, f_sum_ttf, ttf=ttf, boost=b) if df > 0 else None
        w = _TermWeight(df, ttf, params, fld, bare, memo)
        if memo:
            self._weights[key] = w
            if len(self._weights) > PostingsReader._POSTINGS_CACHE_MAX:
                self._weights.popitem(last=False)
        return w

    def _weights_for(
        self,
        terms: tuple[str, ...],
        boosts: dict[str, float] | None = None,
        memo: bool = True,
    ) -> dict[str, _TermWeight]:
        boosts = boosts or {}
        return {t: self._weight(t, boosts.get(t), memo) for t in terms}

    def _params_for(
        self, terms: tuple[str, ...], boosts: dict[str, float] | None = None
    ) -> dict[str, TermScorerParams | None]:
        return {t: w.params for t, w in self._weights_for(terms, boosts).items()}

    def _scored(self, w: _TermWeight, gi: int, seg) -> tuple[np.ndarray, np.ndarray]:
        """(docs, float32 scores) of a weight's term on body segment ``gi``,
        routed to the term's field segment."""
        return w.hits(gi, seg if w.field == "body" else self._field_seg(w.field, gi))

    # -- query entry -------------------------------------------------------

    def search_dismax(
        self,
        query: str | BoolQuery,
        k: int = 10,
        tie_breaker: float = 0.0,
        boosts: dict[str, float] | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """DisjunctionMaxQuery over the SHOULD terms: per doc
        score = max(clause scores) + tie_breaker * (sum - max)
        (search/DisjunctionMaxQuery.java semantics, float32 result).
        ``boosts`` maps a clause term to its BoostQuery factor — the
        Solr edismax qf shape (user term expanded per field with
        per-field weights, combined under dismax)."""
        q = parse_query(query) if isinstance(query, str) else query
        weights = self._weights_for(q.should, boosts=boosts)
        live = [t for t in q.should if weights[t].params is not None]
        if not live or k <= 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        tie = np.float32(tie_breaker)
        all_docs, all_scores = [], []
        for gi, seg in enumerate(self.segments):
            span = seg.norm_span
            lo = seg.doc_base
            mx = np.zeros(span, dtype=np.float32)
            sm = np.zeros(span, dtype=np.float64)
            matched = np.zeros(span, dtype=bool)
            for t in live:
                docs, s = self._scored(weights[t], gi, seg)
                if not len(docs):
                    continue
                loc = docs - lo
                np.maximum.at(mx, loc, s)
                sm[loc] += s.astype(np.float64)
                matched[loc] = True
            sel = np.flatnonzero(matched)
            if len(sel):
                total = np.float32(0.0) + mx[sel] + np.multiply(
                    tie, (sm[sel] - mx[sel].astype(np.float64)).astype(np.float32),
                    dtype=np.float32,
                )
                all_docs.append(sel + lo)
                all_scores.append(total.astype(np.float32))
        return self._live_topk(all_docs, all_scores, k)

    def search(
        self,
        query: str | BoolQuery,
        k: int = 10,
        threshold: int = TOTAL_HITS_THRESHOLD,
        algorithm: str | None = None,
        time_limit_ms: float | None = None,
        collector=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Top-k (global docIDs, float32 scores), (score desc, docID asc).

        ``time_limit_ms`` is the TimeLimitingCollector role
        (search/TimeLimitingCollector.java): the deadline is checked at
        segment granularity on the exhaustive plan; crossing it raises
        TimeLimitExceeded carrying the partial top-k of the segments
        finished in time.

        ``collector`` is the Collector extension point
        (search/Collector.java getLeafCollector/collect), vectorized:
        ``collector(docs, scores)`` is invoked once per segment with that
        segment's matched global docIDs + f32 scores, BEFORE top-k
        selection — custom aggregation (counting, histogram, side
        accumulation) observes every hit, not just the winners."""
        q = parse_query(query) if isinstance(query, str) else query
        if q.empty or k <= 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        deadline = (
            None
            if time_limit_ms is None
            else time.perf_counter() + time_limit_ms / 1000.0
        )
        return self.execute(
            self.rewrite(q), k, threshold, algorithm, deadline, collector
        )

    def explain(self, query: str | "BoolQuery", doc_id: int) -> dict:
        """Explanation tree for one document
        (search/IndexSearcher.java:714-730 explain; shape mirrors
        BM25Similarity.explainScore / BooleanWeight.explain): per
        matching clause the raw freq, SmallFloat-decoded docLen, weight
        and float32 clause score; ``value`` is the f64 clause-sum cast
        f32 — bit-identical to what search() scores this doc (the CheckHits
        explain-vs-score invariant, CheckHits.java:725). Explains the
        phrase clauses (exact and sloppy, optional as in ``_eval_node``)
        and the must/should/must_not term clauses, in the evaluator's
        order; a matching MUST_NOT or a missing MUST clause yields
        match=False, value 0."""
        from .smallfloat import LENGTH_TABLE

        q = self.rewrite(parse_query(query) if isinstance(query, str) else query)
        doc = int(doc_id)
        gi = next(
            (i for i, seg in enumerate(self.segments) if seg.doc_base <= doc < seg.max_doc), None
        )

        def _doc_freq(t: str) -> tuple[int, int]:
            """(freq, norm_byte) of ``doc`` for term t."""
            if gi is None:
                return 0, 0
            fld, bare = self._split_field(t)
            fseg = self.segments[gi] if fld == "body" else self._field_seg(fld, gi)
            docs, freqs = fseg.postings(bare)
            i = np.searchsorted(docs, doc)
            if i < len(docs) and docs[i] == doc:
                return int(freqs[i]), int(fseg.norm_of(np.array([doc]))[0])
            return 0, 0

        params = self._params_for(tuple(q.must) + tuple(q.should) + tuple(q.must_not))
        for t in q.must_not:
            if params[t] is not None and _doc_freq(t)[0] > 0:
                return {
                    "match": False,
                    "value": np.float32(0.0),
                    "description": f"failure to meet condition: prohibited clause {t} matched",
                    "details": [],
                }
        details: list[dict] = []
        acc = 0.0
        phrases = tuple((p, 0) for p in q.phrases) + tuple(q.sloppy)
        for phrase, slop in phrases if gi is not None else ():
            pseg, bare_p, p_dc, p_st = self._phrase_ctx(gi, self.segments[gi], phrase)
            docs_p, freqs_p = _phrase_postings(pseg, bare_p, slop)
            i = int(np.searchsorted(docs_p, doc))
            if i >= len(docs_p) or docs_p[i] != doc:
                continue
            p = make_phrase_scorer([self.global_term_stats(t)[0] for t in phrase], p_dc, p_st)
            nb = int(pseg.norm_of(np.array([doc]))[0])
            s = p.score(freqs_p[i : i + 1], np.array([nb], dtype=np.uint8))[0]
            details.append(
                {
                    "match": True,
                    "value": np.float32(s),
                    "description": f'weight("{" ".join(phrase)}"~{slop} in {doc})',
                    "term": " ".join(phrase),
                    "freq": freqs_p[i].item(),
                    "doc_len": int(LENGTH_TABLE[nb]),
                    "weight": np.float32(p.weight),
                }
            )
            acc += float(np.float32(s))
        must_missing = False
        for t in tuple(q.must) + tuple(q.should):
            p = params[t]
            freq = 0
            if p is not None:
                freq, nb = _doc_freq(t)
            if freq == 0:
                if t in q.must:
                    must_missing = True
                continue
            s = p.score(np.array([freq], dtype=np.int64), np.array([nb], dtype=np.uint8))[0]
            details.append(
                {
                    "match": True,
                    "value": np.float32(s),
                    "description": f"weight({t} in {doc})",
                    "term": t,
                    "freq": freq,
                    "doc_len": int(LENGTH_TABLE[nb]),
                    "weight": np.float32(p.weight),
                }
            )
            acc += float(np.float32(s))
        deleted = False
        if self._deleted is not None:
            j = int(np.searchsorted(self._deleted, doc))
            deleted = j < len(self._deleted) and int(self._deleted[j]) == doc
        if must_missing or deleted:
            return {
                "match": False,
                "value": np.float32(0.0),
                "description": "failure to match required clause",
                "details": details,
            }
        return {
            "match": bool(details),
            "value": np.float32(acc),
            "description": "sum of:",
            "details": details,
        }

    def count(self, query: str | "BoolQuery") -> int:
        """IndexSearcher.count (search/IndexSearcher.java count(Query) →
        Weight#count): exact match count without scoring. The TermQuery
        fast path returns the dictionary's docFreq directly when no
        deletions exist (TermWeight.count — zero postings reads, and
        with the Bloom sidecar a miss costs zero file reads too);
        everything else runs the exhaustive match plan and counts."""
        q = self.rewrite(parse_query(query) if isinstance(query, str) else query)
        if q.empty:
            return 0
        single_term = q.terms_only and len(q.should) == 1 and not (q.must or q.must_not)
        if single_term and self._deleted is None:
            df, _ttf = self.global_term_stats(q.should[0])
            return int(df)
        docs, _scores = self.execute(q, k=max(1, self.doc_count))
        return int(len(docs))

    def search_after(
        self,
        query: str | BoolQuery,
        after: tuple[float, int] | None,
        k: int = 10,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Deep-paging top-k: the k best hits strictly AFTER the ``after``
        mark in collector order — IndexSearcher.searchAfter
        (search/IndexSearcher.java:416-433) with
        PagingTopScoreDocCollector's skip rule
        (search/TopScoreDocCollector.java:66-107: a hit competes only if
        score < after.score, or score == after.score and doc > after.doc).
        Solr's cursorMark deep paging is this mark round-tripped per page.

        ``after`` is (float32 score, global docID) — the LAST hit of the
        previous page; ``None`` behaves like ``search`` (first page).
        Chained pages reproduce one big top-k exactly: the ranking order
        (score desc, docID asc) is total, so page p+1 = ranks [p*k, p*k+k).

        Like ``collector=``, paging runs the exhaustive plan (the pruned
        WAND plan cannot see below its own top-k floor; the reference's
        paging collector likewise starts with an empty heap and cannot
        raise minCompetitiveScore from the mark, as any score <= after's
        may still compete)."""
        if after is None:
            return self.search(query, k)
        q = parse_query(query) if isinstance(query, str) else query
        if q.empty or k <= 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        return self.execute_after(self.rewrite(q), after, k)

    def execute_after(
        self, q: BoolQuery, after: tuple[float, int], k: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """searchAfter on an already-rewritten query (the shard-task side
        of cursor-mark paging: the fan-out ships a rewritten plan, every
        shard pages locally with the same global mark, the reduce is the
        normal TopDocs merge)."""
        after_s = np.float32(after[0])
        after_d = int(after[1])
        parts_d: list[np.ndarray] = []
        parts_s: list[np.ndarray] = []

        def _page(docs: np.ndarray, scores: np.ndarray) -> None:
            # collector hits are pre-liveDocs: apply the deletions mask
            # here (PagingTopScoreDocCollector sits above liveDocs too)
            docs, scores = self._live(docs, scores)
            m = (scores < after_s) | ((scores == after_s) & (docs > after_d))
            if m.any():
                d, s = topk_sort(docs[m], scores[m], k)
                parts_d.append(d)
                parts_s.append(s)

        self.execute(q, 1, collector=_page)
        if not parts_d:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        return topk_sort(np.concatenate(parts_d), np.concatenate(parts_s), k)

    def rescore(
        self,
        first_docs: np.ndarray,
        first_scores: np.ndarray,
        rerank_query: str | BoolQuery,
        weight: float = 1.0,
        top_n: int = 10,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Two-pass re-ranking — QueryRescorer.rescore
        (search/QueryRescorer.java:51-131) with the Solr ReRank combine
        (solr/.../search/ReRankQParserPlugin.java:86-92): for each
        first-pass hit, combined = (float)((double)first +
        weight * (double)second) when the rerank query matches the hit,
        the first-pass float unchanged otherwise; the WINDOW (the
        first-pass hits only) re-sorts by (score desc, docID asc) and the
        best ``top_n`` return.

        Second-pass scores come from the exhaustive plan's collector hook
        masked to the window — the reference likewise advances the rerank
        scorer through its full postings across the window docs; only the
        accumulation is window-restricted."""
        window = np.asarray(first_docs, dtype=np.int64)
        if len(window) == 0 or top_n <= 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        order = np.argsort(window)
        sorted_w = window[order]
        second = np.zeros(len(window), dtype=np.float32)
        m = np.zeros(len(window), dtype=bool)

        def _capture(docs: np.ndarray, scores: np.ndarray) -> None:
            # window docs came from a first-pass search, so they are live;
            # intersect the rerank query's hit stream with the window
            pos = np.clip(np.searchsorted(sorted_w, docs), 0, len(sorted_w) - 1)
            hit = sorted_w[pos] == docs
            if hit.any():
                idx = order[pos[hit]]
                second[idx] = scores[hit]
                m[idx] = True  # secondPassMatches flag

        self.search(rerank_query, k=1, collector=_capture)
        comb = np.asarray(first_scores, dtype=np.float32).copy()
        comb[m] = (
            comb[m].astype(np.float64)
            + float(weight) * second[m].astype(np.float64)
        ).astype(np.float32)
        return topk_sort(window, comb, top_n)

    def rewrite(self, q: BoolQuery) -> BoolQuery:
        """Multi-term scoring rewrites against this searcher's dictionary
        (fuzzy/range/wildcard/prefix → capped SHOULD disjunctions), applied
        recursively to nested sub-queries, then the BooleanQuery.rewrite
        simplifications (single-clause inlining, nested-disjunction
        flattening — search/BooleanQuery.java rewrite). The result is a
        clause tree whose every node is dictionary-free, executable by any
        searcher (incl. shard-subset searchers). Prefix, wildcard, range
        and regexp expansions sort the matches of every segment before the
        cap, so their clause order is a function of the dictionary alone,
        not of how the index is segmented (fuzzy expansion keeps its
        per-segment cap of 50)."""
        from dataclasses import replace

        if q.nested:
            q = replace(
                q,
                sub_must=tuple(self.rewrite(s) for s in q.sub_must),
                sub_should=tuple(self.rewrite(s) for s in q.sub_should),
                sub_must_not=tuple(self.rewrite(s) for s in q.sub_must_not),
            )
            q = _flatten_bool(q)
        def _route(pat: str):
            """(field, bare pattern, field's segments, requalifier) for a
            possibly field-qualified multi-term clause — the field grammar
            of the classic parser applies to every query type
            (classic/QueryParser.java field-scoped clause productions)."""
            fld, bare = self._split_field(pat)
            segs = self.fields[fld][0]
            if fld == "body":
                return bare, segs, lambda t: t
            return bare, segs, lambda t: f"{fld}:{t}"

        if q.multi_phrases:
            # ComplexPhraseQueryParser.rewrite role: expand each slot's
            # wildcard-pattern alternatives against the dictionary (capped
            # per slot like maxClauseCount); a slot with zero surviving
            # alternatives kills the whole phrase (MatchNoDocsQuery role).
            # All-singleton slot lists then degrade to a plain Phrase /
            # SloppyPhrase (MultiPhraseQuery.java rewrite: one term per
            # position == PhraseQuery).
            import fnmatch as _fn

            new_mp: list[tuple[tuple[tuple[str, ...], ...], int]] = []
            extra_ph = list(q.phrases)
            extra_sl = list(q.sloppy)
            for slots, slop in q.multi_phrases:
                out_slots: list[tuple[str, ...]] = []
                dead = False
                for alts in slots:
                    concrete: list[str] = []
                    for alt in alts:
                        if "*" not in alt and "?" not in alt:
                            concrete.append(alt)
                            continue
                        bare_a, segs_a, qual = _route(alt)
                        fixed = bare_a.split("*", 1)[0].split("?", 1)[0]
                        for seg in segs_a:
                            for t in seg.expand_prefix(fixed, 65536):
                                if _fn.fnmatchcase(t, bare_a):
                                    qt = qual(t)
                                    if qt not in concrete:
                                        concrete.append(qt)
                                    if len(concrete) >= 128:
                                        break
                            if len(concrete) >= 128:
                                break
                    if not concrete:
                        dead = True
                        break
                    out_slots.append(tuple(concrete))
                if dead:
                    continue
                if all(len(a) == 1 for a in out_slots):
                    flat = tuple(a[0] for a in out_slots)
                    (extra_sl if slop > 0 else extra_ph).append(
                        (flat, slop) if slop > 0 else flat
                    )
                else:
                    new_mp.append((tuple(out_slots), slop))
            q = replace(
                q,
                multi_phrases=tuple(new_mp),
                phrases=tuple(extra_ph),
                sloppy=tuple(extra_sl),
            )

        if q.fuzzies:
            # FuzzyQuery scoring rewrite: scan dictionary terms within edit
            # distance (banded Levenshtein; the Lucene automaton intersect
            # role at dictionary granularity), cap like maxClauseCount
            extra_f = list(q.should)
            seen_f = set(extra_f)
            for base, max_ed in q.fuzzies:
                bare_b, segs_b, qual = _route(base)
                for seg in segs_b:
                    for t in _fuzzy_expand(seg, bare_b, max_ed, 50):
                        t = qual(t)
                        if t not in seen_f:
                            seen_f.add(t)
                            extra_f.append(t)
            q = replace(q, should=tuple(extra_f), fuzzies=())
        if q.regexps:
            # RegexpQuery rewrite (search/RegexpQuery.java): scan the
            # dictionary for full-match terms, pruned by the pattern's
            # literal prefix (the BlockTree automaton-intersect role at
            # dictionary granularity), capped like maxClauseCount
            import re as _re

            extra_r = list(q.should)
            seen_r = set(extra_r)
            for pat in q.regexps:
                bare_p, segs_p, qual = _route(pat)
                try:
                    rx = _re.compile(bare_p)
                except _re.error:
                    continue
                prefixes = _regexp_literal_prefixes(bare_p)
                hits: set[str] = set()
                for seg in segs_p:
                    if prefixes:
                        # char-class-aware prefix seek: the union of the
                        # mandatory literal prefixes' dictionary ranges,
                        # re-sorted so candidate order stays lexicographic
                        cand = sorted(
                            {
                                t
                                for p_ in prefixes
                                for t in seg.expand_prefix(p_, 65536)
                            }
                        )
                    else:
                        cand = seg.iter_terms()
                    hits.update(_first_matches(cand, rx.fullmatch, 1024 + len(seen_r)))
                _add_capped(extra_r, seen_r, map(qual, sorted(hits)))
            q = replace(q, should=tuple(extra_r), regexps=())
        if q.ranges or q.wildcards:
            # MultiTermQuery scoring rewrite: expand against the dictionary
            import fnmatch

            extra = list(q.should)
            seen = set(extra)
            for lo_t, hi_t in q.ranges:
                bare_lo, segs_r, qual = _route(lo_t)
                bare_hi = self._split_field(hi_t)[1]
                hits = set()
                for seg in segs_r:
                    hits.update(seg.expand_range(bare_lo, bare_hi, 1024))
                for t in map(qual, sorted(hits)[:1024]):
                    if t not in seen:
                        seen.add(t)
                        extra.append(t)
            for pat in q.wildcards:
                # scan from the fixed prefix of the pattern (BlockTree
                # intersect role); bounded like maxClauseCount. A LEADING
                # wildcard (*foo) has no prefix to seek — route it through
                # the reversed dictionary instead (Solr ReversedWildcard-
                # FilterFactory role: seek reverse(suffix) as a prefix),
                # falling back to the full scan only when the pattern has
                # neither a literal prefix nor a literal suffix (*a*).
                import re as _rsplit

                bare_w, segs_w, qual = _route(pat)
                fixed = bare_w.split("*", 1)[0].split("?", 1)[0]
                tail = _rsplit.split(r"[*?]", bare_w)[-1]
                hits = set()
                for seg in segs_w:
                    if fixed:
                        cand = seg.expand_prefix(fixed, 65536)
                    elif tail:
                        cand = seg.expand_suffix(tail, 65536)
                    else:
                        cand = seg.expand_prefix("", 65536)
                    hits.update(
                        _first_matches(cand, lambda t: fnmatch.fnmatchcase(t, bare_w), 1024 + len(seen))
                    )
                _add_capped(extra, seen, map(qual, sorted(hits)))
            q = replace(q, should=tuple(extra), ranges=(), wildcards=())
        if q.prefixes:
            # PrefixQuery scoring rewrite: expand against the sorted term
            # dictionary into SHOULD clauses, capped like BooleanQuery's
            # maxClauseCount (search/PrefixQuery.java + BooleanQuery.java)
            expanded = list(q.should)
            seen = set(expanded)
            for p in q.prefixes:
                bare_pf, segs_pf, qual = _route(p)
                hits: set[str] = set()
                for seg in segs_pf:
                    hits.update(seg.expand_prefix(bare_pf, 1024))
                for t in sorted(hits)[:1024]:
                    t = qual(t)
                    if t not in seen:
                        seen.add(t)
                        expanded.append(t)
            q = replace(q, should=tuple(expanded), prefixes=())
        return q

    def execute(
        self,
        q: BoolQuery,
        k: int = 10,
        threshold: int = TOTAL_HITS_THRESHOLD,
        algorithm: str | None = None,
        deadline: float | None = None,
        collector=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Run an already-rewritten BoolQuery — the Weight.scorer +
        collect phase. Plan choice mirrors Boolean2ScorerSupplier: a
        ``terms_only`` query may take the pruning plan; on the exhaustive
        plan one live optional term takes the postings fast path and every
        other clause tree, flat or nested, the dense clause evaluator.
        ``deadline`` (perf_counter seconds) is enforced at segment
        granularity (TimeLimitingCollector role). A ``collector`` forces
        the exhaustive plan (a pruning plan cannot feed a see-every-hit
        callback) and gets writable, unmemoized score arrays."""
        if q.empty or k <= 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        # must_not weights build the pruning plan's exclusion iterators and
        # serve the dense plan's exclusions from their memoized postings
        weights = self._weights_for(_clause_terms(q), memo=collector is None)
        if not q.terms_only:
            return self._search_nested(q, weights, k, deadline, collector)
        if any(weights[t].params is None for t in q.must):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        live_should = tuple(t for t in q.should if weights[t].params is not None)
        if not q.must and not live_should:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        algorithm = algorithm or self.algorithm
        if collector is not None or self._deleted is not None or (q.must_not and not q.must):
            # Exhaustive only. Deletions: the WAND collector's bottom-score
            # threshold must never be raised by a deleted doc, and the
            # liveDocs mask is applied before top-k on the exhaustive
            # funnel. A pure disjunction with must_not has no pruning
            # ReqExclScorer here.
            algorithm = "taat"
        elif algorithm == "auto":
            total_postings = sum(weights[t].df for t in tuple(q.must) + live_should)
            algorithm = "wand" if total_postings > WAND_POSTINGS_CUTOVER else "taat"
        if algorithm != "taat":
            return self._search_wand(q, live_should, weights, k, threshold, deadline)
        if not q.must and not q.must_not and len(live_should) == 1:
            return self._search_term(weights[live_should[0]], k, deadline, collector)
        return self._search_nested(q, weights, k, deadline, collector)

    # -- exhaustive plan ---------------------------------------------------

    def _search_term(
        self, w: _TermWeight, k: int, deadline: float | None, collector
    ) -> tuple[np.ndarray, np.ndarray]:
        """Single-term fast path (the dominant query shape): postings →
        score → top-k directly, no dense accumulator/scatter/gather."""
        all_docs: list[np.ndarray] = []
        all_scores: list[np.ndarray] = []
        for gi, seg in enumerate(self.segments):
            self._check_deadline(deadline, all_docs, all_scores, k)
            docs, sc_seg = self._scored(w, gi, seg)
            if len(docs):
                if collector is not None:
                    collector(docs, sc_seg)
                all_docs.append(docs)
                all_scores.append(sc_seg)
        return self._live_topk(all_docs, all_scores, k)

    def _search_nested(
        self,
        q: BoolQuery,
        weights: dict[str, _TermWeight],
        k: int,
        deadline: float | None,
        collector,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Clause-tree execution, flat or nested (after the flattening
        rewrite removed every inlinable group): evaluate the tree per
        segment into a dense match mask + float64 score accumulator
        (``_eval_node``), check the deadline before each segment and hand
        each segment's hits to ``collector``. ``weights`` holds every term
        clause of the tree (``_clause_terms``)."""
        all_docs: list[np.ndarray] = []
        all_scores: list[np.ndarray] = []
        for gi, seg in enumerate(self.segments):
            self._check_deadline(deadline, all_docs, all_scores, k)
            sel, acc = self._eval_node(q, weights, gi, seg)
            local = np.flatnonzero(sel)
            if len(local):
                seg_docs = local + seg.doc_base
                seg_scores = acc[local].astype(np.float32)
                if collector is not None:
                    collector(seg_docs, seg_scores)
                all_docs.append(seg_docs)
                all_scores.append(seg_scores)
        return self._live_topk(all_docs, all_scores, k)

    def _eval_node(
        self, q: BoolQuery, weights: dict[str, _TermWeight], gi, seg
    ) -> tuple[np.ndarray, np.ndarray]:
        """One BooleanQuery node on one segment → (matched bool[span],
        score float64[span]) — the one dense evaluator of boolean clauses
        (search/BooleanQuery.java clause semantics; Boolean2ScorerSupplier
        scorer composition). Clause scores add in a fixed order: match-all,
        boosts, synonyms, phrases, multi-phrases, must terms, live should
        terms, must sub-queries, should sub-queries; that order defines the
        float32 result. A sub-query is ONE clause of its parent: its node
        score is finished to float32 before being added to the parent
        accumulator (each Scorer.score() returns a float; the parent's
        double accumulator sums those floats — BooleanScorer semantics)."""
        lo = seg.doc_base
        span = seg.norm_span
        acc = np.zeros(span, dtype=np.float64)
        opt = np.zeros(span, dtype=bool)  # any optional clause matched
        must_ok: np.ndarray | None = None  # AND over required clauses
        should_cnt = np.zeros(span, dtype=np.int16) if q.min_should_match else None

        if any(weights[t].params is None for t in q.must):
            return np.zeros(span, dtype=bool), acc  # a required term is absent

        def _require(mask: np.ndarray) -> None:
            nonlocal must_ok
            must_ok = mask if must_ok is None else (must_ok & mask)

        def _optional(local: np.ndarray) -> None:
            opt[local] = True
            if should_cnt is not None:
                # minimumNumberShouldMatch (search/BooleanQuery.java:78,102):
                # synonym/phrase/boost groups count as optional clauses too
                should_cnt[local] += 1

        if q.match_all:
            # MatchAllDocsQuery: constant score 1.0f for every doc
            acc += 1.0
            opt[:] = True
        for t, bf in q.boosts:
            df, _ = self.global_term_stats(t)
            if df == 0:
                continue
            fld_b, bare_b = self._split_field(t)
            _fsegs, f_dc, f_st = self.fields[fld_b]
            params_b = make_term_scorer(df, f_dc, f_st, boost=np.float32(bf))
            bseg = seg if fld_b == "body" else self._field_seg(fld_b, gi)
            docs, freqs = bseg.postings(bare_b)
            if len(docs):
                local = docs - lo
                acc[local] += params_b.score(freqs, bseg.norm_of(docs)).astype(
                    np.float64
                )
                _optional(local)
        for group in q.synonyms:
            # SynonymQuery semantics: df = max over terms, freq = sum of
            # term freqs per doc (SynonymQuery.java blended stats)
            dfs = [self.global_term_stats(t)[0] for t in group]
            if max(dfs, default=0) == 0:
                continue
            params_s = make_term_scorer(max(dfs), self.doc_count, self.sum_ttf)
            freq_sum = np.zeros(span, dtype=np.int64)
            any_hit = np.zeros(span, dtype=bool)
            for t in group:
                docs, freqs = seg.postings(t)
                if len(docs):
                    freq_sum[docs - lo] += freqs
                    any_hit[docs - lo] = True
            hit_local = np.flatnonzero(any_hit)
            if len(hit_local):
                acc[hit_local] += params_s.score(
                    freq_sum[hit_local], seg.norm_of(hit_local + lo)
                ).astype(np.float64)
                _optional(hit_local)
        for phrase_t, slop in tuple((p, 0) for p in q.phrases) + tuple(q.sloppy):
            pseg, bare_p, p_dc, p_st = self._phrase_ctx(gi, seg, phrase_t)
            docs_p, freqs_p = _phrase_postings(pseg, bare_p, slop)
            if len(docs_p) == 0:
                continue
            params_p = make_phrase_scorer(
                [self.global_term_stats(t)[0] for t in phrase_t], p_dc, p_st
            )
            local = docs_p - lo
            acc[local] += params_p.score(freqs_p, pseg.norm_of(docs_p)).astype(
                np.float64
            )
            _optional(local)
        for slots, slop in q.multi_phrases:
            # MultiPhraseQuery: per-slot union postings feed the same
            # matcher; idf sums over ALL slot terms (the termStates[] array
            # MultiPhraseQuery.java hands to the similarity), skipping
            # df=0 alternatives as the reference skips zero-docFreq
            # termStates
            mseg, bare_s, m_dc, m_st = self._multi_phrase_ctx(gi, seg, slots)
            docs_m, freqs_m = _multi_phrase_postings(mseg, bare_s, slop)
            if len(docs_m) == 0:
                continue
            params_m = make_phrase_scorer(
                [
                    df
                    for alts in slots
                    for df in (self.global_term_stats(t)[0] for t in alts)
                    if df > 0
                ],
                m_dc,
                m_st,
            )
            local = docs_m - lo
            acc[local] += params_m.score(freqs_m, mseg.norm_of(docs_m)).astype(
                np.float64
            )
            _optional(local)
        # must then should by POSITION: a term in both (e.g. "+foo foo")
        # scores twice, once per clause, as in the WAND plan
        for t in q.must:
            docs, s = self._scored(weights[t], gi, seg)
            if not len(docs):
                return np.zeros(span, dtype=bool), acc  # absent in this segment
            m = np.zeros(span, dtype=bool)
            local = docs - lo
            acc[local] += s.astype(np.float64)
            m[local] = True
            _require(m)
        live_should = tuple(t for t in q.should if weights[t].params is not None)
        for t in live_should:
            docs, s = self._scored(weights[t], gi, seg)
            if len(docs):
                local = docs - lo
                acc[local] += s.astype(np.float64)
                _optional(local)
        for sub in q.sub_must:
            s_sel, s_acc = self._eval_node(sub, weights, gi, seg)
            acc[s_sel] += s_acc[s_sel].astype(np.float32).astype(np.float64)
            _require(s_sel)
        for sub in q.sub_should:
            s_sel, s_acc = self._eval_node(sub, weights, gi, seg)
            acc[s_sel] += s_acc[s_sel].astype(np.float32).astype(np.float64)
            _optional(np.flatnonzero(s_sel))
        if must_ok is not None:
            sel = must_ok
        elif q.term_sets and not (
            live_should
            or q.match_all
            or q.phrases
            or q.sloppy
            or q.multi_phrases
            or q.synonyms
            or q.boosts
            or q.sub_should
        ):
            # filter-only query: every doc is a candidate at score 0
            # (ConstantScore filter context, TermInSetQuery.java)
            sel = np.ones(span, dtype=bool)
        else:
            sel = opt
        for ts in q.term_sets:
            # TermInSetQuery FILTER: require >= 1 term of the set, no
            # score; bitset served from the per-searcher LRU on repeats
            sel = sel & self._filter_bitset(gi, seg, ts)
        if should_cnt is not None:
            sel = sel & (should_cnt >= q.min_should_match)
        for t in q.must_not:
            if weights[t].params is not None:  # df 0: nothing to exclude
                sel[self._scored(weights[t], gi, seg)[0] - lo] = False
        for sub in q.sub_must_not:
            s_sel, _ = self._eval_node(sub, weights, gi, seg)
            sel = sel & ~s_sel
        return sel, acc

    # -- block-max WAND plan -----------------------------------------------

    def _search_wand(
        self,
        q: BoolQuery,
        live_should: tuple[str, ...],
        weights: dict[str, _TermWeight],
        k: int,
        threshold: int,
        deadline: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        collector = TopKCollector(k, threshold)
        for gi, seg in enumerate(self.segments):  # docID order => shared bottom stays sound
            if deadline is not None and time.perf_counter() > deadline:
                # TimeLimitingCollector role on the pruning plan: partial
                # top-k of the segments finished in time
                raise TimeLimitExceeded(*collector.results())
            def iters(terms: tuple[str, ...]) -> list[TermIterator]:
                out = []
                for t in terms:
                    w = weights[t]
                    fseg = seg if w.field == "body" else self._field_seg(w.field, gi)
                    ti = fseg.term_info(w.bare)
                    if ti is not None:
                        out.append(TermIterator(fseg, ti, w.params))
                return out

            must_iters = iters(q.must)
            if len(must_iters) < len(q.must):
                continue  # a required term has no postings in this segment
            if q.must:
                conjunction_topk(
                    must_iters,
                    iters(live_should),
                    k,
                    threshold,
                    excludes=iters(q.must_not),
                    collector=collector,
                )
            else:
                wand_or_topk(iters(live_should), k, threshold, collector=collector)
        return collector.results()


def _edit_distance_le(a: str, b: str, k: int) -> bool:
    """Levenshtein distance(a, b) <= k (k in 0..2), early-aborting when a
    full DP row exceeds k."""
    if abs(len(a) - len(b)) > k:
        return False
    if k == 0:
        return a == b
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i]
        row_min = i
        for j, cb in enumerate(b, 1):
            v = min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb))
            cur.append(v)
            row_min = min(row_min, v)
        if row_min > k:
            return False
        prev = cur
    return prev[len(b)] <= k


class TimeLimitExceeded(Exception):
    """TimeLimitingCollector.TimeExceededException role
    (search/TimeLimitingCollector.java): raised when a query's deadline
    passes mid-collect. Carries the PARTIAL top-k from the segments that
    finished in time (docs, scores), like the reference's
    partialResults=true mode."""

    def __init__(self, docs: np.ndarray, scores: np.ndarray):
        super().__init__("query time limit exceeded")
        self.docs = docs
        self.scores = scores


def _first_matches(cand, match, cap: int) -> list[str]:
    """The first ``cap`` terms of the sorted ``cand`` that ``match``
    accepts: enough of one segment's matches for a rewrite that sorts the
    matches of every segment before it caps them."""
    return list(islice(filter(match, cand), cap))


def _add_capped(clauses: list[str], seen: set[str], terms) -> None:
    """Append each of ``terms`` not in ``seen`` to ``clauses``, stopping
    at 1024 clauses (the maxClauseCount role)."""
    for t in terms:
        if t not in seen:
            seen.add(t)
            clauses.append(t)
            if len(clauses) >= 1024:
                break


def _regexp_literal_prefixes(pat: str, cap: int = 16) -> list[str]:
    """Mandatory literal prefixes of a regexp: a leading run of literal
    chars and simple char classes ([abc] of plain literals) expands to at
    most ``cap`` concrete prefixes (RegExp.toAutomaton's determinized
    initial paths, at prefix granularity). A quantified element ends the
    mandatory run; empty result = no usable prefix (full dictionary
    scan)."""
    prefixes = [""]
    i = 0
    while i < len(pat):
        c = pat[i]
        if c == "[":
            k = pat.find("]", i + 1)
            if k < 0:
                break
            body = pat[i + 1 : k]
            if not body or body[0] == "^" or "-" in body or "\\" in body:
                break
            alts = list(body)
            j = k + 1
        elif c.isalnum():
            alts = [c]
            j = i + 1
        else:
            break
        if j < len(pat) and pat[j] in "*+?{":
            break  # quantifier makes the element non-mandatory
        if len(prefixes) * len(alts) > cap:
            break
        prefixes = [p + a for p in prefixes for a in alts]
        i = j
    return [p for p in prefixes if p]


def _lev_range_lower_bound(base: str, tmin: str, tmax: str) -> int:
    """Lower bound on lev(base, t) over every term t in the sorted range
    [tmin, tmax]. All such terms start with P = commonprefix(tmin, tmax);
    min over completions c of lev(base, P + c) = min of the DP's final
    row (pick c = the cheapest remaining base suffix for free). This is
    the term-range face of the Levenshtein-automaton/FST intersect
    (util/automaton/LevenshteinAutomata.java:33 + FuzzyQuery.java:247):
    a dictionary shard whose bound exceeds max_ed can contain no match
    and is never read."""
    import os.path

    p = os.path.commonprefix([tmin, tmax])
    prev = list(range(len(base) + 1))
    for ca in p:
        cur = [prev[0] + 1]
        for j, cb in enumerate(base, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        if min(cur) > len(base) + len(p):  # unreachable, keeps loop simple
            return min(cur)
        prev = cur
    return min(prev)


# instrumentation for the shard-prune tests (dictionary ranges read / in
# total in the last fuzzy expansion; one range per light term shard when
# merged)
FUZZY_DICT_STATS = {"files_read": 0, "files_total": 0}


def _fuzzy_expand(seg, base: str, max_ed: int, max_terms: int) -> list[str]:
    """Terms within edit distance of ``base`` (exact term first). Only
    dictionary ranges whose term-range Levenshtein lower bound is <=
    max_ed are read (the automaton-intersect seek at term-shard
    granularity on a merged index; a whole-dictionary reader is one
    range); within a
    range the banded DP early-aborts."""
    out = []
    ranges = seg.dict_ranges()
    FUZZY_DICT_STATS["files_total"] = len(ranges)
    FUZZY_DICT_STATS["files_read"] = 0
    for tmin, tmax, load_terms in ranges:  # sorted disjoint ranges
        if _lev_range_lower_bound(base, tmin, tmax) > max_ed:
            continue
        FUZZY_DICT_STATS["files_read"] += 1
        for t in load_terms():
            if _edit_distance_le(base, t, max_ed):
                out.append(t)
                if len(out) >= max_terms:
                    return out
    return out


def _phrase_postings(
    seg, phrase: tuple[str, ...], slop: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Phrase matching over one segment: docs matching the phrase with the
    per-doc phrase frequency. slop=0 is the ExactPhraseMatcher role (freq =
    int match count); slop>0 is the SloppyPhraseMatcher role (freq = sum of
    sloppyWeight 1/(1+matchLength), a float — PhraseQuery.java:92,147,
    SloppyPhraseScorer semantics). Requires DOCS_AND_FREQS_AND_POSITIONS."""
    term_docs = []
    term_pos: list[list[np.ndarray]] = []
    for t in phrase:
        ti = seg.term_info(t)
        if ti is None:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        if not ti.pos_blob:
            raise ValueError(
                f"phrase query needs positions but term {t!r} has no prox stream"
            )
        docs, _ = seg.postings(t)
        term_docs.append(docs)
        term_pos.append(seg.positions(t))
    return _match_slot_positions(term_docs, term_pos, tuple(phrase), slop)


def _multi_phrase_postings(
    seg, slots: tuple[tuple[str, ...], ...], slop: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """MultiPhraseQuery matching over one segment
    (search/MultiPhraseQuery.java): each slot is a SET of alternative terms
    whose postings are merged into one docs+positions view per slot (the
    UnionPostingsEnum role, :370-470 in the reference file), then the same
    exact/sloppy matcher as PhraseQuery runs over the merged slots. A slot
    whose every alternative is absent from the segment kills the match.
    Positions are merged sorted-unique (index-time synonym graphs can put
    two alternatives at the SAME position)."""
    slot_docs: list[np.ndarray] = []
    slot_posting: list[list[tuple[np.ndarray, list[np.ndarray]]]] = []
    for alts in slots:
        present = []
        for t in alts:
            ti = seg.term_info(t)
            if ti is None:
                continue
            if not ti.pos_blob:
                raise ValueError(
                    f"multi-phrase query needs positions but term {t!r} has no prox stream"
                )
            docs, _ = seg.postings(t)
            present.append((docs, seg.positions(t)))
        if not present:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        union = present[0][0]
        for d, _p in present[1:]:
            union = np.union1d(union, d)
        slot_docs.append(union)
        slot_posting.append(present)
    cand = slot_docs[0]
    for d in slot_docs[1:]:
        cand = np.intersect1d(cand, d, assume_unique=True)
    if len(cand) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # materialize merged positions only for candidate docs
    term_pos: list[list[np.ndarray]] = []
    for present in slot_posting:
        idxs = [np.searchsorted(d, cand) for d, _p in present]
        merged: list[np.ndarray] = []
        for ci, doc in enumerate(cand.tolist()):
            parts = []
            for (d, p), ix in zip(present, idxs):
                i = int(ix[ci])
                if i < len(d) and d[i] == doc:
                    parts.append(p[i])
            merged.append(
                parts[0] if len(parts) == 1 else np.unique(np.concatenate(parts))
            )
        term_pos.append(merged)
    # repeat-group identity for the sloppy matcher: identical slots (same
    # alternative set) must use distinct token occurrences, like repeated
    # terms in a plain phrase
    slot_keys = tuple("\x00".join(sorted(alts)) for alts in slots)
    return _match_slot_positions([cand] * len(slots), term_pos, slot_keys, slop)


def _match_slot_positions(
    term_docs: list[np.ndarray],
    term_pos: list[list[np.ndarray]],
    slot_keys: tuple[str, ...],
    slop: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Shared exact/sloppy position matcher over per-slot (docs, positions)
    views — the ExactPhraseMatcher / SloppyPhraseMatcher split, fed by
    either single-term slots (PhraseQuery) or union slots
    (MultiPhraseQuery). ``slot_keys`` identify repeated slots for the
    distinct-occurrence constraint."""
    n = len(slot_keys)
    cand = term_docs[0]
    for d in term_docs[1:]:
        cand = np.intersect1d(cand, d, assume_unique=True)
    if len(cand) == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    out_docs: list[int] = []
    out_freqs: list = []
    idx_per_term = [np.searchsorted(term_docs[i], cand) for i in range(n)]
    for ci, doc in enumerate(cand.tolist()):
        if slop == 0:
            match = term_pos[0][idx_per_term[0][ci]]
            for off in range(1, n):
                nxt = term_pos[off][idx_per_term[off][ci]]
                match = np.intersect1d(match, nxt - off, assume_unique=True)
                if len(match) == 0:
                    break
            if len(match):
                out_docs.append(doc)
                out_freqs.append(len(match))
        else:
            adj = [term_pos[i][idx_per_term[i][ci]] - i for i in range(n)]
            f = _sloppy_freq(adj, slop, slot_keys)
            if f > 0.0:
                out_docs.append(doc)
                out_freqs.append(f)
    freq_dtype = np.int64 if slop == 0 else np.float32
    return np.array(out_docs, dtype=np.int64), np.array(out_freqs, dtype=freq_dtype)


def _sloppy_freq(adj: list[np.ndarray], slop: int, phrase: tuple[str, ...]) -> float:
    """Sloppy phrase frequency for one doc: scan offset-adjusted position
    lists (pos_i - i, the PhrasePositions adjustment) with a k-way min-heap;
    every time the current selection's span (max - min) <= slop, count a
    match with sloppyWeight = 1/(1 + span) and advance the min list.

    Matching-doc semantics equal Lucene's (a doc matches iff some selection
    of one occurrence per phrase slot has adjusted span <= slop; repeated
    terms must use distinct token occurrences); the per-match enumeration is
    a minimal-window scan rather than SloppyPhraseMatcher's pq machinery, so
    freq can differ from Lucene's on overlapping-repeat edge cases."""
    import heapq

    n = len(adj)
    # distinct-occurrence constraint only matters for repeated phrase terms
    rpt_groups: list[list[int]] = []
    seen_terms: dict[str, list[int]] = {}
    for i, t in enumerate(phrase):
        seen_terms.setdefault(t, []).append(i)
    rpt_groups = [v for v in seen_terms.values() if len(v) > 1]
    idx = [0] * n
    heap = [(int(adj[i][0]), i) for i in range(n)]
    heapq.heapify(heap)
    cur_max = max(h[0] for h in heap)
    cur = [int(adj[i][0]) for i in range(n)]
    freq = 0.0
    while True:
        mn, i = heap[0]
        span = cur_max - mn
        if span <= slop:
            ok = True
            for grp in rpt_groups:
                # actual token positions (adj + slot offset) must be distinct
                actual = [cur[j] + j for j in grp]
                if len(set(actual)) != len(actual):
                    ok = False
                    break
            if ok:
                freq += 1.0 / (1.0 + span)
        idx[i] += 1
        if idx[i] >= len(adj[i]):
            return freq
        v = int(adj[i][idx[i]])
        cur[i] = v
        heapq.heapreplace(heap, (v, i))
        cur_max = max(cur_max, v)


# ---------------------------------------------------------------------------
# Ray Data stages
# ---------------------------------------------------------------------------


def _index_manifest(index_dir: str) -> dict:
    """The manifest a search stage opens: the merged index when there is
    one, else the build (per-partition) manifest."""
    from .checkpoint import load_manifest, load_merge_manifest

    manifest = load_merge_manifest(index_dir) or load_manifest(index_dir)
    if manifest is None:
        raise FileNotFoundError(f"no manifest under {index_dir}")
    return manifest


def _search_batch(
    searcher: IndexSearcher,
    batch: pa.Table,
    default_k: int,
    time_limit_ms: float | None = None,
    emit_latency: bool = False,
) -> pa.Table:
    """One query batch (query_id, query[, k]) → hits table (query_id
    int64, rank int32, doc_id int64, score float32, then ``partial`` bool
    when a time limit is set and ``latency_ms`` float64 when asked for) —
    the per-batch loop of ``search_dataset``."""
    qids = batch.column("query_id").to_pylist()
    queries = batch.column("query").to_pylist()
    ks = (
        batch.column("k").to_pylist()
        if "k" in batch.column_names
        else [default_k] * len(qids)
    )
    hits: list[tuple[np.ndarray, np.ndarray]] = []
    lats: list[float] = []
    partials: list[bool] = []
    for qs, k in zip(queries, ks):
        t0 = time.perf_counter()
        partial = False
        if time_limit_ms is None:
            docs, scores = searcher.search(qs, int(k))
        else:
            try:
                docs, scores = searcher.search(qs, int(k), time_limit_ms=time_limit_ms)
            except TimeLimitExceeded as e:
                docs, scores, partial = e.docs, e.scores, True
        lats.append((time.perf_counter() - t0) * 1000.0)
        hits.append((docs, scores))
        partials.append(partial)
    extra = {}
    if time_limit_ms is not None:
        extra["partial"] = pa.array(partials, type=pa.bool_())
    if emit_latency:
        extra["latency_ms"] = pa.array(lats, type=pa.float64())
    return hits_table(qids, hits, **extra)


def hits_table(qids: list, hits: list[tuple[np.ndarray, np.ndarray]], **per_query: pa.Array) -> pa.Table:
    """Ranked hits of a query batch: (query_id int64, rank int32, doc_id
    int64, score float32), one row per hit, query ``qids[i]``'s hits being
    ``hits[i] = (docs, scores)`` in rank order; each ``per_query`` column
    (one value per query) follows, repeated over that query's hits. Array
    passes (``np.repeat``, ``np.concatenate``, ``take``), no per-hit
    Python."""
    n = np.fromiter((len(d) for d, _ in hits), np.int64, len(hits))
    q = np.repeat(np.arange(len(hits)), n)
    cols = {
        "query_id": pa.array(qids, type=pa.int64()).take(q),
        "rank": pa.array((np.arange(len(q)) - (np.cumsum(n) - n)[q]).astype(np.int32)),
        "doc_id": pa.array(np.concatenate([d for d, _ in hits]) if len(q) else [], type=pa.int64()),
        "score": pa.array(np.concatenate([sc for _, sc in hits]) if len(q) else [], type=pa.float32()),
    }
    return pa.table({**cols, **{name: col.take(q) for name, col in per_query.items()}})


# One per-process searcher cache (the open-IndexReader role): Ray's
# shared worker pool keeps each process across tasks and pipeline stages,
# so a searcher opens once per process and manifest, and its postings,
# shard and weight LRUs stay warm for every later task on that process.
# Keyed by the manifest's content digest, never by path or object id: a
# manifest rewritten by a delete or a merge gets a new key, so no task
# reads a stale index, and equal manifests share one searcher. Each digest
# holds its full searcher (shard None) and its doc-range shard searchers;
# at most _SEARCHERS_MAX digests stay open, the least recently used leaving
# first with all its entries, so a long-lived worker that sees deletes or
# merges does not keep every superseded index open.
_SEARCHERS_MAX = 8
_SEARCHERS: OrderedDict[str, dict[tuple[int, int] | None, IndexSearcher]] = OrderedDict()


def manifest_digest(manifest: dict) -> str:
    """md5 of the manifest's canonical JSON: the searcher cache key."""
    return hashlib.md5(json.dumps(manifest, sort_keys=True).encode()).hexdigest()


def cached_searcher(
    manifest: dict, digest: str | None = None, shard: tuple[int, int] | None = None
) -> IndexSearcher:
    """This process's searcher over ``manifest`` (``digest`` is its
    ``manifest_digest``, computed here when not given). With ``shard =
    (shard_id, n_shards)`` it is the shard-local searcher of a merge
    manifest: the ``shard_id``-th of ``n_shards`` equal cuts of the merged
    index's doc range [doc_base, max_doc), the same range for every field,
    read through ``DocRangeView``s of the full searcher's one
    ``MergedIndex`` per field. Stats stay global, and deleted docs are
    masked as in the full searcher."""
    if digest is None:
        digest = manifest_digest(manifest)
    entries = _SEARCHERS.get(digest)
    if entries is not None:
        _SEARCHERS.move_to_end(digest)
        s = entries.get(shard)
        if s is not None:
            return s
    if shard is None:
        s = IndexSearcher(manifest)
    else:
        from .merge import DocRangeView

        shard_id, n_shards = shard
        full = cached_searcher(manifest, digest)
        body = full.segments[0]
        span = body.max_doc - body.doc_base
        lo = body.doc_base + span * shard_id // n_shards
        hi = body.doc_base + span * (shard_id + 1) // n_shards
        views = {
            fld: ([DocRangeView(segs[0], lo, hi)], dc, st)
            for fld, (segs, dc, st) in full.fields.items()
        }
        s = IndexSearcher.from_segments(
            views["body"][0], full.doc_count, full.sum_ttf, fields=views
        )
        s._deleted = full._deleted  # the manifest's liveDocs, global doc ids
    _SEARCHERS.setdefault(digest, {})[shard] = s
    if len(_SEARCHERS) > _SEARCHERS_MAX:
        _SEARCHERS.popitem(last=False)
    return s


def search_dataset(
    queries_ds,
    index_dir: str,
    batch_size: int = 64,
    mode: str = "tasks",
    emit_latency: bool = False,
    time_limit_ms: float | None = None,
):
    """queries (query_id, query[, k]) → hits (query_id int64, rank int32,
    doc_id int64, score float32[, partial bool][, latency_ms float64]):
    stateless ``map_batches`` tasks, each running ``_search_batch`` on its
    process's ``cached_searcher`` (the stateful searcher, opened once per
    worker process and manifest). The manifest is read once, here, and
    ships with the stage with its digest.

    ``time_limit_ms`` is Solr's timeAllowed + partialResults=true: a
    per-query budget; an expired query contributes whatever the deadline
    allowed, and the ``partial`` column flags it (the stage never
    throws). ``mode`` accepts only ``"tasks"``."""
    if mode != "tasks":
        raise ValueError(f"search_dataset: unknown mode {mode!r} (only 'tasks')")
    manifest = _index_manifest(index_dir)
    digest = manifest_digest(manifest)

    def _search(batch: pa.Table) -> pa.Table:
        return _search_batch(
            cached_searcher(manifest, digest),
            batch,
            default_k=10,
            time_limit_ms=time_limit_ms,
            emit_latency=emit_latency,
        )

    return queries_ds.map_batches(
        _search, batch_size=batch_size, batch_format="pyarrow", **_rargs()
    )


# ---------------------------------------------------------------------------
# Doc-sharded distributed search (SURVEY §3.2 scatter/gather):
# (query × shard) fan-out → shard-local top-k in a cached-shard task pool →
# groupby(query_id) TopDocs-merge reduce. Each shard is a contiguous doc
# range of the merged index (``merge.DocRangeView``); global stats and
# every multi-term rewrite come from the merged dictionary in the
# fan-out, and ship with each (query, shard) plan.
# ---------------------------------------------------------------------------


def search_dataset_sharded(
    queries_ds, manifest: dict, n_shards: int = 4, batch_size: int = 32,
    similarity: str = "bm25",
):
    """queries (query_id, query[, k]) → exact global top-k hits over a
    merge manifest (a build manifest raises ``ValueError``: merge first).

    The fan-out REWRITES each query once against the merged dictionary
    (prefix/range/wildcard/fuzzy → flat SHOULD clauses) and collects global
    (df, ttf) for every term the rewritten query touches — incl. phrase,
    synonym and boost terms — the TermStates.build stats pass. Shard tasks
    run the plan exhaustively (``algorithm="taat"``) over their doc range
    with the global stats injected via ``stats_override``, so shard-local
    scores are globally comparable for ALL clause types and the reduce is
    a pure TopDocs merge on (score desc, docID asc)."""
    if manifest.get("kind") != "merge-by-term":
        raise ValueError("merge first")
    import pandas as pd

    digest = manifest_digest(manifest)

    def fanout(batch: pa.Table) -> pa.Table:
        from dataclasses import asdict

        # merged-index searcher, opened once per worker process from the
        # shipped manifest — the closure ships NO index state
        full = cached_searcher(manifest, digest)
        rows = []
        for r in batch.to_pylist():
            from .queryparse import query_terms

            q = full.rewrite(parse_query(r["query"]))
            stats = {t: full.global_term_stats(t) for t in sorted(query_terms(q))}
            plan = repr((asdict(q), stats))
            # optional cursor mark (Solr cursorMark deep paging): the SAME
            # global (score, doc) mark pages every shard — shard-local
            # scores are globally comparable, so the after filter commutes
            # with the shard partition and the reduce stays a TopDocs merge
            a_doc = r.get("after_doc")
            a_doc = -1 if a_doc is None else int(a_doc)
            a_score = r.get("after_score")
            a_score = float("nan") if a_score is None else float(a_score)
            for sid in range(n_shards):
                rows.append(
                    {
                        "query_id": r["query_id"],
                        "k": int(r.get("k", 10)),
                        "shard_id": sid,
                        "plan": plan,
                        "after_doc": a_doc,
                        "after_score": a_score,
                    }
                )
        return pa.Table.from_pylist(rows)

    def shard_search(batch: pa.Table) -> pa.Table:
        import ast

        out = {"query_id": [], "doc_id": [], "score": [], "k": []}
        for r in batch.to_pylist():
            s = cached_searcher(manifest, digest, (int(r["shard_id"]), n_shards))
            # per-request Similarity plug (shard-local scores stay
            # globally comparable: every similarity here derives its
            # weights solely from the injected GLOBAL stats)
            from .bm25 import SIMILARITIES

            s.make_scorer = SIMILARITIES[similarity]
            qd, stats = ast.literal_eval(r["plan"])
            from .queryparse import boolquery_from_dict

            q = boolquery_from_dict(qd)
            s.stats_override = stats
            try:
                if int(r.get("after_doc", -1)) >= 0:
                    docs, scores = s.execute_after(
                        q,
                        (float(r["after_score"]), int(r["after_doc"])),
                        int(r["k"]),
                    )
                else:
                    docs, scores = s.execute(q, int(r["k"]), algorithm="taat")
            finally:
                s.stats_override = None
            out["query_id"].extend([r["query_id"]] * len(docs))
            out["doc_id"].extend(docs.tolist())
            out["score"].extend(scores.tolist())
            out["k"].extend([int(r["k"])] * len(docs))
        return pa.table(
            {
                "query_id": pa.array(out["query_id"], type=pa.int64()),
                "doc_id": pa.array(out["doc_id"], type=pa.int64()),
                "score": pa.array(out["score"], type=pa.float32()),
                "k": pa.array(out["k"], type=pa.int32()),
            }
        )

    def reduce_query(g: pd.DataFrame) -> pd.DataFrame:
        k = int(g["k"].iloc[0])
        docs, scores = topk_sort(
            g["doc_id"].to_numpy(), g["score"].to_numpy().astype(np.float32), k
        )
        return pd.DataFrame(
            {
                "query_id": g["query_id"].iloc[0],
                "rank": np.arange(len(docs), dtype=np.int32),
                "doc_id": docs,
                "score": scores,
            }
        )

    return (
        queries_ds.map_batches(fanout, batch_format="pyarrow", **_rargs())
        .map_batches(shard_search, batch_size=batch_size, batch_format="pyarrow", **_rargs())
        .groupby("query_id")
        .map_groups(reduce_query, batch_format="pandas", **_rargs())
    )
