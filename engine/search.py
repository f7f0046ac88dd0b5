"""Search execution: per-segment scorers, top-k collection, actor pools.

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

- ``taat``: exhaustive vectorized term-at-a-time numpy scoring (decode all
  postings, scatter-add float32 scores into a float64 accumulator). Exact,
  no pruning, optimal for small segments (this sandbox's scale).
- ``wand``: document-at-a-time block-max WAND / block-max conjunction with
  dynamic pruning (engine/wand.py), optimal when postings ≫ k (the 100 TB
  scale path).

Both are rank-identical by construction (same float32 score arithmetic;
pruning is sound) and tested against each other (CheckHits model).

``search_dataset`` is the Ray Data search stage. In actor mode it passes
the ``BatchSearcher`` CLASS to ``ds.map_batches(..., concurrency=(1, N))``
— segments load once per actor in ``__init__``; in task mode a
per-process cached searcher plays that role. Both run ``_search_batch``.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .rayenv import remote_args as _rargs

from .bm25 import TermScorerParams, make_phrase_scorer, make_term_scorer, topk_sort
from .queryparse import BoolQuery, parse_query
from .segment import Segment
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


class IndexSearcher:
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
            seg_rows = m.get("segments") or m["partitions"]
            return [
                Segment(r["seg_dir"])
                for r in sorted(seg_rows, key=lambda r: r["doc_base"])
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
        # (= per searcher actor) LRU of filter-clause bitsets keyed by
        # (segment index, clause terms). Segments are immutable, so
        # entries never invalidate; deletions apply AFTER filtering
        # (liveDocs mask in _live), matching Lucene's cache-on-the-
        # reader-before-deletes semantics.
        from collections import OrderedDict as _FOD

        self._filter_cache: "OrderedDict" = _FOD()
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
        obj._deleted = None  # shard-subset searchers carry no liveDocs
        from collections import OrderedDict as _FOD

        obj._filter_cache = _FOD()
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
        ov = getattr(self, "stats_override", None)
        if ov is not None and term in ov:
            return ov[term]
        fld, bare = self._split_field(term)
        df = ttf = 0
        for seg in self.fields[fld][0]:
            d, t = seg.term_stats(bare)
            df += d
            ttf += t
        return df, ttf

    def _params_for(
        self, terms: tuple[str, ...], boosts: dict[str, float] | None = None
    ) -> dict[str, TermScorerParams | None]:
        out: dict[str, TermScorerParams | None] = {}
        for t in terms:
            df, ttf = self.global_term_stats(t)
            fld, _bare = self._split_field(t)
            _segs, f_doc_count, f_sum_ttf = self.fields[fld]
            # per-field collection stats: avgdl comes from THIS field's
            # sumTotalTermFreq (BM25Similarity.java:80-82 per-field);
            # ttf feeds LM-family collection probabilities (LMSimilarity)
            mk = (
                self._sim_map.get(fld, self.make_scorer)
                if self._sim_map is not None
                else self.make_scorer
            )
            b = np.float32((boosts or {}).get(t, 1.0))  # BoostQuery wrap
            out[t] = (
                mk(df, f_doc_count, f_sum_ttf, ttf=ttf, boost=b)
                if df > 0
                else None
            )
        return out

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
        params = self._params_for(q.should, boosts=boosts)
        live = [t for t in q.should if params[t] is not None]
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
                fld, bare = self._split_field(t)
                fseg = seg if fld == "body" else self._field_seg(fld, gi)
                docs, freqs = fseg.postings(bare)
                if not len(docs):
                    continue
                s = params[t].score(freqs, fseg.norm_of(docs))
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
        if not all_docs:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        return topk_sort(*self._live(np.concatenate(all_docs), np.concatenate(all_scores)), k)

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
            else __import__("time").perf_counter() + time_limit_ms / 1000.0
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
        f32 — bit-identical to what search() scores this doc. Flat
        must/should/must_not queries (the TAAT plan's shape); a matching
        MUST_NOT or a missing MUST clause yields match=False, value 0."""
        from .smallfloat import LENGTH_TABLE

        q = self.rewrite(parse_query(query) if isinstance(query, str) else query)
        doc = int(doc_id)

        def _doc_freq(t: str) -> tuple[int, int, object]:
            """(freq, norm_byte, field_seg) of ``doc`` for term t."""
            fld, bare = self._split_field(t)
            for gi, seg in enumerate(self.segments):
                if not (seg.doc_base <= doc < seg.max_doc):
                    continue
                fseg = seg if fld == "body" else self._field_seg(fld, gi)
                docs, freqs = fseg.postings(bare)
                i = np.searchsorted(docs, doc)
                if i < len(docs) and docs[i] == doc:
                    return int(freqs[i]), int(fseg.norm_of(np.array([doc]))[0]), fseg
                return 0, 0, fseg
            return 0, 0, None

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
        must_missing = False
        for t in tuple(q.must) + tuple(q.should):
            p = params[t]
            freq = 0
            if p is not None:
                freq, nb, _fseg = _doc_freq(t)
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
        flat_single_term = (
            not q.nested
            and len(q.should) == 1
            and not (
                q.must or q.must_not or q.phrases or q.sloppy or q.multi_phrases
                or q.synonyms or q.boosts or q.min_should_match or q.term_sets
                or q.match_all
            )
        )
        if flat_single_term and self._deleted is None:
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

        if q.nested:
            # the nested clause-tree plan has no collector hook but is
            # already exhaustive: collect every match, then page
            d, s = self._search_nested(q, self.doc_count)
            m = (s < after_s) | ((s == after_s) & (d > after_d))
            return topk_sort(d[m], s[m], k)
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
        searcher (incl. shard-subset searchers)."""
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
                    for t in cand:
                        if rx.fullmatch(t) and qual(t) not in seen_r:
                            seen_r.add(qual(t))
                            extra_r.append(qual(t))
                            if len(extra_r) >= 1024:
                                break
            q = replace(q, should=tuple(extra_r), regexps=())
        if q.ranges or q.wildcards:
            # MultiTermQuery scoring rewrite: expand against the dictionary
            import fnmatch

            extra = list(q.should)
            seen = set(extra)
            for lo_t, hi_t in q.ranges:
                bare_lo, segs_r, qual = _route(lo_t)
                bare_hi = self._split_field(hi_t)[1]
                for seg in segs_r:
                    for t in seg.expand_range(bare_lo, bare_hi, 1024):
                        t = qual(t)
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
                for seg in segs_w:
                    if fixed:
                        cand = seg.expand_prefix(fixed, 65536)
                    elif tail and hasattr(seg, "expand_suffix"):
                        cand = seg.expand_suffix(tail, 65536)
                    else:
                        cand = seg.expand_prefix("", 65536)
                    for t in cand:
                        if fnmatch.fnmatchcase(t, bare_w) and qual(t) not in seen:
                            seen.add(qual(t))
                            extra.append(qual(t))
                            if len(extra) >= 1024:
                                break
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
        collect phase. Plan choice mirrors Boolean2ScorerSupplier.
        ``deadline`` (perf_counter seconds) is enforced at segment
        granularity on the exhaustive plans (TimeLimitingCollector
        role). A ``collector`` forces the exhaustive plan (a pruning plan
        cannot feed a see-every-hit callback)."""
        if collector is not None:
            algorithm = "taat"
        if q.empty or k <= 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        if q.nested:
            # clause-tree plan: recursive per-segment dense evaluation
            # (nested scorers are exhaustive; WAND pruning stays flat-only)
            return self._search_nested(q, k)
        algorithm = algorithm or self.algorithm
        if (
            q.match_all
            or q.phrases
            or q.sloppy
            or q.multi_phrases
            or q.synonyms
            or q.boosts
            or q.min_should_match
            or q.term_sets
            or self._deleted is not None
        ):
            # constant-score / positional / blended / boosted / msm /
            # filter clauses: vectorized exhaustive plan only. Deletions
            # also force TAAT: the WAND collector's bottom-score
            # threshold must never be raised by a deleted doc, and the
            # liveDocs mask is applied before top-k on the TAAT funnel.
            algorithm = "taat"
        # must_not params are never used for scoring, only to build iterators
        params = self._params_for(tuple(q.must) + tuple(q.should) + tuple(q.must_not))
        if any(params[t] is None for t in q.must):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        live_should = tuple(t for t in q.should if params[t] is not None)
        if (
            not q.must
            and not live_should
            and not q.match_all
            and not q.phrases
            and not q.sloppy
            and not q.multi_phrases
            and not q.synonyms
            and not q.boosts
            and not q.term_sets
        ):
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)

        if algorithm == "auto":
            total_postings = sum(
                self.global_term_stats(t)[0] for t in tuple(q.must) + live_should
            )
            algorithm = "wand" if total_postings > WAND_POSTINGS_CUTOVER else "taat"

        if algorithm == "taat":
            return self._search_taat(q, live_should, params, k, deadline, collector)
        return self._search_wand(q, live_should, params, k, threshold, deadline)

    # -- exhaustive vectorized plan ----------------------------------------

    def _search_taat(
        self,
        q: BoolQuery,
        live_should: tuple[str, ...],
        params: dict[str, TermScorerParams | None],
        k: int,
        deadline: float | None = None,
        collector=None,
    ) -> tuple[np.ndarray, np.ndarray]:
        import time as _time

        def _check_deadline() -> None:
            # TimeLimitingCollector.collect's timer check, at the segment
            # (leaf) granularity of this vectorized plan; the exception
            # carries the partial top-k collected in time
            if deadline is not None and _time.perf_counter() > deadline:
                if all_docs:
                    d, sc = topk_sort(
                        *self._live(
                            np.concatenate(all_docs), np.concatenate(all_scores)
                        ),
                        k,
                    )
                else:
                    d = np.empty(0, dtype=np.int64)
                    sc = np.empty(0, dtype=np.float32)
                raise TimeLimitExceeded(d, sc)

        all_docs: list[np.ndarray] = []
        all_scores: list[np.ndarray] = []
        n_must = len(q.must)
        if (
            n_must == 0
            and len(live_should) == 1
            and not (
                q.match_all
                or q.boosts
                or q.synonyms
                or q.phrases
                or q.sloppy
                or q.multi_phrases
                or q.must_not
                or q.term_sets
                or q.min_should_match
            )
        ):
            # single-term fast path (the dominant query shape): postings →
            # score → top-k directly, no dense accumulator/scatter/gather
            t = live_should[0]
            fld_t, bare_t = self._split_field(t)
            for gi, seg in enumerate(self.segments):
                _check_deadline()
                tseg = seg if fld_t == "body" else self._field_seg(fld_t, gi)
                docs, freqs = tseg.postings(bare_t)
                if len(docs):
                    sc_seg = params[t].score(freqs, tseg.norm_of(docs))
                    if collector is not None:
                        collector(docs, sc_seg)
                    all_docs.append(docs)
                    all_scores.append(sc_seg)
            if not all_docs:
                return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
            return topk_sort(
                *self._live(np.concatenate(all_docs), np.concatenate(all_scores)), k
            )
        for gi, seg in enumerate(self.segments):
            _check_deadline()
            lo = seg.doc_base
            span = seg.norm_span
            acc = np.zeros(span, dtype=np.float64)
            must_cnt = np.zeros(span, dtype=np.int16) if n_must else None
            matched = np.zeros(span, dtype=bool)
            should_cnt = (
                np.zeros(span, dtype=np.int16) if q.min_should_match else None
            )
            if q.match_all:
                # MatchAllDocsQuery: constant score 1.0f for every doc
                acc += 1.0
                matched[:] = True
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
                    sb = params_b.score(freqs, bseg.norm_of(docs))
                    acc[docs - lo] += sb.astype(np.float64)
                    matched[docs - lo] = True
                    if should_cnt is not None:
                        should_cnt[docs - lo] += 1
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
                    s = params_s.score(
                        freq_sum[hit_local], seg.norm_of(hit_local + lo)
                    )
                    acc[hit_local] += s.astype(np.float64)
                    matched[hit_local] = True
                    if should_cnt is not None:
                        should_cnt[hit_local] += 1
            for phrase_t, slop in tuple((p, 0) for p in q.phrases) + tuple(q.sloppy):
                pseg, bare_p, p_dc, p_st = self._phrase_ctx(gi, seg, phrase_t)
                docs_p, freqs_p = _phrase_postings(pseg, bare_p, slop)
                if len(docs_p) == 0:
                    continue
                params_p = make_phrase_scorer(
                    [self.global_term_stats(t)[0] for t in phrase_t], p_dc, p_st
                )
                sp = params_p.score(freqs_p, pseg.norm_of(docs_p))
                acc[docs_p - lo] += sp.astype(np.float64)
                matched[docs_p - lo] = True
                if should_cnt is not None:
                    should_cnt[docs_p - lo] += 1
            for slots, slop in q.multi_phrases:
                # MultiPhraseQuery: per-slot union postings feed the same
                # matcher; idf sums over ALL slot terms (the termStates[]
                # array MultiPhraseQuery.java hands to the similarity)
                mseg, bare_s, m_dc, m_st = self._multi_phrase_ctx(gi, seg, slots)
                docs_m, freqs_m = _multi_phrase_postings(mseg, bare_s, slop)
                if len(docs_m) == 0:
                    continue
                params_m = make_phrase_scorer(
                    # df=0 alternatives are skipped, as the reference skips
                    # zero-docFreq termStates when building the stats array
                    [
                        df
                        for alts in slots
                        for df in (
                            self.global_term_stats(t)[0] for t in alts
                        )
                        if df > 0
                    ],
                    m_dc,
                    m_st,
                )
                sm = params_m.score(freqs_m, mseg.norm_of(docs_m))
                acc[docs_m - lo] += sm.astype(np.float64)
                matched[docs_m - lo] = True
                if should_cnt is not None:
                    should_cnt[docs_m - lo] += 1
            # Iterate must then should by POSITION (not `t in q.must`): a term
            # present in both MUST and SHOULD (e.g. "+foo foo") scores twice
            # (both clauses contribute, as in the WAND plan) but bumps
            # must_cnt exactly once — otherwise must_cnt==n_must never holds.
            for i, t in enumerate(tuple(q.must) + live_should):
                is_must = i < n_must
                fld_t, bare_t = self._split_field(t)
                tseg = seg if fld_t == "body" else self._field_seg(fld_t, gi)
                docs, freqs = tseg.postings(bare_t)
                if len(docs) == 0:
                    if is_must:
                        must_cnt = None
                        break
                    continue
                local = docs - lo
                s = params[t].score(freqs, tseg.norm_of(docs))
                acc[local] += s.astype(np.float64)
                matched[local] = True
                if is_must:
                    must_cnt[local] += 1
                elif should_cnt is not None:
                    should_cnt[local] += 1
            if n_must and must_cnt is None:
                continue
            if n_must:
                sel = must_cnt == n_must
            elif q.term_sets and not (
                live_should
                or q.match_all
                or q.phrases
                or q.sloppy
                or q.multi_phrases
                or q.synonyms
                or q.boosts
            ):
                # filter-only query: every doc is a candidate at score 0
                # (ConstantScore filter context, TermInSetQuery.java)
                sel = np.ones(span, dtype=bool)
            else:
                sel = matched
            for ts in q.term_sets:
                # TermInSetQuery FILTER: require >= 1 term of the set,
                # contribute no score; bitset served from the per-searcher
                # LRU on repeats (LRUQueryCache role)
                sel = sel & self._filter_bitset(gi, seg, ts)
            if should_cnt is not None:
                # minimumNumberShouldMatch (search/BooleanQuery.java:78,102):
                # optional clauses that match count toward the minimum;
                # synonym/phrase/boost groups count as SHOULD clauses too
                sel = sel & (should_cnt >= q.min_should_match)
            for t in q.must_not:
                fld_n, bare_n = self._split_field(t)
                nseg = seg if fld_n == "body" else self._field_seg(fld_n, gi)
                docs, _ = nseg.postings(bare_n)
                if len(docs):
                    sel[docs - lo] = False
            local_sel = np.flatnonzero(sel)
            if len(local_sel):
                seg_docs = local_sel + lo
                seg_scores = acc[local_sel].astype(np.float32)
                if collector is not None:
                    collector(seg_docs, seg_scores)
                all_docs.append(seg_docs)
                all_scores.append(seg_scores)
        if not all_docs:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        return topk_sort(*self._live(np.concatenate(all_docs), np.concatenate(all_scores)), k)

    # -- nested clause-tree plan -------------------------------------------

    def _search_nested(self, q: BoolQuery, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Clause-tree execution for queries with parenthesized sub-queries
        (after the flattening rewrite removed every inlinable group):
        evaluate each node recursively per segment into a dense match mask
        + float64 score accumulator, combining child masks with BooleanQuery
        clause semantics (search/BooleanQuery.java; Boolean2ScorerSupplier
        nested-scorer composition)."""
        all_docs: list[np.ndarray] = []
        all_scores: list[np.ndarray] = []
        for gi, seg in enumerate(self.segments):
            sel, acc = self._eval_node(q, gi, seg)
            local = np.flatnonzero(sel)
            if len(local):
                all_docs.append(local + seg.doc_base)
                all_scores.append(acc[local].astype(np.float32))
        if not all_docs:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
        return topk_sort(*self._live(np.concatenate(all_docs), np.concatenate(all_scores)), k)

    def _eval_node(self, q: BoolQuery, gi, seg) -> tuple[np.ndarray, np.ndarray]:
        """One BooleanQuery node on one segment → (matched bool[span],
        score float64[span]). A sub-query is ONE clause of its parent: its
        node score is finished to float32 before being added to the parent
        accumulator (each Scorer.score() returns a float; the parent's
        double accumulator sums those floats — BooleanScorer semantics)."""
        lo = seg.doc_base
        span = seg.norm_span
        acc = np.zeros(span, dtype=np.float64)
        opt = np.zeros(span, dtype=bool)  # any optional clause matched
        must_ok: np.ndarray | None = None  # AND over required clauses
        should_cnt = np.zeros(span, dtype=np.int16) if q.min_should_match else None

        params = self._params_for(tuple(q.must) + tuple(q.should))
        if any(params[t] is None for t in q.must):
            return np.zeros(span, dtype=bool), acc  # a required term is absent

        def _require(mask: np.ndarray) -> None:
            nonlocal must_ok
            must_ok = mask if must_ok is None else (must_ok & mask)

        def _optional(local: np.ndarray) -> None:
            opt[local] = True
            if should_cnt is not None:
                should_cnt[local] += 1

        if q.match_all:
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
        for t in q.must:
            fld_t, bare_t = self._split_field(t)
            tseg = seg if fld_t == "body" else self._field_seg(fld_t, gi)
            docs, freqs = tseg.postings(bare_t)
            m = np.zeros(span, dtype=bool)
            if len(docs):
                local = docs - lo
                acc[local] += params[t].score(freqs, tseg.norm_of(docs)).astype(
                    np.float64
                )
                m[local] = True
            _require(m)
        live_should = tuple(t for t in q.should if params[t] is not None)
        for t in live_should:
            fld_t, bare_t = self._split_field(t)
            tseg = seg if fld_t == "body" else self._field_seg(fld_t, gi)
            docs, freqs = tseg.postings(bare_t)
            if len(docs):
                local = docs - lo
                acc[local] += params[t].score(freqs, tseg.norm_of(docs)).astype(
                    np.float64
                )
                _optional(local)
        for sub in q.sub_must:
            s_sel, s_acc = self._eval_node(sub, gi, seg)
            acc[s_sel] += s_acc[s_sel].astype(np.float32).astype(np.float64)
            _require(s_sel)
        for sub in q.sub_should:
            s_sel, s_acc = self._eval_node(sub, gi, seg)
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
            sel = np.ones(span, dtype=bool)  # filter-only: constant-score
        else:
            sel = opt.copy()
        for ts in q.term_sets:
            sel = sel & self._filter_bitset(gi, seg, ts)
        if should_cnt is not None:
            sel = sel & (should_cnt >= q.min_should_match)
        for t in q.must_not:
            fld_n, bare_n = self._split_field(t)
            nseg = seg if fld_n == "body" else self._field_seg(fld_n, gi)
            docs, _ = nseg.postings(bare_n)
            if len(docs):
                sel[docs - lo] = False
        for sub in q.sub_must_not:
            s_sel, _ = self._eval_node(sub, gi, seg)
            sel = sel & ~s_sel
        return sel, acc

    # -- block-max WAND plan -----------------------------------------------

    def _search_wand(
        self,
        q: BoolQuery,
        live_should: tuple[str, ...],
        params: dict[str, TermScorerParams | None],
        k: int,
        threshold: int,
        deadline: float | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        import time as _time

        collector = TopKCollector(k, threshold)
        for gi, seg in enumerate(self.segments):  # docID order => shared bottom stays sound
            if deadline is not None and _time.perf_counter() > deadline:
                # TimeLimitingCollector role on the pruning plan: partial
                # top-k of the segments finished in time
                raise TimeLimitExceeded(*collector.results())
            def iters(terms: tuple[str, ...]) -> list[TermIterator]:
                out = []
                for t in terms:
                    fld, bare = self._split_field(t)
                    fseg = seg if fld == "body" else self._field_seg(fld, gi)
                    ti = fseg.term_info(bare)
                    if ti is not None:
                        out.append(TermIterator(fseg, ti, params[t]))
                return out

            must_iters = iters(q.must)
            if q.must and len(must_iters) < len(q.must):
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
                sh = iters(live_should)
                ex = iters(q.must_not)
                if ex:
                    # disjunction with must_not (ReqExclScorer analogue):
                    # exhaustive doc-order evaluation, no pruning (rare path)
                    self._wand_with_excludes(sh, ex, collector)
                else:
                    wand_or_topk(sh, k, threshold, collector=collector)
        return collector.results()

    @staticmethod
    def _wand_with_excludes(
        shoulds: list[TermIterator], excludes: list[TermIterator], collector: TopKCollector
    ) -> None:
        """Doc-order disjunction with must_not exclusion (ReqExclScorer
        analogue); pruning disabled for simplicity on this rare path."""
        from .wand import NO_MORE_DOCS, _combined_score, setup_scaling

        setup_scaling(shoulds)
        for it in shoulds + excludes:
            it.start()
        active = [it for it in shoulds if it.doc != NO_MORE_DOCS]
        while active:
            doc = min(it.doc for it in active)
            matching = [it for it in active if it.doc == doc]
            skip = False
            for ex in excludes:
                if ex.doc < doc:
                    ex.advance(doc)
                if ex.doc == doc:
                    skip = True
            if not skip:
                collector.collect(doc, _combined_score(matching))
            for it in matching:
                it.next()
            active = [it for it in active if it.doc != NO_MORE_DOCS]


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


# instrumentation for the shard-prune tests (files read / files total of
# the last dictionary-level fuzzy expansion)
FUZZY_DICT_STATS = {"files_read": 0, "files_total": 0}


def _fuzzy_expand(seg, base: str, max_ed: int, max_terms: int) -> list[str]:
    """Terms within edit distance of ``base`` (exact term first). On a
    merged index with a sorted dictionary level, only dict files whose
    term-range Levenshtein lower bound is <= max_ed are read (the
    automaton-intersect seek at file granularity); within a file the
    length band |len(t) - len(base)| <= max_ed prunes vectorized-cheap
    before the banded DP."""
    out = []
    if hasattr(seg, "_dict_ranges"):
        import pyarrow.parquet as _pq

        ranges = seg._dict_ranges()
        FUZZY_DICT_STATS["files_total"] = len(ranges)
        FUZZY_DICT_STATS["files_read"] = 0
        for tmin, tmax, path in ranges:  # sorted disjoint ranges
            if _lev_range_lower_bound(base, tmin, tmax) > max_ed:
                continue
            FUZZY_DICT_STATS["files_read"] += 1
            for t in _pq.read_table(path, columns=["term"]).column("term").to_pylist():
                if _edit_distance_le(base, t, max_ed):
                    out.append(t)
                    if len(out) >= max_terms:
                        return out
        return out
    for t in seg.iter_terms():
        if _edit_distance_le(base, t, max_ed):
            out.append(t)
            if len(out) >= max_terms:
                break
    return out


def explain(searcher: IndexSearcher, query: str, doc_id: int) -> dict:
    """Weight.explain analogue: per-clause score breakdown for one doc;
    the clause sum (float64 → float32) must equal Scorer.score — the
    CheckHits explain-vs-score invariant (CheckHits.java:725)."""
    from .bm25 import idf as _idf

    q = parse_query(query)
    gi, seg = next(
        (i, s)
        for i, s in enumerate(searcher.segments)
        if s.doc_base <= doc_id < s.doc_base + s.norm_span
    )
    norm = int(seg.norm_of(np.array([doc_id]))[0])
    clauses = []
    acc = 0.0
    for t in tuple(q.must) + tuple(q.should):
        df, _ = searcher.global_term_stats(t)
        if df == 0:
            continue
        fld, bare = searcher._split_field(t)
        fseg = seg if fld == "body" else searcher._field_seg(fld, gi)
        docs, freqs = fseg.postings(bare)
        i = int(np.searchsorted(docs, doc_id))
        if i >= len(docs) or docs[i] != doc_id:
            continue
        _fsegs, f_dc, f_st = searcher.fields[fld]
        f_norm = int(fseg.norm_of(np.array([doc_id]))[0])
        params = make_term_scorer(df, f_dc, f_st)
        s = float(
            params.score(freqs[i : i + 1], np.array([f_norm], dtype=np.uint8))[0]
        )
        clauses.append(
            {
                "type": "term",
                "term": t,
                "freq": int(freqs[i]),
                "norm": f_norm,
                "doc_freq": df,
                "idf": float(_idf(df, f_dc)),
                "score": s,
            }
        )
        acc += s
    for phrase in q.phrases:
        pseg, bare_p, p_dc, p_st = searcher._phrase_ctx(gi, seg, phrase)
        docs_p, freqs_p = _phrase_postings(pseg, bare_p)
        i = int(np.searchsorted(docs_p, doc_id))
        if i < len(docs_p) and docs_p[i] == doc_id:
            params = make_phrase_scorer(
                [searcher.global_term_stats(t)[0] for t in phrase], p_dc, p_st
            )
            p_norm = int(pseg.norm_of(np.array([doc_id]))[0])
            s = float(
                params.score(freqs_p[i : i + 1], np.array([p_norm], dtype=np.uint8))[0]
            )
            clauses.append(
                {
                    "type": "phrase",
                    "term": " ".join(phrase),
                    "freq": int(freqs_p[i]),
                    "norm": norm,
                    "score": s,
                }
            )
            acc += s
    return {
        "doc_id": doc_id,
        "score": float(np.float32(acc)),
        "norm": norm,
        "clauses": clauses,
    }


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
                f"phrase query needs positions but term {t!r} has no prox "
                "stream (index built with index_positions=False)"
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
                    f"multi-phrase query needs positions but term {t!r} has "
                    "no prox stream (index built with index_positions=False)"
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
    the per-batch loop of both Ray search stages."""
    import time

    qids = batch.column("query_id").to_pylist()
    queries = batch.column("query").to_pylist()
    ks = (
        batch.column("k").to_pylist()
        if "k" in batch.column_names
        else [default_k] * len(qids)
    )
    out_qid: list[int] = []
    out_rank: list[int] = []
    out_doc: list[int] = []
    out_score: list[float] = []
    out_lat: list[float] = []
    out_partial: list[bool] = []
    for qid, qs, k in zip(qids, queries, ks):
        t0 = time.perf_counter()
        partial = False
        if time_limit_ms is None:
            docs, scores = searcher.search(qs, int(k))
        else:
            try:
                docs, scores = searcher.search(qs, int(k), time_limit_ms=time_limit_ms)
            except TimeLimitExceeded as e:
                docs, scores, partial = e.docs, e.scores, True
        lat_ms = (time.perf_counter() - t0) * 1000.0
        out_qid.extend([qid] * len(docs))
        out_rank.extend(range(len(docs)))
        out_doc.extend(docs.tolist())
        out_score.extend(scores.tolist())
        out_lat.extend([lat_ms] * len(docs))
        out_partial.extend([partial] * len(docs))
    cols = {
        "query_id": pa.array(out_qid, type=pa.int64()),
        "rank": pa.array(out_rank, type=pa.int32()),
        "doc_id": pa.array(out_doc, type=pa.int64()),
        "score": pa.array(out_score, type=pa.float32()),
    }
    if time_limit_ms is not None:
        cols["partial"] = pa.array(out_partial, type=pa.bool_())
    if emit_latency:
        cols["latency_ms"] = pa.array(out_lat, type=pa.float64())
    return pa.table(cols)


class BatchSearcher:
    """Stateful actor-pool search stage: segments open once per actor
    (__init__), query batches stream through __call__ (SURVEY §7.3)."""

    def __init__(
        self,
        index_dir: str,
        algorithm: str = "auto",
        default_k: int = 10,
        emit_latency: bool = False,
        time_limit_ms: float | None = None,
    ):
        self.searcher = IndexSearcher(_index_manifest(index_dir), algorithm=algorithm)
        self.default_k = default_k
        self.emit_latency = emit_latency
        # Solr timeAllowed + partialResults=true role: a per-query budget;
        # an expired query contributes whatever the deadline allowed, with
        # the `partial` column flagging it (the stage never throws)
        self.time_limit_ms = time_limit_ms

    def __call__(self, batch: pa.Table) -> pa.Table:
        return _search_batch(
            self.searcher, batch, self.default_k, self.time_limit_ms, self.emit_latency
        )


# process-level searcher cache for the stateless-task search path: Ray
# reuses worker processes across pipeline stages, so a task-based search
# stage skips actor spawn cost and shares the open index + decoded-postings
# cache with every task that lands on the same worker.
_PROCESS_SEARCHERS: dict = {}


def searcher_for(index_dir: str, algorithm: str = "auto") -> IndexSearcher:
    """This process's cached searcher over ``index_dir`` (opened once)."""
    key = (index_dir, algorithm)
    s = _PROCESS_SEARCHERS.get(key)
    if s is None:
        s = IndexSearcher(_index_manifest(index_dir), algorithm=algorithm)
        _PROCESS_SEARCHERS[key] = s
    return s


def make_search_fn(index_dir: str, default_k: int = 10, emit_latency: bool = False):
    """Stateless-task search stage: each batch runs on this worker
    process's cached searcher (``searcher_for``), so the index opens once
    per process and its postings/shard LRUs stay warm across tasks. Same
    output as ``BatchSearcher`` without a time limit."""

    def _search(batch: pa.Table) -> pa.Table:
        return _search_batch(
            searcher_for(index_dir), batch, default_k, emit_latency=emit_latency
        )

    return _search


def search_dataset(
    queries_ds,
    index_dir: str,
    concurrency: int = 4,
    batch_size: int = 64,
    mode: str = "actors",
    emit_latency: bool = False,
):
    """queries (query_id, query[, k]) → hits (query_id int64, rank int32,
    doc_id int64, score float32[, latency_ms float64]); both modes run
    the same per-batch loop and return identical rows.

    mode="actors": autoscaling pool of 1..``concurrency`` ``BatchSearcher``
    actors, index opened once per actor (a fixed-size pool can starve the
    upstream read tasks of CPUs).
    mode="tasks": stateless tasks + per-process searcher cache — same
    state-amortization, but reuses the already-warm worker pool from
    earlier pipeline stages (no actor spawn cost); ``concurrency`` is
    unused."""
    if mode == "tasks":
        return queries_ds.map_batches(
            make_search_fn(index_dir, emit_latency=emit_latency),
            batch_size=batch_size,
            batch_format="pyarrow",
            **_rargs(),
        )
    return queries_ds.map_batches(
        BatchSearcher,
        fn_constructor_kwargs={"index_dir": index_dir, "emit_latency": emit_latency},
        batch_size=batch_size,
        batch_format="pyarrow",
        concurrency=(1, concurrency),
        **_rargs(),
    )


def merge_topk(
    results: list[tuple[np.ndarray, np.ndarray]], k: int
) -> tuple[np.ndarray, np.ndarray]:
    """TopDocs.merge analogue over shard-local top-k lists."""
    if not results:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32)
    docs = np.concatenate([r[0] for r in results])
    scores = np.concatenate([r[1] for r in results])
    return topk_sort(docs, scores, k)


# ---------------------------------------------------------------------------
# Doc-sharded distributed search (SURVEY §3.2 scatter/gather):
# (query × shard) fan-out → shard-local top-k in a cached-shard task pool →
# groupby(query_id) TopDocs-merge reduce. This is the multi-node layout:
# each worker holds only its shard set, global stats come from the build
# manifest + a per-term stats sum gathered per query.
# ---------------------------------------------------------------------------

_PROCESS_SHARDS: dict = {}
_PROCESS_STATS: dict = {}


def _stats_searcher(manifest_ref) -> IndexSearcher:
    """Per-process DICTIONARY-ONLY searcher for the fan-out's rewrite +
    stats pass: one lazy pruned-column DictStatsReader per partition
    (term/df/ttf, never postings blobs), so neither the driver nor the
    fan-out closure ever holds an open index — the closure carries only
    the manifest ObjectRef. Norms and postings are untouched; execute()
    on this searcher would find no postings and must never be called."""
    import ray

    from .segment import DictStatsReader

    key = manifest_ref.hex()
    s = _PROCESS_STATS.get(key)
    if s is None:
        import os

        manifest = ray.get(manifest_ref)

        def _readers(rows):
            return [
                DictStatsReader(os.path.join(r["seg_dir"], "terms.parquet"))
                for r in sorted(rows, key=lambda r: r["doc_base"])
            ]

        fields = {
            fld: (_readers(fm["partitions"]), int(fm["doc_count"]), int(fm["sum_ttf"]))
            for fld, fm in (manifest.get("fields") or {}).items()
        }
        s = IndexSearcher.from_segments(
            _readers(manifest["partitions"]),
            int(manifest["doc_count"]),
            int(manifest["sum_ttf"]),
            fields=fields,
        )
        _PROCESS_STATS[key] = s
    return s


def _shard_searcher(manifest_ref, shard_id: int, n_shards: int) -> IndexSearcher:
    """Per-process cache of shard-local searchers: each shard = a subset of
    partition segments, opened once per worker (stats still global).

    Keyed by the ObjectRef HEX (+ the shard split), never id(): id() is a
    reusable memory address, so a later ray.put ref can collide with a
    freed earlier one and silently serve a stale searcher for a different
    index (observed as an order-dependent sharded-vs-single mismatch in
    long sessions)."""
    import ray

    key = (manifest_ref.hex(), shard_id, n_shards)
    s = _PROCESS_SHARDS.get(key)
    if s is None:
        manifest = ray.get(manifest_ref)
        rows = sorted(manifest["partitions"], key=lambda r: r["doc_base"])
        segs = [
            Segment(r["seg_dir"])
            for i, r in enumerate(rows)
            if i % n_shards == shard_id
        ]
        fields = {}
        for fld, fm in (manifest.get("fields") or {}).items():
            frows = sorted(fm["partitions"], key=lambda r: r["doc_base"])
            fsegs = [
                Segment(r["seg_dir"])
                for i, r in enumerate(frows)
                if i % n_shards == shard_id
            ]
            fields[fld] = (fsegs, int(fm["doc_count"]), int(fm["sum_ttf"]))
        s = IndexSearcher.from_segments(
            segs, int(manifest["doc_count"]), int(manifest["sum_ttf"]), fields=fields
        )
        _PROCESS_SHARDS[key] = s
    return s


def search_dataset_sharded(
    queries_ds, manifest: dict, n_shards: int = 4, batch_size: int = 32,
    algorithm: str | None = None, similarity: str = "bm25",
):
    """queries (query_id, query[, k]) → exact global top-k hits.

    The fan-out REWRITES each query once against the full dictionary
    (prefix/range/wildcard/fuzzy → flat SHOULD clauses) and collects global
    (df, ttf) for every term the rewritten query touches — incl. phrase,
    synonym and boost terms — the TermStates.build stats pass. Shard tasks
    execute the flat plan through the normal planner (TAAT/WAND auto) with
    the global stats injected via ``stats_override``, so shard-local scores
    are globally comparable for ALL clause types and the reduce is a pure
    TopDocs merge on (score desc, docID asc)."""
    import pandas as pd
    import ray

    manifest_ref = ray.put(manifest)

    def fanout(batch: pa.Table) -> pa.Table:
        from dataclasses import asdict

        # dictionary-only stats searcher, built once per worker process
        # from the manifest ref — the closure ships NO index state
        full = _stats_searcher(manifest_ref)
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
            s = _shard_searcher(manifest_ref, int(r["shard_id"]), n_shards)
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
                    docs, scores = s.execute(q, int(r["k"]), algorithm=algorithm)
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
