"""Monitor / percolator — the lucene/monitor module (Luwak) re-expressed
as a Ray Data stream stage.

Reference roles:

- ``Monitor.register`` + ``match(Document)`` (monitor/Monitor.java:
  register/match): a set of REGISTERED queries is matched against a
  stream of documents, emitting (document, query) match pairs.
- ``TermFilteredPresearcher`` (monitor/TermFilteredPresearcher.java:
  76-143): each registered query is indexed under a set of ANCHOR terms
  such that any matching document must contain at least one of them; a
  document's tokens select the candidate queries, and queries that can't
  be term-anchored go into the ``__ANYTOKEN__`` bucket (:78-79) and are
  always candidates. The default ``TermWeightor`` weighs LONGER terms
  higher (TermWeightor.java:37 ``lengthWeightor(3, 0.3)``), so for a
  conjunction we anchor on its longest term.
- ``CandidateMatcher`` + ``MemoryIndex`` (monitor/CandidateMatcher.java;
  memory/MemoryIndex.java): each candidate query is executed against a
  single-document in-memory index. Here that is ``matches_doc`` — a
  direct evaluator of the engine's BoolQuery IR over one document's
  token multiset + positions, covering every clause family the parser
  emits (terms, nested bools, phrases exact/sloppy, synonyms, prefixes,
  wildcards, regexps, ranges, fuzzies, boosts, term-set filters,
  min_should_match, match-all).

Ray shape: the compiled query set + anchor index is built ONCE on the
driver (queries are small — the reference holds them in one in-memory
QueryIndex too), shipped once with the task stage
(broadcast, never per batch). Documents stream
through ``map_batches`` with zero-copy Arrow batches; the output is the
(doc_id, query_id) match stream. At 100 TB the document side stays fully
streaming; the query side scales to millions of registered queries
before the broadcast dict itself would need sharding.
"""

from __future__ import annotations

import re
from collections import defaultdict

import numpy as np
import pyarrow as pa

from .analyze import DEFAULT_ANALYZER, Analyzer, tokenize
from .queryparse import BoolQuery, parse_query

__all__ = ["matches_doc", "query_anchors", "compile_queries", "percolate"]


def _pos_of(tokens: list[str], positions: np.ndarray) -> dict[str, list[int]]:
    out: dict[str, list[int]] = defaultdict(list)
    for t, p in zip(tokens, positions.tolist()):
        out[t].append(p)
    return out


def _phrase_hits(
    pos_of: dict[str, list[int]], phrase: tuple[str, ...], slop: int
) -> bool:
    """Single-doc phrase check with the searcher's semantics
    (_phrase_postings over a MemoryIndex-sized doc)."""
    adj = []
    for i, t in enumerate(phrase):
        ps = pos_of.get(t)
        if not ps:
            return False
        adj.append(np.array(ps, dtype=np.int64) - i)
    if slop == 0:
        match = adj[0]
        for nxt in adj[1:]:
            match = np.intersect1d(match, nxt, assume_unique=True)
            if len(match) == 0:
                return False
        return True
    from .search import _sloppy_freq

    return _sloppy_freq(adj, slop, phrase) > 0.0


def _wild_re(pattern: str) -> re.Pattern:
    parts = []
    for ch in pattern:
        if ch == "*":
            parts.append(".*")
        elif ch == "?":
            parts.append(".")
        else:
            parts.append(re.escape(ch))
    return re.compile("".join(parts))


def matches_doc(
    q: BoolQuery, tokens: list[str], positions: np.ndarray
) -> bool:
    """Does one document match the query? (CandidateMatcher.matchQuery
    over a MemoryIndex — the observable BooleanQuery clause semantics of
    the TAAT searcher, minus scoring.)"""
    tokset = set(tokens)
    pos_of = None

    def _pos():
        nonlocal pos_of
        if pos_of is None:
            pos_of = _pos_of(tokens, positions)
        return pos_of

    for t in q.must:
        if t not in tokset:
            return False
    for sub in q.sub_must:
        if not matches_doc(sub, tokens, positions):
            return False
    for t in q.must_not:
        if t in tokset:
            return False
    for sub in q.sub_must_not:
        if matches_doc(sub, tokens, positions):
            return False
    for ts in q.term_sets:
        if not tokset.intersection(ts):
            return False

    opt_total = 0
    opt_hits = 0

    def opt(hit: bool):
        nonlocal opt_total, opt_hits
        opt_total += 1
        if hit:
            opt_hits += 1

    for t in q.should:
        opt(t in tokset)
    for group in q.synonyms:
        opt(any(t in tokset for t in group))
    for t, _boost in q.boosts:
        opt(t in tokset)
    for phrase in q.phrases:
        opt(_phrase_hits(_pos(), phrase, 0))
    for phrase, slop in q.sloppy:
        opt(_phrase_hits(_pos(), phrase, slop))
    for pfx in q.prefixes:
        opt(any(t.startswith(pfx) for t in tokset))
    for pat in q.wildcards:
        rx = _wild_re(pat)
        opt(any(rx.fullmatch(t) for t in tokset))
    for pat in q.regexps:
        rx = re.compile(pat)
        opt(any(rx.fullmatch(t) for t in tokset))
    for lo, hi in q.ranges:
        opt(any(lo <= t <= hi for t in tokset))
    for term, max_e in q.fuzzies:
        from .suggest import levenshtein_banded

        opt(any(levenshtein_banded(term, t, max_e) <= max_e for t in tokset))
    for sub in q.sub_should:
        opt(matches_doc(sub, tokens, positions))

    if q.min_should_match and opt_hits < q.min_should_match:
        return False
    has_required = bool(
        q.must or q.sub_must or q.term_sets or q.match_all
    )
    if has_required:
        return True
    if opt_total == 0:
        return False  # empty query matches nothing
    return opt_hits > 0


_ANYTOKEN = "__ANYTOKEN__"  # TermFilteredPresearcher.java:79


def _phrase_anchor(phrase: tuple[str, ...]) -> str:
    # every phrase term must be present; the default weightor favors
    # the longest (TermWeightor.java:37)
    return max(phrase, key=lambda t: (len(t), t))


def query_anchors(q: BoolQuery) -> set[str] | None:
    """Anchor-term set for the presearcher: every matching doc contains
    at least one anchor. None = unanchorable -> __ANYTOKEN__ bucket."""
    if q.match_all:
        return None
    if q.must:
        return {max(q.must, key=lambda t: (len(t), t))}
    for sub in q.sub_must:  # any conjoined sub's anchors suffice
        a = query_anchors(sub)
        if a is not None:
            return a
    if q.sub_must:
        return None
    # phrases in a purely-optional query: only anchorable when they are
    # the sole route to a match (handled below as optional clauses)
    anchors: set[str] = set()
    if q.prefixes or q.wildcards or q.regexps or q.ranges or q.fuzzies:
        return None  # multi-term clause can match terms we can't enumerate
    for t in q.should:
        anchors.add(t)
    for group in q.synonyms:
        anchors.update(group)
    for t, _b in q.boosts:
        anchors.add(t)
    for phrase in q.phrases:
        anchors.add(_phrase_anchor(phrase))
    for phrase, _slop in q.sloppy:
        anchors.add(_phrase_anchor(phrase))
    for sub in q.sub_should:
        a = query_anchors(sub)
        if a is None:
            return None
        anchors.update(a)
    if anchors:
        return anchors
    if q.term_sets:  # pure-filter query: one set is a valid disjunction
        return set(q.term_sets[0])
    return None  # pure MUST_NOT etc.


def compile_queries(
    queries: list[tuple[object, str]], analyzer: Analyzer = DEFAULT_ANALYZER
) -> tuple[dict, dict, list]:
    """(compiled, anchor_map, always): parse once on the driver, build the
    term -> [query_id] presearcher index (QueryIndex role)."""
    compiled = {}
    anchor_map: dict[str, list] = defaultdict(list)
    always: list = []
    for qid, qs in queries:
        ir = parse_query(qs, analyzer)
        compiled[qid] = ir
        anchors = query_anchors(ir)
        if anchors is None:
            always.append(qid)
        else:
            for t in anchors:
                anchor_map[t].append(qid)
    return compiled, dict(anchor_map), always


class PercolatorStage:
    """The percolator's stateful stage: it holds the compiled query set,
    and each document batch is tokenized and matched against its
    candidate queries."""

    def __init__(self, compiled: dict, anchor_map: dict, always: list, analyzer: Analyzer = DEFAULT_ANALYZER):
        self.compiled = compiled
        self.anchor_map = anchor_map
        self.always = always
        self.analyzer = analyzer

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        texts = batch.column("text").to_pylist()
        out_doc, out_qid = [], []
        for did, text in zip(doc_ids, texts):
            toks = tokenize(text or "", self.analyzer)
            positions = np.arange(len(toks), dtype=np.int64)
            if self.analyzer.stopwords:
                # gap-correct positions for stop-filtered analyzers
                from .analyze import analyze_batch_with_positions

                toks2, _, positions = analyze_batch_with_positions(
                    [text or ""], self.analyzer
                )
                toks = toks2
            cand: set = set(self.always)
            seen = set()
            for t in toks:
                if t in seen:
                    continue
                seen.add(t)
                ids = self.anchor_map.get(t)
                if ids:
                    cand.update(ids)
            for qid in sorted(cand, key=str):
                if matches_doc(self.compiled[qid], toks, positions):
                    out_doc.append(did)
                    out_qid.append(qid)
        return pa.table(
            {
                "doc_id": pa.array(out_doc, type=pa.int64()),
                "query_id": pa.array([str(x) for x in out_qid], type=pa.string()),
            }
        )


def percolate(
    docs_ds,
    queries: list[tuple[object, str]],
    analyzer: Analyzer = DEFAULT_ANALYZER,
    batch_size: int = 256,
):
    """Match a registered query set against a document Dataset
    (Monitor.match over a stream). Returns a Dataset of (doc_id,
    query_id) pairs.

    One task stage (``rayenv.ProcessStage``): the compiled query set (a
    few KB) ships once with the stage, never per batch, and no
    ``ray.put`` handle outlives this function's frame."""
    from .rayenv import ProcessStage, remote_args

    return docs_ds.map_batches(
        ProcessStage(PercolatorStage, *compile_queries(queries, analyzer), analyzer),
        batch_format="pyarrow",
        batch_size=batch_size,
        **remote_args(),
    )
