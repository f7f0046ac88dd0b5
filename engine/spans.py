"""Span queries — the lucene/core search/spans family re-expressed over
the engine's prox stream.

Reference semantics (cited per node below):

- SpanTermQuery (spans/TermSpans.java): one span (p, p+1, width 0) per
  position of the term.
- SpanNearQuery ordered (spans/NearSpansOrdered.java:60-121): for each
  span of clause 0 in order, stretch the remaining clauses monotonically
  to the FIRST sub-span whose start >= previous end (advancePosition,
  :123-130 — iterators never rewind within a doc); the match width is the
  sum of the gaps (stretchToOrder :113 `matchWidth += start - prevEnd`);
  a candidate matches iff width <= slop, and one sub-clause exhausting
  ends the doc (:110-112 oneExhaustedInCurrentDoc).
- SpanNearQuery unordered (spans/NearSpansUnordered.java:43-97): a
  priority-queue window ordered by (start, end) over one current span per
  clause; the state matches iff maxEnd - minStart - totalSpanLength <=
  slop (atMatch :94), emitting (minStart, maxEnd) and advancing the min
  each step.
- SpanOrQuery (spans/SpanOrQuery.java): the (start, end)-merged union of
  the sub-spans' matches per doc.
- SpanNotQuery (spans/SpanNotQuery.java:149-190): an include span is
  rejected iff some exclude span overlaps its [start - pre, end + post)
  expansion (accept(): exclude.end > start - pre and exclude.start - post
  < end).
- SpanFirstQuery / SpanPositionRangeQuery (SpanPositionRangeQuery.java:
  41-48): keep spans with start >= lo and end <= hi; SpanFirst is the
  lo == 0 case.
- SpanScorer freq (spans/SpanScorer.java:84-115): per matching doc,
  freq is a float32 accumulator over matches of 1/(1 + width) with each
  addition performed in double then narrowed (Java `float +=` compound
  cast); numMatches counts every emitted span. SpanWeight builds ONE
  sim weight from the stats of every term in the tree (SpanWeight.java
  buildSimWeight — the same summed-idf shape as make_phrase_scorer).

Evaluation is per segment (the per-LeafReader shape): each node returns
``{global_doc_id: ndarray[N, 3]}`` of (start, end, width) rows ordered the
way the reference's iterator emits them. Distribution: span pipelines
fan the SAME per-segment evaluation across the index's partition
segments (one task per segment via the searcher's segment list), so
nothing whole-corpus ever sits in one process.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SpanTerm",
    "SpanNear",
    "SpanOr",
    "SpanNot",
    "SpanRange",
    "SpanContaining",
    "SpanWithin",
    "span_first",
    "eval_spans",
    "span_terms",
    "span_freqs",
]


@dataclass(frozen=True)
class SpanTerm:
    term: str


@dataclass(frozen=True)
class SpanNear:
    clauses: tuple  # of span nodes
    slop: int = 0
    in_order: bool = True


@dataclass(frozen=True)
class SpanOr:
    clauses: tuple


@dataclass(frozen=True)
class SpanNot:
    include: object
    exclude: object
    pre: int = 0
    post: int = 0


@dataclass(frozen=True)
class SpanRange:
    match: object
    lo: int = 0
    hi: int = 2**31 - 1


@dataclass(frozen=True)
class SpanContaining:
    """SpanContainingQuery (spans/SpanContainingQuery.java:78-116): emit
    the big spans that contain a little span, via the reference's greedy
    monotone walk — for each big span in emission order, advance little
    while little.start < big.start (the little iterator never rewinds),
    then emit big iff big.end >= little.end."""

    big: object
    little: object


@dataclass(frozen=True)
class SpanWithin:
    """SpanWithinQuery (spans/SpanWithinQuery.java:79-96): emit the
    little spans enclosed in a big span — for each little span in order,
    advance big while big.end < little.end, then emit little iff
    big.start <= little.start."""

    big: object
    little: object


def span_first(match, end: int) -> SpanRange:
    """SpanFirstQuery.java:38-46 — SpanPositionRange with lo=0."""
    return SpanRange(match, 0, end)


def span_terms(q) -> list[str]:
    """All terms in the tree, in clause order (SpanWeight stats set)."""
    if isinstance(q, SpanTerm):
        return [q.term]
    if isinstance(q, SpanNear) or isinstance(q, SpanOr):
        out = []
        for c in q.clauses:
            out.extend(span_terms(c))
        return out
    if isinstance(q, (SpanContaining, SpanWithin)):
        # SpanContainQuery extracts both sides (ConjunctionSpans weights)
        return span_terms(q.big) + span_terms(q.little)
    if isinstance(q, SpanNot):
        # SpanNotWeight extracts include terms only for scoring
        return span_terms(q.include)
    if isinstance(q, SpanRange):
        return span_terms(q.match)
    raise TypeError(f"not a span node: {q!r}")


_EMPTY = np.empty((0, 3), dtype=np.int64)


def _near_ordered(subs: list[np.ndarray], slop: int) -> np.ndarray:
    """NearSpansOrdered.java:60-121 greedy stretch with persistent
    pointers; width = sum of inter-clause gaps."""
    first = subs[0]
    k = len(subs)
    ptr = [0] * k
    out = []
    for row in first:
        st0, en0 = int(row[0]), int(row[1])
        prev_end = en0
        width = 0
        for i in range(1, k):
            arr = subs[i]
            n = len(arr)
            j = ptr[i]
            while j < n and arr[j, 0] < prev_end:
                j += 1
            ptr[i] = j
            if j >= n:  # oneExhaustedInCurrentDoc — doc is done
                return np.array(out, dtype=np.int64).reshape(-1, 3)
            width += int(arr[j, 0]) - prev_end
            prev_end = int(arr[j, 1])
        if width <= slop:
            out.append((st0, prev_end, width))
    return np.array(out, dtype=np.int64).reshape(-1, 3)


def _near_unordered(subs: list[np.ndarray], slop: int) -> np.ndarray:
    """NearSpansUnordered.java:43-120 window scan: one current span per
    clause in a (start, end) priority queue; a state matches when
    maxEnd - minStart - totalSpanLength <= slop; advance the min."""
    k = len(subs)
    ptr = [0] * k
    heap = []
    total_len = 0
    max_end = -1
    for i in range(k):
        st, en = int(subs[i][0, 0]), int(subs[i][0, 1])
        heap.append((st, en, i))
        total_len += en - st
        max_end = max(max_end, en)
    heapq.heapify(heap)
    out = []
    while True:
        st, en, i = heap[0]
        if max_end - st - total_len <= slop:
            out.append((st, max_end, max_end - st - total_len))
        ptr[i] += 1
        arr = subs[i]
        if ptr[i] >= len(arr):
            break
        nst, nen = int(arr[ptr[i], 0]), int(arr[ptr[i], 1])
        total_len += (nen - nst) - (en - st)
        max_end = max(max_end, nen)
        heapq.heapreplace(heap, (nst, nen, i))
    return np.array(out, dtype=np.int64).reshape(-1, 3)


def _not_filter(
    inc: np.ndarray, exc: np.ndarray, pre: int, post: int
) -> np.ndarray:
    """SpanNotQuery.java:149-190: reject include spans overlapped by any
    exclude span expanded by (pre, post). Vectorized via a prefix max of
    exclude ends over exclude starts."""
    if len(exc) == 0:
        return inc
    order = np.lexsort((exc[:, 1], exc[:, 0]))
    es = exc[order, 0]
    ee_prefmax = np.maximum.accumulate(exc[order, 1])
    # exclude qualifies iff es - post < inc_end  AND  ee > inc_start - pre
    idx = np.searchsorted(es, inc[:, 1] + post, side="left")  # es < end+post
    has_any = idx > 0
    max_ee = np.where(has_any, ee_prefmax[np.maximum(idx - 1, 0)], -(2**60))
    keep = ~(has_any & (max_ee > inc[:, 0] - pre))
    return inc[keep]


def eval_spans(seg, q) -> dict[int, np.ndarray]:
    """Evaluate a span tree over one segment: {doc_id: (start, end, width)
    rows in emission order}. Requires a positions-indexed segment."""
    if isinstance(q, SpanTerm):
        ti = seg.term_info(q.term)
        if ti is None:
            return {}
        if not ti.pos_blob:
            raise ValueError(
                f"span query needs positions but term {q.term!r} has no prox stream"
            )
        docs, _ = seg.postings(q.term)
        pos = seg.positions(q.term)
        out = {}
        for d, p in zip(docs.tolist(), pos):
            spans = np.empty((len(p), 3), dtype=np.int64)
            spans[:, 0] = p
            spans[:, 1] = p + 1
            spans[:, 2] = 0
            out[d] = spans
        return out
    if isinstance(q, SpanNear):
        subs = [eval_spans(seg, c) for c in q.clauses]
        if not subs:
            return {}
        common = set(subs[0])
        for s in subs[1:]:
            common &= set(s)
        fn = _near_ordered if q.in_order else _near_unordered
        out = {}
        for d in sorted(common):
            m = fn([s[d] for s in subs], q.slop)
            if len(m):
                out[d] = m
        return out
    if isinstance(q, SpanOr):
        subs = [eval_spans(seg, c) for c in q.clauses]
        out = {}
        for s in subs:
            for d, spans in s.items():
                out.setdefault(d, []).append(spans)
        merged = {}
        for d, parts in out.items():
            cat = np.concatenate(parts) if len(parts) > 1 else parts[0]
            order = np.lexsort((cat[:, 1], cat[:, 0]))
            merged[d] = cat[order]
        return merged
    if isinstance(q, SpanNot):
        inc = eval_spans(seg, q.include)
        exc = eval_spans(seg, q.exclude)
        out = {}
        for d, spans in inc.items():
            kept = _not_filter(spans, exc.get(d, _EMPTY), q.pre, q.post)
            if len(kept):
                out[d] = kept
        return out
    if isinstance(q, SpanRange):
        sub = eval_spans(seg, q.match)
        out = {}
        for d, spans in sub.items():
            kept = spans[(spans[:, 0] >= q.lo) & (spans[:, 1] <= q.hi)]
            if len(kept):
                out[d] = kept
        return out
    if isinstance(q, (SpanContaining, SpanWithin)):
        big = eval_spans(seg, q.big)
        little = eval_spans(seg, q.little)
        out = {}
        for d in sorted(set(big) & set(little)):
            kept = (
                _contain_walk(big[d], little[d])
                if isinstance(q, SpanContaining)
                else _within_walk(big[d], little[d])
            )
            if len(kept):
                out[d] = kept
        return out
    raise TypeError(f"not a span node: {q!r}")


def _contain_walk(big: np.ndarray, little: np.ndarray) -> np.ndarray:
    """SpanContainingQuery.java:98-116 nextStartPosition loop: the little
    pointer is monotone across bigs (never rewinds in a doc)."""
    kept = []
    li = 0
    for bi in range(len(big)):
        while little[li, 0] < big[bi, 0]:
            li += 1
            if li == len(little):
                return big[kept] if kept else _EMPTY
        if big[bi, 1] >= little[li, 1]:
            kept.append(bi)
    return big[kept] if kept else _EMPTY


def _within_walk(big: np.ndarray, little: np.ndarray) -> np.ndarray:
    """SpanWithinQuery.java:98-118 nextStartPosition loop: the big
    pointer is monotone across littles."""
    kept = []
    bi = 0
    for li in range(len(little)):
        while big[bi, 1] < little[li, 1]:
            bi += 1
            if bi == len(big):
                return little[kept] if kept else _EMPTY
        if big[bi, 0] <= little[li, 0]:
            kept.append(li)
    return little[kept] if kept else _EMPTY


def span_freqs(
    seg, q
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(docs, float32 sloppy freqs, int64 match counts) for one segment —
    SpanScorer.setFreqCurrentDoc (SpanScorer.java:84-115): freq is a
    float32 accumulator of 1/(1 + width), each addition in double then
    narrowed (Java float compound assignment)."""
    matches = eval_spans(seg, q)
    docs = np.array(sorted(matches), dtype=np.int64)
    freqs = np.empty(len(docs), dtype=np.float32)
    counts = np.empty(len(docs), dtype=np.int64)
    for i, d in enumerate(docs.tolist()):
        w = matches[d][:, 2]
        f = np.float32(0.0)
        for x in (1.0 / (1.0 + w.astype(np.float64))).tolist():
            f = np.float32(np.float64(f) + x)
        freqs[i] = f
        counts[i] = len(w)
    return docs, freqs, counts
