"""Seeded inputs and the exhaustive correctness gate.

Everything here is a pure function of the workload seed: the corpus (via
``engine.fixtures.make_pages``) and the query streams. The
oracle scores each query by brute force over the decoded postings and
norms, replaying the engine's float32/float64 op order, so a correct
result matches it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CORPUS_DOCS = 4000
INPUT_FILES = 4
PARTITION_DOCS = 1000

VOCAB = 10_000  # engine.fixtures.VOCAB_SIZE: t00000..t09999, Zipf by rank
STOP_BAND = [f"the{j:02d}" for j in range(20)]  # df 60-95% of docs
# the 48 highest-df terms of the generator: the stop band plus the 28
# most probable Zipf ranks (their postings fit the 128-term postings LRU)
HEAD_POOL = STOP_BAND + [f"t{i:05d}" for i in range(28)]
TAIL_POOL = [f"t{i:05d}" for i in range(VOCAB)]


@dataclass(frozen=True)
class Query:
    qid: int
    cls: str
    text: str
    k: int
    must: tuple[str, ...] = ()
    should: tuple[str, ...] = ()
    must_not: tuple[str, ...] = ()


class _Balanced:
    """Seeded term draws that cover a pool evenly, so two seeds ask for the
    same amount of work: the pool is cut into ``strata`` runs of adjacent
    ranks, and each round takes one random term from every stratum, in a
    random order. A query takes ``n`` consecutive terms of one round, which
    are therefore distinct."""

    def __init__(self, pool: list[str], strata: int, rng):
        self.groups = [pool[i * len(pool) // strata : (i + 1) * len(pool) // strata] for i in range(strata)]
        self.rng = rng
        self.round: list[str] = []

    def take(self, n: int) -> list[str]:
        if len(self.round) < n:
            self.round = [g[self.rng.integers(len(g))] for g in self.groups]
            self.rng.shuffle(self.round)
        out, self.round = self.round[:n], self.round[n:]
        return out


def _or(terms, k):
    return " ".join(terms), k, (), tuple(terms), ()


def _and(terms):
    return f"{terms[0]} AND {terms[1]}", 10, tuple(terms), (), ()


def _must_should(terms):
    return f"+{terms[0]} {terms[1]}", 10, (terms[0],), (terms[1],), ()


def _exclude(terms):
    return f"{terms[0]} -{terms[1]}", 10, (), (terms[0],), (terms[1],)


# class -> (term pool, strata, terms per query, make(terms) ->
# (text, k, must, should, must_not))
CLASSES = {
    "head.or3_stop": (STOP_BAND, 20, 3, lambda t: _or(t, 10)),
    "head.or5": (HEAD_POOL, 48, 5, lambda t: _or(t, 25)),
    "head.and2": (HEAD_POOL, 48, 2, _and),
    "head.must_should": (HEAD_POOL, 48, 2, _must_should),
    "head.exclude": (HEAD_POOL, 48, 2, _exclude),
    "head.single_k1000": (HEAD_POOL, 48, 1, lambda t: _or(t, 1000)),
    "tail.single": (TAIL_POOL, 100, 1, lambda t: _or(t, 10)),
    "tail.or2": (TAIL_POOL, 100, 2, lambda t: _or(t, 10)),
    "tail.and2": (TAIL_POOL, 100, 2, _and),
    # no term of the generator's vocabulary has this shape
    "tail.nomatch": ([f"zq{i:04d}" for i in range(10_000)], 100, 1, lambda t: _or(t, 10)),
}

# query_head weighs its classes equally. query_tail has fewer cheap
# queries: shard-LRU hits and misses split its latencies into modes about
# 2 ms apart, and with equal weights the median fell in the gap between
# them and jumped from run to run. With 1:2:6:6 it lies inside the
# one-shard-load mode.
HEAD_MIX = {c: 100 for c in CLASSES if c.startswith("head.")}
TAIL_MIX = {"tail.single": 50, "tail.or2": 150, "tail.and2": 150, "tail.nomatch": 25}


def make_queries(mix: dict[str, int], seed: int) -> list[Query]:
    """``mix[c]`` queries of each class ``c``, in a seeded order; query ids
    are ``0..n-1``."""
    rng = np.random.default_rng([seed, 7919])
    built = []
    for c, count in mix.items():
        pool, strata, n, build = CLASSES[c]
        draw = _Balanced(pool, strata, rng)
        built += [(c, build(draw.take(n))) for _ in range(count)]
    order = rng.permutation(len(built))
    return [Query(i, built[j][0], *built[j][1]) for i, j in enumerate(order)]


# ---------------------------------------------------------------------------
# exhaustive oracle + gate
# ---------------------------------------------------------------------------

_EMPTY = (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float32))


class Oracle:
    """Brute-force top-k over a reader's decoded postings and norms.

    ``reader`` is anything with ``postings(term)``, ``norm_of(doc_ids)``,
    ``doc_base`` and ``norm_span`` (a ``MergedIndex`` or a ``Segment``).
    Only the term structure the generator chose is used; the query text is
    never parsed here, so a parser fault shows as a mismatch."""

    def __init__(self, reader, doc_count: int, sum_ttf: int):
        from engine.bm25 import make_term_scorer

        self.reader = reader
        self.base = int(reader.doc_base)
        self.norms = reader.norm_of(np.arange(self.base, self.base + reader.norm_span))
        self._scorer = lambda df: make_term_scorer(df, doc_count, sum_ttf)

    def _post(self, t):
        docs, freqs = self.reader.postings(t)
        return docs - self.base, freqs

    def topk(self, q: Query) -> tuple[np.ndarray, np.ndarray]:
        from engine.bm25 import brute_force_topk, topk_sort

        post = {t: self._post(t) for t in q.must + q.should + q.must_not}
        live = {t: self._scorer(len(post[t][0])) for t in q.must + q.should if len(post[t][0])}
        if any(t not in live for t in q.must):
            return _EMPTY
        should = [t for t in q.should if t in live]
        terms = list(q.must) + should
        if not terms:
            return _EMPTY
        if not q.must_not and (not q.must or not should):
            docs, scores = brute_force_topk(
                [post[t] for t in terms], [live[t] for t in terms], self.norms, q.k,
                mode="and" if q.must else "or",
            )
            return docs + self.base, scores
        # masked replay for +must / -exclude, same accumulation order as
        # the exhaustive plan: must terms, then should terms, then the mask
        acc = np.zeros(len(self.norms), dtype=np.float64)
        matched = np.zeros(len(self.norms), dtype=bool)
        must_cnt = np.zeros(len(self.norms), dtype=np.int16)
        for i, t in enumerate(terms):
            docs, freqs = post[t]
            acc[docs] += live[t].score(freqs, self.norms[docs]).astype(np.float64)
            matched[docs] = True
            if i < len(q.must):
                must_cnt[docs] += 1
        sel = must_cnt == len(q.must) if q.must else matched
        for t in q.must_not:
            sel[post[t][0]] = False
        hit = np.flatnonzero(sel)
        docs, scores = topk_sort(hit, acc[hit].astype(np.float32), q.k)
        return docs + self.base, scores


def same_hits(expected, got) -> bool:
    """Same docIDs in the same order and bit-identical float32 scores."""
    ed, es = expected
    gd, gs = got
    return (
        len(ed) == len(gd)
        and np.array_equal(np.asarray(ed, dtype=np.int64), np.asarray(gd, dtype=np.int64))
        and np.array_equal(
            np.asarray(es, dtype=np.float32).view(np.uint32),
            np.asarray(gs, dtype=np.float32).view(np.uint32),
        )
    )
