"""The benchmark's correctness gate, without Ray.

    python3 -m pytest perfbench/test_gate.py -q

One in-process segment stands in for the merged index: the oracle must
agree with ``IndexSearcher.search`` bit for bit on every query class, and
a corrupted expectation must be counted as a failed operation.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.dirname(HERE), HERE]

import streams  # noqa: E402
from run import Bench  # noqa: E402


@pytest.fixture(scope="module")
def index(tmp_path_factory):
    from engine.build import invert_to_segment
    from engine.fixtures import make_pages
    from engine.search import IndexSearcher
    from engine.segment import Segment

    pages = make_pages(400, seed=3)
    seg_dir = str(tmp_path_factory.mktemp("gate") / "seg")
    meta = invert_to_segment(pages.column("doc_id").to_numpy(), pages.column("text").to_pylist(), seg_dir)
    manifest = {"partitions": [{"seg_dir": seg_dir, "doc_base": meta["doc_base"]}],
                "doc_count": meta["n_docs"], "sum_ttf": meta["sum_ttf"]}
    oracle = streams.Oracle(Segment(seg_dir), meta["n_docs"], meta["sum_ttf"])
    queries = streams.make_queries({c: 6 for c in streams.CLASSES}, seed=5)
    return IndexSearcher(manifest), queries, {q.qid: oracle.topk(q) for q in queries}


def bench():
    return Bench(argparse.Namespace(workload="query_head", seed=5, seconds=1, trace=0))


def test_oracle_matches_engine_on_every_class(index):
    searcher, queries, expected = index
    assert {q.cls for q in queries} == set(streams.CLASSES)
    assert any(len(expected[q.qid][0]) > 1 for q in queries)
    b = bench()
    lat = b.timed_pass(searcher, queries, expected)
    assert (b.attempted, b.failed, len(lat)) == (len(queries), 0, len(queries)), b.errors


def _corruptions(docs, scores):
    up = scores.copy()
    up[-1] = np.nextafter(up[-1], np.float32(np.inf))  # one ulp
    swapped = docs.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    return [(docs, up), (swapped, scores), (docs[:-1], scores[:-1])]


def test_corrupted_expectation_is_flagged(index):
    searcher, queries, expected = index
    q = next(q for q in queries if len(expected[q.qid][0]) > 1)
    for bad in _corruptions(*expected[q.qid]):
        assert not streams.same_hits(bad, expected[q.qid])
        b = bench()
        b.timed_pass(searcher, [q], {q.qid: bad})
        assert (b.attempted, b.failed) == (1, 1)
        assert b.errors and b.errors[0].startswith("mismatch")
