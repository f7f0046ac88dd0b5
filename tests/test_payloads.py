"""Payload stream (DelimitedPayloadTokenFilter + .pay payload half) and
PayloadScoreQuery functions (queries/payloads)."""

import numpy as np
import pytest

from engine.analyze import analyze_batch_with_payloads
from engine.build import invert_to_segment
from engine.checkpoint import finalize_build_manifest
from engine.codec import (
    decode_payloads,
    encode_payloads,
    payload_as_float,
    payload_as_int,
)
from engine.payloads import payload_term_scores, payload_term_table
from engine.segment import Segment

TEXTS0 = [
    "alpha|3 beta|1 alpha|7",
    "beta|2 gamma",  # gamma carries no payload
    "alpha beta|5",  # alpha occurrence without payload
]
TEXTS1 = [
    "alpha|10 alpha|20",
    "delta|0",  # payload value 0 must round-trip (stored as word 1)
]


@pytest.fixture(scope="module")
def pay_idx(tmp_path_factory):
    root = tmp_path_factory.mktemp("payidx")
    rows = []
    for si, (lo, texts) in enumerate([(0, TEXTS0), (100, TEXTS1)]):
        seg_dir = str(root / f"partitions/p{lo:012d}")
        meta = invert_to_segment(
            np.arange(lo, lo + len(texts), dtype=np.int64),
            texts,
            seg_dir,
            payload_delimiter="|",
        )
        rows.append(
            {
                "seg_dir": seg_dir,
                "doc_base": meta["doc_base"],
                "n_docs": meta["n_docs"],
                "sum_ttf": meta["sum_ttf"],
                "n_terms": meta["n_terms"],
                "wall_ms": meta["wall_ms"],
            }
        )
    finalize_build_manifest(str(root), rows)
    return root, rows


def test_payload_codec_roundtrip():
    words = np.array([0, 1, 5, 0, 2**32], dtype=np.uint64)  # 2**32 = value 2^32-1
    blob = encode_payloads(words)
    out = decode_payloads(blob, np.array([2, 3]))
    assert [o.tolist() for o in out] == [[0, 1], [5, 0, 2**32]]
    vals, present = payload_as_int(np.array([0, 1, 8], dtype=np.uint64))
    assert vals.tolist() == [0, 0, 7]
    assert present.tolist() == [False, True, True]
    f = np.float32(2.5)
    word = np.array([int(f.view(np.uint32)) + 1], dtype=np.uint64)
    fv, fp = payload_as_float(word)
    assert fp.tolist() == [True] and fv[0] == f


def test_payload_analysis_chain():
    flat, lengths, pos, pay = analyze_batch_with_payloads(
        ["Alpha|3 beta", "x|bad y|4"], delimiter="|"
    )
    assert flat == ["alpha", "beta", "x", "bad", "y"]
    # 'x|bad': unparsable payload -> whole word is the term ('x','bad' via
    # tokenize of 'x|bad'); 'y|4' parses
    assert lengths.tolist() == [2, 3]
    assert pay.tolist() == [4, 0, 0, 0, 5]  # value+1 words; 0 = absent
    assert pos.tolist() == [0, 1, 0, 1, 2]


def test_payload_segment_accessor(pay_idx):
    root, rows = pay_idx
    seg = Segment(rows[0]["seg_dir"])
    pl = seg.payloads("alpha")
    # alpha: doc0 payloads (3,7), doc2 none
    assert [p.tolist() for p in pl] == [[4, 8], [0]]
    assert seg.payloads("zzz") is None


def test_payload_score_functions(pay_idx):
    root, rows = pay_idx
    seg = Segment(rows[0]["seg_dir"])
    docs, s_sum = payload_term_scores(seg, "alpha", func="sum")
    assert docs.tolist() == [0, 2]
    assert s_sum.tolist() == [10.0, 0.0]  # doc2: no payloads seen -> 0
    _, s_min = payload_term_scores(seg, "alpha", func="min")
    _, s_max = payload_term_scores(seg, "alpha", func="max")
    _, s_avg = payload_term_scores(seg, "alpha", func="avg")
    assert s_min.tolist() == [3.0, 0.0]
    assert s_max.tolist() == [7.0, 0.0]
    assert s_avg.tolist() == [5.0, 0.0]  # avg over payloadsSeen, not freq
    with pytest.raises(ValueError):
        payload_term_scores(seg, "alpha", func="median")


def test_payload_table_multi_segment(pay_idx):
    root, rows = pay_idx
    segs = [Segment(r["seg_dir"]) for r in rows]
    t = payload_term_table(segs, "alpha").to_pandas()
    # doc 0 (3,7), doc 2 skipped (no payloads), doc 100 (10,20)
    assert t["doc_id"].tolist() == [0, 100]
    assert t["pay_sum"].tolist() == [10, 30]
    assert t["pay_min"].tolist() == [3, 10]
    assert t["pay_max"].tolist() == [7, 20]
    assert t["pay_cnt"].tolist() == [2, 2]
    # zero payload VALUE is present (distinct from absent)
    t0 = payload_term_table(segs, "delta").to_pandas()
    assert t0["doc_id"].tolist() == [101]
    assert t0["pay_sum"].tolist() == [0] and t0["pay_cnt"].tolist() == [1]


def test_payload_checkindex(pay_idx):
    from engine.checkindex import check_segment

    root, rows = pay_idx
    for r in rows:
        check_segment(Segment(r["seg_dir"]))
