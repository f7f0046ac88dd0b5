"""Codec round-trips (model: TestForUtil/TestPForUtil/TestForDeltaUtil and
BasePostingsFormatTestCase randomized corpora)."""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engine.codec import (
    BLOCK_SIZE,
    decode_block,
    decode_term_postings,
    decode_terms,
    encode_term_postings,
    encode_terms,
    impact_frontier,
    pack_block,
    read_vints,
    unpack_block,
    vint_byte_counts,
    write_vints,
)


# ---------------------------------------------------------------- vint


@given(st.lists(st.integers(min_value=0, max_value=2**63 - 1), max_size=300))
@settings(max_examples=60, deadline=None)
def test_vint_roundtrip(vals):
    arr = np.array(vals, dtype=np.uint64)
    buf = write_vints(arr)
    out, off = read_vints(buf, len(vals))
    np.testing.assert_array_equal(out, arr)
    assert off == len(buf)


def test_vint_sizes():
    assert write_vints(np.array([0], dtype=np.uint64)) == b"\x00"
    assert write_vints(np.array([127], dtype=np.uint64)) == b"\x7f"
    assert write_vints(np.array([128], dtype=np.uint64)) == b"\x80\x01"
    assert len(write_vints(np.array([2**63 - 1], dtype=np.uint64))) == 9


def test_vint_concat_streams():
    a = np.array([5, 300, 1], dtype=np.uint64)
    b = np.array([2**40], dtype=np.uint64)
    buf = write_vints(a) + write_vints(b)
    va, off = read_vints(buf, 3)
    vb, off = read_vints(buf, 1, off)
    np.testing.assert_array_equal(va, a)
    np.testing.assert_array_equal(vb, b)


@pytest.mark.parametrize("nbytes", range(1, 11))
def test_read_vints_scalar_matches_vectorized(nbytes):
    """Below 32 values ``read_vints`` decodes with a byte loop, from 32 on
    vectorized: both give the same values and next offset, for values of
    every encoded width, at a nonzero offset and across two concatenated
    streams."""
    rng = np.random.default_rng(nbytes)
    lo = 0 if nbytes == 1 else 1 << (7 * (nbytes - 1))
    hi = min(1 << (7 * nbytes), 1 << 64) - 1
    vals = rng.integers(lo, hi, size=40, dtype=np.uint64, endpoint=True)
    assert (vint_byte_counts(vals) == nbytes).all()
    head = write_vints(np.array([3, 300], dtype=np.uint64))
    buf = head + write_vints(vals[:20]) + write_vints(vals[20:])
    full, end = read_vints(buf, 40, len(head))
    np.testing.assert_array_equal(full, vals)
    assert end == len(buf)
    for n in (1, 2, 17, 31, 32, 33):
        got, off = read_vints(buf, n, len(head))
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, vals[:n])
        assert off == len(head) + n * nbytes
    first, off = read_vints(buf, 20, len(head))
    rest, off = read_vints(buf, 20, off)
    np.testing.assert_array_equal(np.concatenate([first, rest]), vals)
    assert off == len(buf)


def test_read_vints_truncated_raises():
    buf = write_vints(np.arange(1000, 1040, dtype=np.uint64))  # 2 bytes each
    for n, cut in ((1, 1), (5, 9), (31, 61), (32, 63), (40, 79)):
        with pytest.raises(ValueError, match="truncated VInt stream"):
            read_vints(buf[:cut], n)
    with pytest.raises(ValueError, match="truncated VInt stream"):
        read_vints(buf, 1, len(buf))
    with pytest.raises(ValueError, match="truncated VInt stream"):
        read_vints(buf, 33, 40)


# ---------------------------------------------------------------- FOR pack


def test_pack_roundtrip():
    """``unpack_block`` inverts ``pack_block`` at every width from 1 to 64,
    on seeded values that include 0 and the width's largest value, read
    from a mid-buffer offset."""
    rng = np.random.default_rng(3)
    for w in range(1, 65):
        arr = rng.integers(0, 2**64 - 1, size=BLOCK_SIZE, dtype=np.uint64, endpoint=True) >> np.uint64(64 - w)
        arr[:2] = [0, (1 << w) - 1]
        buf = pack_block(arr, w)
        assert len(buf) == 16 * w
        raw = np.frombuffer(b"\x9c" * 5 + buf + b"\xff", dtype=np.uint8)
        got = unpack_block(raw, 5, w)
        assert got.dtype == np.uint64
        np.testing.assert_array_equal(got, arr, err_msg=f"width {w}")


# ---------------------------------------------------------------- impacts


def test_impact_frontier_dominance():
    f, n = impact_frontier(np.array([3, 5, 2, 5]), np.array([10, 12, 9, 20]))
    # (5,12) dominates (3,10)? no: norm 12 > 10. pairs: (2,9),(3,10),(5,12),(5,20)
    # (5,20) dominated by (5,12); (3,10) not dominated by (2,9); survivors:
    assert list(zip(f.tolist(), n.tolist())) == [(2, 9), (3, 10), (5, 12)]


def test_impact_frontier_single_norm():
    f, n = impact_frontier(np.array([1, 7, 3]), np.array([4, 4, 4]))
    assert f.tolist() == [7] and n.tolist() == [4]


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=1000),
            st.integers(min_value=0, max_value=255),
        ),
        min_size=1,
        max_size=200,
    )
)
@settings(max_examples=40, deadline=None)
def test_impact_frontier_property(pairs):
    fr = np.array([p[0] for p in pairs])
    no = np.array([p[1] for p in pairs])
    f, n = impact_frontier(fr, no)
    # every input pair is dominated by some frontier pair
    for pf, pn in pairs:
        assert any(ff >= pf and nn <= pn for ff, nn in zip(f.tolist(), n.tolist()))
    # frontier itself has no internal dominance and is sorted
    assert all(n[i] < n[i + 1] and f[i] < f[i + 1] for i in range(len(n) - 1))


# ---------------------------------------------------------------- postings


def expected_row(docs, freqs, norms) -> dict:
    """One term's postings columns by the per-term reference: the
    singleton pulse for df 1 (no blob, no block offsets), else
    ``encode_term_postings``."""
    docs, freqs = np.asarray(docs, dtype=np.int64), np.asarray(freqs, dtype=np.int64)
    row = {"df": len(docs), "ttf": int(freqs.sum())}
    if len(docs) == 1:
        return row | {
            "singleton_doc": int(docs[0]),
            "blob": b"",
            "last_docs": [int(docs[0])],
            "offsets": [],
            "imp_freq": [int(freqs[0])],
            "imp_norm": [int(norms[0])],
            "imp_start": [0, 1],
        }
    tp = encode_term_postings(docs, freqs, norms)
    return row | {
        "singleton_doc": -1,
        "blob": tp.blob,
        "last_docs": tp.block_last_doc.tolist(),
        "offsets": tp.block_offset.tolist(),
        "imp_freq": tp.imp_freq.tolist(),
        "imp_norm": tp.imp_norm.astype(np.int64).tolist(),
        "imp_start": tp.imp_start.tolist(),
    }


def row_postings(row: dict) -> tuple[np.ndarray, np.ndarray]:
    """(docs, freqs) of a TERMS_SCHEMA row."""
    if row["df"] == 1:
        return np.array([row["singleton_doc"]]), np.array([row["ttf"]])
    return decode_term_postings(row["blob"], row["df"])


def assert_rows_canonical(rows, norm_of) -> int:
    """Every row's postings columns equal the per-term reference encoding
    of its decoded postings with ``norm_of(docs)``; returns the row count."""
    n = 0
    for row in rows:
        docs, freqs = row_postings(row)
        exp = expected_row(docs, freqs, norm_of(docs))
        assert {k: row[k] for k in exp} == exp, row["term"]
        n += 1
    return n


def _random_postings(rng, df, max_doc=None, max_freq=2**17):
    max_doc = max_doc or df * 50
    docs = np.sort(rng.choice(max_doc, size=df, replace=False)).astype(np.int64)
    freqs = np.where(
        rng.random(df) < 0.6, 1, rng.integers(1, max_freq, size=df)
    ).astype(np.int64)
    norms = rng.integers(0, 256, size=df).astype(np.uint8)
    return docs, freqs, norms


def test_postings_roundtrip_various_sizes():
    rng = np.random.default_rng(42)
    for df in [2, 3, 127, 128, 129, 255, 256, 300, 1000, 5000]:
        docs, freqs, norms = _random_postings(rng, df)
        tp = encode_term_postings(docs, freqs, norms)
        out_docs, out_freqs = decode_term_postings(tp.blob, df)
        np.testing.assert_array_equal(out_docs, docs)
        np.testing.assert_array_equal(out_freqs, freqs)
        nblocks = (df + BLOCK_SIZE - 1) // BLOCK_SIZE if df % BLOCK_SIZE else df // BLOCK_SIZE
        assert len(tp.block_last_doc) == nblocks
        assert tp.block_last_doc[-1] == docs[-1]
        assert len(tp.imp_start) == nblocks + 1


def test_postings_dense_all_ones_special():
    # adjacent docs, all freqs 1 -> doc blocks collapse to 1 byte, freq token 0
    df = 256
    docs = np.arange(1000, 1000 + df, dtype=np.int64)
    freqs = np.ones(df, dtype=np.int64)
    norms = np.full(df, 7, dtype=np.uint8)
    tp = encode_term_postings(docs, freqs, norms)
    # 2 full blocks: block0: 1B doc token + (1B freq token + 1B vint); same block1,
    # except block0's first delta is 1001 so it is packed, not special
    out_docs, out_freqs = decode_term_postings(tp.blob, df)
    np.testing.assert_array_equal(out_docs, docs)
    np.testing.assert_array_equal(out_freqs, freqs)
    assert len(tp.blob) < 200  # massively compressed vs 256*16 raw bytes


def test_decode_individual_blocks():
    rng = np.random.default_rng(7)
    df = 128 * 3 + 17
    docs, freqs, norms = _random_postings(rng, df)
    tp = encode_term_postings(docs, freqs, norms)
    prev = -1
    got_docs, got_freqs = [], []
    for b in range(len(tp.block_last_doc)):
        d, f = decode_block(tp.blob, tp.block_offset, b, df, prev)
        got_docs.append(d)
        got_freqs.append(f)
        prev = int(d[-1])
        assert prev == tp.block_last_doc[b]
    np.testing.assert_array_equal(np.concatenate(got_docs), docs)
    np.testing.assert_array_equal(np.concatenate(got_freqs), freqs)


def test_large_doc_ids_1e12():
    # global docIDs at 10^12-doc scale must round-trip (wide deltas)
    docs = np.array([10**12, 10**12 + 3, 10**12 + 10**9], dtype=np.int64)
    freqs = np.array([1, 9, 1], dtype=np.int64)
    norms = np.array([3, 3, 3], dtype=np.uint8)
    tp = encode_term_postings(docs, freqs, norms)
    out_docs, out_freqs = decode_term_postings(tp.blob, 3)
    np.testing.assert_array_equal(out_docs, docs)
    np.testing.assert_array_equal(out_freqs, freqs)


@given(st.integers(min_value=2, max_value=600), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=30, deadline=None)
def test_postings_roundtrip_property(df, seed):
    rng = np.random.default_rng(seed)
    docs, freqs, norms = _random_postings(rng, df)
    tp = encode_term_postings(docs, freqs, norms)
    out_docs, out_freqs = decode_term_postings(tp.blob, df)
    np.testing.assert_array_equal(out_docs, docs)
    np.testing.assert_array_equal(out_freqs, freqs)


def test_indexed_decode_matches_plain():
    from engine.codec import decode_term_postings_indexed

    rng = np.random.default_rng(99)
    for df in [2, 127, 128, 129, 500, 1000, 128 * 7, 128 * 7 + 55]:
        docs, freqs, norms = _random_postings(rng, df)
        tp = encode_term_postings(docs, freqs, norms)
        d1, f1 = decode_term_postings(tp.blob, df)
        d2, f2 = decode_term_postings_indexed(tp.blob, df, tp.block_offset)
        np.testing.assert_array_equal(d1, d2)
        np.testing.assert_array_equal(f1, f2)
    # adjacent docs with all-ones deltas + all-equal freqs (special tokens)
    df = 300
    docs = np.arange(5, 5 + df, dtype=np.int64)
    freqs = np.full(df, 7, dtype=np.int64)
    tp = encode_term_postings(docs, freqs, np.full(df, 3, dtype=np.uint8))
    d2, f2 = decode_term_postings_indexed(tp.blob, df, tp.block_offset)
    np.testing.assert_array_equal(d2, docs)
    np.testing.assert_array_equal(f2, freqs)


def test_offsets_roundtrip():
    """Offsets stream (IndexOptions ..._AND_OFFSETS, the .pay offset role):
    interleaved (start delta, length) VInts reset per doc must round-trip
    for arbitrary ascending spans."""
    import numpy as np

    from engine.codec import decode_offsets, encode_offsets

    rng = np.random.default_rng(5)
    freqs = rng.integers(1, 6, size=40).astype(np.int64)
    starts_l, ends_l = [], []
    for f in freqs:
        s = np.cumsum(rng.integers(1, 50, size=int(f))) - 1
        e = s + rng.integers(1, 20, size=int(f))
        starts_l.append(s)
        ends_l.append(e)
    starts = np.concatenate(starts_l)
    ends = np.concatenate(ends_l)
    blob = encode_offsets(starts, ends, freqs)
    got_s, got_e = decode_offsets(blob, freqs)
    assert len(got_s) == len(freqs)
    for i in range(len(freqs)):
        np.testing.assert_array_equal(got_s[i], starts_l[i])
        np.testing.assert_array_equal(got_e[i], ends_l[i])


def test_offsets_concat_is_valid_stream():
    """Doc-disjoint runs byte-concatenate into one valid offsets stream
    (deltas reset per doc) — the merge concat invariant."""
    import numpy as np

    from engine.codec import decode_offsets, encode_offsets

    f1 = np.array([2, 1], dtype=np.int64)
    b1 = encode_offsets(np.array([3, 10, 0]), np.array([7, 14, 4]), f1)
    f2 = np.array([3], dtype=np.int64)
    b2 = encode_offsets(np.array([5, 9, 20]), np.array([8, 12, 26]), f2)
    got_s, got_e = decode_offsets(b1 + b2, np.concatenate([f1, f2]))
    assert [s.tolist() for s in got_s] == [[3, 10], [0], [5, 9, 20]]
    assert [e.tolist() for e in got_e] == [[7, 14], [4], [8, 12, 26]]


_TERM_DFS = st.one_of(
    st.sampled_from([1, 2, 127, 128, 129, 256, 1000]), st.integers(min_value=1, max_value=300)
)


@st.composite
def _term_group(draw):
    """One term's postings: random docs and freqs (up to 2**17, deltas of
    up to 4 VInt bytes), adjacent docs with every freq 1 (the all-ones
    delta and all-equal freq tokens), or wide gaps with one repeated freq."""
    df = draw(_TERM_DFS)
    kind = draw(st.sampled_from(["random", "dense", "equal"]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    start = draw(st.integers(min_value=0, max_value=10**12))
    if kind == "dense":
        docs = start + np.arange(df)
        freqs = np.ones(df, dtype=np.int64)
    else:
        docs = start + np.cumsum(rng.integers(1, 1 << 24, size=df)) - 1
        if kind == "equal":
            freqs = np.full(df, int(rng.integers(1, 2**17, endpoint=True)))
        else:
            freqs = np.where(rng.random(df) < 0.5, 1, rng.integers(1, 2**17, size=df, endpoint=True))
    norms = rng.integers(0, 256, size=df).astype(np.uint8)
    gap = draw(st.integers(min_value=0, max_value=3))
    return docs.astype(np.int64), freqs.astype(np.int64), norms, gap


@given(st.lists(_term_group(), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_encode_terms_equals_per_term_reference(groups):
    """The batched encoder gives, group by group, the per-term reference:
    the same blob bytes, skip arrays and exact impact frontiers, with the
    singleton rule for df 1; terms may sit between unused postings."""
    d, f, n, starts, ends = [], [], [], [], []
    pos = 0
    for docs, freqs, norms, gap in groups:
        d.append(np.full(gap, 7))  # postings outside every term
        f.append(np.full(gap, 9))
        n.append(np.zeros(gap, dtype=np.uint8))
        pos += gap
        starts.append(pos)
        d.append(docs)
        f.append(freqs)
        n.append(norms)
        pos += len(docs)
        ends.append(pos)
    cols = encode_terms(
        np.concatenate(d), np.concatenate(f), np.concatenate(n), np.array(starts), np.array(ends)
    )
    got = [dict(zip(cols, vals)) for vals in zip(*(c.to_pylist() for c in cols.values()))]
    assert len(got) == len(groups)
    for row, (docs, freqs, norms, _gap) in zip(got, groups):
        assert row == expected_row(docs, freqs, norms)
    assert_decode_terms(cols, [(docs, freqs) for docs, freqs, _n, _g in groups])


def assert_decode_terms(cols, groups) -> None:
    """``decode_terms`` over encoded columns returns each group's docs and
    freqs at its cumsum(df) range, equal row by row to the per-term
    reference decode."""
    docs, freqs = decode_terms(cols)
    assert docs.dtype == freqs.dtype == np.int64
    rows = [dict(zip(cols, vals)) for vals in zip(*(c.to_pylist() for c in cols.values()))]
    pos = 0
    for row, (d, f) in zip(rows, groups):
        got = docs[pos : pos + len(d)], freqs[pos : pos + len(d)]
        np.testing.assert_array_equal(got[0], d)
        np.testing.assert_array_equal(got[1], f)
        ref = row_postings(row)
        np.testing.assert_array_equal(got[0], ref[0])
        np.testing.assert_array_equal(got[1], ref[1])
        pos += len(d)
    assert pos == len(docs) == len(freqs)


def test_decode_terms_many_rows():
    """One batch of many rows: full blocks of many doc-delta and freq
    widths (all-ones and all-equal tokens too), df an exact multiple of
    128, rows with and without tails, doc ids near 10**12; and a batch of
    singletons only."""
    rng = np.random.default_rng(11)
    groups = []
    for i in range(60):
        df = [1, 2, 127, 128, 256, 129, 640, 1000, 128 * 9][i % 9]
        base = 10**12 - 10**9 + int(rng.integers(0, 10**8)) if i % 3 else int(rng.integers(0, 10**6))
        if i % 5 == 0:
            docs, freqs = base + np.arange(df), np.full(df, 1 + i)
        else:
            gap = 1 << int(rng.integers(1, 20))
            docs = base + np.cumsum(rng.integers(1, gap, size=df, endpoint=True)) - 1
            freqs = np.where(rng.random(df) < 0.5, 1, rng.integers(1, 1 << int(rng.integers(2, 18)), size=df))
        groups.append((docs.astype(np.int64), freqs.astype(np.int64)))
    assert groups[-1][0].max() > 10**12 - 10**9
    lens = np.array([len(d) for d, _f in groups])
    d_all = np.concatenate([d for d, _f in groups])
    cols = encode_terms(
        d_all, np.concatenate([f for _d, f in groups]), d_all % 256, np.cumsum(lens) - lens, np.cumsum(lens)
    )
    widths = {  # doc and freq tokens of every full block
        b[o + k]
        for b, offs, n in zip(cols["blob"].to_pylist(), cols["offsets"].to_pylist(), lens)
        for o in offs[: n // BLOCK_SIZE]
        for k in (0, 1 + 16 * b[o])
    }
    assert 0 in widths and len(widths) > 8, sorted(widths)
    assert_decode_terms(cols, groups)

    singles = [(np.array([10**12 + i]), np.array([i + 1])) for i in range(5)]
    cols = encode_terms(
        np.concatenate([d for d, _f in singles]), np.concatenate([f for _d, f in singles]),
        np.zeros(5, dtype=np.int64), np.arange(5), np.arange(1, 6),
    )
    assert_decode_terms(cols, singles)


_EQUAL_FREQS = [1, 127, 128, 300, 2**14, 2**21 + 5, 2**35]  # VInts of 1-6 bytes


@st.composite
def _blocked_term(draw):
    """One term of df = 128·m + r, m in 0-4 and r in {0, 1, 127} (df >= 2),
    drawn block by block: each full block's doc deltas are all 1 (doc
    token 0) or packed at a drawn width of 2-40 bits; its freqs are all
    one drawn value (freq token 0, a VInt of 1-6 bytes) or packed at a
    drawn width of 2-40 bits. Returns (docs, freqs, doc tokens, freq
    tokens), the tokens of its full blocks."""
    m = draw(st.integers(min_value=0, max_value=4))
    r = draw(st.sampled_from([0, 1, 127] if m else [127]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    deltas, freqs, wd, wf = [], [], [], []
    for _ in range(m):
        w = draw(st.sampled_from([0, *range(2, 41)]))
        d = rng.integers(1, 1 << w, size=BLOCK_SIZE) if w else np.ones(BLOCK_SIZE, dtype=np.int64)
        d[rng.integers(BLOCK_SIZE)] = max(1, (1 << w) - 1)  # the width is exactly w
        w_f = draw(st.sampled_from([0, *range(2, 41)]))
        if w_f:
            f = rng.integers(1, 1 << w_f, size=BLOCK_SIZE)
            f[:2] = [1, (1 << w_f) - 1]
        else:
            f = np.full(BLOCK_SIZE, draw(st.sampled_from(_EQUAL_FREQS)))
        deltas.append(d)
        freqs.append(f)
        wd.append(w)
        wf.append(w_f)
    deltas.append(rng.integers(1, 1 << 20, size=r))
    freqs.append(np.where(rng.random(r) < 0.5, 1, rng.integers(1, 2**17, size=r)))
    docs = np.cumsum(np.concatenate(deltas)).astype(np.int64) - 1
    return docs, np.concatenate(freqs).astype(np.int64), wd, wf


@given(st.lists(_blocked_term(), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_per_term_decoders_equal_decode_terms(terms):
    """On every row of ``encode_terms`` output, the per-term decoder (with
    the row's skip offsets, as ``PostingsReader.postings`` calls it, and
    without) equals ``decode_terms``, the merge's batched decoder, and
    the source postings, in values and int64 dtype; ``decode_block`` on
    each block equals the same slice. The drawn doc and freq tokens are
    read back from each blob, so every token kind and width is decoded."""
    from engine.codec import decode_term_postings_indexed

    lens = np.array([len(t[0]) for t in terms])
    ends = np.cumsum(lens)
    d_all = np.concatenate([t[0] for t in terms])
    cols = encode_terms(
        d_all, np.concatenate([t[1] for t in terms]), d_all % 256, ends - lens, ends
    )
    all_docs, all_freqs = decode_terms(cols)
    for i, (docs, freqs, wd, wf) in enumerate(terms):
        df = len(docs)
        blob = cols["blob"][i].as_py()
        offsets = np.array(cols["offsets"][i].as_py(), dtype=np.int64)
        assert [blob[o] for o in offsets[: len(wd)]] == wd
        assert [blob[o + 1 + 16 * blob[o]] for o in offsets[: len(wd)]] == wf
        ref_d, ref_f = all_docs[ends[i] - df : ends[i]], all_freqs[ends[i] - df : ends[i]]
        np.testing.assert_array_equal(ref_d, docs)
        np.testing.assert_array_equal(ref_f, freqs)
        for got_d, got_f in (
            decode_term_postings_indexed(blob, df, offsets),
            decode_term_postings_indexed(memoryview(blob), df, offsets),
            decode_term_postings(blob, df),
        ):
            assert got_d.dtype == got_f.dtype == np.int64
            np.testing.assert_array_equal(got_d, ref_d)
            np.testing.assert_array_equal(got_f, ref_f)
        lo, prev = 0, -1
        for b in range(len(offsets)):
            got_d, got_f = decode_block(blob, offsets, b, df, prev)
            assert got_d.dtype == got_f.dtype == np.int64
            np.testing.assert_array_equal(got_d, ref_d[lo : lo + len(got_d)])
            np.testing.assert_array_equal(got_f, ref_f[lo : lo + len(got_f)])
            lo, prev = lo + len(got_d), int(got_d[-1])
        assert lo == df


# ---------------------------------------------------------------- tail block


def _tail_stream(deltas, freqs) -> bytes:
    """A tail block laid out by hand: (delta << 1 | freq == 1) values,
    then the freqs that are not 1."""
    d = np.asarray(deltas, dtype=np.uint64)
    f = np.asarray(freqs, dtype=np.uint64)
    return write_vints((d << np.uint64(1)) | (f == 1).astype(np.uint64)) + write_vints(f[f != 1])


def _assert_per_term_decoders(docs, freqs):
    """Every per-term decoder reads ``docs``/``freqs`` back exactly, as
    int64, from ``encode_term_postings``' blob."""
    from engine.codec import decode_term_postings_indexed

    df = len(docs)
    tp = encode_term_postings(docs, freqs, np.zeros(df, dtype=np.uint8))
    for got in (
        decode_term_postings(tp.blob, df),
        decode_term_postings_indexed(tp.blob, df, tp.block_offset),
        decode_term_postings_indexed(memoryview(tp.blob), df, tp.block_offset),
    ):
        assert got[0].dtype == got[1].dtype == np.int64
        np.testing.assert_array_equal(got[0], docs)
        np.testing.assert_array_equal(got[1], freqs)
    prev = -1
    blocks = []
    for b in range(len(tp.block_offset)):
        blocks.append(decode_block(tp.blob, tp.block_offset, b, df, prev))
        prev = int(blocks[-1][0][-1])
    np.testing.assert_array_equal(np.concatenate([d for d, _f in blocks]), docs)
    np.testing.assert_array_equal(np.concatenate([f for _d, f in blocks]), freqs)


def test_read_tail_block_roundtrip():
    """Seeded tails of 1-127 values, read from a mid-buffer position: the
    deltas, the freqs and the position after the block."""
    from engine.codec import read_tail_block

    rng = np.random.default_rng(19)
    for n in range(1, BLOCK_SIZE):
        deltas = rng.integers(1, 5000, size=n)
        freqs = np.where(rng.random(n) < 0.6, 1, rng.integers(1, 300, size=n))
        body = _tail_stream(deltas, freqs)
        buf = b"\xff\x01" + body + b"\x05\x85"  # bytes around the block
        got_d, got_f, pos = read_tail_block(buf, n, 2)
        assert got_d == deltas.tolist() and got_f == freqs.tolist(), n
        assert pos == 2 + len(body)
    assert read_tail_block(b"\x07", 0, 1) == ([], [], 1)


def test_tail_decoders_every_tail_size():
    """df 2-127 (all tail) and 1-3 full blocks plus tails of 1-127, through
    all three per-term decoders."""
    rng = np.random.default_rng(23)
    for nfull in range(4):
        for tail in range(1, BLOCK_SIZE):
            df = nfull * BLOCK_SIZE + tail
            if df < 2 or (nfull and tail % 9 and tail not in (1, 2, 126, 127)):
                continue
            docs, freqs, _norms = _random_postings(rng, df, max_freq=400)
            _assert_per_term_decoders(docs, freqs)


def test_tail_block_multibyte_vints():
    """Doc deltas at and above 2^7, 2^14, 2^21 and 2^28 (so combined
    values of 2-5 bytes) and freqs above 127, in a tail-only term and in
    the tail after a full block."""
    gaps = [1, 2**7, 2**7 - 1, 2**14, 2**14 + 3, 2**21, 2**21 - 1, 2**28, 2**28 + 5, 2**35, 3]
    freqs = [1, 128, 1, 2**14, 300, 1, 2**21 + 1, 2, 1, 127, 2**28]
    docs = np.cumsum(gaps).astype(np.int64) - 1
    _assert_per_term_decoders(docs, np.array(freqs, dtype=np.int64))
    head = np.arange(BLOCK_SIZE, dtype=np.int64)
    _assert_per_term_decoders(
        np.concatenate([head, head[-1] + np.cumsum(gaps)]),
        np.array([1] * BLOCK_SIZE + freqs, dtype=np.int64),
    )


def test_decode_block_tail_equals_term_slice():
    """``decode_block`` on the tail block is the same slice of
    ``decode_term_postings``, for tails with and without full blocks
    before them."""
    rng = np.random.default_rng(29)
    for df in (2, 11, 127, 129, 255, 3 * BLOCK_SIZE + 40):
        docs, freqs, norms = _random_postings(rng, df)
        tp = encode_term_postings(docs, freqs, norms)
        nfull = df // BLOCK_SIZE
        prev = int(tp.block_last_doc[nfull - 1]) if nfull else -1
        d, f = decode_block(tp.blob, tp.block_offset, nfull, df, prev)
        all_d, all_f = decode_term_postings(tp.blob, df)
        np.testing.assert_array_equal(d, all_d[nfull * BLOCK_SIZE :])
        np.testing.assert_array_equal(f, all_f[nfull * BLOCK_SIZE :])


def test_truncated_tail_raises():
    from engine.codec import decode_term_postings_indexed, read_tail_block

    body = _tail_stream([3, 200, 7], [1, 5, 1000])
    for cut in range(len(body)):
        with pytest.raises(ValueError):
            read_tail_block(body[:cut], 3)
    docs = np.array([4, 90, 20000, 20001], dtype=np.int64)
    tp = encode_term_postings(docs, np.array([1, 2, 1, 700]), np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        decode_term_postings_indexed(tp.blob[:-1], 4, tp.block_offset)
    with pytest.raises(ValueError):
        decode_term_postings(tp.blob[:-2], 4)


def test_indexed_decode_equals_decode_terms_on_built_index(tmp_path):
    """Every row of a small built partition: ``decode_term_postings_indexed``
    (the reader's per-term decode, scalar tail) equals ``decode_terms``
    (the merge's batched, vectorized decode)."""
    from engine.build import invert_to_segment
    from engine.codec import array_offsets, decode_term_postings_indexed
    from engine.segment import read_term_shard

    rng = np.random.default_rng(31)
    vocab = np.array([f"w{i}" for i in range(3000)])
    zipf = 1.0 / np.arange(1, len(vocab) + 1)
    texts = [" ".join(vocab[rng.choice(len(vocab), size=60, p=zipf / zipf.sum())]) for _ in range(700)]
    seg_dir = str(tmp_path / "p0")
    invert_to_segment(np.arange(10**9, 10**9 + len(texts), dtype=np.int64), texts, seg_dir)
    tbl = read_term_shard(os.path.join(seg_dir, "terms.arrow")).combine_chunks()
    cols = {c: tbl.column(c).chunk(0) for c in ("df", "ttf", "singleton_doc", "blob", "offsets")}
    df = cols["df"].to_numpy()
    assert df.max() > 3 * BLOCK_SIZE and (df < BLOCK_SIZE).mean() > 0.9
    docs, freqs = decode_terms(cols)
    ends = np.cumsum(df)
    blobs = cols["blob"].to_pylist()
    offs = cols["offsets"].values.to_numpy()
    l_off = array_offsets(cols["offsets"])
    for i in np.flatnonzero(df >= 2):
        d, f = decode_term_postings_indexed(blobs[i], int(df[i]), offs[l_off[i] : l_off[i + 1]])
        np.testing.assert_array_equal(d, docs[ends[i] - df[i] : ends[i]])
        np.testing.assert_array_equal(f, freqs[ends[i] - df[i] : ends[i]])
