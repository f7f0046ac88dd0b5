"""Posting-list codec: 128-doc FOR blocks + VInt tails + block-max impacts.

Numpy re-expression of the Lucene84 postings encoding semantics
(codecs/lucene84/Lucene84PostingsWriter.java:61-567, ForUtil.java:39
BLOCK_SIZE=128, ForDeltaUtil.java:56-70, Lucene84SkipWriter.java:92-93,
CompetitiveImpactAccumulator.java:33-144). Layout is self-describing and
semantically equivalent, not byte-compatible:

Per-term blob (docFreq >= 2)::

    repeat nfull = docFreq // 128 times:
        [doc_token: uint8]   width of packed doc-delta block; 0 = all deltas == 1
                             (the ForDeltaUtil all-ones special, :56-70)
        [16*width bytes]     128 deltas bit-packed little-endian-by-value
        [freq_token: uint8]  width of packed freq block; 0 = all freqs equal,
                             followed by one VInt with the value
        [...]
    tail (docFreq % 128 entries):
        [VInt (delta << 1 | (freq == 1))] x tail_n     # the documented
           DocDelta/2 + freq-pulse flag semantics of
           Lucene84PostingsFormat.java:216-231.  NOTE: the fork's writer has
           a bug (writes docDelta<<15, Lucene84PostingsWriter.java:409); we
           follow the documented/reader semantics (<<1).  Deviation from the
           reference layout: tail freqs follow as a second VInt stream
           instead of being interleaved, so the batched decode stays
           vectorized.
        [VInt freq] for each tail entry whose flag bit was 0, in order

docFreq == 1 terms store no blob at all: the single (doc, freq) is pulsed
into the term-table row (singleton_doc), mirroring the singletonDocID rule
(Lucene84PostingsFormat.java:159-161).

Doc deltas are vs. the previous docID with an implicit previous of -1
(delta[0] = doc[0] + 1 >= 1), so blocks are skippable given the previous
block's last doc (kept in the per-term skip arrays).

Skip/impact data is stored as plain arrays in the term table (not a byte
format): per block (incl. the tail as a final short block) the last docID,
the blob byte offset, and the competitive (freq, norm) pareto frontier that
bounds block-max BM25 scores.

``encode_terms`` is the engine's one postings encoder: it writes this
layout for every term of a partition (the inverter) or of a merge bucket
in array passes. ``decode_terms``, its inverse, is the merge's one
decoder: every row of a merge batch in array passes, the full blocks in
one unpack pass per bit width. A reader decodes one term block by block:
``decode_term_postings`` (``PostingsReader.postings`` calls it as
``decode_term_postings_indexed``) walks the term's blocks, and
``decode_block`` decodes the one block WAND skips to. A full block
unpacks through ``unpack_block``, one fixed sequence per bit width with
constants built at import (ForUtil's one routine per width); a tail block
through ``read_tail_block``, one scalar pass over its bytes (Lucene's
``readVIntBlock``, Lucene84PostingsReader.java:125-137), as numpy's fixed
cost outweighs its per-value speed on fewer than 128 values.
``encode_term_postings`` is the reference ``encode_terms`` is tested
against; ``decode_terms`` and the per-term decoders are tested against
each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np
import pyarrow as pa
from numpy.lib.stride_tricks import sliding_window_view

BLOCK_SIZE = 128  # ForUtil.java:39


# ---------------------------------------------------------------------------
# VInt / VLong (LSB-first 7-bit groups, continuation high bit) — vectorized.
# ---------------------------------------------------------------------------

_MAX_VBYTES = 10  # 64 bits / 7


def write_vints(values: np.ndarray) -> bytes:
    """Vectorized VLong encode of a uint64 array into one byte stream."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    if v.size < 32:  # scalar path beats the (n,10) matrix for tiny inputs
        out = bytearray()
        for x in v.tolist():
            while x >= 0x80:
                out.append((x & 0x7F) | 0x80)
                x >>= 7
            out.append(x)
        return bytes(out)
    # byte-position scatter: one vectorized pass per byte position (2-4 in
    # practice) instead of a dense (n, 10) matrix + boolean compaction —
    # the matrix astype was the single hottest line of the inverter
    nbytes = np.maximum((64 - np.clip(_clz64(v), 0, 63) + 6) // 7, 1)
    off = np.cumsum(nbytes) - nbytes
    out = np.empty(int(off[-1] + nbytes[-1]), dtype=np.uint8)
    for j in range(int(nbytes.max())):
        m = nbytes > j
        vals = (v[m] >> np.uint64(7 * j)) & np.uint64(0x7F)
        cont = ((nbytes[m] - 1) > j).astype(np.uint64)
        out[off[m] + j] = vals | (cont << np.uint64(7))
    return out.tobytes()


def vint_byte_counts(values: np.ndarray) -> np.ndarray:
    """Encoded VLong size in bytes per value (vectorized)."""
    v = np.asarray(values, dtype=np.uint64)
    return np.maximum((64 - np.clip(_clz64(v), 0, 63) + 6) // 7, 1).astype(np.int64)


def _clz64(v: np.ndarray) -> np.ndarray:
    """Count of leading zeros for uint64 via bit_length (searchsorted trick)."""
    pow2 = _POW2_64
    bl = np.searchsorted(pow2, v, side="right")
    return 64 - bl


_POW2_64 = np.array([1 << k for k in range(64)], dtype=np.uint64)


def read_vints(buf: bytes | memoryview, count: int, offset: int = 0) -> tuple[np.ndarray, int]:
    """Vectorized VLong decode: read ``count`` values starting at ``offset``.

    Returns (values uint64, next_offset)."""
    if count == 0:
        return np.empty(0, dtype=np.uint64), offset
    raw = np.frombuffer(buf, dtype=np.uint8)
    if count < 32:  # scalar path: ~15 numpy calls cost more for tiny reads
        vals = []
        x = shift = 0
        pos = offset
        for byte in raw[offset : offset + _MAX_VBYTES * count].tobytes():
            pos += 1
            x |= (byte & 0x7F) << shift
            if byte < 0x80:
                vals.append(x & 0xFFFFFFFFFFFFFFFF)
                if len(vals) == count:
                    return np.array(vals, dtype=np.uint64), pos
                x = shift = 0
            else:
                shift += 7
        raise ValueError("truncated VInt stream")
    # terminators: bytes with high bit clear; the count-th terminator ends us
    region = raw[offset:]
    is_term = (region & 0x80) == 0
    term_idx = np.flatnonzero(is_term)
    if term_idx.size < count:
        raise ValueError("truncated VInt stream")
    end = term_idx[count - 1] + 1
    chunk = region[:end].astype(np.uint64)
    low7 = chunk & np.uint64(0x7F)
    # group id per byte = number of terminators strictly before it
    terms = (chunk & np.uint64(0x80)) == 0
    gid = np.concatenate(([0], np.cumsum(terms[:-1])))
    # position within group
    starts = np.concatenate(([0], term_idx[: count - 1] + 1))
    pos = np.arange(end, dtype=np.int64) - starts[gid]
    vals = np.zeros(count, dtype=np.uint64)
    np.add.at(vals, gid, low7 << (np.uint64(7) * pos.astype(np.uint64)))
    return vals, offset + int(end)


def read_vints_at(raw: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Decode one VLong at each byte position, vectorized across positions
    (no per-call scan of the buffer — used for scattered single values)."""
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size == 0:
        return np.empty(0, dtype=np.uint64)
    pad = np.zeros(_MAX_VBYTES, dtype=np.uint8)
    padded = np.concatenate([raw, pad])
    chunk = padded[positions[:, None] + np.arange(_MAX_VBYTES)[None, :]].astype(np.uint64)
    cont = (chunk & np.uint64(0x80)) != 0
    # a byte contributes iff all previous bytes had the continuation bit
    active = np.ones_like(cont)
    active[:, 1:] = np.cumprod(cont[:, :-1], axis=1).astype(bool)
    low7 = chunk & np.uint64(0x7F)
    shifts = (np.uint64(7) * np.arange(_MAX_VBYTES, dtype=np.uint64))[None, :]
    return ((low7 << shifts) * active).sum(axis=1, dtype=np.uint64)


def read_tail_block(buf: bytes | memoryview, n: int, pos: int = 0) -> tuple[list[int], list[int], int]:
    """Decode one VInt tail block of ``n`` postings starting at byte
    ``pos``: ``n`` values ``delta << 1 | (freq == 1)``, then one freq per
    value whose flag bit is 0. Returns (doc deltas, freqs, next position),
    the deltas and freqs as Python int lists. One scalar pass over the
    bytes: on a block of fewer than 128 values it costs a fraction of the
    numpy calls that ``read_vints`` and flag masking would make."""
    vals: list[int] = []
    append = vals.append
    want = n
    k = i = x = shift = 0
    for byte in bytes(buf[pos : pos + 2 * _MAX_VBYTES * n]):
        i += 1
        if byte & 0x80:
            x |= (byte & 0x7F) << shift
            shift += 7
            continue
        append(x | byte << shift)
        x = shift = 0
        k += 1
        if k == want:
            if k == n:  # the flags are in: count the freqs that follow
                want += n - sum([v & 1 for v in vals])
            if k == want:
                break
    else:
        if n:
            raise ValueError("truncated VInt stream")
        return [], [], pos
    rest = iter(vals[n:])
    comb = vals[:n]
    return [v >> 1 for v in comb], [1 if v & 1 else next(rest) for v in comb], pos + i


# ---------------------------------------------------------------------------
# FOR bit-packing of fixed 128-value blocks — vectorized.
# ---------------------------------------------------------------------------


def pack_block(values: np.ndarray, width: int) -> bytes:
    """Bit-pack BLOCK_SIZE uint64 values at ``width`` bits each (big-endian
    bit order within the value so unpackbits round-trips)."""
    v = np.asarray(values, dtype=np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((v[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.ravel()).tobytes()


def unpack_block(raw: np.ndarray, at: int, width: int) -> np.ndarray:
    """Inverse of ``pack_block``: the BLOCK_SIZE values packed at ``width``
    bits from byte ``at`` of the uint8 array ``raw``, as uint64: their
    (BLOCK_SIZE, width) bit matrix times the width's place values."""
    return np.unpackbits(raw[at : at + 16 * width]).reshape(BLOCK_SIZE, width) @ _POW[width]


# _POW[w]: the place values 1 << (w - 1 ... 0) of a w-bit value, per width
_POW = [None] + [np.array([1 << k for k in range(w - 1, -1, -1)], dtype=np.uint64) for w in range(1, 65)]


def _width_of(values: np.ndarray) -> int:
    mx = int(values.max()) if values.size else 0
    return max(mx.bit_length(), 1)


# ---------------------------------------------------------------------------
# Competitive impacts (pareto frontier of (freq, norm) pairs).
# ---------------------------------------------------------------------------


def impact_frontier(freqs: np.ndarray, norms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Non-dominated (freq, norm) pairs: keep a pair unless another has
    freq >= it AND norm <= it (CompetitiveImpactAccumulator.java:33-144).
    Returned sorted by norm ascending with strictly decreasing freqs is the
    canonical frontier; BM25 block-max = max score over these pairs."""
    norms = np.asarray(norms, dtype=np.int64)
    freqs = np.asarray(freqs, dtype=np.int64)
    order = np.lexsort((-freqs, norms))
    n_sorted, f_sorted = norms[order], freqs[order]
    # first (max-freq) entry per distinct norm
    first = np.concatenate(([True], n_sorted[1:] != n_sorted[:-1]))
    n_u, f_u = n_sorted[first], f_sorted[first]
    # keep entries whose freq exceeds every lower-norm freq (running max)
    keep = np.ones(len(n_u), dtype=bool)
    if len(n_u) > 1:
        runmax = np.maximum.accumulate(f_u)
        keep[1:] = f_u[1:] > runmax[:-1]
    return f_u[keep].astype(np.int64), n_u[keep].astype(np.uint8)


# ---------------------------------------------------------------------------
# Per-term postings encode / decode.
# ---------------------------------------------------------------------------


@dataclass
class TermPostings:
    """Encoded postings + skip/impact arrays for one term."""

    blob: bytes
    block_last_doc: np.ndarray  # int64, one per block incl. tail block
    block_offset: np.ndarray  # int64 byte offset of each block in blob
    imp_freq: np.ndarray  # int64 flattened frontier freqs
    imp_norm: np.ndarray  # uint8 flattened frontier norms
    imp_start: np.ndarray  # int64 per-block start index into imp_* (+ end sentinel)


def encode_term_postings(
    docs: np.ndarray, freqs: np.ndarray, norms: np.ndarray
) -> TermPostings:
    """Encode one term's postings (docs sorted ascending, freqs >= 1,
    norms = per-posting norm byte of the containing doc)."""
    docs = np.asarray(docs, dtype=np.int64)
    freqs = np.asarray(freqs, dtype=np.int64)
    df = len(docs)
    assert df >= 2, "singletons are pulsed into the term table, not encoded"
    deltas = np.empty(df, dtype=np.uint64)
    deltas[0] = docs[0] + 1
    deltas[1:] = np.diff(docs).astype(np.uint64)
    nfull = df // BLOCK_SIZE
    tail_n = df - nfull * BLOCK_SIZE

    parts: list[bytes] = []
    block_off: list[int] = []
    block_last: list[int] = []
    imp_f: list[np.ndarray] = []
    imp_n: list[np.ndarray] = []
    pos = 0
    for b in range(nfull):
        lo, hi = b * BLOCK_SIZE, (b + 1) * BLOCK_SIZE
        block_off.append(pos)
        block_last.append(int(docs[hi - 1]))
        d = deltas[lo:hi]
        if bool((d == 1).all()):
            parts.append(b"\x00")
            pos += 1
        else:
            w = _width_of(d)
            packed = pack_block(d, w)
            parts.append(bytes([w]) + packed)
            pos += 1 + len(packed)
        f = freqs[lo:hi].astype(np.uint64)
        if bool((f == f[0]).all()):
            fv = write_vints(f[:1])
            parts.append(b"\x00" + fv)
            pos += 1 + len(fv)
        else:
            w = _width_of(f)
            packed = pack_block(f, w)
            parts.append(bytes([w]) + packed)
            pos += 1 + len(packed)
        ff, nn = impact_frontier(freqs[lo:hi], norms[lo:hi])
        imp_f.append(ff)
        imp_n.append(nn)

    if tail_n:
        lo = nfull * BLOCK_SIZE
        block_off.append(pos)
        block_last.append(int(docs[-1]))
        d = deltas[lo:]
        f = freqs[lo:]
        flags = (f == 1).astype(np.uint64)
        combined = (d << np.uint64(1)) | flags
        enc = write_vints(combined)
        parts.append(enc)
        pos += len(enc)
        rest = f[f != 1].astype(np.uint64)
        enc2 = write_vints(rest)
        parts.append(enc2)
        pos += len(enc2)
        ff, nn = impact_frontier(f, norms[lo:])
        imp_f.append(ff)
        imp_n.append(nn)

    starts = np.zeros(len(imp_f) + 1, dtype=np.int64)
    np.cumsum([len(x) for x in imp_f], out=starts[1:])
    return TermPostings(
        blob=b"".join(parts),
        block_last_doc=np.array(block_last, dtype=np.int64),
        block_offset=np.array(block_off, dtype=np.int64),
        imp_freq=np.concatenate(imp_f) if imp_f else np.empty(0, dtype=np.int64),
        imp_norm=np.concatenate(imp_n) if imp_n else np.empty(0, dtype=np.uint8),
        imp_start=starts,
    )


def _excl_cumsum(x: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum (start offset of each run of length ``x``)."""
    out = np.zeros(len(x), dtype=np.int64)
    np.cumsum(x[:-1], out=out[1:])
    return out


def _bit_length(v: np.ndarray) -> np.ndarray:
    """Bits needed per value, at least 1 (``_width_of`` per element)."""
    return np.maximum(64 - _clz64(np.asarray(v, dtype=np.uint64)), 1)


def _pack_rows(vals: np.ndarray, width: int) -> np.ndarray:
    """``pack_block`` of every row of a (n, BLOCK_SIZE) matrix at once:
    (n, 16 * width) bytes."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    bits = ((vals.astype(np.uint64)[:, :, None] >> shifts) & np.uint64(1)).astype(np.uint8)
    return np.packbits(bits.reshape(len(vals), BLOCK_SIZE * width), axis=1)


def _list_array(offsets: np.ndarray, values: np.ndarray) -> pa.Array:
    return pa.ListArray.from_arrays(
        pa.array(offsets.astype(np.int32)), pa.array(values.astype(np.int64), type=pa.int64())
    )


def encode_terms(
    docs: np.ndarray,
    freqs: np.ndarray,
    norms: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> dict[str, pa.Array]:
    """Encode many terms at once: term i's postings are
    ``docs/freqs/norms[starts[i]:ends[i]]`` (docs ascending, df >= 1, at
    least one term).
    Returns the postings columns of ``segment.TERMS_SCHEMA`` (``df``,
    ``ttf``, ``singleton_doc``, ``blob``, ``last_docs``, ``offsets``,
    ``imp_freq``, ``imp_norm``, ``imp_start``), one row per term, each row
    equal to ``encode_term_postings`` of that term (df >= 2) or to the
    singleton pulse (df == 1: no blob, no block offsets).

    Array passes over all terms, no per-term Python: one sort of a
    (block, norm, -freq) key gives every block's exact impact frontier; full
    blocks are FOR-packed in one pass per bit width; every VInt (the tail
    ``delta << 1 | freq == 1`` and freq streams, and the all-equal freq
    values of full blocks) comes from one ``write_vints`` pass scattered
    to its place in the blob buffer."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    df = ends - starts
    n_terms = len(df)
    assert n_terms and int(df.min()) >= 1, "at least one term, each with a posting"
    total = int(df.sum())
    contiguous = starts[0] == 0 and ends[-1] == len(docs) and np.array_equal(starts[1:], ends[:-1])
    t0 = _excl_cumsum(df)
    if contiguous:
        docs = np.asarray(docs, dtype=np.int64)
        freqs = np.asarray(freqs, dtype=np.int64)
        norms = np.asarray(norms, dtype=np.int64)
    else:  # gather the selected ranges into one term-ordered run
        idx = np.repeat(starts - t0, df) + np.arange(total, dtype=np.int64)
        docs = np.asarray(docs, dtype=np.int64)[idx]
        freqs = np.asarray(freqs, dtype=np.int64)[idx]
        norms = np.asarray(norms, dtype=np.int64)[idx]
    term_of = np.repeat(np.arange(n_terms, dtype=np.int64), df)
    pos_in = np.arange(total, dtype=np.int64) - t0[term_of]
    multi = df >= 2

    # blocks: ceil(df / 128) per term, the last one the (short) tail
    nblk = (df + BLOCK_SIZE - 1) // BLOCK_SIZE
    blk_base = _excl_cumsum(nblk)
    n_blk = int(nblk.sum())
    blk_term = np.repeat(np.arange(n_terms, dtype=np.int64), nblk)
    blk_first = t0[blk_term] + (np.arange(n_blk, dtype=np.int64) - blk_base[blk_term]) * BLOCK_SIZE
    blk_len = np.minimum(BLOCK_SIZE, (t0 + df)[blk_term] - blk_first)
    blk_of_post = blk_base[term_of] + pos_in // BLOCK_SIZE
    last_docs = docs[blk_first + blk_len - 1]

    # exact impact frontier of every block (impact_frontier, batched): one
    # sort of a (block, norm byte, -freq) key packed into an int64 (~10x a
    # three-key lexsort) gives the max-freq pair per (block, norm), kept if
    # its freq beats every lower-norm freq of the block; the running max
    # restarts per block because each block's keys lie above every
    # earlier block's
    fbits = int(freqs.max()).bit_length()
    assert n_blk.bit_length() + 8 + fbits <= 63, "impact sort key overflows int64"
    fmask = (1 << fbits) - 1
    skey = np.sort((blk_of_post << (8 + fbits)) | (norms << fbits) | (fmask - freqs))
    first = np.ones(total, dtype=bool)
    first[1:] = (skey[1:] >> fbits) != (skey[:-1] >> fbits)
    skey = skey[first]
    b_u, n_u, f_u = skey >> (8 + fbits), (skey >> fbits) & 0xFF, fmask - (skey & fmask)
    key = (b_u << fbits) | f_u
    keep = np.ones(len(key), dtype=bool)
    keep[1:] = key[1:] > np.maximum.accumulate(key)[:-1]
    imp_freq, imp_norm = f_u[keep], n_u[keep]
    fc = np.bincount(b_u[keep], minlength=n_blk)  # frontier size per block
    fc_base = _excl_cumsum(fc)
    term_fc_base = fc_base[blk_base]
    imp_start = np.empty(n_blk + n_terms, dtype=np.int64)
    imp_start[np.arange(n_blk) + blk_term] = fc_base - term_fc_base[blk_term]
    imp_start[blk_base + nblk + np.arange(n_terms)] = np.diff(np.append(term_fc_base, len(imp_freq)))

    # doc deltas vs the previous doc, implicit previous -1 per term
    deltas = np.empty(total, dtype=np.uint64)
    deltas[1:] = (docs[1:] - docs[:-1]).astype(np.uint64)
    deltas[t0] = (docs[t0] + 1).astype(np.uint64)

    # full blocks: doc token + packed deltas (token 0: all deltas 1), freq
    # token + packed freqs (token 0: all freqs equal, one VInt follows)
    fb = np.flatnonzero(blk_len == BLOCK_SIZE)
    grid = blk_first[fb][:, None] + np.arange(BLOCK_SIZE)
    dd, ff = deltas[grid], freqs[grid]
    wd = np.where((dd == 1).all(axis=1), 0, _bit_length(dd.max(axis=1, initial=0)))
    f_eq = (ff == ff[:, :1]).all(axis=1)
    wf = np.where(f_eq, 0, _bit_length(ff.max(axis=1, initial=0)))

    # tail blocks of df >= 2 terms: combined stream then the freq != 1
    # stream; VInt values laid out one run per tail block, then the
    # all-equal freq values of the full blocks
    tb = np.flatnonzero((blk_len < BLOCK_SIZE) & multi[blk_term])
    in_tail = np.zeros(n_blk, dtype=bool)
    in_tail[tb] = True
    tp = np.flatnonzero(in_tail[blk_of_post])
    tail_rank = np.cumsum(in_tail) - 1  # block -> index among tail blocks
    tk = tail_rank[blk_of_post[tp]]
    is_rest = freqs[tp] != 1
    n_c = blk_len[tb]
    n_r = np.bincount(tk[is_rest], minlength=len(tb))
    run_start = _excl_cumsum(n_c + n_r)
    n_tail_vals = int((n_c + n_r).sum())
    vals = np.empty(n_tail_vals + int(f_eq.sum()), dtype=np.uint64)
    vals[run_start[tk] + (tp - blk_first[tb][tk])] = (deltas[tp] << np.uint64(1)) | (
        ~is_rest
    ).astype(np.uint64)
    rk = tk[is_rest]
    vals[run_start[rk] + n_c[rk] + np.arange(len(rk)) - _excl_cumsum(n_r)[rk]] = freqs[tp][is_rest].astype(np.uint64)
    vals[n_tail_vals:] = ff[f_eq, 0].astype(np.uint64)
    nb = vint_byte_counts(vals)
    src_off = _excl_cumsum(nb)
    nb_cs = np.concatenate(([0], np.cumsum(nb)))

    # block byte lengths -> every block's place in one blob buffer (terms
    # are concatenated in order; a singleton's block has no bytes)
    blk_bytes = np.zeros(n_blk, dtype=np.int64)
    eq_bytes = np.zeros(len(fb), dtype=np.int64)
    eq_bytes[f_eq] = nb[n_tail_vals:]
    blk_bytes[fb] = 2 + 16 * wd + np.where(f_eq, eq_bytes, 16 * wf)
    blk_bytes[tb] = nb_cs[run_start + n_c + n_r] - nb_cs[run_start]
    blk_off = _excl_cumsum(blk_bytes)
    buf_len = int(blk_off[-1] + blk_bytes[-1])
    assert buf_len <= 0x7FFFFFFF, "blob column > 2 GiB"
    out = np.zeros(buf_len, dtype=np.uint8)
    p_doc = blk_off[fb]
    p_freq = p_doc + 1 + 16 * wd
    out[p_doc] = wd
    out[p_freq] = wf
    for w in np.unique(wd[wd > 0]).tolist():
        sel = np.flatnonzero(wd == w)
        out[(p_doc[sel] + 1)[:, None] + np.arange(16 * w)] = _pack_rows(dd[sel], w)
    for w in np.unique(wf[wf > 0]).tolist():
        sel = np.flatnonzero(wf == w)
        out[(p_freq[sel] + 1)[:, None] + np.arange(16 * w)] = _pack_rows(ff[sel], w)
    if len(vals):
        dest = np.empty(len(vals), dtype=np.int64)
        run_of_val = np.repeat(np.arange(len(tb)), n_c + n_r)
        dest[:n_tail_vals] = blk_off[tb][run_of_val] + src_off[:n_tail_vals] - src_off[run_start][run_of_val]
        dest[n_tail_vals:] = p_freq[f_eq] + 1
        out[np.repeat(dest - src_off, nb) + np.arange(int(nb.sum()))] = np.frombuffer(
            write_vints(vals), dtype=np.uint8
        )

    term_bytes_base = blk_off[blk_base]
    blob_offs = np.append(term_bytes_base, buf_len).astype(np.int32)
    ob = np.flatnonzero(multi[blk_term])  # singletons carry no block offsets
    return {
        "df": pa.array(df, type=pa.int64()),
        "ttf": pa.array(np.add.reduceat(freqs, t0), type=pa.int64()),
        "singleton_doc": pa.array(np.where(multi, -1, docs[t0]), type=pa.int64()),
        "blob": pa.Array.from_buffers(
            pa.binary(), n_terms, [None, pa.py_buffer(blob_offs), pa.py_buffer(out)]
        ),
        "last_docs": _list_array(np.append(blk_base, n_blk), last_docs),
        "offsets": _list_array(
            np.append(_excl_cumsum(np.where(multi, nblk, 0)), len(ob)),
            blk_off[ob] - term_bytes_base[blk_term[ob]],
        ),
        "imp_freq": _list_array(np.append(term_fc_base, len(imp_freq)), imp_freq),
        "imp_norm": _list_array(np.append(term_fc_base, len(imp_norm)), imp_norm),
        "imp_start": _list_array(np.append(blk_base + np.arange(n_terms), n_blk + n_terms), imp_start),
    }


def decode_term_postings(
    blob: bytes | memoryview, df: int, offsets: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a full term blob back to (docs int64, freqs int64), block by
    block in order: each full block through ``_decode_block_into``, the
    tail through ``read_tail_block``. With ``offsets``, the per-block byte
    offsets of the term's skip data, each block is read from its offset;
    without, from the end of the block before it. A term with no full
    block (most of a vocabulary) makes no numpy call but the two output
    arrays."""
    starts = None if offsets is None else offsets.tolist()
    pos = starts[0] if starts else 0
    nfull, tail_n = divmod(df, BLOCK_SIZE)
    if not nfull:
        return _tail_only(blob, df, pos)
    mv = memoryview(blob)
    raw = np.frombuffer(blob, dtype=np.uint8)
    deltas = np.empty(df, dtype=np.int64)
    freqs = np.empty(df, dtype=np.int64)
    for b in range(nfull):
        pos = _decode_block_into(raw, mv, starts[b] if starts else pos, deltas, freqs, b * BLOCK_SIZE)
    if tail_n:
        lo = nfull * BLOCK_SIZE
        deltas[lo:], freqs[lo:], _ = read_tail_block(mv, tail_n, starts[nfull] if starts else pos)
    np.cumsum(deltas, out=deltas)
    deltas -= 1
    return deltas, freqs


decode_term_postings_indexed = decode_term_postings  # PostingsReader.postings' name for it (perfbench traces it)


def _tail_only(blob: bytes | memoryview, df: int, pos: int, prev_doc: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """(docs, freqs), int64, of a term or block that is one tail block
    at byte ``pos``, its docs counted on from ``prev_doc``: the cumsum runs
    in Python, with no numpy set-up for so few values."""
    deltas, freqs, _ = read_tail_block(blob, df, pos)
    docs = np.fromiter(accumulate(deltas, initial=prev_doc), np.int64, df + 1)
    return docs[1:], np.fromiter(freqs, np.int64, df)


def _decode_block_into(
    raw: np.ndarray, mv: memoryview, pos: int, deltas: np.ndarray, freqs: np.ndarray, lo: int
) -> int:
    """Decode the full block at byte ``pos`` (``raw`` and ``mv`` view the
    same bytes) into ``deltas[lo : lo + BLOCK_SIZE]`` (doc deltas) and
    ``freqs[lo : lo + BLOCK_SIZE]``; returns the position after it. A doc
    token 0 is all deltas 1, a freq token 0 one VInt value read in Python."""
    w = mv[pos]
    deltas[lo : lo + BLOCK_SIZE] = unpack_block(raw, pos + 1, w) if w else 1
    pos += 1 + 16 * w
    w = mv[pos]
    pos += 1
    if w:
        freqs[lo : lo + BLOCK_SIZE] = unpack_block(raw, pos, w)
        return pos + 16 * w
    x = shift = 0
    for byte in mv[pos : pos + _MAX_VBYTES]:
        pos += 1
        x |= (byte & 0x7F) << shift
        if byte < 0x80:
            freqs[lo : lo + BLOCK_SIZE] = x
            return pos
        shift += 7
    raise ValueError("truncated VInt stream")


def decode_block(
    blob: bytes | memoryview,
    tp_offsets: np.ndarray,
    block_idx: int,
    df: int,
    prev_last_doc: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Decode a single block (for WAND block skipping). ``prev_last_doc`` is
    the last docID of the previous block (-1 for block 0)."""
    nfull = df // BLOCK_SIZE
    pos = int(tp_offsets[block_idx])
    if block_idx >= nfull:
        return _tail_only(blob, df - nfull * BLOCK_SIZE, pos, prev_last_doc)
    deltas = np.empty(BLOCK_SIZE, dtype=np.int64)
    freqs = np.empty(BLOCK_SIZE, dtype=np.int64)
    _decode_block_into(np.frombuffer(blob, dtype=np.uint8), memoryview(blob), pos, deltas, freqs, 0)
    deltas[0] += prev_last_doc
    np.cumsum(deltas, out=deltas)
    return deltas, freqs


_UNPACK_CHUNK = 256  # blocks per unpack pass


def _unpack_rows(raw: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """Inverse of ``_pack_rows``: the BLOCK_SIZE values packed at
    ``width`` bits from each byte offset ``at`` of ``raw``, as a
    (len(at), BLOCK_SIZE) uint64 matrix. Unpacks ``_UNPACK_CHUNK`` blocks
    per pass in the narrowest unsigned type that holds ``width`` bits, so
    the (blocks, BLOCK_SIZE, width) bit matrix stays cache-sized
    (unchunked, many-block inputs ran ~40% slower)."""
    out = np.empty((len(at), BLOCK_SIZE), dtype=np.uint64)
    span = np.arange(16 * width)
    dt = np.min_scalar_type((1 << width) - 1)
    shifts = np.arange(width - 1, -1, -1, dtype=dt)
    for lo in range(0, len(at), _UNPACK_CHUNK):
        packed = raw[at[lo : lo + _UNPACK_CHUNK, None] + span]
        bits = np.unpackbits(packed, axis=1).reshape(len(packed), BLOCK_SIZE, width)
        out[lo : lo + len(packed)] = (bits.astype(dt) << shifts).sum(axis=2, dtype=dt)
    return out


def _decode_full_blocks(
    raw: np.ndarray, at: np.ndarray, deltas: np.ndarray, freqs: np.ndarray, rows: np.ndarray
) -> None:
    """``decode_terms``' full blocks, whose doc tokens sit at byte offsets
    ``at`` of ``raw``, into rows ``rows`` of the (*, BLOCK_SIZE) matrices
    ``deltas`` (doc deltas) and ``freqs``, whatever term each block
    belongs to: packed blocks in one ``_unpack_rows`` pass per bit width
    (set-up that only a batch of many blocks repays), a doc token 0 as
    all deltas 1, a freq token 0 as its one VInt value."""
    wd = raw[at].astype(np.int64)
    p_freq = at + 1 + 16 * wd
    wf = raw[p_freq].astype(np.int64)
    deltas[rows[wd == 0]] = 1
    for w in np.unique(wd[wd > 0]).tolist():
        sel = np.flatnonzero(wd == w)
        deltas[rows[sel]] = _unpack_rows(raw, at[sel] + 1, w)
    eq = np.flatnonzero(wf == 0)
    if len(eq):
        freqs[rows[eq]] = read_vints_at(raw, p_freq[eq] + 1).astype(np.int64)[:, None]
    for w in np.unique(wf[wf > 0]).tolist():
        sel = np.flatnonzero(wf == w)
        freqs[rows[sel]] = _unpack_rows(raw, p_freq[sel] + 1, w)


def array_offsets(arr: pa.Array) -> np.ndarray:
    """Int32 offsets of a non-chunked binary or list array (into its data
    buffer or ``values``), zero-copy (``arr.offsets.to_numpy()`` costs
    ~100x more)."""
    o = arr.offset
    return np.frombuffer(arr.buffers()[1], dtype=np.int32)[o : o + len(arr) + 1]


def decode_terms(cols) -> tuple[np.ndarray, np.ndarray]:
    """Decode many terms at once, the inverse of ``encode_terms``: ``cols``
    maps ``df``, ``ttf``, ``singleton_doc``, ``blob`` and ``offsets`` to
    non-chunked arrays of ``segment.TERMS_SCHEMA`` rows (at least one).
    Returns flat (docs, freqs), int64: row i's postings are
    ``[cumsum(df)[i] - df[i], cumsum(df)[i])``.

    Array passes over all rows, no per-row Python: singletons come from
    their columns; every row's full blocks, found through ``offsets``,
    are unpacked together, one pass per bit width
    (``_decode_full_blocks``); every tail block's VInts are read in one
    ``read_vints`` pass; docs come from one cumsum of the doc deltas that
    restarts at each row, so its running values stay below max doc + 1."""
    df = cols["df"].to_numpy()
    n_rows = len(df)
    ends = np.cumsum(df)
    starts = ends - df
    deltas = np.empty(int(ends[-1]), dtype=np.int64)
    freqs = np.empty(int(ends[-1]), dtype=np.int64)
    single = np.flatnonzero(df == 1)
    deltas[starts[single]] = cols["singleton_doc"].to_numpy()[single] + 1
    freqs[starts[single]] = cols["ttf"].to_numpy()[single]

    blob = cols["blob"]
    b_off = array_offsets(blob)
    raw = np.frombuffer(blob.buffers()[2] or b"", dtype=np.uint8)
    offsets = cols["offsets"]
    l_off = array_offsets(offsets)
    blk_off = offsets.values.to_numpy()  # block byte offsets within each blob
    multi = df >= 2
    nfull = np.where(multi, df // BLOCK_SIZE, 0)
    tail_n = np.where(multi, df % BLOCK_SIZE, 0)

    n_fb = int(nfull.sum())
    if n_fb:
        fb_row = np.repeat(np.arange(n_rows), nfull)
        k = np.arange(n_fb) - np.repeat(_excl_cumsum(nfull), nfull)
        # row j of a window view is postings j .. j + 127, so each block
        # decodes straight into its place in the flat arrays
        _decode_full_blocks(
            raw,
            b_off[fb_row] + blk_off[l_off[fb_row] + k],
            sliding_window_view(deltas, BLOCK_SIZE, writeable=True),
            sliding_window_view(freqs, BLOCK_SIZE, writeable=True),
            starts[fb_row] + k * BLOCK_SIZE,
        )

    tr = np.flatnonzero(tail_n)
    if len(tr):
        # every tail's bytes (the (delta << 1 | freq == 1) stream, then
        # the freq != 1 stream) run to the end of its row's blob: gather
        # them into one stream and split it per row by terminator counts
        t_at = b_off[tr] + blk_off[l_off[tr] + nfull[tr]]
        t_len = b_off[tr + 1] - t_at
        t_base = _excl_cumsum(t_len)
        cat = raw[np.repeat(t_at - t_base, t_len) + np.arange(int(t_len.sum()))]
        is_end = (cat & 0x80) == 0
        vals, _ = read_vints(cat, int(is_end.sum()))
        ends_cs = np.concatenate(([0], np.cumsum(is_end)))
        n_vals = ends_cs[t_base + t_len] - ends_cs[t_base]
        tn = tail_n[tr]
        val_row = np.repeat(np.arange(len(tr)), n_vals)
        comb = np.arange(len(vals)) - _excl_cumsum(n_vals)[val_row] < tn[val_row]
        c = vals[comb]
        dst = np.repeat(starts[tr] + nfull[tr] * BLOCK_SIZE - _excl_cumsum(tn), tn) + np.arange(len(c))
        deltas[dst] = c >> np.uint64(1)
        f = np.ones(len(c), dtype=np.int64)
        f[(c & np.uint64(1)) == 0] = vals[~comb]
        freqs[dst] = f

    # restart the running sum at each row: its first delta less the
    # previous row's delta total (that row's last doc + 1)
    deltas[starts[1:]] -= np.add.reduceat(deltas, starts)[:-1]
    docs = np.cumsum(deltas)
    docs -= 1
    return docs, freqs


# ---------------------------------------------------------------------------
# Positions (prox stream) — DOCS_AND_FREQS_AND_POSITIONS support.
# ---------------------------------------------------------------------------


def encode_positions(positions: np.ndarray, freqs: np.ndarray) -> bytes:
    """Encode per-posting position lists as one VInt delta stream.

    ``positions`` is the concatenation of each posting's ascending token
    positions (freqs[i] values for posting i); deltas reset at each doc
    with first = pos + 1 (so every delta >= 1), mirroring the
    FreqProxTermsWriter prox deltas (FreqProxTermsWriterPerField.java prox
    stream; payloads unsupported so no flag bit)."""
    positions = np.asarray(positions, dtype=np.int64)
    if positions.size == 0:
        return b""
    starts = np.concatenate(([0], np.cumsum(freqs)[:-1]))
    deltas = np.empty(len(positions), dtype=np.uint64)
    deltas[1:] = (positions[1:] - positions[:-1]).astype(np.uint64)
    deltas[starts] = (positions[starts] + 1).astype(np.uint64)
    return write_vints(deltas)


def decode_positions(pos_blob: bytes, freqs: np.ndarray) -> list[np.ndarray]:
    """Decode the prox stream back to one ascending array per posting."""
    freqs = np.asarray(freqs, dtype=np.int64)
    total = int(freqs.sum())
    vals, _ = read_vints(pos_blob, total)
    starts = np.concatenate(([0], np.cumsum(freqs)[:-1]))
    deltas = vals.astype(np.int64)
    # absolute positions: cumsum within each posting, reset at starts
    flat = np.cumsum(deltas)
    # subtract the running total before each group + restore the +1 offset
    base = np.repeat(flat[starts] - deltas[starts], freqs)
    flat = flat - base - 1
    ends = np.cumsum(freqs)
    return [flat[s:e] for s, e in zip(starts, ends)]


# ---------------------------------------------------------------------------
# Character offsets — DOCS_AND_FREQS_AND_POSITIONS_AND_OFFSETS support
# (index/IndexOptions.java:28; the Lucene84 .pay file's offset stream,
# Lucene84PostingsFormat.java:39-104: per occurrence, VInt startOffset
# delta then VInt length).
# ---------------------------------------------------------------------------


def encode_offsets(starts: np.ndarray, ends: np.ndarray, freqs: np.ndarray) -> bytes:
    """Encode per-occurrence character offsets as one interleaved VInt
    stream: for each occurrence, (start delta, length). Start deltas reset
    at each doc with first = start + 1 (every delta >= 1, like the prox
    stream), so doc-disjoint runs byte-concatenate during merges."""
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)
    if starts.size == 0:
        return b""
    freqs = np.asarray(freqs, dtype=np.int64)
    group_starts = np.concatenate(([0], np.cumsum(freqs)[:-1]))
    deltas = np.empty(len(starts), dtype=np.uint64)
    deltas[1:] = (starts[1:] - starts[:-1]).astype(np.uint64)
    deltas[group_starts] = (starts[group_starts] + 1).astype(np.uint64)
    lengths = (ends - starts).astype(np.uint64)
    inter = np.empty(2 * len(starts), dtype=np.uint64)
    inter[0::2] = deltas
    inter[1::2] = lengths
    return write_vints(inter)


def decode_offsets(
    off_blob: bytes, freqs: np.ndarray
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Decode the offsets stream back to (starts, ends) arrays per posting."""
    freqs = np.asarray(freqs, dtype=np.int64)
    total = int(freqs.sum())
    vals, _ = read_vints(off_blob, 2 * total)
    deltas = vals[0::2].astype(np.int64)
    lengths = vals[1::2].astype(np.int64)
    g_starts = np.concatenate(([0], np.cumsum(freqs)[:-1]))
    flat = np.cumsum(deltas)
    base = np.repeat(flat[g_starts] - deltas[g_starts], freqs)
    flat = flat - base - 1
    ends_i = np.cumsum(freqs)
    return (
        [flat[s:e] for s, e in zip(g_starts, ends_i)],
        [(flat + lengths)[s:e] for s, e in zip(g_starts, ends_i)],
    )


# ---------------------------------------------------------------------------
# Payloads — per-occurrence payload stream (the Lucene84 .pay file's payload
# half, Lucene84PostingsFormat.java:39-104; PayloadHelper.java encode roles).
# Documented subset: payloads are 4-BYTE values (the shipped Float/Integer
# payload encoders — analysis/payloads/PayloadHelper.java); arbitrary-length
# byte payloads are not supported. Stream layout: ONE VInt per occurrence in
# (doc, position) order — 0 = no payload, else uint32 value + 1. Each
# occurrence is self-contained, so doc-disjoint runs byte-concatenate during
# merges exactly like the prox stream.
# ---------------------------------------------------------------------------


def encode_payloads(values: np.ndarray) -> bytes:
    """Encode per-occurrence payload words (uint64; 0 = missing, else
    uint32 payload value + 1) as one VInt stream."""
    v = np.asarray(values, dtype=np.uint64)
    if v.size == 0:
        return b""
    return write_vints(v)


def decode_payloads(pay_blob: bytes, freqs: np.ndarray) -> list[np.ndarray]:
    """Decode the payload stream to per-posting uint64 arrays (0 = no
    payload at that occurrence, else value + 1)."""
    freqs = np.asarray(freqs, dtype=np.int64)
    total = int(freqs.sum())
    vals, _ = read_vints(pay_blob, total)
    ends = np.cumsum(freqs)
    starts = ends - freqs
    return [vals[s:e] for s, e in zip(starts.tolist(), ends.tolist())]


def payload_as_int(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(int values, present mask) from payload words — the IntegerEncoder
    decode role; missing occurrences read as 0 with present=False."""
    v = np.asarray(vals, dtype=np.uint64)
    present = v != 0
    out = (np.maximum(v, 1) - 1).astype(np.int64)
    out[~present] = 0
    return out, present


def payload_as_float(vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(float32 values, present mask) — the PayloadHelper.decodeFloat role
    over stored float32 bit patterns."""
    v = np.asarray(vals, dtype=np.uint64)
    present = v != 0
    out = (np.maximum(v, 1) - 1).astype(np.uint32).view(np.float32).copy()
    out[~present] = np.float32(0.0)
    return out, present
