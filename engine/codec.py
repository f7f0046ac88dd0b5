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
           instead of being interleaved, so decode stays vectorized.
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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def unpack_block(buf: bytes | memoryview, width: int, n: int = BLOCK_SIZE) -> np.ndarray:
    nbits = n * width
    raw = np.frombuffer(buf, dtype=np.uint8, count=(nbits + 7) // 8)
    bits = np.unpackbits(raw, count=nbits).reshape(n, width).astype(np.uint64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.uint64)
    return (bits << shifts[None, :]).sum(axis=1, dtype=np.uint64)


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


def merge_frontiers(
    f1: np.ndarray, n1: np.ndarray, f2: np.ndarray, n2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Union two frontiers into one (used by upper skip levels / merges)."""
    return impact_frontier(np.concatenate([f1, f2]), np.concatenate([n1, n2]))


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


def decode_term_postings(blob: bytes | memoryview, df: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode a full term blob back to (docs int64, freqs int64)."""
    nfull = df // BLOCK_SIZE
    tail_n = df - nfull * BLOCK_SIZE
    deltas = np.empty(df, dtype=np.uint64)
    freqs = np.empty(df, dtype=np.int64)
    mv = memoryview(blob)
    pos = 0
    for b in range(nfull):
        lo = b * BLOCK_SIZE
        pos = _decode_block_into(mv, pos, deltas, freqs, lo, BLOCK_SIZE)
    if tail_n:
        lo = nfull * BLOCK_SIZE
        combined, pos = read_vints(mv, tail_n, pos)
        d = combined >> np.uint64(1)
        flags = (combined & np.uint64(1)).astype(bool)
        n_rest = int((~flags).sum())
        rest, pos = read_vints(mv, n_rest, pos)
        deltas[lo:] = d
        f = np.ones(tail_n, dtype=np.int64)
        f[~flags] = rest.astype(np.int64)
        freqs[lo:] = f
    docs = np.cumsum(deltas.astype(np.int64)) - 1
    return docs, freqs


def _decode_block_into(
    mv: memoryview, pos: int, deltas: np.ndarray, freqs: np.ndarray, lo: int, n: int
) -> int:
    w = mv[pos]
    pos += 1
    if w == 0:
        deltas[lo : lo + n] = 1
    else:
        nb = (n * w + 7) // 8
        deltas[lo : lo + n] = unpack_block(mv[pos : pos + nb], w, n)
        pos += nb
    wf = mv[pos]
    pos += 1
    if wf == 0:
        val, pos = read_vints(mv, 1, pos)
        freqs[lo : lo + n] = int(val[0])
    else:
        nb = (n * wf + 7) // 8
        freqs[lo : lo + n] = unpack_block(mv[pos : pos + nb], wf, n).astype(np.int64)
        pos += nb
    return pos


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
    mv = memoryview(blob)
    pos = int(tp_offsets[block_idx])
    if block_idx < nfull:
        deltas = np.empty(BLOCK_SIZE, dtype=np.uint64)
        freqs = np.empty(BLOCK_SIZE, dtype=np.int64)
        _decode_block_into(mv, pos, deltas, freqs, 0, BLOCK_SIZE)
    else:
        tail_n = df - nfull * BLOCK_SIZE
        combined, pos = read_vints(mv, tail_n, pos)
        deltas = combined >> np.uint64(1)
        flags = (combined & np.uint64(1)).astype(bool)
        rest, pos = read_vints(mv, int((~flags).sum()), pos)
        freqs = np.ones(tail_n, dtype=np.int64)
        freqs[~flags] = rest.astype(np.int64)
    docs = np.cumsum(deltas.astype(np.int64)) + prev_last_doc
    return docs, freqs


def decode_term_postings_indexed(
    blob: bytes | memoryview, df: int, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized whole-term decode using the per-block offset array from
    the skip data: blocks are grouped by bit width and unpacked in one
    numpy pass per width (the FastLanes-style batched unpack), instead of
    the per-block Python loop of ``decode_term_postings``. Rank-identical
    output; ~10x faster for high-df terms."""
    nfull = df // BLOCK_SIZE
    tail_n = df - nfull * BLOCK_SIZE
    deltas = np.empty(df, dtype=np.uint64)
    freqs = np.empty(df, dtype=np.int64)
    raw = np.frombuffer(blob, dtype=np.uint8)
    mv = memoryview(blob)

    if nfull:
        offs = np.asarray(offsets[:nfull], dtype=np.int64)
        wd = raw[offs].astype(np.int64)  # doc-block widths (0 = all deltas 1)
        doc_start = offs + 1
        freq_tok_pos = doc_start + np.where(wd > 0, 16 * wd, 0)
        wf = raw[freq_tok_pos].astype(np.int64)

        # doc deltas, batched per distinct width
        dview = deltas[: nfull * BLOCK_SIZE].reshape(nfull, BLOCK_SIZE)
        fview = freqs[: nfull * BLOCK_SIZE].reshape(nfull, BLOCK_SIZE)
        all1 = np.flatnonzero(wd == 0)
        if len(all1):
            dview[all1] = 1
        for w in np.unique(wd[wd > 0]):
            blocks = np.flatnonzero(wd == w)
            nb = 16 * int(w)
            idx = doc_start[blocks][:, None] + np.arange(nb)[None, :]
            chunk = raw[idx]  # (n_blocks, nb)
            bits = np.unpackbits(chunk, axis=1)[:, : BLOCK_SIZE * int(w)]
            bits = bits.reshape(len(blocks), BLOCK_SIZE, int(w)).astype(np.uint64)
            shifts = np.arange(int(w) - 1, -1, -1, dtype=np.uint64)
            dview[blocks] = (bits << shifts[None, None, :]).sum(axis=2, dtype=np.uint64)

        # freqs: width-grouped packed blocks; wf==0 means all-equal + VInt
        eq = np.flatnonzero(wf == 0)
        if len(eq):
            vals = read_vints_at(raw, freq_tok_pos[eq] + 1)
            fview[eq] = vals.astype(np.int64)[:, None]
        for w in np.unique(wf[wf > 0]):
            blocks = np.flatnonzero(wf == w)
            nb = (BLOCK_SIZE * int(w) + 7) // 8
            idx = (freq_tok_pos[blocks] + 1)[:, None] + np.arange(nb)[None, :]
            chunk = raw[idx]
            bits = np.unpackbits(chunk, axis=1)[:, : BLOCK_SIZE * int(w)]
            bits = bits.reshape(len(blocks), BLOCK_SIZE, int(w)).astype(np.uint64)
            shifts = np.arange(int(w) - 1, -1, -1, dtype=np.uint64)
            fview[blocks] = (bits << shifts[None, None, :]).sum(axis=2, dtype=np.uint64).astype(
                np.int64
            )

    if tail_n:
        pos = int(offsets[nfull]) if nfull < len(offsets) else 0
        combined, pos = read_vints(mv, tail_n, pos)
        lo = nfull * BLOCK_SIZE
        deltas[lo:] = combined >> np.uint64(1)
        flags = (combined & np.uint64(1)).astype(bool)
        rest, pos = read_vints(mv, int((~flags).sum()), pos)
        f = np.ones(tail_n, dtype=np.int64)
        f[~flags] = rest.astype(np.int64)
        freqs[lo:] = f

    docs = np.cumsum(deltas.astype(np.int64)) - 1
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
