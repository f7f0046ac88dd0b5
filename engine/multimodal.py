"""Multimodal column operators — binary payloads with typed metadata.

Treats image/audio/video as opaque ``binary`` columns (the input-hint html
column is the template: bytes + metadata columns). The actual codec work
(JPEG decode, resampling, frame extraction) depends on libraries not
present in this container, so the decode kernels are STUBBED behind
``NotImplementedError`` or a clearly-marked deterministic fake — but the
Ray-side plumbing is real and tested: schemas, actor-pool signatures,
batch sizing for large binary cells, and output layouts are exactly what a
real decoder would drop into.

Stages are callable CLASSES, run as
``map_batches(rayenv.ProcessStage(Cls), ...)`` tasks — model/codec setup
happens once per worker process in ``__init__``; per the memory
guidance, binary payload stages use small ``batch_size`` so
batch x concurrency fits the worker heap.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np
import pyarrow as pa

from .rayenv import remote_args as _rargs

IMAGE_META_SCHEMA = pa.schema(
    [
        ("doc_id", pa.int64()),
        ("n_bytes", pa.int64()),
        ("format", pa.string()),
        ("width", pa.int32()),
        ("height", pa.int32()),
        ("content_md5", pa.string()),
    ]
)


def sniff_format(payload: bytes) -> str:
    """Real (non-stub) container sniffing from magic bytes."""
    if payload[:3] == b"\xff\xd8\xff":
        return "jpeg"
    if payload[:8] == b"\x89PNG\r\n\x1a\n":
        return "png"
    if payload[:6] in (b"GIF87a", b"GIF89a"):
        return "gif"
    if payload[:4] == b"RIFF" and payload[8:12] == b"WEBP":
        return "webp"
    if payload[:4] == b"RIFF" and payload[8:12] == b"WAVE":
        return "wav"
    if payload[:3] == b"ID3" or payload[:2] in (b"\xff\xfb", b"\xff\xf3"):
        return "mp3"
    return "unknown"


def parse_dimensions(payload: bytes, fmt: str) -> tuple[int, int]:
    """Real header parsing for PNG/GIF (pure struct math); other formats
    would need a codec — stubbed to (-1, -1)."""
    try:
        if fmt == "png" and len(payload) >= 24:
            w, h = struct.unpack(">II", payload[16:24])
            return int(w), int(h)
        if fmt == "gif" and len(payload) >= 10:
            w, h = struct.unpack("<HH", payload[6:10])
            return int(w), int(h)
    except struct.error:
        pass
    return -1, -1


class ImageMetaExtractor:
    """Actor-pool stage: binary image column → typed metadata rows.
    Everything here is real (sniffing, header math, hashing); only full
    decode is delegated to ``ImageDecoder``."""

    def __init__(self, payload_col: str = "payload"):
        self.payload_col = payload_col

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column(self.payload_col).to_pylist()
        rows = {k.name: [] for k in IMAGE_META_SCHEMA}
        doc_ids = batch.column("doc_id").to_pylist()
        for did, p in zip(doc_ids, payloads):
            p = p or b""
            fmt = sniff_format(p)
            w, h = parse_dimensions(p, fmt)
            rows["doc_id"].append(did)
            rows["n_bytes"].append(len(p))
            rows["format"].append(fmt)
            rows["width"].append(w)
            rows["height"].append(h)
            # md5 over the canonical lowercase-hex encoding: DuckDB's md5 is
            # VARCHAR-only, so hashing the hex string keeps the content
            # fingerprint SQL-replayable (CLAUDE.md process-independent rule)
            rows["content_md5"].append(hashlib.md5(p.hex().encode()).hexdigest())
        return pa.table(rows, schema=IMAGE_META_SCHEMA)


class ImageDecoder:
    """Actor-pool decode stage (STUB). A real deployment passes
    ``decode_fn`` (e.g. PIL/turbojpeg) loaded once per actor here; in this
    container the default raises, and ``fake=True`` produces a
    deterministic 8x8 grayscale thumbnail derived from the payload hash so
    downstream stages (resize, embedding) are testable end-to-end."""

    THUMB = 8

    def __init__(self, decode_fn=None, fake: bool = False, payload_col: str = "payload"):
        self.decode_fn = decode_fn
        self.fake = fake
        self.payload_col = payload_col

    def _decode(self, payload: bytes) -> np.ndarray:
        if self.decode_fn is not None:
            return self.decode_fn(payload)
        if self.fake:
            digest = hashlib.sha256(payload or b"").digest()
            arr = np.frombuffer((digest * 2)[: self.THUMB * self.THUMB], dtype=np.uint8)
            return arr.reshape(self.THUMB, self.THUMB)
        raise NotImplementedError(
            "image codecs are not available in this container; pass decode_fn "
            "or fake=True"
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch.column(self.payload_col).to_pylist()
        thumbs = [self._decode(p).ravel().tolist() for p in payloads]
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "thumb": pa.array(thumbs, type=pa.list_(pa.uint8())),
            }
        )


class AudioFrameSampler:
    """Actor-pool stage (STUB wiring): audio binary → fixed-rate frame
    windows. Real resampling needs an audio lib; the deterministic fake
    treats the payload bytes as int8 PCM so windowing math is real."""

    def __init__(self, frame_len: int = 256, hop: int = 128, fake: bool = True):
        if not fake:
            raise NotImplementedError("audio codecs unavailable; use fake=True")
        self.frame_len = frame_len
        self.hop = hop

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_doc, out_frame, out_energy = [], [], []
        for did, p in zip(
            batch.column("doc_id").to_pylist(), batch.column("payload").to_pylist()
        ):
            pcm = np.frombuffer(p or b"\x00" * self.frame_len, dtype=np.int8).astype(
                np.float64
            )
            n = max(0, (len(pcm) - self.frame_len) // self.hop + 1)
            for f in range(n):
                w = pcm[f * self.hop : f * self.hop + self.frame_len]
                out_doc.append(did)
                out_frame.append(f)
                out_energy.append(float(np.sqrt(np.mean(w * w))))
        return pa.table(
            {
                "doc_id": pa.array(out_doc, type=pa.int64()),
                "frame": pa.array(out_frame, type=pa.int32()),
                "rms_energy": pa.array(out_energy, type=pa.float64()),
            }
        )


def synth_image_payloads(ds, seed: int = 42):
    """Deterministic fake binary payload column for testing the plumbing:
    tiny valid PNG/GIF headers + hash-derived bytes, sized by doc_id."""

    def _mk(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        payloads = []
        for did in doc_ids:
            h = hashlib.sha256(f"{seed}:{did}".encode()).digest()
            if did % 3 == 0:
                head = b"\x89PNG\r\n\x1a\n" + b"\x00" * 8 + struct.pack(
                    ">II", 16 + did % 64, 9 + did % 32
                )
            elif did % 3 == 1:
                head = b"GIF89a" + struct.pack("<HH", 32 + did % 100, 24)
            else:
                head = b"\xff\xd8\xff\xe0"
            payloads.append(head + h * ((did % 5) + 1))
        return pa.table(
            {"doc_id": batch.column("doc_id"), "payload": pa.array(payloads, type=pa.binary())}
        )

    return ds.map_batches(_mk, batch_format="pyarrow", **_rargs())


class VideoFrameSampler:
    """Actor-pool frame-sample stage (STUB wiring): video binary →
    every ``stride``-th fixed-size frame block with a per-frame stat.
    A real deployment passes ``extract_fn`` (e.g. pyav keyframe
    iteration) loaded once per actor; the deterministic fake treats the
    payload as raw 64-byte luma frames so the SAMPLING math (stride
    selection, frame indexing, per-frame reduction) is real and tested.
    Large binary payloads want a small ``batch_size`` on the
    map_batches call — frames explode row counts."""

    FRAME_BYTES = 64

    def __init__(self, stride: int = 4, extract_fn=None, fake: bool = True):
        if extract_fn is None and not fake:
            raise NotImplementedError("video codecs unavailable; use fake=True")
        self.stride = stride
        self.extract_fn = extract_fn

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_doc, out_idx, out_luma = [], [], []
        for did, p in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("payload").to_pylist(),
        ):
            if self.extract_fn is not None:
                frames = self.extract_fn(p)
            else:
                raw = np.frombuffer(p or b"", dtype=np.uint8)
                n_frames = len(raw) // self.FRAME_BYTES
                frames = [
                    raw[i * self.FRAME_BYTES : (i + 1) * self.FRAME_BYTES]
                    for i in range(n_frames)
                ]
            for fi in range(0, len(frames), self.stride):
                out_doc.append(did)
                out_idx.append(fi)
                out_luma.append(float(np.mean(frames[fi].astype(np.float64))))
        return pa.table(
            {
                "doc_id": pa.array(out_doc, type=pa.int64()),
                "frame_idx": pa.array(out_idx, type=pa.int32()),
                "mean_luma": pa.array(out_luma, type=pa.float64()),
            }
        )


def synth_media_payloads(ds, seed: int = 7, max_blocks: int = 40):
    """Deterministic fake audio/video binary column (hash-derived bytes,
    length varies by doc_id) for exercising the sampler plumbing."""
    import hashlib

    def _mk(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        payloads = []
        for did in doc_ids:
            h = hashlib.sha256(f"media:{seed}:{did}".encode()).digest()
            payloads.append(h * ((did % max_blocks) + 8))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "payload": pa.array(payloads, type=pa.binary()),
            }
        )

    return ds.map_batches(_mk, batch_format="pyarrow", **_rargs())


class ImageEmbedder:
    """Actor-pool stage: binary image payload -> embedding vector (the
    CLIP-image-tower role in a multimodal training pipeline). The Ray
    plumbing — actor pool so a real model loads ONCE per actor in
    __init__, batched payload decode, list<float> output column feeding
    the ANN operators — is real; the encoder itself is a DETERMINISTIC
    STUB (no vision libs in this container): dim d of doc i is
    ((i * 2654435761 + d * 40503) % 1000) / 1000.0 - 0.5, integer-derived
    so the SQL oracle reconstructs the vectors exactly. A real deployment
    swaps _encode for a model forward pass; nothing else changes."""

    DIMS = 16

    def __init__(self, dims: int = 16):
        self.dims = dims  # a real impl loads the model here, once per actor

    def _encode(self, doc_ids: np.ndarray) -> np.ndarray:
        d = np.arange(self.dims, dtype=np.int64)
        raw = (doc_ids[:, None] * 2654435761 + d[None, :] * 40503) % 1000
        return raw.astype(np.float64) / 1000.0 - 0.5

    def __call__(self, batch: pa.Table) -> pa.Table:
        # payload is sniffed (format must parse) then "decoded" by the stub
        payloads = batch.column("payload").to_pylist()
        for p in payloads:
            assert sniff_format(p) in ("png", "gif", "jpeg"), "undecodable payload"
        ids = batch.column("doc_id").to_numpy()
        vecs = self._encode(ids)
        return pa.table(
            {
                "vec_id": batch.column("doc_id"),
                "embedding": pa.array(
                    [row.astype(np.float32).tolist() for row in vecs],
                    type=pa.list_(pa.float32()),
                ),
            }
        )
