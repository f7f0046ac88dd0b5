"""SPIMI index build: read_parquet → extract → invert per batch → segments.

The Ray-Data shape of the reference ingest chain (SURVEY §3.1):

    reference                                   here
    ---------                                   ----
    IndexWriter.addDocument → DWPT              one map_batches task/batch
      (private in-RAM segment per thread,       (private in-memory inversion
       DocumentsWriterPerThreadPool.java:48)     per Arrow batch — SPIMI)
    DefaultIndexingChain.processField           vectorized dictionary-encode
      → TermsHashPerField.add                    + lexsort + run-length
      (BytesRefHash interning, byte slices)      (no per-row Python loop)
    DocumentsWriterPerThread.flush              write_segment (atomic rename)
    publish into SegmentInfos + commit          manifest.json (checkpoint.py)

Global docIDs are assigned deterministically at ingest (the ``doc_id``
column = row position in the input corpus), replacing Lucene's
segment-local-docID + docBase remap (index/MergeState.java:152-196): a
partition's docBase is simply its minimum doc_id, stable under task
retries — which is what makes rank tie-breaks and resume deterministic.

Each partition is analyzed by one ``analyze.analyze_for_index`` call,
which picks the tokenizer chain for the index option, and inverted in
array passes: Arrow dictionary_encode interns term bytes (the BytesRefHash
role), a stable argsort over a (term, doc) key produces the per-term
(doc, freq) runs (the FreqProxTermsWriter role), one batched
``codec.encode_terms`` call writes every term's FOR/VInt blocks, skip
data and exact per-block impact frontiers — the same encoder the merge
uses — and ``_side_column`` writes each of the prox, offset and payload
streams with one VInt pass. Every partition indexes positions.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .analyze import DEFAULT_ANALYZER, Analyzer, analyze_for_index, compute_norms
from .codec import encode_terms, vint_byte_counts, write_vints
from .extract import extract_batch
from .rayenv import remote_args as _rargs
from .segment import TERMS_SCHEMA, write_segment

PARTITIONS_SUBDIR = "partitions"


def _pair_deltas(v: np.ndarray, pair_starts: np.ndarray) -> np.ndarray:
    """Per-token deltas of ``v`` in (term, doc, position) order, restarted
    at each (term, doc) pair's first token as that value + 1: the prox
    stream's position deltas and the offset stream's start deltas."""
    d = np.empty(len(v), dtype=np.uint64)
    d[1:] = (v[1:] - v[:-1]).astype(np.uint64)
    d[pair_starts] = (v[pair_starts] + 1).astype(np.uint64)
    return d


def _side_column(words: list[np.ndarray], term_tok: np.ndarray) -> pa.Array:
    """One per-term binary column from per-token uint64 words already in
    (term, doc, position) order: two word arrays (offset start delta,
    length) interleave per token; one ``write_vints`` pass writes the
    stream, and the column is that buffer + int32 offsets at the term
    token starts ``term_tok`` — no per-term bytes(). No words gives an
    all-empty column (the stream is not indexed). Binary offsets are
    int32: a partition's stream must stay under 2 GiB."""
    if words:
        flat = words[0] if len(words) == 1 else np.stack(words, axis=1).ravel()
        stream = write_vints(flat)
        byte_at = np.concatenate(([0], np.cumsum(vint_byte_counts(flat))))
        bounds = byte_at[term_tok * len(words)]
    else:
        stream, bounds = b"", np.zeros(len(term_tok), dtype=np.int64)
    if int(bounds[-1]) > 0x7FFFFFFF:
        raise ValueError("partition stream > 2 GiB: lower partition_docs")
    offs = np.ascontiguousarray(bounds, dtype=np.int32)
    return pa.Array.from_buffers(
        pa.binary(), len(offs) - 1, [None, pa.py_buffer(offs), pa.py_buffer(stream)]
    )


def invert_to_segment(
    doc_ids: np.ndarray,
    texts: list[str],
    out_dir: str,
    analyzer: Analyzer = DEFAULT_ANALYZER,
    lineage: dict | None = None,
    index_offsets: bool = False,
    payload_delimiter: str | None = None,
    payload_encoder: str = "int",
    field: str = "body",
    doc_values: pa.Table | None = None,
) -> dict:
    """Invert one partition worth of documents into a segment directory:
    one ``analyze_for_index`` call, one vectorized inversion, one batched
    ``encode_terms`` of the postings and one ``_side_column`` per prox,
    offset and payload stream. Every partition indexes positions.

    Returns the manifest row (segment meta)."""
    t0 = time.perf_counter()
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    n_docs = len(doc_ids)
    order = np.argsort(doc_ids, kind="stable")
    if not np.array_equal(order, np.arange(n_docs)):
        doc_ids = doc_ids[order]
        texts = [texts[i] for i in order]
    # emitted counts drive doc mapping and sum_ttf; norms discount
    # posIncr==0 stacked tokens (BM25Similarity discountOverlaps=true)
    flat, lengths, norm_lengths, tok_positions, tok_offsets, tok_payloads = (
        analyze_for_index(texts, analyzer, index_offsets, payload_delimiter, payload_encoder)
    )
    norms = compute_norms(norm_lengths)

    # --- vectorized inversion (TermsHash + FreqProx analogue) -------------
    # Arrow dictionary_encode interns term bytes; a stable argsort over a
    # (term, doc) key yields per-term (doc, freq) runs; codec.encode_terms
    # encodes every term's postings, skip and exact impact data in array
    # passes over the whole partition (CompetitiveImpactAccumulator role
    # per block); the prox/offset/payload streams are one VInt pass each.
    cols: dict = {k.name: [] for k in TERMS_SCHEMA}
    if flat:
        enc = pc.dictionary_encode(pa.array(flat, type=pa.string()))
        term_idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        dictionary = np.asarray(enc.dictionary)
        n_terms = len(dictionary)
        sort_idx = np.argsort(dictionary, kind="stable")
        rank_of = np.empty(n_terms, dtype=np.int64)
        rank_of[sort_idx] = np.arange(n_terms)
        tok_doc = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
        key = rank_of[term_idx] * n_docs + tok_doc
        # stable sort groups tokens by (term, doc) keeping position order
        order = np.argsort(key, kind="stable")
        skey = key[order]
        pair_start_mask = np.empty(len(skey), dtype=bool)
        pair_start_mask[0] = True
        np.not_equal(skey[1:], skey[:-1], out=pair_start_mask[1:])
        pair_tok_starts = np.flatnonzero(pair_start_mask)
        pair_key = skey[pair_tok_starts]
        pair_freq = np.diff(np.append(pair_tok_starts, len(skey)))
        pair_rank = pair_key // n_docs
        pair_doc = pair_key % n_docs
        counts = np.bincount(pair_rank, minlength=n_terms).astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        # each term's first token in the sorted stream, then the end
        term_tok = np.append(pair_tok_starts[starts], len(skey))

        # the side streams ride the (term, doc, position) token order: the
        # prox deltas; interleaved (start delta, length) offset pairs (the
        # .pay offset role); one payload word per occurrence
        # (codec.encode_payloads layout, the .pay payload half)
        side = {"pos_blob": [_pair_deltas(tok_positions[order], pair_tok_starts)]}
        if tok_offsets is not None:
            so, eo = tok_offsets[0][order], tok_offsets[1][order]
            side["off_blob"] = [_pair_deltas(so, pair_tok_starts), (eo - so).astype(np.uint64)]
        if tok_payloads is not None:
            side["pay_blob"] = [tok_payloads[order]]
        cols = {
            "term": enc.dictionary.take(pa.array(sort_idx)),
            **encode_terms(doc_ids[pair_doc], pair_freq, norms[pair_doc], starts, starts + counts),
            **{k: _side_column(side.get(k, []), term_tok) for k in ("pos_blob", "off_blob", "pay_blob")},
        }

    meta = {
        "kind": "partition",
        "field": field,
        "index_options": "docs_freqs_positions"
        + ("_payloads" if payload_delimiter is not None else "_offsets" if index_offsets else ""),
        "doc_base": int(doc_ids.min()) if n_docs else 0,
        "n_docs": n_docs,
        "sum_ttf": int(lengths.sum()),
        "n_terms": len(cols["term"]),
        "lineage": lineage or {},
        "wall_ms": round((time.perf_counter() - t0) * 1000.0, 3),
        "doc_values": sorted(
            n for n in (doc_values.schema.names if doc_values is not None else []) if n != "doc_id"
        ),
    }
    return write_segment(
        out_dir,
        pa.table(cols, schema=TERMS_SCHEMA),
        doc_ids,
        norms,
        meta,
        doc_values=doc_values,
    )


def make_inverter(
    index_dir: str,
    analyzer: Analyzer = DEFAULT_ANALYZER,
    from_html: bool = False,
    fields: tuple[str, ...] = ("body",),
    index_offsets: bool = False,
    payload_delimiter: str | None = None,
    payload_encoder: str = "int",
    dv_columns: tuple[str, ...] = (),
):
    """Batch fn for ``ds.map_batches(...)``: one Arrow batch → one partition
    segment on disk PER FIELD → one manifest row out (tiny — the heavy data
    never leaves the task).

    Multi-field indexing (benchmark/.../feeds/DocMaker.java:197-198,289-291
    indexes doctitle and body as separate fields; index/FieldInfos.java):
    each extra field gets its own parallel segment tree under
    <index_dir>/fields/<field>/partitions with its own postings, norms and
    stats — docIDs are shared across fields, so cross-field boolean
    queries intersect on global docIDs."""

    def _field_dir(fld: str, base: int) -> str:
        if fld == "body":
            return os.path.join(index_dir, PARTITIONS_SUBDIR, f"p{base:012d}")
        return os.path.join(
            index_dir, "fields", fld, PARTITIONS_SUBDIR, f"p{base:012d}"
        )

    def _invert(batch: pa.Table) -> pa.Table:
        import json

        doc_ids = batch.column("doc_id").to_numpy()
        base = int(doc_ids.min()) if len(doc_ids) else 0
        dirs = {fld: _field_dir(fld, base) for fld in fields}
        metas: dict[str, dict] = {}
        if all(os.path.exists(os.path.join(d, "meta.json")) for d in dirs.values()):
            # resume: every field segment already built (atomic rename
            # completed) — skip extraction + inversion entirely
            for fld, d in dirs.items():
                with open(os.path.join(d, "meta.json")) as f:
                    metas[fld] = json.load(f)
        else:
            if from_html:
                batch = extract_batch(batch)
            lineage = {
                "row_range": [int(doc_ids.min()), int(doc_ids.max())]
                if len(doc_ids)
                else [],
                "n_rows": len(doc_ids),
            }
            col_of = {"body": "text", "title": "title"}
            dv_tbl = None
            if dv_columns:
                # DocValues sidecar columns: 'n_chars' computes from the
                # extracted text, anything else passes through from the
                # source batch (the per-field doc-values add of
                # index/DocValuesType.java at document-ingest time)
                import pyarrow.compute as _pc

                dv_cols: dict = {"doc_id": pa.array(doc_ids, type=pa.int64())}
                for c in dv_columns:
                    if c in batch.column_names:  # ingested document field
                        dv_cols[c] = batch.column(c)
                    elif c == "n_chars":  # derivable fallback
                        dv_cols[c] = _pc.cast(
                            _pc.utf8_length(batch.column("text")), pa.int64()
                        )
                    else:
                        raise KeyError(f"doc-values column {c!r} not in batch")
                dv_tbl = pa.table(dv_cols)
            for fld in fields:
                texts = batch.column(col_of.get(fld, fld)).to_pylist()
                metas[fld] = invert_to_segment(
                    doc_ids,
                    texts,
                    dirs[fld],
                    analyzer,
                    lineage,
                    index_offsets=index_offsets,
                    payload_delimiter=payload_delimiter,
                    payload_encoder=payload_encoder,
                    field=fld,
                    doc_values=dv_tbl if fld == "body" else None,
                )
        row = {
            "seg_dir": dirs["body"],
            "doc_base": metas["body"]["doc_base"],
            "n_docs": metas["body"]["n_docs"],
            "sum_ttf": metas["body"]["sum_ttf"],
            "n_terms": metas["body"]["n_terms"],
            "wall_ms": metas["body"]["wall_ms"],
        }
        for fld in fields:
            if fld == "body":
                continue
            row[f"{fld}__seg_dir"] = dirs[fld]
            row[f"{fld}__sum_ttf"] = metas[fld]["sum_ttf"]
            row[f"{fld}__n_terms"] = metas[fld]["n_terms"]
        return pa.table({k: [v] for k, v in row.items()})

    return _invert


def build_index(
    input_paths: str | list[str],
    index_dir: str,
    partition_docs: int = 4096,
    analyzer: Analyzer = DEFAULT_ANALYZER,
    from_html: bool = True,
    fields: tuple[str, ...] = ("body",),
    index_offsets: bool = False,
    payload_delimiter: str | None = None,
    payload_encoder: str = "int",
    dv_columns: tuple[str, ...] = (),
) -> dict:
    """Driver for the build pipeline (Ray must already be initialised).

    read_parquet (pruned columns) → [extract] → invert per batch → manifest.
    Returns the build manifest (also written to <index_dir>/manifest.json).
    """
    import ray.data

    from .checkpoint import finalize_build_manifest, load_manifest

    existing = load_manifest(index_dir)
    if existing is not None:
        return existing

    # one task per input file: each task reads its shard (pruned columns)
    # and inverts it in partition_docs chunks — fully independent tasks, no
    # cross-file ordering constraints, perfect horizontal scaling (each
    # input file is a contiguous doc_id range by construction). This is the
    # resumable-output layout: partition dirs keyed by doc_base, reruns
    # skip finished ones.
    import glob as _glob

    if isinstance(input_paths, str):
        if os.path.isdir(input_paths):
            files = sorted(_glob.glob(os.path.join(input_paths, "*.parquet")))
        else:
            files = [input_paths]
    else:
        files = sorted(input_paths)
    columns = ["doc_id", "html"] if from_html else ["doc_id", "text"]
    if not from_html and "title" in fields:
        columns.append("title")  # title must come from the source table
    if files and dv_columns:
        import pyarrow.parquet as _pq

        have = set(_pq.read_schema(files[0]).names)
        for c in dv_columns:  # passthrough DV columns present in the source
            if c in have and c not in columns:
                columns.append(c)
    inverter = make_inverter(
        index_dir,
        analyzer,
        from_html=from_html,
        fields=fields,
        index_offsets=index_offsets,
        payload_delimiter=payload_delimiter,
        payload_encoder=payload_encoder,
        dv_columns=dv_columns,
    )

    def _invert_file(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        out = []
        for spec in batch.to_pylist():
            tbl = pq.read_table(spec["path"], columns=columns)
            for off in range(0, tbl.num_rows, partition_docs):
                out.append(inverter(tbl.slice(off, partition_docs)))
        return pa.concat_tables(out)

    rows = (
        ray.data.from_items([{"path": p} for p in files])
        .map_batches(_invert_file, batch_size=1, batch_format="pyarrow", **_rargs())
        .take_all()
    )  # manifest rows only: O(#partitions), tiny
    return finalize_build_manifest(index_dir, rows)
