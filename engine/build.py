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

Inversion is fully vectorized per batch: Arrow dictionary_encode interns
term bytes (the BytesRefHash role), ``np.unique`` over a (term, doc) key
produces the per-term (doc, freq) runs (the FreqProxTermsWriter role), and
one batched ``codec.encode_terms`` call writes every term's FOR/VInt
blocks, skip data and exact per-block impact frontiers — the same encoder
the merge uses.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa

from .rayenv import remote_args as _rargs
import pyarrow.compute as pc

from .analyze import DEFAULT_ANALYZER, Analyzer, compute_norms
from .codec import encode_terms
from .extract import extract_batch
from .segment import TERMS_SCHEMA, write_segment

PARTITIONS_SUBDIR = "partitions"


def invert_to_segment(
    doc_ids: np.ndarray,
    texts: list[str],
    out_dir: str,
    analyzer: Analyzer = DEFAULT_ANALYZER,
    lineage: dict | None = None,
    index_positions: bool = True,
    index_offsets: bool = False,
    payload_delimiter: str | None = None,
    payload_encoder: str = "int",
    field: str = "body",
    doc_values: pa.Table | None = None,
) -> dict:
    """Invert one partition worth of documents into a segment directory.

    Returns the manifest row (segment meta)."""
    t0 = time.perf_counter()
    doc_ids = np.asarray(doc_ids, dtype=np.int64)
    n_docs = len(doc_ids)
    order = np.argsort(doc_ids, kind="stable")
    if not np.array_equal(order, np.arange(n_docs)):
        doc_ids = doc_ids[order]
        texts = [texts[i] for i in order]
    from .analyze import (
        analyze_batch_indexing,
        analyze_batch_with_offsets,
        analyze_batch_with_payloads,
    )

    # positions carry StopFilter / over-long-token increment GAPS
    # (StopFilter.java:28, StandardTokenizer.java:152-175): a phrase
    # across a removed token must not match adjacently
    tok_starts = tok_ends = None
    tok_payloads = None
    if payload_delimiter is not None:
        if index_offsets or analyzer.synonyms:
            raise NotImplementedError(
                "payloads combine with neither offsets nor the index-time "
                "synonym graph in this engine (pick one sidecar stream)"
            )
        # payloads imply positions (the .pay stream hangs off the prox
        # stream, Lucene84PostingsFormat.java:39-104)
        index_positions = True
        flat, lengths, tok_positions, tok_payloads = analyze_batch_with_payloads(
            texts, analyzer, delimiter=payload_delimiter, encoder=payload_encoder
        )
        norm_lengths = lengths
    elif index_offsets:
        if analyzer.synonyms:
            raise NotImplementedError(
                "offsets + index-time synonym graph not supported (stacked "
                "tokens carry no distinct character offsets)"
            )
        # offsets imply positions (IndexOptions.java:28 ..._AND_OFFSETS)
        index_positions = True
        flat, lengths, tok_positions, tok_starts, tok_ends = (
            analyze_batch_with_offsets(texts, analyzer)
        )
        norm_lengths = lengths
    else:
        # synonym-aware indexing path: emitted counts drive doc mapping
        # and sum_ttf; norms discount posIncr==0 stacked tokens
        # (BM25Similarity discountOverlaps=true default)
        flat, lengths, norm_lengths, tok_positions = analyze_batch_indexing(
            texts, analyzer
        )
    norms = compute_norms(norm_lengths)

    # --- vectorized inversion (TermsHash + FreqProx analogue) -------------
    # Arrow dictionary_encode interns term bytes; np.unique over a
    # (term, doc) key yields per-term (doc, freq) runs; codec.encode_terms
    # encodes every term's postings, skip and exact impact data in array
    # passes over the whole partition (CompetitiveImpactAccumulator role
    # per block); the prox/offset/payload streams are one VInt pass each.
    from .codec import vint_byte_counts, write_vints

    cols: dict[str, list] = {k.name: [] for k in TERMS_SCHEMA}
    if flat:
        enc = pc.dictionary_encode(pa.array(flat, type=pa.string()))
        term_idx = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        dictionary = np.asarray(enc.dictionary)
        n_terms = len(dictionary)
        sort_idx = np.argsort(dictionary, kind="stable")
        rank_of = np.empty(n_terms, dtype=np.int64)
        rank_of[sort_idx] = np.arange(n_terms)
        tok_doc = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
        tok_pos = tok_positions
        key = rank_of[term_idx] * n_docs + tok_doc
        # stable sort groups tokens by (term, doc) keeping position order
        order = np.argsort(key, kind="stable")
        skey = key[order]
        spos = tok_pos[order]
        pair_start_mask = np.empty(len(skey), dtype=bool)
        pair_start_mask[0] = True
        np.not_equal(skey[1:], skey[:-1], out=pair_start_mask[1:])
        pair_tok_starts = np.flatnonzero(pair_start_mask)
        pair_key = skey[pair_tok_starts]
        pair_freq = np.diff(np.concatenate((pair_tok_starts, [len(skey)]))).astype(np.int64)
        pair_rank = pair_key // n_docs
        pair_doc = pair_key % n_docs
        counts = np.bincount(pair_rank, minlength=n_terms).astype(np.int64)
        starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
        ends = starts + counts
        docs_g = doc_ids[pair_doc]
        norms_pp = norms[pair_doc]

        ttf = np.add.reduceat(pair_freq, starts)

        # positions: one batched VInt pass over the whole prox stream,
        # per-term blobs = byte slices at term token boundaries
        def _bin_col(bounds: np.ndarray, stream: bytes) -> pa.Array:
            """Zero-copy per-term binary column: the batched VInt stream
            is already laid out in term order, so the column is the
            stream buffer + int32 slice offsets — no per-term bytes().
            Partition streams are bounded by partition_docs (~4096 docs),
            far under the int32 offset ceiling; assert anyway."""
            assert int(bounds[-1]) <= 0x7FFFFFFF, "partition stream > 2 GiB"
            offs = np.ascontiguousarray(bounds, dtype=np.int32)
            return pa.Array.from_buffers(
                pa.binary(),
                len(offs) - 1,
                [None, pa.py_buffer(offs), pa.py_buffer(stream)],
            )

        _empty_bounds = np.zeros(n_terms + 1, dtype=np.int64)

        if index_positions:
            p_deltas = np.empty(len(spos), dtype=np.uint64)
            p_deltas[1:] = (spos[1:] - spos[:-1]).astype(np.uint64)
            p_deltas[pair_tok_starts] = (spos[pair_tok_starts] + 1).astype(np.uint64)
            p_stream = write_vints(p_deltas)
            p_nbytes = vint_byte_counts(p_deltas)
            p_off = np.concatenate(([0], np.cumsum(p_nbytes)))
            term_tok_starts = np.concatenate(([0], np.cumsum(ttf)))
            pos_col = _bin_col(p_off[term_tok_starts], p_stream)
        else:
            pos_col = _bin_col(_empty_bounds, b"")

        if index_offsets and len(spos):
            # offsets stream mirrors the prox stream build: interleaved
            # (start delta, length) VInt pairs over the SAME (term, doc)
            # sorted token order, one batched write_vints pass, per-term
            # blobs sliced at token boundaries (the .pay offset role)
            so = tok_starts[order]
            eo = tok_ends[order]
            o_deltas = np.empty(len(so), dtype=np.uint64)
            o_deltas[1:] = (so[1:] - so[:-1]).astype(np.uint64)
            o_deltas[pair_tok_starts] = (so[pair_tok_starts] + 1).astype(np.uint64)
            o_lens = (eo - so).astype(np.uint64)
            inter = np.empty(2 * len(so), dtype=np.uint64)
            inter[0::2] = o_deltas
            inter[1::2] = o_lens
            o_stream = write_vints(inter)
            o_nbytes = vint_byte_counts(o_deltas) + vint_byte_counts(o_lens)
            o_boff = np.concatenate(([0], np.cumsum(o_nbytes)))
            o_tok_starts = np.concatenate(([0], np.cumsum(ttf)))
            off_col = _bin_col(o_boff[o_tok_starts], o_stream)
        else:
            off_col = _bin_col(_empty_bounds, b"")

        if tok_payloads is not None and len(spos):
            # payload stream rides the SAME (term, doc, position) sorted
            # order as the prox stream: one VInt word per occurrence
            # (codec.encode_payloads layout), per-term blobs sliced at
            # token boundaries — the .pay payload half
            pw = tok_payloads[order]
            pay_stream = write_vints(pw)
            pay_nbytes = vint_byte_counts(pw)
            pay_boff = np.concatenate(([0], np.cumsum(pay_nbytes)))
            pay_tok_starts = np.concatenate(([0], np.cumsum(ttf)))
            pay_col = _bin_col(pay_boff[pay_tok_starts], pay_stream)
        else:
            pay_col = _bin_col(_empty_bounds, b"")

        # the postings columns: one batched encode of every term
        cols = {
            "term": enc.dictionary.take(pa.array(sort_idx)),
            **encode_terms(docs_g, pair_freq, norms_pp, starts, ends),
            "pos_blob": pos_col,
            "off_blob": off_col,
            "pay_blob": pay_col,
        }
        n_terms_out = n_terms
    else:
        n_terms_out = 0

    meta = {
        "kind": "partition",
        "field": field,
        "index_options": (
            "docs_freqs_positions_payloads"
            if payload_delimiter is not None
            else "docs_freqs_positions_offsets"
            if index_offsets
            else "docs_freqs_positions" if index_positions else "docs_freqs"
        ),
        "doc_base": int(doc_ids.min()) if n_docs else 0,
        "n_docs": n_docs,
        "sum_ttf": int(lengths.sum()),
        "n_terms": n_terms_out,
        "lineage": lineage or {},
        "wall_ms": None,  # filled below
    }
    meta["wall_ms"] = round((time.perf_counter() - t0) * 1000.0, 3)
    meta["doc_values"] = sorted(
        n for n in (doc_values.schema.names if doc_values is not None else []) if n != "doc_id"
    )
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
