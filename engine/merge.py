"""The merge: ``merge_by_term``, a term-partitioned shuffle, and its reader.

``merge_by_term`` (build pipelines, driver entries and the benchmark all
call it) re-groups every partition's postings by term with raw Ray tasks,
no Dataset all-to-all:

1. *Heavy pre-pass.* Pruned (term, df) reads with a pigeonhole filter
   find the terms whose global df reaches ``salt_threshold`` (the
   stop-word band, SURVEY §4): the *heavy* terms. The same reads take a
   df-weighted term sample of every partition, whose quantiles are the
   ``n_buckets - 1`` term-range boundaries of the light buckets. In
   parallel, tasks copy the partition norms into one norms file.
2. *Map-side exchange.* Each explode task reads a chunk of partitions and
   returns ``num_returns=n_buckets`` objects, one per bucket
   (``n_buckets`` grows with the corpus's token count,
   ``derive_n_buckets``). A light term goes to its term-range bucket,
   ``searchsorted(boundaries, term, side="right")``; a heavy term hashes
   ``fnv1a(term, salt) % n_buckets``, salts being contiguous
   partition-rank ranges so runs stay doc-ordered. Each bucket task
   depends on exactly its own slot of every explode task, so the
   exchange is the object transfer itself. The bucket task decodes its
   rows in one ``codec.decode_terms`` call and merges them in one sorted
   batch. Light terms are final: one ``codec.encode_terms`` call (the
   encoder the inverter uses, so the engine has one) writes them to one
   shard file per bucket. The salted groups of heavy terms leave one
   *run* file per bucket: their merged postings, norms and side streams,
   not encoded, in an uncompressed Arrow IPC file sorted by
   (term, salt).
   The light shards hold sorted, disjoint term ranges, so they and their
   manifest ``term_min``/``term_max`` are the sorted dictionary (the
   BlockTree .tim/.tip role) that serves prefix/range/fuzzy/suffix
   expansion.
3. *Final heavy pass.* df-weighted contiguous chunks of heavy terms each
   take their term range from every memory-mapped run file, join each
   term's runs in salt order (doc order: salts are contiguous partition
   ranks) and encode the chunk once into a term-range-disjoint heavy
   shard. No posting is decoded or encoded twice. A Bloom sidecar over
   all shard terms follows.

*Resume.* The unit of work is the bucket task: once it has written its
shard and its heavy-run file it records its result rows, postings,
terms (light rows plus run rows), output bytes and wall in
``merged/units/bucket-NNN.json`` (the merge manifest's ``buckets`` entry
summarizes them). A rerun adopts every
marked bucket untouched and explodes fragments only for the rest (no
explode at all when every bucket is done); the norms write reruns into
a new file, and the final heavy pass and the Bloom read the adopted
outputs and simply rerun. The range boundaries
are a pure function of the partition files and ``n_buckets``, so a rerun
routes every term to the bucket it had.
``merged/units/plan.json`` names the plan (partitions, salting and
bucket count); a rerun under a different plan clears
``merged/`` first, after checking that every partition still has its
postings files (a ``FileNotFoundError`` otherwise, with ``merged/``
untouched). File names stay write-once ``uuid`` names.

*Sweep.* After the manifest commits — and again on any call that finds it
committed — a sweep deletes ``heavy_runs/``, ``units/``, every file under
``terms/`` the manifest does not name, every ``norms*`` or ``*.tmp`` file
in ``merged/`` but the manifest's norms file, and ``terms.arrow`` /
``norms.u8`` of every partition dir that lies under the merge's own
``index_dir`` (the IndexFileDeleter rule: files no commit point
references go, and only inside the merge's own directory; an extra
field's merge owns ``fields/<field>/partitions``). The committed index
then holds one copy of the postings, and only the files its manifest
names (``check_merged_index`` asserts both). Partition ``meta.json``
(build resume, lineage) and ``docvalues.parquet`` stay. A later merge
under another plan or layout version cannot reread swept partitions and
raises instead; the index is rebuilt from its source.

``MergedIndex`` reads the result as one logical segment over the full doc
range, through the same ``segment.PostingsReader`` surface as a flushed
``Segment``, and looks each term up in a ``segment.TermShard`` as a
``Segment`` does. Term shards (light buckets and heavy shards,
``TERMS_SCHEMA``) are in the partitions' term file format: lz4-compressed
Arrow IPC files, written by ``segment.write_term_shard`` and memory-mapped
by ``segment.read_term_shard`` (the store/MMapDirectory.java role); every
reader of a shard path goes through that function or
``term_shard_dataset``. The norms are one raw uint8 file,
``merged/norms-<uuid>.u8``, one byte per doc over the manifest's
``norms`` [doc_lo, doc_hi), which bucket tasks and ``MergedIndex`` both
read through ``segment.map_norms``; heavy runs are uncompressed Arrow
IPC and live only until the sweep.
"""

from __future__ import annotations

import json
import os
import shutil
import time
from typing import NamedTuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc  # pa.compute is unset until this import

from .rayenv import remote_args as _rargs

from .codec import decode_terms, encode_terms
from .segment import (
    POSTINGS_FILES,
    TERMS_SCHEMA,
    PostingsReader,
    TermShard,
    binary_views,
    map_norms,
    read_term_shard,
    term_strings,
    write_term_shard,
)


def term_shard_dataset(paths: list[str], columns: list[str]):
    """Ray Dataset of the ``columns`` of the given term shard files: a
    Dataset of paths whose read tasks call ``read_term_shard`` (Ray Data
    has no Arrow IPC file reader)."""
    import ray.data

    def _read(batch: pa.Table) -> pa.Table:
        return pa.concat_tables(
            read_term_shard(p, columns) for p in batch.column("path").to_pylist()
        )

    return ray.data.from_items([{"path": p} for p in paths]).map_batches(
        _read, batch_format="pyarrow", **_rargs()
    )


# ---------------------------------------------------------------------------
# Salted term-partitioned shuffle (north-rule merge)
# ---------------------------------------------------------------------------

# Term samples per light bucket, over all partitions, behind the range
# boundaries: the quantile error of the bucket postings shrinks with it.
SAMPLES_PER_BUCKET = 64


def compute_heavy_terms(
    seg_dirs: list[str],
    salt_threshold: int,
    max_driver_rows: int = 2_000_000,
    n_buckets: int = 1,
) -> tuple[dict[str, int], list[str]]:
    """Heavy-term pre-pass and light-bucket boundaries, from one pruned
    (term, df) read of every partition — the driver never holds the
    (term, df) projection of the whole dictionary, only the
    stop-word-sized survivor set of one distributed filter pass and a
    term sample of ``SAMPLES_PER_BUCKET`` terms per bucket.

    Candidates: map-side filter df >= floor = ceil(T / n_parts). By
    pigeonhole, any term with global df >= T has at least one partition
    row above that floor, so the survivors are a guaranteed superset of
    the heavy set — and only a stop-word-sized set of rows
    (<= n_parts x |stop words|) ever leaves the map tasks.

    The tail: survivors group-sum by term and threshold at T. Up to
    ``max_driver_rows`` survivors that is a single pyarrow group-sum on
    the driver; above it (n_parts x |stop band| can reach 10^9 rows at
    10^6 partitions) the sum finishes as a DISTRIBUTED Dataset
    groupby(term) and only the final stop-word-sized heavy set ever
    reaches the driver. Map tasks pre-aggregate (term, df) within their
    batch, so duplicate terms collapse before the exchange either way.
    The candidate-partial sum is a lower bound on global df within
    n_parts x (floor-1) < T, so every term with global df >= 2T is
    guaranteed salted and only the borderline [T, 2T) band can stay
    unsalted — acceptable because salting is a pure layout/skew decision
    with no effect on merged output.

    Boundaries: each partition file gives ceil(SAMPLES_PER_BUCKET x
    n_buckets / n_parts) terms at evenly spaced points of its cumulative
    min(df, floor), each weighted by the file's total of that weight; the
    driver drops the heavy terms (they never enter a light bucket) and
    cuts the (term, weight)-sorted rest at ``n_buckets - 1`` weight
    quantiles. Weights make the buckets even in postings, not in terms
    (term order follows df rank on a Zipf vocabulary), and the cap at
    ``floor`` keeps the borderline band that stays unsalted from
    claiming whole buckets. The result depends only on the partition
    files and ``n_buckets``, never on the task split.

    Returns ({term: candidate df sum} for terms above the salting
    threshold, the sorted ``n_buckets - 1`` boundaries)."""
    import ray
    import ray.data

    term_files = [os.path.join(d, "terms.arrow") for d in seg_dirs]
    floor = -(-salt_threshold // max(1, len(seg_dirs)))  # ceil(T / n_parts)
    n_samp = -(-SAMPLES_PER_BUCKET * n_buckets // max(1, len(seg_dirs))) if n_buckets > 1 else 0

    # Raw Ray tasks, not a Dataset read: the partials are stop-band-sized
    # and the files tiny, so Dataset fixed costs (read planning +
    # materialize) dominated this stage (~1.5-2 s of a 2.8 s stage at
    # sf0.1/32cpu). Each task returns (row_count, partial table, sample)
    # so the driver can pick the small-path concat vs the distributed
    # tail WITHOUT fetching the tables first.
    @ray.remote(num_returns=3, **_rargs())
    def _cand_task(files: list[str]) -> tuple[int, pa.Table, pa.Table]:
        tables, samples = [], []
        for f in files:
            t = read_term_shard(f, ["term", "df"])
            if n_samp and t.num_rows:
                cw = np.cumsum(np.minimum(t.column("df").to_numpy(), floor))
                pts = (np.arange(n_samp) * 2 + 1) * int(cw[-1]) // (2 * n_samp)
                idx = np.searchsorted(cw, pts, side="right")
                samples.append(
                    pa.table(
                        {
                            "term": t.column("term").take(pa.array(idx)),
                            "w": pa.array(np.full(n_samp, int(cw[-1])), pa.int64()),
                        }
                    )
                )
            hit = t.filter(pc.greater_equal(t.column("df"), floor))
            if hit.num_rows:
                tables.append(hit)
        samp = pa.concat_tables(samples) if samples else pa.table(
            {"term": pa.array([], pa.string()), "w": pa.array([], pa.int64())}
        )
        if not tables:
            empty = pa.table(
                {"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
            )
            return 0, empty, samp
        cat = pa.concat_tables(tables)
        # map-side combiner: duplicate terms across this task's files
        # collapse before anything leaves the task
        agg = cat.group_by("term").aggregate([("df", "sum")])
        agg = agg.rename_columns(["term", "df"])
        return agg.num_rows, agg, samp

    n_tasks = min(len(term_files), max(8, int(ray.cluster_resources().get("CPU", 8)) * 2))
    chunk = -(-len(term_files) // n_tasks)
    triples = [
        _cand_task.remote(term_files[i : i + chunk])
        for i in range(0, len(term_files), chunk)
    ]
    n_cand = int(sum(ray.get([t[0] for t in triples])))
    table_refs = [t[1] for t in triples]
    if n_cand == 0:
        heavy = {}
    elif n_cand > max_driver_rows:
        cand = ray.data.from_arrow_refs(table_refs)
        # distributed tail: Dataset groupby-sum, threshold applied in the
        # reduce tasks — the driver sees only the heavy set
        from ray.data.aggregate import Sum

        agg_ds = cand.groupby("term").aggregate(Sum("df", alias_name="df_sum"))

        def _thresh(b: pa.Table) -> pa.Table:
            return b.filter(pc.greater_equal(b.column("df_sum"), salt_threshold))

        rows = agg_ds.map_batches(_thresh, batch_format="pyarrow", **_rargs()).take_all()
        heavy = {r["term"]: int(r["df_sum"]) for r in rows}
    else:
        tbls = [t for t in ray.get(table_refs) if t.num_rows]
        tbl = pa.concat_tables(tbls)
        agg = tbl.group_by("term").aggregate([("df", "sum")])
        mask = pc.greater_equal(agg.column("df_sum"), salt_threshold)
        hv = agg.filter(mask)
        heavy = dict(
            zip(
                hv.column("term").to_pylist(),
                (int(x) for x in hv.column("df_sum").to_pylist()),
            )
        )
    boundaries: list[str] = []
    if n_samp:
        samp = pa.concat_tables(ray.get([t[2] for t in triples]))
        # heavy terms never enter a light bucket
        samp = samp.filter(pc.invert(pc.is_in(samp.column("term"), pa.array(list(heavy), pa.string()))))
        samp = samp.take(pc.sort_indices(samp, sort_keys=[("term", "ascending"), ("w", "ascending")]))
        cw = np.cumsum(samp.column("w").to_numpy())
        if len(cw):
            # the first term whose cumulative weight reaches i/n_buckets
            cut = np.searchsorted(cw * n_buckets, np.arange(1, n_buckets) * cw[-1], side="left")
            boundaries = samp.column("term").take(pa.array(cut)).to_pylist()
    return heavy, boundaries


def write_norms_async(parts: list[dict], out_dir: str) -> tuple[dict, list]:
    """Start writing the corpus's norms file: raw uint8, one byte per doc
    over [doc_lo, doc_hi), the partitions' ``norms.u8`` bytes each at its
    doc offset; a doc-id gap between partitions reads 0. The driver only
    sizes the ``.tmp`` file; raw Ray tasks (a few independent file writes,
    where launch latency matters) each copy a contiguous chunk of the
    partitions into it, so the driver never holds a whole-corpus norms
    array.

    Returns ({path, doc_lo, doc_hi}, task refs) at once, so the writes
    overlap the heavy-term pre-pass; once the refs are done the caller
    publishes the file with ``os.replace(path + ".tmp", path)``. The file
    name is a write-once uuid."""
    import uuid

    import ray

    parts = sorted(parts, key=lambda r: r["doc_base"])
    lo = int(parts[0]["doc_base"]) if parts else 0
    hi = max((int(r["doc_base"]) + int(r["n_docs"]) for r in parts), default=lo)
    path = os.path.join(out_dir, f"norms-{uuid.uuid4().hex[:12]}.u8")
    with open(path + ".tmp", "wb") as f:
        f.truncate(hi - lo)
    spans = [(r["seg_dir"], int(r["doc_base"]) - lo, int(r["n_docs"])) for r in parts]
    step = max(1, -(-len(spans) // int(ray.cluster_resources().get("CPU", 1))))
    write = ray.remote(**_rargs())(_write_norms)
    refs = [write.remote(path + ".tmp", spans[i : i + step]) for i in range(0, len(spans), step)]
    return {"path": path, "doc_lo": lo, "doc_hi": hi}, refs


def _write_norms(tmp: str, spans: list[tuple[str, int, int]]) -> None:
    """Copy each partition's ``norms.u8`` into ``tmp`` at its offset. A
    partition whose norms cover more than its ``n_docs`` docs (doc ids not
    contiguous) would overwrite its successor's, so it raises."""
    fd = os.open(tmp, os.O_WRONLY)
    try:
        for seg_dir, offset, n_docs in spans:
            with open(os.path.join(seg_dir, "norms.u8"), "rb") as f:
                data = f.read()
            if len(data) > n_docs:
                raise ValueError(
                    f"{seg_dir}: norms cover {len(data)} doc ids for {n_docs} docs; "
                    "a partition's doc ids must be contiguous"
                )
            os.pwrite(fd, data, offset)
    finally:
        os.close(fd)


def _explode_chunk(
    seg_dirs_chunk: list[str],
    heavy: dict,
    rank_of_base: dict[int, int],
    n_salts: int,
    n_buckets: int,
    boundaries: list[str],
    done: frozenset[int],
):
    """Explode a chunk of partitions' term tables into PACKED per-bucket
    IPC fragments — a pure column transform (no postings decode): each
    blob travels opaque inside one Arrow-IPC fragment per (partition,
    bucket), so the exchange moves n_parts x n_buckets objects instead of
    one row per (term, partition) — same bytes, ~2 orders of magnitude
    less per-row shuffle overhead. Fragments of the ``done`` buckets
    (adopted on resume) are dropped here, at the map. Heavy terms get salt =
    contiguous-partition-rank-range id (runs stay doc-ordered) and the
    bucket fnv1a(term + "\\x00" + salt) % n_buckets (the vectorized
    FNV-1a), which spreads a heavy term's salts over the buckets; light
    terms salt -1 and their term-range bucket, the number of
    ``boundaries`` <= term.

    Returns a TUPLE of n_buckets lists of frag bytes: run under
    ``ray.remote(num_returns=n_buckets)`` this is a map-side-partitioned
    shuffle — each downstream bucket-merge task depends on exactly
    its own return slot of every explode task, with no Dataset
    sort-based all-to-all in between (measured: the Dataset groupby paid
    a superlinear per-block fixed cost that pinned explode parallelism
    to 16 blocks; raw routing removes the cliff entirely)."""
    from .textops import fnv1a_extend_vec, fnv1a_vec

    heavy_arr = pa.array(sorted(heavy), type=pa.string())
    bnd = np.array(boundaries, dtype=object)
    chunk = max(1, (len(rank_of_base) + n_salts - 1) // n_salts)
    out: list[list[bytes]] = [[] for _ in range(n_buckets)]
    for seg_dir in seg_dirs_chunk:
        t = read_term_shard(
            os.path.join(seg_dir, "terms.arrow"),
            # offsets ride along (one int per 128 postings): the bucket
            # merger's decode_terms finds every block of a row through them
            ["term", "df", "ttf", "singleton_doc", "blob", "pos_blob", "off_blob", "pay_blob", "offsets"],
        )
        with open(os.path.join(seg_dir, "meta.json")) as f:
            doc_base = json.load(f)["doc_base"]
        rank = rank_of_base[doc_base]
        salt_val = rank // chunk
        n = t.num_rows
        term_col = t.column("term").combine_chunks()
        if len(heavy):
            is_heavy = pc.is_in(term_col, value_set=heavy_arr).to_numpy(
                zero_copy_only=False
            )
        else:
            is_heavy = np.zeros(n, dtype=bool)
        buckets = np.searchsorted(
            bnd, term_col.to_numpy(zero_copy_only=False), side="right"
        ).astype(np.int64)
        hv = np.flatnonzero(is_heavy)
        if len(hv):
            h = fnv1a_vec(term_col.take(pa.array(hv)))
            h_salted = fnv1a_extend_vec(h, f"\x00{salt_val}".encode())
            buckets[hv] = (h_salted % np.uint64(n_buckets)).astype(np.int64)
        salts = np.where(is_heavy, salt_val, -1).astype(np.int32)
        t = t.append_column("salt", pa.array(salts, type=pa.int32()))
        t = t.append_column(
            "doc_base", pa.array(np.full(n, doc_base), type=pa.int64())
        )
        order = np.argsort(buckets, kind="stable")
        t = t.take(pa.array(order))
        b_sorted = buckets[order]
        brk = np.flatnonzero(np.diff(b_sorted)) + 1
        starts = np.concatenate([[0], brk]).astype(np.int64)
        ends = np.concatenate([brk, [n]]).astype(np.int64)
        for s_, e_ in zip(starts.tolist(), ends.tolist()):
            b = int(b_sorted[s_])
            if b in done:
                continue
            frag = t.slice(s_, e_ - s_)
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(sink, frag.schema) as w:
                w.write_table(frag)
            out[b].append(sink.getvalue().to_pybytes())
    # num_returns=1 expects the single value itself, not a 1-tuple
    return tuple(out) if n_buckets > 1 else out[0]


class _Groups(NamedTuple):
    """The groups of one sorted batch of rows: group i's merged postings
    are ``docs/freqs/norms[starts[i]:ends[i]]``, doc ordered; ``side``
    holds its ``pos_blob``, ``off_blob`` and ``pay_blob``, one binary
    array each, one value per group; ``salts`` is its first row's salt."""

    terms: pa.Array
    salts: np.ndarray
    docs: np.ndarray
    freqs: np.ndarray
    norms: np.ndarray
    starts: np.ndarray
    ends: np.ndarray
    side: dict[str, pa.Array]

    def table(self, sel: np.ndarray | None = None) -> pa.Table:
        """``TERMS_SCHEMA`` rows of the groups ``sel`` (a boolean mask;
        every group if None), encoded in one ``encode_terms`` call."""
        idx = np.arange(len(self.starts)) if sel is None else np.flatnonzero(sel)
        take = pa.array(idx, type=pa.int64())
        cols = encode_terms(self.docs, self.freqs, self.norms, self.starts[idx], self.ends[idx])
        return pa.table(
            {
                "term": self.terms.take(take),
                **cols,
                **{k: v.take(take) for k, v in self.side.items()},
            },
            schema=TERMS_SCHEMA,
        )

    def run(self, sel: np.ndarray) -> pa.Table:
        """Heavy-run rows of the groups ``sel`` (a boolean mask): term,
        salt, the merged ``docs``, ``freqs`` and ``norms`` as lists, in
        the dtypes ``encode_terms`` is handed, and the side streams."""
        idx = np.flatnonzero(sel)
        take = pa.array(idx, type=pa.int64())
        lens = self.ends[idx] - self.starts[idx]
        offs = np.concatenate(([0], np.cumsum(lens)))
        at = np.arange(offs[-1]) + np.repeat(self.starts[idx] - offs[:-1], lens)
        offs_a = pa.array(offs, type=pa.int32())
        return pa.table(
            {
                "term": self.terms.take(take),
                "salt": self.salts[idx],
                **{
                    k: pa.ListArray.from_arrays(offs_a, pa.array(getattr(self, k)[at]))
                    for k in _RUN_POSTINGS
                },
                **{k: v.take(take) for k, v in self.side.items()},
            }
        )


_SIDE_STREAMS = ("pos_blob", "off_blob", "pay_blob")
_POSTINGS_COLS = ("df", "ttf", "singleton_doc", "blob", "offsets")  # decode_terms input
_RUN_POSTINGS = ("docs", "freqs", "norms")  # list columns of a heavy run


def _group_bytes(batch: pa.Table, name: str, g_starts: np.ndarray, g_ends: np.ndarray) -> pa.Array:
    """Per group, its rows' ``name`` streams joined: rows of a group are
    contiguous and doc-ordered, so that is one byte range of the column,
    taken without a copy. A group any of whose rows lacks the stream gets
    b"", as the stream then does not cover every posting."""
    n_groups = len(g_starts)
    arr = batch.column(name).chunk(0)
    offs, _ = binary_views(arr)
    missing = np.concatenate(([0], np.cumsum(offs[1:] <= offs[:-1])))
    has = missing[g_ends] == missing[g_starts]
    data = arr.buffers()[2] or pa.py_buffer(b"")
    bounds = np.ascontiguousarray(offs[np.append(g_starts, g_ends[-1])], dtype=np.int32)
    out = pa.Array.from_buffers(pa.binary(), n_groups, [None, pa.py_buffer(bounds), data])
    if not has.all():
        out = pc.if_else(pa.array(has), out, pa.scalar(b"", type=pa.binary()))
    return out


def _term_changes(batch: pa.Table) -> np.ndarray:
    """Per row of a non-empty single-chunk batch but the first: its term
    differs from the row before."""
    t = batch.column("term").chunk(0)
    return pc.not_equal(t.slice(1), t.slice(0, len(t) - 1)).to_numpy(zero_copy_only=False)


def _join_rows(batch: pa.Table, new_group: np.ndarray, docs, freqs, norms, row_ends) -> _Groups:
    """Join the rows of a sorted single-chunk batch into groups of
    consecutive rows: row i + 1 starts a new group where ``new_group[i]``.
    Row i's postings are ``docs/freqs/norms[row_ends[i-1]:row_ends[i]]``,
    so each group's postings are one contiguous slice, and so are its
    position, offset and payload bytes (``_group_bytes``); no per-group
    Python. A group whose rows interleave in doc order raises
    ``ValueError`` naming its term."""
    n = batch.num_rows
    brk = np.flatnonzero(new_group) + 1
    g_starts = np.concatenate([[0], brk]).astype(np.int64)
    g_ends = np.concatenate([brk, [n]]).astype(np.int64)
    p_lo = np.concatenate([[0], row_ends[:-1]])[g_starts]
    p_hi = row_ends[g_ends - 1]
    terms_a = batch.column("term").chunk(0)

    # docs ascend within a row, so a doc not above its predecessor inside
    # a group sits where one of its rows starts inside another's range
    back = np.flatnonzero(docs[1:] <= docs[:-1]) + 1
    back = back[~np.isin(back, p_lo)]
    if len(back):
        g = int(np.searchsorted(p_lo, back[0], side="right")) - 1
        raise ValueError(
            f"merge rows of term {terms_a[int(g_starts[g])].as_py()!r} interleave in doc "
            "order: their partitions' doc ranges overlap"
        )

    return _Groups(
        terms=terms_a.take(pa.array(g_starts)),
        salts=batch.column("salt").to_numpy()[g_starts],
        docs=docs,
        freqs=freqs,
        norms=norms,
        starts=p_lo,
        ends=p_hi,
        side={name: _group_bytes(batch, name, g_starts, g_ends) for name in _SIDE_STREAMS},
    )


def _merge_sorted_batch(batch: pa.Table, norms: np.ndarray, doc_lo: int) -> _Groups | None:
    """Merge a (term, salt, doc_base)-sorted single-chunk batch of shuffle
    rows into its (term, salt) groups, in sorted order, or None for an
    empty batch. ``norms`` holds the norm byte of doc ``doc_lo + i`` at i.

    One ``codec.decode_terms`` call decodes every row into one flat
    postings buffer at cumsum(df) offsets, which ``_join_rows`` joins. A
    group's rows are doc-ordered: partitions cover disjoint doc ranges
    (``finalize_build_manifest`` checks), rows sort by doc_base, and
    salts are contiguous partition-rank ranges."""
    if batch.num_rows == 0:
        return None
    salt = batch.column("salt").to_numpy()
    docs, freqs = decode_terms({c: batch.column(c).chunk(0) for c in _POSTINGS_COLS})
    new_group = _term_changes(batch) | (salt[1:] != salt[:-1])
    row_ends = np.cumsum(batch.column("df").to_numpy())
    return _join_rows(batch, new_group, docs, freqs, norms[docs - doc_lo], row_ends)


def _join_runs(runs: pa.Table) -> _Groups:
    """Join the heavy-run rows (``_Groups.run``) of some terms into one
    group per term: sorted by (term, salt), a term's runs are in doc
    order, so its postings, norms and side streams are theirs
    concatenated, with nothing decoded."""
    runs = runs.take(
        pc.sort_indices(runs, sort_keys=[("term", "ascending"), ("salt", "ascending")])
    ).combine_chunks()
    flat = {k: runs.column(k).chunk(0).flatten().to_numpy() for k in _RUN_POSTINGS}
    row_ends = np.cumsum(pc.list_value_length(runs.column("docs")).to_numpy(), dtype=np.int64)
    return _join_rows(runs, _term_changes(runs), **flat, row_ends=row_ends)


def _fmix64(h):
    """MurmurHash3 fmix64 finalizer (scalar int or uint64 ndarray) —
    restores avalanche that raw FNV-1a lacks in its low bits: strings
    differing only in a trailing digit hash to an arithmetic progression
    (delta * prime), which makes a pow2-masked single-hash Bloom cluster
    its false positives; the FuzzySet reference avoids this by using
    MurmurHash2 (codecs/bloom/FuzzySet.java hashFunction)."""
    if isinstance(h, np.ndarray):
        h = h.copy()
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xC4CEB9FE1A85EC53)
        h ^= h >> np.uint64(33)
        return h
    M = 0xFFFFFFFFFFFFFFFF
    h = (h ^ (h >> 33)) & M
    h = (h * 0xFF51AFD7ED558CCD) & M
    h = (h ^ (h >> 33)) & M
    h = (h * 0xC4CEB9FE1A85EC53) & M
    return (h ^ (h >> 33)) & M


def _bloom_partial(paths: list[str], m_bits: int) -> np.ndarray:
    """Partial Bloom bitset (packed uint64, little-bit-endian within each
    word) over the term columns of the given shard files — the map side
    of the FuzzySet build (codecs/bloom/FuzzySet.java:46-60 single-hash
    pow2-mask design; fnv1a + fmix64 finalizer standing in for
    MurmurHash2)."""
    from .textops import fnv1a_vec

    bits = np.zeros(m_bits // 64, dtype=np.uint64)
    mask = np.uint64(m_bits - 1)
    for p in paths:
        col = read_term_shard(p, ["term"]).column("term")
        h = _fmix64(fnv1a_vec(col)) & mask
        np.bitwise_or.at(
            bits,
            (h >> np.uint64(6)).astype(np.int64),
            np.uint64(1) << (h & np.uint64(63)),
        )
    return bits


# Layout version of the merge manifest: 3 = one raw norms file (2 kept
# Parquet norm shards; 1 hashed the light buckets and kept a dict level).
MERGE_VERSION = 3

# Tokens one bucket task is sized for. A bucket task carries ~5 ms of
# fixed cost (Ray timeline, 1 cpu), so a 4k-doc corpus (~873k tokens)
# gets 14 buckets while the 200k-doc bench.py headline (~43.6M tokens)
# keeps MAX_BUCKETS.
BUCKET_TOKENS = 1 << 16
MAX_BUCKETS = 128


def derive_n_buckets(sum_ttf: int) -> int:
    """Shuffle bucket count for a corpus of ``sum_ttf`` tokens:
    ceil(sum_ttf / BUCKET_TOKENS) clamped to [1, MAX_BUCKETS]. It reads
    only the build manifest, so the resume plan stays a pure function of
    it."""
    return min(MAX_BUCKETS, max(1, -(-int(sum_ttf) // BUCKET_TOKENS)))


def _bucket_summary(units: list[dict]) -> dict:
    """Skew summary of the bucket markers: count, wall p50/p99/max,
    postings total/max/median and terms (rows written) max/median."""
    wall = np.array([u["wall_ms"] for u in units], dtype=np.float64)
    post = np.array([u["postings"] for u in units], dtype=np.int64)
    terms = np.array([u["terms"] for u in units], dtype=np.int64)
    return {
        "count": len(units),
        "wall_ms_p50": round(float(np.percentile(wall, 50)), 3),
        "wall_ms_p99": round(float(np.percentile(wall, 99)), 3),
        "wall_ms_max": round(float(wall.max()), 3),
        "postings": int(post.sum()),
        "postings_max": int(post.max()),
        "postings_median": float(np.median(post)),
        "terms_max": int(terms.max()),
        "terms_median": float(np.median(terms)),
    }


def merge_by_term(
    manifest: dict,
    index_dir: str,
    salt_threshold: int | None = None,
    n_salts: int = 8,
    n_buckets: int | None = None,
) -> dict:
    """North-rule merge: term-partitioned shuffle with explicit salting.

    explode partitions (pure column transform) → raw-task exchange to
    bucket = term range for a light term, hash(term, salt) for a heavy
    one — an explicit partitioned shuffle with B buckets so per-group
    scheduling overhead is O(B), not O(#terms) —
    → each bucket task merges its terms in array passes, with no
    per-term Python → light terms are final after the single shuffle and
    are encoded there (``codec.encode_terms``); heavy terms appear as
    per-salt sub-groups, doc-ordered because salts are contiguous
    partition-rank ranges, which the bucket writes merged, not encoded →
    min(#heavy, max(8, 2·cpus)) df-weighted chunks of heavy terms each
    join their terms' runs in salt order and encode them once. Ray tasks
    copy the partition norms into one byte-per-doc file, which each
    merger memory-maps and gathers from — nothing whole-corpus is ever
    held on the driver or broadcast. Output under <index_dir>/merged/:
    term-range-sharded term files (the light shards in term order are the
    sorted dictionary) + the norms file + a Bloom sidecar. A rerun after a
    crash adopts every finished bucket, and the committed index holds
    only the files its manifest names and the only copy of the postings:
    the partitions under ``index_dir`` lose their term and norm files
    (module docstring, *Sweep*).

    The bucket count comes from the data: ``n_buckets=None`` (the
    default) derives it from the manifest's ``sum_ttf``
    (``derive_n_buckets``), for every field separately; an explicit
    count applies to the body field only. Each bucket marker records the
    bucket's postings, terms, output bytes and wall; the merge manifest's
    ``buckets`` entry summarizes them. Salt threshold defaults to 2% of doc_count
    (stop-word band, SURVEY §4)."""
    import ray
    import ray.data

    from .checkpoint import atomic_write_json, commit_merge_manifest, load_merge_manifest

    merged_dir = os.path.join(index_dir, "merged")
    existing = load_merge_manifest(index_dir)
    if existing is not None and existing.get("version") == MERGE_VERSION:
        _sweep_merged(index_dir, existing, manifest)  # a crash may have cut the last sweep
        return existing
    # an older layout falls through: its plan differs, so merged/ is redone,
    # which needs every partition's postings (a committed merge deleted
    # the ones it owned); nothing is cleared unless they are all there
    for r in sorted(manifest["partitions"], key=lambda r: r["doc_base"]):
        for name in POSTINGS_FILES:
            path = os.path.join(r["seg_dir"], name)
            if not os.path.exists(path):
                raise FileNotFoundError(
                    f"{index_dir}: cannot merge, {path} is missing (a committed merge "
                    "deletes the partition postings it owns; rebuild the index)"
                )

    t0 = time.perf_counter()
    stage_t: dict[str, float] = {}
    doc_count = int(manifest["doc_count"])
    if salt_threshold is None:
        salt_threshold = max(1000, doc_count // 50)
    if n_buckets is None:
        n_buckets = derive_n_buckets(manifest["sum_ttf"])
    parts = sorted(manifest["partitions"], key=lambda r: r["doc_base"])
    seg_dirs = [r["seg_dir"] for r in parts]
    rank_of_base = {int(r["doc_base"]): i for i, r in enumerate(parts)}

    # Bucket markers are adoptable only under the plan that wrote them; a
    # different plan clears merged/ whole.
    units_dir = os.path.join(merged_dir, "units")
    plan = {
        "version": 6,  # one raw norms file
        "partitions": [[r["seg_dir"], int(r["doc_base"])] for r in parts],
        "salt_threshold": salt_threshold,
        "n_salts": n_salts,
        "n_buckets": n_buckets,
    }
    if _load_json(os.path.join(units_dir, "plan.json")) != plan:
        if os.path.isdir(merged_dir):
            shutil.rmtree(merged_dir)
        os.makedirs(units_dir)
        atomic_write_json(os.path.join(units_dir, "plan.json"), plan)

    def _marker(bucket_id: int) -> str:
        return os.path.join(units_dir, f"bucket-{bucket_id:03d}.json")

    # the norms file, written by raw Ray tasks that OVERLAP the heavy-term
    # pre-pass; a rerun writes a new one and the sweep removes the old
    t_s = time.perf_counter()
    norms_meta, norm_refs = write_norms_async(parts, merged_dir)

    heavy, boundaries = compute_heavy_terms(seg_dirs, salt_threshold, n_buckets=n_buckets)
    stage_t["heavy_prepass"] = round(time.perf_counter() - t_s, 3)
    heavy_ref = ray.put(heavy)  # broadcast once

    t_s = time.perf_counter()
    ray.get(norm_refs)  # the norms must be in place before merge tasks map them
    os.replace(norms_meta["path"] + ".tmp", norms_meta["path"])
    stage_t["norm_shards"] = round(time.perf_counter() - t_s, 3)  # key read by perfbench

    # Raw-task map-side shuffle (no Dataset sort-based all-to-all):
    # explode tasks return num_returns=n_buckets per-bucket frag lists,
    # and each bucket-merge task depends on exactly its own slot of every
    # explode task's return — the exchange is the object transfer itself.
    # Parallelism is free to track cpus (the old Dataset groupby's fixed
    # per-block cost pinned it to 16 input blocks); on a multi-node
    # cluster each merge task pulls one object per explode task from
    # across the cluster, the standard shuffle fetch pattern.
    n_cpus = int(ray.cluster_resources().get("CPU", 8))
    n_explode = min(len(seg_dirs), max(8, n_cpus * 2))
    seg_chunks = [list(c) for c in np.array_split(np.array(seg_dirs), n_explode) if len(c)]

    shard_dir = os.path.join(merged_dir, "terms")
    heavy_dir = os.path.join(merged_dir, "heavy_runs")
    os.makedirs(shard_dir, exist_ok=True)
    os.makedirs(heavy_dir, exist_ok=True)

    def _merge_bucket(bucket_id: int, *frag_lists) -> dict:
        """One shuffle bucket: merge every (term, salt) group in it, write
        one final shard of its light terms (+ one heavy-run file of its
        salted groups), then record the result rows and the bucket's
        postings, terms, output bytes and wall in its done-marker and
        return that marker.

        Arrow-native hot path: unpack the IPC fragments, one sort, one
        batched decode into contiguous groups (_merge_sorted_batch), one
        batched encode of the light groups (_Groups.table) and one
        gather of the salted ones (_Groups.run) — per-term Python (the
        round-1 .to_pylist(), then a per-group encode call) set the
        bucket wall by its term count."""
        import uuid as _uuid

        t_b = time.perf_counter()
        frags = [f for lst in frag_lists for f in lst]
        out_rows: list[dict] = []
        marker = {"rows": out_rows, "postings": 0, "terms": 0, "bytes": 0}
        if not frags:
            marker["wall_ms"] = round((time.perf_counter() - t_b) * 1000, 3)
            atomic_write_json(_marker(bucket_id), marker)
            return marker
        batch = pa.concat_tables(
            pa.ipc.open_stream(f).read_all() for f in frags
        )
        idx = pc.sort_indices(
            batch, sort_keys=[("term", "ascending"), ("salt", "ascending"), ("doc_base", "ascending")]
        )
        batch = batch.take(idx).combine_chunks()
        groups = _merge_sorted_batch(batch, map_norms(norms_meta["path"]), norms_meta["doc_lo"])
        light = groups.salts < 0  # light terms are final after this shuffle
        if not light.all():  # salted runs of heavy terms, merged postings
            run_tbl = groups.run(~light)
            hpath = os.path.join(heavy_dir, f"run-{_uuid.uuid4().hex[:12]}.arrow")
            with pa.OSFile(hpath + ".tmp", "wb") as sink:
                with pa.ipc.new_file(sink, run_tbl.schema) as w:
                    w.write_table(run_tbl)
            os.replace(hpath + ".tmp", hpath)
            out_rows.append({"kind": "heavy_runs", "path": hpath, "n_terms": run_tbl.num_rows})
        if light.any():
            tbl = groups.table(light)
            path = os.path.join(shard_dir, f"shard-{_uuid.uuid4().hex[:12]}.arrow")
            write_term_shard(tbl, path)
            out_rows.append(
                {
                    "kind": "shard",
                    "path": path,
                    "term_min": tbl.column("term")[0].as_py(),
                    "term_max": tbl.column("term")[-1].as_py(),
                    "n_terms": tbl.num_rows,
                    "bucket": bucket_id,
                }
            )
        marker["postings"] = len(groups.docs)
        marker["terms"] = len(groups.salts)
        marker["bytes"] = sum(os.path.getsize(r["path"]) for r in out_rows)
        marker["wall_ms"] = round((time.perf_counter() - t_b) * 1000, 3)
        atomic_write_json(_marker(bucket_id), marker)
        return marker

    t_s = time.perf_counter()
    unit_of: dict[int, dict] = {}
    for b in range(n_buckets):  # resume: adopt every marked bucket as is
        mk = _load_json(_marker(b))
        if mk is not None:
            unit_of[b] = mk
    todo = [b for b in range(n_buckets) if b not in unit_of]
    if todo:
        done = frozenset(unit_of)
        _explode_remote = ray.remote(num_returns=n_buckets, **_rargs())(_explode_chunk)
        per_task = [
            _explode_remote.remote(c, heavy_ref, rank_of_base, n_salts, n_buckets, boundaries, done)
            for c in seg_chunks
        ]
        # num_returns=1 yields a bare ObjectRef (not a 1-list)
        slots = [[t] if n_buckets == 1 else list(t) for t in per_task]
        _bucket_remote = ray.remote(**_rargs())(_merge_bucket)
        result_refs = [_bucket_remote.remote(b, *[s[b] for s in slots]) for b in todo]
        unit_of.update(zip(todo, ray.get(result_refs)))
    results = [row for b in range(n_buckets) for row in unit_of[b]["rows"]]
    stage_t["explode_group_write"] = round(time.perf_counter() - t_s, 3)

    shards = [
        {k: r[k] for k in ("path", "term_min", "term_max", "n_terms", "bucket")}
        for r in results
        if r.get("kind") == "shard"
    ]
    run_files = [r["path"] for r in results if r.get("kind") == "heavy_runs"]

    if run_files:
        # Final pass over the salted runs: every run file is sorted by
        # (term, salt), so a chunk of heavy terms is one slice of each.
        # (A Dataset groupby(term) over the runs was measured 2x slower:
        # the all-to-all's fixed per-block overhead dwarfs the
        # stop-word-sized run mass.)

        def _final_heavy_term(lo: str, hi: str) -> list[dict]:
            """Finalize the heavy terms lo..hi, a contiguous range of the
            sorted heavy terms: take that range from every memory-mapped
            run file (searchsorted over its term column), join each
            term's runs in salt order (_join_runs) and encode the chunk
            in one encode_terms call (_Groups.table). Each posting was
            decoded and given its norm once, in its bucket."""
            import uuid as _uuid

            parts = []
            for fp in run_files:
                with pa.memory_map(fp) as src:
                    run = pa.ipc.open_file(src).read_all()
                col = run.column("term").to_numpy(zero_copy_only=False)
                a = int(np.searchsorted(col, lo, side="left"))
                b = int(np.searchsorted(col, hi, side="right"))
                if b > a:
                    parts.append(run.slice(a, b - a))
            if not parts:
                return []
            tbl = _join_runs(pa.concat_tables(parts)).table()
            terms = tbl.column("term")
            path = os.path.join(shard_dir, f"shard-heavy-{_uuid.uuid4().hex[:12]}.arrow")
            write_term_shard(tbl, path)
            return [
                {
                    "kind": "shard",
                    "path": path,
                    "term_min": terms[0].as_py(),
                    "term_max": terms[-1].as_py(),
                    "n_terms": len(terms),
                    "bucket": -1,
                }
            ]

        t_s = time.perf_counter()
        # df-WEIGHTED contiguous chunks over the sorted heavy terms, one
        # raw Ray task each (a Dataset pass at 128 single-term blocks paid
        # ~2-3s of fixed per-block overhead): cost is ~linear in df, and
        # the stop band clusters lexicographically, so equal-COUNT chunks
        # put the whole stop band in one task (measured 4s stage tail).
        # Contiguous chunks keep heavy shard term ranges disjoint for the
        # searcher's range bisect.
        n_heavy_tasks = min(len(heavy), max(8, n_cpus * 2))
        order = sorted(heavy)
        w = np.array([max(1, int(heavy[t])) for t in order], dtype=np.float64)
        cw = np.cumsum(w)
        bounds = np.searchsorted(
            cw, np.linspace(0, cw[-1], n_heavy_tasks + 1)[1:-1], side="left"
        )
        chunks = [
            (order[ch[0]], order[ch[-1]])
            for ch in np.split(np.arange(len(order)), np.unique(bounds))
            if len(ch)
        ]

        _final_remote = ray.remote(**_rargs())(_final_heavy_term)
        heavy_shards = [
            row
            for rows in ray.get([_final_remote.remote(lo, hi) for lo, hi in chunks])
            for row in rows
        ]
        stage_t["final_heavy"] = round(time.perf_counter() - t_s, 3)
        shards.extend(
            {k: r[k] for k in ("path", "term_min", "term_max", "n_terms", "bucket")}
            for r in heavy_shards
        )

    # Bloom sidecar over the full merged term dictionary
    # (codecs/bloom/BloomFilteringPostingsFormat.java + FuzzySet.java
    # role: a per-field bitset consulted before any dictionary seek so a
    # definite-miss term costs ZERO shard-file reads — FuzzySet uses one
    # hash against a pow2-masked bitset; here fnv1a with ~10 bits/term,
    # saturation ~10%). Partial bitsets build in parallel raw tasks (one
    # pass over each shard's term column) and OR on the driver — the OR
    # is bytes-sized (m/8), not term-sized. At 10^9 terms the global
    # bitset is ~1.2 GB/actor; the documented scale variant is one bloom
    # per bucket file (tested term set identical either way).
    t_s = time.perf_counter()
    total_terms = sum(int(s["n_terms"]) for s in shards)
    if total_terms:
        m_bits = 1 << max(6, int(np.ceil(np.log2(10 * total_terms))))
        _bloom_remote = ray.remote(**_rargs())(_bloom_partial)
        paths = [s["path"] for s in shards]
        n_chunks = max(1, min(len(paths), int(ray.cluster_resources().get("CPU", 8))))
        path_chunks = [list(c) for c in np.array_split(paths, n_chunks) if len(c)]
        bits = np.zeros(m_bits // 64, dtype=np.uint64)
        for part in ray.get(
            [_bloom_remote.remote(c, m_bits) for c in path_chunks]
        ):
            np.bitwise_or(bits, part, out=bits)
        bloom_path = os.path.join(merged_dir, "bloom.bin")
        bits.tofile(bloom_path + ".tmp")
        os.replace(bloom_path + ".tmp", bloom_path)
        bloom_meta = {"path": bloom_path, "m": m_bits, "k": 1, "hash": "fnv1a"}
    else:
        bloom_meta = None
    stage_t["bloom_build"] = round(time.perf_counter() - t_s, 3)

    # extra indexed fields (title, ...) merge through the SAME salted
    # groupby-term path into their own sub-index; the resulting manifests
    # are inlined so a searcher opens every field from one manifest
    field_manifests: dict[str, dict] = {}
    for fld, fm in (manifest.get("fields") or {}).items():
        t_s = time.perf_counter()
        sub_dir = os.path.join(index_dir, "fields", fld)
        os.makedirs(sub_dir, exist_ok=True)
        field_manifests[fld] = merge_by_term(
            {
                "partitions": fm["partitions"],
                "doc_count": fm["doc_count"],
                "sum_ttf": fm["sum_ttf"],
            },
            sub_dir,
            salt_threshold=salt_threshold,
            n_salts=n_salts,
            n_buckets=None,
        )
        stage_t[f"field_{fld}"] = round(time.perf_counter() - t_s, 3)

    out = {
        "version": MERGE_VERSION,
        "kind": "merge-by-term",
        "fields": field_manifests,
        "stage_sec": stage_t,
        "salt_threshold": salt_threshold,
        "n_salts": n_salts,
        "n_buckets": n_buckets,
        "buckets": _bucket_summary([unit_of[b] for b in range(n_buckets)]),
        "n_heavy_terms": len(heavy),
        "heavy_terms": sorted(heavy),
        "shards": sorted(shards, key=lambda s: s["term_min"]),
        "norms": norms_meta,
        "bloom": bloom_meta,
        "doc_count": manifest["doc_count"],
        "sum_ttf": manifest["sum_ttf"],
        "wall_ms": round((time.perf_counter() - t0) * 1000, 3),
    }
    commit_merge_manifest(index_dir, out)
    _sweep_merged(index_dir, out, manifest)
    return out


def _load_json(path: str):
    """The JSON object at ``path``, or None if there is no file."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        return None


def owned_partitions(build_manifest: dict, index_dir: str) -> list[str]:
    """The partition dirs of ``build_manifest`` that lie under
    ``index_dir``, in doc order: the ones whose postings files a merge
    into ``index_dir`` deletes once it commits. Extra fields are left to
    their own merges (``fields/<field>/``)."""
    root = os.path.realpath(index_dir)
    return [
        r["seg_dir"]
        for r in sorted(build_manifest["partitions"], key=lambda r: r["doc_base"])
        if os.path.commonpath([root, os.path.realpath(r["seg_dir"])]) == root
    ]


def _sweep_merged(index_dir: str, manifest: dict, build_manifest: dict) -> None:
    """Delete what only the merge itself reads once ``manifest`` has
    committed: ``units/`` first (so a half-swept directory is never
    adopted), ``heavy_runs/``, every file under ``terms/`` that the
    manifest does not name (orphans of a crashed run, ``*.tmp``
    included), every ``norms*`` and ``*.tmp`` file in ``merged/`` but the
    manifest's norms file, then ``terms.arrow`` and ``norms.u8`` of every
    partition the merge owns (``owned_partitions``). Idempotent, so a
    call that finds the manifest committed finishes a cut sweep. The
    norms file, the Bloom, the deletes/doc-values files added after
    commit and each partition's ``meta.json`` and ``docvalues.parquet``
    stay."""
    merged_dir = os.path.join(index_dir, "merged")
    for sub in ("units", "heavy_runs"):
        if os.path.isdir(os.path.join(merged_dir, sub)):
            shutil.rmtree(os.path.join(merged_dir, sub))
    named = {os.path.basename(r["path"]) for r in manifest["shards"]}
    d = os.path.join(merged_dir, "terms")
    for name in os.listdir(d) if os.path.isdir(d) else ():
        if name not in named:
            os.remove(os.path.join(d, name))
    norms = os.path.basename(manifest["norms"]["path"])
    for name in os.listdir(merged_dir):
        if name != norms and (name.startswith("norms") or name.endswith(".tmp")):
            os.remove(os.path.join(merged_dir, name))
    for seg_dir in owned_partitions(build_manifest, index_dir):
        for name in POSTINGS_FILES:
            try:
                os.remove(os.path.join(seg_dir, name))
            except FileNotFoundError:
                pass


class MergedIndex(PostingsReader):
    """Segment-compatible reader over a merge-by-term output.

    One logical segment spanning all docs: a term is addressed by binary
    search over the manifest's sorted, disjoint shard term ranges — the
    heavy shards' if the term is heavy, else the light shards' (the
    BlockTree prefix-index role at file granularity). Shards are lz4 Arrow
    IPC files opened through ``pa.memory_map``; each loads as a
    ``TermShard`` on its first lookup and stays loaded (the merge makes at
    most ``MAX_BUCKETS`` light shards and a few heavy ones). Opening the
    index reads only the manifest and maps the norms file, so searcher
    workers start in O(manifest), not O(#shards). The light
    shards in term order, with the heavy terms merged in, are the sorted
    dictionary that prefix/range/fuzzy/suffix expansion reads
    (``dict_ranges``). A manifest of another layout version raises
    ``ValueError``."""

    def __init__(self, index_dir: str | None, manifest: dict | None = None):
        from .checkpoint import load_merge_manifest

        super().__init__()
        m = manifest or load_merge_manifest(index_dir)
        if m is None or m.get("kind") != "merge-by-term":
            raise FileNotFoundError(f"no merge-by-term manifest under {index_dir}")
        if m.get("version") != MERGE_VERSION:
            where = index_dir or os.path.dirname(os.path.dirname(m.get("norms", {}).get("path", "")))
            raise ValueError(
                f"{where}: merge manifest version {m.get('version')!r}, this reader "
                f"reads version {MERGE_VERSION}; rerun merge_by_term to rebuild merged/"
            )
        self.manifest = m
        self.dir = os.path.join(index_dir, "merged") if index_dir else "<merged>"
        # (term_min, term_max, path), sorted and disjoint per kind
        self._light_ranges: list[tuple[str, str, str]] = []
        self._heavy_ranges: list[tuple[str, str, str]] = []
        for s in m["shards"]:
            kind = self._light_ranges if int(s["bucket"]) >= 0 else self._heavy_ranges
            kind.append((s["term_min"], s["term_max"], s["path"]))
        self._light_ranges.sort()
        self._heavy_ranges.sort()
        self._heavy_set = set(m.get("heavy_terms", []))
        self._tables: dict[str, TermShard] = {}
        # Bloom sidecar (BloomFilteringPostingsFormat role): consulted
        # before loading a shard; bitset loads lazily on first miss check
        # so opening stays O(manifest)
        self._bloom_meta = m.get("bloom")
        self._bloom_bits: np.ndarray | None = None

        # norms: one byte per doc, memory-mapped (the per-leaf mmap'd .nvd
        # role, codecs/lucene80/Lucene80NormsFormat.java:30-78); a lookup
        # pages in only what it touches, so no worker holds them whole
        norms = m["norms"]
        self._norms = map_norms(norms["path"])
        self.doc_base = int(norms["doc_lo"])
        self.max_doc = int(norms["doc_hi"])
        self.n_docs = int(m["doc_count"])

    @property
    def sum_ttf(self) -> int:
        return int(self.manifest["sum_ttf"])

    def norm_of(self, doc_ids: np.ndarray) -> np.ndarray:
        return self._norms[np.asarray(doc_ids, dtype=np.int64) - self.doc_base]

    def _load(self, path: str) -> TermShard:
        """Read one term shard and keep it."""
        sh = self._tables[path] = TermShard(read_term_shard(path))
        return sh

    def _shard_path_of(self, term: str) -> str | None:
        """The one shard file that can hold ``term``: the heavy range if
        the term is heavy, else the light range holding it; None outside
        every range."""
        from bisect import bisect_right

        ranges = self._heavy_ranges if term in self._heavy_set else self._light_ranges
        i = bisect_right(ranges, (term, chr(0x10FFFF), "")) - 1
        if i >= 0:
            lo, hi, path = ranges[i]
            if lo <= term <= hi:
                return path
        return None

    def _bloom_definite_miss(self, term: str) -> bool:
        """True iff the Bloom sidecar PROVES the term absent (no false
        negatives by construction; ~10% of misses pass through as false
        positives and pay the normal shard-file seek)."""
        bm = self._bloom_meta
        if not bm:
            return False
        if self._bloom_bits is None:
            self._bloom_bits = np.fromfile(bm["path"], dtype=np.uint64)
        from .textops import fnv1a

        h = _fmix64(fnv1a(term)) & (int(bm["m"]) - 1)
        return not (int(self._bloom_bits[h >> 6]) >> (h & 63)) & 1

    def _shard_of(self, term: str) -> TermShard | None:
        """The loaded shard that can hold ``term``, or None. Only the
        target shard is searched: heavy ranges are disjoint and so are
        light ranges (``check_merged_index`` asserts both). The Bloom
        sidecar is consulted only when that shard is not cached, because a
        cached shard's term map answers a miss exactly."""
        path = self._shard_path_of(term)
        if path is None:
            return None
        sh = self._tables.get(path)
        if sh is not None:
            return sh
        return None if self._bloom_definite_miss(term) else self._load(path)

    def dict_ranges(self):
        """Sorted-dictionary level (the BlockTree .tim/.tip role —
        codecs/blocktree/BlockTreeTermsWriter.java:200-217): one
        (term_min, term_max, load_terms) per light shard in term order.
        Each heavy term joins the range of the last light shard whose
        ``term_min`` it reaches, or the first range if it sorts below
        them all, so the ranges stay sorted, disjoint and complete; []
        when the index holds no terms."""
        from bisect import bisect_right
        from functools import partial

        light = self._light_ranges
        mins = [lo for lo, _, _ in light]
        heavy: list[list[str]] = [[] for _ in range(max(1, len(light)))]
        for t in sorted(self._heavy_set):
            heavy[max(0, bisect_right(mins, t) - 1)].append(t)
        if not light:
            h = heavy[0]
            return [(h[0], h[-1], h.copy)] if h else []
        return [
            (min([lo] + h[:1]), max([hi] + h[-1:]), partial(self._range_terms, path, h))
            for (lo, hi, path), h in zip(light, heavy)
        ]

    @staticmethod
    def _range_terms(path: str, heavy: list[str]) -> list[str]:
        """One dictionary range's sorted terms: the light shard's term
        column (a term-only read, never postings) with ``heavy`` merged
        in."""
        terms = term_strings(read_term_shard(path, ["term"]).column("term"))
        return sorted(terms + heavy) if heavy else terms

    def iter_term_rows(self):
        """(shard path, whole term row) for every term, shard by shard
        (CheckIndex input)."""
        for p in sorted(p for _, _, p in self._light_ranges + self._heavy_ranges):
            for row in read_term_shard(p).to_pylist():
                yield p, row


class DocRangeView:
    """Docs [doc_base, max_doc) of a ``MergedIndex``: one shard of the
    doc-sharded search (``search.search_dataset_sharded``). Postings and
    the per-posting position, offset and payload lists are the index's,
    cut to the range with ``np.searchsorted``, so every view of an index
    shares its shard, postings and norm caches. ``norm_of``,
    ``term_stats`` (global df/ttf) and ``term_info`` are the index's own.
    ``term_info`` is the whole index's row; its callers read only its
    presence and stream flags, and shard searches run the exhaustive plan,
    which reads no block or impact data, so a view serves none that is
    not restricted to its range."""

    def __init__(self, index: MergedIndex, lo: int, hi: int):
        self.index = index
        self.doc_base, self.max_doc = int(lo), int(hi)
        self.norm_of = index.norm_of
        self.term_stats = index.term_stats
        self.term_info = index.term_info

    @property
    def norm_span(self) -> int:
        return self.max_doc - self.doc_base

    def _cut(self, term: str) -> slice:
        """The index range of ``term``'s postings that falls in the view."""
        docs = self.index.postings(term)[0]
        i, j = np.searchsorted(docs, (self.doc_base, self.max_doc))
        return slice(int(i), int(j))

    def postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        s = self._cut(term)
        docs, freqs = self.index.postings(term)
        return docs[s], freqs[s]

    def positions(self, term: str) -> list[np.ndarray] | None:
        pos = self.index.positions(term)
        return None if pos is None else pos[self._cut(term)]

    def offsets(self, term: str) -> tuple[list[np.ndarray], list[np.ndarray]] | None:
        off = self.index.offsets(term)
        if off is None:
            return None
        s = self._cut(term)
        return off[0][s], off[1][s]

    def payloads(self, term: str) -> list[np.ndarray] | None:
        pay = self.index.payloads(term)
        return None if pay is None else pay[self._cut(term)]
