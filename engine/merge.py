"""Merge operators: the term-partitioned shuffle merge and its reader.

**merge_by_term** (the production path — build pipelines, driver entries
and the benchmark all call it) re-groups every partition's postings by
term with raw Ray tasks, no Dataset all-to-all:

1. *Heavy pre-pass.* Pruned (term, df) reads with a pigeonhole filter
   find the terms whose global df reaches ``salt_threshold`` (the
   stop-word band, SURVEY §4): the *heavy* terms. In parallel, tasks
   re-shard the partition norms by doc range.
2. *Map-side exchange.* Each explode task reads a chunk of partitions and
   returns ``num_returns=n_buckets`` objects, one per bucket
   ``fnv1a(term) % n_buckets`` (heavy terms hash ``(term, salt)``, salts
   being contiguous partition-rank ranges so runs stay doc-ordered). Each
   bucket task depends on exactly its own slot of every explode task, so
   the exchange is the object transfer itself. The bucket task merges and
   re-encodes its terms in one sorted batch: light terms are final and
   go to one shard file per bucket, heavy terms leave one salted run file.
3. *Final heavy pass.* df-weighted contiguous chunks of heavy terms each
   read at most ``n_salts`` run files and write term-range-disjoint heavy
   shards.
4. *Dict level*, overlapped with step 3 in a background thread: a second
   raw-task range exchange (boundaries are term quantiles of a few light
   buckets — any hash bucket is a uniform vocabulary sample) writes disjoint,
   sorted, term-only dict files, the BlockTree .tim/.tip role that serves
   prefix/range/fuzzy/suffix expansion. A Bloom sidecar over all shard
   terms follows.

``MergedIndex`` reads the result as one logical segment over the full doc
range, through the same ``segment.PostingsReader`` surface as a flushed
``Segment``.

**merge_tree** (Path A, test-only): the TieredMergePolicy / SegmentMerger
shape (index/TieredMergePolicy.java:96-103, index/SegmentMerger.java:96-191)
— deterministic fan_in groups of doc-adjacent segments per level, each
merged into one idempotent atomic segment write keyed by
(level, doc_base), so a rerun reuses every completed node. No pipeline
calls it; it stays as the resume-mid-merge target until ``merge_by_term``
resumes at bucket granularity (ROADMAP item 3).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pyarrow as pa

from .rayenv import remote_args as _rargs
import pyarrow.parquet as pq

from .codec import encode_term_postings
from .segment import TERMS_SCHEMA, PostingsReader, Segment, write_segment

# ---------------------------------------------------------------------------
# Path A: k-way segment merge tree
# ---------------------------------------------------------------------------


def merge_segments(seg_dirs: list[str], out_dir: str) -> dict:
    """K-way merge N doc-disjoint segments into one (SegmentMerger.merge
    order: norms first, then postings term-by-term).

    Batched: all input term tables concatenate into ONE Arrow table sorted
    by (term, doc_base), then the same `_merge_sorted_batch` kernel the
    bucket merger uses decodes every row's postings in one vectorized pass
    (gathered-VInt stream + cumsum(df) flat buffers) and emits contiguous
    per-term groups — the MultiTermsEnum role without the ~90us/row heapq
    over Python row dicts this path used before (round-2 perf lore)."""
    t0 = time.perf_counter()
    segs = sorted((Segment(d) for d in seg_dirs), key=lambda s: s.doc_base)
    norm_ids = np.concatenate(
        [np.arange(s.doc_base, s.doc_base + len(s._norms), dtype=np.int64) for s in segs]
    )
    norms = np.concatenate([s._norms for s in segs])

    want = [
        "term",
        "df",
        "ttf",
        "singleton_doc",
        "blob",
        "pos_blob",
        "off_blob",
        "pay_blob",
        "offsets",
    ]
    tables = []
    for s in segs:
        path = os.path.join(s.dir, "terms.parquet")
        have = set(pq.read_schema(path).names)
        t = pq.read_table(path, columns=[c for c in want if c in have])
        t = t.append_column(
            "doc_base", pa.array(np.full(t.num_rows, s.doc_base), type=pa.int64())
        )
        tables.append(t)
    allt = pa.concat_tables(tables, promote_options="default")
    allt = allt.append_column(
        "salt", pa.array(np.zeros(allt.num_rows, dtype=np.int32), type=pa.int32())
    )
    allt = allt.sort_by(
        [("term", "ascending"), ("doc_base", "ascending")]
    ).combine_chunks()

    class _ArrayNorms:
        """norm_store shim over the concatenated per-segment norm arrays
        (doc-disjoint contiguous ranges => searchsorted lookup)."""

        @staticmethod
        def norms_for(docs: np.ndarray) -> np.ndarray:
            return norms[np.searchsorted(norm_ids, docs)]

    cols: dict[str, list] = {f.name: [] for f in TERMS_SCHEMA}

    def _emit(term, _salt, docs, freqs, nrm, pos_blob, off_blob, pay_blob):
        _emit_from_arrays(cols, term, docs, freqs, nrm, pos_blob, off_blob, pay_blob)

    if allt.num_rows:
        _merge_sorted_batch(allt, _ArrayNorms(), _emit, group_salt=False)
    meta = {
        "kind": "merged",
        "field": "body",
        "doc_base": int(segs[0].doc_base),
        "n_docs": int(sum(s.n_docs for s in segs)),
        "sum_ttf": int(sum(s.sum_ttf for s in segs)),
        "n_terms": len(cols["term"]),
        "lineage": {"inputs": [s.dir for s in segs]},
        "wall_ms": round((time.perf_counter() - t0) * 1000, 3),
    }
    return write_segment(out_dir, pa.table(cols, schema=TERMS_SCHEMA), norm_ids, norms, meta)


def _concat_decoded(decoded):
    """Concatenate doc-disjoint (docs, freqs, norms, pos_blob[, off_blob])
    runs; restore doc order. Position/offset streams byte-concatenate
    without re-encoding when runs are already doc-ordered (deltas reset per
    doc); a rare reorder decodes and re-encodes them."""
    decoded = sorted(decoded, key=lambda t: int(t[0][0]))
    docs = np.concatenate([d[0] for d in decoded])
    freqs = np.concatenate([d[1] for d in decoded])
    norms = np.concatenate([d[2] for d in decoded])
    has_pos = len(decoded) > 0 and all(len(d) > 3 and d[3] for d in decoded)
    has_off = len(decoded) > 0 and all(len(d) > 4 and d[4] for d in decoded)
    has_pay = len(decoded) > 0 and all(len(d) > 5 and d[5] for d in decoded)
    if len(docs) > 1 and not bool((np.diff(docs) > 0).all()):
        order = np.argsort(docs, kind="stable")
        if has_pos:
            from .codec import decode_positions, encode_positions

            per_posting: list[np.ndarray] = []
            for d in decoded:
                per_posting.extend(decode_positions(d[3], d[1]))
            reordered = [per_posting[i] for i in order]
            pos_blob = encode_positions(np.concatenate(reordered), freqs[order])
        else:
            pos_blob = b""
        if has_off:
            from .codec import decode_offsets, encode_offsets

            per_s: list[np.ndarray] = []
            per_e: list[np.ndarray] = []
            for d in decoded:
                s_l, e_l = decode_offsets(d[4], d[1])
                per_s.extend(s_l)
                per_e.extend(e_l)
            off_blob = encode_offsets(
                np.concatenate([per_s[i] for i in order]),
                np.concatenate([per_e[i] for i in order]),
                freqs[order],
            )
        else:
            off_blob = b""
        if has_pay:
            from .codec import decode_payloads, encode_payloads

            per_p: list[np.ndarray] = []
            for d in decoded:
                per_p.extend(decode_payloads(d[5], d[1]))
            pay_blob = encode_payloads(
                np.concatenate([per_p[i] for i in order])
            )
        else:
            pay_blob = b""
        return docs[order], freqs[order], norms[order], pos_blob, off_blob, pay_blob
    pos_blob = b"".join(d[3] for d in decoded) if has_pos else b""
    off_blob = b"".join(d[4] for d in decoded) if has_off else b""
    pay_blob = b"".join(d[5] for d in decoded) if has_pay else b""
    return docs, freqs, norms, pos_blob, off_blob, pay_blob


def _emit_from_arrays(
    cols: dict[str, list],
    term: str,
    docs,
    freqs,
    norms,
    pos_blob: bytes = b"",
    off_blob: bytes = b"",
    pay_blob: bytes = b"",
) -> None:
    """Append one TERMS_SCHEMA row built from raw postings arrays."""
    df = len(docs)
    cols["term"].append(term)
    cols["df"].append(df)
    cols["ttf"].append(int(freqs.sum()))
    cols["pos_blob"].append(pos_blob)
    cols["off_blob"].append(off_blob)
    cols["pay_blob"].append(pay_blob)
    if df == 1:
        cols["singleton_doc"].append(int(docs[0]))
        cols["blob"].append(b"")
        cols["last_docs"].append([int(docs[0])])
        cols["offsets"].append([])
        cols["imp_freq"].append([int(freqs[0])])
        cols["imp_norm"].append([int(norms[0])])
        cols["imp_start"].append([0, 1])
    else:
        tp = encode_term_postings(docs, freqs, norms)
        cols["singleton_doc"].append(-1)
        cols["blob"].append(tp.blob)
        cols["last_docs"].append(tp.block_last_doc.tolist())
        cols["offsets"].append(tp.block_offset.tolist())
        cols["imp_freq"].append(tp.imp_freq.tolist())
        cols["imp_norm"].append(tp.imp_norm.tolist())
        cols["imp_start"].append(tp.imp_start.tolist())


def plan_merge_tree(rows: list[dict], fan_in: int = 8, target_segments: int = 1):
    """Deterministic merge plan: group doc-adjacent segments, fan_in per
    node, repeat per level until <= target_segments (TieredMergePolicy
    role; deterministic => resumable)."""
    rows = sorted(rows, key=lambda r: r["doc_base"])
    levels = []
    cur = rows
    while len(cur) > target_segments:
        groups = [cur[i : i + fan_in] for i in range(0, len(cur), fan_in)]
        levels.append(groups)
        cur = [
            {
                "seg_dir": None,  # filled at execution
                "doc_base": g[0]["doc_base"],
                "n_docs": sum(r["n_docs"] for r in g),
                "sum_ttf": sum(r["sum_ttf"] for r in g),
            }
            for g in groups
        ]
    return levels


def merge_tree(manifest: dict, index_dir: str, fan_in: int = 8, target_segments: int = 1) -> dict:
    """Execute the merge tree with Ray Data (one task per merge node).
    Idempotent: completed nodes are skipped via the atomic segment-dir
    check. Returns + commits the merge manifest."""
    import ray.data

    from .checkpoint import commit_merge_manifest, load_merge_manifest

    existing = load_merge_manifest(index_dir)
    if existing is not None and existing.get("fan_in") == fan_in:
        return existing

    rows = [dict(r) for r in manifest["partitions"]]
    level = 0
    while len(rows) > target_segments:
        groups = [rows[i : i + fan_in] for i in range(0, len(rows), fan_in)]
        level += 1
        specs = [
            {
                "out_dir": os.path.join(
                    index_dir, "merged", f"L{level}", f"m{g[0]['doc_base']:012d}"
                ),
                "inputs": json.dumps([r["seg_dir"] for r in g]),
            }
            for g in groups
        ]

        def _run(batch: pa.Table) -> pa.Table:
            out = []
            for spec in batch.to_pylist():
                meta = merge_segments(json.loads(spec["inputs"]), spec["out_dir"])
                out.append(
                    {
                        "seg_dir": spec["out_dir"],
                        "doc_base": meta["doc_base"],
                        "n_docs": meta["n_docs"],
                        "sum_ttf": meta["sum_ttf"],
                        "n_terms": meta["n_terms"],
                        "wall_ms": meta["wall_ms"],
                    }
                )
            return pa.Table.from_pylist(out)

        rows = (
            ray.data.from_items(specs)
            .map_batches(_run, batch_size=1, batch_format="pyarrow", **_rargs())
            .take_all()
        )
        rows = sorted(rows, key=lambda r: r["doc_base"])

    # extra indexed fields merge through the same tree into their own
    # sub-index (SegmentMerger merges each field's postings+norms)
    field_manifests: dict[str, dict] = {}
    for fld, fm in (manifest.get("fields") or {}).items():
        sub_dir = os.path.join(index_dir, "fields", fld)
        os.makedirs(sub_dir, exist_ok=True)
        field_manifests[fld] = merge_tree(
            {
                "partitions": fm["partitions"],
                "doc_count": fm["doc_count"],
                "sum_ttf": fm["sum_ttf"],
            },
            sub_dir,
            fan_in=fan_in,
            target_segments=target_segments,
        )

    out = {
        "version": 1,
        "kind": "merge-tree",
        "fan_in": fan_in,
        "segments": rows,
        "fields": field_manifests,
        "doc_count": manifest["doc_count"],
        "sum_ttf": manifest["sum_ttf"],
    }
    return commit_merge_manifest(index_dir, out)


# ---------------------------------------------------------------------------
# Path B: salted term-partitioned shuffle (north-rule merge)
# ---------------------------------------------------------------------------

def compute_heavy_terms(
    seg_dirs: list[str], salt_threshold: int, max_driver_rows: int = 2_000_000
) -> dict[str, int]:
    """Heavy-term pre-pass — the driver never holds the (term, df)
    projection of the whole dictionary, only the stop-word-sized survivor
    set of one distributed filter pass.

    Candidates: pruned-column read of (term, df), map-side filter
    df >= ceil(T / n_parts). By pigeonhole, any term with global df >= T
    has at least one partition row above that floor, so the survivors are a
    guaranteed superset of the heavy set — and only a stop-word-sized set
    of rows (<= n_parts x |stop words|) ever leaves the map tasks.

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
    with no effect on merged output. Returns {term: candidate df sum}
    for terms above the salting threshold."""
    import pyarrow.compute as pc
    import ray
    import ray.data

    term_files = [os.path.join(d, "terms.parquet") for d in seg_dirs]
    floor = -(-salt_threshold // max(1, len(seg_dirs)))  # ceil(T / n_parts)

    # Raw Ray tasks, not a Dataset read: the partials are stop-band-sized
    # and the files tiny, so Dataset fixed costs (read planning +
    # materialize) dominated this stage (~1.5-2 s of a 2.8 s stage at
    # sf0.1/32cpu). Each task returns (row_count, partial table) so the
    # driver can pick the small-path concat vs the distributed tail
    # WITHOUT fetching the tables first.
    @ray.remote(num_returns=2, **_rargs())
    def _cand_task(files: list[str]) -> tuple[int, pa.Table]:
        tables = []
        for f in files:
            t = pq.read_table(f, columns=["term", "df"])
            hit = t.filter(pc.greater_equal(t.column("df"), floor))
            if hit.num_rows:
                tables.append(hit)
        if not tables:
            empty = pa.table(
                {"term": pa.array([], pa.string()), "df": pa.array([], pa.int64())}
            )
            return 0, empty
        cat = pa.concat_tables(tables)
        # map-side combiner: duplicate terms across this task's files
        # collapse before anything leaves the task
        agg = cat.group_by("term").aggregate([("df", "sum")])
        agg = agg.rename_columns(["term", "df"])
        return agg.num_rows, agg

    n_tasks = min(len(term_files), max(8, int(ray.cluster_resources().get("CPU", 8)) * 2))
    chunk = -(-len(term_files) // n_tasks)
    pairs = [
        _cand_task.remote(term_files[i : i + chunk])
        for i in range(0, len(term_files), chunk)
    ]
    count_refs = [p[0] for p in pairs]
    table_refs = [p[1] for p in pairs]
    n_cand = int(sum(ray.get(count_refs)))
    if n_cand == 0:
        return {}
    if n_cand > max_driver_rows:
        cand = ray.data.from_arrow_refs(table_refs)
        # distributed tail: Dataset groupby-sum, threshold applied in the
        # reduce tasks — the driver sees only the heavy set
        from ray.data.aggregate import Sum

        agg_ds = cand.groupby("term").aggregate(Sum("df", alias_name="df_sum"))

        def _thresh(b: pa.Table) -> pa.Table:
            return b.filter(pc.greater_equal(b.column("df_sum"), salt_threshold))

        rows = agg_ds.map_batches(_thresh, batch_format="pyarrow", **_rargs()).take_all()
        return {r["term"]: int(r["df_sum"]) for r in rows}
    tbls = [t for t in ray.get(table_refs) if t.num_rows]
    tbl = pa.concat_tables(tbls)
    agg = tbl.group_by("term").aggregate([("df", "sum")])
    mask = pc.greater_equal(agg.column("df_sum"), salt_threshold)
    hv = agg.filter(mask)
    return dict(
        zip(
            hv.column("term").to_pylist(),
            (int(x) for x in hv.column("df_sum").to_pylist()),
        )
    )


def write_norm_shards_async(
    parts: list[dict], out_dir: str, parts_per_shard: int = 8
) -> tuple[list[dict], list]:
    """Consolidate partition norms into doc-range-sharded files with raw
    Ray tasks — the driver never holds a whole-corpus norms array (the
    round-1 dense ray.put broadcast was a ~1 TB driver allocation at 10^12
    docs). Each shard = the concatenated (doc_id, norm) rows of
    parts_per_shard doc-contiguous partitions, written atomically.

    Returns ([{doc_lo, doc_hi, path}], task refs) IMMEDIATELY so the
    writes overlap the heavy-term pre-pass; ray.get the refs before any
    merge task needs the files. Raw @ray.remote (not a Dataset job) on
    purpose: a handful of independent file writes, launch latency matters."""
    import ray

    parts = sorted(parts, key=lambda r: r["doc_base"])
    groups = [
        parts[i : i + parts_per_shard] for i in range(0, len(parts), parts_per_shard)
    ]
    specs = []
    for g in groups:
        lo = int(g[0]["doc_base"])
        hi = int(g[-1]["doc_base"]) + int(g[-1]["n_docs"])
        specs.append(
            {
                "doc_lo": lo,
                "doc_hi": hi,
                "path": os.path.join(out_dir, f"norms-{lo:012d}.parquet"),
                "inputs": [r["seg_dir"] for r in g],
            }
        )

    @ray.remote(**_rargs())
    def _write(spec: dict) -> str:
        if not os.path.exists(spec["path"]):  # idempotent resume
            tbl = pa.concat_tables(
                pq.read_table(os.path.join(d, "norms.parquet"))
                for d in spec["inputs"]
            )
            pq.write_table(tbl, spec["path"] + ".tmp")
            os.replace(spec["path"] + ".tmp", spec["path"])
        return spec["path"]

    refs = [_write.remote(s) for s in specs]
    rows = [{k: s[k] for k in ("doc_lo", "doc_hi", "path")} for s in specs]
    return rows, refs


class _NormStore:
    """Per-worker lazy loader of doc-range norm shards: ``norms_for(docs)``
    for a doc-sorted run that lies inside one partition (hence one shard).
    Shards decode to dense uint8 arrays once per worker process and stay
    cached (LRU) — on a multi-node cluster each node reads only the shards
    its merge rows touch, from shared storage, once per worker; nothing is
    ever broadcast whole."""

    _CACHE_MAX = 64

    def __init__(self, shards: list[dict]):
        from collections import OrderedDict

        self.shards = sorted(shards, key=lambda r: r["doc_lo"])
        self._lo = np.array([s["doc_lo"] for s in self.shards], dtype=np.int64)
        self._cache: OrderedDict[int, np.ndarray] = OrderedDict()

    def _dense(self, i: int) -> np.ndarray:
        hit = self._cache.get(i)
        if hit is not None:
            self._cache.move_to_end(i)
            return hit
        s = self.shards[i]
        tbl = pq.read_table(s["path"])
        arr = np.zeros(int(s["doc_hi"]) - int(s["doc_lo"]), dtype=np.uint8)
        arr[tbl.column("doc_id").to_numpy() - int(s["doc_lo"])] = tbl.column(
            "norm"
        ).to_numpy()
        self._cache[i] = arr
        if len(self._cache) > self._CACHE_MAX:
            self._cache.popitem(last=False)
        return arr

    def norms_for(self, docs: np.ndarray) -> np.ndarray:
        """Norm byte per doc for an ARBITRARY (not necessarily sorted) doc
        array; fast path when the whole array lies inside one shard."""
        if len(docs) == 0:
            return np.empty(0, dtype=np.uint8)
        lo_d, hi_d = int(docs.min()), int(docs.max())
        i = int(np.searchsorted(self._lo, lo_d, side="right")) - 1
        s = self.shards[i]
        if hi_d < int(s["doc_hi"]):  # fast path: all docs inside one shard
            return self._dense(i)[docs - int(s["doc_lo"])]
        out = np.empty(len(docs), dtype=np.uint8)  # spans shards
        idx = np.searchsorted(self._lo, docs, side="right") - 1
        for j in np.unique(idx):
            m = idx == j
            out[m] = self._dense(int(j))[docs[m] - int(self.shards[int(j)]["doc_lo"])]
        return out


_NORM_STORES: dict = {}
_RUN_TABLES: dict = {}
_RUN_TABLES_MAX = 32


def _run_table_cached(path: str) -> pa.Table:
    """Per-worker-process LRU of heavy-run tables: final-heavy tasks over
    overlapping term batches hit the same bucket files; each worker reads
    a file once instead of once per task."""
    from collections import OrderedDict

    global _RUN_TABLES
    if not isinstance(_RUN_TABLES, OrderedDict):
        _RUN_TABLES = OrderedDict(_RUN_TABLES)
    hit = _RUN_TABLES.get(path)
    if hit is not None:
        _RUN_TABLES.move_to_end(path)
        return hit
    tbl = pq.read_table(path)
    _RUN_TABLES[path] = tbl
    if len(_RUN_TABLES) > _RUN_TABLES_MAX:
        _RUN_TABLES.popitem(last=False)
    return tbl


def _norm_store_for(key: str, shards: list[dict]) -> _NormStore:
    st = _NORM_STORES.get(key)
    if st is None:
        st = _NormStore(shards)
        _NORM_STORES[key] = st
    return st


def _explode_chunk(
    seg_dirs_chunk: list[str],
    heavy: dict,
    rank_of_base: dict[int, int],
    n_salts: int,
    n_buckets: int,
):
    """Explode a chunk of partitions' term tables into PACKED per-bucket
    IPC fragments — a pure column transform (no postings decode): each
    blob travels opaque inside one Arrow-IPC fragment per (partition,
    bucket), so the exchange moves n_parts x n_buckets objects instead of
    one row per (term, partition) — same bytes, ~2 orders of magnitude
    less per-row shuffle overhead. Heavy terms get salt =
    contiguous-partition-rank-range id (runs stay doc-ordered) and a
    per-(term, salt) bucket; light terms salt -1 and a per-term bucket.
    Bucket hashing is the vectorized FNV-1a (identical to the scalar
    fnv1a the searcher uses for shard routing).

    Returns a TUPLE of n_buckets lists of frag bytes: run under
    ``ray.remote(num_returns=n_buckets)`` this is a map-side-partitioned
    hash shuffle — each downstream bucket-merge task depends on exactly
    its own return slot of every explode task, with no Dataset
    sort-based all-to-all in between (measured: the Dataset groupby paid
    a superlinear per-block fixed cost that pinned explode parallelism
    to 16 blocks; raw routing removes the cliff entirely)."""
    import pyarrow.compute as pc

    from .textops import fnv1a_extend_vec, fnv1a_vec

    heavy_arr = pa.array(sorted(heavy), type=pa.string())
    chunk = max(1, (len(rank_of_base) + n_salts - 1) // n_salts)
    out: list[list[bytes]] = [[] for _ in range(n_buckets)]
    for seg_dir in seg_dirs_chunk:
        terms_path = os.path.join(seg_dir, "terms.parquet")
        want = [
            "term",
            "df",
            "ttf",
            "singleton_doc",
            "blob",
            "pos_blob",
            "off_blob",
            "pay_blob",
            "offsets",
        ]
        have = set(pq.read_schema(terms_path).names)
        t = pq.read_table(
            terms_path,
            # offsets ride along (tiny: one int per 128 postings) so the
            # bucket merger's block rows decode via the batched
            # width-grouped unpack instead of a per-block Python loop;
            # the intersection keeps pre-payload segment files readable
            columns=[c for c in want if c in have],
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
        h = fnv1a_vec(term_col)
        h_salted = fnv1a_extend_vec(h, f"\x00{salt_val}".encode())
        buckets = np.where(
            is_heavy, h_salted % np.uint64(n_buckets), h % np.uint64(n_buckets)
        ).astype(np.int64)
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
            frag = t.slice(s_, e_ - s_)
            sink = pa.BufferOutputStream()
            with pa.ipc.new_stream(sink, frag.schema) as w:
                w.write_table(frag)
            out[int(b_sorted[s_])].append(sink.getvalue().to_pybytes())
    # num_returns=1 expects the single value itself, not a 1-tuple
    return tuple(out) if n_buckets > 1 else out[0]


def _dict_explode_chunk(
    paths: list[str], boundaries: list[str], n_ranges: int
):
    """Range-split a chunk of light shards' term columns for the sorted
    dictionary level. Each shard's term column is ALREADY sorted (the
    bucket merger writes term-sorted shards), so the split is one
    searchsorted against the range boundaries + zero-copy slices — no
    sort anywhere. Run under ``ray.remote(num_returns=n_ranges)`` this is
    the same map-side-partitioned exchange as the postings shuffle: each
    dict writer depends on exactly its own slot of every explode task."""
    out: list[list[pa.Array]] = [[] for _ in range(n_ranges)]
    bnd = np.array(boundaries, dtype=object)
    for p in paths:
        col = pq.read_table(p, columns=["term"]).column("term").combine_chunks()
        if isinstance(col, pa.ChunkedArray):  # pyarrow<8 returns ChunkedArray
            col = col.chunk(0) if col.num_chunks else pa.array([], pa.string())
        n = len(col)
        if not n:
            continue
        if len(bnd):
            cuts = np.searchsorted(
                col.to_numpy(zero_copy_only=False), bnd, side="left"
            )
        else:
            cuts = np.array([], dtype=np.int64)
        starts = np.concatenate([[0], cuts]).astype(np.int64)
        ends = np.concatenate([cuts, [n]]).astype(np.int64)
        for r, (s_, e_) in enumerate(zip(starts.tolist(), ends.tolist())):
            if e_ > s_:
                # compact: a pickled Arrow SLICE ships the whole parent
                # buffer (measured: 50-row slice of a 100k-row column
                # pickles at full size), which would amplify the exchange
                # by up to n_ranges x; concat_arrays re-buffers (~2 us)
                out[r].append(pa.concat_arrays([col.slice(s_, e_ - s_)]))
    return tuple(out) if n_ranges > 1 else out[0]


def _dict_write_range(dict_dir: str, heavy_terms: list[str], *arr_lists):
    """Merge one dictionary range: concat the (sorted, disjoint-by-value)
    slices from every explode task plus the heavy terms falling in this
    range, sort the ~range-sized result, write one dict parquet. Returns
    the manifest row, or None for an empty range."""
    import uuid as _uuid

    arrs = [a for lst in arr_lists for a in lst if len(a)]
    if heavy_terms:
        arrs.append(pa.array(heavy_terms, type=pa.string()))
    if not arrs:
        return None
    col = pa.chunked_array(arrs, type=pa.string())
    idx = pa.compute.sort_indices(col)
    tbl = pa.table({"term": col.take(idx).combine_chunks()})
    path = os.path.join(dict_dir, f"dict-{_uuid.uuid4().hex[:12]}.parquet")
    pq.write_table(tbl, path + ".tmp")
    os.replace(path + ".tmp", path)
    return {
        "term_min": tbl.column("term")[0].as_py(),
        "term_max": tbl.column("term")[-1].as_py(),
        "path": path,
        "n_terms": tbl.num_rows,
    }


def _binary_views(arr: pa.Array) -> tuple[np.ndarray, memoryview]:
    """Zero-copy (offsets, data) views over a non-chunked binary array:
    row i's bytes are data[offs[i]:offs[i+1]] — no per-row Python bytes
    materialization (the .to_pylist() replacement for blob columns)."""
    o = arr.offset
    offs = np.frombuffer(arr.buffers()[1], dtype=np.int32)[o : o + len(arr) + 1]
    buf = arr.buffers()[2]
    return offs, memoryview(buf) if buf is not None else memoryview(b"")


def _merge_sorted_batch(
    batch: pa.Table, norm_store: "_NormStore", emit, group_salt: bool = True
) -> None:
    """Decode + merge a (term, salt, doc_base)-sorted single-chunk batch of
    shuffle rows, calling ``emit(term, salt, docs, freqs, norms, pos_blob)``
    once per (term, salt) group in sorted order. ``group_salt=False``
    groups by term ONLY (rows still salt-sorted within a term) — the final
    heavy pass merges a term's salted runs into one group this way.

    Vectorized three-class decode (the batched-VInt lesson from the
    inverter — per-row Python loops cost ~90us/row, this path ~2us):

    - singletons (df==1): doc/freq straight from columns, no blob;
    - VInt rows (1 < df < 128): every row's blob gathered into ONE byte
      stream and decoded in ONE read_vints pass; the combined/freq-rest
      sub-streams are split per row with cumsum arithmetic;
    - block rows (df>=128, the stop band): per-row decode.

    Per-row segments land in one flat postings buffer at cumsum(df)
    offsets, so each group's merged postings are a CONTIGUOUS slice — no
    per-group concatenation. Rows are doc-ordered within a group (sorted
    by doc_base, partitions doc-disjoint); a violated group falls back to
    an argsort repair."""
    from .codec import (
        BLOCK_SIZE,
        decode_term_postings,
        decode_term_postings_indexed,
        read_vints,
    )

    n = batch.num_rows
    if n == 0:
        return
    terms_a = batch.column("term").chunk(0)
    salt = batch.column("salt").to_numpy()
    df = batch.column("df").to_numpy()
    ttf = batch.column("ttf").to_numpy()
    singleton = batch.column("singleton_doc").to_numpy()
    b_off, b_data = _binary_views(batch.column("blob").chunk(0))
    p_off, p_data = _binary_views(batch.column("pos_blob").chunk(0))
    if "off_blob" in batch.column_names:
        o_off, o_data = _binary_views(batch.column("off_blob").chunk(0))
    else:  # rows shipped without the offsets stream (offsets not indexed)
        o_off, o_data = np.zeros(n + 1, dtype=np.int32), memoryview(b"")
    if "pay_blob" in batch.column_names:
        y_off, y_data = _binary_views(batch.column("pay_blob").chunk(0))
    else:  # rows shipped without the payload stream (payloads not indexed)
        y_off, y_data = np.zeros(n + 1, dtype=np.int32), memoryview(b"")
    raw = (
        np.frombuffer(b_data, dtype=np.uint8)
        if len(b_data)
        else np.empty(0, np.uint8)
    )

    out_end = np.cumsum(df)
    out_start = out_end - df
    total = int(out_end[-1])
    flat_docs = np.empty(total, dtype=np.int64)
    flat_freqs = np.empty(total, dtype=np.int64)

    s_rows = np.flatnonzero(df == 1)
    if len(s_rows):
        flat_docs[out_start[s_rows]] = singleton[s_rows]
        flat_freqs[out_start[s_rows]] = ttf[s_rows]

    l_rows = np.flatnonzero((df > 1) & (df < BLOCK_SIZE))
    if len(l_rows):
        starts_b = b_off[l_rows].astype(np.int64)
        lens_b = (b_off[l_rows + 1] - b_off[l_rows]).astype(np.int64)
        total_b = int(lens_b.sum())
        out_off_b = np.cumsum(lens_b) - lens_b
        gidx = np.arange(total_b, dtype=np.int64) + np.repeat(
            starts_b - out_off_b, lens_b
        )
        cat = raw[gidx]
        is_term_b = (cat & 0x80) == 0
        n_vints = int(is_term_b.sum())
        vals, _ = read_vints(cat, n_vints)
        cum_term = np.concatenate(([0], np.cumsum(is_term_b)))
        vints_per_row = cum_term[np.cumsum(lens_b)] - cum_term[out_off_b]
        ldf = df[l_rows]
        val_starts = np.cumsum(vints_per_row) - vints_per_row
        pos_in_row = np.arange(n_vints, dtype=np.int64) - np.repeat(
            val_starts, vints_per_row
        )
        row_of_val = np.repeat(np.arange(len(l_rows)), vints_per_row)
        is_comb = pos_in_row < ldf[row_of_val]
        comb = vals[is_comb]
        rest = vals[~is_comb].astype(np.int64)
        d = (comb >> np.uint64(1)).astype(np.int64)
        flags = (comb & np.uint64(1)).astype(bool)
        seg_cs = np.cumsum(d)
        comb_starts = np.cumsum(ldf) - ldf
        base = np.repeat(seg_cs[comb_starts] - d[comb_starts], ldf)
        docs_l = seg_cs - base - 1
        freqs_l = np.ones(len(d), dtype=np.int64)
        freqs_l[~flags] = rest
        tgt = (
            np.arange(len(d), dtype=np.int64)
            - np.repeat(comb_starts, ldf)
            + np.repeat(out_start[l_rows], ldf)
        )
        flat_docs[tgt] = docs_l
        flat_freqs[tgt] = freqs_l

    blk_rows = np.flatnonzero(df >= BLOCK_SIZE)
    if len(blk_rows):
        # block rows: use the width-grouped batched unpack when the rows
        # carry their skip-offset arrays (run files and offset-shipping
        # explode rows do) — decode_term_postings' per-block Python loop
        # was the dominant line of the final-heavy pass (~10s of 18s over
        # the sf0.1 heavy mass single-threaded)
        off_starts = off_flat = None
        if "offsets" in batch.column_names:
            la = batch.column("offsets").chunk(0)
            off_flat = la.flatten().to_numpy()
            lens = pa.compute.list_value_length(la).to_numpy(zero_copy_only=False)
            lens = np.nan_to_num(lens.astype(np.float64)).astype(np.int64)
            off_starts = np.concatenate(([0], np.cumsum(lens)))
        for r in blk_rows.tolist():
            blob_r = b_data[b_off[r] : b_off[r + 1]]
            if off_starts is not None and off_starts[r + 1] > off_starts[r]:
                dd, ff = decode_term_postings_indexed(
                    blob_r, int(df[r]), off_flat[off_starts[r] : off_starts[r + 1]]
                )
            else:
                dd, ff = decode_term_postings(blob_r, int(df[r]))
            flat_docs[out_start[r] : out_end[r]] = dd
            flat_freqs[out_start[r] : out_end[r]] = ff

    flat_norms = norm_store.norms_for(flat_docs)

    if n > 1:
        neq = pa.compute.not_equal(
            terms_a.slice(1), terms_a.slice(0, n - 1)
        ).to_numpy(zero_copy_only=False)
        if group_salt:
            neq = neq | (salt[1:] != salt[:-1])
        brk = np.flatnonzero(neq) + 1
    else:
        brk = np.empty(0, dtype=np.int64)
    g_starts = np.concatenate([[0], brk]).astype(np.int64)
    g_ends = np.concatenate([brk, [n]]).astype(np.int64)
    any_pos = len(p_data) > 0
    any_off = len(o_data) > 0
    any_pay = len(y_data) > 0

    for rs, re_ in zip(g_starts.tolist(), g_ends.tolist()):
        lo_p, hi_p = int(out_start[rs]), int(out_end[re_ - 1])
        docs = flat_docs[lo_p:hi_p]
        freqs = flat_freqs[lo_p:hi_p]
        norms = flat_norms[lo_p:hi_p]
        has_pos = any_pos and bool(
            (p_off[rs + 1 : re_ + 1] > p_off[rs:re_]).all()
        )
        has_off = any_off and bool(
            (o_off[rs + 1 : re_ + 1] > o_off[rs:re_]).all()
        )
        has_pay = any_pay and bool(
            (y_off[rs + 1 : re_ + 1] > y_off[rs:re_]).all()
        )
        if len(docs) > 1 and not bool((np.diff(docs) > 0).all()):
            # out-of-order runs (shouldn't happen with doc-disjoint
            # partitions): repair through the per-run slow path
            decoded = [
                (
                    flat_docs[out_start[r] : out_end[r]],
                    flat_freqs[out_start[r] : out_end[r]],
                    flat_norms[out_start[r] : out_end[r]],
                    p_data[p_off[r] : p_off[r + 1]] if has_pos else b"",
                    o_data[o_off[r] : o_off[r + 1]] if has_off else b"",
                    y_data[y_off[r] : y_off[r + 1]] if has_pay else b"",
                )
                for r in range(rs, re_)
            ]
            docs, freqs, norms, pos_blob, off_blob, pay_blob = _concat_decoded(
                decoded
            )
        else:
            pos_blob = (
                b"".join(p_data[p_off[r] : p_off[r + 1]] for r in range(rs, re_))
                if has_pos
                else b""
            )
            off_blob = (
                b"".join(o_data[o_off[r] : o_off[r + 1]] for r in range(rs, re_))
                if has_off
                else b""
            )
            pay_blob = (
                b"".join(y_data[y_off[r] : y_off[r + 1]] for r in range(rs, re_))
                if has_pay
                else b""
            )
        emit(
            terms_a[rs].as_py(),
            int(salt[rs]),
            docs,
            freqs,
            norms,
            pos_blob,
            off_blob,
            pay_blob,
        )


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
        col = pq.read_table(p, columns=["term"]).column("term")
        h = _fmix64(fnv1a_vec(col)) & mask
        np.bitwise_or.at(
            bits,
            (h >> np.uint64(6)).astype(np.int64),
            np.uint64(1) << (h & np.uint64(63)),
        )
    return bits


def merge_by_term(
    manifest: dict,
    index_dir: str,
    salt_threshold: int | None = None,
    n_salts: int = 8,
    n_buckets: int = 128,
    parts_per_shard: int = 8,
) -> dict:
    """North-rule merge: term-partitioned shuffle with explicit salting.

    explode partitions (pure column transform) → raw-task exchange to
    bucket = hash(term [, salt]) — an explicit partitioned shuffle with B
    buckets so per-group scheduling overhead is O(B), not O(#terms) —
    → each bucket task merges+re-encodes its terms (heavy terms appear as
    per-salt sub-groups that stay doc-ordered because salts are contiguous
    partition-rank ranges) → light terms are final after the single
    shuffle; the stop-word-sized set of salted runs finishes through one
    task per heavy term. Norms are doc-range-sharded by Ray tasks (1
    byte/doc total) and mergers fetch only the shards their rows touch,
    cached per worker — nothing whole-corpus is ever held on the driver or
    broadcast dense. Output under <index_dir>/merged/: term-range-sharded
    term files + norm shards + a sorted dictionary level (dict files).
    Salt threshold defaults to 2% of doc_count (stop-word band, SURVEY §4)."""
    import ray
    import ray.data

    from .checkpoint import commit_merge_manifest, load_merge_manifest

    existing = load_merge_manifest(index_dir)
    if existing is not None and existing.get("kind") == "merge-by-term":
        return existing

    t0 = time.perf_counter()
    stage_t: dict[str, float] = {}
    doc_count = int(manifest["doc_count"])
    if salt_threshold is None:
        salt_threshold = max(1000, doc_count // 50)
    parts = sorted(manifest["partitions"], key=lambda r: r["doc_base"])
    seg_dirs = [r["seg_dir"] for r in parts]
    rank_of_base = {int(r["doc_base"]): i for i, r in enumerate(parts)}

    # doc-range-sharded norms, written by raw Ray tasks that OVERLAP the
    # heavy-term pre-pass — no whole-corpus driver allocation, no dense
    # broadcast; mergers fetch only the shards their rows touch (cached
    # per worker process)
    t_s = time.perf_counter()
    os.makedirs(os.path.join(index_dir, "merged"), exist_ok=True)
    norm_shards, norm_refs = write_norm_shards_async(
        parts, os.path.join(index_dir, "merged"), parts_per_shard=parts_per_shard
    )

    heavy = compute_heavy_terms(seg_dirs, salt_threshold)
    stage_t["heavy_prepass"] = round(time.perf_counter() - t_s, 3)
    heavy_ref = ray.put(heavy)  # broadcast once

    t_s = time.perf_counter()
    ray.get(norm_refs)  # norm shards must exist before merge tasks read them
    stage_t["norm_shards"] = round(time.perf_counter() - t_s, 3)

    # Raw-task map-side hash shuffle (no Dataset sort-based all-to-all):
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

    shard_dir = os.path.join(index_dir, "merged", "terms")
    heavy_dir = os.path.join(index_dir, "merged", "heavy_runs")
    os.makedirs(shard_dir, exist_ok=True)
    os.makedirs(heavy_dir, exist_ok=True)

    def _merge_bucket(bucket_id: int, *frag_lists) -> list[dict]:
        """One shuffle bucket: merge every (term, salt) group in it, write
        one final shard (+ one heavy-run file), return result rows.

        Arrow-native hot path (see _merge_sorted_batch): unpack the IPC
        fragments, one sort, batched decode, contiguous group slices —
        the whole-bucket .to_pylist() (every postings blob to Python
        dicts) was the single biggest line of the round-1 bench."""
        import uuid as _uuid

        frags = [f for lst in frag_lists for f in lst]
        if not frags:
            return []
        norm_store = _norm_store_for(index_dir, norm_shards)
        batch = pa.concat_tables(
            pa.ipc.open_stream(f).read_all() for f in frags
        )
        idx = pa.compute.sort_indices(
            batch, sort_keys=[("term", "ascending"), ("salt", "ascending"), ("doc_base", "ascending")]
        )
        batch = batch.take(idx).combine_chunks()
        final_cols: dict[str, list] = {f.name: [] for f in TERMS_SCHEMA}
        run_cols: dict[str, list] = {f.name: [] for f in TERMS_SCHEMA}
        run_salts: list[int] = []

        def _emit(term, salt_v, docs, freqs, norms, pos_blob, off_blob, pay_blob):
            if salt_v < 0:  # light term: final after this single shuffle
                _emit_from_arrays(
                    final_cols, term, docs, freqs, norms, pos_blob, off_blob, pay_blob
                )
            else:  # salted run of a heavy term
                _emit_from_arrays(
                    run_cols, term, docs, freqs, norms, pos_blob, off_blob, pay_blob
                )
                run_salts.append(salt_v)

        _merge_sorted_batch(batch, norm_store, _emit)
        out_rows: list[dict] = []
        if run_cols["term"]:
            run_tbl = pa.table(run_cols, schema=TERMS_SCHEMA).append_column(
                "salt", pa.array(run_salts, type=pa.int32())
            )
            hpath = os.path.join(heavy_dir, f"run-{_uuid.uuid4().hex[:12]}.parquet")
            pq.write_table(run_tbl, hpath + ".tmp")
            os.replace(hpath + ".tmp", hpath)
            out_rows.append(
                {
                    "kind": "heavy_runs",
                    "path": hpath,
                    "term_min": None,
                    "term_max": None,
                    "n_terms": run_tbl.num_rows,
                    "bucket": bucket_id,
                }
            )
        if final_cols["term"]:
            tbl = pa.table(final_cols, schema=TERMS_SCHEMA)
            path = os.path.join(shard_dir, f"shard-{_uuid.uuid4().hex[:12]}.parquet")
            pq.write_table(tbl, path + ".tmp")
            os.replace(path + ".tmp", path)
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
        return out_rows

    t_s = time.perf_counter()
    _explode_remote = ray.remote(num_returns=n_buckets, **_rargs())(_explode_chunk)
    per_task = [
        _explode_remote.remote(c, heavy_ref, rank_of_base, n_salts, n_buckets)
        for c in seg_chunks
    ]
    # num_returns=1 yields a bare ObjectRef (not a 1-list) — same n==1
    # handling as the dict-level exchange below
    slots = [[t] if n_buckets == 1 else list(t) for t in per_task]
    _bucket_remote = ray.remote(**_rargs())(_merge_bucket)
    result_refs = [
        _bucket_remote.remote(b, *[s[b] for s in slots])
        for b in range(n_buckets)
    ]
    results = [row for rows in ray.get(result_refs) for row in rows]
    stage_t["explode_group_write"] = round(time.perf_counter() - t_s, 3)

    shards = [
        {k: r[k] for k in ("path", "term_min", "term_max", "n_terms", "bucket")}
        for r in results
        if r.get("kind") == "shard"
    ]
    heavy_run_files = [r["path"] for r in results if r.get("kind") == "heavy_runs"]

    # Sorted dictionary level (the BlockTree .tim/.tip role), OVERLAPPED
    # with the heavy pass: its input is the light shards' term columns plus
    # the heavy-term set — which the prepass already knows exactly (every
    # salted term lands in a heavy shard) — so it runs in a background
    # thread while the heavy runs finalize. No distributed sort: every
    # light shard's term column is already sorted and the buckets are
    # term-DISJOINT, so a raw-task range exchange (searchsorted splits →
    # num_returns slots → per-range concat+sort of ~range-sized lists)
    # replaces the Dataset sort("term") whose all-to-all fixed cost was
    # the worst-scaling merge stage (~3-4s flat at sf0.1). Boundaries come
    # from ONE bucket's quantiles: hash-bucketing makes any single bucket
    # a uniform vocabulary sample.
    import threading

    dict_state: dict = {"rows": [], "sec": 0.0}
    light_pairs = [(s["path"], int(s["n_terms"])) for s in shards]  # snapshot:
    # the main thread extends `shards` with heavy shards after the pass below

    def _run_dict_level():
        t_d = time.perf_counter()
        dict_dir = os.path.join(index_dir, "merged", "dict")
        os.makedirs(dict_dir, exist_ok=True)
        heavy_sorted = sorted(heavy)
        total_terms = sum(n for _, n in light_pairs) + len(heavy_sorted)
        if not total_terms:
            return
        # ~512 terms/file at small vocab keeps file-level prefix pruning
        # sharp (fuzzy/prefix seeks skip whole files); the 256-file cap
        # bounds manifest size and task count at 10^9-term scale, where
        # within-file row groups carry the finer granularity.
        n_ranges = 1 if total_terms < 64 else min(256, -(-total_terms // 512))

        # boundary sample: quantiles over a few buckets' terms (hash
        # bucketing makes each bucket a uniform vocabulary sample)
        bnd: list[str] = []
        if n_ranges > 1:
            if light_pairs:
                samp_paths = [
                    p for p, _ in sorted(light_pairs, key=lambda s: -s[1])[:8]
                ]
                samp = sorted(
                    t
                    for p in samp_paths
                    for t in pq.read_table(p, columns=["term"])
                    .column("term")
                    .to_pylist()
                )
                ns = len(samp)
                if ns:
                    bnd = sorted(
                        {samp[min(ns - 1, (i * ns) // n_ranges)]
                         for i in range(1, n_ranges)}
                    )
            elif heavy_sorted:
                nh = len(heavy_sorted)
                bnd = sorted(
                    {heavy_sorted[min(nh - 1, (i * nh) // n_ranges)]
                     for i in range(1, n_ranges)}
                )
        n_ranges = len(bnd) + 1

        slots: list = []
        if light_pairs:
            n_cpus = int(ray.cluster_resources().get("CPU", 8))
            paths = [p for p, _ in light_pairs]
            chunks = [
                list(c)
                for c in np.array_split(np.array(paths), min(len(paths), n_cpus))
                if len(c)
            ]
            _explode = ray.remote(**_rargs())(_dict_explode_chunk).options(
                num_returns=n_ranges
            )
            tasks = [_explode.remote(c, bnd, n_ranges) for c in chunks]
            slots = [[t] if n_ranges == 1 else list(t) for t in tasks]

        from bisect import bisect_right

        heavy_by_range: list[list[str]] = [[] for _ in range(n_ranges)]
        for t in heavy_sorted:
            heavy_by_range[bisect_right(bnd, t)].append(t)

        _write = ray.remote(**_rargs())(_dict_write_range)
        row_refs = [
            _write.remote(dict_dir, heavy_by_range[r], *[s[r] for s in slots])
            for r in range(n_ranges)
        ]
        rows = [r for r in ray.get(row_refs) if r is not None]
        dict_state["rows"] = sorted(rows, key=lambda r: r["term_min"])
        dict_state["sec"] = round(time.perf_counter() - t_d, 3)

    dict_thread = threading.Thread(target=_run_dict_level, daemon=True)
    dict_thread.start()

    if heavy_run_files:
        # Final pass over the salted runs. A term's salted rows live in
        # exactly the buckets hash(term, salt) % B for salt in
        # 0..n_salts-1, and stage 2 wrote one run file per bucket — so each
        # per-term-batch task reads at most n_salts run files, not all of
        # them. (A Dataset groupby(term) over the runs was measured 2x
        # slower here: the all-to-all's fixed per-block overhead dwarfs the
        # stop-word-sized run mass.)
        bucket_to_run = {
            int(r["bucket"]): r["path"] for r in results if r.get("kind") == "heavy_runs"
        }
        run_map_ref = ray.put(bucket_to_run)

        def _final_heavy_term(term_list: list[str]) -> list[dict]:
            """Finalize one batch of heavy terms: gather their salted runs
            (each term's runs live in exactly the n_salts bucket files
            hash(term, salt) % B), then ONE sorted-batch merge over the
            concatenated run rows — the same batched three-class decode as
            the bucket merger (_merge_sorted_batch, term-only groups, runs
            salt-ordered = doc-ordered), replacing the per-row to_pylist +
            per-term Python concat of round 2. Run tables cache per worker
            process (LRU) so overlapping tasks re-read a file at most once
            per worker."""
            import uuid as _uuid

            from .textops import fnv1a

            norm_store = _norm_store_for(index_dir, norm_shards)
            run_map = ray.get(run_map_ref)
            terms = sorted(term_list)
            files = sorted(
                {
                    run_map[b]
                    for t in terms
                    for s in range(n_salts)
                    if (b := fnv1a(f"{t}\x00{s}") % n_buckets) in run_map
                }
            )
            term_arr = pa.array(terms, type=pa.string())
            parts = []
            for fp in files:
                t = _run_table_cached(fp)
                t = t.filter(pa.compute.is_in(t.column("term"), term_arr))
                if t.num_rows:
                    parts.append(t)
            cols: dict[str, list] = {f.name: [] for f in TERMS_SCHEMA}
            if parts:
                cat = pa.concat_tables(parts)
                idx = pa.compute.sort_indices(
                    cat,
                    sort_keys=[("term", "ascending"), ("salt", "ascending")],
                )
                cat = cat.take(idx).combine_chunks()

                def _emit(term, _salt_v, docs, freqs, norms, pos_blob, off_blob, pay_blob):
                    _emit_from_arrays(
                        cols, term, docs, freqs, norms, pos_blob, off_blob, pay_blob
                    )

                _merge_sorted_batch(cat, norm_store, _emit, group_salt=False)
            terms = cols["term"]  # terms actually present in the runs
            if not terms:
                return []
            tbl = pa.table(cols, schema=TERMS_SCHEMA)
            path = os.path.join(shard_dir, f"shard-heavy-{_uuid.uuid4().hex[:12]}.parquet")
            pq.write_table(tbl, path + ".tmp")
            os.replace(path + ".tmp", path)
            return [
                {
                    "kind": "shard",
                    "path": path,
                    "term_min": terms[0],
                    "term_max": terms[-1],
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
        n_cpus_h = int(ray.cluster_resources().get("CPU", 8))
        n_heavy_tasks = min(len(heavy), max(8, n_cpus_h * 2))
        order = sorted(heavy)
        w = np.array([max(1, int(heavy[t])) for t in order], dtype=np.float64)
        cw = np.cumsum(w)
        bounds = np.searchsorted(
            cw, np.linspace(0, cw[-1], n_heavy_tasks + 1)[1:-1], side="left"
        )
        chunks = [
            [order[i] for i in ch]
            for ch in np.split(np.arange(len(order)), np.unique(bounds))
            if len(ch)
        ]

        _final_remote = ray.remote(**_rargs())(_final_heavy_term)
        heavy_shards = [
            row
            for rows in ray.get([_final_remote.remote(c) for c in chunks])
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
        bloom_path = os.path.join(index_dir, "merged", "bloom.bin")
        bits.tofile(bloom_path + ".tmp")
        os.replace(bloom_path + ".tmp", bloom_path)
        bloom_meta = {"path": bloom_path, "m": m_bits, "k": 1, "hash": "fnv1a"}
    else:
        bloom_meta = None
    stage_t["bloom_build"] = round(time.perf_counter() - t_s, 3)

    t_join = time.perf_counter()
    dict_thread.join()
    dict_rows = dict_state["rows"]
    # thread-wall includes CPU contention with the heavy pass it hides
    # behind; the EXPOSED cost is only the join wait after final_heavy
    stage_t["dict_level_overlapped"] = dict_state["sec"]
    stage_t["dict_level_exposed"] = round(time.perf_counter() - t_join, 3)

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
            n_buckets=n_buckets,
        )
        stage_t[f"field_{fld}"] = round(time.perf_counter() - t_s, 3)

    out = {
        "version": 1,
        "kind": "merge-by-term",
        "fields": field_manifests,
        "stage_sec": stage_t,
        "salt_threshold": salt_threshold,
        "n_salts": n_salts,
        "n_buckets": n_buckets,
        "n_heavy_terms": len(heavy),
        "heavy_terms": sorted(heavy),
        "shards": sorted(shards, key=lambda s: s["term_min"]),
        "norm_files": [s["path"] for s in norm_shards],
        "norm_shards": norm_shards,
        "dict_files": dict_rows,
        "bloom": bloom_meta,
        "doc_count": manifest["doc_count"],
        "sum_ttf": manifest["sum_ttf"],
        "wall_ms": round((time.perf_counter() - t0) * 1000, 3),
    }
    return commit_merge_manifest(index_dir, out)


class MergedIndex(PostingsReader):
    """Segment-compatible reader over a merge-by-term output.

    One logical segment spanning all docs: light terms are addressed by
    shuffle bucket (bucket = fnv1a(term) % n_buckets → exactly one shard
    file), heavy terms by binary search over the sorted heavy-shard term
    ranges. Shard tables load lazily with an LRU — opening the index reads
    only the manifest, so searcher workers start in O(manifest), not
    O(#shards) (the BlockTree prefix-index role at file granularity)."""

    _SHARD_CACHE_MAX = 64

    def __init__(self, index_dir: str | None, manifest: dict | None = None):
        from collections import OrderedDict

        from .checkpoint import load_merge_manifest

        super().__init__()
        m = manifest or load_merge_manifest(index_dir)
        if m is None or m.get("kind") != "merge-by-term":
            raise FileNotFoundError(f"no merge-by-term manifest under {index_dir}")
        self.manifest = m
        self.dir = os.path.join(index_dir, "merged") if index_dir else "<merged>"
        self.n_buckets = int(m.get("n_buckets", 0))
        self._light_by_bucket: dict[int, str] = {}
        self._heavy_ranges: list[tuple[str, str, str]] = []  # (min, max, path)
        for s in m["shards"]:
            b = int(s.get("bucket", -1))
            if b >= 0:
                self._light_by_bucket[b] = s["path"]
            else:
                self._heavy_ranges.append((s["term_min"], s["term_max"], s["path"]))
        self._heavy_ranges.sort()
        self._heavy_set = set(m.get("heavy_terms", []))
        self._tables: OrderedDict[str, tuple[pa.Table, list[str]]] = OrderedDict()
        # Bloom sidecar (BloomFilteringPostingsFormat role): consulted
        # before any dictionary seek; bitset loads lazily on first miss
        # check so opening stays O(manifest)
        self._bloom_meta = m.get("bloom")
        self._bloom_bits: np.ndarray | None = None

        # Norms are NEVER loaded dense at open: a searcher worker touches
        # only the doc-range shards its postings hit, lazily through the
        # same LRU _NormStore the merge tasks use (the per-leaf mmap'd
        # norms role — codecs/lucene80/Lucene80NormsFormat.java:30-78).
        # 1 byte/doc dense would be 10-100 GB per worker at 10^10-10^11
        # docs. Doc bounds come from the shard METADATA, so __init__ does
        # zero norm-file I/O.
        shard_rows = m["norm_shards"]
        self._norm_store: _NormStore | None = _NormStore(shard_rows)
        self._norms_dense: np.ndarray | None = None  # set by norm_of
        self.doc_base = int(min(r["doc_lo"] for r in shard_rows))
        self.max_doc = int(max(r["doc_hi"] for r in shard_rows))
        self.n_docs = int(m["doc_count"])

    @property
    def sum_ttf(self) -> int:
        return int(self.manifest["sum_ttf"])

    # span bound for on-demand densification: 256 MB of norm bytes per
    # searcher process. Below it, the first MULTI-shard lookup (a heavy
    # term's whole-corpus TAAT scan) materializes one dense array — the
    # doc-range store costs ~20x per lookup on such scans (measured 8.8ms
    # vs 0.4ms on a df=190k term). Above it (10^9+ docs), lookups stay on
    # the range-LRU so a worker never holds whole-corpus norms.
    DENSE_NORMS_MAX_SPAN = 1 << 28

    def norm_of(self, doc_ids: np.ndarray) -> np.ndarray:
        docs = np.asarray(doc_ids, dtype=np.int64)
        if self._norms_dense is not None:
            return self._norms_dense[docs - self.doc_base]
        store = self._norm_store
        if len(docs) and self.norm_span <= self.DENSE_NORMS_MAX_SPAN:
            lo_d, hi_d = int(docs.min()), int(docs.max())
            i = int(np.searchsorted(store._lo, lo_d, side="right")) - 1
            if not (0 <= i < len(store.shards) and hi_d < int(store.shards[i]["doc_hi"])):
                # multi-shard request: densify once, serve direct gathers
                dense = np.zeros(self.norm_span, dtype=np.uint8)
                for j, s in enumerate(store.shards):
                    dense[int(s["doc_lo"]) - self.doc_base : int(s["doc_hi"]) - self.doc_base] = store._dense(j)
                self._norms_dense = dense
                self._norm_store = None  # shards now redundant in this reader
                return dense[docs - self.doc_base]
        return store.norms_for(docs)

    def _load(self, path: str) -> tuple[pa.Table, list[str]]:
        hit = self._tables.get(path)
        if hit is not None:
            self._tables.move_to_end(path)
            return hit
        tbl = pq.read_table(path)
        terms = tbl.column("term").to_pylist()
        self._tables[path] = (tbl, terms)
        if len(self._tables) > self._SHARD_CACHE_MAX:
            self._tables.popitem(last=False)
        return tbl, terms

    def _shard_path_of(self, term: str) -> str | None:
        if term in self._heavy_set:
            from bisect import bisect_right

            i = bisect_right(self._heavy_ranges, (term, chr(0x10FFFF), "")) - 1
            if 0 <= i < len(self._heavy_ranges):
                lo, hi, path = self._heavy_ranges[i]
                if lo <= term <= hi:
                    return path
            return None
        if self.n_buckets:
            from .textops import fnv1a

            return self._light_by_bucket.get(fnv1a(term) % self.n_buckets)
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

    def _find(self, term: str):
        from bisect import bisect_left

        if self._bloom_definite_miss(term):
            return None, -1
        path = self._shard_path_of(term)
        candidates = [path] if path else []
        if not candidates or term in self._heavy_set:
            # heavy ranges should be disjoint (bisect hits directly), but a
            # targeted miss falls back to the full candidate scan so an
            # overlapping range can never lose a term
            candidates += [
                p for _, _, p in self._heavy_ranges if p != path
            ] + [p for p in self._light_by_bucket.values() if p != path]
        for p in candidates:
            if p is None:
                continue
            tbl, terms = self._load(p)
            i = bisect_left(terms, term)
            if i < len(terms) and terms[i] == term:
                return tbl, i
        return None, -1

    def _dict_ranges(self) -> list[tuple[str, str, str]]:
        """Sorted-dictionary level (the BlockTree .tim/.tip role —
        codecs/blocktree/BlockTreeTermsWriter.java:200-217): term-range-
        sorted single-column files written at merge time; [] when the
        index holds no terms."""
        return [(r["term_min"], r["term_max"], r["path"]) for r in self.manifest["dict_files"]]

    def _dict_terms_overlapping(self, lo: str, hi: str) -> list[str]:
        """All dictionary terms in [lo, hi], touching only the dict files
        whose [term_min, term_max] overlaps — O(matching files) I/O."""
        from bisect import bisect_left, bisect_right

        out: list[str] = []
        for tmin, tmax, path in self._dict_ranges():
            if tmax < lo or tmin > hi:
                continue
            terms = pq.read_table(path, columns=["term"]).column("term").to_pylist()
            i = bisect_left(terms, lo)
            j = bisect_right(terms, hi)
            out.extend(terms[i:j])
        return out  # dict files are disjoint sorted ranges => already sorted

    def expand_prefix(self, prefix: str, max_terms: int = 1024) -> list[str]:
        """Terms starting with ``prefix``, lexicographic, capped; reads only
        the overlapping dict files. The cap keeps the lexicographically-
        first terms."""
        hit = self._dict_terms_overlapping(prefix, prefix + chr(0x10FFFF))
        return [t for t in hit if t.startswith(prefix)][:max_terms]

    def expand_range(self, lo: str, hi: str, max_terms: int = 1024) -> list[str]:
        """Inclusive term-range scan over the sorted dictionary level. The
        cap keeps the lexicographically-first terms."""
        return self._dict_terms_overlapping(lo, hi)[:max_terms]

    def term_stats(self, term: str):
        tbl, i = self._find(term)
        if tbl is None:
            return 0, 0
        return int(tbl.column("df")[i].as_py()), int(tbl.column("ttf")[i].as_py())

    def iter_terms(self):
        """Enumerate dictionary terms in sorted order with PRUNED
        single-column dict-file reads — never touches postings blobs
        (fuzzy and suffix expansion go through this)."""
        for _tmin, _tmax, p in self._dict_ranges():
            yield from pq.read_table(p, columns=["term"]).column("term").to_pylist()

    def iter_term_rows(self):
        """Every whole term row, shard by shard (CheckIndex input)."""
        paths = sorted(
            {p for _, _, p in self._heavy_ranges} | set(self._light_by_bucket.values())
        )
        for p in paths:
            yield from pq.read_table(p).to_pylist()
