"""Relational operators — Solr streaming-expression analogues on Ray Data.

The reference ships a full relational dataflow DSL over shards
(solr/solrj/.../io/stream/: RollupStream, HashJoinStream, RankStream,
UniqueStream, TimeSeriesStream, SelectStream, ParallelStream...). Each
function here is the Ray-Data-native expression of one of those operators
over the driver's TPC-H-ish tables (SURVEY §2.7 mapping table), used by the
driver-checked `queries()` entries.

Patterns on display:
- partial aggregation inside map_batches before the groupby (RollupStream
  with a combiner) — only one row per key per batch shuffles;
- broadcast hash join (HashJoinStream): dimension side via ray.put once,
  lookup per batch — no shuffle of the fact table;
- semi-join via broadcast key set (FetchStream/JoinUtil semi-join);
- top-k via per-batch prefilter + small global sort (RankStream);
- distinct via groupby-first (UniqueStream);
- date-bucketed aggregate (TimeSeriesStream).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa

from .rayenv import remote_args as _rargs
import pyarrow.compute as pc


def _read(sf_dir: str, table: str, columns: list[str] | None = None, **kwargs):
    from .rayenv import read_parquet_clean

    # metadata-stripped read: pandas-written testdata schemas are
    # unhashable and spam ray.data's schema-dedup warning (rayenv)
    return read_parquet_clean(
        os.path.join(sf_dir, f"{table}.parquet"), columns=columns, **kwargs
    )


def rollup_lineitem(sf_dir: str):
    """RollupStream analogue (TPC-H Q1 shape): per (returnflag, linestatus)
    count + sum(qty) + avg(qty), pre-aggregated per batch before the
    groupby so only partials shuffle."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "lineitem", ["l_returnflag", "l_linestatus", "l_quantity"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            df.groupby(["l_returnflag", "l_linestatus"], as_index=False)
            .agg(n=("l_quantity", "size"), sum_qty=("l_quantity", "sum"))
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", **_rargs())
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("n", alias_name="n"), Sum("sum_qty", alias_name="sum_qty"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["n"] = df["n"].astype(np.int64)
        df["avg_qty"] = df["sum_qty"] / df["n"]
        return pa.Table.from_pandas(
            df[["l_returnflag", "l_linestatus", "n", "sum_qty", "avg_qty"]],
            preserve_index=False,
        )

    return agg.map_batches(finish, batch_format="pyarrow", **_rargs())


def orders_per_nation(sf_dir: str):
    """HashJoinStream analogue: orders ⋈ customer ⋈ nation. One task
    turns the customer blocks into two arrays sorted by custkey (custkey,
    nationkey) that stay in the object store; each orders batch probes
    them with np.searchsorted and maps nationkeys to names through the
    25-row nation side, a closure constant. Partial counts per batch, tiny
    groupby-sum of partials."""
    import ray
    from ray.data.aggregate import Sum

    def sorted_keys(*blocks: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        t = pa.concat_tables(blocks)
        keys = t.column("c_custkey").to_numpy()
        order = np.argsort(keys, kind="stable")
        return keys[order], t.column("c_nationkey").to_numpy()[order]

    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"])
    lookup_ref = ray.remote(**_rargs())(sorted_keys).remote(*cust.to_arrow_refs())
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    name_of = nation.set_index("n_nationkey")["n_name"]

    def partial(batch: pa.Table) -> pa.Table:
        keys, nationkeys = ray.get(lookup_ref)
        ok = batch.column("o_custkey").to_numpy()
        i = np.searchsorted(keys, ok)
        hit = i < len(keys)
        hit[hit] = keys[i[hit]] == ok[hit]
        # inner join: an order without a customer, or a customer whose
        # nationkey is missing from nation (NaN), drops out of the count
        names = pd.Series(name_of.reindex(nationkeys[i[hit]]).to_numpy())
        g = names.value_counts()
        return pa.table(
            {
                "n_name": pa.array(g.index.to_numpy(), pa.string()),
                "n_orders": pa.array(g.to_numpy(), pa.int64()),
            }
        )

    return (
        _read(sf_dir, "orders", ["o_custkey"])
        .map_batches(partial, batch_format="pyarrow", **_rargs())
        .groupby("n_name")
        .aggregate(Sum("n_orders", alias_name="n_orders"))
    )


def top_orders(sf_dir: str, k: int = 10):
    """RankStream analogue: global top-k orders by totalprice (tie:
    o_orderkey asc) via per-batch top-k prefilter + small driver sort."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def partial_topk(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return pa.Table.from_pandas(
            df.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True]).head(k),
            preserve_index=False,
        )

    parts = ds.map_batches(partial_topk, batch_format="pyarrow", **_rargs()).to_pandas()
    out = parts.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True]).head(k)
    out = out.reset_index(drop=True)
    out["rank"] = np.arange(len(out), dtype=np.int64)
    return pa.Table.from_pandas(out[["rank", "o_orderkey", "o_totalprice"]], preserve_index=False)


def unique_event_types(sf_dir: str):
    """UniqueStream analogue: distinct event_type (groupby-first)."""
    ds = _read(sf_dir, "events", ["event_type"])
    return ds.groupby("event_type").count().select_columns(["event_type"])


def events_timeseries(sf_dir: str):
    """TimeSeriesStream analogue: events per (event_type, day)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["ts", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        # keep microsecond unit so the schema matches DuckDB's date_trunc
        df["day"] = df["ts"].dt.floor("D").astype("datetime64[us]")
        g = df.groupby(["event_type", "day"], as_index=False).size()
        g = g.rename(columns={"size": "n_events"})
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ds.map_batches(partial, batch_format="pyarrow", **_rargs())
        .groupby(["event_type", "day"])
        .aggregate(Sum("n_events", alias_name="n_events"))
    )


def orders_semi_join(sf_dir: str, nation_name: str = "NATION_7"):
    """Semi-join via broadcast key set (JoinUtil.createJoinQuery shape):
    orders whose customer is in the given nation. The read tasks filter
    customer by nation; one task collects the matching custkeys as a
    sorted int64 array that stays in the object store, and each orders
    batch tests membership with ``pc.is_in``."""
    import ray

    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nk = nation.loc[nation["n_name"] == nation_name, "n_nationkey"]

    def sorted_keys(*blocks: pa.Table) -> np.ndarray:
        keys = [np.empty(0, np.int64)] + [b.column("c_custkey").to_numpy() for b in blocks]
        return np.unique(np.concatenate(keys))

    # the nation filter runs in the read tasks' parquet scan
    in_nation = pc.field("c_nationkey").isin(nk.tolist())
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"], filter=in_nation)
    keys_ref = ray.remote(**_rargs())(sorted_keys).remote(*cust.to_arrow_refs())

    def filt(batch: pa.Table) -> pa.Table:
        keys = pa.array(ray.get(keys_ref), pa.int64())
        mask = pc.is_in(batch.column("o_custkey"), value_set=keys)
        return batch.filter(mask).select(["o_orderkey", "o_custkey"])

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    return orders.map_batches(filt, batch_format="pyarrow", **_rargs())


def top_orders_per_priority(sf_dir: str, per_group: int = 2):
    """Grouping-module analogue (two-pass grouping collector): top-N orders
    by totalprice within each orderpriority."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderpriority"])

    def topn(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["o_totalprice", "o_orderkey"], ascending=[False, True]).head(per_group)
        g = g.reset_index(drop=True)
        g["grp_rank"] = np.arange(len(g), dtype=np.int64)
        return g[["o_orderpriority", "grp_rank", "o_orderkey", "o_totalprice"]]

    return ds.groupby("o_orderpriority").map_groups(topn, batch_format="pandas", **_rargs())


def lang_facet(sf_dir: str):
    """FacetStream / facet-module analogue: doc counts per lang over the
    documents table."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", ["lang"])
    return ds.groupby("lang").aggregate(Count(alias_name="n_docs"))


def lineitem_revenue_expr(sf_dir: str):
    """Expressions-module analogue (lucene/expressions: compiled scalar
    expressions over doc-value columns): revenue = extendedprice * (1 -
    discount), vectorized per Arrow batch."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_extendedprice", "l_discount"])

    def expr(batch: pa.Table) -> pa.Table:
        rev = pc.multiply(
            batch.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), batch.column("l_discount")),
        )
        return pa.table(
            {
                "l_orderkey": batch.column("l_orderkey"),
                "l_linenumber": batch.column("l_linenumber"),
                "revenue": rev,
            }
        )

    return ds.map_batches(expr, batch_format="pyarrow", **_rargs())


def customer_orders_left_outer(sf_dir: str):
    """LeftOuterJoinStream analogue (solr/solrj/.../io/stream/
    LeftOuterJoinStream.java:35): every customer with their order count,
    customers without orders kept at 0. No shuffle: one task sorts the
    custkeys (the customer blocks stay in the object store), one task per
    orders block counts its orders per customer with a sorted-key probe
    and ``np.bincount``, one task sums those counts, and one pass over the
    customer blocks attaches them — an order whose custkey has no
    customer matches no row, as LEFT semantics ask."""
    import ray
    import ray.data

    remote = ray.remote(**_rargs())

    def sorted_keys(*blocks: pa.Table) -> np.ndarray:
        keys = [np.empty(0, np.int64)] + [b.column("c_custkey").to_numpy() for b in blocks]
        return np.sort(np.concatenate(keys))

    def count_block(keys: np.ndarray, block: pa.Table) -> np.ndarray:
        ok = block.column("o_custkey").to_numpy()
        i = np.searchsorted(keys, ok)
        hit = i < len(keys)
        hit[hit] = keys[i[hit]] == ok[hit]
        return np.bincount(i[hit], minlength=len(keys))

    def total(*counts: np.ndarray) -> np.ndarray:
        return np.sum(counts, axis=0, dtype=np.int64)

    cust_refs = _read(sf_dir, "customer", ["c_custkey"]).to_arrow_refs()
    keys_ref = remote(sorted_keys).remote(*cust_refs)
    counts_ref = remote(total).remote(
        *[
            remote(count_block).remote(keys_ref, o)
            for o in _read(sf_dir, "orders", ["o_custkey"]).to_arrow_refs()
        ]
    )

    def attach(batch: pa.Table) -> pa.Table:
        keys, counts = ray.get(keys_ref), ray.get(counts_ref)
        ck = batch.column("c_custkey")
        n = counts[np.searchsorted(keys, ck.to_numpy())]
        return pa.table({"c_custkey": ck, "n_orders": pa.array(n, pa.int64())})

    return ray.data.from_arrow_refs(cust_refs).map_batches(
        attach, batch_format="pyarrow", **_rargs()
    )


def _tag_union_keys(sf_dir: str, spec_a, spec_b):
    """Shared tag-union shape for Intersect/ComplementStream: distinct keys
    of two streams tagged by side, one groupby(key) with per-batch
    pre-distinct so only unique (key, side) pairs shuffle."""
    from ray.data.aggregate import Max

    def tagger(col: str, side: int):
        def _tag(batch: pa.Table) -> pa.Table:
            keys = pc.unique(batch.column(col))
            n = len(keys)
            return pa.table(
                {
                    "key": pc.cast(keys, pa.int64()),
                    "a": pa.array(np.full(n, 1 if side == 0 else 0, dtype=np.int64)),
                    "b": pa.array(np.full(n, 1 if side == 1 else 0, dtype=np.int64)),
                }
            )

        return _tag

    ds_a, col_a = spec_a
    ds_b, col_b = spec_b
    tagged = ds_a.map_batches(tagger(col_a, 0), batch_format="pyarrow", **_rargs()).union(
        ds_b.map_batches(tagger(col_b, 1), batch_format="pyarrow", **_rargs())
    )
    return tagged.groupby("key").aggregate(
        Max("a", alias_name="in_a"), Max("b", alias_name="in_b")
    )


def custkeys_intersect(sf_dir: str):
    """IntersectStream analogue: distinct custkeys that BOTH placed an
    order AND belong to nations 0-2."""
    orders = _read(sf_dir, "orders", ["o_custkey"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_nationkey"]).filter(
        lambda r: r["c_nationkey"] < 3
    )
    both = _tag_union_keys(sf_dir, (orders, "o_custkey"), (cust, "c_custkey"))

    def finish(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(batch.column("in_a"), 1), pc.equal(batch.column("in_b"), 1)
        )
        return pa.table({"custkey": batch.filter(m).column("key")})

    return both.map_batches(finish, batch_format="pyarrow", **_rargs())


def customers_without_orders(sf_dir: str):
    """ComplementStream analogue: custkeys present in customer but absent
    from orders (EXCEPT)."""
    cust = _read(sf_dir, "customer", ["c_custkey"])
    orders = _read(sf_dir, "orders", ["o_custkey"])
    both = _tag_union_keys(sf_dir, (cust, "c_custkey"), (orders, "o_custkey"))

    def finish(batch: pa.Table) -> pa.Table:
        m = pc.and_(
            pc.equal(batch.column("in_a"), 1), pc.equal(batch.column("in_b"), 0)
        )
        return pa.table({"custkey": batch.filter(m).column("key")})

    return both.map_batches(finish, batch_format="pyarrow", **_rargs())


def significant_terms(sf_dir: str, fg_term: str = "data", min_fg_df: int = 5):
    """SignificantTermsStream analogue (solr/solrj/.../io/stream/
    SignificantTermsStream.java): per-term document frequency inside the
    FOREGROUND set (docs containing ``fg_term``) next to the corpus df —
    the inputs of the significance score (lift stays a client-side float
    so the driver compare is integer-exact).

    Distributed shape: one tokenize pass emits per-batch PARTIAL
    (term, fg_df, df) rows — only one row per distinct term per batch
    shuffles — then a groupby-sum and an fg_df threshold."""
    from ray.data.aggregate import Sum

    from .analyze import analyze_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        rows: dict[str, list[int]] = {}
        for t in texts:
            toks, _ = analyze_batch([t])
            uniq = set(toks)
            is_fg = fg_term in uniq
            for w in uniq:
                e = rows.get(w)
                if e is None:
                    rows[w] = [1 if is_fg else 0, 1]
                else:
                    e[0] += 1 if is_fg else 0
                    e[1] += 1
        terms = sorted(rows)
        return pa.table(
            {
                "term": pa.array(terms, type=pa.string()),
                "fg_df": pa.array([rows[t][0] for t in terms], type=pa.int64()),
                "df": pa.array([rows[t][1] for t in terms], type=pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", **_rargs())
        .groupby("term")
        .aggregate(Sum("fg_df", alias_name="fg_df"), Sum("df", alias_name="df"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        t = batch.filter(pc.greater_equal(batch.column("fg_df"), min_fg_df))
        return pa.table(
            {
                "term": t.column("term"),
                "fg_df": pc.cast(t.column("fg_df"), pa.int64()),
                "df": pc.cast(t.column("df"), pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", **_rargs())


def doc_tokens_unnest(sf_dir: str):
    """CartesianProductStream analogue (multivalued-field un-nesting,
    solr/solrj/.../io/stream/CartesianProductStream.java): one row per
    (doc_id, token position) — vectorized repeat/flatten, no Python
    per-row loop."""
    from .analyze import analyze_batch

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def unnest(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        doc_ids = batch.column("doc_id").to_numpy()
        flat, lengths = analyze_batch(texts)
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(doc_ids, lengths), type=pa.int64()),
                "token": pa.array(flat, type=pa.string()),
            }
        )

    return ds.map_batches(unnest, batch_format="pyarrow", **_rargs())


def orders_sample(sf_dir: str, fraction: float = 0.1, seed: int = 7):
    """RandomStream / sampling analogue: seeded bernoulli sample."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    return ds.random_sample(fraction, seed=seed)


def orders_sample_hash(sf_dir: str, pct: int = 10):
    """Deterministic hash sampling: keep rows where FNV-1a over the key's
    8 little-endian bytes lands in the sampled residue band. Unlike a
    seeded RNG sample this is reproducible across engines, retries and
    partitionings (the property that makes sampled pipelines resumable),
    so DuckDB recomputes the EXACT same sample — fully oracle-checked."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    def filt(batch: pa.Table) -> pa.Table:
        from .textops import fnv1a_u64_vec

        h = fnv1a_u64_vec(batch.column("o_orderkey").to_numpy())
        return batch.filter(pa.array((h % np.uint64(100)) < pct))

    return ds.map_batches(filt, batch_format="pyarrow", **_rargs())


def fnv1a_str_sql(col: str) -> str:
    """textops.fnv1a over an ASCII string column as a DuckDB expression:
    list_reduce fold over character codes with the same HUGEINT
    multiply-mod-2^64 chain as fnv1a_u64_sql. Exact for the engine's
    [a-z0-9]+ tokens (single-byte UTF-8, so unicode(ch) == the byte)."""
    # ({col})[i]: the parens matter — for a concat EXPRESSION the
    # indexing would otherwise bind to the last || operand only
    return f"""
        list_reduce(
          list_prepend(CAST(14695981039346656037 AS UBIGINT),
            list_transform(range(1, length({col}) + 1),
                           i -> CAST(unicode(({col})[i]) AS UBIGINT))),
          (h, b) -> CAST(((CAST(xor(h, b) AS HUGEINT) * 1099511628211)
                          % 18446744073709551616) AS UBIGINT))
    """


def fnv1a_u64_sql(col: str) -> str:
    """The same FNV-1a-over-8-LE-bytes chain as orders_sample_hash, as a
    DuckDB expression (HUGEINT multiply with explicit mod 2^64)."""
    expr = "CAST(14695981039346656037 AS UBIGINT)"
    for i in range(8):
        b = f"CAST((({col} >> {8 * i}) & 255) AS UBIGINT)"
        expr = (
            f"CAST(((CAST(xor({expr}, {b}) AS HUGEINT) * 1099511628211)"
            f" % 18446744073709551616) AS UBIGINT)"
        )
    return expr


def taxonomy_facet_customers(sf_dir: str):
    """Taxonomy facet counts (lucene/facet taxonomy dimensions —
    facet/taxonomy/TaxonomyFacetCounts roll-up): each customer contributes
    to every prefix of its region/nation path, so one pass yields counts
    at BOTH levels (path, level, cnt). Dimension side (region ⋈ nation,
    ~50 rows) broadcasts once; the fact table streams with a per-batch
    partial count and only (path, cnt) partials shuffle."""
    import ray
    from ray.data.aggregate import Sum

    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name", "n_regionkey"]).to_pandas()
    region = _read(sf_dir, "region", ["r_regionkey", "r_name"]).to_pandas()
    r_of = region.set_index("r_regionkey")["r_name"]
    path_of_nation = {
        int(row.n_nationkey): (
            str(r_of[row.n_regionkey]),
            f"{r_of[row.n_regionkey]}/{row.n_name}",
        )
        for row in nation.itertuples()
    }
    lookup_ref = ray.put(path_of_nation)

    cust = _read(sf_dir, "customer", ["c_nationkey"])

    def partial(batch: pa.Table) -> pa.Table:
        lookup = ray.get(lookup_ref)
        keys = batch.column("c_nationkey").to_numpy()
        rows: dict[tuple[str, int], int] = {}
        for k in keys:
            lvl1, lvl2 = lookup[int(k)]
            rows[(lvl1, 1)] = rows.get((lvl1, 1), 0) + 1
            rows[(lvl2, 2)] = rows.get((lvl2, 2), 0) + 1
        return pa.table(
            {
                "path": pa.array([p for p, _ in rows], type=pa.string()),
                "level": pa.array([l for _, l in rows], type=pa.int64()),
                "cnt": pa.array(list(rows.values()), type=pa.int64()),
            }
        )

    agg = (
        cust.map_batches(partial, batch_format="pyarrow", **_rargs())
        .groupby(["path", "level"])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "path": batch.column("path"),
                "level": batch.column("level").cast(pa.int64()),
                "cnt": batch.column("cnt").cast(pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", **_rargs())


def top_k_groups_orders(sf_dir: str, k_groups: int = 10, n_per_group: int = 2):
    """Two-pass grouped top-k (lucene/grouping FirstPassGroupingCollector +
    SecondPassGroupingCollector): pass 1 selects the top ``k_groups``
    group HEADS (customers by max order totalprice, tie smaller custkey)
    with a native Max aggregate + distributed sort + limit; pass 2
    collects the top ``n_per_group`` docs inside ONLY the selected groups
    (filter pushdown on the broadcast key set, then a per-group rank).
    Returns (o_custkey, rank_in_group, o_orderkey, o_totalprice)."""
    from ray.data.aggregate import Max

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])

    heads = (
        orders.groupby("o_custkey")
        .aggregate(Max("o_totalprice", alias_name="_gmax"))
        .sort(["_gmax", "o_custkey"], descending=[True, False])
        .limit(k_groups)
        .to_pandas()
    )
    selected = set(int(k) for k in heads["o_custkey"])

    def in_selected(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(
            batch.column("o_custkey"), pa.array(sorted(selected), type=pa.int64())
        )
        return batch.filter(mask)

    def rank_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["o_totalprice", "o_orderkey"], ascending=[False, True]
        ).head(n_per_group)
        g = g.reset_index(drop=True)
        g["rank_in_group"] = np.arange(len(g), dtype=np.int64)
        return g[["o_custkey", "rank_in_group", "o_orderkey", "o_totalprice"]]

    return (
        orders.map_batches(in_selected, batch_format="pyarrow", **_rargs())
        .groupby("o_custkey")
        .map_groups(rank_group, batch_format="pandas", **_rargs())
    )


def block_join_top_orders(sf_dir: str, k: int = 10, min_discount: float = 0.05):
    """ToParentBlockJoinQuery analogue (lucene/join/src/java/org/apache/
    lucene/search/join/ToParentBlockJoinQuery.java:47-89 with ScoreMode.Max,
    join/ScoreMode.java): children (lineitems) matching a filter score
    their parent (order) with the MAX child score; top-k parents by
    (score desc, orderkey asc). Child score = the revenue expression, so
    the emitted double is a bit-identical SELECTION (max), never a sum —
    safe to hash against DuckDB. Shape: child filter + revenue inside
    map_batches (per-batch partial max per parent), groupby(parent) Max,
    per-batch top-k prefilter, small global sort."""
    from ray.data.aggregate import Max

    ds = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]
    )

    def child_scores(batch: pa.Table) -> pa.Table:
        disc = batch.column("l_discount")
        mask = pc.greater(disc, pa.scalar(min_discount))
        b = batch.filter(mask)
        rev = pc.multiply(
            b.column("l_extendedprice"),
            pc.subtract(pa.scalar(1.0), b.column("l_discount")),
        )
        # per-batch partial: one (parent, max) row per parent per batch
        t = pa.table({"l_orderkey": b.column("l_orderkey"), "rev": rev})
        return (
            t.group_by("l_orderkey")
            .aggregate([("rev", "max")])
            .rename_columns(["l_orderkey", "score"])
        )

    agg = (
        ds.map_batches(child_scores, batch_format="pyarrow", **_rargs())
        .groupby("l_orderkey")
        .aggregate(Max("score", alias_name="score"))
    )

    def prefilter(batch: pa.Table) -> pa.Table:  # per-batch top-k before the sort
        if batch.num_rows <= k:
            return batch
        order = pc.sort_indices(
            batch, sort_keys=[("score", "descending"), ("l_orderkey", "ascending")]
        )
        return batch.take(order[:k])

    top = (
        agg.map_batches(prefilter, batch_format="pyarrow", **_rargs())
        .sort(["score", "l_orderkey"], descending=[True, False])
        .limit(k)
        .to_pandas()
    )
    return pa.table(
        {
            "rank": pa.array(np.arange(len(top)), type=pa.int64()),
            "o_orderkey": pa.array(top["l_orderkey"].to_numpy(), type=pa.int64()),
            "score": pa.array(top["score"].to_numpy(), type=pa.float64()),
        }
    )


def drill_sideways_docs(
    sf_dir: str,
    base_term: str = "data",
    lang: str = "en",
    source: str = "src3",
):
    """DrillSideways analogue (facet/DrillSideways.java:176-218 — ONE
    query execution fills the drill-down collector AND one sideways
    collector per dimension): for a base query (docs containing
    ``base_term``) drilled down on lang=... and source=..., emit

    - dim='lang' rows: lang facet counts over base AND source filter
      (the lang dimension's own filter dropped — "sideways"),
    - dim='source' rows: source facet counts over base AND lang filter,
    - dim='drilldown': the fully-filtered hit count.

    Shape: one streamed map_batches pass computes per-batch partials for
    every collector at once (the DrillSidewaysQuery role — the doc is
    scored once, each collector sees the subset it needs), then a small
    groupby(dim, value) sum."""
    from ray.data.aggregate import Sum

    from .analyze import tokenize

    ds = _read(sf_dir, "documents", ["text", "lang", "source"])

    def partials(batch: pa.Table) -> pa.Table:
        langs = batch.column("lang").to_pylist()
        sources = batch.column("source").to_pylist()
        texts = batch.column("text").to_pylist()
        counts: dict[tuple[str, str], int] = {}
        for lg, src, text in zip(langs, sources, texts):
            if base_term not in tokenize(text or ""):
                continue
            if src == source:  # sideways for the lang dimension
                k = ("lang", lg)
                counts[k] = counts.get(k, 0) + 1
            if lg == lang:  # sideways for the source dimension
                k = ("source", src)
                counts[k] = counts.get(k, 0) + 1
            if lg == lang and src == source:
                k = ("drilldown", "")
                counts[k] = counts.get(k, 0) + 1
        keys = sorted(counts)
        return pa.table(
            {
                "dim": pa.array([k[0] for k in keys], type=pa.string()),
                "value": pa.array([k[1] for k in keys], type=pa.string()),
                "cnt": pa.array([counts[k] for k in keys], type=pa.int64()),
            }
        )

    return (
        ds.map_batches(partials, batch_format="pyarrow", **_rargs())
        .groupby(["dim", "value"])
        .aggregate(Sum("cnt", alias_name="cnt"))
    )


def pivot_facet_docs(
    sf_dir: str, limit_outer: int = 3, limit_inner: int = 2
):
    """Solr pivot facets (facet.pivot=lang,source with per-level limits:
    solr/handler/component/PivotFacetProcessor): top ``limit_outer``
    langs by doc count, and within each, the top ``limit_inner`` sources
    (count desc, value asc at both levels). One streamed pre-aggregation
    (per-batch (lang, source) partial counts -> small groupby sum), then
    the two-level selection on the model-sized result."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["lang", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        g = (
            batch.group_by(["lang", "source"])
            .aggregate([([], "count_all")])
            .rename_columns(["lang", "source", "cnt"])
        )
        return g

    pairs = (
        ds.map_batches(partial, batch_format="pyarrow", **_rargs())
        .groupby(["lang", "source"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()
    )
    outer = (
        pairs.groupby("lang", as_index=False)["cnt"].sum()
        .sort_values(["cnt", "lang"], ascending=[False, True])
        .head(limit_outer)
    )
    out = {"lang": [], "lang_count": [], "source": [], "source_count": []}
    for lang, lcnt in zip(outer["lang"], outer["cnt"]):
        sub = (
            pairs[pairs["lang"] == lang]
            .sort_values(["cnt", "source"], ascending=[False, True])
            .head(limit_inner)
        )
        for src, scnt in zip(sub["source"], sub["cnt"]):
            out["lang"].append(lang)
            out["lang_count"].append(int(lcnt))
            out["source"].append(src)
            out["source_count"].append(int(scnt))
    return pa.table(
        {
            "lang": pa.array(out["lang"], type=pa.string()),
            "lang_count": pa.array(out["lang_count"], type=pa.int64()),
            "source": pa.array(out["source"], type=pa.string()),
            "source_count": pa.array(out["source_count"], type=pa.int64()),
        }
    )


def _argmax_agg(out_col: str, val_col: str, id_col: str):
    """Vectorized arg-max AggregateFnV2: per group, (max val_col, tie min
    id_col). finalize returns the value or the arg depending on out_col
    suffix — same two-instance idiom as dedup._ArgLatest."""
    from ray.data.aggregate import AggregateFnV2
    from ray.data.block import BlockAccessor

    zero = (-(1 << 62), (1 << 62))

    class _Agg(AggregateFnV2):
        def __init__(self):
            super().__init__(
                out_col, zero_factory=lambda: zero, on=None, ignore_nulls=True
            )

        def aggregate_block(self, block):
            tbl = BlockAccessor.for_block(block).to_arrow()
            v = tbl.column(val_col).to_numpy(zero_copy_only=False).astype(np.int64)
            i_ = tbl.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
            if len(v) == 0:
                return zero
            j = int(np.lexsort((i_, -v))[0])
            return (int(v[j]), int(i_[j]))

        def combine(self, cur, new):
            a = zero if cur is None else cur
            b = zero if new is None else new
            return min(a, b, key=lambda t: (-t[0], t[1]))

        def finalize(self, acc):
            acc = zero if acc is None else acc
            return int(acc[0]) if out_col.endswith("_val") else int(acc[1])

    return _Agg()


def collapse_top_docs(sf_dir: str, k: int = 10) -> pa.Table:
    """Solr CollapsingQParserPlugin role (solr/core/.../search/
    CollapsingQParserPlugin.java:120-168: collapse the result set to ONE
    head doc per collapse key — highest sort value, tie smallest docID —
    then rank the collapsed heads): collapse documents on ``source``
    keeping the doc with max n_chars (tie min doc_id), return the top-k
    heads by (n_chars desc, doc_id asc). One hash shuffle on the collapse
    key; the per-group reduce is a vectorized arg-max aggregate (never
    per-key pandas); the final sort is over #distinct-keys rows only."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])
    agg = ds.groupby("source").aggregate(
        _argmax_agg("_head_val", "n_chars", "doc_id"),
        _argmax_agg("_head_id", "n_chars", "doc_id"),
    )
    heads = agg.to_pandas()  # one row per collapse key — small by contract
    heads = heads.sort_values(
        ["_head_val", "_head_id"], ascending=[False, True]
    ).head(k)
    return pa.table(
        {
            "rank": pa.array(np.arange(len(heads)), type=pa.int64()),
            "source": pa.array(heads["source"].tolist(), type=pa.string()),
            "doc_id": pa.array(heads["_head_id"].to_numpy(), type=pa.int64()),
            "n_chars": pa.array(heads["_head_val"].to_numpy(), type=pa.int64()),
        }
    )


def _per_key_top_m(tbl: pa.Table, key: str, val: str, id_col: str, m: int) -> pa.Table:
    """Keep the top-m rows per key by (val desc, id asc) — one sort +
    run-length boundary scan, no per-key Python."""
    order = pc.sort_indices(
        tbl,
        sort_keys=[(key, "ascending"), (val, "descending"), (id_col, "ascending")],
    )
    t = tbl.take(order)
    ks = t.column(key).to_numpy(zero_copy_only=False)
    n = len(ks)
    if n == 0:
        return t
    starts = np.flatnonzero(np.r_[True, ks[1:] != ks[:-1]])
    lens = np.diff(np.r_[starts, n])
    within = np.arange(n) - np.repeat(starts, lens)
    return t.filter(pa.array(within < m))


def diversified_topk_docs(sf_dir: str, k: int = 10, max_per_key: int = 2) -> pa.Table:
    """DiversifiedTopDocsCollector (lucene/misc/.../search/
    DiversifiedTopDocsCollector.java:38-66): global top-k by score with at
    most ``max_per_key`` hits per key — a doc is admitted iff fewer than
    max_per_key higher-scored docs share its key, which equals filtering
    per-key rank <= max_per_key then taking the global top-k. Key =
    source, score = n_chars (tie smaller doc_id). Distributed shape:
    per-batch per-key top-m combiner (any doc in the true answer survives
    its batch's local top-m), tiny driver resolve over blocks x keys x m
    rows."""
    ds = _read(sf_dir, "documents", ["doc_id", "source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        return _per_key_top_m(batch, "source", "n_chars", "doc_id", max_per_key)

    cand = pa.Table.from_pandas(
        ds.map_batches(partial, batch_format="pyarrow", **_rargs()).to_pandas(),
        preserve_index=False,
    )
    cand = _per_key_top_m(cand, "source", "n_chars", "doc_id", max_per_key)
    order = pc.sort_indices(
        cand, sort_keys=[("n_chars", "descending"), ("doc_id", "ascending")]
    )[:k]
    top = cand.take(order)
    return pa.table(
        {
            "rank": pa.array(np.arange(top.num_rows), type=pa.int64()),
            "source": top.column("source"),
            "doc_id": pc.cast(top.column("doc_id"), pa.int64()),
            "n_chars": pc.cast(top.column("n_chars"), pa.int64()),
        }
    )

def _arg_head_agg(out_col: str, val_col: str, id_col: str, want: str):
    """Float-valued arg-max AggregateFnV2: per group (max val_col, tie min
    id_col); ``want`` = "val" | "arg". The grouping-module head-selection
    kernel (vectorized per block, never per-key pandas)."""
    from ray.data.aggregate import AggregateFnV2
    from ray.data.block import BlockAccessor

    zero = (float("-inf"), 1 << 62)

    class _Agg(AggregateFnV2):
        def __init__(self):
            super().__init__(
                out_col, zero_factory=lambda: zero, on=None, ignore_nulls=True
            )

        def aggregate_block(self, block):
            tbl = BlockAccessor.for_block(block).to_arrow()
            v = tbl.column(val_col).to_numpy(zero_copy_only=False).astype(np.float64)
            i_ = tbl.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
            if len(v) == 0:
                return zero
            j = int(np.lexsort((i_, -v))[0])
            return (float(v[j]), int(i_[j]))

        def combine(self, cur, new):
            a = zero if cur is None else cur
            b = zero if new is None else new
            return min(a, b, key=lambda t: (-t[0], t[1]))

        def finalize(self, acc):
            acc = zero if acc is None else acc
            return float(acc[0]) if want == "val" else int(acc[1])

    return _Agg()


def group_heads_orders(sf_dir: str):
    """AllGroupHeadsCollector + AllGroupsCollector analogue
    (lucene/grouping/AllGroupHeadsCollector.java:42-74 retained-head
    comparator; AllGroupsCollector.java:33 distinct-group set): ONE pass
    over orders selects, per o_custkey group, the head order under
    (o_totalprice desc, o_orderkey asc); the emitted row count IS the
    distinct-group count. Per-block vectorized arg-max partials combine
    associatively in the groupby — no per-key pandas, no driver
    materialization. The head price is a SELECTION (never a sum), so the
    double hashes bit-identically against the SQL window-function oracle."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    agg = ds.groupby("o_custkey").aggregate(
        _arg_head_agg("_head_price", "o_totalprice", "o_orderkey", "val"),
        _arg_head_agg("_head_key", "o_totalprice", "o_orderkey", "arg"),
    )

    def finish(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "o_custkey": b.column("o_custkey"),
                "o_orderkey": b.column("_head_key").cast(pa.int64()),
                "o_totalprice": b.column("_head_price"),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow", **_rargs())


def sessionize_events(ds, gap_s: int = 1800):
    """Sessionization — the classic event-stream wide op (Solr streaming
    expressions have no built-in; this is the `sessionize` every
    clickstream pipeline hand-rolls): a user's events split into
    sessions at inactivity gaps > ``gap_s`` seconds. One
    groupby(user_id) shuffle; per-group work is a vectorized sort +
    diff (no per-event Python). All-integer output, so the SQL window
    replay (lag + gap flags + cumulative session ids) is exact; with
    duplicate timestamps the gap flags are tie-order-independent (ties
    diff to 0, flags fire only on strict increases).

    Returns (user_id, n_sessions, n_events, max_session_events)."""
    gap_us = int(gap_s) * 1_000_000

    def per_user(g: pa.Table) -> pa.Table:
        # normalize the unit first: epoch MICROseconds whatever the input
        # precision (parquet is [us]; from_items can produce [s])
        ts = np.sort(
            g.column("ts").cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
        )
        gaps = np.flatnonzero(np.diff(ts) > gap_us)
        bounds = np.concatenate([[0], gaps + 1, [len(ts)]])
        runs = np.diff(bounds)
        return pa.table(
            {
                "user_id": pa.array(
                    [int(g.column("user_id")[0].as_py())], type=pa.int64()
                ),
                "n_sessions": pa.array([len(runs)], type=pa.int64()),
                "n_events": pa.array([len(ts)], type=pa.int64()),
                "max_session_events": pa.array(
                    [int(runs.max()) if len(runs) else 0], type=pa.int64()
                ),
            }
        )

    return ds.groupby("user_id").map_groups(
        per_user, batch_format="pyarrow", **_rargs()
    )


def asof_join_events(ds, left_type: str = "purchase", right_type: str = "click"):
    """AS-OF JOIN — for each ``left_type`` event, the same user's most
    recent STRICTLY-PRIOR ``right_type`` event (the classic
    trade-to-quote as-of join, kdb/duckdb ASOF semantics; the brief's
    named custom-operator class). Inner: lefts with no prior right are
    dropped.

    Partitioning assumption (documented, the as-of join contract): both
    sides shuffle ONCE by the equality key (user_id); within a group the
    right side sorts by (ts, event_id) and each left probes it with one
    vectorized searchsorted — O((L+R) log R) per group, no per-row
    Python. Ties: same-ts rights are ordered by event_id, so the match
    is the lexicographically-last (ts, event_id) among ts < left.ts —
    the deterministic rule the SQL window replays. All-integer output
    (ids + microsecond gap)."""

    def per_user(g: pa.Table) -> pa.Table:
        et = np.asarray(g.column("event_type").to_pylist())
        ts = g.column("ts").cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
        eid = g.column("event_id").to_numpy()
        lm = et == left_type
        rm = et == right_type
        empty = pa.table(
            {
                "event_id": pa.array([], type=pa.int64()),
                "prior_event_id": pa.array([], type=pa.int64()),
                "gap_us": pa.array([], type=pa.int64()),
            }
        )
        if not lm.any() or not rm.any():
            return empty
        rts, rid = ts[rm], eid[rm]
        order = np.lexsort((rid, rts))
        rts, rid = rts[order], rid[order]
        lts, lid = ts[lm], eid[lm]
        idx = np.searchsorted(rts, lts, side="left") - 1
        hit = idx >= 0
        if not hit.any():
            return empty
        return pa.table(
            {
                "event_id": pa.array(lid[hit], type=pa.int64()),
                "prior_event_id": pa.array(rid[idx[hit]], type=pa.int64()),
                "gap_us": pa.array(lts[hit] - rts[idx[hit]], type=pa.int64()),
            }
        )

    return ds.groupby("user_id").map_groups(
        per_user, batch_format="pyarrow", **_rargs()
    )


VALUE_BANDS = [(k * 25, (k + 1) * 25) for k in range(7)] + [(175, None)]


def range_join_value_bands(ds):
    """RANGE JOIN (broadcast-interval form — the brief's named class):
    each event joins the band whose [lo, hi) interval contains its
    value; the band table is the SMALL side, shipped in the task
    closure (ray.put-once semantics at scale), probed with one
    vectorized np.searchsorted per batch — never a shuffle. Integer
    band boundaries make the containment compare exact on the double
    column. Returns (event_id, band_id, lo)."""
    los = np.array([b[0] for b in VALUE_BANDS], dtype=np.float64)

    def probe(batch: pa.Table) -> pa.Table:
        v = batch.column("value").to_numpy()
        band = np.searchsorted(los, v, side="right") - 1
        band = np.clip(band, 0, len(los) - 1)  # values below band 0 clamp
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "band_id": pa.array(band.astype(np.int64)),
                "lo": pa.array(los[band].astype(np.int64)),
            }
        )

    return ds.map_batches(probe, batch_format="pyarrow", **_rargs())


def sliding_window_counts(ds, window_days: int = 3):
    """Sliding-WINDOWED AGGREGATE (the brief's named class): per
    event_type daily counts, then a ``window_days``-day moving sum over
    the ROW-wise trailing window (ROWS window_days-1 PRECEDING — the
    SQL window replayed exactly; all integers). Two shuffles: the
    distributed (event_type, day) count (one row per (type, day) per
    batch after the map-side combine), then a groupby(event_type)
    whose per-group work is one vectorized cumsum over the bounded
    day series (days span the date range, not the corpus)."""
    from ray.data.aggregate import Sum

    def partial(batch: pa.Table) -> pa.Table:
        days = (
            batch.column("ts").cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
            // np.int64(86_400_000_000)
        )
        et = np.asarray(batch.column("event_type").to_pylist())
        key = np.char.add(np.char.add(et, "\x01"), days.astype("U"))
        uniq, inv = np.unique(key, return_inverse=True)
        n = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        types, ds_ = zip(*(k.split("\x01") for k in uniq.tolist()))
        return pa.table(
            {
                "event_type": pa.array(types, type=pa.string()),
                "day": pa.array([int(d) for d in ds_], type=pa.int64()),
                "n": pa.array(n),
            }
        )

    daily = (
        ds.map_batches(partial, batch_format="pyarrow", **_rargs())
        .groupby(["event_type", "day"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def window(g: pa.Table) -> pa.Table:
        order = np.argsort(g.column("day").to_numpy(), kind="stable")
        g = g.take(pa.array(order))
        n = g.column("n").to_numpy().astype(np.int64)
        cs = np.concatenate([[0], np.cumsum(n)])
        w = window_days
        mov = cs[1:] - cs[np.maximum(np.arange(len(n)) + 1 - w, 0)]
        return pa.table(
            {
                "event_type": g.column("event_type"),
                "day": g.column("day"),
                "n": pa.array(n),
                "moving_n": pa.array(mov.astype(np.int64)),
            }
        )

    return daily.groupby("event_type").map_groups(
        window, batch_format="pyarrow", **_rargs()
    )


def burst_windows(ds, window_hours: int = 6):
    """Burst detection — each event type's PEAK tumbling window (the
    max-rate window of Kleinberg-style burst monitoring, reduced to its
    integer core): count events per (type, window_hours tumbling
    window), keep each type's max-count window, ties -> earliest
    window. Two shuffles: the map-side-combined (type, window) count,
    then a per-type argmax over the bounded window series. All-integer
    output (window ids in units of ``window_hours`` since epoch)."""
    from ray.data.aggregate import Sum

    wus = np.int64(window_hours) * np.int64(3_600_000_000)

    def partial(batch: pa.Table) -> pa.Table:
        win = (
            batch.column("ts").cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
            // wus
        )
        et = np.asarray(batch.column("event_type").to_pylist())
        key = np.char.add(np.char.add(et, "\x01"), win.astype("U"))
        uniq, inv = np.unique(key, return_inverse=True)
        n = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        types, wins = zip(*(k.split("\x01") for k in uniq.tolist()))
        return pa.table(
            {
                "event_type": pa.array(types, type=pa.string()),
                "win": pa.array([int(w) for w in wins], type=pa.int64()),
                "n": pa.array(n),
            }
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow", **_rargs())
        .groupby(["event_type", "win"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def argmax(g: pa.Table) -> pa.Table:
        n = g.column("n").to_numpy().astype(np.int64)
        w = g.column("win").to_numpy()
        i = int(np.lexsort((w, -n))[0])  # max n, earliest window on ties
        return pa.table(
            {
                "event_type": pa.array([g.column("event_type")[0].as_py()]),
                "peak_win": pa.array([int(w[i])], type=pa.int64()),
                "peak_n": pa.array([int(n[i])], type=pa.int64()),
            }
        )

    return counts.groupby("event_type").map_groups(
        argmax, batch_format="pyarrow", **_rargs()
    )


def zscore_outliers(ds, sigma: float = 3.0):
    """Per-type statistical outlier detection — events whose value
    exceeds mean + sigma*std of their event_type (the anomaly-flagging
    pass of metric pipelines). Exactness discipline: per-type sum and
    sum-of-squares are ORDERED left folds over event_id order (np.cumsum
    == SQL's 0.0-seeded list_reduce, the PageRank fold rule), and the
    threshold is a fixed single-op chain — mean = s/n, var =
    (sq - (s*s)/n)/n clamped at 0.0 (selection), std = sqrt, thr =
    mean + sigma*std — every step one correctly-rounded f64 op, so the
    flagged set replays bit-for-bit. One groupby(event_type) shuffle;
    outliers only leave the group task."""
    sg = float(sigma)

    def per_type(g: pa.Table) -> pa.Table:
        order = np.argsort(g.column("event_id").to_numpy(), kind="stable")
        g = g.take(pa.array(order))
        v = g.column("value").to_numpy().astype(np.float64)
        n = np.float64(len(v))
        s = np.cumsum(v)[-1] if len(v) else np.float64(0.0)
        sq = np.cumsum(v * v)[-1] if len(v) else np.float64(0.0)
        mean = s / n
        var = (sq - ((s * s) / n)) / n
        var = max(var, np.float64(0.0))
        thr = mean + sg * np.sqrt(var)
        keep = v > thr
        return pa.table(
            {
                "event_id": g.column("event_id").filter(pa.array(keep)),
                "event_type": g.column("event_type").filter(pa.array(keep)),
                "value": g.column("value").filter(pa.array(keep)),
            }
        )

    return ds.groupby("event_type").map_groups(
        per_type, batch_format="pyarrow", **_rargs()
    )


def funnel_steps(ds, steps=("view", "click", "purchase"), window_s: int = 3600):
    """Funnel analysis — the ordered-sequence clickstream op every web
    analytics stack hand-rolls (first-touch semantics): a user converts
    to step k+1 iff an event of that type occurs STRICTLY after their
    step-k conversion time and within ``window_s`` seconds of it; the
    conversion time is the EARLIEST such event. Returns
    (step, event_type, n_users) for steps with at least one converter
    (1-based step index; absent steps have zero users on both sides).

    Shape: ONE groupby(user_id) shuffle of the pruned (user, type, ts)
    stream; the per-user fold is len(steps) vectorized mask+min passes
    (no per-event Python). All-integer microsecond comparisons, so the
    SQL replay (chained min-over-window CTEs) is exact."""
    step_list = list(steps)
    w_us = int(window_s) * 1_000_000
    step_set = set(step_list)

    def _prune(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(
            batch.column("event_type"),
            value_set=pa.array(step_list, type=pa.string()),
        )
        b = batch.filter(mask)
        return pa.table(
            {
                "user_id": b.column("user_id").cast(pa.int64()),
                "event_type": b.column("event_type"),
                # normalize the unit: epoch MICROseconds whatever the
                # input precision (parquet [us]; from_items can be [s])
                "ts_us": b.column("ts")
                .cast(pa.timestamp("us"))
                .cast(pa.int64()),
            }
        )

    def _per_user(g: pa.Table) -> pa.Table:
        et = np.asarray(g.column("event_type").to_pylist())
        ts = g.column("ts_us").to_numpy()
        reached = 0
        t_prev = None
        for k, s in enumerate(step_list):
            if k == 0:
                cand = ts[et == s]
            else:
                cand = ts[(et == s) & (ts > t_prev) & (ts <= t_prev + w_us)]
            if len(cand) == 0:
                break
            t_prev = int(cand.min())
            reached = k + 1
        return pa.table(
            {
                "step": pa.array(
                    np.arange(1, reached + 1, dtype=np.int64)
                )
            }
        )

    from ray.data.aggregate import Count

    counts = (
        ds.map_batches(_prune, batch_format="pyarrow", **_rargs())
        .groupby("user_id")
        .map_groups(_per_user, batch_format="pyarrow", **_rargs())
        .groupby("step")
        .aggregate(Count(alias_name="n_users"))
    )

    def _finish(batch: pa.Table) -> pa.Table:
        st = batch.column("step").to_numpy()
        return pa.table(
            {
                "step": pa.array(st, type=pa.int64()),
                "event_type": pa.array(
                    [step_list[int(s) - 1] for s in st], type=pa.string()
                ),
                "n_users": batch.column("n_users").cast(pa.int64()),
            }
        )

    return counts.map_batches(_finish, batch_format="pyarrow", **_rargs())


def cohort_retention(ds, week_us: int = 7 * 86400 * 1_000_000):
    """Cohort retention — the web-analytics retention matrix: a user's
    cohort is their first active week (epoch_us // week_us, a pure
    integer bucket — no calendar functions, so the replay is exact);
    cell (cohort_week, week_offset) counts DISTINCT users from that
    cohort active again ``week_offset`` weeks later (offset 0 = the
    cohort size). Returns (cohort_week, week_offset, n_users).

    Shape: in-batch (user, week) dedup, ONE groupby(user_id) shuffle of
    the deduped pairs (bounded: at most one row per user-week), per-user
    offsets from the group minimum, one small groupby((cohort, offset))
    count. All integers."""

    def _weeks(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").cast(pa.int64()).to_numpy()
        w = (
            batch.column("ts").cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
            // week_us
        )
        # in-batch dedup so at most one (user, week) row per batch ships
        key = u * np.int64(1 << 20) + w  # weeks since 1970 < 2^20
        _, idx = np.unique(key, return_index=True)
        return pa.table(
            {
                "user_id": pa.array(u[idx], type=pa.int64()),
                "week": pa.array(w[idx], type=pa.int64()),
            }
        )

    def _per_user(g: pa.Table) -> pa.Table:
        w = np.unique(g.column("week").to_numpy())
        return pa.table(
            {
                "cohort_week": pa.array(
                    np.full(len(w), w[0], dtype=np.int64)
                ),
                "week_offset": pa.array(w - w[0], type=pa.int64()),
            }
        )

    from ray.data.aggregate import Count

    agg = (
        ds.map_batches(_weeks, batch_format="pyarrow", **_rargs())
        .groupby("user_id")
        .map_groups(_per_user, batch_format="pyarrow", **_rargs())
        .groupby(["cohort_week", "week_offset"])
        .aggregate(Count(alias_name="n_users"))
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "cohort_week": b.column("cohort_week").cast(pa.int64()),
                "week_offset": b.column("week_offset").cast(pa.int64()),
                "n_users": b.column("n_users").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
        **_rargs(),
    )


def block_join_children(
    sf_dir: str, min_price: float = 150000.0, priority: str = "1-URGENT"
):
    """ToChildBlockJoinQuery analogue (lucene/join/.../ToChildBlockJoinQuery.java:38-66
    — the INVERSE of ToParentBlockJoin: a parent-side query selects
    parents, the scorer walks each matching parent's child block and
    emits the children, each carrying the parent's score). Parents =
    orders matching (priority, totalprice >= min_price); children =
    their lineitems with parent_price = the parent's o_totalprice (a
    bit-identical double PASSTHROUGH — a selection, never arithmetic,
    so it hashes safely against the oracle).

    Shape: the matching-parent set is a broadcast (orderkey -> price)
    lookup (bounded by the parent filter's selectivity — the same
    contract as the JoinUtil semi-join); children stream through one
    map_batches with a vectorized searchsorted membership probe, no
    shuffle of the fact table."""
    import ray

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderpriority"]
    ).to_pandas()
    sel = orders[
        (orders["o_orderpriority"] == priority)
        & (orders["o_totalprice"] >= min_price)
    ]
    pk = np.sort(sel["o_orderkey"].to_numpy().astype(np.int64))
    order_idx = np.argsort(sel["o_orderkey"].to_numpy().astype(np.int64))
    pv = sel["o_totalprice"].to_numpy()[order_idx]
    ref = ray.put((pk, pv))

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber"])

    def emit(batch: pa.Table) -> pa.Table:
        keys, prices = ray.get(ref)
        ok = batch.column("l_orderkey").to_numpy().astype(np.int64)
        if len(keys) == 0:
            return pa.table(
                {
                    "l_orderkey": pa.array([], type=pa.int64()),
                    "l_linenumber": pa.array([], type=pa.int64()),
                    "parent_price": pa.array([], type=pa.float64()),
                }
            )
        pos = np.searchsorted(keys, ok)
        pos_c = np.minimum(pos, len(keys) - 1)
        mask = keys[pos_c] == ok
        return pa.table(
            {
                "l_orderkey": pa.array(ok[mask], type=pa.int64()),
                "l_linenumber": pa.array(
                    batch.column("l_linenumber").to_numpy().astype(np.int64)[
                        mask
                    ],
                    type=pa.int64(),
                ),
                "parent_price": pa.array(prices[pos_c[mask]], type=pa.float64()),
            }
        )

    return li.map_batches(emit, batch_format="pyarrow", **_rargs())


def trend_slopes(ds):
    """Per-type activity trend — ordinary-least-squares slope over the
    (day, daily_count) series, kept ENTIRELY in integers: slope =
    (n*Σxy − Σx*Σy) / (n*Σxx − Σx²); numerator and denominator are
    returned unreduced so the whole entry is integer-exact (the sign of
    slope_num IS the trend direction; regression runs over OBSERVED
    days only). x = epoch_us // 86400000000 — a pure integer bucket.
    Returns (event_type, n_days, slope_num, slope_den).

    Shape: map-side combined (type, day) partial counts, one
    groupby((type, day)) sum, then per-row moment expansion and one
    tiny groupby(type) of native Sums — nothing on the driver."""
    from ray.data.aggregate import Count, Sum

    day_us = 86400000000

    def _days(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type")
        if batch.num_rows == 0:
            return pa.table(
                {
                    "event_type": pa.array([], type=pa.string()),
                    "x": pa.array([], type=pa.int64()),
                    "y": pa.array([], type=pa.int64()),
                }
            )
        x = (
            batch.column("ts").cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
            // day_us
        )
        key = np.char.add(
            np.char.add(np.asarray(et.to_pylist()), "\x01"),
            x.astype("U20"),
        )
        uniq, idx, inv = np.unique(key, return_index=True, return_inverse=True)
        cnt = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "event_type": pa.array(
                    [et[int(i)].as_py() for i in idx], type=pa.string()
                ),
                "x": pa.array(x[idx], type=pa.int64()),
                "y": pa.array(cnt, type=pa.int64()),
            }
        )

    daily = (
        ds.map_batches(_days, batch_format="pyarrow", **_rargs())
        .groupby(["event_type", "x"])
        .aggregate(Sum("y", alias_name="y"))
    )

    def _moments(batch: pa.Table) -> pa.Table:
        x = batch.column("x").to_numpy().astype(np.int64)
        y = batch.column("y").to_numpy().astype(np.int64)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "sx": pa.array(x, type=pa.int64()),
                "sy": pa.array(y, type=pa.int64()),
                "sxy": pa.array(x * y, type=pa.int64()),
                "sxx": pa.array(x * x, type=pa.int64()),
            }
        )

    agg = (
        daily.map_batches(_moments, batch_format="pyarrow", **_rargs())
        .groupby("event_type")
        .aggregate(
            Count(alias_name="n_days"),
            Sum("sx", alias_name="sx"),
            Sum("sy", alias_name="sy"),
            Sum("sxy", alias_name="sxy"),
            Sum("sxx", alias_name="sxx"),
        )
    )

    def _finish(batch: pa.Table) -> pa.Table:
        n = batch.column("n_days").to_numpy().astype(np.int64)
        sx = batch.column("sx").to_numpy().astype(np.int64)
        sy = batch.column("sy").to_numpy().astype(np.int64)
        sxy = batch.column("sxy").to_numpy().astype(np.int64)
        sxx = batch.column("sxx").to_numpy().astype(np.int64)
        return pa.table(
            {
                "event_type": batch.column("event_type"),
                "n_days": pa.array(n, type=pa.int64()),
                "slope_num": pa.array(n * sxy - sx * sy, type=pa.int64()),
                "slope_den": pa.array(n * sxx - sx * sx, type=pa.int64()),
            }
        )

    return agg.map_batches(_finish, batch_format="pyarrow", **_rargs())


def event_transitions(ds):
    """First-order Markov transition counts over each user's event
    stream (the clickstream path-analysis primitive: which step follows
    which). Ordering inside a user is (ts, event_id) — the event_id
    tiebreak makes equal-timestamp streams deterministic on both sides.
    Returns (from_type, to_type, n) integer counts.

    Shape: ONE groupby(user_id) shuffle; per-user work is a vectorized
    sort + shifted zip with an in-group Counter combine, so only the
    distinct transition pairs leave the group."""
    from collections import Counter

    from ray.data.aggregate import Sum

    def _prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id").cast(pa.int64()),
                "event_id": batch.column("event_id").cast(pa.int64()),
                "event_type": batch.column("event_type"),
                "ts_us": batch.column("ts")
                .cast(pa.timestamp("us"))
                .cast(pa.int64()),
            }
        )

    def _per_user(g: pa.Table) -> pa.Table:
        ts = g.column("ts_us").to_numpy()
        eid = g.column("event_id").to_numpy()
        et = g.column("event_type").to_pylist()
        order = np.lexsort((eid, ts))
        seq = [et[int(i)] for i in order]
        c: Counter = Counter(zip(seq, seq[1:]))
        if not c:
            return pa.table(
                {
                    "from_type": pa.array([], type=pa.string()),
                    "to_type": pa.array([], type=pa.string()),
                    "n": pa.array([], type=pa.int64()),
                }
            )
        fr, to, n = zip(*((a, b, v) for (a, b), v in c.items()))
        return pa.table(
            {
                "from_type": pa.array(list(fr), type=pa.string()),
                "to_type": pa.array(list(to), type=pa.string()),
                "n": pa.array(list(n), type=pa.int64()),
            }
        )

    return (
        ds.map_batches(_prep, batch_format="pyarrow", **_rargs())
        .groupby("user_id")
        .map_groups(_per_user, batch_format="pyarrow", **_rargs())
        .groupby(["from_type", "to_type"])
        .aggregate(Sum("n", alias_name="n"))
        .map_batches(
            lambda b: b.set_column(
                b.schema.get_field_index("n"),
                "n",
                b.column("n").cast(pa.int64()),
            ),
            batch_format="pyarrow",
            **_rargs(),
        )
    )


def time_decayed_topk(ds, k: int = 20, gravity_base: float = 2.0):
    """Time-decayed popularity ranking — the Hacker-News/Reddit "gravity"
    formula score = votes / (age + 2)^1.5 over (event_type, day) buckets
    (votes = daily event count, age in days from the newest observed
    day). ^1.5 is computed as t * sqrt(t): sqrt is correctly rounded
    (IEEE) and the multiply/divide are single f64 ops on exact integer
    promotions, so the replay is bit-exact. Ties -> (event_type asc,
    day asc). Returns (rank, event_type, day_x, votes, score).

    Shape: map-side combined daily counts + one groupby sum (the only
    corpus-wide move), a Dataset max for the newest day, then scoring +
    partial top-k over the day-bounded bucket table."""
    from ray.data.aggregate import Sum

    day_us = 86400000000

    def _days(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return pa.table(
                {
                    "event_type": pa.array([], type=pa.string()),
                    "x": pa.array([], type=pa.int64()),
                    "y": pa.array([], type=pa.int64()),
                }
            )
        et = batch.column("event_type")
        x = (
            batch.column("ts").cast(pa.timestamp("us")).cast(pa.int64()).to_numpy()
            // day_us
        )
        key = np.char.add(
            np.char.add(np.asarray(et.to_pylist()), "\x01"), x.astype("U20")
        )
        uniq, idx, inv = np.unique(key, return_index=True, return_inverse=True)
        cnt = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        return pa.table(
            {
                "event_type": pa.array(
                    [et[int(i)].as_py() for i in idx], type=pa.string()
                ),
                "x": pa.array(x[idx], type=pa.int64()),
                "y": pa.array(cnt, type=pa.int64()),
            }
        )

    daily = (
        ds.map_batches(_days, batch_format="pyarrow", **_rargs())
        .groupby(["event_type", "x"])
        .aggregate(Sum("y", alias_name="y"))
        .materialize()  # consumed twice: max(x) + scoring
    )
    max_day = int(daily.max("x"))

    def _score(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").to_pylist()
        x = batch.column("x").to_numpy().astype(np.int64)
        y = batch.column("y").to_numpy().astype(np.int64)
        rows = []
        for e, xi, yi in zip(et, x.tolist(), y.tolist()):
            t = float(max_day - xi) + gravity_base  # exact int->f64 + add
            denom = t * np.sqrt(t)  # correctly-rounded sqrt, one multiply
            rows.append((e, xi, yi, float(yi) / denom))
        rows.sort(key=lambda r: (-r[3], r[0], r[1]))
        rows = rows[:k]
        return pa.table(
            {
                "event_type": pa.array([r[0] for r in rows], type=pa.string()),
                "day_x": pa.array([r[1] for r in rows], type=pa.int64()),
                "votes": pa.array([r[2] for r in rows], type=pa.int64()),
                "score": pa.array([r[3] for r in rows], type=pa.float64()),
            }
        )

    cand = daily.map_batches(
        _score, batch_format="pyarrow", **_rargs()
    ).take_all()  # <= k per block: bounded
    cand.sort(key=lambda r: (-r["score"], r["event_type"], r["day_x"]))
    cand = cand[:k]
    return pa.table(
        {
            "rank": pa.array(np.arange(len(cand)), type=pa.int64()),
            "event_type": pa.array(
                [r["event_type"] for r in cand], type=pa.string()
            ),
            "day_x": pa.array([r["day_x"] for r in cand], type=pa.int64()),
            "votes": pa.array([r["votes"] for r in cand], type=pa.int64()),
            "score": pa.array([r["score"] for r in cand], type=pa.float64()),
        }
    )


def ab_chi_square(ds):
    """A/B experiment analysis — 2x2 chi-square test of conversion by
    variant (variant = user_id % 2, converted = the user has >= 1
    'purchase' event): chi2 = N*(ad - bc)^2 / ((a+b)(c+d)(a+c)(b+d)).
    Numerator and denominator are exact PYTHON ints in the bounded
    4-cell finish (no intermediate overflow); the reported chi2 is ONE
    f64 division of their float promotions (round-to-nearest on both
    sides — DuckDB CAST(HUGEINT AS DOUBLE) rounds identically). Returns
    one row (n_a, conv_a, n_b, conv_b, chi2).

    Shape: one groupby(user) for the per-user conversion flag, one
    4-row groupby((variant, converted)) count; only 4 cells reach the
    driver."""
    from ray.data.aggregate import Count

    def _prep(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id").cast(pa.int64()),
                "event_type": batch.column("event_type"),
            }
        )

    def _per_user(g: pa.Table) -> pa.Table:
        uid = int(g.column("user_id")[0].as_py())
        ets = g.column("event_type").to_pylist()
        return pa.table(
            {
                "variant": pa.array([uid % 2], type=pa.int64()),
                "converted": pa.array(
                    [1 if "purchase" in ets else 0], type=pa.int64()
                ),
            }
        )

    cells = {
        (int(r["variant"]), int(r["converted"])): int(r["c"])
        for r in (
            ds.map_batches(_prep, batch_format="pyarrow", **_rargs())
            .groupby("user_id")
            .map_groups(_per_user, batch_format="pyarrow", **_rargs())
            .groupby(["variant", "converted"])
            .aggregate(Count(alias_name="c"))
            .take_all()  # exactly <= 4 rows
        )
    }
    a = cells.get((0, 1), 0)  # variant A converted
    b = cells.get((0, 0), 0)
    c = cells.get((1, 1), 0)
    d = cells.get((1, 0), 0)
    n = a + b + c + d
    den = (a + b) * (c + d) * (a + c) * (b + d)
    num = n * (a * d - b * c) ** 2
    chi2 = float(num) / float(den) if den else 0.0
    return pa.table(
        {
            "n_a": pa.array([a + b], type=pa.int64()),
            "conv_a": pa.array([a], type=pa.int64()),
            "n_b": pa.array([c + d], type=pa.int64()),
            "conv_b": pa.array([c], type=pa.int64()),
            "chi2": pa.array([chi2], type=pa.float64()),
        }
    )


def value_quantiles_by_type(ds, qs: tuple = (0.5, 0.9, 0.99)):
    """Grouped exact percentiles — the per-key SLO/quality report (p50 /
    p90 / p99 of the value column per event type), type-1 (discrete)
    quantiles: the ceil(q*n)-th smallest value. A quantile is an ORDER
    STATISTIC — a selection of an existing double, never arithmetic —
    so the entry hash-compares exactly; the index uses the same single
    f64 multiply + ceil on both sides. Returns (event_type, pct,
    value) with pct labels p50/p90/p99.

    Shape: ONE groupby(event_type) whose per-group work is a vectorized
    sort + integer index picks. (At web scale a per-key histogram /
    two-phase pass replaces the in-group sort — the doclen_quantiles
    entry shows that shape; groups here are type-bounded.)"""
    import math

    labels = ["p" + str(int(q * 100)) for q in qs]

    def _per_type(g: pa.Table) -> pa.Table:
        et = g.column("event_type")[0].as_py()
        v = np.sort(g.column("value").to_numpy())
        n = len(v)
        vals = []
        for q in qs:
            idx = math.ceil(q * n)  # 1-based, same f64 product as SQL
            vals.append(float(v[max(idx - 1, 0)]))
        return pa.table(
            {
                "event_type": pa.array([et] * len(qs), type=pa.string()),
                "pct": pa.array(labels, type=pa.string()),
                "value": pa.array(vals, type=pa.float64()),
            }
        )

    return ds.groupby("event_type").map_groups(
        _per_type, batch_format="pyarrow", **_rargs()
    )


def data_profile_orders(sf_dir: str):
    """Data-quality profiling — the Deequ/Great-Expectations role every
    production pipeline runs before trusting an input snapshot:
    per-column completeness and cardinality. Profiles the orders
    table's key/status/priority columns as (column, n_rows, n_nulls,
    n_distinct) — all integers.

    Shape: ONE pass emits in-batch-deduped (column, value-hash) pairs
    plus map-side-combined null/row partials; cardinality resolves with
    one groupby((column, h)) + a column-bounded count, so the shuffle
    carries at most one row per distinct value per batch (never the
    table). Values hash through md5 of a type-stable rendering (ints as
    decimal strings) — bit-identical in DuckDB."""
    import hashlib

    from ray.data.aggregate import Count, Sum

    cols = ["o_orderkey", "o_custkey", "o_orderstatus", "o_orderpriority"]
    ds = _read(sf_dir, "orders", cols)

    def _pairs(batch: pa.Table) -> pa.Table:
        c_out: list[str] = []
        h_out: list[str] = []
        for c in cols:
            vals = batch.column(c).to_pylist()
            seen = set()
            for v in vals:
                if v is None:
                    continue
                s = str(v)
                if s not in seen:
                    seen.add(s)
                    c_out.append(c)
                    h_out.append(hashlib.md5(s.encode()).hexdigest())
        return pa.table(
            {
                "col": pa.array(c_out, type=pa.string()),
                "h": pa.array(h_out, type=pa.string()),
            }
        )

    distinct = (
        ds.map_batches(_pairs, batch_format="pyarrow", **_rargs())
        .groupby(["col", "h"])
        .aggregate(Count(alias_name="c"))
        .groupby("col")
        .aggregate(Count(alias_name="n_distinct"))
    )

    def _null_partial(batch: pa.Table) -> pa.Table:
        rows = []
        for c in cols:
            a = batch.column(c)
            rows.append((c, batch.num_rows, a.null_count))
        return pa.table(
            {
                "col": pa.array([r[0] for r in rows], type=pa.string()),
                "n_rows": pa.array([r[1] for r in rows], type=pa.int64()),
                "n_nulls": pa.array([r[2] for r in rows], type=pa.int64()),
            }
        )

    base = (
        ds.map_batches(_null_partial, batch_format="pyarrow", **_rargs())
        .groupby("col")
        .aggregate(
            Sum("n_rows", alias_name="n_rows"),
            Sum("n_nulls", alias_name="n_nulls"),
        )
    )
    nd = {r["col"]: int(r["n_distinct"]) for r in distinct.take_all()}

    def _finish(batch: pa.Table) -> pa.Table:
        cs = batch.column("col").to_pylist()
        return pa.table(
            {
                "column_name": pa.array(cs, type=pa.string()),
                "n_rows": pa.array(
                    batch.column("n_rows").to_numpy().astype(np.int64)
                ),
                "n_nulls": pa.array(
                    batch.column("n_nulls").to_numpy().astype(np.int64)
                ),
                "n_distinct": pa.array(
                    [nd.get(c, 0) for c in cs], type=pa.int64()
                ),
            }
        )

    return base.map_batches(_finish, batch_format="pyarrow", **_rargs())


def consistent_hash_rebalance(
    ds, n_before: int = 4, n_after: int = 5, vnodes: int = 16
):
    """Consistent-hashing shard rebalance report (Karger et al. 1997 —
    the ring assignment a fixed-size cluster uses so that adding a
    shard moves only ~1/n of the keys, the property this entry
    measures). Ring positions = fnv1a("shard{s}:{v}") per virtual node;
    a doc routes to the first ring position >= fnv1a_u64(doc_id)
    (wrapping to the minimum). Returns per AFTER-shard
    (shard, n_docs_before, n_docs_after, n_moved_in) — all integers;
    n_docs_before counts the same shard id under the old ring (0 for
    the new shard).

    Shape: both rings are tiny broadcast arrays in the task closure;
    assignment is a vectorized searchsorted per batch; one
    shard-bounded groupby of map-side-combined counts."""
    from ray.data.aggregate import Sum

    from .textops import fnv1a, fnv1a_u64_vec

    def ring(n):
        pos, sid = [], []
        for s in range(n):
            for v in range(vnodes):
                pos.append(fnv1a(f"shard{s}:{v}"))
                sid.append(s)
        pos = np.array(pos, dtype=np.uint64)
        sid = np.array(sid, dtype=np.int64)
        order = np.argsort(pos)
        return pos[order], sid[order]

    pb, sb = ring(n_before)
    pa_, sa = ring(n_after)

    def assign(h, pos, sid):
        idx = np.searchsorted(pos, h)
        idx = np.where(idx == len(pos), 0, idx)  # wrap past the top
        return sid[idx]

    def _partial(batch: pa.Table) -> pa.Table:
        h = fnv1a_u64_vec(batch.column("doc_id").to_numpy())
        a_b = assign(h, pb, sb)
        a_a = assign(h, pa_, sa)
        rows = {}
        for s in range(n_after):
            in_a = a_a == s
            rows[s] = (
                int((a_b == s).sum()),
                int(in_a.sum()),
                int((in_a & (a_b != s)).sum()),
            )
        return pa.table(
            {
                "shard": pa.array(sorted(rows), type=pa.int64()),
                "n_docs_before": pa.array(
                    [rows[s][0] for s in sorted(rows)], type=pa.int64()
                ),
                "n_docs_after": pa.array(
                    [rows[s][1] for s in sorted(rows)], type=pa.int64()
                ),
                "n_moved_in": pa.array(
                    [rows[s][2] for s in sorted(rows)], type=pa.int64()
                ),
            }
        )

    return (
        ds.select_columns(["doc_id"])
        .map_batches(_partial, batch_format="pyarrow", **_rargs())
        .groupby("shard")
        .aggregate(
            Sum("n_docs_before", alias_name="n_docs_before"),
            Sum("n_docs_after", alias_name="n_docs_after"),
            Sum("n_moved_in", alias_name="n_moved_in"),
        )
        .map_batches(
            lambda b: pa.table(
                {
                    "shard": b.column("shard").cast(pa.int64()),
                    "n_docs_before": b.column("n_docs_before").cast(pa.int64()),
                    "n_docs_after": b.column("n_docs_after").cast(pa.int64()),
                    "n_moved_in": b.column("n_moved_in").cast(pa.int64()),
                }
            ),
            batch_format="pyarrow",
            **_rargs(),
        )
    )


def skyline_orders(sf_dir: str):
    """Skyline / Pareto-front query (Börzsönyi, Kossmann & Stocker,
    ICDE 2001): the orders no other order dominates under (minimize
    o_totalprice, maximize o_orderdate) — "at least as cheap AND at
    least as recent, strictly better somewhere". Pure SELECTIONS (no
    arithmetic on the doubles/timestamps), so the entry hash-compares
    exactly; equal (price, date) twins are mutually non-dominated and
    all kept (the standard strict-dominance rule).

    Distributed shape: the skyline operator is DISTRIBUTIVE — the
    global skyline is a subset of the union of per-block local
    skylines — so each block reduces to its local front (vectorized
    sort + group-max sweep) and only those survivors reach the final
    front computation (skylines are tiny on real data: O(log^2 n)
    expected on independent dims). Returns (o_orderkey, o_totalprice,
    o_orderdate)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice", "o_orderdate"])

    def _local_front(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        return pa.Table.from_pandas(
            _front(df), preserve_index=False
        )

    def _front(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df
        d = df.copy()
        d["_d"] = d["o_orderdate"].astype("int64")
        # within an equal-price group only the max-date rows survive;
        # a group's max-date row survives iff strictly more recent than
        # the best date among strictly cheaper groups
        d = d.sort_values(["o_totalprice", "_d"], ascending=[True, False])
        gmax = d.groupby("o_totalprice")["_d"].transform("max")
        d = d[d["_d"] == gmax]
        # running best over CHEAPER groups = shifted cummax per group head
        heads = d.drop_duplicates("o_totalprice")
        prev_best = heads["_d"].cummax().shift(1)
        best_of_cheaper = dict(
            zip(heads["o_totalprice"], prev_best.fillna(-(2**62)))
        )
        keep = d["_d"] > d["o_totalprice"].map(best_of_cheaper)
        out = d[keep].drop(columns=["_d"])
        return out[["o_orderkey", "o_totalprice", "o_orderdate"]]

    local = ds.map_batches(
        _local_front, batch_format="pyarrow", **_rargs()
    ).to_pandas()  # union of local fronts: skyline-sized, bounded
    return pa.Table.from_pandas(
        _front(local).sort_values("o_orderkey").reset_index(drop=True),
        preserve_index=False,
    )
