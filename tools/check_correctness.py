"""Local stand-in for the driver's correctness gate: run every queries()
entry at a given sf_dir, compare against oracle_sql() via DuckDB
(row-count + schema + order-insensitive value comparison); a full run
then checks the entries' shared index with ``check_index_dir``.

Usage: python tools/check_correctness.py [sf_dir] [entry,entry,...]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    if isinstance(res, pd.DataFrame):
        return res
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res.to_pandas()  # ray Dataset


def normalize(df):
    df = df[sorted(df.columns)].copy()
    df = df.sort_values(by=list(df.columns)).reset_index(drop=True)
    return df


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    import duckdb
    import pandas as pd
    import ray

    ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    qs = entrymod.queries()
    oracles = entrymod.oracle_sql()

    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
        )

    only = sys.argv[2].split(",") if len(sys.argv) > 2 else None
    n_pass = n_fail = n_rowsonly = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            res = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL  {name}: query raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.perf_counter() - t0
        if name not in oracles:
            print(f"rows  {name}: {len(res)} rows, cols={list(res.columns)} ({dt:.1f}s)")
            n_rowsonly += 1
            continue
        try:
            exp = con.execute(oracles[name]).df()
        except Exception as e:
            print(f"FAIL  {name}: oracle SQL raised {e}")
            n_fail += 1
            continue
        a, b = normalize(res), normalize(exp)
        if list(a.columns) != list(b.columns):
            print(f"FAIL  {name}: columns {list(a.columns)} != {list(b.columns)}")
            n_fail += 1
            continue
        if len(a) != len(b):
            print(f"FAIL  {name}: rows {len(a)} != {len(b)}")
            n_fail += 1
            continue
        # Predict the driver's hash check: it formats every value (so int64 840 vs
        # float64 840.0 MISMATCH even though numerically equal) — compare the
        # formatted-value frames, never with dtype tolerance.
        fa, fb = a.astype(object).map(repr), b.astype(object).map(repr)
        if fa.equals(fb):
            print(f"PASS  {name}: {len(a)} rows ({dt:.1f}s)")
            n_pass += 1
        else:
            try:
                pd.testing.assert_frame_equal(a, b, check_dtype=False, rtol=1e-9)
                print(
                    f"FAIL  {name}: values equal within rtol but formatted-value "
                    f"(driver hash) mismatch — dtype/format drift ({dt:.1f}s)"
                )
            except AssertionError as e:
                print(f"FAIL  {name}: value mismatch: {str(e)[:300]}")
            n_fail += 1
    # on a full run, the entries' shared index: merged, swept (one copy of
    # the postings) and structurally sound
    from engine.checkindex import check_index_dir
    from engine.pipelines import get_index

    try:
        if only is None:
            check_index_dir(get_index(sf_dir)["index_dir"])
            print("PASS  index layout: check_index_dir")
    except AssertionError as e:
        print(f"FAIL  index layout: {e}")
        n_fail += 1
    print(f"\n{n_pass} exact-pass, {n_rowsonly} rows-only, {n_fail} fail")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
