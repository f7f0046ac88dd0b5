"""Per-term postings decode time by df band, on a merged index.

For every term with at least one full 128-posting block, times the
reader's decoder, ``codec.decode_term_postings_indexed(blob, df,
offsets)``, as ``PostingsReader.postings`` calls it on a cache miss, and
keeps each term's best of ``--best`` calls. Prints, per df band, the
number of terms and the median of those best times, then the sum over
every band. It only times the decoder; the rows are read before timing.

Usage: python tools/decode_bands.py <index_dir | merge manifest json> [--best N]

Run it from the root of the checkout whose ``engine`` it should time.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

BANDS = [(128, 256), (256, 512), (512, 1024), (1024, None)]


def load_manifest(path: str) -> dict | None:
    if os.path.isfile(path):
        with open(path) as f:
            return json.load(f)
    from engine.checkpoint import load_merge_manifest

    return load_merge_manifest(path)


def multi_block_rows(manifest: dict) -> list[tuple[int, object, object]]:
    """(df, blob, offsets) of every body term with df >= 128."""
    from engine.segment import TermShard, read_term_shard

    rows = []
    for s in manifest["shards"]:
        sh = TermShard(read_term_shard(s["path"]))
        for i in (sh.df >= BANDS[0][0]).nonzero()[0].tolist():
            ti = sh.info(i)
            rows.append((ti.df, ti.blob, ti.offsets))
    return rows


def best_times_us(rows, best: int) -> list[float]:
    import engine.codec as codec

    out = []
    clock = time.perf_counter_ns
    gc.disable()
    try:
        for df, blob, offsets in rows:
            t = []
            for _ in range(best):
                t0 = clock()
                codec.decode_term_postings_indexed(blob, df, offsets)
                t.append(clock() - t0)
            out.append(min(t) / 1000)
    finally:
        gc.enable()
    return out


def main(argv=None) -> int:
    import numpy as np

    ap = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    ap.add_argument("index", help="index dir holding merged/, or a merge manifest JSON file")
    ap.add_argument("--best", type=int, default=9, help="calls per term; the fastest counts")
    args = ap.parse_args(argv)
    manifest = load_manifest(args.index)
    if manifest is None:
        print(f"{args.index}: no merge manifest", file=sys.stderr)
        return 1
    rows = multi_block_rows(manifest)
    us = np.array(best_times_us(rows, args.best))
    df = np.array([r[0] for r in rows], dtype=np.int64)
    print(f"{'df band':<14}{'terms':>7}{'median us':>11}")
    for lo, hi in BANDS:
        sel = (df >= lo) & (df < hi if hi else True)
        band = f"[{lo}, {hi})" if hi else f">= {lo}"
        med = f"{np.median(us[sel]):.1f}" if sel.any() else "-"
        print(f"{band:<14}{int(sel.sum()):>7}{med:>11}")
    print(f"{'all':<14}{len(us):>7}   total {us.sum() / 1000:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
