"""CLI — the demo module role (demo/src/java/org/apache/lucene/demo/
IndexFiles.java:60-120 + SearchFiles.java:58-140): build an index from a
pages parquet directory, merge it, and run interactive/batch queries.

Owns its Ray session (the engine library never calls ray.init — this is
an ENTRY POINT like bench.py):

    python -m engine build  --pages /path/pages --index /tmp/idx
    python -m engine search --index /tmp/idx "data join" -k 10
    python -m engine check  --index /tmp/idx
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None):
    import ray

    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)
    return ray


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(prog="python -m engine")
    p.add_argument("--cpus", type=int, default=None)
    sub = p.add_subparsers(dest="cmd", required=True)

    b = sub.add_parser("build", help="build + merge an index from pages parquet")
    b.add_argument("--pages", required=True)
    b.add_argument("--index", required=True)
    b.add_argument("--partition-docs", type=int, default=4096)

    s = sub.add_parser("search", help="BM25 top-k over a merged index")
    s.add_argument("--index", required=True)
    s.add_argument("query")
    s.add_argument("-k", type=int, default=10)
    s.add_argument("--algorithm", default="auto", choices=["auto", "taat", "wand"])

    c = sub.add_parser("check", help="CheckIndex over a merged index")
    c.add_argument("--index", required=True)

    args = p.parse_args(argv)
    ray = _init_ray(args.cpus)
    try:
        if args.cmd == "build":
            from .build import build_index
            from .merge import merge_by_term

            manifest = build_index(
                args.pages,
                args.index,
                partition_docs=args.partition_docs,
                from_html=True,
            )
            mm = merge_by_term(manifest, args.index)
            print(
                json.dumps(
                    {
                        "doc_count": mm["doc_count"],
                        "sum_ttf": mm["sum_ttf"],
                        "n_terms": int(sum(sh["n_terms"] for sh in mm["shards"])),
                        "index": args.index,
                    }
                )
            )
        elif args.cmd == "search":
            from .checkpoint import load_merge_manifest
            from .search import IndexSearcher

            searcher = IndexSearcher(
                load_merge_manifest(args.index), algorithm=args.algorithm
            )
            docs, scores = searcher.search(args.query, args.k)
            for rank, (d, sc) in enumerate(zip(docs.tolist(), scores.tolist())):
                print(f"{rank}\t{d}\t{sc:.7g}")
        elif args.cmd == "check":
            from .checkindex import check_index_dir

            out = check_index_dir(args.index)
            print(json.dumps(out))
            return 0 if out.get("ok") else 1
    finally:
        ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
