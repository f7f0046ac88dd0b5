"""Checkpoint / lineage manifests — the engine's two-phase commit.

Reference: IndexWriter.prepareCommit/commit write ``pending_segments_N``
then atomically rename to ``segments_N`` (index/IndexWriter.java:3307-3742,
index/SegmentInfos.java:473,781,834); crash ⇒ the last committed
generation wins and unreferenced files are GC'd.

Here: every pipeline stage (partition build, merge) writes its outputs
atomically (tmp+rename) and then commits a manifest JSON listing them
(also tmp+rename). Resume = reload the manifest if present, else redo only
the missing units: partition outputs are keyed by doc_base, and each
``merge_by_term`` bucket task leaves a done-marker under ``merged/units/``
that a rerun of the same plan adopts (the north rule's "resume
mid-merge"). A bucket's done-marker names its light shard and its heavy
run (its salted groups' merged postings, which the final heavy pass
joins and encodes once; a rerun reruns that pass). Once the merge
manifest commits, the merge sweeps its markers, its heavy runs and
every term file the manifest does not name (engine/merge.py).
"""

from __future__ import annotations

import json
import os
import uuid

MANIFEST_NAME = "manifest.json"


def atomic_write_json(path: str, obj: dict) -> None:
    tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
    with open(tmp, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=1)
    os.replace(tmp, path)


def load_manifest(index_dir: str) -> dict | None:
    p = os.path.join(index_dir, MANIFEST_NAME)
    if os.path.exists(p):
        with open(p) as f:
            return json.load(f)
    return None


def finalize_build_manifest(index_dir: str, rows: list[dict]) -> dict:
    """Commit the partition-build stage: order by doc_base, compute global
    stats (the collectionStatistics inputs: docCount, sumTotalTermFreq —
    IndexSearcher.java:803-815), validate disjoint doc ranges."""
    rows = sorted(rows, key=lambda r: r["doc_base"])
    prev_end = -1
    for r in rows:
        if r["doc_base"] <= prev_end:
            raise ValueError(
                f"overlapping partition doc ranges at doc_base={r['doc_base']}"
            )
        prev_end = r["doc_base"] + r["n_docs"] - 1
    # extra indexed fields ride along as <field>__seg_dir/__sum_ttf/__n_terms
    # columns on each row (index/FieldInfos.java role: per-field stats)
    extra_fields = sorted(
        {k.split("__", 1)[0] for k in (rows[0] if rows else {}) if "__" in k}
    )
    body_rows = [
        {k: v for k, v in r.items() if "__" not in k} for r in rows
    ]
    manifest = {
        "version": 1,
        "kind": "build",
        "partitions": body_rows,
        "doc_count": int(sum(r["n_docs"] for r in rows)),
        "sum_ttf": int(sum(r["sum_ttf"] for r in rows)),
    }
    if extra_fields:
        manifest["fields"] = {}
        for fld in extra_fields:
            frows = [
                {
                    "seg_dir": r[f"{fld}__seg_dir"],
                    "doc_base": r["doc_base"],
                    "n_docs": r["n_docs"],
                    "sum_ttf": r[f"{fld}__sum_ttf"],
                    "n_terms": r[f"{fld}__n_terms"],
                }
                for r in rows
            ]
            manifest["fields"][fld] = {
                "partitions": frows,
                "doc_count": manifest["doc_count"],
                "sum_ttf": int(sum(r["sum_ttf"] for r in frows)),
            }
    atomic_write_json(os.path.join(index_dir, MANIFEST_NAME), manifest)
    return manifest


def load_merge_manifest(index_dir: str) -> dict | None:
    p = os.path.join(index_dir, "merged", MANIFEST_NAME)
    if os.path.exists(p):
        with open(p) as f:
            return json.load(f)
    return None


def commit_merge_manifest(index_dir: str, manifest: dict) -> dict:
    os.makedirs(os.path.join(index_dir, "merged"), exist_ok=True)
    atomic_write_json(os.path.join(index_dir, "merged", MANIFEST_NAME), manifest)
    return manifest
