"""Byte-identity digest of an index: two builds of the same corpus wrote
the same bytes iff they print the same lines (``diff`` the outputs).

- A merged index (one with a merge manifest) prints the sha256 of each
  merged term shard in ``term_min`` order, of the norms file and of
  ``bloom.bin``. File names are write-once uuids, so each line names its
  file by what it holds.
- An unmerged build (a build manifest and no merge manifest) prints the
  sha256 of each partition's ``terms.arrow`` and ``norms.u8`` in
  ``doc_base`` order. ``meta.json`` is left out: it records ``wall_ms``.

Either way the body comes first, then every extra field by name.

Usage: python tools/index_digest.py <index_dir>
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

PARTITION_FILES = ("terms.arrow", "norms.u8")


def sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digest_lines(manifest: dict, field: str = "body") -> list[str]:
    """One ``<sha256>  <what>`` line per file of a merge manifest, then
    the lines of its extra fields' manifests, by field name."""
    out = []
    for s in sorted(manifest["shards"], key=lambda s: s["term_min"]):
        kind = "heavy" if s["bucket"] < 0 else "light"
        out.append(
            f"{sha256(s['path'])}  {field} {kind} shard {s['term_min']!r}..{s['term_max']!r}"
            f" ({s['n_terms']} terms)"
        )
    n = manifest["norms"]
    out.append(f"{sha256(n['path'])}  {field} norms {n['doc_lo']}..{n['doc_hi']}")
    if manifest.get("bloom"):
        out.append(f"{sha256(manifest['bloom']['path'])}  {field} bloom.bin")
    for name, fm in sorted((manifest.get("fields") or {}).items()):
        out.extend(digest_lines(fm, name))
    return out


def partition_lines(manifest: dict, field: str = "body") -> list[str]:
    """One ``<sha256>  <what>`` line per partition file of a build
    manifest, partitions in ``doc_base`` order, then the lines of its
    extra fields' partitions, by field name."""
    out = []
    for p in sorted(manifest["partitions"], key=lambda p: p["doc_base"]):
        for name in PARTITION_FILES:
            path = os.path.join(p["seg_dir"], name)
            out.append(f"{sha256(path)}  {field} partition {p['doc_base']} {name}")
    for name, fm in sorted((manifest.get("fields") or {}).items()):
        out.extend(partition_lines(fm, name))
    return out


def main(argv: list[str]) -> int:
    from engine.checkpoint import load_manifest, load_merge_manifest

    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    merged = load_merge_manifest(argv[1])
    if merged is not None:
        print("\n".join(digest_lines(merged)))
        return 0
    build = load_manifest(argv[1])
    if build is None:
        print(f"{argv[1]}: neither a merge nor a build manifest", file=sys.stderr)
        return 1
    print("\n".join(partition_lines(build)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
