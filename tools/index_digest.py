"""Byte-identity digest of a merged index: the sha256 of each merged term
shard in ``term_min`` order, of the norms file and of ``bloom.bin``, for
the body and for every extra field. File names are
write-once uuids, so each line names its file by what it holds: two
merges of the same partitions wrote the same bytes iff they print the
same lines (``diff`` the outputs).

Usage: python tools/index_digest.py <index_dir>
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


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


def main(argv: list[str]) -> int:
    from engine.checkpoint import load_merge_manifest

    if len(argv) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    manifest = load_merge_manifest(argv[1])
    if manifest is None:
        print(f"{argv[1]}: no merge manifest", file=sys.stderr)
        return 1
    print("\n".join(digest_lines(manifest)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
