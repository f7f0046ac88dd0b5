"""Index invariant validation — the CheckIndex analogue
(index/CheckIndex.java:712-733: liveDocs, fieldInfos, norms, postings
order/counts/impacts, stats consistency).

``check_segment`` decodes every posting list and asserts the structural
invariants; ``check_index`` validates a whole manifest (disjoint doc
ranges, global stat sums). Tests run this after every build and merge.
"""

from __future__ import annotations

import os

import numpy as np

from .codec import BLOCK_SIZE, decode_term_postings
from .segment import Segment


def check_segment(seg: Segment | str) -> dict:
    if isinstance(seg, str):
        seg = Segment(seg)
    shard = seg.shard
    terms = shard.terms
    assert terms == sorted(terms), f"{seg.dir}: terms not sorted"
    assert len(set(terms)) == len(terms), f"{seg.dir}: duplicate terms"
    doc_lo = seg.doc_base
    doc_hi = seg.doc_base + seg.norm_span
    sum_ttf_check = 0
    for i, t in enumerate(terms):
        assert shard.find(t) == i, f"{t}: term map misses row {i}"
        row = shard.info(i)
        df, ttf = row.df, row.ttf
        if df == 1:
            assert row.singleton_doc >= 0, f"{t}: singleton_doc missing"
            assert not row.blob, f"{t}: singleton has blob"
            docs = np.array([row.singleton_doc])
            freqs = np.array([ttf])
        else:
            assert row.singleton_doc == -1, f"{t}: non-singleton pulsed"
            docs, freqs = decode_term_postings(row.blob, df)
        assert len(docs) == df, f"{t}: df {df} != len(postings) {len(docs)}"
        assert int(freqs.sum()) == ttf, f"{t}: ttf mismatch"
        assert (freqs >= 1).all(), f"{t}: zero freq"
        assert (np.diff(docs) > 0).all(), f"{t}: docs out of order"
        assert docs[0] >= doc_lo and docs[-1] < doc_hi, f"{t}: doc out of range"
        # skip arrays
        nfull = df // BLOCK_SIZE
        tail = df - nfull * BLOCK_SIZE
        nblocks = nfull + (1 if tail else 0)
        last = row.last_docs
        assert len(last) == nblocks, f"{t}: skip count"
        for b in range(nfull):
            assert last[b] == docs[(b + 1) * BLOCK_SIZE - 1], f"{t}: last_doc[{b}]"
        assert last[-1] == docs[-1], f"{t}: final last_doc"
        # impacts: per block, frontier must dominate every (freq, norm) pair
        imp_f, imp_n, imp_s = row.imp_freq, row.imp_norm, row.imp_start
        assert len(imp_s) == nblocks + 1, f"{t}: imp_start count"
        norms = seg.norm_of(docs)
        for b in range(nblocks):
            lo = b * BLOCK_SIZE
            hi = min(lo + BLOCK_SIZE, df)
            ff = imp_f[imp_s[b] : imp_s[b + 1]]
            nn = imp_n[imp_s[b] : imp_s[b + 1]]
            for f_i, n_i in zip(freqs[lo:hi], norms[lo:hi]):
                assert any(
                    (ff >= f_i) & (nn <= n_i)
                ), f"{t}: block {b} impact misses ({f_i},{n_i})"
        # prox stream (if indexed): totals + strictly ascending per posting
        if row.pos_blob:
            from .codec import decode_positions

            plists = decode_positions(row.pos_blob, freqs)
            assert len(plists) == df, f"{t}: positions posting count"
            for pl, f_i in zip(plists, freqs):
                assert len(pl) == f_i, f"{t}: positions != freq"
                assert (pl >= 0).all() and (np.diff(pl) > 0).all() if len(pl) > 1 else (pl >= 0).all(), (
                    f"{t}: positions not ascending"
                )
        # offset stream (if indexed): per-posting counts, ascending starts,
        # end > start (IndexOptions ..._AND_OFFSETS invariants; the .pay
        # stream consistency CheckIndex enforces via checkPostings)
        if row.off_blob:
            from .codec import decode_offsets

            s_lists, e_lists = decode_offsets(row.off_blob, freqs)
            assert len(s_lists) == df, f"{t}: offsets posting count"
            for sl, el, f_i in zip(s_lists, e_lists, freqs):
                assert len(sl) == f_i, f"{t}: offsets != freq"
                assert (sl >= 0).all(), f"{t}: negative start offset"
                assert (el > sl).all(), f"{t}: empty/inverted offset span"
                if len(sl) > 1:
                    assert (np.diff(sl) > 0).all(), f"{t}: starts not ascending"
        sum_ttf_check += ttf
    assert sum_ttf_check == seg.sum_ttf, (
        f"{seg.dir}: sum_ttf {seg.sum_ttf} != postings total {sum_ttf_check}"
    )
    return {"dir": seg.dir, "n_terms": len(terms), "n_docs": seg.n_docs, "ok": True}


def check_index(manifest: dict) -> dict:
    """Validate every segment of a build manifest + global stats."""
    results = []
    prev_end = -1
    for row in manifest["partitions"]:
        assert row["doc_base"] > prev_end, "overlapping partitions"
        prev_end = row["doc_base"] + row["n_docs"] - 1
        results.append(check_segment(row["seg_dir"]))
    assert manifest["doc_count"] == sum(r["n_docs"] for r in manifest["partitions"])
    assert manifest["sum_ttf"] == sum(r["sum_ttf"] for r in manifest["partitions"])
    return {"segments": results, "ok": True}


def check_merged_index(mi, owned_partitions: list[str] | None = None) -> dict:
    """CheckIndex over a merge-by-term output (engine/merge.MergedIndex):
    per-shard term order, df/ttf/postings consistency, doc-range bounds,
    norms coverage, global stat sums. It also proves the reader's
    single-shard lookup sound: light-shard term ranges are pairwise
    disjoint, and so are heavy-shard ones, and every term resolves through
    ``_shard_path_of`` to the file that holds it. ``dict_ranges()`` must be
    sorted, disjoint and cover exactly the shard term set. And it checks
    for dead bytes: ``terms/`` holds only files the manifest names, the
    merge's own ``heavy_runs/`` and ``units/`` are gone, and each dir of
    ``owned_partitions`` (the partitions the merge owns,
    ``merge.owned_partitions``) holds nothing but ``meta.json`` and
    ``docvalues.parquet``."""
    for d in owned_partitions or ():
        left = set(os.listdir(d)) - {"meta.json", "docvalues.parquet"}
        assert not left, f"{d}: {sorted(left)} left after commit"
    named = [r["path"] for r in mi.manifest["shards"]]
    if named:
        merged_dir = os.path.dirname(os.path.dirname(named[0]))
        for sub in ("heavy_runs", "units"):
            assert not os.path.exists(os.path.join(merged_dir, sub)), f"{sub}/ left after commit"
        names = {os.path.basename(p) for p in named}
        for f in os.listdir(os.path.join(merged_dir, "terms")):
            assert not f.endswith(".tmp"), f"terms/{f}: temporary file left"
            assert f in names, f"terms/{f}: not named by the manifest"
    for kind, ranges in (("light", mi._light_ranges), ("heavy", mi._heavy_ranges)):
        ranges = sorted(ranges)
        for (lo_a, hi_a, _), (lo_b, _, _) in zip(ranges, ranges[1:]):
            assert hi_a < lo_b, f"{kind} ranges overlap: {lo_a}..{hi_a} / {lo_b}"
    n_terms = 0
    sum_ttf = 0
    doc_lo, doc_hi = mi.doc_base, mi.doc_base + mi.norm_span
    seen: set[str] = set()
    for path, row in mi.iter_term_rows():
        t = row["term"]
        assert t not in seen, f"duplicate merged term {t}"
        seen.add(t)
        assert mi._shard_path_of(t) == path, f"{t}: lookup misses its shard {path}"
        df, ttf = row["df"], row["ttf"]
        if df == 1:
            docs = np.array([row["singleton_doc"]])
            freqs = np.array([ttf])
        else:
            docs, freqs = decode_term_postings(row["blob"], df)
        assert len(docs) == df, f"{t}: df mismatch"
        assert int(freqs.sum()) == ttf, f"{t}: ttf mismatch"
        assert (np.diff(docs) > 0).all(), f"{t}: docs out of order"
        assert docs[0] >= doc_lo and docs[-1] < doc_hi, f"{t}: doc out of range"
        if row.get("off_blob"):
            from .codec import decode_offsets

            s_lists, e_lists = decode_offsets(row["off_blob"], freqs)
            assert len(s_lists) == df, f"{t}: offsets posting count"
            for sl, el, f_i in zip(s_lists, e_lists, freqs):
                assert len(sl) == f_i and (el > sl).all(), f"{t}: offset span"
        if row.get("pay_blob"):
            from .codec import decode_payloads

            pay_lists = decode_payloads(row["pay_blob"], freqs)
            assert len(pay_lists) == df, f"{t}: payload posting count"
            for yl, f_i in zip(pay_lists, freqs):
                assert len(yl) == f_i, f"{t}: payload words != freq"
        n_terms += 1
        sum_ttf += ttf
    assert sum_ttf == mi.sum_ttf, f"sum_ttf {mi.sum_ttf} != postings total {sum_ttf}"

    # sorted dictionary (BlockTree .tim/.tip role): disjoint sorted ranges
    # that cover exactly the shard term set
    prev_max = None
    dict_terms: list[str] = []
    for tmin, tmax, load_terms in mi.dict_ranges():
        assert tmin <= tmax, f"dict range inverted: {tmin}..{tmax}"
        if prev_max is not None:
            assert prev_max < tmin, "dict ranges overlap"
        prev_max = tmax
        terms = load_terms()
        assert terms == sorted(terms), f"dict range unsorted: {tmin}..{tmax}"
        assert terms and terms[0] == tmin and terms[-1] == tmax, (
            f"dict range metadata mismatch: {tmin}..{tmax}"
        )
        dict_terms.extend(terms)
    assert len(dict_terms) == len(set(dict_terms)), "duplicate dict terms"
    assert set(dict_terms) == seen, (
        f"dict/shard term set mismatch: {len(dict_terms)} dict vs {len(seen)} shard"
    )
    return {"n_terms": n_terms, "n_docs": mi.n_docs, "ok": True}


def check_index_dir(index_dir: str) -> dict:
    """``check_merged_index`` over every field of the built and merged
    index under ``index_dir`` (the ``get_index`` and ``python -m engine
    build`` layout), each field with the partitions its merge owns."""
    from .checkpoint import load_manifest, load_merge_manifest
    from .merge import MergedIndex, owned_partitions

    bm, mm = load_manifest(index_dir), load_merge_manifest(index_dir)
    out = check_merged_index(MergedIndex(index_dir), owned_partitions(bm, index_dir))
    for fld, fm in (mm.get("fields") or {}).items():
        check_merged_index(
            MergedIndex(None, manifest=fm),
            owned_partitions(bm["fields"][fld], os.path.join(index_dir, "fields", fld)),
        )
    return out
