"""The three dictionary/postings readers agree on one corpus.

A flushed partition ``Segment``, its dictionary-only ``DictStatsReader``
and the ``MergedIndex`` that ``merge_by_term`` writes over the same
partitions must answer every reader call identically: the merged answer
equals the partition answers concatenated in doc order (postings and the
per-occurrence streams) or unioned (dictionary scans)."""

import os

import numpy as np
import pytest

from engine.build import invert_to_segment
from engine.checkpoint import finalize_build_manifest
from engine.fixtures import make_pages
from engine.merge import MergedIndex, merge_by_term
from engine.segment import DictStatsReader, Segment

N_DOCS = 600
N_PARTS = 4
BLOCK = 128  # codec block size: the heavy probe term must span > 1 block

PREFIXES = [("t0", 1024), ("t0", 7), ("the", 1024), ("", 50), ("zzz", 10)]
RANGES = [("t00100", "t00200", 1024), ("t00100", "t00200", 5), ("a", "m", 20), ("zz", "zzz", 10)]
SUFFIXES = [("00", 1024), ("00", 6), ("er", 1024), ("zzz", 10)]


def _payload_text(text: str, di: int) -> str:
    """Every third word carries a ``|n`` payload (DelimitedPayload input)."""
    return " ".join(
        f"{w}|{(di + j) % 9}" if j % 3 == 0 else w for j, w in enumerate(text.split())
    )


@pytest.fixture(scope="module", params=["offsets", "payloads"])
def readers(request, tmp_path_factory, ray_session):
    """(partition Segments, their DictStatsReaders, MergedIndex) over one
    positions corpus carrying offsets or payloads (the two side streams
    cannot be indexed together)."""
    root = tmp_path_factory.mktemp(f"readers-{request.param}")
    texts = make_pages(N_DOCS, seed=31).column("text").to_pylist()
    kw = {"index_offsets": True}
    if request.param == "payloads":
        texts = [_payload_text(t, i) for i, t in enumerate(texts)]
        kw = {"payload_delimiter": "|"}
    rows = []
    per = N_DOCS // N_PARTS
    for p in range(N_PARTS):
        lo, hi = p * per, (p + 1) * per
        seg_dir = str(root / f"partitions/p{lo:012d}")
        meta = invert_to_segment(np.arange(lo, hi, dtype=np.int64), texts[lo:hi], seg_dir, **kw)
        rows.append(
            {k: meta[k] for k in ("doc_base", "n_docs", "sum_ttf", "n_terms", "wall_ms")}
            | {"seg_dir": seg_dir}
        )
    manifest = finalize_build_manifest(str(root), rows)
    # a low salt threshold sends the high-df terms through the salted
    # heavy path, so both MergedIndex lookups (bucket, heavy range) run
    merge_by_term(manifest, str(root / "merged-index"), salt_threshold=100, n_salts=4)
    segs = [Segment(r["seg_dir"]) for r in sorted(rows, key=lambda r: r["doc_base"])]
    dicts = [DictStatsReader(os.path.join(s.dir, "terms.parquet")) for s in segs]
    return request.param, segs, dicts, MergedIndex(str(root / "merged-index"))


def _sample_terms(segs, mi) -> list[str]:
    vocab = sorted({t for s in segs for t in s.iter_terms()})
    dfs = {t: sum(s.term_stats(t)[0] for s in segs) for t in vocab}
    singleton = next(t for t in vocab if dfs[t] == 1)
    heavy = max(vocab, key=lambda t: (dfs[t], t))
    assert dfs[heavy] > BLOCK, "corpus needs a term longer than one block"
    assert heavy in mi._heavy_set, "salt threshold must make the probe term heavy"
    rng = np.random.default_rng(5)
    return ["zzz-absent", singleton, heavy] + [str(t) for t in rng.choice(vocab, 12, replace=False)]


def _concat_lists(parts):
    """Per-partition per-posting lists (None where a partition lacks the
    term or the stream) concatenated in doc order; None if all are None."""
    present = [p for p in parts if p is not None]
    return None if not present else [a.tolist() for p in present for a in p]


def test_readers_agree(readers):
    stream, segs, dicts, mi = readers
    terms = _sample_terms(segs, mi)
    for term in terms:
        part_stats = [s.term_stats(term) for s in segs]
        assert mi.term_stats(term) == (
            sum(df for df, _ in part_stats),
            sum(ttf for _, ttf in part_stats),
        ), term
        for s, d in zip(segs, dicts):
            assert d.term_stats(term) == s.term_stats(term), term

        docs, freqs = mi.postings(term)
        exp_docs = np.concatenate([s.postings(term)[0] for s in segs])
        exp_freqs = np.concatenate([s.postings(term)[1] for s in segs])
        assert docs.dtype == exp_docs.dtype == np.int64
        np.testing.assert_array_equal(docs, exp_docs, err_msg=term)
        np.testing.assert_array_equal(freqs, exp_freqs, err_msg=term)

        pos = mi.positions(term)
        assert (None if pos is None else [a.tolist() for a in pos]) == _concat_lists(
            [s.positions(term) for s in segs]
        ), term
        off = mi.offsets(term)
        part_off = [s.offsets(term) for s in segs]
        for side in (0, 1):
            assert (None if off is None else [a.tolist() for a in off[side]]) == _concat_lists(
                [None if o is None else o[side] for o in part_off]
            ), term
        pay = mi.payloads(term)
        assert (None if pay is None else [a.tolist() for a in pay]) == _concat_lists(
            [s.payloads(term) for s in segs]
        ), term
        if term != "zzz-absent":
            assert pos is not None, term
            assert (off is not None) == (stream == "offsets"), term
            assert (pay is not None) == (stream == "payloads"), term

    for prefix, cap in PREFIXES:
        union = {t for s in segs for t in s.expand_prefix(prefix, cap)}
        assert mi.expand_prefix(prefix, cap) == sorted(union)[:cap], prefix
        for s, d in zip(segs, dicts):
            assert d.expand_prefix(prefix, cap) == s.expand_prefix(prefix, cap), prefix
    for lo, hi, cap in RANGES:
        union = {t for s in segs for t in s.expand_range(lo, hi, cap)}
        assert mi.expand_range(lo, hi, cap) == sorted(union)[:cap], (lo, hi)
        for s, d in zip(segs, dicts):
            assert d.expand_range(lo, hi, cap) == s.expand_range(lo, hi, cap), (lo, hi)
    for suffix, cap in SUFFIXES:
        # the cap keeps the first terms in REVERSED order, then forward-sorts
        union = {t for s in segs for t in s.expand_suffix(suffix, cap)}
        exp = sorted(sorted(union, key=lambda t: t[::-1])[:cap])
        assert mi.expand_suffix(suffix, cap) == exp, suffix
        assert all(t.endswith(suffix) for t in exp)

    assert list(mi.iter_terms()) == sorted({t for s in segs for t in s.iter_terms()})
    for s, d in zip(segs, dicts):
        assert list(d.iter_terms()) == list(s.iter_terms())
