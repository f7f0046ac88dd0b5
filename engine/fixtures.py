"""Deterministic fixture generation: the ``pages`` input table.

Produces the BASELINE.json input-hint schema
``(doc_id:int64, url:string, warc_ts:timestamp[s], html:binary, text:string,
lang:string, title:string)`` two ways:

- ``pages_from_documents(sf_dir)``: derives pages from the driver's
  ``documents.parquet`` table — the body token stream IS the documents.text
  token stream (the HTML renderer only adds markup whose extraction yields
  back the same tokens), so DuckDB oracles over ``documents`` validate
  index statistics end-to-end.
- ``make_pages(n_docs, seed)``: standalone Zipf corpus per FIXTURES.md §1.1
  (stop-like ultra-high-df terms, singleton band, log-normal lengths
  crossing the 128-block and norm-quantization boundaries, and a cluster of
  identical-score docs pinning the tie-break order).

In both, ``text`` is produced by running the shared extractor
(engine/extract.py) over the rendered ``html`` — that is the construction
that makes "byte-identical extracted text per url" testable: the build
pipeline re-extracts from html and must reproduce ``text`` exactly.

Everything is seeded / doc_id-derived; no wall clock, no network
(FIXTURES.md contract). warc_ts = 2020-01-01T00:00:00Z + doc_id * 37s.
"""

from __future__ import annotations

import html as _htmllib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .extract import extract

WARC_EPOCH = 1577836800  # 2020-01-01T00:00:00Z
N_HOSTS = 50

_SCRIPT_NOISE = "<script>var i=0; track('pv', i+1);</script>"
_STYLE_NOISE = "<style>p{margin:0} .x{color:#aaa}</style>"


def render_html(doc_id: int, title: str, body_text: str) -> bytes:
    """Deterministically render body text into templated HTML. The markup
    added (block tags, inline <b>, script/style noise, <img alt> with a
    non-alphanumeric alt, entities) never changes the alnum token stream of
    the extracted body relative to ``body_text``'s own tokens."""
    words = body_text.split(" ") if body_text else []
    para_len = 12 + (doc_id % 7)
    paras = [words[i : i + para_len] for i in range(0, len(words), para_len)] or [[]]
    chunks: list[str] = ["<!DOCTYPE html>\n<html><head><title>", _htmllib.escape(title)]
    chunks.append('</title><meta name="generator" content="fixture-v1">')
    if doc_id % 3 == 0:
        chunks.append('<meta http-equiv="content-language" content="en">')
    chunks.append(_STYLE_NOISE)
    chunks.append("</head><body>")
    for p_i, para in enumerate(paras):
        esc = [_htmllib.escape(w, quote=False) for w in para]
        if esc and (doc_id + p_i) % 4 == 0:
            esc[0] = f"<b>{esc[0]}</b>"
        tag = "p" if (doc_id + p_i) % 5 else "div"
        chunks.append(f"<{tag}>" + " ".join(esc) + f"</{tag}>")
        if p_i == 0 and doc_id % 6 == 0:
            chunks.append(_SCRIPT_NOISE)
        if p_i == 1 and doc_id % 5 == 0:
            chunks.append(f'<img src="i{doc_id}.png" alt="~">')
    chunks.append("</body></html>")
    return "".join(chunks).encode("utf-8")


def _pages_table(
    doc_ids: np.ndarray,
    titles: list[str],
    bodies: list[str],
    langs: list[str],
    n_chars: list[int] | None = None,
) -> pa.Table:
    htmls: list[bytes] = []
    texts: list[str] = []
    for did, ti, bo in zip(doc_ids.tolist(), titles, bodies):
        h = render_html(did, ti, bo)
        htmls.append(h)
        texts.append(extract(h).body)  # the byte-identity contract column
    urls = [f"https://site{d % N_HOSTS}.example/p/{d}" for d in doc_ids.tolist()]
    ts = pa.array(WARC_EPOCH + 37 * doc_ids, type=pa.timestamp("s"))
    if n_chars is None:
        # standalone corpora: doc-value length of the SOURCE body text
        n_chars = [len(b) for b in bodies]
    return pa.table(
        {
            "doc_id": pa.array(doc_ids, type=pa.int64()),
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": ts,
            "html": pa.array(htmls, type=pa.binary()),
            "text": pa.array(texts, type=pa.string()),
            "lang": pa.array(langs, type=pa.string()),
            "title": pa.array(titles, type=pa.string()),
            # per-document metadata column carried into the index's
            # DocValues sidecar (NumericDocValuesField ingest analogue)
            "n_chars": pa.array(n_chars, type=pa.int64()),
        }
    )


def pages_from_documents(sf_dir: str, repeat: int = 1) -> pa.Table:
    """Derive the pages table from the driver's documents.parquet.

    ``repeat`` > 1 tiles the corpus deterministically (new doc_ids/urls) for
    bench-scale inputs without external data."""
    docs = pq.read_table(os.path.join(sf_dir, "documents.parquet"))
    base_ids = docs.column("doc_id").to_numpy()
    texts = docs.column("text").to_pylist()
    langs = docs.column("lang").to_pylist()
    n_chars = [int(x) for x in docs.column("n_chars").to_pylist()]
    n = len(base_ids)
    tables = []
    for r in range(repeat):
        ids = np.arange(r * n, r * n + n, dtype=np.int64)
        titles = [f"doc {int(i)} rep {r}" for i in ids]
        tables.append(_pages_table(ids, titles, texts, langs, n_chars=n_chars))
    return pa.concat_tables(tables)


def write_pages(table: pa.Table, out_path: str, n_files: int = 4) -> list[str]:
    """Write pages as n_files parquet files (multiple input partitions so
    the merge and docBase handling are exercised)."""
    os.makedirs(out_path, exist_ok=True)
    n = table.num_rows
    per = (n + n_files - 1) // n_files
    paths = []
    for i in range(n_files):
        chunk = table.slice(i * per, per)
        if chunk.num_rows == 0:
            break
        p = os.path.join(out_path, f"pages-{i:05d}.parquet")
        pq.write_table(chunk, p)
        paths.append(p)
    return paths


# ---------------------------------------------------------------------------
# Standalone Zipf corpus (FIXTURES.md §1.1)
# ---------------------------------------------------------------------------

VOCAB_SIZE = 10_000
N_STOP = 20
TIE_CLUSTER = 20


def make_pages(n_docs: int, seed: int = 42) -> pa.Table:
    """Synthetic corpus: Zipf(s=1.1) vocab t00000..t09999, stop terms
    the00..the19 at 60-95% df, one singleton s-term per 10th doc, log-normal
    lengths 8..4000, and a TIE_CLUSTER of identical docs for the query
    'tiekey' pinning (score desc, docID asc) tie-breaks."""
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, VOCAB_SIZE + 1, dtype=np.float64)
    probs = ranks ** -1.1
    probs /= probs.sum()
    vocab = np.array([f"t{i:05d}" for i in range(VOCAB_SIZE)])
    stop_words = [f"the{j:02d}" for j in range(N_STOP)]
    lengths = np.clip(
        np.exp(rng.normal(np.log(120), 1.0, size=n_docs)).astype(np.int64), 8, 4000
    )
    stop_p = np.linspace(0.60, 0.95, N_STOP)
    # vectorized sampling: one draw for the whole token stream, one matrix
    # for the stop-term band (0/1/2 occurrences per doc)
    flat = vocab[rng.choice(VOCAB_SIZE, size=int(lengths.sum()), p=probs)]
    stop_hit = rng.random((n_docs, N_STOP)) < stop_p[None, :]
    stop_double = (rng.random((n_docs, N_STOP)) < 0.3) & stop_hit
    bodies: list[str] = []
    langs: list[str] = []
    off = 0
    for i in range(n_docs):
        ln = int(lengths[i])
        toks = list(flat[off : off + ln])
        off += ln
        for j in np.flatnonzero(stop_hit[i]):
            toks.append(stop_words[j])
            if stop_double[i, j]:
                toks.append(stop_words[j])
        if i % 10 == 0:
            toks.append(f"s{i:06d}")  # singleton band (df == 1)
        if i < TIE_CLUSTER:
            # identical freq + identical length => identical float32 scores
            toks = ["tiekey"] * 3 + ["filler"] * 17
        bodies.append(" ".join(toks))
        langs.append("en" if i % 10 < 9 else ("de" if i % 2 == 0 else "zh"))
    doc_ids = np.arange(n_docs, dtype=np.int64)
    titles = [f"synthetic page {i}" for i in range(n_docs)]
    return _pages_table(doc_ids, titles, bodies, langs)
