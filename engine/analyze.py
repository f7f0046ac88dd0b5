"""Analysis chain: tokenize → lowercase → stop, plus per-doc norms.

Re-expression of the reference analyzer pipeline
(lucene/core .../analysis/standard/StandardTokenizer.java:48-199,
analysis/LowerCaseFilter.java:27, analysis/StopFilter.java:28,
StandardAnalyzer.java:39-88) as plain-function composition over batches.

Contract notes mirrored from the reference:
- Default analyzer = tokenize + lowercase with an EMPTY stopword set
  (StandardAnalyzer.java:51-53 — CharArraySet.EMPTY_SET by default).
- Tokens longer than ``max_token_length`` (default 255,
  StandardAnalyzer.java:39) are skipped — they are never indexed and do not
  count toward the field length used for norms (the tokenizer never emits
  them: StandardTokenizer.java:152-175).
- The default token pattern is the documented ASCII/Latin subset of UAX#29
  word-break: maximal runs of [a-z0-9] over lowercased text. The fixture
  corpus is ASCII web text, so this subset is exhaustive for it; the DuckDB
  oracle expression is ``regexp_extract_all(lower(text), '[a-z0-9]+')``.

Index-time analysis has one entry, ``analyze_for_index``: it picks the
chain for the index option (``analyze_batch_indexing`` for positions,
``analyze_batch_with_offsets`` for offsets, ``analyze_batch_with_payloads``
for payloads) and refuses the combinations an index cannot hold.
``analyze_batch_indexing`` stacks the keyword-repeat, synonym and
common-gram forms in one per-doc pass.

Everything returns flat numpy/Arrow-friendly structures so the SPIMI
inverter can stay vectorized: one flat token list + an int64 lengths array
per batch (no per-row Python objects leak out of this module).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

import numpy as np

MAX_TOKEN_LENGTH = 255  # StandardAnalyzer.java:39 (maxTokenLength default)

# Maximal alnum runs; lowercasing is applied to the whole text first, which
# is equivalent to per-token lowercase for this ASCII pattern.
TOKEN_RE = re.compile(r"[a-z0-9]+")
# fast screen for over-long tokens (C-speed) so the per-token length filter
# only runs on documents that actually contain one
_LONG_RE = re.compile(r"[a-z0-9]{256,}")


@dataclass(frozen=True)
class Analyzer:
    """Composable analysis config (the reference's Analyzer subclass surface,
    analysis/Analyzer.java — here: a token regex + stopword set + max len)."""

    token_pattern: str = r"[a-z0-9]+"
    stopwords: frozenset[str] = field(default_factory=frozenset)
    max_token_length: int = MAX_TOKEN_LENGTH
    # index-time synonym graph (analysis/synonym/SynonymGraphFilter.java
    # role): each (token, (synonyms...)) injects the synonyms at the SAME
    # position as the source token (position increment 0 — stacked).
    # Applied on the INDEXING path only (analyze_batch_indexing); query
    # analyzers keep the raw stream (search-time expansion is the
    # SynonymQuery clause).
    synonyms: tuple[tuple[str, tuple[str, ...]], ...] = ()
    # index-time common-grams set (analysis/commongrams/CommonGramsFilter
    # .java:101-178 role): for stream-consecutive tokens (w1, w2) where
    # either is common, the bigram "w1_w2" is stacked at w1's position
    # (the filter emits the gram with posIncr 0 before w2; posLen 2).
    # Runs on the post-stop post-filter stream; with no stopwords this is
    # exactly position-adjacency. Query side, CommonGramsQueryFilter
    # replaces the pair with the gram — the engine queries the gram term
    # directly (pipelines.common_grams_docs).
    common_grams: tuple[str, ...] = ()
    # named 1:1 token filters applied AFTER stop removal, in order
    # (engine/filters.py registry: "porter", "asciifold") — the
    # EnglishAnalyzer.java:108-118 chain position for PorterStemFilter.
    # 1:1 means positions/offsets/lengths are unchanged by the chain.
    filters: tuple[str, ...] = ()
    # KeywordRepeatFilter + RemoveDuplicatesTokenFilter role
    # (miscellaneous/KeywordRepeatFilter.java:25-33 duplicates every
    # token with the first copy KEYWORD-marked so the stemmer skips it;
    # miscellaneous/RemoveDuplicatesTokenFilter.java:42-57 drops the
    # copy when the filter chain left it unchanged): when True, each
    # position indexes the ORIGINAL token plus its ``filters``-chained
    # form, stacked at posIncr 0, deduped when identical. Indexing path
    # only; mutually exclusive with synonyms/common_grams here.
    keyword_repeat: bool = False

    def compiled(self) -> re.Pattern[str]:
        return re.compile(self.token_pattern)

    def run_filters(self, tokens: list[str]) -> list[str]:
        if not self.filters:
            return tokens
        from .filters import apply_filters

        return apply_filters(tokens, self.filters)


DEFAULT_ANALYZER = Analyzer()

# ---------------------------------------------------------------------------
# Unicode analyzer — the UAX#29 word-break subset StandardTokenizer
# implements for non-Latin web text (StandardTokenizerImpl.java token
# types; StandardTokenizer.java:48). Class coverage table:
#
#   reference type   | this pattern                       | notes
#   -----------------|------------------------------------|------------------
#   IDEOGRAPHIC      | one token PER Han char             | + ext-A, compat
#   HIRAGANA         | one token per char                 |
#   KATAKANA         | maximal runs                       | + phonetic ext
#   HANGUL           | maximal runs                       | jamo + syllables
#   EMOJI            | UTS#51 subset: flag RI pairs,      | ZWJ sequences,
#                    | keycaps, ZWJ joins, FE0F/skin tone | modifiers kept
#   NUM (compounds)  | digits continue through MidNum     | 3.14 / 1,000 one
#                    | [.,] BETWEEN digits (WB11/WB12)    | token; a.b splits
#   ExtendNumLet     | '_' joins alnum runs (WB13a/13b)   | foo_bar one token
#   ALPHANUM         | maximal alnum runs, lowercased     | accents/Greek/
#                    |                                    | Cyrillic included
#
# Python re has no \p classes, so the blocks are explicit ranges and the
# alnum run branch excludes CJK with a lookahead. Remaining undocumented
# gap vs StandardTokenizerImpl.java (991 LoC generated from the full UAX
# grammar): SOUTHEAST_ASIAN syllable classes (Thai/Lao/Khmer segmentation)
# — those need dictionary break data Python re cannot express.
# ---------------------------------------------------------------------------

_HAN_HIRA = "\u3040-\u309f\u3400-\u4dbf\u4e00-\u9fff\uf900-\ufaff"
_KATAKANA = "\u30a0-\u30ff\u31f0-\u31ff"
_HANGUL = "\u1100-\u11ff\uac00-\ud7af"
# UTS#51 emoji subset: core pictographic blocks + legacy symbol blocks
_EMOJI_CORE = (
    "\U0001f000-\U0001f0ff"  # mahjong/dominoes/cards
    "\U0001f300-\U0001f5ff"  # misc symbols & pictographs
    "\U0001f600-\U0001f64f"  # emoticons
    "\U0001f680-\U0001f6ff"  # transport & map
    "\U0001f900-\U0001f9ff"  # supplemental symbols
    "\U0001fa00-\U0001faff"  # extended-A
    "\u2600-\u27bf"  # misc symbols + dingbats
    "\u2b00-\u2bff"  # arrows/stars (⭐ etc.)
)
_EMOJI_MOD = "\U0001f3fb-\U0001f3ff"  # skin-tone modifiers
_REGIONAL = "\U0001f1e6-\U0001f1ff"  # regional indicators (flags)
_E1 = f"[{_EMOJI_CORE}](?:\ufe0f|[{_EMOJI_MOD}])?"
EMOJI_PATTERN = (
    f"[{_REGIONAL}]{{2}}"  # flag = RI pair (UTS#51 ED-14)
    f"|[0-9#*]\ufe0f?\u20e3"  # keycap sequence (1️⃣)
    f"|{_E1}(?:\u200d{_E1})*"  # ZWJ sequence (family/profession emoji)
)
# one non-CJK word char (letters/digits; '_' excluded — it JOINS below)
_W = rf"(?:(?![{_HAN_HIRA}{_KATAKANA}{_HANGUL}])[^\W_])"
UNICODE_TOKEN_PATTERN = (
    f"{EMOJI_PATTERN}"
    f"|[{_HAN_HIRA}]"
    f"|[{_KATAKANA}]+"
    f"|[{_HANGUL}]+"
    # alnum runs; MidNum [.,] continues digit×digit (WB11/12), '_' joins
    # any alnum runs (ExtendNumLet, WB13a/13b)
    rf"|{_W}+(?:(?:(?<=\d)[.,](?=\d)|_){_W}+)*"
)

UNICODE_ANALYZER = Analyzer(token_pattern=UNICODE_TOKEN_PATTERN)


def tokenize(text: str, analyzer: Analyzer = DEFAULT_ANALYZER) -> list[str]:
    """Tokens for one document (lowercased, stopped, long tokens skipped)."""
    toks = analyzer.compiled().findall(text.lower())
    mx = analyzer.max_token_length
    stop = analyzer.stopwords
    if stop:
        toks = [t for t in toks if len(t) <= mx and t not in stop]
    else:
        toks = [t for t in toks if len(t) <= mx]
    return analyzer.run_filters(toks)


def analyze_batch(
    texts: list[str], analyzer: Analyzer = DEFAULT_ANALYZER
) -> tuple[list[str], np.ndarray]:
    """Analyze a batch of documents.

    Returns ``(flat_tokens, doc_lengths)`` where ``flat_tokens`` is every
    emitted token in document order and ``doc_lengths[i]`` is the number of
    tokens emitted for document i (the BM25 norm input: FieldInvertState
    length, DefaultIndexingChain.java:965-1112).
    """
    pat = analyzer.compiled()
    mx = analyzer.max_token_length
    stop = analyzer.stopwords
    flat: list[str] = []
    lengths = np.empty(len(texts), dtype=np.int64)
    append = flat.extend
    default = pat.pattern == DEFAULT_ANALYZER.token_pattern and mx == MAX_TOKEN_LENGTH
    for i, text in enumerate(texts):
        low = text.lower() if text else ""
        toks = pat.findall(low) if low else []
        if stop:
            toks = [t for t in toks if len(t) <= mx and t not in stop]
        elif toks and (
            (_LONG_RE.search(low) is not None)
            if default
            else any(len(t) > mx for t in toks)
        ):
            toks = [t for t in toks if len(t) <= mx]
        lengths[i] = len(toks)
        append(toks)
    return analyzer.run_filters(flat), lengths


def analyze_batch_with_positions(
    texts: list[str], analyzer: Analyzer = DEFAULT_ANALYZER
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """``analyze_batch`` plus per-token POSITIONS with position-increment
    gaps: a removed stopword (StopFilter.java:28 — posIncr accumulates
    across removed tokens) or a skipped over-long token
    (StandardTokenizer.java:152-175 — skipped but still increments
    position) advances the position counter, so phrases across a removed
    token do NOT match adjacently. Each kept token's position is its index
    in the PRE-filter token stream. With the default analyzer (no
    stopwords, no over-long tokens present) positions equal the emitted
    index and the whole path stays vectorized."""
    pat = analyzer.compiled()
    mx = analyzer.max_token_length
    stop = analyzer.stopwords
    flat: list[str] = []
    positions: list[int] = []
    lengths = np.empty(len(texts), dtype=np.int64)
    default = pat.pattern == DEFAULT_ANALYZER.token_pattern and mx == MAX_TOKEN_LENGTH
    gaps_possible = bool(stop)
    for i, text in enumerate(texts):
        low = text.lower() if text else ""
        toks = pat.findall(low) if low else []
        has_long = bool(toks) and (
            (_LONG_RE.search(low) is not None)
            if default
            else any(len(t) > mx for t in toks)
        )
        if gaps_possible or has_long:
            kept = [
                (j, t)
                for j, t in enumerate(toks)
                if len(t) <= mx and t not in stop
            ]
            lengths[i] = len(kept)
            flat.extend(t for _, t in kept)
            positions.extend(j for j, _ in kept)
        else:
            lengths[i] = len(toks)
            flat.extend(toks)
            positions.extend(range(len(toks)))
    return analyzer.run_filters(flat), lengths, np.asarray(positions, dtype=np.int64)


def analyze_batch_with_offsets(
    texts: list[str], analyzer: Analyzer = DEFAULT_ANALYZER
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``analyze_batch_with_positions`` plus per-token CHARACTER offsets
    (start, end) from the tokenizer spans — the
    DOCS_AND_FREQS_AND_POSITIONS_AND_OFFSETS analysis contract
    (OffsetAttribute from StandardTokenizer's zzStartRead spans;
    index/IndexOptions.java:28). Offsets refer to the LOWERCASED text;
    for this engine's token patterns lowercasing is length-preserving on
    every character that can start or continue a token, so they are valid
    spans of the original text as stored.

    Returns (flat_tokens, doc_lengths, positions, starts, ends)."""
    pat = analyzer.compiled()
    mx = analyzer.max_token_length
    stop = analyzer.stopwords
    flat: list[str] = []
    positions: list[int] = []
    starts: list[int] = []
    ends: list[int] = []
    lengths = np.empty(len(texts), dtype=np.int64)
    for i, text in enumerate(texts):
        low = text.lower() if text else ""
        n_kept = 0
        for j, m in enumerate(pat.finditer(low)):
            t = m.group(0)
            if len(t) > mx or (stop and t in stop):
                continue  # skipped tokens still advance the position
            flat.append(t)
            positions.append(j)
            starts.append(m.start())
            ends.append(m.end())
            n_kept += 1
        lengths[i] = n_kept
    return (
        analyzer.run_filters(flat),
        lengths,
        np.asarray(positions, dtype=np.int64),
        np.asarray(starts, dtype=np.int64),
        np.asarray(ends, dtype=np.int64),
    )


def analyze_batch_with_payloads(
    texts: list[str],
    analyzer: Analyzer = DEFAULT_ANALYZER,
    delimiter: str = "|",
    encoder: str = "int",
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """Whitespace + DelimitedPayloadTokenFilter chain
    (analysis/payloads/DelimitedPayloadTokenFilter.java): each
    whitespace-separated word may carry a trailing ``<delim><payload>``;
    the payload attaches to every token the word's term part yields
    through the analyzer chain (the reference's WhitespaceTokenizer emits
    one token per word — this engine's standard rule may split further,
    documented subset). ``encoder``: "int" (IntegerEncoder role, uint32)
    or "float" (PayloadHelper.encodeFloat role, float32 bit pattern).
    Positions are consecutive emitted positions (no stop-gap semantics in
    this chain — there is no StopFilter after the payload filter in the
    reference chain either).

    Returns (flat_tokens, doc_lengths, positions, payload_words) where
    payload_words[i] = 0 for no payload else uint32 value + 1."""
    if encoder not in ("int", "float"):
        raise ValueError(f"unknown payload encoder {encoder!r}")
    flat: list[str] = []
    positions: list[int] = []
    payloads: list[int] = []
    lengths = np.empty(len(texts), dtype=np.int64)
    for i, text in enumerate(texts):
        n_kept = 0
        for word in (text or "").split():
            pay_word = 0
            term_part = word
            if delimiter in word:
                term_part, ptxt = word.rsplit(delimiter, 1)
                try:
                    if encoder == "int":
                        v = int(ptxt)
                        if not (0 <= v < 2**32):
                            raise ValueError(ptxt)
                        pay_word = v + 1
                    else:
                        pay_word = (
                            int(np.float32(float(ptxt)).view(np.uint32)) + 1
                        )
                except ValueError:
                    # not a parsable payload: the whole word is the term
                    term_part, pay_word = word, 0
            for t in tokenize(term_part, analyzer):
                flat.append(t)
                positions.append(n_kept)
                payloads.append(pay_word)
                n_kept += 1
        lengths[i] = n_kept
    return (
        flat,
        lengths,
        np.asarray(positions, dtype=np.int64),
        np.asarray(payloads, dtype=np.uint64),
    )


def compute_norms(doc_lengths: np.ndarray) -> np.ndarray:
    """Per-doc norm bytes: SmallFloat.intToByte4(numTerms)
    (BM25Similarity.java:115-126, discountOverlaps default — no overlap
    tokens exist in this chain, so numTerms == emitted token count)."""
    from .smallfloat import int_to_byte4_array

    return int_to_byte4_array(doc_lengths)


def analyze_batch_indexing(
    texts: list[str], analyzer: Analyzer = DEFAULT_ANALYZER
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray]:
    """``analyze_batch_with_positions`` plus the index-time stacking
    filters, in one per-doc pass. Each token at position p gets its extra
    forms stacked at p (posIncr 0), after it:

    - its ``filters``-chained form, under keyword-repeat (the base tokens
      are then analyzed with ``filters=()``; KeywordRepeatFilter +
      RemoveDuplicatesTokenFilter);
    - its synonyms (SynonymGraphFilter);
    - the common gram it starts with the next token in the stream, when
      either is common (CommonGramsFilter).

    Returns ``(flat, emit_lengths, norm_lengths, positions)``:
    ``emit_lengths`` counts every emitted token (drives doc mapping and
    sum_ttf — Lucene's sumTotalTermFreq counts stacked tokens too, the
    avgdl quirk), while ``norm_lengths`` counts only posIncr>=1 tokens —
    BM25Similarity's default discountOverlaps=true norm semantics
    (BM25Similarity.java setDiscountOverlaps). With no stacking option the
    two are identical and the vectorized path is untouched. Per-doc tokens
    stay position-sorted after stacking (stable: source token before its
    stacked forms), so per-term position streams remain monotone for the
    delta codec; duplicate (term, position) pairs are dropped (a stacked
    form identical to a co-positioned token)."""
    repeat = analyzer.keyword_repeat and bool(analyzer.filters)
    if repeat and (analyzer.synonyms or analyzer.common_grams):
        raise NotImplementedError(
            "keyword_repeat stacks with neither synonyms nor common_grams"
        )
    base = replace(analyzer, filters=()) if repeat else analyzer
    flat, lengths, positions = analyze_batch_with_positions(texts, base)
    if not (repeat or analyzer.synonyms or analyzer.common_grams):
        return flat, lengths, lengths, positions
    forms = analyzer.run_filters(flat) if repeat else flat
    syn = dict(analyzer.synonyms)
    common = frozenset(analyzer.common_grams)
    out_flat: list[str] = []
    out_pos: list[int] = []
    emit = np.empty(len(texts), dtype=np.int64)
    start = 0
    for i, n in enumerate(lengths.tolist()):
        toks = flat[start : start + n]
        pos = positions[start : start + n].tolist()
        seen = set(zip(toks, pos))
        stacked = [(p, 0, t) for t, p in zip(toks, pos)]
        for j, (t, p) in enumerate(zip(toks, pos)):
            extra = list(syn.get(t, ()))
            if repeat and forms[start + j]:
                extra.append(forms[start + j])
            if j + 1 < n and (t in common or toks[j + 1] in common):
                extra.append(t + "_" + toks[j + 1])
            for x in extra:
                if (x, p) not in seen:
                    seen.add((x, p))
                    stacked.append((p, 1, x))
        start += n
        stacked.sort(key=lambda x: (x[0], x[1]))
        emit[i] = len(stacked)
        out_flat.extend(t for _p, _o, t in stacked)
        out_pos.extend(p for p, _o, _t in stacked)
    return out_flat, emit, lengths, np.asarray(out_pos, dtype=np.int64)


def analyze_for_index(
    texts: list[str],
    analyzer: Analyzer = DEFAULT_ANALYZER,
    index_offsets: bool = False,
    payload_delimiter: str | None = None,
    payload_encoder: str = "int",
) -> tuple[list[str], np.ndarray, np.ndarray, np.ndarray, tuple | None, np.ndarray | None]:
    """The one place that picks the analysis chain for an index option
    and refuses the combinations an index cannot hold. Returns ``(flat,
    emit_lengths, norm_lengths, positions, offsets, payloads)``, where
    ``offsets`` is ``(starts, ends)`` when ``index_offsets`` and
    ``payloads`` the per-token payload words when ``payload_delimiter`` is
    set, else None. Offsets and payloads hang off the prox stream
    (IndexOptions.java:28, Lucene84PostingsFormat.java:39-104), one side
    stream per index; a stacked token has no character span or payload of
    its own, so both refuse every stacking option."""
    if payload_delimiter is None and not index_offsets:
        return (*analyze_batch_indexing(texts, analyzer), None, None)
    stacking = [n for n in ("synonyms", "common_grams", "keyword_repeat") if getattr(analyzer, n)]
    if stacking or (payload_delimiter is not None and index_offsets):
        raise NotImplementedError(
            "offsets and payloads combine with neither each other nor a "
            f"stacking option (got {', '.join(stacking) or 'both'})"
        )
    if payload_delimiter is not None:
        flat, lengths, positions, payloads = analyze_batch_with_payloads(
            texts, analyzer, delimiter=payload_delimiter, encoder=payload_encoder
        )
        return flat, lengths, lengths, positions, None, payloads
    flat, lengths, positions, starts, ends = analyze_batch_with_offsets(texts, analyzer)
    return flat, lengths, lengths, positions, (starts, ends), None
