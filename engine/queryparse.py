"""Minimal query parser → boolean IR.

The reference query surface for the north rule is term / boolean BM25
(SURVEY §2.5; classic/QueryParser.java:81 is the full grammar — out of
scope). Supported syntax, mirroring the classic parser's boolean handling
(BooleanQuery clause semantics, search/BooleanQuery.java):

    term term          -> SHOULD should (default OR, contributes if present)
    +term              -> MUST
    -term              -> MUST_NOT
    a AND b            -> both MUST (classic-parser conjunction)
    title:term         -> field-qualified term (KNOWN_FIELDS; routed to
                          that field's postings/norms/stats at search time
                          — DocMaker.java:197-198 title+body fields)
    title:quer*        -> field-qualified prefix; likewise title:pa?t
                          (wildcard), title:x~1 (fuzzy), title:y^2 (boost),
                          title:"a b"[~N] (phrase/sloppy), title:[a TO b]
                          (range), title:/regex/ — the classic parser's
                          field grammar covers every clause type
                          (classic/QueryParser.java field productions)
    other:term         -> term (unknown field prefix dropped, classic
                          parser default-field behavior)
    (a OR b) AND c     -> parenthesized sub-queries (nested BooleanQuery)

Each term text runs through the same analyzer as indexing; terms that
analyze to nothing are dropped (e.g. pure punctuation).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analyze import DEFAULT_ANALYZER, Analyzer, tokenize

# fields the engine can index besides the default body field; a known
# field prefix on a plain term is kept (routed at search time), any other
# prefix is stripped like the classic parser's default-field fallback
KNOWN_FIELDS = ("title", "body")


@dataclass(frozen=True)
class BoolQuery:
    must: tuple[str, ...] = ()
    should: tuple[str, ...] = ()
    must_not: tuple[str, ...] = ()
    prefixes: tuple[str, ...] = ()  # trailing-* terms, expanded at search time
    match_all: bool = False  # bare '*' (MatchAllDocsQuery)
    phrases: tuple[tuple[str, ...], ...] = ()  # "quoted" exact phrases (slop 0)
    # "quoted"~N sloppy phrases: ((terms...), slop) pairs, slop >= 1
    # (search/PhraseQuery.java:92,147; SloppyPhraseMatcher)
    sloppy: tuple[tuple[tuple[str, ...], int], ...] = ()
    # MultiPhraseQuery (search/MultiPhraseQuery.java): a phrase whose every
    # slot is a SET of alternative terms — per position, a union postings
    # view (UnionPostingsEnum role) feeds the same exact/sloppy matcher.
    # Entries are ((slot_alternatives...,) ..., slop) pairs. Pre-rewrite an
    # alternative may be a wildcard pattern ('jo*', 'pa?t') — the
    # ComplexPhraseQueryParser role (queryparser/complexPhrase/
    # ComplexPhraseQueryParser.java): rewrite() expands patterns against
    # the dictionary into concrete alternatives, capped.
    multi_phrases: tuple[tuple[tuple[tuple[str, ...], ...], int], ...] = ()
    synonyms: tuple[tuple[str, ...], ...] = ()  # a|b|c groups (SynonymQuery)
    ranges: tuple[tuple[str, str], ...] = ()  # [lo TO hi] term ranges, inclusive
    wildcards: tuple[str, ...] = ()  # patterns with mid-string * or ?
    boosts: tuple[tuple[str, float], ...] = ()  # term^boost factors
    fuzzies: tuple[tuple[str, int], ...] = ()  # term~N edit-distance terms
    # minimumNumberShouldMatch (search/BooleanQuery.java:78): a hit must
    # match at least this many optional (SHOULD/synonym/phrase/boost)
    # clauses. Set programmatically (no classic-parser syntax for it).
    min_should_match: int = 0
    # /pattern/ regular-expression terms (search/RegexpQuery.java):
    # rewritten against the dictionary into a capped SHOULD disjunction
    regexps: tuple[str, ...] = ()
    # TermInSetQuery (search/TermInSetQuery.java): each set is a FILTER —
    # a hit must contain at least one term of every set; filters never
    # contribute score (constant-score filter context). Programmatic.
    term_sets: tuple[tuple[str, ...], ...] = ()
    # nested boolean sub-queries — parenthesized groups from the classic
    # parser's grammar (classic/QueryParser.java:81): each sub-query is a
    # full BoolQuery evaluated as ONE clause of this query. A SHOULD sub
    # contributes its score when it matches; a MUST sub must match; a
    # MUST_NOT sub excludes its matches (BooleanQuery clause semantics).
    sub_must: tuple["BoolQuery", ...] = ()
    sub_should: tuple["BoolQuery", ...] = ()
    sub_must_not: tuple["BoolQuery", ...] = ()

    @property
    def empty(self) -> bool:
        return not (
            self.must
            or self.should
            or self.prefixes
            or self.match_all
            or self.regexps
            or self.phrases
            or self.sloppy
            or self.multi_phrases
            or self.synonyms
            or self.ranges
            or self.wildcards
            or self.boosts
            or self.fuzzies
            or self.term_sets
            or self.sub_must
            or self.sub_should
            or self.sub_must_not
        )

    @property
    def nested(self) -> bool:
        return bool(self.sub_must or self.sub_should or self.sub_must_not)

    @property
    def terms_only(self) -> bool:
        """Only plain term clauses (must/should/must_not) after rewrite: no
        match-all, boosts, synonyms, phrases, sloppy or multi-phrases,
        term-set filters, min-should-match or sub-queries — the shape the
        pruning plan and the single-term fast path serve."""
        return not (
            self.match_all
            or self.boosts
            or self.synonyms
            or self.phrases
            or self.sloppy
            or self.multi_phrases
            or self.term_sets
            or self.min_should_match
            or self.nested
        )


def boolquery_from_dict(d: dict) -> BoolQuery:
    """Rebuild a BoolQuery (including nested sub-queries) from the plain
    dict produced by dataclasses.asdict — the shard fan-out ships plans as
    repr'd dicts and rebuilds them here."""
    d = dict(d)
    for k in ("sub_must", "sub_should", "sub_must_not"):
        d[k] = tuple(boolquery_from_dict(s) for s in d.get(k) or ())
    for k in ("phrases", "synonyms", "term_sets"):
        d[k] = tuple(tuple(x) for x in d.get(k) or ())
    d["sloppy"] = tuple((tuple(ph), int(sl)) for ph, sl in d.get("sloppy") or ())
    d["multi_phrases"] = tuple(
        (tuple(tuple(alt) for alt in slots), int(sl))
        for slots, sl in d.get("multi_phrases") or ()
    )
    d["ranges"] = tuple((lo, hi) for lo, hi in d.get("ranges") or ())
    d["boosts"] = tuple((t, float(b)) for t, b in d.get("boosts") or ())
    d["fuzzies"] = tuple((t, int(n)) for t, n in d.get("fuzzies") or ())
    for k in ("must", "should", "must_not", "prefixes", "wildcards", "regexps"):
        d[k] = tuple(d.get(k) or ())
    return BoolQuery(**d)


def query_terms(q: BoolQuery) -> set[str]:
    """Every concrete term a (rewritten) query touches, recursively over
    nested sub-queries — the term set the sharded fan-out gathers global
    (df, ttf) for (TermStates.build over the whole tree)."""
    terms = set(q.must) | set(q.should) | set(q.must_not)
    for grp in q.synonyms:
        terms.update(grp)
    for ph in q.phrases:
        terms.update(ph)
    for ph, _slop in q.sloppy:
        terms.update(ph)
    for slots, _slop in q.multi_phrases:
        for alt_set in slots:
            # wildcard-pattern alternatives are dictionary-expanded by
            # rewrite() before the stats pass, so only concrete terms count
            terms.update(t for t in alt_set if "*" not in t and "?" not in t)
    for t, _bf in q.boosts:
        terms.add(t)
    for ts in q.term_sets:
        terms.update(ts)
    for sub in q.sub_must + q.sub_should + q.sub_must_not:
        terms |= query_terms(sub)
    return terms


def _split_groups(q: str) -> tuple[str, list[tuple[str, str]]]:
    """Extract top-level parenthesized groups, respecting quotes. Returns
    the remainder text with each group replaced by a placeholder token
    ``[+|-]\\x00G<i>\\x00`` and the list of (prefix, inner_text) groups."""
    out: list[str] = []
    groups: list[tuple[str, str]] = []
    i, n = 0, len(q)
    while i < n:
        c = q[i]
        if c == '"':  # quoted phrase: opaque to grouping
            j = q.find('"', i + 1)
            j = n - 1 if j < 0 else j
            out.append(q[i : j + 1])
            i = j + 1
            continue
        prefix = ""
        if c in "+-" and i + 1 < n and q[i + 1] == "(":
            prefix = c
            i += 1
            c = q[i]
        if c == "(":
            depth, j = 0, i
            while j < n:
                cj = q[j]
                if cj == '"':
                    k = q.find('"', j + 1)
                    j = k if k >= 0 else n - 1
                elif cj == "(":
                    depth += 1
                elif cj == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            groups.append((prefix, q[i + 1 : j]))
            out.append(f" {prefix}\x00G{len(groups) - 1}\x00 ")
            i = j + 1
            continue
        out.append(prefix + c)
        i += 1
    return "".join(out), groups


def parse_query(q: str, analyzer: Analyzer = DEFAULT_ANALYZER) -> BoolQuery:
    must: list[str] = []
    should: list[str] = []
    must_not: list[str] = []
    prefixes: list[str] = []
    phrases: list[tuple[str, ...]] = []
    sloppy: list[tuple[tuple[str, ...], int]] = []
    multi_phrases: list[tuple[tuple[tuple[str, ...], ...], int]] = []
    synonyms: list[tuple[str, ...]] = []
    ranges: list[tuple[str, str]] = []
    wildcards: list[str] = []
    boosts: list[tuple[str, float]] = []
    fuzzies: list[tuple[str, int]] = []
    regexps: list[str] = []
    sub_must: list[BoolQuery] = []
    sub_should: list[BoolQuery] = []
    sub_must_not: list[BoolQuery] = []
    match_all = False
    import re as _re

    # parenthesized groups are extracted FIRST (before phrase/range/regexp
    # passes) so their contents parse recursively with their own operators
    # — nested sub-queries, classic/QueryParser.java:81 grouping grammar
    groups: list[tuple[str, str]] = []
    if "(" in q:
        q, groups = _split_groups(q)

    def _grab_phrase(m: "_re.Match[str]") -> str:
        fld = m.group(1)
        qual = (
            (lambda t: f"{fld}:{t}")
            if fld in KNOWN_FIELDS and fld != "body"
            else (lambda t: t)
        )
        body = m.group(2)
        slop = int(m.group(3)) if m.group(3) else 0
        if "*" in body or "?" in body or "|" in body:
            # ComplexPhraseQueryParser subset (queryparser/complexPhrase/
            # ComplexPhraseQueryParser.java): a quoted phrase whose slots
            # carry wildcard patterns ("jo* smith") and/or explicit
            # alternations ("john|jon smith") parses to a MultiPhraseQuery
            # slot list. Each whitespace word is one slot; `|` splits a
            # slot into alternatives; a `*`/`?` alternative stays a
            # lowercased pattern for rewrite() to expand against the
            # dictionary. A stopword-only slot is DROPPED (documented
            # subset: no position gap is kept, unlike the reference's
            # analyzer position increments).
            slots: list[tuple[str, ...]] = []
            for word in body.split():
                alts: list[str] = []
                for alt in word.split("|"):
                    if "*" in alt or "?" in alt:
                        alts.append(qual(alt.lower()))
                    else:
                        alts.extend(qual(t) for t in tokenize(alt, analyzer))
                if alts:
                    slots.append(tuple(dict.fromkeys(alts)))
            if len(slots) >= 2:
                multi_phrases.append((tuple(slots), slop))
            elif slots:
                # single-slot degrades: patterns -> wildcards, concrete
                # alternatives -> a blended synonym group / lone term
                pats = [a for a in slots[0] if "*" in a or "?" in a]
                terms_ = [a for a in slots[0] if a not in pats]
                wildcards.extend(pats)
                if len(terms_) > 1:
                    synonyms.append(tuple(terms_))
                elif terms_:
                    should.append(terms_[0])
            return " "
        toks = tuple(qual(t) for t in tokenize(body, analyzer))
        if len(toks) >= 2:
            (sloppy if slop > 0 else phrases).append(
                (toks, slop) if slop > 0 else toks
            )
        elif toks:
            should.append(toks[0])  # single-term phrase degrades to a term
        return " "

    # [field:]"quoted"~N — phrase / sloppy phrase, optionally field-scoped
    # (classic/QueryParser.java field grammar applies to phrases too)
    q = _re.sub(r'(?:(\w+):)?"([^"]*)"(?:~(\d+))?', _grab_phrase, q)

    # [field:][lo TO hi] inclusive term ranges (TermRangeQuery syntax)
    def _grab_range(m: "_re.Match[str]") -> str:
        fld = m.group(1)
        lo = tokenize(m.group(2), analyzer)
        hi = tokenize(m.group(3), analyzer)
        if lo and hi:
            if fld in KNOWN_FIELDS and fld != "body":
                ranges.append((f"{fld}:{lo[0]}", f"{fld}:{hi[0]}"))
            else:
                ranges.append((lo[0], hi[0]))
        return " "

    q = _re.sub(r"(?:(\w+):)?\[\s*(\S+)\s+TO\s+(\S+)\s*\]", _grab_range, q)

    # [field:]/pattern/ regexp terms (classic-parser syntax, RegexpQuery)
    def _grab_regexp(m: "_re.Match[str]") -> str:
        fld = m.group(1)
        pat = m.group(2)
        if pat:
            if fld in KNOWN_FIELDS and fld != "body":
                regexps.append(f"{fld}:{pat.lower()}")
            else:
                regexps.append(pat.lower())
        return " "

    q = _re.sub(r"(?:(\w+):)?/([^/\s][^/]*)/", _grab_regexp, q)
    raw = q.split()
    and_mode = "AND" in raw
    for tok in raw:
        if tok in ("AND", "OR", "&&", "||"):
            continue
        bucket = should
        if tok.startswith("+"):
            bucket, tok = must, tok[1:]
        elif tok.startswith("-"):
            bucket, tok = must_not, tok[1:]
        elif and_mode:
            bucket = must
        m_g = _re.fullmatch("\x00G(\\d+)\x00", tok)
        if m_g:
            sub = parse_query(groups[int(m_g.group(1))][1], analyzer)
            if not sub.empty:
                (
                    sub_must
                    if bucket is must
                    else sub_must_not if bucket is must_not else sub_should
                ).append(sub)
            continue
        if ":" in tok:
            fld, rest = tok.split(":", 1)
            if fld in KNOWN_FIELDS and fld != "body":
                # field-qualified clause: the field grammar covers every
                # SHOULD-context query type — prefix, wildcard, fuzzy,
                # boost — by carrying the fld: prefix through the IR and
                # routing at rewrite/execute time; plain terms qualify in
                # any bucket (classic/QueryParser.java field productions)
                if bucket is should and rest.endswith("*") and len(rest) > 1 and not ("*" in rest[:-1] or "?" in rest):
                    stem = tokenize(rest[:-1], analyzer)
                    if stem:
                        prefixes.append(f"{fld}:{stem[0]}")
                    continue
                if bucket is should and ("*" in rest[:-1] or "?" in rest):
                    wildcards.append(f"{fld}:{rest.lower()}")
                    continue
                if "~" in rest and bucket is should:
                    base, _, ed = rest.partition("~")
                    toks_f = tokenize(base, analyzer)
                    try:
                        n = int(ed) if ed else 2
                    except ValueError:
                        n = 2
                    if toks_f:
                        fuzzies.append((f"{fld}:{toks_f[0]}", max(0, min(n, 2))))
                    continue
                if "^" in rest and bucket is should:
                    base, _, bv = rest.partition("^")
                    toks_b = tokenize(base, analyzer)
                    try:
                        bf = float(bv)
                    except ValueError:
                        bf = 1.0
                    if toks_b:
                        boosts.append((f"{fld}:{toks_b[0]}", bf))
                    continue
                for t in tokenize(rest, analyzer):
                    bucket.append(f"{fld}:{t}")
                continue
            tok = rest
        if tok == "*":
            match_all = True  # MatchAllDocsQuery
            continue
        if "|" in tok and bucket is should:
            # SynonymQuery (search/SynonymQuery.java): terms scored as one
            # pseudo-term — summed freqs, blended df
            grp = tuple(t for part in tok.split("|") for t in tokenize(part, analyzer))
            if len(grp) >= 2:
                synonyms.append(grp)
            elif grp:
                should.append(grp[0])
            continue
        if bucket is should and ("*" in tok[:-1] or "?" in tok):
            # mid-string wildcard (WildcardQuery): dictionary scan rewrite
            wildcards.append(tok.lower())
            continue
        if "~" in tok and bucket is should:
            # term~N fuzzy (FuzzyQuery, default maxEdits 2)
            base, _, ed = tok.partition("~")
            toks = tokenize(base, analyzer)
            try:
                n = int(ed) if ed else 2
            except ValueError:
                n = 2
            if toks:
                fuzzies.append((toks[0], max(0, min(n, 2))))
            continue
        if "^" in tok and bucket is should:
            # term^boost (classic parser boost syntax)
            base, _, bv = tok.partition("^")
            toks = tokenize(base, analyzer)
            try:
                bf = float(bv)
            except ValueError:
                bf = 1.0
            if toks:
                boosts.append((toks[0], bf))
            continue
        if tok.endswith("*") and len(tok) > 1 and bucket is should:
            # PrefixQuery (search/PrefixQuery.java): expanded against the
            # sorted term dictionary at search time, scoring rewrite to a
            # SHOULD disjunction capped at the max-clause count
            stem = tokenize(tok[:-1], analyzer)
            if stem:
                prefixes.append(stem[0])
            continue
        for t in tokenize(tok, analyzer):
            bucket.append(t)
    # BooleanQuery rewrite: dedup SHOULD clauses (BooleanQuery.java rewrite)
    seen = set()
    should_d = [t for t in should if not (t in seen or seen.add(t))]
    seen = set()
    must_d = [t for t in must if not (t in seen or seen.add(t))]
    return BoolQuery(
        must=tuple(must_d),
        should=tuple(should_d),
        must_not=tuple(sorted(set(must_not))),
        prefixes=tuple(dict.fromkeys(prefixes)),
        match_all=match_all,
        phrases=tuple(phrases),
        sloppy=tuple(sloppy),
        multi_phrases=tuple(multi_phrases),
        synonyms=tuple(synonyms),
        ranges=tuple(ranges),
        wildcards=tuple(wildcards),
        boosts=tuple(boosts),
        fuzzies=tuple(fuzzies),
        regexps=tuple(regexps),
        sub_must=tuple(sub_must),
        sub_should=tuple(sub_should),
        sub_must_not=tuple(sub_must_not),
    )
