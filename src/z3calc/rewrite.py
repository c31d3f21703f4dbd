"""Rewriting for finitely presented graded algebras.

A Presentation bundles an alphabet, a term order, and a list of
oriented rules lhs -> rhs where lhs is a word and rhs a polynomial in
strictly smaller words.  Reduction is one loop over an explicit stack of
frames rather than recursion: each frame is a generator that yields the
words it needs rewritten, is sent their normal forms, and returns its
sum; the loop charges the step budget, memoises each rewritten word and
pushes a frame for its reducts.  There are two kinds of frame, one per
strategy.  A leftmost frame rewrites the leftmost, first-declared match.
When every critical pair of the rules joins, Bergman's diamond lemma
(1978) says each word has exactly one normal form, so any strategy gives
the same output; normal_form then uses suffix-first frames, which put
one letter at a time in front of the normal form of the rest (the stack
discipline of Sims 1994) and so reduce and memoise only words g*v with v
irreducible.  The census that decides this runs once per rule system and
process; q_plane, h_plane, hj_calculus and qjh_calculus pass it.  Every
other presentation reduces leftmost, and so do critical_pairs, saturate
and localize, saturate's memo bookkeeping relying on that.  Reduction
never completes a presentation behind the caller's back, it only reports
critical pairs.
saturate is the explicit completion step: its sweeps append rules to
one presentation, drop only the memo entries that the new rules change,
and reduce a pair of older rules again only if one of its one-step
reducts was dropped.  The loop records where it rewrote each word, so
a memo word is scanned for the new left sides only left of that
position, with a trie of just those left sides.

Matching walks one trie over the rule left sides from each position of
the word; the trie is built on the first reduction after the rules
change.  Every trie node carries the first-declared rule among the left
sides that are prefixes of its path, so the deepest node the word
reaches names the rule to apply there; a left side that has an earlier
rule's left side as a prefix can never fire and is left out.  After a
rewrite at position i the result is scanned from i - (maxlen - 1),
maxlen being the longest left side: a match further left would lie
inside the unchanged prefix and would already have matched there.

The term order compares (total weight, length, leftmost precedence
index) with weight ascending, length DESCENDING, then lex.  Longer
words losing ties keeps substitution rules like v*vinv -> 1 oriented,
and positivity of the weights makes the order well founded either way.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction

from .scalars import ONE, specialize_q
from .freealg import GeneratorInfo, NCPolynomial, word_grade, fa_str, term_list

# Every reduction may take at most Z3CALC_STEP_BUDGET rewrite steps, this
# many when the variable is unset.
DEFAULT_BUDGET = 10**6
# sweeps of saturate; localize makes at most MAX_SWEEPS**2 passes
MAX_SWEEPS = 8


# _unique_normal_forms of each rule system met in this process
_VERDICTS = {}


def _step_budget():
    """The step budget a reduction gets: Z3CALC_STEP_BUDGET, else
    DEFAULT_BUDGET."""
    raw = os.environ.get("Z3CALC_STEP_BUDGET", DEFAULT_BUDGET)
    try:
        return int(raw)
    except ValueError:
        raise ValueError("Z3CALC_STEP_BUDGET=%r is not an integer"
                         % raw) from None


class BudgetExceeded(RuntimeError):
    """Reduction of word ran out of budget after steps rewrite steps;
    rule is the ref of the rule that fired last (None if none did)."""

    def __init__(self, word, steps, rule):
        super().__init__("step budget exceeded after %d steps while reducing "
                         "%r (last rule fired: %s)" % (steps, word, rule))
        self.word = word
        self.steps = steps
        self.rule = rule


class LocalizeError(RuntimeError):
    pass


class TermOrder:
    __slots__ = ("weights", "precedence", "_idx")

    def __init__(self, weights, precedence):
        for g in precedence:
            w = weights.get(g)
            if not isinstance(w, int) or w <= 0:
                raise ValueError("generator %r needs a positive integer weight" % g)
        self.weights = dict(weights)
        self.precedence = list(precedence)
        self._idx = {g: i for i, g in enumerate(precedence)}

    def word_weight(self, word):
        ww = self.weights
        return sum(ww[g] for g in word)

    def key(self, word):
        idx = self._idx
        return (self.word_weight(word), -len(word), tuple(idx[g] for g in word))

    def index(self, g):
        return self._idx[g]


@dataclass(frozen=True)
class RewriteRule:
    lhs: tuple
    rhs: NCPolynomial
    ref: str = ""


def _solve_for(d, lead, source="the difference"):
    """The rule lead -> ... that the identity d = 0 gives, lead being the
    leading word of the nonzero d, so every other word lies below it.  A
    nonzero scalar d, named source in the error, says 1 = 0."""
    if not lead:
        raise ValueError(source + " is a nonzero scalar: the relations "
                         "make 1 = 0")
    c = d.coeff(lead)
    rhs = (d - NCPolynomial.word(lead, c)).scale(-(c.inv()))
    return RewriteRule(lead, rhs, "derived:" + ".".join(lead))


def _rewrite_at(word, rule, pos):
    """The one-step reduct of word by rule applied at pos."""
    prefix, suffix = word[:pos], word[pos + len(rule.lhs):]
    return NCPolynomial({prefix + rw + suffix: rc
                         for rw, rc in rule.rhs.t.items()})


def _touches(words, word, rule, pos):
    """Whether a word of the one-step reduct of word by rule at pos is
    in the set words."""
    prefix, suffix = word[:pos], word[pos + len(rule.lhs):]
    for rw in rule.rhs.t:
        if prefix + rw + suffix in words:
            return True
    return False


def _lhs_trie(rules):
    """Trie over the left sides: letter -> [children, rule].

    rule is the first-declared rule whose left side is a prefix of the
    node's path, or None.
    """
    root = {}
    for r in rules:
        children, node = root, None
        for g in r.lhs:
            node = children.get(g)
            if node is None:
                node = children[g] = [{}, None]
            elif node[1] is not None:
                break  # an earlier rule matches wherever this one does
            children = node[0]
        else:
            node[1] = r

    todo = [(root, None)]
    while todo:
        children, rule = todo.pop()
        for node in children.values():
            if node[1] is None:
                node[1] = rule
            todo.append((node[0], node[1]))
    return root


def _leftmost(trie, word, start, stop):
    """(position, rule) of the leftmost match of the trie in word that
    starts in range(start, stop), or None.  It is the one scan: every
    reduction and every memo check of saturate finds its matches here."""
    n = len(word)
    for i in range(start, stop):
        node = trie.get(word[i])
        if node is None:
            continue
        j = i + 1
        while j < n:
            deeper = node[0].get(word[j])
            if deeper is None:
                break
            node = deeper
            j += 1
        if node[1] is not None:
            return i, node[1]
    return None


def _leftmost_frame(trie, memo, reducts, prefix, suffix, start):
    """A frame of the leftmost strategy: the sum of c * NF(prefix + middle
    + suffix) over the (middle, c) of reducts, as a dict that may hold
    zeros, no match in such a word starting left of start.  Each word is
    looked up in memo, memoised there if irreducible, and else yielded
    with its leftmost match, to be sent back its normal form."""
    acc = {}
    for middle, c in reducts:
        w = prefix + middle + suffix
        nf = memo.get(w)
        if nf is None:
            match = _leftmost(trie, w, start, len(w))
            if match is None:
                nf = memo[w] = NCPolynomial.word(w)
            else:
                nf = yield w, match
        for u, x in nf.t.items():
            x = c if x is ONE else c * x
            y = acc.get(u)
            acc[u] = x if y is None else y + x
    return acc


def _prepend(trie, memo, jobs, suffix):
    """A frame of the suffix-first strategy: the sum of c * NF(letters +
    suffix) over the (letters, c) of jobs, suffix being irreducible, as a
    dict that may hold zeros.  The letters are put in front of the normal
    form one at a time, last first.  Each word g*v this needs is looked up
    in memo, memoised there if irreducible, and else yielded with the
    match at 0, to be sent back its normal form."""
    acc = {}
    for letters, coeff in jobs:
        terms = {suffix: coeff}
        for g in reversed(letters):
            nxt = {}
            for v, c in terms.items():
                if not c:
                    continue
                w = (g,) + v
                nf = memo.get(w)
                if nf is None:
                    match = _leftmost(trie, w, 0, 1)
                    if match is None:
                        nf = memo[w] = NCPolynomial.word(w)
                    else:
                        nf = yield w, match
                for u, x in nf.t.items():
                    x = c if x is ONE else c * x  # ONE: w is irreducible
                    y = nxt.get(u)
                    nxt[u] = x if y is None else y + x
            terms = nxt
        for u, x in terms.items():
            y = acc.get(u)
            acc[u] = x if y is None else y + x
    return acc


# the normal form memoised for every word that reduces to zero; no reader
# changes a memoised polynomial
_ZERO_NF = NCPolynomial()


class Presentation:
    def __init__(self, name, generators, rules, order, q="symbolic"):
        self.name = name
        self.generators = list(generators)
        self.rules = []
        self.order = order
        self.q = q  # "symbolic" or a Fraction
        self.gens = {g.name: g for g in self.generators}
        self._memo = {}
        # while saturate runs: memo word -> position of the match that
        # rewrote it, for _drop_changed; None otherwise
        self._at = None
        self._append(rules)

    def _append(self, rules):
        """Declare rules after the existing ones.  The caller keeps the
        memo valid; the trie is rebuilt on next use."""
        for r in rules:
            if not r.lhs:
                raise ValueError("rule %s has an empty lhs" % (r.ref or "?"))
        self.rules.extend(rules)
        self._trie = None
        self._verdict = None

    def _index(self):
        """The trie over the left sides, built on first use after the
        rules change, together with the longest left side."""
        if self._trie is None:
            self._trie = _lhs_trie(self.rules)
            self._maxlen = max((len(r.lhs) for r in self.rules), default=1)
        return self._trie

    # -- sanity -------------------------------------------------------------

    def check_termination(self):
        """The orientation test: (ref, lhs, w) for each rhs word w not below lhs."""
        key = self.order.key
        return [(r.ref, r.lhs, w) for r in self.rules
                for w in r.rhs.support() if not key(w) < key(r.lhs)]

    def check_homogeneity(self):
        """Rules must preserve the effective Z3 grade."""
        bad = []
        for r in self.rules:
            lg = word_grade(r.lhs, self.gens)
            for w in r.rhs.support():
                if word_grade(w, self.gens) != lg:
                    bad.append((r.ref, r.lhs, w))
        return bad

    # -- reduction ----------------------------------------------------------

    def normal_form(self, p):
        """The normal form of the polynomial p, suffix first when every
        word has one normal form (see _unique_normal_forms), else by the
        leftmost, first-declared rule."""
        return self._reduce(p, _step_budget(), self._unique_normal_forms())

    def _reduce(self, p, budget, suffix_first=False):
        """The normal form of p by the leftmost, first-declared rule, or,
        if suffix_first, by putting one letter at a time in front of the
        normal form of the rest, which gives the same result when normal
        forms are unique.  Reduction runs on a stack of frames, p's at the
        bottom and one above it for each word being rewritten: a generator
        (_leftmost_frame or _prepend) that yields each word it needs
        rewritten with its match, is sent the word's normal form, and
        returns its sum.  The word is memoised when its frame returns.
        While saturate runs, the position of the match is recorded in _at
        for each word rewritten.  Only a memo miss that rewrites is charged
        against the budget."""
        trie, memo, at = self._index(), self._memo, self._at
        maxlen = self._maxlen
        left, last = budget, None  # last: ref of the last rule fired
        stack = [_prepend(trie, memo, p.t.items(), ()) if suffix_first
                 else _leftmost_frame(trie, memo, p.t.items(), (), (), 0)]
        words, nf = [], None
        while True:
            try:
                w, (i, rule) = stack[-1].send(nf)
            except StopIteration as done:
                stack.pop()
                nf = NCPolynomial(done.value)
                if not stack:
                    return nf
                memo[words.pop()] = nf if nf.t else _ZERO_NF
                continue
            left -= 1
            if left < 0:
                raise BudgetExceeded(w, max(budget, 0), last)
            last = rule.ref
            if at is not None:
                at[w] = i
            reducts, suffix = rule.rhs.t.items(), w[i + len(rule.lhs):]
            stack.append(
                _prepend(trie, memo, reducts, suffix) if suffix_first
                else _leftmost_frame(trie, memo, reducts, w[:i], suffix,
                                     max(0, i - maxlen + 1)))
            words.append(w)
            nf = None

    def _unique_normal_forms(self):
        """Whether every word has one normal form, so that any strategy
        gives the leftmost strategy's result.  By Bergman's diamond lemma
        (1978) it holds when the rules are oriented by the term order, a
        well-founded semigroup order, and every ambiguity is joinable.  The
        census runs once per rule system in a process, reducing leftmost
        on a copy that has its own memo, under DEFAULT_BUDGET,
        and stops at the first pair that does not join; running out of
        budget counts as not joinable."""
        if self._verdict is None:
            key = (tuple((r.lhs, frozenset(r.rhs.t.items()))
                         for r in self.rules),
                   tuple(sorted(self.order.weights.items())),
                   tuple(self.order.precedence), self.q)
            verdict = _VERDICTS.get(key)
            if verdict is None:
                verdict = _VERDICTS[key] = self._census_joins()
            self._verdict = verdict
        return self._verdict

    def _census_joins(self):
        P = Presentation(self.name, self.generators, self.rules, self.order,
                         q=self.q)
        try:
            return not self.check_termination() and all(
                nf1 == nf2 for *_, nf1, nf2 in P._pairs(DEFAULT_BUDGET))
        except BudgetExceeded:
            return False

    def nf_word(self, word):
        return self.normal_form(NCPolynomial.word(word))

    # -- critical pairs -----------------------------------------------------

    def critical_pairs(self):
        """All overlap and containment ambiguities, each reduced both ways
        by the leftmost, first-declared rule.

        Returns a list of dicts with the ambiguous word, the two rule
        refs, both normal forms, and whether they agree.  No completion
        is attempted.
        """
        return [{"word": word, "rules": (r1.ref, r2.ref), "nf1": nf1,
                 "nf2": nf2, "joinable": nf1 == nf2}
                for r1, r2, word, nf1, nf2 in self._pairs(_step_budget())]

    def _pairs(self, budget, old=0, dropped=()):
        """(r1, r2, word, nf1, nf2) for each ambiguity, in _ambiguities()
        order: r1 and r2 apply to word, and nf1 and nf2 are their one-step
        reducts reduced by the leftmost, first-declared rule.  A pair of two
        rules below index old is skipped when no word of either reduct is in
        dropped, as saturate's rescan needs; the defaults keep every pair."""
        rules = self.rules
        for i1, i2, word, p2 in self._ambiguities():
            r1, r2 = rules[i1], rules[i2]
            if (i1 < old and i2 < old and not _touches(dropped, word, r1, 0)
                    and not _touches(dropped, word, r2, p2)):
                continue
            yield (r1, r2, word,
                   self._reduce(_rewrite_at(word, r1, 0), budget),
                   self._reduce(_rewrite_at(word, r2, p2), budget))

    def _ambiguities(self):
        """(i1, i2, word, p2) for each ambiguity: rules[i1] applies to word
        at 0 and rules[i2] at p2.  Overlaps of rules[i1] come before its
        inclusions, each kind ordered by i2."""
        rules = self.rules
        by_prefix = {}  # proper prefix of a lhs -> indices of its rules
        by_lhs = {}
        for i, r in enumerate(rules):
            by_lhs.setdefault(r.lhs, []).append(i)
            for k in range(1, len(r.lhs)):
                by_prefix.setdefault(r.lhs[:k], []).append(i)
        lengths = sorted({len(lhs) for lhs in by_lhs})
        for i1, r1 in enumerate(rules):
            l1 = r1.lhs
            n1 = len(l1)
            # (i2, 0, k): a suffix of length k of l1 is a prefix of l2;
            # (i2, 1, p): l2 sits inside l1 at p.  Sorting gives the order
            # of a loop over i2, overlaps before inclusions.
            found = []
            for k in range(1, n1):
                for i2 in by_prefix.get(l1[-k:], ()):
                    found.append((i2, 0, k))
            for p in range(n1):
                for m in lengths:
                    if m > n1 - p:
                        break
                    for i2 in by_lhs.get(l1[p:p + m], ()):
                        # two rules with one lhs are a single inclusion
                        # ambiguity, examined once
                        if m < n1 or i1 < i2:
                            found.append((i2, 1, p))
            found.sort()
            for i2, inside, x in found:
                if inside:
                    yield i1, i2, l1, x
                else:
                    yield i1, i2, l1 + rules[i2].lhs[x:], n1 - x

    def pair_census(self):
        pairs = self.critical_pairs()
        bad = [p for p in pairs if not p["joinable"]]
        return {
            "preset": self.name,
            "pairs": len(pairs),
            "joinable": len(pairs) - len(bad),
            "unjoinable": [
                {
                    "word": list(p["word"]),
                    "rules": list(p["rules"]),
                    "difference": fa_str(p["nf1"] - p["nf2"], self.order.key),
                }
                for p in bad
            ],
        }

    # -- q specialisation ----------------------------------------------------

    def specialize(self, q0):
        q0 = Fraction(q0)
        rules = []
        for r in self.rules:
            rhs = NCPolynomial({w: specialize_q(c, q0) for w, c in r.rhs.t.items()})
            rules.append(RewriteRule(r.lhs, rhs, r.ref))
        return Presentation(self.name, self.generators, rules, self.order,
                            q=q0)

    # -- serialisation --------------------------------------------------------

    def to_json(self):
        gens = []
        for g in self.generators:
            d = {"name": g.name, "grade": g.grade, "weight": g.weight}
            if g.nilpotency is not None:
                d["nilpotency"] = g.nilpotency
            if g.d_image is not None:
                d["d_image"] = g.d_image
            gens.append(d)
        rules = []
        for r in self.rules:
            rules.append({"lhs": list(r.lhs),
                          "rhs": term_list(r.rhs, self.order.key),
                          "ref": r.ref})
        return {
            "name": self.name,
            "generators": gens,
            "rules": rules,
            "order": {"weights": dict(self.order.weights),
                      "precedence": list(self.order.precedence)},
            "q": str(self.q),
        }

    @staticmethod
    def from_json(doc):
        """Inverse of to_json; a malformed document raises ValueError."""
        from .parser import ParseError, parse_scalar, q_value

        if not (isinstance(doc, dict) and isinstance(doc.get("name"), str)
                and isinstance(doc.get("generators"), list)
                and isinstance(doc.get("rules"), list)
                and isinstance(doc.get("order"), dict)):
            raise ValueError("a preset is a JSON object with a name string, "
                             "generators and rules lists, and an order object")
        gens = []
        for n, d in enumerate(doc["generators"]):
            if not (isinstance(d, dict) and isinstance(d.get("name"), str)
                    and isinstance(d.get("grade"), int)
                    and isinstance(d.get("weight"), int)
                    and isinstance(d.get("nilpotency", 0), int)
                    and isinstance(d.get("d_image", ""), str)):
                raise ValueError("generator #%d needs a name and an integer "
                                 "grade and weight; a nilpotency is an "
                                 "integer and a d_image a string" % n)
            if any(g.name == d["name"] for g in gens):
                raise ValueError("generator #%d repeats the name %r"
                                 % (n, d["name"]))
            gens.append(GeneratorInfo(d["name"], d["grade"], d["weight"],
                                      d.get("nilpotency"), d.get("d_image")))
        names = {g.name for g in gens}
        od = doc["order"]
        prec = od.get("precedence")
        weights = od.get("weights")
        if not (isinstance(weights, dict) and set(weights) == names
                and isinstance(prec, list)
                and sorted(prec, key=str) == sorted(names, key=str)):
            raise ValueError("order needs weights and a precedence that list "
                             "each generator once")
        order = TermOrder(weights, prec)

        def word(w, tag):
            if not (isinstance(w, list)
                    and all(isinstance(g, str) and g in names for g in w)):
                raise ValueError("rule %s: %r is not a word in the generators"
                                 % (tag, w))
            return tuple(w)

        q = doc.get("q", "symbolic")
        if q != "symbolic":
            try:
                q = q_value(str(q), "q")
            except ValueError as e:
                raise ValueError("q must be \"symbolic\" or a rational: %s"
                                 % e) from None
        rules, owner = [], {}
        for n, rd in enumerate(doc["rules"]):
            if not (isinstance(rd, dict) and "lhs" in rd
                    and isinstance(rd.get("rhs"), list)):
                raise ValueError("rule #%d needs an lhs and an rhs list" % n)
            if not isinstance(rd.get("ref", ""), str):
                raise ValueError("rule #%d: its ref is not a string" % n)
            tag = rd.get("ref") or "#%d" % n
            lhs = word(rd["lhs"], tag)
            if not lhs:
                raise ValueError("rule %s has an empty lhs" % tag)
            if lhs in owner:
                raise ValueError("rule %s repeats the lhs of rule %s"
                                 % (tag, owner[lhs]))
            owner[lhs] = tag
            rhs = NCPolynomial.zero()
            for k, t in enumerate(rd["rhs"]):
                if not (isinstance(t, dict) and isinstance(t.get("coeff"), str)
                        and "word" in t):
                    raise ValueError("rule %s: rhs term %r needs a coeff string "
                                     "and a word" % (tag, t))
                try:
                    c = parse_scalar(t["coeff"], q)
                except ParseError as e:  # the coeff itself may be huge
                    raise ValueError("rule %s: rhs term %d: %s"
                                     % (tag, k, e)) from None
                rhs = rhs + NCPolynomial.word(word(t["word"], tag), c)
            rules.append(RewriteRule(lhs, rhs, rd.get("ref", "")))
        return Presentation(doc["name"], gens, rules, order, q=q)

    def dumps(self):
        return json.dumps(self.to_json(), indent=2, ensure_ascii=False) + "\n"

    def same_rules(self, other):
        """Structural equality of rule systems, ignoring names and refs."""
        def norm(p):
            return sorted(
                (r.lhs, tuple(sorted(r.rhs.t.items(), key=lambda it: it[0])))
                for r in p.rules
            )
        return norm(self) == norm(other)


# ---------------------------------------------------------------------------
# saturation and localization

def saturate(pres, skip=None):
    """Append oriented critical-pair differences as derived rules.

    Each sweep reduces the ambiguities both ways and turns any nonzero
    difference into a new rule headed by its leading word; the sweep's
    rules are appended when it ends.  Sweeps repeat until nothing
    admissible is left.  skip filters candidate left sides: a system
    whose completion grows without bound passes a predicate that cuts
    off the runaway families and accepts partial saturation instead of
    confluence.

    All sweeps share one presentation and its memo.  Appending rules
    drops exactly the memo words whose reduction they change: a word
    whose leftmost match starts right of a new left side's occurrence
    (anywhere, for an irreducible word), and a word whose rewrite step
    produced a dropped word.  Leftmost reduction records where it
    rewrote each word, so only the part left of that position is
    scanned, for the new left sides alone.  An ambiguity of two rules
    that the previous sweep already had is skipped when none of its
    one-step reducts was dropped, which its words tell before any
    polynomial is built.  Its difference is then the one that sweep saw,
    and that sweep added its leading word as a rule or refused it (the
    word was a left side already or skip held), so it can add nothing
    now.  The rules, their order and every normal form are those of
    recomputing every ambiguity in every sweep.  The presentation is
    returned with an empty memo, as a fresh one would be.
    """
    P = Presentation(pres.name, pres.generators, pres.rules, pres.order,
                     q=pres.q)
    P._at = {}
    key, budget = pres.order.key, _step_budget()
    seen = {r.lhs for r in P.rules}
    old, dropped = 0, set()
    for _ in range(MAX_SWEEPS):
        new = []
        for r1, r2, word, nf1, nf2 in P._pairs(budget, old, dropped):
            d = nf1 - nf2
            if d.is_zero():
                continue
            lead = max(d.support(), key=key)
            if lead in seen or (skip is not None and skip(lead)):
                continue
            seen.add(lead)
            new.append(_solve_for(d, lead, "the ambiguity %s of rules %s and %s"
                                  % ("*".join(word), r1.ref, r2.ref)))
        if not new:
            break
        old = len(P.rules)
        dropped = _drop_changed(P, new)
    # the pairs' words would only hold memory, and later reductions are
    # charged against the step budget as in a fresh presentation
    P._memo.clear()
    P._at = None
    return P


def _drop_changed(P, new):
    """Declare the rules new after P's rules, then drop from P's memo, and
    return, every word whose reduction that changes.  Its leftmost match
    may now be a new rule: at the old match, P._at[w], the old rule still
    wins, as it was declared first, and left of it only a new left side
    can match, so only that part is scanned, with a trie of new's left
    sides (all of an irreducible word).  Or its rewrite step produced a
    dropped word, which the memo lists first."""
    P._append(new)
    trie, memo, at = P._index(), P._memo, P._at
    fresh = _lhs_trie(new)
    dropped = set()
    for w in memo:
        i = at.get(w)
        if _leftmost(fresh, w, 0, len(w) if i is None else i) is not None:
            dropped.add(w)
        elif (i is not None and dropped
              and _touches(dropped, w, _leftmost(trie, w, i, i + 1)[1], i)):
            dropped.add(w)
    for w in dropped:
        del memo[w]
        at.pop(w, None)
    return dropped


def localize(pres, v, vinv):
    """Adjoin a two-sided inverse vinv for the generator v.

    For each other generator g, the passage rule v*g -> c0 * g*v + rest
    gives the candidate vinv*g -> (g*vinv - vinv*rest*vinv) / c0, and a
    rule g*v gives the mirror image.  Each pass builds one presentation
    from the base, extra, inverse and candidate rules and recomputes
    every candidate against it; the nilpotent corrections make them
    settle.  A pass that changes no candidate multiplies each back on the
    same presentation.  A nonzero residual is a valid identity of the
    localized ring (the candidate equals vinv*g there by construction), so
    it is solved for its leading word as an extra rule and the passes go
    on; this absorbs relations that only appear once v can be cancelled.
    Orientation is left to check_termination.
    """
    gv = pres.gens[v]
    generators = list(pres.generators) + [
        GeneratorInfo(vinv, (3 - gv.grade) % 3, (3 - gv.weight) % 3)]

    weights = dict(pres.order.weights)
    weights[vinv] = weights[v]
    precedence = list(pres.order.precedence)
    precedence.insert(precedence.index(v), vinv)  # vinv just below v
    order = TermOrder(weights, precedence)

    inv_rules = [
        RewriteRule((v, vinv), NCPolynomial.unit(), "inv:%s" % v),
        RewriteRule((vinv, v), NCPolynomial.unit(), "inv:%s" % vinv),
    ]
    by_lhs = {r.lhs: r for r in pres.rules}

    # (lhs, g, left, vinv*rest*vinv, 1/c0), lhs vinv*g if left, else g*vinv
    targets = []
    for g in order.precedence:
        if g in (v, vinv):
            continue
        left = order.index(g) < order.index(vinv)
        pair = (v, g) if left else (g, v)
        base = by_lhs.get(pair)
        if base is None:
            raise LocalizeError("no passage rule for (%s, %s)" % pair)
        c0 = base.rhs.t.get(pair[::-1])
        if c0 is None:
            raise LocalizeError("passage rule %r has no %r term"
                                % (pair, pair[::-1]))
        wrapped = NCPolynomial({(vinv,) + w + (vinv,): c for w, c
                                in base.rhs.t.items() if w != pair[::-1]})
        targets.append(((vinv, g) if left else (g, vinv), g, left, wrapped,
                        c0.inv()))

    candidates = {}
    extra = []
    budget = _step_budget()
    for _ in range(MAX_SWEEPS * MAX_SWEEPS):
        trial = Presentation(
            pres.name + "_loc_" + v, generators,
            pres.rules + extra + inv_rules
            + [RewriteRule(lhs, rhs, "derived:%s*%s" % lhs)
               for lhs, rhs in candidates.items()],
            order, q=pres.q)
        new = {lhs: (NCPolynomial.word(lhs[::-1])
                     - trial._reduce(wrapped, budget)).scale(cinv)
               for lhs, g, left, wrapped, cinv in targets}
        if new != candidates:
            candidates = new
            continue

        # multiply-back check: v * (vinv*g) == g and (g*vinv) * v == g
        bad = []
        for lhs, g, left, _, _ in targets:
            x = candidates[lhs]
            prod = NCPolynomial.gen(v) * x if left else x * NCPolynomial.gen(v)
            res = (trial._reduce(prod, budget)
                   - trial._reduce(NCPolynomial.gen(g), budget))
            if not res.is_zero():
                bad.append((lhs, res))
        if not bad:
            return trial
        for lhs, res in bad:
            lead = max(res.support(), key=order.key)
            if any(r.lhs == lead for r in extra):
                raise LocalizeError("derived rule for %r fails multiply-back" % (lhs,))
            extra.append(_solve_for(res, lead, "the multiply-back residual "
                                    "of %s" % "*".join(lhs)))
    raise LocalizeError("localization of %s did not stabilise" % v)
