"""Rewriting for finitely presented graded algebras.

A Presentation bundles an alphabet, a term order, and a list of
oriented rules lhs -> rhs where lhs is a word and rhs a polynomial in
strictly smaller words.  Reduction is one loop over an explicit stack of
frames rather than recursion: each frame is a generator that looks the
words it needs up in the memo, yields each miss, is sent its normal
form, and returns its sum; the loop alone matches a yielded word,
memoises it, charges the step budget and pushes a frame for its
reducts.  A leftmost frame's words are rewritten at the leftmost,
first-declared match.  When every critical pair of the rules joins,
Bergman's diamond lemma (1978) says each word has exactly one normal
form, so any strategy gives the same output; normal_form then uses
suffix-first frames, which put one letter at a time in front of the
normal form of the rest (the stack discipline of Sims 1994) and so
reduce and memoise only words g*v with v irreducible.  The census that
decides this runs once per rule system and process; q_plane, h_plane,
hj_calculus and qjh_calculus pass it.  Every other presentation reduces
leftmost, and so do critical_pairs, saturate and localize.  The
suffix-first frame of the polynomial itself, at the bottom of the stack,
also uses NF(g*p) = NF(g*NF(p)): it takes the words in sorted order,
which walks their prefix trie depth first without building it, folds the
letters of a prefix that words share once onto the merged normal form of
what follows them, and folds a word alone below a prefix through the
normal forms of its suffixes.  Those come from the suffix cache, a trie
of NF(v) per packed suffix v that the presentation keeps beside its
memo, so lone words that end alike share them within a call and across
calls.  The reduced image of a word under a twisted derivation D
(calculus.DifferentialOperator's d) comes from its own bottom frame,
_leibniz: it folds each word's suffixes right to left by
NF(D(g*v)) = NF(D(g)*NF(v)) + t(g) * NF(g*NF(D(v))), reading NF(v) from
the suffix cache and NF(D(v)) from a trie that D's owner keeps
(_image_cache), so it reaches only words g*u with u irreducible.  A node
of either trie is linked only once its normal form is whole.  Each memo
entry g*v is still inserted after the entries that its normal form
folds, so every entry can be checked from earlier ones in insertion
order.  A presentation's rules are fixed when it is built, so the memo
and every trie hold for its whole life.  Reduction never completes a
presentation behind the caller's back, it only reports critical pairs.
saturate is the explicit completion step: each sweep builds a fresh
presentation from the rules so far and reduces every ambiguity on it,
as localize builds one per pass.

Inside the engine a word is packed: a str with one code point per
letter, chr(i) for the i-th generator (see _Codes), and a normal form is
a plain dict packed word -> nonzero scalar.  Each rule is packed, both
sides, once per rule system and process: codes, packed rules, trie and
verdict form one record, which _SYSTEMS keeps by content once its
verdict is asked for, and later presentations of the system share it,
each with a memo of its own.  The packed core _reduce_packed runs one
bottom frame under one step budget, and there are three ways in:
_reduce packs a polynomial into a bottom frame and unpacks its normal
form into a polynomial; _image_forms does the same for the images under
D of a polynomial's words, summed in one _leibniz frame; and _pairs
reduces each side of an ambiguity from a frame over the rule's packed
reducts between the prefix and suffix of the word.  The ambiguities,
the memo, the frames and the tries are packed; critical_pairs and
saturate unpack only what they hand out.  A str caches its hash and
copies one code point per letter, where a tuple rehashes on every memo
lookup and copies a pointer per letter.  Rules, BudgetExceeded.word and
every caller keep tuples.

Matching walks one trie over the rule left sides from each position of
the word; the trie is built with the record.  Every trie node
carries the first-declared rule among the left sides that are
prefixes of its path, so the deepest node the word reaches names the
rule to apply there; a left side that has an earlier rule's left side
as a prefix can never fire and is left out.  After a rewrite at
position i the result is scanned from i - (maxlen - 1), maxlen being
the longest left side: a match further left would lie inside the
unchanged prefix and would already have matched there.

The term order compares (total weight, length, leftmost precedence
index) with weight ascending, length DESCENDING, then lex.  Longer
words losing ties keeps substitution rules like v*vinv -> 1 oriented,
and positivity of the weights makes the order well founded either way.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

from .scalars import ONE, specialize_q
from .freealg import GeneratorInfo, NCPolynomial, word_grade, fa_str, term_list
from .parser import _echo

# Every reduction may take at most Z3CALC_STEP_BUDGET rewrite steps, this
# many when the variable is unset.
DEFAULT_BUDGET = 10**6
# sweeps of saturate; localize makes at most MAX_SWEEPS**2 passes
MAX_SWEEPS = 8


# content key -> [codes, entries, trie, maxlen, verdict, key] of each rule
# system whose verdict (_unique_normal_forms) was asked for in this process
_SYSTEMS = {}


def _step_budget():
    """The step budget a reduction gets: Z3CALC_STEP_BUDGET, else
    DEFAULT_BUDGET."""
    raw = os.environ.get("Z3CALC_STEP_BUDGET", DEFAULT_BUDGET)
    try:
        return int(raw)
    except ValueError:
        raise ValueError("Z3CALC_STEP_BUDGET=%s is not an integer"
                         % _echo(raw)) from None


class BudgetExceeded(RuntimeError):
    """Reduction of word ran out of budget after steps rewrite steps;
    rule is the ref of the rule that fired last (None if none did)."""

    def __init__(self, word, steps, rule):
        super().__init__("step budget exceeded after %d steps while reducing "
                         "%s (last rule fired: %s)" % (steps, _echo(word), rule))
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
            if type(w) is not int or w <= 0:  # bool is an int subclass
                raise ValueError("generator %s needs a positive integer weight"
                                 % _echo(g))
        self.weights = dict(weights)
        self.precedence = list(precedence)
        self._idx = {g: i for i, g in enumerate(precedence)}

    def key(self, word):
        ww, idx = self.weights, self._idx
        return (sum(ww[g] for g in word), -len(word), tuple(idx[g] for g in word))


class RewriteRule:
    """lhs -> rhs: a word, the polynomial it rewrites to, and a label."""

    __slots__ = ("lhs", "rhs", "ref")

    def __init__(self, lhs, rhs, ref=""):
        self.lhs, self.rhs, self.ref = lhs, rhs, ref


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


class _Codes(dict):
    """Generator name -> its letter in a packed word, chr(i) for the i-th
    generator; names maps each code point back.  A name outside the
    alphabet gets the next free code point the first time it is packed,
    so a word may still hold a letter that no generator names."""

    __slots__ = ("names",)

    def __init__(self, generators):
        self.names = {chr(i): g.name for i, g in enumerate(generators)}
        super().__init__((g, c) for c, g in self.names.items())

    def __missing__(self, name):
        c = self[name] = chr(len(self.names))
        self.names[c] = name
        return c

    def pack(self, word):
        return "".join(map(self.__getitem__, word))

    def unpack(self, word):
        return tuple(map(self.names.__getitem__, word))

    def unpack_poly(self, nf):
        """The normal form nf, a dict packed word -> nonzero scalar, as a
        polynomial over tuples of names."""
        name, r = self.names.__getitem__, NCPolynomial()
        r.t = {tuple(map(name, u)): c for u, c in nf.items()}
        return r


def _lhs_trie(entries):
    """Trie over the packed left sides of the (ref, packed left side,
    packed reducts) entries that the presentation builds, one per rule:
    letter -> [children, entry].

    entry is that of the first-declared rule whose left side is a prefix
    of the node's path, or None.
    """
    root = {}
    for e in entries:
        children, node = root, None
        for g in e[1]:
            node = children.get(g)
            if node is None:
                node = children[g] = [{}, None]
            elif node[1] is not None:
                break  # an earlier rule matches wherever this one does
            children = node[0]
        else:
            node[1] = e

    todo = [(root, None)]
    while todo:
        children, entry = todo.pop()
        for node in children.values():
            if node[1] is None:
                node[1] = entry
            todo.append((node[0], node[1]))
    return root


def _leftmost(trie, word, start, stop):
    """(position, entry) of the leftmost match of the trie in the packed
    word that starts in range(start, stop), or None.  It is the one scan:
    only Presentation._reduce_packed calls it, for each word a frame
    yields."""
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


def _leftmost_frame(memo, reducts, prefix, suffix):
    """A frame of the leftmost strategy: the sum of c * NF(prefix + middle
    + suffix) over the (middle, c) of reducts, as a dict that may hold
    zeros; every word is packed.  Each word is looked up in memo, and else
    yielded, to be sent back its normal form."""
    acc = {}
    for middle, c in reducts:
        w = prefix + middle + suffix
        nf = memo.get(w)
        if nf is None:
            nf = yield w
        for u, x in nf.items():
            x = c if x is ONE else c * x
            y = acc.get(u)
            acc[u] = x if y is None else y + x
    return acc


def _horner(memo, suffixes, items):
    """The bottom frame of the suffix-first strategy: the sum of c * NF(w)
    over the (w, c) of items, as a dict that may hold zeros; every word
    is packed.

    Since NF(g*p) = NF(g*NF(p)) when normal forms are unique, the words
    are grouped by prefix and the letters of a shared prefix are folded
    once onto the merged normal form of what follows them, deepest
    prefixes first (Horner's rule in the free algebra).  The words are
    taken in sorted order, which walks their prefix trie depth first
    without building it: the stack holds, for each open prefix of the
    last word, its length and the sum so far of what follows it.  A word
    alone below a prefix is folded right to left through the suffix cache
    suffixes, with coefficient 1 (see _suffix), so that lone words that
    end alike, in this call or an earlier one, share the normal forms of
    their suffixes; its own coefficient is applied once at the end.  A
    single word thus takes the folds, and reaches the words, that _fold
    would, less those that the suffix cache already holds.  Every fold is
    _fold's, and the words are walked by loops, so a long word or a deep
    prefix needs no recursion."""
    stack = [(0, {})]
    last = ""
    for w, c in sorted(items) + [("", None)]:  # "": every prefix closes
        k = 0  # the length of the prefix that w shares with last
        for a, b in zip(last, w):
            if a != b:
                break
            k += 1
        lone = True  # the first prefix to close is last, a word alone
        while stack[-1][0] > k:
            n, terms = stack.pop()
            if stack[-1][0] < k:
                stack.append((k, {}))
            j, acc = stack[-1]
            if lone:
                s = yield from _suffix(memo, suffixes, last, n, j)
                _add(acc, s[1], terms[""])
            else:
                yield from _fold(memo, ((last[j:n], ONE),), terms, acc)
            lone = False
        if c is None:
            return stack[-1][1]
        stack.append((len(w), {"": c}))
        last = w


def _fold(memo, jobs, terms, acc):
    """acc += the sum of coeff * NF(letters * p) over the (letters, coeff)
    of jobs, p being the sum of c * v over the (v, c) of terms, each v
    irreducible; returns acc, which may hold zeros.  Every word is packed.
    It is the one suffix-first fold, and the frame of a rewritten word
    (jobs the rule's reducts, terms the rest of the word): the letters are
    put in front one at a time, last first, and each word g*u this needs
    is looked up in memo, and else yielded, to be sent back its NF."""
    for letters, coeff in jobs:
        nxt = terms
        for g in reversed(letters):
            cur, nxt = nxt, {}
            for v, c in cur.items():
                if not c:
                    continue
                w = g + v
                nf = memo.get(w)
                if nf is None:
                    nf = yield w
                for u, x in nf.items():
                    # c * x, skipping a factor ONE
                    x = c if x is ONE else x if c is ONE else c * x
                    y = nxt.get(u)
                    nxt[u] = x if y is None else y + x
        for u, x in nxt.items():
            x = coeff if x is ONE else x if coeff is ONE else coeff * x
            y = acc.get(u)
            acc[u] = x if y is None else y + x
    return acc


def _add(acc, terms, scale):
    """acc += scale * terms, both dicts word -> scalar."""
    for u, x in terms.items():
        if scale is not ONE:
            x = scale * x
        y = acc.get(u)
        acc[u] = x if y is None else y + x


def _suffix(memo, s, word, j, k):
    """The node of the suffix cache that holds NF(word[k:]), walked to
    from s, the node of word[j:], k <= j.  A node is [letter to its left
    -> node, NF]; each one missing on the way is folded from the one
    after it by _fold and linked only once its normal form is whole, so a
    BudgetExceeded leaves no partial entry."""
    while j > k:
        j -= 1
        nxt = s[0].get(word[j])
        if nxt is None:
            nf = yield from _fold(memo, ((word[j], ONE),), s[1], {})
            nxt = s[0][word[j]] = [{}, nf]
        s = nxt
    return s


def _derived(node, word, k):
    """(node, i): the node of the longest suffix word[i:] of the packed
    word in a trie of NF(D(v)) per suffix v, walked on from word[k:]'s."""
    while k:
        nxt = node[0].get(word[k - 1])
        if nxt is None:
            break
        node, k = nxt, k - 1
    return node, k


def _leibniz(memo, suffixes, images, jobs, acc):
    """The bottom frame of a twisted derivation D in the suffix-first
    strategy: acc += the sum of c * NF(D(word)) over the (c, word, node, k)
    of jobs, each word packed; returns acc, which may hold zeros.  images
    maps a letter g to (t(g), D(g)), D(g) as (packed word, coefficient)
    pairs, and D(g*v) = D(g)*v + t(g)*g*D(v).  Since NF(g*p) = NF(g*NF(p))
    when normal forms are unique,

        NF(D(g*v)) = NF(D(g)*NF(v)) + t(g) * NF(g*NF(D(v)))

    over the suffixes g*v of each word, right to left, from the longest
    suffix whose NF(D) the trie holds, walked on from node, that of
    word[k:], as an earlier job may have linked more.  NF(v) is read from,
    and folded into, the suffix cache suffixes by _suffix, and only where
    D(g) is not zero.  A node of either trie is [letter to its left ->
    node, NF] and is linked only once its normal form is whole, so a
    BudgetExceeded leaves no partial entry.  Every fold is _fold's, into
    the node's NF; the jobs and the suffixes are walked by loops, so a long
    word needs no recursion."""
    for c, word, node, k in jobs:
        node, k = _derived(node, word, k)
        s, j = suffixes, len(word)  # s holds NF(word[j:])
        while k:
            k -= 1
            g = word[k]
            twist, image = images[g]
            nf = {}
            if image:
                s = yield from _suffix(memo, s, word, j, k + 1)
                j = k + 1
                yield from _fold(memo, image, s[1], nf)
            yield from _fold(memo, ((g, twist),), node[1], nf)
            node[0][g] = node = [{}, nf]
        _add(acc, node[1], c)
    return acc


class Presentation:
    def __init__(self, name, generators, rules, order, q="symbolic"):
        self.name = name
        self.generators = list(generators)
        self.rules = list(rules)
        self.order = order
        self.q = q  # "symbolic" or a Fraction
        self.gens = {g.name: g for g in self.generators}
        # the tables below depend on this key alone: see _SYSTEMS
        key = (tuple(g.name for g in self.generators),
               tuple((r.ref, r.lhs, tuple(r.rhs.t.items()))
                     for r in self.rules),
               tuple(sorted(order.weights.items())),
               tuple(order.precedence), q)
        system = _SYSTEMS.get(key)
        if system is None:
            for r in self.rules:
                if not r.lhs:
                    raise ValueError("rule %s has an empty lhs"
                                     % _echo(r.ref or "?", str))
            # each rule packed: (ref, lhs, rhs as (word, coefficient) pairs)
            codes = _Codes(self.generators)
            entries = [(r.ref, codes.pack(r.lhs),
                        [(codes.pack(w), c) for w, c in r.rhs.t.items()])
                       for r in self.rules]
            maxlen = max((len(r.lhs) for r in self.rules), default=1)
            system = [codes, entries, _lhs_trie(entries), maxlen, None, key]
        self._system = system
        self._codes, self._entries, self._trie, self._maxlen = system[:4]
        # the rules are fixed from here on, so every cache below holds for
        # the life of the presentation
        self._memo = {}
        # NF(v) per packed suffix v, a trie: [letter to its left -> node, NF]
        self._suffixes = [{}, {"": ONE}]
        # the calculus operators built on this presentation, by class: their
        # images and rows depend only on the generators and q
        self.operators = {}

    # -- sanity -------------------------------------------------------------

    def check_termination(self):
        """The orientation test: (ref, lhs, w) for each rhs word w not below lhs."""
        key = self.order.key
        return [(r.ref, r.lhs, w) for r in self.rules
                for w in r.rhs.support() if not key(w) < key(r.lhs)]

    def check_homogeneity(self):
        """Rules must preserve the effective Z3 grade."""
        gens = self.gens
        return [(r.ref, r.lhs, w) for r in self.rules for w in r.rhs.support()
                if word_grade(w, gens) != word_grade(r.lhs, gens)]

    # -- reduction ----------------------------------------------------------

    def normal_form(self, p):
        """The normal form of the polynomial p, suffix first when every
        word has one normal form (see _unique_normal_forms), else by the
        leftmost, first-declared rule."""
        return self._reduce(p, _step_budget(), self._unique_normal_forms())

    def _reduce(self, p, budget, suffix_first=False):
        """The normal form of the polynomial p, over tuples of names: p is
        packed into a bottom frame (_horner suffix first, else a
        _leftmost_frame) for _reduce_packed, and the result unpacked."""
        items = [(self._codes.pack(w), c) for w, c in p.t.items()]
        bottom = (_horner(self._memo, self._suffixes, items) if suffix_first
                  else _leftmost_frame(self._memo, items, "", ""))
        return self._codes.unpack_poly(
            self._reduce_packed(bottom, budget, suffix_first))

    def _image_cache(self, twisted):
        """A cache for _image_forms of the twisted derivation D, whose
        twisted maps each letter g to (t(g), D(g)): the root of a trie of
        NF(D(v)) per packed suffix v, and twisted packed."""
        codes, pack = self._codes, self._codes.pack
        return [{}, {}], {codes[g]: (t, [(pack(w), c) for w, c in d.t.items()])
                          for g, (t, d) in twisted.items()}

    def _image_forms(self, cache, p):
        """NF(D(p)), unique normal forms given, as the sum over the terms
        c*w of p of c * NF(D(w)), taken over packed dicts; cache is D's
        (_image_cache).  A word whose NF(D) its trie holds is a hit, not
        charged, as a memo hit is not; each other word, its letters checked
        first, is a job of one _leibniz bottom frame, which adds its
        NF(D) into the same sum under one step budget."""
        (derived, images), codes = cache, self._codes
        acc, jobs = {}, []
        for w, c in p.t.items():
            w = codes.pack(w)
            node, k = _derived(derived, w, len(w))
            if not k:
                _add(acc, node[1], c)
                continue
            if not images.keys() >= set(w):
                raise KeyError("d undefined on generator %r" % next(
                    codes.names[g] for g in w if g not in images))
            jobs.append((c, w, node, k))
        bottom = _leibniz(self._memo, self._suffixes, images, jobs, acc)
        return codes.unpack_poly(self._reduce_packed(bottom, _step_budget(),
                                                     True))

    def _reduce_packed(self, bottom, budget, suffix_first=False):
        """The normal form, as a dict packed word -> nonzero scalar, of the
        sum that the bottom frame returns, under the step budget, by the
        leftmost, first-declared rule, or, if suffix_first, by putting one
        letter at a time in front of the normal form of the rest, which
        gives the same result when normal forms are unique.  A frame is a
        generator that looks each word it needs up in the memo, yields each
        miss, is sent its normal form, and returns its sum; each word being
        rewritten has one above the bottom frame.  Leftmost, every frame is
        a _leftmost_frame.  Suffix first, the bottom frame is _horner,
        which folds each prefix that its polynomial's words share once and
        each suffix that its lone words share once, or _leibniz, which
        folds each of its words' suffixes onto cached normal forms, and a
        rewritten word's frame is _fold of the rule's reducts onto the rest
        of the word.  Only the word of a BudgetExceeded is unpacked.  This
        loop alone matches and memoises.  It scans each yielded word from
        its frame's start, kept on the starts stack: a leftmost frame for a
        match at i starts at i - (maxlen - 1), as no match lies further
        left, and every other frame at 0; suffix first, it scans position 0
        only.  An irreducible word is memoised as itself; any other is
        charged against the budget and memoised with the sum its frame
        returns.  So a reduction is charged for the words it reaches that
        rewrite; a merged fold reaches a subset of the words that folding
        each on its own would."""
        trie, memo, maxlen = self._trie, self._memo, self._maxlen
        left, last = budget, None  # last: ref of the last rule fired
        stack, starts, words, nf = [bottom], [0], [], None
        while True:
            try:
                w = stack[-1].send(nf)
            except StopIteration as done:
                stack.pop()
                nf = {u: c for u, c in done.value.items() if c}
                if not stack:
                    return nf
                starts.pop()
                memo[words.pop()] = nf
                continue
            match = _leftmost(trie, w, starts[-1],
                              1 if suffix_first else len(w))
            if match is None:  # irreducible: its own normal form
                nf = memo[w] = {w: ONE}
                continue
            left -= 1
            if left < 0:
                raise BudgetExceeded(self._codes.unpack(w), max(budget, 0),
                                     last)
            i, (last, lhs, reducts) = match
            suffix = w[i + len(lhs):]
            if suffix_first:
                stack.append(_fold(memo, reducts, {suffix: ONE}, {}))
                starts.append(0)
            else:
                stack.append(_leftmost_frame(memo, reducts, w[:i], suffix))
                starts.append(max(0, i - maxlen + 1))
            words.append(w)
            nf = None

    def _unique_normal_forms(self):
        """Whether every word has one normal form, so that any strategy
        gives the leftmost strategy's result.  By Bergman's diamond lemma
        (1978) it holds when the rules are oriented by the term order, a
        well-founded semigroup order, and every ambiguity is joinable.  The
        verdict is the last field of the rule system's record, which enters
        _SYSTEMS before the census runs, so the census runs once per system
        in a process.  It reduces leftmost on a copy that has its own memo,
        under DEFAULT_BUDGET, and stops at the first pair that does not
        join; running out of budget counts as not joinable."""
        system = self._system
        if system[4] is None:
            system = self._system = _SYSTEMS.setdefault(system[5], system)
            if system[4] is None:
                system[4] = self._census_joins()
        return system[4]

    def _census_joins(self):
        if self.check_termination():
            return False
        P = Presentation(self.name, self.generators, self.rules, self.order,
                         q=self.q)
        try:
            return all(nf1 == nf2 for *_, nf1, nf2 in P._pairs(DEFAULT_BUDGET))
        except BudgetExceeded:
            return False

    def nf_word(self, word):
        return self.normal_form(NCPolynomial.word(word))

    # -- critical pairs -----------------------------------------------------

    def critical_pairs(self):
        """All overlap and containment ambiguities, each reduced both ways
        by the leftmost, first-declared rule: a list of dicts with the
        ambiguous word, the two rule refs, both normal forms, and whether
        they agree.  No completion is attempted."""
        codes = self._codes
        return [{"word": codes.unpack(word), "rules": (ref1, ref2),
                 "nf1": codes.unpack_poly(nf1), "nf2": codes.unpack_poly(nf2),
                 "joinable": nf1 == nf2}
                for ref1, ref2, word, nf1, nf2 in self._pairs(_step_budget())]

    def _pairs(self, budget):
        """(ref1, ref2, word, nf1, nf2) for each ambiguity, in
        _ambiguities() order: the rules named ref1 and ref2 apply to the
        packed word, and nf1 and nf2 are the word rewritten once by each,
        reduced leftmost by _reduce_packed, packed dicts."""
        entries, memo = self._entries, self._memo
        for i1, i2, word, p2 in self._ambiguities():
            ref1, lhs1, red1 = entries[i1]
            ref2, lhs2, red2 = entries[i2]
            # one budget per side, as a reduction of its own
            yield (ref1, ref2, word,
                   self._reduce_packed(_leftmost_frame(
                       memo, red1, "", word[len(lhs1):]), budget),
                   self._reduce_packed(_leftmost_frame(
                       memo, red2, word[:p2], word[p2 + len(lhs2):]), budget))

    def _ambiguities(self):
        """(i1, i2, word, p2) for each ambiguity, word packed: rules[i1]
        applies to word at 0 and rules[i2] at p2, ordered by i1, then by
        i2; for one i2 the overlaps come before the inclusion."""
        lhss = [e[1] for e in self._entries]
        by_prefix = {}  # proper prefix of a lhs -> indices of its rules
        by_lhs = {}
        for i, lhs in enumerate(lhss):
            by_lhs.setdefault(lhs, []).append(i)
            for k in range(1, len(lhs)):
                by_prefix.setdefault(lhs[:k], []).append(i)
        lengths = sorted({len(lhs) for lhs in by_lhs})
        for i1, l1 in enumerate(lhss):
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
                    yield i1, i2, l1 + lhss[i2][x:], n1 - x

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
        rules = [RewriteRule(r.lhs, NCPolynomial({
            w: specialize_q(c, q0) for w, c in r.rhs.t.items()}), r.ref)
            for r in self.rules]
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
        rules = [{"lhs": list(r.lhs), "rhs": term_list(r.rhs, self.order.key),
                  "ref": r.ref} for r in self.rules]
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
                    and type(d.get("grade")) is int  # not a bool
                    and type(d.get("weight")) is int
                    and type(d.get("nilpotency", 0)) is int
                    and isinstance(d.get("d_image", ""), str)):
                raise ValueError("generator #%d needs a name and an integer "
                                 "grade and weight; a nilpotency is an "
                                 "integer and a d_image a string" % n)
            if any(g.name == d["name"] for g in gens):
                raise ValueError("generator #%d repeats the name %s"
                                 % (n, _echo(d["name"])))
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
                raise ValueError("rule %s: %s is not a word in the generators"
                                 % (tag, _echo(w)))
            return tuple(w)

        q = doc.get("q", "symbolic")
        if q != "symbolic":
            try:
                q = q_value(str(q), "q")
            except ValueError as e:
                raise ValueError("q must be \"symbolic\" or a rational: %s"
                                 % e) from None
        # each distinct coefficient string is parsed once per call
        rules, owner, coeffs = [], {}, {}
        for n, rd in enumerate(doc["rules"]):
            if not (isinstance(rd, dict) and "lhs" in rd
                    and isinstance(rd.get("rhs"), list)):
                raise ValueError("rule #%d needs an lhs and an rhs list" % n)
            if not isinstance(rd.get("ref", ""), str):
                raise ValueError("rule #%d: its ref is not a string" % n)
            tag = _echo(rd.get("ref") or "#%d" % n, str)
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
                    raise ValueError("rule %s: rhs term %s needs a coeff string "
                                     "and a word" % (tag, _echo(t)))
                c = coeffs.get(t["coeff"])
                if c is None:
                    try:
                        c = coeffs[t["coeff"]] = parse_scalar(t["coeff"], q)
                    except ParseError as e:  # the coeff itself may be huge
                        raise ValueError("rule %s: rhs term %d: %s"
                                         % (tag, k, e)) from None
                rhs = rhs + NCPolynomial.word(word(t["word"], tag), c)
            rules.append(RewriteRule(lhs, rhs, rd.get("ref", "")))
        return Presentation(doc["name"], gens, rules, order, q=q)

    def dumps(self):
        return json.dumps(self.to_json(), indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# saturation and localization

def saturate(pres, skip=None):
    """Append oriented critical-pair differences as derived rules.

    Each sweep builds one presentation from the rules so far, reduces
    every ambiguity on it both ways and turns any nonzero difference into
    a new rule headed by its leading word; the sweep's rules are appended
    to the list when it ends.  Sweeps repeat until nothing admissible is
    left.  skip filters candidate left sides: a system whose completion
    grows without bound passes a predicate that cuts off the runaway
    families and accepts partial saturation instead of confluence.  The
    result is a fresh presentation of all the rules, with an empty memo.
    """
    key, budget = pres.order.key, _step_budget()
    rules = list(pres.rules)
    seen = {r.lhs for r in rules}
    for _ in range(MAX_SWEEPS):
        P = Presentation(pres.name, pres.generators, rules, pres.order,
                         q=pres.q)
        codes, new = P._codes, []
        for ref1, ref2, word, nf1, nf2 in P._pairs(budget):
            if nf1 == nf2:
                continue
            d = codes.unpack_poly(nf1) - codes.unpack_poly(nf2)
            lead = max(d.support(), key=key)
            if lead in seen or (skip is not None and skip(lead)):
                continue
            seen.add(lead)
            new.append(_solve_for(d, lead, "the ambiguity %s of rules %s and %s"
                                  % ("*".join(codes.unpack(word)), ref1, ref2)))
        if not new:
            break
        rules += new
    return Presentation(pres.name, pres.generators, rules, pres.order,
                        q=pres.q)


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
    below = precedence.index(v)
    precedence.insert(below, vinv)  # vinv just below v
    order = TermOrder(weights, precedence)

    inv_rules = [
        RewriteRule((v, vinv), NCPolynomial.unit(), "inv:%s" % v),
        RewriteRule((vinv, v), NCPolynomial.unit(), "inv:%s" % vinv),
    ]
    by_lhs = {r.lhs: r for r in pres.rules}

    # (lhs, g, left, vinv*rest*vinv, 1/c0), lhs vinv*g if left, else g*vinv
    targets = []
    for i, g in enumerate(order.precedence):
        if g in (v, vinv):
            continue
        left = i < below
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
