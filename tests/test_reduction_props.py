"""Property tests for reduction: normal forms are fixed points and
irreducible, and d^3 = 0 in the calculi; export -> import gives the
same preset back; leftmost reduction agrees with a scan from 0 that
keeps no memo, and suffix-first reduction of polynomials whose words
share prefixes and tails with it; critical_pairs finds what nested
loops over rule pairs find; saturate derives what recomputing every
ambiguity derives; and appending rules keeps only the memo entries that
a fresh presentation of all the rules agrees with."""

import functools
import itertools
import json
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_rewrite import (_listed, reference_nf,  # noqa: E402
                          reference_pairs, reference_saturate)
from z3calc import presets  # noqa: E402
from z3calc.calculus import d_cube_vanishes, random_element  # noqa: E402
from z3calc.freealg import GeneratorInfo, NCPolynomial  # noqa: E402
from z3calc.rewrite import (DEFAULT_BUDGET, Presentation,  # noqa: E402
                            RewriteRule, TermOrder, _leftmost, saturate)
from z3calc.scalars import (J, MINUS_ONE, ONE, PoleError,  # noqa: E402
                            jpow, qpow, rational, specialize_q)

# deterministic and small: these run inside the tier-1 suite
quick = settings(max_examples=20, deadline=None, derandomize=True)
seeds = st.integers(0, 2**32 - 1)
catalog = pytest.mark.parametrize("name", list(presets.PRESETS))


@functools.cache
def _preset(name):
    return presets.build(name)


@functools.cache
def _leftmost_preset(name):
    return presets.build(name)


def _normal_form(name, seed):
    P = _preset(name)
    return P, P.normal_form(random_element(P, random.Random(seed)))


@catalog
@quick
@given(seeds)
def test_normal_form_is_idempotent(name, seed):
    P, nf = _normal_form(name, seed)
    assert P.normal_form(nf) == nf


@catalog
@quick
@given(seeds)
def test_normal_form_words_contain_no_lhs(name, seed):
    P, nf = _normal_form(name, seed)
    for word in nf.support():
        for r in P.rules:
            n = len(r.lhs)
            assert all(word[i:i + n] != r.lhs
                       for i in range(len(word) - n + 1)), (word, r.ref)


@pytest.mark.parametrize("name", ["q_plane", "h_plane", "hj_calculus",
                                  "qjh_calculus"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 2**16), max_size=8))
def test_suffix_first_matches_leftmost(name, picks):
    # normal forms are unique in these presets, so reducing suffix first
    # gives what the leftmost, first-declared rule gives
    P = _preset(name)
    assert P._unique_normal_forms()
    letters = [g.name for g in P.generators]
    word = NCPolynomial.word(letters[k % len(letters)] for k in picks)
    assert P.normal_form(word) == _leftmost_preset(name)._reduce(
        word, DEFAULT_BUDGET)


def _rewritten(P):
    """The reducible words in P's memo: the steps its reductions charged,
    since each step memoises the word it rewrites."""
    return sum(_leftmost(P._trie, w, 0, len(w)) is not None for w in P._memo)


@pytest.mark.parametrize("name", ["q_plane", "h_plane", "hj_calculus",
                                  "qjh_calculus"])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_shared_prefixes_and_tails_match_leftmost(name, data):
    # 1 to 8 words built from a few shared prefixes and tails, some with a
    # term that cancels them (-c times a prefix times the normal form of
    # the rest), so that normal_form folds shared prefixes once onto merged
    # normal forms that hold zeros, and lone words share suffix normal
    # forms.  Every preset is fresh: a warm memo could hide a wrong merge.
    # Folding each word on its own, which single-word reductions in
    # sequence do, charges at least as many steps.
    oracle = presets.build(name)
    letters = [g.name for g in oracle.generators]
    word = st.lists(st.sampled_from(letters), max_size=4).map(tuple)
    prefixes = data.draw(st.lists(word, min_size=1, max_size=3))
    tails = data.draw(st.lists(word, min_size=1, max_size=3))
    p = NCPolynomial()
    for _ in range(data.draw(st.integers(1, 8))):
        w = (data.draw(st.sampled_from(prefixes))
             + data.draw(word.map(lambda m: m[:2]))
             + data.draw(st.sampled_from(tails)))
        c = (rational(data.draw(st.sampled_from([1, 2, -1, -3])))
             * jpow(data.draw(st.integers(0, 2)))
             * qpow(data.draw(st.integers(-2, 2))))
        if oracle.q != "symbolic":
            c = specialize_q(c, oracle.q)
        p = p + NCPolynomial.word(w, c)
        if data.draw(st.booleans()):
            k = data.draw(st.integers(0, len(w)))
            rest = oracle._reduce(NCPolynomial.word(w[k:]),
                                  DEFAULT_BUDGET)
            p = p - (NCPolynomial.word(w[:k]) * rest).scale(c)
    P = presets.build(name)
    assert P._unique_normal_forms()
    nf = P.normal_form(p)
    assert nf == presets.build(name)._reduce(p, DEFAULT_BUDGET)
    one_by_one = presets.build(name)
    assert sum((one_by_one.normal_form(NCPolynomial.word(w, c))
                for w, c in p.t.items()), NCPolynomial()) == nf
    assert _rewritten(P) <= _rewritten(one_by_one)


@pytest.mark.parametrize("name", ["qjh_calculus", "hj_calculus"])
@quick
@given(seeds)
def test_d_cubed_vanishes(name, seed):
    P = _preset(name)
    assert d_cube_vanishes(P, random_element(P, random.Random(seed)))


@pytest.mark.parametrize("name", ["q_plane", "qjh_calculus", "cartan"])
@quick
@given(st.fractions(min_value=-30, max_value=30, max_denominator=12))
def test_specialized_json_round_trip(name, q0):
    # bound q and its coefficient strings, which no catalog preset has
    try:
        P = _preset(name).specialize(q0)
    except PoleError:
        return
    text = P.dumps()
    assert Presentation.from_json(json.loads(text)).dumps() == text


def _words(letters, n):
    """Every word of length 1 to n."""
    return [w for k in range(1, n + 1)
            for w in itertools.product(letters, repeat=k)]


def _oriented(draw, letters, order, lhs):
    """The rule lhs -> 0 to 2 nonempty words over letters, none longer
    than lhs and each below it under order."""
    below = [w for w in _words(letters, len(lhs))
             if order.key(w) < order.key(lhs)]
    rhs = NCPolynomial()
    for w in draw(st.lists(st.sampled_from(below), max_size=2,
                           unique=True)) if below else ():
        c = draw(st.sampled_from([ONE, MINUS_ONE, rational(2), J]))
        rhs = rhs + NCPolynomial.word(w, c)
    return RewriteRule(lhs, rhs, "".join(lhs))


@st.composite
def toy_presentations(draw):
    """3 or 4 letters of weight 1 and up to 6 rules with distinct left
    sides of length at most 3, each right side 0 to 2 nonempty words
    below its left side under the term order, so every rule is oriented
    and no difference of two reductions holds the empty word."""
    letters = "abcd"[:draw(st.integers(3, 4))]
    order = TermOrder({g: 1 for g in letters}, list(letters))
    lhss = draw(st.lists(st.sampled_from(_words(letters, 3)),
                         min_size=1, max_size=6, unique=True))
    rules = [_oriented(draw, letters, order, lhs) for lhs in lhss]
    gens = [GeneratorInfo(g, 0, 1) for g in letters]
    return Presentation("toy", gens, rules, order, q=1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(toy_presentations())
def test_leftmost_matches_reference_on_toy_presentations(P):
    # every word of length 4 or less against a scan from 0 with no memo;
    # each word gets a fresh presentation, since a warm memo already holds
    # the normal forms of short reduct words and would hide a rescan that
    # starts too far right
    for w in _words([g.name for g in P.generators], 4):
        fresh = Presentation(P.name, P.generators, P.rules, P.order, q=P.q)
        assert fresh._reduce(NCPolynomial.word(w), DEFAULT_BUDGET) == \
            reference_nf(P, w), w


@settings(max_examples=60, deadline=None, derandomize=True)
@given(toy_presentations())
def test_critical_pairs_match_reference_on_toy_presentations(P):
    # the indexed ambiguities and their packed reducts against nested
    # loops over rule pairs that rewrite tuple words: the same pairs, in
    # the same order, with the same normal forms and verdicts
    assert P.critical_pairs() == reference_pairs(P)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(toy_presentations(), st.integers(2, 4))
def test_saturate_matches_reference_on_toy_presentations(P, limit):
    # saturate's packed pairs against the unpacked critical_pairs, each
    # sweep on a fresh presentation: the same rules, in the same order
    def skip(w):
        return len(w) > limit

    assert _listed(saturate(P, skip=skip)) == \
        _listed(reference_saturate(P, skip))

