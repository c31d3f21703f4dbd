"""Command line interface.

Exit codes: 0 success (and all checks passing for verify/supergroup),
1 a verification reported failures, 2 bad input (unknown preset or
suite, parse error, a bad --q or a pole at it, a --q or a normal form
coefficient longer than parser.MAX_BITS, malformed preset JSON), 3 step
budget exceeded.
Z3CALC_STEP_BUDGET (default 10**6 rewrite steps) caps every reduction a
command makes: reduce, the pair census, the supergroup and sdet checks,
and the localize step of cartan's build; glhj_localized is read from
its package file, not built.  Only the census that picks a preset's
reduction order runs under the default.
Only verify loads the calculus module, for its suite names and its
suites; every other command starts without it.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .scalars import PoleError, bit_length
from .freealg import fa_str, term_list
from .rewrite import BudgetExceeded, Presentation
from .parser import MAX_BITS, MAX_DEPTH, ParseError, _echo, parse, q_value
from . import presets as _presets
from . import supergroup as _supergroup


def _emit(doc):
    print(json.dumps(doc, indent=2, ensure_ascii=False))


def _load_preset(name, qarg):
    pres = _presets.build(name)
    if qarg is not None:
        q0 = q_value(qarg)
        if pres.q == "symbolic":
            pres = pres.specialize(q0)
        elif pres.q != q0:
            raise ValueError("preset %s is bound to q=%s" % (name, pres.q))
    return pres


# a JSON string, whose brackets do not nest, or a bracket; an unterminated
# string runs to the end, so no text is scanned twice
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"?|[][{}]', re.S)


def _read_json(path):
    """The document in the JSON file path, read as UTF-8 as JSON is,
    whatever the locale.  Nesting deeper than MAX_DEPTH is refused before
    decoding, so that MAX_DEPTH is the one nesting bound of every input,
    whatever recursion limit the embedding program sets."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    depth = 0
    for tok in _JSON_TOKEN.finditer(text):
        c = tok.group()
        if c in ("[", "{"):
            depth += 1
            if depth > MAX_DEPTH:
                raise ValueError("%s: nested deeper than %d"
                                 % (path, MAX_DEPTH))
        elif c in ("]", "}"):
            depth -= 1
    return json.loads(text)


def _print_nf(args, nf, key, **fields):
    """Print the normal form nf, its words ordered by key, in args.format:
    as JSON after the command's own fields, or as text, unicode or LaTeX."""
    if args.format == "json":
        _emit({**fields, "normal_form": fa_str(nf, key),
               "terms": term_list(nf, key)})
        return 0
    style = ("latex" if args.format == "latex" else
             "unicode" if getattr(args, "unicode", False) else "text")
    print(fa_str(nf, key, style))
    return 0


def _dispatch(args):
    if args.cmd == "reduce":
        pres = _load_preset(args.preset, args.q)
        nf = pres.normal_form(parse(args.expr, pres))
        # the cap on parsed coefficients holds for printed ones too
        if any(bit_length(c) > MAX_BITS for c in nf.t.values()):
            raise ValueError("%s: normal form has a coefficient longer than "
                             "%d bits" % (_echo(args.expr, str), MAX_BITS))
        return _print_nf(args, nf, pres.order.key, preset=args.preset,
                         q=str(pres.q), input=args.expr)

    if args.cmd in ("verify", "supergroup"):
        if args.cmd == "verify":
            from .calculus import replay
            doc = replay(args.suite)
        else:
            doc = _supergroup.verify(args.check)
        _emit(doc)
        return 0 if doc["ok"] else 1

    if args.cmd == "pairs":
        pres = _presets.build(args.preset)
        _emit(pres.pair_census())
        return 0

    if args.cmd == "presets":
        if args.action == "list":
            for name in _presets.PRESETS:
                print("%s\t%d rules" % (name, len(_presets.build(name).rules)))
            return 0
        if args.action == "export":
            if not args.target:
                raise ValueError("presets export needs a preset name")
            sys.stdout.write(_presets.build(args.target).dumps())
            return 0
        if not args.target:
            raise ValueError("presets import needs a file path")
        pres = Presentation.from_json(_read_json(args.target))
        bad_h = pres.check_homogeneity()
        bad_t = pres.check_termination()
        _emit({
            "name": pres.name,
            "generators": len(pres.generators),
            "rules": len(pres.rules),
            "homogeneous": not bad_h,
            "oriented": not bad_t,
        })
        return 0 if not (bad_h or bad_t) else 1

    if args.cmd == "sdet":
        nf, _, L = _supergroup.sdet()
        return _print_nf(args, nf, L.order.key)


def _expr_last(argv):
    """Join --q and a value such as "-2/3" into "--q=-2/3", and move a
    reduce expression such as "-x*th" or "-h" behind "--": argparse would
    take either for an option.  reduce's options are all --names (help is
    --help), and only --q takes a value."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] != ["reduce"]:
        return argv
    cut = argv.index("--") if "--" in argv else len(argv)
    head = []
    for a in argv[:cut]:
        if head[-1:] == ["--q"] and a[:1] == "-" and a[:2] != "--":
            head[-1] = "--q=" + a
        else:
            head.append(a)
    if cut == len(argv):
        for i, a in enumerate(head):
            if i and a[:1] == "-" and a[:2] != "--":
                return head[:i] + head[i + 1:] + ["--", a]
    return head + argv[cut:]


def main(argv=None):
    argv = _expr_last(argv)
    ap = argparse.ArgumentParser(
        prog="z3calc",
        description="exact rewriting in graded deformed plane algebras")
    sub = ap.add_subparsers(dest="cmd", required=True)

    # -h is an expression here, so help is --help only
    p = sub.add_parser("reduce", help="reduce an expression to normal form",
                       add_help=False)
    p.add_argument("--help", action="help",
                   help="show this help message and exit")
    p.add_argument("--preset", required=True)
    p.add_argument("--q", help="bind q to a rational value")
    p.add_argument("--format", choices=["text", "json", "latex"],
                   default="text")
    p.add_argument("--unicode", action="store_true",
                   help="print Greek letters in text output")
    p.add_argument("expr")

    p = sub.add_parser("verify", help="run a replay suite")
    if argv[:1] == ["verify"]:  # the one command that loads calculus
        from . import calculus
        p.add_argument("--suite", required=True,
                       metavar="|".join(calculus.SUITE_NAMES))

    p = sub.add_parser("pairs", help="critical pair census for a preset")
    p.add_argument("--preset", required=True)

    p = sub.add_parser("presets", help="list, export, or import presets")
    p.add_argument("action", choices=["list", "export", "import"])
    p.add_argument("target", nargs="?",
                   help="preset name (export) or JSON file (import)")

    p = sub.add_parser("supergroup", help="matrix algebra checks")
    p.add_argument("--check", required=True,
                   choices=list(_supergroup.CHECKS))

    p = sub.add_parser("sdet", help="superdeterminant normal form")
    p.add_argument("--format", choices=["text", "json", "latex"],
                   default="text")

    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except BudgetExceeded as e:
        print("error: %s" % e, file=sys.stderr)
        return 3
    except (ParseError, PoleError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except KeyError as e:
        print("error: %s" % (e.args[0] if e.args else e), file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
