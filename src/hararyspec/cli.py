"""Command-line front end.

Subcommands: spectrum, bounds, psd, closed-form, verify-extremal.
Graphs come from a graph6 string or file, an edge-list file, or a named
constructor like ``complete:4`` / ``bipartite:2,3`` / ``multipartite:2,2,2``;
verify-extremal takes no graph.  One table, ``_COMMANDS``, registers each
subcommand's options and dispatches to it; the parser is built once per
process, on first use.  An argv that starts with a subcommand's name is
parsed once, by that subcommand's parser; every other argv (empty, ``-h``,
an unknown name, an option before the subcommand) goes to the root parser,
which prints the same usage errors either way.

Exit codes: 0 success or confirmed, 1 usage/parse error, 2 refuted,
3 tie, 4 budget exceeded.  All floats print with 12 significant digits
so outputs diff cleanly.

Each command builds its payload first.  ``--format json`` writes it through
the one emitter, ``_json``, which rounds every float to 12 significant digits
and writes the text of ``json.dumps(..., indent=2, sort_keys=True)`` in one
pass; table lines are built only for ``--format table``.  It finds each
scalar's encoder by exact type, caches each dict layout's sorted encoded
keys, and writes a float from its ``%.12g`` text (see ``_json_float``).
``bounds`` JSON is the same text, written by ``_bounds_json``: a bound
record's text changes between reports only in its value, so each record is
its cached text, cut once from ``_json``'s, around ``_json_float(value)``.

``spectrum`` and ``closed-form`` read their eigenvalues from
``eigen._blend_values``, which blends the alphas no earlier report of the
graph solved in one broadcast and solves them in one stacked call.
``bounds`` writes the report that ``bounds._bound_reports`` assembles: every
radius from the same solved blends and every record, already a dict row,
from one numpy pass.  Reports of one graph in one process share its cached
bundle (``matrices.build_bundle``), whatever input form named the graph.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii

from . import closed_forms, extremal, psd
from .bounds import _bound_reports
from .eigen import _blend_values, _energy
from .errors import BudgetError, Graph6Error, NotConnectedError
from .graph6 import _MAX_SHORT_N, load_graph6, parse_edge_list, parse_graph6, to_graph6
from .graphs import (
    _turan_parts,
    complete,
    complete_bipartite,
    complete_multipartite,
    complete_split,
    cycle,
    edgeless,
    path,
    star,
    turan,
    wheel,
)
from .matrices import build_bundle, check_alpha

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUTED = 2
EXIT_TIE = 3
EXIT_BUDGET = 4

# name -> (builder, arity or None for any, closed-form spectrum of (params, alpha) or None,
#          closed-form PSD threshold of params as (method, alpha0), None where it has none)
_CONSTRUCTORS = {
    "complete": (complete, 1, lambda p, a: closed_forms.spectrum_complete(*p, a), None),
    "edgeless": (edgeless, 1, None, None),
    "path": (path, 1, None, None),
    "cycle": (cycle, 1, None, None),
    "star": (star, 1, None, None),
    "wheel": (wheel, 1, lambda p, a: closed_forms.spectrum_wheel(*p, a),
              lambda p: ("wheel", psd._wheel_formula(*p))),
    "bipartite": (complete_bipartite, 2, lambda p, a: closed_forms.spectrum_complete_bipartite(*p, a),
                  lambda p: ("complete_bipartite", psd._complete_bipartite_formula(min(p), sum(p)))
                  if sum(p) >= 4 else None),
    "split": (complete_split, 2, lambda p, a: closed_forms.spectrum_complete_split(*p, a), None),
    "turan": (turan, 2, lambda p, a: closed_forms.spectrum_multipartite(_turan_parts(*p), a), None),
    "kite": (extremal.build_kite, 2, None, None),
    "multipartite": (lambda *parts: complete_multipartite(parts), None,
                     closed_forms.spectrum_multipartite, None),
}


def _fmt(x):
    return f"{float(x):.12g}"


def _json_float(x):
    """JSON text of float ``x`` rounded to 12 significant digits.

    The ``.12g`` text is already repr's text of the rounded float, less a
    ``.0`` when it has no point: no two decimals of at most 15 significant
    digits read back as the same float, so no shorter text does.  Exponent
    form (where ``%g`` and ``repr`` disagree for 1e12 <= |x| < 1e16) and
    non-finite values take ``float.__repr__`` of the rounded float and
    JSON's NaN / Infinity words.
    """
    text = f"{x:.12g}"
    if "e" in text or "n" in text:
        x = float(text)
        if x - x == 0.0:  # finite
            return float.__repr__(x)
        return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"
    return text if "." in text else text + ".0"


# Scalar encoders by exact type: bool has its own entry, so it never reads as an int.
_SCALARS = {
    float: _json_float,
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}
# A dict's key tuple -> its keys in sorted order, each with its encoded '"key": ' text.
_KEY_LAYOUTS = {}


def _json(obj, indent="\n"):
    """JSON text of ``obj`` with floats rounded to 12 significant digits,
    indented by two spaces per level and with sorted string keys, as
    ``json.dumps`` writes it.  ``indent`` is the newline and indentation of
    obj's own level."""
    encode = _SCALARS.get(type(obj))
    if encode is not None:
        return encode(obj)
    inner = indent + "  "
    scalar = _SCALARS.get
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        keys = tuple(obj)
        layout = _KEY_LAYOUTS.get(keys)
        if layout is None:
            layout = _KEY_LAYOUTS[keys] = [(k, encode_basestring_ascii(k) + ": ") for k in sorted(keys)]
        items = []
        for k, text in layout:
            v = obj[k]
            encode = scalar(type(v))
            items.append(text + (encode(v) if encode is not None else _json(v, inner)))
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [encode(v) if (encode := scalar(type(v))) is not None else _json(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    for kind, encode in _SCALARS.items():  # a subclass, such as numpy's float64
        if isinstance(obj, kind):
            return encode(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# A bound record's (name, kind, applicable, reason, tight) -> its JSON text before its value.
_RECORD_HEADS = {}
_REPORT_INDENT = "\n    "  # the level of a ``bounds`` report's keys
_RECORD_INDENT = _REPORT_INDENT + "  "  # the level of its records


def _bounds_json(reports):
    """``_json(reports)`` for the ``bounds`` payload, whose records are dicts
    of ``BoundRecord``'s six fields.  ``value`` sorts last of them, so a
    record's text is a head fixed by its other five fields, then
    ``_json_float(value)`` and the closing brace.  Each head is cut from
    ``_json``'s text of the first record with those fields, once that text
    is checked to end with the value; a record whose value is not a float
    is written by ``_json``."""
    texts = []
    for r in reports:
        items = []
        for rec in r["records"]:
            value = rec["value"]
            if type(value) is not float:
                items.append(_json(rec, _RECORD_INDENT))
                continue
            tail = _json_float(value) + _RECORD_INDENT + "}"
            key = (rec["name"], rec["kind"], rec["applicable"], rec["reason"], rec["tight"])
            head = _RECORD_HEADS.get(key)
            if head is None:
                text = _json(rec, _RECORD_INDENT)
                if not text.endswith(tail):  # value is not the last key: nothing to cache
                    items.append(text)
                    continue
                head = _RECORD_HEADS[key] = text[:-len(tail)]
            items.append(head + tail)
        records = ("[" + _RECORD_INDENT + ("," + _RECORD_INDENT).join(items) + _REPORT_INDENT + "]"
                   if items else "[]")
        texts.append(
            '{\n    "alpha": ' + _json(r["alpha"], _REPORT_INDENT)
            + ',\n    "n": ' + _json(r["n"], _REPORT_INDENT)
            + ',\n    "records": ' + records
            + ',\n    "rho": ' + _json(r["rho"], _REPORT_INDENT) + "\n  }"
        )
    return "[\n  " + ",\n  ".join(texts) + "\n]"


def _parse_construct(spec):
    if ":" in spec:
        name, _, arg_text = spec.partition(":")
        args = tuple(int(tok) for tok in arg_text.split(",") if tok != "")
    else:
        name, args = spec, ()
    if name not in _CONSTRUCTORS:
        known = ", ".join(sorted(_CONSTRUCTORS))
        raise ValueError(f"unknown constructor {name!r} (known: {known})")
    builder, arity, *_ = _CONSTRUCTORS[name]
    if arity is not None and len(args) != arity:
        raise ValueError(f"constructor {name!r} takes {arity} integer parameter(s), got {len(args)}")
    return name, args, builder(*args)


def _load_graph(args):
    """The input graph, and (name, params) when it came from --construct."""
    sources = (args.graph6, args.graph6_file, args.edge_list, args.construct)
    if sum(s is not None for s in sources) != 1:
        raise ValueError("exactly one input source is required "
                         "(--graph6, --graph6-file, --edge-list or --construct)")
    if args.graph6 is not None:
        return parse_graph6(args.graph6), None
    if args.graph6_file is not None:
        graphs = load_graph6(args.graph6_file)
        if len(graphs) != 1:
            raise ValueError(f"{args.graph6_file} holds {len(graphs)} graph6 lines; "
                             "--graph6-file takes a file holding one")
        return graphs[0], None
    if args.edge_list is not None:
        with open(args.edge_list, "r", encoding="ascii") as handle:
            return parse_edge_list(handle.read()), None
    name, params, graph = _parse_construct(args.construct)
    return graph, (name, params)


def _parse_alphas(text):
    alphas = [check_alpha(float(tok)) for tok in text.split(",") if tok != ""]
    if not alphas:
        raise ValueError("at least one alpha value is required")
    return alphas


def _emit(args, payload, table, write=_json):
    """Write the report: ``write(payload)``, the JSON text of ``payload``, or
    the lines of the lazy iterable ``table``, which JSON output never starts."""
    text = write(payload) if args.format == "json" else "\n".join(table)
    if not text.endswith("\n"):
        text += "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def cmd_spectrum(args):
    g = args.graph
    bundle = build_bundle(g)
    spectra = _blend_values(bundle, args.alphas)
    reports = [
        {"n": g.n, "alpha": a, "eigenvalues": values.tolist(), "harary": bundle.harary,
         "energy": _energy(bundle, a, values)}
        for a, values in zip(args.alphas, spectra)
    ]

    def table():
        # graph6's short form stops at n = 62; past that the header names n alone.
        yield f"n = {g.n}, graph6 = {to_graph6(g)}" if g.n <= _MAX_SHORT_N else f"n = {g.n}"
        yield "transmissions: " + " ".join(_fmt(t) for t in bundle.transmissions)
        yield f"harary index: {_fmt(bundle.harary)}"
        for r in reports:
            yield (f"alpha = {_fmt(r['alpha'])}: eigenvalues ["
                   + ", ".join(_fmt(v) for v in r["eigenvalues"])
                   + f"], energy {_fmt(r['energy'])}")

    _emit(args, reports, table())
    return EXIT_OK


def cmd_bounds(args):
    g = args.graph
    reports = [
        {"n": g.n, "alpha": a, "rho": rho, "records": records}
        for a, (rho, records) in zip(args.alphas, _bound_reports(g, args.alphas))
    ]

    def table():
        for r in reports:
            yield f"alpha = {_fmt(r['alpha'])}: rho = {_fmt(r['rho'])}"
            for rec in r["records"]:
                status = "" if rec["applicable"] else f"  [not applicable: {rec['reason']}]"
                tight = "  [tight]" if rec["tight"] else ""
                yield f"  {rec['name']:<32} {rec['kind']:<5} {_fmt(rec['value']):>18}{tight}{status}"

    _emit(args, reports, table(), _bounds_json)
    return EXIT_OK


def cmd_psd(args):
    g = args.graph
    result = psd.alpha0_inertia(g)
    payload = {
        "n": g.n,
        "alpha0": result.alpha0,
        "method": result.method,
        "residual": result.residual,
    }
    threshold = args.family and _CONSTRUCTORS[args.family[0]][3]
    found = threshold and threshold(args.family[1])
    if found:
        method, alpha0 = found
        payload["closed_form"] = {"alpha0": alpha0, "method": method}
    elif (regular := psd._transmission_regular_formula(g)) is not None:
        payload["closed_form"] = {"alpha0": regular, "method": "transmission_regular"}

    def table():
        yield f"alpha0 = {_fmt(result.alpha0)} ({result.method}), residual {_fmt(result.residual)}"
        if "closed_form" in payload:
            cf = payload["closed_form"]
            yield f"closed form ({cf['method']}): alpha0 = {_fmt(cf['alpha0'])}"

    _emit(args, payload, table())
    return EXIT_OK


def cmd_closed_form(args):
    if args.family is None:
        raise ValueError("closed-form requires --construct with a supported family")
    g = args.graph
    spectra = _blend_values(build_bundle(g), args.alphas)
    name, params = args.family
    closed_form = _CONSTRUCTORS[name][2]
    if closed_form is None:
        raise ValueError(f"no closed-form spectrum for constructor {name!r}")
    reports = []
    for a, numeric in zip(args.alphas, spectra):
        spec = closed_form(params, a)
        deviation = float(abs(spec.eigenvalues() - numeric).max())
        reports.append(
            {
                "n": g.n,
                "alpha": a,
                "source": spec.source,
                "eigenvalues": [[float(v), int(m)] for v, m in spec.pairs],
                "max_deviation_vs_numeric": deviation,
            }
        )

    def table():
        for r in reports:
            yield f"alpha = {_fmt(r['alpha'])} [{r['source']}]"
            for v, m in sorted(r["eigenvalues"], reverse=True):
                yield f"  {_fmt(v):>18}  (multiplicity {m})"
            yield f"  max deviation vs numeric eigensolver: {_fmt(r['max_deviation_vs_numeric'])}"

    _emit(args, reports, table())
    return EXIT_OK


def cmd_verify_extremal(args):
    reports = [extremal._verify(args.constraint, args.n, args.value, a) for a in args.alphas]
    table = (
        f"n={r.n} {r.constraint}={r.value} alpha={_fmt(r.alpha)}: "
        f"{r.verdict}{' (exploratory)' if r.exploratory else ''}, rho_max={_fmt(r.rho_max)}, "
        f"maximizers={list(r.maximizers)}, predicted={r.predicted}"
        for r in reports
    )
    _emit(args, [r.to_json() for r in reports], table)
    verdicts = {r.verdict for r in reports}
    if "refuted" in verdicts:
        return EXIT_REFUTED
    if "tie" in verdicts:
        return EXIT_TIE
    return EXIT_OK


_GRAPH_INPUT = (
    ("--graph6", dict(help="graph6 string (optionally with the >>graph6<< header)")),
    ("--graph6-file", dict(help="file holding one graph6 line (optionally with the >>graph6<< header)")),
    ("--edge-list", dict(help="file in 'n m' + 'u v' edge-list format")),
    ("--construct", dict(help="named graph, e.g. complete:4, cycle:5, bipartite:2,3, "
                              "split:2,3, wheel:6, turan:6,3, multipartite:2,2,2, kite:5,2")),
)
_REPORT = (
    ("--alpha", dict(default="0", help="comma-separated blend weights in [0,1]")),
    ("--format", dict(choices=("table", "json"), default="table")),
    ("--output", dict(help="write the report to this path instead of stdout")),
)
_CLASS = (
    ("--n", dict(type=int, required=True)),
    ("--constraint", dict(choices=sorted(extremal._SCANNED), required=True)),
    ("--value", dict(type=int, required=True)),
)

# subcommand -> (handler, help, options)
_COMMANDS = {
    "spectrum": (cmd_spectrum, "blend eigenvalues, transmissions, Harary index, energy",
                 _GRAPH_INPUT + _REPORT),
    "bounds": (cmd_bounds, "evaluate every spectral-radius bound record", _GRAPH_INPUT + _REPORT),
    "psd": (cmd_psd, "smallest alpha making the blend positive semidefinite",
            _GRAPH_INPUT + _REPORT),
    "closed-form": (cmd_closed_form, "closed-form family spectrum with numeric cross-check",
                    _GRAPH_INPUT + _REPORT),
    "verify-extremal": (cmd_verify_extremal, "exhaustive maximizer verification for one class",
                        _CLASS + _REPORT),
}


# subcommand name -> its parser, filled by ``_build_parser``
_SUBPARSERS = {}


@functools.cache
def _build_parser():
    """The root parser; each subcommand's parser also goes into ``_SUBPARSERS``."""
    parser = argparse.ArgumentParser(
        prog="hararyspec",
        description="Spectra, bounds, PSD thresholds and extremal checks "
        "for reciprocal-distance matrix blends of connected graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, options) in _COMMANDS.items():
        p = _SUBPARSERS[name] = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
    return parser


def _parse(argv):
    """The namespace of ``argv``, parsed once.  When argv[0] names a
    subcommand, its own parser reads the rest, and leftover arguments fail
    through the root parser with the text its ``parse_args`` would print."""
    parser = _build_parser()
    sub = _SUBPARSERS.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None):
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if "construct" in vars(args):  # every subcommand but verify-extremal reads a graph
            args.graph, args.family = _load_graph(args)
        args.alphas = _parse_alphas(args.alpha)
        return _COMMANDS[args.command][0](args)
    except BudgetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (Graph6Error, NotConnectedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_entry():
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
