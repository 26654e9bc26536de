"""Command line interface.

Exit codes: 0 on success, 1 when a verification or exact identity
fails, 2 on bad input (unreadable files, malformed JSON, out-of-range
arguments).  All output is deterministic: rationals print as p/q and
JSON components are emitted in sorted order.

Every JSON document is written by ``_write_json`` from the object's
``json_frame()``, and its bytes are ``json.dumps(obj.to_json_obj(),
indent=2) + "\n"``: the standard encoder falls back to pure Python when
it indents, so the writer lays the text out itself, one component at a
time, to the file or to stdout, and never builds the plain document.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import cache
from itertools import chain

from .exactla import format_rational, parse_rational
from .freealg import q_poly, qtilde_poly
from .jets import CurvatureJet, InvalidJetError, SymJet, symmetrize_jet
from .metriclab import (
    PolyMetric,
    const_curvature_jet,
    curvature_jet_at_origin,
    metric_from_symjet,
)
from .metriclab import extend_jet as _extend_jet
from .poly import Sparse
from .tensor import Space, curvature_jet_dim_bound, gauge_basis, gauge_dim, list_field
from .verify import SUITE_NAMES, run_suites

QPOLY_DEFAULT_MAX = 12


class InputError(Exception):
    """Problem with user-supplied files or arguments; exits with code 2."""


def _write_components(write, holder, pad):
    """Write ``holder.components_json()`` as ``json.dumps(..., indent=2)``
    lays it out at indent ``pad``, one component per ``write``, without
    building it.

    A component is one ``%`` format of its indices and value, through the
    template of its shape of key (the lengths of its parts), made once per
    call.  Each value is formatted where it is written: a table by value
    measured slower, as a ``Fraction``'s hash costs about what its string
    does."""
    terms = holder.sorted_terms()
    if not terms:
        write("[]")
        return
    *fields, value_field = holder.json_fields
    item, field, index = pad + "  ", pad + "    ", pad + "      "

    @cache
    def template(lengths):
        heads = [field + json.dumps(name) + ": " for name in fields]
        arrays = ["[" + ",".join(["\n" + index + "%d"] * k) + "\n" + field + "]" if k else "[]"
                  for k in lengths]
        return (item + "{\n" + ",\n".join(map(str.__add__, heads, arrays)) + ",\n" + field
                + json.dumps(value_field) + ': "%s"\n' + item + "}")

    one_part = len(fields) == 1
    separator = "[\n"
    for key, v in terms:
        parts = (key,) if one_part else key
        write(separator + template(tuple(map(len, parts)))
              % (*chain.from_iterable(parts), format_rational(v)))
        separator = ",\n"
    write("\n" + pad + "]")


def _write_node(write, node, pad):
    """Write ``node`` as ``json.dumps(json_obj(node), indent=2)`` lays it out
    at indent ``pad``: a dict or a list entry by entry, a component holder
    through ``_write_components``, a scalar as ``json.dumps`` writes it."""
    if isinstance(node, Sparse):
        _write_components(write, node, pad)
        return
    if isinstance(node, dict):
        heads, entries, brackets = [json.dumps(key) + ": " for key in node], node.values(), "{}"
    elif isinstance(node, list):
        heads, entries, brackets = [""] * len(node), node, "[]"
    else:
        write(json.dumps(node))
        return
    if not heads:
        write(brackets)
        return
    inner = pad + "  "
    separator = brackets[0] + "\n" + inner
    for head, entry in zip(heads, entries):
        write(separator + head)
        _write_node(write, entry, inner)
        separator = ",\n" + inner
    write("\n" + pad + brackets[1])


def _write_json(frame, out_path):
    """Write the document ``frame`` (a ``json_frame()``) to ``out_path``, or to
    stdout for None or ``-``, as the bytes of ``json.dumps(json_obj(frame),
    indent=2) + "\n"``, without building the plain document."""
    if out_path is None or out_path == "-":
        _write_node(sys.stdout.write, frame, "")
        sys.stdout.write("\n")
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            _write_node(fh.write, frame, "")
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {out_path}: {exc}") from exc


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError:
        raise InputError(f"{path} is not valid JSON: nested too deeply") from None


def _load_jet_like(path):
    """Load either a curvature jet or a symmetrized jet file."""
    obj = _load_json(path)
    try:
        levels = list_field(obj, "levels")
        if levels and "arity" in levels[0]:
            return CurvatureJet.from_json_obj(obj)
        return SymJet.from_json_obj(obj)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise InputError(f"{path} is not a jet file: {exc}") from exc


def _load_metric(path):
    obj = _load_json(path)
    try:
        return PolyMetric.from_json_obj(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path} is not a metric file: {exc}") from exc


def _parse_signature(text, n):
    signs = []
    cleaned = text.replace(",", "")
    for ch in cleaned:
        if ch == "+":
            signs.append(1)
        elif ch == "-":
            signs.append(-1)
        else:
            raise InputError(f"bad signature character {ch!r}; use + and -")
    if n is not None and len(signs) != n:
        raise InputError(f"signature length {len(signs)} does not match n={n}")
    return tuple(signs)


def cmd_qpoly(args):
    if args.k < 0:
        raise InputError("degree must be nonnegative")
    if args.k > args.max:
        raise InputError(f"degree {args.k} exceeds the maximum {args.max}; "
                         "raise --max to compute it anyway")
    element = qtilde_poly(args.k) if args.tilde else q_poly(args.k)
    if args.format == "text":
        print(element.to_text())
    else:
        name = ("qtilde" if args.tilde else "q") + f"_{args.k}"
        _write_json({"name": name, "degree": args.k, "terms": element}, None)
    return 0


def cmd_dims(args):
    if args.n < 2:
        raise InputError("need n >= 2")
    if args.k < 0:
        raise InputError("need k >= 0")
    space = Space.euclidean(args.n)
    dim_gauge = gauge_dim(args.n, args.k + 2)
    bound = curvature_jet_dim_bound(args.n, args.k)
    rank = len(gauge_basis(space, args.k + 2))
    print(f"dimN={dim_gauge} dimC_lower={bound} rank={rank}")
    return 0 if dim_gauge == bound == rank else 1


def cmd_expand(args):
    loaded = _load_jet_like(args.file)
    if args.order is not None and args.order < 0:
        raise InputError("need order >= 0")
    # both jet kinds of order k determine the expansion through degree k + 2
    max_degree = loaded.order + 2
    order = args.order if args.order is not None else max_degree
    if order > max_degree:
        raise InputError(f"the input only determines the expansion through "
                         f"degree {max_degree}, requested {order}")
    s = symmetrize_jet(loaded) if isinstance(loaded, CurvatureJet) else loaded
    g = metric_from_symjet(s)
    parts = {d: h for d, h in g.parts.items() if d <= order}
    _write_json(PolyMetric(g.space, parts).json_frame(), args.out)
    return 0


def cmd_jet(args):
    g = _load_metric(args.file)
    k = args.k if args.k is not None else max(g.order - 2, 0)
    if k < 0:
        raise InputError("need k >= 0")
    jet = curvature_jet_at_origin(g, k)
    _write_json(jet.json_frame(), args.out)
    return 0


def cmd_roundtrip(args):
    g = _load_metric(args.file)
    k = args.k if args.k is not None else max(g.order - 2, 0)
    if k < 0:
        raise InputError("need k >= 0")
    jet = curvature_jet_at_origin(g, k)
    s = symmetrize_jet(jet, validate=False)
    g2 = metric_from_symjet(s)
    for d in range(1, k + 3):
        diff = g.part(d) - g2.part(d)
        if not diff.is_zero():
            print(f"roundtrip FAILED through degree {k + 2}: first difference at degree {d}, "
                  f"{len(diff.coeffs)} components differ")
            return 1
    print(f"roundtrip exact through degree {k + 2}")
    return 0


def cmd_extend(args):
    loaded = _load_jet_like(args.file)
    if not isinstance(loaded, CurvatureJet):
        raise InputError("extend expects a curvature jet file")
    _write_json(_extend_jet(loaded).json_frame(), args.out)
    return 0


def cmd_verify(args):
    if args.n < 2:
        raise InputError("need n >= 2")
    if args.max_k < 0:
        raise InputError("need max-k >= 0")
    if args.trials < 1:
        raise InputError("need trials >= 1")
    results = run_suites(args.suite, n=args.n, max_k=args.max_k,
                         seed=args.seed, trials=args.trials)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status} {r.name}"
        if r.detail:
            line += f"  ({r.detail})"
        print(line)
        if not r.passed:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def cmd_example(args):
    if args.name != "const-curvature":
        raise InputError(f"unknown example {args.name!r}")
    if args.order < 0:
        raise InputError("need order >= 0")
    n = args.n
    signature = _parse_signature(args.signature, n) if args.signature else (1,) * n
    space = Space(n, signature)
    try:
        kappa = parse_rational(args.kappa)
    except ValueError as exc:
        raise InputError(f"bad curvature value {args.kappa!r}") from exc
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise InputError(f"cannot write {args.out}: {exc}") from exc
    jet = const_curvature_jet(space, kappa, args.order)
    s = symmetrize_jet(jet)
    g = metric_from_symjet(s)
    _write_json(s.json_frame(), os.path.join(args.out, "symjet.json"))
    _write_json(jet.json_frame(), os.path.join(args.out, "jet.json"))
    _write_json(g.json_frame(), os.path.join(args.out, "metric.json"))
    print(f"wrote symjet.json, jet.json, metric.json to {args.out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="jetiso",
        description="Exact conversions between curvature jets and "
                    "normal-coordinate metric expansions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("qpoly", help="print a universal expansion polynomial")
    p.add_argument("-k", type=int, required=True, help="weighted degree")
    p.add_argument("--tilde", action="store_true",
                   help="the parallel transport coefficient instead of the metric one")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--max", type=int, default=QPOLY_DEFAULT_MAX,
                   help="guard against accidentally huge degrees")
    p.set_defaults(func=cmd_qpoly)

    p = sub.add_parser("dims", help="dimension counts of the component spaces")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, required=True)
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("expand",
                       help="metric Taylor polynomial from a jet or symmetrized jet")
    p.add_argument("file")
    p.add_argument("--order", type=int, default=None,
                   help="truncate the expansion at this degree")
    p.add_argument("-o", "--out", default=None, help="output file (default stdout)")
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("jet", help="curvature jet of a metric at the origin")
    p.add_argument("file")
    p.add_argument("-k", type=int, default=None, help="jet order (default: degree-2)")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_jet)

    p = sub.add_parser("roundtrip",
                       help="check metric -> jet -> metric exactness; exit 0 iff exact")
    p.add_argument("file")
    p.add_argument("-k", type=int, default=None)
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("extend", help="extend a valid jet by one order")
    p.add_argument("file")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("verify", help="run exact self-check suites")
    p.add_argument("--suite", default="all",
                   help="|".join(("all",) + SUITE_NAMES))
    p.add_argument("-n", type=int, default=3)
    p.add_argument("--max-k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=3)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("example", help="emit a stock example as JSON files")
    p.add_argument("--name", default="const-curvature")
    p.add_argument("--kappa", default="1", help="curvature constant (rational)")
    p.add_argument("-n", type=int, default=3)
    p.add_argument("--signature", default=None, help="e.g. '+++' or '-++'")
    p.add_argument("--order", type=int, default=2)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_example)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InvalidJetError as exc:
        for v in exc.violations:
            print(str(v), file=sys.stderr)
        return 1
    except (InputError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
