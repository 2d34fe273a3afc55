"""Batch command-line surface: parse a datum config, run pipelines, report.

Input is a JSON document describing one datum; output is a flat,
deterministic report in JSON (integers that may grow with q^d are serialized
as decimal strings) or a plain-text rendering of the same numbers.  Node
indices are 1-based on the wire and 0-based internally.

Exit codes: 0 success, 2 input error, 3 computation obstruction (a partial
report is still written).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import Optional

from . import positivity, root_datum, weyl, zip_core


class ParseError(ValueError):
    """Malformed input document."""


class ValidationError(ValueError):
    """Well-formed document with invalid content."""


COMMANDS = ("hasse", "orbits", "positivity", "picard", "all")

# Largest rank of X* a document may ask for; checked before anything is built.
MAX_RANK = 128
# Largest bit length of q; is_prime_power factors q by trial division.
MAX_Q_BITS = 40

_TOP_KEYS = {"q", "group", "cocharacter", "parabolic_type", "options"}
_OPTION_KEYS = {"weyl_cap", "format"}


@dataclass
class DatumConfig:
    q: int
    group: dict
    cocharacter: Optional[tuple]
    parabolic_type: Optional[tuple]  # 0-based, sorted
    weyl_cap: int
    fmt: Optional[str]


def _require_int(value, what):
    """root_datum.require_int, its refusal raised as a ValidationError."""
    try:
        return root_datum.require_int(value, what)
    except root_datum.InvalidRankError as exc:
        raise ValidationError(str(exc))


def parse_config(text: str) -> DatumConfig:
    """Parse and validate one JSON config document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg))
    except RecursionError:
        raise ParseError("the document is nested too deeply")
    except ValueError:
        # an integer literal longer than sys.get_int_max_str_digits()
        raise ParseError("an integer literal has too many digits")
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise ValidationError("unknown keys %s" % (sorted(unknown),))

    q = _require_int(doc.get("q"), "q")
    if q < 2:
        raise ValidationError("q must be >= 2")
    if q.bit_length() > MAX_Q_BITS:
        raise ValidationError("q has %d bits, above the budget of %d"
                              % (q.bit_length(), MAX_Q_BITS))
    if "group" not in doc:
        raise ValidationError("missing group")
    try:
        group, rank = root_datum.check_group(doc["group"])
    except ValueError as exc:
        raise ValidationError(str(exc))
    if rank > MAX_RANK:
        raise ValidationError("the group has rank %d, above the budget of %d"
                              % (rank, MAX_RANK))

    has_cochar = "cocharacter" in doc
    has_parab = "parabolic_type" in doc
    if has_cochar == has_parab:
        raise ValidationError(
            "exactly one of cocharacter or parabolic_type is required")
    cochar = None
    parab = None
    if has_cochar:
        raw = doc["cocharacter"]
        if not isinstance(raw, list):
            raise ValidationError("cocharacter must be a list of integers")
        cochar = tuple(_require_int(x, "cocharacter entry") for x in raw)
    else:
        raw = doc["parabolic_type"]
        if not isinstance(raw, list):
            raise ValidationError("parabolic_type must be a list of indices")
        nodes = [_require_int(x, "parabolic_type entry") for x in raw]
        if any(x < 1 for x in nodes):
            raise ValidationError("parabolic_type indices are 1-based")
        if len(set(nodes)) != len(nodes):
            raise ValidationError("parabolic_type has repeated indices")
        parab = tuple(sorted(x - 1 for x in nodes))

    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ValidationError("options must be an object")
    unknown = set(options) - _OPTION_KEYS
    if unknown:
        raise ValidationError("unknown option keys %s" % (sorted(unknown),))
    cap = _require_int(options.get("weyl_cap", weyl.DEFAULT_CAP), "weyl_cap")
    if cap < 1:
        raise ValidationError("weyl_cap must be >= 1, got %d" % (cap,))
    fmt = options.get("format")
    if fmt is not None and fmt not in ("json", "text"):
        raise ValidationError("format must be json or text")
    return DatumConfig(q=q, group=group, cocharacter=cochar,
                       parabolic_type=parab, weyl_cap=cap, fmt=fmt)


@dataclass
class Report:
    data: dict


def _nodes_out(nodes) -> list:
    return [i + 1 for i in sorted(nodes)]


def _positivity_section(zd) -> list:
    """Reports for the canonical ample character -sum(omega_i, i outside J)."""
    lam = tuple(-x for x in root_datum.fundamental_weight_sum(zd.rd, zd.J))
    entry = {"character": [str(x) for x in lam]}
    try:
        rep = positivity.hasse_divisor_coeffs(zd, lam)
    except positivity.NotRationalCaseError:
        try:
            entry.update({
                "kind": "weil_pullback",
                "certified": positivity.weil_pullback_check(zd, lam),
                "verdict": positivity.NOT_APPLICABLE,
            })
        except positivity.NotWeilRestrictionError:
            entry.update({"kind": "uncovered", "verdict": positivity.NOT_APPLICABLE})
    else:
        entry.update({
            "kind": "divisor_coefficients",
            "borel_coefficients": [str(c) for c in rep.borel_coefficients],
            "negative_count": rep.negative_count,
            "verdict": rep.verdict,
            "antiample_certified": rep.antiample_certified,
            "zeta_inverse_image": [str(x) for x in rep.zeta_inverse_image],
        })
    return [entry]


def run(command: str, cfg: DatumConfig) -> Report:
    """Run the requested pipelines and assemble a flat report."""
    if command not in COMMANDS:
        raise ValidationError("unknown command %r" % (command,))
    try:
        rd, frob = root_datum.build_group(cfg.group, cfg.q)
        nodes = cfg.parabolic_type
        if nodes and nodes[-1] >= rd.num_nodes:
            raise ValidationError("parabolic_type index %d is out of range 1..%d"
                                  % (nodes[-1] + 1, rd.num_nodes))
        zd = zip_core.build_zip_datum(
            rd, frob,
            cocharacter=cfg.cocharacter,
            parabolic=cfg.parabolic_type if cfg.cocharacter is None else None)
    except ValueError as exc:
        raise ValidationError(str(exc))

    data = {"q": cfg.q, "group": cfg.group}
    if cfg.cocharacter is not None:
        data["cocharacter"] = list(cfg.cocharacter)
    else:
        data["parabolic_type"] = _nodes_out(cfg.parabolic_type)
    data["J"] = _nodes_out(zd.J)
    data["K"] = _nodes_out(zd.K)
    data["J0"] = _nodes_out(zd.J0)
    warnings = []

    if command in ("hasse", "all"):
        try:
            report = zip_core.s0_characters(zd)
        except zip_core.PicObstructionError as exc:
            report = exc.report
            warnings.append({"code": "PicObstruction", "detail": str(exc)})
        data["zeta"] = [list(report.zeta.row(i)) for i in range(report.zeta.rows)]
        data["det_zeta"] = str(report.det_zeta)
        data["invariant_factors"] = [str(f) for f in report.invariant_factors]
        data["hasse_number"] = str(report.hasse_number)
        data["s0_order"] = str(report.s0_order)
        data["pic_L0_trivial"] = report.pic_L0_trivial

    if command in ("orbits", "all"):
        order = weyl.classical_order(rd)
        if order > cfg.weyl_cap:
            exc = weyl.WeylGroupTooLargeError(order, cfg.weyl_cap)
            warnings.append({"code": "WeylGroupTooLarge", "detail": str(exc)})
        else:
            census = zip_core.orbit_census(zd)
            data["orbits"] = census  # written as its orbit table
            data["codim1"] = [
                {"node": s + 1, "orbit": pos}
                for s, pos in census.codim1_indices
            ]
            data["eta_length"] = census.eta_length
            data["pic_rank"] = zip_core.pic_rank(zd)

    if command in ("positivity", "all"):
        data["positivity"] = _positivity_section(zd)

    if command in ("picard", "all"):
        data["picard"] = [str(f) for f in root_datum.picard_torsion(rd)]

    data["warnings"] = warnings
    return Report(data=data)


_escape = json.encoder.encode_basestring_ascii
_ATOMS = {True: "true", False: "false", None: "null"}


def _word_texts(words, open_: str, sep: str, close: str) -> list:
    """The text of each word, its letters 1-based between open_ and close
    and joined by sep, from one string per letter made once; "[]" when
    the word is empty."""
    top = max(map(max, filter(None, words)), default=0)
    letters = [str(i) for i in range(1, top + 2)]
    at = letters.__getitem__
    return [open_ + sep.join(map(at, w)) + close if w else "[]" for w in words]


def _orbit_table(census, pad: str) -> str:
    """The JSON text of the orbits of census at indent pad: the list of
    {"codim", "dim", "length", "word"} rows, word 1-based, that json.dumps
    would write, each row made from one template."""
    inner = pad + "  "
    key = inner + "  "
    item = key + "  "
    row = ("{\n" + key + '"codim": %d,\n' + key + '"dim": %d,\n' + key
           + '"length": %d,\n' + key + '"word": %s\n' + inner + "}")
    rows = map(row.__mod__, zip(
        census.codims, census.dims, census.lengths,
        _word_texts(census.words, "[\n" + item, ",\n" + item, "\n" + key + "]")))
    return "[\n" + inner + (",\n" + inner).join(rows) + "\n" + pad + "]"


def _write(value, pad: str, out: list) -> None:
    """Append the JSON text of value to out; pad indents the line it starts on.

    The same bytes as json.dumps(value, sort_keys=True, indent=2), whose
    indented form never uses the C encoder.  Only dicts with str keys,
    lists, tuples, str, int, True, False and None are written; any other
    type raises TypeError (for a key, from the sort or from the escaper).
    An OrbitCensus is written as its orbit table.
    """
    kind = type(value)
    if kind is int:
        out.append(str(value))
    elif kind is str:
        out.append(_escape(value))
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        lead = "{\n" + inner
        for key in sorted(value):
            out.append(lead)
            out.append(_escape(key))
            out.append(": ")
            _write(value[key], inner, out)
            lead = sep
        out.append("\n" + pad + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        out.append("[\n" + inner)
        kinds = set(map(type, value))
        if kinds == {int}:
            out.append(sep.join(map(str, value)))
        elif kinds == {str}:
            out.append(sep.join(map(_escape, value)))
        else:
            items = iter(value)
            _write(next(items), inner, out)
            for item in items:
                out.append(sep)
                _write(item, inner, out)
        out.append("\n" + pad + "]")
    elif kind is bool or value is None:
        out.append(_ATOMS[value])
    elif kind is zip_core.OrbitCensus:
        out.append(_orbit_table(value, pad))
    else:
        raise TypeError("%s is not written as JSON" % (kind.__name__,))


def render_json(report: Report) -> str:
    out = []
    _write(report.data, "", out)
    out.append("\n")
    return "".join(out)


def render_text(report: Report) -> str:
    d = report.data
    lines = []
    group = json.dumps(d["group"], sort_keys=True)
    lines.append("datum: q=%d group=%s" % (d["q"], group))
    lines.append("types: J=%s K=%s J0=%s" % (d["J"], d["K"], d["J0"]))
    if "hasse_number" in d:
        lines.append("hasse: invariant_factors=%s hasse_number=%s s0_order=%s "
                     "det_zeta=%s pic_L0_trivial=%s"
                     % (d["invariant_factors"], d["hasse_number"],
                        d["s0_order"], d["det_zeta"], d["pic_L0_trivial"]))
        lines.append("zeta: %s" % (d["zeta"],))
    if "orbits" in d:
        census = d["orbits"]
        lines.append("orbits: count=%d eta_length=%d codim1=%d pic_rank=%d"
                     % (len(census.words), d["eta_length"], len(d["codim1"]),
                        d["pic_rank"]))
        lines.extend(map("  orbit word=%s length=%d dim=%d codim=%d".__mod__, zip(
            _word_texts(census.words, "[", ", ", "]"),
            census.lengths, census.dims, census.codims)))
    if "positivity" in d:
        for entry in d["positivity"]:
            lines.append("positivity: %s" % (json.dumps(entry, sort_keys=True),))
    if "picard" in d:
        lines.append("picard: torsion=%s" % (d["picard"],))
    for w in d.get("warnings", []):
        lines.append("warning: %s: %s" % (w["code"], w["detail"]))
    return "\n".join(lines) + "\n"


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every main()."""
    parser = argparse.ArgumentParser(
        prog="ziphasse",
        description="Hasse-invariant combinatorics of zip data")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", default="-",
                        help="config path or - for stdin (default)")
    parser.add_argument("--format", choices=("json", "text"), default=None)
    parser.add_argument("--weyl-cap", type=int, default=None, metavar="N", help=(
        "integer >= 1 (default %d): orbits/all exit 3 when |W|, read off the "
        "order formula, exceeds N; W is never enumerated" % weyl.DEFAULT_CAP))
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.weyl_cap is not None and args.weyl_cap < 1:
        parser.error("argument --weyl-cap: must be >= 1")

    try:
        if args.input == "-":
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        print("ziphasse: %s" % (exc,), file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print("ziphasse: %s is not UTF-8: %s" % (args.input, exc), file=sys.stderr)
        return 2

    try:
        cfg = parse_config(text)
        if args.weyl_cap is not None:
            cfg.weyl_cap = args.weyl_cap
        report = run(args.command, cfg)
    except (ParseError, ValidationError) as exc:
        print("ziphasse: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2

    fmt = args.format or cfg.fmt or "json"
    if fmt == "json":
        sys.stdout.write(render_json(report))
    else:
        sys.stdout.write(render_text(report))
    warnings = report.data["warnings"]
    for w in warnings:
        print("ziphasse: %s: %s" % (w["code"], w["detail"]), file=sys.stderr)
    return 3 if warnings else 0
