"""Batch command-line surface: parse a datum config, run pipelines, report.

Input is a JSON document describing one datum; output is a flat,
deterministic report in JSON (integers that may grow with q^d are serialized
as decimal strings) or a plain-text rendering of the same numbers.  Node
indices are 1-based on the wire and 0-based internally.

Exit codes: 0 success, 2 input error or output error (the report could not
be written), 3 computation obstruction (a partial report is still written).

main parses each distinct argv once per process, keeping at most 64, and
hands the Namespace to every later call with that argv.  A usage error or
--help exits inside argparse and is never kept, so it prints and exits on
every call.  Only callers of main in one process share the memo.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from bisect import bisect_right
from typing import NamedTuple, Optional

from . import positivity, root_datum, zip_core


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


class DatumConfig(NamedTuple):
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
    cap = _require_int(options.get("weyl_cap", root_datum.DEFAULT_CAP), "weyl_cap")
    if cap < 1:
        raise ValidationError("weyl_cap must be >= 1, got %d" % (cap,))
    fmt = options.get("format")
    if fmt is not None and fmt not in ("json", "text"):
        raise ValidationError("format must be json or text")
    return DatumConfig(q=q, group=group, cocharacter=cochar,
                       parabolic_type=parab, weyl_cap=cap, fmt=fmt)


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


def run(command: str, cfg: DatumConfig) -> dict:
    """Run the requested pipelines and assemble a flat report, a dict."""
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
        order = root_datum.classical_order(rd)
        if order > cfg.weyl_cap:
            exc = root_datum.WeylGroupTooLargeError(order, cfg.weyl_cap)
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
    return data


_escape = json.encoder.encode_basestring_ascii
_ATOMS = {True: "true", False: "false", None: "null"}


def _levels(census, open_: str, sep: str):
    """(start, bodies) for each length l >= 1 of census: the position of
    its first orbit, and the text of each word of length l, its letters
    1-based after open_ and joined by sep, with no closing bracket.

    The orbits are in (length, word) order, so the orbits of one length are
    consecutive, and each word is its parent's, one length shorter, plus one
    letter: its body is the parent's body, sep and the letter.  Only the
    bodies of the previous length are kept.
    """
    parents, letters, lengths = census.parents, census.letters, census.lengths
    names = [str(i) for i in range(1, max(letters) + 2)]
    following = [sep + name for name in names]
    # the empty word's body is open_, and a first letter follows it directly
    bodies, before, glued = [open_], 0, names
    start, count = 1, len(lengths)
    while start < count:
        stop = bisect_right(lengths, lengths[start], start)
        bodies = [bodies[p - before] + glued[i]
                  for p, i in zip(parents[start:stop], letters[start:stop])]
        yield start, bodies
        before, glued = start, following
        start = stop


def _orbit_table(census, pad: str, emit) -> None:
    """Emit the JSON text of the orbits of census at indent pad: the list of
    {"codim", "dim", "length", "word"} rows, word 1-based, that json.dumps
    would write.  The rows of one length share codim, dim and length, so
    each length is one chunk: one head, and its word bodies in one join."""
    inner = pad + "  "
    key = inner + "  "
    item = key + "  "
    head = ("{\n" + key + '"codim": %d,\n' + key + '"dim": %d,\n' + key
            + '"length": %d,\n' + key + '"word": ')
    tail = "\n" + inner + "}"
    close = "\n" + key + "]" + tail
    dim_p, eta_length = census.dim_parabolic, census.eta_length
    emit("[\n" + inner + head % (eta_length, dim_p, 0) + "[]" + tail)
    for start, bodies in _levels(census, "[\n" + item, ",\n" + item):
        n = census.lengths[start]
        row = ",\n" + inner + head % (eta_length - n, dim_p + n, n)
        emit(row + (close + row).join(bodies) + close)
    emit("\n" + pad + "]")


def _write(value, pad: str, emit) -> None:
    """Emit the JSON text of value in chunks; pad indents the line it starts on.

    The same bytes as json.dumps(value, sort_keys=True, indent=2), whose
    indented form never uses the C encoder.  Only dicts with str keys,
    lists, tuples, str, int, True, False and None are written; any other
    type raises TypeError (for a key, from the sort or from the escaper).
    An OrbitCensus is written as its orbit table.
    """
    kind = type(value)
    if kind is int:
        emit(str(value))
    elif kind is str:
        emit(_escape(value))
    elif kind is dict:
        if not value:
            emit("{}")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        lead = "{\n" + inner
        for key in sorted(value):
            emit(lead + _escape(key) + ": ")
            _write(value[key], inner, emit)
            lead = sep
        emit("\n" + pad + "}")
    elif kind is list or kind is tuple:
        if not value:
            emit("[]")
            return
        inner = pad + "  "
        sep = ",\n" + inner
        kinds = set(map(type, value))
        if kinds == {int}:
            emit("[\n" + inner + sep.join(map(str, value)) + "\n" + pad + "]")
        elif kinds == {str}:
            emit("[\n" + inner + sep.join(map(_escape, value)) + "\n" + pad + "]")
        else:
            emit("[\n" + inner)
            items = iter(value)
            _write(next(items), inner, emit)
            for item in items:
                emit(sep)
                _write(item, inner, emit)
            emit("\n" + pad + "]")
    elif kind is bool or value is None:
        emit(_ATOMS[value])
    elif kind is zip_core.OrbitCensus:
        _orbit_table(value, pad, emit)
    else:
        raise TypeError("%s is not written as JSON" % (kind.__name__,))


def write_json(report: dict, stream) -> None:
    """Write the JSON text of report to a text stream, in chunks: the orbit
    table goes out one length at a time and is never held whole."""
    _write(report, "", stream.write)
    stream.write("\n")


def render_json(report: dict) -> str:
    """The JSON text of report: the chunks of write_json, joined."""
    out = []
    _write(report, "", out.append)
    out.append("\n")
    return "".join(out)


def _write_text(d: dict, emit) -> None:
    """Emit the plain-text rendering of the report d, one chunk per line,
    and the orbit lines one chunk per length as in _orbit_table."""
    group = json.dumps(d["group"], sort_keys=True)
    emit("datum: q=%d group=%s\n" % (d["q"], group))
    emit("types: J=%s K=%s J0=%s\n" % (d["J"], d["K"], d["J0"]))
    if "hasse_number" in d:
        emit("hasse: invariant_factors=%s hasse_number=%s s0_order=%s "
             "det_zeta=%s pic_L0_trivial=%s\n"
             % (d["invariant_factors"], d["hasse_number"],
                d["s0_order"], d["det_zeta"], d["pic_L0_trivial"]))
        emit("zeta: %s\n" % (d["zeta"],))
    if "orbits" in d:
        census = d["orbits"]
        emit("orbits: count=%d eta_length=%d codim1=%d pic_rank=%d\n"
             % (len(census.lengths), d["eta_length"], len(d["codim1"]),
                d["pic_rank"]))
        row = "  orbit word="
        tail = "] length=%d dim=%d codim=%d\n"
        dim_p, eta_length = census.dim_parabolic, census.eta_length
        emit(row + "[" + tail % (0, dim_p, eta_length))
        for start, bodies in _levels(census, "[", ", "):
            n = census.lengths[start]
            close = tail % (n, dim_p + n, eta_length - n)
            emit(row + (close + row).join(bodies) + close)
    if "positivity" in d:
        for entry in d["positivity"]:
            emit("positivity: %s\n" % (json.dumps(entry, sort_keys=True),))
    if "picard" in d:
        emit("picard: torsion=%s\n" % (d["picard"],))
    for w in d.get("warnings", []):
        emit("warning: %s: %s\n" % (w["code"], w["detail"]))


def write_text(report: dict, stream) -> None:
    """Write the plain-text rendering of report to a text stream, in chunks."""
    _write_text(report, stream.write)


def render_text(report: dict) -> str:
    """The plain-text rendering of report: the chunks of write_text, joined."""
    out = []
    _write_text(report, out.append)
    return "".join(out)


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
        "order formula, exceeds N; W is never enumerated" % root_datum.DEFAULT_CAP))
    return parser


@functools.lru_cache(maxsize=64)
def _parse(argv: tuple) -> argparse.Namespace:
    """The Namespace of argv, shared by every main() given argv; never mutated."""
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(tuple(sys.argv[1:] if argv is None else argv))
    if args.weyl_cap is not None and args.weyl_cap < 1:
        _parser().error("argument --weyl-cap: must be >= 1")

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
            cfg = cfg._replace(weyl_cap=args.weyl_cap)
        report = run(args.command, cfg)
    except (ParseError, ValidationError) as exc:
        print("ziphasse: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 2

    fmt = args.format or cfg.fmt or "json"
    try:
        (write_json if fmt == "json" else write_text)(report, sys.stdout)
        sys.stdout.flush()
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # as the Python docs advise on SIGPIPE: the flush at exit then
            # writes to os.devnull instead of raising on the closed pipe
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("ziphasse: cannot write the report: %s" % (exc,), file=sys.stderr)
        return 2
    warnings = report["warnings"]
    for w in warnings:
        print("ziphasse: %s: %s" % (w["code"], w["detail"]), file=sys.stderr)
    return 3 if warnings else 0
