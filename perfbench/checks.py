"""Checks on every CLI output, independent of how the numbers were computed.

A document fails when main() raised (recorded as exit code 1, as the
interpreter would exit), when its exit code is outside the class expected
for it (0 or 3 for valid input, 2 for invalid input), or when one of the
invariants below does not hold for its report.

hasse section:  s0_order == |det_zeta| == prod(invariant_factors), each
                factor divides the next, hasse_number is the last factor.
orbits section: lengths never decrease, exactly one orbit has codim 0 and
                it has the largest dim, len(codim1) == pic_rank == |I \\ J|.
"""

from __future__ import annotations

import ast
import hashlib
import json
import re
from math import prod

from corpus import Doc

_SECTIONS = {
    "hasse": ("hasse",),
    "orbits": ("orbits",),
    "positivity": ("positivity",),
    "picard": ("picard",),
    "all": ("hasse", "orbits", "positivity", "picard"),
}

_HASSE_TEXT = re.compile(
    r"^hasse: invariant_factors=(\[.*?\]) hasse_number=(\S+) s0_order=(\S+) "
    r"det_zeta=(\S+) ", re.M)
_ORBITS_TEXT = re.compile(
    r"^orbits: count=(\d+) eta_length=(\d+) codim1=(\d+) pic_rank=(\d+)$", re.M)
_ORBIT_TEXT = re.compile(
    r"^  orbit word=\[[\d, ]*\] length=(\d+) dim=(\d+) codim=(\d+)$", re.M)
_TYPES_TEXT = re.compile(r"^types: J=(\[[\d, ]*\]) ", re.M)
_WARNING_TEXT = re.compile(r"^warning: (\w+): ", re.M)


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode("utf-8")).hexdigest()


def _from_json(stdout: str) -> dict:
    data = json.loads(stdout)
    out = {"J": data["J"], "warnings": [w["code"] for w in data["warnings"]]}
    if "hasse_number" in data:
        out["hasse"] = (data["invariant_factors"], data["hasse_number"],
                        data["s0_order"], data["det_zeta"])
    if "orbits" in data:
        out["orbits"] = [(o["length"], o["dim"], o["codim"])
                         for o in data["orbits"]]
        out["codim1"] = len(data["codim1"])
        out["pic_rank"] = data["pic_rank"]
    if "positivity" in data:
        out["positivity"] = True
    if "picard" in data:
        out["picard"] = True
    return out


def _from_text(stdout: str) -> dict:
    types = _TYPES_TEXT.search(stdout)
    if types is None:
        raise ValueError("no types line")
    out = {"J": ast.literal_eval(types.group(1)),
           "warnings": _WARNING_TEXT.findall(stdout)}
    hasse = _HASSE_TEXT.search(stdout)
    if hasse:
        out["hasse"] = (ast.literal_eval(hasse.group(1)),) + hasse.groups()[1:]
    summary = _ORBITS_TEXT.search(stdout)
    if summary:
        out["orbits"] = [tuple(int(x) for x in m)
                         for m in _ORBIT_TEXT.findall(stdout)]
        if len(out["orbits"]) != int(summary.group(1)):
            raise ValueError("orbit count line disagrees with the orbit lines")
        out["codim1"] = int(summary.group(3))
        out["pic_rank"] = int(summary.group(4))
    if re.search(r"^positivity: ", stdout, re.M):
        out["positivity"] = True
    if re.search(r"^picard: ", stdout, re.M):
        out["picard"] = True
    return out


def _hasse_problems(section) -> list:
    factors, hasse, order, det = section
    factors = [int(f) for f in factors]
    hasse, order, det = int(hasse), int(order), int(det)
    problems = []
    if not order == abs(det) == prod(factors):
        problems.append("s0_order %d, |det_zeta| %d and the product of the "
                        "invariant factors %d differ" % (order, abs(det),
                                                         prod(factors)))
    if any(f <= 0 for f in factors) or any(b % a for a, b in
                                            zip(factors, factors[1:])):
        problems.append("invariant factors %s do not divide each other"
                        % (factors,))
    if hasse != (factors[-1] if factors else 1):
        problems.append("hasse_number %d is not the last factor" % (hasse,))
    return problems


def _orbit_problems(info, nodes) -> list:
    orbits = info["orbits"]
    problems = []
    lengths = [o[0] for o in orbits]
    if lengths != sorted(lengths):
        problems.append("orbit lengths decrease")
    top = [o for o in orbits if o[2] == 0]
    if len(top) != 1 or top[0][1] != max(o[1] for o in orbits):
        problems.append("not exactly one open orbit of largest dim")
    outside = nodes - len(info["J"])
    if not info["codim1"] == info["pic_rank"] == outside:
        problems.append("codim1 count %d, pic_rank %d and |I \\ J| %d differ"
                        % (info["codim1"], info["pic_rank"], outside))
    return problems


def check(doc: Doc, exit_code: int, stdout: str) -> list:
    """Problems with one CLI result; an empty list means it passed."""
    if exit_code not in doc.expect:
        return ["exit code %r, expected one of %s" % (exit_code, doc.expect)]
    if exit_code == 2:
        return [] if stdout == "" else ["input error wrote a report"]
    try:
        info = _from_json(stdout) if doc.fmt == "json" else _from_text(stdout)
    except (ValueError, KeyError, TypeError, SyntaxError) as exc:
        return ["unreadable report: %s" % (exc,)]
    problems = []
    if (exit_code == 3) != bool(info["warnings"]):
        problems.append("exit code %d with warnings %s"
                        % (exit_code, info["warnings"]))
    for section in _SECTIONS[doc.command]:
        if section == "orbits" and "WeylGroupTooLarge" in info["warnings"]:
            continue
        if section not in info:
            problems.append("missing %s section" % (section,))
    try:
        if "hasse" in info:
            problems += _hasse_problems(info["hasse"])
        if "orbits" in info:
            problems += _orbit_problems(info, doc.nodes)
    except (ValueError, TypeError) as exc:
        problems.append("malformed section: %s" % (exc,))
    return problems
