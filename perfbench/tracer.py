"""Per-function self times and counters, recorded from outside the program.

The tracer replaces each listed function object wherever it is bound in a
loaded ``ziphasse`` module (its home module, modules that imported it by
name, and the package namespace), so a call through any alias enters a
span.  Spans nest on one stack: a span's self time is its duration minus
the durations of the spans it directly contains, so over a pass the self
times of all functions add up exactly to the time spent in the outermost
spans.  ``uninstall`` puts every original object back.

IntMatrix.__mul__ and the _dot helpers are deliberately not traced: they
run millions of times per pass, and their cost shows as their callers'
self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

PACKAGE = "ziphasse"

TRACED = {
    "cli_report": ("main", "parse_config", "run", "render_json",
                   "render_text"),
    "zip_core": ("build_zip_datum", "zeta_matrix", "s0_characters",
                 "orbit_census", "pic_rank"),
    "weyl": ("enumerate_weyl", "min_coset_reps", "longest_element",
             "subgroup_indices"),
    "root_datum": ("build_group", "opp_type", "positive_roots",
                   "fundamental_weights", "char_lattice_of_parabolic",
                   "picard_torsion", "reflection_matrix"),
    "positivity": ("hasse_divisor_coeffs", "weil_pullback_check"),
    "exact_linear": ("smith_normal_form", "determinant", "solve_rational",
                     "rational_inverse", "kernel_basis"),
}

COUNTERS = ("weyl.elements", "zip_core.orbits", "root_datum.positive_roots.roots",
            "zip_core.zeta_matrix.max_rank",
            "exact_linear.smith_normal_form.max_bits")


def _max_bits(snf) -> int:
    return max((abs(x).bit_length() for m in (snf.U, snf.V) for x in m.entries),
               default=0)


# name -> (counter, how the result updates it)
_OBSERVERS = {
    "weyl.enumerate_weyl": ("weyl.elements", lambda c, r: c + len(r)),
    "zip_core.orbit_census": ("zip_core.orbits", lambda c, r: c + len(r.orbits)),
    "root_datum.positive_roots": ("root_datum.positive_roots.roots",
                                  lambda c, r: c + len(r.roots)),
    "zip_core.zeta_matrix": ("zip_core.zeta_matrix.max_rank",
                             lambda c, r: max(c, r.rows)),
    "exact_linear.smith_normal_form": ("exact_linear.smith_normal_form.max_bits",
                                       lambda c, r: max(c, _max_bits(r))),
}


class Tracer:
    def __init__(self):
        self.self_ns = {}
        self.calls = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.root_ns = 0          # total duration of outermost spans
        self._stack = []          # child time accumulated by each open span
        self._undo = []

    def _wrap(self, name, fn):
        stack = self._stack
        observer = _OBSERVERS.get(name)
        self.self_ns[name] = 0
        self.calls[name] = 0

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if observer is not None:
                    counter, update = observer
                    self.counters[counter] = update(self.counters[counter],
                                                    result)
                return result
            finally:
                duration = perf_counter_ns() - start
                self.self_ns[name] += duration - stack.pop()
                self.calls[name] += 1
                if stack:
                    stack[-1] += duration
                else:
                    self.root_ns += duration

        return span

    def install(self):
        wrappers = {}
        for module, names in TRACED.items():
            home = importlib.import_module("%s.%s" % (PACKAGE, module))
            for fname in names:
                fn = getattr(home, fname)
                wrappers[id(fn)] = (fn, self._wrap("%s.%s" % (module, fname), fn))
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._undo.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
