"""Per-layer spans recorded from outside the program.

Each public function listed in SPANS is wrapped at its module boundary. The
wrapper replaces the function object wherever a ``qpcoherent`` module holds
it, because ``cli``, ``coherent`` and ``unity`` import by name. A span
records calls, inclusive CPU time and self time (inclusive time minus the
time of wrapped children); work counters are read from arguments and results.
Spans stay in memory and are read once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _terms_used(result, args, kwargs):
    return result.terms_used


def _fourier_panels(result, args, kwargs):
    return result.diagnostics["panels"]


def _fourier_matrix_bytes(result, args, kwargs):
    # bytes of the exp(-i x y) matrices adaptive_gl builds over all sweeps:
    # G * nodes * 16 per panel, panels 1 + 2 + ... + P = 2P - 1
    panels = result.diagnostics["panels"]
    nodes = kwargs.get("nodes", 64)
    return len(result.grid_x) * nodes * 16 * (2 * panels - 1)


#: (module, function, [(counter name, fn(result, args, kwargs) -> number)])
SPANS = (
    ("qnumbers", "qp_sequence",
     [("qnumbers.qp_sequence.terms", lambda r, a, k: a[0])]),
    ("qnumbers", "log_abs_numbers", []),
    ("defexp", "exp1", [("defexp.exp.terms", _terms_used)]),
    ("defexp", "exp2", [("defexp.exp.terms", _terms_used)]),
    ("fock", "build_operators", []),
    ("fock", "relation_residuals", []),
    ("coherent", "make_state",
     [("coherent.make_state.coeffs", lambda r, a, k: r.dim)]),
    ("coherent", "overlap", []),
    ("coherent", "annihilator_residual", []),
    ("unity", "target_moments", []),
    ("unity", "weight_from_moments", []),
    ("unity", "physical_weight",
     [("unity.physical_weight.points", lambda r, a, k: len(a[0].grid_x))]),
    ("unity", "weight_from_fourier",
     [("unity.weight_from_fourier.panels", _fourier_panels),
      ("unity.weight_from_fourier.matrix_bytes", _fourier_matrix_bytes)]),
    ("unity", "moment_ratios",
     [("unity.moment_ratios.panels", lambda r, a, k: r[1])]),
    ("unity", "weight_to_csv", []),
    ("unity", "weight_to_json", []),
    ("_quad", "adaptive_gl", []),
    ("convergence", "proposition1_check", []),
    ("convergence", "proposition2_check",
     [("convergence.proposition2_check.rows", lambda r, a, k: len(r))]),
    ("convergence", "regime_report_to_csv", []),
    ("cli", "main", []),
)

def span_name(modname: str, fname: str) -> str:
    # metric names start with a letter, so `_quad` is reported as `quad`
    return f"{modname.lstrip('_')}.{fname}"


COUNTERS = tuple(dict.fromkeys(
    name for _, _, counters in SPANS for name, _ in counters))
COUNTER_UNITS = {"unity.weight_from_fourier.matrix_bytes": "B_computed/op",
                 "cli.main.output_bytes": "B/op"}


class Tracer:
    """Wraps the SPANS functions; ``uninstall`` puts the originals back."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.time_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._children = []  # child-time accumulator per open span
        self._patched = []

    def _wrap(self, name, fn, counters):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.process_time() - t0
                child = self._children.pop()
                self.calls[name] += 1
                self.time_s[name] += dt
                self.self_s[name] += dt - child
                if self._children:
                    self._children[-1] += dt
            for counter, read in counters:
                self.counts[counter] += read(result, args, kwargs)
            return result
        return wrapper

    def install(self):
        modules = [m for k, m in sys.modules.items()
                   if k == "qpcoherent" or k.startswith("qpcoherent.")]
        for modname, fname, counters in SPANS:
            original = getattr(sys.modules[f"qpcoherent.{modname}"], fname)
            wrapper = self._wrap(span_name(modname, fname), original, counters)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        # cli.main output bytes come from the captured stdout of each call
        cli = sys.modules["qpcoherent.cli"]
        inner = cli.main

        def main(*args, **kwargs):
            start = sys.stdout.tell()
            try:
                return inner(*args, **kwargs)
            finally:
                self.counts["cli.main.output_bytes"] += sys.stdout.tell() - start
        cli.main = main
        self._patched.append((cli, "main", inner))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def metrics(self, ops: int) -> dict:
        """Every per-layer metric, as a mean per operation of the run."""
        out = {}
        for modname, fname, _ in SPANS:
            name = span_name(modname, fname)
            out[f"{name}.calls"] = (self.calls[name] / ops, "count/op")
            out[f"{name}.time_s"] = (self.time_s[name] / ops, "s/op")
            out[f"{name}.self_s"] = (self.self_s[name] / ops, "s/op")
        for counter in COUNTERS + ("cli.main.output_bytes",):
            unit = COUNTER_UNITS.get(counter, "count/op")
            out[counter] = (self.counts[counter] / ops, unit)
        return out
