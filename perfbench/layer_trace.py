"""Per-layer spans around the public functions of each qspec module.

Imported by run.py for the metric names only (importing this file does not
import qspec).  Run as a script, it executes one qspec CLI invocation in this
fresh process with every function in LAYERS wrapped, and writes the counters
as JSON:

    python3 perfbench/layer_trace.py STATS_OUT.json -- verdict --quantale godel3 --size 2

Spans nest through a stack, so a function's self time is its total time minus
the time of the wrapped functions it called.  The wrappers replace the name in
the defining module and in every qspec module that bound it with
``from ... import``; nothing under src/ is edited.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# module -> public functions timed, in report order
LAYERS = {
    "quantale": ("verify_quantale", "endomorphisms"),
    "relations": ("compose", "add", "dagger", "scalar_mul",
                  "add_via_biproduct", "scalar_mul_via_tensor"),
    "subalgebra": ("get_endospace", "enumerate_vn", "commutant", "is_von_neumann",
                   "primitive_idempotents", "validate_decomposition"),
    "spectra": ("gelfand_spectrum", "prime_spectrum", "characters_to_two",
                "restrict_character", "restrict_prime", "character_kernel"),
    "contextuality": ("ks_verdict", "build_presheaf", "global_sections",
                      "canonical_section", "section_element",
                      "transport_prime_section", "transport_gelfand_section"),
    "csp": ("solve_all", "ac3"),
    "zariski": ("zariski_topology", "closed_family_from_basis", "separation_report",
                "kolmogorov_quotient", "check_continuity", "verify_quotient_xi"),
    "checks": ("quantale_suite", "relations_suite", "algebras_suite",
               "spectra_suite", "topology_suite"),
    "cli": ("main",),
}

# Functions that call no other wrapped function: total time equals self time,
# so only self time is reported.  add_via_biproduct and scalar_mul_via_tensor
# are not leaves: they compose through relations.compose and dagger.
LEAVES = frozenset({
    "relations.compose", "relations.add", "relations.dagger", "relations.scalar_mul",
    "spectra.restrict_character", "spectra.restrict_prime", "spectra.character_kernel",
    "csp.ac3", "zariski.closed_family_from_basis",
})

# Stage sizes read from returned objects; per pass, the largest value any one
# invocation produced.  run.py adds cli.report_bytes, the pass's report total.
SIZES = ("subalgebra.hom_size", "subalgebra.algebras", "subalgebra.inclusions",
         "subalgebra.hasse_edges", "spectra.characters", "spectra.prime_points",
         "csp.sections.gelfand", "csp.sections.prime")


def span_keys():
    return [f"{module}.{fn}" for module, fns in LAYERS.items() for fn in fns]


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for key in span_keys():
        units[f"{key}.calls"] = "count"
        if key not in LEAVES:
            units[f"{key}.total_s"] = "s"
        units[f"{key}.self_s"] = "s"
    units.update(dict.fromkeys(SIZES, "count"))
    units["cli.report_bytes"] = "bytes"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Call counts, total and self time per span key, plus stage sizes."""

    def __init__(self):
        self.calls = dict.fromkeys(span_keys(), 0)
        self.total = dict.fromkeys(span_keys(), 0.0)
        self.self_time = dict.fromkeys(span_keys(), 0.0)
        self.depth = dict.fromkeys(span_keys(), 0)
        self.stack = []  # child time accumulated by each open span
        self.algebra_sizes = {"gelfand": {}, "prime": {}}
        self.sizes = dict.fromkeys(SIZES, 0)

    def wrap(self, key, fn, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.stack.append(0.0)
            self.depth[key] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self.stack.pop()
                if self.stack:
                    self.stack[-1] += elapsed
                self.depth[key] -= 1
                self.calls[key] += 1
                self.self_time[key] += elapsed - children
                if self.depth[key] == 0:  # count a recursive span once
                    self.total[key] += elapsed
            if on_result is not None:
                on_result(result, args)
            return result
        return traced

    def _grow(self, name, value):
        self.sizes[name] = max(self.sizes[name], value)

    def _on_endospace(self, space, args):
        self._grow("subalgebra.hom_size", space.size)

    def _on_poset(self, poset, args):
        self._grow("subalgebra.algebras", len(poset.algebras))
        self._grow("subalgebra.inclusions", len(poset.leq_pairs) - len(poset.algebras))
        self._grow("subalgebra.hasse_edges", len(poset.hasse))

    def _on_spectrum(self, spectrum, args):
        # distinct algebras only: the CLI and the suites rebuild the same spectra
        seen = self.algebra_sizes[spectrum.kind]
        seen[spectrum.algebra.members] = spectrum.size
        name = "spectra.characters" if spectrum.kind == "gelfand" else "spectra.prime_points"
        self.sizes[name] = sum(seen.values())

    def _on_sections(self, sections, args):
        self._grow(f"csp.sections.{args[0].kind}", len(sections))

    def install(self):
        """Replace every function in LAYERS wherever a qspec module bound it."""
        modules = [importlib.import_module(f"qspec.{m}") for m in LAYERS]
        modules.append(importlib.import_module("qspec"))
        hooks = {
            "subalgebra.get_endospace": self._on_endospace,
            "subalgebra.enumerate_vn": self._on_poset,
            "spectra.gelfand_spectrum": self._on_spectrum,
            "spectra.prime_spectrum": self._on_spectrum,
            "contextuality.global_sections": self._on_sections,
        }
        for module_name, fns in LAYERS.items():
            home = sys.modules[f"qspec.{module_name}"]
            for fn_name in fns:
                key = f"{module_name}.{fn_name}"
                original = getattr(home, fn_name)
                wrapped = self.wrap(key, original, hooks.get(key))
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        setattr(module, fn_name, wrapped)

    def to_json(self):
        return {"calls": self.calls, "total_s": self.total,
                "self_s": self.self_time, "sizes": self.sizes}


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: layer_trace.py STATS_OUT.json -- CLI_ARGS...")
    out_path, cli_args = argv[0], argv[2:]
    from qspec import cli
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
