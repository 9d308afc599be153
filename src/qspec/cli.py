"""Batch driver: reproducible reports for the whole verification pipeline.

Subcommands mirror the pipeline stages: check-quantale, algebras, spectrum,
sections, verdict, topology.  Reports are deterministic for a fixed
configuration and seed (keys sorted, no timestamps), and the exit status is
0 exactly when every invariant check in the run passed.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import sys

from qspec import checks
from qspec.contextuality import ks_verdict
from qspec.quantale import (
    QuantaleError, endomorphisms, is_zdf, load_quantale_file, parse_quantale_tag,
    quantale_to_doc, verify_quantale, zdf_witness,
)
from qspec.relations import carrier
from qspec.subalgebra import EnumerationBoundExceeded, InvariantViolation, enumerate_vn
from qspec.zariski import (
    separation_report, topology_to_json, zariski_quotient, zariski_topology,
)


def _parser():
    p = argparse.ArgumentParser(
        prog="qspec",
        description="Verification engine for finite quantale-valued relation categories.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, size=True, enumeration=True):
        src = sp.add_mutually_exclusive_group(required=True)
        src.add_argument("--quantale", help="builtin tag, e.g. boolean2, godel3, powerset2")
        src.add_argument("--file", help="path to a quantale definition document")
        if size:
            sp.add_argument("--size", type=int, default=2, help="carrier size |X|")
        if enumeration:
            sp.add_argument("--mode", choices=["exhaustive", "generated"],
                            default="exhaustive")
            sp.add_argument("--max-generators", type=int, default=2)
        sp.add_argument("--format", choices=["text", "json", "dot"], default="text")
        sp.add_argument("--out", help="write the report here instead of stdout")
        sp.add_argument("--seed", type=int, default=0)

    common(sub.add_parser("check-quantale", help="axiom report and calculus checks"),
           size=False, enumeration=False)
    common(sub.add_parser("algebras", help="enumerate the von Neumann algebra poset"))
    sp = sub.add_parser("spectrum", help="spectra of enumerated algebras")
    common(sp)
    sp.add_argument("--algebra", default="all",
                    help="trivial | diagonal | all | index of an enumerated algebra")
    common(sub.add_parser("sections", help="global sections of both presheaves"))
    common(sub.add_parser("verdict", help="the contextuality verdict"))
    sp = sub.add_parser("topology", help="Zariski topologies and quotients")
    common(sp)
    sp.add_argument("--algebra", default="all",
                    help="trivial | diagonal | all | index of an enumerated algebra")
    return p


def _load_quantale(args):
    if getattr(args, "size", 1) < 1:
        raise QuantaleError("carrier size must be at least 1")
    if getattr(args, "max_generators", 0) < 0:
        raise QuantaleError("--max-generators must be at least 0")
    q = parse_quantale_tag(args.quantale) if args.quantale else load_quantale_file(args.file)
    if hasattr(args, "mode"):  # the enumerating commands need a quantale
        report = verify_quantale(q)
        if not report.passed:
            axiom, witness = report.violations[0]
            raise QuantaleError(f"not a quantale: {axiom} fails at ({', '.join(witness)})")
    return q


def _select_algebras(poset, selector):
    if selector == "all":
        return list(range(len(poset.algebras)))
    if selector == "trivial":
        idx = poset.trivial_index
    elif selector == "diagonal":
        idx = poset.diagonal_index
    else:
        try:
            idx = int(selector)
        except ValueError:
            raise QuantaleError(f"unknown algebra selector {selector!r}") from None
        if not 0 <= idx < len(poset.algebras):
            raise QuantaleError(f"algebra index {idx} out of range")
    if idx is None:
        raise QuantaleError(f"algebra {selector!r} not present in this poset")
    return [idx]


def _emit(report, args, dot_text=None):
    if args.format == "dot" and dot_text is None:
        raise QuantaleError("dot output is only available for the algebras command")
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if args.format == "json":
            # streamed in blocks of chunks, so the encoded report is never held
            # whole in memory; one write per chunk (json.dump) is three times
            # slower on a redirected stdout
            chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(report)
            while block := "".join(itertools.islice(chunks, 4096)):
                fh.write(block)
            fh.write("\n")
        elif args.format == "dot":
            fh.write(dot_text)
        else:
            lines = [f"qspec {report['command']}  ({report['config']})"]
            for key, value in report.items():
                if key in ("command", "config", "checks", "passed"):
                    continue
                lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
            for c in report.get("checks", []):
                mark = "PASS" if c["passed"] else "FAIL"
                detail = f"  {c['details']}" if c["details"] else ""
                lines.append(f"[{mark}] {c['name']}{detail}")
            lines.append("result: " + ("ok" if report["passed"] else "FAILED"))
            fh.write("\n".join(lines) + "\n")


def _finish(report, results, args, dot_text=None):
    report["checks"] = [{"name": c.name, "passed": c.passed, "details": c.details}
                        for c in results]
    report["passed"] = all(c.passed for c in results)
    _emit(report, args, dot_text)
    return 0 if report["passed"] else 1


def _config(args, q):
    cfg = {"quantale": q.name, "seed": args.seed}
    for key in ("size", "mode", "max_generators", "algebra"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


def _cmd_check_quantale(args):
    q = _load_quantale(args)
    axioms = verify_quantale(q)
    report = {
        "command": "check-quantale",
        "config": _config(args, q),
        "document": quantale_to_doc(q),
        "axioms_passed": axioms.passed,
        "violations": [[name, list(w)] for name, w in axioms.violations],
        "zdf": is_zdf(q) if axioms.passed else None,
        "zdf_witness": list(zdf_witness(q)) if axioms.passed and not is_zdf(q) else None,
    }
    results = checks.quantale_suite(q)
    if axioms.passed:
        results += checks.relations_suite(q, args.seed)
        report["endomorphisms"] = [[q.elements[v] for v in h.mapping]
                                   for h in endomorphisms(q)]
    return _finish(report, results, args)


def _poset(args, q):
    x = carrier("X", args.size)
    return x, enumerate_vn(x, q, mode=args.mode, max_generators=args.max_generators)


def _cmd_algebras(args):
    q = _load_quantale(args)
    x, poset = _poset(args, q)
    report = {
        "command": "algebras",
        "config": _config(args, q),
        "poset": poset.to_json(),
    }
    results = checks.algebras_suite(poset, args.seed)
    return _finish(report, results, args, dot_text=poset.to_dot())


def _cmd_spectrum(args):
    q = _load_quantale(args)
    x, poset = _poset(args, q)
    chosen = _select_algebras(poset, args.algebra)
    data = {}
    for i in chosen:
        a = poset.algebras[i]
        gel = poset.spectra("gelfand")[i]
        pri = poset.spectra("prime")[i]
        entry = {
            "id": a.algebra_id,
            "size": a.size,
            "characters": [[q.elements[v] for v in rho.values] for rho in gel.points],
            "prime_ideals": [
                [_member_label(q, m) for m in p.kernel_members()] for p in pri.points],
            # m >= 1 and m.top = m give top = 1.top <= m: the one prime-closed
            # down-set that holds the unit is the whole algebra
            "improper_prime_closed": [[_member_label(q, m) for m in a.members]],
        }
        if is_zdf(q):
            entry["kernel_map"] = list(poset.comparisons("kernel")[i])
        data[f"A{i}"] = entry
    report = {
        "command": "spectrum",
        "config": _config(args, q),
        "spectra": data,
    }
    results = checks.spectra_suite(poset)
    return _finish(report, results, args)


def _member_label(q, entries):
    return ";".join(",".join(q.elements[v] for v in row) for row in entries)


def _cmd_sections(args):
    q = _load_quantale(args)
    results, verdict = _verdict_checks(carrier("X", args.size), q, args)
    found = verdict.to_json() if verdict is not None else {}
    report = {
        "command": "sections",
        "config": _config(args, q),
        "gelfand_sections": found.get("sections"),
    }
    if is_zdf(q):
        report["prime_sections"] = found.get("prime_sections")
    return _finish(report, results, args)


def _verdict_checks(x, q, args):
    results = []
    try:
        verdict = ks_verdict(x, q, mode=args.mode, max_generators=args.max_generators)
    except InvariantViolation as exc:  # a failed check; bad input exits 2 in main
        results.append(checks.CheckResult("verdict-computed", False, str(exc)))
        return results, None
    results.append(checks.CheckResult("verdict-computed", True))
    if verdict.zdf:
        results.append(checks.CheckResult(
            "route-agreement",
            bool(verdict.prime_sections) == bool(verdict.gelfand_sections),
            "scalar and prime searches agree (cross-transports verified)"))
        # The canonical sections come from the decompositions, not from the
        # search, so this also catches a search that drops a section.
        canonical = set(verdict.canonical_by_point.values())
        results.append(checks.CheckResult(
            "canonical-sections-count",
            len(verdict.canonical_by_point) == len(canonical) == len(x.elements)
            and canonical <= set(verdict.prime_sections),
            "one distinct canonical section per carrier point"))
        results.append(checks.CheckResult(
            "sections-determine-points",
            len(verdict.element_map) == len(verdict.prime_sections),
            "every prime section reads back a carrier point"))
    return results, verdict


def _cmd_verdict(args):
    q = _load_quantale(args)
    x = carrier("X", args.size)
    results, verdict = _verdict_checks(x, q, args)
    report = {
        "command": "verdict",
        "config": _config(args, q),
        "verdict": verdict.to_json() if verdict is not None else None,
    }
    return _finish(report, results, args)


def _cmd_topology(args):
    q = _load_quantale(args)
    x, poset = _poset(args, q)
    chosen = _select_algebras(poset, args.algebra)
    data = {}
    for i in chosen:
        entry = {}
        for kind in ("gelfand", "prime"):
            spectrum = poset.spectra(kind)[i]
            t = zariski_topology(spectrum)
            rep = separation_report(t)
            quotient, mapping = zariski_quotient(spectrum)
            entry[kind] = {
                "topology": topology_to_json(t),
                "t0": rep.t0,
                "t1": rep.t1,
                "compact": rep.compact,
                "indistinguishable_pairs": [list(p) for p in rep.indistinguishable_pairs],
                "quotient_points": quotient.size,
                "quotient_map": list(mapping),
            }
        data[f"A{i}"] = entry
    report = {
        "command": "topology",
        "config": _config(args, q),
        "topologies": data,
    }
    results = checks.topology_suite(poset)
    return _finish(report, results, args)


_COMMANDS = {
    "check-quantale": _cmd_check_quantale,
    "algebras": _cmd_algebras,
    "spectrum": _cmd_spectrum,
    "sections": _cmd_sections,
    "verdict": _cmd_verdict,
    "topology": _cmd_topology,
}


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (QuantaleError, EnumerationBoundExceeded, OSError, ValueError) as exc:
        sys.stderr.write(f"qspec: error: {exc}\n")
        return 2
    except MemoryError:
        # the stack is unwound by now, so its tables are free to collect
        sys.stderr.write("qspec: error: out of memory; try a smaller --size, or "
                         "a lower QSPEC_MAX_HOM_SIZE to refuse such spaces early\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
