"""Batch driver: reproducible reports for the whole verification pipeline.

Subcommands mirror the pipeline stages: check-quantale, algebras, spectrum,
sections, verdict, topology.  Reports are deterministic for a fixed
configuration and seed (keys sorted, no timestamps), and the exit status is
0 exactly when every invariant check in the run passed.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json
import os
import sys

from qspec import checks
from qspec.contextuality import ks_verdict
from qspec.quantale import (
    QuantaleError, endomorphisms, is_zdf, load_quantale_file, parse_quantale_tag,
    quantale_to_doc, verify_quantale, zdf_witness,
)
from qspec.relations import carrier
from qspec.subalgebra import (
    EnumerationBoundExceeded, InvariantViolation, enumerate_vn, require_hom_bound,
)
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
    return parse_quantale_tag(args.quantale) if args.quantale else load_quantale_file(args.file)


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


def _refuse_unwritable(path):
    """Raise the OSError that opening path for writing would raise, without
    creating or truncating the file."""
    exists = os.path.exists(path)
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not exists and not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not os.access(path if exists else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)


def _check_output(args):
    """Refuse an output request that cannot be met before any work is done:
    dot output from a command other than algebras, or an --out path that
    cannot be written.  The report file is only opened once the report is
    complete, so a run that fails leaves an existing file as it was."""
    if args.format == "dot" and args.command != "algebras":
        raise QuantaleError("dot output is only available for the algebras command")
    if args.out:
        _refuse_unwritable(args.out)


_encode_str = json.encoder.encode_basestring_ascii
_STR, _INT = frozenset({str}), frozenset({int})


def _write_json(value, write):
    """Write json.dumps(value, sort_keys=True, indent=2) + "\\n" in pieces.  Dict
    keys must be str; a list of only plain str or only plain int is joined at once."""
    parts = []

    def enc(o, nl):  # nl is the newline and indent of o's line
        if isinstance(o, str):
            parts.append(_encode_str(o))
        elif type(o) is int:
            parts.append(int.__repr__(o))
        elif o is None or type(o) is bool:
            parts.append("null" if o is None else "true" if o else "false")
        elif isinstance(o, dict) and o:
            inner, sep = nl + "  ", "{" + nl + "  "
            for k, v in sorted(o.items()):
                parts.append(sep + _encode_str(k) + ": ")
                enc(v, inner)
                sep = "," + inner
            parts.append(nl + "}")
        elif isinstance(o, (list, tuple)) and o:
            inner, kinds = nl + "  ", set(map(type, o))
            if kinds == _STR or kinds == _INT:
                parts.append("[" + inner + ("," + inner).join(
                    map(_encode_str if str in kinds else int.__repr__, o)) + nl + "]")
            else:
                sep = "[" + inner
                for v in o:
                    parts.append(sep)
                    enc(v, inner)
                    sep = "," + inner
                parts.append(nl + "]")
        else:  # empty containers, floats and subclasses of int, as json writes them
            parts.append(json.dumps(o))
        if len(parts) > 4096:
            write("".join(parts))
            parts.clear()

    enc(value, "\n")
    write("".join(parts) + "\n")


def _emit(report, args):
    with (open(args.out, "w", encoding="utf-8") if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        if args.format == "json":
            _write_json(report, fh.write)
        elif args.format == "dot":  # only algebras gets here: its poset as a dot graph
            fh.write(report["poset"])
        else:
            lines = [f"qspec {report['command']}  ({report['config']})"]
            for key, value in report.items():
                if key in ("command", "config", "checks", "passed"):
                    continue
                lines.append(f"{key}: {json.dumps(value, sort_keys=True)}")
            for c in report["checks"]:
                mark = "PASS" if c["passed"] else "FAIL"
                detail = f"  {c['details']}" if c["details"] else ""
                lines.append(f"[{mark}] {c['name']}{detail}")
            lines.append("result: " + ("ok" if report["passed"] else "FAILED"))
            fh.write("\n".join(lines) + "\n")


def _config(args, q):
    cfg = {"quantale": q.name, "seed": args.seed}
    for key in ("size", "mode", "max_generators", "algebra"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    return cfg


# Each command takes the arguments and the loaded quantale and returns its
# report body and its check results; main frames and writes the report.


def _cmd_check_quantale(args, q):
    axioms = verify_quantale(q)
    body = {
        "document": quantale_to_doc(q),
        "axioms_passed": axioms.passed,
        "violations": [[name, list(w)] for name, w in axioms.violations],
        "zdf": is_zdf(q) if axioms.passed else None,
        "zdf_witness": list(zdf_witness(q)) if axioms.passed and not is_zdf(q) else None,
    }
    homs = endomorphisms(q) if axioms.passed else None
    results = checks.quantale_suite(q, axioms, homs)
    if axioms.passed:
        results += checks.relations_suite(q, args.seed)
        body["endomorphisms"] = [[q.elements[v] for v in h.mapping] for h in homs]
    return body, results


def _poset(args, q):
    return enumerate_vn(carrier("X", args.size), q, mode=args.mode,
                        max_generators=args.max_generators)


def _cmd_algebras(args, q):
    poset = _poset(args, q)
    body = {"poset": poset.to_dot() if args.format == "dot" else poset.to_json()}
    return body, checks.algebras_suite(poset, args.seed)


def _cmd_spectrum(args, q):
    poset = _poset(args, q)
    data = {}
    for i in _select_algebras(poset, args.algebra):
        a = poset.algebras[i]
        gel = poset.spectra("gelfand")[i]
        pri = poset.spectra("prime")[i]
        entry = {
            "id": a.algebra_id,
            "size": a.size,
            "characters": [[q.elements[v] for v in rho] for rho in gel.points],
            "prime_ideals": [
                [_member_label(q, m) for m in pri.kernel_members(p)] for p in pri.points],
            # m >= 1 and m.top = m give top = 1.top <= m: the one prime-closed
            # down-set that holds the unit is the whole algebra
            "improper_prime_closed": [[_member_label(q, m) for m in a.members]],
        }
        if is_zdf(q):
            entry["kernel_map"] = list(poset.comparisons("kernel")[i])
        data[f"A{i}"] = entry
    return {"spectra": data}, checks.spectra_suite(poset)


def _member_label(q, entries):
    return ";".join(",".join(q.elements[v] for v in row) for row in entries)


def _cmd_sections(args, q):
    results, verdict = _verdict_checks(args, q)
    found = verdict.to_json() if verdict is not None else {}
    body = {"gelfand_sections": found.get("sections")}
    if is_zdf(q):
        body["prime_sections"] = found.get("prime_sections")
    return body, results


def _verdict_checks(args, q):
    x = carrier("X", args.size)
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


def _cmd_verdict(args, q):
    results, verdict = _verdict_checks(args, q)
    return {"verdict": verdict.to_json() if verdict is not None else None}, results


def _cmd_topology(args, q):
    poset = _poset(args, q)
    data = {}
    for i in _select_algebras(poset, args.algebra):
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
    return {"topologies": data}, checks.topology_suite(poset)


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
        _check_output(args)
        q = _load_quantale(args)
        require_hom_bound(q, getattr(args, "size", 0))  # before a carrier is built
        body, results = _COMMANDS[args.command](args, q)
        report = {"command": args.command, "config": _config(args, q), **body,
                  "checks": [c._asdict() for c in results],
                  "passed": all(c.passed for c in results)}
        _emit(report, args)
        return 0 if report["passed"] else 1
    except InvariantViolation as exc:  # a broken invariant: a failed check
        sys.stderr.write(f"qspec: error: {exc}\n")
        return 1
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
