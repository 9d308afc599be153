"""Batch driver: reproducible reports for the whole verification pipeline.

Subcommands mirror the pipeline stages: check-quantale, algebras, spectrum,
sections, verdict, topology.  Reports are deterministic for a fixed
configuration and seed (keys sorted, no timestamps), and the exit status is
0 exactly when every invariant check in the run passed.
"""

import errno
import gc
import os
import sys
from types import SimpleNamespace

from qspec import checks
from qspec.contextuality import ks_verdict
from qspec.quantale import (
    InvariantViolation, QuantaleError, endomorphisms, is_zdf, load_quantale_file,
    parse_quantale_tag, quantale_to_doc, require_quantale, verify_quantale, zdf_witness,
)
from qspec.relations import carrier
from qspec.subalgebra import EnumerationBoundExceeded, _Rows, enumerate_vn, require_hom_bound
from qspec.zariski import separation_report, zariski_quotient, zariski_topology


def _parser():
    """The argparse parser of the option table.  main hands it every argv
    that _canonical does not read, so every usage, help and error text and
    every exit status of the command line is argparse's."""
    import argparse  # here, not at start-up: a canonical argv needs none of it

    p = argparse.ArgumentParser(
        prog="qspec",
        description="Verification engine for finite quantale-valued relation categories.")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (summary, _) in _COMMANDS.items():
        sp = sub.add_parser(name, help=summary)
        src = sp.add_mutually_exclusive_group(required=True)
        for option, (kind, default, text, commands) in _OPTIONS.items():
            if name in commands:
                (src if option in ("--quantale", "--file") else sp).add_argument(
                    option, default=default, help=text,
                    **{"choices" if isinstance(kind, tuple) else "type": kind})
    return p


def _canonical(argv):
    """The namespace argparse would make of argv, when argv is the command
    followed by `--option value` pairs: each an option of that command under
    its exact name, given at most once, exactly one of --quantale and --file,
    and each value valid and not starting with "-".  None for any other
    argv, which argparse then reads."""
    command, pairs = (argv[0], argv[1:]) if argv else (None, ())
    given = dict(zip(pairs[::2], pairs[1::2]))
    if (command not in _COMMANDS or 2 * len(given) != len(pairs)
            or ("--quantale" in given) == ("--file" in given)):
        return None
    args = SimpleNamespace(command=command)
    for option, (kind, default, _, commands) in _OPTIONS.items():
        if command in commands:
            value = given.pop(option, None)
            if value is None:
                value = default
            elif kind is int and value.isascii() and value.isdigit():
                try:
                    value = int(value)
                except ValueError:  # past sys.get_int_max_str_digits(): argparse's error
                    return None
            elif kind is int or value.startswith("-") or kind is not str and value not in kind:
                return None  # argparse takes more ints, such as "+3" and "-1"
            setattr(args, option[2:].replace("-", "_"), value)
    return None if given else args


def _load_quantale(args):
    if getattr(args, "size", 1) < 1:
        raise QuantaleError("carrier size must be at least 1")
    if getattr(args, "max_generators", 0) < 0:
        raise QuantaleError("--max-generators must be at least 0")
    return (load_quantale_file(args.file) if args.quantale is None
            else parse_quantale_tag(args.quantale))


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


try:  # CPython's C helper, which json.encoder itself uses
    from _json import encode_basestring_ascii as _encode_str
except ImportError:
    from json.encoder import encode_basestring_ascii as _encode_str
_STR, _INT = frozenset({str}), frozenset({int})


def _write_json(value, write):
    """Write json.dumps(value, sort_keys=True, indent=2) + "\\n" in pieces.  Dict
    keys must be str.  A list of only plain str or only plain int is joined at
    once, and so is each such list that is an item of a list.  A list met
    again at the same indent reuses its text: the memo, keyed by the list's
    id and indent, keeps a text from its second meeting on, so a list met
    once is never kept."""
    parts = []
    _encode(value, "\n", parts, write, {})
    write("".join(parts) + "\n")


def _encode(o, nl, parts, write, memo):  # nl is the newline and indent of o's line
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
            _encode(v, inner, parts, write, memo)
            sep = "," + inner
        parts.append(nl + "}")
    elif isinstance(o, (list, tuple)) and o:
        key = id(o), nl  # o lives as long as value, so its id names it
        text = memo.get(key)
        if text:
            parts.append(text)
        elif text is None:  # first met: written in pieces, and kept by no one
            memo[key] = ""
            _encode_list(o, nl, parts, write, memo)
        else:  # met again: its text is kept for any later meeting
            pieces = []
            _encode_list(o, nl, pieces, None, memo)
            text = memo[key] = "".join(pieces)
            parts.append(text)
    elif isinstance(o, (dict, list, tuple)):  # empty
        parts.append("{}" if isinstance(o, dict) else "[]")
    else:  # floats and subclasses of int, as json writes them
        import json
        parts.append(json.dumps(o))
    if len(parts) > 4096 and write is not None:
        write("".join(parts))
        parts.clear()


def _encode_list(o, nl, parts, write, memo):
    """A non-empty list, written at once if flat, else item by item, each flat
    item in one join; write is None while a text is being kept."""
    inner, kinds = nl + "  ", set(map(type, o))
    if kinds == _STR or kinds == _INT:
        parts.append("[" + inner + ("," + inner).join(
            map(_encode_str if str in kinds else int.__repr__, o)) + nl + "]")
        return
    # the item join is written out here: a call per item cost about a tenth
    # of the write of godel5 |X|=2's 20.9 MB topology report
    row = inner + "  "
    sep, row_sep, row_end = "[" + inner, "," + row, inner + "]"
    for v in o:
        kinds = set(map(type, v)) if isinstance(v, (list, tuple)) else None
        if kinds == _STR or kinds == _INT:
            parts.append(sep + "[" + row + row_sep.join(
                map(_encode_str if str in kinds else int.__repr__, v)) + row_end)
            if len(parts) > 4096 and write is not None:
                write("".join(parts))
                parts.clear()
        else:
            parts.append(sep)
            _encode(v, inner, parts, write, memo)
        sep = "," + inner
    parts.append(nl + "]")


def _emit(report, args):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            _write_report(report, args.format, fh.write)
    else:
        _write_report(report, args.format, sys.stdout.write)


def _write_report(report, fmt, write):
    if fmt == "json":
        _write_json(report, write)
    elif fmt == "dot":  # only algebras gets here: its poset as a dot graph
        write(report["poset"])
    else:
        import json
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
        write("\n".join(lines) + "\n")


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


def _poset_json(poset):
    q = poset.quantale
    # members recur across algebras: each is labelled once, and the JSON
    # writer reuses the text of a label list it meets again
    labels = _Rows(lambda m: [[q.elements[v] for v in row] for row in m])
    return {
        "quantale": q.name,
        "carrier": list(map(str, poset.carrier.elements)),
        "mode": poset.mode,
        "max_generators": poset.max_generators,
        "complete": poset.complete,
        "algebras": [
            {
                "name": f"A{i}",
                "id": a.algebra_id,
                "size": a.size,
                "members": list(map(labels.__getitem__, a.members)),
            }
            for i, a in enumerate(poset.algebras)
        ],
        "inclusions": [p for p in poset.leq_pairs if p[0] != p[1]],
        "hasse_edges": poset.hasse,
    }


def _poset_dot(poset):
    lines = ["digraph algebras {", "  rankdir=BT;"]
    lines += (f'  A{i} [label="A{i}\\n{a.size} members\\n{a.algebra_id}"];'
              for i, a in enumerate(poset.algebras))
    lines += (f"  A{i} -> A{j};" for i, j in poset.hasse)
    return "\n".join(lines) + "\n}\n"


def _cmd_algebras(args, q):
    poset = _poset(args, q)
    body = {"poset": _poset_dot(poset) if args.format == "dot" else _poset_json(poset)}
    return body, checks.algebras_suite(poset, args.seed)


def _cmd_spectrum(args, q):
    poset = _poset(args, q)
    # members recur across algebras and ideals: each is labelled once
    labels = _Rows(lambda m: ";".join(",".join(q.elements[v] for v in row) for row in m))
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
                list(map(labels.__getitem__, pri.kernel_members(p))) for p in pri.points],
            # m >= 1 and m.top = m give top = 1.top <= m: the one prime-closed
            # down-set that holds the unit is the whole algebra
            "improper_prime_closed": [list(map(labels.__getitem__, a.members))],
        }
        if is_zdf(q):
            entry["kernel_map"] = list(poset.comparisons("kernel")[i])
        data[f"A{i}"] = entry
    return {"spectra": data}, checks.spectra_suite(poset)


def _cmd_sections(args, q):
    results, verdict = _verdict_checks(args, q)
    body = {"gelfand_sections": None if verdict is None else verdict.gelfand_sections}
    if is_zdf(q):
        body["prime_sections"] = None if verdict is None else verdict.prime_sections
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


def _verdict_json(verdict):
    return {
        "carrier": [str(p) for p in verdict.carrier],
        "quantale": verdict.quantale,
        "mode": verdict.mode,
        "zdf": verdict.zdf,
        "hypotheses_met": verdict.zdf,
        "contextual": verdict.contextual,
        "section_count": len(verdict.gelfand_sections),
        "sections": verdict.gelfand_sections,
        "prime_section_count": (None if verdict.prime_sections is None
                                else len(verdict.prime_sections)),
        "prime_sections": verdict.prime_sections,
        "canonical_sections": {str(k): v for k, v in verdict.canonical_by_point.items()},
        "element_map": {",".join(map(str, k)): str(v) for k, v in verdict.element_map.items()},
        "notes": [] if verdict.zdf else [
            "quantale has zero divisors: decided by the direct scalar-valued "
            "search only; the kernel/indicator comparison maps are unavailable"],
    }


def _cmd_verdict(args, q):
    results, verdict = _verdict_checks(args, q)
    return {"verdict": _verdict_json(verdict) if verdict is not None else None}, results


def _topology_json(topology):
    labels = list(map(str, range(topology.size)))
    closed = sorted(topology.closed_sets, key=lambda c: (len(c), sorted(c)))
    return {
        "points": labels,
        "closed_sets": [[labels[p] for p in sorted(c)] for c in closed],
    }


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
                "topology": _topology_json(t),
                "t0": rep.t0,
                "t1": rep.t1,
                # the open family of a finite space is finite, so any cover
                # is its own finite subcover: every finite space is compact
                "compact": True,
                "indistinguishable_pairs": rep.indistinguishable_pairs,
                "quotient_points": quotient.size,
                "quotient_map": list(mapping),
            }
        data[f"A{i}"] = entry
    return {"topologies": data}, checks.topology_suite(poset)


# The commands in usage order, each with its help line and its handler.
_COMMANDS = {
    "check-quantale": ("axiom report and calculus checks", _cmd_check_quantale),
    "algebras": ("enumerate the von Neumann algebra poset", _cmd_algebras),
    "spectrum": ("spectra of enumerated algebras", _cmd_spectrum),
    "sections": ("global sections of both presheaves", _cmd_sections),
    "verdict": ("the contextuality verdict", _cmd_verdict),
    "topology": ("Zariski topologies and quotients", _cmd_topology),
}
_ENUMERATING = frozenset(_COMMANDS) - {"check-quantale"}
# Each option: its type or its choices, its default, its help line and the
# commands that take it, in usage order.  _canonical and _parser both read it.
_OPTIONS = {
    "--quantale": (str, None, "builtin tag, e.g. boolean2, godel3, powerset2", _COMMANDS),
    "--file": (str, None, "path to a quantale definition document", _COMMANDS),
    "--size": (int, 2, "carrier size |X|", _ENUMERATING),
    "--mode": (("exhaustive", "generated"), "exhaustive", None, _ENUMERATING),
    "--max-generators": (int, 2, None, _ENUMERATING),
    "--format": (("text", "json", "dot"), "text", None, _COMMANDS),
    "--out": (str, None, "write the report here instead of stdout", _COMMANDS),
    "--seed": (int, 0, None, _COMMANDS),
    "--algebra": (str, "all", "trivial | diagonal | all | index of an enumerated algebra",
                  ("spectrum", "topology")),
}


def main(argv=None):
    """Run one command and return its exit status.  The cyclic collector is
    paused for the run and left as the caller had it: the pipeline frees
    its tables by reference counting and makes no reference cycle that
    grows with its input (tests/test_cli.py holds it to that), so a
    collection would only walk the live heap."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        if argv is None:
            argv = sys.argv[1:]
        args = _canonical(argv) or _parser().parse_args(argv)
        _check_output(args)
        q = _load_quantale(args)
        if hasattr(args, "size"):  # before a carrier is built
            if q.size == 1:  # passes every bound (1^(n·n) = 1), fails non-trivial
                require_quantale(q)
            require_hom_bound(q, args.size)
        body, results = _COMMANDS[args.command][1](args, q)
        report = {"command": args.command, "config": _config(args, q), **body,
                  "checks": [c._asdict() for c in results],
                  "passed": all(c.passed for c in results)}
        _emit(report, args)
        return 0 if report["passed"] else 1
    except InvariantViolation as exc:  # a broken invariant: a failed check
        status, error = 1, str(exc)
    except (QuantaleError, EnumerationBoundExceeded, OSError, ValueError) as exc:
        status, error = 2, str(exc)
    except MemoryError:
        # the stack is unwound by now, so its tables are freed
        status, error = 2, ("out of memory; try a smaller --size, or "
                            "a lower QSPEC_MAX_HOM_SIZE to refuse such spaces early")
    finally:
        if enabled:
            gc.enable()
    _write_error(error)
    return status


def _write_error(error):
    """Write one error line to stderr, or drop it if stderr cannot take it."""
    if sys.stderr is not None:  # None when the process started without its fd
        try:
            sys.stderr.write(f"qspec: error: {error}\n")
        except OSError:
            pass


def entry():
    """The process entry, of both `python -m qspec.cli` and the `qspec`
    script.  Once main returns a status, stdout is flushed (stderr is
    line-buffered) and the process ends at once: the run leaves no file
    open and no exit hook, so teardown would only free the heap.  A stdout
    that cannot take the report exits 2, as in _emit.  An exception,
    argparse's SystemExit included, leaves the normal way."""
    status = main()
    try:
        if sys.stdout is not None:  # None when the process started without its fd
            sys.stdout.flush()
    except OSError as exc:
        _write_error(exc)
        status = 2
    os._exit(status)


if __name__ == "__main__":
    entry()
