"""Finite involutive commutative quantales given by explicit operation tables.

A quantale here is a finite join-semilattice with a least element together
with a commutative monoid multiplication that distributes over joins.  Being
finite, it doubles as a *-semiring: addition is the join, zero is the bottom
element.  All downstream machinery (relations, subalgebras, spectra) is
parametrised by one of these.
"""

import itertools
import re
from collections import namedtuple
from math import gcd

from qspec._homsearch import TableSemiring, enumerate_homs, tuple_getter


class QuantaleError(ValueError):
    """Malformed quantale document or foreign-element lookup."""


class ZdfRequiredError(ValueError):
    """An operation needed a zero-divisor-free quantale and did not get one."""


class InvariantViolation(RuntimeError):
    """A structural guarantee failed; signals an upstream bug."""


class Quantale:
    """Finite involutive commutative quantale.

    Elements are addressed by index into ``elements``; the element order is
    the document order and fixes every enumeration downstream.  Loading does
    not assume the axioms hold: run :func:`verify_quantale` for that.
    """

    def __init__(self, name, elements, join_table, mul_table, unit, involution=None):
        self.name = name
        self.elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise QuantaleError("duplicate element ids")
        self.join_table = tuple(tuple(row) for row in join_table)
        self.mul_table = tuple(tuple(row) for row in mul_table)
        self.unit = unit
        self.involution_explicit = involution is not None
        if involution is None:
            involution = range(len(self.elements))
        self.involution = tuple(involution)
        self.bottom = self._find_bottom()
        self.top = self._fold_join()

    # -- construction helpers -------------------------------------------------

    def _find_bottom(self):
        n = len(self.elements)
        for b in range(n):
            if all(self.join_table[b][x] == x for x in range(n)):
                return b
        return None

    def _fold_join(self):
        acc = 0
        for x in range(1, len(self.elements)):
            acc = self.join_table[acc][x]
        return acc

    # -- basic accessors -------------------------------------------------------

    @property
    def size(self):
        return len(self.elements)

    def index(self, element_id):
        try:
            return self._index[element_id]
        except KeyError:
            raise QuantaleError(f"unknown element id {element_id!r} in quantale {self.name!r}") from None

    def leq(self, i, j):
        return self.join_table[i][j] == j

    @property
    def fingerprint(self):
        fp = self.__dict__.get("_fingerprint")
        if fp is None:
            fp = (self.name, self.elements, self.join_table, self.mul_table,
                  self.unit, self.involution)
            self.__dict__["_fingerprint"] = fp
        return fp

    def __eq__(self, other):
        return self is other or (isinstance(other, Quantale)
                                 and self.fingerprint == other.fingerprint)

    def __hash__(self):
        return hash(self.fingerprint)

    def __repr__(self):
        return f"Quantale({self.name!r}, {self.size} elements)"

    def semiring(self):
        """The element-indexed *-semiring table view (join as addition)."""
        return TableSemiring(
            size=self.size,
            add=self.join_table,
            mul=self.mul_table,
            star=self.involution,
            zero=self.bottom,
            one=self.unit,
        )


class AxiomReport(namedtuple("AxiomReport", "violations")):
    """Outcome of the exhaustive quantale axiom check: one (axiom, witness)
    pair per violated axiom."""

    __slots__ = ()

    @property
    def passed(self):
        return not self.violations


class RigHom(namedtuple("RigHom", "source target mapping")):
    """A map of quantales preserving join, bottom, multiplication, unit and
    involution: element i of source goes to element mapping[i] of target."""

    __slots__ = ()


# -- document loading ----------------------------------------------------------


def load_quantale(doc):
    """Build a Quantale from a definition document (parsed JSON object).

    The tables are taken verbatim; no axiom is assumed.  Raises QuantaleError
    on structural problems: missing fields, wrong table shapes, unknown ids.
    """
    if not isinstance(doc, dict):
        raise QuantaleError("parse error: document must be an object")
    for field in ("name", "elements", "join", "mul", "unit"):
        if field not in doc:
            raise QuantaleError(f"parse error: missing field {field!r}")
    name = doc["name"]
    elements = doc["elements"]
    if not isinstance(name, str):
        raise QuantaleError("parse error: name must be a string")
    if (not isinstance(elements, list) or not elements
            or not all(isinstance(e, str) for e in elements)):
        raise QuantaleError("parse error: elements must be a non-empty array of strings")
    if len(set(elements)) != len(elements):
        raise QuantaleError("parse error: duplicate element ids")
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)

    def lookup(e, where):
        # a list or object is unhashable, and a number is never an id
        if not isinstance(e, str) or e not in index:
            raise QuantaleError(f"unknown element id {e!r} {where}")
        return index[e]

    def table(field):
        rows = doc[field]
        if not isinstance(rows, list) or len(rows) != n or any(
                not isinstance(r, list) or len(r) != n for r in rows):
            raise QuantaleError(f"arity error: {field} table must be {n}x{n}")
        return tuple(tuple(lookup(e, f"in {field} table") for e in r) for r in rows)

    join_table = table("join")
    mul_table = table("mul")
    unit = lookup(doc["unit"], "for unit")
    involution = None
    if "involution" in doc:
        inv = doc["involution"]
        if not isinstance(inv, list) or len(inv) != n:
            raise QuantaleError("arity error: involution must list one image per element")
        involution = tuple(lookup(e, "in involution") for e in inv)
    return Quantale(name, elements, join_table, mul_table, unit, involution)


def load_quantale_file(path):
    import json  # here only: a builtin tag needs no parser
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise QuantaleError(
                f"parse error: {path!r} is not a JSON document: {exc}") from None
    return load_quantale(doc)


def quantale_to_doc(q):
    """Serialize back to the document form; inverse of load_quantale."""
    ids = q.elements
    doc = {
        "name": q.name,
        "elements": list(ids),
        "join": [[ids[v] for v in row] for row in q.join_table],
        "mul": [[ids[v] for v in row] for row in q.mul_table],
        "unit": ids[q.unit],
    }
    if q.involution_explicit:
        doc["involution"] = [ids[v] for v in q.involution]
    return doc


# -- axiom verification --------------------------------------------------------


def verify_quantale(q):
    """Exhaustively check the quantale axioms; every violated axiom gets one
    witness tuple (the first in canonical element order)."""
    join, mul, inv = q.join_table, q.mul_table, q.involution
    u, b = q.unit, q.bottom
    # at_join[y](row) is (row[join[y][z]] for every z), gathered in C
    at_join, at_mul = tuple(map(tuple_getter, join)), tuple(map(tuple_getter, mul))
    laws = (  # (axiom, arity, law), in report order; a ternary law gives, for
        # (x, y), its two sides at every z as two rows
        ("join-commutative", 2, lambda x, y: join[x][y] == join[y][x]),
        ("join-idempotent", 1, lambda x: join[x][x] == x),
        ("join-associative", 3,
         lambda x, y: (at_join[y](join[x]), join[join[x][y]])),
        ("join-identity", 0, lambda: b is not None),
        ("mul-commutative", 2, lambda x, y: mul[x][y] == mul[y][x]),
        ("mul-associative", 3,
         lambda x, y: (at_mul[y](mul[x]), mul[mul[x][y]])),
        ("mul-unit", 1, lambda x: mul[u][x] == x),
        ("distributivity", 3,
         lambda x, y: (at_join[y](mul[x]), at_mul[x](join[mul[x][y]]))),
        ("bottom-absorbing", 1, lambda x: b is None or mul[x][b] == b),
        ("involution-involutive", 1, lambda x: inv[inv[x]] == x),
        ("involution-join", 2, lambda x, y: inv[join[x][y]] == join[inv[x]][inv[y]]),
        ("involution-mul", 2, lambda x, y: inv[mul[x][y]] == mul[inv[x]][inv[y]]),
        ("involution-unit", 0, lambda: inv[u] == u),
        ("non-trivial", 0, lambda: b is None or b != q.top),
    )
    violations = []
    for axiom, arity, law in laws:
        witness = _first_failure(q.size, arity, law)
        if witness is not None:
            violations.append((axiom, tuple(q.elements[w] for w in witness)))
    return AxiomReport(tuple(violations))


def _first_failure(n, arity, law):
    """The first witness in product order at which law fails, or None.  A
    ternary law is compared a row at a time, and a failing row is searched
    for its first z."""
    if arity < 3:
        witnesses = itertools.product(range(n), repeat=arity)
        return next((w for w in witnesses if not law(*w)), None)
    for x, y in itertools.product(range(n), repeat=2):
        lhs, rhs = law(x, y)
        if lhs != rhs:
            return x, y, next(z for z in range(n) if lhs[z] != rhs[z])
    return None


def is_zdf(q):
    """True iff no two non-bottom elements multiply to bottom."""
    return zdf_witness(q) is None


def zdf_witness(q):
    """A pair of non-bottom elements multiplying to bottom, or None; the table
    is scanned once per quantale and the answer stored on it."""
    if "_zdf_witness" not in q.__dict__:
        b, mul = q.bottom, q.mul_table
        q.__dict__["_zdf_witness"] = next(
            ((q.elements[x], q.elements[y])
             for x, y in itertools.product(range(q.size), repeat=2)
             if b not in (x, y) and mul[x][y] == b), None)
    return q.__dict__["_zdf_witness"]


def require_zdf(q, context):
    if not is_zdf(q):
        raise ZdfRequiredError(
            f"{context} requires a zero-divisor-free quantale; "
            f"{q.name!r} has witness {zdf_witness(q)}")


def require_quantale(q):
    """Refuse a table that fails an axiom, naming the first violation."""
    violations = verify_quantale(q).violations
    if violations:
        axiom, witness = violations[0]
        raise QuantaleError(f"not a quantale: {axiom} fails at ({', '.join(witness)})")


# -- built-in quantales ----------------------------------------------------------


_LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _chain_names(n):
    if n == 2:
        return ["0", "1"]
    if n - 2 > len(_LETTERS):
        raise QuantaleError(f"invalid parameter: chain size {n} too large")
    return ["0"] + list(_LETTERS[: n - 2]) + ["1"]


def _ratio(i, d):
    """i/d in lowest terms, written as str(Fraction(i, d)) writes it."""
    g = gcd(i, d)
    return str(i // g) if g == d else f"{i // g}/{d // g}"


def builtin_quantale(name, n=None):
    """Construct one of the built-in quantales.

    Tags: ``boolean2``, ``godel_chain`` (n >= 2, multiplication = min),
    ``lukasiewicz_chain`` (n >= 2, multiplication = max(0, x+y-1) on the
    uniform grid), ``powerset`` (n >= 1, union/intersection on P({1..n})).
    All carry the trivial involution.
    """
    if name == "boolean2":
        if n not in (None, 2):
            raise QuantaleError("invalid parameter: boolean2 takes no size")
        return Quantale(
            "boolean2", ("0", "1"),
            ((0, 1), (1, 1)), ((0, 0), (0, 1)), 1)
    if name == "godel_chain":
        if n is None or n < 2:
            raise QuantaleError("invalid parameter: godel_chain needs n >= 2")
        names = _chain_names(n)
        join = tuple(tuple(max(i, j) for j in range(n)) for i in range(n))
        mul = tuple(tuple(min(i, j) for j in range(n)) for i in range(n))
        return Quantale(f"godel{n}", names, join, mul, n - 1)
    if name == "lukasiewicz_chain":
        if n is None or n < 2:
            raise QuantaleError("invalid parameter: lukasiewicz_chain needs n >= 2")
        names = [_ratio(i, n - 1) for i in range(n)]
        join = tuple(tuple(max(i, j) for j in range(n)) for i in range(n))
        mul = tuple(tuple(max(0, i + j - (n - 1)) for j in range(n)) for i in range(n))
        return Quantale(f"lukasiewicz{n}", names, join, mul, n - 1)
    if name == "powerset":
        if n is None or n < 1:
            raise QuantaleError("invalid parameter: powerset needs n >= 1")
        if n > 6:
            raise QuantaleError(f"invalid parameter: powerset size {n} too large")
        size = 1 << n

        def setname(mask):
            return "{" + ",".join(str(i + 1) for i in range(n) if mask >> i & 1) + "}"

        names = [setname(m) for m in range(size)]
        join = tuple(tuple(i | j for j in range(size)) for i in range(size))
        mul = tuple(tuple(i & j for j in range(size)) for i in range(size))
        return Quantale(f"powerset{n}", names, join, mul, size - 1)
    raise QuantaleError(f"unknown builtin quantale tag {name!r}")


TWO = builtin_quantale("boolean2")  # the two-element quantale 0 < 1


_TAG_RE = re.compile(r"^([a-z_]+?)(?:_chain)?(?:\((\d+)\)|(\d+))?$")


def parse_quantale_tag(tag):
    """Parse CLI-style tags: boolean2, godel3, godel_chain(4), powerset2, ..."""
    m = _TAG_RE.match(tag.strip())
    if not m:
        raise QuantaleError(f"unknown builtin quantale tag {tag!r}")
    base, n1, n2 = m.groups()
    n = int(n1 or n2) if (n1 or n2) else None
    if base == "boolean" and n == 2 or tag.strip() == "boolean2":
        return builtin_quantale("boolean2")
    if base == "godel":
        return builtin_quantale("godel_chain", n)
    if base == "lukasiewicz":
        return builtin_quantale("lukasiewicz_chain", n)
    if base == "powerset":
        return builtin_quantale("powerset", n)
    raise QuantaleError(f"unknown builtin quantale tag {tag!r}")


# -- endomorphisms ----------------------------------------------------------------


def endomorphisms(q):
    """All maps q -> q preserving join, bottom, mul, unit and involution,
    in lexicographic order of their image tuples.  Exhaustive."""
    return rig_homs(q, q)


def rig_homs(source, target):
    """All quantale-operation-preserving maps source -> target."""
    out = [RigHom(source, target, mapping)
           for mapping in enumerate_homs(source.semiring(), target.semiring())]
    out.sort(key=lambda h: h.mapping)
    return out


def two_embedding(q):
    """The unique quantale map from the two-element quantale into q."""
    return RigHom(TWO, q, (q.bottom, q.unit))


def zdf_collapse(q):
    """The map onto the two-element quantale sending every non-bottom element
    to the unit; multiplicative exactly because q has no zero divisors."""
    require_zdf(q, "the collapse onto the two-element quantale")
    return RigHom(q, TWO, tuple(TWO.bottom if i == q.bottom else TWO.unit
                                for i in range(q.size)))
