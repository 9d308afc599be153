"""Commutative von Neumann *-subsemialgebras of the endomorphism semialgebra.

A subsemialgebra of Hom(X, X) is a set of endo-relations containing the zero
and identity relations, closed under pointwise join, composition, dagger and
scalar multiples.  The commutative von Neumann ones (equal to their double
commutant) form an inclusion poset.  Enumerating it exactly is feasible
because each of them lies in a maximal clique M of the star-commutation
graph on the normal elements, M is itself a maximal algebra, and the algebra
is M cut down by the commutants of pairs {s, s†}; so a walk seeded at those
cliques (Bron–Kerbosch with pivoting) visits all of them and nothing else.
Hom(X, X) itself is tabulated by row lookup: row k of a product or join
depends on row k of the left factor only.  Each algebra over a
zero-divisor-free quantale splits along its primitive subunital idempotents,
which are recovered from the Boolean algebra of member supports.
"""

from __future__ import annotations

import itertools
import math
import os
import sys
from array import array
from collections import namedtuple
from functools import cached_property, partial

from qspec._homsearch import TableSemiring
from qspec.quantale import QuantaleError, require_zdf
from qspec.relations import (
    FiniteSet, QRel, diag_rel, hom_size, identity_rel, oplus, zero_rel,
    _e_compose, _e_dagger, _e_join, _e_scalar,
)

DEFAULT_HOM_BOUND = 65536
_ZERO_DIGITS = b"1" + b"0" * 255  # translate: a zero byte to "1", any other to "0"


class MixedAmbientError(ValueError):
    """Generators do not share one carrier and one quantale."""


class EnumerationBoundExceeded(RuntimeError):
    """The endomorphism space is larger than the configured bound."""


class InvariantViolation(RuntimeError):
    """A structural guarantee failed; signals an upstream bug."""


def hom_bound():
    return int(os.environ.get("QSPEC_MAX_HOM_SIZE", DEFAULT_HOM_BOUND))


# -- the algebra value ------------------------------------------------------------


class Subsemialgebra(namedtuple("Subsemialgebra", "quantale carrier members")):
    """A set of endo-relations on one carrier, canonically ordered: members
    are the sorted entry matrices."""

    @classmethod
    def from_entries(cls, quantale, carrier, entries_iterable):
        return cls(quantale, carrier, tuple(sorted(set(entries_iterable))))

    @classmethod
    def from_rels(cls, rels):
        first = rels[0]
        return cls.from_entries(first.quantale, first.dom, (r.entries for r in rels))

    @cached_property
    def member_set(self):
        return frozenset(self.members)

    @cached_property
    def member_pos(self):
        return {m: i for i, m in enumerate(self.members)}

    @cached_property
    def algebra_id(self):
        import hashlib  # not at the top: it loads OpenSSL on every start
        return hashlib.sha256(repr(self.members).encode()).hexdigest()[:12]

    @property
    def size(self):
        return len(self.members)

    def relations(self):
        return tuple(QRel(self.quantale, self.carrier, self.carrier, e)
                     for e in self.members)

    # flags

    @cached_property
    def is_unital(self):
        q, x = self.quantale, self.carrier
        return (identity_rel(q, x).entries in self.member_set
                and zero_rel(q, x, x).entries in self.member_set)

    def in_space(self):
        """The Hom(X, X) space and the members' indices in it, in member order.
        The space comes from get_endospace, so QSPEC_MAX_HOM_SIZE applies."""
        space = get_endospace(self.quantale, self.carrier)
        return space, tuple(map(space.index.__getitem__, self.members))

    @cached_property
    def is_star_closed(self):
        space, idx = self.in_space()
        return space.is_star_mask(_mask(idx))

    @cached_property
    def is_commutative(self):
        space, idx = self.in_space()
        return space.is_commutative_mask(_mask(idx))

    def is_closed(self):
        """Holds zero and the identity and is closed under join, composition,
        dagger and every scalar multiple: the semiring tables exist, which
        needs all but the scalars, and the scalar line lies inside, which then
        gives every s·a = (s·id)∘a."""
        try:
            self.semiring()
        except InvariantViolation:
            return False
        space, idx = self.in_space()
        return space.scalar_line & ~_mask(idx) == 0

    def semiring(self):
        """Member-indexed *-semiring tables (join as addition, composition as
        multiplication), read from the Hom(X, X) tables; add and mul hold one
        array row per member.  Requires the algebra to be closed.  After
        enumeration this is the one arithmetic on an algebra's members."""
        cached = self.__dict__.get("_semiring")
        if cached is not None:
            return cached
        space, idx = self.in_space()
        pos = {h: p for p, h in enumerate(idx)}
        code = _typecode(len(idx))

        def table(rows):  # one array row of member positions per member
            return tuple(array(code, map(pos.__getitem__, map(rows[a].__getitem__, idx)))
                         for a in idx)

        try:
            sr = TableSemiring(
                size=len(idx), add=table(space._join_rows), mul=table(space._comp_rows),
                star=tuple(pos[space.dag(a)] for a in idx),
                zero=pos[space.zero_idx], one=pos[space.id_idx])
        except KeyError:
            raise InvariantViolation("algebra is not closed under its operations")
        self.__dict__["_semiring"] = sr
        return sr

    def __repr__(self):
        return (f"Subsemialgebra({self.quantale.name}, {self.carrier.name}, "
                f"{self.size} members)")


# -- closure and commutants ---------------------------------------------------------


def _ambient(x, gens, quantale):
    qs = {g.quantale for g in gens}
    if quantale is not None:
        qs.add(quantale)
    if len(qs) != 1:
        raise MixedAmbientError("generators must share one quantale"
                                if qs else "empty generator set needs an explicit quantale")
    q = qs.pop()
    for g in gens:
        if g.dom != x or g.cod != x:
            raise MixedAmbientError(f"generator {g!r} is not an endo-relation on {x.name!r}")
    return q


def _scalar_line(q, x):
    """The entries of s·id for every scalar s.  The line is closed: s·id ∨
    t·id = (s∨t)·id, (s·id)∘(t·id) = st·id and (s·id)† = s*·id; so it is the
    trivial algebra, and it holds 0 and id.  Every scalar multiple is a
    composite with it: s·a = (s·id)∘a."""
    one = identity_rel(q, x).entries
    return {_e_scalar(q, s, one) for s in range(q.size)}


def _closure(closed, seed, dag, join, comp):
    """Fixed point of closed ∪ seed under dag, join and composition on both
    sides, where closed is already such a fixed point: only the pairs with at
    least one element outside it are evaluated (semi-naive evaluation).
    Elements are whatever the operations take.  Seeded with the scalar line,
    or with closed holding it, the fixed point is closed under every scalar
    multiple too, since s·a = (s·id)∘a."""
    members = set(closed)
    frontier = list(set(seed) - members)
    members.update(frontier)
    while frontier:
        fresh = []

        def push(e):
            if e not in members:
                members.add(e)
                fresh.append(e)

        for a in frontier:
            push(dag(a))
            for b in list(members):
                push(join(a, b))
                push(comp(a, b))
                push(comp(b, a))
        frontier = fresh
    return members


def close(x, gens, quantale=None):
    """Smallest subsemialgebra containing the generators: fixed-point closure
    under join, composition, dagger and scalar multiples, seeded with the
    scalar line.  Works on entry matrices, so Hom(X, X) is never built."""
    gens = list(gens)
    q = _ambient(x, gens, quantale)
    seed = _scalar_line(q, x) | {g.entries for g in gens}
    members = _closure((), seed, partial(_e_dagger, q), partial(_e_join, q),
                       partial(_e_compose, q))
    return Subsemialgebra.from_entries(q, x, members)


def commutant(x, rels, quantale=None):
    """Everything in Hom(X, X) commuting with every given relation.

    Builds (and caches) the Hom(X, X) space, so the space must stay under the
    configured bound (QSPEC_MAX_HOM_SIZE / 65536 by default).
    """
    rels = list(rels)
    space = get_endospace(_ambient(x, rels, quantale), x)
    mask = space.commutant_mask(space.mask_of(r.entries for r in rels))
    return space.algebra_from_mask(mask)


def is_von_neumann(a):
    """True iff the algebra equals its double commutant; builds (and caches)
    the Hom(X, X) space like commutant.  The answer is stored on the algebra,
    so the checks and the decomposition guard compute it once."""
    cached = a.__dict__.get("_von_neumann")
    if cached is None:
        space, idx = a.in_space()
        mask = _mask(idx)
        cached = space.double_commutant_mask(mask) == mask
        a.__dict__["_von_neumann"] = cached
    return cached


def trivial_algebra(x, q):
    """The smallest subsemialgebra: the scalar line {s·id : s in Q}, which is
    already closed."""
    return Subsemialgebra.from_entries(q, x, _scalar_line(q, x))


def diagonal_algebra(x, q):
    """All diagonal relations on the carrier: the pointwise product of copies of Q."""
    members = (diag_rel(q, x, vals).entries
               for vals in itertools.product(range(q.size), repeat=x.size))
    return Subsemialgebra.from_entries(q, x, members)


# -- direct sums and component restriction -------------------------------------------


def direct_sum(a, b):
    """Block-diagonal sum on the disjoint union of the carriers."""
    if a.quantale != b.quantale:
        raise MixedAmbientError("direct sum needs one quantale")
    return Subsemialgebra.from_rels([oplus(f, g) for f in a.relations()
                                     for g in b.relations()])


def subunital_idempotents(a):
    """Idempotent members admitting an orthogonal idempotent partner that
    joins with them to the identity."""
    sr = a.semiring()
    mul, add = sr.mul, sr.add
    idem = [i for i in range(sr.size) if mul[i][i] == i]
    return [a.members[p] for p in idem
            if any(mul[p][r] == sr.zero and add[p][r] == sr.one for r in idem)]


def restrict_component(a, e):
    """View the corner e A e as an algebra on the support of e.

    e must be a subunital idempotent of a acting as the identity on its
    support (a bottom/unit diagonal matrix).
    """
    q = a.quantale
    ee = e.entries if isinstance(e, QRel) else e
    if ee not in a.member_set or ee not in subunital_idempotents(a):
        raise ValueError("e is not a subunital idempotent of the algebra")
    n = a.carrier.size
    keep = []
    for i in range(n):
        if ee[i][i] == q.unit:
            keep.append(i)
        elif ee[i][i] != q.bottom:
            raise ValueError("e is not an identity on its support")
        if any(ee[i][j] != q.bottom for j in range(n) if j != i):
            raise ValueError("e is not diagonal")
    sub = FiniteSet(f"{a.carrier.name}|{''.join(str(a.carrier.elements[i]) for i in keep)}",
                    tuple(a.carrier.elements[i] for i in keep))
    mul = a.semiring().mul
    p = a.member_pos[ee]
    members = []
    for m in range(a.size):
        cut = a.members[mul[p][mul[m][p]]]
        members.append(tuple(tuple(cut[i][j] for j in keep) for i in keep))
    return Subsemialgebra.from_entries(q, sub, members)


# -- primitive idempotent decomposition ------------------------------------------------


class Decomposition(namedtuple("Decomposition",
                                "algebra idempotents components supports")):
    """Primitive subunital idempotents of an algebra and the member sets they
    cut out: idempotents holds one QRel per component, and per idempotent e,
    components holds the sorted entry matrices of eA and supports its carrier
    points in carrier order."""

    __slots__ = ()


def support_projections(a):
    """Each distinct member support, as a frozenset of carrier indices (the
    empty support included), mapped to the entries of its subset projection:
    the identity on the support and bottom elsewhere."""
    q, x = a.quantale, a.carrier
    b = q.bottom
    out = {}
    for m in a.members:
        s = frozenset(i for i, row in enumerate(m) if any(v != b for v in row))
        if s not in out:
            out[s] = diag_rel(q, x, [q.unit if i in s else b for i in range(x.size)]).entries
    return out


def primitive_idempotents(a):
    """Decompose a von Neumann algebra over a ZDF quantale along the atoms of
    its Boolean algebra of member supports."""
    q = a.quantale
    require_zdf(q, "primitive idempotent decomposition")
    if not is_von_neumann(a):
        raise ValueError("decomposition needs a von Neumann algebra")
    projections = support_projections(a)
    if not a.member_set.issuperset(projections.values()):
        raise InvariantViolation(
            "support projection escaped the algebra; enumeration is broken")
    supports = [s for s in projections if s]
    atoms = [s for s in supports if not any(t < s for t in supports)]
    atoms.sort(key=min)
    if set().union(*atoms) != set(range(a.carrier.size)):
        raise InvariantViolation("support atoms do not cover the carrier")
    points = a.carrier.elements
    atom_points = tuple(tuple(points[i] for i in sorted(s)) for s in atoms)
    idempotents = tuple(QRel(q, a.carrier, a.carrier, projections[s]) for s in atoms)
    mul = a.semiring().mul
    components = tuple(
        tuple(a.members[k] for k in sorted(set(mul[a.member_pos[e.entries]])))
        for e in idempotents)
    return Decomposition(a, idempotents, components, atom_points)


def validate_decomposition(dec):
    """Orthogonality, join-to-unit, primitivity, and the product reassembly
    bijection; returns a list of failure strings (empty = all good)."""
    a = dec.algebra
    sr = a.semiring()
    add, mul, zero = sr.add, sr.mul, sr.zero
    es = [a.member_pos.get(e.entries) for e in dec.idempotents]
    if None in es:  # no law can be looked up for a foreign idempotent
        return [f"idempotent {i} is not subunital in the algebra"
                for i, p in enumerate(es) if p is None]
    failures = []
    for i, p in enumerate(es):
        if mul[p][p] != p:
            failures.append(f"idempotent {i} is not idempotent")
        for j in range(i + 1, len(es)):
            if mul[p][es[j]] != zero:
                failures.append(f"idempotents {i},{j} not orthogonal")
    acc = zero
    for p in es:
        acc = add[acc][p]
    if acc != sr.one:
        failures.append("idempotents do not join to the unit")
    subunital = [a.member_pos[m] for m in subunital_idempotents(a)]
    nontrivial = [s for s in subunital if s != zero]
    for i, p in enumerate(es):
        if p not in subunital:
            failures.append(f"idempotent {i} is not subunital in the algebra")
        for s, t in itertools.combinations(nontrivial, 2):
            if s != p and t != p and add[s][t] == p:
                failures.append(f"idempotent {i} splits as a join of "
                                f"{a.members[s]} and {a.members[t]}")
    # product reassembly: member -> component tuple is a bijection onto the product
    seen = {}
    for m in range(a.size):
        key = tuple(mul[p][m] for p in es)
        if key in seen:
            failures.append(f"members {a.members[seen[key]]} and {a.members[m]} "
                            "agree on all components")
        seen[key] = m
    expected = math.prod(map(len, dec.components))
    if len(seen) != expected or a.size != expected:
        failures.append("component map is not onto the product")
    return failures


# -- the full endomorphism space -------------------------------------------------------


def _mask(indices):
    """The int bitset of some Hom(X, X) indices."""
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def _typecode(limit):
    """The narrowest array typecode holding every index below limit."""
    return next(c for c in "BHIL" if 256 ** array(c).itemsize >= limit)


class _Rows(dict):
    """Values made on first use by one function of their key: table rows,
    and the closures and commutants that generated mode reuses."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, i):
        row = self[i] = self.make(i)
        return row


def _bits(mask):
    """The set bits of an int bitset, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class EndoSpace:
    """Hom(X, X) with its operations as index tables, read by row lookup.

    The elements are built in itertools.product order over the R = |Q|**n row
    vectors, so the index of an element is sum_k r_k * R**(n-1-k), where r_k
    indexes its row k.  Row k of a∘b is (row k of a)·b and row k of a ∨ b is
    (row k of a) ∨ (row k of b), so two tables over the rows, rowmul (R x
    |Hom| row indices) and rowjoin (R x R), determine both operations.  A
    composition or join row is the sum of n looked-up rows of place-scaled
    row indices; each such part is packed into one int, one fixed-width lane
    per element, and no lane overflows because every sum is an index, so the
    n int additions add all |Hom| lanes at once.  These rows and the
    commutation masks are made on first use; the dagger table is built
    eagerly.  Scalars act through scalar_line, the mask of the trivial
    algebra {s·id}: s·a is the composite (s·id)∘a.
    """

    def __init__(self, quantale, x):
        q = self.quantale = quantale
        self.carrier = x
        n = x.size
        self.size = hom_size(q, x)
        rows = list(itertools.product(range(q.size), repeat=n))
        rowpos = {r: i for i, r in enumerate(rows)}
        els = self.elements = list(itertools.product(rows, repeat=n))
        self.index = {e: i for i, e in enumerate(els)}
        self.zero_idx = self.index[zero_rel(q, x, x).entries]
        self.id_idx = self.index[identity_rel(q, x).entries]
        self.scalar_line = self.mask_of(_scalar_line(q, x))
        self.full_mask = (1 << self.size) - 1
        code = self._code = _typecode(self.size)
        self._nbytes = self.size * array(code).itemsize
        row_code = _typecode(len(rows))
        self._width = array(row_code).itemsize
        # rowk[k][a] is the index of row k of element a
        rowk = [array(row_code, ids)
                for ids in zip(*itertools.product(range(len(rows)), repeat=n))]
        self.rowmul = [array(row_code, [rowpos[_e_compose(q, (r,), b)[0]] for b in els])
                       for r in rows]
        rowjoin = [array(row_code, [rowpos[_e_join(q, (r,), (s,))[0]] for s in rows])
                   for r in rows]

        def lanes(values):
            return int.from_bytes(array(code, values), sys.byteorder)

        # part k, row r: over every b, the scaled index of row k of a∘b (or of
        # a ∨ b) when row k of a is r
        places = [len(rows) ** (n - 1 - k) for k in range(n)]
        comp_parts = [[p * lanes(prods) for prods in self.rowmul] for p in places]
        join_parts = [[p * lanes(map(joins.__getitem__, ids)) for joins in rowjoin]
                      for ids, p in zip(rowk, places)]
        self._comp_rows = _Rows(partial(self._summed, comp_parts))
        self._join_rows = _Rows(partial(self._summed, join_parts))
        if self._width == 1:  # byte rows: a column lookup is one bytes.translate
            self._rowk = [ids.tobytes() for ids in rowk]
            self._gather = lambda ids, column: ids.translate(bytes(column).ljust(256, b"\0"))
        else:
            self._rowk = rowk
            self._gather = lambda ids, column: array(row_code, map(column.__getitem__, ids))
        self._comm = _Rows(self._commutation)
        self.dag_t = array(code, [self.index[_e_dagger(q, a)] for a in els])

    def _summed(self, parts, a):
        total = sum(part[ids[a]] for part, ids in zip(parts, self._rowk))
        return array(self._code, total.to_bytes(self._nbytes, sys.byteorder))

    def _commutation(self, a):
        """Bit b is set iff a∘b == b∘a, compared one row k at a time.  Over
        every b, row k of a∘b is the rowmul row of a's row k, and row k of b∘a
        is b's row k looked up in column a of rowmul.  The two packed rows are
        XORed as ints, and the elements whose bytes are all zero become bits."""
        column = [prods[a] for prods in self.rowmul]
        diff = 0
        for ids in self._rowk:
            diff |= (int.from_bytes(self.rowmul[ids[a]], "little")
                     ^ int.from_bytes(self._gather(ids, column), "little"))
        w = self._width
        folded = diff
        for s in range(1, w):  # fold each element's bytes into its first
            folded |= diff >> 8 * s
        same = folded.to_bytes(self.size * w, "little")[::w].translate(_ZERO_DIGITS)
        return int(same[::-1], 2)

    # operation access (index-level)

    def comp(self, i, j):
        return self._comp_rows[i][j]

    def join(self, i, j):
        return self._join_rows[i][j]

    def dag(self, i):
        return self.dag_t[i]

    def comm_mask(self, i):
        return self._comm[i]

    # mask utilities

    def mask_of(self, entries_iterable):
        return _mask(map(self.index.__getitem__, entries_iterable))

    bits = staticmethod(_bits)

    def commutant_mask(self, mask):
        out = self.full_mask
        for i in self.bits(mask):
            out &= self.comm_mask(i)
        return out

    def double_commutant_mask(self, mask):
        return self.commutant_mask(self.commutant_mask(mask))

    def is_commutative_mask(self, mask):
        return mask & ~self.commutant_mask(mask) == 0

    def is_star_mask(self, mask):
        return all(mask >> self.dag(i) & 1 for i in self.bits(mask))

    def close_mask(self, closed, seed):
        """The closure, as a mask, of the closed mask `closed` (0 or an
        algebra) with the seed indices and the scalar line."""
        members = _closure(_bits(closed), {*_bits(self.scalar_line), *seed},
                           self.dag, self.join, self.comp)
        return _mask(members)

    def algebra_from_mask(self, mask):
        return Subsemialgebra.from_entries(
            self.quantale, self.carrier,
            (self.elements[i] for i in self.bits(mask)))


_space_cache = {}


def get_endospace(q, x):
    key = (q.fingerprint, x)
    space = _space_cache.get(key)
    if space is None:
        size = hom_size(q, x)
        limit = hom_bound()
        if size > limit:
            raise EnumerationBoundExceeded(
                f"|Hom(X,X)| = {size} exceeds the bound {limit}; "
                "use generated mode on a smaller carrier or raise QSPEC_MAX_HOM_SIZE")
        space = EndoSpace(q, x)
        _space_cache[key] = space
    return space


# -- enumeration ------------------------------------------------------------------------


class AlgebraPoset(namedtuple("AlgebraPoset", "quantale carrier algebras mode "
                                              "max_generators leq_pairs hasse")):
    """Inclusion poset of enumerated algebras with covering edges: leq_pairs
    holds (i, j) when algebra i is included in algebra j, hasse the covering
    pairs among them; max_generators is None in exhaustive mode."""

    @property
    def complete(self):
        """Only the exhaustive walk is known to list every algebra."""
        return self.mode == "exhaustive"

    def index_of(self, algebra):
        for i, a in enumerate(self.algebras):
            if a.members == algebra.members:
                return i
        return None

    @cached_property
    def predecessors(self):
        """For each algebra, the Hasse predecessor its characters are
        extended from: the largest one, ties going to the lowest index; None
        for a minimal algebra.  Algebras are sorted by size, so it always
        comes first.  Every spectrum and restriction table is built along the
        Hasse edges after this, so a Hasse edge that is not an inclusion, a
        broken enumeration, is caught here: InvariantViolation names it."""
        from qspec.spectra import _check_inclusion  # spectra imports this module
        best = [None] * len(self.algebras)
        size = [a.size for a in self.algebras]
        for i, j in self.hasse:
            try:
                _check_inclusion(self.algebras[i], self.algebras[j])
            except ValueError as exc:
                raise InvariantViolation(f"A{j}: Hasse edge ({i}, {j}): {exc}") from None
            if best[j] is None or size[i] > size[best[j]]:
                best[j] = i
        return tuple(best)

    def _along_hasse(self, spectrum):
        """spectrum(algebra, below) for every algebra in poset order, each one
        extending the points of its predecessor's spectrum."""
        out = []
        for a, p in zip(self.algebras, self.predecessors):
            below = None if p is None else (self.algebras[p], out[p].points)
            out.append(spectrum(a, below))
        return tuple(out)

    def spectra(self, kind):
        """The spectrum of one kind ("gelfand" or "prime") of every algebra, in
        poset order; computed once per poset."""
        memo = self.__dict__.setdefault("_spectra", {})
        if kind not in memo:
            from qspec import spectra  # spectra imports this module
            build = {"gelfand": spectra.gelfand_spectrum,
                     "prime": spectra.prime_spectrum}.get(kind)
            if build is None:
                raise ValueError(f"unknown spectrum kind {kind!r}")
            memo[kind] = self._along_hasse(build)
        return memo[kind]

    def restrictions(self, kind):
        """The restriction map of every Hasse edge (i, j) for one spectrum
        kind, as an index table: cell p of row (i, j) is the index in
        spectrum i of the restriction of point p of spectrum j.  These compose
        to the map of every inclusion.  Computed once per poset."""
        memo = self.__dict__.setdefault("_restrictions", {})
        if kind not in memo:
            from qspec.spectra import restriction_table
            values = self.spectra(kind)
            memo[kind] = {(i, j): restriction_table(values[i], values[j], (i, j))
                          for i, j in self.hasse}
        return memo[kind]

    def comparisons(self, name):
        """The kernel map ("kernel", characters to prime points) or the
        indicator map ("indicator", prime points to characters) of every
        algebra as an index table, in poset order; computed once per poset.
        The kernel map needs zero-divisor-free scalars."""
        memo = self.__dict__.setdefault("_comparisons", {})
        if name not in memo:
            from qspec import spectra
            gelfands, primes = self.spectra("gelfand"), self.spectra("prime")
            if name == "kernel":
                memo[name] = tuple(map(spectra.kernel_table, gelfands, primes))
            elif name == "indicator":
                memo[name] = tuple(map(spectra.indicator_table, primes, gelfands))
            else:
                raise ValueError(f"unknown comparison map {name!r}")
        return memo[name]

    @cached_property
    def decompositions(self):
        """The primitive idempotent decomposition of every algebra, in poset
        order; computed once per poset.  An algebra that does not decompose
        is a broken enumeration: InvariantViolation names it."""
        require_zdf(self.quantale, "primitive idempotent decomposition")
        out = []
        for i, a in enumerate(self.algebras):
            try:
                out.append(primitive_idempotents(a))
            except (ValueError, InvariantViolation) as exc:
                raise InvariantViolation(f"A{i}: {exc}") from exc
        return tuple(out)

    @cached_property
    def trivial_index(self):
        return self.index_of(trivial_algebra(self.carrier, self.quantale))

    @cached_property
    def diagonal_index(self):
        return self.index_of(diagonal_algebra(self.carrier, self.quantale))

    def to_json(self):
        q = self.quantale
        return {
            "quantale": q.name,
            "carrier": list(map(str, self.carrier.elements)),
            "mode": self.mode,
            "max_generators": self.max_generators,
            "complete": self.complete,
            "algebras": [
                {
                    "name": f"A{i}",
                    "id": a.algebra_id,
                    "size": a.size,
                    "members": [[[q.elements[v] for v in row] for row in m]
                                for m in a.members],
                }
                for i, a in enumerate(self.algebras)
            ],
            "inclusions": sorted([i, j] for i, j in self.leq_pairs if i != j),
            "hasse_edges": [list(p) for p in self.hasse],
        }

    def to_dot(self):
        lines = ["digraph algebras {", "  rankdir=BT;"]
        for i, a in enumerate(self.algebras):
            lines.append(f'  A{i} [label="A{i}\\n{a.size} members\\n{a.algebra_id}"];')
        for i, j in self.hasse:
            lines.append(f"  A{i} -> A{j};")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _poset_from_masks(space, masks, mode, max_generators):
    """The inclusion poset of the algebras with the given member masks.
    Each algebra gets the bitset of the algebras strictly above it: the AND,
    over its members, of the algebras holding that member, less itself.  Its
    covers are the algebras above it that are above no other one that is."""
    pairs = sorted(((space.algebra_from_mask(m), m) for m in masks),
                   key=lambda p: (p[0].size, p[0].members))
    holding = {}  # Hom(X, X) index -> bitset of the algebras containing it
    for i, (_, m) in enumerate(pairs):
        for e in _bits(m):
            holding[e] = holding.get(e, 0) | 1 << i
    everything = (1 << len(pairs)) - 1
    above = []  # strictly larger algebras containing algebra i
    for i, (_, m) in enumerate(pairs):
        up = everything
        for e in _bits(m):
            up &= holding[e]
        above.append(up & ~(1 << i))
    leq, hasse = set(), []
    for i, up in enumerate(above):
        leq.add((i, i))
        leq.update((i, j) for j in _bits(up))
        higher = 0
        for j in _bits(up):
            higher |= above[j]
        hasse.extend((i, j) for j in _bits(up & ~higher))
    return AlgebraPoset(space.quantale, space.carrier, tuple(a for a, _ in pairs), mode,
                        max_generators, frozenset(leq), tuple(hasse))


def maximal_cliques(adj, vertices):
    """Every maximal clique of the subgraph induced on the vertex bitset
    vertices, where vertex v has the neighbour bitset adj[v] (no self-loops),
    as vertex bitsets.

    Bron–Kerbosch with Tomita's pivot: the pivot u in P ∪ X has the most
    neighbours in P, and only the candidates outside N(u) are branched on.
    An explicit stack stands in for the recursion, so clique size is not
    bounded by the interpreter's recursion limit.
    """
    out = []
    stack = [(0, vertices, 0)]
    while stack:
        clique, p, x = stack.pop()
        if not p:
            if not x:
                out.append(clique)
            continue
        u = max(_bits(p | x), key=lambda v: (p & adj[v]).bit_count())
        for v in _bits(p & ~adj[u]):
            bit = 1 << v
            stack.append((clique | bit, p & adj[v], x & adj[v]))
            p ^= bit
            x |= bit
    return out


def enumerate_vn(x, q, mode="exhaustive", max_generators=2):
    """Enumerate commutative unital star-closed von Neumann subsemialgebras.

    Exhaustive mode seeds a walk at every maximal clique M of the
    star-commutation graph, whose vertices are the normal elements
    (s∘s† = s†∘s), with i ~ j when j ∈ pair(i) = comm(i) ∩ comm(i†), and
    closes it under intersection with the pair(s).  Every mask it visits is
    a commutative star-closed von Neumann subsemialgebra, and it reaches all:

    - M is a maximal commutative star-closed set: the graph is closed under
      † as (a∘b)† = b†∘a†, so a maximal clique holds each member's dagger.
    - M is von Neumann: from M ⊆ M' we get M'' ⊆ M''' = M', so M'' is
      commutative; it is star-closed and contains M, so M'' = M.
    - A commutative star-closed A = A'' is a clique, so it lies in some M.
      A' is star-closed and every s ∈ M has pair(s) ⊇ M, so
      A = M ∩ ⋂_{s∈A'∖M} pair(s), which the walk from M reaches.
    - Conversely, M ∩ ⋂_{s∈S} pair(s) = (M' ∪ S ∪ S†)' is the commutant of a
      star-closed set, hence star-closed and von Neumann, and it lies inside
      M, hence commutative.

    So the seeds are the maximal algebras and the star filter is only a
    guard.  Below M a pair(s) acts through M ∩ pair(s) alone, so each walk
    cuts with those distinct proper masks.  One family set is shared across
    the seeds: a mask's successors m ∩ pair(s) do not depend on its seed, so
    it is expanded once.

    Generated mode keeps the commutative, star-closed, von Neumann closures
    cl(S) of the sets S of at most max_generators pairwise star-commuting
    normal elements, plus the trivial and diagonal algebras.  It walks the
    distinct closures level by level instead of closing every S:

    - The quantale is commutative, so scalars are central and composition
      distributes over joins; hence the commutant of a star-closed set is a
      star-closed unital subsemialgebra.
    - So cl(S) ⊆ (S ∪ S†)″, and cl(S)′ = (S ∪ S†)′ = ⋂_{s∈S} pair(s): S ∪ {b}
      is star-commuting exactly when b is normal and b ∈ cl(S)′.
    - cl(S ∪ {b}) = cl(cl(S) ∪ cl(b)) depends only on (cl(S), b), and
      b ∈ cl(S) gives cl(S) back.
    - So expanding each closure once, at the level d = |S| where it first
      appears, reaches exactly {cl(S) : |S| ≤ max_generators}.  Each union is
      closed once, from its closed part cl(S).
    """
    space = get_endospace(q, x)
    if mode == "exhaustive":
        pair = [space.comm_mask(i) & space.comm_mask(space.dag(i))
                for i in range(space.size)]
        normal = _mask(i for i, m in enumerate(pair) if m >> i & 1)  # i ∈ pair(i)
        singles = set(pair)
        family = set()
        for c in maximal_cliques([m & ~(1 << i) for i, m in enumerate(pair)], normal):
            cuts = {c & s for s in singles}
            cuts.discard(c)
            family.add(c)
            frontier = [c]
            while frontier:
                m = frontier.pop()
                for s in cuts:
                    nm = m & s
                    if nm not in family:
                        family.add(nm)
                        frontier.append(nm)
        keep = [m for m in family if space.is_star_mask(m)]
        return _poset_from_masks(space, keep, "exhaustive", None)
    if mode == "generated":
        k = max_generators
        if k < 0:
            raise ValueError(f"max_generators must be at least 0, not {k}")
        normal = _mask(i for i in range(space.size)
                       if space.comm_mask(i) >> space.dag(i) & 1)
        found = {space.mask_of(diagonal_algebra(x, q).members)}
        double = _Rows(space.commutant_mask)  # a commutant -> its commutant

        def consider(cl):
            # commutative iff cl <= cl', von Neumann iff cl'' == cl: cl' is made once
            comm = space.commutant_mask(cl)
            if cl & ~comm == 0 and space.is_star_mask(cl) and double[comm] == cl:
                found.add(cl)
            return cl, comm

        base = space.scalar_line  # the trivial algebra, cl(∅)
        single = _Rows(lambda b: space.close_mask(base, (b,)))  # b -> cl(b)
        known = {base}  # every closure and every union met so far
        level = [consider(base)]
        for _ in range(k):
            fresh = []
            for c, comm in level:
                for b in _bits(comm & normal & ~c):
                    u = c | single[b]
                    if u not in known:
                        cl = space.close_mask(c, _bits(u & ~c))
                        if cl not in known:
                            fresh.append(consider(cl))
                        known |= {u, cl}
            level = fresh
        return _poset_from_masks(space, found, "generated", k)
    raise ValueError(f"unknown enumeration mode {mode!r}")
