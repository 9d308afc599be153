"""Commutative von Neumann *-subsemialgebras of the endomorphism semialgebra.

A subsemialgebra of Hom(X, X) is a set of endo-relations containing the zero
and identity relations, closed under pointwise join, composition, dagger and
scalar multiples.  The commutative von Neumann ones (equal to their double
commutant) form an inclusion poset.  Enumerating it exactly is feasible
because one step reaches each from a smaller one: the double commutant of
an algebra A together with a normal b ∈ A′ and its dagger, which is
(A′ ∩ pair(b))′ with pair(b) the elements commuting with b and with b†.  So
a walk from the trivial algebra that takes each such step visits all of them
and nothing else.
Hom(X, X) itself is tabulated by row lookup: row k of a product or join
depends on row k of the left factor only.  Each algebra over a
zero-divisor-free quantale splits along its primitive subunital idempotents,
which are recovered from the Boolean algebra of member supports.
"""

import itertools
import math
import os
import sys
from array import array
from collections import namedtuple
from functools import cached_property, partial, reduce
from operator import and_

from qspec import spectra
from qspec._homsearch import TableSemiring, _typecode, tuple_getter
from qspec.quantale import InvariantViolation, require_quantale, require_zdf
from qspec.relations import (
    QRel, diag_rel, identity_rel, zero_rel,
    _e_compose, _e_dagger, _e_join, _e_scalar,
)

DEFAULT_HOM_BOUND = 65536
_ZERO_DIGITS = b"1" + b"0" * 255  # translate: a zero byte to "1", any other to "0"


class MixedAmbientError(ValueError):
    """Generators do not share one carrier and one quantale."""


class EnumerationBoundExceeded(RuntimeError):
    """The endomorphism space is larger than the configured bound."""


def hom_bound():
    raw = os.environ.get("QSPEC_MAX_HOM_SIZE")
    if raw is None:
        return DEFAULT_HOM_BOUND
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"QSPEC_MAX_HOM_SIZE must be an integer, not {raw!r}") from None


# -- the algebra value ------------------------------------------------------------


class Subsemialgebra(namedtuple("Subsemialgebra", "quantale carrier members")):
    """A set of endo-relations on one carrier, canonically ordered: members
    are the sorted entry matrices."""

    @classmethod
    def from_entries(cls, quantale, carrier, entries_iterable):
        return cls(quantale, carrier, tuple(sorted(set(entries_iterable))))

    @cached_property
    def member_set(self):
        return frozenset(self.members)

    @cached_property
    def member_pos(self):
        return {m: i for i, m in enumerate(self.members)}

    @cached_property
    def algebra_id(self):
        """The first 12 hex digits of the SHA-256 of repr(members), written
        from the member reprs its space keeps, one per distinct member."""
        space, idx = self.in_space
        reprs = ", ".join(map(space.reprs.__getitem__, idx))
        return _sha256_hex(f"({reprs},)" if len(idx) == 1 else f"({reprs})")[:12]

    @property
    def size(self):
        return len(self.members)

    def relations(self):
        return tuple(QRel(self.quantale, self.carrier, self.carrier, e)
                     for e in self.members)

    # flags

    @cached_property
    def in_space(self):
        """The Hom(X, X) space and the members' indices in it, in member order,
        found once per algebra.  The space comes from get_endospace, so
        QSPEC_MAX_HOM_SIZE applies."""
        space = get_endospace(self.quantale, self.carrier)
        return space, tuple(map(space.index.__getitem__, self.members))

    @cached_property
    def is_commutative(self):
        space, idx = self.in_space
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
        space, idx = self.in_space
        return space.scalar_line & ~_mask(idx) == 0

    def semiring(self):
        """Member-indexed *-semiring tables (join as addition, composition as
        multiplication), read from the Hom(X, X) tables; add and mul hold one
        array row per member.  Row a of each is two gathers: the Hom(X, X)
        row of a at the members' indices, then those results' member
        positions, so an operation that leaves the set is a missing key and
        raises InvariantViolation.  Requires the algebra to be closed.  After
        enumeration this is the one arithmetic on an algebra's members."""
        cached = self.__dict__.get("_semiring")
        if cached is not None:
            return cached
        space, idx = self.in_space
        pos = {h: p for p, h in enumerate(idx)}
        code = _typecode(len(idx))
        at_members = tuple_getter(idx)

        def table(rows):  # one array row of member positions per member
            return tuple(array(code, tuple_getter(at_members(rows[a]))(pos)) for a in idx)

        try:
            sr = TableSemiring(
                size=len(idx), add=table(space.join_rows), mul=table(space.comp_rows),
                star=tuple_getter(at_members(space.dag_t))(pos),
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


def _closure(members, fresh, partners, dag, join_row, comp_row):
    """Fixed point of the members under dag, join and composition on both
    sides, where every pair of members lies inside but those of an element
    of fresh with one of partners, and every dagger but those of fresh.  The
    first round evaluates only those; each later one pairs what the last
    found with every member (semi-naive evaluation).  Elements are whatever
    the operations take: join_row(a) and comp_row(a) are indexed by the
    other operand, so a round's results are gathers of the fresh elements'
    rows at the partners, with b∘a read as (a†∘b†)†.  Seeded with the scalar
    line, or with members holding it, the fixed point is closed under every
    scalar multiple too, since s·a = (s·id)∘a."""
    members = set(members)
    while fresh:
        found = set(map(dag, fresh))
        if partners:
            at = tuple_getter(partners)
            at_dag = tuple_getter(map(dag, partners))
            for a in fresh:
                found.update(at(join_row(a)), at(comp_row(a)))
                found.update(map(dag, at_dag(comp_row(dag(a)))))
        fresh = found - members
        members |= fresh
        partners = members
    return members


def close(x, gens, quantale=None):
    """Smallest subsemialgebra containing the generators: fixed-point closure
    under join, composition, dagger and scalar multiples, seeded with the
    scalar line, which is closed already.  Works on entry matrices, so
    Hom(X, X) is never built: an entry matrix's row is a dict filled on
    lookup."""
    gens = list(gens)
    q = _ambient(x, gens, quantale)
    line = _scalar_line(q, x)
    seed = line | {g.entries for g in gens}
    members = _closure(seed, seed - line, seed, partial(_e_dagger, q),
                       lambda a: _Rows(partial(_e_join, q, a)),
                       lambda a: _Rows(partial(_e_compose, q, a)))
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
        space, idx = a.in_space
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


# -- primitive idempotent decomposition ------------------------------------------------


def subunital_idempotents(a):
    """The positions of the idempotent members admitting an orthogonal
    idempotent partner that joins with them to the identity."""
    sr = a.semiring()
    mul, add = sr.mul, sr.add
    idem = [i for i in range(sr.size) if mul[i][i] == i]
    return [p for p in idem
            if any(mul[p][r] == sr.zero and add[p][r] == sr.one for r in idem)]


class Decomposition(namedtuple("Decomposition", "algebra idempotents supports")):
    """Primitive subunital idempotents of an algebra and the carrier points
    they support: idempotents holds the member position of one per
    component, and supports the carrier points of each in carrier order.
    The component eA of an idempotent e is the set of values in e's row of
    the multiplication table."""

    __slots__ = ()


def support_projections(a):
    """Each distinct member support, as a frozenset of carrier indices (the
    empty support included), mapped to the entries of its subset projection:
    the identity on the support and bottom elsewhere.  Both are looked up in
    the Hom(X, X) space; the dict is stored on the algebra, so the check and
    the decomposition read one."""
    cached = a.__dict__.get("_supports")
    if cached is None:
        space, idx = a.in_space
        cached = {s: space.projection(s) for s in set(map(space.support, idx))}
        a.__dict__["_supports"] = cached
    return cached


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
    # past here an idempotent is named by its member position
    position = {s: a.member_pos[e] for s, e in projections.items() if s}
    atoms = [s for s in position if not any(t < s for t in position)]
    atoms.sort(key=min)
    if set().union(*atoms) != set(range(a.carrier.size)):
        raise InvariantViolation("support atoms do not cover the carrier")
    points = a.carrier.elements
    atom_points = tuple(tuple(points[i] for i in sorted(s)) for s in atoms)
    return Decomposition(a, tuple(map(position.__getitem__, atoms)), atom_points)


def validate_decomposition(dec):
    """Orthogonality, join-to-unit, primitivity, and the product reassembly
    bijection; returns a list of failure strings (empty = all good)."""
    a = dec.algebra
    sr = a.semiring()
    add, mul, zero = sr.add, sr.mul, sr.zero
    es = dec.idempotents
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
    subunital = subunital_idempotents(a)
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
    expected = math.prod(len(set(mul[p])) for p in es)
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


def _sha256_hex(text):
    """The SHA-256 hex digest of text from CPython's own hash module, imported
    on first use: hashlib, the fallback, loads OpenSSL."""
    try:
        from _sha256 import sha256
    except ImportError:
        try:
            from _sha2 import sha256  # Python 3.12 on
        except ImportError:
            from hashlib import sha256
    return sha256(text.encode()).hexdigest()


class _Rows(dict):
    """Values made on first use by one function of their key: table rows,
    supports, the closures that generated mode reuses, and the rows of an
    entry matrix in close()."""

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
    |Hom| row indices) and rowjoin (R x R), determine both operations.

    No matrix product runs per cell: rowmul comes from rowjoin and scaled
    (|Q| x R), the index of each row's scalar multiple v·s.  Row r∘b is the
    join over k of r_k·(row k of b), and in product order one gather of the
    rowjoin rows at scaled[r_k] extends every prefix of b by one place.

    A composition or join row is the sum of n looked-up rows of place-scaled
    row indices; each such part is packed into one int, one fixed-width lane
    per element, and no lane overflows because every sum is an index, so the
    n int additions add all |Hom| lanes at once.  These rows, the
    commutation masks and the supports (the carrier rows whose row index is
    not the zero row's) are made on first use; the dagger table is built
    eagerly, as a digit sum over the cells.  Scalars act through
    scalar_line, the mask of the trivial algebra {s·id}: s·a is the
    composite (s·id)∘a.
    """

    def __init__(self, quantale, x):
        q = self.quantale = quantale
        self.carrier = x
        n = x.size
        rows = list(itertools.product(range(q.size), repeat=n))
        rowpos = {r: i for i, r in enumerate(rows)}
        els = self.elements = list(itertools.product(rows, repeat=n))
        self.reprs = _Rows(lambda i: repr(els[i]))  # for the algebra ids
        self.size = len(els)
        self.index = {e: i for i, e in enumerate(els)}
        self.zero_idx = self.index[zero_rel(q, x, x).entries]
        self.id_idx = self.index[identity_rel(q, x).entries]
        self.scalar_line = self.mask_of(_scalar_line(q, x))
        self.full_mask = (1 << self.size) - 1
        code = self._code = _typecode(self.size)
        order, wide = sys.byteorder, array(code).itemsize
        self._nbytes = self.size * wide
        row_code = _typecode(len(rows))
        self._width = array(row_code).itemsize
        # rowk[k][a] is the index of row k of element a
        rowk = [array(row_code, ids)
                for ids in zip(*itertools.product(range(len(rows)), repeat=n))]
        rowjoin = [array(row_code, [rowpos[_e_join(q, (r,), (s,))[0]] for s in rows])
                   for r in rows]
        # scaled[v][s] is the index of the row v·s
        scaled = [tuple_getter([rowpos[_e_scalar(q, v, (s,))[0]] for s in rows])
                  for v in range(q.size)]
        zero_row = rowpos[(q.bottom,) * n]

        # part k, row r: over every b, the scaled index of row k of a∘b (or of
        # a ∨ b) when row k of a is r
        places = [len(rows) ** (n - 1 - k) for k in range(n)]
        self.rowmul, products = [], []
        for r in rows:
            # over every prefix of b, in product order, the index of the join
            # of r_k·(row k of b) so far; one gather extends all by one place
            acc = [zero_row]
            for v in r:
                acc = list(itertools.chain.from_iterable(
                    map(scaled[v], map(rowjoin.__getitem__, acc))))
            self.rowmul.append(array(row_code, acc))
            products.append(int.from_bytes(array(code, acc), order))
        comp_parts = [[p * prods for prods in products] for p in places]

        def runs(joins, p):
            # in product order row k of b is constant on runs of p = places[k]
            # elements, which take the R rows in turn, R**k times over
            once = b"".join([j.to_bytes(wide, order) * p for j in joins])
            return int.from_bytes(once * (self.size // (p * len(rows))), order)

        join_parts = [[p * runs(joins, p) for joins in rowjoin] for p in places]
        self.comp_rows = _Rows(partial(self._summed, comp_parts))
        self.join_rows = _Rows(partial(self._summed, join_parts))
        if self._width == 1:  # byte rows: a column lookup is one bytes.translate
            self._rowk = [ids.tobytes() for ids in rowk]
            self._gather = lambda ids, column: ids.translate(bytes(column).ljust(256, b"\0"))
        else:
            self._rowk = rowk
            self._gather = lambda ids, column: array(row_code, map(column.__getitem__, ids))
        self.comm = _Rows(self._commutation)
        # support(a): the carrier rows k where a is not bottom, which are those
        # whose row index is not the zero row's; projection(s): the entries of
        # the identity on the carrier indices s, bottom elsewhere
        self._supports = _Rows(lambda a: frozenset(
            k for k, ids in enumerate(self._rowk) if ids[a] != zero_row))
        self.support = self._supports.__getitem__
        self.projection = _Rows(lambda s: diag_rel(
            q, x, [q.unit if k in s else q.bottom for k in range(n)]).entries).__getitem__
        # the index of an element is a sum over its cells (i, j) in product
        # order of a_ij * |Q|**(n*n-1-(i*n+j)); a† holds inv(a_ij) at (j, i)
        dag = [0]
        for i, j in itertools.product(range(n), repeat=2):
            terms = [q.size ** (n * n - 1 - (j * n + i)) * v for v in q.involution]
            dag = [u + t for u in dag for t in terms]
        self.dag_t = array(code, dag)

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

    def pair_mask(self, i):
        """The elements commuting with i and with i†."""
        return self.comm[i] & self.comm[self.dag_t[i]]

    # mask utilities

    def mask_of(self, entries_iterable):
        return _mask(map(self.index.__getitem__, entries_iterable))

    def commutant_mask(self, mask):
        out = self.full_mask
        for i in _bits(mask):
            out &= self.comm[i]
        return out

    def double_commutant_mask(self, mask, comm=None):
        """mask″, from mask′ when the caller has it.  Every partial AND over
        mask′ holds mask″, which holds mask, so an AND that reaches mask
        has found mask″ = mask and stops there."""
        if comm is None:
            comm = self.commutant_mask(mask)
        out = self.full_mask
        for i in _bits(comm):
            out &= self.comm[i]
            if out == mask:
                break
        return out

    def is_commutative_mask(self, mask):
        return mask & ~self.commutant_mask(mask) == 0

    def is_star_mask(self, mask):
        return all(mask >> self.dag_t[i] & 1 for i in _bits(mask))

    def is_normal(self, i):
        """Whether i∘i† == i†∘i, one row k at a time: row k of i∘i† is the
        rowmul row of i's row k at column i†.  No commutation mask is made."""
        d = self.dag_t[i]
        return all(self.rowmul[ids[i]][d] == self.rowmul[ids[d]][i] for ids in self._rowk)

    def _close(self, members, fresh, partners):
        return _mask(_closure(members, fresh, partners, self.dag_t.__getitem__,
                              self.join_rows.__getitem__, self.comp_rows.__getitem__))

    def close_mask(self, closed, seed):
        """The closure, as a mask, of the closed mask `closed` (0 or an
        algebra) with the seed indices and the scalar line."""
        closed |= self.scalar_line  # 0 becomes the line, which is closed; an algebra holds it
        members = {*_bits(closed), *seed}
        return self._close(members, [i for i in members if not closed >> i & 1], members)

    def close_union(self, c, d):
        """The closure, as a mask, of the union of two closed masks.  A pair
        inside either part stays there, and so do the daggers, so the first
        round pairs d∖c with c∖d only; parts that nest pair nothing."""
        fresh, partners = d & ~c, c & ~d
        if not (fresh and partners):
            return c | d
        return self._close(_bits(c | d), list(_bits(fresh)), list(_bits(partners)))

    def algebra_from_mask(self, mask):
        return Subsemialgebra.from_entries(
            self.quantale, self.carrier,
            (self.elements[i] for i in _bits(mask)))


def require_hom_bound(q, n):
    """Refuse an n-point carrier whose Hom(X, X) passes the bound, unbuilt."""
    limit, cells = hom_bound(), n * n
    # |Q| >= 2 and cells past the bound's bit length give 2**cells > limit:
    # refuse without forming the power, which has about `cells` digits
    huge = q.size > 1 and cells > limit.bit_length()
    size = f"{q.size}^{cells}" if huge else q.size ** cells
    if huge or size > limit:
        raise EnumerationBoundExceeded(
            f"|Hom(X,X)| = {size} exceeds the bound {limit}; "
            "use a smaller carrier or raise QSPEC_MAX_HOM_SIZE")


_space_cache = {}


def get_endospace(q, x):
    key = (q.fingerprint, x)
    space = _space_cache.get(key)
    if space is None:
        require_hom_bound(q, x.size)
        space = EndoSpace(q, x)
        _space_cache[key] = space
    return space


# -- enumeration ------------------------------------------------------------------------


def _built(site, build, *args):
    """build(*args) for one algebra of a poset, site its index i, or for one
    Hasse edge, site the pair (i, j).  A ValueError or InvariantViolation it
    raises is a broken enumeration: re-raised as an InvariantViolation that
    names A{i}, or A{j} and the edge, a name formed only then."""
    try:
        return build(*args)
    except (ValueError, InvariantViolation) as exc:
        if type(site) is int:
            raise InvariantViolation(f"A{site}: {exc}") from exc
        i, j = site
        raise InvariantViolation(f"A{j}: Hasse edge ({i}, {j}): {exc}") from exc


class AlgebraPoset(namedtuple("AlgebraPoset", "quantale carrier algebras mode "
                                              "max_generators hasse")):
    """Inclusion poset of enumerated algebras, stored as its covering pairs
    (i, j), algebra i covered by algebra j, with i < j: the algebras are
    sorted by size.  max_generators is None in exhaustive mode."""

    @property
    def complete(self):
        """Only the exhaustive walk is known to list every algebra."""
        return self.mode == "exhaustive"

    def index_of(self, algebra):
        return next((i for i, a in enumerate(self.algebras) if a.members == algebra.members), None)

    @cached_property
    def predecessors(self):
        """For each algebra, the Hasse predecessor its characters are
        extended from: the largest one, ties going to the lowest index; None
        for a minimal algebra.  Algebras are sorted by size, so it always
        comes first.  Every spectrum and restriction table is built along the
        Hasse edges after this, so a Hasse edge that is not an inclusion, a
        broken enumeration, is caught here: InvariantViolation names it."""
        best = [None] * len(self.algebras)
        size = [a.size for a in self.algebras]
        for i, j in self.hasse:
            _built((i, j), spectra._positions, self.algebras[i], self.algebras[j])
            if best[j] is None or size[i] > size[best[j]]:
                best[j] = i
        return tuple(best)

    def spectra(self, kind):
        """The spectrum of one kind ("gelfand" or "prime") of every algebra, in
        poset order; computed once per poset.  Each Gelfand spectrum extends
        the characters of its algebra's predecessor; each prime spectrum is
        read off its algebra's Gelfand spectrum.  An algebra found unclosed
        is named in the InvariantViolation."""
        memo = self.__dict__.setdefault("_spectra", {})
        if kind not in memo:
            if kind == "gelfand":
                out = []
                for i, (a, p) in enumerate(zip(self.algebras, self.predecessors)):
                    below = None if p is None else (self.algebras[p], out[p].points)
                    # an unclosed algebra has no semiring tables to search
                    out.append(_built(i, spectra.gelfand_spectrum, a, below))
                memo[kind] = tuple(out)
            elif kind == "prime":
                memo[kind] = tuple(map(spectra.prime_spectrum, self.spectra("gelfand")))
            else:
                raise ValueError(f"unknown spectrum kind {kind!r}")
        return memo[kind]

    def restrictions(self, kind):
        """The restriction map of every Hasse edge (i, j) for one spectrum
        kind, as an index table: cell p of row (i, j) is the index in
        spectrum i of the restriction of point p of spectrum j.  These compose
        to the map of every inclusion.  Computed once per poset."""
        memo = self.__dict__.setdefault("_restrictions", {})
        if kind not in memo:
            values = self.spectra(kind)
            memo[kind] = {e: _built(e, spectra.restriction_table, values[e[0]], values[e[1]])
                          for e in self.hasse}
        return memo[kind]

    def comparisons(self, name):
        """The kernel map ("kernel", characters to prime points) or the
        indicator map ("indicator", prime points to characters) of every
        algebra as an index table, in poset order; computed once per poset.
        The kernel map needs zero-divisor-free scalars: ZdfRequiredError
        before any table is built."""
        memo = self.__dict__.setdefault("_comparisons", {})
        if name not in memo:
            if name == "kernel":
                require_zdf(self.quantale, "the kernel comparison map")
                build, kinds = spectra.kernel_table, ("gelfand", "prime")
            elif name == "indicator":
                build, kinds = spectra.indicator_table, ("prime", "gelfand")
            else:
                raise ValueError(f"unknown comparison map {name!r}")
            sources, targets = map(self.spectra, kinds)
            memo[name] = tuple(_built(i, build, source, target)
                               for i, (source, target) in enumerate(zip(sources, targets)))
        return memo[name]

    @cached_property
    def decompositions(self):
        """The primitive idempotent decomposition of every algebra, in poset
        order; computed once per poset.  An algebra that does not decompose
        is a broken enumeration: InvariantViolation names it."""
        require_zdf(self.quantale, "primitive idempotent decomposition")
        return tuple(_built(i, primitive_idempotents, a) for i, a in enumerate(self.algebras))

    @cached_property
    def leq_pairs(self):
        """The inclusion pairs (i, j), for the report that lists them: hasse's
        reflexive and transitive closure, in one pass from the top (edges go
        up).  Each up-set is read lowest bit first, so the pairs ascend."""
        up = [1 << i for i in range(len(self.algebras))]
        for i, j in sorted(self.hasse, reverse=True):
            up[i] |= up[j]
        return tuple((i, j) for i, mask in enumerate(up) for j in _bits(mask))

    @cached_property
    def trivial_index(self):
        return self.index_of(trivial_algebra(self.carrier, self.quantale))

    @cached_property
    def diagonal_index(self):
        return self.index_of(diagonal_algebra(self.carrier, self.quantale))


def _poset_from_masks(space, masks, mode, max_generators):
    """The inclusion poset of the algebras with the given member masks.
    Each algebra gets the bitset of the algebras strictly above it: the AND,
    over its members (it has some), of the algebras holding that member,
    less itself.  Its covers are peeled off that bitset: record the lowest
    algebra j left, then drop j and all above it.  Algebras are sorted by
    size, so inclusions go up in index, and any k strictly between i and j
    is below j in index and still left (no recorded cover and above none,
    or j would be gone): so j is a cover.  A dropped algebra is a recorded
    cover or above one, so no cover is lost, and they come in ascending j."""
    pairs = sorted(((space.algebra_from_mask(m), m) for m in masks),
                   key=lambda p: (p[0].size, p[0].members))
    holding = {}  # Hom(X, X) index -> bitset of the algebras containing it
    for i, (_, m) in enumerate(pairs):
        for e in _bits(m):
            holding[e] = holding.get(e, 0) | 1 << i
    above = [reduce(and_, map(holding.__getitem__, _bits(m))) & ~(1 << i)
             for i, (_, m) in enumerate(pairs)]
    hasse = []
    for i, rest in enumerate(above):
        while rest:
            j = (rest & -rest).bit_length() - 1
            hasse.append((i, j))
            rest &= ~(above[j] | 1 << j)
    return AlgebraPoset(space.quantale, space.carrier, tuple(a for a, _ in pairs), mode,
                        max_generators, tuple(hasse))


def enumerate_vn(x, q, mode="exhaustive", max_generators=2):
    """Enumerate commutative unital star-closed von Neumann subsemialgebras.

    The quantale is commutative, so scalars are central and composition
    distributes over joins; hence the commutant of a star-closed set is a
    star-closed unital subsemialgebra.  An element b is normal when
    b∘b† = b†∘b, and pair(b) = comm(b) ∩ comm(b†).  Normality is read by
    rows, with no commutation mask: row k of a∘c is (row k of a)·c, so row
    k of b∘b† is rowmul[row_k(b)][b†] and row k of b†∘b is
    rowmul[row_k(b†)][b], and b is normal iff these agree for every k.

    Exhaustive mode walks from the double commutant of the scalar line, the
    smallest such algebra.  From an algebra A it steps, for every normal b
    in A′ outside A, to ext(A, b) = (A ∪ {b, b†})″ = cut′, where the cut
    A′ ∩ pair(b) = (A ∪ {b, b†})′ is already ext's commutant; so each
    distinct cut is closed once and carried forward with its algebra, and
    b† gives the step of b.

    - Soundness: A ∪ {b, b†} is commutative and star-closed, so its double
      commutant is a commutative, star-closed von Neumann algebra.
    - Completeness: every such B holds the scalar line, so its double
      commutant lies in B″ = B.  For A ⊆ B, any b in B∖A is normal and lies
      in A′, since B is commutative and B ⊆ A′; so A ⊊ ext(A, b) ⊆ B, and
      repeating reaches B.

    So the star filter is only a guard.  This is the closure system of the
    commutation Galois connection, walked one attribute at a time as in
    NextClosure (Ganter and Wille, Formal Concept Analysis, 1999), without
    its lectic order.

    Generated mode keeps the commutative, star-closed, von Neumann closures
    cl(S) of the sets S of at most max_generators pairwise star-commuting
    normal elements, plus the trivial and diagonal algebras.  It walks the
    distinct closures level by level instead of closing every S:

    - cl(S) ⊆ (S ∪ S†)″, and cl(S)′ = (S ∪ S†)′ = ⋂_{s∈S} pair(s): S ∪ {b}
      is star-commuting exactly when b is normal and b ∈ cl(S)′, and then
      cl(S ∪ {b})′ = cl(S)′ ∩ pair(b).
    - cl(S ∪ {b}) = cl(cl(S) ∪ cl(b)) depends only on (cl(S), b), and
      b ∈ cl(S) gives cl(S) back.
    - So expanding each closure once, at the level d = |S| where it first
      appears, reaches exactly {cl(S) : |S| ≤ max_generators}.  Each union
      c ∪ d, with c = cl(S) and d = cl(b), is closed once, from its two
      closed parts.
    - The first round of that closure pairs only d∖c with c∖d.  A pair
      inside c lies in c and a pair inside d in d, and both are star-closed;
      an element of c ∩ d lies in both, so its pairs with either part stay
      inside.  Only a pair of x ∈ d∖c with y ∈ c∖d can leave the union.
      When the parts nest, as at level 1, where c is the scalar line, there
      is no such pair and the union is its own closure.
    - A closure is von Neumann iff cl″ = cl, and its double commutant stops
      early.  Every partial AND of the commutation masks of cl′ holds the
      full AND, which is cl″ ⊇ cl.  So a partial AND equal to cl gives
      cl ⊆ cl″ ⊆ cl, and the stopped value is exactly cl″.  The memo keyed by
      cl′ therefore holds exact double commutants, whichever closure filled
      it; `is_von_neumann` reads the same early exit.

    A table that fails a quantale axiom is refused first: QuantaleError.
    """
    require_quantale(q)
    space = get_endospace(q, x)
    # the normal elements, one of each {b, b†}: pair(b) = pair(b†) and cl(b) = cl(b†)
    normal = _mask(i for i in range(space.size) if i <= space.dag_t[i] and space.is_normal(i))
    if mode == "exhaustive":
        comm = space.commutant_mask(space.scalar_line)
        least = space.commutant_mask(comm)
        algebra_of = {comm: least}  # each algebra's commutant -> the algebra
        frontier = [(least, comm)]
        while frontier:
            a, comm = frontier.pop()
            for b in _bits(comm & normal & ~a):
                cut = comm & space.pair_mask(b)
                if cut not in algebra_of:
                    algebra_of[cut] = ext = space.commutant_mask(cut)
                    frontier.append((ext, cut))
        keep = [m for m in algebra_of.values() if space.is_star_mask(m)]
        return _poset_from_masks(space, keep, "exhaustive", None)
    if mode == "generated":
        k = max_generators
        if k < 0:
            raise ValueError(f"max_generators must be at least 0, not {k}")
        found = {space.mask_of(diagonal_algebra(x, q).members)}
        double = {}  # a commutant -> its commutant, the exact double commutant

        def consider(cl, comm):
            # commutative iff cl <= cl' = comm, von Neumann iff cl'' == cl; a
            # closure is star-closed, so that test, a guard, goes last
            if cl & ~comm == 0:
                if comm not in double:
                    double[comm] = space.double_commutant_mask(cl, comm)
                if double[comm] == cl and space.is_star_mask(cl):
                    found.add(cl)
            return cl, comm

        base = space.scalar_line  # the trivial algebra, cl(∅)
        single = _Rows(lambda b: space.close_mask(base, (b,)))  # b -> cl(b)
        known = {base}  # every closure and every union met so far
        level = [consider(base, space.commutant_mask(base))]
        for _ in range(k):
            if not level:  # nothing new to extend: every deeper level is empty too
                break
            fresh = []
            for c, comm in level:
                for b in _bits(comm & normal & ~c):
                    u = c | single[b]
                    if u not in known:
                        cl = space.close_union(c, single[b])
                        if cl not in known:
                            fresh.append(consider(cl, comm & space.pair_mask(b)))
                        known |= {u, cl}
            level = fresh
        return _poset_from_masks(space, found, "generated", k)
    raise ValueError(f"unknown enumeration mode {mode!r}")
