"""Commutative von Neumann *-subsemialgebras of the endomorphism semialgebra.

A subsemialgebra of Hom(X, X) is a set of endo-relations containing the zero
and identity relations, closed under pointwise join, composition, dagger and
scalar multiples.  The von Neumann ones (equal to their double commutant) form
an inclusion poset; enumerating that poset exactly is feasible because every
double commutant is an intersection of single-element commutants, so the whole
family is the Moore family generated by those intersections.  Each algebra over
a zero-divisor-free quantale splits along its primitive subunital idempotents,
which are recovered from the Boolean algebra of member supports.
"""

from __future__ import annotations

import hashlib
import itertools
import os
from dataclasses import dataclass
from functools import cached_property, partial

from qspec._homsearch import TableSemiring
from qspec.quantale import Quantale, QuantaleError, require_zdf
from qspec.relations import (
    FiniteSet, QRel, diag_rel, direct_sum_set, hom_size, identity_rel,
    subset_idempotent, _e_compose, _e_dagger, _e_join, _e_scalar,
)

DEFAULT_HOM_BOUND = 65536
_TABLE_LIMIT = 2048


class MixedAmbientError(ValueError):
    """Generators do not share one carrier and one quantale."""


class EnumerationBoundExceeded(RuntimeError):
    """The endomorphism space is larger than the configured bound."""


class InvariantViolation(RuntimeError):
    """A structural guarantee failed; signals an upstream bug."""


def hom_bound():
    return int(os.environ.get("QSPEC_MAX_HOM_SIZE", DEFAULT_HOM_BOUND))


# -- entry matrices of the constant relations -----------------------------------


def _identity_entries(q, n):
    u, b = q.unit, q.bottom
    return tuple(tuple(u if i == j else b for j in range(n)) for i in range(n))


def _zero_entries(q, n):
    b = q.bottom
    return tuple((b,) * n for _ in range(n))


# -- the algebra value ------------------------------------------------------------


@dataclass(frozen=True)
class Subsemialgebra:
    """A set of endo-relations on one carrier, canonically ordered."""

    quantale: Quantale
    carrier: FiniteSet
    members: tuple  # sorted entry matrices

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
        digest = hashlib.sha256(repr(self.members).encode()).hexdigest()
        return digest[:12]

    @property
    def size(self):
        return len(self.members)

    def relations(self):
        return tuple(QRel(self.quantale, self.carrier, self.carrier, e)
                     for e in self.members)

    def member_index(self, entries):
        return self.members.index(entries)

    # flags

    @cached_property
    def is_unital(self):
        n = self.carrier.size
        return (_identity_entries(self.quantale, n) in self.member_set
                and _zero_entries(self.quantale, n) in self.member_set)

    @cached_property
    def is_star_closed(self):
        q = self.quantale
        return all(_e_dagger(q, m) in self.member_set for m in self.members)

    @cached_property
    def is_commutative(self):
        q = self.quantale
        ms = self.members
        for i, a in enumerate(ms):
            for b in ms[i + 1:]:
                if _e_compose(q, a, b) != _e_compose(q, b, a):
                    return False
        return True

    def is_closed(self):
        """Closed under join, composition, dagger and every scalar multiple."""
        q = self.quantale
        s = self.member_set
        for a in self.members:
            if _e_dagger(q, a) not in s:
                return False
            for c in range(q.size):
                if _e_scalar(q, c, a) not in s:
                    return False
            for b in self.members:
                if _e_join(q, a, b) not in s or _e_compose(q, a, b) not in s:
                    return False
        return self.is_unital

    def semiring(self):
        """Member-indexed *-semiring tables (join as addition, composition as
        multiplication).  Requires the algebra to be closed."""
        cached = self.__dict__.get("_semiring")
        if cached is not None:
            return cached
        q = self.quantale
        idx = self.member_pos
        try:
            add = tuple(tuple(idx[_e_join(q, a, b)] for b in self.members)
                        for a in self.members)
            mul = tuple(tuple(idx[_e_compose(q, a, b)] for b in self.members)
                        for a in self.members)
            star = tuple(idx[_e_dagger(q, m)] for m in self.members)
        except KeyError:
            raise InvariantViolation("algebra is not closed under its operations")
        n = self.carrier.size
        sr = TableSemiring(
            size=len(self.members), add=add, mul=mul, star=star,
            zero=idx[_zero_entries(q, n)], one=idx[_identity_entries(q, n)])
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


def _closure(seed, dag, smul, join, comp, scalars):
    """Fixed point of the seed under dag, every scalar multiple, join and
    composition on both sides; elements are whatever the four operations take."""
    members = set(seed)
    frontier = list(members)
    while frontier:
        fresh = []

        def push(e):
            if e not in members:
                members.add(e)
                fresh.append(e)

        for a in frontier:
            push(dag(a))
            for s in scalars:
                push(smul(s, a))
            for b in list(members):
                push(join(a, b))
                push(comp(a, b))
                push(comp(b, a))
        frontier = fresh
    return members


def close(x, gens, quantale=None):
    """Smallest subsemialgebra containing the generators: fixed-point closure
    under join, composition, dagger and scalar multiples, seeded with 0 and id.
    Works on entry matrices, so Hom(X, X) is never built."""
    gens = list(gens)
    q = _ambient(x, gens, quantale)
    n = x.size
    seed = {_zero_entries(q, n), _identity_entries(q, n)} | {g.entries for g in gens}
    members = _closure(seed, partial(_e_dagger, q), partial(_e_scalar, q),
                       partial(_e_join, q), partial(_e_compose, q), range(q.size))
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
    the Hom(X, X) space like commutant."""
    space = get_endospace(a.quantale, a.carrier)
    mask = space.mask_of(a.members)
    return space.double_commutant_mask(mask) == mask


def trivial_algebra(x, q):
    """The closure of the scalar multiples of the identity."""
    return close(x, [identity_rel(q, x)], q)


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
    q = a.quantale
    x = direct_sum_set(a.carrier, b.carrier)
    na, nb = a.carrier.size, b.carrier.size
    bot = q.bottom
    members = []
    for ma in a.members:
        for mb in b.members:
            rows = [row + (bot,) * nb for row in ma]
            rows += [(bot,) * na + row for row in mb]
            members.append(tuple(rows))
    return Subsemialgebra.from_entries(q, x, members)


def subunital_idempotents(a):
    """Idempotent members admitting an orthogonal idempotent partner that
    joins with them to the identity."""
    q = a.quantale
    n = a.carrier.size
    idem = [m for m in a.members if _e_compose(q, m, m) == m]
    zero = _zero_entries(q, n)
    ident = _identity_entries(q, n)
    out = []
    for p in idem:
        for r in idem:
            if _e_compose(q, p, r) == zero and _e_join(q, p, r) == ident:
                out.append(p)
                break
    return out


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
    members = []
    for m in a.members:
        cut = _e_compose(q, ee, _e_compose(q, m, ee))
        members.append(tuple(tuple(cut[i][j] for j in keep) for i in keep))
    return Subsemialgebra.from_entries(q, sub, members)


# -- primitive idempotent decomposition ------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """Primitive subunital idempotents of an algebra and the member sets they cut out."""

    algebra: Subsemialgebra
    idempotents: tuple  # QRel values, one per component
    components: tuple   # per idempotent, the sorted entry matrices of e A

    def component_map(self, entries):
        """The coordinates of one member across the components."""
        q = self.algebra.quantale
        return tuple(_e_compose(q, e.entries, entries) for e in self.idempotents)


def _support_indices(q, entries):
    b = q.bottom
    return frozenset(i for i, row in enumerate(entries) if any(v != b for v in row))


def primitive_idempotents(a):
    """Decompose a von Neumann algebra over a ZDF quantale along the atoms of
    its Boolean algebra of member supports."""
    q = a.quantale
    require_zdf(q, "primitive idempotent decomposition")
    if not is_von_neumann(a):
        raise ValueError("decomposition needs a von Neumann algebra")
    supports = {_support_indices(q, m) for m in a.members}
    supports.discard(frozenset())
    for s in supports:
        proj = subset_idempotent(q, a.carrier, [a.carrier.elements[i] for i in s])
        if proj.entries not in a.member_set:
            raise InvariantViolation(
                "support projection escaped the algebra; enumeration is broken")
    atoms = [s for s in supports
             if not any(t < s for t in supports if t)]
    atoms.sort(key=min)
    covered = set().union(*atoms) if atoms else set()
    if covered != set(range(a.carrier.size)):
        raise InvariantViolation("support atoms do not cover the carrier")
    idempotents = tuple(
        subset_idempotent(q, a.carrier, [a.carrier.elements[i] for i in sorted(s)])
        for s in atoms)
    components = tuple(
        tuple(sorted({_e_compose(q, e.entries, m) for m in a.members}))
        for e in idempotents)
    return Decomposition(a, idempotents, components)


def validate_decomposition(dec):
    """Orthogonality, join-to-unit, primitivity, and the product reassembly
    bijection; returns a list of failure strings (empty = all good)."""
    a = dec.algebra
    q = a.quantale
    n = a.carrier.size
    zero = _zero_entries(q, n)
    failures = []
    es = [e.entries for e in dec.idempotents]
    for i, e in enumerate(es):
        if _e_compose(q, e, e) != e:
            failures.append(f"idempotent {i} is not idempotent")
        for j in range(i + 1, len(es)):
            if _e_compose(q, e, es[j]) != zero:
                failures.append(f"idempotents {i},{j} not orthogonal")
    acc = zero
    for e in es:
        acc = _e_join(q, acc, e)
    if acc != _identity_entries(q, n):
        failures.append("idempotents do not join to the unit")
    subunital = set(subunital_idempotents(a))
    nontrivial = [p for p in subunital if p != zero]
    for i, e in enumerate(es):
        if e not in subunital:
            failures.append(f"idempotent {i} is not subunital in the algebra")
        for s, t in itertools.combinations(nontrivial, 2):
            if s != e and t != e and _e_join(q, s, t) == e:
                failures.append(f"idempotent {i} splits as a join of {s} and {t}")
    # product reassembly: member -> component tuple is a bijection onto the product
    seen = {}
    for m in a.members:
        key = dec.component_map(m)
        if key in seen:
            failures.append(f"members {seen[key]} and {m} agree on all components")
        seen[key] = m
    expected = 1
    for comp in dec.components:
        expected *= len(comp)
    if len(seen) != expected or len(a.members) != expected:
        failures.append("component map is not onto the product")
    return failures


# -- the full endomorphism space -------------------------------------------------------


class EndoSpace:
    """Hom(X, X) with operation tables and commutation masks.

    For small spaces everything is tabulated eagerly; past _TABLE_LIMIT the
    operations are memoized on demand, which keeps huge spaces usable for
    generator-bounded searches at the price of slower exhaustive scans.
    """

    def __init__(self, quantale, x):
        self.quantale = quantale
        self.carrier = x
        n = x.size
        self.size = hom_size(quantale, x)
        self.elements = []
        for flat in itertools.product(range(quantale.size), repeat=n * n):
            self.elements.append(tuple(flat[i * n:(i + 1) * n] for i in range(n)))
        self.index = {e: i for i, e in enumerate(self.elements)}
        self.zero_idx = self.index[_zero_entries(quantale, n)]
        self.id_idx = self.index[_identity_entries(quantale, n)]
        self.full_mask = (1 << self.size) - 1
        self.tabled = self.size <= _TABLE_LIMIT
        if self.tabled:
            self._build_tables()
        else:
            self._comp_memo = {}
            self._join_memo = {}
            self._dag_memo = {}
            self._smul_memo = {}
            self._comm_memo = {}

    def _build_tables(self):
        q = self.quantale
        els = self.elements
        n = len(els)
        idx = self.index
        self.comp_t = [[0] * n for _ in range(n)]
        self.join_t = [[0] * n for _ in range(n)]
        for i, a in enumerate(els):
            comp_row = self.comp_t[i]
            join_row = self.join_t[i]
            for j, b in enumerate(els):
                comp_row[j] = idx[_e_compose(q, a, b)]
                join_row[j] = idx[_e_join(q, a, b)]
        self.dag_t = [idx[_e_dagger(q, a)] for a in els]
        self.smul_t = [[idx[_e_scalar(q, s, a)] for a in els] for s in range(q.size)]
        comp = self.comp_t
        self.comm_t = []
        for i in range(n):
            mask = 0
            row = comp[i]
            for j in range(n):
                if row[j] == comp[j][i]:
                    mask |= 1 << j
            self.comm_t.append(mask)

    # operation access (index-level)

    def comp(self, i, j):
        if self.tabled:
            return self.comp_t[i][j]
        key = (i, j)
        v = self._comp_memo.get(key)
        if v is None:
            v = self.index[_e_compose(self.quantale, self.elements[i], self.elements[j])]
            self._comp_memo[key] = v
        return v

    def join(self, i, j):
        if self.tabled:
            return self.join_t[i][j]
        key = (min(i, j), max(i, j))
        v = self._join_memo.get(key)
        if v is None:
            v = self.index[_e_join(self.quantale, self.elements[i], self.elements[j])]
            self._join_memo[key] = v
        return v

    def dag(self, i):
        if self.tabled:
            return self.dag_t[i]
        v = self._dag_memo.get(i)
        if v is None:
            v = self.index[_e_dagger(self.quantale, self.elements[i])]
            self._dag_memo[i] = v
        return v

    def smul(self, s, i):
        if self.tabled:
            return self.smul_t[s][i]
        key = (s, i)
        v = self._smul_memo.get(key)
        if v is None:
            v = self.index[_e_scalar(self.quantale, s, self.elements[i])]
            self._smul_memo[key] = v
        return v

    def comm_mask(self, i):
        if self.tabled:
            return self.comm_t[i]
        v = self._comm_memo.get(i)
        if v is None:
            v = 0
            for j in range(self.size):
                if self.comp(i, j) == self.comp(j, i):
                    v |= 1 << j
            self._comm_memo[i] = v
        return v

    # mask utilities

    def mask_of(self, entries_iterable):
        m = 0
        for e in entries_iterable:
            m |= 1 << self.index[e]
        return m

    def bits(self, mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

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

    def close_mask(self, seed):
        members = _closure({self.zero_idx, self.id_idx, *seed}, self.dag, self.smul,
                           self.join, self.comp, range(self.quantale.size))
        m = 0
        for i in members:
            m |= 1 << i
        return m

    def algebra_from_mask(self, mask):
        return Subsemialgebra.from_entries(
            self.quantale, self.carrier,
            (self.elements[i] for i in self.bits(mask)))


_space_cache = {}


def get_endospace(q, x, bound=None):
    key = (q.fingerprint, x)
    space = _space_cache.get(key)
    if space is None:
        size = hom_size(q, x)
        limit = bound if bound is not None else hom_bound()
        if size > limit:
            raise EnumerationBoundExceeded(
                f"|Hom(X,X)| = {size} exceeds the bound {limit}; "
                "use generated mode on a smaller carrier or raise QSPEC_MAX_HOM_SIZE")
        space = EndoSpace(q, x)
        _space_cache[key] = space
    return space


# -- enumeration ------------------------------------------------------------------------


@dataclass
class AlgebraPoset:
    """Inclusion poset of enumerated algebras with covering edges."""

    quantale: Quantale
    carrier: FiniteSet
    algebras: tuple
    mode: str
    max_generators: int | None
    complete: bool
    leq_pairs: frozenset  # (i, j) with algebra i included in algebra j
    hasse: tuple

    def index_of(self, algebra_or_members):
        members = (algebra_or_members.members
                   if isinstance(algebra_or_members, Subsemialgebra)
                   else tuple(sorted(algebra_or_members)))
        for i, a in enumerate(self.algebras):
            if a.members == members:
                return i
        return None

    def spectra(self, kind):
        """The spectrum of one kind ("gelfand" or "prime") of every algebra, in
        poset order; computed once per poset."""
        memo = self.__dict__.setdefault("_spectra", {})
        if kind not in memo:
            from qspec import spectra  # spectra imports this module
            compute = {"gelfand": spectra.gelfand_spectrum,
                       "prime": spectra.prime_spectrum}.get(kind)
            if compute is None:
                raise ValueError(f"unknown spectrum kind {kind!r}")
            memo[kind] = tuple(compute(a) for a in self.algebras)
        return memo[kind]

    @cached_property
    def decompositions(self):
        """The primitive idempotent decomposition of every algebra, in poset
        order; computed once per poset."""
        return tuple(primitive_idempotents(a) for a in self.algebras)

    @property
    def trivial_index(self):
        return self.index_of(trivial_algebra(self.carrier, self.quantale))

    @property
    def diagonal_index(self):
        return self.index_of(diagonal_algebra(self.carrier, self.quantale))

    def inclusions(self):
        """Proper inclusion pairs (i, j), i strictly below j."""
        return sorted((i, j) for (i, j) in self.leq_pairs if i != j)

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
            "inclusions": [list(p) for p in self.inclusions()],
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


def _poset_from_masks(space, masks, mode, max_generators, complete):
    algebras = sorted((space.algebra_from_mask(m) for m in masks),
                      key=lambda a: (a.size, a.members))
    sets = [a.member_set for a in algebras]
    leq = set()
    for i, si in enumerate(sets):
        for j, sj in enumerate(sets):
            if si <= sj:
                leq.add((i, j))
    proper = {(i, j) for (i, j) in leq if i != j}
    hasse = tuple(sorted(
        (i, j) for (i, j) in proper
        if not any((i, k) in proper and (k, j) in proper for k in range(len(sets)))))
    return AlgebraPoset(space.quantale, space.carrier, tuple(algebras), mode,
                        max_generators, complete, frozenset(leq), hasse)


def enumerate_vn(x, q, mode="exhaustive", max_generators=2, bound=None):
    """Enumerate commutative unital star-closed von Neumann subsemialgebras.

    Exhaustive mode walks the Moore family of commutants (every double
    commutant is an intersection of single-element commutants), which yields
    exactly the von Neumann subsemialgebras; the commutative star-closed ones
    survive the filter.  Generated mode closes every generator set of at most
    max_generators elements and keeps the algebras that pass the same filter,
    force-including the trivial and diagonal algebras.
    """
    space = get_endospace(q, x, bound)
    if mode == "exhaustive":
        singles = sorted(set(space.comm_mask(i) for i in range(space.size)))
        family = {space.full_mask}
        frontier = [space.full_mask]
        while frontier:
            m = frontier.pop()
            for s in singles:
                nm = m & s
                if nm not in family:
                    family.add(nm)
                    frontier.append(nm)
        keep = [m for m in family
                if space.is_commutative_mask(m) and space.is_star_mask(m)]
        return _poset_from_masks(space, keep, "exhaustive", None, True)
    if mode == "generated":
        k = max_generators
        found = set()
        seen_closures = set()

        def consider(seed):
            cl = space.close_mask(seed)
            if cl in seen_closures:
                return
            seen_closures.add(cl)
            if (space.is_commutative_mask(cl) and space.is_star_mask(cl)
                    and space.double_commutant_mask(cl) == cl):
                found.add(cl)

        consider(())
        found.add(space.mask_of(diagonal_algebra(x, q).members))
        # Only sets whose elements and daggers commute pairwise can close to a
        # commutative star-closed algebra, so prune on that before closing.
        normals = [i for i in range(space.size)
                   if space.comm_mask(i) >> space.dag(i) & 1]

        def compatible(combo):
            for a, b in itertools.combinations(combo, 2):
                ca = space.comm_mask(a)
                if not (ca >> b & 1 and ca >> space.dag(b) & 1
                        and space.comm_mask(space.dag(a)) >> b & 1):
                    return False
            return True

        for size in range(1, k + 1):
            for combo in itertools.combinations(normals, size):
                if compatible(combo):
                    consider(combo)
        return _poset_from_masks(space, found, "generated", k, False)
    raise ValueError(f"unknown enumeration mode {mode!r}")
