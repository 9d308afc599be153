"""Gelfand and prime spectra of a subsemialgebra, and the maps between them.

A character is a unital *-semiring homomorphism from the algebra into the
scalar quantale (or into the two-element quantale TWO): it preserves zero,
binary join, composition, the unit and the involution.  A point of the prime
spectrum is a proper prime k*-ideal.  The kernel map sends characters onto
prime ideals and admits a section that assigns to each prime ideal its
two-valued indicator character.  Each is a point followed by a quantale
map: the kernel by the collapse of the scalars onto TWO, the indicator by
the embedding of TWO into the scalars.

Both spectra hold one point type, Character, and come from one search.  A
proper prime k*-ideal P is the kernel of exactly one homomorphism into TWO,
the map that is 0 on P and 1 off it: P is a proper down-set closed under
joins, so the map preserves zero, joins and the unit; P absorbs
multiplication and is prime, so a product lies outside P exactly when both
factors do; and P is star-closed.  Conversely the kernel of any homomorphism
into TWO is such an ideal, over any scalar quantale.  So the prime spectrum
is Hom(A, TWO), a prime point is stored as its character, its ideal is
``kernel_members()``, and restriction, lookup and the vanishing sets work
the same way on both spectra.  ``prime_ideal_scan`` finds the same ideals by
another route, the oracle that the kernel-bijection check holds them to.

Restriction along an inclusion and the two comparison maps are also built as
index tables over canonically ordered spectra; the pipeline reads those, and
the object-level maps stay as the public API and the tests' oracles.
"""

from __future__ import annotations

from array import array
from collections import namedtuple
from functools import cached_property
from operator import itemgetter

from qspec._homsearch import enumerate_homs
from qspec.quantale import TWO, require_zdf, two_embedding, zdf_collapse
from qspec.subalgebra import InvariantViolation, _typecode


class Character(namedtuple("Character", "algebra target values")):
    """A homomorphism from an algebra into a target quantale, stored as the
    tuple of target element indices over the algebra's canonical member order.
    A prime point is the character into TWO whose kernel is the ideal."""

    __slots__ = ()

    def value_of(self, entries):
        return self.values[self.algebra.member_pos[entries]]

    def kernel_members(self):
        b = self.target.bottom
        return tuple(m for m, v in zip(self.algebra.members, self.values) if v == b)

    def __repr__(self):
        ids = self.target.elements
        return f"Character({','.join(ids[v] for v in self.values)})"


class SpectrumSet(namedtuple("SpectrumSet", "algebra kind points")):
    """Canonically ordered points of one spectrum of one algebra; kind is
    "gelfand" or "prime"."""

    @property
    def size(self):
        return len(self.points)

    @cached_property
    def point_index(self):
        """Each point's index, keyed on its values; a repeated point keeps
        its first index."""
        out = {}
        for i, p in enumerate(self.points):
            out.setdefault(p.values, i)
        return out

    def index_of(self, point):
        i = self.point_index.get(point.values)
        if i is None or self.points[i] != point:
            raise ValueError(f"{point!r} is not a point of this spectrum")
        return i


# -- character enumeration -----------------------------------------------------


def _characters(algebra, target, below):
    """Every character of algebra into target, sorted by values.  below, when
    given, is a pair (sub, characters): a subalgebra and all its characters
    into target.  Each character of algebra restricts to one of sub's, so
    only the extensions of those are searched."""
    fixed, bases = (), ((),)
    if below is not None:
        sub, characters = below
        fixed = _positions(sub, algebra)
        bases = [c.values for c in characters]
    out = [Character(algebra, target, values)
           for values in enumerate_homs(algebra.semiring(), target.semiring(),
                                        fixed, bases)]
    out.sort(key=lambda c: c.values)
    return out


def gelfand_spectrum(algebra, below=None):
    """All characters into the scalar quantale, by exhaustive backtracking;
    below, a pair (subalgebra, its characters), limits the search to the
    extensions of those characters."""
    return SpectrumSet(algebra, "gelfand",
                       tuple(_characters(algebra, algebra.quantale, below)))


def prime_spectrum(algebra, below=None):
    """All proper prime k*-ideals, each as the character into TWO that is 0
    exactly on it, in descending order of values: the characters into TWO,
    searched as for gelfand_spectrum, with below as there."""
    return SpectrumSet(algebra, "prime",
                       tuple(reversed(_characters(algebra, TWO, below))))


def characters_to_two(algebra):
    """All homomorphisms into the two-element quantale, in ascending order
    of values: the prime spectrum's search, over any scalar quantale."""
    return _characters(algebra, TWO, None)


# -- the prime ideals without the character search ------------------------------


def prime_ideal_scan(algebra):
    """The proper prime k*-ideals by a scan over members, without the
    character search: each as its values in TWO, in descending order.

    In a finite join-semilattice a k-ideal is exactly the down-set of its
    join, so candidates are down-sets of star-fixed members absorbed by the
    algebra's top; primality and properness are then checked directly on
    the semiring tables.
    """
    sr = algebra.semiring()
    n, add, mul = sr.size, sr.add, sr.mul
    top = 0
    for i in range(n):
        top = add[top][i]
    out = []
    for m in range(n):
        down = [add[i][m] == m for i in range(n)]
        if mul[m][top] != m or sr.star[m] != m or down[sr.one]:
            continue
        if all(down[s] or down[t] or not down[mul[s][t]]
               for s in range(n) for t in range(s, n)):
            out.append(tuple(TWO.bottom if d else TWO.unit for d in down))
    return sorted(out, reverse=True)


# -- restriction along inclusions ---------------------------------------------------


def _check_inclusion(sub, sup):
    if sub.quantale != sup.quantale or sub.carrier != sup.carrier:
        raise ValueError("inclusion across different ambient objects")
    if not sub.member_set <= sup.member_set:
        raise ValueError("not an inclusion of algebras")


def _positions(sub, sup):
    """The positions of sub's members in sup's member order; the values of a
    point of sup there are the values of its restriction to sub."""
    _check_inclusion(sub, sup)
    return [sup.member_pos[m] for m in sub.members]


def restrict_character(rho, sub):
    """Restrict a character of the larger algebra to a subalgebra."""
    positions = _positions(sub, rho.algebra)
    return Character(sub, rho.target, tuple(map(rho.values.__getitem__, positions)))


def restrict_prime(point, sub):
    """Pull a prime point back along an inclusion: the preimage of its ideal,
    the intersection with sub, is the kernel of the restricted character."""
    return restrict_character(point, sub)


def _table(keys, spectrum, escaped):
    """The indices in spectrum of the points with the given keys, as an
    unsigned array; a key outside the spectrum raises InvariantViolation
    with the message escaped() returns."""
    try:
        return array(_typecode(spectrum.size), map(spectrum.point_index.__getitem__, keys))
    except KeyError:
        raise InvariantViolation(escaped()) from None


def restriction_table(sub_spectrum, sup_spectrum, edge=None):
    """The restriction map Spec(sup) -> Spec(sub) of one inclusion as an
    index table: cell p is the index in sub_spectrum of the restriction of
    point p of sup_spectrum.  A point of either kind restricts to its values
    at the positions of the smaller algebra's members.  edge, the poset
    indices (i, j) of the inclusion, only names it in the error."""
    positions = _positions(sub_spectrum.algebra, sup_spectrum.algebra)
    pick = (itemgetter(*positions) if len(positions) > 1
            else lambda values: tuple(values[k] for k in positions))
    keys = (pick(p.values) for p in sup_spectrum.points)
    return _table(keys, sub_spectrum, lambda: (
        f"restriction of a {sup_spectrum.kind} point escaped the spectrum"
        + (f" (algebras {edge[0]} <= {edge[1]})" if edge else "")))


def restriction_mismatch(poset, kind):
    """The first Hasse edge (i, j) whose stored table of one kind is not the
    projection of spectrum j onto spectrum i, or None.  Projections compose,
    so if there is none, every path composes to the restriction along every
    inclusion: the functor law."""
    values, tables = poset.spectra(kind), poset.restrictions(kind)
    return next((e for e in poset.hasse
                 if tables[e] != restriction_table(values[e[0]], values[e[1]], e)), None)


# -- comparison maps between the spectra ----------------------------------------------


def _then(values, f):
    """A point's values followed by the quantale map f."""
    mapping = f.mapping
    return tuple([mapping[v] for v in values])  # tuple(map(...)) is slower here


def character_kernel(rho):
    """The prime point of the members a character sends to bottom: rho
    followed by the collapse of its target onto TWO (ZDF scalars)."""
    require_zdf(rho.algebra.quantale, "the kernel comparison map")
    return Character(rho.algebra, TWO, _then(rho.values, zdf_collapse(rho.target)))


def character_from_prime(gamma):
    """The indicator character of a prime point, or of any character into
    TWO: gamma followed by the unique quantale embedding of TWO into the
    scalars.  The embedding is a quantale map whatever the scalars, so zero
    divisors do no harm here."""
    q = gamma.algebra.quantale
    return Character(gamma.algebra, q, _then(gamma.values, two_embedding(q)))


def kernel_table(gelfand, prime):
    """The kernel map of one algebra as an index table: cell r is the index
    in prime of the kernel of character r."""
    collapse = zdf_collapse(gelfand.algebra.quantale)
    keys = (_then(p.values, collapse) for p in gelfand.points)
    return _table(keys, prime, lambda: "the kernel of a character is not a "
                  f"prime point of algebra {gelfand.algebra.algebra_id}")


def indicator_table(prime, gelfand):
    """The indicator map of one algebra as an index table: cell p is the
    index in gelfand of the indicator character of prime ideal p."""
    keys = (character_from_prime(p).values for p in prime.points)
    return _table(keys, gelfand, lambda: "the indicator of a prime ideal is "
                  f"not a character of algebra {prime.algebra.algebra_id}")
