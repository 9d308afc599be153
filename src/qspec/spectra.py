"""Gelfand and prime spectra of a subsemialgebra, and the maps between them.

A character is a unital *-semiring homomorphism from the algebra into the
scalar quantale (or into the two-element quantale): it preserves zero, binary
join, composition, the unit and the involution.  A point of the prime
spectrum is a proper prime k*-ideal; in a finite algebra every k-ideal is the
down-set of its largest element, which reduces the enumeration to a scan over
members.  The kernel map sends characters onto prime ideals and admits a
section that assigns to each prime ideal its two-valued indicator character.

Restriction along an inclusion and the two comparison maps are also built as
index tables over canonically ordered spectra; the pipeline reads those, and
the object-level maps stay as the public API and the tests' oracles.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, ne

from qspec._homsearch import enumerate_homs, is_hom
from qspec.quantale import Quantale, builtin_quantale, require_zdf
from qspec.relations import _e_compose, _e_dagger, _e_join, _e_scalar
from qspec.subalgebra import (
    InvariantViolation, Subsemialgebra, _identity_entries, _zero_entries,
)

TWO = builtin_quantale("boolean2")


@dataclass(frozen=True)
class Character:
    """A homomorphism from an algebra into a target quantale, stored as the
    tuple of target element indices over the algebra's canonical member order."""

    algebra: Subsemialgebra
    target: Quantale
    values: tuple

    def value_of(self, entries):
        return self.values[self.algebra.member_pos[entries]]

    def kernel_members(self):
        b = self.target.bottom
        return tuple(m for m, v in zip(self.algebra.members, self.values) if v == b)

    def __repr__(self):
        ids = self.target.elements
        return f"Character({','.join(ids[v] for v in self.values)})"


@dataclass(frozen=True)
class PrimeIdeal:
    """A proper prime k*-ideal, stored as its sorted member matrices."""

    algebra: Subsemialgebra
    members: tuple

    @cached_property
    def member_set(self):
        return frozenset(self.members)

    def __contains__(self, entries):
        return entries in self.member_set

    def __repr__(self):
        return f"PrimeIdeal({len(self.members)} of {self.algebra.size} members)"


@dataclass(frozen=True)
class SpectrumSet:
    """Canonically ordered points of one spectrum of one algebra."""

    algebra: Subsemialgebra
    kind: str  # "gelfand" | "prime"
    points: tuple
    improper: tuple = ()  # prime-closed down-sets rejected only for containing the unit

    @property
    def size(self):
        return len(self.points)

    @cached_property
    def point_index(self):
        """Each point's index, keyed on its values (a character) or its
        member set (a prime ideal); a repeated point keeps its first index."""
        out = {}
        for i, p in enumerate(self.points):
            out.setdefault(_point_key(p), i)
        return out

    def index_of(self, point):
        i = self.point_index.get(_point_key(point))
        if i is None or self.points[i] != point:
            raise ValueError(f"{point!r} is not a point of this spectrum")
        return i


def _point_key(point):
    return point.values if isinstance(point, Character) else point.member_set


# -- character enumeration -----------------------------------------------------


def _characters(algebra, target):
    sr = algebra.semiring()
    out = [Character(algebra, target, values)
           for values in enumerate_homs(sr, target.semiring())]
    out.sort(key=lambda c: c.values)
    return out


def gelfand_spectrum(algebra):
    """All characters into the scalar quantale, by exhaustive backtracking."""
    return SpectrumSet(algebra, "gelfand", tuple(_characters(algebra, algebra.quantale)))


def characters_to_two(algebra):
    """All homomorphisms into the two-element quantale (needs a ZDF scalar
    quantale for the collapse onto {0, 1} to respect multiplication)."""
    require_zdf(algebra.quantale, "characters into the two-element quantale")
    return _characters(algebra, TWO)


def is_character(algebra, target, values):
    """Full homomorphism validation for one value table, including the derived
    scalar compatibility value(s * m) = value(s * id) . value(m)."""
    sr = algebra.semiring()
    if not is_hom(sr, target.semiring(), values):
        return False
    q = algebra.quantale
    pos = algebra.member_pos
    for s in range(q.size):
        scaled_unit = values[pos[_e_scalar(q, s, algebra.members[sr.one])]]
        for i, m in enumerate(algebra.members):
            if values[pos[_e_scalar(q, s, m)]] != target.mul(scaled_unit, values[i]):
                return False
    return True


# -- prime ideal enumeration -----------------------------------------------------


def prime_spectrum(algebra):
    """All proper prime k*-ideals.

    In a finite join-semilattice a k-ideal is exactly the down-set of its
    join, so candidates are down-sets of star-fixed members absorbed by the
    algebra's top; primality and properness are then checked directly.
    Prime-closed candidates that fail only properness are reported in the
    ``improper`` slot instead of being silently dropped.
    """
    sr = algebra.semiring()
    n = sr.size
    add, mul = sr.add, sr.mul

    def leq(i, j):
        return add[i][j] == j

    top = 0
    for i in range(n):
        top = add[top][i]
    points = []
    improper = []
    for m in range(n):
        if mul[m][top] != m:      # not absorbing, so the down-set is no ideal
            continue
        if sr.star[m] != m:       # not closed under the involution
            continue
        prime = True
        for s in range(n):
            if leq(s, m):
                continue
            for t in range(s, n):
                if not leq(t, m) and leq(mul[s][t], m):
                    prime = False
                    break
            if not prime:
                break
        if not prime:
            continue
        ideal_members = tuple(sorted(
            algebra.members[i] for i in range(n) if leq(i, m)))
        if leq(sr.one, m):
            improper.append(ideal_members)
            continue
        points.append(PrimeIdeal(algebra, ideal_members))
    member_order = algebra.members
    points.sort(key=lambda p: tuple(1 if mm in p.member_set else 0 for mm in member_order))
    return SpectrumSet(algebra, "prime", tuple(points), tuple(improper))


def is_prime_kstar_ideal(algebra, members):
    """Direct validation of one subset against the prime k*-ideal conditions."""
    q = algebra.quantale
    n = algebra.carrier.size
    s = frozenset(members)
    if not s <= algebra.member_set or _zero_entries(q, n) not in s:
        return False
    if _identity_entries(q, n) in s:
        return False
    for a in s:
        if _e_dagger(q, a) not in s:
            return False
        for b in s:
            if _e_join(q, a, b) not in s:
                return False
        for b in algebra.members:
            if _e_compose(q, a, b) not in s:
                return False
            joined = _e_join(q, a, b)
            if joined in s and b not in s:
                return False
    for a, b in itertools.combinations_with_replacement(algebra.members, 2):
        if _e_compose(q, a, b) in s and a not in s and b not in s:
            return False
    return True


# -- restriction along inclusions ---------------------------------------------------


def _check_inclusion(sub, sup):
    if sub.quantale != sup.quantale or sub.carrier != sup.carrier:
        raise ValueError("inclusion across different ambient objects")
    if not sub.member_set <= sup.member_set:
        raise ValueError("not an inclusion of algebras")


def restrict_character(rho, sub):
    """Restrict a character of the larger algebra to a subalgebra."""
    _check_inclusion(sub, rho.algebra)
    pos = rho.algebra.member_pos
    return Character(sub, rho.target,
                     tuple(rho.values[pos[m]] for m in sub.members))


def restrict_prime(ideal, sub):
    """Pull a prime ideal back along an inclusion (preimage, i.e. intersection)."""
    _check_inclusion(sub, ideal.algebra)
    return PrimeIdeal(sub, tuple(sorted(ideal.member_set & sub.member_set)))


def restrict_point(point, sub):
    if isinstance(point, Character):
        return restrict_character(point, sub)
    if isinstance(point, PrimeIdeal):
        return restrict_prime(point, sub)
    raise TypeError(f"not a spectrum point: {point!r}")


def _table(keys, spectrum, escaped):
    """The indices in spectrum of the points with the given keys, as an
    unsigned array; a key outside the spectrum raises InvariantViolation
    with the message escaped() returns."""
    code = "H" if spectrum.size <= 1 << 16 else "L"
    try:
        return array(code, map(spectrum.point_index.__getitem__, keys))
    except KeyError:
        raise InvariantViolation(escaped()) from None


def restriction_table(sub_spectrum, sup_spectrum, edge=None):
    """The restriction map Spec(sup) -> Spec(sub) of one inclusion as an
    index table: cell p is the index in sub_spectrum of the restriction of
    point p of sup_spectrum.  A character restricts to its values at the
    positions of the smaller algebra's members, a prime ideal to its
    intersection with the smaller algebra.  edge, the poset indices (i, j)
    of the inclusion, only names it in the error."""
    sub, sup = sub_spectrum.algebra, sup_spectrum.algebra
    _check_inclusion(sub, sup)
    if sup_spectrum.kind == "gelfand":
        positions = [sup.member_pos[m] for m in sub.members]
        pick = (itemgetter(*positions) if len(positions) > 1
                else lambda values: tuple(values[k] for k in positions))
        keys = (pick(rho.values) for rho in sup_spectrum.points)
    else:
        members = sub.member_set
        keys = (p.member_set & members for p in sup_spectrum.points)
    return _table(keys, sub_spectrum, lambda: (
        f"restriction of a {sup_spectrum.kind} point escaped the spectrum"
        + (f" (algebras {edge[0]} <= {edge[1]})" if edge else "")))


# -- comparison maps between the spectra ----------------------------------------------


def character_kernel(rho):
    """The prime ideal of members a character sends to bottom (ZDF scalars)."""
    require_zdf(rho.algebra.quantale, "the kernel comparison map")
    return PrimeIdeal(rho.algebra, tuple(sorted(rho.kernel_members())))


def character_from_prime(ideal):
    """The indicator character of a prime ideal's complement, valued in the
    scalar quantale through the unique embedding of the two-element quantale."""
    a = ideal.algebra
    require_zdf(a.quantale, "the indicator character of a prime ideal")
    q = a.quantale
    values = tuple(q.bottom if m in ideal.member_set else q.unit for m in a.members)
    return Character(a, q, values)


def kernel_table(gelfand, prime):
    """The kernel map of one algebra as an index table: cell r is the index
    in prime of the kernel of character r."""
    require_zdf(gelfand.algebra.quantale, "the kernel comparison map")
    keys = (frozenset(rho.kernel_members()) for rho in gelfand.points)
    return _table(keys, prime, lambda: "the kernel of a character is not a "
                  f"prime point of algebra {gelfand.algebra.algebra_id}")


def indicator_table(prime, gelfand):
    """The indicator map of one algebra as an index table: cell p is the
    index in gelfand of the indicator character of prime ideal p."""
    keys = (character_from_prime(p).values for p in prime.points)
    return _table(keys, gelfand, lambda: "the indicator of a prime ideal is "
                  f"not a character of algebra {prime.algebra.algebra_id}")


def functor_law_violation(tables):
    """The first chain i < j < k, in inclusion order, along which the
    restriction tables (i, j) -> row break r_ij . r_jk = r_ik, or None."""
    above = {}  # i -> every j with a table (i, j), ascending
    for i, j in sorted(tables):
        above.setdefault(i, []).append(j)
    for i, js in above.items():
        for j in js:
            r_ij = tables[i, j]
            for k in above.get(j, ()):
                r_ik = tables.get((i, k))
                if r_ik is not None and any(map(ne, map(r_ij.__getitem__, tables[j, k]),
                                                r_ik)):
                    return i, j, k
    return None


def character_from_two(gamma):
    """Post-compose a two-valued character with the unique quantale embedding
    of the two-element quantale into the scalars."""
    a = gamma.algebra
    require_zdf(a.quantale, "embedding a two-valued character")
    q = a.quantale
    embed = {TWO.bottom: q.bottom, TWO.unit: q.unit}
    return Character(a, q, tuple(embed[v] for v in gamma.values))
