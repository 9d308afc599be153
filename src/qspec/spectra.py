"""Gelfand and prime spectra of a subsemialgebra, and the maps between them.

A character is a unital *-semiring homomorphism from the algebra into the
scalar quantale (or into the two-element quantale TWO): it preserves zero,
binary join, composition, the unit and the involution.  A point of the prime
spectrum is a proper prime k*-ideal.  The kernel map sends characters onto
prime ideals and admits a section that assigns to each prime ideal its
two-valued indicator character.  Each is a point followed by a quantale
map: the kernel by the collapse of the scalars onto TWO, the indicator by
the embedding of TWO into the scalars.

A point of either spectrum is a character, stored as its tuple of value
indices over the algebra's canonical member order; the SpectrumSet holding
it fixes the algebra and the target.  A proper prime k*-ideal P is the
kernel of exactly one homomorphism into TWO, the map that is 0 on P and 1
off it: P is a proper down-set closed under joins, so the map preserves
zero, joins and the unit; P absorbs multiplication and is prime, so a
product lies outside P exactly when both factors do; and P is star-closed.
Conversely the kernel of any homomorphism into TWO is such an ideal, over
any scalar quantale.  So the prime spectrum is Hom(A, TWO), a prime point is
stored as its character, its ideal is ``SpectrumSet.kernel_members(point)``,
and restriction, lookup and the vanishing sets work the same way on both
spectra.

Both spectra come from one search, into the scalars.  The embedding e of
TWO into the scalars (0 to bottom, 1 to unit) is an injective quantale map
for every quantale: bottom != unit, as the quantale is non-trivial; bottom
is least and absorbs, and unit.unit = unit; the involution preserves joins,
so it fixes bottom, and unit* = unit.  So e is an isomorphism onto the
sub-*-semiring {bottom, unit}, and through it Hom(A, TWO) is the set of
Gelfand characters valued in {bottom, unit}: ``prime_spectrum`` reads the
prime spectrum off the Gelfand spectrum.  ``prime_ideal_scan`` finds the
same ideals by another route, the oracle that the kernel-bijection check
holds them to; so that check also covers the {bottom, unit}-valued part of
the Gelfand search, over every quantale.

Restriction along an inclusion and the two comparison maps are also built as
index tables over canonically ordered spectra; the pipeline reads those, and
the object-level maps, which take the algebra and the target as arguments,
stay as the public API and the tests' oracles.
"""

from array import array
from collections import namedtuple
from functools import cached_property, partial

from qspec._homsearch import _typecode, enumerate_homs, tuple_getter
from qspec.quantale import TWO, InvariantViolation, require_zdf, two_embedding, zdf_collapse


class SpectrumSet(namedtuple("SpectrumSet", "algebra kind points")):
    """Canonically ordered points of one spectrum of one algebra; kind is
    "gelfand" (characters into the scalars) or "prime" (characters into
    TWO).  Each point is its tuple of target element indices over the
    algebra's member order."""

    @property
    def size(self):
        return len(self.points)

    @property
    def target(self):
        return self.algebra.quantale if self.kind == "gelfand" else TWO

    def kernel_members(self, point):
        """The members the point sends to the target's bottom: for a prime
        point, its ideal."""
        b = self.target.bottom
        return tuple(m for m, v in zip(self.algebra.members, point) if v == b)

    @cached_property
    def point_index(self):
        """Each point's index; a repeated point keeps its first index."""
        out = {}
        for i, p in enumerate(self.points):
            out.setdefault(p, i)
        return out

    def index_of(self, point):
        i = self.point_index.get(point)
        if i is None:
            raise ValueError(f"{_written(self, point)} is not a point of this spectrum")
        return i


def _written(spectrum, point):
    """A point of spectrum by its values in the target's labels, for an error."""
    labels = spectrum.target.elements
    return f"({','.join(labels[v] for v in point)})"


# -- character enumeration -----------------------------------------------------


def _characters(algebra, target, below):
    """Every character of algebra into target, sorted.  below, when given,
    is a pair (sub, characters): a subalgebra and all its characters into
    target.  Each character of algebra restricts to one of sub's, so only
    the extensions of those are searched."""
    fixed, bases = (), ((),)
    if below is not None:
        sub, bases = below
        fixed = _positions(sub, algebra)
    return sorted(enumerate_homs(algebra.semiring(), target.semiring(), fixed, bases))


def gelfand_spectrum(algebra, below=None):
    """All characters into the scalar quantale, by exhaustive backtracking;
    below, a pair (subalgebra, its characters), limits the search to the
    extensions of those characters."""
    return SpectrumSet(algebra, "gelfand",
                       tuple(_characters(algebra, algebra.quantale, below)))


def prime_spectrum(gelfand):
    """All proper prime k*-ideals of the Gelfand spectrum's algebra, each as
    the character into TWO that is 0 exactly on it, in descending order of
    values: the characters valued in {bottom, unit}, with bottom read as
    TWO's bottom and unit as TWO's unit (module docstring)."""
    q = gelfand.algebra.quantale
    to_two = {q.bottom: TWO.bottom, q.unit: TWO.unit}
    two_valued = set(to_two).issuperset
    points = [tuple(map(to_two.__getitem__, p)) for p in gelfand.points if two_valued(p)]
    return SpectrumSet(gelfand.algebra, "prime", tuple(sorted(points, reverse=True)))


def characters_to_two(algebra):
    """All homomorphisms into the two-element quantale, in ascending order,
    by their own search over any scalar quantale: the oracle of
    prime_spectrum."""
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


def _positions(sub, sup):
    """The positions of sub's members in sup's member order; the values of a
    point of sup there are the values of its restriction to sub.  A member
    of sub that sup lacks raises ValueError: no inclusion."""
    if sub.quantale != sup.quantale or sub.carrier != sup.carrier:
        raise ValueError("inclusion across different ambient objects")
    try:
        return [sup.member_pos[m] for m in sub.members]
    except KeyError:
        raise ValueError("not an inclusion of algebras") from None


def restrict_character(rho, algebra, sub):
    """Restrict a character of algebra to its subalgebra sub."""
    return tuple(map(rho.__getitem__, _positions(sub, algebra)))


# Pull a prime point of algebra back along an inclusion: the preimage of its
# ideal, the intersection with sub, is the kernel of the restricted character.
restrict_prime = restrict_character


def _table(source, f, spectrum, failure):
    """The indices in spectrum of f of each point of source, as an unsigned
    array.  When some f(point) is not in spectrum, InvariantViolation carries
    failure formatted with source's kind and the first such point, written
    by its labels; it names no algebra, which the poset does."""
    index = spectrum.point_index
    try:
        return array(_typecode(spectrum.size), map(index.__getitem__, map(f, source.points)))
    except KeyError:
        point = next(p for p in source.points if f(p) not in index)
        raise InvariantViolation(failure.format(kind=source.kind,
                                                point=_written(source, point))) from None


def restriction_table(sub_spectrum, sup_spectrum):
    """The restriction map Spec(sup) -> Spec(sub) of one inclusion as an
    index table: cell p is the index in sub_spectrum of the restriction of
    point p of sup_spectrum.  A point of either kind restricts to its values
    at the positions of the smaller algebra's members."""
    restrict = tuple_getter(_positions(sub_spectrum.algebra, sup_spectrum.algebra))
    return _table(sup_spectrum, restrict, sub_spectrum, "the restriction of {kind} point "
                  "{point} is not a point of the smaller algebra's spectrum")


def restriction_mismatch(poset, kind):
    """The first Hasse edge (i, j) whose stored table of one kind is not the
    projection of spectrum j onto spectrum i, or None.  Projections compose,
    so if there is none, every path composes to the restriction along every
    inclusion: the functor law."""
    values, tables = poset.spectra(kind), poset.restrictions(kind)
    return next((e for e in poset.hasse
                 if tables[e] != restriction_table(values[e[0]], values[e[1]])), None)


# -- comparison maps between the spectra ----------------------------------------------


def _then(f, values):
    """A point's values followed by the quantale map f."""
    mapping = f.mapping
    return tuple([mapping[v] for v in values])  # tuple(map(...)) is slower here


def character_kernel(rho, algebra, target):
    """The prime point of the members a character of algebra into target
    sends to bottom: rho followed by the collapse of target onto TWO (ZDF
    scalars)."""
    require_zdf(algebra.quantale, "the kernel comparison map")
    return _then(zdf_collapse(target), rho)


def character_from_prime(gamma, algebra):
    """The indicator character of a prime point of algebra, or of any
    character into TWO: gamma followed by the unique quantale embedding of
    TWO into the scalars.  The embedding is a quantale map whatever the
    scalars, so zero divisors do no harm here."""
    return _then(two_embedding(algebra.quantale), gamma)


def kernel_table(gelfand, prime):
    """The kernel map of one algebra as an index table: cell r is the index
    in prime of the kernel of character r."""
    collapse = partial(_then, zdf_collapse(gelfand.algebra.quantale))
    return _table(gelfand, collapse, prime,
                  "the kernel of character {point} is not a prime point")


def indicator_table(prime, gelfand):
    """The indicator map of one algebra as an index table: cell p is the
    index in gelfand of the indicator character of prime ideal p."""
    indicator = partial(character_from_prime, algebra=prime.algebra)
    return _table(prime, indicator, gelfand,
                  "the indicator of prime point {point} is not a character")
