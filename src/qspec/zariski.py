"""Zariski topologies on the spectra, separation properties, and quotients.

Closed sets are generated by the vanishing sets of ideals: on the prime side
V(J) collects the prime ideals containing J, on the scalar side the characters
whose kernel contains J.  A prime point is the character into the two-element
quantale whose kernel is its ideal, so on either side V(J) is the set of
points whose kernel contains J.  Principal ideals suffice to generate the
family, since V(J) is the intersection of the V(<a>) over a in J.

Every finite space is an Alexandrov space: its closed sets are exactly the
down-sets of its specialization preorder, x <= y iff x lies in the closure of
{y} (Alexandroff 1937; McCord 1966).  Spaces are stored as that preorder, one
int bitset of point indices per point, so T0 is antisymmetry, T1 a discrete
order, continuity monotonicity and a homeomorphism an order isomorphism.  The
closed-set family is listed from the preorder only for the reports.
"""

import itertools
from collections import namedtuple

MAX_IDEAL_SCAN_MEMBERS = 14  # all_ideals refuses larger algebras


def _image(bits, mapping):
    """The bitset of mapping[x] over the points x set in bits."""
    out = 0
    for x, m in enumerate(mapping):
        if bits >> x & 1:
            out |= 1 << m
    return out


class FiniteTopology(namedtuple("FiniteTopology", "down")):
    """A finite space on the point indices 0..n-1 as its specialization
    preorder: bit x of down[y] is set iff x lies in the closure of {y}."""

    __slots__ = ()

    @property
    def size(self):
        return len(self.down)

    @property
    def closed_sets(self):
        """Every closed set, i.e. every union of point closures."""
        family = {0}
        for d in self.down:
            family |= {c | d for c in family}
        return frozenset(frozenset(x for x in range(self.size) if c >> x & 1)
                         for c in family)


SeparationReport = namedtuple("SeparationReport", "t0 t1 indistinguishable_pairs")


def closed_family_from_basis(size, basis):
    """The space on size points whose closed sets are generated by a basis
    of closed sets under finite unions and intersections.  Those form a
    finite ring of sets, the down-sets of x <= y iff x lies in every basis
    set containing y."""
    masks = [sum(1 << x for x in b) for b in basis]
    full = (1 << size) - 1
    down = []
    for y in range(size):
        d = full
        for m in masks:
            if m >> y & 1:
                d &= m
        down.append(d)
    return FiniteTopology(tuple(down))


def vanishing_set(spectrum, k):
    """Point indices where the algebra member at position k vanishes: the
    points whose kernel contains it (prime ideals containing it, characters
    killing it)."""
    b = spectrum.target.bottom
    return frozenset(i for i, p in enumerate(spectrum.points) if p[k] == b)


def zariski_topology(spectrum):
    """The Zariski topology on one spectrum, generated from the vanishing sets
    of the principal ideals (one per algebra member); built once per spectrum
    and stored on it."""
    cached = spectrum.__dict__.get("_zariski")
    if cached is None:
        basis = [vanishing_set(spectrum, k) for k in range(spectrum.algebra.size)]
        cached = closed_family_from_basis(spectrum.size, basis)
        spectrum.__dict__["_zariski"] = cached
    return cached


def all_ideals(algebra):
    """Every ideal (contains zero, join-closed, absorbs multiplication), as
    sorted tuples of member positions.  The ideal generated by m is m.A, the
    values of m's row of the multiplication table, as A is join-closed and
    composition distributes over joins; and every ideal is the elementwise
    join of the ideals its members generate, so the ideals are the closure
    of {0} under joining with one generated ideal at a time."""
    if algebra.size > MAX_IDEAL_SCAN_MEMBERS:
        raise ValueError(f"algebra too large for the ideal scan ({algebra.size} members)")
    sr = algebra.semiring()
    add = sr.add
    family = {frozenset({sr.zero})}
    for row in sr.mul:
        principal = set(row)
        family |= {frozenset(add[i][j] for i in ideal for j in principal)
                   for ideal in family}
    return sorted(tuple(sorted(ideal)) for ideal in family)


def vanishing_set_of_ideal(spectrum, ideal):
    """Point indices where every member of the ideal, a tuple of member
    positions, vanishes."""
    out = frozenset(range(spectrum.size))
    for k in ideal:
        out &= vanishing_set(spectrum, k)
    return out


def separation_report(topology):
    """Exact T0/T1 flags plus the indistinguishable point pairs (the points
    with equal closures).  No compactness flag: every finite space is
    compact."""
    down = topology.down
    indist = tuple((a, b) for a, b in itertools.combinations(range(topology.size), 2)
                   if down[a] == down[b])
    t1 = all(d == 1 << y for y, d in enumerate(down))
    return SeparationReport(t0=not indist, t1=t1, indistinguishable_pairs=indist)


def kolmogorov_quotient(topology):
    """Quotient by topological indistinguishability with the final topology;
    returns the quotient space and the point map.  The fibers are saturated,
    so the closure of a class is the image of the closure of any member."""
    classes = {}
    for d in topology.down:
        classes.setdefault(d, len(classes))
    mapping = tuple(classes[d] for d in topology.down)
    quotient = FiniteTopology(tuple(_image(d, mapping) for d in classes))
    return quotient, mapping


def zariski_quotient(spectrum):
    """kolmogorov_quotient of the Zariski topology on one spectrum; built
    once per spectrum and stored on it, next to the topology."""
    cached = spectrum.__dict__.get("_quotient")
    if cached is None:
        cached = kolmogorov_quotient(zariski_topology(spectrum))
        spectrum.__dict__["_quotient"] = cached
    return cached


def check_continuity(sub_spectrum, sup_spectrum, mapping):
    """Is the restriction map Spec(sup) -> Spec(sub), as the index table
    mapping, continuous for the Zariski topologies?  On finite spaces that is
    monotonicity: the image of a point's closure lies in its image's closure.
    That depends only on the pair of closures, so each distinct pair is
    tested once."""
    sub_down = zariski_topology(sub_spectrum).down
    pairs = {(d, sub_down[m]) for d, m in zip(zariski_topology(sup_spectrum).down, mapping)}
    return all(_image(d, mapping) | c == c for d, c in pairs)


def verify_quotient_xi(gelfand, prime, mapping):
    """Does the kernel map, given as its index table, exhibit the prime space
    as the Kolmogorov quotient of the scalar-valued spectrum?  It must be
    constant on the classes of zariski_quotient of the Gelfand space, and
    the map it induces on the quotient must be a homeomorphism onto the prime
    space: onto with the classes as its fibers, carrying every point closure
    onto the closure of the point's image.  The quotient is built from the
    Gelfand side alone, so the prime side is not consulted to make it."""
    quotient, classes = zariski_quotient(gelfand)
    induced = dict(zip(classes, mapping))
    if len(set(zip(classes, mapping))) != len(induced):  # not constant on a class
        return False
    return is_homeomorphism(quotient, zariski_topology(prime),
                            [induced[c] for c in range(quotient.size)])


def is_homeomorphism(t1, t2, point_map):
    """point_map: index of t1 -> index of t2; bijective and an isomorphism of
    the specialization preorders."""
    if sorted(point_map) != sorted(range(t2.size)) or t1.size != t2.size:
        return False
    return all(_image(d, point_map) == t2.down[m]
               for d, m in zip(t1.down, point_map))

