"""Zariski topologies on the spectra, separation properties, and quotients.

Closed sets are generated by the vanishing sets of ideals: on the prime side
V(J) collects the prime ideals containing J, on the scalar side the characters
whose kernel contains J.  Principal ideals suffice to generate the family,
since V(J) is the intersection of the V(<a>) over a in J.

Every finite space is an Alexandrov space: its closed sets are exactly the
down-sets of its specialization preorder, x <= y iff x lies in the closure of
{y} (Alexandroff 1937; McCord 1966).  Spaces are stored as that preorder, one
int bitset of point indices per point, so T0 is antisymmetry, T1 a discrete
order, continuity monotonicity and a homeomorphism an order isomorphism.  The
closed-set family is listed from the preorder only for the reports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from qspec.quantale import require_zdf
from qspec.spectra import (
    Character, gelfand_spectrum, kernel_table, prime_spectrum, restriction_table,
)
from qspec.relations import _e_compose, _e_join
from qspec.subalgebra import _zero_entries


def _image(bits, mapping):
    """The bitset of mapping[x] over the points x set in bits."""
    out = 0
    for x, m in enumerate(mapping):
        if bits >> x & 1:
            out |= 1 << m
    return out


@dataclass(frozen=True)
class FiniteTopology:
    """A finite space on the point indices 0..n-1 as its specialization
    preorder: bit x of down[y] is set iff x lies in the closure of {y}."""

    points: tuple
    down: tuple

    @property
    def size(self):
        return len(self.points)

    @property
    def closed_sets(self):
        """Every closed set, i.e. every union of point closures."""
        family = {0}
        for d in self.down:
            family |= {c | d for c in family}
        return frozenset(frozenset(x for x in range(self.size) if c >> x & 1)
                         for c in family)


@dataclass(frozen=True)
class SeparationReport:
    t0: bool
    t1: bool
    compact: bool
    indistinguishable_pairs: tuple


def closed_family_from_basis(points, basis):
    """The space whose closed sets are generated by a basis of closed sets
    under finite unions and intersections.  Those form a finite ring of sets,
    the down-sets of x <= y iff x lies in every basis set containing y."""
    points = tuple(points)
    masks = [sum(1 << x for x in b) for b in basis]
    full = (1 << len(points)) - 1
    down = []
    for y in range(len(points)):
        d = full
        for m in masks:
            if m >> y & 1:
                d &= m
        down.append(d)
    return FiniteTopology(points, tuple(down))


def vanishing_set(spectrum, member_entries):
    """Point indices where one algebra member vanishes: prime ideals containing
    it, resp. characters killing it."""
    out = []
    for i, p in enumerate(spectrum.points):
        if isinstance(p, Character):
            if p.value_of(member_entries) == p.target.bottom:
                out.append(i)
        else:
            if member_entries in p.member_set:
                out.append(i)
    return frozenset(out)


def zariski_topology(algebra, kind, spectrum=None):
    """The Zariski topology on one spectrum, generated from the vanishing sets
    of the principal ideals (one per algebra member); built once per spectrum
    and stored on it."""
    if spectrum is None:
        spectrum = (prime_spectrum(algebra) if kind == "prime"
                    else gelfand_spectrum(algebra))
    cached = spectrum.__dict__.get("_zariski")
    if cached is None:
        basis = [vanishing_set(spectrum, m) for m in spectrum.algebra.members]
        cached = closed_family_from_basis(range(spectrum.size), basis)
        spectrum.__dict__["_zariski"] = cached
    return cached


def all_ideals(algebra, max_members=14):
    """Every ideal (contains zero, join-closed, absorbs multiplication).  The
    ideal generated by m is m.A, as A is join-closed and composition
    distributes over joins, and every ideal is the elementwise join of the
    ideals its members generate, so the ideals are the closure of {0} under
    joining with one generated ideal at a time."""
    if algebra.size > max_members:
        raise ValueError(f"algebra too large for the ideal scan ({algebra.size} members)")
    q = algebra.quantale
    zero = _zero_entries(q, algebra.carrier.size)
    members = algebra.members
    family = {frozenset({zero})}
    for m in members:
        principal = {_e_compose(q, m, a) for a in members}
        family |= {frozenset(_e_join(q, i, j) for i in ideal for j in principal)
                   for ideal in family}
    return sorted(tuple(sorted(ideal)) for ideal in family)


def vanishing_set_of_ideal(spectrum, ideal_members):
    out = frozenset(range(spectrum.size))
    for m in ideal_members:
        out &= vanishing_set(spectrum, m)
    return out


def separation_report(topology):
    """Exact T0/T1/compactness flags plus the indistinguishable point pairs
    (the points with equal closures)."""
    down = topology.down
    indist = tuple((a, b) for a, b in itertools.combinations(range(topology.size), 2)
                   if down[a] == down[b])
    t1 = all(d == 1 << y for y, d in enumerate(down))
    # The open family of a finite space is finite, so any cover is its own
    # finite subcover: every finite space is compact.
    return SeparationReport(t0=not indist, t1=t1, compact=True,
                            indistinguishable_pairs=indist)


def kolmogorov_quotient(topology):
    """Quotient by topological indistinguishability with the final topology;
    returns the quotient space and the point map.  The fibers are saturated,
    so the closure of a class is the image of the closure of any member."""
    classes = {}
    for d in topology.down:
        classes.setdefault(d, len(classes))
    mapping = tuple(classes[d] for d in topology.down)
    quotient = FiniteTopology(tuple(range(len(classes))),
                              tuple(_image(d, mapping) for d in classes))
    return quotient, mapping


def check_continuity(sub, sup, kind, sub_spectrum=None, sup_spectrum=None):
    """Is the restriction map Spec(sup) -> Spec(sub) continuous for the
    Zariski topologies?  On finite spaces that is monotonicity: the image of
    every point closure lies in the closure of the point's image."""
    if sub_spectrum is None:
        sub_spectrum = prime_spectrum(sub) if kind == "prime" else gelfand_spectrum(sub)
    if sup_spectrum is None:
        sup_spectrum = prime_spectrum(sup) if kind == "prime" else gelfand_spectrum(sup)
    t_sub = zariski_topology(sub, kind, sub_spectrum)
    t_sup = zariski_topology(sup, kind, sup_spectrum)
    mapping = restriction_table(sub_spectrum, sup_spectrum)
    return all(_image(d, mapping) | t_sub.down[m] == t_sub.down[m]
               for d, m in zip(t_sup.down, mapping))


def verify_quotient_xi(algebra, gelfand=None, prime=None):
    """Does the kernel map exhibit the prime space as the Kolmogorov quotient
    of the scalar-valued spectrum?  Checks that it is onto, that its fibers
    are exactly the indistinguishability classes, and that it carries every
    point closure onto the closure of the point's image.  Given the first
    two, the third says that the map is continuous and the prime topology
    final for it."""
    require_zdf(algebra.quantale, "the quotient comparison")
    if gelfand is None:
        gelfand = gelfand_spectrum(algebra)
    if prime is None:
        prime = prime_spectrum(algebra)
    g_down = zariski_topology(algebra, "gelfand", gelfand).down
    p_down = zariski_topology(algebra, "prime", prime).down
    mapping = kernel_table(gelfand, prime)
    if set(mapping) != set(range(prime.size)):
        return False
    # fibers are classes iff (closure, image) pairs match closures one to one
    if not len(set(zip(g_down, mapping))) == len(set(g_down)) == prime.size:
        return False
    return all(_image(d, mapping) == p_down[m] for d, m in zip(g_down, mapping))


def is_homeomorphism(t1, t2, point_map):
    """point_map: index of t1 -> index of t2; bijective and an isomorphism of
    the specialization preorders."""
    if sorted(point_map) != sorted(range(t2.size)) or t1.size != t2.size:
        return False
    return all(_image(d, point_map) == t2.down[m]
               for d, m in zip(t1.down, point_map))


def topology_to_json(topology, labels=None):
    labels = labels or [str(p) for p in topology.points]
    closed = sorted(topology.closed_sets, key=lambda c: (len(c), sorted(c)))
    return {
        "points": list(labels),
        "closed_sets": [[labels[p] for p in sorted(c)] for c in closed],
    }
