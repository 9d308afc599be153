"""Zariski topologies on the spectra, separation properties, and quotients.

Closed sets are generated by the vanishing sets of ideals: on the prime side
V(J) collects the prime ideals containing J, on the scalar side the characters
whose kernel contains J.  Principal ideals suffice to generate the family,
since V(J) is the intersection of the V(<a>) over a in J.  Spaces are stored
as explicit closed-set families; on finite carriers that costs nothing and
keeps every check a literal transcription of the definitions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from qspec.quantale import require_zdf
from qspec.spectra import (
    Character, character_kernel, gelfand_spectrum, prime_spectrum,
    restrict_point,
)
from qspec.relations import _e_compose, _e_join
from qspec.subalgebra import _zero_entries


@dataclass(frozen=True)
class FiniteTopology:
    """A finite space as its full family of closed sets (point indices)."""

    points: tuple
    closed_sets: frozenset

    @property
    def size(self):
        return len(self.points)

    def open_sets(self):
        full = frozenset(self.points)
        return frozenset(full - c for c in self.closed_sets)

    def is_closed(self, subset):
        return frozenset(subset) in self.closed_sets


@dataclass(frozen=True)
class SeparationReport:
    t0: bool
    t1: bool
    compact: bool
    indistinguishable_pairs: tuple


def closed_family_from_basis(points, basis):
    """Close a basis of closed sets under finite unions and intersections."""
    family = {frozenset(b) for b in basis}
    family.add(frozenset())
    family.add(frozenset(points))
    while True:
        fresh = set()
        for a, b in itertools.combinations(family, 2):
            u = a | b
            if u not in family:
                fresh.add(u)
            i = a & b
            if i not in family:
                fresh.add(i)
        if not fresh:
            return FiniteTopology(tuple(points), frozenset(family))
        family |= fresh


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
    of the principal ideals (one per algebra member)."""
    if spectrum is None:
        spectrum = (prime_spectrum(algebra) if kind == "prime"
                    else gelfand_spectrum(algebra))
    basis = [vanishing_set(spectrum, m) for m in algebra.members]
    return closed_family_from_basis(range(spectrum.size), basis)


def all_ideals(algebra, max_members=14):
    """Every ideal (contains zero, join-closed, absorbs multiplication), by
    subset scan; only sensible for small algebras."""
    if algebra.size > max_members:
        raise ValueError(f"algebra too large for the ideal scan ({algebra.size} members)")
    q = algebra.quantale
    zero = _zero_entries(q, algebra.carrier.size)
    members = algebra.members
    out = []
    rest = [m for m in members if m != zero]
    for bits in range(1 << len(rest)):
        sub = {zero} | {rest[i] for i in range(len(rest)) if bits >> i & 1}
        ok = True
        for a in sub:
            for b in sub:
                if _e_join(q, a, b) not in sub:
                    ok = False
                    break
            if not ok:
                break
            for b in members:
                if _e_compose(q, a, b) not in sub:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.append(tuple(sorted(sub)))
    return out


def vanishing_set_of_ideal(spectrum, ideal_members):
    out = frozenset(range(spectrum.size))
    for m in ideal_members:
        out &= vanishing_set(spectrum, m)
    return out


def separation_report(topology):
    """Exact T0/T1/compactness flags plus the indistinguishable point pairs."""
    pts = topology.points
    closed_list = sorted(topology.closed_sets, key=lambda c: (len(c), sorted(c)))
    signature = {p: tuple(p in c for c in closed_list) for p in pts}
    indist = tuple((a, b) for a, b in itertools.combinations(pts, 2)
                   if signature[a] == signature[b])
    t0 = not indist
    t1 = all(frozenset((p,)) in topology.closed_sets for p in pts)
    # The open family of a finite space is finite, so any cover is its own
    # finite subcover; it remains to see that the opens do cover the space.
    opens = topology.open_sets()
    compact = frozenset(pts) == frozenset().union(*opens)
    return SeparationReport(t0=t0, t1=t1, compact=compact,
                            indistinguishable_pairs=indist)


def kolmogorov_quotient(topology):
    """Quotient by topological indistinguishability with the final topology;
    returns the quotient space and the point map."""
    pts = topology.points
    closed = sorted(topology.closed_sets, key=lambda c: (len(c), sorted(c)))
    signature = {p: tuple(p in c for c in closed) for p in pts}
    classes = []
    mapping = {}
    for p in pts:
        for ci, rep in enumerate(classes):
            if signature[rep] == signature[p]:
                mapping[p] = ci
                break
        else:
            mapping[p] = len(classes)
            classes.append(p)
    new_points = tuple(range(len(classes)))
    new_closed = set()
    for subset_bits in range(1 << len(classes)):
        subset = frozenset(i for i in new_points if subset_bits >> i & 1)
        preimage = frozenset(p for p in pts if mapping[p] in subset)
        if preimage in topology.closed_sets:
            new_closed.add(subset)
    quotient = FiniteTopology(new_points, frozenset(new_closed))
    return quotient, tuple(mapping[p] for p in pts)


def check_continuity(sub, sup, kind, sub_spectrum=None, sup_spectrum=None):
    """Is the restriction map Spec(sup) -> Spec(sub) continuous for the
    Zariski topologies?  Checked exhaustively over closed sets."""
    if sub_spectrum is None:
        sub_spectrum = prime_spectrum(sub) if kind == "prime" else gelfand_spectrum(sub)
    if sup_spectrum is None:
        sup_spectrum = prime_spectrum(sup) if kind == "prime" else gelfand_spectrum(sup)
    t_sub = zariski_topology(sub, kind, sub_spectrum)
    t_sup = zariski_topology(sup, kind, sup_spectrum)
    mapping = [sub_spectrum.index_of(restrict_point(p, sub))
               for p in sup_spectrum.points]
    for c in t_sub.closed_sets:
        preimage = frozenset(i for i, m in enumerate(mapping) if m in c)
        if preimage not in t_sup.closed_sets:
            return False
    return True


def verify_quotient_xi(algebra, gelfand=None, prime=None):
    """Does the kernel map exhibit the prime space as the Kolmogorov quotient
    of the scalar-valued spectrum?  Checks surjectivity, continuity, finality,
    and that the fibers are exactly the indistinguishability classes."""
    require_zdf(algebra.quantale, "the quotient comparison")
    if gelfand is None:
        gelfand = gelfand_spectrum(algebra)
    if prime is None:
        prime = prime_spectrum(algebra)
    t_g = zariski_topology(algebra, "gelfand", gelfand)
    t_p = zariski_topology(algebra, "prime", prime)
    mapping = [prime.index_of(character_kernel(rho)) for rho in gelfand.points]
    if set(mapping) != set(range(prime.size)):
        return False
    for c in t_p.closed_sets:
        preimage = frozenset(i for i, m in enumerate(mapping) if m in c)
        if preimage not in t_g.closed_sets:
            return False
    for bits in range(1 << prime.size):
        subset = frozenset(i for i in range(prime.size) if bits >> i & 1)
        preimage = frozenset(i for i, m in enumerate(mapping) if m in subset)
        if preimage in t_g.closed_sets and subset not in t_p.closed_sets:
            return False
    report = separation_report(t_g)
    fibers = {}
    for i, m in enumerate(mapping):
        fibers.setdefault(m, set()).add(i)
    indist = {frozenset(pair) for pair in report.indistinguishable_pairs}
    for fiber in fibers.values():
        for a, b in itertools.combinations(sorted(fiber), 2):
            if frozenset((a, b)) not in indist:
                return False
    for pair in indist:
        a, b = tuple(pair)
        if mapping[a] != mapping[b]:
            return False
    return True


def is_homeomorphism(t1, t2, point_map):
    """point_map: index of t1 -> index of t2; bijective with matching closed sets."""
    if sorted(point_map) != sorted(range(t2.size)) or t1.size != t2.size:
        return False
    image = {frozenset(point_map[p] for p in c) for c in t1.closed_sets}
    return image == set(t2.closed_sets)


def topology_to_json(topology, labels=None):
    labels = labels or [str(p) for p in topology.points]
    closed = sorted(topology.closed_sets, key=lambda c: (len(c), sorted(c)))
    return {
        "points": list(labels),
        "closed_sets": [[labels[p] for p in sorted(c)] for c in closed],
    }
