"""Spectral presheaves over the algebra poset and the contextuality verdict.

The spectrum assignment is contravariantly functorial over the inclusion
poset; a global section is one spectrum point per algebra, consistent under
every restriction.  A carrier is contextual precisely when the scalar-valued
spectrum presheaf has no global section.  Over a zero-divisor-free quantale
the prime presheaf answers the same existence question, and every carrier
point induces a canonical prime section through the idempotent decomposition.

A presheaf is read from the poset's restriction tables, one per Hasse edge:
restriction is projection and projections compose, so a section natural on
every edge is natural on every inclusion.  Sections are searched over the
maximal algebras only, since every other algebra lies below one and takes
its value restricted.  This is the measurement-cover view of Abramsky and
Brandenburger (New J. Phys. 13, 2011).  The generic constraint solver in
``qspec.csp`` is the tests' oracle for this search.
"""

from __future__ import annotations

from collections import namedtuple

from qspec.quantale import is_zdf, require_zdf
from qspec.spectra import TWO
from qspec.subalgebra import InvariantViolation, _bits, enumerate_vn


class Presheaf(namedtuple("Presheaf", "poset kind values restrictions")):
    """Materialized spectrum presheaf: one point set per algebra plus the
    restriction table of every Hasse edge, which compose to every other.
    values holds the SpectrumSet of each poset index; restrictions maps each
    Hasse edge (sub_idx, sup_idx) to its row, sup point -> sub point."""

    __slots__ = ()


class Verdict(namedtuple("Verdict", "carrier quantale mode gelfand_sections "
                                    "prime_sections canonical_by_point element_map")):
    """The contextuality verdict of one carrier.  Each section is a choice
    tuple, one point index per algebra; prime_sections is None over scalars
    with zero divisors; element_map sends a prime section to its carrier
    point."""

    __slots__ = ()

    @property
    def zdf(self):
        """The scalars are zero-divisor-free: the prime route ran."""
        return self.prime_sections is not None

    @property
    def notes(self):
        return () if self.zdf else (
            "quantale has zero divisors: decided by the direct scalar-valued "
            "search only; the kernel/indicator comparison maps are unavailable",)

    @property
    def contextual(self):
        """No global section of the scalar-valued presheaf."""
        return not self.gelfand_sections

    def to_json(self):
        return {
            "carrier": [str(p) for p in self.carrier],
            "quantale": self.quantale,
            "mode": self.mode,
            "zdf": self.zdf,
            "hypotheses_met": self.zdf,
            "contextual": self.contextual,
            "section_count": len(self.gelfand_sections),
            "sections": [list(s) for s in self.gelfand_sections],
            "prime_section_count": (None if self.prime_sections is None
                                    else len(self.prime_sections)),
            "prime_sections": (None if self.prime_sections is None
                               else [list(s) for s in self.prime_sections]),
            "canonical_sections": {str(k): list(v)
                                   for k, v in sorted(self.canonical_by_point.items(),
                                                      key=lambda kv: str(kv[0]))},
            "element_map": {",".join(map(str, k)): str(v)
                            for k, v in sorted(self.element_map.items())},
            "notes": list(self.notes),
        }


def build_presheaf(poset, kind):
    """The presheaf of one kind: the poset's spectra and Hasse edge tables."""
    return Presheaf(poset, kind, poset.spectra(kind), poset.restrictions(kind))


def global_sections(sheaf):
    """Every global section, as a tuple of point indices in poset order, in
    lexicographic order.

    Depth-first search that branches on the maximal algebras, those with the
    largest down-set first.  A choice forces values down the Hasse edges,
    and a forced value that conflicts with one already set backtracks.  Each
    table is checked when its larger algebra is set, so the search is exact
    even for tables that do not compose.  At a maximal algebra only the
    values that agree with the largest algebra an earlier choice has set
    below it are tried, through the tables composed along one path to it.
    """
    values = sheaf.values
    n = len(values)
    below = [[] for _ in range(n)]  # below[j]: (i, table of the edge (i, j))
    for (i, j), row in sheaf.restrictions.items():
        below[j].append((i, row))
    down = {}  # a -> bitset of the algebras strictly below a

    def down_of(a):
        if a not in down:
            down[a] = 0
            for i, _ in below[a]:
                down[a] |= 1 << i | down_of(i)
        return down[a]

    # Every algebra lies below a maximal one, and a maximal one is never
    # forced, so the search sets every algebra by branching on these alone.
    order = sorted(set(range(n)).difference(i for i, _ in sheaf.restrictions),
                   key=lambda a: (-down_of(a).bit_count(), a))
    anchors = {}  # a -> (i, fibers of the composite table from a down to i)
    set_before = 0
    for a in order:
        if shared := down_of(a) & set_before:
            i = max(_bits(shared), key=lambda e: (values[e].size, e))
            row, j = range(values[a].size), a
            while j != i:
                j, table = next((c, t) for c, t in below[j] if c == i or down_of(c) >> i & 1)
                row = [table[v] for v in row]
            fibers = {}
            for v, w in enumerate(row):
                fibers.setdefault(w, []).append(v)
            anchors[a] = (i, fibers)
        set_before |= down_of(a)
    choice = [None] * n
    trail = []  # algebras set since the search began, in order
    stack = []  # (position in order, candidate values, next candidate, trail mark)
    found = []

    def assign(a, v):
        choice[a] = v
        trail.append(a)
        todo = [a]
        while todo:
            j = todo.pop()
            for i, row in below[j]:
                w = row[choice[j]]
                if choice[i] is None:
                    choice[i] = w
                    trail.append(i)
                    todo.append(i)
                elif choice[i] != w:
                    return False
        return True

    def descend(pos):
        """Open the maximal algebra at pos, or keep a complete assignment."""
        if pos == len(order):
            found.append(tuple(choice))
            return
        a = order[pos]
        anchor = anchors.get(a)
        candidates = (range(values[a].size) if anchor is None
                      else anchor[1].get(choice[anchor[0]], ()))
        stack.append((pos, candidates, 0, len(trail)))

    descend(0)
    while stack:
        pos, candidates, k, mark = stack.pop()
        while len(trail) > mark:
            choice[trail.pop()] = None
        if k < len(candidates):
            stack.append((pos, candidates, k + 1, mark))
            if assign(order[pos], candidates[k]):
                descend(pos + 1)
    found.sort()
    return found


# -- canonical sections from carrier points ---------------------------------------


def canonical_section(point, sheaf):
    """The prime section induced by a carrier point: in every algebra, pick the
    complement ideal of the unique component whose idempotent supports the
    point, i.e. the members that idempotent multiplies to zero.  Its prime
    point is 0 at those members' positions and 1 elsewhere."""
    if sheaf.kind != "prime":
        raise ValueError("canonical sections live in the prime presheaf")
    poset = sheaf.poset
    require_zdf(poset.quantale, "canonical sections")
    if point not in poset.carrier.elements:
        raise ValueError(f"unknown carrier point {point!r}")
    choice = []
    for idx, dec in enumerate(poset.decompositions):
        owners = [i for i, pts in enumerate(dec.supports) if point in pts]
        if len(owners) != 1:
            raise InvariantViolation(
                f"carrier point {point!r} not in exactly one component of algebra {idx}")
        sr = dec.algebra.semiring()
        row = sr.mul[_member_index(dec, idx, dec.idempotents[owners[0]])]
        values = tuple(TWO.bottom if v == sr.zero else TWO.unit for v in row)
        try:
            choice.append(sheaf.values[idx].index_of(values))
        except ValueError as exc:
            raise InvariantViolation(f"A{idx}: canonical section of {point!r}: {exc}") from None
    section = tuple(choice)
    _require_natural(section, sheaf, "canonical section failed the naturality check "
                                     f"for carrier point {point!r}")
    return section


def _member_index(dec, idx, e):
    """The position of idempotent e in dec's algebra, of poset index idx."""
    pos = dec.algebra.member_pos.get(e)
    if pos is None:
        raise InvariantViolation(
            f"A{idx}: primitive idempotent {e} is not a member of the algebra")
    return pos


def unnatural_edge(section, sheaf):
    """The first Hasse edge (i, j) whose table does not send the section's
    value at j to its value at i, or None if the section is natural."""
    for (i, j), table in sheaf.restrictions.items():
        if table[section[j]] != section[i]:
            return i, j
    return None


def _require_natural(section, sheaf, failure):
    """Raise the failure, naming the first Hasse edge the section breaks."""
    edge = unnatural_edge(section, sheaf)
    if edge is not None:
        raise InvariantViolation(f"{failure} at Hasse edge {edge}")


def section_element(section, sheaf):
    """The carrier point a prime global section singles out on the algebra of
    all diagonal relations, cross-checked against every other algebra."""
    if sheaf.kind != "prime":
        raise ValueError("section elements are read off the prime presheaf")
    poset = sheaf.poset
    diag_idx = poset.diagonal_index
    if diag_idx is None:  # both walks list it, so the enumeration is broken
        raise InvariantViolation("the diagonal algebra is not part of the poset")
    selected = []
    for idx, dec in enumerate(poset.decompositions):
        ideal = sheaf.values[idx].points[section[idx]]
        outside = [pts for e, pts in zip(dec.idempotents, dec.supports)
                   if ideal[_member_index(dec, idx, e)] != TWO.bottom]
        if len(outside) != 1:
            raise InvariantViolation(f"A{idx}: section does not isolate one component")
        selected.append(outside[0])
    # Selected components are unit-diagonal idempotents: two of them compose to
    # zero only if their supports are disjoint, which the shared-point check rules out.
    picked = selected[diag_idx]
    if len(picked) != 1:
        raise InvariantViolation(
            f"diagonal component is not a single carrier point: A{diag_idx} selects {picked}")
    point = picked[0]
    for idx, pts in enumerate(selected):
        if point not in pts:
            raise InvariantViolation(
                f"selected components do not share the point {point!r}: A{idx} selects {pts}")
    return point


# -- transport between the two presheaves --------------------------------------------


def transport_prime_section(section, prime_sheaf, gelfand_sheaf):
    """Map a prime section pointwise to characters; the image must be a global
    section of the scalar-valued presheaf."""
    indicator = prime_sheaf.poset.comparisons("indicator")
    out = tuple(t[c] for t, c in zip(indicator, section))
    _require_natural(out, gelfand_sheaf, "transported prime section is not natural")
    return out


def transport_gelfand_section(section, gelfand_sheaf, prime_sheaf):
    """Map a scalar-valued section pointwise to its kernels on the prime side."""
    kernel = gelfand_sheaf.poset.comparisons("kernel")
    out = tuple(t[c] for t, c in zip(kernel, section))
    _require_natural(out, prime_sheaf, "transported scalar section is not natural")
    return out


# -- the verdict -----------------------------------------------------------------------


def ks_verdict(x, q, mode="exhaustive", max_generators=2):
    """Decide contextuality for a carrier over a quantale.

    The scalar-valued presheaf is searched directly; over a ZDF quantale the
    prime presheaf is searched as well and the two answers must agree (they
    are bridged by the kernel/indicator transports).  Disagreement aborts.
    """
    poset = enumerate_vn(x, q, mode=mode, max_generators=max_generators)
    gelfand = build_presheaf(poset, "gelfand")
    g_sections = global_sections(gelfand)
    prime_sections = None
    canonical = {}
    element_map = {}
    if is_zdf(q):
        prime = build_presheaf(poset, "prime")
        p_sections = global_sections(prime)
        prime_sections = tuple(p_sections)
        if bool(p_sections) != bool(g_sections):
            raise InvariantViolation(
                "prime and scalar section existence disagree: "
                f"{len(p_sections)} prime vs {len(g_sections)} scalar sections")
        for s in p_sections:
            transport_prime_section(s, prime, gelfand)
            element_map[s] = section_element(s, prime)
        for s in g_sections:
            transport_gelfand_section(s, gelfand, prime)
        induced_by = {}  # canonical section -> the carrier point that induced it
        for p in x.elements:
            c = canonical[p] = canonical_section(p, prime)
            if c in induced_by:
                raise InvariantViolation(
                    f"carrier points induced colliding sections: {induced_by[c]!r} and {p!r}")
            induced_by[c] = p
        for p, c in canonical.items():
            if section_element(c, prime) != p:
                raise InvariantViolation(
                    f"canonical section of {p!r} reads back a different point")
    return Verdict(
        carrier=x.elements,
        quantale=q.name,
        mode=mode,
        gelfand_sections=tuple(g_sections),
        prime_sections=prime_sections,
        canonical_by_point=canonical,
        element_map=element_map,
    )
