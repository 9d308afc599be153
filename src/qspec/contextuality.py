"""Spectral presheaves over the algebra poset and the contextuality verdict.

The spectrum assignment is contravariantly functorial over the inclusion
poset; a global section is one spectrum point per algebra, consistent under
every restriction.  A carrier is contextual precisely when the scalar-valued
spectrum presheaf has no global section.  Over a zero-divisor-free quantale
the prime presheaf answers the same existence question, and every carrier
point induces a canonical prime section through the idempotent decomposition.

A presheaf is read from the poset's restriction tables.  Its sections are
searched over the maximal algebras only, since a natural section is
determined by its values there: every other algebra lies below a maximal
one, and its value is that value restricted.  This is the measurement-cover
view of Abramsky and Brandenburger (New J. Phys. 13, 2011).  The generic
constraint solver in ``qspec.csp`` is the tests' oracle for this search.
"""

from __future__ import annotations

from dataclasses import dataclass

from qspec.quantale import is_zdf, require_zdf, verify_quantale
from qspec.relations import support, _e_compose
from qspec.spectra import PrimeIdeal, functor_law_violation
from qspec.subalgebra import (
    AlgebraPoset, InvariantViolation, enumerate_vn, _zero_entries,
)


@dataclass
class Presheaf:
    """Materialized spectrum presheaf: one point set per algebra plus the
    restriction table for every proper inclusion."""

    poset: AlgebraPoset
    kind: str
    values: tuple  # SpectrumSet per poset index
    restrictions: dict  # (sub_idx, sup_idx) -> row: point of sup -> point of sub

    def restrict_index(self, sub_idx, sup_idx, point_idx):
        if sub_idx == sup_idx:
            return point_idx
        return self.restrictions[(sub_idx, sup_idx)][point_idx]


@dataclass(frozen=True)
class Section:
    """A choice of one point index per algebra, natural under restriction."""

    choice: tuple


@dataclass
class Verdict:
    carrier: tuple
    quantale: str
    mode: str
    zdf: bool
    contextual: bool
    gelfand_sections: tuple
    prime_sections: tuple | None
    canonical_by_point: dict
    element_map: dict  # prime section -> carrier point
    notes: tuple = ()

    def to_json(self):
        return {
            "carrier": [str(p) for p in self.carrier],
            "quantale": self.quantale,
            "mode": self.mode,
            "zdf": self.zdf,
            "hypotheses_met": self.zdf,
            "contextual": self.contextual,
            "section_count": len(self.gelfand_sections),
            "sections": [list(s.choice) for s in self.gelfand_sections],
            "prime_section_count": (None if self.prime_sections is None
                                    else len(self.prime_sections)),
            "prime_sections": (None if self.prime_sections is None
                               else [list(s.choice) for s in self.prime_sections]),
            "canonical_sections": {str(k): list(v.choice)
                                   for k, v in sorted(self.canonical_by_point.items(),
                                                      key=lambda kv: str(kv[0]))},
            "element_map": {",".join(map(str, k.choice)): str(v)
                            for k, v in sorted(self.element_map.items(),
                                               key=lambda kv: kv[0].choice)},
            "notes": list(self.notes),
        }


def build_presheaf(poset, kind):
    """Take every spectrum and restriction table from the poset, then verify
    the functor laws before handing the presheaf out."""
    sheaf = Presheaf(poset, kind, poset.spectra(kind), poset.restrictions(kind))
    _verify_functor_laws(sheaf)
    return sheaf


def _verify_functor_laws(sheaf):
    broken = functor_law_violation(sheaf.restrictions)
    if broken is not None:
        raise InvariantViolation("functor law broken along {} <= {} <= {}".format(*broken))


def global_sections(sheaf):
    """Every global section, in lexicographic order.

    Depth-first search that branches on the maximal algebras, those with the
    largest down-set first.  A choice at an algebra forces the value of every
    algebra below it, and a forced value that conflicts with one already set
    backtracks, so at a maximal algebra only the values that agree with the
    largest algebra an earlier choice has set below it are tried.  An
    algebra still unset once the maximal ones are set is branched on in turn;
    none is when the inclusions are transitive.  A complete assignment is
    kept when it is natural under every table, so the search is exact even
    for tables that break the functor laws: a natural section agrees with
    every value its own choices force.
    """
    values = sheaf.values
    n = len(values)
    below = [[] for _ in range(n)]  # below[j]: (i, row of (i, j))
    maximal = [True] * n
    for (i, j), row in sheaf.restrictions.items():
        below[j].append((i, row))
        maximal[i] = False
    order = sorted(range(n), key=lambda a: (not maximal[a], -len(below[a]), a))
    # A maximal algebra is never forced, so every one is branched on, in
    # order.  anchors[a] = (i, fibers of the table (i, a)) for the largest i
    # below a and below an earlier maximal algebra.
    anchors = {}
    set_before = set()
    for a in order[:maximal.count(True)]:
        shared = [(i, row) for i, row in below[a] if i in set_before]
        if shared:
            i, row = max(shared, key=lambda e: (values[e[0]].size, e[0]))
            fibers = {}
            for v, w in enumerate(row):
                fibers.setdefault(w, []).append(v)
            anchors[a] = (i, fibers)
        set_before.update(i for i, _ in below[a])
    choice = [None] * n
    trail = []  # algebras set since the search began, in order
    stack = []  # (position in order, candidate values, next candidate, trail mark)
    found = []

    def assign(a, v):
        choice[a] = v
        trail.append(a)
        for i, row in below[a]:
            w = row[v]
            if choice[i] is None:
                choice[i] = w
                trail.append(i)
            elif choice[i] != w:
                return False
        return True

    def descend(pos):
        """Open the next unset algebra from pos on, or keep a complete assignment."""
        while pos < n and choice[order[pos]] is not None:
            pos += 1
        if pos < n:
            a = order[pos]
            anchor = anchors.get(a)
            candidates = (range(values[a].size) if anchor is None
                          else anchor[1].get(choice[anchor[0]], ()))
            stack.append((pos, candidates, 0, len(trail)))
            return
        section = Section(tuple(choice))
        if is_natural(section, sheaf):
            found.append(section)

    descend(0)
    while stack:
        pos, candidates, k, mark = stack.pop()
        while len(trail) > mark:
            choice[trail.pop()] = None
        if k < len(candidates):
            stack.append((pos, candidates, k + 1, mark))
            if assign(order[pos], candidates[k]):
                descend(pos + 1)
    found.sort(key=lambda s: s.choice)
    return found


# -- canonical sections from carrier points ---------------------------------------


def canonical_section(point, sheaf):
    """The prime section induced by a carrier point: in every algebra, pick the
    complement ideal of the unique component whose idempotent supports the point."""
    if sheaf.kind != "prime":
        raise ValueError("canonical sections live in the prime presheaf")
    poset = sheaf.poset
    require_zdf(poset.quantale, "canonical sections")
    if point not in poset.carrier.elements:
        raise ValueError(f"unknown carrier point {point!r}")
    choice = []
    for idx, dec in enumerate(poset.decompositions):
        owners = [i for i, e in enumerate(dec.idempotents)
                  if point in support(e).supp]
        if len(owners) != 1:
            raise InvariantViolation(
                f"carrier point {point!r} not in exactly one component of algebra {idx}")
        e = dec.idempotents[owners[0]]
        a = dec.algebra
        q = a.quantale
        zero = _zero_entries(q, a.carrier.size)
        ideal_members = tuple(sorted(
            m for m in a.members if _e_compose(q, e.entries, m) == zero))
        target = PrimeIdeal(a, ideal_members)
        choice.append(sheaf.values[idx].index_of(target))
    section = Section(tuple(choice))
    if not is_natural(section, sheaf):
        raise InvariantViolation("canonical section failed the naturality check")
    return section


def is_natural(section, sheaf):
    for (i, j), table in sheaf.restrictions.items():
        if table[section.choice[j]] != section.choice[i]:
            return False
    return True


def section_element(section, sheaf):
    """The carrier point a prime global section singles out on the algebra of
    all diagonal relations, cross-checked against every other algebra."""
    if sheaf.kind != "prime":
        raise ValueError("section elements are read off the prime presheaf")
    poset = sheaf.poset
    diag_idx = poset.diagonal_index
    if diag_idx is None:
        raise ValueError("the diagonal algebra is not part of the poset")
    selected = []
    for idx, dec in enumerate(poset.decompositions):
        ideal = sheaf.values[idx].points[section.choice[idx]]
        outside = [e for e in dec.idempotents if e.entries not in ideal.member_set]
        if len(outside) != 1:
            raise InvariantViolation(
                f"section does not isolate one component in algebra {idx}")
        selected.append(outside[0])
    # Selected components are unit-diagonal idempotents: two of them compose to
    # zero only if their supports are disjoint, which the shared-point check rules out.
    picked = support(selected[diag_idx]).supp
    if len(picked) != 1:
        raise InvariantViolation("diagonal component is not a single carrier point")
    point = picked[0]
    for ei in selected:
        if point not in support(ei).supp:
            raise InvariantViolation("selected components do not share the point")
    return point


# -- transport between the two presheaves --------------------------------------------


def transport_prime_section(section, prime_sheaf, gelfand_sheaf):
    """Map a prime section pointwise to characters; the image must be a global
    section of the scalar-valued presheaf."""
    indicator = prime_sheaf.poset.comparisons("indicator")
    out = Section(tuple(t[c] for t, c in zip(indicator, section.choice)))
    if not is_natural(out, gelfand_sheaf):
        raise InvariantViolation("transported prime section is not natural")
    return out


def transport_gelfand_section(section, gelfand_sheaf, prime_sheaf):
    """Map a scalar-valued section pointwise to its kernels on the prime side."""
    kernel = gelfand_sheaf.poset.comparisons("kernel")
    out = Section(tuple(t[c] for t, c in zip(kernel, section.choice)))
    if not is_natural(out, prime_sheaf):
        raise InvariantViolation("transported scalar section is not natural")
    return out


# -- the verdict -----------------------------------------------------------------------


def ks_verdict(x, q, mode="exhaustive", max_generators=2):
    """Decide contextuality for a carrier over a quantale.

    The scalar-valued presheaf is searched directly; over a ZDF quantale the
    prime presheaf is searched as well and the two answers must agree (they
    are bridged by the kernel/indicator transports).  Disagreement aborts.
    """
    report = verify_quantale(q)
    if not report.passed:
        raise ValueError(f"quantale fails its axioms: {report.violations}")
    poset = enumerate_vn(x, q, mode=mode, max_generators=max_generators)
    gelfand = build_presheaf(poset, "gelfand")
    g_sections = global_sections(gelfand)
    contextual = len(g_sections) == 0
    notes = []
    prime_sections = None
    canonical = {}
    element_map = {}
    if is_zdf(q):
        prime = build_presheaf(poset, "prime")
        p_sections = global_sections(prime)
        prime_sections = tuple(p_sections)
        if (len(p_sections) == 0) != contextual:
            raise InvariantViolation(
                "prime and scalar section existence disagree: "
                f"{len(p_sections)} prime vs {len(g_sections)} scalar sections")
        for s in p_sections:
            transport_prime_section(s, prime, gelfand)
            element_map[s] = section_element(s, prime)
        for s in g_sections:
            transport_gelfand_section(s, gelfand, prime)
        for p in x.elements:
            canonical[p] = canonical_section(p, prime)
        if len({c.choice for c in canonical.values()}) != len(x.elements):
            raise InvariantViolation("carrier points induced colliding sections")
        for p, c in canonical.items():
            if section_element(c, prime) != p:
                raise InvariantViolation(
                    f"canonical section of {p!r} reads back a different point")
    else:
        notes.append("quantale has zero divisors: decided by the direct "
                     "scalar-valued search only; the kernel/indicator "
                     "comparison maps are unavailable")
    return Verdict(
        carrier=x.elements,
        quantale=q.name,
        mode=mode,
        zdf=is_zdf(q),
        contextual=contextual,
        gelfand_sections=tuple(g_sections),
        prime_sections=prime_sections,
        canonical_by_point=canonical,
        element_map=element_map,
        notes=tuple(notes),
    )
