"""Spectral presheaves over the algebra poset and the contextuality verdict.

The spectrum assignment is contravariantly functorial over the inclusion
poset; a global section is one spectrum point per algebra, consistent under
every restriction.  A carrier is contextual precisely when the scalar-valued
spectrum presheaf has no global section.  Over a zero-divisor-free quantale
the prime presheaf answers the same existence question, and every carrier
point induces a canonical prime section through the idempotent decomposition.
"""

from __future__ import annotations

from dataclasses import dataclass

from qspec import csp
from qspec.quantale import is_zdf, require_zdf, verify_quantale
from qspec.relations import support, _e_compose
from qspec.spectra import (
    PrimeIdeal, character_from_prime, character_kernel, restrict_point,
)
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
    restrictions: dict  # (sub_idx, sup_idx) -> tuple: point of sup -> point of sub

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
    """Take every spectrum from the poset, compute every restriction table,
    then verify the functor laws before handing the presheaf out."""
    values = poset.spectra(kind)
    restrictions = {}
    for (i, j) in poset.inclusions():
        sub = poset.algebras[i]
        table = []
        for point in values[j].points:
            restricted = restrict_point(point, sub)
            try:
                table.append(values[i].index_of(restricted))
            except ValueError:
                raise InvariantViolation(
                    f"restriction of a {kind} point escaped the spectrum "
                    f"(algebras {i} <= {j})") from None
        restrictions[(i, j)] = tuple(table)
    sheaf = Presheaf(poset, kind, values, restrictions)
    _verify_functor_laws(sheaf)
    return sheaf


def _verify_functor_laws(sheaf):
    incl = set(sheaf.poset.inclusions())
    above = {}
    for (j, k) in incl:
        above.setdefault(j, []).append(k)
    for (i, j) in incl:
        for k in above.get(j, ()):
            if (i, k) not in incl:
                continue
            r_ij = sheaf.restrictions[(i, j)]
            r_jk = sheaf.restrictions[(j, k)]
            r_ik = sheaf.restrictions[(i, k)]
            for p in range(len(r_jk)):
                if r_ij[r_jk[p]] != r_ik[p]:
                    raise InvariantViolation(
                        f"functor law broken along {i} <= {j} <= {k}")


def global_sections(sheaf):
    """Every global section, via arc consistency plus backtracking over the
    naturality constraints of all proper inclusions."""
    n = len(sheaf.poset.algebras)
    domains = [list(range(v.size)) for v in sheaf.values]
    constraints = {}
    for (i, j), table in sheaf.restrictions.items():
        constraints[(i, j)] = {(table[pj], pj) for pj in range(len(table))}
    return [Section(choice) for choice in csp.solve_all(n, domains, constraints)]


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
    choice = []
    for idx, spectrum in enumerate(prime_sheaf.values):
        ideal = spectrum.points[section.choice[idx]]
        rho = character_from_prime(ideal)
        choice.append(gelfand_sheaf.values[idx].index_of(rho))
    out = Section(tuple(choice))
    if not is_natural(out, gelfand_sheaf):
        raise InvariantViolation("transported prime section is not natural")
    return out


def transport_gelfand_section(section, gelfand_sheaf, prime_sheaf):
    """Map a scalar-valued section pointwise to its kernels on the prime side."""
    choice = []
    for idx, spectrum in enumerate(gelfand_sheaf.values):
        rho = spectrum.points[section.choice[idx]]
        choice.append(prime_sheaf.values[idx].index_of(character_kernel(rho)))
    out = Section(tuple(choice))
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
