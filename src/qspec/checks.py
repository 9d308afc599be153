"""Invariant suites behind the CLI.

Each suite re-runs structural guarantees on the objects it is handed and
returns one result per named check; the CLI's exit status is the conjunction.
Randomized properties draw from a seeded generator so reports are reproducible.
"""

from __future__ import annotations

import random
from collections import namedtuple

from qspec.quantale import is_zdf, verify_quantale
from qspec.relations import (
    QRel, add, add_via_biproduct, carrier, compose, dagger, identity_rel,
    scalar_mul, scalar_mul_via_tensor, zero_rel,
)
from qspec.spectra import TWO, prime_ideal_scan, restriction_mismatch
from qspec.subalgebra import (
    InvariantViolation, commutant, is_von_neumann, support_projections,
    validate_decomposition,
)
from qspec.zariski import (
    all_ideals, check_continuity, kolmogorov_quotient, separation_report,
    vanishing_set_of_ideal, verify_quotient_xi, zariski_quotient, zariski_topology,
    closed_family_from_basis,
)


CheckResult = namedtuple("CheckResult", "name passed details", defaults=("",))


def _verdict(name, passed, details_on_fail):
    return CheckResult(name, passed, "" if passed else details_on_fail)


# -- quantale-level checks -----------------------------------------------------


def quantale_suite(q, report, homs):
    """The quantale checks, reusing an axiom report and endomorphism list
    that the caller hands in (homs is read only when the axioms pass); the
    axioms are verified once more, to compare."""
    out = []
    out.append(_verdict("axioms", report.passed, f"violations: {report.violations}"))
    if not report.passed:
        return out
    out.append(_verdict("verify-deterministic", report == verify_quantale(q),
                        "repeated verification differed"))
    n = q.size
    order_ok = all(q.leq(x, x) for x in range(n))
    order_ok &= all(not (q.leq(x, y) and q.leq(y, x)) or x == y
                    for x in range(n) for y in range(n))
    order_ok &= all(not (q.leq(x, y) and q.leq(y, z)) or q.leq(x, z)
                    for x in range(n) for y in range(n) for z in range(n))
    out.append(_verdict("order-partial-order", order_ok, "join order is not a partial order"))
    bounds = all(q.leq(q.bottom, x) and q.leq(x, q.top) for x in range(n))
    out.append(_verdict("order-bounds", bounds, "bottom/top do not bound the order"))
    if n <= 8:
        maps = {h.mapping for h in homs}
        ident = tuple(range(n))
        closed = ident in maps and all(
            tuple(g.mapping[v] for v in h.mapping) in maps
            for g in homs for h in homs)
        out.append(_verdict("endomorphism-monoid", closed,
                            "endomorphisms not closed under composition"))
    return out


RELATION_CASES = 300  # random relation tuples relations_suite tests


def relations_suite(q, seed):
    rng = random.Random(seed)
    sizes = [1, 2, 3]
    # the carriers and the maps on them, built once per size for this run
    xs, ys, zs = ({n: carrier(name, n) for n in sizes} for name in "XYZ")
    ids = {n: identity_rel(q, ys[n]) for n in sizes}
    zeros = {(m, n): zero_rel(q, xs[m], ys[n]) for m in sizes for n in sizes}

    def rand_rel(dom, cod):
        draw, size, cols = rng.randrange, q.size, range(cod.size)
        return QRel(q, dom, cod, tuple([tuple([draw(size) for _ in cols])
                                        for _ in range(dom.size)]))

    conv = scal = dag = cat = mod = True
    for _ in range(RELATION_CASES):
        x, y, z = (points[rng.choice(sizes)] for points in (xs, ys, zs))
        zero = zeros[x.size, y.size]
        f, g = rand_rel(x, y), rand_rel(x, y)
        h, _unread = rand_rel(y, z), rand_rel(y, z)  # the draw keeps the cases
        s, t = rng.randrange(q.size), rng.randrange(q.size)
        # each term shared by two laws is computed once
        fg, fh, df = add(f, g), compose(f, h), dagger(f)
        sf, tf = scalar_mul(s, f), scalar_mul(t, f)
        conv &= fg == add_via_biproduct(f, g)
        scal &= sf == scalar_mul_via_tensor(s, f)
        dag &= dagger(fh) == compose(dagger(h), df)
        dag &= dagger(df) == f
        cat &= compose(f, ids[y.size]) == f
        w = rand_rel(z, x)
        cat &= compose(fh, w) == compose(f, compose(h, w))
        # semimodule axioms for the scalar action
        mod &= scalar_mul(s, fg) == add(sf, scalar_mul(s, g))
        mod &= scalar_mul(q.mul(s, t), f) == scalar_mul(s, tf)
        mod &= scalar_mul(q.join(s, t), f) == add(sf, tf)
        mod &= scalar_mul(q.bottom, f) == zero
        mod &= scalar_mul(s, zero) == zero
        mod &= scalar_mul(q.unit, f) == f
    return [
        _verdict("convolution-oracle", conv, "pointwise join != biproduct composite"),
        _verdict("scalar-oracle", scal, "entrywise action != tensor composite"),
        _verdict("dagger-laws", dag, "dagger laws failed"),
        _verdict("category-laws", cat, "identity/associativity failed"),
        _verdict("semimodule-axioms", mod, "a semimodule axiom failed"),
    ]


# -- algebra-level checks ---------------------------------------------------------


def subset_joins(a):
    """The join of every subset of the members.  These are the closure of {0}
    under joining with one member, so |A| rounds of table lookups cover all
    2^|A| subsets."""
    space, idx = a.in_space
    reach = {space.zero_idx}
    for i in idx:
        reach |= {space.join(r, i) for r in reach}
    return {space.elements[r] for r in reach}


def algebras_suite(poset, seed):
    poset.predecessors  # a Hasse edge that is not an inclusion raises InvariantViolation
    out = []
    q = poset.quantale
    algebras = poset.algebras
    # is_closed() holds the unit, zero and every member's dagger among the members
    flags = all(a.is_commutative and a.is_closed() for a in algebras)
    out.append(_verdict("closure-flags", flags, "an algebra misses a closure flag"))
    out.append(_verdict("von-neumann", all(is_von_neumann(a) for a in algebras),
                        "an algebra differs from its double commutant"))
    t = poset.trivial_index
    included = t is not None and all(algebras[t].member_set <= a.member_set
                                     for a in algebras)
    out.append(_verdict("trivial-included", included,
                        "the trivial algebra is not below every object"))
    joins_ok = all(subset_joins(a) <= a.member_set for a in algebras)
    out.append(_verdict("join-closure-subsets", joins_ok,
                        "a subset join escaped its algebra"))
    if is_zdf(q):
        supp_ok = all(a.member_set.issuperset(support_projections(a).values())
                      for a in algebras)
        out.append(_verdict("support-projections", supp_ok,
                            "a support projection escaped its algebra"))
        try:  # an algebra that does not decompose is named by the exception
            failures = [f"A{i}: {msg}" for i, dec in enumerate(poset.decompositions)
                        for msg in validate_decomposition(dec)]
        except InvariantViolation as exc:
            failures = [str(exc)]
        out.append(_verdict("decomposition", not failures, "; ".join(failures[:5])))
    rng = random.Random(seed)
    hom = list(poset.algebras[-1].relations())  # largest algebra as a sample pool
    triple_ok = mono_ok = True
    for _ in range(5):
        sample = rng.sample(hom, min(len(hom), rng.randint(1, 3)))
        c1 = commutant(poset.carrier, sample, q)
        c2 = commutant(poset.carrier, c1.relations(), q)
        c3 = commutant(poset.carrier, c2.relations(), q)
        triple_ok &= c3.member_set == c1.member_set
        bigger = sample + [rng.choice(hom)]
        cb = commutant(poset.carrier, bigger, q)
        mono_ok &= cb.member_set <= c1.member_set
    out.append(_verdict("triple-commutant", triple_ok, "B''' != B' on a sample"))
    out.append(_verdict("commutant-antitone", mono_ok, "commutant failed to reverse inclusion"))
    return out


# -- spectra-level checks -------------------------------------------------------------


def spectra_suite(poset):
    out = []
    q = poset.quantale
    gelfands = poset.spectra("gelfand")
    primes = poset.spectra("prime")
    # the prime spectra, the {bottom, unit}-valued Gelfand characters read
    # into TWO, against the down-set scan, over any scalars: so a Gelfand
    # search that loses a two-valued character fails here
    bij = all(list(pr.points) == prime_ideal_scan(a)
              for a, pr in zip(poset.algebras, primes))
    out.append(_verdict("kernel-bijection", bij,
                        "the two-valued characters are not the down-set scan's ideals"))
    if is_zdf(q):
        try:  # an algebra that does not decompose is named by the exception
            one_idem, detail = _one_idempotent_per_character(poset)
        except InvariantViolation as exc:
            one_idem, detail = False, str(exc)
        out.append(_verdict("one-idempotent-per-character", one_idem, detail))
        kernel, indicator = poset.comparisons("kernel"), poset.comparisons("indicator")
        section = all(k[r] == p for k, ind in zip(kernel, indicator)
                      for p, r in enumerate(ind))
        out.append(_verdict("kernel-section-identity", section,
                            "kernel of an indicator character is not the ideal"))
        # kernel_i . r^g_ij = r^p_ij . kernel_j, and the same with the indicator
        r_g, r_p = poset.restrictions("gelfand"), poset.restrictions("prime")
        natural = all(
            list(map(kernel[i].__getitem__, r_g[i, j]))
            == list(map(r_p[i, j].__getitem__, kernel[j]))
            and list(map(indicator[i].__getitem__, r_p[i, j]))
            == list(map(r_g[i, j].__getitem__, indicator[j]))
            for i, j in poset.hasse)
        out.append(_verdict("comparison-naturality", natural,
                            "a kernel/indicator naturality square failed"))
        if q.size == 2:
            coincide = all(len(set(k)) == g.size == p.size
                           for k, g, p in zip(kernel, gelfands, primes))
            out.append(_verdict("two-spectra-coincide", coincide,
                                "kernel map is not a bijection over the two-element quantale"))
    try:  # a restricted point outside the smaller spectrum is named by the exception
        functorial = all(restriction_mismatch(poset, kind) is None
                         for kind in ("gelfand", "prime"))
    except InvariantViolation:
        functorial = False
    out.append(_verdict("restriction-functorial", functorial,
                        "a Hasse edge table is not the restriction of its spectra"))
    return out


def _one_idempotent_per_character(poset):
    """Does every two-valued character (every prime point) send exactly one
    primitive idempotent to 1?  An idempotent outside its algebra has no
    value: a failure."""
    for i, (pr, dec) in enumerate(zip(poset.spectra("prime"), poset.decompositions)):
        pos = poset.algebras[i].member_pos
        if any(e not in pos for e in dec.idempotents):
            return False, f"A{i}: a primitive idempotent is not a member of the algebra"
        at = [pos[e] for e in dec.idempotents]
        for g in pr.points:
            if sum(g[k] == TWO.unit for k in at) != 1:
                return False, f"A{i}: a two-valued character hits != 1 primitive idempotent"
    return True, ""


# -- topology-level checks --------------------------------------------------------------


def topology_suite(poset):
    out = []
    q = poset.quantale
    algebras = poset.algebras
    primes = poset.spectra("prime")
    gelfands = poset.spectra("gelfand")
    if is_zdf(q):
        t0_ok = compact_ok = True
        for pr in primes:
            rep = separation_report(zariski_topology(pr))
            t0_ok &= rep.t0
            compact_ok &= rep.compact
        out.append(_verdict("prime-t0", t0_ok, "a prime-side topology is not T0"))
        # Every finite space is compact (a finite cover has itself as a
        # finite subcover), so prime-compact cannot fail; the key is kept for
        # report stability, not as evidence.
        out.append(_verdict("prime-compact", compact_ok, "a prime-side topology is not compact"))
        quot = all(map(verify_quotient_xi, gelfands, primes, poset.comparisons("kernel")))
        out.append(_verdict("quotient-comparison", quot,
                            "kernel map is not the Kolmogorov quotient somewhere"))
    # Vanishing sets pull back to vanishing sets, so every restriction map is
    # continuous for topologies built from their spectra: only a topology that
    # does not come from its spectrum can fail restriction-continuity.
    cont = True
    r_p, r_g = poset.restrictions("prime"), poset.restrictions("gelfand")
    for (i, j) in poset.hasse:
        cont &= check_continuity(primes[i], primes[j], r_p[i, j])
        cont &= check_continuity(gelfands[i], gelfands[j], r_g[i, j])
    out.append(_verdict("restriction-continuity", cont,
                        "a restriction map is not continuous"))
    # Any finite space has a T0 quotient whose quotient is itself, so no input
    # space fails kolmogorov-idempotent; it tests kolmogorov_quotient alone.
    idem_ok = True
    for g in gelfands:
        t1, _ = zariski_quotient(g)
        t2, m2 = kolmogorov_quotient(t1)
        idem_ok &= separation_report(t1).t0
        idem_ok &= t2.size == t1.size and list(m2) == list(range(t1.size))
        idem_ok &= t2.down == t1.down
    out.append(_verdict("kolmogorov-idempotent", idem_ok,
                        "quotienting twice changed the space"))
    # V(J) is the intersection of the V(<a>) over a in J whatever the points
    # are, so as above only a topology that does not come from its spectrum
    # fails principal-basis-oracle.
    basis_ok = True
    for a, pr in zip(algebras, primes):
        if a.size > 9:
            continue
        principal = zariski_topology(pr)
        ideal_basis = [vanishing_set_of_ideal(pr, j) for j in all_ideals(a)]
        from_all = closed_family_from_basis(range(pr.size), ideal_basis)
        basis_ok &= from_all.down == principal.down
    out.append(_verdict("principal-basis-oracle", basis_ok,
                        "principal ideals generate a different family than all ideals"))
    return out
