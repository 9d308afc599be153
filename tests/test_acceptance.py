"""Acceptance criteria: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.

The enumerated-poset fixtures are shared across criteria, so the budgets are
checked against the work each criterion actually adds.
"""

import itertools
import json
import random
import time

from oracles import all_relations
from qspec.cli import main as cli_main
from qspec.contextuality import ks_verdict
from qspec.quantale import builtin_quantale, is_zdf, verify_quantale
from qspec.relations import (
    QRel, add, add_via_biproduct, carrier, compose,
    identity_rel, scalar_mul, scalar_mul_via_tensor, zero_rel, _e_join,
)
from qspec.spectra import (
    TWO, character_kernel, characters_to_two, gelfand_spectrum, prime_spectrum,
    restriction_table,
)
from qspec.subalgebra import (
    diagonal_algebra, enumerate_vn, primitive_idempotents,
    subunital_idempotents,
)
from qspec.zariski import (
    check_continuity, is_homeomorphism, kolmogorov_quotient,
    separation_report, zariski_topology,
)

BOOL2 = builtin_quantale("boolean2")
GODEL3 = builtin_quantale("godel_chain", 3)

_posets = {}


def enumerated_posets():
    """The poset family every decomposition/spectra/topology criterion ranges
    over: boolean2 at sizes 1 and 2 exhaustively and size 3 with two
    generators, and the 3-chain at size 2 exhaustively."""
    if not _posets:
        _posets["boolean2-1"] = enumerate_vn(carrier("X", 1), BOOL2)
        _posets["boolean2-2"] = enumerate_vn(carrier("X", 2), BOOL2)
        _posets["boolean2-3"] = enumerate_vn(carrier("X", 3), BOOL2,
                                             "generated", 2)
        _posets["godel3-2"] = enumerate_vn(carrier("X", 2), GODEL3)
    return _posets


def report(criterion, elapsed, budget):
    line = f"[PASS] {criterion} ({elapsed:.2f}s, budget {budget:.0f}s)"
    print(line)
    assert elapsed < budget, f"{criterion} exceeded its runtime budget"


def test_criterion_1_quantale_kernel():
    start = time.time()
    expectations = [
        (BOOL2, True),
        (builtin_quantale("godel_chain", 3), True),
        (builtin_quantale("godel_chain", 4), True),
        (builtin_quantale("godel_chain", 5), True),
        (builtin_quantale("lukasiewicz_chain", 3), False),
        (builtin_quantale("lukasiewicz_chain", 4), False),
        (builtin_quantale("lukasiewicz_chain", 5), False),
        # powerset(1) is the two-element Boolean algebra under other names,
        # so it shares its lack of zero divisors; larger powersets have them
        (builtin_quantale("powerset", 1), True),
        (builtin_quantale("powerset", 2), False),
        (builtin_quantale("powerset", 3), False),
    ]
    for q, zdf in expectations:
        assert verify_quantale(q).passed, q.name
        assert is_zdf(q) == zdf, q.name
    report("criterion-1 quantale kernel", time.time() - start, 1.0)


def test_criterion_2_enrichment_oracles():
    start = time.time()
    mismatches = 0
    for nx, ny in itertools.product((1, 2), repeat=2):
        x, y = carrier("X", nx), carrier("Y", ny)
        rels = list(all_relations(BOOL2, x, y))
        for f in rels:
            for g in rels:
                if add(f, g) != add_via_biproduct(f, g):
                    mismatches += 1
            for s in range(2):
                if scalar_mul(s, f) != scalar_mul_via_tensor(s, f):
                    mismatches += 1
    rng = random.Random(2024)
    for _ in range(1000):
        x = carrier("X", rng.randint(1, 3))
        y = carrier("Y", rng.randint(1, 3))

        def rand():
            return QRel(GODEL3, x, y, tuple(
                tuple(rng.randrange(3) for _ in range(y.size))
                for _ in range(x.size)))

        f, g = rand(), rand()
        if add(f, g) != add_via_biproduct(f, g):
            mismatches += 1
        s = rng.randrange(3)
        if scalar_mul(s, f) != scalar_mul_via_tensor(s, f):
            mismatches += 1
    assert mismatches == 0
    report("criterion-2 enrichment oracles", time.time() - start, 10.0)


def test_criterion_3_decomposition():
    start = time.time()
    failures = 0
    for poset in enumerated_posets().values():
        q = poset.quantale
        zero = zero_rel(q, poset.carrier, poset.carrier)
        for a in poset.algebras:
            dec = primitive_idempotents(a)
            es = [QRel(q, a.carrier, a.carrier, a.members[p]) for p in dec.idempotents]
            for e, f in itertools.combinations(es, 2):
                if compose(e, f) != zero:
                    failures += 1
            joined = zero
            for e in es:
                joined = add(joined, e)
            if joined != identity_rel(q, poset.carrier):
                failures += 1
            # primitivity: no join of two other nonzero subunital idempotents
            subs = [a.members[s] for s in subunital_idempotents(a)
                    if a.members[s] != zero.entries]
            for e in es:
                for s, t in itertools.combinations(subs, 2):
                    if s != e.entries and t != e.entries and \
                            _e_join(q, s, t) == e.entries:
                        failures += 1
            # bijective product reassembly
            images = {tuple(compose(e, QRel(q, a.carrier, a.carrier, m)).entries
                            for e in es) for m in a.members}
            expected = 1
            for e in es:  # the size of the component eA
                expected *= len({compose(e, QRel(q, a.carrier, a.carrier, m)).entries
                                 for m in a.members})
            if len(images) != len(a.members) or expected != len(a.members):
                failures += 1
    assert failures == 0
    report("criterion-3 decomposition", time.time() - start, 120.0)


def test_criterion_4_spectra_correspondence():
    start = time.time()
    failures = 0
    for poset in enumerated_posets().values():
        for a in poset.algebras:
            gammas = characters_to_two(a)
            gel = gelfand_spectrum(a)
            prime = prime_spectrum(gel)
            kernels = [prime.kernel_members(character_kernel(g, a, TWO)) for g in gammas]
            if sorted(kernels) != sorted(map(prime.kernel_members, prime.points)):
                failures += 1
            if len(set(kernels)) != len(gammas):
                failures += 1
            dec = primitive_idempotents(a)
            for g in gammas:
                hits = [e for e in dec.idempotents if g[e] == 1]
                if len(hits) != 1:
                    failures += 1
            if poset.quantale.size == 2:
                ker_g = {character_kernel(rho, a, gel.target) for rho in gel.points}
                if not (len(ker_g) == gel.size == prime.size):
                    failures += 1
    assert failures == 0
    report("criterion-4 spectra correspondence", time.time() - start, 60.0)


def test_criterion_5_chain_surrogate_example():
    start = time.time()
    d = diagonal_algebra(carrier("X", 2), GODEL3)
    gel = gelfand_spectrum(d)
    pri = prime_spectrum(gel)
    assert pri.size == 4
    assert gel.size == 6
    t_p = zariski_topology(pri)
    rep_p = separation_report(t_p)
    assert rep_p.t0 and not rep_p.t1
    t_g = zariski_topology(gel)
    rep_g = separation_report(t_g)
    assert not rep_g.t0
    assert len(rep_g.indistinguishable_pairs) == 2
    quotient, mapping = kolmogorov_quotient(t_g)
    kernel_idx = [pri.index_of(character_kernel(rho, d, GODEL3)) for rho in gel.points]
    cls_to_prime = {}
    for g_idx, cls in enumerate(mapping):
        assert cls_to_prime.setdefault(cls, kernel_idx[g_idx]) == kernel_idx[g_idx]
    point_map = tuple(cls_to_prime[i] for i in range(quotient.size))
    assert is_homeomorphism(quotient, t_p, point_map)
    report("criterion-5 chain surrogate example", time.time() - start, 10.0)


def test_criterion_6_non_contextuality():
    start = time.time()
    cases = [(BOOL2, 1, "exhaustive"), (BOOL2, 2, "exhaustive"),
             (BOOL2, 3, "generated"), (GODEL3, 1, "exhaustive"),
             (GODEL3, 2, "exhaustive")]
    for q, n, mode in cases:
        x = carrier("X", n)
        verdict = ks_verdict(x, q, mode=mode)
        assert not verdict.contextual, (q.name, n)
        assert verdict.prime_sections, (q.name, n)
        assert len(verdict.canonical_by_point) == n
        assert len(set(verdict.canonical_by_point.values())) == n
        for point, section in verdict.canonical_by_point.items():
            assert verdict.element_map[section] == point
        for section in verdict.prime_sections:
            assert verdict.element_map[section] in x.elements
    report("criterion-6 non-contextuality", time.time() - start, 300.0)


def test_criterion_7_topology_functoriality():
    start = time.time()
    failures = 0
    for poset in enumerated_posets().values():
        gelfands = [gelfand_spectrum(a) for a in poset.algebras]
        primes = list(map(prime_spectrum, gelfands))
        for pri in primes:
            rep = separation_report(zariski_topology(pri))
            if not rep.t0:  # and compact, as every finite space is
                failures += 1
        for (i, j) in poset.hasse:
            if not check_continuity(primes[i], primes[j],
                                    restriction_table(primes[i], primes[j])):
                failures += 1
            if not check_continuity(gelfands[i], gelfands[j],
                                    restriction_table(gelfands[i], gelfands[j])):
                failures += 1
    assert failures == 0
    report("criterion-7 topology functoriality", time.time() - start, 60.0)


def test_criterion_8_determinism(tmp_path):
    start = time.time()
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        code = cli_main(["verdict", "--quantale", "godel3", "--size", "2",
                         "--seed", "7", "--format", "json", "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()
    report("criterion-8 determinism", time.time() - start, 30.0)
