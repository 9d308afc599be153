"""Reference helpers the tests compare the package against.  No code under
src/ calls them, so they live here, not in qspec; the file name keeps pytest
from collecting it."""

import itertools
from collections import namedtuple

from qspec.quantale import QuantaleError, RigHom
from qspec.relations import QRel, compose, dagger, diag_rel
from qspec.subalgebra import Subsemialgebra, _bits

# The two-point powerset quantale with its points swapped by the involution.
SWAP_DOC = {
    "name": "swap",
    "elements": ["{}", "{1}", "{2}", "{1,2}"],
    "join": [["{}", "{1}", "{2}", "{1,2}"],
             ["{1}", "{1}", "{1,2}", "{1,2}"],
             ["{2}", "{1,2}", "{2}", "{1,2}"],
             ["{1,2}", "{1,2}", "{1,2}", "{1,2}"]],
    "mul": [["{}", "{}", "{}", "{}"],
            ["{}", "{1}", "{}", "{1}"],
            ["{}", "{}", "{2}", "{2}"],
            ["{}", "{1}", "{2}", "{1,2}"]],
    "unit": "{1,2}",
    "involution": ["{}", "{2}", "{1}", "{1,2}"],
}


def is_hom(src, dst, image):
    """Check one image tuple against every law of the *-semirings src and
    dst (qspec._homsearch.TableSemiring), over all pairs of indices.

    Deliberately independent of enumerate_homs, so it can serve as its oracle.
    """
    n = src.size
    if len(image) != n:
        return False
    if image[src.zero] != dst.zero or image[src.one] != dst.one:
        return False
    for i in range(n):
        fi = image[i]
        if image[src.star[i]] != dst.star[fi]:
            return False
        for j in range(n):
            if image[src.add[i][j]] != dst.add[fi][image[j]]:
                return False
            if image[src.mul[i][j]] != dst.mul[fi][image[j]]:
                return False
    return True


def all_relations(q, dom, cod):
    """Every relation dom -> cod, in lexicographic entry order."""
    cells = dom.size * cod.size
    for flat in itertools.product(range(q.size), repeat=cells):
        rows = tuple(flat[i * cod.size:(i + 1) * cod.size] for i in range(dom.size))
        yield QRel(q, dom, cod, rows)


SupportPair = namedtuple("SupportPair", "supp cosupp")


def support(f):
    """Points with a non-bottom entry in their row (supp) resp. column (cosupp)."""
    b = f.quantale.bottom
    supp = tuple(f.dom.elements[x] for x in range(f.dom.size)
                 if any(v != b for v in f.entries[x]))
    cosupp = tuple(f.cod.elements[y] for y in range(f.cod.size)
                   if any(f.entries[x][y] != b for x in range(f.dom.size)))
    return SupportPair(supp, cosupp)


def subset_idempotent(q, x, points):
    """The identity on a subset of the carrier, bottom elsewhere."""
    chosen = {x.index(p) for p in points}
    return diag_rel(q, x, [q.unit if i in chosen else q.bottom for i in range(x.size)])


def is_normal(f):
    return compose(f, dagger(f)) == compose(dagger(f), f)


def compose_homs(g, f):
    """The quantale map g after f (f: A -> B, g: B -> C)."""
    if f.target != g.source:
        raise QuantaleError("composition mismatch")
    return RigHom(f.source, g.target, tuple(g.mapping[v] for v in f.mapping))


def from_rels(rels):
    """The set of the given relations as a Subsemialgebra, closed or not."""
    first = rels[0]
    return Subsemialgebra.from_entries(first.quantale, first.dom, (r.entries for r in rels))


def maximal_cliques(adj, vertices):
    """Every maximal clique of the subgraph induced on the vertex bitset
    vertices, where vertex v has the neighbour bitset adj[v] (no self-loops),
    as vertex bitsets.

    Bron–Kerbosch with Tomita's pivot: the pivot u in P ∪ X has the most
    neighbours in P, and only the candidates outside N(u) are branched on.
    An explicit stack stands in for the recursion, so clique size is not
    bounded by the interpreter's recursion limit.
    """
    out = []
    stack = [(0, vertices, 0)]
    while stack:
        clique, p, x = stack.pop()
        if not p:
            if not x:
                out.append(clique)
            continue
        u = max(_bits(p | x), key=lambda v: (p & adj[v]).bit_count())
        for v in _bits(p & ~adj[u]):
            bit = 1 << v
            stack.append((clique | bit, p & adj[v], x & adj[v]))
            p ^= bit
            x |= bit
    return out


def generated_walk_unions(space, k):
    """The unions generated mode meets, by its level-by-level rule but with
    each closure taken from scratch and each commutant in full.  Per level,
    each closure c meets c ∪ cl(b) for every normal b in c′ outside c (one
    of b, b†), and closes it unless an earlier closure or union equals it.
    Returns the elements b whose cl(b) the walk needs, and the (c, cl(b))
    pairs of the unions it closes, in walk order."""
    normal = [i for i in range(space.size)
              if i <= space.dag_t[i] and space.comm[i] >> space.dag_t[i] & 1]
    base = space.close_mask(0, ())
    single, unions = {}, []
    known, level = {base}, [base]
    for _ in range(k):
        fresh = []
        for c in level:
            comm = space.commutant_mask(c)
            for b in normal:
                if comm >> b & 1 and not c >> b & 1:
                    if b not in single:
                        single[b] = space.close_mask(0, (b,))
                    u = c | single[b]
                    if u not in known:
                        unions.append((c, single[b]))
                        cl = space.close_mask(0, _bits(u))
                        if cl not in known:
                            fresh.append(cl)
                        known |= {u, cl}
        level = fresh
    return list(single), unions


def inclusion_order(algebras):
    """The inclusion pairs (i, j), i ⊆ j, and the covering pairs of the given
    algebras: the covers of an algebra are the algebras above it that are
    above no other one that is.  Inclusion is read off one bitset per
    algebra over the union of their members, with no call into qspec's
    poset builder."""
    place = {m: k for k, m in enumerate({m for a in algebras for m in a.members})}
    bits = [sum(1 << place[m] for m in a.members) for a in algebras]
    above = [sum(1 << j for j, b in enumerate(bits) if j != i and a & ~b == 0)
             for i, a in enumerate(bits)]
    leq, hasse = set(), []
    for i, up in enumerate(above):
        leq.update((i, j) for j in [i, *_bits(up)])
        higher = 0
        for j in _bits(up):
            higher |= above[j]
        hasse.extend((i, j) for j in _bits(up & ~higher))
    return frozenset(leq), tuple(hasse)
