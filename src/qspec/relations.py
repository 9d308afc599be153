"""Quantale-valued relations as finite matrices.

A relation f: X -> Y over a quantale Q is a |X| x |Y| matrix of Q-elements
(stored as indices into the quantale's element order).  Composition joins
products along the middle object, the dagger transposes and applies the
involution entrywise, addition is the pointwise join, and scalars act
entrywise.  Disjoint unions (biproducts) and cartesian products (tensor)
come with the usual structure maps, so the pointwise definitions can be
cross-checked against their categorical composites.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from qspec.quantale import QuantaleError


class FiniteSet(namedtuple("FiniteSet", "name elements")):
    """Ordered finite carrier; point ids must be unique and hashable."""

    __slots__ = ()

    def __new__(cls, name, elements):
        if len(set(elements)) != len(elements):
            raise ValueError(f"duplicate point ids in {name!r}")
        return super().__new__(cls, name, elements)

    @classmethod
    def _make(cls, fields):  # so that _replace checks the ids too
        return cls(*fields)

    @property
    def size(self):
        return len(self.elements)

    def index(self, point):
        try:
            return self.elements.index(point)
        except ValueError:
            raise ValueError(f"unknown point {point!r} in {self.name!r}") from None


def carrier(name, n):
    """The standard n-point carrier with ids "1".."n"."""
    return FiniteSet(name, tuple(str(i + 1) for i in range(n)))


class QRel(namedtuple("QRel", "quantale dom cod entries")):
    """A Q-valued relation from dom to cod: entries[x][y] is an index into
    quantale.elements."""

    __slots__ = ()

    def entry(self, x, y):
        return self.entries[x][y]

    def __repr__(self):
        ids = self.quantale.elements
        rows = "; ".join(" ".join(ids[v] for v in row) for row in self.entries)
        return f"QRel({self.dom.name}->{self.cod.name} [{rows}])"


SupportPair = namedtuple("SupportPair", "supp cosupp")


def _check_same_quantale(f, g):
    if f.quantale != g.quantale:
        raise QuantaleError("relations live over different quantales")


def _as_scalar_index(q, s):
    if isinstance(s, int):
        if not 0 <= s < q.size:
            raise QuantaleError(f"scalar index {s} out of range")
        return s
    return q.index(s)


# -- constructors ---------------------------------------------------------------


def rel(q, dom, cod, pairs=None):
    """Relation with the given {(x, y): element id} entries; omitted cells are bottom."""
    b = q.bottom
    rows = [[b] * cod.size for _ in range(dom.size)]
    for (x, y), v in (pairs or {}).items():
        rows[dom.index(x)][cod.index(y)] = _as_scalar_index(q, v)
    return QRel(q, dom, cod, tuple(tuple(r) for r in rows))


def zero_rel(q, dom, cod):
    return rel(q, dom, cod)


def identity_rel(q, x):
    u = q.unit
    b = q.bottom
    rows = tuple(tuple(u if i == j else b for j in range(x.size)) for i in range(x.size))
    return QRel(q, x, x, rows)


def diag_rel(q, x, values):
    """Diagonal relation with the given per-point scalars."""
    vals = [_as_scalar_index(q, v) for v in values]
    b = q.bottom
    rows = tuple(tuple(vals[i] if i == j else b for j in range(x.size)) for i in range(x.size))
    return QRel(q, x, x, rows)


def subset_idempotent(q, x, points):
    """The identity on a subset of the carrier, bottom elsewhere."""
    chosen = {x.index(p) for p in points}
    return diag_rel(q, x, [q.unit if i in chosen else q.bottom for i in range(x.size)])


UNIT_SET = FiniteSet("I", ("*",))


def scalar_rel(q, s):
    """The 1x1 relation on the monoidal unit carrying one scalar."""
    return QRel(q, UNIT_SET, UNIT_SET, ((_as_scalar_index(q, s),),))


# -- the dagger-semiring calculus ------------------------------------------------
#
# The _e_* kernels work on raw entry matrices (tuples of row tuples of element
# indices); the hot paths call them directly, the QRel operations wrap them.


def _e_compose(q, a, b):
    """Entry (x, z) = join_y a(x,y) * b(y,z)."""
    mul_t, join_t, bottom = q.mul_table, q.join_table, q.bottom
    bcols = tuple(zip(*b))
    out = []
    for arow in a:
        row = []
        for bcol in bcols:
            acc = bottom
            for x, y in zip(arow, bcol):
                acc = join_t[acc][mul_t[x][y]]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _e_join(q, a, b):
    join_t = q.join_table
    return tuple(tuple(join_t[x][y] for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _e_dagger(q, a):
    inv = q.involution
    return tuple(tuple(inv[v] for v in col) for col in zip(*a))


def _e_scalar(q, s, a):
    mul_t = q.mul_table
    return tuple(tuple(mul_t[s][v] for v in row) for row in a)


def compose(f, g):
    """Diagrammatic composite (f then g): entry (x, z) = join_y f(x,y) * g(y,z)."""
    _check_same_quantale(f, g)
    if f.cod != g.dom:
        raise ValueError(f"middle object mismatch: {f.cod.name} vs {g.dom.name}")
    if not g.entries:  # empty middle object: every entry is the empty join
        return zero_rel(f.quantale, f.dom, g.cod)
    return QRel(f.quantale, f.dom, g.cod, _e_compose(f.quantale, f.entries, g.entries))


def dagger(f):
    """Transpose with the involution applied entrywise."""
    rows = _e_dagger(f.quantale, f.entries) if f.entries else ((),) * f.cod.size
    return QRel(f.quantale, f.cod, f.dom, rows)


def add(f, g):
    """Pointwise join; the biproduct-convolution sum."""
    _check_same_quantale(f, g)
    if f.dom != g.dom or f.cod != g.cod:
        raise ValueError("shape mismatch")
    return QRel(f.quantale, f.dom, f.cod, _e_join(f.quantale, f.entries, g.entries))


def scalar_mul(s, f):
    """Entrywise multiplication by a scalar."""
    q = f.quantale
    return QRel(q, f.dom, f.cod, _e_scalar(q, _as_scalar_index(q, s), f.entries))


def tensor(f, g):
    """Kronecker-style product on the cartesian product of carriers."""
    _check_same_quantale(f, g)
    q = f.quantale
    mul = q.mul_table
    dom = product_set(f.dom, g.dom)
    cod = product_set(f.cod, g.cod)
    rows = []
    for fr in f.entries:
        for gr in g.entries:
            rows.append(tuple(mul[a][b] for a in fr for b in gr))
    return QRel(q, dom, cod, tuple(rows))


def support(f):
    """Points with a non-bottom entry in their row (supp) resp. column (cosupp)."""
    b = f.quantale.bottom
    supp = tuple(f.dom.elements[x] for x in range(f.dom.size)
                 if any(v != b for v in f.entries[x]))
    cosupp = tuple(f.cod.elements[y] for y in range(f.cod.size)
                   if any(f.entries[x][y] != b for x in range(f.dom.size)))
    return SupportPair(supp, cosupp)


def is_normal(f):
    return compose(f, dagger(f)) == compose(dagger(f), f)


# -- blocks ----------------------------------------------------------------------


def _check_partition(whole, parts):
    seen = []
    for part in parts:
        seen.extend(part)
    if sorted(map(repr, seen)) != sorted(map(repr, whole.elements)) or \
            len(seen) != len(set(seen)):
        raise ValueError(f"parts do not partition {whole.name!r}")


def blocks(f, dom_parts, cod_parts):
    """Split f into the matrix of restrictions along carrier partitions."""
    _check_partition(f.dom, dom_parts)
    _check_partition(f.cod, cod_parts)
    q = f.quantale
    out = []
    for i, dpart in enumerate(dom_parts):
        row = []
        dsub = FiniteSet(f"{f.dom.name}[{i}]", tuple(dpart))
        didx = [f.dom.index(p) for p in dpart]
        for j, cpart in enumerate(cod_parts):
            csub = FiniteSet(f"{f.cod.name}[{j}]", tuple(cpart))
            cidx = [f.cod.index(p) for p in cpart]
            ent = tuple(tuple(f.entries[x][y] for y in cidx) for x in didx)
            row.append(QRel(q, dsub, csub, ent))
        out.append(row)
    return out


def reassemble(block_matrix, dom, cod):
    """Inverse of blocks: rebuild the relation on the original carriers."""
    q = block_matrix[0][0].quantale
    b = q.bottom
    rows = [[b] * cod.size for _ in range(dom.size)]
    for brow in block_matrix:
        for blk in brow:
            for x, p in enumerate(blk.dom.elements):
                for y, r in enumerate(blk.cod.elements):
                    rows[dom.index(p)][cod.index(r)] = blk.entries[x][y]
    return QRel(q, dom, cod, tuple(tuple(r) for r in rows))


# -- biproducts and the convolution oracle -----------------------------------------


def direct_sum_set(x, y):
    """Disjoint union with tagged points (0, p) and (1, r)."""
    pts = tuple((0, p) for p in x.elements) + tuple((1, r) for r in y.elements)
    return FiniteSet(f"({x.name}+{y.name})", pts)


def product_set(x, y):
    pts = tuple((p, r) for p in x.elements for r in y.elements)
    return FiniteSet(f"({x.name}*{y.name})", pts)


def oplus(f, g):
    """Block-diagonal sum on the disjoint unions of carriers."""
    _check_same_quantale(f, g)
    q = f.quantale
    dom = direct_sum_set(f.dom, g.dom)
    cod = direct_sum_set(f.cod, g.cod)
    b = q.bottom
    rows = []
    for x in range(f.dom.size):
        rows.append(tuple(f.entries[x]) + (b,) * g.cod.size)
    for x in range(g.dom.size):
        rows.append((b,) * f.cod.size + tuple(g.entries[x]))
    return QRel(q, dom, cod, tuple(rows))


def diagonal_map(q, x):
    """The pairing <id, id>: X -> X (+) X."""
    ds = direct_sum_set(x, x)
    return rel(q, x, ds, {(p, (i, p)): q.elements[q.unit]
                          for p in x.elements for i in (0, 1)})


def codiagonal_map(q, x):
    """The copairing [id, id]: X (+) X -> X; the dagger of the pairing."""
    return dagger(diagonal_map(q, x))


def add_via_biproduct(f, g):
    """The convolution computed literally: pairing, then f (+) g, then copairing."""
    q = f.quantale
    composite = compose(compose(diagonal_map(q, f.dom), oplus(f, g)),
                        codiagonal_map(q, f.cod))
    return QRel(q, f.dom, f.cod, composite.entries)


def right_unitor(q, x):
    """X -> X (x) I, matching each point with its pair."""
    return rel(q, x, product_set(x, UNIT_SET),
               {(p, (p, "*")): q.elements[q.unit] for p in x.elements})


def scalar_mul_via_tensor(s, f):
    """Scalar action computed through the unitors and the tensor with a 1x1 scalar."""
    q = f.quantale
    composite = compose(compose(right_unitor(q, f.dom), tensor(f, scalar_rel(q, s))),
                        dagger(right_unitor(q, f.cod)))
    return QRel(q, f.dom, f.cod, composite.entries)


# -- JSON literals ------------------------------------------------------------------


def rel_to_doc(f):
    b = f.quantale.bottom
    ids = f.quantale.elements
    entries = []
    for x, p in enumerate(f.dom.elements):
        for y, r in enumerate(f.cod.elements):
            v = f.entries[x][y]
            if v != b:
                entries.append([p, r, ids[v]])
    return {"dom": list(f.dom.elements), "cod": list(f.cod.elements),
            "entries": entries}


def rel_from_doc(q, doc, dom_name="X", cod_name="Y"):
    dom = FiniteSet(dom_name, tuple(doc["dom"]))
    cod = FiniteSet(cod_name, tuple(doc["cod"]))
    return rel(q, dom, cod, {(x, y): v for x, y, v in doc.get("entries", [])})


# -- iteration helpers ---------------------------------------------------------------


def all_relations(q, dom, cod):
    """Every relation dom -> cod, in lexicographic entry order."""
    cells = dom.size * cod.size
    for flat in itertools.product(range(q.size), repeat=cells):
        rows = tuple(flat[i * cod.size:(i + 1) * cod.size] for i in range(dom.size))
        yield QRel(q, dom, cod, rows)


def hom_size(q, x):
    return q.size ** (x.size * x.size)
