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

from collections import namedtuple
from functools import lru_cache
from operator import getitem

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

    def __repr__(self):
        ids = self.quantale.elements
        rows = "; ".join(" ".join(ids[v] for v in row) for row in self.entries)
        return f"QRel({self.dom.name}->{self.cod.name} [{rows}])"


def _check_same_quantale(f, g):
    if f.quantale is not g.quantale and f.quantale != g.quantale:
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
    lookup = q.join_table.__getitem__
    return tuple([tuple(map(getitem, map(lookup, ra), rb)) for ra, rb in zip(a, b)])


def _e_dagger(q, a):
    inv = q.involution.__getitem__
    return tuple([tuple(map(inv, col)) for col in zip(*a)])


def _e_scalar(q, s, a):
    times = q.mul_table[s].__getitem__
    return tuple([tuple(map(times, row)) for row in a])


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
    rows = tuple(tuple(mul[a][b] for a in fr for b in gr)
                 for fr in f.entries for gr in g.entries)
    return QRel(q, dom, cod, rows)


# -- biproducts and the convolution oracle -----------------------------------------
# The structure maps are pure, so each keeps its last 32 results.


@lru_cache(maxsize=32)
def direct_sum_set(x, y):
    """Disjoint union with tagged points (0, p) and (1, r)."""
    pts = tuple((0, p) for p in x.elements) + tuple((1, r) for r in y.elements)
    return FiniteSet(f"({x.name}+{y.name})", pts)


@lru_cache(maxsize=32)
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
    rows = ([tuple(f.entries[x]) + (b,) * g.cod.size for x in range(f.dom.size)]
            + [(b,) * f.cod.size + tuple(g.entries[x]) for x in range(g.dom.size)])
    return QRel(q, dom, cod, tuple(rows))


@lru_cache(maxsize=32)
def diagonal_map(q, x):
    """The pairing <id, id>: X -> X (+) X."""
    ds = direct_sum_set(x, x)
    return rel(q, x, ds, {(p, (i, p)): q.elements[q.unit]
                          for p in x.elements for i in (0, 1)})


@lru_cache(maxsize=32)
def codiagonal_map(q, x):
    """The copairing [id, id]: X (+) X -> X; the dagger of the pairing."""
    return dagger(diagonal_map(q, x))


def add_via_biproduct(f, g):
    """The convolution computed literally: pairing, then f (+) g, then copairing."""
    q = f.quantale
    composite = compose(compose(diagonal_map(q, f.dom), oplus(f, g)),
                        codiagonal_map(q, f.cod))
    return QRel(q, f.dom, f.cod, composite.entries)


@lru_cache(maxsize=32)
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
