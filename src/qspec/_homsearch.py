"""Exhaustive enumeration of *-semiring homomorphisms between finite tables.

Both quantale endomorphisms and spectrum characters are instances of the same
search: a map between two finite *-semirings (elements indexed 0..n-1, with
addition/multiplication/involution given by tables) that preserves zero, one,
addition, multiplication and the involution.  The search assigns images in
index order and checks each constraint at the first position where all of its
participants are assigned, so pruning happens as early as possible.

The search can also extend homomorphisms from a unital sub-*-semiring.  A
homomorphism restricts to one on every sub-*-semiring, so the homomorphisms
of the whole are exactly the extensions of those of the part; and since the
part is closed under the operations, every law whose operands both lie in it
already holds for each of its homomorphisms.  Only the remaining elements
are searched, against only the laws with an operand among them.  This is how
the characters of an algebra are grown from those of a subalgebra (the
Gelfand spectrum is a presheaf).
"""

from array import array
from collections import namedtuple
from operator import itemgetter


class TableSemiring(namedtuple("TableSemiring", "size add mul star zero one")):
    """A finite *-semiring presented by index tables on the elements
    0..size-1: add[i][j] and mul[i][j] are indices, star[i] is the index of
    the involute, zero and one are the indices of the units."""

    __slots__ = ()


def _typecode(limit):
    """The narrowest array typecode holding every index below limit."""
    return next(c for c in "BHIL" if 256 ** array(c).itemsize >= limit)


def tuple_getter(keys):
    """A function giving the items of its argument at the given keys, as a
    tuple.  For two or more keys it is operator.itemgetter, which gathers in
    C; that yields a bare item for one key and takes no empty key list, so
    those two cases get a tuple of their own."""
    keys = tuple(keys)
    if len(keys) > 1:
        return itemgetter(*keys)
    return lambda values: tuple(values[k] for k in keys)


def enumerate_homs(src: TableSemiring, dst: TableSemiring, fixed=(), bases=((),)):
    """Yield every homomorphism src -> dst whose values at the positions
    fixed equal one of bases, as a tuple of dst indices.

    A homomorphism sends zero to zero, one to one, and commutes with
    addition, multiplication and the involution.  Both operations are
    assumed commutative (only one of each pair (i, j), (j, i) is checked).
    fixed must index a unital sub-*-semiring of src, and each base must be a
    homomorphism from it, listing its values in the order of fixed; the laws
    among fixed elements are then not checked again, so the search costs
    O(gap * n) constraints for gap = n - len(fixed) new elements.  With
    nothing fixed it is the full search.  Output is grouped by base, and
    lexicographic in the remaining values within one base; callers that need
    an order sort.
    """
    n = src.size
    fixed = tuple(fixed)
    step = [-1] * n   # position -> the search step that assigns it; -1 if fixed
    new = sorted(set(range(n)).difference(fixed))
    for s, p in enumerate(new):
        step[p] = s
    # Constraint triples (i, j, k) with op(i, j) = k, grouped by the step at
    # which the last of them is assigned; same for involution pairs.  A pair
    # is listed at its newer operand, once.
    adds = [[] for _ in new]
    muls = [[] for _ in new]
    stars = [[] for _ in new]
    for s, i in enumerate(new):
        add_i, mul_i = src.add[i], src.mul[i]
        for j in range(n):
            if step[j] > s:
                continue
            k = add_i[j]
            adds[step[k] if step[k] > s else s].append((i, j, k))
            k = mul_i[j]
            muls[step[k] if step[k] > s else s].append((i, j, k))
        k = src.star[i]
        stars[step[k] if step[k] > s else s].append((i, k))
    # zero and one are pinned when the search assigns them
    candidates = [[v for v in range(dst.size)
                   if (p != src.zero or v == dst.zero) and (p != src.one or v == dst.one)]
                  for p in new]

    image = [None] * n
    dadd, dmul, dstar = dst.add, dst.mul, dst.star

    def consistent(s):
        for (i, j, k) in adds[s]:
            if dadd[image[i]][image[j]] != image[k]:
                return False
        for (i, j, k) in muls[s]:
            if dmul[image[i]][image[j]] != image[k]:
                return False
        for (i, k) in stars[s]:
            if dstar[image[i]] != image[k]:
                return False
        return True

    last = len(new) - 1
    for base in bases:
        for p, v in zip(fixed, base):
            image[p] = v
        if last < 0:
            yield tuple(image)
            continue
        # depth-first over the steps, one candidate iterator per open step
        trying = [iter(candidates[0])]
        while trying:
            s = len(trying) - 1
            pos = new[s]
            for v in trying[s]:
                image[pos] = v
                if consistent(s):
                    break
            else:
                trying.pop()
                continue
            if s == last:
                yield tuple(image)
            else:
                trying.append(iter(candidates[s + 1]))

