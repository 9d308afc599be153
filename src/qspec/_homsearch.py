"""Exhaustive enumeration of *-semiring homomorphisms between finite tables.

Both quantale endomorphisms and spectrum characters are instances of the same
search: a map between two finite *-semirings (elements indexed 0..n-1, with
addition/multiplication/involution given by tables) that preserves zero, one,
addition, multiplication and the involution.  The search assigns images in
index order and checks each constraint at the first position where all of its
participants are assigned, so pruning happens as early as possible.
``is_hom`` checks one given map against the same laws; it serves both
quantale maps and characters.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TableSemiring:
    """A finite *-semiring presented by index tables."""

    size: int
    add: tuple      # add[i][j] -> index
    mul: tuple
    star: tuple     # star[i] -> index
    zero: int
    one: int


def enumerate_homs(src: TableSemiring, dst: TableSemiring):
    """Yield every homomorphism src -> dst as a tuple of dst indices.

    A homomorphism sends zero to zero, one to one, and commutes with
    addition, multiplication and the involution.  Both operations are
    assumed commutative (only the lower triangle of each table is checked).
    Output order is lexicographic in the image tuple.
    """
    n = src.size
    # Constraint triples (i, j, k) with op(i, j) = k, grouped by the largest
    # index involved; same for involution pairs.
    add_by_max = [[] for _ in range(n)]
    mul_by_max = [[] for _ in range(n)]
    star_by_max = [[] for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            k = src.add[i][j]
            add_by_max[max(i, j, k)].append((i, j, k))
            k = src.mul[i][j]
            mul_by_max[max(i, j, k)].append((i, j, k))
        s = src.star[i]
        star_by_max[max(i, s)].append((i, s))

    image = [None] * n
    dadd, dmul, dstar = dst.add, dst.mul, dst.star

    def consistent(pos):
        v = image[pos]
        if pos == src.zero and v != dst.zero:
            return False
        if pos == src.one and v != dst.one:
            return False
        for (i, j, k) in add_by_max[pos]:
            if dadd[image[i]][image[j]] != image[k]:
                return False
        for (i, j, k) in mul_by_max[pos]:
            if dmul[image[i]][image[j]] != image[k]:
                return False
        for (i, s) in star_by_max[pos]:
            if dstar[image[i]] != image[s]:
                return False
        return True

    def search(pos):
        if pos == n:
            yield tuple(image)
            return
        for v in range(dst.size):
            image[pos] = v
            if consistent(pos):
                yield from search(pos + 1)
        image[pos] = None

    yield from search(0)


def is_hom(src: TableSemiring, dst: TableSemiring, image):
    """Check one image tuple against every law, over all pairs of indices.

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
