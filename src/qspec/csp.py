"""Small binary CSP solver: AC-3 prefilter, then lexicographic backtracking.

Variables are integers 0..n-1, domains are sorted value lists, constraints
are allowed-pair sets between two variables.  solve_all enumerates every
solution in lexicographic order, which keeps downstream reports deterministic.

No pipeline stage calls it: the section search in ``qspec.contextuality``
works on the restriction tables directly, and this generic route is the
oracle the tests check that search against.  It stays in the package
because the per-layer benchmark tracer (``perfbench/layer_trace.py``) names
``csp.solve_all`` and ``csp.ac3``, and a test requires every traced name to
resolve.
"""

from collections import deque


def ac3(domains, constraints):
    """Prune domains to arc consistency in place.

    constraints: dict (i, j) -> set of allowed (vi, vj) pairs.  Returns False
    if some domain empties out.
    """
    arcs = deque()
    neighbours = {}
    for (i, j) in constraints:
        neighbours.setdefault(i, []).append(j)
        neighbours.setdefault(j, []).append(i)
        arcs.append((i, j))
        arcs.append((j, i))

    def allowed(i, j, vi, vj):
        if (i, j) in constraints:
            return (vi, vj) in constraints[(i, j)]
        return (vj, vi) in constraints[(j, i)]

    while arcs:
        i, j = arcs.popleft()
        if (i, j) not in constraints and (j, i) not in constraints:
            continue
        pruned = [vi for vi in domains[i]
                  if not any(allowed(i, j, vi, vj) for vj in domains[j])]
        if pruned:
            domains[i] = [v for v in domains[i] if v not in pruned]
            if not domains[i]:
                return False
            for k in neighbours.get(i, []):
                if k != j:
                    arcs.append((k, i))
    return True


def solve_all(n_vars, domains, constraints):
    """All assignments satisfying every constraint, in lexicographic order."""
    domains = [sorted(d) for d in domains]
    constraints = {k: set(v) for k, v in constraints.items()}
    if not ac3(domains, constraints):
        return []
    by_var = {}
    for (i, j), allowed in constraints.items():
        by_var.setdefault(max(i, j), []).append((i, j, allowed))

    solutions = []
    assignment = [None] * n_vars

    def consistent(pos):
        for (i, j, allowed) in by_var.get(pos, ()):
            if (assignment[i], assignment[j]) not in allowed:
                return False
        return True

    def search(pos):
        if pos == n_vars:
            solutions.append(tuple(assignment))
            return
        for v in domains[pos]:
            assignment[pos] = v
            if consistent(pos):
                search(pos + 1)
        assignment[pos] = None

    search(0)
    return solutions
