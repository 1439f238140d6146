"""A fixed pure-Python reference task that measures how fast the host runs
right now.

The benchmark runs on shared hosts whose speed drifts by half or more for
tens of seconds at a time, far beyond what a code change is expected to
move.  Workers therefore time ``run()`` after every job, and ``run.py``
divides each job's time by the reference time around it.  The task never
imports the library and only this file defines it, so a change to the
library leaves its cost alone: a quotient moves with the program, not with
the host.

The work imitates the library's hot loops on a fixed order-7 Alexander
biquandle: a depth-first labeling count over a closed-braid diagram, a
backtracking automorphism search, an axiom scan over all triples, and
tuple-keyed dictionary churn.  One call takes about 1 ms on a 2-core
x86-64 VM with CPython 3.11.
"""

N = 7
S, T = 5, 3
# x^y = t x + (1 - s t) y and y_x = s y on Z_7
UP = tuple(tuple((T * x + (1 - S * T) * y) % N for y in range(N))
           for x in range(N))
DOWN = tuple(tuple((S * x) % N for _ in range(N)) for x in range(N))
# (under in, over in, under out, over out) of a closed 5-crossing braid
CROSSINGS = tuple((i, (i + 2) % 10, (i + 1) % 10, (i + 3) % 10)
                  for i in range(0, 10, 2))
ARCS = 10


def count_labelings():
    """Labelings of ``CROSSINGS`` by (``UP``, ``DOWN``), depth first."""
    labels = [None] * ARCS
    count = 0

    def dfs(i):
        nonlocal count
        if i == len(CROSSINGS):
            count += 1
            return
        ui, oi, uo, oo = CROSSINGS[i]
        for a in range(N) if labels[ui] is None else (labels[ui],):
            for b in range(N) if labels[oi] is None else (labels[oi],):
                u, d = UP[a][b], DOWN[b][a]
                if labels[uo] is not None and labels[uo] != u:
                    continue
                if labels[oo] is not None and labels[oo] != d:
                    continue
                saved = labels[ui], labels[oi], labels[uo], labels[oo]
                labels[ui], labels[oi], labels[uo], labels[oo] = a, b, u, d
                dfs(i + 1)
                labels[ui], labels[oi], labels[uo], labels[oo] = saved

    dfs(0)
    return count


def automorphisms():
    """Permutations of Z_7 preserving both operations, by backtracking."""
    perm = [None] * N
    used = [False] * N
    found = 0

    def consistent(k):
        for x in range(k + 1):
            for y in range(k + 1):
                px, py = perm[x], perm[y]
                u = UP[x][y]
                if u <= k and perm[u] != UP[px][py]:
                    return False
                d = DOWN[x][y]
                if d <= k and perm[d] != DOWN[px][py]:
                    return False
        return True

    def extend(k):
        nonlocal found
        if k == N:
            found += 1
            return
        for v in range(N):
            if not used[v]:
                perm[k], used[v] = v, True
                if consistent(k):
                    extend(k + 1)
                used[v] = False
        perm[k] = None

    extend(0)
    return found


def axiom_failures():
    """Triples failing the two exchange laws (none for a biquandle)."""
    bad = 0
    for x in range(N):
        for y in range(N):
            for z in range(N):
                if UP[UP[x][y]][z] != UP[UP[x][z]][DOWN[z][y]]:
                    bad += 1
                if DOWN[DOWN[x][y]][z] != DOWN[DOWN[x][z]][UP[z][y]]:
                    bad += 1
    return bad


def dict_churn():
    """Tuple-keyed dictionary building, as in table and orbit code."""
    seen = {}
    for r in range(12):
        for a in range(N):
            for b in range(N):
                c = UP[a][b]
                seen[(a, b, c, r % 3)] = DOWN[b][c]
    return len(seen)


# what run() returns: labelings, automorphisms, axiom failures, dict size
EXPECTED = (1, 6, 0, 147)


def run():
    """One reference task; returns its results so that they can be
    checked against ``EXPECTED``."""
    return (count_labelings(), automorphisms(), axiom_failures(),
            dict_churn())
