"""Every hot-loop kernel, in one pure-Python module named by ``BACKEND``.

The library calls each kernel through this module's attributes
(``kernels.axiom_scan``), so tests and the benchmark tracer can rebind it.
All kernels work on 0-based flattened operation tables (``t[i*n + j]`` is the
result of element ``i`` operated by element ``j``).  The public library wraps
these with the 1-based table objects.  The map search (``iter_maps``) reads
the tables it is handed and knows nothing of the four biquandle operations.

Clause codes index ``CLAUSE_IDS`` below.  Axioms 2 and 4 quantify one unknown
jointly over a group of clauses ("there are unique x, y such that ..."), so a
group passes iff exactly one element satisfies all member clauses at once.
A failing group is blamed on each member clause that individually lacks a
unique solution, or on the group's first clause when the members solve
uniquely but disagree.
"""

import itertools
from collections import Counter
from operator import eq, itemgetter

BACKEND = "pure"

# largest {labels of open arcs: count} map diagram_count builds
MAX_STATES = 1 << 20

CLAUSE_IDS = (
    "1.i", "1.ii", "1.iii", "1.iv",
    "2.i", "2.ii", "2.iii", "2.iv", "2.v", "2.vi",
    "3.i", "3.ii", "3.iii", "3.iv", "3.v", "3.vi",
    "4.i", "4.ii", "4.iii", "4.iv",
)


def axiom_scan(n, up, down, upbar, downbar):
    """Scan all biquandle axiom clauses; return [(clause_code, witness)].

    Witnesses are 0-based tuples: (a, b) for axioms 1-2, (a, b, c) for
    axiom 3, (a,) for axiom 4; every violation is listed, at every pair,
    triple and element.  A table known to be affine is decided first by
    ``affine_verdict``; this scan is what reports its violations.

    The barred operations invert S(a, b) = (b_a, a^b), so each barred
    clause is an unbarred one read on mirrored tables, and each clause
    group is written once and run over two sides:

    - axiom 1: codes 2..3 are codes 0..1 on (upbar, downbar, up, down) in
      place of (up, down, upbar, downbar);
    - axiom 2: the y-group (codes 7..9) is the x-group (codes 4..6) on
      (upbar, downbar, up, down) in place of (up, down, upbar, downbar);
    - axiom 3: the barred clauses (codes 13..15) are ``_axiom3`` (codes
      10..12) on upbar and downbar in place of up and down;
    - axiom 4: the y-group (codes 18..19) is the x-group (codes 16..17) on
      (upbar, downbar) in place of (down, up).

    Violations come in element-wise order: per pair (a, b) axiom 1 on both
    sides, the axiom-2 x-group, then its y-group; then axiom 3 by (a, b, c);
    then axiom 4 by a, x-group first.

    Axioms 2 and 3 are scanned on two levels.  First a whole-row pass
    decides each pair (a, b): clause 2.ii pins a = x^bar b, so one O(n)
    pass per b and side counts each axiom-2 group's joint solutions for
    every a, and the axiom-3 clauses are compared as whole lists over c,
    gathered from the tables' rows and columns.  Only a pair that fails
    there is looked at element by element (axiom 2 recomputes each clause's
    solutions to assign blame; axiom 3 walks c through the same lists).
    """
    out = []

    def group(head, wit, *sols):
        """Joint existence-and-uniqueness check for one clause group."""
        joint = sols[0]
        for s in sols[1:]:
            joint = [x for x in joint if x in s]
        if len(joint) != 1:
            blamed = [head + off for off, s in enumerate(sols) if len(s) != 1]
            out.extend((code, wit) for code in blamed or [head])

    # per side: the axiom-1 and axiom-2 head codes, the tables in the roles
    # of (up, down, upbar, downbar), and joint[b][a], the number of x
    # solving the axiom-2 group of (a, b); x solves it only for a = x^bbar
    sides = []
    for one, head, op_u, op_d, op_ub, op_db in (
            (0, 4, up, down, upbar, downbar),
            (2, 7, upbar, downbar, up, down)):
        joint = [None] * n
        for b in range(n):
            cnt = joint[b] = [0] * n
            for x in range(n):
                a = op_ub[x * n + b]
                bx = op_db[b * n + x]
                if x == op_u[a * n + bx] and b == op_d[bx * n + a]:
                    cnt[a] += 1
        sides.append((one, head, op_u, op_d, op_ub, op_db, joint))

    for a, b in itertools.product(range(n), repeat=2):
        # axiom 1: the side's barred pair inverts its unbarred pair
        for one, _, op_u, op_d, op_ub, op_db, _ in sides:
            u = op_u[a * n + b]
            d = op_d[b * n + a]
            if op_ub[u * n + d] != a:
                out.append((one, (a, b)))
            if op_db[d * n + u] != b:
                out.append((one + 1, (a, b)))

        # axiom 2: x = a^(b_xbar), a = x^bbar, b = (b_xbar)_a
        for _, head, op_u, op_d, op_ub, op_db, joint in sides:
            if joint[b][a] != 1:
                s1 = [x for x in range(n)
                      if x == op_u[a * n + op_db[b * n + x]]]
                s2 = [x for x in range(n) if a == op_ub[x * n + b]]
                s3 = [x for x in range(n)
                      if b == op_d[op_db[b * n + x] * n + a]]
                group(head, (a, b), s1, s2, s3)

    # axiom 3 over all c at once
    rows = _rows(n, up, down)
    rows_bar = _rows(n, upbar, downbar)
    for a, b in itertools.product(range(n), repeat=2):
        lhs, rhs = _axiom3(*rows, a, b)
        lhs_bar, rhs_bar = _axiom3(*rows_bar, a, b)
        if lhs == rhs and lhs_bar == rhs_bar:
            continue
        # codes 10..12 unbarred, 13..15 barred
        lhs, rhs = lhs + lhs_bar, rhs + rhs_bar
        for c in range(n):
            for k in range(6):
                if lhs[k][c] != rhs[k][c]:
                    out.append((10 + k, (a, b, c)))

    # axiom 4: x = a_x, a = x^a
    for a in range(n):
        for head, op_d, op_u in ((16, down, up), (18, upbar, downbar)):
            s1 = [x for x in range(n) if x == op_d[a * n + x]]
            s2 = [x for x in range(n) if a == op_u[x * n + a]]
            group(head, (a,), s1, s2)

    return out


def affine_verdict(n, up, down, upbar, downbar, basis):
    """True iff the table passes every axiom, decided on generator points.

    The caller vouches that the four operations are affine maps of Z_m^k
    and that ``basis`` (z, e_1, ..., e_k) holds the indices of its zero and
    unit vectors; ``axioms.verify_biquandle`` says why these points decide
    each axiom.  Builds no rows and reports no violations:

    - axiom 1 on both sides at the 1 + 2k pairs (z, z), (e_i, z), (z, e_i);
    - axiom 2 as column z of down and of downbar being permutations;
    - axiom 3 by clauses 3.i and 3.ii at the 1 + 2k triples (a, b, z) for
      those pairs (a, b), by flat indexing; with axioms 1, 2 and 4 they
      imply the other four clauses at every triple;
    - axiom 4 at the 1 + k basis elements, each group by its count of x.
    """
    z, units = basis[0], basis[1:]
    pairs = [(z, z)] + [(e, z) for e in units] + [(z, e) for e in units]
    for op_u, op_d, op_ub, op_db in ((up, down, upbar, downbar),
                                     (upbar, downbar, up, down)):
        for a, b in pairs:
            u = op_u[a * n + b]
            d = op_d[b * n + a]
            if op_ub[u * n + d] != a or op_db[d * n + u] != b:
                return False

    if len(set(down[z::n])) != n or len(set(downbar[z::n])) != n:
        return False

    c = z
    for a, b in pairs:
        ab, ba = up[a * n + b], down[b * n + a]
        cb, bc = down[c * n + b], up[b * n + c]
        a_cb, c_ab = up[a * n + cb], down[c * n + ab]
        # 3.i and 3.ii as in ``_axiom3``
        if (up[ab * n + c] != up[a_cb * n + bc]
                or down[cb * n + a] != down[c_ab * n + ba]):
            return False

    # axiom 4: one x with x = a_x and a = x^a, among the fixed points x
    # of row a of down
    cols = range(n)
    for op_d, op_u in ((down, up), (upbar, downbar)):
        for a in basis:
            fixed = itertools.compress(cols, map(eq, op_d[a * n:a * n + n],
                                                 cols))
            if sum(op_u[x * n + a] == a for x in fixed) != 1:
                return False
    return True


def _rows(n, up, down):
    """Rows of ``up`` and columns of ``down`` of flat tables, as sequences
    over c: rows[i][c] = i^c and cols[j][c] = c_j, the tables ``_axiom3``
    reads."""
    return (list(map(list, zip(*[iter(up)] * n))),
            [down[j::n] for j in range(n)])


def _axiom3(ur, dc, a, b):
    """Left and right sides, as lists over c, of one bar type's clauses,
    read from the rows ``ur`` of up and the columns ``dc`` of down."""
    ra, ca = ur[a], dc[a]
    ab, ba = ra[b], ca[b]
    cb, c_ab, bc = dc[b], dc[ab], ur[b]
    rba, cba = ur[ba], dc[ba]
    a_cb = [ra[i] for i in cb]
    # 3.i: (a^b)^c = (a^(c_b))^(b^c)
    # 3.ii: (c_b)_a = (c_(a^b))_(b_a)
    # 3.iii: (b_a)^(c_(a^b)) = (b^c)_(a^(c_b))
    return ((ur[ab], [ca[i] for i in cb], [rba[i] for i in c_ab]),
            ([ur[i][j] for i, j in zip(a_cb, bc)],
             [cba[i] for i in c_ab],
             [dc[j][i] for i, j in zip(bc, a_cb)]))


def yang_baxter(n, up, down):
    """True iff S(a,b) = (b_a, a^b) is a bijection satisfying the YBE.

    The three components of (SxI)(IxS)(SxI) = (IxS)(SxI)(IxS) on (a, b, c)
    are the unbarred axiom-3 clauses, compared over all c at once.
    """
    pairs = list(itertools.product(range(n), repeat=2))
    if len({(down[b * n + a], up[a * n + b]) for a, b in pairs}) < n * n:
        return False
    rows = _rows(n, up, down)
    return all(lhs == rhs for lhs, rhs in
               (_axiom3(*rows, a, b) for a, b in pairs))


def _profiles(n, tables):
    """Per-element fingerprints preserved by bijective table-preserving maps.

    Element a gets one (rowfix, colfix, selffix) triple per table: how many
    b have t(a, b) = a (counted in row a), how many b have t(b, a) = b
    (column a against 0..n-1), and whether t(a, a) = a.
    """
    cols = range(n)
    per_table = [[(t[a * n:a * n + n].count(a), sum(map(eq, t[a::n], cols)),
                   t[a * n + a] == a) for a in cols] for t in tables]
    return list(zip(*per_table)) or [()] * n


def search_maps(n_src, src, n_dst, dst, require_bijection=True, fixed=(),
                find_all=False):
    """Table-preserving maps src -> dst, collected from ``iter_maps``.

    Returns (maps, stats): every map when ``find_all`` is set, otherwise at
    most the first, as length-n_src tuples in search order, and the search
    counters ``iter_maps`` fills in.
    """
    stats = {}
    maps = list(itertools.islice(
        iter_maps(n_src, src, n_dst, dst, stats, require_bijection, fixed),
        None if find_all else 1))
    return maps, stats


def iter_maps(n_src, src, n_dst, dst, stats, require_bijection=True,
              fixed=(), use_profiles=True):
    """Backtracking search for table-preserving maps src -> dst.

    ``src``/``dst`` are equal-length sequences of flat binary-operation
    tables; a map must carry each table of ``src`` onto its partner in
    ``dst``, and the caller chooses which tables to hand over.  ``fixed``
    pre-assigns (i, j) pairs.  The search branches on the first unassigned
    element and tries its images in increasing order.  Assigning f(i)
    propagates every consequence f(t(i, i2)) = t'(f(i), f(i2)) over
    already-assigned i2 before the next branch, so branching happens only
    at genuinely free elements.  Every element before the branch element is
    assigned already, so propagation only fills later ones, and the maps
    come out in increasing lexicographic order of their image tuples;
    ``fixed`` and the profile filter remove maps but never reorder them.

    The profile filter (bijections only) rejects f(i) = j when i and j
    have different fixed-point profiles on the tables searched.  It stays
    because propagation alone is not enough.  On the up and down tables of
    every ordered pair of scalar tables over Z_2, ..., Z_12, the first-map
    searches took 1.36 s in all with the filter and 1.88 s without, and
    the Z_12 pair (s, t) = (7, 7) against (5, 5) went from 0.06 to 236 ms.
    On the ``Z_4^3`` pair s = I, t = diag(3, 1, 1) against its swap the
    filter rejects all 64 candidates in 1.4 ms; without it the search did
    not finish in 40 s.  (Pure Python 3.11 on a shared 2-core machine.)
    The isomorphism deciders hand it only the tables that determine their
    map: up and down for biquandles (see ``isomorphism.brute_force_iso``),
    the one table of x * y = s.x + t.y for submodules (see
    ``modules._star_table``).

    A generator: it yields each map as a length-n_src tuple only when asked
    for the next one.  It fills ``stats`` with counts of candidates, prunes
    by reason, and constraint evaluations ("work"), up to the last map
    taken.
    """
    ops = list(zip(src, dst))
    stats.update(candidates=0, work=0,
                 prunes={"profile": 0, "used": 0, "conflict": 0})
    if require_bijection and n_src != n_dst:
        return

    ps = pd = None
    if use_profiles and require_bijection:
        ps = _profiles(n_src, src)
        pd = _profiles(n_dst, dst)

    f = [-1] * n_src
    finv = [-1] * n_dst if require_bijection else None
    assigned = []

    def propagate(queue):
        """Apply queued assignments plus consequences, which the walk over
        ``queue`` reaches as they are appended; the prune reason, or None."""
        for i, j in queue:
            if f[i] != -1:
                if f[i] != j:
                    return "conflict"
                continue
            if ps is not None and ps[i] != pd[j]:
                return "profile"
            if finv is not None:
                if finv[j] != -1:
                    return "used"
                finv[j] = i
            f[i] = j
            assigned.append(i)
            for i2 in assigned:
                j2 = f[i2]
                for ts, td in ops:
                    stats["work"] += 2
                    r = ts[i * n_src + i2]
                    req = td[j * n_dst + j2]
                    if f[r] == -1:
                        queue.append((r, req))
                    elif f[r] != req:
                        return "conflict"
                    if i2 != i:
                        r = ts[i2 * n_src + i]
                        req = td[j2 * n_dst + j]
                        if f[r] == -1:
                            queue.append((r, req))
                        elif f[r] != req:
                            return "conflict"
        return None

    def undo(mark):
        """Unassign the elements assigned since len(assigned) was mark."""
        for i in assigned[mark:]:
            if finv is not None:
                finv[f[i]] = -1
            f[i] = -1
        del assigned[mark:]

    def dfs():
        if len(assigned) == n_src:
            yield tuple(f)
            return
        i = f.index(-1)
        mark = len(assigned)
        for j in range(n_dst):
            stats["candidates"] += 1
            reason = propagate([(i, j)])
            if reason is None:
                yield from dfs()
            else:
                stats["prunes"][reason] += 1
            undo(mark)

    reason = propagate(list(fixed))
    if reason is not None:
        stats["prunes"][reason] += 1
        return
    yield from dfs()


def diagram_count(n_arcs, crossings, n, up, down, keep=False,
                  relations=None):
    """Count semi-arc labelings consistent at every crossing.

    ``crossings`` holds (sign, under_in, over_in, under_out, over_out) with
    0-based arc ids, and ``up`` and ``down`` give the switch
    S(a, b) = (b_a, a^b) of a biquandle.  A frontier contraction, the
    state-sum view of Carter, Jelsovsky, Kamada, Langford and Saito: a map
    {labels of open arcs: count} absorbs the crossing sharing the most open
    arcs (then opening the fewest, then first listed).  An arc is summed
    out once both of its crossing slots are done; with ``keep`` none is,
    so the final keys are the full labelings.

    A crossing's valid rows come from the n^2 quads (x, y, x^y, y_x), built
    only when a call meets a pattern it has no relation for.  A negative
    crossing's quads (x, y, x^ybar, y_xbar) are (a^b, b_a, a, b), since
    the barred operations invert S, so it reads as a positive one on
    (under_out, over_out, under_in, over_in).  Its relation keeps the quads
    that agree on tied slots (an arc met twice, as at a kink) and groups
    them as {labels of shared arcs: (labels of new arcs, ...)}; it depends
    only on up, down and the crossing's pattern (ties, shared slots, new
    slots), so ``relations``, a {pattern: relation} dict for these up and
    down tables, holds each one once.  ``count_homs`` passes the target's
    own, so a relation is built once per crossing pattern and target,
    kept on the target; None gives a fresh dict per call.  States join it
    through tuple projections.  More than ``MAX_STATES`` states raise
    ``ValueError``.  Returns (count, sorted 0-based assignments or None).
    """
    left = Counter(arc for crossing in crossings for arc in crossing[1:])
    free = [a for a in range(n_arcs) if not left[a]]
    opened = free if keep else []
    states = dict.fromkeys(itertools.product(range(n), repeat=len(opened)),
                           n ** (len(free) - len(opened)))
    arc_sets = [set(crossing[1:]) for crossing in crossings]
    quads, relations = None, {} if relations is None else relations
    todo = list(range(len(crossings)))
    while todo:
        pos = {a: i for i, a in enumerate(opened)}
        best = min(todo, key=lambda c: (
            -len(arc_sets[c].intersection(pos)),
            len(arc_sets[c].difference(pos))))
        todo.remove(best)
        sign, *arcs = crossings[best]
        if sign < 0:
            arcs = arcs[2:] + arcs[:2]
        for arc in arcs:
            left[arc] -= 1
        ids = list(dict.fromkeys(arcs))
        shared = [pos[a] for a in ids if a in pos]
        new = [a for a in ids if a not in pos and (keep or left[a])]
        stay = [i for i, a in enumerate(opened) if keep or left[a]]
        opened = [opened[i] for i in stay] + new
        pattern = (tuple(map(arcs.index, arcs)),
                   tuple(arcs.index(a) for a in ids if a in pos),
                   tuple(map(arcs.index, new)))
        rel = relations.get(pattern)
        if rel is None:
            quads = quads or _quads(n, up, down)
            rel = relations[pattern] = _relation(quads, *pattern)
        rest, common, get = _proj(stay), _proj(shared), rel.get
        out = {}
        for key, cnt in states.items():
            head = rest(key)
            for tail in get(common(key), ()):
                k = head + tail
                out[k] = out.get(k, 0) + cnt
            if len(out) > MAX_STATES:
                raise ValueError(
                    f"labeling frontier exceeds {MAX_STATES} states")
        states = out
    if not keep:
        return sum(states.values()), None
    perm = sorted(range(n_arcs), key=opened.__getitem__)
    return len(states), sorted(map(_proj(perm), states))


def _quads(n, up, down):
    """(x, y, x^y, y_x) for every pair, x-major."""
    transposed = itertools.chain.from_iterable(down[x::n] for x in range(n))
    return [(x, y, u, o) for (x, y), u, o in zip(
        itertools.product(range(n), repeat=2), up, transposed)]


def _relation(quads, ties, key_slots, tail_slots):
    """{quad[key_slots]: (quad[tail_slots], ...)} over the quads with
    quad[ties[i]] == quad[i] for every slot i."""
    if ties != (0, 1, 2, 3):
        tied = itemgetter(*ties)
        quads = [q for q in quads if tied(q) == q]
    rel = {}
    for key, tail in zip(map(_proj(key_slots), quads),
                         map(_proj(tail_slots), quads)):
        rel.setdefault(key, []).append(tail)
    return {key: tuple(tails) for key, tails in rel.items()}


def _proj(slots):
    """Callable taking a tuple to the tuple of its items at ``slots``; a
    slice stands in for one slot or none, where itemgetter would not give a
    tuple."""
    if len(slots) > 1:
        return itemgetter(*slots)
    start = slots[0] if slots else 0
    return itemgetter(slice(start, start + len(slots)))
