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


def axiom_scan(n, up, down, upbar, downbar, first_only=False, pairs=None,
               singles=None):
    """Scan all biquandle axiom clauses; return [(clause_code, witness)].

    Witnesses are 0-based tuples: (a, b) for axioms 1-2, (a, b, c) for
    axiom 3, (a,) for axiom 4.  With ``first_only`` (``satisfies_axioms``)
    the scan stops at the first violation; reports stay exhaustive.
    ``pairs`` limits axioms 1, 2 and 3 to those (a, b) pairs, axiom 3 over
    every c, and ``singles`` limits axiom 4 to those elements a; the default
    for each is all of them.  ``axioms.verify_biquandle`` passes the
    generator points that decide every axiom of an affine table.

    The barred operations invert S(a, b) = (b_a, a^b), so each barred
    clause is an unbarred one read on mirrored tables, and each clause
    group is written once and run over two sides:

    - axiom 2: the y-group (codes 7..9) is the x-group (codes 4..6) on
      (upbar, downbar, up, down) in place of (up, down, upbar, downbar);
    - axiom 3: the barred clauses (codes 13..15) are ``_axiom3`` (codes
      10..12) on upbar and downbar in place of up and down;
    - axiom 4: the y-group (codes 18..19) is the x-group (codes 16..17) on
      (upbar, downbar) in place of (down, up).

    Axiom 1 stays inline.  Violations come in element-wise order: per pair
    (a, b) axiom 1, the axiom-2 x-group, then its y-group; then axiom 3 by
    (a, b, c); then axiom 4 by a, x-group first.

    Axioms 2 and 3 are scanned on two levels.  First a whole-row pass
    decides each pair (a, b): clause 2.ii pins a = x^bar b, so one O(n)
    pass per b and side counts each axiom-2 group's joint solutions for
    every a, and the axiom-3 clauses are compared as whole lists over c,
    gathered from the tables' rows and columns.  Only a pair that fails
    there is looked at element by element (axiom 2 recomputes each clause's
    solutions to assign blame; axiom 3 walks c through the same lists).
    """
    out = []

    def emit(code, wit):
        out.append((code, wit))
        return first_only

    def group(head, wit, *sols):
        """Joint existence-and-uniqueness check for one clause group."""
        joint = sols[0]
        for s in sols[1:]:
            joint = [x for x in joint if x in s]
        if len(joint) == 1:
            return False
        blamed = [head + off for off, s in enumerate(sols) if len(s) != 1]
        for code in blamed or [head]:
            if emit(code, wit):
                return True
        return False

    def scan_pairs():
        if pairs is None:
            return itertools.product(range(n), repeat=2)
        return pairs

    # axiom 2 per side: the head code, the tables in the roles of (up,
    # down, upbar, downbar), and joint[b][a], the number of x solving the
    # group of (a, b); x solves it only for a = x^bbar
    sides = []
    for head, op_u, op_d, op_ub, op_db in ((4, up, down, upbar, downbar),
                                           (7, upbar, downbar, up, down)):
        joint = [None] * n
        for b in range(n) if pairs is None else {b for _, b in pairs}:
            cnt = joint[b] = [0] * n
            for x in range(n):
                a = op_ub[x * n + b]
                bx = op_db[b * n + x]
                if x == op_u[a * n + bx] and b == op_d[bx * n + a]:
                    cnt[a] += 1
        sides.append((head, op_u, op_d, op_ub, op_db, joint))

    for a, b in scan_pairs():
        u = up[a * n + b]
        d = down[b * n + a]
        ub = upbar[a * n + b]
        db = downbar[b * n + a]
        # axiom 1: the barred pair inverts the unbarred pair and back
        if upbar[u * n + d] != a and emit(0, (a, b)):
            return out
        if downbar[d * n + u] != b and emit(1, (a, b)):
            return out
        if up[ub * n + db] != a and emit(2, (a, b)):
            return out
        if down[db * n + ub] != b and emit(3, (a, b)):
            return out

        # axiom 2: x = a^(b_xbar), a = x^bbar, b = (b_xbar)_a
        for head, op_u, op_d, op_ub, op_db, joint in sides:
            if joint[b][a] != 1:
                s1 = [x for x in range(n)
                      if x == op_u[a * n + op_db[b * n + x]]]
                s2 = [x for x in range(n) if a == op_ub[x * n + b]]
                s3 = [x for x in range(n)
                      if b == op_d[op_db[b * n + x] * n + a]]
                if group(head, (a, b), s1, s2, s3):
                    return out

    # axiom 3 over all c at once
    rows = _rows(n, up, down)
    rows_bar = _rows(n, upbar, downbar)
    for a, b in scan_pairs():
        lhs, rhs = _axiom3(*rows, a, b)
        lhs_bar, rhs_bar = _axiom3(*rows_bar, a, b)
        if lhs == rhs and lhs_bar == rhs_bar:
            continue
        # codes 10..12 unbarred, 13..15 barred
        lhs, rhs = lhs + lhs_bar, rhs + rhs_bar
        for c in range(n):
            for k in range(6):
                if lhs[k][c] != rhs[k][c] and emit(10 + k, (a, b, c)):
                    return out

    # axiom 4: x = a_x, a = x^a
    for a in range(n) if singles is None else singles:
        for head, op_d, op_u in ((16, down, up), (18, upbar, downbar)):
            s1 = [x for x in range(n) if x == op_d[a * n + x]]
            s2 = [x for x in range(n) if a == op_u[x * n + a]]
            if group(head, (a,), s1, s2):
                return out

    return out


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
    because propagation alone is not enough: on the up and down tables of
    the ``Z_4^3`` pair (s, t) = (1, 3) against (3, 1) the search rejects
    all 64 candidates by profile in about 1 ms, while without the filter
    the search on all four tables did not finish in five minutes.  The
    isomorphism deciders hand it only the tables that determine their
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
    finv = [-1] * n_dst
    assigned = []

    def propagate(queue):
        """Apply queued assignments plus consequences; None on conflict."""
        trail = []
        qi = 0
        while qi < len(queue):
            i, j = queue[qi]
            qi += 1
            if f[i] != -1:
                if f[i] != j:
                    _undo(trail)
                    return None, "conflict"
                continue
            if ps is not None and ps[i] != pd[j]:
                _undo(trail)
                return None, "profile"
            if require_bijection and finv[j] != -1:
                _undo(trail)
                return None, "used"
            f[i] = j
            if require_bijection:
                finv[j] = i
            assigned.append(i)
            trail.append(i)
            for i2 in assigned:
                j2 = f[i2]
                for ts, td in ops:
                    stats["work"] += 2
                    r = ts[i * n_src + i2]
                    req = td[j * n_dst + j2]
                    if f[r] == -1:
                        queue.append((r, req))
                    elif f[r] != req:
                        _undo(trail)
                        return None, "conflict"
                    if i2 != i:
                        r = ts[i2 * n_src + i]
                        req = td[j2 * n_dst + j]
                        if f[r] == -1:
                            queue.append((r, req))
                        elif f[r] != req:
                            _undo(trail)
                            return None, "conflict"
        return trail, None

    def _undo(trail):
        for i in reversed(trail):
            if require_bijection:
                finv[f[i]] = -1
            f[i] = -1
            assigned.pop()

    def dfs():
        if -1 not in f:
            yield tuple(f)
            return
        i = f.index(-1)
        for j in range(n_dst):
            stats["candidates"] += 1
            trail, reason = propagate([(i, j)])
            if trail is None:
                stats["prunes"][reason] += 1
                continue
            yield from dfs()
            _undo(trail)

    trail, reason = propagate(list(fixed))
    if trail is None:
        stats["prunes"][reason] += 1
        return
    yield from dfs()


def diagram_count(n_arcs, crossings, n, up, down, upbar, downbar, keep=False):
    """Count semi-arc labelings consistent at every crossing.

    ``crossings`` holds (sign, under_in, over_in, under_out, over_out) with
    0-based arc ids.  A frontier contraction, the state-sum view of Carter,
    Jelsovsky, Kamada, Langford and Saito: a map {labels of open arcs: count}
    absorbs the crossing sharing the most open arcs (then opening the fewest,
    then first listed).  An arc is summed out once both of its crossing
    slots are done; with ``keep`` none is, so the final keys are the full
    labelings.

    A crossing's valid rows come from the n^2 quads (x, y, x^y, y_x) of its
    sign, built once per call.  Its relation keeps the quads that agree on
    tied slots (an arc met twice, as at a kink) and groups them as
    {labels of shared arcs: [labels of new arcs]}; it depends only on the
    crossing's pattern (sign, ties, shared slots, new slots), so it is built
    once per pattern.  States join it through tuple projections.  More than
    ``MAX_STATES`` states raise ``ValueError``.  Returns (count, sorted
    0-based assignments or None).
    """
    left = Counter(arc for crossing in crossings for arc in crossing[1:])
    free = [a for a in range(n_arcs) if not left[a]]
    opened = free if keep else []
    states = dict.fromkeys(itertools.product(range(n), repeat=len(opened)),
                           1 if keep else n ** len(free))
    arc_sets = [set(crossing[1:]) for crossing in crossings]
    quads, relations = {}, {}
    todo = list(range(len(crossings)))
    while todo:
        pos = {a: i for i, a in enumerate(opened)}
        best = min(todo, key=lambda c: (
            -len(arc_sets[c].intersection(pos)),
            len(arc_sets[c].difference(pos))))
        todo.remove(best)
        sign, *arcs = crossings[best]
        for arc in arcs:
            left[arc] -= 1
        ids = list(dict.fromkeys(arcs))
        shared = [pos[a] for a in ids if a in pos]
        new = [a for a in ids if a not in pos and (keep or left[a])]
        stay = [i for i, a in enumerate(opened) if keep or left[a]]
        opened = [opened[i] for i in stay] + new
        pattern = (sign, tuple(map(arcs.index, arcs)),
                   tuple(arcs.index(a) for a in ids if a in pos),
                   tuple(map(arcs.index, new)))
        rel = relations.get(pattern)
        if rel is None:
            if sign not in quads:
                quads[sign] = _quads(n, *((up, down) if sign > 0
                                          else (upbar, downbar)))
            rel = relations[pattern] = _relation(quads[sign], *pattern[1:])
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


def _quads(n, op_u, op_o):
    """(x, y, op_u(x, y), op_o(y, x)) for every pair, x-major."""
    transposed = itertools.chain.from_iterable(op_o[x::n] for x in range(n))
    return [(x, y, u, o) for (x, y), u, o in zip(
        itertools.product(range(n), repeat=2), op_u, transposed)]


def _relation(quads, ties, key_slots, tail_slots):
    """{quad[key_slots]: [quad[tail_slots], ...]} over the quads with
    quad[ties[i]] == quad[i] for every slot i."""
    if ties != (0, 1, 2, 3):
        tied = itemgetter(*ties)
        quads = [q for q in quads if tied(q) == q]
    rel = {}
    for key, tail in zip(map(_proj(key_slots), quads),
                         map(_proj(tail_slots), quads)):
        rel.setdefault(key, []).append(tail)
    return rel


def _proj(slots):
    """Callable taking a tuple to the tuple of its items at ``slots``; a
    slice stands in for one slot or none, where itemgetter would not give a
    tuple."""
    if len(slots) > 1:
        return itemgetter(*slots)
    start = slots[0] if slots else 0
    return itemgetter(slice(start, start + len(slots)))
