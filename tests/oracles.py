"""Independently coded re-checks used as oracles by the tests.

Everything here deliberately avoids the library's kernels: axiom clauses are
spelled out over a table's 1-based blocks (`BiquandleTable.up` and so on),
the Yang-Baxter check composes explicit pair maps, the labeling counters
enumerate the full assignment space or solve the linear system of an
Alexander target mod m, the affine tables are evaluated pair by pair from
their formulas without the library's builders, matrices are multiplied by
rows and columns and inverted or tested for units by scanning Z_m^k, and
submodule isomorphisms are filtered from every zero-fixing bijection.
"""

import itertools
import math


def _op(table, kind):
    """``a kind b`` on 1-based elements, read from the 1-based block."""
    block = getattr(table, kind)
    return lambda a, b: block[a - 1][b - 1]


def recheck_axioms(table):
    """(passed, violations) per the library contract, coded from scratch."""
    n = table.n
    up, dn = _op(table, "up"), _op(table, "down")
    ub, db = _op(table, "upbar"), _op(table, "downbar")
    rng = range(1, n + 1)
    bad = []

    for a, b in itertools.product(rng, rng):
        if ub(up(a, b), dn(b, a)) != a:
            bad.append(("1.i", (a, b)))
        if db(dn(b, a), up(a, b)) != b:
            bad.append(("1.ii", (a, b)))
        if up(ub(a, b), db(b, a)) != a:
            bad.append(("1.iii", (a, b)))
        if dn(db(b, a), ub(a, b)) != b:
            bad.append(("1.iv", (a, b)))

    def group(head_ids, clause_preds, witness):
        sols = [frozenset(x for x in rng if pred(x)) for pred in clause_preds]
        joint = frozenset.intersection(*sols)
        if len(joint) == 1:
            return
        blamed = [cid for cid, s in zip(head_ids, sols) if len(s) != 1]
        for cid in blamed or [head_ids[0]]:
            bad.append((cid, witness))

    for a, b in itertools.product(rng, rng):
        group(("2.i", "2.ii", "2.iii"),
              (lambda x: x == up(a, db(b, x)),
               lambda x: a == ub(x, b),
               lambda x: b == dn(db(b, x), a)), (a, b))
        group(("2.iv", "2.v", "2.vi"),
              (lambda y: y == ub(a, dn(b, y)),
               lambda y: a == up(y, b),
               lambda y: b == db(dn(b, y), a)), (a, b))

    for a, b, c in itertools.product(rng, rng, rng):
        checks = (
            ("3.i", up(up(a, b), c), up(up(a, dn(c, b)), up(b, c))),
            ("3.ii", dn(dn(c, b), a), dn(dn(c, up(a, b)), dn(b, a))),
            ("3.iii", up(dn(b, a), dn(c, up(a, b))),
             dn(up(b, c), up(a, dn(c, b)))),
            ("3.iv", ub(ub(a, b), c), ub(ub(a, db(c, b)), ub(b, c))),
            ("3.v", db(db(c, b), a), db(db(c, ub(a, b)), db(b, a))),
            ("3.vi", ub(db(b, a), db(c, ub(a, b))),
             db(ub(b, c), ub(a, db(c, b)))),
        )
        for cid, lhs, rhs in checks:
            if lhs != rhs:
                bad.append((cid, (a, b, c)))

    for a in rng:
        group(("4.i", "4.ii"),
              (lambda x: x == dn(a, x), lambda x: a == up(x, a)), (a,))
        group(("4.iii", "4.iv"),
              (lambda y: y == ub(a, y), lambda y: a == db(y, a)), (a,))

    bad.sort()
    return (not bad), tuple(bad)


def recheck_yang_baxter(table):
    """Bijectivity plus the braid identity via explicit pair maps."""
    n = table.n
    rng = range(1, n + 1)
    pairs = list(itertools.product(rng, rng))

    def swap_map(p):
        a, b = p
        return (table.op("down", b, a), table.op("up", a, b))

    if len({swap_map(p) for p in pairs}) != len(pairs):
        return False

    def s12(t):
        return (*swap_map((t[0], t[1])), t[2])

    def s23(t):
        return (t[0], *swap_map((t[1], t[2])))

    return all(
        s12(s23(s12(t))) == s23(s12(s23(t)))
        for t in itertools.product(rng, rng, rng))


def naive_labeling_count(diagram, table):
    """Counting by filtering the full n^(semi-arcs) assignment space."""
    n = table.n
    count = 0
    for assign in itertools.product(range(1, n + 1),
                                    repeat=diagram.semi_arcs):
        ok = True
        for sign, ui, oi, uo, oo in diagram.crossings:
            if sign > 0:
                ru = table.op("up", assign[ui], assign[oi])
                ro = table.op("down", assign[oi], assign[ui])
            else:
                ru = table.op("upbar", assign[ui], assign[oi])
                ro = table.op("downbar", assign[oi], assign[ui])
            if assign[uo] != ru or assign[oo] != ro:
                ok = False
                break
        count += ok
    return count


def naive_labelings(diagram, table):
    """Every 1-based assignment in the full n^(semi-arcs) space that is
    consistent at every crossing, in lexicographic order."""
    found = []
    for assign in itertools.product(range(1, table.n + 1),
                                    repeat=diagram.semi_arcs):
        for sign, ui, oi, uo, oo in diagram.crossings:
            up, down = ("up", "down") if sign > 0 else ("upbar", "downbar")
            if assign[uo] != table.op(up, assign[ui], assign[oi]) or \
                    assign[oo] != table.op(down, assign[oi], assign[ui]):
                break
        else:
            found.append(assign)
    return found


def smith_labeling_count(code, m, s, t):
    """Labelings of a signed OU Gauss code by the Alexander biquandle of the
    commuting k x k matrices s, t over Z_m, counted as solutions of a linear
    system mod m.

    The code is parsed here: semi-arc i leaves passage i.  A positive
    crossing asks under_out = t under_in + (1 - st) over_in and
    over_out = s over_in; a negative one uses the barred operations, the
    inverse pair map, so the same equations hold with in and out swapped.
    """
    tokens = [(tok[0], int(tok[1:-1]), tok[-1])
              for tok in code.split(",")] if code.strip() else []
    total = len(tokens) or 1
    where = {}
    for pos, (passage, label, sign) in enumerate(tokens):
        where.setdefault(label, {})[passage] = pos
        where[label]["sign"] = sign
    k = len(s)
    one_minus_st = tuple(tuple((i - j) % m for i, j in zip(ri, rj))
                         for ri, rj in zip(_ident(k), _mul(s, t, m)))
    rows = []

    def relation(lhs, *terms):
        # v[lhs] - sum of mat v[arc] over the terms = 0, per coordinate
        for r in range(k):
            row = [0] * (total * k)
            row[lhs * k + r] += 1
            for mat, arc in terms:
                for c in range(k):
                    row[arc * k + c] -= mat[r][c]
            rows.append(row)

    for place in where.values():
        over, under = place["O"], place["U"]
        ui, oi = (under - 1) % total, (over - 1) % total
        if place["sign"] == "-":
            ui, oi, under, over = under, over, ui, oi
        relation(under, (t, ui), (one_minus_st, oi))
        relation(over, (s, oi))
    return _homogeneous_count(rows, total * k, m)


def _homogeneous_count(rows, ncols, m):
    """Number of v in Z_m^ncols with rows . v = 0 (mod m).

    Diagonalizes with unimodular row and column operations; a pivot that
    does not divide an entry of its row or column is replaced by their gcd,
    so pivots only shrink and the loop ends.  Diagonal entry d gives
    gcd(d, m) solutions, and a column without a pivot is free.
    """
    a = [[x % m for x in row] for row in rows]
    count = 1
    done = 0
    while True:
        pivot = next(((i, j) for i in range(done, len(a))
                      for j in range(done, ncols) if a[i][j]), None)
        if pivot is None:
            return count * m ** (ncols - done)
        i, j = pivot
        a[done], a[i] = a[i], a[done]
        for row in a:
            row[done], row[j] = row[j], row[done]
        dirty = True
        while dirty:
            for i in range(done + 1, len(a)):
                if a[i][done]:
                    x, y, p, q = _gcd_step(a[done][done], a[i][done])
                    rt, ri = a[done], a[i]
                    a[done] = [(x * u + y * v) % m for u, v in zip(rt, ri)]
                    a[i] = [(p * u + q * v) % m for u, v in zip(rt, ri)]
            dirty = False
            for j in range(done + 1, ncols):
                if a[done][j]:
                    x, y, p, q = _gcd_step(a[done][done], a[done][j])
                    for row in a:
                        u, v = row[done], row[j]
                        row[done] = (x * u + y * v) % m
                        row[j] = (p * u + q * v) % m
                    dirty = True
        count *= math.gcd(a[done][done], m)
        done += 1


def _gcd_step(a, b):
    """Unimodular [[x, y], [p, q]] taking (a, b) to (g, 0): g = a when a
    divides b, otherwise g = gcd(a, b) < a."""
    if b % a == 0:
        return 1, 0, -(b // a), 1
    x0, y0, x1, y1 = 1, 0, 0, 1
    r0, r1 = a, b
    while r1:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0, -(b // r0), a // r0


def braid_closure_code(word):
    """Gauss code of a braid closure, or None if it is not a knot.

    ``word`` lists (generator index i >= 1, sign); a positive generator
    crosses the strand entering at position i over the one at i+1.
    """
    tokens = []
    pos = 1
    while True:
        for time, (gen, sign) in enumerate(word):
            if pos == gen:
                role = "O" if sign > 0 else "U"
                tokens.append((role, time + 1, sign))
                pos = gen + 1
            elif pos == gen + 1:
                role = "U" if sign > 0 else "O"
                tokens.append((role, time + 1, sign))
                pos = gen
        if pos == 1:
            break
    if len(tokens) != 2 * len(word):
        return None
    return ",".join(
        f"{role}{label}{'+' if sign > 0 else '-'}"
        for role, label, sign in tokens)


def _vec(mat, x, m):
    return tuple(sum(a * b for a, b in zip(row, x)) % m for row in mat)


def _sum(m, *vecs):
    return tuple(sum(coords) % m for coords in zip(*vecs))


def _neg(x, m):
    return tuple(-v % m for v in x)


def _mul(a, b, m):
    cols = list(zip(*b))
    return tuple(tuple(sum(p * q for p, q in zip(row, col)) % m
                       for col in cols) for row in a)


def _ident(k):
    return tuple(tuple(int(i == j) for j in range(k)) for i in range(k))


def matrix_inverse(mat, m):
    """Inverse mod m found by trying every k x k matrix, or None."""
    k = len(mat)
    for entries in itertools.product(range(m), repeat=k * k):
        cand = tuple(entries[i * k:(i + 1) * k] for i in range(k))
        if _mul(mat, cand, m) == _ident(k):
            return cand
    return None


def _vectors(m, k):
    return itertools.product(range(m), repeat=k)


def is_bijective(mat, m):
    """Whether x -> mat.x permutes Z_m^k, by counting its images."""
    k = len(mat)
    return len({_vec(mat, x, m) for x in _vectors(m, k)}) == m ** k


def column_inverse(mat, m):
    """Inverse mod m whose j-th column is the vector x with mat.x = e_j,
    found by scanning Z_m^k, or None when some e_j has no preimage."""
    k = len(mat)
    preimage = {_vec(mat, x, m): x for x in _vectors(m, k)}
    cols = [preimage.get(e) for e in _ident(k)]
    return None if None in cols else tuple(zip(*cols))


def _blocks(order, up, down, upbar, downbar):
    """1-based blocks of four element-valued operations on ``order``."""
    index = {e: i for i, e in enumerate(order, start=1)}
    return tuple(tuple(tuple(index[op(x, y)] for y in order) for x in order)
                 for op in (up, down, upbar, downbar))


def alexander_blocks(m, s, t, order):
    """(up, down, upbar, downbar) of the module biquandle, pair by pair:
    x^y = tx + (1-st)y, x_y = sx, x^ybar = t^-1 x + (1 - s^-1 t^-1)y and
    x_ybar = s^-1 x."""
    si, ti = matrix_inverse(s, m), matrix_inverse(t, m)
    return _blocks(
        order,
        lambda x, y: _sum(m, _vec(t, x, m), y,
                          _neg(_vec(s, _vec(t, y, m), m), m)),
        lambda x, y: _vec(s, x, m),
        lambda x, y: _sum(m, _vec(ti, x, m), y,
                          _neg(_vec(si, _vec(ti, y, m), m), m)),
        lambda x, y: _vec(si, x, m))


def switch_blocks(m, a, b, c, order):
    """(up, down, upbar, downbar) of x^y = Cx + Dy + c, x_y = Ay + Bx + c
    with C = A^-1 B^-1 A (I - A) and D = I - A^-1 B^-1 A B, pair by pair;
    the barred operations invert S(a, b) = (b_a, a^b) by a lookup over all
    pairs.  None when S is not a bijection."""
    aibi_a = _mul(_mul(matrix_inverse(a, m), matrix_inverse(b, m), m), a, m)
    k = len(a)
    ident_minus_a = tuple(tuple((i - j) % m for i, j in zip(ri, rj))
                          for ri, rj in zip(_ident(k), a))
    cmat = _mul(aibi_a, ident_minus_a, m)

    def up(x, y):
        return _sum(m, _vec(cmat, x, m), y,
                    _neg(_vec(aibi_a, _vec(b, y, m), m), m), c)

    def down(x, y):
        return _sum(m, _vec(a, y, m), _vec(b, x, m), c)

    inverse = {(down(y, x), up(x, y)): (x, y) for x in order for y in order}
    if len(inverse) != len(order) ** 2:
        return None
    return _blocks(order, up, down,
                   lambda x, y: inverse[(y, x)][0],
                   lambda x, y: inverse[(x, y)][1])


def scan_module_isomorphisms(src, dst):
    """Every zero-fixing bijection of submodules src -> dst that is additive
    and intertwines s and t, as sorted (x, h(x)) pair tuples, filtered from
    all zero-fixing bijections in lexicographic order of the images."""
    ms, md = src.module, dst.module
    xs, ys = src.elements, dst.elements
    if len(xs) != len(ys):
        return []

    def tables(mod, elems):
        m, index = mod.m, {e: i for i, e in enumerate(elems)}
        return (index[mod.zero],
                [index[_vec(mod.s_matrix, x, m)] for x in elems],
                [index[_vec(mod.t_matrix, x, m)] for x in elems],
                [[index[_sum(m, x, y)] for y in elems] for x in elems])

    zs, s_src, t_src, add_src = tables(ms, xs)
    zd, s_dst, t_dst, add_dst = tables(md, ys)
    rng = range(len(xs))
    found = []
    for images in itertools.permutations([j for j in rng if j != zd]):
        h = list(images)
        h.insert(zs, zd)
        if all(h[s_src[i]] == s_dst[h[i]] and h[t_src[i]] == t_dst[h[i]]
               for i in rng) and \
                all(h[add_src[i][j]] == add_dst[h[i]][h[j]]
                    for i in rng for j in rng):
            found.append(tuple(sorted((xs[i], ys[h[i]]) for i in rng)))
    return found
