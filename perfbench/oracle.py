"""Output checks that never go through the library's kernels.

* Labeling counts: every counting target is affine over Z_m^k, so a
  labeling is a solution of a linear system mod m.  ``affine_count`` counts
  those solutions from a diagonal (Smith-style) form of the integer matrix.
  ``naive_count`` cross-checks it on small codes with the test suite's
  brute-force oracle.
* Isomorphism witnesses are checked with ``BiquandleTable.op`` on tables
  built here from the module parameters.
* Expected CLI outputs are computed from the job specs.
"""

import itertools
import json
import math
from collections import namedtuple
from functools import lru_cache

from modarith import (counting_elements, identity, lex_elements, mat_inv,
                      mat_mul, mat_sub, mat_vec, vec_add)

Diagram = namedtuple("Diagram", "semi_arcs crossings")


# --------------------------------------------------------------------------
# Gauss codes and affine targets

def parse_code(text):
    """Semi-arc structure of a signed OU Gauss code.

    Semi-arc i leaves passage i and enters passage i + 1; a crossing is
    (sign, under_in, over_in, under_out, over_out).
    """
    text = text.strip()
    if not text:
        return Diagram(1, ())
    tokens = [(tok[0], int(tok[1:-1]), 1 if tok[-1] == "+" else -1)
              for tok in text.split(",")]
    total = len(tokens)
    where = {}
    for pos, (passage, label, sign) in enumerate(tokens):
        where.setdefault(label, {})[passage] = pos
        where[label]["sign"] = sign
    crossings = []
    for label in sorted(where):
        over, under, sign = where[label]["O"], where[label]["U"], \
            where[label]["sign"]
        crossings.append((sign, (under - 1) % total, (over - 1) % total,
                          under, over))
    return Diagram(total, tuple(crossings))


Affine = namedtuple("Affine", "m k up down")  # op = (Mx, My, shift)


def affine_target(spec):
    """up(x, y) and down(x, y) as affine maps Mx x + My y + shift."""
    m, k = spec["m"], spec["k"]
    zero_mat = tuple((0,) * k for _ in range(k))
    if spec["kind"] == "alexander":
        s, t = spec["s"], spec["t"]
        one_minus_st = mat_sub(identity(k), mat_mul(s, t, m), m)
        zero = (0,) * k
        return Affine(m, k, (t, one_minus_st, zero), (s, zero_mat, zero))
    a, b, c = spec["A"], spec["B"], tuple(spec["c"])
    aibi = mat_mul(mat_inv(a, m), mat_inv(b, m), m)
    cmat = mat_mul(mat_mul(aibi, a, m), mat_sub(identity(k), a, m), m)
    dmat = mat_sub(identity(k), mat_mul(mat_mul(aibi, a, m), b, m), m)
    # x_y = A y + B x + c
    return Affine(m, k, (cmat, dmat, c), (b, a, c))


def _apply(op, x, y, m):
    mx, my, shift = op
    return vec_add(vec_add(mat_vec(mx, x, m), mat_vec(my, y, m), m),
                   tuple(shift), m)


# --------------------------------------------------------------------------
# Counting solutions of a linear system mod m

def count_solutions(rows, rhs, ncols, m):
    """Number of v in Z_m^ncols with rows . v = rhs (mod m).

    Diagonalizes with unimodular row and column operations, applying the
    row operations to ``rhs`` as well.  A pivot that does not divide an
    entry of its row or column is replaced by their gcd (an extended-gcd
    step), so pivots only shrink and the loop ends.  Diagonal entry d
    contributes gcd(d, m) solutions if that divides its right-hand side
    and none otherwise; columns left without a pivot are free.
    """
    a = [[x % m for x in row] for row in rows]
    b = [x % m for x in rhs]
    nrows = len(a)
    count = 1
    t = 0
    while t < min(nrows, ncols):
        pivot = next(((i, j) for i in range(t, nrows)
                      for j in range(t, ncols) if a[i][j]), None)
        if pivot is None:
            break
        i, j = pivot
        a[t], a[i] = a[i], a[t]
        b[t], b[i] = b[i], b[t]
        for row in a:
            row[t], row[j] = row[j], row[t]
        while True:
            for i in range(t + 1, nrows):
                if a[i][t]:
                    x, y, p, q = _combine(a[t][t], a[i][t])
                    rt, ri = a[t], a[i]
                    a[t] = [(x * u + y * v) % m for u, v in zip(rt, ri)]
                    a[i] = [(p * u + q * v) % m for u, v in zip(rt, ri)]
                    b[t], b[i] = (x * b[t] + y * b[i]) % m, \
                        (p * b[t] + q * b[i]) % m
            dirty = False
            for j in range(t + 1, ncols):
                if a[t][j]:
                    x, y, p, q = _combine(a[t][t], a[t][j])
                    for row in a:
                        u, v = row[t], row[j]
                        row[t] = (x * u + y * v) % m
                        row[j] = (p * u + q * v) % m
                    dirty = True
            if not dirty:
                break
        g = math.gcd(a[t][t], m)
        if b[t] % g:
            return 0
        count *= g
        t += 1
    if any(b[i] for i in range(t, nrows)):
        return 0
    return count * m ** (ncols - t)


def _combine(a, b):
    """Unimodular [[x, y], [p, q]] sending (a, b) to (gcd-ish, 0).

    If a divides b the first entry is kept (x, y = 1, 0), which leaves
    other rows or columns untouched; otherwise it becomes gcd(a, b) < a.
    """
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


def affine_count(code, spec):
    """Number of labelings of ``code`` by the affine target ``spec``.

    Positive crossing: under_out = up(under_in, over_in) and
    over_out = down(over_in, under_in).  Negative crossings use the barred
    operations, i.e. the inverse of the pair map, so there
    under_in = up(under_out, over_out) and over_in = down(over_out,
    under_out).
    """
    diagram = parse_code(code)
    target = affine_target(spec)
    m, k = target.m, target.k
    ncols = diagram.semi_arcs * k
    rows, rhs = [], []

    def relation(lhs, op, x, y):
        # v[lhs] - Mx v[x] - My v[y] = shift, coordinate by coordinate
        mx, my, shift = op
        for r in range(k):
            row = [0] * ncols
            row[lhs * k + r] += 1
            for c in range(k):
                row[x * k + c] -= mx[r][c]
                row[y * k + c] -= my[r][c]
            rows.append(row)
            rhs.append(shift[r])

    for sign, ui, oi, uo, oo in diagram.crossings:
        if sign > 0:
            relation(uo, target.up, ui, oi)
            relation(oo, target.down, oi, ui)
        else:
            relation(ui, target.up, uo, oo)
            relation(oi, target.down, oo, uo)
    return count_solutions(rows, rhs, ncols, m)


# --------------------------------------------------------------------------
# Operation tables built from parameters

def _blocks(n, up, down):
    """Barred blocks by inverting S(a, b) = (b_a, a^b); all 1-based."""
    upbar = [[0] * n for _ in range(n)]
    downbar = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            c, x = down[b][a], up[a][b]
            if upbar[x - 1][c - 1]:
                raise ValueError("pair map is not invertible")
            upbar[x - 1][c - 1] = a + 1
            downbar[c - 1][x - 1] = b + 1
    return (tuple(map(tuple, up)), tuple(map(tuple, down)),
            tuple(map(tuple, upbar)), tuple(map(tuple, downbar)))


def affine_blocks(spec, order):
    """Four 1-based blocks of the target ``spec`` in element ``order``."""
    target = affine_target(spec)
    index = {e: i for i, e in enumerate(order, start=1)}
    m = target.m
    up = [[index[_apply(target.up, x, y, m)] for y in order] for x in order]
    down = [[index[_apply(target.down, x, y, m)] for y in order]
            for x in order]
    return _blocks(len(order), up, down)


def module_spec(m, k, s, t):
    return {"kind": "alexander", "m": m, "k": k, "s": s, "t": t}


def scalar_spec(m, s, t):
    return module_spec(m, 1, ((s % m,),), ((t % m,),))


def make_table(spec):
    """The library table type, canonical (lexicographic) element order."""
    from biquandles.tables import BiquandleTable
    order = lex_elements(spec["m"], spec["k"])
    return BiquandleTable(len(order), *affine_blocks(spec, order))


def naive_count(code, spec, naive_labeling_count):
    """Cross-check: the test suite's full assignment-space counter."""
    return naive_labeling_count(parse_code(code), make_table(spec))


def check_isomorphism(src, dst, perm):
    """True iff perm (1-based images) is a bijection preserving all four
    operations, checked entry by entry with ``BiquandleTable.op``."""
    n = src.n
    if dst.n != n or sorted(perm) != list(range(1, n + 1)):
        return False
    for kind in ("up", "down", "upbar", "downbar"):
        for a in range(1, n + 1):
            fa = perm[a - 1]
            for b in range(1, n + 1):
                if perm[src.op(kind, a, b) - 1] != \
                        dst.op(kind, fa, perm[b - 1]):
                    return False
    return True


# --------------------------------------------------------------------------
# Expected CLI outputs

def serialize(blocks):
    up, down, upbar, downbar = blocks
    n = len(up)
    lines = [str(n)]
    for left, right in ((up, down), (upbar, downbar)):
        for i in range(n):
            lines.append(" ".join(map(str, left[i] + right[i])))
    return "\n".join(lines) + "\n"


def file_text(spec):
    """Contents of a generated CLI input file."""
    blocks = _scalar_blocks(*spec["zn"])
    if spec["kind"] == "corrupt_scalar":
        blocks = corrupt(blocks, *spec["cell"])
    return serialize(blocks)


def _scalar_blocks(m, s, t):
    return affine_blocks(scalar_spec(m, s, t), counting_elements(m, 1))


def corrupt(blocks, row, col):
    """Change one entry of the 2n x 2n matrix (still a valid entry)."""
    n = len(blocks[0])
    grid = [list(blocks[0][i] + blocks[1][i]) for i in range(n)] + \
        [list(blocks[2][i] + blocks[3][i]) for i in range(n)]
    grid[row][col] = grid[row][col] % n + 1
    return (tuple(tuple(r[:n]) for r in grid[:n]),
            tuple(tuple(r[n:]) for r in grid[:n]),
            tuple(tuple(r[:n]) for r in grid[n:]),
            tuple(tuple(r[n:]) for r in grid[n:]))


def _axioms(blocks, recheck_axioms):
    from biquandles.tables import BiquandleTable
    return recheck_axioms(BiquandleTable(len(blocks[0]), *blocks))


def _fmt_set(elems):
    return "{" + ", ".join(str(e) for e in elems) + "}"


def orbits_text(m, s, t):
    elems = range(m)
    sub = sorted({((1 - s * t) * x) % m for x in elems})
    ker = [x for x in elems if ((1 - s) * x) % m == 0]
    reps, covered = [], set()
    for x in elems:
        if x not in covered:
            reps.append(x)
            covered.update((x + w) % m for w in sub)
    s_inv = pow(s, -1, m)
    orbit, todo = set(), list(reps)
    while todo:
        x = todo.pop()
        if x not in orbit:
            orbit.add(x)
            todo += [(s * x) % m, (s_inv * x) % m]
    return "\n".join([
        f"module: Z_{m} with s={s % m}, t={t % m}",
        f"(1-st) submodule: {_fmt_set(sub)}",
        f"Ker(1-s): {_fmt_set(ker)}",
        f"transversal: {_fmt_set(reps)}",
        f"s-orbit of transversal: {_fmt_set(sorted(orbit))}",
    ]) + "\n"


@lru_cache(maxsize=None)
def enumerate_text(n, recheck_axioms):
    """All order-n tables by scanning every column-permutation candidate."""
    from biquandles.tables import BiquandleTable
    perms = list(itertools.permutations(range(1, n + 1)))
    found = []
    for columns in itertools.product(perms, repeat=4 * n):
        blocks = tuple(
            tuple(tuple(columns[b * n + j][i] for j in range(n))
                  for i in range(n)) for b in range(4))
        if _axioms(blocks, recheck_axioms)[0]:
            found.append(blocks)
    found.sort()
    classes = []
    for blocks in found:
        table = BiquandleTable(n, *blocks)
        for cls in classes:
            if any(_is_iso(BiquandleTable(n, *cls[0]), table, p)
                   for p in itertools.permutations(range(1, n + 1))):
                cls.append(blocks)
                break
        else:
            classes.append([blocks])
    out = "".join(serialize(b) + "\n" for b in found)
    return out + (f"biquandles of order {n}: {len(found)}\n"
                  f"isomorphism classes: {len(classes)}\n")


def _is_iso(src, dst, perm):
    n = src.n
    return all(perm[src.op(kind, a, b) - 1] ==
               dst.op(kind, perm[a - 1], perm[b - 1])
               for kind in ("up", "down", "upbar", "downbar")
               for a in range(1, n + 1) for b in range(1, n + 1))


def switch_spec(m, k, a_text, b_text, c_text):
    def mat(text):
        return tuple(tuple(int(x) for x in row.split())
                     for row in text.split(";"))
    c = tuple(int(x) for x in c_text.split()) if c_text else (0,) * k
    return {"kind": "switch", "m": m, "k": k, "A": mat(a_text),
            "B": mat(b_text), "c": c}


def check_cli(job, files, code, stdout, recheck_axioms):
    """None if the CLI call gave the expected result, else a reason."""
    cmd = job["cmd"]

    def expect(exp_code, exp_out):
        if code != exp_code:
            return f"exit {code}, expected {exp_code}"
        if stdout != exp_out:
            return f"stdout differs from expected {exp_out[:60]!r}"
        return None

    if cmd == "check":
        spec = files[job["file"]]
        text = file_text(spec)
        blocks = _parse_blocks(text)
        passed, violations = _axioms(blocks, recheck_axioms)
        n = len(blocks[0])
        if job.get("json"):
            if code != (0 if passed else 1):
                return f"exit {code}"
            got = json.loads(stdout)
            want = [[cid, list(w)] for cid, w in violations]
            ok = (got.get("order") == n and got.get("passed") is passed
                  and got.get("violations") == want)
            return None if ok else "check --json payload differs"
        lines = [f"order {n}: " +
                 ("biquandle" if passed else "not a biquandle")]
        lines += [f"violated axiom {cid} at {w}" for cid, w in violations]
        return expect(0 if passed else 1, "\n".join(lines) + "\n")
    if cmd == "alexander":
        text = serialize(_scalar_blocks(*job["zn"]))
        if job.get("json"):
            if code != 0:
                return f"exit {code}"
            got = json.loads(stdout)
            ok = got.get("order") == job["zn"][0] and \
                got.get("matrix") == text.rstrip("\n")
            return None if ok else "alexander --json payload differs"
        return expect(0, text)
    if cmd == "switch":
        spec = switch_spec(job["m"], job["k"], job["A"], job["B"],
                           job.get("c"))
        blocks = affine_blocks(spec, counting_elements(job["m"], job["k"]))
        passed = _axioms(blocks, recheck_axioms)[0]
        return expect(0 if passed else 1, serialize(blocks))
    if cmd == "iso":
        (ma, sa, ta), (mb, sb, tb) = job["zn"]
        return _check_iso_cli(scalar_spec(ma, sa, ta),
                              scalar_spec(mb, sb, tb), code, stdout)
    if cmd == "count":
        target = scalar_spec(*files[job["target"]]["zn"])
        return expect(0, f"{affine_count(job['code'], target)}\n")
    if cmd == "orbits":
        return expect(0, orbits_text(*job["zn"]))
    if cmd == "enumerate":
        return expect(0, enumerate_text(job["n"], recheck_axioms))
    return f"unknown command {cmd}"


def _parse_blocks(text):
    rows = [list(map(int, line.split())) for line in text.splitlines()[1:]]
    n = len(rows) // 2
    return (tuple(tuple(r[:n]) for r in rows[:n]),
            tuple(tuple(r[n:]) for r in rows[:n]),
            tuple(tuple(r[:n]) for r in rows[n:]),
            tuple(tuple(r[n:]) for r in rows[n:]))


def _check_iso_cli(spec_a, spec_b, code, stdout):
    """Verdict line, then every printed witness checked as an isomorphism
    of the canonical-order tables the CLI builds."""
    lines = stdout.splitlines()
    if not lines:
        return "empty output"
    if lines[0] == "non-isomorphic":
        return None if code == 1 and len(lines) == 1 else "bad negative"
    if lines[0] != "isomorphic" or code != 0:
        return f"verdict {lines[0]!r} with exit {code}"
    perms = [line.split(":", 1)[1].split() for line in lines
             if line.startswith(("brute witness:", "permutation:"))]
    if len(perms) != 2:
        return "expected a brute and a structural witness"
    src, dst = make_table(spec_a), make_table(spec_b)
    for perm in perms:
        if not check_isomorphism(src, dst, [int(v) for v in perm]):
            return "printed witness is not an isomorphism"
    return None

