"""Finite biquandle operation tables and their text format.

A ``BiquandleTable`` stores each operation once, as the 0-based flat tuple
``t[i*n + j]`` the kernels take, validated at construction and returned by
``flats()``.  The text format is the 1-based 2n x 2n block matrix of
Nelson & Vo, *Matrices and finite biquandles*:

    [ B1 | B2 ]      B1[i][j] = i ^ j     (up)
    [----+----]      B2[i][j] = i sub j   (down)
    [ B3 | B4 ]      B3[i][j] = i ^ jbar  (upbar)
                     B4[i][j] = i sub jbar (downbar)

with elements named by 1-based indices.  Only this module knows that
layout: the ``BiquandleTable(n, up, down, upbar, downbar)`` constructor,
the ``up``/``down``/``upbar``/``downbar`` views and ``op`` are 1-based, as
are ``parse_matrix`` and ``serialize_matrix``.  A table may be any
candidate; ``axioms.verify_biquandle`` decides the axioms.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from .errors import MatrixParseError, SwitchError

KINDS = ("up", "down", "upbar", "downbar")

Block = tuple[tuple[int, ...], ...]
Flat = tuple[int, ...]


def _flatten(n, kind, rows) -> list:
    """Row-major entries of a 1-based n x n block, shifted to 0-based."""
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"{kind} block must be {n}x{n}")
    return [e - 1 if type(e) is int else e for row in rows for e in row]


def _check_flat(n, kind, flat):
    if len(flat) != n * n:
        raise ValueError(f"{kind} block must be {n}x{n}")
    if not set(map(type, flat)) <= {int} or not set(flat) <= set(range(n)):
        e = next(e for e in flat if type(e) is not int or not 0 <= e < n)
        shown = e + 1 if type(e) is int else e
        raise ValueError(f"{kind} entry {shown!r} outside 1..{n}")


def _checked(n, flats) -> tuple[Flat, Flat, Flat, Flat]:
    """The four flats as tuples, each checked to be an n x n table."""
    if n < 1:
        raise ValueError("order must be >= 1")
    flats = tuple(map(tuple, flats))
    for kind, flat in zip(KINDS, flats):
        _check_flat(n, kind, flat)
    return flats


def _view(i: int) -> property:
    """The 1-based block of the i-th stored operation, as rows of tuples."""
    def block(table) -> Block:
        n, flat = table.n, table._flats[i]
        return tuple(tuple(e + 1 for e in flat[r:r + n])
                     for r in range(0, n * n, n))
    return property(block)


@dataclass(frozen=True, init=False)
class BiquandleTable:
    """Order plus the four operations as 0-based flat tuples; ``up``,
    ``down``, ``upbar`` and ``downbar`` are derived 1-based blocks.

    ``affine_basis`` is set only by builders whose four operations are
    affine maps of Z_m^k: it holds the 0-based indices of the zero vector
    and of the k unit vectors, in that order.  Equality, hashing and repr
    ignore it, so a marked table equals the same table parsed from text.
    """

    n: int
    _flats: tuple[Flat, Flat, Flat, Flat]
    affine_basis: tuple[int, ...] | None = field(
        default=None, compare=False, repr=False)

    def __init__(self, n: int, up, down, upbar, downbar):
        """Table from four 1-based blocks, ``up[i-1][j-1] = i ^ j``."""
        self._store(n, _checked(n, (_flatten(n, kind, rows) for kind, rows in
                                    zip(KINDS, (up, down, upbar, downbar)))))

    @classmethod
    def from_flats(cls, n: int, up, down, upbar, downbar,
                   affine_basis=None) -> BiquandleTable:
        """Table from four 0-based flat tables, ``up[i*n + j] = i ^ j``."""
        return cls._built(n, _checked(n, (up, down, upbar, downbar)),
                          affine_basis)

    @classmethod
    def _built(cls, n, flats, affine_basis) -> BiquandleTable:
        """Table from four flat tuples already known to be n x n tables
        on 0..n-1, such as a builder's own arithmetic; not re-validated."""
        table = cls.__new__(cls)
        table._store(n, flats)
        object.__setattr__(table, "affine_basis", affine_basis)
        return table

    def _store(self, n, flats):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "_flats", flats)

    def flats(self) -> tuple[Flat, Flat, Flat, Flat]:
        """The stored (up, down, upbar, downbar) flat tables, 0-based."""
        return self._flats

    up, down, upbar, downbar = map(_view, range(4))

    def op(self, kind: str, a: int, b: int) -> int:
        """Table entry for ``a <kind> b`` (all 1-based).  An unknown kind,
        or an index that is not an ``int`` in 1..n, raises ``ValueError``."""
        if kind not in KINDS:
            raise ValueError(f"unknown operation kind {kind!r}")
        n = self.n
        if not all(type(x) is int and 1 <= x <= n for x in (a, b)):
            raise ValueError(
                f"element index out of range: ({a!r}, {b!r}) for order {n}")
        return self._flats[KINDS.index(kind)][(a - 1) * n + b - 1] + 1


def from_pair_map(n: int, up, down, affine_basis=None) -> BiquandleTable:
    """Table whose barred operations invert S(a, b) = (b_a, a^b).

    ``up`` and ``down`` are 0-based flat tables.  S(a, b) = (c, x) gives
    x ^ cbar = a and c _ xbar = b; a non-bijective S raises ``SwitchError``.
    ``affine_basis`` is passed through to the table.
    """
    upbar, downbar = [-1] * (n * n), [-1] * (n * n)
    for a in range(n):
        for b in range(n):
            c, x = down[b * n + a], up[a * n + b]
            if upbar[x * n + c] >= 0:
                raise SwitchError("switch pair map is not invertible")
            upbar[x * n + c] = a
            downbar[c * n + x] = b
    return BiquandleTable.from_flats(n, up, down, upbar, downbar,
                                     affine_basis)


def trivial_biquandle(n: int) -> BiquandleTable:
    """All four operations return their first argument."""
    if n < 1:
        raise ValueError("order must be >= 1")
    flat = tuple(i for i in range(n) for _ in range(n))
    return BiquandleTable.from_flats(n, flat, flat, flat, flat)


def serialize_matrix(table: BiquandleTable) -> str:
    """Text form: order line, then 2n rows of the 2n-column block matrix."""
    n = table.n
    up, down, upbar, downbar = table.flats()
    lines = [str(n)]
    for left, right in ((up, down), (upbar, downbar)):
        for r in range(0, n * n, n):
            lines.append(" ".join(str(e + 1) for e in
                                  left[r:r + n] + right[r:r + n]))
    return "\n".join(lines) + "\n"


def _tokenize(text):
    """Yield (line_number, [(column, token), ...]) skipping comments/blanks."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        yield ln, [(i + 1, tok) for i, tok in enumerate(line.split())]


def parse_matrix(text: str) -> BiquandleTable:
    """Parse the block-matrix format written by ``serialize_matrix``.

    Comment lines start with '#'; blank lines and trailing whitespace are
    ignored.  Raises ``MatrixParseError`` with the offending line/column.
    """
    rows = list(_tokenize(text))
    if not rows:
        raise MatrixParseError("missing order line", 1)
    ln, toks = rows[0]
    if len(toks) != 1:
        raise MatrixParseError("order line must hold a single integer", ln,
                               toks[1][0] if len(toks) > 1 else 1)
    try:
        n = int(toks[0][1])
    except ValueError:
        raise MatrixParseError(f"order is not an integer: {toks[0][1]!r}",
                               ln, toks[0][0]) from None
    if n < 1:
        raise MatrixParseError("order must be >= 1", ln, toks[0][0])

    body = rows[1:]
    if len(body) != 2 * n:
        where = body[-1][0] if body else ln
        raise MatrixParseError(
            f"expected {2 * n} matrix rows, found {len(body)}", where)

    grid = []
    for ln, toks in body:
        if len(toks) != 2 * n:
            raise MatrixParseError(
                f"expected {2 * n} entries, found {len(toks)}", ln,
                toks[-1][0] if toks else 1)
        row = []
        for col, tok in toks:
            try:
                e = int(tok)
            except ValueError:
                raise MatrixParseError(f"non-integer entry {tok!r}",
                                       ln, col) from None
            if not 1 <= e <= n:
                raise MatrixParseError(
                    f"entry {e} outside 1..{n}", ln, col)
            row.append(e - 1)
        grid.append(row)

    def flat(r0, c0):
        return [grid[r0 + i][c0 + j] for i in range(n) for j in range(n)]

    return BiquandleTable.from_flats(n, flat(0, 0), flat(0, n), flat(n, 0),
                                     flat(n, n))


def normalize_map(f, n_src: int, n_dst: int) -> tuple[int, ...]:
    """Coerce a 1-based element map to a length-``n_src`` tuple of images."""
    if isinstance(f, Mapping):
        try:
            images = [f[i] for i in range(1, n_src + 1)]
        except KeyError as exc:
            raise ValueError(f"map is not total: missing {exc}") from None
    else:
        images = list(f)
        if len(images) != n_src:
            raise ValueError(
                f"map must assign all {n_src} elements, got {len(images)}")
    for v in images:
        if type(v) is not int or not 1 <= v <= n_dst:
            raise ValueError(f"map value {v!r} outside 1..{n_dst}")
    return tuple(images)


def is_homomorphism(src: BiquandleTable, dst: BiquandleTable, f) -> bool:
    """True iff f preserves all four operations on every pair.

    ``f`` maps 1-based src elements to 1-based dst elements, given either as
    a sequence of images for 1..n or as a mapping.
    """
    images = [v - 1 for v in normalize_map(f, src.n, dst.n)]
    n, nd = src.n, dst.n
    for ts, td in zip(src.flats(), dst.flats()):
        for a in range(n):
            row, fa = a * n, images[a] * nd
            for b in range(n):
                if images[ts[row + b]] != td[fa + images[b]]:
                    return False
    return True
