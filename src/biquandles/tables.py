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

from collections.abc import Mapping
from functools import cached_property

from .errors import MatrixParseError, SwitchError
from .record import Record

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


def _checked(n, flats) -> tuple[Flat, ...]:
    """The flats, in ``KINDS`` order, as tuples checked to be n x n."""
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


class BiquandleTable(Record):
    """Order plus the four operations as 0-based flat tuples; ``up``,
    ``down``, ``upbar`` and ``downbar`` are derived 1-based blocks.

    ``affine_basis`` is set only by the library's affine builder, whose
    four operations are affine maps of Z_m^k; no public constructor takes
    it.  It holds the 0-based indices of the zero vector and of the k unit
    vectors, in that order.  Equality, hashing and repr ignore it, so a
    marked table equals the same table parsed from text.  The cached
    ``_hash`` and ``_relations`` take no part either.
    """

    _fields = ("n", "_flats")

    def __init__(self, n: int, up, down, upbar, downbar):
        """Table from four 1-based blocks, ``up[i-1][j-1] = i ^ j``."""
        self._store(n, _checked(n, (_flatten(n, kind, rows) for kind, rows in
                                    zip(KINDS, (up, down, upbar, downbar)))))

    @classmethod
    def from_flats(cls, n: int, up, down, upbar, downbar) -> BiquandleTable:
        """Table from four 0-based flat tables, ``up[i*n + j] = i ^ j``,
        each validated; the table is unmarked (no ``affine_basis``)."""
        return cls._built(n, _checked(n, (up, down, upbar, downbar)))

    @classmethod
    def _built(cls, n, flats, affine_basis=None) -> BiquandleTable:
        """Table from four flat tuples already known to be n x n tables
        on 0..n-1, such as a builder's own arithmetic; not re-validated."""
        table = cls.__new__(cls)
        table._store(n, flats)
        table.__dict__["affine_basis"] = affine_basis
        return table

    def _store(self, n, flats):
        self.__dict__.update(n=n, _flats=flats, affine_basis=None)

    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self._flats))

    def __hash__(self):
        return self._hash

    @cached_property
    def _relations(self) -> dict:
        """``kernels.diagram_count``'s {crossing pattern: relation} memo
        for this table's up and down, filled by ``knot.count_homs``."""
        return {}

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


def from_pair_map(n: int, up, down) -> BiquandleTable:
    """Table whose barred operations invert S(a, b) = (b_a, a^b).

    ``up`` and ``down`` are 0-based flat tables, validated like
    ``from_flats``'s.  S(a, b) = (c, x) gives x ^ cbar = a and
    c _ xbar = b; a non-bijective S raises ``SwitchError``.
    """
    up, down = _checked(n, (up, down))
    upbar, downbar = [-1] * (n * n), [-1] * (n * n)
    for a in range(n):
        for b in range(n):
            c, x = down[b * n + a], up[a * n + b]
            if upbar[x * n + c] >= 0:
                raise SwitchError("switch pair map is not invertible")
            upbar[x * n + c] = a
            downbar[c * n + x] = b
    # a bijective S fills every barred slot, so all four are n x n tables
    return BiquandleTable._built(n, (up, down, tuple(upbar), tuple(downbar)))


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


def _content_lines(text):
    """Yield (line_number, line) for each line of ``text`` that holds more
    than a comment: the part before any '#', stripped.  Table, module and
    Gauss-code files are all read through here."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield ln, line


def _int_rows(text):
    """Yield (line_number, values) for each content line of ``text``, its
    whitespace-separated tokens read as integers.  This is the one reader
    of integer text: matrix files, module files and the switch's matrices.
    A token that is not an integer raises ``MatrixParseError`` at its line
    and column (the token's 1-based place on the line)."""
    for ln, line in _content_lines(text):
        values = []
        for col, tok in enumerate(line.split(), start=1):
            try:
                values.append(int(tok))
            except ValueError:
                raise MatrixParseError(f"non-integer entry {tok!r}",
                                       ln, col) from None
        yield ln, values


def parse_matrix(text: str) -> BiquandleTable:
    """Parse the block-matrix format written by ``serialize_matrix``.

    Comment lines start with '#'; blank lines and trailing whitespace are
    ignored.  Raises ``MatrixParseError`` with the offending line/column.
    """
    rows = list(_int_rows(text))
    if not rows:
        raise MatrixParseError("missing order line", 1)
    ln, head = rows[0]
    if len(head) != 1:
        raise MatrixParseError("order line must hold a single integer", ln, 2)
    n = head[0]
    if n < 1:
        raise MatrixParseError("order must be >= 1", ln, 1)

    body = rows[1:]
    if len(body) != 2 * n:
        raise MatrixParseError(
            f"expected {2 * n} matrix rows, found {len(body)}", rows[-1][0])

    grid = []
    for ln, row in body:
        if len(row) != 2 * n:
            raise MatrixParseError(
                f"expected {2 * n} entries, found {len(row)}", ln, len(row))
        for col, e in enumerate(row, start=1):
            if not 1 <= e <= n:
                raise MatrixParseError(f"entry {e} outside 1..{n}", ln, col)
        grid.append([e - 1 for e in row])

    def flat(r0, c0):
        return tuple([grid[r0 + i][c0 + j] for i in range(n)
                      for j in range(n)])

    # the checks above make every block an n x n table on 0..n-1
    return BiquandleTable._built(n, (flat(0, 0), flat(0, n), flat(n, 0),
                                     flat(n, n)))


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
