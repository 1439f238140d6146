"""Biquandle constructors on finite modules.

One builder makes both families of affine switches x^y = Cx + Dy + c,
x_y = Ay + Bx + c: the Laurent-module biquandle x^y = tx + (1-st)y, x_y = sx
(C = t, D = 1 - st, A = 0, B = s, c = 0), and the switch construction with
C, D derived from invertible A, B.  The barred operations invert the pair
map S(a, b) = (b_a, a^b), which is affine too, so the builder writes all
four operations the same way, on the canonical indices of Z_m^k and through
the addition table of its one shared ``Carrier``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .axioms import AxiomReport, verify_biquandle
from .errors import ModuleError, SwitchError
from .modules import (Carrier, Elem, FiniteModule, _as_matrix, _check_size,
                      carrier)
from .tables import BiquandleTable


def _resolve_order(group: Carrier, element_order):
    """The canonical index of each element of ``element_order``, in order."""
    if element_order is None:
        return None
    pos = [group.index_of(e) for e in element_order]
    if sorted(pos) != list(range(group.size)):
        raise ValueError("element_order must enumerate every element once")
    return pos


def _inverse(perm: list[int]) -> list[int]:
    """The inverse of an index permutation; S has none if perm is not one."""
    if len(set(perm)) < len(perm):
        raise SwitchError("switch pair map is not invertible")
    return sorted(range(len(perm)), key=perm.__getitem__)


def _compose(*maps) -> list[int]:
    """The composition of index maps, the last one applied first."""
    out = maps[-1]
    for f in reversed(maps[:-1]):
        out = list(map(f.__getitem__, out))
    return out


def _affine_table(group: Carrier, ops, order) -> BiquandleTable:
    """Table of the four operations (up, down, upbar, downbar), each given
    as (Cx, Dy, c), index images of two linear maps and a shift's index,
    for x * y = Cx + Dy + c with every sum read from ``group.plus``.  Index
    i is the group's i-th canonical element; an ``order`` of canonical
    indices relabels ``order[j]`` to j.  ``affine_basis`` holds the indices
    of zero and of the unit vectors (``group.units``), so
    ``verify_biquandle`` decides every axiom on 1 + 2k pairs.  Every entry
    is read from ``plus``, so it is in range by construction and the table
    is stored without re-validation.
    """
    plus, n = group.plus, group.size
    flats = []
    for cx, dy, c in ops:
        shifted = plus[c]
        flats.append(tuple([row[y] for row in [plus[shifted[x]] for x in cx]
                            for y in dy]))
    basis = (0,) + group.units
    if order is not None:
        label = _inverse(order)
        flats = [tuple([label[flat[i * n + j]] for i in order for j in order])
                 for flat in flats]
        basis = map(label.__getitem__, basis)
    return BiquandleTable._built(n, tuple(flats), tuple(basis))


def make_alexander(module: FiniteModule,
                   element_order: tuple[Elem, ...] | None = None
                   ) -> BiquandleTable:
    """Operation table of the module biquandle x^y = tx + (1-st)y, x_y = sx.

    Indices follow the module's canonical element order unless
    ``element_order`` supplies another enumeration (printed matrices in the
    literature commonly put the zero element last).  Inverting the pair map
    gives x^ybar = t^-1 x + (1 - t^-1 s^-1)y and x_ybar = s^-1 x, read off
    the inverse permutations of the module's s and t; a singular s or t
    leaves S without an inverse and raises ``SwitchError``.
    """
    order = _resolve_order(module.carrier, element_order)
    s_inv, t_inv = _inverse(module.s_of), _inverse(module.t_of)
    plus, neg = module.plus, module.neg_of
    barred = [plus[y][neg[t_inv[x]]] for y, x in enumerate(s_inv)]
    zero = [0] * module.size
    return _affine_table(module.carrier, (
        (module.t_of, module.one_minus_st_of, 0), (module.s_of, zero, 0),
        (t_inv, barred, 0), (s_inv, zero, 0)), order)


@dataclass(frozen=True)
class SwitchReport:
    """Constructed switch table plus the two verdicts about it; the axiom
    report is built on first access, since a failing table's exhaustive
    report can hold hundreds of thousands of violations."""

    table: BiquandleTable
    switch_condition_holds: bool

    @cached_property
    def axioms(self) -> AxiomReport:
        return verify_biquandle(self.table)


def make_switch_biquandle(m: int, k: int, a_matrix, b_matrix, shift=None,
                          element_order: tuple[Elem, ...] | None = None
                          ) -> SwitchReport:
    """Affine switch table from invertible A, B and a constant shift.

    Uses C = A^-1 B^-1 A (I - A) and D = I - A^-1 B^-1 A B for
    x^y = Cx + Dy + c and x_y = Ay + Bx + c.  S(a, b) = (b_a, a^b) is
    M(a, b) + (c, c), M = [[A, B], [C, D]], whose Schur complement
    D - C A^-1 B = A^-1 (A - I): S is a bijection iff A - I is invertible
    mod m, else ``SwitchError`` is raised before anything is built.  With
    M^-1 = [[P, Q], [R, T]], T = (A - I)^-1 A, Q = -A^-1 B T, R = -T C A^-1
    and P = A^-1 - Q C A^-1, x^ybar = Qx + Py - (P+Q)c and
    x_ybar = Rx + Ty - (R+T)c.  The report carries whether the commutator
    condition [B, (A-I)(A,B)] = 0 holds and, when asked for, the axiom
    report, since neither is guaranteed for arbitrary inputs.

    Every map above is computed as a composition of the index images of A
    and B on Z_m^k (``Carrier.images``): a product is a gather, an inverse
    is ``_inverse`` and a difference reads ``plus`` and ``neg_of``.
    """
    if shift is not None and len(shift) != k:
        raise SwitchError(f"shift needs {k} coordinates")
    try:
        _check_size(m, k)
        amat = _as_matrix(m, k, a_matrix, "A")
        bmat = _as_matrix(m, k, b_matrix, "B")
    except ModuleError as exc:
        raise SwitchError(str(exc)) from None
    group = carrier(m, k)
    ay, bx = group.images(amat), group.images(bmat)
    for name, img in (("A", ay), ("B", bx)):
        if len(set(img)) < group.size:
            raise SwitchError(f"{name} is not invertible mod {m}")

    plus, neg = group.plus, group.neg_of

    def minus(f, g):
        return [plus[x][neg[y]] for x, y in zip(f, g)]

    ident, ainv = range(group.size), _inverse(ay)
    a_minus_i = minus(ay, ident)
    ty = _compose(_inverse(a_minus_i), ay)
    aibia = _compose(ainv, _inverse(bx), ay)
    group_comm = _compose(aibia, bx)  # (A,B) = A^-1 B^-1 A B
    cx, dy = _compose(aibia, minus(ident, ay)), minus(ident, group_comm)
    c_ainv = _compose(cx, ainv)
    qx = _compose(neg, ainv, bx, ty)
    rx = _compose(neg, ty, c_ainv)
    py = minus(ainv, _compose(qx, c_ainv))

    order = _resolve_order(group, element_order)
    c = 0 if shift is None else group.index_of(shift)
    table = _affine_table(group, (
        (cx, dy, c), (bx, ay, c),
        (qx, py, neg[plus[qx[c]][py[c]]]),
        (rx, ty, neg[plus[rx[c]][ty[c]]])), order)

    term = _compose(a_minus_i, group_comm)
    holds = _compose(bx, term) == _compose(term, bx)

    return SwitchReport(table, holds)
