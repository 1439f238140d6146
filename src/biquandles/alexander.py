"""Biquandle constructors on finite modules.

One builder makes both families of affine switches x^y = Cx + Dy + c,
x_y = Ay + Bx + c: the Laurent-module biquandle x^y = tx + (1-st)y, x_y = sx
(C = t, D = 1 - st, A = 0, B = s, c = 0), and the switch construction with
C, D derived from invertible A, B.  The barred operations are forced by the
inverse of the pair map S(a, b) = (b_a, a^b).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .axioms import AxiomReport, verify_biquandle
from .errors import ModuleError, SwitchError, WitnessError
from .modules import (Elem, FiniteModule, Mat, _addition_table, _as_matrix,
                      _identity, _mat_inv, _mat_mul, _mat_sub, _mat_vec,
                      kernel_one_minus_s, translation_map)
from .tables import BiquandleTable, from_pair_map, is_homomorphism


def _resolve_order(module_elements, element_order, m):
    if element_order is None:
        return tuple(module_elements)
    order = tuple(tuple(int(c) % m for c in e) for e in element_order)
    if sorted(order) != sorted(module_elements):
        raise ValueError("element_order must enumerate every element once")
    return order


def _affine_table(m: int, order: tuple[Elem, ...], cmat: Mat, dmat: Mat,
                  amat: Mat, bmat: Mat, shift: Elem) -> BiquandleTable:
    """Table of x^y = Cx + Dy + c, x_y = Ay + Bx + c; index i is order[i].

    The matrices are applied to the unit vectors only, and every sum is
    read from one addition table of the group.  A walk from zero along the
    unit vectors reaches each other element y once, as y = x + e_g from an
    element x reached before it, so a linear map f has f(y) = f(x) + f(e_g).
    The barred operations invert the pair map, so a non-bijective one
    raises ``SwitchError``.  The table's ``affine_basis`` holds the indices
    of the zero vector and of the unit vectors, which lets
    ``verify_biquandle`` decide axiom 3 on 1 + 2k pairs.
    """
    index = {e: i for i, e in enumerate(order)}
    plus = _addition_table(m, index)
    shifted = plus[index[shift]]
    units = _identity(len(shift))
    basis = (index[(0,) * len(shift)],) + tuple(index[e] for e in units)
    zero, gens = basis[0], basis[1:]
    steps, walked, seen = [], [zero], {zero}
    for x in walked:
        for g, e_g in enumerate(gens):
            y = plus[x][e_g]
            if y not in seen:
                seen.add(y)
                walked.append(y)
                steps.append((y, x, g))

    def images(mat):
        cols = [index[_mat_vec(mat, e, m)] for e in units]
        img = [zero] * len(order)
        for y, x, g in steps:
            img[y] = plus[img[x]][cols[g]]
        return img

    cx, dy, bx, ay = map(images, (cmat, dmat, bmat, amat))
    up = [row[y] for row in [plus[shifted[x]] for x in cx] for y in dy]
    down = [row[y] for row in [plus[shifted[x]] for x in bx] for y in ay]
    return from_pair_map(len(order), up, down, basis)


def make_alexander(module: FiniteModule,
                   element_order: tuple[Elem, ...] | None = None
                   ) -> BiquandleTable:
    """Operation table of the module biquandle x^y = tx + (1-st)y, x_y = sx.

    Indices follow the module's canonical element order unless
    ``element_order`` supplies another enumeration (printed matrices in the
    literature commonly put the zero element last).  Inverting the pair map
    gives x^ybar = t^-1 x + (1 - s^-1 t^-1)y and x_ybar = s^-1 x.
    """
    order = _resolve_order(module.elements, element_order, module.m)
    zero = ((0,) * module.k,) * module.k
    return _affine_table(module.m, order, module.t_matrix,
                         module.one_minus_st, zero, module.s_matrix,
                         module.zero)


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
    x^y = Cx + Dy + shift and x_y = Ay + Bx + shift.  The barred operations
    are read off the inverse of the pair map S(a, b) = (b_a, a^b); a
    non-bijective S raises ``SwitchError``.  The report carries whether the
    commutator condition [B, (A-I)(A,B)] = 0 holds and, when asked for, the
    axiom report, since neither is guaranteed for arbitrary inputs.
    """
    if shift is not None and len(shift) != k:
        raise SwitchError(f"shift needs {k} coordinates")
    if m < 2 or k < 1:
        raise SwitchError("need modulus >= 2 and rank >= 1")
    try:
        amat = _as_matrix(m, k, a_matrix, "A")
        bmat = _as_matrix(m, k, b_matrix, "B")
        ainv = _mat_inv(amat, m, "A")
        binv = _mat_inv(bmat, m, "B")
    except ModuleError as exc:
        raise SwitchError(str(exc)) from None

    ident = _identity(k)
    aibi = _mat_mul(ainv, binv, m)
    cmat = _mat_mul(_mat_mul(aibi, amat, m), _mat_sub(ident, amat, m), m)
    dmat = _mat_sub(ident, _mat_mul(_mat_mul(aibi, amat, m), bmat, m), m)
    c = (0,) * k if shift is None else tuple(int(v) % m for v in shift)
    order = _resolve_order(itertools.product(range(m), repeat=k),
                           element_order, m)
    table = _affine_table(m, order, cmat, dmat, amat, bmat, c)

    group_comm = _mat_mul(aibi, _mat_mul(amat, bmat, m), m)  # (A,B)
    term = _mat_mul(_mat_sub(amat, ident, m), group_comm, m)
    holds = _mat_mul(bmat, term, m) == _mat_mul(term, bmat, m)

    return SwitchReport(table, holds)


def normalize_iso(src: FiniteModule, dst: FiniteModule, f) -> tuple[int, ...]:
    """Compose a biquandle isomorphism with a translation so it fixes zero.

    ``f`` maps canonical table indices of ``src`` to those of ``dst`` and
    must be an isomorphism of the two module biquandles; the translation by
    -f(0) is itself an automorphism because f(0) lies in Ker(1 - s).
    """
    ta, tb = make_alexander(src), make_alexander(dst)
    images = tuple(f)
    if sorted(images) != list(range(1, tb.n + 1)) or \
            not is_homomorphism(ta, tb, images):
        raise WitnessError("map is not a biquandle isomorphism")
    f_zero = dst.elements[images[src.index[src.zero] - 1] - 1]
    if f_zero == dst.zero:
        return images
    if f_zero not in kernel_one_minus_s(dst):
        raise WitnessError("isomorphism image of zero escapes Ker(1-s)")
    shift = translation_map(dst, dst.neg(f_zero))
    return tuple(shift[i - 1] for i in images)
