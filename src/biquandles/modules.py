"""Finite modules over the two-variable Laurent ring, and their submodule,
coset, and orbit machinery.

The carrier is Z_m^k with two commuting invertible k x k matrices giving the
actions of the ring generators s and t.  Elements are coordinate tuples; the
canonical enumeration is plain lexicographic on coordinates, so the zero
vector always has index 1.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator

from . import kernels
from .errors import ModuleError

Elem = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]


def _as_matrix(m: int, k: int, rows, name: str) -> Mat:
    rows = tuple(tuple(int(e) % m for e in row) for row in rows)
    if len(rows) != k or any(len(r) != k for r in rows):
        raise ModuleError(f"{name} must be a {k}x{k} integer matrix")
    return rows


def _mat_vec(mat: Mat, vec: Elem, m: int) -> Elem:
    return tuple(sum(r * v for r, v in zip(row, vec)) % m for row in mat)


def _mat_mul(a: Mat, b: Mat, m: int) -> Mat:
    k = len(a)
    return tuple(
        tuple(sum(a[i][l] * b[l][j] for l in range(k)) % m for j in range(k))
        for i in range(k))


def _identity(k: int) -> Mat:
    return tuple(tuple(1 if i == j else 0 for j in range(k))
                 for i in range(k))


def _mat_sub(a: Mat, b: Mat, m: int) -> Mat:
    return tuple(tuple((x - y) % m for x, y in zip(ra, rb))
                 for ra, rb in zip(a, b))


def _addition_table(m: int, index: dict[Elem, int]) -> list[list[int]]:
    """Addition on the keys of ``index`` (closed under + mod m): row i,
    column j holds the index of the sum of the i-th and j-th keys."""
    return [[index[tuple((p + q) % m for p, q in zip(x, y))] for y in index]
            for x in index]


def _minor(mat: Mat, i: int, j: int) -> Mat:
    return tuple(row[:j] + row[j + 1:] for r, row in enumerate(mat) if r != i)


def _det(mat: Mat) -> int:
    """Integer determinant by cofactor expansion along the first row."""
    if not mat:
        return 1
    return sum((-1) ** j * e * _det(_minor(mat, 0, j))
               for j, e in enumerate(mat[0]))


def _mat_inv(mat: Mat, m: int, name: str) -> Mat:
    """Inverse mod m: the integer adjugate times the inverse determinant."""
    det = _det(mat) % m
    if math.gcd(det, m) != 1:
        raise ModuleError(f"{name} is not invertible mod {m}: "
                          f"determinant {det} is not a unit")
    unit = pow(det, -1, m)
    k = len(mat)
    return tuple(
        tuple((-1) ** (i + j) * _det(_minor(mat, j, i)) * unit % m
              for j in range(k))
        for i in range(k))


@dataclass(frozen=True)
class FiniteModule:
    """Z_m^k with commuting invertible actions of s and t."""

    m: int
    k: int
    s_matrix: Mat
    t_matrix: Mat

    @cached_property
    def size(self) -> int:
        return self.m ** self.k

    @cached_property
    def elements(self) -> tuple[Elem, ...]:
        """All coordinate vectors in canonical (lexicographic) order."""
        return tuple(itertools.product(range(self.m), repeat=self.k))

    @cached_property
    def index(self) -> dict[Elem, int]:
        """Element -> 1-based canonical index."""
        return {e: i for i, e in enumerate(self.elements, start=1)}

    @cached_property
    def s_inverse(self) -> Mat:
        return _mat_inv(self.s_matrix, self.m, "s action")

    @cached_property
    def t_inverse(self) -> Mat:
        return _mat_inv(self.t_matrix, self.m, "t action")

    @cached_property
    def one_minus_st(self) -> Mat:
        """The matrix of 1 - s*t, computed literally as I - S.T."""
        st = _mat_mul(self.s_matrix, self.t_matrix, self.m)
        return _mat_sub(_identity(self.k), st, self.m)

    @property
    def zero(self) -> Elem:
        return (0,) * self.k

    def add(self, x: Elem, y: Elem) -> Elem:
        return tuple((a + b) % self.m for a, b in zip(x, y))

    def neg(self, x: Elem) -> Elem:
        return tuple((-a) % self.m for a in x)

    def sub(self, x: Elem, y: Elem) -> Elem:
        return tuple((a - b) % self.m for a, b in zip(x, y))

    def act(self, mat: Mat, x: Elem) -> Elem:
        return _mat_vec(mat, x, self.m)

    def act_s(self, x: Elem) -> Elem:
        return _mat_vec(self.s_matrix, x, self.m)

    def act_t(self, x: Elem) -> Elem:
        return _mat_vec(self.t_matrix, x, self.m)

    def scalar_params(self) -> tuple[int, int]:
        if self.k != 1:
            raise ValueError("not a scalar (k=1) module")
        return self.s_matrix[0][0], self.t_matrix[0][0]

    def describe(self) -> str:
        if self.k == 1:
            s, t = self.scalar_params()
            return f"Z_{self.m} with s={s}, t={t}"
        return f"Z_{self.m}^{self.k} with matrix actions"


def make_module(m: int, k: int, s_matrix, t_matrix) -> FiniteModule:
    """Validated module; actions must be invertible mod m and commute."""
    if m < 2:
        raise ModuleError("modulus must be >= 2")
    if k < 1:
        raise ModuleError("rank must be >= 1")
    smat = _as_matrix(m, k, s_matrix, "s action")
    tmat = _as_matrix(m, k, t_matrix, "t action")
    mod = FiniteModule(m, k, smat, tmat)
    mod.s_inverse  # raises ModuleError if the determinant is not a unit
    mod.t_inverse
    if _mat_mul(smat, tmat, m) != _mat_mul(tmat, smat, m):
        raise ModuleError("s and t actions do not commute mod m")
    return mod


def make_scalar_module(m: int, s: int, t: int) -> FiniteModule:
    return make_module(m, 1, ((s,),), ((t,),))


def counting_element_order(m: int, k: int) -> tuple[Elem, ...]:
    """Element order used by printed matrices: x_i encodes i in little-endian
    base-m digits, so the zero vector comes last (x_{m^k} = 0)."""
    return tuple(
        tuple((i // m ** j) % m for j in range(k))
        for i in range(1, m ** k + 1))


def format_elem(e: Elem) -> str:
    """A scalar element as its value, a vector as (a,b,...)."""
    return str(e[0]) if len(e) == 1 else "(" + ",".join(map(str, e)) + ")"


@dataclass(frozen=True)
class Submodule:
    """A subset of a module closed under +, -, and both actions."""

    module: FiniteModule
    elements: tuple[Elem, ...]

    @cached_property
    def members(self) -> frozenset[Elem]:
        return frozenset(self.elements)

    def __contains__(self, x: Elem) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.elements)

    def is_closed(self) -> bool:
        mod = self.module
        mem = self.members
        if mod.zero not in mem:
            return False
        return all(
            mod.add(x, y) in mem and mod.neg(x) in mem
            and mod.act_s(x) in mem and mod.act_t(x) in mem
            for x in mem for y in mem)


def one_minus_st_submodule(module: FiniteModule) -> Submodule:
    """Image of x -> (1 - st)x; a submodule since the actions commute."""
    mat = module.one_minus_st
    image = sorted({module.act(mat, x) for x in module.elements})
    return Submodule(module, tuple(image))


def kernel_one_minus_s(module: FiniteModule) -> Submodule:
    """Kernel of x -> (1 - s)x."""
    mat = _mat_sub(_identity(module.k), module.s_matrix, module.m)
    zero = module.zero
    ker = [x for x in module.elements if module.act(mat, x) == zero]
    return Submodule(module, tuple(ker))


@dataclass(frozen=True)
class Transversal:
    """Canonical coset representatives (zero first) plus their s-orbit."""

    module: FiniteModule
    sub: Submodule
    reps: tuple[Elem, ...]
    orbit: tuple[Elem, ...]

    def rep_of(self, x: Elem) -> Elem:
        """The representative of x's coset."""
        return self._rep_map[x]

    @cached_property
    def _rep_map(self) -> dict[Elem, Elem]:
        mod = self.module
        out = {}
        for rep in self.reps:
            for w in self.sub.elements:
                out[mod.add(rep, w)] = rep
        return out


def s_orbit(module: FiniteModule, xs: Iterable[Elem]) -> tuple[Elem, ...]:
    """Closure of a nonempty set under multiplication by s and s^{-1}."""
    todo = list(xs)
    if not todo:
        raise ValueError("orbit of an empty set")
    seen = set()
    sinv = module.s_inverse
    while todo:
        x = todo.pop()
        if x in seen:
            continue
        seen.add(x)
        todo.append(module.act_s(x))
        todo.append(module.act(sinv, x))
    return tuple(sorted(seen))


def transversal(module: FiniteModule, sub: Submodule) -> Transversal:
    """One representative per coset of ``sub``, chosen canonically.

    Scanning elements in canonical order and keeping the first member of
    each new coset makes the choice deterministic and puts the zero vector
    (canonically first) in charge of the zero coset.
    """
    if sub.module is not module and sub.module != module:
        raise ValueError("submodule belongs to a different module")
    reps = []
    covered = set()
    for x in module.elements:
        if x in covered:
            continue
        reps.append(x)
        for w in sub.elements:
            covered.add(module.add(x, w))
    return Transversal(module, sub, tuple(reps),
                       s_orbit(module, reps))


@dataclass(frozen=True)
class ModuleIso:
    """An additive bijection between submodules intertwining the actions:
    h(s x) = s' h(x) and h(t x) = t' h(x)."""

    pairs: tuple[tuple[Elem, Elem], ...]

    @cached_property
    def mapping(self) -> dict[Elem, Elem]:
        return dict(self.pairs)

    def __call__(self, x: Elem) -> Elem:
        return self.mapping[x]


def _op_tables(sub: Submodule) -> tuple[tuple[int, ...], ...]:
    """x + y, x + s.y and x + t.y as flat tables over ``sub.elements``.

    A zero-fixing bijection preserving all three is additive, and setting
    x = 0 shows it intertwines s and t; the converse is immediate.  The two
    action tables permute the columns of the addition table.
    """
    mod = sub.module
    index = {e: i for i, e in enumerate(sub.elements)}
    plus = _addition_table(mod.m, index)
    columns = (range(len(plus)),
               [index[mod.act_s(y)] for y in sub.elements],
               [index[mod.act_t(y)] for y in sub.elements])
    return tuple(tuple(row[c] for row in plus for c in cols)
                 for cols in columns)


def _iso_valid(src: Submodule, dst: Submodule, phi: dict[Elem, Elem]) -> bool:
    ms, md = src.module, dst.module
    if set(phi.values()) != set(dst.elements):
        return False
    intertwines = all(phi[ms.act_s(x)] == md.act_s(phi[x])
                      and phi[ms.act_t(x)] == md.act_t(phi[x])
                      for x in src.elements)
    return intertwines and all(
        phi[ms.add(x, y)] == md.add(phi[x], phi[y])
        for x in src.elements for y in src.elements)


def module_isomorphisms(src: Submodule, dst: Submodule) -> Iterator[ModuleIso]:
    """All intertwining additive bijections src -> dst, lazily.

    Runs the biquandle map search ``kernels.iter_maps`` on the ``_op_tables``
    encoding of both submodules with zero fixed to zero, and yields each map
    as it is found, in increasing order of ``pairs``.  Choosing the image of
    one element propagates images through sums and both actions, so the
    search branches only on a minimal generating sequence.
    """
    xs, ys = src.elements, dst.elements
    if len(xs) != len(ys):
        return
    stats: dict = {}
    fixed = ((xs.index(src.module.zero), ys.index(dst.module.zero)),)
    for f in kernels.iter_maps(len(xs), _op_tables(src), len(ys),
                               _op_tables(dst), stats, fixed=fixed,
                               use_profiles=False):
        phi = {x: ys[j] for x, j in zip(xs, f)}
        if _iso_valid(src, dst, phi):  # re-check, defence in depth
            yield ModuleIso(tuple(sorted(phi.items())))


def translation_map(module: FiniteModule, z: Elem,
                    element_order: tuple[Elem, ...] | None = None
                    ) -> tuple[int, ...]:
    """The map x -> x + z as a 1-based permutation of table indices."""
    order = element_order or module.elements
    index = {e: i for i, e in enumerate(order, start=1)}
    return tuple(index[module.add(x, z)] for x in order)
