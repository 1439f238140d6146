"""Finite modules over the two-variable Laurent ring, and their submodule,
coset, and orbit machinery.

A module is an abelian group Z_m^k, its *carrier*, with two commuting
invertible k x k matrices giving the actions of the ring generators s and t.
A matrix is read only where it is parsed, where its columns give the index
images of its map (``Carrier.images``), or where it is shown; invertibility,
commuting and every derived map are decided on those index images.
Elements are coordinate tuples at the public boundary only; the canonical
enumeration is plain lexicographic on coordinates, so the zero vector always
has index 0, an index is the element's base-m digits, and every algorithm
here runs on those 0-based indices.  The group arithmetic (``Carrier.plus``,
``neg_of`` and the images of matrices) depends on (m, k) alone and is built
from the digits, without coordinate tuples, so one ``Carrier`` per group is
built once and shared by every module and switch on it; a module adds only
the images of its own actions (``s_of``, ``t_of``, ``one_minus_st_of``).
The tuples (``elements``) and their lookup (``index``) are built only when
a caller passes elements in or reads them out.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator, Mapping
from functools import cached_property, lru_cache
from operator import attrgetter, itemgetter
from types import MappingProxyType

from . import kernels
from .errors import ModuleError
from .record import Record

Elem = tuple[int, ...]
Mat = tuple[tuple[int, ...], ...]


def _as_matrix(m: int, k: int, rows, name: str) -> Mat:
    rows = tuple(tuple(int(e) % m for e in row) for row in rows)
    if len(rows) != k or any(len(r) != k for r in rows):
        raise ModuleError(f"{name} must be a {k}x{k} integer matrix")
    return rows


def _addition_table(m: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Addition on Z_m^k in canonical order: row i, column j holds the
    index of the sum of the i-th and j-th elements.

    Built from the base-m digits of the indices, one leading digit at a
    time from the table of Z_m^(k-1), whose size M is that digit's weight.
    Since (a.M + i) + (c.M + j) = ((a + c) mod m).M + (i + j) for i, j < M,
    the row of a.M + i is the row of i with each leading digit c written
    in front (c.M + v), rotated left by a blocks: one slice of that list
    doubled.  Every entry is gathered from one tuple of the indices.
    """
    ids = tuple(range(m ** k))
    base = ids[:m] * 2
    rows = [base[a:a + m] for a in range(m)]  # Z_m: rotations of 0..m-1
    for _ in range(k - 1):
        size = len(rows)
        n = m * size
        blocks = [ids[c:c + size] for c in range(0, n, size)]  # c.M + v
        doubled = [sum(map(itemgetter(*row), blocks), ()) * 2 for row in rows]
        rows = [d[a:a + n] for a in range(0, n, size) for d in doubled]
    return tuple(rows)


def _check_size(m: int, k: int) -> None:
    """Refuse Z_m^k with ``ModuleError`` unless m >= 2 and k >= 1, and
    past 1024 elements: its addition table would hold more than
    ``kernels.MAX_STATES`` entries.  The size m^k is formed only up to
    k = 64 and printed only below 2^64."""
    if m < 2 or k < 1:
        raise ModuleError("need modulus >= 2 and rank >= 1")
    size = m ** min(k, 64)  # every m >= 2 is past the bound at k = 11
    if size ** 2 > kernels.MAX_STATES:
        shown = size if size < 1 << 64 else f"{m}^{k}"
        raise ModuleError(
            f"Z_{m}^{k} has {shown} elements; its addition"
            f" table would exceed {kernels.MAX_STATES} entries")


class Carrier:
    """The group Z_m^k: its elements in canonical order and the arithmetic
    on their 0-based indices, each built on first use.

    ``carrier(m, k)`` hands out one per group, shared by every module and
    switch on it, so its tables are tuples and ``index`` is a read-only
    mapping: no caller can change another module's arithmetic.
    """

    def __init__(self, m: int, k: int):
        self.m, self.k, self.size = m, k, m ** k

    def __reduce__(self):
        return carrier, (self.m, self.k)  # so unpickled modules share it

    @cached_property
    def elements(self) -> tuple[Elem, ...]:
        """All coordinate vectors in canonical (lexicographic) order.

        A group past 1024 elements raises ``ModuleError`` here, before
        anything is built (``_check_size``).
        """
        _check_size(self.m, self.k)
        return tuple(itertools.product(range(self.m), repeat=self.k))

    @cached_property
    def index(self) -> Mapping[Elem, int]:
        """Element -> 0-based canonical index (zero is 0)."""
        return MappingProxyType(dict(zip(self.elements, range(self.size))))

    @cached_property
    def units(self) -> tuple[int, ...]:
        """Canonical indices of the unit vectors e_1, ..., e_k:
        lexicographic order puts m^(k-i) elements before e_i."""
        return tuple([self.m ** (self.k - 1 - g) for g in range(self.k)])

    def index_of(self, x) -> int:
        """Canonical index of an element given by the caller: coordinates
        are reduced mod m, and a wrong length raises ``ValueError``."""
        if len(x) != self.k:
            raise ValueError(f"element needs {self.k} coordinates")
        return self.index[tuple([int(c) % self.m for c in x])]

    @cached_property
    def plus(self) -> tuple[tuple[int, ...], ...]:
        """plus[i][j] is the index of elements[i] + elements[j], built from
        the digits of the indices; a group past 1024 elements raises
        ``ModuleError`` first (``_check_size``)."""
        _check_size(self.m, self.k)
        return _addition_table(self.m, self.k)

    @cached_property
    def neg_of(self) -> tuple[int, ...]:
        k = self.k
        return tuple(self.images([[-int(i == j) for j in range(k)]
                                  for i in range(k)]))

    def images(self, mat: Mat) -> list[int]:
        """Index of mat.x for each index x, read off the matrix's columns:
        mat.e_g is column g, whose entries mod m are the digits of its index
        (weights ``units``).  In canonical order the elements zero before
        coordinate g are the blocks x + j.e_g (j < m) over those zero up to
        g, so each block is the previous one plus mat.e_g."""
        img, m = [0], self.m
        for col in reversed(list(zip(*mat))):
            add = self.plus[sum([c % m * w for c, w in zip(col, self.units)])]
            block = img
            for _ in range(m - 1):
                block = list(map(add.__getitem__, block))
                img += block
        return img


@lru_cache(maxsize=16)
def carrier(m: int, k: int) -> Carrier:
    """The one ``Carrier`` of Z_m^k, from a cache of the 16 groups used
    last; a module keeps its own reference, so an eviction never rebuilds
    a live module's arithmetic."""
    return Carrier(m, k)


def _carried(name: str) -> property:
    """The module's view of a member of its carrier."""
    return property(attrgetter("carrier." + name),
                    doc=f"The carrier's ``{name}``, shared by every module "
                        "on the same group.")


class FiniteModule(Record):
    """Z_m^k with commuting invertible actions of s and t.

    The group arithmetic is its carrier's (``size``, ``elements``,
    ``index``, ``index_of``, ``units``, ``plus``, ``neg_of``, ``images``);
    the module builds only the images of its actions.  Equality, hashing
    and repr ignore the carrier.
    """

    def __init__(self, m: int, k: int, s_matrix: Mat, t_matrix: Mat):
        self.__dict__.update(m=m, k=k, s_matrix=s_matrix, t_matrix=t_matrix,
                             carrier=carrier(m, k))

    size, elements, index, index_of, units, plus, neg_of, images = map(
        _carried, ("size", "elements", "index", "index_of", "units", "plus",
                   "neg_of", "images"))

    @cached_property
    def s_of(self) -> list[int]:
        return self.images(self.s_matrix)

    @cached_property
    def t_of(self) -> list[int]:
        return self.images(self.t_matrix)

    @cached_property
    def one_minus_st_of(self) -> list[int]:
        """Index of x - s.t.x for each index x."""
        neg, s_of, t_of = self.neg_of, self.s_of, self.t_of
        return [row[neg[s_of[t_of[x]]]] for x, row in enumerate(self.plus)]

    @property
    def zero(self) -> Elem:
        return (0,) * self.k

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
    """Validated module: the actions must permute Z_m^k and commute.

    Both are decided on the images: s.t is a permutation exactly when s
    and t are, and s.t = t.s on every index exactly when the matrices
    commute mod m.
    """
    _check_size(m, k)
    mod = FiniteModule(m, k, _as_matrix(m, k, s_matrix, "s action"),
                       _as_matrix(m, k, t_matrix, "t action"))
    s_of, t_of = mod.s_of, mod.t_of
    st = list(map(s_of.__getitem__, t_of))
    if len(set(st)) < mod.size:
        name = "s action" if len(set(s_of)) < mod.size else "t action"
        raise ModuleError(f"{name} is not invertible mod {m}")
    if st != list(map(t_of.__getitem__, s_of)):
        raise ModuleError(f"s and t actions do not commute mod {m}")
    return mod


def make_scalar_module(m: int, s: int, t: int) -> FiniteModule:
    return make_module(m, 1, ((s,),), ((t,),))


def counting_element_order(m: int, k: int) -> tuple[Elem, ...]:
    """Element order used by printed matrices: x_i encodes i in little-endian
    base-m digits, so the zero vector comes last (x_{m^k} = 0).  A group
    past 1024 elements raises ``ModuleError`` before any is built."""
    _check_size(m, k)
    return tuple(
        tuple((i // m ** j) % m for j in range(k))
        for i in range(1, m ** k + 1))


def format_elem(e: Elem) -> str:
    """A scalar element as its value, a vector as (a,b,...)."""
    return str(e[0]) if len(e) == 1 else "(" + ",".join(map(str, e)) + ")"


class Submodule(Record):
    """A subset of a module closed under +, -, and both actions."""

    def __init__(self, module: FiniteModule, elements: tuple[Elem, ...]):
        self.__dict__.update(module=module, elements=elements)

    @cached_property
    def members(self) -> frozenset[Elem]:
        return frozenset(self.elements)

    def __contains__(self, x: Elem) -> bool:
        return x in self.members

    def __len__(self) -> int:
        return len(self.elements)

    def is_closed(self) -> bool:
        mod = self.module
        mem = set(map(mod.index_of, self.elements))
        if 0 not in mem:
            return False
        plus, neg, s_of, t_of = mod.plus, mod.neg_of, mod.s_of, mod.t_of
        return all(
            neg[x] in mem and s_of[x] in mem and t_of[x] in mem
            and mem.issuperset(map(plus[x].__getitem__, mem))
            for x in mem)


def one_minus_st_submodule(module: FiniteModule) -> Submodule:
    """Image of x -> (1 - st)x; a submodule since the actions commute."""
    image = sorted(set(module.one_minus_st_of))
    return Submodule(module, tuple(map(module.elements.__getitem__, image)))


def kernel_one_minus_s(module: FiniteModule) -> Submodule:
    """Kernel of x -> (1 - s)x: the fixed points of s."""
    s_of = module.s_of
    return Submodule(module, tuple(
        x for i, x in enumerate(module.elements) if s_of[i] == i))


class Transversal(Record):
    """Canonical representatives (zero first) of the cosets of the (1-st)
    submodule ``sub``, plus their s-orbit; ``rep_index[i]``, which equality,
    hashing and repr ignore, is the index of the representative of the
    coset of the element with canonical 0-based index i."""

    _fields = ("module", "sub", "reps")

    def __init__(self, module: FiniteModule, sub: Submodule,
                 reps: tuple[Elem, ...], rep_index: list[int]):
        self.__dict__.update(module=module, sub=sub, reps=reps,
                             rep_index=rep_index)

    def rep_of(self, x: Elem) -> Elem:
        """The representative of x's coset."""
        mod = self.module
        return mod.elements[self.rep_index[mod.index_of(x)]]

    @cached_property
    def orbit(self) -> tuple[Elem, ...]:
        return s_orbit(self.module, self.reps)


def s_orbit(module: FiniteModule, xs: Iterable[Elem]) -> tuple[Elem, ...]:
    """Closure of a nonempty set under multiplication by s and s^{-1}, in
    canonical order.  s permutes the finite module, so closing under s
    alone walks each s-cycle round to its start."""
    idx = list(map(module.index_of, xs))
    if not idx:
        raise ValueError("orbit of an empty set")
    return tuple(map(module.elements.__getitem__,
                     sorted(_s_closure(module, idx))))


def _s_closure(module: FiniteModule, idx: Iterable[int]) -> set[int]:
    """The union of the s-cycles through the given indices."""
    seen: set[int] = set()
    s_of = module.s_of
    for x in idx:
        while x not in seen:
            seen.add(x)
            x = s_of[x]
    return seen


def transversal(module: FiniteModule) -> Transversal:
    """One representative per coset of the (1-st) submodule N, chosen
    canonically; N is built here and kept as ``sub``.

    Scanning elements in canonical order and keeping the first member of
    each new coset makes the choice deterministic and puts the zero vector
    (canonically first) in charge of the zero coset.
    """
    sub = one_minus_st_submodule(module)
    reps, members = [], set(module.one_minus_st_of)  # N's indices
    rep_index, elements = [-1] * module.size, module.elements
    for x, row in enumerate(module.plus):
        if rep_index[x] < 0:
            reps.append(elements[x])
            for y in map(row.__getitem__, members):
                rep_index[y] = x
    return Transversal(module, sub, tuple(reps), rep_index)


class ModuleIso(Record):
    """An additive bijection between submodules intertwining the actions:
    h(s x) = s' h(x) and h(t x) = t' h(x)."""

    def __init__(self, pairs: tuple[tuple[Elem, Elem], ...]):
        self.__dict__["pairs"] = pairs

    @cached_property
    def mapping(self) -> dict[Elem, Elem]:
        return dict(self.pairs)

    def __call__(self, x: Elem) -> Elem:
        return self.mapping[x]


def _star_table(sub: Submodule) -> tuple[int, ...]:
    """x * y = s.x + t.y as a flat table over ``sub.elements``, read from
    the module's index arithmetic: x * y = plus[s_of[x]][t_of[y]].

    This one table determines a submodule isomorphism.  s and t commute
    and are invertible, so each permutes the finite, s,t-stable submodule.
    A zero-fixing map h preserving * intertwines the actions,
    h(s.x) = h(x * 0) = s'.h(x) and h(t.y) = h(0 * y) = t'.h(y), and so it
    is additive: h(u + v) = h(s.s^-1 u + t.t^-1 v) = s'.h(s^-1 u) +
    t'.h(t^-1 v) = h(u) + h(v).  The converse is immediate.
    """
    mod, plus = sub.module, sub.module.plus
    idx = list(map(mod.index.__getitem__, sub.elements))
    pos = [None] * mod.size  # module index -> position in sub.elements
    for i, x in enumerate(idx):
        pos[x] = i
    t_idx = [mod.t_of[y] for y in idx]
    return tuple([pos[row[y]] for row in [plus[mod.s_of[x]] for x in idx]
                  for y in t_idx])


def module_isomorphisms(src: Submodule, dst: Submodule) -> Iterator[ModuleIso]:
    """All intertwining additive bijections src -> dst, lazily.

    Runs the map search ``kernels.iter_maps`` on the one ``_star_table`` of
    each submodule with zero fixed to zero, and yields each map as it is
    found, in increasing order of ``pairs``.  Choosing the image of one
    element propagates images through x * y = s.x + t.y, and so through
    sums and both actions, so the search branches only on a minimal
    generating sequence.  The profile filter stays off: on one table it
    costs more than it prunes.  On the order-729 submodule of ``Z_3^6``
    with s = 2I and t = I + J (J the superdiagonal), the first map took
    174-187 ms with it and 121-138 ms without (best of 3, four runs).
    A set without zero, on either side, raises ``ValueError``.
    """
    xs, ys = src.elements, dst.elements
    for name, sub in (("source", src), ("target", dst)):
        if sub.module.zero not in sub.elements:
            raise ValueError(f"{name} set holds no zero")
    stats: dict = {}
    fixed = ((xs.index(src.module.zero), ys.index(dst.module.zero)),)
    for f in kernels.iter_maps(len(xs), (_star_table(src),), len(ys),
                               (_star_table(dst),), stats, fixed=fixed,
                               use_profiles=False):
        yield ModuleIso(tuple(sorted((x, ys[j]) for x, j in zip(xs, f))))


def translation_map(module: FiniteModule, z: Elem) -> tuple[int, ...]:
    """The map x -> x + z as a 1-based permutation of table indices."""
    return tuple([x + 1 for x in module.plus[module.index_of(z)]])
