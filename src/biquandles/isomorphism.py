"""Deciding biquandle isomorphism.

Two independent routes: a backtracking search over element bijections that
works for any pair of finite biquandles, and a structural search for module
biquandles that pairs an intertwining isomorphism of the (1-st) submodules
with a map of coset representatives chosen once per s-cycle of cosets.  The
two must agree; the test suite sweeps them against each other.  Both get
their maps from the one propagate-and-branch search, ``kernels.iter_maps``,
which yields maps in increasing lexicographic order of their image tuples.
The search reads the tables its caller hands it and nothing else, so each
decider chooses the tables that determine its map: the first the up and
down tables, as axiom 1 makes the barred pair their inverse (see
``brute_force_iso``); the second, through ``module_isomorphisms``, the
submodules' table of x * y = s.x + t.y, which forces additivity and both
actions (see ``modules._star_table``), one submodule isomorphism at a
time.  Enumeration runs no map search: it groups the tables it finds by a
canonical form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Optional

from . import kernels
from .axioms import verify_biquandle
from .errors import WitnessError
from .modules import (Elem, FiniteModule, ModuleIso, Transversal, _s_closure,
                      format_elem, module_isomorphisms, transversal)
from .tables import KINDS, BiquandleTable, from_pair_map, normalize_map


@dataclass(frozen=True)
class SearchStats:
    """Search effort counters; prune counts are keyed by reason."""

    candidates: int = 0
    prunes: dict = field(default_factory=dict)
    work: int = 0

    def total_prunes(self) -> int:
        return sum(self.prunes.values())


def _require_biquandle(table: BiquandleTable, which: str):
    report = verify_biquandle(table)
    if not report.passed:
        cid, wit = report.violations[0]
        raise ValueError(
            f"{which} table is not a biquandle (first violation: "
            f"axiom {cid} at {wit})")


def fixed_point_profile(table: BiquandleTable) -> tuple[tuple, ...]:
    """Per-element fingerprint preserved by isomorphisms: the one the map
    search filters candidate images by.

    For each element and each of up and down: how many right operands fix
    it, how many left operands are fixed by it, and whether it fixes
    itself.  The barred operations are left out, as the search reads only
    up and down (see ``brute_force_iso``).  Isomorphic tables have equal
    sorted profiles.
    """
    return tuple(kernels._profiles(table.n, table.flats()[:2]))


def profiles_compatible(src: BiquandleTable, dst: BiquandleTable) -> bool:
    """Necessary condition for isomorphism: equal sorted profiles, the
    ones the map search filters by."""
    return sorted(fixed_point_profile(src)) == sorted(fixed_point_profile(dst))


def _stats(raw) -> SearchStats:
    return SearchStats(candidates=raw["candidates"],
                       prunes=dict(raw["prunes"]), work=raw["work"])


def _isomorphisms(src: BiquandleTable, dst: BiquandleTable, find_all: bool
                  ) -> tuple[list[tuple[int, ...]], dict]:
    """(1-based isomorphisms in search order, all or the first, raw search
    counters) from the search on up and down (see ``brute_force_iso``)."""
    _require_biquandle(src, "source")
    _require_biquandle(dst, "target")
    maps, raw = kernels.search_maps(src.n, src.flats()[:2], dst.n,
                                    dst.flats()[:2], find_all=find_all)
    return [tuple(v + 1 for v in m) for m in maps], raw


def brute_force_iso(src: BiquandleTable, dst: BiquandleTable
                    ) -> tuple[Optional[tuple[int, ...]], SearchStats]:
    """The lexicographically least isomorphism, or None.

    Both inputs must pass the axiom check.  The search assigns the first
    unassigned element next, tries its images in increasing order, filters
    them by fixed-point profile, and propagates forced images through the
    up and down tables only, so its first map is the least image tuple.

    Those two determine the rest.  By axiom 1 the barred pair inverts
    S(a, b) = (b_a, a^b), so for any map f, bijective or not, f x f o S =
    S' o f x f gives f x f o S^-1 = S'^-1 o f x f: a map preserving up and
    down preserves upbar and downbar.  The search accepts the same maps as
    on all four tables, in the same order.
    """
    maps, raw = _isomorphisms(src, dst, find_all=False)
    return (maps[0] if maps else None), _stats(raw)


def all_isomorphisms(src: BiquandleTable, dst: BiquandleTable
                     ) -> list[tuple[int, ...]]:
    """Every isomorphism, in increasing lexicographic order of image
    tuples (the search order), found on up and down as in
    ``brute_force_iso``."""
    return _isomorphisms(src, dst, find_all=True)[0]


def enumerate_homomorphisms(src: BiquandleTable, dst: BiquandleTable,
                            ops: tuple[str, ...] = KINDS,
                            fix: dict[int, int] | None = None,
                            require_bijection: bool = False
                            ) -> list[tuple[int, ...]]:
    """All maps preserving the selected operations (1-based images), in
    increasing lexicographic order.

    ``fix`` pre-assigns images, source element -> target element.  With the
    default arguments this enumerates every biquandle homomorphism;
    restricting ``ops`` to ("up", "down") yields the maps satisfying only
    the unbarred equations.  An unknown kind or a ``fix`` entry that is not
    an element of its side raises ``ValueError``.
    """
    ops = tuple(ops)  # read twice: checked here, then matched to KINDS
    for kind in ops:
        if kind not in KINDS:
            raise ValueError(f"unknown operation kind {kind!r}")
    fix = fix or {}
    for i, j in fix.items():
        if type(i) is not int or not 1 <= i <= src.n:
            raise ValueError(f"fix key {i!r} outside 1..{src.n}")
        if type(j) is not int or not 1 <= j <= dst.n:
            raise ValueError(f"fix value {j!r} outside 1..{dst.n}")
    keep = [kind in ops for kind in KINDS]  # in KINDS order, each once
    maps, _ = kernels.search_maps(
        src.n, list(itertools.compress(src.flats(), keep)),
        dst.n, list(itertools.compress(dst.flats(), keep)),
        require_bijection=require_bijection,
        fixed=[(i - 1, j - 1) for i, j in fix.items()], find_all=True)
    return [tuple(v + 1 for v in m) for m in maps]


@dataclass(frozen=True)
class IsoWitness:
    """Structural certificate for an isomorphism of module biquandles.

    ``submodule_map`` is the intertwining isomorphism h on the (1-st)
    submodules, ``rep_map`` sends each canonical coset representative to its
    image, and ``perm`` is the assembled bijection on 1-based table indices
    (f(rep + w) = rep_map(rep) + h(w)).
    """

    source: FiniteModule
    target: FiniteModule
    submodule_map: ModuleIso
    rep_map: tuple[tuple[Elem, Elem], ...]
    perm: tuple[int, ...]


def assemble_witness_map(src: FiniteModule, dst: FiniteModule,
                         submodule_map: ModuleIso,
                         rep_map: dict[Elem, Elem]) -> tuple[int, ...]:
    """Build the full index bijection from (h, rep-map) witness data.

    Elements are read through ``index_of``, so coordinates are reduced mod
    m; an element of the (1-st) submodule that h does not map, or a
    canonical representative that the rep map misses, raises
    ``WitnessError`` naming it, and so does data that assembles to a map
    that is not a bijection.
    """
    trans = transversal(src)
    sub = trans.sub
    h_of, k_of = ({src.index_of(x): dst.index_of(y) for x, y in pairs}
                  for pairs in (submodule_map.pairs, rep_map.items()))
    for name, given, needed in (("submodule map", h_of, sub.elements),
                                ("rep map", k_of, trans.reps)):
        for x in needed:
            if src.index[x] not in given:
                raise WitnessError(
                    f"{name} has no image for {format_elem(x)}")
    perm = _assemble(src, dst, trans, h_of, k_of)
    if sorted(perm) != list(range(1, dst.size + 1)):
        raise WitnessError("assembled map is not a bijection")
    return perm


def _assemble(src: FiniteModule, dst: FiniteModule, trans: Transversal,
              h_of: dict[int, int], k_of: dict[int, int]
              ) -> tuple[int, ...]:
    """f(rep + w) = k(rep) + h(w) as 1-based table indices, with ``trans``
    the transversal of src's (1-st) submodule and h, k as index maps."""
    plus, neg, plus_d = src.plus, src.neg_of, dst.plus
    return tuple(plus_d[k_of[rep]][h_of[plus[x][neg[rep]]]] + 1
                 for x, rep in enumerate(trans.rep_index))


def _certifies(src: FiniteModule, dst: FiniteModule,
               perm: tuple[int, ...]) -> bool:
    """Whether a map f, given as 1-based images, is a zero-fixing
    isomorphism of the two module biquandles, in O(n(k + 2)) and without
    building either table.

    f must be a bijection with f o A = B o f for each pair (A, B):
    (s, s'), (t, t'), and (x -> x + g, y -> y + f(g)) for each generator
    g = (1-st)e_i of N = (1-st)M.  A zero-fixing isomorphism meets them:
    f(tz) = f(z^0) = t'f(z), and x^y = tx + (1-st)y at x = t^-1 z gives
    f(z + (1-st)y) = f(z) + (1-s't')f(y).  They suffice:

    1. The translation pair at x = 0 gives f(0) = 0, and as the g span N
       as a group, additivity along them gives f(x + w) = f(x) + f(w) for
       every w in N.
    2. Then f(y) = f(sty) + f((1-st)y) = s't'f(y) + f((1-st)y), so
       f(x^y) = t'f(x) + f((1-st)y) = f(x)^f(y), and f(x_y) = f(sx) =
       f(x)_f(y).  The barred operations follow, as f is a bijection
       preserving S.

    Each side of each pair is one ``itemgetter`` gather of n indices.
    """
    if sorted(perm) != list(range(1, dst.size + 1)):
        return False
    f = [i - 1 for i in perm]
    after_f = itemgetter(*f)  # B -> B o f
    gens = map(src.one_minus_st_of.__getitem__, src.units)
    pairs = [(src.s_of, dst.s_of), (src.t_of, dst.t_of)] + \
        [(src.plus[g], dst.plus[f[g]]) for g in gens]
    return all(itemgetter(*a)(f) == after_f(b) for a, b in pairs)


def normalize_iso(src: FiniteModule, dst: FiniteModule, f
                  ) -> tuple[int, ...]:
    """Compose a biquandle isomorphism with a translation so it fixes zero.

    ``f`` maps 1-based canonical indices of ``src`` to those of ``dst``,
    as a sequence of images or a mapping (``normalize_map``: a malformed
    map raises ``ValueError``).  An isomorphism sends zero into
    Ker(1 - s'), as 0_0 = 0, and translation by an element of Ker(1 - s')
    is an automorphism of dst, so f is an isomorphism iff s' fixes f(0)
    and x -> f(x) - f(0) passes ``_certifies``.  No table is built; a map
    that is not an isomorphism raises ``WitnessError``.
    """
    images = normalize_map(f, src.size, dst.size)
    f_zero = images[0] - 1  # zero is canonical index 0 on both sides
    if dst.s_of[f_zero] == f_zero:
        shift = dst.plus[dst.neg_of[f_zero]]
        perm = tuple([shift[i - 1] + 1 for i in images])
        if _certifies(src, dst, perm):
            return perm
    raise WitnessError("map is not a biquandle isomorphism")


def _s_cycles(mod: FiniteModule, trans: Transversal
              ) -> list[list[tuple[int, int]]]:
    """Cycles of rep -> base, s*rep = base + w, as (rep, w) lists of
    canonical 0-based indices; 0 first."""
    cycles, seen = [], set()
    rep_of, plus, neg, s_of = trans.rep_index, mod.plus, mod.neg_of, mod.s_of
    for rep in sorted(set(rep_of)):
        cycle = []
        while rep not in seen:
            seen.add(rep)
            srep = s_of[rep]
            base = rep_of[srep]
            cycle.append((rep, plus[srep][neg[base]]))
            rep = base
        if cycle:
            cycles.append(cycle)
    return cycles


def structural_iso(src: FiniteModule, dst: FiniteModule
                   ) -> tuple[Optional[IsoWitness], SearchStats]:
    """Decide isomorphism of two module biquandles structurally.

    Searches for an intertwining submodule isomorphism h and a zero-fixing
    map k of coset representatives with (1-st)k(a) = h((1-st)a), one coset
    per image, and s'k(a) = k(b) + h(w) whenever sa = b + w with b a
    representative and w in the submodule.  As s permutes the cosets and k
    must intertwine s and s', both sides need equal s-cycle lengths.  Per h,
    k of a cycle's first representative, from the (1-st) fibre, forces k
    around the cycle; the first start whose walk closes on an unused target
    cycle of equal length is kept (zero's cycle comes first and keeps 0).
    No choice is ever undone: the closing starts of a length-L cycle form a
    coset of the s'-stable group ker(1-st') & ker(s'^L - 1), so if cycles C
    and C' can both take D and C can take D', then C' can take D' too.  The
    full map f(rep + w) = k(rep) + h(w) is verified outright by
    ``_certifies``, the check ``normalize_iso`` runs too: on the module,
    in O(nk), without building either table.  The h are drawn lazily from
    ``module_isomorphisms``, so the search for them stops at the first h
    that extends.  Every step runs on canonical indices, through the
    arithmetic ``make_alexander`` reads too (the group's shared ``plus``
    and each module's action images); the witness holds elements.
    """
    prunes = {"size": 0, "cycle_type": 0, "submodule": 0, "coset": 0,
              "closure": 0, "verify": 0}
    candidates = 0
    work = 0

    def done(witness):
        return witness, SearchStats(candidates=candidates,
                                    prunes=prunes, work=work)

    if src.size != dst.size:
        prunes["size"] += 1
        return done(None)

    fibers: dict[int, list[int]] = {}
    for y, v in enumerate(dst.one_minus_st_of):
        fibers.setdefault(v, []).append(y)

    trans_s, trans_d = transversal(src), transversal(dst)
    sub_s, sub_d = trans_s.sub, trans_d.sub
    cycles = _s_cycles(src, trans_s)
    d_cycles = _s_cycles(dst, trans_d)
    if sorted(map(len, cycles)) != sorted(map(len, d_cycles)):
        prunes["cycle_type"] += 1
        return done(None)
    cycle_of = {rep: c for c, cyc in enumerate(d_cycles) for rep, _ in cyc}
    one_minus_st, d_rep = src.one_minus_st_of, trans_d.rep_index
    plus, neg, s_of = dst.plus, dst.neg_of, dst.s_of
    index_s, index_d = src.index, dst.index

    h = None
    for h in module_isomorphisms(sub_s, sub_d):
        h_of = {index_s[x]: index_d[y] for x, y in h.pairs}
        k_of: dict[int, int] = {}
        used: set[int] = set()  # target cycles taken

        def place(cycle) -> bool:
            nonlocal candidates, work
            for y in fibers[h_of[one_minus_st[cycle[0][0]]]]:
                candidates += 1
                c = cycle_of[d_rep[y]]
                if c in used or len(d_cycles[c]) != len(cycle):
                    prunes["coset"] += 1
                    continue
                ks, k = {}, y
                for rep, w in cycle:
                    work += 1
                    ks[rep] = k
                    k = plus[s_of[k]][neg[h_of[w]]]  # k(base)
                if k == y:
                    k_of.update(ks)
                    used.add(c)
                    return True
                prunes["closure"] += 1
            return False

        if not all(map(place, cycles)):
            continue
        perm = _assemble(src, dst, trans_s, h_of, k_of)
        if _certifies(src, dst, perm):
            els, eld = src.elements, dst.elements
            rep_map = tuple(sorted((els[rep], eld[k])
                                   for rep, k in k_of.items()))
            witness = IsoWitness(source=src, target=dst, submodule_map=h,
                                 rep_map=rep_map, perm=perm)
            return done(witness)
        prunes["verify"] += 1
    if h is None:
        prunes["submodule"] += 1
    return done(None)


def extract_witness(src: FiniteModule, dst: FiniteModule, f) -> IsoWitness:
    """Recover the structural certificate from a full isomorphism.

    ``normalize_iso`` translates f to fix zero and certifies it, so its
    restriction h to the (1-st) submodule is an additive bijection onto
    the target's that intertwines the actions (see ``_certifies``).  The
    rep map is f on the canonical representatives, and the paper's
    conditions on it are asserted: the images lie in distinct cosets,
    (1-s't')f(rep) = h((1-st)rep), and f(s.rep + w) = s'f(rep) + h(w)
    wherever s.rep + w lies in the s-orbit of the representatives.  A map
    that is not an isomorphism raises ``WitnessError``; past the
    certificate a failure would indicate a bug, since the conditions hold
    for any genuine isomorphism.  Every check reads the modules' index
    arithmetic.
    """
    perm = normalize_iso(src, dst, f)
    img = [i - 1 for i in perm]  # f on 0-based canonical indices
    trans_s = transversal(src)
    ws = list(map(src.index.__getitem__, trans_s.sub.elements))
    h_ws = [img[w] for w in ws]

    d_rep = transversal(dst).rep_index
    reps = sorted(set(trans_s.rep_index))  # trans_s.reps as indices
    if len({d_rep[img[rep]] for rep in reps}) != len(reps):
        raise WitnessError("representative images are not a transversal")

    one_minus_st_s, one_minus_st_d = src.one_minus_st_of, dst.one_minus_st_of
    for rep in reps:
        if one_minus_st_d[img[rep]] != img[one_minus_st_s[rep]]:
            raise WitnessError("(1-st)-compatibility fails on a rep")

    orbit = _s_closure(src, reps)
    plus_s, plus_d, s_src, s_dst = src.plus, dst.plus, src.s_of, dst.s_of
    for rep in reps:
        row, row_d = plus_s[s_src[rep]], plus_d[s_dst[img[rep]]]
        for w, hw in zip(ws, h_ws):
            x = row[w]
            if x in orbit and img[x] != row_d[hw]:
                raise WitnessError("orbit compatibility fails")

    els, eld = src.elements, dst.elements
    return IsoWitness(source=src, target=dst,
                      submodule_map=ModuleIso(tuple(
                          (els[w], eld[hw]) for w, hw in zip(ws, h_ws))),
                      rep_map=tuple((els[rep], eld[img[rep]])
                                    for rep in reps),
                      perm=perm)


def witness_to_dict(witness: IsoWitness) -> dict:
    """JSON-ready form: h as value pairs, rep map as pairs, f one-line."""
    return {
        "submodule_map": [[list(x), list(y)]
                          for x, y in witness.submodule_map.pairs],
        "rep_map": [[list(x), list(y)] for x, y in witness.rep_map],
        "permutation": list(witness.perm),
    }


def format_witness(witness: IsoWitness) -> str:
    def side(pairs):
        return ", ".join(
            f"{format_elem(x)}->{format_elem(y)}" for x, y in pairs)

    return "\n".join([
        "submodule map: " + side(witness.submodule_map.pairs),
        "rep map: " + side(witness.rep_map),
        "permutation: " + " ".join(map(str, witness.perm)),
    ])


@dataclass(frozen=True)
class EnumerationResult:
    """All biquandles of one order plus their isomorphism classes."""

    order: int
    tables: tuple[BiquandleTable, ...]
    classes: tuple[tuple[int, ...], ...]


def _preserves(p, rs) -> bool:
    """Whether p(x <| y) = p(x) <| p(y), where x <| y = rs[y][x]."""
    return all(p[r[x]] == rs[p[y]][p[x]]
               for y, r in enumerate(rs) for x in range(len(rs)))


def enumerate_biquandles(n: int) -> EnumerationResult:
    """All biquandle tables of order n, 1 <= n <= 4, plus isomorphism
    classes; any other order raises ``ValueError``.

    Found through the derived quandle Q, x <| y = (x^z)_y where z_x = y
    (Soloviev; Lebed-Vendramin): each sigma_x = (._x) is in Aut(Q), and
    x^z = sigma_w^-1(x <| w) where w = z_x.  For each quandle on 0..n-1
    the search places sigma_0, sigma_1, ... from Aut(Q), and x^z once
    sigma_x and sigma_w are placed (None until then).  Such a candidate
    solves the Yang-Baxter equation iff identity (i), sigma_a o sigma_b =
    sigma_(b_a) o sigma_(a^b), holds for all a, b.  The search prunes on
    (i) once sigma_a, sigma_b, sigma_(b_a) and sigma_(a^b) are placed, and
    on a repeated value in a column of up; it runs no axiom scan, and
    tier-1 rechecks every table of orders 1..4 with ``recheck_axioms``,
    the independent oracle in ``tests/oracles.py``.  ``from_pair_map``
    gives the barred blocks.  A table has one Q and one sigma, so it is
    found once.  A class is keyed by the least of a table's up and down
    flats under all n! relabellings (they fix the barred flats).
    """
    if not 1 <= n <= 4:
        raise ValueError(f"enumeration covers orders 1..4, not {n}")
    perms = list(itertools.permutations(range(n)))
    sigma, sigma_inv = [None] * n, [None] * n  # sigma[x][z] = z_x
    up = [[None] * n for _ in range(n)]  # up[x][z] = x^z
    found = []

    def identity_holds(x, a, b):
        """(i) at (a, b) if x is the newest of a, b, b_a and a^b, else True."""
        ba = sigma[a][b]
        if ba > x or max(a, b, ba, up[a][b]) != x:
            return True
        sa, s_ba, s_ab = sigma[a], sigma[ba], sigma[up[a][b]]
        return [sa[z] for z in sigma[b]] == [s_ba[z] for z in s_ab]

    def place(x):
        if x == n:
            found.append(from_pair_map(
                n, [v for row in up for v in row],
                [s[z] for z in range(n) for s in sigma]))
            return
        for s, inv in auts:
            sigma[x], sigma_inv[x] = s, inv
            new = [(x, z, sigma_inv[w][rs[w][x]])
                   for z, w in enumerate(s) if w <= x]
            new += [(a, sigma_inv[a][x], inv[rs[x][a]]) for a in range(x)]
            done = 0
            for a, z, v in new:  # tau_z = (.^z) stays injective
                if any(row[z] == v for row in up):
                    break
                up[a][z] = v
                done += 1
            else:
                if all(identity_holds(x, a, b) for a in range(x + 1)
                       for b in range(x + 1)):
                    place(x + 1)
            for a, z, _ in new[:done]:
                up[a][z] = None
        sigma[x] = sigma_inv[x] = None

    fixing = [[p for p in perms if p[y] == y] for y in range(n)]
    for rs in itertools.product(*fixing):
        if all(_preserves(r, rs) for r in rs):
            auts = [(p, tuple(map(p.index, range(n)))) for p in perms
                    if _preserves(p, rs)]
            place(0)
    found.sort(key=BiquandleTable.flats)

    # relabel by p: entry (x, y) becomes p[t[q[x]*n + q[y]]], q = p^-1
    relabels = [(p, [p.index(x) for x in range(n)]) for p in perms]
    classes: dict[tuple, list[int]] = {}
    for idx, table in enumerate(found):
        key = min(tuple(p[t[i * n + j]] for t in table.flats()[:2]
                        for i in q for j in q) for p, q in relabels)
        classes.setdefault(key, []).append(idx)

    return EnumerationResult(
        order=n, tables=tuple(found),
        classes=tuple(map(tuple, classes.values())))
