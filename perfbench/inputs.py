"""Seeded inputs for every workload.

``generate(workload, seed)`` returns a JSON-ready dict whose ``jobs`` list
is the workload's fixed job set.  The same seed always gives the same dict
(``digest`` makes that checkable); the program under test only ever sees
these generated inputs.  Nothing here imports the library: the packaged
fixtures are read as text from the checkout.
"""

import hashlib
import itertools
import json
import random
from pathlib import Path

from modarith import (identity, is_unit_matrix, mat_inv, mat_mul, mat_poly,
                      mat_scale, mat_sub, mat_vec, units)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "biquandles" / "data"

# The three affine counting targets, as construction parameters.
TARGETS = {
    "z2xz2_switch": {"kind": "switch", "m": 2, "k": 2,
                     "A": ((0, 1), (1, 1)), "B": ((1, 1), (0, 1)),
                     "c": (1, 1)},
    "z3_2_1": {"kind": "alexander", "m": 3, "k": 1,
               "s": ((2,),), "t": ((1,),)},
    "z8_3_5": {"kind": "alexander", "m": 8, "k": 1,
               "s": ((3,),), "t": ((5,),)},
}
ALL_TARGETS = tuple(TARGETS)
SMALL_TARGETS = ("z2xz2_switch", "z3_2_1")

# Torus knots T(2,c) per target.  Against Z_8 (3,5) the series stops at
# T(2,5): T(2,7) already takes ~18 s on the pure kernels and T(2,11) does
# not finish in 300 s.  Every series stops below ~0.3 s per count (T(2,9)
# takes ~1.2 s against the order-4 switch): a job's best time over many
# short repeats stays steady on a shared host, one over a few long ones
# does not.
TORUS_SERIES = {
    "z2xz2_switch": (3, 5, 7),
    "z3_2_1": (3, 5, 7, 9),
    "z8_3_5": (3, 5),
}

# Seeded braid-closure knots: (strands, crossings, how many, targets).
# Sizes whose Z_8 count is slow are counted against the two small targets
# only, like the torus series.  5-crossing closures are counted against
# the order-4 switch alone, and there are enough of them (~4.5 ms each) to
# hold the median job well inside their stratum: at its edge the seed would
# decide which neighbouring stratum sets job_p50_ms.
BRAID_SCHEDULE = (
    (2, 3, 6, ALL_TARGETS),
    (2, 5, 32, ("z2xz2_switch",)),
    (2, 7, 16, SMALL_TARGETS),
    (3, 4, 6, ALL_TARGETS),
    (3, 6, 6, SMALL_TARGETS),
)

# The curated move-related diagrams of ``biquandles.knot`` (copied so the
# inputs do not depend on importing the library); pairs must count equal.
REIDEMEISTER_CODES = {
    "unknot": "",
    "kink+": "O1+,U1+",
    "kink-": "O1-,U1-",
    "r2_poke": "U1+,U2-,O2-,O1+",
    "trefoil": "O1+,U2+,O3+,U1+,O2+,U3+",
    "trefoil_braid": "O1+,O2+,U4+,U1+,O3+,O4+,U2+,U3+",
    "trefoil_braid_r3": "O1+,U2+,O4+,U1+,O2+,O3+,U3+,U4+",
    "mirror_braid": "U1-,U2-,O4-,O1-,U3-,U4-,O2-,O3-",
    "mirror_braid_r3": "U1-,O2-,U4-,O1-,U2-,U3-,O3-,O4-",
}
REIDEMEISTER_PAIRS = (
    ("unknot", "kink+"), ("unknot", "kink-"), ("unknot", "r2_poke"),
    ("trefoil_braid", "trefoil_braid_r3"),
    ("mirror_braid", "mirror_braid_r3"),
    ("trefoil", "trefoil_braid"), ("trefoil", "trefoil"),
)

# module_iso strata: (modulus, rank, pairs).  Scalar Z_5..Z_12 pairs make
# up most jobs; rank 2 and 3 modules reach order 27.  Larger orders are left
# out: one pair takes ~0.45 s at order 49, ~2.7 s at order 64 and ~11 s at
# order 125, and a job's best time is steady only over many short repeats
# (see TORUS_SERIES).  The order-25 and order-27 strata, the slowest
# pairs, hold more than a tenth of the jobs, so that the 90th percentile
# falls inside them rather than on their edge.
MODULE_SCHEDULE = (
    (5, 1, 12), (6, 1, 12), (7, 1, 12), (8, 1, 12),
    (9, 1, 12), (10, 1, 12), (11, 1, 12), (12, 1, 12),
    (2, 3, 4), (3, 2, 8), (4, 2, 8), (5, 2, 12), (3, 3, 12),
)

# Largest modulus at which modules with st = 1 are drawn (see random_module)
ST_ONE_MAX_MODULUS = 9

# Order 4 (one enumerate_biquandles call of 15-22 s here) is left out: a
# single call that long cannot be repeated within a run, and this host's
# speed drifts by 20-30% over such windows, so its time would not be steady.
ENUMERATE_ORDERS = (2, 3)

WORKLOADS = ("knot_count", "module_iso", "enumerate", "cli_cold")


def braid_closure_code(word, strands):
    """Signed OU Gauss code of a braid closure, or None if not a knot.

    ``word`` lists (generator i >= 1, sign); a positive generator takes the
    strand at position i over the strand at i + 1.  The closure is a knot
    when following the strand from position 1 runs through the word once
    per strand before it closes up.
    """
    tokens = []
    pos = 1
    rounds = 0
    while True:
        rounds += 1
        for label, (gen, sign) in enumerate(word, start=1):
            if pos == gen:
                tokens.append(("O" if sign > 0 else "U", label, sign))
                pos = gen + 1
            elif pos == gen + 1:
                tokens.append(("U" if sign > 0 else "O", label, sign))
                pos = gen
        if pos == 1:
            break
    if rounds != strands:
        return None
    return ",".join(f"{role}{label}{'+' if sign > 0 else '-'}"
                    for role, label, sign in tokens)


def random_knot(rng, strands, crossings):
    """Closure of a random braid word, redrawn until it is one component."""
    while True:
        word = [(rng.randrange(1, strands), rng.choice((1, -1)))
                for _ in range(crossings)]
        code = braid_closure_code(word, strands)
        if code is not None:
            return code


def kishino_codes():
    codes = []
    for line in (DATA / "kishino.gauss").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            codes.append(line)
    return codes


def knot_inputs(rng):
    jobs = []

    def add(code, targets, tag):
        for target in targets:
            jobs.append({"code": code, "target": target, "tag": tag})

    for target, series in TORUS_SERIES.items():
        for c in series:
            add(braid_closure_code([(1, 1)] * c, 2), (target,),
                f"torus_{c}")
    for i, code in enumerate(kishino_codes()):
        add(code, ALL_TARGETS, f"kishino_{i}")
    for name, code in REIDEMEISTER_CODES.items():
        add(code, ALL_TARGETS, f"move_{name}")
    for strands, crossings, count, targets in BRAID_SCHEDULE:
        for _ in range(count):
            add(random_knot(rng, strands, crossings), targets,
                f"braid{strands}_{crossings}")
    return {"targets": TARGETS, "jobs": jobs}


def random_invertible(rng, m, k):
    while True:
        a = tuple(tuple(rng.randrange(m) for _ in range(k)) for _ in range(k))
        if is_unit_matrix(a, m):
            return a


def random_module(rng, m, k):
    """Invertible s and t = p(s) invertible, so the actions commute.

    Draws are repeated until, for rank >= 2, s is not scalar and the (1-st)
    submodule has at most m cosets, and (1-st) is nonzero for
    m > ST_ONE_MAX_MODULUS.  ``structural_iso`` backtracks
    over coset representatives, exponentially in their number: with
    st = 1 one non-isomorphic pair costs up to 0.04 s at Z_9, 0.4 s at
    Z_10 and 11 s at Z_12, and an isomorphic order-27 pair with 27 cosets
    runs for minutes.  Smaller instances of that path stay in the set.
    """
    while True:
        s = random_invertible(rng, m, k)
        t = mat_poly(s, [rng.randrange(m) for _ in range(k + 1)], m)
        if not is_unit_matrix(t, m) or (
                k > 1 and s == mat_scale(identity(k), s[0][0], m)):
            continue
        image = _image_size(s, t, m, k)
        if m ** k <= m * image and (image > 1 or m <= ST_ONE_MAX_MODULUS):
            return {"m": m, "k": k, "s": s, "t": t}


def _image_size(s, t, m, k):
    """Size of the image of x -> (1 - st)x on Z_m^k."""
    one_minus_st = mat_sub(identity(k), mat_mul(s, t, m), m)
    return len({mat_vec(one_minus_st, x, m)
                for x in itertools.product(range(m), repeat=k)})


def conjugate_module(rng, mod):
    """An isomorphic copy: both actions conjugated by a random P.

    For rank >= 2, P is redrawn until the copy differs from the original
    (s is never scalar, so some P does), so the pair never shares one
    table and one cached axiom scan by chance.
    """
    m, k = mod["m"], mod["k"]
    while True:
        p = random_invertible(rng, m, k)
        p_inv = mat_inv(p, m)
        copy = {"m": m, "k": k,
                "s": mat_mul(mat_mul(p, mod["s"], m), p_inv, m),
                "t": mat_mul(mat_mul(p, mod["t"], m), p_inv, m)}
        if k == 1 or copy != mod:
            return copy


def module_inputs(rng):
    """Pairs alternate between an isomorphic copy and an independent draw."""
    jobs = []
    for m, k, count in MODULE_SCHEDULE:
        for i in range(count):
            a = random_module(rng, m, k)
            if i % 2 == 0:
                b = conjugate_module(rng, a)
                kind = "conjugate"
            else:
                b = random_module(rng, m, k)
                kind = "independent"
            jobs.append({"a": a, "b": b, "kind": kind,
                         "tag": f"Z{m}^{k}_{kind}"})
    return {"jobs": jobs}


def enumerate_inputs(rng):
    return {"jobs": [{"order": n, "tag": f"order_{n}"}
                     for n in ENUMERATE_ORDERS]}


def _scalar(rng, m):
    u = units(m)
    return [m, rng.choice(u), rng.choice(u)]


def cli_inputs(rng):
    """Specs of one-shot CLI calls, at least one per subcommand.

    ``files`` maps file names to what they hold; the worker writes them
    before the first call.  Each job names its subcommand and parameters;
    argv and the expected output are derived from the spec.  The set is
    kept short so that a run repeats it several times.
    """
    mods = [_scalar(rng, m) for m in (5, 7, 4, 6)]
    bad_cell = [rng.randrange(2 * mods[0][0]), rng.randrange(mods[0][0])]
    files = {
        "alex.bq": {"kind": "alexander_scalar", "zn": mods[0]},
        "bad.bq": {"kind": "corrupt_scalar", "zn": mods[0],
                   "cell": bad_cell},
        "count_target.bq": {"kind": "alexander_scalar", "zn": mods[1]},
    }
    jobs = [
        {"cmd": "check", "file": "alex.bq", "json": True},
        {"cmd": "check", "file": "bad.bq"},
        {"cmd": "alexander", "zn": [3, 2, 1]},
        {"cmd": "switch", "m": 2, "k": 2, "A": "0 1;1 1", "B": "1 1;0 1",
         "c": "1 1"},
        {"cmd": "iso", "zn": [mods[2], mods[2]]},
        {"cmd": "iso", "zn": [[8, 3, 5], [8, 5, 3]]},
        {"cmd": "count", "code": random_knot(rng, 2, 3),
         "target": "count_target.bq"},
        {"cmd": "orbits", "zn": mods[3]},
        {"cmd": "enumerate", "n": 2},
    ]
    return {"files": files, "jobs": jobs}


_GENERATORS = {
    "knot_count": knot_inputs,
    "module_iso": module_inputs,
    "enumerate": enumerate_inputs,
    "cli_cold": cli_inputs,
}


def _plain(obj):
    """Tuples to lists, so generated and JSON-decoded inputs compare equal."""
    return json.loads(json.dumps(obj))


def generate(workload, seed):
    rng = random.Random(f"{workload}:{seed}")
    inputs = _plain(_GENERATORS[workload](rng))
    inputs["workload"] = workload
    inputs["seed"] = seed
    inputs["digest"] = digest(inputs)
    return inputs


def digest(inputs):
    body = {k: v for k, v in inputs.items() if k != "digest"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
