"""Per-workload output checks, run by ``run.py`` after the workers end.

A checker is built from the generated inputs; ``check(pass, index, out)``
returns None for a correct output or a reason, and ``finish()`` yields
(pass, index, reason) for checks that span several jobs.  Expected values
come from ``oracle.py`` and the test suite's brute-force oracles, never from
the library's kernels.
"""

import json
import sys
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

import oracle  # noqa: E402
from oracles import naive_labeling_count, recheck_axioms  # noqa: E402

# Largest assignment space the brute-force labeling oracle is run on.
NAIVE_LIMIT = 20000
KISHINO_COUNT = 16   # against the order-4 switch on Z_2 x Z_2
UNKNOT_COUNT = 4
ENUMERATION_COUNTS = {2: (2, 2), 3: (36, 15)}  # tables, classes


@lru_cache(maxsize=None)
def _affine(code, spec_json):
    return oracle.affine_count(code, json.loads(spec_json))


@lru_cache(maxsize=None)
def _naive(code, spec_json):
    return oracle.naive_count(code, json.loads(spec_json),
                              naive_labeling_count)


@lru_cache(maxsize=None)
def _table(spec_json):
    return oracle.make_table(json.loads(spec_json))


def _key(obj):
    return json.dumps(obj, sort_keys=True)


class KnotChecker:
    def __init__(self, data):
        self.jobs = data["jobs"]
        self.targets = {k: _key(v) for k, v in data["targets"].items()}
        self.counts = {}  # (pass, tag, target) -> (index, count)
        self._self_check()

    def _self_check(self):
        """The affine counter must agree with the brute-force oracle on
        every small job and give the known Kishino and unknot values."""
        z22 = self.targets["z2xz2_switch"]
        for job in self.jobs:
            code, spec = job["code"], self.targets[job["target"]]
            size = json.loads(spec)["m"] ** json.loads(spec)["k"]
            if size ** oracle.parse_code(code).semi_arcs <= NAIVE_LIMIT and \
                    _naive(code, spec) != _affine(code, spec):
                raise RuntimeError(f"affine oracle disagrees with the "
                                   f"naive counter on {code!r}")
            if job["tag"].startswith("kishino") and spec == z22 and \
                    _affine(code, spec) != KISHINO_COUNT:
                raise RuntimeError("affine oracle misses the Kishino value")
        if _affine("", z22) != UNKNOT_COUNT:
            raise RuntimeError("affine oracle misses the unknot value")

    def check(self, pass_id, i, out):
        job = self.jobs[i]
        want = _affine(job["code"], self.targets[job["target"]])
        got = (out or {}).get("count")
        self.counts[(pass_id, job["tag"], job["target"])] = (i, got)
        return None if got == want else f"count {got}, expected {want}"

    def finish(self):
        """Equal counts on every move-related pair, per pass and target."""
        import inputs
        for (pass_id, tag, target), (i, count) in self.counts.items():
            for a, b in inputs.REIDEMEISTER_PAIRS:
                if tag != f"move_{b}":
                    continue
                other = self.counts.get((pass_id, f"move_{a}", target))
                if other is None or other[1] != count:
                    yield pass_id, i, f"{a} and {b} count differently"


class ModuleChecker:
    """Both deciders must agree, an isomorphic copy must be found, and each
    witness must be a bijection preserving all four operations."""

    def __init__(self, data):
        self.jobs = data["jobs"]
        self.verified = {}

    def check(self, pass_id, i, out):
        if out is None:
            return "no output"
        job = self.jobs[i]
        brute, structural = out["brute"], out["structural"]
        if (brute is None) != (structural is None):
            return "the two deciders disagree"
        if job["kind"] == "conjugate" and brute is None:
            return "an isomorphic copy was reported non-isomorphic"
        src = _table(_key(oracle.module_spec(**job["a"])))
        dst = _table(_key(oracle.module_spec(**job["b"])))
        for perm in (brute, structural):
            if perm is None:
                continue
            key = (i, tuple(perm))
            if key not in self.verified:
                self.verified[key] = oracle.check_isomorphism(src, dst, perm)
            if not self.verified[key]:
                return "witness is not an isomorphism"
        return None

    def finish(self):
        return ()


class EnumerateChecker:
    def __init__(self, data):
        self.jobs = data["jobs"]
        self.verified = {}

    def check(self, pass_id, i, out):
        if out is None:
            return "no output"
        key = (i, _key(out))
        if key not in self.verified:
            self.verified[key] = self._check(self.jobs[i]["order"], out)
        return self.verified[key]

    @staticmethod
    def _check(n, out):
        from biquandles.tables import BiquandleTable
        tables, classes = out["tables"], out["classes"]
        if (len(tables), len(classes)) != ENUMERATION_COUNTS[n]:
            return (f"{len(tables)} tables in {len(classes)} classes, "
                    f"expected {ENUMERATION_COUNTS[n]}")
        if len({tuple(t) for t in tables}) != len(tables):
            return "duplicate tables"
        if sorted(j for c in classes for j in c) != list(range(len(tables))):
            return "classes do not partition the tables"
        for flat in tables:
            rows = [tuple(flat[i:i + n]) for i in range(0, 4 * n * n, n)]
            blocks = [tuple(rows[b * n:b * n + n]) for b in range(4)]
            if not recheck_axioms(BiquandleTable(n, *blocks))[0]:
                return "a listed table fails the axioms"
        return None

    def finish(self):
        return ()


class CliChecker:
    def __init__(self, data):
        self.jobs = data["jobs"]
        self.files = data["files"]
        self.verified = {}

    def check(self, pass_id, i, out):
        if out is None:
            return "no output"
        key = (i, out["code"], out["stdout"])
        if key not in self.verified:
            self.verified[key] = oracle.check_cli(
                self.jobs[i], self.files, out["code"], out["stdout"],
                recheck_axioms)
        return self.verified[key]

    def finish(self):
        return ()


CHECKERS = {
    "knot_count": KnotChecker,
    "module_iso": ModuleChecker,
    "enumerate": EnumerateChecker,
    "cli_cold": CliChecker,
}
