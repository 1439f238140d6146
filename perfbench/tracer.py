"""In-memory spans and counters around the library's public functions.

``Tracer.install()`` rebinds each traced function, in every loaded
``biquandles`` module that refers to it, to a wrapper that records a span
(name, start, end, parent, job) and the counts read off its result.  No
file of the library changes; ``uninstall()`` restores every binding.
Spans stay in memory until ``write()`` saves them at the end of a run.

A span's self time is its duration minus the time its child spans cover;
``layer_totals()`` sums calls, time and self time per traced function.
"""

import gzip
import json
import sys
import time
from array import array

# (span name, module, attribute).  Kernels are looked up as attributes of
# ``biquandles.kernels`` by their callers, so rebinding them there suffices.
TRACED = (
    ("kernels.diagram_count", "biquandles.kernels", "diagram_count"),
    ("kernels.search_maps", "biquandles.kernels", "search_maps"),
    ("kernels.axiom_scan", "biquandles.kernels", "axiom_scan"),
    ("kernels.yang_baxter", "biquandles.kernels", "yang_baxter"),
    ("axioms.verify", "biquandles.axioms", "verify_biquandle"),
    ("axioms.satisfies", "biquandles.axioms", "satisfies_axioms"),
    ("isomorphism.structural_iso", "biquandles.isomorphism",
     "structural_iso"),
    ("isomorphism.brute_force_iso", "biquandles.isomorphism",
     "brute_force_iso"),
    ("isomorphism.enumerate", "biquandles.isomorphism",
     "enumerate_biquandles"),
    ("modules.make_module", "biquandles.modules", "make_module"),
    ("modules.module_isomorphisms", "biquandles.modules",
     "module_isomorphisms"),
    ("alexander.make_alexander", "biquandles.alexander", "make_alexander"),
    ("alexander.make_switch", "biquandles.alexander",
     "make_switch_biquandle"),
    ("tables.parse_matrix", "biquandles.tables", "parse_matrix"),
    ("tables.serialize_matrix", "biquandles.tables", "serialize_matrix"),
    ("knot.parse_gauss", "biquandles.knot", "parse_gauss_code"),
    ("knot.build_diagram", "biquandles.knot", "build_diagram"),
    ("knot.count_homs", "biquandles.knot", "count_homs"),
)
GENERATORS = {"modules.module_isomorphisms"}
# implementation modules of the kernels keep their own bindings
SKIP_MODULES = ("biquandles.kernels.pure", "biquandles.kernels._ckern")

COUNTERS = (
    "search_work", "search_candidates", "search_prunes", "search_found",
    "structural_candidates", "structural_prunes", "submodule_isos_tried",
    "classify_calls", "classify_hits",
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_col = array("H")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("l")
        self.job_col = array("l")
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.job = -1
        self._stack = []
        self._restore = []

    # -- recording -------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name):
        idx = len(self.start_col)
        self.name_col.append(self._name_id(name))
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.job_col.append(self.job)
        self.end_col.append(0.0)
        self._stack.append(idx)
        self.start_col.append(time.perf_counter())
        return idx

    def end(self, idx):
        self.end_col[idx] = time.perf_counter()
        self._stack.pop()

    def parent_name(self):
        """Name of the span enclosing the current one, if any."""
        if len(self._stack) < 2:
            return None
        return self.names[self.name_col[self._stack[-2]]]

    def _count(self, name, result):
        counts = self.counts
        if name == "kernels.search_maps":
            maps, raw = result
            counts["search_work"] += raw["work"]
            counts["search_candidates"] += raw["candidates"]
            counts["search_prunes"] += sum(dict(raw["prunes"]).values())
            counts["search_found"] += bool(maps)
        elif name == "isomorphism.structural_iso":
            stats = result[1]
            counts["structural_candidates"] += stats.candidates
            counts["structural_prunes"] += stats.total_prunes()
        elif name == "isomorphism.brute_force_iso" and \
                self.parent_name() == "isomorphism.enumerate":
            counts["classify_calls"] += 1
            counts["classify_hits"] += result[0] is not None

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, func):
        tracer = self

        if name in GENERATORS:
            def traced_gen(*args, **kwargs):
                inner = func(*args, **kwargs)
                while True:
                    idx = tracer.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        tracer.end(idx)
                        return
                    except BaseException:
                        tracer.end(idx)
                        raise
                    tracer.end(idx)
                    tracer.counts["submodule_isos_tried"] += 1
                    yield item
            return traced_gen

        def traced(*args, **kwargs):
            idx = tracer.begin(name)
            try:
                result = func(*args, **kwargs)
                tracer._count(name, result)
                return result
            finally:
                tracer.end(idx)
        return traced

    def _rebind_everywhere(self, original, wrapper):
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or mod_name in SKIP_MODULES or not (
                    mod_name == "biquandles" or
                    mod_name.startswith("biquandles.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def install(self):
        """Wrap every traced function and ``BiquandleTable.flats``."""
        from biquandles.tables import BiquandleTable
        for name, mod_name, attr in TRACED:
            original = getattr(sys.modules[mod_name], attr)
            self._rebind_everywhere(original, self._wrap(name, original))
        flats = BiquandleTable.flats
        BiquandleTable.flats = self._wrap("tables.flats", flats)
        self._restore.append((BiquandleTable, "flats", flats))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- reporting -------------------------------------------------------

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def layer_totals(self):
        """{name: [calls, total_s, self_s]} over all recorded spans."""
        n = len(self.start_col)
        child = [0.0] * n
        durations = [self.end_col[i] - self.start_col[i] for i in range(n)]
        for i in range(n):
            parent = self.parent_col[i]
            if parent >= 0:
                child[parent] += durations[i]
        totals = {}
        for i in range(n):
            entry = totals.setdefault(self.names[self.name_col[i]],
                                      [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += durations[i]
            entry[2] += durations[i] - child[i]
        return totals

    def write(self, path):
        """Save every span (name, start, end, parent, job) as gzip JSON."""
        spans = [[self.name_col[i], self.start_col[i], self.end_col[i],
                  self.parent_col[i], self.job_col[i]]
                 for i in range(len(self.start_col))]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names, "counts": self.counts,
                       "spans": spans}, fh)


class _Span:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.idx = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.idx)
        return False
