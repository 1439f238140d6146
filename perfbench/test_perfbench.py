"""Self-tests of the benchmark's generators, oracles and tracer.

Run with ``python -m pytest perfbench/test_perfbench.py``.
"""

import itertools
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE.parent / "tests"))

import inputs  # noqa: E402
import oracle  # noqa: E402
from oracles import naive_labeling_count  # noqa: E402


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_fixed_seed_gives_identical_inputs(workload):
    first = inputs.generate(workload, 7)
    again = inputs.generate(workload, 7)
    assert first == again
    assert first["digest"] == inputs.digest(again)


@pytest.mark.parametrize("workload", ["knot_count", "module_iso", "cli_cold"])
def test_other_seed_gives_other_inputs(workload):
    assert inputs.generate(workload, 1)["digest"] != \
        inputs.generate(workload, 2)["digest"]


def test_job_set_shape_does_not_depend_on_seed():
    for workload in inputs.WORKLOADS:
        tags = [[job.get("tag", job.get("cmd")) for job in
                 inputs.generate(workload, seed)["jobs"]]
                for seed in (1, 2)]
        assert tags[0] == tags[1]


def test_braid_closure_kept_only_for_knots():
    """A closure is one component iff the braid's permutation is one cycle
    through all strands."""
    import random
    rng = random.Random(1)
    for _ in range(300):
        strands = rng.choice((2, 3))
        word = [(rng.randrange(1, strands), rng.choice((1, -1)))
                for _ in range(rng.randrange(1, 7))]
        perm = list(range(strands))
        for gen, _ in word:
            perm[gen - 1], perm[gen] = perm[gen], perm[gen - 1]
        cycle, x = 1, perm[0]
        while x != 0:
            cycle, x = cycle + 1, perm[x]
        assert (inputs.braid_closure_code(word, strands) is not None) == \
            (cycle == strands)


def test_module_actions_commute_and_are_invertible():
    from modarith import is_unit_matrix, mat_mul
    for job in inputs.generate("module_iso", 4)["jobs"]:
        for mod in (job["a"], job["b"]):
            m = mod["m"]
            assert is_unit_matrix(mod["s"], m)
            assert is_unit_matrix(mod["t"], m)
            assert mat_mul(mod["s"], mod["t"], m) == \
                mat_mul(mod["t"], mod["s"], m)


def test_count_solutions_small_systems():
    # 2x = 0 mod 4 has 2 solutions; 2x = 1 mod 4 has none
    assert oracle.count_solutions([[2]], [0], 1, 4) == 2
    assert oracle.count_solutions([[2]], [1], 1, 4) == 0
    # x + y = 1, 3x + 3y = 3 mod 6: y free, x determined
    assert oracle.count_solutions([[1, 1], [3, 3]], [1, 3], 2, 6) == 6
    # brute force on random small systems
    import random
    rng = random.Random(0)
    for _ in range(200):
        m = rng.choice((2, 3, 4, 6, 8))
        rows = [[rng.randrange(m) for _ in range(3)]
                for _ in range(rng.randrange(1, 4))]
        rhs = [rng.randrange(m) for _ in rows]
        want = sum(all(sum(a * x for a, x in zip(row, v)) % m == r
                       for row, r in zip(rows, rhs))
                   for v in itertools.product(range(m), repeat=3))
        assert oracle.count_solutions(rows, rhs, 3, m) == want


def test_affine_count_matches_naive_oracle():
    jobs = inputs.generate("knot_count", 5)["jobs"]
    checked = 0
    for job in jobs:
        spec = inputs.TARGETS[job["target"]]
        n = spec["m"] ** spec["k"]
        if n ** oracle.parse_code(job["code"]).semi_arcs <= 5000:
            assert oracle.affine_count(job["code"], spec) == \
                oracle.naive_count(job["code"], spec, naive_labeling_count)
            checked += 1
    assert checked >= 20


def test_known_counts():
    z22 = inputs.TARGETS["z2xz2_switch"]
    assert oracle.affine_count("", z22) == 4
    for code in inputs.kishino_codes():
        assert oracle.affine_count(code, z22) == 16


def test_tracer_self_time():
    from tracer import Tracer
    tracer = Tracer()
    outer = tracer.begin("outer")
    inner = tracer.begin("inner")
    tracer.end(inner)
    tracer.end(outer)
    tracer.start_col[0], tracer.end_col[0] = 0.0, 1.0
    tracer.start_col[1], tracer.end_col[1] = 0.25, 0.75
    totals = tracer.layer_totals()
    assert totals["outer"] == [1, 1.0, 0.5]
    assert totals["inner"] == [1, 0.5, 0.5]
    assert tracer.parent_col[1] == 0


def test_tracer_restores_bindings():
    import biquandles
    from biquandles import isomorphism, kernels
    from tracer import Tracer
    before = (kernels.search_maps, isomorphism.verify_biquandle,
              biquandles.make_alexander)
    tracer = Tracer()
    tracer.install()
    assert kernels.search_maps is not before[0]
    biquandles.brute_force_iso(
        biquandles.trivial_biquandle(2), biquandles.trivial_biquandle(2))
    tracer.uninstall()
    assert (kernels.search_maps, isomorphism.verify_biquandle,
            biquandles.make_alexander) == before
    names = set(tracer.layer_totals())
    assert {"isomorphism.brute_force_iso", "kernels.search_maps",
            "axioms.verify", "tables.flats"} <= names


def test_reference_task_result():
    import reference
    assert reference.run() == reference.EXPECTED


def test_normalized_figures_cancel_host_speed():
    import run
    res = run.WorkerResult()
    # the same two jobs on a host at full, half and full speed again
    for p, slow in enumerate((1.0, 2.0, 1.0)):
        for i, ms in enumerate((3.0, 40.0)):
            res.jobs.append((p, i, ms * slow, None, None))
            res.refs[p, i] = [0.5 * slow, 0.5 * slow]
    assert run.normalized_latencies(res) == {0: 6.0, 1: 80.0}
    assert run.best_latencies(res) == {0: 3.0, 1: 40.0}
    res.ready_s, res.ready_ref = 0.9, [0.4, 0.5]
    assert run.normalized_setup_s(res) == pytest.approx(2.0)
