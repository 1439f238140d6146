"""The pure and compiled kernels must be indistinguishable."""

import random

import pytest

from biquandles import make_alexander, make_scalar_module
from biquandles.kernels import available_backends, get_backend

pytestmark = pytest.mark.skipif(
    "c" not in available_backends(),
    reason="compiled kernels not built; pure backend is the only one")


@pytest.fixture(scope="module")
def backends():
    return get_backend("pure"), get_backend("c")


def random_tables(rng, n):
    return tuple(
        tuple(rng.randrange(n) for _ in range(n * n)) for _ in range(4))


class TestAgreement:
    def test_axiom_scan_random(self, backends):
        pure, comp = backends
        rng = random.Random(20240811)
        for _ in range(400):
            n = rng.randint(1, 5)
            tabs = random_tables(rng, n)
            assert pure.axiom_scan(n, *tabs) == comp.axiom_scan(n, *tabs)
            assert pure.axiom_scan(n, *tabs, first_only=True) == \
                comp.axiom_scan(n, *tabs, first_only=True)

    def test_yang_baxter_random(self, backends):
        pure, comp = backends
        rng = random.Random(99)
        for _ in range(400):
            n = rng.randint(1, 5)
            tabs = random_tables(rng, n)
            assert pure.yang_baxter(n, tabs[0], tabs[1]) == \
                comp.yang_baxter(n, tabs[0], tabs[1])

    def test_axiom_scan_valid_tables(self, backends, small_biquandles):
        pure, comp = backends
        for table in small_biquandles:
            flats = table.flats()
            assert pure.axiom_scan(table.n, *flats) == \
                comp.axiom_scan(table.n, *flats) == []

    def test_search_maps_isos_and_stats(self, backends):
        pure, comp = backends
        mods = [make_scalar_module(5, s, t)
                for s in (2, 3) for t in (2, 3, 4)]
        mods += [make_scalar_module(8, 3, 5), make_scalar_module(8, 5, 3),
                 make_scalar_module(8, 3, 3)]
        tables = [make_alexander(m) for m in mods]
        for ta in tables:
            for tb in tables:
                if ta.n != tb.n:
                    continue
                args = (ta.n, ta.flats(), tb.n, tb.flats())
                assert pure.search_maps(*args, find_all=True) == \
                    comp.search_maps(*args, find_all=True)
                assert pure.search_maps(*args, find_all=False, limit=1) == \
                    comp.search_maps(*args, find_all=False, limit=1)

    def test_search_maps_homs(self, backends):
        pure, comp = backends
        src = make_alexander(make_scalar_module(4, 3, 3))
        dst = make_alexander(make_scalar_module(8, 3, 3))
        args = (src.n, src.flats(), dst.n, dst.flats())
        kwargs = dict(ops_mask=3, require_bijection=False,
                      use_profiles=False, find_all=True, fixed=((0, 0),))
        assert pure.search_maps(*args, **kwargs) == \
            comp.search_maps(*args, **kwargs)
