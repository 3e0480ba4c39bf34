"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench"""
from __future__ import annotations

import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import colsym  # noqa: E402
from growth import ball_size, growth_series  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402
from speed import REF_PROBE_S, TICK_S, Timed  # noqa: E402


def test_exact_73_ball_sizes():
    # depth 30 is the last depth generate_patch gets right; 34 and 40 it overshoots
    assert [ball_size(7, 3, d) for d in (30, 34, 40)] == [5951, 11468, 30517]


def test_73_sphere_sizes_by_hand():
    # length 2: ab ac ba bc cb (ca = ac); length 3 loses aca = cac and so on
    assert growth_series(7, 3, 3) == [1, 3, 5, 7]


@pytest.mark.parametrize("p,q", [(7, 3), (3, 7), (5, 4), (4, 5), (8, 3), (4, 4), (3, 6), (6, 3)])
def test_matches_generate_patch_at_small_depth(p, q):
    for depth in (0, 1, 2, 7, 13, 20):
        assert len(colsym.generate_patch(p, q, depth).tiles) == ball_size(p, q, depth)


def test_spherical_groups_are_refused():
    with pytest.raises(ValueError):
        growth_series(4, 3, 5)


def test_traced_census_self_times_cover_the_op(tmp_path):
    tracer = Tracer()
    cache = sys.modules["colsym.cache"]
    census = sys.modules["colsym.census"]
    with tracer.installed(0):
        with tracer.span("op"):
            provider = cache.cached_provider(str(tmp_path))
            for kind in census.TilingKind:
                census.census(7, 3, kind, census.Scope.ROTATION, 8,
                              strategy="both", classes_provider=provider)
    m = tracer.op_metrics(0)
    assert not tracer.missing
    assert not hasattr(census.census, "__wrapped__")  # the wrappers are gone again
    assert sum(m[f"{layer}.self_s"] for layer in LAYERS) == pytest.approx(m["trace.op_s"])
    assert m["lowindex.calls"] == 2 and m["cache.stores"] == 2 and m["cache.hits"] == 0
    assert m["cache.memo_hits"] == 4  # route a of the last two tilings reuses the first search
    assert m["census.twist_calls"] > 0 and m["census.records"] > 0


def test_timed_leaves_out_its_probes_and_restores_sigalrm():
    handler = signal.getsignal(signal.SIGALRM)
    t0 = time.perf_counter()
    with Timed() as t:
        while time.perf_counter() - t0 < 10 * TICK_S:
            pass
    elapsed = time.perf_counter() - t0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(t.samples) >= 2 + 5  # the probes before and after, and most ticks
    assert 0 < t.wall_s < elapsed - sum(t.samples[1:-1])
    assert t.ref_s == pytest.approx(t.wall_s * REF_PROBE_S * len(t.samples) / sum(t.samples))
