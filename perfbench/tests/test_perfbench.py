"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests)."""

import itertools
import json
import sys
import types
from pathlib import Path

import pytest

import run
import workloads as wl
from stats import percentile
from tracer import Tracer

BENCH = Path(__file__).resolve().parents[1]


def _names():
    from repro.workloads import all_workloads

    return sorted(w.name for w in all_workloads())


def _stream(seed, n=600):
    return list(itertools.islice(wl.request_stream(seed, _names()), n))


class TestRequestStream:
    def test_same_seed_same_stream(self):
        assert _stream(7) == _stream(7)

    def test_other_seed_other_stream(self):
        assert _stream(7) != _stream(8)

    def test_mix(self):
        keys = _stream(3, 3000)
        fresh = set(keys)
        assert 0.15 < len(fresh) / len(keys) < 0.25
        # Lev5 stays in the draw, one level in six (the served node
        # refuses it: see README.md, "Known defect")
        levels = [k[2] for k in fresh]
        assert levels.count(5) == pytest.approx(len(fresh) / 6, abs=2)
        assert {k[0] for k in fresh} == {"run", "compile"}
        # every fresh key has its own input seed
        assert len({k[4] for k in fresh}) == len(fresh)


class TestPercentile:
    def test_tail_needs_ten_samples_beyond(self):
        xs = list(range(1, 41))
        # p95 of 40 samples would leave 2 beyond; the highest rank with
        # ten beyond it is the 30th value
        assert percentile(xs, 95) == 30
        assert sum(x > percentile(xs, 95) for x in xs) == 10

    def test_true_percentile_when_sample_is_large(self):
        xs = list(range(1, 241))
        assert percentile(xs, 95) == 228
        assert sum(x > 228 for x in xs) == 12

    def test_median_and_order(self):
        assert percentile([5, 1, 3], 50) == 3
        assert percentile([4.0] * 5, 95) == 4.0

    def test_never_below_median(self):
        assert percentile([1, 2, 3, 4, 5], 95) == 3

    def test_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestMetricNames:
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

    def test_end_to_end_names_units_direction(self):
        printed = [(n, u, b) for n, u, b in run.END_TO_END]
        declared = [(m["name"], m["unit"], m["better"])
                    for m in self.spec["end_to_end"]]
        assert printed == declared

    def test_per_layer_names_units_direction(self):
        printed = [(n, u, b) for n, u, b in run.PER_LAYER]
        declared = [(m["name"], m["unit"], m["better"])
                    for m in self.spec["per_layer"]]
        assert printed == declared

    def test_result_prints_exactly_the_declared_metrics(self):
        fake = {"attempted": 4, "failed": 1, "wrong": 0}
        for specs, key in ((run.END_TO_END, "end_to_end"),
                           (run.PER_LAYER, "per_layer")):
            res = run.result(fake, [fake], specs, {})
            assert set(res) == {"correct", "attempted", "failed", "metrics"}
            assert list(res["metrics"]) == [m["name"]
                                            for m in self.spec[key]]

    def test_declared_workloads_exist(self):
        declared = [w["name"] for w in self.spec["workloads"]]
        assert set(declared) <= set(wl.WORKLOADS)
        # serve-mix is runnable but not declared: its failing Lev5
        # requests and unsteady timings are documented in README.md
        assert "serve-mix" not in declared


class TestResultMismatches:
    expected = wl.load_expected()

    def _reproduced(self):
        return {k: dict(r) for k, r in self.expected.items()}

    def test_committed_grid_matches_itself(self):
        for seed in (0, 5):
            assert wl.result_mismatches(self._reproduced(), self.expected,
                                        seed) == set()

    def test_tampered_row_is_a_mismatch(self):
        expected = {k: dict(r) for k, r in self.expected.items()}
        key = ("NAS-5", 4, 8)
        expected[key]["cycles"] += 1
        assert wl.result_mismatches(self._reproduced(), expected, 0) == {key}
        # cycles depend on the input data: only seed 0 compares them
        assert wl.result_mismatches(self._reproduced(), expected, 5) == set()
        expected[key]["int_regs"] += 1
        assert wl.result_mismatches(self._reproduced(), expected, 5) == {key}

    def test_missing_config_is_a_mismatch(self):
        results = self._reproduced()
        del results[("APS-1", 0, 1)]
        assert len(wl.result_mismatches(results, self.expected, 0)) == 1

    def test_check_grid_counts_wrong_outputs(self):
        out = wl.Outcome(attempted=960, results=self._reproduced())
        out.results[("NAS-5", 4, 8)]["fp_regs"] += 1
        wl.check_grid(out, 0)
        assert out.totals["result_mismatches"] == 1
        assert (out.failed, out.wrong) == (1, 1)


class TestTracer:
    def test_self_time_and_calls(self):
        toy = types.ModuleType("perfbench_toy")
        now = [0.0]

        def inner():
            now[0] += 3.0

        def outer():
            now[0] += 2.0
            toy.inner()
            toy.inner()

        toy.inner, toy.outer = inner, outer
        sys.modules[toy.__name__] = toy
        try:
            tr = Tracer({"toy.outer": (toy.__name__, "outer"),
                         "toy.inner": (toy.__name__, "inner")},
                        clock=lambda: now[0]).install()
            try:
                toy.outer()
            finally:
                tr.uninstall()
        finally:
            del sys.modules[toy.__name__]
        assert toy.outer is outer and toy.inner is inner
        assert tr.calls == {"toy.outer": 1, "toy.inner": 2}
        assert tr.self_s == {"toy.outer": 2.0, "toy.inner": 6.0}
        assert tr.total_self_s() == now[0]

    def test_repro_targets_resolve_and_restore(self):
        from repro.experiments import sweep
        from repro.regalloc import coloring

        orig = coloring.measure_register_usage
        tr = Tracer().install()
        try:
            # the sweep's own ``from ..regalloc import`` alias is wrapped
            assert sweep.measure_register_usage is not orig
            assert coloring.measure_register_usage is not orig
        finally:
            tr.uninstall()
        assert sweep.measure_register_usage is orig
        assert coloring.measure_register_usage is orig


class TestStoreMix:
    def test_short_run_is_correct_and_exact(self):
        out = wl.store_mix(3, requests=40)
        assert (out.attempted, out.failed, out.wrong) == (40, 0, 0)
        hits, misses = out.totals["service.hits"], out.totals["service.misses"]
        assert hits + misses == 40
        # every distinct key missed exactly once, every repeat was a hit
        assert misses == len(set(_stream(3, 40))) == len(out.results)
        assert len(out.latencies_ms) == 40
