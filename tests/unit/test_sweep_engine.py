"""Regression tests for the fast sweep engine.

The engine layers three reuse/parallelism mechanisms on the grid run
(width-sharded compilation, a fork-based process pool, and a resumable
JSONL journal); these tests pin the one property that makes them safe:
every path produces *identical* results.
"""

import json

import pytest

from repro.experiments import sweep
from repro.experiments.sweep import (
    CACHE_VERSION,
    ConfigResult,
    evaluate_cell,
    load_sweep,
    read_journal,
    run_config,
    run_sweep,
    save_sweep,
)
from repro.harness import (
    compile_kernel,
    ilp_transform,
    lower_conv,
    schedule_kernel,
)
from repro.machine import MachineConfig
from repro.pipeline import Level
from repro.service.jobs import compute_cell
from repro.workloads import get_workload

WORKLOADS = ("add", "sum", "maxval")
LEVELS = (Level.CONV, Level.LEV4)
WIDTHS = (1, 8)


def _key_fields(r: ConfigResult) -> tuple:
    """Everything that must be bit-identical across engine paths
    (timing fields legitimately differ)."""
    return (r.workload, r.level, r.width, r.cycles, r.instructions,
            r.inner_makespan, r.int_regs, r.fp_regs, r.checked)


@pytest.fixture(scope="module")
def serial_sweep():
    wls = [get_workload(n) for n in WORKLOADS]
    return run_sweep(wls, LEVELS, WIDTHS)


class TestStagedCompile:
    def test_staged_equals_monolithic(self):
        """transform-once + schedule-per-width == full recompilation."""
        w = get_workload("dotprod")
        kernel = w.build()
        conv = lower_conv(kernel)
        for level in LEVELS:
            tk = ilp_transform(conv.clone(), level, MachineConfig(issue_width=8))
            for width in (1, 2, 4, 8):
                machine = MachineConfig(issue_width=width)
                ref = compile_kernel(kernel, level, machine)
                new = schedule_kernel(tk.clone(), machine)
                assert new.inner_makespan == ref.inner_makespan
                ref_instrs = [str(i) for b in ref.func.blocks for i in b.instrs]
                new_instrs = [str(i) for b in new.func.blocks for i in b.instrs]
                assert new_instrs == ref_instrs

    def test_clone_isolates_mutation(self):
        """Scheduling a clone must not disturb the transformed original."""
        conv = lower_conv(get_workload("add").build())
        tk = ilp_transform(conv, Level.LEV4, MachineConfig(issue_width=8))
        before = [str(i) for b in tk.lowered.func.blocks for i in b.instrs]
        schedule_kernel(tk.clone(), MachineConfig(issue_width=8))
        after = [str(i) for b in tk.lowered.func.blocks for i in b.instrs]
        assert after == before


class TestParallelSweep:
    def test_parallel_identical_to_serial(self, serial_sweep):
        wls = [get_workload(n) for n in WORKLOADS]
        par = run_sweep(wls, LEVELS, WIDTHS, jobs=2)
        assert list(par.results.keys()) == list(serial_sweep.results.keys())
        for k in serial_sweep.results:
            assert _key_fields(par.results[k]) == _key_fields(serial_sweep.results[k])

    def test_run_config_matches_sweep(self, serial_sweep):
        """The single-configuration path agrees with the sharded task path."""
        r = run_config(get_workload("sum"), Level.LEV4, MachineConfig(issue_width=8))
        assert _key_fields(r) == _key_fields(serial_sweep.get("sum", Level.LEV4, 8))

    def test_phase_timings_recorded(self, serial_sweep):
        rs = list(serial_sweep.results.values())
        # transform cost is attributed to the first width of each task...
        assert all(r.t_compile > 0 for r in rs if r.width == WIDTHS[0])
        # ...and never smeared over the others
        assert all(r.t_compile == 0 for r in rs if r.width != WIDTHS[0])
        assert all(r.t_schedule > 0 and r.t_simulate > 0 for r in rs)


class TestEvaluateCell:
    """The one cell-evaluation core behind the sweep, ``run_config`` and
    the service's ``compute_cell``."""

    @pytest.mark.parametrize("name,level", [
        ("add", Level.LEV5),      # SLP-vectorized
        ("maxval", Level.LEV4),   # superblock with side exits
    ])
    def test_batched_cell_equals_single_width_cells(self, name, level):
        cell = evaluate_cell(get_workload(name), level,
                             [MachineConfig(issue_width=8)], simulate=False)
        sb, report = cell[0].ck.sb, cell[0].ck.report
        if level is Level.LEV5:
            assert sum(s.rewrites for s in report.stats if s.name == "slp")
        else:
            assert sb.offtrace
        for kind in ("run", "compile"):
            multi = compute_cell((kind, name, int(level), (1, 2, 4, 8), 0,
                                  True, False, ()))
            assert [p["width"] for p in multi] == [1, 2, 4, 8]
            for payload in multi:
                single, = compute_cell((kind, name, int(level),
                                        (payload["width"],), 0, True, False,
                                        ()))
                assert (json.dumps(payload, sort_keys=True)
                        == json.dumps(single, sort_keys=True))

    def test_checked_cell_colors_each_width_once(self, monkeypatch):
        from repro import harness

        orig = sweep.measure_register_usage
        calls = []

        def counting(*args, **kwargs):
            calls.append(kwargs.get("check", False))
            return orig(*args, **kwargs)

        # the checked schedule colors through the harness's alias, an
        # unchecked one through the sweep's
        monkeypatch.setattr(harness, "measure_register_usage", counting)
        monkeypatch.setattr(sweep, "measure_register_usage", counting)
        cell = evaluate_cell(get_workload("sum"), Level.LEV4,
                             [MachineConfig(issue_width=w) for w in (1, 2, 4, 8)],
                             check_ir=True)
        assert calls == [True] * 4
        assert all(rec.usage is rec.ck.usage for rec in cell)

    def test_machines_must_share_latencies(self):
        fast = MachineConfig(issue_width=8)
        latencies = dict(fast.latencies)
        kind = next(iter(latencies))
        latencies[kind] += 1
        slow = MachineConfig(issue_width=8, latencies=latencies)
        with pytest.raises(ValueError, match="share latencies"):
            evaluate_cell(get_workload("add"), Level.LEV4, [fast, slow],
                          simulate=False)

    def test_input_cache_is_bounded(self):
        sweep._inputs_cached.cache_clear()
        n = sweep.INPUT_CACHE_SIZE + 10
        for seed in range(n):
            sweep._inputs_cached("add", seed)
        info = sweep._inputs_cached.cache_info()
        assert info.currsize == sweep.INPUT_CACHE_SIZE
        assert info.misses == n
        assert sweep.INPUT_CACHE_SIZE >= 40  # a whole seed's grid fits


class TestJournalResume:
    def test_resume_skips_finished_configs(self, serial_sweep, tmp_path):
        journal = tmp_path / "sweep.journal.jsonl"
        wls = [get_workload(n) for n in WORKLOADS]

        first = run_sweep(wls[:2], LEVELS, WIDTHS, journal=journal)
        assert first.computed == 2 * len(LEVELS) * len(WIDTHS)
        assert first.reused == 0

        resumed = run_sweep(wls, LEVELS, WIDTHS, journal=journal, jobs=2)
        assert resumed.reused == first.computed  # nothing recomputed
        assert resumed.computed == len(LEVELS) * len(WIDTHS)  # only maxval
        for k in serial_sweep.results:
            assert _key_fields(resumed.results[k]) == _key_fields(serial_sweep.results[k])

    def test_truncated_tail_tolerated(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        wls = [get_workload("add")]
        run_sweep(wls, LEVELS, WIDTHS, journal=journal)
        journal.write_text(journal.read_text() + '{"workload": "tru')  # died mid-write
        again = run_sweep(wls, LEVELS, WIDTHS, journal=journal)
        assert again.computed == 0
        assert again.reused == len(LEVELS) * len(WIDTHS)

    def test_torn_final_line_skipped_and_reported(self, serial_sweep, tmp_path, capsys):
        """A final record torn mid-write — even mid-multibyte-character,
        leaving invalid UTF-8 — is skipped, reported, and recomputed."""
        journal = tmp_path / "j.jsonl"
        wls = [get_workload(n) for n in WORKLOADS]
        first = run_sweep(wls, LEVELS, WIDTHS, journal=journal)

        raw = journal.read_bytes()
        journal.write_bytes(raw[:-20] + b"\xff")  # torn + undecodable tail

        skips = []
        loaded = read_journal(journal, seed=0, check=True,
                              on_skip=lambda lineno, line: skips.append(lineno))
        assert len(loaded) == first.computed - 1
        assert len(skips) == 1

        resumed = run_sweep(wls, LEVELS, WIDTHS, journal=journal)
        assert resumed.journal_skipped == 1
        assert resumed.computed == 1  # only the torn configuration
        assert resumed.reused == first.computed - 1
        assert "skipped 1 corrupt line" in capsys.readouterr().err
        for k in serial_sweep.results:
            assert _key_fields(resumed.results[k]) == _key_fields(serial_sweep.results[k])

        # appending after a torn tail must newline-terminate it first, or
        # the new record would concatenate onto the torn bytes: a third
        # resume sees every appended record and recomputes nothing
        third = run_sweep(wls, LEVELS, WIDTHS, journal=journal)
        assert third.journal_skipped == 1  # the torn line itself remains
        assert third.computed == 0
        assert third.reused == first.computed

    def test_corrupt_middle_line_recomputed(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        wls = [get_workload("add")]
        run_sweep(wls, LEVELS, WIDTHS, journal=journal)
        lines = journal.read_bytes().splitlines(keepends=True)
        lines[2] = b'{"workload": \xfe garbage\n'
        journal.write_bytes(b"".join(lines))
        again = run_sweep(wls, LEVELS, WIDTHS, journal=journal)
        assert again.journal_skipped == 1
        assert again.computed == 1
        assert again.reused == len(LEVELS) * len(WIDTHS) - 1

    def test_mismatched_header_rejected(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        run_sweep([get_workload("add")], LEVELS, WIDTHS, seed=0, journal=journal)
        assert read_journal(journal, seed=1, check=True) == {}
        assert len(read_journal(journal, seed=0, check=True)) == 4

    def test_resume_false_recomputes(self, tmp_path):
        journal = tmp_path / "j.jsonl"
        wls = [get_workload("add")]
        run_sweep(wls, LEVELS, WIDTHS, journal=journal)
        fresh = run_sweep(wls, LEVELS, WIDTHS, journal=journal, resume=False)
        assert fresh.reused == 0
        assert fresh.computed == len(LEVELS) * len(WIDTHS)


class TestPartialCache:
    def test_partial_grid_loadable_on_request(self, serial_sweep, tmp_path):
        p = tmp_path / "sweep.json"
        save_sweep(serial_sweep, p)
        assert load_sweep(p) is None  # figures need the full grid
        part = load_sweep(p, require_complete=False)
        assert part is not None
        assert len(part.results) == len(serial_sweep.results)
        for k in serial_sweep.results:
            assert _key_fields(part.results[k]) == _key_fields(serial_sweep.results[k])

    def test_version3_payload_still_loads(self, serial_sweep, tmp_path):
        p = tmp_path / "sweep.json"
        save_sweep(serial_sweep, p)
        payload = json.loads(p.read_text())
        payload["version"] = 3
        for r in payload["results"]:
            for f in ("t_compile", "t_schedule", "t_simulate"):
                del r[f]
        p.write_text(json.dumps(payload))
        v3 = load_sweep(p, require_complete=False)
        assert v3 is not None
        assert len(v3.results) == len(serial_sweep.results)
        assert all(r.t_compile == 0.0 for r in v3.results.values())

    def test_unknown_version_rejected(self, serial_sweep, tmp_path):
        p = tmp_path / "sweep.json"
        save_sweep(serial_sweep, p)
        payload = json.loads(p.read_text())
        payload["version"] = CACHE_VERSION + 1
        p.write_text(json.dumps(payload))
        assert load_sweep(p, require_complete=False) is None


class TestArtifactStoreLayer:
    """The persistent (cross-process, cross-sweep) cache under `--store`."""

    def _store(self, tmp_path):
        from repro.service.store import ArtifactStore

        return ArtifactStore(tmp_path / "store")

    def test_warm_sweep_is_all_hits_and_byte_identical(self, tmp_path):
        from dataclasses import asdict

        store = self._store(tmp_path)
        wls = [get_workload(n) for n in WORKLOADS]
        cold = run_sweep(wls, LEVELS, WIDTHS, store=store)
        n = len(WORKLOADS) * len(LEVELS) * len(WIDTHS)
        assert cold.computed == n and cold.store_hits == 0

        warm = run_sweep(wls, LEVELS, WIDTHS, store=store)
        assert warm.computed == 0 and warm.store_hits == n
        # byte-identical, not merely numerically equal: even the
        # execution-ordered t_passes maps round-trip through the blobs
        dump = lambda d: json.dumps(  # noqa: E731
            [asdict(d.results[k]) for k in sorted(d.results)])
        assert dump(warm) == dump(cold)

    def test_store_fills_the_gap_the_journal_missed(self, tmp_path):
        store = self._store(tmp_path)
        wls = [get_workload(n) for n in WORKLOADS]
        journal = tmp_path / "j.jsonl"
        # journal knows two workloads; the store knows all three
        run_sweep(wls, LEVELS, WIDTHS, store=store)
        run_sweep(wls[:2], LEVELS, WIDTHS, journal=journal)
        both = run_sweep(wls, LEVELS, WIDTHS, journal=journal, store=store)
        per_wl = len(LEVELS) * len(WIDTHS)
        assert both.reused == 2 * per_wl       # from the journal
        assert both.store_hits == per_wl       # only maxval from the store
        assert both.computed == 0

    def test_corrupt_blob_recomputed_not_served(self, tmp_path):
        store = self._store(tmp_path)
        wls = [get_workload("add")]
        run_sweep(wls, LEVELS, WIDTHS, store=store)
        for p in (store.root / "objects").glob("??/*.json"):
            p.write_bytes(p.read_bytes()[:40])  # tear every blob
        again = run_sweep(wls, LEVELS, WIDTHS, store=store)
        assert again.store_hits == 0
        assert again.computed == len(LEVELS) * len(WIDTHS)
        assert store.stats.quarantined > 0

    def test_foreign_schema_blob_recomputed(self, tmp_path):
        """A blob that parses but is not a ConfigResult (e.g. written by a
        different tool under the same key) is skipped, not crashed on."""
        from repro.service.keys import request_key, workload_fingerprint

        store = self._store(tmp_path)
        k = request_key("result", "add", int(LEVELS[1]), WIDTHS[0],
                        fingerprint=workload_fingerprint("add"))
        store.put(k, {"not": "a ConfigResult"})
        out = run_sweep([get_workload("add")], LEVELS, WIDTHS, store=store)
        assert out.store_hits == 0
        assert out.computed == len(LEVELS) * len(WIDTHS)
