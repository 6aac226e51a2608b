"""Tests for the perf-regression bench harness (``repro bench``)."""

import dataclasses
import json

import pytest

from repro.experiments.bench import (
    BENCH_SCHEMA_VERSION,
    BENCH_SEED,
    QUICK_VARIANTS,
    QUICK_WORKLOADS,
    run_bench,
    write_bench,
)
from repro.sim.config import default_config


@pytest.fixture(scope="module")
def quick_payload():
    # small scale keeps the suite fast; the bench definition (schemes,
    # workloads, misses, seed) stays pinned regardless
    return run_bench(quick=True, config=default_config(scale=0.25),
                     today="2026-01-02")


def test_payload_schema_and_pinning(quick_payload):
    assert quick_payload["schema"] == BENCH_SCHEMA_VERSION
    assert quick_payload["seed"] == BENCH_SEED
    assert quick_payload["quick"] is True
    assert quick_payload["date"] == "2026-01-02"
    assert {"python", "implementation", "machine",
            "system"} <= set(quick_payload["platform"])


def test_payload_has_one_cell_per_pair(quick_payload):
    cells = quick_payload["cells"]
    pairs = {(c["key"], c["workload"]) for c in cells}
    assert pairs == {(key, w)
                     for key, _s, _m in QUICK_VARIANTS
                     for w in QUICK_WORKLOADS}
    for cell in cells:
        assert cell["wall_seconds"] >= 0.0
        assert cell["accesses"] > 0
        assert cell["elapsed_cycles"] > 0


def test_mshr_variant_pins_scheme_and_entries(quick_payload):
    """Schema v5: the headline cells run the default MSHR pipeline and
    the compat cell pins the pre-MSHR front door at an explicit 0 (an
    ``if mshr_entries`` guard would silently inherit the default)."""
    variants = {c["key"]: c for c in quick_payload["cells"]}
    compat_cell = variants["silc-compat"]
    assert compat_cell["scheme"] == "silc"
    assert compat_cell["mshr_entries"] == 0
    assert variants["silc"]["mshr_entries"] == 128
    assert variants["nonm"]["mshr_entries"] == 128


def test_quick_cells_skip_latency_tails(quick_payload):
    """Schema v4: quick runs with span sampling off in the config skip
    the untimed tail pass entirely — the tails are reported as None,
    not measured behind the caller's back."""
    for cell in quick_payload["cells"]:
        assert cell["p95_latency"] is None
        assert cell["p99_latency"] is None


def _shrink_quick_suite(monkeypatch):
    """One tiny cell so harness-logic tests stay fast (the pinned bench
    definition is irrelevant to what they assert)."""
    import repro.experiments.bench as bench
    import repro.service.bench as service_bench

    monkeypatch.setattr(bench, "QUICK_VARIANTS", [("nonm", "nonm", 0)])
    monkeypatch.setattr(bench, "QUICK_WORKLOADS", ["mcf"])
    monkeypatch.setattr(bench, "QUICK_MISSES", 150)
    # the v6 service phase has its own tests; stub it out here so these
    # don't pay for a process pool they make no assertion about
    monkeypatch.setattr(service_bench, "run_service_bench",
                        lambda quick=False, jobs=None: {"stubbed": True})


def test_quick_run_makes_no_tail_pass(monkeypatch):
    """The fixed bug: --quick used to re-run every cell span-sampled
    even with span_sample_rate=0 inherited from the config.  A quick
    cell must now run exactly once — never a span-sampled pass."""
    import repro.experiments.runner as runner

    _shrink_quick_suite(monkeypatch)
    calls = []
    real_run_one = runner.run_one

    def counting(scheme, workload, config, **kwargs):
        calls.append(config.span_sample_rate)
        return real_run_one(scheme, workload, config, **kwargs)

    monkeypatch.setattr(runner, "run_one", counting)
    run_bench(quick=True, config=default_config(scale=0.25))
    assert len(calls) == 1
    assert all(rate == 0 for rate in calls)


def test_quick_run_measures_tails_when_spans_enabled(monkeypatch):
    """Opting in via the config (span_sample_rate > 0) restores the
    tail pass on quick runs."""
    _shrink_quick_suite(monkeypatch)
    config = dataclasses.replace(
        default_config(scale=0.25), telemetry_window=50_000,
        span_sample_rate=1)
    payload = run_bench(quick=True, config=config)
    (cell,) = payload["cells"]
    assert cell["p95_latency"] > 0
    assert cell["p99_latency"] >= cell["p95_latency"]


def test_payload_throughput_totals(quick_payload):
    totals = quick_payload["throughput"]
    cells = quick_payload["cells"]
    assert totals["total_accesses"] == sum(c["accesses"] for c in cells)
    assert totals["total_wall_seconds"] == pytest.approx(
        sum(c["wall_seconds"] for c in cells))


def test_cells_carry_no_batched_twin(quick_payload):
    """Schema v8: one engine, so no cell times a batched twin run and
    the totals carry no batched columns — they would time the same code
    twice."""
    assert "batch_window" not in quick_payload
    assert set(quick_payload["throughput"]) == {
        "total_wall_seconds", "total_accesses", "accesses_per_sec"}
    for cell in quick_payload["cells"]:
        assert not [name for name in cell if name.startswith("batch")]


def test_payload_has_no_batch_curve(quick_payload):
    """Schema v8: no batch_window speedup curve — every window now runs
    the same engine, so the curve would read ~1.0x at every point."""
    assert "batch_curve" not in quick_payload
    assert not [name for name in quick_payload if "curve" in name]


def test_payload_figures_of_merit(quick_payload):
    speedups = quick_payload["figures_of_merit"]["speedup_over_nonm"]
    # every non-baseline variant has a per-workload speedup + geomean
    assert set(speedups) == {k for k, _s, _m in QUICK_VARIANTS} - {"nonm"}
    for per_wl in speedups.values():
        assert set(per_wl) == set(QUICK_WORKLOADS) | {"geomean"}
        for value in per_wl.values():
            assert value > 0


def test_payload_service_section(quick_payload):
    """Schema v6: the payload carries the sweep service under its
    pinned multi-tenant load, witnesses intact."""
    from repro.service.bench import (
        QUICK_CELLS_PER_TENANT,
        QUICK_POOL,
        QUICK_TENANTS,
        SERVICE_BENCH_SEED,
    )

    service = quick_payload["service"]
    assert service["seed"] == SERVICE_BENCH_SEED
    assert service["tenants"] == QUICK_TENANTS
    assert service["cells_per_tenant"] == QUICK_CELLS_PER_TENANT
    assert 0 < service["unique_cells"] <= QUICK_POOL
    assert service["total_cell_requests"] == \
        2 * QUICK_TENANTS * QUICK_CELLS_PER_TENANT
    # correctness witnesses the regression gate hard-fails on
    assert service["exactly_once"] is True
    assert service["max_executions_per_key"] == 1
    assert service["fanned_out"] is True
    assert service["conserved"] is True
    # throughput + dedup figures
    assert service["cold"]["cells_per_sec"] > 0
    assert service["hot"]["cells_per_sec"] > 0
    assert service["simulated"] == service["unique_cells"]
    assert 0 <= service["dedup_hit_rate"] <= 1
    # the hot phase is pure cache hits, so latency was sampled
    assert service["cache_hit_latency_ms"]["p50"] is not None
    assert service["cache_hit_latency_ms"]["p95"] >= \
        service["cache_hit_latency_ms"]["p50"]
    # the whole section must survive the canonical-JSON round trip
    assert json.loads(json.dumps(service, sort_keys=True)) == service


def test_write_bench_names_file_by_date(tmp_path, quick_payload):
    path = write_bench(quick_payload, out_dir=tmp_path)
    assert path.name == "BENCH_2026-01-02.json"
    data = json.loads(path.read_text())
    assert data == quick_payload


def test_write_bench_rerun_overwrites(tmp_path, quick_payload):
    write_bench(quick_payload, out_dir=tmp_path)
    changed = dict(quick_payload, schema=BENCH_SCHEMA_VERSION)
    path = write_bench(changed, out_dir=tmp_path)
    assert len(list(tmp_path.glob("BENCH_*.json"))) == 1
    assert json.loads(path.read_text()) == changed
