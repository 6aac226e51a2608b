"""Tests for scripts/check_bench_regression.py (the CI bench gate)."""

import json
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[2] / "scripts"
sys.path.insert(0, str(SCRIPTS))

from check_bench_regression import main  # noqa: E402


def _payload(rates, total, tails=None, batched=None, batched_total=None,
             fom=None, service=None, curve=None):
    cells = []
    for (key, wl), rate in rates.items():
        cell = {"key": key, "scheme": key.split("-")[0], "workload": wl,
                "accesses_per_sec": rate}
        if tails and (key, wl) in tails:
            cell["p95_latency"], cell["p99_latency"] = tails[(key, wl)]
        if batched and (key, wl) in batched:
            cell["batched_accesses_per_sec"] = batched[(key, wl)]
        cells.append(cell)
    throughput = {"accesses_per_sec": total}
    if batched_total is not None:
        throughput["batched_accesses_per_sec"] = batched_total
    payload = {
        "cells": cells,
        "throughput": throughput,
    }
    if fom is not None:
        payload["figures_of_merit"] = {"speedup_over_nonm": fom}
    if service is not None:
        payload["service"] = service
    if curve is not None:
        payload["batch_curve"] = curve
    return payload


def _write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


BASE = {("nonm", "mcf"): 20000.0, ("silc", "mcf"): 10000.0}


def test_passes_within_threshold(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(
        {("nonm", "mcf"): 16000.0, ("silc", "mcf"): 9000.0}, 12000.0))
    assert main([base, cur]) == 0
    assert "OK" in capsys.readouterr().out


def test_fails_on_per_cell_regression(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(
        {("nonm", "mcf"): 20000.0, ("silc", "mcf"): 5000.0}, 14000.0))
    assert main([base, cur]) == 1
    assert "silc/mcf" in capsys.readouterr().err


def test_fails_on_total_regression(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    # both cells just inside the per-cell threshold, total just outside
    cur = _write(tmp_path, "cur.json", _payload(
        {("nonm", "mcf"): 15200.0, ("silc", "mcf"): 7600.0}, 11000.0))
    assert main([base, cur]) == 1
    assert "total" in capsys.readouterr().err


def test_new_and_missing_cells_are_notes_not_failures(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(
        {("nonm", "mcf"): 20000.0, ("silc-mshr32", "mcf"): 9000.0}, 15000.0))
    assert main([base, cur]) == 0
    out = capsys.readouterr().out
    assert "missing from current run" in out
    assert "new cell silc-mshr32/mcf" in out


def test_threshold_validation(tmp_path):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    with pytest.raises(SystemExit):
        main([base, base, "--threshold", "1.5"])


def test_tighter_threshold_trips(tmp_path):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(
        {("nonm", "mcf"): 17000.0, ("silc", "mcf"): 8500.0}, 12750.0))
    assert main([base, cur]) == 0          # 15% drop, default 25% gate
    assert main([base, cur, "--threshold", "0.1"]) == 1


# ----------------------------------------------------------------------
# tail-latency gate (schema v3)
# ----------------------------------------------------------------------
TAILS = {("nonm", "mcf"): (2000.0, 2600.0), ("silc", "mcf"): (2200.0, 3500.0)}


def test_tails_within_gate_pass(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0, TAILS))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, {
        ("nonm", "mcf"): (2100.0, 2650.0),   # +5%, +2%
        ("silc", "mcf"): (2200.0, 3500.0),
    }))
    assert main([base, cur]) == 0
    assert "tails within 10%" in capsys.readouterr().out


def test_tail_growth_past_gate_fails(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0, TAILS))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, {
        ("nonm", "mcf"): (2000.0, 2600.0),
        ("silc", "mcf"): (2200.0, 4200.0),   # p99 +20%
    }))
    assert main([base, cur]) == 1
    captured = capsys.readouterr()
    assert "TAIL REGRESSION" in captured.out
    assert "silc/mcf:p99_latency" in captured.err


def test_tail_improvement_always_passes(tmp_path):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0, TAILS))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, {
        key: (p95 / 2, p99 / 2) for key, (p95, p99) in TAILS.items()
    }))
    assert main([base, cur]) == 0


def test_pre_v3_baseline_skips_tail_gate(tmp_path, capsys):
    """A baseline without tail fields (or with nulls) gates nothing —
    upgrading the baseline turns the check on."""
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, {
        ("silc", "mcf"): (9999.0, 99999.0)}))
    assert main([base, cur]) == 0
    null_base = _write(tmp_path, "nulls.json", _payload(BASE, 15000.0, {
        ("silc", "mcf"): (None, None)}))
    assert main([null_base, cur]) == 0


def test_tailless_current_run_skips_tail_gate(tmp_path, capsys):
    """A v4 quick run measures no tails at all (span sampling off); the
    gate must not read the missing columns as overflow against a
    tail-carrying baseline."""
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0, TAILS))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0))
    assert main([base, cur]) == 0
    assert "tail gate skipped" in capsys.readouterr().out


def test_current_overflow_against_finite_baseline_fails(tmp_path, capsys):
    """Baseline measured a finite p99 but the current run overflowed the
    histogram: that is a tail blow-up, not missing data."""
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0, TAILS))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, {
        ("silc", "mcf"): (2200.0, None)}))
    assert main([base, cur]) == 1
    assert "overflow" in capsys.readouterr().out


def test_pre_v4_baseline_skips_batched_gate(tmp_path):
    """A baseline without batched columns gates nothing against a
    current run that still carries them (schema v4-v7 payloads)."""
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(
        BASE, 15000.0, batched={("silc", "mcf"): 1.0}, batched_total=1.0))
    assert main([base, cur]) == 0


# ----------------------------------------------------------------------
# MSHR dominance figure-of-merit gate (schema v5)
# ----------------------------------------------------------------------
def test_mshr_dominance_gate_passes_when_default_wins(tmp_path, capsys):
    """The gate reads the *current* run's figures of merit: silc with the
    default MSHR must hold a speedup geomean >= compat-mode silc's."""
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, fom={
        "silc": {"mcf": 1.70, "geomean": 1.70},
        "silc-compat": {"mcf": 1.69, "geomean": 1.69},
    }))
    assert main([base, cur]) == 0
    assert "default-MSHR 1.7000 vs compat 1.6900" in capsys.readouterr().out


def test_mshr_dominance_gate_fails_when_compat_wins(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, fom={
        "silc": {"mcf": 1.60, "geomean": 1.60},
        "silc-compat": {"mcf": 1.69, "geomean": 1.69},
    }))
    assert main([base, cur]) == 1
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.out
    assert "fom:mshr-dominance" in captured.err


def test_pre_v5_payload_skips_mshr_dominance_gate(tmp_path, capsys):
    """Payloads without silc/silc-compat figures (older suites, partial
    reruns) skip the gate with a note instead of failing."""
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, fom={
        "silc": {"mcf": 1.60, "geomean": 1.60}}))
    assert main([base, cur]) == 0
    assert "MSHR dominance gate skipped" in capsys.readouterr().out


def test_mshr_dominance_ignores_baseline_figures(tmp_path):
    """Dominance is a property of the current run alone — a baseline
    where compat won must not mask (or cause) a failure."""
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0, fom={
        "silc": {"mcf": 1.50, "geomean": 1.50},
        "silc-compat": {"mcf": 1.80, "geomean": 1.80},
    }))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, fom={
        "silc": {"mcf": 1.70, "geomean": 1.70},
        "silc-compat": {"mcf": 1.69, "geomean": 1.69},
    }))
    assert main([base, cur]) == 0


def test_tail_threshold_flag(tmp_path):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0, TAILS))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0, {
        ("nonm", "mcf"): TAILS[("nonm", "mcf")],
        ("silc", "mcf"): (2330.0, 3700.0)}))  # ~6% growth
    assert main([base, cur]) == 0
    assert main([base, cur, "--tail-threshold", "0.05"]) == 1
    with pytest.raises(SystemExit):
        main([base, cur, "--tail-threshold", "0"])

# ----------------------------------------------------------------------
# sweep-service gate (schema v6)
# ----------------------------------------------------------------------
def _service(cold=400.0, hot=2000.0, **overrides):
    section = {
        "seed": 1234, "tenants": 24, "cells_per_tenant": 3,
        "unique_cells": 8, "total_cell_requests": 144,
        "misses_per_core": 120,
        "cold": {"wall_seconds": 0.2, "cells_per_sec": cold},
        "hot": {"wall_seconds": 0.05, "cells_per_sec": hot},
        "simulated": 8, "dedup_hits": 50, "cache_hits": 86,
        "dedup_hit_rate": 0.35,
        "cache_hit_latency_ms": {"p50": 0.1, "p95": 0.4},
        "max_executions_per_key": 1,
        "exactly_once": True, "fanned_out": True, "conserved": True,
    }
    section.update(overrides)
    return section


def test_service_within_threshold_passes(tmp_path, capsys):
    base = _write(tmp_path, "base.json",
                  _payload(BASE, 15000.0, service=_service()))
    cur = _write(tmp_path, "cur.json", _payload(
        BASE, 15000.0, service=_service(cold=350.0, hot=1800.0)))
    assert main([base, cur]) == 0
    assert "service cold: 400.0 -> 350.0" in capsys.readouterr().out


def test_service_cold_throughput_regression_fails(tmp_path, capsys):
    base = _write(tmp_path, "base.json",
                  _payload(BASE, 15000.0, service=_service()))
    cur = _write(tmp_path, "cur.json", _payload(
        BASE, 15000.0, service=_service(cold=200.0)))
    assert main([base, cur]) == 1
    assert "service:cold" in capsys.readouterr().err


def test_service_hot_throughput_regression_fails(tmp_path, capsys):
    base = _write(tmp_path, "base.json",
                  _payload(BASE, 15000.0, service=_service()))
    cur = _write(tmp_path, "cur.json", _payload(
        BASE, 15000.0, service=_service(hot=1000.0)))
    assert main([base, cur]) == 1
    assert "service:hot" in capsys.readouterr().err


def test_service_exactly_once_violation_hard_fails(tmp_path, capsys):
    """Correctness witnesses gate the current run alone — a dedup break
    fails even when every throughput number improved."""
    base = _write(tmp_path, "base.json",
                  _payload(BASE, 15000.0, service=_service()))
    cur = _write(tmp_path, "cur.json", _payload(
        BASE, 15000.0, service=_service(
            cold=900.0, hot=9000.0, exactly_once=False,
            max_executions_per_key=3)))
    assert main([base, cur]) == 1
    captured = capsys.readouterr()
    assert "CORRECTNESS" in captured.out
    assert "service:exactly_once" in captured.err
    assert "service:max_executions_per_key" in captured.err


def test_service_witnesses_gate_even_without_baseline(tmp_path, capsys):
    """A current run with a service section is held to the correctness
    witnesses even when the baseline predates v6."""
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(
        BASE, 15000.0, service=_service(conserved=False)))
    assert main([base, cur]) == 1
    assert "service:conserved" in capsys.readouterr().err


def test_service_section_dropped_fails(tmp_path, capsys):
    """Baseline measured the service but the current run has no section
    at all — like the batched column, removal is a failure."""
    base = _write(tmp_path, "base.json",
                  _payload(BASE, 15000.0, service=_service()))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0))
    assert main([base, cur]) == 1
    assert "service:missing" in capsys.readouterr().err


def test_pre_v6_payloads_skip_service_gate(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0))
    assert main([base, cur]) == 0
    assert "service gate skipped" in capsys.readouterr().out


def test_new_service_section_without_baseline_is_a_note(tmp_path, capsys):
    base = _write(tmp_path, "base.json", _payload(BASE, 15000.0))
    cur = _write(tmp_path, "cur.json",
                 _payload(BASE, 15000.0, service=_service()))
    assert main([base, cur]) == 0
    assert "new service cold phase" in capsys.readouterr().out


# ----------------------------------------------------------------------
# pre-v8 engine-comparison fields
# ----------------------------------------------------------------------
def test_pre_v8_batched_and_curve_fields_are_ignored(tmp_path, capsys):
    """Schema v4-v7 baselines carry a batch-engine column and a speedup
    curve.  Since v8 there is one engine: a current run without them,
    or with far worse ones, is gated on its one throughput column
    alone."""
    batched = {key: rate * 2 for key, rate in BASE.items()}
    curve = {"variants": ["nonm", "silc"], "workloads": ["mcf"],
             "misses_per_core": 1500,
             "points": [{"batch_window": 256, "wall_seconds": 1.0,
                         "speedup": 1.62}]}
    base = _write(tmp_path, "base.json", _payload(
        BASE, 15000.0, batched=batched, batched_total=30000.0,
        curve=curve))
    cur = _write(tmp_path, "cur.json", _payload(BASE, 15000.0))
    assert main([base, cur]) == 0
    stale = _write(tmp_path, "stale.json", _payload(
        BASE, 15000.0, batched={key: 1.0 for key in BASE},
        batched_total=1.0,
        curve=dict(curve, points=[dict(curve["points"][0], speedup=0.1)])))
    assert main([base, stale]) == 0
    out = capsys.readouterr().out
    assert "batch" not in out
    assert "curve" not in out
