"""Tests for the command-line interface."""

import dataclasses

import pytest

import repro.__main__ as cli
from repro.sim.config import default_config
from repro.workloads.io import trace_length


def test_schemes_listing(capsys):
    assert cli.main(["schemes"]) == 0
    out = capsys.readouterr().out
    assert "silc" in out and "cameo" in out.lower()


def test_suite_listing(capsys):
    assert cli.main(["suite"]) == 0
    out = capsys.readouterr().out
    for name in ("mcf", "xalancbmk", "lbm"):
        assert name in out


def test_trace_generation(tmp_path, capsys):
    path = tmp_path / "t.trc"
    assert cli.main(["trace", "lbm", str(path), "--misses", "500"]) == 0
    assert trace_length(path) == 500


def test_run_command(capsys, monkeypatch):
    # shrink the system so the CLI test stays fast
    small = dataclasses.replace(default_config(scale=0.25), cores=2)
    monkeypatch.setattr(cli, "_config", lambda scale, args=None: small)
    assert cli.main(["run", "silc", "mcf", "--misses", "400"]) == 0
    out = capsys.readouterr().out
    assert "NM access rate" in out
    assert "EDP" in out


def test_compare_command(capsys, monkeypatch):
    small = dataclasses.replace(default_config(scale=0.25), cores=2)
    monkeypatch.setattr(cli, "_config", lambda scale, args=None: small)
    assert cli.main(["compare", "mcf", "--schemes", "cam", "silc",
                     "--misses", "400"]) == 0
    out = capsys.readouterr().out
    assert "Speedup" in out
    assert "#" in out  # the bar chart rendered


def test_check_flag_attaches_the_oracle(capsys, monkeypatch):
    small = dataclasses.replace(default_config(scale=0.25), cores=1)
    monkeypatch.setattr(cli, "default_config", lambda scale=None: small)
    seen = {}
    real_run_one = cli.run_one

    def spy(scheme, benchmark, config, **kwargs):
        seen["check_interval"] = config.check_interval
        return real_run_one(scheme, benchmark, config, **kwargs)

    monkeypatch.setattr(cli, "run_one", spy)
    assert cli.main(["run", "silc", "mcf", "--misses", "200",
                     "--check-every", "50"]) == 0
    assert seen["check_interval"] == 50
    assert cli.main(["run", "silc", "mcf", "--misses", "200",
                     "--check"]) == 0
    assert seen["check_interval"] == cli.DEFAULT_CHECK_EVERY


def test_check_flags_left_off_leave_config_unchecked(monkeypatch):
    small = dataclasses.replace(default_config(scale=0.25), cores=1)
    monkeypatch.setattr(cli, "default_config", lambda scale=None: small)
    assert cli._config(None, None).check_interval == 0


def test_non_positive_check_interval_rejected(monkeypatch, capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "silc", "mcf", "--check-every", "0"])


def test_run_with_telemetry_writes_artifacts(tmp_path, capsys, monkeypatch):
    small = dataclasses.replace(default_config(scale=0.25), cores=2)
    monkeypatch.setattr(cli, "default_config", lambda scale=None: small)
    assert cli.main(["run", "silc", "mcf", "--misses", "400", "--telemetry",
                     "--telemetry-out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "telemetry:" in out
    assert (tmp_path / "silc-mcf.series.json").exists()
    assert (tmp_path / "silc-mcf.trace.json").exists()


def test_telemetry_window_implies_telemetry(monkeypatch):
    small = dataclasses.replace(default_config(scale=0.25), cores=1)
    monkeypatch.setattr(cli, "default_config", lambda scale=None: small)
    seen = {}
    real_run_one = cli.run_one

    def spy(scheme, benchmark, config, **kwargs):
        seen["window"] = config.telemetry_window
        return real_run_one(scheme, benchmark, config, **kwargs)

    monkeypatch.setattr(cli, "run_one", spy)
    assert cli.main(["run", "silc", "mcf", "--misses", "200",
                     "--telemetry-window", "2500",
                     "--telemetry-out", "/tmp/_cli_telemetry_test"]) == 0
    assert seen["window"] == 2500


def test_non_positive_telemetry_window_rejected():
    with pytest.raises(SystemExit):
        cli.main(["run", "silc", "mcf", "--telemetry-window", "0"])


def test_trace_scheme_writes_chrome_trace(tmp_path, capsys, monkeypatch):
    from repro.telemetry import validate_chrome_trace

    small = dataclasses.replace(default_config(scale=0.25), cores=2)
    monkeypatch.setattr(cli, "default_config", lambda scale=None: small)
    path = tmp_path / "run.json"
    assert cli.main(["trace", "mcf", str(path), "--scheme", "silc",
                     "--misses", "400"]) == 0
    assert validate_chrome_trace(str(path)) > 0
    assert "Perfetto" in capsys.readouterr().out


def test_bench_quick_command(tmp_path, capsys, monkeypatch):
    import repro.experiments.bench as bench

    payload = {
        "schema": bench.BENCH_SCHEMA_VERSION,
        "date": "2026-01-02",
        "quick": True,
        "seed": bench.BENCH_SEED,
        "platform": {},
        "cells": [{"scheme": "silc", "workload": "mcf", "wall_seconds": 0.5,
                   "accesses_per_sec": 12000.0, "accesses": 6000,
                   "misses_per_core": 1500, "elapsed_cycles": 1.0,
                   "access_rate": 0.5}],
        "throughput": {"total_wall_seconds": 0.5, "total_accesses": 6000,
                       "accesses_per_sec": 12000.0},
        "figures_of_merit": {"speedup_over_nonm": {}},
    }
    seen = {}

    def fake_run_bench(quick=False, **kwargs):
        seen["quick"] = quick
        return payload

    monkeypatch.setattr(bench, "run_bench", fake_run_bench)
    assert cli.main(["bench", "--quick", "--out-dir", str(tmp_path)]) == 0
    assert seen["quick"] is True
    assert (tmp_path / "BENCH_2026-01-02.json").exists()
    out = capsys.readouterr().out
    assert "bench (quick)" in out
    assert "total: 6,000 accesses in 0.50s (12,000/s)" in out
    assert "wrote" in out


def test_run_with_spans_then_analyze(tmp_path, capsys, monkeypatch):
    small = dataclasses.replace(default_config(scale=0.25), cores=2)
    monkeypatch.setattr(cli, "default_config", lambda scale=None: small)
    assert cli.main(["run", "silc", "mcf", "--misses", "400",
                     "--span-sample-rate", "1",
                     "--telemetry-out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "spans:" in out  # the run advertises the analyze command
    series = tmp_path / "silc-mcf.series.json"
    assert cli.main(["analyze", str(series), "--top", "3"]) == 0
    report = capsys.readouterr().out
    assert "Latency attribution" in report
    assert "Per-stage service time (cycles)" in report
    assert "Table I row breakdown" in report


def test_analyze_rejects_spanless_artifact(tmp_path, capsys):
    path = tmp_path / "plain.series.json"
    path.write_text('{"schema": 2, "samples": []}')
    assert cli.main(["analyze", str(path)]) == 1
    assert "analyze:" in capsys.readouterr().err


def test_span_rate_implies_telemetry(monkeypatch):
    small = dataclasses.replace(default_config(scale=0.25), cores=1)
    monkeypatch.setattr(cli, "default_config", lambda scale=None: small)
    seen = {}
    real_run_one = cli.run_one

    def spy(scheme, benchmark, config, **kwargs):
        seen["window"] = config.telemetry_window
        seen["rate"] = config.span_sample_rate
        return real_run_one(scheme, benchmark, config, **kwargs)

    monkeypatch.setattr(cli, "run_one", spy)
    assert cli.main(["run", "silc", "mcf", "--misses", "200",
                     "--span-sample-rate", "8",
                     "--telemetry-out", "/tmp/_cli_span_test"]) == 0
    assert seen["window"] == cli.DEFAULT_TELEMETRY_WINDOW
    assert seen["rate"] == 8


def test_non_positive_span_rate_rejected():
    with pytest.raises(SystemExit):
        cli.main(["run", "silc", "mcf", "--span-sample-rate", "0"])


def test_unknown_scheme_rejected():
    with pytest.raises(SystemExit):
        cli.main(["run", "bogus", "mcf"])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_serve_and_submit_round_trip(tmp_path, capsys, monkeypatch):
    """End-to-end over a real subprocess service: serve on an ephemeral
    port, submit twice (simulate, then cache), shut down via a client."""
    import asyncio
    import os
    import re
    import subprocess
    import sys as _sys
    import time as _time

    from repro.service import SweepClient

    env = dict(os.environ)
    src = os.path.join(os.path.dirname(cli.__file__), os.pardir)
    env["PYTHONPATH"] = os.path.abspath(src)
    log = tmp_path / "serve.log"
    with open(log, "w") as log_file:
        server = subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve", "--port", "0",
             "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
             "--telemetry-interval", "0"],
            stdout=log_file, stderr=subprocess.STDOUT, env=env)
    try:
        deadline = _time.monotonic() + 30
        port = None
        while port is None and _time.monotonic() < deadline:
            match = re.search(r"serving on [\d.]+:(\d+)", log.read_text())
            if match:
                port = int(match.group(1))
            else:
                _time.sleep(0.05)
        assert port is not None, f"no banner in: {log.read_text()!r}"

        small = dataclasses.replace(default_config(scale=0.25), cores=2)
        monkeypatch.setattr(cli, "_config", lambda scale, args=None: small)
        argv = ["submit", "mcf", "--schemes", "cam", "silc",
                "--misses", "300", "--port", str(port)]
        assert cli.main(argv) == 0
        first = capsys.readouterr()
        assert "Speedup" in first.out and "#" in first.out
        assert "<- simulated" in first.err

        assert cli.main(argv + ["--tenant", "again"]) == 0
        second = capsys.readouterr()
        assert "Speedup" in second.out
        assert "<- cache" in second.err
        assert "<- simulated" not in second.err

        async def shut():
            async with SweepClient("127.0.0.1", port) as client:
                stats = await client.stats()
                await client.shutdown()
                return stats

        stats = asyncio.run(shut())
        assert stats["max_executions_per_key"] == 1
        assert stats["cells"]["by_source"]["cache"] == 3
        assert server.wait(timeout=30) == 0
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()


def test_submit_without_a_service_fails_cleanly(capsys):
    # a port from the ephemeral range that nothing listens on
    assert cli.main(["submit", "mcf", "--port", "1",
                     "--misses", "100"]) == 1
    assert "cannot reach the service" in capsys.readouterr().err
