#!/usr/bin/env python
"""Fail when the bench throughput regresses against a committed baseline.

Usage::

    python scripts/check_bench_regression.py BASELINE.json CURRENT.json \
        [--threshold 0.25] [--tail-threshold 0.10]

Compares ``accesses_per_sec`` per cell (matched by cell key + workload)
and in total; exits 1 when the current run is more than ``threshold``
(default 25%) slower than the baseline anywhere.  Cells present in only
one file are reported but never fail the check (the suite definition may
legitimately grow), and speedups are always fine.

Wall-clock thresholds this loose are deliberately insensitive to CI-host
noise; they catch the "someone re-introduced a per-op allocation"
class of regression, not single-digit jitter.

Schema-v3 baselines additionally carry per-cell **request-latency
tails** (``p95_latency``/``p99_latency``, simulation cycles, from an
untimed span-sampled run).  Those are deterministic given the bench's
pinned seed, so the gate is tighter (``--tail-threshold``, default
10%): a current tail more than that above the baseline fails.  The gate
is skipped for cells whose baseline lacks the fields or recorded
``null`` (pre-v3 baselines, histogram overflow) — upgrading the
baseline turns it on.  It is also skipped wholesale when the *current*
run measured no tails anywhere (since schema v4, quick runs skip the
tail pass unless the config enables span sampling); a ``null`` tail in
a run that measured others still fails as a histogram overflow.

Schema-v4 to v7 baselines also carry a second, batch-engine column per
cell and a speedup curve across trace-window sizes.  Since schema v8
the simulator has one engine, so those fields are ignored: there is no
second engine left to hold to them.

Schema-v5 payloads carry a ``silc-compat`` cell (``mshr_entries=0``)
next to the default-MSHR ``silc`` cell, and the gate additionally
checks the **MSHR dominance figure of merit** on the *current* run:
silc's speedup-over-nonm geomean with the default MSHR file must be at
least its compat-mode twin's.  This pins the silc-mshr32 postmortem's
conclusion — the transaction pipeline must be a win, never a modeling
tax — deterministically (simulation cycles, not wall clock), so an
MSHR policy regression cannot ride in behind healthy throughput
numbers.  Skipped for payloads that predate the v5 suite.

Schema-v6 payloads carry a ``service`` section: the multi-tenant sweep
service under a pinned concurrent load.  The gate holds its cold and
hot ``cells_per_sec`` to the baseline with the same ``--threshold`` as
the simulator columns, and a baseline with a service section and a
current run without one is a failure, not a skip.  The section's correctness witnesses are gated on the *current*
run alone and **hard-fail regardless of thresholds**: ``exactly_once``
false or ``max_executions_per_key > 1`` means single-flight dedup
broke, ``fanned_out``/``conserved`` false means tenants lost results.
Skipped (with a note) when *both* files predate schema v6.
"""

from __future__ import annotations

import argparse
import json
import sys

#: tail fields gated per cell (simulation-cycle request latencies).
TAIL_FIELDS = ("p95_latency", "p99_latency")


def load_cells(path: str):
    with open(path) as fh:
        payload = json.load(fh)
    cells = {}
    for cell in payload["cells"]:
        key = (cell.get("key", cell["scheme"]), cell["workload"])
        cells[key] = {
            "accesses_per_sec": cell["accesses_per_sec"],
            "tails": {field: cell.get(field) for field in TAIL_FIELDS},
        }
    total = payload["throughput"]["accesses_per_sec"]
    # Did this run measure tails at all?  Since schema v4, quick runs
    # skip the span-sampled tail pass unless the config opts in, so a
    # current run with *no* tails anywhere is "not measured" — only a
    # null tail alongside other measured cells means histogram overflow.
    measured_tails = any(tail is not None
                         for cell in cells.values()
                         for tail in cell["tails"].values())
    speedups = (payload.get("figures_of_merit") or {}).get(
        "speedup_over_nonm") or {}
    service = payload.get("service")
    return cells, total, measured_tails, speedups, service


def check_mshr_dominance(speedups, failures):
    """Schema-v5 figure-of-merit gate, evaluated on the *current* run
    alone: silc with the default MSHR file must keep a speedup-over-nonm
    geomean at least as high as its compat-mode twin (``silc-compat``,
    ``mshr_entries=0``).  Both speedups share the same nonm denominator,
    so this is a pure simulation-cycle comparison — deterministic, and
    immune to the CI-host noise the throughput thresholds absorb."""
    silc = speedups.get("silc")
    compat = speedups.get("silc-compat")
    if not isinstance(silc, dict) or not isinstance(compat, dict):
        print("  note: no silc/silc-compat figures of merit "
              "(pre-v5 payload) — MSHR dominance gate skipped")
        return
    marker = ""
    if silc["geomean"] < compat["geomean"]:
        failures.append("fom:mshr-dominance")
        marker = "  <-- REGRESSION"
    print(f"  silc speedup geomean: default-MSHR {silc['geomean']:.4f} "
          f"vs compat {compat['geomean']:.4f}{marker}")


def check_service(base, cur, threshold, failures):
    """Gate the schema-v6 service section.

    Throughput (cold/hot cells per second) is held to the baseline with
    the shared ``--threshold``; the correctness witnesses are evaluated
    on the current run alone and fail hard — a dedup bug is a bug, not
    a slowdown."""
    if base is None and cur is None:
        print("  note: no service section in either file "
              "(pre-v6 payloads) — service gate skipped")
        return
    if cur is None:
        # the baseline measured the service but the current run has no
        # section at all — the bench (or the service itself) was
        # dropped, which the gate must not wave through.
        failures.append("service:missing")
        print("  service: baseline has a service section, current run "
              "does not  <-- REGRESSION")
        return
    for witness, broken in (
            ("exactly_once", not cur.get("exactly_once", False)),
            ("max_executions_per_key",
             cur.get("max_executions_per_key", 0) > 1),
            ("fanned_out", not cur.get("fanned_out", False)),
            ("conserved", not cur.get("conserved", False))):
        if broken:
            failures.append(f"service:{witness}")
            print(f"  service {witness}: violated on the current run"
                  f"  <-- CORRECTNESS")
    print(f"  service dedup hit rate: {cur['dedup_hit_rate']:.1%} over "
          f"{cur['total_cell_requests']} requests "
          f"({cur['unique_cells']} unique cells)")
    for phase in ("cold", "hot"):
        cur_rate = cur[phase]["cells_per_sec"]
        if base is None:
            print(f"  note: new service {phase} phase "
                  f"({cur_rate:,.1f} cells/s, no baseline)")
            continue
        base_rate = base[phase]["cells_per_sec"]
        ratio = cur_rate / base_rate if base_rate else float("inf")
        marker = ""
        if ratio < 1 - threshold:
            failures.append(f"service:{phase}")
            marker = "  <-- REGRESSION"
        print(f"  service {phase}: {base_rate:,.1f} -> {cur_rate:,.1f} "
              f"cells/s ({ratio:.2f}x){marker}")


def check_tails(label, base_cell, cur_cell, threshold, failures):
    """Gate the deterministic latency tails of one matched cell."""
    for field in TAIL_FIELDS:
        base = base_cell["tails"].get(field)
        cur = cur_cell["tails"].get(field)
        if base is None:
            continue  # pre-v3 baseline or overflow: nothing to gate
        if cur is None:
            # current histogram overflowed where the baseline did not —
            # that IS a tail blow-up, not missing data.
            failures.append(f"{label}:{field}")
            print(f"  {label} {field}: {base:,.0f} -> overflow cyc"
                  f"  <-- TAIL REGRESSION")
            continue
        ratio = cur / base if base else float("inf")
        marker = ""
        if ratio > 1 + threshold:
            failures.append(f"{label}:{field}")
            marker = "  <-- TAIL REGRESSION"
        print(f"  {label} {field}: {base:,.0f} -> {cur:,.0f} cyc "
              f"({ratio:.2f}x){marker}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="committed BENCH_*.json")
    parser.add_argument("current", help="freshly generated BENCH_*.json")
    parser.add_argument("--threshold", type=float, default=0.25,
                        metavar="FRACTION",
                        help="maximum tolerated throughput drop "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--tail-threshold", type=float, default=0.10,
                        metavar="FRACTION",
                        help="maximum tolerated p95/p99 request-latency "
                             "growth (default 0.10 = 10%%; the tails are "
                             "deterministic, so this can be tight)")
    args = parser.parse_args(argv)
    if not 0 < args.threshold < 1:
        parser.error("--threshold must be in (0, 1)")
    if args.tail_threshold <= 0:
        parser.error("--tail-threshold must be positive")

    (base_cells, base_total, _, _,
     base_service) = load_cells(args.baseline)
    (cur_cells, cur_total, cur_measured_tails,
     cur_speedups, cur_service) = load_cells(args.current)
    if not cur_measured_tails:
        print("  note: current run measured no latency tails "
              "(quick run with span sampling off) — tail gate skipped")

    failures = []
    for key in sorted(base_cells):
        label = f"{key[0]}/{key[1]}"
        if key not in cur_cells:
            print(f"  note: cell {label} missing from current run")
            continue
        base = base_cells[key]["accesses_per_sec"]
        cur = cur_cells[key]["accesses_per_sec"]
        ratio = cur / base if base else float("inf")
        marker = ""
        if ratio < 1 - args.threshold:
            failures.append(label)
            marker = "  <-- REGRESSION"
        print(f"  {label}: {base:,.0f} -> {cur:,.0f} acc/s "
              f"({ratio:.2f}x){marker}")
        if cur_measured_tails:
            check_tails(label, base_cells[key], cur_cells[key],
                        args.tail_threshold, failures)
    for key in sorted(set(cur_cells) - set(base_cells)):
        print(f"  note: new cell {key[0]}/{key[1]} "
              f"({cur_cells[key]['accesses_per_sec']:,.0f} acc/s, "
              "no baseline)")

    total_ratio = cur_total / base_total if base_total else float("inf")
    marker = ""
    if total_ratio < 1 - args.threshold:
        failures.append("total")
        marker = "  <-- REGRESSION"
    print(f"  total: {base_total:,.0f} -> {cur_total:,.0f} acc/s "
          f"({total_ratio:.2f}x){marker}")
    check_mshr_dominance(cur_speedups, failures)
    check_service(base_service, cur_service, args.threshold, failures)

    if failures:
        print(f"FAIL: regression past thresholds "
              f"(throughput {args.threshold:.0%}, "
              f"tails {args.tail_threshold:.0%}) in: "
              f"{', '.join(failures)}", file=sys.stderr)
        return 1
    print(f"OK: throughput within {args.threshold:.0%} and tails within "
          f"{args.tail_threshold:.0%} of baseline")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
