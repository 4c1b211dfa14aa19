#!/usr/bin/env python3
"""End-to-end checks of the command-line drivers' exit codes and exports.

tests/CMakeLists.txt registers one ctest per check:

  cli_checks.py traced-runs WAVESIM_CLI STORM_SCHEDULE
  cli_checks.py seq-vs-par WAVESIM_CLI
  cli_checks.py simcheck SIMCHECK
  cli_checks.py wavecheck WAVECHECK
  cli_checks.py bench BENCH_SWEEP SPECS_DIR GOLDEN
  cli_checks.py wavesimd WAVESIMD CLIENT
  cli_checks.py mutation-escape WAVECHECK SIMCHECK  (-DWAVESIM_MUTATE_ESCAPE)
  cli_checks.py mutation-stale-route SIMCHECK  (-DWAVESIM_MUTATE_STALE_ROUTE)

Each check works in a directory named after it under the current one,
so `ctest -j` runs never share a file. Exit 0 when every assertion holds.
"""

import glob
import json
import os
import re
import shutil
import subprocess
import sys
import time


def run(cmd, expect=0):
    """Run `cmd`; fail unless it exits `expect`. Returns its stdout."""
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != expect:
        sys.exit(f"{' '.join(cmd)}: exit {proc.returncode}, expected "
                 f"{expect}\n{proc.stdout}{proc.stderr}")
    return proc.stdout


def load(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def traced_runs(cli, storm):
    """Trace, metrics and run exports keep their schemas, and traced
    parallel runs (CLRP on 4 shards, a failure storm on 8) drop no event
    -- under ThreadSanitizer too."""
    run([cli, "--load", "0.1", "--warmup", "500", "--cycles", "3000",
         "--json", "run.json", "--trace", "trace.json",
         "--metrics", "metrics.json", "--sample-every", "200"])
    trace = load("trace.json")
    assert trace["otherData"]["schema"] == "wavesim.trace.v1"
    events = trace["traceEvents"]
    assert events, "empty trace"
    ts = [e["ts"] for e in events if e["ph"] != "M"]
    assert ts == sorted(ts), "trace timestamps regressed"
    assert any(e["ph"] == "b" for e in events), "no spans opened"
    metrics = load("metrics.json")
    assert metrics["schema"] == "wavesim.metrics.v1"
    for key in ("counters", "histograms", "samples", "sample_every"):
        assert key in metrics, key
    for name, hist in metrics["histograms"].items():
        total = sum(b["count"] for b in hist["buckets"])
        assert total == hist["count"], (name, total, hist["count"])
    columns = metrics["samples"]["columns"]
    assert all(len(row) == len(columns) for row in metrics["samples"]["rows"])
    doc = load("run.json")
    assert doc["schema"] == "wavesim.run.v1"
    assert doc["watchdog_verdict"] in ("progressing", "idle", "waiting")

    run([cli, "--load", "0.12", "--engine", "par", "--shards", "4",
         "--trace", "par_trace.json", "--metrics", "par_metrics.json"])
    run([cli, "--faults", storm, "--engine", "par", "--shards", "8",
         "--trace", "storm_trace.json"])
    load("par_metrics.json")
    for path in ("trace.json", "par_trace.json", "storm_trace.json"):
        other = load(path)["otherData"]
        assert other["events_dropped"] == 0, (path, other)


# CLRP at light load; the wormhole baseline with 16 VCs (80 input slots
# per router, two-word slot sets); and PCS-only CLRP at load 0.05, whose
# wormhole fabric idles every cycle, so seq's step_shard takes its
# idle-range early exit and par steps no shard at all.
LEGS = (["--load", "0.12"],
        ["--protocol", "wormhole", "--vcs", "16", "--load", "0.3"],
        ["--pcs-only", "--load", "0.05"])


def seq_vs_par(cli):
    """run.v1 exports of par (2 and 8 shards) equal seq's, engine stamp
    aside: 3 legs x 3 seeds."""
    for leg in LEGS:
        for seed in ("1", "7", "42"):
            base = [cli, *leg, "--seed", seed, "--warmup", "500",
                    "--cycles", "3000", "--json"]
            run(base + ["seq.json"])
            seq = load("seq.json")
            seq.pop("engine")
            for shards in ("2", "8"):
                run(base + ["par.json", "--engine", "par", "--shards", shards])
                par = load("par.json")
                par.pop("engine")
                assert par == seq, f"{leg} seed {seed} shards {shards}"


def simcheck(sc):
    """200 scenarios and 100 fault-bearing ones, violation-free; a fixed
    seed reproduces the report byte for byte."""
    run([sc, "--count", "200", "--seed", "1", "--artifact-dir", ".",
         "--json", "report.json"])
    run([sc, "--count", "200", "--seed", "1", "--json", "again.json"])
    with open("report.json", "rb") as a, open("again.json", "rb") as b:
        assert a.read() == b.read(), "same seed, different report"
    assert run([sc, "--one", "0x1234"]) == run([sc, "--one", "0x1234"])
    run([sc, "--count", "100", "--seed", "7", "--faulty", "--artifact-dir",
         ".", "--json", "faulty.json"])
    for path, count in (("report.json", 200), ("faulty.json", 100)):
        doc = load(path)
        assert doc["schema"] == "wavesim.simcheck.v1", doc.get("schema")
        assert doc["scenarios_run"] == count, doc["scenarios_run"]
        assert doc["failures"] == [], (path, doc["failures"])


def wavecheck_reports(wavecheck):
    """wavecheck over the whole design space is violation-free, and
    --bmc over the whole small-config slice is clean, exhaustive,
    replay-agreed, and exactly as large as pinned."""
    run([wavecheck, "--all-configs", "--json", "analysis.json"])
    doc = load("analysis.json")
    assert doc["schema"] == "wavesim.analysis.v1", doc.get("schema")
    assert doc["num_configs"] == len(doc["configs"]) > 0
    assert doc["num_violations"] == 0 and doc["num_ok"] == doc["num_configs"]
    row_ids = {"escape-cdg-acyclic", "wait-graph-acyclic", "mbm-no-wait",
               "force-waits-only-on-acked", "releases-wait-free",
               "minimal-routing", "livelock-bounds"}
    ids = set()
    for cfg in doc["configs"]:
        assert cfg["ok"] is True and cfg["id"] not in ids, cfg["id"]
        ids.add(cfg["id"])
        assert {r["id"] for r in cfg["rows"]} == row_ids, cfg["id"]
        for row in cfg["rows"]:
            assert row["status"] in ("ok", "skipped"), (cfg["id"], row)
            # Every skip states why the row does not apply.
            assert row["status"] == "ok" or row["detail"], (cfg["id"], row)
        assert cfg["bounds"]["backtrack_cap"] > 0, cfg["id"]

    run([wavecheck, "--bmc", "--all-configs", "--json", "bmc.json"])
    doc = load("bmc.json")
    assert doc["schema"] == "wavesim.analysis.v1", doc.get("schema")
    section = doc["bmc"]
    assert section["schema"] == "wavesim.bmc.v1", section.get("schema")
    totals = section["totals"]
    assert totals["configs"] == len(section["configs"]) > 0
    assert totals["rows_violation"] == 0, "BMC slice must be clean"
    assert totals["rows_bounded_out"] == 0, "budgets must be exhaustive"
    assert totals["replays_agreed"] is True, "model and runtime disagreed"
    # A change anywhere on the model's decision path (pcs::decide, the
    # view masks) moves the size of the explored space.
    assert totals["states"] == 115943, totals["states"]
    assert totals["transitions"] == 354383, totals["transitions"]
    row_ids = {"bmc-force-waits-only-on-acked", "bmc-no-wait-cycle",
               "bmc-teardown-drains", "bmc-no-deadlock",
               "bmc-replay-agreement"}
    for cfg in section["configs"]:
        assert cfg["complete"] is True and cfg["states"] > 0, cfg["id"]
        assert {r["id"] for r in cfg["rows"]} == row_ids, cfg["id"]
        for row in cfg["rows"]:
            assert row["status"] in ("ok", "skipped"), (cfg["id"], row)
        assert cfg["replay"]["agreed"] is True, cfg["id"]


def bench(sweep, specs, golden):
    """Every experiment spec file runs --quick to a bench.v1 export with a
    sweep.v1 document; the sweep grid's points are equal at --threads 1
    and 4, and their integer fields equal the committed golden's."""
    paths = sorted(glob.glob(os.path.join(specs, "*.json")))
    assert paths, f"no spec files in {specs}"
    for path in paths:
        name = os.path.basename(path)
        run([sweep, path, "--quick", "--threads", "2", "--json", name])
        doc = load(name)
        assert doc["schema"] == "wavesim.bench.v1", (name, doc.get("schema"))
        assert doc["ok"] is True and doc["tables"], name
        result = doc["extra"]["sweep"]
        assert result["schema"] == "wavesim.sweep.v1", name
        assert result["runs"] == len(result["points"]) * result["replicas"]
        for point in result["points"]:
            assert point["counters"]["messages_delivered"] > 0, point["label"]
            assert point["stuck_replicas"] == 0, point["label"]

    points = []
    for threads in ("1", "4"):
        run([sweep, os.path.join(specs, "sweep.json"), "--quick",
             "--base-seed", "1", "--threads", threads, "--json", "smoke.json"])
        points.append(load("smoke.json")["extra"]["sweep"]["points"])
    assert points[0] == points[1], "sweep points depend on --threads"

    def integers(point):
        return {k: v for k, v in point.items() if isinstance(v, (int, str))}
    expected = load(golden)["extra"]["sweep"]["points"]
    assert len(points[0]) == len(expected), (len(points[0]), len(expected))
    for got, want in zip(points[0], expected):
        assert integers(got) == integers(want), (got["label"], want["label"])
        assert got["counters"] == want["counters"], got["label"]


def wavesimd(daemon, client):
    """The wavesimd binary serves a run job end to end through the
    documented client (tools/wavesimd_client.py) and shuts down cleanly."""
    shutil.rmtree("state", ignore_errors=True)
    proc = subprocess.Popen([daemon, "--socket", "d.sock", "--state-dir",
                             "state", "--workers", "1"])
    ask = [sys.executable, client, "--socket", "d.sock"]
    try:
        deadline = time.monotonic() + 30
        while subprocess.run(ask + ["stats"], capture_output=True).returncode:
            assert time.monotonic() < deadline, "daemon never answered"
            time.sleep(0.01)
        run(ask + ["submit", "--kind", "run", "--spec",
                   '{"topo": "4x4", "warmup": 200, "measure": 2000}'])
        status = json.loads(run(ask + ["wait", "--id", "job-1"]))
        assert status["state"] == "done", status
        result = json.loads(run(ask + ["result", "--id", "job-1"]))["result"]
        assert result["schema"] == "wavesim.result.v1" and result["drained"]
        run(ask + ["shutdown"])
        assert proc.wait(timeout=60) == 0
    finally:
        if proc.poll() is None:
            proc.kill()


def find_and_replay(sc, args):
    """simcheck finds, shrinks and persists the seeded bug, and every
    repro re-fails on replay."""
    for stale in glob.glob("repro-seed-*.json"):
        os.remove(stale)
    run([sc, *args, "--artifact-dir", "."], expect=1)
    repros = glob.glob("repro-seed-*.json")
    assert repros, "no repro artifact written"
    for repro in repros:
        run([sc, "--replay", repro], expect=1)


def mutation_escape(wavecheck, sc):
    """The dropped dateline classing is caught statically with an ordered
    cycle witness, and dynamically by simcheck."""
    out = run([wavecheck, "--radix", "4x4", "--torus", "--routing", "dor",
               "--protocol", "clrp", "--json", "analysis.json"], expect=1)
    assert "escape-cdg-acyclic" in out, out
    assert re.search(r"wh n.*-> wh n", out), "no cycle witness printed"
    doc = load("analysis.json")
    assert doc["schema"] == "wavesim.analysis.v1" and doc["num_violations"] > 0
    witnessed = [r for r in doc["configs"][0]["rows"]
                 if r["status"] == "violation"]
    assert witnessed, "no violation rows in the JSON report"
    for row in witnessed:
        hops = row["witness"]["hops"]
        assert len(hops) >= 2, row["id"]
        for hop in hops:
            assert set(hop) >= {"vertex", "name", "node", "port"}, hop
    find_and_replay(sc, ["--count", "50", "--seed", "1"])


def mutation_stale_route(sc):
    """Stale distance-vector routes are caught by simcheck --faulty's
    DV-vs-BFS reachability oracle."""
    find_and_replay(sc, ["--count", "100", "--seed", "7", "--faulty"])


CHECKS = {"traced-runs": traced_runs, "seq-vs-par": seq_vs_par,
          "simcheck": simcheck, "wavecheck": wavecheck_reports,
          "bench": bench, "wavesimd": wavesimd,
          "mutation-escape": mutation_escape,
          "mutation-stale-route": mutation_stale_route}

if __name__ == "__main__":
    name, *binaries = sys.argv[1:]
    os.makedirs(name, exist_ok=True)
    os.chdir(name)
    CHECKS[name](*binaries)
    print(f"{name}: ok")
