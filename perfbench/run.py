#!/usr/bin/env python3
"""The hds benchmark: one command for every end-to-end and per-layer metric.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout of the repository.  It builds the
benchmark package (perfbench/CMakeLists.txt: the src/ libraries, the
hds_matrix CLI and the hds_perfbench program) into .bench_build/perfbench,
runs the workload, checks that every simulation is correct, prints each
metric by name with its unit, and ends with one JSON line:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics from untraced runs; --trace 1 the
per-layer metrics of the traced run.  Metric names, units and bounds live
in BENCHMARK.json; the workloads and layers are described in README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402

WORKLOADS = ("paper", "zoo", "tuned", "matrix")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_DIR = os.path.join(ROOT, ".bench_build", "runs")
# Build jobs, and hds_matrix worker threads: at most four, and one core
# left to the rest of the machine (with all four cores busy the slice
# walls spread twice as wide on a 4-vCPU VM).
CPUS = len(os.sched_getaffinity(0))
BUILD_JOBS = max(1, min(4, CPUS))
JOBS = max(1, min(4, CPUS - 1))
# Layout seeds a run simulates.
LAYOUTS_PER_RUN = 3
# Share of --seconds spent on in-process rounds (the rest on hds_matrix).
IN_PROCESS_SHARE = 0.6
# Layout seeds are 1..LAYOUT_SEEDS.  hds_matrix builds every seed variant
# before filtering, so the benchmark seed is folded into this range.
LAYOUT_SEEDS = 32


# Process group of the running child, so a SIGTERM/SIGINT of this script
# stops the child and everything it started (make, compilers) before exit.
_child_group = None


def _stop_child(signum, _frame):
    if _child_group is not None:
        try:
            os.killpg(_child_group, signal.SIGKILL)
        except ProcessLookupError:
            pass
    sys.exit(128 + signum)


def die(message, code=1):
    print("error: " + message, file=sys.stderr)
    sys.exit(code)


def parse_args():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or not 0 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds in [0, 60]")
    return args


def contract():
    """Metric names and units from BENCHMARK.json, per trace mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as err:
        die("cannot read %s: %s" % (path, err), 2)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def build():
    """Configures (once) and builds hds_perfbench and hds_matrix."""
    for need in ("src/CMakeLists.txt", "tools/hds_matrix.cpp",
                 "perfbench/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            die("%s is missing: run from a full checkout of the repository"
                % need, 2)
    os.makedirs(RUN_DIR, exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_build", "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", str(BUILD_JOBS),
                  "--target", "hds_perfbench", "hds_matrix"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if run_child(cmd, log)[0]:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                die("build failed: " + " ".join(cmd))
    return (os.path.join(BUILD_DIR, "hds_perfbench"),
            os.path.join(BUILD_DIR, "hds_matrix"))


def run_child(cmd, log=None):
    """Runs cmd to completion; returns (exit code, wall s, peak RSS MB)."""
    global _child_group
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=log or subprocess.DEVNULL,
        stderr=subprocess.STDOUT if log else None, start_new_session=True)
    _child_group = proc.pid
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # Anything the child left behind in its group goes too.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    _child_group = None
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def load_json(path):
    with open(path) as f:
        return json.load(f)


def matrix_cmd(hds_matrix, scale, filters, layout_seed, out):
    cmd = [hds_matrix, "--jobs", str(JOBS), "--scale", repr(scale),
           "--quiet", "--out", out,
           "--seeds", str(layout_seed), "--filter", "seed=%d" % layout_seed]
    for f in filters:
        cmd += ["--filter", f]
    return cmd


def digest(rows):
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def untraced(args, bench, hds_matrix, layouts, report):
    """End-to-end metrics of one untraced run."""
    tag = "%s-%d" % (args.workload, args.seed)
    is_matrix = args.workload == "matrix"
    # One hds_perfbench process runs in-process rounds, cycling through the
    # layouts, for IN_PROCESS_SHARE of the seconds (one round per layout at
    # least); what is left of the seconds goes to hds_matrix over the same
    # cells, again cycling the layouts (one call per layout at least).
    # Several layouts per run because some cells switch behaviour with the
    # layout (boxsim pair+tuned issues 2.1M or 0.46M prefetches).  The
    # matrix workload makes one sequential reference round (first layout)
    # and spends the rest on hds_matrix.
    in_process = layouts[:1] if is_matrix else layouts
    seconds = 0.0 if is_matrix else args.seconds * IN_PROCESS_SHARE
    raw_path = os.path.join(RUN_DIR, tag + "-run.json")
    code, _, bench_rss = run_child(
        [bench, "run", "--workload", args.workload,
         "--seed", ",".join(str(l) for l in in_process),
         "--seconds", repr(seconds), "--out", raw_path])
    if code != 0:
        die("hds_perfbench run exited with %d" % code)
    raw = load_json(raw_path)
    labels = raw["labels"]
    documents = {l["seed"]: l["document"] for l in raw["layouts"]}

    out_path = os.path.join(RUN_DIR, tag + "-matrix.json")
    walls, matrix_rss, matrix_accesses, outputs = [], [], [], []
    budget = args.seconds - raw["measured_ns"] / 1e9
    start = time.perf_counter()
    while (len(walls) < len(layouts)
           or time.perf_counter() - start < budget):
        layout = layouts[len(walls) % len(layouts)]
        code, wall, rss = run_child(matrix_cmd(
            hds_matrix, raw["scale"], raw["filters"], layout, out_path))
        if code != 0:
            die("hds_matrix exited with %d" % code)
        walls.append(wall)
        matrix_rss.append(rss)
        outputs.append((layout, load_json(out_path)))
        matrix_accesses.append(sum(r.get("accesses", 0)
                                   for r in outputs[-1][1]["results"]))

    # Correctness, counted per cell run.
    checks_ok = True
    failed = 0
    attempted = len(labels) * (len(raw["rounds"]) + len(outputs))
    for layout in raw["layouts"]:
        rounds = sum(1 for r in raw["rounds"]
                     if in_process[r["layout"]] == layout["seed"])
        for label, cell, row in zip(labels, layout["cells"],
                                    layout["document"]["results"]):
            if not cell["ok"] or row["status"] != "ok":
                report.append("cell %s errored: %s" % (label, cell["error"]))
                failed += rounds
                continue
            if not metrics.breakdown_sums(row):
                report.append("cell %s: cycle breakdown does not sum to "
                              "cycles" % label)
                failed += 1
            if cell["repeat_mismatches"]:
                report.append("cell %s: %d repeats differ from the first run"
                              % (label, cell["repeat_mismatches"]))
                failed += cell["repeat_mismatches"]
    for i, (layout, document) in enumerate(outputs):
        # Each hds_matrix output must equal the same specs run sequentially
        # in-process, or (matrix workload, layouts it has no in-process run
        # of) that layout's first hds_matrix output.
        reference = documents.setdefault(layout, document)
        mine, theirs = document["results"], reference["results"]
        if len(mine) != len(theirs):
            report.append("hds_matrix layout %d ran %d cells, expected %d"
                          % (layout, len(mine), len(theirs)))
            failed += len(theirs)
            continue
        for label, row, ref in zip(labels, mine, theirs):
            if row != ref or not metrics.breakdown_sums(row):
                report.append("hds_matrix cell %s (layout %d, call %d) "
                              "differs from the sequential run"
                              % (label, layout, i))
                failed += 1
        if document != reference:
            report.append("hds_matrix document (layout %d, call %d) differs "
                          "from the sequential run's" % (layout, i))
            checks_ok = False
    simulated = [documents[layout]["results"] for layout in layouts]
    if args.workload == "paper":
        losers = sorted({w for rows in simulated
                         for w in metrics.figure12_losers(rows)})
        report.append("figure 12 ordering (Dyn-pref beats Original on all "
                      "six programs, every layout): %s"
                      % ("holds" if not losers else
                         "FAILS on " + ", ".join(losers)))
        checks_ok = checks_ok and not losers

    # Host time.  The host's speed drifts by tens of percent over tens of
    # seconds (other tenants), more slowly than a round, so times are
    # pooled over the whole run: accesses over host seconds of every round
    # (or hds_matrix call), and per cell over all its rounds.
    accesses = [[c["accesses"] for c in l["cells"]] for l in raw["layouts"]]
    cell_ns, cell_accesses = [0] * len(labels), [0] * len(labels)
    for r in raw["rounds"]:
        for i, ns in enumerate(r["ns"]):
            cell_ns[i] += ns
            cell_accesses[i] += accesses[r["layout"]][i]
    per_access = [ns / a for ns, a in zip(cell_ns, cell_accesses)]
    # Set-up: each round times every cell's set-up just before the cell.
    setup_ns = metrics.mean(r["setup_ns"] for r in raw["rounds"])
    p50, n = metrics.percentile(per_access, 50)
    p90, _ = metrics.percentile(per_access, 90)
    if is_matrix:
        throughput = sum(matrix_accesses) / sum(walls)
        rss = metrics.median(matrix_rss)
    else:
        throughput = sum(cell_accesses) / (sum(cell_ns) / 1e9)
        rss = bench_rss
    # Per layout: its cells plus (tuned) its Original baselines.
    baselines = [l["baselines"]["results"] for l in raw["layouts"]]
    baselines += [[] for _ in layouts[len(baselines):]]
    ratios = [metrics.sim_cycles_ratio(rows + base)
              for rows, base in zip(simulated, baselines)]
    values = {
        "accesses_per_sec": throughput,
        "cell_ns_per_access_p50": p50,
        "cell_ns_per_access_p90": p90,
        "matrix_wall_s": metrics.median(walls),
        "setup_s": setup_ns / 1e9,
        "peak_rss_mb": rss,
        "sim_cycles_ratio": metrics.geomean_ratio((r, 1.0) for r in ratios),
    }
    report.append("cells %d x layouts %s; scale %g; %d in-process rounds "
                  "over layouts %s; %d hds_matrix --jobs %d calls"
                  % (len(labels), layouts, raw["scale"], len(raw["rounds"]),
                     in_process, len(outputs), JOBS))
    report.append("cell_ns_per_access percentiles over %d samples (one per "
                  "cell: its host ns over its accesses in %d rounds)"
                  % (n, len(raw["rounds"])))
    report.append("simulated digest %s: %s" % (args.workload, digest(
        [simulated, baselines])))
    return values, attempted, failed, checks_ok


def traced(args, bench, hds_matrix, layout_seed, report):
    """Per-layer metrics of one traced run."""
    tag = "%s-%d" % (args.workload, args.seed)
    raw_path = os.path.join(RUN_DIR, tag + "-trace.json")
    spans_path = os.path.join(RUN_DIR, tag + "-spans.json")
    code, _, _ = run_child([bench, "trace", "--workload", args.workload,
                            "--seed", str(layout_seed), "--out", raw_path,
                            "--spans", spans_path])
    if code != 0:
        die("hds_perfbench trace exited with %d" % code)
    raw = load_json(raw_path)
    values = {name: m["value"] for name, m in raw["metrics"].items()}
    units = {name: m["unit"] for name, m in raw["metrics"].items()}

    # engine.idle_share: the same cells through hds_matrix --jobs N, against
    # the traced run's sequential busy time.
    out_path = os.path.join(RUN_DIR, tag + "-trace-matrix.json")
    code, wall, _ = run_child(matrix_cmd(hds_matrix, raw["scale"],
                                         raw["filters"], layout_seed,
                                         out_path))
    if code != 0:
        die("hds_matrix exited with %d" % code)
    values["engine.idle_share"] = 1.0 - raw["busy_ns"] / 1e9 / (JOBS * wall)
    units["engine.idle_share"] = "share"

    checks_ok = True
    for layer, status in sorted(raw["layers"].items()):
        line = "layer %-9s exact re-runs on %3d cells" % (
            layer, status["exact_cells"])
        if status["approximate"]:
            line += "; approximate: " + status["approximate"]
        report.append(line)
        for failure in status["failures"]:
            report.append("  MISMATCH " + failure)
            checks_ok = False
    report.append("traced %d cells at scale %g (clock read %d ns); spans in %s"
                  % (raw["traced"], raw["scale"], raw["clock_ns"],
                     os.path.relpath(spans_path, ROOT)))
    return values, units, raw["traced"], raw["failed"], checks_ok


def main():
    signal.signal(signal.SIGTERM, _stop_child)
    signal.signal(signal.SIGINT, _stop_child)
    args = parse_args()
    end_to_end, per_layer = contract()
    bench, hds_matrix = build()
    layouts = [1 + (args.seed * LAYOUTS_PER_RUN + i) % LAYOUT_SEEDS
               for i in range(LAYOUTS_PER_RUN)]
    report = []
    if args.trace:
        values, units, attempted, failed, checks_ok = traced(
            args, bench, hds_matrix, layouts[0], report)
        expected = per_layer
        for name, unit in units.items():
            if per_layer.get(name) != unit:
                die("metric %s (%s) is not in BENCHMARK.json per_layer"
                    % (name, unit))
    else:
        values, attempted, failed, checks_ok = untraced(
            args, bench, hds_matrix, layouts, report)
        expected = end_to_end
    if set(values) != set(expected):
        die("metrics %s differ from BENCHMARK.json"
            % sorted(set(values) ^ set(expected)))

    for line in report:
        print(line)
    print("cells attempted %d, failed %d (failure share %.4f)"
          % (attempted, failed, metrics.failure_share(attempted, failed)))
    for name in expected:
        print("%-40s %.6g %s" % (name, values[name], expected[name]))
    result = {
        "correct": failed == 0 and checks_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": expected[name]}
                    for name in expected},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
