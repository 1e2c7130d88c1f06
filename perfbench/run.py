#!/usr/bin/env python3
"""Benchmark of isoflag: run one workload for a fixed time, check, report.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from ``src/`` of
that checkout and nowhere else.  Each pass runs in a fresh interpreter
(``worker.py``), so it pays every cache of the program cold, as one
``isoflag`` invocation does.  Set-up is probed four times before the passes
and once after each; passes repeat until ``--seconds`` have elapsed.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  Its passes
run beside ``refloop.py`` on one CPU from ready on, and an item's cost is its
CPU time in blocks of that loop over the same stretch of time (see
``worker.py``), so the costs do not follow the host's changes of speed.
Set-up is timed alone, in seconds.  ``--trace
1`` runs one untraced pass, then traced passes (see ``tracing.py``), and
reports the per-layer metrics; ``trace.overhead_s`` is the traced wall time
minus the untraced one.  Workload ``count_c2`` (the full Sp4(F3) count,
minutes per pass) is not in BENCHMARK.json and is run by hand.

The next-to-last line of standard output is a report with provenance, per
pass figures and failures; the last line is the result.  The full report,
with per-item times and, when tracing, all spans, is written under
``.perfbench_out/``.  Exit 0 when every item passed its checks, 1 when any
failed, 2 when the benchmark could not run at all.  ``--record`` runs one
pass and stores its output digests in ``expected.json`` instead.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"
#: The counter that refloop.py writes and worker.py reads.
REF_FILE = OUT_DIR / f"refloop-{os.getpid()}.bin"

WORKLOADS = ("sweep", "tables", "count", "count_c2")
#: Workloads whose latency sample is the pass, not the item: the three cases
#: of ``count`` differ in size sixtyfold, so a quantile over them would
#: follow whichever small case sits at it; ``count_c2`` has one item.
PASS_IS_ITEM = ("count", "count_c2")
#: Every run of a BENCHMARK.json workload ends within this many seconds.
DEADLINE_S = 170
#: Set-up probes before the first pass; one more follows every pass, so the
#: samples span the run rather than one phase of the host's speed.
SETUP_PROBES = 4


class BenchError(Exception):
    """The benchmark itself could not run (exit 2)."""


def _child(args, env, timeout):
    """Run worker.py; returns (spawn time, parsed last line of output)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.terminate()  # the worker then stops its reference loop
        try:
            proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
        return spawn, {"error": f"pass stopped after {timeout:.0f} s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-3:]
        return spawn, {"error": f"worker exited {proc.returncode}: "
                                f"{' | '.join(tail)}"}
    return spawn, json.loads(lines[-1])


def _remaining(deadline):
    if deadline is None:
        return None
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"no time left for another pass within "
                         f"{DEADLINE_S} s")
    return left


def _probe(env, deadline):
    spawn, out = _child(["--probe"], env, _remaining(deadline))
    if "error" in out:
        raise BenchError(f"set-up failed: {out['error']}")
    out["setup_s"] = out["ready"] - spawn
    return out


def _pass(workload, seed, trace, env, deadline, reference=False):
    args = ["--workload", workload, "--seed", str(seed), "--trace", str(trace)]
    if reference:
        args += ["--ref-file", str(REF_FILE)]
    spawn, out = _child(args, env, _remaining(deadline))
    out["traced"] = bool(trace)
    if "ready" in out:
        out["setup_s"] = out["ready"] - spawn
    return out


def _quantile(values, q):
    """Quantile by linear interpolation between order statistics."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _git_commit():
    # a checkout that is not a repository must not report an enclosing one
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "isoflag").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _provenance(probe):
    isoflag_file = Path(probe["isoflag_file"]).resolve()
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_digest(),
        "isoflag_file": str(isoflag_file),
        "isoflag_in_checkout": SRC.resolve() in isoflag_file.parents,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": probe["python"],
        "sympy": probe["sympy"],
    }


def _item_costs(passes):
    """Each item's median cost over the passes, in reference blocks."""
    per_item = {}
    for p in passes:
        for item in p["items"]:
            per_item.setdefault(item["key"], []).append(item["cost"])
    return {key: statistics.median(v) for key, v in per_item.items()}


def _item_latencies(workload, passes):
    """Latency samples in blocks: each item's cost, or the pass on count."""
    costs = _item_costs(passes)
    if workload in PASS_IS_ITEM:
        return [sum(costs.values())]
    return list(costs.values())


def _end_to_end(workload, passes, setups):
    items = _item_latencies(workload, passes)
    return {
        "pass_kblk": sum(_item_costs(passes).values()) / 1000,
        "item_p50_kblk": _quantile(items, 50) / 1000,
        "item_p90_kblk": _quantile(items, 90) / 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def _per_layer(untraced, traced):
    layers = {name: statistics.median(p["layers"][name] for p in traced)
              for name in traced[0]["layers"]}
    traced_wall = statistics.median(p["wall_s"] for p in traced)
    layers["trace.wall_s"] = traced_wall
    layers["trace.untraced_wall_s"] = untraced["wall_s"]
    layers["trace.overhead_s"] = traced_wall - untraced["wall_s"]
    return layers


def _outcome(passes):
    attempted = failed = 0
    failures = []
    for p in passes:
        if "error" in p:
            attempted += 1
            failed += 1
            failures.append(p["error"])
            continue
        for item in p["items"]:
            attempted += 1
            if item["problems"]:
                failed += 1
                failures.append(f"{item['key']}: {item['problems'][0]}")
    return attempted, failed, failures


def _record(workload, env):
    out = _pass(workload, 0, 0, env, None)
    if "error" in out:
        raise BenchError(out["error"])
    for item in out["items"]:
        other = [p for p in item["problems"]
                 if "not the recorded one" not in p]
        if other:
            raise BenchError(f"{item['key']}: {other[0]}")
    recorded = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    recorded[workload] = dict(sorted(out["digests"].items()))
    EXPECTED.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(out['digests'])} digests for {workload}")


def run(args):
    if not (SRC / "isoflag" / "__init__.py").is_file():
        raise BenchError(f"no isoflag sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    OUT_DIR.mkdir(exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    if args.record:
        return _record(args.workload, env)

    started = time.monotonic()
    deadline = None if args.workload == "count_c2" else started + DEADLINE_S
    load_start = _loadavg()
    warm = _probe(env, deadline)  # also writes the byte-code caches
    provenance = _provenance(warm)
    if not provenance["isoflag_in_checkout"]:
        raise BenchError(f"isoflag imported from {warm['isoflag_file']}, "
                         f"not from this checkout")
    reference = not args.trace
    setups = [_probe(env, deadline)["setup_s"] for _ in range(SETUP_PROBES)]

    passes = []
    window = time.monotonic()
    if args.trace:
        passes.append(_pass(args.workload, args.seed, 0, env, deadline))
    while not any(p["traced"] == bool(args.trace) for p in passes) or \
            time.monotonic() - window < args.seconds:
        passes.append(_pass(args.workload, args.seed, args.trace, env,
                            deadline, reference))
        setups.append(_probe(env, deadline)["setup_s"])

    attempted, failed, failures = _outcome(passes)
    good = [p for p in passes if "error" not in p]
    setups += [p["setup_s"] for p in good]
    untraced = [p for p in good if not p["traced"]]
    traced = [p for p in good if p["traced"]]
    if args.trace:
        kind = "per_layer"
        values = _per_layer(untraced[0], traced) \
            if untraced and traced else {}
    else:
        kind = "end_to_end"
        values = _end_to_end(args.workload, untraced, setups) \
            if untraced else {}
    metrics = {}
    for m in spec[kind]:
        if m["name"] not in values:
            if failed:
                continue  # passes that crashed leave nothing to report
            raise BenchError(f"metric {m['name']} was not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    report = {
        "workload": args.workload, "seed": args.seed,
        "seed_effect": "permutes item order"
        if any(p.get("permuted") for p in good) else "none",
        "trace": args.trace, "seconds": args.seconds,
        "provenance": dict(provenance, loadavg_start=load_start,
                           loadavg_end=_loadavg()),
        "run_s": time.monotonic() - started,
        "setup_samples_s": setups,
        "passes": [{k: p.get(k) for k in ("traced", "cost", "wall_s",
                                           "pass_wall_s", "cpu_s",
                                           "harness_s", "setup_s",
                                           "peak_rss_mb", "error")}
                   for p in passes],
        "items_per_pass": len(good[0]["items"]) if good else 0,
        "attempted": attempted, "failed": failed,
        "fail_ratio": failed / attempted,
        "failures": failures[:10],
    }
    out_file = OUT_DIR / (f"{args.workload}-seed{args.seed}-"
                          f"trace{args.trace}.json")
    out_file.write_text(json.dumps(dict(report, pass_details=passes)))
    report["report_file"] = str(out_file.relative_to(ROOT))
    print(json.dumps(report))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="permutes the item order of sweep and tables")
    ap.add_argument("--seconds", type=float, default=10,
                    help="passes repeat until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this workload's output digests and exit")
    args = ap.parse_args()
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        REF_FILE.unlink(missing_ok=True)


if __name__ == "__main__":
    sys.exit(main())
