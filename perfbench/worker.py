"""One benchmark pass in a fresh interpreter; started by run.py.

Set-up (imports, sympy included, and construction of the standard fields)
ends at the ``ready`` timestamp.  The pass then runs every item of the
workload in the order the seed gives, checks each output outside the item's
timing, and prints one JSON line with the results.  ``--probe`` stops after
set-up.  Timestamps are ``time.monotonic()``, which the parent shares.

With ``--ref-file``, the pass after set-up runs on one CPU beside
``refloop.py`` and gives each item a ``cost``: its CPU time in reference
blocks, taken at the block speed of the same stretch of time (see
``Reference``).
"""

import argparse
import gc
import json
import mmap
import os
import random
import resource
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

import isoflag.cli  # set-up: every layer, sympy included
import sympy

from refloop import RECORD
from workloads import SEEDED, WORKLOADS, digest, standard_fields

EXPECTED = Path(__file__).with_name("expected.json")
REFLOOP = Path(__file__).with_name("refloop.py")
#: An item's block speed is taken over at least this many reference blocks
#: (about 15 ms of the loop's CPU time), reaching back before the item when
#: the loop did fewer during the item.
MIN_BLOCKS = 200


class Reference:
    """refloop.py on this process's CPU, and the block speed it sees."""

    def __init__(self, path):
        path.write_bytes(bytes(RECORD.size))
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
        self.proc = subprocess.Popen(
            [sys.executable, str(REFLOOP), str(path), str(cpu)])
        with open(path, "r+b") as fh:
            self.counter = mmap.mmap(fh.fileno(), RECORD.size)
        self.marks = []
        try:
            self._wait_for(MIN_BLOCKS)  # the loop's own start and warm-up
            self.mark()
            # the first mark lies far enough back for any item's stretch
            self._wait_for(self.marks[0][0] + MIN_BLOCKS)
        except BaseException:
            self.close()
            raise

    def _wait_for(self, blocks):
        while self.read()[0] < blocks:
            if self.proc.poll() is not None:
                raise RuntimeError(f"refloop.py exited {self.proc.returncode}")
            time.sleep(0.005)

    def read(self):
        while True:
            blocks, cpu_ns, check = RECORD.unpack(self.counter[:])
            if blocks == check:
                return blocks, cpu_ns

    def mark(self):
        """Note the loop's progress now; returns the mark's index."""
        self.marks.append(self.read())
        return len(self.marks) - 1

    def block_ns(self, start, end):
        """CPU ns per block from mark ``start`` (or earlier) to ``end``."""
        blocks, cpu_ns = self.marks[end]
        for first in range(start, -1, -1):
            b0, c0 = self.marks[first]
            if blocks - b0 >= MIN_BLOCKS:
                break
        return (cpu_ns - c0) / (blocks - b0)

    def close(self):
        self.proc.terminate()
        self.proc.wait()
        self.counter.close()


def run_items(items, expected, tracer, reference):
    """Run and check every item; returns results, digests and timings."""
    results = []
    digests = {}
    harness_s = 0.0
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for item in items:
        # a full collection before each item starts every item from the
        # same collector state, whichever items ran before it
        before = time.perf_counter()
        gc.collect()
        mark = reference.mark() if reference is not None else None
        cpu_start = time.process_time_ns()
        start = time.perf_counter()
        harness_s += start - before
        seconds = cpu_ns = end_mark = None
        try:
            if tracer is None:
                output = item.run()
            else:
                span = tracer.enter("bench.item")
                try:
                    output = item.run()
                finally:
                    tracer.exit(span)
            seconds = time.perf_counter() - start
            cpu_ns = time.process_time_ns() - cpu_start
            if reference is not None:
                end_mark = reference.mark()
            problems, payload = item.check(output)
            if payload is not None:
                digests[item.key] = digest(payload)
                if digests[item.key] != expected.get(item.key):
                    problems.append(f"digest {digests[item.key][:16]} is "
                                    f"not the recorded one")
        except Exception:  # an item that raises is a failed item
            problems = [traceback.format_exc(limit=3)]
        end = time.perf_counter()
        if seconds is None:
            seconds = end - start
            cpu_ns = time.process_time_ns() - cpu_start
            if reference is not None:
                end_mark = reference.mark()
        harness_s += end - start - seconds
        result = {"key": item.key, "seconds": seconds,
                  "cpu_s": cpu_ns / 1e9, "problems": problems}
        if reference is not None:
            result["cost"] = cpu_ns / reference.block_ns(mark, end_mark)
        results.append(result)
    pass_s = (time.process_time() - cpu0, time.perf_counter() - t0)
    return results, digests, harness_s, pass_s


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--ref-file", type=Path)
    args = ap.parse_args()
    # run.py terminates a pass that overruns; exiting through the finally
    # blocks stops the reference loop as well
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    print(json.dumps(run(args)))


def run(args):
    """Set up, then run the pass unless probing; returns the output line."""
    fields = standard_fields()
    ready = time.monotonic()
    out = {"ready": ready, "isoflag_file": isoflag.__file__,
           "python": sys.version.split()[0], "sympy": sympy.__version__}
    if args.probe:
        return out

    items = WORKLOADS[args.workload](fields)
    out["permuted"] = args.workload in SEEDED
    if out["permuted"]:
        random.Random(args.seed).shuffle(items)
    expected = json.loads(EXPECTED.read_text()).get(args.workload, {})
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    reference = None
    try:
        if args.ref_file:
            reference = Reference(args.ref_file)
        results, digests, harness_s, (cpu_s, pass_wall_s) = \
            run_items(items, expected, tracer, reference)
    finally:
        if reference is not None:
            reference.close()
    # cpu_s / pass_wall_s below 1 shows time lost to other processes (about
    # a half beside the reference loop); the harness's collections and
    # output checks are not part of wall_s
    out["cpu_s"] = cpu_s
    out["pass_wall_s"] = pass_wall_s
    out["harness_s"] = harness_s
    out["wall_s"] = pass_wall_s - harness_s
    out["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["items"] = results
    if reference is not None:
        out["cost"] = sum(item["cost"] for item in results)
    out["digests"] = digests
    if tracer is not None:
        from tracing import layer_metrics, span_records
        out["layers"] = layer_metrics(tracer.spans)
        out["spans"] = span_records(tracer.spans)
    return out


if __name__ == "__main__":
    main()
