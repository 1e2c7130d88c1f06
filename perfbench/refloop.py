"""Reference loop: a fixed block of pure-Python work, run beside a pass.

    python3 perfbench/refloop.py COUNTER_FILE CPU

worker.py starts this process on the CPU it runs on, so the scheduler
interleaves the two every few milliseconds and both meet the same host
speed.  After each block it writes ``(blocks, cpu_ns, blocks)`` to the first
24 bytes of COUNTER_FILE, where ``cpu_ns`` is its own CPU time; the equal
first and last fields let a reader detect a torn write.  A pass's CPU time
divided by the CPU time of one block, over the same stretch of time, is its
cost in blocks, which does not depend on how fast the host happens to be.

It stops when terminated or when the process that started it has ended.  It
does not import the program, so no change to the program can change a block.
"""

import mmap
import os
import struct
import sys
import time
from fractions import Fraction

#: A fixed invertible matrix over GF(7); its powers cycle, so ``seen`` stays
#: small.
A = (1, 2, 3, 0, 1, 4, 5, 6, 1)
RECORD = struct.Struct("qqq")


def block(m, seen, f):
    """Small-matrix products mod 7, tuple hashing and one Fraction sum."""
    for _ in range(4):
        m = tuple(sum(m[3 * i + k] * A[3 * k + j] for k in range(3)) % 7
                  for i in range(3) for j in range(3))
        seen[m] = seen.get(m, 0) + 1
    f = f + Fraction(m[0] + 1, 7)
    if f.numerator > 1 << 20:
        f = Fraction(0)
    return m, f


def main():
    path, cpu = sys.argv[1], int(sys.argv[2])
    parent = os.getppid()
    os.sched_setaffinity(0, {cpu})
    with open(path, "r+b") as fh:
        counter = mmap.mmap(fh.fileno(), RECORD.size)
    m, seen, f = A, {}, Fraction(0)
    blocks = 0
    while os.getppid() == parent:
        m, f = block(m, seen, f)
        blocks += 1
        counter[:] = RECORD.pack(blocks, time.process_time_ns(), blocks)


if __name__ == "__main__":
    main()
