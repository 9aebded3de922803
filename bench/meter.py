"""Reference-speed meter: times a fixed kernel in a process of its own.

    python meter.py CMD_FD REPLY_FD OUT_JSON

run.py starts one meter per run, pinned to the same CPU as every
process it measures, and passes its two pipe ends to the worker.  Each
byte read from CMD_FD asks for one sample: the meter runs `kernel`
once untimed, to bring its own code and data back into the CPU's caches
after whatever ran before, then once timed, and answers with one byte
on REPLY_FD.  At end of input (or the byte
``q``) it writes its samples, ``[monotonic start, seconds]`` pairs, to
OUT_JSON and exits.

The kernel runs in this process, never in the one under test, so the
program's heap and interpreter state cannot change the kernel's time,
and the untimed first pass keeps the program's use of the caches out of
it; it runs only while the measured process waits for the reply, so it
takes no CPU from a timed request.  It is the same fixed numpy work on
every workload and does not touch acmoment.
"""

import json
import os
import sys
import time

import numpy as np


def kernel():
    x = np.linspace(0.1, 1.0, 225)
    s = 0.0
    for i in range(60):
        y = x * x + 0.5 * x + i * 1e-3
        s += float(np.sum(x / (y * np.sqrt(y))))
    return s


class Client:
    """Asks a running meter for samples over its pipe ends."""

    def __init__(self, cmd_fd, reply_fd):
        self.cmd_fd, self.reply_fd = cmd_fd, reply_fd

    def sample(self, count=1):
        for _ in range(count):
            os.write(self.cmd_fd, b"s")
            if os.read(self.reply_fd, 1) != b"k":
                raise RuntimeError("reference meter stopped")


def main():
    cmd_fd, reply_fd, out_path = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
    kernel()
    samples = []
    while True:
        cmd = os.read(cmd_fd, 1)
        if cmd in (b"", b"q"):
            break
        kernel()
        t = time.monotonic()
        kernel()
        samples.append([t, time.monotonic() - t])
        os.write(reply_fd, b"k")
    with open(out_path, "w") as fh:
        json.dump(samples, fh)


if __name__ == "__main__":
    main()
