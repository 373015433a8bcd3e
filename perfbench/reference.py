"""Fixed reference work that calibrates timed commands against the host.

The benchmark runs on a shared host whose speed drifts by tens of percent
over minutes, faster than a run can average out: a slow phase makes the
program and any other code slower alike. For a workload of short commands,
the run times this reference work before every timed command and once after
the last, and scales the command's wall time by REF_NOMINAL_S over the mean
of the reference times on either side: the time the command would have
taken had the host run the reference in REF_NOMINAL_S. That moves when the
program gets faster or slower, and far less when the host does. A pass
takes about 0.25 s, so it samples the host's speed only around a command of
about a second; beside a command of many seconds it adds noise instead.

The pass mixes the kinds of work mlc does: Python-level CSV parsing into
float lists (interpreter and allocator), float formatting and parsing, and a
BLAS matrix product on every core BLAS may use. It depends only on Python
and numpy, never on mlc, so no change to mlc changes it, and its inputs are
fixed, so every run times the same work. It runs in a child process of its
own (`ReferenceProcess`), one request at a time while the benchmark waits, so
its 30 MB never count in the run's peak memory nor disturb how the
allocator serves mlc.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

CSV_ROWS = 2500
CSV_COLS = 80
FLOATS = 50_000
MATRIX = 1024
# the scale of calibrated times: about one pass on the 2-core host the
# bounds in BENCHMARK.json were set on
REF_NOMINAL_S = 0.25


class Reference:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.csv = "\n".join(
            ",".join(repr(float(v)) for v in row) for row in rng.normal(size=(CSV_ROWS, CSV_COLS))
        )
        self.floats = rng.normal(size=FLOATS).tolist()
        self.matrix = rng.normal(size=(MATRIX, MATRIX))

    def work(self) -> float:
        rows = [[float(c) for c in line.split(",")] for line in self.csv.split("\n")]
        parsed = float(np.asarray(rows).sum())
        formatted = sum(float(s) for s in [repr(v) for v in self.floats])
        product = float((self.matrix @ self.matrix).sum())
        return parsed + formatted + product

    def time_pass(self) -> float:
        """Wall seconds of one pass of the reference work."""
        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start


def calibrated_walls(commands: list[tuple[float, float]], closing_ref_s: float) -> list[float]:
    """Each command's wall time scaled by REF_NOMINAL_S over the mean
    reference time on either side of it.

    `commands` holds (reference time before the command, command wall time)
    in the order they ran; `closing_ref_s` is the time after the last one.
    """
    after = [ref for ref, _ in commands[1:]] + [closing_ref_s]
    return [wall * REF_NOMINAL_S / ((ref + nxt) / 2.0) for (ref, wall), nxt in zip(commands, after)]


class ReferenceProcess:
    """`Reference.time_pass` served by a child process; use it as a context manager."""

    def __init__(self) -> None:
        self.child = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)

    def time_pass(self) -> float:
        self.child.stdin.write("\n")
        self.child.stdin.flush()
        line = self.child.stdout.readline()
        if not line:
            raise RuntimeError(f"reference process ended with {self.child.wait()}")
        return float(line)

    def close(self) -> None:
        """End the child (it exits when its input closes) and wait for it."""
        try:
            self.child.stdin.close()
            self.child.wait(timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            self.child.kill()
            self.child.wait()
        self.child.stdout.close()

    def __enter__(self) -> ReferenceProcess:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    """Child side: for each line on stdin, print `time_pass()`."""
    reference = Reference()
    reference.time_pass()  # warm-up
    for _ in sys.stdin:
        print(repr(reference.time_pass()), flush=True)


if __name__ == "__main__":
    serve()
