"""End-to-end and per-layer benchmark of the mlc pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-m3 --seed 1 --seconds 40 --trace 0

Workloads: train-m3, scale-predict, eval-fuse (see perfbench/README.md);
`--workload all` runs the three one after another, each in its own process.
mlc is imported from ./src and driven in-process through `mlc.cli.main`.
With --trace 0 the run reports the end-to-end metrics (setup_s, items_per_s,
map, peak_rss_mb; eval-fuse calibrates its command times against the fixed
work in perfbench/reference.py); with --trace 1 it alternates untraced and traced
repetitions and reports the per-layer metrics. Human-readable lines come
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. A full record (environment, digests, checks,
and with --trace 1 the spans) is written under ./.perfbench/results/.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_REPEATS = 3  # set-ups per run; setup_s takes their median
MIN_REPS = 3  # timed repetitions per run, at least; the median drops one slow outlier


def limit_blas_threads() -> int:
    """Cap BLAS/OpenMP threads at the CPUs this process may use; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        os.environ[var] = str(max(1, min(wanted, nproc)))
    return nproc


def import_mlc(root: Path):
    """Import mlc from the checkout's src/, never from anywhere else."""
    src = root / "src"
    if not (src / "mlc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mlc package under {src}; run from the root of a checkout")
    sys.path.insert(0, str(src))
    import mlc.cli
    import mlc.kernels

    if Path(mlc.__file__).resolve().parent != (src / "mlc").resolve():
        raise SystemExit(f"perfbench: imported mlc from {mlc.__file__}, not from {src}")
    return mlc


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(mlc, nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "backend": mlc.kernels.BACKEND,
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "blas_thread_env": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": nproc,
        "python": platform.python_version(),
    }


class Bench:
    """Runs mlc commands in-process and counts operations and failures."""

    def __init__(self, cli, tracer) -> None:
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        # while timing: a ReferenceProcess timed before every command, unless
        # the previous repetition's closing time is pending, or None for an
        # uncalibrated workload; the (reference time or 0, command wall) pairs
        # of the current repetition; and the CPU seconds of its commands
        self.reference = None
        self.pending_ref_s = None
        self.timing = False
        self.commands: list[tuple[float, float]] = []
        self.command_cpu_s = 0.0

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def mlc(self, command: str, *args) -> str | None:
        """Run one `mlc` subcommand; its stdout on exit 0, else None (counted as failed)."""
        argv = [command, *(str(a) for a in args)]
        out, err = io.StringIO(), io.StringIO()
        self.attempted += 1
        ref_s = 0.0
        if self.reference:
            ref_s = self.pending_ref_s or self.reference.time_pass()
            self.pending_ref_s = None
        cpu0, start = cpu_seconds(), time.perf_counter()
        try:
            with self.tracer.span(f"cli.{command}"), contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback from mlc is a failed operation, not a crash
            code = f"{type(exc).__name__}: {exc}"
        if self.timing:
            self.commands.append((ref_s, time.perf_counter() - start))
            self.command_cpu_s += cpu_seconds() - cpu0
        if code != 0:
            self._fail(f"mlc {' '.join(argv)} -> {code} {err.getvalue().strip()}")
            return None
        return out.getvalue()

    def check(self, name: str, predicate) -> bool:
        self.attempted += 1
        try:
            ok = bool(predicate())
        except Exception as exc:
            ok, name = False, f"{name} ({type(exc).__name__}: {exc})"
        if not ok:
            self._fail(f"check failed: {name}")
        return ok


def tree_digest(d: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in d.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(d)).encode() + b"\0" + hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def run(args, root: Path, nproc: int) -> dict:
    mlc = import_mlc(root)
    import_s = time.perf_counter() - PROCESS_START

    import layers
    from reference import ReferenceProcess, calibrated_walls
    from tracer import Tracer, one_pass
    from workloads import WORKLOADS, sha256

    env = environment(mlc, nproc)
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer()
    bench = Bench(mlc.cli, tracer)
    targets = layers.targets(mlc)

    def tracing(on: bool):
        return tracer.installed(targets) if on else contextlib.nullcontext()

    work = root / ".perfbench" / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        # -- set-up, several times; the first copy is the one the run uses
        setup_walls, setup_digests = [], []
        for k in range(SETUP_REPEATS):
            d = work / f"setup{k}"
            d.mkdir(parents=True)
            tracer.phase, tracer.rep = "setup", k
            failed_before = bench.failed
            start = time.perf_counter()
            with tracing(bool(args.trace)):
                workload.setup(bench, d)
            setup_walls.append(time.perf_counter() - start)
            if bench.failed > failed_before:
                raise SystemExit("perfbench: set-up failed:\n  " + "\n  ".join(bench.failures))
            setup_digests.append(tree_digest(d))
            if k:
                shutil.rmtree(d)
        inputs = work / "setup0"
        bench.check("repeated set-ups are bit-identical", lambda: len(set(setup_digests)) == 1)

        # -- timed repetitions; with --trace 1 every second one is traced.
        # A calibrated workload times the reference work before each command
        # and after the last one.
        out = work / "out"
        out.mkdir()
        reps = []
        calibrated = workload.calibrated
        with ReferenceProcess() if calibrated else contextlib.nullcontext() as reference:
            bench.reference, bench.timing = reference, True
            if calibrated:
                reference.time_pass()  # returns once the child has started and warmed up
            timed_start = time.perf_counter()
            while True:
                r = len(reps)
                is_traced = bool(args.trace) and r % 2 == 1
                tracer.phase, tracer.rep = "timed", r
                bench.commands, bench.command_cpu_s = [], 0.0
                rep_start = time.perf_counter()
                with tracing(is_traced):
                    workload.rep(bench, inputs, out)
                    # wall and CPU time of the commands, without the reference passes
                    wall, cpu = sum(w for _, w in bench.commands), bench.command_cpu_s
                    tracer.add("process.cpu_s", cpu)
                    tracer.add("process.wall_s", wall)
                closing_ref_s = None
                if calibrated:
                    closing_ref_s = bench.reference.time_pass()
                    bench.pending_ref_s = closing_ref_s  # opens the next repetition
                digests = {p.name: sha256(p) if p.is_file() else None for p in workload.outputs(out)}
                reps.append({"wall_s": wall, "cpu_s": cpu, "traced": is_traced, "digests": digests,
                             "duration_s": time.perf_counter() - rep_start,
                             "commands": bench.commands, "closing_ref_s": closing_ref_s,
                             "calibrated": calibrated_walls(bench.commands, closing_ref_s)
                             if calibrated else [w for _, w in bench.commands]})
                elapsed = time.perf_counter() - timed_start
                typical = statistics.median(rep["duration_s"] for rep in reps)
                if len(reps) >= MIN_REPS and elapsed + typical > args.seconds:
                    break
            bench.reference, bench.pending_ref_s, bench.timing = None, None, False
        bench.check(
            "every timed repetition (traced or not) writes the same bytes",
            lambda: all(rep["digests"] == reps[0]["digests"] for rep in reps),
        )

        # -- output checks and quality, after timing
        tracer.phase, tracer.rep = "check", 0
        with tracing(bool(args.trace)):
            map_ = workload.final(bench, inputs, out)
        setup_files = {p.name: sha256(p) for p in sorted(inputs.iterdir()) if p.is_file()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def wall_ips(rows):
        """Wall-clock items per second: items over the median repetition wall time."""
        return workload.items_per_rep / statistics.median(rep["wall_s"] for rep in rows)

    def ips(rows):
        """Items per second: items over the sum, across the commands of a
        repetition, of each command's median (calibrated, if the workload
        is) time over the repetitions."""
        per_command = zip(*(rep["calibrated"] for rep in rows))
        return workload.items_per_rep / sum(statistics.median(c) for c in per_command)

    untraced = [rep for rep in reps if not rep["traced"]]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": env,
        "import_s": import_s,
        "setup_walls_s": setup_walls,
        "items_per_rep": workload.items_per_rep,
        "calibrated": workload.calibrated,
        "ref_pass_s": statistics.median(ref for rep in reps for ref, _ in rep["commands"]),
        "reps": reps,
        "digests": {"setup_tree": setup_digests[0], **setup_files, **reps[0]["digests"]},
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
    }
    if args.trace:
        totals = one_pass(tracer.spans, tracer.counts)
        # the first repetition runs cold and is left out of the comparison
        traced_ips, untraced_ips = ips([rep for rep in reps if rep["traced"]]), ips(untraced[1:])
        metrics = layers.per_layer_metrics(totals, tracer.unobserved, {
            "trace.overhead_frac": 1.0 - traced_ips / untraced_ips,
            "process.wall_items_per_s": wall_ips(untraced[1:]),
            "process.ref_pass_s": record["ref_pass_s"],
        })
        record.update(unobserved=tracer.unobserved, layer_totals=totals,
                      items_per_s_untraced=untraced_ips, items_per_s_traced=traced_ips)
        record["spans"] = tracer.spans
    else:
        record["wall_items_per_s"] = wall_ips(untraced)
        metrics = {
            "setup_s": (import_s + statistics.median(setup_walls), "s"),
            "items_per_s": (ips(untraced), "items/s"),
            "map": (map_, "fraction"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    record["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    return record


def report(record: dict) -> None:
    env = record["environment"]
    print(f"perfbench {record['workload']} seed={record['seed']} trace={record['trace']} "
          f"backend={env['backend']} numpy={env['numpy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']} nproc={env['nproc']} python={env['python']}")
    print(f"  {len(record['reps'])} timed repetitions of {record['items_per_rep']} items, "
          f"{len(record['setup_walls_s'])} set-ups, "
          + (f"calibrated (median reference pass {record['ref_pass_s']:.4f} s)"
             if record["calibrated"] else "uncalibrated"))
    if "wall_items_per_s" in record:
        print(f"  {'(uncalibrated) wall_items_per_s':<40} {record['wall_items_per_s']:>14.6g} items/s")
    for name, m in record["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"  {'failed_frac':<40} {failed / attempted:>14.6g} fraction "
          f"({failed} of {attempted} operations failed)")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")
    if record.get("unobserved"):
        print(f"  unobserved layers: {', '.join(record['unobserved'])}")


def run_all(args) -> int:
    """Run every workload, each in its own process, and print one combined result."""
    import subprocess

    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(f"perfbench: {name} exited with {child.returncode}", file=sys.stderr)
            return child.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main() -> int:
    # on SIGTERM, unwind like an exception: scratch files are removed and the
    # reference process is ended and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    nproc = limit_blas_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one after another")
    parser.add_argument("--seed", required=True, type=int, help="seed the inputs are made from")
    parser.add_argument("--seconds", required=True, type=float, help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from traced repetitions")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)

    root = Path.cwd()
    record = run(args, root, nproc)

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = record.pop("spans", None)
    if spans is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    report(record)
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
