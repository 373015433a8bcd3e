"""Run one workload over several seeds and report each metric's median and spread.

From the root of a checkout:

    python3 perfbench/spread.py --workload scale-predict --seeds 1-10 --save a.json
    python3 perfbench/spread.py --workload scale-predict --seeds 1-10 --against a.json

For every end-to-end metric it prints the median, the quartiles, the spread
(interquartile distance over the median) and the metric's bound from
BENCHMARK.json. With --against it also prints how far the median moved from
an earlier set in the metric's worse direction, as a share of that median.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracer import quartiles, relative_spread

RUN = Path(__file__).resolve().parent / "run.py"


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def collect(workload: str, seeds: list[int], seconds: float, trace: int) -> dict[str, list[float]]:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        if child.returncode != 0:
            raise SystemExit(f"seed {seed}: exit {child.returncode}")
        result = json.loads(child.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: {result['failed']} of {result['attempted']} operations failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v[-1]:.6g}" for k, v in values.items()), flush=True)
    return values


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range such as 1-10")
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", type=Path, help="write the values to this JSON file")
    parser.add_argument("--against", type=Path, help="values saved by an earlier --save")
    args = parser.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    values = collect(args.workload, seed_list(args.seeds), seconds, args.trace)
    if args.save:
        args.save.write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    earlier = json.loads(args.against.read_text(encoding="utf-8")) if args.against else {}
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"{args.workload}: {len(seed_list(args.seeds))} runs, --seconds {seconds}")
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        bound = metrics.get(name, {}).get("bound")
        line = (f"  {name:<34} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                f"spread {relative_spread(vals) if med else float('nan'):.4f}")
        if bound is not None:
            line += f" bound {bound}"
        if name in earlier:
            before = quartiles(earlier[name])[1]
            worse = (med - before) / before
            if metrics[name]["better"] == "higher":
                worse = -worse
            line += f" worse-by {worse:+.4f}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
