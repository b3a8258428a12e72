"""netmod end-to-end pipeline benchmark: the one command.

Driver form (what ``BENCHMARK.json``'s ``command`` runs)::

    python3 benchmarks/e2e/run.py --workload netmod-steady --seed 1 \\
        --seconds 12 --trace 0

prints every metric as a ``name unit value`` line and, as the last line
of stdout, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.

Without ``--workload`` it runs the whole set — every workload untraced,
then traced — and ends with one JSON document that carries an
environment fingerprint (also written to ``benchmarks/e2e/out/``).
``--repeat 2`` runs the set twice and compares the two against the
bounds in ``BENCHMARK.json``; ``--spread 10`` runs ten seeds untraced
and prints each metric's interquartile spread against its bound;
``--smoke`` is the same code over 1/20 of the rows for 10 rounds.

Each workload runs in a fresh worker process with ``PYTHONHASHSEED=0``.
The exit code is non-zero when any operation or correctness check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"
WORKER_TIMEOUT_S = 170
SMOKE_DIVISOR, SMOKE_ROUNDS = 20, 10


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def run_worker(args, workload: str, seed: int, trace: int) -> dict:
    """One workload in a fresh interpreter; returns the worker's document.
    Raises CalledProcessError / TimeoutExpired when the worker dies."""
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        command += ["--scale-divisor", str(SMOKE_DIVISOR),
                    "--rounds", str(SMOKE_ROUNDS)]
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          check=True, timeout=WORKER_TIMEOUT_S, text=True)
    return json.loads(done.stdout.splitlines()[-1])


def print_metrics(result: dict) -> None:
    print(f"# {result['workload']} seed={result['seed']} "
          f"trace={result['trace']} rounds={result['rounds']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['unit']} {metric['value']:.6g}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")


def fingerprint() -> dict:
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"  # the driver's checkout is not a git repository
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu,
            "loadavg_at_start": os.getloadavg()}


def run_set(args, seed: int, traces=(0, 1)) -> list[dict]:
    results = []
    for trace in traces:
        for name in WORKLOADS:
            result = run_worker(args, name, seed, trace)
            print_metrics(result)
            results.append(result)
    return results


def worse_by(metric: dict, first: float, second: float) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``
    (negative when it is better)."""
    change = (second - first) / first
    return change if metric["better"] == "lower" else -change


def compare(spec: dict, first: list[dict], second: list[dict]) -> bool:
    """Print both sets side by side; True when every end-to-end metric
    agrees within its bound in both directions and every count of the
    traced runs is identical (rounds are fixed and the seed is the only
    randomness, so counts must repeat exactly)."""
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    print(f"{'workload':22} {'metric':20} {'run 1':>12} {'run 2':>12} "
          f"{'diff':>8} {'bound':>6}")
    for a, b in zip(first, second):
        for name, metric in a["metrics"].items():
            va, vb = metric["value"], b["metrics"][name]["value"]
            if name in end_to_end:
                bound = end_to_end[name]["bound"]
                diff = max(worse_by(end_to_end[name], va, vb),
                           worse_by(end_to_end[name], vb, va))
                passed = diff <= bound
                print(f"{a['workload']:22} {name:20} {va:12.5g} {vb:12.5g} "
                      f"{diff:8.1%} {bound:6.0%} "
                      f"{'PASS' if passed else 'FAIL'}")
                ok &= passed
            elif metric["unit"] in ("count", "rows", "bytes") and va != vb:
                print(f"{a['workload']:22} {name} not identical: "
                      f"{va} != {vb} FAIL")
                ok = False
    return ok


def spread(spec: dict, args) -> bool:
    """Run ``args.spread`` seeds untraced; print each end-to-end metric's
    interquartile range as a share of its median, against its bound."""
    runs = [run_set(args, args.seed + offset, traces=(0,))
            for offset in range(args.spread)]
    ok = all(result["failed"] == 0 for results in runs for result in results)
    print(f"{'workload':22} {'metric':20} {'median':>12} {'iqr/med':>8} "
          f"{'bound':>6}")
    for index, name in enumerate(WORKLOADS):
        for metric in spec["end_to_end"]:
            values = [results[index]["metrics"][metric["name"]]["value"]
                      for results in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / median
            verdict = ("ok" if share <= metric["bound"] / 3 else
                       "WIDE" if share <= metric["bound"] else "FAIL")
            if metric["name"] != "setup_s":
                ok &= verdict != "FAIL"
            print(f"{name:22} {metric['name']:20} {median:12.5g} "
                  f"{share:8.1%} {metric['bound']:6.0%} {verdict}")
    return ok


def main() -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="cap on the measured phase (default run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, choices=(1, 2), default=1)
    parser.add_argument("--spread", type=int, metavar="SEEDS")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    if args.workload is not None:
        result = run_worker(args, args.workload, args.seed, args.trace)
        print_metrics(result)
        declared = {metric["name"] for metric in
                    spec["per_layer" if args.trace else "end_to_end"]}
        if declared != set(result["metrics"]):
            print("metrics differ from BENCHMARK.json: "
                  f"{sorted(declared ^ set(result['metrics']))}",
                  file=sys.stderr)
            return 2
        correct = result["failed"] == 0
        print(json.dumps({"correct": correct,
                          "attempted": result["attempted"],
                          "failed": result["failed"],
                          "metrics": result["metrics"]}))
        return 0 if correct else 1

    if args.spread:
        return 0 if spread(spec, args) else 1

    document = {"fingerprint": fingerprint(), "seed": args.seed,
                "sets": [run_set(args, args.seed)
                         for __ in range(args.repeat)]}
    ok = all(result["failed"] == 0
             for results in document["sets"] for result in results)
    if args.repeat == 2:
        ok &= compare(spec, *document["sets"])
    document["correct"] = ok
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"results-seed{args.seed}.json", "w",
              encoding="utf-8") as handle:
        json.dump(document, handle, indent=1)
    print(json.dumps(document))
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (subprocess.CalledProcessError,
            subprocess.TimeoutExpired) as failure:
        # The worker's own stderr has the cause (e.g. no engine on the path).
        print(f"worker did not finish: {failure}", file=sys.stderr)
        sys.exit(2)
