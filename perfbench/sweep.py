"""Run the benchmark over several seeds and summarise the spread.

Run from the repository root:

    python3 perfbench/sweep.py --seeds 1-10 --trace 0
    python3 perfbench/sweep.py --workloads purify-64 --seeds 1-5 --trace 0
    python3 perfbench/sweep.py --seeds 1-10 --trace 0 --trace-seeds 1-3 \
        --out perfbench/results.json

For every workload and metric it prints the median, the quartiles as
statistics.quantiles(values, n=4) gives them, p10/p90 and n, and for
end-to-end metrics the interquartile spread as a share of the median
next to a third of the metric's bound from BENCHMARK.json. --out
writes all of it, the raw values and the environment to a JSON file.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} failed ({out.returncode}):\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    env = next((l for l in lines if l.startswith("env ")), "")
    return json.loads(lines[-1]), env, time.time() - t0


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    dec = statistics.quantiles(values, n=10) if len(values) > 1 else (values[0],) * 9
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "p10": dec[0], "p90": dec[-1], "n": len(values),
            "spread": (q3 - q1) / abs(statistics.median(values)) if statistics.median(values) else None}


def sweep(bench, workloads, seeds, trace):
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    wanted = bench["per_layer" if trace else "end_to_end"]
    out, env = {}, ""
    for w in workloads:
        vals, fails, secs = {}, 0, []
        for s in seeds:
            res, env, dt = run_once(bench, w, s, trace)
            secs.append(dt)
            if not res["correct"] or res["failed"]:
                fails += 1
            for name, m in res["metrics"].items():
                vals.setdefault(name, []).append(m["value"])
            print(f"  {w} seed {s}: {dt:.1f}s", file=sys.stderr)
        rows = {}
        for m in wanted:
            v = vals.get(m["name"], [])
            row = summary(v) if v else {"n": 0}
            row.update(unit=m["unit"], values=v)
            rows[m["name"]] = row
            mark = ""
            b = bounds.get(m["name"])
            if b and row.get("spread") is not None:
                mark = "ok" if row["spread"] < b / 3 else "WIDE"
                if m["name"] == "setup_s":
                    mark += " (spread not gated)"
            print(f"{w:12s} {m['name']:30s} median {row.get('median', float('nan')):12.6g} "
                  f"q1 {row.get('q1', float('nan')):12.6g} q3 {row.get('q3', float('nan')):12.6g} "
                  f"spread {row.get('spread') or 0:7.4f} bound/3 {(b or 0) / 3:6.4f} {mark}")
            if not trace:
                print("   ", " ".join(f"{x:.6g}" for x in v))
        if fails:
            print(f"{w}: {fails} of {len(seeds)} runs reported failed calls")
        out[w] = {"metrics": rows, "run_wall_s": summary(secs)}
    return out, env


def environment(env_line):
    env = dict(kv.split("=", 1) for kv in env_line.split()[1:])
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True).stdout.strip()
    except OSError:
        commit = ""
    cpu = ""
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    return {"commit": commit, "cpu": cpu, "nproc": os.cpu_count(), "gomaxprocs": int(env.get("gomaxprocs", 0)),
            "gemm_threads": int(env.get("gemm_threads", 0)), "go": env.get("go", ""),
            "os": platform.platform(), "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default="", help="comma-separated; default all in BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--trace-seeds", default="", help="also sweep the traced run over these seeds")
    ap.add_argument("--out", default="")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    e2e, env = sweep(bench, names, seed_range(args.seeds), args.trace)
    layers = {}
    if args.trace_seeds:
        layers, _ = sweep(bench, names, seed_range(args.trace_seeds), 1)
    if args.out:
        doc = {"environment": environment(env), "command": bench["command"],
               "run_seconds": bench["run_seconds"], "seeds": args.seeds,
               "workloads": {w: {"why": why.get(w, ""),
                                 "end_to_end" if args.trace == 0 else "per_layer": e2e[w]["metrics"],
                                 "run_wall_s": e2e[w]["run_wall_s"]} for w in names}}
        for w in layers:
            doc["workloads"][w]["per_layer"] = layers[w]["metrics"]
            doc["workloads"][w]["trace_seeds"] = args.trace_seeds
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
