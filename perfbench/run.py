#!/usr/bin/env python3
"""Repo benchmark: build lmcbench from source, run one workload, report.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds the harness and the
checker libraries into .bench_build/ (Release); later calls only check the
build is current. The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end set, with
--trace 1 its per_layer set. Exit status is 0 only when every check of the
run passed; a build or set-up failure exits non-zero without a result.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "lmcbench"
BINARY = BUILD / "lmcbench"
WORKLOADS = ("paxos55_sweep", "paxos_online", "zoo_specs")
RUN_TIMEOUT_S = 170


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build only the lmcbench target and its libraries."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no checker sources under {ROOT / 'src'}; run from a full checkout")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD.parent / "lmcbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "lmcbench", "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                tail = log.read_text().splitlines()[-30:]
                die("build failed:\n" + "\n".join(tail), 1)


def environment():
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True).stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "examples/zoo", "perfbench"):
        for f in sorted((ROOT / top).rglob("*")):
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return {"commit": commit or "unknown", "source_sha256": digest.hexdigest()[:16]}


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def spans_file(args):
    """Where a traced run writes its spans, one JSON line per span."""
    return BUILD.parent / "spans" / f"{args.workload}-seed{args.seed}.jsonl"


def run_harness(args):
    if args.trace:
        spans_file(args).parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.short:
        cmd.append("--short")
    if args.heldout:
        cmd.append("--heldout")
    if args.items:
        cmd += ["--items", args.items]
    if args.trace:
        cmd += ["--spans", str(spans_file(args))]
    # lmcbench forks one child per pass: give it its own process group so a
    # timeout stops the children too.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    sys.stderr.write(err)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die(f"lmcbench exited with {proc.returncode}", 1)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def identity_drift(args, res):
    """Compare this run's work counters with the first run of the same build."""
    key = hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]
    tag = (f"{args.workload}-{key}-{args.items or 'default'}-{int(args.heldout)}"
           f"-{int(args.short)}")
    path = BUILD.parent / "identity" / f"{tag}.txt"
    if path.is_file():
        first = path.read_text()
        if first != res["identity"]:
            return [f"counters differ from the first run of this build: {first}"]
        return []
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(res["identity"])
    return []


def report(args, res):
    """Print the human summary and the result line; return the exit status."""
    problems = identity_drift(args, res)
    metrics = res["per_layer"] if args.trace else res["end_to_end"]
    want = expected_metrics(args.trace)
    got = {k: v["unit"] for k, v in metrics.items()}
    if got != want:
        die(f"emitted metrics {sorted(got.items())} do not match BENCHMARK.json "
            f"{sorted(want.items())}", 1)
    env = dict(res["env"], **environment())
    print("# env: " + json.dumps(env, sort_keys=True))
    print(f"# {res['workload']}: {res['passes']} untraced + {res['traced_passes']} traced "
          f"pass(es), {res['checks']} checks, {res['failed_checks']} failed")
    print(f"# counters: {res['identity']}")
    for name, m in res["end_to_end"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print("# verdict_s per untraced pass: " + " ".join(f"{v:.4g}" for v in res["pass_verdict_s"]))
    print("# peak_rss_mb per untraced pass: " + " ".join(f"{v:.4g}" for v in res["pass_rss_mb"]))
    tail = res["check_s.tail"]
    if tail:
        print(f"# check_s.tail = {tail['value']:.6g} s (p{tail['pct']:.3g} of "
              f"{tail['samples']} checks)")
    else:
        print("# check_s.tail omitted: fewer than 11 checks")
    if args.trace:
        for name, m in res["per_layer"].items():
            print(f"# {name} = {m['value']:.6g} {m['unit']}")
        print(f"# spans: {spans_file(args).relative_to(ROOT)}")
        if res["explore.wall_s"] is not None:
            print(f"# explore.wall_s = {res['explore.wall_s']:.6g} s (run - sweep - drain)")
        else:
            print("# explore.wall_s not derived: ledger.overlap_s > 0")
    problems += [f"{res['drift']} counter drift(s) inside the run"] if res["drift"] else []
    for p in problems:
        print(f"perfbench: DRIFT: {p}", file=sys.stderr)
    failed = res["failed_checks"] + len(problems)
    correct = failed == 0
    out = {"correct": correct, "attempted": max(1, res["checks"], failed), "failed": failed,
           "metrics": metrics}
    print(json.dumps(out))
    return 0 if correct else 1


def self_test():
    """Each workload once at minimal size, both modes: names, units, verdicts."""
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=w, seed=1, seconds=0, trace=trace, short=True,
                                      heldout=False, items=None)
            res = run_harness(args)
            metrics = res["per_layer"] if trace else res["end_to_end"]
            got = {k: v["unit"] for k, v in metrics.items()}
            good = (got == expected_metrics(trace) and res["failed_checks"] == 0
                    and res["drift"] == 0 and res["checks"] > 0)
            ok = ok and good
            print(f"self-test {w} trace={trace}: {'ok' if good else 'FAILED'} "
                  f"({res['checks']} checks, {len(got)} metrics)")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float,
                    default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--heldout", action="store_true", help="use the held-out item lists")
    ap.add_argument("--items", help="comma-separated live seeds or zoo spec names")
    ap.add_argument("--short", action="store_true", help="minimal-size workload")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not args.self_test and not args.workload:
        ap.error("--workload is required")
    build()
    if args.self_test:
        return self_test()
    return report(args, run_harness(args))


if __name__ == "__main__":
    sys.exit(main())
