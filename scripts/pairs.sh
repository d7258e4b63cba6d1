#!/bin/sh
# Interleaved parent/change pairs of one repo-benchmark workload: the
# measurement every wall-clock claim here is stated in (choosing-metrics
# §8; EXPERIMENTS.md "Convert a fragment once").
#
#   scripts/pairs.sh PARENT_BIN CHANGE_BIN WORKLOAD [N] [SECONDS] [SEED]
#
# PARENT_BIN / CHANGE_BIN are two copies of
# benchmark/target/release/benchmark, built once from the parent commit
# and from the change (the same binary twice is an A/A run; CI does
# that). N pairs (default 10) of `--workload WORKLOAD --seconds SECONDS
# --trace 0` runs (default 16 s, the benchmark's own run length) are
# made, alternating which side goes first. SEED defaults to the
# benchmark's.
#
# Per run it prints the five end-to-end metrics, `correct` / `failed`,
# whether the run's `exact:` line equals the first run's (the model did
# not move), and the child's user and sys CPU seconds and minor page
# faults. Then, per metric, each side's median and quartiles, the ratio
# of the medians and the pairs the change won (ties count for neither).
# Exit status 1 if any run was incorrect, failed an op, or printed a
# different `exact:` line.
#
# Box mode. The boxes this runs on flip between two speeds ~25 % apart
# on compute-bound work and far more on memory-bound work. Before each
# run a calibration of at most 0.3 s stamps the mode: `spin_ns`, the
# median ns per iteration of a fixed pure-Python loop, and `copy_gbps`,
# the best of three 64 MiB `bytearray` slice copies. Both print per
# run, and their per-side medians in the summary; two sides measured in
# different modes show two different stamps.
#
# Read the faults column before believing a swing. `cells_cold` builds
# nine fresh sessions an op; their large buffers are recycled through
# `memsim::shelf`, so a run takes ~9 k minor faults and almost no sys
# time, under either launcher. (Before the shelf every buffer went back
# to glibc, and the early heap layout — down to the environment the
# process was started with — picked one of two allocator modes ~25 %
# apart, differing 5–10× in faults.) A jump in faults or sys seconds on
# any workload means its buffers reach the allocator again. The runs are
# started through `/bin/sh -c`, as from a prompt; PAIRS_LAUNCHER=direct
# starts them straight from the Python driver, a different environment
# block, to check that a reading does not depend on it.
set -eu
if [ $# -lt 3 ] || [ $# -gt 6 ]; then
    sed -n '2,7p' "$0" >&2
    exit 2
fi
exec python3 - "$@" <<'PY'
import json, os, resource, statistics, subprocess, sys, tempfile, time

parent, change, workload = sys.argv[1:4]
pairs = int(sys.argv[4]) if len(sys.argv) > 4 else 10
seconds = sys.argv[5] if len(sys.argv) > 5 else "16"
seed = sys.argv[6] if len(sys.argv) > 6 else None
launcher = os.environ.get("PAIRS_LAUNCHER", "sh")
assert launcher in ("sh", "direct"), "PAIRS_LAUNCHER is sh or direct"
assert pairs >= 1

# name, unit, +1 if higher is better
METRICS = [("ops_per_s", "1/s", 1), ("op_ms_p50", "ms", -1), ("cpu_ms_per_op", "ms", -1),
           ("setup_s", "s", -1), ("peak_rss_mb", "MiB", -1)]

SPIN, COPY = 100_000, 64 << 20

def calibrate():
    """(ns per iteration of a fixed Python loop, GB/s of a 64 MiB copy)."""
    spins = []
    for _ in range(3):
        t = time.perf_counter_ns()
        x = 0
        for i in range(SPIN):
            x += i ^ 3
        spins.append((time.perf_counter_ns() - t) / SPIN)
    src, dst = bytearray(COPY), bytearray(COPY)
    dst[:] = src  # first touch of both buffers, untimed
    best = None
    for _ in range(3):
        t = time.perf_counter_ns()
        dst[:] = src
        ns = time.perf_counter_ns() - t
        best = ns if best is None else min(best, ns)
    return statistics.median(spins), COPY / best

def run(binary):
    spin_ns, copy_gbps = calibrate()
    args = [os.path.abspath(binary), "--workload", workload, "--seconds", seconds, "--trace", "0"]
    if seed is not None:
        args += ["--seed", seed]
    if launcher == "sh":
        args = ["/bin/sh", "-c", 'exec "$0" "$@"'] + args
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    with tempfile.TemporaryFile("w+") as out:
        code = subprocess.run(args, stdin=subprocess.DEVNULL, stdout=out,
                              stderr=subprocess.DEVNULL).returncode
        out.seek(0)
        lines = out.read().splitlines()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    assert lines, f"{binary}: no output (exit {code})"
    result = json.loads(lines[-1])
    row = {name: result["metrics"][name]["value"] for name, _, _ in METRICS}
    row.update(
        correct=result["correct"], failed=result["failed"], exit=code,
        exact=next((l for l in lines if l.startswith("exact:")), None),
        user=after.ru_utime - before.ru_utime, sys=after.ru_stime - before.ru_stime,
        minflt=after.ru_minflt - before.ru_minflt, spin_ns=spin_ns, copy_gbps=copy_gbps)
    return row

print(f"# pairs.sh workload={workload} pairs={pairs} seconds={seconds} "
      f"seed={seed or 'default'} launcher={launcher} cores={os.cpu_count()}")
print(f"# parent={parent}\n# change={change}")
print("pair side   " + " ".join(f"{n:>13}" for n, _, _ in METRICS)
      + " correct failed  exact   user_s    sys_s    minflt spin_ns copy_gbps")
rows = {"parent": [], "change": []}
reference, clean = None, True
for i in range(pairs):
    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    for side in order:
        r = run(parent if side == "parent" else change)
        reference = reference or r["exact"]
        same = r["exact"] is not None and r["exact"] == reference
        clean &= same and r["correct"] and r["failed"] == 0 and r["exit"] == 0
        rows[side].append(r)
        print(f"{i + 1:4d} {side:6s} " + " ".join(f"{r[n]:13.4f}" for n, _, _ in METRICS)
              + f" {str(r['correct']):>7s} {r['failed']:6d} {'same' if same else 'DIFF':>6s}"
              + f" {r['user']:8.2f} {r['sys']:8.2f} {r['minflt']:9d}"
              + f" {r['spin_ns']:7.1f} {r['copy_gbps']:9.2f}", flush=True)

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

print("\nmetric             parent median [q1, q3]            change median [q1, q3]"
      "      change/parent  pairs won by change")
for name, unit, better in METRICS + [("user", "s", -1), ("sys", "s", -1), ("minflt", "", -1)]:
    p, c = [r[name] for r in rows["parent"]], [r[name] for r in rows["change"]]
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    won = sum(1 for a, b in zip(p, c) if (b - a) * better > 0)
    lost = sum(1 for a, b in zip(p, c) if (b - a) * better < 0)
    ratio = f"{cm / pm:8.3f}x" if pm else "      n/a"
    print(f"{name:14s} {pm:12.4f} [{p1:11.4f},{p3:11.4f}] {cm:12.4f} [{c1:11.4f},{c3:11.4f}]"
          f"  {ratio}  {won}/{pairs} (lost {lost}) {unit}")
print("\nbox mode       parent median [q1, q3]            change median [q1, q3]")
for name, unit in [("spin_ns", "ns/iter"), ("copy_gbps", "GB/s")]:
    (p1, pm, p3), (c1, cm, c3) = (quartiles([r[name] for r in rows[side]])
                                  for side in ("parent", "change"))
    print(f"{name:14s} {pm:12.4f} [{p1:11.4f},{p3:11.4f}] {cm:12.4f} [{c1:11.4f},{c3:11.4f}]  {unit}")
print("\nexact: lines " + ("identical in every run" if clean else "DIFFER, or a run was incorrect / failed ops"))
sys.exit(0 if clean else 1)
PY
