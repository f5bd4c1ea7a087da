#!/usr/bin/env bash
# Host-path benchmark history: run `emdpa run --csv` over a fixed matrix and
# append one JSON row per run to BENCH_host.json.
#
#   tools/bench_host.sh [--emdpa PATH] [--out FILE] [--commit SHA] [--label TEXT]
#
# Matrix: the list kernel at 8,000, 103,823 and 1,000,000 atoms and the N^2
# kernel at 8,000 and 103,823 atoms (N^2 at 1M would take hours), each at 1
# and 4 threads, 20 steps of the default LJ fluid in double precision.  Each
# configuration runs five times and its row is the run with the lowest
# host_wall, with all five walls beside it: on a shared VM the neighbours
# and the hypervisor only ever add time, and can double one run's wall.  A
# row keeps host_wall, every phase_* and list_* metadata key, the run's
# peak RSS in MiB (ru_maxrss of that child, via wait4; perfbench's
# peak_rss_mb is in units of 1e6 bytes), and a fingerprint: commit, label,
# dispatched ISA, nproc, and steal — the share of the machine's CPU time the
# hypervisor took during the run.  Runs offline; builds nothing.  Point
# --emdpa at a binary built from the commit named by --commit (default: the
# checkout's HEAD) and keep the build type the same across commits.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
emdpa="$root/build/tools/emdpa"
out="$root/BENCH_host.json"
commit=""
label=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --emdpa) emdpa="$2"; shift 2 ;;
    --out) out="$2"; shift 2 ;;
    --commit) commit="$2"; shift 2 ;;
    --label) label="$2"; shift 2 ;;
    *) echo "bench_host.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
[[ -x "$emdpa" ]] || { echo "bench_host.sh: no emdpa binary at $emdpa" >&2; exit 2; }
if [[ -z "$commit" ]]; then
  commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi

exec python3 - "$emdpa" "$out" "$commit" "$label" <<'PY'
import json, os, subprocess, sys

emdpa, out, commit, label = sys.argv[1:5]
MATRIX = [("list", 8000), ("list", 103823), ("list", 1000000),
          ("n2", 8000), ("n2", 103823)]
THREADS = (1, 4)
STEPS = 20
REPEATS = 5


def cpu_ticks():
    """(steal, total) clock ticks of the machine's aggregate "cpu" line."""
    with open("/proc/stat") as f:
        fields = [float(x) for x in f.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0.0), sum(fields)


def run(kernel, atoms, threads):
    cmd = [emdpa, "run", "--backend", "host-parallel", "--kernel", kernel,
           "--atoms", str(atoms), "--steps", str(STEPS), "--threads",
           str(threads), "--csv"]
    steal0, total0 = cpu_ticks()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            text=True)
    text = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    steal1, total1 = cpu_ticks()
    if proc.returncode != 0:
        sys.exit("bench_host.sh: '%s' exited %d" % (" ".join(cmd), proc.returncode))
    row = {"commit": commit, "label": label, "kernel": kernel, "atoms": atoms,
           "threads": threads, "steps": STEPS, "nproc": os.cpu_count(),
           "steal": round((steal1 - steal0) / max(total1 - total0, 1.0), 4),
           "peak_rss_mib": round(usage.ru_maxrss / 1024, 1)}
    metadata = {}
    for line in text.splitlines():
        cells = line.split(",")
        if cells[0] == "breakdown:host_wall":
            row["host_wall_s"] = float(cells[3])
        elif cells[0] == "metadata:simd_isa":
            row["isa"] = cells[-1]
        elif cells[0].startswith(("metadata:phase_", "metadata:list_")):
            metadata[cells[0][len("metadata:"):]] = float(cells[-1])
    row["metadata"] = dict(sorted(metadata.items()))
    return row


history = {"rows": []}
if os.path.exists(out):
    with open(out) as f:
        history = json.load(f)
for kernel, atoms in MATRIX:
    for threads in THREADS:
        runs = sorted((run(kernel, atoms, threads) for _ in range(REPEATS)),
                      key=lambda r: r["host_wall_s"])
        row = runs[0]
        row["host_wall_s_runs"] = [r["host_wall_s"] for r in runs]
        history["rows"].append(row)
        print("%-4s %8d atoms %d threads: host_wall %.3f s, peak RSS %.1f MiB"
              % (kernel, atoms, threads, row["host_wall_s"], row["peak_rss_mib"]),
              file=sys.stderr)
with open(out, "w") as f:
    json.dump(history, f, indent=1)
    f.write("\n")
PY
