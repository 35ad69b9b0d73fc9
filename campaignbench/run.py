#!/usr/bin/env python3
"""Campaign benchmark driver for ddt-explore.

Run from the root of a checkout:

    python3 campaignbench/run.py --workload paper-plain --seed 1 --seconds 25 --trace 0
    python3 campaignbench/run.py --selftest

It builds ddt-explore and the in-process helper (campaignbench/*.go) from
the checkout into .bench_build/, then execs one ddt-explore process per
app per operation, back to back, until --seconds have passed. Every
operation's report is checked against the exact reference in
campaignbench/reference/. With --trace 1 it then runs the same campaign
in-process with spans around each layer call and reports per-layer
metrics. The last line of stdout is the JSON result; NOTES.md documents
the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

BENCH = "campaignbench"
WORKERS = 2
SETUP_REPS = 11
PAPER_APPS = ["Route", "URL", "IPchains", "DRR"]
WORKLOADS = {
    "paper-plain": {"apps": PAPER_APPS, "flags": []},
    "flowmon-cold": {"apps": ["FlowMon"], "flags": ["-compose"]},
    "flowmon-warm": {"apps": ["FlowMon"], "flags": ["-compose"]},
}
# Lines of ddt-explore's report that are not a function of the inputs.
STRIP = ("exploration wall time:", "branch-and-bound:", "simulation cache saved to ")
STATS = re.compile(
    r"engine simulated (\d+), replayed (\d+), composed (\d+), profile-served (\d+), "
    r"cache hits (\d+), early aborts (\d+), bound-pruned (\d+) via (\d+) lane profiles"
)
STATS_KEYS = ["simulated", "replayed", "composed", "profiled", "cache_hits", "aborted", "pruned", "lane_profiles"]
SALVAGE = ("failed its checksum", "ends mid-write", "is unusable", "cannot read cache")


class BenchError(Exception):
    """The benchmark cannot produce a result (build failure, bad checkout)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- setup


def go_env(root):
    """Keep every Go build artifact inside the checkout, and offline."""
    build = os.path.join(root, ".bench_build")
    env = dict(os.environ)
    for k, sub in {"GOCACHE": "gocache", "GOPATH": "gopath", "GOTMPDIR": "tmp",
                   "TMPDIR": "tmp", "XDG_CONFIG_HOME": "config"}.items():
        env[k] = os.path.join(build, sub)
        os.makedirs(env[k], exist_ok=True)
    env.update(GOTOOLCHAIN="local", GOPROXY="off", GOSUMDB="off", GOFLAGS="", GOENV="off")
    return env


def build(root, env):
    for need in ("go.mod", os.path.join("cmd", "ddt-explore"), os.path.join(BENCH, "go.mod")):
        if not os.path.exists(os.path.join(root, need)):
            raise BenchError(f"{need} missing: run from the root of a repository checkout")
    bindir = os.path.join(root, ".bench_build", "bin")
    bins = {"ddt-explore": os.path.join(bindir, "ddt-explore"), "helper": os.path.join(bindir, "campaignbench")}
    for args, cwd in ((["go", "build", "-o", bins["ddt-explore"], "./cmd/ddt-explore"], root),
                      (["go", "build", "-o", bins["helper"], "."], os.path.join(root, BENCH))):
        p = subprocess.run(args, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            raise BenchError(f"build failed: {' '.join(args)}\n{p.stdout}")
    return bins


def machine_info(env):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    go = subprocess.run(["go", "version"], env=env, stdout=subprocess.PIPE, text=True).stdout.strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "gomaxprocs": os.environ.get("GOMAXPROCS", "default (nproc)"),
        "go": go,
        "cpu": cpu,
        "loadavg_1m": os.getloadavg()[0],
    }


# ----------------------------------------------------------- operations


def normalize(text):
    lines = [l for l in text.split("\n") if not l.startswith(STRIP)]
    return "\n".join(lines).rstrip() + "\n"


def split_report(text):
    """Split a normalized report into its step-3 Pareto rows (as token
    tuples: table padding depends on the widest row) and every other
    line."""
    lines = text.split("\n")
    head = next(i for i, l in enumerate(lines) if l.startswith("cross-configuration Pareto-optimal set ("))
    end = lines.index("", head)
    rows = {tuple(l.split()) for l in lines[head + 3:end]}
    return rows, lines[:head] + [" ".join(lines[head + 1].split())] + lines[end:]


def check_report(text, ref):
    """Return (exact, sound): exact when the normalized report equals the
    reference; sound when every line but the step-3 set is identical and
    every step-3 row printed is a row of the exact set."""
    norm = normalize(text)
    if norm == ref:
        return True, True
    try:
        rows, rest = split_report(norm)
        ref_rows, ref_rest = split_report(ref)
    except (StopIteration, ValueError, IndexError):
        return False, False
    return False, rest == ref_rest and rows <= ref_rows


class Run:
    """State of one benchmark run: binaries, paths, samples, verdicts."""

    def __init__(self, root, workload, seed, seconds, env, bins):
        self.root, self.workload, self.seed, self.seconds = root, workload, seed, seconds
        self.env, self.bins = env, bins
        self.spec = WORKLOADS[workload]
        apps = self.spec["apps"]
        k = seed % len(apps)
        self.apps = apps[k:] + apps[:k]  # the seed rotates the app order
        self.work = os.path.join(root, ".bench_build", "work", workload)
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.cache = os.path.join(self.work, "flowmon.replay") if "-compose" in self.spec["flags"] else None
        self.refs = {}
        for a in apps:
            with open(os.path.join(root, BENCH, "reference", a + ".txt")) as f:
                self.refs[a] = f.read()
        self.ops = []
        self.problems = []  # correctness failures (make "correct" false)
        self.pristine = None

    def command(self, app, cache):
        cmd = [self.bins["ddt-explore"], "-app", app, "-workers", str(WORKERS)] + self.spec["flags"]
        if cache:
            cmd += ["-replay-cache", cache]
        return cmd

    def exec_one(self, cmd, tag):
        """Exec one process; return (wall, cpu, maxrss_mb, rc, stdout, stderr)."""
        out_path = os.path.join(self.work, tag + ".out")
        err_path = os.path.join(self.work, tag + ".err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            p = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.root)
            _, status, ru = os.wait4(p.pid, 0)
            wall = time.perf_counter() - start
        p.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as f:
            stdout = f.read()
        with open(err_path) as f:
            stderr = f.read()
        return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024, p.returncode, stdout, stderr

    def prepare_cache(self):
        """Outside the timing: a cold operation starts without a cache
        file, a warm one from a fresh copy of the settled cache."""
        if not self.cache:
            return
        if os.path.exists(self.cache):
            os.remove(self.cache)
        if self.pristine:
            shutil.copyfile(self.pristine, self.cache)

    def operation(self):
        self.prepare_cache()
        n = len(self.ops)
        wall = cpu = rss = 0.0
        exact = sound = True
        stats = dict.fromkeys(STATS_KEYS, 0)
        for app in self.apps:
            w, c, r, rc, out, err = self.exec_one(self.command(app, self.cache), f"op{n}-{app}")
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            m = STATS.search(out)
            if rc != 0 or not m:
                self.problems.append(f"op {n} {app}: exit {rc}, stats line {'found' if m else 'missing'}: {err[-500:]}")
                exact = sound = False
                continue
            for k, v in zip(STATS_KEYS, m.groups()):
                stats[k] += int(v)
            e, s = check_report(out, self.refs[app])
            exact, sound = exact and e, sound and s
            if not s:
                self.problems.append(f"op {n} {app}: report prints a point or line the exact reference does not")
            if self.cache:
                if any(x in err for x in SALVAGE):
                    self.problems.append(f"op {n} {app}: cache load salvaged or failed: {err.strip()}")
                if self.pristine and ("loaded " not in err or stats["simulated"] != 0):
                    self.problems.append(f"op {n} {app}: warm operation did not run from the settled cache "
                                         f"(simulated {stats['simulated']})")
        op = {"campaign_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "exact": exact, "stats": stats}
        if self.cache:
            op["cache_mb"] = os.path.getsize(self.cache) / 1e6 if os.path.exists(self.cache) else 0.0
        self.ops.append(op)

    def settle(self):
        """flowmon-warm set-up: a cold run plus one warm rerun settle the
        replay cache (the first rerun still simulates a few jobs). The
        settled file is kept per ddt-explore binary and copied fresh into
        place before every warm operation."""
        h = hashlib.sha256()
        with open(self.bins["ddt-explore"], "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
        d = os.path.join(self.root, ".bench_build", "settled", h.hexdigest()[:16])
        pristine = os.path.join(d, "flowmon.replay")
        if not os.path.exists(pristine):
            os.makedirs(d, exist_ok=True)
            tmp = os.path.join(d, "settling.replay")
            if os.path.exists(tmp):
                os.remove(tmp)
            for i in range(2):
                *_, rc, out, err = self.exec_one(self.command("FlowMon", tmp), f"settle{i}")
                if rc != 0:
                    raise BenchError(f"settling run {i} failed: {err[-500:]}")
            os.replace(tmp, pristine)
        self.pristine = pristine

    def helper(self, *args):
        p = subprocess.run([self.bins["helper"], *args], env=self.env, cwd=self.root,
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if p.returncode != 0:
            raise BenchError(f"helper {args[0]} failed: {p.stderr[-2000:]}")
        return json.loads(p.stdout.strip().splitlines()[-1])

    def setup_times(self):
        args = ["setup", "-workload", self.workload, "-reps", str(SETUP_REPS)]
        if self.cache:
            # cold: the CLI finds no file and starts an empty cache
            args += ["-cache", self.pristine or os.path.join(self.work, "absent.replay")]
        return self.helper(*args)["setup_s"]

    def measure(self):
        start = time.perf_counter()
        while not self.ops or time.perf_counter() - start < self.seconds:
            self.operation()

    def traced(self, out_base):
        """The traced run: the same campaign in-process, spans on. The
        paper-plain campaigns run twice; their counters must repeat."""
        self.prepare_cache()
        passes = 2 if self.workload == "paper-plain" else 1
        args = ["traced", "-workload", self.workload, "-passes", str(passes), "-spans", out_base + ".spans.json"]
        if self.cache:
            args += ["-cache", self.cache]
        res = self.helper(*args)["passes"]
        first = res[0]
        if any(p["counters"] != first["counters"] for p in res[1:]):
            self.problems.append(f"traced passes disagree on counters: {[p['counters'] for p in res]}")
        if self.pristine and first["counters"]["apps.job_runs"] != 0:
            self.problems.append(f"warm traced run executed {first['counters']['apps.job_runs']} jobs live")
        for p in res:
            for app, rep in p["reports"].items():
                if not check_report(rep, self.refs[app])[1]:
                    self.problems.append(f"traced {app}: report prints a point or line the exact reference does not")
        return first


def median(xs):
    return statistics.median(xs) if xs else 0.0


def per_layer(run, traced):
    v, c = traced["values"], traced["counters"]
    slot = WORKERS * v.get("explore.step_wall_s", 0.0)
    busy = v.get("apps.step_busy_s", 0.0)
    out = {
        "apps.runs": (c["apps.runs"], "count"),
        "apps.job_runs": (c["apps.job_runs"], "count"),
        "apps.run_busy_s": (v.get("apps.run_busy_s", 0.0), "s"),
        "apps.run_slot_share": (busy / slot if slot else 0.0, "share"),
        "explore.nonrun_slot_s": (slot - busy, "s"),
        "explore.executed_share": (c["apps.runs"] / c["core.budget"] if c["core.budget"] else 0.0, "share"),
        "traced.overhead_s": (traced["wall_s"] - median([o["campaign_s"] for o in run.ops]), "s"),
        "report_mismatch": (sum(not o["exact"] for o in run.ops) / len(run.ops), "share"),
        "cache_mb": (median([o.get("cache_mb", 0.0) for o in run.ops]), "MB"),
    }
    for k in ("explore.profile_s", "explore.step1_s", "explore.step2_s", "core.step3_s",
              "explore.cache.load_s", "explore.cache.save_s", "runtime.gc_cpu_s"):
        out[k] = (v.get(k, 0.0), "s")
    for k in ("explore.cache.file_mb", "explore.cache.stream_mb", "runtime.alloc_mb"):
        out[k] = (v.get(k, 0.0), "MB")
    for k in ("explore.cache.lanes", "explore.cache.dropped_sections"):
        out[k] = (v.get(k, 0.0), "count")
    for k in ("explore.simulated", "explore.composed", "explore.pruned", "explore.cache_hits",
              "explore.lane_profiles", "explore.expanded", "explore.subtree_cuts", "core.budget",
              "core.pareto_set"):
        out[k] = (c[k], "count")
    # Run-to-run spread of the scheduling-dependent counters over every
    # campaign of this run (exec'd operations and the traced one): data,
    # not a gate.
    for k in ("simulated", "composed", "pruned"):
        xs = [o["stats"][k] for o in run.ops] + [c["explore." + k]]
        out[f"explore.{k}_spread"] = (max(xs) - min(xs), "count")
    return {k: {"value": val, "unit": u} for k, (val, u) in out.items()}


def bench(args):
    root = os.getcwd()
    env = go_env(root)
    bins = build(root, env)
    info = machine_info(env)
    log("machine: " + json.dumps(info))
    run = Run(root, args.workload, args.seed, args.seconds, env, bins)
    if args.workload == "flowmon-warm":
        run.settle()
    setup = run.setup_times()
    run.measure()
    ops = run.ops
    if args.trace:
        base = os.path.join(root, ".bench_build", "trace", f"{args.workload}-seed{args.seed}")
        os.makedirs(os.path.dirname(base), exist_ok=True)
        metrics = per_layer(run, run.traced(base))
    else:
        metrics = {
            "campaign_s": {"value": median([o["campaign_s"] for o in ops]), "unit": "s"},
            "cpu_s": {"value": median([o["cpu_s"] for o in ops]), "unit": "s"},
            "peak_rss_mb": {"value": median([o["peak_rss_mb"] for o in ops]), "unit": "MB"},
            "setup_s": {"value": median(setup), "unit": "s"},
        }
    failed = sum(not o["exact"] for o in ops)
    result = {"correct": not run.problems, "attempted": len(ops), "failed": failed, "metrics": metrics}
    summary = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
               "machine": info, "apps": run.apps, "operations": ops, "setup_s": setup,
               "problems": run.problems, "result": result}
    os.makedirs(os.path.join(root, ".bench_build", "results"), exist_ok=True)
    with open(os.path.join(root, ".bench_build", "results",
                           f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump(summary, f, indent=1)
    for p in run.problems:
        log("problem: " + p)
    log(f"{len(ops)} operations, {failed} not exact; setup reps {len(setup)}")
    print(json.dumps(result))


def selftest(args):
    """Regenerate every reference from its independent in-process path
    and check it against the stored file, then check that ddt-explore's
    own plain run of each paper app (and FlowMon under -compose
    -noprune) prints exactly the stored reference."""
    root = os.getcwd()
    env = go_env(root)
    bins = build(root, env)
    ok = True
    for app in PAPER_APPS + ["FlowMon"]:
        with open(os.path.join(root, BENCH, "reference", app + ".txt")) as f:
            ref = f.read()
        regen = subprocess.run([bins["helper"], "reference", "-app", app], env=env,
                               stdout=subprocess.PIPE, text=True, check=True).stdout
        cli = [bins["ddt-explore"], "-app", app, "-workers", str(WORKERS)]
        if app == "FlowMon":
            cli += ["-compose", "-noprune"]
        out = subprocess.run(cli, env=env, stdout=subprocess.PIPE, text=True, check=True).stdout
        for what, text in (("regenerated", regen), ("ddt-explore " + " ".join(cli[1:]), out)):
            good = normalize(text) == ref
            ok = ok and good
            log(f"{app}: {what}: {'identical' if good else 'DIFFERS'}")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="check the stored references and exit")
    args = ap.parse_args()
    try:
        if args.selftest:
            return selftest(args)
        if not args.workload:
            ap.error("--workload is required")
        bench(args)
        return 0
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log(f"campaignbench: {e}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
