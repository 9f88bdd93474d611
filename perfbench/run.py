#!/usr/bin/env python3
"""End-to-end benchmark of the cps reproduction (see perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --workload campaign_core --seed 1 --seconds 20 --trace 0

The first run builds the tree (Release) into $CARGO_TARGET_DIR, default
.bench_build.  The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Other modes:
    --steady K          run the workload (default: each one in BENCHMARK.json) K
                        times on seeds seed..seed+K-1 and print median,
                        quartiles and spread next to each bound
    --campaign-seed S   run the campaigns on campaign seed S (the held-out check)
    --record-digests    re-record perfbench/digests.json from this tree
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
TREE = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")

WORKLOADS = ("campaign_core", "fleet_codesign")
# Default and held-out seed per workload.  For campaign_core they are campaign
# seeds: its program input is always DEFAULT_SEED["campaign_core"] (or
# --campaign-seed), whatever --seed says, so that every run measures the same
# campaign and its CSVs can be checked against recorded digests.
DEFAULT_SEED = {"campaign_core": 0x5EED5EED, "fleet_codesign": 0x5EED5EED}
HELD_OUT_SEED = {"campaign_core": 0x3, "fleet_codesign": 0xC0DE5}
CAMPAIGN_SEED = DEFAULT_SEED["campaign_core"]
CODESIGN_REFERENCE_SEED = 0x5EED5EED
CODESIGN_REFERENCE_FLEETS = 8
CAMPAIGN_JOBS = 4
SERVE_WORKERS = 2
# campaign_core runs every registered experiment but this one: a single
# n = 20 exact search of ~8 s on one thread, which would leave four
# campaigns in a run (README.md, "Why not `cps_run all`").  The traced run
# still times it (experiments.sweep_alloc_scaling_s, analysis.exact_tail_ms).
TAIL_EXPERIMENT = "sweep_alloc_scaling"
CORE_EXPERIMENTS = (
    "ablation_allocator", "ablation_bounds", "ablation_envelope", "ablation_jitter",
    "fig3", "fig4", "fig5", "run_scenario", "sweep_acceptance_ratio", "sweep_alloc",
    "sweep_alloc_parallel", "sweep_fault_recovery", "sweep_flexray_params",
    "sweep_loop_design", "table1", "table_alloc",
)
# setup_s is the median of cold starts of `cps_run` on the paper's own
# artifacts (process start, then the paper fleet's loop designs, dwell/wait
# curves, fitted models and responses: what every campaign builds first and
# what fleet_codesign does on fresh fleets).  The shared host's speed drifts
# by tens of per cent within a minute, so a run is cut into SEGMENTS equal
# segments and the starts are spread over it: this many before each segment
# and after the last one (README.md).
PAPER_ARTIFACTS = ("table1", "fig3", "fig4", "fig5")
SETUP_STARTS = 4
SEGMENTS = 10
# op_tail_ms: a fixed percentile per workload, so that it never changes
# with the number of operations a run happens to fit.  A 20 s run holds
# 15-25 campaigns (4-6 beyond p75) and 450-950 fleets (22-47 beyond p95).
TAIL_PERCENTILE = {"campaign_core": 75, "fleet_codesign": 95}
READY_TIMEOUT_S = 30.0


class BenchError(Exception):
    """The benchmark itself could not run (build, guard or spawn failure)."""


def log(*parts):
    print("[perfbench]", *parts, file=sys.stderr, flush=True)


# --------------------------------------------------------------------------
# Build and provenance


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, "build.log"), "a") as out:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            log("configuring a Release build in", build_dir)
            rc = subprocess.call(["cmake", "-S", HERE, "-B", build_dir,
                                  "-DCMAKE_BUILD_TYPE=Release"], stdout=out, stderr=out)
            if rc != 0:
                if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
                    os.remove(os.path.join(build_dir, "CMakeCache.txt"))  # reconfigure next time
                raise BenchError("cmake configure failed (is this a source checkout?)")
        rc = subprocess.call(["cmake", "--build", build_dir, "-j", "4", "--target",
                              "cps_run", "cps_serve_bin", "perfbench_inproc"],
                             stdout=out, stderr=out)
    if rc != 0:
        raise BenchError("build failed; see " + os.path.join(build_dir, "build.log"))
    os.sync()  # a fresh build leaves dirty pages whose writeback would overlap the run
    return {
        "cps_run": os.path.join(build_dir, "cps", "tools", "cps_run"),
        "cps_serve": os.path.join(build_dir, "cps", "tools", "cps_serve"),
        "inproc": os.path.join(build_dir, "perfbench_inproc"),
    }


def provenance(build_dir, bins):
    """Refuse anything but a Release build; describe the machine and build."""
    cache = open(os.path.join(build_dir, "CMakeCache.txt")).read()
    if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache:
        raise BenchError("refusing a non-Release build in " + build_dir)
    info = inproc_json([bins["inproc"], "info"])["info"]
    if info["build_type"] != "Release" or not info["ndebug"]:
        raise BenchError("refusing a perfbench_inproc built without Release/NDEBUG")
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "simd_width": info["simd_width"], "simd_isa": info["simd_isa"],
            "compiler": info["compiler"], "build_type": info["build_type"]}


def inproc_json(cmd, cwd=None):
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[0])} {cmd[1]} exited {proc.returncode}: "
                         + proc.stderr.strip()[-400:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --------------------------------------------------------------------------
# Child processes


def peak_rss_mb(pid):
    """VmHWM of a live process in MiB.  (A child's ru_maxrss would also
    count this Python parent's pages from before exec.)"""
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def spawn_wait(cmd, cwd=None):
    """Run cmd to completion: (wall seconds, exit code, peak RSS in MiB).
    The peak is sampled every 20 ms by a watcher thread while the caller
    blocks in wait()."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    peak = [0.0]
    done = threading.Event()

    def watch():
        while not done.wait(0.02):
            peak[0] = max(peak[0], peak_rss_mb(proc.pid))

    watcher = threading.Thread(target=watch)
    watcher.start()
    try:
        proc.wait()
    finally:
        done.set()
        watcher.join()
    return time.perf_counter() - start, proc.returncode, peak[0]


class Server:
    """A `cps_serve --warm` process on a fresh, empty fixture store in `home`."""

    def __init__(self, bins, home):
        shutil.rmtree(home, ignore_errors=True)
        os.makedirs(home)
        self.home = home
        cmd = [bins["cps_serve"], "--socket", "s.sock", "--ready-file", "ready",
               "--fixture-store", "store", "--workers", str(SERVE_WORKERS), "--warm"]
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=home, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.DEVNULL)
        ready = os.path.join(home, "ready")
        while not os.path.exists(ready):
            if self.proc.poll() is not None or time.perf_counter() - start > READY_TIMEOUT_S:
                self.stop()
                raise BenchError("cps_serve did not become ready")
            time.sleep(0.0002)
        self.ready_s = time.perf_counter() - start

    def stop(self):
        """SIGTERM (graceful drain); returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            self.proc.wait()
        return self.proc.returncode


# --------------------------------------------------------------------------
# Results


class Result:
    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.layer_self_s = {}  # self seconds per layer, summed over traced probes

    def metric(self, name, value, unit):
        self.metrics[name] = {"value": value, "unit": unit}

    def fail(self, what):
        self.failed += 1
        self.errors.append(what)
        log("FAILED:", what)

    def absorb(self, report, prefix=""):
        """Fold in a perfbench_inproc report; returns its info block."""
        for layer, seconds in report["info"].get("layer_self_s", {}).items():
            self.layer_self_s[layer] = self.layer_self_s.get(layer, 0.0) + seconds
        self.attempted += report["attempted"]
        if report["failed"]:
            self.failed += report["failed"]
            for error in report["errors"] or ["(no detail)"]:
                self.errors.append(prefix + error)
                log("FAILED:", prefix + error)
        for name, metric in report["metrics"].items():
            self.metrics[name] = metric
        return report["info"]


def load_digests():
    with open(DIGESTS) as f:
        return json.load(f)


def csv_digests(directory):
    """sha256 of every deterministic CSV (the *_times.csv sidecars hold
    wall-clock values and are exempt)."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if name.endswith(".csv") and not name.endswith("_times.csv"):
            with open(os.path.join(directory, name), "rb") as f:
                out[name] = hashlib.sha256(f.read()).hexdigest()
    return out


# --------------------------------------------------------------------------
# Workloads


def cold_starts(bins, run_dir, result, campaign_seed, times):
    """SETUP_STARTS cold starts of cps_run on the paper artifacts, each
    timed from spawn to exit and appended to `times`."""
    for _ in range(SETUP_STARTS):
        out = os.path.join(run_dir, f"setup{len(times)}")
        os.makedirs(out)
        result.attempted += 1
        start = time.perf_counter()
        rc = subprocess.call([bins["cps_run"], *PAPER_ARTIFACTS, "--jobs", str(CAMPAIGN_JOBS),
                              "--seed", hex(campaign_seed), "--csv", out],
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        if rc != 0:
            result.fail(f"cps_run {' '.join(PAPER_ARTIFACTS)} exited {rc}")
        else:
            check_campaign_csvs(out, campaign_seed, result, subset=True)
        shutil.rmtree(out, ignore_errors=True)


def report(result, latencies_ms, rates, rss, setup, percentile):
    """The end-to-end metrics of a run, from its operations' latencies, its
    per-segment throughputs, the peak RSS of each measured process and the
    set-up samples."""
    result.metric("op_p50_ms", quantile(latencies_ms, 0.5), "ms")
    result.metric("op_tail_ms", quantile(latencies_ms, percentile / 100), "ms")
    # The median segment, so a slow spell of the shared host that covers a
    # few segments does not move it.
    result.metric("ops_per_s", statistics.median(rates), "1/s")
    result.metric("peak_rss_mb", max(rss), "MB")
    result.metric("setup_s", statistics.median(setup), "s")
    return {"operations": len(latencies_ms), "tail_percentile": percentile,
            "tail_samples_beyond": int(len(latencies_ms) * (1 - percentile / 100)),
            "segments": len(rates), "setup_starts": len(setup)}


def campaign_core(bins, run_dir, result, args):
    """`cps_run <CORE_EXPERIMENTS> --jobs 4` into fresh CSV directories, one
    caller, closed loop: one untimed warm-up campaign, then `seconds` of
    campaigns in SEGMENTS segments with the set-up samples between them."""
    def campaign(tag):
        out = os.path.join(run_dir, tag)
        os.makedirs(out)
        result.attempted += 1
        wall, rc, peak = spawn_wait([bins["cps_run"], *CORE_EXPERIMENTS,
                                     "--jobs", str(CAMPAIGN_JOBS),
                                     "--seed", hex(args.campaign_seed), "--csv", out])
        if rc != 0:
            result.fail(f"cps_run campaign exited {rc}")
        else:
            check_campaign_csvs(out, args.campaign_seed, result, without=TAIL_EXPERIMENT)
        shutil.rmtree(out, ignore_errors=True)
        return wall, peak

    campaign("warm-up")
    walls, rates, rss, setup = [], [], [], []
    for _ in range(SEGMENTS):
        cold_starts(bins, run_dir, result, args.campaign_seed, setup)
        count = 0
        start = time.perf_counter()
        # Time between launches (digest checks, clean-up) counts in the
        # segment's throughput too.
        while not count or time.perf_counter() - start < args.seconds / SEGMENTS:
            wall, peak = campaign(f"campaign{len(walls)}")
            walls.append(wall)
            rss.append(peak)
            count += 1
        rates.append(count / (time.perf_counter() - start))
    cold_starts(bins, run_dir, result, args.campaign_seed, setup)
    return report(result, [w * 1e3 for w in walls], rates, rss, setup,
                  TAIL_PERCENTILE["campaign_core"])


def check_campaign_csvs(directory, campaign_seed, result, subset=False, without=None):
    """Every deterministic CSV in `directory` matches the digest recorded for
    `cps_run all` on the campaign seed; unless `subset`, every recorded CSV
    is there too, except those of the experiment `without`."""
    expected = load_digests()["campaign_all"].get(hex(campaign_seed))
    if expected is None:
        result.fail(f"no recorded CSV digests for campaign seed {hex(campaign_seed)}")
        return
    got = csv_digests(directory)
    names = set(got)
    if not subset:
        names |= {k for k in expected if not (without and k.startswith(without))}
    bad = sorted(k for k in names if got.get(k) != expected.get(k))
    if bad:
        result.fail("campaign CSVs differ from the recorded digests: " + ", ".join(bad))


def codesign_args(bins, seed, seconds, trace):
    return [bins["inproc"], "codesign", "--seed", str(seed), "--seconds", str(seconds),
            "--reference-seed", str(CODESIGN_REFERENCE_SEED),
            "--reference-fleets", str(CODESIGN_REFERENCE_FLEETS), "--trace", str(trace)]


def check_codesign_reference(info, result):
    expected = load_digests()["fleet_codesign"]
    if info["reference_digest"] != expected["reference_digest"]:
        result.fail(f"co-design reference digest {info['reference_digest']} != recorded "
                    f"{expected['reference_digest']}")


def quantile(values, q):
    """Linear-interpolated quantile, q in [0, 1]."""
    values = sorted(values)
    position = q * (len(values) - 1)
    below = int(position)
    above = min(below + 1, len(values) - 1)
    return values[below] + (values[above] - values[below]) * (position - below)


def fleet_codesign(bins, run_dir, result, args):
    """Co-design fresh fleets of the seed in SEGMENTS consecutive processes
    (each warmed up by the reference block), with the set-up samples between
    them; the fleets of all segments are pooled."""
    latencies, rates, rss, setup = [], [], [], []
    for _ in range(SEGMENTS):
        cold_starts(bins, run_dir, result, args.campaign_seed, setup)
        cmd = codesign_args(bins, args.seed, args.seconds / SEGMENTS, 0)
        info = result.absorb(inproc_json(cmd + ["--first-fleet", str(len(latencies))]),
                             "codesign: ")
        check_codesign_reference(info, result)
        if info["latencies_ms"]:
            latencies += info["latencies_ms"]
            rates.append(len(info["latencies_ms"]) / (sum(info["latencies_ms"]) / 1e3))
        rss.append(info["peak_rss_mb"])
    cold_starts(bins, run_dir, result, args.campaign_seed, setup)
    if not latencies:
        raise BenchError("the co-design processes measured nothing")
    return report(result, latencies, rates, rss, setup, TAIL_PERCENTILE["fleet_codesign"])


# --------------------------------------------------------------------------
# Traced run: every layer probe, on this run's seed, plus the tracing
# overhead of the workload's own operation.


def campaign_probe(bins, run_dir, result, args, trace, spans=None):
    """The in-process campaign (campaign-probe) on the campaign seed, with
    the span recorder on or off; its CSVs must match `cps_run all`'s."""
    out = os.path.join(run_dir, f"probe-trace{trace}")
    os.makedirs(out)
    cmd = [bins["inproc"], "campaign-probe", "--seed", str(args.campaign_seed),
           "--jobs", str(CAMPAIGN_JOBS), "--csv", out, "--trace", str(trace)]
    info = result.absorb(inproc_json(cmd + (["--spans", spans] if spans else [])),
                         f"campaign probe (trace {trace}): ")
    check_campaign_csvs(out, args.campaign_seed, result)
    shutil.rmtree(out, ignore_errors=True)
    return info


def traced(bins, run_dir, result, args, trace_dir):
    os.makedirs(trace_dir, exist_ok=True)
    tag = f"{args.workload}-{args.seed}"
    spans = {k: os.path.join(trace_dir, f"{tag}-{k}.jsonl") for k in ("campaign", "codesign", "serve")}
    # The tracing overhead of the workload's own operation: the same
    # in-process campaign untraced and traced, or each fleet co-designed
    # untraced and then traced.
    if args.workload == "campaign_core":
        untraced = campaign_probe(bins, run_dir, result, args, 0)["campaign_s"]
    info = campaign_probe(bins, run_dir, result, args, 1, spans["campaign"])
    if args.workload == "campaign_core":
        overhead = 100.0 * (info["campaign_s"] - untraced) / untraced

    info = result.absorb(inproc_json(codesign_args(bins, args.seed, 0.25 * args.seconds, 1)
                                     + ["--spans", spans["codesign"]]), "codesign probe: ")
    check_codesign_reference(info, result)
    if args.workload == "fleet_codesign":
        overhead = info["overhead_pct"]
    result.metric("trace.overhead_pct", overhead, "%")

    server = Server(bins, os.path.join(run_dir, "serve"))
    result.metric("serve.cold_start_s", server.ready_s, "s")
    try:
        result.absorb(inproc_json([bins["inproc"], "serve", "--socket", "s.sock", "--seed",
                                   str(args.seed), "--seconds", str(0.5 * args.seconds),
                                   "--spans", spans["serve"]], cwd=server.home), "serve probe: ")
    finally:
        rc = server.stop()
    if rc != 0:
        result.fail(f"cps_serve drain exited {rc}")

    total = sum(result.layer_self_s.values())
    for layer, seconds in sorted(result.layer_self_s.items(), key=lambda kv: -kv[1]):
        log(f"self time {layer:12s} {seconds:9.4f} s  {100 * seconds / total:5.1f} %")
    return {"spans": sorted(spans.values())}


# --------------------------------------------------------------------------
# Modes


def run_once(args):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bins = build(build_dir)
    prov = provenance(build_dir, bins)
    prov.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                 "trace": args.trace, "campaign_seed": hex(args.campaign_seed),
                 "held_out_seed": hex(HELD_OUT_SEED[args.workload]),
                 "codesign_reference_seed": hex(CODESIGN_REFERENCE_SEED)})
    run_dir = os.path.join(build_dir, f"run-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    result = Result()
    try:
        if args.trace:
            info = traced(bins, run_dir, result, args, os.path.join(build_dir, "traces"))
        else:
            info = {"campaign_core": campaign_core,
                    "fleet_codesign": fleet_codesign}[args.workload](bins, run_dir, result, args)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    prov["run"] = info
    print("# provenance " + json.dumps(prov, sort_keys=True))
    log("provenance", json.dumps(prov, sort_keys=True))
    correct = result.failed == 0
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": result.metrics}), flush=True)
    return 0 if correct else 1


def steady(args):
    """Run each workload K times on consecutive seeds; print median,
    quartiles and spread = (q3 - q1) / median next to each metric's bound."""
    spec = json.load(open(os.path.join(TREE, "BENCHMARK.json")))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    verdict = 0
    for workload in workloads:
        values = {}
        for k in range(args.steady):
            seed = args.seed + k
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            if args.campaign_seed != CAMPAIGN_SEED:
                cmd += ["--campaign-seed", hex(args.campaign_seed)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not line["correct"]:
                log(f"{workload} seed {seed}: exit {proc.returncode}, correct={line['correct']}")
                verdict = 1
            for name, metric in line["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(json.dumps({"workload": workload, "seed": seed, **line}), flush=True)
        print(f"\n== {workload}: {args.steady} runs, seeds {args.seed}..{args.seed + args.steady - 1}")
        print(f"{'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        for m in metrics:
            v = values.get(m["name"], [])
            if len(v) < 2:
                print(f"{m['name']:34s} missing")
                verdict = 1
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = m.get("bound")
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  > bound/3"
                verdict = 1
            print(f"{m['name']:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
    return verdict


def record_digests(args):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    bins = build(build_dir)
    provenance(build_dir, bins)
    run_dir = os.path.join(build_dir, f"record-{os.getpid()}")
    record = {"campaign_all": {}}
    try:
        for seed in (CAMPAIGN_SEED, HELD_OUT_SEED["campaign_core"]):
            out = os.path.join(run_dir, hex(seed))
            os.makedirs(out)
            _, rc, _ = spawn_wait([bins["cps_run"], "all", "--jobs", str(CAMPAIGN_JOBS),
                                   "--seed", hex(seed), "--csv", out])
            if rc != 0:
                raise BenchError(f"cps_run all exited {rc}")
            record["campaign_all"][hex(seed)] = csv_digests(out)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    info = inproc_json(codesign_args(bins, CODESIGN_REFERENCE_SEED, 0, 0))["info"]
    record["fleet_codesign"] = {"reference_seed": hex(CODESIGN_REFERENCE_SEED),
                                "reference_fleets": CODESIGN_REFERENCE_FLEETS,
                                "reference_digest": info["reference_digest"]}
    with open(DIGESTS, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
        f.write("\n")
    log("recorded", DIGESTS)
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=lambda s: int(s, 0) % 2**64)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--campaign-seed", type=lambda s: int(s, 0), default=CAMPAIGN_SEED)
    parser.add_argument("--steady", type=int, default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    try:
        if args.record_digests:
            return record_digests(args)
        if args.seed is None:
            args.seed = DEFAULT_SEED[args.workload] if args.workload else 1
        if args.steady:
            return steady(args)
        if not args.workload:
            parser.error("--workload is required")
        return run_once(args)
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as error:
        log("error:", error)
        return 2


if __name__ == "__main__":
    sys.exit(main())
