#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the XPDL toolchain.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload compile_cold --seed 1 --seconds 25 --trace 0

The first run builds xpdlc, xpdld and the two helper programs of this
directory into .bench_build/ (see CMakeLists.txt here). Every run then
sets up its workload, measures it for --seconds seconds (longer when
needed to collect 120 latency samples), checks the program's outputs,
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Workloads (each latency metric times one kind of operation on one input
in a closed loop of its own, run by perfbench_client):

  compile_cold  `xpdlc --repo models --model XScluster --out F --no-cache`
                as fresh processes, one at a time.
  compile_warm  the same with a private --cache-dir that set-up fills;
                every artifact must equal the cold one byte for byte.
  serve         one `xpdld --repo models --cache-dir <private>` started in
                set-up and two client threads in one process, each
                opening one connection per request and sending the next
                only after the reply: GET /v1/query?model=XScluster&q=...
                over a seeded sequence of small queries for 3/4 of
                --seconds, then GET /v1/descriptors/<seeded name> with a
                matching, a stale or no If-None-Match.

With --trace 0 the metrics are the end-to-end ones (latency_p50_ms,
throughput_per_s, peak_rss_mb, setup_s); standard error also states the
sample count, the 90th percentile and the descriptor-fetch median. With
--trace 1 the run instead measures the per-layer metrics: the traced
in-process run (perfbench_trace) times every call into a module's public
functions, and short process loops supply the end-to-end medians from
which the unattributed and transport times are derived, plus the tail
and fetch latencies, which carry no bound (see END_TO_END). The set of
per-layer metrics is the same for every workload.

Only files under the checkout are read or written. The compile
workloads bypass or use a private cache; nothing may change under
models/, and warm runs may add nothing to their cache.
"""

import argparse
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
import urllib.parse

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, ".bench_build")
XPDL_BUILD = os.path.join(BUILD, "xpdl")
HELPER_BUILD = os.path.join(BUILD, "perfbench")
TOOLS = os.path.join(XPDL_BUILD, "src", "tools")
XPDLC = os.path.join(TOOLS, "xpdlc")
XPDLD = os.path.join(TOOLS, "xpdld")
CLIENT = os.path.join(HELPER_BUILD, "perfbench_client")
TRACER = os.path.join(HELPER_BUILD, "perfbench_trace")

REPO = "models"
MODEL = "XScluster"

# Facts about the composed XScluster, derived by hand from the paper's
# Listing 11 and the descriptors it references: 4 nodes, each with two
# Xeon E5-2630L (2x2 cores) and one K20c (2496 CUDA cores) plus one K40c
# (2880 CUDA cores); two PCIe links per node and a ring of four
# InfiniBand links.
FACTS = {
    "cpus": 4 * 2,
    "devices": 4 * 2,
    "cuda_devices": 4 * 2,
    "host_cores": 4 * 2 * 4,
    "cores": 4 * (2496 + 2880) + 4 * 2 * 4,
    "interconnects": 4 * 2 + 4,
}

# Queries of the serve mix with their hand-derived result counts. Every
# result set stays small, so each query costs about the same.
QUERIES = [
    ("//cpu", 8),
    ("//device", 8),
    ("//interconnect", 12),
    ('//cpu[@id="PE1"]', 4),
    ('//*[@id="gpu1"]', 4),
    ('//device[@type="Nvidia_K40c"]', 4),
    ('//interconnect[@type="pcie3"]', 8),
    ('//interconnect[@type="infiniband1"]', 4),
    ('//memory[@type="DDR3_4G"]', 16),
    ('//cache[@name="L3"]', 8),
    ("//node", 4),
]

SETUP_REPS = 5        # set-ups per run; setup_s is their median
QUERY_SHARE = 0.75    # share of serve's --seconds timing queries
PLAN_LENGTH = 20000   # requests in the serve plan (the loop wraps)

# The 90th percentile and the descriptor-fetch median are per-layer
# metrics, not end-to-end ones: on a 4-vCPU KVM guest, host steal
# episodes lasting minutes moved the serve query p90 by 18-38% and the
# fetch median (about 0.1 ms, of which the service call is 2 us) up to
# 2x between runs, beyond any bound a regression gate can use.
END_TO_END = {
    "latency_p50_ms": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER = {
    "repository.scan_ms": "ms",
    "repository.scan_warm_ms": "ms",
    "repository.cache_hits": "count",
    "xml.parse_mb_per_s": "MB/s",
    "compose.compose_ms": "ms",
    "compose.analysis_ms": "ms",
    "compose.allocs": "count",
    "compose.cluster16_ms": "ms",
    "runtime.build_ms": "ms",
    "runtime.build_allocs": "count",
    "runtime.serialize_ms": "ms",
    "runtime.artifact_bytes": "bytes",
    "runtime.load_ms": "ms",
    "runtime.load_allocs": "count",
    "runtime.find_by_id_ns": "ns",
    "runtime.getter_ns": "ns",
    "util.write_ms": "ms",
    "util.write_warm_ms": "ms",
    "cache.runtime_hit_ms": "ms",
    "cache.store_ms": "ms",
    "query.select_ms": "ms",
    "net.service_query_ms": "ms",
    "net.service_fetch_us": "us",
    "net.query_p50_ms": "ms",
    "net.query_p90_ms": "ms",
    "net.fetch_p50_ms": "ms",
    "net.transport_query_ms": "ms",
    "tools.xpdlc_start_ms": "ms",
    "tools.teardown_ms": "ms",
    "tools.teardown_warm_ms": "ms",
    "tools.cold_p50_ms": "ms",
    "tools.cold_p90_ms": "ms",
    "tools.warm_p50_ms": "ms",
    "tools.warm_p90_ms": "ms",
    "tools.unattributed_cold_ms": "ms",
    "tools.unattributed_warm_ms": "ms",
    "trace.overhead_ms": "ms",
    "opt.engine_compile_ms": "ms",
    "opt.loose_query_us": "us",
    "opt.tight_query_ms": "ms",
    "opt.tight_query_nodes": "count",
    "opt.tight_query_exhausted": "count",
}

# Layers on each compile path, as the traced run names them. Their sum
# plus the unattributed time is the path's end-to-end median.
COLD_LAYERS = ["tools.xpdlc_start_ms", "repository.scan_ms",
               "compose.compose_ms", "compose.analysis_ms",
               "runtime.build_ms", "runtime.serialize_ms", "util.write_ms",
               "tools.teardown_ms"]
WARM_LAYERS = ["tools.xpdlc_start_ms", "repository.scan_warm_ms",
               "cache.runtime_hit_ms", "util.write_warm_ms",
               "tools.teardown_warm_ms"]


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


class Failure(Exception):
    """The benchmark cannot run here (bad checkout, build failure)."""


# --- build --------------------------------------------------------------------

def build():
    for needed in ("CMakeLists.txt", "src", "include",
                   os.path.join(REPO, "systems", MODEL + ".xpdl")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise Failure("not the root of an XPDL checkout: %s is missing"
                          % needed)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(XPDL_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", ROOT, "-B", XPDL_BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", XPDL_BUILD, "-j", jobs, "--target",
                  "xpdlc", "xpdld"])
    if not os.path.exists(os.path.join(HELPER_BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", HELPER_BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo",
                      "-DXPDL_BUILD_DIR=" + XPDL_BUILD])
    steps.append(["cmake", "--build", HELPER_BUILD, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise Failure("build step failed: " + " ".join(cmd))


# --- helpers ------------------------------------------------------------------

def child_env():
    # The tools read XPDL_* switches (jobs, cache, faults, tracing); the
    # benchmark runs them in their default configuration.
    return {k: v for k, v in os.environ.items() if not k.startswith("XPDL_")}


def tree_state(path):
    """(relative path, size, mtime) of every file below `path`."""
    state = []
    for dirpath, _, files in os.walk(path):
        for f in files:
            p = os.path.join(dirpath, f)
            st = os.stat(p)
            state.append((os.path.relpath(p, path), st.st_size,
                          st.st_mtime_ns))
    return sorted(state)


def read_bytes(path):
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def fnv1a64(data):
    h = 0xcbf29ce484222325
    for b in data:
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return h


def p50(values):
    return statistics.median(values)


def p90(values):
    return statistics.quantiles(values, n=10)[8]


def run_quiet(argv):
    """Runs one process with its output discarded; returns its exit
    code."""
    return subprocess.run(argv, env=child_env(), stdin=subprocess.DEVNULL,
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def helper(argv):
    """Runs perfbench_client and returns the JSON object it prints."""
    out = subprocess.run([CLIENT] + argv, env=child_env(),
                         capture_output=True, text=True)
    if out.returncode != 0:
        raise Failure("perfbench_client failed: " + out.stderr)
    return json.loads(out.stdout)


def xpdlc_argv(out, cache_dir=None):
    argv = [XPDLC, "--repo", REPO, "--model", MODEL, "--out", out]
    return argv + (["--cache-dir", cache_dir] if cache_dir else ["--no-cache"])


def check_artifact(path, checks):
    """Loads an artifact with the helper and compares it to FACTS."""
    try:
        counts = helper(["check-artifact", path])
    except Failure as e:
        checks.append("artifact %s does not load: %s" % (path, e))
        return
    for key, want in FACTS.items():
        if counts.get(key) != want:
            checks.append("artifact has %s=%s, expected %d"
                          % (key, counts.get(key), want))


class Loop:
    """Samples of one run's closed loops."""

    def __init__(self):
        self.main = []       # latency of the main class, ms
        self.fetch = []      # serve: latency of descriptor fetches, ms
        self.attempted = 0
        self.failed = 0
        self.elapsed = 0.0   # seconds of the main class's loop


def compile_loop(work, ref_path, seconds, cache_dir=None):
    """Compiles one process at a time, each artifact checked against the
    one at `ref_path`; returns the Loop and the median peak RSS (MB) of
    the xpdlc processes."""
    out = os.path.join(work, "out.xpdlrt")
    res = helper(["run", "--seconds", str(seconds), "--out", out,
                  "--expect", ref_path, "--"] + xpdlc_argv(out, cache_dir))
    loop = Loop()
    loop.main = res["ms"]
    loop.attempted, loop.failed = res["attempted"], res["failed"]
    loop.elapsed = res["elapsed_s"]
    return loop, p50(res["rss_mb"]) if res["rss_mb"] else 0.0


# --- xpdld ----------------------------------------------------------------------

def http_get(port, target):
    """One request on a fresh connection; returns (status, headers, body)."""
    with socket.create_connection(("127.0.0.1", port), timeout=30) as s:
        s.sendall(("GET %s HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                   "Connection: close\r\n\r\n" % target).encode())
        chunks = []
        while True:
            b = s.recv(65536)
            if not b:
                break
            chunks.append(b)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    head_lines = head.decode("latin-1").split("\r\n")
    hdrs = {}
    for line in head_lines[1:]:
        k, _, v = line.partition(":")
        hdrs[k.strip().lower()] = v.strip()
    return int(head_lines[0].split()[1]), hdrs, body


def query_target(q):
    return "/v1/query?model=%s&q=%s" % (urllib.parse.quote(MODEL, safe=""),
                                        urllib.parse.quote(q, safe=""))


class Server:
    """One xpdld process with a private cache directory.

    --jobs 2 gives it one HTTP worker per client thread. By default the
    pool has one worker per hardware thread, so its size follows the
    machine, and which idle workers pick up requests varies from run to
    run; so did peak RSS: 27.6-35.7 MB with four workers on a 4-thread
    machine, 23.9-24.0 MB with two, at the same query latency."""

    def __init__(self, work, tag):
        self.cache = os.path.join(work, "xpdld-cache-" + tag)
        self.port_file = os.path.join(work, "xpdld-%s.port" % tag)
        self.proc = subprocess.Popen(
            [XPDLD, "--repo", REPO, "--cache-dir", self.cache, "--jobs", "2",
             "--port", "0", "--port-file", self.port_file, "--quiet",
             "--flight-dump",
             os.path.join(work, "xpdld-flight-%s.json" % tag)],
            env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        self.port = None
        deadline = time.perf_counter() + 60
        while self.port is None:
            text = read_bytes(self.port_file)
            if text and text.strip():
                self.port = int(text.strip())
            elif self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise Failure("xpdld did not start")
            else:
                time.sleep(0.002)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise Failure("no VmHWM for xpdld")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def start_server(work, tag, checks):
    """Starts xpdld and answers one query (which composes the model)."""
    server = Server(work, tag)
    status, _, body = http_get(server.port, query_target(QUERIES[0][0]))
    if status != 200 or json.loads(body)["count"] != QUERIES[0][1]:
        checks.append("first query answered %d" % status)
    return server


def descriptor_catalog(server, checks):
    """name -> (etag, body bytes, body FNV) for every served descriptor,
    each checked against the descriptor files under models/."""
    file_hashes = set()
    for dirpath, _, files in os.walk(REPO):
        if ".xpdl.cache" in dirpath:
            continue
        for f in files:
            if f.endswith(".xpdl"):
                file_hashes.add(fnv1a64(read_bytes(os.path.join(dirpath, f))))
    status, _, body = http_get(server.port, "/v1/index")
    if status != 200:
        raise Failure("/v1/index answered %d" % status)
    catalog = {}
    for entry in json.loads(body)["descriptors"]:
        status, hdrs, body = http_get(server.port, entry["path"])
        h = fnv1a64(body)
        if status != 200 or h not in file_hashes or \
                hdrs.get("etag") != entry["etag"]:
            checks.append("descriptor %s is not served as on disk"
                          % entry["name"])
            continue
        catalog[entry["name"]] = (entry["etag"], len(body), h)
    if not catalog:
        raise Failure("xpdld serves no descriptors")
    return catalog


def serve_plan(rng, catalog):
    """The seeded request mix: half queries, half descriptor fetches; of
    the fetches half carry the matching ETag (304), a quarter a stale one
    and a quarter none (200 with the body)."""
    names = sorted(catalog)
    lines = []
    for _ in range(PLAN_LENGTH):
        if rng.random() < 0.5:
            q, count = rng.choice(QUERIES)
            lines.append("Q\t%d\t%s" % (count, query_target(q)))
            continue
        name = rng.choice(names)
        etag, size, h = catalog[name]
        target = "/v1/descriptors/" + urllib.parse.quote(name, safe="")
        r = rng.random()
        if r < 0.5:
            lines.append("F\t304\t%s\t0\t0\t%s\t%s" % (etag, target, etag))
        else:
            inm = '\t"h%016x"' % (h ^ 1) if r < 0.75 else ""
            lines.append("F\t200\t%s\t%d\t%x\t%s%s" % (etag, size, h, target,
                                                       inm))
    return lines


def write_plan(work, lines):
    path = os.path.join(work, "plan.tsv")
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")
    return path


def client_loop(server, work, plan, seconds, threads=2):
    return helper(["serve", "--port", str(server.port), "--plan",
                   write_plan(work, plan), "--seconds", str(seconds),
                   "--threads", str(threads)])


# --- workloads --------------------------------------------------------------------

def timed_setups(setup, teardown=None):
    """Runs set-up SETUP_REPS times, tearing down (untimed) all but the
    last; returns (median seconds, last result)."""
    times = []
    for i in range(SETUP_REPS):
        t0 = time.perf_counter()
        result = setup(i)
        times.append(time.perf_counter() - t0)
        if teardown and i + 1 < SETUP_REPS:
            teardown(result)
    return statistics.median(times), result


def cold_reference(work, checks):
    ref_path = os.path.join(work, "reference.xpdlrt")
    code = run_quiet(xpdlc_argv(ref_path))
    reference = read_bytes(ref_path)
    if code != 0 or not reference:
        raise Failure("xpdlc --no-cache failed (exit %d)" % code)
    check_artifact(ref_path, checks)
    return reference, ref_path


def loop_metrics(loop, setup_s, rss):
    if len(loop.main) < 10:
        raise Failure("%d of %d operations failed" % (loop.failed,
                                                      loop.attempted))
    return {
        "latency_p50_ms": p50(loop.main),
        # Completed operations per second of the closed loop's wall time.
        # Every workload reports every end-to-end metric, so the compile
        # workloads report it too.
        "throughput_per_s": len(loop.main) / loop.elapsed,
        "peak_rss_mb": rss,
        "setup_s": setup_s,
    }


def run_compile_cold(args, work, checks):
    setup_s, (_, ref_path) = timed_setups(
        lambda i: cold_reference(work, checks))
    loop, rss = compile_loop(work, ref_path, args.seconds)
    return loop, loop_metrics(loop, setup_s, rss)


def fill_cache(work, i, checks, reference):
    cache = os.path.join(work, "cache-%d" % i)
    out = os.path.join(work, "fill.xpdlrt")
    code = run_quiet(xpdlc_argv(out, cache))
    if code != 0 or read_bytes(out) != reference:
        checks.append("the cache-filling compile differs from the cold one")
    return cache


def run_compile_warm(args, work, checks):
    reference, ref_path = cold_reference(work, checks)
    setup_s, cache = timed_setups(
        lambda i: fill_cache(work, i, checks, reference))
    before = tree_state(cache)
    loop, rss = compile_loop(work, ref_path, args.seconds, cache_dir=cache)
    if tree_state(cache) != before:
        checks.append("warm compiles wrote to their cache (not all hits)")
    return loop, loop_metrics(loop, setup_s, rss)


def run_serve(args, work, checks):
    servers = []

    def setup(i):
        servers.append(start_server(work, str(i), checks))
        return servers[-1]

    try:
        setup_s, server = timed_setups(setup, Server.stop)
        plan = serve_plan(random.Random(args.seed),
                          descriptor_catalog(server, checks))
        before = tree_state(server.cache)
        queries = client_loop(server, work, [l for l in plan if l[0] == "Q"],
                              QUERY_SHARE * args.seconds)
        fetches = client_loop(server, work, [l for l in plan if l[0] == "F"],
                              (1 - QUERY_SHARE) * args.seconds)
        rss = server.peak_rss_mb()
        if tree_state(server.cache) != before:
            checks.append("xpdld wrote to its cache while serving")
    finally:
        for s in servers:
            s.stop()
    loop = Loop()
    loop.main = [us / 1e3 for us in queries["query_us"]]
    loop.fetch = [us / 1e3 for us in fetches["fetch_us"]]
    loop.attempted = queries["attempted"] + fetches["attempted"]
    loop.failed = queries["failed"] + fetches["failed"]
    loop.elapsed = queries["elapsed_s"]
    return loop, loop_metrics(loop, setup_s, rss)


def run_trace(args, work, checks):
    """Per-layer metrics: the traced in-process run plus short process
    loops for the end-to-end medians the residuals are taken from."""
    reference, ref_path = cold_reference(work, checks)
    attempted = failed = 0
    m = {}

    start = helper(["run", "--seconds", "0", "--", XPDLC, "--help"])
    attempted += start["attempted"]
    failed += start["failed"]
    m["tools.xpdlc_start_ms"] = p50(start["ms"])

    cold, _ = compile_loop(work, ref_path, 8)
    cache = fill_cache(work, 0, checks, reference)
    warm, _ = compile_loop(work, ref_path, 2, cache_dir=cache)
    for name, loop in (("cold", cold), ("warm", warm)):
        attempted += loop.attempted
        failed += loop.failed
        m["tools.%s_p50_ms" % name] = p50(loop.main)
        m["tools.%s_p90_ms" % name] = p90(loop.main)

    server = start_server(work, "trace", checks)
    try:
        plan = serve_plan(random.Random(args.seed),
                          descriptor_catalog(server, checks))
        # One client and queries only: the uncontended request latency
        # that the in-process service time is subtracted from.
        queries = client_loop(server, work, [l for l in plan if l[0] == "Q"],
                              2, threads=1)
        fetches = client_loop(server, work, [l for l in plan if l[0] == "F"],
                              1)
    finally:
        server.stop()
    for res in (queries, fetches):
        attempted += res["attempted"]
        failed += res["failed"]
    query_ms = [us / 1e3 for us in queries["query_us"]]
    m["net.query_p50_ms"] = p50(query_ms)
    m["net.query_p90_ms"] = p90(query_ms)
    m["net.fetch_p50_ms"] = p50([us / 1e3 for us in fetches["fetch_us"]])

    # The traced run gets the same queries and a seeded slice of the
    # same fetches as the serve workload.
    queries_path = os.path.join(work, "queries.tsv")
    with open(queries_path, "w") as f:
        for q, count in QUERIES:
            f.write("%d\t%s\n" % (count, q))
    fetches_path = os.path.join(work, "fetches.tsv")
    with open(fetches_path, "w") as f:
        for line in [l for l in plan if l[0] == "F"][:40]:
            parts = line.split("\t")
            name = urllib.parse.unquote(parts[5][len("/v1/descriptors/"):])
            inm = parts[6] if len(parts) > 6 else ""
            f.write("%s\t%s\t%s\n" % (name, parts[1], inm))
    trace_work = os.path.join(work, "trace")
    os.makedirs(trace_work)
    out = subprocess.run(
        [TRACER, "--repo", REPO, "--model", MODEL, "--reference", ref_path,
         "--work", trace_work, "--queries", queries_path, "--fetches",
         fetches_path, "--seed", str(args.seed), "--spans",
         os.path.join(BUILD, "trace-spans.jsonl")],
        env=child_env(), capture_output=True, text=True)
    sys.stderr.write(out.stderr)
    if out.returncode != 0:
        raise Failure("perfbench_trace failed")
    traced = json.loads(out.stdout)
    attempted += traced["attempted"]
    failed += traced["failed"]
    m.update(traced["metrics"])

    m["tools.unattributed_cold_ms"] = m["tools.cold_p50_ms"] - sum(
        m[k] for k in COLD_LAYERS)
    m["tools.unattributed_warm_ms"] = m["tools.warm_p50_ms"] - sum(
        m[k] for k in WARM_LAYERS)
    m["net.transport_query_ms"] = (m["net.query_p50_ms"] -
                                   m["net.service_query_ms"])
    missing = [k for k in PER_LAYER if k not in m]
    if missing:
        checks.append("traced run lacks " + ", ".join(missing))
    return attempted, failed, {k: m[k] for k in PER_LAYER if k in m}


WORKLOADS = {
    "compile_cold": run_compile_cold,
    "compile_warm": run_compile_warm,
    "serve": run_serve,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        build()
    except Failure as e:
        log(str(e))
        return 2

    work = os.path.join(BUILD, "work-%d" % os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    models_before = tree_state(REPO)
    checks = []
    try:
        if args.trace:
            attempted, failed, values = run_trace(args, work, checks)
            units = PER_LAYER
        else:
            loop, values = WORKLOADS[args.workload](args, work, checks)
            attempted, failed = loop.attempted, loop.failed
            units = END_TO_END
            tail = p90(loop.main)
            log("%s: %d samples, p50 %.4g ms, p90 %.4g ms (%d beyond); "
                "%d failed of %d" % (
                    args.workload, len(loop.main), values["latency_p50_ms"],
                    tail, sum(1 for x in loop.main if x > tail), failed,
                    attempted))
            if loop.fetch:
                log("serve: %d descriptor fetches, p50 %.4g ms"
                    % (len(loop.fetch), p50(loop.fetch)))
    except Failure as e:
        log(str(e))
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tree_state(REPO) != models_before:
        checks.append("something was written under %s/" % REPO)
    for c in checks:
        log("check failed: " + c)
    result = {
        "correct": not checks and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]}
                    for k in units if k in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
