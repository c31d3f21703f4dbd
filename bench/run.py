"""z3calc benchmark: one closed-loop client, one workload per run.

    python3 bench/run.py --workload reduce-sym --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 20     # every workload

A run measures set-up time, then executes whole rounds of the workload's
seeded request list, one request at a time, until --seconds have passed,
then checks every output against its known answer outside the timed
region.  It prints each metric with its unit and sample count, and as its
last line one JSON object {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, with times
scaled to the reference host speed of hostspeed.py.  --trace 1
runs one round untraced and the same round again with the tracer of
tracer.py installed, and reports the per-layer metrics plus the tracing
overhead; it also writes every span to bench/out/trace-<workload>.json.

The program under test is this checkout's src/z3calc; without it the run
exits with code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 15


def _fail(msg):
    print("bench: %s" % msg, file=sys.stderr)
    sys.exit(2)


if not (SRC / "z3calc" / "__init__.py").is_file():
    _fail("no z3calc sources at %s; run from a full checkout" % SRC)
sys.path.insert(0, str(SRC))
os.environ.pop("Z3CALC_STEP_BUDGET", None)

import z3calc  # noqa: E402

if Path(z3calc.__file__).resolve().parent != (SRC / "z3calc").resolve():
    _fail("imported z3calc from %s, not from this checkout" % z3calc.__file__)

from hostspeed import HostSpeed  # noqa: E402
from workloads import WORKLOADS, child_env  # noqa: E402


def percentile(values, p):
    """Linear interpolation between closest ranks, p in [0, 100]."""
    xs = sorted(values)
    if len(xs) == 1:
        return xs[0]
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def setup_samples(code, host, k=SETUP_SAMPLES):
    """Seconds from spawning a fresh interpreter until `code` has run, k
    times after one discarded warm-up (which may compile bytecode)."""
    env = child_env()
    script = code + "\nprint('ready', flush=True)\n"
    out = []
    for i in range(k + 1):
        host.sample()
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", script], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE) as p:
            try:
                line = p.stdout.readline()
                t1 = time.perf_counter()
                p.stdout.read()
                p.wait(timeout=60)
            finally:
                if p.poll() is None:
                    p.kill()
                    p.wait()
        if line.strip() != b"ready" or p.returncode != 0:
            raise RuntimeError("set-up probe failed (exit %s)" % p.returncode)
        if i:
            out.append(t1 - t0)
    return out


def execute(wl, reqs, results, tracer=None, host=None):
    """Run reqs in order, appending (request, output, error, seconds, start)."""
    for req in reqs:
        if host is not None:
            host.maybe_sample()
        if tracer is not None:
            tracer.req = len(results)
        t0 = time.perf_counter()
        try:
            out, err = wl.run(req), None
        except Exception as e:  # a failed request is counted, not fatal
            out, err = None, "%s: %s" % (type(e).__name__, e)
        results.append((req, out, err, time.perf_counter() - t0, t0))


def count_failures(wl, results):
    failed = []
    for req, out, err, _, _ in results:
        if err is None:
            try:
                if wl.check(req, out):
                    continue
                err = "wrong answer"
            except Exception as e:  # malformed output is a wrong answer
                err = "unreadable output: %s: %s" % (type(e).__name__, e)
        failed.append((req.key(), err))
    return failed


def closed_loop(wl, rng, seconds, host):
    """Whole rounds until `seconds` have passed; returns (results, wall s)."""
    results = []
    t0 = time.perf_counter()
    while True:
        wl.begin_round()
        execute(wl, wl.round(rng), results, host=host)
        if time.perf_counter() - t0 >= seconds:
            return results, time.perf_counter() - t0


def peak_rss_mb(wl):
    who = resource.RUSAGE_CHILDREN if wl.name == "glhj-cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def pin_to_one_core():
    """This process and the children it starts share one core (see
    HostSpeed.wait)."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure(wl, seed, seconds):
    """The untraced run: end-to-end metrics as {name: (value, samples)}.

    Times are scaled to the reference host speed (see hostspeed.py); the
    raw figures and the factors are printed beside them."""
    pin_to_one_core()
    setup_host, host = HostSpeed(), HostSpeed()
    setup = setup_samples(wl.setup_code, setup_host)
    wl.setup()
    wl.host = host
    results, wall = closed_loop(wl, random.Random(seed), seconds, host)
    host.sample()
    lat_ms = [r[3] * 1e3 for r in results]
    # each latency scaled by the host speed around its own request
    scaled_ms = [r[3] * 1e3 * host.local_factor(r[4], r[4] + r[3]) for r in results]
    failed = count_failures(wl, results)
    n = len(results)
    raw = {
        "setup_s": statistics.median(setup),
        "req_per_s": n / wall,
        "req_p50_ms": percentile(lat_ms, 50),
        "req_p90_ms": percentile(lat_ms, 90),
    }
    fs, f = setup_host.factor(), host.factor()
    print("host speed factor %.4f (n=%d), set-up %.4f (n=%d); raw %s" % (
        f, len(host.samples), fs, len(setup_host.samples),
        ", ".join("%s %.6g" % kv for kv in raw.items())))
    metrics = {
        "setup_s": (raw["setup_s"] * fs, len(setup)),
        "req_per_s": (raw["req_per_s"] / f, n),
        "req_p50_ms": (percentile(scaled_ms, 50), n),
        "req_p90_ms": (percentile(scaled_ms, 90), n),
        "peak_rss_mb": (peak_rss_mb(wl), n if wl.name == "glhj-cli" else 1),
    }
    return metrics, n, failed


def traced(wl, seed):
    """One round untraced, then the same round traced; per-layer metrics."""
    import tracer as tr

    pin_to_one_core()
    wl.setup()
    rng = random.Random(seed)
    wl.begin_round()
    reqs = wl.round(rng)
    # both passes are scaled to the reference host speed, so that the
    # overhead is not a change of host speed between them
    plain_host, traced_host = HostSpeed(), HostSpeed()
    wl.host = plain_host
    plain = []
    t0 = time.perf_counter()
    execute(wl, reqs, plain, host=plain_host)
    plain_host.sample()
    plain_s = time.perf_counter() - t0

    wl.begin_round()
    wl.traced = True
    tracer = tr.Tracer()
    tracer.install()
    unwired = tracer.unwrapped_aliases()
    results = []
    t0 = time.perf_counter()
    try:
        execute(wl, reqs, results, tracer, host=traced_host)
        traced_host.sample()
    finally:
        traced_s = time.perf_counter() - t0
        tracer.uninstall()
    if unwired:
        raise RuntimeError("tracer left original entry points in place: %s" % unwired)

    dumps = [tracer.dump()]
    startup = []
    for i, rep in enumerate(getattr(wl, "child_reports", [])):
        for s in rep["trace"]["spans"]:
            s[tr.REQ] = i
        dumps.append(rep["trace"])
        startup.append(rep["startup_s"])
    trace = tr.merge(dumps)
    n = len(results)
    metrics = {k: (v, n) for k, v in tr.layer_metrics(trace).items()}
    metrics["cli.startup_s"] = (statistics.median(startup) if startup else 0.0,
                                len(startup))
    micro = tr.scalar_microbench(random.Random(seed))
    metrics.update({k: (v, 5) for k, v in micro.items()})
    metrics["trace.overhead_frac"] = (
        (traced_s * traced_host.factor()) / (plain_s * plain_host.factor()) - 1.0, n)

    detail = {
        "workload": wl.name, "seed": seed, "requests": n,
        "untraced_round_s": plain_s, "traced_round_s": traced_s,
        "completion": tr.completion_detail(trace["spans"]),
        "census": sorted({(i["preset"], i["pairs"], i["joinable"])
                          for s in trace["spans"] if s[tr.NAME] == "rewrite.critical_pairs"
                          for i in [s[tr.INFO]] if not i["preset"].startswith("_")}),
        "metadata": metadata(),
    }
    if wl.name == "reduce-sym":
        detail["x^n*dth"] = xn_dth_probe()
    out_dir = BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / ("trace-%s.json" % wl.name), "w") as fh:
        json.dump(dict(detail, counts=trace["counts"], spans=trace["spans"]), fh)
    print_detail(detail)
    failed = count_failures(wl, plain + results)
    return metrics, len(plain) + n, failed


def xn_dth_probe():
    """Seconds to reduce x^n*dth in a fresh preset, n = 25 and 50, both
    calculus presets (the scaling baseline the ROADMAP quotes)."""
    from z3calc import parser, presets

    out = {}
    for name in ("qjh_calculus", "hj_calculus"):
        for n in (25, 50):
            P = presets.build(name)
            w = parser.parse("x^%d*dth" % n, P)
            t0 = time.perf_counter()
            P.normal_form(w)
            out["%s x^%d*dth" % (name, n)] = time.perf_counter() - t0
    return out


def metadata():
    src_lines = sum(len(p.read_text().splitlines()) for p in (SRC / "z3calc").glob("*.py"))
    return {"src_lines": src_lines, "python": platform.python_version(),
            "nproc": os.cpu_count()}


def print_detail(detail):
    print("traced round: %d requests, untraced %.3fs, traced %.3fs" % (
        detail["requests"], detail["untraced_round_s"], detail["traced_round_s"]))
    for preset, pairs, joinable in detail["census"]:
        print("  census %-16s pairs %5d  joinable %5d" % (preset, pairs, joinable))
    for st in detail["completion"]:
        line = "  %-8s rules %3d -> %3d  %.3fs" % (
            st["stage"], st["rules_in"], st["rules_out"], st["s"])
        if st["stage"] == "saturate":
            line += "  %d sweeps, pairs %s" % (len(st["sweeps"]), st["sweeps"])
        print(line)
    for k, v in detail.get("x^n*dth", {}).items():
        print("  %-26s %.3fs" % (k, v))
    print("  metadata %s" % json.dumps(detail["metadata"]))


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_one(name, seed, seconds, trace):
    spec = load_spec()
    wl = WORKLOADS[name]()
    if trace:
        metrics, attempted, failed = traced(wl, seed)
        wanted = spec["per_layer"]
    else:
        metrics, attempted, failed = measure(wl, seed, seconds)
        wanted = spec["end_to_end"]
    print("%s seed %d: %d requests, %d failed (fail_frac %.4f)" % (
        name, seed, attempted, len(failed), len(failed) / attempted))
    for key, err in failed[:10]:
        print("  FAILED %s: %s" % (key, err))
    out = {}
    for m in wanted:
        value, samples = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        print("  %-38s %14.6g %-6s (n=%d)" % (m["name"], value, m["unit"], samples))
    print(json.dumps({"correct": not failed, "attempted": attempted,
                      "failed": len(failed), "metrics": out}))


def run_all(seed, seconds, trace):
    code = 0
    for name in WORKLOADS:
        print("== %s" % name, flush=True)
        r = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                            "--workload", name, "--seed", str(seed),
                            "--seconds", str(seconds), "--trace", str(trace)])
        code = code or r.returncode
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    run_one(args.workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
