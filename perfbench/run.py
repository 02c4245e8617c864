#!/usr/bin/env python3
"""The qcheb benchmark.

    python3 perfbench/run.py --workload verify_all --seed 0 --seconds 38 --trace 0

Run from the repository root (or anywhere: paths resolve from this file).
With `--trace 0` every command of the workload runs as the CLI a user runs,
`python -m qcheb.cli ...` in a fresh interpreter, closed loop with one client,
repeated while another rep fits in `--seconds` (at least three reps); the
end-to-end metrics are medians over those reps.  With `--trace 1` the same commands run in this process
through `qcheb.cli.main`, alternating untraced and traced reps, and the
per-layer metrics come from the traced reps (see tracer.py) plus the
fixed-operand microbenchmarks (see micro.py).  `--workload all` runs every
workload both ways.

Every command's exit code and stdout sha256 are checked against golden.json,
recorded at the seed commit with `--record`; a mismatch counts as a failed
command, so a fast wrong answer never scores.  The metric names and units
are read from BENCHMARK.json.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

import argparse
import hashlib
import io
import json
import os
import platform
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import micro
import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

# Seeds pick (q, b) for verify_deep and gen_large from this list.  Every entry
# has the same heights as the default (3/5, 3/7), so the work per seed is the
# same, and none has a pole at b-levels -12..40: q^j b = 1 and q^j = -1 are
# impossible for these numerators and denominators.
POINTS = (("3/5", "3/7"), ("-3/5", "3/7"), ("3/5", "-3/7"), ("-3/5", "-3/7"))

MIN_REPS = 3
SETUP_SAMPLES = 15
IMPORT_SAMPLES = 7
HARD_LIMIT_S = 150.0  # stop starting reps past this, to exit well within 180 s
SETUP_CODE = "import qcheb.cli; qcheb.cli.build_parser()"
IMPORT_CODE = ("import time; t = time.perf_counter(); import qcheb.cli; "
               "print(time.perf_counter() - t)")
MICRO_RESERVE_S = 12.0  # the traced run leaves this much of --seconds for micro.py
SUMMARY = re.compile(rb'"pass": (\d+),\s*"fail": (\d+)')


def point(seed):
    return POINTS[seed % len(POINTS)]


def verify_all(seed):
    """The acceptance gate users run: every suite, serial, 4 q x 4 b samples."""
    return [["verify", "--suite", "all", "--format", "json"]]


def verify_deep(seed):
    """The core checks at one point out to n = 40 on two workers."""
    q, b = point(seed)
    return [["verify", "--suite", "core", "--max-n", "40", f"--q={q}", f"--b={b}",
             "--parallelism", "2", "--format", "json"]]


def gen_large(seed):
    """The write path: memoized primary recurrences and JSON output."""
    q, b = point(seed)
    return [
        ["gen", "--family", "T", "--n", "100", f"--q={q}", "--format", "json"],
        ["gen", "--family", "F_QB", "--n", "60", f"--q={q}", f"--b={b}", "--format", "json"],
    ]


WORKLOADS = {"verify_all": verify_all, "verify_deep": verify_deep, "gen_large": gen_large}


def key(argv):
    return " ".join(argv)


def all_commands():
    seen = {}
    for make in WORKLOADS.values():
        for seed in range(len(POINTS)):
            for argv in make(seed):
                seen[key(argv)] = argv
    return list(seen.values())


# -- checking -----------------------------------------------------------


def check(argv, code, digest, head, golden):
    """None if the command's result matches the seed commit, else why not."""
    want = golden.get(key(argv))
    if want is None:
        return "no golden record"
    if code != want["exit"]:
        return f"exit {code}, expected {want['exit']}"
    if digest != want["sha256"]:
        return "stdout differs from the seed commit"
    if argv[0] == "verify":
        found = SUMMARY.search(head)
        if not found or int(found[2]) != 0 or int(found[1]) != want["pass"]:
            return "summary is not all-pass"
    return None


# -- fresh-process runs -------------------------------------------------


# A process inherits its parent's peak RSS at exec (Linux keeps the old
# address space's high-water mark), so each command is spawned from a bare
# `python -S` launcher whose own peak (about 8 MB) is below that of any qcheb
# process.  The launcher reports the command's exit code, wall time and peak
# RSS in KB from wait4 as the last line of its stderr.
LAUNCHER = """\
import os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, "-m", "qcheb.cli", *sys.argv[1:]],
                     os.environ)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
sys.stderr.write(f"\\n{os.waitstatus_to_exitcode(status)} {wall!r} {usage.ru_maxrss}\\n")
"""


def run_fresh(argv, time_left):
    """Run one CLI command in a fresh interpreter.  Returns its wall seconds,
    peak RSS in MB, exit code (None if the launcher was killed), stdout
    sha256 and the first 4 KiB of stdout."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-S", "-c", LAUNCHER, *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=ENV, cwd=ROOT, start_new_session=True,
    )
    watchdog = threading.Timer(max(time_left, 1.0), os.killpg, (proc.pid, signal.SIGKILL))
    watchdog.start()
    digest, head = hashlib.sha256(), b""
    with proc.stdout:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            digest.update(chunk)
            if len(head) < 4096:
                head += chunk[: 4096 - len(head)]
    with proc.stderr:
        last = proc.stderr.read().split(b"\n")[-2:-1]
    watchdog.cancel()
    proc.wait()
    try:
        code, wall, peak_kb = last[0].split()
        return float(wall), int(peak_kb) / 1024, int(code), digest.hexdigest(), head
    except (IndexError, ValueError):
        return time.perf_counter() - t0, 0.0, None, digest.hexdigest(), head


def fresh_python(code, samples):
    """(wall seconds, stdout) of `python -c code`, each in a fresh interpreter."""
    runs = []
    for _ in range(samples):
        t0 = time.perf_counter()
        res = subprocess.run([sys.executable, "-c", code], env=ENV, cwd=ROOT, check=True,
                             capture_output=True, text=True)
        runs.append((time.perf_counter() - t0, res.stdout))
    return runs


def measure(workload, seed, seconds, golden, spec):
    """The untraced run: end-to-end metrics."""
    commands = WORKLOADS[workload](seed)
    setup = [wall for wall, _ in fresh_python(SETUP_CODE, SETUP_SAMPLES)]
    walls, rss, attempted, failed = [], [], 0, 0
    start = time.monotonic()
    while True:
        rep_wall, rep_rss = 0.0, 0.0
        for argv in commands:
            wall, peak, code, digest, head = run_fresh(
                argv, HARD_LIMIT_S - (time.monotonic() - start)
            )
            attempted += 1
            problem = check(argv, code, digest, head, golden)
            if problem:
                failed += 1
                print(f"FAILED {key(argv)}: {problem}", file=sys.stderr)
            rep_wall += wall
            rep_rss = max(rep_rss, peak)
        walls.append(rep_wall)
        rss.append(rep_rss)
        elapsed = time.monotonic() - start
        if elapsed + max(walls) > HARD_LIMIT_S or (
            len(walls) >= MIN_REPS and elapsed + statistics.median(walls) > seconds
        ):
            break
    wall_s = statistics.median(walls)
    units = sum(golden.get(key(argv), {}).get("units", 0) for argv in commands)
    values = {
        "wall_s": wall_s,
        "items_per_s": units / wall_s,
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setup),
    }
    alias = "checks_per_s" if commands[0][0] == "verify" else "coeffs_per_s"
    print(f"# {workload}: {len(walls)} reps of {len(commands)} command(s), walls "
          f"{[round(w, 3) for w in walls]}; setup_s over {len(setup)} samples")
    print(f"# {alias} = {values['items_per_s']:.6g} 1/s ({units} per rep)")
    print(f"# error_rate = {failed / attempted:.6g} share ({failed} of {attempted} commands)")
    return report(values, spec, attempted, failed)


# -- the traced run -----------------------------------------------------


def run_inproc(cli, argv):
    buf = io.StringIO()
    code = cli.main(list(argv), out=buf)
    data = buf.getvalue().encode()
    return code, hashlib.sha256(data).hexdigest(), data[:4096], len(data)


def measure_traced(workload, seed, seconds, golden, spec):
    """The traced run: per-layer metrics and the tracing overhead."""
    sys.path.insert(0, str(SRC))
    import qcheb

    commands = WORKLOADS[workload](seed)
    modules = tr.layer_modules(qcheb)
    clearers = tr.cache_clearers(modules)
    tracer = tr.Tracer(qcheb, modules)
    import_s = statistics.median(
        float(out) for _, out in fresh_python(IMPORT_CODE, IMPORT_SAMPLES)
    )
    attempted = failed = 0

    def rep(trace_on):
        nonlocal attempted, failed
        tracer.reset()
        if trace_on:
            tracer.install()
        tr.clear_caches(clearers)
        size = 0
        t0 = time.perf_counter()
        try:
            for argv in commands:
                code, digest, head, nbytes = run_inproc(modules["cli"], argv)
                attempted += 1
                size += nbytes
                problem = check(argv, code, digest, head, golden)
                if problem:
                    failed += 1
                    print(f"FAILED {key(argv)}: {problem}", file=sys.stderr)
        finally:
            wall = time.perf_counter() - t0
            tracer.uninstall()
        return wall, size

    untraced_walls, traced_walls, reps = [], [], []
    start = time.monotonic()
    while len(reps) < 2 or (
        time.monotonic() - start + untraced_walls[-1] + traced_walls[-1]
        < seconds - MICRO_RESERVE_S
    ):
        untraced_walls.append(rep(False)[0])
        wall, size = rep(True)
        traced_walls.append(wall)
        reps.append(layer_metrics(tracer, modules, size, spec))
        if time.monotonic() - start > HARD_LIMIT_S / 2:
            break
    counts = [{k: v for k, v in r.items() if is_count(k)} for r in reps]
    differ = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
    if differ and max((p for _, p in tracer.suite_runs), default=1) > 1:
        # The memo caches are not thread-safe: two pool workers can both
        # miss on one key and both compute it.  That is the program's
        # nondeterminism, so it is reported, not failed.
        print(f"# counts differ between traced reps under the pool: {differ}")
    elif differ:
        failed += 1
        print(f"FAILED counts differ between traced reps: {differ}", file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"{workload}.spans")

    values = {k: statistics.median(r[k] for r in reps) for k in reps[0]}
    values.update(micro.run(modules, clearers))
    values["cli.import_s"] = import_s
    values["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    values["trace.traced_wall_s"] = statistics.median(traced_walls)
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
    print(f"# {workload}: {len(reps)} untraced/traced rep pairs in-process; "
          f"{values['trace.spans']:.0f} spans written to {OUT / (workload + '.spans')}")
    return report(values, spec, attempted, failed)


def is_count(name):
    """Counts that must repeat exactly between serial traced reps.
    trace.spans is not one: under --parallelism the worker threads race on
    the lru caches of qkernel, so a few q_int calls vary between reps."""
    return name.endswith((".calls", ".coeff_products", ".items", ".output_bytes",
                          ".max_coeff_digits", ".useful_ratio"))


def layer_metrics(tracer, modules, output_bytes, spec):
    """Per-layer metrics of one traced rep."""
    named, serialize_s = tracer.totals()
    zero = (0, 0.0, 0.0)

    def calls(name):
        return named.get(name, zero)[0]

    def own(pred):
        return sum(v[2] for k, v in named.items() if pred(k))

    m = {f"{layer}.self_s": own(lambda k, p=layer + ".": k.startswith(p))
         for layer in modules}
    for fn in ("fib_qb_dilated", "lucas_qb_dilated"):
        n = calls(f"families.{fn}")
        m[f"families.{fn}.calls"] = n
        m[f"families.{fn}.useful_ratio"] = (
            len(tracer.dilated_keys[f"families.{fn}"]) / n if n else 0.0
        )
    m["families.closed_forms.self_s"] = own(lambda k: is_family(k) and is_closed_form(k))
    m["families.recurrences.self_s"] = own(lambda k: is_family(k) and not is_closed_form(k))
    m["qkernel.q_poch.calls"] = calls("qkernel.q_poch")
    m["qkernel.q_poch.self_s"] = named.get("qkernel.q_poch", zero)[2]
    info = modules["qkernel"].q_binom.cache_info()
    m["qkernel.q_binom.hit_ratio"] = (
        info.hits / (info.hits + info.misses) if info.hits + info.misses else 0.0
    )
    m["qkernel.param_point.calls"] = calls("qkernel.ParamPoint.__post_init__")
    for op, method in (("mul", "__mul__"), ("add", "__add__"), ("dilate", "dilate"),
                       ("scale", "scale"), ("to_json", "to_json")):
        m[f"polyring.{op}.calls"] = calls(f"polyring.XsPoly.{method}")
        m[f"polyring.{op}.self_s"] = named.get(f"polyring.XsPoly.{method}", zero)[2]
    m["polyring.mul.coeff_products"] = tracer.coeff_products
    m["polyring.max_coeff_digits"] = len(str(tracer.max_coeff))
    m["cli.serialize_s"] = serialize_s
    m["cli.output_bytes"] = output_bytes

    tracked = {name for name in spec if name.startswith("suites.check.")}
    m.update({name: 0.0 for name in tracked})
    for identity, seconds in tracer.items:
        name = f"suites.check.{identity}.s"
        name = name if name in tracked else "suites.check.other_s"
        m[name] += seconds
    item_s = sum(seconds for _, seconds in tracer.items)
    suite_wall = sum(wall for wall, _ in tracer.suite_runs)
    workers = max((p for _, p in tracer.suite_runs), default=1)
    m["suites.items"] = len(tracer.items)
    m["suites.runner_overhead_s"] = suite_wall - item_s / workers
    m["suites.pool_utilization"] = item_s / (suite_wall * workers) if suite_wall else 0.0
    m["trace.spans"] = tracer.span_count()
    return m


def is_family(name):
    return name.startswith("families.") and name not in (
        "families.family_poly", "families.set_fault", "families.binet_float_fib"
    )


def is_closed_form(name):
    """Closed-form routes: the *_closed and hypergeom_* sums, and fib_carlitz,
    which is the Carlitz closed-form sum; every other generator in families
    is a recurrence."""
    fn = name.split(".", 1)[1]
    return fn.endswith("_closed") or fn.startswith("hypergeom_") or fn == "fib_carlitz"


# -- output -------------------------------------------------------------


def report(values, spec, attempted, failed):
    """Print each metric of `spec` by name with its unit; return the result
    object for the last line."""
    metrics = {}
    for name, unit in spec.items():
        if name not in values:
            raise KeyError(f"metric {name} was not measured")
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{name} = {values[name]:.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def metadata():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": sha,
        "loadavg": os.getloadavg(),
    }


def record():
    """Write golden.json: exit code, stdout sha256 and size of every command
    of every workload at every listed point, plus the units of work (reports
    for verify, emitted polynomial terms for gen) and the pass count."""
    golden = {}
    for argv in all_commands():
        res = subprocess.run([sys.executable, "-m", "qcheb.cli", *argv], env=ENV,
                             cwd=ROOT, capture_output=True)
        data = json.loads(res.stdout)
        entry = {"exit": res.returncode, "sha256": hashlib.sha256(res.stdout).hexdigest(),
                 "bytes": len(res.stdout)}
        if argv[0] == "verify":
            entry["units"] = len(data["reports"])
            entry["pass"] = data["summary"]["pass"]
        else:
            entry["units"] = sum(len(row["poly"]["terms"]) for row in data["rows"])
        golden[key(argv)] = entry
        print(key(argv), entry, file=sys.stderr)
    GOLDEN.write_text(json.dumps({"meta": metadata(), "commands": golden}, indent=2) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite golden.json from the current program")
    args = parser.parse_args()
    if not (SRC / "qcheb" / "cli.py").is_file():
        sys.exit(f"error: no qcheb sources under {SRC}")
    if args.record:
        record()
        return
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    golden = json.loads(GOLDEN.read_text())["commands"]
    print("# meta " + json.dumps(metadata()))
    if args.workload != "all":
        if args.trace:
            result = measure_traced(args.workload, args.seed, args.seconds, golden, per_layer)
        else:
            result = measure(args.workload, args.seed, args.seconds, golden, e2e)
    else:
        result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            for part in (measure(name, args.seed, args.seconds, golden, e2e),
                         measure_traced(name, args.seed, args.seconds, golden, per_layer)):
                result["correct"] &= part["correct"]
                result["attempted"] += part["attempted"]
                result["failed"] += part["failed"]
                result["metrics"].update({f"{name}.{k}": v for k, v in part["metrics"].items()})
    print(json.dumps(result))


if __name__ == "__main__":
    main()
