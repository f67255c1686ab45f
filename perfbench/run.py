"""The divcensus benchmark: one workload, one seed, a fixed measuring time.

    python3 perfbench/run.py --workload census_big --seed 1 --seconds 30 --trace 0

Run it from anywhere; it measures the checkout it sits in.  Each operation
runs in a fresh single-threaded process (worker.py) with every DIVCENSUS_*
variable cleared, so the program's defaults apply: one closed-loop client,
one operation in flight.  Operations repeat until the next one would end
after --seconds.  Every output is checked exactly, outside the timed
region.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, each the median over the run's
operations.  Times are in reference-speed seconds: each worker also times
a fixed kernel right after its operation, and every time is scaled by the
kernel's full-speed time over its measured time, which cancels the host's
changes of speed (METRICS.md has the measurements).  --trace 1 alternates
traced and untraced operations and reports the per-layer metrics, medians
over the traced ones, plus the tracing overhead (traced minus untraced
wall time).  A layer a workload does not reach reads 0.  Per-operation
records, the machine facts and the recorded spans go to .perfbench/ in
the checkout.  METRICS.md says which layer metric should move which
end-to-end metric, on which workload.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

SAMPLE_TRIALS = 2_000_000
VERIFY_MAX_N = 2_000
VERIFY_LINE = (
    f"verify: fast path matches brute force (A, B, C, S and A=2S-C) for all N <= {VERIFY_MAX_N}"
)
SETUP_PROBES = 5
# The two parts of worker.reference_kernel(), numpy and interpreter, take
# about these times on the machine METRICS.md describes when it runs at
# full speed.  Times are reported in seconds of that speed:
# raw time * full-speed kernel time / measured kernel time.
REFERENCE_NUMPY_S = 0.015
REFERENCE_INTERP_S = 0.009
# The whole run has to end within 180 s, whatever the program does.
RUN_LIMIT_S = 170.0

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
    "ok_frac": "frac",
}
PER_LAYER = {
    "divisor_core.segmented_b_s": "s",
    "divisor_core.segments": "count",
    "divisor_core.sieve_increments": "count",
    "divisor_core.sieve_ns_per_increment": "ns",
    "divisor_core.summatory_calls": "count",
    "divisor_core.summatory_s": "s",
    "divisor_core.summatory_us_per_call": "us",
    "divisor_core.sieve_table_s": "s",
    "divisor_core.b_threads2_speedup": "x",
    "divisor_core.self_s": "s",
    "census.S_s": "s",
    "census.C_s": "s",
    "census.B_s": "s",
    "census.self_s": "s",
    "census.fast_calls": "count",
    "census.fast_us_per_call": "us",
    "census.oracle_s": "s",
    "sampler.build_s": "s",
    "sampler.space_bytes": "bytes",
    "sampler.draw_s": "s",
    "sampler.draws_per_s": "1/s",
    "sampler.draw_rss_growth_mib": "MiB",
    "sampler.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


class Workload:
    """One workload at one seed: the worker arguments and the output check."""

    def __init__(self, name: str, seed: int, pins: dict):
        self.name = name
        self.threads2 = False
        # verify_small is interpreter work throughout; the others mix it
        # with numpy.  A kernel that slows as the workload does cancels
        # the host's speed changes best (METRICS.md).
        self.interp_share = 1.0 if name == "verify_small" else 0.5
        if name in ("census_big", "hyperbola_big"):
            ns = sorted(pins[name], key=int)
            self.n = int(random.Random(seed).choice(ns))
            self.pin = pins[name][str(self.n)]
            if name == "census_big":
                self.argv = ["cli", "census", "--n", str(self.n)]
                self.threads2 = True
            else:
                self.argv = ["hyperbola", str(self.n)]
        elif name == "sample":
            (n,) = pins["sample"]
            self.n = int(n)
            self.pin = pins["sample"][n]
            self.sampler_seed = seed % 2**64
            self.argv = [
                "cli", "sample", "--n", str(self.n),
                "--trials", str(SAMPLE_TRIALS), "--seed", str(self.sampler_seed),
            ]
        elif name == "verify_small":
            self.n = VERIFY_MAX_N
            self.argv = ["cli", "verify", "--max-n", str(VERIFY_MAX_N)]
        else:
            raise ValueError(f"unknown workload {name!r}")

    def check(self, record: dict) -> str | None:
        """None when the operation's output is exactly right, else why not."""
        if "error" in record:
            return record["error"].strip().splitlines()[-1]
        if "wall_s" not in record:
            return "worker reported no measurement"
        if self.threads2 and "threads2_b" in record and record["threads2_b"] != self.pin["B"]:
            return f"B at threads=2 is {record['threads2_b']}, pinned {self.pin['B']}"
        out = record["output"]
        if self.name == "hyperbola_big":
            got = {"S": out["S"], "C": out["C"]}
            want = {"S": self.pin["S"], "C": self.pin["C"]}
            return None if got == want else f"got {got}, pinned {want}"
        if out["exit"] != 0:
            return f"exit code {out['exit']}"
        lines = out["stdout"].splitlines()
        if self.name == "verify_small":
            return None if lines == [VERIFY_LINE] else f"unexpected output {lines!r}"
        if len(lines) != 1:
            return f"expected one output line, got {len(lines)}"
        rec = json.loads(lines[0])
        if self.name == "census_big":
            want = {"N": self.n, "method": "fast", **self.pin}
            return None if rec == want else f"got {rec}, pinned {want}"
        return self._check_sample(rec)

    def _check_sample(self, rec: dict) -> str | None:
        # successes are deliberately not pinned: a change of draw stream
        # keeps the estimate within its error of the exact ratio.
        if (rec["N"], rec["trials"], rec["seed"]) != (self.n, SAMPLE_TRIALS, self.sampler_seed):
            return f"echoed parameters wrong: {rec}"
        if not 0 <= rec["successes"] <= SAMPLE_TRIALS:
            return f"successes out of range: {rec}"
        if not math.isclose(rec["p_hat"], rec["successes"] / SAMPLE_TRIALS, rel_tol=1e-11):
            return f"p_hat is not successes / trials: {rec}"
        exact = self.pin["A"] / self.pin["B"]
        if not 0 < rec["std_err"] or abs(rec["p_hat"] - exact) > 4 * rec["std_err"]:
            return f"p_hat {rec['p_hat']} is not within 4 std_err of A/B = {exact}"
        return None


def child_env() -> dict:
    env = {
        k: v for k, v in os.environ.items()
        if not k.startswith("DIVCENSUS_") and k != "PYTHONDONTWRITEBYTECODE"
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    # Set-up is timed with warm bytecode, as an installed package has it.
    # The cache lives outside src/, so the benchmark writes nothing there.
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(args: list[str], env: dict, deadline: float, interp_share: float) -> dict:
    """Run one worker and return its record, with the set-up time added."""
    timeout = max(1.0, deadline - time.monotonic())
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"worker killed after {timeout:.0f} s"}
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"worker exited {proc.returncode}: {err.strip()[-2000:]}"}
    try:
        record = json.loads(lines[-1])
    except ValueError:
        return {"error": f"worker printed no record: {lines[-1][:200]}"}
    record["setup_s"] = (record["ready_ns"] - t0) / 1e9
    if Path(record["package"]).resolve().parent != ROOT / "src" / "divcensus":
        record["error"] = f"measured {record['package']}, not this checkout"
    rescale(record, interp_share)
    return record


def rescale(record: dict, interp_share: float) -> None:
    """Add the worker's times in reference-speed seconds (keys *_ref_s).

    The kernel's two parts are weighted like the workload's own work:
    interp_share of interpreter work, the rest numpy.
    """
    if "reference" not in record:  # the operation raised before the kernel ran
        return

    def kernel(part: list[float], clock: int) -> float:
        return (1 - interp_share) * part[clock] + interp_share * part[2 + clock]

    full_speed = (1 - interp_share) * REFERENCE_NUMPY_S + interp_share * REFERENCE_INTERP_S
    wall_k = statistics.median(kernel(part, 0) for part in record["reference"])
    cpu_k = statistics.median(kernel(part, 1) for part in record["reference"])
    record["setup_ref_s"] = record["setup_s"] * full_speed / wall_k
    if "wall_s" in record:
        record["wall_ref_s"] = record["wall_s"] * full_speed / wall_k
        record["cpu_ref_s"] = record["cpu_s"] * full_speed / cpu_k


def measure(workload: Workload, seconds: int, trace: bool, env: dict, deadline: float) -> list[dict]:
    """Repeat the operation until the next one would end after `seconds`.

    In a traced run operations alternate traced, untraced, traced, ...; on
    census_big each traced one also times segmented B at threads=2, and
    the first one writes its spans.
    """
    ops = []
    start = time.monotonic()
    while True:
        traced = trace and len(ops) % 2 == 0
        args = []
        if traced:
            args.append("--trace")
            if workload.threads2:
                args += ["--threads2", str(workload.n)]
        if traced and not ops:
            args += ["--spans", str(OUT / f"spans-{workload.name}.npz")]
        t0 = time.monotonic()
        record = spawn(args + workload.argv, env, deadline, workload.interp_share)
        record["traced"] = traced
        record["failure"] = workload.check(record)
        record.pop("output", None)
        ops.append(record)
        now = time.monotonic()
        enough = len(ops) >= (2 if trace else 1)
        if now >= deadline or (enough and now - start + (now - t0) > seconds):
            return ops


def machine_facts() -> dict:
    def read(path: str) -> str:
        try:
            return Path(path).read_text().strip()
        except OSError:
            return ""

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = read(f"{index}/level"), read(f"{index}/type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"l{level}"] = read(f"{index}/size")
    cpu_model = ""
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    mem_total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l2": caches.get("l2"),
        "l3": caches.get("l3"),
        "mem_total_mib": mem_total // 2**20,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def median_of(ops: list[dict], key: str) -> float:
    values = [op[key] for op in ops if key in op]
    return statistics.median(values) if values else 0.0


def end_to_end(ops: list[dict], probes: list[dict], suffix: str) -> dict[str, float]:
    """Medians over the run; times from the keys ending in `suffix`."""
    failed = sum(op["failure"] is not None for op in ops)
    return {
        "wall_s": median_of(ops, "wall" + suffix),
        "cpu_s": median_of(ops, "cpu" + suffix),
        "peak_rss_mib": median_of(ops, "peak_rss_mib"),
        "setup_s": median_of(probes + ops, "setup" + suffix),
        "ok_frac": (len(ops) - failed) / len(ops),
    }


def per_layer(ops: list[dict]) -> dict[str, float]:
    traced = [op for op in ops if op["traced"] and "layers" in op]
    untraced = [op for op in ops if not op["traced"] and "wall_s" in op]
    metrics = {name: statistics.median(op["layers"][name] for op in traced)
               for name in traced[0]["layers"]}
    speedups = [op["layers"]["divisor_core.segmented_b_s"] / op["threads2_s"]
                for op in traced if "threads2_s" in op]
    metrics["divisor_core.b_threads2_speedup"] = statistics.median(speedups) if speedups else 0.0
    metrics["trace.overhead_s"] = median_of(traced, "wall_ref_s") - median_of(untraced, "wall_ref_s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["census_big", "hyperbola_big", "sample", "verify_small"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (ROOT / "src" / "divcensus" / "__init__.py").is_file():
        print(f"perfbench: no divcensus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM unwinds like an exception, so spawn() still kills its worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + RUN_LIMIT_S
    pins = json.loads((BENCH / "pins.json").read_text())
    workload = Workload(args.workload, args.seed, pins)
    OUT.mkdir(exist_ok=True)
    env = child_env()

    # The first worker fills the bytecode cache; only later ones are timed.
    warm = spawn(["setup"], env, deadline, workload.interp_share)
    if "error" in warm:
        print(f"perfbench: worker cannot start: {warm['error']}", file=sys.stderr)
        return 1
    probes = []
    if not args.trace:
        probes = [spawn(["setup"], env, deadline, workload.interp_share)
                  for _ in range(SETUP_PROBES)]
    ops = measure(workload, args.seconds, bool(args.trace), env, deadline)

    if not any("wall_s" in op for op in ops) or (args.trace and not any("layers" in op for op in ops)):
        for op in ops:
            print(f"perfbench: operation failed: {op['failure']}", file=sys.stderr)
        return 1
    raw = end_to_end(ops, probes, "_s")
    if args.trace:
        values, units = per_layer(ops), PER_LAYER
    else:
        values, units = end_to_end(ops, probes, "_ref_s"), END_TO_END
    failed = sum(op["failure"] is not None for op in ops)
    machine = {**machine_facts(), "numpy": warm["numpy"], "worker_python": warm["python"]}
    report = {
        "workload": workload.name, "seed": args.seed, "n": workload.n,
        "seconds": args.seconds, "trace": args.trace, "machine": machine,
        "setup_probes": probes, "operations": ops, "metrics": values, "raw": raw,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n"
    )
    for op in ops:
        if op["failure"] is not None:
            print(f"perfbench: operation failed: {op['failure']}", file=sys.stderr)
    print(json.dumps({"machine": machine, "workload": workload.name, "n": workload.n,
                      "operations": len(ops), "raw": raw}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
