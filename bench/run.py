"""The hanoikernel benchmark: four workloads, each pass in its own process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is the directory above this file, and the
program under test is its ``src/`` tree, used as is (nothing is installed).
Scratch files go to ``.bench_build/`` in the checkout.

--trace 0 times the chosen workload with tracing off and reports the
end-to-end metrics of BENCHMARK.json, CPU times at reference speed (see
speed.py). --trace 1 makes one untraced and one
traced pass of every workload, runs the isolated layer rows, and reports the
per-layer metrics of BENCHMARK.json; the full self-time table is printed
and written to .bench_build/trace/. Every output is checked; the last line
of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import queries
import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
GOLDEN = BENCH / "golden"
WORK = ROOT / ".bench_build"
SRC = ROOT / "src"

# hanoikernel's CLI, run in-process by a child that samples machine speed.
CLI = [sys.executable, str(BENCH / "child.py"), "cli", "--speed"]
CLI_WORKLOADS = {
    "kernel-d5": ["kernel-report", "--n-max", "3", "--depth", "5", "--slow"],
    "verify-d4": ["verify", "all", "--depth", "4"],
    "relators-d8": ["relators", "--max-tau", "8", "--depth", "8"],
}
WORKLOADS = tuple(CLI_WORKLOADS) + ("sift-d5",)
# Set-up of a CLI workload: interpreter, package import and parser.
SETUP_ARGV = ["verify", "--list"]
SETUP_GOLDEN = "verify-list"
SETUP_PROBES = 9
MIN_PASSES = 3
SIFT_DEPTH = 5
SIFT_QUERIES = 2000
# |G_5| = 6 * prod_{n<5} 2^(2*3^(n-1)) * 3^(3^n)
G5_ORDER = 2**81 * 3**121


@dataclass
class Setup:
    """Set-up CPU time at reference speed, raw CPU time and wall time."""

    norm_cpu_s: float
    cpu_s: float
    wall_s: float


class SetupError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


@dataclass
class Pass:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit: int
    stdout: bytes
    # Reference slices the pass ran (speed.py): their CPU time and count.
    ref_s: float = 0.0
    slices: int = 0

    def sampled(self, data: dict) -> dict:
        self.ref_s, self.slices = data["speed"]["ref_s"], data["speed"]["slices"]
        return data

    @property
    def program_cpu_s(self) -> float:
        return self.cpu_s - self.ref_s

    @property
    def norm_cpu_s(self) -> float:
        return speed.at_reference_speed(self.program_cpu_s, self.ref_s, self.slices)


@dataclass
class Tally:
    """Checked operations and the ones whose output was wrong."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    # A fixed hash seed keeps set and dict iteration order, and so the work
    # a pass does, the same from run to run.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], name: str) -> Pass:
    """Run one process to completion; wall time from start to exit, CPU and
    peak RSS from its own rusage."""
    out_path, err_path = WORK / f"{name}.out", WORK / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Pass(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        exit=proc.returncode,
        stdout=out_path.read_bytes(),
    )


def child_json(p: Pass, what: str) -> dict:
    if p.exit != 0:
        raise RuntimeError(f"{what} exited with {p.exit}; see {WORK}")
    return json.loads(p.stdout)


def golden(name: str) -> tuple[bytes, int]:
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    return (GOLDEN / f"{name}.stdout").read_bytes(), codes[name]


def repeat_passes(run_pass, seconds: float) -> list[Pass]:
    """At least MIN_PASSES passes; more while the next one is expected to
    end within the time budget."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or (
        time.perf_counter() - start + statistics.median(p.wall_s for p in passes)
        <= seconds
    ):
        passes.append(run_pass(len(passes)))
    return passes


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


# -- CLI workloads -------------------------------------------------------------


def cli_child(argv: list[str], name: str, tag: str, tally: Tally) -> Pass:
    """One CLI process with speed sampling; its exit code and stdout checked
    against the golden output `name`."""
    p = run_child(CLI + argv, f"{name}-{tag}")
    out = p.sampled(child_json(p, f"{name} {tag}"))
    expected, code = golden(name)
    tally.check(
        out["exit"] == code and out["stdout"].encode() == expected,
        f"{name} {tag}: output differs",
    )
    return p


def cli_pass(workload: str, tally: Tally, tag: str) -> Pass:
    return cli_child(CLI_WORKLOADS[workload], workload, tag, tally)


def setup_probes(tally: Tally) -> list[Setup]:
    """Cold set-up processes, one after another. One runs only a few
    reference slices, so their slices together give the speed."""
    probes = [cli_child(SETUP_ARGV, SETUP_GOLDEN, f"setup{i}", tally) for i in range(SETUP_PROBES)]
    ref_s, slices = sum(p.ref_s for p in probes), sum(p.slices for p in probes)
    return [
        Setup(speed.at_reference_speed(p.program_cpu_s, ref_s, slices), p.cpu_s, p.wall_s)
        for p in probes
    ]


def timed_cli(workload: str, seconds: float, tally: Tally) -> dict:
    setups = setup_probes(tally)
    passes = repeat_passes(lambda i: cli_pass(workload, tally, f"pass{i}"), seconds)
    return pass_metrics(passes, setups)


# -- sift-d5 -------------------------------------------------------------------


def write_queries(seed: int) -> tuple[Path, list[bool]]:
    pairs = queries.make_queries(seed, SIFT_QUERIES, SIFT_DEPTH)
    path = WORK / f"queries-{seed}.json"
    path.write_text(json.dumps([list(p) for p, _ in pairs]))
    return path, [truth for _, truth in pairs]


def sift_pass(
    query_file: Path, truths: list[bool], tally: Tally, tag: str, spans: Path | None = None
) -> tuple[Pass, dict]:
    argv = [sys.executable, str(BENCH / "child.py"), "sift"]
    argv += ["--speed"] if spans is None else ["--trace", str(spans)]
    p = run_child(argv + [str(query_file)], f"sift-d5-{tag}")
    data = child_json(p, f"sift-d5 {tag}")
    if spans is None:
        p.sampled(data)
    tally.check(data["order"] == G5_ORDER, f"sift-d5 {tag}: |G_5| = {data['order']}")
    for i, (answer, truth) in enumerate(zip(data["answers"], truths, strict=True)):
        tally.check(answer == truth, f"sift-d5 {tag}: query {i} answered {answer}")
    return p, data


def sift_latency_metrics(latencies_ns: list[int]) -> dict:
    ordered = sorted(latencies_ns)
    return {
        "sift_p50_us": percentile(ordered, 0.50) / 1e3,
        "sift_p99_us": percentile(ordered, 0.99) / 1e3,
        "sifts_per_s": len(ordered) / (sum(ordered) / 1e9),
        "sift_samples": len(ordered),
    }


def timed_sift(seed: int, seconds: float, tally: Tally) -> dict:
    query_file, truths = write_queries(seed)
    results = []

    def run_pass(i: int) -> Pass:
        p, data = sift_pass(query_file, truths, tally, f"pass{i}")
        results.append(data)
        return p

    passes = repeat_passes(run_pass, seconds)
    # Every slice of a sift pass runs in its set-up (child.py).
    setups = [
        Setup(
            speed.at_reference_speed(d["setup_cpu_s"] - p.ref_s, p.ref_s, p.slices),
            d["setup_cpu_s"],
            d["setup_wall_s"],
        )
        for p, d in zip(passes, results, strict=True)
    ]
    metrics = pass_metrics(passes, setups)
    metrics.update(sift_latency_metrics([t for d in results for t in d["latency_ns"]]))
    return metrics


def pass_metrics(passes: list[Pass], setups: list[Setup]) -> dict:
    """Medians over passes and set-ups. The declared times are CPU times at
    reference speed (speed.py); raw CPU and wall time are printed beside
    them."""
    def show(label: str, values) -> None:
        print(f"# {label:17s} {[round(v, 3) for v in values]}")

    show("pass norm_cpu_s", (p.norm_cpu_s for p in passes))
    show("pass cpu_s", (p.cpu_s for p in passes))
    show("pass slice_ms", (1e3 * p.ref_s / p.slices for p in passes))
    show("pass wall_s", (p.wall_s for p in passes))
    show("setup norm_cpu_s", (s.norm_cpu_s for s in setups))
    show("setup cpu_s", (s.cpu_s for s in setups))
    show("setup wall_s", (s.wall_s for s in setups))
    return {
        "norm_cpu_s": statistics.median(p.norm_cpu_s for p in passes),
        "cpu_s": statistics.median(p.cpu_s for p in passes),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "setup_s": statistics.median(s.norm_cpu_s for s in setups),
        "setup_cpu_s": statistics.median(s.cpu_s for s in setups),
        "setup_wall_s": statistics.median(s.wall_s for s in setups),
        "peak_rss_mb": statistics.median(p.rss_mb for p in passes),
        "passes": len(passes),
        "setups": len(setups),
    }


# -- traced run ----------------------------------------------------------------


def traced_workload(workload: str, seed: int, tally: Tally) -> tuple[dict, dict]:
    """One untraced and one traced pass; per-layer metrics and the summary."""
    spans = WORK / "trace" / f"{workload}.spans.jsonl"
    if workload == "sift-d5":
        query_file, truths = write_queries(seed)
        plain, data = sift_pass(query_file, truths, tally, "untraced")
        traced, traced_data = sift_pass(query_file, truths, tally, "traced", spans)
        summary = traced_data["trace"]
        extra = sift_latency_metrics(data["latency_ns"])
    else:
        plain = cli_pass(workload, tally, "untraced")
        argv = [sys.executable, str(BENCH / "child.py"), "cli", "--trace", str(spans)]
        traced = run_child(argv + CLI_WORKLOADS[workload], f"{workload}-traced")
        out = child_json(traced, f"{workload} traced")
        expected, code = golden(workload)
        tally.check(
            out["exit"] == code and out["stdout"].encode() == expected,
            f"{workload} traced: output differs",
        )
        summary = out["trace"]
        extra = {}
    summary["untraced_cpu_s"] = plain.program_cpu_s
    summary["traced_cpu_s"] = traced.cpu_s

    metrics = {f"{m}.self_s": s for m, s in summary["self_s"].items()}
    metrics.update({f"{m}.calls": n for m, n in summary["calls"].items()})
    metrics.update(summary["inclusive_s"])
    metrics["permgroup.contains.calls"] = summary["by_name"].get("permgroup.PermGroup.contains", 0)
    metrics["words.evaluate.calls"] = summary["by_name"].get("words.evaluate", 0)
    metrics["analysis.cache_reuse"] = summary["cache_reuse"]
    metrics["trace_overhead_s"] = traced.cpu_s - plain.program_cpu_s
    metrics.update(extra)
    return {f"{workload}.{k}": v for k, v in metrics.items()}, summary


def isolated_rows(names: list[str], tally: Tally) -> dict:
    """The warm rows in one process, then each cold row in its own."""
    rows_py = [sys.executable, str(BENCH / "rows.py")]
    outputs = [child_json(run_child(rows_py + ["warm"], "rows-warm"), "warm rows")]
    for name in names:
        if name.startswith("analysis.lemma.") or name == "words.evaluate_ms.tau8-d8":
            outputs.append(child_json(run_child(rows_py + ["cold", name], f"rows-{name}"), name))
    rows = {}
    for out in outputs:
        rows.update(out["rows"])
        for name, ok in out["checks"].items():
            tally.check(ok, f"row {name}: result disagrees with theory")
    return rows


def print_trace_table(summaries: dict) -> None:
    for workload, summary in summaries.items():
        traced = sum(summary["self_s"].values())
        print(f"# {workload}: self time by module ({summary['spans']} spans)")
        for module, seconds in sorted(summary["self_s"].items(), key=lambda kv: -kv[1]):
            share = seconds / traced if traced else 0.0
            calls = summary["calls"].get(module, 0)
            print(f"#   {module:13s} {seconds:9.4f} s  {share:6.1%}  {calls:9d} calls")
        print(f"#   {'perm':13s} {'(counted)':>11s}  {'':6s}  {summary['calls'].get('perm', 0):9d} calls")
        overhead = summary["traced_cpu_s"] - summary["untraced_cpu_s"]
        print(
            f"#   tracing overhead: traced cpu {summary['traced_cpu_s']:.3f} s - "
            f"untraced cpu {summary['untraced_cpu_s']:.3f} s = {overhead:+.3f} s"
        )


def traced_run(seed: int, per_layer: list[str], tally: Tally) -> dict:
    (WORK / "trace").mkdir(exist_ok=True)
    metrics, summaries = {}, {}
    for workload in WORKLOADS:
        layer, summaries[workload] = traced_workload(workload, seed, tally)
        metrics.update(layer)
    metrics.update(isolated_rows(per_layer, tally))
    (WORK / "trace" / "summary.json").write_text(
        json.dumps({"summaries": summaries, "metrics": metrics}, indent=2, sort_keys=True)
    )
    print_trace_table(summaries)
    return metrics


# -- entry ---------------------------------------------------------------------


def check_checkout() -> dict:
    """The benchmark definition, once the checkout holds the program."""
    if not (SRC / "hanoikernel" / "cli.py").is_file():
        raise SetupError(f"no program source at {SRC / 'hanoikernel'}")
    WORK.mkdir(exist_ok=True)
    # Untimed warm-up, which also proves which package the children import.
    probe = run_child(
        [sys.executable, "-c", "import hanoikernel; print(hanoikernel.__file__)"], "probe"
    )
    location = Path(probe.stdout.decode().strip()).resolve()
    if probe.exit != 0 or SRC.resolve() not in location.parents:
        raise SetupError(f"children import hanoikernel from {location}, not {SRC}")
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        spec = check_checkout()
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    tally = Tally()
    if args.trace:
        declared = spec["per_layer"]
        measured = traced_run(args.seed, [m["name"] for m in declared], tally)
    else:
        declared = spec["end_to_end"]
        if args.workload == "sift-d5":
            measured = timed_sift(args.seed, args.seconds, tally)
        else:
            measured = timed_cli(args.workload, args.seconds, tally)
        measured["pass_rate"] = 1 - tally.failed / tally.attempted
        measured["fail_rate"] = tally.failed / tally.attempted

    label = "traced" if args.trace else args.workload
    for name, value in sorted(measured.items()):
        print(f"# {label} {name} = {value:.6g}")
    for note in tally.notes[:20]:
        print(f"# FAIL {note}")
    missing = [m["name"] for m in declared if m["name"] not in measured]
    if missing:
        print(f"error: not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
