#!/usr/bin/env python3
"""hodgeform benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is taken from ``src/``.
Workloads (see perfbench/README.md for why each exists):

- ``analyze_torus4``, ``analyze_surface32``: repeated cold
  ``hodgeform analyze --all`` passes, one fresh process and one freshly
  written input file per pass, one pass at a time (closed loop, one client).
  ``BENCHMARK.json`` lists ``analyze_torus4`` only; ``analyze_surface32`` is
  kept for runs by hand.
- ``search_s2xs2``: one process evaluates a seeded stream of weight
  candidates with ``formality_residual`` (closed loop, one client).

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run, in
which operations alternate between untraced and traced (the layer wrappers
of ``layertrace.py`` installed).  Every operation's output is checked; a wrong
output counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from math import comb, isfinite
from pathlib import Path

from layertrace import BASIS, load, reduce_spans

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# What the ``hodgeform`` console script runs.
ENTRY = "import sys; from hodgeform.cli import main; sys.exit(main())"
SETUP_REPEATS = 5
HARD_LIMIT_S = 165.0  # every run ends inside the 180 s allowed
RESIDUAL_MAX = 1e-8
AGGREGATE_MAX = 1.0 + 1e-12


@dataclass(frozen=True)
class Analyze:
    complex: str
    betti: tuple[int, ...]
    exit_code: int
    fired: tuple[str, ...]
    intersection: dict
    pairs: int


@dataclass(frozen=True)
class Search:
    complex: str


WORKLOADS = {
    "analyze_torus4": Analyze(
        complex="torus:4",
        betti=tuple(comb(4, k) for k in range(5)),
        exit_code=0,
        fired=(),
        intersection={"b_plus": 3, "b_minus": 3},
        pairs=163,
    ),
    "analyze_surface32": Analyze(
        complex="surface:32",
        betti=(1, 2 * 32, 1),
        exit_code=1,
        fired=("R1", "R5"),
        intersection={"skew_rank": 64},
        pairs=4227,
    ),
    "search_s2xs2": Search(complex="product:sphere:2,sphere:2"),
}

UNITS = (("_ms", "ms"), ("_per_s", "1/s"), ("_mb", "MB"), ("_s", "s"), ("_ratio", "ratio"))
STAGES = ("betti", "hodge", "formality", "obstructions")


class Clock:
    """Remaining time before the hard limit of one benchmark run."""

    def __init__(self):
        self.start = time.perf_counter()

    def remaining(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.start)


@dataclass
class Child:
    code: int
    wall_s: float
    end: float
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    """Environment of every measured process: the checkout's library, no
    disk cache, one BLAS thread.  On a host of a few shared CPUs a second
    BLAS thread waits on whichever CPU the host is slowing at the moment."""
    env = dict(os.environ)
    env.pop("HODGEFORM_CACHE_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], env: dict, clock: Clock, log: Path) -> Child:
    """Run one process to completion; wall time from just before the launch
    to its reaping, peak RSS from that process's own rusage."""
    env = dict(env)
    with open(log.with_suffix(".out"), "w+") as out, open(log.with_suffix(".err"), "w+") as err:
        launch = time.perf_counter()
        env["PERFBENCH_LAUNCH"] = repr(launch)
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(clock.remaining(), 1.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.perf_counter()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(
            proc.returncode, end - launch, end, usage.ru_maxrss / 1024.0, out.read(), err.read()
        )


def setup(spec, seed: int, env: dict, clock: Clock, work: Path):
    """Generate the inputs SETUP_REPEATS times in fresh processes; return the
    set-up times, the inputs directory and the recorded environment."""
    times, outputs, info = [], [], None
    for i in range(SETUP_REPEATS):
        out = work / f"setup{i}"
        out.mkdir()
        argv = [sys.executable, str(BENCH / "make_inputs.py"), spec.complex, str(out)]
        if isinstance(spec, Search):
            argv += ["--weights-seed", str(seed)]
        child = run_child(argv, env, clock, out / "log")
        if child.code != 0:
            raise RuntimeError(f"set-up failed ({child.code}): {child.stderr.strip()}")
        times.append(child.wall_s)
        info = json.loads(child.stdout.strip().splitlines()[-1])
        outputs.append(
            tuple((out / name).read_bytes() for name in ("complex.json", "weights.json") if (out / name).exists())
        )
    if len(set(outputs)) != 1:
        raise RuntimeError("set-up is not deterministic: repeated runs wrote different inputs")
    return times, work / "setup0", info


def write_variant(base: dict, seed: int, index: int, path: Path) -> None:
    """Write the complex with fresh vertex ids (order-preserving, so the
    canonical complex is unchanged), shuffled facets and shuffled vertices
    within facets: new bytes, same arithmetic."""
    rng = random.Random(f"{seed}/{index}")
    count = 1 + max(v for facet in base["facets"] for v in facet)
    ids = sorted(rng.sample(range(10 * count), count))
    facets = [[ids[v] for v in facet] for facet in base["facets"]]
    for facet in facets:
        rng.shuffle(facet)
    rng.shuffle(facets)
    path.write_text(json.dumps({"name": base["name"], "facets": facets}))


def read_report(path: Path) -> dict | None:
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def check_pass(spec: Analyze, code: int, report: dict | None, reference: list) -> list[str]:
    """Deviations of one analyze pass from the expected output."""
    problems = []
    if code != spec.exit_code:
        problems.append(f"exit code {code}, expected {spec.exit_code}")
    if report is None:
        return problems + ["no readable report"]
    try:
        if report.get("errors"):
            problems.append(f"stage errors {report['errors']}")
        betti = tuple(report["homology"]["betti"])
        if betti != spec.betti:
            problems.append(f"betti {betti}, expected {spec.betti}")
        degrees = report["hodge"]["degrees"]
        if len(degrees) != len(spec.betti):
            problems.append(f"{len(degrees)} hodge degrees, expected {len(spec.betti)}")
        for entry in degrees:
            k, residual = entry["degree"], entry["residual"]
            if k >= len(spec.betti) or entry["dimension"] != spec.betti[k]:
                problems.append(f"degree {k}: basis size {entry['dimension']}")
            if not (isfinite(residual) and residual <= RESIDUAL_MAX):
                problems.append(f"degree {k}: harmonicity residual {residual!r}")
        form = report["hodge"]["intersection"] or {}
        for key, value in spec.intersection.items():
            if form.get(key) != value:
                problems.append(f"intersection {key} = {form.get(key)}, expected {value}")
        formality = report["formality"]
        if len(formality["pairs"]) != spec.pairs:
            problems.append(f"{len(formality['pairs'])} pairs, expected {spec.pairs}")
        aggregate = formality["aggregate"]
        if not (isfinite(aggregate) and 0.0 <= aggregate <= AGGREGATE_MAX):
            problems.append(f"aggregate {aggregate!r} outside [0, {AGGREGATE_MAX!r}]")
        fired = tuple(rule["rule"] for rule in report["obstructions"]["fired"])
        if fired != spec.fired:
            problems.append(f"fired rules {fired}, expected {spec.fired}")
        canonical = json.dumps({k: v for k, v in report.items() if k != "timings"}, sort_keys=True)
        if not reference:
            reference.append(canonical)
        elif canonical != reference[0]:
            problems.append("canonical report differs from the run's first pass")
    except (KeyError, TypeError) as exc:
        problems.append(f"malformed report: {type(exc).__name__}: {exc}")
    return problems


def p90(values: list[float]) -> float:
    """90th percentile by inclusive interpolation; the value itself for one sample."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(op_times, elapsed, ops, rss, setup_times) -> dict:
    """The mean, not the median, of the operation times: the host switches
    between a fast and a slow state for seconds at a time, so a run's times
    are a mix of two clusters whose median jumps from one to the other as
    their shares shift, while the mean moves in proportion."""
    return {
        "op_mean_ms": 1000.0 * statistics.fmean(op_times),
        "op_p90_ms": 1000.0 * p90(op_times),
        "ops_per_s": ops / elapsed,
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup_times),
    }


def sum_totals(dumps: list[dict]) -> tuple[dict, dict]:
    totals: dict = {}
    tallies = dict.fromkeys(("basis_calls", "basis_repeats", "basis_with_previous", "basis_same_wk"), 0)
    for dump in dumps:
        for name, value in reduce_spans(dump).items():
            totals[name] = totals.get(name, 0) + value
        for name in tallies:
            tallies[name] += dump[name]
    return totals, tallies


def per_layer(dumps: list[dict], traced: list[float], untraced: list[float], outside: float, extra: dict) -> dict:
    """Per-layer metrics of a traced run: per-operation means of the span
    totals, the harmonic-basis ratios, ``extra``, and the tracing figures.
    ``outside`` is the total time of the traced operations that no span can
    cover (import and exit of a traced pass)."""
    totals, tallies = sum_totals(dumps)
    n = len(traced)
    out = {name: value / n for name, value in totals.items()}
    calls, previous = tallies["basis_calls"], tallies["basis_with_previous"]
    out[f"{BASIS}.repeat_ratio"] = tallies["basis_repeats"] / calls if calls else 0.0
    out[f"{BASIS}.same_wk_ratio"] = tallies["basis_same_wk"] / previous if previous else 0.0
    out.update(extra)
    accounted = outside + sum(v for k, v in totals.items() if k.endswith(".self_s"))
    out["trace.op_s"] = statistics.fmean(traced)
    out["trace.overhead_s"] = out["trace.op_s"] - statistics.fmean(untraced)
    out["trace.unaccounted_s"] = out["trace.op_s"] - accounted / n
    return out


def run_analyze(spec: Analyze, args, env: dict, clock: Clock, work: Path) -> dict:
    setup_times, inputs, info = setup(spec, args.seed, env, clock, work)
    base = json.loads((inputs / "complex.json").read_text())
    walls, traced_walls, rss, failures, dumps, pairs = [], [], [], [], [], []
    stage_totals = dict.fromkeys(STAGES, 0.0)
    import_total = exit_total = 0.0
    reference: list = []
    start = time.perf_counter()
    index = 0
    while (
        time.perf_counter() - start < args.seconds or (args.trace and index < 2)
    ) and clock.remaining() > 0:
        traced = args.trace and index % 2 == 1
        complex_path = work / f"pass{index}.json"
        report_path = work / f"report{index}.json"
        spans_path = work / f"spans{index}.pickle"
        write_variant(base, args.seed, index, complex_path)
        cli_args = ["analyze", str(complex_path), "--all", "-o", str(report_path)]
        if traced:
            argv = [sys.executable, str(BENCH / "traced_cli.py"), str(spans_path)] + cli_args
        else:
            argv = [sys.executable, "-c", ENTRY] + cli_args
        child = run_child(argv, env, clock, work / f"pass{index}")
        report = read_report(report_path)
        problems = check_pass(spec, child.code, report, reference)
        if traced and report is not None and spans_path.exists():
            # a pass with a wrong result still ran every layer: keep its spans
            dump = load(spans_path)
            for stage in STAGES:
                stage_totals[stage] += report.get("timings", {}).get(stage, 0.0)
            pairs.append(len(report.get("formality", {}).get("pairs", [])))
            import_total += dump["import_s"]
            exit_total += child.end - float(child.stdout.split()[-1])
            dumps.append(dump)
            traced_walls.append(child.wall_s)
        elif not traced:
            walls.append(child.wall_s)
            rss.append(child.rss_mb)
        if problems:
            failures.append(f"pass {index}: " + "; ".join(problems))
        for path in (complex_path, report_path, spans_path):
            path.unlink(missing_ok=True)
        index += 1
    elapsed = time.perf_counter() - start
    result = {"attempted": index, "failed": len(failures), "failures": failures, "env": info}
    if not args.trace:
        result["metrics"] = end_to_end(walls, elapsed, index, statistics.median(rss), setup_times)
        result["named"] = {
            "analyze_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (result["metrics"]["peak_rss_mb"], "MB"),
            "setup_s": (result["metrics"]["setup_s"], "s"),
        }
        return result
    if not dumps or not walls:
        raise RuntimeError("the traced run needs a traced and an untraced pass that complete")
    n = len(dumps)
    extra = {f"cli.stage.{stage}_s": stage_totals[stage] / n for stage in STAGES}
    extra["cli.import_s"] = import_total / n
    extra["cli.exit_s"] = exit_total / n
    extra["formality.pairs"] = statistics.fmean(pairs)
    outside = import_total + exit_total
    result["metrics"] = per_layer(dumps, traced_walls, walls, outside, extra)
    return result


def run_search(spec: Search, args, env: dict, clock: Clock, work: Path) -> dict:
    setup_times, inputs, info = setup(spec, args.seed, env, clock, work)
    result_path = work / "search.json"
    argv = [
        sys.executable,
        str(BENCH / "search_worker.py"),
        str(inputs / "complex.json"),
        str(inputs / "weights.json"),
        str(result_path),
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ]
    if args.trace:
        argv += ["--trace", str(work / "spans.pickle")]
    child = run_child(argv, env, clock, work / "search")
    if child.code != 0:
        raise RuntimeError(f"search worker failed ({child.code}): {child.stderr.strip()}")
    data = json.loads(result_path.read_text())
    untraced = [t for t, on in zip(data["times"], data["traced"]) if not on]
    result = {
        "attempted": data["attempted"],
        "failed": data["failed"],
        "failures": data["errors"],
        "env": info,
    }
    if not args.trace:
        metrics = end_to_end(untraced, data["elapsed_s"], len(untraced), child.rss_mb, setup_times)
        result["metrics"] = metrics
        result["named"] = {
            "candidates_per_s": (metrics["ops_per_s"], "1/s"),
            "candidate_p90_ms": (metrics["op_p90_ms"], "ms"),
            "peak_rss_mb": (metrics["peak_rss_mb"], "MB"),
            "setup_s": (metrics["setup_s"], "s"),
        }
        return result
    traced = [t for t, on in zip(data["times"], data["traced"]) if on]
    pairs = [p for p, on in zip(data["pairs"], data["traced"]) if on]
    extra = {f"cli.stage.{stage}_s": 0.0 for stage in STAGES}
    extra["cli.import_s"] = data["import_s"]
    extra["cli.exit_s"] = 0.0
    extra["formality.pairs"] = statistics.fmean(pairs)
    spans = load(work / "spans.pickle")
    result["metrics"] = per_layer([spans], traced, untraced, 0.0, extra)
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "hodgeform" / "cli.py").is_file():
        print(f"error: no hodgeform sources under {SRC}", file=sys.stderr)
        return 2

    clock = Clock()
    spec = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        runner = run_analyze if isinstance(spec, Analyze) else run_search
        result = runner(spec, args, child_env(), clock, work)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run still has files there
            pass

    failed, attempted = result["failed"], result["attempted"]
    print("env " + json.dumps(result["env"], sort_keys=True))
    for line in result["failures"]:
        print(f"failed: {line}")
    for name, (value, unit) in result.get("named", {}).items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} error_rate {failed / attempted:.6g} ({failed} of {attempted})")
    metrics = {
        name: {"value": value, "unit": unit_of(name)} for name, value in result["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


def unit_of(name: str) -> str:
    """A metric's unit, read off the end of its name."""
    return next((u for suffix, u in UNITS if name.endswith(suffix)), "count")


if __name__ == "__main__":
    sys.exit(main())
