"""Benchmark for metagx: one workload per process, or every workload in turn.

    python3 perfbench/run.py --workload family-d50-mlp --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all [--seed 1] [--seconds 40]

``--trace 0`` measures the end-to-end metrics with nothing traced; ``--trace
1`` runs traced passes (and untraced ones, for the overhead) and reports the
per-layer metrics. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--all`` runs every
workload in a fresh process in both modes and prints a table. The program is
imported from ``src/`` of the checkout this file sits in; see NOTES.md.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

_PROCESS_T0 = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 3
MIN_PASSES = 2
# Start no pass that could end past this many seconds after process start.
DEADLINE_S = 150.0
# Run ids of spans outside the passes; a traced pass's run id is its index.
SETUP_RUN, CHECK_RUN = -1, -2

# Units of the ``report`` line's entries that are not seconds.
REPORT_UNITS = {
    "train_steps_per_s": "steps/s",
    "train_steps": "count",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


def _declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _import_program():
    """Import metagx from this checkout's ``src/``; exit 2 when it is absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import metagx
    except ImportError as exc:
        print(f"error: cannot import metagx from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not Path(metagx.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: metagx imported from {metagx.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def _fresh_import_s() -> float:
    """Wall time of a fresh interpreter importing the program's modules."""
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); "
        "import metagx.cli, metagx.evaluate, metagx.explain, metagx.synth"
    )
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - t0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _no_span(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


class Runner:
    """One workload in this process: set-up, passes, checks, metrics."""

    def __init__(self, workload, seed: int, seconds: float):
        from workloads import Ops

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.ops = Ops()
        self.digests: list[str] = []
        self.work = OUT / f"work-{workload.name}-{seed}-{os.getpid()}"

    def _pass(self, index: int) -> tuple[dict[str, float], object]:
        """Run the timed commands once; the timings include ``pass_s``."""
        t0 = time.perf_counter()
        timings, outputs = self.workload.commands(self.ops, index)
        timings["pass_s"] = time.perf_counter() - t0
        return timings, outputs

    def _check(self, outputs: object) -> None:
        digest = self.workload.checks(self.ops, outputs)
        self.digests.append(digest)
        if len(self.digests) > 1:
            self.ops.check(
                "a rerun with the same seed gives identical artifact digests",
                digest == self.digests[0] and digest != "",
            )

    def _another_pass(self, t_start: float, needed: bool, last_s: float) -> bool:
        """Run another pass if ``needed``, or if one as long as the last
        still ends within ``seconds``; never past the deadline."""
        now = time.perf_counter()
        if now - _PROCESS_T0 + last_s > DEADLINE_S:
            return False
        return needed or now - t_start + last_s <= self.seconds

    def end_to_end(self) -> dict:
        from spans import TrainClock

        imports = [_fresh_import_s() for _ in range(SETUP_REPEATS)]
        setups = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            self.workload.setup(self.seed, self.work, _no_span)
            setups.append(time.perf_counter() - t0)
        clock = TrainClock()
        clock.install()
        per_pass: dict[str, list[float]] = {}
        t_start = time.perf_counter()
        last = 0.0
        while self._another_pass(t_start, len(per_pass.get("pass_s", [])) < MIN_PASSES, last):
            clock.take()
            timings, outputs = self._pass(len(per_pass.get("pass_s", [])))
            steps, train_s = clock.take()
            last = timings["pass_s"]
            timings["train_steps_per_s"] = steps / train_s if train_s > 0 else 0.0
            timings["train_steps"] = steps
            self._check(outputs)
            timings["peak_rss_mb"] = _peak_rss_mb()
            for key, value in timings.items():
                per_pass.setdefault(key, []).append(value)
        clock.restore()
        median = {k: statistics.median(v) for k, v in per_pass.items()}
        metrics = {
            "setup_s": statistics.median(imports) + statistics.median(setups),
            "pass_s": median["pass_s"],
            "train_steps_per_s": median["train_steps_per_s"],
            # The peak over the same work in every run: the allocator keeps
            # memory freed by earlier passes, so later passes can raise it.
            "peak_rss_mb": per_pass["peak_rss_mb"][MIN_PASSES - 1],
        }
        report = {name: {"value": value} for name, value in metrics.items()}
        report["setup_s"].update(import_repeats=imports, setup_repeats=setups)
        for name, values in per_pass.items():
            entry = report.setdefault(name, {"value": statistics.median(values)})
            entry.update(n=len(values), values=values)
        report["error_rate"] = {"value": self.ops.failed / max(self.ops.attempted, 1)}
        for name, entry in report.items():
            entry["unit"] = REPORT_UNITS.get(name, "s")
        self._emit("report", report)
        return metrics

    def per_layer(self) -> dict:
        import kernels
        from layers import UNITS, layer_metrics
        from spans import Tracer, TrainClock

        tracer = Tracer()
        tracer.install()
        tracer.run = SETUP_RUN
        self.workload.setup(self.seed, self.work, tracer.call)
        tracer.restore()
        clock = TrainClock()
        walls: dict[bool, list[float]] = {False: [], True: []}
        traced_runs: list[int] = []
        steps_untraced: list[int] = []
        t_start = time.perf_counter()
        last = 0.0
        index = 0
        while self._another_pass(t_start, index < 2, last):
            traced = index % 2 == 1
            if traced:
                tracer.install()
                tracer.run = index
                traced_runs.append(index)
            else:
                clock.install()
            timings, outputs = self._pass(index)
            last = timings["pass_s"]
            walls[traced].append(last)
            if traced:
                tracer.run = CHECK_RUN
            else:
                steps_untraced.append(clock.take()[0])
                clock.restore()
            self._check(outputs)
            if traced:
                tracer.restore()
            index += 1
        metrics = layer_metrics(tracer, traced_runs, SETUP_RUN, sum(walls[True]))
        untraced = statistics.median(walls[False])
        metrics["trace.overhead_pct"] = 100.0 * (statistics.median(walls[True]) / untraced - 1.0)
        metrics.update(kernels.kernel_metrics(self.seed))
        metrics.update(kernels.op_calls_per_meta_step(self.seed))
        arch = self.workload.architecture
        self.ops.check(
            "traced op calls per meta step equal the probe's count",
            metrics["autodiff.op_calls_per_meta_step"]
            == metrics[f"autodiff.op_calls_per_meta_step.{arch}"],
        )
        self.ops.check(
            "traced outer steps equal the steps computed from fold sizes",
            metrics["training.steps"] == statistics.median(steps_untraced),
        )
        tracer.write_csv(OUT / f"trace-{self.workload.name}.csv")
        self._emit("layers", {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()})
        return metrics

    def _emit(self, kind: str, payload) -> None:
        print(kind, json.dumps(payload, sort_keys=True), flush=True)

    def run(self, trace: bool) -> dict:
        from machine import machine_info

        self._emit("machine", machine_info())
        try:
            metrics = self.per_layer() if trace else self.end_to_end()
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        units = _declared_units("per_layer" if trace else "end_to_end")
        missing = sorted(set(units) - set(metrics))
        self.ops.check(f"every metric measured (missing: {missing})", not missing)
        for error in self.ops.errors:
            print(error, file=sys.stderr)
        return {
            "correct": self.ops.failed == 0,
            "attempted": self.ops.attempted,
            "failed": self.ops.failed,
            "metrics": {
                name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                for name, unit in units.items()
            },
        }


def _run_all(seed: int, seconds: int) -> int:
    """Every workload in a fresh process, end-to-end then traced; one table."""
    from workloads import WORKLOADS

    results = {}
    status = 0
    for name in WORKLOADS:
        results[name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                status = 1
                continue
            for line in lines[:-1]:
                kind, _, payload = line.partition(" ")
                results[name][kind] = json.loads(payload)
            results[name]["trace" if trace else "end_to_end"] = json.loads(lines[-1])
    for name, res in results.items():
        e2e = res.get("end_to_end", {})
        print(f"\n{name}: correct={e2e.get('correct')} "
              f"attempted={e2e.get('attempted')} failed={e2e.get('failed')}")
        for metric, m in res.get("report", {}).items():
            print(f"  {metric:28s} {m['value']:14.6g} {m['unit']}")
        for metric, m in res.get("layers", {}).items():
            print(f"  {metric:44s} {m['value']:14.6g} {m['unit']}")
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"all-seed{seed}.json"
    path.write_text(json.dumps(results, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"\nresults -> {path}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    args = parser.parse_args()
    # BLAS threads: at most the CPUs this process may use.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    _import_program()
    from workloads import WORKLOADS

    if args.all:
        return _run_all(args.seed, args.seconds)
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    runner = Runner(WORKLOADS[args.workload](), args.seed, args.seconds)
    result = runner.run(bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
