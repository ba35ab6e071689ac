"""Closed-loop benchmark of the narayana command line: one client, one fresh
``python -m narayana.cli`` process per request, every output checked.

    python3 perfbench/run.py --workload paths --seed 1 --seconds 25 --trace 0

A run plays seeded decks of requests (workloads.py) until the time is
spent, always finishing the deck it started, and measures setup before and
after the decks.  The host's speed drifts by tens of percent over seconds,
so every spawn is preceded by a fixed pure-Python calibration, and the
end-to-end times are reported at a reference host speed (see scaled()); the
raw wall-clock figures are printed beside them.  --trace 0
prints the end-to-end metrics.  --trace 1 runs each request plainly and
then through tracing.py and prints the per-layer metrics, averaged per deck,
with the tracing overhead.  --workload all prints both for every workload.
Each metric is printed on a line of its own with its unit; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.  README.md describes every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
TRACER = Path(__file__).with_name("tracing.py")
SETUP_REPS = 6  # before the decks and again after them
SETUP_CODE = "import narayana.cli as cli; cli.build_parser()"
REQUEST_TIMEOUT_S = 30
TAIL_BEYOND = 10
CALIBRATION_LOOPS = (100_000, 5_000)  # arithmetic, allocation
# Reported end-to-end seconds are those of a host on which calibrate()
# returns this; a round figure near its value on an idle core of a 2-core
# x86-64 VM, so scaled values stay close to wall-clock ones.
CALIBRATION_REFERENCE_S = 0.008
CALIBRATION_WINDOW = 5

END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "throughput_rps": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}
PER_LAYER = {
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "cli.cache.hits": "count",
    "cli.cache.misses": "count",
    "cli.cache.hit_ratio": "ratio",
    "cli.cache.bytes_written": "bytes",
    "dyck.self_s": "s",
    "dyck.paths": "count",
    "dyck.stat_calls": "count",
    "dyck.paths_per_s": "1/s",
    "qpoly.self_s": "s",
    "qpoly.mul.calls": "count",
    "qpoly.mul.s": "s",
    "qpoly.mul.coeff_products": "count",
    "qpoly.exact_div.calls": "count",
    "qpoly.exact_div.s": "s",
    "qpoly.max_degree": "count",
    "posets.self_s": "s",
    "posets.ideal_lattice.calls": "count",
    "posets.ideal_lattice.s": "s",
    "posets.flag_h_table.calls": "count",
    "posets.flag_h_table.s": "s",
    "shelling.self_s": "s",
    "shelling.omega_n.s": "s",
    "shelling.check_preshelling.s": "s",
    "shelling.partition_intervals.s": "s",
    "shelling.facets": "count",
    "shelling.relations": "count",
    "tableaux.self_s": "s",
    "tableaux.ssyt": "count",
    "tableaux.enumerate_ssyt.s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class Result:
    argv: tuple
    calibration: float
    seconds: float
    returncode: int
    rss_kb: int
    stdout: bytes
    failure: str | None = None
    cache_hit: bool | None = None
    written: int = 0
    trace: dict | None = None


class Runner:
    """Spawns requests one at a time from a scratch directory."""

    def __init__(self, work: Path):
        self.work = work
        self.golden = oracle.load_golden()
        self.env = {k: v for k, v in os.environ.items() if k not in ("NARAYANA_CACHE_DIR", "PYTHONPATH")}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.spawned = 0
        self.pid = 0
        self.cache_dirs = 0
        signal.signal(signal.SIGALRM, self._timeout)

    def _timeout(self, signum, frame) -> None:
        os.kill(self.pid, signal.SIGKILL)

    def spawn(self, cmd: list[str]) -> tuple[float, float, int, int, bytes]:
        """Calibration seconds just before the spawn, wall seconds from
        spawn to exit, exit code, peak RSS in KiB, stdout."""
        out_path, err_path = self.work / "stdout", self.work / "stderr"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            calibration = calibrate()
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env, cwd=self.work)
            self.pid = proc.pid
            signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            print(f"request {cmd[1:]} exited {proc.returncode}: {tail}", file=sys.stderr)
        return calibration, seconds, proc.returncode, usage.ru_maxrss, out_path.read_bytes()

    def setup_seconds(self) -> list[tuple[float, float]]:
        """(calibration, wall) seconds of fresh interpreters that import
        narayana.cli and build its parser."""
        times = []
        for _ in range(SETUP_REPS):
            calibration, seconds, returncode, _, _ = self.spawn([sys.executable, "-c", SETUP_CODE])
            if returncode:
                raise RuntimeError(f"importing narayana.cli failed with exit code {returncode}")
            times.append((calibration, seconds))
        return times

    def play(self, workload: str, deck: list[tuple], traced: bool) -> tuple[list[Result], list[Result]]:
        """Run the deck's requests in order, then check every output.

        When traced, each request runs plainly and then through the tracer,
        so both see the same host load; each side has its own cache
        directory.  Returns the plain and the traced results."""
        modes = (False, True) if traced else (False,)
        caches = {}
        for mode in modes:
            if workload == "dist-cache":
                self.cache_dirs += 1
                caches[mode] = self.work / f"cache-{self.cache_dirs}"
        runs: dict[bool, list[Result]] = {mode: [] for mode in modes}
        for argv in deck:
            for mode in modes:
                runs[mode].append(self._request(argv, caches.get(mode), mode))
        for results in runs.values():
            first: dict[tuple, bytes] = {}
            for result in results:
                reason = oracle.check(result.argv, result.returncode, result.stdout, self.golden)
                if reason is None and first.setdefault(result.argv, result.stdout) != result.stdout:
                    reason = "prints other bytes than the first request with the same argv"
                result.failure = result.failure or reason
                if result.failure:
                    print(f"FAIL {oracle.key(result.argv)}: {result.failure}", file=sys.stderr)
        return runs[False], runs.get(True, [])

    def _request(self, argv: tuple, cache: Path | None, traced: bool) -> Result:
        request = argv + (("--cache-dir", str(cache)) if cache else ())
        span_file = self.work / "spans.json"
        if traced:
            cmd = [sys.executable, str(TRACER), str(span_file), str(self.spawned), *request]
        else:
            cmd = [sys.executable, "-m", "narayana.cli", *request]
        before = _listing(cache)
        result = Result(argv, *self.spawn(cmd))
        self.spawned += 1
        if cache:
            new = {name: size for name, size in _listing(cache).items() if name not in before}
            result.cache_hit, result.written = not new, sum(new.values())
        if traced:
            if span_file.exists():
                result.trace = json.loads(span_file.read_text())
                span_file.unlink()
            else:
                result.failure = "traced request wrote no span file"
        return result


def calibrate() -> float:
    """Seconds for fixed pure-Python work: the geometric mean of two parts.

    When the host is busy it slows the arithmetic loop less than it slows
    a request, and the allocation loop (small tuples, dict updates) more,
    so their mean follows the requests more closely than either part."""
    arithmetic, allocation = CALIBRATION_LOOPS
    start = time.perf_counter()
    total = 0
    for i in range(arithmetic):
        total += i * i
    middle = time.perf_counter()
    counts: dict[tuple, int] = {}
    for i in range(allocation):
        bits = tuple((i >> j) & 1 for j in range(8))
        counts[bits] = counts.get(bits, 0) + 1
    end = time.perf_counter()
    return ((middle - start) * (end - middle)) ** 0.5


def scaled(samples: list[tuple[float, float]]) -> list[float]:
    """Wall seconds at the reference host speed, from (calibration, wall) pairs in run order.

    Each wall time is multiplied by CALIBRATION_REFERENCE_S over the median
    calibration of the CALIBRATION_WINDOW spawns around it, so a slow spell
    of the host, which slows the loop and the request alike, cancels out and
    one disturbed calibration does not."""
    half = CALIBRATION_WINDOW // 2
    out = []
    for i, (_, seconds) in enumerate(samples):
        window = [c for c, _ in samples[max(0, i - half) : i + half + 1]]
        out.append(seconds * CALIBRATION_REFERENCE_S / statistics.median(window))
    return out


def _listing(directory: Path | None) -> dict[str, int]:
    if directory is None or not directory.is_dir():
        return {}
    return {entry.name: entry.stat().st_size for entry in os.scandir(directory)}


def tail_rank(samples: int, deck_size: int) -> int:
    """1-based rank of the tail latency among the sorted samples.

    The percentile is fixed per workload as the highest one with at least
    TAIL_BEYOND samples beyond it within one deck, so it does not move when
    a faster program fits more decks into a run."""
    if deck_size <= TAIL_BEYOND:
        return samples
    return -(-samples * (deck_size - TAIL_BEYOND) // deck_size)


def end_to_end(
    results: list[Result], wall: float, deck_size: int, setup: list[list[tuple[float, float]]]
) -> tuple[dict, list[str]]:
    """Latencies and throughput at the reference host speed (scaled()); setup
    samples are scaled within their own group of spawns."""
    latencies = sorted(scaled([(r.calibration, r.seconds) for r in results]))
    raw = sorted(r.seconds for r in results)
    rank = tail_rank(len(latencies), deck_size)
    ok = sum(r.failure is None for r in results)
    values = {
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": latencies[rank - 1],
        # closed loop, one client: requests per second of request time
        "throughput_rps": len(results) / sum(latencies),
        "setup_s": statistics.median(s for group in setup for s in scaled(group)),
        "peak_rss_mb": max(r.rss_kb for r in results) / 1024,
        "ok_ratio": ok / len(results),
    }
    percentile = 100 * rank / len(latencies)
    speed = CALIBRATION_REFERENCE_S / statistics.median(r.calibration for r in results)
    notes = [
        f"latency_tail_s is p{percentile:.1f}: {len(latencies) - rank} of {len(latencies)} samples beyond it",
        f"fail_ratio {1 - values['ok_ratio']:.6f} ({len(results) - ok} of {len(results)} requests)",
        f"host speed {speed:.3f} of the reference; raw wall clock: latency p50 {statistics.median(raw):.4f} s, "
        f"tail {raw[rank - 1]:.4f} s, throughput {len(results) / wall:.4f} 1/s over {wall:.1f} s, "
        f"setup {statistics.median(s for group in setup for _, s in group):.4f} s",
    ]
    return values, notes


def per_layer(plain: list[Result], traced: list[Result], decks: int) -> tuple[dict, list[str]]:
    layers = dict.fromkeys(tracing.LAYERS, 0.0)
    functions: dict[str, list] = {}
    counters: dict[str, float] = {}
    for result in traced:
        if result.trace is None:
            continue
        for layer, seconds in tracing.self_times(result.trace["spans"]).items():
            layers[layer] = layers.get(layer, 0.0) + seconds
        for name, (calls, seconds) in result.trace["functions"].items():
            total = functions.setdefault(name, [0, 0.0])
            total[0] += calls
            total[1] += seconds
        for name, value in result.trace["counters"].items():
            if name == "qpoly.max_degree":
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value

    def calls(name):
        return functions.get(name, [0, 0.0])[0] / decks

    def seconds(name):
        return functions.get(name, [0, 0.0])[1] / decks

    def count(name):
        value = counters.get(name, 0)
        return value if name == "qpoly.max_degree" else value / decks

    hits = sum(r.cache_hit is True for r in traced)
    misses = sum(r.cache_hit is False for r in traced)
    plain_s = sum(r.seconds for r in plain)
    traced_s = sum(r.seconds for r in traced)
    dyck_s = layers["dyck"] / decks
    values = {f"{layer}.self_s": layers[layer] / decks for layer in tracing.LAYERS}
    values.update(
        {
            "cli.stdout_bytes": sum(len(r.stdout) for r in traced) / decks,
            "cli.cache.hits": hits / decks,
            "cli.cache.misses": misses / decks,
            "cli.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "cli.cache.bytes_written": sum(r.written for r in traced) / decks,
            "dyck.paths": count("dyck.paths"),
            "dyck.stat_calls": count("dyck.stat_calls"),
            "dyck.paths_per_s": count("dyck.paths") / dyck_s if dyck_s else 0.0,
            "qpoly.mul.calls": calls("qpoly.mul"),
            "qpoly.mul.s": seconds("qpoly.mul"),
            "qpoly.mul.coeff_products": count("qpoly.mul.coeff_products"),
            "qpoly.exact_div.calls": calls("qpoly.exact_div"),
            "qpoly.exact_div.s": seconds("qpoly.exact_div"),
            "qpoly.max_degree": count("qpoly.max_degree"),
            "posets.ideal_lattice.calls": calls("posets.ideal_lattice"),
            "posets.ideal_lattice.s": seconds("posets.ideal_lattice"),
            "posets.flag_h_table.calls": calls("posets.flag_h_table"),
            "posets.flag_h_table.s": seconds("posets.flag_h_table"),
            "shelling.omega_n.s": seconds("shelling.omega_n"),
            "shelling.check_preshelling.s": seconds("shelling.check_preshelling"),
            "shelling.partition_intervals.s": seconds("shelling.partition_intervals"),
            "shelling.facets": count("shelling.facets"),
            "shelling.relations": count("shelling.relations"),
            "tableaux.ssyt": count("tableaux.ssyt"),
            "tableaux.enumerate_ssyt.s": seconds("tableaux.enumerate_ssyt"),
            "trace.overhead_s": (traced_s - plain_s) / decks,
            "trace.overhead_ratio": (traced_s - plain_s) / plain_s,
        }
    )
    layer_total = sum(layers.values())
    shares = ", ".join(f"{layer} {100 * layers[layer] / layer_total:.1f}%" for layer in tracing.LAYERS)
    notes = [
        f"per-layer values are per deck, over {decks} traced deck(s); .s values are inclusive",
        f"self-time shares: {shares}",
        f"untraced {plain_s / decks:.3f} s, traced {traced_s / decks:.3f} s per deck",
    ]
    return values, notes


def measure(runner: Runner, workload: str, seed: int, seconds: float, traced: bool):
    """Play decks until the time is spent; return results, metrics and notes."""
    rng = random.Random(seed)
    setup = [] if traced else [runner.setup_seconds()]
    plain: list[Result] = []
    traced_results: list[Result] = []
    decks, deck_size = 0, 0
    start = time.perf_counter()
    while True:
        deck = workloads.deck(workload, rng)
        deck_size = len(deck)
        plain_deck, traced_deck = runner.play(workload, deck, traced)
        plain += plain_deck
        traced_results += traced_deck
        decks += 1
        elapsed = time.perf_counter() - start
        # stop when one more deck would end further from the target than now
        if elapsed + elapsed / decks / 2 >= seconds:
            break
    wall = time.perf_counter() - start
    if traced:
        values, notes = per_layer(plain, traced_results, decks)
        units = PER_LAYER
    else:
        setup.append(runner.setup_seconds())
        values, notes = end_to_end(plain, wall, deck_size, setup)
        units = END_TO_END
    results = plain + traced_results
    header = (
        f"workload {workload} seed {seed} trace {int(traced)}: {decks} deck(s) of {deck_size} "
        f"requests, {len(results)} requests in {wall:.1f} s, closed loop, 1 client"
    )
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return results, metrics, [header, *notes]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "narayana" / "cli.py").is_file():
        print(f"benchmark: no narayana sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True)
    runs = [(args.workload, bool(args.trace))]
    if args.workload == "all":
        runs = [(w, traced) for w in workloads.WORKLOADS for traced in (False, True)]
    try:
        runner = Runner(work)
        attempted = failed = 0
        metrics = {}
        for workload, traced in runs:
            results, run_metrics, notes = measure(runner, workload, args.seed, args.seconds, traced)
            attempted += len(results)
            failed += sum(r.failure is not None for r in results)
            print("\n".join(notes))
            for name, metric in run_metrics.items():
                print(f"  {name:<32} {metric['value']:>16.6f} {metric['unit']}")
                metrics[f"{workload}:{name}" if args.workload == "all" else name] = metric
    except RuntimeError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
