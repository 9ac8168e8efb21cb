"""lefbench benchmark: closed-loop CLI workloads with per-layer attribution.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client in one process sends its next
request only after the previous one returned (a closed loop, no threads).
A request is an in-process call of ``lefbench.cli.main(argv)`` with stdout
and stderr captured; its exit code and report are checked against
expectations that do not come from the code under test (workloads.py).
The loop runs whole rounds of the workload until S seconds have passed, so
every request kind appears equally often.  A speed probe (speed.py) runs
alongside, and every time reported is corrected for the shared core's
speed; the raw times are printed too.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each round traced
and then untraced, prints the per-layer metrics of the traced rounds and
the throughput ratio between the two, and writes the spans to bench/out/.
End-to-end metrics come only from --trace 0 runs.  The last line of stdout
is one JSON object: correct, attempted, failed, metrics.  A failed request
is counted and the run goes on.

Workloads (see BENCHMARK.json for why each was chosen):
  headline-all   `all W1.cfg` then `all W0.cfg --svg DIR`, as in the README
  bigon-surgery  `floer-ranks` on seeded W0 variants needing bigon surgery
  classical-mix  validate/homology/floer-ranks on the shipped scenarios plus
                 validate/homology on seeded fans of 4-16 critical values
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NoReturn

from speed import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 11


def fail(message: str) -> NoReturn:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def setup_seconds(workload: str, seed: int, work: Path) -> tuple[float, float]:
    """Median over fresh processes of importing lefbench and building the
    workload's inputs (gen.py), corrected and raw.  A first, uncounted
    probe compiles the package's bytecode, which users pay once."""
    corrected, raw = [], []
    for i in range(SETUP_PROBES + 1):
        out = work / f"setup-{i}"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "gen.py"), "--workload", workload,
             "--seed", str(seed), "--out", str(out)],
            capture_output=True, text=True, timeout=120)
        shutil.rmtree(out, ignore_errors=True)
        if proc.returncode != 0:
            fail(f"input generation failed:\n{proc.stderr}")
        if i:
            result = json.loads(proc.stdout.splitlines()[-1])
            corrected.append(result["setup_s"])
            raw.append(result["raw_s"])
    return statistics.median(corrected), statistics.median(raw)


def call(main, req, tracer):
    """One request: (start, end, exit code or None, stdout, error class)."""
    out, err = io.StringIO(), io.StringIO()
    code, escaped = None, None
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            if tracer is None:
                code = main(req.argv)
            else:
                code = tracer.span("cli.main", main, req.argv)
        except SystemExit as e:            # argparse usage errors
            code = e.code
        except Exception as e:             # escaped main: a failure
            escaped = type(e).__name__
        end = perf_counter()
    return start, end, code, out.getvalue(), escaped


class Loop:
    """The closed loop and its tallies."""

    def __init__(self, main, rounds, tracer=None):
        self.main, self.rounds, self.tracer = main, rounds, tracer
        # (round number, traced, start, end) of every request
        self.timings: list[tuple[int, bool, float, float]] = []
        self.failures: Counter = Counter()
        self.escaped: Counter = Counter()
        self.examples: dict[str, str] = {}
        self.probe = SpeedProbe()

    def request(self, req, number: int, traced: bool) -> None:
        tracer = self.tracer if traced else None
        if tracer is not None:
            tracer.begin_request()
        start, end, code, out, escaped = call(self.main, req, tracer)
        kind, reason = None, None
        if escaped is not None:
            self.escaped[escaped] += 1
            kind, reason = "exception", f"{escaped} escaped main"
        elif code != req.exit_code:
            kind, reason = "exit_code", f"exit {code}, expected {req.exit_code}"
        else:
            reason = req.verify(out)
            kind = "output" if reason else None
        if tracer is not None:
            tracer.end_request()
            got = tracer.in_request["minpos.eliminate_bigon"]
            if kind is None and req.surgeries is not None \
                    and got != req.surgeries:
                kind, reason = "surgeries", (
                    f"{got} bigon surgeries, expected {req.surgeries}"
                    " from the zig-zag's sign changes")
        if req.svg_dir is not None:
            shutil.rmtree(req.svg_dir, ignore_errors=True)
        self.timings.append((number, traced, start, end))
        if kind is not None:
            self.failures[kind] += 1
            if len(self.examples) < 5:
                self.examples.setdefault(" ".join(req.argv), reason)

    def _round(self, batch, number: int, traced: bool) -> None:
        if traced:
            self.tracer.install()
        try:
            for req in batch:
                self.request(req, number, traced)
        finally:
            if traced:
                self.tracer.uninstall()

    def run(self, seconds: float) -> float:
        """Run whole rounds, cycling through the pool, until ``seconds``
        have passed; return the wall time.  With a tracer each round runs
        traced and then untraced, so both see the same inputs."""
        with self.probe:
            start = perf_counter()
            number = 0
            while number == 0 or perf_counter() - start < seconds:
                batch = self.rounds[number % len(self.rounds)]
                if self.tracer is not None:
                    self._round(batch, number, True)
                self._round(batch, number, False)
                number += 1
            return perf_counter() - start

    def latencies(self, traced: bool, raw: bool = False) -> dict[int, list]:
        """Request latencies in seconds by round number, corrected for the
        core's speed unless ``raw``."""
        out: dict[int, list] = {}
        for number, was_traced, start, end in self.timings:
            if was_traced == traced:
                out.setdefault(number, []).append(
                    end - start if raw else self.probe.corrected(start, end))
        return out

    @property
    def attempted(self) -> int:
        return len(self.timings)

    @property
    def failed(self) -> int:
        return sum(self.failures.values())


def summary(by_round: dict[int, list]) -> dict[str, float]:
    """Throughput, median and tail latency of whole rounds.

    The tail is the slowest request of each round, median over rounds: a
    round holds every request kind once, so this is the same kind of
    request on every commit, however many rounds fit in the run."""
    every = [x for xs in by_round.values() for x in xs]
    return {"throughput_rps": len(every) / sum(every),
            "latency_p50_ms": 1000 * statistics.median(every),
            "latency_tail_ms": 1000 * statistics.median(
                max(xs) for xs in by_round.values())}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not (ROOT / "src" / "lefbench" / "__init__.py").is_file():
        fail(f"no lefbench sources under {ROOT / 'src'}")
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    import lefbench.cli
    import workloads
    from tracer import LAYERS, Tracer
    if Path(lefbench.__file__).resolve().parent != ROOT / "src" / "lefbench":
        fail(f"imported lefbench from {lefbench.__file__}")
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r};"
             f" choose from {', '.join(workloads.WORKLOADS)}")

    work = BENCH / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if not args.trace:
            setup_s, setup_raw = setup_seconds(args.workload, args.seed, work)
        rounds = workloads.build(args.workload, args.seed, work / "inputs")
        tracer = Tracer() if args.trace else None
        loop = Loop(lefbench.cli.main, rounds, tracer)
        elapsed = loop.run(args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    n, failed = loop.attempted, loop.failed
    plain = loop.latencies(traced=False)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"requests {n}  failed {failed}  fail_ratio {failed / n:.6f}"
          f"  rounds {len(plain)}  wall {elapsed:.3f} s"
          f"  core slowdown {loop.probe.slowdown():.3f}"
          f" ({len(loop.probe.times)} probes, fastest tenth"
          f" {1000 * loop.probe.fast():.4f} ms)")
    for kind, count in sorted(loop.failures.items()):
        print(f"  failures[{kind}] {count}")
    for name, count in sorted(loop.escaped.items()):
        print(f"  escaped[{name}] {count}")
    for argv, reason in loop.examples.items():
        print(f"  failed: {argv}: {reason}")

    if args.trace:
        metrics = tracer.metrics(loop.probe.corrected)
        traced_rps = summary(loop.latencies(traced=True))["throughput_rps"]
        plain_rps = summary(plain)["throughput_rps"]
        ratio = traced_rps / plain_rps
        metrics["trace.throughput_ratio"] = (ratio, "ratio")
        print(f"traced rounds: {traced_rps:.4f} req/s;"
              f" untraced rounds: {plain_rps:.4f} req/s;"
              f" traced/untraced throughput {ratio:.4f}")
        req_s = metrics["trace.request_s"][0]
        for name in [f"{layer}.self_s" for layer in LAYERS] + [
                "disc.validate.incl_s"]:
            share = 100 * metrics[name][0] / req_s
            print(f"  {name:24s} {share:5.1f}% of request time")
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans)
        print(f"spans: {spans.relative_to(ROOT)} ({len(tracer.spans)})")
        result = {name: metric(value, unit)
                  for name, (value, unit) in metrics.items()}
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        units = {"throughput_rps": "1/s", "latency_p50_ms": "ms",
                 "latency_tail_ms": "ms"}
        result = {"setup_s": metric(setup_s, "s")}
        result.update((name, metric(value, units[name]))
                      for name, value in summary(plain).items())
        result["ok_ratio"] = metric((n - failed) / n, "ratio")
        result["peak_rss_mb"] = metric(peak_kb / 1024, "MB")
        raw = dict(summary(loop.latencies(traced=False, raw=True)),
                   setup_s=setup_raw)
        print(f"latency_tail_ms is the slowest request of each round,"
              f" median of {len(plain)} rounds")
        print("raw (uncorrected): " + "  ".join(
            f"{name} {value:.6g}" for name, value in raw.items()))
    for name, m in result.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": n,
                      "failed": failed, "metrics": result}))


if __name__ == "__main__":
    main()
