"""conelab benchmark: one closed-loop client driving `conelab.cli.main` in-process.

    python3 bench/run.py --workload planar_mixed --seed 1 --seconds 25 --trace 0

Run from the repository root.  The package is imported from `src/` (no
install needed) and BLAS/OpenMP are pinned to one thread.  Each item of the
workload is written to a real JSON file, decided (or verified) by
`cli.main([...])`, and its output file read back; the next item is issued
only when the previous one has returned.  A run times passes over a fixed
panel of items drawn from the seed, so `attempted` and `failed` depend on
the seed alone; latencies are per-item medians over the passes.

--trace 0 prints the end-to-end metrics; --trace 1 runs every item both
untraced and traced and prints the per-layer metrics of `tracing.py`.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  See bench/README.md.
"""

from __future__ import annotations

import os

# Before numpy is imported anywhere in this process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

END_TO_END = (("items_per_s", "1/s"), ("latency_p50_ms", "ms"), ("latency_p90_ms", "ms"),
              ("peak_rss_mb", "MB"), ("setup_s", "s"))
WARMUP_ITEMS = 10       # items 0..9 decide twice in-process; item 0 also in fresh processes
SETUP_BEFORE = 2        # fresh processes timed for setup_s before the timed passes (after one untimed)
SETUP_AFTER = 3         # and after them, so that setup_s samples both ends of the run
PANEL_START = 1000      # the timed panel's items start here, past the warm-up items
SETUP_TIMEOUT_S = 60


class Client:
    """Writes an item's input files, runs the CLI on them and reads the output."""

    def __init__(self, cli, workdir: Path):
        self.cli = cli
        self.family = workdir / "family.json"
        self.cone = workdir / "cone.json"
        self.decision = workdir / "decision.json"

    def argv(self, item):
        if item.kind == "common":
            return ["common", str(self.family), "--out", str(self.decision), "--reproducible"]
        return ["verify", str(self.family), str(self.cone)]

    def run(self, item):
        """(exit code or exception name, output text, cli.main seconds, item seconds)."""
        t_item = time.perf_counter()
        self.family.write_text(json.dumps(item.family), encoding="utf-8")
        if item.cone is not None:
            self.cone.write_text(json.dumps(item.cone), encoding="utf-8")
        if self.decision.exists():
            self.decision.unlink()
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(self.argv(item))
        except Exception as exc:  # an uncaught exception is a failed item, not a crash of the run
            rc = type(exc).__name__
        t1 = time.perf_counter()
        if item.kind == "common":
            text = self.decision.read_text(encoding="utf-8") if self.decision.exists() else ""
        else:
            text = out.getvalue()
        return rc, text, t1 - t0, time.perf_counter() - t_item


def _digest(results) -> str:
    h = hashlib.sha256()
    for rc, text in results:
        h.update(f"{rc}\n{text}\n".encode())
    return h.hexdigest()


def _subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(client, item, expected, repeats, untimed=0):
    """Wall times of `repeats` fresh `python -m conelab.cli` processes handling
    `item`, after `untimed` ones (the first fills the bytecode cache), and
    whether every fresh process wrote the same output as this one."""
    times, same = [], True
    client.family.write_text(json.dumps(item.family), encoding="utf-8")
    if item.cone is not None:
        client.cone.write_text(json.dumps(item.cone), encoding="utf-8")
    cmd = [sys.executable, "-m", "conelab.cli"] + client.argv(item)
    env = _subprocess_env()
    for k in range(untimed + repeats):
        if client.decision.exists():
            client.decision.unlink()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        dt = time.perf_counter() - t0
        if item.kind == "common":
            text = client.decision.read_text(encoding="utf-8") if client.decision.exists() else ""
        else:
            text = proc.stdout
        same = same and (proc.returncode, text) == expected
        if k >= untimed:
            times.append(dt)
    return times, same


def percentile(sorted_values, q):
    """Nearest-rank percentile."""
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


class Panel:
    """Repeated passes over a fixed list of items: each item's first output,
    its `cli.main` seconds and item seconds (inputs written, `cli.main`,
    output read) per call, and the items whose output changed on a repeat."""

    def __init__(self, items):
        self.items = items
        self.first = [None] * len(items)
        self.lat = [[] for _ in items]
        self.busy = [[] for _ in items]
        self.calls = 0
        self.changed = set()

    def add(self, k, run):
        rc, text, dt, dt_item = run
        if self.first[k] is None:
            self.first[k] = (rc, text)
        elif self.first[k] != (rc, text):
            self.changed.add(k)
        self.lat[k].append(dt)
        self.busy[k].append(dt_item)
        self.calls += 1

    def item_latency(self):
        """Median `cli.main` seconds of each item over its calls."""
        return [statistics.median(x) for x in self.lat]

    def item_busy(self):
        """Median item seconds of each item over its calls."""
        return [statistics.median(x) for x in self.busy]


def run_once(client, items):
    """One untimed call per item (warm-up): a Panel with one call each."""
    panel = Panel(items)
    for k, item in enumerate(items):
        panel.add(k, client.run(item))
    return panel


def timed_passes(client, items, seconds, tracer=None):
    """Closed loop over `items` in order, pass after pass, for `seconds` and
    at least one full pass.  With a tracer every call runs untraced and
    traced, in alternating order, so drift in machine speed and any warm-up
    of a repeated item cancel out of the overhead.  Returns the untraced
    and the traced Panel (None without a tracer)."""
    untraced = Panel(items)
    traced = Panel(items) if tracer is not None else None
    t_end = time.perf_counter() + seconds
    k = 0
    while k < len(items) or time.perf_counter() < t_end:
        j = k % len(items)
        item = items[j]
        if tracer is None:
            untraced.add(j, client.run(item))
        else:
            tracer.item = item.index
            for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
                if with_trace:
                    tracer.install()
                    try:
                        traced.add(j, client.run(item))
                    finally:
                        tracer.uninstall()
                else:
                    untraced.add(j, client.run(item))
        k += 1
    return untraced, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "conelab" / "cli.py").is_file():
        print(f"error: no conelab package under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from conelab import cli

    import checker
    import workloads
    from tracing import ANSWERS, Tracer, per_layer_metrics

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    workdir = WORK / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    client = Client(cli, workdir)
    problems = []  # reasons the run's outputs are not correct

    # Warm-up and reproducibility: items 0..9 decide twice in-process.
    warm = [wl.make(args.seed, i) for i in range(WARMUP_ITEMS)]
    first = run_once(client, warm)
    second = run_once(client, warm)
    if second.first != first.first:
        problems.append("warm-up items gave different output on a second in-process run")
    for item, (rc, text) in zip(warm, first.first):
        verdict = checker.check(item, rc, text)
        if verdict and verdict[0] == "wrong":
            problems.append(f"warm-up item {item.index} ({item.tag}): {verdict[1]}")

    # The timed panel: a fixed, seeded list of items, a whole number of
    # stratum cycles, so what is attempted and what fails depends on the
    # seed alone and not on how many calls fit into the run.
    panel_items = [wl.make(args.seed, i) for i in range(PANEL_START, PANEL_START + wl.panel)]
    if not args.trace:
        setup_times, same = measure_setup(client, warm[0], first.first[0], SETUP_BEFORE, untimed=1)
    tracer = Tracer() if args.trace else None
    loop, traced = timed_passes(client, panel_items, args.seconds, tracer)
    if args.trace:
        if traced.first != loop.first:
            problems.append("panel items gave different output when traced")
        traced.changed |= loop.changed
        outputs = traced.first
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        more, same_after = measure_setup(client, warm[0], first.first[0], SETUP_AFTER)
        setup_s = statistics.median(setup_times + more)
        if not (same and same_after):
            problems.append("a fresh process wrote different output for warm-up item 0")
        outputs = loop.first
    for k in sorted((traced or loop).changed):
        problems.append(f"item {panel_items[k].index} gave different output on a repeated call")
    digest = _digest(outputs)

    failures = []
    for item, (rc, text) in zip(panel_items, outputs):
        verdict = checker.check(item, rc, text)
        if verdict:
            failures.append((item.index, item.tag, verdict[0], verdict[1]))
            if verdict[0] == "wrong":
                problems.append(f"item {item.index} ({item.tag}): {verdict[1]}")
    answers = {a: 0 for a in ANSWERS}
    for rc, _ in outputs:
        answers[checker.answer_of(rc)] += 1

    n = len(panel_items)
    lat_sorted = sorted(loop.item_latency())
    p90 = percentile(lat_sorted, 0.9)
    above_p90 = sum(1 for x in lat_sorted if x > p90)
    if args.trace:
        layer = tracer.metrics()
        layer.update({f"answers.{a}": c for a, c in answers.items()})
        layer["trace.items"] = traced.calls
        layer["trace.overhead_share"] = 1.0 - sum(loop.item_busy()) / sum(traced.item_busy())
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in per_layer_metrics()}
        missed = tracer.unexercised(wl.name)
    else:
        values = {
            "items_per_s": n / sum(loop.item_busy()),
            "latency_p50_ms": 1000.0 * statistics.median(lat_sorted),
            "latency_p90_ms": 1000.0 * p90,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        missed = []

    summary = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "items": n, "calls": loop.calls,
        "digest": digest, "failed_share": len(failures) / n,
        "answers": answers, "failures": failures[:200], "problems": problems[:200],
        "metrics": metrics,
    }
    (workdir / "summary.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write_spans(workdir / "spans.csv")

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          f"closed loop, 1 client, {n} panel items, {loop.calls} timed calls "
          f"({loop.calls / n:.2f} passes)")
    print(f"  latency samples: {n} item medians; above p90: {above_p90}"
          + ("" if n >= 100 else "  (fewer than 100 items: p90 is coarse)"))
    print(f"  failed items: {len(failures)} of {n}")
    print(f"  failed_share {len(failures) / n:.6g} share")
    print("  answers " + " ".join(f"{a}={c}" for a, c in answers.items()))
    print(f"  digest sha256:{digest}  (panel items {PANEL_START}-{PANEL_START + n - 1})")
    for name, m in metrics.items():
        print(f"  {name} {m['value']:.6g} {m['unit']}")
    for problem in problems[:20]:
        print(f"  INCORRECT: {problem}")
    if missed:
        print(f"error: traced functions never called on their mechanism workload {wl.name}: "
              f"{', '.join(missed)}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": not problems, "attempted": n, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
