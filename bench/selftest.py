"""Self-test of the benchmark itself.

    python3 bench/selftest.py

1. The checker counts a planted wrong answer and a non-invariant YES witness
   as failures, and passes the program's own output for the same items.
2. A short run of each mode prints every metric named in BENCHMARK.json with
   its unit, in the report lines and in the final JSON object, and both runs
   (same seed) report the same `attempted` and `failed`.
3. In a directory holding only BENCHMARK.json and the benchmark's files the
   command exits non-zero without printing a result.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import checker  # noqa: E402
import workloads  # noqa: E402


def _cone(gens):
    return {"schema": "conelab/cone-v1", "type": "polyhedral", "dim": 2, "generators": gens}


def _decision(answer, witness=None):
    return json.dumps({"schema": "conelab/decision-v1", "answer": answer, "witness": witness,
                       "certificate": {}, "route": "2x2"})


def check_checker(errors):
    # A planted NO (example 7.1) answered YES.
    no_item = next(it for it in map(lambda i: workloads.planar_item(1, i), range(50))
                   if it.tag == "fixture_no")
    verdict = checker.check(no_item, 0, _decision("yes", _cone([[1, 0], [0, 1]])))
    if not verdict or verdict[0] != "wrong":
        errors.append(f"planted wrong answer not flagged: {verdict}")
    # A YES whose witness the shear [[1, 0], [-1, 1]] maps out of (e1 -> e1 - e2).
    shear = workloads.Item(0, "common", "selftest", workloads.family_json([[[1.0, 0.0], [-1.0, 1.0]]]),
                           None, None, True)
    verdict = checker.check(shear, 0, _decision("yes", _cone([[1, 0], [0, 1]])))
    if not verdict or verdict[0] != "failed":
        errors.append(f"non-invariant witness not counted as a failure: {verdict}")
    # Control: the same family with an invariant witness passes.
    verdict = checker.check(shear, 0, _decision("yes", _cone([[0, -1], [1, -1]])))
    if verdict is not None:
        errors.append(f"invariant witness flagged: {verdict}")


def check_metric_names(errors):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    counts = set()
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "7",
                                 "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            errors.append(f"trace {trace} run exited {proc.returncode}: {proc.stderr[-400:]}")
            continue
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        if sorted(result) != ["attempted", "correct", "failed", "metrics"] or not result["correct"]:
            errors.append(f"trace {trace}: bad result object {sorted(result)} correct={result.get('correct')}")
            continue
        counts.add((result["attempted"], result["failed"]))
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        if set(result["metrics"]) != set(wanted):
            errors.append(f"trace {trace}: metrics {sorted(set(result['metrics']) ^ set(wanted))} "
                          "differ from BENCHMARK.json")
        report = [line.split() for line in lines[:-1]]
        printed = {words[0]: words[-1] for words in report if len(words) == 3}
        if trace == 0:
            wanted["failed_share"] = "share"
        for name, unit in wanted.items():
            got = result["metrics"].get(name, {"unit": unit})["unit"]
            if printed.get(name) != unit or got != unit:
                errors.append(f"trace {trace}: {name} printed with unit {printed.get(name)!r}/{got!r}, "
                              f"expected {unit!r}")
    if len(counts) > 1:
        errors.append(f"attempted/failed differ between two runs of one seed: {sorted(counts)}")


def check_bare_directory(errors):
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", spec["workloads"][0]["name"], "--seed", "1",
                             "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        errors.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    errors: list[str] = []
    for step in (check_checker, check_metric_names, check_bare_directory):
        step(errors)
        print(f"{step.__name__}: {'ok' if not errors else 'FAILED'}")
        if errors:
            break
    for e in errors:
        print(f"  {e}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
