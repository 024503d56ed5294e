"""Self-test of the receiver benchmark: a tiny run of every workload.

    python3 perfbench/selftest.py

For each workload it runs ``run.py`` for a few frames, untraced and traced,
and checks that the last stdout line is a result with exactly the metrics
BENCHMARK.json names, each a number with the declared unit; that the report
line prints all eleven end-to-end metrics with units, with ``n/a`` only for
an RMSE of a method the workload does not run; that the traced mirror
matched the untraced call on every frame; and that both runs produced the
same output digest.  Last it copies only BENCHMARK.json and ``perfbench/``
into ``.perfbench/bare`` and checks that the benchmark exits non-zero there
without printing a result.  Exits 0 when every check passes.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["perfbench/run.py", "--seconds", "0", "--min-frames", "4", "--seed", "3"]


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, *RUN, "--workload", workload, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_result(line: str, declared: list, failures: list, where: str) -> dict:
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        failures.append(f"{where}: correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        failures.append(f"{where}: metrics {sorted(set(metrics) ^ {m['name'] for m in declared})} differ")
    for m in declared:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"] or not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{where}: {m['name']} = {got}")
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for w in bench["workloads"]:
        name = w["name"]
        digests = {}
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            where = f"{name} trace={trace}"
            proc = run(name, trace)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                failures.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            check_result(lines[-1], declared, failures, where)
            report = json.loads(lines[-2])["report"]
            digests[trace] = report["output_digest"]
            if trace == 1 and not report["checks"].get("mirror_matches"):
                failures.append(f"{where}: mirror check failed on {report['mirror_mismatch_frames']}")
            if trace == 0:
                for metric, m in report["metrics"].items():
                    if not m.get("unit"):
                        failures.append(f"{where}: {metric} has no unit")
                    if m["value"] is None and not (metric.startswith("rmse_") and "note" in m):
                        failures.append(f"{where}: {metric} missing")
                if len(report["metrics"]) != 11:
                    failures.append(f"{where}: {len(report['metrics'])} end-to-end metrics, not 11")
        if len(set(digests.values())) != 1:
            failures.append(f"{name}: output digests differ between runs: {digests}")
        print(f"{name}: checked", file=sys.stderr)

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = run(bench["workloads"][0]["name"], 0, cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[:200]!r}")
    shutil.rmtree(bare)

    for f in failures:
        print("FAIL", f, file=sys.stderr)
    print("selftest", "FAILED" if failures else "passed", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
