"""Benchmark of slrkit's ``reassign`` and ``report`` commands on seeded workloads.

One run of one workload, as the benchmark contract calls it:

    python3 perfbench/run.py --workload relabel --seed 1 --seconds 20 --trace 0

sets the workload up ``SETUPS`` times in fresh processes (``prepare.py``), then
calls ``slrkit.cli.main`` in this process, one closed-loop caller, once per
pass: a pass runs the command once over all of the workload's sessions.
Passes repeat while the next one is expected to end within ``--seconds``;
there is always at least one.  The outputs of the last pass are checked
(``checks.py``) and every pass must write byte-identical outputs.  The last
line of standard output is the JSON result; lines before it start with ``#``.

With ``--trace 0`` the metrics are the end-to-end ones: ``norm_wall_s``, the
median wall time of a pass scaled to a reference host speed (``hostspeed.py``),
median ``setup_s`` scaled by an import probe and the output's cpWER.  With
``--trace 1`` passes alternate between untraced and traced (``tracing.py``),
and the metrics are the per-layer ones of the traced passes, with the tracing
overhead as traced minus untraced wall time.

Every workload in turn, each run in its own process, with workloads
interleaved across repetitions and one traced run per workload at the end:

    python3 perfbench/run.py --workload all --seed 1 --repeat 10
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# One BLAS thread, whatever the environment says: the matrices are small, and
# idle BLAS threads spinning on the second core made passes less steady.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import slrkit  # noqa: E402
from slrkit import cli  # noqa: E402

import checks  # noqa: E402
import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".bench_work"
PREPARE = Path(__file__).resolve().parent / "prepare.py"
SETUPS = 5
MAX_PASSES = 200
CHILD_TIMEOUT_S = 170
PROBE = (sys.executable, "-c", "import numpy, scipy.optimize")
PROBE_REFERENCE_S = 0.8


@dataclass
class Pass:
    traced: bool
    wall: float  # without the host-speed sampler's time
    cpu: float
    samples: list[float]  # host-speed kernel times taken during the pass
    returncode: int
    digest: str | None
    spans: list | None


RATIOS = {
    "cpwer_after",
    "cpwer_oracle",
    "affinity.attenuated_pair_frac",
    "pipeline.relative_confusion_error",
}


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.startswith("corpus.bytes"):
        return "B"
    return "ratio" if name in RATIOS else "count"


def host_info() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(workload, seed: int, directory: Path) -> list[dict]:
    """Run ``prepare.py`` ``SETUPS`` times; each leaves the same input files.

    Just before each set-up, a probe process starts Python and imports the
    libraries slrkit imports.  Set-up time is mostly the same kind of work,
    and it drifts with the host as the probe's time does (the host-speed
    kernel, which fits the passes, does not track it), so each set-up is
    scaled to a host where the probe takes ``PROBE_REFERENCE_S``.
    """
    infos = []
    for _ in range(SETUPS):
        shutil.rmtree(directory, ignore_errors=True)
        started = time.monotonic()
        subprocess.run(PROBE, check=True, timeout=CHILD_TIMEOUT_S)
        probe_s = time.monotonic() - started
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(PREPARE), "--workload", workload.name,
             "--seed", str(seed), "--dir", str(directory)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        info["setup_s"] = info["done"] - started
        info["probe_s"] = probe_s
        info["norm_setup_s"] = info["setup_s"] * PROBE_REFERENCE_S / probe_s
        infos.append(info)
    if len({info["digest"] for info in infos}) != 1:
        raise RuntimeError("set-ups with one seed wrote different input files")
    return infos


def one_pass(argv: list[str], outputs: list[Path], traced: bool, host: hostspeed.Sampler) -> Pass:
    for path in outputs:
        path.unlink(missing_ok=True)
    tracer = tracing.Tracer()
    gc.collect()
    sampled = len(host.samples)
    with tracer.installed() if traced else nullcontext(), host.running():
        cpu = time.process_time()
        started = time.perf_counter()
        returncode = cli.main(argv)
        wall = time.perf_counter() - started
        cpu = time.process_time() - cpu
    samples = host.samples[sampled:]
    wall, cpu = wall - sum(samples), cpu - sum(samples)
    written = returncode == 0 and all(p.exists() for p in outputs)
    return Pass(
        traced, wall, cpu, samples, returncode,
        workloads.digest(outputs) if written else None,
        tracer.spans if traced else None,
    )


def timed_passes(
    argv: list[str], outputs: list[Path], seconds: float, trace: bool, host: hostspeed.Sampler
) -> list[Pass]:
    passes: list[Pass] = []
    started = time.perf_counter()
    while len(passes) < MAX_PASSES:
        traced = trace and len(passes) % 2 == 1
        passes.append(one_pass(argv, outputs, traced, host))
        if trace and len(passes) < 2:
            continue
        typical = statistics.median(p.wall for p in passes)
        if time.perf_counter() - started + typical > seconds:
            break
    return passes


def claims(workload, spans: list, layer: dict) -> list[tuple[str, bool]]:
    """The workload's design, as one traced pass shows it (raw, unscaled times)."""
    wall = layer["cli.main_s"]
    eig = layer["spectral.eig_s"] / wall
    if workload.name == "relabel":
        return [
            (f"spectral.eig_s is {eig:.1%} of wall (>= 90%)", eig >= 0.90),
            (f"metrics.cpwer_calls = {layer['metrics.cpwer_calls']} (= 0)",
             layer["metrics.cpwer_calls"] == 0),
        ]
    if workload.name == "evaluate":
        scoring = tracing.covered_s(spans, {"metrics", "oracle"}) / wall
        return [
            (f"metrics + oracle are {scoring:.1%} of wall (>= 85%)", scoring >= 0.85),
            (f"spectral.eig_s is {eig:.1%} of wall (<= 5%)", eig <= 0.05),
        ]
    own: dict[str, float] = {}
    for span, self_s in zip(spans, tracing.self_times(spans)):
        own[span.name] = own.get(span.name, 0.0) + self_s
    largest = max(own, key=own.get)
    sessions = len(workload.specs)
    return [
        (f"affinity.cosine_calls = {layer['affinity.cosine_calls']} (= 10 x {sessions})",
         layer["affinity.cosine_calls"] == 10 * sessions),
        (f"kmeans.calls = {layer['kmeans.calls']} (>= 1)", layer["kmeans.calls"] >= 1),
        (f"largest self time: {largest} ({own[largest] / wall:.1%} of wall; "
         "oracle search expected)", largest == "oracle.oracle_assignment"),
    ]


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    directory = WORK / f"{workload.name}-{seed}-{os.getpid()}"
    try:
        infos = set_up(workload, seed, directory)
        host = hostspeed.Sampler()
        outputs = workload.outputs(directory)
        rss_before_mb = _peak_rss_mb()
        passes = timed_passes(workload.argv(directory, seed), outputs, seconds, trace, host)
        peak_rss_mb = _peak_rss_mb()
        try:
            outcome = checks.check(workload, directory, seed)
        except Exception as exc:  # noqa: BLE001 - any fault in the outputs fails the run
            outcome = checks.Outcome(sessions=[f"s{i}" for i in range(len(workload.specs))])
            outcome.fail(outcome.sessions, f"check raised {exc!r}")
        bytes_written = sum(p.stat().st_size for p in outputs if p.exists())
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    sessions = len(workload.specs)
    last = passes[-1].digest
    failed = sum(
        sessions if p.returncode != 0 or p.digest is None or p.digest != last
        else len(outcome.failed)
        for p in passes
    )
    untraced = [p for p in passes if not p.traced]
    traced = [p for p in passes if p.traced]
    wall_s = statistics.median(p.wall for p in untraced)

    def factor(p: Pass) -> float:
        enough = len(p.samples) >= hostspeed.MIN_SAMPLES
        return hostspeed.factor(p.samples if enough else host.samples)

    def norm_wall(group: list[Pass]) -> float:
        return statistics.median(p.wall * factor(p) for p in group)

    print(f"# workload {workload.name} seed {seed}: {sessions} sessions, "
          f"{sum(s.total_segments for s in workload.specs)} segments, "
          f"{len(untraced)} untraced and {len(traced)} traced passes")
    print(f"# host {json.dumps(host_info())}")
    print(f"# pass wall_s {[round(p.wall, 3) for p in passes]}, "
          f"traced {[p.traced for p in passes]}, "
          f"kernel {host.kernel_s * 1000:.3f} ms over {len(host.samples)} samples")
    print(f"# set-up s {[round(i['setup_s'], 3) for i in infos]}, probe s "
          f"{[round(i['probe_s'], 3) for i in infos]}; peak RSS "
          f"{rss_before_mb:.1f} MB before the passes, {peak_rss_mb:.1f} MB after")
    print(f"# outputs sha256 {last}")
    print(f"# fail_frac {failed / (len(passes) * sessions)} ({failed}/{len(passes) * sessions})")
    for problem in outcome.problems:
        print(f"# check failed: {problem}")

    if not trace:
        metrics = {
            "norm_wall_s": norm_wall(untraced),
            "setup_s": statistics.median(i["norm_setup_s"] for i in infos),
            "cpwer_after": outcome.cpwer_after,
        }
    else:
        per_pass = [
            {k: v * factor(p) if k.endswith("_s") else v
             for k, v in tracing.layer_metrics(p.spans).items()}
            for p in traced
        ]
        metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        metrics.update({
            "corpus.bytes_written": bytes_written,
            "pipeline.generate_s": statistics.median(i["generate_s"] for i in infos),
            "pipeline.relative_confusion_error": outcome.relative_confusion_error,
            "cpwer_oracle": outcome.cpwer_oracle,
            "oracle_violations": outcome.oracle_violations,
            "process.wall_s": wall_s,
            "process.setup_s": statistics.median(i["setup_s"] for i in infos),
            "process.probe_s": statistics.median(i["probe_s"] for i in infos),
            "process.peak_rss_mb": peak_rss_mb,
            "process.rss_growth_mb": peak_rss_mb - rss_before_mb,
            "process.cpu_s": statistics.median(p.cpu for p in untraced),
            "process.calib_s": host.kernel_s,
            "trace.overhead_s": norm_wall(traced) - norm_wall(untraced),
        })
        spans = traced[-1].spans
        for text, ok in claims(workload, spans, tracing.layer_metrics(spans)):
            print(f"# claim {'holds' if ok else 'FAILS'}: {text}")
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {_unit(name)}")
    return {
        "correct": failed == 0,
        "attempted": len(passes) * sessions,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }


def _child(name: str, seed: int, seconds: float, trace: int) -> tuple[dict | None, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, [f"# exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    return json.loads(lines[-1]), lines[:-1]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_all(seed: int, seconds: float, repeat: int) -> dict:
    """Every workload ``repeat`` times, interleaved, then one traced run of each."""
    names = list(workloads.WORKLOADS)
    results: dict[str, list] = {name: [] for name in names}
    for rep in range(repeat):
        for name in names:
            result, lines = _child(name, seed + rep, seconds, 0)
            results[name].append(result)
            passes = [line[2:] for line in lines if line.startswith(("# pass", "# exit"))]
            print(f"-- {name} seed {seed + rep}: {'; '.join(passes)}", flush=True)
    summary = {"host": host_info(), "seeds": [seed, seed + repeat - 1], "workloads": {}}
    for name in names:
        runs = results[name]
        done = [r for r in runs if r is not None]
        attempted = sum(r["attempted"] for r in done) + (len(runs) - len(done))
        failed = sum(r["failed"] for r in done) + (len(runs) - len(done))
        print(f"== {name}: {len(runs)} runs, seeds {seed}..{seed + repeat - 1}, "
              f"fail_frac {failed / attempted:.4g} ({failed}/{attempted})")
        rows = {}
        for metric in (done[0]["metrics"] if done else {}):
            values = [r["metrics"][metric]["value"] for r in done]
            q1, median, q3 = _quartiles(values)
            spread = (q3 - q1) / median if median else float("nan")
            unit = done[0]["metrics"][metric]["unit"]
            rows[metric] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                            "unit": unit, "runs": len(values)}
            print(f"   {metric:<12} median {median:.6g} {unit}  "
                  f"[q1 {q1:.6g}, q3 {q3:.6g}]  spread {spread:.1%}  n={len(values)}")
        traced, lines = _child(name, seed, seconds, 1)
        print(f"   traced run, seed {seed}:")
        for line in lines:
            if line.startswith(("# claim", "# exit", "# fail_frac", "# check")) or (
                line.startswith("# ") and " = " in line
            ):
                print("   " + line[2:])
        summary["workloads"][name] = {
            "fail_frac": failed / attempted,
            "end_to_end": rows,
            "per_layer": {k: v["value"] for k, v in (traced or {}).get("metrics", {}).items()},
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload with --workload all")
    args = parser.parse_args()

    expected = ROOT / "src" / "slrkit"
    if Path(slrkit.__file__).resolve().parent != expected:
        print(f"slrkit imported from {slrkit.__file__}, not from {expected}", file=sys.stderr)
        return 2
    if args.workload == "all":
        print(json.dumps(run_all(args.seed, args.seconds, args.repeat)))
        return 0
    try:
        result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
