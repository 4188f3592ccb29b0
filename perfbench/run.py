"""mildflow benchmark runner.

    python3 perfbench/run.py                      # every workload, both runs
    python3 perfbench/run.py --workload strip_march --seed 3 --trace 0

A run with ``--trace 0`` measures the end-to-end metrics; ``--trace 1``
is a separate run that wraps the package's layer modules and reports
the per-layer split (see spans.py). The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record, with the environment, goes to perfbench/_work/results.

Everything runs in this process with BLAS pinned to one thread, except
the repeated set-ups behind ``setup_s``: each is a fresh interpreter
that imports mildflow and builds the workload's models and inputs.
"""

import time

T_START = time.perf_counter()

import os  # noqa: E402

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

RUNNER = Path(__file__).resolve()
ROOT = RUNNER.parents[1]
SETUP_REPEATS = 5  # set-ups behind setup_s: this process and four children

# Gated end-to-end metrics. On a shared machine a job's wall time swings
# by up to 2x with load outside this process, for stretches of seconds
# to minutes (thread CPU time swings with it), so raw times of two runs
# differ by as much. A fixed probe kernel, timed next to every job and
# set-up, follows that speed. The gated times are pace-adjusted: a time
# divided by its probe time, then multiplied by PACE_REFERENCE_S.
END_TO_END = {
    "setup_s": "s",
    "batch_s": "s",
    "peak_rss_mb": "MB",
}
# Printed and recorded with every untraced run, but too unsteady to gate.
INFO = {"job_p50_s": "s", "job_tail_s": "s", "work_per_s": "1/s", "failed_frac": "ratio"}
PER_LAYER = {
    "propagators.action_s": "s",
    "propagators.actions": "count",
    "propagators.phi_eval_s": "s",
    "propagators.phi_evals": "count",
    "propagators.build_s": "s",
    "propagators.builds": "count",
    "propagators.fallbacks": "count",
    "propagators.transform_s": "s",
    "cloud.assembly_s": "s",
    "cloud.blocks": "count",
    "cloud.nonlinearity_s": "s",
    "cloud.nonlinearity_calls": "count",
    "strip.norm_s": "s",
    "strip.norm_calls": "count",
    "strip.transform_s": "s",
    "strip.fft_calls": "count",
    "solver.steps": "count",
    "solver.self_s": "s",
    "solver.f_evals": "count",
    "solver.f_evals_per_step": "ratio",
    "solver.norms_per_step": "ratio",
    "solver.picard_s": "s",
    "solver.picard_sweeps": "count",
    "heat.assemble_s": "s",
    "heat.nonlinearity_s": "s",
    "lab.lipschitz_s": "s",
    "lab.lipschitz_pairs": "count",
    "lab.select_s": "s",
    "lab.norm_calls": "count",
    "io.write_s": "s",
    "io.bytes_written": "B",
    "chebyshev.build_s": "s",
    "exponents.self_s": "s",
    "strip.other_s": "s",
    "cloud.other_s": "s",
    "propagators.other_s": "s",
    "solver.other_s": "s",
    "heat.other_s": "s",
    "lab.other_s": "s",
    "trace.overhead_s": "s",
}
# Job outputs counted per batch alongside the spans.
OUTPUT_COUNTS = {"solver.steps": "steps", "solver.picard_sweeps": "sweeps",
                 "io.bytes_written": "bytes"}


# Probe time in the fast spells of a shared 2-vCPU x86-64 VM (numpy with
# OpenBLAS on one thread): pace-adjusted times are seconds at that pace.
PACE_REFERENCE_S = 0.006
PACE_MATRIX = np.random.default_rng(0).standard_normal((46, 46))
PACE_FIELD = np.random.default_rng(1).standard_normal((64, 48))


def pace_probe() -> float:
    """Seconds of a fixed kernel that runs no mildflow code.

    It mixes what the workloads spend their time on: a small dense
    eigenvalue problem, a real FFT pair and interpreted Python. Its time
    follows the speed the host gives this process at that moment.
    """
    start = time.perf_counter()
    for _ in range(10):
        np.linalg.eigvals(PACE_MATRIX)
        np.fft.irfft2(np.fft.rfft2(PACE_FIELD), PACE_FIELD.shape)
        total = 0
        for i in range(3000):
            total += i * i
    return time.perf_counter() - start


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        help="strip_march, mode_spectra, lab_certify, heat_frozen or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured rounds; run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test size: one job per round, one set-up")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-references", action="store_true",
                        help="recompute references/<workload>.json over the whole case pool")
    args = parser.parse_args(argv)
    if args.seconds is None:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        args.seconds = float(spec["run_seconds"])
    return args


def import_workloads():
    """The workloads module, importing mildflow from this checkout's src/."""
    src = ROOT / "src"
    if not (src / "mildflow" / "__init__.py").is_file():
        raise ImportError(f"no mildflow package under {src}")
    sys.path.insert(0, str(src))
    import workloads
    import mildflow
    if Path(mildflow.__file__).resolve().parent != (src / "mildflow").resolve():
        raise ImportError(f"mildflow imported from {mildflow.__file__}, not {src}")
    return workloads


def min_jobs(tail_percent: float) -> int:
    """Fewest jobs that leave at least ten beyond the nearest-rank percentile."""
    n = 10
    while n - math.ceil(tail_percent / 100.0 * n) < 10:
        n += 1
    return n


def nearest_rank(values, percent: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percent / 100.0 * len(ordered)) - 1)]


def git_commit():
    """HEAD of the checkout's git repository, read from .git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import scipy
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas.get('version', '')}".strip()
    except (AttributeError, KeyError, TypeError):
        vendor = "unknown"
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": vendor,
            "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "nproc": nproc, "commit": git_commit(), "seed": seed}


def child_setup(args) -> tuple[float, float]:
    """One set-up in a fresh interpreter: its seconds and probe seconds."""
    cmd = [sys.executable, str(RUNNER), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120, check=True)
    seconds, pace = done.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(pace)


class Measurement:
    """Job records of one run, split into traced and untraced rounds."""

    def __init__(self):
        self.times = {False: [], True: []}
        self.paces = []  # probe seconds before and after each untraced job
        self.relative = {}  # index in the batch -> untraced job times / probe
        self.failed = 0
        self.attempted = 0
        self.work = 0
        self.traced_outputs = dict.fromkeys(OUTPUT_COUNTS.values(), 0)
        self.rounds = {False: 0, True: 0}

    def run_round(self, workload, traced: bool) -> None:
        clock = time.perf_counter
        pace = pace_probe()
        for index, case in enumerate(workload.cases):
            self.attempted += 1
            start = clock()
            try:
                out = workload.job(case)
            except Exception:  # a crashing job is a failed job; keep measuring
                traceback.print_exc()
                self.failed += 1
                pace = pace_probe()
                continue
            elapsed = clock() - start
            before, pace = pace, pace_probe()
            self.times[traced].append(elapsed)
            if not traced:
                self.paces += [before, pace]
                self.relative.setdefault(index, []).append(2.0 * elapsed / (before + pace))
            if not workload.check(case, out):
                print(f"check failed: {workload.name} case {case}: {out}", file=sys.stderr)
                self.failed += 1
            self.work += out["work"]
            if traced:
                for key in self.traced_outputs:
                    self.traced_outputs[key] += out.get(key, 0)
        self.rounds[traced] += 1


def measure(workload, args, tracer, setups):
    """Rounds of the whole batch until --seconds of rounds have passed.

    Untraced runs also wait, up to three times as long, for enough jobs
    to give the tail percentile ten jobs beyond it. Between rounds they
    time the extra set-ups in fresh interpreters, spread over the run so
    that the set-ups meet the same mix of machine load as the jobs.
    Traced runs alternate untraced and traced rounds and end on a traced
    one, so both halves see the same cases.
    """
    m = Measurement()
    full = tracer is None and not args.tiny
    needed = min_jobs(workload.tail_percent) if full else 0
    children = SETUP_REPEATS - 1 if full else 0
    seconds = 0.0 if args.tiny else args.seconds
    measured = 0.0
    while True:
        while len(setups) - 1 < children and \
                measured >= (len(setups) - 1) * seconds / children:
            setups.append(child_setup(args))
        enough = len(m.times[False]) >= needed or measured >= 3 * seconds
        done = m.rounds[False] and measured >= seconds and enough
        if done and (tracer is None or m.rounds[True] == m.rounds[False]):
            return m
        traced = tracer is not None and m.rounds[False] > m.rounds[True]
        start = time.perf_counter()
        if traced:
            tracer.install()
        try:
            m.run_round(workload, traced)
        finally:
            if traced:
                tracer.uninstall()
        measured += time.perf_counter() - start


def end_to_end_metrics(workload, m: Measurement, setups) -> tuple[dict, dict, list]:
    times = m.times[False]
    # A job's time over the mean of the probes just before and after it.
    batch = sum(statistics.median(r) for r in m.relative.values())
    metrics = {
        "setup_s": PACE_REFERENCE_S * statistics.median([s / p for s, p in setups]),
        "batch_s": PACE_REFERENCE_S * batch,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {"job_p50_s": statistics.median(times),
            "job_tail_s": nearest_rank(times, workload.tail_percent),
            "work_per_s": m.work / sum(times),
            "failed_frac": m.failed / m.attempted}
    beyond = len(times) - math.ceil(workload.tail_percent / 100 * len(times))
    notes = [f"setup_s: median of {len(setups)} pace-adjusted set-ups",
             f"batch_s: sum over {len(m.relative)} cases of the median of "
             f"{m.rounds[False]} pace-adjusted job times",
             f"job_tail_s: p{workload.tail_percent} of {len(times)} jobs ({beyond} beyond)",
             f"job_p50_s: median of {len(times)} jobs",
             f"work_per_s: {workload.work_unit} per second of job time"]
    return metrics, info, notes


def per_layer_metrics(tracer, setup_end: int, m: Measurement) -> tuple[dict, list]:
    """One set-up plus one batch: set-up spans once, job spans per traced round."""
    rounds = m.rounds[True]
    setup = tracer.layer_totals(0, setup_end)
    jobs = tracer.layer_totals(setup_end, tracer.size)
    batch = {key: setup[key] + jobs[key] / rounds for key in jobs}
    for metric, key in OUTPUT_COUNTS.items():
        batch[metric] = m.traced_outputs[key] / rounds
    steps = batch["solver.steps"]
    batch["solver.f_evals"] = batch.pop("solver.model_f_evals")
    batch["solver.f_evals_per_step"] = batch["solver.f_evals"] / steps if steps else 0.0
    norms = batch.pop("solver.model_norms")
    batch["solver.norms_per_step"] = norms / steps if steps else 0.0
    batch["trace.overhead_s"] = (statistics.median(m.times[True])
                                 - statistics.median(m.times[False]))
    notes = [f"per-layer: one set-up plus one batch of the {rounds} traced rounds; "
             f"trace.overhead_s: traced minus untraced job median over "
             f"{len(m.times[True])} + {len(m.times[False])} jobs"]
    metrics = {}
    for key, unit in PER_LAYER.items():
        value = batch[key]
        exact = unit in ("count", "B") and float(value).is_integer()
        metrics[key] = int(value) if exact else value
    return metrics, notes


def run_workload(args, workloads) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed, 1 if args.tiny else None)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        workload.setup()
    finally:
        if tracer is not None:
            tracer.uninstall()
    seconds = time.perf_counter() - T_START
    setups = [(seconds, min(pace_probe(), pace_probe()))]  # the first call warms up
    if args.setup_only:
        print(*map(repr, setups[0]))
        return 0
    setup_end = tracer.size if tracer is not None else 0

    m = measure(workload, args, tracer, setups)
    if not all(m.times[traced] for traced, rounds in m.rounds.items() if rounds):
        print(f"perfbench: every {workload.name} job raised", file=sys.stderr)
        return 1
    info = {}
    if tracer is not None:
        metrics, notes = per_layer_metrics(tracer, setup_end, m)
        units = PER_LAYER
    else:
        metrics, info, notes = end_to_end_metrics(workload, m, setups)
        units = END_TO_END

    env = environment(args.seed)
    results = workloads.WORK_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    if tracer is not None:
        tracer.save(workloads.WORK_DIR / f"spans-{workload.name}.npz")
    record = {"workload": workload.name, "trace": args.trace, "environment": env,
              "cases": workload.cases, "setup_seconds_and_probe": setups,
              "rounds": {"untraced": m.rounds[False], "traced": m.rounds[True]},
              "job_seconds": {"untraced": m.times[False], "traced": m.times[True]},
              "pace_seconds": m.paces,
              "attempted": m.attempted, "failed": m.failed, "notes": notes,
              "info": {k: {"value": v, "unit": INFO[k]} for k, v in info.items()},
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    with open(results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)

    print(f"workload {workload.name} seed {args.seed} trace {args.trace}")
    print("environment " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"jobs attempted={m.attempted} failed={m.failed} batch={len(workload.cases)}")
    for note in notes:
        print("note " + note)
    for key, value in info.items():
        print(f"info {key} = {value!r} {INFO[key]}")
    for key, value in metrics.items():
        print(f"metric {key} = {value!r} {units[key]}")
    print(json.dumps({"correct": m.failed == 0, "attempted": m.attempted,
                      "failed": m.failed, "metrics": record["metrics"]}))
    return 0


def write_references(args, workloads) -> int:
    for name, cls in workloads.WORKLOADS.items():
        if args.workload not in ("all", name) or not cls.pool:
            continue
        workload = cls(args.seed)
        workload.cases = list(range(cls.pool))
        workload.setup()
        stored = {str(case): workload.reference_record(workload.job(case))
                  for case in workload.cases}
        workloads.REFERENCE_DIR.mkdir(exist_ok=True)
        path = workloads.REFERENCE_DIR / f"{name}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(stored, handle, indent=1, sort_keys=True)
        print(f"wrote {len(stored)} references to {path}")
    return 0


def run_all(args, names) -> int:
    """Every workload untraced, then traced, each in its own process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(RUNNER), "--workload", name,
                   "--seed", str(args.seed), "--seconds", repr(args.seconds),
                   "--trace", str(trace)] + (["--tiny"] if args.tiny else [])
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            sys.stderr.write(done.stderr)
            if done.returncode or not lines:
                print(f"perfbench: {name} trace {trace} exited {done.returncode}",
                      file=sys.stderr)
                return done.returncode or 1
            print("\n".join(lines[:-1]))
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        workloads = import_workloads()
    except ImportError as exc:
        print(f"perfbench: cannot import mildflow: {exc}", file=sys.stderr)
        return 2
    if args.workload not in ("all", *workloads.WORKLOADS):
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.write_references:
        return write_references(args, workloads)
    if args.workload == "all":
        return run_all(args, list(workloads.WORKLOADS))
    return run_workload(args, workloads)


if __name__ == "__main__":
    sys.exit(main())
