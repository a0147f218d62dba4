"""End-to-end benchmark of the mkfusion CLI, with a separate traced run.

Run from the repository root:

    python3 bench/run.py --workload train-default --seed 1 --seconds 45 --trace 0

``--trace 0`` drives the real CLI (``python -m mkfusion.cli`` with
``PYTHONPATH=src`` and ``OPENBLAS_NUM_THREADS=1``) as a closed loop with one
client: each call starts when the previous one has exited. It repeats the
workload's sequence of calls (set-up, then the timed part) while another
repeat fits in ``--seconds`` seconds, and checks every output. A fixed host
probe runs between calls, and every time is reported at the reference host
speed (see ``HostProbe``); the raw wall times go to the record. ``--trace 1``
instead runs ``traced_run.py`` in a child process and reports its per-module
figures.
``--workload all`` runs every workload in turn.

Every metric is printed by name and unit. The full record (metrics, checks,
environment, behaviour fingerprint) goes to
``.bench_out/<workload>-seed<seed>-trace<trace>.json``. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

# The probe, like every CLI call, runs on one BLAS thread. With more, it can
# slow down many times over while another process holds a core.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
import numpy as np  # noqa: E402

from workloads import (WORKLOADS, Workload, check_metrics, check_ranking,
                       params_digest, parse_metrics, sha256_text, split_report)

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
STARTUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # every run must end within 180 s
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PROBE_REF_S = 0.07  # the probe's time at the reference host speed
SCALE_WINDOW_S = 2.0  # shortest reach of the probes that scale a call

END_TO_END_UNITS = {"setup_s": "s", "train_s": "s", "loop_ms_p50": "ms",
                    "loop_ms_p90": "ms", "eval_s": "s", "retrieve_s_p50": "s",
                    "peak_rss_mb": "MB"}


class CallFailed(Exception):
    pass


class Checks:
    """Counts CLI calls and output checks attempted, and records the failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


class HostProbe:
    """A fixed mix of the work the CLI does, timed between CLI calls.

    On a VM that shares its host, speed changes by up to 1.7x from second to
    second and over minutes, with the load average flat. The probe follows
    those changes with interpreter loops, small-matrix numpy ops as on the
    autodiff tape, a float-list JSON round trip as in checkpoint and dataset
    files, and 256x256 BLAS matmuls. Its code is fixed, so a change to
    mkfusion cannot move it. See ``host_scale`` for how its times scale a call.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.a, self.b = rng.standard_normal((64, 256)), rng.standard_normal((256, 64))
        self.w, self.m = rng.standard_normal((64, 64)), rng.standard_normal((256, 256))
        self.floats = rng.standard_normal(20000).tolist()
        self.samples: list[tuple[float, float]] = []  # (start, end)
        for _ in range(2):  # warm-up
            self.work()

    def work(self) -> None:
        table: dict[int, int] = {}
        for i in range(150_000):
            table[i & 1023] = table.get(i & 1023, 0) + i
        for _ in range(300):
            c = self.a @ self.b
            float((np.maximum(c, 0.2 * c) @ self.w).sum())
        json.loads(json.dumps(self.floats))
        for _ in range(30):
            self.m @ self.m

    def __call__(self) -> None:
        start = time.perf_counter()
        self.work()
        self.samples.append((start, time.perf_counter()))


def host_scale(call: dict, probes: list[tuple[float, float]]) -> float:
    """``PROBE_REF_S`` over the median time of the probes within reach of a
    call: those that overlap the span from one reach before its start to one
    reach after its end. The reach is the call's own length, and at least
    ``SCALE_WINDOW_S``. The probes just before and just after the call are
    always within reach. A short call is scaled by the host speed of the
    seconds around it. A long call, over which the speed drifts back and
    forth, is scaled by the speed of a span about three times its length.
    """
    reach = max(call["end"] - call["start"], SCALE_WINDOW_S)
    near = [end - start for start, end in probes
            if end >= call["start"] - reach and start <= call["end"] + reach]
    return PROBE_REF_S / statistics.median(near)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env.pop("MKFUSION_SEED", None)
    return env


class Client:
    """Closed-loop client: runs one command at a time in the work directory
    and returns its wall time. ``calls`` keeps every call's start, end, wall
    time and child CPU time. With a probe, the probe also runs before the
    first call and after every call. A command that fails or outlives the
    run's deadline counts as a failed call."""

    def __init__(self, work: Path, checks: Checks, deadline: float,
                 probe: HostProbe | None = None) -> None:
        self.work, self.checks, self.deadline, self.probe = work, checks, deadline, probe
        self.env = child_env()
        self.calls: list[dict] = []

    def run(self, argv: list[str], what: str) -> float:
        if self.probe and not self.probe.samples:
            self.probe()
        cpu_start = resource.getrusage(resource.RUSAGE_CHILDREN)
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=self.work, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.deadline - time.time()))
            error = proc.stderr.strip()[-400:] if proc.returncode else None
        except subprocess.TimeoutExpired:
            error = "timed out"
        end = time.perf_counter()
        if not self.checks.check(error is None, f"{what} failed: {error}"):
            raise CallFailed(what)
        cpu = resource.getrusage(resource.RUSAGE_CHILDREN)
        self.calls.append({"what": what, "start": start, "end": end, "seconds": end - start,
                           "cpu_seconds": cpu.ru_utime + cpu.ru_stime
                           - cpu_start.ru_utime - cpu_start.ru_stime})
        if self.probe:
            self.probe()
        return end - start

    def cli(self, *args: str) -> float:
        return self.run([sys.executable, "-m", "mkfusion.cli", *args], f"mkfusion {args[0]}")


def measure_end_to_end(w: Workload, seed: int, seconds: int, work: Path,
                       checks: Checks, deadline: float, record: dict
                       ) -> tuple[dict, dict]:
    """Untraced CLI run; returns the end-to-end metrics and their samples.

    Each sample is first kept as the indices of the calls it is made of, and
    scaled by ``host_scale`` once the run's last probe has been taken.
    """
    client = Client(work, checks, deadline, HostProbe())
    (work / "train.json").write_text(json.dumps(w.train_config))
    calls = defaultdict(list)  # metric -> one list of call indices per sample
    loops = []  # (index of the train call, its loop seconds)
    outputs = defaultdict(set)  # output kind -> distinct digests; one each is correct
    classes = w.retrieval_classes(seed)

    def call(*args: str) -> int:
        client.cli(*args)
        return len(client.calls) - 1

    def train(out: str) -> int:
        i = call("train", "--data", "data.json", "--out", out,
                 "--seed", str(seed), "--config", "train.json")
        calls["train_s"].append([i])
        manifest = json.loads((work / out / "manifest.json").read_text())
        resolved = {k: manifest["config"].get(k) for k in w.train_config}
        checks.check(resolved == w.train_config and manifest["seed"] == seed,
                     f"manifest config {resolved} seed {manifest['seed']} differs "
                     f"from requested {w.train_config} seed {seed}")
        loop_seconds, stripped = split_report(work / out / "report.csv")
        checks.check(len(loop_seconds) == w.train_config["steps"],
                     "report has one row per loop")
        checks.check(sum(loop_seconds) <= client.calls[i]["seconds"],
                     "report seconds sum lies within train_s")
        loops.append((i, loop_seconds))
        outputs["report_sha256"].add(sha256_text(stripped))
        outputs["params_sha256"].add(params_digest(work / out / "checkpoint.json"))
        return i

    start, rep, last = time.perf_counter(), 0, 0.0
    while rep < w.min_reps or time.perf_counter() - start + last <= seconds:
        rep_start = time.perf_counter()
        for i in range(w.setup_repeats):
            setup = [call("gen-data", *w.gen_flags(), "--seed", str(seed),
                          "--out", "data.json")]
            outputs["dataset_sha256"].add(sha256_text((work / "data.json").read_text()))
            if w.train_in_setup:
                setup.append(train(f"setup{rep}-{i}"))
            calls["setup_s"].append(setup)
        run = f"setup{rep}-0" if w.train_in_setup else f"run{rep}"
        if not w.train_in_setup:
            train(run)
        checkpoint = f"{run}/checkpoint.json"
        for j in range(w.evals_per_rep):
            out = f"eval{rep}-{j}"
            calls["eval_s"].append([call(
                "eval", "--data", "data.json", "--checkpoint", checkpoint,
                "--mode", "gzsl", "--out", out)])
            metrics_text = (work / out / "metrics.csv").read_text()
            checks.check(check_metrics(parse_metrics(metrics_text)), "metrics lie in [0, 1]")
            outputs["metrics_csv"].add(metrics_text)
        for j, class_id in enumerate(classes):
            out = f"rank{rep}-{j}.csv"
            calls["retrieve_s"].append([call(
                "retrieve", "--data", "data.json", "--checkpoint", checkpoint,
                "--class", str(class_id), "--out", out)])
            ranking = (work / out).read_text()
            checks.check(check_ranking(ranking, w.n_samples),
                         f"ranking for class {class_id} is well formed")
            outputs[f"ranking_{j}"].add(ranking)
        rep += 1
        last = time.perf_counter() - rep_start

    for kind, digests in sorted(outputs.items()):
        checks.check(len(digests) == 1, f"repeated runs with one seed give one {kind}")
    metrics = parse_metrics(metrics_text)
    record["fingerprint"] = {
        "seed": seed, "report_sha256": min(outputs["report_sha256"]),
        "params_sha256": min(outputs["params_sha256"]),
        **{k: metrics[k] for k in ("top1_unseen", "H_best", "AUSUC")}}
    for c in client.calls:
        c["scale"] = host_scale(c, client.probe.samples)
    scaled = [c["seconds"] * c["scale"] for c in client.calls]
    samples = {name: [sum(scaled[i] for i in sample) for sample in indices]
               for name, indices in calls.items()}
    per_train = [[1000.0 * s * client.calls[i]["scale"] for s in loop_seconds]
                 for i, loop_seconds in loops]
    samples["loop_ms"] = [ms for loop_ms in per_train for ms in loop_ms]
    # A slow spell of the host fills the tail of one train call's loops, so
    # the tail metric is the median of the calls' own 90th percentiles.
    samples["loop_ms_p90"] = [statistics.quantiles(loop_ms, n=10)[-1]
                              for loop_ms in per_train]
    record["samples"] = samples
    record["calls"] = client.calls
    record["raw_loop_ms"] = [[1000.0 * s for s in loop_seconds] for _, loop_seconds in loops]
    record["probes"] = client.probe.samples
    return {
        "setup_s": statistics.median(samples["setup_s"]),
        "train_s": statistics.median(samples["train_s"]),
        "loop_ms_p50": statistics.median(samples["loop_ms"]),
        "loop_ms_p90": statistics.median(samples["loop_ms_p90"]),
        "eval_s": statistics.median(samples["eval_s"]),
        "retrieve_s_p50": statistics.median(samples["retrieve_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }, samples


def measure_traced(w: Workload, seed: int, work: Path, checks: Checks,
                   deadline: float, record: dict) -> dict:
    """Traced in-process run (in a child process); returns per-module metrics."""
    client = Client(work, checks, deadline)
    startup = [client.cli("--version") for _ in range(STARTUP_REPEATS)]
    result_path = work / "traced.json"
    client.run([sys.executable, str(Path(__file__).with_name("traced_run.py")),
                "--workload", w.name, "--seed", str(seed), "--work", str(work),
                "--out", str(result_path)], "traced run")
    result = json.loads(result_path.read_text())
    for what, ok in result.pop("checks"):
        checks.check(ok, what)
    metrics = {name: value for name, (value, _) in result["metrics"].items()}
    metrics["cli.startup_s"] = statistics.median(startup)
    record["units"] = {name: unit for name, (_, unit) in result.pop("metrics").items()}
    record["units"]["cli.startup_s"] = "s"
    record["fingerprint"] = result.pop("fingerprint")
    record["traced_run"] = result
    return metrics


def environment() -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": {k: child_env().get(k) for k in BLAS_VARS},
            "loadavg_1m_start": os.getloadavg()[0]}


def run_workload(w: Workload, seed: int, seconds: int, trace: bool) -> dict:
    checks, record = Checks(), {"workload": w.name, "seed": seed, "seconds": seconds,
                                "trace": int(trace), "environment": environment()}
    work = OUT / f"work-{w.name}-{seed}-{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.time() + RUN_LIMIT_S
    metrics, samples = {}, {}
    try:
        if trace:
            metrics = measure_traced(w, seed, work, checks, deadline, record)
        else:
            metrics, samples = measure_end_to_end(w, seed, seconds, work, checks,
                                                  deadline, record)
    except CallFailed:
        pass
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"]["loadavg_1m_end"] = os.getloadavg()[0]
    units = record.pop("units", END_TO_END_UNITS)
    record.update(correct=not checks.failures, attempted=checks.attempted,
                  failed=len(checks.failures), failures=checks.failures,
                  failed_ratio=len(checks.failures) / max(1, checks.attempted),
                  metrics={k: {"value": v, "unit": units[k]} for k, v in metrics.items()})
    (OUT / f"{w.name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    print_summary(record, samples)
    return record


def print_summary(record: dict, samples: dict) -> None:
    n = {"setup_s": "setup_s", "train_s": "train_s", "loop_ms_p50": "loop_ms",
         "loop_ms_p90": "loop_ms_p90", "eval_s": "eval_s", "retrieve_s_p50": "retrieve_s"}
    print(f"# {record['workload']} seed={record['seed']} trace={record['trace']}")
    for name, m in record["metrics"].items():
        values = samples.get(n.get(name), [])
        spread = (f"  (n={len(values)}, min {min(values):.4g}, max {max(values):.4g})"
                  if values else "")
        print(f"{name:42s} {m['value']:14.6g} {m['unit']}{spread}")
    print(f"failed_ratio {record['failed_ratio']:.4g} "
          f"({record['failed']} of {record['attempted']} calls and checks)")
    for failure in record["failures"]:
        print(f"FAILED: {failure}")
    if record.get("probes"):
        probe = [end - start for start, end in record["probes"]]
        print(f"host probe: n={len(probe)}, median {statistics.median(probe):.4g} s, "
              f"min {min(probe):.4g}, max {max(probe):.4g}; times above are scaled to "
              f"{PROBE_REF_S} s per probe, raw wall times are in the record")
    print(f"fingerprint: {json.dumps(record.get('fingerprint'))}")
    print(f"environment: {json.dumps(record['environment'])}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # On SIGTERM, unwind like on an exception, so the running CLI call is
    # killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (ROOT / "src" / "mkfusion" / "cli.py").is_file():
        print(f"error: no mkfusion sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
               for name in names]
    prefix = len(records) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {(f"{r['workload']}/{k}" if prefix else k): v
                    for r in records for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
