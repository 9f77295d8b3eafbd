"""The repro-schema benchmark: one workload per run, from a seed.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cold_study --seed 1 \\
        --seconds 20 --trace 0

Set-up generates the workload's corpus directories from ``--seed``
(several times; ``setup_s`` is the median) and computes the reference
report digest with the classic full-reparse path (``study
--no-incremental``, serial, no cache). ``--trace 0`` then repeats the
workload's operation for ``--seconds`` and reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` runs it untraced and
traced in-process instead and reports the per-layer metrics. Every
operation's report must match the reference digest, or it counts as
failed. The last stdout line is the JSON result; the lines before it
say the same for a human. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from reference import at_nominal_speed, interpreter_s, loop_s, relative

HERE = Path(__file__).resolve().parent

#: Set-up repeats of a measuring run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Timed operations a measuring run makes even past ``--seconds``.
MIN_OPS = 3

#: A single program run taking longer than this is killed (and fails).
OP_TIMEOUT_S = 150

#: Fresh-interpreter ``-X importtime`` samples behind ``cli.*``.
IMPORT_SAMPLES = 3


@dataclass(frozen=True)
class Workload:
    """What a workload studies and how.

    Attributes:
        corpora: the :mod:`corpora` function writing the corpus dirs.
        jobs: ``--jobs`` of the timed study.
        chunk_size: ``--chunk-size`` of the timed study (none: the
            engine's automatic chunking).
        in_process: timed through the library API in a worker process
            (``warm_refresh``) instead of as ``repro-schema`` runs.
    """

    corpora: str
    jobs: int = 1
    chunk_size: int | None = None
    in_process: bool = False


WORKLOADS = {
    "cold_study": Workload("paper_corpus"),
    # Automatic chunks (8 of 76 projects) make the wall time hinge on
    # where a seed's largest histories land; see README.md.
    "scale_map": Workload("scale_corpus", jobs=2, chunk_size=8),
    "warm_refresh": Workload("paper_and_grown_corpus", in_process=True),
}


@dataclass(frozen=True)
class Run:
    """One finished child process."""

    seconds: float
    rss_mib: float
    status: int
    stdout: bytes
    stderr: str


class Harness:
    """State of one benchmark run: paths, child env, op accounting."""

    def __init__(self, root: Path, work: Path):
        self.root = root
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        path = os.environ.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (
            os.pathsep + path if path else "")
        self.env["PYTHONIOENCODING"] = "utf-8"
        self._children = 0

    def spawn(self, argv: list[str]) -> tuple:
        """Start ``python3 argv`` with stdout/stderr going to files."""
        self._children += 1
        out = self.work / f"child-{self._children}.out"
        err = self.work / f"child-{self._children}.err"
        with out.open("wb") as stdout, err.open("wb") as stderr:
            began = perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=self.root,
                                    env=self.env, stdout=stdout,
                                    stderr=stderr, start_new_session=True)
        return proc, out, err, began

    def finish(self, started: tuple) -> Run:
        """Wait for a spawned child; return its time, peak RSS, output.

        A child still running after :data:`OP_TIMEOUT_S` is killed.
        Whatever the child left running in its process group (pool
        workers) is killed once it has exited.
        """
        proc, out, err, began = started
        timer = threading.Timer(began + OP_TIMEOUT_S - perf_counter(),
                                _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = perf_counter() - began
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)
        run = Run(seconds=seconds, rss_mib=usage.ru_maxrss / 1024,
                  status=proc.returncode, stdout=out.read_bytes(),
                  stderr=err.read_text(errors="replace"))
        out.unlink()
        err.unlink()
        return run

    def run(self, argv: list[str]) -> Run:
        return self.finish(self.spawn(argv))

    def check(self, ok: bool, what: str) -> None:
        """Count one timed operation; report it when it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"op failed: {what}", file=sys.stderr)


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def cli(*args: str) -> list[str]:
    return ["-m", "repro.cli", *args]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def median(values: list[float]) -> float:
    return statistics.median(values)


# ----------------------------------------------------------------------
# set-up


def set_up(harness: Harness, workload: Workload, seed: int,
           repeats: int) -> tuple[dict, dict[str, list[float]], dict, float]:
    """Generate the inputs ``repeats`` times and compute the oracle.

    Returns ``(corpora, setup_samples, oracle_digests, oracle_s)``; the
    samples are each repeat's wall seconds (``setup_wall_s``) and the
    same at nominal host speed (``setup_s``). Every repeat must write
    byte-identical manifests.
    """
    import corpora as corpus_mod
    import repro.sources  # noqa: F401  (imported once, outside timing)
    write = getattr(corpus_mod, workload.corpora)
    timings: list[float] = []
    references = [loop_s()]
    kept: dict | None = None
    for repeat in range(repeats):
        started = perf_counter()
        written = write(seed, harness.work / f"inputs-{repeat}")
        timings.append(perf_counter() - started)
        references.append(loop_s())
        if kept is None:
            kept = written
            continue
        if corpus_mod.manifest_digest(written) \
                != corpus_mod.manifest_digest(kept):
            raise SystemExit("set-up is not deterministic: repeats "
                             "wrote different corpora")
        shutil.rmtree(harness.work / f"inputs-{repeat}")
    started = perf_counter()
    children = {name: harness.spawn(cli(
        "study", "--no-incremental", "--source", f"dir:{path}"))
        for name, path in kept.items()}
    runs = {name: harness.finish(child) for name, child in children.items()}
    oracle = {}
    for name, run in runs.items():
        if run.status != 0:
            raise SystemExit(f"oracle study of the {name} corpus exited "
                             f"{run.status}:\n{run.stderr}")
        oracle[name] = digest(run.stdout)
    setup = {"setup_wall_s": timings,
             "setup_s": at_nominal_speed(timings, references)}
    return kept, setup, oracle, perf_counter() - started


# ----------------------------------------------------------------------
# measuring runs (--trace 0)


def cache_hits_shown(timings: str) -> int:
    """Cache hits in the TOTAL row of a ``--timings`` table (0 when the
    table shows none)."""
    rows = [[cell.strip() for cell in line.split("|")]
            for line in timings.splitlines() if "|" in line]
    header = next((row for row in rows if "cache" in row), None)
    total = next((row for row in rows if row[0] == "TOTAL"), None)
    if header is None or total is None:
        return 0
    shown = re.match(r"(\d+) hit", total[header.index("cache")])
    return int(shown.group(1)) if shown else 0


def measure_cli(harness: Harness, workload: Workload, corpora: dict,
                oracle: str, seconds: float) -> dict[str, list[float]]:
    """Time ``repro-schema study`` runs of the corpus for ``seconds``."""
    argv = cli("study", "--source", f"dir:{corpora['orig']}")
    if workload.jobs > 1:
        argv += ["--jobs", str(workload.jobs), "--timings"]
    if workload.chunk_size:
        argv += ["--chunk-size", str(workload.chunk_size)]
    samples: dict[str, list[float]] = {"study_s": [], "peak_rss_mb": []}
    references = [interpreter_s(workload.jobs, harness.env)]
    deadline = perf_counter() + seconds
    while len(samples["study_s"]) < MIN_OPS or perf_counter() < deadline:
        run = harness.run(argv)
        references.append(interpreter_s(workload.jobs, harness.env))
        samples["study_s"].append(run.seconds)
        samples["peak_rss_mb"].append(run.rss_mib)
        ok = run.status == 0 and digest(run.stdout) == oracle
        if workload.jobs > 1:
            # The scale run must stay honestly cold: no cache hits.
            ok = ok and cache_hits_shown(run.stderr) == 0
        harness.check(ok, f"study exited {run.status}; "
                          f"{run.stderr.strip()[-500:]}")
    samples["study_rel"] = relative(samples["study_s"], references)
    return samples


def check_worker_ops(harness: Harness, ops: list, oracle: dict) -> None:
    """Hold every in-process op to the oracle (and refresh to its
    delta work: exactly the appended versions re-parsed)."""
    from corpora import APPENDED_COMMITS, GROWN_PROJECTS
    for op in ops:
        ok = op["digest"] == oracle[op["corpus"]]
        if op["step"] == "refresh":
            ok = ok and op["delta_parsed"] \
                == GROWN_PROJECTS * APPENDED_COMMITS
        harness.check(ok, f"{op['step']}: digest or delta counters "
                          f"differ from the oracle")


def run_worker(harness: Harness, *argv: str) -> tuple[dict, Run]:
    run = harness.run([str(HERE / "worker.py"), *argv])
    if run.status != 0:
        raise SystemExit(f"worker exited {run.status}:\n{run.stderr}")
    return json.loads(run.stdout.decode().strip().splitlines()[-1]), run


def measure_worker(harness: Harness, corpora: dict, oracle: dict,
                   seconds: float) -> tuple[dict[str, list[float]], str]:
    """Repeat the ``warm_refresh`` iteration for ``seconds``."""
    result, run = run_worker(
        harness, "warm", "--orig", str(corpora["orig"]),
        "--grown", str(corpora["grown"]), "--work", str(harness.work),
        "--seconds", str(seconds), "--min-ops", str(MIN_OPS))
    check_worker_ops(harness, result["ops"], oracle)
    samples = result["samples"]
    samples["peak_rss_mb"] = [run.rss_mib]
    return samples, result["start_method"]


# ----------------------------------------------------------------------
# traced runs (--trace 1)


def import_times(harness: Harness) -> dict[str, float]:
    """``cli.import_s`` / ``cli.import_scipy_s``: the cumulative import
    time of ``repro.cli`` and of the outermost ``scipy`` imports under
    it, medians over fresh interpreters under ``-X importtime``."""
    totals, scipy = [], []
    for _ in range(IMPORT_SAMPLES):
        run = harness.run(["-X", "importtime", "-c", "import repro.cli"])
        if run.status != 0:
            raise SystemExit(f"import repro.cli failed:\n{run.stderr}")
        repro_us, scipy_us = _parse_importtime(run.stderr)
        totals.append(repro_us / 1e6)
        scipy.append(scipy_us / 1e6)
    return {"cli.import_s": median(totals),
            "cli.import_scipy_s": median(scipy)}


def _parse_importtime(text: str) -> tuple[int, int]:
    """``(repro.cli cumulative us, outermost scipy cumulative us)``.

    ``-X importtime`` lists a module after everything it imported,
    indented two spaces per nesting level, so a line's children are
    the deeper-indented lines directly above it.
    """
    pending: list[tuple[int, str, int]] = []
    repro_us = scipy_us = 0
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        module, cumulative_us = name.strip(), int(cumulative)
        children = []
        while pending and pending[-1][0] > depth:
            children.append(pending.pop())
        if not _is_scipy(module):
            scipy_us += sum(us for _, child, us in children
                            if _is_scipy(child))
        pending.append((depth, module, cumulative_us))
        if module == "repro.cli":
            repro_us = cumulative_us
    scipy_us += sum(us for _, module, us in pending if _is_scipy(module))
    return repro_us, scipy_us


def _is_scipy(module: str) -> bool:
    return module == "scipy" or module.startswith("scipy.")


def trace(harness: Harness, workload: Workload, corpora: dict,
          oracle: dict) -> tuple[dict[str, float], str]:
    argv = ["trace", "--orig", str(corpora["orig"]),
            "--work", str(harness.work), "--jobs", str(workload.jobs)]
    if "grown" in corpora:
        argv += ["--grown", str(corpora["grown"])]
    result, _ = run_worker(harness, *argv)
    check_worker_ops(harness, result["ops"], oracle)
    layers = result["layers"]
    layers.update(import_times(harness))
    return layers, result["start_method"]


# ----------------------------------------------------------------------
# reporting


def run_metadata(root: Path, args, start_method: str) -> dict:
    """Commit (when the checkout is a git repository), a digest of the
    source tree, and the host the numbers came from."""
    commit = None
    if (root / ".git").exists() and shutil.which("git"):
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                               capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    tree = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        tree.update(str(path.relative_to(root)).encode())
        tree.update(path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit, "src_sha256": tree.hexdigest(),
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "start_method": start_method,
    }


def describe(name: str, values: list[float], unit: str) -> str:
    if len(values) == 1:
        return f"  {name:<24} {values[0]:12.6g} {unit}"
    return (f"  {name:<24} {median(values):12.6g} {unit:<9} median of "
            f"{len(values)} (min {min(values):.6g}, max "
            f"{max(values):.6g})")


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "repro" / "cli.py").is_file():
        print(f"error: {root} holds no repro-schema source tree "
              f"(src/repro); run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    workload = WORKLOADS[args.workload]
    work = root / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    harness = Harness(root, work)
    try:
        corpora, setup, oracle, oracle_s = set_up(
            harness, workload, args.seed,
            1 if args.trace else SETUP_REPEATS)
        if args.trace:
            values, start_method = trace(harness, workload, corpora,
                                         oracle)
            declared = spec["per_layer"]
            samples = {name: [value] for name, value in values.items()}
        else:
            if workload.in_process:
                samples, start_method = measure_worker(
                    harness, corpora, oracle, args.seconds)
            else:
                samples = measure_cli(harness, workload, corpora,
                                      oracle["orig"], args.seconds)
                start_method = multiprocessing.get_start_method()
                from repro.sources import CorpusDirSource
                projects = CorpusDirSource(corpora["orig"]).count()
                samples["projects_per_s"] = [
                    projects / median(samples["study_s"])]
            samples.update(setup)
            declared = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(f"perfbench {json.dumps(run_metadata(root, args, start_method))}")
    print(f"  {'oracle_s':<24} {oracle_s:12.6g} s         reference "
          f"--no-incremental run(s), not timed as set-up")
    if not args.trace:
        # Raw wall times and the warm_refresh steps, printed only.
        extras = [("setup_wall_s", "s"), ("study_s", "s"),
                  ("projects_per_s", "projects/s")] + [
            (entry["name"], entry["unit"]) for entry in spec["per_layer"]]
        for name, unit in extras:
            if name in samples:
                print(describe(name, samples[name], unit))
    metrics = {}
    for entry in declared:
        if entry["name"] not in samples:
            raise SystemExit(f"no value measured for {entry['name']}")
        values = samples[entry["name"]]
        print(describe(entry["name"], values, entry["unit"]))
        metrics[entry["name"]] = {"value": median(values),
                                  "unit": entry["unit"]}
    print(f"  {'error_rate':<24} {harness.failed}/{harness.attempted} "
          f"failed ops / attempted ops")
    print(json.dumps({"correct": harness.failed == 0,
                      "attempted": harness.attempted,
                      "failed": harness.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
