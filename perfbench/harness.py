"""Build, workload set-up, measured runs and output checks for run.py.

Every path the benchmark touches lies inside the checkout: the build tree
under .bench_build/ and the generated workloads and run outputs under
.bench_work/.
"""

import collections
import hashlib
import json
import os
import re
import shutil
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / ".bench_build"
WORK_ROOT = ROOT / ".bench_work"

# A run or set-up step still going after this long is killed and counted
# as failed, so one invocation ends within its time limit even on a hang.
STEP_TIMEOUT_S = 120


class BenchError(Exception):
    """The benchmark cannot produce a result (no sources, build or set-up failed)."""


def nproc():
    return len(os.sched_getaffinity(0))


# ---- Build ------------------------------------------------------------------


@dataclass
class Build:
    grca: Path
    driver: Path
    stamp: dict


def _run_logged(cmd, log):
    with open(log, "ab") as out:
        out.write(("\n$ " + " ".join(map(str, cmd)) + "\n").encode())
        out.flush()
        proc = subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        tail = Path(log).read_text(errors="replace").splitlines()[-40:]
        raise BenchError(
            f"command failed ({proc.returncode}): {' '.join(map(str, cmd))}\n"
            + "\n".join(tail))


def source_digest():
    """SHA-256 over the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for base in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in base.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def build(build_type="RelWithDebInfo", sanitize=""):
    """Configures (once) and builds `grca` and `grca_perfbench` from ../src."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"no G-RCA source tree at {ROOT / 'src'}; run from a "
                         "full checkout of the repository")
    name = build_type.lower() + ("-" + sanitize.replace(",", "-") if sanitize else "")
    build_dir = BUILD_ROOT / name
    log = BUILD_ROOT / f"{name}.log"
    BUILD_ROOT.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").exists():
        _run_logged(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     f"-DCMAKE_BUILD_TYPE={build_type}",
                     f"-DGRCA_SANITIZE={sanitize}"], log)
    _run_logged(["cmake", "--build", build_dir, "--target", "grca",
                 "grca_perfbench", "-j", str(nproc())], log)
    driver = build_dir / "grca_perfbench"
    info = json.loads(subprocess.run([driver, "info"], capture_output=True,
                                     text=True, check=True).stdout)
    comparable = (info["build_type"] in ("Release", "RelWithDebInfo")
                  and not info["sanitize"])
    stamp = {
        "cores": nproc(),
        "build_type": info["build_type"],
        "sanitize": info["sanitize"] or "none",
        "compiler": info["compiler"],
        "commit": git_commit(),
        "source_digest": source_digest(),
        "comparable": comparable,
    }
    return Build(grca=build_dir / "grca" / "tools" / "grca", driver=driver,
                 stamp=stamp)


def probe(b, repeat):
    """Median seconds of `repeat` machine-speed probes (grca_perfbench calibrate)."""
    proc = subprocess.run([b.driver, "calibrate", "--repeat", str(repeat)],
                          capture_output=True, text=True, timeout=STEP_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError("calibration probe failed: " + proc.stderr)
    times = sorted(float(t) for t in proc.stdout.split())
    return times[len(times) // 2]


# ---- Workloads --------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    study: str
    store: bool = False   # diagnose from a sealed store built at set-up
    stream: bool = False  # feed StreamingRca in-process instead of `grca diagnose`


WORKLOADS = {
    "batch-bgp": Workload("batch-bgp", "bgp"),
    "store-innet": Workload("store-innet", "innet", store=True),
    "stream-bgp": Workload("stream-bgp", "bgp", stream=True),
}

# `grca simulate` arguments per scale. "paper" is the 30-day study at the
# paper's network size; "mini" is the self-test's two-day toy network.
SCALES = {
    "paper": ["--paper-scale"],
    "mini": ["--days", "2", "--symptoms", "60"],
}


@dataclass
class Report:
    """What `grca diagnose --score` prints: breakdown rows and the score."""
    breakdown: dict
    symptoms: int
    correct: int
    matched: int


_ROW = re.compile(r"^(\S.*?)\s+(\d+)\s+\d+(?:\.\d+)?$")
_SYMPTOMS = re.compile(r"^mean diagnosis time: \S+ ms/symptom over (\d+) symptoms$",
                       re.M)
_SCORE = re.compile(r"^accuracy vs ground truth: \S+% \((\d+)/(\d+) matched", re.M)


def parse_report(text):
    """Parses a breakdown report; returns None when a part is missing."""
    head, sep, _ = text.partition("\nmean diagnosis time:")
    symptoms = _SYMPTOMS.search(text)
    score = _SCORE.search(text)
    if not sep or not symptoms or not score:
        return None
    breakdown = {}
    for line in head.splitlines():
        m = _ROW.match(line)
        if m:
            breakdown[m.group(1)] = breakdown.get(m.group(1), 0) + int(m.group(2))
    return Report(breakdown, int(symptoms.group(1)), int(score.group(1)),
                  int(score.group(2)))


def read_verdicts(path):
    """verdicts.tsv -> {symptom key: Counter of primaries}."""
    verdicts = collections.defaultdict(collections.Counter)
    for line in Path(path).read_text().splitlines():
        key, _, primary = line.partition("\t")
        verdicts[key][primary] += 1
    return verdicts


def verdict_errors(ref, got):
    """Missing, extra and changed verdicts, matched on (location, start)."""
    errors = 0
    for key in ref.keys() | got.keys():
        r, g = ref.get(key, collections.Counter()), got.get(key, collections.Counter())
        errors += max(sum((r - g).values()), sum((g - r).values()))
    return errors


def breakdown_errors(ref, got):
    """The fewest missing or changed verdicts that explain the per-cause
    count differences between two breakdowns."""
    diff = sum(abs(ref.breakdown.get(k, 0) - got.breakdown.get(k, 0))
               for k in ref.breakdown.keys() | got.breakdown.keys())
    total = abs(sum(ref.breakdown.values()) - sum(got.breakdown.values()))
    return (diff + total) // 2


@dataclass
class Setup:
    workload: Workload
    seed: int
    dir: Path
    corpus: Path
    store: Path
    report: Report
    verdicts: dict


def set_up(b, wl, seed, scale, dest):
    """Generates the workload's corpus (and sealed store) from `seed` and
    computes the reference verdicts: a single-thread in-process Pipeline
    over the corpus."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    corpus, store, ref = dest / "corpus", dest / "store", dest / "reference"
    cmd = [b.grca, "simulate", "--study", wl.study, "--seed", str(seed),
           "--out", corpus] + SCALES[scale]
    if wl.store:
        cmd += ["--store-out", store]
    for step in (cmd, [b.driver, "reference", "--study", wl.study, "--data",
                       corpus, "--out", ref]):
        try:
            proc = subprocess.run(step, capture_output=True, text=True,
                                  timeout=STEP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"set-up step timed out: {' '.join(map(str, step))}")
        if proc.returncode != 0:
            raise BenchError(f"set-up step failed: {' '.join(map(str, step))}\n"
                             + proc.stderr)
    report = parse_report((ref / "report.txt").read_text())
    if report is None or report.symptoms == 0:
        raise BenchError(f"set-up produced no reference verdicts in {ref}")
    return Setup(wl, seed, dest, corpus, store, report,
                 read_verdicts(ref / "verdicts.tsv"))


# ---- Runs -------------------------------------------------------------------


@dataclass
class Run:
    """One measured (or traced) process run and its checks."""
    wall_s: float = 0.0          # process start to exit, measured here
    peak_rss_mb: float = 0.0     # the process's own peak resident set
    run_s: float = 0.0           # the workload's run_s definition
    advance_ms: list = field(default_factory=lambda: [0.0, 0.0])  # p50, p99
    accuracy: float = 0.0
    errors: int = 0              # missing + changed verdicts
    base: int = 0                # reference symptoms
    result: dict = field(default_factory=dict)      # driver result.json
    problems: list = field(default_factory=list)
    dir: Path = None             # where the run's outputs are

    @property
    def ok(self):
        return not self.problems


def _spawn(cmd, run_dir):
    """Runs `cmd` to completion, killing it after STEP_TIMEOUT_S; returns
    (exit code, wall s, peak RSS MB). wait4 gives the child's own rusage."""
    with open(run_dir / "stdout.txt", "wb") as out, \
            open(run_dir / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], stdout=out, stderr=err)
        killer = threading.Timer(STEP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def _fresh(run_dir):
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    return run_dir


def _check_score(run, setup, correct, matched):
    run.accuracy = correct / matched if matched else 0.0
    if (correct, matched) != (setup.report.correct, setup.report.matched):
        run.problems.append(
            f"accuracy {correct}/{matched} != reference "
            f"{setup.report.correct}/{setup.report.matched}")


def _check_errors(run):
    if run.errors:
        run.problems.append(f"{run.errors} of {run.base} verdicts missing or changed")


def run_diagnose(b, setup, threads, run_dir):
    """One `grca diagnose` child process: the batch and store workloads."""
    wl = setup.workload
    cmd = [b.grca, "diagnose", "--study", wl.study, "--data", setup.corpus,
           "--threads", threads, "--score"]
    if wl.store:
        cmd += ["--store", setup.store]
    code, wall, rss = _spawn(cmd, _fresh(run_dir))
    run = Run(wall_s=wall, peak_rss_mb=rss, run_s=wall,
              advance_ms=[wall * 1e3, wall * 1e3], base=setup.report.symptoms)
    report = parse_report((run_dir / "stdout.txt").read_text(errors="replace")) \
        if code == 0 else None
    if report is None:
        run.errors = run.base
        run.problems.append(f"grca diagnose exited {code} or printed no report")
        return run
    run.errors = breakdown_errors(setup.report, report)
    _check_errors(run)
    _check_score(run, setup, report.correct, report.matched)
    return run


def run_driver(b, setup, threads, run_dir, traced):
    """One grca_perfbench child process: the stream workload (traced or
    not) or the traced batch/store pass."""
    wl = setup.workload
    _fresh(run_dir)
    if wl.stream:
        cmd = [b.driver, "stream", "--data", setup.corpus, "--persist",
               run_dir / "persist", "--seed", setup.seed, "--out", run_dir]
        if traced:
            cmd.append("--trace")
    else:
        cmd = [b.driver, "batch-trace", "--study", wl.study, "--data",
               setup.corpus, "--threads", threads, "--out", run_dir]
        if wl.store:
            cmd += ["--store", setup.store]
    code, wall, rss = _spawn(cmd, run_dir)
    run = Run(wall_s=wall, peak_rss_mb=rss, base=setup.report.symptoms, dir=run_dir)
    if code != 0 or not (run_dir / "result.json").exists():
        run.errors = run.base
        run.problems.append(f"grca_perfbench exited {code}")
        return run
    run.result = json.loads((run_dir / "result.json").read_text())
    run.errors = verdict_errors(setup.verdicts, read_verdicts(run_dir / "verdicts.tsv"))
    _check_errors(run)
    r = run.result
    if wl.stream:
        run.run_s = r["run_s"]
        run.advance_ms = [r["advance_p50_ms"], r["advance_p99_ms"]]
        if r["stored"] + r["rejected"] + r["dropped_late"] != r["records"]:
            run.problems.append("record conservation violated")
        if r["dropped_late"]:
            run.problems.append(f"{r['dropped_late']:.0f} records late-dropped")
        _check_score(run, setup, int(r["correct"]), int(r["matched"]))
    else:
        report = parse_report((run_dir / "report.txt").read_text())
        if report is None:
            run.problems.append("traced pass wrote no report")
        else:
            _check_score(run, setup, report.correct, report.matched)
    return run
