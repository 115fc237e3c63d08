"""Shared plumbing: run context, timing, digests and the result line."""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro._util import peak_rss_bytes

#: The checkout root (the directory holding ``src/`` and ``perfbench/``).
ROOT = Path(__file__).resolve().parent.parent

#: Scratch space for shard roots, span dumps and server files; it lives
#: inside the checkout and is listed in ``.gitignore``.
WORK_DIR = ROOT / ".perfbench"

#: Set-ups made per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: Calibration passes before each set-up.
SETUP_CALIBRATION_PASSES = 3

#: Timed calls never fall below this many per run, however slow the host.
MIN_REPS = 3

#: Iterations of one calibration pass (see :func:`calibration_pass`).
CALIBRATION_LOOPS = 300_000
#: CPU seconds of one calibration pass at the reference host speed: the
#: fast state of the 2-vCPU Xeon VM the benchmark was tuned on.
CALIBRATION_S = 0.020


class CheckFailed(RuntimeError):
    """An output check disagreed with its oracle: the run is not valid."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Run:
    """One benchmark invocation: arguments plus what it has measured."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    #: CPU seconds from process start to the workload (start-up, imports).
    import_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    #: Spans of a traced run's set-up (``None`` untraced).
    setup_recorder: object = None
    #: CPU seconds of each calibration pass, by phase: ``setup`` or
    #: ``run`` (the measurement).
    calibration: dict = field(default_factory=lambda: {"setup": [], "run": []})
    _tmp: list = field(default_factory=list)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def tempdir(self, tag: str) -> Path:
        """A fresh directory for this run, removed when the run ends."""
        WORK_DIR.mkdir(exist_ok=True)
        path = Path(tempfile.mkdtemp(prefix=f"{self.workload}-{tag}-", dir=WORK_DIR))
        self._tmp.append(path)
        return path

    def setup(self, build):
        """Build the inputs; untraced runs build several times for ``setup_s``.

        A traced run builds once with every layer wrapped, so set-up
        work such as ``HabitModel.fit`` shows in its per-layer metrics.
        Returns ``(inputs, median set-up CPU seconds)``.
        """
        if not self.trace:
            return self._median_setup(build, SETUP_REPEATS)
        from perfbench import tracing

        self.setup_recorder = tracing.Recorder()
        undo = tracing.install(self.setup_recorder)
        try:
            return self._median_setup(build, 1)
        finally:
            undo()

    def _median_setup(self, build, repeats: int):
        """Run ``build()`` ``repeats`` times; return (last result, median CPU s).

        A server that ``build()`` starts counts once it has been reaped.
        """
        times, result = [], None
        for _ in range(repeats):
            self.calibrate("setup", SETUP_CALIBRATION_PASSES)
            took, result = timed(build)
            times.append(took.cpu_s)
        self.detail["setup_cpu_s"] = {"import": self.import_s, "builds": times}
        return result, statistics.median(times)

    def calibrate(self, phase: str, passes: int = 1) -> None:
        for _ in range(passes):
            self.calibration[phase].append(calibration_pass())

    def host_slowdown(self, phase: str) -> float:
        """The host's speed in ``phase`` against the reference: >1 is slower.

        A phase's timed figures are divided by it, so that they read as
        if the host had run at the reference speed throughout.
        """
        passes = self.calibration[phase]
        slowdown = statistics.fmean(passes) / CALIBRATION_S
        self.detail.setdefault("host_slowdown", {})[phase] = slowdown
        self.detail.setdefault("calibration_passes", {})[phase] = len(passes)
        return slowdown

    def spans_path(self) -> Path:
        """Where a traced run leaves its spans (one JSON array per line)."""
        WORK_DIR.mkdir(exist_ok=True)
        path = WORK_DIR / f"spans-{self.workload}.jsonl"
        self.detail["span_file"] = str(path.relative_to(ROOT))
        return path

    def cleanup(self) -> None:
        for path in self._tmp:
            shutil.rmtree(path, ignore_errors=True)
        self._tmp.clear()


def cpu_s() -> float:
    """User + system CPU seconds of this process and its reaped children.

    Time the hypervisor gives to other guests (steal) is not in it.
    """
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def calibration_pass() -> float:
    """CPU seconds of one pass of a fixed pure-Python loop.

    The loop is no part of the program, so its time measures only the
    host.  On a shared host the speed of this process drifts by a third
    and more over minutes, and the loop drifts with it; dividing a run's
    timed figures by the loop's slowdown (:meth:`Run.host_slowdown`)
    takes most of that drift out.
    """
    start = time.process_time()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.process_time() - start


@dataclass(frozen=True)
class Times:
    """Wall and CPU seconds of one timed call."""

    wall_s: float
    cpu_s: float


def timed(call):
    """``call()`` -> ``(Times, result)``."""
    wall0, cpu0 = time.perf_counter(), cpu_s()
    result = call()
    return Times(time.perf_counter() - wall0, cpu_s() - cpu0), result


def repeat_for(run: Run, call, outputs):
    """Call ``call()`` -> ``(Times, result)`` until ``run.seconds`` have passed.

    Makes at least ``MIN_REPS`` calls, each after one calibration pass,
    so the calibration samples the host as the calls do.  Each call's
    outputs are digested as soon as it returns, and its result is
    dropped before the next call, so the process's peak memory is one
    call's working set however many calls fit.  Every call must give the
    same digest.  Returns the calls' times, the last result and the
    digest.
    """
    times, digests, result = [], set(), None
    deadline = time.perf_counter() + run.seconds
    while len(times) < MIN_REPS or time.perf_counter() < deadline:
        result = None
        run.calibrate("run")
        took, result = call()
        times.append(took)
        digests.add(digest(outputs(result)))
    check(len(digests) == 1, "repeated calls produced different outputs")
    return times, result, digests.pop()


def peak_rss_mib() -> float:
    """Peak resident memory of this process so far, in MiB."""
    return peak_rss_bytes() / 2**20


def digest(doc) -> str:
    """sha256 of a canonical JSON rendering (floats keep every digit)."""
    body = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def environment() -> dict:
    """Host facts recorded next to every result."""
    import numpy

    cpus = os.cpu_count() or 1
    return {
        "cpu_count": cpus,
        "single_cpu": cpus == 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def emit(run: Run, correct: bool) -> None:
    """Print the detail line, then the result object as the last line."""
    detail = {"workload": run.workload, "seed": run.seed, "trace": run.trace,
              "environment": environment(), **run.detail}
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": int(run.attempted),
        "failed": int(run.failed),
        "metrics": run.metrics,
    }))
    sys.stdout.flush()
