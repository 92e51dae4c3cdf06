"""Shared plumbing of the benchmark: paths, host record, statistics, children.

Nothing here imports ``repro``: the driver process of a run stays light, and
the workload processes it launches pay for the import inside their own
measured set-up.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: Every file a run writes lives under here, inside the checkout.
TMP_ROOT = ROOT / ".perfbench_tmp"

#: Bounded waits: a child that does not answer within these raises instead
#: of hanging the run.
READY_TIMEOUT_S = 90.0
STOP_TIMEOUT_S = 15.0


class BenchError(RuntimeError):
    """A run that cannot produce a trustworthy result."""


class CheckFailed(AssertionError):
    """A program output disagreed with the benchmark's own reference."""


def require_source_tree() -> None:
    """Refuse to run outside a checkout of the repository."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {SRC}: run from a repository checkout")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # Banners and ``ready`` lines must reach the pipe as they are printed.
    env["PYTHONUNBUFFERED"] = "1"
    # One BLAS thread per process: the host has two CPUs and the servers of
    # serve_mix share them; oversubscribed BLAS pools only add noise.
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def fresh_run_dir(tag: str) -> Path:
    TMP_ROOT.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{tag}-", dir=TMP_ROOT))


def remove_run_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        TMP_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
class Children:
    """Every process a run starts, stopped on every exit path.

    ``stop_all`` sends SIGTERM, waits a bounded time, then SIGKILLs and
    reaps; a child that survives even that raises, so a run never leaves a
    process behind silently.
    """

    def __init__(self) -> None:
        self.procs: list[subprocess.Popen] = []

    def spawn(self, argv: Sequence[str], log_path: Optional[Path] = None) -> subprocess.Popen:
        stderr = open(log_path, "wb") if log_path is not None else subprocess.DEVNULL
        try:
            proc = subprocess.Popen(
                list(argv),
                cwd=str(ROOT),
                env=child_env(),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=stderr,
            )
        finally:
            if log_path is not None:
                stderr.close()
        self.procs.append(proc)
        return proc

    def stop(self, proc: subprocess.Popen, timeout: float = STOP_TIMEOUT_S) -> int:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                try:
                    proc.wait(timeout)
                except subprocess.TimeoutExpired:
                    raise BenchError(f"child {proc.pid} survived SIGKILL") from None
        if proc.stdout is not None:
            proc.stdout.close()
        return proc.returncode

    def stop_all(self) -> None:
        errors = []
        for proc in reversed(self.procs):
            try:
                self.stop(proc)
            except BenchError as error:
                errors.append(error)
        self.procs.clear()
        if errors:
            raise errors[0]

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop_all()


def read_line(proc: subprocess.Popen, prefix: str, deadline: float) -> str:
    """Read the child's stdout until a line starting with ``prefix``.

    Raises when the child exits first or ``deadline`` (a ``time.monotonic``
    value) passes — a line read blocks, so the deadline is enforced by a
    watchdog that kills the child.
    """
    expired = threading.Event()

    def watchdog() -> None:
        if not finished.wait(max(deadline - time.monotonic(), 0.0)):
            expired.set()
            proc.kill()

    finished = threading.Event()
    guard = threading.Thread(target=watchdog, daemon=True)
    guard.start()
    try:
        while True:
            raw = proc.stdout.readline()
            if not raw:
                break
            line = raw.decode("utf-8", "replace").rstrip("\n")
            if line.startswith(prefix):
                return line
    finally:
        finished.set()
        guard.join(5.0)
    if expired.is_set():
        raise BenchError(f"child {proc.pid} printed no {prefix!r} line in time")
    raise BenchError(f"child {proc.pid} exited (code {proc.wait(5.0)}) before {prefix!r}")


# ----------------------------------------------------------------------
# host record
# ----------------------------------------------------------------------
def cpu_times() -> Optional[list[int]]:
    """The host's CPU time counters (``/proc/stat``), or None without a
    steal column."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
        times = [int(value) for value in fields[1:]]
    except (OSError, ValueError):
        return None
    return times if len(times) > 7 else None


def steal_share(before: Optional[list[int]], after: Optional[list[int]]) -> float:
    """Share of the host's CPU time stolen by the hypervisor between two
    :func:`cpu_times` readings (0 where they are missing)."""
    if not before or not after:
        return 0.0
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])
    return delta[7] / total if total else 0.0


#: Seconds between two readings of ``/proc/stat`` by :class:`StealSampler`.
STEAL_SAMPLE_S = 0.1


class StealSampler:
    """Samples the host's CPU times every ``STEAL_SAMPLE_S`` on a thread, so
    the steal share of any stretch of a run can be read afterwards."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, list[int]]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            times = cpu_times()
            if times is not None:
                self.samples.append((time.perf_counter(), times))
            if self._stop.wait(STEAL_SAMPLE_S):
                return

    def __enter__(self) -> "StealSampler":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join(5.0)

    def share(self, since: float, until: float) -> float:
        """Share of the host's CPU time stolen between two ``perf_counter``
        instants (0 when ``/proc/stat`` has no steal column)."""
        before = [sample for sample in self.samples if sample[0] <= since] or self.samples[:1]
        after = [sample for sample in self.samples if sample[0] >= until] or self.samples[-1:]
        if not before or not after:
            return 0.0
        return steal_share(before[-1][1], after[0][1])


class HostRecord:
    """CPU model, CPU count, load average, and CPU steal over the run."""

    def __init__(self) -> None:
        self.start = cpu_times()

    def finish(self) -> dict:
        steal = steal_share(self.start, cpu_times())
        model = "unknown"
        try:
            with open("/proc/cpuinfo") as handle:
                for line in handle:
                    if line.startswith("model name"):
                        model = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
        return {
            "cpu_model": model,
            "nproc": os.cpu_count(),
            "loadavg": list(os.getloadavg()),
            "steal_share": steal,
        }


#: Shape of the calibration kernel: a gather-and-filter over half a million
#: fact-like rows, a weighted bincount, a sort (the kinds of numpy work the
#: engine and the degree truncation do) and an interpreter loop.
CALIBRATION_ROWS = 500_000
CALIBRATION_SORTED = 100_000
CALIBRATION_LOOP = 30_000
CALIBRATION_REPEATS = 9


def calibration_s() -> float:
    """Median CPU seconds of a fixed computation that uses nothing of ``repro``.

    A process's speed on this host depends on the process (fresh processes
    doing identical work differ by up to ±8 %) and drifts with the host's
    neighbours; the program's throughput in a process and this kernel's time
    in the same process move together, so their product is the program's
    speed at the host's reference speed (README, "Host-speed calibration").
    The inputs are fixed, and every repetition writes into anonymous memory
    maps of its own, so it pays the same page faults whatever the program
    left in the allocator.  It is timed in the thread's CPU time, which
    leaves out time the hypervisor stole and time other processes ran:
    those are corrected for apart (:func:`steal_share`).
    """
    import mmap

    import numpy as np

    rng = np.random.default_rng(0)
    rows = CALIBRATION_ROWS
    foreign = rng.integers(0, 50_000, rows)
    date = rng.integers(0, 2_555, rows)
    measure = rng.random(rows)
    attribute = rng.integers(0, 7, 50_000)

    def fresh(count: int, dtype) -> "np.ndarray":
        dtype = np.dtype(dtype)
        region = mmap.mmap(-1, count * dtype.itemsize, flags=mmap.MAP_PRIVATE)
        return np.frombuffer(region, dtype=dtype, count=count)

    times = []
    for _ in range(CALIBRATION_REPEATS):
        began = time.thread_time()
        gathered, filtered = fresh(rows, np.int64), fresh(rows, np.float64)
        mask, other = fresh(rows, bool), fresh(rows, bool)
        ordered = fresh(CALIBRATION_SORTED, np.int64)
        np.take(attribute, foreign, out=gathered)
        np.equal(gathered, 3, out=mask)
        np.less(date, 1_200, out=other)
        np.logical_and(mask, other, out=mask)
        np.multiply(measure, mask, out=filtered)
        np.bincount(date, weights=filtered, minlength=2_555)
        ordered[:] = foreign[:CALIBRATION_SORTED]
        ordered.sort(kind="quicksort")
        counts: dict = {}
        for key in range(CALIBRATION_LOOP):
            counts[key % 97] = counts.get(key % 97, 0) + 1
        times.append(time.thread_time() - began)
        del gathered, filtered, mask, other, ordered  # unmaps the regions
    return float(statistics.median(times))


#: ``calibration_s()`` on the reference host at its usual speed.  Timings
#: are reported at that speed: a run on a host running 10 % slow has its
#: throughput scaled up by 10 % again (README, "Host-speed calibration").
CALIBRATION_REFERENCE_S = 0.020


def host_factor(calibrations: Sequence[float]) -> float:
    """How much slower than its reference speed the host ran: the median
    calibration time over the reference time."""
    return float(statistics.median(calibrations)) / CALIBRATION_REFERENCE_S


def vm_hwm_mb(pid: int) -> float:
    """Peak resident memory (VmHWM) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def cpu_seconds(pid: int) -> float:
    """User + system CPU time of a live process, in seconds."""
    with open(f"/proc/{pid}/stat") as handle:
        text = handle.read()
    fields = text[text.rindex(")") + 2 :].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# statistics and output
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(int(-(-q * len(ordered) // 100)), 1)
    return float(ordered[min(rank, len(ordered)) - 1])


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def emit_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the run's result as the last line of standard output."""
    print(
        json.dumps(
            {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed), "metrics": metrics}
        ),
        flush=True,
    )


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)

