"""Benchmark runner for morphkv.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload long_decode --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One invocation runs one workload in this process. ``--trace 0`` measures
the end-to-end metrics over whole passes for about ``--seconds`` (at least
one). ``--trace 1`` alternates untraced and traced passes for
``--seconds`` (at least one pair) and reports the per-layer metrics. Every
pass's outputs are checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``, and any
failed check makes the exit code 1.
``--workload all`` runs every workload, each in a fresh process of its own.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# One BLAS thread (at most nproc) starts no thread pool and keeps float64
# summation order fixed. This must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402

from tracer import Recorder, json_proxy, layer_metrics, layer_targets, probe_targets, replaced, run_timings  # noqa: E402
from workloads import ORACLE_INSTANCES, ROOT, WORKLOADS, Checks, check_pass, clean_dir  # noqa: E402

SETUP_REPS = 5  # before the passes, and as many again after them
MK_MODULES = ("cli", "harness", "baselines", "morph", "model", "cache")
# The time SpeedProbe.reference takes at the nominal speed that normalised
# times are expressed in: a middling speed of the 2-vCPU Xeon VM the README
# describes, where it took 0.27 to 0.63 ms.
REF_NOMINAL_S = 0.4e-3


class SpeedProbe:
    """Samples the speed of this process's core all through a run.

    While :meth:`running`, a ``SIGALRM`` every ``interval`` seconds of wall
    time runs :meth:`reference` between two bytecodes of the program and
    times it. No thread or process is started. A wall time measured since a
    :meth:`mark`, less the handler's own time (:meth:`program_s`), times
    :meth:`speed` is that time in seconds at the nominal speed. The
    measuring machine changes speed by up to 1.5 times within seconds and
    the program slows with it; the ratio cancels most of that (see the
    README).
    """

    PASS_INTERVAL = 0.025
    SETUP_INTERVAL = 0.01

    def __init__(self):
        import numpy as np

        self.np = np
        self.rows = [np.full(64, i, dtype=np.float64) for i in range(32)]
        self.samples: list[float] = []
        self.spent = 0.0

    def reference(self):
        """Fixed work in the program's mix, about half each: an interpreted
        loop, and small numpy calls (stack, matrix-vector product)."""
        acc = 0
        for i in range(2000):
            acc += i * i % 7
        for _ in range(6):
            acc += float((self.np.stack(self.rows) @ self.rows[1]).max())
        return acc

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.reference()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    @contextlib.contextmanager
    def running(self, interval):
        old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)

    def mark(self):
        return len(self.samples), self.spent

    def speed(self, since) -> float:
        """Nominal over measured reference time since ``since`` (1 at nominal speed)."""
        if len(self.samples) == since[0]:
            self._handler(None, None)  # too short a stretch for the timer: sample now
        return REF_NOMINAL_S / statistics.fmean(self.samples[since[0]:])

    def program_s(self, wall, since) -> float:
        """``wall`` (measured since ``since``) less the handler's time in it."""
        return wall - (self.spent - since[1])


def _is_morphkv(name):
    return name == "morphkv" or name.startswith("morphkv.")


def set_up():
    """Import numpy and morphkv; returns the modules and the numpy import time.

    numpy can be imported only once per process, so that import is timed
    once, in wall seconds; :func:`setup_reps` times the rest of set-up
    repeatedly and gives the speed to normalise the import by.
    """
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    numpy_s = time.perf_counter() - t0
    sys.path.insert(0, str(ROOT / "src"))
    importlib.import_module("morphkv.cli")
    mk = types.SimpleNamespace(**{name: sys.modules[f"morphkv.{name}"] for name in MK_MODULES})
    return mk, numpy_s


def setup_reps(workload, work, seed, probe):
    """``SETUP_REPS`` set-ups, each in normalised seconds: morphkv import
    from a clean ``sys.modules``, every config load and every weight init
    of the workload.

    Each repetition is normalised by the probe samples of all of them. The
    modules the passes use are put back afterwards.
    """
    kept = {name: module for name, module in sys.modules.items() if _is_morphkv(name)}
    reps = []
    with probe.running(probe.SETUP_INTERVAL):
        phase = probe.mark()
        for _ in range(SETUP_REPS):
            for name in [m for m in sys.modules if _is_morphkv(m)]:
                del sys.modules[name]
            mark = probe.mark()
            t0 = time.perf_counter()
            importlib.import_module("morphkv.cli")
            harness = sys.modules["morphkv.harness"]
            for path in workload.config_paths(work):
                config = harness.load_run_config(str(path))
                harness.init_model(dataclasses.replace(config.model, seed=seed))
            reps.append(probe.program_s(time.perf_counter() - t0, mark))
        speed = probe.speed(phase)
    for name in [m for m in sys.modules if _is_morphkv(m)]:
        del sys.modules[name]
    sys.modules.update(kept)
    return [rep * speed for rep in reps], speed


def _blas_threads():
    """Thread count OpenBLAS reports, read through its own getter."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype, getter.argtypes = ctypes.c_int, []
                return getter()
    return None


def _os_threads():
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def environment():
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(),
        "os_threads": _os_threads(),
    }


def _capturing(fn, results):
    def capture(*args, **kwargs):
        result = fn(*args, **kwargs)
        results.append(result)
        return result

    return capture


def one_pass(workload, mk, seed, work, rec, targets, json_stand_in=None):
    """Run one timed pass under ``targets``; returns (wall seconds, output)."""
    captured = []
    with (replaced(mk.harness, "json", json_stand_in or mk.harness.json), rec.installed(targets),
          replaced(mk.cli, "run", _capturing(mk.cli.run, captured))):
        t0 = time.perf_counter()
        out = workload.run_pass(mk, seed, work)
        wall = time.perf_counter() - t0
    out.runs = [result.trace.to_dict() for result in captured]
    workload.collect(out, work)
    return wall, out


def measure(workload, mk, seed, work, seconds, checks, probe):
    """Untraced passes for about ``seconds``; end-to-end metrics.

    Passes run until the next one, of the mean length so far, would end
    more than half a pass past ``seconds``: the pass count whose total is
    nearest to ``seconds``, and always at least one. Each pass is normalised
    by the probe samples taken during it, and ``wall_s`` is the mean.
    Each pass's spans are reduced to totals at once and dropped, so memory
    does not grow with the number of passes.
    """
    walls, normalised, speeds, values, digests = [], [], [], None, []
    prefill_ns = decode_ns = runs = steps = 0
    start = time.perf_counter()
    while True:
        rec = Recorder()
        with probe.running(probe.PASS_INTERVAL):
            mark = probe.mark()
            wall, out = one_pass(workload, mk, seed, work, rec, probe_targets(mk))
            program_s = probe.program_s(wall, mark)
            speeds.append(probe.speed(mark))
        normalised.append(program_s * speeds[-1])
        pass_prefill, pass_decode, pass_steps = run_timings(rec.spans)
        prefill_ns += sum(pass_prefill)
        decode_ns += sum(pass_decode)
        runs += len(pass_prefill)
        steps += pass_steps
        walls.append(wall)
        values, found = check_pass(workload, checks, out, seed)
        digests.append(found)
        del out, rec  # not alive during the next pass, so peak RSS does not depend on the pass count
        if time.perf_counter() - start + statistics.fmean(walls) / 2 > seconds:
            break
    checks.check(all(d == digests[0] for d in digests), f"{workload.name}: outputs differ between passes at one seed")
    wall = statistics.fmean(normalised)
    samples = {"passes": len(walls), "runs": runs, "decode_steps": steps, "probe_samples": len(probe.samples),
               "pass_wall_s": [round(w, 3) for w in walls], "pass_speed": [round(v, 3) for v in speeds]}
    # Raw phase timings, deterministic quality values and throughput that
    # are printed but not in the result (see the README for why).
    extra = {
        "raw_wall_s": (statistics.fmean(walls), "s"),
        "prefill_s": (prefill_ns / runs / 1e9, "s"),
        "decode_tok_s": (steps / (decode_ns / 1e9), "tok/s"),
        **{k: (v, "1") for k, v in values.items()},
    }
    if workload.name == "oracle_sweep":
        extra["oracle_inst_s"] = (ORACLE_INSTANCES / wall, "inst/s")
    return {"wall_s": (wall, "s")}, extra, samples, digests[0]


def trace(workload, mk, seed, work, seconds, checks, probe):
    """Untraced and traced passes in pairs; per-layer metrics of the first traced pass.

    Pairs run until another would overrun ``seconds`` (at least one pair),
    and the order within a pair alternates, so slow drift of the machine
    falls on both sides. Every pass is normalised by the speed probe, whose
    samples cost the traced pass's spans about 2% of their time.
    ``trace.overhead_ratio`` is the median of the pairs' traced-over-untraced
    ratios of normalised time.
    """
    ratios, metrics, digests = [], None, []
    stand_in = json_proxy()
    start = time.perf_counter()
    while True:
        walls, elapsed = {}, 0.0
        for traced in (False, True) if len(ratios) % 2 == 0 else (True, False):
            rec = Recorder()
            targets = layer_targets(mk, stand_in) if traced else probe_targets(mk)
            with probe.running(probe.PASS_INTERVAL):
                mark = probe.mark()
                wall, out = one_pass(workload, mk, seed, work, rec, targets, stand_in if traced else None)
                program_s = probe.program_s(wall, mark)
                walls[traced] = program_s * probe.speed(mark)
            elapsed += wall
            digests.append(check_pass(workload, checks, out, seed)[1])
            del out
            if traced and metrics is None:
                rec.write_csv(work / "spans.csv")
                metrics, spans = layer_metrics(rec.spans), len(rec.spans)
            del rec
        ratios.append(walls[True] / walls[False])
        if time.perf_counter() - start + elapsed > seconds:
            break
    checks.check(all(d == digests[0] for d in digests), f"{workload.name}: traced outputs differ from untraced outputs")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    samples = {"spans": spans, "pairs": len(ratios), "overhead_ratios": [round(r, 4) for r in ratios]}
    return metrics, samples, digests[0]


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    work = ROOT / "perfbench" / "_work" / workload.name
    clean_dir(work)
    workload.prepare(work)
    mk, numpy_s = set_up()
    probe = SpeedProbe()
    env = environment()
    checks = Checks()
    checks.check(env["os_threads"] in (1, None), f"process runs {env['os_threads']} threads; expected 1")
    if args.trace:
        metrics, samples, digests = trace(workload, mk, seed, work, args.seconds, checks, probe)
        extra = {}
    else:
        # Set-up is timed before and after the passes, so that the median
        # does not rest on one moment of the machine's speed.
        reps, speed_before = setup_reps(workload, work, seed, probe)
        timed, extra, samples, digests = measure(workload, mk, seed, work, args.seconds, checks, probe)
        rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        after, speed_after = setup_reps(workload, work, seed, probe)
        reps += after
        numpy_s *= speed_before
        setup_s = numpy_s + statistics.median(reps)
        metrics = {"setup_s": (setup_s, "s"), **timed, "peak_rss_mb": (rss_mib, "MiB")}
        extra["fail_ratio"] = (checks.failed / checks.attempted, "1")
        samples["setup_reps_s"] = [round(r, 4) for r in reps]
        samples["setup_speed"] = [round(speed_before, 3), round(speed_after, 3)]
        samples["numpy_import_s"] = round(numpy_s, 4)
    print("# env " + json.dumps({"workload": workload.name, "seed": seed, **env}, sort_keys=True))
    print("# samples " + json.dumps(samples, sort_keys=True))
    # In the form digests.json keeps; at the default seed these are checked against it.
    print("# digests " + json.dumps({workload.name: digests}, sort_keys=True))
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"# {workload.name} {name} = {value:.6g} {unit}")
    for failure in checks.failures:
        print(f"# FAILED {failure}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if checks.failed == 0 else 1


def run_all(args) -> int:
    """Every workload in a fresh process of its own, one after another."""
    results, status = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        status = status or proc.returncode or (results[name] is None)
    print(json.dumps(results))
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=None, help="model seed; defaults to the shipped config's own")
    parser.add_argument("--seconds", type=float, default=20, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "morphkv" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} is not a morphkv checkout (src/morphkv or configs/ missing)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
