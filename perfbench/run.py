#!/usr/bin/env python3
"""Repository benchmark of the Affinity Alloc simulator.

Usage (from the repository root)::

    python3 perfbench/run.py --workload affine --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Workloads (see ``spec.WORKLOADS`` and README.md): ``affine``,
``irregular`` and ``zoo_contended``; ``all`` runs the three one after
another, each in its own process, and adds the accuracy line.

``--trace 0`` measures the end-to-end metrics with tracing off:

* the set-up: fresh interpreter, empty ``REPRO_CACHE_DIR``, ``import
  repro`` plus the first workload call.  The measuring process takes one
  sample itself and two more probe processes take one each; the median
  is reported;
* warm calls for ``--seconds`` seconds in all, in three blocks of at
  least one call, one after each set-up sample; ``wall_s`` is their
  median.

``--trace 1`` is the traced run that gives the per-layer metrics (see
``layers.py``): one traced cold call (the set-up layers), then untraced
and traced warm calls in alternation for ``2 * --seconds`` seconds.

Every call's outputs are checked (``spec.check_cells``) and its figure
rows must equal the first call's.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
exit code is 0 only when every check passed.  All files the run writes
go under ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import spec  # noqa: E402  (stdlib-only at import time)

SETUP_SAMPLES = 3
MIN_TRACED_CALLS = 2
PROBE_TIMEOUT_S = 150

E2E_UNITS = {
    "wall_s": "s",
    "sim_events_per_s": "events/s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ok_frac": "ratio",
    "sim_speedup_aff": "x",
    "sim_energy_eff_aff": "x",
    "sim_traffic_aff": "ratio",
}


class Run:
    """Attempted/failed cell counts and correctness of one benchmark run."""

    def __init__(self, wl: spec.Workload) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems: list = []
        self.rows = None

    def check(self, label: str, res) -> None:
        """Count one in-process call's cells and compare its rows."""
        self.record(label, spec.check_cells(self.wl, res), spec.rows_of(res))

    def record(self, label: str, bad: list, rows) -> None:
        """Count one call's cells, ``bad`` naming the failed ones."""
        self.attempted += spec.cells(self.wl)
        self.failed += min(len(bad), spec.cells(self.wl))
        self.problems += [f"{label}: {b}" for b in bad]
        self.same_rows(label, rows)

    def raised(self, label: str, exc: BaseException) -> None:
        self.attempted += spec.cells(self.wl)
        self.failed += spec.cells(self.wl)
        self.problems.append(f"{label}: raised {exc!r}")

    def same_rows(self, label: str, rows) -> None:
        if self.rows is None:
            self.rows = rows
        elif rows != self.rows:
            self.problems.append(f"{label}: figure rows differ from the "
                                 "first call's")

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def probe(*args: str, cache: Path) -> dict:
    env = dict(os.environ, REPRO_CACHE_DIR=str(cache))
    out = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), *args], env=env, cwd=ROOT,
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"probe {' '.join(args)} exited "
                           f"{out.returncode}: {out.stderr.strip()[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def timed_calls(run: Run, seed: int, seconds: float, min_calls: int,
                label: str, before=None, first: int = 1) -> list:
    """Warm calls back to back until ``seconds`` passed and at least
    ``min_calls`` ran; returns ``[(wall seconds, result, sessions)]``.
    Calls are named ``<label>-<n>`` counting from ``first``."""
    out = []
    start = time.perf_counter()
    while len(out) < min_calls or time.perf_counter() - start < seconds:
        name = f"{label}-{first + len(out)}"
        if before is not None:
            before(name)
        t0 = time.perf_counter()
        try:
            res, interfere, relayout = spec.call_figure(run.wl, seed)
        except Exception as exc:  # a failed call is counted, not fatal
            run.raised(name, exc)
            break
        out.append((time.perf_counter() - t0, res, (interfere, relayout)))
        run.check(name, res)
    return out


def provenance(build: dict, seed: int, cache_state: str) -> dict:
    import numpy
    return {
        "cpu_count": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "kernels": build["backend"],
        "so_compiled_during_setup": build["so_compiled"],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cache": cache_state,
        "seed": seed,
        "tuned_seed": spec.TUNED_SEED,
        "held_back_seed": seed != spec.TUNED_SEED,
    }


# ----------------------------------------------------------------------
# Untraced run: end-to-end metrics
# ----------------------------------------------------------------------
def measure(run: Run, seed: int, seconds: float) -> dict:
    import probe as fresh
    os.environ["REPRO_CACHE_DIR"] = str(fresh_dir(WORK / "cache-main"))
    try:
        setup_s, cold = fresh.cold_call(run.wl, seed)
    except Exception as exc:
        run.raised("cold", exc)
        return {}
    setups = [setup_s]
    run.check("cold", cold)
    # One warm block after each set-up sample: the warm calls then spread
    # over the whole run, which evens out slow drifts in host speed.
    warm = timed_calls(run, seed, seconds / SETUP_SAMPLES, 1, "warm")
    for i in range(1, SETUP_SAMPLES):
        label = f"setup-probe-{i}"
        try:
            out = probe("setup", "--workload", run.wl.name, "--seed",
                        str(seed), cache=fresh_dir(WORK / "cache-probe"))
        except (RuntimeError, subprocess.SubprocessError, ValueError) as exc:
            run.raised(label, exc)
        else:
            setups.append(out["setup_s"])
            run.record(label, out["failed"], out["rows"])
        done = sum(w for w, _, _ in warm)
        warm += timed_calls(run, seed, seconds * (i + 1) / SETUP_SAMPLES
                            - done, 1, "warm", first=len(warm) + 1)
    shutil.rmtree(WORK / "cache-probe", ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not warm:
        return {}
    wall_s = statistics.median(w for w, _, _ in warm)
    metrics = {
        "wall_s": wall_s,
        "sim_events_per_s": spec.sim_events(cold) / wall_s,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setups),
        "ok_frac": 1.0 - run.failed / run.attempted,
        **spec.figure_metrics(run.rows),
    }
    print(f"set-up samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
    print(f"warm calls (s):     {', '.join(f'{w:.3f}' for w, _, _ in warm)}")
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}


# ----------------------------------------------------------------------
# Traced run: per-layer metrics
# ----------------------------------------------------------------------
def _session_counts(sessions) -> dict:
    interfere, relayout = sessions
    istates = interfere.states if interfere is not None else []
    rstates = relayout.states if relayout is not None else []
    return {
        "interfere.host_epochs": float(sum(s.epoch_index for s in istates)),
        "interfere.host_msgs": float(sum(s.injected_messages
                                         for s in istates)),
        "relayout.migrations": float(sum(s.total_applied for s in rstates)),
    }


def measure_traced(run: Run, seed: int, seconds: float, spans_path: Path):
    os.environ["REPRO_CACHE_DIR"] = str(fresh_dir(WORK / "cache-main"))
    # Load every module a call uses before wrapping, so no module binds a
    # wrapper by name that would outlive the traced block.
    import repro.harness.experiments  # noqa: F401
    import repro.interfere.engine  # noqa: F401
    import repro.relayout.engine  # noqa: F401
    import repro.workloads  # noqa: F401
    from repro.cache import get_cache
    import layers

    tracer = layers.Tracer()
    cache = get_cache()
    hits0, misses0 = cache.hits, cache.misses
    with tracer:
        tracer.call = "cold"
        try:
            cold, _, _ = spec.call_figure(run.wl, seed)
        except Exception as exc:
            run.raised("cold", exc)
            return {}
    hits, misses = cache.hits - hits0, cache.misses - misses0
    run.check("cold", cold)

    def start(name: str) -> None:
        tracer.call = name

    # Untraced and traced warm calls alternate, so a slow drift in host
    # speed falls on both alike and cancels out of trace_overhead_frac.
    plain, traced = [], []
    begin = time.perf_counter()
    while (len(traced) < MIN_TRACED_CALLS
           or time.perf_counter() - begin < 2 * seconds):
        n = len(traced) + 1
        one = timed_calls(run, seed, 0, 1, "warm", first=n)
        with tracer:
            one_traced = timed_calls(run, seed, 0, 1, "traced",
                                     before=start, first=n)
        if not one or not one_traced:
            return {}
        plain += one
        traced += one_traced
    untraced_rows = rows_path(run.wl.name, seed)
    if untraced_rows.is_file():
        # Rows of an untraced run at this seed, if one ran in this checkout.
        run.same_rows("untraced run", json.loads(untraced_rows.read_text()))
    metrics = layers.layer_metrics(
        tracer, [f"traced-{i + 1}" for i in range(len(traced))])
    metrics.update({
        "cache.hits": float(hits),
        "cache.misses": float(misses),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        **_session_counts(traced[-1][2]),
        **spec.sim_layer_metrics(plain[-1][1]),
    })
    untraced_s = statistics.median(w for w, _, _ in plain)
    traced_s = statistics.median(w for w, _, _ in traced)
    metrics["trace_overhead_frac"] = traced_s / untraced_s - 1.0
    missing = {n for n, _, _ in layers.per_layer_spec()} ^ set(metrics)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step: {sorted(missing)}")
    spans_path.write_text(json.dumps(tracer.dump()))
    print(f"untraced warm calls (s): "
          f"{', '.join(f'{w:.3f}' for w, _, _ in plain)}")
    print(f"traced warm calls (s):   "
          f"{', '.join(f'{w:.3f}' for w, _, _ in traced)}")
    print(f"spans: {len(tracer.spans)} written to "
          f"{spans_path.relative_to(ROOT)}")
    return {k: {"value": v, "unit": layers.unit_of(k)}
            for k, v in sorted(metrics.items())}


# ----------------------------------------------------------------------
def report(run: Run, metrics: dict) -> None:
    for name, m in metrics.items():
        print(f"  {run.wl.name:14s} {name:28s} {m['value']:>16.6g} "
              f"{m['unit']}")
    for p in run.problems[:20]:
        print(f"FAILED {p}")


def rows_path(workload: str, seed: int) -> Path:
    return WORK / f"rows-{workload}-seed{seed}.json"


def accuracy(seed: int) -> list:
    """Accuracy lines when both fig12 halves were run at ``seed``."""
    paths = [rows_path(w, seed) for w in ("affine", "irregular")]
    if not all(p.is_file() for p in paths):
        return []
    rows = [r for p in paths for r in json.loads(p.read_text())]
    return spec.accuracy_lines(rows)


def run_one(args) -> int:
    wl = spec.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    build = probe("build", cache=fresh_dir(WORK / "cache-build"))
    run = Run(wl)
    if args.trace:
        metrics = measure_traced(
            run, args.seed, args.seconds,
            WORK / f"spans-{wl.name}-seed{args.seed}.json")
    else:
        metrics = measure(run, args.seed, args.seconds)
    if run.correct and not args.trace:
        rows_path(wl.name, args.seed).write_text(json.dumps(run.rows))
    prov = provenance(build, args.seed,
                      "cold set-up, warm measured calls" if not args.trace
                      else "cold traced set-up call, warm measured calls")
    report(run, metrics)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    if args.seed == spec.TUNED_SEED:
        print(f"note: seed {spec.TUNED_SEED} is the seed the goldens and "
              "EXPERIMENTS.md were tuned on; check a gain on another seed")
    if wl.name in ("affine", "irregular"):
        for line in accuracy(args.seed):
            print(line)
    ok = run.correct and bool(metrics)
    print(json.dumps({"correct": ok, "attempted": max(run.attempted, 1),
                      "failed": run.failed, "metrics": metrics}))
    return 0 if ok else 1


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    for name in ("affine", "irregular"):
        rows_path(name, args.seed).unlink(missing_ok=True)
    merged, attempted, failed, ok = {}, 0, 0, True
    for name in spec.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines() or [""]
        for line in lines[:-1]:
            print(f"[{name}] {line}")
        try:
            result = json.loads(lines[-1])
        except ValueError:
            ok = False
            continue
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
        ok = ok and result["correct"] and out.returncode == 0
    print(json.dumps({"correct": ok, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": merged}))
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(spec.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no simulator source at {SRC}; run from a full "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
