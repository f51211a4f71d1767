"""Benchmark of rkhs_sandwich: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload engine-mix --seed 7 --seconds 20 --trace 0

Runs one workload in this single process (BLAS pinned to one thread),
checks every output, prints each metric by name with its unit and, as the
last line, one JSON object.  --trace 0 measures the end-to-end metrics with
no wrapper installed, scaled to the host's nominal speed by yardstick.py;
--trace 1 first runs untraced for half the time, then
installs the timing wrappers of tracing.py and runs traced for the other
half, and reports the per-layer metrics and the tracing overhead.  See
README.md for the workloads, the metrics and the baseline.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("RKHS_SANDWICH_QUADRATURE", None)  # the CLI reads it

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from engine_mix import CheckError, EngineMix  # noqa: E402
from lab import Quadrature, TentScan  # noqa: E402
from tracing import Tracer  # noqa: E402
from yardstick import Yardstick  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = {"engine-mix": EngineMix, "tent-scan": TentScan, "quadrature": Quadrature}
YARDSTICK = {"engine-mix": "python", "tent-scan": "memory", "quadrature": "memory"}
SETUP_RUNS = 5
TAIL_PERCENTILES = (99.99, 99.9, 99.0, 90.0, 50.0)

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("ops_per_s", "1/s"),
              ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("decider.decide.self_s", "s"), ("decider.decide_bounded_target.self_s", "s"),
    ("embeddings.embeds.calls", "count"), ("embeddings.embeds.self_s", "s"),
    ("embeddings.chain_holds.self_s", "s"),
    ("embeddings.rewrite_identifications.self_s", "s"),
    ("spaces.validate_space.calls", "count"), ("spaces.validate_space.self_s", "s"),
    ("cli.main.self_s", "s"), ("report.Report.build.self_s", "s"),
    ("report.Report.to_json.self_s", "s"), ("irkbs.check_applicability.self_s", "s"),
    ("packing.greedy_packing.calls", "count"), ("packing.greedy_packing.self_s", "s"),
    ("packing.greedy_packing.candidates", "count"),
    ("packing.greedy_packing.kept_ratio", "ratio"),
    ("bumps.BumpFamily.init.self_s", "s"), ("bumps.SignedSum.call.calls", "count"),
    ("bumps.SignedSum.call.self_s", "s"), ("bumps.SignedSum.call.member_evals", "count"),
    ("norms.hoelder_norm.calls", "count"), ("norms.hoelder_norm.self_s", "s"),
    ("norms.hoelder_norm.pairs", "count"), ("norms.hoelder_norm.active_ratio", "ratio"),
    ("norms.lp_norm.calls", "count"), ("norms.lp_norm.self_s", "s"),
    ("norms.lp_norm.fn_points", "count"),
    ("norms.slobodeckij_seminorm.calls", "count"),
    ("norms.slobodeckij_seminorm.self_s", "s"),
    ("norms.slobodeckij_seminorm.fn_points", "count"),
    ("norms.slobodeckij_seminorm.accuracy_errors", "count"),
    ("rademacher.scan.self_s", "s"), ("rademacher.scan.patterns", "count"),
    ("setup.import_s", "s"), ("trace.overhead_s", "s"),
]
RATIOS = {"packing.greedy_packing.kept_ratio": ("packing.greedy_packing.kept",
                                                "packing.greedy_packing.candidates"),
          "norms.hoelder_norm.active_ratio": ("norms.hoelder_norm.active",
                                              "norms.hoelder_norm.points")}


def fresh_import_seconds() -> float:
    """Time of `import rkhs_sandwich` in a new interpreter."""
    code = ("import time; t = time.perf_counter(); import rkhs_sandwich; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=str(SRC)),
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import failed: {proc.stderr.strip()}")
    return float(proc.stdout)


class Setup:
    """Set-up is a fresh-process import plus the workload's input
    generation.  It is repeated SETUP_RUNS times, spread over the run (one
    before and one after each pass until enough), and reported as the median.
    Each sample is scaled by the python yardstick, sampled just before and
    just after it; the unscaled median is printed too."""

    def __init__(self, make_workload):
        self.make, self.imports, self.totals, self.raw = make_workload, [], [], []
        self.yardstick = Yardstick("python")

    def sample(self):
        before = self.yardstick.scale_now()
        import_s = fresh_import_seconds()
        t0 = time.perf_counter()
        workload = self.make()
        total = import_s + time.perf_counter() - t0
        scale = statistics.median([before, self.yardstick.scale_now()])
        self.imports.append(import_s * scale)
        self.totals.append(total * scale)
        self.raw.append(total)
        return workload

    def between_passes(self) -> None:
        if len(self.totals) < SETUP_RUNS:
            self.sample()

    def finish(self):
        while len(self.totals) < SETUP_RUNS:
            self.sample()
        return (statistics.median(self.totals), statistics.median(self.imports),
                statistics.median(self.raw))


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(list((SRC / "rkhs_sandwich").glob("*.py")) + list(HERE.glob("*.py"))):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


class Run:
    """Closed loop, one client: each op starts when the previous one ended."""

    def __init__(self, workload, between=None, yardstick=None):
        self.wl, self.between, self.tracer = workload, between, None
        self.yardstick = yardstick
        self.latencies = {}  # kind -> ns per op, as measured
        self.timed = []  # untraced ops: (kind, op key, start ns, end ns, net ns)
        self.pass_walls, self.pass_counts = [], []
        self.attempted = self.failed = 0
        self.op_pass = []  # op id -> pass index, for spans
        self.first_outputs = None

    def passes(self, seconds: float, first_pass: int, traced: bool) -> None:
        began = time.perf_counter()
        k = first_pass
        while True:
            if self.tracer is not None:
                self.tracer.counts = {}
            outcomes = []
            t_pass = time.perf_counter()
            for kind, key, fn in self.wl.ops(k):
                if traced:
                    self.tracer.op_id = len(self.op_pass)
                self.op_pass.append(k)
                spent = self.yardstick.spent_ns if self.yardstick else 0
                t0 = time.perf_counter_ns()
                try:
                    value, err = fn(), None
                except Exception as exc:  # recorded, counted and checked below
                    value, err = None, exc
                t1 = time.perf_counter_ns()
                # less the yardstick samples taken inside the op
                ns = t1 - t0 - ((self.yardstick.spent_ns - spent) if self.yardstick else 0)
                self.latencies.setdefault(kind, []).append(ns)
                if not traced:
                    self.timed.append((kind, key, t0, t1, ns))
                outcomes.append((key, value, err))
                self.attempted += 1
                self.failed += err is not None
            self.pass_walls.append((traced, time.perf_counter() - t_pass))
            if traced:
                self.tracer.op_id = -1
                self.pass_counts.append(self.tracer.counts)
            outputs = self.wl.check(outcomes)
            if self.first_outputs is None:
                self.first_outputs = outputs
            elif outputs != self.first_outputs:
                raise CheckError("outputs differ between passes"
                                 + (" (traced against untraced)" if traced else ""))
            k += 1
            if time.perf_counter() - began >= seconds:
                return
            if self.between is not None:
                self.between()


def tail(values):
    """Highest listed percentile with at least 10 samples beyond it."""
    for p in TAIL_PERCENTILES:
        if len(values) * (1 - p / 100) >= 10:
            return p, float(np.percentile(values, p))
    return None, None


def per_op(run: Run, scaled: bool) -> dict:
    """(kind, op key) -> median time of the op over the passes of the run,
    scaled to the yardstick's nominal speed or as measured."""
    scales = run.yardstick.scales([t[2] for t in run.timed], [t[3] for t in run.timed]) \
        if scaled else np.ones(len(run.timed))
    times = {}
    for (kind, key, _, _, ns), scale in zip(run.timed, scales.tolist()):
        times.setdefault((kind, key), []).append(ns * scale)
    return {op: statistics.median(v) for op, v in times.items()}


def end_to_end(ops: dict, setup_s: float) -> dict:
    """A pass runs every op of the workload once; wall_s is the sum of the
    ops' median times."""
    wall_ns = sum(ops.values())
    return {"setup_s": setup_s,
            "wall_s": wall_ns / 1e9,
            "ops_per_s": len(ops) / (wall_ns / 1e9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def op_p50_us(ops: dict) -> float:
    """Median time of the workload's main ops: engine queries or lab calls."""
    main_kind = "engine" if any(kind == "engine" for kind, _ in ops) else "lab"
    return statistics.median(ns for (kind, _), ns in ops.items() if kind == main_kind) / 1e3


def per_layer(run: Run, tracer, import_s: float, workload: str) -> dict:
    traced = [k for k, (t, _) in enumerate(run.pass_walls) if t]
    spans = tracer.per_pass(run.op_pass, len(run.pass_walls))
    counts = []
    for k, extra in zip(traced, run.pass_counts):
        c = {key: v for key, v in spans[k].items() if key.endswith(".calls")}
        c.update(extra)
        counts.append(c)
    check_counts(counts, workload)

    def med(values):
        return statistics.median(values) if values else 0.0

    out = {}
    for name, _ in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = med([spans[k].get(name, 0.0) for k in traced])
        elif name in RATIOS:
            num, den = RATIOS[name]
            out[name] = med([c.get(num, 0) / c[den] if c.get(den) else 0.0 for c in counts])
        elif name not in ("setup.import_s", "trace.overhead_s"):
            out[name] = med([c.get(name, 0) for c in counts])
    out["setup.import_s"] = import_s
    # fastest traced pass minus fastest untraced pass, as for wall_s
    out["trace.overhead_s"] = min(w for t, w in run.pass_walls if t) - \
        min(w for t, w in run.pass_walls if not t)
    return out


def check_counts(counts, workload: str) -> None:
    """Counts must repeat exactly: across the traced passes of this run, and
    across traced runs of the same sources (kept in out/)."""
    if any(c != counts[0] for c in counts):
        raise CheckError("per-layer counts differ between traced passes")
    path = OUT / f"counts-{workload}-{source_digest()}.json"
    if path.exists():
        if json.loads(path.read_text()) != counts[0]:
            raise CheckError(f"per-layer counts differ from the traced run in {path.name}")
    else:
        path.write_text(json.dumps(counts[0], sort_keys=True, indent=1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"],
                    help="'all' runs each workload in turn, in its own process")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", w,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for w in WORKLOADS]
        return 0 if not any(codes) else 1

    if not (SRC / "rkhs_sandwich" / "__init__.py").is_file():
        print(f"error: no rkhs_sandwich sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rkhs_sandwich as rs
    import rkhs_sandwich.cli  # noqa: F401  (the engine-mix CLI ops call rs.cli.main)
    if Path(rs.__file__).resolve().parent != SRC / "rkhs_sandwich":
        print(f"error: imported rkhs_sandwich from {rs.__file__}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    workload_cls = WORKLOADS[args.workload]
    correct, problem = True, None
    tracer, run = None, Run(None)
    setup = Setup(lambda: workload_cls(rs, args.seed, reference))
    yardstick = None if args.trace else Yardstick(YARDSTICK[args.workload])

    between_passes = setup.between_passes
    if yardstick is not None:
        def between_passes():
            with yardstick.paused():
                setup.between_passes()
    try:
        run = Run(setup.sample(), between_passes, yardstick)
        if args.trace:
            run.passes(args.seconds / 2, 0, traced=False)
            run.tracer = tracer = Tracer()
            tracer.install()
            run.passes(args.seconds / 2, len(run.pass_walls), traced=True)
        else:
            yardstick.start()
            try:
                run.passes(args.seconds, 0, traced=False)
            finally:
                yardstick.stop()
    except CheckError as exc:
        correct, problem = False, str(exc)
        run.failed += 1
    setup_s, import_s, raw_setup_s = setup.finish() if correct else (None, None, None)

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"passes {len(run.pass_walls)}  ops {run.attempted}"]
    metrics, units = {}, dict(END_TO_END + PER_LAYER)
    if correct and run.pass_walls and args.trace:
        OUT.mkdir(exist_ok=True)
        try:
            metrics = per_layer(run, tracer, import_s, args.workload)
        except CheckError as exc:
            correct, problem = False, str(exc)
            run.failed += 1
        tracer.write(OUT / f"spans-{args.workload}.npz", run.op_pass)
        lines.append(f"{len(tracer.start)} spans written to "
                     f"{(OUT / f'spans-{args.workload}.npz').relative_to(ROOT)}")
        if tracer.missing:
            lines.append("not found, reported as 0: " + ", ".join(tracer.missing))
        for traced in (False, True):
            walls = [f"{w:.6g}" for t, w in run.pass_walls if t == traced]
            lines.append(f"{'traced' if traced else 'untraced'} wall_s per pass: "
                         + ", ".join(walls))
    elif correct and run.pass_walls:
        scaled_ops, raw_ops = per_op(run, scaled=True), per_op(run, scaled=False)
        metrics = end_to_end(scaled_ops, setup_s)
        raw = end_to_end(raw_ops, raw_setup_s)
        for ys in (yardstick, setup.yardstick):
            lines.append(f"yardstick {ys.kind}: {len(ys.took)} samples, median "
                         f"{ys.median_ns() / 1e3:.6g} us, nominal {ys.nominal_ns / 1e3:.6g} us")
        lines.append("as measured, not scaled: " + ", ".join(
            f"{name} = {raw[name]:.6g} {unit}" for name, unit in END_TO_END[:3])
            + f", op_p50_us = {op_p50_us(raw_ops):.6g} us")
        lines.append(f"op_p50_us = {op_p50_us(scaled_ops):.6g} us (scaled; not gated)")
        all_ns = [x for v in run.latencies.values() for x in v]
        lines.append("median pass wall_s = "
                     f"{statistics.median(w for _, w in run.pass_walls):.6g} s, "
                     f"median op = {statistics.median(all_ns) / 1e3:.6g} us")
        for kind, ns in sorted(run.latencies.items()):
            prefix = "cli_op" if kind == "cli" else "op"
            p, t = tail(ns)
            if kind == "cli":
                lines.append(f"cli_op_p50_us = {statistics.median(ns) / 1e3:.6g} us")
            lines.append(f"{prefix}_tail_us = " + (
                f"{t / 1e3:.6g} us at p{p:g}, {round(len(ns) * (1 - p / 100))} "
                f"of {len(ns)} samples beyond" if p is not None
                else f"n/a ({len(ns)} samples)"))
    lines += [f"{name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    lines.append(f"fail_frac = {run.failed / max(run.attempted, 1):.6g} "
                 f"({run.failed} of {run.attempted} ops failed or refused)")
    if problem:
        lines.append(f"CHECK FAILED: {problem}")
    print("\n".join(lines))
    print(json.dumps({"correct": correct, "attempted": max(run.attempted, 1),
                      "failed": run.failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
