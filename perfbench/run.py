"""The mteval benchmark: one workload, measured end to end or traced.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload score-static --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --profile smoke --seconds 5

Each run generates the workload's corpus from ``--seed`` (see synth.py),
then runs ``mteval`` in a fresh child process, one run at a time (a closed
loop), until ``--seconds`` have passed.  The child runs the real CLI with
``--threads 1`` and the BLAS thread count fixed to 1.  Every run's outputs
are checked (see checks.py) and must be byte-identical across the set; on
the default seed they must also match perfbench/digests.json.

With ``--trace 0`` the result holds the end-to-end metrics, medians over
the set.  Their times are normalized to the machine's speed, which
reference.py gauges before the first run and after every run (see
``end_to_end``); the raw figures are printed beside them.  With ``--trace 1`` untraced and traced runs alternate; the
result holds the per-layer metrics of the traced runs (see tracer.py) and
the tracing overhead.  Earlier lines of standard output record the
environment and every metric by name and unit; the last line is the JSON
result.  The exit code is 0 when every run passed its checks, 1 when some
did not, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import synth
import tracer

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
BLAS_THREADS = 1
MIN_RUNS = 3  # per kind of run in a set, however short --seconds is
DEADLINE_S = 170.0  # every run of the benchmark must end within 180 s
REF_NOMINAL_S = 0.4  # reported times are seconds at the speed where reference.py takes this long

STATIC_METRICS = ("scm", "scm_tfidf", "wmd", "wmd_tfidf", "bleu", "compositionality")
LEXICAL_METRICS = ("scm", "scm_tfidf", "bleu", "compositionality")
CONTEXTUAL_METRICS = (
    "scm_decontextualized",
    "scm_decontextualized_tfidf",
    "wmd_decontextualized",
    "wmd_contextual_tfidf",
    "compositionality",
)

# Why each workload exists is recorded in BENCHMARK.json.  evaluate-contextual
# runs on request only: its 10-seed spread of run medians reached 22% on a
# 2-vCPU sandbox, too close to the 25% bound (see README.md).
WORKLOADS = {
    "full": {
        "score-static": synth.Spec("score", "reference_based", STATIC_METRICS, 40, 2, 5000, 1.07, (18, 18), static_dim=50, n_external=2),
        "ablate-lexical": synth.Spec(
            "ablate", "reference_based", LEXICAL_METRICS, 100, 4, 20000, 0.8, (13, 17), static_dim=100, n_external=4,
            mlp={"max_epochs": 50, "patience": 50},
        ),
        "evaluate-contextual": synth.Spec("evaluate", "source_based", CONTEXTUAL_METRICS, 10, 4, 5000, 1.07, (13, 17), contextual_dim=768),
    },
    "smoke": {
        "score-static": synth.Spec("score", "reference_based", STATIC_METRICS, 10, 3, 800, 1.07, (6, 12), static_dim=16, n_external=2),
        "ablate-lexical": synth.Spec(
            "ablate", "reference_based", LEXICAL_METRICS, 20, 3, 1500, 0.8, (6, 12), static_dim=16, n_external=4,
            mlp={"hidden": 8, "max_epochs": 20, "patience": 5},
        ),
        "evaluate-contextual": synth.Spec(
            "evaluate", "source_based", CONTEXTUAL_METRICS, 12, 3, 800, 1.07, (6, 12), contextual_dim=32,
            mlp={"hidden": 8, "max_epochs": 20, "patience": 5},
        ),
    },
}

#: Which end-to-end metric each per-layer metric should move, and where.
MOVES = {
    "cli.main.s": "wall_s on every workload: the run after import",
    "corpus.load_dataset.s": "setup_s, small on every workload",
    "corpus.split_by_source.s": "wall_s, small on ablate-lexical",
    "tokenization.wordpiece_tokenize.s": "wall_s on evaluate-contextual",
    "tokenization.wordpiece_tokenize.calls": "wall_s on evaluate-contextual; one pass per segment cuts it",
    "tokenization.wordpiece_tokenize.calls_per_segment": "wall_s on evaluate-contextual; one pass per segment cuts it",
    "embeddings.load_static.s": "setup_s on score-static and ablate-lexical",
    "embeddings.load_static.records": "invariant: input size",
    "embeddings.load_contextual.s": "setup_s and peak_rss_mb on evaluate-contextual only",
    "embeddings.load_contextual.records": "invariant: input size",
    "embeddings.decontextualize.s": "setup_s and peak_rss_mb on evaluate-contextual only",
    "embeddings.decontextualize.records": "invariant: input size",
    "vsm.build_vocabulary.s": "setup_s on ablate-lexical",
    "vsm.build_vocabulary.calls": "setup_s on ablate-lexical",
    "vsm.bow_nnx.s": "wall_s on ablate-lexical",
    "vsm.bow_nnx.calls": "wall_s on ablate-lexical; bagging each side once cuts it",
    "vsm.bow_nfx.s": "wall_s on ablate-lexical",
    "vsm.bow_nfx.calls": "wall_s on ablate-lexical; bagging each side once cuts it",
    "vsm.build_similarity_matrix.s": "setup_s, wall_s and peak_rss_mb on ablate-lexical; about 1% of score-static",
    "vsm.build_similarity_matrix.words.vocabulary.s": "setup_s on ablate-lexical and score-static",
    "vsm.build_similarity_matrix.words.idf_descending.s": "setup_s on ablate-lexical and score-static",
    "vsm.build_similarity_matrix.pieces.vocabulary.s": "setup_s on evaluate-contextual",
    "vsm.build_similarity_matrix.pieces.idf_descending.s": "setup_s on evaluate-contextual",
    "vsm.similarity_nnz": "invariant: a speed change must not move it",
    "flow.solve_transport.s": "wall_s and segments_per_s on score-static and evaluate-contextual; 0 on ablate-lexical",
    "flow.solve_transport.calls": "invariant; must read 0 on ablate-lexical",
    "flow.solve_transport.p50_ms": "wall_s on score-static",
    "flow.solve_transport.p99_ms": "wall_s on evaluate-contextual and score-static: the largest problems",
    "flow.problem_cells_mean": "invariant: problem size per workload",
    "metrics.score_segment.s": "wall_s on every workload: the scoring share",
    "metrics.score_segment.p50_ms": "segments_per_s on every workload",
    "metrics.score_segment.p99_ms": "wall_s on score-static",
    "pipeline.build_resources.s": "setup_s on every workload",
    "pipeline.score_dataset.s": "wall_s on every workload: the scoring share",
    "ensemble.select_model.s": "wall_s on ablate-lexical, less on evaluate-contextual, 0 on score-static",
    "ensemble.select_model.calls": "invariant: one per ablation step or ensemble",
    "ensemble.fit_mlp.s": "wall_s on ablate-lexical",
    "ensemble.fit_mlp.calls": "invariant",
    "ensemble.fit_linear.s": "wall_s on ablate-lexical",
    "ensemble.fit_linear.calls": "invariant",
    "stats.spearman.s": "wall_s on ablate-lexical",
    "stats.spearman.calls": "wall_s on ablate-lexical",
    "evaluation.ablation.s": "wall_s on ablate-lexical",
    "evaluation.correlation_report.s": "wall_s on evaluate-contextual",
    "metrics.scm.s": "wall_s on ablate-lexical and score-static",
    "metrics.scm.self_s": "wall_s on ablate-lexical and score-static",
    "metrics.scm.calls": "invariant",
    "metrics.wmd.s": "wall_s on score-static and evaluate-contextual",
    "metrics.wmd.self_s": "wall_s on score-static: the cost broadcast outside the solver",
    "metrics.wmd.calls": "invariant",
    "metrics.wmd_contextual.s": "wall_s on evaluate-contextual",
    "metrics.wmd_contextual.self_s": "wall_s on evaluate-contextual: the cost broadcast outside the solver",
    "metrics.wmd_contextual.calls": "invariant",
    "metrics.sentence_bleu.s": "wall_s on score-static and ablate-lexical",
    "metrics.sentence_bleu.self_s": "wall_s on score-static and ablate-lexical",
    "metrics.sentence_bleu.calls": "invariant",
    "metrics.compositionality.s": "wall_s on every workload",
    "metrics.compositionality.self_s": "wall_s on every workload",
    "metrics.compositionality.calls": "invariant",
    "metrics.reg_base_features.s": "wall_s on every workload",
    "metrics.reg_base_features.self_s": "wall_s on every workload: WordPiece is its child",
    "metrics.reg_base_features.calls": "invariant",
    "trace.overhead_pct": "none: the cost of the benchmark's own tracing",
}


@dataclass
class Run:
    traced: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    setup_s: float
    problems: list[str] = field(default_factory=list)
    speed: float = 1.0  # REF_NOMINAL_S / duration of reference.py around this run
    digest: str = ""
    layers: dict[str, float] = field(default_factory=dict)


class Bench:
    """One benchmark invocation: a generated corpus and the runs made on it."""

    def __init__(self, workload: str, spec: synth.Spec, seed: int, work: Path, started: float):
        self.workload, self.spec, self.seed, self.work, self.started = workload, spec, seed, work, started
        self.inputs = work / "input"
        self.info = synth.generate(spec, seed, self.inputs)
        self.config = json.loads((self.inputs / "run.json").read_text(encoding="utf-8"))
        self.env = child_env()
        self.runs: list[Run] = []  # measured
        self.verification: Run | None = None
        self._spawned = 0

    def run_once(self, traced: bool, command: str | None = None) -> Run:
        command = command or self.spec.command
        k = self._spawned
        self._spawned += 1
        out_dir = self.work / f"out{k}"
        stamp, spans, stdout, stderr = (self.work / f"{name}{k}" for name in ("stamp", "spans", "stdout", "stderr"))
        argv = [
            sys.executable, str(HERE / "child.py"), str(stamp), str(spans) if traced else "-", "--",
            command, "--config", str(self.inputs / "run.json"), "--threads", "1", "--out", str(out_dir),
        ]
        actions = [
            (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        budget = max(5.0, DEADLINE_S - (time.monotonic() - self.started))
        start = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv, self.env, file_actions=actions)
        killer = threading.Timer(budget, os.kill, (pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(pid, 0)  # this child's own CPU time and peak RSS
        finally:
            killer.cancel()
            killer.join()
        wall = time.monotonic() - start
        code = os.waitstatus_to_exitcode(status)

        problems = [] if code == 0 else [f"{command} exit code {code}: {tail(stderr)}"]
        setup = float("nan")
        if not problems:
            setup_done = json.loads(stamp.read_text(encoding="utf-8"))["setup_done"]
            setup = setup_done[0] - start if setup_done else float("nan")
            problems = checks.check(command, self.config, self.info, out_dir)
        run = Run(traced, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, setup, problems)
        if not problems:
            run.digest = checks.digest(out_dir, stdout)
            if traced:
                run.layers = tracer.summarize(json.loads(spans.read_text(encoding="utf-8")), self.spec.n_segments)
        for path in (stamp, spans, stdout, stderr):
            path.unlink(missing_ok=True)
        shutil.rmtree(out_dir, ignore_errors=True)
        return run

    def reference(self) -> float:
        """Seconds that reference.py takes in a fresh process right now."""
        start = time.monotonic()
        subprocess.run([sys.executable, str(HERE / "reference.py")], env=self.env, check=True, timeout=60)
        return time.monotonic() - start

    def measure(self, seconds: float, trace: bool) -> None:
        """Closed loop: the next run starts when the previous one has ended.

        reference.py runs before the first run and after every run; each
        run's speed factor comes from the two references around it.
        """
        kinds = (False, True) if trace else (False,)
        begin = time.monotonic()
        before = self.reference()
        while True:
            for traced in kinds:
                run = self.run_once(traced)
                after = self.reference()
                run.speed = REF_NOMINAL_S / (0.5 * (before + after))
                before = after
                self.runs.append(run)
            if any(r.problems for r in self.runs) or time.monotonic() - self.started > DEADLINE_S / 2:
                break
            if len(self.runs) >= MIN_RUNS * len(kinds) and time.monotonic() - begin >= seconds:
                break

    def verify(self) -> None:
        """One untimed ``score`` run, for subcommands that write no per-segment scores."""
        if self.spec.command != "score" and not any(r.problems for r in self.runs):
            self.verification = self.run_once(False, "score")

    def problems(self, expected_digest: str | None) -> list[str]:
        found = [f"run {k}: {p}" for k, r in enumerate(self.runs) for p in r.problems]
        if self.verification is not None:
            found += [f"verification run: {p}" for p in self.verification.problems]
        digests = {r.digest for r in self.runs if not r.problems}
        if len(digests) > 1:
            found.append(f"outputs differ between runs: {len(digests)} distinct digests")
        elif expected_digest is not None and digests and digests != {expected_digest}:
            found.append(f"outputs do not match the digest recorded for seed {self.seed}: {digests.pop()}")
        return found


def tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "(no stderr)"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    source = str(ROOT / "src")
    env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = str(BLAS_THREADS)
    return env


def environment(bench: Bench) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "workload": bench.workload,
        "seed": bench.seed,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
        "commit": commit,
        "inputs": {k: v for k, v in bench.info.items() if k not in ("exact", "noembed")},
    }


def end_to_end(runs: list[Run], n_segments: int, normalize: bool) -> dict[str, list[float]]:
    """Per-run samples of each end-to-end metric; the result reports their medians.

    Normalized times are scaled by each run's speed factor, which cancels
    the machine's drift between runs and leaves the program's own cost.
    """
    speed = [r.speed if normalize else 1.0 for r in runs]
    return {
        "wall_s": [r.wall_s * f for r, f in zip(runs, speed)],
        "segments_per_s": [n_segments / (r.wall_s * f) for r, f in zip(runs, speed)],
        "setup_s": [r.setup_s * f for r, f in zip(runs, speed)],
        "cpu_s": [r.cpu_s * f for r, f in zip(runs, speed)],
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
    }


def per_layer(plain: list[Run], traced: list[Run]) -> dict[str, float]:
    """Medians over the traced runs; the overhead compares each traced run
    with the untraced run just before it, which saw the same machine load."""
    out = {name: statistics.median(r.layers[name] for r in traced) for name in traced[0].layers}
    out["trace.overhead_pct"] = 100.0 * (statistics.median(t.wall_s / u.wall_s for u, t in zip(plain, traced)) - 1.0)
    return out


def run_workload(name: str, spec: synth.Spec, args, manifest: dict) -> dict:
    work = ROOT / ".perfbench-work" / f"{name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        bench = Bench(name, spec, args.seed, work, time.monotonic())
        bench.measure(args.seconds, bool(args.trace))
        bench.verify()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    print("env: " + json.dumps(environment(bench), sort_keys=True))
    expected = None
    if args.profile == "full" and args.seed == DEFAULT_SEED:
        expected = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))[name]
    problems = bench.problems(expected)
    for problem in problems:
        print("FAILED " + problem)

    attempted = bench.runs + ([bench.verification] if bench.verification else [])
    failed = sum(1 for r in attempted if r.problems)
    result = {"correct": not problems, "attempted": len(attempted), "failed": failed, "metrics": {}}
    if failed:
        return result
    plain = [r for r in bench.runs if not r.traced]
    traced = [r for r in bench.runs if r.traced]
    samples = end_to_end(plain, spec.n_segments, normalize=True)
    raw = end_to_end(plain, spec.n_segments, normalize=False)
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    speeds = [r.speed for r in plain]
    print(
        f"end to end: medians of {len(plain)} untraced runs, {spec.n_segments} segments each; times at reference "
        f"speed (speed factor {statistics.median(speeds):.4g}, min {min(speeds):.4g}, max {max(speeds):.4g})"
    )
    for metric, values in samples.items():
        print(
            f"  {metric} = {statistics.median(values):.6g} {units[metric]}  "
            f"(raw: median {statistics.median(raw[metric]):.6g}, min {min(raw[metric]):.6g}, max {max(raw[metric]):.6g})"
        )
    print(f"  error_rate = {failed / len(attempted):.6g} ratio  ({failed} of {len(attempted)} runs failed)")
    if args.trace:
        figures = per_layer(plain, traced)
        print(f"per layer: medians of {len(traced)} traced runs")
        largest = sorted((k for k in figures if k.endswith(".self_s")), key=figures.get, reverse=True)[:5]
        print("  largest self times: " + ", ".join(f"{k[: -len('.self_s')]} {figures[k]:.4g} s" for k in largest))
        for m in manifest["per_layer"]:
            print(f"  {m['name']} = {figures[m['name']]:.6g} {m['unit']}  [moves {MOVES[m['name']]}]")
        result["metrics"] = {m["name"]: {"value": figures[m["name"]], "unit": m["unit"]} for m in manifest["per_layer"]}
    else:
        result["metrics"] = {
            m["name"]: {"value": statistics.median(samples[m["name"]]), "unit": m["unit"]} for m in manifest["end_to_end"]
        }
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0, help="measure at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", choices=sorted(WORKLOADS), default="full", help="'smoke' is a reduced-size corpus")
    args = parser.parse_args(argv)
    workloads = WORKLOADS[args.profile]
    names = sorted(workloads) if args.workload == "all" else [args.workload]
    if any(name not in workloads for name in names):
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(sorted(workloads))}, all")

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    probe = subprocess.run(
        [sys.executable, "-c", "import mteval.cli"], env=child_env(), capture_output=True, text=True, timeout=60
    )
    if probe.returncode != 0:
        print(f"cannot import mteval from {ROOT / 'src'}: {probe.stderr.strip().splitlines()[-1:]}", file=sys.stderr)
        return 2

    ok = True
    for name in names:
        result = run_workload(name, workloads[name], args, manifest)
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
