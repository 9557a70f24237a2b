"""Workloads, result checks and metrics of the qsym benchmark.

Import only after run.py has put this tree's src/ on sys.path.
"""

from __future__ import annotations

import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import qsym.cli

import inproc
import mutants
from spans import Tracer, instrument, with_self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

FUZZ_TRIALS = 100
# Truncated-certificate pairs per CLI round: each reject is short and noisy.
CLI_REJECT_REPS = 3

# Justification types of the current certificate format.  Their
# per-rule metrics are always reported, as 0 if a rule is unused; rules
# seen at run time are added to them.
RULES = (
    "LocalReduce",
    "ExpandUnity",
    "RelationApplication",
    "StarOfStep",
    "Substitution",
    "LemmaCom",
)


class Ops:
    """Operations attempted, and the ones whose verdict was wrong."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass
class Child:
    args: list
    code: int
    out: str
    err: str
    wall_s: float
    rss_mb: float
    trace: dict | None


def run_qsym(args, work: Path, traced: bool = False) -> Child:
    """Run ``python -m qsym args`` (or its traced counterpart) to
    completion; time it and take its own peak RSS from wait4, which
    RUSAGE_CHILDREN would merge with earlier children."""
    args = [str(a) for a in args]
    spans_path = work / "spans.json"
    if traced:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *args]
    else:
        cmd = [sys.executable, "-m", "qsym", *args]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(work / "stdout", "w+", encoding="utf-8") as out, open(
        work / "stderr", "w+", encoding="utf-8"
    ) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        trace = json.loads(spans_path.read_text(encoding="utf-8")) if traced else None
        return Child(
            args, proc.returncode, out.read(), err.read(), wall, usage.ru_maxrss * 1024 / 1e6, trace
        )


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def coverage(text: str, n: int) -> tuple[int, bool]:
    """Step count, and whether the conclusions name every ordered
    quadruple of vertices exactly once (the verifier does not check it)."""
    data = json.loads(text)
    quads = sorted((c["i"], c["j"], c["k"], c["l"]) for c in data["conclusions"])
    return len(data["steps"]), quads == list(itertools.product(range(1, n + 1), repeat=4))


@dataclass
class CliRound:
    children: list
    samples: dict
    text: str


def cli_round(workload: str, seed: int, ops: Ops, work: Path, traced: bool = False) -> CliRound:
    """One prove and verify through the CLI, then rejects of truncated
    copies of the certificate.  The set-up command runs between them,
    so its samples spread over the round like the others'."""
    graph = workload.removesuffix("-cli")
    cert = work / "cert.json"
    setups = [cli_setup(graph, ops, work, traced)]
    p = run_qsym(["prove", "--graph", graph, "--out", cert], work, traced)
    ops.check(p.code == 0 and "verified" in p.out, f"prove exit {p.code}: {p.err[-200:]}")
    text = cert.read_text(encoding="ascii").rstrip("\n")
    steps, covered = coverage(text, qsym.cli.BUILTIN_GRAPHS[graph]().n)
    ops.check(covered, "conclusions cover every quadruple exactly once")
    setups.append(cli_setup(graph, ops, work, traced))
    fuzz = ["--fuzz", FUZZ_TRIALS, "--seed", seed]
    v = run_qsym(["verify", "--graph", graph, cert, *fuzz], work, traced)
    ops.check(v.code == 0 and ", 0 failures" in v.out, f"verify exit {v.code}: {v.out[-200:]}")
    setups.append(cli_setup(graph, ops, work, traced))
    children = setups + [p, v]
    reject = []
    for _ in range(CLI_REJECT_REPS):
        reject.append(0.0)
        for f in mutants.antithetic_fractions(random.Random(seed), 1):
            cut = work / "cut.json"
            cut.write_text(mutants.truncated(text, f), encoding="ascii")
            r = run_qsym(["verify", "--graph", graph, cut], work, traced)
            ops.check(
                r.code == 1 and "malformed certificate" in r.err,
                f"truncated certificate: exit {r.code}",
            )
            reject[-1] += r.wall_s
            children.append(r)
    samples = {
        "setup_s": [c.wall_s for c in setups],
        "prove_s": [p.wall_s],
        "verify_s": [v.wall_s],
        "reject_s": reject,
        "prove_rss_mb": [p.rss_mb],
        "verify_rss_mb": [v.rss_mb],
        "cert_bytes": [len(text) + 1],
        "cert_steps": [steps],
    }
    return CliRound(children, samples, text)


def cli_setup(graph: str, ops: Ops, work: Path, traced: bool) -> Child:
    """``qsym conditions``: interpreter, import, graph and hypothesis check."""
    c = run_qsym(["conditions", "--graph", graph], work, traced)
    ops.check(c.code == 0, f"conditions exit {c.code}")
    return c


def cli_run(workload: str, seed: int, deadline: float, ops: Ops, work: Path) -> dict:
    samples = defaultdict(list)
    while True:
        for name, values in cli_round(workload, seed, ops, work).samples.items():
            samples[name].extend(values)
        if time.perf_counter() >= deadline:
            return samples


def reject_run(seed: int, deadline: float, ops: Ops) -> dict:
    samples = defaultdict(list)

    def timed_setup():
        t0 = time.perf_counter()
        case, prove_s = inproc.setup(seed)
        samples["setup_s"].append(time.perf_counter() - t0)
        samples["prove_s"].append(prove_s)
        return case

    # Set-up runs three times, spread over the run; the first case is
    # the one checked, the others are the same proof built again.
    case = timed_setup()
    samples["prove_rss_mb"].append(self_rss_mb())
    samples["verify_s"].append(inproc.accept(case, ops))
    # Taken before a second proof or the text corruptions exist; the
    # corruptions' sizes follow the seed.
    samples["verify_rss_mb"].append(self_rss_mb())
    timed_setup()
    inproc.add_texts(case, seed)
    while True:
        samples["reject_s"].append(inproc.reject(case, ops))
        if time.perf_counter() >= deadline:
            break
        samples["verify_s"].append(inproc.accept(case, ops))
    timed_setup()
    samples["cert_bytes"].append(len(case.text))
    samples["cert_steps"].append(len(case.cert.steps))
    return samples


def traced_pairs(deadline: float, once) -> tuple[list, float]:
    """Run ``once(traced)`` untraced and traced, alternating which goes
    first, until the deadline (at least one pair).  ``once`` returns its
    wall time and what it recorded.  Returns the traced records and the
    median traced-minus-untraced wall time."""
    records, diffs = [], []
    while True:
        walls = {}
        for traced in (False, True) if len(diffs) % 2 == 0 else (True, False):
            walls[traced], record = once(traced)
            if traced:
                records.append(record)
        diffs.append(walls[True] - walls[False])
        if time.perf_counter() >= deadline:
            return records, statistics.median(diffs)


def json_floor(text: str) -> dict:
    """A span for stdlib json.loads of the certificate text: the floor
    for loads_certificate."""
    tr = Tracer()
    with tr.span("certificate.json_floor"):
        json.loads(text)
    return {"argv": ["json.loads"], "spans": with_self_times(tr.spans), "counts": {}}


def cli_trace(workload: str, seed: int, deadline: float, ops: Ops, work: Path) -> list:
    """Traced CLI rounds, each with the residual of its commands."""

    def once(traced):
        rnd = cli_round(workload, seed, ops, work, traced)
        return sum(c.wall_s for c in rnd.children), (rnd.children, rnd.text)

    rounds, overhead = traced_pairs(deadline, once)
    traces = []
    for children, text in rounds:
        commands = [dict(c.trace, argv=c.args, wall_s=c.wall_s) for c in children]
        residual = sum(
            c["wall_s"] - sum(s["end"] - s["start"] for s in c["spans"] if s["parent"] is None)
            for c in commands
        )
        traces.append((commands + [json_floor(text)], residual, overhead))
    return traces


def reject_trace(seed: int, deadline: float, ops: Ops) -> list:
    def once(traced):
        tr = Tracer()
        t0 = time.perf_counter()
        with instrument(tr) if traced else nullcontext():
            case, _ = inproc.setup(seed)
            inproc.add_texts(case, seed)
            inproc.accept(case, ops)
            inproc.reject(case, ops)
        wall = time.perf_counter() - t0
        run = {"argv": ["petersen-reject"], "spans": with_self_times(tr.spans), "counts": tr.counts}
        return wall, (run, case.text)

    runs, overhead = traced_pairs(deadline, once)
    return [([run, json_floor(text)], 0.0, overhead) for run, text in runs]


E2E_UNITS = {
    "setup_s": "s",
    "prove_s": "s",
    "verify_s": "s",
    "reject_s": "s",
    "prove_rss_mb": "MB",
    "verify_rss_mb": "MB",
    "cert_bytes": "bytes",
    "cert_steps": "count",
}

SPAN_LAYERS = (
    "graphs.check_moore_conditions",
    "autgroup.automorphism_group",
    "prover.prove",
    "certificate.dumps",
    "certificate.json_floor",
    "verifier.verify",
    "prover.sanity_eval",
)
COUNTS = {
    "prover.steps": "count",
    "prover.sanity_checks": "count",
    "verifier.steps_checked": "count",
    "certificate.bytes": "bytes",
}


def layer_metrics(commands: list, residual_s: float, overhead_s: float) -> dict:
    """Per-layer totals over the spans and counts of one traced run."""
    spans = [s for c in commands for s in c["spans"]]
    counts = Counter()
    for c in commands:
        counts.update(c["counts"])

    def total(name, refused=None):
        return sum(
            s["end"] - s["start"]
            for s in spans
            if s["name"] == name and (refused is None or ("error" in s) == refused)
        )

    metrics = {f"{name}_s": (total(name), "s") for name in SPAN_LAYERS}
    metrics["certificate.loads_s"] = (total("certificate.loads", refused=False), "s")
    metrics["certificate.reject_s"] = (total("certificate.loads", refused=True), "s")
    metrics.update({name: (counts[name], unit) for name, unit in COUNTS.items()})
    checks, check_s = Counter(), Counter()
    for s in spans:
        for rule, (calls, secs) in s.get("rules", {}).items():
            checks[rule] += calls
            check_s[rule] += secs
    proved = {k.rsplit(".", 1)[1] for k in counts if k.startswith("prover.steps.")}
    for rule in sorted(set(RULES) | set(checks) | proved):
        metrics[f"prover.steps.{rule}"] = (counts[f"prover.steps.{rule}"], "count")
        metrics[f"verifier.check_s.{rule}"] = (check_s[rule], "s")
        metrics[f"verifier.steps.{rule}"] = (checks[rule], "count")
    metrics["verifier.other_s"] = (total("verifier.verify") - sum(check_s.values()), "s")
    metrics["cli.residual_s"] = (residual_s, "s")
    metrics["trace.overhead_s"] = (overhead_s, "s")
    return metrics


def commit() -> str:
    """HEAD of the enclosing git checkout, or "unknown" outside one."""
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
    return "unknown"


def run(args, work: Path) -> int:
    """Run one workload for ``args.seconds`` (or one round, if longer),
    print its metrics and the result line, and return the exit code."""
    ops = Ops()
    deadline = time.perf_counter() + args.seconds
    if not args.trace:
        if args.workload == "petersen-reject":
            samples = reject_run(args.seed, deadline, ops)
        else:
            samples = cli_run(args.workload, args.seed, deadline, ops, work)
        metrics = {
            name: (statistics.median(samples[name]), unit) for name, unit in E2E_UNITS.items()
        }
    else:
        if args.workload == "petersen-reject":
            traces = reject_trace(args.seed, deadline, ops)
        else:
            traces = cli_trace(args.workload, args.seed, deadline, ops, work)
        runs = [layer_metrics(*t) for t in traces]
        metrics = {
            name: (statistics.median(run[name][0] for run in runs), unit)
            for name, (_, unit) in runs[-1].items()
        }
        samples = {"traced_runs": runs}
        out = ROOT / ".perfbench-trace"
        out.mkdir(exist_ok=True)
        with open(out / f"{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
            json.dump({"commands": traces[-1][0]}, fh)

    for name, (value, unit) in metrics.items():
        print(f"{name:36} {value:14.6f} {unit}")
    failed = len(ops.failures)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "samples": {name: len(values) for name, values in samples.items()},
        "values": samples if not args.trace else {},
        "ops_failed_frac": failed / ops.attempted,
        "failures": ops.failures[:20],
    }
    print(json.dumps({"detail": detail}))
    result = {
        "correct": not failed,
        "attempted": ops.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 1 if failed else 0
