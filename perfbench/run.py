"""Benchmark of qsym's prover -> JSON certificate -> checker pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It uses the qsym sources under ``src/`` of the tree it sits in, and
fails without printing a result if they are missing.  Load is
closed-loop from one process: one command or library call at a time,
so at most one child process exists.  A run lasts ``--seconds``, or
one round of its workload if that takes longer.  The seed picks the
mutant and corruption positions and is passed to ``qsym verify --fuzz
--seed``.

Workloads:

* ``petersen-cli``: ``qsym prove`` and ``qsym verify --fuzz 100`` on
  the Petersen graph as child processes, the paper's headline run.
* ``c5-cli``: the same on C5, repeated until ``--seconds`` have
  passed; start-up and per-command fixed costs dominate.
* ``petersen-reject``: in-process; proves Petersen in set-up, accepts
  that certificate, then feeds ``verify_certificate`` seeded single-step
  mutants, each of which must be rejected at its own step, and
  ``loads_certificate`` seeded text corruptions, which must be refused
  as malformed.

End-to-end metrics (``--trace 0``, no tracing), medians over the
repetitions in the run; every workload reports each of them:

* ``setup_s``: CLI workloads: wall time of ``qsym conditions --graph G``
  (interpreter, import, graph, hypothesis check), three times per round,
  between the other commands.  Reject: graph + prove + building the
  mutants, three times spread over the run.
* ``prove_s``, ``verify_s``: CLI: wall time of the two commands.  Reject:
  the in-process prove of set-up, and verifying the clean certificate.
* ``reject_s``: time to reach every rejection verdict.  CLI: ``qsym
  verify`` on two truncated copies of the certificate, three times per
  round.  Reject: all mutants and text corruptions.
* ``prove_rss_mb``, ``verify_rss_mb``: peak RSS of each child, from
  ``os.wait4``.  Reject: the bench process's own peak after set-up, and
  after accepting the clean certificate.
* ``cert_bytes``, ``cert_steps``: size of the certificate.

Operations with a wrong verdict or exit code are counted in the
result's ``failed`` out of ``attempted`` (their ratio is the
``ops_failed_frac`` printed in the detail line); any failure makes the
run exit 1.

``--trace 1`` gives per-layer metrics instead (see spans.py for the
spans).  CLI workloads run each command once more through
``perfbench/traced_cli.py``, which records spans inside the child;
petersen-reject repeats its in-process run under instrumentation.
Untraced and traced runs alternate until ``--seconds`` have passed, at
least one pair; per-layer values are medians over the traced runs.
``trace.overhead_s`` is the median traced minus untraced wall time,
and ``cli.residual_s`` the CLI wall time not covered by layer spans
(start-up, argparse, file I/O), summed over a round's commands.  The
spans of the last traced run are written to ``.perfbench-trace/`` in
the repository root.
"""

from __future__ import annotations

import argparse
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("petersen-cli", "c5-cli", "petersen-reject")


def use_checkout_sources() -> None:
    """Put this tree's src/ first on sys.path and make sure qsym comes
    from there, never from an installed copy."""
    package = SRC / "qsym"
    if not (package / "__init__.py").is_file():
        sys.exit(f"perfbench: no qsym sources at {package}")
    sys.path.insert(0, str(SRC))
    import qsym

    if Path(qsym.__file__).resolve().parent != package.resolve():
        sys.exit(f"perfbench: qsym imported from {qsym.__file__}, not {package}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="qsym pipeline benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so the running child is killed and waited
    # for and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    use_checkout_sources()
    import workloads

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        return workloads.run(args, Path(tmp))


if __name__ == "__main__":
    sys.exit(main())
