"""Command line interface.

Exit codes: 0 for success, 1 for a failed verification or validation,
including a certificate whose graph text is another graph's, 2 for
graphs that do not meet the hypotheses, 3 for usage and parse errors.
``prove`` and ``verify`` both refuse a graph outside the class
that graphs.require_hypotheses defines with exit 2 and one line, right
after loading it: ``verify`` before it opens the certificate.

Each command imports the layers it runs inside its handler, so
``conditions`` and ``info`` load only the graph code.  ``verify``
decodes the file before it loads the certificate model, and loads the
checker only once the certificate has loaded.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

from . import graphs
from .graphs import Graph, GraphFormatError, check_moore_conditions, srg_params

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_HYPOTHESES = 2
EXIT_USAGE = 3

BUILTIN_GRAPHS = {
    "petersen": graphs.petersen,
    "c5": lambda: graphs.cycle(5),
    "k4": lambda: graphs.complete(4),
    "k5": lambda: graphs.complete(5),
    "empty4": lambda: graphs.empty(4),
    "k33": lambda: graphs.complete_bipartite(3, 3),
    "copetersen": lambda: graphs.complement(graphs.petersen()),
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; remap to 3 so that
    # status 2 stays reserved for unmet hypotheses.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _add_graph_arguments(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--graph", choices=sorted(BUILTIN_GRAPHS), help="built-in graph by name"
    )
    group.add_argument("--file", help="graph file: header 'n m', one edge per line")


def _load_graph(args: argparse.Namespace) -> Graph:
    if args.graph is not None:
        return BUILTIN_GRAPHS[args.graph]()
    try:
        with open(args.file, encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read graph file: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    except UnicodeDecodeError as exc:  # the format is ASCII-only text
        print(f"{args.file}: not ASCII text: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    try:
        return graphs.parse_graph_text(text)
    except GraphFormatError as exc:
        print(f"{args.file}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _require_hypotheses(g: Graph) -> None:
    """Exit 2 with one line unless g is in the class prove and verify take."""
    try:
        graphs.require_hypotheses(g)
    except graphs.ConditionsNotMet as exc:
        print(f"ConditionsNotMet: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_HYPOTHESES)
    except graphs.UnsupportedDegree as exc:
        print(f"UnsupportedDegree k={exc.k}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_HYPOTHESES)


def _check_thread_env() -> None:
    raw = os.environ.get("QSYM_THREADS")
    if raw is None:
        return
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        print(
            f"QSYM_THREADS must be a positive integer, got {raw!r}", file=sys.stderr
        )
        raise SystemExit(EXIT_USAGE)
    # The pipeline is sequential, so any positive cap is honored as-is.


def _degree_profile(g: Graph) -> str:
    counts = Counter(g.degree(v) for v in g.vertices())
    return ", ".join(f"{d}x{counts[d]}" for d in sorted(counts))


def cmd_info(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    print(f"vertices: {g.n}")
    print(f"edges: {g.edge_count()}")
    print(f"degrees: {_degree_profile(g)}")
    params = srg_params(g)
    if params is None:
        print("srg: none")
    else:
        print(f"srg: srg({params.n},{params.k},{params.lam},{params.mu})")
    report = check_moore_conditions(g)
    if report.holds:
        print(f"conditions: λ=0,μ=1 hold with k={report.k}")
    else:
        print(f"conditions: not λ=0,μ=1: {report.reason}")
    return EXIT_OK


def cmd_aut(args: argparse.Namespace) -> int:
    from .autgroup import automorphism_group

    g = _load_graph(args)
    try:
        group = automorphism_group(g)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    print(f"order {group.order}")
    print(f"generators ({len(group.generators)}):")
    for perm in group.generators:
        print("  " + " ".join(map(str, perm)))
    return EXIT_OK


def cmd_conditions(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    report = check_moore_conditions(g)
    if report.holds:
        print(f"conditions hold: regular of degree k={report.k}, λ=0, μ=1")
        return EXIT_OK
    print(f"conditions fail: {report.reason}")
    return EXIT_HYPOTHESES


def cmd_prove(args: argparse.Namespace) -> int:
    from .certificate import save_certificate
    from .prover import derive_qa5, prove_no_quantum_symmetry
    from .verifier import verify_certificate

    g = _load_graph(args)
    _require_hypotheses(g)
    cert = derive_qa5(g) if args.qa5_only else prove_no_quantum_symmetry(g)
    # Checked before it is written, so that a file at --out is always
    # a certificate that verifies.
    report = verify_certificate(g, cert)
    if not report.valid:
        print(
            f"produced certificate failed verification at {report.location}:"
            f" {report.reason}",
            file=sys.stderr,
        )
        return EXIT_INVALID
    try:
        save_certificate(cert, args.out)
    except OSError as exc:
        print(f"cannot write certificate: {exc}", file=sys.stderr)
        return EXIT_INVALID
    print(
        f"certificate written to {args.out}:"
        f" {len(cert.steps)} steps, {len(cert.conclusions)} conclusions, verified"
    )
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g = _load_graph(args)
    _require_hypotheses(g)
    from .wire import MalformedCertificate, read

    try:
        data = read(args.certificate)
        from .certificate import certificate_from_dict

        cert = certificate_from_dict(data)
    except OSError as exc:
        print(f"cannot read certificate: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MalformedCertificate as exc:
        print(f"malformed certificate: {exc}", file=sys.stderr)
        return EXIT_INVALID
    from .verifier import GraphMismatch, verify_certificate

    try:
        report = verify_certificate(g, cert)
    except GraphMismatch as exc:
        print(f"graph mismatch: {exc}", file=sys.stderr)
        return EXIT_INVALID
    if not report.valid:
        print(f"INVALID at {report.location}: {report.reason}")
        return EXIT_INVALID
    print(
        f"valid: {report.steps_checked} steps,"
        f" {report.conclusions_checked} conclusions"
    )
    if args.fuzz:
        from .sanity import sanity_eval

        sanity = sanity_eval(g, cert, args.fuzz, seed=args.seed)
        print(
            f"sanity: {sanity.trials} trials, {sanity.checks} checks,"
            f" {len(sanity.failures)} failures"
        )
        if not sanity.ok:
            return EXIT_INVALID
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    from .algebra import PolyParseError, format_poly, parse_poly
    from .relations import local_reduce

    g = _load_graph(args)
    try:
        p = parse_poly(args.poly)
    except PolyParseError as exc:
        print(f"cannot parse polynomial: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        print(format_poly(local_reduce(g, p)))
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INVALID
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qsym",
        description="Certify commutativity of quantum automorphism algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="print basic graph facts")
    _add_graph_arguments(p_info)
    p_info.set_defaults(handler=cmd_info)

    p_aut = sub.add_parser("aut", help="compute the automorphism group")
    _add_graph_arguments(p_aut)
    p_aut.set_defaults(handler=cmd_aut)

    p_cond = sub.add_parser("conditions", help="check the λ=0, μ=1 hypotheses")
    _add_graph_arguments(p_cond)
    p_cond.set_defaults(handler=cmd_conditions)

    p_prove = sub.add_parser("prove", help="produce and verify a certificate")
    _add_graph_arguments(p_prove)
    p_prove.add_argument("--out", required=True, help="output certificate path")
    p_prove.add_argument(
        "--qa5-only",
        action="store_true",
        help="certify only edge-edge commutations",
    )
    p_prove.set_defaults(handler=cmd_prove)

    p_verify = sub.add_parser("verify", help="check a certificate against a graph")
    _add_graph_arguments(p_verify)
    p_verify.add_argument("certificate", help="certificate file to check")
    p_verify.add_argument(
        "--fuzz",
        type=_nonnegative_int,
        default=0,
        metavar="N",
        help="also evaluate conclusions at N random automorphisms",
    )
    p_verify.add_argument(
        "--seed", type=int, default=0, help="seed for --fuzz sampling"
    )
    p_verify.set_defaults(handler=cmd_verify)

    p_reduce = sub.add_parser("reduce", help="print the normal form of a polynomial")
    _add_graph_arguments(p_reduce)
    p_reduce.add_argument("poly", help="polynomial, e.g. 'u[1,1]u[1,2] + 3/2*u[2,2]'")
    p_reduce.set_defaults(handler=cmd_reduce)

    return parser


def main(argv=None) -> int:
    _check_thread_env()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
