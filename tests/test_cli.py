import errno
import json
import random

import pytest

import helpers
from qsym import (
    QA5,
    Certificate,
    certificate_to_dict,
    cycle,
    empty,
    format_graph_text,
    load_certificate,
    prove_no_quantum_symmetry,
    save_certificate,
)
from qsym import certificate, cli
from qsym.autgroup import MAX_AUT_ORDER
from qsym.cli import main


def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_info_petersen(capsys):
    code, out, _ = run_cli(["info", "--graph", "petersen"], capsys)
    assert code == 0
    assert "vertices: 10" in out
    assert "edges: 15" in out
    assert "srg: srg(10,3,0,1)" in out
    assert "conditions: λ=0,μ=1 hold with k=3" in out


def test_info_k33(capsys):
    code, out, _ = run_cli(["info", "--graph", "k33"], capsys)
    assert code == 0
    assert "srg: srg(6,3,0,3)" in out
    assert "conditions: not λ=0,μ=1:" in out


def test_aut_orders(capsys):
    code, out, _ = run_cli(["aut", "--graph", "petersen"], capsys)
    assert code == 0 and "order 120" in out
    code, out, _ = run_cli(["aut", "--graph", "c5"], capsys)
    assert code == 0 and "order 10" in out
    assert "generators" in out


def test_conditions_exit_codes(capsys):
    code, out, _ = run_cli(["conditions", "--graph", "petersen"], capsys)
    assert code == 0 and "conditions hold" in out and "k=3" in out
    code, out, _ = run_cli(["conditions", "--graph", "k4"], capsys)
    assert code == 2 and "conditions fail:" in out


def test_prove_verify_round_trip(tmp_path, capsys):
    out_path = str(tmp_path / "c5.cert.json")
    code, out, _ = run_cli(["prove", "--graph", "c5", "--out", out_path], capsys)
    assert code == 0
    assert "625 conclusions, verified" in out
    code, out, _ = run_cli(["verify", "--graph", "c5", out_path], capsys)
    assert code == 0
    assert "valid:" in out and "625 conclusions" in out


def test_prove_qa5_only(tmp_path, capsys):
    out_path = str(tmp_path / "c5.qa5.json")
    code, out, _ = run_cli(
        ["prove", "--graph", "c5", "--qa5-only", "--out", out_path], capsys
    )
    assert code == 0
    assert "100 conclusions, verified" in out


def test_verify_fuzz(tmp_path, capsys):
    out_path = str(tmp_path / "c5.cert.json")
    run_cli(["prove", "--graph", "c5", "--out", out_path], capsys)
    code, out, _ = run_cli(
        ["verify", "--graph", "c5", out_path, "--fuzz", "3", "--seed", "1"], capsys
    )
    assert code == 0
    assert "sanity: 3 trials, 1875 checks, 0 failures" in out


def test_verify_wrong_graph(tmp_path, capsys):
    out_path = str(tmp_path / "c5.cert.json")
    run_cli(["prove", "--graph", "c5", "--out", out_path], capsys)
    code, _, err = run_cli(["verify", "--graph", "petersen", out_path], capsys)
    assert code == 1
    assert err == "graph mismatch: certificate is for another graph\n"


def test_verify_tampered_certificate(tmp_path, capsys, c5_graph):
    out_path = str(tmp_path / "c5.cert.json")
    run_cli(["prove", "--graph", "c5", "--out", out_path], capsys)
    cert = load_certificate(out_path)
    for seed in range(5, 11):
        mutant, where, _ = helpers.mutate_certificate(c5_graph, cert, random.Random(seed))
        save_certificate(mutant, out_path)
        code, out, _ = run_cli(["verify", "--graph", "c5", out_path], capsys)
        assert code == 1
        assert f"INVALID at {where}:" in out


@pytest.mark.parametrize("fails", ["write", "replace"])
def test_prove_keeps_the_file_at_out_when_writing_fails(tmp_path, capsys, monkeypatch, fails):
    # The certificate goes to a new file beside --out, which replaces it
    # only once written whole; a failure on the way leaves the earlier
    # file as it was, and nothing else behind.
    out = tmp_path / "cert.json"
    out.write_bytes(b"an earlier certificate\n")

    def no_space(*args):
        raise OSError(errno.ENOSPC, "No space left on device")

    if fails == "write":
        real_open = open

        def full_disk_open(*args, **kwargs):
            fh = real_open(*args, **kwargs)
            fh.write = no_space
            return fh

        monkeypatch.setattr(certificate, "open", full_disk_open, raising=False)
    else:
        monkeypatch.setattr(certificate.os, "replace", no_space)
    code, out_text, err = run_cli(["prove", "--graph", "c5", "--out", str(out)], capsys)
    assert code == 1 and not out_text
    assert err == "cannot write certificate: [Errno 28] No space left on device\n"
    assert out.read_bytes() == b"an earlier certificate\n"
    assert list(tmp_path.iterdir()) == [out]


def test_verify_malformed_certificate(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not a certificate")
    code, _, err = run_cli(["verify", "--graph", "c5", str(bad)], capsys)
    assert code == 1
    assert "malformed certificate" in err


# The C5 proof; the hand-made steps below follow its N steps, so that
# the certificate still covers every quadruple.  Its table, extended by
# the rotation at entry ROT and the identity after it, still generates
# the same group.
C5_PROOF = certificate_to_dict(prove_no_quantum_symmetry(cycle(5)))
N = len(C5_PROOF["steps"])
# Versions 1 to 8 named the graph by the SHA-256 of its text; C5's.
C5_DIGEST = "7cd9fae597e579c6fc42f873ea91aaefa1007cc017d95e64c8b09c4df0679493"
ROT = len(C5_PROOF["automorphisms"])
TABLE = C5_PROOF["automorphisms"] + [[2, 3, 4, 5, 1], [1, 2, 3, 4, 5]]


def _swap_cert(cite=0, first=("u[1,1]u[2,3]", "u[2,3]u[1,1]"), entry=None, **fields) -> bytes:
    """The C5 proof followed by three steps, whose second swaps the
    commutation that step N + ``cite`` claims, renamed under the
    rotation of the rows at table entry ROT and the identity at ROT + 1.
    ``first`` is the claim of step N, ``entry`` replaces table entry 0,
    and ``fields`` override the swap's JSON fields."""
    swap = {"rule": "swap", "step": N + cite, "rows": ROT, "cols": ROT + 1, "position": 0}
    swap.update(fields)
    steps = [
        (first, {"rule": "combine", "terms": []}),
        (("u[2,1]u[3,3]u[4,4]", "u[3,3]u[2,1]u[4,4]"), swap),
        (("u[1,1]", "u[1,1]"), {"rule": "combine", "terms": []}),
    ]
    cert = dict(C5_PROOF, automorphisms=TABLE)
    if entry is not None:
        cert["automorphisms"] = [entry] + TABLE[1:]
    cert["steps"] = C5_PROOF["steps"] + [
        {"id": N + i, "lhs": lhs, "rhs": rhs, "justification": just}
        for i, ((lhs, rhs), just) in enumerate(steps)
    ]
    return json.dumps(cert).encode("ascii")


MALFORMED = ("err", "malformed certificate")


@pytest.mark.parametrize(
    "data, stream, expected",
    [
        (b"[" * 100000 + b"]" * 100000, *MALFORMED),
        (b'{"version":' + b"7" * 5000 + b"}", *MALFORMED),
        (b'{"version":2}\xff', *MALFORMED),
        (_swap_cert(rows=[2, 3, 4, 5, 1]), *MALFORMED),
        (_swap_cert(rows=-1), *MALFORMED),
        (_swap_cert(rows=True), *MALFORMED),
        (
            _swap_cert(rows=len(TABLE)),
            "out",
            f"INVALID at step {N + 1}: cites missing automorphism {len(TABLE)}",
        ),
        (
            _swap_cert(entry=[2, 3, 4, 5]),
            "out",
            "INVALID at automorphism 0: permutation has degree 4",
        ),
        (_swap_cert(entry=[True, 3, 4, 5, 1]), *MALFORMED),
        (_swap_cert(entry=["2", 3, 4, 5, 1]), *MALFORMED),
        (
            _swap_cert(entry=[2, 2, 4, 5, 1]),
            "out",
            "INVALID at automorphism 0: not a permutation",
        ),
        (_swap_cert(cite=2), "err", f"references step {N + 2}, which is not earlier"),
        (
            _swap_cert(first=("u[6,1]", "u[6,1]")),
            "out",
            f"INVALID at step {N}: generator u[6,1] out of range",
        ),
    ],
    ids=[
        "deep-nesting",
        "huge-integer",
        "non-ascii",
        "rows-an-array",
        "rows-negative",
        "rows-bool",
        "rows-missing-entry",
        "rows-wrong-length",
        "rows-bool-entry",
        "rows-string-entry",
        "rows-not-permutation",
        # The swap transports the claim of a later step, or of a step
        # that names a generator outside C5.
        "transport-of-later-step",
        "transport-of-generator-beyond-n",
    ],
)
def test_verify_hostile_certificate(tmp_path, capsys, data, stream, expected):
    bad = tmp_path / "hostile.json"
    bad.write_bytes(data)
    code, out, err = run_cli(["verify", "--graph", "c5", str(bad)], capsys)
    assert code == 1
    assert expected in {"out": out, "err": err}[stream]


def test_verify_accepts_a_swap_of_a_renamed_commutation(tmp_path, capsys):
    assert TABLE[ROT:] == [[2, 3, 4, 5, 1], [1, 2, 3, 4, 5]]
    path = tmp_path / "swap.json"
    path.write_bytes(_swap_cert())
    code, out, _ = run_cli(["verify", "--graph", "c5", str(path)], capsys)
    assert code == 0 and f"valid: {N + 3} steps" in out


def test_verify_refuses_version_1(tmp_path, capsys):
    # Format version 1 had a star_of rule and unsigned substitutions;
    # there is no loader for it.
    v1 = {
        "version": 1,
        "graph_digest": C5_DIGEST,
        "steps": [
            {"id": i, "lhs": "u[1,1]", "rhs": "u[1,1]", "justification": just}
            for i, just in enumerate(
                [{"rule": "local_reduce"}, {"rule": "star_of", "step": 0}]
            )
        ],
        "conclusions": [],
    }
    path = tmp_path / "v1.json"
    path.write_text(json.dumps(v1))
    code, _, err = run_cli(["verify", "--graph", "c5", str(path)], capsys)
    assert code == 1
    assert "unsupported certificate version 1" in err


def test_verify_refuses_version_2(tmp_path, capsys):
    # Format version 2 stored one step per conclusion and no table or
    # scope; there is no loader for it.
    v2 = {
        "version": 2,
        "graph_digest": C5_DIGEST,
        "steps": [
            {"id": 0, "lhs": "u[1,1]u[1,1]", "rhs": "u[1,1]u[1,1]", "justification": {"rule": "local_reduce"}}
        ],
        "conclusions": [{"kind": "commutes", "i": 1, "j": 1, "k": 1, "l": 1, "step": 0}],
    }
    path = tmp_path / "v2.json"
    path.write_text(json.dumps(v2))
    code, _, err = run_cli(["verify", "--graph", "c5", str(path)], capsys)
    assert code == 1
    assert "unsupported certificate version 2, expected 9" in err


def test_verify_refuses_version_3(tmp_path, capsys):
    # Format version 3 restated each certified commutation as a "comm"
    # relation instance with a certified_by field; there is no loader
    # for it.
    v3 = dict(C5_PROOF, version=3)
    v3["steps"] = [
        {
            "id": 0,
            "lhs": "u[1,1]u[2,3]",
            "rhs": "u[2,3]u[1,1]",
            "justification": {"rule": "local_reduce"},
        },
        {
            "id": 1,
            "lhs": "u[4,4]u[1,1]u[2,3]",
            "rhs": "u[4,4]u[2,3]u[1,1]",
            "justification": {
                "rule": "relation",
                "relation": {"kind": "comm", "row1": 1, "col1": 1, "row2": 2, "col2": 3, "certified_by": 0},
                "position": 1,
            },
        },
    ]
    path = tmp_path / "v3.json"
    path.write_text(json.dumps(v3))
    code, out, err = run_cli(["verify", "--graph", "c5", str(path)], capsys)
    assert code == 1 and not out
    assert err == "malformed certificate: unsupported certificate version 3, expected 9\n"


def test_verify_refuses_version_4(tmp_path, capsys):
    # Format version 4 carried a transport's two permutations inline as
    # arrays, and let a conclusion cite a step with no table entries;
    # there is no loader for it.
    v4 = dict(C5_PROOF, version=4)
    v4["steps"] = [
        {"id": 0, "lhs": "u[1,2]u[1,3]", "rhs": "0", "justification": {"rule": "local_reduce"}},
        {
            "id": 1,
            "lhs": "u[2,2]u[2,3]",
            "rhs": "0",
            "justification": {
                "rule": "transport", "step": 0, "rows": [2, 3, 4, 5, 1], "cols": [1, 2, 3, 4, 5]
            },
        },
    ]
    v4["conclusions"] = [{"kind": "zero_product", "i": 1, "j": 2, "k": 1, "l": 3, "step": 0}]
    path = tmp_path / "v4.json"
    path.write_text(json.dumps(v4))
    code, out, err = run_cli(["verify", "--graph", "c5", str(path)], capsys)
    assert code == 1 and not out
    assert err == "malformed certificate: unsupported certificate version 4, expected 9\n"


def test_verify_refuses_version_5(tmp_path, capsys):
    # Format version 5 restated a renamed commutation as a transport
    # step, which a swap then cited by its id and position alone; there
    # is no loader for it.
    v5 = dict(C5_PROOF, version=5)
    v5["steps"] = [
        {
            "id": 0,
            "lhs": "u[1,1]u[2,3]",
            "rhs": "u[2,3]u[1,1]",
            "justification": {"rule": "local_reduce"},
        },
        {
            "id": 1,
            "lhs": "u[2,1]u[3,3]",
            "rhs": "u[3,3]u[2,1]",
            "justification": {"rule": "transport", "step": 0, "rows": 0, "cols": 1},
        },
        {
            "id": 2,
            "lhs": "u[2,1]u[3,3]u[4,4]",
            "rhs": "u[3,3]u[2,1]u[4,4]",
            "justification": {"rule": "swap", "step": 1, "position": 0},
        },
    ]
    path = tmp_path / "v5.json"
    path.write_text(json.dumps(v5))
    code, out, err = run_cli(["verify", "--graph", "c5", str(path)], capsys)
    assert code == 1 and not out
    assert err == "malformed certificate: unsupported certificate version 5, expected 9\n"


def test_verify_refuses_version_6(tmp_path, capsys):
    # Format version 6 spread each derivation over local_reduce steps
    # and signed two-step substitutions, which one combine replaced;
    # there is no loader for it.
    v6 = dict(C5_PROOF, version=6)
    v6["steps"] = [
        {"id": 0, "lhs": "u[1,1]u[1,1]", "rhs": "u[1,1]", "justification": {"rule": "local_reduce"}},
        {"id": 1, "lhs": "u[2,2]u[2,2]", "rhs": "u[2,2]", "justification": {"rule": "local_reduce"}},
        {
            "id": 2,
            "lhs": "u[1,1]u[1,1] - u[2,2]u[2,2]",
            "rhs": "u[1,1] - u[2,2]",
            "justification": {"rule": "substitution", "base": 0, "using": 1, "sign": -1},
        },
    ]
    path = tmp_path / "v6.json"
    path.write_text(json.dumps(v6))
    code, out, err = run_cli(["verify", "--graph", "c5", str(path)], capsys)
    assert code == 1 and not out
    assert err == "malformed certificate: unsupported certificate version 6, expected 9\n"


def test_verify_refuses_version_7(tmp_path, capsys):
    # Format version 7 let a conclusion cite a step and two table
    # entries, which the orbits of the table now settle; there is no
    # loader for it.
    v7 = dict(C5_PROOF, version=7)
    v7["conclusions"] = [
        dict(c, step=N - 1, rows=0, cols=0) if c["kind"] == "commutes" else c
        for c in C5_PROOF["conclusions"]
    ]
    path = tmp_path / "v7.json"
    path.write_text(json.dumps(v7))
    code, out, err = run_cli(["verify", "--graph", "c5", str(path)], capsys)
    assert code == 1 and not out
    assert err == "malformed certificate: unsupported certificate version 7, expected 9\n"


def test_verify_refuses_version_8(tmp_path, capsys):
    # Format version 8 named the graph by the SHA-256 of its text, which
    # the text itself replaced; there is no loader for it.
    v8 = {k: v for k, v in C5_PROOF.items() if k != "graph_text"}
    v8.update(version=8, graph_digest=C5_DIGEST)
    path = tmp_path / "v8.json"
    path.write_text(json.dumps(v8))
    code, out, err = run_cli(["verify", "--graph", "c5", str(path)], capsys)
    assert code == 1 and not out
    assert err == "malformed certificate: unsupported certificate version 8, expected 9\n"


@pytest.mark.parametrize(
    "edit, where",
    [("empty", 0), ("dropped", 624), ("duplicated", 625)],
)
def test_verify_refuses_incomplete_coverage(tmp_path, capsys, edit, where):
    # Each remaining conclusion follows from its justification; the list
    # leaves out or repeats a quadruple.
    cert = dict(C5_PROOF)
    c = C5_PROOF["conclusions"]
    cert["conclusions"] = {"empty": [], "dropped": c[:-1], "duplicated": c + c[-1:]}[edit]
    assert len(cert["conclusions"]) == {"empty": 0, "dropped": 624, "duplicated": 626}[edit]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    code, out, _ = run_cli(["verify", "--graph", "c5", str(path)], capsys)
    assert code == 1
    assert f"INVALID at conclusion {where}:" in out


# Every graph outside the class that prove and verify take, as the
# command line arguments that name it: the built-in graphs, and graph
# files written by each maker.
_OUTSIDE_THE_CLASS = [
    pytest.param(["--graph", name], None, id=name)
    for name in ("k4", "k5", "empty4", "k33", "copetersen")
] + [
    pytest.param(None, helpers.hoffman_singleton, id="hoffman-singleton"),
    pytest.param(None, lambda: empty(10), id="empty10"),
]


@pytest.mark.parametrize("graph_args, make", _OUTSIDE_THE_CLASS)
def test_verify_refuses_every_graph_prove_refuses(tmp_path, capsys, graph_args, make):
    # The certificate carries the graph's text and no conclusions, a
    # qa5 one that the checker would call valid on an empty graph.  The
    # graph is refused with prove's line before the certificate is
    # opened, so a missing file is refused the same way, with --fuzz or
    # without.
    if graph_args is None:
        graph_path = tmp_path / "g.graph"
        graph_path.write_text(format_graph_text(make()))
        graph_args = ["--file", str(graph_path)]
    g = make() if make else cli.BUILTIN_GRAPHS[graph_args[1]]()
    cert_path = tmp_path / "g.cert.json"
    save_certificate(Certificate(format_graph_text(g), QA5, (), (), ()), cert_path)
    code, out, refusal = run_cli(["prove", *graph_args, "--out", str(tmp_path / "p.json")], capsys)
    assert code == 2 and not out
    assert refusal.startswith(("ConditionsNotMet: ", "UnsupportedDegree k="))
    assert len(refusal.splitlines()) == 1
    for path in (cert_path, tmp_path / "absent.json"):
        for fuzz in ([], ["--fuzz", "1"]):
            argv = ["verify", *graph_args, str(path), *fuzz]
            assert run_cli(argv, capsys) == (2, "", refusal), argv


def test_verify_missing_certificate(tmp_path, capsys):
    code, _, err = run_cli(
        ["verify", "--graph", "c5", str(tmp_path / "nope.json")], capsys
    )
    assert code == 3
    assert "cannot read certificate" in err


def test_prove_unmet_conditions(tmp_path, capsys):
    out_path = str(tmp_path / "k4.cert.json")
    code, _, err = run_cli(["prove", "--graph", "k4", "--out", out_path], capsys)
    assert code == 2
    assert "ConditionsNotMet" in err


def test_prove_unsupported_degree(tmp_path, capsys):
    graph_path = tmp_path / "hs.graph"
    graph_path.write_text(format_graph_text(helpers.hoffman_singleton()))
    out_path = str(tmp_path / "hs.cert.json")
    code, _, err = run_cli(
        ["prove", "--file", str(graph_path), "--out", out_path], capsys
    )
    assert code == 2
    assert "UnsupportedDegree k=7" in err


def test_prove_qa5_only_unsupported_degree(tmp_path, capsys):
    graph_path = tmp_path / "hs.graph"
    graph_path.write_text(format_graph_text(helpers.hoffman_singleton()))
    out_path = tmp_path / "hs.qa5.json"
    code, _, err = run_cli(
        ["prove", "--file", str(graph_path), "--qa5-only", "--out", str(out_path)], capsys
    )
    assert code == 2
    assert "UnsupportedDegree k=7" in err
    assert not out_path.exists()


def test_prove_writes_no_file_that_fails_its_self_check(tmp_path, capsys, monkeypatch):
    from qsym import verifier

    def refuse(g, cert):
        return verifier.VerificationReport(
            valid=False, steps_checked=0, conclusions_checked=0, location="step 0", reason="planted"
        )

    monkeypatch.setattr(verifier, "verify_certificate", refuse)
    out_path = tmp_path / "c5.cert.json"
    code, _, err = run_cli(["prove", "--graph", "c5", "--out", str(out_path)], capsys)
    assert code == 1
    assert "produced certificate failed verification at step 0: planted" in err
    assert not out_path.exists()


def test_prove_unwritable_output(tmp_path, capsys):
    out_path = str(tmp_path / "missing-dir" / "x.json")
    code, _, err = run_cli(["prove", "--graph", "c5", "--out", out_path], capsys)
    assert code == 1
    assert "cannot write certificate" in err


def test_aut_bound(tmp_path, capsys):
    graph_path = tmp_path / "hs.graph"
    graph_path.write_text(format_graph_text(helpers.hoffman_singleton()))
    code, _, err = run_cli(["aut", "--file", str(graph_path)], capsys)
    assert code == 1
    assert err.strip()


def test_aut_refuses_a_group_too_large_to_list(tmp_path, capsys):
    # The empty graph on 10 vertices has 10! = 3,628,800 automorphisms;
    # the search stops once it has found more than MAX_AUT_ORDER.
    graph_path = tmp_path / "empty10.graph"
    graph_path.write_text("10 0\n")
    code, out, err = run_cli(["aut", "--file", str(graph_path)], capsys)
    assert code == 1 and not out
    assert err == f"automorphism group has more than {MAX_AUT_ORDER} elements\n"


def test_graph_file_round_trip(tmp_path, capsys):
    graph_path = tmp_path / "p.graph"
    graph_path.write_text(format_graph_text(helpers.hoffman_singleton()))
    code, out, _ = run_cli(["info", "--file", str(graph_path)], capsys)
    assert code == 0
    assert "vertices: 50" in out
    assert "srg: srg(50,7,0,1)" in out
    assert "conditions: λ=0,μ=1 hold with k=7" in out


def test_missing_graph_file(capsys):
    code, _, err = run_cli(["info", "--file", "/nonexistent/g.graph"], capsys)
    assert code == 3
    assert "cannot read graph file" in err


def test_unparseable_graph_file(tmp_path, capsys):
    graph_path = tmp_path / "bad.graph"
    graph_path.write_text("3 1\n1 9\n")
    code, _, err = run_cli(["info", "--file", str(graph_path)], capsys)
    assert code == 3


def _one_line_refusal(err):
    lines = err.strip().splitlines()
    return len(lines) == 1 and "Traceback" not in err


def test_non_ascii_graph_file(tmp_path, capsys):
    graph_path = tmp_path / "bad.txt"
    graph_path.write_bytes(b"2 1\n1 2\xc3\xa9\n")
    code, _, err = run_cli(["info", "--file", str(graph_path)], capsys)
    assert code == 3
    assert _one_line_refusal(err) and "not ASCII" in err


def test_graph_file_vertex_count_over_the_limit(tmp_path, capsys):
    # Twelve bytes that would otherwise build a 10^8 x 10^8 adjacency.
    graph_path = tmp_path / "big.txt"
    graph_path.write_bytes(b"100000000 0")
    code, _, err = run_cli(["conditions", "--file", str(graph_path)], capsys)
    assert code == 3
    assert _one_line_refusal(err) and "line 1" in err and "limit" in err


def test_reduce_outputs(capsys):
    code, out, _ = run_cli(["reduce", "--graph", "petersen", "u[1,1]u[1,2]"], capsys)
    assert code == 0 and out.strip() == "0"
    code, out, _ = run_cli(["reduce", "--graph", "petersen", "u[1,1]u[1,1]"], capsys)
    assert code == 0 and out.strip() == "u[1,1]"
    code, out, _ = run_cli(["reduce", "--graph", "petersen", "u[1,1]u[2,2]"], capsys)
    assert code == 0 and out.strip() == "u[1,1]u[2,2]"


def test_reduce_parse_error(capsys):
    code, _, err = run_cli(["reduce", "--graph", "petersen", "u[1,"], capsys)
    assert code == 3
    assert "cannot parse polynomial" in err


@pytest.mark.parametrize(
    "poly", ["1" * 5000, "u[" + "1" * 5000 + ",1]"], ids=["number", "generator-index"]
)
def test_reduce_refuses_integers_over_the_digit_limit(capsys, poly):
    # Python refuses to convert integer strings over 4300 digits; the
    # parser reports that as a parse error, not a traceback.
    code, _, err = run_cli(["reduce", "--graph", "c5", poly], capsys)
    assert code == 3
    assert _one_line_refusal(err) and "cannot parse polynomial" in err


def test_reduce_out_of_range_generator(capsys):
    code, _, err = run_cli(["reduce", "--graph", "petersen", "u[11,1]"], capsys)
    assert code == 1
    assert "out of range" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["frobnicate"],
        ["info"],
        ["info", "--graph", "nonsense"],
        ["verify", "--graph", "c5"],
        ["prove", "--graph", "c5"],
        ["verify", "--graph", "c5", "c5.json", "--fuzz", "-5"],
        ["verify", "--graph", "c5", "c5.json", "--fuzz", "many"],
    ],
)
def test_usage_errors(argv, capsys):
    code, _, err = run_cli(argv, capsys)
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize("value", ["0", "-2", "abc"])
def test_thread_env_rejected(value, capsys, monkeypatch):
    monkeypatch.setenv("QSYM_THREADS", value)
    code, _, err = run_cli(["info", "--graph", "c5"], capsys)
    assert code == 3
    assert "QSYM_THREADS" in err


def test_thread_env_accepted(capsys, monkeypatch):
    monkeypatch.setenv("QSYM_THREADS", "4")
    code, out, _ = run_cli(["info", "--graph", "c5"], capsys)
    assert code == 0
    assert "vertices: 5" in out


def test_certificate_json_shape(tmp_path, capsys):
    out_path = tmp_path / "c5.cert.json"
    run_cli(["prove", "--graph", "c5", "--out", str(out_path)], capsys)
    data = json.loads(out_path.read_text())
    assert set(data) == {"version", "graph_text", "scope", "automorphisms", "steps", "conclusions"}
    assert data["version"] == 9 and data["scope"] == "full"
    assert all(list(c) == ["kind", "i", "j", "k", "l"] for c in data["conclusions"])
    assert len(data["conclusions"]) == 625
