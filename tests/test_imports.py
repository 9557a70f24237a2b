"""The lazy package namespace, and which modules each command loads.

The import closures are taken in a new interpreter: in this process the
earlier tests have already imported every qsym module, which would hide
a command that loads more than it runs.  Only ``qsym.*`` modules are
pinned, because the standard library's own imports vary across Python
versions.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qsym
from qsym import save_certificate

# Today's public names, by the submodule that defines them.
EXPORTS = {
    "algebra": [
        "COL", "ROW", "Gen", "Poly", "PolyParseError", "Word", "expand_unity",
        "format_poly", "gen", "monomial", "parse_poly", "star", "u", "word",
    ],
    "autgroup": [
        "AutGroup", "automorphism_group", "induced_two_subset_map", "verify_s5_action",
    ],
    "certificate": [
        "CERT_VERSION", "COMMUTES", "FULL", "QA5", "ZERO_PRODUCT", "Certificate",
        "Combine", "Conclusion", "ExpandUnity", "LemmaCom", "ProofStep", "Swap",
        "certificate_from_dict", "certificate_to_dict", "claim_quadruple",
        "dumps_certificate", "load_certificate",
        "loads_certificate", "save_certificate",
    ],
    "graphs": [
        "ConditionsNotMet", "Graph", "GraphFormatError", "MooreReport", "SrgParams",
        "UnsupportedDegree", "check_moore_conditions", "complement", "complete",
        "complete_bipartite", "cycle", "empty", "format_graph_text", "from_edge_list",
        "is_automorphism", "kneser", "kneser_vertices", "parse_graph_text", "petersen",
        "srg_params",
    ],
    "prover": ["ProofBuilder", "derive_qa5", "prove_no_quantum_symmetry"],
    "relations": ["local_reduce", "swap_pair"],
    "sanity": ["SanityReport", "sanity_eval"],
    "verifier": ["GraphMismatch", "VerificationReport", "verify_certificate"],
    "wire": ["MalformedCertificate"],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)

ALL_MODULES = {
    "qsym",
    "qsym.algebra",
    "qsym.autgroup",
    "qsym.certificate",
    "qsym.cli",
    "qsym.graphs",
    "qsym.prover",
    "qsym.relations",
    "qsym.sanity",
    "qsym.verifier",
    "qsym.wire",
}
GRAPH_ONLY = {"qsym", "qsym.cli", "qsym.graphs"}

# Runs its arguments as a qsym command line, then prints the exit code,
# the qsym modules loaded, whether dataclasses was loaded, and which of
# hashlib and _hashlib, which loads OpenSSL's libcrypto, were loaded, as
# the last line of output.
_CLI_SCRIPT = """
import sys
import qsym.cli
try:
    code = qsym.cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
import json
qsym_modules = sorted(m for m in sys.modules if m.split(".")[0] == "qsym")
crypto = [m for m in ("hashlib", "_hashlib") if m in sys.modules]
print(json.dumps([code, qsym_modules, "dataclasses" in sys.modules, crypto]))
"""


def _fresh(script: str, *args: str):
    """Run script in a new interpreter that imports this qsym; return its
    last line of output, read as JSON."""
    src = str(Path(qsym.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_public_names_are_todays():
    assert sorted(qsym.__all__) == NAMES
    assert len(NAMES) == 68


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_the_defining_modules_object(module):
    mod = importlib.import_module(f"qsym.{module}")
    for name in EXPORTS[module]:
        value = getattr(qsym, name)
        assert value is getattr(mod, name), name
        # Word is an alias of tuple; every other class or function is
        # defined where the table says.
        if value is not tuple and (inspect.isclass(value) or inspect.isfunction(value)):
            assert value.__module__ == mod.__name__, name


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from qsym import *", namespace)
    assert set(NAMES) <= namespace.keys()
    assert set(NAMES) <= set(dir(qsym))


def test_unknown_names_are_refused():
    with pytest.raises(AttributeError, match="module 'qsym' has no attribute 'nope'"):
        qsym.nope
    with pytest.raises(ImportError):
        from qsym import nope  # noqa: F401


def test_import_qsym_loads_no_submodule():
    script = """
import json, sys
def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] == "qsym")
import qsym
steps = [loaded()]
from qsym import verifier
steps.append([verifier is sys.modules["qsym.verifier"], loaded()])
from qsym import Graph
steps.append(loaded())
print(json.dumps(steps))
"""
    bare, (is_module, submodule), library = _fresh(script)
    assert bare == ["qsym"]
    # A submodule loads alone, with what it imports: not the prover, and
    # not the automorphism search.
    assert is_module
    assert set(submodule) == ALL_MODULES - {
        "qsym.autgroup",
        "qsym.cli",
        "qsym.prover",
        "qsym.sanity",
    }
    # The first public name loads the whole library.
    assert set(library) == ALL_MODULES - {"qsym.cli"}


def test_algebra_loads_no_graph_code():
    script = """
import json, sys
import qsym.algebra
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "qsym")))
"""
    assert _fresh(script) == ["qsym", "qsym.algebra"]


@pytest.fixture(scope="module")
def c5_cert_path(tmp_path_factory, c5_full_cert):
    path = tmp_path_factory.mktemp("imports") / "c5.cert.json"
    save_certificate(c5_full_cert, path)
    return path


@pytest.mark.parametrize(
    "argv, code, modules",
    [
        (["conditions", "--graph", "c5"], 0, GRAPH_ONLY),
        (["conditions", "--graph", "k33"], 2, GRAPH_ONLY),
        (["info", "--graph", "petersen"], 0, GRAPH_ONLY),
        (["aut", "--graph", "c5"], 0, GRAPH_ONLY | {"qsym.autgroup"}),
        (
            ["reduce", "--graph", "c5", "u[1,1]u[1,2]"],
            0,
            GRAPH_ONLY | {"qsym.algebra", "qsym.relations"},
        ),
    ],
)
def test_graph_commands_import_only_what_they_run(argv, code, modules):
    # The graph records are NamedTuples or a slotted class, so these
    # commands do not load dataclasses, nor the inspect and ast modules
    # that it imports.
    assert _fresh(_CLI_SCRIPT, *argv) == [code, sorted(modules), False, []]


def test_malformed_certificate_is_one_class():
    # Defined in qsym.wire, which the table names; the certificate module
    # raises and re-exports the same class.
    import qsym.certificate

    assert qsym.certificate.MalformedCertificate is qsym.MalformedCertificate


@pytest.mark.parametrize(
    "make, code",
    [
        (lambda text: text[: len(text) // 2].encode("ascii"), 1),  # truncated
        (lambda text: text.encode("ascii").replace(b"{", b"\xff", 1), 1),  # not ASCII
        (None, 3),  # missing
    ],
    ids=["truncated", "not-ascii", "missing"],
)
def test_verify_of_a_truncated_file_stops_at_the_loader(tmp_path, c5_cert_path, make, code):
    # A file that does not decode as ASCII JSON, or cannot be read, is
    # refused before the certificate model, or dataclasses, is loaded.
    path = tmp_path / "cert.json"
    if make is not None:
        path.write_bytes(make(c5_cert_path.read_text()))
    loaded = GRAPH_ONLY | {"qsym.wire"}
    argv = ["verify", "--graph", "c5", str(path)]
    assert _fresh(_CLI_SCRIPT, *argv) == [code, sorted(loaded), False, []]


def test_verify_of_a_forward_reference_stops_at_the_loader(tmp_path, c5_cert_path):
    # Citing only earlier steps is part of what makes a Certificate, so
    # the loader refuses the file and the checker is never loaded.
    d = json.loads(c5_cert_path.read_text())
    d["steps"][0]["justification"] = {"rule": "lemma_com", "step": 1}
    forward = tmp_path / "forward.json"
    forward.write_text(json.dumps(d))
    loaded = GRAPH_ONLY | {"qsym.algebra", "qsym.certificate", "qsym.wire"}
    assert _fresh(_CLI_SCRIPT, "verify", "--graph", "c5", str(forward))[:2] == [
        1,
        sorted(loaded),
    ]


def test_verify_without_fuzz_skips_the_automorphism_search(c5_cert_path):
    argv = ["verify", "--graph", "c5", str(c5_cert_path)]
    loaded = GRAPH_ONLY | {
        "qsym.algebra",
        "qsym.certificate",
        "qsym.relations",
        "qsym.verifier",
        "qsym.wire",
    }
    assert _fresh(_CLI_SCRIPT, *argv)[:2] == [0, sorted(loaded)]


def test_verify_with_fuzz_skips_the_prover(c5_cert_path):
    argv = ["verify", "--graph", "c5", str(c5_cert_path), "--fuzz", "1"]
    assert _fresh(_CLI_SCRIPT, *argv)[:2] == [0, sorted(ALL_MODULES - {"qsym.prover"})]


def test_prove_skips_the_spot_check(tmp_path):
    argv = ["prove", "--graph", "c5", "--out", str(tmp_path / "c5.cert.json")]
    assert _fresh(_CLI_SCRIPT, *argv)[:2] == [0, sorted(ALL_MODULES - {"qsym.sanity"})]


@pytest.mark.parametrize(
    "argv",
    [
        ["prove", "--graph", "c5", "--out", "{tmp}/c5.cert.json"],
        ["verify", "--graph", "c5", "{cert}"],
        ["verify", "--graph", "c5", "{cert}", "--fuzz", "1"],
    ],
    ids=["prove", "verify", "verify-fuzz"],
)
def test_prove_and_verify_load_no_hash_library(tmp_path, c5_cert_path, argv):
    # A certificate names its graph by the graph's text, compared as a
    # string, so neither command loads hashlib or OpenSSL's libcrypto.
    argv = [a.format(tmp=tmp_path, cert=c5_cert_path) for a in argv]
    code, _, _, crypto = _fresh(_CLI_SCRIPT, *argv)
    assert (code, crypto) == (0, [])


def test_import_verifier_loads_no_hash_library():
    script = """
import json, sys
import qsym.verifier
print(json.dumps([m for m in ("hashlib", "_hashlib") if m in sys.modules]))
"""
    assert _fresh(script) == []
