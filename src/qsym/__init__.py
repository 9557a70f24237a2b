"""Exact certification that small graphs have no quantum symmetry.

For graphs that are regular with no common neighbors across edges and
exactly one across non-edges, of degree at most 3, the package produces
a machine-checkable certificate that the quantum automorphism algebra
is commutative, and independently verifies such certificates.

The package namespace is lazy (PEP 562).  ``_EXPORTS`` maps each public
name to the submodule that defines it, and ``__all__`` and ``dir()``
are read from it.  ``import qsym`` loads no submodule, so importing
``qsym.cli`` or ``qsym.verifier`` loads only that module and what it
imports, and each ``qsym`` command compiles only the layers it runs.
The first public name read from the package, as ``qsym.X`` or ``from
qsym import X``, imports every submodule in the table and binds all the
names at once.  So a program that uses the library pays for the whole
import at that first read, and not inside its first call into some
other layer, which it may be timing.  A submodule in the table read as
an attribute, such as ``qsym.verifier``, loads alone.
"""

_EXPORTS = {
    name: module
    for module, names in {
        "algebra": (
            "COL",
            "ROW",
            "Gen",
            "Poly",
            "PolyParseError",
            "Word",
            "expand_unity",
            "format_poly",
            "gen",
            "monomial",
            "parse_poly",
            "star",
            "u",
            "word",
        ),
        "autgroup": (
            "AutGroup",
            "automorphism_group",
            "induced_two_subset_map",
            "verify_s5_action",
        ),
        "certificate": (
            "CERT_VERSION",
            "COMMUTES",
            "FULL",
            "QA5",
            "ZERO_PRODUCT",
            "Certificate",
            "Combine",
            "Conclusion",
            "ExpandUnity",
            "LemmaCom",
            "ProofStep",
            "Swap",
            "certificate_from_dict",
            "certificate_to_dict",
            "claim_quadruple",
            "dumps_certificate",
            "load_certificate",
            "loads_certificate",
            "save_certificate",
        ),
        "graphs": (
            "ConditionsNotMet",
            "Graph",
            "GraphFormatError",
            "MooreReport",
            "SrgParams",
            "UnsupportedDegree",
            "check_moore_conditions",
            "complement",
            "complete",
            "complete_bipartite",
            "cycle",
            "empty",
            "format_graph_text",
            "from_edge_list",
            "is_automorphism",
            "kneser",
            "kneser_vertices",
            "parse_graph_text",
            "petersen",
            "srg_params",
        ),
        "prover": (
            "ProofBuilder",
            "derive_qa5",
            "prove_no_quantum_symmetry",
        ),
        "sanity": ("SanityReport", "sanity_eval"),
        "relations": ("local_reduce", "swap_pair"),
        "verifier": ("GraphMismatch", "VerificationReport", "verify_certificate"),
        "wire": ("MalformedCertificate",),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)

__version__ = "0.1.0"


def _submodule(module: str):
    # The import statement's own machinery, unlike importlib.import_module,
    # is what ``python -X importtime`` reports on.
    return __import__(f"{__name__}.{module}", fromlist=["*"])


def __getattr__(name: str):
    if name in _EXPORTS:
        globals().update(
            (export, getattr(_submodule(module), export))
            for export, module in _EXPORTS.items()
        )
        return globals()[name]
    if name in _EXPORTS.values():
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys())
