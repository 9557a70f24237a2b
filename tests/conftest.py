import pytest

from qsym import automorphism_group, cycle, derive_qa5, petersen, prove_no_quantum_symmetry


@pytest.fixture(scope="session")
def petersen_graph():
    return petersen()


@pytest.fixture(scope="session")
def c5_graph():
    return cycle(5)


@pytest.fixture(scope="session")
def petersen_qa5_cert(petersen_graph):
    return derive_qa5(petersen_graph)


@pytest.fixture(scope="session")
def petersen_full_cert(petersen_graph):
    return prove_no_quantum_symmetry(petersen_graph)


@pytest.fixture(scope="session")
def c5_qa5_cert(c5_graph):
    return derive_qa5(c5_graph)


@pytest.fixture(scope="session")
def c5_full_cert(c5_graph):
    return prove_no_quantum_symmetry(c5_graph)


@pytest.fixture(scope="session")
def petersen_aut(petersen_graph):
    return automorphism_group(petersen_graph)
