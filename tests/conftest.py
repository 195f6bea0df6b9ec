import numpy as np
import pytest
from hypothesis import settings

from realcalc import cncalc, liealg

from support import su2_mats, su4_family, user_constants

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def su2_basis() -> liealg.LieBasis:
    return liealg.LieBasis(su2_mats())


@pytest.fixture(scope="session")
def su2_f(su2_basis) -> liealg.StructureConstants:
    return user_constants(su2_basis)


@pytest.fixture(scope="session")
def su4():
    """The three su(4) subalgebras as LieBasis objects plus raw blocks."""
    fam = su4_family()
    return {
        "ga": liealg.LieBasis(fam["ga"]),
        "gb": liealg.LieBasis(fam["gb"]),
        "gc": liealg.LieBasis(fam["gc"]),
        "raw": fam,
    }


@pytest.fixture(scope="session")
def gc_witness(su4):
    pre = cncalc.MetricPreCalculus(su4["gc"], 1.0)
    report = cncalc.decide_existence(pre)
    assert report.status == cncalc.EXISTS
    anchor, conn = report.witness
    f = user_constants(su4["gc"])
    return pre, f, anchor, conn


@pytest.fixture(scope="session")
def abelian_block_data():
    """Two commuting diagonal derivations on Mat(3), one-generator block."""
    from realcalc import projcalc

    basis = liealg.LieBasis([np.diag([1j, -1j, 0]), np.diag([0, 1j, -1j])])
    p = np.zeros((2, 2, 3, 3), dtype=complex)
    p[0, 0] = np.eye(3)
    return projcalc.ProjectiveCalculusData(basis, p, p.copy(), p.copy())
