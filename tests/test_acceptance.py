"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import json
from contextlib import contextmanager

import numpy as np
import pytest

from realcalc import cncalc, liealg, projcalc
from realcalc.cli import main as cli_main
from realcalc.liealg import (
    LieBasis,
    killing_form,
    mu_obstruction_space,
)
from realcalc.matlin import max_norm

from support import (
    FAMILY_SEED,
    center,
    family_200,
    is_semisimple,
    killing_by_ad,
    mu_system_matrix,
    oracle_existence,
    random_trivial_data,
    su2_mats,
    user_constants,
)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance {num}] FAIL {description}")
        raise
    print(f"[acceptance {num}] PASS {description}")


def analyze_json(capsys, fixture: str) -> dict:
    code = cli_main(["analyze", fixture, "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


def test_criterion_1_su2_obstruction(capsys):
    with criterion(1, "su(2) obstruction: semisimple verdict and explicit mu system"):
        report = analyze_json(capsys, "su2.json")
        assert report["status"] == "Nonexistent"
        assert report["reason"] == "SemisimpleObstruction"
        basis = LieBasis(su2_mats())
        f = user_constants(basis)
        assert mu_obstruction_space(f).shape[0] == 0
        system = mu_system_matrix(f)
        rows = [system[i] for i in range(9)]
        for expected in ([0.0, 0.0, 2.0], [0.0, -2.0, 0.0], [2.0, 0.0, 0.0]):
            assert any(np.allclose(row, expected, atol=1e-9) for row in rows), expected


def test_criterion_2_su4_trichotomy(capsys):
    with criterion(2, "su(4) trichotomy with fully verified witness"):
        assert analyze_json(capsys, "ga_su4.json")["reason"] == "SemisimpleObstruction"
        assert analyze_json(capsys, "gb_su4.json")["reason"] == "NoCommonEigenvector"
        report = analyze_json(capsys, "gc_su4.json")
        assert report["status"] == "Exists"
        witness = report["witness"]
        v0 = np.array([complex(re, im) for re, im in witness["v0"]])
        target = np.array([1.0, 0, 0, 0])
        phase_overlap = abs(v0 @ target.conj())
        assert phase_overlap == pytest.approx(1.0, abs=1e-9)
        assert witness["lambdas"] == pytest.approx([1.0, 0.0, 0.0, 0.0], abs=1e-9)
        residuals = report["residuals"]
        assert residuals["rcc"] <= 1e-9
        assert residuals["torsion"] <= 1e-9
        assert residuals["metric_compatibility"] <= 1e-9
        assert residuals["koszul"] <= 1e-9


def test_criterion_3_structure_constants_and_killing():
    with criterion(3, "su(2) structure constants and Killing form vs adjoint oracle"):
        basis = LieBasis(su2_mats())
        f = user_constants(basis).f
        expected = np.zeros((3, 3, 3))
        expected[2, 0, 1] = -2.0
        expected[1, 0, 2] = 2.0
        expected[0, 1, 2] = -2.0
        expected -= expected.transpose(0, 2, 1)
        assert max_norm(f - expected) <= 1e-12
        B = killing_form(basis, liealg.levi_split_compact(basis))
        assert max_norm(B + 8.0 * np.eye(3)) <= 1e-9
        oracle = killing_by_ad(f)
        assert max_norm(oracle + 8.0 * np.eye(3)) <= 1e-9
        assert max_norm(B - oracle) <= 1e-9


def test_criterion_4_cartan_triple_agreement():
    with criterion(4, "the split and three Cartan-criterion oracles agree on 200 random subalgebras"):
        disagreements = []
        for label, mats in family_200():
            basis = LieBasis(mats)
            f = user_constants(basis)
            flags = (
                liealg.levi_split_compact(basis).radical_dim == 0,
                is_semisimple(killing_by_ad(f.f)),
                mu_obstruction_space(f).shape[0] == 0,
                center(f).shape[0] == 0,
            )
            if len(set(flags)) != 1:
                disagreements.append((label, flags))
        assert disagreements == []


def test_criterion_5_projective_negative(capsys):
    with criterion(5, "corner-anchor counterexample fails at index (1,2,3)"):
        code = cli_main(["projective", "mat2_rank1.json", "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert code == 0
        assert report["holds"] is False
        assert report["worst_index"] == [1, 2, 3]
        lam = np.array(
            [[complex(re, im) for re, im in row] for row in report["lambda_at_worst"]]
        )
        assert max_norm(lam + np.eye(2)) <= 1e-12


def test_criterion_6_projective_positive(abelian_block_data):
    with criterion(6, "trivial projection holds for 100 random metrics; block setup"):
        rng = np.random.default_rng(FAMILY_SEED + 1)
        semisimple_seen = 0
        for _ in range(100):
            label, data = random_trivial_data(rng)
            if is_semisimple(killing_by_ad(data.f.f)):
                semisimple_seen += 1
            holds, worst, _ = projcalc.lc_condition_check(data)
            assert holds and worst <= 1e-10, (label, worst)
            coeffs = projcalc.lc_connection_coefficients(data)
            assert projcalc.koszul_verify_projective(data, coeffs) <= 1e-9, label
        assert semisimple_seen > 0
        holds, worst, _ = projcalc.lc_condition_check(abelian_block_data)
        assert holds
        coeffs = projcalc.lc_connection_coefficients(abelian_block_data)
        assert max_norm(coeffs) == 0.0
        assert projcalc.koszul_verify_projective(abelian_block_data, coeffs) <= 1e-9


def test_criterion_7_uniqueness(gc_witness):
    with criterion(7, "no second connection within 1000 perturbations of the witness"):
        pre, f, anchor, conn = gc_witness
        n = pre.basis.n

        def passes(other: cncalc.Connection) -> bool:
            return cncalc._passes_all_checks(pre, f, anchor, other, liealg.DEFAULT_TOL)["ok"]

        assert passes(conn)
        # every single-coordinate bump of magnitude >= 1e-6 must fail
        for j in range(n):
            for delta in (1e-6, -1e-6, 1e-3, 0.1):
                bumped = np.array(conn.lambdas)
                bumped[j] += delta
                assert not passes(cncalc.Connection(bumped)), (j, delta)
        rng = np.random.default_rng(FAMILY_SEED + 2)
        for _ in range(1000):
            direction = rng.standard_normal(n)
            direction /= np.max(np.abs(direction))
            magnitude = 10.0 ** rng.uniform(-6, 0)
            other = cncalc.Connection(conn.lambdas + magnitude * direction)
            assert not passes(other), (direction, magnitude)


def test_criterion_8_oracle_equivalence():
    with criterion(8, "decide_existence matches the brute-force oracle on su(2)/su(3)"):
        checked = 0
        for label, mats in family_200():
            if mats[0].shape[0] > 3:
                continue
            basis = LieBasis(mats)
            got = cncalc.decide_existence(cncalc.MetricPreCalculus(basis, 1.0)).status
            want = oracle_existence(mats)
            assert got == want, label
            checked += 1
        assert checked >= 40


def test_criterion_9_semisimple_torsion_bound():
    with criterion(9, "su(2) torsion is bounded below by 2 max |mu| for all anchors"):
        basis = LieBasis(su2_mats())
        f = user_constants(basis)
        pre = cncalc.MetricPreCalculus(basis, 1.0)
        rng = np.random.default_rng(FAMILY_SEED + 3)
        for _ in range(100):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            mu = rng.standard_normal(3)
            anchor = cncalc.AnchorMap(v / np.linalg.norm(v), mu)
            conn = cncalc.Connection(rng.standard_normal(3))
            T = cncalc.torsion(pre, conn, f, anchor)
            worst = float(np.max(np.linalg.norm(T, axis=2)))
            assert worst >= 2.0 * float(np.max(np.abs(mu))) - 1e-9
