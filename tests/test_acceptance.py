"""Acceptance gate: the eight release criteria, one test each.

Each test drives the corresponding criterion of the built-in suite and
prints a single pass/fail line on the live terminal, bypassing pytest
capture, so a full run always shows the eight verdicts.  The heavy
construction corpus is cached inside the suite module, so the gate
costs roughly half a minute in total.
"""

import time

import pytest

from bandwalk import selftest


def _drive(capsys, number, fn):
    start = time.time()
    try:
        detail = fn()
    except Exception as exc:
        with capsys.disabled():
            print(f"criterion {number}: FAIL ({time.time() - start:.1f}s) "
                  f"- {type(exc).__name__}: {exc}")
        raise
    with capsys.disabled():
        print(f"criterion {number}: PASS ({time.time() - start:.1f}s) "
              f"- {detail}")


def test_criterion_1_diagonalizability_certificates(capsys):
    """The Krylov identity and traces certify the lattice multiplicities
    on every corpus walk, uniform and seeded."""
    _drive(capsys, 1, selftest.criterion_1)


def test_criterion_2_published_grid_walk_regression(capsys):
    """The 6x6 two-by-two grid chain walk reproduces the printed matrix
    and both exact spectra, including the deflated variant."""
    _drive(capsys, 2, selftest.criterion_2)


def test_criterion_3_multiplicity_identities(capsys):
    """Multiplicities equal ordinary, q-, and interval derangement
    numbers across the free, subspace, and matroid families."""
    _drive(capsys, 3, selftest.criterion_3)


def test_criterion_4_idempotent_suite(capsys):
    """Primitive idempotent families: orthogonality, completeness,
    spectral decomposition, stationary vector, power formula, and the
    two closed-form cross-checks."""
    _drive(capsys, 4, selftest.criterion_4)


def test_criterion_5_convergence_sandwich(capsys):
    """Exact total variation never exceeds the exact stopping-time tail,
    which never exceeds the coatom bound, and the sampled tail lies
    within the DKW band of the exact one."""
    _drive(capsys, 5, selftest.criterion_5)


def test_criterion_6_derangement_suite(capsys):
    """Three derangement routes, the even-gap identity, the
    rank-threaded profile, and the q-polynomial cross-checks agree on
    the whole lattice corpus."""
    _drive(capsys, 6, selftest.criterion_6)


def test_criterion_7_descent_suite(capsys):
    """Descent counts, the anti-isomorphism, the top-to-random
    idempotent family, and the walk correspondence."""
    _drive(capsys, 7, selftest.criterion_7)


def test_criterion_8_foundations(capsys):
    """Axioms, declared lattice isomorphisms, and the chamber criterion
    over every element of every corpus band."""
    _drive(capsys, 8, selftest.criterion_8)
