"""The matrix equation A*X*B = C: consistency, general solutions,
reproductivity, and the five special cases over a square matrix."""

import pytest

from ginv.axb import (CASES, GeneralSolutionMap, case_equation,
                      consistency_check, haveric_solution,
                      penrose_general_solution, presic_solution,
                      shifted_general_solution, solution_dimension)
from ginv.errors import (ContractError, InconsistentEquationError, ShapeError)
from ginv.kron import mat, solve_axb_via_kron, vec
from ginv.matrix import ExactMatrix
from ginv.oneinv import family_from, is_one_inverse

from conftest import (DEMO_A, DEMO_B, DEMO_C, DEMO_X1, random_matrix,
                      random_matrix_with_rank)
from oracles import grid_solutions, solution_dimension_by_kron


def random_one_inverse(rng, A):
    fam = family_from(A)
    return fam.instantiate(random_matrix(rng, *fam.u_shape),
                           random_matrix(rng, *fam.v_shape),
                           random_matrix(rng, *fam.w_shape))


# -- the map object -----------------------------------------------------------


def test_map_requires_idempotent_projectors():
    X0 = ExactMatrix.zeros(2, 2)
    good = ExactMatrix([[1, 0], [0, 0]])
    bad = ExactMatrix([[0, 1], [0, 0]]) + ExactMatrix.identity(2)  # squares to 2*I+..
    GeneralSolutionMap(X0, good, good)
    with pytest.raises(ContractError):
        GeneralSolutionMap(X0, bad, good)
    with pytest.raises(ContractError):
        GeneralSolutionMap(X0, good, bad)
    with pytest.raises(ShapeError):
        GeneralSolutionMap(X0, ExactMatrix.identity(3), good)


def test_map_apply_and_equality():
    L = ExactMatrix([[1, 0], [0, 0]])
    R = ExactMatrix.identity(2)
    X0 = ExactMatrix([[0, 0], [1, 1]])
    g = GeneralSolutionMap(X0, L, R)
    Y = ExactMatrix([[1, 2], [3, 4]])
    assert g.apply(Y) == X0 + Y - L @ Y @ R
    assert g == GeneralSolutionMap(X0, L, R)
    assert hash(g) == hash(GeneralSolutionMap(X0, L, R))
    assert g != GeneralSolutionMap(X0 + X0, L, R)
    with pytest.raises(ShapeError):
        g.apply(ExactMatrix.zeros(3, 2))
    with pytest.raises(AttributeError):
        g.X0 = X0


# -- consistency --------------------------------------------------------------


def test_demo_equation_is_consistent():
    assert consistency_check(DEMO_A, DEMO_B, DEMO_C)


def test_consistency_verdict_inverse_independent(rng):
    for _ in range(10):
        A1 = random_one_inverse(rng, DEMO_A)
        B1 = random_one_inverse(rng, DEMO_B)
        assert consistency_check(DEMO_A, DEMO_B, DEMO_C, A1=A1, B1=B1)


def test_inconsistent_equation_detected_and_oracle_agrees():
    A = ExactMatrix([[1, 0], [0, 0]])
    B = ExactMatrix.identity(2)
    C = ExactMatrix([[0, 0], [0, 1]])
    assert not consistency_check(A, B, C)
    assert grid_solutions(A, B, C, range(-2, 3)) == []
    with pytest.raises(InconsistentEquationError) as exc:
        penrose_general_solution(A, B, C)
    assert not exc.value.residual.is_zero()


def test_consistency_check_contracts():
    with pytest.raises(ShapeError):
        consistency_check(DEMO_A, DEMO_B, ExactMatrix.zeros(2, 2))
    with pytest.raises(ContractError):
        consistency_check(DEMO_A, DEMO_B, DEMO_C, A1=ExactMatrix.zeros(3, 3))


def test_consistency_matches_grid_oracle(rng):
    # Tiny instances, exhaustively checked over a 3-value grid.
    hits = misses = 0
    for _ in range(12):
        A = random_matrix_with_rank(rng, 2, 2, rng.randrange(0, 3))
        B = random_matrix_with_rank(rng, 2, 2, rng.randrange(0, 3))
        if hits % 2:
            X = ExactMatrix([[rng.randrange(-1, 2) for _ in range(2)]
                             for _ in range(2)])
            C = A @ X @ B
        else:
            C = random_matrix_with_rank(rng, 2, 2, 2)
        verdict = consistency_check(A, B, C)
        if verdict:
            hits += 1
        else:
            misses += 1
            assert grid_solutions(A, B, C, range(-1, 2)) == []
    assert hits and misses


# -- general solutions ---------------------------------------------------------


def test_penrose_demo_solution():
    gs = penrose_general_solution(DEMO_A, DEMO_B, DEMO_C)
    A1 = family_from(DEMO_A).canonical()
    B1 = family_from(DEMO_B).canonical()
    assert gs.X0 == A1 @ DEMO_C @ B1
    assert gs.L == A1 @ DEMO_A and gs.R == DEMO_B @ B1
    assert gs.is_reproductive()
    assert DEMO_A @ gs.X0 @ DEMO_B == DEMO_C


def test_penrose_map_solves_and_is_idempotent(rng):
    gs = penrose_general_solution(DEMO_A, DEMO_B, DEMO_C)
    for _ in range(25):
        Y = random_matrix(rng, 3, 3)
        X = gs.apply(Y)
        assert DEMO_A @ X @ DEMO_B == DEMO_C
        assert gs.apply(X) == X            # g(g(Y)) = g(Y)


def test_penrose_map_sweeps_every_solution(rng):
    # Any solution X is hit at parameter Y = X - X0.
    gs = penrose_general_solution(DEMO_A, DEMO_B, DEMO_C)
    kron_set = solve_axb_via_kron(DEMO_A, DEMO_B, DEMO_C)
    for _ in range(15):
        t = random_matrix(rng, kron_set.dimension, 1)
        X = mat(kron_set.member(t), 3, 3)
        assert gs.apply(X - gs.X0) == X
    assert gs.apply(DEMO_X1 - gs.X0) == DEMO_X1


def test_shifted_map_at_known_solution():
    gs = shifted_general_solution(DEMO_A, DEMO_B, DEMO_C, DEMO_X1)
    assert gs.X0 == DEMO_X1
    assert not gs.is_reproductive()
    Y = ExactMatrix([[1, 1, 0], [0, 2, 0], [0, 0, 3]])
    assert DEMO_A @ gs.apply(Y) @ DEMO_B == DEMO_C
    assert gs.apply(gs.apply(Y)) != gs.apply(Y)


def test_shifted_map_rejects_non_solution():
    with pytest.raises(ContractError):
        shifted_general_solution(DEMO_A, DEMO_B, DEMO_C,
                                 ExactMatrix.zeros(3, 3))
    with pytest.raises(ShapeError):
        shifted_general_solution(DEMO_A, DEMO_B, DEMO_C,
                                 ExactMatrix.zeros(2, 3))


def test_reproductive_iff_anchor_in_penrose_form(rng):
    # Three-way agreement: is_reproductive, the fixed-point property on
    # solutions, and the constancy of g(g(Y)) - g(Y).
    maps = [penrose_general_solution(DEMO_A, DEMO_B, DEMO_C),
            shifted_general_solution(DEMO_A, DEMO_B, DEMO_C, DEMO_X1)]
    for gs in maps:
        fixes_all = True
        for _ in range(20):
            Y = random_matrix(rng, 3, 3)
            X = gs.apply(Y)
            fixes_all = fixes_all and gs.apply(X) == X
            # The defect of idempotence never depends on Y.
            assert gs.apply(X) - X == gs.X0 - gs.L @ gs.X0 @ gs.R
        assert gs.is_reproductive() == fixes_all


def test_random_consistent_equations(rng):
    for _ in range(15):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        p, q = rng.randrange(1, 4), rng.randrange(1, 4)
        A = random_matrix(rng, m, n)
        B = random_matrix(rng, p, q)
        C = A @ random_matrix(rng, n, p) @ B
        assert consistency_check(A, B, C)
        gs = penrose_general_solution(A, B, C)
        assert gs.is_reproductive()
        Y = random_matrix(rng, n, p)
        assert A @ gs.apply(Y) @ B == C


# -- the five special cases -----------------------------------------------------


def test_case_equation_table():
    A = ExactMatrix([[1, 2], [0, 1]])
    I2 = ExactMatrix.identity(2)
    Z = ExactMatrix.zeros(2, 2)
    assert case_equation(A, "AX=0") == (A, I2, Z)
    assert case_equation(A, "AX=A") == (A, I2, A)
    assert case_equation(A, "XA=0") == (I2, A, Z)
    assert case_equation(A, "XA=A") == (I2, A, A)
    assert case_equation(A, "AXA=A") == (A, A, A)
    with pytest.raises(ContractError):
        case_equation(A, "AX=B")


def test_case_contracts():
    rect = ExactMatrix.zeros(2, 3)
    with pytest.raises(ShapeError):
        presic_solution(rect, ExactMatrix.zeros(3, 2), "AX=0")
    A = ExactMatrix([[1, 0], [0, 0]])
    with pytest.raises(ContractError):
        presic_solution(A, ExactMatrix([[0, 0], [0, 1]]), "AX=0")
    with pytest.raises(ContractError):
        presic_solution(A, family_from(A).canonical(), "XA=B")


def test_five_cases_solve_their_equations(rng):
    for _ in range(12):
        n = rng.randrange(1, 5)
        A = random_matrix_with_rank(rng, n, n, rng.randrange(0, n + 1))
        B1 = random_one_inverse(rng, A)
        for case in CASES:
            Aeq, Beq, Ceq = case_equation(A, case)
            hist = presic_solution(A, B1, case)
            repro = haveric_solution(A, B1, case)
            assert repro.is_reproductive()
            for _ in range(4):
                Y = random_matrix(rng, n, n)
                for gs in (hist, repro):
                    assert Aeq @ gs.apply(Y) @ Beq == Ceq
                # The reproductive variant fixes whatever the historical
                # map produces, since both sweep the same solution set.
                assert repro.apply(hist.apply(Y)) == hist.apply(Y)


def test_homogeneous_cases_are_already_reproductive(rng):
    A = random_matrix_with_rank(rng, 3, 3, 2)
    B1 = random_one_inverse(rng, A)
    assert presic_solution(A, B1, "AX=0").is_reproductive()
    assert presic_solution(A, B1, "XA=0").is_reproductive()


def test_nonhomogeneous_historical_maps_can_fail_reproductivity():
    A = ExactMatrix([[1, 0], [0, 0]])       # singular, so B1*A != I
    B1 = family_from(A).canonical()
    assert not presic_solution(A, B1, "AX=A").is_reproductive()
    assert not presic_solution(A, B1, "XA=A").is_reproductive()
    # For the two-sided case the canonical B1 here happens to satisfy
    # B1*A*B1 = B1; the identity (also a {1}-inverse of A) does not.
    assert is_one_inverse(A, ExactMatrix.identity(2))
    assert not presic_solution(A, ExactMatrix.identity(2),
                               "AXA=A").is_reproductive()
    for case in CASES:
        assert haveric_solution(A, B1, case).is_reproductive()


def test_regular_matrix_collapses_cases(rng):
    from conftest import random_regular
    A = random_regular(rng, 3)
    B1 = family_from(A).canonical()          # the true inverse
    for case in ("AX=A", "XA=A", "AXA=A"):
        assert presic_solution(A, B1, case) == haveric_solution(A, B1, case)
        assert solution_dimension(presic_solution(A, B1, case)) == 0


def test_grid_oracle_confirms_case_solution_sets():
    # Exhaustive check on a tiny instance: the reproductive map fixes
    # exactly the grid solutions and hits nothing else.
    A = ExactMatrix([[1, 1], [0, 0]])
    B1 = family_from(A).canonical()
    gs = haveric_solution(A, B1, "AXA=A")
    Aeq, Beq, Ceq = case_equation(A, "AXA=A")
    values = [-1, 0, 1]
    solutions = grid_solutions(Aeq, Beq, Ceq, values)
    assert solutions
    for X in solutions:
        assert gs.apply(X) == X
    from oracles import grid_matrices
    for Y in grid_matrices(2, 2, values):
        assert Aeq @ gs.apply(Y) @ Beq == Ceq


# -- dimension ------------------------------------------------------------------


def test_demo_solution_dimension_matches_kron_route():
    gs = penrose_general_solution(DEMO_A, DEMO_B, DEMO_C)
    assert solution_dimension(gs) == 7
    assert solve_axb_via_kron(DEMO_A, DEMO_B, DEMO_C).dimension == 7


def test_solution_dimension_random_agreement(rng):
    for _ in range(12):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        p, q = rng.randrange(1, 4), rng.randrange(1, 4)
        A = random_matrix(rng, m, n)
        B = random_matrix(rng, p, q)
        C = A @ random_matrix(rng, n, p) @ B
        gs = penrose_general_solution(A, B, C)
        assert solution_dimension(gs) == solve_axb_via_kron(A, B, C).dimension


def test_solution_dimension_matches_materialized_kronecker(rng):
    maps = [penrose_general_solution(DEMO_A, DEMO_B, DEMO_C)]
    for _ in range(8):
        n, p = rng.randrange(1, 4), rng.randrange(1, 4)
        A = random_matrix_with_rank(rng, n, n, rng.randrange(0, n + 1))
        B = random_matrix_with_rank(rng, p, p, rng.randrange(0, p + 1))
        C = A @ random_matrix(rng, n, p) @ B
        maps.append(penrose_general_solution(A, B, C))
        B1 = random_one_inverse(rng, A)
        maps += [make(A, B1, case) for case in CASES
                 for make in (presic_solution, haveric_solution)]
    for gs in maps:
        assert solution_dimension(gs) == solution_dimension_by_kron(gs)
