"""Linear systems A*x = c and x*B = c solved through {1}-inverses."""

import pytest

from ginv.errors import (ContractError, InconsistentSystemError, ShapeError)
from ginv.linsys import (AffineSolution, general_inverse_solution, solve_left,
                         solve_right, sweep_block)
from ginv.matrix import ExactMatrix
from ginv.oneinv import family_from
from ginv.scalar import GaussianRational

from conftest import DEMO_A, SCALAR_POOL, random_matrix, random_matrix_with_rank
from oracles import rref_solve, span_equal

DEMO_c = ExactMatrix([[-3], [-1], [-2]])


def test_demo_right_solution():
    sol = solve_right(DEMO_A, DEMO_c)
    assert sol.side == "right"
    assert sol.dimension == 1              # n - rank = 3 - 2
    assert DEMO_A @ sol.particular == DEMO_c
    assert sol.directrix.shape == (3, 1)
    assert (DEMO_A @ sol.directrix).is_zero()
    oracle = rref_solve(DEMO_A, DEMO_c)
    assert oracle is not None
    particular, basis = oracle
    assert sol.contains(particular)
    assert len(basis) == 1
    assert span_equal(sol.directrix, basis[0])


def test_demo_trace_fields():
    sol = solve_right(DEMO_A, DEMO_c)
    tr = sol.trace
    assert tr.c_prime == tr.rnf.q @ DEMO_c
    assert tr.tail.is_zero()
    head = [tr.c_prime.entry(j, 1) for j in range(1, tr.rnf.rank + 1)]
    assert tr.pivot == next(j + 1 for j, x in enumerate(head) if x)
    assert tr.sweep_form is not None
    assert tr.sweep_form.shape == (1, 2)   # V block is (n-a) x a


def test_demo_sweep_form_matches_sweep_block(rng):
    sol = solve_right(DEMO_A, DEMO_c)
    params = sorted(sol.trace.sweep_form.variables(), key=lambda v: v.id)
    for _ in range(10):
        t = [rng.choice(SCALAR_POOL)]
        V = sweep_block(sol, t)
        assert sol.trace.sweep_form.evaluate(dict(zip(params, t))) == V
        assert general_inverse_solution(DEMO_A, DEMO_c, V) == sol.member(t)


def test_member_and_contains_demo(rng):
    sol = solve_right(DEMO_A, DEMO_c)
    assert sol.member([0]) == sol.particular
    for _ in range(10):
        t = [rng.choice(SCALAR_POOL)]
        x = sol.member(t)
        assert DEMO_A @ x == DEMO_c
        assert sol.contains(x)
    off = sol.particular + ExactMatrix([[1], [0], [0]])
    assert (DEMO_A @ off != DEMO_c) and not sol.contains(off)
    with pytest.raises(ShapeError):
        sol.member([1, 2])
    with pytest.raises(ShapeError):
        sol.contains(ExactMatrix.zeros(2, 1))


def test_inconsistent_system_raises():
    A = ExactMatrix([[1, 2], [2, 4]])
    c = ExactMatrix([[1], [1]])
    assert rref_solve(A, c) is None
    with pytest.raises(InconsistentSystemError) as exc:
        solve_right(A, c)
    assert not exc.value.tail.is_zero()


def test_homogeneous_system():
    c0 = ExactMatrix.zeros(3, 1)
    sol = solve_right(DEMO_A, c0)
    assert sol.particular.is_zero()
    assert sol.trace.pivot is None
    assert sol.trace.sweep_form is None
    assert sol.dimension == 1
    with pytest.raises(ContractError):
        sweep_block(sol, [1])


def test_full_rank_square_system(rng):
    from conftest import random_regular
    from ginv.matrix import inverse_regular
    A = random_regular(rng, 3)
    c = random_matrix(rng, 3, 1)
    sol = solve_right(A, c)
    assert sol.dimension == 0
    assert sol.particular == inverse_regular(A) @ c
    assert sol.member([]) == sol.particular
    assert sol.contains(sol.particular)
    assert not sol.contains(sol.particular + ExactMatrix([[1], [0], [0]]))


def test_zero_matrix_system():
    A = ExactMatrix.zeros(2, 3)
    sol = solve_right(A, ExactMatrix.zeros(2, 1))
    assert sol.dimension == 3
    assert sol.contains(ExactMatrix([[1], [2], [3]]))
    with pytest.raises(InconsistentSystemError):
        solve_right(A, ExactMatrix([[1], [0]]))


def test_rhs_shape_contract():
    with pytest.raises(ShapeError):
        solve_right(DEMO_A, ExactMatrix.zeros(2, 1))
    with pytest.raises(ShapeError):
        solve_right(DEMO_A, ExactMatrix.zeros(3, 2))
    with pytest.raises(ShapeError):
        solve_left(DEMO_A, ExactMatrix.zeros(3, 1))


def test_matches_echelon_oracle(rng):
    # Consistency verdict, particular solution, span and dimension all
    # agree with an independent row-echelon solver.
    agree_consistent = agree_inconsistent = 0
    for k in range(60):
        m, n = rng.randrange(1, 6), rng.randrange(1, 6)
        a = rng.randrange(0, min(m, n) + 1)
        A = random_matrix_with_rank(rng, m, n, a)
        if k % 2:
            c = A @ random_matrix(rng, n, 1)      # guaranteed consistent
        else:
            c = random_matrix(rng, m, 1)
        oracle = rref_solve(A, c)
        try:
            sol = solve_right(A, c)
        except InconsistentSystemError:
            assert oracle is None
            agree_inconsistent += 1
            continue
        assert oracle is not None
        particular, basis = oracle
        assert A @ sol.particular == c
        assert sol.dimension == len(basis) == n - a
        if basis:
            assert span_equal(sol.directrix,
                              ExactMatrix.block([basis]))
        else:
            assert sol.directrix.cols == 0
        assert sol.contains(particular)
        agree_consistent += 1
    assert agree_consistent >= 20 and agree_inconsistent >= 5


def test_solve_left_mirror(rng):
    for _ in range(20):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        B = random_matrix(rng, m, n)
        x0 = random_matrix(rng, 1, m)
        c = x0 @ B
        sol = solve_left(B, c)
        assert sol.side == "left"
        assert sol.particular @ B == c
        assert (sol.directrix @ B).is_zero()
        assert sol.contains(x0)
        mirrored = solve_right(B.T, c.T)
        assert sol.particular == mirrored.particular.T
        assert sol.dimension == mirrored.dimension
        t = [rng.choice(SCALAR_POOL) for _ in range(sol.dimension)]
        if sol.dimension:
            assert sol.member(t) == mirrored.member(t).T
            assert sol.member(t) @ B == c


def test_left_member_accepts_row_or_column():
    B = ExactMatrix([[1, 0], [0, 0]])
    c = ExactMatrix([[2, 0]])
    sol = solve_left(B, c)
    assert sol.dimension == 1
    row = sol.member(ExactMatrix([[5]]))
    assert row == sol.member([5])
    assert row @ B == c


def test_general_inverse_solution_demo():
    fam = family_from(DEMO_A)
    V0 = ExactMatrix.zeros(*fam.v_shape)
    sol = solve_right(DEMO_A, DEMO_c)
    assert general_inverse_solution(DEMO_A, DEMO_c, V0) == sol.particular
    with pytest.raises(ShapeError):
        general_inverse_solution(DEMO_A, DEMO_c, ExactMatrix.zeros(2, 2))
    with pytest.raises(InconsistentSystemError):
        general_inverse_solution(ExactMatrix([[1, 2], [2, 4]]),
                                 ExactMatrix([[1], [1]]), ExactMatrix.zeros(1, 1))


def test_general_inverse_solution_factors_once(monkeypatch):
    import ginv.linsys
    import ginv.matrix
    import ginv.oneinv
    fam = family_from(DEMO_A)
    factor = ginv.matrix.rank_normal_form
    calls = []

    def counting(A):
        calls.append(A)
        return factor(A)

    for module in (ginv.matrix, ginv.oneinv, ginv.linsys):
        monkeypatch.setattr(module, "rank_normal_form", counting)
    V = ExactMatrix([[5, -1]])
    assert general_inverse_solution(DEMO_A, DEMO_c, V) \
        == fam.instantiate(V=V) @ DEMO_c
    assert calls == [DEMO_A]
    calls.clear()
    with pytest.raises(InconsistentSystemError) as err:
        general_inverse_solution(DEMO_A, ExactMatrix([[1], [0], [0]]),
                                 ExactMatrix.zeros(*fam.v_shape))
    assert not err.value.tail.is_zero()
    assert calls == [DEMO_A]


def test_general_inverse_solutions_sweep_everything(rng):
    # Every member of the affine solution set is some G*c with G in the
    # family; conversely every V yields a solution.
    for _ in range(15):
        m, n = rng.randrange(1, 5), rng.randrange(1, 5)
        a = rng.randrange(1, min(m, n) + 1)
        A = random_matrix_with_rank(rng, m, n, a)
        c = A @ random_matrix(rng, n, 1)
        sol = solve_right(A, c)
        fam = family_from(A)
        V = random_matrix(rng, *fam.v_shape)
        assert sol.contains(general_inverse_solution(A, c, V))
        if sol.trace.pivot is None:
            continue
        t = [rng.choice(SCALAR_POOL) for _ in range(sol.dimension)]
        Vt = sweep_block(sol, t)
        assert general_inverse_solution(A, c, Vt) == sol.member(t)


def test_affine_solution_contract():
    sol = solve_right(DEMO_A, DEMO_c)
    with pytest.raises(AttributeError):
        sol.dimension = 2
    with pytest.raises(ContractError):
        AffineSolution(sol.particular, sol.directrix, 1, "up", sol.trace)
    with pytest.raises(ShapeError):
        sweep_block(sol, [1, 2])
