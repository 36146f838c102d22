"""Self-tests of the benchmark: its checks, its tracer and its loop.

    python3 -m pytest bench/test_bench.py -q

Wrong results are injected into what the checks read, never into the
library, to show that each check would count them as failures.
"""

import os
import random
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ginv  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import Op, props  # noqa: E402


def perturbed(from_lib):
    """from_lib, except that the first entry of each result is off by one."""
    def convert(M):
        rows = from_lib(M)
        if rows and rows[0]:
            re, im = rows[0][0]
            rows[0][0] = (re + 1, im)
        return rows
    return convert


@pytest.mark.parametrize("make", [
    lambda rng: workloads._rnf_case(rng, 4, 6, 3),
    lambda rng: workloads._rnf_case(rng, 5, 5, 5, high_rows=2),
    lambda rng: workloads._matmul_case(rng, 3, 4, 5),
    lambda rng: workloads._inverse_case(rng, 5),
    lambda rng: workloads._solve_case(rng, 5, 5, 3, True),
    lambda rng: workloads._kron_case(rng, 3, True),
])
def test_checks_reject_an_injected_wrong_result(make, monkeypatch):
    (op,) = make(random.Random(7))()
    result = op.call()
    op.check(result, None, random.Random(0))        # the true result passes
    monkeypatch.setattr(workloads, "from_lib", perturbed(workloads.from_lib))
    with pytest.raises(CheckFailed):
        op.check(result, None, random.Random(0))


def test_unexpected_consistency_is_a_failure():
    (op,) = workloads._solve_case(random.Random(3), 5, 5, 3, False)()
    with pytest.raises(ginv.InconsistentSystemError) as info:
        op.call()
    op.check(None, info.value, random.Random(0))
    with pytest.raises(CheckFailed):
        op.check(object(), None, random.Random(0))


def test_probe_checks_reject_a_wrong_witness_or_trace():
    demo = workloads.read_demo(ROOT)
    A, B, C, X = demo["A"], demo["B"], demo["C"], demo["X1"]
    fixed = (A, B, C, X, 3, 1)
    workloads.check_verdict("infeasible", fixed, True, None)
    with pytest.raises(CheckFailed):
        workloads.check_verdict("infeasible", fixed, False, None)
    with pytest.raises(CheckFailed):     # rank(X) = rank(C) cannot be infeasible
        workloads.check_verdict("infeasible", fixed[:4] + (1, 1), True, None)
    with pytest.raises(CheckFailed):     # X1 is no product G_A*C*G_B
        workloads.check_verdict("witness", fixed, None, lambda: (
            [[(1, 0)] * 3] * 3, [[(1, 0)] * 3] * 2))


def test_golden_and_json_checks_reject_changed_output():
    text_op, json_op = workloads._demo_case(ROOT)()
    code, out, err = text_op.call()
    crng = random.Random(0)
    text_op.check((code, out, err), None, crng)
    with pytest.raises(CheckFailed):
        text_op.check((code, out.replace("0 = 1", "0 = 2"), err), None, crng)
    code, out, err = json_op.call()
    json_op.check((code, out, err), None, crng)
    with pytest.raises(CheckFailed):
        json_op.check((code, out.replace('"verdict"', '"outcome"'), err),
                      None, crng)
    with pytest.raises(CheckFailed):
        json_op.check((0, out, err), None, crng)


def test_loop_counts_failed_checks(monkeypatch):
    def fails(res, exc, crng):
        raise CheckFailed("injected")

    def crashes(res, exc, crng):
        raise KeyError("malformed output")

    def passes(res, exc, crng):
        pass

    ops = [Op("ok", lambda: 1, passes, props()),
           Op("bad", lambda: 1, fails, props()),
           Op("odd", lambda: 1, crashes, props())]
    monkeypatch.setattr(run, "make_cases", lambda w, s, k: [lambda: ops])
    stats = run.Stats()
    run.run_cycles("core_ladder", 0, 1, None, stats)
    assert (stats.attempted, stats.failed) == (3, 2)


def test_self_time_subtracts_direct_children():
    t = tracer.Tracer()
    a, b = t.name_id("a"), t.name_id("b")
    t.begin_op(0)
    root = t.open(a, now=0)
    child = t.open(b, now=10)
    grandchild = t.open(b, now=12)
    t.close(grandchild, now=20)
    t.close(child, now=30)
    second = t.open(b, now=50)
    t.close(second, now=90, error=True)
    t.close(root, now=100)
    assert [t.self_ns(i) for i in (root, child, grandchild, second)] == [40, 12, 8, 40]
    assert t.parent[grandchild] == child and t.parent[second] == root
    summary = t.summary()
    assert summary["a"] == (1, 40e-6, 0)
    assert summary["b"] == (3, 60e-6, 1)


def test_install_rebinds_every_alias_and_uninstalls():
    original = ginv.matrix.rank_normal_form
    t = tracer.Tracer()
    uninstall = tracer.install(t)
    try:
        for mod, attr in ((ginv, "rank_normal_form"),
                          (ginv.matrix, "rank_normal_form"),
                          (ginv.linsys, "rank_normal_form"),
                          (ginv.oneinv, "rank_normal_form"),
                          (ginv.cli, "rank_normal_form"),
                          (ginv.axb, "family_from"),
                          (ginv.represent, "family_from"),
                          (ginv.kron, "solve_right"),
                          (ginv.cli, "load_document")):
            assert hasattr(getattr(mod, attr), "__wrapped__"), (mod, attr)
        A = ginv.ExactMatrix([[1, 2], [2, 4]])
        t.begin_op(0)
        ginv.solve_right(A, ginv.ExactMatrix([[1], [2]]))
        ginv.solve_right(A, ginv.ExactMatrix([[1], [2]]))
        t.end_op()
        names = [t.names[n] for n in t.name]
        rnf = names.index("matrix.rank_normal_form")
        assert names[t.parent[rnf]] == "linsys.solve_right"
        assert t.counts["matrix.rnf_repeat"] == 1
        assert t.counts["scalar.mul"] > 0
    finally:
        uninstall()
    assert ginv.linsys.rank_normal_form is original
    assert not hasattr(ginv.ExactMatrix.__matmul__, "__wrapped__")
