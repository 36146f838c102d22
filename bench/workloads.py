"""The three workloads, one cycle of cases at a time.

A cycle is a fixed list of cases, so every complete cycle has the same
mix of operations; only the generated entries differ.  Making a case
generates its entries with the benchmark's own arithmetic (untimed) and
returns a ``build()`` that turns them into the library's inputs,
``ExactMatrix`` objects or ``.mx`` files (timed as set-up).  ``build()``
returns the case's operations; each has a ``call()`` that is timed and a
``check(result, exc, rng)`` that verifies its output exactly.
"""

import json
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from io import StringIO

import ginv
import ginv.cli

import checks
import gen
from checks import expect, no_error, raised
from qi import add, matmul, mul, rank, sub, vecmat


def to_lib(M):
    G = ginv.GaussianRational
    return ginv.ExactMatrix([[G(x[0], x[1]) for x in row] for row in M])


def from_lib(M):
    return [[(x.re, x.im) for x in row] for row in M.to_rows()]


class Op:
    """One timed operation and its exact check."""

    __slots__ = ("name", "call", "check", "props")

    def __init__(self, name, call, check, props):
        self.name = name
        self.call = call
        self.check = check
        self.props = props


def props(deficient=False, high=False, probe=False, rank_x_ne_rank_c=None):
    return {"deficient": deficient, "high": high, "probe": probe,
            "rank_x_ne_rank_c": rank_x_ne_rank_c}


# -- core_ladder ---------------------------------------------------------------

RUNGS = (8, 16, 24)


def _rnf_case(rng, m, n, r, high_rows=0):
    f = gen.factored(rng, m, n, r, high_rows=high_rows)

    def build():
        A = to_lib(f.A)

        def check(res, exc, crng):
            no_error(exc)
            checks.rank_normal_form(f.A, r, from_lib(res.q), from_lib(res.p),
                                    res.rank, crng)
        return [Op("rank_normal_form", lambda: ginv.rank_normal_form(A), check,
                   props(r < min(m, n), high_rows > 0))]
    return build


def _matmul_case(rng, m, k, n, high=False):
    X = gen.random_matrix(rng, m, k, high=high)
    Y = gen.random_matrix(rng, k, n, high=high)

    def build():
        LX, LY = to_lib(X), to_lib(Y)

        def check(res, exc, crng):
            no_error(exc)
            checks.same_product(from_lib(res), [X, Y], crng)
        return [Op("matmul", lambda: LX @ LY, check, props(high=high))]
    return build


def _inverse_case(rng, n, high_rows=0):
    f = gen.factored(rng, n, n, n, high_rows=high_rows)

    def build():
        A = to_lib(f.A)

        def check(res, exc, crng):
            no_error(exc)
            checks.inverse(f.A, from_lib(res), crng)
        return [Op("inverse_regular", lambda: ginv.inverse_regular(A), check,
                   props(high=high_rows > 0))]
    return build


def _solve_case(rng, m, n, r, consistent, high_rows=0):
    f = gen.factored(rng, m, n, r, high_rows=high_rows)
    x0 = [[gen.draw(rng)] for _ in range(n)]
    c = matmul(f.A, x0)
    if not consistent:
        c = [[add(ci[0], w)] for ci, w in zip(c, f.out_col)]

    def build():
        A, lc = to_lib(f.A), to_lib(c)

        def check(res, exc, crng):
            if not consistent:
                raised(exc, ginv.InconsistentSystemError)
                return
            no_error(exc)
            checks.right_solution(f.A, c, from_lib(res.particular),
                                  from_lib(res.directrix), res.dimension, r,
                                  crng)
        return [Op("solve_right", lambda: ginv.solve_right(A, lc), check,
                   props(r < min(m, n), high_rows > 0))]
    return build


def _axb_instance(rng, n, p, ra, rb, consistent, inverses=False, high_rows=0):
    """A (n x n, rank ra), B (n x p, rank rb), C = A*X*B, optionally made
    inconsistent by adding a column outside the column space of A."""
    fa = gen.factored(rng, n, n, ra, inverses=inverses, high_rows=high_rows)
    fb = gen.factored(rng, n, p, rb, inverses=inverses)
    Xs = gen.random_matrix(rng, n, n)
    C = matmul(matmul(fa.A, Xs), fb.A)
    if not consistent:
        y = [gen.draw(rng) for _ in range(p)]
        C = [[add(cij, mul(w, yj)) for cij, yj in zip(row, y)]
             for row, w in zip(C, fa.out_col)]
    return fa, fb, C


def _kron_case(rng, n, consistent):
    fa, fb, C = _axb_instance(rng, n, n, n - 1, n - 1, consistent)

    def build():
        A, B, LC = to_lib(fa.A), to_lib(fb.A), to_lib(C)

        def check(res, exc, crng):
            if not consistent:
                raised(exc, ginv.InconsistentSystemError)
                return
            no_error(exc)
            checks.kron_solution(fa.A, fb.A, C, from_lib(res.particular),
                                 from_lib(res.directrix), res.dimension,
                                 fa.rank, fb.rank, crng)
        return [Op("solve_axb_via_kron",
                   lambda: ginv.solve_axb_via_kron(A, B, LC), check,
                   props(deficient=True))]
    return build


def core_ladder(rng):
    """Square and rectangular, full and deficient rank, on rungs 8, 16 and
    24; a high-height 8x8 rung; the Kronecker route at n = 3..5."""
    cases = []
    # Rung 16 runs twice, so that the median falls inside its cluster of
    # latencies rather than in the gap between rungs.
    for k in RUNGS + (16,):
        wide = tall = k + k // 2
        cases += [_rnf_case(rng, k, k, k), _rnf_case(rng, k, k, k - 3),
                  _rnf_case(rng, k, wide, k - 2), _rnf_case(rng, tall, k, k),
                  _matmul_case(rng, k, k, k), _matmul_case(rng, k, wide, k),
                  _inverse_case(rng, k),
                  _solve_case(rng, k, k, k, True),
                  _solve_case(rng, k, k, k - 3, True),
                  _solve_case(rng, k, k, k - 3, False)]
    cases += [_rnf_case(rng, 8, 8, 8, high_rows=8),
              _rnf_case(rng, 8, 8, 5, high_rows=8),
              _matmul_case(rng, 8, 8, 8, high=True),
              _inverse_case(rng, 8, high_rows=8),
              _solve_case(rng, 8, 8, 8, True, high_rows=8),
              _solve_case(rng, 8, 8, 5, False, high_rows=8)]
    for n in (3, 4, 5):
        cases += [_kron_case(rng, n, True), _kron_case(rng, n, False)]
    return cases


# -- probe_mix -----------------------------------------------------------------


def replay(A, B, C, X, verdict):
    """replay_infeasibility on the system G_A*C*G_B - X = 0."""
    diff = ginv.symbolic_product(A, B, C) - ginv.SymMatrix.from_exact(X)
    system = [((i, j), diff.entry(i, j)) for i in range(1, X.rows + 1)
              for j in range(1, X.cols + 1) if not diff.entry(i, j).is_zero()]
    return ginv.replay_infeasibility(verdict, system)


def _probe_op(A, B, C, X, fixed):
    """representability_probe, replaying every infeasible verdict.

    ``fixed`` holds the own-arithmetic inputs and rank(X), rank(C).
    """
    def call():
        verdict = ginv.representability_probe(A, B, C, X)
        replayed = (replay(A, B, C, X, verdict)
                    if verdict.kind == "infeasible" else None)
        return verdict, replayed

    def check(res, exc, crng):
        no_error(exc)
        verdict, replayed = res
        check_verdict(verdict.kind, fixed, replayed,
                      lambda: (from_lib(verdict.ga), from_lib(verdict.gb)))
    return call, check


def check_verdict(kind, fixed, replayed, witness_pair):
    """A witness re-multiplies; an infeasible verdict replays and has
    rank(X) != rank(C), since any G_A*C*G_B has rank at most rank(C) and
    C = A*X*B has rank at most rank(X)."""
    A, B, C, X, rank_x, rank_c = fixed
    expect(kind in ("witness", "infeasible", "unknown"), f"verdict {kind}")
    if kind == "witness":
        checks.witness(A, B, C, X, *witness_pair())
    elif kind == "infeasible":
        expect(replayed, "infeasibility trace does not replay")
        expect(rank_x != rank_c, "infeasible although rank(X) = rank(C)")


def _candidate(rng, fa, fb, C, kind):
    """A solution X of A*X*B = C: a product G_A*C*G_B of random family
    members, or a generic solution X0 + Y - L*Y*R."""
    ga, gb = gen.one_inverse(fa, rng), gen.one_inverse(fb, rng)
    X0 = matmul(matmul(ga, C), gb)
    if kind == "product":
        return X0
    L, R = matmul(ga, fa.A), matmul(fb.A, gb)
    Y = gen.random_matrix(rng, len(X0), len(X0[0]))
    LYR = matmul(matmul(L, Y), R)
    return [[sub(add(x, y), z) for x, y, z in zip(rx, ry, rz)]
            for rx, ry, rz in zip(X0, Y, LYR)]


def _probe_build(A, B, C, X, deficient):
    fixed = (A, B, C, X, rank(X), rank(C))

    def build():
        call, check = _probe_op(*(to_lib(M) for M in (A, B, C, X)), fixed)
        return [Op("probe", call, check,
                   props(deficient=deficient, probe=True,
                         rank_x_ne_rank_c=fixed[4] != fixed[5]))]
    return build


def _probe_case(rng, d, ra, rb, kind):
    fa, fb, C = _axb_instance(rng, d, d, ra, rb, True, inverses=True)
    X = _candidate(rng, fa, fb, C, kind)
    return _probe_build(fa.A, fb.A, C, X, min(ra, rb) < d)


def read_demo(root):
    """The named matrices of the demo document, parsed without the library."""
    with open(os.path.join(root, "tests", "data", "demo.mx")) as fh:
        text = re.sub(r"#[^\n]*", "", fh.read())
    return {name: [[(Fraction(tok), 0) for tok in row.split()]
                   for row in body.split(";")]
            for name, body in re.findall(r"(\w+)\s*=\s*\[([^\]]*)\]", text)}


def probe_mix(rng, root):
    """Products and generic solutions on dimensions 2..4, plus the demo X1.

    Every cycle visits each pair of ranks once per dimension and class, so
    the share of hard instances (and of unknown verdicts) is the natural
    one for uniformly drawn ranks, without the variance of drawing them.
    """
    cases = [_probe_case(rng, d, ra, rb, kind) for d in (2, 3, 4)
             for ra in range(1, d + 1) for rb in range(1, d + 1)
             for kind in ("product", "generic")]
    demo = read_demo(root)
    cases.append(_probe_build(demo["A"], demo["B"], demo["C"], demo["X1"], True))
    return cases


# -- cli_docs ------------------------------------------------------------------


def render_rational(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def render_scalar(x):
    re_, im = Fraction(x[0]), Fraction(x[1])
    if not im:
        return render_rational(re_)
    if not re_:
        return render_rational(im) + "i"
    sign = "+" if im > 0 else "-"
    return f"{render_rational(re_)}{sign}{render_rational(abs(im))}i"


def render_doc(named):
    lines = []
    for name, M in named.items():
        rows = " ; ".join(" ".join(render_scalar(x) for x in row) for row in M)
        lines.append(f"{name} = [ {rows} ]")
    return "\n".join(lines) + "\n"


def parse_json_matrix(doc):
    out = []
    it = iter(doc["entries"])
    for _ in range(doc["rows"]):
        row = []
        for _ in range(doc["cols"]):
            a, b, c, d = next(it)
            row.append((Fraction(int(a), int(b)), Fraction(int(c), int(d))))
        out.append(row)
    return out


JSON_KEYS = {"command", "inputs", "steps", "result", "verdict"}
PROBE_VERDICTS = {0: "representable", 1: "not representable", 3: "unknown"}
PROBE_KINDS = {0: "witness", 1: "infeasible", 3: "unknown"}


def run_cli(argv):
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = ginv.cli.run(argv)
    return code, out.getvalue(), err.getvalue()


class Doc:
    """A generated A*X*B = C document and what is known about it."""

    def __init__(self, rng, n, p, consistent, high_rows, kind):
        ra, rb = n - 1, p - 1
        self.fa, self.fb, self.C = _axb_instance(
            rng, n, p, ra, rb, consistent, inverses=True, high_rows=high_rows)
        self.n, self.p, self.consistent = n, p, consistent
        self.high = high_rows > 0
        A = self.fa.A
        x0 = [[gen.draw(rng)] for _ in range(n)]
        self.c = matmul(A, x0)
        y0 = [gen.draw(rng) for _ in range(n)]
        self.r = [vecmat(y0, A)]
        if not consistent:
            self.c = [[add(ci[0], w)] for ci, w in zip(self.c, self.fa.out_col)]
            self.r = [[add(x, w) for x, w in zip(self.r[0], self.fa.out_row)]]
        named = {"A": A, "B": self.fb.A, "C": self.C, "c": self.c, "r": self.r}
        if consistent:
            self.X = _candidate(rng, self.fa, self.fb, self.C, kind)
            self.rank_x, self.rank_c = rank(self.X), rank(self.C)
            self.fixed = (A, self.fb.A, self.C, self.X, self.rank_x, self.rank_c)
            named["X"] = self.X
            named["GA"] = gen.one_inverse(self.fa, rng)
            named["GB"] = gen.one_inverse(self.fb, rng)
            named["GU"] = gen.random_matrix(rng, ra, n - ra)
            named["GV"] = gen.random_matrix(rng, n - ra, ra)
            named["GW"] = gen.random_matrix(rng, n - ra, n - ra)
        self.text = render_doc(named)

    @property
    def dim(self):
        return self.n * self.n - self.fa.rank * self.fb.rank

    def commands(self):
        """(argv tail, expected exit code or None for a probe verdict)."""
        ok = 0 if self.consistent else 1
        cmds = [(["rnf"], 0), (["solve"], ok), (["solve-kron"], ok),
                (["linsys"], ok), (["linsys", "--side", "left", "--rhs", "r"], ok),
                (["check-consistency"], ok), (["check-reproductive"], ok)]
        if self.consistent:
            cmds += [(["ginverse"], 0), (["ginverse", "--canonical"], 0),
                     (["ginverse", "--blocks", "GU", "GV", "GW"], 0),
                     (["solve", "--particular", "X"], 0),
                     (["check-consistency", "--ainv", "GA", "--binv", "GB"], 0)]
            if self.n <= 3:
                cmds += [(["represent"], None),
                         (["report", "--candidate", "X"], None)]
            else:
                cmds.append((["report"], 0))
        else:
            cmds.append((["report"], 1))
        return cmds


def _text_verdict(args, doc, code):
    """The verdict line the text report must end with, or None."""
    cmd = args[0]
    if cmd in ("rnf", "ginverse"):
        return None
    if not doc.consistent:
        return "inconsistent"
    if cmd == "represent":
        return PROBE_VERDICTS[code]
    if cmd == "report":
        if "--candidate" in args:
            return "consistent; candidate " + PROBE_VERDICTS[code]
        return "consistent"
    if cmd == "check-reproductive":
        return "reproductive"
    return "consistent"


def _check_probe_code(doc, code, kind=None):
    expect(code in PROBE_KINDS, f"probe exit {code}")
    if kind is not None:
        expect(kind == PROBE_KINDS[code], f"outcome {kind} with exit {code}")
    if code == 0:
        expect(doc.rank_x == doc.rank_c, "representable although rank(X) != rank(C)")


def _replay_cli_infeasible(doc):
    """Re-run the probe outside the CLI and replay its trace."""
    A, B, C, X = (to_lib(M) for M in (doc.fa.A, doc.fb.A, doc.C, doc.X))
    verdict = ginv.representability_probe(A, B, C, X)
    expect(verdict.kind == "infeasible", "library and CLI verdicts differ")
    return replay(A, B, C, X, verdict)


def _check_json(args, doc, code, result, crng):
    """Exact checks of one command's JSON result against the document."""
    cmd = args[0]
    fa, fb = doc.fa, doc.fb
    A, B, C = fa.A, fb.A, doc.C
    mat = lambda key: parse_json_matrix(result[key])
    if cmd == "rnf":
        checks.rank_normal_form(A, fa.rank, mat("Q"), mat("P"),
                                int(result["rank"]), crng)
    elif cmd == "ginverse":
        if len(args) == 1:
            expect(result["parameters"] == str(doc.n * doc.n - fa.rank ** 2),
                   "parameter count")
            expect(len(result["family"]) == doc.n, "family rows")
        else:
            checks.one_inverse(A, mat("G"))
    elif not doc.consistent:
        if cmd in ("check-consistency", "report"):
            expect(result["consistent"] == "false", "consistency verdict")
    elif cmd == "solve":
        X0, L, R = mat("X0"), mat("L"), mat("R")
        checks.axb_solution(A, B, C, X0)
        checks.projectors(A, B, L, R)
        expect(result["dimension"] == str(doc.dim), "solution dimension")
        reproductive = matmul(matmul(L, X0), R) == X0
        expect(result["reproductive"] == ("true" if reproductive else "false"),
               "reproductivity verdict")
        if "--particular" in args:
            expect(X0 == doc.X, "anchor differs from the particular solution")
        else:
            expect(reproductive, "Penrose map is not reproductive")
    elif cmd == "solve-kron":
        checks.kron_solution(A, B, C, mat("particular"), mat("directrix"),
                             int(result["dimension"]), fa.rank, fb.rank, crng)
    elif cmd == "linsys":
        if "left" in args:
            x, D = mat("particular"), mat("directrix")
            expect(matmul(x, A) == doc.r, "x*A differs from r")
            expect(int(result["dimension"]) == doc.n - fa.rank, "dimension")
            checks.left_kernel(A, D, doc.n - fa.rank, crng)
        else:
            checks.right_solution(A, doc.c, mat("particular"), mat("directrix"),
                                  int(result["dimension"]), fa.rank, crng)
    elif cmd == "check-consistency":
        expect(result["consistent"] == "true", "consistency verdict")
    elif cmd == "check-reproductive":
        expect(result["reproductive"] == "true", "reproductivity verdict")
    elif cmd in ("represent", "report"):
        if cmd == "report":
            expect(result["consistent"] == "true", "consistency verdict")
            checks.axb_solution(A, B, C, mat("X0"))
            expect(result["dimension"] == str(doc.dim), "solution dimension")
        kind = result.get("outcome", result.get("candidate_outcome"))
        if kind is not None:
            _check_probe_code(doc, code, kind)
            if kind == "witness":
                checks.witness(A, B, C, doc.X, mat("G_A"), mat("G_B"))


class _DocCase:
    def __init__(self, rng, path, *plan):
        self.doc = Doc(rng, *plan)
        self.path = path

    def build(self):
        with open(self.path, "w") as fh:
            fh.write(self.doc.text)
        return [op for args, code in self.doc.commands()
                for op in (self._op(args, code, False), self._op(args, code, True))]

    def _op(self, args, expected, as_json):
        doc, path = self.doc, self.path
        argv = [args[0], "--file", path] + args[1:] + (["--json"] if as_json else [])
        probe = args[0] == "represent" or "--candidate" in args

        def check(res, exc, crng):
            no_error(exc)
            code, out, err = res
            expect(not err, f"stderr: {err.strip()[:200]}")
            if expected is not None:
                expect(code == expected, f"exit {code}, expected {expected}")
            else:
                _check_probe_code(doc, code)
                if code == 1:
                    check_verdict("infeasible", doc.fixed,
                                  _replay_cli_infeasible(doc), None)
            if as_json:
                report = json.loads(out)
                expect(set(report) == JSON_KEYS, f"JSON keys {sorted(report)}")
                expect(report["command"] == args[0], "command key")
                _check_json(args, doc, code, report["result"], crng)
            else:
                expect(out.startswith(f"command: {args[0]}\n"), "text header")
                verdict = _text_verdict(args, doc, code)
                if verdict is not None:
                    expect(out.endswith(f"verdict: {verdict}\n"),
                           f"text verdict, expected {verdict!r}")
        return Op("cli." + args[0], lambda: run_cli(argv), check,
                  props(deficient=True, high=doc.high, probe=probe,
                        rank_x_ne_rank_c=(doc.rank_x != doc.rank_c) if probe else None))


def _demo_case(root):
    path = os.path.join(root, "tests", "data", "demo.mx")
    with open(os.path.join(root, "tests", "data", "report_demo.golden"),
              encoding="utf-8") as fh:
        golden = fh.read()
    demo = read_demo(root)
    argv = ["report", "--file", path, "--candidate", "X1"]
    ne = rank(demo["X1"]) != rank(demo["C"])

    def build():
        def check_text(res, exc, crng):
            no_error(exc)
            code, out, err = res
            expect(code == 1 and not err, f"exit {code}")
            expect(out == golden, "report differs from report_demo.golden")

        def check_json(res, exc, crng):
            no_error(exc)
            code, out, err = res
            expect(code == 1 and not err, f"exit {code}")
            report = json.loads(out)
            expect(set(report) == JSON_KEYS, f"JSON keys {sorted(report)}")
            expect(report["result"]["candidate_outcome"] == "infeasible",
                   "demo candidate outcome")
        p = props(deficient=True, probe=True, rank_x_ne_rank_c=ne)
        return [Op("cli.report", lambda: run_cli(argv), check_text, p),
                Op("cli.report", lambda: run_cli(argv + ["--json"]), check_json, p)]
    return build


# (n, p, consistent, rows of A with high height, candidate class)
DOC_PLAN = ((3, 2, True, 0, "product"), (3, 2, True, 1, "generic"),
            (3, 2, False, 1, None), (4, 3, True, 1, "generic"),
            (4, 3, False, 0, None), (5, 4, True, 0, "product"),
            (5, 4, False, 0, None))


def cli_docs(rng, root, docdir):
    cases = [_DocCase(rng, os.path.join(docdir, f"doc{k}.mx"), *plan).build
             for k, plan in enumerate(DOC_PLAN)]
    cases.append(_demo_case(root))
    return cases
