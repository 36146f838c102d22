"""Command-line front end.

Every subcommand reads its matrices from a .mx document, runs one
library pipeline, and emits the same facts as an aligned text report or,
with --json, as a JSON object.  Exit status encodes the verdict: 0 for
success and true verdicts, 1 for false or infeasible verdicts, 2 for
usage and input errors, 3 when the representability probe gives up.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .axb import (consistency_check, penrose_general_solution,
                  shifted_general_solution, solution_dimension)
from .errors import (GinvError, InconsistentEquationError,
                     InconsistentSystemError)
from .kron import kronecker, mat, vec
from .linsys import solve_left, solve_right
from .matrix import ExactMatrix, rank_normal_form
from .mxfile import load_document
from .oneinv import family_from, is_one_inverse
from .represent import (DEFAULT_BUDGET, DEFAULT_SEED, _primed,
                        representability_probe)
from .scalar import render_int, render_scalar

__all__ = ["Report", "run", "console_main"]

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_USAGE = 2
EXIT_UNKNOWN = 3

_STEP_INDENT = "     "


def _matrix_json(M: ExactMatrix):
    entries = []
    for i in range(1, M.rows + 1):
        for j in range(1, M.cols + 1):
            x = M.entry(i, j)
            entries.append([render_int(x.re.numerator),
                            render_int(x.re.denominator),
                            render_int(x.im.numerator),
                            render_int(x.im.denominator)])
    return {"rows": M.rows, "cols": M.cols, "entries": entries}


def _json_value(value):
    if isinstance(value, ExactMatrix):
        return _matrix_json(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (list, tuple)):
        return [str(v) for v in value]
    return str(value)


def _text_value(value):
    """(inline, block_lines): scalars render inline, the rest as a block."""
    if isinstance(value, ExactMatrix):
        return None, value.render_lines()
    if isinstance(value, bool):
        return ("true" if value else "false"), None
    if isinstance(value, (list, tuple)):
        return None, [str(v) for v in value]
    return str(value), None


class Report:
    """Ordered facts of one command run; text and JSON carry the same."""

    def __init__(self, command: str):
        self.command = command
        self.inputs = []
        self.steps = []
        self.result = {}
        self.verdict = None

    def add_input(self, name: str, M: ExactMatrix):
        self.inputs.append((name, M))

    def add_step(self, title: str, lines=()):
        self.steps.append((title, [str(l) for l in lines]))

    def add_result(self, key: str, value):
        self.result[key] = value

    def render_text(self) -> str:
        out = [f"command: {self.command}"]
        if self.inputs:
            out.append("inputs:")
            for name, M in self.inputs:
                out.append(f"  {name} ({M.rows}x{M.cols}):")
                out.extend("    " + line for line in M.render_lines())
        if self.steps:
            out.append("steps:")
            for k, (title, lines) in enumerate(self.steps, start=1):
                out.append(f"  {k}. {title}")
                out.extend(_STEP_INDENT + line for line in lines)
        if self.result:
            out.append("results:")
            for key, value in self.result.items():
                inline, block = _text_value(value)
                if inline is not None:
                    out.append(f"  {key}: {inline}")
                else:
                    shape = (f" ({value.rows}x{value.cols})"
                             if isinstance(value, ExactMatrix) else "")
                    out.append(f"  {key}{shape}:")
                    out.extend("    " + line for line in block)
        if self.verdict is not None:
            out.append(f"verdict: {self.verdict}")
        return "\n".join(out) + "\n"

    def render_json(self) -> str:
        doc = {
            "command": self.command,
            "inputs": {name: _matrix_json(M) for name, M in self.inputs},
            "steps": [{"title": t, "lines": lines} for t, lines in self.steps],
            "result": {k: _json_value(v) for k, v in self.result.items()},
            "verdict": self.verdict,
        }
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


class _InputError(Exception):
    """A well-formed command hit a problem with its input data."""


def _fetch(doc, name: str) -> ExactMatrix:
    M = doc.get(name)
    if M is None:
        raise _InputError(f"{doc.filename}: no matrix named {name!r}")
    return M


def _fetch_abc(doc):
    return _fetch(doc, "A"), _fetch(doc, "B"), _fetch(doc, "C")


# -- subcommands ---------------------------------------------------------------


def _cmd_rnf(args, doc):
    M = _fetch(doc, args.matrix)
    report = Report("rnf")
    report.add_input(args.matrix, M)
    rnf = rank_normal_form(M)
    e_ok = rnf.q @ M @ rnf.p == rnf.e(M.rows, M.cols)
    report.add_step(f"rank normal form of {args.matrix}",
                    [f"rank = {rnf.rank}",
                     f"Q * {args.matrix} * P = E_a: {'true' if e_ok else 'false'}"])
    report.add_result("rank", rnf.rank)
    report.add_result("Q", rnf.q)
    report.add_result("P", rnf.p)
    return report, EXIT_TRUE


def _cmd_ginverse(args, doc):
    M = _fetch(doc, args.matrix)
    fam = family_from(M)
    report = Report("ginverse")
    report.add_input(args.matrix, M)
    report.add_step(
        "parametric family",
        [f"rank = {fam.a}",
         f"free parameters: {fam.param_count} "
         f"(U {fam.u_shape[0]}x{fam.u_shape[1]}, "
         f"V {fam.v_shape[0]}x{fam.v_shape[1]}, "
         f"W {fam.w_shape[0]}x{fam.w_shape[1]})"])
    if args.blocks:
        u_name, v_name, w_name = args.blocks
        G = fam.instantiate(_fetch(doc, u_name), _fetch(doc, v_name),
                            _fetch(doc, w_name))
    elif args.canonical:
        G = fam.canonical()
    else:
        sym = fam.symbolic()
        report.add_result("parameters", fam.param_count)
        report.add_result("family", sym.matrix.render_lines())
        return report, EXIT_TRUE
    ok = is_one_inverse(M, G)
    report.add_step("member check",
                    [f"{args.matrix} * G * {args.matrix} = {args.matrix}: "
                     f"{'true' if ok else 'false'}"])
    report.add_result("G", G)
    return report, EXIT_TRUE


def _cmd_solve(args, doc):
    A, B, C = _fetch_abc(doc)
    report = Report("solve")
    for name, M in (("A", A), ("B", B), ("C", C)):
        report.add_input(name, M)
    try:
        if args.particular:
            X0 = _fetch(doc, args.particular)
            report.add_input(args.particular, X0)
            gs = shifted_general_solution(A, B, C, X0)
            origin = f"anchored at {args.particular}"
        else:
            gs = penrose_general_solution(A, B, C)
            origin = "X0 = A1*C*B1 at the canonical {1}-inverses"
    except InconsistentEquationError as err:
        report.add_step("consistency via A*A1*C*B1*B = C",
                        ["residual is nonzero:"] + err.residual.render_lines())
        report.verdict = "inconsistent"
        return report, EXIT_FALSE
    report.add_step("consistency via A*A1*C*B1*B = C", ["residual = 0: true"])
    report.add_step(f"particular solution ({origin})", gs.X0.render_lines())
    report.add_step("solution map", ["g(Y) = X0 + Y - L*Y*R",
                                     "L = A1*A, R = B*B1"])
    report.add_result("X0", gs.X0)
    report.add_result("L", gs.L)
    report.add_result("R", gs.R)
    report.add_result("dimension", solution_dimension(gs))
    report.add_result("reproductive", gs.is_reproductive())
    report.verdict = "consistent"
    return report, EXIT_TRUE


def _kron_solution_steps(report, A, B, C):
    K = kronecker(A, B.T)
    report.add_step(f"Kronecker matrix A (x) B^T ({K.rows}x{K.cols})",
                    K.render_lines())
    report.add_step("vec(C)",
                    [render_scalar(x) for x in vec(C).column_list(1)])
    sol = solve_right(K, vec(C))
    trace = sol.trace
    report.add_step("c' = Q*vec(C)",
                    [render_scalar(x) for x in trace.c_prime.column_list(1)])
    report.add_step("consistency",
                    [f"last {K.rows - trace.rnf.rank} coordinates of c' "
                     "are zero: true"])
    if trace.sweep_form is not None:
        report.add_step(
            f"sweep form of the V block (pivot j = {trace.pivot})",
            trace.sweep_form.render_lines())
    else:
        report.add_step("sweep form",
                        ["homogeneous right-hand side: sweep form skipped"])
    return sol


def _cmd_solve_kron(args, doc):
    A, B, C = _fetch_abc(doc)
    report = Report("solve-kron")
    for name, M in (("A", A), ("B", B), ("C", C)):
        report.add_input(name, M)
    try:
        sol = _kron_solution_steps(report, A, B, C)
    except InconsistentSystemError as err:
        report.add_step("consistency",
                        ["nonzero tail of c':"] + err.tail.render_lines())
        report.verdict = "inconsistent"
        return report, EXIT_FALSE
    report.add_result("particular", sol.particular)
    report.add_result("particular_as_matrix",
                      mat(sol.particular, A.cols, B.rows))
    report.add_result("directrix", sol.directrix)
    report.add_result("dimension", sol.dimension)
    report.verdict = "consistent"
    return report, EXIT_TRUE


def _cmd_linsys(args, doc):
    M = _fetch(doc, args.matrix)
    c = _fetch(doc, args.rhs)
    report = Report("linsys")
    report.add_input(args.matrix, M)
    report.add_input(args.rhs, c)
    solver = solve_right if args.side == "right" else solve_left
    equation = (f"{args.matrix}*x = {args.rhs}" if args.side == "right"
                else f"x*{args.matrix} = {args.rhs}")
    report.add_step("system", [equation])
    try:
        sol = solver(M, c)
    except InconsistentSystemError as err:
        report.add_step("consistency",
                        ["nonzero tail of c':"] + err.tail.render_lines())
        report.verdict = "inconsistent"
        return report, EXIT_FALSE
    trace = sol.trace
    report.add_step("rank normal form", [f"rank = {trace.rnf.rank}"])
    report.add_step("c' = Q*c",
                    [render_scalar(x) for x in trace.c_prime.column_list(1)])
    if trace.sweep_form is not None:
        report.add_step(
            f"sweep form of the V block (pivot j = {trace.pivot})",
            trace.sweep_form.render_lines())
    else:
        report.add_step("sweep form",
                        ["homogeneous right-hand side: sweep form skipped"])
    report.add_result("particular", sol.particular)
    report.add_result("directrix", sol.directrix)
    report.add_result("dimension", sol.dimension)
    report.verdict = "consistent"
    return report, EXIT_TRUE


def _cmd_check_consistency(args, doc):
    A, B, C = _fetch_abc(doc)
    report = Report("check-consistency")
    for name, M in (("A", A), ("B", B), ("C", C)):
        report.add_input(name, M)
    A1 = _fetch(doc, args.ainv) if args.ainv else None
    B1 = _fetch(doc, args.binv) if args.binv else None
    ok = consistency_check(A, B, C, A1, B1)
    which = ("canonical {1}-inverses" if not (args.ainv or args.binv)
             else "supplied {1}-inverses")
    A1 = A1 if A1 is not None else family_from(A).canonical()
    B1 = B1 if B1 is not None else family_from(B).canonical()
    residual = A @ A1 @ C @ B1 @ B - C
    report.add_step(f"A*A1*C*B1*B - C with {which}", residual.render_lines())
    report.add_result("consistent", ok)
    report.verdict = "consistent" if ok else "inconsistent"
    return report, EXIT_TRUE if ok else EXIT_FALSE


def _cmd_check_reproductive(args, doc):
    A, B, C = _fetch_abc(doc)
    report = Report("check-reproductive")
    for name, M in (("A", A), ("B", B), ("C", C)):
        report.add_input(name, M)
    try:
        if args.particular:
            X0 = _fetch(doc, args.particular)
            report.add_input(args.particular, X0)
            gs = shifted_general_solution(A, B, C, X0)
        else:
            gs = penrose_general_solution(A, B, C)
    except InconsistentEquationError as err:
        report.add_step("consistency via A*A1*C*B1*B = C",
                        ["residual is nonzero:"] + err.residual.render_lines())
        report.verdict = "inconsistent"
        return report, EXIT_FALSE
    ok = gs.is_reproductive()
    report.add_step("evidence: L*X0*R", (gs.L @ gs.X0 @ gs.R).render_lines())
    report.add_step("against X0", gs.X0.render_lines())
    report.add_step("map idempotence",
                    [f"g(g(Y)) = g(Y) for all Y: {'true' if ok else 'false'}"])
    report.add_result("reproductive", ok)
    report.verdict = "reproductive" if ok else "not reproductive"
    return report, EXIT_TRUE if ok else EXIT_FALSE


_PROBE_EXITS = {"witness": EXIT_TRUE, "infeasible": EXIT_FALSE,
                "unknown": EXIT_UNKNOWN}
_PROBE_VERDICTS = {"witness": "representable",
                   "infeasible": "not representable",
                   "unknown": "unknown"}


def _probe_steps(report, A, B, C, X, seed, budget):
    fam_a, fam_b = family_from(A), family_from(B)
    report.add_step("bilinear system G_A*C*G_B = X",
                    [f"parameter groups: {fam_a.param_count} for A, "
                     f"{fam_b.param_count} for B"])
    verdict = representability_probe(A, B, C, X, budget=budget, seed=seed)
    titles = {"witness": "witness assignment",
              "infeasible": "elimination trace",
              "unknown": "search outcome"}
    report.add_step(titles[verdict.kind], verdict.render_lines())
    if verdict.kind == "witness":
        report.add_result("G_A", verdict.ga)
        report.add_result("G_B", verdict.gb)
    return verdict


def _cmd_represent(args, doc):
    A, B, C = _fetch_abc(doc)
    X = _fetch(doc, args.candidate)
    report = Report("represent")
    for name, M in (("A", A), ("B", B), ("C", C), (args.candidate, X)):
        report.add_input(name, M)
    verdict = _probe_steps(report, A, B, C, X, args.seed, args.budget)
    report.add_result("outcome", verdict.kind)
    report.verdict = _PROBE_VERDICTS[verdict.kind]
    return report, _PROBE_EXITS[verdict.kind]


def _cmd_report(args, doc):
    A, B, C = _fetch_abc(doc)
    X = _fetch(doc, args.candidate) if args.candidate else None
    report = Report("report")
    for name, M in (("A", A), ("B", B), ("C", C)):
        report.add_input(name, M)
    if X is not None:
        report.add_input(args.candidate, X)

    rnf_a, rnf_b = rank_normal_form(A), rank_normal_form(B)
    report.add_step("rank normal forms",
                    [f"rank(A) = {rnf_a.rank}, rank(B) = {rnf_b.rank}"])
    fam_a, fam_b = family_from(A), family_from(B)
    report.add_step("symbolic {1}-inverse of A",
                    fam_a.symbolic().matrix.render_lines())
    # Primed names for B's parameters, matching the elimination trace.
    report.add_step("symbolic {1}-inverse of B",
                    fam_b.symbolic(_primed(fam_b._default_names()),
                                   id_start=fam_a.param_count)
                    .matrix.render_lines())

    consistent = consistency_check(A, B, C)
    report.add_step("consistency via A*A1*C*B1*B = C",
                    [f"{'true' if consistent else 'false'}"])
    if not consistent:
        report.add_result("consistent", False)
        report.verdict = "inconsistent"
        return report, EXIT_FALSE

    gs = penrose_general_solution(A, B, C)
    report.add_step("particular solution X0 = A1*C*B1", gs.X0.render_lines())
    report.add_step("reproductivity of the Penrose map",
                    [f"X0 = L*X0*R: {'true' if gs.is_reproductive() else 'false'}"])
    sol = _kron_solution_steps(report, A, B, C)
    report.add_step("solution-set dimension",
                    [f"via Kronecker system: {sol.dimension}",
                     f"via projector ranks: {solution_dimension(gs)}"])
    report.add_result("consistent", True)
    report.add_result("X0", gs.X0)
    report.add_result("dimension", sol.dimension)

    exit_code = EXIT_TRUE
    verdict = "consistent"
    if X is not None:
        member = sol.contains(vec(X))
        report.add_step(f"membership of {args.candidate}",
                        [f"A*{args.candidate}*B = C: "
                         f"{'true' if A @ X @ B == C else 'false'}",
                         f"vec({args.candidate}) in the affine set: "
                         f"{'true' if member else 'false'}"])
        shifted = shifted_general_solution(A, B, C, X)
        report.add_step(f"shifted map at {args.candidate}",
                        [f"reproductive: "
                         f"{'true' if shifted.is_reproductive() else 'false'}"])
        probe = _probe_steps(report, A, B, C, X, args.seed, args.budget)
        report.add_result("candidate_outcome", probe.kind)
        verdict = f"consistent; candidate {_PROBE_VERDICTS[probe.kind]}"
        if probe.kind != "witness":
            exit_code = _PROBE_EXITS[probe.kind]
    report.verdict = verdict
    return report, exit_code


_COMMANDS = {
    "rnf": _cmd_rnf,
    "ginverse": _cmd_ginverse,
    "solve": _cmd_solve,
    "solve-kron": _cmd_solve_kron,
    "linsys": _cmd_linsys,
    "check-consistency": _cmd_check_consistency,
    "check-reproductive": _cmd_check_reproductive,
    "represent": _cmd_represent,
    "report": _cmd_report,
}


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and shared by every later
    ``run()``: parsing never mutates it and returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="ginv",
        description="Exact {1}-inverse toolkit for matrix equations over "
                    "rational complex numbers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--file", required=True,
                       help=".mx document holding the input matrices")
        p.add_argument("--json", action="store_true",
                       help="emit the report as JSON instead of text")

    def probe_opts(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help="seed for the probe's sampling phase")
        p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                       help="sampling attempts before giving up")

    p = sub.add_parser("rnf", help="rank normal form Q*A*P = E_a")
    common(p)
    p.add_argument("--matrix", default="A", metavar="NAME")

    p = sub.add_parser("ginverse", help="the {1}-inverse family of a matrix")
    common(p)
    p.add_argument("--matrix", default="A", metavar="NAME")
    p.add_argument("--canonical", action="store_true",
                   help="print the zero-block member")
    p.add_argument("--blocks", nargs=3, metavar=("U", "V", "W"),
                   help="matrix names for a specific member")

    p = sub.add_parser("solve", help="general solution of A*X*B = C")
    common(p)
    p.add_argument("--particular", metavar="NAME",
                   help="anchor the solution map at this named solution")

    p = sub.add_parser("solve-kron",
                       help="solve A*X*B = C through the Kronecker system")
    common(p)

    p = sub.add_parser("linsys", help="general solution of A*x = c or x*A = c")
    common(p)
    p.add_argument("--matrix", default="A", metavar="NAME")
    p.add_argument("--rhs", default="c", metavar="NAME")
    p.add_argument("--side", choices=("right", "left"), default="right",
                   help="right: A*x = c; left: x*A = c")

    p = sub.add_parser("check-consistency",
                       help="decide consistency of A*X*B = C")
    common(p)
    p.add_argument("--ainv", metavar="NAME",
                   help="use this matrix as the {1}-inverse of A")
    p.add_argument("--binv", metavar="NAME",
                   help="use this matrix as the {1}-inverse of B")

    p = sub.add_parser("check-reproductive",
                       help="classify the general solution map of A*X*B = C")
    common(p)
    p.add_argument("--particular", metavar="NAME",
                   help="anchor the map at this named solution")

    p = sub.add_parser("represent",
                       help="probe X = G_A*C*G_B over all {1}-inverses")
    common(p)
    p.add_argument("--candidate", default="X", metavar="NAME")
    probe_opts(p)

    p = sub.add_parser("report",
                       help="full derivation walkthrough for A*X*B = C")
    common(p)
    p.add_argument("--candidate", default=None, metavar="NAME")
    probe_opts(p)

    return parser


def run(argv=None) -> int:
    """Execute one command line; returns the exit status."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        doc = load_document(args.file)
    except OSError as err:
        print(f"error: {args.file}: {err.strerror or err}", file=sys.stderr)
        return EXIT_USAGE
    except GinvError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report, code = _COMMANDS[args.command](args, doc)
    except (_InputError, GinvError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    sys.stdout.write(report.render_json() if args.json else report.render_text())
    return code


def console_main():
    sys.exit(run())


if __name__ == "__main__":
    console_main()
