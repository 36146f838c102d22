"""Spans and counters recorded from outside the library.

``install(tracer)`` wraps public functions and methods of ``ginv``: every
module-level alias of a wrapped function is rebound (modules import them
with ``from .matrix import rank_normal_form``, so patching the defining
module alone would miss most calls), and methods are replaced on their
class.  A span holds its name, start, end, parent span and operation id;
spans stay in compact arrays until ``write_spans`` at the end of the run.
Scalar operations and matrix construction are only counted, because a
span per scalar multiply would cost more than the multiply.
"""

import os
import sys
from array import array
from collections import Counter
from time import perf_counter_ns


class Tracer:
    """Spans and counts of one traced run; wrappers record only while an
    operation runs (`begin_op` .. `end_op`), so checks stay untraced."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.child = array("q")   # summed durations of direct children
        self.error = array("b")
        self.stack = []
        self.counts = Counter()
        self.active = False
        self.op_id = -1
        self.rnf_seen = set()

    def name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin_op(self, op_id):
        self.op_id = op_id
        self.rnf_seen = set()
        self.active = True

    def end_op(self):
        self.active = False

    def open(self, nid, now=None):
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.child.append(0)
        self.error.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter_ns() if now is None else now)
        return idx

    def close(self, idx, error=False, now=None):
        t = perf_counter_ns() if now is None else now
        self.end[idx] = t
        self.stack.pop()
        if error:
            self.error[idx] = 1
        parent = self.parent[idx]
        if parent >= 0:
            self.child[parent] += t - self.start[idx]

    def self_ns(self, idx):
        """Duration minus the time covered by direct child spans."""
        return self.end[idx] - self.start[idx] - self.child[idx]

    def summary(self):
        """{name: (calls, self_ms, errors)} over all recorded spans."""
        calls, self_ns, errors = Counter(), Counter(), Counter()
        for idx, nid in enumerate(self.name):
            calls[nid] += 1
            self_ns[nid] += self.self_ns(idx)
            errors[nid] += self.error[idx]
        return {self.names[nid]: (calls[nid], self_ns[nid] / 1e6, errors[nid])
                for nid in calls}

    def children_per_parent(self, child_name, parent_name):
        """Counts of spans named child_name under each span named parent_name."""
        cid, pid = self._ids.get(child_name), self._ids.get(parent_name)
        out = Counter()
        for idx, nid in enumerate(self.name):
            par = self.parent[idx]
            if nid == cid and par >= 0 and self.name[par] == pid:
                out[par] += 1
        return out, sum(1 for nid in self.name if nid == pid)

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\top\terror\n")
            for idx, nid in enumerate(self.name):
                fh.write(f"{self.names[nid]}\t{self.start[idx]}\t{self.end[idx]}"
                         f"\t{self.parent[idx]}\t{self.op[idx]}\t{self.error[idx]}\n")


def span_wrapper(tracer, name, fn, before=None, after=None):
    """fn inside a span; before(args) runs ahead of the span, after(args,
    result, exc) behind it, so neither is counted in the span's time."""
    nid = tracer.name_id(name)

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        if before is not None:
            before(args)
        idx = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(idx, error=True)
            if after is not None:
                after(args, None, exc)
            raise
        tracer.close(idx)
        if after is not None:
            after(args, result, None)
        return result
    wrapper.__wrapped__ = fn
    return wrapper


def count_wrapper(tracer, key, fn):
    counts = tracer.counts

    def wrapper(*args, **kwargs):
        if tracer.active:
            counts[key] += 1
        return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def rebind(fn, wrapper):
    """Replace fn by wrapper wherever a ginv module holds it at top level.

    Returns (module, attribute, original) triples for undo.
    """
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "ginv" or modname.startswith("ginv.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)
                undo.append((mod, attr, fn))
    return undo


def install(tracer):
    """Wrap the library's layers; returns a function that unwraps them."""
    import ginv.cli
    from ginv import matrix, represent
    from ginv.errors import InconsistentSystemError
    from ginv.matrix import ExactMatrix
    from ginv.oneinv import OneInverseFamily
    from ginv.poly import Poly, SymMatrix
    from ginv.scalar import GaussianRational

    counts = tracer.counts

    def rnf_before(args):
        key = args[0]
        if key in tracer.rnf_seen:
            counts["matrix.rnf_repeat"] += 1
        else:
            tracer.rnf_seen.add(key)

    def count_result(key, measure):
        def after(args, result, exc):
            if exc is None:
                counts[key] += measure(args, result)
        return after

    def solve_after(args, result, exc):
        if isinstance(exc, InconsistentSystemError):
            counts["linsys.solve_right.inconsistent"] += 1

    def probe_after(args, result, exc):
        if exc is None:
            counts["represent.verdict." + result.kind] += 1

    def cli_exit(args, result, exc):
        if exc is None:
            counts[f"cli.exit.{result}"] += 1

    functions = [
        (matrix, "rank_normal_form", "matrix.rank_normal_form", rnf_before, None),
        (matrix, "inverse_regular", "matrix.inverse_regular", None, None),
        (ginv.oneinv, "family_from", "oneinv.family_from", None, None),
        (ginv.linsys, "solve_right", "linsys.solve_right", None, solve_after),
        (ginv.axb, "consistency_check", "axb.consistency_check", None, None),
        (ginv.axb, "penrose_general_solution", "axb.penrose_general_solution",
         None, None),
        (ginv.axb, "shifted_general_solution", "axb.shifted_general_solution",
         None, None),
        (ginv.axb, "solution_dimension", "axb.solution_dimension", None, None),
        (ginv.kron, "kronecker", "kron.kronecker", None,
         count_result("kron.kronecker.entries", lambda a, r: r.rows * r.cols)),
        (ginv.kron, "solve_axb_via_kron", "kron.solve_axb_via_kron", None, None),
        (represent, "representability_probe", "represent.probe", None,
         probe_after),
        (represent, "eliminate_affine", "represent.eliminate_affine", None,
         count_result("represent.eliminate_affine.steps",
                      lambda a, r: len(r.steps))),
        (represent, "replay_infeasibility", "represent.replay", None, None),
        (ginv.mxfile, "load_document", "mxfile.load_document", None,
         count_result("mxfile.load_document.bytes",
                      lambda a, r: os.path.getsize(a[0]))),
        (ginv.cli, "run", "cli.run", None, cli_exit),
    ]
    render_bytes = count_result("cli.render.bytes",
                                lambda a, r: len(r.encode("utf-8")))
    methods = [
        (ExactMatrix, "__matmul__", "matrix.matmul", None, None),
        (OneInverseFamily, "symbolic", "oneinv.symbolic", None, None),
        (SymMatrix, "__matmul__", "poly.symmatmul", None, None),
        (Poly, "substitute", "poly.substitute", None, None),
        (ginv.cli.Report, "render_text", "cli.render", None, render_bytes),
        (ginv.cli.Report, "render_json", "cli.render", None, render_bytes),
    ]
    counted = [
        (GaussianRational, "__mul__", "scalar.mul"),
        (GaussianRational, "__rmul__", "scalar.mul"),
        (GaussianRational, "__add__", "scalar.add"),
        (GaussianRational, "__radd__", "scalar.add"),
        (GaussianRational, "inverse", "scalar.inverse"),
        (ExactMatrix, "__init__", "matrix.construct"),
    ]

    undo = []
    for mod, attr, name, before, after in functions:
        fn = getattr(mod, attr)
        undo += rebind(fn, span_wrapper(tracer, name, fn, before, after))
    undo += rebind(matrix._raw, count_wrapper(tracer, "matrix.construct",
                                              matrix._raw))
    for cls, attr, name, before, after in methods:
        fn = cls.__dict__[attr]
        setattr(cls, attr, span_wrapper(tracer, name, fn, before, after))
        undo.append((cls, attr, fn))
    for cls, attr, key in counted:
        fn = cls.__dict__[attr]
        setattr(cls, attr, count_wrapper(tracer, key, fn))
        undo.append((cls, attr, fn))

    def uninstall():
        for owner, attr, fn in reversed(undo):
            setattr(owner, attr, fn)
    return uninstall
