"""The package's public names, its size and its dense matrix reads, pinned:
adding or deleting a name, or growing the source or its reads, is a visible
change to a literal here; and every parameter in the package is read."""

import ast
from pathlib import Path

import combtester

# lines of src/combtester/*.py at most; a change that grows the package
# raises this on purpose, and one that shrinks it may lower it
SOURCE_LINES = 3479
# code lines of src/combtester/*.py that read an operator's dense
# ``.matrix``, at most; the same rule as SOURCE_LINES
DENSE_READS = 22

PUBLIC = [
    "Channel", "DistanceEstimate", "EigenphaseSet", "ExampleInstance",
    "FeasibilityReport", "IsometricComb", "LabeledOperator", "MemoryChannel",
    "Tester", "TesterCircuit", "angular_spread", "apply_channel",
    "born_probabilities", "build_example", "causal_discriminable",
    "causal_protocol", "cb_distance", "check_spread_laws", "choi_from_kraus",
    "comb_from_isometries", "comb_from_sequence", "delta_matrix",
    "discriminability", "double_ket", "eigh", "eigvalsh", "identity",
    "identity_channel", "kraus_from_choi", "kraus_orthogonality", "link",
    "matching_conjugation", "memory_distance", "parallel_discriminable",
    "parallel_optimality_check", "partial_trace", "povm_from_tester",
    "psd_inv_sqrt", "psd_sqrt", "reduce_sequences", "reduced_state", "shift_clock",
    "shift_multiply", "simulate_tester_circuit", "synthesize_tester", "tensor",
    "tester_from_circuit", "tester_from_elements", "trace_norm", "undouble_ket",
    "unitary_cb_oracle", "unitary_channel", "validate_comb", "validate_tester",
    "verify_parallel_impossible",
]


def test_public_names_are_pinned():
    assert sorted(combtester.__all__) == PUBLIC


def test_source_lines_stay_under_the_ceiling():
    package = Path(combtester.__file__).parent
    lines = sum(len(f.read_text(encoding="utf-8").splitlines()) for f in package.glob("*.py"))
    assert lines <= SOURCE_LINES, f"src/combtester/*.py has {lines} lines"


def test_dense_reads_stay_under_the_ceiling():
    package = Path(combtester.__file__).parent
    reads = sorted({(f.name, n.lineno) for f in package.glob("*.py")
                    for n in ast.walk(ast.parse(f.read_text(encoding="utf-8")))
                    if isinstance(n, ast.Attribute) and n.attr == "matrix"
                    and isinstance(n.ctx, ast.Load)})
    assert len(reads) <= DENSE_READS, reads


# parameters that no body reads, by (module, qualified function name, name):
# the solvers' seeds stay until the benchmark's workloads stop passing them,
# and the other two are fixed by the signature their caller expects
UNREAD = {
    ("discrimination", "parallel_discriminable", "seed"),
    ("discrimination", "causal_discriminable", "seed"),
    ("distances", "cb_distance", "seed"),
    ("distances", "memory_distance", "seed"),
    ("cli", "cmd_theta_laws", "parser"),  # the one subcommand handler signature
    ("matcore", "LabeledOperator.__setattr__", "value"),
}


def _unread_parameters(module: str, node: ast.AST, prefix: str = ""):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            name = prefix + getattr(child, "name", "<lambda>")
            a = child.args
            params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
            params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
            body = child.body if isinstance(child.body, list) else [child.body]
            read = {n.id for b in body for n in ast.walk(b)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            # a method's receiver is fixed by the call protocol
            yield from ((module, name, p) for p in params
                        if p not in read and p not in ("self", "cls"))
            yield from _unread_parameters(module, child, name + ".")
        else:
            inner = prefix + child.name + "." if isinstance(child, ast.ClassDef) else prefix
            yield from _unread_parameters(module, child, inner)


def test_every_parameter_is_read():
    package = Path(combtester.__file__).parent
    unread = {u for f in package.glob("*.py")
              for u in _unread_parameters(f.stem, ast.parse(f.read_text(encoding="utf-8")))}
    assert unread == UNREAD
