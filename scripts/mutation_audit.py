"""Mutation audit: which comparisons, sums and raises of a module do its
tests pin?

Every site of three mutation classes is listed in source order:

- a comparison operator flipped: < and <=, > and >=, == and != swap;
- a + and a - swapped, in an expression or an augmented assignment;
- a raise statement replaced by pass.

Each mutant is the module with one site changed.  It runs against that
module's tests with `pytest -x` in a copy of the repository, so the working
tree is never touched.  A mutant the tests fail on (or that runs past
TIMEOUT_S, as a flipped loop bound can) is killed; one they pass on survived,
and is printed.

    python scripts/mutation_audit.py detection gaussian
    python scripts/mutation_audit.py --list detection    # the sites only

Uses the standard library only; run it outside the test suite, since each
mutant costs one pytest run of the module's tests.
"""

from __future__ import annotations

import argparse
import ast
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "jpatomo"
TIMEOUT_S = 600.0  # per mutant run

# the tests that exercise each module
TESTS = {
    "cli": ["tests/test_config_cli.py"],
    "config": ["tests/test_config_cli.py"],
    "detection": ["tests/test_detection.py", "tests/test_tomography.py"],
    "device": ["tests/test_device.py"],
    "gaussian": ["tests/test_gaussian.py", "tests/test_detection.py"],
    "tomography": [
        "tests/test_tomography.py",
        "tests/test_acceptance.py",
        "tests/test_config_cli.py",
    ],
}

_FLIPPED = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
}
_SWAPPED = {ast.Add: ast.Sub, ast.Sub: ast.Add}
_SYMBOL = {
    ast.Lt: "<",
    ast.LtE: "<=",
    ast.Gt: ">",
    ast.GtE: ">=",
    ast.Eq: "==",
    ast.NotEq: "!=",
    ast.Add: "+",
    ast.Sub: "-",
}


class Site(NamedTuple):
    """One mutable site: the node's span, its class and, in a chained
    comparison, the operator's index."""

    span: tuple[int, int, int, int]
    kind: type
    k: int
    what: str

    def __str__(self) -> str:
        return f"{self.span[0]}:{self.span[1]} {self.what}"


def _span(node) -> tuple[int, int, int, int]:
    return (node.lineno, node.col_offset, node.end_lineno, node.end_col_offset)


def sites(tree: ast.Module) -> list[Site]:
    """Every mutable site of `tree`, in source order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                if type(op) in _FLIPPED:
                    what = f"{_SYMBOL[type(op)]} -> {_SYMBOL[_FLIPPED[type(op)]]}"
                    found.append(Site(_span(node), ast.Compare, k, what))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _SWAPPED:
            what = f"{_SYMBOL[type(node.op)]} -> {_SYMBOL[_SWAPPED[type(node.op)]]}"
            found.append(Site(_span(node), type(node), 0, what))
        elif isinstance(node, ast.Raise):
            found.append(Site(_span(node), ast.Raise, 0, "raise -> pass"))
    return sorted(found)


class _Mutator(ast.NodeTransformer):
    """Changes the one node at `site`."""

    def __init__(self, site: Site) -> None:
        self.site = site

    def _here(self, node) -> bool:
        return type(node) is self.site.kind and _span(node) == self.site.span

    def visit_Compare(self, node):
        self.generic_visit(node)
        if self._here(node):
            node.ops[self.site.k] = _FLIPPED[type(node.ops[self.site.k])]()
        return node

    def _swap(self, node):
        self.generic_visit(node)
        if self._here(node):
            node.op = _SWAPPED[type(node.op)]()
        return node

    visit_BinOp = visit_AugAssign = _swap

    def visit_Raise(self, node):
        return ast.copy_location(ast.Pass(), node) if self._here(node) else node


def mutant_source(source: str, site: Site) -> str:
    tree = _Mutator(site).visit(ast.parse(source))
    return ast.unparse(ast.fix_missing_locations(tree))


def run_tests(copy: Path, tests: list[str]) -> bool:
    """True if the tests pass in `copy`; a run past TIMEOUT_S counts as a
    failure."""
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            command, cwd=copy, capture_output=True, timeout=TIMEOUT_S, check=False
        )
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def audit(module: str, copy: Path) -> list[str]:
    """The survivors of `module`'s mutants, as printed lines."""
    path = copy / PACKAGE / f"{module}.py"
    source = path.read_text()
    tests = TESTS[module]
    survivors = []
    found = sites(ast.parse(source))
    try:
        for n, site in enumerate(found, 1):
            path.write_text(mutant_source(source, site))
            started = time.perf_counter()
            passed = run_tests(copy, tests)
            label = f"{module}.py:{site}"
            verdict = "SURVIVED" if passed else "killed"
            print(
                f"[{n}/{len(found)}] {label}: {verdict} ({time.perf_counter() - started:.1f} s)",
                flush=True,
            )
            if passed:
                survivors.append(label)
    finally:
        path.write_text(source)
    return survivors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", choices=sorted(TESTS))
    parser.add_argument("--list", action="store_true", help="list the sites, run nothing")
    parser.add_argument(
        "--workdir", help="where to make the repository copy (default: a temporary directory)"
    )
    args = parser.parse_args(argv)
    if args.list:
        for module in args.modules:
            source = (ROOT / PACKAGE / f"{module}.py").read_text()
            for site in sites(ast.parse(source)):
                print(f"{module}.py:{site}")
        return 0
    with tempfile.TemporaryDirectory(dir=args.workdir) as scratch:
        copy = Path(scratch) / "repo"
        shutil.copytree(
            ROOT,
            copy,
            ignore=shutil.ignore_patterns(
                ".git", "__pycache__", ".hypothesis", ".perfbench_out", "out"
            ),
        )
        for module in args.modules:
            if not run_tests(copy, TESTS[module]):
                print(f"{module}: the unmutated tests fail; nothing to audit")
                return 1
        survivors = [line for module in args.modules for line in audit(module, copy)]
    print(f"{len(survivors)} survivors")
    for line in survivors:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
