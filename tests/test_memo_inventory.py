"""Memoization is keyed by shape only.

Every ``lru_cache`` and ``cached_property`` in the package is listed below
with its key, so a new memo has to state one.  The data objects (a symbol,
a point, an operator) keep no derived state: after the calls that read
them, their attributes are the ones they were built with.
"""

import ast
import pathlib

import numpy as np

import polyball
from polyball.berezin import berezin_kernel, cauchy_operator, in_polyball, poisson_window
from polyball.fock import FockTruncation, word_operator
from polyball.pluriharm import schur_positivity
from polyball.sampling import random_hermitian_symbol, random_nilpotent_point
from polyball.toeplitz import extract_symbol, is_k_multi_toeplitz, symbol_operator
from polyball.words import identity_multiword, multiword

MEMOS = {
    # keyed by a shape (n, degrees) and a pair of multiwords
    "fock._pair_id",
    # keyed by a shape (n, degrees) and a side
    "fock._pair_table",
    "fock._creation_letters",
    # keyed by a shape n (or an alphabet size) and a length cap
    "words._words_up_to",
    "words._multiwords_up_to_total",
    "words._lambda_pairs_up_to_total",
    "naimark._graded_monomials",
    # keyed by a side, a shape n, a length cap and a multiword
    "naimark._tail_positions",
    # per multiword, from its immutable parts
    "words.MultiWord._hash",
    "words.MultiWord.n",
    "words.MultiWord.total_length",
    "words.MultiWord._reversed",
    # results computed on first read from what they were built with
    "berezin.CauchyResult.min_singular",
    "naimark.NaimarkDilation.columns",
}

_MEMO_NAMES = {"lru_cache", "cache", "cached_property"}


def _name(node) -> str | None:
    """The decorator or callee name: ``lru_cache`` for ``lru_cache(...)``,
    ``functools.lru_cache`` and ``lru_cache`` alike."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else None


def _memos(tree: ast.Module, module: str) -> tuple[set[str], int]:
    """The qualified names of the memoized functions and properties, and the
    number of memo references that decorate nothing (as in
    ``f = lru_cache(maxsize=4)(g)``)."""
    found, decorators = set(), 0

    def visit(node, prefix):
        nonlocal decorators
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                memo = [d for d in child.decorator_list if _name(d) in _MEMO_NAMES]
                decorators += len(memo)
                if memo:
                    found.add(f"{prefix}.{child.name}")
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(tree, module)
    references = sum(1 for node in ast.walk(tree)
                     if isinstance(node, (ast.Name, ast.Attribute)) and _name(node) in _MEMO_NAMES)
    return found, references - decorators


def test_every_memo_is_listed_with_its_key():
    found, stray = set(), 0
    for path in sorted(pathlib.Path(polyball.__file__).parent.glob("*.py")):
        memos, extra = _memos(ast.parse(path.read_text()), path.stem)
        found |= memos
        stray += extra
    assert found == MEMOS
    assert stray == 0


def test_a_symbol_keeps_only_its_data():
    t = FockTruncation([2, 1], [2, 2])
    sym = random_hermitian_symbol(np.random.default_rng(1), t.n, 2, 2)
    symbol_operator(sym, t, 0.5)
    sym.hermitian_defect()
    sym.scaled(0.5)
    schur_positivity(sym, [0.5], 2)
    assert set(vars(sym)) == {"n", "e_dim", "coeffs"}


def test_a_point_keeps_only_its_entries():
    t = FockTruncation([2, 1], [2, 2])
    x = random_nilpotent_point(np.random.default_rng(2), t.n, 2, 0.6)
    x.monomial_table(t)
    berezin_kernel(x, t)
    cauchy_operator(t, x, "left")
    poisson_window(x, t, t.total_length_mask(2))
    in_polyball(x)
    assert set(vars(x)) == {"X", "h_dim", "k", "n"}


def test_an_operator_keeps_only_its_matrix():
    t = FockTruncation([2], [3])
    op = word_operator(t, multiword([[1]], [2]), identity_multiword([2]))
    is_k_multi_toeplitz(op)
    extract_symbol(op, 2)
    op.blocks([0, 1], [1, 0])
    assert set(vars(op)) == {"trunc", "coeff_dim", "matrix"}
