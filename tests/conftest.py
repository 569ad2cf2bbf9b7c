import sys

import numpy as np
import pytest
import scipy.sparse

from polyball.fock import FockOperator


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def refuse_dense(monkeypatch):
    """``refuse_dense(dim)`` makes ``FockOperator.dense`` and SciPy's
    ``toarray`` raise for any result whose sides are both at least dim."""
    def refuse(dim):
        def guarded(f, shape):
            def call(self, *args, **kwargs):
                if min(shape(self)) >= dim:
                    raise AssertionError(f"{f.__qualname__} of a {shape(self)} matrix")
                return f(self, *args, **kwargs)
            return call

        monkeypatch.setattr(FockOperator, "dense", guarded(FockOperator.dense, lambda op: op.matrix.shape))
        for cls in (scipy.sparse.csr_matrix, scipy.sparse.csc_matrix, scipy.sparse.coo_matrix):
            monkeypatch.setattr(cls, "toarray", guarded(cls.toarray, lambda m: m.shape))
    return refuse


@pytest.fixture
def refuse_sparse(monkeypatch):
    """``refuse_sparse(dim=None, operand=None)`` makes every product of two
    SciPy sparse matrices raise or, given operand, only a product with an
    operand whose sides are both at least operand; given dim, it also makes
    building any sparse matrix whose sides are both at least dim raise.  A
    later call adds to an earlier one."""
    def refuse(dim=None, operand=None):
        for cls in (scipy.sparse.csr_matrix, scipy.sparse.csc_matrix,
                    scipy.sparse.coo_matrix, scipy.sparse.bsr_matrix):
            def product(self, other, _product=cls._matmul_sparse):
                if operand is None or max(min(self.shape), min(other.shape)) >= operand:
                    raise AssertionError(f"sparse product {self.shape} @ {other.shape}")
                return _product(self, other)

            monkeypatch.setattr(cls, "_matmul_sparse", product)
            if dim is not None:
                def init(self, *args, _init=cls.__init__, **kwargs):
                    _init(self, *args, **kwargs)
                    if min(self.shape) >= dim:
                        raise AssertionError(f"{type(self).__name__} of shape {self.shape}")

                monkeypatch.setattr(cls, "__init__", init)
    return refuse


@pytest.fixture
def cold_caches():
    """Clears every memoized shape structure of polyball (each
    ``functools.lru_cache`` in its modules) and returns the caches, so a
    test can start cold and read their hit and miss counts."""
    caches = {id(obj): obj for name, module in list(sys.modules.items())
              if name.startswith("polyball.") for obj in vars(module).values()
              if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info")}
    for cache in caches.values():
        cache.cache_clear()
    return list(caches.values())
