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
