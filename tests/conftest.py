import pytest

from sumprodlab import sets
from sumprodlab.fields import Field

SUMS = (Field.vadd, Field.vsub)
ALL_OPS = (Field.vadd, Field.vsub, Field.vmul)


@pytest.fixture
def force_kernel(monkeypatch):
    """force_kernel(kernel, ops=SUMS) has sets._pair_counts run kernel for every op in ops.

    It patches the chooser, so callers such as sum_set, energy and
    cauchy_schwarz_chain run that kernel; other ops keep the real choice.
    kernel "count" stands for the merge or the dense count, whichever the
    real chooser names for a product of the same sizes.
    """
    real = sets._choose_kernel

    def force(kernel, ops=SUMS):
        def choose(ctx, op, nx, ny):
            if op not in ops:
                return real(ctx, op, nx, ny)
            return real(ctx, Field.vmul, nx, ny) if kernel == "count" else kernel

        monkeypatch.setattr(sets, "_choose_kernel", choose)

    return force
