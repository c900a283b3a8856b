"""Reference implementations that the library's fast paths are tested against."""

from theta2.cellset import TruncatedCellularSet
from theta2.theta import compose_cellular, elementary_degeneracies, identity_cellular


class TrialSearch:
    """Mixin: decompose a cell by the trial-degeneracy search.

    For each elementary degeneracy, act by its section and then by the
    degeneracy; when that gives the cell back, recurse on the lower cell.
    The library reads the same decomposition off the cell's runs
    (``theta.reedy_runs``).
    """

    def nd_decompose(self, cell):
        """The unique (nondegenerate cell, degeneracy) pair presenting the cell."""
        key = cell
        hit = self._nd_memo.get(key)
        if hit is not None:
            return hit
        result = None
        for deg, sec in elementary_degeneracies(cell.shape):
            lower = self.act(cell, sec)
            if self.act(lower, deg) == cell:
                nd, rest = self.nd_decompose(lower)
                result = (nd, compose_cellular(deg, rest))
                break
        if result is None:
            result = (cell, identity_cellular(cell.shape))
        self._nd_memo[key] = result
        return result

    def is_nondegenerate(self, cell):
        return self.nd_decompose(cell)[0] == cell


class TrialOracle(TrialSearch, TruncatedCellularSet):
    """An ambient's cells and action, decomposed by the trial search."""

    def __init__(self, ambient):
        super().__init__(ambient.bound)
        self.ambient = ambient

    def _compute_cells(self, shape):
        return self.ambient.cells(shape)

    def _act(self, cell, op):
        return self.ambient._act(cell, op)
