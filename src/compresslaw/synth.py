"""Synthetic experiment generation: the validation oracle for the regression engine.

Records are generated on the Cartesian grid ``l0_values x r_values x
d_values`` (in that lexicographic order) from a known truth law, with
optional Gaussian noise added in log space (multiplicative on the observed
value), matching the regression's noise model.

Each grid axis is checked, when the config is built, by the ``laws`` check that
also checks the ``frontier`` grid's axis.  The grid's log predictions are one
numpy sum over the meshed features, taken in
:func:`~compresslaw.laws.evaluate`'s order, and their ``exp`` is one
``math.exp`` map checked at once, as the ``frontier`` grid's is: a noise-free
``l`` equals ``evaluate`` at its point bit for bit, and the first value out of
range is ``evaluate``'s :class:`~compresslaw.errors.DomainError`.  The
records are a :class:`~compresslaw.laws.Table` of the grid, like the
``frontier`` points: the three axes with their runs, the observed ``l``, and
one-value columns of the model id and the metric.  Only the features are
meshed, never the raw axis values.

Determinism contract: the generator is NumPy's PCG64 via
``numpy.random.default_rng(seed)``, drawing one standard-normal deviate per
grid point in row order.  The seed is an ``int >= 0``, never ``None`` (which
would draw from OS entropy), so identical ``SyntheticConfig`` values
produce bit-identical records.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, SingularDesignError
from .laws import CompressionLaw, ExperimentRecord, Table, _checked_exps, _require_axis, _require_count, _require_law
from .laws import _require_text, _value_type, log_feature_columns, require_nonnegative
from .regression import CONDITION_NUMBER_LIMIT

__all__ = ["SyntheticConfig", "generate"]


@_value_type(truth=_require_law, l0_values=_require_axis, r_values=_require_axis, d_values=_require_axis,
             noise_std=require_nonnegative, seed=_require_count, model_id=_require_text)
class SyntheticConfig:
    """Grid, truth law, noise level and seed for one synthetic experiment.

    Each axis is stored as a nonempty tuple of floats in its domain, and the seed is an ``int >= 0``, so equal
    configs draw equal noise.
    """

    truth: CompressionLaw
    l0_values: tuple[float, ...]
    r_values: tuple[float, ...]
    d_values: tuple[float, ...]
    noise_std: float = 0.0
    seed: int = 0
    model_id: str = "synthetic"

    def __post_init__(self) -> None:
        if len(set(self.r_values)) + len(set(self.d_values)) < 3:
            raise DomainError("need at least 3 distinct values across the r and d grids for a full-rank design")


def generate(config: SyntheticConfig) -> Table:
    """Draw one record per grid point from the truth law, as a :class:`~compresslaw.laws.Table` of the three
    axes, the observed ``l`` and one-value columns of the model id and the metric.

    The observed value is ``exp(alpha*log l0 + beta*log(1+r) +
    gamma*log(1 + 1/(d+epsilon)) + z)`` with ``z ~ N(0, noise_std**2)``.

    Raises:
        SingularDesignError: When the grid cannot support a full-rank
            three-column design (e.g. constant ``l0 = 1`` with a constant
            ``d`` axis).
        DomainError: When a value overflows or underflows the finite positive range.
    """
    law, axes = config.truth, (config.l0_values, config.r_values, config.d_values)
    # Each feature is taken once per axis value, then spread like the axes.
    x0, x1, x2 = (mesh.ravel() for mesh in np.meshgrid(*log_feature_columns(*axes, law.epsilon), indexing="ij"))
    log_l = law.alpha * x0 + law.beta * x1 + law.gamma * x2
    n = len(log_l)
    # With fewer than 3 rows cond() measures only the rows' span, not all three columns.
    if n < 3 or not np.linalg.cond(np.column_stack((x0, x1, x2))) <= CONDITION_NUMBER_LIMIT:
        raise SingularDesignError("grid is rank deficient for the full three-column design")
    if config.noise_std > 0:
        log_l = log_l + np.random.default_rng(config.seed).normal(0.0, config.noise_std, size=n)
    columns = ((config.model_id,), (law.metric,), *axes, _checked_exps(log_l.tolist()))
    d_count = len(config.d_values)
    return Table(ExperimentRecord, columns, (n, n, len(config.r_values) * d_count, d_count, 1, 1))
