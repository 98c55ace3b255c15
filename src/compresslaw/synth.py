"""Synthetic experiment generation: the validation oracle for the regression engine.

Records are generated on the Cartesian grid ``l0_values x r_values x
d_values`` (in that lexicographic order) from a known truth law, with
optional Gaussian noise added in log space (multiplicative on the observed
value), matching the regression's noise model.

Each grid axis is checked, when the config is built, by the ``laws`` check that
also checks the ``frontier`` grid's axis.  Nothing is meshed: the grid's log
predictions come from ``laws._grid_log_predictions``, the one grid predictor
that ``frontier`` shares, in :func:`~compresslaw.laws.evaluate`'s order, and
the records are the grid table that both build, with one-value columns of the
model id and the metric before the axes and the observed ``l``.  A noise-free
``l`` equals ``evaluate`` at its point bit for bit, and the first value out of
range is ``evaluate``'s :class:`~compresslaw.errors.DomainError`.  Noise is
one IEEE addition per grid point, of a deviate drawn for it.  The rank check
of the grid's three-column design comes after the values, so a point out of
range gets ``evaluate``'s error first, and it reads only the axes' features: a
Cartesian grid's design has the singular values of a ``4 x 3`` matrix of the
axes' means and spreads.

Determinism contract: the generator is NumPy's PCG64 via
``numpy.random.default_rng(seed)``, drawing one standard-normal deviate per
grid point in row order.  The seed is an ``int >= 0``, never ``None`` (which
would draw from OS entropy), so identical ``SyntheticConfig`` values
produce bit-identical records.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, SingularDesignError
from .laws import CompressionLaw, ExperimentRecord, Table, _grid_log_predictions, _grid_table, _require_axis
from .laws import _require_count, _require_instance, _require_law, _require_text, _value_type, log_feature_columns
from .laws import require_nonnegative
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


_require_config = _require_instance(SyntheticConfig, "a SyntheticConfig")


def _grid_condition(features: tuple) -> float:
    """``cond`` of the meshed ``N x 3`` design of a grid whose axes have these features, from the axes alone.
    Centred, the design's columns are orthogonal to each other and to the ones vector, so its singular values are
    ``sqrt(N)`` times those of each axis's mean feature over the diagonal of their standard deviations.  The
    features are finite: ``generate`` has already rejected a grid whose RFT feature is inf."""
    columns = [np.array(feature) for feature in features]
    return float(np.linalg.cond(np.vstack(([c.mean() for c in columns], np.diag([c.std() for c in columns])))))


def generate(config: SyntheticConfig) -> Table:
    """Draw one record per grid point from the truth law, as a :class:`~compresslaw.laws.Table` of the three
    axes, the observed ``l`` and one-value columns of the model id and the metric.

    The observed value is ``exp(alpha*log l0 + beta*log(1+r) +
    gamma*log(1 + 1/(d+epsilon)) + z)`` with ``z ~ N(0, noise_std**2)``.

    Raises:
        SingularDesignError: When the grid cannot support a full-rank
            three-column design (e.g. constant ``l0 = 1`` with a constant
            ``d`` axis).
        DomainError: A ``config`` that is not a :class:`SyntheticConfig`, or a value that overflows or underflows
            the finite positive range, checked before the rank.
    """
    law, axes = _require_config("config", config).truth, (config.l0_values, config.r_values, config.d_values)
    log_l = _grid_log_predictions(law, axes)
    if config.noise_std > 0:
        noise = np.random.default_rng(config.seed).normal(0.0, config.noise_std, size=len(log_l))
        log_l = (np.fromiter(log_l, float, len(log_l)) + noise).tolist()
    # Built first: a point out of range, such as one whose RFT feature is inf, is evaluate's error.
    records = _grid_table(ExperimentRecord, axes, log_l, ((config.model_id,), (law.metric,)))
    if not _grid_condition(log_feature_columns(*axes, law.epsilon)) <= CONDITION_NUMBER_LIMIT:
        raise SingularDesignError("grid is rank deficient for the full three-column design")
    return records
