"""Synthetic experiment generation: the validation oracle for the regression engine.

Records are generated on the Cartesian grid ``l0_values x r_values x
d_values`` (in that lexicographic order) from a known truth law, with
optional Gaussian noise added in log space (multiplicative on the observed
value), matching the regression's noise model.

Determinism contract: the generator is NumPy's PCG64 via
``numpy.random.default_rng(seed)``, drawing one standard-normal deviate per
grid point in row order.  Identical ``SyntheticConfig`` values therefore
produce bit-identical records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SingularDesignError
from .laws import CompressionLaw, log_feature_columns, require_nonnegative, require_positive, require_ratio
from .regression import CONDITION_NUMBER_LIMIT, RecordBatch

__all__ = ["SyntheticConfig", "generate"]


def _as_tuple(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class SyntheticConfig:
    """Grid, truth law, noise level and seed for one synthetic experiment."""

    truth: CompressionLaw
    l0_values: tuple[float, ...]
    r_values: tuple[float, ...]
    d_values: tuple[float, ...]
    noise_std: float = 0.0
    seed: int = 0
    model_id: str = "synthetic"

    def __post_init__(self) -> None:
        object.__setattr__(self, "l0_values", _as_tuple(self.l0_values))
        object.__setattr__(self, "r_values", _as_tuple(self.r_values))
        object.__setattr__(self, "d_values", _as_tuple(self.d_values))
        if not (self.l0_values and self.r_values and self.d_values):
            raise DomainError("all three grid axes must be nonempty")
        for l0 in self.l0_values:
            require_positive("l0", l0)
        for r in self.r_values:
            require_ratio(r)
        for d in self.d_values:
            require_nonnegative("d", d)
        if len(set(self.r_values)) + len(set(self.d_values)) < 3:
            raise DomainError("need at least 3 distinct values across the r and d grids for a full-rank design")
        require_nonnegative("noise_std", self.noise_std)


def generate(config: SyntheticConfig) -> RecordBatch:
    """Draw one record per grid point from the truth law, as a :class:`~compresslaw.regression.RecordBatch`.

    The observed value is ``exp(alpha*log l0 + beta*log(1+r) +
    gamma*log(1 + 1/(d+epsilon)) + z)`` with ``z ~ N(0, noise_std**2)``;
    the design comes from :func:`~compresslaw.laws.log_feature_columns`.

    Raises:
        SingularDesignError: When the grid cannot support a full-rank
            three-column design (e.g. constant ``l0 = 1`` with a constant
            ``d`` axis).
    """
    law = config.truth
    l0, r, d = (axis.ravel() for axis in np.meshgrid(config.l0_values, config.r_values, config.d_values, indexing="ij"))
    design = np.column_stack(log_feature_columns(l0.tolist(), r.tolist(), d.tolist(), law.epsilon))
    n = len(design)
    # With fewer than 3 rows cond() measures only the rows' span, not all three columns.
    if n < 3 or not np.linalg.cond(design) <= CONDITION_NUMBER_LIMIT:
        raise SingularDesignError("grid is rank deficient for the full three-column design")

    rng = np.random.default_rng(config.seed)
    noise = rng.normal(0.0, config.noise_std, size=n) if config.noise_std > 0 else np.zeros(n)

    log_mean = design @ np.array([law.alpha, law.beta, law.gamma])
    l = np.array(list(map(math.exp, (log_mean + noise).tolist())))
    if not (l > 0.0).all():
        require_positive("l", l.min())
    return RecordBatch([config.model_id] * n, [law.metric] * n, l0, r, d, l)
