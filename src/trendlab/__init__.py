"""Two-stage trend detection and backtesting on daily OHLCV bars.

The command line lives in ``trendlab.cli``, which this package does not
import, so ``python -m trendlab.cli`` runs it as a fresh ``__main__``.
"""

from . import evaluation, features, gbdt, labels, market_data, pipeline, synth
from .errors import TrendlabError

__version__ = "0.1.0"

__all__ = [
    "TrendlabError",
    "__version__",
    "evaluation",
    "features",
    "gbdt",
    "labels",
    "market_data",
    "pipeline",
    "synth",
]
