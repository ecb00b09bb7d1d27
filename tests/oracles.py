"""Dense reference implementations that the structured library code is checked against."""

import numpy as np

from kmaxent.covariance import TimeSeries


def lagged_design(y: TimeSeries, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows [y_{t-1} ... y_{t-n}] and targets y_t for t = n+1..N."""
    s = y.samples
    windows = np.lib.stride_tricks.sliding_window_view(s, n)[:-1]
    return np.ascontiguousarray(windows[:, ::-1]), s[n:]
