"""Data preprocessing for the anomaly detectors (Section IV-B).

Two steps, exactly as in the paper:

1. **Data format transformation** -- only the sign and exponent bits of each
   float64 state are kept, packed into a 16-bit integer.  Mantissa
   corruptions barely change the value and are deliberately ignored, which
   keeps the detectors cheap and focuses them on the bit fields that actually
   endanger the vehicle (Section III-B).
2. **Delta calculation** -- the detectors operate on the change of the
   transformed value between consecutive time points, because the vehicle's
   motion is continuous and the delta distribution is close to Gaussian with
   a much smaller range than the raw values.
"""

from __future__ import annotations

import math
import struct
from typing import Dict, Iterable, List, Optional

#: Exponent values below this bias (i.e. magnitudes below roughly 1e-7) are
#: treated as zero, so that the transform is smooth through zero and tiny
#: numerical noise does not masquerade as a large state change.
EXPONENT_BIAS = 1000

#: Largest magnitude of the transformed representation (11 exponent bits
#: minus the bias).
TRANSFORM_RANGE = 2047 - EXPONENT_BIAS


def sign_exponent_int16(value: float) -> int:
    """Transform a float64 into its signed-exponent 16-bit representation.

    The result is ``sign(value) * max(exponent_field(value) - EXPONENT_BIAS, 0)``
    where the exponent field is the raw 11-bit biased exponent of the IEEE-754
    double.  Keeping only the sign and exponent (never the mantissa) follows
    Section IV-B of the paper; the bias/clamp is a small refinement so that
    physically-zero states (a velocity crossing 0, an exactly-zero way-point
    coordinate) do not produce huge spurious transitions: every magnitude below
    about 1e-7 maps to 0, and the mapping stays monotonic and logarithmic above
    that.  NaN maps to the maximum magnitude so that a corrupted NaN is always
    an outlier.
    """
    v = float(value)
    if math.isnan(v):
        return TRANSFORM_RANGE
    (bits,) = struct.unpack("<Q", struct.pack("<d", v))
    exponent = (bits >> 52) & 0x7FF
    sign = -1 if (bits >> 63) & 0x1 else 1
    return int(sign * max(exponent - EXPONENT_BIAS, 0))


class DataPreprocessor:
    """Stateful transform + delta computation over named features.

    ``update(feature, value)`` returns the delta of the transformed value with
    respect to the previous sample of that feature, or ``None`` for the very
    first sample.  ``reset_feature`` clears the history of selected features
    (used at trajectory-message boundaries so that way-point deltas are
    computed within one trajectory rather than across re-plans).
    """

    def __init__(self) -> None:
        self._previous: Dict[str, int] = {}

    def update(self, feature: str, value: float) -> Optional[int]:
        """Feed one sample; return the transformed delta (or ``None`` if first)."""
        transformed = sign_exponent_int16(value)
        previous = self._previous.get(feature)
        self._previous[feature] = transformed
        if previous is None:
            return None
        return transformed - previous

    def update_many(self, sample: Dict[str, float]) -> Dict[str, int]:
        """Feed a dict of feature samples; returns the deltas that exist."""
        deltas: Dict[str, int] = {}
        for feature, value in sample.items():
            delta = self.update(feature, value)
            if delta is not None:
                deltas[feature] = delta
        return deltas

    def reset_feature(self, features: Iterable[str]) -> None:
        """Forget the previous sample of the given features."""
        for feature in features:
            self._previous.pop(feature, None)

    def reset(self) -> None:
        """Forget all history (between missions)."""
        self._previous.clear()

    def known_features(self) -> List[str]:
        """Features that have received at least one sample."""
        return sorted(self._previous)
