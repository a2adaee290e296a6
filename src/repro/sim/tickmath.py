"""Scalar forms of the numpy calls the per-tick flight loop makes, bit for bit.

The flight loop (20 Hz physics, 10 Hz path tracking, 4 Hz collision check)
works on 3-element vectors, where numpy's per-call overhead costs more than
the arithmetic.  Its code therefore computes with Python floats, which give
the same IEEE-754 results as numpy's element-wise ``+ - * /``, and uses the
helpers below where a numpy call does not reduce to those operations.  Every
campaign record depends on these bits, so that code keeps them:

* a norm is ``sqrt(v.dot(v))`` on a float64 array (:func:`norm`): the dot
  product runs in the BLAS kernel the CPU selects, which may fuse
  multiply-adds, so ``math.hypot`` or ``x*x + y*y + z*z`` can differ in the
  last bit;
* a clip lets NaN through, as ``np.clip`` does (:func:`clip`);
* ``np.sin``, ``np.cos``, ``np.arctan2`` and ``np.exp`` are numpy calls,
  whose SIMD loops can differ from :mod:`math` by one ulp;
* random draws, and the guards against non-finite and huge values, keep
  their place relative to the arithmetic.
"""

from __future__ import annotations

import math

import numpy as np


def norm(v: np.ndarray) -> float:
    """``float(np.linalg.norm(v))`` for a 1-D float64 array, bit for bit."""
    return math.sqrt(v.dot(v))


def clip(x: float, lo: float, hi: float) -> float:
    """``np.clip(x, lo, hi)`` for one float and non-NaN bounds, bit for bit.

    A NaN ``x`` passes through, as in numpy, where ``min(max(x, lo), hi)``
    would return a bound.
    """
    if x != x:
        return x
    x = lo if x < lo else x
    return hi if x > hi else x
