"""Piecewise-linear functions on [0,1] with one-sided values at breakpoints.

A function is stored as breakpoints x[0] = 0 < ... < x[M] = 1 together with
left-limit values yl and right-limit values yr at every breakpoint.  On the
open piece (x[i], x[i+1]) the function is the affine segment joining yr[i]
to yl[i+1]; jumps (yl != yr) are allowed at interior breakpoints.  yl[0] and
yr[M] are conventions (set equal to their one-sided partners).
"""

from __future__ import annotations

import numpy as np

from .errors import NonFinite, SelfSimError

# Adjacent pieces are merged when the junction carries no jump and the slopes
# agree to this relative tolerance (rounding scale for exactly collinear data).
_MERGE_SLOPE_TOL = 1e-13

# Pieces per block in the blocked loops over large arrays (merged, and the
# L_p integrator): a block's temporaries stay in cache and are reused by the
# allocator, where full-size ones are returned to the kernel and fault in
# fresh pages on every call.
_BLOCK = 8192


class PiecewiseLinearFn:
    __slots__ = ("x", "yl", "yr")

    def __init__(self, x, yl, yr=None, _trusted=False):
        x = np.asarray(x, dtype=float)
        yl = np.asarray(yl, dtype=float)
        yr = yl if yr is None else np.asarray(yr, dtype=float)
        if not _trusted:
            if x.ndim != 1 or x.size < 2:
                raise SelfSimError("need at least two breakpoints")
            if not (np.isfinite(x).all() and np.isfinite(yl).all() and np.isfinite(yr).all()):
                raise NonFinite("breakpoints and values must be finite")
            if x[0] != 0.0 or x[-1] != 1.0:
                raise SelfSimError("breakpoints must start at 0 and end at 1")
            if np.any(np.diff(x) <= 0.0):
                raise SelfSimError("breakpoints must be strictly increasing")
            if yl.shape != x.shape or yr.shape != x.shape:
                raise SelfSimError("value arrays must match breakpoints")
            yl = yl.copy()
            yr = yr.copy()
            yl[0] = yr[0]
            yr[-1] = yl[-1]
        self.x = x
        self.yl = yl
        self.yr = yr

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls) -> "PiecewiseLinearFn":
        return cls([0.0, 1.0], [0.0, 1.0])

    @property
    def n_pieces(self) -> int:
        return self.x.size - 1

    def slopes(self) -> np.ndarray:
        return (self.yl[1:] - self.yr[:-1]) / (self.x[1:] - self.x[:-1])

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _piece_index(self, t: np.ndarray, side: str) -> np.ndarray:
        # piece i covers (x[i], x[i+1]); side decides which piece owns a
        # breakpoint hit.
        idx = np.searchsorted(self.x, t, side=side) - 1
        return np.clip(idx, 0, self.n_pieces - 1)

    def value_right(self, t) -> np.ndarray:
        """Right-limit values f(t+0) (at t = 1: the left limit)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        i = self._piece_index(t, "right")
        s = (self.yl[i + 1] - self.yr[i]) / (self.x[i + 1] - self.x[i])
        return self.yr[i] + s * (t - self.x[i])

    def value_left(self, t) -> np.ndarray:
        """Left-limit values f(t-0) (at t = 0: the right limit)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        i = self._piece_index(t, "left")
        s = (self.yl[i + 1] - self.yr[i]) / (self.x[i + 1] - self.x[i])
        return self.yl[i + 1] + s * (t - self.x[i + 1])

    def __call__(self, t) -> np.ndarray:
        return self.value_right(t)

    # ------------------------------------------------------------------
    # simplification
    # ------------------------------------------------------------------
    def merged(self) -> "PiecewiseLinearFn":
        """Drop interior breakpoints where the function continues collinearly.

        A breakpoint is dropped when it carries no jump (yl == yr) and the
        slopes s of its two pieces agree: |s_right - s_left| <= 1e-13 *
        max(1, |s_left|, |s_right|).  Every decision reads the slopes of the
        input, so the represented function is unchanged up to rounding of
        the slopes.  When every interior breakpoint carries a jump no slope
        is computed and self is returned.

        The slope test runs over blocks of _BLOCK breakpoints, each
        recomputing the one slope it shares with the next, so its temporaries
        stay in cache instead of faulting in fresh full-size arrays; the
        decisions are those of one full-size pass.
        """
        x, yl, yr = self.x, self.yl, self.yr
        drop = yl[1:-1] == yr[1:-1]
        if not drop.any():
            return self
        # junction j sits between pieces j and j + 1
        for lo in range(0, drop.size, _BLOCK):
            hi = min(lo + _BLOCK, drop.size)
            s = yl[lo + 1 : hi + 2] - yr[lo : hi + 1]
            s /= x[lo + 1 : hi + 2] - x[lo : hi + 1]
            abs_s = np.abs(s)
            scale = np.maximum(abs_s[:-1], abs_s[1:])
            np.maximum(scale, 1.0, out=scale)
            scale *= _MERGE_SLOPE_TOL
            gap = np.subtract(s[1:], s[:-1], out=abs_s[1:])
            drop[lo:hi] &= np.abs(gap, out=gap) <= scale
        if not drop.any():
            return self
        keep = np.ones(x.size, dtype=bool)
        keep[1:-1] = ~drop
        return PiecewiseLinearFn(x[keep], yl[keep], yr[keep], _trusted=True)
