"""Estimator-style wrappers so the packers compose with sklearn pipelines.

fit() consumes a radius sequence (1-D array-like) and stores the packing;
transform() returns the placed circles as an (n, 3) array of x, y, r.
The classes follow the sklearn parameter protocol (get_params/set_params)
without importing sklearn.
"""

from __future__ import annotations

import numbers

from .containers import pack_rect_online, pack_square_online
from .geometry import EPS


def _as_radii(X) -> list[float]:
    import numpy as np

    arr = np.asarray(X, dtype=float).ravel()
    if arr.size and (not np.all(np.isfinite(arr)) or np.any(arr <= 0)):
        raise ValueError("radii must be positive finite numbers")
    return [float(r) for r in arr]


class _BasePacker:
    _param_names: tuple[str, ...] = ()

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params):
        for name, value in params.items():
            if name not in self._param_names:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}")
            setattr(self, name, value)
        return self

    def _store(self, result):
        import numpy as np

        self.result_ = result
        self.placements_ = np.array(
            [[c.x, c.y, c.r] for c in result.placements]).reshape(-1, 3)
        self.status_ = result.status
        self.n_packed_ = len(result.placements)
        return self

    def fit(self, X, y=None):
        raise NotImplementedError

    def transform(self, X=None):
        if not hasattr(self, "result_"):
            raise AttributeError("packer is not fitted yet; call fit first")
        if X is not None:
            self.fit(X)
        return self.placements_

    def fit_transform(self, X, y=None):
        return self.fit(X).transform()

    def predict(self, X):
        """True iff the whole sequence packs without rejection."""
        return self.fit(X).status_ == "all_packed"


class RectanglePacker(_BasePacker):
    """Online packer for a 1 x b rectangle."""

    _param_names = ("b", "eps")

    def __init__(self, b: float = 1.0, eps: float = EPS):
        self.b = b
        self.eps = eps

    def fit(self, X, y=None):
        if not (isinstance(self.b, numbers.Real) and self.b >= 1):
            raise ValueError(f"b must be a real number >= 1, got {self.b}")
        return self._store(pack_rect_online(self.b, _as_radii(X),
                                            eps=self.eps))


class SquarePacker(_BasePacker):
    """Online packer for the unit square."""

    _param_names = ("mode", "eps")

    def __init__(self, mode: str = "general", eps: float = EPS):
        self.mode = mode
        self.eps = eps

    def fit(self, X, y=None):
        return self._store(pack_square_online(self.mode, _as_radii(X),
                                              eps=self.eps))
