"""Named parameter sets used in tests and demos.

All presets validate; ``cantor_family(1/3, 0)`` is the classical Cantor
function, ``counterexample(d)`` is continuous, passes every necessary
nondecreasing condition, yet decreases (f(4/9) = 1/2 - d/6 < f(1/3) = 1/2).
"""

from __future__ import annotations

import inspect
from typing import Sequence

from .errors import BadPresetParams
from .params import SimilaritySystem


def characteristic(zeta: float, xi: float) -> SimilaritySystem:
    """Indicator of the interval (zeta, xi): jumps of height 1 at both ends."""
    if not 0.0 < zeta < xi < 1.0:
        raise BadPresetParams(f"need 0 < zeta < xi < 1, got {zeta}, {xi}")
    return SimilaritySystem(
        a=(zeta, xi - zeta, 1.0 - xi),
        c=(0.0, 0.0, 0.0),
        d=(0.0, 0.0, 0.0),
        beta=(0.0, 1.0, 0.0),
    )


def step(alpha: Sequence[float], s: Sequence[float]) -> SimilaritySystem:
    """Step function with value s_k on [alpha_k, alpha_{k+1})."""
    alpha = [float(v) for v in alpha]
    s = [float(v) for v in s]
    if len(alpha) != len(s) + 1:
        raise BadPresetParams("need len(alpha) = len(s) + 1")
    if alpha[0] != 0.0 or alpha[-1] != 1.0:
        raise BadPresetParams("alpha must start at 0 and end at 1")
    a = [alpha[k + 1] - alpha[k] for k in range(len(s))]
    if any(ak <= 0.0 for ak in a):
        raise BadPresetParams("alpha must be strictly increasing")
    n = len(s)
    return SimilaritySystem(a=a, c=(0.0,) * n, d=(0.0,) * n, beta=tuple(s))


def identity2() -> SimilaritySystem:
    """f(x) = x from two equal branches."""
    return SimilaritySystem(a=(0.5, 0.5), c=(0.5, 0.5), d=(0.0, 0.0), beta=(0.0, 0.5))


def identity3() -> SimilaritySystem:
    """f(x) = x from three equal branches (beta_k = alpha_k, c_k = a_k)."""
    third = 1.0 / 3.0
    return SimilaritySystem(
        a=(third, third, third),
        c=(third, third, third),
        d=(0.0, 0.0, 0.0),
        beta=(0.0, third, 2.0 * third),
    )


def cantor_family(a: float, delta: float) -> SimilaritySystem:
    """Two-parameter continuous family; a = 1/3, delta = 0 is the Cantor
    function.  D = 1 + 4*delta, so delta > 0 gives unbounded variation.
    """
    if not 0.0 < a < 0.5:
        raise BadPresetParams(f"need a in (0, 1/2), got {a}")
    if not 0.0 <= delta < 1.0 / 3.0:
        raise BadPresetParams(f"need delta in [0, 1/3), got {delta}")
    d1 = 0.5 + delta
    return SimilaritySystem(
        a=(a, 1.0 - 2.0 * a, a),
        c=(0.0, 0.0, 0.0),
        d=(d1, -2.0 * delta, d1),
        beta=(0.0, d1, d1 - 2.0 * delta),
    )


def counterexample(d: float) -> SimilaritySystem:
    """Continuous non-monotone system meeting all necessary conditions."""
    if not 0.0 < d < 1.0:
        raise BadPresetParams(f"need d in (0, 1), got {d}")
    third = 1.0 / 3.0
    return SimilaritySystem(
        a=(third, third, third),
        c=(0.0, d, 0.0),
        d=(0.5, -d, 0.5),
        beta=(0.0, 0.5, 0.5),
    )


def bernoulli(w: float) -> SimilaritySystem:
    """CDF of the Bernoulli-type measure with weights (w, 1-w) on halves."""
    if not 0.0 < w < 1.0:
        raise BadPresetParams(f"need w in (0, 1), got {w}")
    return SimilaritySystem(a=(0.5, 0.5), c=(0.0, 0.0), d=(w, 1.0 - w), beta=(0.0, w))


PRESET_NAMES = (
    "characteristic",
    "step",
    "identity2",
    "identity3",
    "cantor_family",
    "counterexample",
    "bernoulli",
)

# the presets that take a fixed list of numbers, by name
_FIXED_ARITY = {
    f.__name__: f
    for f in (characteristic, identity2, identity3, cantor_family, counterexample, bernoulli)
}


def build_preset(name: str, values: Sequence[float] = ()) -> SimilaritySystem:
    """Instantiate a preset by its stable CLI name.

    values supplies the numeric parameters: characteristic(zeta, xi),
    cantor_family(a, delta), counterexample(d), bernoulli(w); step takes the
    flattened list alpha_1..alpha_{n+1}, s_1..s_n.
    """
    values = [float(v) for v in values]
    if name == "step":
        if len(values) < 3 or len(values) % 2 != 1:
            raise BadPresetParams("step needs alpha_1..alpha_{n+1}, s_1..s_n")
        n = len(values) // 2
        return step(values[: n + 1], values[n + 1 :])
    build = _FIXED_ARITY.get(name)
    if build is None:
        raise BadPresetParams(f"unknown preset {name!r}; known: {', '.join(PRESET_NAMES)}")
    params = list(inspect.signature(build).parameters)
    if len(values) != len(params):
        need = f"needs {', '.join(params)}" if params else "takes no parameters"
        raise BadPresetParams(f"{name} {need}")
    return build(*values)
