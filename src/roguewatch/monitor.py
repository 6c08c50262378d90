"""Per-role success-probability monitors.

Pipeline: min-max normalize the selected features to [-1, 1] using bounds
fitted on the training rows only (out-of-range values extrapolate, no
clamping), expand into all monomials up to the chosen total degree (cross
terms and intercept included), and fit ridge regression with an unpenalized
intercept against the 0/1 game-success labels. The trigger threshold tau
and the (feature subset, degree) cell are selected by exhaustive search on
validation gain. The turn count is always part of the input.

Fitting, the tau search and live play compute a turn's output in one routine
(``_scaled``, then ``_terms``), so the tau and gain train-monitor reports
come from the scores a run triggers on. A grid search expands the training
split once, over every statistic at the top degree, and fits each cell from a
slice. Products, sums and the solve are elementwise numpy with no BLAS or
LAPACK call, so the BLAS thread count cannot change a fitted monitor's bytes.

Only fitting and the grid search import numpy, each inside its function.
Loading and scoring a monitor stay pure Python, so a command that never
fits one does not pay numpy's import time and memory.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import random
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional, Sequence

from .core import integer, items, number, one_of, pair, string
from .errors import InsufficientDataError, SingularSystemError
from .uncertainty import FeatureVector

if TYPE_CHECKING:
    import numpy as np

STATISTIC_NAMES = ("entropy", "varentropy", "kurtosis")

DEFAULT_ALPHA = 1.0
DEFAULT_TAUS = tuple(i / 100.0 for i in range(101))
DEGREES = (1, 2, 3, 4, 5)
# The 7 non-empty statistic subsets, smallest first, in a fixed order.
FEATURE_MASKS = tuple(
    mask for size in (1, 2, 3) for mask in itertools.combinations(STATISTIC_NAMES, size)
)


@dataclass(frozen=True)
class GameRecord:
    """One game of a role: its monitored-turn features and outcome. Training
    rows are the turns of such games, each labeled with its game's outcome."""

    features: tuple[FeatureVector, ...]
    label: bool
    game_id: str = ""


@functools.lru_cache(maxsize=None)
def _inputs(mask: tuple[str, ...]) -> Callable[[FeatureVector], tuple]:
    """Reads a turn's raw monitor inputs: the masked statistics, then the
    turn index."""
    return operator.attrgetter(*(f"max_{name}" for name in mask), "turn_index")


@functools.lru_cache(maxsize=64)
def _monomials(n_inputs: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Exponent table of every monomial up to ``degree``, intercept first.
    Cached because per-turn scoring asks for it on every call; the grid
    uses 15 (inputs, degree) pairs."""
    terms: list[tuple[int, ...]] = []
    for d in range(degree + 1):
        terms.extend(itertools.combinations_with_replacement(range(n_inputs), d))
    return tuple(terms)


def _scaled(inputs: Sequence, bounds: Sequence[tuple[float, float]]) -> list:
    """Each input, a float or a numpy column, min-max scaled to [-1, 1] by its
    (lo, hi) bounds; equal bounds give 0.0, and values outside extrapolate."""
    pairs = zip(inputs, bounds)
    return [0.0 if hi == lo else -1.0 + 2.0 * (x - lo) / (hi - lo) for x, (lo, hi) in pairs]


def _terms(scaled: Sequence, degree: int, leads: Iterable) -> Iterator:
    """Each monomial of ``scaled`` up to ``degree``, in ``_monomials`` order, as its
    lead times its factors, left to right: its weight for a score, 1.0 for a design column."""
    for lead, term in zip(leads, _monomials(len(scaled), degree)):
        for index in term:
            lead = lead * scaled[index]
        yield lead


def _output(scaled: Sequence, weights: Sequence[float], degree: int) -> float | np.ndarray:
    """The unclamped ridge output: the weighted monomials summed left to right."""
    total = 0.0
    for term in _terms(scaled, degree, weights):
        total += term
    return total


def design_matrix(
    raw: np.ndarray, bounds: Sequence[tuple[float, float]], degree: int
) -> np.ndarray:
    """Each monomial up to ``degree`` of the columns of ``raw`` scaled by
    ``bounds``. The result is column-major: each monomial's column is
    contiguous, and ``.T`` holds them as rows without a copy."""
    import numpy as np

    scaled = _scaled(raw.T, bounds)
    columns = np.empty((len(_monomials(len(scaled), degree)), len(raw)))
    for column, term in zip(columns, _terms(scaled, degree, itertools.repeat(1.0))):
        column[...] = term
    return columns.T


def _raw_table(games: Sequence[GameRecord], mask: tuple[str, ...]) -> np.ndarray:
    """One row of raw inputs per turn of ``games``, in game order."""
    import numpy as np

    read = _inputs(mask)
    rows = [read(fv) for game in games for fv in game.features]
    return np.array(rows, dtype=float).reshape(len(rows), len(mask) + 1)


@dataclass(frozen=True)
class MonitorModel:
    """A fitted monitor: normalization bounds, polynomial ridge weights,
    and (after selection) the trigger threshold tau."""

    role: str
    feature_mask: tuple[str, ...]
    degree: int
    normalization: tuple[tuple[float, float], ...]
    weights: tuple[float, ...]
    tau: Optional[float] = None
    validation_gain: Optional[float] = None

    def linear_output(self, features: FeatureVector) -> float:
        """Unclamped ridge output; predict_success clamps this to [0, 1]."""
        scaled = _scaled(_inputs(self.feature_mask)(features), self.normalization)
        return _output(scaled, self.weights, self.degree)

    def predict_success(self, features: FeatureVector) -> float:
        return min(1.0, max(0.0, self.linear_output(features)))

    def to_json_obj(self) -> dict:
        return {
            "role": self.role,
            "feature_mask": list(self.feature_mask),
            "degree": self.degree,
            "normalization": [list(pair) for pair in self.normalization],
            "weights": list(self.weights),
            "tau": self.tau,
            "validation_gain": self.validation_gain,
        }

    @classmethod
    def from_json_obj(cls, obj: dict) -> "MonitorModel":
        """A monitor from a file's object, each value read by its key: a mask
        of distinct statistics, a degree in ``DEGREES``, one normalization
        pair [lo, hi] per input and one finite weight per monomial."""
        names = items("feature_mask", obj["feature_mask"])
        mask = tuple(one_of("feature_mask", name, STATISTIC_NAMES) for name in names)
        if not mask or len(set(mask)) < len(mask):
            raise ValueError(f"feature_mask: {names!r} is not a non-empty list of distinct names")
        degree = one_of("degree", integer("degree", obj["degree"]), DEGREES)
        inputs, terms = len(mask) + 1, len(_monomials(len(mask) + 1, degree))
        bounds = items("normalization", obj["normalization"], inputs, f"a list of {inputs} pairs")
        weights = items("weights", obj["weights"], terms, f"a list of {terms} numbers")
        optional = lambda key: None if obj[key] is None else number(key, obj[key])
        return cls(
            role=string("role", obj["role"]),
            feature_mask=mask,
            degree=degree,
            normalization=tuple(pair(f"normalization[{i}]", p) for i, p in enumerate(bounds)),
            weights=tuple(number(f"weights[{i}]", w) for i, w in enumerate(weights)),
            tau=optional("tau"),
            validation_gain=optional("validation_gain"),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


# The inputs and degree of the training design a grid search builds.
FULL_MASK = STATISTIC_NAMES
TOP_DEGREE = DEGREES[-1]


def _input_indices(mask: tuple[str, ...]) -> list[int]:
    """Where a cell's inputs (its statistics, then the turn index) sit
    among the full-mask inputs."""
    return [FULL_MASK.index(name) for name in mask] + [len(FULL_MASK)]


@functools.lru_cache(maxsize=None)
def _columns(mask: tuple[str, ...], degree: int) -> np.ndarray:
    """Where each monomial of a (mask, degree) cell sits among the
    full-mask, top-degree monomials. For a mask in ``FULL_MASK`` order (as
    every grid mask is) the cell's inputs keep their order among the full
    inputs, so a cell term is the full term with the same factors
    multiplied in the same order and its design column is the full column
    bit for bit."""
    import numpy as np

    inputs = _input_indices(mask)
    full = {term: j for j, term in enumerate(_monomials(len(FULL_MASK) + 1, TOP_DEGREE))}
    columns = np.array(
        [full[tuple(sorted(inputs[i] for i in term))] for term in _monomials(len(inputs), degree)]
    )
    columns.flags.writeable = False
    return columns


@dataclass(frozen=True, eq=False)
class NormalSystem:
    """The ridge normal equations of the full-mask, top-degree design over
    the turns of the training games; every grid cell's system is a slice.

    ``columns`` is that design transposed, one row per monomial. Each gram
    and right-hand-side entry is the elementwise product of its own two
    rows summed by numpy, so it depends on nothing else: not on which cell
    slices it, nor on a BLAS thread count.
    """

    normalization: tuple[tuple[float, float], ...]  # each statistic, then the turn index
    columns: np.ndarray
    gram: np.ndarray
    rhs: np.ndarray

    @classmethod
    def from_games(cls, train: Sequence[GameRecord]) -> "NormalSystem":
        import numpy as np

        raw = _raw_table(train, FULL_MASK)
        if not raw.shape[0]:
            raise InsufficientDataError("no monitored turns in the training games")
        bounds = tuple((float(lo), float(hi)) for lo, hi in zip(raw.min(axis=0), raw.max(axis=0)))
        columns = design_matrix(raw, bounds, TOP_DEGREE).T
        labels = np.array([float(game.label) for game in train for _ in game.features])
        gram = np.empty((len(columns), len(columns)))
        for i, column in enumerate(columns):
            gram[i, i:] = gram[i:, i] = (column * columns[i:]).sum(axis=1)
        return cls(bounds, columns, gram, (columns * labels).sum(axis=1))


def _cholesky_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for symmetric positive definite ``a`` (a ridge
    system with ``alpha > 0``, or a full-rank one with ``alpha == 0``).
    Every inner product is an elementwise multiply and a numpy ``sum``, so
    the bits do not depend on a BLAS or LAPACK build or thread count."""
    import numpy as np

    n = len(b)
    lower = np.zeros((n, n))
    for j in range(n):
        pivot = a[j, j] - (lower[j, :j] * lower[j, :j]).sum()
        if not pivot > 0.0:
            raise SingularSystemError("ridge system is not positive definite")
        lower[j, j] = math.sqrt(pivot)
        below = a[j + 1 :, j] - (lower[j + 1 :, :j] * lower[j, :j]).sum(axis=1)
        lower[j + 1 :, j] = below / lower[j, j]
    z = np.zeros(n)
    for i in range(n):
        z[i] = (b[i] - (lower[i, :i] * z[:i]).sum()) / lower[i, i]
    x = np.zeros(n)
    for i in reversed(range(n)):
        x[i] = (z[i] - (lower[i + 1 :, i] * x[i + 1 :]).sum()) / lower[i, i]
    return x


def fit_monitor(
    system: NormalSystem,
    feature_mask: Sequence[str],
    degree: int,
    alpha: float = DEFAULT_ALPHA,
    role: str = "",
) -> MonitorModel:
    """Fit one (mask, degree) cell on the training turns behind ``system``,
    from the slice of its gram and right-hand side. No threshold yet."""
    import numpy as np

    if degree not in DEGREES:
        raise ValueError(f"degree must be in {DEGREES}")
    mask = tuple(feature_mask)
    columns = _columns(mask, degree)
    if alpha == 0.0 and np.linalg.matrix_rank(system.columns[columns].T) < len(columns):
        raise SingularSystemError("rank-deficient design with alpha=0")
    gram = system.gram[np.ix_(columns, columns)]
    penalized = np.arange(1, len(columns))  # the intercept term () comes first, unpenalized
    gram[penalized, penalized] += alpha
    weights = _cholesky_solve(gram, system.rhs[columns])
    return MonitorModel(
        role=role,
        feature_mask=mask,
        degree=degree,
        normalization=tuple(system.normalization[i] for i in _input_indices(mask)),
        weights=tuple(float(w) for w in weights),
    )


def _best_tau(
    scores: np.ndarray, validation: Sequence[GameRecord], taus: Sequence[float]
) -> tuple[float, float]:
    """The gain-maximizing tau in ``taus`` (the first best wins ties) and its
    gain, from one score per monitored turn of ``validation`` in game order.

    A game triggers when any of its monitored turns scores below tau. The
    gain is the net correctly-vs-falsely triggered game percentage: a
    failed game counts for the monitor when it triggers, a successful game
    against it.
    """
    import numpy as np

    counts = np.array([len(game.features) for game in validation])
    played = counts > 0
    minima = np.full(len(validation), math.inf)
    minima[played] = np.minimum.reduceat(scores, (np.cumsum(counts) - counts)[played])
    signs = np.array([-1 if game.label else 1 for game in validation])
    net = ((minima < np.array(taus)[:, None]) * signs).sum(axis=1)
    best = int(np.argmax(net))
    return taus[best], 100.0 * int(net[best]) / len(validation)


def _best_threshold(
    model: MonitorModel, scaled: list, validation: Sequence[GameRecord], taus: Sequence[float]
) -> MonitorModel:
    """``model`` with the ``_best_tau`` of the live scores from its ``_scaled`` inputs."""
    import numpy as np

    turns = sum(len(game.features) for game in validation)  # constant inputs give one float
    output = np.broadcast_to(_output(scaled, model.weights, model.degree), turns)
    tau, gain = _best_tau(np.clip(output, 0.0, 1.0), validation, taus)
    return replace(model, tau=tau, validation_gain=gain)


def grid_search_ranked(
    train: Sequence[GameRecord],
    validation: Sequence[GameRecord],
    alpha: float = DEFAULT_ALPHA,
    role: str = "",
) -> list[MonitorModel]:
    """Every (degree, feature subset) cell with its best tau, ranked by
    validation gain. Ties break toward lower degree, fewer features, lower
    tau, and finally the fixed mask order, so the ranking is deterministic.

    Each split is read into one raw table: the training one is expanded
    once and the validation one scaled once, and every cell slices both.
    """
    if not any(game.features for game in train) or not validation:
        raise InsufficientDataError("need non-empty train and validation sets")
    system = NormalSystem.from_games(train)
    scaled = _scaled(_raw_table(validation, FULL_MASK).T, system.normalization)
    candidates: list[MonitorModel] = []
    for degree in DEGREES:
        for mask in FEATURE_MASKS:
            model = fit_monitor(system, mask, degree, alpha=alpha, role=role)
            cell = [scaled[i] for i in _input_indices(mask)]
            candidates.append(_best_threshold(model, cell, validation, DEFAULT_TAUS))
    candidates.sort(key=lambda m: (-m.validation_gain, m.degree, len(m.feature_mask), m.tau))
    return candidates


def grid_search(
    train: Sequence[GameRecord],
    validation: Sequence[GameRecord],
    alpha: float = DEFAULT_ALPHA,
    role: str = "",
) -> MonitorModel:
    """The validation-gain-maximizing monitor over the full grid."""
    return grid_search_ranked(train, validation, alpha=alpha, role=role)[0]


class RandomMonitor:
    """Baseline that triggers i.i.d. with probability p on monitored turns.

    Its score is a fresh uniform draw that ignores the features, and its
    tau is p, so ``predict_success(features) < tau`` holds with probability
    p and the same budget gate serves it and fitted monitors.
    """

    def __init__(self, p: float, seed: int) -> None:
        self.tau = p
        self._rng = random.Random(seed)

    def predict_success(self, features: Optional[FeatureVector]) -> float:
        return self._rng.random()

