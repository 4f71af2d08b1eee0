"""Principal Components Analysis for workload characterization.

Section 6 situates the paper among "researches applying advanced statistical
methods to characterize computer workloads", citing PCA-based Java workload
characterization [10, 11] and benchmark subsetting [12-14, 19].  This module
provides that companion machinery from scratch:

* :class:`PCA` — eigendecomposition of the correlation/covariance matrix,
* :func:`subset_benchmarks` — the greedy PCA-space subsetting used to pick a
  representative subset of workload configurations (the Eeckhout/
  Vandierendonck methodology applied to our configuration samples).
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

__all__ = ["PCA", "subset_benchmarks"]


class PCA:
    """Principal components via eigendecomposition of the covariance.

    Parameters
    ----------
    n_components:
        Components to keep (all by default).
    correlation:
        Standardize features first (i.e. use the correlation matrix) —
        standard practice in the cited workload-characterization papers
        because raw metrics have incomparable units.
    """

    def __init__(
        self, n_components: Optional[int] = None, correlation: bool = True
    ):
        if n_components is not None and n_components < 1:
            raise ValueError(
                f"n_components must be >= 1, got {n_components}"
            )
        self.n_components = n_components
        self.correlation = bool(correlation)
        self.mean_: Optional[np.ndarray] = None
        self.scale_: Optional[np.ndarray] = None
        self.components_: Optional[np.ndarray] = None  # (k, n_features)
        self.explained_variance_: Optional[np.ndarray] = None
        self.explained_variance_ratio_: Optional[np.ndarray] = None

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self.components_ is not None

    def fit(self, x: np.ndarray) -> "PCA":
        """Compute the principal axes of ``x`` (rows = observations)."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2:
            raise ValueError(f"x must be 2-D, got shape {x.shape}")
        n, d = x.shape
        if n < 2:
            raise ValueError(f"need at least 2 observations, got {n}")
        self.mean_ = x.mean(axis=0)
        if self.correlation:
            std = x.std(axis=0)
            self.scale_ = np.where(std > 0, std, 1.0)
        else:
            self.scale_ = np.ones(d)
        centered = (x - self.mean_) / self.scale_
        covariance = centered.T @ centered / (n - 1)
        eigenvalues, eigenvectors = np.linalg.eigh(covariance)
        order = np.argsort(eigenvalues)[::-1]
        eigenvalues = np.maximum(eigenvalues[order], 0.0)
        eigenvectors = eigenvectors[:, order]
        k = self.n_components if self.n_components is not None else d
        k = min(k, d)
        self.components_ = eigenvectors[:, :k].T
        self.explained_variance_ = eigenvalues[:k]
        total = eigenvalues.sum()
        self.explained_variance_ratio_ = (
            eigenvalues[:k] / total if total > 0 else np.zeros(k)
        )
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Project observations onto the principal axes."""
        if not self.is_fitted:
            raise RuntimeError("transform() called before fit()")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(1, -1)
        if x.shape[1] != self.mean_.size:
            raise ValueError(
                f"fitted on {self.mean_.size} features, got {x.shape[1]}"
            )
        centered = (x - self.mean_) / self.scale_
        return centered @ self.components_.T

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        """``fit(x).transform(x)``."""
        return self.fit(x).transform(x)

    def inverse_transform(self, scores: np.ndarray) -> np.ndarray:
        """Map component scores back to (approximate) feature space."""
        if not self.is_fitted:
            raise RuntimeError("inverse_transform() called before fit()")
        scores = np.asarray(scores, dtype=float)
        if scores.ndim == 1:
            scores = scores.reshape(1, -1)
        return scores @ self.components_ * self.scale_ + self.mean_

    def n_components_for_variance(self, fraction: float) -> int:
        """Smallest component count explaining >= ``fraction`` of variance."""
        if not self.is_fitted:
            raise RuntimeError("called before fit()")
        if not 0 < fraction <= 1:
            raise ValueError(f"fraction must lie in (0, 1], got {fraction}")
        cumulative = np.cumsum(self.explained_variance_ratio_)
        indices = np.nonzero(cumulative >= fraction - 1e-12)[0]
        if indices.size == 0:
            return int(self.explained_variance_ratio_.size)
        return int(indices[0]) + 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PCA(n_components={self.n_components}, "
            f"correlation={self.correlation}, fitted={self.is_fitted})"
        )


def subset_benchmarks(
    features: np.ndarray,
    k: int,
    variance_fraction: float = 0.9,
) -> List[int]:
    """Pick ``k`` maximally-spread representatives in PCA space.

    The benchmark-subsetting recipe of the cited related work: project all
    workloads into the leading principal components (enough to cover
    ``variance_fraction`` of the variance), then greedily choose the ``k``
    points that maximize the minimum pairwise distance — a diverse subset
    that spans the behavior space.  Returns row indices into ``features``.
    """
    features = np.asarray(features, dtype=float)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {features.shape}")
    n = features.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    pca = PCA().fit(features)
    dims = pca.n_components_for_variance(variance_fraction)
    scores = pca.transform(features)[:, :dims]
    # Start from the point farthest from the centroid, then farthest-point
    # (max-min distance) greedy selection.
    centroid = scores.mean(axis=0)
    first = int(np.argmax(np.linalg.norm(scores - centroid, axis=1)))
    chosen = [first]
    while len(chosen) < k:
        distances = np.min(
            np.stack(
                [np.linalg.norm(scores - scores[c], axis=1) for c in chosen]
            ),
            axis=0,
        )
        distances[chosen] = -np.inf
        chosen.append(int(np.argmax(distances)))
    return chosen
