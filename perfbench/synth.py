"""Seeded synthetic spectra with the shape of the Tecator meat data.

Each row is 100 absorbances at 850..1048 nm. A row is a sloped, offset
baseline plus four Gaussian absorption bands whose depths are the
sample's latent concentrations, plus small white noise. The target is a
nonlinear function of the concentrations, scaled to the range of a fat
percentage. The real Tecator CSVs cannot be fetched offline; this stand-in
only has to load the estimator and the model sweeps the way they do.
"""

from __future__ import annotations

import numpy as np

N_CHANNELS = 100
WAVELENGTHS = 850.0 + 2.0 * np.arange(N_CHANNELS)
LABELS = tuple(f"{w:.0f}" for w in WAVELENGTHS)

# (centre nm, width nm) of the four planted bands.
BANDS = ((880.0, 9.0), (930.0, 12.0), (968.0, 8.0), (1020.0, 14.0))
NOISE_SD = 2e-3


def _rows(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    conc = rng.uniform(0.0, 1.0, size=(n, len(BANDS)))
    offset = rng.uniform(2.8, 3.2, size=n)
    slope = rng.normal(0.0, 0.15, size=n)
    centred = (WAVELENGTHS - WAVELENGTHS.mean()) / np.ptp(WAVELENGTHS)
    x = offset[:, None] + slope[:, None] * centred[None, :]
    for b, (centre, width) in enumerate(BANDS):
        shape = np.exp(-0.5 * ((WAVELENGTHS - centre) / width) ** 2)
        x += (0.1 + 0.5 * conc[:, b])[:, None] * shape[None, :]
    x += rng.normal(0.0, NOISE_SD, size=x.shape)
    c1, c2, c3, c4 = conc.T
    y = c2**2 + 0.2 * np.sin(np.pi * c1) + 0.15 * c3 * c4
    return x, y


def tecator_like(seed: int, n_train: int = 172, n_test: int = 43):
    """(x_train, y_train, x_test, y_test) drawn from one seeded generator.

    The default sizes are the Tecator 172/43 split; pass ``n_train=1000``
    for the large-N variant. Train and test rows come from one stream, so
    a seed fixes both.
    """
    rng = np.random.default_rng(seed)
    x, y = _rows(rng, n_train + n_test)
    return x[:n_train], y[:n_train], x[n_train:], y[n_train:]
