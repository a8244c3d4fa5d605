"""Statistics of periodic finite-precision position measurements of a
quantum harmonic oscillator: exact Gaussian-chain analytics, Monte Carlo
simulation, and an independent grid-based Schrodinger oracle."""

__version__ = "0.1.0"
