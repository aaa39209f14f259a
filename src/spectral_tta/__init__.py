"""Test-time adaptation of a frozen network through a learnable spectral
filter acting in a PCA basis of an intermediate feature map."""

__version__ = "0.1.0"
