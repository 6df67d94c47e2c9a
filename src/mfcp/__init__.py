"""Multi-fidelity autoencoder surrogates with conformal uncertainty bands.

Submodules:
    linalg    dense SVD / PCA primitives
    nn        from-scratch fully-connected networks, gradients, Adam
    data      snapshot sets, CSV I/O, splits, normalization, metrics
    lofi      synthetic low-fidelity degradation recipes
    mfae      two-phase multi-fidelity autoencoder
    conformal modulated conformal bands and multi-split calibration
    cli       batch pipeline (degrade | pretrain | calibrate | finetune | evaluate)
"""

__version__ = "0.1.0"

from . import conformal, data, linalg, lofi, mfae, nn  # noqa: F401
