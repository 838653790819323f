"""Block-sparse / MMV recovery with unfolded iterative thresholding.

Submodules:

* ``blockcore``  block dictionaries, coherence measures, Kronecker lift of
  an MMV channel matrix to block-sparse form, text matrix format
* ``operators``  block soft-thresholding and its derivatives
* ``solvers``    classical baselines (block ISTA, momentum variant, AMP)
* ``weights``    analytical weight matrices (KKT oracle, closed form, SVD
  shortcut, Kronecker reduction, circulant FFT, Toeplitz extension)
* ``unfolding``  the learned network variants, gradients, kernel form
* ``training``   layer-wise training with Adam and NMSE metrics
* ``datagen``    synthetic scenarios and signal sampling
* ``verify``     recovery-guarantee diagnostics
* ``cli``        command-line pipeline (``blockunfold`` entry point)
"""

from . import blockcore, datagen, operators, solvers, training, unfolding, verify, weights

__all__ = [
    "blockcore",
    "operators",
    "solvers",
    "weights",
    "unfolding",
    "training",
    "datagen",
    "verify",
]

__version__ = "0.1.0"
