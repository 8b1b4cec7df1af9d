"""Cat-state and squeezed-state generation for a SQUID charge qubit in a microwave cavity.

Closed-form branch evolutions, a brute-force Fock-space propagator to check
them against, projective charge measurement with post-selection, and the
device-level sweeps and feasibility arithmetic.  The API lives in the
modules, each with its ``__all__``; the package root re-exports nothing.
"""

__version__ = "0.1.0"
