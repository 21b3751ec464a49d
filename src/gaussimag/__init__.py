"""Numerical toolkit for the imaginarity of Gaussian quantum channels.

Each public name is imported from the module that defines it; the
package root defines only ``__version__`` and imports nothing:

* ``gaussimag.linalg`` -- symplectic form, norms and the PSD test;
* ``gaussimag.specfun`` -- the exponential integral E1, in pairs;
* ``gaussimag.gaussian`` -- states, channels, superchannels, their
  physicality, realness patterns, documents and random samplers;
* ``gaussimag.measures`` -- the imaginarity measures I_Gn, I_c, I_d, I_s;
* ``gaussimag.qbm`` -- the quantum Brownian motion channel and its
  imaginarity trajectory;
* ``gaussimag.cli`` -- the ``gaussimag`` command line.
"""

__version__ = "0.1.0"
