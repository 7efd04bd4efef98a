"""Bit-exact WiMAX (IEEE 802.16e) channel interleaver toolkit.

Address math, a divider-free incremental address generator, burst-error
dispersal analysis, and a structural area-vs-speed datapath cost model,
with a CLI front end (wimax-il).

Importing the package loads no submodule and defines no public name; each
name is imported from the module that defines it: config (parameter sets),
errors, reference (the index-math oracle and address tables), generator
(the counter engine), tablefile (the table file form), burst (dispersal
sweeps and reports) and cost_model (the datapath trade-off).
"""
__version__ = "0.1.0"
