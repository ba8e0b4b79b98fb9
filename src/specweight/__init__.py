"""Spectral graph sample weighting for sub-cohort predictability analysis.

Builds a similarity graph over study samples from auxiliary factors, expresses
per-sample loss weights as a learnable combination of the graph Laplacian's
low-frequency eigenbases, trains weighted classifiers, infers weights for
held-out samples transductively, and reports how predictability varies across
sub-cohorts.

The modules are the API: import names from `specweight.<module>` (for example
`from specweight.evaluation import cross_validate`). The package re-exports
nothing, so importing one module loads only what that module needs.
"""

__version__ = "0.1.0"
