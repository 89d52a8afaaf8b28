"""fwforge: a verification engine for Foldy-Wouthuysen transformations.

The symbolic core works in the free beta-graded algebra generated by an
even operator E and an odd operator O with exact rational coefficients.
On top of it sit series expansions of functions of sqrt(m^2 + O^2), the
direct (Eriksen) and iterative derivations of the transformed
Hamiltonian, a bracket-basis comparator, a Dirac-matrix concretizer,
and numerical Landau-level spectra.
"""

__version__ = "0.1.0"
