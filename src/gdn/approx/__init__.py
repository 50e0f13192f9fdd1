"""The approximation engine: Bernstein lattices, moduli, synthesis and estimators."""
