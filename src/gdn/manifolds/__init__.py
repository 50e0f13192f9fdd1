"""The manifold zoo: spec parsing, exp/log charts, SPD and Gaussian geometry."""
