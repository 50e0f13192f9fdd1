"""Geometric deep networks: manifold exp/log charts (the torus and real
projective quotients among them), constructive Bernstein network
compilation, and quantitative depth/width estimators with a
dataset-efficiency certifier.

Each name is imported from the module that defines it, so
``import gdn.<module>`` loads only what that module needs.
"""

__version__ = "0.1.0"
