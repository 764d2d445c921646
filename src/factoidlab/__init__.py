"""factoidlab: a simulation lab for hallucination-rate bounds.

Factoid worlds, generative-calibration metrics, the monofact
(Good-Turing) estimator, simple learning algorithms, and seeded Monte
Carlo plus exhaustive verification of every bound the analysis rests on.
"""

__version__ = "0.1.0"
