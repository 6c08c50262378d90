"""Cooperative multi-agent games with uncertainty-based failure monitors
and rollback interventions.

The package is organized around a detect-and-intervene loop: environments
(whodunit, commons) produce per-turn agent decisions; uncertainty features
of those decisions feed per-role success monitors; monitors below their
threshold trigger interventions that roll the environment back without
ever undoing irreversible actions.
"""

__version__ = "0.1.0"
