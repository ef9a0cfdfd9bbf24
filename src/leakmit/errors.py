"""Exception types shared across the toolkit."""


class InfeasiblePolicyError(ValueError):
    """A mitigation policy is malformed or breaks its budget."""


class SolverError(RuntimeError):
    """An optimization routine failed to produce a usable answer."""
