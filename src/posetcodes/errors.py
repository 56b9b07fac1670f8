"""Exception types shared across the package."""


class ValidationError(ValueError):
    """An input violates a documented precondition."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed its configured budget.

    ``partial_result`` carries a best-so-far answer when the computation
    produced one before hitting the limit.  A partial primary decomposition
    says in ``proven_minimal`` whether its complexity is the least one.
    """

    def __init__(self, message, partial_result=None):
        super().__init__(message)
        self.partial_result = partial_result
