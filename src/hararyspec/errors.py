"""Exception types shared across the package."""

__all__ = ["NotConnectedError", "BudgetError", "Graph6Error"]


class NotConnectedError(ValueError):
    """Raised when an operation that needs finite distances gets a disconnected graph."""


class BudgetError(ValueError):
    """Raised when an exact-search routine is asked to exceed its size budget."""


def _budget_error(search, limit, n):
    """The BudgetError of an exact ``search`` limited to order ``limit``, asked for order n."""
    return BudgetError(f"budget exceeded: {search} limited to n <= {limit}, got n={n}")


class Graph6Error(ValueError):
    """Malformed graph6 input.  Carries the byte offset of the offending byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset
