"""Exception types shared across the package."""


class CloudColorError(Exception):
    """Base class for all domain errors."""


class EmptyCloud(CloudColorError):
    pass


class EmptyBlock(CloudColorError):
    pass


class EmptySamples(CloudColorError):
    pass


class InvalidConfig(CloudColorError):
    pass


class InvalidInput(CloudColorError):
    pass


class MissingColor(CloudColorError):
    pass


class ParseError(CloudColorError):
    """PLY parsing failure; the message ends with the byte offset where it was detected."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(message, offset)  # the args that pickle passes back to __init__

    def __str__(self) -> str:
        return "{} (at byte {})".format(*self.args)
