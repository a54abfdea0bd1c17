"""Exception taxonomy shared by all modules.

The CLI maps these onto process exit codes: input/shape problems exit 2,
missing weights exit 3, corrupt files exit 4.
"""

from dataclasses import fields


class McsrError(Exception):
    """Base class for all package errors."""


class ConfigError(McsrError):
    """A configuration or shape contract was violated."""


def check_field_types(config):
    """Raise ConfigError unless int fields hold ints and float fields ints or floats, not bools."""
    for field in fields(config):
        kinds = {int: int, float: (int, float)}.get(field.type)
        value = getattr(config, field.name)
        if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
            kind = "an int" if field.type is int else "a number"
            raise ConfigError(f"{field.name} must be {kind}, got {value!r}")


class InputError(McsrError):
    """User-supplied data (sizes, file contents, config values) is invalid."""


class MissingWeightsError(McsrError):
    """The weight store lacks parameters the forward pass needs."""

    def __init__(self, names):
        self.names = sorted(names)
        super().__init__("missing weights: " + ", ".join(self.names))


class CorruptFileError(McsrError):
    """A binary file failed structural validation.

    ``offset`` is the byte position at which the problem was detected.
    """

    def __init__(self, message, offset):
        self.offset = offset
        super().__init__(f"{message} (byte offset {offset})")
