"""Exception taxonomy shared by all modules.

The CLI maps each class onto its own exit code: InputError (bad input,
shape or config value) exits 2, MissingWeightsError 3, CorruptFileError 4.
"""

from dataclasses import fields, is_dataclass


class McsrError(Exception):
    """Base class for all package errors."""


class InputError(McsrError):
    """User-supplied data (sizes, file contents, config values) is invalid."""


def check_field_types(config):
    """Raise InputError unless int, float, bool, str and config fields hold their type: a
    float field also takes an int, and only a bool field takes a bool."""
    for field in fields(config):
        kinds, kind = {int: (int, "an int"), float: ((int, float), "a number"),
                       bool: (bool, "a bool"), str: (str, "a string")}.get(field.type, (None, ""))
        if is_dataclass(field.type):
            kinds, kind = field.type, f"a {field.type.__name__}"
        value = getattr(config, field.name)
        if kinds and (not isinstance(value, kinds) or isinstance(value, bool) != (kinds is bool)):
            raise InputError(f"{field.name} must be {kind}, got {value!r}")


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
