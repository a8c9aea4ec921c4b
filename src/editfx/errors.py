"""Exception types shared across the toolkit."""


class EditfxError(Exception):
    """Base class for all toolkit errors."""


class IngestError(EditfxError):
    """A record or line failed validation during ingestion.

    Carries the 1-based line number when the error originates from a file.
    """

    def __init__(self, message: str, line_number: int | None = None):
        self.line_number = line_number
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)


class SchemaError(EditfxError):
    """Feature schemas or column layouts do not match."""


class ConfigError(EditfxError):
    """A configuration value is invalid or inconsistent."""


class PositivityError(EditfxError):
    """A treatment arm is empty where both arms are required."""


class DegenerateCellError(EditfxError):
    """A cell cannot be estimated (empty arm, zero weight sum, too few units)."""


class UnstableCellError(EditfxError):
    """Too many bootstrap resamples were discarded to trust the standard error."""


def _has_type(value, kind: type) -> bool:
    """value is a `kind`, where an int passes for a float and a bool only for a bool."""
    allowed = (int, float) if kind is float else kind
    return isinstance(value, allowed) and (kind is bool or not isinstance(value, bool))


def check_types(config) -> None:
    """ConfigError unless every field of the dataclass `config` has its default's type.

    Each entry of a tuple field must have the type of its default's first entry.
    """
    from dataclasses import fields  # here, not above: the CLI loads this module to start

    for item in fields(config):
        value, kind = getattr(config, item.name), type(item.default)
        if not _has_type(value, kind):
            raise ConfigError(f"config key '{item.name}' must be {kind.__name__}, got {value!r}")
        if kind is tuple:
            entry = type(item.default[0])
            if not all(_has_type(v, entry) for v in value):
                raise ConfigError(
                    f"config key '{item.name}' must hold {entry.__name__} values, got {value!r}"
                )
