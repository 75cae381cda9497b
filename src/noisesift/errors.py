"""Exception types shared across the package."""

import copyreg


class NoisesiftError(Exception):
    """Base class for package errors.

    Every one survives `pickle` (a training share's failure reaches its
    parent process that way): it is rebuilt from its stored `args` and
    attributes without calling `__init__`, whose signature differs between
    the subclasses."""

    def __reduce__(self):
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class ConfigurationError(NoisesiftError):
    """Invalid spec/config values or mismatched shapes."""


class TrainingDivergedError(NoisesiftError):
    """Non-finite loss encountered during training."""

    def __init__(self, epoch: int):
        super().__init__(f"training diverged at epoch {epoch}")
        self.epoch = epoch


class DegenerateDataError(NoisesiftError):
    """Input data cannot support the requested fit (e.g. all points equal)."""


class UnknownMethodError(NoisesiftError):
    """Requested partition method name is not in the catalog."""


class StageError(NoisesiftError):
    """A pipeline stage failed or its prerequisites are missing."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
