"""Exception types raised across the toolkit.

Every error carries its distinguishing values as attributes so callers can
react programmatically instead of parsing messages.
"""

from __future__ import annotations


class ProtoshotError(Exception):
    """Base class for all toolkit errors."""


# --- embedding matrices and stores ---------------------------------------


def _in_file(path: str | None, message: str) -> str:
    return message if path is None else f"{path}: {message}"


class ZeroVectorRow(ProtoshotError):
    def __init__(self, row: int, path: str | None = None):
        message = f"row {row} has near-zero L2 norm and cannot be normalized"
        super().__init__(_in_file(path, message))
        self.row, self.path = row, path


class NonFiniteValue(ProtoshotError):
    def __init__(self, row: int, path: str | None = None):
        super().__init__(_in_file(path, f"row {row} contains NaN or infinity"))
        self.row = row
        self.path = path


class UnnormalizedRow(ProtoshotError):
    """A row whose L2 norm is off 1: of the slide `slide_id`, or of a text
    classifier when `slide_id` is None, which no load option re-normalizes.
    The message offers re-normalizing only for a slide row that it can fix,
    one whose norm is not below normalize's 1e-8."""

    def __init__(self, slide_id: str | None, row: int, norm: float, path: str | None = None):
        what = "classifier" if slide_id is None else f"slide {slide_id!r}"
        fixable = slide_id is not None and norm >= 1e-8
        fix = "; pass renormalize=True (--normalize) to fix at load" if fixable else ""
        message = f"{what} row {row} has L2 norm {norm:.6g}, expected 1.0{fix}"
        super().__init__(_in_file(path, message))
        self.slide_id, self.row, self.norm, self.path = slide_id, row, norm, path


class IoFailure(ProtoshotError):
    pass


class BadMagic(ProtoshotError):
    def __init__(self, found: bytes, path: str | None = None):
        super().__init__(_in_file(path, f"bad magic bytes {found!r}, not an embedding file"))
        self.found = found
        self.path = path


class TruncatedPayload(ProtoshotError):
    def __init__(self, expected: int, actual: int, path: str | None = None):
        super().__init__(
            _in_file(path, f"payload truncated: expected {expected} bytes, got {actual}")
        )
        self.expected = expected
        self.actual = actual
        self.path = path


class TrailingBytes(ProtoshotError):
    def __init__(self, expected: int, extra: int, path: str | None = None):
        super().__init__(
            _in_file(path, f"{extra} bytes follow the declared {expected}-byte payload")
        )
        self.expected = expected
        self.extra = extra
        self.path = path


class ReservedHeaderBytes(ProtoshotError):
    def __init__(self, value: int, path: str | None = None):
        super().__init__(
            _in_file(path, f"reserved header field holds {value:#010x}, expected zero")
        )
        self.value = value
        self.path = path


class DimensionZero(ProtoshotError):
    def __init__(self, rows: int, dim: int, path: str | None = None):
        super().__init__(
            _in_file(
                path,
                f"header declares rows={rows}, dim={dim}; need rows >= 1 and dim >= 2",
            )
        )
        self.rows = rows
        self.dim = dim
        self.path = path


class UnknownClass(ProtoshotError):
    def __init__(self, slide_id: str, class_name: str):
        super().__init__(f"slide {slide_id!r} has class {class_name!r} not in the manifest classes")
        self.slide_id = slide_id
        self.class_name = class_name


class PatchCountMismatch(ProtoshotError):
    def __init__(self, slide_id: str, declared: int, actual: int):
        super().__init__(
            f"slide {slide_id!r} declares {declared} patches but its file holds {actual}"
        )
        self.slide_id = slide_id
        self.declared = declared
        self.actual = actual


class MissingFile(ProtoshotError):
    def __init__(self, path: str):
        super().__init__(f"file not found: {path}")
        self.path = path


class ManifestError(ProtoshotError, ValueError):
    """A manifest line that is not valid JSON, lacks a required key or holds
    it with the wrong type (`key` names it), repeats a slide_id or names a
    class the manifest does not declare.

    Also a ValueError, like the other malformed-manifest errors of
    :func:`~protoshot.embedstore.parse_manifest`.
    """

    def __init__(self, path: str, line: int, reason: str, key: str | None = None):
        super().__init__(f"{path} line {line}: {reason}")
        self.path = path
        self.line = line
        self.reason = reason
        self.key = key


class ClassNamesMismatch(ProtoshotError, ValueError):
    """A text classifier whose class names are not the manifest's, in the
    manifest's order: `index` is the first position where they differ, and
    `classifier_name` and `manifest_name` the names there (None past the end
    of a list). `path` is the classifier's sidecar, when known. Also a
    ValueError, like :class:`ManifestError`."""

    def __init__(
        self,
        index: int,
        classifier_name: str | None,
        manifest_name: str | None,
        path: str | None = None,
    ):
        name = lambda value: "absent" if value is None else repr(value)
        message = (
            f"class {index} is {name(classifier_name)} in the classifier, "
            f"{name(manifest_name)} in the manifest"
        )
        super().__init__(_in_file(path, message))
        self.index, self.path = index, path
        self.classifier_name, self.manifest_name = classifier_name, manifest_name


class SidecarError(ProtoshotError, ValueError):
    """A JSON sidecar that is not a valid JSON object, lacks a required key,
    holds a value of the wrong type or counts what its binary file does not.

    `key` names the offending key, or is None when the file as a whole is
    malformed. Also a ValueError, like :class:`ManifestError`.
    """

    def __init__(self, path: str, reason: str, key: str | None = None):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason
        self.key = key


# --- similarity kernels ----------------------------------------------------


class DimensionMismatch(ProtoshotError):
    def __init__(self, expected: int, actual: int, slide_id: str | None = None):
        where = "" if slide_id is None else f"slide {slide_id!r}: "
        super().__init__(f"{where}dimension mismatch: expected {expected}, got {actual}")
        self.expected = expected
        self.actual = actual
        self.slide_id = slide_id


class EmptySubset(ProtoshotError):
    def __init__(self) -> None:
        super().__init__("cannot pool an empty patch subset")


# --- classification methods --------------------------------------------------


class EmptyClassSupport(ProtoshotError):
    def __init__(self, class_name: str):
        super().__init__(f"class {class_name!r} has no support slides")
        self.class_name = class_name


class PromptIndexOutOfRange(ProtoshotError):
    def __init__(self, index: int, num_prompts: int):
        super().__init__(f"prompt index {index} out of range for {num_prompts} prompts")
        self.index = index
        self.num_prompts = num_prompts


class EmptyCache(ProtoshotError):
    def __init__(self) -> None:
        super().__init__("cache model holds no support entries")


# --- evaluation protocol -----------------------------------------------------


class ClassTooSmall(ProtoshotError):
    def __init__(self, class_index: int, count: int, num_folds: int):
        super().__init__(
            f"class {class_index} has {count} slides, fewer than {num_folds} folds"
        )
        self.class_index = class_index
        self.count = count
        self.num_folds = num_folds


class InsufficientSupport(ProtoshotError):
    def __init__(self, class_index: int, available: int, requested: int):
        super().__init__(
            f"class {class_index} has {available} training slides, cannot draw {requested}"
        )
        self.class_index = class_index
        self.available = available
        self.requested = requested


class LengthMismatch(ProtoshotError):
    def __init__(self, predictions: int, labels: int):
        super().__init__(f"{predictions} predictions vs {labels} labels")
        self.predictions = predictions
        self.labels = labels


class ClassAbsent(ProtoshotError):
    def __init__(self, class_index: int):
        super().__init__(f"class {class_index} has no members among the labels")
        self.class_index = class_index


class SingleCluster(ProtoshotError):
    def __init__(self) -> None:
        super().__init__("silhouette needs at least two distinct cluster labels")


class TooFewPoints(ProtoshotError):
    def __init__(self, count: int):
        super().__init__(f"need at least 2 points, got {count}")
        self.count = count


class GridCellError(ProtoshotError):
    def __init__(self, cell: str, cause: BaseException):
        super().__init__(f"grid cell [{cell}] failed: {cause}")
        self.cell = cell
        self.cause = cause


class ReportError(ProtoshotError, ValueError):
    """An evaluation report that is not a JSON object, lacks a key or holds a
    value of the wrong type (`key` names it). Also a ValueError."""

    def __init__(self, path: str, reason: str, key: str | None = None):
        super().__init__(f"{path}: {reason}")
        self.path, self.reason, self.key = path, reason, key


# --- configs and outputs -------------------------------------------------------


class InvalidConfig(ProtoshotError, ValueError):
    """A grid or synthesis config that cannot run as given. Also a
    ValueError, like :class:`ManifestError`."""


class OutputNotEmpty(ProtoshotError):
    def __init__(self, path: str):
        super().__init__(f"{path}: exists and is not an empty directory")
        self.path = path
