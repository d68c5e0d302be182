"""Exception types raised across the package, and the reader of input
files that turns a UTF-8 decoding failure into one of them."""

from pathlib import Path


class EmocastError(Exception):
    """Base class for every error this package raises deliberately."""


class ProfileError(EmocastError):
    """Indent profile cannot be inferred (fewer than 3 distinct offsets)."""


class CharacterNameError(EmocastError):
    """Character name is empty once markers and whitespace are stripped."""


class MetadataError(EmocastError):
    """Malformed or duplicate row in the character metadata CSV."""


class AssemblyError(EmocastError):
    """A parsed movie has no metadata rows at all."""


class LexiconError(EmocastError):
    """Malformed row in the affect lexicon TSV."""


class NonFiniteError(EmocastError):
    """A statistical routine received NaN or infinite values, or the t-SNE
    descent produced them."""


class DegenerateError(EmocastError):
    """All pooled values identical, the rank test variance is zero."""


class DimensionError(EmocastError):
    """Ragged or non-2D point matrix passed to a clustering routine."""


class InvariantError(EmocastError):
    """An invariant a clustering routine maintains failed to hold: the
    k-means SSE rose between two iterations."""


class CurveError(EmocastError):
    """SSE curve too short or not over consecutive k for elbow detection."""


class CalibrationError(EmocastError):
    """Perplexity calibration produced a non-finite probability row."""


class StaleInputError(EmocastError):
    """A stage's input artifact is not recorded in manifest.json as made
    from the current inputs and settings (strict mode)."""


class InputEncodingError(EmocastError):
    """An input file is not valid UTF-8."""


def read_utf8(path: str | Path) -> str:
    """The text of ``path``, as ``Path.read_text(encoding="utf-8")`` gives it.

    Line breaks are translated as in that call ("\\r\\n" and "\\r" become
    "\\n"). A byte sequence that is not UTF-8 raises InputEncodingError
    naming its line, counted over those three breaks from 1, and the byte.
    """
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = data[: exc.start]
        line = before.count(b"\n") + before.count(b"\r") - before.count(b"\r\n") + 1
        raise InputEncodingError(
            f"line {line}: not valid UTF-8: {exc.reason} (byte 0x{data[exc.start]:02x})"
        ) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")
