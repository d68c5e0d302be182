"""Exception types raised across the package."""


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
    """A clustering routine was called outside its contract, or an invariant
    it maintains (monotone k-means SSE, a cut at k clusters) failed to hold."""


class CurveError(EmocastError):
    """SSE curve too short or not over consecutive k for elbow detection."""


class CalibrationError(EmocastError):
    """Perplexity calibration produced a non-finite probability row."""


class StaleInputError(EmocastError):
    """A stage artifact is older than the configured sources (strict mode)."""
