"""The one error every blob reader raises."""

__all__ = ["CorruptBlobError"]


class CorruptBlobError(ValueError):
    """A serialized or compressed object is malformed, truncated, or at
    odds with its own header: raised by ``loads`` and the lossless
    readers before anything is sized or decoded from the bad field."""
