"""Exception hierarchy for the repro library.

Every error raised by this package derives from :class:`ReproError`, so
callers can catch a single base class at API boundaries.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class AddressError(ReproError, ValueError):
    """An IPv4 address or prefix string could not be parsed or is invalid."""


class BGPParseError(ReproError, ValueError):
    """A BGP RIB dump or update stream is malformed."""


class TopologyError(ReproError):
    """A generated or supplied topology violates a structural invariant."""


class MeasurementError(ReproError):
    """A latency/loss measurement was requested for an unknown endpoint."""


class ProtocolError(ReproError):
    """A protocol node received a message it cannot process."""


class ConfigurationError(ReproError, ValueError):
    """A configuration object holds out-of-range or inconsistent values."""


class EvaluationError(ReproError):
    """An experiment harness was invoked with an inconsistent setup."""


class ArtifactError(ReproError, ValueError):
    """A stored artifact (a matrix archive) is unreadable or inconsistent;
    the message names the file and the array."""


class WireError(ReproError):
    """Base class for wire-protocol problems (codec and transports)."""


class FrameError(WireError, ValueError):
    """A wire frame is malformed: bad magic, truncated, oversized, or
    carrying an unknown schema version or message type."""


class CodecError(WireError, ValueError):
    """A frame's payload does not match its message type's schema."""


class TransportError(WireError):
    """A transport could not deliver or complete an exchange."""


class TransportTimeout(TransportError):
    """A request saw no response within its timeout."""


class RemoteError(TransportError):
    """The remote node answered a request with an error frame."""

    def __init__(self, code: int, detail: str = "") -> None:
        super().__init__(f"remote error {code}: {detail}")
        self.code = code
        self.detail = detail


class ServiceError(ReproError):
    """A service daemon was driven incorrectly (bad role, not joined)."""
