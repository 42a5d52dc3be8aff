"""Error types shared across the emulator, plus the CLI exit-code map."""


class EmulatorError(Exception):
    """Base class for all emulator errors."""


# -- memory ------------------------------------------------------------------

class OutOfMemory(EmulatorError):
    """The frame pool cannot satisfy an allocation."""


class OutOfHostMemory(EmulatorError):
    """The host cannot back a requested pool growth."""


class PermissionDenied(EmulatorError):
    """Caller privilege level is insufficient for the operation."""


class DoubleMap(EmulatorError):
    """A virtual page number is already mapped."""


class NotSealed(EmulatorError):
    """A copy-on-write fork was attempted on a zygote with writable pages."""


class BaseInUse(EmulatorError):
    """A sealed page table was released while CoW views still alias it."""


# -- monitor -----------------------------------------------------------------

class ConfigInvalid(EmulatorError):
    """Monitor boot configuration failed validation."""


class PolicyViolation(EmulatorError):
    """A digest or chain is not permitted by the loaded provider policy."""


class UnknownHandle(EmulatorError):
    """No live process descriptor matches the handle."""


class DecryptFailed(EmulatorError):
    """A request ciphertext did not authenticate under the loaded key."""


class TrustletBusy(EmulatorError):
    """The trustlet is mid-invocation, or holds a chained input handed off
    for another user; callers must queue."""


class FunctionError(EmulatorError):
    """A pipeline step failed; the failure propagates to the invoker."""


class NoSession(EmulatorError):
    """loadPolicy was called before the attestation handshake."""


class AuthFailed(EmulatorError):
    """An encrypted blob did not authenticate under the session key."""


class InvocationAborted(EmulatorError):
    """The trustlet was torn down (e.g. zygote deletion) mid-invocation."""


# -- objects -----------------------------------------------------------------

class UnknownObject(EmulatorError):
    """No data object matches the id."""


class AlreadyAttached(EmulatorError):
    """The object already has both a writer and a reader."""


class NoInput(EmulatorError):
    """No input object exists for the current invocation."""


class QuotaExceeded(EmulatorError):
    """Per-trustlet object count or byte quota exceeded."""


class NotCoLocated(EmulatorError):
    """Chain linking requires both trustlets on the same monitor."""


class NoRoute(EmulatorError):
    """No destination monitor is reachable for a fallback transfer."""


# -- attestation -------------------------------------------------------------

class StaleNonce(EmulatorError):
    """The provider nonce was already consumed by an earlier handshake."""


class VerifFailed(EmulatorError):
    """Platform report verification failed on the provider side."""


class NoPolicyKey(EmulatorError):
    """Report signing requires a loaded function private key."""


# -- libos -------------------------------------------------------------------

class NotFound(EmulatorError):
    """Path absent from both the embedded filesystem and the manifest."""


class IntegrityError(EmulatorError):
    """An external file's digest does not match its manifest entry."""


# -- trace I/O ---------------------------------------------------------------

class ParseError(EmulatorError, ValueError):
    """A trace, config or spec file, or a binary image, policy, request or
    report, is malformed.  A trace's message carries the line number; every
    binary format is parsed, and refused, by ``walletemu.wire.Reader``."""


class InvariantError(EmulatorError):
    """Parsed data violates a trace invariant (e.g. negative duration)."""


class EmptyTrace(EmulatorError):
    """The simulator requires at least one trace event."""


# -- CLI exit codes ----------------------------------------------------------
# Documented in the README; 1 is reserved for unexpected failures.

EXIT_CODES: dict[type, int] = {
    OutOfMemory: 2,
    PolicyViolation: 3,
    DecryptFailed: 4,
    AuthFailed: 5,
    NoSession: 6,
    StaleNonce: 7,
    VerifFailed: 8,
    IntegrityError: 9,
    NotFound: 10,
    ParseError: 11,
    InvariantError: 12,
    EmptyTrace: 13,
    ConfigInvalid: 14,
    UnknownHandle: 15,
    NotSealed: 16,
    FunctionError: 17,
    PermissionDenied: 18,
    QuotaExceeded: 19,
    TrustletBusy: 20,
}


def exit_code_for(exc: BaseException) -> int:
    """Map an emulator error to its documented CLI exit code."""
    for klass, code in EXIT_CODES.items():
        if isinstance(exc, klass):
            return code
    return 1
