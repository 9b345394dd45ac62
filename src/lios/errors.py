"""Exception types shared across the package."""


class LiosError(Exception):
    """Base class for all errors raised by this package."""


class MachoError(LiosError):
    pass


class BadMagic(MachoError):
    """Input does not start with a recognized fat or Mach-O magic."""


class TruncatedFile(MachoError):
    """A structure extends past the end of the available bytes."""


class MalformedLoadCommand(MachoError):
    """A load command's cmdsize is smaller than its header or overruns the command region."""


class UnsupportedArch(MachoError):
    """Only 64-bit arm64/arm64e images are lifted."""


class OverlongUleb(MachoError):
    """ULEB128 value uses more than 10 bytes."""


class EncryptedBinary(MachoError):
    """LC_ENCRYPTION_INFO_64 reports cryptid != 0; decryption is out of scope."""

class ObjcError(LiosError):
    pass


class DanglingReference(ObjcError):
    """Metadata pointer lands outside every mapped section."""


class CyclicSuperclassChain(ObjcError):
    """Concrete superclass chain loops back on itself."""


class GraphError(LiosError):
    pass


class UnknownLabel(GraphError):
    pass


class MissingEndpoint(GraphError):
    pass


class LabelDomainViolation(GraphError):
    pass


class MalformedDump(GraphError):
    def __init__(self, message, line_no):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class TraversalError(LiosError):
    pass


class NotAFunction(TraversalError):
    pass


class NotABasicBlock(TraversalError):
    pass


class NotAnInstruction(TraversalError):
    pass


class QuerySyntaxError(TraversalError):
    """DSL parse failure; carries the byte position and what was expected."""

    def __init__(self, message, position, expected=()):
        super().__init__(f"at byte {position}: {message}")
        self.position = position
        self.expected = tuple(expected)


class UnknownStep(TraversalError):
    pass


class AnalysisError(LiosError):
    pass


class MalformedRuleFile(AnalysisError):
    pass


class PlistError(LiosError):
    pass


class MalformedPlist(PlistError):
    pass


class IngestError(LiosError):
    pass


class NotAnIpa(IngestError):
    pass


class MissingExecutable(IngestError):
    pass


class EmptyRange(LiosError):
    """A function body was requested for an empty address range."""
