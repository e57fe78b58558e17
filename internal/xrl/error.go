package xrl

import "fmt"

// ErrorCode classifies XRL dispatch outcomes. The values follow XORP's
// XrlError numbering where one exists.
type ErrorCode uint32

// XRL error codes.
const (
	CodeOkay          ErrorCode = 100 // success
	CodeBadArgs       ErrorCode = 101 // argument missing or mistyped
	CodeCommandFailed ErrorCode = 102 // handler reported failure
	CodeResolveFailed ErrorCode = 201 // Finder cannot resolve the target
	CodeNoFinder      ErrorCode = 202 // no route to the Finder
	CodeNoSuchTarget  ErrorCode = 203 // resolved target has gone away
	CodeNoSuchMethod  ErrorCode = 204 // target lacks the method
	CodeBadKey        ErrorCode = 205 // method key mismatch (security, §7)
	CodeSendFailed    ErrorCode = 210 // transport-level send failure
	CodeReplyTimeout  ErrorCode = 211 // no response within the deadline
	CodeInternal      ErrorCode = 220 // dispatcher invariant violated
)

func (c ErrorCode) String() string {
	switch c {
	case CodeOkay:
		return "OKAY"
	case CodeBadArgs:
		return "BAD_ARGS"
	case CodeCommandFailed:
		return "COMMAND_FAILED"
	case CodeResolveFailed:
		return "RESOLVE_FAILED"
	case CodeNoFinder:
		return "NO_FINDER"
	case CodeNoSuchTarget:
		return "NO_SUCH_TARGET"
	case CodeNoSuchMethod:
		return "NO_SUCH_METHOD"
	case CodeBadKey:
		return "BAD_KEY"
	case CodeSendFailed:
		return "SEND_FAILED"
	case CodeReplyTimeout:
		return "REPLY_TIMEOUT"
	case CodeInternal:
		return "INTERNAL_ERROR"
	}
	return fmt.Sprintf("XRLERROR(%d)", uint32(c))
}

// Error is an XRL-level failure: it travels across transports and is
// reconstructed at the caller.
type Error struct {
	Code ErrorCode
	Note string
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Note == "" {
		return "xrl: " + e.Code.String()
	}
	return "xrl: " + e.Code.String() + ": " + e.Note
}

// Errorf builds an *Error with a formatted note.
func Errorf(code ErrorCode, format string, args ...any) *Error {
	return &Error{Code: code, Note: fmt.Sprintf(format, args...)}
}

// AsError coerces an arbitrary handler error into an *Error, defaulting to
// CodeCommandFailed.
func AsError(err error) *Error {
	if err == nil {
		return nil
	}
	if xe, ok := err.(*Error); ok {
		return xe
	}
	return &Error{Code: CodeCommandFailed, Note: err.Error()}
}
