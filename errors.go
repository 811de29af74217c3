package prometheus

import (
	"fmt"

	"repro/internal/core"
)

// ErrorKind classifies the dynamic errors the runtime detects (paper §3.3).
type ErrorKind int

const (
	// ErrSerializerViolation: an improper serializer mapped operations on
	// the same object to different serialization sets within one isolation
	// epoch.
	ErrSerializerViolation ErrorKind = iota
	// ErrPartitionViolation: an operation violated the data partition, e.g.
	// a write through a read-only wrapper, or a writable object used as
	// both read-only and privately-writable in the same isolation epoch.
	ErrPartitionViolation
	// ErrAPIMisuse: a structural misuse of the API, e.g. Delegate outside
	// an isolation epoch or a nil serializer with no external set.
	ErrAPIMisuse
)

func (k ErrorKind) String() string {
	switch k {
	case ErrSerializerViolation:
		return "serializer violation"
	case ErrPartitionViolation:
		return "partition violation"
	case ErrAPIMisuse:
		return "api misuse"
	default:
		return "unknown"
	}
}

// Error is the panic value raised on detected model violations. The paper's
// Prometheus "generates an error" on these conditions; in Go they are
// programming errors, so the library panics with a value callers can inspect
// in tests via recover. One raised inside a delegated operation is contained
// like any other panic: Runtime.Err reports it as the cause of a
// *PanicError, where errors.As finds it with its Kind.
type Error struct {
	Kind ErrorKind
	Msg  string
}

func (e *Error) Error() string { return fmt.Sprintf("prometheus: %s: %s", e.Kind, e.Msg) }

func raise(kind ErrorKind, format string, args ...any) {
	panic(&Error{Kind: kind, Msg: fmt.Sprintf(format, args...)})
}

// PanicError describes one contained panic in a delegated operation: which
// serialization set faulted (NoSet for RunParallel pool tasks), on which
// context, in which isolation epoch, the recovered value, and the stack
// captured during unwinding — it includes the panicking frames, so the
// original failure site survives into the error report. Runtime.Err joins
// one per retained fault; Unwrap returns the recovered value when it was
// itself an error, so errors.Is/errors.As reach through to the cause.
type PanicError = core.PanicError
