package prometheus

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/chaos"
)

func TestErrorKindString(t *testing.T) {
	for _, tc := range []struct {
		kind ErrorKind
		want string
	}{
		{ErrSerializerViolation, "serializer violation"},
		{ErrPartitionViolation, "partition violation"},
		{ErrAPIMisuse, "api misuse"},
		{ErrorKind(99), "unknown"},
		{ErrorKind(-1), "unknown"},
	} {
		if got := tc.kind.String(); got != tc.want {
			t.Errorf("ErrorKind(%d).String() = %q, want %q", tc.kind, got, tc.want)
		}
	}
}

func TestErrorFormatting(t *testing.T) {
	for _, tc := range []struct {
		err  *Error
		want string
	}{
		{&Error{Kind: ErrAPIMisuse, Msg: "Delegate outside an isolation epoch"},
			"prometheus: api misuse: Delegate outside an isolation epoch"},
		{&Error{Kind: ErrSerializerViolation, Msg: "writable #3 mapped to set 2, previously set 1, in one epoch"},
			"prometheus: serializer violation: writable #3 mapped to set 2, previously set 1, in one epoch"},
	} {
		if got := tc.err.Error(); got != tc.want {
			t.Errorf("Error() = %q, want %q", got, tc.want)
		}
	}
}

func TestRaisePanicsWithError(t *testing.T) {
	defer func() {
		v := recover()
		e, ok := v.(*Error)
		if !ok {
			t.Fatalf("raise panicked with %T, want *Error", v)
		}
		if e.Kind != ErrPartitionViolation {
			t.Errorf("Kind = %v, want ErrPartitionViolation", e.Kind)
		}
		if e.Msg != "object #42 misused" {
			t.Errorf("Msg = %q, want formatted message", e.Msg)
		}
	}()
	raise(ErrPartitionViolation, "object #%d misused", 42)
}

func TestPanicErrorFormatting(t *testing.T) {
	pe := &PanicError{Set: 9, Ctx: 2, Epoch: 4, Value: "boom"}
	want := "operation of set 9 panicked on context 2 in epoch 4: boom"
	if got := pe.Error(); got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	pool := &PanicError{Set: NoSet, Ctx: 1, Epoch: 2, Value: "boom"}
	if got := pool.Error(); !strings.HasPrefix(got, "pool task panicked") {
		t.Errorf("pool-task Error() = %q, want pool-task form", got)
	}
}

func TestPanicErrorUnwrapping(t *testing.T) {
	// The report Runtime.Err builds: errors.Join of *PanicError records.
	// A panic value that is an error stays reachable as the cause.
	cause := chaos.Fault{Set: 5, N: 3}
	pe := &PanicError{Set: 5, Ctx: 1, Epoch: 1, Value: cause}
	other := &PanicError{Set: 6, Ctx: 1, Epoch: 1, Value: fmt.Errorf("other")}
	joined := errors.Join(pe, other)

	if !errors.Is(joined, chaos.Fault{Set: 5, N: 3}) {
		t.Error("errors.Is did not reach the injected Fault through Join -> PanicError")
	}
	var gotPE *PanicError
	if !errors.As(joined, &gotPE) || gotPE.Set != 5 {
		t.Error("errors.As did not extract the first *PanicError")
	}
	var gotFault chaos.Fault
	if !errors.As(joined, &gotFault) || gotFault.N != 3 {
		t.Error("errors.As did not extract the chaos.Fault cause")
	}
	if !strings.Contains(joined.Error(), "set 6") {
		t.Error("joined error lost the second fault's message")
	}

	// An *Error raised inside an operation is reached with its own Kind.
	violation := &PanicError{Set: 7, Ctx: 1, Epoch: 1, Value: &Error{Kind: ErrPartitionViolation, Msg: "misuse"}}
	var gotErr *Error
	if !errors.As(errors.Join(pe, violation), &gotErr) || gotErr.Kind != ErrPartitionViolation {
		t.Error("errors.As did not extract the contained *Error with its Kind")
	}

	// Panic value that is not an error: the chain ends at the PanicError.
	if (&PanicError{Value: "just a string"}).Unwrap() != nil {
		t.Error("Unwrap of a non-error panic value should be nil")
	}
}
