package serve

import (
	"context"
	"net/http"
)

// Backend executes the work behind one request, on a delegate context,
// serialized with every other request for the same key by the key's
// serialization set. ctx carries the request's deadline (see
// Config.RequestTimeout); a backend that does I/O must honor it so a slow
// call resolves as a timeout error instead of wedging its key's set for
// the epoch.
//
// A nil error means the backend produced a definitive answer (any
// status); a non-nil error means the attempt failed, and it feeds the
// tier's retry ladder. Panics remain the handler-bug seam, contained by
// the tier (a 500 that poisons the key for the epoch). Serve must not
// retain s or r beyond the call.
type Backend interface {
	Serve(ctx context.Context, s *Session, r *http.Request) (status int, body string, err error)
}

// handlerBackend adapts a Handler to the Backend interface: the in-process
// backend, which never fails. A deadline on ctx is attached to a copy of
// the *http.Request (r.Context().Deadline()), so a cooperative handler can
// bound its own work; with none to carry the handler gets the request as
// it came. A handler that ignores the deadline runs to completion and it
// is enforced on the requests queued behind it (queue-front shedding) and
// by the slow-key watchdog instead.
type handlerBackend struct{ h Handler }

func (hb handlerBackend) Serve(ctx context.Context, s *Session, r *http.Request) (int, string, error) {
	if _, ok := ctx.Deadline(); ok {
		r = r.WithContext(ctx)
	}
	status, body := hb.h(s, r)
	return status, body, nil
}
