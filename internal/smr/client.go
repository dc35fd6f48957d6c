package smr

import (
	"errors"
	"strings"
)

// Client errors (see SessionClient), matchable with errors.Is.
var (
	ErrNoProxies = errors.New("smr client: no reachable proxy")
	ErrNotFound  = errors.New("smr client: key not found")

	// ErrMaybeApplied marks a failed write whose outcome is unknown: the
	// request (may have) reached a server, so it may have been replicated
	// and applied even though no acknowledgement came back. History
	// checkers must treat such writes as concurrent with everything after
	// their invocation (see internal/linear's ambiguous outcome).
	ErrMaybeApplied = errors.New("smr client: outcome unknown (the request may have been applied)")
	// ErrRejected marks a failed request that definitely did NOT execute —
	// it never reached a server, or the server refused it before proposing
	// (usage errors, unknown commands). Safe to drop from a history.
	ErrRejected = errors.New("smr client: request was not applied")
)

// outcomeError wraps a request failure with its applied-or-not verdict;
// errors.Is(err, ErrMaybeApplied) / errors.Is(err, ErrRejected) read it
// back. Every failure is exactly one of the two.
type outcomeError struct {
	cause error
	maybe bool
}

func (e *outcomeError) Error() string {
	if e.maybe {
		return e.cause.Error() + " [outcome unknown: may have been applied]"
	}
	return e.cause.Error()
}

func (e *outcomeError) Unwrap() error { return e.cause }

func (e *outcomeError) Is(target error) bool {
	switch target {
	case ErrMaybeApplied:
		return e.maybe
	case ErrRejected:
		return !e.maybe
	}
	return false
}

// ambiguousReply classifies an ERR reply line: replies the server emits
// before proposing anything (malformed requests) are definite rejections;
// every other error — a server-side timeout above all — arrived after the
// command may have entered consensus, so the write may still apply.
func ambiguousReply(reply string) bool {
	definite := []string{
		"ERR usage:", "ERR unknown command", "ERR empty",
		// Session-protocol refusals issued before the command is parsed
		// or queued: nothing entered consensus.
		"ERR line too long", "ERR busy", "ERR bad frame",
		// A lease-held refusal happens before the command is proposed
		// (internal/lease): the named leaseholder must be dialed instead.
		"ERR lease held",
	}
	for _, d := range definite {
		if strings.HasPrefix(reply, d) {
			return false
		}
	}
	return true
}
