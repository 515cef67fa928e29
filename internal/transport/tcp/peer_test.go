package tcp

import (
	"errors"
	"fmt"
	"testing"

	"github.com/mnm-model/mnm/internal/core"
)

// Regression for the write-error requeue path: when a batch fails after a
// fresh cumulative ack was already queued, the requeued (older) ack must
// not regress it — the original append path left two ack frames with the
// stale one positioned to be written last, regressing the remote's view
// of the high-water mark. The queue is now one ackTo; both paths max.
func TestRequeueCtrlFoldsAcks(t *testing.T) {
	p := newPeer(nil, "x")
	requeue := func(upTo uint64) { // sendLoop's write-error path
		p.mu.Lock()
		p.raiseAckLocked(upTo)
		p.mu.Unlock()
	}

	// Fresh ack queued first, failed batch's older ack requeued after.
	p.queueAck(hwSynced{12})
	requeue(10)
	if p.ackTo != 12 {
		t.Fatalf("ackTo = %d after requeue, want 12", p.ackTo)
	}

	// And the other interleaving: the requeued ack arrives first, then a
	// fresh higher ack folds forward.
	p.ackTo = 0
	requeue(10)
	p.queueAck(hwSynced{12})
	if p.ackTo != 12 {
		t.Fatalf("ackTo = %d after fresh ack, want 12", p.ackTo)
	}
}

func TestEncodeDecodeErrorSentinels(t *testing.T) {
	for _, sentinel := range sentinelErrs {
		got := decodeError(encodeError(sentinel))
		if got != sentinel {
			t.Errorf("%v did not round-trip to the identical sentinel, got %#v", sentinel, got)
		}
	}
}

func TestEncodeDecodeErrorWrapped(t *testing.T) {
	wrapped := fmt.Errorf("remote p3: %w", core.ErrStopped)
	got := decodeError(encodeError(wrapped))
	if got.Error() != wrapped.Error() {
		t.Fatalf("Error() = %q, want %q", got.Error(), wrapped.Error())
	}
	if !errors.Is(got, core.ErrStopped) {
		t.Fatal("wrapped sentinel lost its identity across the wire")
	}
	if errors.Is(got, core.ErrCrashed) {
		t.Fatal("decoded error matches a sentinel it never carried")
	}
}

// Regression for the substring-matching bug: an application error whose
// text merely contains a sentinel's message must NOT decode as that
// sentinel. "writer stopped unexpectedly" contains "stopped", which the
// old decoder promoted to core.ErrStopped — making callers treat a live
// remote's real failure as an orderly shutdown.
func TestDecodeErrorPlainTextIsNotASentinel(t *testing.T) {
	for _, msg := range []string{
		"writer stopped unexpectedly",
		"process crashed the parser",
		"memory failed allocation of 3 pages",
		"access denied by firewall",
	} {
		got := decodeError(encodeError(errors.New(msg)))
		if got.Error() != msg {
			t.Errorf("%q round-tripped as %q", msg, got.Error())
		}
		for _, sentinel := range sentinelErrs {
			if errors.Is(got, sentinel) {
				t.Errorf("plain error %q decoded as sentinel %v", msg, sentinel)
			}
		}
	}
}

// Messages from before the coding scheme (or from a corrupted header)
// must degrade to an opaque remote error, never panic or mis-sentinel.
func TestDecodeErrorMalformedCodes(t *testing.T) {
	cases := []struct{ in, want string }{
		{"plain old error", "plain old error"},
		{"\x019bad code index", "bad code index"},
		{"\x01", "\x01"}, // too short to carry a code
		{"", ""},
	}
	for _, c := range cases {
		got := decodeError(c.in)
		if got.Error() != c.want {
			t.Errorf("decodeError(%q).Error() = %q, want %q", c.in, got.Error(), c.want)
		}
		for _, sentinel := range sentinelErrs {
			if errors.Is(got, sentinel) {
				t.Errorf("decodeError(%q) matched sentinel %v", c.in, sentinel)
			}
		}
	}
}
