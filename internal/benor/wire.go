package benor

import "github.com/mnm-model/mnm/internal/core"

// The socket transport (internal/transport/tcp) encodes message payloads
// and register values as core.Value through named codecs (internal/wire),
// which requires every concrete payload type to have one. Each algorithm
// package lists its own wire types here; cmd/mnmwiregen generates their
// codecs into wire_codec.go, so that simply importing the algorithm makes
// it runnable over any backend.
//
//mnmwiregen:types Msg Decided Val

// WirePayloads returns one representative of every payload type this
// package sends, for transport round-trip tests.
func WirePayloads() []core.Value {
	return []core.Value{
		Msg{Phase: PhaseR, Round: 3, Val: V1},
		Decided{Val: V0},
	}
}
