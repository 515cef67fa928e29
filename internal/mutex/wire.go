package mutex

import "github.com/mnm-model/mnm/internal/core"

// Wire types for the socket transport; see the comment in
// internal/benor/wire.go.
//
//mnmwiregen:types wakeMsg

// WirePayloads returns one representative of every payload type this
// package sends, for transport round-trip tests.
func WirePayloads() []core.Value {
	return []core.Value{wakeMsg{Seq: 5}}
}
