package rsm

import "github.com/mnm-model/mnm/internal/core"

// Wire types for the socket transport; see the comment in
// internal/benor/wire.go.
//
//mnmwiregen:types submitMsg Command

// WirePayloads returns one representative of every payload type this
// package sends, for transport round-trip tests.
func WirePayloads() []core.Value {
	return []core.Value{submitMsg{Cmd: Command{Proposer: 2, Seq: 7, Op: "put k v"}}}
}
