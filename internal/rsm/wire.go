package rsm

import "github.com/mnm-model/mnm/internal/core"

// Wire types for the socket transport; see the comment in
// internal/benor/wire.go.
//
//mnmwiregen:types submitMsg Batch

// WirePayloads returns one representative of every payload type this
// package sends, for transport round-trip tests.
func WirePayloads() []core.Value {
	cmds := []Command{{Proposer: 2, Seq: 7, Op: "put k v"}, {Proposer: 0, Seq: 0, Op: ""}}
	return []core.Value{submitMsg{Cmds: cmds}, Batch(cmds)}
}
