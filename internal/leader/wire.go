package leader

import "github.com/mnm-model/mnm/internal/core"

// Wire types for the socket transport; see the comment in
// internal/benor/wire.go. The sentinel messages are unexported empty
// structs: their codec name is the whole encoding. State is a register
// value, not a message: it crosses the wire inside remote register
// reads/writes when the system is distributed across OS processes.
//
//mnmwiregen:types accusationMsg notifyMsg heartbeatMsg State

// WirePayloads returns one representative of every payload type this
// package sends, for transport round-trip tests.
func WirePayloads() []core.Value {
	return []core.Value{accusationMsg{}, notifyMsg{}, heartbeatMsg{}}
}
