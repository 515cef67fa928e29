package paxos

import "github.com/mnm-model/mnm/internal/core"

// Wire types for the socket transport; see the comment in
// internal/benor/wire.go. Paxos communicates through shared registers
// only, so its wire types are register values crossing the remote-register
// RPC plane rather than messages.
//
//mnmwiregen:types Block

// WirePayloads returns one representative of every wire-crossing value
// this package stores in registers, for transport round-trip tests.
func WirePayloads() []core.Value {
	return []core.Value{Block{MBal: 3, Bal: 2, Inp: "v"}}
}
