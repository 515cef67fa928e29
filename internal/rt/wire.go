package rt

import "github.com/mnm-model/mnm/internal/core"

// Wire types for the socket transport; see the comment in
// internal/benor/wire.go. A remote register op and its result cross the
// wire as core.Value on the transport's call plane, so they follow the
// same convention as the algorithm packages' message types.
//
//mnmwiregen:types memOp memResult

// WirePayloads returns one representative of every RPC request and
// response this package sends, for transport round-trip tests.
func WirePayloads() []core.Value {
	return []core.Value{
		memOp{Kind: opRead, Ref: core.Ref{Owner: 0, Name: "r", I: 1, J: -1}},
		memOp{Kind: opWrite, Ref: core.Ref{Owner: 1, Name: "w"}, Val: "v"},
		memOp{Kind: opCAS, Ref: core.Ref{Owner: 2, Name: "c"}, Expected: 1, Val: 2},
		memResult{Val: 7},
		memResult{Val: 2, Swapped: true},
	}
}
