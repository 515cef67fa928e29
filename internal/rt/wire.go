package rt

import "github.com/mnm-model/mnm/internal/core"

// Wire types for the socket transport; see the comment in
// internal/benor/wire.go. The remote-register RPC envelopes cross the
// wire as core.Value on the transport's call plane, so they follow the
// same convention as the algorithm packages' message types.
//
//mnmwiregen:types memReadReq memReadResp memWriteReq memCASReq memCASResp

// WirePayloads returns one representative of every RPC envelope this
// package sends, for transport round-trip tests.
func WirePayloads() []core.Value {
	return []core.Value{
		memReadReq{Ref: core.Ref{Owner: 0, Name: "r", I: 1, J: -1}},
		memReadResp{Val: 7},
		memWriteReq{Ref: core.Ref{Owner: 1, Name: "w"}, Val: "v"},
		memCASReq{Ref: core.Ref{Owner: 2, Name: "c"}, Expected: 1, Desired: 2},
		memCASResp{Swapped: true, Current: 2},
	}
}
