package hbo

import (
	"github.com/mnm-model/mnm/internal/benor"
	"github.com/mnm-model/mnm/internal/core"
)

// Wire types for the socket transport; see the comment in
// internal/benor/wire.go.
//
//mnmwiregen:types Msg Decided Tuple

// WirePayloads returns one representative of every payload type this
// package sends, for transport round-trip tests.
func WirePayloads() []core.Value {
	return []core.Value{
		Msg{Phase: benor.PhaseP, Round: 2, Tuples: []Tuple{
			{Q: 0, Val: benor.V0},
			{Q: 1, Val: benor.Unknown},
		}},
		Decided{Val: benor.V1},
	}
}
