// Positive fixture for ctrlgroup: control-plane frame literals stamping
// a tenant group or a trace triple into the wire v4 header.
//
//mnmvet:scope ctrlgroup
package ctrlfix

type frameKind uint8

const (
	frameData frameKind = iota
	frameAck
	frameHello
)

// frame mirrors the wire v4 header-carrying struct: the analyzer keys on
// the type name plus the Group/TraceID fields.
type frame struct {
	Kind    frameKind
	Seq     uint64
	AckTo   uint64
	Group   uint32
	TraceID uint64
	SpanID  uint64
	Lamport uint64
}

// mkAck routes a transport-plane ack into one tenant's mailbox plane.
func mkAck(seq uint64, g uint32) frame {
	return frame{Kind: frameAck, AckTo: seq, Group: g} // want "frameAck frame sets Group"
}

// mkHello fabricates causal edges the flight recorder would merge.
func mkHello(tid, sid uint64) frame {
	return frame{Kind: frameHello, TraceID: tid, SpanID: sid} // want "frameHello frame sets TraceID" "frameHello frame sets SpanID"
}

// mkHelloPtr stamps a Lamport tick on a control frame, via pointer literal.
func mkHelloPtr(lt uint64) *frame {
	return &frame{Kind: frameHello, Lamport: lt} // want "frameHello frame sets Lamport"
}

// mkAckConst is caught even when the value is a named non-zero constant.
const ackGroup uint32 = 7

func mkAckConst(seq uint64) frame {
	return frame{Kind: frameAck, AckTo: seq, Group: ackGroup} // want "frameAck frame sets Group"
}
