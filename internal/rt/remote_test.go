package rt

import (
	"errors"
	"testing"

	"github.com/mnm-model/mnm/internal/core"
	"github.com/mnm-model/mnm/internal/graph"
)

// TestServeMemChecksTheSender pins where a served register operation is
// access-checked: against the sender the transport validated. With one
// edge 0–1, p2 is outside S_0 = {0, 1}, so its read, write and CAS of p0's
// register are denied and leave it unchanged; the same requests from p1
// succeed.
func TestServeMemChecksTheSender(t *testing.T) {
	gsm := graph.New(3)
	gsm.AddEdge(0, 1)
	h := openLocal(t, GroupConfig{RunConfig: RunConfig{GSM: gsm}}, noop)
	ref := core.Reg(0, "x")
	if err := h.mem.Write(0, ref, 1); err != nil {
		t.Fatal(err)
	}
	for _, req := range []core.Value{
		memReadReq{Ref: ref},
		memWriteReq{Ref: ref, Val: 2},
		memCASReq{Ref: ref, Expected: 1, Desired: 2},
	} {
		if _, err := h.serveMem(2, req); !errors.Is(err, core.ErrAccessDenied) {
			t.Errorf("%s from p2: err = %v, want %v", reqName(req), err, core.ErrAccessDenied)
		}
		if v, _ := h.mem.Peek(ref); v != 1 {
			t.Fatalf("%s from p2 left the register at %v, want 1", reqName(req), v)
		}
	}

	resp, err := h.serveMem(1, memReadReq{Ref: ref})
	if err != nil || resp != (memReadResp{Val: 1}) {
		t.Fatalf("read from p1 = %v, %v; want %v", resp, err, memReadResp{Val: 1})
	}
	if _, err := h.serveMem(1, memWriteReq{Ref: ref, Val: 2}); err != nil {
		t.Fatalf("write from p1: %v", err)
	}
	resp, err = h.serveMem(1, memCASReq{Ref: ref, Expected: 2, Desired: 3})
	if cr, ok := resp.(memCASResp); err != nil || !ok || !cr.Swapped {
		t.Fatalf("CAS from p1 = %v, %v; want a swap", resp, err)
	}
	if v, _ := h.mem.Peek(ref); v != 3 {
		t.Fatalf("after p1's write and CAS the register holds %v, want 3", v)
	}
}
