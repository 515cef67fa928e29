package tcp

import (
	"testing"
	"time"

	"github.com/mnm-model/mnm/internal/core"
)

// pushFrame queues f the way a durability-off enqueue does: encoded once,
// then through logEnqueue on a nil frame log.
func pushFrame(t *testing.T, q *pendingQueue, f frame) {
	t.Helper()
	j, _ := (*frameLog)(nil).logEnqueue("", mustAppendFrame(t, f)[4:])
	q.push(j, time.Now())
}

// pushSeq fills q with sequenced frames 1..n, each carrying its Seq as
// payload so its bytes can be told apart from every other frame's.
func pushSeq(t *testing.T, q *pendingQueue, n int) {
	t.Helper()
	for i := 1; i <= n; i++ {
		pushFrame(t, q, frame{Kind: frameData, Seq: uint64(i), From: core.ProcID(i % 3), Payload: i})
	}
}

// frontFrame decodes the oldest queued frame from the queue's own bytes.
func frontFrame(t *testing.T, q *pendingQueue) frame {
	t.Helper()
	var f frame
	pf := q.front()
	if err := decodeFrame(q.head.slab[pf.off+4:pf.end], &f); err != nil {
		t.Fatalf("queued bytes do not decode: %v", err)
	}
	return f
}

// popSeq checks that the oldest queued frame is seq — in its slot and in
// its bytes, payload included — and pops it.
func popSeq(t *testing.T, q *pendingQueue, seq int) {
	t.Helper()
	if f := frontFrame(t, q); f.Seq != uint64(seq) || f.Payload != seq {
		t.Fatalf("front frame bytes hold seq %d payload %v, want %d", f.Seq, f.Payload, seq)
	}
	if pf := q.popFront(); pf.seq != uint64(seq) || pf.from != core.ProcID(seq%3) {
		t.Fatalf("pop returned seq %d from %v, want seq %d", pf.seq, pf.from, seq)
	}
}

// Draining a lone chunk midway rewinds its indices and its slab so the
// same chunk refills from slot 0; the refill must come back out in order,
// each frame with its own bytes.
func TestPendingLoneChunkRewindAndRefill(t *testing.T) {
	var q pendingQueue
	pushSeq(t, &q, 10)
	chunk := q.head
	for i := 1; i <= 10; i++ {
		popSeq(t, &q, i)
	}
	if q.headIdx != 0 || q.tailIdx != 0 || len(chunk.slab) != 0 {
		t.Fatalf("lone chunk not rewound: headIdx=%d tailIdx=%d slab=%d bytes", q.headIdx, q.tailIdx, len(chunk.slab))
	}
	if q.head != chunk {
		t.Fatal("lone chunk was replaced instead of rewound")
	}
	// Refill past the old high-water mark: the rewound chunk must hold a
	// full 64 frames again before linking a second chunk.
	for i := 11; i <= 74; i++ {
		pushFrame(t, &q, frame{Kind: frameData, Seq: uint64(i), From: core.ProcID(i % 3), Payload: i})
	}
	if q.head != chunk || q.head.next != nil {
		t.Fatal("refill of 64 frames should fit the rewound chunk exactly")
	}
	for i := 11; i <= 74; i++ {
		popSeq(t, &q, i)
	}
}

// A fully drained head chunk becomes the spare, and the next chunk-needing
// push must reuse that exact chunk, slab included, instead of allocating.
// Frames queued before the recycling keep their bytes, and so do frames
// written into the recycled slab.
func TestPendingSpareChunkReuse(t *testing.T) {
	var q pendingQueue
	pushSeq(t, &q, pendingChunkFrames+1) // chunk A full, chunk B holds one
	chunkA := q.head
	slabCap := cap(chunkA.slab)
	for i := 1; i <= pendingChunkFrames; i++ {
		popSeq(t, &q, i)
	}
	if q.spare != chunkA {
		t.Fatal("drained head chunk was not kept as the spare")
	}
	if q.head == chunkA {
		t.Fatal("drained chunk still heads the queue")
	}
	if len(chunkA.slab) != 0 || cap(chunkA.slab) != slabCap {
		t.Fatalf("spare slab holds %d bytes of cap %d, want empty with its cap %d kept", len(chunkA.slab), cap(chunkA.slab), slabCap)
	}
	// Fill chunk B; the 65th live frame needs a new chunk — the spare.
	last := pendingChunkFrames + 1
	for i := 0; i < pendingChunkFrames; i++ {
		last++
		pushFrame(t, &q, frame{Kind: frameData, Seq: uint64(last), From: core.ProcID(last % 3), Payload: last})
	}
	if q.tail != chunkA {
		t.Fatal("push did not reuse the spare chunk")
	}
	if q.spare != nil {
		t.Fatal("spare not consumed")
	}
	for i := pendingChunkFrames + 1; i <= last; i++ {
		popSeq(t, &q, i)
	}
	if q.length != 0 {
		t.Fatalf("length = %d after draining", q.length)
	}
}

// A chunk whose slab large frames grew past maxPooledBuf gives the slab to
// the GC when it is recycled, instead of pinning it for the link's
// lifetime.
func TestPendingSpareSlabBounded(t *testing.T) {
	var q pendingQueue
	big := make([]byte, maxPooledBuf)
	for i := 1; i <= pendingChunkFrames+1; i++ {
		payload := core.Value(i)
		if i == 1 {
			payload = string(big)
		}
		pushFrame(t, &q, frame{Kind: frameData, Seq: uint64(i), Payload: payload})
	}
	chunkA := q.head
	for i := 1; i <= pendingChunkFrames; i++ {
		q.popFront()
	}
	if q.spare != chunkA || cap(chunkA.slab) > maxPooledBuf {
		t.Fatalf("recycled spare keeps a %d-byte slab, cap is %d", cap(chunkA.slab), maxPooledBuf)
	}
}
