package tcp

import "testing"

// pushFrame queues f the way a durability-off enqueue does: through
// logEnqueue on a nil frame log.
func pushFrame(q *pendingQueue, f frame) {
	j, _ := (*frameLog)(nil).logEnqueue("", &f)
	q.push(j)
}

// pushSeq fills q with sequenced frames 1..n.
func pushSeq(q *pendingQueue, n int) {
	for i := 1; i <= n; i++ {
		pushFrame(q, frame{Kind: frameData, Seq: uint64(i)})
	}
}

// markDropped must find a frame that lives past the head chunk — the walk
// crosses chunk links, and the tombstone must not disturb its slot.
func TestPendingMarkDroppedNonHeadChunk(t *testing.T) {
	var q pendingQueue
	pushSeq(&q, 100) // two chunks (64 + 36)
	const victim = 70
	if !q.markDropped(victim) {
		t.Fatalf("markDropped(%d) did not find the frame", victim)
	}
	if q.markDropped(victim) {
		t.Fatal("markDropped found an already-dropped frame")
	}
	if q.length != 100 || q.live != 99 {
		t.Fatalf("length=%d live=%d after tombstone, want 100/99", q.length, q.live)
	}
	// Popping everything (a cumulative ack through seq 100) must surface
	// exactly one dropped frame, at the victim's position, payload-free.
	for i := 1; i <= 100; i++ {
		pf := q.popFront()
		if pf.f.Seq != uint64(i) {
			t.Fatalf("pop %d returned seq %d", i, pf.f.Seq)
		}
		if pf.dropped != (i == victim) {
			t.Fatalf("seq %d dropped=%v", i, pf.dropped)
		}
	}
	if q.length != 0 || q.live != 0 {
		t.Fatalf("length=%d live=%d after draining", q.length, q.live)
	}
}

func TestPendingMarkDroppedMissingSeq(t *testing.T) {
	var q pendingQueue
	pushSeq(&q, 10)
	if q.markDropped(11) {
		t.Fatal("markDropped invented a frame")
	}
	if q.live != 10 {
		t.Fatalf("live=%d after failed markDropped, want 10", q.live)
	}
}

// Draining a lone chunk midway rewinds its indices so the same chunk
// refills from slot 0; the refill must come back out in order.
func TestPendingLoneChunkRewindAndRefill(t *testing.T) {
	var q pendingQueue
	pushSeq(&q, 10)
	chunk := q.head
	for i := 1; i <= 10; i++ {
		if pf := q.popFront(); pf.f.Seq != uint64(i) {
			t.Fatalf("pop returned seq %d, want %d", pf.f.Seq, i)
		}
	}
	if q.headIdx != 0 || q.tailIdx != 0 {
		t.Fatalf("lone chunk not rewound: headIdx=%d tailIdx=%d", q.headIdx, q.tailIdx)
	}
	if q.head != chunk {
		t.Fatal("lone chunk was replaced instead of rewound")
	}
	// Refill past the old high-water mark: the rewound chunk must hold a
	// full 64 frames again before linking a second chunk.
	for i := 11; i <= 74; i++ {
		pushFrame(&q, frame{Seq: uint64(i)})
	}
	if q.head != chunk || q.head.next != nil {
		t.Fatal("refill of 64 frames should fit the rewound chunk exactly")
	}
	for i := 11; i <= 74; i++ {
		if pf := q.popFront(); pf.f.Seq != uint64(i) {
			t.Fatalf("refilled pop returned seq %d, want %d", pf.f.Seq, i)
		}
	}
}

// A fully drained head chunk becomes the spare, and the next chunk-needing
// push must reuse that exact chunk instead of allocating.
func TestPendingSpareChunkReuse(t *testing.T) {
	var q pendingQueue
	pushSeq(&q, pendingChunkFrames+1) // chunk A full, chunk B holds one
	chunkA := q.head
	for i := 1; i <= pendingChunkFrames; i++ {
		q.popFront()
	}
	if q.spare != chunkA {
		t.Fatal("drained head chunk was not kept as the spare")
	}
	if q.head == chunkA {
		t.Fatal("drained chunk still heads the queue")
	}
	// Fill chunk B; the 65th live frame needs a new chunk — the spare.
	for i := 0; i < pendingChunkFrames; i++ {
		pushFrame(&q, frame{Seq: uint64(100 + i)})
	}
	if q.tail != chunkA {
		t.Fatal("push did not reuse the spare chunk")
	}
	if q.spare != nil {
		t.Fatal("spare not consumed")
	}
}
