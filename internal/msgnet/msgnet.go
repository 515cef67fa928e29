// Package msgnet is the message-passing substrate of the m&m model: a
// fully connected network of directed links (§3 of the paper).
//
// Every link satisfies the Integrity axiom by construction: a message is
// delivered to q from p at most as many times as p sent it (the network
// never duplicates or forges). Reliable links additionally satisfy No-loss;
// fair-lossy links may drop messages under a DropPolicy whose contract is
// the Fair-loss axiom: a message sent infinitely often is delivered
// infinitely often.
//
// Delivery timing is controlled by a DeliveryPolicy — the asynchrony
// adversary. The paper makes no timeliness assumption on links, so policies
// may hold messages arbitrarily long (e.g. to partition the system), as
// long as reliable links eventually deliver.
//
// A Network delivers only at Tick: it is the simulator's network. The
// real-time host's in-process backend is transport.Chan.
package msgnet

import (
	"fmt"
	"math/rand"
	"sync"

	"github.com/mnm-model/mnm/internal/core"
)

// LinkKind distinguishes the two link types of the paper.
type LinkKind int

const (
	// Reliable links satisfy Integrity and No-loss.
	Reliable LinkKind = iota + 1
	// FairLossy links satisfy Integrity and Fair-loss.
	FairLossy
)

// String implements fmt.Stringer.
func (k LinkKind) String() string {
	switch k {
	case Reliable:
		return "reliable"
	case FairLossy:
		return "fair-lossy"
	default:
		return fmt.Sprintf("linkkind(%d)", int(k))
	}
}

// DropPolicy decides, at send time on a fair-lossy link, whether the
// message is dropped. Implementations must respect Fair-loss: for any fixed
// (from, to, payload), Drop must return false infinitely often along any
// infinite sequence of attempts.
type DropPolicy interface {
	Drop(from, to core.ProcID, payload core.Value) bool
}

// NoDrop never drops. It is the implicit policy of reliable links.
type NoDrop struct{}

var _ DropPolicy = NoDrop{}

// Drop implements DropPolicy.
func (NoDrop) Drop(core.ProcID, core.ProcID, core.Value) bool { return false }

// RandomDrop drops each message independently with probability P < 1,
// which satisfies Fair-loss with probability 1. The zero value never
// drops. RandomDrop is safe for concurrent use.
type RandomDrop struct {
	// P is the drop probability, clamped to [0, 1).
	P float64

	mu  sync.Mutex
	rng *rand.Rand
}

var _ DropPolicy = (*RandomDrop)(nil)

// NewRandomDrop returns a drop policy with probability p and its own
// deterministic source derived from seed.
func NewRandomDrop(p float64, seed int64) *RandomDrop {
	return &RandomDrop{P: p, rng: rand.New(rand.NewSource(seed))}
}

// Drop implements DropPolicy.
func (d *RandomDrop) Drop(core.ProcID, core.ProcID, core.Value) bool {
	p := d.P
	if p <= 0 {
		return false
	}
	if p >= 1 {
		p = 0.999999 // Fair-loss requires P < 1.
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.rng == nil {
		d.rng = rand.New(rand.NewSource(1))
	}
	return d.rng.Float64() < p
}

// DropFirstK deterministically drops the first K sends of each distinct
// (from, to, rendered payload) triple and then delivers every retry —
// the harshest deterministic adversary compatible with Fair-loss. Payloads
// are keyed by their fmt representation. Safe for concurrent use.
type DropFirstK struct {
	// K is how many leading attempts of each message to drop.
	K int

	mu   sync.Mutex
	seen map[string]int
}

var _ DropPolicy = (*DropFirstK)(nil)

// Drop implements DropPolicy.
func (d *DropFirstK) Drop(from, to core.ProcID, payload core.Value) bool {
	if d.K <= 0 {
		return false
	}
	key := fmt.Sprintf("%d→%d:%v", from, to, payload)
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.seen == nil {
		d.seen = make(map[string]int)
	}
	if d.seen[key] < d.K {
		d.seen[key]++
		return true
	}
	return false
}

// DeliveryPolicy is the asynchrony adversary: it decides at each tick
// whether an in-flight message may be delivered. Reliable-link users must
// pair it with eventual delivery (every message must eventually become
// deliverable) for the No-loss axiom to hold; the policies in this package
// all guarantee that.
type DeliveryPolicy interface {
	// Deliverable reports whether a message sent at sentAt from→to may be
	// delivered at tick now.
	Deliverable(from, to core.ProcID, sentAt, now uint64) bool
}

// Immediate delivers every message at the first tick after it is sent.
type Immediate struct{}

var _ DeliveryPolicy = Immediate{}

// Deliverable implements DeliveryPolicy.
func (Immediate) Deliverable(_, _ core.ProcID, _, _ uint64) bool { return true }

// FixedDelay delivers a message D ticks after it was sent.
type FixedDelay struct {
	// D is the delay in ticks.
	D uint64
}

var _ DeliveryPolicy = FixedDelay{}

// Deliverable implements DeliveryPolicy.
func (d FixedDelay) Deliverable(_, _ core.ProcID, sentAt, now uint64) bool {
	return now >= sentAt+d.D
}

// RandomDelay delays each message by a deterministic pseudo-random number
// of ticks in [0, Max], keyed by sender, receiver and send time, so runs
// remain reproducible without shared state.
type RandomDelay struct {
	// Max is the maximum delay in ticks.
	Max uint64
	// Seed perturbs the per-message delays.
	Seed uint64
}

var _ DeliveryPolicy = RandomDelay{}

// Deliverable implements DeliveryPolicy.
func (d RandomDelay) Deliverable(from, to core.ProcID, sentAt, now uint64) bool {
	if d.Max == 0 {
		return true
	}
	h := splitmix64(d.Seed ^ sentAt ^ uint64(from)<<32 ^ uint64(to)<<16)
	return now >= sentAt+h%(d.Max+1)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Partition holds all messages crossing a two-sided partition until tick
// Until (inclusive holding; messages flow again strictly after Until).
// Messages within a side are delivered immediately. This is the adversary
// of the partitioning argument behind Theorem 4.4 — it can silence the
// network, but it cannot touch shared memory.
type Partition struct {
	// SideA holds the process ids of one side; everything else is side B.
	SideA map[core.ProcID]bool
	// Until is the last tick at which cross-partition messages are held.
	// Use ^uint64(0) for a permanent partition.
	Until uint64
}

var _ DeliveryPolicy = (*Partition)(nil)

// Deliverable implements DeliveryPolicy.
func (p *Partition) Deliverable(from, to core.ProcID, _, now uint64) bool {
	if now <= p.Until && p.SideA[from] != p.SideA[to] {
		return false
	}
	return true
}

// Both composes delivery policies conjunctively: a message is deliverable
// only when every policy allows it.
func Both(a, b DeliveryPolicy) DeliveryPolicy { return chain{a, b} }

type chain struct{ a, b DeliveryPolicy }

func (c chain) Deliverable(from, to core.ProcID, sentAt, now uint64) bool {
	return c.a.Deliverable(from, to, sentAt, now) && c.b.Deliverable(from, to, sentAt, now)
}
