// Package leader implements the eventual leader election (Ω) algorithms of
// §5 of "Passing Messages while Sharing Memory" (PODC 2018).
//
// The main loop (Figure 3) is shared by both algorithms; they differ only
// in the notification mechanism: messages over reliable links (Figure 4)
// or shared registers for fair-lossy links (Figure 5).
//
// The design point is the paper's synchrony claim: correctness needs only
// ONE timely process — every communication link and every other process
// may be arbitrarily asynchronous. Each process p keeps a shared register
// STATE[p] = (hb, counter, active): hb is a heartbeat p increments while it
// believes itself leader, counter is a "badness" count of the accusations
// p received, active marks that p currently claims leadership. Processes
// pick as leader the contender with the smallest (counter, id); wrongly
// suspected leaders accumulate badness until a timely process — whose
// heartbeat always grows fast enough once its accusers' timeouts adapt —
// has the minimum badness and wins forever.
//
// In the steady state no messages are sent at all; the leader periodically
// writes one (local, §5.3) register and everyone else periodically reads
// it — plus, with the Figure-5 notifier, one periodic local read by the
// leader. Theorems 5.3 and 5.4 show this is optimal.
//
// The algorithm is available in two forms: New returns a self-contained
// core.Algorithm that loops forever, and NewDetector returns a steppable
// Ω module that a host algorithm (such as the replicated log in
// internal/rsm) ticks from its own loop — the way Ω is consumed by
// Paxos-style protocols.
package leader

import (
	"fmt"

	"github.com/mnm-model/mnm/internal/core"
)

// StateRegName is the register family of STATE[p] (owned by p).
const StateRegName = "STATE"

// Expose keys published by leader-election processes.
const (
	// LeaderKey carries the process's current leader (core.ProcID).
	LeaderKey = "leader"
	// BadnessKey carries the process's own badness counter.
	BadnessKey = "badness"
)

// State is the triple stored in STATE[p].
type State struct {
	// HB is the heartbeat, incremented by p while it believes itself
	// leader.
	HB uint64
	// Counter is the badness counter: how many times p was accused.
	Counter uint64
	// Active marks that p currently believes itself leader.
	Active bool
}

// accusationMsg is the payload of an accusation.
type accusationMsg struct{}

// NotifierKind selects the notification mechanism.
type NotifierKind int

const (
	// MessageNotifier is Figure 4 (requires reliable links).
	MessageNotifier NotifierKind = iota + 1
	// SharedMemoryNotifier is Figure 5 (works with fair-lossy links).
	SharedMemoryNotifier
)

// String implements fmt.Stringer.
func (k NotifierKind) String() string {
	switch k {
	case MessageNotifier:
		return "message-notifier"
	case SharedMemoryNotifier:
		return "shared-memory-notifier"
	default:
		return fmt.Sprintf("notifierkind(%d)", int(k))
	}
}

// Config parameterizes the leader election.
type Config struct {
	// Notifier selects Figure 4 or Figure 5. Defaults to MessageNotifier.
	Notifier NotifierKind
	// InitialTimeout is the paper's η: heartbeat timers start at η+1
	// local steps and adapt upward on false suspicion. Defaults to 32.
	InitialTimeout uint64
}

func (c *Config) setDefaults() {
	if c.Notifier == 0 {
		c.Notifier = MessageNotifier
	}
	if c.InitialTimeout == 0 {
		c.InitialTimeout = 32
	}
}

// New returns the self-contained leader election algorithm. The
// shared-memory graph must be complete (§5 assumes G_SM is the complete
// graph); the run fails fast on any register access the domain denies.
func New(cfg Config) core.Algorithm {
	return core.AlgorithmFunc(func(id core.ProcID) core.Process {
		return func(env core.Env) error {
			det, err := NewDetector(env, cfg)
			if err != nil {
				return err
			}
			for {
				if err := det.Tick(env); err != nil {
					return err
				}
				// Every iteration ends in one Yield: timers advance even
				// when an idle non-leader performs no shared operation,
				// and on rt the leader parks between heartbeats instead
				// of spinning a core (DESIGN.md §4.2, parking).
				env.Yield()
			}
		}
	})
}

// Detector is a steppable Ω failure detector: one Tick executes one
// iteration of the Figure-3 loop. A host algorithm should Tick regularly
// (at least once per bounded number of its own steps) and may read Leader
// between ticks. Messages the detector does not own (neither notifications
// nor accusations) are appended to Foreign for the host to consume.
type Detector struct {
	cfg      Config
	notifier Notifier
	me       core.ProcID

	state      []State
	hbTimeout  []uint64
	timerEnd   []uint64
	timerOn    []bool
	contenders []bool // contenders[q]: q is a contender
	ldr        core.ProcID
	accused    bool

	// Foreign buffers the non-detector messages drained from the
	// mailbox, in arrival order. Host algorithms take them from here.
	Foreign []core.Message
}

// NewDetector returns a detector for env's process.
func NewDetector(env core.Env, cfg Config) (*Detector, error) {
	cfg.setDefaults()
	var notifier Notifier
	switch cfg.Notifier {
	case MessageNotifier:
		notifier = NewMsgNotifier()
	case SharedMemoryNotifier:
		notifier = NewSHMNotifier()
	default:
		return nil, fmt.Errorf("leader: unknown notifier kind %v", cfg.Notifier)
	}
	n := env.N()
	d := &Detector{
		cfg:        cfg,
		notifier:   notifier,
		me:         env.ID(),
		state:      make([]State, n),
		hbTimeout:  make([]uint64, n),
		timerEnd:   make([]uint64, n),
		timerOn:    make([]bool, n),
		contenders: make([]bool, n),
		ldr:        core.NoProc,
	}
	for q := 0; q < n; q++ {
		d.hbTimeout[q] = cfg.InitialTimeout + 1
	}
	d.contenders[d.me] = true
	return d, nil
}

// Leader returns the current Ω output.
func (d *Detector) Leader() core.ProcID { return d.ldr }

// Badness returns the process's own badness counter.
func (d *Detector) Badness() uint64 { return d.state[d.me].Counter }

func (d *Detector) writeOwnState(env core.Env) error {
	me := env.ID()
	return env.Write(core.Reg(me, StateRegName), d.state[me])
}

func (d *Detector) readState(env core.Env, q core.ProcID) error {
	raw, err := env.Read(core.Reg(q, StateRegName))
	if err != nil {
		return err
	}
	if raw == nil {
		d.state[q] = State{}
		return nil
	}
	st, ok := raw.(State)
	if !ok {
		return fmt.Errorf("leader: STATE[%v] holds %T", q, raw)
	}
	d.state[q] = st
	return nil
}

func (d *Detector) drain(env core.Env) {
	for {
		m, ok := env.TryRecv()
		if !ok {
			return
		}
		if d.notifier.HandleMessage(m) {
			continue
		}
		if _, ok := m.Payload.(accusationMsg); ok {
			d.accused = true
			continue
		}
		d.Foreign = append(d.Foreign, m)
	}
}

func (d *Detector) startTimer(env core.Env, q core.ProcID) {
	d.timerOn[q] = true
	d.timerEnd[q] = env.LocalSteps() + d.hbTimeout[q]
}

// Tick runs one iteration of the Figure-3 loop.
func (d *Detector) Tick(env core.Env) error {
	me := env.ID()
	d.drain(env)

	// Line 9: pick the contender with the smallest (counter, id).
	prev := d.ldr
	ldr := me
	best := d.state[me].Counter
	for qi, on := range d.contenders {
		q := core.ProcID(qi)
		if on && (d.state[q].Counter < best || (d.state[q].Counter == best && q < ldr)) {
			ldr = q
			best = d.state[q].Counter
		}
	}
	d.ldr = ldr
	// Both keys are exposed on the first Tick, which moves the leader off
	// NoProc, and afterwards only on change: the own badness changes only
	// where it is incremented below.
	if ldr != prev {
		env.Expose(LeaderKey, ldr)
	}
	if prev == core.NoProc {
		env.Expose(BadnessKey, d.state[me].Counter)
	}

	// Lines 10–11: p became leader — announce to everyone.
	if prev != me && ldr == me {
		for _, q := range env.Procs() {
			if q == me {
				continue
			}
			if err := d.notifier.Notify(env, q); err != nil {
				return err
			}
		}
	}
	// Lines 12–14: p lost leadership — clear the active bit.
	if prev == me && ldr != me {
		d.state[me].Active = false
		if err := d.writeOwnState(env); err != nil {
			return err
		}
	}
	// Lines 15–27: leader duties.
	if ldr == me {
		d.state[me].HB++
		d.state[me].Active = true
		if err := d.writeOwnState(env); err != nil {
			return err
		}
		competitors, err := d.notifier.Poll(env)
		if err != nil {
			return err
		}
		for _, q := range competitors {
			if q == me {
				continue
			}
			d.contenders[q] = true
			d.startTimer(env, q)
			if err := d.readState(env, q); err != nil {
				return err
			}
			if err := d.notifier.Notify(env, q); err != nil {
				return err
			}
		}
		d.drain(env)
		if d.accused {
			d.accused = false
			d.state[me].Counter++
			env.Expose(BadnessKey, d.state[me].Counter)
			if err := d.writeOwnState(env); err != nil {
				return err
			}
		}
	}

	// Lines 28–39: monitor contenders' heartbeats.
	for _, q := range env.Procs() {
		if q == me || !d.timerOn[q] {
			continue
		}
		if env.LocalSteps() < d.timerEnd[q] {
			continue
		}
		previousHB := d.state[q].HB
		if err := d.readState(env, q); err != nil {
			return err
		}
		if d.state[q].HB > previousHB {
			d.startTimer(env, q)
			continue
		}
		d.contenders[q] = false
		d.timerOn[q] = false
		if d.state[q].Active {
			if err := env.Send(q, accusationMsg{}); err != nil {
				return err
			}
			d.hbTimeout[q]++
		}
	}
	return nil
}
