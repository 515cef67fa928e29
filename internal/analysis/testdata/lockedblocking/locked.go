// Positive fixture: blocking and slow work under a held mutex — the
// peer.ack bug class. Each flagged line models a pattern the analyzer
// must catch in internal/transport and internal/rt.
package lockfix

import (
	"fmt"
	"log"
	"sync"
	"time"
)

type hist struct{}

func (hist) Observe(time.Duration) {}

type state struct {
	mu   sync.Mutex
	wg   sync.WaitGroup
	cond *sync.Cond
	ch   chan int
	h    hist
}

func (s *state) everythingUnder() {
	s.mu.Lock()
	s.ch <- 1                     // want "channel send while holding s.mu"
	<-s.ch                        // want "channel receive while holding s.mu"
	s.h.Observe(time.Millisecond) // want "histogram Observe while holding s.mu"
	log.Printf("under lock")      // want "log.Printf while holding s.mu"
	fmt.Println("under lock")     // want "stdout"
	time.Sleep(time.Millisecond)  // want "time.Sleep while holding s.mu"
	s.wg.Wait()                   // want "WaitGroup.Wait while holding s.mu"
	s.mu.Unlock()
}

func (s *state) deferHolds() {
	s.mu.Lock()
	defer s.mu.Unlock()
	log.Println("held to return") // want "log.Println while holding s.mu"
}

func (s *state) parkedSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select { // want "select while holding s.mu"
	case v := <-s.ch:
		_ = v
	case s.ch <- 1:
	}
}

// waitNotify parks in a select with no default: calling it under a lock
// blocks, and the summary must say so at the call site.
func (s *state) waitNotify() {
	select {
	case s.ch <- 1:
	case <-s.ch:
	}
}

func (s *state) waitUnder() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.waitNotify() // want "call to waitNotify \(blocks\) while holding s.mu"
}

// deliverLocked follows the repo convention: the suffix promises the
// caller holds a lock, so blocking work inside is flagged.
func (s *state) deliverLocked() {
	s.ch <- 2 // want "channel send while holding the caller's lock"
}
