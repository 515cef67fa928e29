// Negative fixture: the disciplined patterns the analyzer must accept —
// snapshot-then-unlock, hand-over-hand, Cond.Wait, non-blocking selects,
// goroutines launched under a lock but not holding it, and package net
// helpers that never touch the network.
package lockfix

import (
	"log"
	"net"
)

func (s *state) snapshotThenLog() {
	s.mu.Lock()
	n := len(s.ch)
	s.mu.Unlock()
	log.Println(n) // lock released: fine
	s.ch <- n
}

func (s *state) condWait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ch) == 0 {
		s.cond.Wait() // releases s.mu while parked: fine
	}
}

func (s *state) goroutineUnder() {
	s.mu.Lock()
	go func() {
		s.ch <- 9 // separate goroutine: does not hold s.mu
	}()
	s.mu.Unlock()
}

func (s *state) nonBlockingSelect() {
	s.mu.Lock()
	defer s.mu.Unlock()
	select {
	case v := <-s.ch:
		_ = v
	default: // cannot park: fine
	}
}

// tryNotify is the non-blocking notifier idiom: its clause's send is part
// of a select with a default, so calling it under a lock blocks nothing.
func (s *state) tryNotify() {
	select {
	case s.ch <- 1:
	default:
	}
}

func (s *state) notifyUnder() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tryNotify()
}

func (s *state) pureWorkUnder() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	total := 0
	for i := 0; i < cap(s.ch); i++ {
		total += i
	}
	return total
}

func (s *state) splitUnder(addr string) string {
	s.mu.Lock()
	defer s.mu.Unlock()
	host, _, _ := net.SplitHostPort(addr) // string parsing, no network: fine
	return host
}
