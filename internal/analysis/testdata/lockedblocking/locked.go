// Positive fixture: blocking and slow work under a held mutex — the
// peer.ack bug class. Each flagged line models a pattern the analyzer
// must catch in internal/transport and internal/rt.
package lockfix

import (
	"fmt"
	"log"
	"net"
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

// earlyUnlockBranch releases the lock only on the early-return path: the
// fall-through still holds it.
func (s *state) earlyUnlockBranch() {
	s.mu.Lock()
	if len(s.ch) == 0 {
		s.mu.Unlock()
		return
	}
	log.Println("still held") // want "log.Println while holding s.mu"
	s.mu.Unlock()
}

func use(int) {}

// goArgUnder spawns use, but receives its argument on this goroutine,
// with the lock held.
func (s *state) goArgUnder() {
	s.mu.Lock()
	go use(<-s.ch) // want "channel receive while holding s.mu"
	s.mu.Unlock()
}

// link carries a connection and a logging callback, as the tcp
// transport's peers do.
type link struct {
	mu   sync.Mutex
	conn net.Conn
	logf func(format string, args ...any)
}

func (l *link) closeUnder() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.conn.Close() // want "l.conn.Close while holding l.mu; network calls can block"
}

func (l *link) logUnder() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.logf("under lock") // want "logging through l.logf while holding l.mu"
}
