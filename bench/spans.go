package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer of the program. Times are nanoseconds since the recorder's epoch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root span
	Unit   int    `json:"unit"`   // the timed unit the span belongs to
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spans is the in-memory span recorder of a traced pass. Only files of
// the benchmark record into it; the program under test is not
// instrumented. A nil *spans records nothing, which is how the untraced
// window runs the same unit code.
type spans struct {
	epoch time.Time
	list  []span
}

func newSpans() *spans { return &spans{epoch: time.Now(), list: make([]span, 0, 1<<16)} }

// begin opens a span and returns its id (0 from a nil recorder).
func (s *spans) begin(name string, parent, unit int) int {
	if s == nil {
		return 0
	}
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Unit: unit, Name: name,
		Start: int64(time.Since(s.epoch))})
	return len(s.list)
}

func (s *spans) end(id int) {
	if s == nil || id == 0 {
		return
	}
	s.list[id-1].End = int64(time.Since(s.epoch))
}

// add records an already-measured interval that ended now.
func (s *spans) add(name string, parent, unit int, d time.Duration) {
	if s == nil {
		return
	}
	end := int64(time.Since(s.epoch))
	s.list = append(s.list, span{ID: len(s.list) + 1, Parent: parent, Unit: unit, Name: name,
		Start: end - int64(d), End: end})
}

// durations returns the ascending durations, in nanoseconds, of every
// finished span with the given name.
func (s *spans) durations(name string) []float64 {
	if s == nil {
		return nil
	}
	var out []float64
	for i := range s.list {
		if sp := &s.list[i]; sp.Name == name && sp.End >= sp.Start && sp.End != 0 {
			out = append(out, float64(sp.End-sp.Start))
		}
	}
	return sortedCopy(out)
}

// p50us is the median duration of the named spans in microseconds (0 when
// the pass recorded none).
func (s *spans) p50us(name string) float64 { return percentile(s.durations(name), 50) / 1e3 }

// writeJSONL writes one span per line.
func (s *spans) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range s.list {
		if err := enc.Encode(&s.list[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
