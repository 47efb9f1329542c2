package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// offsetSource is a udptime.ClockSource whose readings are the host
// clock shifted by a known offset, with a claimed error that starts at
// claimed and grows at driftPPM (rule MM-1 bookkeeping). The host clock
// is the benchmark's true time, so a reply built from this source must
// contain the host clock whenever |offset| <= claimed. It counts its
// reads and, during traced rounds, times each one. It remembers the
// host instant and claimed error of every reading it gave, so a checker
// can tell a reply that carries one of them, and hold stalls it.
type offsetSource struct {
	offset   time.Duration
	claimed  time.Duration
	driftPPM float64
	start    time.Time
	tr       *tracer

	reads  atomic.Uint64
	readNs atomic.Int64 // summed over traced reads
	traced atomic.Uint64

	// gate is read-held around every Now and write-held by hold.
	gate sync.RWMutex

	mu     sync.Mutex
	lastAt int64                   // host wall ns of the latest reading
	lastE  time.Duration           // its claimed error
	given  map[int64]time.Duration // claimed error by host wall ns of each reading
}

// traceEvery is the sampling stride of traced source reads.
const traceEvery = 64

func newOffsetSource(offset, claimed time.Duration, driftPPM float64, tr *tracer) *offsetSource {
	return &offsetSource{offset: offset, claimed: claimed, driftPPM: driftPPM, start: time.Now(), tr: tr,
		given: map[int64]time.Duration{}}
}

// Now implements udptime.ClockSource.
func (s *offsetSource) Now() (time.Time, time.Duration, bool) {
	s.gate.RLock()
	defer s.gate.RUnlock()
	var c time.Time
	var e time.Duration
	// Traced rounds time one read in traceEvery: a span per read would
	// cost more than the read.
	if n := s.reads.Add(1); !s.tr.on.Load() || n%traceEvery != 0 {
		c, e, _ = s.read()
	} else {
		t0 := time.Now()
		c, e, _ = s.read()
		t1 := time.Now()
		s.readNs.Add(int64(t1.Sub(t0)))
		s.traced.Add(1)
		s.tr.record("udptime.ClockSource.Now", 0, t0, t1)
	}
	at := c.UnixNano() - int64(s.offset)
	s.mu.Lock()
	s.lastAt, s.lastE = at, e
	s.given[at] = e
	s.mu.Unlock()
	return c, e, true
}

func (s *offsetSource) read() (time.Time, time.Duration, bool) {
	now := time.Now()
	grow := time.Duration(float64(now.Sub(s.start)) * s.driftPPM / 1e6)
	return now.Add(s.offset), s.claimed + grow, true
}

// DriftPPM reports the claimed drift bound, which BatchServer charges
// into its tick-cache widening.
func (s *offsetSource) DriftPPM() float64 { return s.driftPPM }

// reading returns the claimed error of the reading the source gave at
// host wall instant at, and whether it gave one then.
func (s *offsetSource) reading(at int64) (time.Duration, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.given[at]
	return e, ok
}

// hold stalls the source until release: Now blocks, and no read is in
// flight when hold returns. It returns the host wall instant and the
// claimed error of the latest reading, so no reading given before
// release is newer than that instant.
func (s *offsetSource) hold() (at int64, e time.Duration) {
	s.gate.Lock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastAt, s.lastE
}

func (s *offsetSource) release() { s.gate.Unlock() }

// readNsMean returns the mean duration of the traced reads.
func (s *offsetSource) readNsMean() float64 {
	n := s.traced.Load()
	if n == 0 {
		return 0
	}
	return float64(s.readNs.Load()) / float64(n)
}
