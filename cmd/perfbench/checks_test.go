package main

import (
	"strings"
	"testing"
	"time"

	"disttime/internal/hlc"
	"disttime/internal/txn"
	"disttime/internal/udptime"
	"disttime/internal/wire"
)

// The benchmark's output checks must catch the faults they exist for.

func TestExternalConsistencyCatchesBuggyCommitWait(t *testing.T) {
	for _, tc := range []struct {
		waiter txn.Waiter
		caught bool
	}{
		{txn.CommitWait{}, false},
		{txn.BuggyCommitWait{}, true},
	} {
		w := newSimServiceWith(1, &tracer{}, tc.waiter)
		if err := w.setup(); err != nil {
			t.Fatal(err)
		}
		m := newMeter()
		if err := w.round(m, false); err != nil {
			t.Fatal(err)
		}
		v := externalViolations(w.txns)
		if (v > 0) != tc.caught {
			t.Errorf("%s: %d external-consistency violations among %d commits", tc.waiter.Name(), v, len(w.txns))
		}
		if tc.caught && len(m.violations) == 0 {
			t.Errorf("%s: round reported no violation", tc.waiter.Name())
		}
	}
}

func TestExternalViolationsByHand(t *testing.T) {
	ts := func(wall int64) hlc.Timestamp { return hlc.Timestamp{Wall: wall} }
	txns := []txn.Txn{
		{Client: 0, Start: 0.0, Commit: 1.0, TS: ts(5)},
		{Client: 1, Start: 1.5, Commit: 2.0, TS: ts(4)}, // starts after a commit stamped 5
		{Client: 2, Start: 0.5, Commit: 3.0, TS: ts(3)}, // overlaps the first: no order owed
		{Client: 3, Start: 2.5, Commit: 3.5, TS: ts(6)},
	}
	if got := externalViolations(txns); got != 1 {
		t.Fatalf("got %d violations, want 1", got)
	}
}

func TestServeContainmentCatchesLyingSource(t *testing.T) {
	for _, tc := range []struct {
		offset time.Duration
		caught bool
	}{
		{serveClaimed / 2, false},
		{5 * serveClaimed, true}, // offset beyond the claimed error
	} {
		w := newUDPServe(1, &tracer{}).(*udpServe)
		w.offset = tc.offset
		err := w.setup()
		w.teardown()
		if caught := err != nil && strings.Contains(err.Error(), "misses host window"); caught != tc.caught {
			t.Errorf("offset %v: setup error %v", tc.offset, err)
		}
	}
}

func TestServeStaleReadingCountedApart(t *testing.T) {
	for _, tc := range []struct {
		name          string
		offset        time.Duration
		shift         time.Duration // added to the reading's C
		age           time.Duration // host time from the reading to the send
		stale, caught bool
	}{
		{"fresh", serveClaimed / 2, 0, 0, false, false},
		{"served past the widening", -serveClaimed / 2, 0, 10 * time.Millisecond, true, false},
		{"not a reading the source gave", -serveClaimed / 2, -time.Nanosecond, 10 * time.Millisecond, false, true},
		{"lying source", -5 * serveClaimed, 0, 10 * time.Millisecond, false, true},
	} {
		u := newUDPServe(1, &tracer{}).(*udpServe)
		u.offset = tc.offset
		u.src = newOffsetSource(u.offset, serveClaimed, serveDriftPPM, u.tr)
		c, e, _ := u.src.Now()
		at := c.UnixNano() - int64(tc.offset)
		r := wire.Response{ReqID: 1, Clock: c.Add(tc.shift), MaxError: e + serveTick}
		sent := at + int64(tc.age)
		m := newMeter()
		u.checkReply(m, r, sent, sent+int64(50*time.Microsecond))
		if (m.stale > 0) != tc.stale || (len(m.violations) > 0) != tc.caught {
			t.Errorf("%s: stale %d, violations %q", tc.name, m.stale, m.violations)
		}
	}
}

func TestOffsetSourceHoldStallsReads(t *testing.T) {
	s := newOffsetSource(0, serveClaimed, serveDriftPPM, &tracer{})
	c, e, _ := s.Now()
	at, e2 := s.hold()
	if at != c.UnixNano() || e2 != e {
		t.Fatalf("hold returned reading (%d, %v), want the latest (%d, %v)", at, e2, c.UnixNano(), e)
	}
	done := make(chan struct{})
	go func() {
		s.Now()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("Now returned while the source was held")
	case <-time.After(20 * time.Millisecond):
	}
	s.release()
	<-done
}

func TestSyncContainmentCatchesLyingServers(t *testing.T) {
	for _, tc := range []struct {
		offset time.Duration
		caught bool
	}{
		{0, false},
		{10 * syncClaimed, true}, // every server lies beyond its claimed error
	} {
		w := newUDPSync(1, &tracer{}).(*udpSync)
		for i := range w.offsets {
			w.offsets[i] = tc.offset
		}
		err := w.setup()
		w.teardown()
		if caught := err != nil && strings.Contains(err.Error(), "outside disciplined"); caught != tc.caught {
			t.Errorf("offset %v: setup error %v", tc.offset, err)
		}
	}
}

// slowReturn is a local clock that returns its reading late, as a
// descheduled goroutine would.
type slowReturn struct {
	src   udptime.ClockSource
	delay time.Duration
}

func (s slowReturn) Now() (time.Time, time.Duration, bool) {
	c, e, ok := s.src.Now()
	time.Sleep(s.delay)
	return c, e, ok
}

func TestSyncCatchesMisplacedMeasurements(t *testing.T) {
	w := newUDPSync(1, &tracer{}).(*udpSync)
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	m := newMeter()
	for r := 0; r < 10; r++ {
		if r == 5 {
			// Half the rounds measure against a local clock whose reading
			// arrives 3 ms late, far more than the servers' claimed error.
			// (Without HLC: the HLC update on receipt reads the local
			// clock inside the timed round trip, which would widen the
			// interval by the same delay.)
			w.client = udptime.NewClient(replyTimeout, slowReturn{w.dc, 3 * time.Millisecond},
				udptime.WithSyncOptions(udptime.SyncOptions{Delta: syncDriftPPM / 1e6}))
		}
		if err := w.round(m, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.finish(m); err != nil {
		t.Fatal(err)
	}
	if w.acc.misplaced != 5 || len(m.violations) != 1 || !strings.Contains(m.violations[0], "misplaced") {
		t.Fatalf("%d of %d rounds misplaced, violations %q", w.acc.misplaced, w.acc.rounds, m.violations)
	}
}

func TestBlocksReportMedianOfBlockQuantiles(t *testing.T) {
	var b blocks
	for i := 0; i < 3*blockSize; i++ {
		x := float64(i % blockSize)
		if i >= 2*blockSize {
			x += 1e6 // one stalled block
		}
		b.add(x)
	}
	m := newMeter()
	b.report(m)
	if p50, p99 := m.e2e["p50_us"], m.tails["p99_us"]; p50 > blockSize || p99 > blockSize {
		t.Fatalf("one stalled block of three moved the result: p50 %v p99 %v", p50, p99)
	}
}
