package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"disttime/internal/hlc"
	"disttime/internal/udptime"
	"disttime/internal/wire"
)

// udp-sync: a Client with WithHLC disciplines a DisciplinedClock against
// nproc classic Servers on loopback, each answering from an
// offsetSource. Rounds run back to back: QueryMany, SyncIM (the fixed
// work, run_s and cpu_s), then a commit wait WaitUntilAfter(C+E).
const (
	// syncClaimed is every server's claimed error. The servers' offsets
	// are spread evenly over syncSpread around a common offset drawn from
	// the seed inside ±0.3·syncClaimed, so every seed gives the client
	// the same geometry to intersect, placed differently around true time.
	syncClaimed  = 500 * time.Microsecond
	syncSpread   = syncClaimed / 2
	syncDriftPPM = 50
	syncWarmup   = 20 // rounds per setup, so the clock is disciplined before the first round
	// maxMisplacedShare is the share of rounds that may hold a misplaced
	// measurement (see misplaced) before a run counts it a violation.
	maxMisplacedShare = 0.01
)

type udpSync struct {
	tr      *tracer
	offsets []time.Duration

	srcs    []*offsetSource
	servers []*udptime.Server
	addrs   []string
	dc      *udptime.DisciplinedClock
	hc      *hlc.Clock
	client  *udptime.Client
	lastTS  hlc.Timestamp
	srvTS   map[uint64]hlc.Timestamp
	logical uint32

	acc         syncAcc
	parseSample [][]byte
}

// syncAcc accumulates a run's measurements.
type syncAcc struct {
	// Untraced rounds.
	rtt           blocks
	errMs, waitMs []float64
	// All rounds, and those that held a misplaced measurement.
	rounds, misplaced int
	// Traced rounds.
	syncimUs, overshootUs, allocs, parseNs, gcCycles, gcPauseMs []float64
}

func newUDPSync(seed uint64, tr *tracer) workload {
	rng := rand.New(rand.NewPCG(seed, 0x5c1c))
	w := &udpSync{tr: tr}
	n := runtime.NumCPU()
	base := time.Duration((2*rng.Float64() - 1) * 0.3 * float64(syncClaimed))
	for i := 0; i < n; i++ {
		off := base
		if n > 1 {
			off += time.Duration((float64(i)/float64(n-1) - 0.5) * float64(syncSpread))
		}
		w.offsets = append(w.offsets, off)
	}
	return w
}

func (w *udpSync) setup() error {
	w.srcs, w.servers, w.addrs = nil, nil, nil
	for i, off := range w.offsets {
		src := newOffsetSource(off, syncClaimed, syncDriftPPM, w.tr)
		srv, err := udptime.NewServer("127.0.0.1:0", uint64(i+1), src)
		if err != nil {
			return err
		}
		w.srcs = append(w.srcs, src)
		w.servers = append(w.servers, srv)
		w.addrs = append(w.addrs, srv.Addr().String())
	}
	dc, err := udptime.NewDisciplinedClock(syncDriftPPM)
	if err != nil {
		return err
	}
	w.dc = dc
	w.hc = hlc.New(1000)
	w.client = udptime.NewClient(replyTimeout, dc, udptime.WithHLC(w.hc),
		udptime.WithSyncOptions(udptime.SyncOptions{Delta: syncDriftPPM / 1e6}))
	w.lastTS = hlc.Timestamp{}
	w.srvTS = map[uint64]hlc.Timestamp{}
	var sink meter
	for r := 0; r < syncWarmup; r++ {
		if err := w.round(&sink, false); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	if len(sink.violations) > 0 {
		return fmt.Errorf("warm-up: %s", sink.violations[0])
	}
	w.reset()
	return nil
}

func (w *udpSync) teardown() {
	for _, s := range w.servers {
		s.Close()
	}
	w.servers = nil
}

func (w *udpSync) round(m *meter, traced bool) error {
	root := w.tr.begin("udp-sync.round", 0)
	defer w.tr.end(root)
	var g0, g1 gcStats
	if traced {
		g0 = readGC()
	}
	c0, t0 := cpuSeconds(), time.Now()
	sp := w.tr.begin("udptime.Client.QueryMany", root)
	ms, err := w.client.QueryMany(w.addrs)
	w.tr.end(sp)
	queryWall, queryCPU := time.Since(t0).Seconds(), cpuSeconds()-c0
	if traced {
		g1 = readGC()
	}
	if err != nil {
		return err
	}
	w.acc.rounds++
	if !traced {
		for _, x := range ms {
			w.acc.rtt.add(float64(x.RTT) / 1e3)
		}
	}
	if w.misplaced(ms) > 0 {
		// A measurement whose offset interval misses the true offset is
		// a client fault (see misplaced). It comes and goes with
		// scheduling delay, so the round is counted and reported, not
		// failed, and stops here: SyncIM would discipline the clock
		// away from true time.
		w.acc.misplaced++
		w.contained(m)
		return nil
	}
	c0, t0 = cpuSeconds(), time.Now()
	sp = w.tr.begin("udptime.SyncIM", root)
	_, err = udptime.SyncIM(w.dc, ms)
	w.tr.end(sp)
	syncDur := time.Since(t0)
	m.record(queryWall+syncDur.Seconds(), queryCPU+cpuSeconds()-c0)
	if err != nil {
		return err
	}
	m.attempted += int64(len(w.addrs)) + 2 // the queries, the sync, the commit wait

	c, e := w.contained(m)

	// HLC stamps rise strictly, per server and on the client.
	for _, x := range ms {
		if prev, ok := w.srvTS[x.ServerID]; ok && !prev.Before(x.TS) {
			m.violate("server %d HLC stamp %v does not follow %v", x.ServerID, x.TS, prev)
		}
		w.srvTS[x.ServerID] = x.TS
		w.logical = max(w.logical, x.TS.Logical)
	}
	ts := c.Add(e)
	stamp := w.hc.Now(ts.UnixNano())
	if !w.lastTS.Before(stamp) {
		m.violate("client HLC stamp %v does not follow %v", stamp, w.lastTS)
	}
	for _, x := range ms {
		if !x.TS.Before(stamp) {
			m.violate("client HLC stamp %v does not follow received %v", stamp, x.TS)
		}
	}
	w.lastTS = stamp
	w.logical = max(w.logical, stamp.Logical)

	// Commit wait: after WaitUntilAfter(ts) the host clock is past ts.
	sp = w.tr.begin("udptime.DisciplinedClock.WaitUntilAfter", root)
	t0 = time.Now()
	if err := w.dc.WaitUntilAfter(ts); err != nil {
		return err
	}
	waited := time.Since(t0)
	w.tr.end(sp)
	if h := time.Now(); !h.After(ts) {
		m.violate("commit wait returned at host %v, not past stamp %v", h.UnixNano(), ts.UnixNano())
	}

	if !traced {
		w.acc.errMs = append(w.acc.errMs, float64(e)/1e6)
		w.acc.waitMs = append(w.acc.waitMs, float64(waited)/1e6)
		return nil
	}
	c2, e2, _ := w.dc.Now()
	w.acc.overshootUs = append(w.acc.overshootUs, float64(c2.Add(-e2).Sub(ts))/1e3)
	w.acc.syncimUs = append(w.acc.syncimUs, float64(syncDur)/1e3)
	w.acc.allocs = append(w.acc.allocs, float64(g1.mallocs-g0.mallocs)/float64(len(w.addrs)))
	w.acc.gcCycles = append(w.acc.gcCycles, float64(g1.cycles-g0.cycles))
	w.acc.gcPauseMs = append(w.acc.gcPauseMs, float64(g1.pauseNs-g0.pauseNs)/1e6)
	if len(w.parseSample) < parseSampleSize {
		for _, x := range ms {
			b, err := wire.AppendResponseHLC(nil, wire.ResponseHLC{
				Response: wire.Response{ReqID: uint64(len(w.parseSample)), ServerID: x.ServerID, Clock: x.C, MaxError: x.E},
				TS:       x.TS,
			})
			if err != nil {
				return err
			}
			w.parseSample = append(w.parseSample, b)
		}
	} else {
		w.acc.parseNs = append(w.acc.parseNs, timeParse(w.tr, "wire.ParseResponseHLC", w.parseSample, func(b []byte) uint64 {
			r, _ := wire.ParseResponseHLC(b)
			return r.ReqID
		}))
	}
	return nil
}

// contained checks that the host clock lies in the disciplined clock's
// interval, and returns the clock's reading.
func (w *udpSync) contained(m *meter) (time.Time, time.Duration) {
	h0 := time.Now()
	c, e, synced := w.dc.Now()
	h1 := time.Now()
	if !synced {
		m.violate("disciplined clock unsynchronized after SyncIM")
	}
	if c.Add(-e).After(h1) || c.Add(e).Before(h0) {
		m.violate("host clock [%v, %v] outside disciplined [C-E, C+E] = [%v, %v]",
			h0.UnixNano(), h1.UnixNano(), c.Add(-e).UnixNano(), c.Add(e).UnixNano())
	}
	return c, e
}

// misplaced counts the measurements from honest servers (|offset| <=
// claimed error) whose offset interval misses the true offset of the
// host clock from the disciplined clock; such a miss can only come from
// the client's side of the exchange: Client.query reads the local clock
// and the monotonic send stamp separately (internal/udptime/client.go),
// so a delay between the two shifts the interval up by the delay. A
// dishonest server's measurements
// are left to the containment check. The true offset only changes when
// the clock is adjusted, so one bracketed reading gives it for every
// measurement of the round.
func (w *udpSync) misplaced(ms []udptime.Measurement) int {
	h0 := time.Now()
	c, _, synced := w.dc.Now()
	h1 := time.Now()
	if !synced {
		return 0
	}
	lo, hi := h0.Sub(c).Seconds(), h1.Sub(c).Seconds()
	bad := 0
	for _, x := range ms {
		src := w.srcs[x.ServerID-1]
		honest := src.offset.Abs() <= src.claimed
		if iv := x.OffsetInterval(); honest && (iv.Hi < lo || iv.Lo > hi) {
			bad++
		}
	}
	return bad
}

func (w *udpSync) finish(m *meter) error {
	if len(w.acc.errMs) == 0 {
		return errors.New("no untraced round")
	}
	if w.acc.misplaced > 0 {
		m.notes = append(m.notes, fmt.Sprintf(
			"%d of %d rounds: a Query measurement's offset interval missed the true offset, so the round stopped before SyncIM (internal/udptime/client.go query(); not failed operations: the count varies with scheduling)",
			w.acc.misplaced, w.acc.rounds))
	}
	misplaced := float64(w.acc.misplaced) / float64(w.acc.rounds)
	if misplaced > maxMisplacedShare {
		m.violate("%.1f%% of rounds held a misplaced measurement, more than %.0f%%", 100*misplaced, 100*maxMisplacedShare)
	}
	m.opsPerRound = float64(len(w.addrs))
	w.acc.rtt.report(m)
	m.e2e["error_bound_ms"] = median(w.acc.errMs)
	m.e2e["commit_wait_ms"] = median(w.acc.waitMs)
	if len(w.acc.syncimUs) > 0 {
		l := m.layer
		l["udptime.query_allocs"] = median(w.acc.allocs)
		l["udptime.syncim_us"] = median(w.acc.syncimUs)
		l["udptime.wait_overshoot_us"] = median(w.acc.overshootUs)
		l["hlc.logical_max"] = float64(w.logical)
		l["udptime.misplaced_per_kround"] = 1000 * misplaced
		l["wire.parse_ns"] = median(w.acc.parseNs)
		l["go.gc_cycles"] = mean(w.acc.gcCycles)
		l["go.gc_pause_ms"] = mean(w.acc.gcPauseMs)
	}
	return nil
}

func (w *udpSync) reset() {
	w.acc = syncAcc{}
}
