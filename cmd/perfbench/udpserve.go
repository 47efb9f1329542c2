package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"disttime/internal/hlc"
	"disttime/internal/obs"
	"disttime/internal/udptime"
	"disttime/internal/wire"
)

// udp-serve: a BatchServer with nproc shards answers nproc client
// sockets on loopback from an offsetSource through the default 1 ms
// tick cache. Each round runs four phases:
//
//   - closed loop: serveClosedN v1 requests, serveWindow in flight per
//     socket — the fixed work timed as run_s and cpu_s (serve_qps);
//   - open loop: serveBursts bursts of serveBurst v1 requests, one burst
//     due every servePeriod, each timed from when its burst was due
//     (serve_p50_us); one v3 HLC request rides in every
//     burst, the side stream the batched responder cannot parse yet;
//   - commit wait: serveWaits times, stamp ts = C+E from one reply, then
//     sleep until the served C-E should pass ts and query again, until a
//     reply's C-E does (commit_wait_ms);
//   - tick probe: hold the source until its newest reading is older than
//     the cache's one-tick widening, then send one request.
const (
	serveClosedN = 20000
	serveWindow  = 16
	serveBurst   = 16
	servePeriod  = 2 * time.Millisecond
	serveBursts  = 100
	serveWaits   = 8
	// serveTick is the tick cache's refresh interval, BatchServer's
	// default.
	serveTick = time.Millisecond
	// probeAge is how much older than the source's claimed error the
	// newest reading is when the tick probe is sent: more than the
	// cache's widening, ceil((1+δ)·serveTick).
	probeAge = 2 * serveTick
	// serveClaimed is the source's claimed error; its offset is drawn
	// from the seed inside ±serveClaimed/2.
	serveClaimed  = time.Millisecond
	serveDriftPPM = 50
	// replyTimeout bounds every wait for a reply; it never fires on a
	// working run.
	replyTimeout = 2 * time.Second
	// genTimerSlack is how early the open-loop generator wakes before a
	// burst is due.
	genTimerSlack = 1100 * time.Microsecond
)

// v3Failure and tickFailure attribute the failed operations.
const (
	v3Failure   = "v3 HLC request unanswered: the BatchServer responder parses only v1 and counts v3 as malformed (internal/udptime/responder.go)"
	tickFailure = "tick probe: with the source's reads held, the tick cache kept serving a reading older than its one-tick widening, so [C-E, C+E] missed the host window (internal/udptime/tick.go charges one tick of staleness whatever the reading's age)"
)

type udpServe struct {
	tr     *tracer
	offset time.Duration
	tag    uint64 // request-ID prefix drawn from the seed

	src     *offsetSource
	srv     *udptime.BatchServer
	conns   []*net.UDPConn
	hc      *hlc.Clock
	phase   uint64
	base    time.Time
	batches *obs.Counter

	acc         serveAcc
	parseSample [][]byte
}

func newUDPServe(seed uint64, tr *tracer) workload {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	off := time.Duration((rng.Float64() - 0.5) * float64(serveClaimed))
	return &udpServe{tr: tr, offset: off, tag: rng.Uint64() >> 40}
}

func (u *udpServe) setup() error {
	u.base = time.Now()
	u.src = newOffsetSource(u.offset, serveClaimed, serveDriftPPM, u.tr)
	reg := obs.NewRegistry()
	nproc := runtime.NumCPU()
	srv, err := udptime.NewBatchServer("127.0.0.1:0", 1, u.src, udptime.BatchConfig{Shards: nproc, Tick: serveTick, Registry: reg})
	if err != nil {
		return err
	}
	u.srv = srv
	u.batches = reg.Counter("udptime_server_batches_total")
	u.hc = hlc.New(7)
	for i := 0; i < nproc; i++ {
		c, err := net.DialUDP("udp", nil, srv.Addr())
		if err != nil {
			return err
		}
		_ = c.SetReadBuffer(1 << 20)
		_ = c.SetWriteBuffer(1 << 20)
		u.conns = append(u.conns, c)
	}
	// Set-up ends with one checked request per socket, so a server that
	// answers wrongly fails the run before its rounds. Warming caches
	// and buffers is left to the run's warm-up rounds, which set-up time
	// must not include.
	var sink meter
	if _, err := u.closedLoop(&sink, len(u.conns)); err != nil {
		return fmt.Errorf("first requests: %w", err)
	}
	if len(sink.violations) > 0 {
		return fmt.Errorf("first requests: %s", sink.violations[0])
	}
	return nil
}

func (u *udpServe) teardown() {
	for _, c := range u.conns {
		c.Close()
	}
	u.conns = nil
	if u.srv != nil {
		u.srv.Close()
		u.srv = nil
	}
}

// serveAcc accumulates a run's measurements.
type serveAcc struct {
	// Untraced rounds.
	lat           blocks
	errMs, waitMs []float64
	// All rounds: replies, and those served stale (see meter.stale).
	replies, stale int64
	// Traced rounds.
	served, malformed, fill, userUs, sysUs, readsPerK, lagUs, parseNs []float64
	gcCycles, gcPauseMs                                               []float64
}

// reqID packs the run tag, the phase counter and the request index, so a
// reply can only match a request of the phase in flight.
func (u *udpServe) reqID(idx int) uint64 {
	return u.tag<<40 | (u.phase&0xff)<<32 | uint64(idx)
}

// replyIndex returns the request index a reply ID names, or -1 when the
// ID belongs to no request of the current phase.
func (u *udpServe) replyIndex(id uint64, n int) int {
	if id>>32 != u.tag<<8|(u.phase&0xff) {
		return -1
	}
	idx := int(id & 0xffffffff)
	if idx >= n {
		return -1
	}
	return idx
}

// stamp is a host-clock instant: wall nanoseconds for containment
// checks, and monotonic nanoseconds since setup for durations.
type stamp struct{ wall, mono int64 }

func (u *udpServe) now() stamp {
	t := time.Now()
	return stamp{wall: t.UnixNano(), mono: int64(t.Sub(u.base))}
}

// checkReply verifies a reply against the host clock: the interval
// [C-E, C+E] must meet the window [sent, recv] in which the server
// answered, and the reading must claim synchronization. A reply that
// misses the window early only because it carries an honest reading of
// the source, served after the reading's age outgrew the tick cache's
// widening, is the internal/udptime/tick.go fault the tick probe fails
// on every round; how often the load phases meet it depends on when the
// refresher runs, so it is counted in m.stale, not as a violation.
func (u *udpServe) checkReply(m *meter, r wire.Response, sent, recv int64) {
	lo := r.Clock.Add(-r.MaxError).UnixNano()
	hi := r.Clock.Add(r.MaxError).UnixNano()
	switch {
	case hi < sent && u.honestReading(r):
		m.stale++
	case lo > recv || hi < sent:
		m.violate("udp reply %x: [C-E, C+E] = [%d, %d] misses host window [%d, %d]", r.ReqID, lo, hi, sent, recv)
	}
	if r.Unsynchronized {
		m.violate("udp reply %x claims no synchronization from a synchronized source", r.ReqID)
	}
}

// honestReading reports whether r carries a reading the source gave,
// with its claimed error or more, that contained the host clock when it
// was taken.
func (u *udpServe) honestReading(r wire.Response) bool {
	at := r.Clock.UnixNano() - int64(u.offset)
	e, ok := u.src.reading(at)
	return ok && r.MaxError >= e && u.offset.Abs() <= e
}

func (u *udpServe) round(m *meter, traced bool) error {
	root := u.tr.begin("udp-serve.round", 0)
	defer u.tr.end(root)
	served0, bad0, batches0 := u.srv.Requests(), u.srv.MalformedDatagrams(), u.batches.Value()
	reads0 := u.src.reads.Load()
	stale0 := m.stale
	var gc0 gcStats
	if traced {
		gc0 = readGC()
	}

	// Closed loop: the fixed work.
	var replies int64
	sp := u.tr.begin("closed-loop", root)
	u0, s0 := userSysSeconds()
	err := m.work(func() error {
		n, err := u.closedLoop(m, serveClosedN)
		replies += n
		return err
	})
	u1, s1 := userSysSeconds()
	u.tr.end(sp)
	if err != nil {
		return err
	}
	m.attempted += serveClosedN

	// Open loop at a fixed offered rate, with the v3 side stream.
	sp = u.tr.begin("open-loop", root)
	ol, err := u.openLoop(m)
	u.tr.end(sp)
	if err != nil {
		return err
	}
	replies += ol.v1 + ol.v3Replied
	m.attempted += ol.sent
	if unanswered := ol.v3Sent - ol.v3Replied; unanswered > 0 {
		m.fail(unanswered, v3Failure)
	}

	// Commit waits against the served intervals.
	sp = u.tr.begin("commit-wait", root)
	waits, n, err := u.commitWaits(m)
	u.tr.end(sp)
	if err != nil {
		return err
	}
	replies += n
	m.attempted += serveWaits

	sp = u.tr.begin("tick-probe", root)
	err = u.tickProbe(m)
	u.tr.end(sp)
	if err != nil {
		return err
	}
	replies++
	m.attempted++

	// Server counters against what the clients saw.
	served := u.srv.Requests() - served0
	bad := u.srv.MalformedDatagrams() - bad0
	if int64(served) != replies {
		m.violate("server answered %d requests, clients received %d replies", served, replies)
	}
	if int64(bad) != ol.v3Sent-ol.v3Replied {
		m.violate("server counted %d malformed datagrams, %d v3 requests went unanswered", bad, ol.v3Sent-ol.v3Replied)
	}
	u.acc.replies += replies
	u.acc.stale += m.stale - stale0

	if !traced {
		for _, x := range ol.latUs {
			u.acc.lat.add(x)
		}
		u.acc.errMs = append(u.acc.errMs, median(ol.errMs))
		u.acc.waitMs = append(u.acc.waitMs, waits...)
		return nil
	}
	gc1 := readGC()
	u.acc.gcCycles = append(u.acc.gcCycles, float64(gc1.cycles-gc0.cycles))
	u.acc.gcPauseMs = append(u.acc.gcPauseMs, float64(gc1.pauseNs-gc0.pauseNs)/1e6)
	u.acc.served = append(u.acc.served, float64(served))
	u.acc.malformed = append(u.acc.malformed, float64(bad))
	if b := u.batches.Value() - batches0; b > 0 {
		u.acc.fill = append(u.acc.fill, float64(served+bad)/float64(b))
	}
	u.acc.userUs = append(u.acc.userUs, (u1-u0)*1e6/serveClosedN)
	u.acc.sysUs = append(u.acc.sysUs, (s1-s0)*1e6/serveClosedN)
	u.acc.readsPerK = append(u.acc.readsPerK, float64(u.src.reads.Load()-reads0)*1000/float64(served))
	u.acc.lagUs = append(u.acc.lagUs, ol.lagUs)
	u.acc.parseNs = append(u.acc.parseNs, u.timeParse())
	return nil
}

// closedLoop sends n v1 requests over all sockets, window in flight per
// socket, checking every reply. It returns the replies received.
func (u *udpServe) closedLoop(m *meter, n int) (int64, error) {
	u.phase++
	k := len(u.conns)
	sent := make([]stamp, n)
	results := make([]meter, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for s := range u.conns {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = u.closedSocket(&results[s], s, k, n, sent)
		}(s)
	}
	wg.Wait()
	for s := range results {
		for _, v := range results[s].violations {
			m.violate("%s", v)
		}
		m.stale += results[s].stale
	}
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	return int64(n), nil
}

// closedSocket drives socket s through the indices s, s+k, ... below n.
func (u *udpServe) closedSocket(m *meter, s, k, n int, sent []stamp) error {
	conn := u.conns[s]
	out := make([]byte, 0, wire.RequestSize)
	buf := make([]byte, 512)
	next, inflight := s, 0
	send := func() error {
		out = wire.AppendRequest(out[:0], wire.Request{ReqID: u.reqID(next)})
		sent[next] = u.now()
		_, err := conn.Write(out)
		next += k
		inflight++
		return err
	}
	for inflight < serveWindow && next < n {
		if err := send(); err != nil {
			return err
		}
	}
	if err := conn.SetReadDeadline(time.Now().Add(replyTimeout)); err != nil {
		return err
	}
	done := make([]bool, (n+k-1)/k)
	for inflight > 0 {
		nr, err := conn.Read(buf)
		if err != nil {
			return fmt.Errorf("closed loop socket %d: %d replies missing: %w", s, inflight, err)
		}
		recv := u.now()
		r, err := wire.ParseResponse(buf[:nr])
		idx := u.replyIndex(r.ReqID, n)
		if err != nil || idx < 0 || idx%k != s || done[idx/k] {
			m.violate("closed loop: reply %x echoes no outstanding request (%v)", r.ReqID, err)
			continue
		}
		done[idx/k] = true
		inflight--
		u.checkReply(m, r, sent[idx].wall, recv.wall)
		if next < n {
			if err := send(); err != nil {
				return err
			}
		}
	}
	return nil
}

// openResult summarizes one open-loop phase.
type openResult struct {
	sent, v1, v3Sent, v3Replied int64
	latUs, errMs                []float64
	lagUs                       float64 // mean lateness of sends behind their due time
}

// openLoop sends serveBursts bursts, one due every servePeriod. Each
// burst holds serveBurst v1 requests and one v3 request in its middle.
func (u *udpServe) openLoop(m *meter) (openResult, error) {
	u.phase++
	k := len(u.conns)
	per := serveBurst + 1
	n := serveBursts * per
	isV3 := func(idx int) bool { return idx%per == per/2 }
	due := make([]int64, n)
	sent := make([]atomic.Int64, n) // host wall time each request left
	start := u.now().mono + int64(2*time.Millisecond)
	expect := make([]int64, k)
	for i := range due {
		due[i] = start + int64(i/per)*int64(servePeriod)
		if !isV3(i) {
			expect[i%k]++
		}
	}

	type sockOut struct {
		m         meter
		lat, errs []float64
		v1, v3    int64
		err       error
	}
	outs := make([]sockOut, k)
	var wg sync.WaitGroup
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			o := &outs[s]
			conn := u.conns[s]
			buf := make([]byte, 512)
			if o.err = conn.SetReadDeadline(time.Now().Add(serveBursts*servePeriod + replyTimeout)); o.err != nil {
				return
			}
			for o.v1 < expect[s] {
				nr, err := conn.Read(buf)
				if err != nil {
					o.err = fmt.Errorf("open loop socket %d: %d replies missing: %w", s, expect[s]-o.v1, err)
					return
				}
				recv := u.now()
				var r wire.Response
				v3 := false
				r, err = wire.ParseResponse(buf[:nr])
				if errors.Is(err, wire.ErrBadVersion) {
					var rh wire.ResponseHLC
					rh, err = wire.ParseResponseHLC(buf[:nr])
					r, v3 = rh.Response, true
				}
				idx := u.replyIndex(r.ReqID, n)
				if err != nil || idx < 0 || idx%k != s || isV3(idx) != v3 {
					o.m.violate("open loop: reply %x echoes no outstanding request (%v)", r.ReqID, err)
					continue
				}
				wall := sent[idx].Swap(0)
				if wall == 0 {
					o.m.violate("open loop: duplicate reply %x", r.ReqID)
					continue
				}
				u.checkReply(&o.m, r, wall, recv.wall)
				if v3 {
					o.v3++
					continue
				}
				o.v1++
				o.lat = append(o.lat, float64(recv.mono-due[idx])/1e3)
				o.errs = append(o.errs, float64(r.MaxError)/1e6)
			}
		}(s)
	}

	// The generator: sleep to just before each burst is due, then yield
	// until it is. Go's timers overshoot short sleeps by about a
	// millisecond on Linux, so the sleep ends genTimerSlack early.
	var lag int64
	out := make([]byte, 0, wire.RequestHLCSize)
	var sendErr error
	for i := 0; i < n && sendErr == nil; i++ {
		if i%per == 0 {
			if d := time.Duration(due[i]-u.now().mono) - genTimerSlack; d > 0 {
				time.Sleep(d)
			}
			for u.now().mono < due[i] {
				runtime.Gosched()
			}
		}
		if isV3(i) {
			out = wire.AppendRequestHLC(out[:0], wire.RequestHLC{ReqID: u.reqID(i), TS: u.hc.Now(time.Now().UnixNano())})
		} else {
			out = wire.AppendRequest(out[:0], wire.Request{ReqID: u.reqID(i)})
		}
		t := u.now()
		sent[i].Store(t.wall)
		lag += t.mono - due[i]
		_, sendErr = u.conns[i%k].Write(out)
	}
	wg.Wait()

	res := openResult{sent: int64(n), lagUs: float64(lag) / float64(n) / 1e3}
	errs := []error{sendErr}
	for s := range outs {
		o := &outs[s]
		for _, v := range o.m.violations {
			m.violate("%s", v)
		}
		m.stale += o.m.stale
		errs = append(errs, o.err)
		res.v1 += o.v1
		res.v3Replied += o.v3
		res.latUs = append(res.latUs, o.lat...)
		res.errMs = append(res.errMs, o.errs...)
	}
	res.v3Sent = serveBursts
	return res, errors.Join(errs...)
}

// commitWaits runs serveWaits commit waits on socket 0: stamp ts = C+E
// from one reply, then, until a reply's C-E is past ts, sleep for what
// is left of the wait by the last reply and query again (polling back to
// back would take the cores the tick cache's refresher needs, and time
// that contention instead of the wait). It returns each wait in ms, measured from the stamping reply's
// arrival to the releasing reply's arrival, and the requests made.
func (u *udpServe) commitWaits(m *meter) ([]float64, int64, error) {
	u.phase++
	conn := u.conns[0]
	out := make([]byte, 0, wire.RequestSize)
	buf := make([]byte, 512)
	idx := 0
	query := func() (wire.Response, stamp, error) {
		out = wire.AppendRequest(out[:0], wire.Request{ReqID: u.reqID(idx)})
		idx++
		sent := u.now()
		if err := conn.SetReadDeadline(time.Now().Add(replyTimeout)); err != nil {
			return wire.Response{}, stamp{}, err
		}
		if _, err := conn.Write(out); err != nil {
			return wire.Response{}, stamp{}, err
		}
		for {
			nr, err := conn.Read(buf)
			if err != nil {
				return wire.Response{}, stamp{}, fmt.Errorf("commit wait: %w", err)
			}
			recv := u.now()
			r, err := wire.ParseResponse(buf[:nr])
			if err != nil || u.replyIndex(r.ReqID, idx) != idx-1 {
				m.violate("commit wait: reply %x echoes no outstanding request (%v)", r.ReqID, err)
				continue
			}
			u.checkReply(m, r, sent.wall, recv.wall)
			return r, recv, nil
		}
	}
	var waits []float64
	for w := 0; w < serveWaits; w++ {
		r, t0, err := query()
		if err != nil {
			return nil, int64(idx), err
		}
		ts := r.Clock.Add(r.MaxError)
		for {
			time.Sleep(ts.Sub(r.Clock.Add(-r.MaxError)))
			var t1 stamp
			r, t1, err = query()
			if err != nil {
				return nil, int64(idx), err
			}
			if r.Clock.Add(-r.MaxError).After(ts) {
				// Containment makes the release reply's host window end
				// past the stamp: true time has passed ts.
				if t1.wall <= ts.UnixNano() {
					m.violate("commit wait released at host %d before stamp %d", t1.wall, ts.UnixNano())
				}
				waits = append(waits, float64(t1.mono-t0.mono)/1e6)
				break
			}
		}
	}
	return waits, int64(idx), nil
}

// tickProbe holds the source, waits until its newest reading is older
// than the reading's claimed error plus probeAge, sends one request, and
// releases the source. Every reading the cache can serve meanwhile is
// at most that newest one, so a cache that widens E by one tick whatever
// the reading's age answers with a C+E before the request was sent: the
// operation fails every time until the cache charges the real age.
func (u *udpServe) tickProbe(m *meter) error {
	u.phase++
	at, e := u.src.hold()
	defer u.src.release()
	late := at + int64(u.offset) + int64(e) + int64(probeAge)
	for now := time.Now().UnixNano(); now <= late; now = time.Now().UnixNano() {
		time.Sleep(time.Duration(late-now) + time.Microsecond)
	}
	conn := u.conns[0]
	out := wire.AppendRequest(make([]byte, 0, wire.RequestSize), wire.Request{ReqID: u.reqID(0)})
	sent := u.now()
	if err := conn.SetReadDeadline(time.Now().Add(replyTimeout)); err != nil {
		return err
	}
	if _, err := conn.Write(out); err != nil {
		return err
	}
	buf := make([]byte, 512)
	for {
		nr, err := conn.Read(buf)
		if err != nil {
			return fmt.Errorf("tick probe: %w", err)
		}
		recv := u.now()
		r, err := wire.ParseResponse(buf[:nr])
		if err != nil || u.replyIndex(r.ReqID, 1) != 0 {
			m.violate("tick probe: reply %x echoes no outstanding request (%v)", r.ReqID, err)
			continue
		}
		lo := r.Clock.Add(-r.MaxError).UnixNano()
		hi := r.Clock.Add(r.MaxError).UnixNano()
		switch {
		case lo > recv.wall:
			m.violate("tick probe: [C-E, C+E] = [%d, %d] lies after host window [%d, %d]", lo, hi, sent.wall, recv.wall)
		case hi < sent.wall:
			m.fail(1, tickFailure)
		}
		return nil
	}
}

// timeParse times wire.ParseResponse over a fixed set of replies built
// from the source's readings.
func (u *udpServe) timeParse() float64 {
	if u.parseSample == nil {
		for i := 0; i < parseSampleSize; i++ {
			c, e, _ := u.src.read()
			b, _ := wire.AppendResponse(nil, wire.Response{ReqID: uint64(i), ServerID: 1, Clock: c, MaxError: e})
			u.parseSample = append(u.parseSample, b)
		}
	}
	return timeParse(u.tr, "wire.ParseResponse", u.parseSample, func(b []byte) uint64 {
		r, _ := wire.ParseResponse(b)
		return r.ReqID
	})
}

const parseSampleSize = 256

// timeParse returns the mean nanoseconds of parse over sample, repeated
// enough times to dwarf the clock reads around the loop.
func timeParse(tr *tracer, name string, sample [][]byte, parse func([]byte) uint64) float64 {
	const reps = 200
	sp := tr.begin(name, 0)
	t0 := time.Now()
	var sink uint64
	for r := 0; r < reps; r++ {
		for _, b := range sample {
			sink += parse(b)
		}
	}
	ns := float64(time.Since(t0).Nanoseconds()) / float64(reps*len(sample))
	tr.end(sp)
	parseSink = sink
	return ns
}

// parseSink keeps the timed parse loops from being optimized away.
var parseSink uint64

func (u *udpServe) finish(m *meter) error {
	if len(u.acc.errMs) == 0 {
		return errors.New("no untraced round")
	}
	m.opsPerRound = serveClosedN
	u.acc.lat.report(m)
	m.e2e["error_bound_ms"] = median(u.acc.errMs)
	m.e2e["commit_wait_ms"] = median(u.acc.waitMs)
	stale := float64(u.acc.stale) / float64(u.acc.replies)
	if u.acc.stale > 0 {
		m.notes = append(m.notes, fmt.Sprintf(
			"%d of %d replies missed the host window as honest readings served past the tick cache's widening (internal/udptime/tick.go; not failed operations: the count varies with scheduling, the tick probe fails every round)",
			u.acc.stale, u.acc.replies))
	}
	if len(u.acc.served) > 0 {
		l := m.layer
		l["udptime.served"] = mean(u.acc.served)
		l["udptime.malformed"] = mean(u.acc.malformed)
		l["udptime.batch_fill"] = median(u.acc.fill)
		l["udptime.user_us_per_req"] = median(u.acc.userUs)
		l["udptime.sys_us_per_req"] = median(u.acc.sysUs)
		l["udptime.source_reads_per_kreq"] = median(u.acc.readsPerK)
		l["udptime.source_read_ns"] = u.src.readNsMean()
		l["udptime.stale_per_kreq"] = 1000 * stale
		l["udptime.gen_lag_us"] = median(u.acc.lagUs)
		l["wire.parse_ns"] = median(u.acc.parseNs)
		l["go.gc_cycles"] = mean(u.acc.gcCycles)
		l["go.gc_pause_ms"] = mean(u.acc.gcPauseMs)
	}
	return nil
}

func (u *udpServe) reset() {
	u.acc = serveAcc{}
	u.src.readNs.Store(0)
	u.src.traced.Store(0)
}
