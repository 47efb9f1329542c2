package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"disttime/internal/core"
	"disttime/internal/service"
	"disttime/internal/simnet"
	"disttime/internal/txn"
)

// sim-service: a seeded service full mesh of svcServers under core.IM,
// uniform link delay and svcLoss message loss, with a txn commit-wait
// client on every server, run to svcHorizon virtual seconds. A run cycles
// through svcSeeds services seeded from --seed, one per round, so each
// service's counts repeat exactly on every visit; the simulator metrics
// are means over all svcSeeds services (one service's mean E depends on
// its seed by tens of percent; the mean over 32 by a few). The
// run is checked every svcSample virtual seconds and timed per period
// svcTau, in which every server runs exactly one sync round. E and the
// commit wait are averaged from svcSettle on, past the start-up
// transient whose size the seed's initial errors decide.
const (
	svcServers = 32
	svcHorizon = 300.0
	svcSample  = 1.0
	svcTau     = 10.0
	svcSettle  = 3 * svcTau
	svcLoss    = 0.01
	svcDelta   = 1e-4
	svcTxnRate = 1.0 // transactions per virtual second per client
	svcSeeds   = 32
)

// svcOutcome is what one seeded run produced; every round of a run must
// produce the same outcome.
type svcOutcome struct {
	events, messages, dropped, commits, resets, incons, syncCalls, replies int64
	errMs, waitMs                                                          float64
	logical                                                                uint32
}

type simService struct {
	tr       *tracer
	cfgs     []service.Config // one per seeded service
	waiter   txn.Waiter
	svc      *service.Service
	wl       *txn.Workload
	fn       *timedSync
	txns     []txn.Txn
	fresh    bool
	cur      int           // the built service's index in cfgs
	next     int           // builds so far
	outcomes []*svcOutcome // per service, from its first run
	acc      svcAcc
}

// svcAcc accumulates a run's measurements.
type svcAcc struct {
	periods blocks // untraced rounds
	// Traced rounds.
	nsPerEvent, allocsPerEvent, gcCycles, gcPauseMs []float64
	syncNs, syncTimed                               int64
}

func newSimService(seed uint64, tr *tracer) workload {
	return newSimServiceWith(seed, tr, txn.CommitWait{})
}

// newSimServiceWith builds the workload with the given commit policy;
// the tests plant txn.BuggyCommitWait through it.
func newSimServiceWith(seed uint64, tr *tracer, waiter txn.Waiter) *simService {
	// Each service deals drifts and initial errors, spread evenly over
	// their ranges, to its servers in a seeded order, draws the initial
	// offsets, and seeds its simulator (delays, loss, stagger, think times).
	rng := rand.New(rand.NewPCG(seed, 0x51e5))
	spread := func(k int) float64 { return float64(k) / float64(svcServers-1) }
	w := &simService{tr: tr, waiter: waiter, outcomes: make([]*svcOutcome, svcSeeds)}
	for k := 0; k < svcSeeds; k++ {
		cfg := service.Config{
			Seed:  rng.Uint64(),
			Delay: simnet.Uniform{Min: 0.001, Max: 0.02},
			Loss:  svcLoss,
		}
		drifts, errs := rng.Perm(svcServers), rng.Perm(svcServers)
		for i := 0; i < svcServers; i++ {
			e0 := 0.02 + 0.08*spread(errs[i])
			cfg.Servers = append(cfg.Servers, service.ServerSpec{
				Delta:         svcDelta,
				Drift:         (2*spread(drifts[i]) - 1) * 0.9 * svcDelta,
				InitialError:  e0,
				InitialOffset: (2*rng.Float64() - 1) * e0,
				SyncEvery:     svcTau,
			})
		}
		w.cfgs = append(w.cfgs, cfg)
	}
	return w
}

// timedSync wraps the service's SyncFunc: it counts calls and replies,
// and during traced rounds times each call and records it as a span.
type timedSync struct {
	fn     core.SyncFunc
	tr     *tracer
	parent int32

	calls, replies int64
	traced, ns     int64 // timed calls and their summed nanoseconds
}

func (t *timedSync) Name() string { return t.fn.Name() }

func (t *timedSync) Sync(s *core.Server, now float64, replies []core.Reply) core.Result {
	t.calls++
	t.replies += int64(len(replies))
	if !t.tr.on.Load() {
		return t.fn.Sync(s, now, replies)
	}
	t0 := time.Now()
	res := t.fn.Sync(s, now, replies)
	t1 := time.Now()
	t.ns += int64(t1.Sub(t0))
	t.traced++
	t.tr.record("core.IM.Sync", t.parent, t0, t1)
	return res
}

func (w *simService) setup() error {
	w.fn = &timedSync{fn: core.IM{}, tr: w.tr}
	w.cur = w.next % svcSeeds
	w.next++
	cfg := w.cfgs[w.cur]
	cfg.Fn = w.fn
	svc, err := service.New(cfg)
	if err != nil {
		return err
	}
	w.txns = w.txns[:0]
	wl, err := txn.Attach(svc, txn.Config{
		Clients:  svcServers,
		Rate:     svcTxnRate,
		Waiter:   w.waiter,
		OnCommit: func(t txn.Txn) { w.txns = append(w.txns, t) },
	})
	if err != nil {
		return err
	}
	w.svc, w.wl, w.fresh = svc, wl, true
	return nil
}

func (w *simService) teardown() { w.svc, w.wl = nil, nil }

func (w *simService) round(m *meter, traced bool) error {
	return w.runService(m, traced, true)
}

// runService runs the built service (building the next one first when
// the built one has run) and checks it; timed runs record measurements.
func (w *simService) runService(m *meter, traced, timed bool) error {
	if !w.fresh {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return err
		}
		m.setup = append(m.setup, time.Since(t0).Seconds())
	}
	w.fresh = false
	root := w.tr.begin("sim-service.round", 0)
	defer w.tr.end(root)

	var g0 gcStats
	if traced {
		g0 = readGC()
	}
	c0 := cpuSeconds()
	var errSum, periodUs float64
	var samples int
	var periods []float64
	loop := func() error {
		for t := svcSample; t <= svcHorizon+1e-9; t += svcSample {
			sp := w.tr.begin("service.Run", root)
			w.fn.parent = sp
			t0 := time.Now()
			w.svc.Run(t)
			periodUs += float64(time.Since(t0)) / 1e3
			w.tr.end(sp)
			if n := int(math.Round(t / svcSample)); n%int(svcTau/svcSample) == 0 {
				periods = append(periods, periodUs)
				periodUs = 0
			}
			e, err := w.checkContainment(m, t)
			if err != nil {
				return err
			}
			if t >= svcSettle {
				errSum += e
				samples++
			}
		}
		return nil
	}
	var err error
	if timed {
		err = m.work(loop)
	} else {
		err = loop()
	}
	cpu := cpuSeconds() - c0
	if err != nil {
		return err
	}
	out := w.outcome(errSum / float64(samples))
	m.attempted += out.commits
	w.checkExternalConsistency(m)
	if w.wl.Violations != 0 {
		m.violate("txn workload counted %d external-consistency violations", w.wl.Violations)
	}
	if first := w.outcomes[w.cur]; first == nil {
		w.outcomes[w.cur] = &out
	} else if *first != out {
		m.violate("seeded service %d did not repeat: %+v then %+v", w.cur, *first, out)
	}
	if !timed {
		return nil
	}
	if !traced {
		for _, x := range periods {
			w.acc.periods.add(x)
		}
		return nil
	}
	g1 := readGC()
	w.acc.syncNs += w.fn.ns
	w.acc.syncTimed += w.fn.traced
	w.acc.nsPerEvent = append(w.acc.nsPerEvent, cpu*1e9/float64(out.events))
	w.acc.allocsPerEvent = append(w.acc.allocsPerEvent, float64(g1.mallocs-g0.mallocs)/float64(out.events))
	w.acc.gcCycles = append(w.acc.gcCycles, float64(g1.cycles-g0.cycles))
	w.acc.gcPauseMs = append(w.acc.gcPauseMs, float64(g1.pauseNs-g0.pauseNs)/1e6)
	return nil
}

// checkContainment verifies |C_i - t| <= E_i for every server from its
// own reading at virtual time t, and returns the mean E in ms.
func (w *simService) checkContainment(m *meter, t float64) (float64, error) {
	var sum float64
	for i, n := range w.svc.Nodes {
		r := n.Server.Reading(t)
		if math.Abs(r.C-t) > r.E {
			m.violate("sim-service t=%v server %d: |C-t| = %v exceeds E = %v", t, i, math.Abs(r.C-t), r.E)
		}
		if math.IsNaN(r.E) || r.E <= 0 {
			return 0, fmt.Errorf("server %d reports error %v", i, r.E)
		}
		sum += r.E
	}
	return 1e3 * sum / float64(len(w.svc.Nodes)), nil
}

// checkExternalConsistency recomputes external consistency from the
// commit records alone: Commit(A) < Start(B) implies TS(A) < TS(B).
func (w *simService) checkExternalConsistency(m *meter) {
	if v := externalViolations(w.txns); v > 0 {
		m.violate("sim-service: %d transactions start after a commit with a timestamp not below theirs", v)
	}
}

// externalViolations counts transactions B for which some A with
// Commit(A) < Start(B) has TS(A) >= TS(B).
func externalViolations(txns []txn.Txn) int {
	byCommit := append([]txn.Txn(nil), txns...)
	sort.Slice(byCommit, func(i, j int) bool { return byCommit[i].Commit < byCommit[j].Commit })
	prefixMax := make([]int, len(byCommit)) // index of the largest TS among byCommit[:i+1]
	for i := range byCommit {
		prefixMax[i] = i
		if i > 0 && byCommit[i].TS.Before(byCommit[prefixMax[i-1]].TS) {
			prefixMax[i] = prefixMax[i-1]
		}
	}
	bad := 0
	for _, b := range txns {
		k := sort.Search(len(byCommit), func(i int) bool { return byCommit[i].Commit >= b.Start })
		if k > 0 && !byCommit[prefixMax[k-1]].TS.Before(b.TS) {
			bad++
		}
	}
	return bad
}

// outcome gathers the seeded run's counts and its simulator metrics.
func (w *simService) outcome(errMs float64) svcOutcome {
	st := w.svc.Net.Stats.Snapshot()
	o := svcOutcome{
		events:    int64(w.svc.Sim.Steps()),
		messages:  st.Sent,
		dropped:   st.Lost,
		commits:   int64(w.wl.Commits),
		syncCalls: w.fn.calls,
		replies:   w.fn.replies,
		errMs:     errMs,
	}
	var wait float64
	var settled int
	for _, t := range w.txns {
		o.logical = max(o.logical, t.TS.Logical)
		if t.Start >= svcSettle {
			wait += t.Commit - t.Start
			settled++
		}
	}
	if settled > 0 {
		o.waitMs = 1e3 * wait / float64(settled)
	}
	for _, n := range w.svc.Nodes {
		o.resets += int64(n.Server.Resets())
		o.incons += int64(n.Server.Inconsistencies())
		o.logical = max(o.logical, n.HLCLast().Logical)
	}
	return o
}

func (w *simService) finish(m *meter) error {
	if w.acc.periods.empty() {
		return errors.New("no untraced round")
	}
	// A short run may not have visited every service; run the rest
	// untimed, so the simulator metrics always cover all of them.
	for w.outcomes[w.next%svcSeeds] == nil {
		w.fresh = false
		if err := w.runService(m, false, false); err != nil {
			return err
		}
	}
	var o svcOutcome
	var errMs, waitMs float64
	for _, x := range w.outcomes {
		o.events += x.events
		o.messages += x.messages
		o.dropped += x.dropped
		o.commits += x.commits
		o.resets += x.resets
		o.incons += x.incons
		o.syncCalls += x.syncCalls
		o.replies += x.replies
		o.logical = max(o.logical, x.logical)
		errMs += x.errMs
		waitMs += x.waitMs
	}
	n := float64(svcSeeds)
	m.opsPerRound = float64(o.events) / n
	w.acc.periods.report(m)
	m.e2e["error_bound_ms"] = errMs / n
	m.e2e["commit_wait_ms"] = waitMs / n
	if len(w.acc.nsPerEvent) > 0 {
		l := m.layer
		l["sim.events"] = float64(o.events) / n
		l["sim.ns_per_event"] = median(w.acc.nsPerEvent)
		l["sim.allocs_per_event"] = median(w.acc.allocsPerEvent)
		l["simnet.messages"] = float64(o.messages) / n
		l["simnet.dropped"] = float64(o.dropped) / n
		l["core.sync_calls"] = float64(o.syncCalls) / n
		l["core.replies_per_sync"] = float64(o.replies) / float64(o.syncCalls)
		l["core.sync_ns"] = float64(w.acc.syncNs) / float64(w.acc.syncTimed)
		l["core.resets"] = float64(o.resets) / n
		l["core.inconsistencies"] = float64(o.incons) / n
		l["txn.commits"] = float64(o.commits) / n
		l["hlc.logical_max"] = float64(o.logical)
		l["go.gc_cycles"] = mean(w.acc.gcCycles)
		l["go.gc_pause_ms"] = mean(w.acc.gcPauseMs)
	}
	return nil
}

func (w *simService) reset() {
	w.acc = svcAcc{}
}
